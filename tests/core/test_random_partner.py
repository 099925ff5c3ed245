"""Unit tests for Algorithm 2 (random balancing partners)."""

import numpy as np
import pytest

from repro.core.potential import potential
from repro.core.random_partner import (
    RandomPartnerBalancer,
    link_degrees,
    partner_flows,
    partner_round_continuous,
    partner_round_discrete,
    sample_partner_links,
    sample_partners,
)


class TestSampling:
    def test_partner_never_self(self, rng):
        for n in (2, 3, 17, 100):
            partners = sample_partners(n, rng)
            assert (partners != np.arange(n)).all()

    def test_partner_in_range(self, rng):
        partners = sample_partners(50, rng)
        assert partners.min() >= 0 and partners.max() < 50

    def test_partner_distribution_uniform(self):
        # Node 0's partner should be uniform over {1,...,n-1}.
        n, trials = 5, 40_000
        rng = np.random.default_rng(0)
        counts = np.zeros(n)
        for _ in range(trials):
            counts[sample_partners(n, rng)[0]] += 1
        assert counts[0] == 0
        expected = trials / (n - 1)
        assert np.abs(counts[1:] - expected).max() < 5 * np.sqrt(expected)

    def test_needs_two_nodes(self, rng):
        with pytest.raises(ValueError):
            sample_partners(1, rng)

    def test_links_canonical_unique(self, rng):
        links = sample_partner_links(64, rng)
        assert (links[:, 0] < links[:, 1]).all()
        assert np.unique(links, axis=0).shape == links.shape
        # Lexicographic row order fixes the scatter's accumulation order.
        order = np.lexsort((links[:, 1], links[:, 0]))
        np.testing.assert_array_equal(order, np.arange(links.shape[0]))

    @pytest.mark.parametrize("n", [2, 3, 5, 17, 4096])
    def test_links_equal_row_unique_reference(self, n):
        for seed in range(200):
            partners = sample_partners(n, np.random.default_rng(seed))
            ids = np.arange(n)
            lo, hi = np.minimum(ids, partners), np.maximum(ids, partners)
            expected = np.unique(np.stack([lo, hi], axis=1), axis=0)
            links = sample_partner_links(n, np.random.default_rng(seed))
            assert links.dtype == np.int64
            np.testing.assert_array_equal(links, expected)

    def test_link_count_bounds(self, rng):
        # n picks collapse to between n/2 (all mutual) and n links.
        for _ in range(20):
            links = sample_partner_links(40, rng)
            assert 20 <= links.shape[0] <= 40

    def test_every_node_has_a_link(self, rng):
        links = sample_partner_links(32, rng)
        deg = link_degrees(32, links)
        assert (deg >= 1).all()

    def test_degrees_sum_twice_links(self, rng):
        links = sample_partner_links(32, rng)
        assert link_degrees(32, links).sum() == 2 * links.shape[0]


class TestFlows:
    def test_flow_formula_continuous(self):
        links = np.asarray([[0, 1]])
        deg = np.asarray([2, 3])
        loads = np.asarray([20.0, 8.0])
        f = partner_flows(loads, links, deg)
        assert f[0] == pytest.approx((20 - 8) / (4 * 3))

    def test_flow_formula_discrete(self):
        links = np.asarray([[0, 1]])
        deg = np.asarray([1, 1])
        f = partner_flows(np.asarray([9, 0], dtype=np.int64), links, deg, discrete=True)
        assert f[0] == 2  # floor(9/4)

    def test_round_conserves_continuous(self, rng):
        loads = rng.uniform(0, 100, 50)
        out = partner_round_continuous(loads, rng)
        assert out.sum() == pytest.approx(loads.sum(), rel=1e-12)

    def test_round_conserves_discrete(self, rng):
        loads = rng.integers(0, 10_000, 50).astype(np.int64)
        out = partner_round_discrete(loads, rng)
        assert out.sum() == loads.sum()
        assert out.dtype == np.int64

    def test_potential_never_increases_continuous(self, rng):
        loads = rng.uniform(0, 100, 64)
        for _ in range(20):
            new = partner_round_continuous(loads, rng)
            assert potential(new) <= potential(loads) + 1e-9
            loads = new

    def test_potential_never_increases_discrete(self, rng):
        loads = rng.integers(0, 10_000, 64).astype(np.int64)
        for _ in range(20):
            new = partner_round_discrete(loads, rng)
            assert potential(new) <= potential(loads) + 1e-9
            loads = new

    def test_lemma11_expected_drop(self):
        # Average the one-round ratio over many trials: must be <= 19/20
        # (measured is typically ~0.7).
        rng = np.random.default_rng(7)
        n = 128
        loads = np.zeros(n)
        loads[0] = 1000.0
        ratios = []
        for _ in range(300):
            out = partner_round_continuous(loads, rng)
            ratios.append(potential(out) / potential(loads))
        assert np.mean(ratios) <= 19 / 20

    def test_two_nodes_balance_quarter(self):
        rng = np.random.default_rng(0)
        out = partner_round_continuous(np.asarray([8.0, 0.0]), rng)
        # Only one link possible: (0,1), degrees 1,1; transfer 8/4 = 2.
        assert out.tolist() == [6.0, 2.0]


class TestBalancer:
    def test_step_records_links(self, rng):
        bal = RandomPartnerBalancer()
        loads = np.ones(16) * 4
        bal.step(loads, rng)
        assert bal.last_links is not None
        assert bal.last_degrees is not None
        assert bal.last_degrees.sum() == 2 * bal.last_links.shape[0]

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            RandomPartnerBalancer(mode="hybrid")

    def test_discrete_step_integer(self, rng):
        bal = RandomPartnerBalancer(mode="discrete")
        out = bal.step(np.full(16, 10, dtype=np.int64), rng)
        assert out.dtype == np.int64

    def test_deterministic_given_seed(self):
        loads = np.zeros(32)
        loads[0] = 320.0
        a = RandomPartnerBalancer().step(loads, np.random.default_rng(9))
        b = RandomPartnerBalancer().step(loads, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_different_rounds_different_links(self):
        bal = RandomPartnerBalancer()
        rng = np.random.default_rng(1)
        loads = np.full(64, 5.0)
        bal.step(loads, rng)
        first = bal.last_links.copy()
        bal.step(loads, rng)
        assert not np.array_equal(first, bal.last_links)
