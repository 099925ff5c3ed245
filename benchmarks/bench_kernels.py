"""Microbenchmarks of the round kernels (the hot path of every experiment).

These are the numbers to watch when touching the vectorized sweeps:
one round of each scheme on a 100x100 torus (10k nodes, 20k edges) and on
a 4096-node random 8-regular expander.  Unlike the experiment benches,
these use pytest-benchmark's statistical timing (many rounds).
"""

import numpy as np
import pytest

from repro.baselines.first_order import fos_round_continuous, fos_round_discrete_randomized
from repro.core.diffusion import diffusion_round_continuous, diffusion_round_discrete
from repro.core.potential import potential
from repro.core.random_partner import RandomPartnerBalancer, partner_round_continuous
from repro.core.sequential import sequentialize_round
from repro.graphs.generators import random_regular, torus_2d
from repro.graphs.matchings import luby_matching


@pytest.fixture(scope="module")
def big_torus():
    return torus_2d(100, 100)


@pytest.fixture(scope="module")
def big_expander():
    return random_regular(4096, 8, rng=np.random.default_rng(0))


@pytest.fixture(scope="module")
def torus_loads(big_torus):
    return np.random.default_rng(1).integers(0, 10_000, big_torus.n).astype(np.int64)


def test_kernel_diffusion_continuous_10k(benchmark, big_torus, torus_loads):
    loads = torus_loads.astype(np.float64)
    out = benchmark(diffusion_round_continuous, loads, big_torus)
    assert out.sum() == pytest.approx(loads.sum(), rel=1e-9)


def test_kernel_diffusion_discrete_10k(benchmark, big_torus, torus_loads):
    out = benchmark(diffusion_round_discrete, torus_loads, big_torus)
    assert out.sum() == torus_loads.sum()


def test_kernel_diffusion_discrete_expander(benchmark, big_expander):
    loads = np.random.default_rng(2).integers(0, 10_000, big_expander.n).astype(np.int64)
    out = benchmark(diffusion_round_discrete, loads, big_expander)
    assert out.sum() == loads.sum()


def test_kernel_fos_continuous_10k(benchmark, big_torus, torus_loads):
    loads = torus_loads.astype(np.float64)
    out = benchmark(fos_round_continuous, loads, big_torus)
    assert out.sum() == pytest.approx(loads.sum(), rel=1e-9)


def test_kernel_fos_randomized_10k(benchmark, big_torus, torus_loads):
    rng = np.random.default_rng(3)
    out = benchmark(fos_round_discrete_randomized, torus_loads, big_torus, rng)
    assert out.sum() == torus_loads.sum()


def test_kernel_partner_round_10k(benchmark):
    loads = np.random.default_rng(4).uniform(0, 100, 10_000)
    rng = np.random.default_rng(5)
    out = benchmark(partner_round_continuous, loads, rng)
    assert out.sum() == pytest.approx(loads.sum(), rel=1e-9)


def test_kernel_partner_round_batch_4096x8(benchmark):
    """One lockstep ``step_batch`` round at the dispatch shard shape (n=4096, B=8)."""
    loads = np.random.default_rng(8).uniform(0, 100, (4096, 8))
    rngs = [np.random.default_rng(10 + b) for b in range(8)]
    out = benchmark(RandomPartnerBalancer().step_batch, loads, rngs)
    np.testing.assert_allclose(out.sum(axis=0), loads.sum(axis=0), rtol=1e-9)


def test_kernel_luby_matching_10k(benchmark, big_torus):
    rng = np.random.default_rng(6)
    ids = benchmark(luby_matching, big_torus, rng)
    assert ids.size > 0


def test_kernel_potential_10k(benchmark, torus_loads):
    phi = benchmark(potential, torus_loads)
    assert phi > 0


def test_kernel_sequentialization_2k_edges(benchmark):
    """The O(m log m) proof-device sweep on a 1024-node torus."""
    topo = torus_2d(32, 32)
    loads = np.random.default_rng(7).uniform(0, 1000, topo.n)
    report = benchmark(sequentialize_round, loads, topo)
    assert report.lemma1_violations == []
