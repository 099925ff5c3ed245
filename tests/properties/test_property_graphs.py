"""Property-based tests for the graph substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import generators as g
from repro.graphs.matchings import is_matching, luby_matching, two_stage_matching
from repro.graphs.spectral import (
    gamma,
    lambda_2,
    laplacian_eigenvalues,
    laplacian_matrix,
)
from repro.graphs.topology import Topology, _canonicalize_edges


@st.composite
def random_graph(draw):
    """An arbitrary simple graph on 2..16 nodes (possibly disconnected)."""
    n = draw(st.integers(min_value=2, max_value=16))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(possible), max_size=len(possible), unique=True))
    return Topology(n, chosen)


@given(random_graph())
@settings(max_examples=80, deadline=None)
def test_laplacian_psd(topo):
    vals = laplacian_eigenvalues(topo)
    assert (vals >= -1e-9).all()


@given(random_graph())
@settings(max_examples=80, deadline=None)
def test_laplacian_trace_equals_degree_sum(topo):
    lap = laplacian_matrix(topo)
    assert np.trace(lap) == topo.degrees.sum()


@given(random_graph())
@settings(max_examples=80, deadline=None)
def test_lambda2_positive_iff_connected(topo):
    lam2 = lambda_2(topo)
    if topo.is_connected:
        assert lam2 > 1e-12
    else:
        assert lam2 <= 1e-9


@given(random_graph())
@settings(max_examples=50, deadline=None)
def test_gamma_below_one_when_connected(topo):
    if topo.m > 0 and topo.is_connected:
        assert gamma(topo) < 1.0 - 1e-12


@given(random_graph())
@settings(max_examples=50, deadline=None)
def test_lambda2_at_most_n_over_n_minus_1_min_degree_bound(topo):
    """Fiedler: lambda_2 <= n/(n-1) * min degree."""
    if topo.n >= 2:
        assert lambda_2(topo) <= topo.n / (topo.n - 1) * topo.min_degree + 1e-9


@given(random_graph(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_luby_matching_valid_on_any_graph(topo, seed):
    rng = np.random.default_rng(seed)
    m = luby_matching(topo, rng)
    assert is_matching(topo, m)


@given(random_graph(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_two_stage_matching_valid_on_any_graph(topo, seed):
    rng = np.random.default_rng(seed)
    m = two_stage_matching(topo, rng)
    assert is_matching(topo, m)


@given(random_graph(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_relabel_preserves_spectrum(topo, seed):
    perm = np.random.default_rng(seed).permutation(topo.n)
    re = topo.relabeled(perm)
    assert np.allclose(laplacian_eigenvalues(topo), laplacian_eigenvalues(re), atol=1e-8)


@given(st.integers(min_value=3, max_value=40))
@settings(max_examples=30, deadline=None)
def test_cycle_closed_form_any_size(n):
    from repro.graphs.spectral import lambda2_cycle

    assert lambda_2(g.cycle(n)) == lambda2_cycle(n) or abs(
        lambda_2(g.cycle(n)) - lambda2_cycle(n)
    ) < 1e-9


@given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_partner_links_structure(n, seed):
    from repro.core.random_partner import link_degrees, sample_partner_links

    rng = np.random.default_rng(seed)
    links = sample_partner_links(n, rng)
    # canonical, no self-loops, every node covered
    assert (links[:, 0] < links[:, 1]).all()
    deg = link_degrees(n, links)
    assert (deg >= 1).all()
    assert n / 2 <= links.shape[0] <= n


@st.composite
def edge_list_with_repeats(draw):
    """``(n, pairs)``: random pairs plus repeated and reversed copies, shuffled."""
    n = draw(st.integers(min_value=2, max_value=40))
    node = st.integers(min_value=0, max_value=n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]), max_size=60))
    extra = []
    if pairs:
        for (u, v), flip in draw(st.lists(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=40)):
            extra.append((v, u) if flip else (u, v))
    return n, draw(st.permutations(pairs + extra))


@given(edge_list_with_repeats(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_canonical_edges_match_row_unique_reference(case, as_array):
    n, pairs = case
    arr = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    lo, hi = np.minimum(arr[:, 0], arr[:, 1]), np.maximum(arr[:, 0], arr[:, 1])
    expected = np.unique(np.stack([lo, hi], axis=1), axis=0)
    got = _canonicalize_edges(n, arr if as_array else pairs)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got.reshape(-1, 2), expected)
