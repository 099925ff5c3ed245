"""Unit tests for graph-family generators."""

import numpy as np
import pytest

from repro.graphs import generators as g
from repro.graphs.topology import Topology


class TestPathCycle:
    def test_path_counts(self):
        t = g.path(5)
        assert (t.n, t.m) == (5, 4)
        assert t.max_degree == 2
        assert t.degree(0) == 1 and t.degree(4) == 1

    def test_cycle_counts(self):
        t = g.cycle(6)
        assert (t.n, t.m) == (6, 6)
        assert set(t.degrees.tolist()) == {2}

    def test_cycle_minimum_size(self):
        with pytest.raises(ValueError):
            g.cycle(2)

    def test_path_and_cycle_connected(self):
        assert g.path(10).is_connected
        assert g.cycle(10).is_connected


class TestDenseFamilies:
    def test_complete_counts(self):
        t = g.complete(6)
        assert t.m == 15
        assert set(t.degrees.tolist()) == {5}

    def test_star_counts(self):
        t = g.star(7)
        assert t.m == 6
        assert t.degree(0) == 6
        assert all(t.degree(i) == 1 for i in range(1, 7))

    def test_wheel_counts(self):
        t = g.wheel(6)  # hub + 5-cycle rim
        assert t.m == 10
        assert t.degree(0) == 5
        assert all(t.degree(i) == 3 for i in range(1, 6))

    def test_wheel_minimum(self):
        with pytest.raises(ValueError):
            g.wheel(3)


class TestGridTorus:
    def test_grid_counts(self):
        t = g.grid_2d(3, 4)
        assert t.n == 12
        assert t.m == 3 * 3 + 2 * 4  # horizontal + vertical

    def test_torus_regularity(self):
        t = g.torus_2d(4, 5)
        assert t.n == 20
        assert set(t.degrees.tolist()) == {4}
        assert t.m == 2 * 20

    @pytest.mark.parametrize("rows,cols", [(3, 3), (3, 4), (5, 7), (16, 16)])
    def test_torus_equals_per_node_edge_list(self, rows, cols):
        # Reference: each node links right and down, with wraparound.
        edges = []
        for r in range(rows):
            for c in range(cols):
                edges.append((r * cols + c, r * cols + (c + 1) % cols))
                edges.append((r * cols + c, ((r + 1) % rows) * cols + c))
        assert g.torus_2d(rows, cols) == Topology(rows * cols, edges)

    def test_torus_minimum_dims(self):
        with pytest.raises(ValueError):
            g.torus_2d(2, 5)

    def test_grid_connected(self):
        assert g.grid_2d(5, 7).is_connected


class TestHypercubeDeBruijn:
    def test_hypercube_counts(self):
        t = g.hypercube(4)
        assert t.n == 16
        assert set(t.degrees.tolist()) == {4}
        assert t.m == 4 * 16 // 2

    def test_hypercube_neighbors_differ_one_bit(self):
        t = g.hypercube(3)
        for u, v in t.iter_edges():
            assert bin(u ^ v).count("1") == 1

    def test_de_bruijn_counts(self):
        t = g.de_bruijn(4)
        assert t.n == 16
        assert t.max_degree <= 4
        assert t.is_connected

    def test_de_bruijn_successor_structure(self):
        t = g.de_bruijn(3)
        for v in range(t.n):
            for succ in ((2 * v) % t.n, (2 * v + 1) % t.n):
                if succ != v:
                    assert t.has_edge(v, succ)


class TestTrees:
    def test_binary_tree_counts(self):
        t = g.binary_tree(3)
        assert t.n == 15
        assert t.m == 14
        assert t.is_connected

    def test_k_ary_tree_counts(self):
        t = g.k_ary_tree(3, 2)
        assert t.n == 13  # 1 + 3 + 9
        assert t.m == 12

    def test_tree_max_degree(self):
        t = g.binary_tree(3)
        assert t.max_degree == 3  # internal node: parent + 2 children


class TestRandomFamilies:
    def test_random_regular_is_regular(self, rng):
        t = g.random_regular(20, 4, rng=rng)
        assert set(t.degrees.tolist()) == {4}
        assert t.is_connected

    def test_random_regular_parity_check(self, rng):
        with pytest.raises(ValueError):
            g.random_regular(7, 3, rng=rng)

    def test_random_regular_d_bounds(self, rng):
        with pytest.raises(ValueError):
            g.random_regular(4, 4, rng=rng)

    def test_random_regular_reproducible(self):
        a = g.random_regular(16, 4, rng=np.random.default_rng(5))
        b = g.random_regular(16, 4, rng=np.random.default_rng(5))
        assert a == b

    def test_erdos_renyi_p_extremes(self, rng):
        assert g.erdos_renyi(10, 0.0, rng=rng).m == 0
        assert g.erdos_renyi(10, 1.0, rng=rng).m == 45

    def test_erdos_renyi_p_validated(self, rng):
        with pytest.raises(ValueError):
            g.erdos_renyi(10, 1.5, rng=rng)


class TestStressFamilies:
    def test_barbell_counts(self):
        t = g.barbell(4)
        assert t.n == 8
        assert t.m == 2 * 6 + 1
        assert t.is_connected

    def test_lollipop_counts(self):
        t = g.lollipop(4, 3)
        assert t.n == 7
        assert t.m == 6 + 3

    def test_petersen(self):
        t = g.petersen()
        assert (t.n, t.m) == (10, 15)
        assert set(t.degrees.tolist()) == {3}


class TestByName:
    @pytest.mark.parametrize(
        "spec,n",
        [
            ("path:5", 5),
            ("cycle:6", 6),
            ("complete:4", 4),
            ("star:5", 5),
            ("wheel:6", 6),
            ("grid:2x3", 6),
            ("torus:3x3", 9),
            ("hypercube:3", 8),
            ("debruijn:3", 8),
            ("bintree:2", 7),
            ("barbell:3", 6),
            ("lollipop:3+2", 5),
            ("petersen", 10),
        ],
    )
    def test_resolves(self, spec, n):
        assert g.by_name(spec).n == n

    def test_seeded_regular_reproducible(self):
        assert g.by_name("regular:16x4@3") == g.by_name("regular:16x4@3")

    def test_unknown_family_raises(self):
        with pytest.raises(ValueError, match="unknown topology family"):
            g.by_name("mobius:5")

    def test_malformed_spec_raises(self):
        with pytest.raises(ValueError):
            g.by_name("torus")

    def test_wrong_param_count_raises(self):
        with pytest.raises(ValueError):
            g.by_name("torus:5")
