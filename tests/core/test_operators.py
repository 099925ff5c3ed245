"""Unit tests for the cached per-topology EdgeOperator."""

import numpy as np
import pytest

from repro.core.operators import EdgeOperator, edge_operator
from repro.graphs import generators as g
from repro.graphs.topology import Topology


class TestCaching:
    def test_same_instance_per_topology(self, torus):
        assert edge_operator(torus) is edge_operator(torus)

    def test_distinct_topologies_get_distinct_operators(self):
        a, b = g.torus_2d(4, 4), g.torus_2d(4, 4)
        assert edge_operator(a) is not edge_operator(b)

    def test_denominators_shared_with_topology_cache(self, torus):
        op = edge_operator(torus)
        assert op.denominators is torus.edge_denominators
        assert op.denominators_int is torus.edge_denominators_int

    def test_round_matrix_cached(self, torus):
        op = edge_operator(torus)
        if op.round_matrix() is None:
            pytest.skip("SciPy unavailable")
        assert op.round_matrix() is op.round_matrix()
        assert op.fos_round_matrix(0.2) is op.fos_round_matrix(0.2)
        assert op.fos_round_matrix(0.2) is not op.fos_round_matrix(0.1)


class TestDenominatorCache:
    def test_values_match_formula(self, any_topology):
        deg = any_topology.degrees
        u, v = any_topology.edges[:, 0], any_topology.edges[:, 1]
        want = 4 * np.maximum(deg[u], deg[v])
        assert np.array_equal(any_topology.edge_denominators_int, want)
        assert np.array_equal(any_topology.edge_denominators, want.astype(np.float64))

    def test_read_only(self, torus):
        with pytest.raises(ValueError):
            torus.edge_denominators[0] = 1.0


class TestRoundMatrix:
    def test_matches_flow_formulation(self, any_topology, rng):
        """M @ l equals the explicit flows-and-scatter round (within fp)."""
        op = edge_operator(any_topology)
        M = op.round_matrix()
        if M is None:
            pytest.skip("SciPy unavailable")
        loads = rng.uniform(0, 100, any_topology.n)
        diff = op.differences(loads)
        explicit = op.apply_flows(loads, diff / op.denominators)
        assert np.allclose(M @ loads, explicit, rtol=1e-12, atol=1e-9)

    def test_row_sums_one(self, any_topology):
        op = edge_operator(any_topology)
        M = op.round_matrix()
        if M is None:
            pytest.skip("SciPy unavailable")
        ones = np.ones(any_topology.n)
        assert np.allclose(M @ ones, ones)  # uniform loads are a fixed point

    def test_empty_graph_is_identity(self):
        topo = Topology(3, [])
        op = edge_operator(topo)
        loads = np.asarray([1.0, 2.0, 3.0])
        assert np.array_equal(op.round_continuous(loads), loads)
        assert np.array_equal(
            op.round_discrete(np.asarray([1, 2, 3], dtype=np.int64)), [1, 2, 3]
        )


class TestApplyFlows:
    def test_out_buffer_respected(self, torus, rng):
        op = edge_operator(torus)
        loads = rng.uniform(0, 100, torus.n)
        flows = op.differences(loads) / op.denominators
        buf = np.empty_like(loads)
        out = op.apply_flows(loads, flows, out=buf)
        assert out is buf
        assert np.array_equal(out, op.apply_flows(loads, flows))

    def test_out_aliasing_rejected(self, torus, rng):
        op = edge_operator(torus)
        loads = rng.uniform(0, 100, torus.n)
        flows = op.differences(loads) / op.denominators
        with pytest.raises(ValueError):
            op.apply_flows(loads, flows, out=loads)

    def test_int_apply_exact(self, torus, rng):
        op = edge_operator(torus)
        loads = rng.integers(0, 10_000, torus.n).astype(np.int64)
        diff = op.differences(loads)
        flows = np.sign(diff) * (np.abs(diff) // op.denominators_int)
        out = op.apply_flows(loads, flows)
        assert out.dtype == np.int64
        assert out.sum() == loads.sum()


class TestScratch:
    def test_scratch_reused_by_key(self, torus):
        op = edge_operator(torus)
        a = op.scratch("x", (4, 2), np.float64)
        b = op.scratch("x", (4, 2), np.float64)
        assert a is b
        assert op.scratch("x", (4, 3), np.float64) is not a
        assert op.scratch("y", (4, 2), np.float64) is not a


def _staged_backends():
    from repro.core.backends import available_backends

    return [b for b in ("numpy", "scipy") if b in available_backends()]


def _int64_reference(loads, topo):
    """One round through the pure-int64 flows + int64 incidence scatter."""
    from repro.core.diffusion import apply_edge_flows, diffusion_flows

    return apply_edge_flows(loads, topo, diffusion_flows(loads, topo, discrete=True),
                            backend="numpy")


class TestFloat64StagedRound:
    """The staged discrete round runs in float64 below RECIP_DIV_LIMIT and
    must equal the int64 reference exactly, right up to the limit, at any
    degree, on exact multiples of the damping and on negative loads."""

    @staticmethod
    def _topologies():
        # complete(50) and star(104) damp by 196 and 412: divisors whose
        # *unbiased* reciprocal truncates many exact multiples one short.
        return [g.complete(64), g.complete(50), g.star(104), g.star(257)]

    @staticmethod
    def _check(topo, loads):
        want = _int64_reference(loads, topo)
        for name in _staged_backends():
            op = EdgeOperator(topo, name)
            if loads.ndim == 1:
                got = op.round_discrete(loads)
            else:
                got = op.round_discrete(np.ascontiguousarray(loads.T)).T
            assert got.dtype == np.int64
            assert np.array_equal(got, want), name
            assert got.sum() == loads.sum()

    @pytest.mark.parametrize("batched", [False, True])
    def test_loads_at_limit_minus_one(self, batched, rng):
        from repro.core.operators import RECIP_DIV_LIMIT

        top = RECIP_DIV_LIMIT - 1
        for topo in self._topologies():
            shape = (5, topo.n) if batched else (topo.n,)
            loads = rng.integers(0, 2, shape).astype(np.int64) * top
            loads[..., 0] = 0  # hub of the star / one clique node: worst inflow
            loads[..., 1] = top
            self._check(topo, loads)

    def test_star_hub_inflow_is_worst_case(self):
        """Every leaf at the limit, hub empty: the hub's scatter fold sums
        n - 1 maximal flows, the largest partial sum any graph reaches."""
        from repro.core.operators import RECIP_DIV_LIMIT

        topo = g.star(257)
        loads = np.full(topo.n, RECIP_DIV_LIMIT - 1, dtype=np.int64)
        loads[0] = 0
        self._check(topo, loads)
        self._check(topo, np.stack([loads, loads[::-1].copy()]))

    @pytest.mark.parametrize("batched", [False, True])
    def test_differences_at_exact_multiples_of_damping(self, batched, rng):
        from repro.core.operators import RECIP_DIV_LIMIT

        for topo in self._topologies():
            den = 4 * topo.max_degree  # regular clique / star: one damping value
            kmax = (RECIP_DIV_LIMIT - 2) // den
            shape = (4, topo.n) if batched else (topo.n,)
            k = rng.integers(0, kmax, shape)
            off = rng.integers(-1, 2, shape)
            loads = (k * den + off).clip(0, RECIP_DIV_LIMIT - 1).astype(np.int64)
            loads[..., :3] = [0, kmax * den, den]
            self._check(topo, loads)

    @pytest.mark.parametrize("batched", [False, True])
    def test_negative_loads(self, batched, rng):
        from repro.core.operators import RECIP_DIV_LIMIT

        half = RECIP_DIV_LIMIT // 2
        for topo in self._topologies():
            shape = (3, topo.n) if batched else (topo.n,)
            # max - min = RECIP_DIV_LIMIT - 1: the float64 path, at its edge
            loads = rng.integers(-(half - 1), half, shape).astype(np.int64)
            loads[..., 0], loads[..., 1] = -(half - 1), half
            self._check(topo, loads)
            # one past it: the int64 fallback
            loads[..., 1] = half + 1
            self._check(topo, loads)

    @pytest.mark.parametrize("batched", [False, True])
    def test_random_differences_both_sides_of_limit(self, batched, torus, rng):
        """Random loads just below the limit (reciprocal path) and far
        above it (integer fallback) give the exact floor division — also
        where edges damp by different values (grid, wheel)."""
        from repro.core.operators import RECIP_DIV_LIMIT

        for topo in (torus, g.grid_2d(4, 5), g.wheel(12)):
            shape = (6, topo.n) if batched else (topo.n,)
            for _ in range(10):
                self._check(topo, rng.integers(0, RECIP_DIV_LIMIT, shape).astype(np.int64))
                self._check(topo, rng.integers(0, 8 * RECIP_DIV_LIMIT, shape).astype(np.int64))

    @pytest.mark.parametrize("batched", [False, True])
    def test_exact_multiples_of_damping_on_both_paths(self, batched, torus):
        """Exact multiples are the adversarial case for reciprocal division
        (an unbiased reciprocal truncates them one short).  A checkerboard
        on the 4-regular torus puts ``±(k * 16 + off)`` on every edge."""
        from repro.core.operators import RECIP_DIV_LIMIT

        side = 4
        black = (np.arange(torus.n) // side + np.arange(torus.n) % side) % 2 == 0
        den = 4 * torus.max_degree
        ks = (0, 1, 2, 3, 1000, (RECIP_DIV_LIMIT - 2) // den, 4 * RECIP_DIV_LIMIT // den)
        for k in ks:
            for off in (-1, 0, 1):
                high = max(k * den + off, 0)
                loads = np.where(black, high, 0).astype(np.int64)
                self._check(torus, np.stack([loads, loads[::-1].copy()]) if batched else loads)

    def test_round_discrete_matches_explicit_flows(self, any_topology, rng):
        """The discrete round equals the explicit int64 differences,
        floor-divided flows and incidence scatter."""
        op = edge_operator(any_topology)
        loads = rng.integers(0, 100_000, any_topology.n).astype(np.int64)
        diff = op.differences(loads)
        flows = np.sign(diff) * (np.abs(diff) // op.denominators_int)
        assert np.array_equal(op.round_discrete(loads), op.apply_flows(loads, flows))

    def test_round_discrete_negative_loads_stay_exact(self, torus):
        """The fast-path guard must bound |diff| via max - min: a caller
        passing negative loads (the public kernel does not validate) must
        not slip oversized differences past the reciprocal exactness range."""
        from repro.core.operators import RECIP_DIV_LIMIT

        op = edge_operator(torus)
        loads = np.zeros(torus.n, dtype=np.int64)
        loads[0] = -(RECIP_DIV_LIMIT * 8 - 1)
        diff = op.differences(loads)
        flows = np.sign(diff) * (np.abs(diff) // op.denominators_int)
        want = op.apply_flows(loads, flows)
        assert np.array_equal(op.round_discrete(loads), want)

    def test_recip_cache_read_only(self, torus):
        op = edge_operator(torus)
        with pytest.raises(ValueError):
            op.denominators_recip[0] = 1.0

    def test_flat_reciprocals_repeat_each_edge(self):
        """The flat multiplier is the broadcast reciprocal, read-only,
        and kept on the operator for the width last asked for."""
        topo = g.grid_2d(4, 5)  # edges damp by 12 and 16
        op = edge_operator(topo)
        flat = op.recip_flat
        assert flat.flat(1) is op.denominators_recip
        wide = flat.flat(5)
        assert np.array_equal(wide.reshape(topo.m, 5),
                              np.broadcast_to(op.denominators_recip[:, None], (topo.m, 5)))
        assert flat.flat(5) is wide
        with pytest.raises(ValueError):
            wide[0] = 1.0

    def test_float64_path_below_limit_int64_path_at_limit(self):
        """Which arithmetic ran is visible in the scratch the round used."""
        from repro.core.operators import RECIP_DIV_LIMIT

        topo = g.complete(16)
        for name in _staged_backends():
            for top, dtype in ((RECIP_DIV_LIMIT - 1, np.float64), (RECIP_DIV_LIMIT, np.int64)):
                op = EdgeOperator(topo, name)
                loads = np.zeros(topo.n, dtype=np.int64)
                loads[3] = top
                assert np.array_equal(op.round_discrete(loads), _int64_reference(loads, topo))
                chars = {key[2] for key in op._scratch if key[0] == "disc-flows"}
                assert chars == {np.dtype(dtype).char}, (name, top)


class TestGatherCSR:
    def test_is_negated_incidence_transpose(self, any_topology):
        op = edge_operator(any_topology)
        G, A = op.gather_csr(), op.incidence_csr()
        dense_g = np.zeros(G.shape)
        for e in range(G.shape[0]):
            cols = G.indices[G.indptr[e] : G.indptr[e + 1]]
            dense_g[e, cols] = G.data[G.indptr[e] : G.indptr[e + 1]]
        dense_a = np.zeros(A.shape)
        for i in range(A.shape[0]):
            dense_a[i, A.indices[A.indptr[i] : A.indptr[i + 1]]] = A.data[A.indptr[i] : A.indptr[i + 1]]
        assert np.array_equal(dense_g, -dense_a.T)
        # stored order: ascending column within each row
        for e in range(G.shape[0]):
            assert np.all(np.diff(G.indices[G.indptr[e] : G.indptr[e + 1]]) > 0)

    def test_cached_per_dtype(self, torus):
        op = edge_operator(torus)
        assert op.gather_csr() is op.gather_csr(np.float64)
        assert op.gather_csr(np.int64) is not op.gather_csr()
        assert op.gather_csr(np.int64).data.dtype == np.int64

    def test_numpy_and_scipy_backends_agree(self, any_topology, rng):
        backends = _staged_backends()
        if len(backends) < 2:
            pytest.skip("SciPy unavailable")
        ops = [EdgeOperator(any_topology, name) for name in backends]
        G = [op.gather_csr() for op in ops]
        for arr in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(G[0], arr), getattr(G[1], arr))
        for x in (rng.integers(0, 1 << 45, any_topology.n),
                  rng.integers(-(1 << 44), 1 << 44, (any_topology.n, 5))):
            xf = x.astype(np.float64)
            outs = [op.kernels.matvec(Gi, xf, np.empty((any_topology.m,) + x.shape[1:]))
                    for op, Gi in zip(ops, G)]
            want = x[any_topology.edges[:, 0]] - x[any_topology.edges[:, 1]]
            assert np.array_equal(outs[0], outs[1])
            assert np.array_equal(outs[0], want.astype(np.float64))
            got_int = [op.kernels.matvec(op.gather_csr(np.int64), x,
                                         np.empty((any_topology.m,) + x.shape[1:], np.int64))
                       for op in ops]
            assert np.array_equal(got_int[0], want) and np.array_equal(got_int[1], want)
