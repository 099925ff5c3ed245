"""Parity + unit tests for node-axis partitioned execution.

The load-bearing property: :class:`PartitionedSimulator` trajectories are
**bit-for-bit identical** to the serial :class:`Simulator` and the
lockstep :class:`EnsembleSimulator` — for diffusion (continuous and
discrete), FOS, P in {2, 4, 7}, both partition strategies, and dynamic
topologies whose cut set changes between rounds.
"""

import gc
import itertools
import weakref

import numpy as np
import pytest

from repro.baselines.first_order import FirstOrderBalancer
from repro.baselines.ops import OptimalPolynomialBalancer
from repro.core.diffusion import DiffusionBalancer
from repro.graphs.dynamic import AlternatingDynamics, EdgeSamplingDynamics
from repro.graphs.generators import hypercube, torus_2d
from repro.graphs.partition import PARTITION_STRATEGIES, make_partition
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator
from repro.simulation.partitioned import PartitionedSimulator, block_local
from repro.simulation.stopping import MaxRounds, PotentialFractionBelow

ROUNDS = 25


def _loads(topo, discrete, seed=5):
    rng = np.random.default_rng(seed)
    if discrete:
        return rng.integers(0, 10_000, topo.n).astype(np.int64)
    return rng.uniform(0.0, 10_000.0, topo.n)


def _serial_snapshots(balancer, loads, rounds=ROUNDS):
    trace = Simulator(balancer, stopping=[MaxRounds(rounds)], keep_snapshots=True).run(loads, 0)
    return [np.asarray(s) for s in trace._snapshots]


BALANCER_FACTORIES = [
    ("diffusion-cont", lambda net: DiffusionBalancer(net), False),
    ("diffusion-disc", lambda net: DiffusionBalancer(net, mode="discrete"), True),
    ("fos", lambda net: FirstOrderBalancer(net), False),
]


class TestPartitionedParity:
    """Partitioned == serial == ensemble, bit for bit, across the grid."""

    @pytest.fixture(scope="class")
    def topo(self):
        return torus_2d(6, 6)

    @pytest.mark.parametrize("label,factory,discrete", BALANCER_FACTORIES,
                             ids=[b[0] for b in BALANCER_FACTORIES])
    @pytest.mark.parametrize("P", [2, 4, 7])
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_inprocess_matches_serial(self, topo, label, factory, discrete, P, strategy):
        loads = _loads(topo, discrete)
        expected = _serial_snapshots(factory(topo), loads.copy())
        psim = PartitionedSimulator(
            factory(topo), partitions=P, strategy=strategy,
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
        )
        trace = psim.run(loads.copy())
        assert trace.rounds == ROUNDS
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
        assert psim.halo_stats["rounds"] == ROUNDS
        if P > 1:
            assert psim.halo_stats["halo_values"] > 0

    @pytest.mark.parametrize("label,factory,discrete", BALANCER_FACTORIES,
                             ids=[b[0] for b in BALANCER_FACTORIES])
    def test_inprocess_matches_ensemble_replicas(self, topo, label, factory, discrete):
        """The node axis composes with the replica axis: (n_block, B) slabs."""
        B = 5
        rng = np.random.default_rng(11)
        if discrete:
            batch = rng.integers(0, 10_000, (B, topo.n)).astype(np.int64)
        else:
            batch = rng.uniform(0.0, 10_000.0, (B, topo.n))
        ens = EnsembleSimulator(
            factory(topo), stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
            serial_singleton=False,
        ).run(batch.copy(), seed=0)
        part = PartitionedSimulator(
            factory(topo), partitions=4, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
        ).run(batch.copy())
        assert np.array_equal(ens.final_loads, part.final_loads)
        for t in range(ens.recorded_states):
            assert np.array_equal(ens.snapshots[t], part.snapshots[t]), f"round {t}"
        # In-process statistics come from the assembled global matrix, so
        # they match the ensemble engine exactly, not just to the ulp.
        assert np.array_equal(ens.potentials_matrix, part.potentials_matrix)

    @pytest.mark.parametrize("P", [2, 4, 7])
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    def test_dynamic_edge_failures_parity(self, P, strategy):
        """The cut set changes between rounds; trajectories still match."""
        base = torus_2d(6, 6)
        loads = _loads(base, discrete=True)
        expected = _serial_snapshots(
            DiffusionBalancer(EdgeSamplingDynamics(base, p=0.6, seed=9), mode="discrete"),
            loads.copy(),
        )
        psim = PartitionedSimulator(
            DiffusionBalancer(EdgeSamplingDynamics(base, p=0.6, seed=9), mode="discrete"),
            partitions=P, strategy=strategy,
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
        )
        trace = psim.run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"

    def test_alternating_dynamics_parity(self):
        """Phased topologies (disjoint edge sets per round) stay exact."""
        base = torus_2d(6, 6)
        rows = base.subgraph_with_edges(base.edges[:, 1] == base.edges[:, 0] + 1)
        cols = base.subgraph_with_edges(base.edges[:, 1] != base.edges[:, 0] + 1)
        loads = _loads(base, discrete=False)
        dyn = AlternatingDynamics([rows, cols])
        expected = _serial_snapshots(DiffusionBalancer(dyn), loads.copy())
        trace = PartitionedSimulator(
            DiffusionBalancer(AlternatingDynamics([rows, cols])),
            partitions=4, strategy="contiguous",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
        ).run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"

    def test_stopping_rules_fire_like_ensemble(self):
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete=False)
        rules = lambda: [PotentialFractionBelow(1e-3), MaxRounds(2000)]
        ens = EnsembleSimulator(
            DiffusionBalancer(topo), stopping=rules(), serial_singleton=False
        ).run(loads.copy(), seed=0, replicas=1)
        part = PartitionedSimulator(
            DiffusionBalancer(topo), partitions=3, stopping=rules()
        ).run(loads.copy())
        assert part.stopped_by == ens.stopped_by
        assert part.rounds == ens.rounds
        assert np.array_equal(ens.final_loads, part.final_loads)

    def test_hypercube_parity(self):
        topo = hypercube(6)
        loads = _loads(topo, discrete=True)
        expected = _serial_snapshots(DiffusionBalancer(topo, mode="discrete"), loads.copy())
        trace = PartitionedSimulator(
            DiffusionBalancer(topo, mode="discrete"), partitions="4:bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True,
        ).run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"


class TestProcessMode:
    """Persistent worker processes + transport-channel halo exchange."""

    @pytest.mark.parametrize("transport", ["mp-pipe", "tcp"])
    @pytest.mark.parametrize("label,factory,discrete", BALANCER_FACTORIES,
                             ids=[b[0] for b in BALANCER_FACTORIES])
    def test_process_matches_serial(self, label, factory, discrete, transport):
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete)
        expected = _serial_snapshots(factory(topo), loads.copy())
        psim = PartitionedSimulator(
            factory(topo), partitions=3, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True, mode="process",
            transport=transport,
        )
        trace = psim.run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
        assert psim.halo_stats["mode"] == "process"
        assert psim.halo_stats["transport"] == transport
        # Transport channels account payload bytes per directed link.
        assert psim.halo_stats["halo_bytes"] > 0
        assert all(v > 0 for v in psim.halo_stats["links"].values())

    @pytest.mark.parametrize("transport", ["mp-pipe", "tcp"])
    def test_dynamic_edge_failures_over_transport(self, transport):
        """Satellite: a dynamic topology's cut set changes per round;
        the pairwise halo protocol must not desync over TCP (or pipes) —
        snapshots stay bit-for-bit equal to the serial run."""
        base = torus_2d(6, 6)
        loads = _loads(base, discrete=True)
        make = lambda: DiffusionBalancer(
            EdgeSamplingDynamics(base, p=0.6, seed=9), mode="discrete"
        )
        expected = _serial_snapshots(make(), loads.copy())
        psim = PartitionedSimulator(
            make(), partitions=4, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True, mode="process",
            transport=transport,
        )
        trace = psim.run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
        assert psim.halo_stats["halo_values"] > 0
        assert psim.halo_stats["halo_bytes"] > 0

    def test_transports_move_identical_payload_bytes(self):
        """Same run, same pickled halo frames: the per-link byte totals
        are transport-independent (the counters count payloads, not wire
        overhead), so bench numbers compare across wires."""
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete=True)
        totals = {}
        for transport in ("mp-pipe", "tcp"):
            psim = PartitionedSimulator(
                DiffusionBalancer(topo, mode="discrete"), partitions=3,
                stopping=[MaxRounds(10)], mode="process", transport=transport,
            )
            psim.run(loads.copy())
            totals[transport] = (
                psim.halo_stats["halo_bytes"], dict(psim.halo_stats["links"])
            )
        assert totals["mp-pipe"] == totals["tcp"]

    def test_dead_block_worker_raises_instead_of_hanging(self):
        """SIGKILL a block worker mid-run: the coordinator must surface
        a diagnostic RuntimeError promptly.  EOF semantics depend on fd
        hygiene — every process drops the endpoint copies that are not
        its own — so a crashed worker's links actually close."""
        import multiprocessing as mp
        import os
        import signal
        import threading
        import time

        topo = torus_2d(8, 8)
        loads = _loads(topo, discrete=True)
        psim = PartitionedSimulator(
            DiffusionBalancer(topo, mode="discrete"), partitions=3, mode="process",
            # A threshold no discrete trajectory reaches: only the kill
            # ends the run (per-round chunks, so the coordinator is
            # mid-protocol when the worker dies).
            stopping=[PotentialFractionBelow(1e-300), MaxRounds(10_000_000)],
        )
        outcome = {}

        def run():
            try:
                psim.run(loads.copy())
                outcome["result"] = "completed"
            except RuntimeError as exc:
                outcome["result"] = f"error: {exc}"

        thread = threading.Thread(target=run)
        thread.start()
        time.sleep(1.0)
        victims = mp.active_children()
        assert victims, "no block workers running"
        os.kill(victims[0].pid, signal.SIGKILL)
        thread.join(timeout=30)
        assert not thread.is_alive(), "coordinator hung after worker death"
        assert outcome["result"].startswith("error:"), outcome

    def test_loopback_transport_rejected_for_process_mode(self):
        topo = torus_2d(4, 4)
        with pytest.raises(ValueError, match="transport"):
            PartitionedSimulator(
                DiffusionBalancer(topo), partitions=2, mode="process",
                transport="loopback",
            )

    def test_inprocess_mode_reports_no_transport(self):
        topo = torus_2d(4, 4)
        psim = PartitionedSimulator(
            DiffusionBalancer(topo), partitions=2, stopping=[MaxRounds(3)]
        )
        psim.run(_loads(topo, discrete=False))
        assert psim.halo_stats["transport"] is None
        assert psim.halo_stats["halo_bytes"] == 0

    def test_process_chunked_free_run_final_loads(self):
        """MaxRounds-only stopping free-runs workers without per-round
        coordinator sync; the final loads still match the serial run."""
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete=True)
        serial = Simulator(
            DiffusionBalancer(topo, mode="discrete"), stopping=[MaxRounds(40)]
        ).run(loads.copy(), 0)
        psim = PartitionedSimulator(
            DiffusionBalancer(topo, mode="discrete"), partitions=4,
            stopping=[MaxRounds(40)], mode="process",
        )
        trace = psim.run(loads.copy())
        assert trace.rounds == 40
        assert np.array_equal(
            np.asarray(serial._last_loads, dtype=np.int64), trace.final_loads[0]
        )
        assert psim.halo_stats["rounds"] == 40

    def test_process_with_replicas_and_dynamic(self):
        base = torus_2d(6, 6)
        B = 3
        rng = np.random.default_rng(2)
        batch = rng.integers(0, 5_000, (B, base.n)).astype(np.int64)
        make = lambda: DiffusionBalancer(
            EdgeSamplingDynamics(base, p=0.7, seed=21), mode="discrete"
        )
        ens = EnsembleSimulator(
            make(), stopping=[MaxRounds(15)], keep_snapshots=True, serial_singleton=False
        ).run(batch.copy(), seed=0)
        trace = PartitionedSimulator(
            make(), partitions=4, stopping=[MaxRounds(15)],
            keep_snapshots=True, mode="process",
        ).run(batch.copy())
        assert np.array_equal(ens.final_loads, trace.final_loads)
        for t in range(ens.recorded_states):
            assert np.array_equal(ens.snapshots[t], trace.snapshots[t]), f"round {t}"

    def test_process_conservation_and_stats_close(self):
        """Process-mode derived statistics combine block partials: equal to
        the ulp, with exact integer sums for discrete runs."""
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete=True)
        ens = EnsembleSimulator(
            DiffusionBalancer(topo, mode="discrete"), stopping=[MaxRounds(20)],
            serial_singleton=False,
        ).run(loads.copy(), seed=0, replicas=1)
        psim = PartitionedSimulator(
            DiffusionBalancer(topo, mode="discrete"), partitions=3,
            stopping=[MaxRounds(20)], mode="process",
        )
        trace = psim.run(loads.copy())
        assert np.array_equal(trace.load_sums_matrix, ens.load_sums_matrix)  # exact ints
        np.testing.assert_allclose(
            trace.potentials_matrix, ens.potentials_matrix, rtol=1e-12
        )


class TestBlockLocal:
    def test_extended_index_space(self):
        topo = torus_2d(4, 4)
        part = make_partition(topo, 2, "contiguous")
        loc = block_local(part, 0)
        assert loc.n_ext == loc.n_owned + loc.n_ghost
        assert np.array_equal(loc.ext_ids[: loc.n_owned], part.owned[0])
        assert np.array_equal(loc.ext_ids[loc.n_owned :], part.ghosts[0])
        # Block edges: at least one owned endpoint, endpoints inside ext.
        assert (loc.u_loc >= 0).all() and (loc.v_loc >= 0).all()
        assert (loc.u_loc < loc.n_ext).all() and (loc.v_loc < loc.n_ext).all()

    def test_block_local_cached(self):
        topo = torus_2d(4, 4)
        part = make_partition(topo, 2)
        assert block_local(part, 0) is block_local(part, 0)
        assert block_local(part, 0) is not block_local(part, 1)

    def test_round_rows_match_global_rows(self):
        topo = torus_2d(4, 4)
        part = make_partition(topo, 2, "bfs")
        loc = block_local(part, 1)
        M = loc.op.round_csr()
        rows = loc.round_rows()
        # Same data values in the same stored order, columns relabelled.
        start_g = M.indptr[part.owned[1][0]]
        assert rows.data[0] == M.data[start_g]
        assert rows.shape == (loc.n_owned, loc.n_ext)

    def test_caches_freed_without_cyclic_collector(self):
        # Operators and partitions are cached on their topology; none of
        # them may refer back to it, or every dropped run leaves its
        # arrays to the cyclic collector (peak memory grows per run).
        topo = torus_2d(4, 4)
        part = make_partition(topo, 2)
        loc = block_local(part, 0)
        refs = [weakref.ref(obj) for obj in (part, loc, loc.op)]
        gc.disable()
        try:
            del topo, part, loc
            assert [r() for r in refs] == [None, None, None]
        finally:
            gc.enable()

    def test_out_of_range_block_rejected(self):
        part = make_partition(torus_2d(4, 4), 2)
        with pytest.raises(ValueError):
            block_local(part, 5)


class TestPartitionedValidation:
    def test_unsupported_balancer_rejected(self):
        topo = torus_2d(4, 4)
        with pytest.raises(TypeError, match="partitioned"):
            PartitionedSimulator(OptimalPolynomialBalancer(topo), partitions=2)

    def test_fos_discrete_variant_rejected(self):
        topo = torus_2d(4, 4)
        with pytest.raises(TypeError, match="partitioned"):
            PartitionedSimulator(FirstOrderBalancer(topo, variant="floor"), partitions=2)

    def test_bad_mode_rejected(self):
        topo = torus_2d(4, 4)
        with pytest.raises(ValueError, match="mode"):
            PartitionedSimulator(DiffusionBalancer(topo), partitions=2, mode="threads")

    def test_bad_partition_spec_rejected(self):
        topo = torus_2d(4, 4)
        with pytest.raises(ValueError):
            PartitionedSimulator(DiffusionBalancer(topo), partitions="2:metis")

    def test_assignment_shape_checked(self):
        topo = torus_2d(4, 4)
        sim = PartitionedSimulator(
            DiffusionBalancer(topo), partitions=2,
            assignment=np.zeros(5, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="assignment"):
            sim.run(np.ones(topo.n))

    def test_explicit_assignment_used(self):
        topo = torus_2d(4, 4)
        assignment = np.zeros(topo.n, dtype=np.int64)
        assignment[topo.n // 2 :] = 1
        loads = _loads(topo, discrete=False)
        expected = _serial_snapshots(DiffusionBalancer(topo), loads.copy(), rounds=10)
        sim = PartitionedSimulator(
            DiffusionBalancer(topo), assignment=assignment,
            stopping=[MaxRounds(10)], keep_snapshots=True,
        )
        trace = sim.run(loads.copy())
        assert sim.halo_stats["blocks"] == 2
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0])

    def test_single_partition_degrades_to_global(self):
        topo = torus_2d(4, 4)
        loads = _loads(topo, discrete=False)
        psim = PartitionedSimulator(DiffusionBalancer(topo), partitions=1,
                                    stopping=[MaxRounds(10)])
        trace = psim.run(loads.copy())
        assert trace.rounds == 10
        assert psim.halo_stats["halo_values"] == 0


class TestSplitPhaseKernels:
    """Row-subset round kernels: interior + boundary == full, bit for bit."""

    @pytest.mark.parametrize("label,factory,discrete", BALANCER_FACTORIES,
                             ids=[b[0] for b in BALANCER_FACTORIES])
    @pytest.mark.parametrize("P", [2, 4])
    def test_subset_rounds_equal_full_round(self, label, factory, discrete, P):
        topo = torus_2d(6, 6)
        part = make_partition(topo, P, "bfs")
        bal = factory(topo)
        rng = np.random.default_rng(11)
        L = (rng.integers(0, 500, (topo.n, 3)).astype(np.int64) if discrete
             else rng.uniform(0.0, 500.0, (topo.n, 3)))
        for p in range(P):
            loc = block_local(part, p)
            ext = L[loc.ext_ids]
            full = bal.block_step(loc, ext)
            split = np.full_like(full, -1)
            bal.block_step(loc, ext, out=split, rows="interior")
            bal.block_step(loc, ext, out=split, rows="boundary")
            assert np.array_equal(full, split), f"block {p}"

    def test_interior_rows_ignore_ghost_values(self):
        """The overlap contract: interior rows have owned-only operator
        support, so garbage in the ghost slice cannot change them."""
        topo = torus_2d(8, 8)
        part = make_partition(topo, 2, "bfs")
        bal = DiffusionBalancer(topo, mode="discrete")
        loc = block_local(part, 0)
        rng = np.random.default_rng(12)
        L = rng.integers(0, 500, (topo.n, 2)).astype(np.int64)
        ext = L[loc.ext_ids]
        clean = np.zeros((loc.n_owned, 2), dtype=np.int64)
        bal.block_step(loc, ext, out=clean, rows="interior")
        trashed = ext.copy()
        trashed[loc.n_owned:] = 999_983  # stale/garbage ghosts
        dirty = np.zeros_like(clean)
        bal.block_step(loc, trashed, out=dirty, rows="interior")
        assert loc.interior.size > 0
        assert np.array_equal(clean[loc.interior], dirty[loc.interior])

    @pytest.mark.parametrize("side", [7, 24])
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("P", [2, 3])
    def test_discrete_block_rounds_equal_global_round(self, side, strategy, P):
        """Full and interior/boundary block rounds equal the global round's
        rows on both arithmetic paths: float64 right below the limit
        (negative loads included), int64 at and above it."""
        from repro.core.backends import available_backends
        from repro.core.operators import RECIP_DIV_LIMIT, edge_operator

        backends = [b for b in ("numpy", "scipy") if b in available_backends()]
        topo = torus_2d(side, side - 1)
        part = make_partition(topo, P, strategy)
        rng = np.random.default_rng(13)
        half = RECIP_DIV_LIMIT // 2
        cases = [
            rng.integers(0, 2, (topo.n, 3)) * (RECIP_DIV_LIMIT - 1),
            rng.integers(-(half - 1), half, (topo.n, 3)),
            rng.integers(0, 4 * RECIP_DIV_LIMIT, (topo.n, 3)),
        ]
        for L in cases:
            L = np.ascontiguousarray(L, dtype=np.int64)
            want = edge_operator(topo).round_discrete(L)
            for p, backend in itertools.product(range(P), backends):
                loc = block_local(part, p, backend)
                ext = L[loc.ext_ids]
                assert np.array_equal(loc.round_discrete(ext), want[loc.owned]), p
                split = np.full((loc.n_owned, 3), -1, dtype=np.int64)
                loc.round_discrete(ext, out=split, rows="interior")
                loc.round_discrete(ext, out=split, rows="boundary")
                assert np.array_equal(split, want[loc.owned]), p
                serial = loc.round_discrete(ext[:, 0].copy())
                assert np.array_equal(serial, want[loc.owned, 0]), p

    def test_ghosts_grouped_by_owner(self):
        """BlockLocal reorders its private ghost segment grouped by owning
        block (ascending global id within each group) so every link's
        receive region is one contiguous slice."""
        topo = torus_2d(6, 6)
        part = make_partition(topo, 4, "bfs")
        for p in range(4):
            loc = block_local(part, p)
            ghost_ids = loc.ext_ids[loc.n_owned:]
            assert set(ghost_ids.tolist()) == set(part.ghosts[p].tolist())
            owners = part.assignment[ghost_ids]
            # grouped: owner sequence is non-decreasing
            assert (np.diff(owners) >= 0).all()
            for link in loc.links:
                a, b = loc.recv_slices[link.peer]
                assert np.array_equal(link.recv_idx, np.arange(a, b))
                assert (owners[a:b] == link.peer).all()
                # ascending global id within the group
                assert (np.diff(ghost_ids[a:b]) > 0).all()


class TestOverlapAndDeltaFrames:
    """Split-phase overlap + delta halo frames: parity and byte wins."""

    @pytest.mark.parametrize("transport", ["mp-pipe", "tcp"])
    @pytest.mark.parametrize("label,factory,discrete", BALANCER_FACTORIES,
                             ids=[b[0] for b in BALANCER_FACTORIES])
    def test_overlap_matches_serial(self, label, factory, discrete, transport):
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete)
        expected = _serial_snapshots(factory(topo), loads.copy())
        psim = PartitionedSimulator(
            factory(topo), partitions=3, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True, mode="process",
            transport=transport, overlap=True,
        )
        trace = psim.run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
        assert psim.halo_stats["overlap"] is True

    @pytest.mark.parametrize("overlap", [False, True])
    def test_delta_frames_match_serial_and_count_fewer_bytes(self, overlap):
        """Near convergence most discrete rows stop changing: delta frames
        ship fewer bytes while trajectories stay identical."""
        topo = torus_2d(8, 8)
        loads = np.full(topo.n, 100, dtype=np.int64)
        loads[:4] += np.array([40, 30, 20, 10])
        expected = _serial_snapshots(
            DiffusionBalancer(topo, mode="discrete"), loads.copy(), rounds=30)
        totals = {}
        for delta in (False, True):
            psim = PartitionedSimulator(
                DiffusionBalancer(topo, mode="discrete"), partitions=3,
                strategy="bfs", stopping=[MaxRounds(30)], keep_snapshots=True,
                mode="process", overlap=overlap, delta_frames=delta,
            )
            trace = psim.run(loads.copy())
            for t, snap in enumerate(expected):
                assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
            totals[delta] = psim.halo_stats["halo_bytes"]
            assert psim.halo_stats["delta_frames"] is delta
        assert totals[True] < totals[False]

    def test_delta_degenerates_to_dense_on_full_churn(self):
        """Continuous loads change every row every round, so the delta
        encoder always falls back to dense frames — byte totals equal the
        delta-off run exactly."""
        topo = torus_2d(6, 6)
        loads = _loads(topo, discrete=False)
        totals = {}
        for delta in (False, True):
            psim = PartitionedSimulator(
                DiffusionBalancer(topo), partitions=3, strategy="bfs",
                stopping=[MaxRounds(12)], mode="process", delta_frames=delta,
            )
            psim.run(loads.copy())
            totals[delta] = (
                psim.halo_stats["halo_bytes"], dict(psim.halo_stats["links"]))
        assert totals[True] == totals[False]

    @pytest.mark.parametrize("transport", ["mp-pipe", "tcp"])
    def test_overlap_delta_dynamic_topology(self, transport):
        """Dynamic cut sets rebuild the slabs and reset delta snapshots
        every round; trajectories stay bit-for-bit serial."""
        base = torus_2d(6, 6)
        loads = _loads(base, discrete=True)
        make = lambda: DiffusionBalancer(
            EdgeSamplingDynamics(base, p=0.6, seed=9), mode="discrete")
        expected = _serial_snapshots(make(), loads.copy())
        psim = PartitionedSimulator(
            make(), partitions=4, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True, mode="process",
            transport=transport, overlap=True, delta_frames=True,
        )
        trace = psim.run(loads.copy())
        for t, snap in enumerate(expected):
            assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"

    def test_delta_frames_under_forced_chunking(self, monkeypatch):
        """Delta frames survive a tiny MAX_CHUNK_BYTES: many wire chunks
        per frame, identical trajectories and identical logical byte
        totals across transports."""
        import repro.distributed.transport as transport_mod
        monkeypatch.setattr(transport_mod, "MAX_CHUNK_BYTES", 512)
        topo = torus_2d(6, 6)
        loads = np.full(topo.n, 50, dtype=np.int64)
        loads[0] += 77
        expected = _serial_snapshots(
            DiffusionBalancer(topo, mode="discrete"), loads.copy(), rounds=15)
        totals = {}
        for transport in ("mp-pipe", "tcp"):
            psim = PartitionedSimulator(
                DiffusionBalancer(topo, mode="discrete"), partitions=3,
                strategy="bfs", stopping=[MaxRounds(15)], keep_snapshots=True,
                mode="process", transport=transport, overlap=True,
                delta_frames=True,
            )
            trace = psim.run(loads.copy())
            for t, snap in enumerate(expected):
                assert np.array_equal(snap, trace.snapshots[t][0]), f"round {t}"
            totals[transport] = (
                psim.halo_stats["halo_bytes"], dict(psim.halo_stats["links"]))
        assert totals["mp-pipe"] == totals["tcp"]

    def test_env_toggles_default_the_flags(self, monkeypatch):
        topo = torus_2d(4, 4)
        bal = DiffusionBalancer(topo)
        monkeypatch.setenv("REPRO_OVERLAP", "1")
        monkeypatch.setenv("REPRO_DELTA", "true")
        sim = PartitionedSimulator(bal, partitions=2, mode="process")
        assert sim.overlap is True and sim.delta_frames is True
        # Explicit kwargs win over the environment.
        sim = PartitionedSimulator(bal, partitions=2, mode="process",
                                   overlap=False, delta_frames=False)
        assert sim.overlap is False and sim.delta_frames is False
        monkeypatch.delenv("REPRO_OVERLAP")
        monkeypatch.delenv("REPRO_DELTA")
        sim = PartitionedSimulator(bal, partitions=2, mode="process")
        assert sim.overlap is False and sim.delta_frames is False
