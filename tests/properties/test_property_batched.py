"""Property tests: batched kernels are bit-for-bit equal to serial runs.

The batched execution stack (replica-major ``(B, n)`` kernels, node-major
ensemble engine) promises *exact* equality with ``B`` independent serial
runs driven by the same spawned seeds — not closeness, equality.  These
tests pin that contract for every batchable scheme, continuous and
discrete, including per-replica conservation.  Recorded statistics follow
:func:`repro.simulation.trace.round_stats`: discrete potentials and sums
are equal too, continuous ones agree to float associativity.
"""

import numpy as np
import pytest

from repro.baselines.first_order import (
    FirstOrderBalancer,
    fos_flows,
    fos_round_continuous,
    fos_round_discrete_floor,
    fos_round_discrete_randomized,
)
from repro.baselines.dimension_exchange import DimensionExchangeBalancer
from repro.baselines.ops import OptimalPolynomialBalancer
from repro.baselines.second_order import SecondOrderBalancer
from repro.core.diffusion import (
    DiffusionBalancer,
    apply_edge_flows,
    diffusion_flows,
    diffusion_round_continuous,
    diffusion_round_discrete,
)
from repro.core.random_partner import (
    RandomPartnerBalancer,
    partner_round_continuous,
    partner_round_discrete,
)
from repro.extensions.asynchronous import AsyncDiffusionBalancer
from repro.extensions.heterogeneous import HeterogeneousDiffusionBalancer, weighted_flows, weighted_round
from repro.graphs import generators as g
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator, spawn_rngs
from repro.simulation.stopping import MaxRounds

B = 5
ROUNDS = 12


def _float_batch(n: int, B: int, seed: int = 3) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0, 1000, (B, n))


def _int_batch(n: int, B: int, seed: int = 4) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 10_000, (B, n)).astype(np.int64)


# ----------------------------------------------------------------------
# Replica-major (B, n) kernel forms vs per-row serial calls
# ----------------------------------------------------------------------
class TestBatchedKernelForms:
    def test_diffusion_flows_continuous(self, torus):
        batch = _float_batch(torus.n, B)
        got = diffusion_flows(batch, torus)
        want = np.stack([diffusion_flows(batch[b], torus) for b in range(B)])
        assert np.array_equal(got, want)

    def test_diffusion_flows_discrete(self, torus):
        batch = _int_batch(torus.n, B)
        got = diffusion_flows(batch, torus, discrete=True)
        assert got.dtype == np.int64
        want = np.stack([diffusion_flows(batch[b], torus, discrete=True) for b in range(B)])
        assert np.array_equal(got, want)

    def test_apply_edge_flows_batched(self, torus):
        batch = _float_batch(torus.n, B)
        flows = diffusion_flows(batch, torus)
        got = apply_edge_flows(batch, torus, flows)
        want = np.stack([apply_edge_flows(batch[b], torus, flows[b]) for b in range(B)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("round_fn,maker", [
        (diffusion_round_continuous, _float_batch),
        (diffusion_round_discrete, _int_batch),
    ])
    def test_diffusion_rounds(self, any_topology, round_fn, maker):
        batch = maker(any_topology.n, B)
        got = round_fn(batch, any_topology)
        want = np.stack([round_fn(batch[b], any_topology) for b in range(B)])
        assert np.array_equal(got, want)

    def test_fos_flows_and_rounds(self, torus):
        batch = _float_batch(torus.n, B)
        assert np.array_equal(
            fos_flows(batch, torus), np.stack([fos_flows(batch[b], torus) for b in range(B)])
        )
        assert np.array_equal(
            fos_round_continuous(batch, torus),
            np.stack([fos_round_continuous(batch[b], torus) for b in range(B)]),
        )
        ints = _int_batch(torus.n, B)
        assert np.array_equal(
            fos_round_discrete_floor(ints, torus),
            np.stack([fos_round_discrete_floor(ints[b], torus) for b in range(B)]),
        )

    def test_fos_randomized_matches_serial_streams(self, torus):
        ints = _int_batch(torus.n, B)
        got = fos_round_discrete_randomized(ints, torus, spawn_rngs(9, B))
        want = np.stack(
            [fos_round_discrete_randomized(ints[b], torus, spawn_rngs(9, B)[b]) for b in range(B)]
        )
        assert np.array_equal(got, want)

    def test_partner_rounds_match_serial_streams(self):
        n = 40
        floats = _float_batch(n, B)
        got = partner_round_continuous(floats, spawn_rngs(21, B))
        want = np.stack(
            [partner_round_continuous(floats[b], spawn_rngs(21, B)[b]) for b in range(B)]
        )
        assert np.array_equal(got, want)
        ints = _int_batch(n, B)
        got_d = partner_round_discrete(ints, spawn_rngs(22, B))
        want_d = np.stack(
            [partner_round_discrete(ints[b], spawn_rngs(22, B)[b]) for b in range(B)]
        )
        assert np.array_equal(got_d, want_d)

    def test_weighted_flows_and_round_batched(self, torus):
        speeds = np.random.default_rng(5).uniform(0.5, 4.0, torus.n)
        batch = _float_batch(torus.n, B)
        assert np.array_equal(
            weighted_flows(batch, speeds, torus),
            np.stack([weighted_flows(batch[b], speeds, torus) for b in range(B)]),
        )
        assert np.array_equal(
            weighted_round(batch, speeds, torus),
            np.stack([weighted_round(batch[b], speeds, torus) for b in range(B)]),
        )


# ----------------------------------------------------------------------
# EnsembleSimulator vs B independent Simulator runs (same spawned seeds)
# ----------------------------------------------------------------------
def _balancer_cases(topo):
    speeds = np.random.default_rng(6).uniform(0.5, 4.0, topo.n)
    return [
        ("diffusion-continuous", lambda: DiffusionBalancer(topo), False),
        ("diffusion-discrete", lambda: DiffusionBalancer(topo, mode="discrete"), True),
        ("fos-continuous", lambda: FirstOrderBalancer(topo), False),
        ("fos-floor", lambda: FirstOrderBalancer(topo, variant="floor"), True),
        ("fos-randomized", lambda: FirstOrderBalancer(topo, variant="randomized"), True),
        ("sos", lambda: SecondOrderBalancer(topo, beta=1.3), False),
        ("random-partner", lambda: RandomPartnerBalancer(), False),
        ("random-partner-discrete", lambda: RandomPartnerBalancer(mode="discrete"), True),
        ("hetero-continuous", lambda: HeterogeneousDiffusionBalancer(topo, speeds), False),
        ("hetero-discrete", lambda: HeterogeneousDiffusionBalancer(topo, speeds, mode="discrete"), True),
        ("de-luby", lambda: DimensionExchangeBalancer(topo, partner_rule="luby"), False),
        ("de-luby-discrete", lambda: DimensionExchangeBalancer(topo, mode="discrete", partner_rule="luby"), True),
        ("de-two-stage", lambda: DimensionExchangeBalancer(topo, partner_rule="two-stage"), False),
        ("de-two-stage-discrete", lambda: DimensionExchangeBalancer(topo, mode="discrete", partner_rule="two-stage"), True),
        ("de-round-robin", lambda: DimensionExchangeBalancer(topo, partner_rule="round-robin"), False),
        ("ops", lambda: OptimalPolynomialBalancer(topo), False),
        ("async-random", lambda: AsyncDiffusionBalancer(topo, schedule="random", ticks_per_step=11), False),
        ("async-random-discrete", lambda: AsyncDiffusionBalancer(topo, mode="discrete", schedule="random", ticks_per_step=11), True),
        ("async-round-robin", lambda: AsyncDiffusionBalancer(topo, schedule="round-robin", ticks_per_step=11), False),
    ]


class TestEnsembleBitForBit:
    @pytest.fixture(scope="class")
    def topo(self):
        return g.torus_2d(5, 5)

    def test_every_batchable_scheme(self, topo):
        seed = 1234
        for label, make, discrete in _balancer_cases(topo):
            loads = (
                _int_batch(topo.n, B, seed=1)[0] if discrete else _float_batch(topo.n, B, seed=2)[0]
            )
            ens = EnsembleSimulator(make(), stopping=[MaxRounds(ROUNDS)], keep_snapshots=True)
            trace = ens.run(loads, seed=seed, replicas=B)
            rngs = spawn_rngs(seed, B)
            for b in range(B):
                serial = Simulator(make(), stopping=[MaxRounds(ROUNDS)], keep_snapshots=True).run(
                    loads, rngs[b]
                )
                # Bit-for-bit: every recorded load vector, every round.
                for t, snap in enumerate(serial.snapshots):
                    assert np.array_equal(snap, trace.snapshots[t][b]), (
                        f"{label}: replica {b} diverged at round {t}"
                    )
                assert np.array_equal(serial.snapshots[-1], trace.final_loads[b]), label
                phis = [row[b] for row in trace._potentials]
                if discrete:
                    # One statistics kernel on exact integer partials.
                    assert np.array_equal(serial.potential_array, phis), label
                    assert np.array_equal(serial.load_sums, [row[b] for row in trace._sums]), label
                else:
                    # Batch width changes the float summation order.
                    assert np.allclose(serial.potential_array, phis, rtol=1e-9, atol=1e-6), label

    def test_async_high_degree_segments(self):
        """Star hub (degree 31, beyond NumPy's small-sum threshold) forces
        the per-segment float ``np.sum`` path of the batched async tick;
        it must stay bit-for-bit with the serial tick loop."""
        topo = g.star(32)
        loads = _float_batch(topo.n, B, seed=17)[0]
        make = lambda: AsyncDiffusionBalancer(topo, schedule="random", ticks_per_step=9)
        ens = EnsembleSimulator(make(), stopping=[MaxRounds(8)], keep_snapshots=True)
        trace = ens.run(loads, seed=77, replicas=B)
        rngs = spawn_rngs(77, B)
        for b in range(B):
            serial = Simulator(make(), stopping=[MaxRounds(8)], keep_snapshots=True).run(
                loads, rngs[b]
            )
            for t, snap in enumerate(serial.snapshots):
                assert np.array_equal(snap, trace.snapshots[t][b]), f"replica {b}, round {t}"

    def test_conservation_per_replica(self, topo):
        loads = _int_batch(topo.n, B, seed=8)
        ens = EnsembleSimulator(DiffusionBalancer(topo, mode="discrete"), stopping=[MaxRounds(25)])
        trace = ens.run(loads, seed=0)
        sums = trace.load_sums_matrix
        assert np.array_equal(sums, np.broadcast_to(sums[0], sums.shape))
        assert trace.conservation_error() == 0.0

    def test_per_replica_initial_states(self, topo):
        """Distinct (B, n) initial loads reproduce distinct serial runs."""
        batch = _float_batch(topo.n, B, seed=12)
        ens = EnsembleSimulator(DiffusionBalancer(topo), stopping=[MaxRounds(ROUNDS)])
        trace = ens.run(batch, seed=3)
        rngs = spawn_rngs(3, B)
        for b in range(B):
            serial = Simulator(
                DiffusionBalancer(topo), stopping=[MaxRounds(ROUNDS)], keep_snapshots=True
            ).run(batch[b], rngs[b])
            assert np.array_equal(serial.snapshots[-1], trace.final_loads[b])


class TestBackendParity:
    """Kernel backends are bit-for-bit interchangeable at trajectory level.

    The numpy reference is the oracle; the scipy backend, the numba
    backend (the real JIT when installed, its pure-Python kernel shims
    otherwise — same algorithms, same arithmetic) and the forced-no-scipy
    / forced-no-numba degradations must all reproduce identical load
    trajectories on the serial, batched and sharded execution paths.
    """

    ROUNDS = 10

    def _operator_schemes(self, topo):
        """Every scheme whose rounds go through an EdgeOperator."""
        speeds = np.random.default_rng(6).uniform(0.5, 4.0, topo.n)
        return [
            ("diffusion-continuous", lambda be: DiffusionBalancer(topo, backend=be), False),
            ("diffusion-discrete",
             lambda be: DiffusionBalancer(topo, mode="discrete", backend=be), True),
            ("fos-continuous", lambda be: FirstOrderBalancer(topo, backend=be), False),
            ("fos-floor", lambda be: FirstOrderBalancer(topo, variant="floor", backend=be), True),
            ("fos-randomized",
             lambda be: FirstOrderBalancer(topo, variant="randomized", backend=be), True),
            ("sos", lambda be: SecondOrderBalancer(topo, beta=1.3, backend=be), False),
            ("ops", lambda be: OptimalPolynomialBalancer(topo, backend=be), False),
            ("hetero-continuous",
             lambda be: HeterogeneousDiffusionBalancer(topo, speeds, backend=be), False),
            ("hetero-discrete",
             lambda be: HeterogeneousDiffusionBalancer(
                 topo, speeds, mode="discrete", backend=be), True),
        ]

    def _forced_backends(self, monkeypatch):
        """Backends to test against the numpy reference on this host.

        numba is always included: when the real JIT is absent its
        pure-Python kernel shims run instead (identical algorithms), so
        the fused-round logic is exercised everywhere while CI's numba
        leg covers the compiled path.
        """
        import repro.core.backends as backends_mod

        names = ["scipy"] if backends_mod.HAVE_SCIPY else []
        if not backends_mod.NumbaBackend.available():
            monkeypatch.setattr(
                backends_mod.NumbaBackend, "available", classmethod(lambda cls: True)
            )
        names.append("numba")
        return names

    def _snapshots(self, make, backend, loads, seed):
        ens = EnsembleSimulator(
            make(backend),
            stopping=[MaxRounds(self.ROUNDS)],
            keep_snapshots=True,
            serial_singleton=False,
        )
        trace = ens.run(loads, seed=seed, replicas=B)
        return np.asarray(trace.snapshots)

    def test_trajectories_bit_identical_across_backends(self, monkeypatch):
        topo = g.torus_2d(5, 5)
        backends = self._forced_backends(monkeypatch)
        for label, make, discrete in self._operator_schemes(topo):
            loads = (
                _int_batch(topo.n, B, seed=1)[0] if discrete else _float_batch(topo.n, B, seed=2)[0]
            )
            ref = self._snapshots(make, "numpy", loads, seed=31)
            for name in backends:
                got = self._snapshots(make, name, loads, seed=31)
                assert np.array_equal(got, ref), f"{label}: backend {name} diverged"
            # Serial engine path on each backend equals the reference too.
            rngs = spawn_rngs(31, B)
            serial = Simulator(
                make(backends[-1]), stopping=[MaxRounds(self.ROUNDS)], keep_snapshots=True
            ).run(loads, rngs[0])
            assert np.array_equal(np.asarray(serial.snapshots), ref[:, 0, :]), label

    def test_sharded_trajectories_identical_across_available_backends(self):
        """The sharded path ships the backend with the pickled balancer;
        every genuinely-available backend must agree bit-for-bit (the
        simulated numba shim cannot cross the process boundary, so the
        compiled sharded path is covered on numba-equipped CI)."""
        from repro.core.backends import available_backends
        from repro.simulation.sharding import run_sharded_ensemble

        topo = g.torus_2d(4, 4)
        for mode, loads in (
            ("continuous", _float_batch(topo.n, B, seed=21)),
            ("discrete", _int_batch(topo.n, B, seed=22)),
        ):
            ref = None
            for name in available_backends():
                trace = run_sharded_ensemble(
                    DiffusionBalancer(topo, mode=mode),
                    loads,
                    seed=5,
                    workers=2,
                    stopping=[MaxRounds(8)],
                    keep_snapshots=True,
                    backend=name,
                )
                snaps = np.asarray(trace.snapshots)
                if ref is None:
                    ref = snaps
                else:
                    assert np.array_equal(snaps, ref), f"{mode}: backend {name} diverged"

    def test_forced_no_scipy_resolves_to_reference(self, monkeypatch):
        """With scipy (and numba) unavailable, auto execution degrades to
        the numpy backend and still reproduces the scipy trajectories."""
        import repro.core.backends as backends_mod

        topo = g.torus_2d(4, 4)
        loads = _int_batch(topo.n, B, seed=14)[0]
        want = self._snapshots(lambda be: DiffusionBalancer(topo, mode="discrete"), None,
                               loads, seed=3)
        monkeypatch.setattr(backends_mod.ScipyBackend, "available", classmethod(lambda cls: False))
        monkeypatch.setattr(backends_mod.NumbaBackend, "available", classmethod(lambda cls: False))
        fresh = g.torus_2d(4, 4)  # fresh instance: no cached operators
        assert backends_mod.resolve_backend(None) == "numpy"
        got = self._snapshots(lambda be: DiffusionBalancer(fresh, mode="discrete"), None,
                              loads, seed=3)
        assert np.array_equal(got, want)

    def test_forced_no_numba_resolves_to_scipy(self, monkeypatch):
        import repro.core.backends as backends_mod

        if not backends_mod.HAVE_SCIPY:
            pytest.skip("scipy unavailable")
        monkeypatch.setattr(backends_mod.NumbaBackend, "available", classmethod(lambda cls: False))
        assert backends_mod.resolve_backend("auto") == "scipy"

    def test_scratch_buffers_not_shared_across_backends(self, monkeypatch):
        """Backends must never alias each other's scratch space — a shared
        buffer would let one backend's staged round corrupt another's."""
        from repro.core.operators import edge_operator

        topo = g.torus_2d(4, 4)
        ops = [edge_operator(topo, name) for name in self._forced_backends(monkeypatch)]
        ops.append(edge_operator(topo, "numpy"))
        bufs = [op.scratch("disc-flows", (topo.m, B), np.float64) for op in ops]
        for i in range(len(bufs)):
            for j in range(i + 1, len(bufs)):
                assert not np.shares_memory(bufs[i], bufs[j])


# ----------------------------------------------------------------------
# Transport parity (the distributed runtime's seam)
# ----------------------------------------------------------------------
class TestTransportParity:
    """Transports are bit-for-bit interchangeable at trajectory level.

    The distributed runtime's contract extends the backend contract one
    layer out: the channel a halo slab or shard payload travels over
    (mp-pipe / tcp locally, tcp across hosts) changes bytes in flight,
    never arithmetic.  Both parallel axes must produce identical
    trajectories on every transport — and identical *payload byte*
    accounting, since the counters meter pickled frames, not wires.
    """

    ROUNDS = 10

    def test_partitioned_trajectories_identical_across_transports(self):
        from repro.simulation.partitioned import PROCESS_TRANSPORTS, PartitionedSimulator

        topo = g.torus_2d(5, 5)
        for mode, loads in (
            ("continuous", _float_batch(topo.n, B, seed=41)[0]),
            ("discrete", _int_batch(topo.n, B, seed=42)[0]),
        ):
            ref = None
            ref_bytes = None
            for transport in PROCESS_TRANSPORTS:
                psim = PartitionedSimulator(
                    DiffusionBalancer(topo, mode=mode), partitions=3, strategy="bfs",
                    stopping=[MaxRounds(self.ROUNDS)], keep_snapshots=True,
                    mode="process", transport=transport,
                )
                trace = psim.run(loads.copy())
                snaps = np.asarray(trace.snapshots)
                stats = (psim.halo_stats["halo_values"], psim.halo_stats["halo_bytes"])
                if ref is None:
                    ref, ref_bytes = snaps, stats
                else:
                    assert np.array_equal(snaps, ref), f"{mode}: {transport} diverged"
                    assert stats == ref_bytes, f"{mode}: {transport} accounting diverged"

    def test_channel_byte_totals_identical_across_all_channels(self):
        """Every channel — mpi included when importable — books the same
        logical frame bytes for the same payloads: the counters meter the
        transport-independent encoding, not the wire."""
        import threading

        from repro.distributed.transport import (
            available_transports,
            encode_frame,
            make_pair,
        )

        rng = np.random.default_rng(46)
        payloads = [
            ("run", 12, None),
            {"slab": rng.standard_normal((160, 820))},  # ~1 MB out-of-band
            rng.integers(0, 9, 300),
        ]
        expected = sum(encode_frame(p).nbytes for p in payloads)
        totals = {}
        for transport in available_transports():
            a, b = make_pair(transport)
            reader = threading.Thread(
                target=lambda: [b.recv(timeout=30.0) for _ in payloads]
            )
            reader.start()
            for p in payloads:
                a.send(p)
            reader.join(timeout=30)
            assert not reader.is_alive(), f"{transport}: receiver wedged"
            totals[transport] = (a.bytes_sent, b.bytes_received)
            a.close(), b.close()
        for transport, (sent, received) in totals.items():
            assert sent == received == expected, (
                f"{transport}: booked {sent}/{received} B, expected {expected}"
            )

    def test_forced_chunking_preserves_trajectories(self, monkeypatch):
        """A tiny MAX_CHUNK_BYTES reshapes frames into many wire chunks;
        trajectories and byte accounting must not notice (forked workers
        inherit the patched value)."""
        import repro.distributed.transport as transport
        from repro.simulation.partitioned import PROCESS_TRANSPORTS, PartitionedSimulator

        topo = g.torus_2d(5, 5)
        loads = _float_batch(topo.n, B, seed=45)[0]

        def run(wire):
            psim = PartitionedSimulator(
                DiffusionBalancer(topo, mode="continuous"), partitions=3,
                strategy="bfs", stopping=[MaxRounds(self.ROUNDS)],
                keep_snapshots=True, mode="process", transport=wire,
            )
            trace = psim.run(loads.copy())
            return np.asarray(trace.snapshots), psim.halo_stats["halo_bytes"]

        ref_snaps, ref_bytes = run("mp-pipe")  # unchunked reference
        monkeypatch.setattr(transport, "MAX_CHUNK_BYTES", 512)
        for wire in PROCESS_TRANSPORTS:
            snaps, nbytes = run(wire)
            assert np.array_equal(snaps, ref_snaps), f"{wire} diverged under chunking"
            assert nbytes == ref_bytes, f"{wire} accounting changed under chunking"

    def test_sharded_trajectories_identical_across_transports(self):
        from repro.simulation.sharding import SHARD_TRANSPORTS, run_sharded_ensemble

        topo = g.torus_2d(4, 4)
        for mode, loads in (
            ("continuous", _float_batch(topo.n, B, seed=43)),
            ("discrete", _int_batch(topo.n, B, seed=44)),
        ):
            ref = None
            for transport in SHARD_TRANSPORTS:
                trace = run_sharded_ensemble(
                    DiffusionBalancer(topo, mode=mode), loads, seed=5, workers=2,
                    stopping=[MaxRounds(8)], keep_snapshots=True, transport=transport,
                )
                snaps = np.asarray(trace.snapshots)
                if ref is None:
                    ref = snaps
                else:
                    assert np.array_equal(snaps, ref), f"{mode}: {transport} diverged"
