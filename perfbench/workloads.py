"""The four workloads, each a seeded attempt that sets up, runs and checks.

An attempt builds its workload from scratch (topology, balancer,
operator caches, partition, workers), runs it to the epsilon criterion
through the package's public engine, and then checks the output outside
the timed window.  A failure of any kind is recorded on the attempt and
never aborts the benchmark.

With a :class:`~perfbench.ledger.Ledger` the attempt is traced: timing
wrappers are installed around the calls into each layer for the
duration of the attempt and removed before the check.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

import repro.core.random_partner as random_partner
import repro.simulation.ensemble as ensemble
import repro.simulation.partitioned as partitioned
import repro.simulation.sharding as sharding
from repro.core.diffusion import (
    DiffusionBalancer,
    diffusion_round_continuous,
    diffusion_round_discrete,
)
from repro.core.random_partner import RandomPartnerBalancer
from repro.distributed.dispatcher import close_workers, connect_workers, dispatch_sharded
from repro.distributed.worker import launch_worker_process
from repro.graphs.generators import torus_2d
from repro.graphs.partition import Partition
from repro.simulation import (
    EnsembleSimulator,
    EnsembleTrace,
    MaxRounds,
    PartitionedSimulator,
    PotentialFractionBelow,
    Simulator,
    Trace,
    spawn_rngs,
)

from perfbench import inputs
from perfbench.clock import RoundClock, WorkerClock

ROOT = Path(__file__).resolve().parents[1]
#: scratch space for files written by worker processes during a run
RUN_DIR = ROOT / ".perfbench-run"

#: relative tolerance of the continuous engines' conservation audit
CONS_TOL = 1e-6


class CheckFailed(AssertionError):
    """An attempt's output is wrong."""


@dataclass(frozen=True)
class Size:
    """Problem size of a workload; tests run the same code at smoke sizes."""

    side: int  #: torus side (n = side * side)
    replicas: int
    eps: float  #: stop at Phi <= eps * Phi_0
    cap: int  #: round cap; reaching it fails the check
    blocks: int = 2  #: partitions or worker processes
    shards: int = 4


@dataclass
class Attempt:
    """What one attempt measured; ``error`` is set when it failed."""

    seed: int
    traced: bool = False
    setup_s: float = float("nan")
    run_s: float = float("nan")
    rounds: int = 0
    replica_rounds: int = 0
    round_s: np.ndarray = field(default_factory=lambda: np.empty(0))
    #: traced only: the round window and the layer seconds booked in it
    window_s: float = 0.0
    window_rounds: int = 0
    layers: dict = field(default_factory=dict)
    #: traced only: layer seconds booked outside the round window
    #: (set-up before the first round, gather and merge after the last)
    once_layers: dict = field(default_factory=dict)
    #: exact per-run counts (messages, bytes, heartbeats, retries, ...)
    counts: dict = field(default_factory=dict)
    #: wall seconds of the whole attempt, check included
    wall_s: float = 0.0
    error: str | None = None
    #: traceback of the failure
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def replica_rounds_per_s(self) -> float:
        return self.replica_rounds / self.run_s


def _delta(after: dict, before: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items() if v != before.get(k, 0.0)}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def check_outputs(stopped_by, last_phi, initial_phi, final, initial, eps_rule,
                  discrete: bool) -> None:
    """Every replica stopped by the epsilon rule with Phi <= eps * Phi_0,
    the recorded Phi matches the final loads, and load is conserved."""
    last_phi = np.asarray(last_phi, dtype=np.float64)
    initial_phi = np.asarray(initial_phi, dtype=np.float64)
    for b, reason in enumerate(stopped_by):
        if reason != eps_rule.reason:
            raise CheckFailed(f"replica {b} stopped by {reason!r}, not {eps_rule.reason!r}")
    if not np.all(last_phi <= eps_rule.eps * initial_phi):
        raise CheckFailed("a replica stopped with Phi > eps * Phi_0")
    f = np.asarray(final, dtype=np.float64)
    centered = f - f.mean(axis=1, keepdims=True)
    phi = np.einsum("ij,ij->i", centered, centered)
    if np.any(np.abs(phi - last_phi) > 1e-9 * np.einsum("ij,ij->i", f, f)):
        raise CheckFailed("recorded final Phi does not match the final loads")
    if discrete:
        if not np.array_equal(np.sum(final, axis=1), np.sum(initial, axis=1)):
            raise CheckFailed("discrete load not conserved exactly")
    else:
        s0 = np.sum(initial, axis=1)
        if np.any(np.abs(f.sum(axis=1) - s0) > CONS_TOL * np.maximum(np.abs(s0), 1.0)):
            raise CheckFailed("continuous load not conserved within tolerance")


def check_replica(make_balancer, initial, rng, eps: float, cap: int, final, rounds: int,
                  *, serial: bool) -> None:
    """Recompute one replica alone and require bit-for-bit equal final
    loads and stop round.  ``serial`` runs it on the serial
    :class:`Simulator`; otherwise on the batched engine at B = 1."""
    ref = EnsembleSimulator(
        make_balancer(),
        stopping=[PotentialFractionBelow(eps), MaxRounds(cap)],
        serial_singleton=serial,
    ).run(initial, seed=[rng])
    if ref.replica_rounds(0) != rounds:
        raise CheckFailed(f"replica stop round {rounds} != recomputed {ref.replica_rounds(0)}")
    if not np.array_equal(ref.final_loads[0], np.asarray(final)):
        raise CheckFailed("replica final loads differ from the recomputed run")


def check_ensemble(trace, initial, eps_rule, size: Size, seed: int, *, discrete: bool,
                   make_balancer) -> None:
    """The whole output check of a batched run: :func:`check_outputs`,
    then :func:`check_replica` on the serial engine for a replica the
    attempt's seed picks."""
    check_outputs(trace.stopped_by, trace.last_potentials, trace.initial_potentials,
                  trace.final_loads, initial, eps_rule, discrete=discrete)
    B = initial.shape[0]
    b = int(np.random.default_rng(seed).integers(B))
    check_replica(make_balancer, initial[b], spawn_rngs(seed, B)[b], size.eps, size.cap,
                  trace.final_loads[b], trace.replica_rounds(b), serial=True)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One benchmark workload.  Subclasses implement :meth:`_execute`."""

    name = ""
    why = ""
    SIZE: Size
    #: layer names that partition a traced round (plus ``unattributed``)
    LEDGER: tuple[str, ...] = ()

    def __init__(self, size: Size | None = None, wrap_balancer=None) -> None:
        self.size = size or self.SIZE
        #: test hook: applied to every balancer the timed run uses
        self.wrap_balancer = wrap_balancer

    @property
    def n(self) -> int:
        return self.size.side * self.size.side

    def _balancer(self, bal):
        return self.wrap_balancer(bal) if self.wrap_balancer else bal

    def attempt(self, seed: int, ledger=None, *, setup_only: bool = False) -> Attempt:
        """Set up, run and check once; never raises.

        ``setup_only`` stops at the first round (cap 0), to sample the
        set-up time again; such an attempt is not checked.
        """
        att = Attempt(seed=seed, traced=ledger is not None)
        size = replace(self.size, cap=0) if setup_only else self.size
        start = perf_counter()
        try:
            try:
                check = self._execute(att, size, ledger)
            finally:
                if ledger is not None:
                    ledger.restore()
            if not setup_only:
                check()
        except Exception as exc:
            att.error = f"{type(exc).__name__}: {exc}"
            att.detail = traceback.format_exc()
        att.wall_s = perf_counter() - start
        return att

    def _execute(self, att: Attempt, size: Size, ledger):
        raise NotImplementedError

    def kernel_bytes_per_round(self) -> float:
        """Computed bytes the kernel moves per round (not measured)."""
        raise NotImplementedError

    # -- shared pieces -------------------------------------------------
    @staticmethod
    def _rules(size: Size, ledger):
        clock = RoundClock(ledger)
        eps_rule = PotentialFractionBelow(size.eps)
        cap = MaxRounds(size.cap)
        if ledger is not None:
            for rule in (eps_rule, cap):
                ledger.patch(rule, "should_stop", "stopping")
                ledger.patch(rule, "should_stop_batch", "stopping")
        return clock, eps_rule, cap

    @staticmethod
    def _record_window(att: Attempt, clock: RoundClock, pre: dict, ledger) -> None:
        """Cut the ledger at the first and last tick of ``clock``."""
        first, last = clock.snaps[0], clock.snaps[-1]
        att.window_s = clock.ticks[-1] - clock.ticks[0]
        att.window_rounds = len(clock.ticks) - 1
        att.layers = _delta(last, first)
        once = _delta(first, pre)
        for k, v in _delta(ledger.snapshot(), last).items():
            once[k] = once.get(k, 0.0) + v
        att.once_layers = once

    def _record(self, att: Attempt, clock: RoundClock, t0: float, pre, ledger) -> None:
        att.setup_s = clock.ticks[0] - t0
        att.round_s = clock.round_durations()
        if ledger is not None:
            self._record_window(att, clock, pre, ledger)


def _diffusion_bytes(n: int, m: int, B: int, discrete: bool) -> float:
    """Bytes one Algorithm-1 round's array passes read and write, computed
    from array sizes (each pass counted once; cache reuse ignored).

    Continuous: one CSR pass over the round matrix (``n + 2m`` entries of
    float64 value and int32 column, ``n + 1`` int32 row pointers) that
    gathers a ``B``-row of loads per entry and writes the ``(n, B)``
    result.  Discrete (the staged numpy/scipy path): two indexed gathers
    of the endpoint loads into ``(m, B)`` int64 buffers, their difference,
    the max/min bound over the loads, the reciprocal multiply into a
    float64 buffer and the truncating copy back, then the incidence
    product (``2m`` int64 entries) and the add of the loads.
    """
    word, idx = 8, 4
    if not discrete:
        nnz = n + 2 * m
        return float(nnz * (word + idx) + (n + 1) * idx + nnz * B * word + n * B * word)
    mB, nB = m * B * word, n * B * word
    gathers = 2 * (m * word + 2 * mB)
    subtract = 3 * mB
    bound = 2 * nB
    divide = 2 * mB + m * word + 2 * mB
    scatter = 2 * m * (word + idx) + (n + 1) * idx + 2 * mB + nB + 3 * nB
    return float(gathers + subtract + bound + divide + scatter)


class SerialDiffusion(Workload):
    name = "serial-diffusion"
    why = ("continuous Algorithm 1 on the serial Simulator, torus 64x64, B = 1: "
           "bookkeeping (trace, audit, stopping) rivals the kernel, so cheaper "
           "serial rounds show here")
    SIZE = Size(side=64, replicas=1, eps=1e-6, cap=200_000)
    LEDGER = ("kernel", "trace_record", "stopping", "audit")

    def kernel_bytes_per_round(self) -> float:
        return _diffusion_bytes(self.n, 2 * self.n, 1, discrete=False)

    def _execute(self, att, size, ledger):
        t0 = perf_counter()
        pre = ledger.snapshot() if ledger is not None else None
        n = size.side * size.side
        loads = inputs.half_half(n, 1, high=1000.0, noise=100.0, discrete=False, seed=att.seed)
        topo = torus_2d(size.side, size.side)
        bal = self._balancer(DiffusionBalancer(topo))
        warm = diffusion_round_continuous
        if ledger is not None:
            warm = ledger.wrap("setup.operator", warm)
        warm(np.zeros(n), topo)
        clock, eps_rule, cap = self._rules(size, ledger)
        sim = Simulator(bal, stopping=[clock, eps_rule, cap])
        if ledger is not None:
            ledger.patch(bal, "step", "kernel")
            ledger.patch(Trace, "record", "trace_record")
            ledger.patch(sim, "_audit_conservation", "audit")
        rng = spawn_rngs(att.seed, 1)[0]
        t_run = perf_counter()
        trace = sim.run(loads[0], seed=rng)
        att.run_s = perf_counter() - t_run
        self._record(att, clock, t0, pre, ledger)
        att.rounds = att.replica_rounds = trace.rounds

        def check():
            final = trace._last_loads  # the serial Trace keeps the final state here
            check_outputs([trace.stopped_by], [trace.last_potential],
                          [trace.initial_potential], final[None, :], loads, eps_rule,
                          discrete=False)
            check_replica(lambda: DiffusionBalancer(topo), loads[0], spawn_rngs(att.seed, 1)[0],
                          size.eps, size.cap, final, trace.rounds, serial=False)
        return check


class EnsembleDiscrete(Workload):
    name = "ensemble-discrete"
    why = ("discrete Algorithm 1 on EnsembleSimulator, torus 64x64, B = 32: the "
           "batched kernel dominates the round, so it is the one that shows a "
           "kernel change")
    SIZE = Size(side=64, replicas=32, eps=0.2, cap=100_000)
    LEDGER = ("kernel", "trace_record", "stopping", "audit")

    def kernel_bytes_per_round(self) -> float:
        return _diffusion_bytes(self.n, 2 * self.n, self.size.replicas, discrete=True)

    def _execute(self, att, size, ledger):
        t0 = perf_counter()
        pre = ledger.snapshot() if ledger is not None else None
        n, B = size.side * size.side, size.replicas
        loads = inputs.half_half(n, B, high=1_000_000, noise=100_000, discrete=True,
                                 seed=att.seed)
        topo = torus_2d(size.side, size.side)
        bal = self._balancer(DiffusionBalancer(topo, mode="discrete"))
        warm = diffusion_round_discrete
        if ledger is not None:
            warm = ledger.wrap("setup.operator", warm)
        warm(np.zeros((B, n), dtype=np.int64), topo)
        clock, eps_rule, cap = self._rules(size, ledger)
        sim = EnsembleSimulator(bal, stopping=[clock, eps_rule, cap])
        if ledger is not None:
            ledger.patch(bal, "step_batch", "kernel")
            ledger.patch(EnsembleTrace, "record", "trace_record")
            ledger.patch(ensemble, "audit_replica_sums", "audit")
        t_run = perf_counter()
        trace = sim.run(loads, seed=att.seed)
        att.run_s = perf_counter() - t_run
        self._record(att, clock, t0, pre, ledger)
        att.rounds = trace.rounds
        att.replica_rounds = int(trace.rounds_vector.sum())

        return lambda: check_ensemble(trace, loads, eps_rule, size, att.seed, discrete=True,
                                      make_balancer=lambda: DiffusionBalancer(topo, "discrete"))


class PartitionedProcess(Workload):
    name = "partitioned-process"
    why = ("discrete Algorithm 1 on PartitionedSimulator, process mode, P = 2, mp-pipe, "
           "torus 128x128, B = 4: a control round trip and a 16.7 KB halo exchange every "
           "round, so transport latency dominates")
    SIZE = Size(side=128, replicas=4, eps=0.5, cap=100_000, blocks=2)
    LEDGER = ("chunk_wait", "stats_combine", "trace_record", "stopping", "audit")

    def kernel_bytes_per_round(self) -> float:
        return _diffusion_bytes(self.n, 2 * self.n, self.size.replicas, discrete=True)

    def _instrument(self, ledger, executors: list) -> None:
        real = partitioned._LocalProcessExecutor

        def build(*args):
            ex = real(*args)
            ledger.patch(ex, "run_chunk", "chunk_wait")
            ledger.patch(ex, "gather", "gather")
            for conn in ex.conns:
                ledger.patch(conn, "send", "ctrl.send", detail=True)
                ledger.patch(conn, "recv", "ctrl.recv_wait", detail=True)
            executors.append(ex)
            return ex

        ledger.patch(partitioned, "_LocalProcessExecutor", "setup.workers", replacement=build)
        ledger.patch(partitioned, "make_partition", "setup.partition")
        ledger.patch(Partition, "for_topology", "setup.partition")
        ledger.patch(partitioned, "block_local", "setup.operator")
        ledger.patch(partitioned, "_combine_stats", "stats_combine")
        ledger.patch(partitioned, "audit_replica_sums", "audit")
        ledger.patch(EnsembleTrace, "record", "trace_record")
        ledger.patch(EnsembleTrace, "record_stats", "trace_record")

    def _execute(self, att, size, ledger):
        t0 = perf_counter()
        pre = ledger.snapshot() if ledger is not None else None
        n, B = size.side * size.side, size.replicas
        loads = inputs.half_half(n, B, high=1_000_000, noise=100_000, discrete=True,
                                 seed=att.seed)
        topo = torus_2d(size.side, size.side)
        bal = self._balancer(DiffusionBalancer(topo, mode="discrete"))
        clock, eps_rule, cap = self._rules(size, ledger)
        sim = PartitionedSimulator(bal, partitions=size.blocks, mode="process",
                                   stopping=[clock, eps_rule, cap])
        executors: list = []
        if ledger is not None:
            self._instrument(ledger, executors)
            chunks0 = ledger.calls["chunk_wait"]
        t_run = perf_counter()
        trace = sim.run(loads)
        att.run_s = perf_counter() - t_run
        self._record(att, clock, t0, pre, ledger)
        att.rounds = trace.rounds
        att.replica_rounds = int(trace.rounds_vector.sum())
        hs = sim.halo_stats
        att.counts.update(halo_bytes=hs["halo_bytes"], halo_values=hs["halo_values"])
        if ledger is not None:
            att.counts["ctrl_round_trips"] = ledger.calls["chunk_wait"] - chunks0
            traffic = [conn.traffic() for ex in executors for conn in ex.conns]
            att.counts["ctrl_bytes"] = sum(t["bytes_sent"] + t["bytes_received"] for t in traffic)
            att.counts["ctrl_msgs"] = sum(
                t["messages_sent"] + t["messages_received"] for t in traffic
            )

        return lambda: check_ensemble(trace, loads, eps_rule, size, att.seed, discrete=True,
                                      make_balancer=lambda: DiffusionBalancer(topo, "discrete"))


class DispatchSharded(Workload):
    name = "dispatch-sharded"
    why = ("continuous Algorithm 2 via dispatch_sharded, n = 4096, B = 32, 4 shards on 2 "
           "tcp workers with heartbeats: the only one reaching the dispatcher, bulk tcp "
           "frames and partner sampling")
    SIZE = Size(side=64, replicas=32, eps=1e-8, cap=10_000, blocks=2, shards=4)
    LEDGER = ("partner_sampling", "partner_apply", "trace_record", "stopping", "audit")
    HEARTBEAT_S = 0.25
    #: silence after which a worker counts as lost (the run limit is 180 s)
    TIMEOUT_S = 30.0

    def kernel_bytes_per_round(self) -> float:
        """Random-partner round, taking ``n`` links per replica (the upper
        bound; mutual picks merge a few): ``n`` int64 picks, per link two
        int64 endpoints, two gathered loads, degree reads, one flow and a
        two-sided scatter, plus the ``(n, B)`` degree and load arrays."""
        n, B = self.n, self.size.replicas
        per_link = 2 * 8 + 2 * 8 + 2 * 8 + 8 + 2 * 8
        return float(B * (n * 8 + n * per_link + 3 * n * 8))

    def _launch(self, size: Size, ledger, procs: list) -> list:
        """Start the workers into ``procs`` and connect; returns the handles."""
        launch, connect = launch_worker_process, connect_workers
        if ledger is not None:
            launch = ledger.wrap("setup.workers", launch)
            connect = ledger.wrap("dispatch.connect", connect)
        # Workers unpickle the benchmark's WorkerClock, so they need the
        # benchmark package on their path next to the program's.
        old = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT), old) if p)
        try:
            for _ in range(size.blocks):
                procs.append(launch())
        finally:
            if old is None:
                del os.environ["PYTHONPATH"]
            else:
                os.environ["PYTHONPATH"] = old
        return connect([addr for _, addr in procs], heartbeat=self.HEARTBEAT_S,
                       timeout=self.TIMEOUT_S)

    @staticmethod
    def _stop(procs, handles) -> None:
        """Close the control channels, then end and reap every worker."""
        close_workers(handles)
        for proc, _ in procs:
            proc.terminate()
        for proc, _ in procs:
            try:
                proc.wait(timeout=30)
            except Exception:
                proc.kill()
                proc.wait()

    def _execute(self, att, size, ledger):
        t0 = perf_counter()
        pre = ledger.snapshot() if ledger is not None else None
        n, B = size.side * size.side, size.replicas
        loads = inputs.uniform(n, B, high=1000.0, seed=att.seed)
        bal = self._balancer(RandomPartnerBalancer())
        RUN_DIR.mkdir(exist_ok=True)
        out_dir = tempfile.mkdtemp(dir=RUN_DIR)
        procs, handles = [], []
        try:
            handles = self._launch(size, ledger, procs)
            att.setup_s = perf_counter() - t0
            if size.cap == 0:
                return None
            eps_rule = PotentialFractionBelow(size.eps)
            rules = [WorkerClock(size.eps, size.cap, out_dir), eps_rule, MaxRounds(size.cap)]
            if ledger is not None:
                ledger.patch(sharding, "shard_payloads", "sharding.payload")
                ledger.patch(sharding, "merge_ensemble_traces", "sharding.merge")
            t_run = perf_counter()
            merged, stats = dispatch_sharded(bal, loads, handles, shards=size.shards,
                                             seed=att.seed, stopping=rules,
                                             timeout=self.TIMEOUT_S)
            att.run_s = perf_counter() - t_run
            ticks = [np.load(p) for p in sorted(Path(out_dir).glob("ticks-*.npy"))]
        finally:
            self._stop(procs, handles)
            shutil.rmtree(out_dir, ignore_errors=True)
        att.round_s = np.concatenate(ticks) if ticks else np.empty(0)
        att.rounds = merged.rounds
        att.replica_rounds = int(merged.rounds_vector.sum())
        traffic = stats["control_traffic"].values()
        att.counts.update(
            dispatch_ctrl_bytes=sum(t["bytes_sent"] + t["bytes_received"] for t in traffic),
            dispatch_heartbeats=sum(w["hb_count"] for w in stats["workers_live"].values()),
            dispatch_retries=stats["retries"],
            dispatch_requeued_shards=stats["requeued_shards"],
        )
        if ledger is not None:
            att.once_layers = _delta(ledger.snapshot(), pre)
            self._reference(att, size, loads, merged, ledger)

        def check():
            if len(ticks) != size.shards:
                raise CheckFailed(f"{len(ticks)} shard round timings for {size.shards} shards")
            check_ensemble(merged, loads, eps_rule, size, att.seed, discrete=False,
                           make_balancer=RandomPartnerBalancer)
        return check

    def _reference(self, att, size, loads, merged, ledger) -> None:
        """Traced in-process run of shard 0's problem: the layers inside the
        workers cannot be timed from the coordinator, so they are timed on
        the same shard here.  Its result must equal the dispatched shard's."""
        lo, hi = sharding.split_shards(size.replicas, size.shards)[0]
        pre = ledger.snapshot()
        bal = self._balancer(RandomPartnerBalancer())
        clock, eps_rule, cap = self._rules(size, ledger)
        sim = EnsembleSimulator(bal, stopping=[clock, eps_rule, cap], serial_singleton=False)
        ledger.patch(random_partner, "sample_partner_links", "partner_sampling", detail=True)
        ledger.patch(bal, "step_batch", "kernel")
        ledger.patch(EnsembleTrace, "record", "trace_record")
        ledger.patch(ensemble, "audit_replica_sums", "audit")
        try:
            ref = sim.run(loads[lo:hi], seed=spawn_rngs(att.seed, size.replicas)[lo:hi])
        finally:
            ledger.restore()
        once = att.once_layers
        self._record_window(att, clock, pre, ledger)
        att.once_layers = once
        if not (np.array_equal(ref.final_loads, merged.final_loads[lo:hi])
                and np.array_equal(ref.rounds_vector, merged.rounds_vector[lo:hi])):
            raise CheckFailed("in-process reference differs from the dispatched shard")


WORKLOADS = {w.name: w for w in (SerialDiffusion, EnsembleDiscrete, PartitionedProcess,
                                 DispatchSharded)}
