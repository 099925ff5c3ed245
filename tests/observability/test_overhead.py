"""The telemetry bargain: tracing-off costs (almost) nothing, and
tracing-on never changes a trajectory.

Two guards:

1. **Structural no-op guard** — with the recorder disabled the round
   loops never call into the recorder at all (a poisoned ``record_span``
   proves the ``if traced:`` hoisting works), and the disabled ``span()``
   path returns a shared singleton (no allocation).
2. **Bit-for-bit invariance** — serial, ensemble and partitioned runs
   produce byte-identical trajectories with tracing on and off.
"""

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.graphs.generators import torus_2d
from repro.observability import Recorder, set_recorder
from repro.observability.recorder import get_recorder
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator
from repro.simulation.partitioned import PartitionedSimulator
from repro.simulation.stopping import MaxRounds

ROUNDS = 15


@pytest.fixture(autouse=True)
def _restore_global_recorder():
    yield
    set_recorder(None)


def _loads(topo, seed=3):
    return np.random.default_rng(seed).uniform(0.0, 10_000.0, topo.n)


def _poisoned_recorder():
    """A disabled recorder whose recording methods raise if ever called."""

    class Poisoned(Recorder):
        def record_span(self, *a, **k):  # pragma: no cover - must not run
            raise AssertionError("record_span called with tracing off")

        def event(self, *a, **k):  # pragma: no cover - must not run
            raise AssertionError("event called with tracing off")

    return Poisoned(enabled=False)


class TestDisabledPathIsNeverEntered:
    """The hot loops hoist ``traced = rec.enabled`` — recorder off means
    zero recorder calls per round, hence zero telemetry allocations."""

    def test_serial_loop(self):
        set_recorder(_poisoned_recorder())
        topo = torus_2d(4, 4)
        Simulator(DiffusionBalancer(topo), stopping=[MaxRounds(ROUNDS)]).run(
            _loads(topo), 0)

    def test_ensemble_loop(self):
        set_recorder(_poisoned_recorder())
        topo = torus_2d(4, 4)
        EnsembleSimulator(DiffusionBalancer(topo), stopping=[MaxRounds(ROUNDS)]).run(
            _loads(topo), seed=0, replicas=3)

    def test_partitioned_loop(self):
        set_recorder(_poisoned_recorder())
        topo = torus_2d(4, 4)
        PartitionedSimulator(
            DiffusionBalancer(topo), partitions=2,
            stopping=[MaxRounds(ROUNDS)],
        ).run(_loads(topo))


class TestBitForBitInvariance:
    """Tracing observes; it must never perturb arithmetic or ordering."""

    def _run_serial(self, topo):
        sim = Simulator(
            DiffusionBalancer(topo), stopping=[MaxRounds(ROUNDS)],
            keep_snapshots=True)
        trace = sim.run(_loads(topo), 0)
        return [np.asarray(s).copy() for s in trace._snapshots]

    def test_serial(self, tmp_path):
        topo = torus_2d(5, 5)
        plain = self._run_serial(topo)
        set_recorder(Recorder(enabled=True, path=str(tmp_path / "t.jsonl")))
        traced = self._run_serial(topo)
        set_recorder(None)
        assert len(plain) == len(traced)
        for a, b in zip(plain, traced):
            assert np.array_equal(a, b)

    def _run_partitioned(self, topo, mode, transport, split):
        sim = PartitionedSimulator(
            DiffusionBalancer(topo), partitions=4, strategy="bfs",
            stopping=[MaxRounds(ROUNDS)], keep_snapshots=True, mode=mode,
            transport=transport, overlap=split, delta_frames=split)
        trace = sim.run(_loads(topo))
        return [np.asarray(s).copy() for s in trace.snapshots]

    @pytest.mark.parametrize("mode, transport, split", [
        ("inprocess", "mp-pipe", False),
        ("process", "mp-pipe", False),
        ("process", "mp-pipe", True),
        ("process", "tcp", False),
        ("process", "tcp", True),
    ], ids=["inprocess", "mp-pipe-sync", "mp-pipe-overlap-delta", "tcp-sync",
            "tcp-overlap-delta"])
    def test_partitioned_inprocess(self, tmp_path, mode, transport, split):
        """Traced and untraced partitioned runs agree snapshot for
        snapshot; process-mode blocks trace every phase of their round
        (``split`` runs the overlap schedule with delta frames)."""
        topo = torus_2d(6, 6)
        plain = self._run_partitioned(topo, mode, transport, split)
        set_recorder(Recorder(enabled=True, path=str(tmp_path / "t.jsonl")))
        traced = self._run_partitioned(topo, mode, transport, split)
        rec = get_recorder()
        set_recorder(None)
        assert rec.n_events > 0  # tracing actually happened
        assert len(plain) == len(traced) == ROUNDS + 1
        for a, b in zip(plain, traced):
            assert np.array_equal(a, b)
        if mode == "process":
            phases = {"halo_send", "halo_wait", "interior"} | ({"boundary"} if split else set())
            seen: dict[str, set] = {}
            for ev in rec.drain_events():
                if ev.get("ev") == "span" and "block" in ev:
                    seen.setdefault(ev["name"], set()).add(ev["block"])
            for name in phases:
                assert seen.get(name) == {0, 1, 2, 3}, (name, seen)

    def test_ensemble(self, tmp_path):
        topo = torus_2d(5, 5)
        def run():
            ens = EnsembleSimulator(
                DiffusionBalancer(topo), stopping=[MaxRounds(ROUNDS)])
            return ens.run(_loads(topo), seed=7, replicas=4)
        plain = run()
        set_recorder(Recorder(enabled=True, path=str(tmp_path / "t.jsonl")))
        traced = run()
        set_recorder(None)
        assert np.array_equal(plain.final_loads, traced.final_loads)
        assert np.array_equal(
            plain.potentials_matrix, traced.potentials_matrix)
