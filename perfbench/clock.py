"""Stopping rules that never fire and only read the clock.

The engines check their stopping rules once before the first round and
once after every round, so a rule that stamps ``perf_counter()`` on each
check yields the wall time of every round without touching the engine.
It sits beside the real epsilon rule, which keeps deciding when the run
ends; the engine's chunking is unchanged because the epsilon rule already
forces a check after every round.
"""

from __future__ import annotations

import os
import uuid
from time import perf_counter

import numpy as np

from repro.simulation.stopping import StoppingRule


class RoundClock(StoppingRule):
    """Stamp the time of every stopping check; never fire.

    ``ticks[0]`` is the moment the engine is ready for round 1, so
    ``ticks[0] - start`` is the set-up time and ``diff(ticks)`` the wall
    time of each round.  With a ledger attached, each tick also
    snapshots the ledger, so layer totals can be cut to the same window.
    """

    def __init__(self, ledger=None) -> None:
        self.ticks: list[float] = []
        self.snaps: list[dict] = []
        self._ledger = ledger
        self._never = np.zeros(0, dtype=bool)

    def _tick(self) -> None:
        self.ticks.append(perf_counter())
        if self._ledger is not None:
            self.snaps.append(self._ledger.snapshot())

    def should_stop(self, trace) -> bool:
        self._tick()
        return False

    def should_stop_batch(self, trace) -> np.ndarray:
        self._tick()
        if self._never.shape[0] != trace.replicas:
            self._never = np.zeros(trace.replicas, dtype=bool)
        return self._never

    def round_durations(self) -> np.ndarray:
        """Wall seconds of each round."""
        return np.diff(np.asarray(self.ticks))

    @property
    def reason(self) -> str:
        return "round-clock"


class WorkerClock(RoundClock):
    """A :class:`RoundClock` that runs inside a worker process.

    Rules travel to remote workers with the shard payload, so their
    ticks cannot be read back from the coordinator.  This one writes the
    round durations of each shard to ``out_dir`` once every replica of
    the shard has met the epsilon criterion or the round cap, which is
    the last check the engine makes for that shard, before the worker
    sends the shard's trace back.
    """

    def __init__(self, eps: float, cap: int, out_dir: str) -> None:
        super().__init__()
        self.eps = eps
        self.cap = cap
        self.out_dir = out_dir

    def should_stop_batch(self, trace) -> np.ndarray:
        never = super().should_stop_batch(trace)
        done = (trace.last_potentials <= self.eps * trace.initial_potentials) | (
            trace.rounds_vector >= self.cap
        )
        if done.all():
            path = os.path.join(self.out_dir, f"ticks-{os.getpid()}-{uuid.uuid4().hex}.npy")
            np.save(path, self.round_durations())
            self.ticks = []
        return never
