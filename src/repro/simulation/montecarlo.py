"""Monte-Carlo replication over seeds: serial, process-parallel or vectorized.

Theorems 12 and 14 are probabilistic ("with probability at least ..."),
and Lemmas 9/11/13 bound expectations — verifying them needs many
independent runs.  :func:`monte_carlo` executes a user-provided trial
function over a range of seeds and aggregates the results; replications
are independent, so they fan out over a ``ProcessPoolExecutor`` when
``workers > 1`` — the embarrassingly-parallel axis worth parallelizing
(each trial is itself vectorized NumPy).

Execution modes
---------------
``workers`` selects among four composable backends:

- ``workers=1`` (default) — one process, serial kernels: the reference
  loop every other mode must reproduce.
- ``workers=K`` — ``ProcessPoolExecutor`` with ``K`` processes, one
  trial per task, serial kernels inside each.  The embarrassingly
  parallel axis; right when trials are individually heavy or the trial
  has no batched form.
- ``workers="vectorized"`` — one process, batched kernels: a trial
  object that implements ``run_batch(rngs, *args, **kwargs)`` (typically
  by pushing all replicas through an
  :class:`~repro.simulation.ensemble.EnsembleSimulator` in lockstep)
  receives every replica's generator at once and returns the per-trial
  metric arrays in one call — no process pool, no per-trial Python round
  loops.
- ``workers="KxVectorized"`` (e.g. ``"4xvectorized"``, or the tuple
  ``(4, "vectorized")``) — the composed *sharded* mode: trials split
  into ``K`` contiguous blocks, each block runs as one lockstep ensemble
  in its own pool process (:mod:`repro.simulation.sharding`), results
  concatenate in trial order.  Multiplies the batched kernels by
  process-level parallelism.

Trials without ``run_batch`` transparently fall back to the serial or
pool backend, so the vectorized modes are always safe to request.

Seeds are derived from a root seed via ``SeedSequence.spawn`` so that

- trials are statistically independent,
- results are identical whichever backend runs them (per-trial load
  trajectories are bit-for-bit reproduced; engine statistics follow
  :func:`repro.simulation.trace.round_stats`), and
- any single trial can be reproduced in isolation from its index.

The trial function must be a module-level callable (picklable) taking a
``numpy.random.Generator`` and returning a float or a dict of floats.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = ["MonteCarloResult", "monte_carlo", "trial_rng", "trial_rngs"]

TrialFn = Callable[..., float | Mapping[str, float]]


@dataclass
class MonteCarloResult:
    """Aggregated trial outcomes.

    ``samples`` maps each metric name to the per-trial value array
    (single-float trials are stored under ``"value"``).
    """

    samples: dict[str, np.ndarray]
    trials: int

    def mean(self, key: str = "value") -> float:
        return float(self.samples[key].mean())

    def std(self, key: str = "value") -> float:
        return float(self.samples[key].std(ddof=1)) if self.trials > 1 else 0.0

    def quantile(self, q: float, key: str = "value") -> float:
        return float(np.quantile(self.samples[key], q))

    def max(self, key: str = "value") -> float:
        return float(self.samples[key].max())

    def min(self, key: str = "value") -> float:
        return float(self.samples[key].min())

    def fraction_true(self, key: str = "value") -> float:
        """Fraction of trials where the (0/1-valued) metric was 1."""
        return float(self.samples[key].mean())

    def confidence_halfwidth(self, key: str = "value", z: float = 1.96) -> float:
        """Normal-approximation CI half-width for the mean."""
        if self.trials < 2:
            return float("inf")
        return z * self.std(key) / np.sqrt(self.trials)


def trial_rng(root_seed: int, index: int) -> np.random.Generator:
    """Trial ``index``'s generator — THE seed derivation of every backend.

    Equivalent to ``SeedSequence(root_seed).spawn(...)[index]`` but O(1).
    The serial loop, the pool workers, the vectorized ensemble and the
    sharded shards all call this one function, so the cross-backend
    reproducibility contract cannot silently desynchronize.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=root_seed, spawn_key=(index,)))


def trial_rngs(root_seed: int, trials: int) -> list[np.random.Generator]:
    """Independent generators for ``trials`` replications of ``root_seed``.

    Uses the same ``spawn_key`` derivation as the pool workers, so
    ``trial_rngs(s, k)[i]`` reproduces trial ``i`` of ``monte_carlo`` runs
    with root seed ``s`` exactly.
    """
    return [trial_rng(root_seed, i) for i in range(trials)]


def _run_one(args: tuple[TrialFn, int, int, tuple, dict]) -> Mapping[str, float]:
    fn, root_seed, index, extra_args, extra_kwargs = args
    rng = trial_rng(root_seed, index)
    out = fn(rng, *extra_args, **extra_kwargs)
    if isinstance(out, Mapping):
        return dict(out)
    return {"value": float(out)}


def monte_carlo(
    trial: TrialFn,
    trials: int,
    root_seed: int = 0,
    workers: int | str = 1,
    trial_args: Sequence = (),
    trial_kwargs: Mapping | None = None,
    backend: str | None = None,
    partitions: int | str | None = None,
) -> MonteCarloResult:
    """Run ``trial(rng, *trial_args, **trial_kwargs)`` for many seeds.

    ``workers`` picks the execution mode — ``1`` (serial), ``K`` (process
    pool), ``"vectorized"`` (one lockstep ensemble) or ``"KxVectorized"``
    (``K`` process-local ensemble shards); see the module docstring's
    *Execution modes*.  Results are aggregated in trial order in every
    mode, so the output is independent of the execution strategy.

    ``backend`` selects the *kernel* backend (numpy/scipy/numba) and is
    forwarded to the trial as a ``backend=`` keyword — shorthand for
    putting it in ``trial_kwargs`` — so the trial can pass it to the
    balancers it builds.  Trials that do not accept the keyword should be
    run with ``backend=None`` (the default).

    ``partitions`` (``P`` or ``"P:strategy"``) is the node-axis analogue:
    validated here and forwarded as a ``partitions=`` keyword so trials
    that run their balancer through
    :class:`~repro.simulation.partitioned.PartitionedSimulator` can split
    each run into halo-exchanging blocks.  Results are independent of the
    setting (partitioned trajectories are bit-for-bit the global ones).
    """
    from repro.graphs.partition import parse_partitions
    from repro.simulation.sharding import parse_workers, sharded_run_batch

    if trials < 1:
        raise ValueError("need at least one trial")
    kwargs = dict(trial_kwargs or {})
    if backend is not None:
        kwargs.setdefault("backend", backend)
    if partitions is not None:
        parse_partitions(partitions)  # fail fast on malformed specs
        kwargs.setdefault("partitions", partitions)
    processes, vectorized = parse_workers(workers)
    if vectorized:
        run_batch = getattr(trial, "run_batch", None)
        if run_batch is not None:
            if processes > 1:
                samples = sharded_run_batch(
                    trial, trials, root_seed, processes, tuple(trial_args), kwargs
                )
            else:
                out = run_batch(trial_rngs(root_seed, trials), *tuple(trial_args), **kwargs)
                samples = {str(k): np.asarray(v, dtype=np.float64) for k, v in dict(out).items()}
            for key, arr in samples.items():
                if arr.shape != (trials,):
                    raise ValueError(
                        f"run_batch returned {arr.shape} samples for {key!r}, expected ({trials},)"
                    )
            return MonteCarloResult(samples=samples, trials=trials)
        workers = processes  # no batched form: degrade to the pool backend
    else:
        workers = processes
    jobs = [(trial, root_seed, i, tuple(trial_args), kwargs) for i in range(trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_one, jobs))
    else:
        outcomes = [_run_one(job) for job in jobs]

    keys = sorted({k for o in outcomes for k in o})
    samples = {k: np.asarray([o.get(k, np.nan) for o in outcomes], dtype=np.float64) for k in keys}
    return MonteCarloResult(samples=samples, trials=trials)
