"""Seeded input generators.

The benchmark derives every input from its ``--seed``; the engines only
ever see the generated load matrices.  Each attempt of a run draws its
own sub-seed, so a run covers several inputs and the same seed always
reproduces the same sequence of them.
"""

from __future__ import annotations

import numpy as np


def attempt_seed(seed: int, attempt: int) -> int:
    """Deterministic 32-bit seed of attempt ``attempt`` of run ``seed``."""
    return int(np.random.SeedSequence([int(seed), int(attempt)]).generate_state(1)[0])


def half_half(n: int, replicas: int, *, high: float, noise: float,
              discrete: bool, seed: int) -> np.ndarray:
    """``(replicas, n)`` loads: ``high`` on the first half of the nodes,
    nothing on the second, plus per-replica uniform noise in ``[0, noise)``.

    On a row-major torus the first half is the top half of the rows, so
    almost all of the error sits on the slowest torus mode and the runs
    last the many rounds Theorem 4 predicts.
    """
    rng = np.random.default_rng(seed)
    base = np.where(np.arange(n) < n // 2, high, 0)
    if discrete:
        return base[None, :].astype(np.int64) + rng.integers(0, int(noise), size=(replicas, n))
    return base[None, :].astype(np.float64) + rng.uniform(0.0, noise, size=(replicas, n))


def uniform(n: int, replicas: int, *, high: float, seed: int) -> np.ndarray:
    """``(replicas, n)`` continuous loads drawn uniformly from ``[0, high)``."""
    return np.random.default_rng(seed).uniform(0.0, high, size=(replicas, n))
