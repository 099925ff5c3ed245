"""Per-run records: what happened, round by round.

A :class:`Trace` accumulates the quantities every experiment consumes —
the potential ``Phi`` and discrepancy after each round, the load sum (for
conservation checks), and optionally full load snapshots.  Extraction
helpers answer the questions the theorems pose: "after how many rounds
was the potential below x?" and "what was the average per-round drop
factor?".

Appending is O(1) amortized (Python lists); the numpy views are built on
demand.  Snapshots are opt-in because an n x T float64 history dwarfs
everything else at scale.

Every engine records its statistics through :func:`round_stats` and
:func:`combine_stats`; the serial :class:`Trace` is the ``B = 1`` case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Trace", "combine_stats", "round_stats"]


def round_stats(
    loads: np.ndarray,
    prev: np.ndarray | None = None,
    want_disc: bool = False,
    want_mov: bool = False,
) -> tuple:
    """Per-replica statistics partials of an ``(n, B)`` slab.

    Returns ``(sums, squares, extrema, movement)``: the column sums
    ``Σl``, the float64 column sums of squares ``Σl²``, the column
    ``(max, min)`` pair when ``want_disc``, and half the column sums of
    ``|loads - prev|`` when ``want_mov`` (otherwise ``None``).  The
    serial engine passes ``loads[:, None]``, the ensemble engines the
    whole batch, block workers their owned rows; :func:`combine_stats`
    turns any list of them into ``Phi = Σl² - (Σl)²/n``.

    Discrete statistics are exact and identical on every engine and
    every block split while ``Σl² < 2**53``: ``Σl`` is an exact int64
    sum, and a computed float64 ``Σl²`` below ``2**53`` is exact because
    its terms are non-negative and rounding is monotone.  ``Phi`` is then
    one fixed float expression of exact integers, within
    ``3 * 2**-53 * Σl²`` of the exact potential.  Continuous statistics
    use the same formula, and can differ in the last bits of ``Σl²``
    between ``B = 1`` and ``B >= 2`` reductions and between block splits;
    for them, and for discrete loads above ``2**53``,
    ``|Phi - Phi_exact| <= (3n + 3) * 2**-53 * Σl²`` to first order.
    """
    if loads.dtype.kind in "iu":
        sums = np.einsum("ij->j", loads)  # exact int64, faster than sum(axis=0)
    else:
        sums = np.ones(loads.shape[0]) @ loads  # BLAS row-sum, ~3x faster than sum(axis=0)
    squares = np.einsum("ij,ij->j", loads, loads, dtype=np.float64)
    extrema = (loads.max(axis=0), loads.min(axis=0)) if want_disc else None
    mov = 0.5 * np.abs(loads - prev).sum(axis=0).astype(np.float64) if want_mov else None
    return sums, squares, extrema, mov


def combine_stats(partials: list[tuple], n: int) -> tuple:
    """Combine :func:`round_stats` partials into one ``(phis, sums, disc, mov)`` row.

    ``n`` is the total node count; ``disc``/``mov`` are ``None`` when the
    partials carry none.  ``Phi`` is clamped at 0 because the shifted
    square can cancel a hair below it.
    """
    sums, squares, extrema, mov = partials[0]
    for p_sums, p_squares, p_extrema, p_mov in partials[1:]:
        sums = sums + p_sums
        squares = squares + p_squares
        if extrema is not None:
            extrema = (np.maximum(extrema[0], p_extrema[0]), np.minimum(extrema[1], p_extrema[1]))
        if mov is not None:
            mov = mov + p_mov
    sums = sums.astype(np.float64)
    phis = np.maximum(squares - sums * (sums / n), 0.0)
    disc = None if extrema is None else (extrema[0] - extrema[1]).astype(np.float64)
    return phis, sums, disc, mov


@dataclass
class Trace:
    """Recorded evolution of one balancing run."""

    balancer_name: str = ""
    keep_snapshots: bool = False
    stopped_by: str = ""  #: reason label of the stopping rule that fired

    _potentials: list[float] = field(default_factory=list)
    _discrepancies: list[float] = field(default_factory=list)
    _sums: list[float] = field(default_factory=list)
    _snapshots: list[np.ndarray] = field(default_factory=list)
    _movements: list[float] = field(default_factory=list)
    _last_loads: np.ndarray | None = field(default=None, repr=False)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, loads: np.ndarray) -> None:
        """Append one state (call with the initial state, then once per round).

        Statistics are the ``B = 1`` case of :func:`round_stats`.  The
        net per-round movement is half the total |change|: the exact
        shipped volume when no load passes *through* a node within a
        round, a lower bound otherwise.
        """
        arr = np.array(loads)  # a copy: it becomes next round's `prev`
        prev = self._last_loads
        partial = round_stats(arr[:, None], None if prev is None else prev[:, None],
                              want_disc=True, want_mov=prev is not None)
        phis, sums, disc, mov = combine_stats([partial], arr.shape[0])
        self._potentials.append(float(phis[0]))
        self._discrepancies.append(float(disc[0]))
        self._sums.append(float(sums[0]))
        if mov is not None:
            self._movements.append(float(mov[0]))
        self._last_loads = arr
        if self.keep_snapshots:
            self._snapshots.append(arr)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def rounds(self) -> int:
        """Number of balancing rounds recorded (excludes the initial state)."""
        return max(len(self._potentials) - 1, 0)

    @property
    def potentials(self) -> list[float]:
        """``Phi`` after 0, 1, 2, ... rounds."""
        return self._potentials

    @property
    def potential_array(self) -> np.ndarray:
        return np.asarray(self._potentials, dtype=np.float64)

    @property
    def discrepancies(self) -> list[float]:
        return self._discrepancies

    @property
    def initial_potential(self) -> float:
        if not self._potentials:
            raise ValueError("empty trace")
        return self._potentials[0]

    @property
    def last_potential(self) -> float:
        if not self._potentials:
            raise ValueError("empty trace")
        return self._potentials[-1]

    @property
    def last_discrepancy(self) -> float:
        if not self._discrepancies:
            raise ValueError("empty trace")
        return self._discrepancies[-1]

    @property
    def load_sums(self) -> np.ndarray:
        """Total load after each recorded state (conservation check)."""
        return np.asarray(self._sums, dtype=np.float64)

    @property
    def snapshots(self) -> list[np.ndarray]:
        if not self.keep_snapshots:
            raise ValueError("snapshots were not enabled for this trace")
        return self._snapshots

    @property
    def net_movements(self) -> np.ndarray:
        """Per-round net load movement (communication lower bound)."""
        return np.asarray(self._movements, dtype=np.float64)

    def total_net_movement(self) -> float:
        """Total tokens shipped over the run (net, lower bound)."""
        return float(self.net_movements.sum())

    # ------------------------------------------------------------------
    # Extraction
    # ------------------------------------------------------------------
    def rounds_to_potential(self, threshold: float) -> int | None:
        """First round index with ``Phi <= threshold`` (None if never)."""
        for r, phi in enumerate(self._potentials):
            if phi <= threshold:
                return r
        return None

    def rounds_to_fraction(self, eps: float) -> int | None:
        """First round with ``Phi <= eps * Phi_0`` (Theorem 4's T)."""
        return self.rounds_to_potential(eps * self.initial_potential)

    def rounds_to_discrepancy(self, threshold: float) -> int | None:
        """First round with discrepancy ``<= threshold``."""
        for r, d in enumerate(self._discrepancies):
            if d <= threshold:
                return r
        return None

    def drop_factors(self) -> np.ndarray:
        """Per-round ``Phi_t / Phi_{t-1}`` (1.0 recorded once Phi hits 0)."""
        pots = self.potential_array
        if pots.size < 2:
            return np.empty(0)
        prev, cur = pots[:-1], pots[1:]
        with np.errstate(divide="ignore", invalid="ignore"):
            ratios = np.where(prev > 0, cur / np.where(prev > 0, prev, 1.0), 1.0)
        return ratios

    def mean_drop_factor(self, skip_zero: bool = True) -> float:
        """Geometric-mean per-round contraction of the potential.

        Rounds where the potential was already ~0 are excluded when
        ``skip_zero`` (they carry no information about the rate).
        """
        ratios = self.drop_factors()
        if skip_zero:
            ratios = ratios[(ratios > 0) & (ratios < 1.0 + 1e-12)]
        if ratios.size == 0:
            return math.nan
        return float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300)))))

    def conservation_error(self) -> float:
        """Max absolute deviation of the load sum from its initial value."""
        sums = self.load_sums
        if sums.size == 0:
            return 0.0
        return float(np.max(np.abs(sums - sums[0])))

    def summary(self) -> dict[str, float | int | str]:
        """Compact dict used by reports."""
        return {
            "balancer": self.balancer_name,
            "rounds": self.rounds,
            "phi0": self.initial_potential,
            "phi_final": self.last_potential,
            "discrepancy_final": self.last_discrepancy,
            "mean_drop_factor": self.mean_drop_factor(),
            "stopped_by": self.stopped_by,
        }
