"""One statistics kernel: every engine records the same discrete Phi.

Discrete Phi and load sums are bit-for-bit equal across the serial
:class:`Simulator`, :class:`EnsembleSimulator` (batched at ``B = 1`` and
``B > 1``) and :class:`PartitionedSimulator` (in-process, and process
mode over mp-pipe and tcp), because all of them record
:func:`~repro.simulation.trace.round_stats` partials, which are exact
integers while ``Σl² < 2**53``.  Above that, the documented error bound
holds instead.
"""

from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from repro.core.diffusion import DiffusionBalancer
from repro.core.potential import potential
from repro.graphs.generators import torus_2d
from repro.simulation.engine import Simulator
from repro.simulation.ensemble import EnsembleSimulator, spawn_rngs
from repro.simulation.partitioned import PartitionedSimulator
from repro.simulation.stopping import MaxRounds
from repro.simulation.trace import combine_stats, round_stats

B = 3
ROUNDS = 25
TOPO = torus_2d(6, 6)
U = 2.0**-53


def _near_2_53(n: int, rng: np.random.Generator, above: bool) -> np.ndarray:
    """An int64 load vector whose Σl² lies within 2·max(l) of 2**53."""
    loads = rng.integers(0, isqrt(2**53 // n), n).astype(np.int64)
    rest = sum(int(x) ** 2 for x in loads[:-1])
    last = isqrt(2**53 - rest) + 1 if above else isqrt(2**53 - 1 - rest)
    loads[-1] = last
    total = rest + last * last
    assert (total > 2**53) if above else (total < 2**53)
    return loads


def _batch(kind: str) -> np.ndarray:
    rng = np.random.default_rng(17)
    if kind == "random":
        return rng.integers(0, 10_000, (B, TOPO.n)).astype(np.int64)
    return np.stack([_near_2_53(TOPO.n, rng, above=kind == "above-2^53") for _ in range(B)])


def _exact_phi(loads: np.ndarray) -> Fraction:
    vals = [int(x) for x in loads]
    return Fraction(sum(v * v for v in vals)) - Fraction(sum(vals) ** 2, len(vals))


def _bound(loads: np.ndarray) -> float:
    """The documented outside-the-exact-regime bound, (3n + 3)·2**-53·Σl²."""
    ss = sum(int(x) ** 2 for x in loads)
    return (3 * loads.size + 3) * U * ss


def _make():
    return DiffusionBalancer(TOPO, mode="discrete")


def _per_replica(run_one, batch):
    """Stack one-replica runs into ``(T + 1, B)`` potentials and sums."""
    phis, sums = [], []
    for b in range(B):
        p, s = run_one(batch[b], spawn_rngs(0, B)[b])
        phis.append(p)
        sums.append(s)
    return np.stack(phis, axis=1), np.stack(sums, axis=1)


def _serial(batch):
    def one(loads, rng):
        t = Simulator(_make(), stopping=[MaxRounds(ROUNDS)]).run(loads, rng)
        return t.potential_array, t.load_sums
    return _per_replica(one, batch)


def _ensemble_b1(batch):
    def one(loads, rng):
        t = EnsembleSimulator(
            _make(), stopping=[MaxRounds(ROUNDS)], serial_singleton=False
        ).run(loads, seed=[rng])
        return t.potentials_matrix[:, 0], t.load_sums_matrix[:, 0]
    return _per_replica(one, batch)


def _ensemble(batch):
    t = EnsembleSimulator(_make(), stopping=[MaxRounds(ROUNDS)]).run(batch, seed=0)
    return t.potentials_matrix, t.load_sums_matrix


def _partitioned(mode, transport="mp-pipe"):
    def run(batch):
        t = PartitionedSimulator(
            _make(), partitions=3, stopping=[MaxRounds(ROUNDS)], mode=mode,
            transport=transport,
        ).run(batch)
        return t.potentials_matrix, t.load_sums_matrix
    return run


ENGINES = {
    "serial": _serial,
    "ensemble-B1": _ensemble_b1,
    "ensemble-B3": _ensemble,
    "partitioned-inprocess": _partitioned("inprocess"),
    "process-mp-pipe": _partitioned("process", "mp-pipe"),
    "process-tcp": _partitioned("process", "tcp"),
}


@pytest.mark.parametrize("kind", ["random", "below-2^53"])
@pytest.mark.parametrize("engine", list(ENGINES))
def test_discrete_phi_and_sums_bit_equal(engine, kind):
    batch = _batch(kind)
    ref_phi, ref_sums = _ensemble(batch.copy())
    phi, sums = ENGINES[engine](batch.copy())
    assert phi.shape == ref_phi.shape == (ROUNDS + 1, B)
    assert np.array_equal(phi, ref_phi), engine
    assert np.array_equal(sums, ref_sums), engine


def test_below_2_53_partials_exact():
    batch = _batch("below-2^53")
    sums, squares, _, _ = round_stats(batch.T.copy())
    for b in range(B):
        assert int(sums[b]) == sum(int(x) for x in batch[b])
        assert int(squares[b]) == sum(int(x) ** 2 for x in batch[b])
        phi = combine_stats([round_stats(batch[b][:, None])], TOPO.n)[0][0]
        assert abs(Fraction(phi) - _exact_phi(batch[b])) <= 3 * U * int(squares[b])


def test_above_2_53_within_documented_bound():
    batch = _batch("above-2^53")
    serial = [
        Simulator(_make(), stopping=[MaxRounds(ROUNDS)], keep_snapshots=True).run(batch[b], 0)
        for b in range(B)
    ]
    ens_phi, _ = _ensemble(batch.copy())
    part_phi, _ = _partitioned("inprocess")(batch.copy())
    for b, t in enumerate(serial):
        for r, snap in enumerate(t.snapshots):
            exact, bound = _exact_phi(snap), _bound(snap)
            for phi in (t.potentials[r], ens_phi[r, b], part_phi[r, b]):
                assert abs(Fraction(phi) - exact) <= bound, (b, r)


@pytest.mark.parametrize("discrete", [False, True])
def test_matches_centered_reference(discrete):
    """The shared kernel agrees with :func:`core.potential.potential`, the
    centered reference, within the documented bound."""
    rng = np.random.default_rng(5)
    for n in (2, 7, 64, 1000):
        if discrete:
            v = rng.integers(-10_000, 10_000, n).astype(np.int64)
        else:
            v = rng.uniform(-1e4, 1e4, n) + 1e5
        phis, sums, disc, _ = combine_stats([round_stats(v[:, None], want_disc=True)], n)
        bound = (3 * n + 3) * U * float(np.dot(v.astype(np.float64), v))
        assert abs(phis[0] - potential(v)) <= 2 * bound
        assert disc[0] == v.max() - v.min()
        if discrete:
            assert sums[0] == v.sum()
