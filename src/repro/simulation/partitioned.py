"""Node-axis partitioned execution: P block subproblems + halo exchange.

The replica axis shards embarrassingly (:mod:`repro.simulation.sharding`);
one *giant graph* does not — its state vector couples along every edge.
This module splits a topology into ``P`` node blocks
(:class:`~repro.graphs.partition.Partition`) and advances each block as a
local subproblem over its **extended** load matrix: the block's owned
rows first, then ghost rows holding the halo-refreshed values of
out-of-block neighbours.  Per round, only boundary loads cross block
borders — the communication pattern of a real per-rank deployment — yet
the produced trajectories are **bit-for-bit identical** to the global
engines.

Why exactness is structural, not approximate
--------------------------------------------
Every supported round (continuous Algorithm 1, FOS/Richardson, discrete
Algorithm 1) is *row-local*: global node ``i``'s next value depends only
on ``i``'s row of a cached sparse operator and the current values of
``i`` and its neighbours.  A :class:`BlockLocal` therefore **row-slices**
the per-topology cached operators of
:class:`~repro.core.operators.EdgeOperator` — same ``data`` values, same
stored-entry order, columns merely renumbered into the block's extended
index space — and runs them through the *same*
:class:`~repro.core.backends.KernelBackend` kernels (numpy / scipy /
numba per block).  A CSR row's entries accumulate in stored order on
every backend, so the block's fold for node ``i`` is the global fold
bit for bit; the discrete round computes exact integers (float64 below
``RECIP_DIV_LIMIT``, int64 above it) on per-edge quantities from the
same endpoint values, through row slices of the same gather and
incidence matrices.  The property tests
assert this for P ∈ {2, 4, 7}, both partition strategies, and
dynamic-edge-failure topologies whose cut set changes between rounds.

Execution modes
---------------
``mode="inprocess"``
    One process, a vectorized loop over blocks.  Ghost values are
    gathered straight from the previous round's global matrix (the halo
    refresh), and statistics are recorded from the assembled matrix, so
    the trace is *indistinguishable* from an
    :class:`~repro.simulation.ensemble.EnsembleSimulator` run — derived
    statistics included.  The semantics/debugging reference.
``mode="process"``
    ``P`` persistent worker processes, one block each, exchanging halos
    **peer-to-peer** through :mod:`repro.distributed.transport` channels
    (``transport="mp-pipe"`` socketpairs by default, or ``"tcp"`` sockets —
    the same wire the multi-host dispatcher uses; deadlock-free pairwise
    protocol: the lower-id block of each pair sends first).  Workers
    hold an ``(n_block, B)`` slab — the node axis composes with the
    replica axis — and return per-round statistic *partials* (sums,
    squared sums, extrema, movement) that the coordinator combines, so
    the full matrix never exists in one process between gathers.  When
    the stopping rules are pure round caps the coordinator grants the
    whole remaining budget in one command and workers free-run with
    peer-only communication.  Load trajectories are bit-for-bit equal to
    the global engines; *derived* statistics may differ in the last
    float ulp (block-partial summation order), the same caveat the
    replica-sharded path documents.

The coordinator half of process mode is factored behind a small *block
executor* seam (``run_chunk`` / ``gather`` / ``close``):
:class:`_LocalProcessExecutor` drives forked per-block processes on this
host, and :mod:`repro.distributed.dispatcher` plugs a remote executor
into the **same** :meth:`PartitionedSimulator.run_with_executor` loop to
span hosts — one statistics combine, one stopping policy, any transport.
"""

from __future__ import annotations

import multiprocessing as mp
import os
from time import perf_counter
from typing import Sequence

import numpy as np

from repro.core.backends import PlainCSR, resolve_backend
from repro.observability.recorder import get_recorder
from repro.core.operators import (
    EdgeOperator,
    FlatReciprocals,
    edge_operator,
    staged_discrete_round,
)
from repro.core.protocols import Balancer
from repro.distributed.transport import TransportError, make_pair
from repro.distributed.worker import run_block_loop
from repro.graphs.partition import HaloLink, Partition, make_partition, parse_partitions
from repro.simulation.ensemble import (
    EnsembleTrace,
    apply_stopping,
    audit_replica_sums,
    initial_batch,
)
from repro.simulation.stopping import DiscrepancyBelow, MaxRounds, StoppingRule

__all__ = ["BlockLocal", "PartitionedSimulator", "block_local"]

_LOCALS_ATTR = "_block_locals"

#: transports a local process-mode run can put under its halo links
#: (loopback queues cannot cross a process boundary).
PROCESS_TRANSPORTS = ("mp-pipe", "tcp")

_TRUTHY = ("1", "true", "yes", "on")


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "").strip().lower() in _TRUTHY


def _slice_csr_rows(
    csr: PlainCSR, rows: np.ndarray, col_map: np.ndarray, ncols: int, idx_dtype
) -> PlainCSR:
    """The row slice ``csr[rows]`` with columns renumbered by ``col_map``.

    Stored entries keep their order and their exact ``data`` values —
    the bitwise-parity guarantee rests on this being a pure relabeling.
    """
    starts = csr.indptr[rows].astype(np.int64)
    counts = csr.indptr[rows + 1].astype(np.int64) - starts
    indptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    pos = np.repeat(starts - indptr[:-1], counts) + np.arange(total, dtype=np.int64)
    indices = col_map[csr.indices[pos]]
    if indices.size and indices.min() < 0:
        raise AssertionError("row slice references a column outside the block's map")
    out = PlainCSR(
        indptr.astype(idx_dtype),
        indices.astype(idx_dtype),
        np.ascontiguousarray(csr.data[pos]),
        (rows.size, ncols),
    )
    out.indptr.setflags(write=False)
    out.indices.setflags(write=False)
    return out


class BlockLocal:
    """One block's local subproblem: operator row slices + halo metadata.

    The extended index space is ``[owned nodes | ghost nodes]``: owned
    nodes sorted by global id, then ghost nodes **grouped by owning
    peer** (ascending peer id, ascending global id within each group).
    The grouping makes every halo link's receive region a contiguous
    slice of the ghost segment — :attr:`recv_slices` — so the runtime
    can land incoming halo frames directly into a persistent extended
    slab with no scatter.  Round kernels map an ``(n_ext, B)`` extended
    load matrix to the block's next ``(n_owned, B)`` owned loads through
    this block's rows of the global cached operators, executed by the
    configured kernel backend.

    Split-phase support: :attr:`interior` / :attr:`boundary` hold the
    owned-row positions whose operator support is owned-only vs
    ghost-touching, and every round kernel takes ``rows`` to compute
    just one subset (same per-row folds, so subset results are
    bit-for-bit the full round's rows).
    """

    def __init__(self, part: Partition, block_id: int, backend: str | None = None):
        if not 0 <= block_id < part.blocks:
            raise ValueError(f"block {block_id} out of range for {part.blocks} blocks")
        self.p = int(block_id)
        self.op: EdgeOperator = edge_operator(part.topo, backend)
        op = self.op
        self.owned = part.owned[self.p]
        self.n_owned = int(self.owned.size)
        ghosts_sorted = part.ghosts[self.p]
        # Group ghosts by owning peer (stable, so ascending global id
        # within each group — the peer's send order).  Each link's recv
        # region becomes one contiguous slice of the ghost segment.
        owners = part.assignment[ghosts_sorted]
        gorder = np.argsort(owners, kind="stable")
        self.ghosts = ghosts_sorted[gorder]
        self.n_ghost = int(self.ghosts.size)
        self.n_ext = self.n_owned + self.n_ghost
        #: per-peer contiguous recv regions of the ghost segment:
        #: ``{peer: (start, stop)}`` as positions into the ghost array.
        self.recv_slices: dict[int, tuple[int, int]] = {}
        bounds = np.searchsorted(owners[gorder], np.arange(part.blocks + 1))
        links: list[HaloLink] = []
        for link in part.halo_links[self.p]:
            a, b = int(bounds[link.peer]), int(bounds[link.peer + 1])
            self.recv_slices[link.peer] = (a, b)
            links.append(
                HaloLink(
                    peer=link.peer,
                    send_idx=link.send_idx,
                    recv_idx=np.arange(a, b, dtype=np.int64),
                )
            )
        self.links = links
        #: owned-row positions computable before any halo arrives / not
        self.interior = part.interior_owned[self.p]
        self.boundary = part.boundary_owned[self.p]
        #: global ids of the extended index space (owned then ghosts)
        self.ext_ids = np.concatenate([self.owned, self.ghosts])
        colmap = np.full(part.topo.n, -1, dtype=np.int64)
        colmap[self.ext_ids] = np.arange(self.n_ext, dtype=np.int64)
        self._colmap = colmap
        # Edges with at least one owned endpoint, ascending global edge
        # id — the sub-list ordering that keeps every per-node fold in
        # the global stored order.  Cut-edge flows are computed on both
        # sides (each side needs them for its own endpoint): redundant
        # arithmetic instead of a second communication phase.
        a = part.assignment
        emask = (a[op.u] == self.p) | (a[op.v] == self.p)
        self.edge_ids = np.flatnonzero(emask)
        self.u_loc = colmap[op.u[self.edge_ids]]
        self.v_loc = colmap[op.v[self.edge_ids]]
        self.denominators_int = np.ascontiguousarray(op.denominators_int[self.edge_ids])
        self.denominators_recip = np.ascontiguousarray(op.denominators_recip[self.edge_ids])
        self._round_rows: PlainCSR | None = None
        self._fos_rows: dict[float, PlainCSR] = {}
        self._scratch: dict[tuple, np.ndarray] = {}
        # Split-phase caches: per row-subset operator slices (lazy).
        self._sub_matvec: dict[tuple, PlainCSR] = {}
        self._sub_discrete: dict[str | None, tuple] = {}
        self._sub_discrete_csrs: dict[tuple, tuple[PlainCSR, PlainCSR]] = {}

    def _get_scratch(self, key: str, shape: tuple, dtype) -> np.ndarray:
        full = (key, shape, np.dtype(dtype).char)
        buf = self._scratch.get(full)
        if buf is None:
            buf = self._scratch[full] = np.empty(shape, dtype=dtype)
        return buf

    # ------------------------------------------------------------------
    # Row-sliced operators (lazy; cached for the block's lifetime)
    # ------------------------------------------------------------------
    def round_rows(self) -> PlainCSR:
        """This block's rows of Algorithm 1's continuous round matrix."""
        if self._round_rows is None:
            self._round_rows = _slice_csr_rows(
                self.op.round_csr(), self.owned, self._colmap, self.n_ext, self.op.idx_dtype
            )
        return self._round_rows

    def fos_rows(self, alpha: float) -> PlainCSR:
        """This block's rows of ``I - alpha L`` (cached per ``alpha``)."""
        key = float(alpha)
        M = self._fos_rows.get(key)
        if M is None:
            M = self._fos_rows[key] = _slice_csr_rows(
                self.op.fos_csr(key), self.owned, self._colmap, self.n_ext, self.op.idx_dtype
            )
        return M

    # ------------------------------------------------------------------
    # Row-subset plumbing (split-phase interior/boundary execution)
    # ------------------------------------------------------------------
    def _rows_positions(self, rows: str | None) -> np.ndarray | None:
        if rows is None:
            return None
        if rows == "interior":
            return self.interior
        if rows == "boundary":
            return self.boundary
        raise ValueError(f"rows must be None, 'interior' or 'boundary', got {rows!r}")

    @staticmethod
    def _contiguous_range(pos: np.ndarray) -> tuple[int, int] | None:
        """``(a, b)`` when ``pos`` is exactly ``a..b-1``, else ``None``."""
        if pos.size == 0:
            return (0, 0)
        a, b = int(pos[0]), int(pos[-1]) + 1
        return (a, b) if b - a == pos.size else None

    def _subset_matvec_csr(self, kind: str, rows: str, alpha: float | None = None) -> PlainCSR:
        """Row slice of a round matrix restricted to one owned-row subset.

        Sliced from the *global* cached operator with the same column
        map, so stored order and data are those of the full block slice
        — subset folds are bitwise the full round's rows.
        """
        key = (kind, rows, alpha)
        M = self._sub_matvec.get(key)
        if M is None:
            src = self.op.round_csr() if kind == "round" else self.op.fos_csr(float(alpha))
            pos = self._rows_positions(rows)
            M = self._sub_matvec[key] = _slice_csr_rows(
                src, self.owned[pos], self._colmap, self.n_ext, self.op.idx_dtype
            )
        return M

    def _matvec_subset(self, M: PlainCSR, ext: np.ndarray, out: np.ndarray, rows: str) -> np.ndarray:
        """``out[subset] = M @ ext`` with a zero-copy contiguous fast path."""
        pos = self._rows_positions(rows)
        rng = self._contiguous_range(pos)
        if rng is not None:
            a, b = rng
            self.op.kernels.matvec(M, ext, out[a:b])
        else:
            buf = self._get_scratch("mv_" + rows, (pos.size,) + ext.shape[1:], out.dtype)
            self.op.kernels.matvec(M, ext, buf)
            out[pos] = buf
        return out

    def _discrete_subset(self, rows: str | None) -> tuple:
        """What one owned-row subset's discrete round reads (None: all owned).

        Returns ``(reads, dest, epos, recip, den_int)``.  ``reads`` is
        ``None`` for the whole block — the round reads ``ext`` itself,
        whose prefix is the owned rows — and otherwise the extended rows
        a subset reads, gathered compactly: its own rows first, then the
        other endpoints of its incident edges.  Either way the rows the
        flows land on are the first rows read; ``dest`` places them in
        the owned rows.  ``epos`` holds the incident edges' positions in
        :attr:`edge_ids` (ascending global edge id, the full fold order),
        with their biased reciprocals (a :class:`FlatReciprocals`, which
        caches the subset's repeated multiplier on this block) and int64
        denominators.  The interior subset's edges have owned-only endpoints, so its reads
        never reach the ghost segment — which is what lets the interior
        phase run on stale ghost values.
        """
        cached = self._sub_discrete.get(rows)
        if cached is None:
            if rows is None:
                reads, dest = None, slice(None)
                epos = np.arange(self.edge_ids.size)
            else:
                pos = dest = self._rows_positions(rows)
                member = np.zeros(self.n_ext, dtype=bool)
                member[pos] = True
                epos = np.flatnonzero(member[self.u_loc] | member[self.v_loc])
                ends = np.union1d(self.u_loc[epos], self.v_loc[epos])
                reads = np.concatenate([pos, np.setdiff1d(ends, pos, assume_unique=True)])
            cached = self._sub_discrete[rows] = (
                reads,
                dest,
                epos,
                FlatReciprocals(np.ascontiguousarray(self.denominators_recip[epos])),
                np.ascontiguousarray(self.denominators_int[epos]),
            )
        return cached

    def _discrete_csrs(self, rows: str | None, dtype) -> tuple[PlainCSR, PlainCSR]:
        """The subset's rows of the global gather and incidence matrices.

        Gather rows are the subset's edges with columns relabelled to
        positions among the read rows; incidence rows are the subset's
        owned rows with columns relabelled to subset-edge positions.
        Pure relabelings of the global matrices, so stored order and
        values are the global ones.
        """
        key = (rows, np.dtype(dtype).char)
        pair = self._sub_discrete_csrs.get(key)
        if pair is None:
            reads, dest, epos, _, _ = self._discrete_subset(rows)
            cols = np.arange(self.n_ext) if reads is None else reads
            read_pos = np.full(self.n_ext + 1, -1, dtype=np.int64)  # [-1] catches unmapped
            read_pos[cols] = np.arange(cols.size, dtype=np.int64)
            eids = self.edge_ids[epos]
            ecolmap = np.full(self.op.m, -1, dtype=np.int64)
            ecolmap[eids] = np.arange(epos.size, dtype=np.int64)
            idx = self.op.idx_dtype
            pair = self._sub_discrete_csrs[key] = (
                _slice_csr_rows(self.op.gather_csr(dtype), eids, read_pos[self._colmap],
                                cols.size, idx),
                _slice_csr_rows(self.op.incidence_csr(dtype), self.owned[dest], ecolmap,
                                epos.size, idx),
            )
        return pair

    # ------------------------------------------------------------------
    # Round kernels (extended loads in, owned loads out)
    # ------------------------------------------------------------------
    def _out(self, ext: np.ndarray, out: np.ndarray | None, dtype=None) -> np.ndarray:
        if out is None:
            out = np.empty((self.n_owned,) + ext.shape[1:], dtype=dtype or ext.dtype)
        return out

    def round_continuous(
        self, ext: np.ndarray, out: np.ndarray | None = None, rows: str | None = None
    ) -> np.ndarray:
        """One continuous Algorithm-1 round on this block (or one subset)."""
        out = self._out(ext, out)
        if rows is None:
            return self.op.kernels.matvec(self.round_rows(), ext, out)
        return self._matvec_subset(self._subset_matvec_csr("round", rows), ext, out, rows)

    def fos_round(
        self,
        alpha: float,
        ext: np.ndarray,
        out: np.ndarray | None = None,
        rows: str | None = None,
    ) -> np.ndarray:
        """One FOS/Richardson round ``(I - alpha L) @ loads`` on this block."""
        out = self._out(ext, out)
        if rows is None:
            return self.op.kernels.matvec(self.fos_rows(alpha), ext, out)
        return self._matvec_subset(
            self._subset_matvec_csr("fos", rows, float(alpha)), ext, out, rows
        )

    def round_discrete(
        self, ext: np.ndarray, out: np.ndarray | None = None, rows: str | None = None
    ) -> np.ndarray:
        """One discrete Algorithm-1 round on this block (int64, exact).

        The global kernel's :func:`~repro.core.operators.staged_discrete_round`
        over the block's incident edges, through row slices of the
        global gather and incidence matrices, so the owned results equal
        the global round's rows exactly.  With ``rows``, only the
        subset's incident edges and incidence rows participate, and the
        round reads — and takes its magnitude bound (which merely
        *selects* between two exact arithmetic paths) over — only the
        rows those edges touch: for the interior subset, owned rows
        alone, never a ghost value.
        """
        reads, dest, _, recip, den_int = self._discrete_subset(rows)
        if reads is None:
            src = ext
        else:
            buf = self._get_scratch("disc-reads", reads.shape + ext.shape[1:], ext.dtype)
            src = np.take(ext, reads, axis=0, out=buf)
        bound = int(src.max(initial=0)) - min(int(src.min(initial=0)), 0)
        new = staged_discrete_round(
            self.op.kernels,
            lambda dtype: self._discrete_csrs(rows, dtype),
            recip,
            den_int,
            src,
            bound,
            self._get_scratch,
        )
        out = self._out(ext, out, dtype=np.int64)
        out[dest] = new  # exact integers: the truncating cast is exact
        return out


def block_local(part: Partition, block_id: int, backend: str | None = None) -> BlockLocal:
    """The cached :class:`BlockLocal` for one block of ``part``.

    Cached on the partition instance (which is itself cached on the
    immutable topology), one per kernel backend — dynamic networks that
    cycle through a fixed set of graphs build each block's slices once
    per distinct graph.
    """
    cache = part.__dict__.get(_LOCALS_ATTR)
    if cache is None:
        cache = part.__dict__[_LOCALS_ATTR] = {}
    key = (int(block_id), resolve_backend(backend))
    loc = cache.get(key)
    if loc is None:
        loc = cache[key] = BlockLocal(part, block_id, backend)
    return loc


class _PartitionMemo:
    """Per-run partition lookups without re-hashing the assignment bytes.

    ``Partition.for_topology`` keys its per-topology cache by the
    assignment's raw bytes — correct, but an O(n) hash per lookup, paid
    every round by the hot loop.  This memo shortcuts repeat lookups for
    the same topology *instance* (the static and phase-cycling cases) by
    identity; each entry pins its topology so the ``id`` stays valid.
    Bounded: dynamic models that mint a fresh topology per round would
    otherwise grow it — and keep every round's graph alive — forever.
    """

    MAX_ENTRIES = 64

    def __init__(self, assignment: np.ndarray, strategy: str):
        self.assignment = assignment
        self.strategy = strategy
        self._memo: dict[int, tuple] = {}

    def get(self, topo) -> Partition:
        hit = self._memo.get(id(topo))
        if hit is not None and hit[0] is topo:
            return hit[1]
        part = Partition.for_topology(topo, self.assignment, strategy=self.strategy)
        if len(self._memo) >= self.MAX_ENTRIES:
            self._memo.clear()
        self._memo[id(topo)] = (topo, part)
        return part


# ----------------------------------------------------------------------
# Worker-side statistics partials
# ----------------------------------------------------------------------
def _partial_stats(
    new: np.ndarray, prev: np.ndarray, want_disc: bool, want_mov: bool
) -> tuple:
    """One block's per-replica contributions to the round's statistics."""
    if np.issubdtype(new.dtype, np.integer):
        sums = np.einsum("ij->j", new)  # exact int64, faster than sum(axis=0)
    else:
        sums = np.ones(new.shape[0]) @ new
    ss = np.einsum("ij,ij->j", new, new, dtype=np.float64)
    disc = (new.max(axis=0), new.min(axis=0)) if want_disc else None
    mov = 0.5 * np.abs(new - prev).sum(axis=0).astype(np.float64) if want_mov else None
    return sums, ss, disc, mov


def _combine_stats(partials: list[tuple], n: int) -> tuple:
    """Combine per-block partials into one global statistics row."""
    sums = np.sum([p[0] for p in partials], axis=0).astype(np.float64)
    ss = np.sum([p[1] for p in partials], axis=0)
    phis = np.maximum(ss - sums * (sums / n), 0.0)
    disc = None
    if partials[0][2] is not None:
        hi = np.max([p[2][0] for p in partials], axis=0)
        lo = np.min([p[2][1] for p in partials], axis=0)
        disc = (hi - lo).astype(np.float64)
    mov = None
    if partials[0][3] is not None:
        mov = np.sum([p[3] for p in partials], axis=0)
    return phis, sums, disc, mov


# ----------------------------------------------------------------------
# Local process-mode block executor
# ----------------------------------------------------------------------
class _LocalProcessExecutor:
    """``P`` forked per-block processes linked by transport channels.

    The local implementation of the block-executor seam (``run_chunk`` /
    ``gather`` / ``close``) that :meth:`PartitionedSimulator.run_with_executor`
    drives — the remote implementation lives in
    :mod:`repro.distributed.dispatcher`.  Each worker process runs
    :func:`repro.distributed.worker.run_block_loop` with a control
    channel back to the coordinator and a full mesh of peer channels for
    the halo exchange, all built by
    :func:`repro.distributed.transport.make_pair` for the configured
    transport (``mp-pipe`` socketpairs, or ``tcp`` sockets over
    localhost — the same wire a multi-host run uses).
    """

    def __init__(self, sim: "PartitionedSimulator", L: np.ndarray, B: int,
                 assignment: np.ndarray):
        self.B = B
        self.n = L.shape[0]
        P = int(assignment.max()) + 1
        self.owned = [np.flatnonzero(assignment == p) for p in range(P)]
        want_disc = sim._record_disc()
        want_mov = sim.record == "full"
        self._telemetry = get_recorder().enabled

        # Pre-build the partition and every block's operator slices in
        # the parent: under the fork start method the workers inherit the
        # warmed caches copy-on-write instead of each rebuilding them
        # (at n=65536 the build costs more than hundreds of rounds).
        resolved = resolve_backend(sim.backend)
        part0 = Partition.for_topology(
            sim.balancer.partition_topology(0), assignment, strategy=sim.strategy
        )
        for p in range(P):
            block_local(part0, p, resolved)
        # Both socket transports pickle into a spawned child as their
        # socket, so fork is preferred (warm caches) but not required.
        ctx = mp.get_context("fork" if "fork" in mp.get_all_start_methods() else None)

        ctrl = [make_pair(sim.transport) for _ in range(P)]
        mesh: dict[tuple[int, int], tuple] = {}
        for p in range(P):
            for q in range(p + 1, P):
                mesh[(p, q)] = make_pair(sim.transport)
        forked = ctx.get_start_method() == "fork"
        all_ends = [end for pair in ctrl for end in pair]
        all_ends += [end for pair in mesh.values() for end in pair]
        self.procs = []
        worker_ends: list[list] = []
        for p in range(P):
            peers = {}
            for q in range(P):
                if q == p:
                    continue
                a, b = min(p, q), max(p, q)
                peers[q] = mesh[(a, b)][0 if p == a else 1]
            payload = (
                sim.balancer,
                assignment,
                sim.strategy,
                p,
                L[self.owned[p]],
                sim.backend,
                want_disc,
                want_mov,
                sim.overlap,
                sim.delta_frames,
                # Explicit start round (protocol 4): local runs always
                # begin at 0; the remote dispatcher ships checkpoint
                # rounds here so replayed blocks continue the counter.
                0,
                # Telemetry flag (optional 12th field): workers record
                # per-phase spans and ship them back in the chunk reply.
                self._telemetry,
            )
            mine = [ctrl[p][1], *peers.values()]
            worker_ends.append(mine)
            # Forked workers inherit every endpoint; handing each the
            # complement of its own lets it drop the copies at startup,
            # so a crashed worker surfaces as EOF on its links instead
            # of a silent coordinator/peer hang.  Spawned workers only
            # receive what is pickled to them — nothing to drop.
            inherited = (
                [end for end in all_ends if not any(end is m for m in mine)]
                if forked
                else None
            )
            self.procs.append(
                ctx.Process(
                    target=run_block_loop,
                    args=(ctrl[p][1], peers, payload),
                    kwargs={"inherited": inherited},
                    daemon=True,
                )
            )
        for proc in self.procs:
            proc.start()
        # The coordinator's own copies of the worker-side endpoints.
        for mine in worker_ends:
            for end in mine:
                end.detach()
        self.conns = [c for c, _ in ctrl]
        self._mesh = mesh

    def _ask_all(self, msg) -> list:
        for c in self.conns:
            c.send(msg)
        replies = []
        for p, c in enumerate(self.conns):
            try:
                rep = c.recv()
            except TransportError as exc:
                raise RuntimeError(f"partition worker {p} died: {exc}") from exc
            if rep[0] == "error":
                raise RuntimeError(f"partition worker failed: {rep[1]}")
            replies.append(rep)
        return replies

    # -- executor interface -------------------------------------------
    def run_chunk(self, chunk: int, frozen) -> tuple[list[list], int, dict[str, int]]:
        replies = self._ask_all(("run", chunk, frozen))
        per_round = [[rep[1][i] for rep in replies] for i in range(chunk)]
        halo_values = sum(rep[2] for rep in replies)
        link_bytes = {
            f"{p}->{q}": nbytes
            for p, rep in enumerate(replies)
            for q, nbytes in rep[3].items()
        }
        if self._telemetry:
            rec = get_recorder()
            for p, rep in enumerate(replies):
                if len(rep) > 4 and rep[4]:
                    rec.ingest(rep[4], worker=f"local:{p}")
        return per_round, halo_values, link_bytes

    def gather(self) -> np.ndarray:
        """Assemble the replica-major ``(B, n)`` matrix from worker slabs."""
        replies = self._ask_all(("gather",))
        full = np.empty((self.B, self.n), dtype=replies[0][1].dtype)
        for ids, rep in zip(self.owned, replies):
            full[:, ids] = rep[1].T
        return full

    def close(self) -> None:
        for c in self.conns:
            try:
                c.send(("stop",))
            except TransportError:
                pass
        for proc in self.procs:
            proc.join(timeout=10)
            if proc.is_alive():  # pragma: no cover - defensive
                proc.terminate()
        for c in self.conns:
            c.close()
        for a, b in self._mesh.values():
            a.close()
            b.close()


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
class PartitionedSimulator:
    """Run a partition-capable balancer as ``P`` halo-exchanging blocks.

    Parameters
    ----------
    balancer:
        Any :class:`Balancer` with ``supports_partition`` (diffusion in
        both modes — dynamic networks included — and continuous FOS).
    partitions:
        Block count, or a ``"P[:strategy]"`` spec
        (:func:`~repro.graphs.partition.parse_partitions`).
    strategy:
        Partition strategy when ``partitions`` is a bare count
        (``"contiguous"`` or ``"bfs"``).
    assignment:
        Explicit node→block vector overriding the strategy (the node set
        must match the balancer's topology).
    mode:
        ``"inprocess"`` (vectorized loop over blocks, exact statistics)
        or ``"process"`` (persistent workers + transport halo exchange;
        see the module docstring).  ``"process"`` with one block
        degrades to the in-process path.
    transport:
        Channel backend under process mode's halo links and control
        plane: ``"mp-pipe"`` (default) or ``"tcp"`` (localhost sockets —
        the exact wire a multi-host dispatch uses, so TCP parity on one
        host certifies the distributed protocol).  For HPC clusters the
        same block loop runs rank-per-block over MPI channels — see
        :mod:`repro.distributed.mpi`.  Trajectories are bit-for-bit
        identical across transports.
    stopping / record / keep_snapshots / check_conservation / cons_tol /
    backend:
        As :class:`~repro.simulation.ensemble.EnsembleSimulator`.

    After :meth:`run`, :attr:`halo_stats` reports the communication the
    run actually paid: rounds executed, halo values exchanged (ghost
    values received per round, summed), bytes per directed link
    (``"p->q"``; process mode only — in-process ghost gathers move no
    bytes), and the partition's quality metrics.  Link bytes are
    *logical frame* bytes — length prefix + header + metadata + raw
    buffer payload of the transport-independent encoding — so totals
    are identical on every channel backend and comparable across wires.
    """

    DEFAULT_MAX_ROUNDS = 1_000_000

    def __init__(
        self,
        balancer: Balancer,
        partitions: int | str = 2,
        strategy: str = "contiguous",
        assignment: np.ndarray | None = None,
        stopping: Sequence[StoppingRule] | None = None,
        record: str = "auto",
        keep_snapshots: bool = False,
        check_conservation: bool = True,
        cons_tol: float = 1e-6,
        mode: str = "inprocess",
        backend: str | None = None,
        transport: str = "mp-pipe",
        overlap: bool | None = None,
        delta_frames: bool | None = None,
    ) -> None:
        if not getattr(balancer, "supports_partition", False):
            raise TypeError(
                f"{balancer.name} has no partitioned kernel; partitioned execution "
                "supports diffusion (continuous/discrete, dynamic included) and "
                "continuous FOS"
            )
        if record not in ("auto", "light", "full"):
            raise ValueError(f"record must be 'auto', 'light' or 'full', got {record!r}")
        if mode not in ("inprocess", "process"):
            raise ValueError(f"mode must be 'inprocess' or 'process', got {mode!r}")
        if transport not in PROCESS_TRANSPORTS:
            raise ValueError(
                f"transport must be one of {PROCESS_TRANSPORTS}, got {transport!r} "
                "(loopback channels cannot cross a process boundary)"
            )
        blocks, spec_strategy = parse_partitions(partitions)
        if isinstance(partitions, str) and ":" in partitions:
            strategy = spec_strategy
        self.balancer = balancer
        if backend is not None:
            self.balancer.backend = backend
        # An explicit engine backend pins the balancer; otherwise honour a
        # backend already pinned *on* the balancer (e.g. CLI --backend) so
        # the block kernels run what the caller selected, not the ambient
        # default.
        self.backend = backend if backend is not None else getattr(balancer, "backend", None)
        self.partitions = blocks
        self.strategy = strategy
        self._assignment = None if assignment is None else np.asarray(assignment, dtype=np.int64)
        rules = list(stopping) if stopping else []
        if not any(isinstance(r, MaxRounds) for r in rules):
            rules.append(MaxRounds(self.DEFAULT_MAX_ROUNDS))
        self.stopping = rules
        self.record = record
        self.keep_snapshots = keep_snapshots
        self.check_conservation = check_conservation
        self.cons_tol = cons_tol
        self.mode = mode
        self.transport = transport
        #: split-phase rounds: post sends -> compute interior -> drain
        #: recvs -> compute boundary (process mode only; bit-for-bit
        #: identical to the synchronous exchange).  ``None`` reads the
        #: ``REPRO_OVERLAP`` env toggle.
        self.overlap = _env_flag("REPRO_OVERLAP") if overlap is None else bool(overlap)
        #: delta-compressed halo frames: send only changed ghost rows
        #: (dense fallback when not smaller).  ``None`` reads
        #: ``REPRO_DELTA``.
        self.delta_frames = (
            _env_flag("REPRO_DELTA") if delta_frames is None else bool(delta_frames)
        )
        #: communication accounting of the most recent run
        self.halo_stats: dict = {}

    # ------------------------------------------------------------------
    def _record_disc(self) -> bool:
        return self.record == "full" or (
            self.record == "auto" and any(isinstance(r, DiscrepancyBelow) for r in self.stopping)
        )

    def _resolve_assignment(self, n: int) -> np.ndarray:
        topo0 = self.balancer.partition_topology(0)
        if topo0.n != n:
            raise ValueError(f"topology has {topo0.n} nodes but loads has {n}")
        if self._assignment is not None:
            if self._assignment.shape != (n,):
                raise ValueError(
                    f"assignment must have shape ({n},), got {self._assignment.shape}"
                )
            return self._assignment
        # make_partition caches strategy assignments on the topology, so
        # repeat runs (and fresh simulators on the same graph) reuse the
        # first computation.
        return make_partition(topo0, self.partitions, self.strategy).assignment

    def _init_halo_stats(self, assignment: np.ndarray, mode: str) -> None:
        self.halo_stats = {
            "mode": mode,
            "transport": self.transport if mode == "process" else None,
            "blocks": int(assignment.max()) + 1,
            "strategy": self.strategy,
            "overlap": self.overlap if mode == "process" else False,
            "delta_frames": self.delta_frames if mode == "process" else False,
            "rounds": 0,
            "halo_values": 0,
            "halo_bytes": 0,
            "links": {},
        }

    def run(self, loads: np.ndarray, seed=0, replicas: int | None = None) -> EnsembleTrace:
        """Run all blocks until every replica's stopping rule fires.

        ``seed`` is accepted for engine-interface symmetry; the
        partition-capable schemes are deterministic (their rounds draw
        no randomness), so it is unused.
        """
        self.balancer.reset()
        L, B = initial_batch(self.balancer, loads, replicas)
        assignment = self._resolve_assignment(L.shape[0])
        if self.mode == "process" and self.partitions > 1:
            self._init_halo_stats(assignment, "process")
            return self._run_executor(L, B, assignment, _LocalProcessExecutor)
        self._init_halo_stats(assignment, "inprocess")
        return self._run_inprocess(L, B, assignment)

    def run_with_executor(self, loads: np.ndarray, replicas: int | None,
                          executor_factory) -> EnsembleTrace:
        """Run through an externally supplied block executor.

        ``executor_factory(sim, L, B, assignment)`` must return an object
        with the executor seam (``run_chunk(chunk, frozen)`` →
        ``(per_round_partials, halo_values, link_bytes)``, ``gather()`` →
        replica-major loads, ``close()``).  This is the entry point the
        multi-host dispatcher uses: the coordinator loop — chunking,
        statistics combine, stopping, conservation audits — is exactly
        the one local process mode runs, so remote runs inherit its
        semantics (and its bit-for-bit trajectory guarantee) wholesale.
        """
        self.balancer.reset()
        L, B = initial_batch(self.balancer, loads, replicas)
        assignment = self._resolve_assignment(L.shape[0])
        self._init_halo_stats(assignment, "process")
        return self._run_executor(L, B, assignment, executor_factory)

    def _make_trace(self, B: int) -> EnsembleTrace:
        return EnsembleTrace(
            balancer_name=self.balancer.name,
            replicas=B,
            record_discrepancies=self._record_disc(),
            record_movements=self.record == "full",
            keep_snapshots=self.keep_snapshots,
        )

    # ------------------------------------------------------------------
    # In-process mode
    # ------------------------------------------------------------------
    def _run_inprocess(self, L: np.ndarray, B: int, assignment: np.ndarray) -> EnsembleTrace:
        trace = self._make_trace(B)
        trace.record(L)
        initial_sums = trace._sums[0]
        is_discrete = np.issubdtype(L.dtype, np.integer)
        active = np.ones(B, dtype=bool)
        apply_stopping(self.stopping, trace, active)
        out = np.empty_like(L)
        resolved = resolve_backend(self.backend)
        parts = _PartitionMemo(assignment, self.strategy)
        rec = get_recorder()
        traced = rec.enabled
        monitor = None
        if traced:
            from repro.observability.convergence import monitor_for

            monitor = monitor_for(self.balancer, rec)
            if monitor is not None:
                monitor.observe(trace.initial_potentials)
        rounds = 0
        while active.any():
            if traced:
                _t0 = perf_counter()
            part = parts.get(self.balancer.partition_topology(rounds))
            for p in range(part.blocks):
                local = block_local(part, p, resolved)
                # The halo refresh: owned + ghost rows gathered from the
                # previous round's matrix before this block's round.
                ext = L[local.ext_ids]
                out[local.owned] = self.balancer.block_step(local, ext)
                self.halo_stats["halo_values"] += local.n_ghost * B
            if traced:
                rec.record_span("round", _t0, round=rounds, engine="partitioned")
            if not active.all():
                frozen = ~active
                out[:, frozen] = L[:, frozen]
            trace.record(out, prev=L)
            trace.advance(active)
            if monitor is not None:
                # `active` is still this round's pre-stopping mask here.
                monitor.observe(trace.last_potentials, active)
            if self.check_conservation:
                audit_replica_sums(
                    self.balancer.name, trace._sums[-1], initial_sums, is_discrete, self.cons_tol
                )
            apply_stopping(self.stopping, trace, active)
            L, out = out, L
            rounds += 1
        if monitor is not None:
            monitor.finish()
        self.halo_stats["rounds"] = rounds
        trace._final_loads = L.T.copy()
        return trace

    # ------------------------------------------------------------------
    # Executor-driven (process / remote) mode
    # ------------------------------------------------------------------
    def _max_rounds_only(self) -> int | None:
        """The common round cap when every rule is a plain MaxRounds."""
        if all(isinstance(r, MaxRounds) for r in self.stopping):
            return min(r.rounds for r in self.stopping)
        return None

    def _run_executor(self, L: np.ndarray, B: int, assignment: np.ndarray,
                      executor_factory) -> EnsembleTrace:
        trace = self._make_trace(B)
        trace.record(L)
        executor = executor_factory(self, L, B, assignment)
        try:
            self._coordinate(executor, trace, L, B)
            trace._final_loads = executor.gather()
            return trace
        finally:
            executor.close()

    def _coordinate(self, executor, trace: EnsembleTrace, L: np.ndarray, B: int) -> None:
        """The coordinator loop shared by local and remote executors."""
        n = L.shape[0]
        initial_sums = trace._sums[0]
        is_discrete = np.issubdtype(L.dtype, np.integer)
        active = np.ones(B, dtype=bool)
        apply_stopping(self.stopping, trace, active)
        cap = self._max_rounds_only()
        rounds_done = 0
        hs = self.halo_stats
        rec = get_recorder()
        traced = rec.enabled
        monitor = None
        if traced:
            from repro.observability.convergence import monitor_for

            monitor = monitor_for(self.balancer, rec)
            if monitor is not None:
                monitor.observe(trace.initial_potentials)
        while active.any():
            if cap is not None and not self.keep_snapshots:
                # Free-running chunk: workers need no coordinator
                # round-trips until the cap (no rule can fire early).
                chunk = max(cap - rounds_done, 1)
            else:
                chunk = 1
            frozen = None if active.all() else ~active
            if traced:
                _t0 = perf_counter()
            per_round, halo_values, link_bytes = executor.run_chunk(chunk, frozen)
            if traced:
                rec.record_span("chunk", _t0, rounds=chunk,
                                start_round=rounds_done, engine="partitioned")
            hs["halo_values"] += halo_values
            hs["halo_bytes"] += sum(link_bytes.values())
            for link, nbytes in link_bytes.items():
                hs["links"][link] = hs["links"].get(link, 0) + nbytes
            snapshot = executor.gather() if self.keep_snapshots else None
            for i in range(chunk):
                phis, sums, disc, mov = _combine_stats(per_round[i], n)
                trace.record_stats(phis, sums, disc, mov, snapshot=snapshot)
                trace.advance(active)
                if monitor is not None:
                    # `active` is still this round's pre-stopping mask here.
                    monitor.observe(trace.last_potentials, active)
                if self.check_conservation:
                    audit_replica_sums(
                        self.balancer.name, trace._sums[-1], initial_sums,
                        is_discrete, self.cons_tol,
                    )
                apply_stopping(self.stopping, trace, active)
            rounds_done += chunk
        if monitor is not None:
            monitor.finish()
        hs["rounds"] = rounds_done
