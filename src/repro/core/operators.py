"""Cached per-topology edge operators: the hot-path engine of every scheme.

Every balancing round is built from the same three primitives over a
topology's canonical ``(m, 2)`` edge array:

1. per-edge *differences* ``l_u - l_v`` (a gather),
2. per-edge *flows* (differences damped by ``4 max(d_u, d_v)``), and
3. the *scatter* that applies signed flows back onto the endpoints.

An :class:`EdgeOperator` precomputes, once per
:class:`~repro.graphs.topology.Topology` *and kernel backend*:

- the edge endpoint arrays ``u``/``v`` and the cached damping
  denominators (float64 and int64 views, shared with
  ``Topology.edge_denominators``), plus biased reciprocal multipliers
  that replace the discrete kernels' int64 floor division with an exact
  float multiply + truncating cast (see
  :attr:`EdgeOperator.denominators_recip`);
- a **signed incidence matrix** ``A`` of shape ``(n, m)`` with
  ``A[u_e, e] = -1`` and ``A[v_e, e] = +1``, so applying flows becomes
  the sparse product ``loads + A @ flows`` (an int64 twin keeps the
  discrete algorithms integer-exact at any load);
- its negated transpose, the **edge-difference matrix** ``G`` of shape
  ``(m, n)`` with ``G[e, u_e] = +1`` and ``G[e, v_e] = -1``, so every
  per-edge difference ``l_u - l_v`` is the one sparse product
  ``G @ loads`` (the discrete round's gather);
- for the *linear* continuous schemes (Algorithm 1 and FOS), the full
  **round matrix** ``M`` with ``M @ loads`` equal to one concurrent
  round, so a round is a single cached sparse matvec — and a whole
  *ensemble* of replicas is a single sparse matmat;
- the sorted CSR **adjacency** with edge-aligned reciprocals that the
  fused whole-round kernels traverse.

All sparse index arrays are downcast to int32 when ``max(n, m) < 2**31``
(:func:`~repro.core.backends.index_dtype`), halving index bandwidth.

Kernel backends
---------------
*How* the products execute is delegated to a pluggable
:class:`~repro.core.backends.KernelBackend`.  Capability matrix:

=========================  =======  =======  =======
primitive                  numpy    scipy    numba
=========================  =======  =======  =======
CSR matvec / matmat        ELL fold C kernel prange JIT
signed incidence scatter   ELL fold C kernel prange JIT
continuous round           cached M cached M cached M
discrete round             staged   staged   **fused** (one traversal,
                           gather,  gather,  no ``(m, B)`` temporaries)
                           scatter  scatter
FOS / Richardson round     cached M cached M **fused** (no matrix built;
                                             per-round ``alpha`` free)
availability               always   optional optional (JIT)
=========================  =======  =======  =======

The staged discrete round (:func:`staged_discrete_round`) is one ``G``
gather into a single float64 ``(m, B)`` buffer, an in-place reciprocal
multiply and ``trunc``, one float64 incidence scatter and one truncating
cast back to int64 — exact for loads below :data:`RECIP_DIV_LIMIT` (the
argument is in :meth:`EdgeOperator.round_discrete`); at or above it the
same two products run on int64 twins with an integer floor division.

All backends are **bit-for-bit identical** — the numpy reference fold,
SciPy's C kernels and the numba JIT loops accumulate each output in the
same stored order (and the discrete path computes exact integers, in
float64 below :data:`RECIP_DIV_LIMIT` and int64 above it), so
serial, batched and sharded trajectories agree exactly across backends
(property-tested).  Pick one with ``EdgeOperator(topo, backend=...)``,
``Balancer.backend``, engine/CLI ``--backend`` flags, or the
``REPRO_BACKEND`` environment variable; the default ``auto`` picks the
fastest available (numba > scipy > numpy).

Batching convention
-------------------
All batched operator methods take **node-major** ``(n, B)`` matrices:
column ``b`` is replica ``b``'s load vector.  Node-major keeps the
sparse kernels transpose-free and row-gathers contiguous; the public
round kernels in :mod:`repro.core.diffusion` accept the user-facing
replica-major ``(B, n)`` layout and transpose at the boundary.  Every
backend accumulates a CSR row's stored entries in the same order for
matvec and matmat, so serial ``(n,)`` and batched ``(n, B)`` results
agree **bit-for-bit** per replica — the property tests rely on this.

Operators are cached on the topology instance itself (topologies are
immutable), one per backend, so dynamic networks that cycle through a
fixed set of graphs pay the construction cost once per distinct graph —
and scratch buffers are never shared across backends.
"""

from __future__ import annotations

import numpy as np

from repro.core.backends import (
    HAVE_SCIPY,
    KernelBackend,
    PlainCSR,
    get_backend,
    index_dtype,
    resolve_backend,
)
from repro.graphs.topology import Topology

__all__ = [
    "EdgeOperator",
    "FlatReciprocals",
    "edge_operator",
    "floor_divide_int",
    "staged_discrete_round",
    "truncated_half",
    "HAVE_SCIPY",
]

_CACHE_ATTR = "_edge_operators"

#: Loads below this bound take the reciprocal-multiply floor-division fast
#: path in the discrete kernels (see :attr:`EdgeOperator.denominators_recip`).
RECIP_DIV_LIMIT = 1 << 46

#: Differences below this magnitude convert to float64 exactly, making the
#: multiply-by-0.5 truncation in :func:`truncated_half` exact.
_HALF_EXACT_LIMIT = 1 << 52


class EdgeOperator:
    """Precomputed sparse kernels for one (immutable) topology.

    Use :func:`edge_operator` (or :meth:`for_topology`) rather than the
    constructor so instances are shared through the per-topology,
    per-backend cache.
    """

    def __init__(self, topo: Topology, backend: str | KernelBackend | None = None):
        # No reference back to ``topo``: the topology caches its operators,
        # so a back-reference would make every topology cyclic garbage that
        # only the cyclic collector frees (with all its operator arrays).
        self.degrees = topo.degrees
        self.n = topo.n
        self.m = topo.m
        edges = topo.edges
        self.u = edges[:, 0]
        self.v = edges[:, 1]
        if isinstance(backend, KernelBackend):
            self.kernels = backend
            self.backend = backend.name
        else:
            self.backend = resolve_backend(backend)
            self.kernels = get_backend(self.backend)
        #: narrowest safe dtype for every sparse index array of this graph
        #: (indices < max(n, m); indptr totals reach n + 2m for the round
        #: matrices and 2m for incidence/adjacency)
        self.idx_dtype = index_dtype(self.n, self.m, self.n + 2 * self.m)
        #: float64 ``4 max(d_u, d_v)``, shared with the topology cache
        self.denominators = topo.edge_denominators
        #: int64 twin for the discrete (floor-division) algorithms
        self.denominators_int = topo.edge_denominators_int
        #: Upward-biased reciprocals ``(1/d) * (1 + 2^-48)`` replacing the
        #: int64 floor division in the discrete kernels (~2.5x faster: one
        #: float multiply + truncating cast instead of abs/divide/sign/
        #: multiply passes).  ``trunc(diff * recip)`` equals
        #: ``sign(diff) * (|diff| // d)`` *exactly* for ``|diff| <
        #: RECIP_DIV_LIMIT``: the computed quotient is ``q (1 + delta)``
        #: with ``delta in (2^-49, 2^-47)`` — the bias dominates the two
        #: rounding errors — so exact multiples of ``d`` land strictly
        #: above their integer (never truncating one short) while the
        #: ``1/d`` gap to the next representable quotient is far too wide
        #: for the bias to cross.
        self.denominators_recip = (1.0 / self.denominators) * (1.0 + 2.0**-48)
        self.denominators_recip.setflags(write=False)
        self.recip_flat = FlatReciprocals(self.denominators_recip)
        self._incidence_plain: dict[str, PlainCSR] = {}
        self._gather_plain: dict[str, PlainCSR] = {}
        self._round_plain: PlainCSR | None = None
        self._fos_plain: dict[float, PlainCSR] = {}
        self._linear_pattern = None
        self._adjacency = None
        self._adj_recip: np.ndarray | None = None
        self._adj_denom_int: np.ndarray | None = None
        self._scratch: dict[tuple, np.ndarray] = {}

    def scratch(self, key: str, shape: tuple, dtype) -> np.ndarray:
        """A reusable work buffer (the operator is a per-topology singleton).

        Callers own the buffer only until their next call into the
        operator; returned *results* are never scratch-backed.  Scratch
        buffers belong to one ``(topology, backend)`` operator — distinct
        backends never share them.
        """
        full_key = (key, shape, np.dtype(dtype).char)
        buf = self._scratch.get(full_key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._scratch[full_key] = buf
        return buf

    # ------------------------------------------------------------------
    # Construction / caching
    # ------------------------------------------------------------------
    @classmethod
    def for_topology(cls, topo: Topology, backend: str | None = None) -> "EdgeOperator":
        """The operator for ``topo`` on ``backend``, cached on the instance."""
        cache = topo.__dict__.get(_CACHE_ATTR)
        if cache is None:
            cache = topo.__dict__[_CACHE_ATTR] = {}
        resolved = resolve_backend(backend)
        op = cache.get(resolved)
        if op is None:
            op = cache[resolved] = cls(topo, resolved)
        return op

    def _sorted_csr(self, heads, cols, vals, shape) -> PlainCSR:
        """Rows grouped by ``heads`` with stored entries in sorted-column
        order — exactly the layout ``scipy`` produces via ``sum_duplicates``
        + ``sort_indices``, so every backend sees the same stored order."""
        order = np.lexsort((cols, heads))
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(heads, minlength=shape[0]), out=indptr[1:])
        csr = PlainCSR(
            indptr.astype(self.idx_dtype),
            cols[order].astype(self.idx_dtype),
            np.ascontiguousarray(vals[order]),
            shape,
        )
        csr.indptr.setflags(write=False)
        csr.indices.setflags(write=False)
        return csr

    def incidence_csr(self, dtype=np.float64) -> PlainCSR:
        """Signed incidence ``(n, m)``: ``-1`` at ``(u, e)``, ``+1`` at ``(v, e)``."""
        key = np.dtype(dtype).char
        A = self._incidence_plain.get(key)
        if A is None:
            ones = np.ones(self.m, dtype=dtype)
            heads = np.concatenate([self.u, self.v])
            cols = np.concatenate([np.arange(self.m)] * 2)
            vals = np.concatenate([-ones, ones])
            A = self._sorted_csr(heads, cols, vals, (self.n, self.m))
            self._incidence_plain[key] = A
        return A

    def gather_csr(self, dtype=np.float64) -> PlainCSR:
        """Signed edge-difference ``(m, n)``: ``+1`` at ``(e, u)``, ``-1`` at ``(e, v)``.

        ``gather_csr() @ loads`` is every edge's ``l_u - l_v`` in one
        sparse product (the negated transpose of :meth:`incidence_csr`).
        """
        key = np.dtype(dtype).char
        G = self._gather_plain.get(key)
        if G is None:
            ones = np.ones(self.m, dtype=dtype)
            heads = np.concatenate([np.arange(self.m)] * 2)
            cols = np.concatenate([self.u, self.v])
            vals = np.concatenate([ones, -ones])
            G = self._sorted_csr(heads, cols, vals, (self.m, self.n))
            self._gather_plain[key] = G
        return G

    def discrete_csrs(self, dtype) -> tuple[PlainCSR, PlainCSR]:
        """The staged discrete round's ``(gather, incidence)`` pair in ``dtype``."""
        return self.gather_csr(dtype), self.incidence_csr(dtype)

    def round_csr(self) -> PlainCSR:
        """Algorithm 1's continuous round matrix as a backend-neutral CSR.

        ``M = I - sum_e w_e (e_u - e_v)(e_u - e_v)^T`` with
        ``w_e = 1 / (4 max(d_u, d_v))``, so ``M @ loads`` is one
        concurrent continuous round.
        """
        if self._round_plain is None:
            self._round_plain = self._laplacian_style(1.0 / self.denominators)
        return self._round_plain

    def fos_csr(self, alpha: float, cache: bool = True) -> PlainCSR:
        """FOS round matrix ``M = I - alpha L`` (cached per ``alpha``).

        The sparsity pattern (adjacency plus diagonal) is shared across
        all ``alpha`` values; only the data array is rebuilt — off-diagonal
        entries are ``alpha`` and the diagonal is the same sequential
        subtraction fold ``_laplacian_style`` performs, so the values are
        bitwise those of a from-scratch build.  Pass ``cache=False`` when
        ``alpha`` is drawn from a large or one-shot set (e.g. OPS's
        per-eigenvalue schedule): the operator is a topology-lifetime
        singleton, so an unbounded per-alpha dict would pin one ``n x n``
        data array per distinct value forever.
        """
        key = float(alpha)
        M = self._fos_plain.get(key)
        if M is None:
            pattern, diag_pos = self._fos_pattern()
            data = np.full(pattern.nnz, key, dtype=np.float64)
            deg = self.degrees
            # Subtraction ladder: ladder[d] is the d-step sequential fold
            # 1 - alpha - ... - alpha, the exact value np.subtract.at
            # accumulates for a degree-d node — O(max_degree + n) instead
            # of a boolean-mask pass per degree level.
            max_deg = int(deg.max()) if self.m else 0
            ladder = np.empty(max_deg + 1, dtype=np.float64)
            ladder[0] = 1.0
            for t in range(max_deg):
                ladder[t + 1] = ladder[t] - key
            data[diag_pos] = ladder[deg]
            M = pattern.with_data(data)
            if cache:
                self._fos_plain[key] = M
        return M

    def _fos_pattern(self):
        """The shared ``I - alpha L`` sparsity pattern and diagonal slots."""
        if self._linear_pattern is None:
            template = self._laplacian_style(np.zeros(self.m, dtype=np.float64))
            diag_pos = np.flatnonzero(
                template.indices
                == np.repeat(np.arange(self.n), np.diff(template.indptr)).astype(
                    template.indices.dtype
                )
            )
            self._linear_pattern = (template, diag_pos)
        return self._linear_pattern

    def _laplacian_style(self, w: np.ndarray) -> PlainCSR:
        """``I - sum_e w_e (e_u - e_v)(e_u - e_v)^T`` as sorted CSR."""
        diag = np.ones(self.n, dtype=np.float64)
        np.subtract.at(diag, self.u, w)
        np.subtract.at(diag, self.v, w)
        heads = np.concatenate([np.arange(self.n), self.u, self.v])
        cols = np.concatenate([np.arange(self.n), self.v, self.u])
        vals = np.concatenate([diag, w, w])
        return self._sorted_csr(heads, cols, vals, (self.n, self.n))

    def adjacency(self):
        """Sorted directed adjacency ``(indptr, neighbours, edge_ids)``.

        Entry order within a node is ascending neighbour id — the stored
        order of the round matrices minus the diagonal — which is what
        lets the fused numba kernels reproduce the matrix products
        bit-for-bit.  ``edge_ids`` maps each directed entry back to its
        undirected edge (for the per-edge reciprocals/denominators).
        """
        if self._adjacency is None:
            heads = np.concatenate([self.u, self.v])
            tails = np.concatenate([self.v, self.u])
            eids = np.concatenate([np.arange(self.m)] * 2)
            order = np.lexsort((tails, heads))
            indptr = np.zeros(self.n + 1, dtype=np.int64)
            np.cumsum(np.bincount(heads, minlength=self.n), out=indptr[1:])
            self._adjacency = (
                indptr.astype(self.idx_dtype),
                tails[order].astype(self.idx_dtype),
                eids[order].astype(self.idx_dtype),
            )
        return self._adjacency

    @property
    def adj_recip(self) -> np.ndarray:
        """Per-directed-entry biased reciprocals aligned with :meth:`adjacency`."""
        if self._adj_recip is None:
            _, _, eids = self.adjacency()
            self._adj_recip = np.ascontiguousarray(self.denominators_recip[eids])
        return self._adj_recip

    @property
    def adj_denom_int(self) -> np.ndarray:
        """Per-directed-entry int64 denominators aligned with :meth:`adjacency`."""
        if self._adj_denom_int is None:
            _, _, eids = self.adjacency()
            self._adj_denom_int = np.ascontiguousarray(self.denominators_int[eids])
        return self._adj_denom_int

    # ------------------------------------------------------------------
    # SciPy views (back-compat; None when SciPy is unavailable)
    # ------------------------------------------------------------------
    def incidence(self, dtype=np.float64):
        """Signed incidence as a ``scipy.sparse.csr_array`` (or None)."""
        if not HAVE_SCIPY:
            return None
        return self.incidence_csr(dtype).as_scipy()

    def round_matrix(self):
        """The continuous round matrix as ``csr_array`` (or None)."""
        if not HAVE_SCIPY:
            return None
        return self.round_csr().as_scipy()

    def fos_round_matrix(self, alpha: float, cache: bool = True):
        """FOS round matrix ``I - alpha L`` as ``csr_array`` (or None)."""
        if not HAVE_SCIPY:
            return None
        return self.fos_csr(alpha, cache=cache).as_scipy()

    # ------------------------------------------------------------------
    # Primitives (node-major: loads are (n,) or (n, B))
    # ------------------------------------------------------------------
    def differences(self, loads: np.ndarray) -> np.ndarray:
        """Per-edge ``l_u - l_v`` along the canonical direction, ``(m,)`` or ``(m, B)``."""
        return loads[self.u] - loads[self.v]

    def apply_flows(
        self, loads: np.ndarray, flows: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``loads`` plus the signed scatter of ``flows`` onto edge endpoints.

        ``loads`` is ``(n,)`` or node-major ``(n, B)`` with ``flows``
        shaped ``(m,)`` / ``(m, B)`` to match; ``out`` may supply a
        preallocated result buffer (must not alias ``loads``).
        """
        if out is loads and out is not None:
            raise ValueError("out must not alias the input vector")
        A = self.incidence_csr(dtype=loads.dtype if loads.dtype == np.int64 else np.float64)
        if out is None:
            out = np.empty_like(loads)
        return self.kernels.add_matvec(A, loads, flows, out)

    def linear_round(self, M, loads: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One linear round ``M @ loads`` for ``(n,)`` or node-major ``(n, B)``.

        ``M`` may be a :class:`~repro.core.backends.PlainCSR` (dispatched
        through this operator's backend) or any scipy-compatible sparse
        matrix (back-compat; multiplied directly).
        """
        if isinstance(M, PlainCSR):
            if out is None:
                out = np.empty_like(loads)
            return self.kernels.matvec(M, loads, out)
        if out is None:
            return M @ loads
        out[...] = M @ loads
        return out

    # ------------------------------------------------------------------
    # Full rounds for Algorithm 1 (diffusion) and FOS/Richardson
    # ------------------------------------------------------------------
    def round_continuous(self, loads: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One continuous Algorithm-1 round (node-major batched or serial)."""
        if out is loads and out is not None:
            raise ValueError("out must not alias the input vector")
        if out is None:
            out = np.empty_like(loads)
        return self.kernels.matvec(self.round_csr(), loads, out)

    def fos_round(
        self,
        alpha: float,
        loads: np.ndarray,
        out: np.ndarray | None = None,
        cache: bool = True,
    ) -> np.ndarray:
        """One FOS/Richardson round ``(I - alpha L) @ loads``.

        Backends with a fused parameterized matvec (numba) compute it
        straight from the adjacency structure — no round matrix is ever
        built, which is what makes OPS's fresh-``alpha``-per-round
        schedule cheap; the rest run the cached per-``alpha`` CSR.
        """
        if out is loads and out is not None:
            raise ValueError("out must not alias the input vector")
        if out is None:
            out = np.empty_like(loads)
        fused = self.kernels.fused_fos_round(self, float(alpha), loads, out)
        if fused is not None:
            return fused
        return self.kernels.matvec(self.fos_csr(alpha, cache=cache), loads, out)

    def round_discrete(self, loads: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """One discrete Algorithm-1 round; int64 in, int64 out, exact.

        Backends with a fused kernel (numba) run the whole round —
        adjacency gather, reciprocal floor-divide, signed scatter — as a
        single node-parallel traversal with no ``(m, B)`` intermediates.
        The other backends run :func:`staged_discrete_round`: below
        :data:`RECIP_DIV_LIMIT` it copies the loads into float64 once,
        computes every edge difference with one :meth:`gather_csr`
        product, multiplies by :attr:`denominators_recip` in one flat
        pass (:class:`FlatReciprocals`) and truncates in place, scatters
        through the float64 :meth:`incidence_csr`, and this method casts the result back into int64 ``out`` — all
        in reusable scratch, allocation-free in steady state.

        Why the float64 path is exact.  ``bound = max(l, 0) - min(l, 0)``
        bounds every ``|l_i|`` and every ``|l_u - l_v|``, and the path
        runs only when ``bound < 2**46``:

        - the float64 copy holds every load exactly (``2**46 < 2**53``);
        - each gather row folds ``0 + l_u - l_v`` (in stored order):
          every partial is an integer below ``2**46``, so the difference
          is exact — the same float64 value the int64 subtraction would
          convert to;
        - multiplying by the biased reciprocal and truncating is then the
          very operation the int64 formulation performs
          (``float(diff) * recip`` and a truncating cast), bit for bit,
          and exact by the :attr:`denominators_recip` argument;
        - node ``i``'s ``d_i`` incident edges each damp by at least
          ``4 d_i``, so its flows sum below ``bound / 4 < 2**44``: every
          partial sum of the scatter fold stays an integer below
          ``2**44``, and adding the load stays below
          ``2**46 + 2**44 < 2**53`` at any degree.

        So every intermediate is an exactly represented integer and the
        final truncating cast is exact.  At or above the limit the same
        gather and scatter run on int64 twins of the two matrices with
        :func:`floor_divide_int`.  Either way the values are identical
        to the serial integer expressions.
        """
        # The fused kernels read neighbour values while writing out, so an
        # aliased buffer would corrupt silently — reject it loudly on every
        # backend alike.
        if out is loads and out is not None:
            raise ValueError("out must not alias the input vector")
        # max - min bounds every |l_u - l_v| (the engines only pass
        # non-negative loads, but this public kernel must not let a
        # negative-load caller slip past the reciprocal exactness guard):
        # two reductions over (n, B) instead of an abs pass over (m, B).
        bound = int(loads.max(initial=0)) - min(int(loads.min(initial=0)), 0)
        if out is None:
            out = np.empty_like(loads)
        fused = self.kernels.fused_discrete_round(
            self, loads, out, use_recip=bound < RECIP_DIV_LIMIT
        )
        if fused is not None:
            return fused
        new = staged_discrete_round(
            self.kernels, self.discrete_csrs, self.recip_flat,
            self.denominators_int, loads, bound, self.scratch,
        )
        np.copyto(out, new, casting="unsafe")  # exact integers: the cast is exact
        return out


def edge_operator(topo: Topology, backend: str | None = None) -> EdgeOperator:
    """The cached :class:`EdgeOperator` for ``topo`` on ``backend``.

    ``backend`` is ``"numpy"``, ``"scipy"``, ``"numba"``, ``"auto"`` or
    None (the ambient default — ``REPRO_BACKEND`` or ``auto``).
    """
    return EdgeOperator.for_topology(topo, backend)


def floor_divide_int(diff: np.ndarray, den_int: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``sign(diff) * (|diff| // den_int)`` in exact int64 arithmetic.

    The discrete kernels' division at or above :data:`RECIP_DIV_LIMIT`.
    ``den_int`` holds one denominator per edge, ``(m,)``, broadcast over
    a node-major ``(m, B)`` batch; ``out`` may alias ``diff``.
    """
    den = den_int if diff.ndim == 1 else den_int[:, None]
    mag = np.abs(diff)
    np.floor_divide(mag, den, out=mag)
    np.multiply(np.sign(diff), mag, out=out)
    return out


class FlatReciprocals:
    """One edge set's biased reciprocals, laid out for a flat multiply.

    :meth:`flat` ``(B)`` is the ``(k * B,)`` array whose entry
    ``e * B + b`` is ``recip[e]``: multiplying a C-contiguous node-major
    ``(k, B)`` flow batch by it in one contiguous pass is the broadcast
    ``flows * recip[:, None]``, product for product.  The owner of the
    edge set (an :class:`EdgeOperator`, a partition block) holds one
    instance, which keeps the array for the last width asked for — the
    engines run one width per run, so that is one array per edge set.
    """

    __slots__ = ("recip", "_last")

    def __init__(self, recip: np.ndarray):
        self.recip = recip
        self._last = (1, recip)

    def flat(self, B: int) -> np.ndarray:
        last = self._last
        if last[0] != B:
            rep = np.repeat(self.recip, B)
            rep.setflags(write=False)
            last = self._last = (B, rep)
        return last[1]


def staged_discrete_round(
    kernels: KernelBackend,
    csrs,
    recip: FlatReciprocals,
    den_int: np.ndarray,
    loads: np.ndarray,
    bound: int,
    scratch,
) -> np.ndarray:
    """One staged discrete Algorithm-1 round over one edge set.

    ``csrs(dtype)`` returns the edge set's ``(gather, incidence)`` pair:
    the ``(k, n)`` signed edge-difference matrix over the columns of
    ``loads`` and the ``(r, k)`` signed incidence onto the output rows;
    ``recip``/``den_int`` hold the ``k`` edges' biased reciprocals (as a
    :class:`FlatReciprocals`) and int64 denominators.  ``loads`` is int64 ``(n,)`` or node-major
    ``(n, B)``; the flows land on its first ``r`` rows.  ``bound``
    bounds every ``|l_i|``; below :data:`RECIP_DIV_LIMIT` the round runs
    in float64 (exact, see :meth:`EdgeOperator.round_discrete`), else in
    int64.
    ``scratch(key, shape, dtype)`` supplies the work buffers.

    Returns the ``(r,)``/``(r, B)`` next loads, scratch-backed: float64
    holding exact integers on the float64 path, int64 on the fallback.
    Callers finish with one truncating cast into their own int64 buffer.
    """
    tail = loads.shape[1:]
    if bound < RECIP_DIV_LIMIT:
        gather, incidence = csrs(np.float64)
        src = scratch("disc-loads", loads.shape, np.float64)
        np.copyto(src, loads)
        flows = scratch("disc-flows", (gather.shape[0],) + tail, np.float64)
        kernels.matvec(gather, src, flows)
        flat = flows.reshape(-1)  # C-contiguous scratch: a view
        np.multiply(flat, recip.flat(loads.shape[1] if loads.ndim == 2 else 1), out=flat)
        np.trunc(flat, out=flat)
    else:
        gather, incidence = csrs(np.int64)
        src = loads
        flows = scratch("disc-flows", (gather.shape[0],) + tail, np.int64)
        kernels.matvec(gather, src, flows)
        floor_divide_int(flows, den_int, flows)
    r = incidence.shape[0]
    new = scratch("disc-new", (r,) + tail, src.dtype)
    return kernels.add_matvec(incidence, src[:r], flows, new)


def truncated_half(diff: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``sign(diff) * (|diff| // 2)`` for int64 ``diff`` — the half-surplus
    a dimension-exchange pair ships.

    Reuses the discrete kernels' fused-divide trick: ``diff * 0.5`` is an
    exact power-of-two scaling whenever ``diff`` converts to float64
    exactly (``|diff| < 2**52``), so a single multiply with a truncating
    output cast replaces the abs/floor-divide/sign/multiply pass chain.
    A max/min reduction pair bounds ``|diff|``; larger magnitudes take
    the exact integer path.
    """
    if out is None:
        out = np.empty_like(diff)
    if diff.size == 0:
        return out
    if max(int(diff.max()), -int(diff.min())) < _HALF_EXACT_LIMIT:
        return np.multiply(diff, 0.5, out=out, casting="unsafe")  # trunc toward zero
    mag = np.abs(diff) // 2
    np.multiply(np.sign(diff), mag, out=out)
    return out


def replica_major(kernel, loads: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Adapt a node-major operator kernel to replica-major ``(B, n)`` loads.

    Transposes in, runs ``kernel`` on the contiguous node-major view,
    transposes back; honours an optional preallocated ``out``.  The shared
    boundary between the user-facing ``(B, n)`` round functions and the
    node-major engine primitives.
    """
    result = np.ascontiguousarray(kernel(np.ascontiguousarray(loads.T)).T)
    if out is None:
        return result
    np.copyto(out, result)
    return out
