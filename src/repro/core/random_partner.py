"""Algorithm 2 of the paper: randomly chosen balancing partners.

Each round every node picks one partner uniformly at random from the
*other* ``n - 1`` nodes; the picks define a link set ``E`` (a random graph
that changes every round).  Load then moves concurrently along every link
with the same damped rate as Algorithm 1,

    (l_i - l_j) / (4 max(d_i, d_j)),

where ``d_i`` is the number of links incident to ``i`` *this round* (own
pick plus picks by others).  A popular node can be chosen by many peers —
the classic balls-into-bins bound says some node has
``Theta(log n / log log n)`` partners w.h.p. — which is exactly the
concurrency the sequentialization technique tames.  Lemma 9 shows a fixed
link rarely has a high-degree endpoint, giving the per-round expected
drop of Lemma 11 / Theorem 12 (and Lemma 13 / Theorem 14 discretely).

The link set follows the paper's ``E <- E u (i, j)`` *set* semantics:
mutual picks (i chooses j and j chooses i) collapse into a single link.

Batching: because every replica draws its own link set, a replica batch
is balanced on the *flattened* node space — replica ``b``'s links are
offset into slots ``node * B + b`` of the node-major ``(n, B)`` matrix
and a single scatter applies all replicas at once.  Per-replica RNG
streams are consumed exactly as the serial kernels would, so batched
runs are bit-for-bit identical to ``B`` serial runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.protocols import CONTINUOUS, DISCRETE, Balancer, register_balancer

__all__ = [
    "sample_partners",
    "sample_partner_links",
    "link_degrees",
    "partner_flows",
    "partner_round_continuous",
    "partner_round_discrete",
    "RandomPartnerBalancer",
]


def sample_partners(n: int, rng: np.random.Generator) -> np.ndarray:
    """Each node's uniformly random partner, guaranteed ``partner[i] != i``.

    Uses the shift trick: draw from ``{0, ..., n-2}`` and bump values
    ``>= i`` so the distribution over the other ``n - 1`` nodes is exactly
    uniform.
    """
    if n < 2:
        raise ValueError("need at least two nodes to pick partners")
    draw = rng.integers(0, n - 1, size=n)
    ids = np.arange(n)
    return np.where(draw >= ids, draw + 1, draw).astype(np.int64)


def sample_partner_links(n: int, rng: np.random.Generator) -> np.ndarray:
    """One round's link set: canonical, deduplicated ``(m, 2)`` array.

    The ``n`` picks collapse to ``n/2 <= m <= n`` distinct links (mutual
    picks merge).  Rows are ``u < v`` in lexicographic order; that order
    is part of the contract, because it fixes the accumulation order of
    the ``ufunc.at`` scatter that applies the flows.

    Each node picks once, so the only duplicate of a link is the second
    end of a mutual pick; it is masked out, and the surviving links are
    sorted as the 1-D key ``u * n + v`` rather than as rows.
    """
    partners = sample_partners(n, rng)
    ids = np.arange(n, dtype=np.int64)
    keep = (partners[partners] != ids) | (ids < partners)
    key = np.maximum(ids, partners)
    key += np.minimum(ids, partners) * n
    key = key[keep]
    key.sort()
    links = np.empty((key.size, 2), dtype=np.int64)
    np.divmod(key, n, out=(links[:, 0], links[:, 1]))
    return links


def link_degrees(n: int, links: np.ndarray) -> np.ndarray:
    """Number of links incident to each node this round, shape ``(n,)``.

    Every node has degree >= 1 (its own pick always produces a link).
    """
    return np.bincount(links.ravel(), minlength=n).astype(np.int64)


def partner_flows(loads: np.ndarray, links: np.ndarray, degrees: np.ndarray, discrete: bool = False) -> np.ndarray:
    """Signed per-link flow along canonical direction u -> v."""
    u, v = links[:, 0], links[:, 1]
    denom = 4 * np.maximum(degrees[u], degrees[v])
    if discrete:
        l = np.asarray(loads, dtype=np.int64)
        diff = l[u] - l[v]
        return np.sign(diff) * (np.abs(diff) // denom)
    l = np.asarray(loads, dtype=np.float64)
    return (l[u] - l[v]) / denom.astype(np.float64)


def _apply(loads: np.ndarray, links: np.ndarray, flows: np.ndarray) -> np.ndarray:
    out = loads.copy()
    np.subtract.at(out, links[:, 0], flows)
    np.add.at(out, links[:, 1], flows)
    return out


def _apply_batch_links(
    loads: np.ndarray, link_sets: list[np.ndarray], discrete: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Apply one presampled link set per replica to a node-major batch.

    Each replica's links live in the flattened slot space
    ``node * B + b``, so degrees, flows and the scatter for all replicas
    are single vectorized operations.  Returns the new ``(n, B)`` loads
    and the per-replica link-degree matrix (also ``(n, B)``).
    """
    n, B = loads.shape
    counts = np.asarray([lk.shape[0] for lk in link_sets])
    offsets = np.repeat(np.arange(B, dtype=np.int64), counts)
    links = np.concatenate(link_sets, axis=0)
    U = links[:, 0] * B + offsets
    V = links[:, 1] * B + offsets
    flat = loads.reshape(-1)
    deg = np.bincount(np.concatenate([U, V]), minlength=n * B)
    denom = 4 * np.maximum(deg[U], deg[V])
    diff = flat[U] - flat[V]
    if discrete:
        flows = np.sign(diff) * (np.abs(diff) // denom)
    else:
        flows = diff / denom.astype(np.float64)
    out = flat.copy()
    np.subtract.at(out, U, flows)
    np.add.at(out, V, flows)
    return out.reshape(n, B), deg.reshape(n, B)


def _round_batch_node_major(
    loads: np.ndarray, rngs: Sequence[np.random.Generator], discrete: bool
) -> np.ndarray:
    """One lockstep partner round for a node-major ``(n, B)`` batch.

    Only the per-replica link sampling (which must consume each RNG
    stream exactly as the serial kernel does) is a Python loop of ``B``
    draws; everything else is one vectorized pass.
    """
    link_sets = [sample_partner_links(loads.shape[0], rng) for rng in rngs]
    out, _ = _apply_batch_links(loads, link_sets, discrete)
    return out


def _round(loads: np.ndarray, rng, discrete: bool) -> np.ndarray:
    """Dispatch serial ``(n,)`` / replica-major ``(B, n)`` partner rounds."""
    if loads.ndim == 1:
        links = sample_partner_links(loads.size, rng)
        deg = link_degrees(loads.size, links)
        return _apply(loads, links, partner_flows(loads, links, deg, discrete=discrete))
    result = _round_batch_node_major(np.ascontiguousarray(loads.T), rng, discrete)
    return np.ascontiguousarray(result.T)


def partner_round_continuous(loads: np.ndarray, rng) -> np.ndarray:
    """One concurrent continuous round of Algorithm 2.

    ``loads`` may be ``(n,)`` with a single generator or replica-major
    ``(B, n)`` with a sequence of ``B`` generators (one per replica).
    """
    return _round(np.asarray(loads, dtype=np.float64), rng, discrete=False)


def partner_round_discrete(loads: np.ndarray, rng) -> np.ndarray:
    """One concurrent discrete round of Algorithm 2 (integer tokens)."""
    return _round(np.asarray(loads, dtype=np.int64), rng, discrete=True)


class RandomPartnerBalancer(Balancer):
    """Algorithm 2 adapted to the :class:`Balancer` interface.

    Needs no topology: the communication graph is resampled every round
    from the uniform partner distribution.  The last sampled link set and
    degrees are kept on the instance (``last_links``, ``last_degrees``)
    so experiments can inspect the realized concurrency; after a batched
    round they hold *per-replica lists* of link arrays / degree vectors
    instead of a single pair.
    """

    supports_batch = True

    def __init__(self, mode: str = CONTINUOUS):
        super().__init__()
        if mode not in (CONTINUOUS, DISCRETE):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.name = f"random-partner[{mode}]"
        self.last_links: np.ndarray | list[np.ndarray] | None = None
        self.last_degrees: np.ndarray | list[np.ndarray] | None = None

    def step(self, loads: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        loads = self.validate_loads(loads)
        self.advance_round()
        links = sample_partner_links(loads.size, rng)
        deg = link_degrees(loads.size, links)
        self.last_links, self.last_degrees = links, deg
        flows = partner_flows(loads, links, deg, discrete=self.mode == DISCRETE)
        return _apply(loads, links, flows)

    def step_batch(self, loads: np.ndarray, rngs, out: np.ndarray | None = None) -> np.ndarray:
        """One lockstep round for a node-major ``(n, B)`` replica batch.

        ``last_links``/``last_degrees`` become per-replica lists (see the
        class docstring).
        """
        self.advance_round()
        link_sets = [sample_partner_links(loads.shape[0], rng) for rng in rngs]
        new, deg = _apply_batch_links(loads, link_sets, discrete=self.mode == DISCRETE)
        self.last_links = link_sets
        self.last_degrees = [deg[:, b] for b in range(deg.shape[1])]
        return new


@register_balancer("random-partner")
def _make_partner(topology=None, **kwargs) -> RandomPartnerBalancer:
    return RandomPartnerBalancer(mode=CONTINUOUS, **kwargs)


@register_balancer("random-partner-discrete")
def _make_partner_discrete(topology=None, **kwargs) -> RandomPartnerBalancer:
    return RandomPartnerBalancer(mode=DISCRETE, **kwargs)
