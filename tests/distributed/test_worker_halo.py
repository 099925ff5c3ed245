"""Degenerate halo payloads through the block worker's sync exchange.

Real partitions of undirected graphs never produce an empty ``send_idx``
(a cut edge puts boundary nodes on both sides), so the zero-row frame
path is exercised here with stub locals: one direction of a link ships a
``(0, B)`` slab while the other ships real rows.  One sync round of
:class:`~repro.distributed.worker._SlabRunner` — the production round
driver — must stay deadlock-free, deliver exact values, and account
bytes identically over loopback, pipes and TCP.
"""

import threading

import numpy as np
import pytest

from repro.distributed.transport import make_pair
from repro.distributed.worker import _SlabRunner
from repro.graphs.partition import HaloLink

TRANSPORTS = ["loopback", "mp-pipe", "tcp"]


class _StubLocal:
    def __init__(self, p, links, n_owned, n_ghost):
        self.p = p
        self.links = links
        self.n_owned = n_owned
        self.n_ghost = n_ghost
        self.n_ext = n_owned + n_ghost
        self.recv_slices = {link.peer: (0, link.recv_idx.size) for link in links}


class _ViewBalancer:
    """Keeps the extended slab the round computed on; owned rows pass through."""

    ext = None

    def block_step(self, local, ext, out):
        self.ext = ext
        out[...] = ext[: local.n_owned]
        return out


def _asymmetric_pair():
    """Block 0 sends zero rows to block 1; block 1 sends two rows back."""
    local0 = _StubLocal(
        0,
        [HaloLink(peer=1, send_idx=np.empty(0, dtype=np.int64),
                  recv_idx=np.arange(2, dtype=np.int64))],
        n_owned=3, n_ghost=2,
    )
    local1 = _StubLocal(
        1,
        [HaloLink(peer=0, send_idx=np.array([1, 3], dtype=np.int64),
                  recv_idx=np.empty(0, dtype=np.int64))],
        n_owned=4, n_ghost=0,
    )
    return local0, local1


def _sync_round(transport, owned0, owned1, timeout):
    """One sync round on both blocks, each on its own thread.

    Returns ``(runners, balancers, channels)`` indexed by block id.
    """
    local0, local1 = _asymmetric_pair()
    ch0, ch1 = make_pair(transport)
    runners = [_SlabRunner({1: ch0}, timeout=timeout), _SlabRunner({0: ch1}, timeout=timeout)]
    balancers = [_ViewBalancer(), _ViewBalancer()]

    def side(p, local, owned):
        runners[p].bind(local, owned)
        runners[p].round(local, balancers[p], None, 0, False, False)

    threads = [
        threading.Thread(target=side, args=(0, local0, owned0)),
        threading.Thread(target=side, args=(1, local1, owned1)),
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout)
    assert not any(t.is_alive() for t in threads), "exchange wedged"
    return runners, balancers, (ch0, ch1)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_empty_send_idx_exchanges_cleanly(transport):
    owned0 = np.arange(6, dtype=np.float64).reshape(3, 2)
    owned1 = np.arange(100, 108, dtype=np.float64).reshape(4, 2)
    runners, balancers, (ch0, ch1) = _sync_round(transport, owned0, owned1, 10.0)
    assert runners[0].halo_values == 0 and runners[1].halo_values == 4  # 2 rows x width 2
    ext0, ext1 = balancers[0].ext, balancers[1].ext
    assert np.array_equal(ext0[:3], owned0)
    assert np.array_equal(ext0[3:], owned1[[1, 3]])
    assert np.array_equal(ext1, owned1)  # no ghosts on block 1
    ch0.close(), ch1.close()


def test_byte_totals_identical_across_transports_for_zero_row_frames():
    totals = {}
    for transport in TRANSPORTS:
        _, _, (ch0, ch1) = _sync_round(transport, np.zeros((3, 2)), np.ones((4, 2)), 10.0)
        totals[transport] = (ch0.bytes_sent, ch1.bytes_sent)
        ch0.close(), ch1.close()
    assert len(set(totals.values())) == 1, totals


def test_exchange_sends_fresh_row_copies():
    """Fancy indexing snapshots the send rows, so mutating the sender's
    slab after the exchange cannot corrupt what the peer received — even
    over loopback, which delivers objects by reference."""
    owned1 = np.arange(8, dtype=np.float64).reshape(4, 2)
    _, balancers, (ch0, ch1) = _sync_round("loopback", np.zeros((3, 2)), owned1, 5.0)
    balancers[1].ext[...] = -1.0  # sender mutates its slab after the exchange
    assert np.array_equal(balancers[0].ext[3:], owned1[[1, 3]])
    ch0.close(), ch1.close()
