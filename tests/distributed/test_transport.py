"""Unit tests for the transport seam: framing, accounting, protocol."""

import multiprocessing as mp
import struct
import threading
import time

import numpy as np
import pytest

import repro.distributed.transport as transport
from repro.distributed.transport import (
    PROTOCOL_VERSION,
    ChannelClosed,
    TcpListener,
    TransportError,
    TransportTimeout,
    available_transports,
    encode_frame,
    format_address,
    have_mpi,
    loopback_pair,
    make_pair,
    parse_address,
    tcp_connect,
    tcp_pair,
)

#: transports whose pair() endpoints both live in this process (mp-pipe
#: pairs do too until a Process inherits one end; mpi self-pairs join
#: whenever mpi4py is importable).
ALL_PAIRS = list(available_transports())


@pytest.fixture(params=ALL_PAIRS, ids=ALL_PAIRS)
def pair(request):
    a, b = make_pair(request.param)
    yield a, b
    a.close()
    b.close()


class TestFraming:
    def test_roundtrip_objects(self, pair):
        a, b = pair
        payloads = [
            ("hello", PROTOCOL_VERSION),
            {"k": np.arange(7), "nested": [1, 2.5, None]},
            np.random.default_rng(0).integers(0, 100, (16, 3)),
        ]
        for obj in payloads:
            a.send(obj)
        for obj in payloads:
            got = b.recv(timeout=10.0)
            if isinstance(obj, np.ndarray):
                assert np.array_equal(obj, got) and got.dtype == obj.dtype
            elif isinstance(obj, dict):
                assert np.array_equal(got["k"], obj["k"])
                assert got["nested"] == obj["nested"]
            else:
                assert got == obj

    def test_large_frame_exact(self, pair):
        """Frames far beyond one socket buffer arrive intact and ordered."""
        a, b = pair
        big = np.random.default_rng(1).standard_normal((512, 300))  # ~1.2 MB
        recv_box = {}

        def reader():
            recv_box["big"] = b.recv(timeout=30.0)
            recv_box["tail"] = b.recv(timeout=30.0)

        t = threading.Thread(target=reader)
        t.start()
        a.send(big)
        a.send("tail")
        t.join(timeout=30)
        assert not t.is_alive()
        assert np.array_equal(recv_box["big"], big)
        assert recv_box["tail"] == "tail"

    def test_byte_counters_symmetric(self, pair):
        a, b = pair
        n = a.send({"x": np.arange(100)})
        assert n > 0 and a.bytes_sent == n and a.messages_sent == 1
        b.recv(timeout=10.0)
        assert b.bytes_received == n and b.messages_received == 1
        # Counters are the logical frame bytes (length prefix + header +
        # metadata + out-of-band buffers) of the same transport-
        # independent encoding on every backend, so bench rows are
        # comparable across wires.
        assert n == encode_frame({"x": np.arange(100)}).nbytes

    def test_large_buffers_leave_the_pickle_stream(self):
        """Slab-sized arrays ride out-of-band; small ones stay in-band."""
        slab = np.arange(131072, dtype=np.float64)
        frame = encode_frame({"slab": slab, "tiny": np.arange(4)})
        assert len(frame.buffers) == 1
        assert frame.buffers[0].nbytes == slab.nbytes
        assert len(frame.meta) < slab.nbytes // 100  # slab bytes not re-pickled
        assert encode_frame(np.arange(4)).buffers == []

    def test_timeout_raises(self, pair):
        a, b = pair
        with pytest.raises(TransportTimeout):
            b.recv(timeout=0.05)

    def test_closed_peer_raises(self, pair):
        a, b = pair
        a.close()
        with pytest.raises(ChannelClosed):
            b.recv(timeout=5.0)


class TestPairwiseProtocol:
    """The lower-id-sends-first halo exchange over every transport."""

    @pytest.mark.parametrize("transport", ALL_PAIRS)
    def test_two_party_exchange(self, transport):
        a, b = make_pair(transport)

        def side(channel, my_id, peer_id, value, out):
            if my_id < peer_id:
                channel.send(value)
                out.append(channel.recv(timeout=10.0))
            else:
                got = channel.recv(timeout=10.0)
                channel.send(value)
                out.append(got)

        out_a, out_b = [], []
        ta = threading.Thread(target=side, args=(a, 0, 1, "from-0", out_a))
        tb = threading.Thread(target=side, args=(b, 1, 0, "from-1", out_b))
        ta.start(), tb.start()
        ta.join(timeout=10), tb.join(timeout=10)
        assert out_a == ["from-1"] and out_b == ["from-0"]
        a.close(), b.close()

    def test_single_threaded_loopback_protocol(self):
        """Loopback sends never block, so the pairwise order is runnable
        from one thread — the determinism the protocol tests rely on."""
        a, b = loopback_pair()
        a.send(np.arange(3))  # block 0 (lower id) sends first
        got_b = b.recv(timeout=1.0)
        b.send(np.arange(3) * 10)
        got_a = a.recv(timeout=1.0)
        assert np.array_equal(got_b, np.arange(3))
        assert np.array_equal(got_a, np.arange(3) * 10)


class TestTcpSpecifics:
    def test_listener_ephemeral_port_and_accept_timeout(self):
        with TcpListener("127.0.0.1", 0) as listener:
            host, port = listener.address
            assert host == "127.0.0.1" and port > 0
            with pytest.raises(TransportTimeout):
                listener.accept(timeout=0.05)

    def test_connect_refused_gives_transport_error(self):
        with TcpListener("127.0.0.1", 0) as listener:
            dead = listener.address
        with pytest.raises(TransportError, match="cannot connect"):
            tcp_connect(dead, retries=1, retry_delay=0.01)

    def test_connect_retries_until_listener_appears(self):
        """Worker/dispatcher startup races are absorbed by connect retries."""
        listener_box = {}

        def late_listener():
            time.sleep(0.3)
            listener_box["l"] = TcpListener("127.0.0.1", port_box[0])

        # Reserve a port, close it, then race a late re-bind against connect.
        probe = TcpListener("127.0.0.1", 0)
        port_box = [probe.address[1]]
        probe.close()
        t = threading.Thread(target=late_listener)
        t.start()
        ch = tcp_connect(("127.0.0.1", port_box[0]), retries=40, retry_delay=0.05)
        t.join()
        server = listener_box["l"].accept(timeout=5.0)
        ch.send("late")
        assert server.recv(timeout=5.0) == "late"
        ch.close(), server.close(), listener_box["l"].close()

    def test_socket_options_applied(self):
        a, b = tcp_pair(nodelay=True, buffer_size=65536)
        a.send(np.arange(10))
        assert np.array_equal(b.recv(timeout=5.0), np.arange(10))
        a.close(), b.close()


class TestAddresses:
    def test_parse_variants(self):
        assert parse_address("10.0.0.1:7001") == ("10.0.0.1", 7001)
        assert parse_address(":7001") == ("127.0.0.1", 7001)
        assert parse_address("7001") == ("127.0.0.1", 7001)
        assert format_address(("h", 5)) == "h:5"

    @pytest.mark.parametrize("bad", ["host:notaport", "host:", "a:b:c:d", "1:99999"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_address(bad)

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="unknown transport"):
            make_pair("smoke-signals")
        assert set(ALL_PAIRS) == set(available_transports())
        assert set(transport.TRANSPORTS) <= set(ALL_PAIRS)

    def test_mpi_transport_gated_on_mpi4py(self):
        assert ("mpi" in available_transports()) == have_mpi()
        if not have_mpi():
            with pytest.raises(TransportError, match="requires mpi4py"):
                make_pair("mpi")

    def test_transport_option_validation(self):
        with pytest.raises(ValueError, match="no options"):
            make_pair("loopback", nodelay=True)


class TestChunking:
    """Forced chunking: a tiny MAX_CHUNK_BYTES must change the wire
    geometry (many chunk messages per frame) but nothing observable."""

    @pytest.fixture(autouse=True)
    def tiny_chunks(self, monkeypatch):
        monkeypatch.setattr(transport, "MAX_CHUNK_BYTES", 64)

    def test_chunk_size_recorded_in_header(self):
        frame = encode_frame(np.arange(8192, dtype=np.int64))
        assert frame.chunk == 64
        # > 1000 chunks for the 64 KiB buffer at 64 B per chunk.
        assert frame.buffers[0].nbytes // frame.chunk > 1000

    @pytest.mark.parametrize("t", ALL_PAIRS)
    def test_multi_chunk_reassembly(self, t):
        a, b = make_pair(t)
        rng = np.random.default_rng(7)
        payload = {
            "slab": rng.integers(-1000, 1000, (321, 17)),
            "floats": rng.standard_normal(4099),
            "blob": bytes(rng.integers(0, 256, 10_001, dtype=np.uint8)),
            "small": list(range(40)),
        }
        box = {}
        reader = threading.Thread(target=lambda: box.update(got=b.recv(timeout=30.0)))
        reader.start()
        n = a.send(payload)
        reader.join(timeout=30)
        assert not reader.is_alive()
        got = box["got"]
        assert np.array_equal(got["slab"], payload["slab"])
        assert np.array_equal(got["floats"], payload["floats"])
        assert got["blob"] == payload["blob"] and got["small"] == payload["small"]
        assert a.bytes_sent == b.bytes_received == n
        a.close(), b.close()

    def test_chunked_totals_match_unchunked(self, monkeypatch):
        """The chunk limit changes wire geometry, never the byte totals."""
        payload = {"slab": np.arange(5000, dtype=np.float64)}
        tiny = encode_frame(payload).nbytes
        monkeypatch.setattr(transport, "MAX_CHUNK_BYTES", 64 * 1024 * 1024)
        assert tiny == encode_frame(payload).nbytes

    def test_sender_chunk_size_wins(self):
        """Receivers follow the header's chunk size, so peers patched to
        different limits still interoperate (as forked workers might be)."""
        a, b = make_pair("mp-pipe")
        # Small enough that the whole frame (~36 chunks) fits the
        # socketpair's send buffer, so the single-threaded send cannot
        # block.
        payload = np.arange(256, dtype=np.int64)
        n = a.send(payload)
        transport.MAX_CHUNK_BYTES = 1 << 20  # receiver-side value differs
        got = b.recv(timeout=10.0)
        assert np.array_equal(got, payload) and b.bytes_received == n
        a.close(), b.close()


def _echo_frames(channel):
    """Spawned-child target: echo each frame back with this endpoint's
    transport name and receive count, until the peer closes."""
    try:
        while True:
            obj = channel.recv(timeout=60.0)
            channel.send((channel.transport, channel.messages_received, obj))
    except ChannelClosed:
        pass
    finally:
        channel.close()


class TestSocketEndpoints:
    """What the two socket transports share: pickling into spawned
    children and the frame-size ceiling."""

    @pytest.mark.parametrize("t", ["mp-pipe", "tcp"])
    def test_endpoint_pickles_into_spawned_child(self, t):
        """Where fork is missing, an endpoint travels to a spawned child
        as a Process argument: the pickler duplicates its socket."""
        parent, child = make_pair(t)
        proc = mp.get_context("spawn").Process(target=_echo_frames, args=(child,), daemon=True)
        proc.start()
        child.detach()
        slab = np.arange(4096, dtype=np.int64)  # rides out-of-band
        n = parent.send(("slab", slab))
        name, count, (tag, got) = parent.recv(timeout=60.0)
        assert name == t and count == 1  # counters start fresh in the child
        assert tag == "slab" and np.array_equal(got, slab)
        assert parent.bytes_sent == n
        parent.close()
        proc.join(timeout=30)
        assert proc.exitcode == 0

    @pytest.mark.parametrize("t", ["mp-pipe", "tcp"])
    @pytest.mark.parametrize("field", ["meta", "buffer"])
    def test_forged_frame_size_is_a_transport_error(self, t, field):
        """A header announcing a 2**62 B segment is rejected before any
        allocation: TransportError, never MemoryError."""
        a, b = make_pair(t)
        huge = 1 << 62
        if field == "meta":
            head, meta = transport.HEAD_FIXED.pack(0, huge, 1 << 20), b""
        else:
            head = transport.HEAD_FIXED.pack(1, 16, 1 << 20) + struct.pack(">Q", huge)
            meta = bytes(16)  # a complete metadata segment, then the buffer
        a._sock.sendall(struct.pack(">I", len(head)) + head + meta)
        with pytest.raises(TransportError, match="MAX_FRAME_BYTES"):
            b.recv(timeout=5.0)
        a.close(), b.close()

    def test_ceiling_applies_to_both_ends(self, monkeypatch):
        a, b = make_pair("mp-pipe")
        a.send(np.arange(8192, dtype=np.int64))
        monkeypatch.setattr(transport, "MAX_FRAME_BYTES", 1024)
        with pytest.raises(TransportError, match="MAX_FRAME_BYTES"):
            b.recv(timeout=5.0)
        with pytest.raises(TransportError, match="MAX_FRAME_BYTES"):
            a.send(np.arange(8192, dtype=np.int64))
        a.close(), b.close()


class TestNonblockingPrimitives:
    """send_nowait / poll / flush / recv_into across every transport."""

    def test_send_nowait_poll_recv(self, pair):
        a, b = pair
        assert not b.poll(0.0)
        n = a.send_nowait(("tag", np.arange(32)))
        a.flush(5.0)
        assert n > 0 and a.bytes_sent == n and a.messages_sent == 1
        assert b.poll(5.0)
        tag, arr = b.recv(timeout=5.0)
        assert tag == "tag" and np.array_equal(arr, np.arange(32))
        assert b.bytes_received == n
        assert not b.poll(0.0)

    def test_send_nowait_books_bytes_immediately(self, pair):
        """Byte accounting is per logical frame at enqueue time, so the
        per-link counters are identical whether or not the kernel has
        accepted the bytes yet — and identical across transports."""
        a, _ = pair
        n = a.send_nowait(np.arange(64, dtype=np.int64))
        assert a.bytes_sent == n == encode_frame(np.arange(64, dtype=np.int64)).nbytes

    def test_flush_with_concurrent_reader_drains_large_backlog(self, pair):
        """A payload far beyond any kernel buffer fully drains through
        flush while the peer reads it."""
        a, b = pair
        big = np.random.default_rng(3).standard_normal((800, 1024))  # ~6.5 MB
        box = {}
        t = threading.Thread(target=lambda: box.update(got=b.recv(timeout=30.0)))
        t.start()
        a.send_nowait(("big", big))
        a.flush(30.0)
        t.join(timeout=30)
        assert not t.is_alive()
        assert np.array_equal(box["got"][1], big)

    def test_head_to_head_send_nowait_never_deadlocks(self, pair):
        """Both sides post a slab-sized send before either receives —
        the overlap round's wire pattern.  Receive paths pump the
        outbound backlog, so the pattern cannot wedge."""
        a, b = pair
        big = np.arange(1_500_000, dtype=np.float64)  # 12 MB each way
        res = {}

        def side(ch, label):
            ch.send_nowait((label, big))
            res[label] = ch.recv(timeout=30.0)
            ch.flush(30.0)

        ta = threading.Thread(target=side, args=(a, "a"))
        tb = threading.Thread(target=side, args=(b, "b"))
        ta.start(), tb.start()
        ta.join(timeout=30), tb.join(timeout=30)
        assert not ta.is_alive() and not tb.is_alive(), "head-to-head wedged"
        assert res["a"][0] == "b" and np.array_equal(res["a"][1], big)
        assert res["b"][0] == "a" and np.array_equal(res["b"][1], big)
        assert a.bytes_sent == b.bytes_received == b.bytes_sent == a.bytes_received

    def test_recv_into_lands_buffer_in_target(self, pair):
        a, b = pair
        payload = np.random.default_rng(4).standard_normal((64, 128))
        out = np.zeros_like(payload)
        box = {}
        t = threading.Thread(
            target=lambda: box.update(got=b.recv_into(out, timeout=10.0)))
        t.start()
        a.send_nowait(("dense", payload))
        a.flush(10.0)
        t.join(timeout=10)
        assert not t.is_alive()
        tag, arr = box["got"]
        assert tag == "dense" and np.array_equal(arr, payload)
        if a.transport in ("mp-pipe", "tcp"):
            # Zero-copy landing: the decoded array aliases the target.
            assert np.shares_memory(arr, out)
            assert np.array_equal(out, payload)

    def test_recv_into_mismatched_size_falls_back(self, pair):
        """A target whose size does not match the inbound buffer is
        ignored — the frame still decodes into fresh memory."""
        a, b = pair
        payload = np.arange(4096, dtype=np.float64)
        out = np.zeros(7)  # wrong size
        a.send_nowait(payload)
        a.flush(5.0)
        got = b.recv_into(out, timeout=5.0)
        assert np.array_equal(got, payload)
        assert not np.shares_memory(got, out)

    def test_zero_row_frame_roundtrip(self, pair):
        """Degenerate halo payload: an empty (0, B) slab crosses every
        transport as a well-formed frame with equal byte accounting."""
        a, b = pair
        empty = np.empty((0, 8), dtype=np.int64)
        n = a.send_nowait(("dense", empty))
        a.flush(5.0)
        tag, arr = b.recv(timeout=5.0)
        assert tag == "dense" and arr.shape == (0, 8) and arr.dtype == np.int64
        assert n == encode_frame(("dense", empty)).nbytes
        assert b.bytes_received == n

    def test_flush_is_noop_when_backlog_empty(self, pair):
        a, _ = pair
        a.flush(0.1)  # nothing pending: returns immediately

    def test_poll_timeout_expires_cleanly(self, pair):
        _, b = pair
        t0 = time.monotonic()
        assert not b.poll(0.15)
        assert time.monotonic() - t0 < 5.0
