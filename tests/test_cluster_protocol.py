"""Wire-protocol tests for the cluster layer (socketpair/loopback only).

Pins the frame format and the :class:`ProtocolError` taxonomy: codec
roundtrips (arrays stay arrays, ``bytes`` stay ``bytes`` even though
both travel as raw sections), truncated frames, protocol-version
mismatch, oversized-frame rejection *before* allocation, bad magic —
and the coordinator-facing failure semantics: a worker disconnecting
mid-ingest or mid-round degrades (or fails loudly under
``on_loss="fail"``) within the socket timeout, never hanging.
"""

import json
import socket
import struct
import threading
import time
import zlib

import numpy as np
import pytest

from repro.architecture.cost import uniform_cost_matrix
from repro.cluster.protocol import (
    DEFAULT_MAX_FRAME,
    FLAG_ZLIB,
    HEADER,
    PROTOCOL_MAGIC,
    PROTOCOL_VERSION,
    BadMagicError,
    ConnectionClosedError,
    CorruptFrameError,
    OversizedFrameError,
    ProtocolError,
    TruncatedFrameError,
    VersionMismatchError,
    base_from_spec,
    decode_payload,
    encode_payload,
    frame,
    hmac_proof,
    negotiate_version,
    recv_message,
    send_message,
)
from repro.core.config import HyperPRAWConfig
from repro.streaming import BufferedRestreamer, OnePassStreamer

#: generous guard so a protocol bug surfaces as an error, never a hang
TIMEOUT = 10.0


@pytest.fixture()
def pair():
    a, b = socket.socketpair()
    a.settimeout(TIMEOUT)
    b.settimeout(TIMEOUT)
    yield a, b
    a.close()
    b.close()


class TestPayloadCodec:
    def test_roundtrip_nested(self):
        message = {
            "type": "reply",
            "none": None,
            "flag": True,
            "pi": 3.25,
            "n": 7,
            "text": "héllo",
            "list": [1, [2, {"deep": np.arange(5, dtype=np.int64)}]],
            "f32": np.linspace(0, 1, 7, dtype=np.float32).reshape(7, 1),
            "empty": np.empty((0, 3), dtype=np.float64),
        }
        out = decode_payload(encode_payload(message))
        assert out["type"] == "reply" and out["none"] is None
        assert out["flag"] is True and out["pi"] == 3.25 and out["n"] == 7
        assert out["text"] == "héllo"
        np.testing.assert_array_equal(out["list"][1][1]["deep"], np.arange(5))
        assert out["f32"].dtype == np.float32 and out["f32"].shape == (7, 1)
        assert out["empty"].shape == (0, 3)

    def test_bytes_and_uint8_arrays_stay_distinct(self):
        """Both travel as raw uint8 sections; the placeholder — not the
        dtype — decides what comes back (a genuine uint8 array must not
        be misdecoded as bytes)."""
        message = {"blob": b"\x00\x01raw", "arr": np.array([0, 1], np.uint8)}
        out = decode_payload(encode_payload(message))
        assert isinstance(out["blob"], bytes) and out["blob"] == b"\x00\x01raw"
        assert isinstance(out["arr"], np.ndarray)
        assert out["arr"].dtype == np.uint8

    def test_decoded_arrays_are_writable_copies(self):
        out = decode_payload(encode_payload({"a": np.zeros(4)}))
        out["a"][0] = 1.0  # the round protocol mutates merged counts

    def test_numpy_scalars_decay_to_python(self):
        out = decode_payload(encode_payload({"x": np.int64(3), "y": np.float32(0.5)}))
        assert out["x"] == 3 and isinstance(out["x"], int)
        assert out["y"] == 0.5 and isinstance(out["y"], float)

    def test_unencodable_type_raises(self):
        with pytest.raises(ProtocolError, match="cannot encode"):
            encode_payload({"bad": object()})

    def test_truncated_payload_raises(self):
        payload = encode_payload({"a": np.arange(100)})
        with pytest.raises(TruncatedFrameError):
            decode_payload(payload[:2])
        with pytest.raises(TruncatedFrameError):
            decode_payload(payload[:20])
        with pytest.raises(TruncatedFrameError):
            decode_payload(payload[:-1])


class TestFraming:
    def _deliver(self, pair, data: bytes):
        a, b = pair
        a.sendall(data)
        a.close()
        return b

    def test_send_recv_roundtrip(self, pair):
        a, b = pair
        nbytes = send_message(a, {"type": "ping", "arr": np.arange(3)})
        message, wire = recv_message(b)
        assert message["type"] == "ping"
        np.testing.assert_array_equal(message["arr"], np.arange(3))
        assert wire == nbytes > HEADER.size

    def test_clean_eof_between_frames(self, pair):
        b = self._deliver(pair, b"")
        with pytest.raises(ConnectionClosedError):
            recv_message(b)

    def test_truncated_header(self, pair):
        b = self._deliver(pair, frame(encode_payload({"t": 1}))[: HEADER.size - 3])
        with pytest.raises(TruncatedFrameError):
            recv_message(b)

    def test_truncated_body(self, pair):
        b = self._deliver(pair, frame(encode_payload({"t": 1}))[:-5])
        with pytest.raises(TruncatedFrameError):
            recv_message(b)

    def test_version_mismatch(self, pair):
        b = self._deliver(
            pair, frame(encode_payload({"t": 1}), version=PROTOCOL_VERSION + 1)
        )
        with pytest.raises(
            VersionMismatchError, match=f"protocol v{PROTOCOL_VERSION + 1}"
        ):
            recv_message(b)

    def test_bad_magic(self, pair):
        data = frame(encode_payload({"t": 1}))
        b = self._deliver(pair, b"GET /" + data[5:])
        with pytest.raises(BadMagicError):
            recv_message(b)

    def test_oversized_frame_rejected_before_payload(self, pair):
        """The bound trips on the *declared* length — only the header
        needs to arrive, no payload allocation happens."""
        a, b = pair
        a.sendall(HEADER.pack(PROTOCOL_MAGIC, PROTOCOL_VERSION, 0, 1 << 40))
        with pytest.raises(OversizedFrameError, match=str(1 << 40)):
            recv_message(b)  # payload never sent: must not block on it

    def test_receiver_max_frame_bound(self, pair):
        a, b = pair
        a.sendall(frame(encode_payload({"big": np.zeros(1024, np.uint8)})))
        with pytest.raises(OversizedFrameError):
            recv_message(b, max_frame=64)

    def test_default_bound_is_sane(self):
        assert DEFAULT_MAX_FRAME == 1 << 30
        assert HEADER.format == "<4sHHQ"
        assert HEADER.size == struct.calcsize("<4sHHQ") == 16


class TestBaseFromSpec:
    def test_onepass_roundtrip(self):
        base = OnePassStreamer(
            alpha=0.7,
            presence_threshold=2,
            balance_slack=1.3,
            max_tracked_edges=123,
            scorer="fennel",
            gamma=1.25,
        )
        rebuilt = base_from_spec(base._shard_spec())
        assert isinstance(rebuilt, OnePassStreamer)
        for attr in (
            "alpha",
            "presence_threshold",
            "balance_slack",
            "max_tracked_edges",
            "score_mode",
            "scorer",
            "gamma",
        ):
            assert getattr(rebuilt, attr) == getattr(base, attr), attr

    def test_buffered_roundtrip(self):
        base = BufferedRestreamer(
            HyperPRAWConfig(max_iterations=17, record_history=False),
            buffer_size=96,
            max_tracked_edges=77,
        )
        rebuilt = base_from_spec(base._shard_spec())
        assert isinstance(rebuilt, BufferedRestreamer)
        assert rebuilt.buffer_size == 96
        assert rebuilt.max_tracked_edges == 77
        assert rebuilt.config.max_iterations == 17
        assert rebuilt.workers == 1  # remote bases never fork recursively

    def test_unknown_kind_raises(self):
        with pytest.raises(ProtocolError, match="unknown base"):
            base_from_spec({"kind": "quantum"})


def _full_hello(**overrides):
    """A minimal but complete coordinator hello for a 1-shard session."""
    hello = {
        "type": "hello",
        "version": PROTOCOL_VERSION,
        "max_version": PROTOCOL_VERSION,
        "shard_index": 0,
        "nshards": 1,
        "num_parts": 2,
        "num_vertices": 8,
        "counts": [1, 1],
        "total_weight": 8.0,
        "seed_entropy": 7,
        "seed_spawn_key": [],
        "base": OnePassStreamer()._shard_spec(),
        "profile": {"use_edge_weights": False},
        "C": 4.0,
        "edge_weights": np.ones(4),
        "edge_degrees": np.full(4, 2.0),
        "boundary_ship": "boundary",
        "ship": "chunks",
        "chunk_size": 4,
        "lo": 0,
        "hi": 2,
        "v_lo": 0,
        "v_hi": 8,
        "shard_weight": 8.0,
    }
    hello.update(overrides)
    return hello


def _chunk(start, stop, ptr=None, edges=None, weights=None):
    n = stop - start
    return {
        "type": "chunk", "start": start, "stop": stop,
        "vertex_ptr": np.arange(n + 1) if ptr is None else np.asarray(ptr),
        "vertex_edges": np.arange(n) % 4 if edges is None else np.asarray(edges),
        "vertex_weights": np.ones(n) if weights is None else np.asarray(weights),
    }


#: Frame sequences a worker must refuse for ``_full_hello()`` (chunks
#: [0, 2) = vertices [0, 8), 4 edges); each is cut at the frame the worker
#: rejects, so nothing is left unread when it hangs up.
BAD_CHUNK_FRAMES = {
    "out-of-order": [_chunk(4, 8)],
    "gap": [_chunk(0, 4), _chunk(5, 8)],
    "too-many": [_chunk(0, 4), _chunk(4, 8), _chunk(8, 8)],
    "too-few": [_chunk(0, 4), {"type": "ingest_done"}],
    "short-pointer": [_chunk(0, 4, ptr=[0, 1, 2, 4])],
    "pointer-past-edges": [_chunk(0, 2, ptr=[0, 2, 5], edges=[0, 1])],
    "pointer-decreasing": [_chunk(0, 4, ptr=[0, 3, 2, 3, 4])],
    "edge-out-of-range": [_chunk(0, 4, edges=[0, 1, 99, 2])],
    "negative-edge": [_chunk(0, 4, edges=[0, -1, 2, 3])],
    "weights-length": [_chunk(0, 4, weights=np.ones(3))],
    "repeated-edge": [_chunk(0, 4, ptr=[0, 2, 3, 4, 4], edges=[1, 1, 2, 3])],
    "unsorted-edges": [_chunk(0, 4, ptr=[0, 0, 2, 3, 4], edges=[2, 1, 0, 3])],
}


#: Session faults other than a refusal: (hello overrides, frames sent
#: after the ``hello_ack``, the worker's message).  Each is cut at the
#: frame the worker rejects; ``"phase-1 reply"`` reads the shard's reply.
SESSION_FAULTS = {
    "non-chunk-frame-in-chunk-ingest": (
        {}, [_chunk(0, 4), {"type": "blocks", "data": b""}],
        "expected chunk frame, got 'blocks'",
    ),
    "non-blocks-frame-in-text-ingest": (
        {"ship": "text", "text_format": "hmetis"}, [_chunk(0, 4)],
        "expected blocks frame, got 'chunk'",
    ),
    "unknown-ship-mode": (
        {"ship": "pigeon"}, [], "unknown ship mode 'pigeon'",
    ),
    "unknown-text-format": (
        {"ship": "text", "text_format": "csv"}, [],
        "unknown text format 'csv'",
    ),
    "non-round-frame-between-rounds": (
        {"C": uniform_cost_matrix(2), "counts": [8, 4]},
        [_chunk(0, 4), _chunk(4, 8), {"type": "ingest_done"}, "phase-1 reply",
         {"type": "chunk"}],
        "expected round frame, got 'chunk'",
    ),
}


class TestWorkerSessionFailures:
    """Worker-side protocol handling over a live (threaded) worker."""

    def _session_fault(self, worker, case):
        """Drive ``SESSION_FAULTS[case]`` through a coordinator link; the
        returned link's next frame is the worker's answer."""
        from repro.cluster.coordinator import _WorkerLink

        overrides, frames, _ = SESSION_FAULTS[case]
        link = _WorkerLink(
            "127.0.0.1", worker.port, timeout=TIMEOUT, max_frame=DEFAULT_MAX_FRAME
        )
        link.send(_full_hello(**overrides))
        assert link.recv()["type"] == "hello_ack"
        link.version = PROTOCOL_VERSION
        for msg in frames:
            if msg == "phase-1 reply":
                assert link.recv()["type"] == "reply"
            else:
                link.send(msg)
        return link

    @pytest.mark.parametrize("case", sorted(SESSION_FAULTS))
    def test_session_fault_reaches_coordinator(self, worker, case):
        """A session fault ends in an ``error`` frame naming it, so the
        coordinator raises the worker's message instead of seeing a
        bare hang-up."""
        link = self._session_fault(worker, case)
        try:
            with pytest.raises(ProtocolError, match="reported: ") as info:
                link.recv()
        finally:
            link.close()
        assert not isinstance(info.value, ConnectionClosedError)
        assert SESSION_FAULTS[case][2] in str(info.value)

    def test_session_fault_code(self, worker):
        link = self._session_fault(worker, "unknown-ship-mode")
        with link.sock:
            reply, _ = recv_message(link.sock)
        assert (reply["type"], reply["code"]) == ("error", "protocol_error")

    @pytest.fixture()
    def worker(self):
        from repro.cluster.worker import ClusterWorker

        w = ClusterWorker("127.0.0.1", 0, seed=5)
        thread = w.start_in_thread()
        yield w
        w.stop()
        thread.join(timeout=TIMEOUT)
        assert not thread.is_alive()

    def _connect(self, worker):
        sock = socket.create_connection(
            ("127.0.0.1", worker.port), timeout=TIMEOUT
        )
        sock.settimeout(TIMEOUT)
        return sock

    def test_worker_reports_bad_first_frame(self, worker):
        with self._connect(worker) as sock:
            send_message(sock, {"type": "round", "kind": "pass", "ctl": None})
            reply, _ = recv_message(sock)
            assert reply["type"] == "error"
            assert "hello" in reply["error"]

    def test_worker_survives_version_mismatch(self, worker):
        with self._connect(worker) as sock:
            sock.sendall(
                frame(
                    encode_payload({"type": "hello"}),
                    version=PROTOCOL_VERSION + 9,
                )
            )
            reply, _ = recv_message(sock)
            assert reply["type"] == "error"
        # the accept loop must still be alive for the next peer
        with self._connect(worker) as sock:
            send_message(sock, {"type": "shutdown"})
            reply, _ = recv_message(sock)
            assert reply["type"] == "bye"

    def test_worker_survives_disconnect_during_ingest(self, worker):
        sock = self._connect(worker)
        send_message(sock, _full_hello())
        ack, _ = recv_message(sock)
        assert ack["type"] == "hello_ack"
        assert ack["version"] == PROTOCOL_VERSION
        assert ack["worker_seed"] == 5
        sock.close()  # hang up mid-ingest, before any chunk arrives
        # worker must be back in its accept loop, not wedged in recv
        with self._connect(worker) as sock2:
            send_message(sock2, {"type": "shutdown"})
            reply, _ = recv_message(sock2)
            assert reply["type"] == "bye"

    @pytest.mark.parametrize("case", sorted(BAD_CHUNK_FRAMES))
    def test_worker_rejects_bad_chunk(self, worker, case):
        """A shipped chunk is checked before it is placed: a malformed
        frame ends the session with a ``bad_chunk`` error frame."""
        with self._connect(worker) as sock:
            send_message(sock, _full_hello())
            ack, _ = recv_message(sock)
            for msg in BAD_CHUNK_FRAMES[case]:
                send_message(sock, msg, version=ack["version"])
            reply, _ = recv_message(sock)
        assert (reply["type"], reply["code"]) == ("error", "bad_chunk")

    def test_chunk_check_reads_edges_per_vertex(self):
        """Edge ids restart at each vertex: only a repeat or a descent
        inside one vertex's segment is refused, empty vertices included."""
        from repro.cluster.worker import _chunk_problem

        sound = _chunk(0, 4, ptr=[0, 2, 2, 3, 4], edges=[2, 3, 0, 0])
        assert _chunk_problem(sound, 0, 4) is None

    def test_worker_negotiates_down_for_v1_hello(self, worker):
        """A v1 coordinator sends no ``max_version``: the session must
        run at v1, uncompressed, even if the hello asks for zlib."""
        hello = _full_hello(compress=True)
        del hello["max_version"]
        with self._connect(worker) as sock:
            send_message(sock, hello, version=1)
            ack, _ = recv_message(sock)
            assert ack["type"] == "hello_ack"
            assert ack["version"] == 1
            assert not ack.get("compress", False)

    def test_worker_survives_fuzzed_first_frames(self, worker):
        """Garbage first frames (bad magic, corrupt header, random
        bytes) must never wedge the accept loop — each hostile peer is
        dropped and the next honest one is served."""
        rng = np.random.default_rng(0xF055)
        hostile = [
            b"GET / HTTP/1.1\r\n\r\n",
            HEADER.pack(b"HPCL", PROTOCOL_VERSION, 0xFFFF, 64) + b"\x00" * 64,
            HEADER.pack(b"HPCL", PROTOCOL_VERSION, FLAG_ZLIB, 32)
            + b"not a zlib stream at all!!!!!!!!",
            rng.integers(0, 256, size=200, dtype=np.uint8).tobytes(),
            frame(encode_payload({"type": "hello"}))[:11],  # half a header
        ]
        for data in hostile:
            with self._connect(worker) as sock:
                sock.sendall(data)
                # the worker either reports an error frame or just
                # hangs up; both are fine — reading until EOF bounds it
                try:
                    while sock.recv(1 << 16):
                        pass
                except OSError:
                    pass
        with self._connect(worker) as sock:
            send_message(sock, {"type": "shutdown"})
            reply, _ = recv_message(sock)
            assert reply["type"] == "bye"


    @pytest.mark.parametrize(
        "stall",
        [frame(encode_payload({"type": "hello"}))[:11], b""],
        ids=["half-header", "silent"],
    )
    def test_stalled_first_frame_dropped_at_deadline(
        self, worker, stall, monkeypatch, capsys
    ):
        """A peer that stalls before its first frame is whole is refused
        at the first-frame deadline, and the next peer is served."""
        import repro.cluster.worker as worker_mod

        deadline = 0.3
        monkeypatch.setattr(worker_mod, "FIRST_FRAME_DEADLINE_S", deadline)
        with self._connect(worker) as sock:
            started = time.monotonic()
            sock.sendall(stall)
            reply, _ = recv_message(sock)
            elapsed = time.monotonic() - started
            assert sock.recv(1) == b""  # then hung up
        assert (reply["type"], reply["code"]) == ("error", "protocol_error")
        assert "first frame" in reply["error"]
        assert deadline * 0.9 <= elapsed < deadline + 2.0
        with self._connect(worker) as sock:
            send_message(sock, {"type": "shutdown"})
            reply, _ = recv_message(sock)
            assert reply["type"] == "bye"
        refused = [
            json.loads(line)
            for line in capsys.readouterr().out.splitlines()
            if '"refused"' in line
        ]
        assert [r["code"] for r in refused] == ["protocol_error"]


class TestCoordinatorNeverHangs:
    """Mid-round worker loss: degrade-or-fail within the timeout."""

    def _run(self, on_loss, die_after_rounds=2):
        """Partition against one real worker and one saboteur that
        accepts the session but drops the socket after N round frames."""
        from repro.cluster import DistributedStreamer
        from repro.cluster.worker import ClusterWorker
        from repro.hypergraph.generators import powerlaw_hypergraph
        from repro.streaming import HypergraphChunkStream

        class Saboteur(ClusterWorker):
            def _run_session(self, conn, hello):
                send_message(
                    conn,
                    {
                        "type": "hello_ack",
                        "version": PROTOCOL_VERSION,
                        "shard_index": hello["shard_index"],
                        "worker_seed": self.seed,
                        "seed_entropy": hello["seed_entropy"],
                    },
                )
                stream = self._ingest(conn, hello)
                close = getattr(stream, "close", None)
                seen = 0
                while seen < die_after_rounds:
                    msg, _ = recv_message(conn, max_frame=self.max_frame)
                    if msg["type"] == "round":
                        seen += 1
                if close is not None:
                    close()
                conn.close()  # vanish mid-round without a reply
                # surface as a lost session so the accept loop survives
                raise ConnectionClosedError("saboteur dropped the link")

        hg = powerlaw_hypergraph(260, 320, 3.0, seed=4, name="proto-hang")
        good, bad = ClusterWorker("127.0.0.1", 0), Saboteur("127.0.0.1", 0)
        threads = [good.start_in_thread(), bad.start_in_thread()]
        try:
            streamer = DistributedStreamer(
                OnePassStreamer(),
                hosts=[
                    ("127.0.0.1", good.port),
                    ("127.0.0.1", bad.port),
                ],
                timeout=TIMEOUT,
                on_loss=on_loss,
                reconnect=False,
                chunk_size=32,
            )
            stream = HypergraphChunkStream(hg, 32)
            return streamer.partition_stream(stream, 4, seed=13)
        finally:
            good.stop()
            bad.stop()
            for thread in threads:
                thread.join(timeout=TIMEOUT)
                assert not thread.is_alive()

    def test_midround_loss_degrades_to_identical_result(self):
        from repro.hypergraph.generators import powerlaw_hypergraph
        from repro.streaming import HypergraphChunkStream, ShardedStreamer

        done = {}

        def target():
            done["result"] = self._run("degrade")

        thread = threading.Thread(target=target, daemon=True)
        thread.start()
        thread.join(timeout=60.0)  # the deadlock bound
        assert not thread.is_alive(), "coordinator hung after worker loss"
        result = done["result"]
        assert result.metadata["degraded_shards"] == [1]
        hg = powerlaw_hypergraph(260, 320, 3.0, seed=4, name="proto-hang")
        golden = ShardedStreamer(
            OnePassStreamer(), workers=2, chunk_size=32
        ).partition_stream(HypergraphChunkStream(hg, 32), 4, seed=13)
        np.testing.assert_array_equal(result.assignment, golden.assignment)

    def test_midround_loss_fails_loudly(self):
        with pytest.raises(RuntimeError, match="lost \\(shard 1\\)"):
            self._run("fail")


class TestCompression:
    """The v2 zlib frame flag: honest, bounded, bit-transparent."""

    def _flags(self, data: bytes) -> int:
        return HEADER.unpack(data[: HEADER.size])[2]

    def test_compressed_roundtrip_is_transparent(self, pair):
        a, b = pair
        message = {
            "type": "round",
            "rows": np.zeros((64, 8)),  # very compressible
            "note": "x" * 512,
        }
        nbytes = send_message(a, message, compress=True)
        out, wire = recv_message(b)
        assert out["note"] == "x" * 512
        np.testing.assert_array_equal(out["rows"], np.zeros((64, 8)))
        # it actually compressed: far fewer wire bytes than the payload
        assert wire == nbytes < len(encode_payload(message))

    def test_flag_is_set_only_when_it_helps(self):
        compressible = encode_payload({"z": np.zeros(1024)})
        assert self._flags(frame(compressible, compress=True)) & FLAG_ZLIB
        rng = np.random.default_rng(11)
        noise = encode_payload(
            {"r": rng.integers(0, 256, 4096, dtype=np.uint8)}
        )
        # incompressible: ships raw, flag honest
        assert not self._flags(frame(noise, compress=True)) & FLAG_ZLIB

    def test_tiny_payloads_ship_raw(self):
        tiny = encode_payload({"t": 1})
        framed = frame(tiny, compress=True)
        assert not self._flags(framed) & FLAG_ZLIB
        assert framed.endswith(tiny)

    def test_v1_frames_never_compress(self):
        payload = encode_payload({"z": np.zeros(4096)})
        framed = frame(payload, version=1, compress=True)
        assert not self._flags(framed) & FLAG_ZLIB
        assert framed.endswith(payload)

    def test_zlib_garbage_is_corrupt_frame(self, pair):
        a, b = pair
        bogus = b"definitely not a deflate stream, but a whole frame"
        a.sendall(
            HEADER.pack(PROTOCOL_MAGIC, 2, FLAG_ZLIB, len(bogus)) + bogus
        )
        with pytest.raises(CorruptFrameError, match="inflate"):
            recv_message(b)

    def test_unknown_flag_bits_rejected(self, pair):
        a, b = pair
        payload = encode_payload({"t": 1})
        a.sendall(HEADER.pack(PROTOCOL_MAGIC, 2, 0x8000, len(payload)) + payload)
        with pytest.raises(CorruptFrameError, match="unknown frame flags"):
            recv_message(b)

    def test_compressed_flag_on_v1_rejected(self, pair):
        a, b = pair
        packed = zlib.compress(encode_payload({"t": 1}), 1)
        a.sendall(HEADER.pack(PROTOCOL_MAGIC, 1, FLAG_ZLIB, len(packed)) + packed)
        with pytest.raises(CorruptFrameError, match="v1 frame"):
            recv_message(b)

    def test_decompression_bomb_bounded(self, pair):
        """A tiny wire frame that inflates past ``max_frame`` must be
        rejected *after* inflation is measured, before decode."""
        a, b = pair
        packed = zlib.compress(b"\x00" * 200_000, 9)  # ~200 wire bytes
        a.sendall(HEADER.pack(PROTOCOL_MAGIC, 2, FLAG_ZLIB, len(packed)) + packed)
        with pytest.raises(OversizedFrameError, match="inflates"):
            recv_message(b, max_frame=65536)


class TestNegotiation:
    def test_negotiate_version_rules(self):
        assert negotiate_version(None) == 1  # a v1 peer says nothing
        assert negotiate_version(1) == 1
        assert negotiate_version(2) == 2
        assert negotiate_version(99) == PROTOCOL_VERSION  # future peer
        assert negotiate_version(0) == 1  # nonsense clamps, not crashes
        with pytest.raises(CorruptFrameError, match="max_version"):
            negotiate_version("banana")

    def test_hmac_proof_separates_roles_and_nonces(self):
        psk, nc, nw = b"secret", b"c" * 16, b"w" * 16
        w = hmac_proof(psk, "worker", nc, nw)
        assert w == hmac_proof(psk, "worker", nc, nw)  # deterministic
        assert w != hmac_proof(psk, "coord", nc, nw)  # no reflection
        assert w != hmac_proof(psk, "worker", nw, nc)  # nonce order
        assert w != hmac_proof(b"other", "worker", nc, nw)
        assert len(w) == 32  # SHA-256


class TestProtocolFuzz:
    """Property tests: *any* corruption of a valid frame must land in
    the :class:`ProtocolError` taxonomy — never a hang, never a raw
    ``json``/``zlib``/``struct``/``numpy`` exception leaking through,
    and (because decode happens before any state is touched) never a
    partially-applied message."""

    def _frames(self):
        payload = encode_payload(
            {
                "type": "round",
                "kind": "pass",
                "ctl": {
                    "alpha": 0.5,
                    "rows": np.arange(64, dtype=np.float64).reshape(8, 8),
                },
            }
        )
        return [
            frame(payload, version=1),
            frame(payload, version=2),
            frame(payload, version=2, compress=True),
        ]

    def _recv_bytes(self, data: bytes):
        """Deliver raw bytes then EOF; receive with the guard timeout."""
        a, b = socket.socketpair()
        try:
            a.settimeout(TIMEOUT)
            b.settimeout(TIMEOUT)
            a.sendall(data)
            a.close()
            return recv_message(b)
        finally:
            b.close()

    def test_truncation_at_every_offset(self):
        """Cutting a valid frame at *every* byte offset is either a
        clean EOF (cut at 0) or a truncated frame — nothing else, and
        no cut may hang or return a message."""
        for data in self._frames():
            for cut in range(len(data)):
                expected = (
                    ConnectionClosedError if cut == 0 else TruncatedFrameError
                )
                with pytest.raises(expected):
                    self._recv_bytes(data[:cut])

    def test_every_header_bit_flip_is_taxonomy_error(self):
        """Flipping any single bit of the 16-byte header must raise a
        ProtocolError subclass: magic bits → BadMagic, version bits →
        VersionMismatch, flag bits → CorruptFrame, length bits →
        Oversized/Truncated/Corrupt.  No flip may decode successfully
        (the payload length is exact, so any length change breaks the
        section arithmetic)."""
        for data in self._frames():
            for byte in range(HEADER.size):
                for bit in range(8):
                    mutated = bytearray(data)
                    mutated[byte] ^= 1 << bit
                    with pytest.raises(ProtocolError):
                        self._recv_bytes(bytes(mutated))

    def test_random_corruption_never_leaks_or_hangs(self):
        """Seeded random byte corruption (with random truncation mixed
        in): every outcome is either a taxonomy error or — when the
        flips land entirely inside array section bytes — a message that
        decodes to different *values*.  No other exception type, no
        hang."""
        rng = np.random.default_rng(0xBADF)
        frames = self._frames()
        for trial in range(300):
            data = bytearray(frames[trial % len(frames)])
            for _ in range(int(rng.integers(1, 9))):
                pos = int(rng.integers(0, len(data)))
                data[pos] ^= int(rng.integers(1, 256))
            if rng.random() < 0.3:
                data = data[: int(rng.integers(0, len(data)))]
            try:
                message, _ = self._recv_bytes(bytes(data))
            except ProtocolError:
                continue
            # survivable corruption: the frame still decoded — the
            # property under test is the failure *type*, not that
            # every flip is detected (array bytes carry no checksum)
            assert isinstance(message, (dict, list, str, int, float))
