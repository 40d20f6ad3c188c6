"""Long-lived cluster worker: one shard of a distributed run, over TCP.

A worker is a small server speaking the :mod:`repro.cluster.protocol`
frames.  Each coordinator connection carries one *session*:

1. **Handshake** — the coordinator's ``hello`` names the shard (index,
   chunk/vertex range), carries the run's seed entropy, the base
   partitioner spec and the scoring profile; the worker acknowledges
   with its protocol version and its own ``--seed`` token, so a
   mis-wired cluster fails at the handshake rather than mid-round.
2. **Ingest** — the shard's data arrives straight off the socket and is
   never materialised as a file: ``ship="chunks"`` sends decoded CSR
   chunk frames (wrapped in a :class:`_ShardSlice` facade), while
   ``ship="text"`` streams raw text blocks into the byte-source readers
   (:func:`~repro.streaming.reader.stream_hmetis` /
   :func:`~repro.streaming.reader.stream_matrix_market`), which spill
   to worker-local temp storage exactly as a local ingest would.
3. **Rounds** — the worker drives the *same*
   :func:`~repro.streaming.sharded.shard_stream_task` generator the
   forked path runs, answering ``round`` frames until ``stop``; the
   barrier lives coordinator-side, mirroring
   :class:`~repro.engine.parallel.ShardRounds`.

After a session the worker returns to its accept loop for the next
coordinator (or a ``shutdown`` frame).  Every significant event is
emitted as a JSONL line — the experiment harness tails these — and the
``listening`` line on stdout doubles as the readiness signal.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time

import numpy as np

import hmac

from repro.cluster.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    ConnectionClosedError,
    ProtocolError,
    base_from_spec,
    fresh_nonce,
    hmac_proof,
    negotiate_version,
    recv_message,
    send_message,
)
from repro.engine.blocks import VertexBlock
from repro.streaming.reader import ChunkStream
from repro.streaming.sharded import shard_stream_task

__all__ = ["ClusterWorker"]


class _Shutdown(Exception):
    """Raised internally when a peer sends the shutdown frame."""


class _Refusal(ProtocolError):
    """A session fault the worker names to its peer by a stable ``code``."""

    def __init__(self, code: str, error: str) -> None:
        super().__init__(error)
        self.code = code


def _send_error(conn: socket.socket, error: str, code: "str | None" = None) -> None:
    """Best-effort ``error`` frame; v1 framing, so any peer can read it."""
    message = {"type": "error", "error": error}
    if code is not None:
        message["code"] = code
    try:
        send_message(conn, message, version=1)
    except OSError:
        pass  # the peer is already gone


def _chunk_problem(msg: dict, start: int, num_edges: int) -> "str | None":
    """Why a shipped ``chunk`` frame is unusable, or ``None`` if it is sound.

    ``start`` is where the previous frame stopped: the frames must tile
    the shard's vertex range in order, and each must be a well-formed
    CSR block over edge ids ``[0, num_edges)``.
    """
    stop = msg.get("stop")
    if msg.get("start") != start or not isinstance(stop, int) or stop < start:
        return f"expected a chunk from vertex {start}, got {msg.get('start')!r}"
    n = stop - start
    ptr, edges, weights = (
        msg.get(k) for k in ("vertex_ptr", "vertex_edges", "vertex_weights")
    )
    arrays = (ptr, edges, weights)
    if not all(isinstance(a, np.ndarray) and a.ndim == 1 for a in arrays) or (
        ptr.dtype.kind not in "iu" or edges.dtype.kind not in "iu"
    ):
        return "CSR fields must be 1-d arrays (integer pointer and edges)"
    if ptr.size != n + 1:
        return f"vertex_ptr has {ptr.size} entries for {n} vertices"
    if ptr[0] != 0 or ptr[-1] != edges.size or (np.diff(ptr) < 0).any():
        return f"vertex_ptr must run non-decreasing from 0 to {edges.size}"
    if edges.size and (edges.min() < 0 or edges.max() >= num_edges):
        return f"edge ids outside [0, {num_edges})"
    # the state's batched updates rely on a vertex's nets being distinct
    first = np.zeros(edges.size, dtype=bool)
    first[ptr[:-1][ptr[:-1] < edges.size]] = True
    if ((np.diff(edges) <= 0) & ~first[1:]).any():
        return "each vertex's edge ids must be strictly increasing"
    if weights.size != n:
        return f"{weights.size} vertex weights for {n} vertices"
    return None


class _ShardSlice(ChunkStream):
    """Facade over socket-shipped chunks covering chunk range [lo, hi).

    Presents exactly the :class:`ChunkStream` surface
    :func:`shard_stream_task` touches — ``num_vertices`` plus
    ``iter_range`` over the shard's own range, with global vertex ids
    intact — without ever holding the rest of the stream.
    """

    name = "shard-slice"

    def __init__(
        self, chunks: "list[VertexBlock]", lo: int, num_vertices: int
    ) -> None:
        self._chunks = chunks
        self._lo = lo
        self.num_vertices = int(num_vertices)

    def iter_range(self, lo: int, hi: int):
        if lo < self._lo or hi > self._lo + len(self._chunks):
            raise ValueError(
                f"chunk range [{lo}, {hi}) outside shipped shard "
                f"[{self._lo}, {self._lo + len(self._chunks)})"
            )
        return iter(self._chunks[lo - self._lo : hi - self._lo])


class ClusterWorker:
    """Serve shards of distributed partitioning runs on one TCP port.

    Parameters
    ----------
    host, port:
        bind address; ``port=0`` picks an ephemeral port (reported by
        the ``listening`` event and :attr:`port`).
    seed:
        this worker's seed token, echoed in the handshake ack and the
        logs — the harness derives one per worker so runs are
        attributable; shard determinism itself comes from the
        coordinator's shipped entropy.
    max_frame:
        per-frame payload bound passed to the protocol receiver.
    log_path:
        JSONL event log destination (appended); events always also go
        to stdout.
    psk:
        pre-shared key bytes.  When set, every session must complete
        the mutual HMAC challenge (coordinators without the key get a
        stable ``auth_required``/``auth_failed`` error frame and are
        dropped before any shard data flows).
    max_version:
        highest protocol version this worker negotiates (default: the
        build's own).  Clamping to 1 makes a current worker behave as
        a v1 peer — the compatibility tests use it.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        seed: "int | None" = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        log_path=None,
        psk: "bytes | None" = None,
        max_version: int = PROTOCOL_VERSION,
    ) -> None:
        if not 1 <= int(max_version) <= PROTOCOL_VERSION:
            raise ValueError(
                f"max_version must be in [1, {PROTOCOL_VERSION}], "
                f"got {max_version}"
            )
        self.host = host
        self.port = int(port)
        self.seed = seed
        self.max_frame = int(max_frame)
        self.log_path = log_path
        self.psk = bytes(psk) if psk is not None else None
        self.max_version = int(max_version)
        self._server: "socket.socket | None" = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def _log(self, event: str, **fields) -> None:
        line = json.dumps(
            {"event": event, "t": time.time(), "port": self.port, **fields},
            separators=(",", ":"),
        )
        print(line, flush=True)
        if self.log_path is not None:
            with open(self.log_path, "a", encoding="utf-8") as fh:
                fh.write(line + "\n")

    # ------------------------------------------------------------------
    def bind(self) -> int:
        """Bind and listen; returns the bound port."""
        if self._server is not None:
            return self.port
        srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        srv.bind((self.host, self.port))
        srv.listen(4)
        # Accept wakes up periodically to observe stop().
        srv.settimeout(0.2)
        self._server = srv
        self.port = srv.getsockname()[1]
        return self.port

    def serve_forever(self) -> None:
        """Accept coordinator sessions until ``shutdown`` or :meth:`stop`."""
        self.bind()
        self._log("listening", host=self.host, seed=self.seed)
        try:
            while not self._stop.is_set():
                try:
                    conn, addr = self._server.accept()
                except socket.timeout:
                    continue
                try:
                    self._serve_connection(conn, addr)
                except _Shutdown:
                    self._log("shutdown", peer=list(addr))
                    return
                finally:
                    conn.close()
        finally:
            self._server.close()
            self._server = None
            self._log("stopped")

    def stop(self) -> None:
        """Ask the accept loop to exit (thread-safe, idempotent)."""
        self._stop.set()

    def start_in_thread(self) -> threading.Thread:
        """Bind now, serve in a daemon thread (for tests and the CLI)."""
        self.bind()
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread

    # ------------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket, addr) -> None:
        self._log("connected", peer=list(addr))
        while True:
            try:
                msg, _ = recv_message(conn, max_frame=self.max_frame)
            except ConnectionClosedError:
                return  # coordinator hung up between sessions: fine
            except ProtocolError as exc:
                # Bad magic/version/size/truncation: report (best
                # effort), drop the connection — it is mid-frame and
                # unrecoverable — and go back to accepting.
                self._log("refused", code="protocol_error", error=str(exc))
                _send_error(conn, str(exc), "protocol_error")
                return
            kind = msg.get("type")
            if kind == "shutdown":
                try:
                    send_message(conn, {"type": "bye"}, version=1)
                except OSError:
                    pass
                raise _Shutdown
            if kind != "hello":
                _send_error(conn, f"expected hello, got {kind!r}", "protocol_error")
                return
            try:
                self._run_session(conn, msg)
            except (ConnectionClosedError, OSError) as exc:
                # Coordinator died mid-session; the shard state is
                # worthless without it — log and wait for the next one.
                self._log("session_aborted", error=str(exc))
                return
            except ProtocolError as exc:
                # Name the fault to the coordinator, then hang up: a
                # refusal carries its own code, any other session fault
                # (an unexpected frame, ship mode or format) is a
                # ``protocol_error``.
                code = getattr(exc, "code", "protocol_error")
                self._log("refused", code=code, error=str(exc))
                _send_error(conn, str(exc), code)
                return
            except Exception as exc:  # surface shard crashes to the peer
                self._log("session_error", error=repr(exc))
                _send_error(conn, repr(exc))
                return

    # ------------------------------------------------------------------
    def _ingest(self, conn: socket.socket, hello: dict):
        """Receive the shard's data; returns a stream facade."""
        ship = hello["ship"]
        if ship == "chunks":
            chunks: "list[VertexBlock]" = []
            count = hello["hi"] - hello["lo"]
            stop = hello["v_lo"]
            while True:
                msg, _ = recv_message(conn, max_frame=self.max_frame)
                if msg["type"] == "ingest_done":
                    break
                if msg["type"] != "chunk":
                    raise ProtocolError(
                        f"expected chunk frame, got {msg['type']!r}"
                    )
                problem = (
                    "more chunk frames than the shard's range"
                    if len(chunks) == count
                    else _chunk_problem(msg, stop, len(hello["edge_weights"]))
                )
                if problem is not None:
                    raise _Refusal(
                        "bad_chunk", f"chunk {len(chunks)}: {problem}"
                    )
                stop = msg["stop"]
                chunks.append(
                    VertexBlock(
                        ids=np.arange(msg["start"], stop, dtype=np.int64),
                        vertex_ptr=msg["vertex_ptr"],
                        vertex_edges=msg["vertex_edges"],
                        vertex_weights=msg["vertex_weights"],
                    )
                )
            if len(chunks) != count or stop != hello["v_hi"]:
                raise _Refusal(
                    "bad_chunk",
                    f"{len(chunks)} of {count} chunk frames, ending at "
                    f"vertex {stop} of {hello['v_hi']}",
                )
            self._log(
                "ingested", mode="chunks", chunks=len(chunks),
                pins=sum(c.num_pins for c in chunks),
            )
            return _ShardSlice(chunks, hello["lo"], hello["num_vertices"])
        if ship == "text":
            done: dict = {}

            def blocks():
                while True:
                    msg, _ = recv_message(conn, max_frame=self.max_frame)
                    if msg["type"] == "ingest_done":
                        done.update(msg)
                        return
                    if msg["type"] != "blocks":
                        raise ProtocolError(
                            f"expected blocks frame, got {msg['type']!r}"
                        )
                    yield msg["data"]

            from repro.streaming.reader import (
                stream_hmetis,
                stream_matrix_market,
            )

            source = blocks()
            fmt = hello["text_format"]
            if fmt == "hmetis":
                stream = stream_hmetis(
                    source, chunk_size=hello["chunk_size"], name="cluster"
                )
            elif fmt == "mm":
                stream = stream_matrix_market(
                    source,
                    model=hello["text_model"],
                    chunk_size=hello["chunk_size"],
                    name="cluster",
                )
            else:
                raise ProtocolError(f"unknown text format {fmt!r}")
            for _ in source:  # drain to the ingest_done terminator
                pass
            self._log(
                "ingested",
                mode="text",
                format=fmt,
                vertices=stream.num_vertices,
                pins=stream.num_pins,
            )
            return stream
        raise ProtocolError(f"unknown ship mode {ship!r}")

    def _authenticate(self, conn: socket.socket, hello: dict) -> None:
        """Mutual PSK challenge-response (v1-framed, pre-negotiation).

        The worker proves knowledge of the key first (its challenge
        carries the proof over both nonces), then requires the
        coordinator's complementary proof before any shard data flows.
        """
        if self.psk is None:
            if hello.get("auth"):
                raise _Refusal(
                    "auth_required",
                    "coordinator requires auth but this worker has no PSK",
                )
            return
        if not hello.get("auth"):
            raise _Refusal(
                "auth_required",
                "this worker requires a PSK handshake (--psk-file)",
            )
        nonce_c = hello["nonce"]
        nonce_w = fresh_nonce()
        send_message(
            conn,
            {
                "type": "auth_challenge",
                "nonce": nonce_w,
                "proof": hmac_proof(self.psk, "worker", nonce_c, nonce_w),
            },
            version=1,
        )
        reply, _ = recv_message(conn, max_frame=self.max_frame)
        if reply.get("type") != "auth_response":
            raise _Refusal(
                "auth_failed",
                f"expected auth_response, got {reply.get('type')!r}",
            )
        want = hmac_proof(self.psk, "coord", nonce_c, nonce_w)
        proof = reply.get("proof")
        if not isinstance(proof, bytes) or not hmac.compare_digest(
            proof, want
        ):
            raise _Refusal("auth_failed", "bad coordinator proof")
        self._log("auth_ok")

    def _run_session(self, conn: socket.socket, hello: dict) -> None:
        k = hello["shard_index"]
        nshards = hello["nshards"]
        self._authenticate(conn, hello)
        # Version negotiation: the session speaks the highest version
        # both peers know (a v1 coordinator sends no max_version and
        # lands on 1); compression only on v2+ sessions, and only when
        # both sides opted in.
        version = min(
            negotiate_version(hello.get("max_version")), self.max_version
        )
        compress = bool(hello.get("compress")) and version >= 2
        send_message(
            conn,
            {
                "type": "hello_ack",
                "version": version,
                "compress": compress,
                "shard_index": k,
                "worker_seed": self.seed,
                "seed_entropy": hello["seed_entropy"],
            },
            version=1,
        )
        self._log("session_negotiated", version=version, compress=compress)
        stream = self._ingest(conn, hello)
        try:
            profile = hello["profile"]
            edge_weights = hello["edge_weights"]
            # Per-shard generator identical to the forked path's:
            # rebuilding the root SeedSequence from its shipped entropy
            # and spawning afresh reproduces child k of
            # spawn_generators(seed, n) on the coordinator.
            root = np.random.SeedSequence(
                hello["seed_entropy"],
                spawn_key=tuple(hello.get("seed_spawn_key") or ()),
            )
            rng = np.random.default_rng(root.spawn(nshards)[k])
            gen = shard_stream_task(
                base_from_spec(hello["base"]),
                stream,
                lo=hello["lo"],
                hi=hello["hi"],
                v_lo=hello["v_lo"],
                v_hi=hello["v_hi"],
                num_parts=hello["num_parts"],
                C=hello["C"],
                counts=tuple(hello["counts"]),
                shard_weight=hello["shard_weight"],
                total_weight=hello["total_weight"],
                nshards=nshards,
                edge_w=edge_weights if profile["use_edge_weights"] else None,
                final_edge_weights=edge_weights,
                rng=rng,
                profile=profile,
                edge_degrees=hello["edge_degrees"],
                boundary_ship=hello["boundary_ship"],
            )
            send_message(
                conn,
                {"type": "reply", "body": next(gen)},
                version=version,
                compress=compress,
            )
            self._log("phase1_done", shard=k)
            rounds = 0
            while True:
                msg, _ = recv_message(conn, max_frame=self.max_frame)
                if msg["type"] != "round":
                    raise ProtocolError(
                        f"expected round frame, got {msg['type']!r}"
                    )
                if msg["kind"] == "stop":
                    try:
                        gen.send(("stop", msg["ctl"]))
                    except StopIteration as stop_exc:
                        send_message(
                            conn,
                            {"type": "reply", "body": stop_exc.value},
                            version=version,
                            compress=compress,
                        )
                        self._log("session_done", shard=k, rounds=rounds)
                        return
                    raise ProtocolError(
                        "shard generator yielded instead of finishing on stop"
                    )
                rounds += 1
                send_message(
                    conn,
                    {
                        "type": "reply",
                        "body": gen.send((msg["kind"], msg["ctl"])),
                    },
                    version=version,
                    compress=compress,
                )
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()


def main(argv=None) -> int:
    """Module entry point (``python -m repro.cluster.worker``)."""
    import argparse

    parser = argparse.ArgumentParser(description=ClusterWorker.__doc__)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--log-file", default=None)
    parser.add_argument("--psk-file", default=None)
    args = parser.parse_args(argv)
    psk = None
    if args.psk_file is not None:
        from repro.cluster.protocol import load_psk

        psk = load_psk(args.psk_file)
    ClusterWorker(
        args.host,
        args.port,
        seed=args.seed,
        log_path=args.log_file,
        psk=psk,
    ).serve_forever()
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
