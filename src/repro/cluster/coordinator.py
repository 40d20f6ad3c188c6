"""Coordinator side of distributed partitioning: remote shard rounds.

:class:`DistributedStreamer` is :class:`~repro.streaming.sharded.
ShardedStreamer` with the worker pool swapped out: instead of forking,
:meth:`DistributedStreamer._make_pool` builds a :class:`ClusterRounds`
that connects to long-lived :class:`~repro.cluster.worker.ClusterWorker`
processes over TCP, ships each its chunk range, and drives the same
barrier-synchronised rounds over the wire.  Range assignment, the
boundary-only merge, and the tempering/refinement schedule are all
*inherited* — the distributed layer changes transport, never algorithm —
which is why ``hosts=["localhost:P"]*N`` loopback runs are bit-identical
to ``ShardedStreamer(workers=N)`` (golden-tested).

Failure semantics (the "straggler timeout + reconnect-or-degrade"
contract):

* every socket operation is bounded by ``timeout`` — a killed or hung
  worker surfaces as an exception, never a deadlock;
* on worker loss with ``on_loss="degrade"`` the coordinator first
  re-dials the same endpoint once and **replays** the recorded round
  history (rounds are deterministic functions of the shipped inputs, so
  replayed replies equal the ones already merged and are discarded);
  if the endpoint stays dead, the shard's generator runs locally from
  the same replay — either way the final result is unchanged;
* ``on_loss="fail"`` raises immediately instead (loud, bounded).
"""

from __future__ import annotations

import hmac
import socket
import threading

from repro.cluster.protocol import (
    DEFAULT_MAX_FRAME,
    PROTOCOL_VERSION,
    SUPPORTED_VERSIONS,
    AuthError,
    ProtocolError,
    VersionMismatchError,
    fresh_nonce,
    hmac_proof,
    recv_message,
    send_message,
)
from repro.streaming.reader import DEFAULT_CHUNK_SIZE, ChunkStream
from repro.streaming.sharded import ShardedStreamer

__all__ = ["DistributedStreamer", "ClusterRounds"]

#: exceptions that count as "worker lost" rather than coordinator bugs
_LINK_ERRORS = (OSError, socket.timeout, ProtocolError)


def chunk_frames(stream: ChunkStream, lo: int, hi: int):
    """The ``chunk`` frames that ship chunks ``[lo, hi)`` to a worker."""
    for c, chunk in enumerate(stream.iter_range(lo, hi), start=lo):
        start, stop = stream.chunk_bounds(c)
        yield {
            "type": "chunk",
            "start": int(start),
            "stop": int(stop),
            "vertex_ptr": chunk.vertex_ptr,
            "vertex_edges": chunk.vertex_edges,
            "vertex_weights": chunk.vertex_weights,
        }


class _WorkerLink:
    """One coordinator-to-worker connection with wire accounting.

    ``version``/``compress`` start at the pre-negotiation defaults (v1
    frames, uncompressed — what any peer must accept) and are switched
    by the handshake once the worker's ``hello_ack`` lands.
    """

    def __init__(
        self, host: str, port: int, *, timeout: float, max_frame: int
    ) -> None:
        self.host, self.port = host, port
        self.max_frame = max_frame
        self.wire_bytes = 0
        self.version = 1
        self.compress = False
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.settimeout(timeout)

    def send(self, message) -> None:
        self.wire_bytes += send_message(
            self.sock,
            message,
            version=self.version,
            compress=self.compress,
        )

    def recv(self):
        message, nbytes = recv_message(self.sock, max_frame=self.max_frame)
        self.wire_bytes += nbytes
        if isinstance(message, dict) and message.get("type") == "error":
            code = message.get("code")
            where = f"worker {self.host}:{self.port}"
            if code in ("auth_required", "auth_failed"):
                raise AuthError(
                    f"{where} refused the handshake: {message['error']}",
                    code=code,
                )
            raise ProtocolError(f"{where} reported: {message['error']}")
        return message

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


class ClusterRounds:
    """Drive remote shard generators through barrier rounds over TCP.

    Drop-in for :class:`~repro.engine.parallel.ShardRounds` (``start`` /
    ``exchange`` / ``stop`` / ``close`` / ``run_metadata``), built from:

    ``attach(k)``
        connect + handshake + ship shard ``k``; returns a
        :class:`_WorkerLink` whose *next* received frame is the shard's
        phase-1 reply.
    ``local_tasks[k]``
        zero-arg callable returning the shard's generator locally — the
        degrade target, exact by construction because remote and forked
        shards run the same generator on the same inputs.
    """

    def __init__(
        self,
        *,
        endpoints: "list[tuple[str, int]]",
        attach,
        local_tasks: list,
        on_loss: str = "degrade",
        reconnect: bool = True,
        orphan_meter: "dict | None" = None,
    ) -> None:
        n = len(endpoints)
        if len(local_tasks) != n:
            raise ValueError("one local fallback task per endpoint required")
        self.endpoints = endpoints
        self._attach = attach
        self._local_tasks = list(local_tasks)
        self.on_loss = on_loss
        self.reconnect = reconnect
        # Bytes put on the wire by attach() attempts that never returned
        # a link (handshake or shipping died mid-way) — shared with the
        # attach closure so cluster_wire_bytes never undercounts.
        self.orphan_meter = (
            orphan_meter if orphan_meter is not None else {"bytes": 0}
        )
        self._links: "list[_WorkerLink | None]" = [None] * n
        self._link_info: "list[dict | None]" = [None] * n
        self._gens: list = [None] * n
        self._history: "list[list]" = [[] for _ in range(n)]
        self._tried_reconnect = [False] * n
        self.degraded_shards: "set[int]" = set()
        self.reconnected_shards: "set[int]" = set()
        self._closed_wire_bytes = 0

    # ------------------------------------------------------------------
    @property
    def _n(self) -> int:
        return len(self.endpoints)

    def _note(self, k: int, link: "_WorkerLink") -> None:
        """Record a live link (and its negotiated session facts)."""
        self._links[k] = link
        self._link_info[k] = {
            "version": link.version,
            "compress": link.compress,
        }

    def _lose(self, k: int, exc: Exception) -> None:
        """Mark worker ``k`` lost; raise instead under ``on_loss="fail"``.

        An :class:`AuthError` is never degradable: a refused PSK means a
        configuration (or adversary) problem that running the shard
        locally would silently paper over.
        """
        link = self._links[k]
        if link is not None:
            self._closed_wire_bytes += link.wire_bytes
            link.close()
            self._links[k] = None
        if isinstance(exc, AuthError):
            self.close()
            raise exc
        if self.on_loss == "fail":
            self.close()
            raise RuntimeError(
                f"cluster worker {self.endpoints[k][0]}:"
                f"{self.endpoints[k][1]} lost (shard {k}): {exc}"
            ) from exc

    @staticmethod
    def _drive(gen, message):
        """Send one round message to a local generator; stop-safe."""
        try:
            return gen.send(message)
        except StopIteration as stop_exc:
            return stop_exc.value

    def _fallback(self, k: int, message):
        """Deliver ``message`` to shard ``k`` after its worker was lost.

        Tries one reconnect (full re-handshake + re-ship + history
        replay over the wire); failing that, replays the history into a
        local generator.  Replay replies are discarded — determinism
        makes them byte-for-byte the values already merged.
        """
        if self._gens[k] is None and self.reconnect and not self._tried_reconnect[k]:
            self._tried_reconnect[k] = True
            link = None
            try:
                link = self._attach(k)
                link.recv()  # phase-1 replay, discarded
                for past in self._history[k]:
                    link.send(
                        {"type": "round", "kind": past[0], "ctl": past[1]}
                    )
                    link.recv()  # replayed round, discarded
                link.send(
                    {"type": "round", "kind": message[0], "ctl": message[1]}
                )
                reply = link.recv()
                self._note(k, link)
                self.reconnected_shards.add(k)
                return reply["body"]
            except AuthError:
                if link is not None:
                    self._closed_wire_bytes += link.wire_bytes
                    link.close()
                self.close()
                raise
            except _LINK_ERRORS:
                if link is not None:
                    self._closed_wire_bytes += link.wire_bytes
                    link.close()
        if self._gens[k] is None:
            gen = self._local_tasks[k]()
            next(gen)  # phase-1 replay, discarded
            for past in self._history[k]:
                self._drive(gen, past)
            self._gens[k] = gen
            self.degraded_shards.add(k)
        return self._drive(self._gens[k], message)

    # ------------------------------------------------------------------
    def start(self) -> list:
        """Attach every worker, ship shards, collect phase-1 results."""
        n = self._n
        for k in range(n):
            try:
                self._note(k, self._attach(k))
            except _LINK_ERRORS as exc:
                self._lose(k, exc)
        firsts = [None] * n
        for k in range(n):
            link = self._links[k]
            if link is not None:
                try:
                    firsts[k] = link.recv()["body"]
                    continue
                except _LINK_ERRORS as exc:
                    self._lose(k, exc)
            # Lost before or during phase 1: run the shard locally.
            gen = self._local_tasks[k]()
            firsts[k] = next(gen)
            self._gens[k] = gen
            self.degraded_shards.add(k)
        return firsts

    def exchange(self, messages: list) -> list:
        return self._round(messages)

    def stop(self, messages: list) -> list:
        outs = self._round(messages)
        self.close()
        return outs

    def close(self) -> None:
        for k, link in enumerate(self._links):
            if link is not None:
                self._closed_wire_bytes += link.wire_bytes
                link.close()
                self._links[k] = None

    def __enter__(self) -> "ClusterRounds":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run_metadata(self) -> dict:
        """Pool facts the driver surfaces in result metadata."""
        live = sum(link.wire_bytes for link in self._links if link is not None)
        return {
            "parallel_mode": "distributed",
            "hosts": [f"{h}:{p}" for h, p in self.endpoints],
            "cluster_wire_bytes": int(
                self._closed_wire_bytes + live + self.orphan_meter["bytes"]
            ),
            "cluster_wire_versions": [
                info["version"] if info is not None else None
                for info in self._link_info
            ],
            "cluster_compress": [
                info["compress"] if info is not None else None
                for info in self._link_info
            ],
            "degraded_shards": sorted(self.degraded_shards),
            "reconnected_shards": sorted(self.reconnected_shards),
        }

    # ------------------------------------------------------------------
    def _round(self, messages: list) -> list:
        # Pipelined sends: a sender thread encodes and ships the round
        # frames in shard order while this thread collects replies in
        # the same order — serialisation (and zlib) for shard k+1
        # overlaps both shard k's compute and its reply in flight.
        # The sender only ever touches links the collector has not yet
        # reached (it stays ahead by construction: the collector waits
        # on ``sent[k]`` before acting on shard ``k``).
        n = self._n
        send_errs: "list[Exception | None]" = [None] * n
        sent = [threading.Event() for _ in range(n)]

        def pump() -> None:
            for k in range(n):
                link = self._links[k]
                if link is not None:
                    try:
                        link.send(
                            {
                                "type": "round",
                                "kind": messages[k][0],
                                "ctl": messages[k][1],
                            }
                        )
                    except _LINK_ERRORS as exc:
                        send_errs[k] = exc
                sent[k].set()

        sender = threading.Thread(
            target=pump, name="cluster-round-sender", daemon=True
        )
        sender.start()
        outs = []
        try:
            for k in range(n):
                sent[k].wait()
                link = self._links[k]
                if send_errs[k] is not None:
                    self._lose(k, send_errs[k])
                    outs.append(self._fallback(k, messages[k]))
                elif link is not None:
                    try:
                        outs.append(link.recv()["body"])
                    except _LINK_ERRORS as exc:
                        self._lose(k, exc)
                        outs.append(self._fallback(k, messages[k]))
                elif self._gens[k] is not None:
                    outs.append(self._drive(self._gens[k], messages[k]))
                else:
                    outs.append(self._fallback(k, messages[k]))
                self._history[k].append(messages[k])
        finally:
            sender.join()
        return outs


class DistributedStreamer(ShardedStreamer):
    """Sharded streaming across worker processes on other hosts.

    Parameters (beyond :class:`ShardedStreamer`'s)
    ----------
    hosts:
        worker endpoints, as ``"host:port"`` strings or ``(host, port)``
        pairs; the worker count *is* ``len(hosts)`` (clamped to the
        stream's chunk count exactly like forked workers).
    ship:
        how each worker receives its shard: ``"chunks"`` (default)
        sends decoded CSR chunk frames for exactly its range;
        ``"text"`` broadcasts the raw source file in byte blocks and
        the worker ingests through the byte-source readers (requires a
        text-backed stream with uniform chunking, i.e. a recorded
        ``source_path`` and no ``pin_budget``).
    timeout:
        per-socket-operation straggler bound in seconds.
    on_loss:
        ``"degrade"`` (default) reconnect-or-run-locally on worker
        loss; ``"fail"`` raise immediately.
    reconnect:
        whether degrade mode attempts one re-dial before going local.
    max_frame:
        protocol frame bound for received replies.
    compress:
        offer zlib frame compression in the handshake (default
        ``True``).  Only takes effect when the worker negotiates
        protocol v2 and accepts; a v1 worker silently gets
        uncompressed frames.  Compression changes bytes on the wire,
        never decoded content — assignments are bit-identical.
    psk:
        pre-shared key bytes for the mutual HMAC handshake (``None``
        disables auth).  Workers started with a ``--psk-file`` refuse
        unauthenticated coordinators with a stable error frame, and
        vice versa a wrong key raises :class:`AuthError` here —
        auth failures never silently degrade to a local run.
    """

    name = "stream-cluster"

    def __init__(
        self,
        base=None,
        *,
        hosts,
        ship: str = "chunks",
        timeout: float = 30.0,
        on_loss: str = "degrade",
        reconnect: bool = True,
        max_frame: int = DEFAULT_MAX_FRAME,
        compress: bool = True,
        psk: "bytes | None" = None,
        boundary_max_iterations: "int | None" = (
            ShardedStreamer.DEFAULT_BOUNDARY_MAX_ITERATIONS
        ),
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        payload: str = "boundary",
        shard_by: str = "pins",
        tailored: bool = True,
    ) -> None:
        endpoints = [self._parse_host(h) for h in hosts]
        if not endpoints:
            raise ValueError("hosts must name at least one worker endpoint")
        if ship not in ("chunks", "text"):
            raise ValueError(f"ship must be 'chunks' or 'text', got {ship!r}")
        if on_loss not in ("degrade", "fail"):
            raise ValueError(
                f"on_loss must be 'degrade' or 'fail', got {on_loss!r}"
            )
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        super().__init__(
            base,
            workers=len(endpoints),
            boundary_max_iterations=boundary_max_iterations,
            chunk_size=chunk_size,
            payload=payload,
            shard_by=shard_by,
            tailored=tailored,
        )
        if not hasattr(self.base, "_shard_spec"):
            raise TypeError(
                f"{type(self.base).__name__} cannot be shipped to remote "
                "workers (no _shard_spec)"
            )
        self.hosts = endpoints
        self.ship = ship
        self.timeout = float(timeout)
        self.on_loss = on_loss
        self.reconnect = bool(reconnect)
        self.max_frame = int(max_frame)
        self.compress = bool(compress)
        self.psk = bytes(psk) if psk is not None else None

    @staticmethod
    def _parse_host(value) -> "tuple[str, int]":
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return str(value[0]), int(value[1])
        text = str(value)
        host, sep, port = text.rpartition(":")
        if not sep or not port.isdigit():
            raise ValueError(
                f"host must be 'host:port' or (host, port), got {value!r}"
            )
        return host, int(port)

    # ------------------------------------------------------------------
    def _make_pool(self, stream: ChunkStream, seed, ctx: dict):
        """Build the TCP round pool (overrides the forked default)."""
        nshards = len(ctx["ranges"])
        endpoints = self.hosts[:nshards]
        text_format = text_model = source_path = None
        if self.ship == "text":
            source_path = getattr(stream, "source_path", None)
            if source_path is None:
                raise ValueError(
                    "ship='text' needs a text-backed stream with a "
                    "recorded source_path; use ship='chunks' for "
                    f"{type(stream).__name__}"
                )
            if stream.pin_budget is not None:
                raise ValueError(
                    "ship='text' requires uniform chunking (no "
                    "pin_budget): workers must re-derive identical "
                    "chunk boundaries from the text alone"
                )
            kind = type(stream).__name__
            if kind == "HmetisChunkStream":
                text_format = "hmetis"
            elif kind == "MatrixMarketChunkStream":
                text_format = "mm"
                text_model = stream.model
            else:
                raise ValueError(
                    f"ship='text' does not support {kind} streams"
                )
        common = {
            "type": "hello",
            "version": PROTOCOL_VERSION,
            "max_version": PROTOCOL_VERSION,
            "compress": self.compress,
            "nshards": nshards,
            "num_parts": ctx["num_parts"],
            "num_vertices": int(stream.num_vertices),
            "counts": [int(ctx["counts"][0]), int(ctx["counts"][1])],
            "total_weight": float(ctx["total_weight"]),
            "seed_entropy": seed.entropy,
            "seed_spawn_key": [int(x) for x in seed.spawn_key],
            "base": self.base._shard_spec(),
            "profile": ctx["profile"],
            "C": ctx["C"],
            "edge_weights": stream.edge_weights,
            "edge_degrees": ctx["edge_degrees"],
            "boundary_ship": ctx["boundary_ship"],
            "ship": self.ship,
            "chunk_size": int(stream.chunk_size),
            "text_format": text_format,
            "text_model": text_model,
        }

        orphan_meter = {"bytes": 0}
        psk = self.psk

        def attach(k: int) -> _WorkerLink:
            host, port = endpoints[k]
            link = _WorkerLink(
                host, port, timeout=self.timeout, max_frame=self.max_frame
            )
            try:
                lo, hi = ctx["ranges"][k]
                v_lo, v_hi = ctx["vertex_bounds"][k]
                hello = dict(
                    common,
                    shard_index=k,
                    lo=int(lo),
                    hi=int(hi),
                    v_lo=int(v_lo),
                    v_hi=int(v_hi),
                    shard_weight=float(ctx["shard_weights"][k]),
                )
                nonce_c = None
                if psk is not None:
                    nonce_c = fresh_nonce()
                    hello["auth"] = True
                    hello["nonce"] = nonce_c
                # The hello (and the whole auth exchange) is framed at
                # v1 — the one dialect every peer speaks — so a v1
                # worker can read it and negotiate down.
                link.send(hello)
                ack = link.recv()
                if psk is not None:
                    if ack.get("type") != "auth_challenge":
                        raise AuthError(
                            f"worker {host}:{port} did not answer the "
                            f"auth challenge (got {ack.get('type')!r}); "
                            "is it running with the same --psk-file?",
                            code="auth_required",
                        )
                    nonce_w = ack["nonce"]
                    want = hmac_proof(psk, "worker", nonce_c, nonce_w)
                    if not hmac.compare_digest(ack["proof"], want):
                        link.send(
                            {
                                "type": "error",
                                "code": "auth_failed",
                                "error": "bad worker proof",
                            }
                        )
                        raise AuthError(
                            f"worker {host}:{port} presented a bad PSK "
                            "proof",
                        )
                    link.send(
                        {
                            "type": "auth_response",
                            "proof": hmac_proof(
                                psk, "coord", nonce_c, nonce_w
                            ),
                        }
                    )
                    ack = link.recv()
                if ack.get("type") != "hello_ack":
                    raise ProtocolError(
                        f"expected hello_ack, got {ack.get('type')!r}"
                    )
                negotiated = ack.get("version")
                if negotiated not in SUPPORTED_VERSIONS:
                    raise VersionMismatchError(
                        f"worker {host}:{port} negotiated protocol "
                        f"v{negotiated}, coordinator speaks "
                        f"v{'/v'.join(str(v) for v in SUPPORTED_VERSIONS)}"
                    )
                link.version = int(negotiated)
                link.compress = bool(
                    self.compress
                    and link.version >= 2
                    and ack.get("compress", False)
                )
                if self.ship == "chunks":
                    for chunk_frame in chunk_frames(stream, lo, hi):
                        link.send(chunk_frame)
                else:
                    with open(source_path, "rb") as fh:
                        while True:
                            block = fh.read(1 << 20)
                            if not block:
                                break
                            link.send({"type": "blocks", "data": block})
                link.send({"type": "ingest_done"})
            except BaseException:
                # The attempt still cost wire bytes; without this the
                # meter undercounts every failed handshake/ship.
                orphan_meter["bytes"] += link.wire_bytes
                link.close()
                raise
            return link

        return ClusterRounds(
            endpoints=endpoints,
            attach=attach,
            local_tasks=self._local_tasks(stream, ctx),
            on_loss=self.on_loss,
            reconnect=self.reconnect,
            orphan_meter=orphan_meter,
        )
