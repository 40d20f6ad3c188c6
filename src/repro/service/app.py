"""HTTP adapter: stdlib ``http.server`` in front of the route handlers.

Dependency-free by design (the repo rule: nothing beyond numpy/scipy) —
:class:`PartitionService` is a ``ThreadingHTTPServer`` whose request
handler does wire work only: route matching against
:data:`~repro.service.handlers.ROUTES`, query parsing, request body
framing (``Content-Length`` or ``Transfer-Encoding: chunked``,
yielded as byte blocks so uploads stream straight into the parsers),
and JSON/streamed responses.  Everything with behaviour lives in
:class:`~repro.service.handlers.ServiceHandlers`.

Run it embedded (tests, benchmarks)::

    from repro.service import PartitionService, ServiceConfig

    with PartitionService(ServiceConfig(port=0)) as svc:   # ephemeral port
        print(svc.url)                                     # http://127.0.0.1:NNNNN
        ...                                                # drive it over HTTP

or from the CLI (``hyperpraw-repro serve --port 8080 --cache-dir DIR``),
which calls :func:`serve`.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qsl, urlsplit

from repro.service.errors import (
    BadRequest,
    LengthRequired,
    MethodNotAllowed,
    NotFound,
    PayloadTooLarge,
    ServiceError,
    error_body,
)
from repro.service.handlers import ServiceConfig, ServiceHandlers, resolve

__all__ = ["PartitionService", "READ_TIMEOUT_S", "make_server", "serve"]

log = logging.getLogger("repro.service")

#: Upload read granularity (bytes per block handed to the parser).
_BODY_BLOCK = 1 << 16

#: Seconds a request socket may stay silent before a read gives up, so
#: a client that stalls mid-request cannot hold its handler thread
#: forever.  A stalled request line or header ends the connection; a
#: stalled body is a 400.
READ_TIMEOUT_S = 30.0

_HEX_DIGITS = frozenset(b"0123456789abcdefABCDEF")


def _stall_checked(blocks, declared: "int | None"):
    """``blocks``, with a read that outlasts :data:`READ_TIMEOUT_S` as a
    400 naming how much of the body arrived (never a 500).  ``declared``
    is the ``Content-Length``, ``None`` for a chunked body."""
    received = 0
    try:
        for block in blocks:
            received += len(block)
            yield block
    except TimeoutError:
        raise BadRequest(
            f"body stalled: received {received} bytes of a chunked body"
            if declared is None
            else f"body stalled: received {received} of the declared "
            f"{declared} bytes"
        ) from None


class _RequestHandler(BaseHTTPRequestHandler):
    """Wire-level adapter; one instance per request.

    ``server.api`` (attached by :class:`PartitionService`) is the shared
    :class:`ServiceHandlers`.  HTTP/1.0 close-per-request semantics keep
    streamed responses simple — no chunked response framing needed.
    """

    server_version = "hyperpraw-repro"
    protocol_version = "HTTP/1.0"

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def setup(self) -> None:
        # read per connection, not at class creation: tests shorten it
        self.timeout = READ_TIMEOUT_S
        super().setup()

    def log_message(self, fmt, *args):  # noqa: D102 — quiet by default
        log.debug("%s %s", self.address_string(), fmt % args)

    def _send_json(self, status: int, body: dict, headers=None) -> None:
        data = json.dumps(body, indent=1).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    def _send_stream(self, status: int, content_type: str, blocks) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.end_headers()
        for block in blocks:
            self.wfile.write(block)

    def _send_error(self, exc: ServiceError) -> None:
        # 429s carry the standard back-off hint so clients (and load
        # balancers) know when a retry can succeed.
        retry_after = getattr(exc, "retry_after", None)
        headers = (
            {"Retry-After": str(retry_after)} if retry_after is not None else None
        )
        self._send_json(exc.status, error_body(exc), headers)

    def _body_blocks(self):
        """The request body as an iterator of byte blocks, or ``None``.

        Supports ``Content-Length`` bodies and ``Transfer-Encoding:
        chunked`` uploads (clients that pipe a partition source of
        unknown length).  Raises :class:`LengthRequired` when a body is
        implied but unframed, :class:`PayloadTooLarge` when a declared
        length exceeds the configured cap.
        """
        te = (self.headers.get("Transfer-Encoding") or "").lower()
        if "chunked" in te:
            return _stall_checked(self._chunked_blocks(), None)
        length = self.headers.get("Content-Length")
        if length is None:
            raise LengthRequired(
                "upload requires Content-Length or Transfer-Encoding: chunked"
            )
        try:
            remaining = int(length)
        except ValueError:
            raise LengthRequired(f"bad Content-Length {length!r}") from None
        if remaining == 0:
            return None
        cap = self.server.api.config.max_body_bytes
        if cap is not None and remaining > cap:
            raise PayloadTooLarge(
                f"body is {remaining} bytes; this service caps uploads "
                f"at {cap}"
            )

        def blocks():
            left = remaining
            while left > 0:
                # read1 hands over whatever has arrived, so a read that
                # then times out has already yielded (and counted) every
                # byte received; read(n) would drop its partial block.
                block = self.rfile.read1(min(_BODY_BLOCK, left))
                if not block:
                    # A silently-truncated body must never be stored and
                    # partitioned as if complete.
                    raise BadRequest(
                        f"body truncated: received {remaining - left} of "
                        f"the declared {remaining} bytes"
                    )
                left -= len(block)
                yield block

        return _stall_checked(blocks(), remaining)

    def _chunked_blocks(self):
        cap = self.server.api.config.max_body_bytes

        def blocks():
            received = 0
            while True:
                size_line = self.rfile.readline(1024).strip()
                size_hex = size_line.split(b";", 1)[0].strip()
                # int(_, 16) alone would take "-5", "0x5" and "5_0"
                if not size_hex or not set(size_hex) <= _HEX_DIGITS:
                    raise LengthRequired(f"bad chunked framing: {size_line!r}")
                size = int(size_hex, 16)
                if size == 0:
                    self.rfile.readline(1024)  # trailing CRLF / trailers
                    return
                received += size
                if cap is not None and received > cap:
                    raise PayloadTooLarge(
                        f"chunked body exceeded the {cap}-byte upload cap"
                    )
                left = size
                while left > 0:
                    block = self.rfile.read(min(_BODY_BLOCK, left))
                    if not block:
                        raise BadRequest("body truncated mid-chunk")
                    left -= len(block)
                    yield block
                if self.rfile.readline(1024).strip():
                    raise LengthRequired(
                        "bad chunked framing: no CRLF after a chunk"
                    )

        return blocks()

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        api = self.server.api
        split = urlsplit(self.path)
        path = split.path.rstrip("/") or "/"
        label, routes, args = resolve(path)
        started = time.monotonic()
        try:
            self._serve(api, method, path, routes, args, split.query)
        finally:
            api.observe_request(method, label, time.monotonic() - started)

    def _serve(self, api, method, path, routes, args, query) -> None:
        """Admission, route, method, body framing, then the handler."""
        try:
            api.admit(
                self.headers, public=any(r.public for r in routes.values())
            )
            route = routes.get(method)
            if route is None and routes:
                raise MethodNotAllowed(
                    f"{path} supports {', '.join(routes)} only"
                )
            if route is None:
                raise NotFound(f"no route {path!r}")
            # repeated keys: last wins
            params = dict(parse_qsl(query, keep_blank_values=True))
            body = None
            if route.body is True or (route.body and route.body not in params):
                body = self._body_blocks()
            reply = route.call(api, params, body, args)
            if len(reply) == 3:
                self._send_stream(*reply)
            else:
                self._send_json(*reply)
        except ServiceError as exc:
            self._send_error(exc)
        except BrokenPipeError:
            pass  # client went away mid-response; nothing to report
        except Exception as exc:  # noqa: BLE001 — last-resort 500
            log.exception("unhandled error serving %s %s", method, path)
            self._send_error(
                ServiceError(f"internal error: {type(exc).__name__}: {exc}")
            )

    def do_GET(self):  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self):  # noqa: N802 — http.server API
        self._dispatch("POST")

    def do_PUT(self):  # noqa: N802 — http.server API
        self._dispatch("PUT")

    def do_DELETE(self):  # noqa: N802 — http.server API
        self._dispatch("DELETE")


class PartitionService:
    """The running service: HTTP server + handlers + job pool.

    Parameters
    ----------
    config:
        the :class:`~repro.service.handlers.ServiceConfig`; ``port=0``
        binds an ephemeral port (read it back from :attr:`port`).

    Use as a context manager (tests, benchmarks) or call
    :meth:`serve_forever` from a CLI process.  :meth:`close` shuts the
    socket, stops the worker pool and removes a service-owned cache
    directory.
    """

    def __init__(self, config: "ServiceConfig | None" = None) -> None:
        self.config = config or ServiceConfig()
        self.api = ServiceHandlers(self.config)
        try:
            self._httpd = ThreadingHTTPServer(
                (self.config.host, self.config.port), _RequestHandler
            )
        except OSError:
            # e.g. EADDRINUSE: the handlers already own worker threads
            # and possibly a temp cache dir — release them, don't leak.
            self.api.close()
            raise
        self._httpd.api = self.api
        self._httpd.daemon_threads = True
        self._thread: "threading.Thread | None" = None
        self._serving = False

    @property
    def port(self) -> int:
        """The bound TCP port (resolves ``port=0`` to the real one)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL, e.g. ``http://127.0.0.1:8080``."""
        return f"http://{self.config.host}:{self.port}"

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (CLI path)."""
        self._serving = True
        self._httpd.serve_forever()

    def start(self) -> "PartitionService":
        """Serve on a daemon thread (embedded/test path)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="partition-service", daemon=True
        )
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release every resource (idempotent)."""
        if self._serving:
            # shutdown() handshakes with a serve loop; calling it on a
            # never-served instance would block forever.
            self._httpd.shutdown()
            self._serving = False
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self.api.close()

    def __enter__(self) -> "PartitionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def make_server(config: "ServiceConfig | None" = None) -> PartitionService:
    """Build (without starting) a :class:`PartitionService`.

    Parameters
    ----------
    config:
        service knobs; defaults bind ``127.0.0.1:8080`` with a private
        temporary cache directory and 2 partition workers.

    Returns
    -------
    PartitionService
        ready for :meth:`~PartitionService.start` (background thread) or
        :meth:`~PartitionService.serve_forever` (foreground).
    """
    return PartitionService(config)


def serve(config: "ServiceConfig | None" = None) -> int:
    """Foreground entry point behind ``hyperpraw-repro serve``.

    Prints the bound URL (so scripts can wait for readiness), serves
    until interrupted, and always tears down the worker pool and any
    service-owned cache directory.

    Returns
    -------
    int
        process exit code (0 on clean shutdown / Ctrl-C).
    """
    service = make_server(config)
    print(f"serving on {service.url} (Ctrl-C to stop)", flush=True)
    try:
        service.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        service.close()
    return 0
