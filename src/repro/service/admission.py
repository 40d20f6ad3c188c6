"""Admission control: API-key auth and per-key token-bucket rate limits.

The service ships open by default (no keys configured → every request is
admitted, exactly the PR 5 behaviour).  Configuring keys — via the
``REPRO_API_KEYS`` environment variable (comma-separated) or a key file
(``--api-key-file``, one key per line, ``#`` comments) — flips every
route the route table does not mark public (``/v1/healthz``,
``/v1/metrics`` and ``/v1/openapi.json`` are) to require one:

* no key presented          → ``401 unauthorized``
* unknown key presented     → ``403 forbidden``
* key over its request rate → ``429 rate_limited`` + ``Retry-After``

Keys ride in the ``X-API-Key`` header or as ``Authorization: Bearer
<key>`` — headers only, never query parameters (they would end up in
access logs and the strict unknown-parameter validation).

Rate limiting is a classic token bucket per key: ``rate`` tokens/second
refill up to a ``burst`` cap, one token per admitted request.  A bucket
is created lazily on a key's first request, so memory is bounded by the
number of *configured* keys, not by traffic.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from repro.service.errors import Forbidden, TooManyRequests, Unauthorized

__all__ = [
    "API_KEYS_ENV",
    "TokenBucket",
    "AdmissionControl",
    "load_key_file",
    "keys_from_env",
]

#: Environment variable holding comma-separated API keys.
API_KEYS_ENV = "REPRO_API_KEYS"

def load_key_file(path) -> "tuple[str, ...]":
    """API keys from a file: one per line, blank lines and ``#`` comments
    ignored.  Duplicates collapse; order is preserved otherwise."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    keys = (line.strip() for line in lines)
    return tuple(dict.fromkeys(k for k in keys if k and not k.startswith("#")))


def keys_from_env(environ=None) -> "tuple[str, ...]":
    """API keys from :data:`API_KEYS_ENV` (comma-separated, may be empty)."""
    env = os.environ if environ is None else environ
    keys = (part.strip() for part in env.get(API_KEYS_ENV, "").split(","))
    return tuple(dict.fromkeys(k for k in keys if k))


class TokenBucket:
    """One key's request budget: ``rate`` tokens/s refilling to ``burst``.

    ``take()`` consumes a token if one is available and returns ``None``;
    otherwise it returns the whole-second wait after which a token will
    exist — the ``Retry-After`` value.  Monotonic time, thread-safe.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be > 0, got {rate}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def take(self) -> "int | None":
        with self._lock:
            now = time.monotonic()
            self._tokens = min(
                self.burst, self._tokens + (now - self._stamp) * self.rate
            )
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return None
            deficit = 1.0 - self._tokens
            return max(1, int(-(-deficit // self.rate)))


class AdmissionControl:
    """Decides, per request, whether the caller gets in.

    Parameters
    ----------
    api_keys:
        the accepted keys; empty/None means the service is open and
        :meth:`admit` is a no-op.
    rate / burst:
        per-key token-bucket parameters (requests per second, burst
        cap).  ``rate=None`` disables rate limiting while keeping auth.
    """

    def __init__(
        self,
        api_keys=None,
        *,
        rate: "float | None" = None,
        burst: float = 10.0,
    ) -> None:
        self.api_keys = frozenset(api_keys or ())
        self.rate = rate
        self.burst = float(burst)
        self._buckets: "dict[str, TokenBucket]" = {}
        self._lock = threading.Lock()

    @property
    def enabled(self) -> bool:
        return bool(self.api_keys)

    @staticmethod
    def extract_key(headers) -> "str | None":
        """The API key a request presented, or ``None``.

        ``X-API-Key: <key>`` wins; ``Authorization: Bearer <key>`` is
        the fallback for clients that only speak standard headers.
        """
        key = headers.get("X-API-Key")
        if key:
            return key.strip() or None
        auth = headers.get("Authorization", "")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip() or None
        return None

    def admit(self, headers, *, public: bool = False) -> "str | None":
        """Admit or raise; returns the authenticated key (``None`` when
        the service is open or the route is ``public``).

        Raises :class:`Unauthorized` (no key), :class:`Forbidden`
        (unknown key) or :class:`TooManyRequests` (rate exceeded).
        """
        if not self.enabled or public:
            return None
        key = self.extract_key(headers)
        if key is None:
            raise Unauthorized(
                "missing API key; send X-API-Key or Authorization: Bearer"
            )
        if key not in self.api_keys:
            raise Forbidden("unknown API key")
        if self.rate is not None:
            wait = self._bucket(key).take()
            if wait is not None:
                raise TooManyRequests(
                    f"rate limit exceeded ({self.rate:g} requests/s per "
                    f"key); retry in {wait}s",
                    retry_after=wait,
                    code="rate_limited",
                )
        return key

    def _bucket(self, key: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(key)
            if bucket is None:
                bucket = self._buckets[key] = TokenBucket(self.rate, self.burst)
            return bucket
