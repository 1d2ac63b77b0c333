"""Remote-style key-value backend: retries, timeouts, transport seam.

``KVBackend`` speaks to a *transport* — anything with a
``request(op, key=..., value=..., timeout=...)`` method — and wraps
every call in the client-side semantics a real network cache needs:
a per-request timeout, bounded retries with exponential backoff on
transient faults, and a terminal :class:`KVUnavailableError` once the
budget is exhausted. The shipped :class:`InMemoryKVServer` transport
is the op table with injectable faults and latency in front, which
makes the retry behavior testable offline; implement ``request``
against another remote API and nothing above the transport changes.

Entries live server-side as metadata + payload + a last-access stamp
(Redis ``OBJECT IDLETIME`` style), so LRU GC works against the same
:func:`~repro.pipeline.backends.base.run_gc` policy as local backends.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ...obs.metrics import get_registry
from .base import BackendCorruption, EntryInfo, RawEntry, StoreBackend

# One process-wide retry series across every KV client instance.
_KV_RETRIES = get_registry().counter(
    "repro_kv_retries_total",
    "Transient KV transport faults retried by the client.",
    labels=("op",))


class KVError(Exception):
    """Base class for transport faults."""


class KVTimeoutError(KVError):
    """The request did not complete within the client timeout."""


class KVTransientError(KVError):
    """A retryable server-side hiccup (connection reset, 5xx, ...)."""


class KVUnavailableError(KVError):
    """Retries exhausted; the service is treated as down."""


class InMemoryKVServer:
    """The one KV op table, over the dict :attr:`data`.

    :meth:`request` runs ``get`` (which moves a record's last-access
    stamp), ``peek`` (which does not), ``put``, ``delete``,
    ``contains``, ``keys`` and ``index``, in process or behind
    :class:`~repro.net.server.SocketKVServer`. Malformed input (an
    unknown op, a key that is not a ``str``, a ``put`` value without a
    ``meta`` dict and a non-negative ``int`` size) raises
    ``ValueError``, which clients never retry:

    >>> table = InMemoryKVServer(clock=iter([1.0, 2.0]).__next__)
    >>> table.request("put", key="k", value={"meta": {}, "size": 0})
    True
    >>> table.request("peek", key="k")["last_access"]
    1.0
    >>> table.request("get", key="k")["last_access"]
    2.0
    >>> table.request("put", value={"meta": {}, "size": 0})
    Traceback (most recent call last):
    ...
    ValueError: put needs a str key, not None

    Parameters
    ----------
    latency:
        Simulated per-request service time in seconds; requests whose
        ``timeout`` is below it fail with :class:`KVTimeoutError`
        (no real sleeping — tests stay fast).
    clock:
        Time source for server-side last-access stamps.
    """

    def __init__(self, latency: float = 0.0, clock=time.time):
        self.latency = float(latency)
        self.clock = clock
        self.data: Dict[str, Dict[str, object]] = {}
        self._fault_queue: List[Exception] = []

    def inject_faults(self, *errors: Exception) -> None:
        """Queue transport errors to raise before serving requests."""
        self._fault_queue.extend(errors)

    def request(self, op: str, key: Optional[str] = None,
                value: Optional[Dict[str, object]] = None,
                timeout: Optional[float] = None):
        if self._fault_queue:
            raise self._fault_queue.pop(0)
        if timeout is not None and self.latency > timeout:
            raise KVTimeoutError(
                f"request took {self.latency:.3f}s > timeout {timeout:.3f}s")
        if op == "keys":
            return sorted(self.data)
        if op == "index":
            return [(stored_key, record["size"], record["last_access"],
                     record.get("payload") is None)
                    for stored_key, record in self.data.items()]
        if op not in ("get", "peek", "put", "delete", "contains"):
            raise ValueError(f"unknown op {op!r}")
        if not isinstance(key, str):
            raise ValueError(f"{op} needs a str key, not {key!r}")
        if op == "put":
            if not (isinstance(value, dict)
                    and isinstance(value.get("meta"), dict)
                    and isinstance(value.get("size"), int)
                    and value["size"] >= 0):
                raise ValueError("put needs a meta dict and an int size >= 0")
            self.data[key] = dict(value, last_access=self.clock())
            return True
        if op == "delete":
            return self.data.pop(key, None) is not None
        if op == "contains":
            return key in self.data
        record = self.data.get(key)
        if op == "get" and record is not None:
            record["last_access"] = self.clock()
        return record


class KVBackend(StoreBackend):
    """Store backend over a (possibly remote) key-value transport.

    Parameters
    ----------
    transport:
        Object with a ``request`` method; defaults to a fresh
        :class:`InMemoryKVServer`.
    timeout:
        Per-request timeout handed to the transport.
    max_attempts:
        Total tries per request (first call + retries).
    retry_wait:
        Base backoff in seconds, doubled per retry; ``0`` (the
        default) retries immediately, which is what tests want.
    sleep:
        Sleep function used between retries. Defaults to
        ``time.sleep``; tests inject a fake clock here to assert
        backoff timing without real waiting.
    """

    scheme = "kv"

    def __init__(self, transport=None, timeout: float = 5.0,
                 max_attempts: int = 3, retry_wait: float = 0.0,
                 sleep=time.sleep):
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.transport = transport if transport is not None \
            else InMemoryKVServer()
        self.timeout = float(timeout)
        self.max_attempts = int(max_attempts)
        self.retry_wait = float(retry_wait)
        self.retries = 0
        self._sleep = sleep

    def describe(self) -> str:
        address = self._transport_address()
        suffix = f", {address}" if address else ""
        return f"kv ({type(self.transport).__name__}{suffix})"

    def _transport_address(self) -> Optional[str]:
        """``kv://host:port`` when the transport has a dialable one."""
        spec = getattr(self.transport, "spec", None)
        return spec() if callable(spec) else None

    def spec(self) -> Optional[str]:
        """Worker-reconnectable spec, or ``None`` for process-local.

        A transport that advertises an address (``SocketKVTransport``
        does) makes this backend reopenable from another process, so
        the full client configuration — timeout, attempt budget,
        backoff — is serialized with it and
        :func:`~repro.pipeline.backends.open_backend` reconstructs an
        identical client. The in-memory transport stays ``None``:
        its dict dies with this process and workers must ship results
        back instead of "reconnecting" to a private empty cache.
        """
        address = self._transport_address()
        if not address:
            return None
        return (f"{address}?attempts={self.max_attempts}"
                f"&retry_wait={self.retry_wait:g}"
                f"&timeout={self.timeout:g}")

    def close(self) -> None:
        close = getattr(self.transport, "close", None)
        if callable(close):
            close()

    def _call(self, op: str, key: Optional[str] = None,
              value: Optional[Dict[str, object]] = None):
        last_error: Optional[Exception] = None
        for attempt in range(self.max_attempts):
            try:
                return self.transport.request(op, key=key, value=value,
                                              timeout=self.timeout)
            except (KVTimeoutError, KVTransientError) as error:
                last_error = error
                self.retries += 1
                _KV_RETRIES.inc(op=op)
                if attempt + 1 < self.max_attempts and self.retry_wait:
                    self._sleep(self.retry_wait * (2 ** attempt))
        raise KVUnavailableError(
            f"{op} failed after {self.max_attempts} attempts: "
            f"{last_error}") from last_error

    # ------------------------------------------------------------------
    # StoreBackend interface
    # ------------------------------------------------------------------

    def get(self, key: str, touch: bool = True) -> Optional[RawEntry]:
        record = self._call("get" if touch else "peek", key=key)
        if record is None:
            return None
        meta = record.get("meta") if isinstance(record, dict) else None
        if not isinstance(meta, dict):
            self.delete(key)
            raise BackendCorruption(f"malformed record under {key}")
        payload = record.get("payload")
        return RawEntry(meta=meta,
                        payload=None if payload is None else bytes(payload))

    def put(self, key: str, entry: RawEntry) -> None:
        payload = entry.payload
        size = len(repr(entry.meta)) \
            + (0 if payload is None else len(payload))
        self._call("put", key=key, value={"meta": entry.meta,
                                          "payload": payload,
                                          "size": size})

    def contains(self, key: str) -> bool:
        return bool(self._call("contains", key=key))

    def delete(self, key: str) -> bool:
        return bool(self._call("delete", key=key))

    def keys(self) -> List[str]:
        return list(self._call("keys"))

    def entries(self) -> List[EntryInfo]:
        return [EntryInfo(key=key, size=int(size),
                          last_access=float(last_access),
                          negative=bool(negative))
                for key, size, last_access, negative
                in self._call("index")]
