"""``SocketKVTransport`` — the network client behind ``KVBackend``.

Speaks the :mod:`repro.net.protocol` frame format to a
:class:`~repro.net.server.SocketKVServer` (or anything wire
compatible) and maps every socket-level failure onto the existing
``KVBackend`` error taxonomy:

- timeouts → :class:`~repro.pipeline.backends.kv.KVTimeoutError`
- resets, refusals, truncated or corrupted frames →
  :class:`~repro.pipeline.backends.kv.KVTransientError`

so the retry/backoff/:class:`KVUnavailableError` machinery — and
everything above it (store degradation, ``probe_backend()`` re-arm,
daemon health) — works unchanged over a real network. The connection
is persistent and re-dialed transparently after any fault, which is
what makes "kill the server, bring it back, the store re-arms" a
client-visible non-event.

The transport also carries a ``spec()`` (``kv://host:port``) so
``KVBackend.spec()`` round-trips through worker processes: workers
reconnect to the same server instead of silently falling back to a
private in-memory cache.
"""

from __future__ import annotations

import contextlib
import socket
import threading
from typing import Any, Dict, Optional

from ..obs.metrics import get_registry
from ..obs.trace import span
from ..pipeline.backends.kv import KVTimeoutError, KVTransientError
from .protocol import (FrameError, decode_frame, encode_frame,
                       pack_record, unpack_result)

_NET_REQUESTS = get_registry().counter(
    "repro_net_requests_total",
    "KV requests sent over socket transports.", labels=("op",))
_NET_ERRORS = get_registry().counter(
    "repro_net_errors_total",
    "Socket transport faults by kind (timeout/transient/rejected).",
    labels=("kind",))
_NET_CONNECTS = get_registry().counter(
    "repro_net_connections_total",
    "TCP connections dialed by socket transports.")
_NET_BYTES_SENT = get_registry().counter(
    "repro_net_bytes_sent_total",
    "Request bytes written by socket transports.")
_NET_BYTES_RECEIVED = get_registry().counter(
    "repro_net_bytes_received_total",
    "Response bytes read by socket transports.")


class SocketKVTransport:
    """Persistent-connection client for the socket KV protocol.

    Satisfies the ``KVBackend`` transport seam — ``request(op,
    key=..., value=..., timeout=...)`` — one instance per backend;
    a lock serializes concurrent requests on the shared connection.

    Parameters
    ----------
    host, port:
        Server address.
    timeout:
        Default per-request socket timeout; ``KVBackend`` overrides
        it per call with its own budget.
    """

    def __init__(self, host: str, port: int, timeout: float = 5.0):
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self._sock: Optional[socket.socket] = None
        self._lock = threading.Lock()

    def spec(self) -> str:
        """Address spec, the transport half of ``KVBackend.spec()``."""
        return f"kv://{self.host}:{self.port}"

    def __repr__(self) -> str:
        return f"SocketKVTransport({self.host!r}, {self.port})"

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------

    def _connect(self, timeout: float) -> socket.socket:
        if self._sock is None:
            self._sock = socket.create_connection(
                (self.host, self.port), timeout=timeout)
            self._sock.setsockopt(socket.IPPROTO_TCP,
                                  socket.TCP_NODELAY, 1)
            _NET_CONNECTS.inc()
        self._sock.settimeout(timeout)
        return self._sock

    def close(self) -> None:
        with self._lock:
            self._drop()

    def _drop(self) -> None:
        if self._sock is not None:
            with contextlib.suppress(OSError):
                self._sock.close()
            self._sock = None

    # ------------------------------------------------------------------
    # the KVBackend transport seam
    # ------------------------------------------------------------------

    def request(self, op: str, key: Optional[str] = None,
                value: Optional[Dict[str, Any]] = None,
                timeout: Optional[float] = None):
        budget = self.timeout if timeout is None else float(timeout)
        header: Dict[str, Any] = {"op": op}
        if key is not None:
            header["key"] = key
        payload = b""
        if value is not None:
            header["value"], payload = pack_record(value)
        _NET_REQUESTS.inc(op=op)
        with span("net.request", op=op, host=self.host,
                  port=self.port), self._lock:
            try:
                reply, body = self._exchange(
                    encode_frame(header, payload), budget)
            except socket.timeout as error:
                self._drop()
                _NET_ERRORS.inc(kind="timeout")
                raise KVTimeoutError(
                    f"{op} to {self.host}:{self.port} timed out "
                    f"after {budget:.3f}s") from error
            except (OSError, EOFError, FrameError) as error:
                self._drop()
                _NET_ERRORS.inc(kind="transient")
                raise KVTransientError(
                    f"{op} to {self.host}:{self.port} failed: "
                    f"{error}") from error
        if not reply.get("ok"):
            message = str(reply.get("error", "unspecified server error"))
            if reply.get("kind") == "bad-request":
                _NET_ERRORS.inc(kind="rejected")
                raise ValueError(message)
            _NET_ERRORS.inc(kind="transient")
            raise KVTransientError(message)
        return unpack_result(op, reply, body)

    def _exchange(self, frame: bytes, budget: float):
        sock = self._connect(budget)
        sock.sendall(frame)
        _NET_BYTES_SENT.inc(len(frame))

        def read(n: int) -> bytes:
            chunk = sock.recv(min(n, 1 << 20))
            _NET_BYTES_RECEIVED.inc(len(chunk))
            return chunk

        return decode_frame(read)
