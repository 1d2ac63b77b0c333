"""``SocketKVServer`` — the score cache as a real separate process.

A small threaded TCP server speaking the :mod:`repro.net.protocol`
frame format. It hands every data op, under one lock, to its
:attr:`~SocketKVServer.table`: an
:class:`~repro.pipeline.backends.kv.InMemoryKVServer`, the op table
the in-process transport runs. Records, last-access stamps (so
:func:`~repro.pipeline.backends.base.run_gc` LRU policies) and input
checks are therefore the same on both; the server adds ``ping`` and
``stats``.

Run it in-process (tests, doctests)::

    with SocketKVServer() as server:
        store = ScoreStore(f"kv://127.0.0.1:{server.port}")

or as its own process (production shape, one warm cache shared by
many clients)::

    python -m repro.net.server --host 0.0.0.0 --port 7app

``--testing`` additionally enables the debug ops (``flush``,
``set_clock``, ``debug_set_payload``) that the backend parity suite
uses to manipulate the clock and corrupt stored payloads across the
process boundary; production servers reject them.
"""

from __future__ import annotations

import argparse
import os
import socketserver
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import get_registry
from ..pipeline.backends.kv import InMemoryKVServer
from .protocol import (FrameError, decode_frame, encode_frame,
                       pack_result, unpack_record)

_SERVER_REQUESTS = get_registry().counter(
    "repro_net_server_requests_total",
    "Requests served by SocketKVServer instances in this process.",
    labels=("op",))
_SERVER_CONNECTIONS = get_registry().counter(
    "repro_net_server_connections_total",
    "Client connections accepted by SocketKVServer instances.")

#: Ops that mutate server state out-of-band for tests only.
TESTING_OPS = ("flush", "set_clock", "debug_set_payload")


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: a loop of request/response frames."""

    def handle(self) -> None:
        owner: "SocketKVServer" = self.server.owner
        _SERVER_CONNECTIONS.inc()
        while True:
            try:
                header, payload = decode_frame(self.rfile.read)
            except (EOFError, FrameError, OSError):
                return  # client went away (or spoke garbage): drop it
            response, body = owner.serve(header, payload)
            try:
                self.wfile.write(encode_frame(response, body))
                self.wfile.flush()
            except OSError:
                return


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class SocketKVServer:
    """Threaded stdlib-socket KV server for score entries and objects.

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` picks a free one (read ``.port``
        after start).
    testing:
        Enable the :data:`TESTING_OPS` debug ops. Never set this on
        a shared server: ``flush`` drops every entry.
    clock:
        Time source for last-access stamps (tests inject a frozen
        one; ``set_clock`` overrides it remotely under ``testing``).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 testing: bool = False, clock=time.time):
        self.host = host
        self.testing = bool(testing)
        self._lock = threading.Lock()
        self.table = InMemoryKVServer(clock=clock)
        self.requests: Dict[str, int] = {}
        self._started = time.monotonic()
        self._server = _TCPServer((host, port), _Handler,
                                  bind_and_activate=False)
        self._server.owner = self
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "SocketKVServer":
        self._server.server_bind()
        self._server.server_activate()
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name=f"repro-net-kv:{self.port}", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self._thread = None

    def __enter__(self) -> "SocketKVServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------

    def serve(self, header: Dict[str, Any],
              payload: bytes) -> Tuple[Dict[str, Any], bytes]:
        """Serve one decoded request; returns ``(header, payload)``.

        Never raises, so one bad request cannot take the connection
        (or the server) down: a ``ValueError`` (malformed input) is
        answered as ``bad-request``, which clients never retry.
        """
        op = header.get("op")
        _SERVER_REQUESTS.inc(op=str(op))
        with self._lock:
            self.requests[str(op)] = self.requests.get(str(op), 0) + 1
            try:
                return pack_result(op, self._dispatch(op, header, payload))
            except ValueError as error:
                return {"ok": False, "kind": "bad-request",
                        "error": str(error)}, b""
            except Exception as error:  # pragma: no cover - safety net
                return {"ok": False, "kind": "transient",
                        "error": f"{type(error).__name__}: {error}"}, b""

    def _dispatch(self, op, header, payload):
        key, value = header.get("key"), header.get("value")
        if isinstance(value, dict):
            value = unpack_record(value, payload)
        if op == "ping":
            return "pong"
        if op == "stats":
            records = self.table.data.values()
            return {"entries": len(records), "testing": self.testing,
                    "bytes": sum(record["size"] for record in records),
                    "requests": dict(self.requests), "pid": os.getpid(),
                    "uptime_s": time.monotonic() - self._started}
        if op in TESTING_OPS:
            return self._dispatch_testing(op, key, value, payload)
        return self.table.request(op, key=key, value=value)

    def _dispatch_testing(self, op, key, value, payload):
        if not self.testing:
            raise ValueError(
                f"testing op {op!r} disabled (start the server with "
                "--testing to enable it)")
        if op == "flush":
            self.table.data.clear()
            return True
        if op == "set_clock":
            now = value.get("value") if isinstance(value, dict) else value
            if not isinstance(now, (int, float)):
                raise ValueError(f"set_clock needs a number, not {now!r}")
            now = float(now)
            self.table.clock = lambda: now
            return now
        # debug_set_payload; peek checks the key and moves no stamp.
        record = self.table.request("peek", key=key)
        if record is None:
            raise ValueError("no such key")
        record["payload"] = payload
        return True


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.net.server``: run until interrupted.

    Prints ``repro-net listening on HOST:PORT`` once bound (so
    subprocess harnesses can read the chosen port from stdout), then
    serves until SIGINT/SIGTERM.
    """
    parser = argparse.ArgumentParser(
        prog="repro-net-server",
        description="stdlib socket KV server for repro score caches")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 picks a free port (default)")
    parser.add_argument("--testing", action="store_true",
                        help="enable debug ops (flush/set_clock/...)")
    args = parser.parse_args(argv)
    server = SocketKVServer(host=args.host, port=args.port,
                            testing=args.testing).start()
    print(f"repro-net listening on {server.host}:{server.port}",
          flush=True)
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
