"""A tiny stdlib client for the backbone daemon.

:class:`ServeClient` speaks the daemon's JSON protocol over
``http.client`` — no dependencies, one connection per call (the daemon
is threaded; connection reuse buys nothing at this request rate and a
fresh connection can never be wedged by a previous failure).

>>> client = ServeClient("127.0.0.1", 8710)      # doctest: +SKIP
>>> reply = client.run([plan.to_json()])         # doctest: +SKIP
>>> reply["results"][0]["kept_share"]            # doctest: +SKIP
0.25
"""

from __future__ import annotations

import http.client
import json
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .daemon import DeadlineExceeded

__all__ = ["ServeClient", "ServeError", "DeadlineExceeded"]


class ServeError(RuntimeError):
    """The daemon answered with a request-level error.

    ``status`` is the HTTP status, ``kind`` the error type name from
    the response body (e.g. ``"BadRequest"``), or ``"Protocol"`` when
    the reply is not JSON (the server is not a backbone daemon).
    """

    def __init__(self, status: int, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.status = status
        self.kind = kind


class ServeClient:
    """Talk to a running :class:`~repro.serve.BackboneDaemon`.

    ``timeout`` bounds each HTTP call at the socket level; give it
    headroom over the request deadline you pass to :meth:`run`, since
    the deadline is enforced (and reported precisely) by the daemon.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8710,
                 timeout: float = 60.0):
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)

    # -- protocol calls ------------------------------------------------

    def run(self, plans: Sequence[Union[str, Dict[str, object]]],
            deadline: Optional[float] = None,
            return_edges: bool = False,
            trace: bool = False) -> Dict[str, object]:
        """POST a batch of plan artifacts; return the decoded reply.

        ``plans`` holds :meth:`~repro.flow.Plan.to_json` strings or
        already-decoded artifact dicts. Raises :class:`DeadlineExceeded`
        when the daemon reports the deadline passed first, and
        :class:`ServeError` for any other request-level failure; plan-
        level failures come back inside ``reply["results"]``.

        ``trace=True`` asks the daemon to trace this request; the
        reply then carries a ``"trace"`` artifact (trace id, span
        tree, per-stage durations — see :mod:`repro.obs`).
        """
        body: Dict[str, object] = {
            "plans": [json.loads(p) if isinstance(p, str) else p
                      for p in plans],
            "return_edges": bool(return_edges),
        }
        if deadline is not None:
            body["deadline"] = float(deadline)
        if trace:
            body["trace"] = True
        return self._call("POST", "/v1/run", body)

    def status(self) -> Dict[str, object]:
        """Daemon counters, store stats and configuration."""
        return self._call("GET", "/v1/status")

    def metrics(self) -> str:
        """The daemon's Prometheus text exposition (``/v1/metrics``)."""
        status, text = self._exchange("GET", "/v1/metrics")
        if status >= 400:
            raise ServeError(status, "ServeError",
                             text.strip() or "request failed")
        return text

    def healthy(self) -> bool:
        """True when the daemon answers its health check."""
        try:
            return bool(self._call("GET", "/healthz").get("ok"))
        except (OSError, ServeError):
            return False

    def shutdown(self) -> bool:
        """Ask the daemon to stop; True when it acknowledged."""
        try:
            reply = self._call("POST", "/v1/shutdown")
        except (OSError, ServeError):
            return False
        return bool(reply.get("stopping"))

    # -- transport -----------------------------------------------------

    def _call(self, verb: str, path: str,
              body: Optional[Dict[str, object]] = None):
        status, text = self._exchange(verb, path, body)
        try:
            decoded = json.loads(text)
        except ValueError:
            raise ServeError(status, "Protocol",
                             f"reply is not JSON: {text[:80]!r}") from None
        if status >= 400:
            error = decoded.get("error", {}) \
                if isinstance(decoded, dict) else {}
            kind = str(error.get("type", "ServeError"))
            message = str(error.get("message", "request failed"))
            if kind == "DeadlineExceeded":
                raise DeadlineExceeded(message)
            raise ServeError(status, kind, message)
        return decoded

    def _exchange(self, verb: str, path: str,
                  body: Optional[Dict[str, object]] = None
                  ) -> Tuple[int, str]:
        """One HTTP round trip: the reply's status and decoded text."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload \
                else {}
            connection.request(verb, path, body=payload, headers=headers)
            response = connection.getresponse()
            return response.status, response.read().decode(
                "utf-8", errors="replace")
        finally:
            connection.close()


def collect_results(reply: Dict[str, object]) -> List[Dict[str, object]]:
    """The per-plan result list from a :meth:`ServeClient.run` reply."""
    results = reply.get("results", [])
    if not isinstance(results, list):
        raise ServeError(200, "Protocol", "reply has no result list")
    return results
