"""The long-lived backbone daemon: warm store, batching, resilience.

:class:`BackboneDaemon` is a stdlib-only HTTP service
(``http.server.ThreadingHTTPServer``) that accepts Plan JSON artifacts
(:meth:`repro.flow.Plan.to_json` — the wire format since PR 5) and
answers with extracted backbones and metrics. What makes it a *daemon*
rather than a script is what it keeps warm and what it survives:

* **Warm state.** One :class:`~repro.pipeline.store.ScoreStore` and
  one ``workers=`` preference live across requests, so the second
  client to ask for a scored table gets it from cache, whichever
  client paid for it.
* **Batching.** A batch starts as soon as a request is queued, and
  the requests that queue while it runs share the next
  :func:`~repro.serve.engine.serve_isolated` batch, which dedupes
  source parsing and scoring *across clients*. A later batch finds
  an earlier one's scores in the store, so eight clients asking for
  eight NC deltas over one file trigger exactly one scoring pass.
* **Deadlines.** Every request carries a deadline (client-supplied or
  the daemon default). A request whose deadline passes while queued is
  cancelled without being served; one that expires mid-batch returns a
  structured timeout to its client while the batch completes and warms
  the store for the retry. The daemon stays healthy either way.
* **Degradation, not collapse.** Per-plan failures, compile errors
  such as an unreadable source or an unknown method included, come
  back as structured errors for that plan only (see
  :mod:`repro.serve.engine`); a cache-backend outage flips the store
  to memory-only recompute and the response carries a ``degraded``
  flag; a worker process dying mid-batch is retried serially by the
  pool layer. A batch-level surprise marks every affected request
  failed and the daemon keeps serving.
* **Slow clients.** Handler sockets carry a read timeout, so a client
  that stalls mid-request occupies one handler thread for at most
  :data:`REQUEST_TIMEOUT_S` seconds, not forever.

* **Observability** (:mod:`repro.obs`). Every daemon counter is a
  :class:`~repro.obs.metrics.Counter` in the daemon's own registry,
  and ``GET /v1/status`` reads those same instruments; ``GET
  /v1/metrics`` serves the Prometheus text exposition over that
  registry *and* the process registry (pool retries, KV retries,
  store degradation), with the store's ``CacheStats`` exported by a
  collector;
  a request carrying ``"trace": true`` gets a JSON trace artifact —
  admission wait, compile, parse, scoring (worker spans included),
  extraction, store access — attached to its response; requests
  slower than ``slow_request_s`` are logged with their stage split;
  and a background ticker probes a degraded store back to health
  without waiting for client traffic.

Wire protocol (JSON over HTTP; all paths under ``/v1``):

``POST /v1/run``
    ``{"plans": [<plan artifact>, ...], "deadline": 5.0,
    "return_edges": false, "trace": false}`` → ``{"protocol": 1,
    "results": [...], "degraded": false, "batch": {"plans": N,
    "clients": K}[, "trace": {...}]}``; each result is ``{"ok":
    true, cache_key, kept_share, metrics, backbone: {m, n_nodes}
    [, edges]}`` or ``{"ok": false, "error": {"type", "message"}}``,
    aligned with the request's plan list.
``GET /v1/status``
    Uptime, request/batch/coalescing counters, store stats, config.
``GET /v1/metrics``
    Prometheus text exposition (version 0.0.4).
``POST /v1/shutdown``
    Acknowledges, then stops the daemon gracefully.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Sequence

from ..flow.plan import Plan
from ..flow.serve import FlowResult
from ..obs.export import render_prometheus, trace_to_dict
from ..obs.metrics import MetricsRegistry, get_registry, make_family
from ..obs.trace import TRACER, Span, trace
from ..pipeline.store import PathLike, ScoreStore
from .engine import serve_isolated

logger = logging.getLogger(__name__)

#: Wire protocol version stamped into every response.
PROTOCOL_VERSION = 1

#: Hard cap on request body size (a plan artifact is a few hundred
#: bytes; anything near this is a confused or hostile client).
MAX_BODY_BYTES = 32 * 1024 * 1024

#: Socket read timeout per request, in seconds: the slow-client bound.
REQUEST_TIMEOUT_S = 10.0


class DeadlineExceeded(RuntimeError):
    """A request's deadline passed before its results were ready."""


def _check_deadline(seconds: float) -> float:
    """A deadline budget in seconds (a negative one has already
    expired); :class:`ValueError` if no wait could honour it."""
    budget = float(seconds)
    if not (math.isfinite(budget) and budget <= threading.TIMEOUT_MAX):
        raise ValueError(f"deadline must be a finite number of seconds "
                         f"up to {threading.TIMEOUT_MAX:g}, got {budget}")
    return budget


#: Daemon counters and their help text; each is a counter in the
#: daemon's registry named ``repro_daemon_<name>_total``. ``served``
#: and ``cancelled`` are exclusive per-ticket outcomes, so
#: ``requests == served + cancelled`` once the queue drains.
_STAT_HELP = {
    "requests": "POST /v1/run requests admitted.",
    "plans": "Plan slots served (structured errors included).",
    "plan_errors": "Plan slots answered with a structured error.",
    "batches": "serve_isolated batch executions.",
    "coalesced_batches": "Batches that merged two or more requests.",
    "cancelled":
        "Tickets dropped with an expired deadline while queued.",
    "deadline_misses": "Requests answered DeadlineExceeded: timed out "
                       "waiting, or cancelled while queued.",
    "batch_failures": "Whole-batch engine failures survived.",
    "served": "Tickets answered with results.",
    "slow_requests":
        "Requests slower than the slow-request threshold.",
    "probe_rearms":
        "Store re-arms performed by the background probe ticker.",
}


class _Ticket:
    """One client request waiting for its slice of a batch."""

    __slots__ = ("plans", "deadline", "event", "results", "batch",
                 "trace", "enqueued_unix", "enqueued_pc", "artifact")

    def __init__(self, plans: List[Plan], deadline: float,
                 trace: bool = False):
        self.plans = plans
        self.deadline = deadline  # absolute, time.monotonic() scale
        self.event = threading.Event()
        self.results: Optional[List[FlowResult]] = None
        self.batch: Dict[str, int] = {}
        self.trace = trace
        self.enqueued_unix = time.time()
        self.enqueued_pc = time.perf_counter()
        self.artifact: Optional[Dict[str, Any]] = None


class BackboneDaemon:
    """See the module docstring.

    Parameters
    ----------
    host, port:
        Bind address; ``port=0`` picks a free port (read it back from
        :attr:`port` after :meth:`start`).
    store, cache_dir:
        The warm :class:`ScoreStore` (or a backend location to open
        one over). Defaults to a fresh memory-only store.
    workers:
        Process fan-out for cold scoring, as everywhere else.
    default_deadline:
        Request deadline applied when the client sends none.
    slow_request_s:
        Log any request slower than this (seconds, end to end) with
        its queue/batch split; ``None`` disables the slow-request log.
    probe_interval:
        Seconds between background :meth:`ScoreStore.probe_backend`
        checks while the store is degraded, so an outage heals
        without client traffic; ``None`` or ``0`` disables the
        ticker.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 store: Optional[ScoreStore] = None,
                 cache_dir: Optional[PathLike] = None,
                 workers: Optional[int] = None,
                 default_deadline: float = 30.0,
                 slow_request_s: Optional[float] = None,
                 probe_interval: Optional[float] = 5.0):
        if store is not None and cache_dir is not None:
            raise ValueError("pass either store or cache_dir, not both")
        if store is None:
            store = ScoreStore(cache_dir)
        self.store = store
        self.workers = workers
        self.default_deadline = _check_deadline(default_deadline)
        self.slow_request_s = None if slow_request_s is None \
            else float(slow_request_s)
        self.probe_interval = None if not probe_interval \
            else float(probe_interval)
        self.started = time.time()
        self.registry = MetricsRegistry()
        self._queue_hist = self.registry.histogram(
            "repro_daemon_queue_wait_seconds",
            "Time requests spend queued before their batch starts.")
        self._batch_hist = self.registry.histogram(
            "repro_daemon_batch_exec_seconds",
            "serve_isolated execution time per batch.")
        self._request_hist = self.registry.histogram(
            "repro_daemon_request_seconds",
            "Admission-to-results latency per served request.")
        self._counters = {
            name: self.registry.counter(f"repro_daemon_{name}_total",
                                        text)
            for name, text in _STAT_HELP.items()}
        self._uptime = self.registry.gauge(
            "repro_daemon_uptime_seconds",
            "Seconds since the daemon started.")
        self._depth = self.registry.gauge(
            "repro_daemon_pending_requests",
            "Requests queued for the next batch.")
        self.registry.register_collector(self._store_families)
        self._host, self._port = host, int(port)
        self._cond = threading.Condition()
        self._pending: List[_Ticket] = []
        self._stopping = False
        self._server: Optional[ThreadingHTTPServer] = None
        self._threads: List[threading.Thread] = []
        self._stopped = threading.Event()
        self._probe_stop = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (meaningful after :meth:`start`)."""
        if self._server is not None:
            return self._server.server_address[1]
        return self._port

    def start(self) -> "BackboneDaemon":
        """Bind the socket and start the server + batcher threads."""
        if self._server is not None:
            raise RuntimeError("daemon already started")
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer((self._host, self._port),
                                           handler)
        self._server.daemon_threads = True
        with self._cond:
            self._stopping = False
        self._stopped.clear()
        self._probe_stop.clear()
        self._threads = [
            threading.Thread(target=self._server.serve_forever,
                             name="repro-serve-http", daemon=True),
            threading.Thread(target=self._batch_loop,
                             name="repro-serve-batcher", daemon=True),
        ]
        if self.probe_interval:
            self._threads.append(
                threading.Thread(target=self._probe_loop,
                                 name="repro-serve-probe", daemon=True))
        for thread in self._threads:
            thread.start()
        logger.info("backbone daemon listening on %s:%d",
                    self._host, self.port)
        return self

    def stop(self) -> None:
        """Stop accepting requests, flush the queue, release the port."""
        server, self._server = self._server, None
        self._probe_stop.set()
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        if server is not None:
            server.shutdown()
            server.server_close()
        for thread in self._threads:
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)
        self._threads = []
        self._stopped.set()

    def run_forever(self) -> None:
        """Block until the daemon is stopped (signal or /v1/shutdown)."""
        if self._server is None:
            self.start()
        try:
            self._stopped.wait()
        except KeyboardInterrupt:
            self.stop()

    def __enter__(self) -> "BackboneDaemon":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Request admission / batching
    # ------------------------------------------------------------------

    def submit(self, plans: Sequence[Plan],
               deadline: Optional[float] = None) -> List[FlowResult]:
        """Admit one request's plans; block until served or deadline.

        Raises :class:`DeadlineExceeded` when the deadline passes
        first — the batch keeps running and warms the store, so a
        retry is cheap; the daemon is unaffected. A deadline that is
        not finite or exceeds ``threading.TIMEOUT_MAX`` raises
        :class:`ValueError` before anything is admitted.
        """
        return self._await(self._admit(plans, deadline))

    def _admit(self, plans: Sequence[Plan],
               deadline: Optional[float],
               trace: bool = False) -> _Ticket:
        budget = self.default_deadline if deadline is None \
            else _check_deadline(deadline)
        budget = max(0.0, budget)
        ticket = _Ticket(list(plans), time.monotonic() + budget,
                         trace=trace)
        with self._cond:
            if self._stopping:
                raise RuntimeError("daemon is shutting down")
            self._pending.append(ticket)
            self._cond.notify_all()
        self._counters["requests"].inc()
        return ticket

    def _await(self, ticket: _Ticket) -> List[FlowResult]:
        budget = max(0.0, ticket.deadline - time.monotonic())
        if not ticket.event.wait(timeout=budget):
            self._counters["deadline_misses"].inc()
            raise DeadlineExceeded(
                "request missed its deadline; the batch continues in "
                "the background and warms the cache for a retry")
        if ticket.results is None:  # cancelled while queued
            self._counters["deadline_misses"].inc()
            raise DeadlineExceeded(
                "request deadline expired before its batch started")
        return ticket.results

    def _batch_loop(self) -> None:
        while True:
            with self._cond:
                while not self._pending and not self._stopping:
                    self._cond.wait()
                if not self._pending:
                    return
                tickets, self._pending = self._pending, []
            self._execute(tickets)

    def _execute(self, tickets: List[_Ticket]) -> None:
        now = time.monotonic()
        live: List[_Ticket] = []
        for ticket in tickets:
            if ticket.deadline <= now:
                # Cancelled: its plans are never served.
                self._counters["cancelled"].inc()
                ticket.event.set()
            else:
                live.append(ticket)
        if not live:
            return
        plans = [plan for ticket in live for plan in ticket.plans]
        batch_info = {"plans": len(plans), "clients": len(live)}
        trace_root: Optional[Span] = None
        batch_spans: List[Span] = []
        exec_start_pc = time.perf_counter()
        scope = (trace("serve.batch", plans=len(plans),
                       clients=len(live))
                 if any(ticket.trace for ticket in live)
                 else contextlib.nullcontext())
        try:
            with scope as trace_root:
                results = serve_isolated(plans, store=self.store,
                                         workers=self.workers)
        except Exception:
            # serve_isolated isolates per plan; reaching here means a
            # genuine engine bug. Fail these requests, not the daemon.
            logger.exception("batch execution failed; failing %d "
                             "requests and continuing", len(live))
            self._counters["batch_failures"].inc()
            results = None
        if trace_root is not None:
            batch_spans = TRACER.pop(trace_root.trace_id)
        end_pc = time.perf_counter()
        batch_s = end_pc - exec_start_pc
        self._batch_hist.observe(batch_s)
        self._counters["batches"].inc()
        if len(live) > 1:
            self._counters["coalesced_batches"].inc()
        self._counters["plans"].inc(len(plans))
        cursor = 0
        for ticket in live:
            count = len(ticket.plans)
            if results is None:
                ticket.results = [
                    FlowResult(plan=plan, cache_key="",
                               error=RuntimeError("internal batch "
                                                  "failure"))
                    for plan in ticket.plans]
            else:
                ticket.results = results[cursor:cursor + count]
            cursor += count
            ticket.batch = batch_info
            errors = sum(1 for result in ticket.results
                         if not result.ok)
            if errors:
                self._counters["plan_errors"].inc(errors)
            queue_wait = max(0.0, exec_start_pc - ticket.enqueued_pc)
            total_s = end_pc - ticket.enqueued_pc
            self._queue_hist.observe(queue_wait)
            self._request_hist.observe(total_s)
            if ticket.trace and trace_root is not None:
                ticket.artifact = _trace_artifact(
                    ticket, trace_root, batch_spans, queue_wait, total_s)
            self._counters["served"].inc()
            if self.slow_request_s is not None \
                    and total_s >= self.slow_request_s:
                self._counters["slow_requests"].inc()
                logger.warning(
                    "slow request: %.3fs end to end (%.3fs queued, "
                    "%.3fs batch) for %d plan(s)",
                    total_s, queue_wait, batch_s, len(ticket.plans))
            ticket.event.set()

    def _probe_loop(self) -> None:
        # Re-arm a degraded store without waiting for client traffic;
        # probe_backend() is a no-op on a healthy store.
        while not self._probe_stop.wait(self.probe_interval):
            if self.store.degraded and self.store.probe_backend():
                self._counters["probe_rearms"].inc()
                logger.info("background probe re-armed the score "
                            "store's backend")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def metrics_text(self) -> str:
        """The ``GET /v1/metrics`` Prometheus text exposition:
        the daemon's own registry layered over the process-wide one
        (pool, KV and store-degradation series)."""
        self._uptime.set(max(0.0, time.time() - self.started))
        with self._cond:
            self._depth.set(len(self._pending))
        return render_prometheus([get_registry(), self.registry])

    def _store_families(self):
        # The store owns its CacheStats (workers ship theirs back to be
        # merged), so its counters are read at scrape time.
        stats = self.store.stats
        return [
            make_family("counter", "repro_cache_hits_total",
                        "Score-store hits by tier.",
                        [({"tier": "memory"}, stats.memory_hits),
                         ({"tier": "disk"}, stats.disk_hits)]),
            make_family("counter", "repro_cache_misses_total",
                        "Score-store lookups answered by neither "
                        "tier.", stats.misses),
            make_family("counter", "repro_cache_puts_total",
                        "Scored tables inserted into the store.",
                        stats.puts),
            make_family("counter", "repro_cache_evictions_total",
                        "Entries evicted from either tier.",
                        stats.evictions),
            make_family("counter", "repro_cache_corrupt_total",
                        "Corrupt persistent entries detected.",
                        stats.corrupt),
            make_family("counter", "repro_cache_negative_hits_total",
                        "Lookups answered by a cached failure.",
                        stats.negative_hits),
            make_family("counter", "repro_cache_negative_puts_total",
                        "Deterministic failures recorded.",
                        stats.negative_puts),
            make_family("counter",
                        "repro_cache_backend_failures_total",
                        "Backend outages the store survived.",
                        stats.backend_failures),
            make_family("gauge", "repro_cache_degraded",
                        "1 while the store is memory-only degraded.",
                        1.0 if self.store.degraded else 0.0),
        ]

    def status(self) -> Dict[str, object]:
        """The ``GET /v1/status`` payload.

        ``"daemon"`` reads the same counters ``GET /v1/metrics``
        exports, plus ``uptime_s``:

        >>> daemon = BackboneDaemon()  # never started: no socket, no thread
        >>> counters = daemon.status()["daemon"]
        >>> uptime = counters.pop("uptime_s")
        >>> len(counters), set(counters.values())
        (11, {0})
        >>> "repro_daemon_requests_total 0" in daemon.metrics_text()
        True
        """
        stats = self.store.stats
        counters: Dict[str, object] = {
            name: int(counter.value())
            for name, counter in self._counters.items()}
        counters["uptime_s"] = max(0.0, time.time() - self.started)
        return {
            "protocol": PROTOCOL_VERSION,
            "daemon": counters,
            "degraded": self.store.degraded,
            "store": {
                "summary": stats.summary(),
                "hits": stats.hits, "misses": stats.misses,
                "puts": stats.puts,
                "negative_hits": stats.negative_hits,
                "backend_failures": stats.backend_failures,
            },
            "config": {
                "workers": self.workers,
                "default_deadline_s": self.default_deadline,
                "slow_request_s": self.slow_request_s,
                "probe_interval_s": self.probe_interval,
                "backend": (None if self.store.backend is None
                            else self.store.backend.describe()),
            },
        }


def _trace_artifact(ticket: _Ticket, root: Span,
                    batch_spans: List[Span], queue_wait: float,
                    total_s: float) -> Dict[str, Any]:
    """One ticket's JSON trace artifact.

    The batch trace is shared by every coalesced client; each ticket
    gets its own synthetic ``serve.request`` root (admission to
    results) with an ``admission.wait`` child covering the queued
    stretch, and the recorded batch spans re-parented underneath —
    so a request's stage durations sum to its wall time.
    """
    trace_id = root.trace_id
    request = Span.finished(
        "serve.request", trace_id,
        start_unix=ticket.enqueued_unix, duration_s=total_s,
        attributes={"plans": len(ticket.plans)})
    wait = Span.finished(
        "admission.wait", trace_id, parent_id=request.span_id,
        start_unix=ticket.enqueued_unix, duration_s=queue_wait)
    spans: List[Dict[str, Any]] = [request.to_dict(), wait.to_dict()]
    for recorded in batch_spans:
        node = recorded.to_dict()
        if node["parent_id"] is None:
            node["parent_id"] = request.span_id
        spans.append(node)
    return trace_to_dict(trace_id, spans)


# ----------------------------------------------------------------------
# HTTP layer
# ----------------------------------------------------------------------

def result_payload(result: FlowResult,
                   return_edges: bool = False) -> Dict[str, object]:
    """JSON-safe encoding of one :class:`FlowResult`."""
    if not result.ok:
        return {"ok": False,
                "error": {"type": type(result.error).__name__,
                          "message": str(result.error)}}
    backbone = result.backbone
    payload: Dict[str, object] = {
        "ok": True,
        "cache_key": result.cache_key,
        "kept_share": result.kept_share,
        "metrics": result.metrics,
        "backbone": {"m": backbone.m, "n_nodes": backbone.n_nodes},
    }
    if return_edges:
        payload["edges"] = [
            [backbone.label_of(u), backbone.label_of(v), float(w)]
            for u, v, w in backbone.iter_edges()]
    return payload


def _make_handler(daemon: BackboneDaemon):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        timeout = REQUEST_TIMEOUT_S  # slow-client read bound

        # -- plumbing --------------------------------------------------

        def log_message(self, format, *args):  # noqa: A002 (stdlib name)
            logger.debug("%s %s", self.address_string(), format % args)

        def _reply(self, status: int, payload: Dict[str, object]) -> None:
            self._reply_text(status, json.dumps(payload),
                             "application/json")

        def _reply_text(self, status: int, text: str,
                        content_type: str) -> None:
            body = text.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def _fail(self, status: int, kind: str, message: str) -> None:
            self._reply(status, {"protocol": PROTOCOL_VERSION,
                                 "error": {"type": kind,
                                           "message": message}})

        # -- routes ----------------------------------------------------

        def do_GET(self):
            if self.path in ("/v1/status", "/status"):
                self._reply(200, daemon.status())
            elif self.path in ("/v1/metrics", "/metrics"):
                self._reply_text(
                    200, daemon.metrics_text(),
                    "text/plain; version=0.0.4; charset=utf-8")
            elif self.path == "/healthz":
                self._reply(200, {"ok": True})
            else:
                self._fail(404, "NotFound", f"unknown path {self.path}")

        def do_POST(self):
            if self.path in ("/v1/shutdown", "/shutdown"):
                self._reply(200, {"ok": True, "stopping": True})
                # stop() joins threads; run it off this handler thread.
                threading.Thread(target=daemon.stop, daemon=True).start()
                return
            if self.path not in ("/v1/run", "/run"):
                self._fail(404, "NotFound", f"unknown path {self.path}")
                return
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                length = -1
            if not 0 < length <= MAX_BODY_BYTES:
                self._fail(400, "BadRequest",
                           "missing, malformed or oversized body")
                return
            try:
                body = json.loads(self.rfile.read(length))
            except (ValueError, UnicodeDecodeError) as error:
                self._fail(400, "BadRequest",
                           f"body is not valid JSON: {error}")
                return
            if not isinstance(body, dict) \
                    or not isinstance(body.get("plans"), list) \
                    or not body["plans"]:
                self._fail(400, "BadRequest",
                           'body must be {"plans": [<plan>, ...], ...}')
                return
            try:
                deadline = None if body.get("deadline") is None \
                    else _check_deadline(body["deadline"])
            except (TypeError, ValueError):
                self._fail(400, "BadRequest", "deadline must be a finite "
                           "number of seconds")
                return

            # Per-plan parse isolation: a malformed artifact fails its
            # slot; well-formed fellow plans are still served.
            slots: List[Optional[Dict[str, object]]] = []
            plans: List[Plan] = []
            for item in body["plans"]:
                try:
                    plans.append(Plan.from_json(json.dumps(item)))
                    slots.append(None)
                except Exception as error:
                    slots.append({"ok": False,
                                  "error": {"type": type(error).__name__,
                                            "message": str(error)}})
            want_trace = bool(body.get("trace", False))
            batch: Dict[str, int] = {"plans": 0, "clients": 0}
            results: List[FlowResult] = []
            artifact = None
            if plans:
                try:
                    ticket = daemon._admit(plans, deadline,
                                           trace=want_trace)
                    results = daemon._await(ticket)
                    batch = ticket.batch
                    artifact = ticket.artifact
                except DeadlineExceeded as error:
                    self._fail(504, "DeadlineExceeded", str(error))
                    return
                except RuntimeError as error:
                    self._fail(503, "Unavailable", str(error))
                    return
            return_edges = bool(body.get("return_edges", False))
            encoded = iter([result_payload(result, return_edges)
                            for result in results])
            payload = [slot if slot is not None else next(encoded)
                       for slot in slots]
            reply: Dict[str, object] = {
                "protocol": PROTOCOL_VERSION,
                "results": payload,
                "degraded": daemon.store.degraded,
                "batch": batch,
            }
            if want_trace:
                reply["trace"] = artifact
            self._reply(200, reply)

    return Handler
