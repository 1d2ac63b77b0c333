"""Two-tier content-addressed cache for scored edge tables.

``ScoreStore`` answers "has this exact table already been scored by
this exact method configuration?" It layers

1. an in-process LRU of live ``ScoredEdges`` objects (hot path: repeated
   budget-matched extractions inside one process skip even the disk),
2. over an optional pluggable *backend* — the persistent tier. The
   default is the content-addressed npz + JSON directory
   (:class:`~repro.pipeline.backends.DirectoryBackend`); a single-file
   SQLite store and a remote-style KV client ship alongside it, all
   behind one interface (:mod:`repro.pipeline.backends`).

Persistent entries are self-verifying: the codec records a digest of
the stored arrays at ``put`` time and recomputes it on load, so a
poisoned, truncated or otherwise corrupt entry *misses* (and is
recomputed and overwritten) instead of being served.

The store also caches **negative results**: a scoring failure that is
deterministic for the (table, method) pair — Sinkhorn non-convergence
on an unbalanceable network — is recorded once as a
:class:`~repro.pipeline.backends.NegativeEntry` and re-raised on every
later :meth:`ScoreStore.get_or_compute`, instead of re-running the
1000-iteration probe on every sweep.

All traffic is counted in :class:`CacheStats`, which sweeps and the
CLI report as hit rates alongside their results, and
:meth:`ScoreStore.gc` applies an LRU eviction policy
(:class:`~repro.pipeline.backends.GCPolicy`) to the persistent tier.

The store **degrades instead of crashing** when its backend goes away:
a terminal :class:`~repro.pipeline.backends.KVUnavailableError` (the
client's retry budget is already spent by then) is logged once, flips
:attr:`CacheStats.degraded`, and switches the store to memory-only
operation — a cache outage slows scoring requests down, it never fails
them. :meth:`ScoreStore.probe_backend` re-checks the backend and
rejoins the persistent tier when the service recovers.
"""

from __future__ import annotations

import logging
import os
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Tuple, Union

from ..backbones.base import BackboneMethod, ScoredEdges
from ..graph.edge_table import EdgeTable, TableSummary
from ..obs.metrics import get_registry
from ..obs.trace import span
from .backends import (BackendCorruption, DirectoryBackend, EntryCorrupt,
                       EntryEncodeError, GCPolicy, GCResult,
                       KVUnavailableError, NegativeEntry, RawEntry,
                       SchemaMismatch, StoreBackend, decode_entry,
                       encode_negative, encode_scored, open_backend,
                       run_gc)
from .fingerprint import _SCHEMA_VERSION, fingerprint_score_request

logger = logging.getLogger(__name__)

# Process-wide degradation lifecycle events, across every store.
_DEGRADED_EVENTS = get_registry().counter(
    "repro_cache_degraded_transitions_total",
    "ScoreStore flips into memory-only degraded mode.")
_REARM_EVENTS = get_registry().counter(
    "repro_cache_rearm_total",
    "Degraded ScoreStores re-armed onto their backend by a probe.")

PathLike = Union[str, Path]

#: Default capacity of the in-process LRU tier. Sized to hold a full
#: paper sweep working set (6 networks x 8 methods) with headroom, so
#: repeated in-process sweeps never touch the persistent tier.
DEFAULT_MEMORY_ITEMS = 64


@dataclass
class CacheStats:
    """Counters for one store's lifetime of traffic."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    corrupt: int = 0
    negative_hits: int = 0
    negative_puts: int = 0
    #: Backend outages survived (terminal ``KVUnavailableError``s).
    backend_failures: int = 0
    #: The owning store's state, not traffic: True while its
    #: persistent tier is down and it serves memory-only (see
    #: ``ScoreStore.degraded``, the only writer).
    degraded: bool = False

    @property
    def hits(self) -> int:
        """Total positive hits across both tiers."""
        return self.memory_hits + self.disk_hits

    @property
    def requests(self) -> int:
        """Total lookups."""
        return self.hits + self.negative_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from either tier."""
        answered = self.hits + self.negative_hits
        return answered / self.requests if self.requests else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Add another stats object's counters (e.g. a worker's) into
        this one; ``degraded`` stays this store's own state."""
        self.memory_hits += other.memory_hits
        self.disk_hits += other.disk_hits
        self.misses += other.misses
        self.puts += other.puts
        self.evictions += other.evictions
        self.corrupt += other.corrupt
        self.negative_hits += other.negative_hits
        self.negative_puts += other.negative_puts
        self.backend_failures += other.backend_failures

    def summary(self) -> str:
        """One-line human-readable account."""
        text = (f"cache: {self.hits}/{self.requests} hits "
                f"({self.hit_rate:.0%}; memory {self.memory_hits}, "
                f"disk {self.disk_hits}), {self.puts} puts, "
                f"{self.evictions} evictions, {self.corrupt} corrupt")
        if self.negative_hits or self.negative_puts:
            text += (f", {self.negative_hits} negative hits "
                     f"({self.negative_puts} recorded)")
        if self.degraded:
            text += (f", DEGRADED (memory-only; "
                     f"{self.backend_failures} backend failures)")
        return text


class ScoreStore:
    """Two-tier cache mapping fingerprint keys to ``ScoredEdges``.

    Parameters
    ----------
    cache_dir:
        Location of the persistent tier: a directory path, or any spec
        string :func:`repro.pipeline.backends.open_backend` accepts
        (``sqlite://scores.sqlite``, a ``.sqlite`` path, ``kv://``).
        ``None`` keeps the store purely in-memory (still useful for
        repeated extractions in-process).
    memory_items:
        Capacity of the in-process LRU tier; ``0`` disables it.
    backend:
        Explicit :class:`~repro.pipeline.backends.StoreBackend`
        instance; mutually exclusive with ``cache_dir``.
    """

    def __init__(self, cache_dir: Optional[PathLike] = None,
                 memory_items: int = DEFAULT_MEMORY_ITEMS,
                 backend: Optional[StoreBackend] = None):
        if memory_items < 0:
            raise ValueError("memory_items must be non-negative")
        if backend is not None and cache_dir is not None:
            raise ValueError("pass either cache_dir or backend, not both")
        if backend is None and cache_dir is not None:
            backend = open_backend(cache_dir)
        self.backend = backend
        self.cache_dir = backend.root \
            if isinstance(backend, DirectoryBackend) else None
        self.memory_items = int(memory_items)
        self.stats = CacheStats()
        self._memory: "OrderedDict[str, object]" = OrderedDict()
        self._sources: dict = {}

    # ------------------------------------------------------------------
    # Degradation (cache outages must never fail a scoring request)
    # ------------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while the persistent tier is down and being bypassed.

        A terminal :class:`~repro.pipeline.backends.KVUnavailableError`
        from the backend (retries already exhausted client-side) flips
        the store into memory-only mode: every later backend call is
        skipped — no per-request retry storms against a dead service —
        and scoring requests keep being answered from the in-process
        tier plus recompute. :meth:`probe_backend` re-checks the
        backend and clears the flag when the service is back.
        """
        return self.stats.degraded

    def probe_backend(self) -> bool:
        """Re-check a degraded backend; clear the flag if it answers.

        Returns ``True`` when the store has a working persistent tier
        after the call. Safe to call on a healthy store (no-op).
        """
        if self.backend is None:
            return False
        if not self.stats.degraded:
            return True
        try:
            self.backend.contains("__repro_probe__")
        except KVUnavailableError:
            return False
        self.stats.degraded = False
        _REARM_EVENTS.inc()
        logger.warning("score-store backend answered a probe; leaving "
                       "degraded mode")
        return True

    def _mark_degraded(self, error: Exception) -> None:
        self.stats.backend_failures += 1
        if not self.stats.degraded:
            self.stats.degraded = True
            _DEGRADED_EVENTS.inc()
            logger.warning(
                "score-store backend unavailable (%s); degrading to "
                "memory-only operation", error)

    def _backend_usable(self) -> bool:
        return self.backend is not None and not self.stats.degraded

    # ------------------------------------------------------------------
    # Lookup / insert
    # ------------------------------------------------------------------

    def get(self, key: str) -> Optional[ScoredEdges]:
        """Return the cached scores under ``key``, or ``None`` on miss
        (including when the cached entry is a negative result)."""
        found = self._lookup(key)
        return None if isinstance(found, NegativeEntry) else found

    def put(self, key: str, scored: ScoredEdges) -> None:
        """Insert ``scored`` under ``key`` in both tiers."""
        self.stats.puts += 1
        with span("store.put", key=key[:16]):
            self._remember(key, scored)
            self._write_backend(key, scored)

    def put_negative(self, key: str, negative: NegativeEntry) -> None:
        """Record a deterministic scoring failure under ``key``."""
        self.stats.negative_puts += 1
        self._remember(key, negative)
        self._write_backend(key, negative)

    def get_or_compute(self, key: str,
                       compute: Callable[[], ScoredEdges],
                       label: str = "?") -> ScoredEdges:
        """Serve ``key`` from cache, or run ``compute`` and cache it.

        A cached negative result re-raises the recorded exception
        without calling ``compute``; a fresh failure that declares
        itself cacheable (a ``cache_negative`` attribute on the
        exception) is recorded before propagating. ``label`` names the
        computation in recorded negative entries.
        """
        with span("store.get", key=key[:16]) as access:
            found = self._lookup(key)
            if access is not None:
                if isinstance(found, NegativeEntry):
                    outcome = "negative"
                elif found is not None:
                    outcome = "hit"
                else:
                    outcome = "miss"
                access.attributes["outcome"] = outcome
        if isinstance(found, NegativeEntry):
            raise found.to_exception()
        if found is not None:
            return found
        try:
            scored = compute()
        except Exception as error:
            negative = NegativeEntry.from_exception(error, method=label)
            if negative is not None:
                self.put_negative(key, negative)
            raise
        self.put(key, scored)
        return scored

    def adopt(self, key: str, entry) -> None:
        """Insert an entry computed elsewhere without counting traffic.

        :func:`repro.flow.serve` folds worker-computed scores (or
        negative verdicts) into the parent store through this: the
        worker's own store already counted the miss and the put, so
        adopting must not double-count (and must not rewrite a
        complete persistent entry the worker already produced).
        """
        self._remember(key, entry)
        try:
            if self._backend_usable() and not self.backend.contains(key):
                self._write_backend(key, entry)
        except KVUnavailableError as error:
            self._mark_degraded(error)

    # ------------------------------------------------------------------
    # Source bindings (file fingerprint -> table fingerprint + summary)
    # ------------------------------------------------------------------

    def bind_source(self, source_key: str, table_fingerprint: str,
                    summary: Optional[TableSummary] = None) -> None:
        """Record that the file behind ``source_key`` parses to the
        table with ``table_fingerprint`` and ``summary``.

        ``source_key`` comes from
        :func:`repro.pipeline.fingerprint.fingerprint_source_request`
        (a streamed hash of the raw file plus the parse options), so a
        changed file never meets a stale binding. Later requests over
        the same file read the table fingerprint, which derives their
        score-cache keys without re-hashing a parsed table, and the
        table's :class:`~repro.graph.edge_table.TableSummary` (row
        counts, non-isolated nodes) from :meth:`source_binding`, so a
        warm request reads nothing. A binding recorded without a
        summary stays valid for key derivation;
        :mod:`repro.flow.compile` upgrades it with one read.
        """
        self._sources[source_key] = (table_fingerprint, summary)
        if not self._backend_usable():
            return
        binding: dict = {"table": table_fingerprint}
        if summary is not None:
            binding["summary"] = summary.to_json()
        meta = {"schema": _SCHEMA_VERSION, "key": source_key,
                "source": binding}
        try:
            self.backend.put(source_key, RawEntry(meta=meta, payload=None))
        except KVUnavailableError as error:
            self._mark_degraded(error)

    def source_binding(self, source_key: str
                       ) -> Optional[Tuple[str, Optional[TableSummary]]]:
        """``(table fingerprint, summary)`` bound to ``source_key``.

        ``None`` when the binding is unknown or unreadable; the
        summary is ``None`` for a binding recorded without one (or
        whose summary does not decode).
        """
        found = self._sources.get(source_key)
        if found is not None:
            return found
        if not self._backend_usable():
            return None
        try:
            raw = self.backend.get(source_key)
        except BackendCorruption:
            return None
        except KVUnavailableError as error:
            self._mark_degraded(error)
            return None
        if raw is None or not isinstance(raw.meta, dict) \
                or raw.meta.get("schema") != _SCHEMA_VERSION:
            return None
        source = raw.meta.get("source")
        if not isinstance(source, dict):
            return None
        table_fingerprint = source.get("table")
        if not isinstance(table_fingerprint, str):
            return None
        summary = None
        if isinstance(source.get("summary"), dict):
            try:
                summary = TableSummary.from_json(source["summary"])
            except (KeyError, TypeError, ValueError):
                pass  # undecodable: upgraded like a summary-less one
        found = self._sources[source_key] = (table_fingerprint, summary)
        return found

    def memory_entries(self):
        """Snapshot of the in-process tier as ``(key, entry)`` pairs.

        Entries are live ``ScoredEdges`` or ``NegativeEntry`` objects;
        both kinds are picklable, which is how workers ship results
        back to the parent store.
        """
        return list(self._memory.items())

    def worker_spec(self) -> Optional[str]:
        """Backend spec a worker process can reopen, or ``None`` when
        the persistent tier is absent, process-local or degraded (a
        worker must not retry a backend the parent already gave up
        on; its shipped-back results are all the parent gets)."""
        if not self._backend_usable():
            return None
        return self.backend.spec()

    def __contains__(self, key: str) -> bool:
        if key in self._memory:
            return True
        if not self._backend_usable():
            return False
        try:
            return self.backend.contains(key)
        except KVUnavailableError as error:
            self._mark_degraded(error)
            return False

    def __len__(self) -> int:
        persistent_keys = ()
        if self._backend_usable():
            try:
                persistent_keys = set(self.backend.keys())
            except KVUnavailableError as error:
                self._mark_degraded(error)
                persistent_keys = ()
        memory_only = sum(1 for key in self._memory
                          if key not in persistent_keys)
        return len(persistent_keys) + memory_only

    def clear_memory(self) -> None:
        """Drop the in-process tier (persistent entries survive)."""
        self._memory.clear()

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------

    def gc(self, policy: Optional[GCPolicy] = None, *,
           max_bytes: Optional[int] = None,
           max_entries: Optional[int] = None,
           max_age: Optional[float] = None,
           dry_run: bool = False) -> GCResult:
        """Evict persistent entries LRU-first until ``policy`` holds.

        Either pass a :class:`GCPolicy` or the individual bounds.
        Evicted keys are dropped from the memory tier too, so a
        collected entry is gone from the store's point of view.
        """
        if self.backend is None:
            raise ValueError("gc needs a persistent backend")
        if policy is None:
            policy = GCPolicy(max_bytes=max_bytes, max_entries=max_entries,
                              max_age=max_age)
        result = run_gc(self.backend, policy, dry_run=dry_run)
        if not dry_run:
            for key in result.deleted_keys:
                self._memory.pop(key, None)
            self.stats.evictions += result.deleted
        return result

    # ------------------------------------------------------------------
    # In-memory tier
    # ------------------------------------------------------------------

    def _remember(self, key: str, entry) -> None:
        if self.memory_items == 0:
            return
        self._memory[key] = entry
        self._memory.move_to_end(key)
        while len(self._memory) > self.memory_items:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _lookup(self, key: str):
        """Both tiers, counting traffic; returns ``ScoredEdges``,
        ``NegativeEntry`` or ``None``."""
        cached = self._memory.get(key)
        if cached is not None:
            self._memory.move_to_end(key)
            if isinstance(cached, NegativeEntry):
                self.stats.negative_hits += 1
            else:
                self.stats.memory_hits += 1
            return cached
        loaded = self._load_backend(key)
        if loaded is not None:
            if isinstance(loaded, NegativeEntry):
                self.stats.negative_hits += 1
            else:
                self.stats.disk_hits += 1
            self._remember(key, loaded)
            return loaded
        self.stats.misses += 1
        return None

    # ------------------------------------------------------------------
    # Persistent tier
    # ------------------------------------------------------------------

    def _write_backend(self, key: str, entry) -> None:
        if not self._backend_usable():
            return
        try:
            if isinstance(entry, NegativeEntry):
                raw = encode_negative(key, entry)
            else:
                raw = encode_scored(key, entry)
        except EntryEncodeError:
            # Non-JSON-serializable method info: keep the entry purely
            # in-memory rather than persisting something unreadable.
            return
        try:
            self.backend.put(key, raw)
        except KVUnavailableError as error:
            self._mark_degraded(error)

    def _load_backend(self, key: str):
        if not self._backend_usable():
            return None
        try:
            raw = self.backend.get(key)
        except BackendCorruption:
            self.stats.corrupt += 1
            return None
        except KVUnavailableError as error:
            self._mark_degraded(error)
            return None
        if raw is None:
            return None
        try:
            return decode_entry(raw)
        except SchemaMismatch:
            return None
        except EntryCorrupt:
            # Quarantine: drop the damaged entry so the next put can
            # rewrite it; it is never served.
            self.stats.corrupt += 1
            self.backend.delete(key)
            return None


def score_with_store(method: BackboneMethod,
                     table: Union[EdgeTable, Callable[[], EdgeTable]],
                     store: Optional[ScoreStore],
                     key: Optional[str] = None) -> ScoredEdges:
    """``method.score(table)``, served from ``store`` when possible.

    ``key`` accepts a precomputed fingerprint so sweep loops hash the
    table once instead of once per method. With a key, ``table`` may
    also be a zero-argument callable returning the table: it is called
    only when the store cannot answer, which is how
    :mod:`repro.flow.serve` parses a source only on a score miss.

    The ``score`` span's ``pid`` attribute tells worker-process
    scoring apart from in-parent scoring in an exported trace.
    """
    load = table if callable(table) else lambda: table
    with span("score", method=method.name, pid=os.getpid()):
        if store is None:
            return method.score(load())
        if key is None:
            key = fingerprint_score_request(load(), method)
        return store.get_or_compute(key, lambda: method.score(load()),
                                    label=method.name)
