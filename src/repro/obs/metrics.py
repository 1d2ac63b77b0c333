"""A threadsafe, dependency-free metrics registry.

Three instrument kinds, mirroring the Prometheus data model:

- :class:`Counter` — monotone totals (requests, retries, misses);
- :class:`Gauge` — set-anywhere level (degraded flag, queue depth);
- :class:`Histogram` — fixed cumulative buckets plus sum and count
  (queue wait, batch execution, request latency).

A :class:`MetricsRegistry` owns instruments by name and can also host
*collectors* — callables returning :class:`MetricFamily` rows built
on demand from values the registry does not own. The daemon keeps its
own counters as instruments and uses one collector, for its score
store's plain ``CacheStats``.

Every instrument takes its own lock around mutation, so increments
from handler threads, the batcher and the probe ticker never drop
updates. The module-level default registry (:func:`get_registry`)
hosts process-wide series (pool retries, KV retries, store
degradation events); the daemon layers its own registry on top.
"""

from __future__ import annotations

import math
import re
import threading
from collections import OrderedDict
from typing import (Any, Callable, Dict, Iterable, List, NamedTuple,
                    Optional, Sequence, Tuple, Union)

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricFamily",
    "MetricsRegistry", "Sample", "get_registry", "make_family",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0)


class Sample(NamedTuple):
    """One exposition line: ``name{labels} value``."""

    name: str
    labels: Tuple[Tuple[str, str], ...]
    value: float


class MetricFamily(NamedTuple):
    """A named series with its type and help text, ready to render."""

    name: str
    kind: str
    help: str
    samples: Tuple[Sample, ...]


def make_family(kind: str, name: str, help: str,
                samples: Union[float, int,
                               Sequence[Tuple[Dict[str, str],
                                              float]]]
                ) -> MetricFamily:
    """Build a family from plain values — the collector helper.

    ``samples`` is either a single unlabeled number or a sequence of
    ``(labels_dict, value)`` pairs.
    """
    if isinstance(samples, (int, float)):
        rows = (Sample(name, (), float(samples)),)
    else:
        rows = tuple(
            Sample(name,
                   tuple(sorted((str(k), str(v))
                                for k, v in labels.items())),
                   float(value))
            for labels, value in samples)
    return MetricFamily(name, kind, help, rows)


class _Instrument:
    """Shared machinery: name/label validation, the value map, the
    per-instrument lock."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",
                 label_names: Sequence[str] = ()):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        for label in label_names:
            if not _LABEL_RE.match(label):
                raise ValueError(f"invalid label name {label!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()
        self._values: Dict[Tuple[str, ...], float] = {}
        if not self.label_names:
            # Unlabeled series render at 0 immediately so dashboards
            # and the CI scrape see them before the first event.
            self._values[()] = 0.0

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {tuple(sorted(labels))}")
        return tuple(str(labels[k]) for k in self.label_names)

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def _sample_rows(self) -> List[Sample]:
        with self._lock:
            items = sorted(self._values.items())
        return [Sample(self.name,
                       tuple(zip(self.label_names, key)), value)
                for key, value in items]

    def collect(self) -> MetricFamily:
        return MetricFamily(self.name, self.kind, self.help,
                            tuple(self._sample_rows()))


class Counter(_Instrument):
    """A monotonically increasing total."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount


class Gauge(_Instrument):
    """A value that can go anywhere."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)


class Histogram:
    """Fixed cumulative buckets plus ``_sum`` and ``_count``.

    Buckets are chosen at construction and never resize — the
    Prometheus model, and also what keeps ``observe`` O(buckets) with
    no allocation on the hot path.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds or any(b <= 0 for b in bounds):
            raise ValueError("histogram buckets must be positive")
        self.name = name
        self.help = help
        self.buckets = bounds
        self._lock = threading.Lock()
        self._counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                index = i
                break
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def collect(self) -> MetricFamily:
        with self._lock:
            counts = list(self._counts)
            total, n = self._sum, self._count
        rows = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            rows.append(Sample(self.name + "_bucket",
                               (("le", _format_bound(bound)),),
                               float(running)))
        rows.append(Sample(self.name + "_bucket", (("le", "+Inf"),),
                           float(n)))
        rows.append(Sample(self.name + "_sum", (), total))
        rows.append(Sample(self.name + "_count", (), float(n)))
        return MetricFamily(self.name, self.kind, self.help,
                            tuple(rows))


def _format_bound(bound: float) -> str:
    if math.isinf(bound):
        return "+Inf"
    if bound == int(bound):
        return str(int(bound))
    return repr(bound)


class MetricsRegistry:
    """Instruments by name, plus on-demand collectors.

    ``counter``/``gauge``/``histogram`` are idempotent: asking twice
    for the same name returns the same instrument (and raises if the
    second request disagrees on kind or labels), so modules can
    declare their series at import time without coordination.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: "OrderedDict[str, Any]" = OrderedDict()
        self._collectors: List[Callable[[],
                                        Iterable[MetricFamily]]] = []

    def _get_or_make(self, factory, name: str, help: str,
                     **kwargs) -> Any:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not factory:
                    raise ValueError(
                        f"{name} already registered as "
                        f"{type(existing).__name__}")
                wanted = kwargs.get("label_names")
                if (wanted is not None
                        and tuple(wanted) != existing.label_names):
                    raise ValueError(
                        f"{name} already registered with labels "
                        f"{existing.label_names}")
                return existing
            made = factory(name, help, **kwargs)
            self._metrics[name] = made
            return made

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> Counter:
        return self._get_or_make(Counter, name, help,
                                 label_names=tuple(labels))

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> Gauge:
        return self._get_or_make(Gauge, name, help,
                                 label_names=tuple(labels))

    def histogram(self, name: str, help: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS
                  ) -> Histogram:
        return self._get_or_make(Histogram, name, help,
                                 buckets=tuple(buckets))

    def get(self, name: str) -> Optional[Any]:
        with self._lock:
            return self._metrics.get(name)

    def register_collector(
            self,
            fn: Callable[[], Iterable[MetricFamily]]
    ) -> Callable[[], Iterable[MetricFamily]]:
        with self._lock:
            self._collectors.append(fn)
        return fn

    def unregister_collector(self, fn) -> None:
        with self._lock:
            if fn in self._collectors:
                self._collectors.remove(fn)

    def collect(self) -> List[MetricFamily]:
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        families = [metric.collect() for metric in metrics]
        for collector in collectors:
            families.extend(collector())
        return families

    def render(self) -> str:
        from .export import render_families
        return render_families(self.collect())


_DEFAULT = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _DEFAULT
