"""Declarative, picklable building blocks of flow plans.

A :class:`~repro.flow.plan.Plan` is assembled from four kinds of spec,
each a small frozen object that *describes* work without doing any:

* **source specs** — where the edge table comes from.
  :class:`FileSource` wraps a path (``.csv``, ``.csv.gz`` or ``.npz``;
  ``file://`` URLs and ``Path`` objects are accepted) plus its parse
  options and is fingerprinted from the raw file bytes via
  :func:`repro.pipeline.fingerprint.fingerprint_file` — no parsing.
  :class:`TableSource` wraps an in-memory
  :class:`~repro.graph.edge_table.EdgeTable` and fingerprints its
  content. Other URL schemes route through the pluggable resolver
  registry in :mod:`repro.flow.sources` — ``http(s)://`` and
  ``kv://host:port/key`` ship with
  :class:`~repro.flow.sources.RemoteSource` (fetch, spool,
  fingerprint through the local-file path), and third parties add
  schemes with :func:`~repro.flow.sources.register_scheme`.
* :class:`MethodSpec` — a backbone method named by registry code plus
  constructor parameters (``MethodSpec.of("nc", delta=1.0)``; codes are
  case-insensitive). :class:`MethodInstance` wraps an already-built
  :class:`~repro.backbones.base.BackboneMethod` for callers that hold
  one; it stays picklable but cannot be serialized to JSON.
* :class:`FilterSpec` — at most one of ``threshold`` / ``share`` /
  ``n_edges`` plus a ``rank`` mode, handed whole to the method's
  :meth:`~repro.backbones.base.BackboneMethod.extract_from_scores`.
  ``rank="method"`` (the default) reproduces ``method.extract`` bit
  for bit; ``rank="score"`` ranks an explicit budget by the raw
  scores, the way share sweeps do.
* metric specs — :class:`MetricSpec` names one of the registered
  metrics (resolved against the source's table summary when the plan
  compiles, so ``"coverage"`` measures retention against the *input*);
  :class:`CallableMetric` wraps any picklable callable (e.g. the
  stability metric built from a stack of yearly tables).

Everything here survives ``pickle`` and — except for the two
explicitly in-memory escape hatches — round-trips through JSON, which
is what makes plans shippable artifacts (``repro flow run plan.json``).
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

from ..backbones.base import BackboneMethod
from ..backbones.registry import get_method, method_codes
from ..graph.edge_table import EdgeTable
from ..graph.ingest import detect_format, read_edges
from ..pipeline.fingerprint import (fingerprint_file,
                                    fingerprint_source_request,
                                    fingerprint_table)
from ..pipeline.tasks import METRIC_BUILDERS, Metric
from ..util.validation import require


class PlanSerializationError(ValueError):
    """A plan holds in-memory objects that JSON cannot carry."""


# ----------------------------------------------------------------------
# Source specs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FileSource:
    """An edge file on disk plus the options it is parsed with.

    The fingerprint hashes the raw bytes (one sequential read, no
    parsing) combined with the parse options — byte-compatible with
    the source bindings the CLI ``sweep`` subcommand has stored since
    PR 4, so plans resolve old caches' bindings.
    """

    path: str
    directed: bool = True
    delimiter: str = ","
    format: Optional[str] = None  # autodetected from the suffix if None

    kind = "file"

    def __post_init__(self):
        if isinstance(self.path, os.PathLike):
            object.__setattr__(self, "path", os.fspath(self.path))
        require(isinstance(self.path, str) and self.path,
                "FileSource needs a non-empty path")

    def local_path(self) -> Path:
        """The file itself (the path a streamed plan runs pass 1 over)."""
        return Path(self.path)

    def fingerprint(self) -> str:
        """Source-request digest from the raw file bytes (no parse)."""
        return fingerprint_source_request(
            fingerprint_file(self.path), directed=self.directed,
            delimiter=self.delimiter,
            format=self.format or detect_format(self.path))

    def resolve(self) -> EdgeTable:
        """Parse the file into an :class:`EdgeTable`."""
        return read_edges(self.path, directed=self.directed,
                          delimiter=self.delimiter, format=self.format)

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"kind": "file", "path": self.path}
        if self.directed is not True:
            payload["directed"] = self.directed
        if self.delimiter != ",":
            payload["delimiter"] = self.delimiter
        if self.format is not None:
            payload["format"] = self.format
        return payload

    def describe(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (f"file {self.path} "
                f"({self.format or detect_format(self.path)}, {kind})")


@dataclass(frozen=True, eq=False)
class TableSource:
    """An in-memory :class:`EdgeTable` (fingerprinted by content)."""

    table: EdgeTable

    kind = "table"

    def fingerprint(self) -> str:
        return fingerprint_table(self.table)

    def resolve(self) -> EdgeTable:
        return self.table

    def to_json(self) -> Dict[str, object]:
        raise PlanSerializationError(
            "a plan over an in-memory EdgeTable cannot be saved to "
            "JSON; write the table to a file (write_edges) and build "
            "the plan from the path instead")

    def describe(self) -> str:
        kind = "directed" if self.table.directed else "undirected"
        return (f"in-memory table ({self.table.m} edges, "
                f"{self.table.n_nodes} nodes, {kind})")


def as_source(source, directed: bool = True, delimiter: str = ",",
              format: Optional[str] = None):
    """Coerce a user-facing source argument into a source spec.

    Accepts an :class:`EdgeTable`, an existing source spec (anything
    with ``fingerprint()`` / ``resolve()`` / ``describe()``), a path
    or ``Path``, or a URL whose scheme is registered in
    :mod:`repro.flow.sources` (``file://``, ``http(s)://``,
    ``kv://host:port/key`` out of the box). Unknown schemes raise a
    ``ValueError`` that enumerates the registered ones.
    """
    from .sources import is_source_spec, resolve_url

    if isinstance(source, (FileSource, TableSource)):
        return source
    if isinstance(source, EdgeTable):
        return TableSource(source)
    if isinstance(source, os.PathLike):
        source = os.fspath(source)
    if not isinstance(source, str) and is_source_spec(source):
        return source
    require(isinstance(source, str),
            f"cannot build a flow source from {type(source).__name__}; "
            "pass an EdgeTable, a path, a registered-scheme URL or a "
            "source spec")
    if "://" in source:
        return resolve_url(source, directed=directed,
                           delimiter=delimiter, format=format)
    return FileSource(path=source, directed=directed, delimiter=delimiter,
                      format=format)


def source_from_json(payload: Dict[str, object]):
    """Inverse of ``FileSource.to_json`` / ``RemoteSource.to_json``."""
    require(isinstance(payload, dict)
            and payload.get("kind") in ("file", "remote"),
            "plan JSON source must be a {'kind': 'file'|'remote', ...} "
            "mapping")
    if payload.get("kind") == "remote":
        from .sources import RemoteSource
        return RemoteSource(url=str(payload["url"]),
                            directed=bool(payload.get("directed", True)),
                            delimiter=str(payload.get("delimiter", ",")),
                            format=payload.get("format"))
    return FileSource(path=str(payload["path"]),
                      directed=bool(payload.get("directed", True)),
                      delimiter=str(payload.get("delimiter", ",")),
                      format=payload.get("format"))


# ----------------------------------------------------------------------
# Method specs
# ----------------------------------------------------------------------

def _canonical_code(code: str) -> str:
    """Resolve a registry code case-insensitively (``"nc"`` -> ``"NC"``)."""
    by_lower = {known.lower(): known for known in method_codes()}
    require(code.lower() in by_lower,
            f"unknown backbone code {code!r}; known codes: "
            f"{', '.join(method_codes())}")
    return by_lower[code.lower()]


@dataclass(frozen=True)
class MethodSpec:
    """A backbone method named symbolically: registry code + params."""

    code: str
    params: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def of(cls, method, **params):
        """``MethodSpec`` from a code string, or wrap a live instance."""
        if isinstance(method, BackboneMethod):
            require(not params,
                    "constructor params only apply to method codes; "
                    "configure the instance directly instead")
            return MethodInstance(method)
        if isinstance(method, (MethodSpec, MethodInstance)):
            require(not params,
                    "constructor params only apply to method codes")
            return method
        require(isinstance(method, str),
                f"method must be a registry code or a BackboneMethod, "
                f"got {type(method).__name__}")
        return cls(code=_canonical_code(method),
                   params=tuple(sorted(params.items())))

    def build(self) -> BackboneMethod:
        return get_method(self.code, **dict(self.params))

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"code": self.code}
        if self.params:
            payload["params"] = dict(self.params)
        return payload


@dataclass(frozen=True, eq=False)
class MethodInstance:
    """An already-configured method object (picklable, not JSON-able)."""

    method: BackboneMethod

    @property
    def code(self) -> str:
        return self.method.code

    def build(self) -> BackboneMethod:
        return self.method

    def to_json(self) -> Dict[str, object]:
        raise PlanSerializationError(
            "a plan holding a live method instance cannot be saved to "
            "JSON; build the plan with a registry code "
            "(.method('NC', delta=...)) instead")


def method_from_json(payload: Dict[str, object]) -> MethodSpec:
    """Inverse of ``MethodSpec.to_json``."""
    require(isinstance(payload, dict) and "code" in payload,
            "plan JSON method must be a {'code': ..., ...} mapping")
    params = payload.get("params") or {}
    require(isinstance(params, dict), "method params must be a mapping")
    return MethodSpec.of(str(payload["code"]), **params)


# ----------------------------------------------------------------------
# Filter specs
# ----------------------------------------------------------------------

#: Budget keywords a plan's ``.budget(...)`` / ``.run_many(...)`` accept.
BUDGET_KEYS = ("threshold", "share", "n_edges")


@dataclass(frozen=True)
class FilterSpec:
    """One budget (or none, meaning the method's default) plus ranking.

    A plan's filter phase, in memory and streamed, is the method's own
    ``extract_from_scores`` called with :meth:`filter_kwargs` — the
    code path ``method.extract`` runs, so plan results are
    bit-identical to the legacy call by construction. ``rank="score"``
    ranks an explicit budget by the raw scores the way share sweeps
    always have (NC unadjusted, ties broken by weight then row), which
    is what sweep-compiled plan batches use; a default budget ranks by
    the method either way.

    Budgets arrive from plan JSON and daemon clients, so they are
    typed here: ``threshold`` and ``share`` real numbers (``threshold``
    not NaN, ``share`` in [0, 1]), ``n_edges`` a non-negative integer,
    and never ``bool``.
    """

    threshold: Optional[float] = None
    share: Optional[float] = None
    n_edges: Optional[int] = None
    rank: str = "method"

    def __post_init__(self):
        given = [name for name in BUDGET_KEYS
                 if getattr(self, name) is not None]
        require(len(given) <= 1,
                f"give at most one of threshold/share/n_edges, "
                f"got {given}")
        require(self.rank in ("method", "score"),
                f"rank must be 'method' or 'score', got {self.rank!r}")
        for name, kind, noun in (
                ("threshold", numbers.Real, "a real number"),
                ("share", numbers.Real, "a real number"),
                ("n_edges", numbers.Integral, "a non-negative integer")):
            value = getattr(self, name)
            require(value is None or (isinstance(value, kind)
                                      and not isinstance(value, bool)),
                    f"{name} must be {noun}, got {value!r}")
        if self.threshold is not None:
            require(not math.isnan(self.threshold),
                    "threshold must not be NaN")
        if self.share is not None:
            require(0.0 <= self.share <= 1.0,
                    f"share must be in [0, 1], got {self.share}")
        if self.n_edges is not None:
            require(self.n_edges >= 0, f"n_edges must be a non-negative "
                                       f"integer, got {self.n_edges}")

    def budget_kwargs(self) -> Dict[str, object]:
        """The non-``None`` budget as ``extract`` keyword arguments."""
        return {name: getattr(self, name) for name in BUDGET_KEYS
                if getattr(self, name) is not None}

    def filter_kwargs(self) -> Dict[str, object]:
        """Budget and ``rank`` as ``extract_from_scores`` keyword
        arguments (the same ones :meth:`BackboneMethod.cut` takes)."""
        return dict(self.budget_kwargs(), rank=self.rank)

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = dict(self.budget_kwargs())
        if self.rank != "method":
            payload["rank"] = self.rank
        return payload


def filter_from_json(payload: Dict[str, object]) -> FilterSpec:
    """Inverse of ``FilterSpec.to_json``."""
    require(isinstance(payload, dict), "plan JSON filter must be a mapping")
    unknown = set(payload) - set(BUDGET_KEYS) - {"rank"}
    require(not unknown, f"unknown filter fields {sorted(unknown)}")
    kwargs = {name: payload[name] for name in BUDGET_KEYS
              if payload.get(name) is not None}
    return FilterSpec(rank=str(payload.get("rank", "method")), **kwargs)


# ----------------------------------------------------------------------
# Metric specs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class MetricSpec:
    """A registered metric by name, resolved against the source.

    ``build`` receives the source's
    :class:`~repro.graph.edge_table.TableSummary`, not its columns.
    """

    name: str

    def __post_init__(self):
        require(self.name in METRIC_BUILDERS,
                f"unknown metric {self.name!r}; choose from "
                f"{sorted(METRIC_BUILDERS)}")

    @property
    def key(self) -> str:
        return self.name

    def build(self, base: EdgeTable) -> Metric:
        return METRIC_BUILDERS[self.name](base)

    def to_json(self) -> object:
        return self.name


@dataclass(frozen=True, eq=False)
class CallableMetric:
    """Any picklable backbone -> float callable (not JSON-able)."""

    metric: Callable[[EdgeTable], float]

    @property
    def key(self) -> str:
        return type(self.metric).__name__

    def build(self, base: EdgeTable) -> Metric:
        return self.metric

    def to_json(self) -> object:
        raise PlanSerializationError(
            "a plan holding a metric callable cannot be saved to JSON; "
            "use a named metric (e.g. 'density') instead")


def as_metric(spec) -> Union[MetricSpec, CallableMetric]:
    """Coerce a user-facing metric argument into a metric spec."""
    if isinstance(spec, (MetricSpec, CallableMetric)):
        return spec
    if isinstance(spec, str):
        return MetricSpec(spec)
    require(callable(spec),
            f"metrics must be names or callables, got "
            f"{type(spec).__name__}")
    return CallableMetric(spec)


def metrics_from_json(payload: Sequence[object]):
    """Inverse of the metrics list in plan JSON."""
    require(isinstance(payload, (list, tuple)),
            "plan JSON metrics must be a list of names")
    return tuple(MetricSpec(str(name)) for name in payload)
