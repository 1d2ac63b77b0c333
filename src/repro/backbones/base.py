"""Common interface shared by all backbone methods.

Every method — the paper's Noise-Corrected contribution and the five
baselines — follows the same two-phase shape:

1. ``score(table)`` assigns each edge a significance score (higher means
   more salient) without dropping anything;
2. a filter keeps edges by score threshold, by share of edges, or by an
   exact edge budget.

Separating the phases is what allows the paper's edge-budget-matched
comparisons (Sections V-D/E/F): every method is asked for the same number
of edges and only the *ranking* differs.

The filter phase is one :class:`Cut`, resolved by
:meth:`BackboneMethod.cut`: the budget is validated and defaulted there,
and every filter phase — :meth:`BackboneMethod.extract_from_scores`,
streamed extraction and a plan's ``--explain`` — applies or prints the
cut it returns.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..graph.edge_table import EdgeTable
from ..util.validation import require


@dataclass(frozen=True)
class ScoredEdges:
    """Edges with per-edge significance scores.

    Attributes
    ----------
    table:
        The scored edges (self-loops removed).
    score:
        Per-edge significance; higher is more salient.
    method:
        Name of the producing method.
    sdev:
        Optional per-edge standard deviation of the score. Only the
        Noise-Corrected method provides it; it enables the δ filter and
        confidence intervals.
    info:
        Optional method-specific metadata about how the scores were
        produced (e.g. the High-Salience Skeleton records its root
        sample: ``n_roots``, ``root_fraction``, ``exact``, ``seed``).
    """

    table: EdgeTable
    score: np.ndarray
    method: str
    sdev: Optional[np.ndarray] = field(default=None)
    info: Optional[Dict[str, object]] = field(default=None)

    def __post_init__(self):
        require(len(self.score) == self.table.m,
                "score must have one entry per edge")
        if self.sdev is not None:
            require(len(self.sdev) == self.table.m,
                    "sdev must have one entry per edge")

    @property
    def m(self) -> int:
        """Number of scored edges."""
        return self.table.m

    def filter(self, threshold: float) -> EdgeTable:
        """Keep edges whose score strictly exceeds ``threshold``."""
        return self.table.subset(self.score > threshold)

    def top_k(self, k: int) -> EdgeTable:
        """Keep exactly the ``k`` highest-scoring edges (deterministic)."""
        return self.table.top_k_by(self.score, min(int(k), self.m))


@dataclass(frozen=True)
class Cut:
    """A resolved filter phase: what to rank by and where to cut.

    ``kind`` is ``"threshold"`` (keep rows whose value strictly exceeds
    ``value``), ``"share"`` or ``"n_edges"`` (keep the top :meth:`k`
    rows under the total order of
    :func:`~repro.graph.edge_table.top_k_rows`), or ``"natural"`` (a
    parameter-free method's own extraction; ``value`` is unused).
    ``by_method`` ranks by :meth:`BackboneMethod.rank_values` instead
    of the raw score. Built by :meth:`BackboneMethod.cut`.
    """

    kind: str
    value: float = 0.0
    by_method: bool = True

    def k(self, m: int) -> int:
        """Rows a share or ``n_edges`` cut keeps out of ``m``."""
        if self.kind == "share":
            return share_to_k(self.value, m)
        return min(int(self.value), m)

    def describe(self) -> Dict[str, object]:
        """The cut as a small JSON-able mapping (``--explain``)."""
        if self.kind == "natural":
            return {"kind": "natural"}
        return {"kind": self.kind, self.kind: self.value}


class BackboneMethod(ABC):
    """Abstract backbone extraction method."""

    #: Human-readable method name (matches the paper's terminology).
    name: str = "abstract"
    #: Short code used in tables (NT, MST, DS, HSS, DF, NC).
    code: str = "??"
    #: Parameter-free methods (MST, DS) ignore thresholds/budgets and
    #: appear as single points in the paper's sweeps.
    parameter_free: bool = False
    #: Instance attributes that influence only :meth:`extract` (never
    #: :meth:`score`). The pipeline cache excludes them from method
    #: fingerprints so e.g. NC runs at different deltas share one
    #: scored table.
    extraction_only_params: tuple = ()

    @abstractmethod
    def score(self, table: EdgeTable) -> ScoredEdges:
        """Assign a significance score to every (non-loop) edge."""

    def extract(self, table: EdgeTable, threshold: Optional[float] = None,
                share: Optional[float] = None,
                n_edges: Optional[int] = None) -> EdgeTable:
        """Score and filter in one call.

        Exactly one of ``threshold``, ``share`` or ``n_edges`` must be
        given; parameter-free methods accept none of them, and methods
        with a :meth:`default_budget` fall back to it (see :meth:`cut`).
        """
        return self.extract_from_scores(self.score(table),
                                        threshold=threshold, share=share,
                                        n_edges=n_edges)

    def extract_from_scores(self, scored: ScoredEdges,
                            threshold: Optional[float] = None,
                            share: Optional[float] = None,
                            n_edges: Optional[int] = None,
                            rank: str = "method") -> EdgeTable:
        """The filter phase of :meth:`extract`, on existing scores.

        This is the seam the pipeline cache and every plan rely on:
        given a cached ``ScoredEdges``, it must reproduce ``extract``
        exactly. It applies the :class:`Cut` that :meth:`cut` resolves
        from the budget and ``rank``, so a method whose ranking is not
        its raw score (NC's δ rule) overrides :meth:`rank_values`
        alone; methods whose extraction is more than a cut (the
        spanning logic of MST/DS) override this method and still
        validate through :meth:`cut`.
        """
        cut = self.cut(threshold, share, n_edges, rank=rank)
        if cut.kind == "natural":
            return scored.filter(0.0)
        if cut.by_method:
            scored = ScoredEdges(table=scored.table,
                                 score=self.rank_values(scored),
                                 method=self.name)
        if cut.kind == "threshold":
            return scored.filter(cut.value)
        return scored.top_k(cut.k(scored.m))

    def cut(self, threshold: Optional[float] = None,
            share: Optional[float] = None,
            n_edges: Optional[int] = None, rank: str = "method") -> Cut:
        """Resolve a budget into the :class:`Cut` the filter phase makes.

        The one budget rule. Exactly one of ``threshold`` (not NaN),
        ``share`` or ``n_edges`` may be given, none to a parameter-free
        method (its cut is ``"natural"``); with none,
        :meth:`default_budget` applies. ``rank="method"`` ranks by
        :meth:`rank_values`, ``rank="score"`` by the raw score, as share
        sweeps do; a default budget always ranks by the method, whatever
        ``rank`` says.

        >>> from repro.backbones.registry import get_method
        >>> get_method("NC").cut().describe()
        {'kind': 'threshold', 'threshold': 0.0}
        >>> get_method("NT").cut(share=0.25, rank="score").by_method
        False
        """
        require(rank in ("method", "score"),
                f"rank must be 'method' or 'score', got {rank!r}")
        chosen = [(name, value) for name, value in
                  (("threshold", threshold), ("share", share),
                   ("n_edges", n_edges)) if value is not None]
        if self.parameter_free:
            require(not chosen,
                    f"{self.name} is parameter-free and accepts no budget")
            return Cut("natural")
        by_method = rank == "method"
        if not chosen:
            default = self.default_budget()
            if default is not None:
                chosen, by_method = list(default.items()), True
        require(len(chosen) == 1,
                f"{self.name} needs exactly one of threshold/share/n_edges, "
                f"got {[name for name, _ in chosen]}")
        [(kind, value)] = chosen
        value = int(value) if kind == "n_edges" else float(value)
        require(not (kind == "threshold" and math.isnan(value)),
                "threshold must not be NaN")
        return Cut(kind, value, by_method)

    def rank_values(self, scored: ScoredEdges) -> np.ndarray:
        """Per-edge values this method's own budgets rank and cut by.

        The raw score by default; NC overrides it with its δ rule.
        :meth:`extract_from_scores` and the streaming filter phase both
        cut by it.
        """
        return scored.score

    def describe(self) -> Dict[str, object]:
        """Declarative identity of this configured method instance.

        Returns the method's short code, human name, class path,
        parameter-freeness and *full* public configuration (including
        extraction-only knobs such as NC's ``delta``, which the score
        cache excludes but a request's identity must include). This is
        the hook :mod:`repro.flow` compiles plans and plan fingerprints
        from.
        """
        cls = type(self)
        state = getattr(self, "__dict__", None) or {}
        return {
            "code": self.code,
            "name": self.name,
            "class": f"{cls.__module__}.{cls.__qualname__}",
            "parameter_free": self.parameter_free,
            "config": {key: value for key, value in state.items()
                       if not key.startswith("_")},
        }

    def default_budget(self) -> Optional[Dict[str, float]]:
        """Budget used when :meth:`extract` is called with none.

        ``None`` (the base default) means a budget is mandatory.
        Methods with a natural operating point return a single-entry
        mapping — e.g. ``{"threshold": 0.5}`` for the High-Salience
        Skeleton; :meth:`cut` falls back to it.
        """
        return None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def prepare_table(table: EdgeTable) -> EdgeTable:
    """Normalize an input network for backboning.

    Self-loops carry no inter-node information, so every method removes
    them before scoring (matching the reference implementation's
    ``return_self_loops=False`` default).
    """
    require_edges(table.m)
    return table.without_self_loops()


def share_to_k(share: float, m: int) -> int:
    """Edge budget equivalent to ``share`` of ``m`` rows.

    The single share rounding rule: :meth:`Cut.k` calls it for every
    share cut, in memory and streamed, so a share maps to the same edge
    count everywhere. At tiny shares ``round`` may yield ``k = 0``, an
    empty backbone.
    """
    require(0.0 <= share <= 1.0, f"share must be in [0, 1], got {share}")
    return min(int(round(share * m)), m)


def require_edges(m: int) -> None:
    """Refuse an empty network; ``m`` counts every row, self-loops too."""
    require(m > 0, "cannot extract a backbone from an empty network")
