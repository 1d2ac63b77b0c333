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
"""

from __future__ import annotations

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

    def share_to_k(self, share: float) -> int:
        """Edge budget equivalent to ``share`` of these edges.

        Every share-based filter (:meth:`top_share`,
        :meth:`threshold_for_share`) derives its ``k`` here, through the
        module-level :func:`share_to_k` that streamed extraction uses
        too.
        """
        return share_to_k(share, self.m)

    def top_share(self, share: float) -> EdgeTable:
        """Keep the top ``share`` fraction of edges by score."""
        return self.top_k(self.share_to_k(share))

    def threshold_for_share(self, share: float) -> float:
        """Score threshold approximating the ``share_to_k`` edge budget.

        Derives ``k`` exactly like :meth:`top_share` (they used to
        disagree at tiny shares: ``int(round(...))`` vs
        ``max(1, ...)``) and returns the ``k``-th highest score, so
        the strict ``score > threshold`` cut keeps at most ``k`` edges
        (``k - 1`` when scores are distinct — the filter has always
        been strict). When the share rounds to ``k = 0``, the maximum
        score is returned and the cut keeps nothing, mirroring the
        empty ``top_share`` backbone.
        """
        require(self.m > 0,
                "threshold_for_share needs at least one scored edge")
        k = self.share_to_k(share)
        ordered = np.sort(self.score)[::-1]
        return float(ordered[max(k, 1) - 1])


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
        with a :meth:`default_budget` fall back to it. Validation lives
        in :meth:`extract_from_scores` (the seam every override shares).
        """
        return self.extract_from_scores(self.score(table),
                                        threshold=threshold, share=share,
                                        n_edges=n_edges)

    def extract_from_scores(self, scored: ScoredEdges,
                            threshold: Optional[float] = None,
                            share: Optional[float] = None,
                            n_edges: Optional[int] = None) -> EdgeTable:
        """The filter phase of :meth:`extract`, on existing scores.

        This is the seam the pipeline cache relies on: given a cached
        ``ScoredEdges``, it must reproduce ``extract`` exactly, so
        methods whose extraction is more than a plain cut (NC's
        δ-adjusted ranking, the spanning logic of MST/DS) override this
        method rather than ``extract``.
        """
        threshold, share, n_edges = self._resolve_budget(threshold, share,
                                                         n_edges)
        if self.parameter_free:
            return scored.filter(0.0)
        if threshold is not None:
            return scored.filter(threshold)
        if share is not None:
            return scored.top_share(share)
        return scored.top_k(n_edges)

    def rank_values(self, scored: ScoredEdges) -> np.ndarray:
        """Per-edge values this method's own budgets rank and cut by.

        The raw score by default; NC overrides it with its δ rule. The
        streaming filter phase ranks by it so it matches
        :meth:`extract_from_scores`.
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

    def filter_spec(self, threshold: Optional[float] = None,
                    share: Optional[float] = None,
                    n_edges: Optional[int] = None) -> Dict[str, object]:
        """Declarative description of the filter phase of :meth:`extract`.

        Resolves the budget exactly like :meth:`extract` (defaults
        applied, mutual exclusion enforced) but returns a small
        JSON-able mapping instead of touching any data — the form
        :mod:`repro.flow` plans carry and ``repro backbone --explain``
        prints. ``{"kind": "natural"}`` marks parameter-free methods
        whose extraction ignores budgets entirely.
        """
        threshold, share, n_edges = self._resolve_budget(threshold, share,
                                                         n_edges)
        if self.parameter_free:
            return {"kind": "natural"}
        if threshold is not None:
            return {"kind": "threshold", "threshold": float(threshold)}
        if share is not None:
            return {"kind": "share", "share": float(share)}
        return {"kind": "n_edges", "n_edges": int(n_edges)}

    def default_budget(self) -> Optional[Dict[str, float]]:
        """Budget used when :meth:`extract` is called with none.

        ``None`` (the base default) means a budget is mandatory.
        Methods with a natural operating point return a single-entry
        mapping — e.g. ``{"threshold": 0.5}`` for the High-Salience
        Skeleton — and the CLI uses this hook to know which methods may
        run without budget flags.
        """
        return None

    def _resolve_budget(self, threshold: Optional[float],
                        share: Optional[float],
                        n_edges: Optional[int]):
        """Validate the budget arguments, applying the default if any."""
        chosen = [name for name, value in
                  (("threshold", threshold), ("share", share),
                   ("n_edges", n_edges)) if value is not None]
        if self.parameter_free:
            require(not chosen,
                    f"{self.name} is parameter-free and accepts no budget")
            return None, None, None
        if not chosen:
            default = self.default_budget()
            if default is not None:
                return (default.get("threshold"), default.get("share"),
                        default.get("n_edges"))
        require(len(chosen) == 1,
                f"give exactly one of threshold/share/n_edges, got {chosen}")
        return threshold, share, n_edges

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

    The single share rounding rule: in-memory filters
    (:meth:`ScoredEdges.share_to_k`) and streamed extraction both call
    it, so a share maps to the same edge count everywhere. At tiny
    shares ``round`` may yield ``k = 0``, an empty backbone.
    """
    require(0.0 <= share <= 1.0, f"share must be in [0, 1], got {share}")
    return min(int(round(share * m)), m)


def require_edges(m: int) -> None:
    """Refuse an empty network; ``m`` counts every row, self-loops too."""
    require(m > 0, "cannot extract a backbone from an empty network")
