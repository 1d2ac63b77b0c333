"""Columnar weighted edge lists.

``EdgeTable`` is the fundamental data structure of this library, mirroring
the paper's definition of a weighted graph ``G = (V, E, N)``. Edges are
stored as three aligned numpy arrays (``src``, ``dst``, ``weight``), which is
what lets the Noise-Corrected backbone and the Disparity Filter run as pure
vectorized computations and scale to millions of edges (paper Section V-G).

Conventions
-----------
* Nodes are dense integer indices ``0 .. n_nodes - 1``. Optional string
  labels can be attached for presentation and IO.
* Undirected tables store one canonical row per edge with ``src <= dst``.
  Marginal quantities (strengths, ``N..``) are defined on the implicit
  "doubled" representation — each undirected edge contributes its weight to
  both endpoints — matching the reference implementation of the paper.
* Duplicate rows are coalesced by summing their weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..util.validation import as_float_array, as_index_array, require

EdgeKey = Tuple[int, int]


@dataclass(frozen=True)
class NodeTotals:
    """Node marginals of a scoring table: strengths, degrees and ``N..``.

    ``out_strength`` and ``in_strength`` are the paper's ``N_i.`` and
    ``N_.j``; ``grand_total`` is ``N..``. Per-edge scorers read node
    marginals only from this value, so a table's own totals
    (:meth:`EdgeTable.node_totals`), a stream's pass-1 totals and a
    multilayer coupled null all feed the same kernel. Undirected
    totals share one strength array and one degree array between the
    out and in fields.
    """

    out_strength: np.ndarray
    in_strength: np.ndarray
    out_degree: np.ndarray
    in_degree: np.ndarray
    grand_total: float


class EdgeTable:
    """A weighted edge list over nodes ``0 .. n_nodes - 1``.

    Parameters
    ----------
    src, dst:
        Endpoint index arrays of equal length.
    weight:
        Non-negative edge weights (the paper's ``N_ij``).
    n_nodes:
        Number of nodes. Defaults to ``max(src, dst) + 1``.
    directed:
        Whether rows are ordered pairs. Undirected rows are canonicalized
        so that ``src <= dst``.
    labels:
        Optional sequence of node labels, one per node.
    coalesce:
        When ``True`` (default) duplicate rows are merged by summing
        weights. Construction from trusted, already-unique data may pass
        ``False`` to skip the sort.
    """

    __slots__ = ("src", "dst", "weight", "n_nodes", "directed", "labels")

    def __init__(
        self,
        src: Iterable[int],
        dst: Iterable[int],
        weight: Iterable[float],
        n_nodes: Optional[int] = None,
        directed: bool = True,
        labels: Optional[Sequence[str]] = None,
        coalesce: bool = True,
    ):
        src = as_index_array(src, "src")
        dst = as_index_array(dst, "dst")
        weight = as_float_array(weight, "weight")
        require(len(src) == len(dst) == len(weight),
                "src, dst and weight must have the same length")
        if weight.size and weight.min() < 0:
            raise ValueError("edge weights must be non-negative")
        observed_max = int(max(src.max(), dst.max())) + 1 if len(src) else 0
        if n_nodes is None:
            n_nodes = observed_max
        require(n_nodes >= observed_max,
                f"n_nodes={n_nodes} is smaller than the largest index "
                f"{observed_max - 1}")
        if not directed and len(src):
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            src, dst = lo, hi
        if coalesce and len(src):
            src, dst, weight = coalesce_edges(src, dst, weight)
        if labels is not None:
            if not (isinstance(labels, tuple)
                    and all(type(label) is str for label in labels)):
                labels = tuple(str(label) for label in labels)
            require(len(labels) == n_nodes,
                    f"labels has length {len(labels)}, expected {n_nodes}")
        self.src = src
        self.dst = dst
        self.weight = weight
        self.n_nodes = int(n_nodes)
        self.directed = bool(directed)
        self.labels = labels

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        src: np.ndarray,
        dst: np.ndarray,
        weight: np.ndarray,
        n_nodes: Optional[int] = None,
        directed: bool = True,
        labels: Optional[Sequence[str]] = None,
        coalesce: bool = True,
    ) -> "EdgeTable":
        """Build a table from aligned numpy arrays without row loops.

        This is the bulk-ingestion constructor: arrays of the right
        dtype (``int64`` endpoints, ``float64`` weights) are adopted
        without copying, and canonicalization runs as one vectorized
        :func:`coalesce_edges` pass (an O(m) no-op when the input is
        already canonical). ``coalesce=False`` skips even that for
        trusted, already-canonical data such as the ``.npz`` format.
        """
        return cls(src, dst, weight, n_nodes=n_nodes, directed=directed,
                   labels=labels, coalesce=coalesce)

    @classmethod
    def from_pairs(
        cls,
        pairs: Iterable[Tuple[int, int, float]],
        n_nodes: Optional[int] = None,
        directed: bool = True,
        labels: Optional[Sequence[str]] = None,
    ) -> "EdgeTable":
        """Build a table from an iterable of ``(u, v, weight)`` triples."""
        triples = list(pairs)
        if triples:
            src, dst, weight = zip(*triples)
        else:
            src, dst, weight = (), (), ()
        return cls(src, dst, weight, n_nodes=n_nodes, directed=directed,
                   labels=labels)

    @classmethod
    def from_dict(
        cls,
        weights: Mapping[EdgeKey, float],
        n_nodes: Optional[int] = None,
        directed: bool = True,
        labels: Optional[Sequence[str]] = None,
    ) -> "EdgeTable":
        """Build a table from a ``{(u, v): weight}`` mapping."""
        triples = ((u, v, w) for (u, v), w in weights.items())
        return cls.from_pairs(triples, n_nodes=n_nodes, directed=directed,
                              labels=labels)

    @classmethod
    def from_dense(
        cls,
        matrix: np.ndarray,
        directed: bool = True,
        labels: Optional[Sequence[str]] = None,
        keep_zeros: bool = False,
    ) -> "EdgeTable":
        """Build a table from a dense adjacency matrix.

        For undirected input only the upper triangle (including the
        diagonal) is read, so a symmetric matrix round-trips cleanly.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        require(matrix.ndim == 2 and matrix.shape[0] == matrix.shape[1],
                f"adjacency matrix must be square, got shape {matrix.shape}")
        n = matrix.shape[0]
        if directed:
            mask = np.ones_like(matrix, dtype=bool)
        else:
            mask = np.triu(np.ones_like(matrix, dtype=bool))
        if not keep_zeros:
            mask &= matrix != 0
        src, dst = np.nonzero(mask)
        return cls(src, dst, matrix[src, dst], n_nodes=n, directed=directed,
                   labels=labels)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.src)

    @property
    def m(self) -> int:
        """Number of stored edges (rows)."""
        return len(self.src)

    @property
    def nonloop_m(self) -> int:
        """Number of rows that are not self-loops.

        Equals ``without_self_loops().m`` without building that table.
        """
        return int(np.count_nonzero(self.src != self.dst))

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (f"EdgeTable({kind}, n_nodes={self.n_nodes}, "
                f"m={self.m}, total_weight={self.total_weight:.6g})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeTable):
            return NotImplemented
        if (self.n_nodes, self.directed) != (other.n_nodes, other.directed):
            return False
        a = self.sorted_by_endpoints()
        b = other.sorted_by_endpoints()
        return (np.array_equal(a.src, b.src)
                and np.array_equal(a.dst, b.dst)
                and np.allclose(a.weight, b.weight))

    def __hash__(self):  # tables are mutable containers; keep them unhashable
        raise TypeError("EdgeTable is not hashable")

    def iter_edges(self) -> Iterator[Tuple[int, int, float]]:
        """Yield ``(src, dst, weight)`` triples."""
        for u, v, w in zip(self.src, self.dst, self.weight):
            yield int(u), int(v), float(w)

    def label_of(self, node: int) -> str:
        """Return the label of ``node`` (its index as text when unlabeled)."""
        if self.labels is None:
            return str(node)
        return self.labels[node]

    # ------------------------------------------------------------------
    # Marginals (the paper's N_i., N_.j and N..)
    # ------------------------------------------------------------------

    @property
    def total_weight(self) -> float:
        """Sum of stored edge weights (each undirected edge counted once)."""
        return float(self.weight.sum())

    @property
    def grand_total(self) -> float:
        """The paper's ``N..``.

        For directed tables this is the plain sum of weights. For
        undirected tables every edge is counted in both directions, so
        ``N..`` equals twice the stored total (self-loops excluded from the
        doubling).
        """
        if self.directed:
            return float(self.weight.sum())
        loops = self.src == self.dst
        loop_weight = float(self.weight[loops].sum())
        return 2.0 * (self.total_weight - loop_weight) + loop_weight

    def out_strength(self) -> np.ndarray:
        """Total outgoing weight per node (``N_i.``).

        For undirected tables this is the node strength: the sum of
        weights of all incident edges.
        """
        if self.directed:
            return np.bincount(self.src, weights=self.weight,
                               minlength=self.n_nodes)
        return self._undirected_strength()

    def in_strength(self) -> np.ndarray:
        """Total incoming weight per node (``N_.j``)."""
        if self.directed:
            return np.bincount(self.dst, weights=self.weight,
                               minlength=self.n_nodes)
        return self._undirected_strength()

    def strength(self) -> np.ndarray:
        """Total incident weight per node, regardless of direction."""
        if not self.directed:
            return self._undirected_strength()
        return self.out_strength() + self.in_strength()

    def _undirected_strength(self) -> np.ndarray:
        non_loop = self.src != self.dst
        out_part = np.bincount(self.src[non_loop],
                               weights=self.weight[non_loop],
                               minlength=self.n_nodes)
        in_part = np.bincount(self.dst[non_loop],
                              weights=self.weight[non_loop],
                              minlength=self.n_nodes)
        loops = ~non_loop
        loop_part = np.bincount(self.src[loops], weights=self.weight[loops],
                                minlength=self.n_nodes)
        return out_part + in_part + loop_part

    def out_degree(self) -> np.ndarray:
        """Number of outgoing (or incident, when undirected) edges."""
        if self.directed:
            return np.bincount(self.src, minlength=self.n_nodes)
        return self._undirected_degree()

    def in_degree(self) -> np.ndarray:
        """Number of incoming (or incident, when undirected) edges."""
        if self.directed:
            return np.bincount(self.dst, minlength=self.n_nodes)
        return self._undirected_degree()

    def degree(self) -> np.ndarray:
        """Total number of incident edges per node."""
        if not self.directed:
            return self._undirected_degree()
        return self.out_degree() + self.in_degree()

    def _undirected_degree(self) -> np.ndarray:
        non_loop = self.src != self.dst
        counts = np.bincount(self.src[non_loop], minlength=self.n_nodes)
        counts += np.bincount(self.dst[non_loop], minlength=self.n_nodes)
        counts += np.bincount(self.src[~non_loop], minlength=self.n_nodes)
        return counts

    def node_totals(self) -> NodeTotals:
        """This table's :class:`NodeTotals`, each marginal computed once."""
        if self.directed:
            return NodeTotals(self.out_strength(), self.in_strength(),
                              self.out_degree(), self.in_degree(),
                              self.grand_total)
        strength = self._undirected_strength()
        degree = self._undirected_degree()
        return NodeTotals(strength, strength, degree, degree,
                          self.grand_total)

    def isolates(self) -> np.ndarray:
        """Indices of nodes with no incident edges."""
        return np.flatnonzero(self.degree() == 0)

    def non_isolated_count(self) -> int:
        """Number of nodes touched by at least one edge."""
        return self.n_nodes - len(self.isolates())

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def copy(self) -> "EdgeTable":
        """Return a deep copy of the table."""
        return EdgeTable(self.src.copy(), self.dst.copy(), self.weight.copy(),
                         n_nodes=self.n_nodes, directed=self.directed,
                         labels=self.labels, coalesce=False)

    def subset(self, mask: np.ndarray) -> "EdgeTable":
        """Return a table with only the rows selected by ``mask``.

        ``mask`` may be a boolean mask or an integer index array.
        """
        mask = np.asarray(mask)
        return EdgeTable(self.src[mask], self.dst[mask], self.weight[mask],
                         n_nodes=self.n_nodes, directed=self.directed,
                         labels=self.labels, coalesce=False)

    def with_weights(self, new_weights: Iterable[float]) -> "EdgeTable":
        """Return a table with the same edges but different weights."""
        new_weights = as_float_array(new_weights, "new_weights")
        require(len(new_weights) == self.m,
                "new_weights must have one entry per edge")
        return EdgeTable(self.src, self.dst, new_weights,
                         n_nodes=self.n_nodes, directed=self.directed,
                         labels=self.labels, coalesce=False)

    def without_self_loops(self) -> "EdgeTable":
        """Return a table with all ``(i, i)`` rows removed."""
        return self.subset(self.src != self.dst)

    def sorted_by_endpoints(self) -> "EdgeTable":
        """Return a table with rows sorted by ``(src, dst)``."""
        order = np.lexsort((self.dst, self.src))
        return self.subset(order)

    def top_k_by(self, values: np.ndarray, k: int) -> "EdgeTable":
        """Return the ``k`` best rows under ``(-value, -weight, row)``.

        Rows rank by larger ``values`` first, then by larger weight,
        then by smaller row index; ``values`` must be finite, and
        ``0.0`` ties ``-0.0`` (see :func:`top_k_rows`). The order is
        total, so edge-budget matched comparisons across backbone
        methods keep the same edges on every run. Kept rows stay in
        table order.

        Rows 0-2 tie on score below; weight drops row 0, then row
        index puts row 1 ahead of row 2. Row 3's large weight cannot
        lift its low score:

        >>> table = EdgeTable([0, 1, 2, 3], [1, 2, 3, 0],
        ...                   [1.0, 2.0, 2.0, 5.0])
        >>> scores = [0.9, 0.9, 0.9, 0.1]
        >>> table.top_k_by(scores, 2).src.tolist()
        [1, 2]
        >>> table.top_k_by(scores, 1).src.tolist()
        [1]
        """
        values = as_float_array(values, "values")
        require(len(values) == self.m, "values must have one entry per edge")
        k = int(k)
        require(0 <= k <= self.m, f"k={k} out of range [0, {self.m}]")
        return self.subset(top_k_rows(values, self.weight, k))

    def symmetrized(self, mode: str = "sum") -> "EdgeTable":
        """Collapse a directed table into an undirected one.

        ``mode`` selects how the two orientations combine: ``"sum"``,
        ``"max"``, ``"min"`` or ``"avg"``. Undirected tables are returned
        unchanged (a copy).
        """
        if not self.directed:
            return self.copy()
        lo = np.minimum(self.src, self.dst)
        hi = np.maximum(self.src, self.dst)
        if mode == "sum":
            return EdgeTable(lo, hi, self.weight, n_nodes=self.n_nodes,
                             directed=False, labels=self.labels)
        keys = lo.astype(np.int64) * self.n_nodes + hi
        order = np.argsort(keys, kind="stable")
        keys_sorted = keys[order]
        weights_sorted = self.weight[order]
        boundaries = np.flatnonzero(np.diff(keys_sorted)) + 1
        groups = np.split(weights_sorted, boundaries)
        unique_keys = keys_sorted[np.r_[0, boundaries]] if len(keys_sorted) \
            else keys_sorted
        reducers = {"max": np.max, "min": np.min, "avg": np.mean}
        require(mode in reducers, f"unknown symmetrization mode {mode!r}")
        reducer = reducers[mode]
        merged = np.array([reducer(group) for group in groups],
                          dtype=np.float64)
        return EdgeTable(unique_keys // self.n_nodes,
                         unique_keys % self.n_nodes, merged,
                         n_nodes=self.n_nodes, directed=False,
                         labels=self.labels, coalesce=False)

    def as_directed_doubled(self) -> "EdgeTable":
        """Expand an undirected table into both directed orientations.

        Self-loops appear once. Directed tables are returned unchanged
        (a copy). This is the representation on which the paper's
        marginals for undirected networks are defined.
        """
        if self.directed:
            return self.copy()
        non_loop = self.src != self.dst
        src = np.concatenate([self.src, self.dst[non_loop]])
        dst = np.concatenate([self.dst, self.src[non_loop]])
        weight = np.concatenate([self.weight, self.weight[non_loop]])
        return EdgeTable(src, dst, weight, n_nodes=self.n_nodes,
                         directed=True, labels=self.labels, coalesce=False)

    def union(self, other: "EdgeTable") -> "EdgeTable":
        """Merge two tables over the same node set, summing shared edges."""
        require(self.directed == other.directed,
                "cannot union directed with undirected tables")
        n_nodes = max(self.n_nodes, other.n_nodes)
        return EdgeTable(np.concatenate([self.src, other.src]),
                         np.concatenate([self.dst, other.dst]),
                         np.concatenate([self.weight, other.weight]),
                         n_nodes=n_nodes, directed=self.directed,
                         labels=self.labels if self.labels else other.labels)

    # ------------------------------------------------------------------
    # Lookups and exports
    # ------------------------------------------------------------------

    def edge_keys(self) -> np.ndarray:
        """Return a vector of scalar keys ``src * n_nodes + dst``."""
        return self.src.astype(np.int64) * self.n_nodes + self.dst

    def edge_key_set(self) -> frozenset:
        """Return the set of ``(src, dst)`` pairs (canonical if undirected)."""
        return frozenset(zip(self.src.tolist(), self.dst.tolist()))

    def weight_lookup(self) -> Dict[EdgeKey, float]:
        """Return a ``{(u, v): weight}`` dict (canonical if undirected)."""
        return {(int(u), int(v)): float(w)
                for u, v, w in zip(self.src, self.dst, self.weight)}

    def to_dense(self) -> np.ndarray:
        """Return the dense adjacency matrix (symmetric when undirected)."""
        matrix = np.zeros((self.n_nodes, self.n_nodes), dtype=np.float64)
        np.add.at(matrix, (self.src, self.dst), self.weight)
        if not self.directed:
            non_loop = self.src != self.dst
            np.add.at(matrix, (self.dst[non_loop], self.src[non_loop]),
                      self.weight[non_loop])
        return matrix

    def to_csr(self):
        """Return a ``scipy.sparse.csr_matrix`` adjacency."""
        from scipy import sparse

        doubled = self if self.directed else self.as_directed_doubled()
        return sparse.csr_matrix(
            (doubled.weight, (doubled.src, doubled.dst)),
            shape=(self.n_nodes, self.n_nodes))


def top_k_rows(values: np.ndarray, weight: np.ndarray,
               k: int) -> np.ndarray:
    """Ascending positions of the ``k`` best rows under
    ``(-value, -weight, row)``.

    The result equals
    ``np.sort(np.lexsort((np.arange(m), -weight, -values))[:k])``
    exactly: NaN ranks last (in either column) and ``0.0`` ties
    ``-0.0``. A ``k`` of ``m`` or more keeps every row. Instead of
    sorting all ``m`` rows, one ``np.partition`` finds the ``k``-th
    value; rows strictly better are kept, and only the rows tying
    that value are sorted by ``(-weight, row)`` to fill the places
    left.
    """
    m = len(values)
    if k >= m:
        return np.arange(m)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    negated = -values
    negated.partition(k - 1)
    bound = -negated[k - 1]
    del negated
    if np.isnan(bound):
        tie = np.isnan(values)
        keep = ~tie
    else:
        # Negation is exact, so these compare like the lexsort key.
        keep = values > bound
        tie = values == bound
    ties = np.flatnonzero(tie)
    places = k - int(np.count_nonzero(keep))
    if len(ties) > places:
        ties = ties[np.lexsort((ties, -weight[ties]))[:places]]
    keep[ties] = True
    return np.flatnonzero(keep)


def coalesce_edges(src: np.ndarray, dst: np.ndarray, weight: np.ndarray
                   ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonicalize edge arrays: sort by ``(src, dst)`` and merge
    duplicate rows by summing their weights.

    This is the single canonicalization pass shared by the
    constructor and :class:`repro.graph.ingest.EdgeTableBuilder`.
    Input that is already canonical (strictly increasing ``(src,
    dst)``, e.g. a table written by this library and read back) is
    detected with one O(m) scan and returned untouched. Otherwise
    scalar ``src * span + dst`` sort keys are used only when they
    provably fit in ``int64``, with a lexicographic sort fallback for
    tables with huge node indices — coalescing never overflows.

    Within a duplicate group, weights are summed in original row
    order (the sort is stable), so the result is bit-identical to a
    per-row accumulation.
    """
    if len(src) == 0:
        return src, dst, weight
    same_src = src[1:] == src[:-1]
    ascending = (src[1:] > src[:-1]) \
        | (same_src & (dst[1:] > dst[:-1]))
    if ascending.all():
        return src, dst, weight
    span = int(max(src.max(), dst.max())) + 1
    if span <= 3_037_000_499:  # span**2 fits in int64
        keys = src * span + dst
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        if len(unique_keys) == len(keys):
            order = np.argsort(keys, kind="stable")
            return src[order], dst[order], weight[order]
        summed = np.bincount(inverse, weights=weight,
                             minlength=len(unique_keys))
        return (unique_keys // span, unique_keys % span,
                summed.astype(np.float64))
    order = np.lexsort((dst, src))
    src = src[order]
    dst = dst[order]
    weight = weight[order]
    firsts = np.empty(len(src), dtype=bool)
    firsts[0] = True
    firsts[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    starts = np.flatnonzero(firsts)
    if len(starts) == len(src):
        return src, dst, weight
    group = np.cumsum(firsts) - 1
    summed = np.bincount(group, weights=weight, minlength=len(starts))
    return src[starts], dst[starts], summed.astype(np.float64)
