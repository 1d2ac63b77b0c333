"""Pass 1 of the out-of-core pipeline: canonicalize without RAM.

:func:`open_stream` turns an edge file (``.csv`` / ``.csv.gz`` /
``.npz``, any size) into a :class:`CanonicalStream`: the canonical
coalesced table spilled to disk column by column, plus every O(nodes)
aggregate scoring needs (strengths, degrees, grand total, touched-node
count) and the table's content fingerprint — **bit-identical** to what
``read_edges(...)`` followed by ``EdgeTable`` canonicalization and
:func:`~repro.pipeline.fingerprint.fingerprint_table` produce, while
peak memory stays O(nodes + block) however many rows the file has.

Stages (all bounded by ``block_rows`` / ``run_rows``):

1. **parse** — CSV blocks stream through
   :func:`~repro.graph.ingest.stream_csv_chunks` into a
   :class:`~repro.stream.blocks.ChunkSpool` (the integer-vs-label
   decision needs EOF, exactly like ``EdgeTableBuilder``); ``.npz``
   columns stream straight out of the archive.
2. **spill** — chunks are validated (``EdgeTable.from_arrays``
   messages), undirected endpoints canonicalized to ``(lo, hi)``, and
   appended to sorted spill runs (:class:`~repro.stream.merge.
   RunWriter`).
3. **merge** — the k-way external merge coalesces duplicates in exact
   ``coalesce_edges`` order and emits canonical chunks into flat
   column files while node aggregates accumulate in ``np.bincount``
   order.
4. **fingerprint** — one sequential pass over the canonical columns
   feeds :func:`~repro.pipeline.fingerprint.fingerprint_columns`, the
   digest :func:`fingerprint_table` computes, so streamed and
   in-memory plans share one warm score cache.

Pass 2 (:mod:`repro.stream.score`) re-reads the canonical columns in
blocks via :meth:`CanonicalStream.iter_scoring_blocks`.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import weakref
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

import numpy as np

from ..graph.edge_table import NodeTotals, TableSummary
from ..graph.ingest import detect_format, stream_csv_chunks
from ..obs.trace import span
from ..pipeline.fingerprint import fingerprint_columns
from ..util.validation import require
from .blocks import ChunkSpool, NpzColumns
from .merge import RunWriter, merge_runs, pairwise_file_sum

#: ``streaming="auto"`` compiles to the streaming path at and above
#: this source size (override: ``REPRO_STREAM_THRESHOLD_BYTES``).
DEFAULT_AUTO_THRESHOLD_BYTES = 256 << 20

#: Rows per block in pass-2 scoring and the merge readers
#: (override: ``REPRO_STREAM_BLOCK_ROWS``).
DEFAULT_BLOCK_ROWS = 1 << 18

#: Rows per sorted spill run (the in-memory sort granularity;
#: override: ``REPRO_STREAM_RUN_ROWS``).
DEFAULT_RUN_ROWS = 1 << 20


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value > 0 else default


def auto_streams(path) -> bool:
    """The ``"auto"`` streaming rule: whether the file at ``path`` is
    known to hold at least ``REPRO_STREAM_THRESHOLD_BYTES`` bytes
    (default :data:`DEFAULT_AUTO_THRESHOLD_BYTES`). Plans and
    ``repro convert`` both decide by it."""
    try:
        size = os.stat(path).st_size
    except (OSError, ValueError):
        return False
    return size >= _env_int("REPRO_STREAM_THRESHOLD_BYTES",
                            DEFAULT_AUTO_THRESHOLD_BYTES)


def default_block_rows() -> int:
    return _env_int("REPRO_STREAM_BLOCK_ROWS", DEFAULT_BLOCK_ROWS)


def default_run_rows() -> int:
    return _env_int("REPRO_STREAM_RUN_ROWS", DEFAULT_RUN_ROWS)


class CanonicalStream:
    """The canonical table of one source, spilled to disk.

    Produced by :func:`open_stream`; owns a temporary directory with
    the canonical ``src``/``dst``/``weight`` column files (raw int64 /
    int64 / float64) and exposes ``totals``, the
    :class:`~repro.graph.edge_table.NodeTotals` of the *loop-free*
    scoring table, plus the full-table summary. Temporary files are
    removed when the object is garbage-collected or :meth:`close` is
    called.
    """

    def __init__(self, workdir: Path, directed: bool, n_nodes: int,
                 labels: Optional[Tuple[str, ...]], m: int,
                 nonloop_m: int, table_fp: str, totals: NodeTotals,
                 non_isolated: int, block_rows: int):
        self.workdir = Path(workdir)
        self.directed = bool(directed)
        self.n_nodes = int(n_nodes)
        self.labels = labels
        self.m = int(m)
        self.nonloop_m = int(nonloop_m)
        self.table_fp = table_fp
        self.totals = totals
        self.block_rows = int(block_rows)
        self.summary = TableSummary(n_nodes, m, nonloop_m, directed,
                                    labels, non_isolated)
        self._finalizer = weakref.finalize(
            self, shutil.rmtree, str(self.workdir), True)

    def close(self) -> None:
        self._finalizer()

    def iter_scoring_blocks(self) -> Iterator[
            Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Yield loop-free ``(src, dst, weight)`` blocks in row order.

        Concatenated, the blocks are the in-memory scoring table
        (``prepare_table``'s ``without_self_loops()`` output) row for
        row.
        """
        paths = [self.workdir / name
                 for name in ("src.bin", "dst.bin", "weight.bin")]
        with open(paths[0], "rb") as fs, open(paths[1], "rb") as fd, \
                open(paths[2], "rb") as fw:
            done = 0
            while done < self.m:
                rows = min(self.block_rows, self.m - done)
                src = np.fromfile(fs, dtype=np.int64, count=rows)
                dst = np.fromfile(fd, dtype=np.int64, count=rows)
                weight = np.fromfile(fw, dtype=np.float64, count=rows)
                non_loop = src != dst
                kept = int(np.count_nonzero(non_loop))
                if kept == rows:
                    yield src, dst, weight
                elif kept:
                    yield src[non_loop], dst[non_loop], weight[non_loop]
                done += rows

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return (f"CanonicalStream({kind}, n_nodes={self.n_nodes}, "
                f"m={self.m}, fp={self.table_fp[:12]})")


# ----------------------------------------------------------------------
# Building the stream
# ----------------------------------------------------------------------

def open_stream(path, directed: bool = True, delimiter: str = ",",
                format: Optional[str] = None,
                block_rows: Optional[int] = None,
                run_rows: Optional[int] = None) -> CanonicalStream:
    """Run pass 1 over ``path`` and return its :class:`CanonicalStream`.

    Arguments mirror :func:`repro.graph.ingest.read_edges`: ``.npz``
    input is self-describing (``directed``/``delimiter`` are ignored),
    CSV input honours both.
    """
    path = Path(path)
    fmt = format or detect_format(path)
    block_rows = int(block_rows or default_block_rows())
    run_rows = max(int(run_rows or default_run_rows()), 1)
    workdir = Path(tempfile.mkdtemp(prefix="repro-stream-"))
    try:
        with span("stream.pass1", path=str(path), format=fmt):
            if fmt == "npz":
                return _build_from_npz(path, workdir, block_rows,
                                       run_rows)
            if fmt != "csv":
                raise ValueError(f"unknown edge-table format {fmt!r} "
                                 "(expected 'csv' or 'npz')")
            return _build_from_csv(path, directed, delimiter, workdir,
                                   block_rows, run_rows)
    except BaseException:
        shutil.rmtree(workdir, ignore_errors=True)
        raise


class _Interner:
    """Incremental first-seen label interning, chunk by chunk.

    Processing chunks in file order and, within each chunk, new tokens
    in interleaved ``src[0], dst[0], src[1], ...`` first-occurrence
    order assigns exactly the ids (and label order) of
    :func:`repro.graph.ingest._intern_first_seen` over the whole file.
    """

    def __init__(self):
        self._ids = {}
        self.labels: List[str] = []

    def intern(self, src: np.ndarray, dst: np.ndarray
               ) -> Tuple[np.ndarray, np.ndarray]:
        if src.dtype.kind != "U":
            src = src.astype(np.str_)
        if dst.dtype.kind != "U":
            dst = dst.astype(np.str_)
        joint = np.empty(2 * len(src),
                         dtype=np.promote_types(src.dtype, dst.dtype))
        joint[0::2] = src
        joint[1::2] = dst
        uniq, first, inverse = np.unique(joint, return_index=True,
                                         return_inverse=True)
        order = np.argsort(first, kind="stable")
        tokens = uniq.tolist()
        ids = np.empty(len(uniq), dtype=np.int64)
        known = self._ids
        for position in order.tolist():
            token = tokens[position]
            found = known.get(token)
            if found is None:
                found = len(known)
                known[token] = found
                self.labels.append(token)
            ids[position] = found
        joint_ids = ids[inverse]
        return joint_ids[0::2], joint_ids[1::2]


def _validated(chunks, directed: bool):
    """Apply ``EdgeTable.from_arrays`` validation chunk by chunk and
    canonicalize undirected endpoints; yields clean chunks and finally
    returns ``observed`` (largest index + 1)."""
    observed = 0
    for src, dst, weight in chunks:
        if src.size and src.min() < 0:
            raise ValueError("src must contain non-negative indices")
        if dst.size and dst.min() < 0:
            raise ValueError("dst must contain non-negative indices")
        if weight.size and not np.all(np.isfinite(weight)):
            raise ValueError("weight contains non-finite values")
        if weight.size and weight.min() < 0:
            raise ValueError("edge weights must be non-negative")
        if src.size:
            top = int(max(src.max(), dst.max())) + 1
            observed = max(observed, top)
        if not directed and len(src):
            lo = np.minimum(src, dst)
            hi = np.maximum(src, dst)
            src, dst = lo, hi
        yield src, dst, weight, observed


def _build_from_csv(path: Path, directed: bool, delimiter: str,
                    workdir: Path, block_rows: int,
                    run_rows: int) -> CanonicalStream:
    spool = ChunkSpool(workdir / "parsed.chunks")
    try:
        stream_csv_chunks(path, spool, delimiter=delimiter,
                          block_bytes=_csv_block_bytes(block_rows))
    finally:
        spool.close()
    int_mode = not spool.any_tokens or spool.tokens_integer
    interner = None if int_mode else _Interner()

    def chunks():
        for src, dst, weight in spool.replay():
            if int_mode:
                if src.dtype.kind == "U":
                    src = src.astype(np.int64)
                    dst = dst.astype(np.int64)
                yield src, dst, weight
            else:
                src_idx, dst_idx = interner.intern(src, dst)
                yield src_idx, dst_idx, weight

    writer = RunWriter(workdir, run_rows)
    observed = 0
    for src, dst, weight, observed in _validated(chunks(), directed):
        writer.append(src, dst, weight)
    spool.unlink()
    if interner is not None:
        labels = tuple(interner.labels)
        n_nodes = len(labels)
    else:
        labels = None
        n_nodes = observed
    return _merge_and_finish(workdir, writer, directed, n_nodes,
                             labels, block_rows)


def _build_from_npz(path: Path, workdir: Path, block_rows: int,
                    run_rows: int) -> CanonicalStream:
    columns = NpzColumns(path)
    try:
        directed = columns.directed
        writer = RunWriter(workdir, run_rows)
        observed = 0
        for src, dst, weight, observed in _validated(
                columns.iter_rows(block_rows), directed):
            writer.append(src, dst, weight)
    finally:
        columns.close()
    n_nodes = columns.n_nodes
    require(n_nodes >= observed,
            f"n_nodes={n_nodes} is smaller than the largest index "
            f"{observed - 1}")
    labels = columns.labels
    if labels is not None:
        require(len(labels) == n_nodes,
                f"labels has length {len(labels)}, expected {n_nodes}")
    return _merge_and_finish(workdir, writer, directed, n_nodes,
                             labels, block_rows)


def _csv_block_bytes(block_rows: int) -> int:
    # ~16 text bytes per row is typical; clamp to sane block sizes.
    return min(max(block_rows * 16, 1 << 16), 64 << 20)


class _CanonicalWriter:
    """Spill canonical chunks to column files, accumulating aggregates
    in exactly ``np.bincount``'s sequential order."""

    def __init__(self, workdir: Path, n_nodes: int):
        self.workdir = Path(workdir)
        self._handles = [open(self.workdir / name, "wb") for name in
                         ("src.bin", "dst.bin", "weight.bin",
                          "wnl.bin")]
        self.m = 0
        self.nonloop_m = 0
        self.out_w = np.zeros(n_nodes, dtype=np.float64)
        self.in_w = np.zeros(n_nodes, dtype=np.float64)
        self.out_d = np.zeros(n_nodes, dtype=np.int64)
        self.in_d = np.zeros(n_nodes, dtype=np.int64)
        self.touched = np.zeros(n_nodes, dtype=bool)

    def emit(self, src: np.ndarray, dst: np.ndarray,
             weight: np.ndarray) -> None:
        src.tofile(self._handles[0])
        dst.tofile(self._handles[1])
        weight.tofile(self._handles[2])
        self.touched[src] = True
        self.touched[dst] = True
        non_loop = src != dst
        s = src[non_loop]
        d = dst[non_loop]
        w = weight[non_loop]
        np.ascontiguousarray(w).tofile(self._handles[3])
        np.add.at(self.out_w, s, w)
        np.add.at(self.in_w, d, w)
        np.add.at(self.out_d, s, 1)
        np.add.at(self.in_d, d, 1)
        self.m += len(src)
        self.nonloop_m += len(s)

    def close(self) -> None:
        for handle in self._handles:
            if not handle.closed:
                handle.close()


def _merge_and_finish(workdir: Path, writer: RunWriter, directed: bool,
                      n_nodes: int, labels, block_rows: int
                      ) -> CanonicalStream:
    run_paths = writer.finish()
    canonical = _CanonicalWriter(workdir, n_nodes)
    # Keep total merge-reader memory near one run regardless of fan-in.
    merge_block = max(2048, min(block_rows,
                                writer.run_rows // max(len(run_paths),
                                                       1)))
    with span("stream.merge", runs=len(run_paths)):
        merge_runs(run_paths, merge_block, canonical.emit)
    canonical.close()
    for run_path in run_paths:
        run_path.unlink(missing_ok=True)

    total = pairwise_file_sum(workdir / "wnl.bin", canonical.nonloop_m)
    if directed:
        totals = NodeTotals(canonical.out_w, canonical.in_w,
                            canonical.out_d, canonical.in_d, total)
    else:
        # EdgeTable.node_totals on the loop-free table, combined in
        # exactly its order: strength is out + in + (empty) loop part,
        # and N.. is 2 * (total - loop total) + loop total.
        strength = ((canonical.out_w + canonical.in_w)
                    + np.zeros(n_nodes, dtype=np.float64))
        degree = canonical.out_d + canonical.in_d
        totals = NodeTotals(strength, strength, degree, degree,
                            2.0 * (total - 0.0) + 0.0)

    table_fp = fingerprint_columns(directed, n_nodes, labels,
                                   _column_pieces(workdir))
    return CanonicalStream(
        workdir, directed, n_nodes, labels, canonical.m,
        canonical.nonloop_m, table_fp, totals,
        int(np.count_nonzero(canonical.touched)), block_rows)


def _column_pieces(workdir: Path) -> Iterator[bytes]:
    """The canonical column files in bounded pieces (``tofile`` writes
    exactly ``tobytes``, so they hash like the in-memory columns)."""
    for name in ("src.bin", "dst.bin", "weight.bin"):
        with open(workdir / name, "rb") as handle:
            yield from iter(lambda: handle.read(4 << 20), b"")
