"""External-merge coalesce: sorted spill runs + k-way merge.

:func:`repro.graph.edge_table.coalesce_edges` sorts the whole table by
``(src, dst)`` and sums duplicate rows with ``np.bincount`` — a
sequential left-to-right accumulation in original row order within
each group. This module reproduces that bit for bit without ever
holding the table:

* :class:`RunWriter` buffers up to ``run_rows`` canonicalized rows,
  stable-lexsorts each buffer by ``(src, dst)`` and spills it as one
  sorted *run*. Runs are chronological: every row in run ``i``
  precedes every row in run ``i + 1`` in original order, and the
  stable sort keeps equal keys in original order inside a run — so
  concatenating equal-key rows run by run recovers the exact original
  order ``bincount`` summed in.
* :func:`merge_runs` k-way merges the runs with two devices that keep
  memory bounded by ``O(k · block)`` regardless of duplication:

  - **complete groups** below the *cutoff* — the smallest last-loaded
    key over runs with unread data; every key strictly below it can
    have no unread row anywhere, so those groups close in one
    vectorized ``np.add.at`` (sequential and unbuffered, exactly
    ``bincount``'s accumulation) over the run-ordered concatenation;
  - the **frontier key** equal to the cutoff is drained run by run in
    run order into a 1-element accumulator (``np.add.at`` against
    index 0 performs the same one-at-a-time adds), so a single key
    duplicated across millions of rows coalesces in O(block) memory
    with the accumulation order still exactly original row order.

The merged output is emitted in strictly increasing ``(src, dst)``
order — precisely the canonical order ``coalesce_edges`` produces.

One deliberate divergence, shared with the ``bincount`` path it
mirrors: a weight of ``-0.0`` on a row with no duplicate partner
survives ``coalesce_edges``'s no-duplicate shortcut untouched but
leaves summation as ``+0.0``. Negative zeros do not occur in
real weight data (weights are validated non-negative) and the
streaming path documents the ``+0.0`` behaviour.

:func:`pairwise_file_sum` replicates ``np.sum``'s pairwise reduction
over a column file so the streamed ``grand_total`` is bit-identical to
``float(weight.sum())`` on the in-memory array: numpy splits ``n`` at
``n//2`` rounded down to a multiple of 8 until segments fit its
128-element base case; summing each (contiguous) leaf slice with
``np.sum`` executes that same base case, and the partials fold up in
the same order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, List, Optional, Tuple

import numpy as np

Chunk = Tuple[np.ndarray, np.ndarray, np.ndarray]

#: numpy's pairwise-summation block size (``PW_BLOCKSIZE``).
_PAIRWISE_BLOCK = 128


# ----------------------------------------------------------------------
# Spilling sorted runs
# ----------------------------------------------------------------------

class RunWriter:
    """Accumulate canonical rows, spill ``run_rows``-sized sorted runs.

    Each run file is columnar — an ``int64`` row count followed by the
    contiguous ``src`` / ``dst`` / ``weight`` segments — so the merge
    readers can load any number of rows per call with three seeks,
    decoupling read granularity from spill granularity: fan-in times
    the merge block stays near one run however large the table is.
    """

    def __init__(self, directory: Path, run_rows: int):
        self.directory = Path(directory)
        self.run_rows = int(run_rows)
        self.paths: List[Path] = []
        self._srcs: List[np.ndarray] = []
        self._dsts: List[np.ndarray] = []
        self._weights: List[np.ndarray] = []
        self._buffered = 0

    def append(self, src: np.ndarray, dst: np.ndarray,
               weight: np.ndarray) -> None:
        if not len(src):
            return
        self._srcs.append(src)
        self._dsts.append(dst)
        self._weights.append(weight)
        self._buffered += len(src)
        while self._buffered >= self.run_rows:
            self._spill()

    def _take(self, chunks: List[np.ndarray], rows: int) -> np.ndarray:
        taken: List[np.ndarray] = []
        need = rows
        while need:
            head = chunks[0]
            if len(head) <= need:
                taken.append(head)
                chunks.pop(0)
                need -= len(head)
            else:
                taken.append(head[:need])
                chunks[0] = head[need:]
                need = 0
        return taken[0] if len(taken) == 1 else np.concatenate(taken)

    def _spill(self) -> None:
        rows = min(self.run_rows, self._buffered)
        src = self._take(self._srcs, rows)
        dst = self._take(self._dsts, rows)
        weight = self._take(self._weights, rows)
        self._buffered -= rows
        order = np.lexsort((dst, src))  # stable: ties keep file order
        src, dst, weight = src[order], dst[order], weight[order]
        path = self.directory / f"run-{len(self.paths):06d}.run"
        with open(path, "wb") as handle:
            np.asarray(rows, dtype=np.int64).tofile(handle)
            for array in (src, dst, weight):
                np.ascontiguousarray(array).tofile(handle)
        self.paths.append(path)

    def finish(self) -> List[Path]:
        while self._buffered:
            self._spill()
        return self.paths


class _RunReader:
    """Buffered reader over one sorted columnar run, loading
    ``block_rows`` rows at a time (three seeks into the column
    segments) and consuming rows from the front of the buffer."""

    def __init__(self, path: Path, block_rows: int):
        self.block_rows = max(int(block_rows), 1)
        self._handle = open(path, "rb")
        header = np.fromfile(self._handle, dtype=np.int64, count=1)
        self.rows = int(header[0]) if len(header) else 0
        self._loaded = 0
        self.src = np.empty(0, dtype=np.int64)
        self.dst = np.empty(0, dtype=np.int64)
        self.weight = np.empty(0, dtype=np.float64)
        self._start = 0
        self.eof = self.rows == 0
        if self.eof:
            self._handle.close()

    def __len__(self) -> int:
        return len(self.src) - self._start

    def close(self) -> None:
        """Release the run file (idempotent; EOF closes it too)."""
        if not self._handle.closed:
            self._handle.close()

    def _column(self, index: int, rows: int) -> np.ndarray:
        # Layout: int64 count, then src/dst/weight segments — all
        # 8-byte items, so offsets are uniform in elements.
        dtype = np.float64 if index == 2 else np.int64
        self._handle.seek(8 * (1 + index * self.rows + self._loaded))
        column = np.fromfile(self._handle, dtype=dtype, count=rows)
        if len(column) != rows:
            raise ValueError("truncated run file")
        return column

    def load_more(self) -> bool:
        """Append the next ``block_rows`` rows; ``False`` at EOF."""
        if self.eof:
            return False
        rows = min(self.block_rows, self.rows - self._loaded)
        if not rows:
            self.eof = True
            self._handle.close()
            return False
        src = self._column(0, rows)
        dst = self._column(1, rows)
        weight = self._column(2, rows)
        self._loaded += rows
        if self._start:
            keep = slice(self._start, None)
            self.src = self.src[keep]
            self.dst = self.dst[keep]
            self.weight = self.weight[keep]
            self._start = 0
        self.src = np.concatenate([self.src, src])
        self.dst = np.concatenate([self.dst, dst])
        self.weight = np.concatenate([self.weight, weight])
        return True

    def last_key(self) -> Tuple[int, int]:
        return int(self.src[-1]), int(self.dst[-1])

    def _cut_at(self, key: Tuple[int, int], side: str) -> int:
        """Buffer offset of the first row ``>`` (or ``>=``) ``key``."""
        s, d = key
        src = self.src[self._start:]
        lo = int(np.searchsorted(src, s, "left"))
        hi = int(np.searchsorted(src, s, "right"))
        dst = self.dst[self._start + lo:self._start + hi]
        return self._start + lo + int(np.searchsorted(dst, d, side))

    def take_below(self, key: Optional[Tuple[int, int]]) -> Chunk:
        """Consume and return every buffered row with key ``< key``
        (all buffered rows when ``key`` is ``None``)."""
        if key is None:
            stop = len(self.src)
        else:
            stop = self._cut_at(key, "left")
        chunk = (self.src[self._start:stop],
                 self.dst[self._start:stop],
                 self.weight[self._start:stop])
        self._start = stop
        return chunk

    def take_equal(self, key: Tuple[int, int]) -> np.ndarray:
        """Consume buffered rows with key ``== key``, return weights."""
        stop = self._cut_at(key, "right")
        start = self._cut_at(key, "left")
        weights = self.weight[start:stop]
        self._start = stop
        return weights


def merge_runs(paths: List[Path], block_rows: int,
               emit: Callable[[np.ndarray, np.ndarray, np.ndarray],
                              None]) -> None:
    """K-way merge sorted runs, coalescing duplicates bit-identically.

    ``emit`` receives canonical ``(src, dst, weight)`` chunks in
    strictly increasing key order with duplicate keys already summed.
    """
    readers = [_RunReader(path, block_rows) for path in paths]
    try:
        _merge_readers(readers, emit)
    finally:
        for reader in readers:
            reader.close()


def _merge_readers(readers: List["_RunReader"],
                   emit: Callable[[np.ndarray, np.ndarray, np.ndarray],
                                  None]) -> None:
    for reader in readers:
        reader.load_more()
    while True:
        partial = [r for r in readers if not r.eof]
        for reader in partial:
            if not len(reader):
                reader.load_more()
        alive = [r for r in readers if len(r)]
        if not alive:
            break
        partial = [r for r in readers if not r.eof and len(r)]
        cutoff = min((r.last_key() for r in partial), default=None)
        parts = [r.take_below(cutoff) for r in readers if len(r)]
        parts = [part for part in parts if len(part[0])]
        if parts:
            src = np.concatenate([part[0] for part in parts])
            dst = np.concatenate([part[1] for part in parts])
            weight = np.concatenate([part[2] for part in parts])
            order = np.lexsort((dst, src))  # stable; run order = file order
            src, dst, weight = src[order], dst[order], weight[order]
            firsts = np.empty(len(src), dtype=bool)
            firsts[0] = True
            firsts[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
            group = np.cumsum(firsts) - 1
            summed = np.zeros(int(group[-1]) + 1, dtype=np.float64)
            # np.add.at is unbuffered: element-by-element adds in row
            # order — the exact accumulation np.bincount performs.
            np.add.at(summed, group, weight)
            emit(src[firsts], dst[firsts], summed)
        if cutoff is None:
            break
        # Drain the frontier key run by run (run order == original
        # order for equal keys), extending each run's buffer until its
        # head moves past the key — O(block) memory however many rows
        # share the key.
        accumulator = np.zeros(1, dtype=np.float64)
        zero = np.zeros(0, dtype=np.int64)
        saw_frontier = False
        for reader in readers:
            while True:
                weights = reader.take_equal(cutoff)
                if len(weights):
                    saw_frontier = True
                    if len(zero) < len(weights):
                        zero = np.zeros(len(weights), dtype=np.int64)
                    np.add.at(accumulator, zero[:len(weights)], weights)
                if len(reader) or not reader.load_more():
                    break
        if saw_frontier:
            emit(np.array([cutoff[0]], dtype=np.int64),
                 np.array([cutoff[1]], dtype=np.int64),
                 accumulator.copy())


# ----------------------------------------------------------------------
# Pairwise summation over a column file
# ----------------------------------------------------------------------

class _ColumnWindow:
    """Serve contiguous float64 slices of a raw column file through a
    sliding window (leaves are visited in increasing offset order)."""

    def __init__(self, path: Path, count: int, window_rows: int):
        self.path = Path(path)
        self.count = int(count)
        self.window_rows = max(int(window_rows), _PAIRWISE_BLOCK)
        self._start = 0
        self._buffer = np.empty(0, dtype=np.float64)

    def read(self, offset: int, n: int) -> np.ndarray:
        end = self._start + len(self._buffer)
        if not (self._start <= offset and offset + n <= end):
            rows = max(self.window_rows, n)
            with open(self.path, "rb") as handle:
                handle.seek(offset * 8)
                raw = handle.read(min(rows, self.count - offset) * 8)
            self._buffer = np.frombuffer(raw, dtype=np.float64)
            self._start = offset
        lo = offset - self._start
        return self._buffer[lo:lo + n]


def pairwise_file_sum(path: Path, count: int,
                      window_rows: int = 1 << 20) -> float:
    """``float(np.sum(column))`` over a raw float64 file, bit-exact.

    Mirrors numpy's pairwise reduction: split ``n`` at ``n // 2``
    rounded down to a multiple of 8, recurse, add the halves; leaf
    segments (≤ 128 elements) are summed by ``np.sum`` itself, which
    runs the identical base case on the identical contiguous values.
    """
    if count == 0:
        return 0.0
    window = _ColumnWindow(path, count, window_rows)

    def recurse(offset: int, n: int) -> float:
        if n <= _PAIRWISE_BLOCK:
            return float(np.sum(window.read(offset, n)))
        half = n // 2
        half -= half % 8
        return recurse(offset, half) + recurse(offset + half, n - half)

    return recurse(0, count)
