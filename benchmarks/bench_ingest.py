"""Tier-2 perf smoke: chunked ingestion at raw-dump scale.

Builds a ~1M-row raw traffic dump — integer endpoints, integer
``N_ij`` counts, canonically sorted, exactly the shape of the large
edge dumps the paper's Section V-G scalability claim is about — and
asserts the ingestion contract:

* the chunked, vectorized reader loads it at least **10x** faster
  than the historical row-loop reader (kept verbatim as
  :func:`repro.graph.ingest.read_edge_csv_rows`), producing a
  bit-identical ``EdgeTable``;
* the binary ``.npz`` format loads at least **5x** faster than *any*
  CSV path (in practice it skips parsing entirely), again
  bit-identically;
* the decimal-weight fast path (the exact Eisel–Lemire kernel over
  SWAR digit lanes, with numpy's C float parser only for the rows it
  flags) still clears the legacy reader by a wide margin.
"""

import numpy as np

from conftest import emit

from repro.graph.ingest import (read_edge_csv_rows, read_edges,
                                write_edges)
from repro.util.tables import format_table
from repro.util.timing import time_call

#: Required speedups on the ~1M-row dump.
MIN_CHUNKED_SPEEDUP = 10.0
MIN_NPZ_SPEEDUP = 5.0

N_ROWS = 1_000_000
N_NODES = 50_000


def _write_dump(path, decimal_weights=False, seed=0):
    """A canonical raw dump: sorted unique int pairs, count weights."""
    rng = np.random.default_rng(seed)
    keys = rng.choice(N_NODES * N_NODES, size=N_ROWS, replace=False)
    keys.sort()
    src = keys // N_NODES
    dst = keys % N_NODES
    if decimal_weights:
        weight = (rng.random(N_ROWS) * 100).tolist()
        rows = (f"{u},{v},{w!r}" for u, v, w in
                zip(src.tolist(), dst.tolist(), weight))
    else:
        weight = rng.integers(1, 1_000, N_ROWS).tolist()
        rows = (f"{u},{v},{w}" for u, v, w in
                zip(src.tolist(), dst.tolist(), weight))
    with open(path, "w") as handle:
        handle.write("src,dst,weight\n")
        handle.write("\n".join(rows))
        handle.write("\n")


def _best_of(times, fn, *args):
    seconds = []
    result = None
    for _ in range(times):
        elapsed, result = time_call(fn, *args)
        seconds.append(elapsed)
    return min(seconds), result


def test_chunked_reader_and_npz_speedups(benchmark, tmp_path):
    csv_path = tmp_path / "dump.csv"
    _write_dump(csv_path)

    def run():
        legacy_s, legacy = _best_of(2, read_edge_csv_rows, csv_path)
        chunked_s, chunked = _best_of(3, read_edges, csv_path)
        npz_path = tmp_path / "dump.npz"
        write_edges(chunked, npz_path)
        npz_s, from_npz = _best_of(3, read_edges, npz_path)
        return legacy_s, chunked_s, npz_s, legacy, chunked, from_npz

    legacy_s, chunked_s, npz_s, legacy, chunked, from_npz = \
        benchmark.pedantic(run, rounds=1, iterations=1)

    rows = [
        ("legacy row loop", f"{legacy_s:.3f}", "1.0x"),
        ("chunked reader", f"{chunked_s:.3f}",
         f"{legacy_s / chunked_s:.1f}x"),
        ("npz load", f"{npz_s:.3f}", f"{legacy_s / npz_s:.1f}x"),
    ]
    emit(format_table(
        ["path", "seconds", "vs legacy"], rows,
        title=f"Ingest: {N_ROWS:,}-row count dump "
              f"({N_NODES:,} nodes)"))

    # Bit identity before speed: all three paths agree exactly.
    for other in (chunked, from_npz):
        assert np.array_equal(legacy.src, other.src)
        assert np.array_equal(legacy.dst, other.dst)
        assert np.array_equal(legacy.weight, other.weight)
        assert legacy.n_nodes == other.n_nodes

    chunked_speedup = legacy_s / chunked_s
    assert chunked_speedup >= MIN_CHUNKED_SPEEDUP, (
        f"chunked reader only {chunked_speedup:.1f}x over the legacy "
        f"row loop (need >= {MIN_CHUNKED_SPEEDUP}x)")
    npz_speedup = min(legacy_s, chunked_s) / npz_s
    assert npz_speedup >= MIN_NPZ_SPEEDUP, (
        f"npz load only {npz_speedup:.1f}x over the fastest CSV path "
        f"(need >= {MIN_NPZ_SPEEDUP}x)")


def test_decimal_weight_fast_path(benchmark, tmp_path):
    csv_path = tmp_path / "decimal.csv"
    _write_dump(csv_path, decimal_weights=True)

    def run():
        legacy_s, legacy = time_call(read_edge_csv_rows, csv_path)
        chunked_s, chunked = _best_of(2, read_edges, csv_path)
        return legacy_s, chunked_s, legacy, chunked

    legacy_s, chunked_s, legacy, chunked = benchmark.pedantic(
        run, rounds=1, iterations=1)
    emit(format_table(
        ["path", "seconds", "speedup"],
        [("legacy row loop", f"{legacy_s:.3f}", "1.0x"),
         ("chunked reader", f"{chunked_s:.3f}",
          f"{legacy_s / chunked_s:.1f}x")],
        title="Ingest: decimal-weight dump"))
    assert np.array_equal(legacy.weight, chunked.weight)
    assert legacy == chunked
    # Decimal weights take the exact decimal kernel (up to four digit
    # lanes and a 128-bit product per row) instead of one integer
    # lane; it must still beat the row loop comfortably.
    assert legacy_s / chunked_s >= 2.0
