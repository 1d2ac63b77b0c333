"""Tests for the chunked, vectorized ingestion layer.

Covers the three format round-trips (property-based, bit-identity),
parity of the tiered chunked CSV reader against the historical
row-loop reference, the exact decimal-weight kernel against
``float()``, :class:`EdgeTableBuilder` semantics, the diagnostic
file/line errors, and the streaming file fingerprints with their store
bindings.
"""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import ingest
from repro.graph.edge_table import EdgeTable, coalesce_edges
from repro.graph.ingest import (EdgeTableBuilder, _byte_lanes,
                                _parse_decimal_runs, detect_format,
                                read_edge_csv_rows, read_edge_npz,
                                read_edges, write_edge_npz, write_edges)
from repro.pipeline import (ScoreStore, fingerprint_file,
                            fingerprint_source_request,
                            fingerprint_table)


def assert_tables_identical(a: EdgeTable, b: EdgeTable) -> None:
    """Bit-level equality: arrays, node count, directedness, labels."""
    assert a.n_nodes == b.n_nodes
    assert a.directed == b.directed
    assert a.labels == b.labels
    assert np.array_equal(a.src, b.src)
    assert np.array_equal(a.dst, b.dst)
    assert a.weight.tolist() == b.weight.tolist()


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------

# Weights cover exact decimals, awkward shortest-repr cases, and the
# subnormal/huge magnitudes that stress text round-tripping.
weights_strategy = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e300, allow_nan=False,
                  allow_infinity=False),
        st.integers(0, 10**9).map(float),
        st.sampled_from([0.0, 1 / 3, 0.1, 1e-300, 5e-324, 1e16])),
    min_size=0, max_size=40)

label_alphabet = st.sampled_from(list("abcxyz_ABéα"))
label_strategy = st.text(alphabet=label_alphabet, min_size=1,
                         max_size=6)


@st.composite
def tables(draw, labeled=None, huge=False):
    weights = np.asarray(draw(weights_strategy), dtype=np.float64)
    m = len(weights)
    directed = draw(st.booleans())
    if labeled is None:
        labeled = draw(st.booleans())
    if labeled:
        labels = draw(st.lists(label_strategy, min_size=1, max_size=12,
                               unique=True))
        n = len(labels)
    else:
        labels = None
        n = draw(st.integers(1, 2**60 if huge else 50))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    table = EdgeTable(src, dst, weights, n_nodes=n, directed=directed,
                      labels=labels)
    if labels is None:
        # CSV cannot carry a node count beyond the largest index, so
        # round-trip properties compare against the re-tightened table.
        observed = int(max(table.src.max(), table.dst.max())) + 1 \
            if table.m else 0
        table = EdgeTable(table.src, table.dst, table.weight,
                          n_nodes=observed, directed=directed,
                          coalesce=False)
    return table


# ----------------------------------------------------------------------
# Property-based round trips
# ----------------------------------------------------------------------

class TestRoundTripProperties:
    @settings(max_examples=60, deadline=None)
    @given(table=tables())
    def test_csv_round_trip_bit_identity(self, table, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "edges.csv"
        write_edges(table, path)
        again = read_edges(path, directed=table.directed,
                           labels=table.labels)
        assert_tables_identical(table, again)

    @settings(max_examples=25, deadline=None)
    @given(table=tables())
    def test_csv_gz_round_trip_bit_identity(self, table,
                                            tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "edges.csv.gz"
        write_edges(table, path)
        with open(path, "rb") as handle:
            assert handle.read(2) == b"\x1f\x8b"  # actually gzipped
        again = read_edges(path, directed=table.directed,
                           labels=table.labels)
        assert_tables_identical(table, again)

    @settings(max_examples=60, deadline=None)
    @given(table=tables())
    def test_npz_round_trip_bit_identity(self, table, tmp_path_factory):
        path = tmp_path_factory.mktemp("rt") / "edges.npz"
        write_edges(table, path)
        assert_tables_identical(table, read_edges(path))

    @settings(max_examples=25, deadline=None)
    @given(table=tables(labeled=False, huge=True))
    def test_huge_index_round_trips(self, table, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rt")
        write_edges(table, tmp / "edges.csv")
        assert_tables_identical(
            table, read_edges(tmp / "edges.csv",
                              directed=table.directed))
        write_edges(table, tmp / "edges.npz")
        assert_tables_identical(table, read_edges(tmp / "edges.npz"))

    @settings(max_examples=25, deadline=None)
    @given(table=tables(labeled=True))
    def test_inferred_labels_csv_round_trip(self, table,
                                            tmp_path_factory):
        """Reading back without a vocabulary recovers the same graph
        (labels in first-seen order)."""
        path = tmp_path_factory.mktemp("rt") / "edges.csv"
        write_edges(table, path)
        again = read_edges(path, directed=table.directed)

        def pairs(t):
            # Undirected canonical orientation follows index order,
            # which re-interning may flip; compare unordered pairs.
            if t.directed:
                return {(t.label_of(u), t.label_of(v)): w
                        for u, v, w in t.iter_edges()}
            return {frozenset((t.label_of(u), t.label_of(v))): w
                    for u, v, w in t.iter_edges()}

        assert pairs(again) == pairs(table)


class TestRoundTripEdgeCases:
    def test_empty_table_all_formats(self, tmp_path):
        table = EdgeTable((), (), (), n_nodes=0)
        for name in ("e.csv", "e.csv.gz", "e.npz"):
            path = tmp_path / name
            write_edges(table, path)
            again = read_edges(path)
            assert again.m == 0 and again.n_nodes == 0

    def test_duplicate_rows_coalesce_once(self, tmp_path):
        # Raw dumps may repeat (src, dst) rows; both the table
        # constructor and the reader must merge them identically.
        path = tmp_path / "dups.csv"
        path.write_text("src,dst,weight\n3,1,2.0\n3,1,3.0\n0,2,1.0\n")
        table = read_edges(path)
        assert table.m == 2
        assert table.weight_lookup()[(3, 1)] == 5.0

    def test_npz_keeps_isolated_nodes_and_label_order(self, tmp_path):
        table = EdgeTable([2], [1], [4.0], n_nodes=5,
                          labels=["a", "b", "c", "d", "iso"])
        path = tmp_path / "iso.npz"
        write_edge_npz(table, path)
        again = read_edge_npz(path)
        assert again.n_nodes == 5
        assert again.labels == ("a", "b", "c", "d", "iso")

    def test_npz_rejects_foreign_archives(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, stuff=np.arange(3))
        with pytest.raises(ValueError, match="missing"):
            read_edge_npz(path)

    def test_npz_rejects_non_archives(self, tmp_path):
        path = tmp_path / "not.npz"
        path.write_bytes(b"definitely not a zip")
        with pytest.raises(ValueError):
            read_edge_npz(path)

    def test_detect_format(self):
        assert detect_format("a/b/edges.npz") == "npz"
        assert detect_format("edges.NPZ") == "npz"
        assert detect_format("edges.csv") == "csv"
        assert detect_format("edges.csv.gz") == "csv"
        assert detect_format("edges.dat") == "csv"

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown edge-table"):
            read_edges(tmp_path / "x.csv", format="parquet")
        with pytest.raises(ValueError, match="unknown edge-table"):
            write_edges(EdgeTable((), (), ()), tmp_path / "x.csv",
                        format="parquet")

    def test_quoted_labels_round_trip(self, tmp_path):
        table = EdgeTable([0, 1], [1, 2], [1.0, 2.0],
                          labels=['with,comma', 'with "quote"', "c"])
        path = tmp_path / "quoted.csv"
        write_edges(table, path)
        again = read_edges(path, labels=table.labels)
        assert_tables_identical(table, again)


# ----------------------------------------------------------------------
# Parity with the historical row-loop reader
# ----------------------------------------------------------------------

class TestLegacyParity:
    CASES = {
        "ints": "src,dst,weight\n0,1,1.5\n2,3,2.5\n1,0,0.25\n",
        "int_weights": "src,dst,weight\n5,1,37\n2,3,1\n2,3,4\n",
        "labels": "src,dst,weight\nb,a,1.0\na,c,2.0\nb,c,0.5\n",
        "mixed": "src,dst,weight\n1,2,1.0\n1,x,2.0\n",
        "exotic_weights":
            "src,dst,weight\n0,1,1e-3\n1,2, 2.5\n2,3,007\n3,4,1e+16\n",
        "blank_lines": "src,dst,weight\n\n0,1,1.0\n\n\n2,3,2.0\n",
        "four_fields": "src,dst,weight,x\n0,1,1.0,j\n1,2,2.0,j\n",
        "header_only": "src,dst,weight\n",
        "empty": "",
        "no_trailing_newline": "src,dst,weight\n0,1,1.5\n2,3,2.5",
        "crlf": "src,dst,weight\r\n0,1,1.5\r\n2,3,2.5\r\n",
        "quoted": 'src,dst,weight\n"a,x",b,1.0\nb,"c ""q""",2.0\n',
        "space_labels": "src,dst,weight\n a,b ,1.0\nb,c,2.0\n",
        "plus_and_zero_padded": "src,dst,weight\n+1,2,1.0\n007,3,2.0\n",
        "float_endpoint": "src,dst,weight\n1.0,2,1.0\n3,4,2.0\n",
        "huge_int": "src,dst,weight\n1152921504606846976,3,1.0\n"
                    "0,1,2.0\n",
        "nine_digit": "src,dst,weight\n123456789,987654321,"
                      "123456789012\n1,2,3\n",
        "exponents": "src,dst,weight\n0,1,1.5E+3\n1,2,2e-7\n"
                     "2,3,3.25e0\n",
        "negative_zero": "src,dst,weight\n0,1,-0.0\n1,2,2.5\n",
        "leading_zero_decimals":
            "src,dst,weight\n0,1,0.000123456789012345678\n1,2,0.5\n",
        # One 25-digit mantissa among kernel-parsed rows: its fallback
        # value must land in its own slot.
        "mixed_fallback": "src,dst,weight\n0,1,1.25\n1,2,0.75\n"
                          "2,3,1.234567890123456789012345\n3,4,2.5\n"
                          "4,5,0.125\n",
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("directed", [True, False])
    def test_bit_identical_tables(self, name, directed, tmp_path):
        path = tmp_path / f"{name}.csv"
        path.write_text(self.CASES[name], newline="")
        assert_tables_identical(
            read_edge_csv_rows(path, directed=directed),
            read_edges(path, directed=directed))

    def test_parity_with_explicit_labels(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("src\tdst\tweight\nusa\tdeu\t1.5\n"
                        "deu\tjpn\t2.0\n")
        labels = ["usa", "deu", "jpn"]
        assert_tables_identical(
            read_edge_csv_rows(path, delimiter="\t", labels=labels),
            read_edges(path, delimiter="\t", labels=labels))

    def test_parity_random_corpus(self, tmp_path):
        rng = np.random.default_rng(7)
        src = rng.integers(0, 200, 3000)
        dst = rng.integers(0, 200, 3000)
        weight = rng.random(3000) * 10
        table = EdgeTable(src, dst, weight, directed=True)
        path = tmp_path / "corpus.csv"
        write_edges(table, path)
        assert_tables_identical(read_edge_csv_rows(path),
                                read_edges(path))

    def test_chunk_boundaries_do_not_matter(self, tmp_path):
        rng = np.random.default_rng(8)
        table = EdgeTable(rng.integers(0, 99, 500),
                          rng.integers(0, 99, 500),
                          rng.integers(1, 50, 500).astype(float))
        path = tmp_path / "chunks.csv"
        write_edges(table, path)
        whole = read_edges(path)
        for block_bytes in (64, 257, 1024):
            assert_tables_identical(
                whole, read_edges(path, block_bytes=block_bytes))

    def test_bare_cr_line_endings(self, tmp_path):
        # Old-Mac row terminators: the csv module splits on bare \r,
        # so the chunked reader must too (it used to return 0 rows).
        path = tmp_path / "cr.csv"
        path.write_bytes(b"src,dst,weight\r0,1,1.5\r2,3,2.5\r")
        assert_tables_identical(read_edge_csv_rows(path),
                                read_edges(path))
        assert read_edges(path).m == 2

    def test_crlf_inside_quoted_label_round_trips(self, tmp_path):
        # \r\n normalization must never reach inside quoted fields.
        table = EdgeTable([0, 1], [1, 2], [1.0, 2.0],
                          labels=["a\r\nb", "plain", "c"])
        path = tmp_path / "crlf_label.csv"
        write_edges(table, path)
        assert_tables_identical(read_edge_csv_rows(path),
                                read_edges(path))
        again = read_edges(path, labels=table.labels)
        assert_tables_identical(table, again)

    def test_quoted_newline_spanning_blocks(self, tmp_path):
        # A quoted field containing \n makes newline-chunking unsound;
        # the reader must hand the rest of the stream to csv whole.
        rows = "".join(f"{i},{i + 1},1.0\n" for i in range(50))
        path = tmp_path / "span.csv"
        path.write_text("src,dst,weight\n" + rows
                        + '"multi\nline",solo,2.5\n'
                        + "x,y,3.0\n")
        reference = read_edge_csv_rows(path)
        for block_bytes in (32, 64, 300, 1 << 20):
            assert_tables_identical(
                reference, read_edges(path, block_bytes=block_bytes))

    def test_leading_zero_tokens_never_merge_across_blocks(self,
                                                           tmp_path):
        # '007' in an early all-integer-looking block must stay a
        # distinct label from '7' when a later block adds labels.
        rows = "".join(f"00{i % 7},1,1.0\n" for i in range(40))
        path = tmp_path / "zeros.csv"
        path.write_text("src,dst,weight\n" + rows + "7,x,2.0\n")
        reference = read_edge_csv_rows(path)
        for block_bytes in (48, 1 << 20):
            got = read_edges(path, block_bytes=block_bytes)
            assert_tables_identical(reference, got)
        assert "001" in reference.labels and "1" in reference.labels

    def test_quote_mid_file_with_small_blocks(self, tmp_path):
        rows = "".join(f"a{i},b{i},1.0\n" for i in range(30))
        path = tmp_path / "late_quote.csv"
        path.write_text("src,dst,weight\n" + rows
                        + '"q,1",b0,9.0\n' + rows)
        for block_bytes in (40, 1 << 20):
            assert_tables_identical(
                read_edge_csv_rows(path),
                read_edges(path, block_bytes=block_bytes))

    def test_labeled_chunk_boundaries(self, tmp_path):
        # Labels discovered across many blocks intern in first-seen
        # order, exactly as the single-pass row loop did.
        rows = "".join(f"n{i % 37},n{(i * 7) % 41},1.5\n"
                       for i in range(400))
        path = tmp_path / "labeled.csv"
        path.write_text("src,dst,weight\n" + rows)
        reference = read_edge_csv_rows(path)
        for block_bytes in (64, 999):
            assert_tables_identical(
                reference, read_edges(path, block_bytes=block_bytes))


# ----------------------------------------------------------------------
# The exact decimal-weight kernel against float()
# ----------------------------------------------------------------------

def parse_decimals(texts):
    """Run the decimal kernel over ``texts``, one per line."""
    data = np.frombuffer(("\n".join(texts) + "\n").encode(),
                         dtype=np.uint8)
    ends = np.flatnonzero(data == 10)
    starts = np.concatenate([[0], ends[:-1] + 1])
    return _parse_decimal_runs(data, starts, ends, _byte_lanes(data))


def float_bits(texts):
    """``float()`` of each text as raw bits (so ``-0.0`` counts)."""
    return np.array([float(text) for text in texts]).view(np.uint64)


@st.composite
def decimal_spellings(draw):
    """A finite double spelled by ``repr`` or a printf format, with
    optional leading zeros, sign and upper-case exponent marker."""
    value = draw(st.floats(allow_nan=False, allow_infinity=False))
    style = draw(st.sampled_from(["repr", "g", "e", "f"]))
    precision = draw(st.integers(0, 19))
    text = repr(value) if style == "repr" \
        else f"%.{precision}{style}" % value
    if draw(st.booleans()):
        sign = "-" if text.startswith("-") else ""
        text = sign + "0" * draw(st.integers(1, 4)) + text[len(sign):]
    if not text.startswith("-") and draw(st.booleans()):
        text = draw(st.sampled_from("+-")) + text
    if draw(st.booleans()):
        text = text.upper()
    return text


class TestDecimalKernel:
    #: Rows the kernel must parse, bit for bit: ties, powers of ten at
    #: the exact-product edge, subnormals, extremes, 19 digits, and
    #: mantissas whose double rounds up to the next power of two.
    EXACT = [
        "9007199254740993", str(2**53 + 3), str(2**53 + 5),
        str(2**60 + 1), str(2**60 + 64), str(2**60 + 128),
        str(2**54 - 1), str(2**63 - 512), str(2**63 - 1),
        "1e22", "1e23", "2.2250738585072014e-308",
        "2.2250738585072011e-308", "4.9e-324", "2.4703282292062328e-324",
        "1.7976931348623157e308", "1.7976931348623159e308",
        "1234567890123456789", "9999999999999999999",
        "0.1234567890123456789", "-0.0", "+1.5", "1.", ".5",
        "00012.50", "0.000123456789012345678", "1E5", "1e+05", "0e999",
    ]
    #: Rows ``float()`` rejects or the kernel cannot prove exact
    #: (20 significant digits, exponents outside [-342, 308]).
    FLAGGED = ["nan", "inf", "1.5.3", ".", "-", "e5", "1e", " 1.5",
               "1.5 ", "1e5e5", "1e1000", "1e309", "-1e-400",
               "12345678901234567890", "0.12345678901234567890",
               "1_000", "--1", ""]

    @settings(max_examples=300, deadline=None)
    @given(texts=st.lists(decimal_spellings(), min_size=1, max_size=16))
    def test_unflagged_rows_equal_float(self, texts):
        values, flagged = parse_decimals(texts)
        kept = ~flagged
        assert np.array_equal(values.view(np.uint64)[kept],
                              float_bits(texts)[kept])

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False,
                                     allow_infinity=False),
                           min_size=1, max_size=32))
    def test_shortest_repr_is_never_flagged(self, values):
        got, flagged = parse_decimals([repr(value) for value in values])
        assert not flagged.any()
        assert np.array_equal(got.view(np.uint64),
                              np.array(values).view(np.uint64))

    def test_exact_rows_are_parsed(self):
        values, flagged = parse_decimals(self.EXACT)
        assert not flagged.any()
        assert np.array_equal(values.view(np.uint64),
                              float_bits(self.EXACT))

    def test_unprovable_rows_are_flagged(self):
        # Interleaved with exact rows, so no flag leaks to a neighbour.
        texts = [text for bad in self.FLAGGED for text in (bad, "2.5")]
        values, flagged = parse_decimals(texts)
        assert flagged.tolist() == [True, False] * len(self.FLAGGED)
        assert values[1::2].tolist() == [2.5] * len(self.FLAGGED)

    def test_random_doubles_in_every_spelling(self):
        rng = np.random.default_rng(23)
        bits = rng.integers(0, 2**63, 6000, dtype=np.uint64)
        doubles = bits.view(np.float64)
        doubles = doubles[np.isfinite(doubles)].tolist()
        scaled = (rng.random(6000) * 10.0 ** rng.integers(-12, 12, 6000))
        for pool in (doubles, scaled.tolist()):
            for spell in (repr, "%.17g".__mod__, "%.15e".__mod__,
                          "%.19g".__mod__, "%.12f".__mod__):
                texts = [spell(value) for value in pool]
                values, flagged = parse_decimals(texts)
                assert np.array_equal(values.view(np.uint64)[~flagged],
                                      float_bits(texts)[~flagged])
                if spell is repr:
                    assert not flagged.any()

    @pytest.fixture
    def fallback_rows(self, monkeypatch):
        """Row counts of each call into the per-row float fallback."""
        seen = []
        real = ingest._parse_float_fields

        def spy(data, starts, ends):
            seen.append(len(starts))
            return real(data, starts, ends)

        monkeypatch.setattr(ingest, "_parse_float_fields", spy)
        return seen

    def test_written_tables_never_reach_the_fallback(self, tmp_path,
                                                      fallback_rows):
        rng = np.random.default_rng(5)
        m = 4000
        weight = np.where(rng.random(m) < 0.5, rng.random(m) * 100,
                          rng.random(m) * 1e-3)
        table = EdgeTable(rng.integers(0, 300, m), rng.integers(0, 300, m),
                          weight, directed=True)
        path = tmp_path / "decimal.csv"
        write_edges(table, path)
        for block_bytes in (1 << 10, 1 << 20):
            assert_tables_identical(
                table, read_edges(path, block_bytes=block_bytes))
        assert sum(fallback_rows) == 0

    def test_only_flagged_rows_reach_the_fallback(self, tmp_path,
                                                  fallback_rows):
        path = tmp_path / "mixed.csv"
        path.write_text(TestLegacyParity.CASES["mixed_fallback"])
        assert_tables_identical(read_edge_csv_rows(path), read_edges(path))
        assert fallback_rows == [1]


# ----------------------------------------------------------------------
# Diagnostic errors (the historical bare IndexError/ValueError bugfix)
# ----------------------------------------------------------------------

class TestDiagnosticErrors:
    def test_short_row_names_file_and_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("src,dst,weight\n0,1,1.0\n2,3\n")
        with pytest.raises(ValueError) as caught:
            read_edges(path)
        message = str(caught.value)
        assert "short.csv" in message
        assert "line 3" in message
        assert "3 fields" in message

    def test_one_field_row(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("src,dst,weight\nlonely\n")
        with pytest.raises(ValueError, match="line 2"):
            read_edges(path)

    def test_bad_weight_names_file_line_and_token(self, tmp_path):
        path = tmp_path / "badw.csv"
        path.write_text("src,dst,weight\n0,1,1.0\na,b,oops\n")
        with pytest.raises(ValueError) as caught:
            read_edges(path)
        message = str(caught.value)
        assert "badw.csv" in message
        assert "line 3" in message
        assert "'oops'" in message

    def test_empty_weight_field(self, tmp_path):
        path = tmp_path / "empty_weight.csv"
        path.write_text("src,dst,weight\n0,1,\n")
        with pytest.raises(ValueError, match="line 2"):
            read_edges(path)

    def test_error_line_numbers_span_blocks(self, tmp_path):
        rows = "".join(f"{i},{i + 1},1.0\n" for i in range(500))
        path = tmp_path / "late.csv"
        path.write_text("src,dst,weight\n" + rows + "a,b,bad\n")
        with pytest.raises(ValueError, match="line 502"):
            read_edges(path, block_bytes=128)

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "unknown.csv"
        path.write_text("src,dst,weight\nusa,mars,1.0\n")
        with pytest.raises(ValueError, match="mars"):
            read_edges(path, labels=["usa", "deu"])


# ----------------------------------------------------------------------
# EdgeTableBuilder
# ----------------------------------------------------------------------

class TestEdgeTableBuilder:
    def test_chunked_equals_one_shot(self):
        rng = np.random.default_rng(11)
        src = rng.integers(0, 30, 120)
        dst = rng.integers(0, 30, 120)
        weight = rng.random(120)
        builder = EdgeTableBuilder(directed=False)
        for lo in range(0, 120, 17):
            builder.append(src[lo:lo + 17], dst[lo:lo + 17],
                           weight[lo:lo + 17])
        assert len(builder) == 120
        assert_tables_identical(
            builder.build(),
            EdgeTable(src, dst, weight, directed=False))

    def test_label_interning_first_seen_across_chunks(self):
        builder = EdgeTableBuilder()
        builder.append(["b", "a"], ["a", "c"], [1.0, 2.0])
        builder.append(["c"], ["d"], [3.0])
        built = builder.build()
        assert built.labels == ("b", "a", "c", "d")
        assert built.weight_lookup()[(0, 1)] == 1.0

    def test_integer_looking_tokens_become_indices(self):
        built = EdgeTableBuilder().append(["4", "2"], ["2", "0"],
                                          [1.0, 2.0]).build()
        assert built.labels is None
        assert built.n_nodes == 5

    def test_explicit_vocabulary_orders_and_validates(self):
        builder = EdgeTableBuilder(labels=["x", "y", "z"])
        builder.append(["z"], ["x"], [1.0])
        built = builder.build()
        assert built.labels == ("x", "y", "z")
        assert built.weight_lookup()[(2, 0)] == 1.0
        bad = EdgeTableBuilder(labels=["x"]).append(["q"], ["x"], [2.0])
        with pytest.raises(ValueError, match="q"):
            bad.build()

    def test_index_chunks_with_vocabulary(self):
        built = EdgeTableBuilder(labels=["x", "y", "z"]) \
            .append([2], [0], [1.0]).build()
        assert built.labels == ("x", "y", "z")
        assert built.n_nodes == 3

    def test_empty_builder(self):
        assert EdgeTableBuilder(directed=False).build().m == 0
        labeled = EdgeTableBuilder(labels=["a", "b"]).build()
        assert labeled.n_nodes == 2 and labeled.labels == ("a", "b")

    def test_bytes_chunks_decode(self):
        built = EdgeTableBuilder().append(
            np.array([b"caf\xc3\xa9"]), np.array([b"tea"]),
            [1.0]).build()
        assert built.labels == ("café", "tea")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            EdgeTableBuilder().append([0, 1], [1], [1.0, 2.0])

    def test_mixed_kind_chunk_rejected(self):
        with pytest.raises(ValueError, match="both"):
            EdgeTableBuilder().append([0], ["a"], [1.0])

    def test_duplicates_coalesce_at_build(self):
        built = EdgeTableBuilder().append([0, 0], [1, 1],
                                          [1.0, 2.0]).build()
        assert built.m == 1 and built.weight[0] == 3.0


# ----------------------------------------------------------------------
# coalesce_edges
# ----------------------------------------------------------------------

class TestCoalesceEdges:
    def test_matches_scalar_key_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 25))
            m = int(rng.integers(1, 50))
            src = rng.integers(0, n, m)
            dst = rng.integers(0, n, m)
            weight = rng.random(m)
            keys = src.astype(np.int64) * n + dst
            unique_keys, inverse = np.unique(keys, return_inverse=True)
            if len(unique_keys) == len(keys):
                order = np.argsort(keys, kind="stable")
                expected = (src[order], dst[order], weight[order])
            else:
                summed = np.bincount(inverse, weights=weight,
                                     minlength=len(unique_keys))
                expected = (unique_keys // n, unique_keys % n, summed)
            got = coalesce_edges(src, dst, weight)
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)

    def test_huge_indices_do_not_overflow(self):
        big = 2**60
        table = EdgeTable([big, 0, big], [big - 1, 5, big - 1],
                          [1.0, 2.0, 3.0])
        assert table.m == 2
        assert table.weight_lookup()[(big, big - 1)] == 4.0

    def test_canonical_input_untouched(self):
        src = np.array([0, 0, 2], dtype=np.int64)
        dst = np.array([1, 3, 2], dtype=np.int64)
        weight = np.array([1.0, 2.0, 3.0])
        out_src, out_dst, out_weight = coalesce_edges(src, dst, weight)
        assert out_src is src and out_dst is dst \
            and out_weight is weight


# ----------------------------------------------------------------------
# File fingerprints and source bindings
# ----------------------------------------------------------------------

class TestFileFingerprints:
    def test_fingerprint_tracks_content(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n0,1,1.0\n")
        first = fingerprint_file(path)
        assert first == fingerprint_file(path)
        assert len(first) == 64
        path.write_text("src,dst,weight\n0,1,2.0\n")
        assert fingerprint_file(path) != first

    def test_chunked_hashing_matches_one_shot(self, tmp_path):
        path = tmp_path / "big.csv"
        path.write_text("x" * 10_000)
        assert fingerprint_file(path, chunk_bytes=37) \
            == fingerprint_file(path)

    def test_source_request_separates_parse_options(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n0,1,1.0\n")
        digest = fingerprint_file(path)
        directed = fingerprint_source_request(digest, directed=True)
        undirected = fingerprint_source_request(digest, directed=False)
        assert directed != undirected
        assert directed == fingerprint_source_request(digest,
                                                      directed=True)

    @pytest.mark.parametrize("spec", ["dir", "sqlite"])
    def test_binding_persists_across_store_reopen(self, spec, tmp_path):
        location = str(tmp_path / "cache") if spec == "dir" \
            else str(tmp_path / "cache.sqlite")
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n0,1,1.0\n0,2,2.0\n")
        table = read_edges(path)
        source_key = fingerprint_source_request(fingerprint_file(path),
                                                directed=True)
        table_fp = fingerprint_table(table)

        store = ScoreStore(location)
        assert store.source_binding(source_key) is None
        store.bind_source(source_key, table_fp)
        assert store.source_binding(source_key)[0] == table_fp

        reopened = ScoreStore(location)
        assert reopened.source_binding(source_key)[0] == table_fp

    def test_binding_in_memory_only_store(self):
        store = ScoreStore()
        store.bind_source("deadbeef", "feedface")
        assert store.source_binding("deadbeef")[0] == "feedface"
        assert ScoreStore().source_binding("deadbeef") is None
