"""Parser semantics tests: golden corpus parity (mirrors the reference's
tests/test_line_parser.cpp) + edge-case quirks + fuzz
equivalence checks of both parse paths (the compiled scanner and the numpy
interpreter) against the scalar oracle."""

import pickle

import numpy as np
import pyarrow as pa
import pytest

from logray import scan
from logray.formats import LineFormat, GOLDEN_FORMAT
from logray.oracle import parse_line, parse_named
from logray.vparse import VectorParser

# int64 and float edges: saturation both ways, overflow to inf, underflow
# to 0, negative zero
EDGE_TOKENS = [
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "99999999999999999999", "1e308", "1e309", "1e-400", "-0.0",
]


def both_paths(fmt):
    """The compiled parser and the interpreter for ``fmt``; the compiled
    one must really be compiled (the fallback has its own test)."""
    compiled = VectorParser(fmt)
    assert compiled.path == "compiled"
    return [compiled, VectorParser(fmt, enable_re2=False)]


def assert_matches_oracle(cols, lines, fmt, ctx=""):
    for i, line in enumerate(lines):
        well, vals = parse_named(line, fmt)
        assert cols["well_formatted"][i].as_py() == well, (ctx, repr(line))
        for nm, _f, _o in fmt.named_fields():
            got, want = cols[nm][i].as_py(), vals[nm]
            assert got == want and repr(got) == repr(want), (ctx, repr(line), nm, got, want)


@pytest.fixture(scope="module")
def golden_fmt():
    return LineFormat.from_format_string(GOLDEN_FORMAT)


# ---------------------------------------------------------------------------
# Golden corpus parity (test_line_parser.cpp:16-41)
# ---------------------------------------------------------------------------


def test_golden_corpus_oracle(golden_fmt, golden_lines):
    assert len(golden_lines) == 62
    for i, line in enumerate(golden_lines):
        well, vals = parse_named(line, golden_fmt)
        assert well == (not 25 <= i <= 28), f"line {i}"
    w, v = parse_named(golden_lines[0], golden_fmt)
    assert v == {
        "Date": 322,
        "Time": 85338,
        "Level": "TRACE",
        "Source": "router_forward_getOI",
        "Mesg": "source address:   9.67.116.98",
    }
    w, v = parse_named(golden_lines[61], golden_fmt)
    assert v["Time"] == 85424 and v["Mesg"] == "route handle:   LASTLINE"


def test_golden_corpus_vectorized(golden_fmt, golden_lines):
    vp = VectorParser(golden_fmt)
    cols = vp.parse_array(pa.array(golden_lines))
    wf = cols["well_formatted"].to_pylist()
    assert [i for i, w in enumerate(wf) if not w] == [25, 26, 27, 28]
    levels = cols["Level"].to_pylist()
    info = [i for i, l in enumerate(levels) if l == "INFO"]
    # golden INFO line positions (test_helpers.hpp:111-125)
    assert info == [4, 12, 14, 20, 29, 36, 41, 49, 51, 57]


def test_crlf_corpus_after_normalization(golden_fmt, golden_lines, golden_lines_crlf):
    # the engine's CR-strip normalizer runs before parse; post-strip the CRLF
    # corpus must parse identically (filtered_file_reader.cpp:161-164)
    assert golden_lines_crlf == golden_lines


# ---------------------------------------------------------------------------
# Edge-case semantics (parsing_basics.cpp quirks), oracle as specification
# ---------------------------------------------------------------------------

EDGE_CASES = [
    # (text, format, well_formatted, {name: value})
    ("10 20", "{INT:A} {INT:B}", True, {"A": 10, "B": 20}),
    ("10   20", "{INT:A} {INT:B}", True, {"A": 10, "B": 20}),
    ("10\t20", "{INT:A} {INT:B}", True, {"A": 10, "B": 20}),
    ("10 \t 20", "{INT:A} {INT:B}", True, {"A": 10, "B": 20}),
    # early-EOL success: digits consume everything, B never executes
    ("1020", "{INT:A} {INT:B}", True, {"A": 1020, "B": None}),
    ("42 3.14", "{INT:Count} {DBL:Score}", True, {"Count": 42, "Score": 3.14}),
    # atol 0-check: '0' at cursor is legal zero, anything else fails
    ("0 5", "{INT:A} {INT:B}", True, {"A": 0, "B": 5}),
    ("abc", "{INT:A}", False, {"A": None}),
    # atol reads sign/whitespace for the VALUE but consumes only digits at
    # the cursor: "-5 x" => A=-5 with zero consumption, then STR eats the rest
    ("-5 x", "{INT:A} {STR:B}", True, {"A": -5, "B": "-5 x"}),
    # CHR repeat consumes the whole run
    ("::::rest", "{CHR:C,:,1}{STR:S}", True, {"C": ":", "S": "rest"}),
    # NCHAR takes exactly N; leftover chars make the line malformed
    ("abc", "{STR:S,2}", False, {"S": None}),
    ("ab", "{STR:S,2}", True, {"S": "ab"}),
    # NCHAR overshoot past end-of-line => malformed
    ("a", "{STR:S,2}", False, {"S": None}),
    # trailing {STR:X} reads to end of line, including delim-looking chars
    ("x: a:b:c", "{STR:A}:{CHR:_, ,1}{STR:X}", True, {"A": "x", "X": "a:b:c", "_": " "}),
    # empty line: no instruction executes, still well-formatted
    ("", "{INT:A} {STR:B}", True, {"A": None, "B": None}),
    # DBL: at most one dot consumed
    ("1.2.3", "{DBL:D}{STR:R}", True, {"D": 1.2, "R": ".3"}),
    ("0.0", "{DBL:D}", True, {"D": 0.0}),
    (".5", "{DBL:D}", True, {"D": 0.5}),
    ("..", "{DBL:D}", False, {"D": None}),
    # DBL exponent contributes to the value but not the consumption
    ("1e3", "{DBL:D}{STR:R}", True, {"D": 1000.0, "R": "e3"}),
    # malformed binary-style line under the golden format
    ("0x00 0x01 0x02 0x03 ..Da..Ba", GOLDEN_FORMAT, False, {}),
    # whitespace field matches empty (ws field never fails)
    ("ab", "a b", True, {}),
    ("a b", "a b", True, {}),
    ("axb", "a b", False, {}),
    ("a  \t b", "a b", True, {}),
]


@pytest.mark.parametrize("text,fmtstr,want_well,want_vals", EDGE_CASES)
def test_edge_semantics_oracle(text, fmtstr, want_well, want_vals):
    fmt = LineFormat.from_format_string(fmtstr)
    well, vals = parse_named(text, fmt)
    assert well == want_well, (text, fmtstr)
    for k, v in want_vals.items():
        assert vals.get(k) == v, (text, fmtstr, k, vals)


@pytest.mark.parametrize("text,fmtstr,want_well,want_vals", EDGE_CASES)
def test_edge_semantics_vectorized(text, fmtstr, want_well, want_vals):
    fmt = LineFormat.from_format_string(fmtstr)
    vp = VectorParser(fmt)
    cols = vp.parse_array(pa.array([text]))
    assert cols["well_formatted"][0].as_py() == want_well, (text, fmtstr)
    for k, v in want_vals.items():
        got = cols[k][0].as_py()
        assert got == v, (text, fmtstr, k, got)


# ---------------------------------------------------------------------------
# Fuzz: vectorized interpreter == scalar oracle on random soup
# ---------------------------------------------------------------------------

FUZZ_FORMATS = [
    GOLDEN_FORMAT,
    "{INT:A} {INT:B}",
    "{INT:A} {DBL:B} {STR:C}",
    "{STR:A}:{STR:B}:{STR:C}",
    "{STR:A,3}{INT:B}",
    "{CHR:C,x,1}{STR:S} {INT:N}",
    "[{STR:Tag}] {DBL:V}",
    "{STR:S}",
    "{DBL:D} {DBL:E}",
]


def _random_lines(rng, n):
    alphabet = list("0123456789 .:x-+abcXYZ[]\t") + ["", "0322 ", "INFO ", "3.14", ":::"] + EDGE_TOKENS
    out = []
    for _ in range(n):
        k = rng.integers(0, 12)
        out.append("".join(rng.choice(alphabet) for _ in range(k)))
    return out


@pytest.mark.parametrize("fmtstr", FUZZ_FORMATS)
def test_fuzz_vectorized_equals_oracle(fmtstr):
    import zlib

    rng = np.random.default_rng(zlib.crc32(fmtstr.encode()))
    fmt = LineFormat.from_format_string(fmtstr)
    lines = _random_lines(rng, 500)
    for vp in both_paths(fmt):
        assert_matches_oracle(vp.parse_array(pa.array(lines)), lines, fmt, (fmtstr, vp.path))


def test_null_text_treated_as_empty():
    fmt = LineFormat.from_format_string("{INT:A}")
    vp = VectorParser(fmt)
    cols = vp.parse_array(pa.array(["1", None, "x"]))
    assert cols["well_formatted"].to_pylist() == [True, True, False]
    assert cols["A"].to_pylist() == [1, None, None]


def test_parse_table_appends_columns():
    fmt = LineFormat.from_format_string("{INT:A} {STR:B}")
    vp = VectorParser(fmt)
    t = pa.table({"conv_id": ["c1", "c2"], "text": ["1 x", "zz"]})
    out = vp.parse_table(t)
    assert out.column_names == ["conv_id", "text", "A", "B", "well_formatted"]
    assert out["A"].to_pylist() == [1, None]
    assert out["well_formatted"].to_pylist() == [True, False]


# ---------------------------------------------------------------------------
# Adversarial lines, both paths: cases that broke a former regex fast path
# (backtracked matches, CR/NUL rows, DBL lookahead) and each rule the
# compiled scanner has to get byte for byte
# ---------------------------------------------------------------------------

ADVERSARIAL_CASES = [
    # a backtracking matcher could "donate" digits/chars across fields;
    # sequential maximal munch rejects these
    ("4973xxYa", GOLDEN_FORMAT),
    ("12 34  :..s: m", GOLDEN_FORMAT),  # donated Level parse the reference rejects
    ("68INFO ", GOLDEN_FORMAT),
    ("1020", "{INT:A} {INT:B}"),
    # cross-row CRLF pairing regression: row ending \r before row starting \n
    ("\r", "{STR:A}:{INT:B}"),
    ("a\r", "{STR:S}"),
    # unicode NCHAR (character-count semantics)
    ("é¢6", "{STR:A,3}{INT:B}"),
    ("xé¢7", "{STR:A,3}{INT:B}"),
    # DBL dot donation: the cursor takes the dot, so the CHR literal fails
    ("1.5x", "{DBL:A}{CHR:C,.,0}{STR:B}"),
    # DBL value reads past the cursor span (exponent / sign / whitespace)
    ("1e3z", "{DBL:D}{STR:R}"),
    ("12.34.56", "{DBL:D}{STR:R}"),
    (" -5 x", "{INT:A} {DBL:B} {STR:C}"),
    ("0", "{DBL:D}"),
    ("00.5abc", "{DBL:D}{STR:R}"),
    (".5", "{DBL:D}"),
    ("..", "{DBL:D}"),
]


@pytest.mark.parametrize("text,fmtstr", ADVERSARIAL_CASES)
def test_re2_path_matches_oracle(text, fmtstr):
    fmt = LineFormat.from_format_string(fmtstr)
    # surround with hostile neighbors to catch batch-context bugs
    batch = ["\n.251::", text, "", "9\r", "\n"]
    for vp in both_paths(fmt):
        assert_matches_oracle(vp.parse_array(pa.array(batch)), batch, fmt, (fmtstr, vp.path))


@pytest.mark.parametrize("fmtstr", FUZZ_FORMATS)
def test_fuzz_re2_combined_equals_oracle(fmtstr):
    """The fuzz with CR/NUL/unicode and the int64/float edges in the
    alphabet, through both paths."""
    import zlib

    rng = np.random.default_rng(zlib.crc32(fmtstr.encode()) + 1)
    fmt = LineFormat.from_format_string(fmtstr)
    alphabet = list("0123456789 .:x-+abXY\t\v\r\n") + [
        "", "::", "..", "\x00", "é¢", "12 34  :..s: m"] + EDGE_TOKENS
    lines = ["".join(rng.choice(alphabet) for _ in range(rng.integers(0, 10))) for _ in range(400)]
    for vp in both_paths(fmt):
        assert_matches_oracle(vp.parse_array(pa.array(lines)), lines, fmt, (fmtstr, vp.path))


def test_re2_dbl_fast_path_active():
    """DBL formats run on the compiled scanner, and its values and flags
    match the oracle."""
    fmt = LineFormat.from_format_string("{INT:A} {DBL:B} {STR:C}")
    vp = VectorParser(fmt)
    assert vp.path == "compiled"
    lines = [f"{i} {i / 100:.2f} tail{i}" for i in range(1000)]
    cols = vp.parse_array(pa.array(lines))
    assert cols["well_formatted"].to_pylist() == [True] * 1000
    for i in (0, 1, 57, 999):
        assert cols["B"][i].as_py() == i / 100
        assert cols["A"][i].as_py() == i
    assert_matches_oracle(cols, lines, fmt)


def test_int_overflow_row_saturates():
    """An INT at or above 2**63 among good lines saturates instead of
    failing the batch, as atol (and the oracle) does."""
    fmt = LineFormat.from_format_string(GOLDEN_FORMAT)
    good = "0322 085338 TRACE  :..router: hello"
    for big in ("99999999999999999999", "9223372036854775808"):
        lines = [good, f"{big} 000001 INFO  :..evt_1: val=5", good]
        for vp in both_paths(fmt):
            cols = vp.parse_array(pa.array(lines))
            assert cols["Date"].to_pylist() == [322, 2**63 - 1, 322], vp.path
            assert cols["well_formatted"].to_pylist() == [True] * 3, vp.path
            assert_matches_oracle(cols, lines, fmt, vp.path)


def test_negative_int_saturates_to_int64_min():
    fmt = LineFormat.from_format_string("{INT:A}{STR:B}")
    lines = ["-9223372036854775808x", "-99999999999999999999x", "-9223372036854775807x"]
    for vp in both_paths(fmt):
        cols = vp.parse_array(pa.array(lines))
        assert cols["A"].to_pylist() == [-(2**63), -(2**63), -(2**63) + 1], vp.path
        assert_matches_oracle(cols, lines, fmt, vp.path)


def test_fuzz_random_formats_combined_equals_oracle():
    """Random FORMATS x random lines: both paths must match the oracle for arbitrary field layouts (greedy adjacency, NCHAR
    windows, repeats, delimiters), not just the curated formats above."""
    import zlib

    rng = np.random.default_rng(20260817)

    def random_format():
        parts = []
        n = rng.integers(1, 7)
        for i in range(n):
            kind = rng.choice(["INT", "DBL", "STR", "STRN", "CHR", "CHRR", "WS", "LIT"])
            name = f"F{i}"
            if kind == "INT":
                parts.append("{INT:%s}" % name)
            elif kind == "DBL":
                parts.append("{DBL:%s}" % name)
                parts.append(str(rng.choice([" ", ":", "x", ""])))
            elif kind == "STR":
                parts.append("{STR:%s}" % name)
                parts.append(str(rng.choice([" ", ":", ",", "x", ""])))
            elif kind == "STRN":
                parts.append("{STR:%s,%d}" % (name, rng.integers(0, 4)))
            elif kind == "CHR":
                parts.append("{CHR:%s,%s,0}" % (name, rng.choice([":", ".", "x"])))
            elif kind == "CHRR":
                parts.append("{CHR:%s,%s,1}" % (name, rng.choice([":", ".", "x"])))
            elif kind == "WS":
                parts.append(" ")
            else:
                parts.append(str(rng.choice(["[", "]", "=", "a"])))
        return "".join(parts)

    alphabet = list("0123456789 .:x=[]ab\t\r\n") + ["", "::", "..", "\x00", "12 "] + EDGE_TOKENS

    checked = 0
    for _ in range(30):
        fmtstr = random_format()
        try:
            fmt = LineFormat.from_format_string(fmtstr)
        except Exception:
            continue
        lines = [
            "".join(rng.choice(alphabet) for _ in range(rng.integers(0, 8)))
            for _ in range(200)
        ]
        for vp in both_paths(fmt):
            assert_matches_oracle(vp.parse_array(pa.array(lines)), lines, fmt, (fmtstr, vp.path))
        checked += 1
    assert checked >= 20  # most random formats compile


# ---------------------------------------------------------------------------
# Property-based equivalence (hypothesis)
# ---------------------------------------------------------------------------

try:
    from hypothesis import given, settings, strategies as st

    _LINE = st.lists(
        st.sampled_from(list("0123456789 .:x-+abXY\t\v\r\n\x00é") + EDGE_TOKENS),
        max_size=40,
    ).map("".join)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_LINE, min_size=1, max_size=20))
    def test_property_parser_equals_oracle(lines):
        fmt = LineFormat.from_format_string(GOLDEN_FORMAT)
        for vp in both_paths(fmt):
            assert_matches_oracle(vp.parse_array(pa.array(lines)), lines, fmt, vp.path)

except ImportError:  # pragma: no cover
    pass


def test_sliced_and_chunked_input():
    """Arrow slices carry an offset and chunked arrays multiple buffers;
    both must parse identically to a fresh array (buffer-view math)."""
    fmt = LineFormat.from_format_string("{INT:A} {STR:B}")
    vp = VectorParser(fmt)
    base = pa.array(["999 pre", "1 x", "2 y", "bad", "3 z"])
    sliced = base.slice(1, 4)
    want = vp.parse_array(pa.array(["1 x", "2 y", "bad", "3 z"]))
    got = vp.parse_array(sliced)
    for k in want:
        assert got[k].to_pylist() == want[k].to_pylist(), k
    chunked = pa.chunked_array([pa.array(["1 x"]), pa.array(["bad", "3 z"])])
    got2 = vp.parse_array(chunked)
    assert got2["A"].to_pylist() == [1, None, 3]
    assert got2["well_formatted"].to_pylist() == [True, False, True]


# ---------------------------------------------------------------------------
# Pickling and the no-compiler fallback
# ---------------------------------------------------------------------------

MIXED = pa.array(["skip", "0322 085338 TRACE  :..src: m", None, "bad line", "",
                  "9 1 INFO :.x: y\r\n", "12 34  :..s: m", "0322 085338 INFO  :..é: ü"]).slice(1)


def test_parse_batch_pickles():
    """ParseBatch ships into Ray's fused read task, so it must pickle and
    the copy must parse like the original."""
    from logray.stages.parse import ParseBatch

    pb = ParseBatch(GOLDEN_FORMAT)
    copy = pickle.loads(pickle.dumps(pb))
    assert copy.vp.path == pb.vp.path == "compiled"
    t = pa.table({"text": MIXED})
    assert copy(t).equals(pb(t))


def test_fallback_without_compiler(tmp_path, monkeypatch):
    """No ``cc`` on PATH and an empty cache dir: the scanner cannot be built,
    so parsers use the interpreter, with the same output, including a
    parser that chose the compiled path where it could be built."""
    fmt = LineFormat.from_format_string(GOLDEN_FORMAT)
    compiled = VectorParser(fmt)
    want = pa.table(compiled.parse_array(MIXED))
    assert want.schema == fmt.arrow_schema()
    monkeypatch.setenv("PATH", str(tmp_path / "bin"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    scan.library.cache_clear()
    try:
        vp = VectorParser(fmt)
        assert scan.library() is None and vp.path == "interpreter"
        assert pa.table(vp.parse_array(MIXED)).equals(want)
        assert pa.table(compiled.parse_array(MIXED)).equals(want)
    finally:
        scan.library.cache_clear()
