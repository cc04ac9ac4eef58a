"""Tests for windowed/streaming-shaped operators and ordinal mapping."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from logray.stages.window import (
    _session_ids,
    salted_histogram,
    sessionize,
    sessions_per_key,
    tumbling_window,
)
from logray.stages.search import MAX_ORDINAL, global_to_local, local_to_global
from logray.stages.reassemble import (
    MAX_PREVIEW_ROWS,
    fold_dialogue,
    preview,
    reassemble_conversations,
)


def test_session_ids_unit():
    ts = np.array([0, 10, 1000, 1010, 5000], np.int64)
    assert _session_ids(ts, gap_us=100).tolist() == [0, 0, 1, 1, 2]
    assert _session_ids(np.array([], np.int64), 100).tolist() == []
    assert _session_ids(np.array([5], np.int64), 100).tolist() == [0]


@pytest.fixture()
def event_ds(ray_session):
    import ray.data as rd

    n = 300
    rng = np.random.default_rng(4)
    user = rng.integers(0, 10, n)
    ts = np.datetime64("2026-01-01", "us") + (
        np.sort(rng.integers(0, 3_600_000_000 * 24, n))
    ).astype("timedelta64[us]")
    return (
        rd.from_arrow(
            pa.table(
                {
                    "user_id": pa.array(user, pa.int64()),
                    "event_id": pa.array(np.arange(n), pa.int64()),
                    "ts": pa.array(ts),
                    "event_type": pa.array(np.array(["a", "b", "c"])[user % 3]),
                }
            )
        ),
        pa.table(
            {
                "user_id": pa.array(user, pa.int64()),
                "event_id": pa.array(np.arange(n), pa.int64()),
                "ts": pa.array(ts),
            }
        ).to_pandas(),
    )


def test_sessions_per_key_matches_pandas(event_ds):
    ds, df = event_ds
    gap_s = 1800.0
    got = sessions_per_key(ds, "user_id", gap_s=gap_s, tiebreak_col="event_id")
    got = dict(zip(got["user_id"], got["n_sessions"]))
    for uid, g in df.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"])
        ts_us = g["ts"].astype("datetime64[us]").astype(np.int64).to_numpy()
        want = 1 + int((np.diff(ts_us) > gap_s * 1e6).sum())
        assert got[uid] == want, uid


def test_sessionize_ids_contiguous(event_ds):
    ds, _ = event_ds
    out = sessionize(ds, "user_id", gap_s=600.0, tiebreak_col="event_id").to_pandas()
    for _, g in out.groupby("user_id"):
        g = g.sort_values(["ts", "event_id"])
        ids = g["session_id"].to_numpy()
        assert ids[0] == 0
        assert ((np.diff(ids) == 0) | (np.diff(ids) == 1)).all()


def test_tumbling_window_counts(event_ds):
    ds, df = event_ds
    got = tumbling_window(ds, key_cols="user_id", width="hour")
    df["window_start"] = df["ts"].dt.floor("h")
    want = df.groupby(["user_id", "window_start"]).size()
    assert len(got) == len(want)
    for _, row in got.iterrows():
        assert want[(row["user_id"], row["window_start"])] == row["n"]


def test_salted_histogram_equals_plain(event_ds):
    ds, df = event_ds
    got = salted_histogram(ds, "event_type", salt_buckets=4)
    want = df.assign(event_type=np.array(["a", "b", "c"])[df.user_id % 3]).groupby("event_type").size()
    assert dict(zip(got["event_type"], got["n"])) == want.to_dict()


# ---------------------------------------------------------------------------
# local <-> global ordinal mapping (test_jump_to_local_line.cpp invariants)
# ---------------------------------------------------------------------------

INFO_LINES = [4, 12, 14, 20, 29, 36, 41, 49, 51, 57]


@pytest.fixture()
def info_view(ray_session, golden_lines):
    import ray.data as rd

    from logray.filters import EvalContext
    from logray.formats import GOLDEN_FORMAT, LineFormat
    from logray.stages.parse import parse_stage
    from logray.stages.route import Route, Router, route_datasets

    fmt = LineFormat.from_format_string(GOLDEN_FORMAT)
    n = len(golden_lines)
    t = pa.table(
        {
            "conv_id": ["g"] * n,
            "turn_idx": pa.array(range(n), pa.int32()),
            "text": golden_lines,
        }
    )
    parsed = parse_stage(rd.from_arrow(t), GOLDEN_FORMAT)
    router = Router(
        [Route.from_decl("info", "Level EQ INFO", fmt)],
        ctx=EvalContext(text_col="text", line_col="turn_idx"),
    )
    return route_datasets(parsed, router)["info"]


def test_local_to_global_golden(info_view):
    # count_to_info_line parity (test_helpers.hpp:111-125)
    for local, glob in enumerate(INFO_LINES):
        assert local_to_global(info_view, local) == ("g", glob), local
    assert local_to_global(info_view, 10) is None  # past the end


@pytest.mark.parametrize("call", [
    lambda v: local_to_global(v, -1),
    lambda v: local_to_global(v, -3),
    lambda v: preview(v, n=-1),
])
def test_negative_ordinal_and_n_rejected(ray_session, call):
    """A negative ordinal used to index from the end of the candidate
    list (-3 gave a wrong row, -1 an IndexError) and ``preview(n=-1)``
    sliced off the last rows; both now raise."""
    import ray.data as rd

    view = rd.from_arrow(pa.table({
        "conv_id": ["a"] * 5 + ["b"] * 5,
        "turn_idx": pa.array(list(range(5)) * 2, pa.int32()),
    })).repartition(2)
    with pytest.raises(ValueError, match=">= 0"):
        call(view)


@pytest.mark.parametrize("call", [
    lambda v: local_to_global(v, MAX_ORDINAL + 1),
    lambda v: preview(v, n=MAX_PREVIEW_ROWS + 1),
])
def test_bulk_ordinal_and_n_rejected_before_ray_work(call):
    """``local_to_global`` and ``preview`` pull up to ordinal+1 / n rows
    from every batch to the driver; above the module cap they raise,
    pointing at ``ordered_view``, before touching the view (a Dataset
    stand-in whose every attribute access fails proves no Ray work)."""

    class NoWork:
        def __getattr__(self, name):
            raise AssertionError(f"view.{name} used")

    with pytest.raises(ValueError, match="ordered_view"):
        call(NoWork())


def test_global_to_local_roundtrip(info_view):
    for local, glob in enumerate(INFO_LINES):
        assert global_to_local(info_view, ("g", glob)) == local
    # a global line between INFO lines maps to the count of INFO lines before
    assert global_to_local(info_view, ("g", 13)) == 2


def test_monotonic_invariant(info_view):
    # strictly monotonic local->global (test_jump_to_local_line.cpp:6-10)
    globals_ = [local_to_global(info_view, i)[1] for i in range(len(INFO_LINES))]
    assert globals_ == sorted(globals_)
    assert len(set(globals_)) == len(globals_)


# ---------------------------------------------------------------------------
# dialogue folding
# ---------------------------------------------------------------------------


def test_fold_dialogue(ray_session):
    import ray.data as rd

    t = pa.table(
        {
            "conv_id": ["c1", "c1", "c2", "c1"],
            "turn_idx": pa.array([2, 0, 0, 1], pa.int32()),
            "text": ["third", "first", "solo", "second"],
        }
    )
    out = reassemble_conversations(rd.from_arrow(t), fold_dialogue(" | ")).to_pandas()
    got = dict(zip(out["conv_id"], out["dialogue"]))
    assert got == {"c1": "first | second | third", "c2": "solo"}


def _reassembly_frame() -> pd.DataFrame:
    """Turns stored in reverse turn order, a hot conversation (half the
    rows), null conv ids, null texts, one conversation whose texts are
    all null, and a float value with both NaN and null entries."""
    rng = np.random.default_rng(17)
    n = 1200
    conv = np.array([f"c{i}" for i in rng.integers(0, 40, n)], dtype=object)
    conv[rng.random(n) < 0.5] = "hot"
    conv[rng.random(n) < 0.05] = None
    conv[:6] = "all_null"
    text = np.array([f"t{i}" for i in range(n)], dtype=object)
    text[rng.random(n) < 0.1] = None
    text[:6] = None
    val = rng.integers(0, 4, n).astype(object)
    val[rng.random(n) < 0.08] = float("nan")
    val[rng.random(n) < 0.08] = None
    df = pd.DataFrame({"conv_id": conv, "turn_idx": np.arange(n, dtype=np.int64),
                       "text": text, "val": val})
    return df.iloc[::-1].reset_index(drop=True)


def _reassembly_ds(df, blocks: int = 5):
    """Arrow blocks that keep NaN as a value, distinct from null."""
    import ray.data as rd

    t = pa.table({
        "conv_id": pa.array(df["conv_id"].tolist(), pa.string()),
        "turn_idx": pa.array(df["turn_idx"].to_numpy()),
        "text": pa.array(df["text"].tolist(), pa.string()),
        "val": pa.array(df["val"].tolist(), pa.float64()),
    })
    assert pc.sum(pc.is_nan(t["val"])).as_py() > 0 and t["val"].null_count > 0
    return rd.from_arrow(t).repartition(blocks)


def test_fold_dialogues_matches_duckdb_string_agg(ray_session):
    """string_agg skips null texts and gives an all-null conversation a
    null dialogue (both folds used to write the text "None"); rows with
    a null conv_id are dropped."""
    import duckdb

    from logray.stages.reassemble import fold_dialogues

    df = _reassembly_frame()
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        "SELECT conv_id, string_agg(text, '\n' ORDER BY turn_idx) AS dialogue "
        "FROM t WHERE conv_id IS NOT NULL GROUP BY conv_id").df()
    want = dict(zip(want["conv_id"], want["dialogue"]))
    assert want["all_null"] is None
    got = fold_dialogues(_reassembly_ds(df), num_buckets=4).to_pandas()
    assert dict(zip(got["conv_id"], got["dialogue"])) == want
    ds = _reassembly_ds(df[df["conv_id"].notna()])
    got = reassemble_conversations(ds, fold_dialogue()).to_pandas()
    assert dict(zip(got["conv_id"], got["dialogue"])) == want


@pytest.mark.parametrize("skew_safe", [False, True])
@pytest.mark.parametrize("order", [1, 2])
def test_transition_counts_nan_null_keys_match_duckdb(ray_session, order,
                                                      skew_safe):
    """Both plans against the DuckDB twin on a hot key, null keys and a
    float value holding NaN and null: a NaN predecessor drops its window
    like a null one (DuckDB reads the pandas NaN as NULL).  The
    skew-safe plan used to fail inside Ray's range sort on a null string
    key next to a non-null one."""
    import duckdb

    from logray.stages.sequence import transition_counts, transition_counts_sql

    df = _reassembly_frame()
    names = _tc_names(order)
    got = (transition_counts(_reassembly_ds(df), "conv_id", "turn_idx", "val",
                             num_buckets=4, order=order, skew_safe=skew_safe)
           .sort_values(names).reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df.astype({"val": np.float64}))
    want = con.sql(transition_counts_sql("t", "conv_id", "turn_idx", "val",
                                         order=order)
                   + " ORDER BY " + ", ".join(names) + " NULLS LAST").df()
    pd.testing.assert_frame_equal(got, want)


@pytest.mark.parametrize("keys", [["x", "x", "x", "y"], [1, 1, 1, 2]],
                         ids=["str", "int"])
def test_transition_counts_null_typed_key_block(ray_session, keys):
    """A block whose keys are all None infers a null-typed key column;
    the skew-safe plan used to fail casting its null fill to that type.
    Both plans now agree on it (the null keys pool into one sequence)."""
    import ray.data as rd

    from logray.stages.sequence import transition_counts

    df = pd.DataFrame({"k": keys, "t": [0, 1, 2, 0], "v": ["a", "b", "a", "c"]})
    nulls = pd.DataFrame({"k": [None, None], "t": [5, 6], "v": ["a", "c"]})
    ds = rd.from_pandas([df, nulls])
    got = [transition_counts(ds, "k", "t", "v", skew_safe=s)
           .sort_values(["from_val", "to_val"]).values.tolist()
           for s in (False, True)]
    assert got[0] == got[1] == [["a", "b", 1], ["a", "c", 1], ["b", "a", 1]]


def test_reassembly_kernels_on_empty_tables():
    """The per-bucket Arrow kernels keep a typed schema on empty input."""
    from logray.stages.reassemble import _fold_bucket
    from logray.stages.sequence import _count_windows

    t = pa.table({"conv_id": pa.array([], pa.string()),
                  "turn_idx": pa.array([], pa.int64()),
                  "text": pa.array([], pa.string()),
                  "val": pa.array([], pa.float64())})
    out = _fold_bucket(t)
    assert out.num_rows == 0
    assert out.schema == pa.schema([("conv_id", pa.string()),
                                    ("dialogue", pa.string())])
    for order in (1, 2):
        out = _count_windows(t, "conv_id", "val", order, _tc_names(order))
        assert out.num_rows == 0
        assert out.schema == pa.schema(
            [(c, pa.float64()) for c in _tc_names(order)] + [("n", pa.int64())])


def test_reassembly_reducers_stay_in_arrow():
    """The reassemble reducers take the bucket as a pa.Table and never
    convert it: a pandas round trip turns every turn text into a Python
    object, which was most of the workload's cost."""
    import inspect

    from logray.stages import reassemble, sequence

    for fn in (reassemble._fold_bucket, sequence._count_windows):
        src = inspect.getsource(fn)
        assert "pd." not in src and "to_pandas" not in src and "to_pylist" not in src
    for fn in (reassemble.fold_dialogues, sequence.transition_counts):
        assert 'batch_format="pyarrow"' in inspect.getsource(fn)


def test_randomized_local_access(info_view):
    """Randomized jump sweep (mirrors test_log_parser_interface.cpp:16-22):
    arbitrary local-id access must equal the golden filtered view."""
    rng = np.random.default_rng(123)
    for local in rng.integers(0, 10, 40):
        assert local_to_global(info_view, int(local)) == ("g", INFO_LINES[local])


def test_mixed_direction_search(info_view):
    """Forward then backward from the same anchor (mirrors
    test_filtered_file_reader mixed iteration)."""
    from logray.stages.search import find_next_occurrence

    fwd = find_next_occurrence(info_view, "INFO", from_key=("g", 20))
    back = find_next_occurrence(info_view, "INFO", from_key=("g", 20), forward=False)
    assert fwd["turn_idx"] == 29 and back["turn_idx"] == 14
    # inclusive anchors return the anchor itself when it matches
    assert find_next_occurrence(info_view, "INFO", from_key=("g", 20), inclusive=True)["turn_idx"] == 20


# ---------------------------------------------------------------------------
# selection / top-k / tokenize
# ---------------------------------------------------------------------------


def test_kth_smallest(ray_session):
    import ray.data as rd

    from logray.stages.aggregate import kth_smallest

    vals = [5, 1, 9, 3, 7, 2, 8]
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.int64())}))
    for k, want in [(0, 1), (3, 5), (6, 9)]:
        assert kth_smallest(ds, "v", k) == want
    assert kth_smallest(ds, "v", 99) is None


def test_kth_smallest_non_numeric(ray_session, monkeypatch):
    """String and timestamp columns go through the value-space bisection
    (_select) — the non-numeric support the old sort-based
    implementation had, still with NO sort of the dataset."""
    import numpy as np
    import ray.data as rd

    from logray.stages.aggregate import _select, kth_smallest

    def boom(self, *a, **k):
        raise AssertionError("kth_smallest must not sort the dataset")

    monkeypatch.setattr(rd.Dataset, "sort", boom)
    rng = np.random.default_rng(11)
    words = np.array(["alpha", "beta", "gamma", "delta", "eps", "zeta"])
    s = words[rng.integers(0, 6, 3000)]
    ds = rd.from_arrow(pa.table({"v": s})).repartition(5)
    srt = np.sort(s)
    for k in [0, 1, 1499, 2999]:
        # tiny bracket budget forces the pivot-count bisection paths
        assert _select(ds, "v", lambda _n: [k], max_bracket_rows=40) == [srt[k]]
        assert kth_smallest(ds, "v", k) == srt[k]
    assert kth_smallest(ds, "v", 3000) is None

    ts = (np.datetime64("2026-01-01")
          + rng.integers(0, 9999, 500).astype("timedelta64[s]"))
    ds2 = rd.from_arrow(pa.table({"t": pa.array(ts)})).repartition(3)
    wt = np.sort(ts)
    for k in [0, 250, 499]:
        assert np.datetime64(kth_smallest(ds2, "t", k)) == wt[k]

    # all-duplicates bracket resolves via the strict-below proof
    const = rd.from_arrow(pa.table({"v": ["x"] * 800})).repartition(3)
    assert _select(const, "v", lambda _n: [799], max_bracket_rows=10) == ["x"]


def test_kth_smallest_never_sorts(ray_session, monkeypatch):
    """kth_smallest is a bisection selection — a full sort of the corpus
    for one order statistic is the scale anti-pattern it replaced."""
    import numpy as np
    import ray.data as rd

    from logray.stages.aggregate import kth_smallest

    def boom(self, *a, **k):
        raise AssertionError("kth_smallest must not sort the dataset")

    monkeypatch.setattr(rd.Dataset, "sort", boom)
    rng = np.random.default_rng(5)
    vals = rng.integers(0, 500, 4000)  # heavy duplication
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.int64())}))
    srt = np.sort(vals)
    for k in [0, 1, 1999, 3998, 3999]:
        assert kth_smallest(ds.repartition(6), "v", k) == srt[k]
    assert kth_smallest(ds, "v", 4000) is None
    assert kth_smallest(ds, "v", -1) is None


def test_top_k_groups(ray_session):
    import ray.data as rd

    from logray.stages.aggregate import top_k_groups

    ds = rd.from_arrow(pa.table({"k": ["a", "b", "a", "c", "b", "a"]}))
    out = top_k_groups(ds, "k", k=2)
    assert out["k"].tolist() == ["a", "b"]
    assert out["n"].tolist() == [3, 2]


def test_tokenize(ray_session):
    import ray.data as rd

    from logray.functions.textstats import tokenize

    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array([1, 2], pa.int64()), "text": ["a b  c", "x"]})
    )
    out = tokenize(ds, id_col="doc_id").to_pandas()
    # double space yields an empty token (string_split semantics)
    assert out[out.doc_id == 1]["token"].tolist() == ["a", "b", "", "c"]
    assert out[out.doc_id == 2]["token"].tolist() == ["x"]


def test_range_join_overlapping_and_disjoint(ray_session):
    import ray.data as rd

    from logray.stages.join import range_join

    ds = rd.from_arrow(pa.table({"value": pa.array([5.0, 55.0, 150.0, -1.0])}))
    disjoint = pd.DataFrame({"band": ["a", "b"], "lo": [0.0, 50.0], "hi": [50.0, 100.0]})
    out = range_join(ds, disjoint, "value").to_pandas()
    got = sorted(zip(out["value"], out["band"]))
    assert got == [(5.0, "a"), (55.0, "b")]  # 150 and -1 match nothing

    overlapping = pd.DataFrame({"band": ["x", "y"], "lo": [0.0, 40.0], "hi": [60.0, 100.0]})
    out2 = range_join(ds, overlapping, "value").to_pandas()
    got2 = sorted(zip(out2["value"], out2["band"]))
    assert got2 == [(5.0, "x"), (55.0, "x"), (55.0, "y")]


def test_turn_context(ray_session):
    import ray.data as rd

    from logray.stages.reassemble import turn_context

    t = pa.table(
        {
            "conv_id": ["c", "c", "c", "d"],
            "turn_idx": pa.array([0, 1, 2, 0], pa.int32()),
            "text": ["a", "b", "c", "z"],
        }
    )
    out = turn_context(rd.from_arrow(t), window=2, sep="|").to_pandas()
    got = {(r.conv_id, r.turn_idx): r.context for r in out.itertuples()}
    assert got == {("c", 0): "a", ("c", 1): "a|b", ("c", 2): "b|c", ("d", 0): "z"}


def test_range_join_left_keeps_unmatched(ray_session):
    import ray.data as rd

    from logray.stages.join import range_join

    ds = rd.from_arrow(pa.table({"value": pa.array([5.0, 55.0, 150.0, -1.0])}))
    disjoint = pd.DataFrame({"band": ["a", "b"], "lo": [0.0, 50.0], "hi": [50.0, 100.0]})
    out = range_join(ds, disjoint, "value", how="left").to_pandas()
    got = sorted(zip(out["value"], out["band"].where(out["band"].notna(), None)),
                 key=lambda x: x[0])
    assert got == [(-1.0, None), (5.0, "a"), (55.0, "b"), (150.0, None)]

    overlapping = pd.DataFrame({"band": ["x", "y"], "lo": [0.0, 40.0], "hi": [60.0, 100.0]})
    out2 = range_join(ds, overlapping, "value", how="left").to_pandas()
    # matched rows duplicate per matching interval; unmatched appear once with nulls
    assert len(out2) == 5
    assert out2["band"].isna().sum() == 2

    with pytest.raises(ValueError, match="unsupported how"):
        range_join(ds, disjoint, "value", how="full")


def test_hopping_window_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.window import hopping_window, hopping_window_sql

    rng = np.random.default_rng(9)
    n = 2000
    ts = pa.array(rng.integers(0, 3 * 86_400_000_000, n), pa.int64()).cast(
        pa.timestamp("us")
    )
    t = pa.table({"k": pa.array([f"e{i % 3}" for i in range(n)]), "ts": ts})
    got = hopping_window(rd.from_arrow(t), "ts", width_s=3600.0, hop_s=900.0,
                         key_cols="k")
    # every event lands in exactly width/hop = 4 windows
    assert got["n"].sum() == n * 4
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = con.sql(hopping_window_sql("t", "ts", 3600.0, 900.0, key_cols="k")).df()
    g = got.sort_values(["k", "window_start"]).reset_index(drop=True)
    w = want.sort_values(["k", "window_start"]).reset_index(drop=True)
    assert g["n"].tolist() == w["n"].tolist()
    assert g["window_start"].tolist() == w["window_start"].tolist()


# ---------------------------------------------------------------------------
# lag/lead + rolling frame aggregates (stages/windowfn.py)
# ---------------------------------------------------------------------------


def _windowfn_fixture():
    import numpy as np
    import pyarrow as pa

    rng = np.random.default_rng(77)
    n = 3000
    return pa.table(
        {
            "k": pa.array((rng.integers(0, 40, n)).astype("int64")),
            "ord": pa.array(rng.permutation(n).astype("int64")),
            "id": pa.array(np.arange(n, dtype="int64")),
            "v": pa.array(rng.integers(-100, 1000, n).astype("int64")),
        }
    )


def test_lag_lead_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.windowfn import lag_lead, lag_lead_sql

    t = _windowfn_fixture()
    got = (
        lag_lead(rd.from_arrow(t).repartition(7), "k", "ord", "v", n=2,
                 tiebreak_col="id", num_buckets=8)
        .to_pandas()
        .sort_values(["k", "ord", "id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = con.sql(
        lag_lead_sql("t", "k", "ord", "v", n=2, tiebreak_col="id")
        + " ORDER BY k, ord, id"
    ).df()
    pd.testing.assert_frame_equal(
        got[["k", "ord", "id", "v", "lag_v", "lead_v"]],
        want[["k", "ord", "id", "v", "lag_v", "lead_v"]],
    )


def test_lag_lead_string_values_and_single_row_runs(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from logray.stages.windowfn import lag_lead

    t = pa.table(
        {
            "k": pa.array(["a", "a", "b", "c", "c", "c"]),
            "ord": pa.array([2, 1, 5, 1, 2, 3], pa.int64()),
            "s": pa.array(["x", "y", "z", "p", "q", "r"]),
        }
    )
    got = (
        lag_lead(rd.from_arrow(t), "k", "ord", "s", n=1, num_buckets=4)
        .to_pandas()
        .sort_values(["k", "ord"])
        .reset_index(drop=True)
    )
    # key a ordered: (1,'y'),(2,'x'); key b single row; key c: p,q,r
    assert got["lag_s"].tolist() == [None, "y", None, None, "p", "q"]
    assert got["lead_s"].tolist() == ["x", None, None, "q", "r", None]


def test_rolling_agg_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.windowfn import rolling_agg, rolling_agg_sql

    t = _windowfn_fixture()
    got = (
        rolling_agg(rd.from_arrow(t).repartition(6), "k", "ord", "v",
                    window=4, tiebreak_col="id", num_buckets=8)
        .to_pandas()
        .sort_values(["k", "ord", "id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = con.sql(
        rolling_agg_sql("t", "k", "ord", "v", window=4, tiebreak_col="id")
        + " ORDER BY k, ord, id"
    ).df()
    cols = ["k", "ord", "id", "v", "roll_sum", "roll_n", "roll_mean"]
    pd.testing.assert_frame_equal(got[cols], want[cols])


def test_rolling_agg_nulls_and_window_one(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from logray.stages.windowfn import rolling_agg

    t = pa.table(
        {
            "k": pa.array(["a"] * 5),
            "ord": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "v": pa.array([1.0, None, 3.0, None, None], pa.float64()),
        }
    )
    got = (
        rolling_agg(rd.from_arrow(t), "k", "ord", "v", window=2, num_buckets=2)
        .to_pandas()
        .sort_values("ord")
        .reset_index(drop=True)
    )
    # SQL frame semantics: nulls excluded from SUM/COUNT; all-null frame -> NULL
    assert got["roll_n"].tolist() == [1, 1, 1, 1, 0]
    assert got["roll_sum"].tolist()[:4] == [1.0, 1.0, 3.0, 3.0]
    assert np.isnan(got["roll_sum"].iloc[4]) and np.isnan(got["roll_mean"].iloc[4])


def test_rank_window_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.windowfn import rank_window, rank_window_sql

    # low-cardinality order column -> real ties, so RANK gaps and
    # DENSE_RANK compaction are actually exercised
    rng = np.random.default_rng(5)
    n = 2000
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 25, n).astype("int64")),
            "ord": pa.array(rng.integers(0, 8, n).astype("int64")),
            "id": pa.array(np.arange(n, dtype="int64")),
        }
    )
    got = (
        rank_window(rd.from_arrow(t).repartition(6), "k", "ord",
                    tiebreak_col="id", num_buckets=8)
        .to_pandas()
        .sort_values(["k", "ord", "id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = con.sql(
        rank_window_sql("t", "k", "ord", tiebreak_col="id")
        + " ORDER BY k, ord, id"
    ).df()
    cols = ["k", "ord", "id", "row_num", "rnk", "dense_rnk"]
    pd.testing.assert_frame_equal(got[cols], want[cols])


def test_rank_window_null_order_values(ray_session):
    import ray.data as rd

    from logray.stages.windowfn import rank_window

    # nulls sort last and TIE with each other (SQL ranking semantics)
    t = pa.table(
        {
            "k": pa.array([1, 1, 1, 1], pa.int64()),
            "ord": pa.array([2.0, None, None, 1.0], pa.float64()),
            "id": pa.array([0, 1, 2, 3], pa.int64()),
        }
    )
    out = (
        rank_window(rd.from_arrow(t), "k", "ord", tiebreak_col="id")
        .to_pandas()
        .sort_values("row_num")
        .reset_index(drop=True)
    )
    assert out["id"].tolist() == [3, 0, 1, 2]
    assert out["rnk"].tolist() == [1, 2, 3, 3]
    assert out["dense_rnk"].tolist() == [1, 2, 3, 3]


def test_rank_window_ntile_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.windowfn import rank_window, rank_window_sql

    rng = np.random.default_rng(11)
    n = 1200
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 17, n).astype("int64")),
            "ord": pa.array(rng.integers(0, 50, n).astype("int64")),
            "id": pa.array(np.arange(n, dtype="int64")),
        }
    )
    got = (
        rank_window(rd.from_arrow(t).repartition(5), "k", "ord",
                    tiebreak_col="id", num_buckets=8, ntile=4)
        .to_pandas()
        .sort_values(["k", "ord", "id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = con.sql(
        rank_window_sql("t", "k", "ord", tiebreak_col="id", ntile=4)
        + " ORDER BY k, ord, id"
    ).df()
    cols = ["k", "ord", "id", "row_num", "rnk", "dense_rnk", "tile"]
    pd.testing.assert_frame_equal(got[cols], want[cols], check_dtype=False)


def test_rolling_agg_expanding_frame(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.windowfn import rolling_agg, rolling_agg_sql

    t = _windowfn_fixture()
    got = (
        rolling_agg(rd.from_arrow(t).repartition(4), "k", "ord", "v",
                    window=None, tiebreak_col="id", num_buckets=8)
        .to_pandas()
        .sort_values(["k", "ord", "id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = con.sql(
        rolling_agg_sql("t", "k", "ord", "v", window=None, tiebreak_col="id")
        + " ORDER BY k, ord, id"
    ).df()
    cols = ["k", "ord", "id", "v", "roll_sum", "roll_n", "roll_mean"]
    pd.testing.assert_frame_equal(got[cols], want[cols], check_dtype=False)


def test_rank_window_pct_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.windowfn import rank_window, rank_window_sql

    # low-cardinality order values -> real peer groups for CUME_DIST,
    # plus single-row partitions (PERCENT_RANK's 0/0 edge)
    rng = np.random.default_rng(11)
    n = 1500
    k = rng.integers(0, 30, n).astype("int64")
    k[0] = 999  # guaranteed single-row partition
    t = pa.table(
        {
            "k": pa.array(k),
            "ord": pa.array(rng.integers(0, 6, n).astype("int64")),
            "id": pa.array(np.arange(n, dtype="int64")),
        }
    )
    got = (
        rank_window(rd.from_arrow(t).repartition(6), "k", "ord",
                    tiebreak_col="id", num_buckets=8, pct=True)
        .to_pandas()
        .sort_values(["k", "ord", "id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = con.sql(
        rank_window_sql("t", "k", "ord", tiebreak_col="id", pct=True)
        + " ORDER BY k, ord, id"
    ).df()
    cols = ["k", "ord", "id", "row_num", "rnk", "dense_rnk",
            "pct_rank", "cume_dist"]
    # exact (not approx) equality: both sides divide the same exact ints
    # in float64
    pd.testing.assert_frame_equal(got[cols], want[cols], check_dtype=False)


def test_rolling_agg_range_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.windowfn import rolling_agg_range, rolling_agg_range_sql

    # duplicate order values exercise the peers-after-current-row rule of
    # SQL RANGE frames; negative values exercise the lift
    rng = np.random.default_rng(23)
    n = 2500
    t = pa.table(
        {
            "k": pa.array(rng.integers(0, 35, n).astype("int64")),
            "ord": pa.array(rng.integers(-50, 400, n).astype("int64")),
            "v": pa.array(rng.integers(-100, 1000, n).astype("int64")),
        }
    )
    got = (
        rolling_agg_range(rd.from_arrow(t).repartition(7), "k", "ord", "v",
                          preceding=25, num_buckets=8)
        .to_pandas()
        .sort_values(["k", "ord", "v"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = con.sql(
        rolling_agg_range_sql("t", "k", "ord", "v", preceding=25)
        + " ORDER BY k, ord, v"
    ).df()
    # ord collides within (k, ord) pairs only when v also ties -> rows
    # identical; frame columns are peer-invariant so the sort is stable
    # enough for comparison
    cols = ["k", "ord", "v", "roll_sum", "roll_n", "roll_mean"]
    pd.testing.assert_frame_equal(got[cols], want[cols], check_dtype=False)


@pytest.mark.parametrize("frame", ["expanding", "rows-2", "range"])
def test_float_roll_sum_ignores_other_keys_in_bucket(ray_session, frame):
    """A float roll_sum restarts at each key run: with every key in one
    bucket, key b's rows come out the same whether or not a key with
    huge values sorts before it (one cumsum over the bucket would lose
    b's small values in a's rounding)."""
    import ray.data as rd

    from logray.stages.windowfn import rolling_agg, rolling_agg_range

    a = pd.DataFrame({"k": ["a", "a"], "t": [1, 2], "v": [1e20, 1e20]})
    b = pd.DataFrame({"k": ["b", "b"], "t": [3, 4], "v": [1.0, 2.0]})

    def b_rows(df):
        ds = rd.from_pandas(df)
        if frame == "range":
            out = rolling_agg_range(ds, "k", "t", "v", preceding=10,
                                    num_buckets=1)
        else:
            out = rolling_agg(ds, "k", "t", "v",
                              window=None if frame == "expanding" else 2,
                              num_buckets=1)
        out = out.to_pandas()
        return out[out["k"] == "b"].sort_values("t").reset_index(drop=True)

    alone = b_rows(b)
    pd.testing.assert_frame_equal(b_rows(pd.concat([a, b])), alone)
    assert alone["roll_sum"].tolist() == [1.0, 3.0]


def test_rolling_agg_range_rejects_non_integer_order(ray_session):
    import pytest
    import ray.data as rd

    from logray.stages.windowfn import rolling_agg_range

    t = pa.table(
        {
            "k": pa.array([1, 1], pa.int64()),
            "ord": pa.array([1.0, 2.0], pa.float64()),
            "v": pa.array([1, 2], pa.int64()),
        }
    )
    with pytest.raises(Exception):
        rolling_agg_range(rd.from_arrow(t), "k", "ord", "v",
                          preceding=1, num_buckets=2).to_pandas()


def test_value_window_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.windowfn import value_window, value_window_sql

    t = _windowfn_fixture()
    got = (
        value_window(rd.from_arrow(t).repartition(7), "k", "ord", "v",
                     nth=3, tiebreak_col="id", num_buckets=8)
        .to_pandas()
        .sort_values(["k", "ord", "id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = con.sql(
        value_window_sql("t", "k", "ord", "v", nth=3, tiebreak_col="id")
        + " ORDER BY k, ord, id"
    ).df()
    cols = ["k", "ord", "id", "v", "first_v", "last_v", "nth_v"]
    pd.testing.assert_frame_equal(got[cols], want[cols])


def test_value_window_strings_and_short_runs(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from logray.stages.windowfn import value_window

    t = pa.table(
        {
            "k": pa.array(["a", "a", "b", "c", "c", "c"]),
            "ord": pa.array([2, 1, 5, 1, 2, 3], pa.int64()),
            "s": pa.array(["x", "y", "z", "p", "q", "r"]),
        }
    )
    got = (
        value_window(rd.from_arrow(t), "k", "ord", "s", nth=2, num_buckets=4)
        .to_pandas()
        .sort_values(["k", "ord"])
        .reset_index(drop=True)
    )
    assert got["first_s"].tolist() == ["y", "y", "z", "p", "p", "p"]
    assert got["last_s"].tolist() == ["x", "x", "z", "r", "r", "r"]
    # nth=2: key a -> 'x', single-row key b -> null, key c -> 'q'
    assert got["nth_s"].tolist() == ["x", "x", None, "q", "q", "q"]


def test_global_rank_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.stages.windowfn import global_rank, global_rank_sql

    rng = np.random.default_rng(16)
    n = 5000
    # tiny value domain -> tie runs straddle many block boundaries
    df = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "v": rng.integers(0, 40, n),
        }
    )
    got = (
        global_rank(rd.from_pandas(df).repartition(11), "v", "id")
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        global_rank_sql("t", "v", "id", cols="id, v") + " ORDER BY id"
    ).df()
    cols = ["id", "v", "row_num", "rnk", "pct_rank"]
    pd.testing.assert_frame_equal(
        got[cols], want[cols], check_dtype=False
    )


def test_global_rank_hot_tie_straddles_blocks(ray_session):
    """Half the rows share one score, so its tie run spans many sorted
    blocks: every row of it keeps the run's one rank, and row numbers
    stay global."""
    import numpy as np
    import ray.data as rd

    from logray.stages.windowfn import global_rank

    rng = np.random.default_rng(5)
    n = 5000
    df = pd.DataFrame({
        "id": rng.permutation(n).astype(np.int64),
        "v": np.where(rng.random(n) < 0.5, 500,
                      rng.integers(0, 1000, n)).astype(np.int64)})
    got = (global_rank(rd.from_pandas(df).repartition(17), "v", "id")
           .to_pandas().sort_values("id").reset_index(drop=True))
    want = df.sort_values("id").reset_index(drop=True)
    order = np.lexsort((want["id"], want["v"]))
    row_num = np.empty(n, np.int64)
    row_num[order] = np.arange(1, n + 1)
    rnk = want["v"].rank(method="min").astype(np.int64).to_numpy()
    assert got["row_num"].tolist() == row_num.tolist()
    assert got["rnk"].tolist() == rnk.tolist()
    assert got["pct_rank"].tolist() == ((rnk - 1) / (n - 1)).tolist()
    # the hot tie really straddles blocks: more rows than one block
    assert (want["v"] == 500).sum() > 3 * n / 17


def test_global_rank_single_row_and_all_ties(ray_session):
    import ray.data as rd

    from logray.stages.windowfn import global_rank

    one = global_rank(rd.from_items([{"id": 1, "v": 5}]), "v", "id").to_pandas()
    assert one["row_num"].item() == 1 and one["rnk"].item() == 1
    assert one["pct_rank"].item() == 0.0

    ties = pd.DataFrame({"id": range(6), "v": [7] * 6})
    got = (
        global_rank(rd.from_pandas(ties).repartition(3), "v", "id")
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    assert got["rnk"].tolist() == [1] * 6
    assert got["row_num"].tolist() == [1, 2, 3, 4, 5, 6]
    assert (got["pct_rank"] == 0.0).all()


def test_global_rank_preserves_full_range_int64(ray_session):
    """Payload int64 columns past 2^53 ride through the join-back
    byte-exactly — the Arrow per-bucket merge never NaN-pads them
    through float64 (which silently rounds full-range hash/id values)."""
    import numpy as np
    import ray.data as rd

    from logray.stages.windowfn import global_rank

    big = 2**53 + 1
    df = pd.DataFrame({
        "id": np.arange(8, dtype=np.int64),
        "v": np.arange(8, dtype=np.int64) % 3,
        "h": np.arange(big, big + 16, 2, dtype=np.int64),
    })
    got = (
        global_rank(rd.from_pandas(df).repartition(3), "v", "id")
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    assert got["h"].dtype == np.int64
    assert got["h"].tolist() == df["h"].tolist()


def test_global_rank_duplicate_id_raises(ray_session):
    """A non-unique id_col raises in the join-back (1:1 guard) instead
    of silently emitting multiplied, mis-ranked rows."""
    import ray.data as rd

    from logray.stages.windowfn import global_rank

    df = pd.DataFrame({"id": [1, 2, 2, 3], "v": [10, 20, 30, 40]})
    with pytest.raises(Exception, match="not unique|1:1"):
        global_rank(rd.from_pandas(df), "v", "id").materialize()


def test_global_rank_sorts_only_the_narrow_projection(ray_session,
                                                      monkeypatch):
    """The sort-materialized working set is the two-column (col, id)
    projection, never the full-width corpus (the 100-TB object-store
    pin the round-3 design had); extra columns come back via the
    join-back and survive byte-identically."""
    import numpy as np
    import ray.data as rd

    from logray.stages.windowfn import _rank_table, global_rank

    # the bucket exchange (bucketing.bucket_exchange) inside the join-back
    # issues its own internal sort — the scale claim
    # is about the VALUE sort that gets .materialize()d, so the spy
    # records only sorts keyed on the rank columns
    sorted_widths = []
    orig = rd.Dataset.sort

    def spy(self, key=None, *a, **k):
        if key == ["v", "id"]:
            sorted_widths.append(len(self.schema().names))
        return orig(self, key, *a, **k)

    monkeypatch.setattr(rd.Dataset, "sort", spy)
    rng = np.random.default_rng(7)
    df = pd.DataFrame({
        "id": np.arange(300, dtype=np.int64),
        "v": rng.integers(0, 9, 300),
        "payload": [f"wide-column-{i}" for i in range(300)],
    })
    got = (
        global_rank(rd.from_pandas(df).repartition(5), "v", "id")
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    assert sorted_widths == [2]  # ONE sort, two columns through it
    order = np.lexsort((df["id"], df["v"]))
    rn = np.empty(300, np.int64)
    rn[order] = np.arange(1, 301)
    assert (got["row_num"].to_numpy() == rn).all()
    assert (got["rnk"].to_numpy()
            == df["v"].rank(method="min").astype(np.int64).to_numpy()).all()
    assert got["payload"].tolist() == df["payload"].tolist()
    # the rank table itself is narrow and refuses a wide input
    rt, rt_total = _rank_table(rd.from_pandas(df[["v", "id"]]), "v", "id")
    assert set(rt.schema().names) == {"id", "row_num", "rnk", "pct_rank"}
    assert rt_total == 300
    with pytest.raises(ValueError):
        _rank_table(rd.from_pandas(df), "v", "id")


def test_fill_forward_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.windowfn import fill_forward, fill_forward_sql

    t = _windowfn_fixture()
    # punch nulls into v so there is something to fill
    df = t.to_pandas()
    df.loc[df["v"] % 3 != 0, "v"] = None
    got = (
        fill_forward(rd.from_pandas(df).repartition(7), "k", "ord", "v",
                     tiebreak_col="id", num_buckets=8)
        .to_pandas()
        .sort_values(["k", "ord", "id"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        fill_forward_sql("t", "k", "ord", "v", tiebreak_col="id")
        + " ORDER BY k, ord, id"
    ).df()
    cols = ["k", "ord", "id", "ff_v"]
    pd.testing.assert_frame_equal(got[cols], want[cols])
    # rows before a run's first non-null value must stay null
    assert got["ff_v"].isna().any()


def test_fill_forward_strings_and_leading_nulls(ray_session):
    import ray.data as rd

    from logray.stages.windowfn import fill_forward

    t = pa.table(
        {
            "k": pa.array(["a", "a", "a", "b", "b"]),
            "ord": pa.array([1, 2, 3, 1, 2], pa.int64()),
            "s": pa.array([None, "x", None, None, None]),
        }
    )
    got = (
        fill_forward(rd.from_arrow(t), "k", "ord", "s", num_buckets=4)
        .to_pandas()
        .sort_values(["k", "ord"])
        .reset_index(drop=True)
    )
    assert got["ff_s"].tolist() == [None, "x", "x", None, None]


def _sequence_fixture():
    rng = np.random.default_rng(61)
    n = 2500
    types = np.array(["signup", "view", "click", "purchase", "error"])
    return pd.DataFrame(
        {
            "user_id": rng.integers(0, 60, n),
            "ts": (np.datetime64("2026-01-01", "us")
                   + rng.integers(0, 40 * 86_400_000_000, n)
                   .astype("timedelta64[us]")),
            "event_id": np.arange(n, dtype=np.int64),
            "event_type": types[rng.integers(0, 5, n)],
        }
    )


def test_transition_counts_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import transition_counts, transition_counts_sql

    df = _sequence_fixture()
    got = (
        transition_counts(rd.from_pandas(df).repartition(7), "user_id", "ts",
                          "event_type", tiebreak_col="event_id", num_buckets=8)
        .sort_values(["from_val", "to_val"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        transition_counts_sql("t", "user_id", "ts", "event_type",
                              tiebreak_col="event_id")
        + " ORDER BY from_val, to_val"
    ).df()
    pd.testing.assert_frame_equal(got, want)
    # transitions = rows minus one per user (no cross-user bigrams)
    assert got["n"].sum() == len(df) - df["user_id"].nunique()


def test_transition_counts_skew_safe_hot_key(ray_session):
    """A pathologically hot key (half of all rows) breaks the one-
    bucket-per-key memory model; the skew_safe sorted-block plan splits
    it across bounded blocks and must produce IDENTICAL output (bucket
    plan, sorted plan, DuckDB — all three equal)."""
    import duckdb
    import ray.data as rd

    from logray.stages.bucketing import bucket_sizes
    from logray.stages.sequence import transition_counts, transition_counts_sql

    rng = np.random.default_rng(23)
    n = 6000
    users = np.where(rng.random(n) < 0.5, 0,
                     rng.integers(1, 400, n)).astype(np.int64)
    df = pd.DataFrame({
        "user_id": users,
        "ts": np.arange(n, dtype=np.int64),  # unique -> deterministic ties
        "event_type": np.array(list("abcd"))[rng.integers(0, 4, n)],
    })
    ds = rd.from_pandas(df).repartition(16)
    # the diagnostic SHOWS the skew: one bucket holds >= the hot mass
    sizes = bucket_sizes(ds, "user_id", num_buckets=8)
    hot = int((users == 0).sum())
    assert sizes.sum() == n and sizes.max() >= hot > n // 3

    kw = dict(tiebreak_col=None, num_buckets=8)
    for order in (1, 2):
        got_b = (transition_counts(ds, "user_id", "ts", "event_type",
                                   order=order, **kw)
                 .sort_values(_tc_names(order)).reset_index(drop=True))
        got_s = (transition_counts(ds, "user_id", "ts", "event_type",
                                   order=order, skew_safe=True, **kw)
                 .sort_values(_tc_names(order)).reset_index(drop=True))
        pd.testing.assert_frame_equal(got_s, got_b)
        con = duckdb.connect()
        con.register("t", df)
        want = con.sql(
            transition_counts_sql("t", "user_id", "ts", "event_type",
                                  order=order)
            + " ORDER BY " + ", ".join(_tc_names(order))).df()
        pd.testing.assert_frame_equal(got_s, want)


def _tc_names(order):
    from logray.stages.sequence import _transition_cols

    return _transition_cols(order)


def test_transition_counts_skew_safe_tiny_blocks(ray_session):
    """Blocks smaller than the window order force seam windows to span
    MULTIPLE blocks — the driver carry must bridge them."""
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import transition_counts, transition_counts_sql

    df = pd.DataFrame({
        "k": [1] * 9 + [2] * 3,
        "o": list(range(9)) + list(range(3)),
        "v": list("abcabcabc") + list("xyz"),
    })
    got = (transition_counts(rd.from_pandas(df).repartition(12), "k", "o",
                             "v", order=3, skew_safe=True, num_buckets=4)
           .sort_values(_tc_names(3)).reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(transition_counts_sql("t", "k", "o", "v", order=3)
                   + " ORDER BY " + ", ".join(_tc_names(3))).df()
    pd.testing.assert_frame_equal(got, want)
    assert got["n"].sum() == 6  # 9-3 windows in k=1, none in k=2


def test_funnel_hot_key_prune(ray_session):
    """A hot key dominated by NON-stage events must not inflate its
    bucket: the prune ships stage rows + one sentinel per key, and the
    result still matches DuckDB (including all-non-stage keys -> 0)."""
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import funnel, funnel_sql

    rng = np.random.default_rng(31)
    rows = [(0, i, "noise") for i in range(5000)]  # hot key, no stages...
    rows += [(0, 5001, "signup"), (0, 5002, "purchase")]  # ...then 2
    for u in range(1, 60):
        for j, ev in enumerate(rng.permutation(
                ["signup", "view", "click", "noise", "purchase"])):
            rows.append((u, j, ev))
    rows.append((99, 0, "noise"))  # never enters the funnel
    df = pd.DataFrame(rows, columns=["user_id", "o", "event_type"])
    stages = ["signup", "click", "purchase"]
    got = (funnel(rd.from_pandas(df).repartition(8), "user_id", "o",
                  "event_type", stages, num_buckets=4)
           .sort_values("user_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(funnel_sql("t", "user_id", "o", "event_type", stages)
                   + " ORDER BY user_id").df()
    pd.testing.assert_frame_equal(got, want)
    assert got.loc[got.user_id == 0, "stage_reached"].item() == 1
    assert got.loc[got.user_id == 99, "stage_reached"].item() == 0


def test_funnel_matches_duckdb_and_is_order_sensitive(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import funnel, funnel_sql

    # sparse per-user sequences so stage_reached actually varies
    rows = [
        (1, 1, "signup"), (1, 2, "click"), (1, 3, "purchase"),   # full: 3
        (2, 1, "click"), (2, 2, "signup"),                       # order: 1
        (3, 1, "signup"),                                        # 1
        (4, 1, "view"),                                          # 0
        (5, 5, "signup"), (5, 5, "click"),                       # tie: strict > fails -> 1
        (6, 1, "signup"), (6, 2, "click"), (6, 2, "purchase"),   # 2 (tie at stage 3)
    ]
    df = pd.DataFrame(rows, columns=["user_id", "o", "event_type"])
    stages = ["signup", "click", "purchase"]
    got = (
        funnel(rd.from_pandas(df).repartition(4), "user_id", "o",
               "event_type", stages, num_buckets=4)
        .sort_values("user_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        funnel_sql("t", "user_id", "o", "event_type", stages)
        + " ORDER BY user_id"
    ).df()
    pd.testing.assert_frame_equal(got, want)
    assert got["stage_reached"].tolist() == [3, 1, 1, 0, 1, 2]

    # and on the random fixture
    df2 = _sequence_fixture()
    got2 = (
        funnel(rd.from_pandas(df2).repartition(7), "user_id", "ts",
               "event_type", stages, num_buckets=8)
        .sort_values("user_id").reset_index(drop=True)
    )
    con.register("t2", df2)
    want2 = con.sql(
        funnel_sql("t2", "user_id", "ts", "event_type", stages)
        + " ORDER BY user_id"
    ).df()
    pd.testing.assert_frame_equal(got2, want2)


def test_cohort_retention_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import cohort_retention, cohort_retention_sql

    df = _sequence_fixture()
    got = (
        cohort_retention(rd.from_pandas(df).repartition(7), "user_id", "ts",
                         num_buckets=8)
        .sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        cohort_retention_sql("t", "user_id", "ts")
        + " ORDER BY cohort_day, day_offset"
    ).df()
    pd.testing.assert_frame_equal(got, want)
    # day 0 of each cohort contains every key of that cohort exactly once
    day0 = got[got.day_offset == 0]["n"].sum()
    assert day0 == df["user_id"].nunique()


def test_trailing_active_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import trailing_active, trailing_active_sql

    df = _sequence_fixture()
    con = duckdb.connect()
    con.register("t", df)
    for w in (1, 7):
        got = (
            trailing_active(rd.from_pandas(df).repartition(7), "user_id",
                            "ts", window_days=w, num_buckets=8)
            .sort_values("day").reset_index(drop=True)
        )
        want = con.sql(
            trailing_active_sql("t", "user_id", "ts", window_days=w)
            + " ORDER BY day"
        ).df()
        pd.testing.assert_frame_equal(got, want)
    # window=1 is exactly daily-active; n never exceeds total keys
    assert got["n"].max() <= df["user_id"].nunique()


def test_merge_intervals_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import merge_intervals, merge_intervals_sql

    rng = np.random.default_rng(83)
    n = 2000
    s = rng.integers(0, 10_000, n)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 30, n),
            "s": s,
            "e": s + rng.integers(1, 40, n),  # overlap-heavy
        }
    )
    df.loc[0, "e"] = None  # dropped on both sides
    got = (
        merge_intervals(rd.from_pandas(df).repartition(7), "k", "s", "e",
                        num_buckets=8)
        .sort_values(["k", "start"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        merge_intervals_sql("t", "k", "s", "e") + " ORDER BY k, start"
    ).df()
    pd.testing.assert_frame_equal(got, want)
    # islands cover all surviving rows and never overlap within a key
    assert got["n_merged"].sum() == len(df) - 1
    nxt = got.groupby("k")["start"].shift(-1)
    assert ((nxt.isna()) | (nxt > got["end"])).all()


def test_merge_intervals_touching_is_merged_only_on_overlap(ray_session):
    import ray.data as rd

    from logray.stages.sequence import merge_intervals

    # start == running end merges (s > prev_max is false); gap of 1 splits
    df = pd.DataFrame({"k": [1, 1, 1], "s": [0, 10, 21], "e": [10, 20, 30]})
    got = (
        merge_intervals(rd.from_pandas(df), "k", "s", "e", num_buckets=2)
        .sort_values("start").reset_index(drop=True)
    )
    assert got[["start", "end", "n_merged"]].values.tolist() == [
        [0, 20, 2], [21, 30, 1]]


def test_dialogue_pairs_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import dialogue_pairs, dialogue_pairs_sql

    rng = np.random.default_rng(97)
    n = 1500
    roles = np.array(["user", "assistant", "tool", "system"])
    df = pd.DataFrame(
        {
            "conv_id": rng.integers(0, 40, n).astype(str),
            "turn_idx": np.zeros(n, np.int64),
            "role": roles[rng.integers(0, 4, n)],
            "text": [f"t{i}" for i in range(n)],
        }
    )
    df["turn_idx"] = df.groupby("conv_id").cumcount()
    got = (
        dialogue_pairs(rd.from_pandas(df).repartition(7), num_buckets=8)
        .to_pandas().sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        dialogue_pairs_sql("t") + " ORDER BY conv_id, turn_idx"
    ).df()
    pd.testing.assert_frame_equal(got, want)
    # a pair is emitted only at user->assistant adjacency; responses are
    # always the literal next turn
    assert len(got) > 0
    m = df.set_index(["conv_id", "turn_idx"])
    for _, r in got.head(20).iterrows():
        assert m.loc[(r.conv_id, r.turn_idx), "role"] == "user"
        assert m.loc[(r.conv_id, r.turn_idx + 1), "text"] == r.response


def test_funnel_float_order_column(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import funnel, funnel_sql

    # float order values inside the same unit interval: int truncation
    # would collapse them and break the strictly-after rule
    df = pd.DataFrame({
        "k": [1, 1, 1],
        "o": [1.2, 1.8, 2.5],
        "v": ["signup", "click", "purchase"],
    })
    got = funnel(rd.from_pandas(df), "k", "o", "v",
                 ["signup", "click", "purchase"], num_buckets=2)
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(funnel_sql("t", "k", "o", "v",
                              ["signup", "click", "purchase"])).df()
    assert got["stage_reached"].tolist() == [3]
    assert want["stage_reached"].tolist() == [3]


def test_transition_counts_null_values_match_sql(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import transition_counts, transition_counts_sql

    df = pd.DataFrame({"k": [1, 1, 1, 1], "o": [1, 2, 3, 4],
                       "v": ["a", None, "b", "b"]})
    got = (
        transition_counts(rd.from_pandas(df), "k", "o", "v", num_buckets=2)
        .sort_values(["from_val", "to_val"], na_position="last")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(transition_counts_sql("t", "k", "o", "v")
                   + " ORDER BY from_val, to_val NULLS LAST").df()
    pd.testing.assert_frame_equal(got, want)
    # null FROM rows dropped; null TO kept (a -> NULL)
    assert len(got) == 2


def test_cohort_retention_null_ts_dropped_like_sql(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import cohort_retention, cohort_retention_sql

    df = _sequence_fixture().head(200).copy()
    df.loc[df.index[:20], "ts"] = pd.NaT
    got = (
        cohort_retention(rd.from_pandas(df), "user_id", "ts", num_buckets=4)
        .sort_values(["cohort_day", "day_offset"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(cohort_retention_sql("t", "user_id", "ts")
                   + " ORDER BY cohort_day, day_offset").df()
    pd.testing.assert_frame_equal(got, want)


def test_rate_limit_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import rate_limit, rate_limit_sql

    df = _sequence_fixture()
    got = (
        rate_limit(rd.from_pandas(df).repartition(7), "user_id", "ts",
                   3600.0, 2, tiebreak_col="event_id", num_buckets=8)
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        rate_limit_sql("t", "user_id", "ts", 3600.0, 2,
                       tiebreak_col="event_id",
                       cols="user_id, ts, event_id, event_type")
        + " ORDER BY event_id"
    ).df()
    cols = ["user_id", "ts", "event_id", "event_type"]
    pd.testing.assert_frame_equal(got[cols], want[cols])
    # no (user, hour window) exceeds the cap
    w = (got["ts"].to_numpy().astype("datetime64[us]").view("int64")
         // 3_600_000_000)
    assert got.assign(w=w).groupby(["user_id", "w"]).size().max() <= 2


def test_dedup_consecutive_matches_duckdb_and_null_runs(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import dedup_consecutive, dedup_consecutive_sql

    df = pd.DataFrame({
        "k": [1, 1, 1, 1, 1, 2, 2],
        "o": [1, 2, 3, 4, 5, 1, 2],
        "v": ["a", "a", None, None, "a", "x", "x"],
    })
    got = (
        dedup_consecutive(rd.from_pandas(df), "k", "o", "v", num_buckets=4)
        .to_pandas().sort_values(["k", "o"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        dedup_consecutive_sql("t", "k", "o", "v", cols="k, o, v")
        + " ORDER BY k, o"
    ).df()
    pd.testing.assert_frame_equal(got, want)
    # a,a,NULL,NULL,a -> a,NULL,a (null==null collapses); x,x -> x
    assert got["o"].tolist() == [1, 3, 5, 1]


def test_ewma_matches_recurrence_and_is_partition_invariant(ray_session):
    import ray.data as rd

    from logray.stages.windowfn import ewma

    t = _windowfn_fixture()
    df = t.to_pandas()
    alpha = 0.3
    outs = []
    for parts in (3, 9):
        got = (
            ewma(rd.from_pandas(df).repartition(parts), "k", "ord", "v",
                 alpha, tiebreak_col="id", num_buckets=8)
            .to_pandas().sort_values(["k", "ord", "id"])
            .reset_index(drop=True)
        )
        outs.append(got["ewma_v"].to_numpy())
    np.testing.assert_array_equal(outs[0], outs[1])

    # explicit recurrence, evaluated in the same (k, ord, id) order
    want = []
    state = {}
    for _, r in df.sort_values(["k", "ord", "id"]).iterrows():
        prev = state.get(r["k"])
        y = float(r["v"]) if prev is None \
            else (1 - alpha) * prev + alpha * float(r["v"])
        state[r["k"]] = y
        want.append(y)
    np.testing.assert_allclose(outs[0], np.array(want), rtol=0, atol=0)

    import pytest
    with pytest.raises(ValueError):
        ewma(rd.from_pandas(df), "k", "ord", "v", alpha=0.0)


def test_rolling_median_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.windowfn import rolling_median, rolling_median_sql

    t = _windowfn_fixture()
    df = t.to_pandas()
    df.loc[df.index[:15], "v"] = None  # nulls skipped inside the frame
    got = (
        rolling_median(rd.from_pandas(df).repartition(7), "k", "ord", "v",
                       window=4, tiebreak_col="id", num_buckets=8)
        .to_pandas().sort_values(["k", "ord", "id"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        rolling_median_sql("t", "k", "ord", "v", window=4,
                           tiebreak_col="id") + " ORDER BY k, ord, id"
    ).df()
    cols = ["k", "ord", "id", "rmed_v"]
    pd.testing.assert_frame_equal(got[cols], want[cols])
    import pytest
    with pytest.raises(ValueError):
        rolling_median(rd.from_pandas(df), "k", "ord", "v", window=0)


def test_ewma_null_values_propagate_previous(ray_session):
    import ray.data as rd

    from logray.stages.windowfn import ewma

    df = pd.DataFrame({"k": [1, 1, 1], "o": [1, 2, 3],
                       "v": [10.0, None, 20.0]})
    got = (
        ewma(rd.from_pandas(df), "k", "o", "v", alpha=0.2, num_buckets=2)
        .to_pandas().sort_values("o").reset_index(drop=True)
    )
    # documented recurrence: null keeps y; next = 0.8*10 + 0.2*20 = 12.0
    assert got["ewma_v"].tolist() == [10.0, 10.0, 12.0]


def test_rate_limit_rejects_bad_window(ray_session):
    import pytest
    import ray.data as rd

    from logray.stages.sequence import rate_limit

    df = pd.DataFrame({"k": [1], "ts": pd.to_datetime(["2026-01-01"])})
    with pytest.raises(ValueError):
        rate_limit(rd.from_pandas(df), "k", "ts", 0.0, 3)


def test_calendar_window_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.window import calendar_window, calendar_window_sql

    df = _sequence_fixture()
    con = duckdb.connect()
    con.register("t", df)
    for unit in ("week", "month", "year"):
        got = (
            calendar_window(rd.from_pandas(df).repartition(7), "ts", unit,
                            "event_type")
            .sort_values(["win_start", "event_type"]).reset_index(drop=True)
        )
        want = con.sql(
            calendar_window_sql("t", "ts", unit, "event_type")
            + " ORDER BY win_start, event_type"
        ).df()
        pd.testing.assert_frame_equal(got, want)
        if unit == "week":  # weeks start on Monday on both sides
            assert (got["win_start"].dt.dayofweek == 0).all()
    import pytest
    with pytest.raises(ValueError):
        calendar_window(rd.from_pandas(df), "ts", "fortnight")


def test_transition_counts_order2_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import transition_counts, transition_counts_sql

    df = _sequence_fixture()
    df.loc[df.index[:30], "event_type"] = None  # null windows drop
    got = (
        transition_counts(rd.from_pandas(df).repartition(7), "user_id", "ts",
                          "event_type", tiebreak_col="event_id",
                          num_buckets=8, order=2)
        .sort_values(["from_2", "from_val", "to_val"], na_position="last")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        transition_counts_sql("t", "user_id", "ts", "event_type",
                              tiebreak_col="event_id", order=2)
        + " ORDER BY from_2, from_val, to_val NULLS LAST"
    ).df()
    pd.testing.assert_frame_equal(got, want)
    assert list(got.columns) == ["from_2", "from_val", "to_val", "n"]
    import pytest
    with pytest.raises(ValueError):
        transition_counts(rd.from_pandas(df), "user_id", "ts",
                          "event_type", order=0)


def test_lateness_matches_duckdb_and_flags_disorder(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import lateness, lateness_sql

    df = _sequence_fixture()
    df["arrival"] = (df["event_id"] * 2654435761) % (1 << 32)  # scramble
    got = (
        lateness(rd.from_pandas(df).repartition(7), "user_id", "arrival",
                 "ts", num_buckets=8)
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        lateness_sql("t", "user_id", "arrival", "ts",
                     cols="user_id, ts, event_id, event_type, arrival")
        + " ORDER BY event_id"
    ).df()
    cols = ["user_id", "event_id", "late_us"]
    pd.testing.assert_frame_equal(got[cols], want[cols])
    assert (got["late_us"] >= 0).all()
    assert (got["late_us"] > 0).any()  # scrambled arrival IS out of order


def test_lateness_null_ts_dropped_like_sql(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.sequence import lateness, lateness_sql

    df = _sequence_fixture().head(100).copy()
    df["arrival"] = df["event_id"]
    df.loc[df.index[:10], "ts"] = pd.NaT
    got = (
        lateness(rd.from_pandas(df), "user_id", "arrival", "ts",
                 num_buckets=4)
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        lateness_sql("t", "user_id", "arrival", "ts",
                     cols="user_id, ts, event_id, event_type, arrival")
        + " ORDER BY event_id"
    ).df()
    pd.testing.assert_frame_equal(
        got[["user_id", "event_id", "late_us"]],
        want[["user_id", "event_id", "late_us"]])
    assert len(got) == 90  # null-ts rows dropped on both sides


def test_global_rank_pandas_blocks_string_payload(ray_session):
    """A from_pandas dataset with a string payload column must take the
    Arrow join path (block normalization), not the pandas fallback: int64
    payloads past 2^53 stay exact, row_num/rnk stay int64, and a
    duplicated id still raises."""
    import pandas as pd
    import ray.data as rd

    from logray.stages.windowfn import global_rank

    big = 2**53 + 1
    df = pd.DataFrame({
        "id": [1, 2, 3],
        "score": [0.5, 0.1, 0.9],
        "text": ["a", "b", "c"],
        "h": [big, big + 2, big + 4],
    })
    out = (global_rank(rd.from_pandas(df).repartition(2), "score", "id")
           .to_pandas().sort_values("id").reset_index(drop=True))
    assert out["h"].tolist() == [big, big + 2, big + 4]
    assert str(out["row_num"].dtype) == "int64"
    assert str(out["rnk"].dtype) == "int64"
    assert out["rnk"].tolist() == [2, 1, 3]

    dup = pd.DataFrame({"id": [1, 1, 2], "score": [0.1, 0.2, 0.3],
                        "text": ["x", "y", "z"]})
    with pytest.raises(Exception, match="not unique|1:1"):
        global_rank(rd.from_pandas(dup), "score", "id").materialize()


def test_kth_smallest_pandas_string_blocks(ray_session):
    """kth_smallest on a from_pandas string column (object-dtype schema)
    routes through the ordered selector instead of crashing in the
    numeric bisection."""
    import pandas as pd
    import ray.data as rd

    from logray.stages.aggregate import kth_smallest

    ds = rd.from_pandas(pd.DataFrame({"v": list("dacbe")}))
    assert kth_smallest(ds, "v", 0) == "a"
    assert kth_smallest(ds, "v", 2) == "c"
    assert kth_smallest(ds, "v", 4) == "e"


def test_kth_smallest_nan_tail(ray_session):
    """NaN is a valid float that sorts LAST (numpy/DuckDB ORDER BY): a k
    inside the NaN tail returns NaN instead of crashing the bisection,
    k inside the finite range ignores NaNs, and nulls stay ignored."""
    import math

    import numpy as np
    import ray.data as rd

    from logray.stages.aggregate import kth_smallest

    vals = [3.0, float("nan"), 1.0, None, 2.0, float("nan")]
    ds = rd.from_arrow(pa.table({"v": pa.array(vals, pa.float64())}))
    assert kth_smallest(ds, "v", 0) == 1.0
    assert kth_smallest(ds, "v", 2) == 3.0
    assert math.isnan(kth_smallest(ds, "v", 3))
    assert math.isnan(kth_smallest(ds, "v", 4))
    assert kth_smallest(ds, "v", 5) is None  # past non-null range


def test_funnel_all_noise_batch_keeps_schema(ray_session):
    """A batch whose events are ALL outside the funnel (the exact skew
    case the prune targets) must emit the input schema, not a null-typed
    value column that forks the stream's blocks."""
    import numpy as np
    import ray.data as rd

    from logray.stages.sequence import funnel

    n = 200
    t1 = pa.table({
        "user_id": pa.array(np.arange(n) % 13, pa.int64()),
        "ts": pa.array(np.arange(n), pa.int64()),
        "event_type": pa.array(["noise"] * n),
    })
    t2 = pa.table({
        "user_id": pa.array([1, 1, 2], pa.int64()),
        "ts": pa.array([1000, 1001, 1002], pa.int64()),
        "event_type": pa.array(["view", "buy", "view"]),
    })
    ds = rd.from_arrow(t1).union(rd.from_arrow(t2))
    out = funnel(ds, "user_id", "ts", "event_type", ["view", "buy"],
                 num_buckets=4)
    out = (out.to_pandas() if hasattr(out, "to_pandas") else out) \
        .set_index("user_id")
    assert out.loc[1, "stage_reached"] == 2
    assert out.loc[2, "stage_reached"] == 1
    assert out.loc[0, "stage_reached"] == 0
    assert len(out) == 13


def test_interval_overlap_join_fast_path_and_fallback(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.join import interval_overlap_join

    rng = np.random.default_rng(5)
    n = 2000
    s = rng.integers(0, 10_000, n).astype("float64")
    e = s + rng.integers(0, 500, n)
    t = pa.table({"id": pa.array(np.arange(n, dtype=np.int64)),
                  "s": pa.array(s), "e": pa.array(e)})

    # disjoint (fast path, rows can span several intervals) AND
    # overlapping (per-interval mask fallback) vs the same SQL twin
    disjoint = pd.DataFrame({"win": ["a", "b", "c"],
                             "lo": [100.0, 600.0, 5_000.0],
                             "hi": [400.0, 900.0, 9_000.0]})
    overlapping = pd.DataFrame({"win": ["x", "y"],
                                "lo": [0.0, 200.0],
                                "hi": [600.0, 8_000.0]})
    con = duckdb.connect()
    con.register("t", t)
    for iv in (disjoint, overlapping):
        con.register("w", iv)
        want = (con.sql("SELECT id, win FROM t JOIN w ON s < hi AND e > lo")
                .df().sort_values(["id", "win"]).reset_index(drop=True))
        got = (interval_overlap_join(rd.from_arrow(t).repartition(3), iv,
                                     "s", "e")
               .to_pandas()[["id", "win"]]
               .sort_values(["id", "win"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_interval_overlap_join_left_and_nulls(ray_session):
    import ray.data as rd

    from logray.stages.join import interval_overlap_join

    t = pa.table({
        "id": pa.array([0, 1, 2], pa.int64()),
        "s": pa.array([0.0, 500.0, None], pa.float64()),
        "e": pa.array([50.0, 600.0, 700.0], pa.float64()),
    })
    iv = pd.DataFrame({"win": ["a"], "lo": [100.0], "hi": [550.0]})
    out = (interval_overlap_join(rd.from_arrow(t), iv, "s", "e", how="left")
           .to_pandas().sort_values("id").reset_index(drop=True))
    # id 0 ends before the window, id 2 has a null start: both unmatched
    assert out["win"].tolist() == [None, "a", None]
    import pytest

    with pytest.raises(ValueError, match="inner|left"):
        interval_overlap_join(rd.from_arrow(t), iv, "s", "e", how="outer")


def test_interval_overlap_join_nested_and_inverted_and_null_bounds(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.join import interval_overlap_join

    t = pa.table({"id": pa.array([0, 1, 2], pa.int64()),
                  "s": pa.array([7.0, 0.0, 25.0]),
                  "e": pa.array([8.0, 30.0, 26.0])})
    con = duckdb.connect()
    con.register("t", t)
    # nested (hi not ascending), inverted (hi <= lo), and a null bound:
    # all must fall back to the mask path and match the SQL twin
    cases = [
        pd.DataFrame({"win": ["outer", "inner"],
                      "lo": [0.0, 5.0], "hi": [100.0, 9.0]}),
        pd.DataFrame({"win": ["a", "inv"],
                      "lo": [0.0, 20.0], "hi": [10.0, 5.0]}),
        pd.DataFrame({"win": ["n"], "lo": [0.0], "hi": [None]}),
    ]
    for iv in cases:
        con.register("w", iv)
        want = (con.sql("SELECT id, win FROM t JOIN w ON s < hi AND e > lo")
                .df().sort_values(["id", "win"]).reset_index(drop=True))
        got = interval_overlap_join(rd.from_arrow(t), iv, "s", "e").to_pandas()
        if want.empty:
            # Ray's to_pandas drops column names when every block is empty
            assert len(got) == 0
            continue
        got = (got[["id", "win"]]
               .sort_values(["id", "win"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_interval_overlap_join_int_exact_and_collision(ray_session):
    import pytest
    import ray.data as rd

    from logray.stages.join import interval_overlap_join

    # int64 bounds above 2**53: must compare exactly (no float rounding)
    base = (1 << 53) + 0
    t = pa.table({"id": pa.array([0, 1], pa.int64()),
                  "s": pa.array([base, base + 2], pa.int64()),
                  "e": pa.array([base + 1, base + 3], pa.int64())})
    iv = pd.DataFrame({"win": ["w"], "lo": np.array([base + 1], "int64"),
                       "hi": np.array([base + 2], "int64")})
    out = interval_overlap_join(rd.from_arrow(t), iv, "s", "e").to_pandas()
    # [base, base+1) misses [base+1, base+2); float64 would round base+1
    # onto base and spuriously match (Ray's to_pandas drops column names
    # when every block is empty, so assert by length)
    assert len(out) == 0

    clash = pd.DataFrame({"win": ["w"], "lo": [0.0], "hi": [1.0],
                          "s": [9.9]})
    with pytest.raises(Exception, match="collide"):
        interval_overlap_join(
            rd.from_arrow(pa.table({"s": pa.array([0.5]),
                                    "e": pa.array([0.7])})),
            clash, "s", "e").to_pandas()


def test_resample_ohlc_null_tiebreak_ignored(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.window import resample_ohlc, resample_ohlc_sql

    ts = pd.to_datetime(["2024-01-01 00:00:01"] * 3)
    t = pa.table({
        "k": pa.array(["a", "a", "a"]),
        "ts": pa.array(ts, pa.timestamp("us")),
        "v": pa.array([1.0, 2.0, 3.0], pa.float64()),
        "id": pa.array([5, None, 1], pa.int64()),
    })
    con = duckdb.connect()
    con.register("t", t)
    want = con.sql(resample_ohlc_sql("t", "k", "ts", "v", "id", 3600.0)).df()
    got = resample_ohlc(rd.from_arrow(t), "k", ts_col="ts", val_col="v",
                        tiebreak_col="id", width_s=3600.0)
    pd.testing.assert_frame_equal(
        got[want.columns.tolist()].reset_index(drop=True), want,
        check_dtype=False)
    assert got["n"].tolist() == [2]          # null-tiebreak row dropped
    assert got["close"].tolist() == [1.0]    # max (ts, id) = id 5


def test_ewma_fixedpoint_matches_duckdb_exact(ray_session):
    """BIT-exact equality with DuckDB replaying the same int64
    recursion (recursive-CTE twin) — the gate-exact EWMA row."""
    import duckdb
    import ray.data as rd

    from logray.stages.windowfn import ewma_fixedpoint, ewma_fixedpoint_sql

    t = _windowfn_fixture()
    df = t.to_pandas()
    df["v"] = (df["v"] + 100).astype("float64") / 7.0  # non-negative
    for parts in (3, 9):
        got = (
            ewma_fixedpoint(rd.from_pandas(df).repartition(parts),
                            "k", "ord", "v", alpha_num=1, alpha_den=5,
                            tiebreak_col="id", num_buckets=8)
            .to_pandas().sort_values(["k", "ord", "id"])
            .reset_index(drop=True)
        )
        con = duckdb.connect()
        con.register("t", df)
        want = con.execute(
            ewma_fixedpoint_sql("(SELECT * FROM t) b0x", "k", "ord", "v",
                                alpha_num=1, alpha_den=5,
                                tiebreak_col="id")
            + " ORDER BY k, ord, id").fetchdf()
        assert got["k"].tolist() == want["k"].tolist()
        assert (got["ewma_fp_v"].to_numpy()
                == want["ewma_fp_v"].to_numpy()).all()
        assert list(got.columns) == list(want.columns)


def test_ewma_fixedpoint_matches_integer_recurrence(ray_session):
    import ray.data as rd

    from logray.stages.windowfn import ewma_fixedpoint

    t = _windowfn_fixture()
    df = t.to_pandas().head(400).copy()
    df["v"] = (df["v"] + 100).astype("float64") * 0.25
    got = (
        ewma_fixedpoint(rd.from_pandas(df), "k", "ord", "v",
                        alpha_num=2, alpha_den=7, tiebreak_col="id")
        .to_pandas().sort_values(["k", "ord", "id"])
        .reset_index(drop=True)
    )
    state: dict = {}
    want = []
    for _, r in df.sort_values(["k", "ord", "id"]).iterrows():
        x = int(np.floor(float(r["v"]) * 1e6 + 0.5))
        prev = state.get(r["k"])
        y = x if prev is None else (2 * x + 5 * prev) // 7
        state[r["k"]] = y
        want.append(y / 1e6)
    assert got["ewma_fp_v"].tolist() == want


def test_ewma_fixedpoint_guards(ray_session):
    import pytest
    import ray.data as rd

    from logray.stages.windowfn import ewma_fixedpoint

    df = pd.DataFrame({"k": [1, 1], "ord": [1, 2], "id": [1, 2],
                       "v": [1.0, -2.0]})
    with pytest.raises(ValueError, match="alpha_num"):
        ewma_fixedpoint(rd.from_pandas(df), "k", "ord", "v", 5, 5)
    with pytest.raises(Exception, match="negative"):
        ewma_fixedpoint(rd.from_pandas(df), "k", "ord", "v", 1, 5,
                        tiebreak_col="id").to_pandas()
    dfn = df.assign(v=[1.0, float("nan")])
    with pytest.raises(Exception, match="null"):
        ewma_fixedpoint(rd.from_pandas(dfn), "k", "ord", "v", 1, 5,
                        tiebreak_col="id").to_pandas()
