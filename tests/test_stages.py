"""Stage tests over the golden corpus embedded as a transcript table:
routing with the malformed-bypass policy (pinned per-sink counts from
/root/reference/tests/test_helpers.hpp:27-30), enrichment lookups,
aggregates, and search (mirrors test_find_next_occurence.cpp)."""

import pandas as pd
import pyarrow as pa
import pytest

from logray.filters import EvalContext
from logray.formats import GOLDEN_FORMAT, LineFormat
from logray.stages import (
    EnrichBatch,
    ParseBatch,
    Route,
    Router,
    find_next_occurrence,
    histogram,
    min_max,
    normalize_text,
    parse_stage,
    route_counts,
    route_datasets,
    route_exclusive,
    turns_per_conversation,
)

CTX = EvalContext(text_col="text", line_col="turn_idx")
FMT = LineFormat.from_format_string(GOLDEN_FORMAT)


@pytest.fixture(scope="module")
def golden_table(golden_lines):
    n = len(golden_lines)
    return pa.table(
        {
            "conv_id": ["golden-000"] * n,
            "turn_idx": pa.array(range(n), pa.int32()),
            "role": ["user" if i % 2 == 0 else "assistant" for i in range(n)],
            "text": golden_lines,
            "tool": [""] * n,
            "ts": pa.array([1_000_000 * i for i in range(n)], pa.timestamp("us")),
        }
    )


@pytest.fixture(scope="module")
def golden_ds(ray_session, golden_table):
    import ray.data as rd

    return rd.from_arrow(golden_table)


@pytest.fixture(scope="module")
def parsed_ds(golden_ds):
    return parse_stage(golden_ds, GOLDEN_FORMAT)


# ---------------------------------------------------------------------------
# Routing: pinned per-sink counts (test_helpers.hpp:27-30)
# ---------------------------------------------------------------------------


def test_route_view_counts(parsed_ds):
    router = Router(
        [
            Route.from_decl("info", "Level EQ INFO", FMT),
            Route.from_decl("info_with_bad", "Level EQ INFO", FMT, accept_bad_format=True),
            Route("all_well", None, accept_bad_format=False),
            Route("all_plus_bad", None, accept_bad_format=True),
        ],
        ctx=CTX,
    )
    views = route_datasets(parsed_ds, router)
    assert views["info"].count() == 10
    assert views["info_with_bad"].count() == 14  # 10 INFO + 4 malformed
    assert views["all_well"].count() == 58  # 62 - 4 malformed
    assert views["all_plus_bad"].count() == 62


def test_route_view_positions(parsed_ds):
    router = Router([Route.from_decl("info", "Level EQ INFO", FMT)], ctx=CTX)
    view = route_datasets(parsed_ds, router)["info"]
    turns = sorted(r["turn_idx"] for r in view.select_columns(["turn_idx"]).take_all())
    assert turns == [4, 12, 14, 20, 29, 36, 41, 49, 51, 57]


def test_route_exclusive_and_counts(parsed_ds):
    # priority routing: specific routes first, bad-format catcher last
    router = Router(
        [
            Route.from_decl("info", "Level EQ INFO", FMT),
            Route.from_decl("event", "Level EQ EVENT", FMT),
            Route("rest", None, accept_bad_format=True),
        ],
        ctx=CTX,
    )
    tagged = route_exclusive(parsed_ds, router)
    counts = route_counts(tagged)
    got = dict(zip(counts["route"], counts["n"]))
    assert got == {"info": 10, "event": 3, "rest": 49}  # 45 TRACE + 4 malformed


def test_malformed_bypass_policy(parsed_ds):
    # malformed rows bypass the filter: with accept_bad_format they pass even
    # a filter that matches nothing (filtered_file_reader.cpp:258-262)
    router = Router(
        [Route.from_decl("none_plus_bad", "Level EQ NOPE", FMT, accept_bad_format=True)],
        ctx=CTX,
    )
    view = route_datasets(parsed_ds, router)["none_plus_bad"]
    assert view.count() == 4


def test_line_number_filter_routing(parsed_ds):
    router = Router([Route.from_decl("mid", "line_num CT 10,20", FMT)], ctx=CTX)
    view = route_datasets(parsed_ds, router)["mid"]
    # lines 10..20 inclusive, all well-formatted in that range
    assert view.count() == 11


# ---------------------------------------------------------------------------
# Normalizer
# ---------------------------------------------------------------------------


def test_normalize_crlf(golden_lines):
    t = pa.table({"text": [l + "\r\n" for l in golden_lines[:5]] + [golden_lines[5] + "\n"]})
    out = normalize_text(t)
    assert out["text"].to_pylist() == golden_lines[:6]


# ---------------------------------------------------------------------------
# Enrichment
# ---------------------------------------------------------------------------


def test_enrich_batch():
    t = pa.table({"role": ["user", "assistant", "tool", "weird"], "tool": ["", "", "bash", "x"]})
    out = EnrichBatch()(t)
    assert out["role_class"].to_pylist() == ["human", "model", "machine", "unknown"]
    assert out["tool_kind"].to_pylist() == ["none", "none", "execution", "unknown"]


def test_enrich_with_objectref(ray_session):
    import ray

    ref = ray.put({"user": "HUMAN"})
    out = EnrichBatch({"rc": ("role", ref)})(pa.table({"role": ["user", "x"]}))
    assert out["rc"].to_pylist() == ["HUMAN", "unknown"]


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------


def test_histogram_and_turns(parsed_ds, golden_ds):
    h = histogram(parsed_ds, "Level")
    got = dict(zip(h["Level"], h["n"]))
    assert got[None] == 4  # malformed rows have null Level
    assert got["INFO"] == 10 and got["EVENT"] == 3 and got["TRACE"] == 45
    t = turns_per_conversation(golden_ds)
    assert t.iloc[0]["conv_id"] == "golden-000" and t.iloc[0]["n"] == 62


def test_min_max(golden_ds):
    lo, hi = min_max(golden_ds, "turn_idx")
    assert (lo, hi) == (0, 61)


def test_role_histogram(golden_ds):
    h = histogram(golden_ds, "role")
    got = dict(zip(h["role"], h["n"]))
    assert got == {"user": 31, "assistant": 31}


# ---------------------------------------------------------------------------
# Search (mirrors test_find_next_occurence.cpp)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def info_view(parsed_ds):
    router = Router([Route.from_decl("info", "Level EQ INFO", FMT)], ctx=CTX)
    return route_datasets(parsed_ds, router)["info"]


def test_search_forward(info_view):
    hit = find_next_occurrence(info_view, "Ioctl", with_local_ordinal=True)
    # first INFO line containing "Ioctl" is global line 20, the 4th INFO line
    assert hit["turn_idx"] == 20
    assert hit["local_ordinal"] == 3
    assert hit["char_pos"] > 0


def test_search_forward_from_position(info_view):
    hit = find_next_occurrence(info_view, "Ioctl", from_key=("golden-000", 20))
    assert hit["turn_idx"] == 36  # next Ioctl INFO line after 20 (exclusive)
    hit2 = find_next_occurrence(info_view, "Ioctl", from_key=("golden-000", 20), inclusive=True)
    assert hit2["turn_idx"] == 20


def test_search_backward(info_view):
    hit = find_next_occurrence(info_view, "Ioctl", from_key=("golden-000", 35), forward=False)
    assert hit["turn_idx"] == 20


def test_search_filtered_view_only(info_view, parsed_ds):
    # "constructing a PATH" exists in the raw corpus (TRACE line) but not in
    # the INFO view
    assert find_next_occurrence(info_view, "constructing a PATH") is None
    router = Router([Route("all", None)], ctx=CTX)
    allview = route_datasets(parsed_ds, router)["all"]
    assert find_next_occurrence(allview, "constructing a PATH") is not None


def test_search_miss_sentinel(info_view):
    assert find_next_occurrence(info_view, "NO SUCH NEEDLE") is None


def test_search_lastline(parsed_ds):
    router = Router([Route("all", None, accept_bad_format=True)], ctx=CTX)
    allview = route_datasets(parsed_ds, router)["all"]
    hit = find_next_occurrence(allview, "LASTLINE")
    assert hit["turn_idx"] == 61


def test_search_char_pos(info_view, golden_lines):
    hit = find_next_occurrence(info_view, "Ioctl")
    assert golden_lines[hit["turn_idx"]][hit["char_pos"]:].startswith("Ioctl")


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------


def test_broadcast_join(ray_session):
    import pandas as pd
    import ray
    import ray.data as rd

    from logray.stages.join import broadcast_join

    ds = rd.from_arrow(pa.table({"k": [1, 2, 3, 2], "v": ["a", "b", "c", "d"]}))
    dim = pd.DataFrame({"k": [1, 2], "name": ["one", "two"]})
    out = broadcast_join(ds, ray.put(dim), on="k").to_pandas().sort_values(["k", "v"])
    assert out["name"].tolist() == ["one", "two", "two"]


def test_hash_join_native_and_bucketed(ray_session):
    import ray.data as rd

    from logray.stages.join import _bucketed_join, hash_join

    left = rd.from_arrow(pa.table({"k": [1, 2, 3, 2, 5], "l": ["a", "b", "c", "d", "e"]}))
    right = rd.from_arrow(pa.table({"rk": [2, 3, 4], "r": ["x", "y", "z"]}))
    want = {(2, "b", "x"), (2, "d", "x"), (3, "c", "y")}

    native = hash_join(left, right, on="k", right_on="rk", num_partitions=2).to_pandas()
    got_native = {(row["k"], row["l"], row["r"]) for _, row in native.iterrows()}
    assert got_native == want

    manual = _bucketed_join(
        rd.from_arrow(pa.table({"k": [1, 2, 3, 2, 5], "l": ["a", "b", "c", "d", "e"]})),
        rd.from_arrow(pa.table({"rk": [2, 3, 4], "r": ["x", "y", "z"]})),
        ("k",), ("rk",), "inner", 4,
    ).to_pandas()
    got_manual = {(row["k"], row["l"], row["r"]) for _, row in manual.iterrows()}
    assert got_manual == want


def test_asof_join(ray_session):
    import numpy as np
    import ray.data as rd

    from logray.stages.join import asof_join

    left = rd.from_arrow(
        pa.table(
            {
                "user_id": pa.array([1, 1, 1, 2], pa.int64()),
                "ts": pa.array(
                    np.array(["2026-01-01T00:10", "2026-01-01T00:20", "2026-01-01T00:05",
                              "2026-01-01T00:10"], "datetime64[us]")
                ),
                "ev": ["a", "b", "c", "d"],
            }
        )
    )
    right = rd.from_arrow(
        pa.table(
            {
                "user_id": pa.array([1, 1, 2], pa.int64()),
                "ts": pa.array(
                    np.array(["2026-01-01T00:08", "2026-01-01T00:15", "2026-01-01T00:30"],
                             "datetime64[us]")
                ),
                "px": pa.array([100, 200, 300], pa.int64()),
            }
        )
    )
    out = asof_join(left, right, key="user_id").to_pandas().sort_values("ev")
    got = dict(zip(out["ev"], out["px"].astype("Int64")))
    # a(00:10)->100 (00:08), b(00:20)->200 (00:15), c(00:05)->null, d->null
    assert got["a"] == 100 and got["b"] == 200
    assert pd.isna(got["c"]) and pd.isna(got["d"])


def test_write_routes_views_mode(parsed_ds, tmp_path):
    """Overlapping-route fan-out via independent per-sink writes."""
    import ray.data as rd

    from logray.stages.route import write_routes

    router = Router(
        [
            Route.from_decl("info", "Level EQ INFO", FMT),
            Route.from_decl("info_dup", "Level EQ INFO", FMT),  # overlapping
        ],
        ctx=CTX,
    )
    paths = write_routes(parsed_ds, router, str(tmp_path), mode="views")
    assert set(paths) == {"info", "info_dup"}
    for p in paths.values():
        assert rd.read_parquet(p).count() == 10


def test_broadcast_join_left_and_arrow_native(ray_session):
    import pandas as pd
    import ray
    import ray.data as rd

    from logray.stages.join import broadcast_join

    ds = rd.from_arrow(pa.table({"k": [1, 2, 3, 2], "v": ["a", "b", "c", "d"]}))
    dim = pd.DataFrame({"k": [1, 2], "name": ["one", "two"]})
    out = broadcast_join(ds, ray.put(dim), on="k", how="left").to_pandas()
    out = out.sort_values(["k", "v"]).reset_index(drop=True)
    assert out["name"].where(out["name"].notna(), None).tolist() == [
        "one", "two", "two", None
    ]


def test_broadcast_semi_anti_join(ray_session):
    import ray.data as rd

    from logray.stages.join import broadcast_anti_join, broadcast_semi_join

    ds = rd.from_arrow(pa.table({"k": [1, 2, 3, 4, None], "v": list("abcde")}))
    keys = rd.from_arrow(pa.table({"k": [2, 4, 4, 9]}))
    semi = broadcast_semi_join(ds, keys, on="k").to_pandas()
    assert sorted(semi["v"]) == ["b", "d"]
    anti = broadcast_anti_join(ds, keys, on="k").to_pandas()
    # null keys drop in BOTH directions (SQL IN / NOT IN semantics)
    assert sorted(anti["v"]) == ["a", "c"]
    # list input works too
    semi2 = broadcast_semi_join(ds, [1], on="k").to_pandas()
    assert semi2["v"].tolist() == ["a"]


def test_grouped_quantiles_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.stages.aggregate import grouped_quantiles

    rng = np.random.default_rng(21)
    n = 4000
    t = pa.table(
        {
            "k": pa.array([f"g{i % 7}" for i in range(n)]),
            "v": pa.array(np.round(rng.standard_normal(n) * 50, 2)),
        }
    )
    got = (
        grouped_quantiles(rd.from_arrow(t).repartition(5), "k", "v", [0.0, 0.5, 0.9, 1.0])
        .to_pandas()
        .sort_values(["k", "q"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    for _, row in got.iterrows():
        want = con.sql(
            f"SELECT quantile_disc(v, {row['q']}) FROM t WHERE k = '{row['k']}'"
        ).fetchone()[0]
        assert row["value"] == want, (row["k"], row["q"])
    assert len(got) == 7 * 4


def test_topk_per_key_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.stages.aggregate import topk_per_key, topk_per_key_sql

    rng = np.random.default_rng(31)
    n = 3000
    t = pa.table(
        {
            "k": pa.array([f"g{i % 5}" for i in range(n)]),
            "id": pa.array(range(n), pa.int64()),
            "score": pa.array(rng.integers(0, 50, n), pa.int64()),  # many ties
        }
    )
    got = (
        topk_per_key(rd.from_arrow(t).repartition(7), "k", "score", 4,
                     descending=True, tiebreak_col="id")
        .to_pandas()
        .sort_values(["k", "score", "id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = (
        con.sql(topk_per_key_sql("t", "k", "score", 4, True, "id"))
        .df()
        .sort_values(["k", "score", "id"], ascending=[True, False, True])
        .reset_index(drop=True)
    )
    assert got[["k", "id", "score"]].equals(want[["k", "id", "score"]])
    assert len(got) == 20


def test_broadcast_join_rejects_right_outer(ray_session):
    # Per-batch right/full-outer against a broadcast side is wrong across
    # batches (unmatched small rows re-emitted per batch): must raise.
    import ray
    import ray.data as rd

    from logray.stages.join import broadcast_join

    ds = rd.from_items([{"k": 1, "v": 2}])
    dim = pd.DataFrame({"k": [1, 9], "name": ["a", "b"]})
    for how in ("right", "outer"):
        with pytest.raises(ValueError, match="hash_join"):
            broadcast_join(ds, ray.put(dim), on="k", how=how)


def test_grouped_quantiles_null_keys_pool(ray_session):
    # NaN keys must form ONE group (SQL GROUP BY), not one group per row.
    import ray.data as rd

    from logray.stages.aggregate import grouped_quantiles

    t = pa.table({
        "k": pa.array([1.0, None, 2.0, None, None, 1.0], pa.float64()),
        "v": pa.array([10.0, 5.0, 7.0, 1.0, 3.0, 20.0]),
    })
    got = (
        grouped_quantiles(rd.from_arrow(t).repartition(3), "k", "v", [0.5])
        .to_pandas()
    )
    nulls = got[got["k"].isna()]
    assert len(nulls) == 1          # one pooled null group
    assert nulls.iloc[0]["value"] == 3.0  # median of (1,3,5)
    assert len(got) == 3


def test_sessionize_null_keys_pool(ray_session):
    import ray.data as rd

    from logray.stages.window import sessionize

    ts = pd.to_datetime([
        "2024-01-01 00:00:00", "2024-01-01 00:10:00",
        "2024-01-01 03:00:00", "2024-01-01 00:05:00",
    ])
    t = pa.table({
        "k": pa.array([None, None, None, "a"], pa.string()),
        "ts": pa.array(ts, pa.timestamp("us")),
    })
    out = sessionize(rd.from_arrow(t).repartition(2), "k", "ts",
                     gap_s=1800.0).to_pandas()
    nulls = out[out["k"].isna()].sort_values("ts")
    # three null-key rows: first two within the gap -> session 0, the
    # 03:00 row breaks -> session 1 (NOT three independent session-0 rows)
    assert nulls["session_id"].tolist() == [0, 0, 1]


def test_pivot_agg_counts_and_sums_match_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.stages.aggregate import pivot_agg, pivot_agg_sql

    rng = np.random.default_rng(13)
    n = 5000
    t = pa.table(
        {
            "k": pa.array((rng.integers(0, 50, n)).astype("int64")),
            "cat": pa.array([["a", "b", "c"][i] for i in rng.integers(0, 3, n)]),
            "v": pa.array(rng.integers(-10, 100, n).astype("int64")),
        }
    )
    con = duckdb.connect()
    con.register("t", t.to_pandas())

    got = pivot_agg(rd.from_arrow(t).repartition(4), "k", "cat")
    want = con.sql(
        pivot_agg_sql("t", "k", "cat", pivot_values=["a", "b", "c"]) + " ORDER BY k"
    ).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    got_sum = pivot_agg(rd.from_arrow(t).repartition(4), "k", "cat", value_col="v")
    want_sum = con.sql(
        pivot_agg_sql("t", "k", "cat", value_col="v", pivot_values=["a", "b", "c"])
        + " ORDER BY k"
    ).df().reset_index(drop=True)
    pd.testing.assert_frame_equal(got_sum, want_sum, check_dtype=False)


def test_pivot_agg_fixed_schema_and_missing_values(ray_session):
    import ray.data as rd

    from logray.stages.aggregate import pivot_agg

    t = pa.table({"k": pa.array([1, 1, 2], pa.int64()),
                  "cat": pa.array(["a", "a", "b"])})
    out = pivot_agg(rd.from_arrow(t), "k", "cat", pivot_values=["a", "b", "z"])
    assert list(out.columns) == ["k", "n_a", "n_b", "n_z"]
    assert out["n_z"].tolist() == [0, 0]
    assert out["n_a"].tolist() == [2, 0]


def test_quantile_cont_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.stages.aggregate import quantile_cont

    rng = np.random.default_rng(17)
    for arr in [np.round(rng.standard_normal(5000) * 40, 2),
                rng.integers(0, 500, 5000).astype("int64")]:
        t = pa.table({"v": pa.array(arr)})
        got = quantile_cont(rd.from_arrow(t).repartition(6), "v",
                            [0.0, 0.1, 0.5, 0.95, 1.0])
        con = duckdb.connect()
        con.register("t", t.to_pandas())
        for q, g in got.items():
            w = con.sql(f"SELECT quantile_cont(v, {q}) FROM t").fetchone()[0]
            assert g == w, (q, g, w)


def test_quantile_cont_empty_and_single(ray_session):
    import ray.data as rd

    from logray.stages.aggregate import quantile_cont

    empty = pa.table({"v": pa.array([], pa.float64())})
    assert quantile_cont(rd.from_arrow(empty), "v", [0.5]) == {0.5: None}
    one = pa.table({"v": pa.array([42.0])})
    assert quantile_cont(rd.from_arrow(one), "v", [0.0, 0.5, 1.0]) == {
        0.0: 42.0, 0.5: 42.0, 1.0: 42.0}


def test_setops_match_duckdb(ray_session):
    """INTERSECT/EXCEPT distinct vs DuckDB, with null keys and multi-column
    tuples (SQL set ops treat NULLs as equal)."""
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.stages.setops import except_distinct, intersect_distinct

    rng = np.random.default_rng(7)
    da = pd.DataFrame({"k": rng.integers(0, 20, 200).astype(float),
                       "s": rng.choice(list("abc"), 200)})
    db = pd.DataFrame({"k": rng.integers(10, 30, 150).astype(float),
                       "s": rng.choice(list("bcd"), 150)})
    da.loc[rng.choice(200, 20, replace=False), "k"] = None
    db.loc[rng.choice(150, 10, replace=False), "k"] = None
    A, B = rd.from_pandas(da).repartition(5), rd.from_pandas(db).repartition(4)
    con = duckdb.connect()
    for op, sql in ((intersect_distinct, "INTERSECT"), (except_distinct, "EXCEPT")):
        got = (op(A, B, ["k", "s"]).to_pandas()
               .sort_values(["k", "s"], na_position="last").reset_index(drop=True))
        want = (con.execute(f"SELECT k,s FROM da {sql} SELECT k,s FROM db").df()
                .sort_values(["k", "s"], na_position="last").reset_index(drop=True))
        pd.testing.assert_frame_equal(got, want)


def test_setops_single_column_and_disjoint(ray_session):
    import ray.data as rd

    from logray.stages.setops import except_distinct, intersect_distinct

    A = rd.from_items([{"v": i} for i in [1, 2, 2, 3]])
    B = rd.from_items([{"v": i} for i in [3, 4]])
    assert intersect_distinct(A, B, "v").to_pandas()["v"].tolist() == [3]
    assert sorted(except_distinct(A, B, "v").to_pandas()["v"]) == [1, 2]
    C = rd.from_items([{"v": 99}])
    assert intersect_distinct(A, C, "v").to_pandas().empty


# ---------------------------------------------------------------------------
# statistical aggregates (stages/stats.py)
# ---------------------------------------------------------------------------


def test_stats_agg_bit_exact_vs_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logray.stages.stats import stats_agg, stats_agg_sql

    rng = np.random.default_rng(3)
    n = 8000
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 12, n).astype("int64"),
            # large signed cents: limb reassembly actually matters
            "x": rng.integers(-40_000_000_000, 40_000_000_000, n) // 1000,
            "y": rng.integers(0, 50, n).astype("int64"),
        }
    )
    df.loc[0, "k"] = 100  # single-row key -> NULL variance (SQL var_samp)
    df = pd.concat(
        [df, pd.DataFrame({"k": [200] * 5, "x": [7] * 5, "y": [1, 2, 3, 4, 5]})],
        ignore_index=True,
    )  # zero-variance key -> NULL corr
    got = (
        stats_agg(rd.from_pandas(df).repartition(9), "k", "x", "y")
        .sort_values("k").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(stats_agg_sql("t", "k", "x", "y") + " ORDER BY k").df()
    for c in ["k", "n_rows", "mean_x", "var_x", "stddev_x", "covar_xy", "corr_xy"]:
        g, w = got[c], want[c]
        same = (g.isna() & w.isna()) | (g == w)
        # bitwise equality, not approx: both sides run the identical
        # int->double->op sequence over exact integer moments
        assert same.all(), (c, got[~same], want[~same])


def test_stats_agg_rejects_floats_and_overflow(ray_session):
    import numpy as np
    import pandas as pd
    import pytest
    import ray.data as rd

    from logray.stages.stats import stats_agg

    with pytest.raises(Exception):
        stats_agg(
            rd.from_pandas(pd.DataFrame({"k": [1], "x": [1.5]})), "k", "x"
        )
    with pytest.raises(Exception):
        stats_agg(
            rd.from_pandas(
                pd.DataFrame({"k": [1], "x": np.array([1 << 40], np.int64)})
            ),
            "k", "x",
        )


def test_rollup_agg_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logray.stages.aggregate import rollup_agg, rollup_agg_sql

    rng = np.random.default_rng(4)
    df = pd.DataFrame(
        {
            "region": np.array(["eu", "us", "apac"])[rng.integers(0, 3, 5000)],
            "seg": np.array(["a", "b", "c", "d"])[rng.integers(0, 4, 5000)],
            "cents": rng.integers(0, 100000, 5000),
        }
    )
    got = (
        rollup_agg(rd.from_pandas(df).repartition(7), ["region", "seg"], "cents")
        .sort_values(["grp_id", "region", "seg"], na_position="last")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        rollup_agg_sql("t", ["region", "seg"], "cents")
        + " ORDER BY grp_id, region NULLS LAST, seg NULLS LAST"
    ).df()
    cols = ["region", "seg", "n_rows", "sum_cents", "grp_id"]
    pd.testing.assert_frame_equal(got[cols], want[cols])
    # levels: 12 finest + 3 per-region + 1 grand total
    assert got["grp_id"].value_counts().to_dict() == {0: 12, 1: 3, 3: 1}
    assert got.loc[got.grp_id == 3, "n_rows"].item() == 5000


def test_standardize_bit_exact_vs_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logray.stages.stats import standardize, standardize_sql

    rng = np.random.default_rng(12)
    n = 4000
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 9, n).astype("int64"),
            "x": rng.integers(-10**9, 10**9, n),
        }
    )
    df.loc[0, "k"] = 50  # single-row key -> null z
    df = pd.concat(
        [df, pd.DataFrame({"k": [60] * 4, "x": [7] * 4})], ignore_index=True
    )  # zero-variance key -> null z
    got = (
        standardize(rd.from_pandas(df).repartition(7), "k", "x")
        .to_pandas().sort_values(["k", "x"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        standardize_sql("t", "k", "x", cols="k, x") + " ORDER BY k, x"
    ).df()
    same = (got["z"].isna() & want["z"].isna()) | (got["z"] == want["z"])
    assert same.all()
    assert got.loc[got.k == 50, "z"].isna().all()
    assert got.loc[got.k == 60, "z"].isna().all()


def test_hash_join_outer_unmatched_both_sides(ray_session):
    import numpy as np
    import ray.data as rd

    from logray.stages.join import hash_join

    left = rd.from_items([{"k": 1, "a": 10}, {"k": 2, "a": 20}])
    right = rd.from_items([{"rk": 2, "b": 200}, {"rk": 3, "b": 300}])
    out = (
        hash_join(left, right, on="k", right_on="rk", how="outer",
                  num_partitions=4)
        .to_pandas().sort_values(["k", "rk"], na_position="last")
        .reset_index(drop=True)
    )
    assert len(out) == 3
    # k=1 left-only, k=2 matched, rk=3 right-only — exactly once each
    assert out["k"].fillna(-1).tolist() == [1.0, 2.0, -1]
    assert out["rk"].fillna(-1).tolist() == [-1, 2.0, 3.0]
    assert out["b"].fillna(-1).tolist() == [-1, 200.0, 300.0]


def test_hash_join_left_right_arrow_dtypes(ray_session):
    """left/right joins through the Arrow bucketed merge: unmatched rows
    null-extend WITHOUT coercing the other side's int64 through float64
    (values past 2^53 must survive byte-exactly)."""
    import numpy as np
    import ray.data as rd

    from logray.stages.join import hash_join

    big = 2**53 + 1
    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "h": pa.array([big, big + 2, big + 4], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "rk": pa.array([2, 4], pa.int64()),
        "b": pa.array([20, 40], pa.int64()),
    }))
    lo = (hash_join(left, right, on="k", right_on="rk", how="left",
                    num_partitions=4)
          .to_pandas().sort_values("k").reset_index(drop=True))
    assert lo["h"].dtype == np.int64  # never visited float64
    assert lo["h"].tolist() == [big, big + 2, big + 4]
    assert lo["b"].isna().tolist() == [True, False, True]
    # right join checked at the ARROW level: int64-with-null survives in
    # the engine; only a terminal .to_pandas() would float64-coerce it
    ro_tbls = list(
        hash_join(left, right, on="k", right_on="rk", how="right",
                  num_partitions=4)
        .iter_batches(batch_size=None, batch_format="pyarrow"))
    ro = pa.concat_tables([t for t in ro_tbls if t.num_rows])
    assert ro["h"].type == pa.int64()
    rows = sorted(ro.to_pylist(), key=lambda r: r["rk"])
    assert [r["rk"] for r in rows] == [2, 4]
    assert rows[0]["h"] == big + 2 and rows[1]["h"] is None


def test_stats_agg_null_keys_and_null_values(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logray.stages.stats import stats_agg, stats_agg_sql

    df = pd.DataFrame(
        {
            "k": pd.array(["a", "a", None, None, "b", "b", "b"]),
            "x": pd.array([1, 2, 5, 9, 4, None, 8], dtype="Int64"),
            "y": pd.array([2, 4, 1, 3, 7, 5, None], dtype="Int64"),
        }
    )
    got = stats_agg(rd.from_pandas(df).repartition(3), "k", "x", "y")
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(stats_agg_sql("t", "k", "x", "y")).df()
    key = lambda s: s.fillna("\x00")
    got = got.sort_values("k", key=key).reset_index(drop=True)
    want = want.sort_values("k", key=key).reset_index(drop=True)
    for c in want.columns:
        g, w = got[c], want[c]
        same = (g.isna() & w.isna()) | (g == w)
        assert same.all(), (c, got, want)
    # null keys pool into ONE group; rows with null x or y are ignored
    assert len(got) == 3
    assert got.loc[got.k.isna(), "n_rows"].item() == 2
    assert got.loc[got.k == "b", "n_rows"].item() == 1


def test_rollup_agg_empty_input(ray_session):
    import duckdb
    import pandas as pd
    import ray.data as rd

    from logray.stages.aggregate import rollup_agg, rollup_agg_sql

    df = pd.DataFrame({"a": pd.array([], dtype="str"),
                       "b": pd.array([], dtype="str"),
                       "v": pd.array([], dtype="int64")})
    got = rollup_agg(rd.from_pandas(df), ["a", "b"], "v")
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(rollup_agg_sql("t", ["a", "b"], "v")).df()
    # one grand-total row: NULL keys, n=0, sum NULL, grp_id=3
    assert len(got) == len(want) == 1
    assert got["n_rows"].item() == want["n_rows"].item() == 0
    assert pd.isna(got["sum_v"].item()) and pd.isna(want["sum_v"].item())
    assert got["grp_id"].item() == want["grp_id"].item() == 3


def test_winsorize_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logray.stages.stats import winsorize, winsorize_sql

    rng = np.random.default_rng(13)
    n = 3000
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 6, n).astype("int64"),
            "x": rng.integers(-10**6, 10**6, n),
        }
    )
    # plant extreme outliers that must get clipped
    df.loc[:10, "x"] = 10**9
    got = (
        winsorize(rd.from_pandas(df).repartition(5), "k", "x", 0.05, 0.95)
        .to_pandas().sort_values(["k", "x"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        winsorize_sql("t", "k", "x", 0.05, 0.95, cols="k, x")
        + " ORDER BY k, x"
    ).df()
    assert got["x_wins"].tolist() == want["x_wins"].tolist()
    assert got["x_wins"].max() < 10**9  # outliers clipped
    # clamp never moves in-range values
    inr = got[(got.x >= got.x_wins.min()) & (got.x <= got.x_wins.max())]
    assert (got["x_wins"] <= got["x"].where(got.x >= got.x_wins, got.x_wins)).all()


def test_cube_agg_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logray.stages.aggregate import cube_agg, rollup_agg_sql

    rng = np.random.default_rng(14)
    df = pd.DataFrame(
        {
            "a": np.array(["x", "y"])[rng.integers(0, 2, 2000)],
            "b": np.array(["p", "q", "r"])[rng.integers(0, 3, 2000)],
            "v": rng.integers(0, 1000, 2000),
        }
    )
    got = (
        cube_agg(rd.from_pandas(df).repartition(5), ["a", "b"], "v")
        .sort_values(["grp_id", "a", "b"], na_position="last")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        rollup_agg_sql("t", ["a", "b"], "v", mode="CUBE")
        + " ORDER BY grp_id, a NULLS LAST, b NULLS LAST"
    ).df()
    cols = ["a", "b", "n_rows", "sum_v", "grp_id"]
    pd.testing.assert_frame_equal(got[cols], want[cols])
    # CUBE adds the per-b level (grp_id=2, keep b only) that ROLLUP lacks
    assert got["grp_id"].value_counts().to_dict() == {0: 6, 2: 3, 1: 2, 3: 1}


def test_distinct_count_per_key_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logray.stages.aggregate import (
        distinct_count_per_key,
        distinct_count_per_key_sql,
    )

    rng = np.random.default_rng(15)
    df = pd.DataFrame(
        {
            "k": np.array(["a", "b", "c"])[rng.integers(0, 3, 5000)],
            "u": rng.integers(0, 40, 5000),
        }
    )
    df.loc[0, "u"] = None  # nulls don't count
    got = (
        distinct_count_per_key(rd.from_pandas(df).repartition(7), "k", "u")
        .sort_values("k").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        distinct_count_per_key_sql("t", "k", "u") + " ORDER BY k"
    ).df()
    pd.testing.assert_frame_equal(got, want)


def test_binned_histogram_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logray.stages.aggregate import binned_histogram, binned_histogram_sql

    rng = np.random.default_rng(21)
    df = pd.DataFrame({"x": rng.integers(-500, 12000, 20000)})
    got = binned_histogram(rd.from_pandas(df).repartition(7), "x",
                           lo=0, width=1000, nbins=10)
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        binned_histogram_sql("t", "x", lo=0, width=1000, nbins=10)
        + " ORDER BY bin"
    ).df()
    pd.testing.assert_frame_equal(got, want)
    assert got["n"].sum() == len(df)
    assert len(got) == 12  # underflow + 10 bins + overflow, empties kept


def test_mode_per_key_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logray.stages.aggregate import mode_per_key, mode_per_key_sql

    rng = np.random.default_rng(33)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 25, 6000),
            "v": np.array(["x", "y", "z", "w"])[rng.integers(0, 4, 6000)],
        }
    )
    df.loc[:10, "v"] = None  # ignored, SQL aggregate semantics
    got = (
        mode_per_key(rd.from_pandas(df).repartition(9), "k", "v")
        .sort_values("k").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(mode_per_key_sql("t", "k", "v") + " ORDER BY k").df()
    pd.testing.assert_frame_equal(got, want)


def test_mode_per_key_tie_breaks_to_smallest_value(ray_session):
    import pandas as pd
    import ray.data as rd

    from logray.stages.aggregate import mode_per_key

    df = pd.DataFrame({"k": [1, 1, 1, 1, 2], "v": ["b", "b", "a", "a", "c"]})
    got = mode_per_key(rd.from_pandas(df).repartition(3), "k", "v")
    got = got.sort_values("k").reset_index(drop=True)
    assert got["mode_val"].tolist() == ["a", "c"]  # 2-2 tie -> 'a'
    assert got["n"].tolist() == [2, 1]


def test_arg_extreme_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logray.stages.aggregate import arg_extreme, arg_extreme_sql

    rng = np.random.default_rng(44)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 30, 4000),
            "a": rng.permutation(4000).astype("int64"),
            # small integer range forces cross-partition ties on v
            "v": rng.integers(0, 5, 4000),
        }
    )
    df.loc[:5, "v"] = None  # null-val rows ignored
    con = duckdb.connect()
    con.register("t", df)
    for how in ("max", "min"):
        got = (
            arg_extreme(rd.from_pandas(df).repartition(8), "k", "a", "v", how)
            .sort_values("k").reset_index(drop=True)
        )
        want = con.sql(
            arg_extreme_sql("t", "k", "a", "v", how) + " ORDER BY k"
        ).df()
        pd.testing.assert_frame_equal(got, want)


def test_arg_extreme_empty_and_bad_how(ray_session):
    import pandas as pd
    import pytest
    import ray.data as rd

    from logray.stages.aggregate import arg_extreme

    df = pd.DataFrame({"k": pd.Series([], dtype="int64"),
                       "a": pd.Series([], dtype="int64"),
                       "v": pd.Series([], dtype="int64")})
    got = arg_extreme(rd.from_pandas(df), "k", "a", "v")
    assert len(got) == 0
    with pytest.raises(ValueError):
        arg_extreme(rd.from_pandas(df), "k", "a", "v", how="median")


def test_distinct_on_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logray.stages.aggregate import distinct_on, distinct_on_sql

    rng = np.random.default_rng(52)
    df = pd.DataFrame(
        {
            "k": rng.integers(0, 20, 3000),
            "o": rng.integers(0, 50, 3000),   # ties across partitions
            "id": np.arange(3000, dtype=np.int64),
            "payload": np.array(["p", "q", "r"])[rng.integers(0, 3, 3000)],
        }
    )
    con = duckdb.connect()
    con.register("t", df)
    for desc in (True, False):
        got = (
            distinct_on(rd.from_pandas(df).repartition(7), "k", ["o", "id"],
                        descending=desc)
            .sort_values("k").reset_index(drop=True)
        )
        want = con.sql(
            distinct_on_sql("t", "k", ["o", "id"], descending=desc)
            + " ORDER BY k"
        ).df()
        pd.testing.assert_frame_equal(got, want)


def test_distinct_on_mixed_directions(ray_session):
    import pandas as pd
    import ray.data as rd

    from logray.stages.aggregate import distinct_on

    df = pd.DataFrame({"k": [1, 1, 1], "a": [5, 5, 3], "b": [1, 2, 9]})
    # a DESC, b ASC -> (5,1) wins
    got = distinct_on(rd.from_pandas(df), "k", ["a", "b"],
                      descending=[True, False])
    assert got[["a", "b"]].values.tolist() == [[5, 1]]


def test_mode_per_key_null_keys_pool_across_partitions(ray_session):
    import duckdb
    import pandas as pd
    import ray.data as rd

    from logray.stages.aggregate import mode_per_key, mode_per_key_sql

    # repartition(3) gives an ALL-NULL-key block whose Arrow type differs
    # from the mixed blocks — nulls must still land in one bucket
    df = pd.DataFrame({"k": [None, None, 1.0, 1.0, 1.0],
                       "v": ["a", "a", "b", "a", "b"]})
    got = (
        mode_per_key(rd.from_pandas(df).repartition(3), "k", "v")
        .sort_values("k", na_position="last").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(mode_per_key_sql("t", "k", "v")
                   + " ORDER BY k NULLS LAST").df()
    pd.testing.assert_frame_equal(got, want)
    assert len(got) == 2 and got["n"].tolist() == [2, 2]


def test_asof_join_directions(ray_session):
    import pandas as pd
    import ray.data as rd

    from logray.stages.join import asof_join

    left = pd.DataFrame({"k": ["a", "a", "b"], "ts": [10, 20, 10],
                         "id": [1, 2, 3]})
    right = pd.DataFrame({"k": ["a", "a", "a", "b"],
                          "ts": [5, 12, 30, 50],
                          "v": [100, 200, 300, 400]})
    lds, rds = rd.from_pandas(left), rd.from_pandas(right)

    back = asof_join(lds, rds, key="k", num_buckets=4) \
        .to_pandas().sort_values("id").reset_index(drop=True)
    assert back["v"].tolist() == [100, 200, None] or \
        back["v"].fillna(-1).tolist() == [100.0, 200.0, -1.0]

    fwd = asof_join(lds, rds, key="k", num_buckets=4,
                    direction="forward") \
        .to_pandas().sort_values("id").reset_index(drop=True)
    assert fwd["v"].fillna(-1).tolist() == [200.0, 300.0, 400.0]

    near = asof_join(lds, rds, key="k", num_buckets=4,
                     direction="nearest") \
        .to_pandas().sort_values("id").reset_index(drop=True)
    # ts=10 -> 12 (dist 2 beats 5's dist 5); ts=20 -> 12; b ts=10 -> 50
    assert near["v"].tolist() == [200, 200, 400]

    import pytest
    with pytest.raises(ValueError):
        asof_join(lds, rds, key="k", direction="sideways")


def test_grouped_apply_extension_point(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from logray.stages.bucketing import grouped_apply

    rng = np.random.default_rng(7)
    df = pd.DataFrame({"k": rng.integers(0, 50, 4000),
                       "v": rng.integers(0, 100, 4000)})

    # a custom per-key op written against the public extension point:
    # range (max - min) per key, vectorized over the whole bucket; the
    # exchange hands fn the batch format asked for, with the input
    # columns only, never its bucket tag
    want = (df.groupby("k")["v"].agg(lambda s: s.max() - s.min())
            .rename("rng").reset_index())
    for batch_format in ("pandas", "pyarrow"):
        def key_range(g, arrow=batch_format == "pyarrow"):
            assert isinstance(g, pa.Table if arrow else pd.DataFrame)
            assert list(g.column_names if arrow else g.columns) == ["k", "v"]
            s = (g.to_pandas() if arrow else g).groupby("k", sort=False)["v"]
            return pd.DataFrame({"k": s.max().index,
                                 "rng": (s.max() - s.min()).to_numpy()})

        got = (
            grouped_apply(rd.from_pandas(df).repartition(7), "k", key_range,
                          num_buckets=8, batch_format=batch_format)
            .to_pandas().sort_values("k").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got, want.astype({"rng": got["rng"].dtype}))


def test_hash_join_null_int_keys_match(ray_session):
    """An int64 key batch containing any null comes out of to_numpy as
    float64 — before the canonical key hash, its non-null keys routed to
    different buckets than the same keys on the other side, silently
    dropping every match."""
    import ray.data as rd

    from logray.stages.join import hash_join

    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "a": pa.array([10, 20, 30], pa.int64()),
    }))
    right = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, None], pa.int64()),
        "b": pa.array([100, 200, 300], pa.int64()),
    }))
    out = (hash_join(left, right, on="k", how="left", num_partitions=4)
           .to_pandas().sort_values("k").reset_index(drop=True))
    assert out["b"].fillna(-1).tolist() == [100.0, 200.0, -1]
    # outer: the null right key survives exactly once, null-extended
    full = (hash_join(left, right, on="k", how="outer", num_partitions=4)
            .to_pandas())
    assert len(full) == 4
    assert full["b"].fillna(-1).sort_values().tolist() == [-1, 100, 200, 300]


def test_hash_join_mismatched_key_dtypes(ray_session):
    """Differently-named keys with different dtypes (int64 vs float64)
    must still match 2 with 2.0 — the canonical bucket hash keeps them in
    one bucket and the pandas merge fallback joins across dtypes."""
    import ray.data as rd

    from logray.stages.join import hash_join

    left = rd.from_arrow(pa.table({"k": pa.array([2, 5], pa.int64()),
                                   "a": pa.array([20, 50])}))
    right = rd.from_arrow(pa.table({"rk": pa.array([2.0, 7.0], pa.float64()),
                                    "b": pa.array([200, 700])}))
    out = (hash_join(left, right, on="k", right_on="rk", how="inner",
                     num_partitions=4).to_pandas())
    assert len(out) == 1
    assert out["a"].tolist() == [20] and out["b"].tolist() == [200]


def test_hash_join_right_suffix_collision(ray_session):
    """A right side carrying both a colliding column x AND a genuine
    x_right column must keep both — the rename picks a free name instead
    of silently overwriting the real x_right."""
    import ray.data as rd

    from logray.stages.join import hash_join

    left = rd.from_arrow(pa.table({"k": pa.array([1], pa.int64()),
                                   "x": pa.array([10], pa.int64())}))
    right = rd.from_arrow(pa.table({
        "k": pa.array([1], pa.int64()),
        "x": pa.array([77], pa.int64()),
        "x_right": pa.array([88], pa.int64()),
    }))
    out = (hash_join(left, right, on="k", how="left", num_partitions=2)
           .to_pandas())
    assert out["x"].tolist() == [10]
    assert out["x_right"].tolist() == [88]
    assert out["x_right_right"].tolist() == [77]


def test_bucket_hash_dtype_canonical():
    """Equal logical keys hash to the same bucket across physical dtypes
    (int64 vs the float64 a nullable batch coerces to, vs int32)."""
    import numpy as np

    from logray.stages.bucketing import bucket_of, key_hashes

    ints = np.array([1, 2, 3, 2**40], np.int64)
    floats = ints.astype(np.float64)
    ints32 = np.array([1, 2, 3, 0], np.int32)
    assert (key_hashes(ints) == key_hashes(floats)).all()
    assert (key_hashes(ints[:3]) == key_hashes(ints32[:3].astype(np.int64))).all()
    assert (bucket_of(ints, 16) == bucket_of(floats, 16)).all()
    # a batch with a null alongside real keys: the real keys keep their
    # null-free bucket assignment
    with_nan = np.array([1.0, 2.0, np.nan])
    assert (bucket_of(with_nan, 16)[:2] == bucket_of(ints[:2], 16)).all()


def test_key_hashes_object_bool_float32_datetime_negzero():
    """The canonicalization edge cases: a nullable bool batch (OBJECT
    array from to_numpy), narrow floats, datetime units, and signed zero
    must all hash like their canonical representation."""
    import numpy as np

    from logray.stages.bucketing import key_hashes

    # nullable bool object array vs plain bool array
    obj = pa.array([True, False, None]).to_numpy(zero_copy_only=False)
    assert obj.dtype == object
    plain = np.array([True, False])
    assert (key_hashes(obj)[:2] == key_hashes(plain)).all()
    # object ints with a null vs int64
    obj_i = pa.array([7, 9, None], pa.int64()).to_numpy(zero_copy_only=False)
    assert (key_hashes(obj_i.astype(object))[:2]
            == key_hashes(np.array([7, 9], np.int64))).all()
    # float32 vs float64 vs int64 of the same value
    assert (key_hashes(np.float32([2.0, 5.5]))
            == key_hashes(np.float64([2.0, 5.5]))).all()
    assert (key_hashes(np.float32([2.0]))
            == key_hashes(np.array([2], np.int64))).all()
    # same instant across datetime64 units
    ns = np.array(["2026-01-02T03:04:05.000000"], "datetime64[ns]")
    us = np.array(["2026-01-02T03:04:05.000000"], "datetime64[us]")
    assert (key_hashes(ns) == key_hashes(us)).all()
    # -0.0 == 0.0 must share a bucket
    assert (key_hashes(np.float64([-0.0])) == key_hashes(np.float64([0.0]))).all()


def test_hash_join_nullable_bool_key(ray_session):
    """End-to-end: a bool join key where one side's batch carries a null
    must still match its True/False rows."""
    import ray.data as rd

    from logray.stages.join import hash_join

    left = rd.from_arrow(pa.table({"k": pa.array([True, False]),
                                   "a": pa.array([1, 2])}))
    right = rd.from_arrow(pa.table({"k": pa.array([True, False, None]),
                                    "b": pa.array([10, 20, 30])}))
    out = (hash_join(left, right, on="k", how="left", num_partitions=4)
           .to_pandas().sort_values("a").reset_index(drop=True))
    assert out["b"].tolist() == [10, 20]


# ---------------------------------------------------------------------------
# table profiling (audit pass)
# ---------------------------------------------------------------------------


def test_table_profile_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from logray.stages.profile import table_profile, table_profile_sql

    t = pa.table({
        "a": pa.array([1, 1, 2, None, 3, None], pa.int64()),
        "b": pa.array(["x", "y", "x", "x", None, "z"]),
        "c": pa.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.5], pa.float64()),
    })
    got = table_profile(rd.from_arrow(t).repartition(3))
    con = duckdb.connect()
    con.register("t", t)
    want = con.sql(table_profile_sql("t", ["a", "b", "c"])).df()
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True).astype({c: np.int64 for c in got.columns
                                           if c != "column"}),
        want.astype({c: np.int64 for c in want.columns if c != "column"}))
    # column subset + approx mode (HLL within its error bound)
    ap = table_profile(rd.from_arrow(t), columns=["b"], distinct="approx")
    assert list(ap["column"]) == ["b"]
    assert ap.loc[0, "n_null"] == 1
    assert abs(int(ap.loc[0, "n_distinct"]) - 3) <= 1
    import pytest

    with pytest.raises(ValueError, match="unknown distinct"):
        table_profile(rd.from_arrow(t), distinct="bogus")


def test_resample_ohlc_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.stages.window import resample_ohlc, resample_ohlc_sql

    rng = np.random.default_rng(21)
    n = 4000
    ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(
        rng.integers(0, 6 * 3600, n), unit="s")
    val = np.round(rng.normal(50, 20, n), 2)
    val[rng.random(n) < 0.03] = np.nan
    t = pa.table({
        "k": pa.array([f"s{i}" for i in rng.integers(0, 7, n)]),
        "ts": pa.array(ts, pa.timestamp("us")),
        "v": pa.array(val, pa.float64(), from_pandas=True),
        "id": pa.array(np.arange(n, dtype=np.int64)),
    })
    con = duckdb.connect()
    con.register("t", t)
    want = (con.sql(resample_ohlc_sql("t", "k", "ts", "v", "id", 900.0))
            .df().sort_values(["k", "window_start"]).reset_index(drop=True))

    import ray.data as rd
    for parts in (1, 5):
        got = (resample_ohlc(rd.from_arrow(t).repartition(parts), "k",
                             ts_col="ts", val_col="v", tiebreak_col="id",
                             width_s=900.0)
               .sort_values(["k", "window_start"]).reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[want.columns.tolist()], want, check_dtype=False)


def test_resample_ohlc_null_key_and_single_row_windows(ray_session):
    import ray.data as rd

    from logray.stages.window import resample_ohlc

    ts = pd.to_datetime(["2024-01-01 00:00:01", "2024-01-01 00:00:02",
                         "2024-01-01 02:00:00"])
    t = pa.table({
        "k": pa.array(["a", None, "a"]),
        "ts": pa.array(ts, pa.timestamp("us")),
        "v": pa.array([1.5, 9.0, 2.5], pa.float64()),
        "id": pa.array([1, 2, 3], pa.int64()),
    })
    out = resample_ohlc(rd.from_arrow(t).repartition(2), "k", ts_col="ts",
                        val_col="v", tiebreak_col="id", width_s=3600.0)
    out = out.sort_values("window_start").reset_index(drop=True)
    # null key dropped; two single-row windows for 'a'
    assert len(out) == 2
    assert out["open"].tolist() == [1.5, 2.5]
    assert out["close"].tolist() == [1.5, 2.5]
    assert out["n"].tolist() == [1, 1]
    assert out["sum_cents"].tolist() == [150, 250]


def test_histogram_partials_match_duckdb_group_by():
    """One partial row per distinct value per column, nulls counted under
    NULL_KEY: the same rows as a DuckDB GROUP BY on each column."""
    import duckdb
    import pyarrow.compute as pc

    from logray.stages.aggregate import NULL_KEY, PARTIAL_SCHEMA, histogram_partials

    n = 500
    t = pa.table(
        {
            "s": pa.array([None if i % 7 == 0 else f"k{i % 11}" for i in range(n)]),
            "z": pa.nulls(n),
            "b": pa.array([None if i % 5 == 0 else i % 3 == 0 for i in range(n)]),
            "i": pa.array([None if i % 13 == 0 else i % 9 - 4 for i in range(n)], pa.int64()),
            "ts": pa.array([None if i % 17 == 0 else 1_000_000 * (i % 6) for i in range(n)],
                           pa.timestamp("us")),
        }
    )
    cols = t.column_names
    con = duckdb.connect()

    def rows(tab):
        return sorted(zip(*(tab[c].to_pylist() for c in PARTIAL_SCHEMA.names)))

    for src in (t, t.slice(0, 0)):
        got = histogram_partials(src, cols)
        assert got.schema == PARTIAL_SCHEMA
        con.register("src", src)
        want = []
        for col in cols:
            g = con.execute(f'SELECT "{col}" AS k, count(*) AS n FROM src GROUP BY 1').arrow()
            keys = pc.fill_null(pc.cast(g["k"], pa.string()), NULL_KEY).to_pylist()
            want += [(col, k, n, 0, 0) for k, n in zip(keys, g["n"].to_pylist())]
        assert rows(got) == sorted(want)
        assert len(want) == (0 if src.num_rows == 0 else 12 + 1 + 3 + 10 + 7)


def test_route_sink_writer_refuses_null_route(tmp_path):
    """Rows with a null route would be counted but written nowhere: the
    writer raises before writing any file (run outside Ray)."""
    from logray.stages.route import RouteSinkWriter

    t = pa.table({"route": pa.array(["a", None, "a"]), "x": [1, 2, 3]})
    with pytest.raises(ValueError, match=r"drop_unrouted=False"):
        RouteSinkWriter(str(tmp_path / "sink"), ["route"], ts_col=None)(t)
    assert not (tmp_path / "sink").exists()
