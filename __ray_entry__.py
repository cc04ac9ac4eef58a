"""Driver contract for the logray engine.

``entry()`` runs the flagship parse -> enrich -> route -> aggregate pipeline
on sf0.001; ``queries()`` exposes one callable per implemented operator
(SURVEY.md §2 + the training-data operator family); ``oracle_sql()`` gives
the DuckDB-equivalent SQL for every SQL-expressible query (same column
names, deterministic values).  Ray is initialised by the driver — nothing
here calls ``ray.init``/``ray.shutdown``.

Float-determinism policy for the oracle comparisons: aggregate money flows
through integer cents; cosine/jaccard math runs in float64 on both sides so
the Ray and DuckDB values are bit-comparable.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logray.formats import GOLDEN_FORMAT
from logray.sources.transcripts import (
    transcripts_from_events,
    transcripts_from_events_sql,
)

# Extends the golden format: the Mesg payload 'val=<cents>' is parsed as a
# literal prefix + INT field, exercising literal-CHR + INT extraction.
CENTS_FORMAT = "{INT:Date} {INT:Time} {STR:Level} :{CHR:,.,1}{STR:Source}: val={INT:Cents}"

_TSQL = transcripts_from_events_sql()


# ---------------------------------------------------------------------------
# entry
# ---------------------------------------------------------------------------


def entry() -> Any:
    """Flagship pipeline on sf0.001; returns per-route counts (small df)."""
    import tempfile

    from logray.pipelines import PipelineConfig, run_pipeline

    cfg = PipelineConfig(
        format_string=GOLDEN_FORMAT,
        routes=[
            ("errors", "Level EQ ERROR", False),
            ("purchases", "Level EQ PURCHASE", False),
            ("other", "", True),
        ],
    )
    ds = transcripts_from_events("/root/testdata/sf0.001")
    with tempfile.TemporaryDirectory() as out:
        metrics = run_pipeline(ds, cfg, out)
    rows = [
        {"route": k, "n": v} for k, v in sorted(metrics["routes"].items())
    ]
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# query helpers
# ---------------------------------------------------------------------------


def _parse_transcripts(sf_dir: str, fmt: str):
    from logray.stages.parse import parse_stage

    ds = transcripts_from_events(sf_dir, with_turn_idx=False)
    return parse_stage(ds, fmt)


def _q_transcript_build(sf_dir: str):
    return transcripts_from_events(sf_dir).to_pandas()


def _q_csv_roundtrip(sf_dir: str):
    """Transcript view written to CSV part files and read back through
    the canonical cast: the full wire-format round-trip must reproduce
    the same table the direct build does (oracle: the transcript SQL)."""
    import tempfile

    from logray.sources.csvsrc import (
        read_transcripts_csv,
        write_transcripts_csv,
    )

    out = tempfile.mkdtemp(prefix="logray_csv_")
    write_transcripts_csv(transcripts_from_events(sf_dir), out)
    return read_transcripts_csv(out).to_pandas()


def _q_parse_fields(sf_dir: str):
    ds = _parse_transcripts(sf_dir, GOLDEN_FORMAT)
    out = ds.select_columns(
        ["event_id", "Date", "Time", "Level", "Source", "Mesg", "well_formatted"]
    ).to_pandas()
    return out


def _q_route_counts(sf_dir: str):
    from logray.filters import EvalContext
    from logray.formats import LineFormat
    from logray.stages.aggregate import route_counts
    from logray.stages.route import Route, Router, route_exclusive

    fmt = LineFormat.from_format_string(GOLDEN_FORMAT)
    router = Router(
        [
            Route.from_decl("errors", "Level EQ ERROR", fmt),
            Route.from_decl("purchases", "Level EQ PURCHASE", fmt),
            Route("other", None, accept_bad_format=True),
        ],
        ctx=EvalContext(text_col="text", line_col="event_id"),
    )
    ds = _parse_transcripts(sf_dir, GOLDEN_FORMAT)
    df = route_counts(route_exclusive(ds, router))
    return df


def _q_role_histogram(sf_dir: str):
    from logray.stages.aggregate import histogram
    from logray.stages.enrich import enrich_stage

    ds = transcripts_from_events(sf_dir, with_turn_idx=False)
    ds = enrich_stage(ds)
    return histogram(ds, "role_class")


def _q_tool_histogram(sf_dir: str):
    from logray.stages.aggregate import histogram
    from logray.stages.enrich import enrich_stage

    ds = transcripts_from_events(sf_dir, with_turn_idx=False)
    ds = enrich_stage(ds)
    return histogram(ds, "tool_kind")


def _q_turns_per_conversation(sf_dir: str):
    from logray.stages.aggregate import turns_per_conversation

    ds = transcripts_from_events(sf_dir, with_turn_idx=False)
    return turns_per_conversation(ds)


def _q_filter_algebra(sf_dir: str):
    from logray.filters import EvalContext, parse_filter_decl
    from logray.formats import LineFormat

    fmt = LineFormat.from_format_string(CENTS_FORMAT)
    flt = parse_filter_decl("Level EQ ERROR XOR Cents GT 15000", fmt)
    ds = _parse_transcripts(sf_dir, CENTS_FORMAT)

    def apply(t: pa.Table) -> pa.Table:
        well = pc.fill_null(t["well_formatted"], False)
        m = pc.and_(well, flt.mask(t, EvalContext()))
        return t.filter(m).select(["event_id"])

    return ds.map_batches(apply, batch_format="pyarrow").to_pandas()


def _q_filter_ci_contains(sf_dir: str):
    """CI + CONTAINS + NOR coverage: rows where neither the level contains
    'ERR' (case-insensitively) nor the source ends with '7'."""
    from logray.filters import EvalContext, parse_filter_decl
    from logray.formats import LineFormat

    fmt = LineFormat.from_format_string(GOLDEN_FORMAT)
    flt = parse_filter_decl("Level CT_CI err NOR Source EW 7", fmt)
    ds = _parse_transcripts(sf_dir, GOLDEN_FORMAT)

    def apply(t: pa.Table) -> pa.Table:
        well = pc.fill_null(t["well_formatted"], False)
        m = pc.and_(well, flt.mask(t, EvalContext()))
        return t.filter(m).select(["event_id"])

    return ds.map_batches(apply, batch_format="pyarrow").to_pandas()


def _q_line_range(sf_dir: str):
    from logray.filters import CombinedFilter, BitwiseOp, EvalContext, LineNumberFilter, RawLineFilter

    flt = CombinedFilter(LineNumberFilter(2, 5), RawLineFilter("val=1"), BitwiseOp.AND)
    ctx = EvalContext(text_col="text", line_col="turn_idx")
    ds = transcripts_from_events(sf_dir)

    def apply(t: pa.Table) -> pa.Table:
        return t.filter(flt.mask(t, ctx)).select(["conv_id", "turn_idx"])

    return ds.map_batches(apply, batch_format="pyarrow").to_pandas()


def _q_search_next(sf_dir: str):
    from logray.filters import EvalContext
    from logray.formats import LineFormat
    from logray.stages.parse import parse_stage
    from logray.stages.route import Route, Router, route_datasets
    from logray.stages.search import find_next_occurrence

    fmt = LineFormat.from_format_string(GOLDEN_FORMAT)
    router = Router(
        [Route.from_decl("errors", "Level EQ ERROR", fmt)],
        ctx=EvalContext(text_col="text", line_col="turn_idx"),
    )
    ds = parse_stage(transcripts_from_events(sf_dir), GOLDEN_FORMAT)
    view = route_datasets(ds, router)["errors"]
    hit = find_next_occurrence(view, "val=19", from_key=("conv-00050", 0))
    if hit is None:
        return pd.DataFrame(
            {
                "conv_id": pd.Series([], dtype="object"),
                "turn_idx": pd.Series([], dtype="int32"),
                "char_pos": pd.Series([], dtype="int64"),
            }
        )
    return pd.DataFrame(
        {
            "conv_id": [hit["conv_id"]],
            "turn_idx": pd.array([hit["turn_idx"]], dtype="int32"),
            "char_pos": pd.array([hit["char_pos"]], dtype="int64"),
        }
    )


def _q_min_max_ts(sf_dir: str):
    import ray.data as rd

    from logray.stages.aggregate import min_max

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts"])
    lo, hi = min_max(ds, "ts")
    return pd.DataFrame({"ts_min": [lo], "ts_max": [hi]})


# --- TPC-H-ish operator demos ---------------------------------------------


def _q_pushdown_read(sf_dir: str):
    """Predicate + column pushdown at the read: only the error rows' two
    columns leave storage (row-group pruning via the pyarrow dataset
    filter), then an exact per-user histogram."""
    import ray.data as rd

    from logray.stages.aggregate import histogram

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "event_type"],
        filter=(pc.field("event_type") == "error"),
    )
    return histogram(ds, "user_id")


def _q_revenue_by_nation(sf_dir: str):
    """TPC-H Q5-shaped multi-way join: revenue per nation for one region
    and one order year, customer and supplier in the same nation.

    Scale shape: region/nation/supplier fold into ONE broadcast
    suppkey -> (nationkey, name) lookup applied inside map_batches
    (pre-filtering lineitem to the region's suppliers before anything
    shuffles); orders are date-pruned AT THE READ (row-group predicate
    pushdown); the only all-to-all exchanges are the two unavoidable
    large-large hash joins (orders x customer, lineitem x that), both on
    pruned narrow projections and both on the bucket exchange's plain
    tasks.  The supplier lookup is a ``ray.put`` value read inside a
    plain fused task, so the query needs no actor and finishes on a
    1-CPU Ray.  Revenue is exact integer arithmetic: cents * (100 -
    discount_bp), summed as int64."""
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from logray.stages.join import _bucketed_join, hash_join

    nation = pd.read_parquet(f"{sf_dir}/nation.parquet")
    region = pd.read_parquet(f"{sf_dir}/region.parquet")
    supplier = pd.read_parquet(f"{sf_dir}/supplier.parquet",
                               columns=["s_suppkey", "s_nationkey"])
    asia = nation.merge(region[region["r_name"] == "ASIA"],
                        left_on="n_regionkey", right_on="r_regionkey")
    sup = supplier.merge(asia[["n_nationkey", "n_name"]],
                         left_on="s_nationkey", right_on="n_nationkey")
    sup_ref = ray.put({
        "s_suppkey": pa.array(sup["s_suppkey"].to_numpy(), pa.int64()),
        "s_nationkey": sup["s_nationkey"].to_numpy(),
        "n_name": sup["n_name"].to_numpy(),
    })

    lo = pd.Timestamp("1996-01-01").to_datetime64()
    hi = pd.Timestamp("1997-01-01").to_datetime64()
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"],
        filter=((pc.field("o_orderdate") >= lo) & (pc.field("o_orderdate") < hi)),
    )
    customer = rd.read_parquet(f"{sf_dir}/customer.parquet",
                               columns=["c_custkey", "c_nationkey"])
    ord_cust = hash_join(orders, customer, on="o_custkey",
                         right_on="c_custkey").drop_columns(["o_custkey"])

    def supplier_side(t: pa.Table) -> pa.Table:
        m = ray.get(sup_ref)
        idx = pc.index_in(t["l_suppkey"], value_set=m["s_suppkey"])
        keep = pc.is_valid(idx)
        t, idx = t.filter(keep), idx.filter(keep)
        ii = idx.to_numpy(zero_copy_only=False).astype(np.int64)
        cents = pc.cast(pc.round(pc.multiply(t["l_extendedprice"], 100.0)),
                        pa.int64())
        bp = pc.cast(pc.round(pc.multiply(t["l_discount"], 100.0)),
                     pa.int64())
        rev = pc.multiply(cents, pc.subtract(pa.scalar(100, pa.int64()), bp))
        return pa.table({
            "l_orderkey": t["l_orderkey"],
            "s_nationkey": pa.array(m["s_nationkey"][ii]),
            "n_name": pa.array(m["n_name"][ii]),
            "rev_c4": rev,
        })

    line = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(supplier_side, batch_format="pyarrow", zero_copy_batch=True)

    joined = _bucketed_join(line, ord_cust, ("l_orderkey",), ("o_orderkey",),
                            "inner", 16)

    def part(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t["s_nationkey"], t["c_nationkey"]))
        g = t.group_by("n_name").aggregate([("rev_c4", "sum")])
        return g.rename_columns(["n_name", "p_rev"])

    out = (joined.map_batches(part, batch_format="pyarrow",
                              zero_copy_batch=True)
           .groupby("n_name")
           .aggregate(Sum("p_rev", alias_name="revenue_c4")))
    return out.to_pandas()


def _q_topk_orders(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey", "o_totalprice"]
    )
    out = ds.sort(["o_totalprice", "o_orderkey"], descending=[True, False]).limit(10)
    return out.to_pandas()


def _q_region_customer_counts(sf_dir: str):
    """Broadcast dimension join: customer -> nation -> region, counts per
    region name.  Dimensions are read driver-side (tiny) and folded into one
    lookup dict applied inside map_batches."""
    import pyarrow.parquet as pq
    import ray.data as rd

    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    n2r = nation.merge(region, left_on="n_regionkey", right_on="r_regionkey")
    lookup = dict(zip(n2r["n_nationkey"].astype("int64"), n2r["r_name"]))

    from logray.stages.aggregate import histogram

    ds = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_nationkey"])

    keys = pa.array([int(k) for k in lookup], pa.int32())
    vals = pa.array(list(lookup.values()), pa.string())

    def add_region(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["c_nationkey"], value_set=keys)
        return t.append_column("r_name", pc.take(vals, idx))

    ds = ds.map_batches(add_region, batch_format="pyarrow")
    return histogram(ds, "r_name")


def _q_lineitem_agg(sf_dir: str):
    """TPC-H Q1-shaped aggregate with integer-cents revenue (exact)."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def prep(t: pa.Table) -> pa.Table:
        rev = pc.multiply(
            pc.multiply(t["l_extendedprice"], pc.subtract(1.0, t["l_discount"])), 100.0
        )
        rev_cents = pc.cast(pc.round(rev, round_mode="half_towards_infinity"), pa.int64())
        g = (
            t.append_column("rev_cents", rev_cents)
            .group_by(["l_returnflag", "l_linestatus"])
            .aggregate([("l_quantity", "sum"), ("rev_cents", "sum"), ([], "count_all")])
        )
        return g.rename_columns(
            ["l_returnflag", "l_linestatus", "p_qty", "p_rev", "p_n"]
        )

    partial = ds.map_batches(prep, batch_format="pyarrow")
    out = partial.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("p_qty", alias_name="sum_qty"),
        Sum("p_rev", alias_name="revenue_cents"),
        Sum("p_n", alias_name="count_order"),
    )
    return out.to_pandas()


def _q_join_orders_customers(sf_dir: str):
    """Large-large hash join (orders x customer) -> revenue per market
    segment in integer cents."""
    import ray.data as rd

    from logray.stages.aggregate import histogram
    from logray.stages.join import hash_join

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_totalprice"])

    def cents(t: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.round(pc.multiply(t["o_totalprice"], 100.0), round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.table({"o_custkey": t["o_custkey"], "cents": c})

    orders = orders.map_batches(cents, batch_format="pyarrow")
    customer = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    joined = hash_join(orders, customer, on="o_custkey", right_on="c_custkey", num_partitions=8)

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["c_mktsegment"]).aggregate([("cents", "sum"), ([], "count_all")])
        return g.rename_columns(["c_mktsegment", "p_cents", "p_n"])

    from ray.data.aggregate import Sum

    out = (
        joined.map_batches(partial, batch_format="pyarrow", batch_size=131072)
        .groupby("c_mktsegment")
        .aggregate(Sum("p_cents", alias_name="revenue_cents"), Sum("p_n", alias_name="n_orders"))
    )
    return out.to_pandas()


def _q_bucketed_join(sf_dir: str):
    """The explicit bucketed-hash-join fallback path (same result as the
    native join; exercised so the portable pattern stays correct)."""
    import ray.data as rd

    from logray.stages.aggregate import histogram
    from logray.stages.join import _bucketed_join

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey", "o_orderkey"])
    customer = rd.read_parquet(f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"])
    joined = _bucketed_join(orders, customer, ("o_custkey",), ("c_custkey",), "inner", 8)
    return histogram(joined, "c_mktsegment")


def _q_distinct_priorities(sf_dir: str):
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_orderpriority"])
    vals = sorted(ds.unique("o_orderpriority"))
    return pd.DataFrame({"o_orderpriority": vals})


def _q_union_counts(sf_dir: str):
    import ray.data as rd

    from logray.stages.aggregate import histogram

    a = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
    b = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
    return histogram(a.union(b), "event_type")


def _q_kth_price(sf_dir: str):
    """Distributed selection: the 100th-smallest order total (0-based)."""
    import ray.data as rd

    from logray.stages.aggregate import kth_smallest

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    v = kth_smallest(ds, "o_totalprice", 100)
    return pd.DataFrame({"o_totalprice": [v]})


def _q_top_users(sf_dir: str):
    import ray.data as rd

    from logray.stages.aggregate import top_k_groups

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return top_k_groups(ds, "user_id", k=5)


def _q_token_topk(sf_dir: str):
    """Tokenize documents (single-space split, SQL string_split semantics)
    and return the 20 most frequent tokens (ties by token)."""
    import ray.data as rd

    from logray.functions.textstats import tokenize
    from logray.stages.aggregate import top_k_groups

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    toks = tokenize(ds, "text")
    return top_k_groups(toks, "token", k=20)


def _asof_purchase_q(sf_dir: str, direction: str, out_name: str):
    """Shared body of the backward/forward as-of purchase queries: join
    each event to the nearest purchase in ``direction``, summarize per
    event_type in exact integer cents."""
    import ray.data as rd

    from logray.stages.join import asof_join

    ev = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "event_type", "value"])

    def purchases(t: pa.Table) -> pa.Table:
        m = pc.equal(t["event_type"], "purchase")
        p = t.filter(m)
        cents = pc.cast(
            pc.round(pc.multiply(p["value"], 100.0), round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return pa.table({"user_id": p["user_id"], "ts": p["ts"], "purchase_cents": cents})

    pur = ev.map_batches(purchases, batch_format="pyarrow")
    joined = asof_join(ev, pur, key="user_id", ts_col="ts",
                       tiebreak_col="event_id", direction=direction)

    def summarize(t: pa.Table) -> pa.Table:
        g = (
            t.group_by(["event_type"])
            .aggregate([("purchase_cents", "sum"), ([], "count_all")])
        )
        return g.rename_columns(["event_type", "p_sum", "p_n"])

    from ray.data.aggregate import Sum

    out = (
        joined.map_batches(summarize, batch_format="pyarrow", batch_size=131072)
        .groupby("event_type")
        .aggregate(Sum("p_sum", alias_name=out_name),
                   Sum("p_n", alias_name="n_events"))
    )
    df = out.to_pandas()
    # an all-null partial batch (a shard with no purchases in range)
    # upcasts the Sum to float64; every group has purchases at any sf
    df[out_name] = df[out_name].astype("int64")
    return df


def _q_asof_last_purchase(sf_dir: str):
    """ASOF join: for each event, the user's most recent purchase value at
    or before the event (null when none), summarized per event_type as
    exact integer cents so the comparison is order-independent."""
    return _asof_purchase_q(sf_dir, "backward", "sum_last_purchase_cents")


def _q_range_join_bands(sf_dir: str):
    """Range join: band each event's value against a small interval table
    (broadcast, searchsorted fast path); counts per band."""
    import ray.data as rd

    from logray.stages.aggregate import histogram
    from logray.stages.join import range_join

    bands = pd.DataFrame(
        {
            "band": ["b0", "b1", "b2", "b3"],
            "lo": np.array([0, 50, 100, 150], dtype="float64"),
            "hi": np.array([50, 100, 150, 10_000_000], dtype="float64"),
        }
    )
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    joined = range_join(ds, bands, value_col="value")
    return histogram(joined, "band")


def _q_overlap_join_windows(sf_dir: str):
    """Interval-overlap join: event spans [ts, ts + value minutes) vs four
    broadcast maintenance windows (disjoint -> searchsorted run fast path);
    counts per window."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.stages.aggregate import histogram
    from logray.stages.join import interval_overlap_join

    sec = np.array([[1704420000, 1704434400], [1705017600, 1705060800],
                    [1705773600, 1705780800], [1706400000, 1706486400]],
                   dtype="int64")
    wins = pd.DataFrame({"win": ["m0", "m1", "m2", "m3"],
                         "lo": sec[:, 0] * 1_000_000,
                         "hi": sec[:, 1] * 1_000_000})

    def spans(t: pa.Table) -> pa.Table:
        ts_us = pc.cast(pc.cast(t["ts"], pa.timestamp("us")), pa.int64())
        dur = pc.cast(pc.round(pc.multiply(t["value"], 60_000_000.0)),
                      pa.int64())
        return pa.table({"s": ts_us, "e": pc.add(ts_us, dur)})

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["ts", "value"])
    sp = ds.map_batches(spans, batch_format="pyarrow", zero_copy_batch=True)
    return histogram(interval_overlap_join(sp, wins, "s", "e"), "win")


def _q_turn_context(sf_dir: str):
    """Rolling 3-turn context per transcript turn (training context-window
    assembly), exact vs a SQL window list aggregate."""
    from logray.stages.reassemble import turn_context

    ds = transcripts_from_events(sf_dir)
    return turn_context(ds, window=3, sep="\n").to_pandas()


def _q_events_window(sf_dir: str):
    """Per-user ordered window: first/last event type + count."""
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts", "event_type"]
    )

    def window(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"], kind="mergesort")
        return pd.DataFrame(
            {
                "user_id": [g["user_id"].iloc[0]],
                "first_type": [g["event_type"].iloc[0]],
                "last_type": [g["event_type"].iloc[-1]],
                "n_events": np.array([len(g)], dtype="int64"),
            }
        )

    return ds.groupby("user_id").map_groups(window, batch_format="pandas").to_pandas()


# --- windows / reassembly --------------------------------------------------


def _q_dialogue_concat(sf_dir: str):
    """Bucketed dialogue folding (one Arrow kernel per bucket, not one Ray
    group per conversation)."""
    from logray.stages.reassemble import fold_dialogues

    ds = transcripts_from_events(sf_dir)
    out = fold_dialogues(ds, sep="\n").to_pandas()
    return out[["conv_id", "dialogue"]]


def _q_conv_stats(sf_dir: str):
    """Per-conversation stats with NO shuffle: per-batch Arrow partials,
    chunked driver fold (reassemble.conversation_stats)."""
    from logray.stages.reassemble import conversation_stats

    ds = transcripts_from_events(sf_dir)
    return conversation_stats(ds)


def _q_sessionize(sf_dir: str):
    import ray.data as rd

    from logray.stages.window import sessions_per_key

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "ts"])
    return sessions_per_key(ds, "user_id", gap_s=3600.0, tiebreak_col="event_id")


def _q_tumbling_window(sf_dir: str):
    import ray.data as rd

    from logray.stages.window import tumbling_window

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
    return tumbling_window(ds, key_cols="event_type", width="day")


def _q_resample_ohlc(sf_dir: str):
    import ray.data as rd

    from logray.stages.window import resample_ohlc

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_type", "ts", "value", "event_id"])
    return resample_ohlc(ds, "event_type", width_s=86400.0)


def _q_salted_histogram(sf_dir: str):
    import ray.data as rd

    from logray.stages.window import salted_histogram

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
    return salted_histogram(ds, "event_type", salt_buckets=8)


def _q_local_global(sf_dir: str):
    """Local<->global ordinal mapping over the errors view (the reference's
    jumpToLocalLine / localToGlobalLineId invariants)."""
    from logray.filters import EvalContext
    from logray.formats import LineFormat
    from logray.stages.parse import parse_stage
    from logray.stages.route import Route, Router, route_datasets
    from logray.stages.search import global_to_local, local_to_global

    fmt = LineFormat.from_format_string(GOLDEN_FORMAT)
    router = Router(
        [Route.from_decl("errors", "Level EQ ERROR", fmt)],
        ctx=EvalContext(text_col="text", line_col="turn_idx"),
    )
    ds = parse_stage(transcripts_from_events(sf_dir), GOLDEN_FORMAT)
    view = route_datasets(ds, router)["errors"]
    rows = []
    for ordinal in (0, 5, 25):
        key = local_to_global(view, ordinal)
        if key is None:
            continue
        back = global_to_local(view, key)
        rows.append(
            {
                "ordinal": ordinal,
                "conv_id": key[0],
                "turn_idx": int(key[1]),
                "roundtrip": int(back),
            }
        )
    out = pd.DataFrame(rows)
    out["ordinal"] = out["ordinal"].astype("int64")
    out["turn_idx"] = out["turn_idx"].astype("int32")
    out["roundtrip"] = out["roundtrip"].astype("int64")
    return out


# --- training-data operators ----------------------------------------------


def _pairs_out(pairs: pd.DataFrame) -> pd.DataFrame:
    """(id_a, id_b) int64 projection that keeps its columns when empty
    (an all-empty Ray Dataset loses its schema in to_pandas)."""
    if "id_a" not in pairs.columns:
        return pd.DataFrame({"id_a": np.array([], dtype="int64"), "id_b": np.array([], dtype="int64")})
    return pairs[["id_a", "id_b"]].astype("int64")


def _q_exact_dedup_docs(sf_dir: str):
    import ray.data as rd

    from logray.functions.dedup import exact_dedup

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = exact_dedup(ds).to_pandas()
    return out[["doc_id"]]


def _q_ngram_jaccard_dups(sf_dir: str):
    import ray.data as rd

    from logray.functions.dedup import ngram_jaccard_pairs

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "source", "text"]
    )
    pairs = ngram_jaccard_pairs(ds, ["lang", "source"], n=1, threshold=0.9).to_pandas()
    return _pairs_out(pairs)


def _q_containment_docs(sf_dir: str):
    """Word-set containment pairs (doc-in-doc duplication) within each
    lang partition; exact float twin (identical integer divisions)."""
    import ray.data as rd

    from logray.functions.dedup import containment_pairs

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang", "text"])
    out = containment_pairs(ds, "lang", threshold=0.9).to_pandas()
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


def _q_collocations_docs(sf_dir: str):
    """Top adjacent-bigram collocations with integer PMI ingredients
    (word2vec phrase-detection census); exact int64 twin."""
    import ray.data as rd

    from logray.functions.collocations import collocation_counts

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])
    return collocation_counts(ds, "text", min_count=3, n_top=50)


def _q_lexical_diversity_docs(sf_dir: str):
    """Per-source type/token/hapax counts + type-token ratio; the ttr
    float is a single IEEE division of exact int64 counts (bit-identical
    to the SQL twin)."""
    import ray.data as rd

    from logray.functions.collocations import lexical_diversity

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["source", "text"])
    return lexical_diversity(ds, "text", key_col="source")


def _q_sentence_split_docs(sf_dir: str):
    """Regex sentence segmentation into (doc_id, sent_idx, sentence)
    rows; both sides run the SAME RE2 boundary pattern, so the split is
    byte-exact."""
    import ray.data as rd

    from logray.functions.textclean import sentence_split

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return sentence_split(ds, "text", id_col="doc_id")


# HTML wrapper pieces shared by _q_html_extract_docs and its SQL twin:
# the documents table is plain text, so both sides compose the SAME
# synthetic markup around it (script/style/comment blocks, entities,
# block tags), then run the extraction chain.
_HTML_WRAP = (
    "<html><head><script>var x = 1 < 2;</script><style>p { }</style>"
    "</head><body><!-- hdr --><h1>Doc ",
    "</h1><p>",
    "</p><br/><div>footer &amp;lt; &nbsp;end</div></body></html>",
)


def _q_html_extract_docs(sf_dir: str):
    """HTML -> text extraction (web-crawl stage 0): wrap each document
    in deterministic markup, then run the RE2 extraction chain; the
    twin is generated from the SAME step table
    (logray/functions/textclean.py::_HTML_STEPS), so clean_text and the
    n_tags markup-density signal are byte-exact."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.functions.textclean import html_to_text

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def wrap(t: pa.Table) -> pa.Table:
        html = pc.binary_join_element_wise(
            pa.scalar(_HTML_WRAP[0]),
            pc.cast(t["doc_id"], pa.string()),
            pa.scalar(_HTML_WRAP[1]),
            t["text"],
            pa.scalar(_HTML_WRAP[2]),
            pa.scalar(""),
        )
        return t.drop_columns(["text"]).append_column("html", html)

    out = html_to_text(ds.map_batches(wrap, batch_format="pyarrow",
                                      zero_copy_batch=True), col="html")
    return out.select_columns(["doc_id", "n_tags", "clean_text"])


# link-wrap pieces shared by _q_extract_links_docs and its SQL twin
_LINK_WRAP = ('<a href="https://ex.com/', '">t</a><p>',
              '</p><img src="/img/', '.png">')


def _q_extract_links_docs(sf_dir: str):
    """Crawl-frontier link harvesting: wrap each document in markup
    carrying two deterministic links (an absolute href and a relative
    src), then run the split-algebra extractor; the SQL twin computes
    the SAME algebra, so (doc_id, link_idx, url) is byte-exact."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.functions.urlops import extract_links

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def wrap(t: pa.Table) -> pa.Table:
        ids = pc.cast(t["doc_id"], pa.string())
        html = pc.binary_join_element_wise(
            pa.scalar(_LINK_WRAP[0]), ids, pa.scalar(_LINK_WRAP[1]),
            t["text"], pa.scalar(_LINK_WRAP[2]), ids,
            pa.scalar(_LINK_WRAP[3]), pa.scalar(""))
        return pa.table({"doc_id": t["doc_id"], "text": html})

    return extract_links(ds.map_batches(wrap, batch_format="pyarrow",
                                        zero_copy_batch=True))


def _q_snapshot_diff_docs(sf_dir: str):
    """Corpus snapshot diff: old = documents; new = the deterministic
    mutation (drop doc_id%7==0, append ' v2' where doc_id%11==0, add
    fresh ids doc_id+10^7 where doc_id%13==0) — built identically in
    SQL.  The engine compares narrow 128-bit fingerprints (one ~25
    byte/doc bucket shuffle, text never moves); the oracle compares the
    text itself, proving the hash path collision-free."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.functions.snapshot import snapshot_diff

    old = rd.read_parquet(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "text"])

    def mk_new(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        keep = ids % 7 != 0
        kept_ids = ids[keep]
        kept_txt = t["text"].filter(pa.array(keep))
        if isinstance(kept_txt, pa.ChunkedArray):
            kept_txt = kept_txt.combine_chunks()
        v2 = pc.binary_join_element_wise(kept_txt, pa.scalar(" v2"),
                                         pa.scalar(""))
        merged = pc.if_else(pa.array(kept_ids % 11 == 0), v2, kept_txt)
        add = ids % 13 == 0
        add_txt = pc.binary_join_element_wise(
            pa.scalar("new doc "),
            pc.cast(pa.array(ids[add]), pa.string()), pa.scalar(""))
        return pa.table({
            "doc_id": pa.array(np.concatenate([kept_ids,
                                               ids[add] + 10_000_000])),
            "text": pa.concat_arrays([merged.combine_chunks()
                                      if isinstance(merged, pa.ChunkedArray)
                                      else merged, add_txt]),
        })

    new = rd.read_parquet(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "text"]) \
            .map_batches(mk_new, batch_format="pyarrow",
                         zero_copy_batch=True)
    return snapshot_diff(old, new, "doc_id", "text")


def _q_rebalance_docs(sf_dir: str):
    """Byte-balanced hive-sharded rewrite of the documents table
    (~64 KiB payload per shard at this scale), then a full read-back:
    the oracle checks the rewrite is lossless."""
    import tempfile

    import ray.data as rd

    from logray.functions.shards import rebalance_shards

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet")
    out_dir = tempfile.mkdtemp(prefix="logray_shards_")
    rebalance_shards(ds, out_dir, target_bytes=64 * 1024, id_col="doc_id")
    back = rd.read_parquet(out_dir)
    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    return back.select_columns(cols).to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_rebalance_resumable_docs(sf_dir: str):
    """Checkpointed byte-balanced rewrite (census + shard phases, one
    checkpoint per input file) read back whole via the path-pruned
    reader; oracle checks losslessness."""
    import tempfile

    from logray.functions.shards import (
        read_rebalanced,
        rebalance_shards_resumable,
    )

    out_dir = tempfile.mkdtemp(prefix="logray_shards_rz_")
    rebalance_shards_resumable(f"{sf_dir}/documents.parquet", out_dir,
                               target_bytes=64 * 1024, id_col="doc_id")
    back = read_rebalanced(out_dir)
    cols = ["doc_id", "text", "lang", "source", "n_chars"]
    return back.select_columns(cols).to_pandas().sort_values("doc_id").reset_index(drop=True)


def _q_embedding_dups(sf_dir: str):
    import ray.data as rd

    from logray.functions.dedup import embedding_dedup

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    # n_planes=0 => single bucket => exact all-pairs (oracle-comparable);
    # float64 so both sides do double-precision cosine
    pairs = embedding_dedup(ds, threshold=0.42, n_planes=0, dtype=np.float64).to_pandas()
    return _pairs_out(pairs)


def _q_embedding_dups_lsh(sf_dir: str):
    import ray.data as rd

    from logray.functions.dedup import embedding_dedup

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    pairs = embedding_dedup(ds, threshold=0.42, n_planes=4).to_pandas()
    return _pairs_out(pairs)


def _q_minhash_pairs(sf_dir: str):
    import ray.data as rd

    from logray.functions.dedup import minhash_lsh_dedup

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs = minhash_lsh_dedup(ds, num_perm=64, bands=16, k=5, threshold=0.8).to_pandas()
    return _pairs_out(pairs)


def _q_simhash_pairs(sf_dir: str):
    import ray.data as rd

    from logray.functions.dedup import simhash_dedup

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs = simhash_dedup(ds, max_hamming=3).to_pandas()
    return _pairs_out(pairs)


def _q_near_dedup_keep(sf_dir: str):
    """Full near-dedup closure: MinHash-LSH pairs -> connected components
    -> keep min id per cluster; returns the kept doc ids."""
    import ray.data as rd

    from logray.functions.dedup import dedup_keep_min, minhash_lsh_dedup

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    pairs = minhash_lsh_dedup(ds, num_perm=64, bands=16, k=5, threshold=0.8, distinct=False)
    kept = dedup_keep_min(ds, pairs).to_pandas()
    return kept[["doc_id"]].astype("int64")


def _q_near_dedup_best(sf_dir: str):
    """Quality-aware near-dedup: same MinHash-LSH clusters as
    near_dedup_keep, but each cluster keeps its LONGEST member
    (production keep-best policy) instead of the smallest id."""
    import ray.data as rd

    from logray.functions.dedup import dedup_keep_best, minhash_lsh_dedup

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "n_chars"])
    pairs = minhash_lsh_dedup(ds, num_perm=64, bands=16, k=5, threshold=0.8,
                              distinct=False)
    kept = dedup_keep_best(ds, pairs, score_col="n_chars").to_pandas()
    return kept[["doc_id"]].astype("int64")


def _q_ann_topk(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data as rd

    from logray.functions.ann import ann_topk

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qtab = emb.filter(pc.is_in(emb["vec_id"], value_set=pa.array([0, 1], pa.int64())))
    queries = {
        "query_id": qtab["vec_id"].to_pylist(),
        "matrix": np.stack(qtab["embedding"].to_numpy(zero_copy_only=False)),
    }
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    res = ann_topk(ds, queries, k=10, dtype=np.float64)
    out = res[["query_id", "vec_id", "rank"]].astype("int64")
    return out


def _q_ann_lsh(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data as rd

    from logray.functions.ann import ann_lsh_topk

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qtab = emb.slice(0, 2)
    queries = {
        "query_id": qtab["vec_id"].to_pylist(),
        "matrix": np.stack(qtab["embedding"].to_numpy(zero_copy_only=False)),
    }
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return ann_lsh_topk(ds, queries, k=10, n_planes=6, probes=2)


def _q_ann_ivf(sf_dir: str):
    import pyarrow.parquet as pq
    import ray.data as rd

    from logray.functions.ann import ann_ivf_topk

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qtab = emb.slice(0, 2)
    queries = {
        "query_id": qtab["vec_id"].to_pylist(),
        "matrix": np.stack(qtab["embedding"].to_numpy(zero_copy_only=False)),
    }
    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    return ann_ivf_topk(ds, queries, k=10, n_lists=8, nprobe=3)


def _q_text_stats(sf_dir: str):
    import ray.data as rd

    from logray.functions.textstats import text_stats

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = text_stats(ds, langid=False).select_columns(
        ["doc_id", "n_chars_text", "n_ws_tokens", "n_bpe_tokens"]
    ).to_pandas()
    for c in ("n_chars_text", "n_ws_tokens", "n_bpe_tokens"):
        out[c] = out[c].astype("int64")
    return out


def _q_lang_quality(sf_dir: str):
    import ray.data as rd

    from logray.functions.textstats import text_stats

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return text_stats(ds).select_columns(["doc_id", "lang_id", "quality_score"]).to_pandas()


def _q_doc_histogram(sf_dir: str):
    import ray.data as rd

    from logray.stages.aggregate import histogram

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["lang", "source"])
    return histogram(ds, ["lang", "source"])


def _q_multimodal(sf_dir: str):
    """REAL multimodal decode for ALL THREE mimes, in-container: PNG
    payloads through the pure-stdlib codec (functions/png.py), WAV
    payloads through stdlib wave, animated-GIF video payloads through
    the pure-stdlib LZW decoder (functions/gif.py) — actual
    pixels/samples/frames, no fake path, no dependencies."""
    import ray.data as rd

    from logray.functions.multimodal import (
        DecodeImageBatch,
        ExtractAudioFeaturesBatch,
        SampleFramesBatch,
        decode_stage,
        synth_media_table_real,
    )
    from logray.functions.png import decode_png

    media = synth_media_table_real(n=64, seed=42)
    imgs = rd.from_arrow(media.filter(pc.equal(media["mime"], "image/png")))
    wavs = rd.from_arrow(media.filter(pc.equal(media["mime"], "audio/wav")))
    vids = rd.from_arrow(media.filter(pc.equal(media["mime"], "image/gif")))
    img_out = decode_stage(imgs, DecodeImageBatch, concurrency=1,
                           fake=False).to_pandas()
    wav_out = decode_stage(wavs, ExtractAudioFeaturesBatch, concurrency=1,
                           fake=False).to_pandas()
    vid_out = decode_stage(vids, SampleFramesBatch, concurrency=1,
                           fake=False, n_frames=3).to_pandas()
    img_part = img_out[["media_id", "mime", "nbytes", "width", "height"]].copy()
    wav_part = wav_out[["media_id", "mime", "nbytes"]].copy()
    wav_part["width"] = wav_out["sample_rate"]
    wav_part["height"] = (wav_out["duration_s"] * 1000).astype("int64")
    vid_part = vid_out[["media_id", "mime", "nbytes"]].copy()
    # frame stats from the REAL decoded frames: sampled count + the
    # first frame's pixel width (PNG round-trip through the codec)
    vid_part["width"] = [
        decode_png(frames[0]).shape[1] if len(frames) else 0
        for frames in vid_out["frames"]
    ]
    vid_part["height"] = [len(f) for f in vid_out["frames"]]
    return (
        pd.concat([img_part, wav_part, vid_part], ignore_index=True)
        .sort_values("media_id")
        .reset_index(drop=True)
    )


def _q_fingerprints(sf_dir: str):
    """FNV-1a content hash + 64-bit SimHash per document.  Exact DuckDB
    twin: content_hash_sql (byte recursion) joined with simhash_sql
    (closed-form shingle hash + 64 bit-majority aggregates)."""
    import ray.data as rd

    from logray.functions.fingerprint import FingerprintBatch

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = ds.map_batches(
        FingerprintBatch(with_simhash=True), batch_format="pyarrow"
    ).select_columns(["doc_id", "content_hash", "simhash"]).to_pandas()
    return out


def _q_content_hash_docs(sf_dir: str):
    """64-bit FNV-1a content hash per document — the exact-gate slice
    of doc_fingerprints (whose simhash half stays rows-only): the
    DuckDB twin replays the byte recursion bit-for-bit
    (content_hash_sql)."""
    import ray.data as rd

    from logray.functions.fingerprint import FingerprintBatch

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return ds.map_batches(FingerprintBatch(), batch_format="pyarrow"
                          ).select_columns(["doc_id", "content_hash"])


def _q_model_score(sf_dir: str):
    """Model-based batch scoring stage shape: deterministic linear-probe
    'model' loaded once per actor, hashed-n-gram features per batch (the
    GPU-pool contract with num_gpus is the same stage)."""
    import ray.data as rd

    from logray.functions.modelscore import model_score_stage

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return (
        model_score_stage(ds, concurrency=(1, 4))
        .select_columns(["doc_id", "model_score"])
        .to_pandas()
    )


def _q_semi_join_customers(sf_dir: str):
    """Broadcast semi join: customers WITH at least one order (no shuffle;
    pc.is_in against the broadcast distinct key set)."""
    import ray.data as rd

    from logray.stages.join import broadcast_semi_join

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])
    keys = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    return broadcast_semi_join(cust, keys, on="c_custkey").to_pandas()


def _q_anti_join_customers(sf_dir: str):
    """Broadcast anti join: customers with NO urgent-priority order
    (selective key set read with a predicate pushdown)."""
    import ray.data as rd

    from logray.stages.join import broadcast_anti_join

    cust = rd.read_parquet(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_mktsegment"])
    keys = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_custkey"],
        filter=pc.field("o_orderpriority") == "1-URGENT",
    )
    return broadcast_anti_join(cust, keys, on="c_custkey").to_pandas()


def _orders_priority_side(sf_dir: str, prio: str):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"],
                           filter=pc.field("o_orderpriority") == prio)


def _q_intersect_users(sf_dir: str):
    """SQL INTERSECT: customers with BOTH an urgent AND a low-priority order
    (per-side local distinct combiner, one bucket shuffle; stages/setops.py)."""
    from logray.stages.setops import intersect_distinct

    return intersect_distinct(_orders_priority_side(sf_dir, "1-URGENT"),
                              _orders_priority_side(sf_dir, "5-LOW"),
                              "o_custkey").to_pandas()


def _q_except_users(sf_dir: str):
    """SQL EXCEPT: customers with an urgent order but NO low-priority order."""
    from logray.stages.setops import except_distinct

    return except_distinct(_orders_priority_side(sf_dir, "1-URGENT"),
                           _orders_priority_side(sf_dir, "5-LOW"),
                           "o_custkey").to_pandas()


def _q_heavy_hitters(sf_dir: str):
    """EXACT frequent users in two streaming passes, NO shuffle
    (Misra-Gries candidates + broadcast recount; functions/heavyhitters.py)."""
    import ray.data as rd

    from logray.functions.heavyhitters import heavy_hitters

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return heavy_hitters(ds, "user_id", threshold=0.0075)


def _q_explode_embeddings(sf_dir: str):
    """UNNEST WITH ORDINALITY over the embedding list column — pure
    per-batch Arrow kernels, fuses into the read (stages/reshape.py)."""
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.stages import explode_list

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    )
    out = explode_list(ds, "embedding", id_cols="vec_id", val_col="val")
    # exact widening to float64 so the oracle's DOUBLE column hashes equal
    return out.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("val"),
            "val",
            pc.cast(t["val"], "float64"),
        ),
        batch_format="pyarrow",
        batch_size=None,
    )


_REGEX_DOCS_PAT = r"(?P<prev>[a-z]+) (?P<kw>spark|window)"


def _q_regex_extract_docs(sf_dir: str):
    """Named-group regex extraction (RE2 both engines; non-matching rows
    null via struct-validity pushdown; functions/textclean.py)."""
    import ray.data as rd

    from logray.functions.textclean import regexp_extract

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = regexp_extract(ds, "text", _REGEX_DOCS_PAT)
    return out.select_columns(["doc_id", "prev", "kw"]).to_pandas()


def _q_clean_text(sf_dir: str):
    """Vectorized RE2 text cleaning with a bit-identical DuckDB twin
    (both engines run RE2)."""
    import ray.data as rd

    from logray.functions.textclean import clean_text

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = clean_text(ds, "text", out_col="cleaned", lower=True)
    return out.select_columns(["doc_id", "cleaned"]).to_pandas()


def _q_quantiles_price(sf_dir: str):
    """Distributed EXACT discrete quantiles by sample-guided bisection —
    streaming counting passes, no sort/shuffle/materialize
    (stages/aggregate.exact_quantiles)."""
    import ray.data as rd

    from logray.stages.aggregate import exact_quantiles

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    qs = [0.25, 0.5, 0.75, 0.9]
    got = exact_quantiles(ds, "o_totalprice", qs)
    return pd.DataFrame({"q": qs, "value": [got[q] for q in qs]})


_QUANTILES_PRICE_SQL = " UNION ALL ".join(
    f"SELECT {q} AS q, quantile_disc(o_totalprice, {q}) AS value FROM orders"
    for q in (0.25, 0.5, 0.75, 0.9)
)


def _q_quantiles_cont(sf_dir: str):
    """Interpolated (PERCENTILE_CONT) exact quantiles: both bracketing
    order statistics found in one shared bisection run, then float64
    interpolation (stages/aggregate.quantile_cont)."""
    import ray.data as rd

    from logray.stages.aggregate import quantile_cont

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    qs = [0.25, 0.5, 0.75, 0.9]
    got = quantile_cont(ds, "o_totalprice", qs)
    return pd.DataFrame({"q": qs, "value": [got[q] for q in qs]})


_QUANTILES_CONT_SQL = " UNION ALL ".join(
    f"SELECT {q} AS q, quantile_cont(o_totalprice, {q}) AS value FROM orders"
    for q in (0.25, 0.5, 0.75, 0.9)
)


def _q_ann_ivf_persist(sf_dir: str):
    """Persistent IVF: build the index once (train + partitioned write),
    answer from the saved layout with path-level partition pruning —
    repeated query batches never retrain (rows-only; recall pinned by
    unit test)."""
    import hashlib
    import os
    import shutil

    import ray.data as rd

    from logray.functions.ann import ann_ivf_query, build_ivf_index

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet")
    tag = hashlib.sha1(sf_dir.encode()).hexdigest()[:10]
    path = f"/tmp/logray_ivf_{tag}"
    shutil.rmtree(path, ignore_errors=True)
    build_ivf_index(ds, path, n_lists=8, train_sample=512)
    rows = ds.limit(4).take_all()
    q = {"query_id": [int(r["vec_id"]) for r in rows],
         "matrix": np.stack([np.asarray(r["embedding"], np.float64) for r in rows])}
    out = ann_ivf_query(path, q, k=5, nprobe=3)
    shutil.rmtree(path, ignore_errors=True)
    return out


def _q_approx_quantiles(sf_dir: str):
    """Mergeable t-digest quantile sketch (combiner-shaped, one pass):
    rows-only gate; the error bound vs quantile_disc is pinned by unit
    test (functions/sketch.py TDigest)."""
    import ray.data as rd

    from logray.functions.sketch import approx_quantiles

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    qs = [0.25, 0.5, 0.75, 0.9]
    got = approx_quantiles(ds, "o_totalprice", qs)
    return pd.DataFrame({"q": qs, "value": [got[q] for q in qs]})


def _q_chunk_docs(sf_dir: str):
    """Context-window chunking: one numpy gather per batch over the Arrow
    buffer (UTF-8-safe), exploding docs into overlapping char windows."""
    import ray.data as rd

    from logray.functions.chunking import chunk_documents

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return chunk_documents(ds, chunk_chars=200, overlap_chars=50).to_pandas()


_BPE_CACHE: dict = {}


def _bpe_for(sf_dir: str):
    """Train (once per sf_dir per process) a deterministic byte-level BPE
    vocab on a hash-sampled subset of the documents table.  Deterministic:
    the sampler is a pure hash of doc_id and the trainer breaks ties
    lexicographically, so the vocab is partitioning- and retry-stable."""
    got = _BPE_CACHE.get(sf_dir)
    if got is not None:
        return got
    import ray.data as rd

    from logray.functions.sample import sample_uniform
    from logray.functions.tokenize import train_bpe_on_dataset

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    n = docs.count()
    p = min(1.0, 400 / max(n, 1))
    sample = sample_uniform(docs, p, "doc_id", seed=17) if p < 1.0 else docs
    bpe = train_bpe_on_dataset(sample, vocab_size=512)
    _BPE_CACHE[sf_dir] = bpe
    return bpe


def _q_tokenize_bpe(sf_dir: str):
    """Trained byte-level BPE applied per batch: vocab broadcast once per
    actor, vectorized pre-tokenize + factorize + cached merge loop
    (functions/tokenize.py).  Rows-only gate (BPE ids are not
    SQL-expressible); exactness is pinned by tests/fixtures/bpe_expected
    and the lossless twin `tokenize_roundtrip`."""
    import ray.data as rd

    from logray.functions.tokenize import tokenize_bpe

    bpe = _bpe_for(sf_dir)
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    out = tokenize_bpe(docs, bpe).to_pandas()
    out["ids_sum"] = out["token_ids"].map(lambda a: int(np.asarray(a, np.int64).sum()))
    return out[["doc_id", "n_tokens", "ids_sum"]]


def _q_tokenize_roundtrip(sf_dir: str):
    """EXACT oracle for the tokenizer: byte-level BPE is lossless, so
    encode -> decode through the full distributed path must reproduce
    every document byte-for-byte; the SQL twin is simply the source
    text."""
    import ray.data as rd

    from logray.functions.tokenize import detokenize, tokenize_bpe

    bpe = _bpe_for(sf_dir)
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"],
                           filter=pc.field("text").is_valid())
    # drop the source text BEFORE decoding so the decoded column can take
    # the name "text": identical names in Ray and SQL mean the driver's
    # value-hash compares decode output against the source column
    tok = tokenize_bpe(docs, bpe).drop_columns(["text"])
    out = detokenize(tok, bpe, out_col="text")
    return out.select_columns(["doc_id", "text"]).to_pandas()


def _q_chunk_docs_tokens(sf_dir: str):
    """Token-budget context windows (token-count chunking + lossless
    decode); rows-only (token boundaries are not SQL-expressible)."""
    import ray.data as rd

    from logray.functions.tokenize import chunk_documents_tokens

    bpe = _bpe_for(sf_dir)
    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])
    ch = chunk_documents_tokens(docs, bpe, max_tokens=128, overlap_tokens=32)
    return ch.select_columns(["doc_id", "chunk_idx", "n_tokens"]).to_pandas()


def _q_stratified_split(sf_dir: str):
    """Deterministic train/val/test split counts (pure hash function of
    the id — stable under repartitioning and incremental reprocessing)."""
    import ray.data as rd

    from logray.functions.sample import stratified_split
    from logray.stages.aggregate import histogram

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    tagged = stratified_split(
        ds, {"train": 0.8, "val": 0.1, "test": 0.1}, "doc_id", seed=5
    )
    return histogram(tagged, "split")


def _q_topk_per_key(sf_dir: str):
    """Top-3 orders per priority by price (per-batch prune + bucketed
    vectorized selection; deterministic tiebreak)."""
    import ray.data as rd

    from logray.stages.aggregate import topk_per_key

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderpriority", "o_orderkey", "o_totalprice"],
    )
    return topk_per_key(
        ds, "o_orderpriority", "o_totalprice", 3, descending=True,
        tiebreak_col="o_orderkey",
    ).to_pandas()


def _q_hopping_window(sf_dir: str):
    """Hopping (sliding) window counts: 1h windows every 15min per
    event_type (vectorized explode + histogram partials)."""
    import ray.data as rd

    from logray.stages.window import hopping_window

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts"])
    return hopping_window(ds, "ts", width_s=3600.0, hop_s=900.0,
                          key_cols="event_type")



def _cents_stage(ds, src_col: str = "value", out_col: str = "cents"):
    """Shared engine-side money rule (the twin of the _CENTS SQL constant):
    integer cents via round-half-away-from-zero, replacing src_col."""

    def to_cents(t: pa.Table) -> pa.Table:
        c = pc.cast(
            pc.round(pc.multiply(t[src_col], 100.0),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        return t.drop_columns([src_col]).append_column(out_col, c)

    return ds.map_batches(to_cents, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)


def _q_lag_lead_events(sf_dir: str):
    """Per-user LAG/LEAD navigation over the event stream (bucketed
    shuffle + segmented vectorized shift; SQL-window exact)."""
    import ray.data as rd

    from logray.stages.windowfn import lag_lead

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "value"]
    )
    return lag_lead(
        ds, "user_id", "ts", "value", n=1, tiebreak_col="event_id"
    ).to_pandas()


def _q_approx_quantiles_grouped(sf_dir: str):
    """Per-key t-digest quantiles (combiner-shaped: only tiny digest
    partials cross the wire; rows-only gate, 2% error bound pinned by
    unit test vs quantile_cont)."""
    import ray.data as rd

    from logray.functions.sketch import approx_quantiles_grouped

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    )
    return approx_quantiles_grouped(
        ds, "o_orderpriority", "o_totalprice", [0.5, 0.9]
    ).to_pandas()


def _q_cumulative_events(sf_dir: str):
    """Per-user running totals (EXPANDING frame = ROWS UNBOUNDED
    PRECEDING; same cumsum kernel with lo pinned at the run start)."""
    import ray.data as rd

    from logray.stages.windowfn import rolling_agg

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "value"]
    )

    ds = _cents_stage(ds)
    return rolling_agg(
        ds, "user_id", "ts", "cents", window=None, tiebreak_col="event_id"
    ).to_pandas()


def _q_collect_events(sf_dir: str):
    """Ordered ARRAY_AGG per user (inverse of explode; one bucket
    shuffle + run-boundary split; stages/reshape.py)."""
    import ray.data as rd

    from logray.stages.reshape import collect_list

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"])
    return collect_list(
        ds, "user_id", "event_id", "ts", tiebreak_col="event_id",
        out_col="event_ids",
    ).to_pandas()


def _q_rank_orders(sf_dir: str):
    """ROW_NUMBER / RANK / DENSE_RANK per customer over order dates
    (bucketed shuffle + one segmented vectorized pass; ties on the date
    exercise the rank-vs-dense-rank gap)."""
    import ray.data as rd

    from logray.stages.windowfn import rank_window

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    return rank_window(
        ds, "o_custkey", "o_orderdate", tiebreak_col="o_orderkey", ntile=4
    ).to_pandas()


def _q_rolling_events(sf_dir: str):
    """Trailing 4-row rolling sum/count/mean of event value (cents) per
    user — cumsum-difference kernel, exact vs a SQL ROWS frame."""
    import ray.data as rd

    from logray.stages.windowfn import rolling_agg

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "value"]
    )

    ds = _cents_stage(ds)
    return rolling_agg(
        ds, "user_id", "ts", "cents", window=4, tiebreak_col="event_id"
    ).to_pandas()


def _q_range_rolling_events(sf_dir: str):
    """Time-interval trailing frame: 1-hour RANGE rolling sum/count/mean
    of event cents per user (single searchsorted pair on a per-run lifted
    axis; exact vs a SQL RANGE frame including the peers-after-current
    rule)."""
    import ray.data as rd

    from logray.stages.windowfn import rolling_agg_range

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "value"]
    )

    def prep(t: pa.Table) -> pa.Table:
        cents = pc.cast(
            pc.round(pc.multiply(t["value"], 100.0), round_mode="half_towards_infinity"),
            pa.int64(),
        )
        # timestamp[us] -> epoch microseconds (zero-copy int64 view)
        ts_us = pc.cast(t["ts"], pa.int64())
        return pa.table({"user_id": t["user_id"], "ts_us": ts_us, "cents": cents})

    ds = ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    return rolling_agg_range(
        ds, "user_id", "ts_us", "cents", preceding=3_600_000_000
    ).to_pandas()


def _q_pct_rank_orders(sf_dir: str):
    """PERCENT_RANK / CUME_DIST per customer over order dates — exact-int
    ratios divided once in float64, bit-identical to the SQL window
    doubles."""
    import ray.data as rd

    from logray.stages.windowfn import rank_window

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    return rank_window(
        ds, "o_custkey", "o_orderdate", tiebreak_col="o_orderkey", pct=True
    ).to_pandas()


_PII_SUFFIX_SQL = (
    "text || ' contact user' || CAST(doc_id AS VARCHAR) || "
    "'@example.com ip 10.0.' || CAST(doc_id % 256 AS VARCHAR) || "
    "'.7 call +1 (415) 555-0199 ssn 123-45-6789'"
)


def _q_pii_redact(sf_dir: str):
    """PII scrubbing: synthesize deterministic PII into every document,
    then redact with the shared RE2 rule chain (bit-identical to the
    DuckDB regexp_replace twin)."""
    import ray.data as rd

    from logray.functions.pii import redact_pii_table

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def seed_and_redact(t: pa.Table) -> pa.Table:
        did = pc.cast(t["doc_id"], pa.string())
        # doc_id % 256 (ids are non-negative) == doc_id & 255
        mod = pc.cast(pc.bit_wise_and(t["doc_id"], 255), pa.string())
        seeded = pc.binary_join_element_wise(
            t["text"], " contact user", did, "@example.com ip 10.0.", mod,
            ".7 call +1 (415) 555-0199 ssn 123-45-6789", "",
        )
        t = pa.table({"doc_id": t["doc_id"], "text": seeded})
        return redact_pii_table(t, "text", out_col="redacted").drop_columns(["text"])

    return ds.map_batches(seed_and_redact, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None).to_pandas()


# Deterministic URL seeding for the URL-operator family: every branch of
# the parser/normalizer grammar is exercised (www. prefix, multi-part
# public suffix, default port, trailing slash, query string, fragment).
# The Arrow seeder and this SQL expression produce identical strings.
_URL_SEED_SQL = (
    "'http' || CASE WHEN doc_id % 11 = 0 THEN '' ELSE 's' END || '://' || "
    "CASE WHEN doc_id % 3 = 0 THEN 'www.' ELSE '' END || source || "
    "CASE WHEN doc_id % 5 = 0 THEN '.co.uk' ELSE '.com' END || "
    "CASE WHEN doc_id % 7 = 0 THEN ':443' ELSE '' END || "
    "'/docs/' || CAST(doc_id AS VARCHAR) || "
    "CASE WHEN doc_id % 2 = 0 THEN '/' ELSE '' END || "
    "CASE WHEN doc_id % 4 = 0 THEN '?utm_source=x&id=' || CAST(doc_id AS VARCHAR) "
    "ELSE '' END || "
    "CASE WHEN doc_id % 6 = 0 THEN '#sec' || CAST(doc_id % 9 AS VARCHAR) "
    "ELSE '' END"
)


def _seed_urls(t: pa.Table) -> pa.Table:
    """Arrow twin of ``_URL_SEED_SQL`` (doc_ids are non-negative, so
    Arrow integer divide == SQL %-semantics)."""
    did = t["doc_id"]
    dids = pc.cast(did, pa.string())

    def _mod(m: int):
        return pc.subtract(did, pc.multiply(pc.divide(did, m), m))

    def _piece(m: int, yes, no=""):
        return pc.if_else(pc.equal(_mod(m), 0), pa.scalar(yes), pa.scalar(no))

    url = pc.binary_join_element_wise(
        "http", _piece(11, "", "s"), "://", _piece(3, "www."), t["source"],
        _piece(5, ".co.uk", ".com"), _piece(7, ":443"), "/docs/", dids,
        _piece(2, "/"),
        pc.if_else(pc.equal(_mod(4), 0),
                   pc.binary_join_element_wise("?utm_source=x&id=", dids, ""),
                   pa.scalar("")),
        pc.if_else(pc.equal(_mod(6), 0),
                   pc.binary_join_element_wise(
                       "#sec", pc.cast(_mod(9), pa.string()), ""),
                   pa.scalar("")),
        "",
    )
    return pa.table({"doc_id": did, "url": url})


def _q_url_parse(sf_dir: str):
    """URL component extraction + canonical normalization over a
    deterministically seeded URL column (exact DuckDB string-fn twin)."""
    import ray.data as rd

    from logray.functions.urlops import normalize_url_table, parse_url_table

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source"])

    def f(t: pa.Table) -> pa.Table:
        t = normalize_url_table(parse_url_table(_seed_urls(t)))
        t = t.rename_columns(
            ["url_query" if c == "query" else c for c in t.column_names])
        return t.drop_columns(["url"])

    return ds.map_batches(f, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None).to_pandas()


def _q_domain_quota(sf_dir: str):
    """RefinedWeb-style domain balancing: keep the 7 smallest doc_ids per
    registered domain (ONE bucket shuffle; exact row_number() twin)."""
    import ray.data as rd

    from logray.functions.urlops import domain_quota

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source"])
    seeded = ds.map_batches(_seed_urls, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
    kept = domain_quota(seeded, id_col="doc_id", url_col="url",
                        max_per_domain=7)
    df = kept.select_columns(["doc_id", "registered_domain"]).to_pandas()
    return df.sort_values("doc_id", ignore_index=True)


def _q_domain_quota_narrow(sf_dir: str):
    """The 100 TB quota plan: only (domain, id) shuffles; document rows
    never enter a shuffle (thresholds broadcast, second pass filters
    row-locally).  Same exact row_number() twin as the full plan."""
    import ray.data as rd

    from logray.functions.urlops import domain_quota

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source"])
    seeded = ds.map_batches(_seed_urls, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
    kept = domain_quota(seeded, id_col="doc_id", url_col="url",
                        max_per_domain=7, mode="narrow")
    df = kept.select_columns(["doc_id", "registered_domain"]).to_pandas()
    return df.sort_values("doc_id", ignore_index=True)


def _q_url_blocklist(sf_dir: str):
    """Broadcast domain-blocklist filter (vectorized is_in per batch),
    then parse the survivors' hosts for the oracle comparison."""
    import ray.data as rd

    from logray.functions.urlops import blocklist_filter, parse_urls

    blocked = ["src1.com", "src3.co.uk", "src7.com", "src2.co.uk"]
    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source"])
    seeded = ds.map_batches(_seed_urls, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
    kept = parse_urls(blocklist_filter(seeded, blocked))
    return kept.select_columns(
        ["doc_id", "host", "registered_domain"]).to_pandas()


def _q_quality_classifier(sf_dir: str):
    """Distributed trained quality classifier: seed a deterministic
    label signal (three marker tokens appended when doc_id%3==0), fit
    hashed-feature logistic regression with full-batch GD (one streaming
    pass per epoch, gradient partials only), score row-locally.  The
    fitted model separates the classes completely, so the predictions
    match the label rule exactly — which is what the SQL twin checks."""
    import ray.data as rd

    from logray.functions.classifier import fit_logreg, score_logreg

    def seed(t: pa.Table) -> pa.Table:
        did = t["doc_id"]
        lab = pc.equal(pc.subtract(did, pc.multiply(pc.divide(did, 3), 3)), 0)
        # three DISTINCT markers: a single hash collision cannot flip a
        # prediction (plus their bigrams, five discriminative buckets)
        marked = pc.if_else(
            lab,
            pc.binary_join_element_wise(t["text"], " qgooda qgoodb qgoodc", ""),
            t["text"])
        return pa.table({"doc_id": did, "text": marked, "label": lab})

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    seeded = ds.map_batches(seed, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
    model = fit_logreg(seeded, "label", dim=4096, epochs=24, lr=5.0,
                       id_col="doc_id", features="binary")
    out = score_logreg(seeded, model, features="binary")
    return out.select_columns(["doc_id", "quality_pred"]).to_pandas()


def _q_pca_embeddings(sf_dir: str):
    """Distributed PCA: one moments pass + driver eigh, then row-local
    whitened projection of every embedding to 4 components (no SQL twin
    — eigendecomposition; pinned by test_mlops vs exact numpy PCA)."""
    import ray.data as rd

    from logray.functions.pca import fit_pca, project_pca

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    model = fit_pca(ds, col="embedding", k=4, id_col="vec_id")
    out = project_pca(ds, model, col="embedding", whiten=True).to_pandas()
    pcs = np.stack(out["pca"].to_numpy())
    for i in range(4):
        out[f"pc{i}"] = pcs[:, i]
    return out.drop(columns=["pca"]).sort_values("vec_id",
                                                 ignore_index=True)


def _q_group_split(sf_dir: str):
    """Leakage-free grouped split: every event of a user lands in the
    same train/val/test bucket (key-hash draw; exact Knuth-hash twin)."""
    import ray.data as rd

    from logray.functions.sample import group_split

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id"])
    out = group_split(ds, {"train": 0.8, "val": 0.1, "test": 0.1},
                      "user_id", seed=9)
    return out.to_pandas()


def _q_cm_counts(sf_dir: str):
    """Count-Min sketch probe of the five event types: one streaming
    64 KiB-partial fold, no shuffle.  The column has exactly five
    distinct values, so the sketch rows are collision-free and the
    estimates equal GROUP BY counts exactly — which the twin checks."""
    import ray.data as rd

    from logray.functions.sketch import cm_counts

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type"])
    out = cm_counts(ds, "event_type", _EVENT_TYPES, key_type=pa.string())
    out["approx_count"] = out["approx_count"].astype("int64")
    return out


def _q_temperature_mix(sf_dir: str):
    """Temperature-flattened source mixing (alpha=0.5): one counts pass
    computes per-source rates N*c^a/S/c, then the deterministic mixture
    expansion up/downsamples rows; self-contained SQL twin recomputes
    the rates in DuckDB."""
    import ray.data as rd

    from logray.functions.sample import temperature_mixture

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source"])
    return temperature_mixture(ds, "source", "doc_id", alpha=0.5,
                               seed=4).to_pandas()


_BANNED_WORDS = ["spark", "window", "merge"]


def _q_wordlist_flag(sf_dir: str):
    """C4-style banned-wordlist audit: per-doc whole-word hit counts
    (one vectorized RE2 scan; exact DuckDB twin)."""
    import ray.data as rd

    from logray.functions.quality import wordlist_filter

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return wordlist_filter(ds, _BANNED_WORDS, mode="flag")         .select_columns(["doc_id", "n_banned"]).to_pandas()


def _q_wordlist_drop(sf_dir: str):
    """The drop side of the gate: documents containing any banned word
    are removed."""
    import ray.data as rd

    from logray.functions.quality import wordlist_filter

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return wordlist_filter(ds, _BANNED_WORDS, mode="drop")         .select_columns(["doc_id"]).to_pandas()


def _url_parse_docs_sql() -> str:
    from logray.functions.urlops import normalize_url_sql, parse_url_sql

    parts = parse_url_sql("url")
    cols = ", ".join(
        f"{expr} AS {'url_query' if name == 'query' else name}"
        for name, expr in parts.items()
    )
    return (
        f"SELECT doc_id, {cols}, {normalize_url_sql('url')} AS url_norm "
        f"FROM (SELECT doc_id, {_URL_SEED_SQL} AS url FROM documents)"
    )


def _domain_quota_docs_sql() -> str:
    from logray.functions.urlops import registered_domain_sql

    return f"""
        SELECT doc_id, registered_domain FROM (
          SELECT doc_id, {registered_domain_sql('url')} AS registered_domain,
                 row_number() OVER (
                   PARTITION BY {registered_domain_sql('url')}
                   ORDER BY doc_id) AS rn
          FROM (SELECT doc_id, {_URL_SEED_SQL} AS url FROM documents))
        WHERE rn <= 7 ORDER BY doc_id
    """


def _url_blocklist_docs_sql() -> str:
    from logray.functions.urlops import parse_url_sql

    parts = parse_url_sql("url")
    return f"""
        SELECT doc_id, host, registered_domain FROM (
          SELECT doc_id, {parts['host']} AS host,
                 {parts['registered_domain']} AS registered_domain
          FROM (SELECT doc_id, {_URL_SEED_SQL} AS url FROM documents))
        WHERE registered_domain NOT IN
              ('src1.com', 'src3.co.uk', 'src7.com', 'src2.co.uk')
    """


def _q_gopher_quality(sf_dir: str):
    """Gopher repetition/quality metrics + keep flag per document (one
    vectorized pass; exact DuckDB twin over line/word groupings)."""
    import ray.data as rd

    from logray.functions.quality import gopher_quality

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return gopher_quality(ds).to_pandas()


def _q_top_ngram_repetition(sf_dir: str):
    """Most-frequent-2-gram character fraction per document (Gopher
    repetition rule).  Exact DuckDB twin: the winning GRAM under ties
    is engine-defined, but ties resolve by (count, char mass) and equal
    pairs yield the identical FRACTION, so the reported number is
    deterministic (top_ngram_char_fraction_sql)."""
    import ray.data as rd

    from logray.functions.quality import top_ngram_char_fraction

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return top_ngram_char_fraction(ds, n=2).to_pandas()


_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


def _q_pivot_events(sf_dir: str):
    """Wide per-user crosstab of event-type counts (long partials folded,
    widened only after the fold; fixed column schema)."""
    import ray.data as rd

    from logray.stages.aggregate import pivot_agg

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    return pivot_agg(ds, "user_id", "event_type", pivot_values=_EVENT_TYPES)


def _q_bm25_search(sf_dir: str):
    """BM25 top-10 documents for three keyword queries — query-vocab df
    stats pass + matmul scoring pass + tree-reduce winner merge (no
    global inverted index).  Float score ordering has no bit-exact SQL
    twin; correctness is pinned by unit tests vs a naive reference."""
    import ray.data as rd

    from logray.functions.search_text import bm25_topk

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return bm25_topk(
        ds,
        [(0, "hash join strategy"), (1, "window aggregate"), (2, "vector scan")],
        k=10,
    )


def _q_bm25_index_search(sf_dir: str):
    """Persistent inverted index path: build the hive-sharded postings
    index once (one corpus pass), then answer the same three queries
    from it with path-pruned shard reads — the frozen-corpus search
    service plan.  Unit tests pin score equality with the scan-based
    bm25_topk; float ordering has no bit-exact SQL twin."""
    import tempfile

    import ray.data as rd

    from logray.functions.search_text import (bm25_search_index,
                                              build_text_index)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    idx = tempfile.mkdtemp(prefix="logray_bm25_idx_")
    try:
        build_text_index(ds, idx, num_shards=8)
        return bm25_search_index(
            idx,
            [(0, "hash join strategy"), (1, "window aggregate"),
             (2, "vector scan")],
            k=10,
        )
    finally:
        import shutil

        shutil.rmtree(idx, ignore_errors=True)


def _q_bm25_compact_search(sf_dir: str):
    """Index maintenance path: build the postings index, COMPACT it to
    one file per shard in a fresh directory (compact_index — the
    crash-safe meta-last generation swap), and answer the same queries
    from the compacted generation.  Rows-only (float scores), but the
    unit + smoke gates pin byte-equality of results across
    generations."""
    import shutil
    import tempfile

    import ray.data as rd

    from logray.functions.indexbase import compact_index
    from logray.functions.search_text import (bm25_search_index,
                                              build_text_index)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    idx = tempfile.mkdtemp(prefix="logray_bm25_csrc_")
    dst = idx + "-gen2"
    try:
        build_text_index(ds, idx, num_shards=8)
        compact_index(idx, dst)
        return bm25_search_index(
            dst,
            [(0, "hash join strategy"), (1, "window aggregate"),
             (2, "vector scan")],
            k=10,
        )
    finally:
        shutil.rmtree(idx, ignore_errors=True)
        shutil.rmtree(dst, ignore_errors=True)


def _q_bm25_index_resumable(sf_dir: str):
    """Same search as bm25_index_search but through the
    manifest-checkpointed resumable builder (one partition per input
    file, sidecar committed last) — rows-only at the gate; exact
    equality with the single-shot build is test-pinned."""
    import shutil
    import tempfile

    from logray.functions.search_text import (bm25_search_index,
                                              build_text_index_resumable)

    idx = tempfile.mkdtemp(prefix="logray_bm25_ridx_")
    shutil.rmtree(idx)  # builder wants to own the layout from scratch
    build_text_index_resumable(f"{sf_dir}/documents.parquet", idx,
                               num_shards=8)
    return bm25_search_index(
        idx,
        [(0, "hash join strategy"), (1, "window aggregate"),
         (2, "vector scan")],
        k=10,
    )


def _q_decontaminate(sf_dir: str):
    """Benchmark decontamination: flag documents sharing any 6-word-gram
    with the held-out eval slice (doc_id % 37 == 0) — broadcast n-gram
    index + vectorized membership probe, no join/shuffle."""
    import ray.data as rd

    from logray.functions.decontam import build_contamination_index, flag_contaminated

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def eval_slice(t: pa.Table) -> pa.Table:
        mod = pc.subtract(t["doc_id"], pc.multiply(pc.divide(t["doc_id"], 37), 37))
        return t.filter(pc.equal(mod, 0))

    ev = ds.map_batches(eval_slice, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    idx = build_contamination_index(ev, n=6)
    return flag_contaminated(ds, idx, n=6).to_pandas()


def _q_grouped_quantiles(sf_dir: str):
    """Per-key exact discrete quantiles (bucketed segmented-index pass)."""
    import ray.data as rd

    from logray.stages.aggregate import grouped_quantiles

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_totalprice"]
    )
    return grouped_quantiles(
        ds, "o_orderpriority", "o_totalprice", [0.5, 0.9]
    ).to_pandas()


def _q_approx_distinct(sf_dir: str):
    """HyperLogLog approximate distinct customers with orders (p=14,
    ~0.8% expected error; deterministic across partitionings)."""
    import ray.data as rd

    from logray.functions.sketch import approx_distinct

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    est = approx_distinct(ds, "o_custkey", p=14)
    return pd.DataFrame({"metric": ["approx_distinct_custkey"], "value": [est]})


def _q_sample_uniform(sf_dir: str):
    """Deterministic hash-based Bernoulli sample (reproducible across runs,
    partitionings and cluster sizes; exact SQL twin)."""
    import ray.data as rd

    from logray.functions.sample import sample_uniform

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderpriority"],
    )
    return sample_uniform(ds, 0.1, "o_orderkey", seed=12345).to_pandas()


def _q_reservoir_sample(sf_dir: str):
    """Deterministic bottom-k reservoir per key (3 orders per priority)."""
    import ray.data as rd

    from logray.functions.sample import reservoir_per_key

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderpriority", "o_orderkey"]
    )
    return reservoir_per_key(
        ds, "o_orderpriority", 3, "o_orderkey", seed=7
    ).to_pandas()


def _q_standardize_events(sf_dir: str):
    """Per-event-type z-scores of event cents: exact-moment fit (no
    shuffle) broadcast into a per-batch transform; bit-exact vs SQL."""
    import ray.data as rd

    from logray.stages.stats import standardize

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )

    ds = _cents_stage(ds)
    return standardize(ds, "event_type", "cents").to_pandas()


def _q_winsorize_events(sf_dir: str):
    """Per-event-type outlier clipping of cents into exact [5%, 95%]
    quantile_disc bounds — quantile fit pass + broadcast clamp."""
    import ray.data as rd

    from logray.stages.stats import winsorize

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "value"]
    )
    ds = _cents_stage(ds)
    return winsorize(ds, "event_type", "cents", 0.05, 0.95).to_pandas()


def _q_outer_join(sf_dir: str):
    """FULL OUTER hash join of per-customer order counts against the
    customer table: unmatched rows on BOTH sides survive null-extended
    (bucketed shuffle join — broadcast_join correctly refuses outer)."""
    import ray.data as rd

    from logray.stages.aggregate import histogram
    from logray.stages.join import hash_join

    orders = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_custkey"])
    counts = histogram(orders, ["o_custkey"], as_pandas=False)
    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    joined = hash_join(
        counts, cust, on="o_custkey", right_on="c_custkey", how="outer",
    ).to_pandas()
    # nullable outer-join columns are float64 on both sides (pandas
    # upcasts; the oracle CASTs to DOUBLE)
    for c in ("o_custkey", "n", "c_custkey"):
        joined[c] = joined[c].astype("float64")
    return joined[["o_custkey", "n", "c_custkey", "c_mktsegment"]]


def _q_tfidf_docs(sf_dir: str):
    """Hashed TF-IDF vectors over documents; the query projects the
    SQL-expressible (doc_id, n_terms) for the exact oracle — embedding
    values are pinned bit-exactly by the unit-test reference replica."""
    import ray.data as rd

    from logray.functions.tfidf import tfidf_vectors

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    out = tfidf_vectors(ds, dim=256).to_pandas()
    return out[["doc_id", "n_terms"]]


def _q_unpivot_lineitem(sf_dir: str):
    """UNPIVOT lineitem's four measures into long (name, value) rows —
    the inverse of pivot_agg; per-batch Arrow, no shuffle."""
    import ray.data as rd

    from logray.stages.reshape import unpivot

    ds = rd.read_parquet(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax"],
    )
    return unpivot(
        ds, ["l_orderkey", "l_linenumber"],
        ["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
    ).to_pandas()


def _q_rollup_orders(sf_dir: str):
    """GROUP BY ROLLUP (status, priority) over order price cents: exact
    sums at every hierarchy level from one pass of finest-level partials."""
    import ray.data as rd

    from logray.stages.aggregate import rollup_agg

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"],
    )

    ds = _cents_stage(ds, src_col="o_totalprice")
    return rollup_agg(ds, ["o_orderstatus", "o_orderpriority"], "cents")


def _q_binned_histogram(sf_dir: str):
    """Fixed-width histogram of order price cents (integer bins,
    one count-vector partial per batch, no shuffle; empty bins kept)."""
    import ray.data as rd

    from logray.stages.aggregate import binned_histogram

    ds = rd.read_parquet(f"{sf_dir}/orders.parquet", columns=["o_totalprice"])
    ds = _cents_stage(ds, src_col="o_totalprice")
    return binned_histogram(ds, "cents", lo=0, width=2_000_000, nbins=16)


def _q_weighted_sample(sf_dir: str):
    """Deterministic weighted sample (Efraimidis-Spirakis race): 100
    orders drawn with probability following price cents.  No SQL twin
    (ln differs by ulps across engines) — exactness is pinned by the
    driver-side replica test."""
    import ray.data as rd

    from logray.functions.sample import weighted_sample

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
    )
    ds = _cents_stage(ds, src_col="o_totalprice")
    return weighted_sample(ds, 100, "o_orderkey", "cents", seed=21)


def _q_mode_event_type(sf_dir: str):
    """Deterministic MODE per user: most frequent event_type, ties to
    the smallest value (count combiner + one bucket shuffle)."""
    import ray.data as rd

    from logray.stages.aggregate import mode_per_key

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_type"]
    )
    return mode_per_key(ds, "user_id", "event_type")


def _q_argmax_events(sf_dir: str):
    """ARG_MAX per user: the event_id of the highest-value event
    (shuffle-free — per-batch best-row combiner + driver stream-fold)."""
    import ray.data as rd

    from logray.stages.aggregate import arg_extreme

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "event_id", "value"]
    )
    return arg_extreme(ds, "user_id", "event_id", "value", how="max")


def _q_fill_forward_events(sf_dir: str):
    """Gap-fill: LAST_VALUE(click value IGNORE NULLS) per user over the
    event stream — the nullable column is derived identically on both
    sides (value where event_type='click')."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.stages.windowfn import fill_forward

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type", "value"],
    )

    def derive(t: pa.Table) -> pa.Table:
        cv = pc.if_else(pc.equal(t["event_type"], "click"), t["value"],
                        pa.scalar(None, pa.float64()))
        return t.drop_columns(["event_type", "value"]).append_column(
            "click_value", cv)

    ds = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    return fill_forward(
        ds, "user_id", "ts", "click_value", tiebreak_col="event_id"
    ).to_pandas()


def _q_dedup_spans_docs(sf_dir: str):
    """Duplicate-substring removal (Lee et al. ExactSubstr, word-level):
    corpus-duplicated 5-gram spans cut from every document (gram-census
    combiner + one bucket shuffle + broadcast mark-and-cut)."""
    import ray.data as rd

    from logray.functions.spandedup import dedup_spans

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return dedup_spans(ds, window=5).to_pandas()


def _q_dedup_spans_bytes(sf_dir: str):
    """TRUE byte-level ExactSubstr (Lee et al. §4.1): every duplicated
    20-byte substring at ANY byte alignment cut from every document —
    O(n) prefix rolling hashes over the Arrow values buffer, census
    combiner + one bucket shuffle + broadcast mark-and-cut."""
    import ray.data as rd

    from logray.functions.spandedup import dedup_spans_bytes

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return dedup_spans_bytes(ds, window=20).to_pandas()


def _q_edit_distance_dups(sf_dir: str):
    """Pair-vectorized Levenshtein verification within (lang, source)
    candidate groups — 64-codepoint prefixes, DuckDB levenshtein-exact."""
    import ray.data as rd

    from logray.functions.dedup import edit_distance_pairs

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "lang", "source"],
    )
    return edit_distance_pairs(ds, ["lang", "source"], max_dist=55).to_pandas()


def _q_transition_skew(sf_dir: str):
    """Same first-order transition counts through the SKEW-SAFE plan
    (range-sorted blocks + driver seam stitch — per-task memory is
    block-bounded even under a single dominant key)."""
    import ray.data as rd

    from logray.stages.sequence import transition_counts

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return transition_counts(ds, "user_id", "ts", "event_type",
                             tiebreak_col="event_id", skew_safe=True)


def _q_semdedup(sf_dir: str):
    """SemDeDup (Abbas et al. 2023) verdicts: k-means the embedding
    space (streaming, bit-deterministic fit), then inside each cluster
    mark items whose cosine to a lower-id member reaches eps.  Rows-only
    (the k-means fit has no SQL twin); the triangular-max rule is pinned
    exactly against a brute-force twin in tests/test_functions.py."""
    import ray.data as rd

    from logray.functions.semdedup import semdedup_verdicts

    ds = rd.read_parquet(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    out = semdedup_verdicts(ds, k=8, eps=0.42, iters=5).to_pandas()
    return out.sort_values("vec_id").reset_index(drop=True)


def _q_dsir_sample(sf_dir: str):
    """DSIR (Xie et al. 2023): hashed-ngram importance weights of every
    document against a German-target corpus, Gumbel-top-100 selection.
    Rows-only (feature hashing has no SQL twin); weights are pinned
    exactly against a pure-Python twin in tests/test_functions.py."""
    import ray.data as rd

    from logray.functions.dsir import dsir_sample

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang", "text"])
    target = docs.filter(expr="lang == 'de'").select_columns(
        ["doc_id", "text"])
    return dsir_sample(docs.select_columns(["doc_id", "text"]), target,
                       n=100, dim=2048, seed=11)


def _q_profile_events(sf_dir: str):
    """Audit profile of the events table: per-column row / null /
    exact-distinct counts (one streaming counts pass + one pruned
    single-column groupby per column).  Exact SQL twin."""
    import ray.data as rd

    from logray.stages.profile import table_profile

    cols = ["event_id", "ts", "user_id", "event_type", "value"]
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=cols)
    return table_profile(ds, columns=cols)


def _q_dedup_incremental(sf_dir: str):
    """Cross-snapshot incremental dedup: persist a 128-bit fingerprint
    index of the English snapshot, then filter every OTHER document
    against it (the continuous-crawl flow — new snapshot vs all prior
    months, sharded membership plan).  Exact SQL twin: anti-join on
    text (null text is never a duplicate)."""
    import shutil
    import tempfile

    import ray.data as rd

    from logray.functions.dedup_incremental import (build_hash_index,
                                                    dedup_against_index)

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")
    idx_dir = tempfile.mkdtemp(prefix="logray_incdedup_")
    try:
        build_hash_index(docs.filter(expr="lang == 'en'"), idx_dir,
                         num_shards=8)
        out = dedup_against_index(docs.filter(expr="lang != 'en'"),
                                  idx_dir, mode="sharded").to_pandas()
    finally:
        shutil.rmtree(idx_dir, ignore_errors=True)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_near_dup_incremental(sf_dir: str):
    """Incremental NEAR-dup: persist a MinHash band index of the
    English snapshot, drop every other document that LSH-collides with
    it (pure candidate rule, sharded probe).  Exact DuckDB twin: two
    band_rows_sql instances (new vs indexed subset) joined on
    (band_id, hash); exact-copy/short-doc/append invariants also
    pinned in tests."""
    import shutil
    import tempfile

    import ray.data as rd

    from logray.functions.neardup_incremental import (
        build_band_index, dedup_near_against_index)

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet")
    idx_dir = tempfile.mkdtemp(prefix="logray_bandidx_")
    try:
        build_band_index(docs.filter(expr="lang == 'en'"), idx_dir,
                         num_shards=4)
        out = dedup_near_against_index(docs.filter(expr="lang != 'en'"),
                                       idx_dir, mode="sharded").to_pandas()
    finally:
        shutil.rmtree(idx_dir, ignore_errors=True)
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_lm_perplexity(sf_dir: str):
    """CCNet-style perplexity scoring: fit a hashed 3-gram Stupid
    Backoff LM on the English documents, score EVERY document; low ppl
    = looks like the reference corpus.  Rows-only (hashed gram space
    has no SQL twin); scores are pinned exactly against a pure-Python
    twin in tests/test_functions.py."""
    import ray.data as rd

    from logray.functions.lm import fit_ngram_lm, lm_perplexity

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang", "text"])
    ref = docs.filter(expr="lang == 'en'").select_columns(["doc_id", "text"])
    fitted = fit_ngram_lm(ref, n=3, dim=1 << 14)
    out = lm_perplexity(docs.select_columns(["doc_id", "text"]), fitted,
                        dim=1 << 14).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_ppl_buckets(sf_dir: str):
    """CCNet head/middle/tail split: per-language perplexity terciles
    under the English-fitted LM tag every document head (in-domain),
    middle or tail.  Rows-only (hashed LM); the tercile selector is the
    exact-oracled grouped_quantiles operator and the split invariants
    are pinned in tests/test_functions.py."""
    import ray.data as rd

    from logray.functions.lm import fit_ngram_lm, perplexity_buckets

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang", "text"])
    ref = docs.filter(expr="lang == 'en'").select_columns(["doc_id", "text"])
    fitted = fit_ngram_lm(ref, n=3, dim=1 << 14)
    out = perplexity_buckets(docs, fitted, dim=1 << 14).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_curriculum_docs(sf_dir: str):
    """Training-curriculum ordering: NTILE score bins (here n_chars as
    the quality proxy) + seeded deterministic in-bin shuffle; two narrow
    global sorts, never a full-width corpus sort."""
    import ray.data as rd

    from logray.functions.curriculum import curriculum_order

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "n_chars"])
    return curriculum_order(ds, "n_chars", "doc_id", n_bins=7, seed=11)


def _q_shuffle_deterministic(sf_dir: str):
    """Reproducible global training-order shuffle: sort by the seeded
    id hash — byte-identical order on any topology (exact SQL twin on
    both the key values and the total order)."""
    import ray.data as rd

    from logray.functions.sample import deterministic_shuffle

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "source", "n_chars"])
    return deterministic_shuffle(ds, "doc_id", seed=42).to_pandas()


def _q_source_quality_gate(sf_dir: str):
    """Domain-level quality gate: keep documents only from sources whose
    pooled alphabetic-character share >= 0.8210 (integer-exact rule,
    CCNet/C4-style judge-the-domain semantics; exact SQL twin)."""
    import ray.data as rd

    from logray.functions.quality import source_quality_gate

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet")
    out = source_quality_gate(ds, min_alpha_num=8210,
                              min_alpha_den=10000).to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


def _q_transition_matrix(sf_dir: str):
    """First-order Markov transition counts of the per-user event-type
    sequence (one bucket shuffle + segmented shift, tiny partial fold)."""
    import ray.data as rd

    from logray.stages.sequence import transition_counts

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return transition_counts(ds, "user_id", "ts", "event_type",
                             tiebreak_col="event_id")


def _q_trigram_matrix(sf_dir: str):
    """Order-2 Markov (trigram) counts of the per-user event-type
    sequence — the n-gram language model of the event stream."""
    import ray.data as rd

    from logray.stages.sequence import transition_counts

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "event_type"],
    )
    return transition_counts(ds, "user_id", "ts", "event_type",
                             tiebreak_col="event_id", order=2)


def _q_funnel_events(sf_dir: str):
    """First-touch ordered funnel signup -> click -> purchase per user
    (segmented min per stage; every key emits its stage_reached)."""
    import ray.data as rd

    from logray.stages.sequence import funnel

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_type"]
    )
    return funnel(ds, "user_id", "ts", "event_type",
                  ["signup", "click", "purchase"])


def _q_cohort_retention(sf_dir: str):
    """Cohort retention: distinct users active at each day offset from
    their first-seen day (dedup combiner, driver fold is O(cells))."""
    import ray.data as rd

    from logray.stages.sequence import cohort_retention

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return cohort_retention(ds, "user_id", "ts")


def _q_latest_per_user(sf_dir: str):
    """DISTINCT ON: the whole newest event row per user — shuffle-free
    best-row combiner + driver stream-fold."""
    import ray.data as rd

    from logray.stages.aggregate import distinct_on

    ds = rd.read_parquet(f"{sf_dir}/events.parquet")
    return distinct_on(ds, "user_id", ["ts", "event_id"], descending=True)


def _q_budget_sample(sf_dir: str):
    """Per-source token-budget sample: docs kept in deterministic
    hash-priority order while the running n_chars total stays <= 3000
    (one bucket shuffle + segmented cumsum)."""
    import ray.data as rd

    from logray.functions.sample import budget_sample

    ds = rd.read_parquet(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text", "source", "n_chars"],
    )
    return budget_sample(ds, "source", "doc_id", "n_chars",
                         budget=3000, seed=7).to_pandas()


def _q_trailing_active_users(sf_dir: str):
    """Weekly-active-users by day: distinct users active in the trailing
    7 days (dedup combiner, window explode on deduped pairs only)."""
    import ray.data as rd

    from logray.stages.sequence import trailing_active

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])
    return trailing_active(ds, "user_id", "ts", window_days=7)


def _q_normalize_nfc(sf_dir: str):
    """Unicode NFC canonicalization: a decomposed (combining-mark)
    column is derived identically on both sides, then composed — Arrow
    utf8_normalize vs DuckDB nfc_normalize, same Unicode tables."""
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.functions.textclean import normalize_nfc

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def decompose(t):
        # explicitly DECOMPOSED a + U+0301, like the twin's chr(769)
        v = pc.replace_substring(t["text"], "a", "a\u0301")
        return t.drop_columns(["text"]).append_column("text", v)

    ds = ds.map_batches(decompose, batch_format="pyarrow",
                        zero_copy_batch=True, batch_size=None)
    return normalize_nfc(ds, "text").to_pandas()


def _q_dialogue_pairs(sf_dir: str):
    """SFT-pair mining: adjacent (user -> assistant) turn pairs per
    conversation from the derived transcripts (one bucket shuffle +
    segmented shift carrying text)."""
    from logray.stages.sequence import dialogue_pairs

    ds = transcripts_from_events(sf_dir)
    return dialogue_pairs(ds).to_pandas()


def _q_asof_next_purchase(sf_dir: str):
    """FORWARD as-of join: for each event, the user's next purchase at
    or after the event (mirror of asof_last_purchase), summarized per
    event_type in exact integer cents."""
    return _asof_purchase_q(sf_dir, "forward", "sum_next_purchase_cents")


def _q_rolling_median(sf_dir: str):
    """Robust trailing-median smoothing of event cents per user
    (grouped Cython rolling median per bucket; SQL median window)."""
    import ray.data as rd

    from logray.stages.windowfn import rolling_median

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    ds = _cents_stage(ds)
    return rolling_median(ds, "user_id", "ts", "cents", window=5,
                          tiebreak_col="event_id").to_pandas()


def _q_json_extract(sf_dir: str):
    """Structured-log payload extraction: props->>'k' as BIGINT
    (per-payload C json parse, TRY semantics on malformed rows)."""
    import ray.data as rd

    from logray.functions.textclean import json_extract_field

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "props"])
    return json_extract_field(ds, "props", "k",
                              value_type="int64").to_pandas()


def _q_ewma_events(sf_dir: str):
    """Per-user EWMA of event values (anomaly baseline; pandas
    group_ewm kernel per bucket). Rows-only: no SQL EWMA — exactness
    pinned by the recurrence test."""
    import ray.data as rd

    from logray.stages.windowfn import ewma

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    return ewma(ds, "user_id", "ts", "value", alpha=0.2,
                tiebreak_col="event_id").to_pandas()


def _q_ewma_events_fp(sf_dir: str):
    """Fixed-point int64 EWMA (alpha = 1/5) per user — the gate-exact
    sibling of ewma_events: values quantize once and the recurrence is
    pure integer algebra, so the DuckDB recursive-CTE twin matches
    hash-for-hash."""
    import ray.data as rd

    from logray.stages.windowfn import ewma_fixedpoint

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_id", "value"],
    )
    return ewma_fixedpoint(ds, "user_id", "ts", "value", alpha_num=1,
                           alpha_den=5, tiebreak_col="event_id")


def _q_lateness(sf_dir: str):
    """Out-of-orderness diagnostic (watermark sizing): lateness of each
    event vs the running max event time in a SCRAMBLED arrival order —
    the Knuth-hash permutation of event_id, derived identically on both
    sides so the stream is realistically disordered."""
    import ray.data as rd

    from logray.stages.sequence import lateness

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id", "ts"])

    def arrival(t: pa.Table) -> pa.Table:
        # checked multiply: ids past ~3.4e9 would wrap here but ERROR in
        # the DuckDB twin — erroring on both sides keeps them aligned
        a = pc.multiply_checked(t["event_id"], pa.scalar(2654435761, pa.int64()))
        # low 32 bits of the Knuth hash (a is non-negative)
        return t.append_column(
            "arrival", pc.bit_wise_and(a, pa.scalar((1 << 32) - 1, pa.int64())))

    ds = ds.map_batches(arrival, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    return lateness(ds, "user_id", "arrival", "ts").to_pandas()


def _q_user_profiles(sf_dir: str):
    """Entity-profile materialization: one row per user with first/last
    seen, event count, exact cents total, and distinct event types —
    Arrow multi-aggregate partials in ONE pass, joined to the exact
    COUNT(DISTINCT) combiner."""
    import ray.data as rd

    from logray.stages.aggregate import distinct_count_per_key

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["user_id", "ts", "event_type", "value"],
    )
    ds = _cents_stage(ds)

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(["user_id"]).aggregate(
            [("ts", "min"), ("ts", "max"), ([], "count_all"),
             ("cents", "sum")])
        return g.rename_columns(
            ["user_id", "first_seen", "last_seen", "n_events", "cents_sum"])

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None).to_pandas()
    prof = parts.groupby("user_id", sort=True, dropna=False).agg(
        first_seen=("first_seen", "min"), last_seen=("last_seen", "max"),
        n_events=("n_events", "sum"), cents_sum=("cents_sum", "sum"),
    ).reset_index()
    prof["n_events"] = prof["n_events"].astype("int64")
    prof["cents_sum"] = prof["cents_sum"].astype("int64")

    # separate PRUNED read for the distinct pass (the profile ds carries
    # ts/cents this pass would only throw away), and a LEFT join so a
    # user whose types are all null keeps its row with n_types=0 like
    # the oracle's COUNT(DISTINCT) over an all-null group
    nd_src = rd.read_parquet(f"{sf_dir}/events.parquet",
                             columns=["user_id", "event_type"])
    nd = distinct_count_per_key(nd_src, "user_id", "event_type")
    out = prof.merge(nd, on="user_id", how="left")
    out["n_distinct"] = out["n_distinct"].fillna(0).astype("int64")
    return out.rename(columns={"n_distinct": "n_types"})


def _q_window_distinct_users(sf_dir: str):
    """Composition: distinct users per calendar day — a derived
    date_trunc key through the exact COUNT(DISTINCT) combiner."""
    import ray.data as rd

    from logray.stages.aggregate import distinct_count_per_key

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "user_id"])

    def derive(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t["ts"], unit="day")
        return pa.table({"win_start": pc.cast(w, pa.timestamp("us")),
                         "user_id": t["user_id"]})

    ds = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    return distinct_count_per_key(ds, "win_start", "user_id")


def _q_anomaly_flags(sf_dir: str):
    """Composition: per-type p99 outliers — exact grouped quantile
    (quantile_disc) broadcast back as a vectorized filter."""
    import ray
    import ray.data as rd

    from logray.stages.aggregate import grouped_quantiles

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    ds = _cents_stage(ds)
    q = grouped_quantiles(ds, "event_type", "cents", [0.99]).to_pandas()
    thresh = dict(zip(q["event_type"], q["value"]))
    ref = ray.put((pa.array(list(thresh)),
                   np.array(list(thresh.values()), np.int64)))

    def flag(t: pa.Table) -> pa.Table:
        keys, vals = ray.get(ref)
        idx = pc.index_in(t["event_type"], value_set=keys)
        # types absent from the threshold table (null event_type, or
        # all-null groups) index as null — the SQL JOIN drops them
        ok = pc.is_valid(idx)
        safe = pc.fill_null(idx, 0).to_numpy(zero_copy_only=False)
        thr = vals[np.asarray(safe, np.int64)]
        keep = pc.and_kleene(ok, pc.greater(t["cents"], pa.array(thr)))
        return t.filter(pc.fill_null(keep, False)).select(["event_id"])

    return ds.map_batches(flag, batch_format="pyarrow").to_pandas()


def _q_gap_histogram(sf_dir: str):
    """Operator composition: per-user inter-event gaps (LAG) binned into
    a fixed-width seconds histogram — the arrival-process profile.  The
    float64 LAG output is exactly integral (< 2^53 us), so the int64
    round-trip is lossless on both sides."""
    import ray.data as rd

    from logray.stages.aggregate import binned_histogram
    from logray.stages.windowfn import lag_lead

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id"])

    def to_us(t: pa.Table) -> pa.Table:
        u = pc.cast(t["ts"], pa.int64())
        return t.drop_columns(["ts"]).append_column("u", u)

    ds = ds.map_batches(to_us, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    lagged = lag_lead(ds, "user_id", "u", "u", n=1, tiebreak_col="event_id")

    def gaps(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["lag_u"]))
        d = pc.subtract(t["u"], pc.cast(t["lag_u"], pa.int64()))
        gap_s = pc.divide(d, 1_000_000)  # integer floor division
        return pa.table({"gap_s": pc.cast(gap_s, pa.int64())})

    gds = lagged.map_batches(gaps, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
    return binned_histogram(gds, "gap_s", lo=0, width=900, nbins=16)


def _q_calendar_window(sf_dir: str):
    """Counts per calendar week x event type (variable-width buckets;
    Arrow floor_temporal == DuckDB date_trunc, Mondays)."""
    import ray.data as rd

    from logray.stages.window import calendar_window

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])
    return calendar_window(ds, "ts", "week", "event_type")


def _q_rate_limit(sf_dir: str):
    """Alert throttling: first 3 events per user per day kept
    (segmented cumcount after one bucket shuffle)."""
    import ray.data as rd

    from logray.stages.sequence import rate_limit

    ds = rd.read_parquet(f"{sf_dir}/events.parquet")
    return rate_limit(ds, "user_id", "ts", 86_400.0, 3,
                      tiebreak_col="event_id").to_pandas()


def _q_dedup_consecutive(sf_dir: str):
    """Change-log compaction: drop rows repeating the previous
    event_type within each user's stream (IS DISTINCT FROM)."""
    import ray.data as rd

    from logray.stages.sequence import dedup_consecutive

    ds = rd.read_parquet(f"{sf_dir}/events.parquet")
    return dedup_consecutive(ds, "user_id", "ts", "event_type",
                             tiebreak_col="event_id").to_pandas()


def _q_union_by_name(sf_dir: str):
    """Schema-evolution union: two projections with different columns
    concatenated; missing columns become typed nulls (UNION ALL BY
    NAME)."""
    import ray.data as rd

    from logray.stages.reshape import union_by_name

    a = rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_id", "event_type"])
    b = rd.read_parquet(f"{sf_dir}/events.parquet",
                        columns=["event_id", "value"])
    return union_by_name([a, b]).to_pandas()


def _q_zlib_quality(sf_dir: str):
    """Per-document zlib compression ratio — the repetition / templated-
    text quality signal (rows-only: DuckDB has no zlib; exactness pinned
    by the unit test against the zlib module)."""
    import ray.data as rd

    from logray.functions.quality import compression_ratio

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return compression_ratio(ds).to_pandas()


def _q_merge_intervals(sf_dir: str):
    """Gaps-and-islands: per-user 30-minute activity intervals merged
    into maximal islands (grouped cummax + reduceat per bucket)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.stages.sequence import merge_intervals

    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts"])

    def derive(t: pa.Table) -> pa.Table:
        e = pc.add(t["ts"], pa.scalar(1_800_000_000, pa.duration("us")))
        return t.append_column("te", pc.cast(e, pa.timestamp("us")))

    ds = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True,
                        batch_size=None)
    return merge_intervals(ds, "user_id", "ts", "te")


def _q_approx_distinct_users(sf_dir: str):
    """Mergeable per-key HLL: approximate distinct users per event type —
    the sketch path of distinct_users_per_type (rows-only; ~1.6% expected
    error at p=12, deterministic under partitioning)."""
    import ray.data as rd

    from logray.functions.sketch import approx_distinct_per_key

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return approx_distinct_per_key(ds, "event_type", "user_id", p=12)


def _q_bloom_semi_join(sf_dir: str):
    """Bloom-prefiltered exact semi join: orders whose customer is in the
    BUILDING segment.  The Bloom pass prunes per batch with no false
    negatives; the exact is_in verify removes the false positives, so the
    result is exactly the SQL semi join while only survivors reach the
    exact stage."""
    import ray.data as rd

    from logray.functions.bloom import bloom_prefilter, build_bloom
    from logray.stages.join import broadcast_semi_join

    cust = rd.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    ).filter(expr="c_mktsegment == 'BUILDING'").select_columns(["c_custkey"])
    bloom = build_bloom(cust, "c_custkey", m_bits=1 << 18, k=4)
    orders = rd.read_parquet(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    )
    pre = bloom_prefilter(orders, bloom, "o_custkey")
    return broadcast_semi_join(pre, cust, on="o_custkey").to_pandas()


def _q_global_rank_events(sf_dir: str):
    """Corpus-global ROW_NUMBER / RANK / PERCENT_RANK of event cents —
    the percentile-normalization pass (one sort, tie runs carried across
    block seams by ``bucketing.sorted_scan``)."""
    import ray.data as rd

    from logray.stages.windowfn import global_rank

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "value"]
    )
    ds = _cents_stage(ds)
    return global_rank(ds, "cents", "event_id").to_pandas()


def _q_cube_orders(sf_dir: str):
    """GROUP BY CUBE (status, priority): all four grouping sets derived
    from the same single pass of finest-level partials."""
    import ray.data as rd

    from logray.stages.aggregate import cube_agg

    ds = rd.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderstatus", "o_orderpriority", "o_totalprice"],
    )
    ds = _cents_stage(ds, src_col="o_totalprice")
    return cube_agg(ds, ["o_orderstatus", "o_orderpriority"], "cents")


def _q_distinct_users(sf_dir: str):
    """Exact COUNT(DISTINCT user) per event type: local (key,val) dedup
    combiner + one bucket shuffle of deduped pairs."""
    import ray.data as rd

    from logray.stages.aggregate import distinct_count_per_key

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "user_id"]
    )
    return distinct_count_per_key(ds, "event_type", "user_id")


def _q_pack_docs(sf_dir: str):
    """Concat-and-cut sequence packing: documents laid head-to-tail by
    doc_id and cut every 2048 chars; each doc gets its starting
    (seq_id, seq_offset).  Global prefix sum over one sort
    (``bucketing.sorted_scan``)."""
    import ray.data as rd

    from logray.functions.packing import pack_documents

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return pack_documents(ds, budget=2048).to_pandas()


def _q_kmeans(sf_dir: str):
    """Distributed k-means over the embedding column: per-iteration
    streaming passes with exact fixed-point partials (bit-deterministic
    under any partitioning); returns per-cluster size and inertia.
    Iterative — no SQL twin (rows-only check)."""
    import ray.data as rd

    from logray.functions.cluster import kmeans_fit

    ds = rd.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"]
    ).materialize()  # k-means re-executes the input once per iteration
    _cent, info = kmeans_fit(ds, k=8, id_col="vec_id", iters=8, seed=17)
    return info


_MIX_RATES = {"click": 0.25, "purchase": 2.5, "error": 0.0}


def _q_mixture_sample(sf_dir: str):
    """Domain-mixture resampling of events by type: clicks thinned 4x,
    purchases repeated 2.5x, errors dropped, everything else (default
    rate 1.0) kept once — deterministic, shuffle-free."""
    import ray.data as rd

    from logray.functions.sample import mixture_sample

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_id", "event_type", "user_id"]
    )
    return mixture_sample(
        ds, _MIX_RATES, "event_type", "event_id", seed=99, default_rate=1.0
    ).to_pandas()


def _q_dedup_lines(sf_dir: str):
    """C4-style corpus-global line dedup: segments occurring more than
    once across the corpus survive only at their first (doc_id, idx)
    occurrence, then documents are reassembled.  The synthetic word-soup
    corpus has no newlines, so ' table ' serves as the line boundary."""
    import ray.data as rd

    from logray.functions.linededup import dedup_lines

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    return dedup_lines(ds, min_len=1, sep=" table ", num_buckets=32).to_pandas()


def _q_value_window_events(sf_dir: str):
    """FIRST/LAST/NTH value of event cents per user over the full
    partition frame ordered by (ts, event_id)."""
    import ray.data as rd

    from logray.stages.windowfn import value_window

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id", "value"]
    )

    ds = _cents_stage(ds)
    return value_window(
        ds, "user_id", "ts", "cents", nth=3, tiebreak_col="event_id"
    ).to_pandas()


def _q_stats_events(sf_dir: str):
    """Per-event-type variance/stddev/covariance/correlation of event value
    (cents) vs user_id — exact integer limb moments, no shuffle, doubles
    bit-identical to the HUGEINT SQL twin."""
    import ray.data as rd

    from logray.stages.stats import stats_agg

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet", columns=["event_type", "value", "user_id"]
    )

    ds = _cents_stage(ds)
    return stats_agg(ds, "event_type", "cents", "user_id")


# shared-algebra web-graph edge derivation: every event contributes one
# directed edge over a fixed 997-node id space.  The arithmetic is
# row-local int64 on both the Ray and SQL sides, so the edge multiset is
# definitionally identical — the graph operators themselves are what the
# oracle then checks.
_GRAPH_MOD = 997
_GRAPH_EDGES_SQL = f"""(
    SELECT user_id % {_GRAPH_MOD} AS src,
           (user_id * 31 + event_id) % {_GRAPH_MOD} AS dst
    FROM events)"""


def _graph_edges(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id"])

    def derive(t: pa.Table) -> pa.Table:
        import numpy as np

        u = pc.cast(t["user_id"].combine_chunks() if isinstance(
            t["user_id"], pa.ChunkedArray) else t["user_id"],
            pa.int64()).to_numpy(zero_copy_only=False)
        e = pc.cast(t["event_id"].combine_chunks() if isinstance(
            t["event_id"], pa.ChunkedArray) else t["event_id"],
            pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"src": pa.array(u % _GRAPH_MOD),
                         "dst": pa.array((u * 31 + e) % _GRAPH_MOD)})

    return ds.map_batches(derive, batch_format="pyarrow",
                          zero_copy_batch=True)


def _q_graph_degrees(sf_dir: str):
    """Per-node in/out/total degree of the derived event web-graph —
    per-batch Arrow group_by partials, one narrow bucket fold."""
    from logray.functions.graph import degree_table

    return degree_table(_graph_edges(sf_dir))


def _q_graph_components(sf_dir: str):
    """Connected components (min reachable id) of the undirected closure
    of the event web-graph, via the sharded pointer-doubling engine."""
    from logray.functions.graph import connected_components_graph

    return connected_components_graph(_graph_edges(sf_dir))


def _q_graph_triangles(sf_dir: str):
    """Exact triangle count of the event web-graph, degree-oriented
    node-iterator (bounded O(sqrt(E)) per-node wedge work)."""
    from logray.functions.graph import triangle_count

    return triangle_count(_graph_edges(sf_dir))


def _q_crawl_rank(sf_dir: str):
    """END-TO-END crawl curation composition: wrap documents in markup
    with two deterministic cross-document links each -> extract_links
    (split-algebra RE2) -> parse link targets -> document link graph ->
    PageRank -> top-20 documents by rank.  One streaming chain into the
    iterative actor stage; rows-only (float ranks) — every constituent
    has its own exact gate."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.functions.graph import pagerank
    from logray.functions.urlops import extract_links

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def wrap(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = pc.cast(t["doc_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        t1 = pc.cast(pa.array((ids * 31 + 7) % 499), pa.string())
        t2 = pc.cast(pa.array((ids * 17 + 3) % 499), pa.string())
        html = pc.binary_join_element_wise(
            pa.scalar('<a href="https://corpus.example/doc/'), t1,
            pa.scalar('">x</a><p>body</p>'
                      '<a href="https://corpus.example/doc/'), t2,
            pa.scalar('">y</a>'), pa.scalar(""))
        return pa.table({"doc_id": pa.array(ids), "text": html})

    links = extract_links(ds.map_batches(wrap, batch_format="pyarrow",
                                         zero_copy_batch=True))

    def to_edges(t: pa.Table) -> pa.Table:
        tgt = pc.cast(pc.utf8_slice_codeunits(
            t["url"], len("https://corpus.example/doc/")), pa.int64())
        return pa.table({"src": pc.cast(t["doc_id"], pa.int64()),
                         "dst": tgt})

    edges = links.map_batches(to_edges, batch_format="pyarrow",
                              zero_copy_batch=True)
    ranks = pagerank(edges, n_iter=15, num_shards=4)
    # node joins the sort key BEFORE the limit so a rank tie at the
    # 20th row cannot make the kept set partition-dependent
    top = ranks.sort(["rank", "node"],
                     descending=[True, False]).limit(20).to_pandas()
    return top.reset_index(drop=True)


# robots gate pieces: 5 deterministic URL classes x a fixed RFC 9309
# ruleset whose per-class verdicts are compile-time constants — the SQL
# twin selects the allowed classes, the Ray side computes them through
# the real parse -> compile -> vectorized filter path.
_ROBOTS_TXT = """User-agent: *
Disallow: /private/
Allow: /private/ok
Disallow: /*.pdf$
Disallow: /tmp
"""
_ROBOTS_PATHS = ["/", "/private/x", "/private/ok", "/docs/f.pdf", "/tmp/y"]
_ROBOTS_ALLOWED = (0, 2)  # "/" and the longest-match Allow /private/ok


def _q_sample_neighbors(sf_dir: str):
    """GraphSAGE-style fan-out sampling of the event web-graph: keep at
    most 2 out-edges per source by the shared-algebra seeded hash —
    exact vs the identical row_number window in SQL."""
    from logray.functions.graph import sample_neighbors

    return sample_neighbors(_graph_edges(sf_dir), k=2, seed=7)


def _q_khop(sf_dir: str):
    """2-hop ego-net edges from seeds {0,1,2} over the event web-graph
    (GNN subgraph extraction; no fanout cap so the recursive min-hop
    CTE twin is exact)."""
    from logray.functions.graph import khop_edges

    return khop_edges(_graph_edges(sf_dir), [0, 1, 2], hops=2)


def _q_triangles_approx(sf_dir: str):
    """DOULION edge-sparsified triangle estimate (p=0.5, seeded
    splitmix coin).  Rows-only: the estimator's distribution is pinned
    by unbiasedness tests; p=1 equals the exact counter by test."""
    from logray.functions.graph import triangle_count_approx

    return triangle_count_approx(_graph_edges(sf_dir), p=0.5, seed=3)


def _q_graph_kcore(sf_dir: str):
    """3-core membership of the event web-graph (iterative peeling —
    link-farm / density pruning).  Exact DuckDB twin via
    kcore_members_sql (the peel loop unrolled with a loud
    convergence guard); both regimes also pinned vs brute force in
    tests."""
    from logray.functions.graph import kcore_members

    return kcore_members(_graph_edges(sf_dir), k=3)


def _q_robots_filter(sf_dir: str):
    """Crawl-politeness gate: deterministic per-doc URLs through the
    robots.txt filter (rules compiled once + broadcast, per-host
    vectorized longest-match)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.functions.robots import robots_filter

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id"])

    def add_url(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = pc.cast(t["doc_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        paths = np.array(_ROBOTS_PATHS)[ids % 5]
        urls = np.char.add("https://crawl.example", paths)
        return pa.table({"doc_id": pa.array(ids),
                         "url": pa.array(urls)})

    out = robots_filter(
        ds.map_batches(add_url, batch_format="pyarrow",
                       zero_copy_batch=True),
        {"crawl.example": _ROBOTS_TXT})
    return out


def _q_graph_clustering(sf_dir: str):
    """Per-node triangle counts + local clustering coefficient of the
    event web-graph (Watts-Strogatz local coefficient; exact int64
    counts, one IEEE division — bit-identical to the SQL twin)."""
    from logray.functions.graph import clustering_coefficients

    return clustering_coefficients(_graph_edges(sf_dir))


def _q_anchor_text(sf_dir: str):
    """Top-3 anchor strings per link target: the event web-graph's dst
    with event_type as the anchor text — census partials + one bucket
    fold + segmented top-k; SQL twin is the row_number window."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.functions.graph import anchor_text_table

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id", "event_type"])

    def derive(t: pa.Table) -> pa.Table:
        import numpy as np

        u = pc.cast(t["user_id"].combine_chunks() if isinstance(
            t["user_id"], pa.ChunkedArray) else t["user_id"],
            pa.int64()).to_numpy(zero_copy_only=False)
        e = pc.cast(t["event_id"].combine_chunks() if isinstance(
            t["event_id"], pa.ChunkedArray) else t["event_id"],
            pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table({"dst": pa.array((u * 31 + e) % _GRAPH_MOD),
                         "anchor": t["event_type"]})

    edges = ds.map_batches(derive, batch_format="pyarrow",
                           zero_copy_batch=True)
    return anchor_text_table(edges, n_top=3)


def _q_warc_roundtrip(sf_dir: str):
    """Documents -> WARC (per-record gzip members) -> read back: the
    web-crawl container format round-trips losslessly through the
    Ray sink/source pair.  doc_id rides in the URL path; the oracle is
    the documents table itself."""
    import os
    import shutil

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.sources.warc import read_warc, write_warc

    out = f"/tmp/logray_warc_gate_{os.path.basename(sf_dir.rstrip('/'))}"
    shutil.rmtree(out, ignore_errors=True)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def to_records(t: pa.Table) -> pa.Table:
        ids = pc.cast(t["doc_id"], pa.string())
        url = pc.binary_join_element_wise(
            pa.scalar("https://corpus.example/doc/"), ids, pa.scalar(""))
        payload = pc.cast(t["text"], pa.binary())
        return pa.table({"url": url, "payload": payload})

    write_warc(ds.map_batches(to_records, batch_format="pyarrow",
                              zero_copy_batch=True),
               out, ts_col="ts", mime_col="mime", compress=True)

    back = read_warc(out)

    def decode(t: pa.Table) -> pa.Table:
        prefix = len("https://corpus.example/doc/")
        doc_id = pc.cast(pc.utf8_slice_codeunits(t["url"], prefix),
                         pa.int64())
        return pa.table({"doc_id": doc_id,
                         "text": pc.cast(t["payload"], pa.string())})

    return back.map_batches(decode, batch_format="pyarrow",
                            zero_copy_batch=True)


def _q_warc_select(sf_dir: str):
    """CDX-driven selective archive read: write documents as WARC+CDX
    once, then point-fetch ONLY the doc_id % 7 == 0 records by
    byte-range — O(selected), never O(archive).  Exact vs the plain
    WHERE filter."""
    import os
    import shutil

    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.sources.warc import read_warc_select, write_warc

    out = f"/tmp/logray_warc_sel_{os.path.basename(sf_dir.rstrip('/'))}"
    shutil.rmtree(out, ignore_errors=True)

    ds = rd.read_parquet(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def to_records(t: pa.Table) -> pa.Table:
        ids = pc.cast(t["doc_id"], pa.string())
        url = pc.binary_join_element_wise(
            pa.scalar("https://corpus.example/doc/"), ids, pa.scalar(""))
        return pa.table({"url": url,
                         "payload": pc.cast(t["text"], pa.binary())})

    write_warc(ds.map_batches(to_records, batch_format="pyarrow",
                              zero_copy_batch=True),
               out, cdx=True)

    ids = [r["doc_id"] for r in
           rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"]).take_all()
           if r["doc_id"] % 7 == 0]
    urls = [f"https://corpus.example/doc/{i}" for i in ids]
    back = read_warc_select(out, urls=urls)

    def decode(t: pa.Table) -> pa.Table:
        prefix = len("https://corpus.example/doc/")
        doc_id = pc.cast(pc.utf8_slice_codeunits(t["url"], prefix),
                         pa.int64())
        return pa.table({"doc_id": doc_id,
                         "text": pc.cast(t["payload"], pa.string())})

    return back.map_batches(decode, batch_format="pyarrow",
                            zero_copy_batch=True)


def _q_crawl_pipeline(sf_dir: str):
    """THE 100 TB product shape: the full resumable crawl ->
    training-set composition (:mod:`logray.pipelines.crawl`) over the
    documents table dressed as a WARC crawl.  Documents are wrapped in
    HTML (every 7th on a robots-disallowed path, every 101st's text
    doubling as an eval passage), written as a gzip-member WARC
    archive, then run through the seven manifest-checkpointed phases:
    extract + robots gate + PII redaction -> C4 line dedup -> MinHash
    near-dedup closure -> eval-set decontamination -> byte-BPE
    tokenize -> byte-balanced shards -> per-shard sequence packing.
    Rows-only: the packed set's BPE ids have no SQL twin; every
    constituent phase has its own exact gate, and crash-resume
    byte-equality is pinned in tests/test_crawl_pipeline.py."""
    import datetime
    import os
    import shutil

    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from logray.pipelines.crawl import read_crawl_output, run_crawl_pipeline
    from logray.sources.warc import write_warc

    root = f"/tmp/logray_crawl_gate_{os.path.basename(sf_dir.rstrip('/'))}"
    shutil.rmtree(root, ignore_errors=True)
    warc_dir = os.path.join(root, "warc")
    eval_dir = os.path.join(root, "eval")
    os.makedirs(eval_dir)

    docs = rd.read_parquet(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def to_records(t: pa.Table) -> pa.Table:
        import numpy as np

        ids = pc.cast(t["doc_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        path = np.where(ids % 7 == 3, "/private/p", "/p/")
        url = pa.array(np.char.add(np.char.add(
            "https://crawl.example", path), ids.astype(str)))
        html = pc.binary_join_element_wise(
            pa.scalar("<html><head><title>d</title></head><body><p>"),
            t["text"], pa.scalar("</p></body></html>"), pa.scalar(""))
        n = t.num_rows
        return pa.table({
            "url": url,
            "ts": pa.array([datetime.datetime(2026, 8, 1)] * n,
                           pa.timestamp("us")),
            "mime": pa.array(["text/html"] * n),
            "payload": pc.cast(html, pa.binary()),
        })

    write_warc(docs.map_batches(to_records, batch_format="pyarrow",
                                zero_copy_batch=True).repartition(4),
               warc_dir)
    # eval set = every 101st doc's own text: those docs are contaminated
    # by construction and must fall at the decontam phase
    ev = docs.map_batches(
        lambda t: t.filter(pc.equal(
            pc.cast(t["doc_id"], pa.int64()).to_numpy(
                zero_copy_only=False) % 101, 0)),
        batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    pq.write_table(pa.table({"doc_id": pa.array(ev["doc_id"], pa.int64()),
                             "text": pa.array(ev["text"], pa.string())}),
                   os.path.join(eval_dir, "eval.parquet"))

    run_crawl_pipeline(
        warc_dir, os.path.join(root, "out"), eval_path=eval_dir,
        robots={"crawl.example": _ROBOTS_TXT}, quality=False,
        num_buckets=8, bands=8, num_perm=32, vocab_size=300,
        pack_budget=1024, target_shard_bytes=1 << 20)
    out = read_crawl_output(os.path.join(root, "out")).to_pandas()
    out["n_ids"] = out["token_ids"].map(len)
    return (out[["shard", "seq_id", "seq_offset", "n_tokens", "n_ids"]]
            .sort_values(["shard", "seq_id", "seq_offset"])
            .reset_index(drop=True))


def _q_graph_pagerank(sf_dir: str):
    """PageRank over the event web-graph — edges pushed once into
    per-shard actor CSRs, then 20 iterations of narrow rank messages.
    Float-iterative, so rows-only at the gate; exactness vs a dense
    numpy reference is pinned in tests/test_graph.py."""
    from logray.functions.graph import pagerank

    return pagerank(_graph_edges(sf_dir), n_iter=20)


def _q_graph_pagerank_weighted(sf_dir: str):
    """Personalized + value-weighted PageRank (TrustRank shape): edge
    weight = event value in cents, teleport seeded on nodes 0-9.
    Rows-only; dense-reference exactness pinned in tests."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.functions.graph import pagerank

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id", "value"])

    def derive(t: pa.Table) -> pa.Table:
        import numpy as np

        u = pc.cast(t["user_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        e = pc.cast(t["event_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        w = pc.cast(t["value"], pa.float64()).to_numpy(
            zero_copy_only=False)
        return pa.table({"src": pa.array(u % _GRAPH_MOD),
                         "dst": pa.array((u * 31 + e) % _GRAPH_MOD),
                         "weight": pa.array(np.abs(w))})

    edges = ds.map_batches(derive, batch_format="pyarrow",
                           zero_copy_batch=True)
    return pagerank(edges, weight_col="weight",
                    personalization=list(range(10)), n_iter=20)


_GRAPH_WEDGES_SQL = f"""(
    SELECT user_id % {_GRAPH_MOD} AS src,
           (user_id * 31 + event_id) % {_GRAPH_MOD} AS dst,
           (event_id % 10) + 1 AS w
    FROM events)"""


def _q_graph_pagerank_fp(sf_dir: str):
    """Fixed-point int64 PageRank over the event web-graph — identical
    shard-actor exchange shape to graph_pagerank, but every quantity is
    an integer in units of 1e-12, so the result is bit-identical across
    partitioning AND engines: the DuckDB twin replays the same integer
    recursion and matches hash-for-hash (the gate-exact PageRank row)."""
    from logray.functions.graph import pagerank_fixedpoint

    return pagerank_fixedpoint(_graph_edges(sf_dir), n_iter=20)


def _q_graph_pagerank_fp_weighted(sf_dir: str):
    """Weighted + personalized fixed-point PageRank: integer edge
    weight (event_id % 10) + 1 — pure int64 row-local algebra, so the
    edge multiset is definitionally identical on both sides — teleport
    seeded on nodes 0-9.  Exact DuckDB twin via
    pagerank_fixedpoint_sql(weight_expr=..., seeds=...)."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from logray.functions.graph import pagerank_fixedpoint

    ds = rd.read_parquet(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_id"])

    def derive(t: pa.Table) -> pa.Table:
        import numpy as np

        u = pc.cast(t["user_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        e = pc.cast(t["event_id"], pa.int64()).to_numpy(
            zero_copy_only=False)
        return pa.table({"src": pa.array(u % _GRAPH_MOD),
                         "dst": pa.array((u * 31 + e) % _GRAPH_MOD),
                         "w": pa.array((e % 10) + 1)})

    edges = ds.map_batches(derive, batch_format="pyarrow",
                           zero_copy_batch=True)
    return pagerank_fixedpoint(edges, weight_col="w",
                               personalization=list(range(10)), n_iter=20)


def _q_graph_hits(sf_dir: str):
    """HITS hubs & authorities over the event web-graph — per-endpoint
    edge shards, two float exchanges per iteration, L2-normalized.
    Rows-only; dense-reference exactness pinned in tests."""
    from logray.functions.graph import hits

    return hits(_graph_edges(sf_dir), n_iter=20)


def _q_graph_hits_fp(sf_dir: str):
    """Fixed-point int64 HITS over the event web-graph — identical
    shard-actor exchange shape to graph_hits, but scores are integers
    in units of 1e-12 with an L1-cap normalizer, so the result is
    bit-identical across partitioning AND engines: the DuckDB twin
    replays the same integer recursion and matches hash-for-hash (the
    gate-exact HITS row; the float graph_hits stays the L2-normalized
    reference-semantics entry)."""
    from logray.functions.graph import hits_fixedpoint

    return hits_fixedpoint(_graph_edges(sf_dir), n_iter=20)


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # transcript / log-pipeline core
        "transcript_build": _q_transcript_build,
        "csv_roundtrip": _q_csv_roundtrip,
        "parse_fields": _q_parse_fields,
        "route_counts": _q_route_counts,
        "role_histogram": _q_role_histogram,
        "tool_histogram": _q_tool_histogram,
        "turns_per_conversation": _q_turns_per_conversation,
        "filter_algebra": _q_filter_algebra,
        "filter_ci_contains": _q_filter_ci_contains,
        "line_range": _q_line_range,
        "search_next": _q_search_next,
        "min_max_ts": _q_min_max_ts,
        # windows / reassembly / ordinal mapping
        "dialogue_concat": _q_dialogue_concat,
        "conv_stats": _q_conv_stats,
        "sessionize": _q_sessionize,
        "tumbling_window": _q_tumbling_window,
        "resample_ohlc": _q_resample_ohlc,
        "salted_histogram": _q_salted_histogram,
        "kth_price": _q_kth_price,
        "top_users": _q_top_users,
        "token_topk": _q_token_topk,
        "asof_last_purchase": _q_asof_last_purchase,
        "range_join_bands": _q_range_join_bands,
        "overlap_join_windows": _q_overlap_join_windows,
        "turn_context": _q_turn_context,
        "local_global_map": _q_local_global,
        # general operators
        "pushdown_read": _q_pushdown_read,
        "topk_orders": _q_topk_orders,
        "region_customer_counts": _q_region_customer_counts,
        "lineitem_agg": _q_lineitem_agg,
        "revenue_by_nation": _q_revenue_by_nation,
        "events_window": _q_events_window,
        "join_orders_customers": _q_join_orders_customers,
        "bucketed_join": _q_bucketed_join,
        "distinct_priorities": _q_distinct_priorities,
        "union_counts": _q_union_counts,
        # training-data operators
        "exact_dedup_docs": _q_exact_dedup_docs,
        "ngram_jaccard_dups": _q_ngram_jaccard_dups,
        "containment_docs": _q_containment_docs,
        "collocations_docs": _q_collocations_docs,
        "lexical_diversity_docs": _q_lexical_diversity_docs,
        "sentence_split_docs": _q_sentence_split_docs,
        "html_extract_docs": _q_html_extract_docs,
        "snapshot_diff_docs": _q_snapshot_diff_docs,
        "extract_links_docs": _q_extract_links_docs,
        "graph_degrees": _q_graph_degrees,
        "graph_components": _q_graph_components,
        "graph_triangles": _q_graph_triangles,
        "graph_pagerank": _q_graph_pagerank,
        "graph_pagerank_weighted": _q_graph_pagerank_weighted,
        "graph_pagerank_fp": _q_graph_pagerank_fp,
        "graph_pagerank_fp_weighted": _q_graph_pagerank_fp_weighted,
        "graph_hits": _q_graph_hits,
        "graph_hits_fp": _q_graph_hits_fp,
        "graph_clustering": _q_graph_clustering,
        "graph_kcore": _q_graph_kcore,
        "sample_neighbors_links": _q_sample_neighbors,
        "khop_links": _q_khop,
        "graph_triangles_approx": _q_triangles_approx,
        "robots_filter_docs": _q_robots_filter,
        "crawl_rank_docs": _q_crawl_rank,
        "crawl_pipeline_docs": _q_crawl_pipeline,
        "anchor_text_links": _q_anchor_text,
        "warc_roundtrip_docs": _q_warc_roundtrip,
        "warc_select_docs": _q_warc_select,
        "rebalance_docs": _q_rebalance_docs,
        "rebalance_resumable_docs": _q_rebalance_resumable_docs,
        "embedding_dups": _q_embedding_dups,
        "embedding_dups_lsh": _q_embedding_dups_lsh,
        "minhash_pairs": _q_minhash_pairs,
        "near_dedup_keep": _q_near_dedup_keep,
        "near_dedup_best": _q_near_dedup_best,
        "calendar_window": _q_calendar_window,
        "gap_histogram": _q_gap_histogram,
        "window_distinct_users": _q_window_distinct_users,
        "anomaly_flags": _q_anomaly_flags,
        "user_profiles": _q_user_profiles,
        "lateness_events": _q_lateness,
        "simhash_pairs": _q_simhash_pairs,
        "ann_topk": _q_ann_topk,
        "ann_lsh": _q_ann_lsh,
        "ann_ivf": _q_ann_ivf,
        "ann_ivf_persist": _q_ann_ivf_persist,
        "text_stats": _q_text_stats,
        "lang_quality": _q_lang_quality,
        "doc_histogram": _q_doc_histogram,
        "multimodal_decode": _q_multimodal,
        "doc_fingerprints": _q_fingerprints,
        "content_hash_docs": _q_content_hash_docs,
        # sampling / model scoring / sketches
        "sample_uniform": _q_sample_uniform,
        "reservoir_sample": _q_reservoir_sample,
        "model_score": _q_model_score,
        "quantiles_price": _q_quantiles_price,
        "quantiles_cont": _q_quantiles_cont,
        "grouped_quantiles": _q_grouped_quantiles,
        "hopping_window": _q_hopping_window,
        "lag_lead_events": _q_lag_lead_events,
        "rolling_events": _q_rolling_events,
        "rank_orders": _q_rank_orders,
        "pct_rank_orders": _q_pct_rank_orders,
        "range_rolling_events": _q_range_rolling_events,
        "collect_events": _q_collect_events,
        "cumulative_events": _q_cumulative_events,
        "approx_quantiles_grouped": _q_approx_quantiles_grouped,
        "topk_per_key": _q_topk_per_key,
        "stratified_split": _q_stratified_split,
        "chunk_docs": _q_chunk_docs,
        "tokenize_bpe": _q_tokenize_bpe,
        "tokenize_roundtrip": _q_tokenize_roundtrip,
        "chunk_docs_tokens": _q_chunk_docs_tokens,
        "pii_redact": _q_pii_redact,
        "gopher_quality": _q_gopher_quality,
        "top_ngram_repetition": _q_top_ngram_repetition,
        "decontaminate": _q_decontaminate,
        "pivot_events": _q_pivot_events,
        "bm25_search": _q_bm25_search,
        "bm25_index_search": _q_bm25_index_search,
        "bm25_compact_search": _q_bm25_compact_search,
        "bm25_index_resumable": _q_bm25_index_resumable,
        "approx_distinct": _q_approx_distinct,
        "approx_quantiles": _q_approx_quantiles,
        "semi_join_customers": _q_semi_join_customers,
        "anti_join_customers": _q_anti_join_customers,
        "intersect_users": _q_intersect_users,
        "except_users": _q_except_users,
        "heavy_hitters": _q_heavy_hitters,
        "explode_embeddings": _q_explode_embeddings,
        "regex_extract_docs": _q_regex_extract_docs,
        "clean_text": _q_clean_text,
        "stats_events": _q_stats_events,
        "value_window_events": _q_value_window_events,
        "dedup_lines_docs": _q_dedup_lines,
        "mixture_sample": _q_mixture_sample,
        "kmeans_embeddings": _q_kmeans,
        "pack_docs": _q_pack_docs,
        "rollup_orders": _q_rollup_orders,
        "unpivot_lineitem": _q_unpivot_lineitem,
        "tfidf_docs": _q_tfidf_docs,
        "standardize_events": _q_standardize_events,
        "outer_join_counts": _q_outer_join,
        "winsorize_events": _q_winsorize_events,
        "cube_orders": _q_cube_orders,
        "distinct_users_per_type": _q_distinct_users,
        "global_rank_events": _q_global_rank_events,
        "approx_distinct_users": _q_approx_distinct_users,
        "bloom_semi_join": _q_bloom_semi_join,
        "binned_histogram": _q_binned_histogram,
        "weighted_sample": _q_weighted_sample,
        "mode_event_type": _q_mode_event_type,
        "argmax_events": _q_argmax_events,
        "fill_forward_events": _q_fill_forward_events,
        "dedup_spans_docs": _q_dedup_spans_docs,
        "dedup_spans_bytes": _q_dedup_spans_bytes,
        "semdedup": _q_semdedup,
        "dsir_sample": _q_dsir_sample,
        "dedup_incremental": _q_dedup_incremental,
        "near_dup_incremental": _q_near_dup_incremental,
        "profile_events": _q_profile_events,
        "lm_perplexity": _q_lm_perplexity,
        "ppl_buckets": _q_ppl_buckets,
        "shuffle_deterministic": _q_shuffle_deterministic,
        "curriculum_docs": _q_curriculum_docs,
        "source_quality_gate": _q_source_quality_gate,
        "edit_distance_dups": _q_edit_distance_dups,
        "transition_matrix": _q_transition_matrix,
        "transition_skew": _q_transition_skew,
        "trigram_matrix": _q_trigram_matrix,
        "funnel_events": _q_funnel_events,
        "cohort_retention": _q_cohort_retention,
        "latest_per_user": _q_latest_per_user,
        "budget_sample": _q_budget_sample,
        "trailing_active_users": _q_trailing_active_users,
        "merge_intervals": _q_merge_intervals,
        "normalize_nfc": _q_normalize_nfc,
        "dialogue_pairs": _q_dialogue_pairs,
        "union_by_name_events": _q_union_by_name,
        "zlib_quality": _q_zlib_quality,
        "rate_limit_events": _q_rate_limit,
        "dedup_consecutive_events": _q_dedup_consecutive,
        "asof_next_purchase": _q_asof_next_purchase,
        "ewma_events": _q_ewma_events,
        "ewma_events_fp": _q_ewma_events_fp,
        "json_extract_props": _q_json_extract,
        "rolling_median_events": _q_rolling_median,
        "url_parse_docs": _q_url_parse,
        "domain_quota_docs": _q_domain_quota,
        "url_blocklist_docs": _q_url_blocklist,
        "quality_classifier": _q_quality_classifier,
        "pca_embeddings": _q_pca_embeddings,
        "group_split_events": _q_group_split,
        "cm_counts_events": _q_cm_counts,
        "domain_quota_narrow": _q_domain_quota_narrow,
        "temperature_mix_docs": _q_temperature_mix,
        "wordlist_flag_docs": _q_wordlist_flag,
        "wordlist_drop_docs": _q_wordlist_drop,
    }


# ---------------------------------------------------------------------------
# oracle SQL
# ---------------------------------------------------------------------------

_FIELDS_CTE = f"""
WITH t AS ({_TSQL.replace('turn_idx,', 'turn_idx, event_id, event_type,')})
"""

# parsed-field expressions for well-formed rows of the derived transcripts
_WELL = "event_id % 37 <> 0"
_DATE = "CAST(strftime(ts, '%m%d') AS BIGINT)"
_TIME = "CAST(strftime(ts, '%H%M%S') AS BIGINT)"
_LEVEL = "upper(event_type)"
_SOURCE = "'evt_' || CAST(event_id % 100 AS VARCHAR)"
_CENTS = "CAST(round(value*100) AS BIGINT)"
_MESG = f"'val=' || CAST({_CENTS} AS VARCHAR)"


def oracle_sql() -> dict[str, str]:
    from logray.functions.curriculum import curriculum_order_sql
    from logray.functions.dedup import containment_pairs_sql
    from logray.functions.collocations import (
        collocation_counts_sql,
        lexical_diversity_sql,
    )
    from logray.functions.textclean import (
        html_tag_count_expr,
        html_to_text_expr,
        sentence_split_sql,
    )
    from logray.functions.snapshot import snapshot_diff_sql
    from logray.functions.urlops import extract_links_sql
    from logray.functions.graph import (
        anchor_text_sql,
        sample_neighbors_sql,
        clustering_coefficients_sql,
        connected_components_sql,
        degree_table_sql,
        hits_fixedpoint_sql,
        kcore_members_sql,
        pagerank_fixedpoint_sql,
        triangle_count_approx_sql,
        triangle_count_sql,
    )
    from logray.functions.fingerprint import (band_rows_sql,
                                              content_hash_sql,
                                              minhash_pairs_sql,
                                              simhash_pairs_sql,
                                              simhash_sql)
    from logray.functions.textstats import lang_quality_sql
    from logray.functions.quality import (top_ngram_char_fraction_sql,
                                          wordlist_filter_sql)
    from logray.functions.sample import (
        deterministic_shuffle_sql,
        group_split_sql,
        temperature_mixture_sql,
        mixture_sample_sql,
        reservoir_per_key_sql,
        sample_uniform_sql,
        stratified_split_sql,
    )
    from logray.functions.chunking import chunk_documents_sql
    from logray.stages.profile import table_profile_sql
    from logray.functions.textclean import (
        clean_text_sql,
        json_extract_field_sql,
        normalize_nfc_sql,
        regexp_extract_sql,
    )
    from logray.stages.aggregate import (
        arg_extreme_sql,
        binned_histogram_sql,
        distinct_count_per_key_sql,
        grouped_quantiles_sql,
        mode_per_key_sql,
        pivot_agg_sql,
        rollup_agg_sql,
        topk_per_key_sql,
    )
    from logray.stages.window import calendar_window_sql, hopping_window_sql
    from logray.stages.windowfn import (
        ewma_fixedpoint_sql,
        fill_forward_sql,
        rolling_median_sql,
        global_rank_sql,
        lag_lead_sql,
        rank_window_sql,
        rolling_agg_range_sql,
        rolling_agg_sql,
        value_window_sql,
    )
    from logray.functions.pii import redact_pii_sql
    from logray.functions.quality import gopher_quality_sql, source_quality_gate_sql
    from logray.functions.decontam import decontaminate_sql
    from logray.functions.heavyhitters import heavy_hitters_sql
    from logray.stages.stats import standardize_sql, stats_agg_sql, winsorize_sql
    from logray.stages.window import resample_ohlc_sql
    from logray.functions.linededup import dedup_lines_sql
    from logray.functions.spandedup import dedup_spans_bytes_sql, dedup_spans_sql
    from logray.functions.dedup import edit_distance_pairs_sql
    from logray.stages.sequence import (
        cohort_retention_sql,
        dedup_consecutive_sql,
        dialogue_pairs_sql,
        funnel_sql,
        lateness_sql,
        merge_intervals_sql,
        rate_limit_sql,
        trailing_active_sql,
        transition_counts_sql,
    )
    from logray.stages.aggregate import distinct_on_sql
    from logray.stages.reshape import union_by_name_sql
    from logray.functions.sample import budget_sample_sql
    from logray.functions.packing import pack_documents_sql
    from logray.stages.reshape import unpivot_sql

    return {
        "transcript_build": _TSQL,
        "csv_roundtrip": _TSQL,
        "sample_uniform": sample_uniform_sql(
            "orders", 0.1, "o_orderkey", seed=12345,
            cols="o_orderkey, o_custkey, o_orderpriority",
        ),
        "reservoir_sample": reservoir_per_key_sql(
            "orders", "o_orderpriority", 3, "o_orderkey", seed=7,
            cols="o_orderpriority, o_orderkey",
        ),
        "quantiles_price": _QUANTILES_PRICE_SQL,
        "quantiles_cont": _QUANTILES_CONT_SQL,
        "grouped_quantiles": grouped_quantiles_sql(
            "orders", "o_orderpriority", "o_totalprice", [0.5, 0.9]
        ),
        "pack_docs": pack_documents_sql("documents", budget=2048),
        "winsorize_events": winsorize_sql(
            "(SELECT event_id, event_type, "
            "CAST(round(value*100) AS BIGINT) AS cents FROM events) ev",
            "event_type", "cents", 0.05, 0.95,
            cols="event_id, event_type, cents",
        ),
        "standardize_events": standardize_sql(
            "(SELECT event_id, event_type, "
            "CAST(round(value*100) AS BIGINT) AS cents FROM events) ev",
            "event_type", "cents", cols="event_id, event_type, cents",
        ),
        "outer_join_counts": (
            "SELECT CAST(o_custkey AS DOUBLE) AS o_custkey, "
            "CAST(n AS DOUBLE) AS n, CAST(c_custkey AS DOUBLE) AS c_custkey, "
            "c_mktsegment "
            "FROM (SELECT o_custkey, CAST(count(*) AS BIGINT) AS n "
            "      FROM orders GROUP BY o_custkey) o "
            "FULL OUTER JOIN customer ON o.o_custkey = customer.c_custkey"
        ),
        "tfidf_docs": (
            "SELECT doc_id, CAST(len(list_filter(regexp_split_to_array("
            "lower(text), '[^0-9a-z]+'), x -> x <> '')) AS BIGINT) AS n_terms "
            "FROM documents WHERE text IS NOT NULL"
        ),
        "unpivot_lineitem": unpivot_sql(
            "lineitem", ["l_orderkey", "l_linenumber"],
            ["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
        ),
        "binned_histogram": binned_histogram_sql(
            "(SELECT CAST(round(o_totalprice*100) AS BIGINT) AS cents "
            "FROM orders) o",
            "cents", lo=0, width=2_000_000, nbins=16,
        ),
        "bloom_semi_join": (
            "SELECT o_orderkey, o_custkey FROM orders WHERE o_custkey IN "
            "(SELECT c_custkey FROM customer WHERE c_mktsegment = 'BUILDING')"
        ),
        "global_rank_events": global_rank_sql(
            "(SELECT event_id, CAST(round(value*100) AS BIGINT) AS cents "
            "FROM events) ev",
            "cents", "event_id", cols="event_id, cents",
        ),
        "cube_orders": rollup_agg_sql(
            "(SELECT o_orderstatus, o_orderpriority, "
            "CAST(round(o_totalprice*100) AS BIGINT) AS cents FROM orders) o",
            ["o_orderstatus", "o_orderpriority"], "cents", mode="CUBE",
        ),
        "distinct_users_per_type": distinct_count_per_key_sql(
            "events", "event_type", "user_id"
        ),
        "rollup_orders": rollup_agg_sql(
            "(SELECT o_orderstatus, o_orderpriority, "
            "CAST(round(o_totalprice*100) AS BIGINT) AS cents FROM orders) o",
            ["o_orderstatus", "o_orderpriority"], "cents",
        ),
        "mixture_sample": mixture_sample_sql(
            "events", _MIX_RATES, "event_type", "event_id", seed=99,
            default_rate=1.0, cols="event_id, event_type, user_id",
        ),
        "dedup_lines_docs": dedup_lines_sql(
            "documents", sep_sql="' table '", min_len=1
        ),
        "value_window_events": value_window_sql(
            "(SELECT user_id, ts, event_id, "
            "CAST(round(value*100) AS BIGINT) AS cents FROM events) ev",
            "user_id", "ts", "cents", nth=3, tiebreak_col="event_id",
            cols="user_id, ts, event_id, cents",
        ),
        "stats_events": stats_agg_sql(
            "(SELECT event_type, CAST(round(value*100) AS BIGINT) AS cents, "
            "user_id FROM events) ev",
            "event_type", "cents", "user_id",
        ),
        "hopping_window": hopping_window_sql(
            "events", "ts", 3600.0, 900.0, key_cols="event_type"
        ),
        "lag_lead_events": lag_lead_sql(
            "events", "user_id", "ts", "value", n=1, tiebreak_col="event_id",
            cols="user_id, ts, event_id, value",
        ),
        "rolling_events": rolling_agg_sql(
            "(SELECT user_id, ts, event_id, "
            "CAST(round(value*100) AS BIGINT) AS cents FROM events) ev",
            "user_id", "ts", "cents", window=4, tiebreak_col="event_id",
            cols="user_id, ts, event_id, cents",
        ),
        "cumulative_events": rolling_agg_sql(
            "(SELECT user_id, ts, event_id, "
            "CAST(round(value*100) AS BIGINT) AS cents FROM events) ev",
            "user_id", "ts", "cents", window=None, tiebreak_col="event_id",
            cols="user_id, ts, event_id, cents",
        ),
        "collect_events": """
            SELECT user_id,
                   list(event_id ORDER BY ts, event_id) AS event_ids
            FROM events GROUP BY user_id
        """,
        "rank_orders": rank_window_sql(
            "orders", "o_custkey", "o_orderdate", tiebreak_col="o_orderkey",
            cols="o_orderkey, o_custkey, o_orderdate", ntile=4,
        ),
        "pct_rank_orders": rank_window_sql(
            "orders", "o_custkey", "o_orderdate", tiebreak_col="o_orderkey",
            cols="o_orderkey, o_custkey, o_orderdate", pct=True,
        ),
        "range_rolling_events": rolling_agg_range_sql(
            "(SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS ts_us, "
            "CAST(round(value*100) AS BIGINT) AS cents FROM events) ev",
            "user_id", "ts_us", "cents", preceding=3_600_000_000,
            cols="user_id, ts_us, cents",
        ),
        "chunk_docs": chunk_documents_sql(
            "documents", chunk_chars=200, overlap_chars=50
        ),
        # byte-level BPE is lossless: encode->decode through the full
        # distributed path must equal the source text byte-for-byte
        "tokenize_roundtrip": (
            "SELECT doc_id, text FROM documents WHERE text IS NOT NULL"
        ),
        "stratified_split": (
            "SELECT split, count(*) AS n FROM ("
            + stratified_split_sql(
                "documents", {"train": 0.8, "val": 0.1, "test": 0.1},
                "doc_id", seed=5, cols="doc_id",
            )
            + ") GROUP BY split"
        ),
        "topk_per_key": topk_per_key_sql(
            "orders", "o_orderpriority", "o_totalprice", 3, descending=True,
            tiebreak_col="o_orderkey",
            cols="o_orderpriority, o_orderkey, o_totalprice",
        ),
        "semi_join_customers": """
            SELECT c_custkey, c_mktsegment FROM customer
            WHERE c_custkey IN (SELECT o_custkey FROM orders)
        """,
        "anti_join_customers": """
            SELECT c_custkey, c_mktsegment FROM customer
            WHERE c_custkey NOT IN
              (SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT')
        """,
        "intersect_users": """
            SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
            INTERSECT
            SELECT o_custkey FROM orders WHERE o_orderpriority = '5-LOW'
        """,
        "except_users": """
            SELECT o_custkey FROM orders WHERE o_orderpriority = '1-URGENT'
            EXCEPT
            SELECT o_custkey FROM orders WHERE o_orderpriority = '5-LOW'
        """,
        "heavy_hitters": heavy_hitters_sql("events", "user_id", 0.0075),
        "explode_embeddings": """
            SELECT vec_id,
                   generate_subscripts(embedding, 1) AS pos,
                   CAST(unnest(embedding) AS DOUBLE) AS val
            FROM embeddings
        """,
        "clean_text": (
            f"SELECT doc_id, {clean_text_sql('text', lower=True)} AS cleaned "
            "FROM documents"
        ),
        "regex_extract_docs": (
            "SELECT doc_id, "
            + regexp_extract_sql("text", _REGEX_DOCS_PAT, 1, "prev")
            + ", "
            + regexp_extract_sql("text", _REGEX_DOCS_PAT, 2, "kw")
            + " FROM documents"
        ),
        "pii_redact": (
            f"SELECT doc_id, {redact_pii_sql(f'({_PII_SUFFIX_SQL})')} "
            "AS redacted FROM documents"
        ),
        "gopher_quality": gopher_quality_sql("documents"),
        "decontaminate": decontaminate_sql(
            "documents", "(SELECT * FROM documents WHERE doc_id % 37 = 0)", n=6
        ),
        "pivot_events": pivot_agg_sql(
            "events", "user_id", "event_type", pivot_values=_EVENT_TYPES
        ),
        "parse_fields": f"""
            SELECT event_id,
                   CASE WHEN {_WELL} THEN {_DATE} END AS Date,
                   CASE WHEN {_WELL} THEN {_TIME} END AS Time,
                   CASE WHEN {_WELL} THEN {_LEVEL} END AS Level,
                   CASE WHEN {_WELL} THEN {_SOURCE} END AS Source,
                   CASE WHEN {_WELL} THEN {_MESG} END AS Mesg,
                   {_WELL} AS well_formatted
            FROM events
        """,
        "route_counts": f"""
            SELECT route, count(*) AS n FROM (
              SELECT CASE
                WHEN NOT ({_WELL}) THEN 'other'
                WHEN event_type = 'error' THEN 'errors'
                WHEN event_type = 'purchase' THEN 'purchases'
                ELSE 'other' END AS route
              FROM events) GROUP BY route
        """,
        "role_histogram": """
            SELECT CASE WHEN event_id % 20 < 8 THEN 'human'
                        WHEN event_id % 20 < 16 THEN 'model'
                        WHEN event_id % 20 < 19 THEN 'machine'
                        ELSE 'meta' END AS role_class,
                   count(*) AS n
            FROM events GROUP BY role_class
        """,
        "tool_histogram": """
            SELECT CASE WHEN event_id % 20 < 16 OR event_id % 20 >= 19 THEN 'none'
                        WHEN event_id % 4 IN (0, 2) THEN 'retrieval'
                        ELSE 'execution' END AS tool_kind,
                   count(*) AS n
            FROM events GROUP BY tool_kind
        """,
        "turns_per_conversation": """
            SELECT 'conv-' || lpad(CAST(user_id AS VARCHAR), 5, '0') AS conv_id,
                   count(*) AS n
            FROM events GROUP BY conv_id
        """,
        "filter_algebra": f"""
            SELECT event_id FROM events
            WHERE {_WELL}
              AND ((event_type = 'error') <> ({_CENTS} > 15000))
        """,
        "filter_ci_contains": f"""
            SELECT event_id FROM events
            WHERE {_WELL}
              AND NOT (contains(lower({_LEVEL}), 'err') OR ends_with({_SOURCE}, '7'))
        """,
        "line_range": f"""
            {_FIELDS_CTE}
            SELECT conv_id, turn_idx FROM t
            WHERE turn_idx BETWEEN 2 AND 5 AND contains(text, 'val=1')
        """,
        "search_next": f"""
            {_FIELDS_CTE}
            SELECT conv_id, turn_idx, CAST(strpos(text, 'val=19') - 1 AS BIGINT) AS char_pos
            FROM t
            WHERE {_WELL} AND event_type = 'error' AND contains(text, 'val=19')
              AND (conv_id > 'conv-00050' OR (conv_id = 'conv-00050' AND turn_idx > 0))
            ORDER BY conv_id, turn_idx LIMIT 1
        """,
        "min_max_ts": "SELECT min(ts) AS ts_min, max(ts) AS ts_max FROM events",
        "dialogue_concat": f"""
            {_FIELDS_CTE}
            SELECT conv_id, string_agg(text, chr(10) ORDER BY turn_idx) AS dialogue
            FROM t GROUP BY conv_id
        """,
        "conv_stats": f"""
            {_FIELDS_CTE}
            SELECT conv_id, count(*) AS n_turns, min(ts) AS ts_min, max(ts) AS ts_max
            FROM t GROUP BY conv_id
        """,
        "sessionize": """
            WITH g AS (
              SELECT user_id,
                     CASE WHEN lag(ts) OVER w IS NULL
                               OR ts - lag(ts) OVER w > INTERVAL 3600 SECOND
                          THEN 1 ELSE 0 END AS new_session
              FROM events
              WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
            SELECT user_id, CAST(sum(new_session) AS BIGINT) AS n_sessions
            FROM g GROUP BY user_id
        """,
        "tumbling_window": """
            SELECT event_type, date_trunc('day', ts) AS window_start, count(*) AS n
            FROM events GROUP BY event_type, window_start
        """,
        "salted_histogram": """
            SELECT event_type, count(*) AS n FROM events GROUP BY event_type
        """,
        "resample_ohlc": resample_ohlc_sql(
            "events", "event_type", "ts", "value", "event_id", 86400.0),
        "asof_last_purchase": """
            WITH p AS (
              SELECT user_id, ts, CAST(round(value*100) AS BIGINT) AS purchase_cents
              FROM events WHERE event_type = 'purchase')
            SELECT e.event_type,
                   CAST(sum(p.purchase_cents) AS BIGINT) AS sum_last_purchase_cents,
                   count(*) AS n_events
            FROM events e
            ASOF LEFT JOIN p ON e.user_id = p.user_id AND e.ts >= p.ts
            GROUP BY e.event_type
        """,
        "range_join_bands": """
            WITH bands(band, lo, hi) AS (
              VALUES ('b0', 0.0, 50.0), ('b1', 50.0, 100.0),
                     ('b2', 100.0, 150.0), ('b3', 150.0, 10000000.0))
            SELECT band, count(*) AS n
            FROM events JOIN bands ON value >= lo AND value < hi
            GROUP BY band
        """,
        "overlap_join_windows": """
            WITH w(win, lo, hi) AS (VALUES
              ('m0', 1704420000000000, 1704434400000000),
              ('m1', 1705017600000000, 1705060800000000),
              ('m2', 1705773600000000, 1705780800000000),
              ('m3', 1706400000000000, 1706486400000000)),
            ev AS (SELECT epoch_us(ts) AS s,
                          epoch_us(ts) + CAST(round(value * 60000000) AS BIGINT) AS e
                   FROM events)
            SELECT win, count(*) AS n
            FROM ev JOIN w ON s < hi AND e > lo
            GROUP BY win
        """,
        "turn_context": f"""
            {_FIELDS_CTE}
            SELECT conv_id, turn_idx,
                   array_to_string(
                     list(text) OVER (PARTITION BY conv_id ORDER BY turn_idx
                                      ROWS BETWEEN 2 PRECEDING AND CURRENT ROW),
                     chr(10)) AS context
            FROM t
        """,
        "kth_price": """
            SELECT o_totalprice FROM orders ORDER BY o_totalprice LIMIT 1 OFFSET 100
        """,
        "top_users": """
            SELECT user_id, count(*) AS n FROM events
            GROUP BY user_id ORDER BY n DESC, user_id LIMIT 5
        """,
        "token_topk": """
            SELECT token, count(*) AS n
            FROM (SELECT unnest(string_split(text, ' ')) AS token FROM documents)
            GROUP BY token ORDER BY n DESC, token LIMIT 20
        """,
        "pushdown_read": """
            SELECT user_id, count(*) AS n FROM events
            WHERE event_type = 'error' GROUP BY user_id
        """,
        "topk_orders": """
            SELECT o_orderkey, o_custkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "region_customer_counts": """
            SELECT r_name, count(*) AS n
            FROM customer
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name
        """,
        "revenue_by_nation": """
            SELECT n_name,
                   CAST(sum(CAST(CAST(round(l_extendedprice * 100) AS BIGINT)
                       * (100 - CAST(round(l_discount * 100) AS BIGINT))
                       AS HUGEINT)) AS BIGINT) AS revenue_c4
            FROM customer, orders, lineitem, supplier, nation, region
            WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
              AND l_suppkey = s_suppkey AND c_nationkey = s_nationkey
              AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
              AND r_name = 'ASIA'
              AND o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate < TIMESTAMP '1997-01-01'
            GROUP BY n_name
        """,
        "lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   sum(l_quantity) AS sum_qty,
                   CAST(sum(CAST(round(l_extendedprice * (1.0 - l_discount) * 100.0) AS BIGINT)) AS BIGINT) AS revenue_cents,
                   count(*) AS count_order
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "events_window": """
            WITH w AS (
              SELECT user_id, event_type,
                     row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS rn,
                     count(*) OVER (PARTITION BY user_id) AS n
              FROM events)
            SELECT user_id,
                   max(CASE WHEN rn = 1 THEN event_type END) AS first_type,
                   max(CASE WHEN rn = n THEN event_type END) AS last_type,
                   max(n) AS n_events
            FROM w GROUP BY user_id
        """,
        "join_orders_customers": """
            SELECT c_mktsegment,
                   CAST(sum(CAST(round(o_totalprice * 100.0) AS BIGINT)) AS BIGINT) AS revenue_cents,
                   count(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "bucketed_join": """
            SELECT c_mktsegment, count(*) AS n
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "distinct_priorities": """
            SELECT DISTINCT o_orderpriority FROM orders
        """,
        "union_counts": """
            SELECT event_type, count(*) AS n FROM (
              SELECT event_type FROM events UNION ALL SELECT event_type FROM events)
            GROUP BY event_type
        """,
        "exact_dedup_docs": """
            SELECT min(doc_id) AS doc_id FROM documents GROUP BY text
        """,
        "profile_events": table_profile_sql(
            "events", ["event_id", "ts", "user_id", "event_type", "value"]),
        "dedup_incremental": """
            SELECT * FROM documents
            WHERE lang <> 'en' AND (text IS NULL OR text NOT IN (
              SELECT text FROM documents WHERE lang = 'en'
                AND text IS NOT NULL))
            ORDER BY doc_id
        """,
        "ngram_jaccard_dups": """
            SELECT a.doc_id AS id_a, b.doc_id AS id_b
            FROM documents a JOIN documents b
              ON a.lang = b.lang AND a.source = b.source AND a.doc_id < b.doc_id
            WHERE jaccard(a.text, b.text) >= 0.9
        """,
        "containment_docs": containment_pairs_sql(
            "documents", "lang", threshold=0.9),
        "collocations_docs": collocation_counts_sql(
            "documents", "text", min_count=3, n_top=50),
        "lexical_diversity_docs": lexical_diversity_sql(
            "documents", "text", "source"),
        "sentence_split_docs": sentence_split_sql(
            "documents", "text", "doc_id"),
        "html_extract_docs": f"""
            WITH h AS (
                SELECT doc_id,
                       '{_HTML_WRAP[0].replace("'", "''")}'
                       || doc_id::VARCHAR
                       || '{_HTML_WRAP[1].replace("'", "''")}'
                       || text
                       || '{_HTML_WRAP[2].replace("'", "''")}' AS html
                FROM documents)
            SELECT doc_id,
                   {html_tag_count_expr('html')} AS n_tags,
                   {html_to_text_expr('html')} AS clean_text
            FROM h ORDER BY doc_id
        """,
        "snapshot_diff_docs": """
            WITH old_snap AS (SELECT doc_id, text FROM documents),
                 new_snap AS (
                     SELECT doc_id,
                            CASE WHEN doc_id % 11 = 0 THEN text || ' v2'
                                 ELSE text END AS text
                     FROM documents WHERE doc_id % 7 <> 0
                     UNION ALL
                     SELECT doc_id + 10000000 AS doc_id,
                            'new doc ' || doc_id::VARCHAR AS text
                     FROM documents WHERE doc_id % 13 = 0)
        """ + snapshot_diff_sql("old_snap", "new_snap"),
        "extract_links_docs": f"""
            WITH h AS (
                SELECT doc_id,
                       '{_LINK_WRAP[0]}' || doc_id::VARCHAR
                       || '{_LINK_WRAP[1]}' || text
                       || '{_LINK_WRAP[2]}' || doc_id::VARCHAR
                       || '{_LINK_WRAP[3]}' AS text
                FROM documents)
        """ + extract_links_sql("h"),
        "graph_degrees": degree_table_sql(_GRAPH_EDGES_SQL),
        "graph_components": connected_components_sql(_GRAPH_EDGES_SQL),
        "graph_triangles": triangle_count_sql(_GRAPH_EDGES_SQL),
        "graph_clustering": clustering_coefficients_sql(_GRAPH_EDGES_SQL),
        "graph_pagerank_fp": pagerank_fixedpoint_sql(
            _GRAPH_EDGES_SQL, n_iter=20),
        "graph_pagerank_fp_weighted": pagerank_fixedpoint_sql(
            _GRAPH_WEDGES_SQL, n_iter=20, weight_expr="w",
            seeds=list(range(10))),
        "graph_hits_fp": hits_fixedpoint_sql(_GRAPH_EDGES_SQL, n_iter=20),
        "graph_kcore": kcore_members_sql(_GRAPH_EDGES_SQL, k=3),
        "graph_triangles_approx": triangle_count_approx_sql(
            _GRAPH_EDGES_SQL, p=0.5, seed=3),
        "sample_neighbors_links": sample_neighbors_sql(
            _GRAPH_EDGES_SQL, k=2, seed=7),
        "khop_links": f"""
            WITH RECURSIVE
            ge AS (SELECT * FROM {_GRAPH_EDGES_SQL}),
            seeds(node) AS (VALUES (0), (1), (2)),
            reach(node, hop) AS (
                SELECT node, 0 FROM seeds
                UNION
                SELECT ge.dst, r.hop + 1
                FROM reach r JOIN ge ON ge.src = r.node
                WHERE r.hop + 1 <= 1
            ),
            mh AS (SELECT node, MIN(hop) AS hop FROM reach GROUP BY node)
            SELECT ge.src, ge.dst, CAST(mh.hop + 1 AS BIGINT) AS hop
            FROM ge JOIN mh ON ge.src = mh.node
            WHERE mh.hop + 1 <= 2
            ORDER BY 1, 2, 3
        """,
        "robots_filter_docs": f"""
            SELECT doc_id,
                   'https://crawl.example' ||
                   CASE doc_id % 5
                        WHEN 0 THEN '{_ROBOTS_PATHS[0]}'
                        WHEN 1 THEN '{_ROBOTS_PATHS[1]}'
                        WHEN 2 THEN '{_ROBOTS_PATHS[2]}'
                        WHEN 3 THEN '{_ROBOTS_PATHS[3]}'
                        ELSE '{_ROBOTS_PATHS[4]}' END AS url
            FROM documents
            WHERE doc_id % 5 IN {_ROBOTS_ALLOWED}
            ORDER BY doc_id
        """,
        "anchor_text_links": anchor_text_sql(
            f"""(SELECT (user_id * 31 + event_id) % {_GRAPH_MOD} AS dst,
                        event_type AS anchor
                 FROM events)"""),
        "warc_roundtrip_docs": "SELECT doc_id, text FROM documents",
        "warc_select_docs":
            "SELECT doc_id, text FROM documents WHERE doc_id % 7 = 0",
        "rebalance_docs": """
            SELECT doc_id, text, lang, source, n_chars FROM documents
            ORDER BY doc_id
        """,
        "rebalance_resumable_docs": """
            SELECT doc_id, text, lang, source, n_chars FROM documents
            ORDER BY doc_id
        """,
        "embedding_dups": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(
                    CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) >= 0.42
        """,
        "ann_topk": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qe
                       FROM embeddings WHERE vec_id IN (0, 1)),
                 s AS (SELECT q.query_id, e.vec_id,
                              list_cosine_similarity(CAST(q.qe AS DOUBLE[]),
                                                     CAST(e.embedding AS DOUBLE[])) AS cos
                       FROM q CROSS JOIN embeddings e),
                 r AS (SELECT query_id, vec_id,
                              row_number() OVER (PARTITION BY query_id
                                                 ORDER BY cos DESC, vec_id) - 1 AS rank
                       FROM s)
            SELECT query_id, vec_id, rank FROM r WHERE rank < 10
        """,
        "text_stats": r"""
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars_text,
                   CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_ws_tokens,
                   CAST(length(regexp_extract_all(text,
                        '''(?:[sdmt]|ll|ve|re)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+')) AS BIGINT) AS n_bpe_tokens
            FROM documents
        """,
        "doc_histogram": """
            SELECT lang, source, count(*) AS n FROM documents GROUP BY lang, source
        """,
        "dedup_spans_docs": dedup_spans_sql("documents", window=5),
        "dedup_spans_bytes": dedup_spans_bytes_sql("documents", window=20),
        "shuffle_deterministic": deterministic_shuffle_sql(
            "documents", "doc_id", seed=42, cols="doc_id, source, n_chars",
        ),
        "curriculum_docs": curriculum_order_sql(
            "documents", "n_chars", "doc_id", n_bins=7, seed=11),
        "source_quality_gate": source_quality_gate_sql(
            "documents", min_alpha_num=8210, min_alpha_den=10000,
        ),
        "edit_distance_dups": edit_distance_pairs_sql(
            "documents", ["lang", "source"], max_dist=55
        ),
        "transition_matrix": transition_counts_sql(
            "events", "user_id", "ts", "event_type", tiebreak_col="event_id"
        ),
        "transition_skew": transition_counts_sql(
            "events", "user_id", "ts", "event_type", tiebreak_col="event_id"
        ),
        "trigram_matrix": transition_counts_sql(
            "events", "user_id", "ts", "event_type", tiebreak_col="event_id",
            order=2,
        ),
        "funnel_events": funnel_sql(
            "events", "user_id", "ts", "event_type",
            ["signup", "click", "purchase"],
        ),
        "cohort_retention": cohort_retention_sql("events", "user_id", "ts"),
        "latest_per_user": distinct_on_sql(
            "events", "user_id", ["ts", "event_id"], descending=True
        ),
        "budget_sample": budget_sample_sql(
            "(SELECT doc_id, text, source, n_chars FROM documents) t",
            "source", "doc_id", "n_chars", 3000, seed=7,
            cols="doc_id, text, source, n_chars",
        ),
        "trailing_active_users": trailing_active_sql(
            "events", "user_id", "ts", window_days=7
        ),
        "dialogue_pairs": f"WITH t AS ({_TSQL}) " + dialogue_pairs_sql("t"),
        "calendar_window": calendar_window_sql(
            "events", "ts", "week", "event_type"
        ),
        "window_distinct_users": distinct_count_per_key_sql(
            "(SELECT CAST(date_trunc('day', ts) AS TIMESTAMP) AS win_start, "
            "user_id FROM events) d",
            "win_start", "user_id",
        ),
        "lateness_events": lateness_sql(
            "(SELECT user_id, event_id, ts, "
            "(event_id * 2654435761) % 4294967296 AS arrival "
            "FROM events) e",
            "user_id", "arrival", "ts",
            cols="user_id, event_id, ts, arrival",
        ),
        "user_profiles": """
            SELECT user_id, min(ts) AS first_seen, max(ts) AS last_seen,
                   CAST(count(*) AS BIGINT) AS n_events,
                   CAST(sum(CAST(round(value*100) AS BIGINT)) AS BIGINT)
                       AS cents_sum,
                   CAST(count(DISTINCT event_type) AS BIGINT) AS n_types
            FROM events GROUP BY user_id
        """,
        "anomaly_flags": """
            WITH ev AS (SELECT event_id, event_type,
                               CAST(round(value*100) AS BIGINT) AS cents
                        FROM events),
            q AS (SELECT event_type, quantile_disc(cents, 0.99) AS p99
                  FROM ev GROUP BY event_type)
            SELECT e.event_id FROM ev e JOIN q USING (event_type)
            WHERE e.cents > q.p99
        """,
        "gap_histogram": binned_histogram_sql(
            "(SELECT (u - lg) // 1000000 AS gap_s FROM ("
            "SELECT CAST(epoch_us(ts) AS BIGINT) AS u, "
            "lag(CAST(epoch_us(ts) AS BIGINT)) OVER ("
            "PARTITION BY user_id ORDER BY epoch_us(ts), event_id) AS lg "
            "FROM events) WHERE lg IS NOT NULL) g",
            "gap_s", lo=0, width=900, nbins=16,
        ),
        "ewma_events_fp": ewma_fixedpoint_sql(
            "(SELECT user_id, ts, event_id, value FROM events) ev",
            "user_id", "ts", "value", alpha_num=1, alpha_den=5,
            tiebreak_col="event_id",
        ),
        "rolling_median_events": rolling_median_sql(
            "(SELECT user_id, ts, event_id, "
            "CAST(round(value*100) AS BIGINT) AS cents FROM events) ev",
            "user_id", "ts", "cents", window=5, tiebreak_col="event_id",
            cols="user_id, ts, event_id, cents",
        ),
        "json_extract_props": json_extract_field_sql(
            "(SELECT event_id, props FROM events) e", "props", "k",
            value_type="int64", cols="event_id, props",
        ),
        "asof_next_purchase": """
            WITH p AS (
              SELECT user_id, ts, CAST(round(value*100) AS BIGINT) AS purchase_cents
              FROM events WHERE event_type = 'purchase')
            SELECT e.event_type,
                   CAST(sum(p.purchase_cents) AS BIGINT) AS sum_next_purchase_cents,
                   count(*) AS n_events
            FROM events e
            ASOF LEFT JOIN p ON e.user_id = p.user_id AND e.ts <= p.ts
            GROUP BY e.event_type
        """,
        "rate_limit_events": rate_limit_sql(
            "events", "user_id", "ts", 86_400.0, 3, tiebreak_col="event_id",
            cols="event_id, ts, user_id, event_type, value, props",
        ),
        "dedup_consecutive_events": dedup_consecutive_sql(
            "events", "user_id", "ts", "event_type", tiebreak_col="event_id",
            cols="event_id, ts, user_id, event_type, value, props",
        ),
        "union_by_name_events": union_by_name_sql([
            "(SELECT event_id, event_type FROM events)",
            "(SELECT event_id, value FROM events)",
        ]),
        "normalize_nfc": normalize_nfc_sql(
            "(SELECT doc_id, replace(text, 'a', 'a' || chr(769)) AS text "
            "FROM documents) d",
            "text", cols="doc_id, text",
        ),
        "merge_intervals": merge_intervals_sql(
            "(SELECT user_id, ts, ts + INTERVAL 30 MINUTE AS te "
            "FROM events) t",
            "user_id", "ts", "te",
        ),
        "mode_event_type": mode_per_key_sql("events", "user_id", "event_type"),
        "argmax_events": arg_extreme_sql(
            "events", "user_id", "event_id", "value", how="max"
        ),
        "fill_forward_events": fill_forward_sql(
            "(SELECT user_id, ts, event_id, "
            "CASE WHEN event_type = 'click' THEN value END AS click_value "
            "FROM events) ev",
            "user_id", "ts", "click_value", tiebreak_col="event_id",
            cols="user_id, ts, event_id, click_value",
        ),
        "url_parse_docs": _url_parse_docs_sql(),
        "domain_quota_docs": _domain_quota_docs_sql(),
        "url_blocklist_docs": _url_blocklist_docs_sql(),
        "quality_classifier": (
            "SELECT doc_id, (doc_id % 3 = 0) AS quality_pred FROM documents"
        ),
        "group_split_events": group_split_sql(
            "events", {"train": 0.8, "val": 0.1, "test": 0.1}, "user_id",
            seed=9, cols="event_id, user_id"),
        "cm_counts_events": (
            "SELECT event_type, count(*) AS approx_count FROM events "
            "GROUP BY event_type"
        ),
        "local_global_map": f"""
            {_FIELDS_CTE},
            e AS (
              SELECT conv_id, turn_idx,
                     row_number() OVER (ORDER BY conv_id, turn_idx) - 1
                       AS ordinal
              FROM t WHERE ({_WELL}) AND {_LEVEL} = 'ERROR')
            SELECT CAST(ordinal AS BIGINT) AS ordinal, conv_id,
                   CAST(turn_idx AS INTEGER) AS turn_idx,
                   CAST(ordinal AS BIGINT) AS roundtrip
            FROM e WHERE ordinal IN (0, 5, 25)
        """,
        "domain_quota_narrow": _domain_quota_docs_sql(),
        "content_hash_docs": content_hash_sql(
            "(SELECT doc_id, text FROM documents) dd"),
        "minhash_pairs": minhash_pairs_sql(
            "(SELECT doc_id, text FROM documents) dd",
            num_perm=64, bands=16, k=5, threshold=0.8),
        "simhash_pairs": simhash_pairs_sql(
            "(SELECT doc_id, text FROM documents) dd", max_hamming=3),
        # incremental near-dup: non-English docs that band-collide with
        # the English snapshot's persistent index drop (pure candidate
        # rule, no verify) — two band_rows_sql instances joined
        "near_dup_incremental": f"""
            WITH nb AS ({band_rows_sql(
                "(SELECT doc_id, text FROM documents"
                " WHERE lang <> 'en') dd")}),
            eb AS ({band_rows_sql(
                "(SELECT doc_id, text FROM documents"
                " WHERE lang = 'en') dd")}),
            dropids AS (SELECT DISTINCT nb.doc_id FROM nb
                        JOIN eb ON nb.band_id = eb.band_id
                               AND nb.bh = eb.bh)
            SELECT d.* FROM documents d
            WHERE d.lang <> 'en'
              AND d.doc_id NOT IN (SELECT doc_id FROM dropids)
        """,
        # near-dedup closures compose three exact twins: the MinHash
        # pair set, recursive min-label components, and the keep policy
        "near_dedup_keep": f"""
            WITH ndp AS ({minhash_pairs_sql(
                "(SELECT doc_id, text FROM documents) dd",
                num_perm=64, bands=16, k=5, threshold=0.8)}),
            ndc AS ({connected_components_sql(
                "ndp", src="id_a", dst="id_b")})
            SELECT d.doc_id FROM documents d
            WHERE d.doc_id NOT IN
                  (SELECT node FROM ndc WHERE node <> component)
        """,
        "near_dedup_best": f"""
            WITH ndp AS ({minhash_pairs_sql(
                "(SELECT doc_id, text FROM documents) dd",
                num_perm=64, bands=16, k=5, threshold=0.8)}),
            ndc AS ({connected_components_sql(
                "ndp", src="id_a", dst="id_b")}),
            ndw AS (SELECT c.node,
                           ROW_NUMBER() OVER (
                               PARTITION BY c.component
                               ORDER BY d.n_chars DESC NULLS LAST,
                                        c.node ASC) AS rn
                    FROM ndc c JOIN documents d ON d.doc_id = c.node)
            SELECT d.doc_id FROM documents d
            WHERE d.doc_id NOT IN (SELECT node FROM ndw WHERE rn > 1)
        """,
        "doc_fingerprints": f"""
            SELECT c.doc_id, c.content_hash, s.simhash
            FROM ({content_hash_sql(
                "(SELECT doc_id, text FROM documents) dd")}) c
            JOIN ({simhash_sql(
                "(SELECT doc_id, text FROM documents) dd")}) s
            USING(doc_id)
        """,
        "lang_quality": lang_quality_sql(
            "(SELECT doc_id, text FROM documents) dd"),
        "top_ngram_repetition": top_ngram_char_fraction_sql(
            "(SELECT doc_id, text FROM documents) dd", n=2),
        "wordlist_flag_docs": wordlist_filter_sql(
            "documents", _BANNED_WORDS, mode="flag", cols="doc_id"),
        "wordlist_drop_docs": wordlist_filter_sql(
            "documents", _BANNED_WORDS, mode="drop", cols="doc_id"),
        "temperature_mix_docs": temperature_mixture_sql(
            "documents", "source", "doc_id", alpha=0.5, seed=4,
            cols="doc_id, source"),
        # pca_embeddings: eigendecomposition has no SQL twin (rows-only;
        # pinned against exact local numpy PCA in tests/test_mlops.py).
        # minhash_pairs / simhash_pairs / embedding_dups_lsh / ann_lsh /
        # lang_quality / multimodal_decode / doc_fingerprints are
        # approximate, model-scored, or synthetic-input operators — no SQL
        # oracle (driver records rows-only checks).
    }
