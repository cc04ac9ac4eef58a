"""Sequence analytics over keyed event streams: Markov transition
counts, ordered funnel completion, and cohort retention.  The telemetry
queries a log-pipeline user runs after parse -> enrich -> route (the
reference's filtered views answer "which lines"; these answer "what
happens next / how far do users get / do they come back" —
generalizing the per-conversation ordering contract of
``src/file_parsing/log_parser_interface.hpp`` paging to keyed streams).

All share one scale shape: ONE ``hash(key) % B`` bucket shuffle
co-locates each key's rows, a vectorized segmented kernel reduces every
bucket with no per-key Python, and only tiny count partials reach the
driver fold (:func:`logray.stages.bucketing.stream_fold`).  Transition
counts run an Arrow kernel per bucket (:func:`_count_windows`: sort,
same-key test on offset slices, Arrow ``group_by``), so no value
becomes a Python object; the other operators run a pandas kernel
(mergesort + run boundaries, numpy reduceat)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logray.stages.bucketing import (arrow_type_of, grouped_apply,
                                     sorted_scan, stream_fold)
from logray.stages.windowfn import _sorted_runs

__all__ = [
    "transition_counts", "transition_counts_sql",
    "funnel", "funnel_sql",
    "cohort_retention", "cohort_retention_sql",
    "trailing_active", "trailing_active_sql",
    "merge_intervals", "merge_intervals_sql",
    "dialogue_pairs", "dialogue_pairs_sql",
    "rate_limit", "rate_limit_sql",
    "dedup_consecutive", "dedup_consecutive_sql",
    "lateness", "lateness_sql",
]


def _fold_sum(key_cols: list[str], n_col: str = "n"):
    def fold(tables: list[pa.Table]) -> pa.Table:
        df = pd.concat([t.to_pandas() for t in tables], ignore_index=True)
        out = (df.groupby(key_cols, sort=True, dropna=False)[n_col]
               .sum().reset_index())
        out[n_col] = out[n_col].astype(np.int64)
        return pa.Table.from_pandas(out, preserve_index=False)

    return fold


def _transition_cols(order: int) -> list[str]:
    return ([f"from_{j}" for j in range(order, 1, -1)] + ["from_val"]
            if order > 1 else ["from_val"]) + ["to_val"]


def _isna(a) -> pa.Array:
    return pc.is_null(a, nan_is_null=True)


def _count_windows(t: pa.Table, key_col: str, val_col: str, order: int,
                   names: list[str], end_lo: int = 0) -> pa.Table:
    """Count the length-(order+1) windows of ``val_col`` over a KEY-SORTED
    table whose END row index is at least ``end_lo``.  A window is valid
    when its two end rows share a key (sortedness makes the middle rows
    equal too; null keys pool like SQL GROUP BY) and no ``from`` position
    is null (NaN counts as null).  Returns the (names..., n) partial
    table."""
    keys, vals = t[key_col], t[val_col]
    lo = max(end_lo, order)
    m = max(t.num_rows - lo, 0)
    end, start = keys.slice(lo, m), keys.slice(lo - order, m)
    keep = pc.and_(_isna(end), _isna(start))
    if not pa.types.is_null(keys.type):
        keep = pc.or_(keep, pc.fill_null(pc.equal(end, start), False))
    cols = [vals.slice(lo - (order - j), m) for j in range(len(names))]
    for col in cols[:-1]:
        keep = pc.and_(keep, pc.invert(_isna(col)))
    p = pa.table(cols, names=names).filter(keep)
    return (p.group_by(names).aggregate([([], "count_all")])
            .rename_columns(names + ["n"]))


def transition_counts(ds, key_col: str, order_col: str, val_col: str,
                      tiebreak_col: str | None = None,
                      num_buckets: int = 32, as_pandas: bool = True,
                      order: int = 1, skew_safe: bool = False):
    """Order-k Markov transition counts: how often each length-(k+1)
    value sequence occurs within a key's (order, tiebreak) stream,
    summed over all keys.  ``order=1`` (default) is the bigram histogram
    ``(from_val, to_val, n)``; ``order=2`` emits trigram rows
    ``(from_2, from_val, to_val, n)`` and so on — the n-gram language
    model of the event stream.  Windows never cross key boundaries, and
    rows whose window contains a null predecessor are dropped (SQL LAG
    boundary and genuine null values alike).

    ``skew_safe=True`` switches the physical plan from the bucket
    shuffle (one Arrow table per ``hash(key) % B`` bucket — a
    pathologically hot key inflates its bucket unboundedly) to a
    RANGE-SORTED block plan: Ray's sample-based sort splits even a
    single dominant key across many bounded blocks; each block counts
    its fully-interior windows, and the O(order) boundary rows of every
    block are stitched on the driver (the carry never exceeds ``order``
    rows), so per-task memory is block-bounded REGARDLESS of the key
    distribution.  Only the narrow (key, order cols, val) projection
    goes through the sort.  Identical output (pinned by the hot-key
    test); default stays the bucket plan, which is cheaper when keys
    are well distributed.  Both plans count with one Arrow kernel,
    :func:`_count_windows`."""
    if order < 1:
        raise ValueError("order must be >= 1")
    order_cols = [order_col] + ([tiebreak_col] if tiebreak_col else [])
    names = _transition_cols(order)
    if skew_safe:
        return _transition_counts_sorted(ds, key_col, order_cols, val_col,
                                         names, order, as_pandas)

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(
            t, sort_keys=[(c, "ascending") for c in [key_col] + order_cols]))
        return _count_windows(t, key_col, val_col, order, names)

    parts = grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets,
                          batch_format="pyarrow")
    folded = stream_fold(parts, _fold_sum(names))
    if folded is None:
        folded = pa.table({**{c: [] for c in names},
                           "n": pa.array([], pa.int64())})
    return folded.to_pandas() if as_pandas else folded


def _transition_counts_sorted(ds, key_col: str, order_cols: list[str],
                              val_col: str, names: list[str], order: int,
                              as_pandas: bool):
    """Skew-proof plan: global range sort of the narrow projection on the
    one sorted-block scan (:func:`~logray.stages.bucketing.sorted_scan`):
    one counting task per sorted block (interior windows), driver stitch
    of the O(order)-row block boundaries (seam windows)."""
    null_col = "__key_is_null"
    schema = ds.schema()
    # an all-null block infers a null-typed key, which no fill value
    # casts to: such blocks take the dataset's key type (pandas-block
    # schemas say `object` for strings)
    key_type = arrow_type_of(schema.types[schema.names.index(key_col)])
    if key_type is None or pa.types.is_null(key_type):
        key_type = pa.string()

    def sortable(t: pa.Table) -> pa.Table:
        # Ray's range sort compares key values in Python, which fails on a
        # null next to a string: sort on (key is null, key with its nulls
        # filled by any one value), and restore the nulls before counting
        k = t[key_col]
        if pa.types.is_null(k.type):
            k = k.cast(key_type)
        t = t.append_column(null_col, pc.is_null(k))
        return t.set_column(t.schema.get_field_index(key_col), key_col,
                            pc.fill_null(k, pa.scalar(0).cast(k.type)))

    def block_partial(t: pa.Table):
        kv = pa.table({
            key_col: pc.if_else(t[null_col], pa.scalar(None, t[key_col].type),
                                t[key_col]),
            val_col: t[val_col]})
        k = min(order, kv.num_rows)
        part = _count_windows(kv, key_col, val_col, order, names)
        return part, kv.slice(0, k), kv.slice(kv.num_rows - k)

    def stitch(results) -> list[pa.Table]:
        # the carry holds at most `order` rows, so seam windows (end in a
        # block's head, start before the block) are counted over
        # <= 2*order rows per block — O(order * num_blocks)
        parts = [p for p, _h, _t in results if p.num_rows]
        carry = None
        for _p, head, tail in results:
            if carry is not None:
                kv = pa.concat_tables([carry, head], promote_options="default")
                seam = _count_windows(kv, key_col, val_col, order, names,
                                      carry.num_rows)
                if seam.num_rows:
                    parts.append(seam)
                tail = pa.concat_tables([carry, tail],
                                        promote_options="default")
            carry = tail.slice(max(tail.num_rows - order, 0))
        return parts

    narrow = ds.select_columns([key_col] + order_cols + [val_col]).map_batches(
        sortable, batch_format="pyarrow", zero_copy_batch=True)
    parts = sorted_scan(narrow, [null_col, key_col] + order_cols,
                        block_partial, stitch)
    folded = (_fold_sum(names)(parts) if parts else
              pa.table({**{c: [] for c in names},
                        "n": pa.array([], pa.int64())}))
    return folded.to_pandas() if as_pandas else folded


def transition_counts_sql(table: str, key_col: str, order_col: str,
                          val_col: str,
                          tiebreak_col: str | None = None,
                          order: int = 1) -> str:
    """DuckDB twin of :func:`transition_counts` (any order)."""
    ord_by = order_col + (f", {tiebreak_col}" if tiebreak_col else "")
    names = _transition_cols(order)
    lags = ", ".join(
        f"lag({val_col}, {order - j}) OVER w AS {name}"
        for j, name in enumerate(names[:-1]))
    notnull = " AND ".join(f"{c} IS NOT NULL" for c in names[:-1])
    cols = ", ".join(names)
    return (
        f"SELECT {cols}, CAST(count(*) AS BIGINT) AS n FROM ("
        f"SELECT {val_col} AS to_val, {lags} FROM {table} "
        f"WINDOW w AS (PARTITION BY {key_col} ORDER BY {ord_by})"
        f") WHERE {notnull} GROUP BY {cols}"
    )


def funnel(ds, key_col: str, order_col: str, val_col: str,
           stages: list[str], num_buckets: int = 32,
           as_pandas: bool = True):
    """Ordered funnel: per key, the number of ``stages`` completed IN
    ORDER with strictly increasing ``order_col`` (stage k+1 must occur
    strictly after the FIRST qualifying occurrence of stage k — the
    standard first-touch funnel).  Output ``(key, stage_reached)`` with
    one row for EVERY key, 0 = never entered the funnel.

    Per bucket the kernel is one segmented min per stage
    (``np.minimum.reduceat`` over masked order values), so cost is
    O(len(stages) * rows), vectorized across all keys at once.

    Skew guard: rows whose value is not a funnel stage CANNOT affect the
    result, so each batch ships only its stage rows plus ONE null-valued
    sentinel row per distinct non-stage key (keys with no stage events
    must still emit ``stage_reached = 0``).  A hot key's bucket volume
    is therefore bounded by its STAGE-event count + the batch count, not
    its raw row count — and the common case (most events outside the
    funnel) shuffles a fraction of the corpus."""
    if not stages:
        raise ValueError("stages must be non-empty")
    stage_set = set(stages)

    def prune(t: pa.Table) -> pa.Table:
        sel = t.select([key_col, order_col, val_col])
        df = sel.to_pandas()
        m = df[val_col].isin(stage_set).to_numpy()
        keep = df[m]
        rest = df[~m].drop_duplicates(key_col)
        if len(rest):
            # the sentinel keeps the ORDER column's own value (dtype
            # stays intact); the null VALUE matches no stage, so the
            # row only contributes the key's existence
            rest = rest.copy()
            rest[val_col] = None
        out = pd.concat([keep, rest], ignore_index=True)
        # pin the input schema: an all-sentinel batch (every event
        # outside the funnel — the exact skew case the prune targets)
        # would otherwise infer a null-typed value column and fork the
        # stream's block schemas
        return pa.Table.from_pandas(out, schema=sel.schema,
                                    preserve_index=False)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, run_id, _first = _sorted_runs(g, key_col, [order_col])
        n = len(g)
        starts = np.flatnonzero(np.r_[True, run_id[1:] != run_id[:-1]]) \
            if n else np.zeros(0, np.int64)
        n_runs = len(starts)
        ts = g[order_col].to_numpy()
        if np.issubdtype(ts.dtype, np.datetime64):
            # NaT views to int64-min, below every prev_t -> never a
            # candidate, matching SQL (NULL ts satisfies no comparison)
            ts = ts.astype("datetime64[ns]").view(np.int64)
        elif np.issubdtype(ts.dtype, np.integer):
            ts = ts.astype(np.int64)
        else:
            # float order columns keep their dtype — truncating to int64
            # would collapse distinct order values (NaN never compares)
            ts = ts.astype(np.float64)
        v = g[val_col].to_numpy()
        is_int = ts.dtype == np.int64
        low = -(1 << 62) if is_int else -np.inf
        big = np.int64(1 << 62) if is_int else np.inf
        prev_t = np.full(n_runs, low, ts.dtype)
        reached = np.zeros(n_runs, np.int64)
        alive = np.ones(n_runs, np.bool_)
        for s in stages:
            cand = np.where((v == s) & (ts > prev_t[run_id]), ts, big) \
                if n else np.zeros(0, ts.dtype)
            t_min = np.minimum.reduceat(cand, starts) if n_runs else cand
            hit = alive & (t_min < big)
            reached[hit] += 1
            prev_t = np.where(hit, t_min, prev_t)
            alive = hit
            if not alive.any():
                break
        keys = g[key_col].to_numpy()[starts] if n else g[key_col].to_numpy()
        return pd.DataFrame({key_col: keys, "stage_reached": reached})

    out = grouped_apply(
        ds.map_batches(prune, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        key_col, per_bucket, num_buckets=num_buckets)
    return out.to_pandas() if as_pandas else out


def funnel_sql(table: str, key_col: str, order_col: str, val_col: str,
               stages: list[str]) -> str:
    """DuckDB twin of :func:`funnel`: one min-aggregate CTE per stage,
    each anchored strictly after the previous stage's first hit."""
    lits = [s.replace("'", "''") for s in stages]
    ctes = [f"s0 AS (SELECT DISTINCT {key_col} FROM {table})"]
    prev = None
    for k, lit in enumerate(lits, start=1):
        if prev is None:
            ctes.append(
                f"s{k} AS (SELECT {key_col}, min({order_col}) AS t "
                f"FROM {table} WHERE {val_col} = '{lit}' GROUP BY {key_col})")
        else:
            ctes.append(
                f"s{k} AS (SELECT e.{key_col}, min(e.{order_col}) AS t "
                f"FROM {table} e JOIN s{k - 1} p ON e.{key_col} = p.{key_col} "
                f"AND e.{order_col} > p.t "
                f"WHERE e.{val_col} = '{lit}' GROUP BY e.{key_col})")
        prev = k
    case = "CASE " + " ".join(
        f"WHEN s{k}.t IS NOT NULL THEN {k}"
        for k in range(len(stages), 0, -1)
    ) + " ELSE 0 END"
    joins = " ".join(
        f"LEFT JOIN s{k} USING ({key_col})"
        for k in range(1, len(stages) + 1))
    return (
        f"WITH {', '.join(ctes)} "
        f"SELECT s0.{key_col}, CAST({case} AS BIGINT) AS stage_reached "
        f"FROM s0 {joins}"
    )


def cohort_retention(ds, key_col: str, ts_col: str, num_buckets: int = 32,
                     as_pandas: bool = True):
    """Cohort retention: keys grouped by their FIRST active day (the
    cohort), counting distinct keys active at each day offset from it.
    Output ``(cohort_day: timestamp, day_offset, n)``.

    One bucket shuffle co-locates each key's rows; the per-bucket kernel
    computes the key's cohort with a segmented min and dedups
    (key, offset) pairs before counting, so partials carry one row per
    (cohort, offset) per bucket — the driver fold is O(cohorts *
    horizon), never O(keys)."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g[ts_col].notna()]  # NaT would view as int64-min garbage;
        # the SQL twin's WHERE drops null ts identically
        g, run_id, first = _sorted_runs(g, key_col, [ts_col])
        n = len(g)
        days = g[ts_col].to_numpy().astype("datetime64[D]").astype(np.int64)
        cohort = days[first]  # first row of run is its min ts -> min day
        off = days - cohort
        p = pd.DataFrame({"run": run_id, "cohort": cohort, "off": off})
        p = p.drop_duplicates(["run", "off"])
        s = (p.groupby(["cohort", "off"], sort=False).size()
             .reset_index(name="n"))
        s["n"] = s["n"].astype(np.int64)
        return s if n else pd.DataFrame(
            {"cohort": pd.Series([], dtype="int64"),
             "off": pd.Series([], dtype="int64"),
             "n": pd.Series([], dtype="int64")})

    parts = grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)
    folded = stream_fold(parts, _fold_sum(["cohort", "off"]))
    if folded is None:
        df = pd.DataFrame({"cohort_day": pd.Series([], dtype="datetime64[us]"),
                           "day_offset": pd.Series([], dtype="int64"),
                           "n": pd.Series([], dtype="int64")})
        return df if as_pandas else pa.Table.from_pandas(df)
    df = folded.to_pandas()
    out = pd.DataFrame({
        "cohort_day": df["cohort"].to_numpy().astype("datetime64[D]")
                       .astype("datetime64[us]"),
        "day_offset": df["off"].astype(np.int64),
        "n": df["n"],
    })
    return out if as_pandas else pa.Table.from_pandas(out, preserve_index=False)


def cohort_retention_sql(table: str, key_col: str, ts_col: str) -> str:
    """DuckDB twin of :func:`cohort_retention`."""
    return (
        f"WITH d AS (SELECT {key_col}, date_trunc('day', {ts_col}) AS day "
        f"FROM {table} WHERE {ts_col} IS NOT NULL), "
        f"c AS (SELECT {key_col}, min(day) AS cohort FROM d "
        f"GROUP BY {key_col}) "
        f"SELECT CAST(c.cohort AS TIMESTAMP) AS cohort_day, "
        f"CAST(date_diff('day', c.cohort, d.day) AS BIGINT) AS day_offset, "
        f"CAST(count(DISTINCT d.{key_col}) AS BIGINT) AS n "
        f"FROM d JOIN c USING ({key_col}) GROUP BY cohort_day, day_offset"
    )


def trailing_active(ds, key_col: str, ts_col: str, window_days: int = 7,
                    num_buckets: int = 32, as_pandas: bool = True):
    """Trailing-window active keys (the DAU/WAU/MAU family): for every
    day, the number of distinct keys active at least once in the
    trailing ``window_days`` days ending that day.  Output
    ``(day: timestamp, n)`` for every day reachable from an active day
    (a key active on day d contributes to days d .. d+window_days-1).

    Scale shape: per-batch distinct-(key, day) combiner, ONE key-hash
    bucket shuffle, then the window explode (x window_days) runs on the
    ALREADY-DEDUPED pairs and re-dedups per key before counting — count
    partials per bucket, driver fold O(days)."""
    if window_days < 1:
        raise ValueError("window_days must be >= 1")

    def local_dedup(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        t = t.filter(_pc.is_valid(t[ts_col]))  # match the twin's WHERE
        days = _pc.cast(_pc.floor_temporal(t[ts_col], unit="day"),
                        pa.timestamp("us"))
        days = pa.array(days.to_numpy(zero_copy_only=False)
                        .astype("datetime64[D]").astype(np.int64))
        return pa.table({key_col: t[key_col], "__day": days}) \
            .group_by([key_col, "__day"]).aggregate([])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([key_col, "__day"])
        k = g[key_col].to_numpy()
        d = g["__day"].to_numpy().astype(np.int64)
        kk = np.repeat(k, window_days)
        dd = (np.repeat(d, window_days)
              + np.tile(np.arange(window_days, dtype=np.int64), len(d)))
        p = pd.DataFrame({"k": kk, "day": dd}).drop_duplicates()
        s = p.groupby("day", sort=False).size().reset_index(name="n")
        s["n"] = s["n"].astype(np.int64)
        return s

    parts = grouped_apply(
        ds.map_batches(local_dedup, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        key_col, per_bucket, num_buckets=num_buckets)
    folded = stream_fold(parts, _fold_sum(["day"]))
    if folded is None:
        df = pd.DataFrame({"day": pd.Series([], dtype="datetime64[us]"),
                           "n": pd.Series([], dtype="int64")})
        return df if as_pandas else pa.Table.from_pandas(df)
    df = folded.to_pandas()
    out = pd.DataFrame({
        "day": df["day"].to_numpy().astype("datetime64[D]")
                .astype("datetime64[us]"),
        "n": df["n"],
    })
    return out if as_pandas else pa.Table.from_pandas(out, preserve_index=False)


def trailing_active_sql(table: str, key_col: str, ts_col: str,
                        window_days: int = 7) -> str:
    """DuckDB twin of :func:`trailing_active` (same explode algebra)."""
    return (
        f"WITH d AS (SELECT DISTINCT {key_col}, "
        f"CAST(date_trunc('day', {ts_col}) AS DATE) AS day FROM {table} "
        f"WHERE {ts_col} IS NOT NULL), "
        f"e AS (SELECT DISTINCT {key_col}, day + CAST(x AS INTEGER) AS day2 "
        f"FROM d, (SELECT unnest(generate_series(0, {window_days - 1})) AS x)) "
        f"SELECT CAST(day2 AS TIMESTAMP) AS day, "
        f"CAST(count(DISTINCT {key_col}) AS BIGINT) AS n "
        f"FROM e GROUP BY day2"
    )


def merge_intervals(ds, key_col: str, start_col: str, end_col: str,
                    num_buckets: int = 32, as_pandas: bool = True):
    """Merge overlapping / touching-by-overlap intervals per key into
    maximal islands (gaps-and-islands: downtime windows, session spans,
    coverage ranges).  Intervals are merged while the next start is <=
    the running max end; output one row per island:
    ``(key, start, end, n_merged)``.  Null starts/ends are dropped.

    Per bucket: one mergesort by (key, start, end), a C-speed grouped
    cummax for the running end, and island aggregation via ``reduceat``
    — no per-key Python.  Timestamps round-trip as int64 microseconds."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g[start_col].notna() & g[end_col].notna()]
        g, run_id, _first = _sorted_runs(g, key_col, [start_col, end_col])
        n = len(g)
        s_raw = g[start_col].to_numpy()
        e_raw = g[end_col].to_numpy()
        is_ts = np.issubdtype(s_raw.dtype, np.datetime64)
        if is_ts:
            s = s_raw.astype("datetime64[us]").view(np.int64)
            e = e_raw.astype("datetime64[us]").view(np.int64)
        else:
            s, e = s_raw, e_raw  # keep the numeric dtype (int stays exact)
        first = np.zeros(n, np.bool_)
        if n:
            first[0] = True
            first[1:] = run_id[1:] != run_id[:-1]
        cm = pd.Series(e).groupby(run_id).cummax().to_numpy()
        prev = np.empty_like(cm)
        if n:
            prev[0] = cm[0]  # masked by first[0]=True
            prev[1:] = cm[:-1]
        new_island = first | (s > prev)
        isl_starts = np.flatnonzero(new_island)
        start_v = s[isl_starts]
        end_v = np.maximum.reduceat(e, isl_starts) if len(isl_starts) else e
        cnt = np.diff(np.append(isl_starts, n))
        if is_ts:
            start_o = start_v.view("datetime64[us]")
            end_o = end_v.view("datetime64[us]")
        else:
            start_o, end_o = start_v, end_v
        return pd.DataFrame({
            key_col: g[key_col].to_numpy()[isl_starts],
            "start": start_o,
            "end": end_o,
            "n_merged": cnt.astype(np.int64),
        })

    out = grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)
    return out.to_pandas() if as_pandas else out


def merge_intervals_sql(table: str, key_col: str, start_col: str,
                        end_col: str) -> str:
    """DuckDB twin of :func:`merge_intervals` (identical island rule:
    a row starts a new island iff its start exceeds the running max end
    of everything before it in (start, end) order)."""
    return (
        f"WITH o AS (SELECT {key_col}, {start_col} AS s, {end_col} AS e, "
        f"max({end_col}) OVER (PARTITION BY {key_col} "
        f"ORDER BY {start_col}, {end_col} "
        f"ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prev_max "
        f"FROM {table} "
        f"WHERE {start_col} IS NOT NULL AND {end_col} IS NOT NULL), "
        f"i AS (SELECT *, sum(CASE WHEN prev_max IS NULL OR s > prev_max "
        f"THEN 1 ELSE 0 END) OVER (PARTITION BY {key_col} ORDER BY s, e "
        f"ROWS UNBOUNDED PRECEDING) AS island FROM o) "
        f"SELECT {key_col}, min(s) AS start, max(e) AS \"end\", "
        f"CAST(count(*) AS BIGINT) AS n_merged "
        f"FROM i GROUP BY {key_col}, island"
    )


def dialogue_pairs(ds, conv_col: str = "conv_id", order_col: str = "turn_idx",
                   role_col: str = "role", text_col: str = "text",
                   prompt_role: str = "user", response_role: str = "assistant",
                   num_buckets: int = 32):
    """Extract (prompt, response) training pairs from multi-turn
    transcripts: every ADJACENT turn pair within a conversation where the
    first turn's role is ``prompt_role`` and the next turn's role is
    ``response_role`` — the SFT-pair mining step that turns raw
    transcripts into instruction-tuning rows.  Output
    ``(conv_id, turn_idx, prompt, response)`` keyed by the prompt turn.

    One bucket shuffle + one segmented shift per bucket (the
    :func:`transition_counts` kernel shape, carrying text instead of
    counting)."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, run_id, _first = _sorted_runs(g, conv_col, [order_col])
        n = len(g)
        role = g[role_col].to_numpy()
        nxt_same = np.zeros(n, np.bool_)
        if n > 1:
            nxt_same[:-1] = run_id[1:] == run_id[:-1]
        is_pair = nxt_same.copy()
        if n > 1:
            is_pair[:-1] &= (role[:-1] == prompt_role) & \
                            (role[1:] == response_role)
            is_pair[-1] = False
        idx = np.flatnonzero(is_pair)
        txt = g[text_col].to_numpy()
        return pd.DataFrame({
            conv_col: g[conv_col].to_numpy()[idx],
            order_col: g[order_col].to_numpy()[idx],
            "prompt": txt[idx],
            "response": txt[idx + 1],
        })

    return grouped_apply(ds, conv_col, per_bucket, num_buckets=num_buckets)


def dialogue_pairs_sql(table: str, conv_col: str = "conv_id",
                       order_col: str = "turn_idx", role_col: str = "role",
                       text_col: str = "text", prompt_role: str = "user",
                       response_role: str = "assistant") -> str:
    """DuckDB twin of :func:`dialogue_pairs`."""
    return (
        f"SELECT {conv_col}, {order_col}, {text_col} AS prompt, "
        f"nxt_text AS response FROM ("
        f"SELECT {conv_col}, {order_col}, {role_col}, {text_col}, "
        f"lead({role_col}) OVER w AS nxt_role, "
        f"lead({text_col}) OVER w AS nxt_text "
        f"FROM {table} WINDOW w AS ("
        f"PARTITION BY {conv_col} ORDER BY {order_col})"
        f") WHERE {role_col} = '{prompt_role}' "
        f"AND nxt_role = '{response_role}'"
    )


def rate_limit(ds, key_col: str, ts_col: str, window_s: float, n: int,
               tiebreak_col: str | None = None, num_buckets: int = 32):
    """Throttle: keep only the FIRST ``n`` events per key per tumbling
    ``window_s``-second window (alert dedup / log rate limiting).
    Deterministic: events are ordered by (ts, tiebreak) inside the
    window.  One bucket shuffle + a segmented cumcount per bucket.

    The SQL twin floors epoch microseconds with the same integer
    arithmetic, so window edges agree exactly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    win_us = int(round(window_s * 1_000_000))
    order_cols = [ts_col] + ([tiebreak_col] if tiebreak_col else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g[ts_col].notna()]
        g, run_id, _first = _sorted_runs(g, key_col, order_cols)
        ts = (g[ts_col].to_numpy().astype("datetime64[us]").view(np.int64))
        win = (ts // win_us) * win_us
        m = len(g)
        new_seg = np.ones(m, np.bool_)
        if m > 1:
            new_seg[1:] = ~((run_id[1:] == run_id[:-1])
                            & (win[1:] == win[:-1]))
        idx = np.arange(m, dtype=np.int64)
        seg_start = np.maximum.accumulate(np.where(new_seg, idx, -1))
        keep = (idx - seg_start) < n
        return g.loc[keep]

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def rate_limit_sql(table: str, key_col: str, ts_col: str, window_s: float,
                   n: int, tiebreak_col: str | None = None,
                   cols: str = "*") -> str:
    """DuckDB twin of :func:`rate_limit`."""
    win_us = int(round(window_s * 1_000_000))
    order = ts_col + (f", {tiebreak_col}" if tiebreak_col else "")
    return (
        f"SELECT {cols} FROM ("
        f"SELECT *, row_number() OVER ("
        f"PARTITION BY {key_col}, (epoch_us({ts_col}) // {win_us}) "
        f"ORDER BY {order}) AS __rn "
        f"FROM {table} WHERE {ts_col} IS NOT NULL) WHERE __rn <= {n}"
    )


def dedup_consecutive(ds, key_col: str, order_col: str, val_col: str,
                      tiebreak_col: str | None = None,
                      num_buckets: int = 32):
    """Change-log compaction: within each key's (order, tiebreak)
    sequence keep only rows whose ``val_col`` DIFFERS from the previous
    row's (SQL ``IS DISTINCT FROM`` — null-to-null collapses, the run's
    first row always survives).  The state-change extraction every
    metrics/CDC pipeline runs before storing a status stream."""
    order_cols = [order_col] + ([tiebreak_col] if tiebreak_col else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, run_id, _first = _sorted_runs(g, key_col, order_cols)
        v = g[val_col]
        m = len(g)
        keep = np.ones(m, np.bool_)
        if m > 1:
            same_run = run_id[1:] == run_id[:-1]
            vn = v.to_numpy()
            na = pd.isna(vn)
            same_val = np.zeros(m - 1, np.bool_)
            both = ~na[1:] & ~na[:-1]
            same_val[both] = vn[1:][both] == vn[:-1][both]
            same_val |= na[1:] & na[:-1]
            keep[1:] = ~(same_run & same_val)
        return g.loc[keep]

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def dedup_consecutive_sql(table: str, key_col: str, order_col: str,
                          val_col: str, tiebreak_col: str | None = None,
                          cols: str = "*") -> str:
    """DuckDB twin of :func:`dedup_consecutive`."""
    order = order_col + (f", {tiebreak_col}" if tiebreak_col else "")
    return (
        f"SELECT {cols} FROM ("
        f"SELECT *, lag({val_col}) OVER ("
        f"PARTITION BY {key_col} ORDER BY {order}) AS __prev, "
        f"row_number() OVER ("
        f"PARTITION BY {key_col} ORDER BY {order}) AS __rn "
        f"FROM {table}) "
        f"WHERE __rn = 1 OR {val_col} IS DISTINCT FROM __prev"
    )


def lateness(ds, key_col: str, arrival_col: str, ts_col: str,
             num_buckets: int = 32):
    """Out-of-orderness diagnostic: for each row, how far its event time
    lags the running MAX event time seen so far in the key's ARRIVAL
    order — ``late_us = max(ts) over arrival-so-far − ts`` (0 for
    in-order rows).  The distribution of ``late_us`` is what sizes a
    streaming watermark / allowed-lateness bound.

    One bucket shuffle + a C-speed grouped cummax per bucket (the
    :func:`merge_intervals` kernel)."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g[g[ts_col].notna()]  # NaT would view as INT64_MIN garbage;
        # the SQL twin's WHERE drops null event times identically
        g, run_id, _first = _sorted_runs(g, key_col, [arrival_col])
        ts = g[ts_col].to_numpy().astype("datetime64[us]").view(np.int64)
        cm = pd.Series(ts).groupby(run_id).cummax().to_numpy()
        g["late_us"] = (cm - ts).astype(np.int64)
        return g

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def lateness_sql(table: str, key_col: str, arrival_col: str, ts_col: str,
                 cols: str = "*") -> str:
    """DuckDB twin of :func:`lateness`."""
    return (
        f"SELECT {cols}, "
        f"CAST(epoch_us(max({ts_col}) OVER ("
        f"PARTITION BY {key_col} ORDER BY {arrival_col} "
        f"ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)) "
        f"- epoch_us({ts_col}) AS BIGINT) AS late_us FROM {table} "
        f"WHERE {ts_col} IS NOT NULL"
    )
