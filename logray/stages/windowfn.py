"""Per-key ORDERED analytic window functions (SQL LAG / LEAD / rolling
frame aggregates) — the row-wise counterpart of the bucketed windows in
``stages/window.py``.

The reference engine exposes ordered per-view navigation (previous /
next row within a filtered view, ``src/file_parsing/filtered_file_reader
.cpp`` findNextOccurence and the LineBlock pager); these operators are
the dataset-level generalization: for every row, the value n rows
before/after (``lag_lead``) or an aggregate over the trailing row frame
(``rolling_agg``) *within its key partition*, ordered by (order col,
tiebreak).

Scale shape (same as sessionize / grouped_quantiles): one
``hash(key) % num_buckets`` tag + ONE bucket shuffle, then a single
mergesort + segmented vectorized kernel per bucket — group count is
``num_buckets``, never the key cardinality, and no per-key Python.
Rolling sums use the cumsum-difference trick clipped at partition
starts (:func:`_prefix_sums`), so a bucket of B rows costs O(B log B)
regardless of window width.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logray.stages.bucketing import grouped_apply, run_starts, sorted_scan


def _sorted_runs(g: pd.DataFrame, key_col: str, order_cols: list[str]):
    """Sort one bucket by (key, order...) and return (frame, per-row
    run_id, per-row index of its run's first row)."""
    g = g.sort_values([key_col] + order_cols, kind="mergesort").reset_index(drop=True)
    n = len(g)
    starts = run_starts(g[key_col].to_numpy())
    run_id = np.cumsum(starts) - 1
    idx = np.arange(n, dtype=np.int64)
    first_of_run = idx[starts][run_id] if n else idx
    return g, run_id, first_of_run


def _shift_within_runs(values: pd.Series, run_id: np.ndarray, n: int) -> pd.Series:
    """values shifted by n (positive = lag, negative = lead), null where
    the source row falls outside the row's key run."""
    ln = len(values)
    idx = np.arange(ln, dtype=np.int64)
    src = idx - n
    ok = (src >= 0) & (src < ln)
    same = np.zeros(ln, np.bool_)
    same[ok] = run_id[src[ok]] == run_id[ok]
    taken = values.iloc[np.clip(src, 0, max(ln - 1, 0))].reset_index(drop=True)
    if pd.api.types.is_integer_dtype(taken) or pd.api.types.is_float_dtype(taken):
        out = taken.astype("float64").where(pd.Series(same), np.nan)
    else:
        out = taken.where(pd.Series(same), None)
    return out


def _prefix_sums(s: pd.Series, run_id: np.ndarray, first: np.ndarray):
    """Prefix sums of a value column over one sorted bucket for the
    cumsum-difference frames: ``(int_exact, csum, floor, non_null)``.  A
    frame starting at row ``lo`` subtracts ``csum[lo - 1]`` only when
    ``lo - 1 >= floor``.  Non-null integers sum exactly in one int64
    cumsum over the bucket (``floor`` 0).  Floats restart the sum at each
    key run (``floor`` = the run's first row), so one key's sums never
    absorb the rounding of the keys sorted before it in its bucket."""
    if pd.api.types.is_integer_dtype(s) and not s.isna().any():
        return True, np.cumsum(s.to_numpy(np.int64)), 0, np.ones(len(s),
                                                                 np.bool_)
    v = s.to_numpy(np.float64, na_value=np.nan)
    nn = ~np.isnan(v)
    csum = pd.Series(np.where(nn, v, 0.0)).groupby(run_id).cumsum()
    return False, csum.to_numpy(), first, nn


def lag_lead(ds, key_col: str, order_col: str, value_col: str, n: int = 1,
             tiebreak_col: str | None = None, num_buckets: int = 32):
    """Append ``lag_<value>`` / ``lead_<value>``: the value n rows
    before / after within the key partition ordered by (order, tiebreak).
    Numeric values come back float64 (null -> NaN), matching SQL
    LAG/LEAD which are nullable even over NOT NULL inputs."""
    order_cols = [order_col] + ([tiebreak_col] if tiebreak_col else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, run_id, _first = _sorted_runs(g, key_col, order_cols)
        g[f"lag_{value_col}"] = _shift_within_runs(g[value_col], run_id, n)
        g[f"lead_{value_col}"] = _shift_within_runs(g[value_col], run_id, -n)
        return g

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def lag_lead_sql(table: str, key_col: str, order_col: str, value_col: str,
                 n: int = 1, tiebreak_col: str | None = None,
                 cols: str | None = None) -> str:
    """DuckDB twin of :func:`lag_lead` (CAST to DOUBLE mirrors the
    engine's nullable-float64 output for numeric inputs)."""
    order = order_col + (f", {tiebreak_col}" if tiebreak_col else "")
    cols = cols or "*"
    return (
        f"SELECT {cols}, "
        f"CAST(LAG({value_col}, {n}) OVER w AS DOUBLE) AS lag_{value_col}, "
        f"CAST(LEAD({value_col}, {n}) OVER w AS DOUBLE) AS lead_{value_col} "
        f"FROM {table} WINDOW w AS (PARTITION BY {key_col} ORDER BY {order})"
    )


def rolling_agg(ds, key_col: str, order_col: str, value_col: str,
                window: int | None, tiebreak_col: str | None = None,
                num_buckets: int = 32):
    """Trailing-frame aggregates per row: SQL
    ``ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW`` over the key
    partition ordered by (order, tiebreak); ``window=None`` is the
    EXPANDING frame (``ROWS UNBOUNDED PRECEDING`` — running totals).
    Appends ``roll_sum``, ``roll_n`` (non-null count) and ``roll_mean``
    (= sum / n, null for an all-null frame).

    Integer inputs sum exactly in int64 (roll_sum stays int64); float
    inputs sum via differences of a float64 cumsum that restarts at each
    key (:func:`_prefix_sums`) — for bit-exact parity with a SQL oracle
    feed integer units (e.g. cents)."""
    order_cols = [order_col] + ([tiebreak_col] if tiebreak_col else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, run_id, first = _sorted_runs(g, key_col, order_cols)
        n = len(g)
        if not n:
            g["roll_sum"] = pd.array([], dtype="int64")
            g["roll_n"] = pd.array([], dtype="int64")
            g["roll_mean"] = pd.array([], dtype="float64")
            return g
        int_exact, csum, sum_floor, nn = _prefix_sums(g[value_col], run_id,
                                                      first)
        cnt = np.cumsum(nn.astype(np.int64))
        idx = np.arange(n, dtype=np.int64)
        lo = first if window is None else np.maximum(first, idx - (window - 1))
        prev = lo - 1
        has_prev = prev >= 0
        base_s = np.where(prev >= sum_floor, csum[np.clip(prev, 0, None)], 0)
        base_c = np.where(has_prev, cnt[np.clip(prev, 0, None)], 0)
        roll_sum = csum - base_s
        roll_n = (cnt - base_c).astype(np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            roll_mean = np.where(roll_n > 0, roll_sum.astype(np.float64) / roll_n, np.nan)
        g["roll_sum"] = roll_sum if int_exact else np.where(roll_n > 0, roll_sum, np.nan)
        g["roll_n"] = roll_n
        g["roll_mean"] = roll_mean
        return g

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def rolling_agg_sql(table: str, key_col: str, order_col: str, value_col: str,
                    window: int | None, tiebreak_col: str | None = None,
                    cols: str | None = None) -> str:
    """DuckDB twin of :func:`rolling_agg` for an integer, non-null value
    column (exact int64 sums; mean = exact-int division in float64)."""
    order = order_col + (f", {tiebreak_col}" if tiebreak_col else "")
    frame = (
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW"
        if window is None
        else f"ROWS BETWEEN {window - 1} PRECEDING AND CURRENT ROW"
    )
    cols = cols or "*"
    return (
        f"SELECT {cols}, "
        f"CAST(SUM({value_col}) OVER w AS BIGINT) AS roll_sum, "
        f"CAST(COUNT({value_col}) OVER w AS BIGINT) AS roll_n, "
        f"CAST(SUM({value_col}) OVER w AS DOUBLE) / COUNT({value_col}) OVER w AS roll_mean "
        f"FROM {table} WINDOW w AS "
        f"(PARTITION BY {key_col} ORDER BY {order} {frame})"
    )


def rolling_agg_range(ds, key_col: str, order_col: str, value_col: str,
                      preceding: int, num_buckets: int = 32):
    """Value-based (time-interval) trailing frame: SQL ``RANGE BETWEEN
    preceding PRECEDING AND CURRENT ROW`` per key partition ordered by an
    INTEGER order column (epoch seconds for timestamps).  The frame is
    every row of the partition whose order value lies in
    ``[order - preceding, order]`` — including peers that sort AFTER the
    current row (SQL RANGE frames end at the last peer, not the current
    row).  Appends ``roll_sum`` / ``roll_n`` / ``roll_mean``.

    Scale shape matches :func:`rolling_agg`: one bucket shuffle, then per
    bucket a single mergesort plus ONE global ``searchsorted`` pair — the
    per-run order arrays are lifted onto a shared monotonic axis by
    adding per-run offsets spaced ``> preceding`` apart, so no per-key
    loop and no per-row bisect."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, run_id, first = _sorted_runs(g, key_col, [order_col])
        n = len(g)
        if not n:
            g["roll_sum"] = pd.array([], dtype="int64")
            g["roll_n"] = pd.array([], dtype="int64")
            g["roll_mean"] = pd.array([], dtype="float64")
            return g
        o = g[order_col].to_numpy()
        if not np.issubdtype(o.dtype, np.integer):
            raise TypeError(
                f"rolling_agg_range needs an integer order column "
                f"(epoch seconds); got {o.dtype}"
            )
        o = o.astype(np.int64)
        starts = run_starts(g[key_col].to_numpy())
        f_idx = np.flatnonzero(starts)          # first row of each run
        l_idx = np.append(f_idx[1:], n) - 1     # last row of each run
        # per-run offset: each run's lifted range begins > preceding past
        # the previous run's lifted max, so a left-bisect of
        # (lifted - preceding) can never cross a run boundary
        gap = np.zeros(len(f_idx), np.int64)
        if len(f_idx) > 1:
            gap[1:] = (o[l_idx[:-1]] - o[f_idx[1:]]) + preceding + 1
        off = np.cumsum(gap)
        gv = o + off[run_id]
        if np.any(np.diff(gv) < 0):  # int64 overflow in the lift
            raise OverflowError("order range too wide for the range-frame lift")
        lo = np.searchsorted(gv, gv - preceding, side="left")
        hi = np.searchsorted(gv, gv, side="right") - 1
        int_exact, csum, sum_floor, nn = _prefix_sums(g[value_col], run_id,
                                                      first)
        cnt = np.cumsum(nn.astype(np.int64))
        has_prev = lo > 0
        base_s = np.where(lo > sum_floor, csum[np.clip(lo - 1, 0, None)], 0)
        base_c = np.where(has_prev, cnt[np.clip(lo - 1, 0, None)], 0)
        roll_sum = csum[hi] - base_s
        roll_n = (cnt[hi] - base_c).astype(np.int64)
        with np.errstate(invalid="ignore", divide="ignore"):
            roll_mean = np.where(roll_n > 0, roll_sum.astype(np.float64) / roll_n, np.nan)
        g["roll_sum"] = roll_sum if int_exact else np.where(roll_n > 0, roll_sum, np.nan)
        g["roll_n"] = roll_n
        g["roll_mean"] = roll_mean
        return g

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def rolling_agg_range_sql(table: str, key_col: str, order_col: str,
                          value_col: str, preceding: int,
                          cols: str | None = None) -> str:
    """DuckDB twin of :func:`rolling_agg_range` for an integer, non-null
    value column."""
    cols = cols or "*"
    return (
        f"SELECT {cols}, "
        f"CAST(SUM({value_col}) OVER w AS BIGINT) AS roll_sum, "
        f"CAST(COUNT({value_col}) OVER w AS BIGINT) AS roll_n, "
        f"CAST(SUM({value_col}) OVER w AS DOUBLE) / COUNT({value_col}) OVER w AS roll_mean "
        f"FROM {table} WINDOW w AS "
        f"(PARTITION BY {key_col} ORDER BY {order_col} "
        f"RANGE BETWEEN {preceding} PRECEDING AND CURRENT ROW)"
    )


def rank_window(ds, key_col: str, order_col: str,
                tiebreak_col: str | None = None, num_buckets: int = 32,
                ntile: int | None = None, pct: bool = False):
    """Append SQL ``row_num`` / ``rnk`` / ``dense_rnk`` per key partition.

    ``row_num`` numbers rows by (order, tiebreak) — pass a tiebreak for a
    deterministic result; ``rnk`` / ``dense_rnk`` follow SQL semantics:
    computed over ``order_col`` alone, ties share a rank (RANK leaves
    gaps, DENSE_RANK doesn't), and null order values tie with each other
    (SQL treats nulls as equal in ORDER BY ranking, sorted last).
    ``ntile=n`` also appends ``tile``: rows split into n near-equal
    groups, the first ``len % n`` groups one row larger (SQL NTILE).
    ``pct=True`` also appends ``pct_rank`` = (rnk-1)/(run_len-1) (0.0 for
    a single-row partition) and ``cume_dist`` = peers-through-here /
    run_len — exact-int ratios divided once in float64, so bit-identical
    to DuckDB's double window results."""
    order_cols = [order_col] + ([tiebreak_col] if tiebreak_col else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, run_id, first = _sorted_runs(g, key_col, order_cols)
        n = len(g)
        idx = np.arange(n, dtype=np.int64)
        # a "step" is a run start or a change in the order value (nulls
        # pooled, same contract as run_starts)
        step = run_starts(g[order_col].to_numpy())
        step |= idx == first  # run starts always begin a step
        last_step = np.maximum.accumulate(np.where(step, idx, 0))
        csteps = np.cumsum(step.astype(np.int64))
        g["row_num"] = idx - first + 1
        g["rnk"] = last_step - first + 1
        g["dense_rnk"] = csteps - (csteps[first] - 1)
        if ntile is not None or pct:
            # run length via the NEXT run's first index (sentinel n)
            nxt = np.append(first[run_starts(g[key_col].to_numpy())], n) \
                if n else np.array([0], np.int64)
            run_len = (nxt[1:] - nxt[:-1])[run_id] if n else np.zeros(0, np.int64)
        if ntile is not None:
            i = idx - first
            q, r = run_len // ntile, run_len % ntile
            big = r * (q + 1)  # rows covered by the (q+1)-sized tiles
            with np.errstate(divide="ignore", invalid="ignore"):
                tile = np.where(
                    i < big,
                    i // np.maximum(q + 1, 1),
                    r + (i - big) // np.maximum(q, 1),
                )
            g["tile"] = tile + 1
        if pct:
            rnk = g["rnk"].to_numpy()
            with np.errstate(divide="ignore", invalid="ignore"):
                g["pct_rank"] = np.where(
                    run_len > 1,
                    (rnk - 1).astype(np.float64) / np.maximum(run_len - 1, 1),
                    0.0,
                )
            # last index of the row's peer group: csteps is nondecreasing,
            # so a right-bisect of each row's own step id lands just past
            # its final peer
            last_peer = np.searchsorted(csteps, csteps, side="right") - 1
            g["cume_dist"] = (last_peer - first + 1).astype(np.float64) / run_len
        return g

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def global_rank(ds, col: str, id_col: str, pct: bool = True,
                num_partitions: int | None = None,
                rows_per_partition: int = 1_000_000):
    """UNPARTITIONED ranking window: per row ``row_num`` (ROW_NUMBER over
    ORDER BY (col, id)), ``rnk`` (RANK over col alone, ties share) and
    ``pct_rank`` (= (rnk-1)/(N-1), 0.0 when N==1) over the WHOLE dataset —
    the global percentile-normalization pass (e.g. quality-score ranks
    before a top-p% cut).

    Scale shape: the one sorted-block scan
    (:func:`~logray.stages.bucketing.sorted_scan`, shared with
    ``pack_documents`` and the skew-safe ``transition_counts``) over the
    NARROW projection — only the two-column ``(col, id_col)`` projection
    goes through the global sort and is pinned; ranks are computed per
    sorted block (vectorized, fixed up with tiny per-block (first, last,
    nrows, tail_run) summaries scanned once on the driver: a block's head
    rows may continue the previous block's tie run, so their shared rank
    starts ``head_offset`` rows back) into a narrow ``(id, row_num,
    rnk[, pct_rank])`` table, which is hash-joined back onto the
    full-width input.  The full-width corpus therefore streams through
    one partitioned join instead of being sort-materialized in the
    object store (the round-3 design pinned every column of the corpus —
    the 100-TB killer).  Requires a
    non-null ``col`` (SQL null-ordering is not replicated) and unique
    ``id_col`` — a duplicated id raises inside the join-back (the
    1:1 guard) instead of silently multiplying rows.

    ``num_partitions=None`` sizes the join-back's bucket count from the
    corpus: ``max(32, ceil(total_rows / rows_per_partition))``, so one
    bucket's full-width rows stay a bounded per-task working set as the
    corpus grows.  Lower ``rows_per_partition`` (or pass
    ``num_partitions`` explicitly) for very fat rows — the rule assumes
    ~1 KB-scale rows; 1 M document-sized rows may still be several GB."""
    # the task-based bucketed join, NOT Ray's builtin JoinOperator: the
    # builtin's aggregator-actor pool requires num_partitions/8 CPUs up
    # front and deadlocks under small budgets (join.py:hash_join notes);
    # its per-bucket Arrow merge also keeps null-padded int64 columns
    # exact (a pandas merge would round values past 2^53 via float64)
    import math

    from logray.stages.join import _bucketed_join

    narrow = ds.select_columns([col, id_col])
    rank_ds, total = _rank_table(narrow, col, id_col, pct)
    if num_partitions is None:
        num_partitions = max(32, math.ceil(total / rows_per_partition))
    return _bucketed_join(ds, rank_ds, (id_col,), (id_col,), "inner",
                          num_partitions, expect_left_one_to_one=True)


def _rank_table(narrow, col: str, id_col: str, pct: bool = True):
    """Sort the two-column ``(col, id_col)`` projection and emit the
    narrow ``(id_col, row_num, rnk[, pct_rank])`` rank table plus the
    total row count as ``(Dataset, total)``, on the one sorted-block
    scan (:func:`~logray.stages.bucketing.sorted_scan`).  Refuses a wider
    input — the materialized sort output is exactly the working set this
    op is allowed to pin."""
    names = narrow.schema().names
    if set(names) != {col, id_col}:
        raise ValueError(
            f"_rank_table input must be exactly the ({col}, {id_col}) "
            f"projection, got columns {names}")

    def summary(t: pa.Table):
        # (first, last, nrows, rows of the trailing tie run)
        n = t.num_rows
        last = t[col][n - 1].as_py()
        eq_rev = np.asarray(pc.equal(t[col], last))[::-1]
        tail = n if eq_rev.all() else int(np.argmin(eq_rev))
        return t[col][0].as_py(), last, n, tail

    total = 0

    def scan(summaries):
        # carry per block: its first global row, and how many rows before
        # it the tie run holding its first row began
        nonlocal total
        total = sum(s[2] for s in summaries)
        carries = []
        run_val, run_len, row_off = None, 0, 0
        for first, last, nrows, tail in summaries:
            head = run_len if first == run_val else 0
            carries.append((row_off, head, total))
            run_len = head + nrows if last == first else tail
            run_val = last
            row_off += nrows
        return carries

    def apply(t: pa.Table, carry) -> pa.Table:
        row_off, head_off, total = carry
        n = t.num_rows
        starts = run_starts(t[col].to_numpy(zero_copy_only=False))
        idx = np.arange(n, dtype=np.int64)
        first_peer = np.maximum.accumulate(np.where(starts, idx, 0))
        # rows whose first peer is local row 0 continue the tie run that
        # began head_off rows before this block
        rnk = np.where(first_peer == 0, row_off - head_off + 1,
                       row_off + first_peer + 1)
        out = {id_col: t[id_col]}
        out["row_num"] = pa.array(row_off + idx + 1)
        out["rnk"] = pa.array(rnk.astype(np.int64))
        if pct:
            out["pct_rank"] = pa.array(
                (rnk - 1).astype(np.float64) / (total - 1) if total > 1
                else np.zeros(n, np.float64))
        return pa.table(out)

    ranked = sorted_scan(narrow, [col, id_col], summary, scan, apply)
    return ranked, total


def global_rank_sql(table: str, col: str, id_col: str,
                    cols: str | None = None, pct: bool = True) -> str:
    """DuckDB twin of :func:`global_rank`."""
    cols = cols or "*"
    p = (f", PERCENT_RANK() OVER (ORDER BY {col}) AS pct_rank"
         if pct else "")
    return (
        f"SELECT {cols}, "
        f"ROW_NUMBER() OVER (ORDER BY {col}, {id_col}) AS row_num, "
        f"RANK() OVER (ORDER BY {col}) AS rnk{p} FROM {table}"
    )


def value_window(ds, key_col: str, order_col: str, value_col: str,
                 nth: int | None = None, tiebreak_col: str | None = None,
                 num_buckets: int = 32):
    """Append SQL ``first_<v>`` / ``last_<v>`` (and ``nth_<v>`` when
    ``nth`` is given) per key partition ordered by (order, tiebreak),
    over the FULL-partition frame (``ROWS BETWEEN UNBOUNDED PRECEDING
    AND UNBOUNDED FOLLOWING``) — the deterministic frame; SQL's default
    running frame makes LAST_VALUE famously useless.

    first/last keep the value's dtype (a partition is never empty);
    ``nth_<v>`` is nullable (float64 for numerics) since partitions
    shorter than ``nth`` yield null, matching SQL NTH_VALUE.  Scale
    shape: one bucket shuffle + one segmented gather per bucket."""
    order_cols = [order_col] + ([tiebreak_col] if tiebreak_col else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, run_id, first = _sorted_runs(g, key_col, order_cols)
        n = len(g)
        if not n:
            g[f"first_{value_col}"] = g[value_col]
            g[f"last_{value_col}"] = g[value_col]
            if nth is not None:
                g[f"nth_{value_col}"] = pd.array([], dtype="float64")
            return g
        starts = run_starts(g[key_col].to_numpy())
        f_idx = np.flatnonzero(starts)
        nxt = np.append(f_idx[1:], n)
        last = (nxt - 1)[run_id]
        v = g[value_col]
        g[f"first_{value_col}"] = v.iloc[first].reset_index(drop=True)
        g[f"last_{value_col}"] = v.iloc[last].reset_index(drop=True)
        if nth is not None:
            pos = first + (nth - 1)
            ok = pos <= last
            taken = v.iloc[np.clip(pos, 0, n - 1)].reset_index(drop=True)
            if pd.api.types.is_integer_dtype(taken) or pd.api.types.is_float_dtype(taken):
                g[f"nth_{value_col}"] = taken.astype("float64").where(
                    pd.Series(ok), np.nan)
            else:
                g[f"nth_{value_col}"] = taken.where(pd.Series(ok), None)
        return g

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def value_window_sql(table: str, key_col: str, order_col: str,
                     value_col: str, nth: int | None = None,
                     tiebreak_col: str | None = None,
                     cols: str | None = None) -> str:
    """DuckDB twin of :func:`value_window` (full-partition frame; NTH
    cast to DOUBLE to mirror the engine's nullable-float64 output)."""
    order = order_col + (f", {tiebreak_col}" if tiebreak_col else "")
    cols = cols or "*"
    frame = "ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED FOLLOWING"
    nth_sql = (
        f", CAST(NTH_VALUE({value_col}, {nth}) OVER w AS DOUBLE) AS nth_{value_col}"
        if nth is not None else ""
    )
    return (
        f"SELECT {cols}, "
        f"FIRST_VALUE({value_col}) OVER w AS first_{value_col}, "
        f"LAST_VALUE({value_col}) OVER w AS last_{value_col}"
        f"{nth_sql} FROM {table} WINDOW w AS "
        f"(PARTITION BY {key_col} ORDER BY {order} {frame})"
    )


def rank_window_sql(table: str, key_col: str, order_col: str,
                    tiebreak_col: str | None = None,
                    cols: str | None = None,
                    ntile: int | None = None, pct: bool = False) -> str:
    """DuckDB twin of :func:`rank_window`."""
    rn_order = order_col + (f", {tiebreak_col}" if tiebreak_col else "")
    cols = cols or "*"
    tile = (
        f", NTILE({ntile}) OVER (PARTITION BY {key_col} ORDER BY {rn_order}) AS tile"
        if ntile is not None else ""
    )
    pct_sql = (
        f", PERCENT_RANK() OVER (PARTITION BY {key_col} ORDER BY {order_col}) AS pct_rank"
        f", CUME_DIST() OVER (PARTITION BY {key_col} ORDER BY {order_col}) AS cume_dist"
        if pct else ""
    )
    return (
        f"SELECT {cols}, "
        f"ROW_NUMBER() OVER (PARTITION BY {key_col} ORDER BY {rn_order}) AS row_num, "
        f"RANK() OVER (PARTITION BY {key_col} ORDER BY {order_col}) AS rnk, "
        f"DENSE_RANK() OVER (PARTITION BY {key_col} ORDER BY {order_col}) AS dense_rnk"
        f"{tile}{pct_sql} FROM {table}"
    )


def fill_forward(ds, key_col: str, order_col: str, value_col: str,
                 tiebreak_col: str | None = None, num_buckets: int = 32):
    """Gap-fill: append ``ff_<value>`` = the last NON-NULL value at or
    before each row within the key partition ordered by
    (order, tiebreak) — SQL ``LAST_VALUE(x IGNORE NULLS) OVER (...ROWS
    UNBOUNDED PRECEDING)``.  Rows before the partition's first non-null
    value stay null.  Numeric values come back float64 (null -> NaN).

    Scale shape: ONE ``hash(key) % num_buckets`` shuffle, then a fully
    vectorized segmented scan per bucket (``np.maximum.accumulate`` of
    valid indices, clamped to each run's first row)."""
    order_cols = [order_col] + ([tiebreak_col] if tiebreak_col else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, _run_id, first = _sorted_runs(g, key_col, order_cols)
        v = g[value_col]
        n = len(g)
        idx = np.arange(n, dtype=np.int64)
        src = np.where(v.notna().to_numpy(), idx, -1)
        last_valid = np.maximum.accumulate(src) if n else src
        ok = last_valid >= first  # a valid index behind us, in OUR run
        taken = v.iloc[np.clip(last_valid, 0, max(n - 1, 0))].reset_index(drop=True)
        if pd.api.types.is_integer_dtype(taken) or pd.api.types.is_float_dtype(taken):
            out = taken.astype("float64").where(pd.Series(ok), np.nan)
        else:
            out = taken.where(pd.Series(ok), None)
        g[f"ff_{value_col}"] = out
        return g

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def fill_forward_sql(table: str, key_col: str, order_col: str,
                     value_col: str, tiebreak_col: str | None = None,
                     cols: str | None = None) -> str:
    """DuckDB twin of :func:`fill_forward` (CAST to DOUBLE mirrors the
    engine's nullable-float64 output for numeric inputs)."""
    order = order_col + (f", {tiebreak_col}" if tiebreak_col else "")
    cols = cols or "*"
    return (
        f"SELECT {cols}, "
        f"CAST(LAST_VALUE({value_col} IGNORE NULLS) OVER ("
        f"PARTITION BY {key_col} ORDER BY {order} "
        f"ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS DOUBLE) "
        f"AS ff_{value_col} FROM {table}"
    )


def ewma(ds, key_col: str, order_col: str, value_col: str, alpha: float,
         tiebreak_col: str | None = None, num_buckets: int = 32):
    """Per-key exponentially-weighted moving average (the smoothed-rate /
    anomaly-baseline transform): ``y_i = (1-alpha)*y_{i-1} + alpha*x_i``
    with ``y_0 = x_0`` (pandas ``ewm(adjust=False)`` semantics, null
    values propagate the previous smoothed value).  Appends
    ``ewma_<value>``.

    No SQL twin — DuckDB has no EWMA aggregate and a recursive-CTE
    replica is float-order-sensitive — so exactness is pinned by the unit
    test against the explicit recurrence.  The kernel is pandas'
    Cython ``group_ewm`` (one call per bucket, ~1 s per million rows),
    after the usual single bucket shuffle."""
    if not 0 < alpha <= 1:
        raise ValueError("alpha must be in (0, 1]")
    order_cols = [order_col] + ([tiebreak_col] if tiebreak_col else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, run_id, _first = _sorted_runs(g, key_col, order_cols)
        em = (g.groupby(run_id, sort=False)[value_col]
              .ewm(alpha=alpha, adjust=False, ignore_na=True).mean())
        g[f"ewma_{value_col}"] = em.to_numpy()
        return g

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def ewma_fixedpoint(ds, key_col: str, order_col: str, value_col: str,
                    alpha_num: int, alpha_den: int, scale: int = 10**6,
                    tiebreak_col: str | None = None,
                    num_buckets: int = 32):
    """Per-key EWMA in fixed-point int64 — the gate-exact sibling of
    :func:`ewma`.  Values quantize once (``x = floor(v*scale + 0.5)``,
    the identical IEEE-754 op sequence DuckDB's twin runs) and the
    recurrence is pure integer algebra::

        y_0 = x_0;  y_i = (num*x_i + (den-num)*y_{i-1}) // den

    so the result is a pure function of the rows — bit-identical across
    partitioning AND engines (:func:`ewma_fixedpoint_sql` replays it as
    a recursive CTE and matches hash-for-hash).  Appends
    ``ewma_fp_<value>`` = ``y / scale`` (both < 2^53: one correctly-
    rounded division, identical bits on any IEEE engine).  The float
    :func:`ewma` (pandas Cython kernel) remains the throughput entry.

    Constraints, enforced loudly: values must be NON-NULL and
    NON-NEGATIVE (DuckDB's ``//`` truncates toward zero while numpy
    floors — the recursions only agree on non-negative operands), and
    ``x*den < 2^62`` so the update never overflows.

    Shape: one bucket shuffle, then a per-bucket kernel vectorized
    ACROSS runs level-by-level (rows at within-run position p update
    together; iterations per bucket = the longest run, each a vector
    op).  A single pathologically long key degrades toward a scalar
    loop — same documented skew caveat as lexical_diversity."""
    if not (0 < alpha_num < alpha_den):
        raise ValueError("ewma_fixedpoint: need 0 < alpha_num < alpha_den")
    if scale <= 0:
        raise ValueError("ewma_fixedpoint: scale must be positive")
    order_cols = [order_col] + ([tiebreak_col] if tiebreak_col else [])
    num, den = int(alpha_num), int(alpha_den)
    out_col = f"ewma_fp_{value_col}"
    limit = (1 << 62) // den

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, run_id, first_of_run = _sorted_runs(g, key_col, order_cols)
        v = g[value_col].to_numpy()
        if pd.isna(v).any():
            raise ValueError("ewma_fixedpoint: null values — filter or "
                             "impute first (the twin recursion has no "
                             "null-propagation rule)")
        x = np.floor(v * float(scale) + 0.5).astype(np.int64)
        if (x < 0).any():
            raise ValueError("ewma_fixedpoint: negative values — "
                             "DuckDB // truncates while numpy floors, "
                             "so the engines only agree on x >= 0")
        if (x >= limit).any():
            raise ValueError("ewma_fixedpoint: |value*scale| too large "
                             "for the int64 update — lower scale")
        n = len(g)
        pos = np.arange(n, dtype=np.int64) - first_of_run
        y = np.zeros(n, np.int64)
        lead = pos == 0
        y[lead] = x[lead]
        for level in range(1, int(pos.max()) + 1 if n else 0):
            m = np.flatnonzero(pos == level)
            if not len(m):
                break
            y[m] = (num * x[m] + (den - num) * y[m - 1]) // den
        g[out_col] = y / float(scale)
        return g

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def ewma_fixedpoint_sql(table: str, key_col: str, order_col: str,
                        value_col: str, alpha_num: int, alpha_den: int,
                        scale: int = 10**6,
                        tiebreak_col: str | None = None,
                        cols: str | None = None) -> str:
    """DuckDB twin of :func:`ewma_fixedpoint`: the same int64 recursion
    as a recursive CTE stepping one within-key position per iteration
    (iteration count = the longest key run — bounded and cheap at gate
    scale), joined back to the base rows."""
    order = order_col + (f", {tiebreak_col}" if tiebreak_col else "")
    num, den = int(alpha_num), int(alpha_den)
    cols = cols or "b.* EXCLUDE (__rn, __x)"
    return f"""
        WITH RECURSIVE
        b0 AS (
            SELECT *,
                   ROW_NUMBER() OVER (PARTITION BY {key_col}
                                      ORDER BY {order}) AS __rn,
                   CAST(floor({value_col} * {scale} + 0.5) AS BIGINT)
                       AS __x
            FROM {table}
        ),
        r AS (
            SELECT {key_col} AS __k, __rn, __x AS __y
            FROM b0 WHERE __rn = 1
            UNION ALL
            SELECT t.{key_col}, t.__rn,
                   ({num} * t.__x + {den - num} * r.__y) // {den}
            FROM b0 t JOIN r ON t.{key_col} = r.__k
                      AND t.__rn = r.__rn + 1
        )
        SELECT {cols}, r.__y / {float(scale)!r} AS ewma_fp_{value_col}
        FROM b0 b JOIN r ON r.__k = b.{key_col} AND r.__rn = b.__rn
    """


def rolling_median(ds, key_col: str, order_col: str, value_col: str,
                   window: int, tiebreak_col: str | None = None,
                   num_buckets: int = 32):
    """Trailing-frame MEDIAN per row (robust smoothing — the outlier-
    resistant sibling of ``rolling_agg``): SQL ``median(x) OVER (ROWS
    window-1 PRECEDING)``.  Appends ``rmed_<value>`` (float64; an even
    frame averages the two middle values, exact for integer units).
    Null values are skipped within the frame on both sides.

    Kernel is pandas' Cython grouped ``rolling(...).median()`` per
    bucket — C-speed, no per-key Python — after the one bucket shuffle."""
    if window < 1:
        raise ValueError("window must be >= 1")
    order_cols = [order_col] + ([tiebreak_col] if tiebreak_col else [])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, run_id, _first = _sorted_runs(g, key_col, order_cols)
        med = (g.groupby(run_id, sort=False)[value_col]
               .rolling(window, min_periods=1).median())
        g[f"rmed_{value_col}"] = med.to_numpy()
        return g

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def rolling_median_sql(table: str, key_col: str, order_col: str,
                       value_col: str, window: int,
                       tiebreak_col: str | None = None,
                       cols: str | None = None) -> str:
    """DuckDB twin of :func:`rolling_median`."""
    order = order_col + (f", {tiebreak_col}" if tiebreak_col else "")
    cols = cols or "*"
    return (
        f"SELECT {cols}, "
        f"CAST(median({value_col}) OVER ("
        f"PARTITION BY {key_col} ORDER BY {order} "
        f"ROWS BETWEEN {window - 1} PRECEDING AND CURRENT ROW) AS DOUBLE) "
        f"AS rmed_{value_col} FROM {table}"
    )
