"""Aggregation stage: exact counts/histograms with partial pre-aggregation.

The reference's observable aggregates are exact per-view counts
(filtered_file_reader.cpp:263-264) and first/last line bookkeeping; the
north rule adds rows-per-route, per-role/per-tool histograms and
turns-per-conversation — all exact, no sketches.

Scale pattern: a bare ``groupby(key).count()`` shuffles every row.  Every
aggregate here **pre-aggregates inside map_batches** (one partial row per
distinct key per batch) and then runs the wide ``groupby`` over the tiny
partials — this is also the skew ("hot conversation") mitigation: a conv
with 30% of all rows still contributes only one partial row per batch, so no
single reducer receives the raw hot-key rows.

A pandas result folds those partials on the driver
(:func:`bucketing.stream_fold`, :func:`fold_partials_stream`): the
partial batches stream in and a local Arrow group_by re-combines them
after each chunk — memory bounded at O(distinct keys), no distributed
shuffle.  There is no second fold: a Ray ``groupby`` over the partials
was measured ~7 s slower per run than the driver fold at metric-sized
cardinalities (hundreds of thousands of keys).  A Dataset result
(``as_pandas=False``) stays a Ray ``groupby``, because its consumer is
distributed.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc


def _partial_counts(cols: list[str]):
    def fn(t: pa.Table) -> pa.Table:
        g = t.group_by(cols).aggregate([([], "count_all")])
        g = g.rename_columns(cols + ["partial_count"])
        if t.num_rows == 0:
            # keep a typed (empty) schema so Ray's schema unification
            # doesn't warn on empty batches
            g = g.cast(pa.schema([t.schema.field(c) for c in cols] + [pa.field("partial_count", pa.int64())]))
        return g

    return fn


def histogram(ds, cols, as_pandas: bool = True):
    """Exact row counts per distinct value combination of ``cols``.
    Two-phase: per-batch Arrow group_by partials -> fold of the (tiny)
    partials.  Output columns: cols + ['n'] (sorted by cols).

    The pandas result folds on the driver (see the module docstring); a
    Dataset result (``as_pandas=False``) is a Ray ``groupby`` over the
    partials, since its consumer stays distributed."""
    if isinstance(cols, str):
        cols = [cols]
    from ray.data.aggregate import Sum

    partial = ds.map_batches(
        # batch_size=None: whole-block batches fuse into the upstream read
        _partial_counts(cols), batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )
    if not as_pandas:
        return partial.groupby(cols).aggregate(Sum("partial_count", alias_name="n"))

    from logray.stages.bucketing import stream_fold

    def fold_local(tables: list[pa.Table]) -> pa.Table:
        g = pa.concat_tables(tables).group_by(cols).aggregate([("partial_count", "sum")])
        return g.rename_columns(cols + ["partial_count"])

    folded = stream_fold(partial, fold_local)
    if folded is None:
        return pd.DataFrame(columns=cols + ["n"])
    folded = folded.rename_columns(cols + ["n"])
    return folded.to_pandas().sort_values(cols).reset_index(drop=True)


def route_counts(ds_tagged, as_pandas: bool = True):
    """Rows per route for a route-tagged Dataset (see route_exclusive)."""
    return histogram(ds_tagged, "route", as_pandas=as_pandas)


def turns_per_conversation(ds, conv_col: str = "conv_id", as_pandas: bool = True):
    """Exact turns per conversation.  The partial pre-aggregation IS the
    hot-conversation skew mitigation (see module docstring)."""
    return histogram(ds, conv_col, as_pandas=as_pandas)


NULL_KEY = "\0null"
PARTIAL_SCHEMA = pa.schema(
    [
        pa.field("metric", pa.string()),
        pa.field("key", pa.string()),
        pa.field("n", pa.int64()),
        pa.field("v_min", pa.int64()),
        pa.field("v_max", pa.int64()),
    ]
)


def histogram_partials(t: pa.Table, hist_cols: list[str], ts_col: str | None = None) -> pa.Table:
    """Long-format partial rows (metric, key, n, v_min, v_max) for one
    batch: one row per distinct value per histogram column, plus one row
    for the ts range.  The building block of every exact aggregate here."""
    parts = []
    for col in hist_cols:
        # one hash kernel per column, no Acero plan; a null counts as one
        # value and becomes NULL_KEY
        vc = pc.value_counts(t[col])
        m = len(vc)
        zeros = pa.array(np.zeros(m, np.int64))
        parts.append(
            pa.table(
                {
                    "metric": pa.repeat(pa.scalar(col, pa.string()), m),
                    "key": pc.fill_null(pc.cast(vc.field("values"), pa.string()), NULL_KEY),
                    "n": vc.field("counts"),
                    "v_min": zeros,
                    "v_max": zeros,
                }
            )
        )
    if ts_col is not None and t.num_rows:
        lo, hi = pc.min_max(pc.cast(t[ts_col], pa.int64())).values()
        if lo.is_valid:  # all-null ts (e.g. raw-log sources): no range row
            parts.append(
                pa.table(
                    {
                        "metric": pa.array(["__ts"], pa.string()),
                        "key": pa.array([""], pa.string()),
                        "n": pa.array([0], pa.int64()),
                        "v_min": pa.array([lo.as_py()], pa.int64()),
                        "v_max": pa.array([hi.as_py()], pa.int64()),
                    }
                )
            )
    if not parts:
        return PARTIAL_SCHEMA.empty_table()
    return pa.concat_tables(parts)


def fold_partials_local(tables: list[pa.Table]) -> pa.Table:
    if not tables:
        return PARTIAL_SCHEMA.empty_table()
    return (
        pa.concat_tables(tables)
        .group_by(["metric", "key"])
        .aggregate([("n", "sum"), ("v_min", "min"), ("v_max", "max")])
        .rename_columns(["metric", "key", "n", "v_min", "v_max"])
    )


def fold_partials_stream(partial_ds) -> pa.Table:
    """Streaming driver-side fold of a partials Dataset: buffer chunks,
    re-combine when the buffer passes ~4M rows — bounded at O(distinct
    keys), and the pull overlaps the distributed execution."""
    from logray.stages.bucketing import stream_fold

    folded = stream_fold(partial_ds, fold_partials_local)
    return folded if folded is not None else fold_partials_local([])


def split_folded(folded, hist_cols: list[str], ts_col: str | None = None,
                 sort: bool = True) -> dict:
    """{col: DataFrame(col, n)} (+ '__ts' -> (min, max)) from a folded
    partials table (Arrow table or DataFrame).  Vectorized column reuse —
    no Python-list round trips (a tolist() here cost 2.5s of
    single-threaded driver time at ~1M distinct conversations).  Pass
    ``sort=False`` when the consumer only folds the histograms into
    scalars (len/sum/max), as the flagship metrics do."""
    df = folded if hasattr(folded, "iloc") else folded.to_pandas()
    out: dict = {}
    for col in hist_cols:
        part = df[df["metric"] == col]
        keys = part["key"].where(part["key"] != NULL_KEY, None)
        h = pd.DataFrame(
            {col: keys.reset_index(drop=True), "n": part["n"].reset_index(drop=True)}
        )
        if sort:
            h = h.sort_values(col, kind="mergesort").reset_index(drop=True)
        out[col] = h
    if ts_col is not None:
        part = df[df["metric"] == "__ts"]
        part = part[part["v_min"].notna()] if len(part) else part
        if len(part):
            out["__ts"] = (
                pa.array([int(part["v_min"].iloc[0])], pa.int64()).cast(pa.timestamp("us"))[0],
                pa.array([int(part["v_max"].iloc[0])], pa.int64()).cast(pa.timestamp("us"))[0],
            )
        else:
            out["__ts"] = (None, None)
    return out


def multi_histogram(ds, hist_cols: list[str], ts_col: str | None = None):
    """ALL the pipeline's exact aggregates in ONE streaming pass.

    Per batch we emit long-format partial rows ``(metric, key, n, v_min,
    v_max)`` — one row per distinct value of each histogram column plus one
    row for the ts range — then fold the partials by ``(metric, key)``
    (Sum for counts, Min/Max for the range) on the driver with
    :func:`fold_partials_stream`.

    Returns {col: DataFrame(key, n)} plus '__ts' -> (min, max) when ts_col
    is given.  Keys are stringified (null -> "\\0null" sentinel) so one
    long table can carry every histogram; callers de-stringify if needed.
    """
    partial_ds = ds.map_batches(
        lambda t: histogram_partials(t, hist_cols, ts_col),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=None,  # whole-block batches: fuses into the upstream read
    )
    return split_folded(fold_partials_stream(partial_ds), hist_cols, ts_col)


def min_max(ds, col: str):
    """(min, max) of a column — the reference's known_first/last analog
    (log_parser_interface.cpp:37-44)."""
    from ray.data.aggregate import Max, Min

    row = ds.aggregate(Min(col, alias_name="min"), Max(col, alias_name="max"))
    return row["min"], row["max"]


def kth_smallest(ds, col: str, k: int):
    """Exact k-th smallest value (0-based) of a column, for any type numpy
    can order (numbers, strings, timestamps, dates, decimals, booleans):
    one order statistic from :func:`_select` — no sort, no shuffle, only
    streaming passes.  Nulls are ignored and NaN sorts last (SQL
    ``ORDER BY col LIMIT 1 OFFSET k`` under NULLS LAST, numpy's NaN
    order): a k inside the NaN tail returns NaN, and a k outside the
    non-null range returns None.  The value comes back as the column's
    Python scalar (``int``, ``float``, ``str``, ``datetime``, ...)."""
    (v,) = _select(ds, col, lambda _n: [k])
    return v.item() if isinstance(v, np.generic) else v


# pivots counted per rank and pass: a counting pass splits a bracket up
# to this many ways, so resampling is rarely needed twice
_MAX_PIVOTS = 256


def _values(t: pa.Table, col: str):
    """A block's non-null values of ``col`` as numpy, NaN split off:
    (values without NaN, NaN count)."""
    c = t[col]
    v = (c.drop_null() if c.null_count else c).to_numpy(zero_copy_only=False)
    if v.dtype.kind == "f":
        nan = np.isnan(v)
        if nan.any():
            return v[~nan], int(nan.sum())
    return v, 0


def _inside(v: np.ndarray, lo, hi) -> np.ndarray:
    """Mask of ``v`` strictly inside the open bracket (lo, hi); a None
    bound is unbounded."""
    m = np.ones(len(v), np.bool_)
    if lo is not None:
        m &= v > lo
    if hi is not None:
        m &= v < hi
    return m


def _select(ds, col: str, ranks, sample_per_batch: int = 64,
            max_bracket_rows: int = 4_000_000, max_passes: int = 48) -> list:
    """Exact order statistics of ``col`` by sample-guided bisection in the
    column's own value space — NO sort, NO shuffle, NO materialization of
    the dataset, only streaming passes.  ``ranks(n)`` maps the non-null
    row count n to the 0-based ranks wanted; returns their values in the
    column's numpy scalar type (None for a rank outside [0, n)).

    Order: nulls are dropped, NaN sorts last.  The first pass counts NaN
    into n, every pass drops it, and a rank in the NaN tail is NaN with
    no collection.  Each finite rank r keeps an open value bracket
    ``(lo, hi)`` with EXACT counts ``c_lo = #{v <= lo} <= r < c_hi =
    #{v < hi}``.  A round is at most two passes shared by every rank:

    1. collect — a bracket holding <= ``max_bracket_rows`` rows is
       gathered and the rank picked directly; a bracket whose sample went
       blind (fewer than 4 values inside) is resampled: an even grid of
       ``sample_per_batch`` values per block, each standing for
       ``rows/grid`` rows.  The first pass samples the whole column.
    2. count — up to ``_MAX_PIVOTS`` sampled values per bracket, spread
       by estimated rank, are counted as ``#{v <= p}`` and ``#{v < p}``
       in one sort+searchsorted per block.  A pivot with
       ``#{v < p} <= r < #{v <= p}`` IS the answer (its duplicate run
       holds the rank: a hot key resolves with no collection); otherwise
       the bracket narrows to the adjacent pivots around r.

    Pivots are sampled values, never arithmetic on them, so int64 above
    2**53, strings and timestamps select exactly.  ``max_passes`` bounds
    the rounds."""
    def run(fn):
        out = ds.map_batches(fn, batch_format="pyarrow",
                             zero_copy_batch=True, batch_size=None)
        return out.iter_batches(batch_size=None, batch_format="pyarrow")

    def collect(reqs):
        """One pass over ``reqs`` = [(lo, hi, cap)]: per bracket the exact
        count in (lo, hi) with its values — all of them (cap None), or at
        most ``cap`` per block, sorted, with their weights; plus the NaN
        count."""

        def part(t: pa.Table) -> pa.Table:
            v, nan = _values(t, col)
            vt = t[col].type
            cols = {"nan": pa.array([nan], pa.int64())}
            for j, (lo, hi, cap) in enumerate(reqs):
                x = v[_inside(v, lo, hi)]
                cols[f"n{j}"] = pa.array([len(x)], pa.int64())
                if cap is not None and len(x) > cap:
                    x = np.sort(x)[np.linspace(0, len(x) - 1, cap).astype(np.int64)]
                cols[f"v{j}"] = pa.array([pa.array(x, vt)], pa.list_(vt))
            return pa.table(cols)

        nan, n = 0, [0] * len(reqs)
        vals, wts = [[] for _ in reqs], [[] for _ in reqs]
        for b in run(part):
            nan += int(pc.sum(b["nan"]).as_py())
            for j in range(len(reqs)):
                cnt = b[f"n{j}"].to_numpy()
                lists = b[f"v{j}"].combine_chunks()
                lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
                flat = lists.flatten().to_numpy(zero_copy_only=False)
                n[j] += int(cnt.sum())
                if len(flat):  # an all-null block's values are untyped
                    vals[j].append(flat)
                    wts[j].append(np.repeat(cnt / np.maximum(lens, 1), lens))
        got = []
        for j, (_lo, _hi, cap) in enumerate(reqs):
            if not vals[j]:
                got.append((n[j], np.zeros(0), np.zeros(0)))
                continue
            v = np.concatenate(vals[j])
            if cap is None:
                got.append((n[j], v, None))
                continue
            order = np.argsort(v, kind="mergesort")
            got.append((n[j], v[order], np.concatenate(wts[j])[order]))
        return nan, got

    def count(pivots):
        """(#{v <= p}, #{v < p}) per pivot — one pass."""

        def part(t: pa.Table) -> pa.Table:
            v = np.sort(_values(t, col)[0])
            return pa.table({
                side: pa.array([np.searchsorted(v, pivots, side).astype(np.int64)],
                               pa.list_(pa.int64()))
                for side in ("right", "left")})

        le = np.zeros(len(pivots), np.int64)
        lt = np.zeros(len(pivots), np.int64)
        for b in run(part):
            for side, tot in (("right", le), ("left", lt)):
                lists = b[side].combine_chunks()
                tot += lists.flatten().to_numpy(zero_copy_only=False).reshape(
                    len(lists), len(pivots)).sum(axis=0, dtype=np.int64)
        return le, lt

    def pivots_of(st):
        lo, _c_lo, hi, _c_hi, sv, sw, _fresh = st
        m = _inside(sv, lo, hi)
        v, w = sv[m], sw[m]
        if len(v) > _MAX_PIVOTS:  # an estimated-rank grid across the bracket
            cw = np.cumsum(w)
            v = v[np.searchsorted(cw, np.linspace(0, cw[-1], _MAX_PIVOTS + 2)[1:-1])]
        return np.unique(v)

    nan, ((n_fin, sv, sw),) = collect([(None, None, sample_per_batch)])
    n = n_fin + nan
    want = [int(r) for r in ranks(n)]
    res: dict = {}
    # per finite rank: [lo, c_lo, hi, c_hi, sample values, weights, fresh]
    state = {r: [None, 0, None, n_fin, sv, sw, True]
             for r in set(want) if 0 <= r < n_fin}
    for r in want:
        if n_fin <= r < n:
            res[r] = float("nan")

    for _round in range(max_passes):
        if not state:
            break
        reqs: dict = {}
        for st in state.values():
            lo, c_lo, hi, c_hi, _sv, _sw, fresh = st
            if c_hi - c_lo <= max_bracket_rows:
                reqs[lo, hi, None] = None
            elif not fresh and len(pivots_of(st)) < 4:
                reqs[lo, hi, sample_per_batch] = None
        if reqs:
            _nan, got = collect(list(reqs))
            got = dict(zip(reqs, got))
            for r, st in list(state.items()):
                lo, c_lo, hi = st[:3]
                if (lo, hi, None) in got:
                    inb = got[lo, hi, None][1]  # the counts are exact
                    res[r] = np.partition(inb, r - c_lo)[r - c_lo]
                    del state[r]
                elif (lo, hi, sample_per_batch) in got:
                    _n, st[4], st[5] = got[lo, hi, sample_per_batch]
                    st[6] = True
            if not state:
                break
        pivots = np.unique(np.concatenate([pivots_of(st) for st in state.values()]))
        le, lt = count(pivots)
        for r, st in list(state.items()):
            m = _inside(pivots, st[0], st[2])
            p, p_le, p_lt = pivots[m], le[m], lt[m]
            hit = np.flatnonzero((p_lt <= r) & (r < p_le))
            if len(hit):  # r falls in p's duplicate run
                res[r] = p[hit[0]]
                del state[r]
                continue
            j = int(np.searchsorted(p_le, r, side="right"))
            if j:
                st[0], st[1] = p[j - 1], int(p_le[j - 1])
            if j < len(p):
                st[2], st[3] = p[j], int(p_lt[j])
            st[6] = False

    if state:
        raise RuntimeError(
            f"exact selection of ranks {sorted(state)} did not converge after "
            f"{max_passes} rounds (raise max_bracket_rows or max_passes)")
    return [res.get(r) for r in want]


def exact_quantiles(ds, col: str, qs, sample_per_batch: int = 64,
                    max_bracket_rows: int = 4_000_000,
                    max_passes: int = 48, rank_of=None) -> dict:
    """Distributed EXACT discrete quantiles: each q maps to one rank and
    :func:`_select` finds all of them in shared streaming passes — NO
    sort, NO shuffle, NO materialization of the dataset (an earlier
    implementation sort-materialized the full corpus, which pins 100 TB
    in the object store to read back a handful of rows).

    Semantics match DuckDB ``quantile_disc``: the element at 0-based index
    ``max(ceil(q*n) - 1, 0)`` of the sorted multiset, nulls ignored
    (pinned by test).  ``rank_of(q, n)`` replaces that rank for other
    order statistics (see :func:`quantile_cont`); a rank it puts outside
    the data gives None.  Values are ``int`` for integer columns and
    ``float`` otherwise; None for every q of an empty dataset.

    Documented difference: NaN is a value that sorts LAST and counts
    toward n (numpy order), so a q whose rank falls in a NaN tail returns
    NaN.  DuckDB orders NaN differently and gives other values on
    NaN-bearing columns."""
    import math

    qs = list(qs)

    def ranks(n):
        if rank_of is not None:
            return [int(rank_of(q, n)) if n else -1 for q in qs]
        return [min(max(math.ceil(q * n) - 1, 0), n - 1) for q in qs]

    vals = _select(ds, col, ranks, sample_per_batch=sample_per_batch,
                   max_bracket_rows=max_bracket_rows, max_passes=max_passes)
    return {q: None if v is None else int(v) if isinstance(v, np.integer)
            else float(v) for q, v in zip(qs, vals)}


def grouped_quantiles(ds, key: str, col: str, qs, num_buckets: int = 32):
    """EXACT discrete quantiles of ``col`` PER ``key`` group (DuckDB
    ``quantile_disc`` semantics: element at 0-based index
    ``max(ceil(q*n)-1, 0)`` of the group's sorted values).

    Shuffle on ``hash(key) % num_buckets``; within each bucket every
    group's quantile rows are selected with one vectorized
    sort + segmented-index pass (cumcount == target), never a Python loop
    per key.  Returns a Dataset (key, q, value)."""
    import math

    from logray.stages.bucketing import grouped_apply

    qs = list(qs)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # quantile_disc ignores nulls: drop before positions are computed
        g = g.dropna(subset=[col])
        g = g.sort_values([key, col], kind="mergesort").reset_index(drop=True)
        n = len(g)
        if n == 0:
            return pd.DataFrame({key: [], "q": [], "value": []})
        keys = g[key].to_numpy()
        # run_starts pools null keys into ONE group (SQL GROUP BY), where
        # a naive != would split every NaN row into its own group
        from logray.stages.bucketing import run_starts

        new_key = run_starts(keys)
        run_id = np.cumsum(new_key) - 1
        run_start = np.flatnonzero(new_key)
        sizes = np.diff(np.append(run_start, n))
        local = np.arange(n) - run_start[run_id]
        outs = []
        for q in qs:
            # per-group target index, clamped like the global operator
            tgt = np.minimum(
                np.maximum(np.ceil(q * sizes).astype(np.int64) - 1, 0), sizes - 1
            )
            hit = local == tgt[run_id]
            sel = g.loc[hit]
            outs.append(pd.DataFrame(
                {key: sel[key].to_numpy(), "q": np.full(len(sel), float(q)),
                 "value": sel[col].to_numpy()}
            ))
        return pd.concat(outs, ignore_index=True)

    return grouped_apply(ds, key, per_bucket, num_buckets=num_buckets)


def topk_per_key(ds, key: str, order_col: str, k: int, descending: bool = True,
                 tiebreak_col: str | None = None, num_buckets: int = 32):
    """The ``k`` best rows per key by ``order_col`` (ties broken by
    ``tiebreak_col`` ascending) — the stratified selection every
    training-data pipeline runs (best-quality documents per source,
    longest conversations per user, ...).

    Scale shape mirrors :func:`~logray.functions.sample.reservoir_per_key`:
    per-batch local top-k prune (so the shuffle moves at most
    ``k * keys_per_batch`` rows), then a ``hash(key) % num_buckets``
    shuffle with one vectorized groupby-head per bucket."""
    order = [order_col] + ([tiebreak_col] if tiebreak_col else [])
    asc = [not descending] + ([True] if tiebreak_col else [])

    def local_topk(df):
        df = df.sort_values(order, ascending=asc, kind="mergesort")
        return df.groupby(key, sort=False).head(k)

    from logray.stages.bucketing import BUCKET_COL, bucket_exchange, bucket_of

    def partial(df):
        df = local_topk(df)
        return df.assign(**{BUCKET_COL: bucket_of(df[key].to_numpy(),
                                                  num_buckets)})

    pre = ds.map_batches(partial, batch_format="pandas", batch_size=None)
    return bucket_exchange(pre, local_topk)


def topk_per_key_sql(table: str, key: str, order_col: str, k: int,
                     descending: bool = True, tiebreak_col: str | None = None,
                     cols: str = "*") -> str:
    """DuckDB oracle for :func:`topk_per_key`."""
    direction = "DESC" if descending else "ASC"
    tb = f", {tiebreak_col} ASC" if tiebreak_col else ""
    return (
        f"SELECT {cols} FROM {table} QUALIFY row_number() OVER "
        f"(PARTITION BY {key} ORDER BY {order_col} {direction}{tb}) <= {k}"
    )


def grouped_quantiles_sql(table: str, key: str, col: str, qs) -> str:
    """DuckDB oracle for :func:`grouped_quantiles`."""
    parts = [
        f"SELECT {key}, {q} AS q, quantile_disc({col}, {q}) AS value "
        f"FROM {table} GROUP BY {key}"
        for q in qs
    ]
    return " UNION ALL ".join(parts)


def top_k_groups(ds, key_cols, k: int, as_pandas: bool = True):
    """Top-k groups by exact count (ties broken by key ascending).

    The pandas result: histogram partials folded on the driver, then a
    local sort + head.  A Dataset result (``as_pandas=False``) is the
    distributed groupby + sort + limit, with identical rows."""
    if isinstance(key_cols, str):
        key_cols = [key_cols]
    if not as_pandas:
        counts = histogram(ds, key_cols, as_pandas=False)
        return counts.sort(["n"] + key_cols, descending=[True] + [False] * len(key_cols)).limit(k)
    counts = histogram(ds, key_cols, as_pandas=True)
    out = counts.sort_values(
        ["n"] + key_cols, ascending=[False] + [True] * len(key_cols), kind="mergesort"
    ).head(k)
    return out.reset_index(drop=True)


def pivot_agg(ds, key_col: str, pivot_col: str, value_col: str | None = None,
              pivot_values=None, prefix: str | None = None):
    """Wide crosstab: one row per key, one column per pivot value, cells
    = exact ``count(*)`` (``value_col=None``) or exact integer
    ``sum(value_col)``; absent (key, pivot) combinations are 0.

    Scale shape: per-batch Arrow ``group_by([key, pivot])`` partials (the
    long form never exceeds keys x pivot-values rows per batch), folded
    like :func:`histogram`; only the folded long table is widened.  Pass
    ``pivot_values`` in production for a fixed output schema independent
    of which values a given input slice happens to contain (and to fail
    fast on unexpected categories downstream); by default the observed
    values define the columns.  Null pivot values are dropped (they have
    no column); null keys pool into one row like GROUP BY.

    Column naming: ``f"{prefix}{value}"`` with prefix defaulting to
    ``n_`` for counts and ``sum_`` for sums — mirror it in the SQL twin
    (``SUM(CASE WHEN pivot = v THEN 1/val ELSE 0 END) AS n_v``).
    """
    if prefix is None:
        prefix = "n_" if value_col is None else "sum_"

    def partial(t: pa.Table) -> pa.Table:
        if value_col is None:
            g = t.group_by([key_col, pivot_col]).aggregate([([], "count_all")])
        else:
            g = t.group_by([key_col, pivot_col]).aggregate([(value_col, "sum")])
        return g.rename_columns([key_col, pivot_col, "pv"])

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None)

    from logray.stages.bucketing import stream_fold

    def fold_local(tables: list[pa.Table]) -> pa.Table:
        g = pa.concat_tables(tables).group_by([key_col, pivot_col]).aggregate(
            [("pv", "sum")]
        )
        return g.rename_columns([key_col, pivot_col, "pv"])

    f = stream_fold(parts, fold_local)
    folded = (f.to_pandas() if f is not None
              else pd.DataFrame({key_col: [], pivot_col: [], "pv": []}))

    folded = folded[folded[pivot_col].notna()]
    if pivot_values is None:
        pivot_values = sorted(folded[pivot_col].unique().tolist())
    if not len(folded):
        return pd.DataFrame({key_col: [],
                             **{f"{prefix}{v}": pd.array([], dtype="int64")
                                for v in pivot_values}})
    wide = folded.pivot_table(index=key_col, columns=pivot_col, values="pv",
                              aggfunc="sum", fill_value=0, dropna=False)
    wide = wide.reindex(columns=pivot_values, fill_value=0)
    wide.columns = [f"{prefix}{v}" for v in pivot_values]
    wide = wide.reset_index()
    for c in wide.columns[1:]:
        wide[c] = wide[c].fillna(0).astype("int64")
    return wide.sort_values(key_col, kind="mergesort").reset_index(drop=True)


def pivot_agg_sql(table: str, key_col: str, pivot_col: str,
                  value_col: str | None = None, pivot_values=(),
                  prefix: str | None = None) -> str:
    """DuckDB twin of :func:`pivot_agg` (conditional aggregation)."""
    if prefix is None:
        prefix = "n_" if value_col is None else "sum_"
    cell = "1" if value_col is None else value_col
    cols = ", ".join(
        f"CAST(SUM(CASE WHEN {pivot_col} = '{v}' THEN {cell} ELSE 0 END) "
        f"AS BIGINT) AS \"{prefix}{v}\""
        for v in pivot_values
    )
    return (
        f"SELECT {key_col}, {cols} FROM {table} "
        f"GROUP BY {key_col}"
    )


def quantile_cont(ds, col: str, qs, **kw) -> dict:
    """Distributed EXACT interpolated quantiles (SQL ``quantile_cont`` /
    PERCENTILE_CONT): the order statistics at ranks floor(h) and ceil(h)
    of h = q*(n-1) are found with the same sample-guided bisection as
    :func:`exact_quantiles` (both ranks in ONE shared run — the counting
    passes are vectorized over all brackets), then interpolated
    ``lo*(1-frac) + hi*frac`` in float64 (DuckDB's association order —
    ``lo + frac*(hi-lo)`` differs in the last ulp).  No sort, no
    shuffle, no materialization.  Returns {q: float} (None when empty)."""
    import math

    qs = list(qs)
    cell: dict = {}

    labels = []
    for q in qs:
        labels.append((float(q), 0))
        labels.append((float(q), 1))

    def rank_of(label, n):
        cell["n"] = n
        q, which = label
        h = q * (n - 1)
        return int(math.floor(h)) if which == 0 else int(math.ceil(h))

    vals = exact_quantiles(ds, col, labels, rank_of=rank_of, **kw)
    if not cell:  # empty dataset: exact_quantiles returned all-None
        return {q: None for q in qs}
    n = cell["n"]
    out = {}
    for q in qs:
        lo, hi = vals[(float(q), 0)], vals[(float(q), 1)]
        h = q * (n - 1)
        frac = h - math.floor(h)
        out[q] = float(lo) * (1.0 - frac) + float(hi) * frac
    return out


def _grouping_sets_agg(ds, key_cols: list[str], value_col: str,
                       sets: list[tuple[str, ...]], as_pandas: bool):
    """Shared core of ROLLUP / CUBE: exact count + integer sum at every
    requested grouping set, derived from ONE streaming pass of
    finest-level Arrow partials folded on the driver (O(finest
    cardinality), the conv_stats pattern) — coarser sets re-aggregate the
    folded partials, never the data.  ``grp_id`` is the SQL GROUPING()
    bitmask over key_cols (first key = most significant bit)."""
    from logray.stages.bucketing import stream_fold

    k = len(key_cols)
    sum_col, n_col = f"sum_{value_col}", "n_rows"

    def grp_id(keep):
        return sum(1 << (k - 1 - i)
                   for i, c in enumerate(key_cols) if c not in keep)

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by(key_cols).aggregate(
            [(value_col, "sum"), ([], "count_all")])
        g = g.rename_columns(key_cols + [sum_col, n_col])
        if t.num_rows == 0:
            g = g.cast(pa.schema(
                [t.schema.field(c) for c in key_cols]
                + [pa.field(sum_col, pa.int64()), pa.field(n_col, pa.int64())]
            ))
        return g

    def fold(tables: list[pa.Table]) -> pa.Table:
        t = pa.concat_tables(tables, promote_options="permissive")
        g = t.group_by(key_cols).aggregate([(sum_col, "sum"), (n_col, "sum")])
        return g.rename_columns(key_cols + [sum_col, n_col])

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    finest = stream_fold(parts, fold)
    if finest is None or finest.num_rows == 0:
        # SQL grouping sets over zero rows still yield ONE row per
        # zero-key set ((), i.e. the grand total): NULL keys, n=0,
        # sum=NULL; keyed sets produce no rows
        empties = [s for s in sets if not s]
        out = pd.DataFrame({
            **{c: [None] * len(empties) for c in key_cols},
            n_col: pd.array([0] * len(empties), dtype="int64"),
            sum_col: pd.array([np.nan] * len(empties), dtype="float64"),
            "grp_id": pd.array([(1 << k) - 1] * len(empties), dtype="int64"),
        })
        return out if as_pandas else pa.Table.from_pandas(out, preserve_index=False)
    df = finest.to_pandas()

    frames = []
    for keep in sets:
        keep = list(keep)
        if len(keep) == k:
            f = df.copy()
        elif keep:
            f = (df.groupby(keep, dropna=False, sort=False)[[sum_col, n_col]]
                 .sum().reset_index())
        else:
            f = pd.DataFrame({sum_col: [df[sum_col].sum()],
                              n_col: [df[n_col].sum()]})
        for c in key_cols:
            if c not in keep:
                f[c] = None
        f["grp_id"] = grp_id(keep)
        frames.append(f[key_cols + [n_col, sum_col, "grp_id"]])
    out = pd.concat(frames, ignore_index=True)
    out[n_col] = out[n_col].astype("int64")
    out[sum_col] = out[sum_col].astype("int64")
    out["grp_id"] = out["grp_id"].astype("int64")
    return out if as_pandas else pa.Table.from_pandas(out, preserve_index=False)


def rollup_agg(ds, key_cols, value_col: str, as_pandas: bool = True):
    """SQL ``GROUP BY ROLLUP (key_cols...)``: every prefix level of the
    key hierarchy plus the grand total (see :func:`_grouping_sets_agg`
    for the one-pass scale shape).  Value column must be integer (use
    cents) for exact sums."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    sets = [tuple(key_cols[:lvl]) for lvl in range(len(key_cols), -1, -1)]
    return _grouping_sets_agg(ds, key_cols, value_col, sets, as_pandas)


def cube_agg(ds, key_cols, value_col: str, as_pandas: bool = True):
    """SQL ``GROUP BY CUBE (key_cols...)``: every subset of the keys (2^k
    grouping sets), all derived from the same single finest-level pass."""
    from itertools import combinations

    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    sets = [
        tuple(s)
        for r in range(len(key_cols), -1, -1)
        for s in combinations(key_cols, r)
    ]
    return _grouping_sets_agg(ds, key_cols, value_col, sets, as_pandas)


def rollup_agg_sql(table: str, key_cols, value_col: str,
                   mode: str = "ROLLUP") -> str:
    """DuckDB twin of :func:`rollup_agg` (``mode="CUBE"`` twins
    :func:`cube_agg`)."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    ks = ", ".join(key_cols)
    return (
        f"SELECT {ks}, CAST(count(*) AS BIGINT) AS n_rows, "
        f"CAST(sum({value_col}) AS BIGINT) AS sum_{value_col}, "
        f"CAST(GROUPING({ks}) AS BIGINT) AS grp_id "
        f"FROM {table} GROUP BY {mode} ({ks})"
    )


def distinct_count_per_key(ds, key: str, val: str, num_buckets: int = 32,
                           as_pandas: bool = True):
    """Exact ``COUNT(DISTINCT val) GROUP BY key`` (the exact counterpart
    of the HLL sketch in ``functions/sketch.py``).

    Scale shape: per-batch LOCAL (key, val) dedup — the combiner, so
    duplicate-heavy batches ship one pair per distinct combination — then
    ONE ``hash(key) % num_buckets`` shuffle of the deduped pairs and a
    vectorized per-bucket nunique (group count is num_buckets, never the
    key cardinality).  Null vals are not counted (SQL COUNT semantics);
    null keys pool into one group."""
    from logray.stages.bucketing import grouped_apply

    def local_dedup(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[val]))
        return t.group_by([key, val]).aggregate([])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates([key, val])
        s = g.groupby(key, sort=False, dropna=False)[val].size()
        return pd.DataFrame({key: s.index.to_numpy(),
                             "n_distinct": s.to_numpy().astype(np.int64)})

    out = grouped_apply(
        ds.map_batches(local_dedup, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        key, per_bucket, num_buckets=num_buckets)
    return out.to_pandas() if as_pandas else out


def distinct_count_per_key_sql(table: str, key: str, val: str) -> str:
    """DuckDB twin of :func:`distinct_count_per_key`."""
    return (
        f"SELECT {key}, CAST(count(DISTINCT {val}) AS BIGINT) AS n_distinct "
        f"FROM {table} GROUP BY {key}"
    )


def binned_histogram(ds, col: str, lo: int, width: int, nbins: int,
                     as_pandas: bool = True):
    """Fixed-width histogram over an INTEGER column: bin 0 = underflow
    (x < lo), bins 1..nbins cover [lo, lo + nbins*width), bin nbins+1 =
    overflow.  Integer floor arithmetic on both sides, so counts are
    exact.  One streaming pass: each batch emits ONE (nbins+2)-long count
    vector partial; the driver sums them — no shuffle, O(nbins) state.
    Empty bins are emitted with n=0 (unlike a GROUP BY, which drops
    them), so the output height is always nbins+2."""
    if width <= 0 or nbins <= 0:
        raise ValueError("width and nbins must be positive")
    hi = lo + nbins * width

    def part(t: pa.Table) -> pd.DataFrame:
        x = t[col].to_numpy(zero_copy_only=False)
        if len(x) and not np.issubdtype(np.asarray(x).dtype, np.integer):
            raise TypeError(f"binned_histogram needs an integer column; "
                            f"{col} is {np.asarray(x).dtype}")
        x = np.asarray(x, np.int64)
        b = np.where(x < lo, 0,
                     np.where(x >= hi, nbins + 1, (x - lo) // width + 1))
        return pd.DataFrame({"counts": [np.bincount(
            b, minlength=nbins + 2).astype(np.int64).tobytes()]})

    parts = ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None).to_pandas()
    total = np.zeros(nbins + 2, np.int64)
    for buf in parts["counts"]:
        total += np.frombuffer(buf, np.int64)
    out = pd.DataFrame({
        "bin": np.arange(nbins + 2, dtype=np.int64),
        "n": total,
    })
    return out if as_pandas else pa.Table.from_pandas(out, preserve_index=False)


def binned_histogram_sql(table: str, col: str, lo: int, width: int,
                         nbins: int) -> str:
    """DuckDB twin of :func:`binned_histogram` (identical integer bins;
    a generate_series left join emits empty bins with n=0)."""
    hi = lo + nbins * width
    bin_expr = (
        f"CASE WHEN {col} < {lo} THEN 0 "
        f"WHEN {col} >= {hi} THEN {nbins + 1} "
        f"ELSE ({col} - {lo}) // {width} + 1 END"
    )
    return (
        f"SELECT b.bin, CAST(COALESCE(c.n, 0) AS BIGINT) AS n FROM "
        f"(SELECT unnest(generate_series(0, {nbins + 1})) AS bin) b "
        f"LEFT JOIN (SELECT {bin_expr} AS bin, count(*) AS n "
        f"FROM {table} GROUP BY 1) c USING (bin)"
    )


def mode_per_key(ds, key: str, val: str, num_buckets: int = 32,
                 as_pandas: bool = True):
    """Deterministic MODE per key: the most frequent non-null ``val``,
    ties broken to the smallest value (the SQL twin pins the identical
    rule via ``row_number() OVER (ORDER BY cnt DESC, val ASC)`` — bare
    ``mode()`` leaves ties unspecified).

    Scale shape: per-batch (key, val) count combiner — duplicate-heavy
    batches ship one row per distinct combination — then ONE
    ``hash(key) % num_buckets`` shuffle of the count partials and a
    vectorized per-bucket argmax.  Null vals are ignored (SQL aggregate
    semantics); null keys pool into one group."""

    def local_counts(t: pa.Table) -> pa.Table:
        t = t.select([key, val]).filter(pc.is_valid(t[val]))
        return t.group_by([key, val]).aggregate([([], "count_all")])

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = (g.groupby([key, val], sort=False, dropna=False)["count_all"]
             .sum().reset_index())
        s = s.sort_values([key, "count_all", val],
                          ascending=[True, False, True], kind="mergesort")
        out = s.drop_duplicates(key, keep="first")
        return pd.DataFrame({key: out[key].to_numpy(),
                             "mode_val": out[val].to_numpy(),
                             "n": out["count_all"].to_numpy().astype(np.int64)})

    from logray.stages.bucketing import grouped_apply

    out = grouped_apply(
        ds.map_batches(local_counts, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        key, per_bucket, num_buckets=num_buckets)
    return out.to_pandas() if as_pandas else out


def mode_per_key_sql(table: str, key: str, val: str) -> str:
    """DuckDB twin of :func:`mode_per_key` (deterministic tie-break)."""
    return (
        f"SELECT {key}, {val} AS mode_val, CAST(cnt AS BIGINT) AS n FROM ("
        f"SELECT {key}, {val}, count(*) AS cnt, "
        f"row_number() OVER (PARTITION BY {key} "
        f"ORDER BY count(*) DESC, {val} ASC) AS rn "
        f"FROM {table} WHERE {val} IS NOT NULL GROUP BY {key}, {val}"
        f") WHERE rn = 1"
    )


def _best_row_fold(parts, best, empty_cols: list[str]) -> pa.Table:
    """Shared driver fold for the best-row combiner ops
    (:func:`arg_extreme`, :func:`distinct_on`): stream the per-batch
    winner partials and re-apply the same associative ``best`` rule."""
    from logray.stages.bucketing import stream_fold

    def fold(tables: list[pa.Table]) -> pa.Table:
        df = pd.concat([t.to_pandas() for t in tables], ignore_index=True)
        return pa.Table.from_pandas(best(df), preserve_index=False)

    folded = stream_fold(parts, fold)
    if folded is None:
        folded = pa.table({c: [] for c in empty_cols})
    return folded


def arg_extreme(ds, key: str, arg: str, val: str, how: str = "max",
                as_pandas: bool = True):
    """ARG_MAX / ARG_MIN per key: the value of ``arg`` on the row where
    ``val`` is extreme, ties broken to the smallest ``arg`` (the SQL twin
    pins the identical rule — bare ``arg_max()`` leaves ties
    unspecified).  Rows with null ``val`` or null ``arg`` are ignored,
    matching the aggregate's null semantics.

    Scale shape: NO shuffle — each batch reduces to at most one row per
    key present (the combiner), and the driver folds the tiny partials
    with the same associative rule via :func:`bucketing.stream_fold`;
    state is O(distinct keys)."""
    if how not in ("max", "min"):
        raise ValueError(f"how must be 'max' or 'min', got {how!r}")
    asc_val = how == "min"

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, val, arg], ascending=[True, asc_val, True],
                            kind="mergesort")
        return df.drop_duplicates(key, keep="first").reset_index(drop=True)

    def part(t: pa.Table) -> pd.DataFrame:
        t = t.select([key, arg, val])
        t = t.filter(pc.and_(pc.is_valid(t[val]), pc.is_valid(t[arg])))
        return best(t.to_pandas())

    parts = ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None)
    folded = _best_row_fold(parts, best, [key, arg, val])
    return folded.to_pandas() if as_pandas else folded


def arg_extreme_sql(table: str, key: str, arg: str, val: str,
                    how: str = "max") -> str:
    """DuckDB twin of :func:`arg_extreme` (deterministic tie-break)."""
    order = "DESC" if how == "max" else "ASC"
    return (
        f"SELECT {key}, {arg}, {val} FROM ("
        f"SELECT {key}, {arg}, {val}, "
        f"row_number() OVER (PARTITION BY {key} "
        f"ORDER BY {val} {order}, {arg} ASC) AS rn "
        f"FROM {table} WHERE {val} IS NOT NULL AND {arg} IS NOT NULL"
        f") WHERE rn = 1"
    )


def distinct_on(ds, key_cols, order_cols, descending=False,
                as_pandas: bool = True):
    """SQL ``DISTINCT ON``: the whole FIRST row per key under
    (order_cols, descending) — the "latest record per entity" compaction
    every log pipeline runs (pass the timestamp descending to keep the
    newest state).  ``descending`` is a bool or per-column list; pass a
    unique tiebreak as the last order column for a total order.  All
    input columns come back, original order.

    Scale shape: NO shuffle — each batch reduces to at most one row per
    key present (the combiner) and the driver folds the tiny partials
    with the same associative rule (state O(distinct keys)), exactly the
    :func:`arg_extreme` shape but carrying the full row."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    order_cols = [order_cols] if isinstance(order_cols, str) \
        else list(order_cols)
    if isinstance(descending, bool):
        descending = [descending] * len(order_cols)
    if len(descending) != len(order_cols):
        raise ValueError("descending must match order_cols")
    asc = [True] * len(key_cols) + [not d for d in descending]

    def best(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(key_cols + order_cols, ascending=asc,
                            kind="mergesort")
        return df.drop_duplicates(key_cols, keep="first").reset_index(drop=True)

    parts = ds.map_batches(best, batch_format="pandas", batch_size=None)
    folded = _best_row_fold(parts, best, ds.schema().names)
    return folded.to_pandas() if as_pandas else folded


def distinct_on_sql(table: str, key_cols, order_cols,
                    descending=False) -> str:
    """DuckDB twin of :func:`distinct_on` (NULLS LAST on every
    direction, matching pandas sort_values)."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    order_cols = [order_cols] if isinstance(order_cols, str) \
        else list(order_cols)
    if isinstance(descending, bool):
        descending = [descending] * len(order_cols)
    order = ", ".join(
        f"{c} {'DESC' if d else 'ASC'} NULLS LAST"
        for c, d in zip(order_cols, descending))
    return (
        f"SELECT * EXCLUDE (__rn) FROM ("
        f"SELECT *, row_number() OVER ("
        f"PARTITION BY {', '.join(key_cols)} ORDER BY {order}) AS __rn "
        f"FROM {table}) WHERE __rn = 1"
    )
