"""Join operators.

The reference has no join (its only lookup is a config dict); the engine
provides the three shapes a pipeline needs:

- :func:`broadcast_join` — small side shipped once (``ray.put``), joined
  per batch with an Arrow-native ``pa.Table.join``.  No shuffle; the right
  answer for dimension tables (generalizes stages/enrich.py).
- :func:`hash_join` — both sides large: an explicit bucketed join (add
  ``bucket = hash(key) % B`` to both sides, co-group per bucket through
  the bucket exchange and merge each bucket with an Arrow hash join) —
  the portable partitioned-hash-join pattern; B and skew handling are
  explicit.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logray.stages.bucketing import BUCKET_COL, bucket_exchange, key_hashes


# Only inner/left are sound PER BATCH against a broadcast side: a per-batch
# right/full-outer would re-emit every unmatched small-side row once per
# batch (and null-extend matched keys in the batches that miss them).
# right/outer joins must shuffle both sides — use hash_join.
_ARROW_JOIN_TYPE = {"inner": "inner", "left": "left outer"}


def broadcast_join(ds, small, on, how: str = "inner", batch_size: int | None = None):
    """Join `ds` against a small pandas DataFrame / Arrow table (or
    ray.ObjectRef of one) broadcast to every worker.

    Arrow-native: the small side is converted to a ``pa.Table`` ONCE on
    the driver and ``ray.put``; each batch reads it zero-copy inside a
    plain fused task and joins with ``pa.Table.join`` (an Arrow hash
    join) — the stage stays ``batch_format="pyarrow"`` end-to-end with no
    per-batch pandas conversion.  Output row order within a batch is not
    guaranteed (hash-join semantics)."""
    import ray

    keys = [on] if isinstance(on, str) else list(on)
    if how not in _ARROW_JOIN_TYPE:
        raise ValueError(
            f"broadcast_join supports how in {sorted(_ARROW_JOIN_TYPE)}; "
            f"{how!r} needs both sides shuffled — use hash_join")
    join_type = _ARROW_JOIN_TYPE[how]
    if isinstance(small, ray.ObjectRef):
        small = ray.get(small)
    if isinstance(small, pd.DataFrame):
        small = pa.Table.from_pandas(small, preserve_index=False)
    elif not isinstance(small, pa.Table):
        small = pa.table(small)
    ref = ray.put(small)

    def merge(t: pa.Table) -> pa.Table:
        return t.join(ray.get(ref), keys=keys, join_type=join_type,
                      right_suffix="_right")

    return ds.map_batches(merge, batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)


def broadcast_semi_join(ds, keys, on: str, anti: bool = False):
    """Semi join (``anti=False``: keep rows whose ``on`` value appears in
    ``keys``) or anti join (``anti=True``: keep rows whose value does NOT).

    ``keys`` is a small Dataset (its distinct ``on``/single column is
    collected once), a list, or a ``ray.ObjectRef``; it becomes one
    null-free ``pa.Array`` on the driver, and membership is tested per
    batch with a vectorized ``pc.is_in`` against the broadcast set —
    no shuffle (the generalization of the dedup drop-set filter).

    Null handling: null PROBE keys drop in both directions (SQL IN /
    NOT IN); nulls in the broadcast KEY SET are ignored — a documented
    deviation from SQL's ``NOT IN (..., NULL)``, which returns zero rows
    (never what a pipeline wants from a drop list with a stray null)."""
    import ray

    if hasattr(keys, "unique"):
        col = keys.schema().names[0]
        keys = keys.unique(col)
    if isinstance(keys, ray.ObjectRef):
        keys = ray.get(keys)
    arr = keys if isinstance(keys, pa.Array) else pa.array(list(keys))
    ref = ray.put(arr.drop_null())

    def semi(t: pa.Table) -> pa.Table:
        value_set = ray.get(ref)
        if value_set.type != t[on].type:
            value_set = value_set.cast(t[on].type)
        m = pc.is_in(t[on], value_set=value_set)
        if anti:
            m = pc.invert(m)
        # Arrow's is_in maps null -> False, so gate validity explicitly
        m = pc.and_(pc.fill_null(m, False), pc.is_valid(t[on]))
        return t.filter(m)

    return ds.map_batches(semi, batch_format="pyarrow", zero_copy_batch=True)


def broadcast_anti_join(ds, keys, on: str):
    """Rows of ``ds`` whose ``on`` value does NOT appear in ``keys``."""
    return broadcast_semi_join(ds, keys, on, anti=True)


def hash_join(left, right, on, right_on=None, how: str = "inner",
              num_partitions: int = 32):
    """Large-large equi-join, hash-partitioned on the key.  ``how`` uses
    pandas naming: inner / left / right / outer (full).

    Every ``how`` runs on the bucketed join (:func:`_bucketed_join`, on
    the plain-task bucket exchange, so it is eager).  An inner join keeps
    only the left key columns (the right ones hold the same values);
    outer joins keep both, since the absent side's key is null."""
    on = (on,) if isinstance(on, str) else tuple(on)
    right_on = on if right_on is None else (
        (right_on,) if isinstance(right_on, str) else tuple(right_on)
    )
    return _bucketed_join(left, right, on, right_on, how, num_partitions,
                          coalesce_keys=how == "inner")


_BUCKETED_JOIN_TYPE = {"inner": "inner", "left": "left outer",
                       "right": "right outer", "outer": "full outer"}


def _normalize_arrow(ds):
    """(dataset, arrow types) for the bucketed join.  A pandas-block
    dataset reports numpy dtypes; object columns hide perfectly
    Arrow-able strings, and sending those through the pandas fallback
    silently corrupts unrelated int64 columns (the cross-side column
    union NaN-pads them to float64).  Rewrap such datasets as Arrow
    blocks and re-read the schema — only a genuinely mixed-object column
    (schema still unresolvable, or the conversion itself failing) drops
    to the pandas path."""
    types = _arrow_types(ds.schema())
    if types is not None:
        return ds, types
    conv = ds.map_batches(lambda t: t, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)
    try:
        types = _arrow_types(conv.schema())
    except Exception:
        return ds, None
    return (ds, None) if types is None else (conv, types)


def _arrow_types(sch) -> dict | None:
    """Arrow type per column of a Dataset schema, or None when any column
    carries a non-Arrow type we cannot express (pandas object blocks)."""
    from logray.stages.bucketing import arrow_type_of

    out = {}
    for name, typ in zip(sch.names, sch.types):
        typ = arrow_type_of(typ)
        if typ is None:
            return None
        out[name] = typ
    return out


def _bucketed_join(left, right, on, right_on, how, num_buckets,
                   expect_left_one_to_one: bool = False,
                   coalesce_keys: bool = False):
    """Explicit partitioned hash join: tag both sides with
    ``hash(key) % B``, union, co-group per bucket, merge per group with an
    Arrow-native ``pa.Table.join`` (Acero hash join).  Salt hot keys by
    raising B.

    The per-bucket merge stays in Arrow end-to-end, so null-extended
    integer columns keep their exact int64 values (a pandas merge NaN-pads
    the absent side, coercing int64 -> float64 and silently rounding
    values past 2^53 — full-range hash/id columns would corrupt).  Null
    join keys follow SQL semantics (never match, but survive outer joins
    null-extended).  Right-side columns whose names collide with left
    columns are suffixed ``_right`` unless coalesced as same-named keys.

    ``expect_left_one_to_one=True`` (inner joins whose right side must
    match every left row exactly once, e.g. joining a derived per-id table
    back onto its source) raises per bucket when the joined row count
    differs from the bucket's left row count — the cheap guard against a
    non-unique join-back key silently multiplying rows.
    ``coalesce_keys=True`` drops differently-named right key columns from
    the output (for inner joins, where they equal the left keys).

    Falls back to the pandas merge (NaN-key matching, _x/_y collision
    suffixes, float64 null-padding) only when a side's schema holds
    non-Arrow object columns that Arrow-block normalization cannot
    resolve, or when the two sides' key dtypes differ."""
    left, ltypes = _normalize_arrow(left)
    right, rtypes = _normalize_arrow(right)
    if ltypes is None or rtypes is None or how not in _BUCKETED_JOIN_TYPE:
        return _bucketed_join_pandas(left, right, on, right_on, how,
                                     num_buckets, expect_left_one_to_one,
                                     coalesce_keys)
    same_keys = tuple(on) == tuple(right_on)
    if any(ltypes[a] != rtypes[b] for a, b in zip(on, right_on)):
        # coalesced same-named keys must share one dtype in the union;
        # differently-named mismatched keys (int64 vs float64) would make
        # Acero's typed hash join reject or miss — pandas merge matches
        # 2 with 2.0 (and the canonical bucket hash keeps them together)
        return _bucketed_join_pandas(left, right, on, right_on, how,
                                     num_buckets, expect_left_one_to_one,
                                     coalesce_keys)
    # rename colliding right columns BEFORE the union so one shared column
    # never has to carry two dtypes (same-named keys coalesce instead);
    # keep appending the suffix until the name is actually free so a real
    # right-side "x_right" column is never silently overwritten
    taken = set(ltypes) | set(rtypes)
    ren = {}
    for c in rtypes:
        if c in ltypes and not (same_keys and c in on):
            new = c + "_right"
            while new in taken:
                new += "_right"
            ren[c] = new
            taken.add(new)
    right_named = {ren.get(c, c): t for c, t in rtypes.items()}
    right_keys = [ren.get(c, c) for c in right_on]
    all_cols = list(ltypes) + [c for c in right_named if c not in ltypes]
    out_cols = [c for c in all_cols if same_keys or not coalesce_keys
                or c not in right_keys]
    types = dict(right_named)
    types.update(ltypes)

    inv = {v: k for k, v in ren.items()}

    def tag(side):
        keys = on if side == 0 else right_on
        # unified column -> this side's source column (None = null-pad)
        src_of = {}
        for c in all_cols:
            if side == 0:
                src_of[c] = c if c in ltypes else None
            else:
                src_of[c] = inv.get(c, c) if c in right_named else None

        def fn(t: pa.Table) -> pa.Table:
            h = np.zeros(t.num_rows, np.uint64)
            for k in keys:
                h = h * np.uint64(1000003) + key_hashes(
                    t[k].to_numpy(zero_copy_only=False))
            cols = {c: (t[src] if src is not None
                        else pa.nulls(t.num_rows, types[c]))
                    for c, src in src_of.items()}
            out = pa.table(cols)
            out = out.append_column(
                BUCKET_COL, pa.array((h % num_buckets).astype(np.int64)))
            return out.append_column(
                "__side", pa.array(np.full(t.num_rows, side, np.int8)))

        return fn

    lt = left.map_batches(tag(0), batch_format="pyarrow")
    rt = right.map_batches(tag(1), batch_format="pyarrow")
    both = lt.union(rt)
    jt = _BUCKETED_JOIN_TYPE[how]
    left_cols = list(ltypes)
    right_cols = list(right_named)

    def merge(g: pa.Table) -> pa.Table:
        mask = pc.equal(g["__side"], 0)
        l_src = g.filter(mask)
        r_src = g.filter(pc.invert(mask))
        l = pa.table({c: l_src[c] for c in left_cols})
        r = pa.table({c: r_src[c] for c in right_cols})
        out = l.join(r, keys=list(on), right_keys=right_keys,
                     join_type=jt, coalesce_keys=same_keys)
        if expect_left_one_to_one and out.num_rows != l.num_rows:
            raise ValueError(
                f"_bucketed_join: expected a 1:1 join-back but a bucket's "
                f"{l.num_rows} left rows joined to {out.num_rows} rows — "
                f"the right-side key {right_keys} is not unique")
        return out.select(out_cols)

    return bucket_exchange(both, merge, batch_format="pyarrow")


def _bucketed_join_pandas(left, right, on, right_on, how, num_buckets,
                          expect_left_one_to_one: bool = False,
                          coalesce_keys: bool = False):
    """Legacy pandas-merge bucketed join, kept ONLY for inputs whose
    schema cannot be expressed in Arrow (mixed-object blocks) or whose
    key dtypes differ across sides.  Caveats vs the Arrow path: NaN keys
    match each other, null-extended / cross-side-unioned int64 columns
    coerce to float64 (values past 2^53 round), collisions get pandas
    _x/_y suffixes."""

    def tag(side):
        keys = on if side == 0 else right_on

        def fn(t: pa.Table) -> pa.Table:
            h = np.zeros(t.num_rows, np.uint64)
            for k in keys:
                h = h * np.uint64(1000003) + key_hashes(
                    t[k].to_numpy(zero_copy_only=False))
            t = t.append_column(BUCKET_COL, pa.array((h % num_buckets).astype(np.int64)))
            return t.append_column("__side", pa.array(np.full(t.num_rows, side, np.int8)))

        return fn

    left_cols = left.schema().names
    right_cols = right.schema().names
    lt = left.map_batches(tag(0), batch_format="pyarrow")
    rt = right.map_batches(tag(1), batch_format="pyarrow")
    both = lt.union(rt)

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        # a bucket group may hold rows from only one side (the union blocks
        # keep their own schemas): reindex fills the absent side's columns
        # so the merge degenerates to empty instead of KeyError-ing
        l = g.loc[g["__side"] == 0].reindex(columns=left_cols)
        r = g.loc[g["__side"] == 1].reindex(columns=right_cols)
        out = l.merge(r, left_on=list(on), right_on=list(right_on), how=how)
        if expect_left_one_to_one and len(out) != len(l):
            raise ValueError(
                f"_bucketed_join: expected a 1:1 join-back but a bucket's "
                f"{len(l)} left rows joined to {len(out)} rows — the "
                f"right-side key {list(right_on)} is not unique")
        if coalesce_keys:
            out = out.drop(columns=[c for c in right_on
                                    if c not in on and c in out.columns])
        return out

    return bucket_exchange(both, merge)


def asof_join(left, right, key: str, ts_col: str = "ts", right_cols=None,
              suffix: str = "_right", tiebreak_col: str | None = None,
              num_buckets: int = 32, direction: str = "backward"):
    """As-of join: for each left row, the latest right row of the same key
    with ``right.ts <= left.ts`` (``direction="backward"``, SQL ASOF JOIN
    on ``l.ts >= r.ts``), the earliest with ``right.ts >= left.ts``
    (``"forward"``, ASOF on ``l.ts <= r.ts``), or whichever is closest in
    time (``"nearest"`` — no SQL twin; pinned by unit test).

    Both sides shuffle once on ``hash(key) % num_buckets`` — NOT on the
    raw key, so the group count is ``num_buckets``, not the key
    cardinality (one pandas group per key is pure overhead at 1e8 keys).
    Within each bucket ONE grouped ``pd.merge_asof(by=key)`` handles every
    key vectorized.  The documented partitioning assumption is that one
    bucket's rows fit a worker (raise ``num_buckets`` with data size;
    salt/split upstream for a single pathological key).  Right-side
    columns are suffixed on collision."""
    if direction not in ("backward", "forward", "nearest"):
        raise ValueError(f"asof_join: bad direction {direction!r}")
    rcols = list(right_cols) if right_cols else None

    from logray.stages.bucketing import bucket_of

    def tag(side):
        def fn(t: pa.Table) -> pa.Table:
            b = bucket_of(t[key], num_buckets)
            t = t.append_column(BUCKET_COL, pa.array(b))
            return t.append_column("__side", pa.array(np.full(t.num_rows, side, np.int8)))
        return fn

    lt = left.map_batches(tag(0), batch_format="pyarrow")
    rt = right.map_batches(tag(1), batch_format="pyarrow")
    left_names = [c for c in left.schema().names]
    right_names = rcols or [c for c in right.schema().names if c != key]

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        l = g.loc[g["__side"] == 0].reindex(columns=left_names)
        r = g.loc[g["__side"] == 1].reindex(
            columns=[key, ts_col] + [c for c in right_names if c not in (key, ts_col)]
        )
        order = [ts_col] + ([tiebreak_col] if tiebreak_col else [])
        l = l.sort_values([c for c in order if c in l.columns], kind="mergesort")
        r = r.sort_values(ts_col, kind="mergesort")
        merged = pd.merge_asof(
            l, r, on=ts_col, by=key, direction=direction, suffixes=("", suffix)
        )
        return merged

    return bucket_exchange(lt.union(rt), per_bucket)


def range_join(left, right_intervals, value_col: str, lo_col: str = "lo",
               hi_col: str = "hi", how: str = "inner", batch_size: int = 65536):
    """Range join: match each left row to every interval with
    ``lo <= value < hi``.  The interval table is small (a banding/bucketing
    dimension), so it is broadcast and resolved per batch with a vectorized
    ``np.searchsorted`` over the sorted interval starts — the fast path for
    non-overlapping intervals; overlapping intervals fall back to a per-band
    mask (still vectorized per interval, no row loop).

    ``how='left'`` keeps unmatched left rows with null interval columns;
    ``how='inner'`` drops them."""
    import ray

    if how not in ("inner", "left"):
        raise ValueError(f"range_join: unsupported how={how!r} (inner|left)")
    df = right_intervals if isinstance(right_intervals, pd.DataFrame) else right_intervals.to_pandas()
    df = df.sort_values(lo_col).reset_index(drop=True)
    non_overlapping = bool((df[hi_col].iloc[:-1].to_numpy() <= df[lo_col].iloc[1:].to_numpy()).all()) if len(df) > 1 else True
    ref = ray.put((pa.Table.from_pandas(df, preserve_index=False),
                   df[lo_col].to_numpy(), df[hi_col].to_numpy()))

    def assign(t: pa.Table) -> pa.Table:
        iv, lo, hi = ray.get(ref)
        v = t[value_col].to_numpy(zero_copy_only=False)
        if non_overlapping:
            idx = np.searchsorted(lo, v, side="right") - 1
            ok = (idx >= 0) & (v < hi[np.maximum(idx, 0)])
            parts = [(ok, np.maximum(idx, 0))]
        else:
            parts = [((v >= lo[i]) & (v < hi[i]), np.full(len(v), i)) for i in range(len(lo))]
        out = [_append_columns(t.filter(pa.array(ok)), iv.take(idx[ok]))
               for ok, idx in parts]
        matched = np.logical_or.reduce([ok for ok, _ in parts])
        if how == "left" and not matched.all():
            un = t.filter(pa.array(~matched))
            out.append(_append_columns(un, _null_rows(iv, un.num_rows)))
        return pa.concat_tables(out, promote_options="permissive")

    return left.map_batches(assign, batch_format="pyarrow",
                            batch_size=batch_size)


def _append_columns(t: pa.Table, cols: pa.Table) -> pa.Table:
    """``t`` with every column of the row-aligned ``cols`` appended."""
    for name, col in zip(cols.column_names, cols.columns):
        t = t.append_column(name, col)
    return t


def _null_rows(iv: pa.Table, n: int) -> pa.Table:
    """``n`` all-null rows of ``iv``'s columns (a left join's misses)."""
    return pa.table([pa.nulls(n, f.type) for f in iv.schema],
                    names=iv.column_names)


def interval_overlap_join(left, right_intervals, start_col: str, end_col: str,
                          lo_col: str = "lo", hi_col: str = "hi",
                          how: str = "inner", batch_size: int = 65536):
    """Interval-overlap join: match each left row's span ``[start, end)``
    to every broadcast interval ``[lo, hi)`` that overlaps it
    (``start < hi AND end > lo`` — both sides half-open, so touching
    spans do not match).  The downtime/session/maintenance-window overlap
    every ops pipeline runs; generalizes :func:`range_join` from points
    to spans (a left row can match SEVERAL intervals).

    Columns must be numeric (convert timestamps to epoch integers first);
    rows with a null bound match nothing, like the SQL comparison.
    Integer bounds compare exactly in int64; mixing an integer side with
    a float side compares in float64, which rounds above 2**53 — keep
    both sides integral for epoch-nanosecond data.

    Scale shape: the interval table is broadcast once (``ray.put``) and
    resolved per batch.  When both interval bounds are null-free and
    ascending after the lo-sort (true for disjoint windows, also for
    staggered overlaps), the fast path applies: the match set per row is
    a CONTIGUOUS interval run (both bounds monotone), found with two
    ``np.searchsorted`` calls and emitted with one repeat/arange gather,
    no per-interval pass.  Nested/unsorted-hi or null-bound interval
    tables fall back to one vectorized mask per interval.

    ``how='left'`` keeps span rows that overlap nothing, null-extended."""
    import ray

    if how not in ("inner", "left"):
        raise ValueError(
            f"interval_overlap_join: unsupported how={how!r} (inner|left)")
    df = (right_intervals if isinstance(right_intervals, pd.DataFrame)
          else right_intervals.to_pandas())
    df = df.sort_values(lo_col, kind="mergesort").reset_index(drop=True)
    # null-carrying bounds (object None / nullable dtypes) become float
    # NaN so comparisons are plain-numpy and null == no-match like SQL
    for _c in (lo_col, hi_col):
        if df[_c].isna().any():
            df[_c] = pd.to_numeric(df[_c]).astype("float64")
    # fast path needs BOTH bound arrays monotone non-decreasing (lo is,
    # post-sort) and null-free: searchsorted over an unsorted or NaN hi
    # returns garbage run bounds (inverted/nested intervals, null bounds)
    _hi = df[hi_col].to_numpy()
    fast = (not df[lo_col].isna().any() and not df[hi_col].isna().any()
            and bool((_hi[:-1] <= _hi[1:]).all()))
    ref = ray.put((pa.Table.from_pandas(df, preserve_index=False),
                   df[lo_col].to_numpy(), df[hi_col].to_numpy()))

    def append_iv(t: pa.Table, iv: pa.Table, jidx: np.ndarray) -> pa.Table:
        dup = set(iv.column_names) & set(t.column_names)
        if dup:
            raise ValueError(
                f"interval_overlap_join: interval columns {sorted(dup)} "
                f"collide with left columns — rename one side")
        return _append_columns(t, iv.take(jidx))

    def assign(t: pa.Table) -> pa.Table:
        iv, lo, hi = ray.get(ref)
        # keep native dtypes: int-vs-int comparisons stay exact;
        # nulls surface as NaN (pyarrow promotes to float) and a
        # float dtype is the only case that can carry them
        s = t[start_col].to_numpy(zero_copy_only=False)
        e = t[end_col].to_numpy(zero_copy_only=False)
        n = len(s)
        out, matched = [], np.zeros(n, bool)
        if fast:
            # interval j overlaps iff hi[j] > s (j >= jmin, hi asc)
            # and lo[j] < e (j <= jmax, lo asc): a contiguous run.
            jmin = np.searchsorted(hi, s, side="right")
            jmax = np.searchsorted(lo, e, side="left") - 1
            valid = np.ones(n, bool)
            for arr in (s, e):
                if np.issubdtype(arr.dtype, np.floating):
                    valid &= ~np.isnan(arr)
            cnt = np.where(valid, np.maximum(jmax - jmin + 1, 0), 0)
            matched = cnt > 0
            total = int(cnt.sum())
            if total:
                row_idx = np.repeat(np.arange(n, dtype=np.int64), cnt)
                starts = np.concatenate([[0], np.cumsum(cnt)[:-1]])
                pos = np.arange(total, dtype=np.int64) - np.repeat(starts, cnt)
                jidx = np.repeat(jmin, cnt) + pos
                out.append(append_iv(t.take(pa.array(row_idx)), iv, jidx))
        else:
            for i in range(len(lo)):
                ok = (s < hi[i]) & (e > lo[i])
                matched |= ok
                if ok.any():
                    sel = t.filter(pa.array(ok))
                    out.append(append_iv(
                        sel, iv, np.full(sel.num_rows, i, dtype=np.int64)))
        if how == "left" and not matched.all():
            un = t.filter(pa.array(~matched))
            out.append(_append_columns(un, _null_rows(iv, un.num_rows)))
        if not out:
            return _append_columns(t.slice(0, 0), iv.slice(0, 0))
        return pa.concat_tables(out, promote_options="permissive")

    return left.map_batches(assign, batch_format="pyarrow",
                            batch_size=batch_size)
