"""Stream-shaped operators over ordered, partitioned logs.

Ray Data has no event-time window/watermark machinery; per the engine's
streaming contract (SURVEY §2.10) the input is treated as an ordered,
partitioned log: partition by key, order by (ts, tiebreak) within the
partition, and implement windows inside ``groupby(key).map_groups`` over
the sorted group.  All operators here are exact and deterministic.

- :func:`tumbling_window` — fixed-width count/aggregate per (key, window):
  no map_groups needed, the window id is a vectorized ts floor + histogram
  (partial pre-aggregation, skew-proof).
- :func:`sessionize` — gap-based session ids per key (sorted group scan,
  vectorized inside the group).
- :func:`sessions_per_key` — session counts (the SQL-checkable reduction).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logray.stages.aggregate import histogram
from logray.stages.bucketing import grouped_apply


def tumbling_window(ds, ts_col: str = "ts", key_cols=None, width: str = "hour",
                    as_pandas: bool = True):
    """Exact row counts per (key..., window_start) where window_start is ts
    floored to `width` ('hour', 'day', 'minute').  One narrow map + the
    histogram partial pattern — never a per-row Python call."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols or [])

    def add_window(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t[ts_col], unit=width)
        return t.append_column("window_start", w)

    win = ds.map_batches(add_window, batch_format="pyarrow", zero_copy_batch=True)
    return histogram(win, key_cols + ["window_start"], as_pandas=as_pandas)


def hopping_window(ds, ts_col: str = "ts", width_s: float = 3600.0,
                   hop_s: float = 900.0, key_cols=None, as_pandas: bool = True):
    """Exact row counts per (key..., window_start) for HOPPING (sliding)
    windows of ``width_s`` advancing every ``hop_s`` (width must be a
    multiple of hop).  Each row belongs to ``width/hop`` windows; the
    explode is one vectorized repeat per batch, then the histogram partial
    pattern — the window multiplicity never touches a shuffle key's skew.

    ``window_start`` is int64 epoch microseconds (exactly reproducible in
    SQL: ``(floor(epoch_us(ts)/hop) - j) * hop`` unioned over j)."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols or [])
    width_us = int(width_s * 1_000_000)
    hop_us = int(hop_s * 1_000_000)
    if width_us % hop_us:
        raise ValueError("width_s must be a multiple of hop_s")
    k = width_us // hop_us

    def explode(t: pa.Table) -> pa.Table:
        n = t.num_rows
        ts_us = np.asarray(t[ts_col].cast(pa.timestamp("us")).cast(pa.int64()))
        base = np.floor_divide(ts_us, hop_us)
        starts = ((np.repeat(base, k) - np.tile(np.arange(k, dtype=np.int64), n))
                  * hop_us)
        idx = np.repeat(np.arange(n, dtype=np.int64), k)
        out = {c: pc.take(t[c], pa.array(idx)) for c in key_cols}
        out["window_start"] = pa.array(starts)
        return pa.table(out)

    win = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True,
                         batch_size=None)
    return histogram(win, key_cols + ["window_start"], as_pandas=as_pandas)


def hopping_window_sql(table: str, ts_col: str, width_s: float, hop_s: float,
                       key_cols=None) -> str:
    """DuckDB oracle for :func:`hopping_window` (identical arithmetic)."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols or [])
    width_us = int(width_s * 1_000_000)
    hop_us = int(hop_s * 1_000_000)
    k = width_us // hop_us
    keys = (", ".join(key_cols) + ", ") if key_cols else ""
    eus = f"epoch_us({ts_col})"
    selects = [
        f"SELECT {keys}(CAST(floor({eus} / {hop_us}) AS BIGINT) - {j}) * {hop_us} "
        f"AS window_start FROM {table}"
        for j in range(k)
    ]
    inner = " UNION ALL ".join(selects)
    return (
        f"SELECT {keys}window_start, count(*) AS n FROM ({inner}) "
        f"GROUP BY {keys}window_start"
    )


def _session_ids(ts_us: np.ndarray, gap_us: int) -> np.ndarray:
    """0-based session ids for an ascending timestamp array."""
    if len(ts_us) == 0:
        return np.zeros(0, np.int64)
    gaps = np.diff(ts_us) > gap_us
    return np.concatenate([[0], np.cumsum(gaps)]).astype(np.int64)



def _segmented_sessions(g: pd.DataFrame, key_col: str, ts_col: str, gap_us: int,
                        tiebreak_col: str | None):
    """Sort one BUCKET by (key, ts, tiebreak) and return (sorted frame,
    key-run starts mask, per-row session ids) — all vectorized, no
    per-key Python."""
    order = [key_col, ts_col] + ([tiebreak_col] if tiebreak_col else [])
    g = g.sort_values(order, kind="mergesort").reset_index(drop=True)
    n = len(g)
    ts_us = g[ts_col].astype("datetime64[us]").astype(np.int64).to_numpy()
    keys = g[key_col].to_numpy()
    from logray.stages.bucketing import run_starts

    new_key = run_starts(keys)  # pools null keys into one run (GROUP BY)
    brk = np.zeros(n, np.bool_)
    if n > 1:
        brk[1:] = (~new_key[1:]) & (np.diff(ts_us) > gap_us)
    csum = np.cumsum(brk)
    run_id = np.cumsum(new_key) - 1
    start_csum = csum[new_key]
    session = (csum - start_csum[run_id]).astype(np.int64)
    return g, new_key, session


def sessionize(ds, key_col: str, ts_col: str = "ts", gap_s: float = 1800.0,
               tiebreak_col: str | None = None, num_buckets: int = 32):
    """Append a ``session_id`` column: per key, rows sorted by (ts,
    tiebreak) belong to the same session while consecutive gaps stay <=
    gap_s.  Shuffle key = ``hash(key) % num_buckets`` — the group count is
    ``num_buckets``, not the key cardinality, and session ids are computed
    with one segmented-cumsum pass per bucket."""
    gap_us = int(gap_s * 1_000_000)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, _new_key, session = _segmented_sessions(g, key_col, ts_col, gap_us, tiebreak_col)
        g["session_id"] = session
        return g

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def sessions_per_key(ds, key_col: str, ts_col: str = "ts", gap_s: float = 1800.0,
                     tiebreak_col: str | None = None,
                     num_buckets: int = 32) -> pd.DataFrame:
    """(key, n_sessions): number of gap-delimited sessions per key."""
    gap_us = int(gap_s * 1_000_000)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g, new_key, session = _segmented_sessions(g, key_col, ts_col, gap_us, tiebreak_col)
        if not len(g):
            return pd.DataFrame({key_col: [], "n_sessions": pd.array([], dtype="int64")})
        run_end = np.concatenate([new_key[1:], [True]])
        return pd.DataFrame(
            {
                key_col: g[key_col].to_numpy()[new_key],
                "n_sessions": (session[run_end] + 1).astype("int64"),
            }
        )

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets).to_pandas()


_OHLC_COLS = ["window_start", "o_ts", "o_tb", "open", "c_ts", "c_tb",
              "close", "low", "high", "n", "sum_cents"]


def _ohlc_merge(df: pd.DataFrame, key_col: str) -> pd.DataFrame:
    """Associative OHLC partial merge: rows carry the per-(key, window)
    candidate open/close (with their (ts, tiebreak) provenance) plus
    low/high/n/sum — re-applying this rule over any grouping of partials
    yields the same result, so batch combiner and bucket fold share it."""
    grp = [key_col, "window_start"]
    asc = df.sort_values(grp + ["o_ts", "o_tb"], kind="mergesort")
    opens = asc.drop_duplicates(grp, keep="first")[grp + ["o_ts", "o_tb", "open"]]
    desc = df.sort_values(grp + ["c_ts", "c_tb"], kind="mergesort")
    closes = desc.drop_duplicates(grp, keep="last")[grp + ["c_ts", "c_tb", "close"]]
    agg = (df.groupby(grp, sort=False, dropna=False)
           .agg(low=("low", "min"), high=("high", "max"),
                n=("n", "sum"), sum_cents=("sum_cents", "sum"))
           .reset_index())
    out = agg.merge(opens, on=grp).merge(closes, on=grp)
    return out[[key_col] + _OHLC_COLS]


def resample_ohlc(ds, key_col: str, ts_col: str = "ts", val_col: str = "value",
                  tiebreak_col: str = "event_id", width_s: float = 3600.0,
                  num_buckets: int = 32, as_pandas: bool = True):
    """Time-series resample to fixed bars: per (key, tumbling window of
    ``width_s``) emit open / high / low / close of ``val_col`` plus row
    count and an exact integer-cents sum — the OHLC downsample every
    metrics/trading log pipeline runs.  Open/close are the values on the
    first/last row by (ts, tiebreak); ties are impossible when the
    tiebreak is unique, so the SQL twin pins the identical rule.  Rows
    with a null value, timestamp, key, or tiebreak are ignored (bars are
    per entity; the twin filters identically — pandas merge would drop
    NaN keys silently, and a null tiebreak would sort last in pandas ASC
    but NULLS LAST in SQL's DESC close pick, diverging on ties).

    ``window_start`` is int64 epoch microseconds (``floor(epoch_us / W) *
    W``), exactly reproducible in SQL.

    Scale shape: each batch reduces to ONE partial row per (key, window)
    present (the combiner), then one ``hash(key) % num_buckets`` shuffle
    of those tiny partials and a vectorized per-bucket fold — raw rows
    never shuffle, state per bucket is O(windows in bucket)."""
    width_us = int(width_s * 1_000_000)

    def part(t: pa.Table) -> pd.DataFrame:
        # dict.fromkeys: the same column may serve two roles (e.g. a
        # sequence number as both value and tiebreak) — a plain select
        # would build a duplicate-name schema
        t = t.select(list(dict.fromkeys([key_col, ts_col, val_col,
                                         tiebreak_col])))
        t = t.filter(pc.and_(pc.and_(pc.is_valid(t[val_col]),
                                     pc.is_valid(t[ts_col])),
                             pc.and_(pc.is_valid(t[key_col]),
                                     pc.is_valid(t[tiebreak_col]))))
        ts_us = np.asarray(t[ts_col].cast(pa.timestamp("us")).cast(pa.int64()))
        w = np.floor_divide(ts_us, width_us) * width_us
        val = np.asarray(t[val_col].cast(pa.float64()))
        cents = np.asarray(
            pc.round(pc.multiply(t[val_col].cast(pa.float64()), 100.0))
            .cast(pa.int64()))
        df = pd.DataFrame({
            key_col: t[key_col].to_pandas(),
            "window_start": w,
            "o_ts": ts_us, "o_tb": np.asarray(t[tiebreak_col]), "open": val,
            "c_ts": ts_us, "c_tb": np.asarray(t[tiebreak_col]), "close": val,
            "low": val, "high": val,
            "n": np.ones(len(w), np.int64), "sum_cents": cents,
        })
        return _ohlc_merge(df, key_col)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if not len(g):
            return pd.DataFrame({key_col: [], "window_start": pd.array([], dtype="int64"),
                                 "open": pd.array([], dtype="float64"),
                                 "high": pd.array([], dtype="float64"),
                                 "low": pd.array([], dtype="float64"),
                                 "close": pd.array([], dtype="float64"),
                                 "n": pd.array([], dtype="int64"),
                                 "sum_cents": pd.array([], dtype="int64")})
        out = _ohlc_merge(g, key_col)
        out = out[[key_col, "window_start", "open", "high", "low", "close",
                   "n", "sum_cents"]]
        out["n"] = out["n"].astype("int64")
        out["sum_cents"] = out["sum_cents"].astype("int64")
        return out

    out = grouped_apply(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        key_col, per_bucket, num_buckets=num_buckets)
    return out.to_pandas() if as_pandas else out


def resample_ohlc_sql(table: str, key_col: str, ts_col: str, val_col: str,
                      tiebreak_col: str, width_s: float) -> str:
    """DuckDB twin of :func:`resample_ohlc` (identical window arithmetic,
    deterministic open/close via (ts, tiebreak) row_number)."""
    width_us = int(width_s * 1_000_000)
    return (
        f"WITH w AS (SELECT {key_col}, CAST(floor(epoch_us({ts_col}) / {width_us}) "
        f"AS BIGINT) * {width_us} AS window_start, {ts_col} AS ts, "
        f"{tiebreak_col} AS tb, CAST({val_col} AS DOUBLE) AS v, "
        f"CAST(round({val_col} * 100) AS BIGINT) AS cents "
        f"FROM {table} WHERE {val_col} IS NOT NULL AND {ts_col} IS NOT NULL "
        f"AND {key_col} IS NOT NULL AND {tiebreak_col} IS NOT NULL), "
        f"o AS (SELECT {key_col}, window_start, v AS open FROM ("
        f"SELECT *, row_number() OVER (PARTITION BY {key_col}, window_start "
        f"ORDER BY ts ASC, tb ASC) AS rn FROM w) WHERE rn = 1), "
        f"c AS (SELECT {key_col}, window_start, v AS close FROM ("
        f"SELECT *, row_number() OVER (PARTITION BY {key_col}, window_start "
        f"ORDER BY ts DESC, tb DESC) AS rn FROM w) WHERE rn = 1), "
        f"a AS (SELECT {key_col}, window_start, min(v) AS low, max(v) AS high, "
        f"count(*) AS n, CAST(sum(CAST(cents AS HUGEINT)) AS BIGINT) AS sum_cents "
        f"FROM w GROUP BY {key_col}, window_start) "
        f"SELECT a.{key_col}, a.window_start, o.open, a.high, a.low, c.close, "
        f"a.n, a.sum_cents FROM a "
        f"JOIN o ON a.{key_col} = o.{key_col} AND a.window_start = o.window_start "
        f"JOIN c ON a.{key_col} = c.{key_col} AND a.window_start = c.window_start"
    )


def salted_histogram(ds, cols, salt_buckets: int = 16, as_pandas: bool = True):
    """Two-phase salted exact counts for HOT keys whose raw rows would
    overwhelm a single reducer even after per-batch partials: phase 1
    groups by (cols..., salt) where salt spreads each key's partial rows
    over `salt_buckets` reducers; phase 2 folds the salted partials.

    Equivalent to :func:`histogram`; use when a single key's *partial* rows
    (one per batch) are themselves enormous — i.e. millions of batches."""
    if isinstance(cols, str):
        cols = [cols]
    from ray.data.aggregate import Sum

    def add_salt(t: pa.Table) -> pa.Table:
        g = t.group_by(cols).aggregate([([], "count_all")])
        g = g.rename_columns(cols + ["partial_count"])
        salt = np.arange(len(g), dtype=np.int64) % salt_buckets
        return g.append_column("__salt", pa.array(salt))

    salted = (
        ds.map_batches(add_salt, batch_format="pyarrow", zero_copy_batch=True, batch_size=131072)
        .groupby(cols + ["__salt"])
        .aggregate(Sum("partial_count", alias_name="n1"))
    )
    out = salted.groupby(cols).aggregate(Sum("n1", alias_name="n"))
    if not as_pandas:
        return out
    return out.to_pandas().sort_values(cols).reset_index(drop=True)


def calendar_window(ds, ts_col: str = "ts", unit: str = "month",
                    key_cols=None, as_pandas: bool = True):
    """Counts per CALENDAR window (week/month/quarter/year — variable-
    width buckets a fixed-seconds tumbling window cannot express),
    optionally crossed with key columns.  Arrow ``floor_temporal`` and
    DuckDB ``date_trunc`` share the same calendar rules (weeks floor to
    Monday), so the twin is exact.  Rides the partial pre-agg histogram:
    one derived column, no extra shuffle."""
    units = ("day", "week", "month", "quarter", "year")
    if unit not in units:
        raise ValueError(f"unit must be one of {units}, got {unit!r}")
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols or [])

    def derive(t: pa.Table) -> pa.Table:
        w = pc.floor_temporal(t[ts_col], unit=unit)
        return t.append_column("win_start", pc.cast(w, pa.timestamp("us")))

    from logray.stages.aggregate import histogram

    ds2 = ds.map_batches(derive, batch_format="pyarrow", zero_copy_batch=True,
                         batch_size=None)
    return histogram(ds2, ["win_start"] + key_cols, as_pandas=as_pandas)


def calendar_window_sql(table: str, ts_col: str = "ts",
                        unit: str = "month", key_cols=None) -> str:
    """DuckDB twin of :func:`calendar_window`."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols or [])
    keys = ("".join(f", {k}" for k in key_cols))
    return (
        f"SELECT CAST(date_trunc('{unit}', {ts_col}) AS TIMESTAMP) "
        f"AS win_start{keys}, count(*) AS n FROM {table} "
        f"GROUP BY win_start{keys}"
    )
