"""Corpus snapshot diff: added / removed / changed documents between two
snapshots of the same table (continuous-crawl corpus management — "what
did this month's crawl change?").

Scale plan: both sides project to an ``(id, texthash128, side)``
fingerprint table and meet in ONE bucket shuffle; the text never leaves
its source blocks.  One exchange, no cap, exact for any delta size.

Why there is no second plan: a "narrow" plan that shipped only
fixed-width ``(idhash128, texthash128, side)`` and recovered real ids by
broadcasting the delta-sized verdict table back against a single-column
id scan of each side was A/B-measured at 6.7 M rows (3.27 M docs/side,
24-byte string ids, 32 CPUs, same host phase): 23-25 s against
16.7-17.6 s for this plan, because the two extra id scans cost more
than the smaller exchange saved.  It also needed a broadcast cap that a
wholesale-different snapshot pair tripped.

Contract: ids are unique WITHIN each snapshot (the fold raises loudly on
violations — a silent pick-one would fabricate verdicts).  ``changed``
relies on 128-bit text-hash inequality, a ~2^-128 per pair event, same
class as the dedup index guard.

Reference analog: the viewer re-opens a grown log file and re-derives
its line index (/root/reference/src/file_parsing/log_parser_interface.cpp
reload path); a corpus engine needs the delta itself as a first-class
result.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from logray.functions.fingerprint import content_hash128

# folded into the fingerprint where the value IS NULL so null != "" (the
# empty string hashes to the bare FNV offsets)
_NULL_SALT1 = np.uint64(0xD6E8FEB86659FD93)
_NULL_SALT2 = np.uint64(0xA5A3564E1F8C7B29)


def _hash128_with_null(col) -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) of a column's canonical string form; nulls salted so
    they collide only with other nulls."""
    if not pa.types.is_string(col.type) and not pa.types.is_large_string(col.type):
        col = pc.cast(col, pa.string())
    h1, h2 = content_hash128(col)
    isnull = ~np.asarray(pc.is_valid(col).to_numpy(zero_copy_only=False),
                         np.bool_)
    return (np.where(isnull, h1 ^ _NULL_SALT1, h1),
            np.where(isnull, h2 ^ _NULL_SALT2, h2))


def _fingerprints(ds, id_col: str, text_col: str, side: int):
    """One snapshot's exchange rows: (id, h1, h2, side)."""

    def fp(t: pa.Table) -> pa.Table:
        h1, h2 = _hash128_with_null(t[text_col])
        return pa.table({id_col: t[id_col], "h1": pa.array(h1),
                         "h2": pa.array(h2),
                         "side": pa.array(np.full(t.num_rows, side, np.int8))})

    return ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True)


def _verdict_fold(id_col: str, include_unchanged: bool):
    """Per-bucket Arrow group_by verdict: added/removed/changed[/unchanged]."""

    def fold(t: pa.Table) -> pa.Table:
        agg = t.group_by([id_col]).aggregate([
            ("side", "count"), ("side", "min"), ("side", "max"),
            ("h1", "min"), ("h1", "max"), ("h2", "min"), ("h2", "max")])
        cnt = agg["side_count"].to_numpy(zero_copy_only=False)
        smin = agg["side_min"].to_numpy(zero_copy_only=False)
        smax = agg["side_max"].to_numpy(zero_copy_only=False)
        bad = (cnt > 2) | ((cnt == 2) & (smin == smax))
        if bad.any():
            ex = agg[id_col].filter(pa.array(bad))[:3].to_pylist()
            raise ValueError(
                f"snapshot_diff: duplicate {id_col} within one snapshot "
                f"(near {id_col}={ex}); run exact_dedup first — ids "
                "must be snapshot-unique")
        same = ((agg["h1_min"].to_numpy(zero_copy_only=False)
                 == agg["h1_max"].to_numpy(zero_copy_only=False))
                & (agg["h2_min"].to_numpy(zero_copy_only=False)
                   == agg["h2_max"].to_numpy(zero_copy_only=False)))
        status = np.where(cnt == 1,
                          np.where(smin == 0, "removed", "added"),
                          np.where(same, "unchanged", "changed"))
        out = agg.select([id_col]).append_column(
            "status", pa.array(status, pa.string()))
        if not include_unchanged:
            out = out.filter(pc.not_equal(out["status"], "unchanged"))
        return out

    return fold


def snapshot_diff(ds_old, ds_new, id_col: str = "doc_id",
                  text_col: str = "text", num_buckets: int = 32,
                  include_unchanged: bool = False):
    """``(id, status)`` with status in {'added','removed','changed'}
    (plus 'unchanged' when ``include_unchanged``).  Exact SQL twin:
    :func:`snapshot_diff_sql` (FULL OUTER JOIN + IS DISTINCT FROM)."""
    from logray.stages.bucketing import grouped_apply

    both = _fingerprints(ds_old, id_col, text_col, 0).union(
        _fingerprints(ds_new, id_col, text_col, 1))
    return grouped_apply(
        both, id_col, _verdict_fold(id_col, include_unchanged),
        num_buckets=num_buckets, batch_format="pyarrow")


def snapshot_diff_sql(old_table: str, new_table: str,
                      id_col: str = "doc_id", text_col: str = "text",
                      include_unchanged: bool = False) -> str:
    """DuckDB oracle for :func:`snapshot_diff` — compares the TEXT
    itself (IS DISTINCT FROM), so it also proves the fingerprint path
    collision-free on the test corpus."""
    where = "" if include_unchanged else """
        WHERE o.{i} IS NULL OR n.{i} IS NULL
              OR o.{t} IS DISTINCT FROM n.{t}""".format(i=id_col, t=text_col)
    return f"""
        SELECT COALESCE(o.{id_col}, n.{id_col}) AS {id_col},
               CASE WHEN o.{id_col} IS NULL THEN 'added'
                    WHEN n.{id_col} IS NULL THEN 'removed'
                    WHEN o.{text_col} IS DISTINCT FROM n.{text_col}
                         THEN 'changed'
                    ELSE 'unchanged' END AS status
        FROM {old_table} o FULL OUTER JOIN {new_table} n
             ON o.{id_col} = n.{id_col}
        {where}
        ORDER BY {id_col}
    """
