"""Corpus snapshot diff: added / removed / changed documents between two
snapshots of the same table (continuous-crawl corpus management — "what
did this month's crawl change?").

Scale plan: both sides project to a narrow fingerprint table and meet in
ONE bucket shuffle; the text never leaves its source blocks.  Two plans,
A/B-measured at 6.7 M rows (3.27 M docs/side, 24-byte string ids,
32 CPUs, same host phase):

- ``mode="wide"`` (default): ship ``(id, texthash128, side)`` through
  the exchange — 16.7-17.6 s end to end.  One exchange, no cap, exact
  for any delta size.
- ``mode="narrow"``: ship only fixed-width ``(idhash128, texthash128,
  side)`` (33 bytes/doc; same two-independent-FNV collision guard as
  the persistent dedup index), then recover real ids by joining the
  delta-sized verdict table back against a single-column id scan of
  each side — 23-25 s HERE, because the two extra id scans cost more
  than the exchange saves when the whole shuffle stays on one box.
  On a multi-node cluster the trade flips when ids are fat (URL-length)
  or cross-node bandwidth is the bottleneck: the exchange is the only
  all-to-all term, and narrow halves-or-better its bytes while the
  id scans stay embarrassingly parallel.  Capped by ``max_broadcast``
  (a wholesale-different snapshot pair should use wide).

``include_unchanged`` forces the wide plan — the output itself is
corpus-sized, so a broadcast map-back cannot apply.

Contract: ids are unique WITHIN each snapshot (the fold raises loudly on
violations — a silent pick-one would fabricate verdicts).  ``changed``
relies on 128-bit text-hash inequality; narrow mode additionally relies
on 128-bit id-hash uniqueness across ids (a collision raises the
duplicate-id error rather than corrupting output).  Both are ~2^-128
per pair events, same class as the dedup index guard.

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


def _fingerprints(ds, id_col: str, text_col: str, side: int,
                  narrow: bool):
    """One snapshot's exchange rows: narrow = (ih1, ih2, h1, h2, side),
    wide = (id, h1, h2, side)."""

    def fp(t: pa.Table) -> pa.Table:
        h1, h2 = _hash128_with_null(t[text_col])
        cols = {"h1": pa.array(h1), "h2": pa.array(h2),
                "side": pa.array(np.full(t.num_rows, side, np.int8))}
        if narrow:
            ih1, ih2 = _hash128_with_null(t[id_col])
            return pa.table({"ih1": pa.array(ih1), "ih2": pa.array(ih2),
                             **cols})
        return pa.table({id_col: t[id_col], **cols})

    return ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True)


def _verdict_fold(key_cols: list[str], id_col: str,
                  include_unchanged: bool):
    """Per-bucket Arrow group_by verdict: added/removed/changed[/unchanged]."""

    def fold(t: pa.Table) -> pa.Table:
        agg = t.group_by(key_cols).aggregate([
            ("side", "count"), ("side", "min"), ("side", "max"),
            ("h1", "min"), ("h1", "max"), ("h2", "min"), ("h2", "max")])
        cnt = agg["side_count"].to_numpy(zero_copy_only=False)
        smin = agg["side_min"].to_numpy(zero_copy_only=False)
        smax = agg["side_max"].to_numpy(zero_copy_only=False)
        bad = (cnt > 2) | ((cnt == 2) & (smin == smax))
        if bad.any():
            ex = agg[key_cols[0]].filter(pa.array(bad))[:3].to_pylist()
            raise ValueError(
                f"snapshot_diff: duplicate {id_col} within one snapshot "
                f"(near {key_cols[0]}={ex}); run exact_dedup first — ids "
                "must be snapshot-unique")
        same = ((agg["h1_min"].to_numpy(zero_copy_only=False)
                 == agg["h1_max"].to_numpy(zero_copy_only=False))
                & (agg["h2_min"].to_numpy(zero_copy_only=False)
                   == agg["h2_max"].to_numpy(zero_copy_only=False)))
        status = np.where(cnt == 1,
                          np.where(smin == 0, "removed", "added"),
                          np.where(same, "unchanged", "changed"))
        out = agg.select(key_cols).append_column(
            "status", pa.array(status, pa.string()))
        if not include_unchanged:
            out = out.filter(pc.not_equal(out["status"], "unchanged"))
        return out

    return fold


def _map_back(ds, vt: pa.Table, id_col: str):
    """Join one side's (id, idhash128) rows against its share of the
    verdict table, ``ray.put`` once and read zero-copy per batch."""
    import ray

    ref = ray.put(vt)

    def join(t: pa.Table) -> pa.Table:
        ih1, ih2 = _hash128_with_null(t[id_col])
        probe = pa.table({id_col: t[id_col],
                          "ih1": pa.array(ih1), "ih2": pa.array(ih2)})
        j = probe.join(ray.get(ref), keys=["ih1", "ih2"], join_type="inner")
        return j.select([id_col, "status"])

    return ds.select_columns([id_col]).map_batches(
        join, batch_format="pyarrow", zero_copy_batch=True)


def snapshot_diff(ds_old, ds_new, id_col: str = "doc_id",
                  text_col: str = "text", num_buckets: int = 32,
                  include_unchanged: bool = False, mode: str = "wide",
                  max_broadcast: int = 8_000_000):
    """``(id, status)`` with status in {'added','removed','changed'}
    (plus 'unchanged' when ``include_unchanged``, which forces the wide
    plan — the output itself is corpus-sized).  Exact SQL twin:
    :func:`snapshot_diff_sql` (FULL OUTER JOIN + IS DISTINCT FROM)."""
    import ray

    from logray.stages.bucketing import grouped_apply

    if mode not in ("narrow", "wide"):
        raise ValueError(f"unknown mode {mode!r}")
    if include_unchanged:
        mode = "wide"
    narrow = mode == "narrow"

    both = _fingerprints(ds_old, id_col, text_col, 0, narrow).union(
        _fingerprints(ds_new, id_col, text_col, 1, narrow))
    key_cols = ["ih1", "ih2"] if narrow else [id_col]
    verdicts = grouped_apply(
        both, key_cols[0],
        _verdict_fold(key_cols, id_col, include_unchanged),
        num_buckets=num_buckets, batch_format="pyarrow")
    if not narrow:
        return verdicts

    # recover real ids: broadcast the delta-sized verdict table and join
    # it against a single-column id scan of each side (removed ids only
    # exist on old; added/changed are emitted from new)
    vd = verdicts.materialize()
    n_delta = vd.count()
    if n_delta > max_broadcast:
        raise ValueError(
            f"snapshot_diff: delta has {n_delta} rows > max_broadcast="
            f"{max_broadcast}; the snapshots differ wholesale — use "
            "mode='wide' (ships ids through the exchange instead)")
    # empty buckets come back as schema-less zero-column blocks
    tabs = [t for t in (ray.get(r) for r in vd.to_arrow_refs())
            if t.num_columns]
    if tabs:
        vt = pa.concat_tables(tabs)
    else:
        vt = pa.table({"ih1": pa.array([], pa.uint64()),
                       "ih2": pa.array([], pa.uint64()),
                       "status": pa.array([], pa.string())})
    old_ids = _map_back(ds_old, vt.filter(pc.equal(vt["status"], "removed")),
                        id_col)
    new_ids = _map_back(ds_new, vt.filter(pc.is_in(
        vt["status"], value_set=pa.array(["added", "changed"]))), id_col)
    return old_ids.union(new_ids)


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
