"""Corpus-global line-level deduplication (the C4 / RefinedWeb "remove
repeated lines" pass): every line that occurs more than once ACROSS THE
WHOLE CORPUS is kept only at its first occurrence (min ``(doc_id,
line_idx)``), then documents are reassembled from their surviving lines.
Boilerplate (nav bars, cookie banners, license footers) disappears from
every copy but one; lines shorter than ``min_len`` are exempt (blank
lines and stray punctuation would otherwise dedup degenerately).

Two physical plans with IDENTICAL semantics; ``mode="auto"`` picks per
corpus using a cheap contested-hash pre-pass:

- **dense plan** (duplication-heavy corpora): two full bucket shuffles —
  (1) batch-local keep-first combiner, then ``hash(line) % B`` winner
  selection; (2) ``hash(doc) % B`` reassembly (mergesort + run-boundary
  ListArray + ``binary_join``; no per-doc Python).
- **sparse plan** (opt-in): a hash-count pre-pass finds CONTESTED hashes
  (count > 1).  The winner shuffle then carries only contested lines,
  losers name the AFFECTED documents, and every unaffected document
  passes straight through with its original text — no line of it ever
  shuffles; only affected docs' lines (plus loser tombstones) take the
  reassembly shuffle.  Hash collisions only ever ADD a line to the
  contested set — winner selection compares exact line text, so
  correctness never rests on the hash.

**Measured verdict (this box, Ray 2.49, 32 CPUs)**: dense wins even in
the sparse plan's target regime — 13.4 s vs 29.9 s on a 200k-doc /
3M-line corpus with 10% of docs sharing one boilerplate line, and
14.6 s vs 27.4 s on the 3.3M-single-line bench corpus.  The pre-pass
must still shuffle one (hash, count) row per distinct line per batch,
and Ray's shuffle cost here is ROW-count-bound, not byte-bound, so
8-byte hash rows cost as much as compact text rows while the sparse
plan pays two extra read+explode passes.  The sparse plan becomes the
right trade only when line payloads are large (KB+ — byte volume then
dominates the shuffle) or the reassembly shuffle spills; hence
``mode="dense"`` is the DEFAULT and "sparse"/"auto" are opt-in.  The
sparse plan broadcasts the contested-hash array and the affected-doc id
set (each bounded by the DUPLICATED volume, not the corpus); when either
exceeds ``sparse_max_broadcast`` or the contested fraction exceeds
``dense_threshold``, "auto" falls back to dense.

Reference parity: generalizes the reference's duplicate-line collapse in
filtered views (``src/file_parsing/filtered_file_reader.cpp`` keeps one
entry per matched line) to corpus scope.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logray.functions.fingerprint import content_hash
from logray.stages.bucketing import (BUCKET_COL, bucket_exchange, bucket_of,
                                     grouped_apply, isin_sorted, run_starts)

__all__ = ["dedup_lines", "dedup_lines_sql"]


def _explode_lines_fn(id_col: str, text_col: str, sep: str):
    def to_lines(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[text_col]))
        txt = t[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        lines = pc.split_pattern(txt, pattern=sep)
        flat = pc.list_flatten(lines)
        parent = pc.list_parent_indices(lines)
        lengths = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
        lengths = np.nan_to_num(lengths, nan=0).astype(np.int64)
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        line_idx = np.arange(len(flat), dtype=np.int64) - starts + 1
        return pa.table({
            id_col: t[id_col].take(parent),
            "line_idx": pa.array(line_idx),
            "line": flat,
        })

    return to_lines


def _rejoin_fn(id_col: str, text_col: str, sep: str):
    def rejoin(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([id_col, "line_idx"], kind="mergesort").reset_index(drop=True)
        n = len(g)
        starts = np.flatnonzero(run_starts(g[id_col].to_numpy()))
        offsets = np.append(starts, n).astype(np.int64)
        lst = pa.ListArray.from_arrays(
            pa.array(offsets), pa.Array.from_pandas(g["line"]).cast(pa.string())
        )
        return pa.table({
            id_col: pa.Array.from_pandas(g[id_col].iloc[starts]),
            text_col: pc.binary_join(lst, sep),
            "n_lines": pa.array(np.diff(offsets)),
        })

    return rejoin


def _dedup_dense(lines, id_col: str, text_col: str, min_len: int, sep: str,
                 num_buckets: int):
    """Original two-full-shuffle plan (see module docstring)."""

    def combine_and_tag(t: pa.Table) -> pa.Table:
        long = pc.greater_equal(pc.utf8_length(t["line"]), min_len)
        cand, rest = t.filter(long), t.filter(pc.invert(long))
        if cand.num_rows:
            # batch-local min (doc, idx) per line: sort once, keep run heads
            cand = cand.sort_by([("line", "ascending"), (id_col, "ascending"),
                                 ("line_idx", "ascending")])
            keep = run_starts(cand["line"].to_numpy(zero_copy_only=False))
            cand = cand.filter(pa.array(keep))
        cand = cand.append_column(
            "__dd", pa.array(np.ones(cand.num_rows, np.bool_)))
        rest = rest.append_column(
            "__dd", pa.array(np.zeros(rest.num_rows, np.bool_)))
        t = pa.concat_tables([cand, rest])
        b = bucket_of(t["line"], num_buckets)
        return t.append_column(BUCKET_COL, pa.array(b))

    def keep_winner(g: pd.DataFrame) -> pd.DataFrame:
        cand = g[g["__dd"]]
        kept = cand.sort_values(
            [id_col, "line_idx"], kind="mergesort"
        ).drop_duplicates("line", keep="first")
        return pd.concat([kept, g[~g["__dd"]]]).drop(columns="__dd")

    survivors = bucket_exchange(
        lines.map_batches(combine_and_tag, batch_format="pyarrow",
                          zero_copy_batch=True),
        keep_winner)
    return grouped_apply(survivors, id_col, _rejoin_fn(id_col, text_col, sep),
                         num_buckets=num_buckets)


def _long_line_hashes(t: pa.Table, min_len: int) -> np.ndarray:
    """uint64 content hash per row; 0 is never tested for short lines
    (callers mask), so no sentinel ambiguity matters."""
    h = content_hash(t["line"])
    return h


def _dedup_sparse(ds, lines, contested: np.ndarray, id_col: str,
                  text_col: str, min_len: int, sep: str, num_buckets: int,
                  sparse_max_broadcast: int):
    """Contested-only plan.  ``contested`` is the SORTED uint64 array of
    line hashes occurring more than once.  Returns None when the
    affected-doc set outgrows the broadcast budget (caller falls back)."""
    import ray
    import ray.data as rd

    cref = ray.put(contested)
    cache: dict = {}

    def _contested_arr():
        arr = cache.get("c")
        if arr is None:
            arr = ray.get(cref) if isinstance(cref, ray.ObjectRef) else cref
            cache["c"] = arr
        return arr

    def tag_contested(t: pa.Table) -> pa.Table:
        arr = _contested_arr()
        long = np.asarray(
            pc.greater_equal(pc.utf8_length(t["line"]), min_len))
        h = _long_line_hashes(t, min_len)
        t = t.filter(pa.array(long & isin_sorted(h, arr)))
        if t.num_rows == 0:
            return t.append_column(BUCKET_COL, pa.array([], pa.int64()))
        b = bucket_of(t["line"], num_buckets)
        return t.append_column(BUCKET_COL, pa.array(b))

    def winner_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([id_col, "line_idx"], kind="mergesort")
        kept = ~g.duplicated("line", keep="first")
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "line_idx": g["line_idx"].to_numpy(),
            "__kept": kept.to_numpy(),
        })

    verdicts = bucket_exchange(
        lines.map_batches(tag_contested, batch_format="pyarrow",
                          zero_copy_batch=True),
        winner_bucket).materialize()

    losers = verdicts.filter(expr="__kept == False")
    # unique() yields None on an empty dataset (no contested losers)
    affected = losers.unique(id_col) or []
    if len(affected) > sparse_max_broadcast:
        return None
    aref = ray.put(np.sort(np.asarray(affected)))
    acache: dict = {}

    def _affected_arr():
        arr = acache.get("a")
        if arr is None:
            arr = ray.get(aref) if isinstance(aref, ray.ObjectRef) else aref
            acache["a"] = arr
        return arr

    def pass_unaffected(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[text_col]))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(~isin_sorted(ids, _affected_arr())))
        txt = t[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        n_lines = pc.list_value_length(pc.split_pattern(txt, pattern=sep))
        return pa.table({
            id_col: t[id_col],
            text_col: txt,
            "n_lines": pc.cast(n_lines, pa.int64()),
        })

    untouched = ds.map_batches(pass_unaffected, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=None)

    def affected_lines(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        t = t.filter(pa.array(isin_sorted(ids, _affected_arr())))
        return t.append_column("__dead", pa.array(
            np.zeros(t.num_rows, np.bool_)))

    alines = lines.map_batches(affected_lines, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=None)

    def tombstones(t: pa.Table) -> pa.Table:
        return pa.table({
            id_col: t[id_col],
            "line_idx": t["line_idx"],
            "line": pa.array([""] * t.num_rows, pa.string()),
            "__dead": pa.array(np.ones(t.num_rows, np.bool_)),
        })

    tombs = losers.map_batches(tombstones, batch_format="pyarrow",
                               batch_size=None)

    def drop_dead_and_rejoin(g: pd.DataFrame) -> pa.Table:
        dead = g[g["__dead"]]
        live = g[~g["__dead"]]
        if len(dead):
            key_live = pd.MultiIndex.from_arrays(
                [live[id_col], live["line_idx"]])
            key_dead = pd.MultiIndex.from_arrays(
                [dead[id_col], dead["line_idx"]])
            live = live[~key_live.isin(key_dead)]
        live = live.drop(columns="__dead")
        return _rejoin_fn(id_col, text_col, sep)(live)

    reassembled = grouped_apply(alines.union(tombs), id_col,
                                drop_dead_and_rejoin, num_buckets=num_buckets)
    return untouched.union(reassembled)


def dedup_lines(ds, id_col: str = "doc_id", text_col: str = "text",
                min_len: int = 1, sep: str = "\n", num_buckets: int = 64,
                mode: str = "dense", dense_threshold: float = 0.3,
                sparse_max_broadcast: int = 5_000_000):
    """Corpus-global keep-first line dedup; returns one row per surviving
    document: ``(id_col, text_col, n_lines)`` with the document's
    remaining lines rejoined by ``sep`` in original order.  Documents
    whose every line was removed (or whose text was null) are absent,
    matching the SQL twin's ``GROUP BY`` over surviving rows.

    ``min_len``: lines with ``length < min_len`` are always kept (the SQL
    twin mirrors this exactly); default 1 exempts blank lines.
    ``mode``: "dense" (default — measured fastest at these scales),
    "sparse", or "auto" (contested-fraction pre-pass picks; see module
    docstring for the measured trade)."""
    lines = ds.map_batches(
        _explode_lines_fn(id_col, text_col, sep),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )
    if mode == "dense":
        return _dedup_dense(lines, id_col, text_col, min_len, sep, num_buckets)

    # contested-hash pre-pass: only (hash, count) partials shuffle
    def hash_part(t: pa.Table) -> pd.DataFrame:
        long = np.asarray(pc.greater_equal(pc.utf8_length(t["line"]), min_len))
        h = _long_line_hashes(t, min_len)[long]
        u, c = np.unique(h, return_counts=True)
        return pd.DataFrame({
            "h": u.view(np.int64),
            "c": c.astype(np.int64),
            BUCKET_COL: bucket_of(u.view(np.int64), 256),
        })

    def contested_bucket(g: pd.DataFrame) -> pd.DataFrame:
        s = g.groupby("h", sort=False)["c"].sum()
        out = s[s > 1]
        return pd.DataFrame({
            "h": np.append(out.index.to_numpy(), 0).astype(np.int64),
            "cnt": np.append(out.to_numpy(), s.sum()).astype(np.int64),
            "is_total": np.append(np.zeros(len(out), np.bool_), True),
        })

    stats = bucket_exchange(
        lines.map_batches(hash_part, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None),
        contested_bucket).to_pandas()
    total_long = int(stats.loc[stats.is_total, "cnt"].sum())
    cdf = stats[~stats.is_total]
    contested_rows = int(cdf["cnt"].sum())
    frac = contested_rows / total_long if total_long else 0.0

    use_sparse = mode == "sparse" or (
        mode == "auto"
        and frac <= dense_threshold
        and len(cdf) <= sparse_max_broadcast
    )
    if use_sparse:
        contested = np.sort(cdf["h"].to_numpy().view(np.uint64))
        out = _dedup_sparse(ds, lines, contested, id_col, text_col, min_len,
                            sep, num_buckets, sparse_max_broadcast)
        if out is not None:
            return out
    return _dedup_dense(lines, id_col, text_col, min_len, sep, num_buckets)


def dedup_lines_sql(table: str, id_col: str = "doc_id",
                    text_col: str = "text", min_len: int = 1,
                    sep_sql: str = "chr(10)") -> str:
    """DuckDB twin of :func:`dedup_lines` (identical keep-first rule and
    short-line exemption; both physical plans produce this result)."""
    return f"""
        WITH lines AS (
            SELECT {id_col},
                   unnest(string_split({text_col}, {sep_sql})) AS line,
                   unnest(generate_series(
                       1, len(string_split({text_col}, {sep_sql})))) AS line_idx
            FROM {table}
        ), ranked AS (
            SELECT {id_col}, line_idx, line,
                   CASE WHEN length(line) >= {min_len}
                        THEN row_number() OVER (
                            PARTITION BY line ORDER BY {id_col}, line_idx)
                        ELSE 1 END AS rn
            FROM lines
        )
        SELECT {id_col},
               string_agg(line, {sep_sql} ORDER BY line_idx) AS {text_col},
               CAST(count(*) AS BIGINT) AS n_lines
        FROM ranked WHERE rn = 1 GROUP BY {id_col}
    """
