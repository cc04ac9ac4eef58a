"""Incremental (cross-snapshot) exact dedup: filter a NEW corpus
snapshot against a persistent hash index built from everything already
ingested — the continuous-crawl flow (CommonCrawl-style pipelines dedup
each monthly snapshot against all previous months without re-reading
them).

The index is a directory of hive-partitioned Parquet
(``__s=<h1 % num_shards>/…``) holding 128-bit text fingerprints
(:func:`logray.functions.fingerprint.content_hash128` — two
independent-constant FNV hashes in one byte pass).  Properties:

- **mergeable / appendable**: :func:`build_hash_index` into the same
  directory is additive (Ray's writer never overwrites existing files);
  duplicate fingerprints across runs are harmless to membership.
- **collision-guarded without keeping text**: membership compares BOTH
  hashes, so a false drop needs a 128-bit double collision (~1e-17 over
  1e11 x 1e11 cross pairs) — the same guard budget
  ``logray.functions.spandedup`` uses.  The exact-equality guard of
  :func:`logray.functions.dedup.exact_dedup` is impossible here by
  design: the index must stay orders of magnitude smaller than the
  corpus it summarizes.
- **prunable**: the hive layout means a shard's membership pass reads
  ONLY ``__s=k`` files (path-level pruning; a row filter on a
  hash-random column defeats row-group statistics).

Two membership plans (pick by index size, both streaming over the new
snapshot):

- ``mode="broadcast"`` (default): load the whole index once, sort, ship
  via ``ray.put``; each scoring task binary-searches per batch.  Zero
  shuffles.  16 bytes/entry: fine to ~1e8 entries (1.6 GB), raise past
  ``max_broadcast`` refused loudly.
- ``mode="sharded"``: ONE hash-bucket shuffle of the narrow
  ``(id, h1, h2)`` projection; each bucket loads only its own index
  shard and binary-searches.  Scales to indexes that cannot be
  broadcast; the duplicate-ID set that comes back is bounded by the new
  snapshot's duplicate fraction.

Reference parity: generalizes the reference's skip-seen-lines pass
(``src/file_parsing/filtered_file_reader.cpp`` keeps the first match
per scan) across SNAPSHOTS — state persisted between runs instead of
held in one process.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from logray.functions.fingerprint import content_hash128
from logray.functions.indexbase import (META_NAME, read_meta, shard_files,
                                        total_index_rows, write_meta)
from logray.stages.bucketing import BUCKET_COL, bucket_exchange

__all__ = ["build_hash_index", "dedup_against_index", "index_verdicts"]

DEFAULT_MAX_BROADCAST = 100_000_000
_HASH_VERSION = 1  # bump if content_hash128's constants ever change


def _read_meta(index_dir: str) -> int:
    """The index's shard count (refuses non-index dirs, see
    :func:`logray.functions.indexbase.read_meta`)."""
    meta = read_meta(index_dir, "fingerprint index")
    if meta.get("hash_version") != _HASH_VERSION:
        raise ValueError(
            f"index {index_dir!r} was built with hash_version="
            f"{meta.get('hash_version')}; this engine is {_HASH_VERSION}")
    return int(meta["num_shards"])


def _unique_pairs(h1: np.ndarray, h2: np.ndarray):
    """Lexicographically sorted distinct (h1, h2) pairs."""
    if not len(h1):
        return h1, h2
    order = np.lexsort((h2, h1))
    h1, h2 = h1[order], h2[order]
    keep = np.ones(len(h1), bool)
    keep[1:] = (h1[1:] != h1[:-1]) | (h2[1:] != h2[:-1])
    return h1[keep], h2[keep]


def build_hash_index(ds, out_dir: str, text_col: str = "text",
                     num_shards: int = 64) -> None:
    """One streaming pass: per-batch distinct fingerprints of
    ``text_col`` written hive-partitioned by ``__s = h1 % num_shards``.
    Null texts are skipped (SQL ``NOT IN`` never matches NULL).  Calling
    again with more data into the same ``out_dir`` appends; the shard
    count is persisted in ``index.json`` and an append with a different
    ``num_shards`` refuses (it would corrupt the layout silently)."""
    if os.path.exists(os.path.join(out_dir, META_NAME)):
        existing = _read_meta(out_dir)
        if existing != num_shards:
            raise ValueError(
                f"index {out_dir!r} was built with num_shards={existing}; "
                f"appending with num_shards={num_shards} would corrupt it")

    def part(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[text_col]))
        h1, h2 = content_hash128(t[text_col])
        h1, h2 = _unique_pairs(h1, h2)
        return pa.table({
            "h1": pa.array(h1), "h2": pa.array(h2),
            "__s": pa.array((h1 % np.uint64(num_shards)).astype(np.int64)),
        })

    (ds.select_columns([text_col])
       .map_batches(part, batch_format="pyarrow", zero_copy_batch=True,
                    batch_size=None)
       .write_parquet(out_dir, partition_cols=["__s"]))
    write_meta(out_dir, {"num_shards": num_shards,
                         "hash_version": _HASH_VERSION})


def _load_sorted(files: list[str]):
    if not files:
        z = np.zeros(0, np.uint64)
        return z, z
    t = pq.read_table(files, columns=["h1", "h2"])
    return _unique_pairs(t["h1"].to_numpy(zero_copy_only=False),
                         t["h2"].to_numpy(zero_copy_only=False))


def _member128(q1, q2, idx1, idx2) -> np.ndarray:
    """Vectorized (q1, q2) membership in the sorted fingerprint pairs.
    Runs of equal h1 (distinct texts colliding on the first hash — an
    ~n^2/2^64 population) fall back to a per-row scan of the run."""
    out = np.zeros(len(q1), bool)
    if not len(idx1) or not len(q1):
        return out
    lo = np.searchsorted(idx1, q1, side="left")
    hi = np.searchsorted(idx1, q1, side="right")
    single = (hi - lo) == 1
    out[single] = idx2[lo[single]] == q2[single]
    for i in np.flatnonzero((hi - lo) > 1):
        out[i] = bool(np.any(idx2[lo[i]:hi[i]] == q2[i]))
    return out


def index_verdicts(ds, index_dir: str, text_col: str = "text",
                   id_col: str = "doc_id", mode: str = "broadcast",
                   max_broadcast: int = DEFAULT_MAX_BROADCAST):
    """Per-row verdict Dataset ``(id_col, seen)``: ``seen`` is whether
    the row's text fingerprint is in the index.  Null texts score
    ``seen = False`` (never a duplicate).  The shard count comes from
    the index's own metadata; a directory without one raises (see
    :func:`_read_meta`)."""
    import ray

    num_shards = _read_meta(index_dir)
    if mode == "broadcast":
        files = shard_files(index_dir, "__s")
        total = total_index_rows(files)
        if total > max_broadcast:
            raise ValueError(
                f"index holds {total} fingerprints > max_broadcast="
                f"{max_broadcast} (~{16 * total >> 20} MiB); use "
                "mode='sharded' or raise max_broadcast explicitly")
        idx_ref = ray.put(_load_sorted(files))

        def probe(t: pa.Table) -> pa.Table:
            valid = pc.is_valid(t[text_col])
            h1, h2 = content_hash128(pc.if_else(valid, t[text_col], ""))
            seen = _member128(h1, h2, *ray.get(idx_ref))
            seen &= np.asarray(valid)
            return pa.table({id_col: t[id_col], "seen": pa.array(seen)})

        return ds.select_columns([id_col, text_col]).map_batches(
            probe, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None)

    if mode != "sharded":
        raise ValueError(f"unknown mode {mode!r}")

    def tag(t: pa.Table) -> pa.Table:
        valid = pc.is_valid(t[text_col])
        h1, h2 = content_hash128(pc.if_else(valid, t[text_col], ""))
        # null text -> shard -1: no index shard, scores seen=False
        s = np.where(np.asarray(valid),
                     (h1 % np.uint64(num_shards)).astype(np.int64), -1)
        return pa.table({
            id_col: t[id_col], "h1": pa.array(h1), "h2": pa.array(h2),
            "__s": pa.array(s), BUCKET_COL: pa.array(s),
        })

    narrow = ds.select_columns([id_col, text_col]).map_batches(
        tag, batch_format="pyarrow", zero_copy_batch=True, batch_size=None)

    def per_shard(g: pd.DataFrame) -> pd.DataFrame:
        s = int(g["__s"].iloc[0])
        if s < 0:
            return pd.DataFrame({id_col: g[id_col],
                                 "seen": np.zeros(len(g), bool)})
        idx1, idx2 = _load_sorted(shard_files(index_dir, "__s", s))
        seen = _member128(g["h1"].to_numpy().astype(np.uint64),
                          g["h2"].to_numpy().astype(np.uint64), idx1, idx2)
        return pd.DataFrame({id_col: g[id_col], "seen": seen})

    # one fn call per shard: its id is the bucket id, and ``__s`` for fn
    return bucket_exchange(narrow, per_shard)


def dedup_against_index(ds, index_dir: str, text_col: str = "text",
                        id_col: str = "doc_id", mode: str = "broadcast",
                        max_broadcast: int = DEFAULT_MAX_BROADCAST):
    """The new snapshot with every already-indexed text dropped.

    The seen-ID set is collected and broadcast (it is bounded by the new
    snapshot's duplicate fraction, NOT the index size); callers whose
    duplicate fraction is itself corpus-sized should join
    :func:`index_verdicts` back instead."""
    from logray.functions.dedup import _broadcast_id_filter

    v = index_verdicts(ds, index_dir, text_col, id_col, mode,
                       max_broadcast=max_broadcast)
    # limit BEFORE to_pandas: the cap must bound the driver fetch, not
    # fire after an unbounded one
    dup_df = (v.filter(expr="seen == True").select_columns([id_col])
              .limit(max_broadcast + 1).to_pandas())
    if len(dup_df) > max_broadcast:
        raise ValueError(
            f"over {max_broadcast} duplicate ids (max_broadcast); "
            "join index_verdicts back instead of the broadcast filter")
    dup = (pa.array(dup_df[id_col].to_numpy()) if len(dup_df)
           else pa.array([], pa.int64()))
    return _broadcast_id_filter(ds, dup, id_col, keep_members=False)
