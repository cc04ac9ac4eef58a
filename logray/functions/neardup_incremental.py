"""Incremental NEAR-dup filtering: probe each new snapshot against a
persistent MinHash-LSH band index of everything already ingested — the
near-duplicate sibling of :mod:`logray.functions.dedup_incremental`
(GPT-3/Dolma-style pipelines drop a new document when it LSH-collides
with any previously kept one, without re-reading old snapshots).

The index holds the distinct ``(band_id, band_hash)`` values of every
indexed document (:func:`logray.functions.fingerprint.minhash_signatures`
→ :func:`~logray.functions.fingerprint.band_hashes` — the SAME family
the in-snapshot ``minhash_lsh_dedup`` uses), hive-partitioned by
``__g = band_id * num_shards + band_hash % num_shards`` for path-level
pruning.  ``index.json`` persists (num_perm, bands, k, seed): probing
with different parameters is meaningless (signatures would not be
comparable), so a mismatch RAISES.

Semantics: a probe document is ``seen`` when ANY of its bands' hashes is
already in that band's index — the pure LSH candidate rule.  Unlike
``minhash_lsh_dedup`` there is no second-stage signature-agreement
verification (that would require persisting full signatures, num_perm
x 8 bytes per document); tune ``bands``/``num_perm`` for the collision
probability curve instead.  Documents with no k-byte shingle (shorter
than ``k`` bytes, or null) are NEVER indexed or matched — every such
document shares the degenerate all-zero signature, so without the mask
all short documents would count as mutual near-duplicates.

Scale shape mirrors the exact-index module: build is one streaming
pass of per-batch-distinct band rows; broadcast probing is row-local
binary search against the whole index shipped once; sharded probing is
ONE bucket shuffle of the narrow exploded ``(id, band, hash)``
projection where each bucket reads only its own shard files.

Reference parity: same skip-seen-lines lineage as
``dedup_incremental`` (``src/file_parsing/filtered_file_reader.cpp``),
relaxed from byte equality to MinHash similarity.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from logray.functions.fingerprint import band_hashes, minhash_signatures
from logray.functions.indexbase import (META_NAME, read_meta, shard_files,
                                        total_index_rows, write_meta)
from logray.stages.bucketing import BUCKET_COL, bucket_exchange, isin_sorted

__all__ = ["build_band_index", "near_dup_ids_against_index",
           "dedup_near_against_index"]

DEFAULT_MAX_BROADCAST = 100_000_000


def _params(num_perm: int, bands: int, k: int, seed: int,
            num_shards: int) -> dict:
    return {"num_perm": num_perm, "bands": bands, "k": k, "seed": seed,
            "num_shards": num_shards}


def _band_rows(t: pa.Table, text_col: str, meta: dict):
    """Distinct (band_id, band_hash) rows of a batch + the per-row band
    matrix for probing: ``(bh[valid], band_ids, valid_mask)``."""
    col = t[text_col]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    valid = np.asarray(pc.and_kleene(
        pc.is_valid(col),
        pc.greater_equal(pc.binary_length(col), meta["k"])).fill_null(False))
    texts = pc.if_else(pa.array(valid), col, "x" * meta["k"])
    sig = minhash_signatures(texts, num_perm=meta["num_perm"],
                             k=meta["k"], seed=meta["seed"])
    bh = band_hashes(sig, meta["bands"])
    return bh, valid


def build_band_index(ds, out_dir: str, text_col: str = "text",
                     num_perm: int = 64, bands: int = 16, k: int = 5,
                     seed: int = 1, num_shards: int = 8) -> None:
    """One streaming pass: per-batch-distinct ``(band_id, band_hash)``
    rows written hive-partitioned by ``__g``.  Appending into the same
    directory with identical parameters is additive; any parameter
    mismatch refuses."""
    meta = _params(num_perm, bands, k, seed, num_shards)
    if os.path.exists(os.path.join(out_dir, META_NAME)):
        existing = read_meta(out_dir, "band index")
        if existing != meta:
            raise ValueError(
                f"band index {out_dir!r} was built with {existing}; "
                f"appending with {meta} would mix incomparable hashes")

    def part(t: pa.Table) -> pa.Table:
        bh, valid = _band_rows(t, text_col, meta)
        bh = bh[valid]
        band = np.tile(np.arange(bands, dtype=np.int64), len(bh))
        h = bh.reshape(-1)
        pair = np.stack([band, h.astype(np.int64)], axis=1)
        pair = np.unique(pair, axis=0)
        band, h = pair[:, 0], pair[:, 1].astype(np.uint64)
        g = band * num_shards + (h % np.uint64(num_shards)).astype(np.int64)
        return pa.table({"band_id": pa.array(band),
                         "band_hash": pa.array(h),
                         "__g": pa.array(g)})

    (ds.select_columns([text_col])
       .map_batches(part, batch_format="pyarrow", zero_copy_batch=True,
                    batch_size=None)
       .write_parquet(out_dir, partition_cols=["__g"]))
    write_meta(out_dir, meta)


def _per_band_sorted(files: list[str], bands: int) -> list[np.ndarray]:
    """index: band -> sorted uint64 hash array."""
    out = [np.zeros(0, np.uint64) for _ in range(bands)]
    if not files:
        return out
    t = pq.read_table(files, columns=["band_id", "band_hash"])
    band = t["band_id"].to_numpy(zero_copy_only=False)
    h = t["band_hash"].to_numpy(zero_copy_only=False).astype(np.uint64)
    for b in range(bands):
        out[b] = np.unique(h[band == b])
    return out


def near_dup_ids_against_index(ds, index_dir: str, text_col: str = "text",
                               id_col: str = "doc_id",
                               mode: str = "broadcast",
                               max_broadcast: int = DEFAULT_MAX_BROADCAST):
    """Dataset ``(id_col,)`` of probe documents that LSH-collide with the
    index (one row per matched document; sharded mode may emit a
    document once per colliding band — consumers are set-semantics)."""
    import ray

    meta = read_meta(index_dir, "band index")
    bands, num_shards = meta["bands"], meta["num_shards"]

    if mode == "broadcast":
        files = shard_files(index_dir, "__g")
        total = total_index_rows(files)
        if total > max_broadcast:
            raise ValueError(
                f"band index holds {total} rows > max_broadcast="
                f"{max_broadcast}; use mode='sharded'")
        idx_ref = ray.put(_per_band_sorted(files, bands))

        def probe(t: pa.Table) -> pa.Table:
            idx = ray.get(idx_ref)
            bh, valid = _band_rows(t, text_col, meta)
            seen = np.zeros(len(valid), bool)
            for b in range(bands):
                seen |= isin_sorted(bh[:, b], idx[b])
            seen &= valid
            return pa.table({id_col: pc.filter(t[id_col], pa.array(seen))})

        return ds.select_columns([id_col, text_col]).map_batches(
            probe, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None)

    if mode != "sharded":
        raise ValueError(f"unknown mode {mode!r}")

    def explode(t: pa.Table) -> pa.Table:
        bh, valid = _band_rows(t, text_col, meta)
        ids = t[id_col].to_numpy(zero_copy_only=False)[valid]
        bh = bh[valid]
        n = len(bh)
        band = np.tile(np.arange(bands, dtype=np.int64), n)
        h = bh.reshape(-1)
        g = band * num_shards + (h % np.uint64(num_shards)).astype(np.int64)
        return pa.table({id_col: pa.array(np.repeat(ids, bands)),
                         "band_id": pa.array(band),
                         "band_hash": pa.array(h),
                         "__g": pa.array(g), BUCKET_COL: pa.array(g)})

    narrow = ds.select_columns([id_col, text_col]).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True,
        batch_size=None)

    def per_shard(gdf: pd.DataFrame) -> pd.DataFrame:
        g = int(gdf["__g"].iloc[0])
        idx = _per_band_sorted(shard_files(index_dir, "__g", g), bands)
        b = int(gdf["band_id"].iloc[0])  # one band per __g by construction
        hit = isin_sorted(gdf["band_hash"].to_numpy().astype(np.uint64),
                           idx[b])
        return pd.DataFrame({id_col: gdf[id_col].to_numpy()[hit]})

    # one fn call per shard: its id is the bucket id, and ``__g`` for fn
    return bucket_exchange(narrow, per_shard)


def dedup_near_against_index(ds, index_dir: str, text_col: str = "text",
                             id_col: str = "doc_id",
                             mode: str = "broadcast",
                             max_broadcast: int = DEFAULT_MAX_BROADCAST):
    """The new snapshot with every index-near-duplicate dropped (the
    matched-ID set broadcasts — bounded by the snapshot's duplicate
    fraction, not the index; corpus-sized duplicate fractions should
    join :func:`near_dup_ids_against_index` back instead)."""
    from logray.functions.dedup import _broadcast_id_filter

    m = near_dup_ids_against_index(ds, index_dir, text_col, id_col, mode,
                                   max_broadcast)
    if mode == "sharded":
        # sharded matches repeat once per colliding band: distinct-ify
        # with one narrow shuffle so the cap counts DOCUMENTS, and a
        # many-band collider cannot spuriously trip it
        m = m.groupby(id_col).count().select_columns([id_col])
    # limit BEFORE to_pandas: the cap bounds the driver fetch itself
    dup_df = m.limit(max_broadcast + 1).to_pandas()
    if len(dup_df) > max_broadcast:
        raise ValueError(
            f"over {max_broadcast} matched ids (max_broadcast); join "
            "near_dup_ids_against_index back instead")
    if dup_df.empty:
        # an all-empty-block result loses its schema on the way to
        # pandas; the no-overlap snapshot is the common case
        ids = np.zeros(0, np.int64)
    else:
        ids = dup_df[id_col].drop_duplicates().to_numpy()
    dup = pa.array(ids) if len(ids) else pa.array([], pa.int64())
    return _broadcast_id_filter(ds, dup, id_col, keep_members=False)
