"""Shared scaffolding for persistent on-disk indexes
(:mod:`logray.functions.dedup_incremental`'s fingerprint index and
:mod:`logray.functions.neardup_incremental`'s MinHash band index): the
metadata sidecar, hive-shard file listing, and the broadcast-size cap.
One copy — the refusal semantics (a missing/mismatched index must RAISE,
never probe as empty) are load-bearing for both."""

from __future__ import annotations

import glob
import json
import os

from logray.state.manifest import committed_files, publish, publish_text

__all__ = ["write_meta", "read_meta", "shard_files",
           "shard_values", "total_index_rows", "detect_shard_key",
           "compact_index"]

META_NAME = "index.json"


def write_meta(out_dir: str, meta: dict) -> None:
    publish_text(os.path.join(out_dir, META_NAME), json.dumps(meta))


def read_meta(index_dir: str, kind: str) -> dict:
    """The index's persisted parameters.  A directory without a
    metadata sidecar RAISES — silently treating it as an empty index
    would score every duplicate as new."""
    path = os.path.join(index_dir, META_NAME)
    if not os.path.exists(path):
        raise ValueError(
            f"{index_dir!r} is not a {kind} (no {META_NAME}); refusing "
            "to treat it as empty — every duplicate would pass")
    with open(path) as f:
        return json.load(f)


def shard_files(index_dir: str, key: str, value=None) -> list[str]:
    """Parquet files of one hive shard (``key=value``), or of the whole
    index when ``value`` is None — path-level pruning, never a row
    filter on the hash-random shard column.  Covers both the flat
    append layout (``<dir>/<key>=v/*.parquet``) and the resumable
    manifest layout (``<dir>/parts/<pid>/<key>=v/*.parquet``, committed
    partitions only)."""
    value = "*" if value is None else value
    return sorted(glob.glob(os.path.join(index_dir, f"{key}={value}",
                                         "*.parquet"))
                  + committed_files(index_dir, key, value))


def total_index_rows(files: list[str]) -> int:
    import pyarrow.parquet as pq

    return sum(pq.read_metadata(f).num_rows for f in files)


def _hive_dirs(index_dir: str, pat: str) -> list[str]:
    """``pat`` matches in either layout (flat, or under ``parts/<pid>/``)."""
    return [d for root in (index_dir, os.path.join(index_dir, "parts", "*"))
            for d in glob.glob(os.path.join(root, pat))]


def shard_values(index_dir: str, key: str) -> list[str]:
    """Distinct hive-shard values present in either layout, sorted."""
    return sorted({os.path.basename(d).split("=", 1)[1]
                   for d in _hive_dirs(index_dir, f"{key}=*")})


def detect_shard_key(index_dir: str) -> str:
    """The hive-shard column name of an index dir (``__s`` for the
    fingerprint/BM25/IVF family, ``__g`` for the band index) — inferred
    from the ``<key>=<value>`` directory names; ambiguous or absent
    keys RAISE."""
    keys = {os.path.basename(d).split("=", 1)[0]
            for d in _hive_dirs(index_dir, "*=*") if os.path.isdir(d)}
    if len(keys) != 1:
        raise ValueError(
            f"detect_shard_key: expected exactly one hive key under "
            f"{index_dir!r}, found {sorted(keys)}")
    return keys.pop()


def compact_index(index_dir: str, out_dir: str,
                  key: str | None = None) -> dict:
    """Rewrite an append-accumulated index as ONE parquet file per hive
    shard into a NEW directory — the maintenance op for the persistent
    indexes carrying this module's ``index.json`` sidecar (the
    fingerprint, MinHash-band and BM25-postings indexes; the IVF index
    has its own ``data/``+``manifest.json`` layout and is rewritten by
    rebuilding): every additive append and every resumable-build
    partition adds a small file per shard, and a long-lived index
    degrades into a many-tiny-files read.

    Crash safety by construction, no journal needed: the metadata
    sidecar is written LAST, and every reader of these indexes REFUSES
    a directory without it (see :func:`read_meta`) — a compaction that
    dies midway leaves a dst that no probe will silently treat as an
    index.  Rerun compaction into a fresh dst (the half-written one is
    refused as a destination too).  The source is never mutated; the
    caller swaps paths (or replaces src) after the stats return.

    Scale shape: one Ray task per shard, each STREAMING row groups from
    its input files through a single ParquetWriter — per-task memory is
    one row group, not the shard; shards compact concurrently.  Row
    ORDER within a shard follows the sorted input file list — every
    probe of these indexes is collision/sum semantics, order-free."""
    import ray

    meta = read_meta(index_dir, "compactable index")
    if os.path.exists(out_dir) and os.listdir(out_dir):
        raise ValueError(
            f"compact_index: destination {out_dir!r} is non-empty — "
            "refusing to mix generations; compact into a fresh dir")
    if key is None:
        key = detect_shard_key(index_dir)
    vals = shard_values(index_dir, key)
    if not vals:
        raise ValueError(
            f"compact_index: no '{key}=*' shards under {index_dir!r}")

    @ray.remote
    def compact_shard(files: list[str], dst: str) -> tuple[int, int]:
        import pyarrow.parquet as pq

        if not files:  # a shard dir with no parquet yet: nothing to do
            return 0, 0

        def write(tmp):
            rows = 0
            with pq.ParquetWriter(tmp, pq.read_schema(files[0]),
                                  compression="zstd") as writer:
                for f in files:
                    pf = pq.ParquetFile(f)
                    for rg in range(pf.num_row_groups):
                        t = pf.read_row_group(rg)
                        rows += t.num_rows
                        writer.write_table(t)
            return rows

        return publish(dst, write), len(files)

    outs = ray.get([compact_shard.remote(
        shard_files(index_dir, key, v),
        os.path.join(out_dir, f"{key}={v}", "compact-0.parquet"))
        for v in vals])
    rows = sum(r for r, _ in outs)
    files_in = sum(f for _, f in outs)
    write_meta(out_dir, meta)  # LAST: publishes the dst as an index
    return {"shards": len(vals), "files_in": files_in,
            "files_out": len(vals), "rows": rows}
