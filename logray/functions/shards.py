"""Byte-balanced, resumable Parquet shard output.

A 100 TB curation run must never end in one giant file (or in shards sized
by row count, which a fat-document corpus skews 100x by bytes).  This sink
targets ``target_bytes`` of *payload* per output shard:

1. ONE streaming pass sums the exact UTF-8/binary payload bytes of the
   byte-bearing columns (plus a fixed per-row overhead for the scalar
   columns) — tiny int64 partials, no shuffle;
2. ``n_shards = ceil(total / target_bytes)``; each row lands in shard
   ``knuth_hash(id) % n_shards`` — the same deterministic id hash the
   sampling family uses (string / negative ids go through the FNV-1a
   content hash first, like :func:`~logray.functions.sample.group_split`),
   so shard membership is a pure function of (id, seed, n_shards):
   balanced in expectation with O(1/sqrt(rows/shard)) relative deviation
   (at the design point every shard holds millions of rows, so byte
   balance is tight), stable under any input partitioning, and replayable;
3. ``write_parquet(partition_cols=["shard"])`` — a hive layout
   (``shard=K/``) so downstream readers path-prune and consume/resume
   per shard.  The write itself is all-or-nothing: ``out_dir`` must not
   already hold data (a rerun into a half-written directory would
   DUPLICATE rows, so it is refused loudly — delete and rerun, the
   deterministic assignment replays identically).

No sort, no shuffle: the write is the only wide-ish step and Ray fans it
out per block into each partition directory.  NOTE the input executes
TWICE (byte census, then write) — hand this a re-readable source (a
parquet read) or a materialized dataset, not an expensive lazy pipeline.

Reference anchor: the reference viewer's single-file mmap model
(`/root/reference/src/file_parsing/filtered_file_reader.cpp` open/parse of one log
file) is exactly what this replaces at scale.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from logray.functions.sample import _M31, _det_hash
from logray.state.manifest import (RunManifest, check_run_config,
                                   committed_files, map_phase, publish_text,
                                   run_resumable)

# conservative fixed per-row cost of the non-payload scalar columns
ROW_OVERHEAD_BYTES = 16


def payload_bytes(ds, byte_cols: list[str],
                  row_overhead: int = ROW_OVERHEAD_BYTES) -> int:
    """Exact total payload bytes: sum of the UTF-8/binary lengths of
    ``byte_cols`` plus ``row_overhead`` per row.  One streaming pass,
    int64 partials only."""

    def part(t: pa.Table) -> pa.Table:
        total = t.num_rows * row_overhead
        for c in byte_cols:
            s = pc.sum(pc.binary_length(t[c])).as_py()
            total += int(s or 0)
        return pa.table({"b": pa.array([total], pa.int64())})

    got = ds.map_batches(part, batch_format="pyarrow",
                         zero_copy_batch=True).sum("b")
    return int(got or 0)


def _byte_cols(schema) -> list[str]:
    """The string/binary columns of a Dataset schema."""
    return [n for n, t in zip(schema.names, schema.types)
            if pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)]


def _shard_tagger(id_col: str, seed: int, n_shards: int):
    """The ONE shard-assignment definition (single-shot and resumable
    sinks must stay bit-identical): integer ids through the Knuth hash
    (numpy ``%`` keeps negatives in range), string/binary ids through the
    FNV-1a content hash first — the :func:`group_split` path."""

    def tag(t: pa.Table) -> pa.Table:
        col = t[id_col]
        if pa.types.is_integer(col.type):
            ids = col.to_numpy(zero_copy_only=False).astype(np.int64) % _M31
        else:
            from logray.functions.fingerprint import content_hash

            ids = (content_hash(col) >> np.uint64(1)).astype(np.int64)
        shard = (_det_hash(ids, seed) % n_shards).astype("int64")
        if "shard" in t.column_names:
            t = t.drop_columns(["shard"])
        return t.append_column("shard", pa.array(shard))

    return tag


def rebalance_shards(ds, out_dir: str, target_bytes: int,
                     id_col: str = "doc_id",
                     byte_cols: list[str] | None = None,
                     seed: int = 0, min_shards: int = 1) -> int:
    """Write ``ds`` as a hive-partitioned Parquet tree with ~``target_bytes``
    of payload per shard.  Returns the shard count.

    ``byte_cols`` defaults to every string/binary column in the schema.
    """
    if target_bytes <= 0:
        raise ValueError("target_bytes must be positive")
    if os.path.isdir(out_dir) and os.listdir(out_dir):
        raise FileExistsError(
            f"{out_dir} is not empty: rerunning into a half-written shard "
            "tree would duplicate rows; delete it and rerun")
    if byte_cols is None:
        byte_cols = _byte_cols(ds.schema())
    total = payload_bytes(ds, byte_cols)
    n_shards = max(min_shards, math.ceil(total / target_bytes))

    tagged = ds.map_batches(_shard_tagger(id_col, seed, n_shards),
                            batch_format="pyarrow", zero_copy_batch=True)
    tagged.write_parquet(out_dir, partition_cols=["shard"])
    return n_shards


def read_rebalanced(out_dir: str, shard: int | None = None):
    """Read a :func:`rebalance_shards_resumable` output tree — whole tree
    by default, ONE shard with ``shard=`` (path-level pruning: only that
    shard's files are listed).  Only manifest-COMMITTED partitions are
    read (a crashed run's ``.inprogress`` leftovers are excluded), and
    the ``shard`` column comes back as int64 from the ``shard=K/`` path
    segment — one dataset, one pass, no per-shard plan blowup."""
    import ray.data as rd
    from ray.data.datasource import Partitioning

    shards_dir = os.path.join(out_dir, "shards")
    files = committed_files(shards_dir, "shard",
                            "*" if shard is None else shard)
    if not files:
        raise FileNotFoundError(
            f"no committed files for shard={shard} under {shards_dir}")
    return rd.read_parquet(files, partitioning=Partitioning(
        "hive", base_dir=shards_dir, field_types={"shard": int}))


def rebalance_shards_resumable(input_path: str, out_dir: str,
                               target_bytes: int, id_col: str = "doc_id",
                               byte_cols: list[str] | None = None,
                               seed: int = 0, min_shards: int = 1,
                               row_overhead: int = ROW_OVERHEAD_BYTES,
                               partitions: list[tuple[str, list[str]]] | None = None,
                               max_concurrent: int = 1,
                               _fault=None) -> dict:
    """Checkpointed :func:`rebalance_shards`: every phase partition is an
    atomically-published checkpoint, so a 100 TB rewrite that dies at 90%
    resumes instead of restarting (and re-running after new input files
    arrive processes only the new files' census — note the shard COUNT is
    fixed by the first completed plan via run_config, so growing the
    input only adds rows to existing shards).

    1. **census** — per INPUT FILE: exact payload bytes (tiny manifest
       metric, no data written);
    2. **shards** — per INPUT FILE: tag ``knuth_hash(id) % n_shards`` and
       write ``shard=K/`` hive partitions under the file's own partition
       dir.

    Shard assignment is a pure function of (id, seed, n_shards), so the
    union of per-file outputs is row-identical to the single-shot
    :func:`rebalance_shards` at the same ``n_shards``.  Read back with
    :func:`read_rebalanced` (whole tree or one shard, path-pruned).
    ``_fault(phase, part_id)`` is a test-only crash-injection hook.
    ``partitions`` overrides the one-per-input-file default — phase
    chaining (:func:`logray.state.manifest.partitions_from_parts`)
    feeds a prior resumable phase's published files in directly.
    """
    import ray.data as rd

    if target_bytes <= 0:
        raise ValueError("target_bytes must be positive")

    if byte_cols is None:
        # with an explicit partitions list the input may be a chained
        # phase dir with no flat *.parquet — probe the first partition
        byte_cols = _byte_cols(rd.read_parquet(
            partitions[0][1] if partitions else input_path).schema())
    check_run_config(out_dir, {
        "op": "rebalance_shards", "target_bytes": int(target_bytes),
        "id_col": id_col, "byte_cols": sorted(byte_cols),
        "seed": int(seed), "min_shards": int(min_shards),
        "row_overhead": int(row_overhead),
    })

    # --- phase 1: exact byte census per input file -----------------------
    census_dir = os.path.join(out_dir, "census")

    def run_census(files, tmp):
        b = payload_bytes(rd.read_parquet(files), byte_cols,
                          row_overhead=row_overhead)
        return {"bytes": int(b)}

    run_resumable(input_path, census_dir, run_census, partitions=partitions,
                  max_concurrent=max_concurrent, phase="census", _fault=_fault)
    total = sum(int(e.get("bytes", 0))
                for e in RunManifest(census_dir).entries().values())
    # the shard count is part of the PLAN: once any phase-2 partition may
    # exist it must never change (a grown input would otherwise recompute
    # a larger n_shards and assign new files inconsistently) — persist it
    # next to run_config on first computation, reuse forever after
    plan_path = os.path.join(out_dir, "shard_plan.json")
    if os.path.exists(plan_path):
        with open(plan_path) as f:
            n_shards = int(json.load(f)["n_shards"])
    else:
        n_shards = max(min_shards, math.ceil(total / target_bytes))
        publish_text(plan_path, json.dumps({"n_shards": n_shards, "census_bytes": total}))

    # --- phase 2: tag + hive write per input file -------------------------
    shards_dir = os.path.join(out_dir, "shards")
    m = map_phase(input_path, shards_dir,
                  lambda _pid: _shard_tagger(id_col, seed, n_shards),
                  phase="shards", col="shard", partitions=partitions,
                  max_concurrent=max_concurrent, _fault=_fault)
    return {"n_shards": int(n_shards), "total_bytes": int(total),
            "partitions": m.get("partitions", 0), "output_dir": shards_dir}
