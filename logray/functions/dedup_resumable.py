"""Checkpoint-resumable near-dedup closure.

At 100 TB the near-dedup closure is the longest-running job in the
pipeline, so every phase is driven through the manifest protocol
(``logray.state.manifest``): completed partitions are skipped on restart
and a crash costs only the in-flight partition.  Four phases, each with
its own partition axis:

1. **bands** — per INPUT FILE: shingle -> MinHash signatures -> band rows
   (band_hash, id, sig) written as Parquet hive-partitioned on band_id.
   Embarrassingly parallel, the bulk of the CPU time.
2. **pairs** — per BAND: band rows for one band (selected at the PATH
   level via the ``band_id=<b>/`` hive directories — band rows are
   written doc-major, so a row filter could never prune) go through one
   bucket exchange on band_hash; each band_hash run emits
   signature-verified candidate pairs (hot-bucket cap applies).  Bands
   are independent, so each is a resumable partition of the only wide
   shuffle.  Phases 1+2 are one
   :func:`~logray.state.manifest.resumable_exchange`.
3. **closure** — single partition: all pairs -> connected components ->
   the drop list (non-minimum cluster members).  Pairs are orders of
   magnitude smaller than the corpus, so the driver union-find runs
   it.
4. **dedup** — per INPUT FILE: broadcast the drop list (``ray.put``
   once), filter, write the deduplicated output.

Duplicate pairs across bands are fine: the closure is idempotent over
repeated pairs, so phase 2 skips the global pair-dedup shuffle entirely.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from logray.functions.dedup import (
    DEFAULT_MAX_BUCKET,
    _band_pairs,
    _explode_bands_fn,
    connected_components,
)
from logray.state.manifest import (check_run_config, committed_files,
                                   map_phase, resumable_exchange,
                                   run_resumable)


def near_dedup_resumable(
    input_path: str,
    out_dir: str,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    k: int = 5,
    threshold: float = 0.7,
    seed: int = 1,
    max_bucket: int = DEFAULT_MAX_BUCKET,
    partitions: list[tuple[str, list[str]]] | None = None,
    max_concurrent: int = 1,
    _fault=None,
) -> dict:
    """Run the full resumable near-dedup closure; returns merged metrics
    (rows kept, drop count, per-phase partition counts).  Safe to re-invoke
    after a crash: finished partitions of every phase are skipped.

    ``_fault(phase, part_id)`` is a test-only fault-injection hook called
    before each partition executes.  ``partitions`` overrides the
    one-per-input-file default — phase chaining
    (:func:`logray.state.manifest.partitions_from_parts`) feeds a prior
    resumable phase's published files in directly."""
    import ray
    import ray.data as rd

    check_run_config(out_dir, {
        "op": "near_dedup", "text_col": text_col, "id_col": id_col,
        "num_perm": num_perm, "bands": bands, "k": k,
        "threshold": threshold, "seed": seed, "max_bucket": max_bucket,
        "layout": "hive_band_v2",
    })

    # --- phases 1+2: band rows per input file, pairs per band --------------
    explode = _explode_bands_fn(text_col, id_col, num_perm, bands, k, seed)

    def band_pairs(files, pdir):
        if files:
            _band_pairs(rd.read_parquet(files), id_col, threshold, num_perm,
                        max_bucket).write_parquet(pdir)
        return {}

    _, pairs_dir = resumable_exchange(
        input_path, out_dir, lambda _pid: explode, band_pairs,
        col="band_id", num_buckets=bands, phases=("bands", "pairs"),
        bucket_id="band{:03d}", columns=[id_col, text_col],
        partitions=partitions, max_concurrent=max_concurrent, _fault=_fault)

    # --- phase 3: closure -> drop list ------------------------------------
    closure_dir = os.path.join(out_dir, "closure")
    pair_files = committed_files(pairs_dir)

    def run_closure(_files, pdir):
        drop = np.zeros(0, np.int64)
        if pair_files:
            comp = connected_components(
                rd.read_parquet(pair_files).to_pandas())
            drop = comp.loc[comp["doc_id"] != comp["component"],
                            "doc_id"].to_numpy(np.int64)
        pq.write_table(pa.table({"doc_id": pa.array(drop)}),
                       os.path.join(pdir, "drop.parquet"))
        return {"dropped": int(len(drop))}

    run_resumable(input_path, closure_dir, run_closure,
                  partitions=[("closure", [])], phase="closure",
                  _fault=_fault)

    # --- phase 4: filtered output per input file --------------------------
    dedup_dir = os.path.join(out_dir, "deduped")
    drop_tbl = pq.read_table(
        os.path.join(closure_dir, "parts", "closure", "drop.parquet")
    )
    drop_ref = ray.put(drop_tbl["doc_id"].combine_chunks())

    def keep(t: pa.Table) -> pa.Table:
        m = pc.invert(pc.is_in(t[id_col].cast(pa.int64()),
                               value_set=ray.get(drop_ref)))
        return t.filter(pc.fill_null(m, True))

    metrics = map_phase(input_path, dedup_dir, lambda _pid: keep,
                        phase="dedup", partitions=partitions,
                        max_concurrent=max_concurrent, _fault=_fault)
    metrics["dropped"] = int(len(drop_tbl))
    metrics["output_dir"] = dedup_dir
    return metrics
