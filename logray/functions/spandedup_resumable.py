"""Checkpoint-resumable duplicate-substring removal (word- or byte-level
ExactSubstr).  ``dedup_spans`` / ``dedup_spans_bytes`` are the most
expensive passes in the repo; a 100-TB run that dies at 90% must not
restart from zero, so every phase runs through the manifest protocol
(``logray.state.manifest``): completed partitions are skipped on restart
and a crash costs only the in-flight partition.  Three phases:

1. **census** — per INPUT FILE: per-batch gram-census partials
   ``(h1, cnt, h2min, h2max)`` tagged with ``hash(h1) % B``, written as
   Parquet.  Embarrassingly parallel; the bulk of the CPU time.
2. **dups** — per BUCKET: census partials for one bucket (only the
   ``__b=<b>/`` hive dirs are read) folded; grams with total count > 1
   survive (with the h2 collision guard).  Buckets are independent, so
   each is a resumable partition of the only wide exchange.  Phases 1+2
   are one :func:`~logray.state.manifest.resumable_exchange`.
3. **cut** — per INPUT FILE: the duplicated-gram set (bounded by the
   DUPLICATED gram count, not the corpus) is broadcast once
   (``ray.put``); mark & cut each file, write the deduplicated output.

The phase-1/2 Parquet hop replaces ``dedup_spans``'s in-flight bucket
shuffle — same data volume, but every partition of it is now a
checkpoint.  Output is exactly equal to the single-shot operators
(pinned by the crash-injection tests).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from logray.functions.spandedup import (
    _census_bytes_fn,
    _census_fn,
    _cut_bytes_fn,
    _cut_words_fn,
    _dup_bucket,
)
from logray.stages.bucketing import bucket_tagger
from logray.state.manifest import (check_run_config, committed_files,
                                   map_phase, resumable_exchange)

__all__ = ["dedup_spans_resumable"]


def dedup_spans_resumable(
    input_path: str,
    out_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    window: int = 5,
    level: str = "word",
    num_buckets: int = 32,
    max_broadcast: int = 50_000_000,
    _fault=None,
) -> dict:
    """Run the full resumable span-dedup pass (``level`` = "word" for
    :func:`~logray.functions.spandedup.dedup_spans` semantics, "byte"
    for :func:`~logray.functions.spandedup.dedup_spans_bytes`); returns
    merged metrics (rows written, duplicated-gram count, per-phase
    partition counts).  Safe to re-invoke after a crash: finished
    partitions of every phase are skipped.

    ``_fault(phase, part_id)`` is a test-only fault-injection hook
    called before each partition executes."""
    import ray
    import ray.data as rd

    if window < 2:
        raise ValueError("window must be >= 2")
    if level not in ("word", "byte"):
        raise ValueError(f"level must be 'word' or 'byte', got {level!r}")

    check_run_config(out_dir, {
        "op": "dedup_spans", "id_col": id_col, "text_col": text_col,
        "window": window, "level": level, "num_buckets": num_buckets,
        "layout": "hive_bucket_v2",
    })
    census_fn = (_census_fn if level == "word" else _census_bytes_fn)(
        id_col, text_col, window)
    tag = bucket_tagger("h1", num_buckets)

    # --- phases 1+2: census partials per input file, duplicated grams per
    # bucket -----------------------------------------------------------------
    def dups(files, pdir):
        df = rd.read_parquet(files).to_pandas() if files else pd.DataFrame()
        h1 = _dup_bucket(df)["h1"].to_numpy() if len(df) else np.zeros(0)
        pq.write_table(pa.table({"h1": pa.array(h1.astype(np.int64))}),
                       os.path.join(pdir, "dups.parquet"))
        return {"dups": int(len(h1))}

    _, dups_dir = resumable_exchange(
        input_path, out_dir, lambda _pid: lambda t: tag(census_fn(t)), dups,
        col="__b", num_buckets=num_buckets, phases=("census", "dups"),
        columns=[id_col, text_col], _fault=_fault)

    # --- phase 3: mark & cut per input file ---------------------------------
    cut_dir = os.path.join(out_dir, "cut")
    dup_tables = [pq.read_table(f, columns=["h1"])
                  for f in committed_files(dups_dir)]
    dup = (pa.concat_tables(dup_tables)["h1"].to_numpy().astype(np.int64)
           if dup_tables else np.zeros(0, np.int64))
    if len(dup) > max_broadcast:
        raise RuntimeError(
            f"dedup_spans_resumable: {len(dup)} duplicated grams exceeds "
            f"max_broadcast={max_broadcast}; run the mark phase as a "
            f"bucketed join on h1 instead of a broadcast")
    dup_ref = ray.put(np.sort(dup.view(np.uint64)))
    cut = (_cut_words_fn if level == "word" else _cut_bytes_fn)(
        id_col, text_col, window, dup_ref)

    metrics = map_phase(input_path, cut_dir, lambda _pid: cut, phase="cut",
                        columns=[id_col, text_col], _fault=_fault)
    metrics["dup_grams"] = int(len(dup))
    metrics["output_dir"] = cut_dir
    return metrics
