"""Checkpoint-resumable corpus-global line dedup (the C4 "remove
repeated lines" pass, same semantics as
:func:`logray.functions.linededup.dedup_lines`).  Line dedup is the
single most expensive operator at bench scale (two sort shuffles in
``dedup_lines``), so the resumable plan both checkpoints every partition
through the manifest protocol AND eliminates the reassembly shuffle
entirely — documents are rebuilt by RE-READING their input file, which
is already the partition axis:

1. **cand** — per INPUT FILE: explode to lines; long lines (length >=
   ``min_len``) get the batch-local keep-first combine; batch winners
   carry their exact text tagged ``hash(line) % B``, batch losers ship
   as text-free ``(doc_id, line_idx)`` tombstones.  Written as Parquet,
   hive-partitioned on ``__b``.
2. **losers** — per BUCKET: the bucket's batch winners (only the
   ``__b=<b>/`` hive dirs are read) are resolved by EXACT line text —
   min ``(doc_id, line_idx)`` wins, every other occurrence emits a
   tombstone.  Correctness never rests on a hash.  Phases 1+2 are one
   :func:`~logray.state.manifest.resumable_exchange`.
3. **rebuild** — per INPUT FILE: the file's own tombstones (phases 1+2,
   ``__part == pid`` pushdown — bounded by the file's DUPLICATED
   volume) are broadcast; each batch explodes its documents, drops
   tombstoned lines, and reassembles LOCALLY (a document's lines never
   leave the batch that exploded them), writing ``(id, text, n_lines)``.

Compared to ``dedup_lines`` the full-width line shuffle is
replaced by the phase-1 Parquet hop (combined winners + 16-byte
tombstones, every partition a checkpoint) and the reassembly shuffle by
a local rebuild.  Output is exactly equal to ``dedup_lines`` (pinned by
the crash-injection test): docs whose every line was removed, and docs
with null text, are absent on both sides.
"""

from __future__ import annotations

import os
from functools import partial

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from logray.functions.linededup import _explode_lines_fn, _rejoin_fn
from logray.stages.bucketing import bucket_of, run_starts
from logray.state.manifest import (check_run_config, committed_files,
                                   resumable_exchange, run_resumable)

__all__ = ["dedup_lines_resumable"]


def _cand_fn(id_col: str, text_col: str, min_len: int, sep: str,
             num_buckets: int, part_id: str):
    """Explode + batch-local combine for one input-file partition: one
    winner row (with text) per distinct long line per batch, one
    text-free tombstone per batch-local loser."""
    explode = _explode_lines_fn(id_col, text_col, sep)

    def part(t: pa.Table) -> pa.Table:
        lines = explode(t)
        cand = lines.filter(
            pc.greater_equal(pc.utf8_length(lines["line"]), min_len)
        ).sort_by([("line", "ascending"), (id_col, "ascending"),
                   ("line_idx", "ascending")])
        line = cand["line"].to_numpy(zero_copy_only=False)
        win = run_starts(line)
        b = np.zeros(len(win), np.int64)
        b[win] = bucket_of(line[win], num_buckets)
        return pa.table({
            "__part": pa.array([part_id] * len(win)),
            id_col: cand[id_col],
            "line_idx": cand["line_idx"],
            # losers ship text-free, in bucket 0
            "line": pc.if_else(pa.array(win), cand["line"],
                               pa.scalar(None, pa.string())),
            "__b": pa.array(b),
            "__loser": pa.array(~win),
        })

    return part


def dedup_lines_resumable(
    input_path: str,
    out_dir: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    min_len: int = 1,
    sep: str = "\n",
    num_buckets: int = 64,
    partitions: list[tuple[str, list[str]]] | None = None,
    max_concurrent: int = 1,
    _fault=None,
) -> dict:
    """Run the full resumable line-dedup pass; returns merged metrics
    (rows written, tombstone count, per-phase partition counts).  Safe
    to re-invoke after a crash: finished partitions of every phase are
    skipped.  ``_fault(phase, part_id)`` is a test-only fault-injection
    hook called before each partition executes.  ``partitions``
    overrides the one-per-input-file default — phase chaining
    (:func:`logray.state.manifest.partitions_from_parts`) feeds a prior
    resumable phase's published files in directly."""
    import ray
    import ray.data as rd

    check_run_config(out_dir, {
        "op": "dedup_lines", "id_col": id_col, "text_col": text_col,
        "min_len": min_len, "sep": sep, "num_buckets": num_buckets,
        "layout": "hive_bucket_v2",
    })

    # --- phases 1+2: winners + local tombstones per input file, global
    # tombstones per bucket ---------------------------------------------------
    def losers(files, pdir):
        df = (rd.read_parquet(files, filter=~pc.field("__loser")).to_pandas()
              if files else pd.DataFrame())
        lose = pd.DataFrame()
        if len(df):
            df = df.sort_values(["line", id_col, "line_idx"],
                                kind="mergesort")
            lose = df[df.duplicated("line", keep="first")]
        if len(lose):  # an empty frame would write a null-typed schema
            pq.write_table(
                pa.Table.from_pandas(
                    lose[["__part", id_col, "line_idx"]].reset_index(drop=True),
                    preserve_index=False),
                os.path.join(pdir, "losers.parquet"),
            )
        return {"tombstones": int(len(lose))}

    cand_dir, losers_dir = resumable_exchange(
        input_path, out_dir,
        partial(_cand_fn, id_col, text_col, min_len, sep, num_buckets),
        losers, col="__b", num_buckets=num_buckets, phases=("cand", "losers"),
        columns=[id_col, text_col], partitions=partitions,
        max_concurrent=max_concurrent, _fault=_fault)

    # --- phase 3: local rebuild per input file -------------------------------
    out_phase_dir = os.path.join(out_dir, "deduped")
    loser_files = committed_files(losers_dir)
    # the __part row filter prunes fine here: each cand file holds ONE
    # __part value (constant min==max row-group stats), unlike the
    # hash-random __b that phase 2 prunes by path instead
    cand_files = committed_files(cand_dir)
    rejoin = _rejoin_fn(id_col, text_col, sep)
    explode = _explode_lines_fn(id_col, text_col, sep)

    def run_rebuild(files, pdir, *, part_id=None):
        mine = pc.field("__part") == part_id
        tomb = [rd.read_parquet(fs, columns=[id_col, "line_idx"],
                                filter=flt).to_pandas()
                for fs, flt in ((cand_files, mine & pc.field("__loser")),
                                (loser_files, mine)) if fs]
        # an empty filtered read comes back column-less: keep only
        # non-empty frames, fall back to a typed empty tombstone set
        tomb = [f for f in tomb if len(f)]
        tdf = pd.concat(tomb, ignore_index=True) if tomb else \
            pd.DataFrame({id_col: np.zeros(0, np.int64),
                          "line_idx": np.zeros(0, np.int64)})
        tomb_ref = ray.put(pd.MultiIndex.from_arrays(
            [tdf[id_col].to_numpy(), tdf["line_idx"].to_numpy()]))

        def rebuild(t: pa.Table) -> pa.Table:
            mi = ray.get(tomb_ref)
            lines = explode(t).to_pandas()
            if len(mi) and len(lines):
                here = pd.MultiIndex.from_arrays(
                    [lines[id_col].to_numpy(), lines["line_idx"].to_numpy()])
                lines = lines[~here.isin(mi)]
            return rejoin(lines)

        out = rd.read_parquet(files, columns=[id_col, text_col]).map_batches(
            rebuild, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None).materialize()
        out.write_parquet(pdir)
        return {"rows": out.count(), "tombstones_applied": int(len(tdf))}

    metrics = run_resumable(input_path, out_phase_dir, run_rebuild,
                            partitions=partitions,
                            max_concurrent=max_concurrent, phase="rebuild",
                            _fault=_fault)
    metrics["output_dir"] = out_phase_dir
    return metrics
