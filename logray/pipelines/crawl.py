"""End-to-end resumable crawl -> training-set composition.

One pipeline, seven manifest-checkpointed phases, each resuming
independently after a crash:

    01_extract    WARC archive -> HTML->text -> robots gate ->
                  Gopher quality gate -> PII redaction   (per WARC file)
    02_linededup  C4-style exact line dedup               (resumable chain)
    03_neardedup  MinHash+LSH near-duplicate closure      (resumable chain)
    04_decontam   eval-set n-gram decontamination         (index + per file)
    05_tokenize   byte-BPE tokenization                   (train/load + per file)
    06_shards     byte-balanced hash sharding             (resumable chain)
    07_pack       concat-and-cut sequence packing         (per shard)

At 100 TB this composition IS the product: every phase publishes
atomically under ``<phase>/parts/<pid>/`` with a ``manifest.json``
done-marker committed last (:mod:`logray.state.manifest`), so a
re-invocation after a crash at ANY point — mid-phase or at a phase
boundary — skips finished partitions and finished phases and produces
shards row/value-identical to an uninterrupted run.  The overall plan
(every semantic parameter) is pinned in ``<out_root>/run_config.json``;
resuming with different parameters refuses loudly.

Phase chaining: each phase's partition list derives from the previous
phase's PUBLISHED files (:func:`logray.state.manifest.partitions_from_parts`),
so there is no flat-directory hand-off and no re-listing race — a
partition that isn't committed upstream simply doesn't exist yet
downstream.

Scale notes (what survives a 256-node / 100 TB run):

- phase 1 is row-local (read fuses with extraction/gating) — one pass
  per WARC file, no exchange;
- phases 2/3/6 are the existing bucketed resumable chains (census /
  band / shard-hash exchanges only — text crosses the wire once per
  chain);
- phase 4 broadcasts the eval-gram index (``ray.put`` once, read
  zero-copy per task) — eval sets are tiny next to the corpus;
- phase 5 broadcasts the trained vocabulary the same way;
- phase 7's per-shard packing plan is bounded by ``target_shard_bytes``
  (the shard census guarantees it), so the driver-side (doc_id ->
  seq) map is a few MB however big the corpus is.  Sequences never
  cross shard boundaries — the standard training-shard contract.

Reference parity: the reference's pipeline is a single-process
parse->filter->view loop (``/root/reference/src/file_parsing/
filtered_file_reader.cpp``); this module is that loop re-expressed as
a restartable multi-phase batch composition.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from logray.state.manifest import (check_run_config, partitions_from_parts,
                                   run_resumable)

_MASK63 = np.uint64(0x7FFFFFFFFFFFFFFF)


def warc_partitions(warc_dir: str) -> list[tuple[str, list[str]]]:
    """One partition per ``.warc`` / ``.warc.gz`` file (name-stable ids,
    same scheme as :func:`logray.state.manifest.default_partitions`)."""
    import re

    files = sorted(glob.glob(os.path.join(warc_dir, "*.warc"))
                   + glob.glob(os.path.join(warc_dir, "*.warc.gz")))
    out = []
    for f in files:
        base = os.path.basename(f)
        tag = hashlib.sha1(base.encode()).hexdigest()[:8]
        safe = re.sub(r"[^A-Za-z0-9_.-]", "_", base)
        out.append((f"p-{safe}-{tag}", [f]))
    return out


def _doc_ids(record_ids) -> pa.Array:
    """Deterministic int64 doc id from the (unique) WARC record id."""
    from logray.functions.fingerprint import content_hash

    h = content_hash(record_ids) & _MASK63
    return pa.array(h.astype(np.int64), pa.int64())


def read_crawl_output(out_root: str):
    """The final packed training set as a Dataset (whatever phases have
    committed so far; a finished run returns the full set)."""
    import ray.data as rd

    from logray.state.manifest import committed_files

    return rd.read_parquet(committed_files(os.path.join(out_root, "07_pack")))


def run_crawl_pipeline(
    warc_dir: str,
    out_root: str,
    eval_path: str | None = None,
    robots: dict[str, str] | None = None,
    agent: str = "*",
    quality: bool = True,
    min_line_len: int = 1,
    num_buckets: int = 16,
    num_perm: int = 64,
    bands: int = 16,
    k_shingle: int = 5,
    threshold: float = 0.7,
    decontam_n: int = 5,
    bpe_path: str | None = None,
    vocab_size: int = 512,
    pack_budget: int = 2048,
    target_shard_bytes: int = 256 << 20,
    seed: int = 1,
    max_concurrent: int = 4,
    _fault=None,
) -> dict:
    """Run (or resume) the full crawl -> training-set composition.

    Returns merged metrics per phase plus the final output dir.
    ``max_concurrent`` partitions of every phase run at once from
    driver threads (a single WARC file reads as ONE block, so
    concurrent partitions are what fill the cluster); it is a purely
    physical knob — results are identical at any value — and is
    therefore NOT part of the pinned run config.  ``_fault(phase,
    part_id)`` is the test-only crash-injection hook, forwarded into
    every sub-chain."""
    import ray
    import ray.data as rd

    from logray.functions.decontam import (build_contamination_index,
                                           drop_contaminated)
    from logray.functions.dedup_resumable import near_dedup_resumable
    from logray.functions.linededup_resumable import dedup_lines_resumable
    from logray.functions.packing import pack_documents
    from logray.functions.pii import redact_pii_table
    from logray.functions.quality import quality_table
    from logray.functions.robots import robots_filter
    from logray.functions.shards import (read_rebalanced,
                                         rebalance_shards_resumable)
    from logray.functions.textclean import html_to_text_table
    from logray.functions.tokenize import tokenize_bpe
    from logray.sources.warc import read_warc
    from logray.state.artifacts import load_bpe, save_bpe

    robots_tag = hashlib.sha1(json.dumps(
        sorted((robots or {}).items())).encode()).hexdigest()[:16]
    check_run_config(out_root, {
        "op": "crawl_pipeline", "eval_path": eval_path,
        "robots_sha": robots_tag, "agent": agent, "quality": quality,
        "min_line_len": min_line_len, "num_buckets": num_buckets,
        "num_perm": num_perm, "bands": bands, "k_shingle": k_shingle,
        "threshold": threshold, "decontam_n": decontam_n,
        "bpe_path": bpe_path, "vocab_size": vocab_size,
        "pack_budget": pack_budget,
        "target_shard_bytes": int(target_shard_bytes), "seed": seed,
    })

    metrics: dict = {}

    # --- phase 1: extract + gate + redact, per WARC file -----------------
    d1 = os.path.join(out_root, "01_extract")

    def run_extract(files, pdir):
        def prep(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["warc_type"], "response"))
            payload = pc.fill_null(t["payload"], b"")
            try:
                text = pc.cast(payload, pa.string())
            except pa.ArrowInvalid:
                # a crawl batch with ONE invalid-UTF-8 page must not
                # kill the partition: lossy-decode the batch instead
                if isinstance(payload, pa.ChunkedArray):
                    payload = payload.combine_chunks()
                text = pa.array(
                    [bytes(v).decode("utf-8", errors="replace")
                     for v in payload], pa.string())
            tt = pa.table({
                "doc_id": _doc_ids(t["record_id"]),
                "url": t["url"],
                "ts": t["ts"],
                "text": text,
            })
            tt = html_to_text_table(tt, col="text", out_col="clean",
                                    count_tags=False)
            tt = tt.drop_columns(["text"]).rename_columns(
                ["doc_id", "url", "ts", "text"])
            if quality:
                # quality_table rows align 1:1 (text is never null here)
                q = quality_table(tt, col="text", id_col="doc_id")
                tt = tt.filter(q["gopher_pass"])
            return redact_pii_table(tt, col="text")

        ds = read_warc(files).map_batches(
            prep, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None)
        if robots:
            ds = robots_filter(ds, robots, url_col="url", agent=agent)
        ds = ds.materialize()
        ds.write_parquet(pdir)
        return {"rows": ds.count()}

    metrics["extract"] = run_resumable(
        warc_dir, d1, run_extract, partitions=warc_partitions(warc_dir),
        max_concurrent=max_concurrent, phase="extract", _fault=_fault)

    # --- phase 2: exact line dedup (C4) ----------------------------------
    d2 = os.path.join(out_root, "02_linededup")
    metrics["linededup"] = dedup_lines_resumable(
        d1, d2, id_col="doc_id", text_col="text", min_len=min_line_len,
        num_buckets=num_buckets, partitions=partitions_from_parts(d1),
        max_concurrent=max_concurrent, _fault=_fault)

    # --- phase 3: MinHash+LSH near-dedup closure --------------------------
    d3 = os.path.join(out_root, "03_neardedup")
    metrics["neardedup"] = near_dedup_resumable(
        os.path.join(d2, "deduped"), d3, text_col="text", id_col="doc_id",
        num_perm=num_perm, bands=bands, k=k_shingle, threshold=threshold,
        seed=seed,
        partitions=partitions_from_parts(os.path.join(d2, "deduped")),
        max_concurrent=max_concurrent, _fault=_fault)
    d3_out = os.path.join(d3, "deduped")

    # --- phase 4: eval-set decontamination --------------------------------
    if eval_path is not None:
        d4 = os.path.join(out_root, "04_decontam")
        idx_dir = os.path.join(d4, "index")

        def run_index(_files, pdir):
            idx = build_contamination_index(
                rd.read_parquet(eval_path), col="text", n=decontam_n)
            import pyarrow.parquet as pq

            pq.write_table(pa.table({"h": pa.array(idx, pa.uint64())}),
                           os.path.join(pdir, "index.parquet"))
            return {"grams": int(len(idx))}

        run_resumable(eval_path, idx_dir, run_index,
                      partitions=[("index", [])], phase="decontam_index",
                      _fault=_fault)
        import pyarrow.parquet as pq

        idx = pq.read_table(os.path.join(
            idx_dir, "parts", "index", "index.parquet"))["h"] \
            .to_numpy(zero_copy_only=False).astype(np.uint64)
        idx_ref = ray.put(idx)
        filt_dir = os.path.join(d4, "filtered")

        def run_decontam(files, pdir):
            ds = drop_contaminated(
                rd.read_parquet(files), idx_ref, col="text",
                n=decontam_n).materialize()
            ds.write_parquet(pdir)
            return {"rows": ds.count()}

        metrics["decontam"] = run_resumable(
            d3_out, filt_dir, run_decontam,
            partitions=partitions_from_parts(d3_out),
            max_concurrent=max_concurrent, phase="decontam", _fault=_fault)
        d4_out = filt_dir
    else:
        d4_out = d3_out

    # --- phase 5: BPE tokenization ----------------------------------------
    d5 = os.path.join(out_root, "05_tokenize")
    bpe_dir = os.path.join(d5, "bpe")

    def run_bpe(_files, pdir):
        if bpe_path is not None:
            bpe = load_bpe(bpe_path)
        else:
            from logray.functions.tokenize import train_bpe_on_dataset

            bpe = train_bpe_on_dataset(
                rd.read_parquet(
                    [f for _, fs in partitions_from_parts(d4_out)
                     for f in fs],
                    columns=["text"]),
                text_col="text", vocab_size=vocab_size)
        save_bpe(bpe, os.path.join(pdir, "bpe.json"))
        return {"vocab_size": vocab_size}

    run_resumable(d4_out, bpe_dir, run_bpe, partitions=[("bpe", [])],
                  phase="bpe", _fault=_fault)
    bpe = load_bpe(os.path.join(bpe_dir, "parts", "bpe", "bpe.json"))
    bpe_ref = ray.put(bpe.to_json())
    tok_dir = os.path.join(d5, "tokens")

    def run_tokenize(files, pdir):
        ds = tokenize_bpe(rd.read_parquet(files), bpe_ref,
                          text_col="text").materialize()
        ds.write_parquet(pdir)
        return {"rows": ds.count(),
                "tokens": int(ds.sum("n_tokens") or 0)}

    metrics["tokenize"] = run_resumable(
        d4_out, tok_dir, run_tokenize,
        partitions=partitions_from_parts(d4_out),
        max_concurrent=max_concurrent, phase="tokenize", _fault=_fault)

    # --- phase 6: byte-balanced hash shards --------------------------------
    d6 = os.path.join(out_root, "06_shards")
    metrics["shards"] = rebalance_shards_resumable(
        tok_dir, d6, target_bytes=target_shard_bytes, id_col="doc_id",
        byte_cols=["text"], seed=seed,
        partitions=partitions_from_parts(tok_dir),
        max_concurrent=max_concurrent, _fault=_fault)
    n_shards = int(metrics["shards"]["n_shards"])

    # --- phase 7: per-shard concat-and-cut packing -------------------------
    d7 = os.path.join(out_root, "07_pack")

    def run_pack(shard_ids, pdir):
        s = int(shard_ids[0])
        try:
            ds = read_rebalanced(d6, shard=s)
        except FileNotFoundError:
            return {"rows": 0}  # hash landed no docs in this shard
        ds = ds.drop_columns(["text"])  # keep `shard` in the output
        plan = pack_documents(ds, pack_budget, id_col="doc_id",
                              len_col="n_tokens")
        # shard-bounded by target_shard_bytes: the (doc_id -> seq) map
        # fits on the driver by construction
        import pandas as pd

        pdf = pd.concat(
            [b.to_pandas() for b in plan.iter_batches(
                batch_size=None, batch_format="pyarrow")],
            ignore_index=True).sort_values("doc_id")
        ids = pdf["doc_id"].to_numpy(np.int64)
        seq_id = pdf["seq_id"].to_numpy(np.int64)
        seq_off = pdf["seq_offset"].to_numpy(np.int64)
        ref = ray.put((ids, seq_id, seq_off))

        def attach(t: pa.Table) -> pa.Table:
            a_ids, a_seq, a_off = ray.get(ref)
            pos = np.searchsorted(a_ids, t["doc_id"].to_numpy(
                zero_copy_only=False).astype(np.int64))
            t = t.append_column("seq_id", pa.array(a_seq[pos]))
            return t.append_column("seq_offset", pa.array(a_off[pos]))

        out = ds.map_batches(attach, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()
        out.write_parquet(pdir)
        return {"rows": out.count()}

    metrics["pack"] = run_resumable(
        d6, d7, run_pack,
        partitions=[(f"shard{k:05d}", [k]) for k in range(n_shards)],
        max_concurrent=max_concurrent, phase="pack", _fault=_fault)
    metrics["output_dir"] = d7
    return metrics
