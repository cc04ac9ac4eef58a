"""Benchmark harness.

Headline: turns/sec through the flagship parse -> enrich -> route ->
aggregate pipeline over a synthetic transcript corpus derived (size-wise)
from the scale factor, plus per-operator timings over the sf tables.

Prints ONE JSON line:
  {"metric": ..., "value": <headline sec>, "unit": "sec",
   "queries": {...per-query sec...}, "sf": ..., "num_cpus": N,
   "rows": ..., "turns_per_sec": ...}

``--scaling`` runs the headline pipeline in two fresh processes
(num_cpus=8 and num_cpus=32 by default) on the same corpus and reports both
throughputs plus scaling efficiency.

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS (default
what ``nproc`` prints), LOGRAY_BENCH_ROWS (override corpus size).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS")
               or subprocess.check_output(["nproc"]))

# corpus sizing: ~32 rows per lineitem row at the given sf (sf0.1 -> ~3.2M
# turns), deterministic and cached on disk between runs
_SF_ROWS = {"sf0.001": 40_000, "sf0.01": 400_000, "sf0.1": 3_200_000}


def _corpus_rows() -> int:
    env = os.environ.get("LOGRAY_BENCH_ROWS")
    if env:
        return int(env)
    tag = os.path.basename(SF_DIR.rstrip("/"))
    return _SF_ROWS.get(tag, 400_000)


def _corpus_path(rows: int) -> str:
    # _f256: sharded layout (~256 files) so read blocks == files and the
    # whole flagship chain fuses into one operator (see ensure_corpus)
    return f"/tmp/logray_bench/corpus_{rows}_f256"


def ensure_corpus(rows: int) -> str:
    """Synthesize (once) a deterministic transcript corpus of ~`rows` turns,
    including a hot conversation holding ~2% of rows (skew exercise)."""
    from logray.sources.transcripts import write_synth_transcripts

    path = _corpus_path(rows)
    marker = os.path.join(path, "_COMPLETE")
    if os.path.exists(marker):
        return path
    shutil.rmtree(path, ignore_errors=True)
    mean_turns = 16
    n_convs = max(rows // (mean_turns + 1), 1)
    write_synth_transcripts(
        path,
        n_convs=n_convs,
        mean_turns=mean_turns,
        seed=42,
        hot_conv_rows=rows // 50,
        # ~256 files: read with override_num_blocks == file count produces
        # one block per file with NO SplitBlocks op, which is the condition
        # for Ray to fuse the read into the downstream map chain (single
        # fused operator, no object-store hop for raw input blocks)
        convs_per_file=max(n_convs // 256, 1),
    )
    open(marker, "w").write("ok")
    return path


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data as rd
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from logray.formats import GOLDEN_FORMAT
    from logray.pipelines import PipelineConfig, run_pipeline

    rows = _corpus_rows()
    corpus = ensure_corpus(rows)

    # warm the page cache so we measure compute + shuffle, not cold disk
    rd.read_parquet(corpus).count()

    timings: dict[str, float] = {}

    def timed(name: str, fn):
        # best-of-2: the VM's noise phases reach 3-6x; a single-shot
        # timing in a bad minute reads as a false regression
        best, out = None, None
        for _ in range(2):
            t0 = time.perf_counter()
            out = fn()
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        timings[name] = round(best, 3)
        return out

    # --- headline: full pipeline over the transcript corpus --------------
    cfg = PipelineConfig(
        format_string=GOLDEN_FORMAT,
        routes=[
            ("info", "Level EQ INFO", False),
            ("trace", "Level EQ TRACE", False),
            ("warn", "Level EQ WARN OR Level EQ EVENT", False),
            ("malformed", "", True),
        ],
    )
    out_dir = "/tmp/logray_bench/out"
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir, exist_ok=True)

    # one block per input file (~256 files = ~8 tasks per CPU at 32): no
    # SplitBlocks, so the read fuses with parse->enrich->route->write into
    # ONE operator — measured 0.61 -> 0.80 scaling efficiency at 8->32.
    # Files are listed LARGEST FIRST (LPT scheduling): the hot-conversation
    # file is ~6x the mean task time, and starting it early hides the
    # straggler tail instead of ending on it.
    import glob

    corpus_files = sorted(
        glob.glob(os.path.join(corpus, "*.parquet")),
        key=os.path.getsize,
        reverse=True,
    )
    nblocks = len(corpus_files) or NUM_CPUS * 8

    def headline():
        ds = rd.read_parquet(corpus_files or corpus, override_num_blocks=nblocks)
        return run_pipeline(ds, cfg, out_dir, write_metrics=False)

    # best-of-3: first run pays one-time warmup (worker start, code import);
    # the VM shows minutes-long 2-3x noise phases, so more samples per
    # process materially stabilize the recorded number
    t0 = time.perf_counter()
    metrics = headline()
    best = time.perf_counter() - t0
    for _ in range(2):
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.perf_counter()
        metrics = headline()
        best = min(best, time.perf_counter() - t0)
    timings["pipeline"] = round(best, 3)
    n_turns = metrics["turns_total"]

    if os.environ.get("LOGRAY_BENCH_ONLY_PIPELINE"):
        ray.shutdown()
        headline_sec = timings["pipeline"]
        return {
            "metric": "flagship parse->enrich->route->aggregate seconds (turns/sec in turns_per_sec)",
            "value": headline_sec,
            "unit": "sec",
            "queries": timings,
            "sf": os.path.basename(SF_DIR.rstrip("/")),
            "num_cpus": NUM_CPUS,
            "rows": n_turns,
            "turns_per_sec": round(n_turns / headline_sec, 1),
        }

    # --- per-operator timings ---------------------------------------------
    from logray.stages.parse import parse_stage

    def parse_only():
        ds = rd.read_parquet(corpus, columns=["text"])
        return parse_stage(ds, GOLDEN_FORMAT).map_batches(
            lambda t: t.select(["well_formatted"]), batch_format="pyarrow"
        ).sum("well_formatted")

    timed("parse_only", parse_only)

    from logray.stages.aggregate import turns_per_conversation

    def turns_agg():
        # driver-fold path (the recommended one at metric cardinalities)
        ds = rd.read_parquet(corpus, columns=["conv_id"])
        return len(turns_per_conversation(ds))

    timed("turns_per_conversation", turns_agg)

    def sort_reassembly():
        ds = rd.read_parquet(corpus, columns=["conv_id", "turn_idx"])
        return ds.sort(["conv_id", "turn_idx"]).count()

    timed("sort_reassembly", sort_reassembly)

    from logray.functions.dedup import minhash_lsh_dedup

    def minhash_docs():
        ds = rd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"])
        return minhash_lsh_dedup(ds, num_perm=64, bands=16, threshold=0.8, distinct=False).count()

    timed("minhash_docs", minhash_docs)

    from logray.functions.textstats import text_stats

    def textstats_corpus():
        ds = rd.read_parquet(corpus, columns=["text"])
        return text_stats(ds).map_batches(
            lambda t: t.select(["quality_score"]), batch_format="pyarrow"
        ).sum("quality_score")

    timed("textstats", textstats_corpus)

    from logray.functions.tokenize import tokenize_bpe, train_bpe_on_dataset

    # vocab trained once on the (small) documents table, then the broadcast
    # apply runs over the full transcript corpus — the realistic shape:
    # train on a sample, tokenize everything
    docs = rd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["text"])
    bpe = train_bpe_on_dataset(docs, vocab_size=512)

    def tokenize_corpus():
        ds = rd.read_parquet(corpus, columns=["text"])
        return tokenize_bpe(ds, bpe).map_batches(
            lambda t: t.select(["n_tokens"]), batch_format="pyarrow"
        ).sum("n_tokens")

    timed("tokenize_bpe", tokenize_corpus)

    from logray.stages.aggregate import exact_quantiles

    def quantiles_corpus():
        ds = rd.read_parquet(f"{SF_DIR}/events.parquet", columns=["value"])
        return exact_quantiles(ds, "value", [0.5, 0.9, 0.99])

    timed("exact_quantiles", quantiles_corpus)

    from logray.functions.spandedup import dedup_spans

    def spandedup_docs():
        ds = rd.read_parquet(f"{SF_DIR}/documents.parquet",
                             columns=["doc_id", "text"])
        return dedup_spans(ds, window=5).map_batches(
            lambda t: t.select(["n_removed"]), batch_format="pyarrow"
        ).sum("n_removed")

    timed("dedup_spans", spandedup_docs)

    from logray.stages.sequence import transition_counts

    def transitions_corpus():
        ds = rd.read_parquet(corpus, columns=["conv_id", "turn_idx", "role"])
        return len(transition_counts(ds, "conv_id", "turn_idx", "role"))

    timed("transition_counts", transitions_corpus)

    from logray.functions.lm import fit_ngram_lm, lm_perplexity

    # LM fitted once on the (small) documents table; the timed run scores
    # the full transcript corpus — train-on-reference, score-everything,
    # the CCNet shape
    lm_fitted = fit_ngram_lm(
        rd.read_parquet(f"{SF_DIR}/documents.parquet", columns=["text"]),
        n=3, dim=1 << 16)

    def lm_score_corpus():
        ds = rd.read_parquet(corpus, columns=["turn_idx", "text"])
        return lm_perplexity(ds, lm_fitted, id_col="turn_idx").map_batches(
            lambda t: t.select(["n_tokens"]), batch_format="pyarrow"
        ).sum("n_tokens")

    timed("lm_score", lm_score_corpus)

    from logray.functions.classifier import fit_logreg, score_logreg

    # quality classifier fitted once on the (small, label-seeded) documents
    # table; the timed run scores every turn of the full corpus — the
    # fastText-filter shape: train on curated labels, score the crawl
    import pyarrow as _pa
    import pyarrow.compute as _pc

    def _seed_labels(t):
        did = t["doc_id"]
        lab = _pc.equal(_pc.subtract(did, _pc.multiply(_pc.divide(did, 3), 3)), 0)
        marked = _pc.if_else(
            lab, _pc.binary_join_element_wise(t["text"], " qgooda qgoodb", ""),
            t["text"])
        return _pa.table({"doc_id": did, "text": marked, "label": lab})

    clf = fit_logreg(
        rd.read_parquet(f"{SF_DIR}/documents.parquet",
                        columns=["doc_id", "text"]).map_batches(
            _seed_labels, batch_format="pyarrow", zero_copy_batch=True,
            batch_size=None),
        "label", dim=4096, epochs=10, lr=5.0, id_col="doc_id",
        features="binary")

    def classifier_score_corpus():
        ds = rd.read_parquet(corpus, columns=["text"])
        return score_logreg(ds, clf, features="binary").map_batches(
            lambda t: t.select(["quality_prob"]), batch_format="pyarrow"
        ).sum("quality_prob")

    timed("classifier_score", classifier_score_corpus)

    # --- OHLC resample: combiner partials + partial-only shuffle ----------
    def resample_corpus():
        from logray.stages.window import resample_ohlc

        ds = rd.read_parquet(corpus, columns=["role", "ts", "turn_idx"])
        return len(resample_ohlc(ds, "role", ts_col="ts",
                                 val_col="turn_idx",
                                 tiebreak_col="turn_idx", width_s=86400.0))

    timed("resample_ohlc", resample_corpus)

    # --- collocation census: the canonical word-count exchange ------------
    def collocations_corpus():
        from logray.functions.collocations import collocation_counts

        ds = rd.read_parquet(corpus, columns=["text"])
        return collocation_counts(ds, "text", min_count=50, n_top=50).num_rows

    timed("collocations", collocations_corpus)

    # --- HTML extraction chain: 15 RE2 passes, row-local -------------------
    # markup-free text is the WORST case for the chain (every pass scans
    # the full payload and replaces nothing)
    def html_extract_corpus():
        from logray.functions.textclean import html_to_text

        ds = rd.read_parquet(corpus, columns=["text"])
        return html_to_text(ds, col="text").map_batches(
            lambda t: t.select(["n_tags"]), batch_format="pyarrow"
        ).sum("n_tags")

    timed("html_extract", html_extract_corpus)

    # --- snapshot diff: two corpus versions through the narrow
    # fingerprint compare (string ids -> content-hash bucket path) --------
    def snapshot_diff_corpus():
        import numpy as _np
        import pyarrow as _pa2
        import pyarrow.compute as _pc2

        from logray.functions.snapshot import snapshot_diff

        def add_id(t):
            rid = _pc2.binary_join_element_wise(
                t["conv_id"], _pc2.cast(t["turn_idx"], _pa2.string()), "#")
            return _pa2.table({"doc_id": rid, "turn_idx": t["turn_idx"],
                               "text": t["text"]})

        def read_old():
            return rd.read_parquet(
                corpus, columns=["conv_id", "turn_idx", "text"]
            ).map_batches(add_id, batch_format="pyarrow",
                          zero_copy_batch=True)

        def mutate(t):
            ti = t["turn_idx"].to_numpy(zero_copy_only=False)
            kt = t.filter(_pa2.array(ti % 97 != 0))
            ch = kt["turn_idx"].to_numpy(zero_copy_only=False) % 89 == 0
            txt = kt["text"]
            if isinstance(txt, _pa2.ChunkedArray):
                txt = txt.combine_chunks()
            v2 = _pc2.binary_join_element_wise(txt, " v2", "")
            return _pa2.table({
                "doc_id": kt["doc_id"],
                "text": _pc2.if_else(_pa2.array(ch), v2, txt)})

        new = read_old().map_batches(mutate, batch_format="pyarrow",
                                     zero_copy_batch=True)
        return snapshot_diff(read_old(), new, "doc_id", "text",
                             num_buckets=64).count()

    timed("snapshot_diff", snapshot_diff_corpus)

    # --- web-graph analytics: edges derived row-locally from the corpus
    # (hash(conv_id) and turn_idx over a fixed node space sized for
    # web-like sparsity — avg total degree ~3 at sf0.1; a dense space
    # quadratically inflates the exact wedge census, which is a property
    # of the input graph, not the engine), then the two representative
    # shapes — iterative actor-exchange PageRank and the degree-oriented
    # triangle count -----------------------------------------------------
    _GRAPH_M = 2_000_003

    def _graph_edges_corpus():
        import numpy as _np
        import pyarrow as _pa3

        from logray.functions.fingerprint import content_hash

        def derive(t):
            h = content_hash(t["conv_id"]).astype(_np.int64) & 0x7FFFFFFFFFFFFFFF
            ti = t["turn_idx"].to_numpy(zero_copy_only=False).astype(_np.int64)
            return _pa3.table({"src": _pa3.array(h % _GRAPH_M),
                               "dst": _pa3.array((h * 31 + ti) % _GRAPH_M)})

        return rd.read_parquet(corpus, columns=["conv_id", "turn_idx"]) \
            .map_batches(derive, batch_format="pyarrow", zero_copy_batch=True)

    def graph_pagerank_corpus():
        from logray.functions.graph import pagerank

        return pagerank(_graph_edges_corpus(), n_iter=5,
                        num_shards=8).count()

    timed("graph_pagerank", graph_pagerank_corpus)

    def graph_triangles_corpus():
        from logray.functions.graph import triangle_count

        return triangle_count(_graph_edges_corpus(),
                              num_buckets=64).take_all()[0]["triangles"]

    timed("graph_triangles", graph_triangles_corpus)

    def graph_hits_fp_corpus():
        from logray.functions.graph import hits_fixedpoint

        return hits_fixedpoint(_graph_edges_corpus(), n_iter=5,
                               num_shards=8).count()

    timed("graph_hits_fp", graph_hits_fp_corpus)

    def graph_components_corpus():
        from logray.functions.graph import connected_components_graph

        return connected_components_graph(_graph_edges_corpus(),
                                          num_shards=8).count()

    timed("graph_components", graph_components_corpus)

    ray.shutdown()

    headline_sec = timings["pipeline"]
    return {
        "metric": "flagship parse->enrich->route->aggregate seconds (turns/sec in turns_per_sec)",
        "value": headline_sec,
        "unit": "sec",
        "queries": timings,
        "sf": os.path.basename(SF_DIR.rstrip("/")),
        "num_cpus": NUM_CPUS,
        "rows": n_turns,
        "turns_per_sec": round(n_turns / headline_sec, 1),
    }


def run_scaling(lo: int = 8, hi: int = 32) -> dict:
    """Same corpus + pipeline at two parallelism levels in fresh processes.

    The scaling corpus is 4x the plain-bench corpus so per-execution fixed
    costs (executor startup, file listing, driver fold) don't mask the
    compute scaling being measured."""
    rows = _corpus_rows() * 4

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu), LOGRAY_BENCH_ROWS=str(rows),
                   LOGRAY_BENCH_ONLY_PIPELINE="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # the sandbox VM shows multi-x run-to-run noise (host CPU sharing);
    # interleave four rounds per level and keep the best of each
    r_lo, r_hi = run(lo), run(hi)
    for _ in range(3):
        r_lo2, r_hi2 = run(lo), run(hi)
        if r_lo2["value"] < r_lo["value"]:
            r_lo = r_lo2
        if r_hi2["value"] < r_hi["value"]:
            r_hi = r_hi2
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    return {
        "metric": "scaling efficiency, same corpus, fresh ray.init per level",
        "cpus_lo": lo,
        "cpus_hi": hi,
        "sec_lo": t_lo,
        "sec_hi": t_hi,
        "turns_per_sec_lo": r_lo["turns_per_sec"],
        "turns_per_sec_hi": r_hi["turns_per_sec"],
        "scaling_efficiency": round(eff, 3),
        "rows": r_hi["rows"],
        "sf": r_hi["sf"],
    }


def _arg(flag: str, default: int) -> int:
    if flag in sys.argv:
        try:
            return int(sys.argv[sys.argv.index(flag) + 1])
        except (IndexError, ValueError):
            raise SystemExit(f"usage: bench.py --scaling [{flag} N]")
    return default


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        # --lo/--hi select the two parallelism levels; the default 8/32
        # measures within one socket, while 2/8 is the multi-node proxy
        # (per-worker memory bandwidth not yet saturated)
        print(json.dumps(run_scaling(_arg("--lo", 8), _arg("--hi", 32))))
    else:
        print(json.dumps(run_bench()))
