"""Command-line surface mirroring the reference's interactive verbs.

The reference's TUI commands (/root/reference/src/frontends/term/src/modules)
map to batch CLI verbs:

| reference            | logray CLI                                   |
|----------------------|----------------------------------------------|
| ``:fset EXPR``       | ``filter set PROFILE EXPR``                  |
| ``:fadd/:fand EXPR`` | ``filter and PROFILE EXPR``                  |
| ``:for/:fxor/:fnor`` | ``filter or|xor|nor PROFILE EXPR``           |
| ``:fout EXPR``       | ``filter out PROFILE EXPR`` (invert + AND)   |
| ``:fclear``          | ``filter clear PROFILE``                     |
| ``:?text`` search    | ``search INPUT NEEDLE [--from C:T]``         |
| view / paging        | ``view INPUT [-n N] [--from C:T]``           |
| ``:cfg set k=v``     | ``cfg set PROFILE k=v``                      |
| (pipelines)          | ``run --input ... --out ...``                |
| (aggregates)         | ``stats INPUT``                              |
| (training-data ops)  | ``dedup INPUT --out DIR``, ``textstats INPUT`` |

Input may be a transcript Parquet path/directory or a raw ``.log`` file
(read via the rawlog source, one conversation per file).  The CLI owns the
Ray session (guarded init + shutdown); library code never calls ray.init.
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = dict(address="local", include_dashboard=False, logging_level="ERROR")
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def _load_input(path: str):
    from logray.sources.rawlog import log_file_to_transcripts
    from logray.sources.transcripts import read_transcripts

    if path.endswith(".log") or path.endswith(".txt"):
        return log_file_to_transcripts(path)
    return read_transcripts(path)


def _view_for(ds, fmt_str: str, filter_expr: str, accept_bad: bool):
    from logray.filters import EvalContext
    from logray.formats import LineFormat
    from logray.stages.parse import parse_stage
    from logray.stages.route import Route, Router, route_datasets

    fmt = LineFormat.from_format_string(fmt_str)
    parsed = parse_stage(ds, fmt_str)
    router = Router(
        [Route.from_decl("view", filter_expr, fmt, accept_bad)
         if filter_expr else Route("view", None, accept_bad)],
        ctx=EvalContext(text_col="text", line_col="turn_idx"),
    )
    return route_datasets(parsed, router)["view"]


def _parse_from(s: str | None):
    if not s:
        return None
    conv, _, turn = s.rpartition(":")
    return (conv, int(turn))


def _profile_ctx(args):
    from logray.state.profiles import ProfileStore

    return ProfileStore(getattr(args, "config", None))


def cmd_view(args) -> int:
    _init_ray(args.num_cpus)
    from logray.stages.reassemble import preview

    view = _view_for(_load_input(args.input), args.format, args.filter or "", args.accept_bad)
    df = preview(view, n=args.n, from_key=_parse_from(args.from_key),
                 backward=getattr(args, "backward", False))
    print(df.to_string(index=False))
    return 0


def cmd_stats(args) -> int:
    _init_ray(args.num_cpus)
    from logray.stages.aggregate import multi_histogram

    view = _view_for(_load_input(args.input), args.format, args.filter or "", args.accept_bad)
    available = set(view.schema().names)
    cols = [c for c in ("role", "Level", "well_formatted") if c in available] or ["role"]
    hists = multi_histogram(view, cols, ts_col=None)
    out = {
        "rows": int(sum(hists[list(hists)[0]]["n"])) if hists else 0,
        "histograms": {k: dict(zip(v[k], v["n"].astype(int))) for k, v in hists.items()},
    }
    print(json.dumps(out, indent=2, default=str))
    return 0


def cmd_search(args) -> int:
    _init_ray(args.num_cpus)
    from logray.stages.search import find_next_occurrence

    view = _view_for(_load_input(args.input), args.format, args.filter or "", args.accept_bad)
    hit = find_next_occurrence(
        view,
        args.needle,
        from_key=_parse_from(args.from_key),
        forward=not args.backward,
        inclusive=args.inclusive,
        with_local_ordinal=True,
    )
    print(json.dumps(hit if hit is not None else {"found": False}, default=str))
    return 0 if hit is not None else 1


def cmd_filter(args) -> int:
    """Filter management on a stored profile (filter_management_module.cpp)."""
    from logray.filters import BitwiseOp, CombinedFilter, parse_filter_decl
    from logray.formats import LineFormat
    from logray.state.profiles import KEY_FILTER, KEY_LINE_FORMAT

    store = _profile_ctx(args)
    fmt = LineFormat.from_format_string(
        store.get(args.profile, KEY_LINE_FORMAT, "{STR:,0}")
    )
    current_s = store.get(args.profile, KEY_FILTER, "")
    current = parse_filter_decl(current_s, fmt) if current_s else None

    op_map = {"and": BitwiseOp.AND, "or": BitwiseOp.OR, "xor": BitwiseOp.XOR, "nor": BitwiseOp.NOR}
    verb = args.verb
    if verb == "clear":
        new = None
    elif verb == "set":
        new = parse_filter_decl(args.expr, fmt)
    elif verb == "show":
        print(current.to_string() if current else "")
        return 0
    elif verb == "out":
        # :fout = invert the new filter then AND with the current one
        flt = parse_filter_decl(args.expr, fmt)
        flt.invert()
        new = CombinedFilter(current, flt, BitwiseOp.AND) if current else flt
    else:
        flt = parse_filter_decl(args.expr, fmt)
        new = CombinedFilter(current, flt, op_map[verb]) if current else flt
    store.set(args.profile, KEY_FILTER, new.to_string() if new else "")
    store.save(args.profile)
    print(new.to_string() if new else "")
    return 0


def cmd_cfg(args) -> int:
    store = _profile_ctx(args)
    if args.action == "set":
        k, _, v = args.kv.partition("=")
        store.set(args.profile, k, v)
        store.save(args.profile)
    else:
        print(store.get(args.profile, args.kv))
    return 0


def cmd_dedup(args) -> int:
    """Near-dedup a document parquet: MinHash-LSH pairs -> components ->
    keep-min; writes the kept rows as parquet and prints a summary.
    With --resumable the run goes through the manifest-checkpointed
    4-phase closure and can be restarted after a crash."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from logray.functions.dedup import dedup_keep_min, minhash_lsh_dedup

    if args.resumable:
        from logray.functions.dedup_resumable import near_dedup_resumable

        metrics = near_dedup_resumable(
            args.input, args.out, text_col=args.text_col, id_col=args.id_col,
            threshold=args.threshold,
        )
        print(json.dumps(metrics, default=str))
        return 0

    ds = rd.read_parquet(args.input)
    pairs = minhash_lsh_dedup(
        ds, text_col=args.text_col, id_col=args.id_col,
        threshold=args.threshold, distinct=False,
    )
    kept = dedup_keep_min(ds, pairs, id_col=args.id_col)
    kept.write_parquet(args.out)
    n_in, n_out = ds.count(), rd.read_parquet(args.out).count()
    print(json.dumps({"rows_in": n_in, "rows_kept": n_out, "dropped": n_in - n_out}))
    return 0


def cmd_sample(args) -> int:
    """Seeded deterministic sample of a parquet table: uniform Bernoulli
    (hash of the id column) or bottom-k reservoir per key."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from logray.functions.sample import reservoir_per_key, sample_uniform

    ds = rd.read_parquet(args.input)
    if args.per_key:
        out = reservoir_per_key(ds, args.per_key, args.n, args.id_col, seed=args.seed)
    else:
        out = sample_uniform(ds, args.p, args.id_col, seed=args.seed)
    out.write_parquet(args.out)
    print(json.dumps({
        "rows_in": ds.count(),
        "rows_out": rd.read_parquet(args.out).count(),
        "mode": f"per_key:{args.per_key}" if args.per_key else f"uniform:{args.p}",
        "seed": args.seed,
    }))
    return 0


def cmd_spandedup(args) -> int:
    """Duplicate-substring removal (Lee et al. ExactSubstr, word-level):
    cut every corpus-duplicated word n-gram span from every document."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from logray.functions.spandedup import dedup_spans

    ds = rd.read_parquet(args.input)
    out = dedup_spans(ds, id_col=args.id_col, text_col=args.text_col,
                      window=args.window)
    out.write_parquet(args.out)
    removed = 0
    for b in rd.read_parquet(args.out, columns=["n_removed"]).iter_batches(
            batch_format="pyarrow"):
        removed += sum(b["n_removed"].to_pylist())
    print(json.dumps({"rows": ds.count(), "tokens_removed": removed,
                      "window": args.window}))
    return 0


def cmd_funnel(args) -> int:
    """Ordered funnel completion per key over an event parquet."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from logray.stages.sequence import funnel

    ds = rd.read_parquet(args.input)
    out = funnel(ds, args.key_col, args.order_col, args.val_col,
                 args.stages.split(","))
    counts = out["stage_reached"].value_counts().sort_index()
    print(json.dumps({f"stage_{int(k)}": int(v) for k, v in counts.items()}))
    return 0


def cmd_resample(args) -> int:
    """OHLC time-series resample of an event parquet to fixed bars."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from logray.stages.window import resample_ohlc

    ds = rd.read_parquet(args.input)
    out = resample_ohlc(ds, args.key_col, ts_col=args.ts_col,
                        val_col=args.val_col, tiebreak_col=args.id_col,
                        width_s=args.width_s, as_pandas=False)
    out.write_parquet(args.out)
    print(json.dumps({"bars": rd.read_parquet(args.out).count(),
                      "width_s": args.width_s, "key": args.key_col}))
    return 0


def cmd_graph(args) -> int:
    """Web-graph analytics over an edge parquet (src, dst int64 columns):
    degrees / components / pagerank / hits / hits-fp / kcore /
    triangles."""
    _init_ray(args.num_cpus)
    import os

    import ray.data as rd

    if args.op != "triangles":
        if not args.out:
            print("graph: --out is required for ops that write "
                  "(degrees/components/pagerank/hits/hits-fp/kcore)",
                  file=sys.stderr)
            return 2
        if os.path.isdir(args.out) and os.listdir(args.out):
            print(f"graph: --out {args.out} exists and is non-empty; "
                  "refusing to mix outputs", file=sys.stderr)
            return 2
    ds = rd.read_parquet(args.input, columns=[args.src_col, args.dst_col])
    if args.op == "degrees":
        from logray.functions.graph import degree_table

        out = degree_table(ds, src=args.src_col, dst=args.dst_col)
        out.write_parquet(args.out)
        print(json.dumps({"nodes": rd.read_parquet(args.out).count()}))
    elif args.op == "components":
        from logray.functions.graph import connected_components_graph

        out = connected_components_graph(ds, src=args.src_col,
                                         dst=args.dst_col,
                                         checkpoint=args.checkpoint)
        out.write_parquet(args.out)
        lab = rd.read_parquet(args.out)
        print(json.dumps({"nodes": lab.count(),
                          "components": len(lab.unique("component"))}))
    elif args.op == "pagerank":
        from logray.functions.graph import pagerank

        out = pagerank(ds, src=args.src_col, dst=args.dst_col,
                       damping=args.damping, n_iter=args.n_iter,
                       checkpoint=args.checkpoint)
        out.write_parquet(args.out)
        print(json.dumps({"nodes": rd.read_parquet(args.out).count(),
                          "n_iter": args.n_iter, "damping": args.damping}))
    elif args.op == "kcore":
        from logray.functions.graph import kcore_members

        out = kcore_members(ds, args.k, src=args.src_col,
                            dst=args.dst_col)
        out.write_parquet(args.out)
        print(json.dumps({"nodes": rd.read_parquet(args.out).count(),
                          "k": args.k}))
    elif args.op in ("hits", "hits-fp"):
        from logray.functions.graph import hits, hits_fixedpoint

        fn = hits if args.op == "hits" else hits_fixedpoint
        out = fn(ds, src=args.src_col, dst=args.dst_col,
                 n_iter=args.n_iter, checkpoint=args.checkpoint)
        out.write_parquet(args.out)
        print(json.dumps({"nodes": rd.read_parquet(args.out).count(),
                          "n_iter": args.n_iter}))
    else:  # triangles
        from logray.functions.graph import triangle_count

        n = triangle_count(ds, src=args.src_col,
                           dst=args.dst_col).take_all()[0]["triangles"]
        print(json.dumps({"triangles": int(n)}))
    return 0


def cmd_curriculum(args) -> int:
    """Training-curriculum order for a document parquet: NTILE score bins
    + seeded deterministic in-bin shuffle; writes (id, bin, rank)."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from logray.functions.curriculum import curriculum_order

    ds = rd.read_parquet(args.input)
    out = curriculum_order(ds, args.score_col, args.id_col,
                           n_bins=args.bins, seed=args.seed)
    out.write_parquet(args.out)
    print(json.dumps({"rows": rd.read_parquet(args.out).count(),
                      "bins": args.bins, "seed": args.seed}))
    return 0


def cmd_collocations(args) -> int:
    """PMI phrase mining over a document parquet: top adjacent bigrams
    with counts + PMI, written as one small parquet."""
    _init_ray(args.num_cpus)
    import pyarrow.parquet as pq
    import ray.data as rd

    from logray.functions.collocations import pmi_collocations
    from logray.state.manifest import publish

    ds = rd.read_parquet(args.input, columns=[args.text_col])
    out = pmi_collocations(ds, args.text_col, min_count=args.min_count,
                           n_top=args.top)
    publish(args.out, lambda tmp: pq.write_table(out, tmp))
    print(json.dumps({"pairs": out.num_rows, "min_count": args.min_count}))
    return 0


def cmd_rebalance(args) -> int:
    """Rewrite a parquet table as byte-balanced hive shards
    (shard=K/ directories of ~target bytes of payload each)."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from logray.functions.shards import rebalance_shards

    ds = rd.read_parquet(args.input)
    n = rebalance_shards(ds, args.out, target_bytes=args.target_bytes,
                         id_col=args.id_col, seed=args.seed)
    print(json.dumps({"shards": n, "target_bytes": args.target_bytes}))
    return 0


def cmd_extract_html(args) -> int:
    """HTML -> text extraction (web-crawl stage 0): strip markup via
    the RE2 step chain, add the n_tags markup-density signal."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from logray.functions.textclean import html_to_text

    ds = rd.read_parquet(args.input)
    html_to_text(ds, col=args.text_col, out_col=args.out_col) \
        .write_parquet(args.out)
    print(json.dumps({"rows": ds.count(), "out": args.out}))
    return 0


def cmd_snapshot_diff(args) -> int:
    """added/removed/changed doc ids between two corpus snapshots
    (ids + 128-bit text fingerprints meet in one exchange; text never
    shuffles)."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from logray.functions.snapshot import snapshot_diff

    out = snapshot_diff(rd.read_parquet(args.old),
                        rd.read_parquet(args.new),
                        id_col=args.id_col, text_col=args.text_col)
    out.write_parquet(args.out)
    counts = {}
    for b in rd.read_parquet(args.out, columns=["status"]) \
               .iter_batches(batch_format="pandas"):
        for s, n in b["status"].value_counts().items():
            counts[s] = counts.get(s, 0) + int(n)
    print(json.dumps(counts, sort_keys=True))
    return 0


def cmd_bm25_build(args) -> int:
    """Build (or append to) the persistent BM25 inverted index."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from logray.functions.indexbase import read_meta
    from logray.functions.search_text import build_text_index

    ds = rd.read_parquet(args.input, columns=[args.id_col, args.text_col])
    build_text_index(ds, args.index, col=args.text_col,
                     id_col=args.id_col, num_shards=args.shards)
    meta = read_meta(args.index, "bm25 inverted index")
    print(json.dumps({"n_docs": meta["n_docs"],
                      "n_tokens": meta["n_tokens"],
                      "num_shards": meta["num_shards"]}))
    return 0


def cmd_compact_index(args) -> int:
    """Compact an append-accumulated persistent index (fingerprint /
    band / BM25 / IVF) into one file per shard in a fresh directory."""
    _init_ray(args.num_cpus)
    from logray.functions.indexbase import compact_index

    stats = compact_index(args.index, args.out)
    print(json.dumps(stats))
    return 0


def cmd_bm25_search(args) -> int:
    """Top-k docs for a query from the persistent index (path-pruned)."""
    _init_ray(args.num_cpus)
    from logray.functions.search_text import bm25_search_index

    out = bm25_search_index(args.index, [(0, args.query)], k=args.k)
    print(out[["doc_id", "score", "rank"]].to_json(orient="records"))
    return 0


def cmd_score(args) -> int:
    """Model-score a document parquet (load-once actor pool)."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from logray.functions.modelscore import model_score_stage

    ds = rd.read_parquet(args.input)
    from ray.data.aggregate import Count, Max, Mean, Min

    # stream the scored corpus straight to the sink (no full-width
    # materialize pinning the whole corpus in the object store), then
    # compute the summary from the written files — a columnar re-read of
    # the one score column, not a second scoring pass
    model_score_stage(ds, text_col=args.text_col).write_parquet(args.out)
    stats = rd.read_parquet(args.out, columns=["model_score"]).aggregate(
        Count(alias_name="rows"),
        Min("model_score", alias_name="min"),
        Max("model_score", alias_name="max"),
        Mean("model_score", alias_name="mean"),
    )
    print(json.dumps({"rows": int(stats.pop("rows")),
                      **{k: float(v) for k, v in stats.items()}}))
    return 0


def cmd_textstats(args) -> int:
    """Language-ID / quality / token stats for a document parquet."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from logray.functions.textstats import text_stats
    from logray.stages.aggregate import multi_histogram

    ds = text_stats(rd.read_parquet(args.input), text_col=args.text_col)
    hists = multi_histogram(ds, ["lang_id"], ts_col=None)
    out = {"langs": dict(zip(hists["lang_id"]["lang_id"], hists["lang_id"]["n"].astype(int)))}
    if args.out:
        ds.write_parquet(args.out)
        out["written"] = args.out
    print(json.dumps(out, default=str))
    return 0


def cmd_curate(args) -> int:
    """Run the composed curation stack over a document parquet: PII
    redaction -> banned-wordlist gate -> optional trained-classifier
    scoring -> optional LM perplexity, streamed straight to the sink
    (every stage is row-local, so the whole chain fuses with the read)."""
    _init_ray(args.num_cpus)
    import ray.data as rd

    from logray.functions.pii import redact_pii
    from logray.functions.quality import wordlist_filter

    ds = rd.read_parquet(args.input)
    # input column names from parquet metadata — NOT ds.schema() on the
    # built-up pipeline, which would execute part of it just for names
    in_cols = list(ds.schema().names)
    appended = []
    ds = redact_pii(ds, col=args.text_col)
    if args.badwords:
        with open(args.badwords) as f:
            words = [w for w in f.read().split() if w]
        if not words:
            print(f"note: badwords file {args.badwords} is empty; "
                  "skipping the wordlist stage", file=sys.stderr)
        else:
            ds = wordlist_filter(ds, words, col=args.text_col,
                                 mode=args.badwords_mode)
            if args.badwords_mode == "flag":
                appended.append("n_banned")
    if args.classifier:
        from logray.functions.classifier import score_logreg
        from logray.state.artifacts import load_logreg

        ds = score_logreg(ds, load_logreg(args.classifier),
                          text_col=args.text_col)
        appended += ["quality_prob", "quality_pred"]
    if args.lm:
        from logray.functions.lm import lm_perplexity
        from logray.state.artifacts import load_ngram_lm

        keep = tuple(c for c in in_cols + appended
                     if c not in (args.id_col, args.text_col))
        ds = lm_perplexity(ds, load_ngram_lm(args.lm), id_col=args.id_col,
                           text_col=args.text_col, keep_cols=keep)
    ds.write_parquet(args.out)
    n = rd.read_parquet(args.out).count()  # metadata-only row count
    print(json.dumps({"rows": int(n), "written": args.out}))
    return 0


def cmd_crawl(args) -> int:
    """Run (or resume) the end-to-end crawl -> training-set composition
    over a WARC archive: extract+gate+redact -> line dedup -> near-dup
    closure -> decontam -> BPE tokenize -> byte shards -> packed
    sequences.  Every phase is manifest-checkpointed under --out, so
    re-running the same command after a crash skips finished work and
    produces byte-identical shards (see logray/pipelines/crawl.py)."""
    _init_ray(args.num_cpus)
    from logray.pipelines.crawl import run_crawl_pipeline

    robots = None
    if args.robots:
        with open(args.robots) as f:
            robots = json.load(f)
        if not isinstance(robots, dict):
            print("error: --robots must be a JSON object of "
                  "host -> robots.txt text", file=sys.stderr)
            return 2
    m = run_crawl_pipeline(
        args.warc_dir, args.out, eval_path=args.eval, robots=robots,
        agent=args.agent, quality=not args.no_quality,
        num_buckets=args.buckets, vocab_size=args.vocab_size,
        pack_budget=args.pack_budget,
        target_shard_bytes=args.target_shard_bytes, seed=args.seed,
        max_concurrent=args.max_concurrent)
    print(json.dumps(m))
    return 0


def cmd_run(args) -> int:
    _init_ray(args.num_cpus)
    from logray.formats import GOLDEN_FORMAT
    from logray.pipelines import PipelineConfig, run_pipeline

    if args.pipeline_config:
        with open(args.pipeline_config) as f:
            raw = json.load(f)
        cfg = PipelineConfig(
            format_string=raw.get("format_string", GOLDEN_FORMAT),
            routes=[tuple(r) for r in raw.get("routes", [])],
            default_route=raw.get("default_route"),
            normalize=raw.get("normalize", False),
            enrich=raw.get("enrich", True),
        )
    else:
        cfg = PipelineConfig(format_string=args.format, routes=[("all", "", True)])
    metrics = run_pipeline(_load_input(args.input), cfg, args.out)
    print(json.dumps(metrics, indent=2, default=str))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="logray")
    p.add_argument("--num-cpus", type=int, default=None)
    p.add_argument("--config", help="profile store path (default ~/.logray)")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common_io(sp):
        sp.add_argument("input")
        sp.add_argument("--format", default="{STR:Line}")
        sp.add_argument("--filter", default="")
        sp.add_argument("--accept-bad", action="store_true")

    sp = sub.add_parser("view", help="preview the filtered ordered view")
    common_io(sp)
    sp.add_argument("-n", type=int, default=20)
    sp.add_argument("--from", dest="from_key", help="CONV:TURN start position")
    sp.add_argument("--backward", action="store_true", help="page backwards from the position")
    sp.set_defaults(fn=cmd_view)

    sp = sub.add_parser("stats", help="counts + histograms of the view")
    common_io(sp)
    sp.set_defaults(fn=cmd_stats)

    sp = sub.add_parser("search", help="find next occurrence in the view")
    common_io(sp)
    sp.add_argument("needle")
    sp.add_argument("--from", dest="from_key")
    sp.add_argument("--backward", action="store_true")
    sp.add_argument("--inclusive", action="store_true")
    sp.set_defaults(fn=cmd_search)

    sp = sub.add_parser("filter", help="profile filter management (:f* verbs)")
    sp.add_argument("verb", choices=["set", "and", "or", "xor", "nor", "out", "clear", "show"])
    sp.add_argument("profile")
    sp.add_argument("expr", nargs="?", default="")
    sp.set_defaults(fn=cmd_filter)

    sp = sub.add_parser("cfg", help="get/set profile config keys")
    sp.add_argument("action", choices=["set", "get"])
    sp.add_argument("profile")
    sp.add_argument("kv", help="key=value for set, key for get")
    sp.set_defaults(fn=cmd_cfg)

    sp = sub.add_parser("dedup", help="near-dedup a document parquet (MinHash-LSH)")
    sp.add_argument("input")
    sp.add_argument("--out", required=True)
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--id-col", default="doc_id")
    sp.add_argument("--threshold", type=float, default=0.8)
    sp.add_argument("--resumable", action="store_true",
                    help="manifest-checkpointed 4-phase run (crash-restartable)")
    sp.set_defaults(fn=cmd_dedup)

    sp = sub.add_parser("sample", help="seeded deterministic sample (uniform or per-key reservoir)")
    sp.add_argument("input")
    sp.add_argument("--out", required=True)
    sp.add_argument("--id-col", required=True, help="integer id column the hash keys off")
    sp.add_argument("-p", type=float, default=0.1, help="uniform keep probability")
    sp.add_argument("--per-key", help="reservoir mode: partition key column")
    sp.add_argument("-n", type=int, default=10, help="reservoir size per key")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=cmd_sample)

    sp = sub.add_parser("span-dedup", help="duplicate-substring removal (ExactSubstr)")
    sp.add_argument("input")
    sp.add_argument("--out", required=True)
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--id-col", default="doc_id")
    sp.add_argument("--window", type=int, default=5)
    sp.set_defaults(fn=cmd_spandedup)

    sp = sub.add_parser("funnel", help="ordered funnel completion per key")
    sp.add_argument("input")
    sp.add_argument("--key-col", required=True)
    sp.add_argument("--order-col", required=True)
    sp.add_argument("--val-col", required=True)
    sp.add_argument("--stages", required=True, help="comma-separated stage values")
    sp.set_defaults(fn=cmd_funnel)

    sp = sub.add_parser("resample", help="OHLC time-series resample to fixed bars")
    sp.add_argument("input")
    sp.add_argument("--out", required=True)
    sp.add_argument("--key-col", default="event_type")
    sp.add_argument("--ts-col", default="ts")
    sp.add_argument("--val-col", default="value")
    sp.add_argument("--id-col", default="event_id")
    sp.add_argument("--width-s", type=float, default=3600.0)
    sp.add_argument("--num-cpus", type=int, default=None)
    sp.set_defaults(fn=cmd_resample)

    sp = sub.add_parser("graph", help="web-graph analytics over an edge parquet")
    sp.add_argument("op", choices=["degrees", "components", "pagerank",
                                   "triangles", "hits", "hits-fp",
                                   "kcore"])
    sp.add_argument("input")
    sp.add_argument("--out", default="")
    sp.add_argument("--src-col", default="src")
    sp.add_argument("--dst-col", default="dst")
    sp.add_argument("--damping", type=float, default=0.85)
    sp.add_argument("--n-iter", type=int, default=20)
    sp.add_argument("--k", type=int, default=2)
    sp.add_argument("--checkpoint", default=None,
                    help="manifest dir for per-iteration snapshot-and-"
                         "resume (pagerank/hits/hits-fp/components)")
    sp.add_argument("--num-cpus", type=int, default=None)
    sp.set_defaults(fn=cmd_graph)

    sp = sub.add_parser("curriculum",
                        help="curriculum order: score bins + seeded in-bin shuffle")
    sp.add_argument("input")
    sp.add_argument("--out", required=True)
    sp.add_argument("--score-col", default="n_chars")
    sp.add_argument("--id-col", default="doc_id")
    sp.add_argument("--bins", type=int, default=10)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--num-cpus", type=int, default=None)
    sp.set_defaults(fn=cmd_curriculum)

    sp = sub.add_parser("collocations",
                        help="PMI phrase mining: top adjacent bigrams")
    sp.add_argument("input")
    sp.add_argument("--out", required=True)
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--min-count", type=int, default=10)
    sp.add_argument("--top", type=int, default=1000)
    sp.add_argument("--num-cpus", type=int, default=None)
    sp.set_defaults(fn=cmd_collocations)

    sp = sub.add_parser("rebalance",
                        help="rewrite as byte-balanced hive shards")
    sp.add_argument("input")
    sp.add_argument("--out", required=True)
    sp.add_argument("--target-bytes", type=int, default=1 << 30)
    sp.add_argument("--id-col", default="doc_id")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--num-cpus", type=int, default=None)
    sp.set_defaults(fn=cmd_rebalance)

    sp = sub.add_parser("extract-html",
                        help="HTML -> text extraction + tag-density signal")
    sp.add_argument("input")
    sp.add_argument("--out", required=True)
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--out-col", default="clean_text")
    sp.set_defaults(fn=cmd_extract_html)

    sp = sub.add_parser("snapshot-diff",
                        help="added/removed/changed docs between snapshots")
    sp.add_argument("old")
    sp.add_argument("new")
    sp.add_argument("--out", required=True)
    sp.add_argument("--id-col", default="doc_id")
    sp.add_argument("--text-col", default="text")
    sp.set_defaults(fn=cmd_snapshot_diff)

    sp = sub.add_parser("bm25-build",
                        help="build/append the persistent BM25 index")
    sp.add_argument("input")
    sp.add_argument("--index", required=True)
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--id-col", default="doc_id")
    sp.add_argument("--shards", type=int, default=64)
    sp.set_defaults(fn=cmd_bm25_build)

    sp = sub.add_parser("compact-index",
                        help="compact a persistent index into one file "
                             "per shard (fresh destination dir)")
    sp.add_argument("index")
    sp.add_argument("--out", required=True)
    sp.set_defaults(fn=cmd_compact_index)

    sp = sub.add_parser("bm25-search",
                        help="top-k docs for a query from the BM25 index")
    sp.add_argument("query")
    sp.add_argument("--index", required=True)
    sp.add_argument("-k", type=int, default=10)
    sp.set_defaults(fn=cmd_bm25_search)

    sp = sub.add_parser("score", help="model-score documents (load-once actor pool)")
    sp.add_argument("input")
    sp.add_argument("--out", required=True)
    sp.add_argument("--text-col", default="text")
    sp.set_defaults(fn=cmd_score)

    sp = sub.add_parser("textstats", help="language/quality/token stats")
    sp.add_argument("input")
    sp.add_argument("--out")
    sp.add_argument("--text-col", default="text")
    sp.set_defaults(fn=cmd_textstats)

    sp = sub.add_parser(
        "curate", help="PII + badwords + classifier + LM curation stack")
    sp.add_argument("input")
    sp.add_argument("--out", required=True)
    sp.add_argument("--text-col", default="text")
    sp.add_argument("--id-col", default="doc_id")
    sp.add_argument("--badwords", help="file of banned words (whitespace-separated)")
    sp.add_argument("--badwords-mode", choices=["drop", "flag"], default="drop")
    sp.add_argument("--classifier", help="fitted logreg artifact (.npz)")
    sp.add_argument("--lm", help="fitted n-gram LM artifact (.npz)")
    sp.set_defaults(fn=cmd_curate)

    sp = sub.add_parser(
        "crawl", help="resumable crawl -> training-set composition")
    sp.add_argument("warc_dir")
    sp.add_argument("--out", required=True)
    sp.add_argument("--eval", help="eval-set parquet dir (decontamination)")
    sp.add_argument("--robots", help="JSON file: host -> robots.txt text")
    sp.add_argument("--agent", default="*")
    sp.add_argument("--no-quality", action="store_true",
                    help="skip the Gopher quality gate")
    sp.add_argument("--buckets", type=int, default=16)
    sp.add_argument("--vocab-size", type=int, default=512)
    sp.add_argument("--pack-budget", type=int, default=2048)
    sp.add_argument("--target-shard-bytes", type=int, default=256 << 20)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--max-concurrent", type=int, default=4)
    sp.add_argument("--num-cpus", type=int, default=None)
    sp.set_defaults(fn=cmd_crawl)

    sp = sub.add_parser("run", help="run the flagship pipeline")
    sp.add_argument("input")
    sp.add_argument("--out", required=True)
    sp.add_argument("--format", default="{STR:Line}")
    sp.add_argument("--pipeline-config", help="JSON pipeline config file")
    sp.set_defaults(fn=cmd_run)

    args = p.parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError,) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        from logray.filters import FilterError
        from logray.formats import FormatError

        if isinstance(e, (FilterError, FormatError)):
            print(f"error: {e}", file=sys.stderr)
            return 2
        raise
    finally:
        import ray

        if ray.is_initialized():
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
