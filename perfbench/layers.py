"""The traced run: per-layer metrics for all three workloads.

Spans are recorded from outside logray, around calls into each layer's
public functions.  Flagship layers are timed in the driver on the same input
files the pipeline reads (one file = one Ray block), so their sum can be
set against the pipeline's wall time; what is left is Ray framework time.
Shuffle layers are timed by running the same bucket exchange with a trivial
reducer; graph layers by running PageRank with 5 and with 25 iterations, and
over an empty edge table for the per-call start-up of the shard actors.

Every traced run reports every layer, whichever ``--workload`` it was given;
the workload only selects the untraced run that gives ``wall_s`` and
``rows_per_core_s`` and that the tracing overhead is taken against.
"""

from __future__ import annotations

import inspect
import os
import shutil
import statistics
import time

import pandas as pd
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench.reference import PAGERANK_ITERS
from perfbench.workloads import WORKLOADS, Clock, Reassemble, Tracer, collect, read

UNITS = {
    "read.ns_per_row": "ns",
    "parse.ns_per_row": "ns",
    "parse.interp_ns_per_row": "ns",
    "parse.fallback_rows": "count",
    "parse.malformed_rows": "count",
    "enrich.ns_per_row": "ns",
    "route.mask_ns_per_row": "ns",
    "route.write_ns_per_row": "ns",
    "route.files_written": "count",
    "route.bytes_written": "B",
    "aggregate.partial_ns_per_row": "ns",
    "aggregate.partial_rows": "count",
    "aggregate.fold_s": "s",
    "flagship.framework_s": "s",
    "flagship.layer_coverage": "ratio",
    "sink_bytes_per_row": "B",
    "bucketing.tag_ns_per_row": "ns",
    "bucketing.skew": "ratio",
    "bucketing.text_exchange_s": "s",
    "bucketing.narrow_exchange_s": "s",
    "reassemble.reduce_s": "s",
    "sequence.reduce_s": "s",
    "dialogues_s": "s",
    "transitions_s": "s",
    "graph.startup_s": "s",
    "graph.pagerank_push_s": "s",
    "graph.pagerank_iter_s": "s",
    "graph.pagerank_fp_push_s": "s",
    "graph.pagerank_fp_iter_s": "s",
    "pagerank_s": "s",
    "pagerank_fp_s": "s",
    "components_s": "s",
    "trace.overhead_s": "s",
    "wall_s": "s",
    "rows_per_core_s": "1/s",
}


def flagship_layers(wl, tracer: Tracer, tally) -> dict:
    from logray.formats import GOLDEN_FORMAT, LineFormat
    from logray.re2path import Re2Parser, compile_re2
    from logray.stages.aggregate import fold_partials_local, histogram_partials
    from logray.stages.enrich import EnrichBatch
    from logray.stages.parse import ParseBatch
    from logray.stages.route import RouteSinkWriter
    from logray.vparse import VectorParser

    res = tally.run(wl, tracer)
    fmt = LineFormat.from_format_string(GOLDEN_FORMAT)
    parser = ParseBatch(GOLDEN_FORMAT)
    interp = VectorParser(fmt, enable_re2=False)
    re2 = Re2Parser(fmt, compile_re2(fmt))
    enrich = EnrichBatch()
    router = wl.cfg.build_router()
    sink_dir = os.path.join(wl.inp.tmp_dir, "layer-sink")
    hist_cols = ["route", wl.cfg.conv_col, "role_class", "tool_kind"]
    writer = RouteSinkWriter(sink_dir, hist_cols, ts_col="ts")
    fallback = [0]

    def counting_interp(texts):
        fallback[0] += len(texts)
        return interp.parse_array(texts)

    clock = Clock(tracer)
    partials = []
    malformed = 0
    for f in wl.inp.corpus_files:
        table = clock("read", pq.read_table, f)
        parsed = clock("parse", parser, table)
        clock("parse.interp", interp.parse_array, table["text"])
        re2.parse_array(table["text"], counting_interp)
        malformed += int(pc.sum(pc.invert(parsed["well_formatted"])).as_py() or 0)
        enriched = clock("enrich", enrich, parsed)
        tagged = enriched.append_column("route", clock("route.mask", router.route_column, enriched))
        # RouteSinkWriter writes the files and then builds the partials
        partials.append(clock("route.write+partial", writer, tagged))
        clock("aggregate.partial", histogram_partials, tagged, hist_cols, "ts")
    clock("aggregate.fold", fold_partials_local, partials)
    shutil.rmtree(sink_dir, ignore_errors=True)

    rows = wl.rows
    s = clock.s
    write = s["route.write+partial"] - s["aggregate.partial"]
    layers = (s["read"] + s["parse"] + s["enrich"] + s["route.mask"]
              + s["route.write+partial"] + s["aggregate.fold"])
    ns = 1e9 / rows
    return {
        "read.ns_per_row": s["read"] * ns,
        "parse.ns_per_row": s["parse"] * ns,
        "parse.interp_ns_per_row": s["parse.interp"] * ns,
        "parse.fallback_rows": fallback[0],
        "parse.malformed_rows": malformed,
        "enrich.ns_per_row": s["enrich"] * ns,
        "route.mask_ns_per_row": s["route.mask"] * ns,
        "route.write_ns_per_row": write * ns,
        "route.files_written": res.extra["sink_files"],
        "route.bytes_written": res.extra["sink_bytes"],
        "aggregate.partial_ns_per_row": s["aggregate.partial"] * ns,
        "aggregate.partial_rows": sum(p.num_rows for p in partials),
        "aggregate.fold_s": s["aggregate.fold"],
        "flagship.framework_s": res.wall_s - layers,
        "flagship.layer_coverage": layers / res.wall_s,
        "sink_bytes_per_row": res.extra["sink_bytes_per_row"],
        "_wall_s": res.wall_s,
    }


def _rows_per_bucket(g: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame({"rows": [len(g)]})


def _num_buckets(fn) -> int:
    """The bucket count an operator uses when the caller does not say."""
    return inspect.signature(fn).parameters["num_buckets"].default


def reassemble_layers(wl, tracer: Tracer, tally) -> dict:
    from logray.stages.bucketing import bucket_sizes, bucket_tagger, grouped_apply
    from logray.stages.reassemble import fold_dialogues
    from logray.stages.sequence import transition_counts

    res = tally.run(wl, tracer)
    files = wl.inp.corpus_files
    clock = Clock(tracer)
    b_text, b_narrow = _num_buckets(fold_dialogues), _num_buckets(transition_counts)
    tag = bucket_tagger("conv_id", b_text)
    for f in files:
        clock("bucketing.tag", tag, pq.read_table(f, columns=["conv_id"]))
    sizes = clock("bucketing.bucket_sizes", bucket_sizes,
                  read(files, ["conv_id"]), "conv_id", b_text)

    def exchange(cols, buckets):
        return collect(grouped_apply(read(files, cols), "conv_id", _rows_per_bucket,
                                     num_buckets=buckets, batch_format="pandas"))

    clock("bucketing.text_exchange", exchange, Reassemble.TEXT_COLS, b_text)
    clock("bucketing.narrow_exchange", exchange, Reassemble.NARROW_COLS, b_narrow)
    s = clock.s
    return {
        "bucketing.tag_ns_per_row": s["bucketing.tag"] * 1e9 / wl.rows,
        "bucketing.skew": float(sizes.max() / sizes.mean()),
        "bucketing.text_exchange_s": s["bucketing.text_exchange"],
        "bucketing.narrow_exchange_s": s["bucketing.narrow_exchange"],
        "reassemble.reduce_s": res.extra["dialogues_s"] - s["bucketing.text_exchange"],
        "sequence.reduce_s": res.extra["transitions_s"] - s["bucketing.narrow_exchange"],
        "dialogues_s": res.extra["dialogues_s"],
        "transitions_s": res.extra["transitions_s"],
        "_wall_s": res.wall_s,
    }


# the PageRank per-iteration split sets a run of PAGERANK_ITERS against one of
# SPLIT_ITERS: every call starts its shard actors afresh, and that start-up
# varies by more than the few iterations between n_iter=1 and 5 cost
SPLIT_ITERS = 25


def graph_layers(wl, tracer: Tracer, tally) -> dict:
    clock = Clock(tracer)
    clock("graph.startup", wl.startup)
    res = tally.run(wl, tracer)
    out = {"graph.startup_s": clock.s["graph.startup"], "_wall_s": res.wall_s}
    for key, op, fixedpoint in (("pagerank", "pagerank_s", False),
                                ("pagerank_fp", "pagerank_fp_s", True)):
        span = f"graph.{key} n_iter={SPLIT_ITERS}"
        clock(span, wl.pagerank, fixedpoint, SPLIT_ITERS)
        per_iter = (clock.s[span] - res.extra[op]) / (SPLIT_ITERS - PAGERANK_ITERS)
        out[f"graph.{key}_iter_s"] = per_iter
        out[f"graph.{key}_push_s"] = res.extra[op] - PAGERANK_ITERS * per_iter
        out[op] = res.extra[op]
    out["components_s"] = res.extra["components_s"]
    return out


LAYERS = {"flagship": flagship_layers, "reassemble": reassemble_layers, "graph": graph_layers}


def traced(args, inp, session, tally, record) -> dict:
    """One Ray session; warm every workload up, then repeat rounds of one
    untraced run of ``args.workload`` plus all traced layer runs until
    ``args.seconds`` have passed.  Metrics are medians over rounds."""
    tracer, off = Tracer(True), Tracer(False)
    wls = {name: cls(inp) for name, cls in WORKLOADS.items()}
    session.start()
    # graph_layers opens with the graph start-up call, which is also the
    # warm-up of that workload
    for wl in (wls["flagship"], wls["reassemble"]):
        tally.run(wl, off)
    rounds = []
    t_end = time.perf_counter() + args.seconds
    while True:
        rnd: dict = {}
        walls = {}
        # before the graph calls, whose shard actors are still exiting
        # for a while after each call returns
        untraced_s = tally.run(wls[args.workload], off).wall_s
        rnd["wall_s"] = untraced_s
        rnd["rows_per_core_s"] = wls[args.workload].rows / (untraced_s * session.cpus)
        for name, fn in LAYERS.items():
            got = fn(wls[name], tracer, tally)
            walls[name] = got.pop("_wall_s")
            rnd.update(got)
        rnd["trace.overhead_s"] = walls[args.workload] - untraced_s
        rounds.append(rnd)
        if time.perf_counter() >= t_end:
            break
    t0 = tracer.spans[0]["start"] if tracer.spans else 0.0
    record["spans"] = [{**sp, "start": sp["start"] - t0, "end": sp["end"] - t0}
                       for sp in tracer.spans]
    record["layer_rounds"] = rounds
    return {k: statistics.median(r[k] for r in rounds) for k in UNITS}
