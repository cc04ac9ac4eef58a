"""The flagship pipeline: parse -> enrich -> route -> write -> aggregate.

One config object describes what the reference's interactive session
configures piecemeal (format string, filter declarations, bad-format policy;
main.cpp:71-85 + filter_management_module.cpp), plus the north-rule
additions (taxonomy enrichment, fan-out sinks, exact aggregates).

Execution shape (100-TB discipline):

- ONE streaming scan, total: read -> normalize+parse (actor pool, compiled
  format in actor state) -> enrich (broadcast dicts) -> route tag -> fused
  write+summarize (each batch writes its ``route=<name>/`` Parquet files
  and emits metric partials);
- the aggregates (rows per route, role/tool histograms, turns per
  conversation, ts min/max) are folded from those partials on the driver —
  no second scan of the input or the sinks, no driver-side row loop.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field

import pyarrow as pa

from logray.filters import EvalContext
from logray.formats import LineFormat

from logray.stages.enrich import enrich_stage
from logray.stages.parse import parse_stage
from logray.stages.route import Route, Router, route_exclusive
from logray.vparse import VectorParser


@dataclass
class PipelineConfig:
    format_string: str
    # (name, filter_decl, accept_bad_format); decl "" = match-all
    routes: list = field(default_factory=list)
    default_route: str | None = None
    text_col: str = "text"
    line_col: str = "turn_idx"
    conv_col: str = "conv_id"
    normalize: bool = False
    enrich: bool = True
    # None = whole-block batches; keeps the read->parse->enrich->route->write
    # chain ONE fused operator (see stages/parse.py::parse_stage)
    parse_batch_size: int | None = None
    parse_concurrency: int | tuple | None = None

    def build_router(self) -> Router:
        fmt = LineFormat.from_format_string(self.format_string)
        ctx = EvalContext(text_col=self.text_col, line_col=self.line_col)
        routes = [
            Route.from_decl(name, decl, fmt, accept) if decl else Route(name, None, accept)
            for name, decl, accept in self.routes
        ]
        return Router(routes, ctx=ctx, default_route=self.default_route)


def build(ds, cfg: PipelineConfig):
    """Compose the lazy Dataset plan (no execution)."""
    ds = parse_stage(
        ds,
        cfg.format_string,
        text_col=cfg.text_col,
        normalize=cfg.normalize,
        batch_size=cfg.parse_batch_size,
        concurrency=cfg.parse_concurrency,
    )
    if cfg.enrich:
        ds = enrich_stage(ds, batch_size=cfg.parse_batch_size)
    return route_exclusive(ds, cfg.build_router())


def run_pipeline(ds, cfg: PipelineConfig, out_dir: str, write_metrics: bool = True) -> dict:
    """Execute end-to-end in ONE streaming pass; returns the metrics dict
    (and writes it as ``metrics.json`` next to the sinks).

    The terminal stage is a fused write+summarize operator
    (:class:`~logray.stages.route.RouteSinkWriter`): each batch writes its
    rows into ``route=<name>/`` Parquet files and emits metric partials,
    which stream to the driver for the final fold — no second scan of
    either the input or the written sinks.  Sink file names repeat from
    run to run, so a non-empty ``<out_dir>/routed/`` is refused."""
    import pyarrow.compute as pc

    from logray.stages.aggregate import fold_partials_stream
    from logray.stages.route import RouteSinkWriter
    from logray.state.manifest import publish_text

    sink_dir = os.path.join(out_dir, "routed")
    if os.path.exists(sink_dir) and os.listdir(sink_dir):
        raise ValueError(f"run_pipeline: sink directory {sink_dir!r} is non-empty — "
                         "refusing to mix runs; run into a fresh out_dir")
    t0 = time.perf_counter()
    tagged = build(ds, cfg)
    os.makedirs(sink_dir, exist_ok=True)

    agg_cols = ["route", cfg.conv_col]
    if cfg.enrich:
        agg_cols += ["role_class", "tool_kind"]
    writer = RouteSinkWriter(sink_dir, agg_cols, ts_col="ts")
    partials = tagged.map_batches(
        writer, batch_format="pyarrow", batch_size=cfg.parse_batch_size, zero_copy_batch=True
    )
    folded = fold_partials_stream(partials)
    write_s = time.perf_counter() - t0

    # scalar extraction straight from the folded Arrow table — the conv
    # histogram is O(#conversations) rows and only folds to scalars here,
    # so no pandas conversion of it (measured ~0.5s driver time saved at
    # ~1M conversations)
    def metric_rows(name: str):
        return folded.filter(pc.equal(folded["metric"], name))

    # the parse path chosen in this process: "compiled" or "interpreter"
    fmt = LineFormat.from_format_string(cfg.format_string)
    metrics: dict = {"parse_path": VectorParser(fmt).path, "routes": {}, "histograms": {}}
    rc = metric_rows("route")
    metrics["routes"] = {
        str(k): int(v) for k, v in zip(rc["key"].to_pylist(), rc["n"].to_pylist())
    }
    if cfg.enrich:
        for col in ("role_class", "tool_kind"):
            h = metric_rows(col)
            metrics["histograms"][col] = {
                str(k): int(v) for k, v in zip(h["key"].to_pylist(), h["n"].to_pylist())
            }
    tpc_n = metric_rows(cfg.conv_col)["n"]
    metrics["conversations"] = len(tpc_n)
    metrics["turns_total"] = int(pc.sum(tpc_n).as_py() or 0)
    metrics["turns_per_conv_max"] = int(pc.max(tpc_n).as_py()) if len(tpc_n) else 0
    ts = metric_rows("__ts")
    if ts.num_rows:
        lo = pa.array([int(pc.min(ts["v_min"]).as_py())], pa.int64()).cast(
            pa.timestamp("us"))[0]
        hi = pa.array([int(pc.max(ts["v_max"]).as_py())], pa.int64()).cast(
            pa.timestamp("us"))[0]
    else:
        lo = hi = None
    metrics["ts_min"], metrics["ts_max"] = str(lo), str(hi)
    metrics["write_seconds"] = round(write_s, 3)
    metrics["total_seconds"] = round(time.perf_counter() - t0, 3)
    if write_metrics:
        publish_text(os.path.join(out_dir, "metrics.json"),
                     json.dumps(metrics, indent=2, default=str))
    return metrics


def run_pipeline_resumable(input_path: str, cfg: PipelineConfig, out_dir: str) -> dict:
    """Checkpoint-resumable flagship run: the input splits into one
    partition per parquet file (state/manifest.py), each partition runs the
    full pipeline into its own atomically-published directory, and a
    restarted run skips completed partitions.  Returns merged metrics
    (rows + per-route counts folded across partition manifests)."""
    import ray.data as rd

    from logray.state.manifest import check_run_config, run_resumable

    # semantic parameters only: execution knobs (batch size, concurrency)
    # don't change the output, so retuning them may resume freely
    check_run_config(out_dir, {
        "op": "flagship",
        "format_string": cfg.format_string,
        "routes": [list(r) for r in cfg.routes],
        "default_route": cfg.default_route,
        "text_col": cfg.text_col,
        "line_col": cfg.line_col,
        "conv_col": cfg.conv_col,
        "normalize": cfg.normalize,
        "enrich": cfg.enrich,
    })

    def run_partition(files, part_out):
        m = run_pipeline(rd.read_parquet(files), cfg, part_out, write_metrics=False)
        return {"rows": m["turns_total"], "routes": m["routes"]}

    return run_resumable(input_path, out_dir, run_partition)
