"""The three workloads.  Each run is one closed-loop batch job against
logray's public API: timed, fully consumed, then checked exactly."""

from __future__ import annotations

import contextlib
import os
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.parquet as pq

from perfbench import reference
from perfbench.host import tree_cpu_s
from perfbench.reference import PAGERANK_ITERS, max_abs_diff, same_columns, sorted_by

FLOAT_PAGERANK_TOL = 1e-10
# units of RunResult.extra, the per-workload figures reported beside the
# gated metrics
EXTRA_UNITS = {"sink_bytes_per_row": "B", "sink_files": "count", "sink_bytes": "B",
               "dialogues_s": "s", "transitions_s": "s",
               "pagerank_s": "s", "pagerank_fp_s": "s", "components_s": "s"}


class Tracer:
    """Spans ``(name, start, end, parent)`` kept in memory.  Disabled, it
    records nothing and ``span`` costs one call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else contextlib.nullcontext()

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._open[-1] if self._open else None}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()


class Clock:
    """Seconds per name, summed over calls; each call is also a span."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.s: dict[str, float] = {}

    def __call__(self, name: str, fn, *args):
        with self.tracer.span(name):
            t0 = time.perf_counter()
            out = fn(*args)
            self.s[name] = self.s.get(name, 0.0) + time.perf_counter() - t0
        return out


@dataclass
class Inputs:
    corpus: pa.Table  # with ground-truth columns
    corpus_files: list[str]
    edges: pa.Table
    edge_files: list[str]
    answers: dict
    tmp_dir: str


@dataclass
class RunResult:
    wall_s: float
    ops: dict = field(default_factory=dict)  # seconds per public call
    ok: bool = True
    extra: dict = field(default_factory=dict)
    cpu_s: float = float("nan")  # CPU seconds of the driver and every Ray process


def collect(ds) -> pa.Table:
    """Pull every output block to the driver as one Arrow table."""
    return pa.concat_tables(list(ds.iter_batches(batch_size=None, batch_format="pyarrow")))


def read(files: list[str], columns: list[str] | None = None):
    import ray.data as rd

    return rd.read_parquet(files, columns=columns, override_num_blocks=len(files))


class Flagship:
    """read -> ParseBatch -> EnrichBatch -> route_exclusive -> RouteSinkWriter
    -> fold_partials_stream via ``run_pipeline``."""

    name = "flagship"

    def __init__(self, inp: Inputs):
        from logray.formats import GOLDEN_FORMAT
        from logray.pipelines import PipelineConfig

        self.inp = inp
        self.rows = inp.corpus.num_rows
        self.cfg = PipelineConfig(format_string=GOLDEN_FORMAT, routes=reference.ROUTES)
        self.runs = 0

    def run(self, tracer: Tracer) -> RunResult:
        from logray.pipelines import run_pipeline

        out_dir = os.path.join(self.inp.tmp_dir, f"flagship-{self.runs}")
        self.runs += 1
        clock = Clock(tracer)
        cpu0 = tree_cpu_s()
        metrics = clock("flagship.run_pipeline", lambda: run_pipeline(
            read(self.inp.corpus_files), self.cfg, out_dir, write_metrics=False))
        cpu_s = tree_cpu_s() - cpu0
        want = self.inp.answers["flagship"]
        sink = sink_summary(os.path.join(out_dir, "routed"))
        shutil.rmtree(out_dir, ignore_errors=True)
        ok = (all(metrics.get(k) == v for k, v in want.items())
              and sink["rows"] == want["routes"])
        return RunResult(clock.s["flagship.run_pipeline"], clock.s, ok, {
            "sink_bytes_per_row": sink["bytes"] / self.rows,
            "sink_files": sink["files"],
            "sink_bytes": sink["bytes"],
        }, cpu_s)


def sink_summary(sink_dir: str) -> dict:
    """Rows per route (from Parquet footers), file count and bytes on disk."""
    rows: dict = {}
    files = size = 0
    for route_dir in sorted(os.listdir(sink_dir)):
        route = route_dir.split("=", 1)[1]
        for name in os.listdir(os.path.join(sink_dir, route_dir)):
            path = os.path.join(sink_dir, route_dir, name)
            rows[route] = rows.get(route, 0) + pq.read_metadata(path).num_rows
            files += 1
            size += os.path.getsize(path)
    return {"rows": rows, "files": files, "bytes": size}


class Reassemble:
    """``fold_dialogues`` (text-heavy bucket shuffle) then
    ``transition_counts`` (narrow bucket shuffle) over the unparsed corpus."""

    name = "reassemble"
    TEXT_COLS = ["conv_id", "turn_idx", "text"]
    NARROW_COLS = ["conv_id", "turn_idx", "role"]

    def __init__(self, inp: Inputs):
        self.inp = inp
        self.rows = inp.corpus.num_rows

    def run(self, tracer: Tracer) -> RunResult:
        from logray.stages.reassemble import fold_dialogues
        from logray.stages.sequence import transition_counts

        files = self.inp.corpus_files
        clock = Clock(tracer)
        cpu0 = tree_cpu_s()
        dialogues = clock("reassemble.fold_dialogues", lambda: collect(
            fold_dialogues(read(files, self.TEXT_COLS))))
        transitions = clock("sequence.transition_counts", lambda: transition_counts(
            read(files, self.NARROW_COLS), "conv_id", "turn_idx", "role", as_pandas=False))
        cpu_s = tree_cpu_s() - cpu0
        ok = (same_columns(sorted_by(dialogues, "conv_id"), self.inp.answers["dialogues"],
                           ["conv_id", "dialogue"])
              and same_columns(sorted_by(transitions, "from_val", "to_val"),
                               self.inp.answers["transitions"], ["from_val", "to_val", "n"]))
        return RunResult(sum(clock.s.values()), clock.s, ok, {
            "dialogues_s": clock.s["reassemble.fold_dialogues"],
            "transitions_s": clock.s["sequence.transition_counts"],
        }, cpu_s)


class Graph:
    """``pagerank``, ``pagerank_fixedpoint`` and ``connected_components_graph``
    over the edge table, with the library's default shard count.  Shard
    actors hold the state between rounds; each call starts its own."""

    name = "graph"

    def __init__(self, inp: Inputs):
        self.inp = inp
        self.rows = inp.edges.num_rows

    def pagerank(self, fixedpoint: bool, n_iter: int) -> pa.Table:
        from logray.functions.graph import pagerank, pagerank_fixedpoint

        fn = pagerank_fixedpoint if fixedpoint else pagerank
        return collect(fn(read(self.inp.edge_files), n_iter=n_iter))

    def startup(self) -> int:
        """``pagerank`` over an empty edge table: the shard actors' start-up
        and the call's fixed cost, with no edges to exchange."""
        import ray.data as rd
        from logray.functions.graph import pagerank

        empty = rd.from_arrow(self.inp.edges.schema.empty_table())
        return pagerank(empty, n_iter=1).count()

    def run(self, tracer: Tracer) -> RunResult:
        from logray.functions.graph import connected_components_graph

        clock = Clock(tracer)
        cpu0 = tree_cpu_s()
        pr = clock("graph.pagerank", self.pagerank, False, PAGERANK_ITERS)
        fp = clock("graph.pagerank_fixedpoint", self.pagerank, True, PAGERANK_ITERS)
        cc = clock("graph.connected_components_graph", lambda: collect(
            connected_components_graph(read(self.inp.edge_files))))
        cpu_s = tree_cpu_s() - cpu0
        want = self.inp.answers
        pr, fp = sorted_by(pr, "node"), sorted_by(fp, "node")
        ok = (same_columns(fp, want["ranks"], ["node", "rank"])
              and same_columns(pr, want["ranks"], ["node"])
              and max_abs_diff(pr["rank"], fp["rank"]) <= FLOAT_PAGERANK_TOL
              and same_columns(sorted_by(cc, "node"), want["components"],
                               ["node", "component"]))
        return RunResult(sum(clock.s.values()), clock.s, ok, {
            "pagerank_s": clock.s["graph.pagerank"],
            "pagerank_fp_s": clock.s["graph.pagerank_fixedpoint"],
            "components_s": clock.s["graph.connected_components_graph"],
        }, cpu_s)


WORKLOADS = {w.name: w for w in (Flagship, Reassemble, Graph)}


def warm_up(workload, run) -> None:
    """The untimed warm-up before timing: one ``run(workload)``, except on
    ``Graph``, whose calls start their shard actors afresh every time, so
    that a full run would warm little more than the start-up call does."""
    if isinstance(workload, Graph):
        workload.startup()
    else:
        run(workload)
