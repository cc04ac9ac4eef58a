"""logray benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload flagship|reassemble|graph \
        --seed N --seconds S --trace 0|1

Inputs are generated from ``--seed`` by this package, the exact answers are
computed once with DuckDB, and every run's output is checked against them.
With ``--trace 0`` the workload runs untraced for ``--seconds`` and the end-to-end
metrics are reported, with the wall-time figures on the line before; with
``--trace 1`` the per-layer metrics are (see ``layers.py``).  The last stdout
line is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Run records (host, input hashes, per-run times, spans) are written under
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
# run as a script, so the package's parent goes first on the path
sys.path[0] = ROOT

CORPUS_ROWS = 200_000
CORPUS_FILES = 8
EDGES = 100_000
EDGE_FILES = 2
SETUPS = 2  # setup_s is the median of this many ray.init + warm-ups

# the gated metrics are CPU-based: when a virtual machine's host is
# oversubscribed, the hypervisor steals up to most of a CPU from it for
# minutes at a time.  In ten-seed sets on a 4-vCPU VM that moved the median
# wall time between invocations by up to twice as much as CPU time.  Wall
# time is reported beside them (WALL_UNITS) and by the traced run.
UNITS = {"setup_s": "s", "cpu_s": "s", "rows_per_cpu_s": "1/s", "peak_rss_mb": "MiB"}
WALL_UNITS = {"wall_s": "s", "rows_per_core_s": "1/s"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["flagship", "reassemble", "graph"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def make_inputs(seed: int, tmp_dir: str, workloads: set):
    """Both inputs, and the answers for ``workloads`` only."""
    from perfbench import inputs, reference
    from perfbench.workloads import Inputs

    corpus = inputs.transcripts(seed, CORPUS_ROWS)
    edges = inputs.edges(seed, EDGES)
    answers = {}
    if workloads & {"flagship", "reassemble"}:
        answers.update(reference.corpus_answers(corpus, tmp_dir))
    if "graph" in workloads:
        answers.update(reference.graph_answers(edges, tmp_dir))
    inp = Inputs(
        corpus=corpus,
        corpus_files=inputs.write_files(corpus.select(inputs.TRANSCRIPT_COLUMNS),
                                        os.path.join(tmp_dir, "corpus"), CORPUS_FILES, "conv_id"),
        edges=edges,
        edge_files=inputs.write_files(edges, os.path.join(tmp_dir, "edges"), EDGE_FILES),
        answers=answers,
        tmp_dir=tmp_dir,
    )
    hashes = {"corpus_sha256": inputs.content_hash(corpus),
              "edges_sha256": inputs.content_hash(edges),
              "corpus_rows": corpus.num_rows, "edges": edges.num_rows}
    return inp, hashes


class Tally:
    """Runs attempted and failed (an exception or a wrong output)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, workload, tracer):
        from perfbench.workloads import RunResult

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            res = workload.run(tracer)
        except Exception as e:  # a failed run is counted, and the loop goes on
            print(f"run failed: {type(e).__name__}: {e}", file=sys.stderr)
            res = RunResult(time.perf_counter() - t0, ok=False)
        self.failed += not res.ok
        return res


def measure(workload, seconds: float, tally: Tally, tracer) -> list:
    """Closed loop: one run at a time, started until ``seconds`` have
    passed; the last run may end after that."""
    results = []
    t_end = time.perf_counter() + seconds
    while not results or time.perf_counter() < t_end:
        results.append(tally.run(workload, tracer))
    return results


def median(vals: list) -> float:
    return statistics.median(vals) if vals else float("nan")


def summary(vals: list) -> dict:
    return {"median": median(vals), "n": len(vals),
            "quartiles": statistics.quantiles(vals, n=4) if len(vals) > 1 else vals}


def untraced(args, inp, session, tally, record) -> dict:
    """``SETUPS`` fresh Ray sessions, each set up (ray.init + the untimed
    warm-up); the last is then measured for ``args.seconds``."""
    from perfbench.host import PeakRss
    from perfbench.workloads import WORKLOADS, Tracer, warm_up

    workload = WORKLOADS[args.workload](inp)
    off = Tracer(False)
    setup_s = []
    for i in range(SETUPS):
        if i:
            session.stop()
        t0 = time.perf_counter()
        session.start()
        warm_up(workload, lambda w: tally.run(w, off))
        setup_s.append(time.perf_counter() - t0)
    rss = PeakRss()
    rss.start()
    results = measure(workload, args.seconds, tally, off)
    peak_mb = rss.stop_mb()
    ok = [r for r in results if r.ok]
    record["setup_s"] = setup_s
    record["runs"] = [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "ok": r.ok, **r.ops}
                      for r in results]
    record["wall_s"] = summary([r.wall_s for r in ok])
    record["cpu_s"] = summary([r.cpu_s for r in ok])
    wall, cpu = record["wall_s"]["median"], record["cpu_s"]["median"]
    keys = next((r.extra for r in ok), {})
    record["workload_metrics"] = {k: median([r.extra[k] for r in ok]) for k in keys}
    record["workload_metrics"].update(
        wall_s=wall, rows_per_core_s=workload.rows / (wall * session.cpus))
    return {
        "setup_s": statistics.median(setup_s),
        "cpu_s": cpu,
        "rows_per_cpu_s": workload.rows / cpu,
        "peak_rss_mb": peak_mb,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # fail before any work when the checkout has no logray to measure
    import logray  # noqa: F401

    from perfbench import layers
    from perfbench.host import RaySession, host_record, nproc
    from perfbench.workloads import EXTRA_UNITS

    tmp_dir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(os.path.join(tmp_dir, "tmp"), exist_ok=True)
    os.environ["TMPDIR"] = os.path.join(tmp_dir, "tmp")
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    cpus = nproc()
    session = RaySession(ROOT, WORK, cpus)
    os.environ["RAY_TMPDIR"] = session.temp_dir
    tally = Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    try:
        record["host"] = host_record(cpus)
        needs = set(layers.LAYERS) if args.trace else {args.workload}
        inp, record["inputs"] = make_inputs(args.seed, tmp_dir, needs)
        if args.trace:
            metrics = layers.traced(args, inp, session, tally, record)
        else:
            metrics = untraced(args, inp, session, tally, record)
    finally:
        session.stop()
        shutil.rmtree(tmp_dir, ignore_errors=True)

    units = UNITS if not args.trace else layers.UNITS
    record["error_rate"] = tally.failed / tally.attempted
    out_dir = os.path.join(WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1, default=str)
    report = {"error_rate": {"value": record["error_rate"], "unit": "ratio"}}
    report.update({k: {"value": v, "unit": {**EXTRA_UNITS, **WALL_UNITS}[k]}
                   for k, v in record.get("workload_metrics", {}).items()})
    print(json.dumps({"report": report, "inputs": record["inputs"], "host": record["host"]}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
