"""Broadcast probes: one sorted-membership kernel, one way to run a
broadcast side (a ``ray.put`` value read inside a plain fused task), and
the 1-CPU run that the old actor pools could not finish."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from logray.stages.bucketing import isin_sorted

ROOT = Path(__file__).resolve().parents[1]

# modules whose actors hold real per-actor state (a loaded model, a
# decoder pool)
_ACTOR_MODULES = {"functions/modelscore.py", "functions/multimodal.py"}
_ACTOR_KWARGS = {"concurrency", "fn_constructor_args", "fn_constructor_kwargs"}


@pytest.mark.parametrize("index, values", [
    (np.array([], np.int64), np.array([3, 1, 2], np.int64)),
    (np.array([1, 5, 9], np.int64), np.array([], np.int64)),
    (np.array([1, 1, 5, 5, 5, 9], np.int64),
     np.array([0, 1, 2, 5, 9, 10, 9, 1], np.int64)),
    (np.sort(np.array([2**63, 2**64 - 1, 7, 2**63 + 5], np.uint64)),
     np.array([2**64 - 1, 2**63 + 1, 7, 2**63, 0, 2**63 + 5], np.uint64)),
], ids=["empty-index", "empty-query", "duplicates", "uint64-high"])
def test_isin_sorted_matches_np_isin(index, values):
    got = isin_sorted(values, index)
    assert got.dtype == np.bool_
    np.testing.assert_array_equal(got, np.isin(values, index))


def test_isin_sorted_random_against_np_isin():
    rng = np.random.default_rng(3)
    for n_idx in (1, 7, 300):
        index = np.sort(rng.integers(0, 500, n_idx))
        values = rng.integers(-10, 520, 1000)
        np.testing.assert_array_equal(isin_sorted(values, index),
                                      np.isin(values, index))


def _actor_sites(rel: str, src: str) -> list[str]:
    """``map_batches`` calls in one module that start an actor pool: a
    ``concurrency=`` / ``fn_constructor_*`` argument, or a class (not an
    instance) as the batch function."""
    tree = ast.parse(src)
    classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "map_batches"):
            continue
        fn = node.args[0] if node.args else next(
            (k.value for k in node.keywords if k.arg == "fn"), None)
        passes_class = isinstance(fn, ast.Name) and (
            fn.id in classes or fn.id.lstrip("_")[:1].isupper())
        if passes_class or {k.arg for k in node.keywords} & _ACTOR_KWARGS:
            out.append(f"{rel}:{node.lineno}")
    return out


def test_broadcast_state_runs_on_plain_tasks():
    """Outside the modules whose actors hold real state, no
    ``map_batches`` starts an actor pool and no stage takes a
    ``concurrency=`` switch: broadcast sides are ``ray.put`` values read
    inside plain fused tasks."""
    root = ROOT / "logray"
    modules = {p.relative_to(root).as_posix(): p.read_text()
               for p in root.rglob("*.py")}
    assert len(modules) >= 40 and _ACTOR_MODULES <= set(modules)
    sites = [s for rel, src in sorted(modules.items())
             if rel not in _ACTOR_MODULES for s in _actor_sites(rel, src)]
    assert sites == []
    switches = [rel for rel, src in sorted(modules.items())
                if rel not in _ACTOR_MODULES and "concurrency=" in src]
    assert switches == []
    # the scan does see the real actor pools it exempts
    assert _actor_sites("functions/modelscore.py",
                        modules["functions/modelscore.py"])


# stages of the exempt modules that take a ``concurrency=`` for their pool
_ACTOR_STAGES = {"decode_stage", "model_score_stage"}


def test_entry_queries_run_broadcasts_on_plain_tasks():
    """The gate queries in ``__ray_entry__.py`` hold to the same rule: no
    ``map_batches`` there starts an actor pool, and ``concurrency=`` is
    passed only to the exempt modules' actor stages."""
    src = (ROOT / "__ray_entry__.py").read_text()
    assert _actor_sites("__ray_entry__.py", src) == []
    calls = [n for n in ast.walk(ast.parse(src)) if isinstance(n, ast.Call)
             and any(k.arg == "concurrency" for k in n.keywords)]
    names = {getattr(c.func, "id", getattr(c.func, "attr", None))
             for c in calls}
    assert calls and names <= _ACTOR_STAGES, names


_ONE_CPU_RUN = textwrap.dedent("""
    import json, sys
    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    from logray.functions.dedup_incremental import (build_hash_index,
                                                    dedup_against_index)
    from logray.functions.neardup_incremental import (
        build_band_index, dedup_near_against_index)

    src, exact_dir, band_dir = sys.argv[1:4]
    docs = rd.read_parquet(src)
    build_hash_index(docs.filter(expr="lang == 'en'"), exact_dir, num_shards=4)
    build_band_index(docs.filter(expr="lang == 'en'"), band_dir, num_shards=4)
    new = docs.filter(expr="lang != 'en'")
    out = {}
    for mode in ("broadcast", "sharded"):
        out["exact-" + mode] = sorted(dedup_against_index(
            new, exact_dir, mode=mode).to_pandas()["doc_id"].tolist())
        out["near-" + mode] = sorted(dedup_near_against_index(
            new, band_dir, mode=mode).to_pandas()["doc_id"].tolist())
    ray.shutdown()
    print(json.dumps(out))
""")


def _one_cpu_corpus(path: Path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    words = ["alpha", "beta", "gamma", "delta", "omega", "kappa", "sigma"]
    n = 240
    ids = np.arange(n, dtype=np.int64)
    # 30 base texts; every 7th row gains a word (a near, not exact, copy)
    text = [" ".join(words[(i % 30 * j) % 7] for j in range(1, 12))
            + f" topic {i % 30}" + (" extra" if i % 7 == 0 else "")
            for i in range(n)]
    text[5] = None
    lang = ["en" if i % 4 == 0 else "de" for i in range(n)]
    # one file, so one read task: an actor pool that takes the only CPU
    # before that task is scheduled never gets an input
    pq.write_table(pa.table({"doc_id": ids, "text": text, "lang": lang}), path)
    return ids, text, lang


def _run_on_one_cpu(script: str, args: list[str], cwd: Path, what: str):
    """Run ``script`` in a fresh interpreter (which starts its own 1-CPU
    Ray) and return the JSON on its last stdout line; fail after 240 s."""
    env = dict(os.environ, PYTHONPATH=str(ROOT) + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.Popen(
        [sys.executable, "-c", script, *args], cwd=str(cwd), env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)  # the child's Ray processes share its group
        proc.communicate()
        pytest.fail(f"{what} did not finish on a 1-CPU Ray in 240 s")
    assert proc.returncode == 0, stderr[-3000:]
    return json.loads(stdout.strip().splitlines()[-1])


def test_incremental_dedup_finishes_on_one_cpu(ray_session, tmp_path):
    """``dedup_against_index`` and ``dedup_near_against_index`` in both
    modes finish on a Ray started with ``num_cpus=1`` (the CPU count a
    1-core host gives Ray), and agree with the exact anti-join and with
    the same calls on this session's 4-CPU Ray."""
    import ray.data as rd

    from logray.functions.neardup_incremental import (
        build_band_index, dedup_near_against_index)

    ids, text, lang = _one_cpu_corpus(tmp_path / "docs.parquet")
    got = _run_on_one_cpu(
        _ONE_CPU_RUN, [str(tmp_path / "docs.parquet"),
                       str(tmp_path / "exact_idx"), str(tmp_path / "band_idx")],
        tmp_path, "incremental dedup")

    seen = {t for t, l in zip(text, lang) if l == "en" and t is not None}
    want = sorted(int(i) for i, t, l in zip(ids, text, lang)
                  if l != "en" and (t is None or t not in seen))
    assert got["exact-broadcast"] == got["exact-sharded"] == want
    assert len(want) < sum(l != "en" for l in lang)  # some rows dropped

    docs = rd.read_parquet(str(tmp_path / "docs.parquet"))
    build_band_index(docs.filter(expr="lang == 'en'"),
                     str(tmp_path / "band4"), num_shards=4)
    near4 = sorted(dedup_near_against_index(
        docs.filter(expr="lang != 'en'"), str(tmp_path / "band4"),
        mode="broadcast").to_pandas()["doc_id"].tolist())
    assert got["near-broadcast"] == got["near-sharded"] == near4
    assert set(near4) <= set(want)


_REVENUE_ONE_CPU = textwrap.dedent("""
    import json, sys
    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    import __ray_entry__

    out = __ray_entry__._q_revenue_by_nation(sys.argv[1])
    ray.shutdown()
    print(json.dumps(sorted(map(list, out.itertuples(index=False)))))
""")


def test_revenue_by_nation_finishes_on_one_cpu(sf_dir, tmp_path):
    """The ``revenue_by_nation`` gate query finishes on a 1-CPU Ray (its
    supplier lookup was an actor pool that held the only CPU while the
    lineitem read waited) and equals its DuckDB twin."""
    import duckdb

    import __ray_entry__

    got = _run_on_one_cpu(_REVENUE_ONE_CPU, [sf_dir], tmp_path,
                          "revenue_by_nation")
    con = duckdb.connect()
    for t in ("customer", "orders", "lineitem", "supplier", "nation",
              "region"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")
    want = sorted(map(list, con.execute(
        __ray_entry__.oracle_sql()["revenue_by_nation"]).fetchall()))
    assert got == want and want
