"""Per-partition lineage manifests + checkpoint-resumable execution.

The reference avoids re-work with in-process caches
(filtered_file_reader.cpp:236-268: line index, pass mask, valid-line index);
a distributed batch run instead needs a **resumable output layout**:

- the input is split into deterministic partitions (one per input file /
  fragment);
- each partition's output goes to its own directory, written to a temp path
  and atomically renamed, with a ``manifest.json`` lineage record (partition
  id, input files, row count, per-route counts, duration) committed last;
- a restarted run skips every partition whose manifest exists, so a crash
  mid-run costs only the in-flight partitions.

``run_resumable`` drives any per-partition pipeline function with this
protocol; the flagship pipeline plugs in via ``logray.pipelines``.  Its
checkpointed shuffles (line, span and near dedup) run on one on-disk
exchange, :func:`resumable_exchange`; every reader of a phase's output
goes through :func:`committed_files`.

:func:`publish` is how logray commits every file, and :func:`batch_id`
names what a Ray Data task writes, so a retried task rewrites its names.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def publish(path: str, write):
    """Commit one file atomically; returns what ``write`` returns.
    ``write(tmp)`` creates a hidden temp file beside ``path`` (so it gets
    the mode a plain ``open()`` gives; missing parent dirs are made),
    then ``os.replace`` puts it at ``path``.  On any exception the temp
    file goes and ``path`` is left as it was."""
    d, name = os.path.split(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    tmp = os.path.join(d, f".{name}.{os.urandom(6).hex()}.tmp")
    try:
        out = write(tmp)
        os.replace(tmp, path)
        return out
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def publish_text(path: str, text: str) -> None:
    """:func:`publish` a text file."""
    publish(path, lambda tmp: Path(tmp).write_text(text))


_LOCAL_BATCHES = itertools.count(1)


def batch_id() -> tuple[int, int]:
    """``(task_idx, n)`` of the batch the calling Ray Data task is on:
    the task's index in its operator (as in Ray's Parquet sink file
    names) and the batch's ordinal in this attempt, counted on the
    ``TaskContext`` each attempt receives fresh.  A retry sees the same
    batches, so it draws the same ids.  Outside a task: ``(0, n)``."""
    from ray.data._internal.execution.interfaces import TaskContext

    ctx = TaskContext.get_current()
    if ctx is None:
        return 0, next(_LOCAL_BATCHES)
    n = ctx.kwargs["logray_batch"] = ctx.kwargs.get("logray_batch", 0) + 1
    return ctx.task_idx, n


@dataclass
class RunManifest:
    out_dir: str

    def partition_dir(self, part_id: str) -> str:
        return os.path.join(self.out_dir, "parts", part_id)

    def manifest_path(self, part_id: str) -> str:
        return os.path.join(self.partition_dir(part_id), "manifest.json")

    def is_done(self, part_id: str) -> bool:
        return os.path.exists(self.manifest_path(part_id))

    def record(self, part_id: str, entry: dict) -> None:
        """Atomic commit: the manifest file is the partition's done-marker,
        written last."""
        publish_text(self.manifest_path(part_id),
                     json.dumps(entry, indent=2, default=str))

    def entries(self) -> dict:
        out = {}
        for p in sorted(glob.glob(os.path.join(self.out_dir, "parts", "*", "manifest.json"))):
            with open(p) as f:
                out[os.path.basename(os.path.dirname(p))] = json.load(f)
        return out

    def merged_metrics(self) -> dict:
        """Fold per-partition metrics into run totals."""
        total_rows = 0
        routes: dict = {}
        parts = self.entries()
        for e in parts.values():
            total_rows += int(e.get("rows", 0))
            for k, v in (e.get("routes") or {}).items():
                routes[k] = routes.get(k, 0) + int(v)
        return {"partitions": len(parts), "rows": total_rows, "routes": routes}


def check_run_config(out_dir: str, config: dict) -> None:
    """Refuse to resume a checkpointed run whose semantic parameters — or
    the engine's partitioning-hash version — differ from the ones the
    directory was started with: completed partitions were produced under
    a different plan, and mixing them silently corrupts the output (e.g.
    a bucket-hash change reassigns keys across phase-2 buckets).  The
    first call records the config at ``<out_dir>/run_config.json``;
    later calls compare and raise on any mismatch.  An out_dir holding
    completed partition manifests but NO recorded config (a run started
    before configs were versioned) also refuses: its checkpoints were
    produced under an unknown plan — possibly an older bucket hash — and
    blessing them with today's config is exactly the corruption this
    guard exists to stop."""
    from logray.stages.bucketing import HASH_VERSION

    def native(v):
        # numpy scalars JSON-ify as strings via default=str; a resume
        # passing the same value as a python int would then spuriously
        # mismatch — coerce to native first
        return v.item() if isinstance(v, np.generic) else v

    cfg = {k: native(v) for k, v in config.items()}
    cfg["bucket_hash_version"] = HASH_VERSION
    # normalize through JSON so the recorded and compared forms agree
    cfg = json.loads(json.dumps(cfg, sort_keys=True, default=str))
    path = os.path.join(out_dir, "run_config.json")
    if not os.path.exists(path):
        pre_versioned = glob.glob(
            os.path.join(out_dir, "parts", "*", "manifest.json")
        ) or glob.glob(
            os.path.join(out_dir, "*", "parts", "*", "manifest.json"))
        if pre_versioned:
            raise ValueError(
                f"resumable run at {out_dir} holds checkpoints but no "
                f"run_config.json (started before configs were "
                f"versioned); its partitioning plan is unknown — rerun "
                f"in a fresh out_dir")
    if os.path.exists(path):
        with open(path) as f:
            old = json.load(f)
        if old != cfg:
            diffs = {k: (old.get(k), cfg.get(k))
                     for k in set(old) | set(cfg) if old.get(k) != cfg.get(k)}
            raise ValueError(
                f"resumable run at {out_dir} was started with different "
                f"parameters; refusing to mix its checkpoints with this "
                f"plan: {diffs} — rerun in a fresh out_dir")
        return
    publish_text(path, json.dumps(cfg, indent=2, sort_keys=True))


def _part_id(name: str, tail: int = 0) -> str:
    """``p-<name, sanitized, last ``tail`` chars (all for 0)>-<sha1>``.
    The short hash is of the RAW name: sanitizing alone collides
    ('a b.parquet' and 'a_b.parquet' would share an id, and the second
    would be silently skipped as already-done)."""
    import hashlib
    import re

    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", name)[-tail:]
    return f"p-{safe}-{hashlib.sha1(name.encode()).hexdigest()[:8]}"


def default_partitions(input_path: str) -> list[tuple[str, list[str]]]:
    """One partition per input parquet file.  Partition ids derive from
    the FILE NAME, not the sort position: positional ids (p00000, ...)
    shift when a later ingest adds a file that sorts before existing
    ones, silently skipping the new file and double-counting an old one.
    Name-stable ids make re-running on a GROWN directory process exactly
    the new files — incremental ingestion for free."""
    files = ([input_path] if os.path.isfile(input_path) else
             sorted(glob.glob(os.path.join(input_path, "*.parquet"))))
    return [(_part_id(os.path.basename(f)), [f]) for f in files]


def partitions_from_parts(phase_dir: str) -> list[tuple[str, list[str]]]:
    """One downstream partition per PARTITION a finished resumable phase
    published under ``<phase_dir>/parts/<pid>/`` — the glue that chains
    resumable phases: phase N+1's partition list derives from phase N's
    published partitions, so granularity stays CONSTANT down the chain
    (one unit of sequential driver work per upstream unit) instead of
    multiplying with the per-block file counts each write emits.  Ids
    derive from the upstream partition id (already filesystem-safe and
    name-stable); file lists within a published partition are sorted and
    immutable, so the mapping is a pure function across resumes."""
    root = os.path.join(phase_dir, "parts")
    by_pid: dict[str, list[str]] = {}
    for f in committed_files(phase_dir):
        by_pid.setdefault(os.path.relpath(f, root).split(os.sep)[0], []).append(f)
    return [(_part_id(pid, tail=48), sorted(by_pid[pid]))
            for pid in sorted(by_pid)]


def committed_files(phase_dir: str, col: str | None = None,
                    value="*") -> list[str]:
    """Parquet files of the COMMITTED partitions (``manifest.json``
    present) of a resumable phase: flat ``<phase_dir>/parts/<pid>/*``
    plus one hive level, or with ``col`` only the ``<col>=<value>/``
    dirs (``value`` may be a glob).  A crashed attempt's leftovers
    (``<pid>.inprogress``, or a dir whose manifest never landed) are
    never listed — reading them returns partial or duplicate rows.
    Selecting one value is PATH-level pruning: a row filter on a
    hash-random tag cannot prune row groups (every file spans every
    value), so a per-bucket reader would rescan the whole phase once
    per bucket."""
    root = os.path.join(phase_dir, "parts")
    done = {os.path.basename(os.path.dirname(m)) for m in
            glob.glob(os.path.join(root, "*", "manifest.json"))}
    subs = ([os.path.join(f"{col}={value}", "*.parquet")] if col else
            ["*.parquet", os.path.join("*", "*.parquet")])
    return sorted(f for sub in subs
                  for f in glob.glob(os.path.join(root, "*", sub))
                  if os.path.relpath(f, root).split(os.sep)[0] in done)


def run_resumable(
    input_path: str,
    out_dir: str,
    run_partition,
    partitions: list[tuple[str, list[str]]] | None = None,
    max_concurrent: int = 1,
    *,
    phase: str | None = None,
    _fault=None,
) -> dict:
    """Run ``run_partition(files, partition_out_dir) -> dict`` once per
    pending partition; completed partitions (manifest present) are skipped.
    A ``run_partition`` that also accepts a ``part_id`` keyword receives
    the partition's id (per-partition naming needs it — callers must not
    reverse-map it from ``files``).  ``_fault(phase, part_id)`` is the
    test-only crash-injection hook, called before each partition runs;
    ``phase`` is the name it receives.

    The partition function writes its outputs under a temp dir we pass in;
    on success we atomically rename it into place and commit the manifest.
    Returns merged run metrics.

    ``max_concurrent > 1`` runs that many partitions at once from driver
    threads (Ray Dataset executions are thread-safe and share the
    cluster's resource scheduler).  This is the multi-node shape: one
    partition's job rarely fills the cluster — a single WARC file reads
    as ONE block — so concurrent partitions are what keep 32+ cores
    busy.  Safe because every partition publishes into its own
    directory and its own ``manifest.json`` done-marker (no shared
    mutable state); a failure in any partition propagates after the
    in-flight ones finish, and completed partitions stay committed, so
    crash-resume semantics are identical to the sequential path.
    """
    import inspect

    try:
        pass_pid = "part_id" in inspect.signature(run_partition).parameters
    except (TypeError, ValueError):
        pass_pid = False
    mf = RunManifest(out_dir)
    os.makedirs(os.path.join(out_dir, "parts"), exist_ok=True)
    parts = partitions if partitions is not None else default_partitions(input_path)
    known = {pid for pid, _ in parts}
    stale = sorted(set(mf.entries()) - known)
    if stale:
        # a manifest entry no id in this run matches means the out_dir
        # was written under a different id scheme or inputs were
        # removed; merging metrics across the two would double-count
        raise RuntimeError(
            f"run_resumable: out_dir {out_dir!r} contains manifest "
            f"entries not in the current partition list ({stale[:3]}...); "
            f"use a fresh out_dir (stale outputs would double-count)")

    def one(part_id: str, files: list[str]) -> None:
        pdir = mf.partition_dir(part_id)
        tmp = pdir + ".inprogress"
        if os.path.exists(tmp):
            shutil.rmtree(tmp)  # leftover from a crashed attempt
        os.makedirs(tmp)
        t0 = time.perf_counter()
        if _fault is not None:
            _fault(phase, part_id)
        stats = (run_partition(files, tmp, part_id=part_id)
                 if pass_pid else run_partition(files, tmp)) or {}
        # atomic publish: move outputs into place, then commit the manifest
        if os.path.exists(pdir):
            shutil.rmtree(pdir)
        os.replace(tmp, pdir)
        mf.record(
            part_id,
            {
                "partition": part_id,
                "inputs": files,
                "seconds": round(time.perf_counter() - t0, 3),
                **stats,
            },
        )

    pending = [(pid, files) for pid, files in parts if not mf.is_done(pid)]
    if max_concurrent <= 1 or len(pending) <= 1:
        for part_id, files in pending:
            one(part_id, files)
        return mf.merged_metrics()

    from concurrent.futures import ThreadPoolExecutor

    # Lazy imports inside Ray's read/write paths race under concurrent
    # first-touch from threads: fsspec.implementations.http can NEVER
    # import here (aiohttp absent), so every thread re-attempts it, and
    # a thread that observes another's partially-initialized attempt
    # dies with "cannot import name HTTPFileSystem" (a plain
    # ImportError, which Ray's `except ModuleNotFoundError` does not
    # catch).  Make the import deterministic with a stub whose
    # HTTPFileSystem no real filesystem is an instance of — Ray only
    # isinstance-checks it, so the stub preserves the no-aiohttp
    # behavior (False) without the race.  Then run the FIRST partition
    # synchronously so remaining lazy paths warm before the fan-out.
    try:
        import fsspec.implementations.http  # noqa: F401
    except Exception:
        import sys
        import types

        if "fsspec.implementations.http" not in sys.modules:
            stub = types.ModuleType("fsspec.implementations.http")
            stub.HTTPFileSystem = type("HTTPFileSystem", (), {})
            sys.modules["fsspec.implementations.http"] = stub
    one(*pending[0])
    from concurrent.futures import FIRST_EXCEPTION, wait

    with ThreadPoolExecutor(max_workers=max_concurrent) as pool:
        futures = [pool.submit(one, pid, files) for pid, files in pending[1:]]
        # fail FAST: a systematic error (bad column, unreadable input)
        # fails every partition — cancel the not-yet-started backlog at
        # the first failure instead of burning through it (without one,
        # nothing is left pending); in-flight partitions finish (their
        # committed outputs stay valid for the resume), matching the
        # sequential path's first-error semantics
        for f in wait(futures, return_when=FIRST_EXCEPTION).not_done:
            f.cancel()
    for f in futures:
        if not f.cancelled() and f.exception() is not None:
            raise f.exception()
    return mf.merged_metrics()


def map_phase(input_path: str, phase_dir: str, kernel_for, *, phase: str,
              col: str | None = None, columns: list[str] | None = None,
              partitions: list[tuple[str, list[str]]] | None = None,
              max_concurrent: int = 1, _fault=None) -> dict:
    """One resumable map phase: per input partition, read its files
    (``columns``), run ``kernel_for(part_id)`` on every block as a
    ``pa.Table`` and write the result.  With ``col`` the write is
    hive-partitioned (``<pid>/<col>=<v>/``), so a per-value reader
    prunes by path (:func:`committed_files`); without it the rows go to
    flat files and the manifest records ``rows``.  Returns merged run
    metrics."""
    import ray.data as rd

    def run(files, pdir, *, part_id):
        ds = rd.read_parquet(files, columns=columns).map_batches(
            kernel_for(part_id), batch_format="pyarrow", zero_copy_batch=True)
        if col is not None:
            ds.write_parquet(pdir, partition_cols=[col])
            return {}
        ds = ds.materialize()
        ds.write_parquet(pdir)
        return {"rows": ds.count()}

    return run_resumable(input_path, phase_dir, run, partitions=partitions,
                         max_concurrent=max_concurrent, phase=phase,
                         _fault=_fault)


def resumable_exchange(input_path: str, out_dir: str, kernel_for, reduce_fn,
                       *, col: str, num_buckets: int, phases: tuple[str, str],
                       bucket_id: str = "b{:03d}",
                       columns: list[str] | None = None,
                       partitions: list[tuple[str, list[str]]] | None = None,
                       max_concurrent: int = 1,
                       _fault=None) -> tuple[str, str]:
    """The on-disk bucket exchange of a checkpointed run, as two
    resumable phases under ``out_dir/<phases[0]>`` and
    ``out_dir/<phases[1]>``:

    1. **map** — per input partition, :func:`map_phase` hive-partitioned
       on ``col`` (the kernel writes each row's bucket id there);
    2. **reduce** — per bucket ``b`` in ``range(num_buckets)``
       (partition id ``bucket_id.format(b)``):
       ``reduce_fn(files, pdir) -> stats`` on that bucket's committed
       map files, selected by path.

    Every input file and every bucket is a checkpoint, so a crash in the
    shuffle costs one bucket.  Returns the two phase dirs."""
    map_dir, reduce_dir = (os.path.join(out_dir, p) for p in phases)
    map_phase(input_path, map_dir, kernel_for, phase=phases[0], col=col,
              columns=columns, partitions=partitions,
              max_concurrent=max_concurrent, _fault=_fault)

    def run(values, pdir):
        return reduce_fn(committed_files(map_dir, col, values[0]), pdir)

    run_resumable(
        input_path, reduce_dir, run,
        partitions=[(bucket_id.format(b), [b]) for b in range(num_buckets)],
        max_concurrent=max_concurrent, phase=phases[1], _fault=_fault)
    return map_dir, reduce_dir
