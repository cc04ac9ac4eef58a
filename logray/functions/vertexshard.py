"""The sharded vertex-state engine under the iterative graph jobs.

PageRank and HITS (float and fixed-point, :mod:`logray.functions.graph`)
and connected components (:mod:`logray.functions.dedup`) run one
protocol, implemented once here:

1. the edge list pushes ONCE into ``num_shards`` actors, each row to the
   shard that owns its key vertex under :func:`owner` (one narrow
   exchange);
2. each actor freezes its edges at build and keeps its vertices' state
   in memory across iterations;
3. every iteration exchanges per-edge messages between shards
   (:meth:`ShardRun.exchange`) plus a few scalars through the driver;
4. the state checkpoints per iteration and a re-invoked run resumes
   bit-equal.

A job is a kernel — a :class:`VertexShard` subclass holding its build,
emit/apply formulas and result view — plus a driver that calls the
:class:`ShardRun` helpers in sequence.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray

from logray.state.manifest import RunManifest, batch_id, check_run_config, publish


def owner(v: np.ndarray, num_shards: int) -> np.ndarray:
    """Shard owner of a vertex id: multiplicative hash partition, the
    one every kernel uses (so all engines partition identically)."""
    return (((v.astype(np.uint64) * np.uint64(2654435761))
             & np.uint64(0xFFFFFFFF))
            % np.uint64(num_shards)).astype(np.int64)


class VertexShard:
    """One hash partition of a job's vertex state; kernels subclass it
    and are declared ``@ray.remote(num_cpus=0)``.

    The edges and the state vector LIVE here across iterations — the
    shared mutable state the Dataset API cannot express without
    re-shuffling the full edge list every iteration (10 iterations of a
    Dataset join would pay the all-to-all edge exchange 10x; this pays
    it once at load).  ``num_cpus=0``: a shard is an index holder that
    reacts to short vectorized message bursts; reserving whole CPUs for
    B idle actors would starve the Dataset tasks that feed them (and
    deadlocks a small cluster).  All per-shard work is vectorized numpy
    (searchsorted lookups, ``ufunc.at`` scatters) — no per-vertex Python
    objects.

    Bit-determinism contract for the float kernels: every reduction
    folds in a fixed order — edges are lexsorted at build, the
    per-destination message slices of :meth:`_send` preserve that
    order, receivers fold sender shards 0..B-1 with ``ufunc.at``
    (sequential scatter, :meth:`_fold`), and vertex-wide sums reduce
    over the sorted vertex order.  The result is therefore a pure
    function of (edge multiset, parameters, num_shards) — how the input
    was partitioned cannot change a single bit.  The int64 kernels need
    no such care: integer sums are exactly associative.

    Class constants a kernel sets:

    - ``STATE``: the vertex-state attributes a checkpoint holds, each
      stored under its own name as a column beside ``node``;
    - ``DTYPE``: their dtype;
    - ``RESULT``: ``(name, arrow type)`` of the result columns after the
      node id, filled by the kernel's ``_result()``;
    - ``DISTINCT_EDGES``: the kernel keeps only the distinct edge set
      (:meth:`_sorted_edges` dedups); the others keep the multiset.

    A retried push task replays batches: each slice carries its batch's
    :func:`~logray.state.manifest.batch_id` and :meth:`add` keeps the
    first copy, so every kernel stays exact under Ray's retries.
    """

    STATE: tuple[str, ...] = ()
    DTYPE: type = np.float64
    RESULT: tuple = ()
    DISTINCT_EDGES = False

    def __init__(self, num_shards: int):
        self.B = num_shards
        self._buf: dict[str, dict] = {}

    def add(self, kind: str, bid: tuple, *cols) -> int:
        """Buffer one pushed slice of ``kind`` rows until build; a
        replayed slice (same ``kind`` and batch id ``bid``) is dropped."""
        self._buf.setdefault(kind, {}).setdefault(bid, cols)
        return len(cols[0])

    def _take(self, kind: str, *dtypes) -> list[np.ndarray]:
        """Concatenate and release the buffered ``kind`` columns (empty
        arrays of ``dtypes`` when this shard received none)."""
        parts = list(self._buf.pop(kind, {}).values())
        return [np.concatenate([p[j] for p in parts]) if parts
                else np.zeros(0, dt) for j, dt in enumerate(dtypes)]

    def _sorted_edges(self, a: np.ndarray, b: np.ndarray):
        """Edges ``(a, b)`` lexsorted by a then b, deduplicated when the
        kernel keeps ``DISTINCT_EDGES``."""
        o = np.lexsort((b, a))
        a, b = a[o], b[o]
        if self.DISTINCT_EDGES and len(a):
            first = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
            a, b = a[first], b[first]
        return a, b

    def _dest_index(self, keys: np.ndarray) -> list[np.ndarray]:
        """Positions of ``keys`` owned by each shard 0..B-1, in order."""
        own = owner(keys, self.B)
        return [np.flatnonzero(own == j) for j in range(self.B)]

    def _send(self, *routes):
        """Per-destination-shard messages: each route is ``(dest_index,
        *cols)`` and shard j receives the tuple of every route's columns
        at ``dest_index[j]``.  A single-shard run returns its one
        message unwrapped (one return value)."""
        out = [tuple(c[idx[j]] for idx, *cols in routes for c in cols)
               for j in range(self.B)]
        return out if self.B > 1 else out[0]

    def _fold(self, acc: np.ndarray, msgs, at=np.add.at) -> np.ndarray:
        """Scatter ``(vertex ids, values)`` messages into ``acc``,
        sender shards 0..B-1 in turn."""
        for v, c in msgs:
            if len(v):
                at(acc, np.searchsorted(self.verts, v), c)
        return acc

    def edge_count(self) -> int:
        return len(self.src)

    def dump_state(self, path: str) -> int:
        """Atomic per-shard checkpoint write."""
        import pyarrow.parquet as pq

        t = pa.table({"node": pa.array(self.verts),
                      **{c: pa.array(getattr(self, c)) for c in self.STATE}})
        publish(path, lambda tmp: pq.write_table(t, tmp))
        return t.num_rows

    def load_state(self, path: str) -> int:
        """Read this shard's checkpoint and refuse if its vertex set is
        not exactly this shard's — the graph or num_shards changed under
        the checkpoint."""
        import pyarrow.parquet as pq

        t = pq.read_table(path)
        if not np.array_equal(t["node"].to_numpy(zero_copy_only=False),
                              self.verts):
            raise ValueError(
                "graph checkpoint shard vertex set mismatch — the edge "
                "input or num_shards changed since the checkpoint was "
                "written; delete the checkpoint dir to start clean")
        for c in self.STATE:
            setattr(self, c, t[c].to_numpy(zero_copy_only=False).astype(
                self.DTYPE))
        return len(self.verts)

    def result(self, node_col: str) -> pa.Table:
        """This shard's ``(node_col, *RESULT)`` rows, typed even when
        the shard owns no vertex."""
        schema = pa.schema([(node_col, pa.int64()), *self.RESULT])
        if not len(self.verts):
            return schema.empty_table()
        return pa.Table.from_arrays(
            [pa.array(self.verts), *map(pa.array, self._result())],
            schema=schema)


class ShardRun:
    """The driver side of one job, a context manager that owns the
    shard actors.  Call in sequence: (optionally)
    :meth:`open_checkpoint`, :meth:`push`, :meth:`build`,
    kernel-specific init through :meth:`call`, :meth:`resume`, then per
    iteration :meth:`exchange` rounds and :meth:`commit`, and finally
    :meth:`collect`."""

    def __init__(self, kernel, num_shards: int):
        # an empty shard list would push nowhere and answer with zero
        # rows (a drop list built from them would keep every duplicate)
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        self.kernel = kernel
        self.B = num_shards
        self.man = None
        self.shards = []

    def __enter__(self) -> ShardRun:
        return self

    def __exit__(self, *exc) -> None:
        """End the shard actors when the job returns or fails.  Left to
        the garbage collector they outlive the call: the push UDF holds
        their handles and is only freed by a later cyclic collection, so
        successive calls piled up their B actor processes (three calls'
        worth at once, measured)."""
        for s in self.shards:
            ray.kill(s)

    def open_checkpoint(self, ckpt_dir: str, plan: dict, n_iter: int,
                        checkpoint_every: int) -> None:
        """Open (or create) an iterative-job checkpoint dir: refuse if the
        recorded plan differs (same contract as the dedup chains) and
        resume from the newest committed iteration <= n_iter.
        ``n_iter`` itself is deliberately NOT part of the plan hash —
        state-at-iteration-i is well-defined independent of how far the
        run intends to go, so a resumed run may extend or shorten the
        iteration count.  ``checkpoint_every`` is validated HERE, before
        the expensive edge push: 0 would ZeroDivisionError at the first
        commit check, a negative value would silently never snapshot."""
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}")
        check_run_config(ckpt_dir, plan)
        self.man = RunManifest(ckpt_dir)
        self.every = checkpoint_every
        done = [int(pid.split("-", 1)[1]) for pid in self.man.entries()
                if pid.startswith("iter-")]
        self.start = max((i for i in done if i <= n_iter), default=0)

    def call(self, method: str, *args) -> list:
        """Run ``method(*args)`` on every shard; results in shard order."""
        return ray.get([getattr(s, method).remote(*args)
                        for s in self.shards])

    def push(self, edges, routes) -> None:
        """Start the shard actors and push every edge batch once:
        ``routes(t)`` returns ``(kind, key, cols)`` triples and each row
        of ``cols`` goes to the shard owning its ``key``, buffered under
        ``kind`` until build."""
        B = self.B
        shards = self.shards = [self.kernel.remote(B) for _ in range(B)]

        def push(t: pa.Table) -> pa.Table:
            bid = batch_id()
            acks = []
            for kind, key, cols in routes(t):
                own = owner(key, B)
                for j in range(B):
                    m = own == j
                    if m.any():
                        acks.append(shards[j].add.remote(
                            kind, bid, *(c[m] for c in cols)))
            ray.get(acks)
            return pa.table({"n": pa.array([t.num_rows], pa.int64())})

        edges.map_batches(push, batch_format="pyarrow").materialize()

    def build(self, *args) -> int:
        """Freeze every shard's edges; returns the total vertex count."""
        self.n_total = int(sum(self.call("build", *args)))
        return self.n_total

    def resume(self) -> int:
        """Returns the first iteration to run.  With a checkpoint, the
        rebuilt graph's vertex and edge totals are recorded with every
        commit and re-validated here, and the newest committed iteration
        scatters back into the shards (each reads exactly its own file —
        partitioning is owner-hash, pinned by the plan's num_shards), so
        a changed edge input fails loudly instead of skewing the state."""
        if self.man is None:
            return 0
        self.meta = {"n_total": self.n_total,
                     "edges": int(sum(self.call("edge_count")))}
        if self.start:
            pid = f"iter-{self.start:05d}"
            rec = self.man.entries()[pid]
            for k, v in self.meta.items():
                if rec.get(k) != v:
                    raise ValueError(
                        f"graph checkpoint {k} mismatch (checkpoint "
                        f"{rec.get(k)}, rebuilt graph {v}) — the edge "
                        "input changed; delete the checkpoint dir")
            self._shard_files(pid, "load_state")
        return self.start

    def _shard_files(self, pid: str, method: str) -> list:
        pdir = self.man.partition_dir(pid)
        os.makedirs(pdir, exist_ok=True)
        return ray.get([getattr(s, method).remote(
            os.path.join(pdir, f"shard-{j}.parquet"))
            for j, s in enumerate(self.shards)])

    def exchange(self, emit: str, apply: str, *args) -> list:
        """One message round: every shard's ``emit`` returns B
        per-destination slices as B return values, then shard j runs
        ``apply(*args, *slices for j from senders 0..B-1)``.  Returns
        the apply results in shard order."""
        B, shards = self.B, self.shards
        outs = [getattr(s, emit).options(num_returns=B).remote() if B > 1
                else [getattr(s, emit).remote()] for s in shards]
        return ray.get([getattr(shards[j], apply).remote(
            *args, *[outs[i][j] for i in range(B)]) for j in range(B)])

    def commit(self, done: int, final: bool) -> None:
        """Per-iteration checkpoint after ``done`` iterations (every
        ``checkpoint_every``, and the ``final`` one): every shard dumps
        its state parquet into the partition dir (atomic per file), THEN
        the manifest commits — a crash mid-dump leaves no manifest and
        the iteration reruns."""
        if self.man is None or not (done % self.every == 0 or final):
            return
        pid = f"iter-{done:05d}"
        rows = self._shard_files(pid, "dump_state")
        self.man.record(pid, {"iteration": done, "rows": int(sum(rows)),
                              **self.meta})

    def collect(self, node_col: str):
        """The shards' result tables as one materialized Dataset."""
        import ray.data as rd

        return rd.from_arrow_refs(
            [s.result.remote(node_col) for s in self.shards]).materialize()
