"""Web-graph analytics over edge tables ``(src, dst)``.

The crawl loop that :func:`logray.functions.urlops.extract_links` feeds
needs graph signals to curate with: PageRank — uniform, edge-weighted
and personalized/TrustRank — for quality-weighted sampling and frontier
prioritization (Page et al. 1999; Haveliwala 2002), HITS hubs &
authorities (Kleinberg 1999), connected components to collapse mirror
clusters, degree and anchor-text tables for hub/spam heuristics and
retrieval, exact triangle counts and per-node clustering coefficients
(node-iterator++ with degree orientation, Schank & Wagner 2005 — the
variant whose per-node work is bounded by O(sqrt(E)) regardless of hot
nodes; Watts & Strogatz 1998), and k-core pruning (Seidman 1983).

Scale shape shared by the family: the edge list is the only large input
and it moves AT MOST ONCE — either one narrow ``hash % B`` bucket
exchange (degrees, triangles) or one push into per-shard actor memory:
PageRank, HITS and connected components run on the one sharded
vertex-state engine (:mod:`logray.functions.vertexshard`), which then
iterates over small per-edge messages without ever re-shuffling edges.
Nothing here materializes a full-width dataset:
every exchange carries only int64 node ids plus one count/float column.

Reference anchor: the reference viewer has no graph surface (its closest
analog is the per-field occurrence bookkeeping in
`/root/reference/src/file_parsing/log_parser_interface.cpp` min/max
tracking); this family is part of the beyond-the-reference training-data
toolkit, like dedup/ANN.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from logray.functions.vertexshard import ShardRun, VertexShard
from logray.stages.bucketing import grouped_apply, isin_sorted

__all__ = [
    "degree_table",
    "connected_components_graph",
    "pagerank",
    "pagerank_fixedpoint",
    "pagerank_fixedpoint_sql",
    "triangle_count",
    "anchor_text_table",
    "hits",
    "hits_fixedpoint",
    "hits_fixedpoint_sql",
    "clustering_coefficients",
    "kcore_members",
    "kcore_members_sql",
    "sample_neighbors",
    "triangle_count_approx",
    "triangle_count_approx_sql",
    "khop_edges",
]


def _to_numpy(col, typ) -> np.ndarray:
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    return pc.cast(col, typ).to_numpy(zero_copy_only=False)


def _to_int64(col) -> np.ndarray:
    return _to_numpy(col, pa.int64())


# ---------------------------------------------------------------------------
# degree table
# ---------------------------------------------------------------------------

def degree_table(edges, src: str = "src", dst: str = "dst",
                 node_col: str = "node", num_buckets: int = 32):
    """Exact per-node out/in/total degree over a directed edge table.

    One pass of per-batch Arrow ``group_by`` partials (each batch collapses
    to at most 2x its distinct-node count of (node, out, in) rows), then
    ONE narrow ``hash(node) % B`` bucket exchange folding the partials —
    the degree stream is 24 bytes/row regardless of edge payload.
    """

    def partial(t: pa.Table) -> pa.Table:
        s = _to_int64(t[src])
        d = _to_int64(t[dst])
        both = pa.table({
            node_col: pa.array(np.concatenate([s, d])),
            "out_deg": pa.array(np.concatenate(
                [np.ones(len(s), np.int64), np.zeros(len(d), np.int64)])),
            "in_deg": pa.array(np.concatenate(
                [np.zeros(len(s), np.int64), np.ones(len(d), np.int64)])),
        })
        g = both.group_by([node_col]).aggregate(
            [("out_deg", "sum"), ("in_deg", "sum")])
        return g.rename_columns([node_col, "out_deg", "in_deg"])

    def fold(g: pa.Table) -> pa.Table:
        agg = g.group_by([node_col]).aggregate(
            [("out_deg", "sum"), ("in_deg", "sum")])
        agg = agg.rename_columns([node_col, "out_deg", "in_deg"])
        deg = pc.add(agg["out_deg"], agg["in_deg"])
        return agg.append_column("deg", deg)

    partials = edges.map_batches(partial, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return grouped_apply(partials, node_col, fold, num_buckets=num_buckets,
                         batch_format="pyarrow")


def degree_table_sql(table: str, src: str = "src", dst: str = "dst",
                     node_col: str = "node") -> str:
    """DuckDB twin of :func:`degree_table` (exact int64)."""
    return f"""
        SELECT COALESCE(o.{node_col}, i.{node_col}) AS {node_col},
               COALESCE(o.out_deg, 0) AS out_deg,
               COALESCE(i.in_deg, 0) AS in_deg,
               COALESCE(o.out_deg, 0) + COALESCE(i.in_deg, 0) AS deg
        FROM (SELECT {src} AS {node_col}, COUNT(*) AS out_deg
              FROM {table} GROUP BY 1) o
        FULL OUTER JOIN
             (SELECT {dst} AS {node_col}, COUNT(*) AS in_deg
              FROM {table} GROUP BY 1) i
        USING ({node_col})
        ORDER BY {node_col}
    """


# ---------------------------------------------------------------------------
# connected components (public graph surface over the dedup CC machinery)
# ---------------------------------------------------------------------------

def connected_components_graph(edges, src: str = "src", dst: str = "dst",
                               node_col: str = "node",
                               max_rounds: int = 16, num_shards: int = 8,
                               checkpoint: str | None = None,
                               checkpoint_every: int = 1, _fault=None):
    """Connected components of the UNDIRECTED closure of ``edges`` —
    (node, component) where component is the minimum node id reachable.

    Thin public wrapper over the sharded pointer-doubling engine built for
    near-dedup closures (``dedup.connected_components_distributed``):
    per-shard label index held in actor memory across O(log diameter)
    rounds, only small relax/pointer messages exchanged.
    ``checkpoint`` / ``checkpoint_every`` / ``_fault``: per-round
    snapshot-and-resume, same protocol as :func:`pagerank`.
    """
    from logray.functions.dedup import _components

    def narrow(t: pa.Table) -> pa.Table:
        # per-batch dedup: components are multiset-insensitive, and a
        # dense multigraph (many parallel edges into a small node space)
        # otherwise pushes every duplicate into the shard actors —
        # measured 10.2 s -> ~3 s on the bench's 3.27M-row / 997-node
        # derived graph
        tb = pa.table({"id_a": pa.array(_to_int64(t[src])),
                       "id_b": pa.array(_to_int64(t[dst]))})
        return tb.group_by(["id_a", "id_b"]).aggregate([])

    pairs = edges.map_batches(narrow, batch_format="pyarrow",
                              zero_copy_batch=True)
    return _components(pairs, "id_a", "id_b", max_rounds, num_shards,
                       checkpoint, checkpoint_every, _fault, node_col)


def connected_components_sql(table: str, src: str = "src", dst: str = "dst",
                             node_col: str = "node") -> str:
    """DuckDB twin: recursive min-label propagation.  The working set is
    bounded because a label only joins the closure when it is SMALLER than
    the node it reaches (larger labels can never be the component min)."""
    return f"""
        WITH RECURSIVE
        e AS (SELECT {src} AS a, {dst} AS b FROM {table}
              UNION
              SELECT {dst}, {src} FROM {table}),
        lbl({node_col}, comp) AS (
            SELECT a, a FROM e
            UNION
            SELECT e.b, lbl.comp
            FROM lbl JOIN e ON e.a = lbl.{node_col}
            WHERE lbl.comp < e.b
        )
        SELECT {node_col}, MIN(comp) AS component
        FROM lbl GROUP BY {node_col} ORDER BY {node_col}
    """


# ---------------------------------------------------------------------------
# PageRank — per-shard actor exchange (edges loaded once, then only
# rank/contribution messages move)
# ---------------------------------------------------------------------------

class _PRKernel(VertexShard):
    """PageRank shard state shared by the float and int64 kernels: the
    out-edges of this shard's vertices (``edges``, pushed to owner(src)),
    every vertex it owns (``nodes``: dst ids pushed to owner(dst), so
    in-only vertices exist too), per-vertex total out-weight ``wout``,
    the teleport vector ``p`` and ``rank``."""

    STATE = ("rank",)
    RESULT = (("rank", pa.float64()),)
    NAME = "pagerank"

    def build(self, weighted: bool) -> int:
        if weighted:
            src, dst, w = self._take("edges", np.int64, np.int64,
                                     self.DTYPE)
        else:
            src, dst = self._take("edges", np.int64, np.int64)
            w = np.ones(len(src), self.DTYPE)
        (reg,) = self._take("nodes", np.int64)
        if (w < 0).any():
            raise ValueError(f"{self.NAME}: negative edge weight")
        self.verts = np.unique(np.concatenate([src, reg]))
        keep = w > 0  # zero-weight edges contribute nothing and would
        src, dst, w = src[keep], dst[keep], w[keep]  # 0/0 in emit
        # (their src stays a vertex — it just becomes dangling)
        # weight joins the sort key so parallel edges with distinct
        # weights fold in ONE order regardless of arrival order —
        # the bit-determinism contract extends to the weighted path
        order = np.lexsort((w, dst, src))
        self.src, self.dst, self.w = src[order], dst[order], w[order]
        self._src_pos = np.searchsorted(self.verts, self.src)
        self.wout = np.zeros(len(self.verts), self.DTYPE)
        np.add.at(self.wout, self._src_pos, self.w)
        self._dest_idx = self._dest_index(self.dst)
        return len(self.verts)

    def dangling_sum(self):
        # over the sorted vertex order; .item() gives a Python float/int
        return self.rank[self.wout == 0].sum().item()

    def _result(self):
        return (self.rank,)


@ray.remote(num_cpus=0)
class _PRShard(_PRKernel):
    """Float PageRank kernel (bit-deterministic per the
    :class:`~logray.functions.vertexshard.VertexShard` contract)."""

    def init_ranks(self, n_total: int, p_ref=None) -> float:
        """Set the teleport vector (uniform, or the personalization
        masses restricted to this shard's verts) and start rank = p.
        Returns this shard's share of the p mass actually present so
        the driver can renormalize."""
        if p_ref is None:
            self.p = np.full(len(self.verts), 1.0 / n_total, np.float64)
            self.rank = self.p.copy()
            return float(len(self.verts)) / n_total
        nodes, masses = ray.get(p_ref) if isinstance(
            p_ref, ray.ObjectRef) else p_ref
        self.p = np.zeros(len(self.verts), np.float64)
        pos = np.searchsorted(self.verts, nodes)
        hit = (pos < len(self.verts))
        hit[hit] &= self.verts[pos[hit]] == nodes[hit]
        np.add.at(self.p, pos[hit], masses[hit])
        return float(self.p.sum())

    def scale_p(self, inv_total: float) -> None:
        self.p = self.p * inv_total
        self.rank = self.p.copy()

    def emit(self):
        """Per-destination-shard (dst ids, contributions) in the fixed
        build order."""
        contrib = (self.rank[self._src_pos] * self.w
                   / self.wout[self._src_pos])
        return self._send((self._dest_idx, self.dst, contrib))

    def apply(self, damping: float, dangling_total: float, *msgs) -> int:
        recv = self._fold(np.zeros(len(self.verts), np.float64), msgs)
        self.rank = ((1.0 - damping) * self.p
                     + damping * dangling_total * self.p
                     + damping * recv)
        return 0


def _pr_routes(src: str, dst: str, weight_col: str | None, wtype):
    """PageRank push: out-edges (+ weights cast to ``wtype``) to
    owner(src), distinct dst ids to owner(dst)."""

    def routes(t: pa.Table):
        s = _to_int64(t[src])
        d = _to_int64(t[dst])
        cols = (s, d) if weight_col is None else (
            s, d, _to_numpy(t[weight_col], wtype))
        nodes = np.unique(d)
        return [("edges", s, cols), ("nodes", nodes, (nodes,))]

    return routes


def _plan_personalization(personalization):
    """Deterministic JSON-able form of the personalization argument for
    the checkpoint plan hash."""
    if personalization is None:
        return None
    if isinstance(personalization, dict):
        return sorted((int(k), float(v))
                      for k, v in personalization.items())
    return sorted({int(x) for x in personalization})


def pagerank(edges, src: str = "src", dst: str = "dst",
             node_col: str = "node", damping: float = 0.85,
             n_iter: int = 20, num_shards: int = 8,
             weight_col: str | None = None,
             personalization=None,
             checkpoint: str | None = None, checkpoint_every: int = 1,
             _fault=None):
    """PageRank over a directed edge table, returning (node, rank).

    Update rule (Page et al. 1999, dangling mass redistributed along the
    teleport vector ``p`` — ranks sum to 1 every iteration)::

        rank'(v) = (1-d)*p(v) + d * (dangling*p(v)
                                     + sum_{u->v} rank(u)*w(u,v)/W(u))

    ``weight_col`` names a non-negative edge-weight column (``W(u)`` =
    sum of u's out-weights; zero-weight edges drop, their src stays a
    dangling vertex); unweighted, every w = 1 and W = outdeg.
    ``personalization`` seeds the teleport vector (the TrustRank /
    topic-sensitive form, Haveliwala 2002): a dict ``{node: mass}`` or
    an iterable of seed nodes (uniform over seeds); masses restrict to
    nodes present in the graph and renormalize to 1 (all-absent seeds
    raise).  ``None`` = classic uniform teleport.

    Shape: edges push ONCE into per-shard actor CSRs (one narrow exchange
    of 16-24 bytes/edge); each of the ``n_iter`` iterations then moves
    only per-edge float contributions between shards and B dangling
    scalars to the driver — the edge list itself never moves again.
    Bit-deterministic under any input partitioning (see ``VertexShard``;
    weights join the edge sort key).  Fixed ``n_iter`` rather than a
    tolerance so the output is a pure function of the arguments.

    ``checkpoint`` names a directory for per-iteration rank snapshots
    (every ``checkpoint_every`` iterations + the final one): a killed
    run re-invoked with the same arguments re-pushes the edges (cheap,
    one exchange) and resumes from the newest committed iteration —
    final ranks BIT-EQUAL to an uninterrupted run (test-pinned).  The
    plan (everything except n_iter) is recorded in ``run_config.json``
    and a mismatched re-invocation refuses, like the dedup chains; the
    per-shard vertex sets and n_total are re-validated at load so a
    changed edge input fails loudly instead of skewing ranks.
    ``_fault(phase, i)`` is a test-only crash-injection hook.
    """
    with ShardRun(_PRShard, num_shards) as run:
        if checkpoint is not None:
            run.open_checkpoint(checkpoint, {
                "algo": "pagerank", "src": src, "dst": dst,
                "node_col": node_col, "damping": damping,
                "num_shards": num_shards, "weight_col": weight_col,
                "personalization": _plan_personalization(personalization),
            }, n_iter, checkpoint_every)
        run.push(edges, _pr_routes(src, dst, weight_col, pa.float64()))
        n_total = run.build(weight_col is not None)
        if n_total == 0:
            return run.collect(node_col)
        if personalization is None:
            run.call("init_ranks", n_total)
        else:
            if isinstance(personalization, dict):
                items = sorted(personalization.items())
                nodes = np.array([k for k, _ in items], np.int64)
                masses = np.array([v for _, v in items], np.float64)
                if (masses < 0).any():
                    raise ValueError("pagerank: negative personalization mass")
            else:
                nodes = np.unique(np.asarray(list(personalization), np.int64))
                masses = np.ones(len(nodes), np.float64)
            present = sum(run.call("init_ranks", n_total,
                                   ray.put((nodes, masses))))
            if present <= 0.0:
                raise ValueError("pagerank: no personalization seed is "
                                 "present in the graph")
            run.call("scale_p", 1.0 / present)

        for it in range(run.resume(), n_iter):
            if _fault is not None:
                _fault("iter", it)
            dang = sum(run.call("dangling_sum"))
            run.exchange("emit", "apply", damping, dang)
            run.commit(it + 1, it + 1 == n_iter)
        return run.collect(node_col)


# ---------------------------------------------------------------------------
# fixed-point integer PageRank — the gate-exact variant
# ---------------------------------------------------------------------------
#
# Same shard-actor exchange shape as ``pagerank`` (edges push once, then
# only per-edge contribution messages move), but every quantity is an
# int64 in units of 1/PR_SCALE.  Integer addition is exactly associative,
# so the result is bit-identical under ANY partitioning, fold order, and
# — crucially — under a completely different engine: the DuckDB twin
# produced by :func:`pagerank_fixedpoint_sql` replays the identical
# integer recursion and matches hash-for-hash.  The float ``pagerank``
# stays the scale workhorse; this variant exists so the PageRank family
# has an EXACT cross-engine oracle (driver gate + tests), at the cost of
# a deterministic quantization of ~1/PR_SCALE per node per iteration.

PR_SCALE = 10**12
_PR_SPLIT = 10**6  # sqrt(PR_SCALE): lets (x * p) // PR_SCALE with
#                    x, p <= PR_SCALE evaluate exactly in int64 —
#                    (x*(p//1e6) + (x*(p%1e6))//1e6)//1e6, every
#                    intermediate <= 1e18 < 2^63 (proof in _fp_mul_div)
_PR_MAX_OUTW = np.int64(1) << 31  # emission needs W^2 < 2^63


def _fp_mul_div(x: np.int64 | int, p: np.ndarray) -> np.ndarray:
    """Exact ``floor(x * p / PR_SCALE)`` without 128-bit ints, for
    ``0 <= x <= PR_SCALE`` and ``0 <= p <= PR_SCALE`` (both int64).

    With ``p = hi*1e6 + lo``: ``x*p = (x*hi)*1e6 + x*lo``, and
    ``floor((a*1e6 + b) / 1e12) == (a + b//1e6) // 1e6`` exactly
    (write ``b = c*1e6 + b2``; the remainder term is < 1e12).  Every
    intermediate is <= 1e12 * 1e6 = 1e18 < 2^63.
    """
    x = np.int64(x)
    a = x * (p // _PR_SPLIT)
    b = x * (p % _PR_SPLIT)
    return (a + b // _PR_SPLIT) // _PR_SPLIT


@ray.remote(num_cpus=0)
class _PRIntShard(_PRKernel):
    """Fixed-point PageRank kernel: the float kernel's build and
    partitioning with int64 arithmetic throughout; no fold-order care is
    needed because integer sums are exact."""

    DTYPE = np.int64
    NAME = "pagerank_fixedpoint"

    def build(self, weighted: bool) -> int:
        n = super().build(weighted)
        if (self.wout >= _PR_MAX_OUTW).any():
            raise ValueError(
                "pagerank_fixedpoint: a node's total out-weight exceeds "
                "2^31; the int64 emission needs W^2 < 2^63 — rescale the "
                "weight units (e.g. dollars instead of cents) and rerun")
        return n

    def seeds_present(self, seeds: np.ndarray) -> int:
        pos = np.searchsorted(self.verts, seeds)
        hit = pos < len(self.verts)
        hit[hit] &= self.verts[pos[hit]] == seeds[hit]
        self._seed_mask = np.zeros(len(self.verts), bool)
        self._seed_mask[pos[hit]] = True
        return int(hit.sum())

    def init_ranks(self, n_total: int, n_present_seeds: int | None = None
                   ) -> int:
        if n_present_seeds is None:
            self.p = np.full(len(self.verts), PR_SCALE // n_total,
                             np.int64)
        else:
            self.p = np.where(self._seed_mask,
                              np.int64(PR_SCALE // n_present_seeds),
                              np.int64(0))
        self.rank = self.p.copy()
        return 0

    def emit(self):
        rk = self.rank[self._src_pos]
        tw = self.wout[self._src_pos]
        q, r = np.divmod(rk, tw)
        # q*w <= (rk/W)*W = rk <= PR_SCALE; r*w < W^2 < 2^63: exact
        contrib = q * self.w + (r * self.w) // tw
        return self._send((self._dest_idx, self.dst, contrib))

    def apply(self, dnum: int, dden: int, dangling_total: int, *msgs
              ) -> int:
        recv = self._fold(np.zeros(len(self.verts), np.int64), msgs)
        dang_p = _fp_mul_div(dangling_total, self.p)
        self.rank = (((dden - dnum) * self.p) // dden
                     + (dnum * (dang_p + recv)) // dden)
        return 0

    def _result(self):
        # int64 / 1e12: both operands exactly representable as doubles
        # (< 2^53), one correctly-rounded division — any IEEE-754 engine
        # (numpy here, DuckDB in the twin) produces the identical bits
        return (self.rank / float(PR_SCALE),)


def pagerank_fixedpoint(edges, src: str = "src", dst: str = "dst",
                        node_col: str = "node", n_iter: int = 20,
                        num_shards: int = 8,
                        damping_num: int = 85, damping_den: int = 100,
                        weight_col: str | None = None,
                        personalization=None,
                        checkpoint: str | None = None,
                        checkpoint_every: int = 1, _fault=None):
    """PageRank in fixed-point int64 (units of 1/PR_SCALE), returning
    ``(node, rank)`` with ``rank = rank_int / PR_SCALE`` as float64.

    The update rule quantizes the float recursion with explicit floors
    (``d = damping_num/damping_den``, default 85/100)::

        rank'(v) = ((den-num)*p(v)) // den
                   + (num * ((dangling * p(v)) // S + recv(v))) // den
        recv(v)  = sum_{u->v} (rank(u)//W(u))*w + ((rank(u)%W(u))*w)//W(u)

    where ``S = PR_SCALE = 10^12``, ``p`` is the teleport vector
    (uniform ``S // N``, or ``S // |seeds∩V|`` on present seeds for the
    personalized form — ``personalization`` is an iterable of seed node
    ids, uniform mass), and ``W(u)`` is u's total integer out-weight
    (``weight_col`` must be non-negative int64; unweighted w = 1).
    Per-node quantization error vs the float rule is < n_iter/S ≈ 2e-11
    — rank ORDER and magnitude are PageRank for every practical purpose.

    Why this exists: integer arithmetic is exactly associative, so the
    result is a pure function of the edge multiset — bit-identical
    across partitioning, shard counts, AND engines.
    :func:`pagerank_fixedpoint_sql` emits a DuckDB twin (the same
    recursion unrolled into CTEs) that matches hash-for-hash; this is
    the PageRank entry the correctness gate verifies exactly, while the
    float :func:`pagerank` remains the throughput workhorse.

    Scale shape: identical to :func:`pagerank` — edges push once into
    per-shard CSRs (one narrow exchange, ~24 B/edge), each iteration
    moves one int64 per edge between shards plus B dangling scalars.
    Limits, enforced loudly at build: per-node total out-weight < 2^31
    (rescale weight units past that) and the int64 emission/apply bounds
    proven in the shard docstrings.
    """
    if not (0 < damping_num < damping_den):
        raise ValueError("pagerank_fixedpoint: need 0 < num < den")
    if damping_den * 2 * PR_SCALE >= (1 << 63):
        # apply() computes (den-num)*p (p <= PR_SCALE) and
        # num*(dang_p + recv) (the sum <= 2*PR_SCALE) in int64 — a
        # large denominator wraps silently on the numpy side while the
        # HUGEINT twin stays correct, breaking the bit-exact contract;
        # 85/100-style rationals are the use case
        raise ValueError(
            "pagerank_fixedpoint: damping_den too large — need "
            f"den * {2 * PR_SCALE} < 2^63 (den <= "
            f"{((1 << 63) - 1) // (2 * PR_SCALE)}); reduce the fraction")
    with ShardRun(_PRIntShard, num_shards) as run:
        if checkpoint is not None:
            # same checkpoint protocol as pagerank() — see its docstring
            run.open_checkpoint(checkpoint, {
                "algo": "pagerank_fixedpoint", "src": src, "dst": dst,
                "node_col": node_col, "damping_num": damping_num,
                "damping_den": damping_den, "num_shards": num_shards,
                "weight_col": weight_col,
                "personalization": _plan_personalization(personalization),
            }, n_iter, checkpoint_every)
        run.push(edges, _pr_routes(src, dst, weight_col, pa.int64()))
        n_total = run.build(weight_col is not None)
        if n_total == 0:
            return run.collect(node_col)
        if personalization is None:
            run.call("init_ranks", n_total)
        else:
            seeds = np.unique(np.asarray(list(personalization), np.int64))
            present = sum(run.call("seeds_present", seeds))
            if present <= 0:
                raise ValueError("pagerank_fixedpoint: no personalization "
                                 "seed is present in the graph")
            run.call("init_ranks", n_total, present)

        for it in range(run.resume(), n_iter):
            if _fault is not None:
                _fault("iter", it)
            dang = sum(run.call("dangling_sum"))
            run.exchange("emit", "apply", damping_num, damping_den, dang)
            run.commit(it + 1, it + 1 == n_iter)
        return run.collect(node_col)


def pagerank_fixedpoint_sql(edges_sql: str, node_col: str = "node",
                            n_iter: int = 20, damping_num: int = 85,
                            damping_den: int = 100,
                            weight_expr: str | None = None,
                            seeds=None, src: str = "src",
                            dst: str = "dst") -> str:
    """DuckDB twin of :func:`pagerank_fixedpoint`: the identical int64
    recursion unrolled into ``n_iter`` CTE stages (recursive CTEs can't
    aggregate in the recursive term, and unrolling keeps every stage a
    plain join+groupby the optimizer streams).  ``edges_sql`` is a
    parenthesized subquery with columns ``src, dst`` (+ the weight
    column ``weight_expr`` names, if weighted); ``seeds`` mirrors
    ``personalization``.  DuckDB's integer SUM widens to HUGEINT, so no
    intermediate here can overflow; each stage casts rank back to
    BIGINT, which is exact because mass never grows."""
    S = PR_SCALE
    w = f"CAST({weight_expr} AS BIGINT)" if weight_expr else "CAST(1 AS BIGINT)"
    parts = [
        f"e0 AS (SELECT {src} AS s, {dst} AS d, {w} AS w FROM {edges_sql} E)",
        "nodes AS (SELECT s AS node FROM e0 UNION SELECT d FROM e0)",
        "e AS (SELECT s, d, w FROM e0 WHERE w > 0)",
        "outw AS (SELECT s, SUM(w) AS tw FROM e GROUP BY s)",
    ]
    if seeds is None:
        parts.append(
            f"pvec AS (SELECT node, {S} // (SELECT COUNT(*) FROM nodes)"
            " AS p FROM nodes)")
    else:
        seed_list = ", ".join(
            str(int(x)) for x in sorted({int(x) for x in seeds}))
        parts.append("seeds AS (SELECT DISTINCT CAST(UNNEST("
                     f"[{seed_list}]) AS BIGINT) AS node)")
        parts.append("pres AS (SELECT s.node FROM seeds s "
                     "JOIN nodes USING(node))")
        parts.append(
            "pvec AS (SELECT n.node, CASE WHEN pr.node IS NOT NULL THEN "
            f"{S} // (SELECT COUNT(*) FROM pres) ELSE 0 END AS p "
            "FROM nodes n LEFT JOIN pres pr USING(node))")
    parts.append("r0 AS (SELECT node, CAST(p AS BIGINT) AS rank FROM pvec)")
    for k in range(1, n_iter + 1):
        j = k - 1
        parts.append(
            f"d{k} AS (SELECT COALESCE(SUM(r.rank), 0) AS dang "
            f"FROM r{j} r LEFT JOIN outw o ON o.s = r.node "
            "WHERE o.s IS NULL)")
        parts.append(
            f"m{k} AS (SELECT e.d AS node, "
            "SUM((r.rank // o.tw) * e.w + ((r.rank % o.tw) * e.w) // o.tw)"
            f" AS recv FROM r{j} r JOIN e ON e.s = r.node "
            "JOIN outw o ON o.s = e.s GROUP BY e.d)")
        parts.append(
            f"r{k} AS (SELECT p.node, CAST("
            f"({damping_den - damping_num} * p.p) // {damping_den} + "
            f"({damping_num} * ((d.dang * p.p) // {S} + "
            f"COALESCE(m.recv, 0))) // {damping_den} AS BIGINT) AS rank "
            f"FROM pvec p LEFT JOIN m{k} m USING(node) CROSS JOIN d{k} d)")
    # AS MATERIALIZED is load-bearing, not a hint: r{k-1} is referenced
    # TWICE per stage (d{k} and m{k}), so DuckDB's default CTE inlining
    # doubles the plan subtree per iteration — 2^n_iter blowup (measured:
    # n_iter=9 takes 32 s inlined vs 0.2 s materialized at 5k edges).
    parts = [p.replace(" AS (", " AS MATERIALIZED (", 1) for p in parts]
    return ("WITH " + ",\n".join(parts)
            + f"\nSELECT node AS {node_col}, rank / {float(S)!r} AS rank "
            + f"FROM r{n_iter} ORDER BY {node_col}")


# ---------------------------------------------------------------------------
# triangle counting / clustering coefficients (degree-oriented node-iterator)
# ---------------------------------------------------------------------------
#
# Shared machinery (Schank & Wagner 2005): orient each distinct undirected
# edge from its lower-(deg, id) endpoint to the higher, so every vertex's
# oriented out-degree is O(sqrt(E)) even at a hot hub — the wedge stage is
# bounded at E^1.5 total regardless of skew.  Two regimes:
#
# - BROADCAST (batch-deduped distinct-edge estimate <= max_broadcast edges):
#   DRIVER MEMORY BUDGET — max_broadcast is denominated in DISTINCT
#   undirected edges, and the driver pays ~16 B/edge RESIDENT (two int64
#   arrays) plus a TRANSIENT peak of ~3-4x that during the
#   lexsort/unique global dedup (index array + sorted copies).  The
#   default 100M edges therefore assumes ~1.6 GB resident / ~6 GB peak
#   driver headroom — it covers the web-HOST graph (~50M edges = 800 MB
#   resident) on this 128 GiB box; LOWER the gate on a thinner driver,
#   the join fallback is result-identical (test-pinned).  Past the gate:
#   the distinct-edge set folds ON THE DRIVER
#   (global dedup, degree census, orientation, dense-rank key packing —
#   one numpy pass each), the sorted key array broadcasts via ray.put, and
#   wedge generation runs as a plain task map over edge blocks PRE-SPLIT
#   at u-boundaries — ZERO distributed exchanges after the per-batch dedup
#   map; the wedge stream (often 10-100x the edge count) never leaves its
#   task, only bounded counts do.
# - JOIN FALLBACK (URL-graph scale): canon bucket dedup, degree census
#   fold, two bucketed degree joins, wedge bucket exchange, wedge/edge
#   match join — all narrow int64 exchanges, on the explicit bucketed TASK
#   path (_bucketed_join), not the builtin JoinOperator: multiple builtin
#   join actor pools in one lazy topology starve/cross-wire each other
#   (same pathology the Q5 multi-way pipeline documents in stages/join.py).


def _canon_local(edges, src: str, dst: str):
    """Per-batch-deduped canonical (a, b) edges: a < b, self-loops
    dropped; global dedup is the caller's regime-specific step."""

    def canon_batch(t: pa.Table) -> pa.Table:
        s = _to_int64(t[src])
        d = _to_int64(t[dst])
        a = np.minimum(s, d)
        b = np.maximum(s, d)
        keep = a != b
        tb = pa.table({"a": pa.array(a[keep]), "b": pa.array(b[keep])})
        return tb.group_by(["a", "b"]).aggregate([])

    return edges.map_batches(canon_batch, batch_format="pyarrow",
                             zero_copy_batch=True).materialize()


def _collect_canon(local):
    """Driver-side gather + GLOBAL dedup of the batch-deduped canonical
    edge set: sorted (a, b) int64 arrays, or None for an empty graph
    (the broadcast-regime prologue shared by the triangle/clustering
    fold and k-core peeling)."""
    parts = [t for t in ray.get(local.to_arrow_refs())
             if t.num_columns and t.num_rows]
    if not parts:
        return None
    et = pa.concat_tables(parts).combine_chunks()
    a = pc.cast(et["a"], pa.int64()).to_numpy(zero_copy_only=False)
    b = pc.cast(et["b"], pa.int64()).to_numpy(zero_copy_only=False)
    o = np.lexsort((b, a))
    a, b = a[o], b[o]
    first = np.r_[True, (a[1:] != a[:-1]) | (b[1:] != b[:-1])]
    return a[first], b[first]


def _broadcast_fold(local, num_buckets: int):
    """Driver-side fold of the batch-deduped edge set: global dedup,
    degree census, degree orientation, dense-rank key packing, and
    u-boundary block cuts.  Returns None for an empty graph, else
    ``(nodes, deg, nn, keys, blocks)`` where ``blocks`` are (u, v)
    rank-space tables whose u-segments never span blocks."""
    ab = _collect_canon(local)
    if ab is None:
        return None
    a, b = ab
    nodes = np.unique(np.concatenate([a, b]))
    nn = len(nodes)
    ra = np.searchsorted(nodes, a)
    rb = np.searchsorted(nodes, b)
    deg = np.zeros(nn, np.int64)
    np.add.at(deg, ra, 1)
    np.add.at(deg, rb, 1)
    a_first = (deg[ra] < deg[rb]) | ((deg[ra] == deg[rb]) & (a < b))
    ru = np.where(a_first, ra, rb)
    rv = np.where(a_first, rb, ra)
    kv = np.where(a_first, deg[rb], deg[ra])
    keys = np.sort(ru * np.int64(nn) + rv)
    o2 = np.lexsort((rv, kv, ru))
    ru, rv = ru[o2], rv[o2]
    m = len(ru)
    cuts = [0]
    for tgt in range(1, num_buckets):
        p = tgt * m // num_buckets
        p = int(np.searchsorted(ru, ru[min(p, m - 1)]))
        if p > cuts[-1]:
            cuts.append(p)
    cuts.append(m)
    blocks = [pa.table({"u": pa.array(ru[lo:hi]),
                        "v": pa.array(rv[lo:hi])})
              for lo, hi in zip(cuts[:-1], cuts[1:]) if hi > lo]
    return nodes, deg, nn, keys, blocks


def _wedge_pairs(u: np.ndarray):
    """Segmented all-pairs over a u-sorted array: row index pairs
    (fst, snd) of every within-segment combination — fully vectorized
    (no per-center Python loop)."""
    w = len(u)
    starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
    lens = np.diff(np.r_[starts, w])
    seg_end = np.repeat(starts + lens, lens)
    rows = np.arange(w, dtype=np.int64)
    reps = seg_end - rows - 1
    total = int(reps.sum())
    if total == 0:
        return None
    fst = np.repeat(rows, reps)
    cum = np.concatenate([[0], np.cumsum(reps)])
    snd = fst + 1 + (np.arange(total, dtype=np.int64) - cum[fst])
    return fst, snd


def _bjoin_factory(num_buckets: int):
    from logray.stages.join import _bucketed_join

    def bjoin(left, right, on, right_on=None, how="inner"):
        on = (on,) if isinstance(on, str) else tuple(on)
        right_on = on if right_on is None else (
            (right_on,) if isinstance(right_on, str) else tuple(right_on))
        return _bucketed_join(left, right, on, right_on, how, num_buckets)

    return bjoin


def _oriented_join_path(local, num_buckets: int):
    """Join-fallback shared plan: global canon dedup, degree census,
    two bucketed degree joins, orientation map.  Returns
    ``(oriented, degt)`` — oriented carries (u, v, kv) in ID space."""
    bjoin = _bjoin_factory(num_buckets)

    def fold_canon(g: pa.Table) -> pa.Table:
        return g.group_by(["a", "b"]).aggregate([])

    canon = grouped_apply(local, "a", fold_canon,
                          num_buckets=num_buckets,
                          batch_format="pyarrow").materialize()
    degt = degree_table(canon, src="a", dst="b", node_col="node",
                        num_buckets=num_buckets)
    degt = degt.map_batches(lambda t: t.select(["node", "deg"]),
                            batch_format="pyarrow",
                            zero_copy_batch=True).materialize()
    with_da = bjoin(canon, degt, on="a", right_on="node")
    with_da = with_da.map_batches(
        lambda t: pa.table({"a": t["a"], "b": t["b"], "deg_a": t["deg"]}),
        batch_format="pyarrow", zero_copy_batch=True)
    with_db = bjoin(with_da, degt, on="b", right_on="node")

    def orient(t: pa.Table) -> pa.Table:
        a = _to_int64(t["a"])
        b = _to_int64(t["b"])
        da = _to_int64(t["deg_a"])
        db = _to_int64(t["deg"])
        # lower (deg, id) endpoint first
        a_first = (da < db) | ((da == db) & (a < b))
        u = np.where(a_first, a, b)
        v = np.where(a_first, b, a)
        kv = np.where(a_first, db, da)
        return pa.table({"u": pa.array(u), "v": pa.array(v),
                         "kv": pa.array(kv)})

    oriented = with_db.map_batches(orient, batch_format="pyarrow",
                                   zero_copy_batch=True).materialize()
    return oriented, degt


def _join_wedges(oriented, num_buckets: int, with_center: bool):
    """Join-fallback wedge census (+closing-edge match input): wedge
    rows per bucket, optionally carrying their CENTER."""

    def wedges(g: pa.Table) -> pa.Table:
        u = _to_int64(g["u"])
        v = _to_int64(g["v"])
        kv = _to_int64(g["kv"])
        cols = ([("c", pa.int64())] if with_center else []) + \
            [("u", pa.int64()), ("v", pa.int64())]
        if len(u) == 0:
            return pa.schema(cols).empty_table()
        order = np.lexsort((v, kv, u))
        u, v = u[order], v[order]
        pairs = _wedge_pairs(u)
        if pairs is None:
            return pa.schema(cols).empty_table()
        fst, snd = pairs
        data = {"u": pa.array(v[fst]), "v": pa.array(v[snd])}
        if with_center:
            data = {"c": pa.array(u[fst]), **data}
        return pa.table(data)

    return grouped_apply(oriented, "u", wedges, num_buckets=num_buckets,
                         batch_format="pyarrow")


def triangle_count(edges, src: str = "src", dst: str = "dst",
                   num_buckets: int = 32, max_broadcast: int = 100_000_000):
    """Exact triangle count of the undirected simple graph underlying
    ``edges`` — one row ``{"triangles": n}``.  Each triangle is counted
    exactly once, at its minimum-(deg, id) corner.  Regimes and scale
    shape: see the section comment above — ``max_broadcast`` counts
    DISTINCT undirected edges at ~16 B/edge driver-resident plus a
    3-4x transient dedup peak; lower it on a thin driver, the join
    fallback is result-identical.
    """
    import ray.data as rd

    local = _canon_local(edges, src, dst)

    if local.count() <= max_broadcast:
        fold = _broadcast_fold(local, num_buckets)
        if fold is None:
            return rd.from_arrow(
                pa.table({"triangles": pa.array([0], pa.int64())}))
        _nodes, _deg, nn, keys, blocks = fold
        keys_ref = ray.put(keys)

        def wedge_probe(g: pa.Table) -> pa.Table:
            ks = ray.get(keys_ref)
            u = _to_int64(g["u"])
            v = _to_int64(g["v"])
            pairs = _wedge_pairs(u) if len(u) else None
            if pairs is None:
                return pa.table({"n": pa.array([0], pa.int64())})
            fst, snd = pairs
            hit = isin_sorted(v[fst] * np.int64(nn) + v[snd], ks)
            return pa.table({"n": pa.array([int(hit.sum())], pa.int64())})

        counted = rd.from_arrow(blocks).map_batches(
            wedge_probe, batch_format="pyarrow", batch_size=None,
            zero_copy_batch=True)
        n = sum(r["n"] for r in counted.take_all())
        return rd.from_arrow(
            pa.table({"triangles": pa.array([n], pa.int64())}))

    oriented, _degt = _oriented_join_path(local, num_buckets)
    wedge_ds = _join_wedges(oriented, num_buckets, with_center=False)
    closing = oriented.map_batches(lambda t: t.select(["u", "v"]),
                                   batch_format="pyarrow",
                                   zero_copy_batch=True)
    bjoin = _bjoin_factory(num_buckets)
    n = bjoin(wedge_ds, closing, on=("u", "v")).count()
    return rd.from_arrow(pa.table({"triangles": pa.array([n], pa.int64())}))


def triangle_count_sql(table: str, src: str = "src",
                       dst: str = "dst") -> str:
    """DuckDB twin: 3-way self-join over canonical a<b edges (each
    triangle counted once at its minimum-id corner — orientation choice
    cannot change the count)."""
    return f"""
        WITH c AS (
            SELECT DISTINCT least({src}, {dst}) AS a,
                            greatest({src}, {dst}) AS b
            FROM {table} WHERE {src} <> {dst})
        SELECT CAST(COUNT(*) AS BIGINT) AS triangles
        FROM c e1
        JOIN c e2 ON e2.a = e1.a AND e2.b > e1.b
        JOIN c e3 ON e3.a = e1.b AND e3.b = e2.b
    """


# ---------------------------------------------------------------------------
# anchor-text aggregation — what the web calls each target page
# ---------------------------------------------------------------------------

def anchor_text_table(edges, dst: str = "dst", anchor: str = "anchor",
                      n_top: int = 3, num_buckets: int = 32):
    """Top-``n_top`` anchor strings per link TARGET with their counts —
    ``(dst, anchor, n, rank)``, rank 1.. by (count DESC, anchor ASC).

    The classic link-text relevance signal (anchor text describes the
    TARGET better than the target describes itself — the observation
    behind anchor-text indexing in Brin & Page 1998 §2.2): aggregated
    per destination it feeds retrieval indexes and quality scoring.

    Scale shape: per-batch Arrow ``group_by(dst, anchor)`` census
    partials collapse the edge payload immediately (the full anchor
    string set per batch, counts as int64), then ONE ``hash(dst) % B``
    bucket exchange folds partials and takes the per-dst top-k with a
    segmented vectorized pass — the anchor text crosses the wire once,
    already deduplicated per batch.  Hot targets (every page links
    "home") stay bounded: the census keys are (dst, anchor) DISTINCT
    pairs, not raw edges.
    """

    def partial(t: pa.Table) -> pa.Table:
        tb = pa.table({dst: pc.cast(t[dst], pa.int64()),
                       anchor: pc.cast(t[anchor], pa.string()),
                       "n": pa.array(np.ones(len(t), np.int64))})
        g = tb.group_by([dst, anchor]).aggregate([("n", "sum")])
        return g.rename_columns([dst, anchor, "n"])

    def fold(g: pa.Table) -> pa.Table:
        agg = g.group_by([dst, anchor]).aggregate([("n", "sum")])
        agg = agg.rename_columns([dst, anchor, "n"])
        order = pc.sort_indices(agg, sort_keys=[
            (dst, "ascending"), ("n", "descending"),
            (anchor, "ascending")])
        s = agg.take(order)
        d = s[dst].to_numpy(zero_copy_only=False)
        m = len(d)
        if m == 0:
            return pa.schema([(dst, pa.int64()), (anchor, pa.string()),
                              ("n", pa.int64()),
                              ("rank", pa.int64())]).empty_table()
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        rank = (np.arange(m, dtype=np.int64)
                - np.repeat(starts, np.diff(np.r_[starts, m])) + 1)
        keep = rank <= n_top
        out = s.filter(pa.array(keep))
        return out.append_column("rank", pa.array(rank[keep]))

    partials = edges.map_batches(partial, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return grouped_apply(partials, dst, fold, num_buckets=num_buckets,
                         batch_format="pyarrow")


def anchor_text_sql(table: str, dst: str = "dst", anchor: str = "anchor",
                    n_top: int = 3) -> str:
    """DuckDB twin of :func:`anchor_text_table`."""
    return f"""
        SELECT {dst}, {anchor}, n, rank FROM (
            SELECT {dst}, {anchor}, COUNT(*) AS n,
                   CAST(row_number() OVER (
                        PARTITION BY {dst}
                        ORDER BY COUNT(*) DESC, {anchor}) AS BIGINT)
                       AS rank
            FROM {table} GROUP BY {dst}, {anchor})
        WHERE rank <= {n_top}
        ORDER BY {dst}, rank
    """


# ---------------------------------------------------------------------------
# HITS hubs & authorities (Kleinberg 1999)
# ---------------------------------------------------------------------------

class _HitsKernel(VertexShard):
    """HITS shard state shared by the float and int64 kernels.  Each
    edge (u, v) is stored TWICE — as an out-edge at owner(u) and an
    in-edge at owner(v) — so both half-steps read local edges and
    exchange only per-edge messages:

        authority: a(v) = sum_{u->v} h(u)   (out-copies emit to owner(v))
        hub:       h(u) = sum_{u->v} a(v)   (in-copies  emit to owner(u))

    Out-copies are lexsorted (src, dst) and in-copies (dst, src) at
    build, the fixed order the float kernel's folds rely on."""

    STATE = ("hub", "auth")
    RESULT = (("hub", pa.float64()), ("authority", pa.float64()))

    def build(self) -> int:
        self.src, self.dst = self._sorted_edges(
            *self._take("out", np.int64, np.int64))
        self.idst, self.isrc = self._sorted_edges(
            *self._take("in", np.int64, np.int64)[::-1])
        # this shard OWNS the union of its out-srcs and in-dsts
        self.verts = np.unique(np.concatenate([self.src, self.idst]))
        self._src_pos = np.searchsorted(self.verts, self.src)
        self._idst_pos = np.searchsorted(self.verts, self.idst)
        self._od_idx = self._dest_index(self.dst)
        self._is_idx = self._dest_index(self.isrc)
        return len(self.verts)

    def emit_auth(self):
        """(dst, h(src)) messages for the authority half-step."""
        return self._send((self._od_idx, self.dst,
                           self.hub[self._src_pos]))

    def apply_auth(self, *msgs):
        self.auth = self._fold(np.zeros(len(self.verts), self.DTYPE), msgs)
        return self._total(self.auth)

    def emit_hub(self):
        """(src, a(dst)) messages for the hub half-step."""
        return self._send((self._is_idx, self.isrc,
                           self.auth[self._idst_pos]))

    def apply_hub(self, *msgs):
        self.hub = self._fold(np.zeros(len(self.verts), self.DTYPE), msgs)
        return self._total(self.hub)


@ray.remote(num_cpus=0)
class _HitsShard(_HitsKernel):
    """Float HITS kernel: each half-step returns this shard's sum of
    squares, and the driver sums the shard partials in shard order for
    the L2 normalizer (bit-deterministic per the
    :class:`~logray.functions.vertexshard.VertexShard` contract)."""

    def init_scores(self) -> None:
        n = len(self.verts)
        self.hub = np.ones(n, np.float64)
        self.auth = np.ones(n, np.float64)

    @staticmethod
    def _total(x: np.ndarray) -> float:
        return float(np.square(x).sum())

    def scale(self, inv_a: float, inv_h: float) -> None:
        self.auth = self.auth * inv_a
        self.hub = self.hub * inv_h

    def _result(self):
        return (self.hub, self.auth)


def _hits_routes(src: str, dst: str, distinct: bool):
    """HITS push: every edge to owner(src) as an out-copy and to
    owner(dst) as an in-copy."""

    def routes(t: pa.Table):
        s = _to_int64(t[src])
        d = _to_int64(t[dst])
        if distinct:
            # per-batch dedup before the wire: the recursion runs over
            # the DISTINCT edge set (the shards dedup again at build),
            # so parallel edges within a batch are pure push traffic
            tb = pa.table({"s": pa.array(s), "d": pa.array(d)})
            tb = tb.group_by(["s", "d"]).aggregate([])
            s = tb["s"].to_numpy(zero_copy_only=False)
            d = tb["d"].to_numpy(zero_copy_only=False)
        return [("out", s, (s, d)), ("in", d, (s, d))]

    return routes


def hits(edges, src: str = "src", dst: str = "dst",
         node_col: str = "node", n_iter: int = 20, num_shards: int = 8,
         checkpoint: str | None = None, checkpoint_every: int = 1,
         _fault=None):
    """HITS hubs & authorities over a directed edge table —
    (node, hub, authority), both vectors L2-normalized per iteration
    (Kleinberg 1999; the directory-page vs content-page decomposition a
    crawl frontier uses alongside PageRank).

    Shape: the edge list pushes ONCE, duplicated across its two
    endpoint owners (2 x 16 bytes/edge); each iteration then exchanges
    one float per edge per half-step plus B normalizer scalars.
    Bit-deterministic under input partitioning at fixed num_shards.
    ``checkpoint`` / ``checkpoint_every`` / ``_fault``: same
    per-iteration snapshot-and-resume protocol as :func:`pagerank`
    (both score vectors snapshot together, post-normalization).
    """
    with ShardRun(_HitsShard, num_shards) as run:
        if checkpoint is not None:
            run.open_checkpoint(checkpoint, {
                "algo": "hits", "src": src, "dst": dst,
                "node_col": node_col, "num_shards": num_shards,
            }, n_iter, checkpoint_every)
        run.push(edges, _hits_routes(src, dst, distinct=False))
        if run.build() == 0:
            return run.collect(node_col)
        run.call("init_scores")

        for it in range(run.resume(), n_iter):
            if _fault is not None:
                _fault("iter", it)
            na = float(np.sqrt(sum(run.exchange("emit_auth", "apply_auth"))))
            nh = float(np.sqrt(sum(run.exchange("emit_hub", "apply_hub"))))
            run.call("scale", 1.0 / na if na else 0.0, 1.0 / nh if nh else 0.0)
            run.commit(it + 1, it + 1 == n_iter)
        return run.collect(node_col)


def _exact_i64_sum(arr: np.ndarray) -> int:
    """Exact Python-int sum of a NON-NEGATIVE int64 array.  A plain
    ``arr.sum()`` silently wraps past 2^63 (values <= 1e12 overflow it
    at ~9.2M elements); splitting at 2^32 keeps both partial sums exact
    for any realistic shard size."""
    q, r = np.divmod(arr, np.int64(1) << 32)
    return (int(q.sum()) << 32) + int(r.sum())


@ray.remote(num_cpus=0)
class _HitsIntShard(_HitsKernel):
    """Fixed-point HITS kernel: the float kernel's edge layout with int64
    arithmetic throughout; integer sums are exactly associative, so no
    fold-order care is needed.  Edges dedupe to the DISTINCT (src, dst)
    set at build — the bound ``raw(v) <= sum(scores) <= PR_SCALE`` that
    keeps every element in int64 needs multiplicity-free sums (and the
    SQL twin's ``SELECT DISTINCT`` is definitionally the same set)."""

    DTYPE = np.int64
    DISTINCT_EDGES = True
    _total = staticmethod(_exact_i64_sum)

    def init_scores(self, n_total: int) -> None:
        n = len(self.verts)
        self.hub = np.full(n, PR_SCALE // n_total, np.int64)
        self.auth = np.zeros(n, np.int64)

    def floor_div(self, name: str, d: int) -> None:
        setattr(self, name, getattr(self, name) // np.int64(d))

    def _result(self):
        # int64 / 1e12: both operands < 2^53, one correctly-rounded
        # division — identical bits on any IEEE-754 engine (see
        # _PRIntShard._result)
        return (self.hub / float(PR_SCALE), self.auth / float(PR_SCALE))


def hits_fixedpoint(edges, src: str = "src", dst: str = "dst",
                    node_col: str = "node", n_iter: int = 20,
                    num_shards: int = 8, checkpoint: str | None = None,
                    checkpoint_every: int = 1, _fault=None):
    """HITS in fixed-point int64 (units of 1/PR_SCALE) over the
    DISTINCT edge set — ``(node, hub, authority)``.

    The update rule replaces the float recursion's L2 normalization
    with an L1 CAP: after each half-step the raw scores floor-divide by
    ``d = max(1, ceil(total / S))`` (``S = PR_SCALE = 10^12``), so the
    score mass never exceeds S and every element stays in ``[0, S]``::

        raw_a(v) = sum_{u->v} hub(u);   auth = raw_a // d_a
        raw_h(u) = sum_{u->v} auth(v);  hub  = raw_h // d_h

    Division by a common positive d is monotone, so within an
    iteration the hub/authority ORDERING is exactly the unnormalized
    HITS iterate's ordering (floor ties aside); magnitudes are L1-
    rather than L2-scaled.  The float :func:`hits` remains the
    reference-semantics entry — this variant exists because integer
    arithmetic is exactly associative: the result is a pure function
    of the distinct-edge set, bit-identical across partitioning, shard
    counts, AND engines, and :func:`hits_fixedpoint_sql` emits a DuckDB
    twin that matches hash-for-hash (the gate-exact HITS row).

    Bounds (enforced by construction, no runtime guard needed): scores
    sum to <= S per vector, so every per-node raw sum over distinct
    in/out-neighbors is <= S = 1e12 < 2^63; per-shard totals fold via
    :func:`_exact_i64_sum`; the divisor d <= max_degree + 1.

    Scale shape: identical to :func:`hits` — edges push once into
    per-endpoint shard copies (2 x 16 B/edge), each iteration moves one
    int64 per distinct edge per half-step plus B total scalars.
    ``checkpoint`` / ``checkpoint_every`` / ``_fault``: same
    per-iteration snapshot-and-resume protocol as :func:`pagerank`.
    """
    S = PR_SCALE
    with ShardRun(_HitsIntShard, num_shards) as run:
        if checkpoint is not None:
            run.open_checkpoint(checkpoint, {
                "algo": "hits_fixedpoint", "src": src, "dst": dst,
                "node_col": node_col, "num_shards": num_shards,
            }, n_iter, checkpoint_every)
        run.push(edges, _hits_routes(src, dst, distinct=True))
        n_total = run.build()
        if n_total == 0:
            return run.collect(node_col)
        run.call("init_scores", n_total)

        for it in range(run.resume(), n_iter):
            if _fault is not None:
                _fault("iter", it)
            ta = sum(run.exchange("emit_auth", "apply_auth"))
            run.call("floor_div", "auth", max(1, -(-ta // S)))
            th = sum(run.exchange("emit_hub", "apply_hub"))
            run.call("floor_div", "hub", max(1, -(-th // S)))
            run.commit(it + 1, it + 1 == n_iter)
        return run.collect(node_col)


def hits_fixedpoint_sql(edges_sql: str, node_col: str = "node",
                        n_iter: int = 20, src: str = "src",
                        dst: str = "dst") -> str:
    """DuckDB twin of :func:`hits_fixedpoint`: the identical int64
    recursion unrolled into ``n_iter`` CTE stage pairs (same
    no-aggregates-in-recursive-term + AS MATERIALIZED rationale as
    :func:`pagerank_fixedpoint_sql`).  ``edges_sql`` is a parenthesized
    subquery with columns ``src, dst``; the recursion runs over its
    DISTINCT edge set.  DuckDB's integer SUM widens to HUGEINT, so the
    per-node raw sums and totals never overflow; each stage's floor
    division brings scores back under PR_SCALE, where the BIGINT cast
    is exact."""
    S = PR_SCALE
    parts = [
        f"e AS (SELECT DISTINCT {src} AS s, {dst} AS d "
        f"FROM {edges_sql} E)",
        "nodes AS (SELECT s AS node FROM e UNION SELECT d FROM e)",
        f"h0 AS (SELECT node, {S} // (SELECT COUNT(*) FROM nodes)"
        " AS score FROM nodes)",
    ]
    for k in range(1, n_iter + 1):
        j = k - 1
        parts.append(
            f"ar{k} AS (SELECT e.d AS node, SUM(h.score) AS raw "
            f"FROM e JOIN h{j} h ON h.node = e.s GROUP BY e.d)")
        parts.append(
            f"ta{k} AS (SELECT COALESCE(SUM(raw), 0) AS t FROM ar{k})")
        parts.append(
            f"a{k} AS (SELECT n.node, CAST(COALESCE(r.raw, 0) // "
            f"GREATEST(1, (t.t + {S - 1}) // {S}) AS BIGINT) AS score "
            f"FROM nodes n LEFT JOIN ar{k} r USING(node) "
            f"CROSS JOIN ta{k} t)")
        parts.append(
            f"hr{k} AS (SELECT e.s AS node, SUM(a.score) AS raw "
            f"FROM e JOIN a{k} a ON a.node = e.d GROUP BY e.s)")
        parts.append(
            f"th{k} AS (SELECT COALESCE(SUM(raw), 0) AS t FROM hr{k})")
        parts.append(
            f"h{k} AS (SELECT n.node, CAST(COALESCE(r.raw, 0) // "
            f"GREATEST(1, (t.t + {S - 1}) // {S}) AS BIGINT) AS score "
            f"FROM nodes n LEFT JOIN hr{k} r USING(node) "
            f"CROSS JOIN th{k} t)")
    # AS MATERIALIZED: same 2^n_iter inlining blowup as the PageRank
    # twin (a{k}/h{k} are each referenced twice downstream).
    parts = [p.replace(" AS (", " AS MATERIALIZED (", 1) for p in parts]
    return ("WITH " + ",\n".join(parts)
            + f"\nSELECT h.node AS {node_col}, "
            + f"h.score / {float(S)!r} AS hub, "
            + f"a.score / {float(S)!r} AS authority "
            + f"FROM h{n_iter} h JOIN a{n_iter} a USING(node) "
            + f"ORDER BY {node_col}")


# ---------------------------------------------------------------------------
# per-node clustering coefficients
# ---------------------------------------------------------------------------

def clustering_coefficients(edges, src: str = "src", dst: str = "dst",
                            node_col: str = "node",
                            num_buckets: int = 32,
                            max_broadcast: int = 100_000_000):
    """Exact per-node triangle counts and local clustering coefficient
    over the undirected simple graph — ``(node, triangles, deg,
    coeff)`` with ``coeff = 2*triangles / (deg*(deg-1))`` (0 when
    deg < 2); ``deg`` is the simple-graph (distinct-neighbor) degree.
    Watts & Strogatz 1998's local coefficient — the standard
    spam-farm / community-density signal per page.

    Same two regimes and machinery as :func:`triangle_count` (see the
    section comment): the broadcast wedge probe additionally
    scatter-adds each CLOSED wedge to its three corners locally and
    ships only bounded ``(rank, count)`` partials; the join fallback
    threads the wedge CENTER through the closing-edge match and folds
    corner counts with one more narrow bucket exchange.  The
    coefficient is ONE IEEE division of exact int64 counts,
    bit-identical to the SQL twin.  ``max_broadcast`` budget: see the
    section comment (~16 B/edge resident, 3-4x transient peak).
    """
    import ray.data as rd

    local = _canon_local(edges, src, dst)

    empty = pa.schema([(node_col, pa.int64()),
                       ("triangles", pa.int64()),
                       ("deg", pa.int64()),
                       ("coeff", pa.float64())]).empty_table()

    if local.count() <= max_broadcast:
        fold = _broadcast_fold(local, num_buckets)
        if fold is None:
            return rd.from_arrow(empty)
        nodes, deg, nn, keys, blocks = fold
        keys_ref = ray.put(keys)

        def wedge_corners(g: pa.Table) -> pa.Table:
            ks = ray.get(keys_ref)
            u = _to_int64(g["u"])
            v = _to_int64(g["v"])
            out_empty = pa.table({"r": pa.array([], pa.int64()),
                                  "n": pa.array([], pa.int64())})
            pairs = _wedge_pairs(u) if len(u) else None
            if pairs is None:
                return out_empty
            fst, snd = pairs
            hit = isin_sorted(v[fst] * np.int64(nn) + v[snd], ks)
            corners = np.concatenate(
                [u[fst][hit], v[fst][hit], v[snd][hit]])
            rr, cnt = np.unique(corners, return_counts=True)
            return pa.table({"r": pa.array(rr),
                             "n": pa.array(cnt.astype(np.int64))})

        counted = rd.from_arrow(blocks).map_batches(
            wedge_corners, batch_format="pyarrow", batch_size=None,
            zero_copy_batch=True)
        tri = np.zeros(nn, np.int64)
        for t in ray.get(counted.to_arrow_refs()):
            if t.num_columns and t.num_rows:
                np.add.at(tri,
                          t["r"].to_numpy(zero_copy_only=False),
                          t["n"].to_numpy(zero_copy_only=False))
        denom = deg * (deg - 1)
        coeff = np.where(denom > 0, (2.0 * tri) / denom, 0.0)
        return rd.from_arrow(pa.table({
            node_col: pa.array(nodes),
            "triangles": pa.array(tri),
            "deg": pa.array(deg),
            "coeff": pa.array(coeff),
        }))

    oriented, degt = _oriented_join_path(local, num_buckets)
    wedge_ds = _join_wedges(oriented, num_buckets, with_center=True)
    closing = oriented.map_batches(lambda t: t.select(["u", "v"]),
                                   batch_format="pyarrow",
                                   zero_copy_batch=True)
    bjoin = _bjoin_factory(num_buckets)
    matched = bjoin(wedge_ds, closing, on=("u", "v"))

    def explode_corners(t: pa.Table) -> pa.Table:
        if t.num_rows == 0 or "c" not in t.column_names:
            return pa.table({"node": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        corners = np.concatenate([_to_int64(t["c"]), _to_int64(t["u"]),
                                  _to_int64(t["v"])])
        rr, cnt = np.unique(corners, return_counts=True)
        return pa.table({"node": pa.array(rr),
                         "n": pa.array(cnt.astype(np.int64))})

    tri_part = matched.map_batches(explode_corners,
                                   batch_format="pyarrow",
                                   zero_copy_batch=True)

    def fold_tri(g: pa.Table) -> pa.Table:
        agg = g.group_by(["node"]).aggregate([("n", "sum")])
        return agg.rename_columns(["node", "triangles"])

    tri_tbl = grouped_apply(tri_part, "node", fold_tri,
                            num_buckets=num_buckets,
                            batch_format="pyarrow")
    joined = bjoin(degt, tri_tbl, on=("node",), how="left")

    def finish(t: pa.Table) -> pa.Table:
        node = _to_int64(t["node"])
        dg = _to_int64(t["deg"])
        tr = t["triangles"]
        if isinstance(tr, pa.ChunkedArray):
            tr = tr.combine_chunks()
        tr = pc.fill_null(pc.cast(tr, pa.int64()), 0) \
            .to_numpy(zero_copy_only=False)
        denom = dg * (dg - 1)
        coeff = np.where(denom > 0, (2.0 * tr) / denom, 0.0)
        return pa.table({node_col: pa.array(node),
                         "triangles": pa.array(tr),
                         "deg": pa.array(dg),
                         "coeff": pa.array(coeff)})

    return joined.map_batches(finish, batch_format="pyarrow",
                              zero_copy_batch=True)


def clustering_coefficients_sql(table: str, src: str = "src",
                                dst: str = "dst",
                                node_col: str = "node") -> str:
    """DuckDB twin of :func:`clustering_coefficients` — each triangle
    (a<b<c) credits all three corners; coefficient is the same single
    IEEE division of exact int64 counts."""
    return f"""
        WITH c AS (
            SELECT DISTINCT least({src}, {dst}) AS a,
                            greatest({src}, {dst}) AS b
            FROM {table} WHERE {src} <> {dst}),
        degs AS (
            SELECT {node_col}, CAST(COUNT(*) AS BIGINT) AS deg FROM (
                SELECT a AS {node_col} FROM c
                UNION ALL SELECT b FROM c)
            GROUP BY 1),
        tris AS (
            SELECT e1.a AS x, e1.b AS y, e2.b AS z
            FROM c e1
            JOIN c e2 ON e2.a = e1.a AND e2.b > e1.b
            JOIN c e3 ON e3.a = e1.b AND e3.b = e2.b),
        corner_counts AS (
            SELECT {node_col}, CAST(COUNT(*) AS BIGINT) AS triangles
            FROM (SELECT x AS {node_col} FROM tris
                  UNION ALL SELECT y FROM tris
                  UNION ALL SELECT z FROM tris)
            GROUP BY 1)
        SELECT d.{node_col},
               COALESCE(t.triangles, 0) AS triangles,
               d.deg,
               CASE WHEN d.deg > 1
                    THEN (2.0 * COALESCE(t.triangles, 0))
                         / (d.deg * (d.deg - 1))
                    ELSE 0.0 END AS coeff
        FROM degs d LEFT JOIN corner_counts t USING ({node_col})
        ORDER BY d.{node_col}
    """


# ---------------------------------------------------------------------------
# k-core membership
# ---------------------------------------------------------------------------

def kcore_members_sql(edges_sql: str, k: int, node_col: str = "node",
                      rounds: int = 8, src: str = "src",
                      dst: str = "dst") -> str:
    """DuckDB twin of :func:`kcore_members`: the peeling loop unrolled
    into ``rounds`` census+filter CTE stages (recursive CTEs can't
    aggregate in the recursive term).  ``rounds`` must be >= the
    graph's actual peel depth — and under-provisioning fails LOUDLY,
    not plausibly: the final SELECT returns zero rows unless the last
    two stages are a fixpoint (row counts equal), so a too-shallow
    unroll shows up as an impossible empty result instead of a
    superset that might slip past a row-count check.  Peel depth for
    the gate's mod-997 event graph is 0-1 at every test SF; 8 is
    margin, not tuning."""
    parts = [
        f"ka0 AS (SELECT DISTINCT LEAST({src}, {dst}) AS a, "
        f"GREATEST({src}, {dst}) AS b FROM {edges_sql} E "
        f"WHERE {src} <> {dst})",
        "kn0 AS (SELECT a AS node FROM ka0 UNION SELECT b FROM ka0)",
    ]
    for r in range(1, rounds + 1):
        j = r - 1
        parts.append(
            f"kd{r} AS (SELECT node, COUNT(*) AS deg FROM "
            f"(SELECT a AS node FROM ka{j} UNION ALL "
            f"SELECT b FROM ka{j}) GROUP BY node)")
        parts.append(
            f"kn{r} AS (SELECT n.node FROM kn{j} n JOIN kd{r} d "
            f"USING(node) WHERE d.deg >= {k})")
        parts.append(
            f"ka{r} AS (SELECT e.a, e.b FROM ka{j} e "
            f"JOIN kn{r} x ON x.node = e.a "
            f"JOIN kn{r} y ON y.node = e.b)")
    parts = [p.replace(" AS (", " AS MATERIALIZED (", 1) for p in parts]
    return ("WITH " + ",\n".join(parts)
            + f"\nSELECT node AS {node_col} FROM kn{rounds} "
            + f"WHERE (SELECT COUNT(*) FROM kn{rounds}) = "
            + f"(SELECT COUNT(*) FROM kn{rounds - 1}) "
            + f"ORDER BY {node_col}")


def kcore_members(edges, k: int, src: str = "src", dst: str = "dst",
                  node_col: str = "node", num_buckets: int = 32,
                  max_broadcast: int = 100_000_000,
                  max_rounds: int = 10_000):
    """Nodes of the ``k``-core of the undirected simple graph — the
    maximal subgraph where every node has degree >= k (Seidman 1983;
    the standard link-farm / community-density pruning signal: a page
    outside the 2-core is leaf-like, a dense spam clique survives deep
    cores).  Returns a one-column ``(node)`` Dataset.

    Iterative peeling: drop nodes with degree < k and their incident
    edges until a fixpoint.  Broadcast regime (same gate as
    :func:`triangle_count`): the whole loop is driver-side numpy over
    the distinct-edge arrays — each round one mask, no exchanges.
    Fallback (URL-graph scale): each round is one narrow degree census
    (bucket fold) + a broadcast drop-set filter over the edge Dataset;
    rounds are bounded by the peeling depth (typically tens).
    ``max_broadcast`` budget: see the section comment (~16 B/edge
    resident, 3-4x transient peak).
    """
    if k < 0:
        raise ValueError("kcore_members: k must be >= 0")
    import ray.data as rd

    local = _canon_local(edges, src, dst)
    empty = pa.schema([(node_col, pa.int64())]).empty_table()

    if local.count() <= max_broadcast:
        ab = _collect_canon(local)
        if ab is None:
            return rd.from_arrow(empty)
        a, b = ab
        nodes = np.unique(np.concatenate([a, b]))
        ra = np.searchsorted(nodes, a)
        rb = np.searchsorted(nodes, b)
        alive_e = np.ones(len(ra), np.bool_)
        alive_n = np.ones(len(nodes), np.bool_)
        while True:
            deg = np.zeros(len(nodes), np.int64)
            np.add.at(deg, ra[alive_e], 1)
            np.add.at(deg, rb[alive_e], 1)
            drop = alive_n & (deg < k)
            if not drop.any():
                break
            alive_n &= ~drop
            alive_e &= alive_n[ra] & alive_n[rb]
        return rd.from_arrow(pa.table({
            node_col: pa.array(nodes[alive_n])}))

    # distributed fallback: iterate degree census + broadcast drop set
    def fold_canon(g: pa.Table) -> pa.Table:
        return g.group_by(["a", "b"]).aggregate([])

    cur = grouped_apply(local, "a", fold_canon,
                        num_buckets=num_buckets,
                        batch_format="pyarrow").materialize()
    for _ in range(max_rounds):
        deg = degree_table(cur, src="a", dst="b", node_col="node",
                           num_buckets=num_buckets).materialize()
        drop_tbl = deg.map_batches(
            lambda t: t.filter(pc.less(t["deg"], k)).select(["node"]),
            batch_format="pyarrow", zero_copy_batch=True)
        drops = [t for t in ray.get(drop_tbl.to_arrow_refs())
                 if t.num_columns and t.num_rows]
        if not drops:
            break
        dropped = np.sort(pa.concat_tables(drops)["node"]
                          .combine_chunks().to_numpy(zero_copy_only=False))
        drop_ref = ray.put(dropped)

        def keep_edges(t: pa.Table) -> pa.Table:
            dr = ray.get(drop_ref)
            a2 = _to_int64(t["a"])
            b2 = _to_int64(t["b"])
            return t.filter(pa.array(
                ~(isin_sorted(a2, dr) | isin_sorted(b2, dr))))

        cur = cur.map_batches(keep_edges, batch_format="pyarrow",
                              zero_copy_batch=True).materialize()
    else:
        raise RuntimeError("kcore_members: did not converge within "
                           f"{max_rounds} rounds")

    # the converged round's (materialized) census IS the survivor
    # degree table — no recount exchange needed
    surv = deg.map_batches(
        lambda t: t.filter(pc.greater_equal(t["deg"], k))
                   .select(["node"]).rename_columns([node_col]),
        batch_format="pyarrow", zero_copy_batch=True)
    return surv


# ---------------------------------------------------------------------------
# seeded neighbor sampling (GNN fan-out)
# ---------------------------------------------------------------------------

def sample_neighbors(edges, k: int, seed: int = 0, src: str = "src",
                     dst: str = "dst", num_buckets: int = 32):
    """Keep at most ``k`` out-edges per source — the GraphSAGE-style
    fan-out sampler (Hamilton et al. 2017) that bounds per-node
    neighborhood size before training-data extraction.  Deterministic:
    edge priority is the shared-algebra hash
    ``(src*40503 + dst*(10007 + seed*97)) % 1000003`` (ties broken by
    dst), so the kept set is a pure function of (edge set, k, seed) —
    identical under any partitioning AND expressible verbatim in SQL,
    which is what makes the oracle exact (node-id magnitudes up to
    ~2^44 keep the int64 algebra overflow-free on both sides).

    One ``hash(src) % B`` co-location, then a segmented vectorized
    top-k per source inside each bucket; output is (src, dst) edges.
    """
    if k <= 0:
        raise ValueError("sample_neighbors: k must be >= 1")

    def narrow(t: pa.Table) -> pa.Table:
        return pa.table({src: pa.array(_to_int64(t[src])),
                         dst: pa.array(_to_int64(t[dst]))})

    def pick(g: pa.Table) -> pa.Table:
        s = _to_int64(g[src])
        d = _to_int64(g[dst])
        if not len(s):
            return pa.schema([(src, pa.int64()),
                              (dst, pa.int64())]).empty_table()
        if (s < 0).any() or (d < 0).any():
            raise ValueError(
                "sample_neighbors: negative node ids unsupported — "
                "numpy % and SQL % disagree on negative dividends, "
                "which would break the exact-twin contract; re-key ids")
        h = (s * 40503 + d * (10007 + seed * 97)) % 1000003
        order = np.lexsort((d, h, s))
        s, d = s[order], d[order]
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        m = len(s)
        rank = (np.arange(m, dtype=np.int64)
                - np.repeat(starts, np.diff(np.r_[starts, m])))
        keep = rank < k
        return pa.table({src: pa.array(s[keep]), dst: pa.array(d[keep])})

    narrowed = edges.map_batches(narrow, batch_format="pyarrow",
                                 zero_copy_batch=True)
    return grouped_apply(narrowed, src, pick, num_buckets=num_buckets,
                         batch_format="pyarrow")


def sample_neighbors_sql(table: str, k: int, seed: int = 0,
                         src: str = "src", dst: str = "dst") -> str:
    """DuckDB twin of :func:`sample_neighbors` (same hash algebra)."""
    return f"""
        SELECT {src}, {dst} FROM (
            SELECT {src}, {dst},
                   row_number() OVER (
                       PARTITION BY {src}
                       ORDER BY ({src}*40503 + {dst}*(10007 + {seed}*97))
                                % 1000003, {dst}) AS rk
            FROM {table})
        WHERE rk <= {k}
        ORDER BY {src}, {dst}
    """


# ---------------------------------------------------------------------------
# approximate triangle counting (DOULION edge sparsification)
# ---------------------------------------------------------------------------

def triangle_count_approx(edges, p: float = 0.1, seed: int = 0,
                          src: str = "src", dst: str = "dst",
                          num_buckets: int = 32,
                          max_broadcast: int = 100_000_000):
    """Unbiased approximate triangle count by DOULION edge
    sparsification (Tsourakakis et al. 2009): keep each DISTINCT
    undirected edge with probability ``p`` (deterministic seeded hash
    coin, so the estimate is reproducible), count triangles exactly on
    the sparsified graph, scale by ``1/p^3``.  Variance shrinks as
    p^3 * T grows; use for URL-graph-scale ballparks where the exact
    count's wedge census is too expensive, and p=1 degrades to the
    exact counter.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError("triangle_count_approx: p must be in (0, 1]")
    import ray.data as rd

    if p == 1.0:
        kept = edges
    else:
        thresh = np.uint64(int(p * float(2**64 - 1)))

        def coin(t: pa.Table) -> pa.Table:
            s = _to_int64(t[src])
            d = _to_int64(t[dst])
            a = np.minimum(s, d).astype(np.uint64)
            b = np.maximum(s, d).astype(np.uint64)
            # canonical-pair splitmix64 coin: parallel copies of an
            # edge flip ONE coin, and the avalanche mixing keeps coins
            # of triangle-sharing edges independent (a linear
            # congruential coin correlates them and biases the
            # estimate upward ~40% on dense graphs — measured)
            with np.errstate(over="ignore"):
                x = (a * np.uint64(0x9E3779B97F4A7C15)
                     ^ b * np.uint64(0xBF58476D1CE4E5B9)
                     ^ np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
                     * np.uint64(0x94D049BB133111EB))
                x ^= x >> np.uint64(30)
                x *= np.uint64(0xBF58476D1CE4E5B9)
                x ^= x >> np.uint64(27)
                x *= np.uint64(0x94D049BB133111EB)
                x ^= x >> np.uint64(31)
            return t.filter(pa.array((a != b) & (x < thresh)))

        kept = edges.map_batches(coin, batch_format="pyarrow",
                                 zero_copy_batch=True)
    exact = triangle_count(kept, src=src, dst=dst,
                           num_buckets=num_buckets,
                           max_broadcast=max_broadcast)
    n = exact.take_all()[0]["triangles"]
    est = float(n) / (p ** 3)
    return rd.from_arrow(pa.table({
        "triangles_est": pa.array([est], pa.float64()),
        "sampled_triangles": pa.array([int(n)], pa.int64()),
        "p": pa.array([p], pa.float64()),
    }))


def triangle_count_approx_sql(edges_sql: str, p: float = 0.1,
                              seed: int = 0, src: str = "src",
                              dst: str = "dst") -> str:
    """DuckDB twin of :func:`triangle_count_approx`: the DOULION coin
    is a DETERMINISTIC canonical-pair splitmix64 hash, so the sampled
    edge set — and therefore the exact count on it and the 1/p^3
    estimate — is replayable bit-for-bit in SQL.  uint64 wrap-around
    multiplies route through HUGEINT with a 2^32 hi/lo split (the
    full 128-bit product would overflow INT128); xor/shift run on
    UBIGINT.  The threshold and the 1/p^3 scale are computed in Python
    and embedded as literals, so no float op differs between engines."""
    if not (0.0 < p <= 1.0):
        raise ValueError("triangle_count_approx_sql: p must be in (0, 1]")
    M = 1 << 64
    H = 1 << 32
    C1, C2, C3 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
    seedmix = ((seed & (M - 1)) * C3) % M
    thresh = int(p * float(M - 1))  # identical to the numpy coin's

    def mul(x, c):
        return (f"((((({x}) // {H}) * {c} % {H}) * {H} "
                f"+ (({x}) % {H}) * {c}) % {M})")

    def xor(x, y):
        return (f"CAST(xor(CAST({x} AS UBIGINT), CAST({y} AS UBIGINT)) "
                "AS HUGEINT)")

    def shr(x, n):
        return f"CAST((CAST({x} AS UBIGINT) >> {n}) AS HUGEINT)"

    an = f"(((CAST(a AS HUGEINT) % {M}) + {M}) % {M})"
    bn = f"(((CAST(b AS HUGEINT) % {M}) + {M}) % {M})"
    return f"""
        WITH dx0 AS (
            SELECT DISTINCT least({src}, {dst}) AS a,
                            greatest({src}, {dst}) AS b
            FROM {edges_sql} E WHERE {src} <> {dst}),
        dx1 AS (SELECT a, b,
                {xor(xor(mul(an, C1), mul(bn, C2)), seedmix)} AS x
                FROM dx0),
        dx2 AS (SELECT a, b, {mul(xor('x', shr('x', 30)), C2)} AS x
                FROM dx1),
        dx3 AS (SELECT a, b, {mul(xor('x', shr('x', 27)), C3)} AS x
                FROM dx2),
        kept AS (SELECT a, b FROM dx3
                 WHERE {xor('x', shr('x', 31))} < {thresh}),
        tri AS (
            SELECT CAST(COUNT(*) AS BIGINT) AS n
            FROM kept e1
            JOIN kept e2 ON e2.a = e1.a AND e2.b > e1.b
            JOIN kept e3 ON e3.a = e1.b AND e3.b = e2.b)
        SELECT CAST(n AS DOUBLE) / {p ** 3!r} AS triangles_est,
               n AS sampled_triangles,
               {p!r} AS p
        FROM tri
    """


# ---------------------------------------------------------------------------
# k-hop ego-net edge extraction (GNN subgraph sampling)
# ---------------------------------------------------------------------------

def khop_edges(edges, seeds, hops: int = 2, fanout: int | None = None,
               seed: int = 0, src: str = "src", dst: str = "dst",
               num_buckets: int = 32, max_frontier: int = 50_000_000):
    """Edges of the (sampled) ``hops``-hop out-neighborhood of a seed
    node set — the subgraph-extraction step GNN training pipelines run
    before featurization (GraphSAGE minibatch sampling).  Returns
    ``(src, dst, hop)`` rows: every kept edge tagged with the hop
    (1-based) at which its source entered the frontier.

    Per hop: filter the edge stream to sources in the broadcast
    frontier set (``ray.put`` once per hop, sorted-array membership
    probe per batch); a ``fanout`` bound then goes through
    :func:`sample_neighbors`' CO-LOCATED seeded top-k (an in-batch cap
    would keep fanout edges per source PER BATCH — partition-dependent
    — so the cap rides the bucket shuffle instead), and the new
    frontier = kept dsts not seen before.  The edge list streams every
    hop; only frontier node sets (capped at ``max_frontier``, raise =
    the neighborhood is the whole graph and you want a different tool)
    move to the driver.
    """
    if hops < 1:
        raise ValueError("khop_edges: hops must be >= 1")
    import ray.data as rd

    seeds = np.unique(np.asarray(list(seeds), np.int64))
    seen = seeds.copy()
    out_parts: list = []

    for hop in range(1, hops + 1):
        frontier_ref = ray.put(seeds if hop == 1 else frontier)  # noqa: F821

        def expand(t: pa.Table, _ref=frontier_ref) -> pa.Table:
            fr = ray.get(_ref)
            s = _to_int64(t[src])
            d = _to_int64(t[dst])
            keep = isin_sorted(s, fr)
            return pa.table({"src": pa.array(s[keep]),
                             "dst": pa.array(d[keep])})

        hop_edges = edges.map_batches(expand, batch_format="pyarrow",
                                      zero_copy_batch=True)
        if fanout is not None:
            hop_edges = sample_neighbors(hop_edges, k=fanout, seed=seed,
                                         num_buckets=num_buckets)

        def tag(t: pa.Table, _hop=hop) -> pa.Table:
            return t.append_column(
                "hop", pa.array(np.full(t.num_rows, _hop, np.int64)))

        hop_edges = hop_edges.map_batches(
            tag, batch_format="pyarrow",
            zero_copy_batch=True).materialize()
        out_parts.append(hop_edges)
        dsts = [t for t in ray.get(
            hop_edges.select_columns(["dst"]).to_arrow_refs())
            if t.num_columns and t.num_rows]
        if not dsts:
            break
        nxt = np.unique(pa.concat_tables(dsts)["dst"]
                        .combine_chunks().to_numpy(zero_copy_only=False))
        frontier = nxt[~isin_sorted(nxt, seen)]
        if len(seen) + len(frontier) > max_frontier:
            raise RuntimeError(
                "khop_edges: frontier exceeds max_frontier "
                f"({len(seen) + len(frontier)} nodes) — the neighborhood "
                "is graph-sized; use the full-graph operators instead")
        seen = np.sort(np.concatenate([seen, frontier]))
        if not len(frontier):
            break

    ds = out_parts[0]
    for part in out_parts[1:]:
        ds = ds.union(part)
    return ds
