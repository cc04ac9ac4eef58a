"""Web-graph analytics: degrees, connected components, PageRank,
triangle counting (logray/functions/graph.py).

Every operator is checked against an independent dense/driver-side
reference on seeded random multigraphs — including self-loops, parallel
edges, isolated-ish dangling nodes and hot hubs — plus the gate's
shared-algebra event graph twins in __ray_entry__.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _edges_ds(src, dst):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "src": pa.array(np.asarray(src, np.int64)),
        "dst": pa.array(np.asarray(dst, np.int64)),
    }))


def _rand_graph(seed: int, n_nodes: int, n_edges: int):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    dst = rng.integers(0, n_nodes, n_edges).astype(np.int64)
    # a hot hub: 10% of edges point at node 0
    hot = rng.random(n_edges) < 0.1
    dst[hot] = 0
    return src, dst


# ---------------------------------------------------------------------------
# degree_table
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed,n,m", [(1, 50, 400), (2, 7, 30)])
def test_degree_table_matches_numpy(ray_session, seed, n, m):
    from logray.functions.graph import degree_table

    src, dst = _rand_graph(seed, n, m)
    got = degree_table(_edges_ds(src, dst), num_buckets=4).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)

    nodes = np.unique(np.concatenate([src, dst]))
    out = np.array([(src == v).sum() for v in nodes], np.int64)
    inn = np.array([(dst == v).sum() for v in nodes], np.int64)
    assert got["node"].to_numpy().tolist() == nodes.tolist()
    assert got["out_deg"].to_numpy().tolist() == out.tolist()
    assert got["in_deg"].to_numpy().tolist() == inn.tolist()
    assert (got["deg"].to_numpy() == out + inn).all()


def test_degree_table_dangling_only_in(ray_session):
    from logray.functions.graph import degree_table

    got = degree_table(_edges_ds([1, 1], [2, 2]), num_buckets=2).to_pandas()
    got = got.set_index("node")
    assert got.loc[2, "out_deg"] == 0 and got.loc[2, "in_deg"] == 2
    assert got.loc[1, "out_deg"] == 2 and got.loc[1, "deg"] == 2


# ---------------------------------------------------------------------------
# connected components
# ---------------------------------------------------------------------------

def _cc_reference(src, dst):
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(src, dst):
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    # min-relabel
    return {v: find(v) for v in parent}


@pytest.mark.parametrize("seed", [3, 4])
def test_connected_components_matches_union_find(ray_session, seed):
    from logray.functions.graph import connected_components_graph

    src, dst = _rand_graph(seed, 60, 80)
    got = connected_components_graph(
        _edges_ds(src, dst), num_shards=3).to_pandas()
    want = _cc_reference(src, dst)
    got_map = dict(zip(got["node"], got["component"]))
    assert got_map == want


# ---------------------------------------------------------------------------
# pagerank
# ---------------------------------------------------------------------------

def _pagerank_dense(src, dst, damping=0.85, n_iter=20):
    nodes = np.unique(np.concatenate([src, dst]))
    idx = {int(v): i for i, v in enumerate(nodes)}
    n = len(nodes)
    si = np.array([idx[int(v)] for v in src])
    di = np.array([idx[int(v)] for v in dst])
    outdeg = np.zeros(n, np.int64)
    np.add.at(outdeg, si, 1)
    rank = np.full(n, 1.0 / n)
    for _ in range(n_iter):
        dangling = rank[outdeg == 0].sum()
        recv = np.zeros(n)
        np.add.at(recv, di, rank[si] / outdeg[si])
        rank = (1 - damping) / n + damping * (dangling / n + recv)
    return nodes, rank


@pytest.mark.parametrize("seed,n,m", [(5, 40, 300), (6, 9, 20)])
def test_pagerank_matches_dense_reference(ray_session, seed, n, m):
    from logray.functions.graph import pagerank

    src, dst = _rand_graph(seed, n, m)
    got = pagerank(_edges_ds(src, dst), n_iter=20,
                   num_shards=3).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)
    nodes, want = _pagerank_dense(src, dst)
    assert got["node"].to_numpy().tolist() == nodes.tolist()
    np.testing.assert_allclose(got["rank"].to_numpy(), want,
                               rtol=0, atol=1e-12)
    # ranks form a distribution
    assert abs(got["rank"].sum() - 1.0) < 1e-9


def test_pagerank_bit_deterministic_across_partitioning(ray_session):
    """At fixed num_shards the result is a pure function of the edge
    MULTISET — how the input was partitioned (and in what order batches
    arrive) must not change a single bit.  Across different shard counts
    only near-equality holds (float reduction grouping changes)."""
    import ray.data as rd

    from logray.functions.graph import pagerank

    src, dst = _rand_graph(7, 30, 200)
    a = pagerank(_edges_ds(src, dst), num_shards=3).to_pandas()
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    # shuffled row order AND different block boundaries
    perm = np.random.default_rng(0).permutation(len(src))
    t2 = t.take(pa.array(perm))
    parts = rd.from_arrow([t2.slice(0, 57), t2.slice(57, 90), t2.slice(147)])
    b = pagerank(parts, num_shards=3).to_pandas()
    a = a.sort_values("node").reset_index(drop=True)
    b = b.sort_values("node").reset_index(drop=True)
    assert a["node"].tolist() == b["node"].tolist()
    assert (a["rank"].to_numpy() == b["rank"].to_numpy()).all()

    c = pagerank(_edges_ds(src, dst), num_shards=5).to_pandas()
    c = c.sort_values("node").reset_index(drop=True)
    np.testing.assert_allclose(c["rank"].to_numpy(), a["rank"].to_numpy(),
                               rtol=0, atol=1e-12)


def test_pagerank_star_hub_ranks_highest(ray_session):
    from logray.functions.graph import pagerank

    # 1..5 all point at 0
    got = pagerank(_edges_ds([1, 2, 3, 4, 5], [0, 0, 0, 0, 0]),
                   num_shards=2).to_pandas().set_index("node")
    assert got.loc[0, "rank"] == got["rank"].max()


# ---------------------------------------------------------------------------
# triangle counting
# ---------------------------------------------------------------------------

def _triangles_brute(src, dst):
    es = {(min(int(a), int(b)), max(int(a), int(b)))
          for a, b in zip(src, dst) if a != b}
    nodes = sorted({v for e in es for v in e})
    n = 0
    for i, a in enumerate(nodes):
        for b in nodes[i + 1:]:
            if (a, b) not in es:
                continue
            for c in nodes[nodes.index(b) + 1:]:
                if (a, c) in es and (b, c) in es:
                    n += 1
    return n


@pytest.mark.parametrize("seed,n,m", [(8, 12, 60), (9, 8, 40), (10, 25, 90)])
def test_triangle_count_matches_brute_force(ray_session, seed, n, m):
    from logray.functions.graph import triangle_count

    src, dst = _rand_graph(seed, n, m)
    got = triangle_count(_edges_ds(src, dst), num_buckets=4).to_pandas()
    assert got["triangles"][0] == _triangles_brute(src, dst)


def test_triangle_count_ignores_loops_and_parallel(ray_session):
    from logray.functions.graph import triangle_count

    # one triangle, duplicated edges both directions, plus self-loops
    src = [1, 2, 3, 2, 1, 1, 4]
    dst = [2, 3, 1, 1, 3, 1, 4]
    got = triangle_count(_edges_ds(src, dst), num_buckets=2).to_pandas()
    assert got["triangles"][0] == 1


def test_triangle_count_join_fallback_matches(ray_session):
    """max_broadcast=0 forces the bucketed-join degree path (the
    URL-graph-scale fallback); result must equal the broadcast path."""
    from logray.functions.graph import triangle_count

    src, dst = _rand_graph(11, 15, 70)
    bc = triangle_count(_edges_ds(src, dst), num_buckets=4).to_pandas()
    jn = triangle_count(_edges_ds(src, dst), num_buckets=4,
                        max_broadcast=0).to_pandas()
    assert bc["triangles"][0] == jn["triangles"][0] == \
        _triangles_brute(src, dst)


def test_triangle_count_triangle_free(ray_session):
    from logray.functions.graph import triangle_count

    # star graphs are triangle-free
    got = triangle_count(_edges_ds([0, 0, 0], [1, 2, 3]),
                         num_buckets=2).to_pandas()
    assert got["triangles"][0] == 0


# ---------------------------------------------------------------------------
# anchor-text aggregation
# ---------------------------------------------------------------------------

def test_anchor_text_matches_duckdb(ray_session):
    import duckdb
    import pandas as pd
    import ray.data as rd

    from logray.functions.graph import anchor_text_sql, anchor_text_table

    rng = np.random.default_rng(12)
    n = 500
    dst = rng.integers(0, 20, n).astype(np.int64)
    anchors = np.array(["home", "click here", "download", "about", "next"])
    anchor = anchors[rng.integers(0, len(anchors), n)]
    edges = rd.from_arrow(pa.table({
        "dst": pa.array(dst), "anchor": pa.array(anchor)}))
    got = anchor_text_table(edges, n_top=3, num_buckets=4).to_pandas()
    got = got.sort_values(["dst", "rank"]).reset_index(drop=True)

    df = pd.DataFrame({"dst": dst, "anchor": anchor})
    want = duckdb.connect().execute(
        anchor_text_sql("df", n_top=3)).fetch_df()
    assert got.reset_index(drop=True).equals(want.reset_index(drop=True))


def test_anchor_text_tie_break_and_top1(ray_session):
    import ray.data as rd

    from logray.functions.graph import anchor_text_table

    edges = rd.from_arrow(pa.table({
        "dst": pa.array([1, 1, 1, 1], pa.int64()),
        "anchor": pa.array(["b", "a", "b", "a"], pa.string())}))
    got = anchor_text_table(edges, n_top=1, num_buckets=2).to_pandas()
    # tie on count=2 -> lexicographically first anchor wins
    assert got.to_dict("records") == [
        {"dst": 1, "anchor": "a", "n": 2, "rank": 1}]


# ---------------------------------------------------------------------------
# weighted / personalized pagerank
# ---------------------------------------------------------------------------

def _pagerank_dense_general(src, dst, w=None, p=None, damping=0.85,
                            n_iter=20):
    nodes = np.unique(np.concatenate([src, dst]))
    idx = {int(v): i for i, v in enumerate(nodes)}
    n = len(nodes)
    si = np.array([idx[int(v)] for v in src])
    di = np.array([idx[int(v)] for v in dst])
    w = np.ones(len(src)) if w is None else np.asarray(w, np.float64)
    keep = w > 0
    si, di, w = si[keep], di[keep], w[keep]
    wout = np.zeros(n)
    np.add.at(wout, si, w)
    if p is None:
        pv = np.full(n, 1.0 / n)
    else:
        pv = np.zeros(n)
        for k, m in p.items():
            if int(k) in idx:
                pv[idx[int(k)]] = m
        pv = pv / pv.sum()
    rank = pv.copy()
    for _ in range(n_iter):
        dangling = rank[wout == 0].sum()
        recv = np.zeros(n)
        np.add.at(recv, di, rank[si] * w / wout[si])
        rank = (1 - damping) * pv + damping * (dangling * pv + recv)
    return nodes, rank


def test_pagerank_weighted_matches_dense(ray_session):
    import ray.data as rd

    from logray.functions.graph import pagerank

    rng = np.random.default_rng(20)
    src = rng.integers(0, 25, 150).astype(np.int64)
    dst = rng.integers(0, 25, 150).astype(np.int64)
    w = rng.integers(0, 5, 150).astype(np.float64)  # includes zeros
    edges = rd.from_arrow(pa.table({
        "src": pa.array(src), "dst": pa.array(dst),
        "weight": pa.array(w)}))
    got = pagerank(edges, weight_col="weight", n_iter=20,
                   num_shards=3).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)
    nodes, want = _pagerank_dense_general(src, dst, w=w)
    assert got["node"].tolist() == nodes.tolist()
    np.testing.assert_allclose(got["rank"].to_numpy(), want,
                               rtol=0, atol=1e-12)
    assert abs(got["rank"].sum() - 1.0) < 1e-9


def test_pagerank_personalized_matches_dense(ray_session):
    from logray.functions.graph import pagerank

    src, dst = _rand_graph(21, 30, 200)
    p = {0: 3.0, 5: 1.0, 99999: 7.0}  # absent seed mass renormalizes away
    got = pagerank(_edges_ds(src, dst), personalization=p,
                   n_iter=20, num_shards=3).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)
    nodes, want = _pagerank_dense_general(src, dst, p=p)
    assert got["node"].tolist() == nodes.tolist()
    np.testing.assert_allclose(got["rank"].to_numpy(), want,
                               rtol=0, atol=1e-12)
    # teleport concentrates on the seeds
    gm = dict(zip(got["node"], got["rank"]))
    assert gm[0] > 1.0 / len(nodes)


def test_pagerank_personalized_seed_list_and_absent_raise(ray_session):
    import pytest as _pytest

    from logray.functions.graph import pagerank

    src, dst = [1, 2], [2, 3]
    got = pagerank(_edges_ds(src, dst), personalization=[1, 3],
                   n_iter=10, num_shards=2).to_pandas()
    nodes, want = _pagerank_dense_general(
        np.array(src), np.array(dst), p={1: 1.0, 3: 1.0}, n_iter=10)
    got = got.sort_values("node").reset_index(drop=True)
    np.testing.assert_allclose(got["rank"].to_numpy(), want,
                               rtol=0, atol=1e-14)
    with _pytest.raises(Exception, match="no personalization seed"):
        pagerank(_edges_ds(src, dst), personalization=[777],
                 num_shards=2)


def test_pagerank_weighted_bit_deterministic(ray_session):
    """Weighted path keeps the partitioning bit-determinism contract
    (weights join the shard-local edge sort key)."""
    import ray.data as rd

    from logray.functions.graph import pagerank

    rng = np.random.default_rng(22)
    src = rng.integers(0, 10, 80).astype(np.int64)
    dst = rng.integers(0, 10, 80).astype(np.int64)
    w = rng.random(80)
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst),
                  "weight": pa.array(w)})
    a = pagerank(rd.from_arrow(t), weight_col="weight",
                 num_shards=3).to_pandas()
    perm = np.random.default_rng(1).permutation(80)
    t2 = t.take(pa.array(perm))
    parts = rd.from_arrow([t2.slice(0, 31), t2.slice(31)])
    b = pagerank(parts, weight_col="weight", num_shards=3).to_pandas()
    a = a.sort_values("node").reset_index(drop=True)
    b = b.sort_values("node").reset_index(drop=True)
    assert (a["rank"].to_numpy() == b["rank"].to_numpy()).all()


# ---------------------------------------------------------------------------
# HITS hubs & authorities
# ---------------------------------------------------------------------------

def _hits_dense(src, dst, n_iter=20):
    nodes = np.unique(np.concatenate([src, dst]))
    idx = {int(v): i for i, v in enumerate(nodes)}
    n = len(nodes)
    si = np.array([idx[int(v)] for v in src])
    di = np.array([idx[int(v)] for v in dst])
    hub = np.ones(n)
    auth = np.ones(n)
    for _ in range(n_iter):
        a = np.zeros(n)
        np.add.at(a, di, hub[si])
        auth = a / (np.linalg.norm(a) or 1.0)
        h = np.zeros(n)
        np.add.at(h, si, auth[di])
        # reference normalizes AFTER both steps like the engine:
        hub = h
        na = np.linalg.norm(a) or 1.0
        nh = np.linalg.norm(h) or 1.0
        auth, hub = a / na, h / nh
    return nodes, hub, auth


def test_hits_matches_dense(ray_session):
    from logray.functions.graph import hits

    src, dst = _rand_graph(30, 20, 120)
    got = hits(_edges_ds(src, dst), n_iter=20, num_shards=3).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)
    nodes, hub, auth = _hits_dense(src, dst)
    assert got["node"].tolist() == nodes.tolist()
    np.testing.assert_allclose(got["hub"].to_numpy(), hub,
                               rtol=0, atol=1e-12)
    np.testing.assert_allclose(got["authority"].to_numpy(), auth,
                               rtol=0, atol=1e-12)


def test_hits_star_semantics(ray_session):
    from logray.functions.graph import hits

    # 1..4 -> 0: node 0 is the pure authority, the others pure hubs
    got = hits(_edges_ds([1, 2, 3, 4], [0, 0, 0, 0]),
               num_shards=2).to_pandas().set_index("node")
    assert got.loc[0, "authority"] == got["authority"].max()
    assert got.loc[0, "hub"] == 0.0
    assert abs(got.loc[1, "hub"] - 0.5) < 1e-12  # 4 equal hubs, L2 norm


# ---------------------------------------------------------------------------
# clustering coefficients
# ---------------------------------------------------------------------------

def _clustering_brute(src, dst):
    es = {(min(int(a), int(b)), max(int(a), int(b)))
          for a, b in zip(src, dst) if a != b}
    adj: dict[int, set[int]] = {}
    for x, y in es:
        adj.setdefault(x, set()).add(y)
        adj.setdefault(y, set()).add(x)
    out = {}
    for v, nb in adj.items():
        nb_l = sorted(nb)
        t = 0
        for i, x in enumerate(nb_l):
            for y in nb_l[i + 1:]:
                if (min(x, y), max(x, y)) in es:
                    t += 1
        d = len(nb)
        out[v] = (t, d, (2.0 * t) / (d * (d - 1)) if d > 1 else 0.0)
    return out


@pytest.mark.parametrize("mode", ["broadcast", "join"])
@pytest.mark.parametrize("seed,n,m", [(40, 12, 60), (41, 25, 90)])
def test_clustering_matches_brute(ray_session, mode, seed, n, m):
    from logray.functions.graph import clustering_coefficients

    src, dst = _rand_graph(seed, n, m)
    kw = {"max_broadcast": 0} if mode == "join" else {}
    got = clustering_coefficients(_edges_ds(src, dst), num_buckets=4,
                                  **kw).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)
    want = _clustering_brute(src, dst)
    assert got["node"].tolist() == sorted(want)
    for _, r in got.iterrows():
        t, d, c = want[r["node"]]
        assert r["triangles"] == t and r["deg"] == d
        assert r["coeff"] == c  # bit-exact: one IEEE division


def test_clustering_matches_duckdb(ray_session):
    import duckdb
    import pandas as pd

    from logray.functions.graph import (clustering_coefficients,
                                        clustering_coefficients_sql)

    src, dst = _rand_graph(42, 15, 70)
    got = clustering_coefficients(_edges_ds(src, dst),
                                  num_buckets=4).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)
    df = pd.DataFrame({"src": src, "dst": dst})
    want = duckdb.connect().execute(
        clustering_coefficients_sql("df")).fetch_df()
    assert got.equals(want.reset_index(drop=True))


def test_crawl_rank_composition_deterministic(ray_session):
    """End-to-end extract_links -> graph -> pagerank composition is
    bit-deterministic across runs (gate entry crawl_rank_docs)."""
    import importlib
    import sys

    sys.path.insert(0, "/root/repo")
    m = importlib.import_module("__ray_entry__")
    a = m.queries()["crawl_rank_docs"]("/root/testdata/sf0.001")
    b = m.queries()["crawl_rank_docs"]("/root/testdata/sf0.001")
    assert len(a) == 20
    assert (a["rank"].to_numpy()[:-1] >= a["rank"].to_numpy()[1:]).all()
    assert a.equals(b)


# ---------------------------------------------------------------------------
# k-core membership
# ---------------------------------------------------------------------------

def _kcore_brute(src, dst, k):
    es = {(min(int(a), int(b)), max(int(a), int(b)))
          for a, b in zip(src, dst) if a != b}
    alive = {v for e in es for v in e}
    cur = set(es)
    while True:
        deg = {}
        for x, y in cur:
            deg[x] = deg.get(x, 0) + 1
            deg[y] = deg.get(y, 0) + 1
        drop = {v for v in alive if deg.get(v, 0) < k}
        if not drop:
            return sorted(alive)
        alive -= drop
        cur = {(x, y) for x, y in cur if x in alive and y in alive}


@pytest.mark.parametrize("mode", ["broadcast", "fallback"])
@pytest.mark.parametrize("seed,n,m,k", [(50, 15, 60, 2), (51, 25, 90, 3),
                                        (52, 10, 14, 2)])
def test_kcore_matches_brute(ray_session, mode, seed, n, m, k):
    from logray.functions.graph import kcore_members

    src, dst = _rand_graph(seed, n, m)
    kw = {"max_broadcast": 0} if mode == "fallback" else {}
    got = kcore_members(_edges_ds(src, dst), k, num_buckets=4,
                        **kw).to_pandas()
    assert sorted(got["node"]) == _kcore_brute(src, dst, k)


def test_kcore_clique_plus_tail(ray_session):
    from logray.functions.graph import kcore_members

    # K4 clique (nodes 0-3) with a pendant path 3-4-5: 3-core = the clique
    src = [0, 0, 0, 1, 1, 2, 3, 4]
    dst = [1, 2, 3, 2, 3, 3, 4, 5]
    got = kcore_members(_edges_ds(src, dst), 3).to_pandas()
    assert sorted(got["node"]) == [0, 1, 2, 3]
    got1 = kcore_members(_edges_ds(src, dst), 1).to_pandas()
    assert sorted(got1["node"]) == [0, 1, 2, 3, 4, 5]


# ---------------------------------------------------------------------------
# neighbor fan-out sampling
# ---------------------------------------------------------------------------

def test_sample_neighbors_matches_duckdb(ray_session):
    import duckdb
    import pandas as pd

    from logray.functions.graph import sample_neighbors, sample_neighbors_sql

    src, dst = _rand_graph(60, 20, 200)
    got = sample_neighbors(_edges_ds(src, dst), k=3,
                           seed=5, num_buckets=4).to_pandas()
    got = got.sort_values(["src", "dst"]).reset_index(drop=True)
    df = pd.DataFrame({"src": src, "dst": dst})
    want = duckdb.connect().execute(
        sample_neighbors_sql("df", k=3, seed=5)).fetch_df()
    assert got.equals(want.reset_index(drop=True))


def test_sample_neighbors_bounds_and_determinism(ray_session):
    import ray.data as rd

    from logray.functions.graph import sample_neighbors

    src, dst = _rand_graph(61, 10, 300)  # heavy fan-out per node
    a = sample_neighbors(_edges_ds(src, dst), k=4, seed=1).to_pandas()
    counts = a.groupby("src").size()
    assert (counts <= 4).all()
    # partition-invariant
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    perm = np.random.default_rng(2).permutation(len(src))
    t2 = t.take(pa.array(perm))
    parts = rd.from_arrow([t2.slice(0, 100), t2.slice(100)])
    b = sample_neighbors(parts, k=4, seed=1).to_pandas()
    key = lambda df: sorted(map(tuple, df[["src", "dst"]].to_numpy()))
    assert key(a) == key(b)
    # different seed -> different picks (needs distinct dst choices,
    # so use a wide graph — the tiny multigraph above mostly offers
    # duplicate (s, 0) copies that any seed picks alike)
    rng = np.random.default_rng(62)
    ws = rng.integers(0, 10, 400).astype(np.int64)
    wd = rng.integers(0, 1000, 400).astype(np.int64)
    c1 = sample_neighbors(_edges_ds(ws, wd), k=4, seed=1).to_pandas()
    c2 = sample_neighbors(_edges_ds(ws, wd), k=4, seed=2).to_pandas()
    assert key(c1) != key(c2)


# ---------------------------------------------------------------------------
# approximate triangles + k-hop ego nets
# ---------------------------------------------------------------------------

def test_triangle_approx_p1_equals_exact(ray_session):
    from logray.functions.graph import triangle_count, triangle_count_approx

    src, dst = _rand_graph(70, 20, 120)
    exact = triangle_count(_edges_ds(src, dst)).to_pandas()["triangles"][0]
    est = triangle_count_approx(_edges_ds(src, dst), p=1.0).to_pandas()
    assert est["triangles_est"][0] == exact == est["sampled_triangles"][0]


def test_triangle_approx_unbiased_ballpark(ray_session):
    from logray.functions.graph import triangle_count, triangle_count_approx

    # dense-ish graph with many triangles; average over seeds
    rng = np.random.default_rng(71)
    src = rng.integers(0, 30, 600).astype(np.int64)
    dst = rng.integers(0, 30, 600).astype(np.int64)
    exact = triangle_count(_edges_ds(src, dst)).to_pandas()["triangles"][0]
    ests = [triangle_count_approx(_edges_ds(src, dst), p=0.7,
                                  seed=s).to_pandas()["triangles_est"][0]
            for s in range(5)]
    mean = sum(ests) / len(ests)
    assert exact > 100
    assert abs(mean - exact) / exact < 0.35  # coarse unbiasedness check


def _khop_brute(src, dst, seeds, hops):
    adj = {}
    for a, b in zip(src, dst):
        adj.setdefault(int(a), set()).add(int(b))
    frontier = set(seeds)
    seen = set(seeds)
    out = set()
    for hop in range(1, hops + 1):
        nxt = set()
        for u in frontier:
            for v in adj.get(u, ()):
                out.add((u, v, hop))
                nxt.add(v)
        frontier = nxt - seen
        seen |= frontier
        if not frontier:
            break
    return out


@pytest.mark.parametrize("seed,hops", [(72, 1), (73, 2), (74, 3)])
def test_khop_matches_brute_no_fanout(ray_session, seed, hops):
    from logray.functions.graph import khop_edges

    src, dst = _rand_graph(seed, 40, 120)
    seeds = [0, 1]
    got = khop_edges(_edges_ds(src, dst), seeds, hops=hops).to_pandas()
    got_set = set(map(tuple, got[["src", "dst", "hop"]]
                      .drop_duplicates().to_numpy()))
    want = _khop_brute(src, dst, seeds, hops)
    assert got_set == want


def test_khop_fanout_bounds_and_partition_invariance(ray_session):
    import ray.data as rd

    from logray.functions.graph import khop_edges

    rng = np.random.default_rng(75)
    src = rng.integers(0, 15, 400).astype(np.int64)
    dst = rng.integers(0, 400, 400).astype(np.int64)
    a = khop_edges(_edges_ds(src, dst), [0], hops=2, fanout=3,
                   seed=9).to_pandas()
    per_src_hop = a.drop_duplicates().groupby(["src", "hop"]).size()
    assert (per_src_hop <= 3).all()
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    perm = np.random.default_rng(3).permutation(400)
    t2 = t.take(pa.array(perm))
    parts = rd.from_arrow([t2.slice(0, 130), t2.slice(130)])
    b = khop_edges(parts, [0], hops=2, fanout=3, seed=9).to_pandas()
    key = lambda df: sorted(map(tuple, df[["src", "dst", "hop"]].to_numpy()))
    assert key(a) == key(b)


def test_sample_neighbors_rejects_negative_ids(ray_session):
    """numpy % and SQL % disagree on negative dividends — the operator
    refuses rather than silently diverging from its exact twin."""
    import pytest as _pytest

    from logray.functions.graph import sample_neighbors

    with _pytest.raises(Exception, match="negative node ids"):
        sample_neighbors(_edges_ds([-1, 2], [3, 4]), k=1).to_pandas()


def test_triangle_approx_negative_seed(ray_session):
    from logray.functions.graph import triangle_count_approx

    out = triangle_count_approx(_edges_ds([1, 2, 3], [2, 3, 1]),
                                p=0.9, seed=-5).to_pandas()
    assert out["p"][0] == 0.9  # negative seed masks, no overflow


# ---------------------------------------------------------------------------
# pagerank_fixedpoint — the gate-exact integer variant
# ---------------------------------------------------------------------------

def _wedges_ds(src, dst, w):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "src": pa.array(np.asarray(src, np.int64)),
        "dst": pa.array(np.asarray(dst, np.int64)),
        "w": pa.array(np.asarray(w, np.int64)),
    }))


@pytest.mark.parametrize("weighted,seeds", [
    (False, None),
    (True, None),
    (False, [0, 1, 2]),
    (True, [0, 1, 2, 3, 4]),
])
def test_pagerank_fixedpoint_matches_duckdb_exact(ray_session, weighted,
                                                  seeds):
    """The whole point of the fixed-point variant: BIT-exact equality
    with a completely independent engine replaying the same int64
    recursion (DuckDB unrolled-CTE twin)."""
    import duckdb

    from logray.functions.graph import (pagerank_fixedpoint,
                                        pagerank_fixedpoint_sql)

    src, dst = _rand_graph(11, 60, 500)
    rng = np.random.default_rng(12)
    w = rng.integers(1, 40, len(src)).astype(np.int64)
    if weighted:
        w[rng.random(len(w)) < 0.05] = 0  # zero-weight edges drop
        ds = _wedges_ds(src, dst, w)
        got = pagerank_fixedpoint(ds, weight_col="w", n_iter=15,
                                  num_shards=3, personalization=seeds)
        sql = pagerank_fixedpoint_sql("(SELECT src, dst, w FROM edges_t)",
                                      n_iter=15, weight_expr="w",
                                      seeds=seeds)
    else:
        ds = _edges_ds(src, dst)
        got = pagerank_fixedpoint(ds, n_iter=15, num_shards=3,
                                  personalization=seeds)
        sql = pagerank_fixedpoint_sql("(SELECT src, dst FROM edges_t)",
                                      n_iter=15, seeds=seeds)
    got = got.to_pandas().sort_values("node").reset_index(drop=True)
    con = duckdb.connect()
    con.register("edges_t", pa.table({"src": pa.array(src),
                                      "dst": pa.array(dst),
                                      "w": pa.array(w)}))
    want = con.execute(sql).fetchdf()
    assert got["node"].tolist() == want["node"].tolist()
    assert (got["rank"].to_numpy() == want["rank"].to_numpy()).all()


def test_pagerank_fixedpoint_bit_deterministic_everywhere(ray_session):
    """Integer sums are exactly associative, so unlike the float
    variant the result is bit-identical across DIFFERENT shard counts
    too, not just across input partitioning."""
    import ray.data as rd

    from logray.functions.graph import pagerank_fixedpoint

    src, dst = _rand_graph(13, 30, 200)
    a = pagerank_fixedpoint(_edges_ds(src, dst), num_shards=3).to_pandas()
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    perm = np.random.default_rng(0).permutation(len(src))
    t2 = t.take(pa.array(perm))
    parts = rd.from_arrow([t2.slice(0, 57), t2.slice(57, 90), t2.slice(147)])
    for B in (1, 5):
        b = pagerank_fixedpoint(parts, num_shards=B).to_pandas()
        a2 = a.sort_values("node").reset_index(drop=True)
        b2 = b.sort_values("node").reset_index(drop=True)
        assert a2["node"].tolist() == b2["node"].tolist()
        assert (a2["rank"].to_numpy() == b2["rank"].to_numpy()).all()


def test_pagerank_fixedpoint_close_to_float(ray_session):
    """Quantization drift vs the float recursion is bounded by
    ~n_iter/PR_SCALE per node — the integer variant IS PageRank."""
    from logray.functions.graph import pagerank_fixedpoint

    src, dst = _rand_graph(5, 40, 300)
    got = pagerank_fixedpoint(_edges_ds(src, dst), n_iter=20,
                              num_shards=3).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)
    nodes, want = _pagerank_dense(src, dst)
    assert got["node"].tolist() == nodes.tolist()
    np.testing.assert_allclose(got["rank"].to_numpy(), want,
                               rtol=0, atol=1e-9)
    assert abs(got["rank"].sum() - 1.0) < 1e-6


def test_pagerank_fixedpoint_guards(ray_session):
    from logray.functions.graph import pagerank_fixedpoint

    # negative weight refused
    with pytest.raises(ValueError, match="negative edge weight"):
        pagerank_fixedpoint(_wedges_ds([1, 2], [2, 3], [1, -1]),
                            weight_col="w", num_shards=2).to_pandas()
    # per-node out-weight >= 2^31 refused loudly (int64 emission bound)
    with pytest.raises(ValueError, match="out-weight exceeds"):
        pagerank_fixedpoint(_wedges_ds([1, 1], [2, 3],
                                       [2**31 - 1, 2**31 - 1]),
                            weight_col="w", num_shards=2).to_pandas()
    # no personalization seed present in the graph
    with pytest.raises(ValueError, match="no personalization seed"):
        pagerank_fixedpoint(_edges_ds([1, 2], [2, 3]),
                            personalization=[99], num_shards=2)


# ---------------------------------------------------------------------------
# checkpoint-resume for iterative graph jobs
# ---------------------------------------------------------------------------

# the five entry points on the sharded vertex-state engine, with the
# result columns each returns
_ENGINES = {
    "pagerank": ["node", "rank"],
    "pagerank_fixedpoint": ["node", "rank"],
    "hits": ["node", "hub", "authority"],
    "hits_fixedpoint": ["node", "hub", "authority"],
    "connected_components_graph": ["node", "component"],
}


@pytest.mark.parametrize("algo,num_shards", [
    (a, 2) for a in _ENGINES] + [("hits_fixedpoint", 8)])  # 8 = default
def test_graph_engine_empty_input(ray_session, algo, num_shards):
    """Empty edges -> empty result with the typed schema."""
    import logray.functions.graph as G

    out = getattr(G, algo)(_edges_ds([], []), num_shards=num_shards)
    assert out.count() == 0
    assert out.schema().names == _ENGINES[algo]


@pytest.mark.parametrize("algo", _ENGINES)
def test_graph_engine_rejects_num_shards_below_one(ray_session, algo):
    """No shard would receive an edge: refuse instead of answering with
    zero rows (under dedup_keep_min(distributed=True) that would keep
    every duplicate)."""
    import logray.functions.graph as G

    for b in (0, -2):
        with pytest.raises(ValueError, match="num_shards must be >= 1"):
            getattr(G, algo)(_edges_ds([0, 1, 2, 3], [1, 2, 3, 0]),
                             num_shards=b)


class _Boom(RuntimeError):
    pass


def _crash_at(k):
    def fault(phase, i):
        if i == k:
            raise _Boom(f"injected crash before iteration {i}")
    return fault


@pytest.mark.parametrize("algo", ["pagerank", "pagerank_fixedpoint",
                                  "hits", "hits_fixedpoint"])
def test_graph_checkpoint_crash_resume_bit_equal(ray_session, tmp_path,
                                                 algo):
    """Kill the job mid-run (after 4 committed iteration checkpoints),
    re-invoke with identical arguments: the resumed run must produce
    final scores BIT-EQUAL to an uninterrupted run."""
    import logray.functions.graph as G

    src, dst = _rand_graph(21, 40, 300)
    ds = lambda: _edges_ds(src, dst)  # noqa: E731
    kw = {"n_iter": 10, "num_shards": 3}
    if algo == "pagerank":
        run = lambda **k: G.pagerank(ds(), personalization=[0, 1], **kw, **k)  # noqa: E731
        cols = ["rank"]
    elif algo == "pagerank_fixedpoint":
        run = lambda **k: G.pagerank_fixedpoint(ds(), **kw, **k)  # noqa: E731
        cols = ["rank"]
    elif algo == "hits":
        run = lambda **k: G.hits(ds(), **kw, **k)  # noqa: E731
        cols = ["hub", "authority"]
    else:
        run = lambda **k: G.hits_fixedpoint(ds(), **kw, **k)  # noqa: E731
        cols = ["hub", "authority"]

    base = run().to_pandas().sort_values("node").reset_index(drop=True)
    ck = str(tmp_path / algo)
    with pytest.raises(_Boom):
        run(checkpoint=ck, _fault=_crash_at(4))
    # exactly 4 committed iteration checkpoints survive the crash
    import glob as _glob

    assert len(_glob.glob(f"{ck}/parts/iter-*/manifest.json")) == 4
    got = run(checkpoint=ck).to_pandas().sort_values(
        "node").reset_index(drop=True)
    assert got["node"].tolist() == base["node"].tolist()
    for c in cols:
        assert (got[c].to_numpy() == base[c].to_numpy()).all(), c


def test_graph_checkpoint_refuses_changed_plan(ray_session, tmp_path):
    from logray.functions.graph import pagerank

    src, dst = _rand_graph(22, 20, 100)
    ck = str(tmp_path / "pr")
    pagerank(_edges_ds(src, dst), n_iter=3, num_shards=2, checkpoint=ck)
    # different num_shards = different partitioning plan -> refuse
    with pytest.raises(ValueError, match="different parameters"):
        pagerank(_edges_ds(src, dst), n_iter=3, num_shards=4,
                 checkpoint=ck)
    # n_iter is NOT part of the plan: extending the run resumes from
    # the final committed iteration instead of refusing
    out = pagerank(_edges_ds(src, dst), n_iter=5, num_shards=2,
                   checkpoint=ck).to_pandas()
    want = pagerank(_edges_ds(src, dst), n_iter=5,
                    num_shards=2).to_pandas()
    got = out.sort_values("node").reset_index(drop=True)
    want = want.sort_values("node").reset_index(drop=True)
    assert (got["rank"].to_numpy() == want["rank"].to_numpy()).all()


@pytest.mark.parametrize("algo", _ENGINES)
def test_graph_checkpoint_refuses_changed_edges(ray_session, tmp_path,
                                                algo):
    """A checkpoint written for one edge multiset must not silently
    seed a different graph."""
    import logray.functions.graph as G

    run = getattr(G, algo)
    iters = ({} if algo == "connected_components_graph"
             else {"n_iter": 2})
    src, dst = _rand_graph(23, 20, 100)
    ck = str(tmp_path / algo)
    run(_edges_ds(src, dst), num_shards=2, checkpoint=ck, **iters)
    if iters:
        iters["n_iter"] = 4
    with pytest.raises(ValueError, match="mismatch"):
        run(_edges_ds(src[:50], dst[:50]), num_shards=2, checkpoint=ck,
            **iters)


# ---------------------------------------------------------------------------
# fixed-point HITS (the gate-exact HITS row)
# ---------------------------------------------------------------------------

def test_hits_fixedpoint_matches_duckdb_exact(ray_session):
    """BIT-exact equality with DuckDB replaying the same int64
    recursion (unrolled-CTE twin) — same contract as the fixed-point
    PageRank family."""
    import duckdb

    from logray.functions.graph import (hits_fixedpoint,
                                        hits_fixedpoint_sql)

    src, dst = _rand_graph(31, 60, 500)
    got = hits_fixedpoint(_edges_ds(src, dst), n_iter=12,
                          num_shards=3).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)
    con = duckdb.connect()
    con.register("edges_t", pa.table({"src": pa.array(src),
                                      "dst": pa.array(dst)}))
    want = con.execute(hits_fixedpoint_sql(
        "(SELECT src, dst FROM edges_t)", n_iter=12)).fetchdf()
    assert got["node"].tolist() == want["node"].tolist()
    assert (got["hub"].to_numpy() == want["hub"].to_numpy()).all()
    assert (got["authority"].to_numpy()
            == want["authority"].to_numpy()).all()


def test_hits_fixedpoint_bit_deterministic_everywhere(ray_session):
    """Integer sums are exactly associative: bit-identical across
    input partitioning AND shard counts (and duplicate edges are
    no-ops — the recursion runs over the distinct edge set)."""
    import ray.data as rd

    from logray.functions.graph import hits_fixedpoint

    src, dst = _rand_graph(33, 30, 200)
    a = hits_fixedpoint(_edges_ds(src, dst), num_shards=3).to_pandas()
    a = a.sort_values("node").reset_index(drop=True)
    # duplicate every edge, shuffle, re-partition, vary shard count
    src2 = np.concatenate([src, src])
    dst2 = np.concatenate([dst, dst])
    t = pa.table({"src": pa.array(src2), "dst": pa.array(dst2)})
    perm = np.random.default_rng(0).permutation(len(src2))
    t2 = t.take(pa.array(perm))
    parts = rd.from_arrow([t2.slice(0, 111), t2.slice(111, 170),
                           t2.slice(281)])
    for B in (1, 5):
        b = hits_fixedpoint(parts, num_shards=B).to_pandas()
        b = b.sort_values("node").reset_index(drop=True)
        assert a["node"].tolist() == b["node"].tolist()
        assert (a["hub"].to_numpy() == b["hub"].to_numpy()).all()
        assert (a["authority"].to_numpy()
                == b["authority"].to_numpy()).all()


def test_hits_fixedpoint_star_semantics(ray_session):
    """Star graph u->{1..k}: the hub is the center, the authorities are
    the leaves — the fixed-point variant preserves HITS structure."""
    from logray.functions.graph import hits_fixedpoint

    k = 8
    src = np.zeros(k, np.int64)
    dst = np.arange(1, k + 1, dtype=np.int64)
    out = hits_fixedpoint(_edges_ds(src, dst), n_iter=8).to_pandas()
    out = out.set_index("node")
    assert out.loc[0, "hub"] == out["hub"].max() > 0
    assert out.loc[0, "authority"] == 0.0
    leaves = out.drop(index=0)
    assert (leaves["hub"].to_numpy() == 0.0).all()
    assert leaves["authority"].nunique() == 1
    assert (leaves["authority"] > 0).all()


def test_kcore_sql_twin_matches(ray_session):
    """kcore_members_sql (unrolled peeling) matches the Ray operator
    exactly on seeded random multigraphs, including a depth>1 peel."""
    import duckdb

    from logray.functions.graph import kcore_members, kcore_members_sql

    # a path graph peels one end per round: depth = ceil(n/2) > 1
    chain = np.arange(6, dtype=np.int64)
    cases = [
        _rand_graph(41, 30, 120),
        _rand_graph(42, 12, 30),
        (chain[:-1], chain[1:]),
    ]
    for ci, (src, dst) in enumerate(cases):
        for k in (1, 2, 3):
            got = kcore_members(_edges_ds(src, dst), k=k).to_pandas()
            got_nodes = sorted(got["node"]) if "node" in got else []
            con = duckdb.connect()
            con.register("edges_t", pa.table({"src": pa.array(src),
                                              "dst": pa.array(dst)}))
            want = con.execute(kcore_members_sql(
                "(SELECT src, dst FROM edges_t)", k=k)).fetchdf()
            assert got_nodes == want["node"].tolist(), (ci, k)


def test_kcore_sql_guard_fails_loud_when_shallow(ray_session):
    """Under-provisioned rounds must return ZERO rows (impossible for
    a real k-core of a non-empty graph), never a plausible superset."""
    import duckdb

    from logray.functions.graph import kcore_members_sql

    # path 0-1-2-...-7: 2-core is empty, peel depth 4 (one end pair
    # per round) — rounds=2 is too shallow for k=1's fixpoint check
    # with k=2 intermediate sets still shrinking
    chain = np.arange(8, dtype=np.int64)
    con = duckdb.connect()
    con.register("edges_t", pa.table({"src": pa.array(chain[:-1]),
                                      "dst": pa.array(chain[1:])}))
    shallow = con.execute(kcore_members_sql(
        "(SELECT src, dst FROM edges_t)", k=2, rounds=2)).fetchdf()
    assert len(shallow) == 0
    deep = con.execute(kcore_members_sql(
        "(SELECT src, dst FROM edges_t)", k=2, rounds=8)).fetchdf()
    assert len(deep) == 0  # true 2-core of a path IS empty
    # and a converged non-empty case stays non-empty
    ok = con.execute(kcore_members_sql(
        "(SELECT src, dst FROM edges_t)", k=1, rounds=8)).fetchdf()
    assert len(ok) == 8


def test_triangle_approx_sql_twin_matches(ray_session):
    """triangle_count_approx_sql replays the splitmix64 coin
    bit-for-bit (uint64 wrap multiplies via HUGEINT hi/lo split), so
    the sampled count AND the 1/p^3 estimate match exactly — including
    negative node ids (two's-complement normalization)."""
    import duckdb

    from logray.functions.graph import (triangle_count_approx,
                                        triangle_count_approx_sql)

    src, dst = _rand_graph(51, 25, 200)
    src2 = src - 5  # exercise negative ids through the uint64 wrap
    dst2 = dst - 5
    for s, d, p, seed in [(src, dst, 0.5, 3), (src, dst, 0.3, 11),
                          (src2, dst2, 0.6, 0), (src, dst, 1.0, 7)]:
        got = triangle_count_approx(
            _edges_ds(s, d), p=p, seed=seed).to_pandas()
        con = duckdb.connect()
        con.register("edges_t", pa.table({"src": pa.array(s),
                                          "dst": pa.array(d)}))
        want = con.execute(triangle_count_approx_sql(
            "(SELECT src, dst FROM edges_t)", p=p, seed=seed)).fetchdf()
        assert got["sampled_triangles"].iloc[0] \
            == want["sampled_triangles"].iloc[0], (p, seed)
        assert got["triangles_est"].iloc[0] \
            == want["triangles_est"].iloc[0], (p, seed)
        assert got["p"].iloc[0] == want["p"].iloc[0]


def test_cc_checkpoint_crash_resume_bit_equal(ray_session, tmp_path):
    """Connected components: kill after round-1 commit, resume with the
    same arguments — final labels bit-equal to an uninterrupted run
    (and resuming AT the fixpoint just re-detects it)."""
    from logray.functions.graph import connected_components_graph

    src, dst = _rand_graph(61, 80, 120)
    base = connected_components_graph(
        _edges_ds(src, dst), num_shards=3).to_pandas()
    base = base.sort_values("node").reset_index(drop=True)
    ck = str(tmp_path / "cc")
    with pytest.raises(_Boom):
        connected_components_graph(_edges_ds(src, dst), num_shards=3,
                                   checkpoint=ck, _fault=_crash_at(1))
    import glob as _glob

    assert len(_glob.glob(f"{ck}/parts/iter-*/manifest.json")) == 1
    got = connected_components_graph(
        _edges_ds(src, dst), num_shards=3, checkpoint=ck).to_pandas()
    got = got.sort_values("node").reset_index(drop=True)
    assert got["node"].tolist() == base["node"].tolist()
    assert (got["component"].to_numpy()
            == base["component"].to_numpy()).all()
    # a second resume (now at the committed fixpoint) is also bit-equal
    again = connected_components_graph(
        _edges_ds(src, dst), num_shards=3, checkpoint=ck).to_pandas()
    again = again.sort_values("node").reset_index(drop=True)
    assert (again["component"].to_numpy()
            == base["component"].to_numpy()).all()
    # different shard count = different plan -> refuse
    with pytest.raises(ValueError, match="different parameters"):
        connected_components_graph(_edges_ds(src, dst), num_shards=4,
                                   checkpoint=ck)


def test_cc_checkpoint_resumes_across_partitioning(ray_session, tmp_path):
    """The checkpoint's edge-count meta must be a pure function of the
    edge SET (build-time dedup), not of block boundaries — a resume
    under different read parallelism is legitimate and must not be
    refused as 'edge input changed'."""
    import ray.data as rd

    from logray.functions.graph import connected_components_graph

    src, dst = _rand_graph(71, 80, 300)
    t = pa.table({"src": pa.array(src), "dst": pa.array(dst)})
    ck = str(tmp_path / "cc_xpart")
    ds3 = rd.from_arrow([t.slice(0, 100), t.slice(100, 100), t.slice(200)])
    with pytest.raises(_Boom):
        connected_components_graph(ds3, num_shards=3, checkpoint=ck,
                                   _fault=_crash_at(1))
    got = connected_components_graph(  # resume from ONE block
        rd.from_arrow(t), num_shards=3, checkpoint=ck).to_pandas()
    base = connected_components_graph(ds3, num_shards=3).to_pandas()
    g = got.sort_values("node").reset_index(drop=True)
    b = base.sort_values("node").reset_index(drop=True)
    assert (g["component"].to_numpy() == b["component"].to_numpy()).all()


# ---------------------------------------------------------------------------
# output bits pinned: the float engines are only compared to dense
# references within a tolerance elsewhere, so a change that reorders a
# float fold would pass every other test — these hashes catch it
# ---------------------------------------------------------------------------

_GOLDEN_BITS = {  # sha256 prefixes of the sorted output columns
    "pagerank-1": "691bf94cee2c1af0",
    "pagerank-3": "8d2db36b5fa233c1",
    "pagerank_weighted-1": "8657e1729be469d8",
    "pagerank_weighted-3": "dca3aab9c19b5563",
    "pagerank_personalized-1": "668b50dd66ec8fba",
    "pagerank_personalized-3": "3b6602bfcf626c67",
    "hits-1": "bbc47196b1101f39",
    "hits-3": "eb14ccdb0a94e0a8",
    "connected_components_graph-3": "98120c32a9bee23f",
    "pagerank_fixedpoint-3": "501c8a03c2e0f39b",
    "hits_fixedpoint-3": "4c72def812b27686",
}


def _golden_run(case: str, num_shards: int):
    import ray.data as rd

    import logray.functions.graph as G

    src, dst = _rand_graph(81, 30, 200)
    w = np.random.default_rng(82).random(len(src))
    w[::17] = 0.0  # zero-weight edges drop, their src stays a vertex
    kw = {"num_shards": num_shards}
    if case == "pagerank":
        return G.pagerank(_edges_ds(src, dst), **kw)
    if case == "pagerank_weighted":
        return G.pagerank(rd.from_arrow(pa.table({
            "src": pa.array(src), "dst": pa.array(dst),
            "weight": pa.array(w)})), weight_col="weight", **kw)
    if case == "pagerank_personalized":
        return G.pagerank(_edges_ds(src, dst), **kw, personalization={
            0: 3.0, 5: 1.0, 11: 0.25, 99999: 7.0})
    return getattr(G, case)(_edges_ds(src, dst), **kw)


@pytest.mark.parametrize("case,num_shards", [
    (c, b) for c in ("pagerank", "pagerank_weighted",
                     "pagerank_personalized", "hits") for b in (1, 3)
] + [(c, 3) for c in ("connected_components_graph", "pagerank_fixedpoint",
                      "hits_fixedpoint")])
def test_graph_output_bits_pinned(ray_session, case, num_shards):
    import hashlib

    df = _golden_run(case, num_shards).to_pandas()
    df = df.sort_values("node").reset_index(drop=True)
    h = hashlib.sha256(df["node"].to_numpy(np.int64).tobytes())
    for c in df.columns[1:]:
        h.update(df[c].to_numpy().tobytes())
    assert h.hexdigest()[:16] == _GOLDEN_BITS[f"{case}-{num_shards}"]


def test_graph_checkpoint_every_validated(ray_session, tmp_path):
    from logray.functions.graph import pagerank

    src, dst = _rand_graph(72, 10, 30)
    with pytest.raises(ValueError, match="checkpoint_every"):
        pagerank(_edges_ds(src, dst), checkpoint=str(tmp_path / "x"),
                 checkpoint_every=0)


def test_pagerank_fixedpoint_damping_den_guard(ray_session):
    from logray.functions.graph import pagerank_fixedpoint

    src, dst = _rand_graph(73, 10, 30)
    with pytest.raises(ValueError, match="damping_den too large"):
        pagerank_fixedpoint(_edges_ds(src, dst),
                            damping_num=85_000_000,
                            damping_den=100_000_000)


def test_graph_push_replay_is_dropped(ray_session, tmp_path, monkeypatch):
    """A float PageRank push worker killed after its batch is acked is
    retried by Ray and pushes that batch again; the shards drop the
    replay by its batch id, so the ranks are bit-equal to a clean run."""
    import os

    import ray

    from logray.functions import graph as G

    src, dst = _rand_graph(74, 300, 4000)

    def ranks():
        df = G.pagerank(_edges_ds(src, dst), num_shards=3).to_pandas()
        df = df.sort_values("node")
        return df["node"].to_numpy().tobytes() + df["rank"].to_numpy().tobytes()

    clean = ranks()
    marker = str(tmp_path / "kill-marker")
    real_kernel, real_routes, shards = G._PRShard, G._pr_routes, []

    class RecordingKernel:
        DISTINCT_EDGES = False

        @staticmethod
        def remote(num_shards):
            shards.append(real_kernel.remote(num_shards))
            return shards[-1]

    def killing_routes(*args):
        routes = real_routes(*args)

        def once(t):
            yield from routes(t)
            # every slice of the batch is sent; an actor runs one
            # caller's calls in order, so these return once it has run
            # them all (acked) — then die before the push returns
            ray.get([s.__ray_ready__.remote() for s in shards])
            try:
                open(marker, "x").close()
            except FileExistsError:
                return
            os._exit(1)

        return once

    monkeypatch.setattr(G, "_PRShard", RecordingKernel)
    monkeypatch.setattr(G, "_pr_routes", killing_routes)
    assert ranks() == clean
    assert os.path.isfile(marker)  # the kill did happen
