"""Similarity search over an embedding column (``list<float>``).

- :func:`ann_topk` — exact brute-force cosine top-k: the query matrix is
  broadcast once (``ray.put``), each batch does one numpy matmul + partial
  top-k, and the driver merges the tiny per-batch winners.  This is the
  correctness baseline and is bandwidth-bound, not Python-bound.
- :func:`ann_lsh_topk` — the scale path: random-hyperplane LSH assigns each
  row to a bucket; only batches' rows colliding with a query's bucket (or
  within a probe radius) are scored.  Same output contract, approximate
  recall, documented probe knob.
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa


def _as_matrix(col, dtype=np.float32) -> np.ndarray:
    m = np.stack(col.to_numpy(zero_copy_only=False))
    return m.astype(dtype, copy=False)


def _unit(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1)
    n[n == 0] = 1.0
    return m / n[:, None]


def _merge_topk(parts: list[pd.DataFrame], k: int) -> pd.DataFrame:
    parts = [p for p in parts if not p.empty and "query_id" in p.columns]
    if not parts:
        return pd.DataFrame({"query_id": [], "vec_id": [], "cosine": [], "rank": []})
    df = pd.concat(parts, ignore_index=True)
    df = df.sort_values(["query_id", "cosine", "vec_id"], ascending=[True, False, True], kind="mergesort")
    df = df.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    df["rank"] = df.groupby("query_id").cumcount().astype("int64")
    return df


def _reduced_topk(scored, k: int, coalesce_rows: int = 1 << 20) -> pd.DataFrame:
    """Collapse per-batch winner sets with a distributed tree-reduce layer
    BEFORE the driver: a second ``map_batches`` with a huge ``batch_size``
    coalesces ~hundreds of tiny per-batch winner blocks into one partial
    top-k per task, so the driver's final merge sees O(partials * nq * k)
    rows instead of O(batches * nq * k) — at 1e6 batches the driver input
    drops ~250x.  The reduction is exact: identical (query_id, -cosine,
    vec_id) tie-break ordering at every level."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # A reduce task whose input blocks were ALL empty candidate frames
        # receives a columnless pd.DataFrame — return a schema-ful empty
        # frame instead of KeyError'ing on the sort columns.
        if df.empty or "query_id" not in df.columns:
            return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                                 "vec_id": pd.Series([], dtype="int64"),
                                 "cosine": pd.Series([], dtype="float64")})
        df = df.sort_values(["query_id", "cosine", "vec_id"],
                            ascending=[True, False, True], kind="mergesort")
        return df.groupby("query_id", sort=True).head(k)

    reduced = scored.map_batches(partial, batch_format="pandas",
                                 batch_size=coalesce_rows)
    parts = [pd.DataFrame(b) for b in reduced.iter_batches(batch_format="pandas")]
    return _merge_topk(parts, k)


class _BruteScore:
    """Actor: queries fetched from the object store once per actor."""

    def __init__(self, queries_ref, k: int, emb_col: str, id_col: str, dtype=np.float32):
        import ray

        q = queries_ref
        if isinstance(q, ray.ObjectRef):
            q = ray.get(q)
        self.qid = np.asarray(q["query_id"])
        self.dtype = dtype
        self.qm = _unit(np.asarray(q["matrix"], dtype))
        self.k = k
        self.emb_col = emb_col
        self.id_col = id_col

    def __call__(self, t: pa.Table) -> pd.DataFrame:
        emb = _unit(_as_matrix(t[self.emb_col], self.dtype))
        ids = t[self.id_col].to_numpy(zero_copy_only=False)
        sim = self.qm @ emb.T  # (nq, nbatch)
        k = min(self.k, sim.shape[1])
        part = np.argpartition(-sim, k - 1, axis=1)[:, :k]
        rows = {"query_id": [], "vec_id": [], "cosine": []}
        for qi in range(sim.shape[0]):
            sel = part[qi]
            rows["query_id"].extend([int(self.qid[qi])] * len(sel))
            rows["vec_id"].extend(ids[sel].tolist())
            rows["cosine"].extend(sim[qi, sel].astype(float).tolist())
        return pd.DataFrame(rows)


def ann_topk(ds, queries: dict | "object", k: int = 10,
             emb_col: str = "embedding", id_col: str = "vec_id",
             batch_size: int = 4096, concurrency=None, dtype=np.float32) -> pd.DataFrame:
    """Exact cosine top-k for each query vector.

    ``queries`` = {"query_id": [...], "matrix": ndarray (nq, dim)} or a
    ``ray.ObjectRef`` of the same (broadcast once for cluster runs).
    Returns a DataFrame (query_id, vec_id, cosine, rank) — small: nq*k rows.
    """
    kwargs = dict(batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True)
    if concurrency is not None:
        scored = ds.map_batches(
            _BruteScore,
            fn_constructor_kwargs=dict(
                queries_ref=queries, k=k, emb_col=emb_col, id_col=id_col, dtype=dtype
            ),
            concurrency=concurrency,
            **kwargs,
        )
    else:
        scored = ds.map_batches(_BruteScore(queries, k, emb_col, id_col, dtype), **kwargs)
    return _reduced_topk(scored, k)


def ann_lsh_topk(ds, queries: dict, k: int = 10, n_planes: int = 6, probes: int = 2,
                 emb_col: str = "embedding", id_col: str = "vec_id", seed: int = 3,
                 batch_size: int = 4096) -> pd.DataFrame:
    """Approximate cosine top-k: score only rows whose random-hyperplane
    bucket is within ``probes`` bit-flips of the query's bucket.  Scanned
    fraction ~ sum_{i<=probes} C(n_planes,i) / 2^n_planes."""
    qid = np.asarray(queries["query_id"])
    qm = _unit(np.asarray(queries["matrix"], np.float32))

    state: dict = {}

    def planes(d):
        if "p" not in state:
            rng = np.random.default_rng(seed)
            state["p"] = rng.standard_normal((d, n_planes)).astype(np.float32)
        return state["p"]

    def bucket_of(m: np.ndarray) -> np.ndarray:
        proj = m @ planes(m.shape[1])
        bits = (proj > 0).astype(np.uint32)
        out = np.zeros(len(m), np.uint32)
        for j in range(n_planes):
            out = (out << np.uint32(1)) | bits[:, j]
        return out

    def popcount32(x: np.ndarray) -> np.ndarray:
        c = np.zeros_like(x)
        for j in range(n_planes):
            c += (x >> np.uint32(j)) & np.uint32(1)
        return c

    def score(t: pa.Table) -> pd.DataFrame:
        emb = _unit(_as_matrix(t[emb_col]))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        rb = bucket_of(emb)
        qb = bucket_of(qm)
        rows = {"query_id": [], "vec_id": [], "cosine": []}
        for qi in range(len(qm)):
            near = popcount32(rb ^ qb[qi]) <= probes
            if not near.any():
                continue
            sim = emb[near] @ qm[qi]
            sel_ids = ids[near]
            kk = min(k, len(sim))
            part = np.argpartition(-sim, kk - 1)[:kk]
            rows["query_id"].extend([int(qid[qi])] * kk)
            rows["vec_id"].extend(sel_ids[part].tolist())
            rows["cosine"].extend(sim[part].astype(float).tolist())
        return pd.DataFrame(rows)

    scored = ds.map_batches(score, batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True)
    return _reduced_topk(scored, k)


def _kmeans(sample: np.ndarray, k: int, iters: int = 12, seed: int = 11) -> np.ndarray:
    """Small deterministic Lloyd's k-means on a driver-side sample (the
    coarse quantizer for IVF).  Unit-normalized output centroids."""
    rng = np.random.default_rng(seed)
    sample = _unit(sample.astype(np.float64))
    k = min(k, len(sample))
    centroids = sample[rng.choice(len(sample), size=k, replace=False)]
    for _ in range(iters):
        sim = sample @ centroids.T
        assign = np.argmax(sim, axis=1)
        for c in range(k):
            m = assign == c
            if m.any():
                v = sample[m].mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    centroids[c] = v / n
    return centroids


def ann_ivf_topk(ds, queries: dict, k: int = 10, n_lists: int = 16, nprobe: int = 2,
                 train_sample: int = 2048, emb_col: str = "embedding",
                 id_col: str = "vec_id", seed: int = 11,
                 batch_size: int = 4096) -> pd.DataFrame:
    """IVF approximate top-k: a coarse k-means quantizer (trained once on a
    driver-side sample, broadcast) assigns every row to its nearest list;
    each query scores only rows in its ``nprobe`` nearest lists.  Scanned
    fraction ~ nprobe/n_lists with clustered data; exact within the probed
    lists."""
    import ray

    # deterministic hash-based uniform sample for the quantizer (a limit()
    # takes the FIRST rows — biased when the corpus is ordered/clustered);
    # the hash sampler needs an integer id, so non-integer ids keep the
    # plain limit() path rather than crashing
    from logray.functions.sample import sample_uniform

    sample_rows = []
    sch = ds.schema()
    id_type = dict(zip(sch.names, sch.types)).get(id_col)
    if id_type is not None and pa.types.is_integer(id_type) and seed < (1 << 30):
        try:
            n_total = ds.count()
            p = min(1.0, (train_sample * 1.25) / max(n_total, 1))
            sample_rows = sample_uniform(ds, p, id_col, seed=seed).limit(train_sample).take_all()
        except Exception:
            # e.g. negative ids reject inside sample_uniform's _det_hash —
            # honor the documented fallback instead of crashing the map task
            sample_rows = []
    if not sample_rows:
        sample_rows = ds.limit(train_sample).take_all()
    sample = np.stack([np.asarray(r[emb_col], np.float64) for r in sample_rows])
    centroids = _kmeans(sample, n_lists, seed=seed)
    cref = ray.put(centroids)

    qid = np.asarray(queries["query_id"])
    qm = _unit(np.asarray(queries["matrix"], np.float64))
    q_lists = np.argsort(-(qm @ centroids.T), axis=1)[:, :nprobe]  # (nq, nprobe)

    class Score:
        def __init__(self, cr):
            self.centroids = ray.get(cr) if isinstance(cr, ray.ObjectRef) else cr

        def __call__(self, t: pa.Table) -> pd.DataFrame:
            emb = _unit(_as_matrix(t[emb_col], np.float64))
            ids = t[id_col].to_numpy(zero_copy_only=False)
            assign = np.argmax(emb @ self.centroids.T, axis=1)
            rows = {"query_id": [], "vec_id": [], "cosine": []}
            for qi in range(len(qm)):
                probe = np.isin(assign, q_lists[qi])
                if not probe.any():
                    continue
                sim = emb[probe] @ qm[qi]
                sel = ids[probe]
                kk = min(k, len(sim))
                part = np.argpartition(-sim, kk - 1)[:kk]
                rows["query_id"].extend([int(qid[qi])] * kk)
                rows["vec_id"].extend(sel[part].tolist())
                rows["cosine"].extend(sim[part].astype(float).tolist())
            return pd.DataFrame(rows)

    scored = ds.map_batches(Score, fn_constructor_kwargs=dict(cr=cref),
                            batch_format="pyarrow", batch_size=batch_size,
                            concurrency=(1, 8), zero_copy_batch=True)
    return _reduced_topk(scored, k)


# ---------------------------------------------------------------------------
# persistent IVF index
# ---------------------------------------------------------------------------


def build_ivf_index(ds, path: str, n_lists: int = 16, emb_col: str = "embedding",
                    id_col: str = "vec_id", train_sample: int = 2048,
                    seed: int = 11) -> dict:
    """Train the coarse quantizer ONCE and persist the index to ``path``:

    - ``centroids.parquet`` — the (n_lists, dim) unit centroids;
    - ``manifest.json`` — params (n_lists, dim, columns, row count);
    - ``data/__list=<i>/...parquet`` — every row hive-partitioned by its
      nearest-centroid list (one streaming assign pass + partitioned
      write, resumable layout: one directory per list).

    Repeated query batches then probe only their lists' partitions via
    partition pruning — no retraining, no full scan (how IVF is actually
    used).  Returns the manifest dict."""
    import json
    import os

    import pyarrow.parquet as pq
    import ray

    from logray.functions.sample import sample_uniform
    from logray.state.manifest import publish, publish_text

    sample_rows = []
    sch = ds.schema()
    id_type = dict(zip(sch.names, sch.types)).get(id_col)
    n_total = ds.count()
    if id_type is not None and pa.types.is_integer(id_type):
        try:
            p = min(1.0, (train_sample * 1.25) / max(n_total, 1))
            sample_rows = sample_uniform(ds, p, id_col, seed=seed).limit(train_sample).take_all()
        except Exception:
            sample_rows = []
    if not sample_rows:
        sample_rows = ds.limit(train_sample).take_all()
    sample = np.stack([np.asarray(r[emb_col], np.float64) for r in sample_rows])
    centroids = _kmeans(sample, n_lists, seed=seed)
    cref = ray.put(centroids)

    class Assign:
        def __init__(self, cr):
            self.c = ray.get(cr) if isinstance(cr, ray.ObjectRef) else cr

        def __call__(self, t: pa.Table) -> pa.Table:
            emb = _unit(_as_matrix(t[emb_col], np.float64))
            assign = np.argmax(emb @ self.c.T, axis=1).astype(np.int64)
            return t.append_column("ivf_list", pa.array(assign))

    os.makedirs(path, exist_ok=True)
    (ds.map_batches(Assign, fn_constructor_kwargs=dict(cr=cref),
                    batch_format="pyarrow", zero_copy_batch=True,
                    concurrency=(1, 8))
       .write_parquet(os.path.join(path, "data"), partition_cols=["ivf_list"]))
    ctab = pa.table({"list_id": pa.array(range(len(centroids)), pa.int64()),
                     "centroid": pa.array([c.tolist() for c in centroids],
                                          pa.list_(pa.float64()))})
    publish(os.path.join(path, "centroids.parquet"),
            lambda tmp: pq.write_table(ctab, tmp))
    manifest = {"n_lists": int(len(centroids)), "dim": int(centroids.shape[1]),
                "emb_col": emb_col, "id_col": id_col, "rows": int(n_total),
                "seed": seed}
    publish_text(os.path.join(path, "manifest.json"), json.dumps(manifest))
    return manifest


def ann_ivf_query(path: str, queries: dict, k: int = 10, nprobe: int = 2,
                  batch_size: int = 4096) -> pd.DataFrame:
    """Top-k over a persisted IVF index (see :func:`build_ivf_index`):
    reads ONLY the ``nprobe`` nearest lists per query (hive partition
    pruning on ``ivf_list``), scores them exactly, tree-reduces.  Multiple
    query batches reuse the same index with zero retraining."""
    import json
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    with open(os.path.join(path, "manifest.json")) as f:
        man = json.load(f)
    emb_col, id_col = man["emb_col"], man["id_col"]
    ct = pq.read_table(os.path.join(path, "centroids.parquet"))
    order = np.argsort(ct["list_id"].to_numpy(zero_copy_only=False))
    centroids = np.stack(ct["centroid"].to_numpy(zero_copy_only=False)[order])

    qid = np.asarray(queries["query_id"])
    qm = _unit(np.asarray(queries["matrix"], np.float64))
    q_lists = np.argsort(-(qm @ centroids.T), axis=1)[:, :nprobe]
    probe_set = sorted({int(x) for x in q_lists.ravel()})

    # prune at the PATH level: only the probed lists' partition dirs are
    # ever opened (Ray's fragment filter can't see hive partition fields,
    # so the pruning is done on directories, which is also what an object
    # store gives you for free)
    import glob as _glob

    parts = []
    for li in probe_set:
        files = sorted(_glob.glob(os.path.join(path, "data",
                                               f"ivf_list={li}", "*.parquet")))
        if not files:
            continue
        d = rd.read_parquet(files)

        def tag(t: pa.Table, li=li) -> pa.Table:
            # hive inference may have surfaced ivf_list already (as a
            # string) — normalize to one int64 column either way
            if "ivf_list" in t.column_names:
                t = t.drop_columns(["ivf_list"])
            return t.append_column(
                "ivf_list", pa.array(np.full(t.num_rows, li, np.int64)))

        d = d.map_batches(tag, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)
        parts.append(d)
    if not parts:
        return pd.DataFrame({"query_id": [], "vec_id": [],
                             "cosine": [], "rank": []})
    ds = parts[0].union(*parts[1:]) if len(parts) > 1 else parts[0]

    def score(t: pa.Table) -> pd.DataFrame:
        emb = _unit(_as_matrix(t[emb_col], np.float64))
        ids = t[id_col].to_numpy(zero_copy_only=False)
        lists = t["ivf_list"].to_numpy(zero_copy_only=False).astype(np.int64)
        rows = {"query_id": [], "vec_id": [], "cosine": []}
        for qi in range(len(qm)):
            probe = np.isin(lists, q_lists[qi])
            if not probe.any():
                continue
            sim = emb[probe] @ qm[qi]
            sel = ids[probe]
            kk = min(k, len(sim))
            part = np.argpartition(-sim, kk - 1)[:kk]
            rows["query_id"].extend([int(qid[qi])] * kk)
            rows["vec_id"].extend(sel[part].tolist())
            rows["cosine"].extend(sim[part].astype(float).tolist())
        return pd.DataFrame(rows)

    scored = ds.map_batches(score, batch_format="pyarrow",
                            batch_size=batch_size, zero_copy_batch=True)
    return _reduced_topk(scored, k)
