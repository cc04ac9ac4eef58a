"""SemDeDup — semantic deduplication via k-means + intra-cluster cosine.

The published recipe (Abbas et al. 2023, "SemDeDup: Data-efficient
learning at web-scale through semantic deduplication"): cluster the
embedding space with k-means, then inside EACH cluster mark every item
whose cosine similarity to some higher-ranked cluster member reaches
``eps`` as a semantic duplicate.  Clustering bounds the quadratic step:
the all-pairs matmul is per-cluster, never corpus-wide.

Scale shape:
- the k-means fit is the existing streaming, bit-deterministic
  :func:`~logray.functions.cluster.kmeans_fit` (one ``map_batches`` pass
  per iteration, tiny partials, no shuffle);
- assignment is one per-batch integer matmul fused into the read;
- the ONLY wide operation is one ``groupby(cluster)`` shuffle of the
  narrow ``(id, embedding, cluster)`` projection; each cluster folds with
  chunked matmuls (bounded memory even for a degenerate cluster) under
  the shared hot-bucket cap (overflow rows are kept un-deduped and the
  skipped-pair count is logged — no silent drops);
- the keep/drop verdict table that comes back is O(corpus) narrow rows;
  filtering the full-width corpus is a broadcast id-set pass.

Duplicate-marking semantics match the released SemDeDup code: within a
cluster, rank members (``keep="min_id"``: ascending id;
``keep="far_from_centroid"``: ascending cosine-to-centroid — the paper
keeps the LOW-centroid-similarity representative — ties by id) and drop
a member iff its max cosine to ANY lower-ranked member >= ``eps``.  This
is the one-matmul triangular-max rule, not a transitive closure: in a
chain a~b~c with a!~c, both b and c drop (each has a hot lower-ranked
neighbour) even though c is not similar to the kept a.

Reference parity: generalizes the reference's duplicate-line collapse
idea (``src/file_parsing/filtered_file_reader.cpp`` keeps the first
match of a filter pass) from byte equality to embedding-space equality.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from logray.functions.ann import _unit
from logray.functions.cluster import kmeans_assign, kmeans_fit
from logray.functions.dedup import DEFAULT_MAX_BUCKET, _broadcast_id_filter, _cap_bucket

__all__ = ["semdedup_verdicts", "semdedup_keep"]


def _finite_rows(m: np.ndarray) -> np.ndarray:
    """Zero out rows with any non-finite component: a corrupt (NaN/inf)
    embedding behaves as a zero vector — cosine 0 with everything, so it
    is kept and, crucially, cannot poison the triangular max for the
    rest of its cluster (NaN propagates through ``max``)."""
    bad = ~np.isfinite(m).all(axis=1)
    if bad.any():
        m = m.copy()
        m[bad] = 0.0
    return m


def _cluster_verdict_fn(id_col: str, emb_col: str, eps: float, keep: str,
                        centroids: np.ndarray, max_cluster: int):
    cent_unit = _unit(_finite_rows(np.asarray(centroids, np.float64)))

    def verdict(g: pd.DataFrame) -> pd.DataFrame:
        ids = g[id_col].to_numpy()
        emb = _finite_rows(np.stack(g[emb_col].to_numpy()).astype(np.float64))
        c = int(g["cluster"].iloc[0])
        # Canonicalize row order BEFORE any float kernel: group membership
        # is deterministic (bit-deterministic fit + integer assignment)
        # but arrival order is not, and BLAS results can shift by ulps
        # with row order.  Sorting by id first makes the GEMV input — and
        # therefore the ranking — identical under any partitioning.
        base = np.argsort(ids, kind="stable")
        ids, emb = ids[base], emb[base]
        if keep == "far_from_centroid":
            cent_sim = _unit(emb) @ cent_unit[c]
            order = np.lexsort((ids, cent_sim))  # atypical first, id ties
            ids, emb = ids[order], emb[order]
        sel = _cap_bucket(ids, max_cluster, "semdedup")
        head = len(ids[sel])
        u = _unit(emb[:head])
        kept = np.ones(len(ids), bool)  # overflow tail stays kept
        max_sim = np.zeros(len(ids), np.float64)
        chunk = 1024
        for s in range(1, head, chunk):
            e = min(s + chunk, head)
            sim = u[s:e] @ u[:e].T  # rows s..e vs ALL lower-or-equal ranks
            cols = np.arange(e)
            sim[cols[None, :] >= np.arange(s, e)[:, None]] = -np.inf
            best = sim.max(axis=1)
            max_sim[s:e] = np.where(np.isfinite(best), best, 0.0)
            kept[s:e] = max_sim[s:e] < eps
        return pd.DataFrame({
            id_col: ids,
            "cluster": np.full(len(ids), c, np.int64),
            "kept": kept,
            "max_sim": max_sim,
        })

    return verdict


def semdedup_verdicts(ds, k: int = 16, emb_col: str = "embedding",
                      id_col: str = "vec_id", eps: float = 0.95,
                      keep: str = "min_id", iters: int = 8, seed: int = 17,
                      max_cluster: int = DEFAULT_MAX_BUCKET,
                      centroids: np.ndarray | None = None):
    """Per-item SemDeDup verdict table ``(id, cluster, kept, max_sim)``.

    ``max_sim`` is the item's highest cosine to a lower-ranked member of
    its cluster (0 for each cluster's top-ranked member); ``kept`` is
    ``max_sim < eps``.  Pass precomputed ``centroids`` to skip the fit
    (e.g. reuse one fit across eps sweeps).  Deterministic for a given
    (k, iters, seed, keep): the fit is bit-deterministic, per-cluster
    rows are id-sorted before any float kernel runs, and the ranking
    breaks every tie by id.  Rows with a non-finite embedding component
    are treated as zero vectors (kept, never similar to anything)."""
    if keep not in ("min_id", "far_from_centroid"):
        raise ValueError(f"unknown keep policy {keep!r}")
    narrow = ds.select_columns([id_col, emb_col])
    if centroids is None:
        centroids, _ = kmeans_fit(narrow, k, emb_col=emb_col, id_col=id_col,
                                  iters=iters, seed=seed)
    tagged = kmeans_assign(narrow, centroids, emb_col=emb_col)
    fn = _cluster_verdict_fn(id_col, emb_col, eps, keep, centroids,
                             max_cluster)
    return tagged.groupby("cluster").map_groups(fn, batch_format="pandas")


def semdedup_keep(ds, k: int = 16, emb_col: str = "embedding",
                  id_col: str = "vec_id", eps: float = 0.95,
                  keep: str = "min_id", iters: int = 8, seed: int = 17,
                  max_cluster: int = DEFAULT_MAX_BUCKET):
    """The full-width corpus with SemDeDup duplicates removed.

    The drop list (ids with ``kept == False``) is collected on the driver
    — it is the duplicate fraction of the corpus, orders of magnitude
    smaller than the corpus itself for real eps — and broadcast once via
    ``ray.put`` into a vectorized ``is_in`` filter pass."""
    import ray

    verdicts = semdedup_verdicts(ds, k, emb_col, id_col, eps, keep, iters,
                                 seed, max_cluster)
    drop_df = (verdicts.filter(expr="kept == False")
               .select_columns([id_col]).to_pandas())
    drop_ids = (pa.array(drop_df[id_col].to_numpy()) if len(drop_df)
                else pa.array([], pa.int64()))
    return _broadcast_id_filter(ds, ray.put(drop_ids), id_col,
                                keep_members=False)
