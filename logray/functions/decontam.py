"""Benchmark decontamination: flag training documents that share any
word n-gram with an evaluation/benchmark corpus.

The standard LLM-pipeline shape (GPT-3 appendix C / Llama style): the
eval side is tiny next to the training corpus, so its n-gram set is
built once as a sorted uint64 array, broadcast via ``ray.put``, and
every training batch reads it zero-copy inside a plain fused task and
does one vectorized membership probe against it — no shuffle, no join,
no actor pool; the training table streams through one
embarrassingly-parallel operator.

Normalization contract (shared by both sides and the SQL twin):
lowercase, words = maximal ``\\S+`` runs, n-grams = n consecutive words
within a document joined by a single space.  Membership is tested on
64-bit joint hashes (``pd.util.hash_array`` on the word strings, fixed
key, process-independent) — a false positive needs a 64-bit collision;
the exact-SQL oracle in __ray_entry__ ``decontaminate`` would surface
one.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logray.stages.bucketing import isin_sorted

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _word_hashes(t: pa.Table, col: str):
    """(parent_indices, word_hash_uint64) for lowercased \\S+ words."""
    toks = pc.split_pattern_regex(pc.utf8_lower(t[col]), r"\s+")
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
    parent = parent[keep]
    flat = flat.filter(pa.array(keep))
    h = pd.util.hash_array(flat.to_numpy(zero_copy_only=False)).astype(np.uint64)
    return parent, h


def _gram_hashes(parent: np.ndarray, h: np.ndarray, n: int):
    """(gram_parent, joint_hash) for every n-consecutive-word window that
    stays inside one document."""
    ln = len(h)
    if ln < n:
        return np.zeros(0, np.int64), np.zeros(0, np.uint64)
    g = h[: ln - n + 1].copy()
    for j in range(1, n):
        g = g * _MIX + h[j: ln - n + 1 + j]
    ok = parent[: ln - n + 1] == parent[n - 1:]
    return parent[: ln - n + 1][ok], g[ok]


def build_contamination_index(eval_ds, col: str = "text", n: int = 5) -> np.ndarray:
    """Distributed scan of the eval corpus -> SORTED unique uint64 gram
    hashes (the broadcastable index)."""

    def per_batch(t: pa.Table) -> pa.Table:
        p, h = _word_hashes(t, col)
        _, g = _gram_hashes(p, h, n)
        return pa.table({"h": pa.array(np.unique(g))})

    parts = eval_ds.map_batches(per_batch, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None)
    chunks = [b["h"].to_numpy(zero_copy_only=False)
              for b in parts.iter_batches(batch_size=None, batch_format="pyarrow")]
    if not chunks:
        return np.zeros(0, np.uint64)
    return np.unique(np.concatenate(chunks)).astype(np.uint64)


def flag_contaminated(train_ds, index, col: str = "text",
                      id_col: str = "doc_id", n: int = 5):
    """Append ``n_contaminated`` (gram positions hitting the eval index)
    and ``contaminated`` per training document.  ``index`` may be the
    sorted array or an ``ObjectRef`` from ``ray.put`` (preferred: put
    once, every task reads it zero-copy from the object store)."""
    import ray

    ref = index if isinstance(index, ray.ObjectRef) else ray.put(index)

    def probe(t: pa.Table) -> pa.Table:
        p, h = _word_hashes(t, col)
        gp, g = _gram_hashes(p, h, n)
        hits = np.bincount(gp[isin_sorted(g, ray.get(ref))],
                           minlength=t.num_rows).astype(np.int64)
        return pa.table({
            id_col: t[id_col],
            "n_contaminated": pa.array(hits),
            "contaminated": pa.array(hits > 0),
        })

    return train_ds.map_batches(probe, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None)


def drop_contaminated(train_ds, index, col: str = "text", n: int = 5):
    """Filter form of :func:`flag_contaminated`: keep only rows whose
    text hits ZERO eval-index grams, all input columns preserved — the
    shape a curation pipeline wants (one fused pass, no flag join).
    ``index`` may be the sorted uint64 array or a ``ray.put`` ref."""
    import ray

    ref = index if isinstance(index, ray.ObjectRef) else ray.put(index)

    def drop(t: pa.Table) -> pa.Table:
        idx = ray.get(ref)
        if not len(idx) or not t.num_rows:
            return t
        p, h = _word_hashes(t, col)
        gp, g = _gram_hashes(p, h, n)
        keep = np.ones(t.num_rows, bool)
        keep[np.unique(gp[isin_sorted(g, idx)])] = False
        return t.filter(pa.array(keep))

    return train_ds.map_batches(drop, batch_format="pyarrow",
                                zero_copy_batch=True, batch_size=None)


def decontaminate_sql(train_table: str, eval_table: str, n: int = 5,
                      col: str = "text", id_col: str = "doc_id") -> str:
    """DuckDB twin: string n-grams (lowercase, space-joined) on both
    sides, per-train-doc count of positions present in the eval set."""
    gram = " || ' ' || ".join(f"l[i + {j}]" for j in range(n))

    def grams_cte(table: str) -> str:
        return f"""
  SELECT {id_col}, {gram} AS gram FROM (
    SELECT {id_col}, l, unnest(generate_series(1, len(l) - {n - 1})) AS i
    FROM (
      SELECT {id_col},
             list_filter(regexp_split_to_array(lower({col}), '\\s+'),
                         x -> length(x) > 0) AS l
      FROM {table} AS src WHERE {col} IS NOT NULL
    )
  )"""

    return f"""
WITH train_grams AS ({grams_cte(train_table)}),
eval_grams AS (SELECT DISTINCT gram FROM ({grams_cte(eval_table)})),
hits AS (
  SELECT t.{id_col}, count(*) AS n_contaminated
  FROM train_grams t JOIN eval_grams e USING (gram)
  GROUP BY t.{id_col}
)
SELECT d.{id_col},
       CAST(COALESCE(h.n_contaminated, 0) AS BIGINT) AS n_contaminated,
       COALESCE(h.n_contaminated, 0) > 0 AS contaminated
FROM {train_table} AS d LEFT JOIN hits h USING ({id_col})
WHERE d.{col} IS NOT NULL
"""
