"""BM25 full-text search over a document corpus (Robertson/Sparck-Jones
Okapi BM25), Ray-Data-first.

The key scale observation: only the QUERY terms' document frequencies
matter, never the full vocabulary.  So the engine does two streaming
passes over the corpus and never builds a global inverted index:

1. :func:`corpus_stats` — one partial pass collecting N (docs), total
   token count (-> avgdl) and df per query term.  The per-batch partial
   is a handful of longs; the fold is a driver stream-fold.
2. :func:`bm25_topk` — a scoring pass: each batch computes its docs'
   term-frequency matrix for the tiny query vocabulary (Arrow tokenize +
   one bincount), scores all queries with one matmul against the query
   mask, emits its per-query top-k, and a distributed tree-reduce layer
   collapses per-batch winners before the driver merge (same shape as
   functions/ann.py:_reduced_topk).

Tokenization contract (shared with any SQL twin): lowercase, terms =
maximal ``[a-z0-9]+`` runs.  Scores are float64; ranking ties break by
ascending doc id.  idf = ln((N - df + 0.5)/(df + 0.5) + 1) (the
Lucene-style always-positive variant).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

TOKEN_SPLIT = r"[^a-z0-9]+"


def tokenize_terms(text: str) -> list[str]:
    """The shared query/document tokenizer (driver-side, for queries)."""
    import re

    return [w for w in re.split(TOKEN_SPLIT, text.lower()) if w]


def _doc_tokens(t: pa.Table, col: str):
    """(parent_indices, flat lowercase alnum tokens) for one batch."""
    toks = pc.split_pattern_regex(pc.utf8_lower(t[col]), TOKEN_SPLIT)
    if isinstance(toks, pa.ChunkedArray):
        toks = toks.combine_chunks()
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False).astype(np.int64)
    flat = pc.list_flatten(toks)
    keep = pc.utf8_length(flat).to_numpy(zero_copy_only=False) > 0
    return parent[keep], flat.filter(pa.array(keep))


def corpus_stats(ds, terms: list[str], col: str = "text") -> dict:
    """One streaming pass -> {"n_docs", "avgdl", "df": np.ndarray aligned
    with ``terms``}."""
    term_arr = pa.array(sorted(set(terms)))
    order = {t: i for i, t in enumerate(term_arr.to_pylist())}
    nt = len(term_arr)

    def partial(t: pa.Table) -> pa.Table:
        parent, flat = _doc_tokens(t, col)
        idx = pc.index_in(flat, value_set=term_arr).to_numpy(zero_copy_only=False)
        hit = ~pd.isna(idx)
        df = np.zeros(nt, np.int64)
        if hit.any():
            pairs = np.unique(parent[hit] * nt + idx[hit].astype(np.int64))
            df = np.bincount(pairs % nt, minlength=nt).astype(np.int64)
        return pa.table({
            "term_idx": pa.array(np.arange(-1, nt, dtype=np.int64)),
            "v": pa.array(np.concatenate([[t.num_rows], df])),
            "v2": pa.array(np.concatenate([[len(parent)], np.zeros(nt, np.int64)])),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None)
    from logray.stages.bucketing import stream_fold

    def fold(tables: list[pa.Table]) -> pa.Table:
        g = pa.concat_tables(tables).group_by(["term_idx"]).aggregate(
            [("v", "sum"), ("v2", "sum")])
        return g.rename_columns(["term_idx", "v", "v2"])

    f = stream_fold(parts, fold)
    if f is None:
        return {"n_docs": 0, "avgdl": 0.0, "df": np.zeros(nt, np.int64),
                "order": order}
    fd = f.to_pandas().set_index("term_idx")
    n_docs = int(fd.loc[-1, "v"])
    n_tokens = int(fd.loc[-1, "v2"])
    df = np.zeros(nt, np.int64)
    present = fd.index[fd.index >= 0].to_numpy()
    df[present] = fd.loc[present, "v"].to_numpy()
    return {"n_docs": n_docs,
            "avgdl": (n_tokens / n_docs) if n_docs else 0.0,
            "df": df, "order": order}


def _merge(parts: list[pd.DataFrame], k: int) -> pd.DataFrame:
    parts = [p for p in parts if not p.empty and "query_id" in p.columns]
    if not parts:
        return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                             "doc_id": pd.Series([], dtype="int64"),
                             "score": pd.Series([], dtype="float64"),
                             "rank": pd.Series([], dtype="int64")})
    df = pd.concat(parts, ignore_index=True)
    df = df.sort_values(["query_id", "score", "doc_id"],
                        ascending=[True, False, True], kind="mergesort")
    df = df.groupby("query_id", sort=True).head(k).reset_index(drop=True)
    df["rank"] = df.groupby("query_id").cumcount().astype("int64")
    return df


def bm25_topk(ds, queries, k: int = 10, col: str = "text",
              id_col: str = "doc_id", k1: float = 1.5, b: float = 0.75,
              stats: dict | None = None, coalesce_rows: int = 1 << 20):
    """Top-k documents per query by BM25.  ``queries`` = list of
    (query_id, query_text).  Two streaming passes (stats + scoring) with
    a tree-reduce winner merge; pass a precomputed ``stats`` (from
    :func:`corpus_stats` over the same corpus/terms) to reuse pass 1
    across query batches.  The query-term array, idf weights and query
    mask are built once on the driver and ``ray.put``; each scoring
    task reads them zero-copy."""
    import ray

    q_terms = [tokenize_terms(q) for _, q in queries]
    vocab = sorted({t for ts in q_terms for t in ts})
    if stats is None:
        stats = corpus_stats(ds, vocab, col)
    order = stats["order"]
    nt = len(order)
    n, df = stats["n_docs"], stats["df"]
    idf = np.log((n - df + 0.5) / (df + 0.5) + 1.0)
    qmask = np.zeros((len(queries), nt), np.float64)
    for qi, ts in enumerate(q_terms):
        for t in set(ts):
            if t in order:
                qmask[qi, order[t]] = 1.0
    qids = [int(qid) for qid, _ in queries]
    avgdl = stats["avgdl"]
    state = ray.put((pa.array(sorted(order, key=order.get), pa.string()),
                     idf, qmask))

    def score(t: pa.Table) -> pd.DataFrame:
        terms, idf, qmask = ray.get(state)
        nd = t.num_rows
        ntq = len(terms)
        parent, flat = _doc_tokens(t, col)
        dl = np.bincount(parent, minlength=nd).astype(np.float64)
        idx = pc.index_in(flat, value_set=terms).to_numpy(zero_copy_only=False)
        hit = ~pd.isna(idx)
        tf = np.zeros((nd, ntq), np.float64)
        if hit.any():
            flatk = parent[hit] * ntq + idx[hit].astype(np.int64)
            counts = np.bincount(flatk, minlength=nd * ntq)
            tf = counts.reshape(nd, ntq).astype(np.float64)
        kk = k1 * (1.0 - b + b * dl / avgdl) if avgdl else np.full(nd, k1)
        with np.errstate(invalid="ignore", divide="ignore"):
            contrib = idf * (tf * (k1 + 1.0)) / (tf + kk[:, None])
        contrib = np.nan_to_num(contrib)
        scores = contrib @ qmask.T            # (nd, nq)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        kq = min(k, nd)
        rows = {"query_id": [], "doc_id": [], "score": []}
        for qi in range(scores.shape[1]):
            s = scores[:, qi]
            sel = np.argpartition(-s, kq - 1)[:kq] if kq < nd else np.arange(nd)
            rows["query_id"].extend([qids[qi]] * len(sel))
            rows["doc_id"].extend(ids[sel].tolist())
            rows["score"].extend(s[sel].tolist())
        return pd.DataFrame({
            "query_id": pd.Series(rows["query_id"], dtype="int64"),
            "doc_id": pd.Series(rows["doc_id"], dtype="int64"),
            "score": pd.Series(rows["score"], dtype="float64"),
        })

    scored = ds.map_batches(score, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)

    def reduce_partial(d: pd.DataFrame) -> pd.DataFrame:
        if d.empty or "query_id" not in d.columns:
            return pd.DataFrame({"query_id": pd.Series([], dtype="int64"),
                                 "doc_id": pd.Series([], dtype="int64"),
                                 "score": pd.Series([], dtype="float64")})
        d = d.sort_values(["query_id", "score", "doc_id"],
                          ascending=[True, False, True], kind="mergesort")
        return d.groupby("query_id", sort=True).head(k)

    reduced = scored.map_batches(reduce_partial, batch_format="pandas",
                                 batch_size=coalesce_rows)
    parts = [pd.DataFrame(b) for b in reduced.iter_batches(batch_format="pandas")]
    return _merge(parts, k)


# --- persistent inverted index (build once, query many) -----------------
#
# bm25_topk re-scans the corpus per query batch — right for ad-hoc
# queries, wrong for a search service over a frozen 100 TB corpus.  The
# index is the postings list (term, doc_id, tf, dl) hive-sharded by
# ``__s = content_hash(term) % num_shards``, so EVERY posting of a term
# lives in exactly one shard directory and a query touches only its own
# terms' shards (path-level pruning, same scheme as the dedup /
# band / IVF indexes).  dl is denormalized onto each posting so scoring
# needs no doc-length join; corpus stats (N docs, total tokens) ride as
# one tiny ``term=""`` row per BUILD BATCH in the "" shard ("" can never
# be a real token — terms are maximal [a-z0-9]+ runs).  Appending new
# docs into the same directory is additive (same contract as the dedup
# index: appending the SAME doc twice is the caller's dedup problem and
# would double-count its tf).
#
# Scoring from the index is exact BM25: postings are unique per
# (term, doc), so per-doc scores are plain SUMS of per-posting
# contributions — a narrow 3-column groupby over the query terms'
# postings only, never the corpus.

_STATS_TERM = ""


def _bm25_index_params(num_shards: int, col: str, id_col: str) -> dict:
    return {"kind": "bm25_inverted_index", "num_shards": num_shards,
            "col": col, "id_col": id_col, "tokenizer": TOKEN_SPLIT}


def _term_shards(terms, num_shards: int) -> np.ndarray:
    from logray.functions.fingerprint import content_hash

    arr = terms if isinstance(terms, (pa.Array, pa.ChunkedArray)) \
        else pa.array(list(terms), pa.string())
    return (content_hash(arr) % np.uint64(num_shards)).astype(np.int64)


def _postings_fn(col: str, id_col: str, num_shards: int):
    """The per-batch postings transform shared by the one-shot and
    resumable index builders."""

    def part(t: pa.Table) -> pa.Table:
        nd = t.num_rows
        parent, flat = _doc_tokens(t, col)
        dl_doc = np.bincount(parent, minlength=nd).astype(np.int64)
        d = flat.dictionary_encode()
        if isinstance(d, pa.ChunkedArray):
            d = d.combine_chunks()
        nu = len(d.dictionary)
        if nu:
            codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
            key = parent * nu + codes
            uk, tf = np.unique(key, return_counts=True)
            terms = d.dictionary.take(pa.array(uk % nu))
            pdoc = uk // nu
            ids = t[id_col].to_numpy(zero_copy_only=False)[pdoc].astype(np.int64)
            dl = dl_doc[pdoc]
        else:
            terms = pa.array([], pa.string())
            ids = tf = dl = np.zeros(0, np.int64)
        # one stats row per batch: tf = docs in batch, dl = tokens
        terms = pa.concat_arrays([terms.cast(pa.string()),
                                  pa.array([_STATS_TERM], pa.string())])
        ids = np.concatenate([ids, [-1]])
        tf = np.concatenate([tf.astype(np.int64), [nd]])
        dl = np.concatenate([dl, [len(parent)]])
        return pa.table({
            "term": terms, "doc_id": pa.array(ids),
            "tf": pa.array(tf), "dl": pa.array(dl),
            "__s": pa.array(_term_shards(terms, num_shards)),
        })

    return part


def _fold_bm25_stats(out_dir: str, params: dict,
                     num_shards: int) -> None:
    """Fold the tiny per-batch stats rows (the ``""`` shard only) into
    the metadata sidecar — the sidecar's presence marks the index
    complete, so it writes LAST.  On append/resume the recount
    naturally includes prior builds' rows."""
    import pyarrow.parquet as pq

    from logray.functions.indexbase import shard_files, write_meta

    s0 = int(_term_shards([_STATS_TERM], num_shards)[0])
    n_docs = n_tokens = 0
    for f in shard_files(out_dir, "__s", s0):
        t = pq.read_table(f, columns=["term", "tf", "dl"])
        m = pc.equal(t["term"], _STATS_TERM)
        n_docs += pc.sum(pc.filter(t["tf"], m)).as_py() or 0
        n_tokens += pc.sum(pc.filter(t["dl"], m)).as_py() or 0
    write_meta(out_dir, {**params, "n_docs": int(n_docs),
                         "n_tokens": int(n_tokens)})


def build_text_index(ds, out_dir: str, col: str = "text",
                     id_col: str = "doc_id", num_shards: int = 64) -> None:
    """ONE streaming pass: per-batch unique (term, doc_id, tf, dl)
    postings written hive-partitioned by ``__s``; then the driver folds
    the tiny per-batch stats rows into the metadata sidecar.  Appending
    with identical parameters is additive; mismatches refuse."""
    import os

    from logray.functions.indexbase import META_NAME, read_meta

    params = _bm25_index_params(num_shards, col, id_col)
    if os.path.exists(os.path.join(out_dir, META_NAME)):
        existing = read_meta(out_dir, "bm25 inverted index")
        if {k: existing.get(k) for k in params} != params:
            raise ValueError(
                f"bm25 index {out_dir!r} was built with {existing}; "
                f"appending with {params} would mix incomparable postings")

    part = _postings_fn(col, id_col, num_shards)
    (ds.select_columns([col, id_col])
       .map_batches(part, batch_format="pyarrow", zero_copy_batch=True,
                    batch_size=None)
       .write_parquet(out_dir, partition_cols=["__s"]))
    _fold_bm25_stats(out_dir, params, num_shards)


def build_text_index_resumable(input_path: str, out_dir: str,
                               col: str = "text", id_col: str = "doc_id",
                               num_shards: int = 64, _fault=None) -> dict:
    """Resumable index build over a parquet corpus directory: one
    manifest-checkpointed partition per input file, each writing its
    postings hive-sharded under its own ``parts/<pid>/`` dir (the shard
    readers glob both layouts), metadata sidecar committed LAST so a
    killed build is visibly incomplete (:func:`bm25_search_index`
    refuses an index without the sidecar).  Re-invoking after a crash
    skips finished partitions; the finished index's search results are
    identical to a single-shot build (test-pinned).  The plan is pinned
    in ``run_config.json``; differing parameters refuse.

    ``_fault(phase, part_id)`` is a test-only crash-injection hook."""
    from logray.state.manifest import check_run_config, map_phase

    params = _bm25_index_params(num_shards, col, id_col)
    check_run_config(out_dir, {"op": "bm25_index_build", **params})
    part = _postings_fn(col, id_col, num_shards)
    metrics = map_phase(input_path, out_dir, lambda _pid: part,
                        phase="postings", col="__s", columns=[col, id_col],
                        _fault=_fault)
    _fold_bm25_stats(out_dir, params, num_shards)
    return metrics


def bm25_search_index(index_dir: str, queries, k: int = 10,
                      k1: float = 1.5, b: float = 0.75) -> pd.DataFrame:
    """Top-k per query from a persistent index: path-prune to the query
    terms' shards, one pruned-column pass for df, one pruned pass
    emitting per-batch-COMBINED (query_id, doc_id, s) partials, one
    ``hash(doc_id) % num_buckets`` exchange with a per-bucket top-k
    fold, driver merge.  Only docs containing >= 1 query term can
    appear (docs scoring 0 are not fabricated).  Same ranking contract
    as :func:`bm25_topk`: score desc, doc_id asc.

    Scale shape: a doc's postings for different query terms live in
    different term-hashed shards by construction, so partial scores
    MUST meet once — but through the repo's bucketed census exchange,
    not a full sort-aggregate.  The first cut used
    ``ds.groupby([query_id, doc_id]).sum()`` over the raw contrib rows;
    at a 14M-doc index with corpus-dense query terms that is a
    pull-based sort shuffle over thousands of input blocks (task count
    quadratic in block count — measured 50+ min, effectively hung,
    where this plan takes seconds).  Reads also pin
    ``override_num_blocks`` so a many-part shard layout (64 shards x
    64 parts) cannot explode the task count."""
    import ray.data as rd

    from logray.functions.indexbase import read_meta, shard_files
    from logray.stages.bucketing import grouped_apply, stream_fold

    meta = read_meta(index_dir, "bm25 inverted index")
    ns, n_corpus = meta["num_shards"], meta["n_docs"]
    avgdl = (meta["n_tokens"] / n_corpus) if n_corpus else 0.0

    q_terms = [tokenize_terms(q) for _, q in queries]
    vocab = sorted({t for ts in q_terms for t in ts})
    files = sorted({f for s in set(_term_shards(vocab, ns).tolist())
                    for f in shard_files(index_dir, "__s", s)}) if vocab else []
    if not files:
        return _merge([], k)
    vocab_arr = pa.array(vocab, pa.string())
    nt = len(vocab)

    def df_part(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["term"], value_set=vocab_arr)
        idx = idx.to_numpy(zero_copy_only=False)
        hit = ~pd.isna(idx)
        return pa.table({"c": pa.array(np.bincount(
            idx[hit].astype(np.int64), minlength=nt).astype(np.int64))})

    def df_fold(ts: list[pa.Table]) -> pa.Table:
        tot = np.zeros(nt, np.int64)
        for x in ts:
            tot += x["c"].to_numpy(zero_copy_only=False) \
                         .reshape(-1, nt).sum(axis=0)
        return pa.table({"c": pa.array(tot)})

    nblocks = max(1, min(len(files), 256))
    folded = stream_fold(
        rd.read_parquet(files, columns=["term"],
                        override_num_blocks=nblocks)
          .map_batches(df_part, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        df_fold)
    df = folded["c"].to_numpy(zero_copy_only=False) if folded is not None \
        else np.zeros(nt, np.int64)
    idf = np.log((n_corpus - df + 0.5) / (df + 0.5) + 1.0)
    qsets = [{t for t in ts} for ts in q_terms]
    qids = [int(qid) for qid, _ in queries]
    qmask = np.zeros((len(queries), nt), bool)
    order = {t: i for i, t in enumerate(vocab)}
    for qi, ts in enumerate(qsets):
        for t in ts:
            qmask[qi, order[t]] = True

    def contrib(t: pa.Table) -> pa.Table:
        idx = pc.index_in(t["term"], value_set=vocab_arr) \
                .to_numpy(zero_copy_only=False)
        hit = ~pd.isna(idx)
        idx = idx[hit].astype(np.int64)
        tf = t["tf"].to_numpy(zero_copy_only=False)[hit].astype(np.float64)
        dl = t["dl"].to_numpy(zero_copy_only=False)[hit].astype(np.float64)
        ids = t["doc_id"].to_numpy(zero_copy_only=False)[hit]
        kk = k1 * (1.0 - b + b * dl / avgdl) if avgdl else \
            np.full(len(dl), k1)
        s = idf[idx] * (tf * (k1 + 1.0)) / (tf + kk)
        qp, dp, sp = [], [], []
        for qi in range(len(qids)):
            m = qmask[qi, idx]
            qp.append(np.full(int(m.sum()), qids[qi], np.int64))
            dp.append(ids[m].astype(np.int64))
            sp.append(s[m])
        tb = pa.table({
            "query_id": pa.array(np.concatenate(qp) if qp
                                 else np.array([], np.int64)),
            "doc_id": pa.array(np.concatenate(dp) if dp
                               else np.array([], np.int64)),
            "s": pa.array(np.concatenate(sp) if sp
                          else np.array([], np.float64))})
        # combine within the batch: one shard file carries many query
        # terms, so a doc appears up to |terms-in-shard| times per query
        g = tb.group_by(["query_id", "doc_id"]).aggregate([("s", "sum")])
        return g.rename_columns(["query_id", "doc_id", "s"])

    partials = rd.read_parquet(files, columns=["term", "doc_id", "tf", "dl"],
                               override_num_blocks=nblocks) \
                 .map_batches(contrib, batch_format="pyarrow",
                              zero_copy_batch=True, batch_size=None)

    def localtop(g: pa.Table) -> pa.Table:
        agg = g.group_by(["query_id", "doc_id"]).aggregate([("s", "sum")])
        agg = agg.rename_columns(["query_id", "doc_id", "score"])
        order_ix = pc.sort_indices(agg, sort_keys=[
            ("query_id", "ascending"), ("score", "descending"),
            ("doc_id", "ascending")])
        srt = agg.take(order_ix)
        q = srt["query_id"].to_numpy(zero_copy_only=False)
        m = len(q)
        if m == 0:
            return pa.schema([("query_id", pa.int64()),
                              ("doc_id", pa.int64()),
                              ("score", pa.float64())]).empty_table()
        starts = np.flatnonzero(np.r_[True, q[1:] != q[:-1]])
        rank = (np.arange(m, dtype=np.int64)
                - np.repeat(starts, np.diff(np.r_[starts, m])) + 1)
        return srt.filter(pa.array(rank <= k))

    reduced = grouped_apply(partials, "doc_id", localtop,
                            num_buckets=32, batch_format="pyarrow")
    parts = [pd.DataFrame(x)
             for x in reduced.iter_batches(batch_format="pandas")]
    return _merge(parts, k)
