"""Collocation (phrase) mining and lexical-diversity statistics.

Two corpus-vocabulary operators every training-data pipeline runs before
tokenizer/vocab decisions:

- :func:`collocation_counts` / :func:`pmi_collocations` — adjacent-bigram
  census with PMI scoring (the word2vec phrase-detection recipe, Mikolov
  et al. 2013 §4): find token pairs that co-occur far more often than
  independence predicts ("new york", "machine learning") so they can be
  joined into single vocabulary units.
- :func:`lexical_diversity` — per-source type/token/hapax counts and
  type-token ratio, the classic lexical-richness quality signal (a source
  whose TTR collapses is boilerplate or spam).

Tokenization matches SQL ``string_split(text, ' ')`` exactly (single-space
split, empty tokens kept) so every integer column has a DuckDB twin.

Scale shape: per-batch Arrow ``group_by`` census partials (Zipf makes the
partial tiny relative to the token stream), ONE ``hash % B`` bucket shuffle
of the narrow (key, n) census — the canonical word-count exchange, on int
bucket keys so the exchange never sorts strings — then driver-side assembly
bounded by ``n_top`` (collocations) or the source cardinality (diversity).
The token stream itself never shuffles.

Reference anchor: the per-field histogram bookkeeping the viewer keeps for
filtered columns (`/root/reference/src/file_parsing/log_parser_interface.cpp`
min/max + count tracking) generalized to corpus vocabulary statistics.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def _census_partial(text_col: str, lower: bool):
    """Per-batch partial: one (key, n) census row per distinct unigram and
    adjacent bigram in the batch.  Bigram keys are ``a + ' ' + b`` — tokens
    are split on ' ' so they never contain one; the two key spaces cannot
    collide."""

    def part(t: pa.Table) -> pa.Table:
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if lower:
            col = pc.ascii_lower(col)
        lists = pc.split_pattern(col, pattern=" ")
        flat = pc.list_flatten(lists)
        parent = pc.list_parent_indices(lists)
        n = len(flat)
        keys = [flat]
        if n >= 2:
            par = parent.to_numpy(zero_copy_only=False)
            same = pa.array(par[:-1] == par[1:])
            a = pc.filter(flat.slice(0, n - 1), same)
            b = pc.filter(flat.slice(1, n - 1), same)
            keys.append(pc.binary_join_element_wise(a, b, " "))
        combined = pa.concat_arrays(
            [k.combine_chunks() if isinstance(k, pa.ChunkedArray) else k for k in keys]
        )
        census = (
            pa.table({"key": combined})
            .group_by("key")
            .aggregate([("key", "count")])
        )
        return pa.table(
            {"key": census["key"], "n": pc.cast(census["key_count"], pa.int64())}
        )

    return part


def collocation_counts(ds, text_col: str = "text", min_count: int = 2,
                       n_top: int = 100, lower: bool = False):
    """Integer PMI ingredients for the strongest adjacent bigrams.

    Returns a pyarrow Table with columns ``a, b, c_ab, c_a, c_b,
    n_bigrams`` — the top ``n_top`` bigrams with ``c_ab >= min_count``,
    ordered by (c_ab DESC, a, b).  All columns are int64/string so the
    result is bit-comparable to the DuckDB twin; PMI itself (a
    transcendental) is layered on in :func:`pmi_collocations`.

    Plan: census partials -> ONE ``hash(key) % B`` bucket shuffle with a
    vectorized Arrow group-sum per bucket (int bucket keys; a string-key
    ``groupby`` sorts the whole vocabulary and measured ~6x slower) ->
    per-block local top-n prune + driver merge for the survivors ->
    broadcast the <= 2*n_top needed unigram keys and fetch their counts
    with a pruned ``is_in`` pass.  Nothing wider than the vocabulary
    census ever moves.
    """
    from logray.stages.bucketing import grouped_apply

    def fold(t: pa.Table) -> pa.Table:
        g = t.group_by("key").aggregate([("n", "sum")])
        return pa.table({"key": g["key"], "n": g["n_sum"]})

    # census fold: ONE hash%B int-key shuffle (a string-key groupby sorts
    # the whole vocab and measured ~6x slower) + a vectorized Arrow
    # group-sum per bucket; grouped_apply is the shared exchange every
    # bucketed operator uses
    census = grouped_apply(
        ds.map_batches(_census_partial(text_col, lower),
                       batch_format="pyarrow", zero_copy_batch=True),
        "key", fold, num_buckets=32, batch_format="pyarrow").materialize()

    is_bigram = lambda t: pc.match_substring(t["key"], " ")  # noqa: E731

    def _split_ab(t: pa.Table) -> pa.Table:
        # the (n DESC, a, b) order must compare a and b SEPARATELY: the
        # concatenated "a b" key orders tabs/newlines before the joining
        # space and would diverge from SQL's ORDER BY a, b on ties
        parts = pc.split_pattern(t["key"], pattern=" ", max_splits=1)
        return pa.table({
            "a": pc.list_element(parts, 0),
            "b": pc.list_element(parts, 1),
            "n": t["n"],
        })

    _ORDER = [("n", "descending"), ("a", "ascending"), ("b", "ascending")]

    def local_top(t: pa.Table) -> pa.Table:
        t = t.filter(is_bigram(t))
        t = t.filter(pc.greater_equal(t["n"], min_count))
        return _split_ab(t).sort_by(_ORDER).slice(0, n_top)

    blocks = census.map_batches(local_top, batch_format="pyarrow").take_all()
    if blocks:
        merged = pa.Table.from_pylist(blocks)
        merged = merged.sort_by(_ORDER).slice(0, n_top)
    else:
        merged = pa.table({"a": pa.array([], pa.string()),
                           "b": pa.array([], pa.string()),
                           "n": pa.array([], pa.int64())})

    n_bigrams = census.map_batches(
        lambda t: pa.table(
            {"s": pa.array([pc.sum(pc.if_else(is_bigram(t), t["n"], 0)).as_py() or 0],
                           pa.int64())}
        ),
        batch_format="pyarrow",
    ).sum("s")

    ab = list(zip(merged["a"].to_pylist(), merged["b"].to_pylist()))
    needed = sorted({tok for pair in ab for tok in pair})
    if needed:
        need_set = pa.array(needed, pa.string())
        uni = census.map_batches(
            lambda t: t.filter(
                pc.and_(pc.invert(is_bigram(t)), pc.is_in(t["key"], value_set=need_set))
            ),
            batch_format="pyarrow",
        ).take_all()
        ucount = {r["key"]: r["n"] for r in uni}
    else:
        ucount = {}

    c_ab = merged["n"].to_pylist()
    return pa.table({
        "a": pa.array([p[0] for p in ab], pa.string()),
        "b": pa.array([p[1] for p in ab], pa.string()),
        "c_ab": pa.array(c_ab, pa.int64()),
        "c_a": pa.array([ucount[p[0]] for p in ab], pa.int64()),
        "c_b": pa.array([ucount[p[1]] for p in ab], pa.int64()),
        "n_bigrams": pa.array([int(n_bigrams or 0)] * len(ab), pa.int64()),
    })


def pmi_collocations(ds, text_col: str = "text", min_count: int = 2,
                     n_top: int = 100, lower: bool = False):
    """:func:`collocation_counts` plus the float ``pmi`` column:
    ``ln(c_ab * N / (c_a * c_b))``, computed on the driver over the
    bounded result (math.log per surviving pair — the exact-integer
    ingredients are the distributed part)."""
    t = collocation_counts(ds, text_col, min_count=min_count, n_top=n_top,
                           lower=lower)
    c_ab = t["c_ab"].to_pylist()
    c_a = t["c_a"].to_pylist()
    c_b = t["c_b"].to_pylist()
    nb = t["n_bigrams"].to_pylist()
    pmi = [math.log((cab * n) / (ca * cb))
           for cab, ca, cb, n in zip(c_ab, c_a, c_b, nb)]
    return t.append_column("pmi", pa.array(pmi, pa.float64()))


def collocation_counts_sql(table: str, text_col: str = "text",
                           min_count: int = 2, n_top: int = 100) -> str:
    """DuckDB oracle for :func:`collocation_counts` (1-indexed list
    algebra; ``generate_series(1, 0)`` is empty so 1-token docs emit no
    bigram)."""
    return f"""
        WITH toks AS (SELECT string_split({text_col}, ' ') AS ts FROM {table}),
        ucnt AS (
            SELECT token, count(*) AS c
            FROM (SELECT unnest(ts) AS token FROM toks) GROUP BY token
        ),
        bi AS (
            SELECT ts[g] AS a, ts[g + 1] AS b
            FROM (SELECT ts, unnest(generate_series(1, len(ts) - 1)) AS g FROM toks)
        ),
        bcnt AS (SELECT a, b, count(*) AS c_ab FROM bi GROUP BY a, b),
        nb AS (SELECT count(*) AS n_bigrams FROM bi),
        top AS (
            SELECT a, b, c_ab FROM bcnt WHERE c_ab >= {min_count}
            ORDER BY c_ab DESC, a, b LIMIT {n_top}
        )
        SELECT t.a, t.b, t.c_ab, ua.c AS c_a, ub.c AS c_b, nb.n_bigrams
        FROM top t
        CROSS JOIN nb
        JOIN ucnt ua ON ua.token = t.a
        JOIN ucnt ub ON ub.token = t.b
        ORDER BY t.c_ab DESC, t.a, t.b
    """


def lexical_diversity(ds, text_col: str = "text", key_col: str = "source"):
    """Per-``key_col`` lexical richness: total tokens, distinct tokens
    (types), hapax legomena (tokens seen exactly once in that source) and
    the type-token ratio.

    Plan: per-batch (key, token, n) Arrow census partials -> ONE
    ``hash(token) % B`` bucket shuffle of the narrow census (every
    (key, token) group is whole within its bucket, so each bucket folds
    straight to exact (key, tokens, types, hapax) partials) -> tiny
    driver fold (rows bounded by key cardinality x buckets).  ``ttr`` is
    a single IEEE-754 division of two exact int64 counts, so it is
    bit-identical to the SQL twin.

    Returns a pandas DataFrame ordered by key.
    """

    def part(t: pa.Table) -> pa.Table:
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        lists = pc.split_pattern(col, pattern=" ")
        flat = pc.list_flatten(lists)
        parent = pc.list_parent_indices(lists)
        keys = pc.take(t[key_col], parent)
        census = (
            pa.table({key_col: keys, "token": flat})
            .group_by([key_col, "token"])
            .aggregate([("token", "count")])
        )
        return pa.table({
            key_col: census[key_col],
            "token": census["token"],
            "n": pc.cast(census["token_count"], pa.int64()),
        })

    from logray.stages.bucketing import grouped_apply

    def bucket_fold(t: pa.Table) -> pa.Table:
        # bucket = hash(token): every (key, token) group is whole within
        # one bucket, so the counts — and therefore types/hapax — are
        # exact; the per-key partials then fold additively across buckets
        # (disjoint token sets)
        tc = t.group_by([key_col, "token"]).aggregate([("n", "sum")])
        n = tc["n_sum"]
        g = (
            pa.table({
                key_col: tc[key_col],
                "n": n,
                "one": pa.array(np.ones(len(n), np.int64)),
                "hap": pc.cast(pc.equal(n, 1), pa.int64()),
            })
            .group_by(key_col)
            .aggregate([("n", "sum"), ("one", "sum"), ("hap", "sum")])
        )
        return pa.table({
            key_col: g[key_col],
            "n_tokens": g["n_sum"],
            "n_types": g["one_sum"],
            "n_hapax": g["hap_sum"],
        })

    parts = grouped_apply(
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True),
        "token", bucket_fold, num_buckets=32, batch_format="pyarrow",
    ).take_all()
    import pandas as pd

    df = pd.DataFrame(parts, columns=[key_col, "n_tokens", "n_types", "n_hapax"])
    # dropna=False: a null key is a real GROUP BY group in the SQL twin
    out = df.groupby(key_col, sort=True, as_index=False, dropna=False).sum()
    out["ttr"] = out["n_types"].to_numpy(np.float64) / out["n_tokens"].to_numpy(np.float64)
    return out


def lexical_diversity_sql(table: str, text_col: str = "text",
                          key_col: str = "source") -> str:
    """DuckDB oracle for :func:`lexical_diversity`."""
    return f"""
        WITH tok AS (
            SELECT {key_col}, unnest(string_split({text_col}, ' ')) AS token
            FROM {table}
        ),
        tc AS (SELECT {key_col}, token, count(*) AS c FROM tok GROUP BY 1, 2)
        SELECT {key_col},
               sum(c)::BIGINT AS n_tokens,
               count(*)::BIGINT AS n_types,
               sum(CASE WHEN c = 1 THEN 1 ELSE 0 END)::BIGINT AS n_hapax,
               (count(*)::DOUBLE) / (sum(c)::DOUBLE) AS ttr
        FROM tc GROUP BY {key_col} ORDER BY {key_col}
    """
