"""Deduplication operators: exact, MinHash-LSH, SimHash, n-gram Jaccard,
embedding-cosine.

Scale shapes (documented per operator):

- **exact**: content-hash each row in ``map_batches`` (vectorized FNV), then
  one bucket exchange on the hash keeping the min-id row per text.
  One shuffle of (hash, id, payload); collision-checked against text equality
  within the bucket.
- **MinHash-LSH**: shingle -> minhash signature per batch (numpy reduceat),
  explode to (band, band_hash, doc_id, signature) rows, exchange on the band
  key, emit candidate pairs per key run, verify by signature agreement — the
  classic Broder/LSH pipeline where the only wide op is the band exchange.
  Band rows carry the signature (num_perm*8 bytes) so verification needs no
  second join; at extreme scale swap to a bucketed signature join.
- **SimHash**: 64-bit fingerprint; bucket by 16-bit chunks (any pair within
  hamming distance <= 3 shares at least one of 4 chunks), verify popcount.
- **n-gram Jaccard**: exact char-n-gram set Jaccard for candidate pairs
  inside co-partitioned groups.
- **embedding**: random-hyperplane LSH buckets then exact cosine within
  buckets (numpy matmul per key run).

Every pair miner is a small scorer on one per-run driver
(:func:`_pair_runs`) and one capped, chunked pair kernel (:func:`_pair_kernel`).
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

logger = logging.getLogger("logray.dedup")

#: Hot-bucket guard: an LSH band bucket larger than this is truncated to its
#: ``max_bucket`` smallest ids before pair emission (boilerplate-heavy web
#: corpora routinely produce degenerate buckets of 1e5+ near-identical docs;
#: unguarded that is O(k^2) comparisons on ONE reducer).  Truncation only
#: degrades recall for the affected bucket — the dropped rows still collide
#: in their other bands — and every truncation is logged (no silent caps).
DEFAULT_MAX_BUCKET = 4096

from logray.functions.fingerprint import (
    band_hashes,
    content_hash,
    hamming64,
    minhash_signatures,
    simhash,
)
from logray.functions.vertexshard import ShardRun, VertexShard
from logray.stages.bucketing import (BUCKET_COL, bucket_exchange, grouped_apply,
                                     run_starts)

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                num_buckets: int = 64):
    """Keep the min-``id_col`` row of each distinct ``text_col`` value.

    Scale shape: (1) per-batch LOCAL pre-dedup before the shuffle (the
    combiner pattern — duplicate-heavy corpora then ship one candidate row
    per distinct text per batch); (2) shuffle on ``hash(content) %
    num_buckets`` and dedup each BUCKET with one vectorized
    ``drop_duplicates`` — co-located texts share a bucket, and the group
    count is ``num_buckets``, not the number of distinct texts (a
    per-distinct-text ``map_groups`` builds one pandas group per document
    at 1e8+ scale).  Exact text equality inside the bucket guards hash
    collisions.  Size ``num_buckets`` so corpus/num_buckets candidate rows
    fit one worker."""

    def add_hash_and_local_dedup(t: pa.Table) -> pa.Table:
        h = content_hash(t[text_col])
        t = t.append_column("__h", pa.array(h.astype(np.int64)))
        t = t.append_column(BUCKET_COL, pa.array(
            (h % np.uint64(num_buckets)).astype(np.int64)))
        # Arrow-native local pre-dedup: min id per (hash, text), then keep
        # those rows via is_in on the (unique) id — no pandas conversion of
        # the full-corpus text column in this hot map
        mins = t.group_by(["__h", text_col]).aggregate([(id_col, "min")])
        return t.filter(pc.is_in(t[id_col], value_set=mins[f"{id_col}_min"].combine_chunks()))

    def keep_first(g: pd.DataFrame) -> pd.DataFrame:
        # one whole bucket: vectorized global min-id per (hash, text)
        return g.sort_values(id_col, kind="mergesort").drop_duplicates(
            ["__h", text_col], keep="first"
        )

    out = bucket_exchange(
        ds.map_batches(add_hash_and_local_dedup, batch_format="pyarrow",
                       zero_copy_batch=True),
        keep_first)
    return out.drop_columns(["__h"])


# ---------------------------------------------------------------------------
# MinHash + LSH near-dedup
# ---------------------------------------------------------------------------


def _cap_bucket(n: int, max_bucket: int, what: str) -> int:
    """Hot-bucket guard: how many rows of a sorted bucket of ``n`` rows to
    keep (its ``max_bucket`` smallest ids), logging the dropped-pair count
    (no silent caps)."""
    if n <= max_bucket:
        return n
    dropped_pairs = n * (n - 1) // 2 - max_bucket * (max_bucket - 1) // 2
    logger.warning(
        "%s: hot bucket of %d rows capped to %d (up to %d candidate pairs "
        "skipped in this bucket; recall for its rows relies on other bands)",
        what, n, max_bucket, dropped_pairs,
    )
    return max_bucket


def _pair_kernel(ids: np.ndarray, score, chunk: int, whole: bool = False):
    """The chunked pair kernel over one capped, id-sorted key run:
    ``score(rows, cols) -> (hit, *values)`` scores row chunks against
    columns ``[s:]``, or the whole run when ``whole`` (a float matmul
    keeps its pinned shapes).  Keeps upper-triangle hits whose ids differ
    (a repeated id pairs with nothing, as the SQL twins' ``a.id < b.id``)
    and returns their row indices ``i < j`` and values."""
    n = len(ids)
    out = []
    for s in range(0, n - 1, chunk):
        e = min(s + chunk, n - 1)
        c0 = 0 if whole else s
        hit, *vals = score(slice(s, e), slice(c0, n))
        ii, jj = np.nonzero(hit & (np.arange(c0, n) > np.arange(s, e)[:, None]))
        keep = ids[ii + s] != ids[jj + c0]
        ii, jj = ii[keep], jj[keep]
        out.append((ii + s, jj + c0, *(v[ii, jj] for v in vals)))
    return [np.concatenate(c) for c in zip(*out)]


def _pair_runs(ds, keys, id_col: str, max_bucket: int, what: str, score_run,
               scores: dict, carry=()):
    """The per-run pair driver behind every pair miner: one exchange on
    ``keys[0]``, then per bucket sort by (``keys``, id), cut the key runs
    (:func:`run_starts`, nulls pooled), cap each run (:func:`_cap_bucket`)
    and score it with ``score_run(run, ids)`` over :func:`_pair_kernel`.
    Columns: ``id_a``, ``id_b``, ``scores`` (name -> dtype), ``carry``."""

    def bucket_pairs(t: pa.Table) -> pa.Table:
        t = t.sort_by([(c, "ascending") for c in (*keys, id_col)])
        new = np.zeros(t.num_rows, np.bool_)
        for c in keys:
            new |= run_starts(t[c].to_numpy(zero_copy_only=False))
        starts = np.flatnonzero(new)
        # typed empties first: a bucket may hold no pair at all
        parts = [[np.zeros(0, np.int64)] * 2
                 + [np.zeros(0, dt) for dt in scores.values()]]
        for lo, hi in zip(starts, [*starts[1:], t.num_rows]):
            m = _cap_bucket(hi - lo, max_bucket, what)
            if m > 1:
                run = t.slice(lo, m)
                i, j, *vals = score_run(
                    run, run[id_col].to_numpy(zero_copy_only=False))
                parts.append([i + lo, j + lo, *vals])
        i, j, *vals = (np.concatenate(c) for c in zip(*parts))
        return pa.table({
            "id_a": t[id_col].take(i), "id_b": t[id_col].take(j),
            **{name: pa.array(v.astype(dt, copy=False))
               for (name, dt), v in zip(scores.items(), vals)},
            **{c: t[c].take(i) for c in carry}})

    return grouped_apply(ds, keys, bucket_pairs, batch_format="pyarrow")


def _group_pairs(ds, group_cols, id_col: str, text_col: str,
                 max_bucket: int, what: str, score_run, scores: dict):
    """Pairs within each ``group_cols`` key (appended to each pair), from
    the narrow (keys, id, text) projection."""
    keys = [group_cols] if isinstance(group_cols, str) else list(group_cols)
    return _pair_runs(
        ds.select_columns(list(dict.fromkeys([*keys, id_col, text_col]))),
        keys, id_col, max_bucket, what, score_run, scores, carry=keys)


def _explode_bands_fn(text_col: str, id_col: str, num_perm: int, bands: int,
                      k: int, seed: int):
    """map_batches fn: rows -> (band_id, band_hash, id, signature) band rows."""

    def explode_bands(t: pa.Table) -> pa.Table:
        sig = minhash_signatures(t[text_col], num_perm=num_perm, k=k, seed=seed)
        bh = band_hashes(sig, bands)
        n = len(sig)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        band_id = np.tile(np.arange(bands, dtype=np.int32), n)
        return pa.table(
            {
                "band_id": pa.array(band_id),
                "band_hash": pa.array(bh.reshape(-1).astype(np.int64)),
                id_col: pa.array(np.repeat(ids, bands)),
                "sig": pa.array(list(np.repeat(sig, bands, axis=0).astype(np.int64))),
            }
        )

    return explode_bands


def _band_pairs(band_rows, id_col: str, threshold: float, num_perm: int,
                max_bucket: int, chunk: int = 128):
    """MinHash band rows -> pairs verified by the fraction of agreeing
    signature slots, one candidate set per ``(band_hash, band_id)`` run."""

    def score_run(run, ids):
        sigs = np.stack(run["sig"].to_numpy(zero_copy_only=False))

        def score(r, c):
            agree = (sigs[r, None, :] == sigs[None, c, :]).sum(axis=2) / num_perm
            return agree >= threshold, agree

        return _pair_kernel(ids, score, chunk)

    return _pair_runs(band_rows, ["band_hash", "band_id"], id_col, max_bucket,
                      "minhash_lsh", score_run, {"est_jaccard": np.float64})


def minhash_lsh_dedup(
    ds,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 64,
    bands: int = 16,
    k: int = 5,
    threshold: float = 0.7,
    seed: int = 1,
    distinct: bool = True,
    max_bucket: int = DEFAULT_MAX_BUCKET,
):
    """Near-duplicate PAIRS dataset: (id_a, id_b, est_jaccard), id_a < id_b,
    est_jaccard = fraction of agreeing minhash slots >= threshold.

    ``distinct=False`` skips the second (pair-dedup) shuffle: a pair that
    collides in several bands appears once per colliding band.  Downstream
    consumers that are idempotent over repeats (connected components /
    keep-min dedup) should pass False and save a full shuffle."""
    pairs = _band_pairs(
        ds.map_batches(
            _explode_bands_fn(text_col, id_col, num_perm, bands, k, seed),
            batch_format="pyarrow", zero_copy_batch=True,
        ), id_col, threshold, num_perm, max_bucket)
    if not distinct:
        return pairs
    # a pair can surface from several bands: keep one copy
    return _distinct_pairs(pairs)


def _distinct_pairs(pairs, num_buckets: int = 64, first: str | None = None):
    """Drop duplicate (id_a, id_b) pairs with a BUCKETED shuffle: group
    count is ``num_buckets``, not the pair count (a groupby on the pair
    itself builds one pandas group per pair).  With ``first``, the copy
    with the smallest ``first`` value is kept and that column dropped."""

    def tag(t: pa.Table) -> pa.Table:
        # pd.util.hash_array is id-type-generic (int AND string doc ids)
        a = pd.util.hash_array(np.asarray(t["id_a"].to_numpy(zero_copy_only=False))).astype(np.uint64)
        b = pd.util.hash_array(np.asarray(t["id_b"].to_numpy(zero_copy_only=False))).astype(np.uint64)
        h = (a * np.uint64(1000003) + b * np.uint64(0x9E3779B97F4A7C15)) % np.uint64(num_buckets)
        return t.append_column(BUCKET_COL, pa.array(h.astype(np.int64)))

    def dedup_bucket(g: pd.DataFrame) -> pd.DataFrame:
        if first is None:
            return g.drop_duplicates(["id_a", "id_b"])
        return (g.sort_values(first, kind="stable")
                .drop_duplicates(["id_a", "id_b"]).drop(columns=first))

    return bucket_exchange(
        pairs.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True),
        dedup_bucket)


def connected_components(pairs, id_a: str = "id_a", id_b: str = "id_b") -> pd.DataFrame:
    """Cluster near-duplicate PAIRS into components.

    The pair set is the output of an LSH miner and is orders of magnitude
    smaller than the corpus (only near-duplicates appear), so union-find on
    the driver is the right tool; the distributed alternative for a
    pathological pair volume is iterated min-label propagation with one
    groupby per round.  Returns DataFrame (doc_id, component) where
    component is the minimum id of the cluster (the id type's own
    ordering — numeric for ints, lexicographic for string doc ids);
    singletons are absent.  Ids of any orderable type are supported
    directly — real corpora key on string doc ids as often as ints."""
    df = pairs.to_pandas() if not isinstance(pairs, pd.DataFrame) else pairs
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]  # path halving
            x = parent[x]
        return x

    int_ids = pd.api.types.is_integer_dtype(df[id_a])
    for a, b in zip(df[id_a], df[id_b]):
        if int_ids:
            a, b = int(a), int(b)
        ra, rb = find(a), find(b)
        if ra != rb:
            if rb < ra:
                ra, rb = rb, ra
            parent[rb] = ra
    rows = sorted((x, find(x)) for x in parent)
    dtype = "int64" if int_ids else None
    return pd.DataFrame(
        {"doc_id": pd.array([r[0] for r in rows], dtype=dtype),
         "component": pd.array([r[1] for r in rows], dtype=dtype)}
    )


def hash_pairs_to_int64(pairs, id_a: str = "id_a", id_b: str = "id_b",
                        check_collisions: bool = True):
    """Map a STRING-id pair Dataset to int64-id pairs via content_hash —
    the bridge that lets string-keyed corpora use the int64 CC machinery
    (:func:`connected_components_distributed`).

    The optional collision check is exact and distributed: the hash is a
    function of the id, so collisions can only REDUCE the distinct count —
    ``#distinct(hash) == #distinct(id)`` over the pair vertex set proves
    injectivity on this run's ids (two small shuffles over the pair set)."""

    def hash_fn(t: pa.Table) -> pa.Table:
        return pa.table({
            id_a: pa.array(content_hash(t[id_a]).astype(np.int64)),
            id_b: pa.array(content_hash(t[id_b]).astype(np.int64)),
        })

    hashed = pairs.map_batches(hash_fn, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=None)
    if check_collisions:
        def explode(cols):
            def fn(t: pa.Table) -> pa.Table:
                return pa.table({"v": pa.concat_arrays(
                    [t[c].combine_chunks().cast(pa.string()) if cols == "str"
                     else pa.array(content_hash(t[c]).astype(np.int64))
                     for c in (id_a, id_b)])})
            return fn

        n_ids = (pairs.map_batches(explode("str"), batch_format="pyarrow")
                 .groupby("v").count().count())
        n_hashes = (pairs.map_batches(explode("hash"), batch_format="pyarrow")
                    .groupby("v").count().count())
        if n_ids != n_hashes:
            raise RuntimeError(
                f"id hash collision detected: {n_ids} distinct ids -> "
                f"{n_hashes} distinct hashes; use the driver "
                f"connected_components (type-generic) or re-key the corpus")
    return hashed


def _broadcast_id_filter(ds, ids_ref, id_col: str, keep_members: bool,
                         select_cols=None, probe=None):
    """Shared broadcast id-set filter behind the dedup keep policies:
    ``keep_members=False`` DROPS the listed ids (keep-min / keep-best
    output), ``True`` KEEPS only them (the pruned score-fetch pass).
    The set ships once via ``ray.put``; each actor casts it to the probed
    column's type once and applies one vectorized ``is_in`` per batch.
    ``probe(column) -> Array`` replaces the id column as the probed
    values (e.g. the int64 hashes of string ids)."""

    class IdFilter:
        def __init__(self, ref):
            vals = ray.get(ref) if isinstance(ref, ray.ObjectRef) else ref
            self.id_set = vals if isinstance(vals, pa.Array) else pa.array(vals)
            self._cast_set = None

        def __call__(self, t: pa.Table) -> pa.Table:
            ids = t[id_col] if probe is None else probe(t[id_col])
            if self._cast_set is None:
                self._cast_set = (self.id_set.cast(ids.type)
                                  if len(self.id_set) else
                                  pa.array([], ids.type))
            hit = pc.is_in(ids, value_set=self._cast_set)
            if keep_members:
                t = t.filter(pc.fill_null(hit, False))
                return t.select(select_cols) if select_cols else t
            return t.filter(pc.fill_null(pc.invert(hit), True))

    return ds.map_batches(IdFilter, fn_constructor_kwargs=dict(ref=ids_ref),
                          batch_format="pyarrow", concurrency=(1, 8))


def dedup_keep_min(ds, pairs, id_col: str = "doc_id", distributed: bool = False,
                   num_shards: int = 8):
    """Full near-dedup: keep one representative per duplicate cluster.
    ``pairs`` is a (id_a, id_b) Dataset/DataFrame from any of the pair
    miners; the drop-set (non-representative cluster members) is broadcast
    once and applied as a vectorized filter inside map_batches.

    Ids may be ints OR strings.  Driver path (default): type-generic
    union-find, representative = minimum id.  ``distributed=True`` routes
    through the sharded-actor CC for pathological pair volumes; string ids
    are hashed to int64 first (exact collision check, see
    :func:`hash_pairs_to_int64`) and the representative becomes the
    min-HASH member — deterministic, but not the lexicographic minimum."""
    if distributed:
        sch = pairs.schema()
        atype = dict(zip(sch.names, sch.types))["id_a"]
        string_ids = not pa.types.is_integer(atype)
        hp = hash_pairs_to_int64(pairs) if string_ids else pairs
        comp_ds = connected_components_distributed(hp, num_shards=num_shards)
        drop_df = comp_ds.map_batches(
            lambda t: t.filter(pc.not_equal(t["doc_id"], t["component"])),
            batch_format="pyarrow", batch_size=None,
        ).to_pandas()
        drop = pa.array(drop_df["doc_id"], pa.int64())
        probe = ((lambda c: pa.array(content_hash(c).astype(np.int64))) if string_ids
                 else (lambda c: c.cast(pa.int64())))
        return _broadcast_id_filter(ds, ray.put(drop), id_col,
                                    keep_members=False, probe=probe)

    comp = connected_components(pairs)
    drop = comp.loc[comp["doc_id"] != comp["component"], "doc_id"].tolist()
    return _broadcast_id_filter(ds, ray.put(drop), id_col,
                                keep_members=False)


# ---------------------------------------------------------------------------
# SimHash near-dedup
# ---------------------------------------------------------------------------


def simhash_dedup(ds, text_col: str = "text", id_col: str = "doc_id",
                  max_hamming: int = 3, k: int = 4,
                  max_bucket: int = DEFAULT_MAX_BUCKET,
                  distinct: bool = True):
    """Near-duplicate pairs by SimHash: bucket on each of the four 16-bit
    chunks (pigeonhole: hamming<=3 pairs share a chunk), verify popcount.

    ``distinct=False`` skips the pair-dedup shuffle (a pair surfacing from
    several chunks repeats); idempotent consumers (components/keep-min)
    should pass False — same contract as :func:`minhash_lsh_dedup`."""

    def explode_chunks(t: pa.Table) -> pa.Table:
        sh = simhash(t[text_col], k=k)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        n = len(sh)
        chunk_id = np.tile(np.arange(4, dtype=np.int32), n)
        rep = np.repeat(sh, 4)
        shifts = (np.tile(np.arange(4, dtype=np.uint64), n) * np.uint64(16))
        chunk = ((rep >> shifts) & np.uint64(0xFFFF)).astype(np.int64)
        return pa.table(
            {
                "chunk_id": pa.array(chunk_id),
                "chunk": pa.array(chunk),
                id_col: pa.array(np.repeat(ids, 4)),
                "simhash": pa.array(rep.astype(np.int64)),
            }
        )

    def score_run(run, ids):
        hs = run["simhash"].to_numpy().astype(np.uint64)

        def score(r, c):
            d = hamming64(hs[r, None], hs[None, c])
            return d <= max_hamming, d

        return _pair_kernel(ids, score, 512)

    pairs = _pair_runs(
        ds.map_batches(explode_chunks, batch_format="pyarrow", zero_copy_batch=True),
        ["chunk", "chunk_id"], id_col, max_bucket, "simhash", score_run,
        {"hamming": np.int64})
    if not distinct:
        return pairs
    return _distinct_pairs(pairs)


# ---------------------------------------------------------------------------
# exact n-gram Jaccard (verification / small candidate sets)
# ---------------------------------------------------------------------------


def _char_ngrams(s: str, n: int) -> set:
    if len(s) < n:
        return {s}
    return {s[i : i + n] for i in range(len(s) - n + 1)}


def _overlap_scorer(text_col: str, tokens, measure, chunk: int):
    """Scorer of the set-overlap miners: a docs x distinct-tokens 0/1
    matrix per run (the vocabulary factorized per run), ``|A ∩ B|`` from
    exact integer matmuls of a row chunk against the whole run, and
    ``measure(inter, size_rows, size_cols) -> (hit, *values)``."""

    def score_run(run, ids):
        vocab: dict = {}
        ri, ci = [], []
        for i, s in enumerate(run[text_col].to_pylist()):
            for tok in tokens(s):
                ci.append(vocab.setdefault(tok, len(vocab)))
                ri.append(i)
        A = np.zeros((len(ids), len(vocab)), np.uint32)
        A[ri, ci] = 1
        sizes = A.sum(axis=1).astype(np.int64)

        def score(r, c):
            inter = (A[r] @ A[c].T).astype(np.int64)
            return measure(inter, sizes[r, None], sizes[None, c])

        return _pair_kernel(ids, score, chunk, whole=True)

    return score_run


def ngram_jaccard_pairs(ds, group_cols, text_col: str = "text", id_col: str = "doc_id",
                        n: int = 1, threshold: float = 0.0,
                        max_bucket: int = DEFAULT_MAX_BUCKET, chunk: int = 128):
    """Exact char-n-gram Jaccard for all pairs WITHIN each group_cols
    partition (co-partitioned candidate generation; n=1 matches DuckDB's
    ``jaccard`` character-set semantics for the SQL oracle).

    |A ∩ B| = a·b comes from :func:`_overlap_scorer`'s chunked matmuls,
    |A ∪ B| = |a|+|b|-a·b; the hot-group cap is the LSH miners'
    (:func:`_pair_runs`).  A verification op for co-partitioned candidate
    groups, not a corpus-scale miner."""

    def measure(inter, size_a, size_b):
        union = size_a + size_b - inter
        jac = np.where(union > 0, inter / np.maximum(union, 1), 1.0)
        return jac >= threshold, jac

    return _group_pairs(
        ds, group_cols, id_col, text_col, max_bucket, "ngram_jaccard",
        _overlap_scorer(text_col, lambda s: _char_ngrams(s, n), measure, chunk),
        {"jaccard": np.float64})


def containment_pairs(ds, group_cols, text_col: str = "text",
                      id_col: str = "doc_id", threshold: float = 0.8,
                      max_bucket: int = DEFAULT_MAX_BUCKET, chunk: int = 128):
    """Exact word-set CONTAINMENT for all pairs within each group_cols
    partition: cont_a = |words(A) ∩ words(B)| / |words(A)| (how much of A
    lives inside B) and symmetrically cont_b.  Jaccard misses the
    doc-in-doc case — a short doc fully quoted inside a long one has low
    Jaccard but containment 1.0; this is the miner for quote/subset
    duplication (drop the contained side, keep the superset).

    A pair is emitted when max(cont_a, cont_b) >= threshold, ordered
    id_a < id_b.  Tokens are ``text.split(" ")`` distinct sets (DuckDB
    ``string_split`` semantics, empty tokens included) so the SQL twin is
    bit-exact: identical integer operands divide to identical float64 on
    both sides.  That holds for unique ids: rows sharing an id pair with
    nothing here (as in every pair miner), while the twin's ``SELECT
    DISTINCT id, ...`` merges them into one word set.

    Scale shape: that of :func:`ngram_jaccard_pairs`, over word sets."""

    def measure(inter, size_a, size_b):
        ca = inter / np.maximum(size_a, 1)
        cb = inter / np.maximum(size_b, 1)
        return np.maximum(ca, cb) >= threshold, ca, cb

    return _group_pairs(
        ds, group_cols, id_col, text_col, max_bucket, "containment",
        _overlap_scorer(text_col, lambda s: s.split(" "), measure, chunk),
        {"cont_a": np.float64, "cont_b": np.float64})


def containment_pairs_sql(table: str, group_col: str, text_col: str = "text",
                          id_col: str = "doc_id",
                          threshold: float = 0.8) -> str:
    """DuckDB twin of :func:`containment_pairs` (single group column)."""
    return (
        f"WITH d AS (SELECT DISTINCT {id_col}, {group_col}, "
        f"unnest(string_split({text_col}, ' ')) AS w FROM {table}), "
        f"s AS (SELECT {id_col}, count(*) AS n FROM d GROUP BY {id_col}), "
        f"i AS (SELECT a.{id_col} AS ia, b.{id_col} AS ib, "
        f"a.{group_col} AS g, count(*) AS inter "
        f"FROM d a JOIN d b ON a.w = b.w AND a.{group_col} = b.{group_col} "
        f"AND a.{id_col} < b.{id_col} GROUP BY 1, 2, 3) "
        f"SELECT ia AS id_a, ib AS id_b, "
        f"inter * 1.0 / sa.n AS cont_a, inter * 1.0 / sb.n AS cont_b, "
        f"g AS {group_col} FROM i "
        f"JOIN s sa ON sa.{id_col} = ia JOIN s sb ON sb.{id_col} = ib "
        f"WHERE greatest(inter * 1.0 / sa.n, inter * 1.0 / sb.n) "
        f">= {threshold}"
    )


# ---------------------------------------------------------------------------
# embedding cosine near-dedup
# ---------------------------------------------------------------------------


def embedding_dedup(ds, emb_col: str = "embedding", id_col: str = "vec_id",
                    threshold: float = 0.95, n_planes: int = 8, seed: int = 2,
                    dtype=np.float32, max_bucket: int = DEFAULT_MAX_BUCKET,
                    n_tables: int = 1):
    """Near-duplicate pairs by embedding cosine >= threshold.

    Random-hyperplane LSH: bucket = sign pattern of n_planes projections
    (similar vectors collide with high probability), exact cosine verify
    via chunked matmuls per bucket under the hot-bucket cap (all-identical
    embeddings share one bucket).  Raise n_planes for bigger corpora;
    ``n_tables`` > 1 trades work for RECALL: each table is an independent
    plane set (seeded seed+t), rows explode to one bucket row per table,
    and a pair survives if it collides in ANY table (duplicate emissions
    removed with the bucketed distinct shuffle)."""

    state = {}

    def planes(d):
        if "p" not in state:
            state["p"] = [
                np.random.default_rng(seed + ti).standard_normal((d, n_planes))
                for ti in range(n_tables)
            ]
        return state["p"]

    def bucketize(t: pa.Table) -> pa.Table:
        emb = np.stack(t[emb_col].to_numpy(zero_copy_only=False)).astype(dtype)
        n = len(emb)
        d = emb.shape[1]
        norm = np.linalg.norm(emb, axis=1)
        norm[norm == 0] = 1.0
        unit = (emb / norm[:, None]).astype(dtype)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        buckets = np.empty((n_tables, n), np.uint64)
        for ti, p in enumerate(planes(d)):
            bits = (emb @ p > 0).astype(np.uint64)
            b = np.zeros(n, np.uint64)
            for j in range(n_planes):
                b = (b << np.uint64(1)) | bits[:, j]
            buckets[ti] = b
        return pa.table(
            {
                "table_id": pa.array(np.repeat(np.arange(n_tables, dtype=np.int32), n)),
                "bucket": pa.array(buckets.reshape(-1).astype(np.int64)),
                id_col: pa.array(np.tile(ids, n_tables)),
                "unit": pa.array(list(np.tile(unit, (n_tables, 1)))),
            }
        )

    def score_run(run, ids):
        u = np.stack(run["unit"].to_numpy(zero_copy_only=False))

        def score(r, c):
            sim = u[r] @ u[c].T  # (c, n) bounded by chunk * max_bucket
            return sim >= threshold, sim

        return _pair_kernel(ids, score, 1024, whole=True)

    # a pair repeats once per colliding table: keep the lowest table's
    # copy (a differently shaped matmul may round its last bit apart)
    pairs = _pair_runs(
        ds.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True),
        ["bucket", "table_id"], id_col, max_bucket, "embedding_lsh", score_run,
        {"cosine": np.float64}, ["table_id"] if n_tables > 1 else [])
    if n_tables == 1:
        return pairs
    return _distinct_pairs(pairs, first="table_id")


@ray.remote(num_cpus=0)
class _CCShard(VertexShard):
    """Connected-components kernel: one hash partition of the
    vertex->label index (the engine is
    :class:`~logray.functions.vertexshard.VertexShard`).  Labels only
    decrease, by ``np.minimum.at`` scatter-min, so no fold order
    matters."""

    STATE = ("label",)
    DTYPE = np.int64
    RESULT = (("component", pa.int64()),)
    DISTINCT_EDGES = True

    def build(self) -> int:
        """Freeze edges (DEDUPED — relaxation is min-scatter, so parallel
        edges are pure message traffic, and the distinct count is what
        the checkpoint meta validates: per-batch dedup upstream makes a
        raw count depend on block boundaries, which would refuse a
        legitimate resume under different read parallelism), init
        label(v) = min(v, local out-neighbors)."""
        self.src, self.dst = self._sorted_edges(
            *self._take("edges", np.int64, np.int64))
        self.verts = np.unique(self.src)
        self.label = self._fold(self.verts.copy(), [(self.src, self.dst)],
                                np.minimum.at)
        self._dst_idx = self._dest_index(self.dst)
        return len(self.verts)

    def _lookup(self, v: np.ndarray) -> np.ndarray:
        return self.label[np.searchsorted(self.verts, v)]

    def emit_a(self):
        """Per-dest-shard messages: relax (dst, label[src]) + pointer-
        doubling requests (l=label[v], v)."""
        return self._send(
            (self._dst_idx, self.dst, self._lookup(self.src)),
            (self._dest_index(self.label), self.label, self.verts))

    def apply_a(self, *msgs) -> int:
        self._fold(self.label, [m[:2] for m in msgs], np.minimum.at)
        self._pending_req = (np.concatenate([m[2] for m in msgs]),
                             np.concatenate([m[3] for m in msgs]))
        return 0

    def emit_b(self):
        """Answer pointer requests: for each (l, v) deliver (v, label[l])."""
        l, v = self._pending_req
        self._pending_req = None
        return self._send((self._dest_index(v), v, self._lookup(l)))

    def apply_b(self, *msgs) -> int:
        self._fold(self.label, msgs, np.minimum.at)
        return int(len(self.verts))

    def label_sum(self) -> int:
        return int(self.label.sum())

    def _result(self):
        return (self.label,)


def connected_components_distributed(pairs, id_a: str = "id_a", id_b: str = "id_b",
                                     max_rounds: int = 16, num_shards: int = 8,
                                     checkpoint: str | None = None,
                                     checkpoint_every: int = 1,
                                     _fault=None):
    """Distributed connected components — the scale path for pathological
    duplicate graphs whose pair set does not fit one process
    (cf. :func:`connected_components`).

    Shape: ``num_shards`` actors each own one hash partition of the
    vertex->label index, held in actor memory ACROSS rounds (a shared
    mutable index — the documented case for raw Ray actors; a pure Dataset
    loop re-shuffles the full label table 2-3 times per round, paying the
    all-to-all fixed cost O(rounds) times).  Each round exchanges two
    vectorized message waves: (1) edge relaxation ``label[dst] <-
    min(label[dst], label[src])`` and (2) pointer doubling ``label[v] <-
    label[label[v]]``, which makes convergence O(log diameter) rounds
    (plain relaxation alone is O(diameter)).  Labels only decrease, so the
    exact fixpoint is detected by an unchanged global label sum; exhausting
    ``max_rounds`` without the fixpoint raises instead of silently
    returning split components.  Returns a Dataset (doc_id, component)
    where component is the minimum id of the cluster.

    ``checkpoint`` / ``checkpoint_every`` / ``_fault``: same per-round
    snapshot-and-resume protocol as the PageRank family
    (``ShardRun.commit`` / ``ShardRun.resume``): labels snapshot
    post-round, a resumed run reloads the newest committed round and
    continues toward the fixpoint
    (labels only decrease, so resuming AT the fixpoint just re-detects
    it one round later — bit-equal output either way)."""
    return _components(pairs, id_a, id_b, max_rounds, num_shards,
                       checkpoint, checkpoint_every, _fault, "doc_id")


def _components(pairs, id_a, id_b, max_rounds, num_shards, checkpoint,
                checkpoint_every, _fault, node_col):
    """:func:`connected_components_distributed` with its id column
    named ``node_col``."""
    with ShardRun(_CCShard, num_shards) as run:
        if checkpoint is not None:
            run.open_checkpoint(checkpoint, {
                "algo": "connected_components", "id_a": id_a, "id_b": id_b,
                "num_shards": num_shards,
            }, max_rounds, checkpoint_every)

        def routes(t: pa.Table):
            a = t[id_a].cast(pa.int64()).to_numpy(zero_copy_only=False)
            b = t[id_b].cast(pa.int64()).to_numpy(zero_copy_only=False)
            src = np.concatenate([a, b])
            return [("edges", src, (src, np.concatenate([b, a])))]

        run.push(pairs, routes)
        run.build()
        start = run.resume()
        prev_sum = sum(run.call("label_sum"))
        for it in range(start, max_rounds):
            if _fault is not None:
                _fault("round", it)
            run.exchange("emit_a", "apply_a")
            run.exchange("emit_b", "apply_b")
            cur_sum = sum(run.call("label_sum"))
            run.commit(it + 1, cur_sum == prev_sum)
            if cur_sum == prev_sum:
                return run.collect(node_col)
            prev_sum = cur_sum

        raise RuntimeError(
            f"connected_components_distributed did not reach a fixpoint in "
            f"{max_rounds} rounds; raise max_rounds (each round doubles the "
            f"propagation horizon, so this indicates an extreme graph)"
        )


# ---------------------------------------------------------------------------
# edit-distance (Levenshtein) verification
# ---------------------------------------------------------------------------


def _char_codes(strings, max_len: int):
    """Pad each string's ``max_len``-CODEPOINT prefix, as UTF-8 BYTES,
    into an int32 matrix — DuckDB's ``levenshtein`` edits bytes while its
    ``substring`` slices codepoints, so parity needs exactly this mix."""
    bufs = [s[:max_len].encode("utf-8") for s in strings]
    k = len(bufs)
    width = max((len(b) for b in bufs), default=1) or 1
    arr = np.zeros((k, width), np.int32)
    lens = np.zeros(k, np.int64)
    for i, b in enumerate(bufs):
        lens[i] = len(b)
        if b:
            arr[i, : len(b)] = np.frombuffer(b, np.uint8)
    return arr, lens


def _lev_block(a: np.ndarray, len_a: np.ndarray,
               b: np.ndarray, len_b: np.ndarray) -> np.ndarray:
    """Levenshtein distance for K (a, b) pairs at once: one
    Wagner-Fischer sweep whose cells are K-vectors, so the Python loop is
    O(la * lb) regardless of pair count.  Each pair's answer is captured
    on the row where its `a` ends (dp[len_a][len_b])."""
    k, la = a.shape
    lb = b.shape[1]
    prev = np.tile(np.arange(lb + 1, dtype=np.int32), (k, 1))
    ans = np.where(len_a == 0, len_b, 0).astype(np.int64)
    for i in range(1, int(len_a.max(initial=0)) + 1):
        cur = np.empty_like(prev)
        cur[:, 0] = i
        ai = a[:, i - 1]
        for j in range(1, lb + 1):
            sub = prev[:, j - 1] + (ai != b[:, j - 1])
            cur[:, j] = np.minimum(np.minimum(prev[:, j], cur[:, j - 1]) + 1,
                                   sub)
        done = len_a == i
        if done.any():
            ans[done] = cur[done, len_b[done]]
        prev = cur
    return ans


def edit_distance_pairs(ds, group_cols, text_col: str = "text",
                        id_col: str = "doc_id", max_dist: int | None = None,
                        max_len: int = 64,
                        max_bucket: int = DEFAULT_MAX_BUCKET,
                        chunk: int = 4096):
    """Exact Levenshtein distance between the ``max_len``-codepoint
    prefixes of all pairs WITHIN each group_cols partition
    (co-partitioned candidate verification, the edit-distance sibling of
    :func:`ngram_jaccard_pairs`).  Distances are BYTE-level over the
    codepoint-sliced prefix — exactly DuckDB's ``levenshtein`` over
    ``substring(...)``, which is what the twin computes.  ``max_dist`` keeps only pairs at or under the
    threshold; None emits every pair with its distance.

    The DP is pair-vectorized (:func:`_lev_block`): O(la * lb) numpy
    sweeps over about ``chunk`` pairs at a time; the hot-group cap is the
    LSH miners' (:func:`_pair_runs`).  A verification op for candidate
    groups, not a corpus-scale miner."""
    limit = np.inf if max_dist is None else max_dist

    def score_run(run, ids):
        codes, lens = _char_codes(run[text_col].to_pylist(), max_len)
        n = len(ids)

        def score(r, c):
            ii, jj = np.nonzero(np.arange(c.start, n)
                                > np.arange(r.start, r.stop)[:, None])
            d = np.zeros((r.stop - r.start, n - c.start), np.int64)
            d[ii, jj] = _lev_block(codes[ii + r.start], lens[ii + r.start],
                                   codes[jj + c.start], lens[jj + c.start])
            return d <= limit, d

        # row chunks of about ``chunk`` pairs per sweep on average
        return _pair_kernel(ids, score, max(1, 2 * chunk // n))

    return _group_pairs(
        ds.map_batches(lambda t: t.filter(pc.is_valid(t[text_col])),
                       batch_format="pyarrow", zero_copy_batch=True),
        group_cols, id_col, text_col, max_bucket, "edit_distance", score_run,
        {"dist": np.int64})


def edit_distance_pairs_sql(table: str, group_cols, text_col: str = "text",
                            id_col: str = "doc_id",
                            max_dist: int | None = None,
                            max_len: int = 64) -> str:
    """DuckDB twin of :func:`edit_distance_pairs` (same prefixes, same
    within-group pairing)."""
    if isinstance(group_cols, str):
        group_cols = [group_cols]
    on = " AND ".join(f"a.{c} = b.{c}" for c in group_cols)
    gcols = ", ".join(f"a.{c} AS {c}" for c in group_cols)
    having = f" AND dist <= {max_dist}" if max_dist is not None else ""
    return (
        f"SELECT id_a, id_b, dist, {', '.join(group_cols)} FROM ("
        f"SELECT a.{id_col} AS id_a, b.{id_col} AS id_b, "
        f"CAST(levenshtein(substring(a.{text_col}, 1, {max_len}), "
        f"substring(b.{text_col}, 1, {max_len})) AS BIGINT) AS dist, "
        f"{gcols} "
        f"FROM {table} a JOIN {table} b ON {on} AND a.{id_col} < b.{id_col} "
        f"WHERE a.{text_col} IS NOT NULL AND b.{text_col} IS NOT NULL"
        f") WHERE TRUE{having}"
    )


def dedup_keep_best(ds, pairs, id_col: str = "doc_id",
                    score_col: str = "quality"):
    """Near-dedup keeping the BEST-scoring member of each duplicate
    cluster (the production policy: keep the highest-quality copy, not
    the smallest id).  ``pairs`` is a (id_a, id_b) Dataset/DataFrame from
    any pair miner; representative = max ``score_col``, ties to the
    smallest id; null/missing scores rank last.

    Driver path like :func:`dedup_keep_min`: cluster membership is
    bounded by the DUPLICATED id set, so the component labels, the ONE
    pruned score-fetch pass, and the winner selection are all
    O(duplicates); the drop-set broadcasts once.  For pathological pair
    volumes run :func:`connected_components_distributed` and a
    distributed per-component arg-max instead."""
    import ray

    comp = connected_components(pairs)
    if not len(comp):
        return ds
    mem_ref = ray.put(pa.array(comp["doc_id"].to_numpy()))
    scores = _broadcast_id_filter(
        ds, mem_ref, id_col, keep_members=True,
        select_cols=[id_col, score_col]).to_pandas()
    m = comp.merge(scores, left_on="doc_id", right_on=id_col, how="inner")
    m = m.sort_values(["component", score_col, "doc_id"],
                      ascending=[True, False, True], kind="mergesort",
                      na_position="last")
    winners = set(m.drop_duplicates("component")["doc_id"])
    drop = [d for d in comp["doc_id"] if d not in winners]
    return _broadcast_id_filter(ds, ray.put(drop), id_col,
                                keep_members=False)
