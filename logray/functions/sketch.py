"""Mergeable sketches: HyperLogLog approximate distinct count.

The canonical combiner-shaped aggregate for 100-TB pipelines: each batch
folds into a fixed 2^p-byte register array (vectorized numpy), register
arrays merge by elementwise max (commutative + idempotent, so retries and
repartitioning cannot change the answer — the hash is deterministic), and
the driver folds one tiny array per block.  Standard HLL estimator with
the small-range linear-counting correction (Flajolet et al., 2007).

Relative error ~ 1.04/sqrt(2^p): p=14 (16 KiB) gives ~0.8%.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from logray.functions.fingerprint import content_hash

_GOLD = np.uint64(0x9E3779B97F4A7C15)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _finalize(v: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer: spreads entropy into the HIGH bits (FNV's high
    bits are weak for short similar strings, and HLL reads the top p bits)."""
    v = (v + _GOLD) & _MASK
    v ^= v >> np.uint64(30)
    v = (v * np.uint64(0xBF58476D1CE4E5B9)) & _MASK
    v ^= v >> np.uint64(27)
    v = (v * np.uint64(0x94D049BB133111EB)) & _MASK
    v ^= v >> np.uint64(31)
    return v


def _hash_column(col) -> np.ndarray:
    """Deterministic, well-mixed 64-bit hashes of an Arrow column.
    Nulls are dropped first (COUNT DISTINCT semantics ignore them).
    Floats hash by their bit pattern (an int64 cast would collapse every
    value sharing an integer part), with -0.0 and NaN canonicalized so
    equal-comparing values hash equally."""
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    if col.null_count:
        col = col.drop_null()
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type) \
            or pa.types.is_binary(col.type):
        return _finalize(content_hash(col))
    if pa.types.is_floating(col.type):
        f = col.to_numpy(zero_copy_only=False).astype(np.float64)
        f = f + 0.0  # -0.0 -> 0.0
        f[np.isnan(f)] = np.nan  # canonical NaN bit pattern
        return _finalize(f.view(np.uint64))
    v = col.to_numpy(zero_copy_only=False).astype(np.int64).view(np.uint64)
    return _finalize(v)


def hll_registers(col, p: int = 14) -> np.ndarray:
    """Fold one column batch into a fresh 2^p uint8 register array."""
    m = 1 << p
    regs = np.zeros(m, np.uint8)
    h = _hash_column(col)
    if not len(h):
        return regs
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    w = (h << np.uint64(p)) & _MASK
    # rank = leading zeros of w within (64-p) bits, + 1; w fits float64
    # exactly only below 2^53, so split the bit-length computation
    hi = (w >> np.uint64(32)).astype(np.float64)
    lo = (w & np.uint64(0xFFFFFFFF)).astype(np.float64)
    bitlen = np.where(
        hi > 0,
        np.floor(np.log2(np.maximum(hi, 1))) + 33,
        np.where(lo > 0, np.floor(np.log2(np.maximum(lo, 1))) + 1, 0),
    ).astype(np.int64)
    # w is the remaining bits left-aligned in 64: rank = 64 - bitlen(w) + 1,
    # capped at 64-p+1 for w == 0 (all remaining bits zero)
    rank = np.minimum(64 - bitlen + 1, 64 - p + 1).astype(np.uint8)
    np.maximum.at(regs, idx, rank)
    return regs


def hll_merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.maximum(a, b)


def hll_estimate(regs: np.ndarray) -> int:
    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if e <= 2.5 * m and zeros > 0:
        e = m * np.log(m / zeros)  # linear counting, small range
    return int(round(e))


def approx_distinct(ds, col: str, p: int = 14) -> int:
    """Approximate COUNT(DISTINCT col) over a Dataset: per-batch register
    partials (one 2^p-byte row each) stream to the driver and merge by max.
    Deterministic: independent of partitioning, batch order and retries."""

    def partial(t: pa.Table) -> pa.Table:
        return pa.table({"regs": pa.array([hll_registers(t[col], p).tobytes()],
                                          pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None)
    regs = np.zeros(1 << p, np.uint8)
    for chunk in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        for buf in chunk["regs"]:
            regs = hll_merge(regs, np.frombuffer(buf.as_py(), np.uint8))
    return hll_estimate(regs)


# ---------------------------------------------------------------------------
# t-digest: mergeable approximate quantiles
# ---------------------------------------------------------------------------
#
# The combiner-shaped alternative to stages/aggregate.exact_quantiles for
# when streaming counting passes over 100 TB are not worth it: each batch
# folds into <= ~2*delta (mean, weight) centroids (one vectorized
# sort + k-scale binning pass — no Python loop over values), centroid sets
# merge by concat + re-bin, and the driver folds one tiny centroid table
# per block.  The k1 (arcsine) scale function concentrates resolution at
# the tails (Dunning & Ertl, "Computing extremely accurate quantiles using
# t-digests", 2019).
#
# Determinism: binning depends only on the sorted (mean, weight) multiset,
# so a FIXED partitioning always reproduces the same digest (retry-stable).
# Unlike the HLL, different partitionings pre-cluster differently and give
# slightly different centroids — the rank-error bound (~1/delta) holds for
# every layout, but bit-identical layout independence is not a t-digest
# property.


def _tdigest_bin(means: np.ndarray, weights: np.ndarray, delta: int):
    """Cluster sorted-by-mean centroids with k1-scale binning (vectorized)."""
    order = np.argsort(means, kind="mergesort")
    means, weights = means[order], weights[order]
    W = float(weights.sum())
    if W <= 0:
        return np.zeros(0), np.zeros(0)
    cum = np.cumsum(weights)
    q_mid = (cum - weights / 2.0) / W
    # k1 scale: delta * (asin(2q-1)/pi + 1/2), binned by floor
    k = delta * (np.arcsin(np.clip(2.0 * q_mid - 1.0, -1.0, 1.0)) / np.pi + 0.5)
    bins = np.floor(k).astype(np.int64)
    # segment-reduce per bin
    uniq, inv = np.unique(bins, return_inverse=True)
    out_w = np.zeros(len(uniq))
    out_m = np.zeros(len(uniq))
    np.add.at(out_w, inv, weights)
    np.add.at(out_m, inv, means * weights)
    return out_m / out_w, out_w


class TDigest:
    """A centroid list (means ascending, weights) + exact min/max."""

    __slots__ = ("means", "weights", "vmin", "vmax", "delta")

    def __init__(self, means, weights, vmin, vmax, delta: int = 200):
        self.means = np.asarray(means, np.float64)
        self.weights = np.asarray(weights, np.float64)
        self.vmin = vmin
        self.vmax = vmax
        self.delta = delta

    @classmethod
    def of(cls, values: np.ndarray, delta: int = 200) -> "TDigest":
        values = np.asarray(values, np.float64)
        values = values[~np.isnan(values)]
        if len(values) == 0:
            return cls(np.zeros(0), np.zeros(0), None, None, delta)
        m, w = _tdigest_bin(values, np.ones(len(values)), delta)
        return cls(m, w, float(values.min()), float(values.max()), delta)

    def merge(self, other: "TDigest") -> "TDigest":
        if len(other.means) == 0:
            return self
        if len(self.means) == 0:
            return other
        m, w = _tdigest_bin(
            np.concatenate([self.means, other.means]),
            np.concatenate([self.weights, other.weights]),
            self.delta,
        )
        return TDigest(m, w, min(self.vmin, other.vmin),
                       max(self.vmax, other.vmax), self.delta)

    def quantile(self, q: float) -> float | None:
        if len(self.means) == 0:
            return None
        W = float(self.weights.sum())
        if q <= 0:
            return self.vmin
        if q >= 1:
            return self.vmax
        target = q * W
        cum = np.cumsum(self.weights)
        mids = cum - self.weights / 2.0
        i = int(np.searchsorted(mids, target))
        if i == 0:
            lo_x, lo_y = self.vmin, 0.0
            hi_x, hi_y = self.means[0], mids[0]
        elif i >= len(self.means):
            lo_x, lo_y = self.means[-1], mids[-1]
            hi_x, hi_y = self.vmax, W
        else:
            lo_x, lo_y = self.means[i - 1], mids[i - 1]
            hi_x, hi_y = self.means[i], mids[i]
        if hi_y == lo_y:
            return float(lo_x)
        f = (target - lo_y) / (hi_y - lo_y)
        return float(lo_x + f * (hi_x - lo_x))

    # -- serialization (one binary cell per partial row) -------------------
    def to_bytes(self) -> bytes:
        head = np.array([len(self.means),
                         self.vmin if self.vmin is not None else np.nan,
                         self.vmax if self.vmax is not None else np.nan,
                         float(self.delta)], np.float64)
        return head.tobytes() + self.means.tobytes() + self.weights.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "TDigest":
        head = np.frombuffer(b[:32], np.float64)
        n = int(head[0])
        delta = int(head[3])
        m = np.frombuffer(b[32:32 + 8 * n], np.float64)
        w = np.frombuffer(b[32 + 8 * n:32 + 16 * n], np.float64)
        vmin = None if np.isnan(head[1]) else float(head[1])
        vmax = None if np.isnan(head[2]) else float(head[2])
        return cls(m.copy(), w.copy(), vmin, vmax, delta)


def approx_quantiles(ds, col: str, qs, delta: int = 200) -> dict:
    """Approximate quantiles of a column via a distributed t-digest:
    per-batch digest partials (one small binary row each) stream to the
    driver and merge pairwise.  One pass over the corpus, O(delta) driver
    memory, deterministic under repartitioning.  Returns {q: value}."""

    def partial(t: pa.Table) -> pa.Table:
        c = t[col]
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        if c.null_count:
            c = c.drop_null()
        v = c.to_numpy(zero_copy_only=False)
        return pa.table({"td": pa.array([TDigest.of(v, delta).to_bytes()],
                                        pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    acc = TDigest(np.zeros(0), np.zeros(0), None, None, delta)
    for chunk in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        for buf in chunk["td"]:
            acc = acc.merge(TDigest.from_bytes(buf.as_py()))
    return {q: acc.quantile(q) for q in qs}


def approx_quantiles_grouped(ds, key_col: str, value_col: str, qs,
                             delta: int = 200, num_buckets: int = 32):
    """Per-key approximate quantiles — the combiner-shaped alternative to
    the exact ``grouped_quantiles`` when shuffling raw rows is too
    expensive: per-batch PER-KEY digest partials (one small binary row
    per key per batch — the only data that crosses the wire), ONE
    ``hash(key) % B`` bucket shuffle of those partials, then a per-bucket
    merge + quantile evaluation.  Null keys are dropped (same contract as
    ``grouped_quantiles``); null values are ignored.

    Output: one row per key with a float64 ``q<percent>`` column per
    requested quantile (``0.5 -> q50``)."""
    import pandas as pd

    from logray.stages.bucketing import grouped_apply

    qs = list(qs)
    qnames = [f"q{round(q * 100):d}" for q in qs]

    def partial(t: pa.Table) -> pa.Table:
        cols = pa.table({key_col: t[key_col], "v": t[value_col]})
        if cols[key_col].null_count:
            cols = cols.filter(pa.compute.is_valid(cols[key_col]))
        keys = cols[key_col].to_pandas()
        vals = cols["v"].to_numpy(zero_copy_only=False).astype(np.float64)
        codes, uniq = pd.factorize(keys, sort=False)
        order = np.argsort(codes, kind="stable")
        sorted_codes = codes[order]
        bounds = np.flatnonzero(
            np.r_[True, sorted_codes[1:] != sorted_codes[:-1]]
        )
        bounds = np.append(bounds, len(sorted_codes))
        sv = vals[order]
        tds = [
            TDigest.of(sv[bounds[i]:bounds[i + 1]], delta).to_bytes()
            for i in range(len(uniq))
        ]
        return pa.table({key_col: pa.Array.from_pandas(pd.Series(uniq)),
                         "td": pa.array(tds, pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)

    def per_bucket(g: "pd.DataFrame") -> "pd.DataFrame":
        out = {key_col: [], **{n: [] for n in qnames}}
        for k, sub in g.groupby(key_col, sort=False):
            acc = TDigest(np.zeros(0), np.zeros(0), None, None, delta)
            for buf in sub["td"]:
                acc = acc.merge(TDigest.from_bytes(buf))
            out[key_col].append(k)
            for n, q in zip(qnames, qs):
                out[n].append(acc.quantile(q))
        return pd.DataFrame(out)

    return grouped_apply(parts, key_col, per_bucket, num_buckets=num_buckets)


def approx_distinct_per_key(ds, key: str, col: str, p: int = 12,
                            as_pandas: bool = True):
    """Approximate ``COUNT(DISTINCT col) GROUP BY key`` — the mergeable
    HLL counterpart of ``stages.aggregate.distinct_count_per_key`` for
    when the distinct set per key is too large to ship exactly.

    Per batch, every key gets its own 2^p register array built with ONE
    vectorized scatter over (key_idx * m + register_idx); the tiny
    (key, registers) partials stream to the driver and merge by max
    (stream-fold pattern, memory O(keys * 2^p bytes)).  Deterministic:
    independent of partitioning, batch order and retries."""
    import pandas as pd

    m = 1 << p

    def partial(t: pa.Table) -> pd.DataFrame:
        t = t.filter(pc.is_valid(t[col]))
        n = t.num_rows
        if n == 0:
            return pd.DataFrame({"k": pd.array([], dtype="object"),
                                 "regs": pd.array([], dtype="object")})
        keys = pd.Series(t[key].to_numpy(zero_copy_only=False))
        kf, uniq = pd.factorize(keys, use_na_sentinel=False)
        h = _hash_column(t[col])
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        w = (h << np.uint64(p)) & _MASK
        hi = (w >> np.uint64(32)).astype(np.float64)
        lo = (w & np.uint64(0xFFFFFFFF)).astype(np.float64)
        bitlen = np.where(
            hi > 0,
            np.floor(np.log2(np.maximum(hi, 1))) + 33,
            np.where(lo > 0, np.floor(np.log2(np.maximum(lo, 1))) + 1, 0),
        ).astype(np.int64)
        rank = np.minimum(64 - bitlen + 1, 64 - p + 1).astype(np.uint8)
        regs = np.zeros((len(uniq), m), np.uint8)
        np.maximum.at(regs.reshape(-1), kf * m + idx, rank)
        return pd.DataFrame({
            "k": list(uniq),
            "regs": [regs[i].tobytes() for i in range(len(uniq))],
        })

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    acc: dict = {}
    for chunk in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        for kv, buf in zip(chunk["k"].to_pylist(), chunk["regs"].to_pylist()):
            r = np.frombuffer(buf, np.uint8)
            prev = acc.get(kv)
            acc[kv] = r if prev is None else np.maximum(prev, r)

    def _order(kv):
        return (kv is None, kv)

    keys_sorted = sorted(acc, key=_order)
    out = pd.DataFrame({
        key: keys_sorted,
        "approx_distinct": [hll_estimate(acc[kv]) for kv in keys_sorted],
    })
    out["approx_distinct"] = out["approx_distinct"].astype("int64")
    return out if as_pandas else pa.Table.from_pandas(out, preserve_index=False)


# ---------------------------------------------------------------------------
# Count-Min sketch (Cormode & Muthukrishnan 2005): approximate per-key
# counts with one fixed-size mergeable array
# ---------------------------------------------------------------------------

_CM_SALTS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                      0x165667B19E3779F9, 0x27D4EB2F165667C5],
                     dtype=np.uint64)


def cm_table(col, width: int = 2048, depth: int = 4) -> np.ndarray:
    """Fold one Arrow column into a (depth, width) int64 Count-Min table.

    Each row d scatter-adds value occurrences at
    ``finalize(h * salt_d) % width``.  Tables MERGE BY ELEMENTWISE SUM
    (the partial is a plain linear projection of the count vector), so
    repartitioning/retries cannot change the folded table — the exact
    combiner-shape contract the other sketches here follow.
    """
    h = _hash_column(col)
    tab = np.zeros((depth, width), dtype=np.int64)
    for d in range(depth):
        idx = _finalize((h * _CM_SALTS[d]) & _MASK) % np.uint64(width)
        np.add.at(tab[d], idx.astype(np.int64), 1)
    return tab


def cm_estimate(tab: np.ndarray, keys, key_type=None) -> np.ndarray:
    """Point-estimate counts for ``keys`` (min over depth rows — always an
    OVERestimate: error <= 2N/width with prob 1 - 2^-depth)."""
    arr = pa.array(keys, type=key_type) if not isinstance(keys, (pa.Array, pa.ChunkedArray)) else keys
    if arr.null_count:
        raise ValueError("cm_estimate: null probe keys would silently "
                         "misalign results with inputs — drop them first")
    h = _hash_column(arr)
    depth, width = tab.shape
    est = np.full(len(h), np.iinfo(np.int64).max, dtype=np.int64)
    for d in range(depth):
        idx = _finalize((h * _CM_SALTS[d]) & _MASK) % np.uint64(width)
        est = np.minimum(est, tab[d][idx.astype(np.int64)])
    return est


def cm_counts(ds, col: str, keys, width: int = 2048, depth: int = 4,
              key_type=None):
    """Approximate counts of ``keys`` in ``ds[col]`` via a distributed
    Count-Min fold: one streaming pass emitting a (depth*width) int64
    partial per block, summed on the driver (order-free — integer sums),
    then probed once.  Nulls are ignored (COUNT(col) semantics).

    The 100 TB shape for "how often does each of these M keys occur"
    when the key UNIVERSE is huge but the probe set is small: no
    shuffle, no groupby — the sketch is ~64 KiB regardless of corpus
    size, and widths sized >> distinct-count make the estimate exact
    with high probability (collision-free paths are exact by
    construction; tests pin both regimes).
    """

    def partial(t: pa.Table) -> pa.Table:
        tab = cm_table(t[col], width, depth)
        return pa.table({"t": pa.array([tab.tobytes()], pa.binary())})

    parts = ds.map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
    tab = np.zeros((depth, width), dtype=np.int64)
    for chunk in parts.iter_batches(batch_size=None, batch_format="pyarrow"):
        for buf in chunk["t"].to_pylist():
            tab += np.frombuffer(buf, np.int64).reshape(depth, width)
    import pandas as pd

    est = cm_estimate(tab, keys, key_type)
    return pd.DataFrame({col: list(keys), "approx_count": est})
