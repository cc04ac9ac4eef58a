"""Seeded, deterministic sampling operators.

A training-data pipeline needs samples that are (a) reproducible across
runs and cluster sizes and (b) cheap at 100 TB.  Both operators therefore
key off a deterministic multiplicative hash of an integer id column instead
of an RNG stream: membership is a pure function of (id, seed), so the
sample is stable under repartitioning, retries and resume, and the filter
is an embarrassingly-parallel ``map_batches`` with no shuffle
(``reservoir_per_key`` adds one key-partitioned shuffle of the already
per-batch-pruned candidates).  The hash is SQL-expressible, so every
sample has an exact DuckDB oracle (see the ``*_sql`` twins).

Assumes non-negative ids (DuckDB's ``%`` is sign-following, numpy's is
not; testdata and the transcript schema use non-negative keys).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_KNUTH = 2654435761  # Knuth multiplicative hash constant (2^32 / phi)
_M31 = 2_147_483_648  # 2**31
_M32 = 4_294_967_296  # 2**32


def _det_hash(ids: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic hash into [0, 2**32): ((id % 2^31 + seed)*KNUTH) % 2^32.

    The seed is added BEFORE the multiply so it decorrelates the whole draw
    (an additive post-multiply seed only shifts hashes by a constant, which
    barely changes threshold membership).  The id is reduced mod 2^31 first
    so the product fits int64 exactly on both the numpy side and the DuckDB
    BIGINT side (no wraparound divergence); requires ``seed < 2**30``."""
    if not 0 <= seed < (1 << 30):
        raise ValueError("seed must be in [0, 2**30)")
    v = ids.astype(np.int64)
    if len(v) and v.min() < 0:
        # numpy's % is always non-negative, DuckDB's follows the sign —
        # negative ids would silently diverge from the SQL twin
        raise ValueError("deterministic sampling requires non-negative ids")
    v = v % _M31
    return ((v + seed) * _KNUTH) % _M32


def _hash_sql(id_col: str, seed: int) -> str:
    return f"(({id_col} % {_M31} + {seed}) * {_KNUTH}) % {_M32}"


def sample_uniform(ds, p: float, id_col: str, seed: int = 0):
    """Deterministic Bernoulli(p) sample: keep a row iff its id hash falls
    below ``p * 2**32``.  Pure per-batch filter — no shuffle, stable under
    any partitioning."""
    thresh = int(p * _M32)

    def keep(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return t.filter(pa.array(_det_hash(ids, seed) < thresh))

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def sample_uniform_sql(table: str, p: float, id_col: str, seed: int = 0,
                       cols: str = "*") -> str:
    """DuckDB oracle for :func:`sample_uniform` (identical membership)."""
    thresh = int(p * _M32)
    return f"SELECT {cols} FROM {table} WHERE {_hash_sql(id_col, seed)} < {thresh}"


def reservoir_per_key(ds, key: str, n: int, id_col: str, seed: int = 0,
                      batch_size: int | None = None, num_buckets: int = 32):
    """Deterministic per-key reservoir: the ``n`` rows with the smallest
    (hash(id), id) per key — an unbiased uniform-without-replacement draw
    per key under a random-oracle hash, but reproducible and
    partition-independent (the classic bottom-k sketch).

    Scale shape: each batch first prunes to its local bottom-n per key
    (vectorized sort + groupby head), so the shuffle moves at most
    ``n * distinct_keys_per_batch`` rows; the shuffle key is
    ``hash(key) % num_buckets`` and each bucket selects the global
    bottom-n for ALL its keys with one vectorized groupby-head (never one
    Ray group per key)."""

    from logray.stages.bucketing import BUCKET_COL, bucket_exchange, bucket_of

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(__h=_det_hash(df[id_col].to_numpy(), seed))
        df = df.assign(**{BUCKET_COL: bucket_of(df[key].to_numpy(),
                                                num_buckets)})
        df = df.sort_values(["__h", id_col], kind="mergesort")
        return df.groupby(key, sort=False).head(n)

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__h", id_col], kind="mergesort")
        return g.groupby(key, sort=False).head(n).drop(columns="__h")

    pre = ds.map_batches(partial, batch_format="pandas", batch_size=batch_size)
    return bucket_exchange(pre, per_bucket)


def reservoir_per_key_sql(table: str, key: str, n: int, id_col: str,
                          seed: int = 0, cols: str = "*") -> str:
    """DuckDB oracle for :func:`reservoir_per_key` (identical selection)."""
    return (
        f"SELECT {cols} FROM {table} QUALIFY row_number() OVER "
        f"(PARTITION BY {key} ORDER BY {_hash_sql(id_col, seed)}, {id_col}) <= {n}"
    )


def _split_bounds(fractions: dict):
    """Shared cut-point rule for the split taggers: cumulative fractions
    over [0, 2^32), remainder to the LAST name."""
    names = list(fractions)
    cum = np.cumsum([fractions[n] for n in names])
    if cum[-1] > 1 + 1e-9:
        raise ValueError("fractions sum to > 1")
    bounds = (cum * _M32).astype(np.int64)
    bounds[-1] = _M32
    return names, bounds


def _split_labels(h: np.ndarray, names, bounds) -> pa.Array:
    """Map hashes to split names via the shared cut points."""
    idx = np.searchsorted(bounds, h, side="right")
    idx = np.minimum(idx, len(names) - 1)
    return pa.array(np.array(names, dtype=object)[idx].tolist(), pa.string())


def _mixture_plan(rates: dict, default_rate: float):
    """Per-key (full_copies, fractional int threshold) — precomputed in
    Python ints so the engine and the SQL twin share EXACT thresholds (no
    float expression ever evaluates inside either engine)."""
    def one(r: float):
        if r < 0:
            raise ValueError("mixture rate must be >= 0")
        full = int(r)
        return full, int(round((r - full) * _M32))

    return {k: one(r) for k, r in rates.items()}, one(default_rate)


def mixture_sample(ds, rates: dict, key_col: str, id_col: str, seed: int = 0,
                   default_rate: float = 0.0, copy_col: str = "copy_idx"):
    """Domain-mixture resampling: each row is emitted ``floor(rate)`` times
    plus one more with probability ``frac(rate)``, where ``rate`` is the
    row's key's target rate (``default_rate`` for unlisted keys) — the
    up/down-sampling step behind Pile/Dolma-style training mixtures
    (rate < 1 downsamples a domain, rate > 1 repeats it).  Emitted copies
    carry ``copy_col`` = 1..n.

    Deterministic: the fractional draw is the same (id, seed) hash as
    :func:`sample_uniform`, so the mixture is stable under repartitioning,
    retries and resume.  Pure per-batch expansion — NO shuffle; the rates
    table rides into tasks as a tiny closure dict (broadcast once)."""
    plan, dflt = _mixture_plan(rates, default_rate)
    full_map = {k: v[0] for k, v in plan.items()}
    thr_map = {k: v[1] for k, v in plan.items()}

    def expand(t: pa.Table) -> pa.Table:
        keys = pd.Series(t[key_col].to_numpy(zero_copy_only=False))
        full = keys.map(full_map).fillna(dflt[0]).to_numpy(np.int64)
        thr = keys.map(thr_map).fillna(dflt[1]).to_numpy(np.int64)
        h = _det_hash(t[id_col].to_numpy(zero_copy_only=False), seed)
        n = full + (h < thr)
        idx = np.repeat(np.arange(len(n), dtype=np.int64), n)
        out = t.take(pa.array(idx))
        starts = np.repeat(np.cumsum(n) - n, n)
        copy_idx = np.arange(len(idx), dtype=np.int64) - starts + 1
        return out.append_column(copy_col, pa.array(copy_idx))

    return ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True)


def mixture_sample_sql(table: str, rates: dict, key_col: str, id_col: str,
                       seed: int = 0, default_rate: float = 0.0,
                       cols: str = "*", copy_col: str = "copy_idx") -> str:
    """DuckDB oracle for :func:`mixture_sample` (identical copies)."""
    plan, dflt = _mixture_plan(rates, default_rate)

    def case(pick: int, default_v: int) -> str:
        whens = " ".join(
            f"WHEN '{k}' THEN {v[pick]}" for k, v in plan.items()
        )
        return f"CASE {key_col} {whens} ELSE {default_v} END"

    h = _hash_sql(id_col, seed)
    n_expr = (
        f"{case(0, dflt[0])} + CASE WHEN {h} < {case(1, dflt[1])} "
        f"THEN 1 ELSE 0 END"
    )
    return (
        f"SELECT {cols}, unnest(generate_series(1, n)) AS {copy_col} "
        f"FROM (SELECT {cols}, {n_expr} AS n FROM {table})"
    )


def _key_counts(ds, key_col: str) -> dict:
    """Exact per-key counts: pruned read + per-batch value_counts partials
    folded on the driver (integer sums — order-free)."""
    def part(t: pa.Table) -> pa.Table:
        vc = pc.value_counts(t[key_col])
        return pa.table({"k": vc.field("values"), "c": vc.field("counts")})

    parts = ds.map_batches(part, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None).to_pandas()
    return parts.groupby("k")["c"].sum().astype(int).to_dict()


def temperature_mixture(ds, key_col: str, id_col: str, alpha: float,
                        seed: int = 0, copy_col: str = "copy_idx",
                        round_rates: int = 6):
    """Temperature-flattened source mixing (the multilingual-LM recipe:
    sample sources proportional to count^alpha).  Effective per-key
    counts become ``N * c_k^alpha / sum(c^alpha)`` — total preserved in
    expectation, small sources upsampled (rate > 1 repeats rows), large
    sources downsampled — realized through the deterministic
    :func:`mixture_sample` expansion with computed rates
    ``rate_k = round(N * c_k^alpha / S / c_k, round_rates)``.

    alpha = 1 keeps the natural distribution (all rates 1); alpha = 0
    flattens to uniform.  NULL-key rows are excluded from the counts and
    dropped from the output (rate 0), matching the SQL twin's inner join
    over non-null keys.  Cost: ONE exact counts pass over the pruned
    key column, then the shuffle-free per-batch expansion.  The rounding
    makes the Python-computed rates and the SQL twin's
    (:func:`temperature_mixture_sql`, which recomputes them in DuckDB)
    agree bit-for-bit except on ~1e-10-probability rounding boundaries.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    counts = _key_counts(ds, key_col)
    if not counts:
        return mixture_sample(ds, {}, key_col, id_col, seed,
                              copy_col=copy_col)
    n = float(sum(counts.values()))
    s = sum(float(c) ** alpha for c in counts.values())
    rates = {k: round(n * float(c) ** alpha / s / float(c), round_rates)
             for k, c in counts.items()}
    return mixture_sample(ds, rates, key_col, id_col, seed,
                          copy_col=copy_col)


def temperature_mixture_sql(table: str, key_col: str, id_col: str,
                            alpha: float, seed: int = 0, cols: str = "*",
                            copy_col: str = "copy_idx",
                            round_rates: int = 6) -> str:
    """Self-contained DuckDB oracle for :func:`temperature_mixture`
    (recomputes counts, rates, floor/threshold and the hash draw)."""
    h = _hash_sql(f"t.{id_col}", seed)
    col_list = ", ".join(f"t.{c.strip()}" for c in cols.split(","))
    return f"""
        WITH __tc AS (
          SELECT {key_col} AS k, CAST(count(*) AS DOUBLE) AS cnt
          FROM {table} WHERE {key_col} IS NOT NULL GROUP BY {key_col}),
        __tr AS (
          SELECT k, round((SELECT sum(cnt) FROM __tc) * pow(cnt, {alpha})
                    / (SELECT sum(pow(cnt, {alpha})) FROM __tc)
                    / cnt, {round_rates}) AS rate FROM __tc)
        SELECT {cols}, unnest(generate_series(1, n)) AS {copy_col}
        FROM (
          SELECT {col_list},
                 CAST(floor(r.rate) AS BIGINT) +
                 CASE WHEN {h} < CAST(round((r.rate - floor(r.rate))
                      * {_M32}) AS BIGINT) THEN 1 ELSE 0 END AS n
          FROM {table} t JOIN __tr r ON t.{key_col} = r.k)
    """


def stratified_split(ds, fractions: dict, id_col: str, seed: int = 0,
                     split_col: str = "split"):
    """Append a deterministic train/val/test-style ``split_col``: each row's
    bucket is a pure function of (id, seed), so the split is stable under
    repartitioning, retries and incremental reprocessing (new rows join a
    split without reshuffling old ones).  ``fractions`` maps name ->
    fraction; fractions must sum to <= 1 and any remainder goes to the
    LAST name.  No shuffle — one vectorized hash + searchsorted per batch."""
    names, bounds = _split_bounds(fractions)

    def tag(t: pa.Table) -> pa.Table:
        h = _det_hash(t[id_col].to_numpy(zero_copy_only=False), seed)
        labels = _split_labels(h, names, bounds)
        if split_col in t.column_names:
            t = t.drop_columns([split_col])
        return t.append_column(split_col, labels)

    return ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def stratified_split_sql(table: str, fractions: dict, id_col: str,
                         seed: int = 0, cols: str = "*",
                         split_col: str = "split") -> str:
    """DuckDB oracle for :func:`stratified_split` (identical assignment)."""
    names, bounds = _split_bounds(fractions)
    h = _hash_sql(id_col, seed)
    case = "CASE "
    for name, b in zip(names[:-1], bounds[:-1]):
        case += f"WHEN {h} < {b} THEN '{name}' "
    case += f"ELSE '{names[-1]}' END AS {split_col}"
    return f"SELECT {cols}, {case} FROM {table}"


def group_split(ds, fractions: dict, key_col: str, seed: int = 0,
                split_col: str = "split"):
    """Leakage-free grouped split: every row of a GROUP (same ``key_col``
    value — a conversation, a user, a domain) lands in the same split,
    because the draw hashes the group key, not the row id.  This is the
    split a training pipeline actually needs: hashing row ids scatters a
    conversation's turns across train and test (contamination by shared
    context); hashing the key keeps whole groups together.

    Integer keys go straight through the shared Knuth hash (exact DuckDB
    twin, :func:`group_split_sql`); string keys are FNV-1a-hashed to
    int64 first (:func:`logray.functions.fingerprint.content_hash`),
    which has no SQL twin (rows-only oracle).  Same cut-point rule as
    :func:`stratified_split`: cumulative fractions over [0, 2^32),
    remainder to the last name.  No shuffle — one vectorized hash +
    searchsorted per batch, stable under repartitioning and retries."""
    names, bounds = _split_bounds(fractions)

    def tag(t: pa.Table) -> pa.Table:
        col = t[key_col]
        if pa.types.is_integer(col.type):
            keys = col.to_numpy(zero_copy_only=False)
        else:
            from logray.functions.fingerprint import content_hash

            # non-negative int64 from the byte content; mod 2^31 happens
            # inside _det_hash
            keys = (content_hash(col) >> np.uint64(1)).astype(np.int64)
        h = _det_hash(keys, seed)
        labels = _split_labels(h, names, bounds)
        if split_col in t.column_names:
            t = t.drop_columns([split_col])
        return t.append_column(split_col, labels)

    return ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def group_split_sql(table: str, fractions: dict, key_col: str,
                    seed: int = 0, cols: str = "*",
                    split_col: str = "split") -> str:
    """DuckDB oracle for :func:`group_split` over an INTEGER key column."""
    return stratified_split_sql(table, fractions, key_col, seed=seed,
                                cols=cols, split_col=split_col)


def weighted_sample(ds, k: int, id_col: str, weight_col: str, seed: int = 0):
    """Deterministic weighted sample WITHOUT replacement (Efraimidis–
    Spirakis exponential race): each row draws priority
    ``-ln(u) / w`` from its deterministic id-hash uniform ``u`` and the k
    SMALLEST priorities win — inclusion probability follows the weights,
    and the draw is a pure function of (id, seed): stable under
    repartitioning, retries and cluster size.

    Scale shape: per-batch local bottom-k prune (the reservoir combiner),
    tiny partials merged on the driver.  No SQL twin — ln/pow differ by
    ulps across engines, which flips selections at the boundary; the
    exactness contract is the driver-side replica test instead.  Weights
    must be positive."""
    if k <= 0:
        raise ValueError("k must be positive")

    def part(df: pd.DataFrame) -> pd.DataFrame:
        w = df[weight_col].to_numpy(np.float64)
        if len(w) and w.min() <= 0:
            raise ValueError("weighted_sample needs positive weights")
        u = (_det_hash(df[id_col].to_numpy(), seed).astype(np.float64) + 0.5) / _M32
        df = df.assign(__p=-np.log(u) / w)
        return df.nsmallest(min(k, len(df)), "__p", keep="all")

    parts = ds.map_batches(part, batch_format="pandas").to_pandas()
    # deterministic tiebreak on id (priority ties arise only from
    # duplicate ids, but concat order of partials is not deterministic)
    out = parts.sort_values(["__p", id_col], kind="mergesort").head(k)
    return out.drop(columns="__p").reset_index(drop=True)


def budget_sample(ds, key: str, id_col: str, weight_col: str, budget: int,
                  seed: int = 0, num_buckets: int = 32):
    """Deterministic per-key BUDGET sample: within each key, rows are
    ordered by (hash(id), id) — a reproducible random priority — and kept
    while the inclusive running sum of ``weight_col`` stays <= budget
    (the "sample each domain down to a token budget" step of training-data
    mixing; weights are token counts).  Integer weights only, so the
    running sum is exact on both sides.

    Scale shape: ONE ``hash(key) % num_buckets`` shuffle, then a
    vectorized segmented cumsum per bucket.  Partition-independent:
    membership depends only on (key, id, weight)."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        cols = list(g.columns)
        w_np = g[weight_col].to_numpy()
        if len(w_np) and not np.issubdtype(w_np.dtype, np.integer):
            raise TypeError(
                f"budget_sample needs an integer weight column; "
                f"{weight_col} is {w_np.dtype}")
        g = g.assign(__h=_det_hash(g[id_col].to_numpy(), seed))
        g = g.sort_values([key, "__h", id_col], kind="mergesort")
        from logray.stages.bucketing import run_starts

        starts = run_starts(g[key].to_numpy())
        w = g[weight_col].to_numpy().astype(np.int64)
        cum = np.cumsum(w)
        base = np.repeat(cum[starts] - w[starts], np.diff(
            np.append(np.flatnonzero(starts), len(w))))
        keep = (cum - base) <= budget
        return g.loc[keep, cols]

    from logray.stages.bucketing import grouped_apply

    return grouped_apply(ds, key, per_bucket, num_buckets=num_buckets)


def budget_sample_sql(table: str, key: str, id_col: str, weight_col: str,
                      budget: int, seed: int = 0, cols: str = "*") -> str:
    """DuckDB oracle for :func:`budget_sample` (identical priority order
    and inclusive running sum)."""
    return (
        f"SELECT {cols} FROM ("
        f"SELECT *, sum({weight_col}) OVER ("
        f"PARTITION BY {key} ORDER BY {_hash_sql(id_col, seed)}, {id_col} "
        f"ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS __cum "
        f"FROM {table}) WHERE __cum <= {budget}"
    )


def deterministic_shuffle(ds, id_col: str, seed: int = 0,
                          key_col: str = "shuffle_key"):
    """Reproducible global training-order shuffle: every row gets the
    deterministic hash key ``(id % 2^31 + seed) * KNUTH % 2^32`` and the
    corpus is globally sorted by ``(key, id)``.

    ``ds.random_shuffle()`` gives a DIFFERENT order per run and per
    cluster size; a training pipeline that must replay the exact example
    order (resume mid-epoch, ablate data order, bisect a loss spike)
    needs the order to be a pure function of (id, seed) — re-running on
    any topology rebuilds byte-identical shards, and a new epoch is just
    a new seed.  Cost: the one all-to-all sort shuffle any global
    reorder pays; Ray's sort range-partitions on sampled key pivots, and
    the hash destroys input clustering so ranges are uniform by
    construction (no skew).  The key column stays in the output (audit +
    exact oracle); drop it downstream if unwanted."""

    def tag(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        return t.append_column(key_col,
                               pa.array(_det_hash(ids, seed).astype(np.int64)))

    return ds.map_batches(tag, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None).sort([key_col, id_col])


def deterministic_shuffle_sql(table: str, id_col: str, seed: int = 0,
                              key_col: str = "shuffle_key",
                              cols: str = "*") -> str:
    """DuckDB oracle for :func:`deterministic_shuffle` (same key, same
    total order)."""
    return (
        f"SELECT {cols}, {_hash_sql(id_col, seed)} AS {key_col} "
        f"FROM {table} ORDER BY {key_col}, {id_col}"
    )
