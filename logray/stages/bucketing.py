"""Shared primitives for the two recurring scale patterns.

- :func:`bucket_tagger` — the ``hash(key) % num_buckets`` batch tagger
  behind every bucketed-group operator (sessionize, turn_context,
  fold_dialogues, grouped_quantiles, asof_join, ...).  One definition, so
  a change to the partitioning hash reaches every operator at once.
- :func:`bucket_exchange` — the ONE bucket shuffle: co-locate the rows of
  each :data:`BUCKET_COL` value and call ``fn`` once per bucket, with the
  tag column already stripped.  Every hash-bucket shuffle in logray runs
  through it (:func:`grouped_apply` is tagger + exchange; operators with
  their own bucket id write :data:`BUCKET_COL` and call it directly), so
  the shuffle strategy is set here and nowhere else.  It is a split ->
  reduce on plain Ray tasks (no Ray ``groupby`` sort), its reduce-task
  count set by the one sizing rule :func:`reduce_tasks`, and it is
  EAGER: the input runs when the exchange is called.
- :func:`stream_fold` — the bounded-memory driver fold: stream partial
  batches, re-fold whenever the pending buffer passes ``max_pending_rows``
  (memory stays O(distinct keys), the pull overlaps distributed
  execution).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


# bump whenever the bucket-assignment hash changes: resumable runs
# checkpoint phase outputs partitioned by this hash, and resuming a
# half-finished run under a different assignment silently corrupts it
# (state/manifest.py::check_run_config compares this marker)
HASH_VERSION = "canonical-f64-v2"

# the bucket-id column :func:`bucket_exchange` groups on and strips
BUCKET_COL = "__b"


def key_hashes(keys: np.ndarray) -> np.ndarray:
    """Dtype-canonical uint64 hash per key: equal LOGICAL values hash
    identically regardless of physical representation.  Without this, an
    int64 batch containing any null comes out of ``to_numpy`` as float64
    (NaN for nulls), so its non-null keys hash to different buckets than
    the same keys in a null-free batch — silently splitting one key
    across buckets (dropped join matches, duplicated window partials).

    Canonical form: ints / uints / bools / floats of every width hash
    through float64 (lossless for f16/f32; -0.0 normalized to +0.0 since
    they compare equal), datetimes/timedeltas through their [ns] int64
    view (so the same instant hashes identically across units; dates past
    2262 are out of ns range and out of scope), and object arrays that
    pandas infers as boolean/numeric (a nullable bool batch comes out of
    to_numpy as OBJECT, not bool) coerce to the same float64 path.  Equal
    values always map to the same float64, so they can never split;
    distinct giant ints colliding past 2^53 only merges buckets, which
    is harmless.  Strings hash as objects."""
    k = np.asarray(keys)
    if k.dtype == object and len(k):
        inferred = pd.api.types.infer_dtype(k, skipna=True)
        if inferred in ("boolean", "integer", "floating",
                        "mixed-integer-float", "empty"):
            k = pd.to_numeric(pd.Series(k), errors="coerce").to_numpy(
                np.float64)
        elif inferred in ("datetime", "datetime64", "date"):
            k = pd.to_datetime(pd.Series(k), errors="coerce").to_numpy()
    if k.dtype.kind in "iub":
        k = k.astype(np.float64)
    elif k.dtype.kind in "Mm":
        k = k.astype(f"{k.dtype.kind}8[ns]", copy=False).view(
            np.int64).astype(np.float64)
    elif k.dtype.kind == "f":
        # float64 for every width; +0.0 for -0.0 (they compare equal)
        k = k.astype(np.float64) + 0.0
    return pd.util.hash_array(k).astype(np.uint64)


def arrow_type_of(typ) -> pa.DataType | None:
    """Resolve a Dataset schema entry — a ``pa.DataType``, or a numpy
    dtype / the ``object`` class on pandas-block schemas — to an Arrow
    type; None when it cannot be expressed (object blocks).  The join
    planner's one definition of "Arrow-able"."""
    if isinstance(typ, pa.DataType):
        return typ
    try:
        return pa.from_numpy_dtype(typ)
    except (pa.ArrowNotImplementedError, TypeError):
        return None


def _string_buckets(col, num_buckets: int) -> np.ndarray:
    """:func:`key_hashes` buckets of a string / large_string Arrow column,
    hashing each distinct value once: ``dictionary_encode``, hash the
    dictionary, index by ``indices``.  Nulls are pinned to bucket 0."""
    import pyarrow.compute as pc

    d = pa.chunked_array(col).dictionary_encode().unify_dictionaries()
    if d.num_chunks == 0:
        return np.zeros(0, np.int64)
    uniq = d.chunk(0).dictionary
    b = np.append(key_hashes(uniq.to_numpy(zero_copy_only=False))
                  % num_buckets, 0).astype(np.int64)
    idx = pc.fill_null(pa.chunked_array([c.indices for c in d.chunks]),
                       len(uniq))
    return b[idx.to_numpy()]


def _is_string(typ) -> bool:
    return pa.types.is_string(typ) or pa.types.is_large_string(typ)


def bucket_tagger(key_col: str, num_buckets: int):
    """map_batches fn appending ``BUCKET_COL = hash(key_col) % num_buckets``
    (dtype-canonical, see :func:`key_hashes`; a string key hashes each
    distinct value once, :func:`_string_buckets`).

    Null keys are pinned to bucket 0: their hash is NOT stable across
    block dtypes (an all-null block infers a null-typed Arrow column
    whose numpy form is object-None, while a mixed block yields float
    NaN — the two hash differently), and a null key split across buckets
    would emit duplicate partials from every grouped operator."""

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        col = t[key_col]
        if _is_string(col.type):
            return t.append_column(BUCKET_COL, pa.array(
                _string_buckets(col, num_buckets)))
        kh = key_hashes(col.to_numpy(zero_copy_only=False))
        b = (kh % num_buckets).astype(np.int64)
        valid = pc.is_valid(col).to_numpy(zero_copy_only=False)
        b[~np.asarray(valid, np.bool_)] = 0
        return t.append_column(BUCKET_COL, pa.array(b))

    return tag


def bucket_of(keys, num_buckets: int) -> np.ndarray:
    """The same bucket assignment for code already holding a numpy array
    or an Arrow column (nulls pinned to bucket 0, see
    :func:`bucket_tagger`)."""
    if isinstance(keys, (pa.Array, pa.ChunkedArray)):
        if _is_string(keys.type):
            return _string_buckets(keys, num_buckets)
        keys = keys.to_numpy(zero_copy_only=False)
    b = (key_hashes(keys) % num_buckets).astype("int64")
    b[pd.isna(keys)] = 0
    return b


def run_starts(keys: np.ndarray) -> np.ndarray:
    """Boolean mask marking the first row of each key run in a SORTED key
    array, pooling nulls into ONE run (SQL GROUP BY semantics): a naive
    ``keys[1:] != keys[:-1]`` makes every float-NaN row its own group
    because NaN != NaN."""
    n = len(keys)
    mask = np.ones(n, np.bool_)
    if n > 1:
        na = pd.isna(keys)
        mask[1:] = (keys[1:] != keys[:-1]) & ~(na[1:] & na[:-1])
    return mask


def stream_fold(partials_ds, fold_fn, max_pending_rows: int = 4_000_000):
    """Fold a Dataset of partial Arrow batches on the driver with bounded
    memory.  ``fold_fn(list[pa.Table]) -> pa.Table`` must be associative
    and idempotent over refolds.  Returns the folded table, or None for an
    empty stream."""
    pending: list[pa.Table] = []
    pending_rows = 0
    for chunk in partials_ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        pending.append(chunk)
        pending_rows += chunk.num_rows
        if pending_rows > max_pending_rows:
            pending = [fold_fn(pending)]
            pending_rows = pending[0].num_rows
    if not pending:
        return None
    return fold_fn(pending)


def bucket_sizes(ds, key_col: str, num_buckets: int = 32) -> np.ndarray:
    """Per-bucket row counts for the ``hash(key) % num_buckets``
    assignment — the SKEW DIAGNOSTIC to run before a bucketed operator
    on an unknown key distribution.  One cheap streaming pass (a
    ``bincount`` partial per batch summed on the driver); the dataset
    never shuffles.

    Sizing rule for ``num_buckets``: a bucket is one pandas frame in one
    task's heap, so pick B such that ``rows / B * row_width`` stays
    under ~1 GiB — but note B only divides the WELL-DISTRIBUTED mass.
    A single key hotter than that budget lands in one bucket REGARDLESS
    of B (raising B past ~4x the worker count only adds scheduling
    overhead).  If ``bucket_sizes`` shows one bucket holding more than
    a few multiples of the mean, either pre-reduce per batch before the
    shuffle (the combiner pattern — see funnel's stage-row prune) or
    use an operator's sorted skew-safe plan
    (``transition_counts(skew_safe=True)``), which bounds per-task
    memory by BLOCK size, not key mass."""

    def part(t: pa.Table) -> pa.Table:
        b = bucket_of(t[key_col], num_buckets)
        return pa.table({"c": pa.array(
            np.bincount(b, minlength=num_buckets).astype(np.int64))})

    tot = np.zeros(num_buckets, np.int64)
    out = ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True,
                         batch_size=None)
    for chunk in out.iter_batches(batch_size=None, batch_format="pyarrow"):
        c = chunk["c"].to_numpy(zero_copy_only=False)
        tot += c.reshape(-1, num_buckets).sum(axis=0)
    return tot


def reduce_tasks(num_blocks: int, num_bytes: int, cpus: int,
                 target_block_bytes: int | None) -> int:
    """THE sizing rule for the exchange's reduce-task count ``k``:
    ``max(min(cpus, num_blocks), ceil(num_bytes / target_block_bytes), 1)``.
    Parallel reducers up to the cluster's CPUs (never more than there are
    input blocks to split), and enough of them that each holds about one
    Ray block of the tagged input (``DataContext.target_max_block_size``).
    Every reduce task is one more split output per block and one more task
    to schedule, so on a small host one reducer beats many."""
    k = min(cpus, num_blocks)
    if target_block_bytes:
        k = max(k, -(-num_bytes // target_block_bytes))
    return max(k, 1)


def _split(block, k: int):
    """Split task: the rows of one tagged block ordered stably by
    (``b % k``, ``b``) and cut into ``k`` slices, slice ``j`` holding the
    buckets of reducer ``j``; the last return is the per-reducer row
    count."""
    from ray.data.block import BlockAccessor

    acc = BlockAccessor.for_block(block)
    if acc.num_rows() == 0:  # a schema-less empty block has no tag column
        return (*[block] * k, np.zeros(k, np.int64))
    b = np.asarray(acc.to_numpy(BUCKET_COL), np.int64)
    r = b % k
    counts = np.bincount(r, minlength=k)
    acc = BlockAccessor.for_block(acc.take(np.lexsort((b, r))))
    ends = np.cumsum(counts)
    return (*[acc.slice(int(e - c), int(e), copy=False)
              for c, e in zip(counts, ends)], counts)


def _reduce(fn, batch_format: str, *parts):
    """Reduce task: concatenate this reducer's slices in input-block order
    (``DelegatingBlockBuilder``: Arrow or pandas blocks, and unions whose
    blocks carry different schemas), stable-sort on :data:`BUCKET_COL` and
    call ``fn`` once per bucket on the tag-stripped frame.  Returns the
    output block and whether it is a pandas block."""
    from ray.data._internal.delegating_block_builder import \
        DelegatingBlockBuilder
    from ray.data.block import BlockAccessor

    builder = DelegatingBlockBuilder()
    for part in parts:
        builder.add_block(part)
    acc = BlockAccessor.for_block(builder.build())
    out = DelegatingBlockBuilder()
    if acc.num_rows():
        b = np.asarray(acc.to_numpy(BUCKET_COL), np.int64)
        order = np.argsort(b, kind="stable")
        acc = BlockAccessor.for_block(acc.take(order))
        b = b[order]
        bounds = [0, *(np.flatnonzero(b[1:] != b[:-1]) + 1), len(b)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            g = BlockAccessor.for_block(acc.slice(lo, hi, copy=False)) \
                .to_batch_format(batch_format)
            out.add_batch(fn(g.drop_columns([BUCKET_COL])
                             if isinstance(g, pa.Table)
                             else g.drop(columns=BUCKET_COL)))
    block = out.build()
    return block, isinstance(block, pd.DataFrame)


def bucket_exchange(tagged_ds, fn, batch_format: str = "pandas"):
    """The bucket shuffle: co-locate the rows of each :data:`BUCKET_COL`
    value of ``tagged_ds`` and call ``fn(bucket_frame) -> frame`` once per
    bucket, on a frame (``batch_format``) without the tag column.  The
    caller chooses the bucket id (:func:`bucket_tagger`, or its own hash
    when the assignment must differ); the exchange owns how the rows move.

    It runs on plain Ray tasks, split -> reduce, with ``k`` reduce tasks
    from :func:`reduce_tasks`: each non-empty tagged block gets one split
    task that cuts it into ``k`` slices by ``b % k`` (with ``k == 1`` the
    block goes to the reducer as it is), and reduce task ``j`` folds the
    buckets ``b % k == j`` (:func:`_reduce`).  A reducer with no rows is
    never launched, so every output block comes from ``fn`` on real rows.
    The tasks are pure, so Ray's retries replay them safely.

    EAGER: the input runs, and the reducers are launched, when this is
    called; the result is a materialized Dataset of the reducers' blocks."""
    import ray
    from ray.data import DataContext
    from ray.data._internal.remote_fn import cached_remote_fn

    # input-block order is part of the result: a reducer concatenates its
    # slices in that order, and a union's blocks otherwise arrive in
    # whatever order its inputs finish
    opts = tagged_ds.context.execution_options
    keep, opts.preserve_order = opts.preserve_order, True
    try:
        blocks = [(ref, meta)
                  for bundle in tagged_ds.iter_internal_ref_bundles()
                  for ref, meta in bundle.blocks if meta.num_rows != 0]
    finally:
        opts.preserve_order = keep
    k = reduce_tasks(len(blocks), sum(m.size_bytes or 0 for _, m in blocks),
                     int(ray.cluster_resources().get("CPU", 1)),
                     DataContext.get_current().target_max_block_size)
    if k == 1:
        parts = [[ref for ref, _ in blocks]]
    else:
        split = cached_remote_fn(_split)
        cuts = [split.options(num_returns=k + 1).remote(ref, k)
                for ref, _ in blocks]
        counts = ray.get([c[k] for c in cuts])
        parts = [[c[j] for c, n in zip(cuts, counts) if n[j]]
                 for j in range(k)]
    reduce = cached_remote_fn(_reduce, num_returns=2)
    outs = [reduce.remote(fn, batch_format, *p) for p in parts if p]
    refs = [block for block, _ in outs]
    if any(ray.get([is_pandas for _, is_pandas in outs])):
        return ray.data.from_pandas_refs(refs)
    return ray.data.from_arrow_refs(refs)


def grouped_apply(ds, key_cols, fn, num_buckets: int = 32,
                  batch_format: str = "pandas"):
    """PUBLIC extension point for custom per-key operators: co-locate
    each key's rows with ONE ``hash(key) % num_buckets`` shuffle
    (:func:`bucket_tagger` + :func:`bucket_exchange`) and call
    ``fn(bucket_frame) -> frame`` once per BUCKET (never once per key —
    the group count is ``num_buckets`` regardless of key cardinality,
    which is the difference between 32 tasks and 10^8 tasks at corpus
    scale).  ``fn`` sees the input columns only, never the bucket tag,
    and must handle multiple keys per frame; pair it with
    :func:`run_starts` (or ``windowfn._sorted_runs``) for vectorized
    segmented kernels.  Null keys pool into bucket 0.  Multi-column keys
    tag on the FIRST column (same-first-column keys co-locate; fn still
    groups exactly).  A per-batch pre-step (a combiner such as a local
    dedup or top-k prune) goes in as ``grouped_apply(ds.map_batches(pre),
    ...)``; Ray fuses it with the tagger into one map.  A string-heavy
    reducer should take ``batch_format="pyarrow"`` and run an Arrow kernel
    per bucket (``reassemble._fold_bucket``, ``sequence._count_windows``):
    with ``"pandas"`` every text value becomes a Python object, and that
    conversion, not the shuffle, dominates the reducer's cost.  Like
    :func:`bucket_exchange` it is EAGER: ``ds`` runs when this is called,
    on ``reduce_tasks(...)`` plain reduce tasks (each holding the buckets
    ``b % k == j``), and the result is materialized."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    tagged = ds.map_batches(bucket_tagger(key_cols[0], num_buckets),
                            batch_format="pyarrow", zero_copy_batch=True)
    return bucket_exchange(tagged, fn, batch_format)
