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
  the shuffle strategy is set here and nowhere else.
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


def bucket_tagger(key_col: str, num_buckets: int):
    """map_batches fn appending ``BUCKET_COL = hash(key_col) % num_buckets``
    (dtype-canonical, see :func:`key_hashes`).

    Null keys are pinned to bucket 0: their hash is NOT stable across
    block dtypes (an all-null block infers a null-typed Arrow column
    whose numpy form is object-None, while a mixed block yields float
    NaN — the two hash differently), and a null key split across buckets
    would emit duplicate partials from every grouped operator."""

    def tag(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        kh = key_hashes(t[key_col].to_numpy(zero_copy_only=False))
        b = (kh % num_buckets).astype(np.int64)
        valid = pc.is_valid(t[key_col]).to_numpy(zero_copy_only=False)
        b[~np.asarray(valid, np.bool_)] = 0
        return t.append_column(BUCKET_COL, pa.array(b))

    return tag


def bucket_of(keys: np.ndarray, num_buckets: int) -> np.ndarray:
    """The same bucket assignment for code already holding a numpy array
    (nulls pinned to bucket 0, see :func:`bucket_tagger`)."""
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
        b = bucket_of(t[key_col].to_numpy(zero_copy_only=False), num_buckets)
        return pa.table({"c": pa.array(
            np.bincount(b, minlength=num_buckets).astype(np.int64))})

    tot = np.zeros(num_buckets, np.int64)
    out = ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True,
                         batch_size=None)
    for chunk in out.iter_batches(batch_size=None, batch_format="pyarrow"):
        c = chunk["c"].to_numpy(zero_copy_only=False)
        tot += c.reshape(-1, num_buckets).sum(axis=0)
    return tot


def bucket_exchange(tagged_ds, fn, batch_format: str = "pandas"):
    """The bucket shuffle: group ``tagged_ds`` on its :data:`BUCKET_COL`
    column and call ``fn(bucket_frame) -> frame`` once per bucket, on a
    frame (``batch_format``) without the tag column.  The caller chooses
    the bucket id (:func:`bucket_tagger`, or its own hash when the
    assignment must differ); the exchange owns how the rows move."""

    def strip(g):
        return fn(g.drop_columns([BUCKET_COL]) if isinstance(g, pa.Table)
                  else g.drop(columns=BUCKET_COL))

    return tagged_ds.groupby(BUCKET_COL).map_groups(
        strip, batch_format=batch_format)


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
    conversion, not the shuffle, dominates the reducer's cost."""
    key_cols = [key_cols] if isinstance(key_cols, str) else list(key_cols)
    tagged = ds.map_batches(bucket_tagger(key_cols[0], num_buckets),
                            batch_format="pyarrow", zero_copy_batch=True)
    return bucket_exchange(tagged, fn, batch_format)
