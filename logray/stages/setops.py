"""Distinct set operations (SQL INTERSECT / EXCEPT) over Datasets.

The reference engine exposes filter algebra over one stream
(``src/filtering/combined_filter.cpp``: AND/OR/XOR/NOR); the relational
complement — bag comparisons BETWEEN two streams — is what a pipeline
needs to ask "which keys appear in both corpora" (intersect) or "which
are new since the last snapshot" (except).  Semantics follow ANSI SQL
set operators: DISTINCT rows, NULLs compare equal.

Scale shape: per-batch local distinct on each side first (the combiner —
at 100 TB the distinct key set is usually orders of magnitude smaller
than the rows), then ONE hash%B bucket shuffle of the combined sides,
then a vectorized per-bucket side-membership test.  No driver
materialization; output stays a Dataset.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from logray.stages.bucketing import BUCKET_COL, bucket_exchange

__all__ = ["intersect_distinct", "except_distinct"]


def _row_hash(df: pd.DataFrame, cols: list[str]) -> np.ndarray:
    """Deterministic per-row hash over a column tuple (same values ->
    same hash in every process; NaN/None hash to a fixed value so SQL
    NULL-equality grouping lands nulls in one bucket)."""
    return pd.util.hash_pandas_object(df[list(cols)], index=False).to_numpy()


def _local_distinct(cols: list[str]):
    """Per-batch combiner: Arrow group_by distinct (nulls form a group,
    matching SQL set-op null semantics)."""

    def fn(t: pa.Table) -> pa.Table:
        return t.select(cols).group_by(cols).aggregate([])

    return fn


def _tag_side(side: int, cols: list[str], num_buckets: int):
    def fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df[list(cols)].drop_duplicates()
        df["__side"] = np.int8(side)
        df[BUCKET_COL] = (_row_hash(df, cols) % num_buckets).astype(np.int64)
        return df

    return fn


def _set_op(a, b, cols, keep_min: int, keep_max: int, num_buckets: int):
    cols = [cols] if isinstance(cols, str) else list(cols)

    def prep(ds, side):
        return ds.map_batches(
            _local_distinct(cols), batch_format="pyarrow", batch_size=None
        ).map_batches(_tag_side(side, cols, num_buckets), batch_format="pandas",
                      batch_size=None)

    both = prep(a, 0).union(prep(b, 1))

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        # dropna=False pools SQL-equal NULL keys into one group.
        sides = g.groupby(cols, dropna=False, sort=False)["__side"].agg(["min", "max"])
        keep = sides[(sides["min"] == keep_min) & (sides["max"] == keep_max)]
        return keep.reset_index()[cols]

    return bucket_exchange(both, per_bucket)


def intersect_distinct(a, b, cols, num_buckets: int = 32):
    """``SELECT cols FROM a INTERSECT SELECT cols FROM b``."""
    return _set_op(a, b, cols, keep_min=0, keep_max=1, num_buckets=num_buckets)


def except_distinct(a, b, cols, num_buckets: int = 32):
    """``SELECT cols FROM a EXCEPT SELECT cols FROM b``."""
    return _set_op(a, b, cols, keep_min=0, keep_max=0, num_buckets=num_buckets)
