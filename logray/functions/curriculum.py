"""Training-curriculum ordering: score bins + deterministic in-bin shuffle.

Curriculum / annealed training wants the corpus ordered by a quality
signal at the macro level (easy/high-quality first, or the reverse) while
staying well-shuffled inside each difficulty band.  The standard recipe:

1. ``bin`` — SQL ``NTILE(n_bins)`` over ``(score, id)``: near-equal
   buckets, first ``N % n_bins`` buckets one row larger.
2. ``curriculum_rank`` — ``ROW_NUMBER() OVER (ORDER BY bin, hash(id),
   id)``: bins emitted in order, rows inside a bin in seeded
   deterministic-hash order (reproducible across runs, cluster sizes and
   resumes — the same contract as ``functions/sample.py``).

Scale shape: two NARROW global sorts (each one
:func:`~logray.stages.windowfn._rank_table` on the one sorted-block scan,
:func:`~logray.stages.bucketing.sorted_scan` — only two-column
projections are sorted and pinned, never the corpus) plus one bucketed
hash join of the two narrow rank tables.  The in-bin order is encoded as a fixed-width
``zfill(bin)|zfill(hash)`` string key so ONE lexicographic sort realizes
the (bin, hash) composite order exactly as the SQL twin's
``ORDER BY bin, h, id`` does.

Requires non-null scores and unique non-negative integer ids (the
deterministic-hash contract).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from logray.functions.sample import _det_hash, _hash_sql


def _ntile(row_num: np.ndarray, total: int, n_bins: int) -> np.ndarray:
    """SQL NTILE(n_bins) from 1-based global row numbers: first
    ``total % n_bins`` buckets get ``total // n_bins + 1`` rows."""
    q, r = divmod(total, n_bins)
    rn0 = row_num - 1
    big = r * (q + 1)  # rows living in the size-(q+1) buckets
    small = np.maximum(rn0 - big, 0)
    # q == 0 only when total < n_bins; then every row is in a big bucket
    # and the else-branch scalar is never selected
    return np.where(rn0 < big, rn0 // (q + 1),
                    r + (small // q if q else 0)).astype(np.int64) + 1


def curriculum_order(ds, score_col: str, id_col: str, n_bins: int = 10,
                     seed: int = 0, num_partitions: int = 32,
                     as_pandas: bool = False):
    """(id, bin, curriculum_rank) for every row: NTILE(n_bins) score
    buckets in ascending score order, deterministic seeded shuffle inside
    each bucket.  Consume by sorting/range-reading on curriculum_rank."""
    from logray.stages.join import _bucketed_join
    from logray.stages.windowfn import _rank_table

    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    rank_ds, total = _rank_table(
        ds.select_columns([score_col, id_col]), score_col, id_col, pct=False)
    bw = max(len(str(n_bins)), 1)

    def keyed(t: pa.Table) -> pa.Table:
        rn = t["row_num"].to_numpy(zero_copy_only=False).astype(np.int64)
        ids = t[id_col].to_numpy(zero_copy_only=False)
        b = _ntile(rn, total, n_bins)
        h = _det_hash(ids, seed)
        key = (pd.Series(b).astype(str).str.zfill(bw) + "|"
               + pd.Series(h).astype(str).str.zfill(10))
        return pa.table({id_col: t[id_col], "bin": pa.array(b),
                         "__ckey": pa.array(key.to_numpy(), pa.string())})

    # materialize: binned feeds BOTH the second rank sort and the final
    # join's left side — unmaterialized, Ray would re-run the hash/key
    # map (and the upstream rank apply) once per consumer.  The pin is
    # the narrow (id, bin, key) projection, same class as the rank table.
    binned = rank_ds.map_batches(keyed, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    rank2, _total2 = _rank_table(
        binned.select_columns(["__ckey", id_col]), "__ckey", id_col,
        pct=False)

    def final(t: pa.Table) -> pa.Table:
        return pa.table({id_col: t[id_col],
                         "curriculum_rank": t["row_num"]})

    out = _bucketed_join(
        binned.drop_columns(["__ckey"]),
        rank2.map_batches(final, batch_format="pyarrow",
                          zero_copy_batch=True),
        (id_col,), (id_col,), "inner", num_partitions,
        expect_left_one_to_one=True)
    return out.to_pandas() if as_pandas else out


def curriculum_order_sql(table: str, score_col: str, id_col: str,
                         n_bins: int = 10, seed: int = 0) -> str:
    """DuckDB twin of :func:`curriculum_order` (identical bin + order)."""
    return (
        f"WITH r AS (SELECT {id_col}, "
        f"NTILE({n_bins}) OVER (ORDER BY {score_col}, {id_col}) AS bin, "
        f"{_hash_sql(id_col, seed)} AS h FROM {table}) "
        f"SELECT {id_col}, CAST(bin AS BIGINT) AS bin, "
        f"row_number() OVER (ORDER BY bin, h, {id_col}) AS curriculum_rank "
        f"FROM r"
    )
