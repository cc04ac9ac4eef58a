"""Sequence packing: lay documents head-to-tail on one global tape in a
deterministic order and cut the tape every ``budget`` units — the
concat-and-split step that turns a variable-length corpus into
fixed-length training sequences.  Each document gets the sequence id its
FIRST unit lands in (``seq_id``) and its offset within that sequence
(``seq_offset``); a consumer can derive every split point from
(seq_id, seq_offset, len) alone, so the packing itself never copies text.

Scale shape — the one sorted-block scan
(:func:`~logray.stages.bucketing.sorted_scan`, shared with ``global_rank``
and the skew-safe ``transition_counts``): one global sort by the id
column, then per-block cumsums fixed up with per-block offsets derived
from tiny (block -> length sum) summaries scanned once on the driver.
The only wide op is the sort.

Reference parity: generalizes the reference's LineBlock paging
(``src/file_parsing/log_parser_interface.hpp:17-33`` fixed-size LineBlock
construction over a sequential line tape) from lines-in-one-file to
units-across-a-corpus.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["pack_documents", "pack_documents_sql"]


def pack_documents(ds, budget: int, id_col: str = "doc_id",
                   len_col: str | None = None, text_col: str = "text"):
    """Assign each document its (seq_id, seq_offset) under concat-and-cut
    packing with ``budget`` units per sequence, in ascending ``id_col``
    order.  ``len_col`` names a precomputed length column (token counts);
    when None, UTF-8 character count of ``text_col`` is used and null-text
    rows are dropped (mirroring the SQL twin's WHERE).  Output:
    ``(id_col, len, seq_id, seq_offset)``."""
    from logray.stages.bucketing import sorted_scan

    if budget <= 0:
        raise ValueError("budget must be positive")
    if len_col is None:
        def with_len(t: pa.Table) -> pa.Table:
            t = t.filter(pc.is_valid(t[text_col]))
            return pa.table({
                id_col: t[id_col],
                "len": pc.cast(pc.utf8_length(t[text_col]), pa.int64()),
            })

        ds = ds.map_batches(with_len, batch_format="pyarrow",
                            zero_copy_batch=True, batch_size=None)
        len_col = "len"
    else:
        ds = ds.select_columns([id_col, len_col])

    def length_sum(t: pa.Table) -> int:
        return int(pc.sum(t[len_col]).as_py() or 0)

    def offsets(sums: list[int]) -> list[int]:
        return np.cumsum([0] + sums[:-1], dtype=np.int64).tolist()

    def apply(t: pa.Table, offset: int) -> pa.Table:
        lens = t[len_col].to_numpy(zero_copy_only=False).astype(np.int64)
        start = offset + np.cumsum(lens) - lens
        return pa.table({
            id_col: t[id_col],
            "len": pc.cast(t[len_col], pa.int64()),
            "seq_id": pa.array(start // budget),
            "seq_offset": pa.array(start % budget),
        })

    return sorted_scan(ds, id_col, length_sum, offsets, apply)


def pack_documents_sql(table: str, budget: int, id_col: str = "doc_id",
                       len_expr: str | None = None,
                       text_col: str = "text") -> str:
    """DuckDB twin of :func:`pack_documents` (identical tape layout)."""
    le = len_expr or f"length({text_col})"
    return f"""
        SELECT {id_col}, len,
               CAST((cum - len) // {budget} AS BIGINT) AS seq_id,
               CAST((cum - len) % {budget} AS BIGINT) AS seq_offset
        FROM (
            SELECT {id_col}, CAST({le} AS BIGINT) AS len,
                   sum(CAST({le} AS BIGINT)) OVER (
                       ORDER BY {id_col} ROWS UNBOUNDED PRECEDING) AS cum
            FROM {table} WHERE {text_col} IS NOT NULL
        )
    """
