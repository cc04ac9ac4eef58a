"""Corpus-global line-level deduplication (the C4 / RefinedWeb "remove
repeated lines" pass): every line that occurs more than once ACROSS THE
WHOLE CORPUS is kept only at its first occurrence (min ``(doc_id,
line_idx)``), then documents are reassembled from their surviving lines.
Boilerplate (nav bars, cookie banners, license footers) disappears from
every copy but one; lines shorter than ``min_len`` are exempt (blank
lines and stray punctuation would otherwise dedup degenerately).

One physical plan, two full bucket shuffles: (1) a batch-local
keep-first combiner, then ``hash(line) % B`` winner selection; (2)
``hash(doc) % B`` reassembly (mergesort + run-boundary ListArray +
``binary_join``; no per-doc Python).

Why there is no second plan: a "sparse" plan (a contested-hash count
pre-pass, then shuffle only contested lines and pass unaffected
documents through untouched) lost even in its own target regime —
13.4 s vs 29.9 s on a 200k-doc / 3M-line corpus with 10% of docs
sharing one boilerplate line, and 14.6 s vs 27.4 s on a 3.3M-single-line
corpus (Ray 2.49, 32 CPUs).  The pre-pass must still shuffle one
(hash, count) row per distinct line per batch, and the shuffle cost
here is row-count-bound, not byte-bound, so 8-byte hash rows cost as
much as compact text rows while that plan paid two extra read+explode
passes.

Reference parity: generalizes the reference's duplicate-line collapse in
filtered views (``src/file_parsing/filtered_file_reader.cpp`` keeps one
entry per matched line) to corpus scope.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logray.stages.bucketing import (BUCKET_COL, bucket_exchange, bucket_of,
                                     grouped_apply, run_starts)

__all__ = ["dedup_lines", "dedup_lines_sql"]


def _explode_lines_fn(id_col: str, text_col: str, sep: str):
    def to_lines(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[text_col]))
        txt = t[text_col]
        if isinstance(txt, pa.ChunkedArray):
            txt = txt.combine_chunks()
        lines = pc.split_pattern(txt, pattern=sep)
        flat = pc.list_flatten(lines)
        parent = pc.list_parent_indices(lines)
        lengths = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
        lengths = np.nan_to_num(lengths, nan=0).astype(np.int64)
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        line_idx = np.arange(len(flat), dtype=np.int64) - starts + 1
        return pa.table({
            id_col: t[id_col].take(parent),
            "line_idx": pa.array(line_idx),
            "line": flat,
        })

    return to_lines


def _rejoin_fn(id_col: str, text_col: str, sep: str):
    def rejoin(g: pd.DataFrame) -> pa.Table:
        g = g.sort_values([id_col, "line_idx"], kind="mergesort").reset_index(drop=True)
        n = len(g)
        starts = np.flatnonzero(run_starts(g[id_col].to_numpy()))
        offsets = np.append(starts, n).astype(np.int64)
        lst = pa.ListArray.from_arrays(
            pa.array(offsets), pa.Array.from_pandas(g["line"]).cast(pa.string())
        )
        return pa.table({
            id_col: pa.Array.from_pandas(g[id_col].iloc[starts]),
            text_col: pc.binary_join(lst, sep),
            "n_lines": pa.array(np.diff(offsets)),
        })

    return rejoin


def dedup_lines(ds, id_col: str = "doc_id", text_col: str = "text",
                min_len: int = 1, sep: str = "\n", num_buckets: int = 64):
    """Corpus-global keep-first line dedup; returns one row per surviving
    document: ``(id_col, text_col, n_lines)`` with the document's
    remaining lines rejoined by ``sep`` in original order.  Documents
    whose every line was removed (or whose text was null) are absent,
    matching the SQL twin's ``GROUP BY`` over surviving rows.

    ``min_len``: lines with ``length < min_len`` are always kept (the SQL
    twin mirrors this exactly); default 1 exempts blank lines."""
    lines = ds.map_batches(
        _explode_lines_fn(id_col, text_col, sep),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )

    def combine_and_tag(t: pa.Table) -> pa.Table:
        long = pc.greater_equal(pc.utf8_length(t["line"]), min_len)
        cand, rest = t.filter(long), t.filter(pc.invert(long))
        if cand.num_rows:
            # batch-local min (doc, idx) per line: sort once, keep run heads
            cand = cand.sort_by([("line", "ascending"), (id_col, "ascending"),
                                 ("line_idx", "ascending")])
            keep = run_starts(cand["line"].to_numpy(zero_copy_only=False))
            cand = cand.filter(pa.array(keep))
        cand = cand.append_column(
            "__dd", pa.array(np.ones(cand.num_rows, np.bool_)))
        rest = rest.append_column(
            "__dd", pa.array(np.zeros(rest.num_rows, np.bool_)))
        t = pa.concat_tables([cand, rest])
        b = bucket_of(t["line"], num_buckets)
        return t.append_column(BUCKET_COL, pa.array(b))

    def keep_winner(g: pd.DataFrame) -> pd.DataFrame:
        cand = g[g["__dd"]]
        kept = cand.sort_values(
            [id_col, "line_idx"], kind="mergesort"
        ).drop_duplicates("line", keep="first")
        return pd.concat([kept, g[~g["__dd"]]]).drop(columns="__dd")

    survivors = bucket_exchange(
        lines.map_batches(combine_and_tag, batch_format="pyarrow",
                          zero_copy_batch=True),
        keep_winner)
    return grouped_apply(survivors, id_col, _rejoin_fn(id_col, text_col, sep),
                         num_buckets=num_buckets)


def dedup_lines_sql(table: str, id_col: str = "doc_id",
                    text_col: str = "text", min_len: int = 1,
                    sep_sql: str = "chr(10)") -> str:
    """DuckDB twin of :func:`dedup_lines` (identical keep-first rule and
    short-line exemption)."""
    return f"""
        WITH lines AS (
            SELECT {id_col},
                   unnest(string_split({text_col}, {sep_sql})) AS line,
                   unnest(generate_series(
                       1, len(string_split({text_col}, {sep_sql})))) AS line_idx
            FROM {table}
        ), ranked AS (
            SELECT {id_col}, line_idx, line,
                   CASE WHEN length(line) >= {min_len}
                        THEN row_number() OVER (
                            PARTITION BY line ORDER BY {id_col}, line_idx)
                        ELSE 1 END AS rn
            FROM lines
        )
        SELECT {id_col},
               string_agg(line, {sep_sql} ORDER BY line_idx) AS {text_col},
               CAST(count(*) AS BIGINT) AS n_lines
        FROM ranked WHERE rn = 1 GROUP BY {id_col}
    """
