"""Row-shape transforms: explode (SQL UNNEST ... WITH ORDINALITY).

The reference parses one log line into one row of fields
(`src/line_parsing/line_format.cpp`); list-typed columns (embeddings,
token ids, chunk offsets) need the inverse — one row per element, with
the element's 1-based position.  Pure per-batch Arrow-kernel work
(list_flatten + list_parent_indices + one arange for ordinality), so the
stage fuses into the read and never shuffles.

NULL and empty lists emit no rows (SQL UNNEST semantics).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

__all__ = ["collect_list", "explode_list"]


def explode_list(ds, list_col: str, id_cols=None, val_col: str | None = None,
                 pos_col: str | None = "pos"):
    """One output row per list element: ``id_cols + [pos_col, val_col]``.

    ``val_col`` defaults to the list column's name; ``pos_col=None`` omits
    the ordinality column.
    """
    id_cols = [id_cols] if isinstance(id_cols, str) else list(id_cols or [])
    out_val = val_col or list_col

    def fn(t: pa.Table) -> pa.Table:
        col = t[list_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        flat = pc.list_flatten(col)
        parent = pc.list_parent_indices(col)
        cols = {c: t[c].take(parent) for c in id_cols}
        if pos_col is not None:
            lengths = pc.list_value_length(col).to_numpy(zero_copy_only=False)
            lengths = np.nan_to_num(lengths, nan=0).astype(np.int64)
            starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
            cols[pos_col] = pa.array(
                np.arange(len(flat), dtype=np.int64) - starts + 1)
        cols[out_val] = flat
        return pa.table(cols)

    return ds.map_batches(fn, batch_format="pyarrow", batch_size=None)


def collect_list(ds, key_col: str, value_col: str, order_col: str,
                 tiebreak_col: str | None = None, num_buckets: int = 32,
                 out_col: str | None = None):
    """The inverse of :func:`explode_list`: SQL
    ``list(value ORDER BY order, tiebreak) GROUP BY key``.

    Scale shape (same as sessionize / rank_window): ONE ``hash(key) % B``
    bucket shuffle, then a single mergesort + run-boundary split per
    bucket — group count is ``num_buckets``, never the key cardinality.
    Output: one row per key with ``out_col`` = the ordered value array."""
    from logray.stages.bucketing import grouped_apply, run_starts

    out = out_col or f"{value_col}_list"
    order_cols = [order_col] + ([tiebreak_col] if tiebreak_col else [])

    def per_bucket(g: pd.DataFrame) -> pa.Table:
        # return a real Arrow list column (NOT a pandas object column of
        # arrays, which Ray would wrap in its tensor extension type and
        # break list kernels downstream, e.g. explode_list)
        g = g.sort_values([key_col] + order_cols,
                          kind="mergesort").reset_index(drop=True)
        n = len(g)
        starts = np.flatnonzero(run_starts(g[key_col].to_numpy()))
        offsets = np.append(starts, n).astype(np.int64)
        lst = pa.ListArray.from_arrays(
            pa.array(offsets), pa.Array.from_pandas(g[value_col])
        )
        return pa.table(
            {key_col: pa.Array.from_pandas(g[key_col].iloc[starts]), out: lst}
        )

    return grouped_apply(ds, key_col, per_bucket, num_buckets=num_buckets)


def unpivot(ds, id_cols, value_cols, var_col: str = "name",
            val_col: str = "value"):
    """SQL UNPIVOT / pandas melt — the inverse of ``pivot_agg``'s widening:
    one output row per (input row, value column), carrying the column's
    name and its value.  Value columns must share (or be castable to) one
    type; they are cast to float64.  Pure per-batch Arrow concat + take —
    fuses into the read, no shuffle, NULL values dropped (SQL UNPIVOT
    semantics)."""
    id_cols = [id_cols] if isinstance(id_cols, str) else list(id_cols)
    value_cols = list(value_cols)

    def fn(t: pa.Table) -> pa.Table:
        n = t.num_rows
        parts = []
        for c in value_cols:
            vals = t[c].cast(pa.float64())
            cols = {i: t[i] for i in id_cols}
            cols[var_col] = pa.array(np.repeat(c, n))
            cols[val_col] = vals
            part = pa.table(cols)
            parts.append(part.filter(pc.is_valid(part[val_col])))
        return pa.concat_tables(parts)

    return ds.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def unpivot_sql(table: str, id_cols, value_cols, var_col: str = "name",
                val_col: str = "value") -> str:
    """DuckDB twin of :func:`unpivot`."""
    id_cols = [id_cols] if isinstance(id_cols, str) else list(id_cols)
    ids = ", ".join(id_cols)
    on = ", ".join(f"CAST({c} AS DOUBLE) AS {c}" for c in value_cols)
    return (
        f"SELECT {ids}, {var_col}, {val_col} FROM ("
        f"UNPIVOT (SELECT {ids}, {on} FROM {table}) "
        f"ON {', '.join(value_cols)} "
        f"INTO NAME {var_col} VALUE {val_col})"
    )


def union_by_name(datasets, strict: bool = False):
    """Schema-evolution union: concatenate Datasets whose schemas differ
    (SQL ``UNION ALL BY NAME``).  The output schema is the ordered union
    of all input columns (first-seen order); each input's missing columns
    are appended as typed nulls and its columns reordered — one
    zero-copy-in map per input, then Ray's plain ``union``.  With
    ``strict=True`` a column present in two inputs with conflicting
    Arrow types raises instead of relying on block-level coercion."""
    import pyarrow as pa

    if not datasets:
        raise ValueError("union_by_name needs at least one dataset")
    def _pa_type(t):
        # pandas-block schemas report numpy dtypes / bare `object` for
        # strings instead of Arrow types — normalize before pa.nulls
        if isinstance(t, pa.DataType):
            return t
        import numpy as _np

        if t is object or t is str:
            return pa.string()  # pandas blocks report strings as object
        try:
            return pa.from_numpy_dtype(_np.dtype(t))
        except (TypeError, ValueError):
            raise TypeError(
                f"union_by_name cannot infer an Arrow type for dtype "
                f"{t!r}; cast the column explicitly before the union")

    schemas = [ds.schema() for ds in datasets]
    fields: dict = {}
    for sc in schemas:
        base = getattr(sc, "base_schema", None)
        pairs = (zip(sc.names, sc.types) if not isinstance(base, pa.Schema)
                 else ((f.name, f.type) for f in base))
        for name, typ in pairs:
            typ = _pa_type(typ)
            if name in fields:
                if strict and fields[name] != typ:
                    raise TypeError(
                        f"union_by_name: column {name!r} has conflicting "
                        f"types {fields[name]} vs {typ}")
            else:
                fields[name] = typ
    names = list(fields)

    def align(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = []
        for name in names:
            if name in t.column_names:
                cols.append(t[name])
            else:
                cols.append(pa.nulls(n, fields[name]))
        return pa.table(dict(zip(names, cols)))

    aligned = [
        ds.map_batches(align, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None)
        for ds in datasets
    ]
    return aligned[0].union(*aligned[1:]) if len(aligned) > 1 \
        else aligned[0]


def union_by_name_sql(tables: list[str]) -> str:
    """DuckDB twin of :func:`union_by_name`."""
    return " UNION ALL BY NAME ".join(f"SELECT * FROM {t}" for t in tables)
