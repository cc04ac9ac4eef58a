"""Conversation reassembly + ordered previews.

The reference keeps one strictly ordered view and pages through it with a
bounded window (log_parser_interface.cpp LineBlock).  The distributed
equivalents:

- :func:`reassemble_conversations` — ``groupby(conv_id)`` +
  in-group sort by ``turn_idx`` (+ optional per-group transform).  The
  shuffle key is conv_id, the engine's canonical partitioning key.  For
  count-like aggregates skew is handled upstream by partial pre-aggregation
  (stages/aggregate.py); for reassembly itself a hot conversation must land
  on one worker by definition — ``max_turns_per_group`` guards against a
  single conversation exceeding worker memory by chunking its transform.
- :func:`ordered_view` — globally sorted by (conv_id, turn_idx): the total
  order used for per-turn text-equality checks.
- :func:`preview` — the LineBlock analog: the first ``n`` rows at/after a
  (conv_id, turn_idx) position in the filtered view, computed as a per-batch
  top-k + driver merge (no global sort, no full materialization).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logray.stages.bucketing import grouped_apply, stream_fold


def reassemble_conversations(ds, fn=None, conv_col: str = "conv_id", turn_col: str = "turn_idx"):
    """Per-conversation ordered view: rows of each conv sorted by turn_idx,
    with an optional per-conversation transform ``fn(df) -> df`` applied to
    the ordered group (e.g. windowing, concatenation, dialogue folding)."""

    def per_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(turn_col, kind="mergesort")
        return fn(g) if fn is not None else g

    return ds.groupby(conv_col).map_groups(per_group, batch_format="pandas")


def fold_dialogue(sep: str = "\n", text_col: str = "text",
                  conv_col: str = "conv_id", turn_col: str = "turn_idx"):
    """Per-conversation transform for :func:`reassemble_conversations` that
    folds the ordered turns into one dialogue string per conversation
    (SQL twin: ``string_agg(text, sep ORDER BY turn_idx)``)."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {conv_col: [g[conv_col].iloc[0]], "dialogue": [sep.join(g[text_col].astype(str))]}
        )

    return fn


def fold_dialogues(ds, sep: str = "\n", text_col: str = "text",
                   conv_col: str = "conv_id", turn_col: str = "turn_idx",
                   num_buckets: int = 32):
    """One dialogue string per conversation (turns joined in order) —
    the BUCKETED fast path for :func:`fold_dialogue`: shuffle on
    ``hash(conv) % num_buckets`` and fold each bucket with one pandas
    ``groupby(conv).agg(join)`` over the (conv, turn)-sorted frame, instead
    of one Ray group per conversation."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([conv_col, turn_col], kind="mergesort")
        s = g.groupby(conv_col, sort=False)[text_col].agg(lambda x: sep.join(x.astype(str)))
        return pd.DataFrame({conv_col: s.index.to_numpy(), "dialogue": s.to_numpy()})

    return grouped_apply(ds, conv_col, per_bucket, num_buckets=num_buckets)


def conversation_stats(ds, conv_col: str = "conv_id", ts_col: str = "ts"):
    """(conv_id, n_turns, ts_min, ts_max) per conversation with NO shuffle:
    per-batch Arrow group_by partials stream to the driver and fold with a
    chunked local group_by — the histogram-partials pattern extended with
    min/max columns.  Returns a pandas DataFrame sorted by conv_id."""

    def partial(t: pa.Table) -> pa.Table:
        g = t.group_by([conv_col]).aggregate(
            [([], "count_all"), (ts_col, "min"), (ts_col, "max")]
        )
        return g.rename_columns([conv_col, "n_turns", "ts_min", "ts_max"])

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                           batch_size=None)

    def fold(tables: list[pa.Table]) -> pa.Table:
        g = pa.concat_tables(tables).group_by([conv_col]).aggregate(
            [("n_turns", "sum"), ("ts_min", "min"), ("ts_max", "max")]
        )
        return g.rename_columns([conv_col, "n_turns", "ts_min", "ts_max"])

    folded = stream_fold(parts, fold)
    if folded is None:
        return pd.DataFrame(columns=[conv_col, "n_turns", "ts_min", "ts_max"])
    return folded.to_pandas().sort_values(conv_col).reset_index(drop=True)


def ordered_view(ds, conv_col: str = "conv_id", turn_col: str = "turn_idx"):
    """Global total order by (conv_id, turn_idx) — the engine's analog of
    the reference's physical file order."""
    return ds.sort([conv_col, turn_col])


def preview(view, n: int = 20, from_key: tuple | None = None, backward: bool = False,
            conv_col: str = "conv_id", turn_col: str = "turn_idx") -> pd.DataFrame:
    """First ``n`` rows of ``view`` at/after ``from_key`` in (conv, turn)
    order — or, with ``backward=True``, the last ``n`` rows at/before it
    (the getPreviousValidLine paging direction).  Per-batch top-n winners
    stream to the driver, which merges the tiny candidate set — cost
    O(rows) scan, O(batches*n) merge."""
    if n < 0:
        raise ValueError(f"preview: n must be >= 0, got {n}")
    direction = "descending" if backward else "ascending"

    def topn(t: pa.Table) -> pa.Table:
        if from_key is not None:
            conv, turn = from_key
            cc, tc = t[conv_col], t[turn_col]
            if backward:
                sel = pc.or_(
                    pc.less(cc, conv),
                    pc.and_(pc.equal(cc, conv), pc.less_equal(tc, turn)),
                )
            else:
                sel = pc.or_(
                    pc.greater(cc, conv),
                    pc.and_(pc.equal(cc, conv), pc.greater_equal(tc, turn)),
                )
            t = t.filter(pc.fill_null(sel, False))
        if t.num_rows == 0:
            return t
        idx = pc.sort_indices(
            t, sort_keys=[(conv_col, direction), (turn_col, direction)]
        )[:n]
        return t.take(idx)

    parts = [
        pa.Table.from_batches([b]) if isinstance(b, pa.RecordBatch) else b
        for b in view.map_batches(topn, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    if not parts:
        return pd.DataFrame()
    allc = pa.concat_tables(parts)
    idx = pc.sort_indices(allc, sort_keys=[(conv_col, direction), (turn_col, direction)])[:n]
    out = allc.take(idx).to_pandas()
    if backward:
        out = out.iloc[::-1].reset_index(drop=True)  # present in natural order
    return out


def turn_context(ds, window: int = 3, sep: str = "\n", text_col: str = "text",
                 conv_col: str = "conv_id", turn_col: str = "turn_idx",
                 num_buckets: int = 32):
    """Per-turn rolling context: for every turn, the concatenation of the
    last ``window`` turns (inclusive) in order — the training-data
    "context window" assembly.

    One ``hash(conv) % num_buckets`` shuffle (group count = num_buckets,
    not the conversation count); within a bucket the rolling join is
    ``window-1`` vectorized shift+concat passes over the
    (conv, turn)-sorted frame, masked at conversation boundaries."""
    import numpy as np

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([conv_col, turn_col], kind="mergesort").reset_index(drop=True)
        n = len(g)
        texts = g[text_col].astype(str)
        conv = g[conv_col].to_numpy()
        ctx = texts.copy()
        for w in range(1, window):
            if n <= w:
                break
            same = np.zeros(n, np.bool_)
            same[w:] = conv[w:] == conv[:-w]
            shifted = texts.shift(w)
            ctx = (shifted + sep + ctx).where(pd.Series(same), ctx)
        return pd.DataFrame({conv_col: g[conv_col], turn_col: g[turn_col], "context": ctx})

    return grouped_apply(ds, conv_col, per_bucket, num_buckets=num_buckets)
