"""Conversation reassembly + ordered previews.

The reference keeps one strictly ordered view and pages through it with a
bounded window (log_parser_interface.cpp LineBlock).  The distributed
equivalents:

- :func:`reassemble_conversations` — a ``hash(conv_id)`` bucket shuffle
  (:func:`grouped_apply`) + in-bucket sort by (conv_id, ``turn_idx``)
  (+ optional per-conversation transform).  The shuffle key is conv_id,
  the engine's canonical partitioning key.  For count-like aggregates
  skew is handled upstream by partial pre-aggregation
  (stages/aggregate.py); for reassembly itself a hot conversation must
  land on one worker by definition.
- :func:`ordered_view` — globally sorted by (conv_id, turn_idx): the total
  order used for per-turn text-equality checks.
- :func:`preview` — the LineBlock analog: the first ``n`` rows at/after a
  (conv_id, turn_idx) position in the filtered view, computed as a per-batch
  top-k + driver merge (no global sort, no full materialization).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logray.stages.bucketing import grouped_apply, run_starts, stream_fold

# preview pulls up to n rows from every batch to the driver: an n this
# large is a bulk read, which ordered_view serves
MAX_PREVIEW_ROWS = 10_000


def reassemble_conversations(ds, fn=None, conv_col: str = "conv_id", turn_col: str = "turn_idx"):
    """Per-conversation ordered view: rows of each conv sorted by turn_idx,
    with an optional per-conversation transform ``fn(df) -> df`` applied to
    the ordered group (e.g. windowing, concatenation, dialogue folding).
    One :func:`grouped_apply` shuffle on conv: each bucket is sorted by
    (conv, turn) and ``fn`` runs once per conversation run (null convs
    pool into one run)."""

    def per_bucket(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([conv_col, turn_col], kind="mergesort")
        if fn is None:
            return g
        starts = np.flatnonzero(run_starts(g[conv_col].to_numpy()))
        return pd.concat([fn(g.iloc[a:b]) for a, b in
                          zip(starts, [*starts[1:], len(g)])],
                         ignore_index=True)

    return grouped_apply(ds, conv_col, per_bucket)


def fold_dialogue(sep: str = "\n", text_col: str = "text",
                  conv_col: str = "conv_id", turn_col: str = "turn_idx"):
    """Per-conversation transform for :func:`reassemble_conversations` that
    folds the ordered turns into one dialogue string per conversation
    (SQL twin: ``string_agg(text, sep ORDER BY turn_idx)``).  As in
    ``string_agg``, null texts are skipped and a conversation whose texts
    are all null gets a null dialogue."""

    def fn(g: pd.DataFrame) -> pd.DataFrame:
        texts = g[text_col].dropna()
        dialogue = sep.join(texts.astype(str)) if len(texts) else None
        return pd.DataFrame({conv_col: [g[conv_col].iloc[0]], "dialogue": [dialogue]})

    return fn


def _fold_bucket(t: pa.Table, sep: str = "\n", text_col: str = "text",
                conv_col: str = "conv_id", turn_col: str = "turn_idx") -> pa.Table:
    """The Arrow kernel :func:`fold_dialogues` runs on each bucket:
    ``(conv_col, dialogue)``, one row per conversation in ``t``.  A stable
    sort on (conv, turn), run starts on conv, one ``ListArray`` of the
    non-null texts per run, ``binary_join``.  Rows with a null conv are
    dropped; null texts are skipped and an all-null conversation gets a
    null dialogue (the ``string_agg`` rule)."""
    t = t.filter(pc.invert(pc.is_null(t[conv_col], nan_is_null=True)))
    t = t.take(pc.sort_indices(t, sort_keys=[(conv_col, "ascending"),
                                             (turn_col, "ascending")]))
    conv = t[conv_col].combine_chunks()
    text = t[text_col].combine_chunks()
    if not (pa.types.is_string(text.type) or pa.types.is_large_string(text.type)):
        text = text.cast(pa.string())  # e.g. an all-null block's null type
    starts = np.ones(len(conv), np.bool_)
    if len(conv) > 1:
        starts[1:] = pc.not_equal(conv[1:], conv[:-1]).to_numpy(zero_copy_only=False)
    run_id = np.cumsum(starts) - 1
    valid = text.is_valid().to_numpy(zero_copy_only=False)
    counts = np.bincount(run_id[valid], minlength=int(starts.sum()))
    offsets = pa.array(np.concatenate([[0], np.cumsum(counts)]), pa.int32())
    lists = pa.ListArray.from_arrays(offsets, text.filter(pa.array(valid)),
                                     mask=pa.array(counts == 0))
    return pa.table({conv_col: conv.filter(pa.array(starts)),
                     "dialogue": pc.binary_join(lists, sep)})


def fold_dialogues(ds, sep: str = "\n", text_col: str = "text",
                   conv_col: str = "conv_id", turn_col: str = "turn_idx",
                   num_buckets: int = 32):
    """One dialogue string per conversation (turns joined in order) —
    the BUCKETED fast path for :func:`fold_dialogue`: shuffle on
    ``hash(conv) % num_buckets`` and fold each bucket with one Arrow
    kernel (:func:`_fold_bucket`) instead of one Ray group per
    conversation; no turn text becomes a Python object.  Same rules as
    ``string_agg``: null texts are skipped, an all-null conversation gets
    a null dialogue, and rows with a null conv are dropped."""
    return grouped_apply(
        ds, conv_col,
        lambda t: _fold_bucket(t, sep, text_col, conv_col, turn_col),
        num_buckets=num_buckets, batch_format="pyarrow")


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
    O(rows) scan, O(batches*n) merge, so ``n`` is capped at
    :data:`MAX_PREVIEW_ROWS`; page through :func:`ordered_view` for more."""
    if n < 0:
        raise ValueError(f"preview: n must be >= 0, got {n}")
    if n > MAX_PREVIEW_ROWS:
        raise ValueError(
            f"preview: n={n} exceeds MAX_PREVIEW_ROWS={MAX_PREVIEW_ROWS}; "
            "use ordered_view(ds) and iterate it for bulk reads")
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
