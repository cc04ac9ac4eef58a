"""Search stage: the distributed analog of ``findNextOccurence``.

Reference (log_parser_interface.cpp:370-389 + text_search_module.cpp): from a
starting position in the *filtered* view, walk forward (or backward) to the
first line whose RAW text contains the needle; return (local line, char pos),
or a sentinel when absent.  Search only inspects filter-passing lines.

The distributed analog replaces the cursor walk with a filter + min/max
reduction over the view's total order key ``(conv_id, turn_idx)``:

- candidates = view rows with ``text CONTAINS needle`` and key >/>= the
  starting key;
- per-batch reduce to one min (or max) candidate row — no full shuffle, no
  global sort; the driver reduces the tiny per-batch winners;
- ``char_pos`` from ``pc.find_substring`` on the winning row;
- the local ordinal (position within the filtered view) is an optional
  extra count aggregate over rows with key < hit.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# local_to_global pulls up to ordinal+1 (conv, turn) rows from every batch
# to the driver: an ordinal this large is a bulk enumeration
MAX_ORDINAL = 100_000


def global_to_local(view, key: tuple, conv_col: str = "conv_id", turn_col: str = "turn_idx") -> int:
    """Local ordinal of global position ``key=(conv_id, turn_idx)`` within
    the filtered view: the number of view rows strictly before it in
    (conv, turn) order (the reference's globalToLocalLineId,
    log_parser_interface.hpp:74-89).  One counting pass, no sort."""
    conv, turn = key

    def before(t: pa.Table) -> pa.Table:
        cc, tc = t[conv_col], t[turn_col]
        m = pc.or_(pc.less(cc, conv), pc.and_(pc.equal(cc, conv), pc.less(tc, turn)))
        n = pc.sum(pc.cast(pc.fill_null(m, False), pa.int64())).as_py() or 0
        return pa.table({"n": pa.array([n], pa.int64())})

    parts = view.map_batches(before, batch_format="pyarrow", zero_copy_batch=True).take_all()
    return int(sum(p["n"] for p in parts))


def local_to_global(view, ordinal: int, conv_col: str = "conv_id", turn_col: str = "turn_idx"):
    """(conv_id, turn_idx) of the ``ordinal``-th row (0-based) of the view
    in (conv, turn) order (the reference's localToGlobalLineId).

    Per-batch (ordinal+1)-smallest candidates stream to the driver, which
    merges — O(batches x ordinal) driver memory, intended for interactive
    jump targets, not bulk enumeration: an ordinal above
    :data:`MAX_ORDINAL` raises (use ordered_view for that)."""
    if ordinal < 0:
        raise ValueError(f"local_to_global: ordinal must be >= 0, got {ordinal}")
    if ordinal > MAX_ORDINAL:
        raise ValueError(
            f"local_to_global: ordinal={ordinal} exceeds MAX_ORDINAL={MAX_ORDINAL}; "
            "use reassemble.ordered_view(view) and iterate it for bulk enumeration")
    k = ordinal + 1

    def topk(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t.select([conv_col, turn_col])
        idx = pc.sort_indices(
            t, sort_keys=[(conv_col, "ascending"), (turn_col, "ascending")]
        )[:k]
        return t.take(idx).select([conv_col, turn_col])

    parts = view.map_batches(topk, batch_format="pyarrow", zero_copy_batch=True).take_all()
    if len(parts) < k:
        return None  # fewer than ordinal+1 rows in the view
    parts.sort(key=lambda r: (r[conv_col], r[turn_col]))
    row = parts[k - 1]
    return (row[conv_col], row[turn_col])


def find_next_occurrence(
    view,
    needle: str,
    from_key: tuple | None = None,
    forward: bool = True,
    inclusive: bool = False,
    text_col: str = "text",
    conv_col: str = "conv_id",
    turn_col: str = "turn_idx",
    with_local_ordinal: bool = False,
):
    """First (or last, backward) row of ``view`` containing ``needle`` at or
    beyond ``from_key=(conv_id, turn_idx)`` in (conv_id, turn_idx) order.

    Returns ``{conv_id, turn_idx, char_pos, local_ordinal?}`` or ``None``
    (the reference's (LINE_T_MAX, SIZE_MAX) sentinel).  ``inclusive``
    mirrors the reference's continue-from-next behavior: a repeated forward
    search passes inclusive=False to skip the current hit
    (text_search_module.cpp:26).
    """

    def candidates(t: pa.Table) -> pa.Table:
        m = pc.match_substring(t[text_col], needle)
        if from_key is not None:
            conv, turn = from_key
            cc, tc = t[conv_col], t[turn_col]
            if forward:
                after = pc.or_(
                    pc.greater(cc, conv),
                    pc.and_(pc.equal(cc, conv), pc.greater_equal(tc, turn) if inclusive else pc.greater(tc, turn)),
                )
            else:
                after = pc.or_(
                    pc.less(cc, conv),
                    pc.and_(pc.equal(cc, conv), pc.less_equal(tc, turn) if inclusive else pc.less(tc, turn)),
                )
            m = pc.and_(m, after)
        t = t.filter(pc.fill_null(m, False))
        if t.num_rows == 0:
            return t.select([conv_col, turn_col, text_col])
        # per-batch winner only
        order = [(conv_col, "ascending" if forward else "descending"),
                 (turn_col, "ascending" if forward else "descending")]
        idx = pc.sort_indices(t, sort_keys=order)[:1]
        return t.take(idx).select([conv_col, turn_col, text_col])

    winners = view.map_batches(candidates, batch_format="pyarrow", zero_copy_batch=True).take_all()
    if not winners:
        return None
    key = (lambda r: (r[conv_col], r[turn_col]))
    best = min(winners, key=key) if forward else max(winners, key=key)
    char_pos = best[text_col].find(needle)
    out = {conv_col: best[conv_col], turn_col: best[turn_col], "char_pos": char_pos}
    if with_local_ordinal:
        conv, turn = best[conv_col], best[turn_col]

        def before(t: pa.Table) -> pa.Table:
            cc, tc = t[conv_col], t[turn_col]
            m = pc.or_(pc.less(cc, conv), pc.and_(pc.equal(cc, conv), pc.less(tc, turn)))
            return pa.table({"n": [pc.sum(pc.cast(pc.fill_null(m, False), pa.int64())).as_py() or 0]})

        parts = view.map_batches(before, batch_format="pyarrow", zero_copy_batch=True).take_all()
        out["local_ordinal"] = int(sum(p["n"] for p in parts))
    return out
