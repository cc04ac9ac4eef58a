"""Duplicate-substring removal — dedup at SUBSTRING granularity (the
ExactSubstr pass of Lee et al., "Deduplicating Training Data Makes
Language Models Better", arXiv:2107.06499), word-level variant: every
word ``window``-gram that occurs MORE THAN ONCE across the whole corpus
(including twice inside one document) marks its ``window`` tokens as
duplicated; covered tokens are removed and each document is reassembled
from its surviving tokens.  Unlike document- or line-level dedup this
catches boilerplate spliced into otherwise-unique documents.

Scale shape (two streaming passes, ONE small shuffle):

1. **census** — per batch, token W-gram hashes are computed from the
   Arrow string buffer (vectorized FNV token hashes -> polynomial
   rolling combine; no Python per row) and reduced to per-batch
   ``(h1, count, h2min, h2max)`` partials (the combiner), so only one
   row per DISTINCT gram per batch crosses the ``hash(h1) % B`` bucket
   shuffle.  Per bucket the counts fold and grams with total count > 1
   survive.  ``h2`` is an independent second hash: if two different
   grams collided on ``h1`` the folded ``h2min != h2max`` and the pass
   raises instead of silently over-deleting (a double collision needs
   ~2^128 grams).
2. **mark & cut** — the duplicated-gram hash set (bounded by the
   *duplicated* gram count, NOT the corpus size) is broadcast once via
   ``ray.put``; each batch recomputes its gram hashes, finds duplicated
   starts with one ``searchsorted``, expands them to covered tokens with
   a +1/-1 difference array + ``cumsum`` (grams never cross documents,
   so the running sum returns to zero at every boundary), and rebuilds
   the text with ``ListArray`` offsets + ``binary_join`` — no per-doc
   Python.  If the duplicated set exceeds ``max_broadcast`` the pass
   raises: at that scale run the mark phase as a bucketed join on h1
   instead of a broadcast.

Reference parity: corpus-scope generalization of the reference's
duplicate-line collapse in filtered views
(``src/file_parsing/filtered_file_reader.cpp``), one level below
:mod:`logray.functions.linededup`.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logray.functions.fingerprint import content_hash
from logray.stages.bucketing import grouped_apply, isin_sorted

__all__ = ["dedup_spans", "dedup_spans_sql",
           "dedup_spans_bytes", "dedup_spans_bytes_sql"]

_A1 = np.uint64(0x9E3779B97F4A7C15)  # odd multipliers for the two
_A2 = np.uint64(0xBF58476D1CE4E5B9)  # independent polynomial combines
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


def _splitmix(x: np.ndarray) -> np.ndarray:
    x = (x + np.uint64(0x9E3779B97F4A7C15)) & _MASK
    x = ((x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)) & _MASK
    x = ((x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)) & _MASK
    return x ^ (x >> np.uint64(31))


def _doc_tokens(t: pa.Table, id_col: str, text_col: str):
    """Split one batch into flat tokens; returns (filtered table, flat
    token StringArray, parent doc index per token, per-doc lengths)."""
    t = t.filter(pc.is_valid(t[text_col]))
    txt = t[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    toks = pc.split_pattern(txt, pattern=" ")
    flat = pc.list_flatten(toks)
    parent = pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    lengths = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
    lengths = np.asarray(lengths, np.int64)
    return t, flat, np.asarray(parent, np.int64), lengths


def _gram_hashes(flat, lengths: np.ndarray, window: int):
    """(h1, h2, valid starts) for every W-gram start position in the flat
    token array.  h1/h2 are independent 64-bit polynomial combines of the
    per-token hashes; ``starts`` are the flat indices whose gram lies
    entirely inside one document."""
    th = content_hash(flat)  # uint64 per token
    t2 = _splitmix(th)
    n = len(th)
    m = n - window + 1
    if m <= 0:
        z = np.zeros(0, np.uint64)
        return z, z, np.zeros(0, np.int64)
    acc1 = np.zeros(m, np.uint64)
    acc2 = np.zeros(m, np.uint64)
    for j in range(window):
        acc1 = (acc1 * _A1 + th[j:j + m]) & _MASK
        acc2 = (acc2 * _A2 + t2[j:j + m]) & _MASK
    # a start is valid when its token index within the doc <= len - W
    doc_start = np.repeat(np.cumsum(lengths) - lengths, lengths)
    pos_in_doc = np.arange(n, dtype=np.int64) - doc_start
    doc_len = np.repeat(lengths, lengths)
    valid = (pos_in_doc[:m] <= doc_len[:m] - window)
    starts = np.flatnonzero(valid)
    return _splitmix(acc1[starts]), acc2[starts], starts


def _census_partial(h1: np.ndarray, h2: np.ndarray) -> pa.Table:
    """Per-batch census combiner: one (h1, count, h2min, h2max) row per
    DISTINCT gram hash — the only thing that crosses the bucket shuffle."""
    order = np.argsort(h1, kind="mergesort")
    h1s, h2s = h1[order], h2[order]
    uniq, first = np.unique(h1s, return_index=True)
    cnt = np.diff(np.append(first, len(h1s)))
    h2min = np.minimum.reduceat(h2s, first) if len(h1s) else h2s
    h2max = np.maximum.reduceat(h2s, first) if len(h1s) else h2s
    return pa.table({
        "h1": pa.array(uniq.view(np.int64)),
        "cnt": pa.array(cnt.astype(np.int64)),
        "h2min": pa.array(h2min.view(np.int64)),
        "h2max": pa.array(h2max.view(np.int64)),
    })


def _census_fn(id_col: str, text_col: str, window: int):
    def part(t: pa.Table) -> pa.Table:
        _t, flat, _parent, lengths = _doc_tokens(t, id_col, text_col)
        h1, h2, _ = _gram_hashes(flat, lengths, window)
        return _census_partial(h1, h2)

    return part


def _dup_bucket(g: pd.DataFrame) -> pd.DataFrame:
    f = g.groupby("h1", sort=False).agg(
        cnt=("cnt", "sum"), lo=("h2min", "min"), hi=("h2max", "max"))
    if (f["lo"] != f["hi"]).any():
        raise RuntimeError(
            "dedup_spans: h1 collision between distinct grams detected "
            "(h2 mismatch) — rerun with a different window or hash seed")
    return pd.DataFrame({"h1": f.index[f["cnt"] > 1].to_numpy()})


def dedup_spans(ds, id_col: str = "doc_id", text_col: str = "text",
                window: int = 5, num_buckets: int = 32,
                max_broadcast: int = 50_000_000):
    """Remove every corpus-duplicated word ``window``-gram from every
    document (see module docstring).  Returns a Dataset of
    ``(id_col, text_col, n_removed)`` over non-null-text documents; a
    fully-duplicated document comes back with empty text, preserving the
    row.  The SQL twin :func:`dedup_spans_sql` pins the semantics."""
    import ray

    if window < 2:
        raise ValueError("window must be >= 2")

    census = grouped_apply(
        ds.map_batches(_census_fn(id_col, text_col, window),
                       batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=None),
        "h1", _dup_bucket, num_buckets=num_buckets)
    cdf = census.to_pandas()
    # an all-short corpus yields a columnless empty frame, not an empty
    # h1 column
    dup = cdf["h1"].to_numpy() if "h1" in cdf.columns \
        else np.zeros(0, np.int64)
    if len(dup) > max_broadcast:
        raise RuntimeError(
            f"dedup_spans: {len(dup)} duplicated grams exceeds "
            f"max_broadcast={max_broadcast}; run the mark phase as a "
            f"bucketed join on h1 instead of a broadcast")
    dup_ref = ray.put(np.sort(dup.view(np.uint64)))
    cut = _cut_words_fn(id_col, text_col, window, dup_ref)
    return ds.map_batches(cut, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def _cut_words_fn(id_col: str, text_col: str, window: int, dup_ref):
    """Mark-and-cut map for the word-level pass; ``dup_ref`` is the
    ``ray.put`` handle of the SORTED duplicated-h1 uint64 array."""
    import ray

    def cut(t: pa.Table) -> pa.Table:
        dup_sorted = ray.get(dup_ref)
        t, flat, parent, lengths = _doc_tokens(t, id_col, text_col)
        h1, _h2, starts = _gram_hashes(flat, lengths, window)
        is_dup = isin_sorted(h1, dup_sorted)
        s = starts[is_dup]
        n_flat = len(flat)
        diff = np.zeros(n_flat + 1, np.int64)
        np.add.at(diff, s, 1)
        np.add.at(diff, s + window, -1)
        covered = np.cumsum(diff[:n_flat]) > 0
        keep = ~covered
        n_docs = len(lengths)
        kept_per_doc = np.bincount(parent[keep], minlength=n_docs) \
            if n_flat else np.zeros(n_docs, np.int64)
        removed = lengths - kept_per_doc
        offsets = np.append(0, np.cumsum(kept_per_doc)).astype(np.int64)
        flat_kept = flat.filter(pa.array(keep)) if n_flat else flat
        lst = pa.ListArray.from_arrays(pa.array(offsets, pa.int64()),
                                       flat_kept.combine_chunks()
                                       if isinstance(flat_kept, pa.ChunkedArray)
                                       else flat_kept)
        return pa.table({
            id_col: t[id_col],
            text_col: pc.binary_join(lst, " "),
            "n_removed": pa.array(removed.astype(np.int64)),
        })

    return cut


_AINV1 = np.uint64(pow(int(_A1), -1, 1 << 64))  # modular inverses for the
_AINV2 = np.uint64(pow(int(_A2), -1, 1 << 64))  # prefix-hash difference trick


def _doc_bytes(t: pa.Table, id_col: str, text_col: str):
    """Byte tape of one batch: (filtered table, flat uint8 byte array —
    the Arrow string values buffer, zero-copy — and per-doc byte
    lengths).  The values buffer of a StringArray IS the concatenation
    of its elements, so no per-row Python materialization happens."""
    t = t.filter(pc.is_valid(t[text_col]))
    txt = t[text_col]
    if isinstance(txt, pa.ChunkedArray):
        txt = txt.combine_chunks()
    odt = np.int64 if pa.types.is_large_string(txt.type) \
        or pa.types.is_large_binary(txt.type) else np.int32
    off = np.frombuffer(txt.buffers()[1], odt)[
        txt.offset: txt.offset + len(txt) + 1].astype(np.int64)
    buf = txt.buffers()[2]
    data = np.frombuffer(buf, np.uint8) if buf is not None \
        else np.zeros(0, np.uint8)
    flat = data[off[0]:off[-1]] if len(off) else np.zeros(0, np.uint8)
    lengths = np.diff(off) if len(off) else np.zeros(0, np.int64)
    return t, flat, lengths


def _byte_gram_hashes(flat: np.ndarray, lengths: np.ndarray, window: int,
                      seg_bytes: int = 16 << 20):
    """(h1, h2, valid starts) for the byte ``window``-gram at EVERY byte
    offset that lies entirely inside one document.

    The hash kernel allocates ~50x its input in transient uint64 arrays
    (prefix powers, inverse powers, prefix sums, products — all length
    n), so the tape is processed in <= ``seg_bytes`` SEGMENTS split at
    document boundaries (grams never cross documents, so segmenting is
    exact): peak transient memory is ~50 x seg_bytes per task instead of
    ~50 x the whole batch's text.  A single document larger than
    ``seg_bytes`` forms its own segment (its hashes are irreducible)."""
    n = len(flat)
    if n <= seg_bytes or len(lengths) <= 1:
        return _byte_gram_core(flat, lengths, window)
    ends = np.cumsum(lengths)
    h1s, h2s, sts = [], [], []
    base_doc, base_byte = 0, 0
    ndocs = len(lengths)
    while base_doc < ndocs:
        j = int(np.searchsorted(ends, base_byte + seg_bytes, side="right"))
        j = max(j, base_doc + 1)  # an oversized doc is its own segment
        seg_end = int(ends[j - 1])
        h1, h2, st = _byte_gram_core(
            flat[base_byte:seg_end], lengths[base_doc:j], window)
        if len(st):
            h1s.append(h1)
            h2s.append(h2)
            sts.append(st + base_byte)
        base_doc, base_byte = j, seg_end
    if not sts:
        z = np.zeros(0, np.uint64)
        return z, z, np.zeros(0, np.int64)
    return (np.concatenate(h1s), np.concatenate(h2s), np.concatenate(sts))


def _byte_gram_core(flat: np.ndarray, lengths: np.ndarray, window: int):
    """One segment's gram hashes: O(n) via prefix polynomial hashes with
    modular-inverse powers (all arithmetic wraps mod 2^64 in uint64):
    G[i] = A^(i+W-1) * (Q[i+W] - Q[i]) where Q[k] = sum_{j<k} b[j]*Ainv^j,
    so G[i] = sum b[i..i+W-1]*A^(W-1-j)."""
    n = len(flat)
    m = n - window + 1
    if m <= 0:
        z = np.zeros(0, np.uint64)
        return z, z, np.zeros(0, np.int64)
    b = flat.astype(np.uint64)

    def grams(a: np.uint64, ainv: np.uint64) -> np.ndarray:
        pw = np.full(n, a, np.uint64)
        pw[0] = np.uint64(1)
        np.multiply.accumulate(pw, out=pw)          # pw[i] = A^i
        pwi = np.full(n, ainv, np.uint64)
        pwi[0] = np.uint64(1)
        np.multiply.accumulate(pwi, out=pwi)        # pwi[i] = Ainv^i
        q = np.zeros(n + 1, np.uint64)
        np.add.accumulate(b * pwi, out=q[1:])       # q[k] = sum b[j<k]*Ainv^j
        return pw[window - 1:] * (q[window:] - q[:m])

    g1 = grams(_A1, _AINV1)
    g2 = grams(_A2, _AINV2)
    # valid starts: per doc the range [doc_start, doc_start + len - W]
    cnt = np.maximum(lengths - window + 1, 0)
    tot = int(cnt.sum())
    doc_start = np.cumsum(lengths) - lengths
    base = np.repeat(doc_start, cnt)
    grp = np.repeat(np.cumsum(cnt) - cnt, cnt)
    starts = base + (np.arange(tot, dtype=np.int64) - grp)
    return _splitmix(g1[starts]), g2[starts], starts


def _census_bytes_fn(id_col: str, text_col: str, window: int):
    def part(t: pa.Table) -> pa.Table:
        _t, flat, lengths = _doc_bytes(t, id_col, text_col)
        h1, h2, _ = _byte_gram_hashes(flat, lengths, window)
        return _census_partial(h1, h2)

    return part


def dedup_spans_bytes(ds, id_col: str = "doc_id", text_col: str = "text",
                      window: int = 25, num_buckets: int = 32,
                      max_broadcast: int = 50_000_000):
    """TRUE byte-level ExactSubstr (Lee et al., arXiv:2107.06499 §4.1):
    every byte substring of length ``window`` that occurs MORE THAN ONCE
    across the corpus — at ANY byte alignment, including inside words —
    marks its bytes as duplicated; covered bytes are removed and each
    document reassembled from its surviving bytes.  Catches sub-word
    templates and whitespace-variant boilerplate that the word-window
    variant (:func:`dedup_spans`) misses.

    Same two-streaming-pass / one-small-shuffle shape as
    :func:`dedup_spans`: byte-gram census combiner (h1 with an
    independent h2 collision guard) -> bucketed fold -> broadcast
    duplicated set -> vectorized mark (+1/-1 diff + cumsum over the byte
    tape) & cut.  The output text is rebuilt straight from the kept
    bytes of the Arrow values buffer and validated as UTF-8 by the final
    binary->string cast — a cut that splits a multi-byte code point
    raises rather than silently corrupting (ASCII corpora are always
    safe).  Returns ``(id_col, text_col, n_removed)`` with ``n_removed``
    counted in BYTES."""
    import ray

    if window < 2:
        raise ValueError("window must be >= 2")

    census_part = _census_bytes_fn(id_col, text_col, window)
    census = grouped_apply(
        ds.map_batches(census_part, batch_format="pyarrow",
                       zero_copy_batch=True, batch_size=None),
        "h1", _dup_bucket, num_buckets=num_buckets)
    cdf = census.to_pandas()
    dup = cdf["h1"].to_numpy() if "h1" in cdf.columns \
        else np.zeros(0, np.int64)
    if len(dup) > max_broadcast:
        raise RuntimeError(
            f"dedup_spans_bytes: {len(dup)} duplicated grams exceeds "
            f"max_broadcast={max_broadcast}; run the mark phase as a "
            f"bucketed join on h1 instead of a broadcast")
    dup_ref = ray.put(np.sort(dup.view(np.uint64)))
    cut = _cut_bytes_fn(id_col, text_col, window, dup_ref)
    return ds.map_batches(cut, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def _downcast_string_chunks(big: pa.Array, offsets: np.ndarray,
                            limit: int = 2**31 - 1) -> pa.ChunkedArray:
    """Split a ``large_string`` array into doc-boundary slices of at most
    ``limit`` bytes each and cast every slice down to ``string``, so a
    batch that transiently needed 64-bit offsets still emits the same
    column type as its siblings.  ``offsets`` is the int64 offset vector
    (len = docs + 1).  A single document over ``limit`` bytes is
    unrepresentable as ``string`` — raise rather than corrupt."""
    n = len(offsets) - 1
    doc_bytes = offsets[1:] - offsets[:-1]
    too_big = int(doc_bytes.max(initial=0))
    if too_big > limit:
        raise ValueError(
            f"dedup_spans_bytes: a single kept document holds {too_big} "
            f"bytes, which cannot be represented in a 32-bit-offset "
            f"string column; split the document upstream")
    chunks = []
    start = 0
    while start < n:
        # last doc boundary within `limit` bytes of offsets[start]
        end = int(np.searchsorted(offsets, offsets[start] + limit,
                                  side="right")) - 1
        chunks.append(big.slice(start, end - start).cast(pa.string()))
        start = end
    if not chunks:
        chunks = [pa.array([], pa.string())]
    return pa.chunked_array(chunks)


def _cut_bytes_fn(id_col: str, text_col: str, window: int, dup_ref):
    """Mark-and-cut map for the byte-level pass; ``dup_ref`` is the
    ``ray.put`` handle of the SORTED duplicated-h1 uint64 array."""
    import ray

    def cut(t: pa.Table) -> pa.Table:
        dup_sorted = ray.get(dup_ref)
        t, flat, lengths = _doc_bytes(t, id_col, text_col)
        h1, _h2, starts = _byte_gram_hashes(flat, lengths, window)
        is_dup = isin_sorted(h1, dup_sorted)
        s = starts[is_dup]
        n_flat = len(flat)
        diff = np.zeros(n_flat + 1, np.int64)
        np.add.at(diff, s, 1)
        np.add.at(diff, s + window, -1)
        covered = np.cumsum(diff[:n_flat]) > 0
        keep = ~covered
        # per-doc removed-byte counts WITHOUT an O(bytes) parent array:
        # prefix-sum of covered probed at doc boundaries (reduceat is
        # wrong for zero-length docs)
        csum = np.zeros(n_flat + 1, np.int64)
        np.cumsum(covered, out=csum[1:])
        doc_start = np.cumsum(lengths) - lengths
        removed = csum[doc_start + lengths] - csum[doc_start]
        kept = np.ascontiguousarray(flat[keep])
        new_off = np.zeros(len(lengths) + 1, np.int64)
        np.cumsum(lengths - removed, out=new_off[1:])
        if int(new_off[-1]) < 2**31:
            arr = pa.Array.from_buffers(
                pa.binary(), len(lengths),
                [None, pa.py_buffer(new_off.astype(np.int32)),
                 pa.py_buffer(kept)], null_count=0)
            text = arr.cast(pa.string())  # validates UTF-8
        else:
            # > 2 GiB of kept text in one batch: int32 offsets would wrap
            # (silently corrupting documents) — build through 64-bit
            # offsets, then down-cast doc-boundary slices back to
            # ``string`` so every batch keeps ONE schema (a lone
            # large_string block alongside string blocks fails schema
            # unification at the write/union downstream)
            arr = pa.Array.from_buffers(
                pa.large_binary(), len(lengths),
                [None, pa.py_buffer(new_off), pa.py_buffer(kept)],
                null_count=0)
            big = arr.cast(pa.large_string())  # validates UTF-8
            text = _downcast_string_chunks(big, new_off)
        return pa.table({
            id_col: t[id_col],
            text_col: text,
            "n_removed": pa.array(removed.astype(np.int64)),
        })

    return cut


def dedup_spans_bytes_sql(table: str, id_col: str = "doc_id",
                          text_col: str = "text", window: int = 25) -> str:
    """DuckDB twin of :func:`dedup_spans_bytes` via CHARACTER position
    algebra — exact whenever the corpus is ASCII (chars == bytes; the
    gate corpora are).  Duplicated W-char substrings at every position ->
    covered char positions -> anti-joined reassembly."""
    w1 = window - 1
    return f"""
    WITH docs AS (
      SELECT {id_col} AS doc_id, {text_col} AS text FROM {table}
      WHERE {text_col} IS NOT NULL
    ),
    grams AS (
      SELECT doc_id, i, substring(text, i, {window}) AS g
      FROM (SELECT doc_id, text,
                   unnest(generate_series(1, greatest(length(text) - {w1}, 0))) AS i
            FROM docs)
    ),
    dupg AS (SELECT g FROM grams GROUP BY g HAVING count(*) > 1),
    cover AS (
      SELECT DISTINCT gr.doc_id, gr.i + o.o AS p
      FROM grams gr JOIN dupg USING (g)
      CROSS JOIN (SELECT unnest(generate_series(0, {w1})) AS o) o
    ),
    chars AS (
      SELECT doc_id, unnest(string_split(text, '')) AS ch,
             unnest(generate_series(1, length(text))) AS p
      FROM docs
    )
    SELECT c.doc_id AS {id_col},
           COALESCE(string_agg(CASE WHEN v.p IS NULL THEN c.ch END,
                               '' ORDER BY c.p), '') AS {text_col},
           CAST(count(v.p) AS BIGINT) AS n_removed
    FROM chars c LEFT JOIN cover v ON c.doc_id = v.doc_id AND c.p = v.p
    GROUP BY c.doc_id
    """


def dedup_spans_sql(table: str, id_col: str = "doc_id",
                    text_col: str = "text", window: int = 5) -> str:
    """DuckDB twin of :func:`dedup_spans`: explicit position algebra —
    duplicated W-grams -> covered token positions -> anti-joined
    reassembly with ``string_agg`` (which skips the CASE's nulls)."""
    w1 = window - 1
    return f"""
    WITH toks AS (
      SELECT {id_col} AS doc_id, string_split({text_col}, ' ') AS l
      FROM {table} WHERE {text_col} IS NOT NULL
    ),
    tok AS (
      SELECT doc_id, unnest(l) AS tok,
             unnest(generate_series(1, len(l))) AS p
      FROM toks
    ),
    grams AS (
      SELECT doc_id, i, array_to_string(list_slice(l, i, i + {w1}), ' ') AS g
      FROM (SELECT doc_id, l,
                   unnest(generate_series(1, greatest(len(l) - {w1}, 0))) AS i
            FROM toks)
    ),
    dupg AS (SELECT g FROM grams GROUP BY g HAVING count(*) > 1),
    cover AS (
      SELECT DISTINCT gr.doc_id, t.p
      FROM grams gr JOIN dupg USING (g)
      JOIN tok t ON t.doc_id = gr.doc_id
                AND t.p BETWEEN gr.i AND gr.i + {w1}
    )
    SELECT t.doc_id AS {id_col},
           COALESCE(string_agg(CASE WHEN c.p IS NULL THEN t.tok END,
                               ' ' ORDER BY t.p), '') AS {text_col},
           CAST(count(c.p) AS BIGINT) AS n_removed
    FROM tok t LEFT JOIN cover c ON t.doc_id = c.doc_id AND t.p = c.p
    GROUP BY t.doc_id
    """
