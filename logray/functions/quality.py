"""Gopher-style repetition / quality metrics for a document corpus.

Per-document signals from the Gopher (Rae et al. 2021, arXiv:2112.11446)
data-quality rules: duplicate-line fractions, word statistics, symbol
ratios, bullet / ellipsis line shares, and the derived keep/drop flag.
Everything is computed in ONE pass per batch with Arrow list kernels +
numpy segment sums (``np.bincount`` over list-parent indices) — no
Python per row, no shuffle (the operator is embarrassingly parallel and
fuses into the upstream read).

Definitions (all exactly mirrored by the DuckDB twin in __ray_entry__
``gopher_quality``):

- lines = ``text`` split on ``\\n`` (empty lines count);
  ``dup_line_frac`` = 1 - distinct_lines / n_lines;
  ``dup_line_char_frac`` = chars in repeat occurrences / total line chars.
- words = maximal ``\\S+`` runs; ``mean_word_length`` in codepoints;
  ``alpha_word_frac`` = words containing [A-Za-z];
  ``symbol_word_ratio`` = occurrences of ``#``/``...``/``…`` per word.
- ``bullet_line_frac`` / ``ellipsis_line_frac`` = lines starting with a
  bullet / ending with an ellipsis.
- 0-word or 0-char denominators yield NULL (NaN) metrics.

``top_ngram_char_fraction`` (the most expensive Gopher rule) is separate:
fraction of all word characters covered by occurrences of the single
most frequent word n-gram of the document.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

SYMBOL_PATTERN = r"#|\.\.\.|…"
BULLET_PATTERN = r"^[-*•]"
ELLIPSIS_PATTERN = r"(\.\.\.|…)$"

# Gopher keep-thresholds (Rae et al. 2021 table A1, adapted to the
# metrics above).  A document passes when every populated metric is in
# range; NULL metrics (empty doc) fail.
GOPHER_RULES = dict(
    min_words=50, max_words=100_000,
    min_mean_word_length=3.0, max_mean_word_length=10.0,
    max_symbol_word_ratio=0.1,
    min_alpha_word_frac=0.8,
    max_bullet_line_frac=0.9, max_ellipsis_line_frac=0.3,
    max_dup_line_frac=0.3, max_dup_line_char_frac=0.2,
)


def _seg_sum(parent: np.ndarray, weights, n: int) -> np.ndarray:
    return np.bincount(parent, weights=weights, minlength=n).astype(np.float64)


def _flatten(list_arr):
    """(parent_indices, flat_values) for a ChunkedArray/Array of lists."""
    if isinstance(list_arr, pa.ChunkedArray):
        list_arr = list_arr.combine_chunks()
    parent = pc.list_parent_indices(list_arr).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(list_arr)
    return parent.astype(np.int64), flat


def quality_table(t: pa.Table, col: str = "text", id_col: str = "doc_id",
                  apply_rules: bool = True) -> pa.Table:
    """One batch -> one metrics row per (non-null-text) document."""
    t = t.filter(pc.is_valid(t[col]))
    n = t.num_rows
    text = t[col]

    # --- line metrics -----------------------------------------------------
    lp, lines = _flatten(pc.split_pattern(text, "\n"))
    llen = pc.utf8_length(lines).to_numpy(zero_copy_only=False).astype(np.int64)
    codes, _ = pd.factorize(lines.to_pandas(), sort=False)
    m = int(codes.max()) + 1 if len(codes) else 1
    key = lp * m + codes
    uk, first_idx, counts = np.unique(key, return_index=True, return_counts=True)
    doc_g = uk // m
    glen = llen[first_idx]
    n_lines = np.bincount(lp, minlength=n).astype(np.float64)
    n_unique = np.bincount(doc_g, minlength=n).astype(np.float64)
    dup_chars = _seg_sum(doc_g, glen * (counts - 1), n)
    line_chars = _seg_sum(lp, llen, n)
    bullets = _seg_sum(
        lp, pc.match_substring_regex(lines, BULLET_PATTERN)
        .to_numpy(zero_copy_only=False), n)
    ellipses = _seg_sum(
        lp, pc.match_substring_regex(lines, ELLIPSIS_PATTERN)
        .to_numpy(zero_copy_only=False), n)

    # --- word metrics -----------------------------------------------------
    wp, words = _flatten(pc.split_pattern_regex(text, r"\s+"))
    nonempty = pc.utf8_length(words).to_numpy(zero_copy_only=False) > 0
    wp = wp[nonempty]
    words = words.filter(pa.array(nonempty))
    wlen = pc.utf8_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
    n_words = np.bincount(wp, minlength=n).astype(np.float64)
    word_chars = _seg_sum(wp, wlen, n)
    alpha = _seg_sum(
        wp, pc.match_substring_regex(words, r"[A-Za-z]")
        .to_numpy(zero_copy_only=False), n)
    symbols = pc.cast(
        pc.count_substring_regex(text, SYMBOL_PATTERN), pa.int64()
    ).to_numpy(zero_copy_only=False).astype(np.float64)

    def ratio(num, den):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(den > 0, num / den, np.nan)

    out = {
        id_col: t[id_col],
        "n_lines": pa.array(n_lines.astype(np.int64)),
        "n_words": pa.array(n_words.astype(np.int64)),
        "dup_line_frac": pa.array(1.0 - ratio(n_unique, n_lines)),
        "dup_line_char_frac": pa.array(ratio(dup_chars, line_chars)),
        "mean_word_length": pa.array(ratio(word_chars, n_words)),
        "symbol_word_ratio": pa.array(ratio(symbols, n_words)),
        "alpha_word_frac": pa.array(ratio(alpha, n_words)),
        "bullet_line_frac": pa.array(ratio(bullets, n_lines)),
        "ellipsis_line_frac": pa.array(ratio(ellipses, n_lines)),
    }
    if apply_rules:
        r = GOPHER_RULES
        nw = n_words
        mwl = np.asarray(out["mean_word_length"])
        ok = (
            (nw >= r["min_words"]) & (nw <= r["max_words"])
            & (mwl >= r["min_mean_word_length"]) & (mwl <= r["max_mean_word_length"])
            & (np.asarray(out["symbol_word_ratio"]) <= r["max_symbol_word_ratio"])
            & (np.asarray(out["alpha_word_frac"]) >= r["min_alpha_word_frac"])
            & (np.asarray(out["bullet_line_frac"]) <= r["max_bullet_line_frac"])
            & (np.asarray(out["ellipsis_line_frac"]) <= r["max_ellipsis_line_frac"])
            & (np.asarray(out["dup_line_frac"]) <= r["max_dup_line_frac"])
            & (np.asarray(out["dup_line_char_frac"]) <= r["max_dup_line_char_frac"])
        )
        out["gopher_pass"] = pa.array(np.where(np.isnan(mwl), False, ok))
    return pa.table(out)


def gopher_quality(ds, col: str = "text", id_col: str = "doc_id",
                   apply_rules: bool = True):
    """Dataset-level quality stage (fuses into the upstream read)."""
    return ds.map_batches(
        lambda t: quality_table(t, col, id_col, apply_rules),
        batch_format="pyarrow", zero_copy_batch=True, batch_size=None,
    )


def gopher_quality_sql(table: str, col: str = "text", id_col: str = "doc_id",
                       apply_rules: bool = True) -> str:
    """DuckDB twin of :func:`gopher_quality` (identical definitions;
    exact-int numerators divided in float64)."""
    r = GOPHER_RULES
    pass_expr = f"""
        COALESCE(
          w.n_words >= {r["min_words"]} AND w.n_words <= {r["max_words"]}
          AND w.mean_word_length >= {r["min_mean_word_length"]}
          AND w.mean_word_length <= {r["max_mean_word_length"]}
          AND w.symbol_word_ratio <= {r["max_symbol_word_ratio"]}
          AND w.alpha_word_frac >= {r["min_alpha_word_frac"]}
          AND l.bullet_line_frac <= {r["max_bullet_line_frac"]}
          AND l.ellipsis_line_frac <= {r["max_ellipsis_line_frac"]}
          AND l.dup_line_frac <= {r["max_dup_line_frac"]}
          AND l.dup_line_char_frac <= {r["max_dup_line_char_frac"]}, FALSE)
        AS gopher_pass"""
    return f"""
WITH base AS (
  SELECT {id_col} AS id, {col} AS txt FROM {table} WHERE {col} IS NOT NULL
),
line_groups AS (
  SELECT id, line, count(*) AS cnt, length(line) AS len
  FROM (SELECT id, unnest(string_split(txt, chr(10))) AS line FROM base)
  GROUP BY id, line
),
l AS (
  SELECT id,
         CAST(sum(cnt) AS BIGINT) AS n_lines,
         1.0 - CAST(count(*) AS DOUBLE) / sum(cnt) AS dup_line_frac,
         CASE WHEN sum(len * cnt) > 0
              THEN CAST(sum(len * (cnt - 1)) AS DOUBLE) / sum(len * cnt)
              END AS dup_line_char_frac,
         CAST(sum(CASE WHEN regexp_matches(line, '{BULLET_PATTERN}')
                       THEN cnt ELSE 0 END) AS DOUBLE) / sum(cnt)
           AS bullet_line_frac,
         CAST(sum(CASE WHEN regexp_matches(line, '{ELLIPSIS_PATTERN}')
                       THEN cnt ELSE 0 END) AS DOUBLE) / sum(cnt)
           AS ellipsis_line_frac
  FROM line_groups GROUP BY id
),
word_rows AS (
  SELECT id, w FROM (
    SELECT id, unnest(regexp_split_to_array(txt, '\\s+')) AS w FROM base
  ) WHERE length(w) > 0
),
w0 AS (
  SELECT id,
         CAST(count(*) AS BIGINT) AS n_words,
         CAST(sum(length(w)) AS DOUBLE) / count(*) AS mean_word_length,
         CAST(sum(CASE WHEN regexp_matches(w, '[A-Za-z]') THEN 1 ELSE 0 END)
              AS DOUBLE) / count(*) AS alpha_word_frac
  FROM word_rows GROUP BY id
),
w AS (
  SELECT b.id,
         COALESCE(w0.n_words, 0) AS n_words,
         w0.mean_word_length,
         CASE WHEN w0.n_words > 0
              THEN CAST(length(regexp_extract_all(b.txt, '{SYMBOL_PATTERN}'))
                        AS DOUBLE) / w0.n_words END AS symbol_word_ratio,
         w0.alpha_word_frac
  FROM base b LEFT JOIN w0 ON b.id = w0.id
)
SELECT l.id AS {id_col}, l.n_lines, w.n_words, l.dup_line_frac,
       l.dup_line_char_frac, w.mean_word_length, w.symbol_word_ratio,
       w.alpha_word_frac, l.bullet_line_frac, l.ellipsis_line_frac
       {"," + pass_expr if apply_rules else ""}
FROM l JOIN w ON l.id = w.id
"""


def top_ngram_char_fraction(ds, n: int = 2, col: str = "text",
                            id_col: str = "doc_id"):
    """Fraction of word characters covered by the document's single most
    frequent word n-gram (Gopher repetition rule).  One vectorized pass:
    n-gram keys are joint hashes of n consecutive word hashes within a
    document; the winning gram's char mass is a segment max."""

    def per_batch(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t[col]))
        nd = t.num_rows
        wp, words = _flatten(pc.split_pattern_regex(t[col], r"\s+"))
        keep = pc.utf8_length(words).to_numpy(zero_copy_only=False) > 0
        wp = wp[keep]
        words = words.filter(pa.array(keep))
        wlen = pc.utf8_length(words).to_numpy(zero_copy_only=False).astype(np.int64)
        word_chars = _seg_sum(wp, wlen, nd)
        codes, _ = pd.factorize(words.to_pandas(), sort=False)
        codes = codes.astype(np.int64)
        frac = np.zeros(nd, np.float64)
        if len(codes) >= n:
            # joint hash of n consecutive word codes, valid where the whole
            # window sits in one document
            h = codes[: len(codes) - n + 1].copy()
            glen = wlen[: len(codes) - n + 1].copy()
            ok = wp[: len(codes) - n + 1] == wp[n - 1:]
            for j in range(1, n):
                h = h * np.int64(1_000_003) + codes[j: len(codes) - n + 1 + j]
                glen = glen + wlen[j: len(codes) - n + 1 + j]
            gp = wp[: len(codes) - n + 1][ok]
            df = pd.DataFrame({"p": gp, "h": h[ok], "chars": glen[ok]})
            if len(df):
                g = df.groupby(["p", "h"], sort=False)["chars"].agg(["count", "first"])
                g = g.reset_index()
                g["mass"] = g["count"] * g["first"]
                # most frequent gram (ties: larger char mass)
                g = g.sort_values(["p", "count", "mass"]).groupby("p").tail(1)
                with np.errstate(invalid="ignore", divide="ignore"):
                    f = g["mass"].to_numpy(np.float64) / word_chars[g["p"].to_numpy()]
                frac[g["p"].to_numpy()] = np.nan_to_num(f)
        return pa.table({
            id_col: t[id_col],
            f"top_{n}gram_char_frac": pa.array(frac),
        })

    return ds.map_batches(per_batch, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)


def top_ngram_char_fraction_sql(table: str, n: int = 2,
                                col: str = "text",
                                id_col: str = "doc_id") -> str:
    """DuckDB twin of :func:`top_ngram_char_fraction`.  The reported
    FRACTION is fully deterministic even though the winning gram under
    ties is not: candidates tie first on count, then on char mass, and
    equal (count, mass) pairs yield the identical fraction — so
    grouping by the literal word n-gram here matches the operator's
    joint-hash grouping exactly (the per-batch factorize hash is
    injective below ~1M distinct words per block; gate corpora are far
    under it).  Both engines split on RE2 ``\\s+``, drop empty tokens,
    then form n-grams over the SURVIVING sequence; the final division
    is one correctly-rounded int64->float64 op on each side."""
    gram_join = "\n            ".join(
        f"JOIN wn w{j} ON w{j}.{id_col} = w0.{id_col} "
        f"AND w{j}.rn = w0.rn + {j}" for j in range(1, n))
    glen = " + ".join(f"length(w{j}.word)" for j in range(n))
    gcols = ", ".join(f"w{j}.word AS g{j}" for j in range(n))
    gnames = ", ".join(f"g{j}" for j in range(n))
    return f"""
        WITH tnd AS (
            SELECT {id_col}, {col} AS __t FROM {table}
            WHERE {col} IS NOT NULL),
        tnw AS (
            SELECT {id_col},
                   unnest(regexp_split_to_array(__t, '\\s+')) AS word,
                   unnest(generate_series(
                       1, len(regexp_split_to_array(__t, '\\s+'))))
                       AS pos
            FROM tnd),
        wn AS (
            SELECT {id_col}, word,
                   ROW_NUMBER() OVER (PARTITION BY {id_col}
                                      ORDER BY pos) AS rn
            FROM tnw WHERE word <> ''),
        wc AS (
            SELECT {id_col}, SUM(length(word)) AS chars
            FROM wn GROUP BY {id_col}),
        g AS (
            SELECT w0.{id_col}, {gcols},
                   COUNT(*) AS cnt,
                   ({glen}) AS glen
            FROM wn w0
            {gram_join}
            GROUP BY w0.{id_col}, {gnames}, ({glen})),
        win AS (
            SELECT {id_col}, cnt * glen AS mass,
                   ROW_NUMBER() OVER (PARTITION BY {id_col}
                                      ORDER BY cnt DESC,
                                               cnt * glen DESC) AS rk
            FROM g)
        SELECT d.{id_col},
               COALESCE(CAST(w.mass AS DOUBLE)
                        / CAST(c.chars AS DOUBLE), 0.0)
                   AS top_{n}gram_char_frac
        FROM tnd d
        LEFT JOIN (SELECT * FROM win WHERE rk = 1) w USING({id_col})
        LEFT JOIN wc c USING({id_col})
    """


def compression_ratio(ds, text_col: str = "text", level: int = 6):
    """Per-document zlib compression ratio (compressed bytes / raw
    bytes) — the cheap repetition signal used by web-scale quality
    filters: highly repetitive or templated text compresses far below
    natural prose, near-random text compresses above it.  Appends
    ``raw_bytes``, ``zlib_bytes``, ``zlib_ratio`` (null text -> nulls).

    The per-document zlib.compress call is C code; the Python loop per
    row is the irreducible cost of a per-payload codec (same shape as
    the multimodal decode stages).  No SQL twin — DuckDB has no zlib —
    so exactness is pinned by the unit test against the zlib module
    directly (rows-only gate)."""
    import zlib

    import numpy as np
    import pyarrow as pa

    def part(t: pa.Table) -> pa.Table:
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        vals = col.to_pylist()
        n = len(vals)
        raw = np.zeros(n, np.int64)
        comp = np.zeros(n, np.int64)
        ok = np.zeros(n, np.bool_)
        for i, s in enumerate(vals):
            if s is None:
                continue
            b = s.encode("utf-8")
            raw[i] = len(b)
            comp[i] = len(zlib.compress(b, level))
            ok[i] = True
        ratio = np.where(raw > 0, comp / np.maximum(raw, 1), np.nan)
        return (t.append_column("raw_bytes", pa.array(raw, mask=~ok))
                 .append_column("zlib_bytes", pa.array(comp, mask=~ok))
                 .append_column("zlib_ratio", pa.array(ratio, mask=~ok)))

    return ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True,
                          batch_size=None)


def source_quality_gate(ds, text_col: str = "text", key_col: str = "source",
                        id_col: str = "doc_id", min_alpha_num: int = 55,
                        min_alpha_den: int = 100):
    """Drop every document from a low-quality SOURCE: a source survives
    when its corpus-wide alphabetic-character share reaches
    ``min_alpha_num / min_alpha_den`` (the CCNet/C4-style domain gate —
    judge the domain by its pooled text, then keep or drop the domain
    wholesale).

    Scale shape, no wide join: one streaming pass emits per-batch
    ``(source, alpha_chars, total_chars)`` int64 partials (pre-aggregated
    inside the batch, so the shuffle moves at most sources-per-batch
    rows), a small groupby folds them, the surviving-source list is
    broadcast once via ``ray.put``, and the corpus filters with one
    vectorized ``is_in`` pass.  The gate itself is exact integer
    arithmetic (``alpha * den >= num * total`` — no float division), so
    the verdict is bit-identical to the SQL twin under any partitioning.
    """
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pd.DataFrame:
        t = t.filter(pc.is_valid(t[text_col]))
        alpha = pc.utf8_length(pc.replace_substring_regex(
            t[text_col], pattern="[^a-zA-Z]", replacement=""))
        total = pc.utf8_length(t[text_col])
        df = pd.DataFrame({
            key_col: t[key_col].to_numpy(zero_copy_only=False),
            "a": alpha.to_numpy(zero_copy_only=False).astype(np.int64),
            "c": total.to_numpy(zero_copy_only=False).astype(np.int64),
        })
        return df.groupby(key_col, as_index=False, sort=False).sum()

    folded = (ds.select_columns([key_col, text_col])
              .map_batches(partial, batch_format="pyarrow",
                           zero_copy_batch=True, batch_size=None)
              .groupby(key_col)
              .aggregate(Sum("a", alias_name="a"), Sum("c", alias_name="c"))
              .to_pandas())
    # compare in Python ints: a*den on a 100-TB-scale source overflows
    # int64 (the DuckDB twin promotes to HUGEINT — exact on both sides)
    good = [int(a) * int(min_alpha_den) >= int(min_alpha_num) * int(c)
            for a, c in zip(folded["a"], folded["c"])]
    ok = folded.loc[good, key_col]
    from logray.functions.dedup import _broadcast_id_filter

    return _broadcast_id_filter(ds, pa.array(ok.to_numpy()), key_col,
                                keep_members=True)


def source_quality_gate_sql(table: str, text_col: str = "text",
                            key_col: str = "source",
                            min_alpha_num: int = 55,
                            min_alpha_den: int = 100,
                            cols: str = "*") -> str:
    """DuckDB oracle for :func:`source_quality_gate` (same integer
    gate)."""
    return (
        f"WITH s AS (SELECT {key_col}, "
        f"sum(length(regexp_replace({text_col}, '[^a-zA-Z]', '', 'g'))) AS a, "
        f"sum(length({text_col})) AS c FROM {table} "
        f"WHERE {text_col} IS NOT NULL GROUP BY {key_col}) "
        f"SELECT {cols} FROM {table} d WHERE d.{key_col} IN "
        f"(SELECT {key_col} FROM s WHERE a * {min_alpha_den} >= {min_alpha_num} * c)"
    )


# ---------------------------------------------------------------------------
# banned-wordlist filter (the C4 "bad words" gate)
# ---------------------------------------------------------------------------

def _wordlist_pattern(words) -> str:
    """One RE2 alternation, case-insensitive via (?i) — identical
    semantics in Arrow and DuckDB (both RE2).

    Word boundaries are EDGE-AWARE: ``\\b`` is only attached next to a
    word character (``\\b`` beside a non-word char like '+' would
    invert the match — 'c++' would hit 'c++x' but never a standalone
    'c++').  A token ending in non-word chars therefore matches as a
    prefix ('c++' also hits 'c++x'); that asymmetry is inherent to
    regex word boundaries and documented rather than hidden."""
    import re as _re

    toks = sorted({w.strip().lower() for w in words if w.strip()})
    if not toks:
        raise ValueError("wordlist_filter: empty word list")

    def one(t: str) -> str:
        lead = r"\b" if (t[0].isalnum() or t[0] == "_") else ""
        trail = r"\b" if (t[-1].isalnum() or t[-1] == "_") else ""
        return lead + _re.escape(t) + trail

    return "(?i)(" + "|".join(one(t) for t in toks) + ")"


def wordlist_hits_table(t, words_or_pattern, col: str = "text",
                        out_col: str = "n_banned"):
    """Append the per-row banned-word hit count (int64)."""
    pat = (words_or_pattern if isinstance(words_or_pattern, str)
           else _wordlist_pattern(words_or_pattern))
    return t.append_column(
        out_col, pc.cast(pc.count_substring_regex(t[col], pat), pa.int64()))


def wordlist_filter(ds, words, col: str = "text", mode: str = "drop"):
    """C4-style banned-wordlist gate: drop every document containing any
    listed word (whole-word, ASCII case-insensitive).

    The compiled alternation rides into tasks via the closure (the C4
    list is ~400 words — KBs); evaluation is ONE vectorized RE2 scan per
    batch, fused into the read.  ``mode="flag"`` keeps all rows and
    appends ``n_banned`` (audit: how much would be dropped and where);
    ``mode="drop"`` filters.  Exact DuckDB twin:
    :func:`wordlist_filter_sql`.
    """
    pat = _wordlist_pattern(words)

    if mode == "flag":
        return ds.map_batches(
            lambda t: wordlist_hits_table(t, pat, col),
            batch_format="pyarrow", zero_copy_batch=True, batch_size=None)
    if mode != "drop":
        raise ValueError(f"unknown wordlist_filter mode {mode!r}")

    def _drop(t):
        return t.filter(pc.invert(pc.match_substring_regex(t[col], pat)))

    return ds.map_batches(_drop, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)


def wordlist_filter_sql(table: str, words, col: str = "text",
                        mode: str = "drop", cols: str = "*") -> str:
    """DuckDB oracle for :func:`wordlist_filter` (same RE2 pattern)."""
    pat = _wordlist_pattern(words).replace("'", "''")
    if mode == "flag":
        return (f"SELECT {cols}, CAST(length(regexp_split_to_array"
                f"({col}, '{pat}')) - 1 AS BIGINT) AS n_banned FROM {table}")
    return f"SELECT {cols} FROM {table} WHERE NOT regexp_matches({col}, '{pat}')"
