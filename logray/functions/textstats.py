"""Text analysis over document/transcript text columns.

Training-data-pipeline staples, each fully vectorized over Arrow batches:

- token counting: whitespace tokens + a BPE-ish regex token count;
- quality scoring: length / punctuation / digit / stopword ratios folded
  into one [0,1] score;
- language ID: stopword-hit n-gram heuristic over a small per-language
  lexicon (argmax of vectorized regex hit counts) — a deliberately simple,
  dependency-free classifier.

All counts use RE2 kernels (``pc.count_substring_regex``) so the per-batch
cost is O(bytes) in native code; no Python row loops.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

# BPE-ish tokenization: contractions, letter runs, digit runs, punct runs
# (a simplified GPT-2-style pattern, RE2-compatible).
BPE_TOKEN_RE = r"'(?:[sdmt]|ll|ve|re)| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+"

# tiny stopword lexicons for the language-ID heuristic
LANG_STOPWORDS = {
    "en": ["the", "and", "of", "to", "in", "is", "that", "with"],
    "de": ["der", "die", "und", "das", "ist", "nicht", "mit", "ein"],
    "fr": ["le", "la", "et", "les", "des", "est", "une", "dans"],
    "es": ["el", "la", "de", "que", "los", "una", "por", "con"],
    "zh": ["的", "是", "了", "在", "我", "有", "和", "不"],
}


def _word_hits_re(words: list[str]) -> str:
    alts = "|".join(words)
    return r"(?i)\b(?:" + alts + r")\b"


class TextStatsBatch:
    """Batch stage: regex patterns "compiled" (strings precomputed) once
    on the driver; per-batch work is all RE2/Arrow kernels."""

    def __init__(self, text_col: str = "text", langid: bool = True):
        self.text_col = text_col
        self.langid = langid
        self.lang_res = {lang: _word_hits_re(ws) for lang, ws in LANG_STOPWORDS.items()}

    def __call__(self, t: pa.Table) -> pa.Table:
        col = t[self.text_col]
        n_chars = pc.utf8_length(col)
        n_chars_f = pc.cast(n_chars, pa.float64())
        denom = pc.max_element_wise(n_chars_f, 1.0)

        n_ws_tokens = pc.count_substring_regex(col, r"\S+")
        n_bpe_tokens = pc.count_substring_regex(col, BPE_TOKEN_RE)
        n_punct = pc.count_substring_regex(col, r"[^\s\p{L}\p{N}]")
        n_digit = pc.count_substring_regex(col, r"\p{N}")
        n_upper = pc.count_substring_regex(col, r"\p{Lu}")
        punct_ratio = pc.divide(pc.cast(n_punct, pa.float64()), denom)
        digit_ratio = pc.divide(pc.cast(n_digit, pa.float64()), denom)
        upper_ratio = pc.divide(pc.cast(n_upper, pa.float64()), denom)

        en_hits = pc.count_substring_regex(col, self.lang_res["en"])
        stop_ratio = pc.divide(
            pc.cast(en_hits, pa.float64()),
            pc.max_element_wise(pc.cast(n_ws_tokens, pa.float64()), 1.0),
        )

        # quality in [0,1]: long-enough, not punct/digit-soup, some stopwords
        len_term = pc.min_element_wise(pc.divide(n_chars_f, 200.0), 1.0)
        qual = pc.multiply(
            pc.multiply(len_term, pc.subtract(1.0, pc.min_element_wise(punct_ratio, 1.0))),
            pc.add(0.5, pc.min_element_wise(stop_ratio, 0.5)),
        )

        out = {
            "n_chars_text": n_chars,
            "n_ws_tokens": n_ws_tokens,
            "n_bpe_tokens": n_bpe_tokens,
            "punct_ratio": punct_ratio,
            "digit_ratio": digit_ratio,
            "upper_ratio": upper_ratio,
            "stopword_ratio": stop_ratio,
            "quality_score": qual,
        }
        if self.langid:
            hit_arrays = [
                pc.cast(pc.count_substring_regex(col, rx), pa.int64())
                for rx in self.lang_res.values()
            ]
            langs = list(self.lang_res.keys())
            best = hit_arrays[0]
            best_idx = pa.array([0] * t.num_rows, pa.int64())
            for i in range(1, len(hit_arrays)):
                better = pc.greater(hit_arrays[i], best)
                best = pc.max_element_wise(best, hit_arrays[i])
                best_idx = pc.if_else(better, i, best_idx)
            lang_vals = pa.array(langs + ["unknown"], pa.string())
            best_idx = pc.if_else(pc.greater(best, 0), best_idx, len(langs))
            out["lang_id"] = pc.take(lang_vals, best_idx)
        for name, arr in out.items():
            if name in t.column_names:
                t = t.drop_columns([name])
            t = t.append_column(name, arr)
        return t


def text_stats(ds, text_col: str = "text", langid: bool = True,
               batch_size: int | None = None):
    # batch_size=None: whole-block batches fuse the stage into the read
    return ds.map_batches(TextStatsBatch(text_col, langid), batch_format="pyarrow",
                          batch_size=batch_size, zero_copy_batch=True)


def lang_quality_sql(table: str, text_col: str = "text",
                     id_col: str = "doc_id") -> str:
    """DuckDB twin of the (lang_id, quality_score) slice of
    :func:`text_stats`.  Exact because both engines run RE2 (identical
    match counts for the same patterns) and the quality score is a
    FIXED float64 expression tree — each elementary op is correctly
    rounded on both sides, so the bits agree.  The lang argmax's
    first-wins tie rule (the operator only replaces on strictly
    greater) becomes the >= CASE chain in dictionary order."""
    langs = list(LANG_STOPWORDS)

    def hits(lang: str) -> str:
        rx = _word_hits_re(LANG_STOPWORDS[lang]).replace("'", "''")
        return f"len(regexp_extract_all({text_col}, '{rx}'))"

    hit_cols = ", ".join(
        f"CAST({hits(lg)} AS BIGINT) AS h_{lg}" for lg in langs)
    # first strict max wins: earlier languages take ties
    case = [f"WHEN greatest({', '.join('h_' + lg for lg in langs)}) = 0 "
            "THEN 'unknown'"]
    for i, lg in enumerate(langs[:-1]):
        conds = " AND ".join(f"h_{lg} >= h_{o}" for o in langs[i + 1:])
        case.append(f"WHEN {conds} THEN '{lg}'")
    case.append(f"ELSE '{langs[-1]}'")
    case_sql = "CASE " + " ".join(case) + " END"
    return f"""
        WITH lqb AS (
            SELECT {id_col},
                   CAST(length({text_col}) AS DOUBLE) AS nc,
                   CAST(len(regexp_extract_all({text_col}, '\\S+'))
                        AS DOUBLE) AS nws,
                   CAST(len(regexp_extract_all({text_col},
                        '[^\\s\\p{{L}}\\p{{N}}]')) AS DOUBLE) AS np,
                   {hit_cols}
            FROM {table})
        SELECT {id_col},
               {case_sql} AS lang_id,
               (least(nc / 200.0, 1.0)
                * (1.0 - least(np / greatest(nc, 1.0), 1.0)))
               * (0.5 + least(CAST(h_en AS DOUBLE)
                              / greatest(nws, 1.0), 0.5))
                   AS quality_score
        FROM lqb
    """


def tokenize(ds, text_col: str = "text", id_col: str | None = None,
             pattern: str = " ", lower: bool = False, batch_size: int | None = None):
    """Explode text into one row per token (split on the literal
    ``pattern``, keeping empty tokens — matches SQL ``string_split``).
    Output columns: [id_col?] + token.  Fully vectorized: Arrow split to a
    list column, then a flatten + parent-index take."""

    def explode(t: pa.Table) -> pa.Table:
        col = t[text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        if lower:
            col = pc.ascii_lower(col)
        lists = pc.split_pattern(col, pattern=pattern)
        flat = pc.list_flatten(lists)
        parent = pc.list_parent_indices(lists)
        cols = {}
        if id_col is not None:
            cols[id_col] = pc.take(t[id_col], parent)
        cols["token"] = flat
        return pa.table(cols)

    return ds.map_batches(explode, batch_format="pyarrow", batch_size=batch_size,
                          zero_copy_batch=True)
