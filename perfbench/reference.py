"""Exact expected answers, computed once per run with DuckDB.

The flagship answers come from the generator's ground-truth keys (``rowid``,
``level``), in the way ``__ray_entry__.oracle_sql`` predicts routes from
``event_id % 37``, so they do not depend on logray's parser.  The shuffle and
graph answers use the repo's own SQL twins.
"""

from __future__ import annotations

import duckdb
import pyarrow as pa
import pyarrow.compute as pc

from perfbench.inputs import MALFORMED_EVERY

# the benchmark's routes: name, filter declaration, accept malformed rows
ROUTES = [
    ("info", "Level EQ INFO", False),
    ("trace", "Level EQ TRACE", False),
    ("warn", "Level EQ WARN OR Level EQ EVENT", False),
    ("malformed", "", True),
]
PAGERANK_ITERS = 5
_WELL = f"rowid % {MALFORMED_EVERY} <> 0"


def _connect(tmp_dir: str):
    con = duckdb.connect()
    con.execute(f"SET temp_directory = '{tmp_dir}'")
    con.execute("SET threads = 1")
    return con


def _counts(con, sql: str) -> dict:
    return {str(k): int(n) for k, n in con.execute(sql).fetchall()}


def corpus_answers(corpus: pa.Table, tmp_dir: str) -> dict:
    """Flagship metrics, dialogues and role transitions for ``corpus``."""
    from logray.stages.sequence import transition_counts_sql

    con = _connect(tmp_dir)
    con.register("t", corpus)
    routes = _counts(con, f"""
        SELECT CASE WHEN NOT ({_WELL}) THEN 'malformed'
                    WHEN level = 'INFO' THEN 'info'
                    WHEN level = 'TRACE' THEN 'trace'
                    ELSE 'warn' END AS route, count(*)
        FROM t GROUP BY route""")
    role_class = _counts(con, """
        SELECT CASE WHEN rowid % 20 < 8 THEN 'human'
                    WHEN rowid % 20 < 16 THEN 'model'
                    WHEN rowid % 20 < 19 THEN 'machine'
                    ELSE 'meta' END AS k, count(*)
        FROM t GROUP BY k""")
    tool_kind = _counts(con, """
        SELECT CASE WHEN tool = '' THEN 'none'
                    WHEN tool IN ('search', 'browser') THEN 'retrieval'
                    ELSE 'execution' END AS k, count(*)
        FROM t GROUP BY k""")
    convs, total, max_turns = con.execute(
        "SELECT count(*), sum(n), max(n) FROM "
        "(SELECT count(*) AS n FROM t GROUP BY conv_id)").fetchone()
    ts_min, ts_max = con.execute(
        "SELECT CAST(min(ts) AS VARCHAR), CAST(max(ts) AS VARCHAR) FROM t").fetchone()
    dialogues = con.execute("""
        SELECT conv_id, string_agg(text, '\n' ORDER BY turn_idx) AS dialogue
        FROM t GROUP BY conv_id ORDER BY conv_id""").arrow()
    transitions = con.execute(
        transition_counts_sql("t", "conv_id", "turn_idx", "role")
        + " ORDER BY from_val, to_val").arrow()
    con.close()
    return {
        "flagship": {
            "routes": routes,
            "histograms": {"role_class": role_class, "tool_kind": tool_kind},
            "conversations": int(convs),
            "turns_total": int(total),
            "turns_per_conv_max": int(max_turns),
            "ts_min": ts_min,
            "ts_max": ts_max,
        },
        "dialogues": dialogues,
        "transitions": transitions,
    }


def graph_answers(edges: pa.Table, tmp_dir: str) -> dict:
    """Fixed-point PageRank and connected components for ``edges``."""
    from logray.functions.graph import connected_components_sql, pagerank_fixedpoint_sql

    con = _connect(tmp_dir)
    con.register("edges_in", edges)
    ranks = con.execute(
        pagerank_fixedpoint_sql("edges_in", n_iter=PAGERANK_ITERS)).arrow()
    components = con.execute(connected_components_sql("edges_in")).arrow()
    con.close()
    return {"ranks": ranks, "components": components}


def sorted_by(table: pa.Table, *keys: str) -> pa.Table:
    return table.combine_chunks().sort_by([(k, "ascending") for k in keys])


def same_columns(got: pa.Table, want: pa.Table, cols: list[str]) -> bool:
    """Exact equality of ``cols`` (values and order) after the caller sorts."""
    if got.num_rows != want.num_rows:
        return False
    return all(got[c].combine_chunks().equals(want[c].combine_chunks().cast(got[c].type))
               for c in cols)


def max_abs_diff(a: pa.ChunkedArray, b: pa.ChunkedArray) -> float:
    d = pc.max(pc.abs(pc.subtract(a, b))).as_py()
    return 0.0 if d is None else float(d)
