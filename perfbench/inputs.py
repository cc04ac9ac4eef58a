"""Seeded benchmark inputs, generated here and not by the program under test.

The transcript corpus and the edge table come from this module's own numpy
generator, so a change to logray's synthetic sources can never change what
the benchmark measures.  Each table also carries the generator's ground-truth
keys (``rowid``, ``level``) that the DuckDB reference uses in place of parsing.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

LEVELS = ("TRACE", "INFO", "EVENT", "WARN")
ROLES = ("user", "assistant", "tool", "system")
TOOLS = ("search", "bash", "browser", "python")
MEAN_TURNS = 16
MALFORMED_EVERY = 37  # about 1/37 of the rows do not parse
HOT_SHARE = 0.02  # one conversation holds about 2% of the rows
T0_US = 1_767_225_600_000_000  # 2026-01-01T00:00:00 in microseconds
COMMUNITY = 64  # graph nodes per community

# columns logray sees; the rest are ground truth for the reference
TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _zpad(values: np.ndarray, width: int) -> pa.Array:
    return pc.utf8_lpad(pa.array(values.astype(np.int64)).cast(pa.string()), width, "0")


def transcripts(seed: int, rows: int) -> pa.Table:
    """Exactly ``rows`` turns in (conversation, turn) order.  Turns per
    conversation are Poisson(16)+1, except one hot conversation at a random
    position that takes the remainder (about 2% of the rows)."""
    rng = _rng(seed, 1)
    n_convs = int(rows * (1 - HOT_SHARE)) // (MEAN_TURNS + 1)
    turns = rng.poisson(MEAN_TURNS, n_convs).astype(np.int64) + 1
    while turns.sum() >= rows:  # keep room for the hot conversation
        turns = turns[:-1]
    hot_at = int(rng.integers(0, len(turns)))
    turns[hot_at] += rows - turns.sum()
    conv = np.repeat(np.arange(len(turns)), turns)
    starts = np.repeat(np.cumsum(turns) - turns, turns)
    turn_idx = np.arange(rows) - starts
    rowid = rng.permutation(rows)  # decouples the row mix from storage order

    level = np.array(LEVELS)[rng.integers(0, len(LEVELS), rows)]
    r = rowid % 20
    role_i = np.select([r < 8, r < 16, r < 19], [0, 1, 2], 3)
    role = np.array(ROLES)[role_i]
    tool = np.where(role_i == 2, np.array(TOOLS)[rng.integers(0, len(TOOLS), rows)], "")
    bad = rowid % MALFORMED_EVERY == 0
    cents = pa.array(rng.integers(1, 100_000, rows)).cast(pa.string())

    good = pc.binary_join_element_wise(
        _zpad(101 + conv % 28, 4), " ", _zpad(turn_idx % 86_400, 6), " ",
        pa.array(level), "  :..evt_", pa.array(rowid % 100).cast(pa.string()),
        ": val=", cents, "")
    text = pc.if_else(pa.array(bad), pc.binary_join_element_wise(
        "0xDEAD ..Ba..Da val=", cents, ""), good)
    ts = (T0_US + conv * 3_600_000_000 + turn_idx * 1_000_000).astype(np.int64)
    return pa.table({
        "conv_id": pc.binary_join_element_wise("conv-", _zpad(conv, 8), ""),
        "turn_idx": pa.array(turn_idx.astype(np.int32)),
        "role": pa.array(role),
        "text": text,
        "tool": pa.array(tool),
        "ts": pa.array(ts).cast(pa.timestamp("us")),
        "level": pa.array(level),
        "rowid": pa.array(rowid.astype(np.int64)),
    })


def edges(seed: int, n_edges: int) -> pa.Table:
    """A sparse directed multigraph: 2/3 * ``n_edges`` nodes with sparse
    int64 ids (average total degree about 3), in communities of
    ``COMMUNITY`` nodes with both ends of an edge in one community.
    Without communities one giant component forms, and the DuckDB
    connected-components twin (a recursive label closure) takes minutes."""
    rng = _rng(seed, 2)
    n_nodes = max(2 * n_edges // 3 // COMMUNITY, 1) * COMMUNITY
    ids = rng.choice(10 * n_nodes, n_nodes, replace=False).astype(np.int64)
    base = rng.integers(0, n_nodes // COMMUNITY, n_edges) * COMMUNITY
    return pa.table({
        "src": pa.array(ids[base + rng.integers(0, COMMUNITY, n_edges)]),
        "dst": pa.array(ids[base + rng.integers(0, COMMUNITY, n_edges)]),
    })


def content_hash(table: pa.Table) -> str:
    """sha256 of the table's Arrow IPC stream: equal iff schema and values
    are equal."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table.combine_chunks())
    return hashlib.sha256(sink.getvalue()).hexdigest()


def write_files(table: pa.Table, out_dir: str, n_files: int,
                group_col: str | None = None) -> list[str]:
    """Split ``table`` into ``n_files`` Parquet files of about equal row
    count, never splitting a ``group_col`` run across files (so the hot
    conversation makes one file larger than the rest).  Returns the paths,
    largest first, which is the order the reader should schedule them."""
    os.makedirs(out_dir, exist_ok=True)
    n = table.num_rows
    cuts = np.linspace(0, n, n_files + 1).astype(np.int64)
    if group_col is not None:
        keys = table[group_col].combine_chunks()
        change = np.ones(n, np.bool_)
        change[1:] = ~np.asarray(pc.equal(keys.slice(1), keys.slice(0, n - 1)))
        starts = np.flatnonzero(change)
        cuts = np.unique(starts[np.minimum(np.searchsorted(starts, cuts), len(starts) - 1)])
        cuts = np.append(cuts[cuts < n], n)
    paths = []
    for i, (a, b) in enumerate(zip(cuts[:-1], cuts[1:])):
        p = os.path.join(out_dir, f"part-{i:03d}.parquet")
        pq.write_table(table.slice(a, b - a), p)
        paths.append((b - a, p))
    return [p for _n, p in sorted(paths, key=lambda x: -x[0])]
