"""Transcript table sources.

The engine's canonical input (per BASELINE input_hint) is a Parquet table of
multi-turn conversation / agent transcripts::

    conv_id: string, turn_idx: int32, role: string, text: string,
    tool: string, ts: timestamp[us]

Three sources are provided:

- :func:`read_transcripts` — read an existing Parquet transcript table;
- :func:`transcripts_from_events` — deterministically derive a transcript
  table from the driver's ``events`` table (so correctness queries over
  transcripts are reproducible in DuckDB SQL from the same parquet);
- :func:`synth_transcripts_table` / :func:`write_synth_transcripts` —
  deterministic synthetic corpus for unit tests and large-scale benches
  (seeded, no wall-clock), including malformed rows and a configurable
  hot-conversation skew for shuffle testing.

Rendered ``text`` lines follow the engine's golden format (see
``logray.formats.GOLDEN_FORMAT``), with integer-only numeric payloads so the
Ray and SQL renderings are byte-identical (no float formatting drift).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

TRANSCRIPT_SCHEMA = pa.schema(
    [
        pa.field("conv_id", pa.string()),
        pa.field("turn_idx", pa.int32()),
        pa.field("role", pa.string()),
        pa.field("text", pa.string()),
        pa.field("tool", pa.string()),
        pa.field("ts", pa.timestamp("us")),
    ]
)

ROLES = ["user", "assistant", "tool", "system"]
TOOLS = ["search", "bash", "browser", "python"]
LEVELS = ["TRACE", "INFO", "EVENT", "WARN"]
_T0 = np.datetime64("2026-01-01T00:00:00", "us")


def read_transcripts(path: str, columns: list[str] | None = None):
    import ray.data as rd

    return rd.read_parquet(path, columns=columns)


# ---------------------------------------------------------------------------
# events -> transcripts (SQL-reproducible derivation)
# ---------------------------------------------------------------------------

# Keep in sync with transcripts_from_events_sql() below.


def _render_text_from_events(t: pa.Table) -> pa.Table:
    """Render a golden-format log line per event row; byte-identical to the
    SQL in :func:`transcripts_from_events_sql`."""
    # Arrow's %S prints fractional seconds for sub-second timestamps;
    # truncate to seconds so the rendering matches DuckDB's strftime.
    ts = pc.floor_temporal(t["ts"], unit="second").cast(pa.timestamp("s"))
    date_s = pc.strftime(ts, format="%m%d")
    time_s = pc.strftime(ts, format="%H%M%S")
    level = pc.ascii_upper(t["event_type"])
    eid = pc.cast(t["event_id"], pa.int64())
    src = pc.binary_join_element_wise(
        "evt_", pc.cast(pc.subtract(eid, pc.multiply(pc.divide(eid, 100), 100)), pa.string()), ""
    )
    cents = pc.cast(pc.round(pc.multiply(t["value"], 100.0)), pa.int64())
    good = pc.binary_join_element_wise(
        date_s,
        " ",
        time_s,
        " ",
        level,
        "  :..",
        src,
        ": val=",
        pc.cast(cents, pa.string()),
        "",
    )
    badfmt = pc.binary_join_element_wise(
        "0xDEAD ..Ba..Da val=", pc.cast(cents, pa.string()), ""
    )
    is_bad = pc.equal(pc.subtract(eid, pc.multiply(pc.divide(eid, 37), 37)), 0)
    text = pc.if_else(is_bad, badfmt, good)
    return t.append_column("text", text)


def _events_to_transcript_cols(t: pa.Table) -> pa.Table:
    t = _render_text_from_events(t)
    eid = pc.cast(t["event_id"], pa.int64())
    m20 = pc.subtract(eid, pc.multiply(pc.divide(eid, 20), 20))
    role = pc.case_when(
        pc.make_struct(pc.less(m20, 8), pc.less(m20, 16), pc.less(m20, 19)),
        "user",
        "assistant",
        "tool",
        "system",
    )
    m4 = pc.subtract(eid, pc.multiply(pc.divide(eid, 4), 4))
    tool = pc.if_else(
        pc.equal(role, "tool"),
        pc.case_when(
            pc.make_struct(pc.equal(m4, 0), pc.equal(m4, 1), pc.equal(m4, 2)),
            "search",
            "bash",
            "browser",
            "python",
        ),
        "",
    )
    uid = pc.cast(t["user_id"], pa.int64())
    conv = pc.binary_join_element_wise(
        "conv-", pc.utf8_lpad(pc.cast(uid, pa.string()), 5, "0"), ""
    )
    out = pa.table(
        {
            "conv_id": conv,
            "event_id": eid,  # carried for turn_idx assignment / ordering
            "role": role,
            "text": t["text"],
            "tool": tool,
            "ts": t["ts"].cast(pa.timestamp("us")),
        }
    )
    return out


def _segmented_turn_idx(t: pa.Table) -> pa.Table:
    """Vectorized within-conversation rank for ONE (conv_id, ts,
    event_id)-sorted bucket: segmented cumcount over the conv runs."""
    n = t.num_rows
    if n == 0:
        return t.append_column("turn_idx", pa.array([], pa.int32()))
    c = t["conv_id"].combine_chunks()
    change = np.ones(n, np.bool_)
    if n > 1:
        change[1:] = ~np.asarray(pc.equal(c.slice(1), c.slice(0, n - 1)))
    run_start = np.flatnonzero(change)
    run_id = np.cumsum(change) - 1
    turn = np.arange(n, dtype=np.int64) - run_start[run_id]
    return t.append_column("turn_idx", pa.array(turn.astype(np.int32)))


def assign_turn_idx(ds, num_buckets: int = 64):
    """turn_idx = rank of the event within its conversation by (ts,
    event_id) — the STREAMING scale shape: one ``hash(conv_id) % B``
    shuffle, then per bucket an Arrow sort by (conv_id, ts, event_id)
    and a vectorized segmented cumcount.  Every conversation is
    complete inside its bucket, so there is no block-seam fix-up, no
    global range sort and no full-width materialize.  Partitioning
    assumption: one bucket's rows fit a worker
    (raise ``num_buckets`` with corpus size; a single pathological
    conversation bounds the minimum at its own size)."""
    from logray.stages.bucketing import grouped_apply

    def per_bucket(t: pa.Table) -> pa.Table:
        t = t.combine_chunks()
        t = t.sort_by([("conv_id", "ascending"), ("ts", "ascending"),
                       ("event_id", "ascending")])
        return _segmented_turn_idx(t)

    return grouped_apply(ds, "conv_id", per_bucket, num_buckets=num_buckets,
                         batch_format="pyarrow")


def transcripts_from_events(sf_dir: str, with_turn_idx: bool = True):
    """Build the transcript Dataset from ``{sf_dir}/events.parquet``.

    conv_id groups events by user; turn_idx is the rank of the event within
    its conversation by (ts, event_id) — assigned via one bucketed hash
    shuffle + vectorized segmented cumcount (:func:`assign_turn_idx`; no
    global sort, no full-width materialize), the engine's canonical
    partitioning key.
    """
    import ray.data as rd

    ds = rd.read_parquet(
        f"{sf_dir}/events.parquet",
        columns=["event_id", "ts", "user_id", "event_type", "value"],
    )
    ds = ds.map_batches(_events_to_transcript_cols, batch_format="pyarrow")
    if with_turn_idx:
        ds = assign_turn_idx(ds)
    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts"] if with_turn_idx else [
        "conv_id", "event_id", "role", "text", "tool", "ts"
    ]
    return ds.select_columns(cols)


def transcripts_from_events_sql(with_turn_idx: bool = True) -> str:
    """DuckDB SQL producing the identical transcript table from the `events`
    view — the oracle side of :func:`transcripts_from_events`."""
    turn = (
        "CAST(row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) - 1 AS INTEGER) AS turn_idx,"
        if with_turn_idx
        else "event_id,"
    )
    return f"""
    SELECT
      'conv-' || lpad(CAST(user_id AS VARCHAR), 5, '0') AS conv_id,
      {turn}
      CASE WHEN event_id % 20 < 8 THEN 'user'
           WHEN event_id % 20 < 16 THEN 'assistant'
           WHEN event_id % 20 < 19 THEN 'tool'
           ELSE 'system' END AS role,
      CASE WHEN event_id % 37 = 0
           THEN '0xDEAD ..Ba..Da val=' || CAST(CAST(round(value*100) AS BIGINT) AS VARCHAR)
           ELSE strftime(ts, '%m%d') || ' ' || strftime(ts, '%H%M%S') || ' ' ||
                upper(event_type) || '  :..evt_' || CAST(event_id % 100 AS VARCHAR) ||
                ': val=' || CAST(CAST(round(value*100) AS BIGINT) AS VARCHAR)
      END AS text,
      CASE WHEN event_id % 20 >= 16 AND event_id % 20 < 19 THEN
           CASE event_id % 4 WHEN 0 THEN 'search' WHEN 1 THEN 'bash'
                             WHEN 2 THEN 'browser' ELSE 'python' END
           ELSE '' END AS tool,
      ts
    FROM events
    """


# ---------------------------------------------------------------------------
# synthetic corpus (tests + bench)
# ---------------------------------------------------------------------------


def synth_transcripts_table(
    n_convs: int = 100,
    mean_turns: int = 16,
    seed: int = 42,
    hot_conv_rows: int = 0,
    malformed_every: int = 37,
    start_conv: int = 0,
) -> pa.Table:
    """Deterministic synthetic transcript chunk.

    ``hot_conv_rows`` extra rows are appended to conv 0 (the "hot"
    conversation) to exercise skewed groupbys.  ``ts`` derives from
    ``turn_idx`` (no wall clock).
    """
    rng = np.random.default_rng(seed)
    turns = rng.poisson(mean_turns, n_convs).astype(np.int64) + 1
    conv_nums = np.repeat(np.arange(start_conv, start_conv + n_convs), turns)
    turn_idx = np.concatenate([np.arange(t) for t in turns]).astype(np.int32)
    if hot_conv_rows:
        conv_nums = np.concatenate(
            [conv_nums, np.full(hot_conv_rows, start_conv, np.int64)]
        )
        turn_idx = np.concatenate(
            [turn_idx, (turns[0] + np.arange(hot_conv_rows)).astype(np.int32)]
        )
    n = len(conv_nums)
    rowid = rng.permutation(n)  # decouples role pattern from storage order

    role_sel = rowid % 20
    role = np.select(
        [role_sel < 8, role_sel < 16, role_sel < 19], ["user", "assistant", "tool"], "system"
    )
    tool = np.where(role == "tool", np.array(TOOLS)[rowid % 4], "")
    level = np.array(LEVELS)[rowid % 23 % 4]
    src_id = rowid % 100
    cents = rng.integers(1, 100000, n)

    date_s = np.char.zfill((101 + (conv_nums % 28)).astype("U4"), 4)
    time_s = np.char.zfill((turn_idx.astype(np.int64) % 86400).astype("U6"), 6)
    good = np.char.add(
        np.char.add(
            np.char.add(np.char.add(date_s, " "), np.char.add(time_s, " ")),
            np.char.add(level, "  :.."),
        ),
        np.char.add(
            np.char.add(np.char.add("evt_", src_id.astype("U3")), ": val="),
            cents.astype("U6"),
        ),
    )
    bad = np.char.add("0xDEAD ..Ba..Da val=", cents.astype("U6"))
    is_bad = (rowid % malformed_every) == 0 if malformed_every else np.zeros(n, bool)
    text = np.where(is_bad, bad, good)

    ts = _T0 + (conv_nums * 3600_000_000).astype("timedelta64[us]") + (
        turn_idx.astype(np.int64) * 1_000_000
    ).astype("timedelta64[us]")
    conv_id = np.char.add("conv-", np.char.zfill(conv_nums.astype("U8"), 8))

    return pa.table(
        {
            "conv_id": pa.array(conv_id),
            "turn_idx": pa.array(turn_idx, pa.int32()),
            "role": pa.array(role),
            "text": pa.array(text),
            "tool": pa.array(tool),
            "ts": pa.array(ts),
        }
    )


def write_synth_transcripts(
    path: str,
    n_convs: int,
    mean_turns: int = 16,
    seed: int = 42,
    hot_conv_rows: int = 0,
    convs_per_file: int = 20_000,
) -> int:
    """Write a (possibly large) synthetic corpus as a directory of Parquet
    files, chunk by chunk — bounded memory regardless of total size.
    Returns total rows written."""
    import os

    os.makedirs(path, exist_ok=True)
    total = 0
    fileno = 0
    for c0 in range(0, n_convs, convs_per_file):
        nc = min(convs_per_file, n_convs - c0)
        t = synth_transcripts_table(
            n_convs=nc,
            mean_turns=mean_turns,
            seed=seed + fileno,
            hot_conv_rows=hot_conv_rows if c0 == 0 else 0,
            start_conv=c0,
        )
        pq.write_table(t, os.path.join(path, f"part-{fileno:05d}.parquet"))
        total += t.num_rows
        fileno += 1
    return total
