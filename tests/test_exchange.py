"""The bucket exchange (logray/stages/bucketing.py).

Every hash-bucket shuffle in logray runs through ``bucket_exchange``;
these tests pin the outputs of the operators built on it, so a change to
how the exchange runs (strategy, tag column, strip) shows up as a hash
mismatch, and keep the exchange in that one module.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

B = 3  # few buckets, so every bucket holds several keys


def _events(seed: int = 11, n: int = 180) -> pd.DataFrame:
    """Seeded events: a hot conversation (a third of the rows), null
    keys, unique (turn_idx, ts, event_id) so every order is total, some
    null values, and texts whose lines repeat across documents."""
    rng = np.random.default_rng(seed)
    conv = rng.choice(["a", "b", "c", "d", "e", "f", "g"], n).astype(object)
    conv[rng.random(n) < 0.33] = "hot"
    conv[rng.random(n) < 0.08] = None
    words = np.array(["alpha", "beta", "gamma", "delta", "eps"])
    value = rng.integers(-50, 50, n).astype(np.float64)
    value[rng.random(n) < 0.1] = np.nan
    return pd.DataFrame({
        "conv_id": conv,
        "turn_idx": rng.permutation(n).astype(np.int64),
        "ts": rng.permutation(n).astype(np.int64) * 7,
        "event_id": np.arange(n, dtype=np.int64),
        "val": rng.choice(["x", "y", "z"], n),
        "value": pd.array(value, dtype="Int64"),
        "text": ["\n".join(rng.choice(words, rng.integers(1, 4)))
                 for _ in range(n)],
    })


def _ds(df: pd.DataFrame, blocks: int = 4):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
        .repartition(blocks)


def _run(case: str):
    from logray.functions.dedup import _distinct_pairs, exact_dedup
    from logray.functions.linededup import dedup_lines
    from logray.functions.sample import reservoir_per_key
    from logray.sources.transcripts import assign_turn_idx
    from logray.stages.aggregate import grouped_quantiles, topk_per_key
    from logray.stages.join import (_bucketed_join, _bucketed_join_pandas,
                                    asof_join)
    from logray.stages.reassemble import fold_dialogues, turn_context
    from logray.stages.sequence import transition_counts
    from logray.stages.setops import except_distinct
    from logray.stages.window import sessionize
    from logray.stages.windowfn import lag_lead, rolling_agg

    df = _events()
    ds = _ds(df)
    k = "conv_id"
    if case == "fold_dialogues":
        return fold_dialogues(ds, num_buckets=B)
    if case == "turn_context":
        return turn_context(ds, window=3, num_buckets=B)
    if case == "transition_counts":
        return transition_counts(ds, k, "turn_idx", "val", num_buckets=B)
    if case == "lag_lead":
        return lag_lead(ds, k, "ts", "value", n=2, num_buckets=B)
    if case == "rolling_agg":
        return rolling_agg(ds, k, "ts", "value", window=3, num_buckets=B)
    if case == "sessionize":
        return sessionize(ds, k, ts_col="ts", gap_s=1e-4,
                          tiebreak_col="event_id", num_buckets=B)
    if case == "assign_turn_idx":
        # a null conv_id is outside assign_turn_idx's input contract
        return assign_turn_idx(_ds(df[df[k].notna()].drop(columns="turn_idx")),
                               num_buckets=B)
    if case == "reservoir_per_key":
        return reservoir_per_key(ds, k, 4, "event_id", seed=3, num_buckets=B)
    if case == "topk_per_key":
        return topk_per_key(ds, k, "ts", 3, tiebreak_col="event_id",
                            num_buckets=B)
    if case == "except_distinct":
        return except_distinct(ds, _ds(df.iloc[::3]), [k, "val"],
                               num_buckets=B)
    right = pd.DataFrame({"conv_id": ["a", "b", "hot", None, "zz"],
                          "ts": np.array([0, 300, 600, 30, 9], np.int64),
                          "label": [1, 2, 3, 4, 5]})
    if case == "bucketed_join_arrow":
        return _bucketed_join(ds, _ds(right, 2), [k], [k], "left", B)
    if case == "bucketed_join_pandas":
        return _bucketed_join_pandas(ds, _ds(right, 2), [k], [k], "inner", B)
    if case == "asof_join":
        return asof_join(ds, _ds(right.dropna(), 2), k, ts_col="ts",
                         num_buckets=B)
    if case == "grouped_quantiles":
        return grouped_quantiles(ds, k, "value", [0.25, 0.5, 1.0],
                                 num_buckets=B)
    if case == "exact_dedup":
        return exact_dedup(ds, text_col="text", id_col="event_id",
                           num_buckets=B)
    if case == "distinct_pairs":
        pairs = pd.DataFrame({"id_a": df["event_id"] % 7,
                              "id_b": df["turn_idx"] % 5})
        return _distinct_pairs(_ds(pairs), num_buckets=B)
    if case.startswith("dedup_lines"):
        docs = ds.select_columns(["event_id", "text"])
        return dedup_lines(docs, id_col="event_id", num_buckets=B,
                           mode=case.split("-")[1])
    raise KeyError(case)


def _digest(out) -> str:
    """sha256 prefix of the schema (names, order, Arrow types) plus the
    rows sorted by every column — map_groups output order is not
    guaranteed, the multiset of rows is."""
    if isinstance(out, pd.DataFrame):
        t = pa.Table.from_pandas(out, preserve_index=False)
    else:
        import ray

        # empty buckets come back as schema-less blocks
        t = pa.concat_tables([b for b in ray.get(out.to_arrow_refs())
                              if b.num_rows])
    t = t.replace_schema_metadata(None)
    h = hashlib.sha256(repr([(f.name, str(f.type)) for f in t.schema])
                       .encode())
    rows = sorted(zip(*(t[c].to_pylist() for c in t.column_names)),
                  key=lambda r: repr(r))
    h.update(repr(rows).encode())
    return h.hexdigest()[:16]


_GOLDEN = {  # computed on the code before the exchange was shared
    "asof_join": "a43666f713958d32",
    "assign_turn_idx": "e14ad83480e28483",
    "bucketed_join_arrow": "5d9585cbf26f5c46",
    "bucketed_join_pandas": "57c5a9c0b4e8d246",
    "dedup_lines-dense": "38d048146b531e8d",
    "dedup_lines-sparse": "38d048146b531e8d",
    "distinct_pairs": "5b67708e4e29def8",
    "exact_dedup": "988134edbe6ce99e",
    "except_distinct": "d6148dce0e9d014b",
    "fold_dialogues": "7e2e15f5c475f24a",
    "grouped_quantiles": "55bdd9bfc2562a1f",
    "lag_lead": "26a79c987be2da5c",
    "reservoir_per_key": "3c778759f7e33e88",
    "rolling_agg": "252366f0510ecd7d",
    "sessionize": "83979eacf9b203f5",
    "topk_per_key": "2fc0175bdcb62acd",
    "transition_counts": "24c90bb26e4b2adf",
    "turn_context": "4a484239f20aff6b",
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_exchange_outputs_pinned(ray_session, case):
    assert _digest(_run(case)) == _GOLDEN[case]


# A shard-id groupby is not a bucket exchange: the per-shard fn reads the
# shard id (it names the shard's state file), which the exchange strips.
_SHARD_ID_SITES = {
    "functions/dedup_incremental.py",     # groupby("__s")
    "functions/neardup_incremental.py",   # groupby("__g")
}


def test_bucket_exchange_lives_in_bucketing():
    """No module but stages/bucketing.py groups on a ``__``-prefixed tag
    column: every bucket shuffle goes through ``bucket_exchange``, so
    how the exchange runs is set in one place.  The checkpointed
    modules run no per-key Dataset ``groupby(...).map_groups`` either:
    their shuffles go through ``grouped_apply``."""
    root = Path(__file__).resolve().parents[1] / "logray"
    tag_groupby = re.compile(r"\.groupby\(\s*(?:[\"']__|BUCKET_COL\b)")
    offenders = sorted(
        rel for p in root.rglob("*.py")
        if (rel := p.relative_to(root).as_posix()) not in
        {"stages/bucketing.py", *_SHARD_ID_SITES}
        and tag_groupby.search(p.read_text()))
    assert offenders == []
    keyed_groupby = re.compile(r"\.groupby\((?:[^()]|\([^()]*\))*\)\s*\.map_groups\(")
    resumable = [*root.glob("functions/*_resumable.py"),
                 root / "functions" / "shards.py", root / "state" / "manifest.py"]
    assert len(resumable) >= 5
    assert sorted(p.relative_to(root).as_posix() for p in resumable
                  if keyed_groupby.search(p.read_text())) == []


def test_exchange_runs_on_plain_tasks():
    """The exchange is the split -> reduce on plain tasks: no Ray
    groupby/map_groups path is left beside it in bucketing.py."""
    src = (Path(__file__).resolve().parents[1] / "logray" / "stages"
           / "bucketing.py").read_text()
    assert ".groupby(" not in src and ".map_groups(" not in src


def test_reduce_tasks_sizing():
    """One rule sets the exchange's reduce-task count: parallel up to the
    CPUs, never more than the input blocks, at least one reducer per
    target-sized block of tagged bytes, and one for empty input."""
    from logray.stages.bucketing import reduce_tasks

    mib = 1 << 20
    assert reduce_tasks(100, 10 * mib, cpus=4, target_block_bytes=128 * mib) == 4
    assert reduce_tasks(2, 10 * mib, cpus=32, target_block_bytes=128 * mib) == 2
    assert reduce_tasks(3, 1000 * mib + 1, cpus=1,
                        target_block_bytes=100 * mib) == 11
    assert reduce_tasks(0, 0, cpus=8, target_block_bytes=128 * mib) == 1
    assert reduce_tasks(5, 10 * mib, cpus=8, target_block_bytes=None) == 5


@pytest.fixture()
def spy_reduce_tasks(monkeypatch):
    """Record every reduce-task count the exchange picks, with the count
    the CPU and block bounds alone would give."""
    from logray.stages import bucketing

    seen = []
    rule = bucketing.reduce_tasks

    def spy(num_blocks, num_bytes, cpus, target_block_bytes):
        k = rule(num_blocks, num_bytes, cpus, target_block_bytes)
        seen.append((k, min(cpus, num_blocks)))
        return k

    monkeypatch.setattr(bucketing, "reduce_tasks", spy)
    return seen


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_exchange_outputs_pinned_one_reducer(ray_session, monkeypatch, case):
    """The pinned outputs with every exchange on a single reducer."""
    from logray.stages import bucketing

    monkeypatch.setattr(bucketing, "reduce_tasks", lambda *a, **k: 1)
    assert _digest(_run(case)) == _GOLDEN[case]


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_exchange_outputs_pinned_byte_bound(ray_session, spy_reduce_tasks,
                                            case):
    """The pinned outputs with the reducer count forced past the CPU
    count by a small Ray target block size (the byte bound of the rule)."""
    from ray.data import DataContext

    ctx = DataContext.get_current()
    old = ctx.target_max_block_size
    ctx.target_max_block_size = 512
    try:
        got = _digest(_run(case))
    finally:
        ctx.target_max_block_size = old
    assert got == _GOLDEN[case]
    assert any(k > parallel for k, parallel in spy_reduce_tasks)


def test_exchange_all_empty_blocks(ray_session):
    """An input whose blocks all hold zero rows launches no reducer and
    gives an empty result."""
    from logray.stages.bucketing import grouped_apply

    ds = _ds(_events()).map_batches(lambda t: t.slice(0, 0),
                                    batch_format="pyarrow")
    out = grouped_apply(ds, "conv_id", lambda t: t, num_buckets=B,
                        batch_format="pyarrow")
    assert out.count() == 0
    assert out.take_all() == []


def test_exchange_output_blocks_have_rows_and_schema(ray_session):
    """Most of 64 buckets are empty; no reducer runs on an empty one, so
    every output block has rows and a schema (an empty schema-less block
    is what made Ray warn about a RefBundle with a different schema)."""
    import ray

    from logray.stages.bucketing import grouped_apply

    out = grouped_apply(_ds(_events()), "conv_id", lambda t: t,
                        num_buckets=64, batch_format="pyarrow")
    blocks = ray.get(out.to_arrow_refs())
    assert blocks and sum(b.num_rows for b in blocks) == 180
    assert all(b.num_rows and "conv_id" in b.schema.names for b in blocks)


def test_exchange_exact_under_worker_kill(ray_session, tmp_path):
    """A reducer whose worker dies mid-bucket is retried by Ray (the split
    and reduce tasks are pure) and the output equals a clean run's."""
    import os

    from logray.stages.reassemble import _fold_bucket
    from logray.stages.bucketing import grouped_apply

    marker = str(tmp_path / "killed")

    def fold_or_die(t: pa.Table) -> pa.Table:
        try:
            open(marker, "x").close()
        except FileExistsError:
            return _fold_bucket(t)
        os._exit(1)

    got = grouped_apply(_ds(_events()), "conv_id", fold_or_die,
                        num_buckets=B, batch_format="pyarrow")
    assert os.path.exists(marker)
    assert _digest(got) == _GOLDEN["fold_dialogues"]


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_string_buckets_match_key_hashes(typ):
    """String keys hash each distinct value once (dictionary_encode) and
    land in the same bucket as :func:`key_hashes` of every row: nulls
    pinned to bucket 0, empty strings, non-ASCII text, chunked input."""
    from logray.stages.bucketing import (BUCKET_COL, bucket_of,
                                         bucket_tagger, key_hashes)

    vals = ["", "a", "é", "日本語", "a", None, "🙂", "", None, "b" * 300]
    col = pa.chunked_array([pa.array(vals[:4], typ), pa.array([], typ),
                            pa.array(vals[4:], typ)])
    for nb in (1, 3, 32):
        want = (key_hashes(np.array(vals, dtype=object)) % nb).astype(np.int64)
        want[[v is None for v in vals]] = 0
        tagged = bucket_tagger("k", nb)(pa.table({"k": col}))
        assert tagged[BUCKET_COL].to_numpy().tolist() == want.tolist()
        assert bucket_of(col, nb).tolist() == want.tolist()
        assert bucket_of(np.array(vals, dtype=object), nb).tolist() \
            == want.tolist()
    for empty in (pa.chunked_array([], typ), pa.array([None, None], typ)):
        assert bucket_tagger("k", 7)(pa.table({"k": empty}))[BUCKET_COL] \
            .to_pylist() == [0] * len(empty)
