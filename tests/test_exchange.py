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
    how the exchange runs is set in one place."""
    root = Path(__file__).resolve().parents[1] / "logray"
    tag_groupby = re.compile(r"\.groupby\(\s*(?:[\"']__|BUCKET_COL\b)")
    offenders = sorted(
        rel for p in root.rglob("*.py")
        if (rel := p.relative_to(root).as_posix()) not in
        {"stages/bucketing.py", *_SHARD_ID_SITES}
        and tag_groupby.search(p.read_text()))
    assert offenders == []
