"""The bucket exchange (logray/stages/bucketing.py).

Every hash-bucket shuffle in logray runs through ``bucket_exchange``;
these tests pin the outputs of the operators built on it, so a change to
how the exchange runs (strategy, tag column, strip) shows up as a hash
mismatch, and keep the exchange in that one module.
"""

from __future__ import annotations

import ast
import hashlib
import re
import tempfile
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


def _embeddings(seed: int = 5, n: int = 90) -> pd.DataFrame:
    """Seeded float32 embeddings around six centres (near-duplicate
    clusters), under unique ids in shuffled order."""
    rng = np.random.default_rng(seed)
    centres = rng.standard_normal((6, 8))
    emb = centres[rng.integers(0, 6, n)] + rng.standard_normal((n, 8)) * 0.05
    return pd.DataFrame({
        "vec_id": rng.permutation(1000)[:n].astype(np.int64),
        "embedding": list(emb.astype(np.float32)),
    })


def _ds(df: pd.DataFrame, blocks: int = 4):
    import ray.data as rd

    return rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)) \
        .repartition(blocks)


def _run(case: str):
    from logray.functions.dedup import (_distinct_pairs, containment_pairs,
                                        edit_distance_pairs, embedding_dedup,
                                        exact_dedup, minhash_lsh_dedup,
                                        ngram_jaccard_pairs, simhash_dedup)
    from logray.functions.dedup_incremental import (build_hash_index,
                                                    index_verdicts)
    from logray.functions.linededup import dedup_lines
    from logray.functions.neardup_incremental import (
        build_band_index, near_dup_ids_against_index)
    from logray.functions.sample import reservoir_per_key
    from logray.functions.semdedup import semdedup_verdicts
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
    if case.startswith("embedding_dedup"):
        return embedding_dedup(_ds(_embeddings()), threshold=0.9, n_planes=3,
                               max_bucket=12, n_tables=int(case[-1]))
    if case == "semdedup_verdicts":
        return semdedup_verdicts(_ds(_embeddings()), k=3, eps=0.95, iters=4,
                                 keep="far_from_centroid", max_cluster=12)
    # conv as an int key with nulls: Ray's sort groupby could not order a
    # null among strings, and the pinned outputs were taken on it
    docs = df.assign(text=df["text"].str.replace("\n", " "),
                     conv=pd.array(df[k].map({"hot": 0, "a": 1, "b": 2})
                                   .to_numpy(), dtype="Int64"))
    if case == "minhash_lsh_dedup":
        return minhash_lsh_dedup(_ds(docs[["event_id", "text"]]),
                                 id_col="event_id", num_perm=16, bands=8, k=3,
                                 threshold=0.5, max_bucket=20)
    if case == "simhash_dedup":
        return simhash_dedup(_ds(docs[["event_id", "text"]]),
                             id_col="event_id", max_bucket=20)
    # a two-column group key with nulls, and runs past max_bucket; compared
    # as nullable Int64: the Ray groupby these were pinned on typed the
    # null key's block as null and the others as int64
    kw = dict(group_cols=["conv", "val"], id_col="event_id", max_bucket=8)
    miners = {
        "ngram_jaccard_pairs": lambda: ngram_jaccard_pairs(
            _ds(docs), n=2, threshold=0.3, chunk=3, **kw),
        "containment_pairs": lambda: containment_pairs(
            _ds(docs), threshold=0.5, chunk=3, **kw),
        "edit_distance_pairs": lambda: edit_distance_pairs(
            _ds(docs), max_dist=9, chunk=7, **kw),
    }
    if case in miners:
        return miners[case]().to_pandas().astype({"conv": "Int64"})
    if case in ("index_verdicts", "near_dup_ids_against_index"):
        # every other doc indexed; every doc probed, a few with null text
        probe = df[["event_id", "text"]].copy()
        probe.loc[probe["event_id"] % 17 == 0, "text"] = None
        with tempfile.TemporaryDirectory() as idx:
            if case == "index_verdicts":
                build_hash_index(_ds(df.iloc[::2]), idx, num_shards=4)
                out = index_verdicts(_ds(probe), idx, id_col="event_id",
                                     mode="sharded")
            else:
                build_band_index(_ds(df.iloc[::2]), idx, num_shards=4)
                out = near_dup_ids_against_index(
                    _ds(probe), idx, id_col="event_id", mode="sharded")
            return out.materialize()
    if case.startswith("dedup_lines"):
        docs = ds.select_columns(["event_id", "text"])
        return dedup_lines(docs, id_col="event_id", num_buckets=B)
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


# Null-key note: Ray's sort groupby, which these three ran on before
# the exchange, sometimes split the null key's rows into several groups
# (capped one by one, some pairs emitted twice), so its digest varied
# from run to run; the pinned one is its run with the null key as one
# group, the SQL GROUP BY reading that run_starts gives every run.
_GOLDEN = {  # computed on the code before the operator moved onto the exchange
    "asof_join": "a43666f713958d32",
    "assign_turn_idx": "e14ad83480e28483",
    "bucketed_join_arrow": "5d9585cbf26f5c46",
    "bucketed_join_pandas": "57c5a9c0b4e8d246",
    "containment_pairs": "eb222f69159d205a",  # see the null-key note above
    "dedup_lines-dense": "38d048146b531e8d",
    "distinct_pairs": "5b67708e4e29def8",
    "edit_distance_pairs": "eaca4962ad43cbaf",  # see the null-key note above
    "embedding_dedup-1": "95a7273ed8cf5feb",
    "embedding_dedup-2": "1f8be7d78151ed42",
    "exact_dedup": "988134edbe6ce99e",
    "except_distinct": "d6148dce0e9d014b",
    "fold_dialogues": "7e2e15f5c475f24a",
    "grouped_quantiles": "55bdd9bfc2562a1f",
    "index_verdicts": "c29a7180868e0333",
    "lag_lead": "26a79c987be2da5c",
    "minhash_lsh_dedup": "81ca8cca6df62351",
    "near_dup_ids_against_index": "0d047cd2813df8b2",
    "ngram_jaccard_pairs": "c3a3a20e6e547790",  # see the null-key note above
    "reservoir_per_key": "3c778759f7e33e88",
    "rolling_agg": "252366f0510ecd7d",
    "semdedup_verdicts": "a867e8d7a4eefe40",
    "sessionize": "83979eacf9b203f5",
    "simhash_dedup": "f7232ba0c294538d",
    "topk_per_key": "2fc0175bdcb62acd",
    "transition_counts": "24c90bb26e4b2adf",
    "turn_context": "4a484239f20aff6b",
}


@pytest.mark.parametrize("case", sorted(_GOLDEN))
def test_exchange_outputs_pinned(ray_session, case):
    assert _digest(_run(case)) == _GOLDEN[case]


def test_bucket_exchange_lives_in_bucketing():
    """No module but stages/bucketing.py groups on a ``__``-prefixed tag
    column, and no module runs a keyed Dataset ``groupby(...).map_groups``:
    every bucket shuffle goes through ``bucket_exchange`` (sites with a
    shard id write it to ``BUCKET_COL``), so how the exchange runs is set
    in one place."""
    root = Path(__file__).resolve().parents[1] / "logray"
    tag_groupby = re.compile(r"\.groupby\(\s*(?:[\"']__|BUCKET_COL\b)")
    keyed_groupby = re.compile(r"\.groupby\((?:[^()]|\([^()]*\))*\)\s*\.map_groups\(")
    modules = {p.relative_to(root).as_posix(): p.read_text()
               for p in root.rglob("*.py")}
    assert len(modules) >= 40
    assert sorted(rel for rel, src in modules.items()
                  if rel != "stages/bucketing.py"
                  and tag_groupby.search(src)) == []
    assert sorted(rel for rel, src in modules.items()
                  if keyed_groupby.search(src)) == []


def _block_task_modules(modules: dict[str, str]) -> list[str]:
    """Modules that list a Dataset's blocks themselves
    (``iter_internal_ref_bundles``) or define a plain block task: a
    ``cached_remote_fn``, or ``ray.remote(num_cpus=...)`` applied to a
    function (as a call or a decorator; actor classes do not count)."""
    def sized_remote(n) -> bool:
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "remote"
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id == "ray"
                and any(k.arg == "num_cpus" for k in n.keywords))

    def has_block_task(src: str) -> bool:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call) and sized_remote(node.func):
                return True
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and any(sized_remote(d) for d in node.decorator_list):
                return True
        return False

    return sorted(rel for rel, src in modules.items()
                  if "iter_internal_ref_bundles" in src
                  or "cached_remote_fn" in src or has_block_task(src))


def test_block_tasks_live_in_bucketing():
    """Only stages/bucketing.py runs raw Ray tasks over a Dataset's
    blocks: the bucket exchange and the sorted-block scan
    (``sorted_scan``) own block listing, empty-block handling and the
    task resource request, so no operator keeps its own copy."""
    root = Path(__file__).resolve().parents[1] / "logray"
    modules = {p.relative_to(root).as_posix(): p.read_text()
               for p in root.rglob("*.py")}
    assert len(modules) >= 40
    assert _block_task_modules(modules) == ["stages/bucketing.py"]
    # the scan sees both forms it forbids, and not an actor class
    assert _block_task_modules({
        "a.py": "t = ray.remote(num_cpus=0.5)(f)",
        "b.py": "@ray.remote(num_cpus=1)\ndef f(block):\n    pass",
        "c.py": "@ray.remote(num_cpus=0)\nclass Shard:\n    pass",
        "d.py": "blocks = ds.iter_internal_ref_bundles()",
    }) == ["a.py", "b.py", "d.py"]


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


def _run_position_scan():
    """``sorted_scan`` kernels that number every row globally and within
    its key run (``k``), carrying the row count and the open run across
    block seams; the summaries record every table the kernels saw."""
    from logray.stages.bucketing import run_starts

    def summarize(t: pa.Table):
        k = t["k"].to_numpy()
        return (type(t).__name__, t.column_names, k[0], k[-1], len(k),
                int((k == k[-1]).sum()))

    def scan(summaries):
        carries, row, run_key, run_len = [], 0, None, 0
        for _typ, _cols, first, last, rows, tail in summaries:
            head = run_len if first == run_key else 0
            carries.append((row, head))
            run_len = head + rows if first == last else tail
            run_key, row = last, row + rows
        return carries

    def apply(t: pa.Table, carry) -> pa.Table:
        row, head = carry
        idx = np.arange(t.num_rows)
        first = np.maximum.accumulate(
            np.where(run_starts(t["k"].to_numpy()), idx, 0))
        pos = idx - first + np.where(first == 0, head, 0)
        return pa.table({"id": t["id"], "row": pa.array(row + idx),
                         "pos": pa.array(pos)})

    return summarize, scan, apply


@pytest.mark.parametrize("n, blocks, fmt", [
    (0, 4, "arrow"),       # empty input: no task sees a block
    (3, 12, "arrow"),      # more blocks than rows: the sort emits empty,
                           # schema-less blocks
    (600, 9, "pandas"),    # pandas blocks, one run across many blocks
    (600, 9, "arrow"),
])
def test_sorted_scan(ray_session, n, blocks, fmt):
    """The one sorted-block scan: kernels see only non-empty Arrow
    tables in sort order, and a key run straddling three or more blocks
    is carried across every seam."""
    import ray.data as rd

    from logray.stages.bucketing import sorted_scan

    rng = np.random.default_rng(11)
    df = pd.DataFrame({
        "k": np.where(rng.random(n) < 0.6, 7,
                      rng.integers(0, 20, n)).astype(np.int64),
        "id": rng.permutation(n).astype(np.int64)})
    ds = (rd.from_pandas(df) if fmt == "pandas" else
          rd.from_arrow(pa.Table.from_pandas(df, preserve_index=False)))
    ds = ds.repartition(blocks)
    keys = ["k", "id"]
    summarize, scan, apply = _run_position_scan()

    summaries = sorted_scan(ds, keys, summarize, lambda s: s)
    assert {(typ, tuple(cols)) for typ, cols, *_ in summaries} <= {
        ("Table", ("k", "id"))}
    assert all(rows for *_, rows, _tail in summaries)
    assert sum(rows for *_, rows, _tail in summaries) == n
    if n == 600:
        assert sum(first <= 7 <= last
                   for _t, _c, first, last, _r, _l in summaries) >= 3

    got = sorted_scan(ds, keys, summarize, scan, apply).to_pandas()
    assert len(got) == n
    if not n:
        return
    want = df.sort_values(["k", "id"]).reset_index(drop=True)
    want["row"] = np.arange(n)
    want["pos"] = want.groupby("k").cumcount()
    assert got["id"].tolist() == want["id"].tolist()
    assert got["row"].tolist() == want["row"].tolist()
    assert got["pos"].tolist() == want["pos"].tolist()


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
