"""The checkpoint contract of the resumable operators, and the shard sink
under a worker kill.

A checkpoint directory started by one version of logray must resume under
the next: the recorded ``run_config.json``, the phase directory names, the
partition ids, the hive key each map phase writes and the fault phase
names are pinned here, so a refactor of the resumable runner that moves
any of them fails.
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pytest

_DOCS = ["the quick brown fox jumps over the lazy dog\ncookie banner",
         "pack my box with five dozen liquor jugs\ncookie banner",
         "the quick brown fox jumps over the lazy dog\nfooter line"]
_FILES = ["p-docs-0.parquet-d4ab14b0", "p-docs-1.parquet-ef8f3aa4"]


def _two_files(tmp_path) -> str:
    import pyarrow.parquet as pq

    src = tmp_path / "docs"
    src.mkdir()
    for f in range(2):
        pq.write_table(pa.table({
            "doc_id": pa.array([3 * f + i for i in range(3)], pa.int64()),
            "text": _DOCS}), str(src / f"docs-{f}.parquet"))
    return str(src)


def _run(op: str, src: str, out: str, fault):
    from logray.functions.dedup_resumable import near_dedup_resumable
    from logray.functions.linededup_resumable import dedup_lines_resumable
    from logray.functions.shards import rebalance_shards_resumable
    from logray.functions.spandedup_resumable import dedup_spans_resumable

    if op == "near":
        return near_dedup_resumable(src, out, num_perm=16, bands=4, k=3,
                                    threshold=0.5, _fault=fault)
    if op == "lines":
        return dedup_lines_resumable(src, out, min_len=3, num_buckets=3,
                                     _fault=fault)
    if op == "spans":
        return dedup_spans_resumable(src, out, window=3, num_buckets=3,
                                     _fault=fault)
    return rebalance_shards_resumable(src, out, target_bytes=200,
                                      _fault=fault)


_HASH = {"bucket_hash_version": "canonical-f64-v2"}
_CONTRACT = {
    "near": {
        "config": {**_HASH, "bands": 4, "id_col": "doc_id", "k": 3,
                   "layout": "hive_band_v2", "max_bucket": 4096,
                   "num_perm": 16, "op": "near_dedup", "seed": 1,
                   "text_col": "text", "threshold": 0.5},
        "phases": {"bands": _FILES, "pairs": [f"band{b:03d}" for b in range(4)],
                   "closure": ["closure"], "deduped": _FILES},
        "hive": {"bands": "band_id"},
        "faults": {"bands": _FILES, "pairs": [f"band{b:03d}" for b in range(4)],
                   "closure": ["closure"], "dedup": _FILES},
    },
    "lines": {
        "config": {**_HASH, "id_col": "doc_id", "layout": "hive_bucket_v2",
                   "min_len": 3, "num_buckets": 3, "op": "dedup_lines",
                   "sep": "\n", "text_col": "text"},
        "phases": {"cand": _FILES, "losers": ["b000", "b001", "b002"],
                   "deduped": _FILES},
        "hive": {"cand": "__b"},
        "faults": {"cand": _FILES, "losers": ["b000", "b001", "b002"],
                   "rebuild": _FILES},
    },
    "spans": {
        "config": {**_HASH, "id_col": "doc_id", "layout": "hive_bucket_v2",
                   "level": "word", "num_buckets": 3, "op": "dedup_spans",
                   "text_col": "text", "window": 3},
        "phases": {"census": _FILES, "dups": ["b000", "b001", "b002"],
                   "cut": _FILES},
        "hive": {"census": "__b"},
        "faults": {"census": _FILES, "dups": ["b000", "b001", "b002"],
                   "cut": _FILES},
    },
    "rebalance": {
        "config": {**_HASH, "byte_cols": ["text"], "id_col": "doc_id",
                   "min_shards": 1, "op": "rebalance_shards",
                   "row_overhead": 16, "seed": 0, "target_bytes": 200},
        "phases": {"census": _FILES, "shards": _FILES},
        "hive": {"shards": "shard"},
        "faults": {"census": _FILES, "shards": _FILES},
    },
}


@pytest.mark.parametrize("op", sorted(_CONTRACT))
def test_checkpoint_contract_pinned(ray_session, tmp_path, op):
    want = _CONTRACT[op]
    out = str(tmp_path / "out")
    calls: dict = {}
    _run(op, _two_files(tmp_path), out,
         lambda phase, pid: calls.setdefault(phase, []).append(pid))

    with open(os.path.join(out, "run_config.json")) as f:
        text = f.read()
    assert json.loads(text) == want["config"]
    # byte-identical: the guard compares the parsed dict, but the file
    # is what a checkpoint started by an older version carries
    assert text == json.dumps(want["config"], indent=2, sort_keys=True)

    phases = {d: sorted(os.listdir(os.path.join(out, d, "parts")))
              for d in os.listdir(out) if os.path.isdir(os.path.join(out, d))}
    assert phases == want["phases"]
    for phase, col in want["hive"].items():
        for pid in want["phases"][phase]:
            keys = {d.split("=", 1)[0] for d in
                    os.listdir(os.path.join(out, phase, "parts", pid))
                    if "=" in d}
            assert keys == {col}
    assert {p: sorted(v) for p, v in calls.items()} == want["faults"]


def test_shard_sink_exact_under_worker_kill(ray_session, tmp_path,
                                            monkeypatch):
    """A worker killed inside the shard tagger during the shard write is
    retried by Ray; the shards hold exactly a clean run's rows."""
    import pyarrow.parquet as pq

    from logray.functions import shards

    src = tmp_path / "input"
    src.mkdir()
    for f in range(3):
        ids = list(range(f * 40, (f + 1) * 40))
        pq.write_table(pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "text": [f"doc {i} " + "x" * (i % 37) for i in ids]}),
            str(src / f"part-{f}.parquet"))
    marker = str(tmp_path / "kill-marker")

    def per_shard(out):
        df = shards.read_rebalanced(out).to_pandas()
        assert df["doc_id"].is_unique
        return df.groupby("shard").size().to_dict(), len(df)

    clean = str(tmp_path / "clean")
    shards.rebalance_shards_resumable(str(src), clean, target_bytes=600)

    tagger = shards._shard_tagger

    def killing_tagger(id_col, seed, n_shards):
        tag = tagger(id_col, seed, n_shards)

        def kill_once(t):
            out = tag(t)
            try:
                open(marker, "x").close()
            except FileExistsError:
                return out
            os._exit(1)  # first attempt of the first batch only

        return kill_once

    monkeypatch.setattr(shards, "_shard_tagger", killing_tagger)
    faulted = str(tmp_path / "faulted")
    shards.rebalance_shards_resumable(str(src), faulted, target_bytes=600)
    assert os.path.isfile(marker)  # the kill did happen
    assert per_shard(faulted) == per_shard(clean)
    assert per_shard(clean)[1] == 120
