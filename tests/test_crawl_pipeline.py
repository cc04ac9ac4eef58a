"""End-to-end resumable crawl -> training-set composition
(logray/pipelines/crawl.py): single-shot semantics (quality gate, robots
gate, line dedup, near-dup closure, decontamination, packing
arithmetic) and crash-injection resume equality across phase
boundaries."""

from __future__ import annotations

import datetime
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

WORDS = ("the quick brown fox jumps over lazy dog alpha beta gamma "
         "delta epsilon zeta eta theta iota kappa mu nu xi omicron "
         "pi rho sigma tau upsilon phi chi psi omega").split()


def _mktext(n, seed):
    r = np.random.default_rng(seed)
    return " ".join(r.choice(WORDS, n))


EVAL_PASSAGE = _mktext(30, 555)
DUP_LINE = "this exact line repeats across documents " + _mktext(50, 999)


def _corpus():
    """(url, body) pairs with one planted case per pipeline phase."""
    docs = [(f"https://site{i % 4}.example/page{i}", _mktext(80, i))
            for i in range(12)]
    docs += [
        # near-duplicate of page0 -> exactly one of the pair survives
        ("https://site0.example/neardup", docs[0][1] + " tail word"),
        # the same line in two docs -> one loses the line, both survive
        ("https://site1.example/dupline-a",
         DUP_LINE + "\n" + _mktext(60, 1000)),
        ("https://site2.example/dupline-b",
         DUP_LINE + "\n" + _mktext(60, 1001)),
        # fails the Gopher word-count rule -> dropped at extract
        ("https://site3.example/junk", "tiny"),
        # contains the eval passage verbatim -> dropped at decontam
        ("https://site0.example/contam",
         _mktext(40, 556) + " " + EVAL_PASSAGE + " " + _mktext(40, 557)),
        # robots-disallowed path -> dropped at extract
        ("https://site1.example/private/secret", _mktext(80, 558)),
    ]
    return docs


ROBOTS = {"site1.example": "User-agent: *\nDisallow: /private/\n"}


@pytest.fixture(scope="module")
def crawl_inputs(ray_session, tmp_path_factory):
    """A 2-file WARC archive + a 1-doc eval set."""
    import ray.data as rd

    from logray.sources.warc import write_warc

    root = tmp_path_factory.mktemp("crawl_in")
    docs = _corpus()
    n = len(docs)
    tbl = pa.table({
        "url": pa.array([u for u, _ in docs]),
        "ts": pa.array([datetime.datetime(2026, 8, 1, 0, 0, i % 60)
                        for i in range(n)], pa.timestamp("us")),
        "mime": pa.array(["text/html"] * n),
        "payload": pa.array(
            [(f"<html><head><title>t</title></head><body><p>{b}</p>"
              f"</body></html>").encode() for _, b in docs], pa.binary()),
    })
    warc_dir = str(root / "warc")
    write_warc(rd.from_arrow(tbl).repartition(2), warc_dir)
    eval_dir = root / "eval"
    eval_dir.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array([1], pa.int64()),
                  "text": pa.array([EVAL_PASSAGE])}),
        str(eval_dir / "eval.parquet"))
    return warc_dir, str(eval_dir)


_KW = dict(robots=ROBOTS, quality=True, num_buckets=4, bands=4,
           num_perm=32, pack_budget=128, target_shard_bytes=4_000,
           vocab_size=280)


def _run(warc_dir, eval_dir, out_root, _fault=None):
    from logray.pipelines.crawl import run_crawl_pipeline

    return run_crawl_pipeline(warc_dir, out_root, eval_path=eval_dir,
                              _fault=_fault, **_KW)


def _final(out_root) -> pd.DataFrame:
    from logray.pipelines.crawl import read_crawl_output

    df = read_crawl_output(str(out_root)).to_pandas()
    df["token_ids"] = df["token_ids"].map(tuple)
    return df.sort_values("doc_id").reset_index(drop=True)


def test_crawl_pipeline_single_shot(ray_session, crawl_inputs, tmp_path):
    warc_dir, eval_dir = crawl_inputs
    out_root = tmp_path / "out"
    m = _run(warc_dir, eval_dir, str(out_root))

    # 18 docs; extract drops the junk + robots-blocked pages
    assert m["extract"]["rows"] == 16
    # near-dup closure drops exactly one of the planted pair
    assert m["neardedup"]["rows"] == 15
    # decontam drops exactly the planted contaminated doc
    assert m["decontam"]["rows"] == 14
    assert m["pack"]["rows"] == 14

    df = _final(out_root)
    assert len(df) == 14
    for c in ("doc_id", "n_tokens", "seq_id", "seq_offset", "token_ids"):
        assert c in df.columns
    # packing arithmetic: sequences never cross shards, and within each
    # shard's doc_id order the start positions are the running token
    # total cut at the budget
    assert (df["n_tokens"] == df["token_ids"].map(len)).all()
    budget = _KW["pack_budget"]
    for _s, g in df.groupby("shard"):
        g = g.sort_values("doc_id")
        start = (g["seq_id"].to_numpy() * budget
                 + g["seq_offset"].to_numpy())
        run = np.concatenate([[0], np.cumsum(
            g["n_tokens"].to_numpy())[:-1]])
        assert np.array_equal(start, run)

    # the duplicated line survives in exactly ONE of the two docs
    from logray.state.artifacts import load_bpe

    bpe = load_bpe(os.path.join(
        str(out_root), "05_tokenize", "bpe", "parts", "bpe", "bpe.json"))
    texts = [bpe.decode(list(ids)) for ids in df["token_ids"]]
    assert sum(DUP_LINE in t for t in texts) == 1
    assert not any(EVAL_PASSAGE in t for t in texts)

    # resuming with a different plan refuses loudly
    from logray.pipelines.crawl import run_crawl_pipeline

    kw = dict(_KW, pack_budget=999)
    with pytest.raises(ValueError, match="different parameters"):
        run_crawl_pipeline(warc_dir, str(out_root), eval_path=eval_dir,
                           **kw)


def test_crawl_pipeline_crash_resume_equals_single_shot(
        ray_session, crawl_inputs, tmp_path):
    """Kill the run once in each of seven phases spread across the whole
    composition (including sub-phases of the dedup chains); resumes must
    land byte-for-byte on the single-shot training set."""
    warc_dir, eval_dir = crawl_inputs
    ref_root = tmp_path / "ref"
    _run(warc_dir, eval_dir, str(ref_root))
    want = _final(ref_root)

    targets = ["extract", "losers", "pairs", "decontam", "tokenize",
               "shards", "pack"]
    crashed: set = set()

    def fault(phase, part_id):
        if phase in targets and phase not in crashed:
            crashed.add(phase)
            raise RuntimeError(f"injected {phase} crash")

    out_root = tmp_path / "resumed"
    attempts = 0
    while True:
        attempts += 1
        assert attempts <= len(targets) + 1
        try:
            _run(warc_dir, eval_dir, str(out_root), _fault=fault)
            break
        except RuntimeError as e:
            assert "injected" in str(e)
    assert crashed == set(targets)

    got = _final(out_root)
    pd.testing.assert_frame_equal(got, want)


def test_partitions_from_parts_ids_stable_and_distinct(tmp_path):
    """Same basename under two partition dirs must get DISTINCT ids, and
    ids must be pure functions of the relative path.  Only committed
    partitions (manifest written) feed the next phase."""
    from logray.state.manifest import RunManifest, partitions_from_parts

    for pid in ("a", "b", "c.inprogress"):
        d = tmp_path / "parts" / pid
        d.mkdir(parents=True)
        (d / "file.parquet").write_bytes(b"x")
    for pid in ("a", "b"):
        RunManifest(str(tmp_path)).record(pid, {"partition": pid})
    parts = partitions_from_parts(str(tmp_path))
    ids = [p for p, _ in parts]
    assert len(ids) == 2 and len(set(ids)) == 2
    assert parts == partitions_from_parts(str(tmp_path))


def test_drop_contaminated_keeps_columns(ray_session):
    import ray.data as rd

    from logray.functions.decontam import (build_contamination_index,
                                           drop_contaminated)

    eval_ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([0], pa.int64()),
        "text": pa.array(["one two three four five six"])}))
    idx = build_contamination_index(eval_ds, n=5)
    train = rd.from_arrow(pa.table({
        "doc_id": pa.array([10, 11], pa.int64()),
        "extra": pa.array(["a", "b"]),
        "text": pa.array(["clean text with no overlap at all here ok",
                          "prefix one two three four five six suffix"]),
    }))
    out = drop_contaminated(train, idx, n=5).to_pandas()
    assert list(out["doc_id"]) == [10]
    assert list(out.columns) == ["doc_id", "extra", "text"]
