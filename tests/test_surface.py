"""Tests for the user-facing surface: profile store (ConfigHandler parity),
raw-log source, reassembly/preview, and the CLI verbs."""

import json
import os
import subprocess
import sys

import pandas as pd
import pyarrow as pa
import pytest

from logray.sources.rawlog import read_log_lines, log_file_to_transcripts
from logray.stages.reassemble import ordered_view, preview, reassemble_conversations
from logray.state.profiles import (
    COMMON_PROFILE,
    KEY_FILTER,
    KEY_LINE_FORMAT,
    ProfileStore,
)

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ---------------------------------------------------------------------------
# ProfileStore (ConfigHandler.cpp parity)
# ---------------------------------------------------------------------------


def test_profile_store_creates_default(tmp_path):
    p = tmp_path / "cfg"
    store = ProfileStore(str(p))
    assert p.exists()
    assert store.get("anything", KEY_LINE_FORMAT) == "{STR:,0}"  # common fallback
    assert store.get(COMMON_PROFILE, "nope", "dflt") == "dflt"


def test_profile_store_partial_section_rewrite(tmp_path):
    p = tmp_path / "cfg"
    p.write_text(
        "preamble line kept verbatim\n\n"
        "[[common]]\nline_format={STR:,0}\n\n"
        "[[app1]]\nfilter=Level EQ INFO\ncustom=x\n\n"
        "[[app2]]\nfilter=Level EQ WARN\n"
    )
    store = ProfileStore(str(p))
    assert store.get("app1", KEY_FILTER) == "Level EQ INFO"
    store.set("app1", KEY_FILTER, "Level EQ ERROR")
    store.save("app1")
    text = p.read_text()
    assert "preamble line kept verbatim" in text
    assert "Level EQ ERROR" in text
    assert "Level EQ WARN" in text  # app2 untouched
    # reload sees the change
    again = ProfileStore(str(p))
    assert again.get("app1", KEY_FILTER) == "Level EQ ERROR"
    assert again.get("app1", "custom") == "x"


def test_profile_mapping(tmp_path):
    store = ProfileStore(str(tmp_path / "cfg"))
    assert store.profile_for_file("/var/log/x.log") == ""
    store.set_profile_for_file("/var/log/x.log", "app1")
    again = ProfileStore(str(tmp_path / "cfg"))
    assert again.profile_for_file("/var/log/x.log") == "app1"


# ---------------------------------------------------------------------------
# raw log source
# ---------------------------------------------------------------------------


def test_read_log_lines_reference_corpus(ray_session, golden_lines):
    ds = read_log_lines("/root/reference/tests/data/sample.log")
    rows = sorted(ds.take_all(), key=lambda r: r["line_num"])
    assert len(rows) == 62
    assert [r["text"] for r in rows] == golden_lines


def test_read_log_lines_crlf(ray_session, golden_lines):
    ds = read_log_lines("/root/reference/tests/data/sample_crlf.log")
    rows = sorted(ds.take_all(), key=lambda r: r["line_num"])
    assert [r["text"] for r in rows] == golden_lines  # CR stripped


def test_read_log_lines_edge_files(ray_session, tmp_path):
    (tmp_path / "a.log").write_text("one\ntwo\nthree")  # no trailing newline
    (tmp_path / "b.log").write_text("")  # empty file
    ds = read_log_lines(str(tmp_path))
    rows = ds.take_all()
    a = sorted((r["line_num"], r["text"]) for r in rows)
    assert a == [(0, "one"), (1, "two"), (2, "three")]


def test_log_file_to_transcripts(ray_session, golden_lines):
    ds = log_file_to_transcripts("/root/reference/tests/data/sample.log")
    df = ds.to_pandas().sort_values("turn_idx")
    assert len(df) == 62
    assert df["turn_idx"].tolist() == list(range(62))
    assert df["conv_id"].nunique() == 1


# ---------------------------------------------------------------------------
# reassembly / preview
# ---------------------------------------------------------------------------


@pytest.fixture()
def small_ds(ray_session):
    import ray.data as rd

    from logray.sources.transcripts import synth_transcripts_table

    return rd.from_arrow(synth_transcripts_table(n_convs=10, seed=3))


def test_reassemble_ordered_within_conv(small_ds):
    out = reassemble_conversations(small_ds).to_pandas()
    for _, g in out.groupby("conv_id"):
        assert g["turn_idx"].tolist() == sorted(g["turn_idx"].tolist())


def test_reassemble_with_fn(small_ds):
    def fold(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"conv_id": [g["conv_id"].iloc[0]], "dialogue": [" | ".join(g["text"].head(3))]}
        )

    out = reassemble_conversations(small_ds, fold).to_pandas()
    assert len(out) == 10
    assert out["dialogue"].str.contains(r" \| ").all()


def test_ordered_view_and_preview(small_ds):
    full = ordered_view(small_ds).to_pandas()
    assert full[["conv_id", "turn_idx"]].values.tolist() == sorted(
        full[["conv_id", "turn_idx"]].values.tolist()
    )
    pv = preview(small_ds, n=5)
    assert pv[["conv_id", "turn_idx"]].values.tolist() == full.head(5)[["conv_id", "turn_idx"]].values.tolist()
    pv2 = preview(small_ds, n=3, from_key=(full.iloc[10]["conv_id"], int(full.iloc[10]["turn_idx"])))
    assert pv2.iloc[0]["turn_idx"] == full.iloc[10]["turn_idx"]
    assert len(pv2) == 3


# ---------------------------------------------------------------------------
# CLI (subprocess: the real surface)
# ---------------------------------------------------------------------------


def _cli(*args, cfg=None):
    cmd = [sys.executable, "-m", "logray"]
    if cfg:
        cmd += ["--config", cfg]
    cmd += list(args)
    return subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)


def test_cli_filter_verbs(tmp_path):
    cfg = str(tmp_path / "cfg")
    r = _cli("cfg", "set", "app", "line_format={INT:Val} {STR:Name}", cfg=cfg)
    assert r.returncode == 0, r.stderr
    r = _cli("filter", "set", "app", "Val EQ 42", cfg=cfg)
    assert r.stdout.strip() == "Val EQ 42"
    r = _cli("filter", "and", "app", "Name CT x", cfg=cfg)
    assert r.stdout.strip() == "(Val EQ 42) AND (Name CT x)"
    r = _cli("filter", "out", "app", "Name EQ bad", cfg=cfg)
    # :fout serializes without the inversion flag (reference to_string)
    assert r.stdout.strip() == "((Val EQ 42) AND (Name CT x)) AND (Name EQ bad)"
    r = _cli("filter", "show", "app", cfg=cfg)
    assert "AND" in r.stdout
    r = _cli("filter", "clear", "app", cfg=cfg)
    assert r.stdout.strip() == ""


def test_cli_view_and_search_on_reference_log(tmp_path, golden_lines):
    cfg = str(tmp_path / "cfg")
    fmt = "{INT:Date} {INT:Time} {STR:Level} :{CHR:,.,1}{STR:Source}: {STR:Mesg}"
    r = _cli(
        "view", "/root/reference/tests/data/sample.log",
        "--format", fmt, "--filter", "Level EQ INFO", "-n", "3", cfg=cfg,
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.count("INFO") >= 3

    r = _cli(
        "search", "/root/reference/tests/data/sample.log",
        "--format", fmt, "--filter", "Level EQ INFO", "Ioctl", cfg=cfg,
    )
    assert r.returncode == 0, r.stderr
    hit = json.loads(r.stdout)
    assert hit["turn_idx"] == 20 and hit["local_ordinal"] == 3

    r = _cli(
        "search", "/root/reference/tests/data/sample.log",
        "--format", fmt, "--filter", "Level EQ INFO", "NO_SUCH_TEXT", cfg=cfg,
    )
    assert r.returncode == 1


def test_cli_run_pipeline(tmp_path, sf_dir, golden_lines):
    cfg = str(tmp_path / "cfg")
    pcfg = tmp_path / "pipe.json"
    pcfg.write_text(
        json.dumps(
            {
                "format_string": "{INT:Date} {INT:Time} {STR:Level} :{CHR:,.,1}{STR:Source}: {STR:Mesg}",
                "routes": [["info", "Level EQ INFO", False], ["rest", "", True]],
            }
        )
    )
    r = _cli(
        "run", "/root/reference/tests/data/sample.log",
        "--out", str(tmp_path / "out"), "--pipeline-config", str(pcfg), cfg=cfg,
    )
    assert r.returncode == 0, r.stderr
    metrics = json.loads(r.stdout)
    assert metrics["routes"] == {"info": 10, "rest": 52}
    assert os.path.exists(tmp_path / "out" / "metrics.json")


def test_cli_dedup_and_textstats(tmp_path, sf_dir):
    cfg = str(tmp_path / "cfg")
    r = _cli("dedup", f"{sf_dir}/documents.parquet", "--out", str(tmp_path / "kept"), cfg=cfg)
    assert r.returncode == 0, r.stderr
    summary = json.loads(r.stdout)
    assert summary["rows_in"] == summary["rows_kept"] + summary["dropped"]
    assert summary["rows_kept"] > 0

    r = _cli("textstats", f"{sf_dir}/documents.parquet", cfg=cfg)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert sum(out["langs"].values()) == summary["rows_in"]


def test_preview_backward(small_ds):
    full = ordered_view(small_ds).to_pandas()
    anchor = (full.iloc[10]["conv_id"], int(full.iloc[10]["turn_idx"]))
    pv = preview(small_ds, n=3, from_key=anchor, backward=True)
    want = full.iloc[8:11][["conv_id", "turn_idx"]].values.tolist()
    assert pv[["conv_id", "turn_idx"]].values.tolist() == want


def test_cli_sample_and_score(tmp_path):
    """New CLI verbs: sample (uniform + per-key reservoir) and score."""
    import subprocess
    import sys

    import pyarrow as pa
    import pyarrow.parquet as pq

    src = tmp_path / "docs.parquet"
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(range(200), pa.int64()),
                "grp": [f"g{i % 4}" for i in range(200)],
                "text": [f"document body number {i}" for i in range(200)],
            }
        ),
        str(src),
    )

    def run(*argv):
        r = subprocess.run(
            [sys.executable, "-m", "logray", "--num-cpus", "2", *argv],
            capture_output=True, text=True, cwd="/root/repo",
        )
        assert r.returncode == 0, r.stderr[-2000:]
        import json as _json

        return _json.loads(r.stdout.strip().splitlines()[-1])

    out1 = run("sample", str(src), "--out", str(tmp_path / "uni"),
               "--id-col", "doc_id", "-p", "0.25", "--seed", "3")
    assert 20 < out1["rows_out"] < 80 and out1["rows_in"] == 200

    out2 = run("sample", str(src), "--out", str(tmp_path / "res"),
               "--id-col", "doc_id", "--per-key", "grp", "-n", "5")
    assert out2["rows_out"] == 20  # 4 keys x 5

    out3 = run("score", str(src), "--out", str(tmp_path / "scored"))
    assert out3["rows"] == 200 and 0.0 <= out3["min"] <= out3["max"] <= 1.0


def test_read_log_lines_gzip(ray_session, tmp_path):
    import gzip

    from logray.sources.rawlog import read_log_lines

    lines = "alpha\nbeta\r\ngamma\n"
    plain = tmp_path / "a.log"
    plain.write_text(lines)
    gz = tmp_path / "b.log.gz"
    gz.write_bytes(gzip.compress(lines.encode()))

    got_plain = read_log_lines(str(plain)).to_pandas()
    got_gz = read_log_lines(str(gz)).to_pandas()
    assert got_plain["text"].tolist() == ["alpha", "beta", "gamma"]
    assert got_gz["text"].tolist() == ["alpha", "beta", "gamma"]
    assert got_gz["line_num"].tolist() == [0, 1, 2]


def test_package_export_surface():
    """Every name in __all__ resolves (catches broken re-exports)."""
    import logray
    import logray.functions as f
    import logray.stages as s

    for name in f.__all__:
        assert hasattr(f, name), name
    for name in s.__all__:
        assert hasattr(s, name), name
    assert hasattr(logray, "LineFormat")


def test_cli_span_dedup_and_funnel(tmp_path):
    """Round-3 CLI verbs: span-dedup (ExactSubstr) and funnel."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = tmp_path / "docs.parquet"
    boiler = "one two three four five"
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(20), pa.int64()),
            "text": [f"unique {i} words here {boiler}" for i in range(20)],
        }),
        str(docs),
    )
    r = _cli("--num-cpus", "2", "span-dedup", str(docs),
             "--out", str(tmp_path / "clean"), "--window", "5")
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["rows"] == 20 and out["tokens_removed"] >= 20 * 5

    ev = tmp_path / "ev.parquet"
    pq.write_table(
        pa.table({
            "k": pa.array([1, 1, 1, 2, 2], pa.int64()),
            "o": pa.array([1, 2, 3, 1, 2], pa.int64()),
            "v": ["a", "b", "c", "a", "c"],
        }),
        str(ev),
    )
    r = _cli("--num-cpus", "2", "funnel", str(ev), "--key-col", "k",
             "--order-col", "o", "--val-col", "v", "--stages", "a,b,c")
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out == {"stage_1": 1, "stage_3": 1}


def test_cli_graph(tmp_path):
    """Session-9 CLI verb: graph triangles + pagerank over an edge parquet."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    edges = tmp_path / "edges.parquet"
    pq.write_table(
        pa.table({
            "src": pa.array([1, 2, 3, 1, 4], pa.int64()),
            "dst": pa.array([2, 3, 1, 3, 5], pa.int64()),
        }),
        str(edges),
    )
    r = _cli("--num-cpus", "2", "graph", "triangles", str(edges))
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out == {"triangles": 1}

    r = _cli("--num-cpus", "2", "graph", "pagerank", str(edges),
             "--out", str(tmp_path / "pr"), "--n-iter", "5")
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["nodes"] == 5 and out["n_iter"] == 5

    # 2-core of triangle 1-2-3 + pendant edge 4-5 = the triangle
    r = _cli("--num-cpus", "2", "graph", "kcore", str(edges),
             "--out", str(tmp_path / "kc"), "--k", "2")
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out == {"nodes": 3, "k": 2}

    # writing op without --out refuses
    r = _cli("--num-cpus", "2", "graph", "degrees", str(edges))
    assert r.returncode == 2 and "--out is required" in r.stderr


def test_cli_curate(tmp_path):
    """The composed curation verb: PII + badwords flag + classifier +
    LM perplexity stream to the sink with all columns present."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from logray.functions.classifier import LogRegModel
    from logray.state.artifacts import save_logreg, save_ngram_lm

    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": list(range(20)),
        "text": [f"doc {i} contact a@b.co " + ("spark " * (i % 3))
                 for i in range(20)],
    }), src)
    bw = str(tmp_path / "bw.txt")
    open(bw, "w").write("spark\n")
    clf = str(tmp_path / "clf.npz")
    save_logreg(LogRegModel(weights=np.zeros(64), bias=0.0, dim=64,
                            losses=[0.7], features="binary"), clf)
    lm = str(tmp_path / "lm.npz")
    save_ngram_lm(([np.ones(256, np.int64)], 256), lm)

    out = str(tmp_path / "out")
    r = _cli("curate", src, "--out", out, "--badwords", bw,
             "--badwords-mode", "flag", "--classifier", clf, "--lm", lm)
    assert r.returncode == 0, r.stderr
    res = json.loads(r.stdout.strip().splitlines()[-1])
    assert res["rows"] == 20
    got = pq.read_table(out)
    cols = set(got.column_names)
    assert {"doc_id", "n_banned", "quality_prob", "quality_pred",
            "ppl"} <= cols
    n_banned = dict(zip(got["doc_id"].to_pylist(),
                        got["n_banned"].to_pylist()))
    assert n_banned[0] == 0 and n_banned[2] == 2

    # drop mode removes the flagged docs
    out2 = str(tmp_path / "out2")
    r = _cli("curate", src, "--out", out2, "--badwords", bw)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout.strip().splitlines()[-1])["rows"] == 7


def test_cli_resample_and_curriculum(tmp_path):
    """The resample and curriculum verbs run end-to-end from the shell."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    src = str(tmp_path / "ev.parquet")
    ts = pd.to_datetime("2024-01-01") + pd.to_timedelta(range(40), unit="min")
    pq.write_table(pa.table({
        "event_id": list(range(40)),
        "event_type": ["a", "b"] * 20,
        "ts": pa.array(ts, pa.timestamp("us")),
        "value": [float(i) for i in range(40)],
    }), src)
    out = str(tmp_path / "bars")
    r = _cli("resample", src, "--out", out, "--width-s", "600")
    assert r.returncode == 0, r.stderr
    res = json.loads(r.stdout.strip().splitlines()[-1])
    assert res["bars"] == 8  # 40 min / 10-min bars x 2 keys
    bars = pq.read_table(out)
    assert {"event_type", "window_start", "open", "high", "low", "close",
            "n", "sum_cents"} <= set(bars.column_names)

    docs = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": list(range(30)),
        "n_chars": [i % 7 for i in range(30)],
    }), docs)
    out2 = str(tmp_path / "order")
    r = _cli("curriculum", docs, "--out", out2, "--bins", "3", "--seed", "5")
    assert r.returncode == 0, r.stderr
    res = json.loads(r.stdout.strip().splitlines()[-1])
    assert res["rows"] == 30
    got = pq.read_table(out2).to_pandas()
    assert sorted(got["curriculum_rank"]) == list(range(1, 31))
    assert got["bin"].nunique() == 3


def test_cli_collocations_and_rebalance(tmp_path):
    """Session-7 CLI verbs: PMI collocation mining and the byte-balanced
    shard rewrite."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = tmp_path / "docs.parquet"
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(30), pa.int64()),
            "text": [f"doc {i} loves new york a lot" for i in range(30)],
        }),
        str(docs),
    )
    out_pq = tmp_path / "colloc.parquet"
    r = _cli("--num-cpus", "2", "collocations", str(docs),
             "--out", str(out_pq), "--min-count", "10", "--top", "5")
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    # 4 bigrams are shared by every doc ("loves new", "new york",
    # "york a", "a lot"); the per-doc ones fall under min_count
    assert out["pairs"] == 4
    got = pq.read_table(str(out_pq))
    pairs = set(zip(got["a"].to_pylist(), got["b"].to_pylist()))
    assert ("new", "york") in pairs and "pmi" in got.column_names

    shard_dir = tmp_path / "shards"
    r = _cli("--num-cpus", "2", "rebalance", str(docs),
             "--out", str(shard_dir), "--target-bytes", "200")
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["shards"] >= 2
    import ray.data as rd

    back = rd.read_parquet(str(shard_dir)).to_pandas()
    assert sorted(back["doc_id"]) == list(range(30))


def test_cli_html_snapshot_bm25(tmp_path):
    """Session-8 CLI verbs: extract-html, snapshot-diff, bm25-build +
    bm25-search (subprocess, real CLI)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    docs = tmp_path / "docs.parquet"
    pq.write_table(
        pa.table({
            "doc_id": pa.array(range(6), pa.int64()),
            "text": [f"<p>doc {i} the cat</p><br><b>sat</b>" for i in range(6)],
        }),
        str(docs),
    )
    out_dir = tmp_path / "clean"
    r = _cli("--num-cpus", "2", "extract-html", str(docs),
             "--out", str(out_dir))
    assert r.returncode == 0, r.stderr[-2000:]
    import ray.data as rd

    back = rd.read_parquet(str(out_dir)).to_pandas().sort_values("doc_id")
    assert back.iloc[0]["clean_text"] == "doc 0 the cat\nsat"
    assert back.iloc[0]["n_tags"] == 5

    new = tmp_path / "docs2.parquet"
    pq.write_table(
        pa.table({
            "doc_id": pa.array([0, 1, 2, 3, 4, 9], pa.int64()),
            "text": ["<p>doc 0 the cat</p><br><b>sat</b>", "CHANGED"]
                    + [f"<p>doc {i} the cat</p><br><b>sat</b>"
                       for i in (2, 3, 4)] + ["fresh"],
        }),
        str(new),
    )
    diff_dir = tmp_path / "diff"
    r = _cli("--num-cpus", "2", "snapshot-diff", str(docs), str(new),
             "--out", str(diff_dir))
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out == {"added": 1, "changed": 1, "removed": 1}

    idx = tmp_path / "bm25"
    r = _cli("--num-cpus", "2", "bm25-build", str(docs),
             "--index", str(idx), "--shards", "4")
    assert r.returncode == 0, r.stderr[-2000:]
    out = json.loads(r.stdout.strip().splitlines()[-1])
    assert out["n_docs"] == 6 and out["num_shards"] == 4
    r = _cli("--num-cpus", "2", "bm25-search", "doc 3 cat",
             "--index", str(idx), "-k", "2")
    assert r.returncode == 0, r.stderr[-2000:]
    hits = json.loads(r.stdout.strip().splitlines()[-1])
    assert hits[0]["doc_id"] == 3 and len(hits) == 2


def test_cli_crawl(ray_session, tmp_path):
    """Round-5 CLI verb: the resumable crawl -> training-set composition
    (subprocess, real CLI), including the no-op resume re-invocation."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd

    from logray.sources.warc import write_warc

    rng = np.random.default_rng(7)
    words = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
             "lamda mu nu xi omicron pi rho sigma tau upsilon").split()

    def text(i):
        return " ".join(rng.choice(words, 120))

    docs = [(f"https://s{i % 3}.example/p{i}", text(i)) for i in range(9)]
    docs.append(("https://s1.example/private/x", text(99)))  # robots drop
    tbl = pa.table({
        "url": pa.array([u for u, _ in docs]),
        "payload": pa.array(
            [f"<html><body><p>{b}</p></body></html>".encode()
             for _, b in docs], pa.binary()),
    })
    warc_dir = str(tmp_path / "warc")
    write_warc(rd.from_arrow(tbl).repartition(2), warc_dir)
    eval_dir = tmp_path / "eval"
    eval_dir.mkdir()
    pq.write_table(pa.table({"text": pa.array([docs[0][1]])}),
                   str(eval_dir / "eval.parquet"))
    robots = tmp_path / "robots.json"
    robots.write_text(json.dumps(
        {"s1.example": "User-agent: *\nDisallow: /private/\n"}))

    out = tmp_path / "out"
    argv = ("crawl", warc_dir, "--out", str(out), "--eval", str(eval_dir),
            "--robots", str(robots), "--buckets", "4", "--vocab-size",
            "280", "--pack-budget", "128", "--num-cpus", "2")
    r = _cli(*argv)
    assert r.returncode == 0, r.stderr[-2000:]
    m = json.loads(r.stdout.strip().splitlines()[-1])
    # 10 docs - 1 robots - 1 decontam (doc0 is the eval passage)
    assert m["extract"]["rows"] == 9
    assert m["decontam"]["rows"] == 8

    from logray.pipelines.crawl import read_crawl_output

    def final():
        df = read_crawl_output(str(out)).to_pandas()
        df["token_ids"] = df["token_ids"].map(tuple)
        return df.sort_values("doc_id").reset_index(drop=True)

    first = final()
    assert len(first) == 8

    # re-invoking the same command is a pure manifest resume: identical
    # metrics, identical packed bytes
    r2 = _cli(*argv)
    assert r2.returncode == 0, r2.stderr[-2000:]
    m2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert m2 == m
    pd.testing.assert_frame_equal(first, final())
