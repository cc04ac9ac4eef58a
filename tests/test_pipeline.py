"""End-to-end pipeline + resumable-manifest tests."""

import json
import os

import pytest

from logray.formats import GOLDEN_FORMAT
from logray.pipelines import PipelineConfig, run_pipeline
from logray.sources.transcripts import synth_transcripts_table, write_synth_transcripts
from logray.state import RunManifest, run_resumable

CFG = PipelineConfig(
    format_string=GOLDEN_FORMAT,
    routes=[
        ("info", "Level EQ INFO", False),
        ("trace", "Level EQ TRACE", False),
        ("malformed", "", True),  # match-all + accept-bad; catches bad rows last
    ],
)


def _expected_counts(table):
    """Oracle expectations for a synth transcript table."""
    from logray.formats import LineFormat
    from logray.oracle import parse_named

    fmt = LineFormat.from_format_string(GOLDEN_FORMAT)
    counts = {"info": 0, "trace": 0, "malformed": 0, "unrouted": 0}
    for text in table["text"].to_pylist():
        well, vals = parse_named(text, fmt)
        if well and vals["Level"] == "INFO":
            counts["info"] += 1
        elif well and vals["Level"] == "TRACE":
            counts["trace"] += 1
        else:
            counts["malformed"] += 1  # catch-all: other well rows + bad rows
    return counts


def test_run_pipeline_counts_match_oracle(ray_session, tmp_path):
    import ray.data as rd

    table = synth_transcripts_table(n_convs=40, seed=7, hot_conv_rows=200)
    ds = rd.from_arrow(table)
    metrics = run_pipeline(ds, CFG, str(tmp_path))
    want = _expected_counts(table)
    assert metrics["routes"]["info"] == want["info"]
    assert metrics["routes"]["trace"] == want["trace"]
    assert metrics["routes"]["malformed"] == want["malformed"]
    assert metrics["turns_total"] == table.num_rows
    assert metrics["turns_per_conv_max"] >= 200  # the hot conversation
    assert metrics["parse_path"] == "compiled"
    assert os.path.exists(tmp_path / "metrics.json")
    # partitioned sink layout: one directory per route
    dirs = {d for d in os.listdir(tmp_path / "routed")}
    assert {"route=info", "route=trace", "route=malformed"} <= dirs


def test_routed_row_text_equality(ray_session, tmp_path):
    """Per-turn text equality under stable (conv_id, turn_idx) ordering —
    the north-rule per-row invariant."""
    import ray.data as rd

    table = synth_transcripts_table(n_convs=20, seed=11)
    ds = rd.from_arrow(table)
    run_pipeline(ds, CFG, str(tmp_path), write_metrics=False)
    out = (
        rd.read_parquet(str(tmp_path / "routed"))
        .select_columns(["conv_id", "turn_idx", "text"])
        .sort(["conv_id", "turn_idx"])
        .to_pandas()
    )
    src = (
        table.select(["conv_id", "turn_idx", "text"])
        .to_pandas()
        .sort_values(["conv_id", "turn_idx"])
        .reset_index(drop=True)
    )
    assert out["text"].tolist() == src["text"].tolist()
    assert out["conv_id"].tolist() == src["conv_id"].tolist()


def _varint(b: bytes, p: int):
    v = shift = 0
    while True:
        x = b[p]
        p += 1
        v |= (x & 0x7F) << shift
        shift += 7
        if x < 0x80:
            return v, p


def _thrift_value(b: bytes, p: int, t: int):
    """One Thrift-compact value of type ``t``: the bool, integer, binary
    and struct types a Parquet page header is made of."""
    if t in (1, 2):
        return t == 1, p
    if t in (4, 5, 6):
        v, p = _varint(b, p)
        return (v >> 1) ^ -(v & 1), p
    if t == 8:
        n, p = _varint(b, p)
        return b[p:p + n], p + n
    if t == 12:
        out, fid = {}, 0
        while b[p]:
            h = b[p]
            p += 1
            if h >> 4:
                fid += h >> 4
            else:
                fid, p = _thrift_value(b, p, 4)
            out[fid], p = _thrift_value(b, p, h & 15)
        return out, p + 1
    raise ValueError(f"thrift type {t}")


def _page_encodings(path: str, col: int) -> list:
    """(page type, encoding) of each page of column ``col`` in row group 0,
    read from the Parquet page headers: page type 2 is a dictionary page,
    0/3 a data page; encoding 0 is PLAIN, 2/8 the dictionary indices."""
    import pyarrow.parquet as pq

    md = pq.ParquetFile(path).metadata.row_group(0).column(col)
    with open(path, "rb") as f:
        buf = f.read()
    p = md.dictionary_page_offset if md.has_dictionary_page else md.data_page_offset
    pages, values = [], 0
    while values < md.num_values:
        hdr, p = _thrift_value(buf, p, 12)
        if hdr[1] == 2:
            pages.append((2, hdr[7][2]))
        else:
            body = hdr[5] if hdr[1] == 0 else hdr[8]
            pages.append((hdr[1], body[2] if hdr[1] == 0 else body[4]))
            values += body[1]
        p += hdr[3]
    return pages


def test_sink_files_keep_rows_schema_and_encode_plan(ray_session, tmp_path):
    """Each route file holds the writer's input rows of that route, in
    input order, under the input schema minus ``route`` (no dictionary
    types); on disk ``role`` is dictionary-encoded and ``text`` falls back
    to PLAIN data pages."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from logray.stages.enrich import EnrichBatch
    from logray.stages.parse import ParseBatch

    table = synth_transcripts_table(n_convs=1000, seed=5)
    tagged = EnrichBatch()(ParseBatch(GOLDEN_FORMAT)(table))
    tagged = tagged.append_column("route", CFG.build_router().route_column(tagged))
    run_pipeline(rd.from_arrow(table), CFG, str(tmp_path), write_metrics=False)

    want_schema = tagged.schema.remove(tagged.schema.get_field_index("route"))
    sink = tmp_path / "routed"
    routes = sorted(d.name.removeprefix("route=") for d in sink.iterdir())
    assert routes == ["info", "malformed", "trace"]
    for route in routes:
        files = sorted((sink / f"route={route}").iterdir())
        for f in files:
            schema = pq.read_schema(f)
            assert schema.equals(want_schema), f
            assert not any(pa.types.is_dictionary(t) for t in schema.types)
        got = pa.concat_tables(pq.read_table(f) for f in files)
        want = tagged.filter(pc.equal(tagged["route"], route)).drop_columns(["route"])
        assert want.num_rows >= 4096
        assert got.equals(want), route

        names = want_schema.names
        role = _page_encodings(str(files[0]), names.index("role"))
        assert role[0] == (2, 0) and {e for _, e in role[1:]} <= {2, 8}, role
        text = _page_encodings(str(files[0]), names.index("text"))
        assert any(t != 2 and e == 0 for t, e in text), text


def test_resumable_run_skips_done_and_survives_crash(ray_session, tmp_path):
    import ray.data as rd

    src = tmp_path / "input"
    write_synth_transcripts(str(src), n_convs=60, convs_per_file=20, seed=3)
    assert len(os.listdir(src)) == 3

    calls = []

    def make_runner(fail_on=None):
        def run_partition(files, out):
            calls.append(files[0])
            if fail_on and fail_on in files[0]:
                raise RuntimeError("injected crash")
            ds = rd.read_parquet(files)
            m = run_pipeline(ds, CFG, out, write_metrics=False)
            return {"rows": m["turns_total"], "routes": m["routes"]}

        return run_partition

    out = tmp_path / "out"
    with pytest.raises(RuntimeError):
        run_resumable(str(src), str(out), make_runner(fail_on="part-00002"))
    done = RunManifest(str(out)).entries()
    assert {d.split("-", 1)[1].rsplit("-", 1)[0] for d in done} == \
        {"part-00000.parquet", "part-00001.parquet"}

    calls.clear()
    metrics = run_resumable(str(src), str(out), make_runner())
    # only the crashed partition re-ran
    assert len(calls) == 1 and "part-00002" in calls[0]
    assert metrics["partitions"] == 3
    total = sum(
        json.load(open(os.path.join(out, "parts", p, "manifest.json")))["rows"]
        for p in os.listdir(out / "parts")
    )
    assert metrics["rows"] == total > 0


def test_manifest_atomicity(tmp_path):
    mf = RunManifest(str(tmp_path))
    os.makedirs(mf.partition_dir("p1"))
    assert not mf.is_done("p1")
    mf.record("p1", {"rows": 5})
    assert mf.is_done("p1")
    assert mf.entries()["p1"]["rows"] == 5


def test_run_pipeline_resumable_api(ray_session, tmp_path):
    src = tmp_path / "in"
    write_synth_transcripts(str(src), n_convs=40, convs_per_file=20, seed=9)
    from logray.pipelines.flagship import run_pipeline_resumable

    m1 = run_pipeline_resumable(str(src), CFG, str(tmp_path / "out"))
    assert m1["partitions"] == 2 and m1["rows"] > 0
    # second run is a no-op resume: same totals, nothing re-executed
    m2 = run_pipeline_resumable(str(src), CFG, str(tmp_path / "out"))
    assert m2 == m1


def test_jsonl_transcripts_round_trip(ray_session, tmp_path):
    import pandas as pd
    import ray.data as rd

    from logray.sources.jsonl import (
        read_transcripts_jsonl,
        write_transcripts_jsonl,
    )
    from logray.sources.transcripts import transcripts_from_events

    ds = transcripts_from_events("/root/testdata/sf0.001")
    orig = ds.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    out = str(tmp_path / "jsonl")
    write_transcripts_jsonl(ds, out)
    back = (
        read_transcripts_jsonl(out).to_pandas()
        .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(back[orig.columns.tolist()], orig)

    # missing-column input fails loudly
    import pytest

    bad = str(tmp_path / "bad")
    rd.from_pandas(pd.DataFrame({"conv_id": ["a"]})).write_json(bad)
    with pytest.raises(Exception):
        read_transcripts_jsonl(bad).to_pandas()


def test_incremental_ingest_processes_only_new_files(ray_session, tmp_path):
    """Re-running the resumable pipeline on a GROWN input directory is
    incremental ingestion: only new files run — even when they sort
    BEFORE existing files (name-stable partition ids) — and the merged
    metrics equal a from-scratch run over everything."""
    import shutil

    import ray.data as rd

    src = tmp_path / "input"
    write_synth_transcripts(str(src), n_convs=60, convs_per_file=20, seed=3)

    calls = []

    def run_partition(files, out):
        calls.append(os.path.basename(files[0]))
        ds = rd.read_parquet(files)
        m = run_pipeline(ds, CFG, out, write_metrics=False)
        return {"rows": m["turns_total"], "routes": m["routes"]}

    out = tmp_path / "out"
    first = run_resumable(str(src), str(out), run_partition)
    assert len(calls) == 3

    # a late-arriving shard that sorts FIRST (the positional-id trap)
    new_file = src / "aaa-late-arrival.parquet"
    shutil.copy(src / "part-00000.parquet", new_file)

    calls.clear()
    second = run_resumable(str(src), str(out), run_partition)
    assert calls == ["aaa-late-arrival.parquet"]  # ONLY the new file ran
    assert second["partitions"] == 4
    assert second["rows"] > first["rows"]

    # equals a from-scratch run over the grown directory
    scratch = run_resumable(str(src), str(tmp_path / "out2"), run_partition)
    assert scratch["rows"] == second["rows"]
    assert scratch.get("routes") == second.get("routes")


def test_assign_turn_idx_bucketed_matches_sorted(ray_session):
    """The streaming bucketed turn_idx (one hash shuffle, no global sort,
    no materialize) must agree row-for-row with the sorted variant and
    the per-group rank, including a hot conversation and ts ties."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from logray.sources.transcripts import assign_turn_idx

    rng = np.random.default_rng(11)
    n = 4000
    convs = np.array([f"conv-{i:03d}" for i in range(25)])
    conv = np.where(rng.random(n) < 0.4, "conv-hot", convs[rng.integers(0, 25, n)])
    t = pa.table({
        "conv_id": pa.array(conv.tolist()),
        # coarse ts so ties are common — event_id must break them
        "ts": pa.array(rng.integers(0, 50, n), pa.int64()),
        "event_id": pa.array(rng.permutation(n).astype(np.int64)),
        "payload": pa.array([f"txt-{i}" for i in range(n)]),
    })
    out = (assign_turn_idx(rd.from_arrow(t).repartition(13), num_buckets=7)
           .to_pandas())
    want = t.to_pandas().sort_values(["conv_id", "ts", "event_id"])
    want["turn_idx"] = want.groupby("conv_id").cumcount().astype("int32")
    got = out.set_index("event_id")["turn_idx"]
    want_map = want.set_index("event_id")["turn_idx"]
    assert got.sort_index().equals(want_map.sort_index())
    # payload survives the shuffle untouched
    assert set(out["payload"]) == set(f"txt-{i}" for i in range(n))


def test_csv_transcripts_round_trip(ray_session, tmp_path):
    """CSV wire format: embedded commas/quotes/newlines in text and a
    null tool column all round-trip through standard CSV quoting."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd

    from logray.sources.csvsrc import (
        read_transcripts_csv,
        write_transcripts_csv,
    )
    from logray.sources.transcripts import transcripts_from_events

    ds = transcripts_from_events("/root/testdata/sf0.001")
    orig = ds.to_pandas().sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)

    out = str(tmp_path / "csv")
    write_transcripts_csv(ds, out)
    back = (
        read_transcripts_csv(out).to_pandas()
        .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(back[orig.columns.tolist()], orig)

    # adversarial payloads: comma, quote, newline, CRLF inside text
    import datetime

    nasty = pa.table({
        "conv_id": pa.array(["c1", "c1", "c2", "c2"]),
        "turn_idx": pa.array([0, 1, 0, 1], pa.int32()),
        "role": pa.array(["user", "assistant", "user", "assistant"]),
        "text": pa.array(['a,b "quoted"', "line1\nline2", "crlf\r\nhere", "plain"]),
        # "" is the canonical no-tool encoding (CSV conflates null -> "")
        "tool": pa.array(["", "search", "", ""], pa.string()),
        "ts": pa.array([datetime.datetime(2026, 1, 1, 12, 0, i) for i in range(4)],
                       pa.timestamp("us")),
    })
    out2 = str(tmp_path / "csv2")
    write_transcripts_csv(rd.from_arrow(nasty), out2)
    back2 = (
        read_transcripts_csv(out2).to_pandas()
        .sort_values(["conv_id", "turn_idx"]).reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(back2, nasty.to_pandas())

    # type-inference traps: a block whose tool column is ALL empty must
    # read back "" (not NULL), and a digit-looking conv_id must stay a
    # string with its leading zeros (column types are pinned, not inferred)
    tricky = pa.table({
        "conv_id": pa.array(["0012", "0034"]),
        "turn_idx": pa.array([0, 0], pa.int32()),
        "role": pa.array(["user", "user"]),
        "text": pa.array(["a", "b"]),
        "tool": pa.array(["", ""], pa.string()),
        "ts": pa.array([datetime.datetime(2026, 1, 1)] * 2, pa.timestamp("us")),
    })
    out3 = str(tmp_path / "csv3")
    write_transcripts_csv(rd.from_arrow(tricky), out3)
    back3 = (read_transcripts_csv(out3).to_pandas()
             .sort_values("conv_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(back3, tricky.to_pandas())

    # missing-column input fails loudly
    import pytest

    bad = str(tmp_path / "bad")
    rd.from_pandas(pd.DataFrame({"conv_id": ["a"]})).write_csv(bad)
    with pytest.raises(Exception):
        read_transcripts_csv(bad).to_pandas()


def test_resumable_concurrent_fails_fast(ray_session, tmp_path):
    """max_concurrent > 1 with a systematic failure cancels the
    not-yet-started backlog at the first error instead of executing
    every doomed partition; a fixed rerun completes from where the
    committed partitions left off."""
    import json as _json
    import time as _time

    src = tmp_path / "input"
    src.mkdir()
    n = 20
    for i in range(n):  # many tiny partitions
        (src / f"p-{i:05d}.parquet").write_bytes(b"")
    parts = [(f"p{i:05d}", [str(src / f"p-{i:05d}.parquet")])
             for i in range(n)]
    ran = []

    def bad(files, out, part_id=None):
        ran.append(part_id)
        _time.sleep(0.05)
        raise RuntimeError("systematic")

    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="systematic"):
        run_resumable(str(src), str(out), bad, partitions=parts,
                      max_concurrent=2)
    # fail-fast: far fewer than all 20 partitions executed (first runs
    # synchronously, then at most a few in-flight before cancellation)
    assert len(ran) < n // 2, ran

    good_ran = []

    def good(files, out, part_id=None):
        good_ran.append(part_id)
        with open(f"{out}/ok.json", "w") as f:
            _json.dump({"pid": part_id}, f)
        return {"rows": 1}

    metrics = run_resumable(str(src), str(out), good, partitions=parts,
                            max_concurrent=4)
    assert metrics["partitions"] == n
    assert len(good_ran) == n  # nothing was committed by the bad run


def test_route_sinks_exact_under_worker_kill(ray_session, tmp_path):
    """A sink worker killed right after its write is retried by Ray. The
    retry rewrites the same file names, so the sinks hold exactly the
    reported rows, in the same files as a clean run."""
    from collections import Counter

    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from logray.pipelines.flagship import build
    from logray.stages.aggregate import fold_partials_stream
    from logray.stages.route import RouteSinkWriter

    table = synth_transcripts_table(n_convs=40, seed=21)
    step = -(-table.num_rows // 4)
    marker = str(tmp_path / "kill-marker")

    class KillAfterWrite(RouteSinkWriter):
        def __call__(self, t):
            out = super().__call__(t)
            try:
                open(marker, "x").close()
            except FileExistsError:
                return out
            os._exit(1)  # first attempt of the first batch only

    def run(writer_cls, name):
        sink = tmp_path / name
        ds = rd.from_arrow([table.slice(i, step) for i in range(0, table.num_rows, step)])
        folded = fold_partials_stream(build(ds, CFG).map_batches(
            writer_cls(str(sink), ["route"], ts_col=None), batch_format="pyarrow"))
        rc = folded.filter(pc.equal(folded["metric"], "route"))
        reported = dict(zip(rc["key"].to_pylist(), rc["n"].to_pylist()))
        files = sorted(str(p.relative_to(sink)) for p in sink.rglob("*") if p.is_file())
        on_disk = Counter()
        for f in files:
            route = f.split("/")[0].removeprefix("route=")
            on_disk[route] += pq.ParquetFile(sink / f).metadata.num_rows
        return reported, dict(on_disk), files

    clean = run(RouteSinkWriter, "clean")
    reported, on_disk, files = run(KillAfterWrite, "faulted")
    assert os.path.isfile(marker)  # the kill did happen
    assert on_disk == reported == clean[0]
    assert sum(reported.values()) == table.num_rows
    assert files == clean[2]


def test_run_pipeline_refuses_used_sink_dir(ray_session, tmp_path):
    import ray.data as rd

    table = synth_transcripts_table(n_convs=5, seed=2)
    run_pipeline(rd.from_arrow(table), CFG, str(tmp_path), write_metrics=False)
    with pytest.raises(ValueError, match="non-empty"):
        run_pipeline(rd.from_arrow(table), CFG, str(tmp_path), write_metrics=False)


def test_publish_failed_write_leaves_target(tmp_path):
    from logray.state.manifest import publish

    target = tmp_path / "x.json"
    target.write_text("old")

    def fail(tmp):
        with open(tmp, "w") as f:
            f.write("half")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        publish(str(target), fail)
    assert target.read_text() == "old"
    assert os.listdir(tmp_path) == ["x.json"]  # no temp file left


def test_publish_mode_matches_open(tmp_path):
    from logray.state.manifest import publish

    with open(tmp_path / "plain", "w"):
        pass
    publish(str(tmp_path / "sub" / "published"), lambda tmp: open(tmp, "w").close())
    assert (os.stat(tmp_path / "sub" / "published").st_mode
            == os.stat(tmp_path / "plain").st_mode)


def test_file_commits_live_in_manifest():
    """Only state/manifest.py renames files: every file commit goes
    through ``publish`` and every Ray task keeps its default retries
    (no uuid-named copies, no ``max_retries`` opt-out)."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parents[1] / "logray"
    pat = re.compile(r"\bos\.(?:replace|rename)\b|\buuid\b|\bmax_retries\b")
    offenders = sorted(
        rel for p in root.rglob("*.py")
        if (rel := p.relative_to(root).as_posix()) != "state/manifest.py"
        and pat.search(p.read_text()))
    assert offenders == []
