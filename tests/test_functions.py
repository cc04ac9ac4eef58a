"""Tests for training-data operators: textstats, fingerprint/dedup family,
ANN, multimodal plumbing."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from logray.functions.ann import ann_lsh_topk, ann_topk
from logray.functions.dedup import (
    embedding_dedup,
    exact_dedup,
    minhash_lsh_dedup,
    ngram_jaccard_pairs,
    simhash_dedup,
)
from logray.functions.fingerprint import (
    band_hashes,
    content_hash,
    content_hash128,
    hamming64,
    minhash_signatures,
    simhash,
)
from logray.functions.multimodal import (
    DecodeImageBatch,
    ExtractAudioFeaturesBatch,
    SampleFramesBatch,
    decode_stage,
    synth_media_table,
)
from logray.functions.textstats import TextStatsBatch


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def test_content_hash_exactness():
    texts = pa.array(["hello", "hello", "hellp", "", "", "h"])
    h = content_hash(texts)
    assert h[0] == h[1]
    assert h[0] != h[2]
    assert h[3] == h[4]
    assert h[3] != h[5]


def test_minhash_similarity_monotone():
    a = "the quick brown fox jumps over the lazy dog and runs far away today"
    b = a.replace("lazy", "hazy")  # near-duplicate
    c = "completely different content about database query engines and sorting"
    sig = minhash_signatures(pa.array([a, b, c]), num_perm=128, k=5)
    agree_ab = (sig[0] == sig[1]).mean()
    agree_ac = (sig[0] == sig[2]).mean()
    assert agree_ab > 0.6 > agree_ac


def test_band_hashes_shape():
    sig = minhash_signatures(pa.array(["abcdefgh", "abcdefgh", "zzzzzzzz"]), num_perm=16)
    bh = band_hashes(sig, bands=4)
    assert bh.shape == (3, 4)
    assert (bh[0] == bh[1]).all()


def test_simhash_and_hamming():
    a = "the quick brown fox jumps over the lazy dog" * 3
    b = a.replace("dog", "dot")
    c = "totally unrelated text with other words entirely present here" * 3
    sh = simhash(pa.array([a, b, c]))
    d_ab = hamming64(sh[:1], sh[1:2])[0]
    d_ac = hamming64(sh[:1], sh[2:3])[0]
    assert d_ab < d_ac
    assert hamming64(sh[:1], sh[:1])[0] == 0


# ---------------------------------------------------------------------------
# dedup operators
# ---------------------------------------------------------------------------


@pytest.fixture()
def doc_ds(ray_session):
    import ray.data as rd

    texts = [
        "aaaa bbbb cccc dddd",
        "aaaa bbbb cccc dddd",  # exact dup of 0
        "aaaa bbbb cccc eeee",  # near dup
        "totally different document body",
        "aaaa bbbb cccc dddd",  # exact dup of 0
        "another unique document text here",
    ]
    return rd.from_arrow(
        pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts})
    )


def test_exact_dedup(doc_ds):
    out = exact_dedup(doc_ds).to_pandas().sort_values("doc_id")
    assert out["doc_id"].tolist() == [0, 2, 3, 5]


def test_minhash_lsh_dedup(doc_ds):
    pairs = minhash_lsh_dedup(doc_ds, num_perm=64, bands=16, k=4, threshold=0.5).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    # the three exact copies pair up; the near-dup joins at least one of them
    assert {(0, 1), (0, 4), (1, 4)} <= got
    for a, b in got:
        assert a < b


def test_simhash_dedup(doc_ds):
    pairs = simhash_dedup(doc_ds, max_hamming=8).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])}
    assert {(0, 1), (0, 4), (1, 4)} <= got
    exact = pairs[(pairs.id_a == 0) & (pairs.id_b == 1)]
    assert (exact["hamming"] == 0).all()


def test_ngram_jaccard_pairs(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], pa.int64()),
                "grp": ["g", "g", "g"],
                "text": ["abcd", "abce", "wxyz"],
            }
        )
    )
    pairs = ngram_jaccard_pairs(ds, "grp", n=1).to_pandas()
    m = {(int(a), int(b)): j for a, b, j in zip(pairs.id_a, pairs.id_b, pairs.jaccard)}
    assert m[(1, 2)] == pytest.approx(3 / 5)
    assert m[(1, 3)] == pytest.approx(0.0)


def test_embedding_dedup(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(5)
    base = rng.standard_normal(16).astype(np.float32)
    vecs = [base, base * 2.0, base + rng.standard_normal(16) * 0.01, rng.standard_normal(16)]
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(4), pa.int64()),
                "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
            }
        )
    )
    pairs = embedding_dedup(ds, threshold=0.99).to_pandas()
    got = {(int(a), int(b)) for a, b in zip(pairs.id_a, pairs.id_b)}
    assert {(0, 1), (0, 2), (1, 2)} <= got
    assert not any(3 in p for p in got)


# ---------------------------------------------------------------------------
# ANN
# ---------------------------------------------------------------------------


@pytest.fixture()
def emb_ds(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(9)
    m = rng.standard_normal((200, 12)).astype(np.float32)
    return (
        rd.from_arrow(
            pa.table(
                {
                    "vec_id": pa.array(range(200), pa.int64()),
                    "embedding": pa.array([v.tolist() for v in m], pa.list_(pa.float32())),
                }
            )
        ),
        m,
    )


def _brute_truth(m, q, k):
    mu = m / np.linalg.norm(m, axis=1)[:, None]
    qu = q / np.linalg.norm(q)
    sim = mu @ qu
    return set(np.argsort(-sim)[:k].tolist())


def test_ann_topk_exact(emb_ds):
    ds, m = emb_ds
    q = m[17] + 0.01
    res = ann_topk(ds, {"query_id": [0], "matrix": q[None, :]}, k=5)
    assert len(res) == 5
    assert set(res["vec_id"]) == _brute_truth(m, q, 5)
    assert res.iloc[0]["vec_id"] == 17
    assert res["rank"].tolist() == [0, 1, 2, 3, 4]


def test_ann_topk_multi_query(emb_ds):
    ds, m = emb_ds
    qm = np.stack([m[3], m[99]])
    res = ann_topk(ds, {"query_id": [10, 20], "matrix": qm}, k=3)
    assert sorted(set(res["query_id"])) == [10, 20]
    assert res[res.query_id == 10].iloc[0]["vec_id"] == 3
    assert res[res.query_id == 20].iloc[0]["vec_id"] == 99


def test_ann_lsh_recall_of_self(emb_ds):
    ds, m = emb_ds
    q = m[42]
    res = ann_lsh_topk(ds, {"query_id": [0], "matrix": q[None, :]}, k=5, n_planes=6, probes=2)
    # the identical vector shares the query's bucket by construction
    assert res.iloc[0]["vec_id"] == 42
    assert res.iloc[0]["cosine"] == pytest.approx(1.0, abs=1e-5)


# ---------------------------------------------------------------------------
# textstats
# ---------------------------------------------------------------------------


def test_textstats_counts():
    t = pa.table({"text": ["The cat and the dog.", "12345", ""]})
    out = TextStatsBatch()(t)
    assert out["n_ws_tokens"].to_pylist() == [5, 1, 0]
    assert out["n_chars_text"].to_pylist() == [20, 5, 0]
    assert out["digit_ratio"].to_pylist()[1] == 1.0
    assert out["lang_id"].to_pylist()[0] == "en"
    assert out["lang_id"].to_pylist()[2] == "unknown"


def test_textstats_langid():
    t = pa.table(
        {
            "text": [
                "the cat is in the house and that is fine",
                "der Hund ist nicht mit der Katze",
                "le chat est dans la maison et les arbres",
                "el perro que corre por la calle con una bola",
            ]
        }
    )
    out = TextStatsBatch()(t)
    assert out["lang_id"].to_pylist() == ["en", "de", "fr", "es"]


def test_textstats_quality_orders_garbage_below_prose():
    t = pa.table(
        {
            "text": [
                "This is a reasonably long paragraph of ordinary English prose that "
                "contains the usual mix of words and structure one would expect.",
                "!!!###$$$%%%^^^&&&***((()))___+++===",
            ]
        }
    )
    out = TextStatsBatch()(t)
    q = out["quality_score"].to_pylist()
    assert q[0] > q[1]


# ---------------------------------------------------------------------------
# multimodal plumbing
# ---------------------------------------------------------------------------


def test_multimodal_stages(ray_session):
    import ray.data as rd

    tbl = synth_media_table(n=12, payload_bytes=1024)
    ds = rd.from_arrow(tbl)
    img = decode_stage(ds, DecodeImageBatch, concurrency=1).to_pandas()
    assert {"width", "height", "channels", "thumbnail"} <= set(img.columns)
    assert (img["width"] >= 64).all()
    assert all(len(b) == 64 for b in img["thumbnail"])

    aud = decode_stage(ds, ExtractAudioFeaturesBatch, concurrency=1, dim=8).to_pandas()
    assert all(len(v) == 8 for v in aud["audio_embedding"])

    vid = decode_stage(ds, SampleFramesBatch, concurrency=1, n_frames=4).to_pandas()
    assert all(len(f) == 4 for f in vid["frames"])


def test_gif_codec_roundtrip():
    """Stdlib GIF codec: real LZW round-trip (random frames grow the
    code table past 9 bits; constant frames grow maximal chains;
    structured frames exercise long runs)."""
    from logray.functions.gif import decode_gif, encode_gif

    rng = np.random.default_rng(0)
    cases = [
        [rng.integers(0, 256, (64, 80), dtype=np.uint8) for _ in range(3)],
        [np.tile(np.arange(16, dtype=np.uint8).repeat(5), (40, 1))],
        [np.full((30, 30), 7, np.uint8)],
    ]
    for frames in cases:
        out = decode_gif(encode_gif(frames))
        assert len(out) == len(frames)
        for f, o in zip(frames, out):
            assert o.shape == (*f.shape, 3)
            assert (o == f[:, :, None]).all()  # gray palette: all channels
    with pytest.raises(ValueError, match="GIF"):
        decode_gif(b"NOTAGIF" + bytes(64))


def test_sample_frames_real_gif_path(ray_session):
    """SampleFramesBatch(fake=False) samples REAL decoded frames from a
    GIF payload in-container: evenly spaced, PNG-encoded, pixel-exact."""
    import ray.data as rd

    from logray.functions.gif import decode_gif
    from logray.functions.multimodal import (SampleFramesBatch, decode_stage,
                                             synth_gif_bytes)
    from logray.functions.png import decode_png

    payload = synth_gif_bytes(40, 30, n_frames=7, seed=3)
    t = pa.table({
        "media_id": pa.array([1], pa.int64()),
        "mime": pa.array(["image/gif"]),
        "payload": pa.array([payload], pa.binary()),
        "nbytes": pa.array([len(payload)], pa.int64()),
    })
    out = decode_stage(rd.from_arrow(t), SampleFramesBatch, concurrency=1,
                       fake=False, n_frames=3).to_pandas()
    frames = out["frames"].iloc[0]
    assert len(frames) == 3
    truth = decode_gif(payload)  # 7 frames; samples at 0, 3, 6
    for png_bytes, k in zip(frames, [0, 3, 6]):
        img = decode_png(png_bytes)
        assert img.shape == (30, 40, 3)
        assert (img == truth[k]).all()


def test_multimodal_real_paths_guarded():
    """fake=False either activates a real decoder (library present) or
    fails fast with a clear error — never silently fakes."""
    t = synth_media_table(n=2)
    try:
        import PIL  # noqa: F401

        have_pil = True
    except ImportError:
        have_pil = False
    if not have_pil:
        # without Pillow the stdlib PNG codec is the real path: non-PNG
        # payloads must fail fast (never silently fake), PNG must decode
        with pytest.raises(Exception, match="PNG"):
            DecodeImageBatch(fake=False)(t)
    try:
        import av  # noqa: F401

        have_av = True
    except ImportError:
        have_av = False
    if not have_av:
        # without PyAV the stdlib GIF codec is the real path: non-GIF
        # payloads must fail fast (never silently fake), GIF must decode
        with pytest.raises(ValueError, match="GIF"):
            SampleFramesBatch(fake=False)(t)
    # audio: random bytes are not a WAV container, and without soundfile
    # the non-WAV branch must raise rather than fake
    try:
        import soundfile  # noqa: F401
    except ImportError:
        with pytest.raises(Exception):
            ExtractAudioFeaturesBatch(fake=False)(t)


def test_multimodal_real_audio_wav_stdlib():
    """The REAL audio path decodes an actual WAV payload via the stdlib
    wave module: exact sample rate and duration, features over decoded
    samples (not raw container bytes)."""
    from logray.functions.multimodal import synth_wav_bytes

    wav = synth_wav_bytes(seconds=0.5, rate=8000, freq=220.0)
    t = pa.table(
        {
            "media_id": pa.array([0], pa.int64()),
            "mime": ["audio/wav"],
            "payload": pa.array([wav], pa.binary()),
            "nbytes": pa.array([len(wav)], pa.int64()),
        }
    )
    out = ExtractAudioFeaturesBatch(fake=False, dim=8)(t)
    assert out["sample_rate"][0].as_py() == 8000
    assert out["duration_s"][0].as_py() == pytest.approx(0.5, abs=1e-6)
    emb = np.array(out["audio_embedding"][0].as_py())
    # a pure sine: mean ~0, std ~ amplitude/sqrt(2) in normalized units
    assert abs(emb[0]) < 0.01
    assert 0.3 < emb[1] < 0.6


def test_multimodal_real_image_if_pillow_available():
    PIL = pytest.importorskip("PIL")
    from PIL import Image

    import io as _io

    img = Image.new("RGB", (100, 40), (10, 200, 30))
    buf = _io.BytesIO()
    img.save(buf, format="PNG")
    t = pa.table(
        {
            "media_id": pa.array([0], pa.int64()),
            "mime": ["image/png"],
            "payload": pa.array([buf.getvalue()], pa.binary()),
            "nbytes": pa.array([buf.tell()], pa.int64()),
        }
    )
    out = DecodeImageBatch(fake=False)(t)
    assert out["width"][0].as_py() == 100
    assert out["height"][0].as_py() == 40
    assert out["channels"][0].as_py() == 3


def test_multimodal_determinism():
    a = synth_media_table(n=4, seed=7)
    b = synth_media_table(n=4, seed=7)
    assert a.equals(b)
    ia = DecodeImageBatch()(a)
    ib = DecodeImageBatch()(b)
    assert ia.equals(ib)


def test_connected_components_and_keep_min(ray_session):
    import ray.data as rd

    from logray.functions.dedup import connected_components, dedup_keep_min

    pairs = rd.from_arrow(
        pa.table({"id_a": pa.array([1, 2, 5, 9], pa.int64()),
                  "id_b": pa.array([2, 3, 6, 1], pa.int64())})
    )
    comp = connected_components(pairs)
    got = dict(zip(comp["doc_id"], comp["component"]))
    # {1,2,3,9} cluster to 1; {5,6} cluster to 5
    assert got == {1: 1, 2: 1, 3: 1, 9: 1, 5: 5, 6: 5}

    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(10), pa.int64()),
                  "text": [f"d{i}" for i in range(10)]})
    )
    kept = sorted(r["doc_id"] for r in dedup_keep_min(docs, pairs).take_all())
    assert kept == [0, 1, 4, 5, 7, 8]  # dropped 2,3,9 (cluster 1) and 6 (cluster 5)


def test_full_near_dedup_pipeline(doc_ds):
    """minhash pairs -> components -> keep-min over the documents fixture."""
    from logray.functions.dedup import dedup_keep_min, minhash_lsh_dedup

    pairs = minhash_lsh_dedup(doc_ds, num_perm=64, bands=16, k=4, threshold=0.5)
    kept = sorted(r["doc_id"] for r in dedup_keep_min(doc_ds, pairs).take_all())
    # exact triplet {0,1,4} collapses to 0; near-dup 2 may or may not join it
    assert 0 in kept and 1 not in kept and 4 not in kept
    assert 3 in kept and 5 in kept


def test_ann_ivf_recall(emb_ds):
    from logray.functions.ann import ann_ivf_topk

    ds, m = emb_ds
    q = m[42]
    res = ann_ivf_topk(ds, {"query_id": [0], "matrix": q[None, :]}, k=5,
                       n_lists=8, nprobe=3)
    # the identical vector lives in the query's own nearest list
    assert res.iloc[0]["vec_id"] == 42
    assert res.iloc[0]["cosine"] == pytest.approx(1.0, abs=1e-9)
    # probing all lists == exact brute force
    res_all = ann_ivf_topk(ds, {"query_id": [0], "matrix": q[None, :]}, k=5,
                           n_lists=8, nprobe=8)
    assert set(res_all["vec_id"]) == _brute_truth(m, q, 5)


def test_connected_components_distributed_matches_driver(ray_session):
    import ray.data as rd

    from logray.functions.dedup import (
        connected_components,
        connected_components_distributed,
    )

    # a path graph (diameter 5) plus a separate pair and a star
    pairs = rd.from_arrow(
        pa.table(
            {
                "id_a": pa.array([1, 2, 3, 4, 5, 20, 30, 30], pa.int64()),
                "id_b": pa.array([2, 3, 4, 5, 6, 21, 31, 32], pa.int64()),
            }
        )
    )
    want = connected_components(pairs)
    got = (
        connected_components_distributed(pairs)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got["doc_id"].tolist() == want["doc_id"].tolist()
    assert got["component"].tolist() == want["component"].tolist()


def test_cc_distributed_chain_pointer_doubling(ray_session):
    """A 10-node chain (diameter 9) must fully converge with pointer
    doubling in far fewer rounds than the diameter — and exiting
    max_rounds without a fixpoint must raise, never silently split."""
    import ray.data as rd

    from logray.functions.dedup import connected_components_distributed

    pairs = rd.from_arrow(
        pa.table({"id_a": pa.array(list(range(9)), pa.int64()),
                  "id_b": pa.array(list(range(1, 10)), pa.int64())})
    )
    got = (
        connected_components_distributed(pairs, max_rounds=5)
        .to_pandas()
        .sort_values("doc_id")
    )
    assert got["component"].tolist() == [0] * 10

    with pytest.raises(RuntimeError, match="fixpoint"):
        connected_components_distributed(pairs, max_rounds=1)


def test_pairs_from_bucket_vectorized_matches_naive(ray_session):
    import ray.data as rd

    from logray.functions.dedup import DEFAULT_MAX_BUCKET, _band_pairs

    rng = np.random.default_rng(7)
    num_perm = 16
    n = 300
    # low-cardinality slots so plenty of partial agreement
    sigs = rng.integers(0, 4, size=(n, num_perm)).astype(np.uint64)
    ids = rng.permutation(n).astype(np.int64)

    # one (band_hash, band_id) run: the per-run driver on the MinHash scorer
    out = _band_pairs(rd.from_arrow(pa.table({
        "band_id": np.zeros(n, np.int32), "band_hash": np.zeros(n, np.int64),
        "doc_id": ids, "sig": list(sigs)})), "doc_id", 0.7, num_perm,
        DEFAULT_MAX_BUCKET, chunk=37).to_pandas()
    a, b, s = (out[c].to_numpy() for c in ("id_a", "id_b", "est_jaccard"))

    order = np.argsort(ids, kind="stable")
    sids, ssigs = ids[order], sigs[order]
    want = set()
    for i in range(n - 1):
        for j in range(i + 1, n):
            agree = (ssigs[i] == ssigs[j]).sum() / num_perm
            if agree >= 0.7 and sids[i] != sids[j]:
                want.add((int(sids[i]), int(sids[j]), round(float(agree), 9)))
    got = {(int(x), int(y), round(float(z), 9)) for x, y, z in zip(a, b, s)}
    assert got == want and len(got) > 0


def test_lsh_hot_bucket_cap(ray_session, caplog):
    """An adversarial single-bucket corpus (identical boilerplate docs) is
    capped: pair count is C(cap,2) over the cap smallest ids, not C(n,2),
    and the run completes in bounded time."""
    import ray.data as rd

    from logray.functions.dedup import minhash_lsh_dedup, simhash_dedup

    n = 3000
    docs = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(n), pa.int64()),
                  "text": ["same boilerplate text repeated everywhere"] * n})
    )
    pairs = minhash_lsh_dedup(docs, num_perm=16, bands=4, k=4,
                              threshold=0.5, max_bucket=50).to_pandas()
    assert len(pairs) == 50 * 49 // 2
    assert int(pairs[["id_a", "id_b"]].to_numpy().max()) == 49

    spairs = simhash_dedup(docs, max_hamming=3, max_bucket=50).to_pandas()
    assert len(spairs) == 50 * 49 // 2
    assert int(spairs[["id_a", "id_b"]].to_numpy().max()) == 49


def test_simhash_bucket_pairs_vectorized_matches_naive(ray_session):
    """Block-vectorized simhash pair emission == per-row reference."""
    import ray.data as rd

    from logray.functions.dedup import simhash_dedup
    from logray.functions.fingerprint import hamming64, simhash as _sh

    rng = np.random.default_rng(3)
    base = "the quick brown fox jumps over the lazy dog again and again"
    texts = []
    for i in range(60):
        s = list(base)
        for _ in range(int(rng.integers(0, 6))):
            s[int(rng.integers(0, len(s)))] = chr(97 + int(rng.integers(0, 26)))
        texts.append("".join(s))
    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(60), pa.int64()), "text": texts})
    )
    got = simhash_dedup(ds, max_hamming=6).to_pandas()
    gotset = {(int(a), int(b)) for a, b in zip(got["id_a"], got["id_b"])}

    hs = _sh(pa.array(texts))
    # naive: bucket by each 16-bit chunk, pair if hamming<=6 and share a chunk
    want = set()
    for i in range(60):
        for j in range(i + 1, 60):
            share = any(
                ((int(hs[i]) >> (16 * c)) & 0xFFFF) == ((int(hs[j]) >> (16 * c)) & 0xFFFF)
                for c in range(4)
            )
            d = int(hamming64(np.array([hs[i]]), np.array([hs[j]]))[0])
            if share and d <= 6:
                want.add((i, j))
    assert gotset == want


def test_sample_uniform_deterministic_and_partition_independent(ray_session):
    import ray.data as rd

    from logray.functions.sample import sample_uniform

    t = pa.table({"id": pa.array(range(5000), pa.int64())})
    ds = rd.from_arrow(t)
    a = sorted(r["id"] for r in sample_uniform(ds, 0.2, "id", seed=9).take_all())
    b = sorted(
        r["id"]
        for r in sample_uniform(rd.from_arrow(t).repartition(7), 0.2, "id", seed=9).take_all()
    )
    assert a == b  # membership is a pure function of (id, seed)
    assert 0.15 < len(a) / 5000 < 0.25
    c = sorted(r["id"] for r in sample_uniform(ds, 0.2, "id", seed=10).take_all())
    assert a != c  # seed changes the draw


def test_reservoir_per_key_bottom_k(ray_session):
    import ray.data as rd

    from logray.functions.sample import _det_hash, reservoir_per_key

    n_rows = 2000
    t = pa.table(
        {
            "key": pa.array([f"k{i % 5}" for i in range(n_rows)]),
            "id": pa.array(range(n_rows), pa.int64()),
        }
    )
    out = reservoir_per_key(
        rd.from_arrow(t).repartition(6), "key", 7, "id", seed=3
    ).to_pandas()
    assert (out.groupby("key").size() == 7).all()
    # equals the naive global bottom-k per key
    df = t.to_pandas()
    df["__h"] = _det_hash(df["id"].to_numpy(), 3)
    want = (
        df.sort_values(["__h", "id"]).groupby("key", sort=False).head(7)
    )
    wset = set(map(tuple, want[["key", "id"]].to_numpy()))
    gset = set(map(tuple, out[["key", "id"]].to_numpy()))
    assert gset == wset


def test_near_dedup_resumable_crash_and_resume(ray_session, tmp_path):
    """The resumable near-dedup closure survives a mid-phase crash: on
    restart, completed partitions of every phase are skipped and the final
    output equals the single-shot dedup."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from logray.functions.dedup import dedup_keep_min, minhash_lsh_dedup
    from logray.functions.dedup_resumable import near_dedup_resumable
    from logray.state.manifest import RunManifest

    # 3 input files with duplicates within and ACROSS files
    base = [
        "the quick brown fox jumps over the lazy dog",
        "pack my box with five dozen liquor jugs",
        "how vexingly quick daft zebras jump today",
        "sphinx of black quartz judge my vow please",
    ]
    src = tmp_path / "docs"
    src.mkdir()
    did = 0
    for f in range(3):
        rows = []
        for i in range(40):
            rows.append(base[(did + i) % 4] + (f" tail{i % 7}" if i % 5 else ""))
        pq.write_table(
            pa.table({"doc_id": pa.array(range(did, did + 40), pa.int64()),
                      "text": rows}),
            str(src / f"docs-{f}.parquet"),
        )
        did += 40

    out = tmp_path / "dedup_out"
    calls = []

    def fault(phase, pid):
        calls.append((phase, pid))
        if phase == "pairs" and pid == "band002" and not getattr(fault, "armed", False):
            fault.armed = True
            raise RuntimeError("injected crash")

    kw = dict(num_perm=32, bands=8, k=4, threshold=0.6, seed=1)
    with pytest.raises(RuntimeError, match="injected crash"):
        near_dedup_resumable(str(src), str(out), _fault=fault, **kw)

    # bands phase fully committed, pairs phase partially
    assert len(RunManifest(str(out / "bands")).entries()) == 3
    done_pairs = set(RunManifest(str(out / "pairs")).entries())
    assert {"band000", "band001"} <= done_pairs and "band002" not in done_pairs

    calls.clear()
    metrics = near_dedup_resumable(str(src), str(out), _fault=fault, **kw)
    # no bands partition re-ran; only the crashed band onward
    assert not [c for c in calls if c[0] == "bands"]
    assert ("pairs", "band002") in calls and ("pairs", "band001") not in calls

    import glob as _glob

    out_files = sorted(_glob.glob(str(out / "deduped" / "parts" / "*" / "*.parquet")))
    kept = sorted(r["doc_id"] for r in rd.read_parquet(out_files).take_all())

    # single-shot reference
    docs = rd.read_parquet(str(src))
    pairs = minhash_lsh_dedup(docs, **kw)
    want = sorted(r["doc_id"] for r in dedup_keep_min(docs, pairs).take_all())
    assert kept == want
    assert metrics["rows"] == len(want)
    assert metrics["dropped"] == 120 - len(want)


def _span_line_corpus(tmp_path, name: str):
    """3 parquet files with word/byte/line duplication within and across
    files, plus null/empty/short edge docs."""
    import pyarrow.parquet as pq

    boiler = "alpha beta gamma delta epsilon zeta eta theta"
    lines = ["cookie banner accept all", "copyright footer 2026 corp",
             "unique line %d stays put"]
    src = tmp_path / name
    src.mkdir()
    did = 0
    rng = np.random.default_rng(11)
    for f in range(3):
        rows, ids = [], []
        for i in range(40):
            body = " ".join(f"w{v}" for v in rng.integers(0, 30, 12))
            parts = [body]
            if i % 3 == 0:
                parts.append(boiler)
            parts.append(lines[i % 3] % did if "%d" in lines[i % 3]
                         else lines[i % 3])
            rows.append("\n".join(parts))
            ids.append(did)
            did += 1
        if f == 0:
            rows[0], rows[1] = None, ""
        pq.write_table(
            pa.table({"doc_id": pa.array(ids, pa.int64()),
                      "text": pa.array(rows, pa.string())}),
            str(src / f"docs-{f}.parquet"))
    return src


@pytest.mark.parametrize("level,window", [("word", 4), ("byte", 18)])
def test_dedup_spans_resumable_crash_and_resume(ray_session, tmp_path,
                                                level, window):
    """Span dedup survives a crash in EVERY phase (census, dups, cut):
    finished partitions are skipped on restart and the final output is
    exactly equal to the single-shot operator."""
    import glob as _glob

    import ray.data as rd

    from logray.functions.spandedup import dedup_spans, dedup_spans_bytes
    from logray.functions.spandedup_resumable import dedup_spans_resumable
    from logray.state.manifest import RunManifest

    src = _span_line_corpus(tmp_path, "docs")
    out = tmp_path / "spans_out"
    calls = []
    armed = {"census": True, "dups": True, "cut": True}

    def fault(phase, pid):
        calls.append((phase, pid))
        if armed.get(phase):
            armed[phase] = False
            raise RuntimeError(f"injected {phase} crash")

    kw = dict(window=window, level=level, num_buckets=8)
    for _ in range(3):  # one crash per phase
        with pytest.raises(RuntimeError, match="injected"):
            dedup_spans_resumable(str(src), str(out), _fault=fault, **kw)
    # census crashed on partition 1 -> nothing re-ran for partition 0
    census_done = RunManifest(str(out / "census")).entries()
    assert len(census_done) == 3
    calls.clear()
    metrics = dedup_spans_resumable(str(src), str(out), _fault=fault, **kw)
    assert not [c for c in calls if c[0] == "census"]  # all skipped

    files = sorted(_glob.glob(str(out / "cut" / "parts" / "*" / "*.parquet")))
    got = rd.read_parquet(files).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    single = dedup_spans if level == "word" else dedup_spans_bytes
    want = single(rd.read_parquet(str(src)), window=window, num_buckets=8) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    assert metrics["rows"] == len(want)
    assert metrics["dup_grams"] > 0


def test_dedup_lines_resumable_crash_and_resume(ray_session, tmp_path):
    """Line dedup survives a crash in every phase; the shuffle-free
    rebuild's output is exactly equal to single-shot dedup_lines."""
    import glob as _glob

    import ray.data as rd

    from logray.functions.linededup import dedup_lines
    from logray.functions.linededup_resumable import dedup_lines_resumable
    from logray.state.manifest import RunManifest

    src = _span_line_corpus(tmp_path, "docs_lines")
    out = tmp_path / "lines_out"
    calls = []
    armed = {"cand": True, "losers": True, "rebuild": True}

    def fault(phase, pid):
        calls.append((phase, pid))
        if armed.get(phase):
            armed[phase] = False
            raise RuntimeError(f"injected {phase} crash")

    kw = dict(min_len=5, num_buckets=8)
    for _ in range(3):
        with pytest.raises(RuntimeError, match="injected"):
            dedup_lines_resumable(str(src), str(out), _fault=fault, **kw)
    assert len(RunManifest(str(out / "cand")).entries()) == 3
    calls.clear()
    metrics = dedup_lines_resumable(str(src), str(out), _fault=fault, **kw)
    assert not [c for c in calls if c[0] in ("cand", "losers")]

    files = sorted(_glob.glob(
        str(out / "deduped" / "parts" / "*" / "*.parquet")))
    got = rd.read_parquet(files).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    want = dedup_lines(rd.read_parquet(str(src)), min_len=5, num_buckets=8) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want)
    assert metrics["rows"] == len(want)
    # cross-file boilerplate really deduplicated: each repeated line
    # survives in exactly one document
    joined = "\n".join(got["text"])
    assert joined.count("cookie banner accept all") == 1
    assert joined.count("copyright footer 2026 corp") == 1


def test_hashed_ngram_features_row_isolation():
    from logray.functions.modelscore import hashed_ngram_features

    f = hashed_ngram_features(pa.array(["abcdef", "", "abcdef", "xyz"]), dim=64)
    assert f.shape == (4, 64)
    assert np.allclose(f[0], f[2])  # same text, same features
    assert np.allclose(f[1], 0.0)  # empty row: zero vector (normalized guard)
    assert not np.allclose(f[0], f[3])
    # unit norm for non-empty rows
    assert np.linalg.norm(f[0]) == pytest.approx(1.0, abs=1e-5)


def test_model_score_stage_loads_once_per_actor(ray_session, tmp_path):
    import glob as _glob
    import os
    import uuid

    import ray.data as rd

    from logray.functions.modelscore import default_linear_probe, model_score_stage

    marker_dir = str(tmp_path / "loads")
    os.makedirs(marker_dir)

    def loader(md=marker_dir):
        # one marker file per model construction
        open(os.path.join(md, uuid.uuid4().hex), "w").write("x")
        return default_linear_probe()

    t = pa.table({"doc_id": pa.array(range(512), pa.int64()),
                  "text": [f"document number {i} with content" for i in range(512)]})
    out = model_score_stage(
        rd.from_arrow(t).repartition(8), loader=loader,
        concurrency=1, batch_size=64,
    ).to_pandas()
    assert len(out) == 512
    assert out["model_score"].between(0, 1).all()
    # 8 blocks / batches of 64 -> many batches, but the model loaded ONCE
    assert len(_glob.glob(os.path.join(marker_dir, "*"))) == 1
    # determinism
    out2 = model_score_stage(
        rd.from_arrow(t), concurrency=1, batch_size=None
    ).to_pandas()
    m1 = dict(zip(out["doc_id"], out["model_score"]))
    m2 = dict(zip(out2["doc_id"], out2["model_score"]))
    assert all(abs(m1[k] - m2[k]) < 1e-6 for k in m1)


def test_hll_accuracy_and_merge_determinism(ray_session):
    import ray.data as rd

    from logray.functions.sketch import (
        approx_distinct,
        hll_estimate,
        hll_merge,
        hll_registers,
    )

    # accuracy: p=14 -> ~0.8% expected error; allow 3%
    vals = pa.array(np.arange(100_000, dtype=np.int64))
    est = hll_estimate(hll_registers(vals, p=14))
    assert abs(est - 100_000) / 100_000 < 0.03

    # duplicates don't inflate
    dup = pa.array(np.repeat(np.arange(1000, dtype=np.int64), 50))
    est_dup = hll_estimate(hll_registers(dup, p=14))
    assert abs(est_dup - 1000) / 1000 < 0.05

    # merge of split halves == whole (deterministic, partition-independent)
    a = hll_registers(pa.array(np.arange(0, 50_000, dtype=np.int64)), p=12)
    b = hll_registers(pa.array(np.arange(25_000, 100_000, dtype=np.int64)), p=12)
    whole = hll_registers(pa.array(np.arange(100_000, dtype=np.int64)), p=12)
    assert (hll_merge(a, b) == whole).all()

    # end-to-end over a Dataset, any partitioning
    t = pa.table({"k": pa.array(np.arange(20_000, dtype=np.int64) % 7919)})
    e1 = approx_distinct(rd.from_arrow(t), "k")
    e2 = approx_distinct(rd.from_arrow(t).repartition(13), "k")
    assert e1 == e2
    assert abs(e1 - 7919) / 7919 < 0.03

    # string columns
    ts = pa.table({"s": [f"doc-{i}" for i in range(5000)]})
    es = approx_distinct(rd.from_arrow(ts), "s", p=14)
    assert abs(es - 5000) / 5000 < 0.05


def test_exact_quantiles_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.aggregate import exact_quantiles

    rng = np.random.default_rng(11)
    vals = np.round(rng.standard_normal(10_001) * 100, 2)
    ds = rd.from_arrow(pa.table({"v": pa.array(vals)})).repartition(9)
    qs = [0.0, 0.1, 0.25, 0.5, 0.74, 0.76, 0.9, 1.0]
    got = exact_quantiles(ds, "v", qs)
    con = duckdb.connect()
    con.register("t", pa.table({"v": pa.array(vals)}).to_pandas())
    for q in qs:
        want = con.sql(f"SELECT quantile_disc(v, {q}) FROM t").fetchone()[0]
        assert got[q] == want, (q, got[q], want)


def test_embedding_dedup_multi_table_recall(ray_session):
    """n_tables > 1 can only ADD pairs (union of independent plane sets)
    and finds near-neighbors a single unlucky table misses."""
    import ray.data as rd

    from logray.functions.dedup import embedding_dedup

    rng = np.random.default_rng(17)
    base = rng.standard_normal((40, 24)).astype(np.float32)
    # 40 anchors + a near-dup of each (cosine ~0.99)
    near = base + rng.standard_normal((40, 24)).astype(np.float32) * 0.05
    vecs = np.concatenate([base, near])
    ds = rd.from_arrow(
        pa.table(
            {
                "vec_id": pa.array(range(80), pa.int64()),
                "embedding": pa.array([v.tolist() for v in vecs], pa.list_(pa.float32())),
            }
        )
    )
    one = embedding_dedup(ds, threshold=0.9, n_planes=10, n_tables=1).to_pandas()
    four = embedding_dedup(ds, threshold=0.9, n_planes=10, n_tables=4).to_pandas()
    p1 = {(int(a), int(b)) for a, b in zip(one.id_a, one.id_b)}
    p4 = {(int(a), int(b)) for a, b in zip(four.id_a, four.id_b)}
    assert p1 <= p4  # more tables never lose pairs
    true_pairs = {(i, i + 40) for i in range(40)}
    assert len(p4 & true_pairs) > len(p1 & true_pairs) * 0.99
    # with 4 tables, recall of the planted pairs should be near total
    assert len(p4 & true_pairs) >= 38


def test_clean_text_kernels():
    from logray.functions.textclean import clean_text_table

    t = pa.table({"text": ["  Hello\t\tWorld \n", "a\x00b\x07c", "UPPER  case"]})
    out = clean_text_table(t, lower=True)
    assert out["text"].to_pylist() == ["hello world", "abc", "upper case"]
    out2 = clean_text_table(t, lower=False, collapse_ws=False, strip=False,
                            drop_control=True)
    assert out2["text"].to_pylist()[1] == "abc"


def test_hll_and_quantiles_ignore_nulls(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.sketch import approx_distinct
    from logray.stages.aggregate import exact_quantiles

    t = pa.table(
        {
            "k": pa.array([1, 2, None, 2, 3, None], pa.int64()),
            "v": pa.array([10.0, None, 30.0, 20.0, None, 40.0]),
        }
    )
    ds = rd.from_arrow(t)
    est = approx_distinct(ds, "k", p=12)
    assert est == 3  # linear-counting regime: exact at tiny cardinality

    got = exact_quantiles(ds, "v", [0.5, 1.0])
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    for q in (0.5, 1.0):
        want = con.sql(f"SELECT quantile_disc(v, {q}) FROM t").fetchone()[0]
        assert got[q] == want


def test_stratified_split_deterministic(ray_session):
    import ray.data as rd

    from logray.functions.sample import stratified_split

    t = pa.table({"id": pa.array(range(10_000), pa.int64())})
    a = stratified_split(rd.from_arrow(t), {"train": 0.8, "val": 0.1, "test": 0.1},
                         "id", seed=4).to_pandas()
    b = stratified_split(rd.from_arrow(t).repartition(9),
                         {"train": 0.8, "val": 0.1, "test": 0.1}, "id", seed=4).to_pandas()
    ma = dict(zip(a["id"], a["split"]))
    mb = dict(zip(b["id"], b["split"]))
    assert ma == mb  # partition-independent
    frac = a["split"].value_counts(normalize=True)
    assert abs(frac["train"] - 0.8) < 0.02
    assert abs(frac["val"] - 0.1) < 0.01
    assert abs(frac["test"] - 0.1) < 0.01


def test_chunk_documents_matches_naive_and_unicode(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.chunking import chunk_documents, chunk_documents_sql

    texts = [
        "a" * 25,                      # 3 chunks at chunk=10, overlap=2
        "short",                       # 1 chunk
        "",                            # empty doc -> one empty chunk
        "é¢漢" * 10,                   # multi-byte codepoints, 30 chars
        "x" * 16,                      # exact multiple boundary
    ]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()), "text": texts})
    got = (
        chunk_documents(rd.from_arrow(t), chunk_chars=10, overlap_chars=2)
        .to_pandas()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )

    # naive python reference with the same contract
    want_rows = []
    step = 8
    for did, s in enumerate(texts):
        L = len(s)
        n = max(-(-(L - 2) // step), 1)
        for i in range(n):
            want_rows.append((did, i, s[i * step : i * step + 10]))
    assert list(map(tuple, got[["doc_id", "chunk_idx", "chunk_text"]].to_numpy())) == want_rows

    # and the SQL twin agrees
    con = duckdb.connect()
    con.register("docs", t.to_pandas())
    want = (
        con.sql(chunk_documents_sql("docs", chunk_chars=10, overlap_chars=2))
        .df()
        .sort_values(["doc_id", "chunk_idx"])
        .reset_index(drop=True)
    )
    assert got["chunk_text"].tolist() == want["chunk_text"].tolist()
    assert got["chunk_idx"].tolist() == want["chunk_idx"].tolist()


def test_ann_lsh_empty_candidate_blocks(emb_ds):
    # Regression: a reduce task whose input blocks are ALL empty candidate
    # frames used to KeyError on 'query_id' inside _reduced_topk.partial.
    ds, m = emb_ds
    ds = ds.repartition(16)
    q = m[42]
    res = ann_lsh_topk(ds, {"query_id": [0], "matrix": q[None, :]}, k=5,
                       n_planes=6, probes=1, batch_size=8)
    # must not crash; identical vector still shares the query's bucket
    assert res.iloc[0]["vec_id"] == 42

    # probes=0 with many planes: most batches emit nothing at all
    res0 = ann_lsh_topk(ds, {"query_id": [0], "matrix": q[None, :]}, k=5,
                        n_planes=10, probes=0, batch_size=8)
    assert list(res0.columns) == ["query_id", "vec_id", "cosine", "rank"]


def test_ann_ivf_negative_ids_fallback(ray_session):
    # Regression: negative integer ids used to crash sample_uniform's
    # _det_hash inside the quantizer-sample map task; must fall back to
    # the plain limit() training path instead.
    import ray.data as rd

    from logray.functions.ann import ann_ivf_topk

    rng = np.random.default_rng(5)
    m = rng.standard_normal((120, 8)).astype(np.float32)
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array([i - 60 for i in range(120)], pa.int64()),
        "embedding": pa.array([v.tolist() for v in m], pa.list_(pa.float32())),
    }))
    q = m[30]
    res = ann_ivf_topk(ds, {"query_id": [0], "matrix": q[None, :]}, k=3,
                       n_lists=4, nprobe=4, train_sample=64)
    assert res.iloc[0]["vec_id"] == 30 - 60


def test_ann_ivf_quantizer_sample_is_deterministic(ray_session):
    """The quantizer trains on the same rows in the same order whatever
    the block layout, so repeated ``ann_ivf_topk`` calls answer alike
    (the first ``train_sample`` sampled rows in execution order seeded
    the k-means by position, and the probed lists followed block
    order)."""
    import hashlib

    import ray.data as rd

    from logray.functions.ann import _quantizer_sample, ann_ivf_topk
    from logray.functions.sample import _det_hash

    rng = np.random.default_rng(8)
    m = rng.standard_normal((400, 8)).astype(np.float32)
    ids = np.arange(400, dtype=np.int64)
    t = pa.table({"vec_id": pa.array(ids),
                  "embedding": pa.array([v.tolist() for v in m],
                                        pa.list_(pa.float32()))})
    want = m[np.lexsort((ids, _det_hash(ids, 11)))[:64]].astype(np.float64)
    for parts in (1, 3, 7):
        got = _quantizer_sample(rd.from_arrow(t).repartition(parts),
                                "embedding", "vec_id", 64, 11)
        np.testing.assert_array_equal(got, want)

    q = {"query_id": [0, 1], "matrix": m[[5, 250]]}
    digests = set()
    for parts in (4, 4, 6):
        res = ann_ivf_topk(rd.from_arrow(t).repartition(parts), q, k=5,
                           n_lists=8, nprobe=2, train_sample=64)
        res = res.sort_values(["query_id", "vec_id"]).reset_index(drop=True)
        digests.add(hashlib.sha256(res.to_csv().encode()).hexdigest())
    assert len(digests) == 1


def test_chunk_documents_null_text_dropped(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.chunking import chunk_documents, chunk_documents_sql

    t = pa.table({
        "doc_id": pa.array([0, 1, 2], pa.int64()),
        "text": pa.array(["hello world stuff", None, "ok"], pa.string()),
    })
    got = (
        chunk_documents(rd.from_arrow(t), chunk_chars=10, overlap_chars=2)
        .to_pandas().sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
    )
    assert 1 not in set(got["doc_id"])  # null-text doc emits no chunks
    con = duckdb.connect()
    con.register("docs", t.to_pandas())
    want = con.sql(chunk_documents_sql("docs", chunk_chars=10, overlap_chars=2)).df()
    assert len(got) == len(want)


def test_exact_quantiles_never_materializes_or_sorts():
    # Round-2 regression guard: the operator used to ds.sort().materialize()
    # the FULL dataset (pins 100 TB in the object store); the bisection
    # rewrite must stay sort-free and materialize-free.
    import inspect

    from logray.stages.aggregate import _select, exact_quantiles

    for fn in (exact_quantiles, _select):
        src = inspect.getsource(fn)
        assert ".materialize(" not in src
        # np.sort per batch is fine; a Dataset-level sort shuffle is not
        assert "ds.sort(" not in src and "Dataset.sort" not in src


def test_exact_quantiles_duplicates_and_budget(ray_session):
    import duckdb
    import ray.data as rd

    from logray.stages.aggregate import exact_quantiles

    rng = np.random.default_rng(11)
    v = rng.integers(0, 40, 50000).astype(np.int64)
    t = pa.table({"x": pa.array([int(x) for x in v] + [None] * 100, pa.int64())})
    ds = rd.from_arrow(t).repartition(8)
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    # a budget far below any single value's duplicate run forces the
    # single-duplicated-value proof path; results must stay exact ints
    got = exact_quantiles(ds, "x", [0.0, 0.5, 0.97, 1.0], max_bracket_rows=300)
    for q in [0.0, 0.5, 0.97, 1.0]:
        want = con.sql(f"select quantile_disc(x,{q}) from t").fetchone()[0]
        assert got[q] == want and isinstance(got[q], int), (q, got[q], want)


def test_exact_quantiles_constant_column(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"x": pa.array([7] * 3000, pa.int64())})).repartition(4)
    from logray.stages.aggregate import exact_quantiles

    assert exact_quantiles(ds, "x", [0.0, 0.5, 1.0], max_bracket_rows=50) == {
        0.0: 7, 0.5: 7, 1.0: 7}


def test_exact_quantiles_dominant_int64_key(ray_session):
    """A hot int64 key above 2**53 (where float64 pivots cannot step below
    it) resolves exactly under a budget far below its run, through both
    entry points, as Python ints."""
    import math

    import ray.data as rd

    from logray.stages.aggregate import exact_quantiles, kth_smallest

    base = 2**60
    v = np.concatenate([np.full(2000, base + 7, np.int64),
                        base + np.arange(300, dtype=np.int64)])
    np.random.default_rng(4).shuffle(v)
    ds = rd.from_arrow(pa.table({"x": pa.array(v)})).repartition(4)
    srt = np.sort(v)
    qs = [0.1, 0.5, 0.99]
    got = exact_quantiles(ds, "x", qs, max_bracket_rows=100)
    for q in qs:
        want = int(srt[math.ceil(q * len(v)) - 1])
        assert got[q] == want and type(got[q]) is int, (q, got[q], want)
    for k in (10, 1000, 2250):
        got_k = kth_smallest(ds, "x", k)
        assert got_k == int(srt[k]) and type(got_k) is int, (k, got_k)


def test_exact_quantiles_nan_tail(ray_session):
    """NaN sorts last and counts toward n at every budget: a rank inside
    the NaN tail is NaN, finite ranks are the NaN-last np.sort element."""
    import math

    import ray.data as rd

    from logray.stages.aggregate import exact_quantiles

    rng = np.random.default_rng(3)
    v = np.round(rng.standard_normal(3000), 3)
    v[rng.choice(3000, 541, replace=False)] = np.nan
    ds = rd.from_arrow(pa.table({"v": pa.array(v)})).repartition(4)
    qs = [0.1, 0.5, 0.8, 0.9, 1.0]
    got = exact_quantiles(ds, "v", qs, max_bracket_rows=100)
    srt = np.sort(v)
    for q in qs:
        want = srt[math.ceil(q * len(v)) - 1]
        assert got[q] == want or (math.isnan(got[q]) and math.isnan(want)), (q, got[q])
    assert [got[q] for q in qs[:3]] == [-1.137, 0.322, 1.979]
    assert math.isnan(got[0.9]) and math.isnan(got[1.0])


def test_selector_pass_count(ray_session, monkeypatch):
    """Streaming passes (one iter_batches each) stay few under a small
    bracket budget, and kth_smallest takes no pass beyond exact_quantiles
    for the same rank (no NaN pre-pass of its own)."""
    import ray.data as rd

    from logray.stages import aggregate

    v = np.random.default_rng(0).standard_normal(200_000)
    ds = rd.from_arrow(pa.table({"v": pa.array(v)})).repartition(4)
    passes = [0]
    iter_batches = rd.Dataset.iter_batches

    def counting(self, *a, **k):
        passes[0] += 1
        return iter_batches(self, *a, **k)

    select = aggregate._select
    monkeypatch.setattr(rd.Dataset, "iter_batches", counting)
    monkeypatch.setattr(aggregate, "_select", lambda ds, col, ranks, **kw: select(
        ds, col, ranks, **{**kw, "max_bracket_rows": 1000}))

    def count(fn):
        passes[0] = 0
        got = fn()
        return got, passes[0]

    srt = np.sort(v)
    got, eq = count(lambda: aggregate.exact_quantiles(ds, "v", [0.5], max_bracket_rows=1000))
    assert got[0.5] == srt[99_999] and eq <= 6, eq
    # q = 0.5 is rank ceil(0.5 * n) - 1 = 99_999
    got, kth = count(lambda: aggregate.kth_smallest(ds, "v", 99_999))
    assert got == srt[99_999] and kth <= eq, (kth, eq)
    got, kth = count(lambda: aggregate.kth_smallest(ds, "v", 100_000))
    assert got == srt[100_000] and kth <= 6, kth


def test_tdigest_approx_quantiles_dataset(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.sketch import TDigest, approx_quantiles

    rng = np.random.default_rng(8)
    v = np.concatenate([rng.standard_normal(40000) * 10,
                        rng.uniform(50, 60, 10000)])
    vals = [float(x) for x in v] + [None] * 200
    t = pa.table({"x": pa.array(vals, pa.float64())})
    ds = rd.from_arrow(t).repartition(16)
    qs = [0.01, 0.25, 0.5, 0.9, 0.99]
    got = approx_quantiles(ds, "x", qs)
    # rank error of each estimate < 1% (t-digest with delta=200 is ~1e-4)
    for q in qs:
        rank = float((v <= got[q]).mean())
        assert abs(rank - q) < 0.01, (q, got[q], rank)
    # a different partitioning pre-clusters differently, but the
    # rank-error bound holds for every layout
    got2 = approx_quantiles(rd.from_arrow(t).repartition(4), "x", qs)
    for q in qs:
        assert abs(float((v <= got2[q]).mean()) - q) < 0.01, q

    # serialization round trip
    d = TDigest.of(v)
    d2 = TDigest.from_bytes(d.to_bytes())
    assert np.array_equal(d.means, d2.means)
    assert d.vmin == d2.vmin and d.vmax == d2.vmax


def test_png_codec_roundtrip_and_filters():
    import struct
    import zlib

    from logray.functions.png import _SIG, _chunk, decode_png, encode_png, thumbnail

    rng = np.random.default_rng(0)
    for shape in [(5, 7), (16, 16, 3), (9, 3, 4), (1, 1, 1), (32, 48, 2)]:
        a = rng.integers(0, 256, shape, dtype=np.uint8)
        d = decode_png(encode_png(a))
        want = a if a.ndim == 3 else a[:, :, None]
        assert np.array_equal(d, want), shape

    # decode PNGs built by an INDEPENDENT encoder using every filter type
    def build_png(arr, filt_ids):
        h, w, c = arr.shape
        bpp = c
        lines = []
        prior = np.zeros(w * c, np.int64)
        flat = arr.reshape(h, w * c).astype(np.int64)
        for y in range(h):
            f = filt_ids[y % len(filt_ids)]
            rec = flat[y]
            left = np.concatenate([np.zeros(bpp, np.int64), rec[:-bpp]])
            if f == 0:
                out = rec
            elif f == 1:
                out = (rec - left) % 256
            elif f == 2:
                out = (rec - prior) % 256
            elif f == 3:
                out = (rec - (left + prior) // 2) % 256
            else:
                out = np.zeros(w * c, np.int64)
                for x in range(w * c):
                    a_ = rec[x - bpp] if x >= bpp else 0
                    b_ = prior[x]
                    cc = prior[x - bpp] if x >= bpp else 0
                    p = a_ + b_ - cc
                    pa_, pb, pc_ = abs(p - a_), abs(p - b_), abs(p - cc)
                    pred = a_ if (pa_ <= pb and pa_ <= pc_) else (b_ if pb <= pc_ else cc)
                    out[x] = (rec[x] - pred) % 256
            lines.append(bytes([f]) + bytes(out.astype(np.uint8)))
            prior = rec
        color = {1: 0, 2: 4, 3: 2, 4: 6}[c]
        ihdr = struct.pack(">IIBBBBB", w, h, 8, color, 0, 0, 0)
        return (_SIG + _chunk(b"IHDR", ihdr)
                + _chunk(b"IDAT", zlib.compress(b"".join(lines)))
                + _chunk(b"IEND", b""))

    for c in (1, 3, 4):
        a = rng.integers(0, 256, (12, 9, c), dtype=np.uint8)
        for filts in ([1], [2], [3], [4], [0, 1, 2, 3, 4]):
            assert np.array_equal(decode_png(build_png(a, filts)), a), (c, filts)

    t = thumbnail(rng.integers(0, 256, (100, 60, 3), dtype=np.uint8), 32)
    assert max(t.shape[:2]) <= 32


def test_decode_image_real_path_stdlib(ray_session):
    # The REAL image path must work in this container (no Pillow): the
    # stdlib PNG codec decodes actual pixels and re-encodes thumbnails.
    import ray.data as rd

    from logray.functions.multimodal import (
        DecodeImageBatch,
        decode_stage,
        synth_media_table_real,
    )
    from logray.functions.png import decode_png

    media = synth_media_table_real(n=16, seed=7)
    imgs = media.filter(pa.compute.equal(media["mime"], "image/png"))
    out = decode_stage(rd.from_arrow(imgs), DecodeImageBatch, concurrency=1,
                       fake=False).to_pandas()
    assert (out["channels"] == 3).all()
    # dims match what synth_png_bytes generated
    for _, r in out.iterrows():
        i = int(r["media_id"])
        assert r["width"] == 32 + (i % 5) * 8
        assert r["height"] == 24 + (i % 3) * 8
        th = decode_png(r["thumbnail"])  # thumbnails decode as valid PNGs
        assert max(th.shape[:2]) <= 32
        # pinned pixel check: the R channel is an x-gradient, so the
        # thumbnail's left edge is darker than its right edge
        assert th[:, 0, 0].mean() < th[:, -1, 0].mean()


def test_ngram_jaccard_cap_logged(ray_session, caplog):
    import logging

    import ray.data as rd

    from logray.functions.dedup import ngram_jaccard_pairs

    texts = [f"doc body {i} common shared tail" for i in range(12)]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(12), pa.int64()),
        "grp": ["g"] * 12,
        "text": texts,
    }))
    out = ngram_jaccard_pairs(ds, "grp", n=2, max_bucket=5).to_pandas()
    # capped to the 5 smallest ids -> C(5,2)=10 pairs
    assert len(out) == 10
    assert out["id_a"].max() <= 4 and out["id_b"].max() <= 4


def test_ivf_index_persist_and_requery(ray_session, tmp_path):
    import ray.data as rd

    from logray.functions.ann import ann_topk, build_ivf_index, ann_ivf_query

    rng = np.random.default_rng(13)
    # clustered data so IVF recall is meaningful
    centers = rng.standard_normal((4, 10)) * 5
    m = np.concatenate([c + rng.standard_normal((100, 10)) for c in centers])
    ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(range(len(m)), pa.int64()),
        "embedding": pa.array([v.tolist() for v in m], pa.list_(pa.float32())),
    })).repartition(8)
    path = str(tmp_path / "ivf")
    man = build_ivf_index(ds, path, n_lists=4, train_sample=200)
    assert man["n_lists"] == 4 and man["rows"] == 400

    # two query batches reuse the SAME persisted index (no retraining)
    for probe_rows in ([5, 105], [205, 305]):
        q = {"query_id": probe_rows, "matrix": m[probe_rows]}
        res = ann_ivf_query(path, q, k=5, nprobe=2)
        truth = ann_topk(ds, q, k=5)
        for r in probe_rows:
            got = set(res[res.query_id == r]["vec_id"])
            want = set(truth[truth.query_id == r]["vec_id"])
            # self must be found; recall vs brute force high on clustered data
            assert r in got
            assert len(got & want) >= 4, (r, got, want)


def test_near_dedup_string_ids_driver(ray_session):
    import ray.data as rd

    from logray.functions.dedup import (
        connected_components,
        dedup_keep_min,
        minhash_lsh_dedup,
    )

    texts = [
        "aaaa bbbb cccc dddd",
        "aaaa bbbb cccc dddd",
        "aaaa bbbb cccc eeee",
        "totally different document body",
        "aaaa bbbb cccc dddd",
        "another unique document text here",
    ]
    ids = [f"doc-{chr(ord('a') + i)}" for i in range(len(texts))]  # string keys
    ds = rd.from_arrow(pa.table({"doc_id": pa.array(ids, pa.string()),
                                 "text": texts}))
    pairs = minhash_lsh_dedup(ds, num_perm=64, bands=16, k=4, threshold=0.5)
    comp = connected_components(pairs.to_pandas())
    # string components: representative is the lexicographic minimum
    assert set(comp["doc_id"]) >= {"doc-a", "doc-b", "doc-e"}
    assert (comp["component"] == "doc-a").sum() >= 2
    kept = dedup_keep_min(ds, pairs, id_col="doc_id").to_pandas()
    assert "doc-a" in set(kept["doc_id"])
    assert {"doc-b", "doc-e"}.isdisjoint(set(kept["doc_id"]))
    assert {"doc-d", "doc-f"} <= set(kept["doc_id"])


def test_hash_pairs_collision_check(ray_session):
    import ray.data as rd

    from logray.functions.dedup import hash_pairs_to_int64

    pairs = rd.from_arrow(pa.table({
        "id_a": pa.array(["a", "b"], pa.string()),
        "id_b": pa.array(["b", "c"], pa.string()),
    }))
    hp = hash_pairs_to_int64(pairs).to_pandas()
    assert len(hp) == 2
    assert hp["id_a"].dtype == np.int64


def test_heavy_hitters_exact_vs_bruteforce(ray_session):
    """Two-pass MG heavy hitters returns the EXACT frequent-item set +
    counts even when pass-1 must compress (k << distinct), with nulls."""
    import numpy as np
    import ray.data as rd

    from logray.functions.heavyhitters import heavy_hitters

    rng = np.random.default_rng(1)
    vals = (rng.zipf(1.3, 50_000) % 2000).astype(np.int64)
    df = pd.DataFrame({"v": vals.astype(float)})
    df.loc[rng.choice(len(df), 200, replace=False), "v"] = None
    ds = rd.from_pandas(df).repartition(16)
    th = 0.01
    got = heavy_hitters(ds, "v", th, k=220)
    s = df.v.dropna()
    vc = s.value_counts()
    want = vc[vc > len(s) * th].reset_index()
    want.columns = ["v", "cnt"]
    want = want.sort_values(["cnt", "v"], ascending=[False, True]).reset_index(drop=True)
    pd.testing.assert_frame_equal(got.astype({"v": float, "cnt": np.int64}),
                                  want.astype({"v": float, "cnt": np.int64}))


def test_heavy_hitters_guards_and_empty(ray_session):
    import numpy as np
    import pytest
    import ray.data as rd

    from logray.functions.heavyhitters import _mg_compress, heavy_hitters

    ds = rd.from_pandas(pd.DataFrame({"v": np.arange(500)}))
    out = heavy_hitters(ds, "v", 0.5)
    assert out.empty and list(out.columns) == ["v", "cnt"]
    with pytest.raises(ValueError):
        heavy_hitters(ds, "v", 0.0)
    with pytest.raises(ValueError):
        heavy_hitters(ds, "v", 0.01, k=5)  # k < 1/threshold
    # compression keeps every item with count > n/(k+1) (MG guarantee)
    items = np.arange(100)
    counts = np.ones(100, np.int64)
    counts[7] = 500
    it2, c2 = _mg_compress(items, counts, 10)
    assert 7 in it2 and len(it2) <= 10


def test_regexp_extract_matches_duckdb():
    import duckdb

    from logray.functions.textclean import (
        regexp_extract_sql,
        regexp_extract_table,
    )

    rows = ["abc 123 def", "no digits here", "", "42", "x-7.5y",
            "émile 007", "key=val;key2=val2", None, "UPPER lower 99x"]
    pat = r"(?P<word>[a-z]+)[ =](?P<num>[0-9]+)"
    t = pa.table({"s": rows})
    got = regexp_extract_table(t, "s", pat).to_pandas()[["word", "num"]]
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    sql = ", ".join([regexp_extract_sql("s", pat, 1, "word"),
                     regexp_extract_sql("s", pat, 2, "num")])
    want = con.sql(f"SELECT {sql} FROM t").df()
    pd.testing.assert_frame_equal(got, want)


def test_regexp_extract_dataset(ray_session):
    import ray.data as rd

    from logray.functions.textclean import regexp_extract

    ds = rd.from_items([{"s": "go 7"}, {"s": "nope"}])
    out = regexp_extract(ds, "s", r"(?P<n>[0-9]+)").to_pandas()
    vals = out.sort_values("s")["n"].tolist()  # "go 7" < "nope"
    assert vals[0] == "7"
    assert vals[1] is None


def test_tdigest_grouped_quantiles_error_bound(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.sketch import approx_quantiles_grouped

    rng = np.random.default_rng(13)
    n = 60_000
    keys = rng.integers(0, 20, n).astype("int64")
    vals = rng.lognormal(0.0, 1.0, n)
    t = pa.table({"k": keys, "v": vals})
    out = (
        approx_quantiles_grouped(
            rd.from_arrow(t).repartition(8), "k", "v", [0.5, 0.9],
            num_buckets=4,
        )
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", t.to_pandas())
    want = con.sql(
        "SELECT k, quantile_cont(v, 0.5) AS q50, quantile_cont(v, 0.9) AS q90 "
        "FROM t GROUP BY k ORDER BY k"
    ).df()
    assert out["k"].tolist() == want["k"].tolist()
    for c in ("q50", "q90"):
        rel = np.abs(out[c].to_numpy() - want[c].to_numpy()) / want[c].to_numpy()
        assert rel.max() < 0.02, (c, rel.max())


def test_tdigest_grouped_partition_invariant(ray_session):
    import ray.data as rd

    from logray.functions.sketch import approx_quantiles_grouped

    rng = np.random.default_rng(7)
    t = pa.table({"k": rng.integers(0, 5, 5000).astype("int64"),
                  "v": rng.normal(0, 1, 5000)})
    outs = []
    for parts in (2, 9):
        outs.append(
            approx_quantiles_grouped(
                rd.from_arrow(t).repartition(parts), "k", "v", [0.5]
            ).to_pandas().sort_values("k").reset_index(drop=True)
        )
    # both partitionings see identical per-batch partials only when blocks
    # align, so allow sketch-level tolerance, not exact equality
    d = np.abs(outs[0]["q50"].to_numpy() - outs[1]["q50"].to_numpy())
    assert d.max() < 0.05


# ---------------------------------------------------------------------------
# corpus-global line dedup (functions/linededup.py)
# ---------------------------------------------------------------------------


def test_dedup_lines_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.functions.linededup import dedup_lines, dedup_lines_sql

    rng = np.random.default_rng(5)
    boiler = ["COOKIE BANNER", "(c) 2020 Example Corp", "nav | home"]
    docs = []
    for i in range(200):
        lines = []
        for j in range(rng.integers(1, 8)):
            r = rng.random()
            if r < 0.4:
                lines.append(boiler[rng.integers(0, 3)])
            elif r < 0.5:
                lines.append("")  # blank: exempt at min_len=1
            else:
                lines.append(f"unique {i}-{j} {rng.integers(0, 10**6)}")
        docs.append({"doc_id": i, "text": "\n".join(lines)})
    docs.append({"doc_id": 900, "text": None})  # drops (SQL unnest(NULL))
    docs.append({"doc_id": 901, "text": ""})    # one blank line, exempt
    df = pd.DataFrame(docs)

    got = (
        dedup_lines(rd.from_pandas(df).repartition(7), min_len=1, num_buckets=8)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", df)
    want = con.sql(dedup_lines_sql("documents") + " ORDER BY doc_id").df()
    pd.testing.assert_frame_equal(
        got[["doc_id", "text", "n_lines"]], want[["doc_id", "text", "n_lines"]]
    )
    # each boilerplate line survives exactly once across the whole corpus
    kept = [l for t in got["text"] for l in t.split("\n")]
    for b in boiler:
        assert kept.count(b) == 1
    assert 900 not in set(got["doc_id"])
    assert got.loc[got.doc_id == 901, "text"].item() == ""


def test_dedup_lines_keep_first_and_min_len(ray_session):
    import ray.data as rd

    from logray.functions.linededup import dedup_lines

    df = pd.DataFrame(
        {
            "doc_id": [1, 2, 3],
            "text": ["dup\nab\nx", "dup\nab\ny", "dup\nonly mine"],
        }
    )
    # min_len=3 exempts 'ab' and 'x'/'y'; 'dup' (len 3) dedups keep-first
    got = (
        dedup_lines(rd.from_pandas(df), min_len=3, num_buckets=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert got["text"].tolist() == ["dup\nab\nx", "ab\ny", "only mine"]
    assert got["n_lines"].tolist() == [3, 2, 1]


# ---------------------------------------------------------------------------
# domain-mixture resampling (functions/sample.py)
# ---------------------------------------------------------------------------


def test_mixture_sample_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.functions.sample import mixture_sample, mixture_sample_sql

    rng = np.random.default_rng(11)
    n = 5000
    df = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "dom": np.array(["web", "code", "books", "wiki"])[
                rng.integers(0, 4, n)
            ],
        }
    )
    rates = {"web": 0.25, "code": 2.5, "books": 0.0}  # wiki -> default 1.0
    got = (
        mixture_sample(rd.from_pandas(df).repartition(6), rates, "dom", "id",
                       seed=42, default_rate=1.0)
        .to_pandas().sort_values(["id", "copy_idx"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        mixture_sample_sql("t", rates, "dom", "id", seed=42,
                           default_rate=1.0, cols="id, dom")
        + " ORDER BY id, copy_idx"
    ).df()
    pd.testing.assert_frame_equal(got[["id", "dom", "copy_idx"]],
                                  want[["id", "dom", "copy_idx"]])
    # semantics: books fully dropped, wiki kept exactly once,
    # code repeated 2 or 3 times, web thinned to roughly a quarter
    by = got.groupby("dom")["id"].count()
    n_by = df.groupby("dom")["id"].count()
    assert "books" not in by
    assert by["wiki"] == n_by["wiki"]
    assert 2 * n_by["code"] <= by["code"] <= 3 * n_by["code"]
    assert by["web"] < 0.4 * n_by["web"]
    # copies of one row are numbered 1..n
    code_copies = got[got.dom == "code"].groupby("id")["copy_idx"].max()
    assert set(code_copies.unique()) <= {2, 3}


def test_mixture_sample_partition_invariance(ray_session):
    import numpy as np
    import ray.data as rd

    from logray.functions.sample import mixture_sample

    df = pd.DataFrame({"id": np.arange(999, dtype=np.int64), "dom": "x"})
    outs = [
        mixture_sample(rd.from_pandas(df).repartition(p), {"x": 1.5}, "dom",
                       "id", seed=3)
        .to_pandas().sort_values(["id", "copy_idx"]).reset_index(drop=True)
        for p in (1, 13)
    ]
    pd.testing.assert_frame_equal(outs[0], outs[1])


# ---------------------------------------------------------------------------
# distributed k-means (functions/cluster.py)
# ---------------------------------------------------------------------------


def _kmeans_ref(df, k, iters, seed):
    """Driver-side replica of kmeans_fit's exact algorithm (same init,
    same fixed-point arithmetic) for bit-equality checks."""
    import numpy as np

    from logray.functions.sample import _det_hash

    ids = df["doc_id"].to_numpy()
    m = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    h = _det_hash(ids, seed)
    order = np.lexsort((ids, h))[:k]
    cent = m[order].copy()
    FP = float(1 << 20)
    xf = np.rint(m * FP).astype(np.int64)
    for _ in range(iters):
        cq = np.rint(cent * FP).astype(np.int64)
        d = (cq * cq).sum(axis=1)[None, :] - 2 * (xf @ cq.T)
        assign = np.argmin(d, axis=1)
        for c in range(k):
            rows = xf[assign == c]
            if len(rows):
                s = rows.sum(axis=0)
                cent[c] = (s.astype(np.float64) / FP) / len(rows)
    return cent


def test_kmeans_bit_deterministic_and_matches_reference(ray_session):
    import numpy as np
    import ray.data as rd

    from logray.functions.cluster import kmeans_assign, kmeans_fit

    rng = np.random.default_rng(8)
    n, dim, k = 1200, 16, 5
    centers = rng.normal(size=(k, dim)) * 8
    m = centers[rng.integers(0, k, n)] + rng.normal(size=(n, dim))
    df = pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "embedding": list(m.astype(np.float32)),
    })
    fits = [
        kmeans_fit(rd.from_pandas(df).repartition(p), k, iters=6, seed=17)
        for p in (2, 11)
    ]
    # bit-identical centroids under different partitionings
    assert (fits[0][0] == fits[1][0]).all()
    pd.testing.assert_frame_equal(fits[0][1], fits[1][1])
    # and identical to the driver-side replica of the same algorithm
    ref = _kmeans_ref(df, k, iters=6, seed=17)
    assert (fits[0][0] == ref).all()
    # clusters recover the planted structure: assignment agrees with
    # nearest planted center for almost all points
    cent, info = fits[0]
    assert info["n_rows"].sum() == n
    assigned = (
        kmeans_assign(rd.from_pandas(df), cent).to_pandas()
        .sort_values("doc_id")["cluster"].to_numpy()
    )
    planted = np.argmin(
        ((m[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2), axis=1
    )
    # cluster ids are arbitrary: check partition agreement via pair counts
    from collections import Counter
    best = sum(
        c for _, c in Counter(zip(planted, assigned)).most_common(k)
    )
    assert best > 0.9 * n


def test_kmeans_inertia_decreases(ray_session):
    import numpy as np
    import ray.data as rd

    from logray.functions.cluster import kmeans_fit

    rng = np.random.default_rng(9)
    df = pd.DataFrame({
        "doc_id": np.arange(400, dtype=np.int64),
        "embedding": list(rng.normal(size=(400, 8)).astype(np.float32)),
    })
    ds = rd.from_pandas(df)
    prev = None
    for iters in (1, 3, 8):
        _, info = kmeans_fit(ds, 4, iters=iters, seed=3)
        tot = info["inertia"].sum()
        if prev is not None:
            assert tot <= prev + 1e-6
        prev = tot


# ---------------------------------------------------------------------------
# sequence packing (functions/packing.py)
# ---------------------------------------------------------------------------


def test_pack_documents_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.functions.packing import pack_documents, pack_documents_sql

    rng = np.random.default_rng(21)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(700, dtype=np.int64),
            "text": ["x" * int(n) for n in rng.integers(1, 400, 700)],
        }
    )
    df.loc[5, "text"] = None  # dropped on both sides
    got = (
        pack_documents(rd.from_pandas(df).repartition(9), budget=1024)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", df)
    want = con.sql(
        pack_documents_sql("documents", budget=1024) + " ORDER BY doc_id"
    ).df()
    pd.testing.assert_frame_equal(got, want)
    # tape invariants: offsets stay inside the budget, seq ids cover
    # 0..ceil(total/budget)-1 without gaps, layout is gap-free
    assert (got["seq_offset"] < 1024).all() and (got["seq_offset"] >= 0).all()
    total = got["len"].sum()
    assert set(got["seq_id"]) == set(range(-(-int(total) // 1024)))
    tape = got["seq_id"] * 1024 + got["seq_offset"]
    assert (tape.to_numpy() == np.concatenate([[0], np.cumsum(got["len"])[:-1]])).all()


def test_pack_documents_precomputed_len_and_partition_invariance(ray_session):
    import numpy as np
    import ray.data as rd

    from logray.functions.packing import pack_documents

    df = pd.DataFrame({
        "doc_id": np.arange(200, dtype=np.int64),
        "n_tokens": np.random.default_rng(2).integers(1, 900, 200),
    })
    outs = [
        pack_documents(rd.from_pandas(df).repartition(p), budget=2048,
                       len_col="n_tokens")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
        for p in (1, 8)
    ]
    pd.testing.assert_frame_equal(outs[0], outs[1])
    assert outs[0]["len"].tolist() == df["n_tokens"].tolist()


# ---------------------------------------------------------------------------
# hashed TF-IDF vectors (functions/tfidf.py)
# ---------------------------------------------------------------------------


def test_tfidf_matches_reference_and_partition_invariant(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from logray.functions.fingerprint import content_hash
    from logray.functions.tfidf import fit_df, tfidf_vectors

    docs = [
        "the cat sat on the mat",
        "the dog ate my homework",
        "cat and dog and cat",
        "completely unrelated words here",
        "",  # all-empty doc -> zero vector
    ] * 20
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    dim = 64
    outs = []
    for p in (1, 9):
        got = (
            tfidf_vectors(rd.from_pandas(df).repartition(p), dim=dim)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        outs.append(got)
    # bit-identical embeddings under different partitionings
    a = np.stack(outs[0]["embedding"].to_numpy())
    b = np.stack(outs[1]["embedding"].to_numpy())
    assert (a == b).all()
    assert outs[0]["n_terms"].tolist() == outs[1]["n_terms"].tolist()

    # driver-side replica of the same algorithm
    def buckets(text):
        import re
        toks = [t for t in re.split(r"[^0-9a-z]+", text.lower()) if t]
        return (content_hash(pa.array(toks)) % np.uint64(dim)).astype(int) \
            if toks else np.array([], int)

    N = len(docs)
    dfv = np.zeros(dim, np.int64)
    for d in docs:
        for u in set(buckets(d).tolist()):
            dfv[u] += 1
    fitted = fit_df(rd.from_pandas(df), dim=dim)
    assert (fitted[0] == dfv).all() and fitted[1] == N
    idf = np.log((N + 1.0) / (dfv + 1.0)) + 1.0
    for i in [0, 2, 4]:
        tf = np.zeros(dim)
        for u in buckets(docs[i]):
            tf[u] += 1
        w = tf * idf
        nrm = np.linalg.norm(w)
        ref = (w / nrm if nrm > 0 else w).astype(np.float32)
        assert np.array_equal(a[i], ref)
    # L2 norms are 1 (or 0 for the empty doc)
    norms = np.linalg.norm(a, axis=1)
    assert np.allclose(norms[df.text.str.len() > 0], 1.0, atol=1e-6)
    assert (norms[df.text.str.len() == 0] == 0).all()


def test_tfidf_feeds_kmeans(ray_session):
    import numpy as np
    import ray.data as rd

    from logray.functions.cluster import kmeans_fit
    from logray.functions.tfidf import tfidf_vectors

    texts = (["spark ray data engine shuffle"] * 30
             + ["cat dog pet animal fur"] * 30)
    df = pd.DataFrame({"doc_id": np.arange(60, dtype=np.int64), "text": texts})
    vecs = tfidf_vectors(rd.from_pandas(df), dim=32).materialize()
    cent, info = kmeans_fit(vecs, k=2, iters=4, seed=5)
    # two pure topic groups -> the two clusters split 30/30
    assert sorted(info["n_rows"].tolist()) == [30, 30]


def test_tfidf_unicode_lowercase_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.functions.tfidf import tfidf_vectors

    # KELVIN SIGN lowercases to 'k' (Unicode), so 'aKa' is ONE token;
    # ascii_lower would leave it as a splitter and produce two
    df = pd.DataFrame({"doc_id": np.arange(3, dtype=np.int64),
                       "text": ["aKa b", "Straße ſ", "plain"]})
    got = (tfidf_vectors(rd.from_pandas(df), dim=16).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("documents", df)
    want = con.sql(
        "SELECT doc_id, CAST(len(list_filter(regexp_split_to_array("
        "lower(text), '[^0-9a-z]+'), x -> x <> '')) AS BIGINT) AS n_terms "
        "FROM documents ORDER BY doc_id"
    ).df()
    assert got["n_terms"].tolist() == want["n_terms"].tolist()


# ---------------------------------------------------------------------------
# grouped HLL + Bloom prefilter (functions/sketch.py, functions/bloom.py)
# ---------------------------------------------------------------------------


def test_approx_distinct_per_key_error_and_invariance(ray_session):
    import numpy as np
    import ray.data as rd

    from logray.functions.sketch import approx_distinct_per_key

    rng = np.random.default_rng(17)
    n = 60_000
    df = pd.DataFrame(
        {
            "k": np.array(["a", "b", "c"])[rng.integers(0, 3, n)],
            "u": rng.integers(0, 8000, n),
        }
    )
    outs = [
        approx_distinct_per_key(rd.from_pandas(df).repartition(p), "k", "u",
                                p=12)
        for p in (2, 13)
    ]
    # deterministic under partitioning
    pd.testing.assert_frame_equal(outs[0], outs[1])
    exact = df.groupby("k")["u"].nunique()
    for _, row in outs[0].iterrows():
        err = abs(row["approx_distinct"] - exact[row["k"]]) / exact[row["k"]]
        assert err < 0.05, (row["k"], row["approx_distinct"], exact[row["k"]])


def test_bloom_prefilter_no_false_negatives(ray_session):
    import numpy as np
    import ray.data as rd

    from logray.functions.bloom import bloom_prefilter, build_bloom

    rng = np.random.default_rng(18)
    members = rd.from_pandas(pd.DataFrame(
        {"key": rng.choice(100_000, 5000, replace=False).astype(np.int64)}))
    bloom = build_bloom(members, "key", m_bits=1 << 18, k=4)

    probe_df = pd.DataFrame({"key": np.arange(100_000, dtype=np.int64)})
    kept = (
        bloom_prefilter(rd.from_pandas(probe_df).repartition(7), bloom, "key")
        .to_pandas()["key"].to_numpy()
    )
    member_set = set(members.to_pandas()["key"])
    # every true member survives (no false negatives)
    assert member_set <= set(kept)
    # false-positive fraction is small at these parameters (~m/n=52 bits/key)
    fpr = (len(kept) - len(member_set)) / (100_000 - len(member_set))
    assert fpr < 0.01, fpr


def test_dedup_lines_sparse_plan_equals_dense_and_duckdb(ray_session):
    """Sparse duplication (~15% of documents carry one common footer,
    the rest share no line): exact against the DuckDB twin, the footer
    kept once."""
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.functions.linededup import dedup_lines, dedup_lines_sql

    rng = np.random.default_rng(19)
    docs = []
    for i in range(300):
        lines = [f"unique {i}-{j} {rng.integers(0, 10**6)}"
                 for j in range(rng.integers(1, 6))]
        if rng.random() < 0.15:  # sparse duplication: ~15% of docs affected
            lines.insert(int(rng.integers(0, len(lines))), "COMMON FOOTER")
        docs.append({"doc_id": i, "text": "\n".join(lines)})
    docs.append({"doc_id": 900, "text": None})
    df = pd.DataFrame(docs)

    got = (
        dedup_lines(rd.from_pandas(df).repartition(7), min_len=1,
                    num_buckets=8)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", df)
    want = con.sql(dedup_lines_sql("documents") + " ORDER BY doc_id").df()
    pd.testing.assert_frame_equal(
        got[["doc_id", "text", "n_lines"]],
        want[["doc_id", "text", "n_lines"]],
    )
    kept = [l for t in got["text"] for l in t.split("\n")]
    assert kept.count("COMMON FOOTER") == 1


def test_dedup_lines_sparse_no_duplicates_passthrough(ray_session):
    import ray.data as rd

    from logray.functions.linededup import dedup_lines

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["a\nb", "c\nd"]})
    got = (
        dedup_lines(rd.from_pandas(df), num_buckets=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert got["text"].tolist() == ["a\nb", "c\nd"]
    assert got["n_lines"].tolist() == [2, 2]


def test_weighted_sample_replica_and_weight_bias(ray_session):
    import numpy as np
    import ray.data as rd

    from logray.functions.sample import _det_hash, weighted_sample

    rng = np.random.default_rng(20)
    n, k = 5000, 500
    df = pd.DataFrame(
        {
            "id": np.arange(n, dtype=np.int64),
            "w": np.where(np.arange(n) % 2 == 0, 1.0, 4.0),
        }
    )
    outs = [
        weighted_sample(rd.from_pandas(df).repartition(p), k, "id", "w",
                        seed=9)
        for p in (1, 8)
    ]
    pd.testing.assert_frame_equal(
        outs[0].sort_values("id").reset_index(drop=True),
        outs[1].sort_values("id").reset_index(drop=True),
    )
    # exact driver-side replica of the same race
    u = (_det_hash(df["id"].to_numpy(), 9).astype(np.float64) + 0.5) / 2**32
    p = -np.log(u) / df["w"].to_numpy()
    want = set(df["id"].to_numpy()[np.argsort(p, kind="stable")][:k])
    assert set(outs[0]["id"]) == want
    # weight-4 rows selected ~4x as often as weight-1 rows
    sel = outs[0]
    r1 = (sel["w"] == 1.0).sum() / (df["w"] == 1.0).sum()
    r4 = (sel["w"] == 4.0).sum() / (df["w"] == 4.0).sum()
    assert 2.5 < r4 / r1 < 6.0


def test_weighted_sample_rejects_nonpositive_weights(ray_session):
    import pytest
    import ray.data as rd

    from logray.functions.sample import weighted_sample

    df = pd.DataFrame({"id": [1, 2], "w": [1.0, 0.0]})
    with pytest.raises(Exception):
        weighted_sample(rd.from_pandas(df), 1, "id", "w")


def test_dedup_spans_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.functions.spandedup import dedup_spans, dedup_spans_sql

    rng = np.random.default_rng(9)
    vocab = [f"w{i}" for i in range(40)]
    boiler = "alpha beta gamma delta epsilon zeta"  # 6-token shared span
    docs = []
    for i in range(150):
        words = [vocab[j] for j in rng.integers(0, 40, rng.integers(6, 30))]
        if i % 4 == 0:  # splice the boilerplate mid-document
            k = rng.integers(0, len(words))
            words = words[:k] + boiler.split() + words[k:]
        docs.append({"doc_id": i, "text": " ".join(words)})
    docs.append({"doc_id": 900, "text": None})   # dropped on both sides
    docs.append({"doc_id": 901, "text": "tiny"})  # shorter than the window
    df = pd.DataFrame(docs)

    got = (
        dedup_spans(rd.from_pandas(df).repartition(7), window=5, num_buckets=8)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", df)
    want = con.sql(dedup_spans_sql("documents", window=5)
                   + " ORDER BY doc_id").df()
    pd.testing.assert_frame_equal(got, want)
    # the spliced boilerplate is duplicated -> removed from EVERY copy
    assert not any(boiler in t for t in got["text"])
    assert 900 not in set(got["doc_id"])
    assert got.loc[got.doc_id == 901, "text"].item() == "tiny"
    assert (got["n_removed"] > 0).any()


def test_dedup_spans_within_doc_repeat_and_window_guard(ray_session):
    import pytest
    import ray.data as rd

    from logray.functions.spandedup import dedup_spans

    # the same 5-gram twice INSIDE one doc counts as duplicated
    df = pd.DataFrame({
        "doc_id": [1, 2],
        "text": ["a b c d e x a b c d e", "p q r s t u v"],
    })
    got = (
        dedup_spans(rd.from_pandas(df), window=5, num_buckets=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert got.loc[got.doc_id == 1, "text"].item() == "x"
    assert got.loc[got.doc_id == 1, "n_removed"].item() == 10
    assert got.loc[got.doc_id == 2, "text"].item() == "p q r s t u v"
    with pytest.raises(ValueError):
        dedup_spans(rd.from_pandas(df), window=1)


def _brute_spans_bytes(texts, window):
    """Reference byte-level ExactSubstr: every duplicated W-byte substring
    (any alignment, corpus-wide multiset) covers its bytes; cut."""
    from collections import Counter

    cnt = Counter()
    for t in texts:
        b = t.encode()
        for i in range(len(b) - window + 1):
            cnt[b[i:i + window]] += 1
    out = []
    for t in texts:
        b = t.encode()
        cov = [False] * len(b)
        for i in range(len(b) - window + 1):
            if cnt[b[i:i + window]] > 1:
                for j in range(i, i + window):
                    cov[j] = True
        kept = bytes(x for x, c in zip(b, cov) if not c)
        out.append((kept.decode(), sum(cov)))
    return out


def test_dedup_spans_bytes_fuzz_vs_bruteforce(ray_session):
    import numpy as np
    import ray.data as rd

    from logray.functions.spandedup import dedup_spans_bytes

    for seed, window in [(0, 4), (1, 7), (2, 12)]:
        rng = np.random.default_rng(seed)
        alpha = "abcd "  # tiny alphabet => plenty of organic repeats
        texts = ["".join(alpha[j] for j in rng.integers(0, len(alpha),
                                                        rng.integers(0, 60)))
                 for _ in range(80)]
        df = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
        got = (
            dedup_spans_bytes(rd.from_pandas(df).repartition(5),
                              window=window, num_buckets=8)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        want = _brute_spans_bytes(texts, window)
        assert list(got["text"]) == [w[0] for w in want], (seed, window)
        assert list(got["n_removed"]) == [w[1] for w in want], (seed, window)


def test_byte_gram_hashes_segmented_identical():
    """Segmenting the byte tape at doc boundaries (the bounded-memory
    path: ~50x transients per SEGMENT, not per batch) yields exactly the
    hashes and starts of the single-shot kernel — including oversized
    single docs and zero-length docs at segment edges."""
    import numpy as np

    from logray.functions.spandedup import _byte_gram_core, _byte_gram_hashes

    rng = np.random.default_rng(3)
    lengths = np.array([0, 37, 5, 0, 900, 13, 0, 64, 258, 2, 0],
                       np.int64)
    flat = rng.integers(0, 256, int(lengths.sum())).astype(np.uint8)
    for window in (4, 25):
        ref = _byte_gram_core(flat, lengths, window)
        for seg in (64, 100, 333, 10_000):
            got = _byte_gram_hashes(flat, lengths, window, seg_bytes=seg)
            for a, b in zip(ref, got):
                assert np.array_equal(a, b), (window, seg)


def test_dedup_spans_bytes_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.functions.spandedup import (dedup_spans_bytes,
                                            dedup_spans_bytes_sql)

    rng = np.random.default_rng(3)
    vocab = [f"w{i}" for i in range(50)]
    docs = []
    for i in range(120):
        words = [vocab[j] for j in rng.integers(0, 50, rng.integers(4, 25))]
        if i % 5 == 0:
            words.insert(int(rng.integers(0, len(words))),
                         "SESSION-TEMPLATE-HEADER-v2.1")
        docs.append({"doc_id": i, "text": " ".join(words)})
    docs.append({"doc_id": 900, "text": None})
    docs.append({"doc_id": 901, "text": ""})
    docs.append({"doc_id": 902, "text": "short"})
    df = pd.DataFrame(docs)
    got = (
        dedup_spans_bytes(rd.from_pandas(df).repartition(7),
                          window=16, num_buckets=8)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", df)
    want = con.sql(dedup_spans_bytes_sql("documents", window=16)
                   + " ORDER BY doc_id").df()
    pd.testing.assert_frame_equal(got, want)
    assert 900 not in set(got["doc_id"])
    assert got.loc[got.doc_id == 901, "text"].item() == ""
    assert got.loc[got.doc_id == 902, "text"].item() == "short"
    assert (got["n_removed"] > 0).any()


def test_dedup_spans_bytes_catches_subword_boilerplate(ray_session):
    """The injected template rides INSIDE single unique tokens (no space
    alignment): word-window dedup is blind to it, byte mode cuts it."""
    import ray.data as rd

    from logray.functions.spandedup import dedup_spans, dedup_spans_bytes

    boiler = "XQZBOILERPLATEBANNERXQZ"
    df = pd.DataFrame({
        "doc_id": [1, 2],
        "text": [f"unique1 prefixA{boiler}suffixA tail1 one two three four",
                 f"unique2 prefixB{boiler}suffixB tail2 five six seven eight"],
    })
    word = dedup_spans(rd.from_pandas(df), window=3, num_buckets=4) \
        .to_pandas().sort_values("doc_id")
    byte = dedup_spans_bytes(rd.from_pandas(df), window=len(boiler),
                             num_buckets=4) \
        .to_pandas().sort_values("doc_id")
    assert all(boiler in t for t in word["text"])       # word mode misses
    assert not any(boiler in t for t in byte["text"])   # byte mode cuts
    assert (byte["n_removed"] >= len(boiler)).all()
    with __import__("pytest").raises(ValueError):
        dedup_spans_bytes(rd.from_pandas(df), window=1)


def test_edit_distance_pairs_matches_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.functions.dedup import (
        edit_distance_pairs,
        edit_distance_pairs_sql,
    )

    rng = np.random.default_rng(12)
    base = "the quick brown fox jumps over the lazy dog again and again"
    rows = []
    for i in range(60):
        s = list(base)
        for _ in range(rng.integers(0, 12)):  # random edits off one base
            p = rng.integers(0, len(s))
            s[p] = chr(ord("a") + rng.integers(0, 26))
        rows.append({"doc_id": i, "grp": int(i % 3),
                     "text": "".join(s) + (" ünïcødé" if i % 7 == 0 else "")})
    rows.append({"doc_id": 100, "grp": 0, "text": None})  # dropped
    rows.append({"doc_id": 101, "grp": 0, "text": ""})    # empty prefix
    df = pd.DataFrame(rows)

    got = (
        edit_distance_pairs(rd.from_pandas(df).repartition(5), "grp",
                            max_dist=None, max_len=48)
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        edit_distance_pairs_sql("t", "grp", max_dist=None, max_len=48)
        + " ORDER BY id_a, id_b"
    ).df()
    pd.testing.assert_frame_equal(
        got[["id_a", "id_b", "dist", "grp"]],
        want[["id_a", "id_b", "dist", "grp"]],
    )
    # empty-vs-nonempty distance is the other string's prefix length
    e = got[(got.id_b == 101)]
    assert (e["dist"] > 0).all()


def test_edit_distance_pairs_threshold_and_singleton(ray_session):
    import ray.data as rd

    from logray.functions.dedup import edit_distance_pairs

    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 9],
        "grp": [0, 0, 0, 1],  # grp 1 is a singleton -> no pairs
        "text": ["kitten", "sitting", "kitten!", "alone"],
    })
    got = (
        edit_distance_pairs(rd.from_pandas(df), "grp", max_dist=1)
        .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    )
    # kitten<->sitting is 3 (filtered); kitten<->kitten! is 1 (kept)
    assert got[["id_a", "id_b"]].values.tolist() == [[1, 3]]
    assert got["dist"].tolist() == [1]


def test_budget_sample_matches_duckdb_and_is_partition_invariant(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.functions.sample import budget_sample, budget_sample_sql

    rng = np.random.default_rng(71)
    df = pd.DataFrame(
        {
            "doc_id": np.arange(800, dtype=np.int64),
            "dom": np.array(["a", "b", "c"])[rng.integers(0, 3, 800)],
            "n_tok": rng.integers(1, 500, 800),
        }
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        budget_sample_sql("t", "dom", "doc_id", "n_tok", 5000, seed=3,
                          cols="doc_id, dom, n_tok") + " ORDER BY doc_id"
    ).df()
    outs = []
    for parts in (3, 11):
        got = (
            budget_sample(rd.from_pandas(df).repartition(parts), "dom",
                          "doc_id", "n_tok", 5000, seed=3)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(got, want)
        outs.append(got)
    # kept volume respects the budget per domain
    assert (outs[0].groupby("dom")["n_tok"].sum() <= 5000).all()


def test_budget_sample_rejects_float_weights(ray_session):
    import pytest
    import ray.data as rd

    from logray.functions.sample import budget_sample

    df = pd.DataFrame({"doc_id": [1], "dom": ["a"], "w": [1.5]})
    with pytest.raises(Exception):
        budget_sample(rd.from_pandas(df), "dom", "doc_id", "w", 10).to_pandas()


def test_normalize_nfc_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.textclean import normalize_nfc, normalize_nfc_sql

    df = pd.DataFrame(
        {
            "id": [1, 2, 3, 4],
            "text": ["cafe\u0301",  # decomposed -> cafe with U+00E9
                     "caf\u00e9",   # already composed: unchanged
                     "plain ascii",
                     None],
        }
    )
    got = (
        normalize_nfc(rd.from_pandas(df).repartition(3), "text")
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        normalize_nfc_sql("t", "text", cols="id, text") + " ORDER BY id"
    ).df()
    pd.testing.assert_frame_equal(got, want)
    assert got["changed"].tolist() == [True, False, False, False]
    assert got.loc[0, "text_nfc"] == "caf\u00e9"


def test_edit_distance_pairs_bytes_and_duplicate_ids(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.dedup import (
        edit_distance_pairs,
        edit_distance_pairs_sql,
    )

    # unicode INSIDE the prefix: DuckDB levenshtein edits BYTES
    # ('é' is two), and duplicate ids must emit no pair at all
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 3],
        "grp": [0, 0, 0, 0],
        "text": ["café", "cafe", "café x", "café x"],
    })
    got = (
        edit_distance_pairs(rd.from_pandas(df), "grp", max_len=32)
        .to_pandas().sort_values(["id_a", "id_b", "dist"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        edit_distance_pairs_sql("t", "grp", max_len=32)
        + " ORDER BY id_a, id_b, dist"
    ).df()
    pd.testing.assert_frame_equal(
        got[["id_a", "id_b", "dist"]], want[["id_a", "id_b", "dist"]])
    d12 = got[(got.id_a == 1) & (got.id_b == 2)]["dist"].tolist()
    assert d12 == [2]  # byte-level: e-acute <-> e is delete+substitute
    assert not ((got.id_a == 3) & (got.id_b == 3)).any()


def test_ngram_jaccard_pairs_duplicate_ids_match_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.dedup import ngram_jaccard_pairs

    # a repeated id pairs with nothing, as the twin's a.id < b.id join
    df = pd.DataFrame({
        "doc_id": [1, 1, 2, 3, 4, 4],
        "grp": [0, 0, 0, 0, 1, 1],
        "text": ["abcd", "abcd", "abce", "wxyz", "same", "same"],
    })
    got = (
        ngram_jaccard_pairs(rd.from_pandas(df), "grp", n=1)
        .to_pandas().sort_values(["id_a", "id_b", "jaccard"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
        "jaccard(a.text, b.text) AS jaccard FROM t a JOIN t b "
        "ON a.grp = b.grp AND a.doc_id < b.doc_id "
        "ORDER BY id_a, id_b, jaccard"
    ).df()
    pd.testing.assert_frame_equal(got[["id_a", "id_b", "jaccard"]], want)
    assert not (got.id_a == got.id_b).any()


def test_dedup_spans_all_short_corpus_is_identity(ray_session):
    import ray.data as rd

    from logray.functions.spandedup import dedup_spans

    df = pd.DataFrame({"doc_id": [1, 2], "text": ["a b", "c d"]})
    got = (
        dedup_spans(rd.from_pandas(df), window=5, num_buckets=4)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert got["text"].tolist() == ["a b", "c d"]
    assert got["n_removed"].tolist() == [0, 0]


def test_json_extract_field_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.textclean import (
        json_extract_field,
        json_extract_field_sql,
    )

    df = pd.DataFrame({
        "id": list(range(10)),
        "j": ['{"k": 7, "s": "x"}',
              '{"k": -3}',
              '{"s": "only"}',          # missing key -> null
              '{"k": "12"}',            # string-typed -> null as int64
              '{"k": true}',            # bool is not an int
              'not json',               # invalid -> null (TRY semantics)
              None,
              '{"k": 1.5}',             # decimal rounds half away from 0
              '{"k": "inf"}',           # non-finite -> null as int64
              '{"k": "2.5"}'],          # string decimal rounds too
    })
    con = duckdb.connect()
    con.register("t", df)
    for vt in ("int64", "string"):
        got = (
            json_extract_field(rd.from_pandas(df).repartition(3), "j", "k",
                               value_type=vt)
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        want = con.sql(
            json_extract_field_sql("t", "j", "k", value_type=vt,
                                   cols="id, j") + " ORDER BY id"
        ).df()
        pd.testing.assert_frame_equal(got, want)


def test_json_extract_overflow_dupkeys_and_float_text(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.textclean import (
        json_extract_field,
        json_extract_field_sql,
    )

    df = pd.DataFrame({
        "id": [0, 1, 2, 3],
        "j": ['{"k": 99999999999999999999999}',  # > int64 -> null, no crash
              '{"k": 1, "k": 2}',                # dup key: ->> takes FIRST
              '{"k": 1e30}',                     # sci-notation text parity
              '{"k": "9223372036854775808"}'],   # string just past int64
    })
    con = duckdb.connect()
    con.register("t", df)
    for vt in ("int64", "string"):
        got = (
            json_extract_field(rd.from_pandas(df), "j", "k", value_type=vt)
            .to_pandas().sort_values("id").reset_index(drop=True)
        )
        want = con.sql(
            json_extract_field_sql("t", "j", "k", value_type=vt,
                                   cols="id, j") + " ORDER BY id"
        ).df()
        pd.testing.assert_frame_equal(got, want)
    import pytest
    with pytest.raises(ValueError):
        json_extract_field(rd.from_pandas(df), "j", "$.k")
    with pytest.raises(ValueError):
        json_extract_field_sql("t", "j", "$.k")


def test_json_extract_double_text_rendering_rules(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.textclean import (
        json_extract_field,
        json_extract_field_sql,
    )

    # the full JS-style rendering envelope DuckDB uses for JSON doubles
    vals = ["1e18", "1.5e18", "1e20", "1e21", "1e-6", "1e-7", "0.00001",
            "2.5", "-1e21", "18446744073709551615", "18446744073709551616",
            "1.7976931348623157e308"]
    df = pd.DataFrame({
        "id": list(range(len(vals))),
        "j": [f'{{"k": {v}}}' for v in vals],
    })
    con = duckdb.connect()
    con.register("t", df)
    got = (
        json_extract_field(rd.from_pandas(df), "j", "k",
                           value_type="string")
        .to_pandas().sort_values("id").reset_index(drop=True)
    )
    want = con.sql(
        json_extract_field_sql("t", "j", "k", value_type="string",
                               cols="id, j") + " ORDER BY id"
    ).df()
    pd.testing.assert_frame_equal(got, want)


def test_dedup_keep_best_keeps_max_score_member(ray_session):
    import ray.data as rd

    from logray.functions.dedup import dedup_keep_best

    # clusters {1,2,3} and {5,6}; 4 and 7 untouched
    pairs = pd.DataFrame({"id_a": [1, 2, 5], "id_b": [2, 3, 6]})
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5, 6, 7],
        "quality": [0.1, 0.9, 0.9, 0.2, None, 0.5, 0.0],
        "text": list("abcdefg"),
    })
    kept = (
        dedup_keep_best(rd.from_pandas(df).repartition(3), pairs,
                        score_col="quality")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    # cluster 1: max 0.9 tie (2,3) -> min id 2; cluster 2: null ranks
    # last -> 6 wins; non-members 4 and 7 untouched
    assert kept["doc_id"].tolist() == [2, 4, 6, 7]


def test_dedup_keep_best_empty_pairs_is_identity(ray_session):
    import ray.data as rd

    from logray.functions.dedup import dedup_keep_best

    df = pd.DataFrame({"doc_id": [1, 2], "quality": [0.5, 0.6]})
    kept = dedup_keep_best(rd.from_pandas(df),
                           pd.DataFrame({"id_a": [], "id_b": []}))
    assert kept.count() == 2


def test_dedup_spans_fuzz_vs_duckdb(ray_session):
    import duckdb
    import numpy as np
    import ray.data as rd

    from logray.functions.spandedup import dedup_spans, dedup_spans_sql

    con = duckdb.connect()
    for seed in (1, 2, 3, 4, 5):
        rng = np.random.default_rng(seed)
        vocab = [f"w{i}" for i in range(rng.integers(5, 25))]
        window = int(rng.integers(2, 6))
        docs = []
        for i in range(int(rng.integers(20, 80))):
            L = int(rng.integers(0, 25))
            docs.append({"doc_id": i,
                         "text": " ".join(vocab[j] for j in
                                          rng.integers(0, len(vocab), L))
                         if L else ""})
        df = pd.DataFrame(docs)
        got = (
            dedup_spans(rd.from_pandas(df).repartition(4), window=window,
                        num_buckets=4)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        con.register("fuzzdocs", df)
        want = con.sql(dedup_spans_sql("fuzzdocs", window=window)
                       + " ORDER BY doc_id").df()
        pd.testing.assert_frame_equal(got, want), seed


def test_downcast_string_chunks():
    """The >2GiB span-dedup branch must emit the same `string` column
    type as its sibling batches: the helper splits at doc boundaries
    under the offset limit and down-casts each slice."""
    import pyarrow as pa

    from logray.functions.spandedup import _downcast_string_chunks

    docs = ["aa", "bbb", "", "cccc", "d"]
    off = np.zeros(len(docs) + 1, np.int64)
    np.cumsum([len(d) for d in docs], out=off[1:])
    big = pa.array(docs, pa.large_string())
    out = _downcast_string_chunks(big, off, limit=4)
    assert out.type == pa.string()
    assert out.to_pylist() == docs
    assert all(len("".join(c.to_pylist())) <= 4 for c in out.chunks)
    # a single doc over the limit is unrepresentable -> loud failure
    with pytest.raises(ValueError, match="single kept document"):
        _downcast_string_chunks(pa.array(["eeeeee"], pa.large_string()),
                                np.array([0, 6], np.int64), limit=4)


def test_resumable_run_config_guard(ray_session, tmp_path):
    """Resuming a checkpointed dedup run with different semantic
    parameters (or after a bucket-hash change) must refuse loudly —
    completed partitions were produced under a different plan and mixing
    them silently corrupts output."""
    import json

    from logray.functions.linededup_resumable import dedup_lines_resumable
    from logray.state.manifest import check_run_config

    src = _span_line_corpus(tmp_path, "docs_guard")
    out = tmp_path / "guard_out"
    dedup_lines_resumable(str(src), str(out), min_len=5, num_buckets=8)
    # identical params: clean no-op resume
    dedup_lines_resumable(str(src), str(out), min_len=5, num_buckets=8)
    # changed bucket count: refuse
    with pytest.raises(ValueError, match="different parameters"):
        dedup_lines_resumable(str(src), str(out), min_len=5, num_buckets=16)
    # a hash-version bump alone also refuses
    cfg_path = out / "run_config.json"
    cfg = json.loads(cfg_path.read_text())
    cfg["bucket_hash_version"] = "old-v1"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match="bucket_hash_version"):
        check_run_config(str(out), {
            "op": "dedup_lines", "id_col": "doc_id", "text_col": "text",
            "min_len": 5, "sep": "\n", "num_buckets": 8,
        })


def test_run_config_pre_versioned_checkpoints_refused(tmp_path):
    """An out_dir holding partition manifests but no run_config.json
    (a run started before configs were versioned) must refuse to resume:
    its checkpoints were produced under an unknown partitioning plan."""
    import os

    import numpy as np

    from logray.state.manifest import check_run_config

    out = tmp_path / "legacy"
    os.makedirs(out / "cand" / "parts" / "p-x", exist_ok=True)
    (out / "cand" / "parts" / "p-x" / "manifest.json").write_text("{}")
    with pytest.raises(ValueError, match="before configs were versioned"):
        check_run_config(str(out), {"op": "dedup_lines"})
    # numpy scalar params normalize: recording with np.int64 then
    # resuming with a python int is NOT a mismatch
    out2 = tmp_path / "npscalar"
    check_run_config(str(out2), {"op": "x", "n": np.int64(8)})
    check_run_config(str(out2), {"op": "x", "n": 8})


def test_gif_decode_malformed_inputs_raise_valueerror():
    """Truncated or out-of-bounds GIF payloads must raise a clear
    ValueError (one corrupt blob should surface as a codec error, not an
    opaque IndexError killing the task)."""
    import numpy as np

    from logray.functions.gif import decode_gif, encode_gif

    frames = [np.full((4, 5), v, np.uint8) for v in (10, 200)]
    data = encode_gif(frames)
    # truncation at every prefix length: always ValueError, never raw
    for cut in (7, 12, 14, 20, len(data) // 2, len(data) - 2):
        with pytest.raises(ValueError):
            decode_gif(data[:cut])
    full = decode_gif(data)
    assert len(full) == 2 and full[0].shape == (4, 5, 3)
    # a frame rect past the logical screen is clipped, not a crash:
    # rewrite the FIRST REAL image descriptor's left/top to overflow the
    # screen (search past the 13-byte header + 768-byte gray palette —
    # a bare data.index(b"\\x2C") would hit palette entry 44 and leave
    # the clip branch untested)
    import struct as _s

    idesc = data.index(b"\x2C", 13 + 256 * 3)
    assert data[idesc + 1:idesc + 5] == _s.pack("<HH", 0, 0)  # real desc
    shifted = (data[:idesc + 1]
               + _s.pack("<HHHHB", 3, 2, 5, 4, 0)
               + data[idesc + 10:])
    out = decode_gif(shifted)
    assert out[0].shape == (4, 5, 3)  # canvas shape, frame clipped into it
    # the clipped region really landed: rows/cols inside [2:4, 3:5] carry
    # the frame's gray value, the rest stays background
    assert (out[0][2:4, 3:5] == 10).all()
    assert (out[0][:2, :] == out[0][0, 0]).all()
    # oversized claimed dimensions fail loudly, not by allocation
    hdr = bytearray(data[:13])
    hdr[6:10] = _s.pack("<HH", 65535, 65535)
    with pytest.raises(ValueError, match="pixel"):
        decode_gif(bytes(hdr) + data[13:])


# ---------------------------------------------------------------------------
# SemDeDup (kmeans + intra-cluster cosine dedup)
# ---------------------------------------------------------------------------


def _semdedup_brute(ids, emb, assign, eps, keep, centroids):
    """Pure-numpy twin of the per-cluster triangular-max rule."""
    def unit(m):
        n = np.linalg.norm(m, axis=1)
        n[n == 0] = 1.0
        return m / n[:, None]

    kept = {}
    for c in np.unique(assign):
        m = np.flatnonzero(assign == c)
        cid, cemb = ids[m], emb[m]
        o = np.argsort(cid, kind="stable")  # engine id-sorts pre-GEMV
        cid, cemb = cid[o], cemb[o]
        if keep == "far_from_centroid":
            cs = unit(cemb) @ unit(centroids[c][None, :])[0]
            o = np.lexsort((cid, cs))
            cid, cemb = cid[o], cemb[o]
        u = unit(cemb)
        sim = u @ u.T
        for i in range(len(cid)):
            ms = sim[i, :i].max() if i else -np.inf
            kept[int(cid[i])] = bool(ms < eps)
    return kept


@pytest.mark.parametrize("keep", ["min_id", "far_from_centroid"])
def test_semdedup_matches_brute_force_with_planted_dups(ray_session, keep):
    import ray.data as rd

    from logray.functions.cluster import kmeans_assign, kmeans_fit
    from logray.functions.semdedup import semdedup_keep, semdedup_verdicts

    rng = np.random.default_rng(5)
    base = rng.standard_normal((40, 16))
    # plant near-duplicates: rows 40.. are tiny perturbations of rows 0..19
    dups = base[:20] + rng.standard_normal((20, 16)) * 0.01
    emb = np.vstack([base, dups])
    ids = np.arange(len(emb), dtype=np.int64)
    t = pa.table({"vec_id": ids, "embedding": list(emb.astype(np.float32))})
    ds = rd.from_arrow(t).repartition(5)

    v = semdedup_verdicts(ds, k=4, eps=0.95, iters=6, keep=keep).to_pandas()
    assert len(v) == len(ids)
    assert not v.loc[v.vec_id < 40, "kept"].eq(False).all()
    assert (~v["kept"]).sum() >= 15  # most planted dups caught

    cent, _ = kmeans_fit(ds, 4, id_col="vec_id", iters=6)
    assign = kmeans_assign(ds, cent).to_pandas().set_index("vec_id")[
        "cluster"].reindex(ids).to_numpy()
    # the engine sees float32-rounded embeddings from the Arrow table;
    # feed the twin the identical values or near-eps cosines can flip
    want = _semdedup_brute(ids, emb.astype(np.float32).astype(np.float64),
                           assign, 0.95, keep, cent)
    got = dict(zip(v["vec_id"].astype(int), v["kept"]))
    assert got == want

    kept_ds = semdedup_keep(ds, k=4, eps=0.95, iters=6, keep=keep).to_pandas()
    assert sorted(kept_ds["vec_id"]) == sorted(
        i for i, ok in want.items() if ok)


@pytest.mark.parametrize("keep", ["min_id", "far_from_centroid"])
def test_semdedup_deterministic_across_partitioning(ray_session, keep):
    import ray.data as rd

    from logray.functions.semdedup import semdedup_verdicts

    rng = np.random.default_rng(9)
    emb = rng.standard_normal((60, 8)).astype(np.float32)
    emb[30:] = emb[:30] * 1.001  # scaled copies: cosine == 1
    t = pa.table({"vec_id": np.arange(60, dtype=np.int64),
                  "embedding": list(emb)})
    out = []
    for parts in (2, 9):
        v = (semdedup_verdicts(rd.from_arrow(t).repartition(parts),
                               k=3, eps=0.99, iters=4, keep=keep)
             .to_pandas().sort_values("vec_id").reset_index(drop=True))
        out.append(v)
    pd.testing.assert_frame_equal(out[0], out[1])
    # exactly one of each scaled-copy pair survives (min_id keeps the
    # original; far_from_centroid may keep either member)
    kept = out[0].set_index("vec_id")["kept"]
    assert all(kept[i] != kept[i + 30] for i in range(30))
    if keep == "min_id":
        assert kept[np.arange(30)].all()


def test_semdedup_nan_embedding_does_not_poison_cluster(ray_session):
    import ray.data as rd

    from logray.functions.semdedup import semdedup_verdicts

    # NaN row has the cluster's LOWEST id: before the sanitize fix its
    # NaN cosine propagated through max() and un-deduped the whole tail
    emb = np.array([[np.nan, 1.0], [1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                   np.float32)
    t = pa.table({"vec_id": np.arange(4, dtype=np.int64),
                  "embedding": list(emb)})
    v = (semdedup_verdicts(rd.from_arrow(t), eps=0.95,
                           centroids=np.zeros((1, 2)))
         .to_pandas().set_index("vec_id"))
    assert bool(v.loc[0, "kept"])       # corrupt row kept as zero vector
    assert float(v.loc[0, "max_sim"]) == 0.0
    assert bool(v.loc[1, "kept"])
    assert not bool(v.loc[2, "kept"])   # exact duplicate of id 1 drops
    assert bool(v.loc[3, "kept"])


# ---------------------------------------------------------------------------
# DSIR importance resampling
# ---------------------------------------------------------------------------


def _dsir_feats(text: str, dim: int):
    import re

    toks = [w for w in re.split(r"[^0-9a-z]+", text.lower()) if w]
    if not toks:
        return []
    ha = content_hash(pa.array(toks))
    out = [int(x) % dim for x in ha]
    mix = 0x9E3779B97F4A7C15
    for i in range(len(toks) - 1):
        out.append((((int(ha[i]) * mix) % 2**64) ^ int(ha[i + 1])) % dim)
    return out


def test_dsir_weights_match_brute_force(ray_session):
    import ray.data as rd

    from logray.functions.dsir import dsir_weights

    raw_texts = ["the cat sat on the mat", "quantum flux capacitor engaged",
                 "cat mat cat mat", "stock market prices fell today",
                 "the dog sat on the log", "flux capacitor quantum drive",
                 None] * 4
    ids = np.arange(len(raw_texts), dtype=np.int64)
    tgt_texts = ["the cat sat on a mat", "a dog sat on the mat",
                 "cat and dog on mat"]
    dim = 512
    raw = rd.from_arrow(pa.table({"doc_id": ids, "text": raw_texts}))
    tgt = rd.from_arrow(pa.table({"doc_id": np.arange(3),
                                  "text": tgt_texts}))
    got = (dsir_weights(raw.repartition(4), tgt, dim=dim).to_pandas()
           .sort_values("doc_id").reset_index(drop=True))
    assert len(got) == sum(t is not None for t in raw_texts)

    tc = np.zeros(dim)
    rc = np.zeros(dim)
    for t in tgt_texts:
        for b in _dsir_feats(t, dim):
            tc[b] += 1
    for t in raw_texts:
        for b in _dsir_feats(t or "", dim) if t else []:
            rc[b] += 1
    lam = ((np.log(tc + 0.5) - np.log(tc.sum() + 0.5 * dim))
           - (np.log(rc + 0.5) - np.log(rc.sum() + 0.5 * dim)))
    want = {i: sum(lam[b] for b in _dsir_feats(t, dim))
            for i, t in zip(ids, raw_texts) if t is not None}
    for i, w in zip(got["doc_id"], got["dsir_weight"]):
        assert abs(w - want[int(i)]) < 1e-9
    # equal-length docs: the target-like one outranks the alien one
    assert want[4] > want[3]  # "the dog sat on the log" > stock-market doc
    assert want[2] > want[1]  # "cat mat cat mat" > quantum doc


def test_dsir_sample_deterministic_and_sized(ray_session):
    import ray.data as rd

    from logray.functions.dsir import dsir_sample

    rng = np.random.default_rng(3)
    words = np.array(["cat", "dog", "mat", "flux", "stock", "drive", "sat"])
    texts = [" ".join(rng.choice(words, 6)) for _ in range(100)]
    raw = rd.from_arrow(pa.table({
        "doc_id": np.arange(100, dtype=np.int64), "text": texts}))
    tgt = rd.from_arrow(pa.table({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": ["cat mat sat"] * 5}))
    a = dsir_sample(raw.repartition(3), tgt, n=20, dim=256, seed=7)
    b = dsir_sample(raw.repartition(13), tgt, n=20, dim=256, seed=7)
    assert list(a["doc_id"]) == list(b["doc_id"])
    assert len(a) == 20
    assert (a["dsir_key"].to_numpy()[:-1]
            >= a["dsir_key"].to_numpy()[1:]).all()
    c = dsir_sample(raw, tgt, n=20, dim=256, seed=8)
    assert list(a["doc_id"]) != list(c["doc_id"])  # seed changes the draw
    with pytest.raises(ValueError, match="temperature"):
        dsir_sample(raw, tgt, n=20, dim=256, temperature=0.0)


# ---------------------------------------------------------------------------
# deterministic shuffle + source quality gate
# ---------------------------------------------------------------------------


def test_deterministic_shuffle_matches_duckdb_and_partitioning(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.sample import (deterministic_shuffle,
                                         deterministic_shuffle_sql)

    t = pa.table({"doc_id": np.arange(200, dtype=np.int64),
                  "v": np.arange(200, dtype=np.int64) * 3})
    got = deterministic_shuffle(rd.from_arrow(t).repartition(7),
                                "doc_id", seed=5).to_pandas()
    con = duckdb.connect()
    con.register("docs", t)
    want = con.sql(deterministic_shuffle_sql("docs", "doc_id", seed=5)).df()
    pd.testing.assert_frame_equal(
        got[sorted(got.columns)], want[sorted(want.columns)])
    # same total order regardless of partitioning; actually shuffled
    again = deterministic_shuffle(rd.from_arrow(t).repartition(2),
                                  "doc_id", seed=5).to_pandas()
    assert list(got["doc_id"]) == list(again["doc_id"])
    assert list(got["doc_id"]) != list(range(200))


def test_source_quality_gate_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.quality import (source_quality_gate,
                                          source_quality_gate_sql)

    t = pa.table({
        "doc_id": pa.array(np.arange(8, dtype=np.int64)),
        "source": pa.array(["good", "good", "bad", "bad", "edge", "edge",
                            "good", "bad"]),
        "text": pa.array(["alpha beta", "gamma!", "1234 5678", "99 00 11",
                          "abc1", "def2", "pure words", None]),
    })
    for num, den in ((1, 2), (3, 4), (0, 1)):
        got = (source_quality_gate(rd.from_arrow(t).repartition(3),
                                   min_alpha_num=num, min_alpha_den=den)
               .to_pandas().sort_values("doc_id").reset_index(drop=True))
        con = duckdb.connect()
        con.register("docs", t)
        want = (con.sql(source_quality_gate_sql("docs", min_alpha_num=num,
                                                min_alpha_den=den)).df()
                .sort_values("doc_id").reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got[sorted(got.columns)], want[sorted(want.columns)])
    # "edge" source: 6 alpha of 8 chars = exactly 3/4 -> kept at 3/4 gate
    kept = source_quality_gate(rd.from_arrow(t), min_alpha_num=3,
                               min_alpha_den=4).to_pandas()
    assert set(kept["source"]) >= {"edge"}


# ---------------------------------------------------------------------------
# hashed n-gram LM perplexity (CCNet-style quality signal)
# ---------------------------------------------------------------------------


def _lm_twin(texts, counts, total, dim, alpha=0.4, smooth=0.5):
    """Pure-Python Stupid Backoff over the same hashed gram space."""
    import re

    mix = 0x9E3779B97F4A7C15
    n = len(counts)
    out = []
    for text in texts:
        toks = [w for w in re.split(r"[^0-9a-z]+", text.lower()) if w]
        if not toks:
            out.append(None)
            continue
        ha = [int(x) for x in content_hash(pa.array(toks))]
        # grams[k-1][i] = hash of tokens i-k+1..i (end-aligned)
        grams = [ha]
        for k in range(2, n + 1):
            grams.append([((grams[-1][i - 1] * mix) % 2**64) ^ ha[i]
                          if i >= k - 1 else 0 for i in range(len(ha))])
        lp = 0.0
        for i in range(len(ha)):
            s = (int(counts[0][grams[0][i] % dim]) + smooth) / (
                total + smooth * dim)
            for k in range(2, n + 1):
                if i < k - 1:
                    continue  # not enough context: keep lower-order score
                num = int(counts[k - 1][grams[k - 1][i] % dim])
                ctx = int(counts[k - 2][grams[k - 2][i - 1] % dim])
                s = num / max(ctx, num) if num > 0 else alpha * s
            lp += np.log(s)
        out.append(lp / len(toks))
    return out


def test_lm_perplexity_matches_twin_and_partitioning(ray_session):
    import ray.data as rd

    from logray.functions.lm import fit_ngram_lm, lm_perplexity

    rng = np.random.default_rng(21)
    words = np.array(["the", "cat", "sat", "on", "mat", "dog", "ran", "far"])
    ref_texts = [" ".join(rng.choice(words, 12)) for _ in range(60)]
    ref = rd.from_arrow(pa.table({
        "doc_id": np.arange(60, dtype=np.int64), "text": ref_texts}))
    dim = 2048
    fitted = fit_ngram_lm(ref.repartition(4), n=3, dim=dim)
    counts, total = fitted
    assert total == sum(len(t.split()) for t in ref_texts)

    # shard-merge exactness: fit over shards folds to the same vectors
    c_a, t_a = fit_ngram_lm(ref.repartition(9), n=3, dim=dim)
    assert t_a == total
    for k in range(3):
        np.testing.assert_array_equal(c_a[k], counts[k])

    score_texts = ["the cat sat on mat", "zq xv wq pl mn",
                   "dog ran far", "", None, "the the the"]
    sds = rd.from_arrow(pa.table({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": pa.array(score_texts)}))
    got = (lm_perplexity(sds.repartition(3), fitted, dim=dim)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    # null text dropped, empty text scored null
    assert list(got["doc_id"]) == [0, 1, 2, 3, 5]
    assert got.loc[got.doc_id == 3, "ppl"].isna().all()
    want = _lm_twin([t for t in score_texts if t is not None],
                    counts, total, dim)
    for doc_id, w in zip([0, 1, 2, 3, 5], want):
        row = got.loc[got.doc_id == doc_id]
        if w is None:
            assert row["logprob"].isna().all()
        else:
            assert np.isclose(float(row["logprob"].iloc[0]), w, rtol=1e-12)
            assert np.isclose(float(row["ppl"].iloc[0]), np.exp(-w),
                              rtol=1e-12)
    # partition invariance
    again = (lm_perplexity(sds.repartition(1), fitted, dim=dim)
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, again)
    # in-domain text scores better than gibberish
    assert (float(got.loc[got.doc_id == 0, "ppl"].iloc[0])
            < float(got.loc[got.doc_id == 1, "ppl"].iloc[0]))


def test_lm_perplexity_backoff_orders(ray_session):
    import ray.data as rd

    from logray.functions.lm import fit_ngram_lm, lm_perplexity

    ref = rd.from_arrow(pa.table({
        "doc_id": np.arange(3, dtype=np.int64),
        "text": ["a b c", "a b c", "a b d"]}))
    dim = 512
    fitted = fit_ngram_lm(ref, n=3, dim=dim)
    with pytest.raises(ValueError, match="n must be"):
        fit_ngram_lm(ref, n=0, dim=dim)
    sds = rd.from_arrow(pa.table({
        "doc_id": np.arange(2, dtype=np.int64),
        "text": ["a b c", "a b x"]}))
    got = (lm_perplexity(sds, fitted, dim=dim)
           .to_pandas().set_index("doc_id"))
    # seen trigram continuation beats unseen-token backoff
    assert float(got.loc[0, "ppl"]) < float(got.loc[1, "ppl"])
    assert (got["n_tokens"] == 3).all()
    assert (got["ppl"] >= 1.0 - 1e-12).all()


def test_perplexity_buckets_ccnet_split(ray_session):
    import ray.data as rd

    from logray.functions.lm import fit_ngram_lm, perplexity_buckets

    rng = np.random.default_rng(33)
    words = np.array(["the", "cat", "sat", "on", "mat", "dog", "ran"])
    junk = np.array(["zq", "xv", "wq", "pl", "mn", "kj", "bv"])
    texts, langs = [], []
    for i in range(90):
        pool = words if i % 3 else np.concatenate([words, junk])
        texts.append(" ".join(rng.choice(pool, 10)))
        langs.append("en" if i < 60 else "de")
    texts += ["", None]
    langs += ["en", "de"]
    t = pa.table({"doc_id": np.arange(92, dtype=np.int64),
                  "text": pa.array(texts), "lang": pa.array(langs)})
    ds = rd.from_arrow(t).repartition(4)
    fitted = fit_ngram_lm(
        ds.filter(expr="lang == 'en'").select_columns(["doc_id", "text"]),
        n=2, dim=1024)
    got = (perplexity_buckets(ds, fitted, dim=1024)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    assert len(got) == 91  # null text dropped
    assert got.loc[got.doc_id == 90, "ppl_bucket"].isna().all()  # empty text
    scored = got.dropna(subset=["ppl"])
    # per-lang tercile split: bucket sizes within 1 of n/3 per lang
    for lang, g in scored.groupby("lang"):
        n = len(g)
        counts = g["ppl_bucket"].value_counts()
        assert counts.get("head", 0) >= 1
        assert abs(counts.get("head", 0) - n / 3) <= 1
        # head ppl <= middle ppl <= tail ppl
        h = g.loc[g.ppl_bucket == "head", "ppl"].max()
        m_ = g.loc[g.ppl_bucket == "middle", "ppl"]
        t_ = g.loc[g.ppl_bucket == "tail", "ppl"]
        if len(m_):
            assert h <= m_.min() + 1e-12
            if len(t_):
                assert m_.max() <= t_.min() + 1e-12
    # partition invariance
    again = (perplexity_buckets(rd.from_arrow(t).repartition(9), fitted,
                                dim=1024)
             .to_pandas().sort_values("doc_id").reset_index(drop=True))
    pd.testing.assert_frame_equal(got, again)


# ---------------------------------------------------------------------------
# incremental (cross-snapshot) dedup against a persistent hash index
# ---------------------------------------------------------------------------


def test_content_hash128_pairs_and_first_hash_identity():
    texts = pa.array(["", "a", "ab", "ba", "same", "same", None])
    h1, h2 = content_hash128(texts)
    np.testing.assert_array_equal(h1, content_hash(texts))
    # second hash is NOT a function of the first: "ab"/"ba" style pairs
    # and the two accumulators diverge on any non-degenerate input
    assert h2[1] != h1[1]
    assert (h1[4], h2[4]) == (h1[5], h2[5])
    assert (h1[2], h2[2]) != (h1[3], h2[3])


@pytest.mark.parametrize("mode", ["broadcast", "sharded"])
def test_dedup_against_index_matches_anti_join(ray_session, tmp_path, mode):
    import duckdb
    import ray.data as rd

    from logray.functions.dedup_incremental import (build_hash_index,
                                                    dedup_against_index,
                                                    index_verdicts)

    old = pa.table({
        "doc_id": np.arange(5, dtype=np.int64),
        "text": pa.array(["seen one", "seen two", "", "seen one", None]),
    })
    new = pa.table({
        "doc_id": np.arange(100, 108, dtype=np.int64),
        "text": pa.array(["seen one", "fresh a", "", "fresh b", None,
                          "seen two", "fresh a", "fresh c"]),
    })
    idx = str(tmp_path / "idx")
    build_hash_index(rd.from_arrow(old).repartition(3), idx, num_shards=4)
    got = (dedup_against_index(rd.from_arrow(new).repartition(3), idx,
                               mode=mode)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    con = duckdb.connect()
    con.register("old", old)
    con.register("new", new)
    want = con.sql("""
        SELECT * FROM new WHERE text IS NULL OR text NOT IN (
          SELECT text FROM old WHERE text IS NOT NULL)
        ORDER BY doc_id""").df()
    pd.testing.assert_frame_equal(got, want)
    # within-snapshot duplicates are NOT collapsed (both "fresh a" kept)
    assert (got["text"] == "fresh a").sum() == 2
    # verdicts: seen flags exactly the indexed texts, null text never seen
    v = (index_verdicts(rd.from_arrow(new), idx, mode=mode)
         .to_pandas().sort_values("doc_id"))
    assert list(v["seen"]) == [True, False, True, False, False,
                               True, False, False]

    # appendable: index the new snapshot too -> everything now seen
    build_hash_index(rd.from_arrow(new), idx, num_shards=4)
    again = dedup_against_index(rd.from_arrow(new), idx,
                                mode=mode).to_pandas()
    assert list(again["doc_id"]) == [104]  # only the null-text row


def test_dedup_against_index_broadcast_cap(ray_session, tmp_path):
    import ray.data as rd

    from logray.functions.dedup_incremental import (build_hash_index,
                                                    index_verdicts)

    t = pa.table({"doc_id": np.arange(10, dtype=np.int64),
                  "text": pa.array([f"t{i}" for i in range(10)])})
    idx = str(tmp_path / "idx")
    build_hash_index(rd.from_arrow(t), idx, num_shards=2)
    with pytest.raises(ValueError, match="max_broadcast"):
        index_verdicts(rd.from_arrow(t), idx, mode="broadcast",
                       max_broadcast=3)
    with pytest.raises(ValueError, match="unknown mode"):
        index_verdicts(rd.from_arrow(t), idx, mode="bogus")
    # a dir that is not an index refuses instead of scoring all-new
    with pytest.raises(ValueError, match="not a fingerprint index"):
        index_verdicts(rd.from_arrow(t), str(tmp_path / "nope"))
    # appending with a different shard count refuses
    with pytest.raises(ValueError, match="num_shards"):
        build_hash_index(rd.from_arrow(t), idx, num_shards=5)
    # fit/score dim mismatch in the LM refuses
    from logray.functions.lm import fit_ngram_lm, lm_perplexity
    fitted = fit_ngram_lm(rd.from_arrow(pa.table(
        {"doc_id": [1], "text": ["a b"]})), n=2, dim=256)
    with pytest.raises(ValueError, match="does not match the fitted"):
        lm_perplexity(rd.from_arrow(t), fitted, dim=512)


@pytest.mark.parametrize("mode", ["broadcast", "sharded"])
def test_near_dup_incremental_index(ray_session, tmp_path, mode):
    import ray.data as rd

    from logray.functions.neardup_incremental import (
        build_band_index, dedup_near_against_index,
        near_dup_ids_against_index)

    base = ("the quick brown fox jumps over the lazy dog and then "
            "runs far away into the deep green forest tonight")
    old = pa.table({
        "doc_id": np.arange(3, dtype=np.int64),
        "text": pa.array([base, "completely unrelated text body here", "ab"]),
    })
    new = pa.table({
        "doc_id": np.arange(100, 106, dtype=np.int64),
        "text": pa.array([
            base,                                   # exact copy -> matched
            base.replace("tonight", "tomorrow"),    # near copy
            "nothing in common with anything else at all whatsoever",
            "ab",    # short: shares the degenerate all-zero sig, NEVER matched
            None,    # null: never matched
            "zz",    # short
        ]),
    })
    idx = str(tmp_path / "bandidx")
    build_band_index(rd.from_arrow(old).repartition(2), idx, num_shards=4)
    got = (dedup_near_against_index(rd.from_arrow(new).repartition(3), idx,
                                    mode=mode)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    kept = set(got["doc_id"])
    assert 100 not in kept            # exact copy LSH-collides in every band
    assert 101 not in kept            # NEAR copy (1 word changed) matched too
    assert {102, 103, 104, 105} <= kept  # unrelated/short/null all kept
    ids = (near_dup_ids_against_index(rd.from_arrow(new), idx, mode=mode)
           .to_pandas()[ "doc_id"].drop_duplicates())
    assert set(ids) == set(new["doc_id"].to_pylist()) - kept
    # both modes agree with each other (checked via parametrize + this pin)
    other = (dedup_near_against_index(
        rd.from_arrow(new), idx,
        mode="sharded" if mode == "broadcast" else "broadcast")
        .to_pandas())
    assert set(other["doc_id"]) == kept
    # append: index the new snapshot; its own exact copies now match
    build_band_index(rd.from_arrow(new), idx, num_shards=4)
    again = dedup_near_against_index(rd.from_arrow(new), idx,
                                     mode=mode).to_pandas()
    # every long doc matches itself now; short/null stay
    assert set(again["doc_id"]) == {103, 104, 105}
    # parameter mismatch refuses (signatures not comparable)
    with pytest.raises(ValueError, match="would mix"):
        build_band_index(rd.from_arrow(new), idx, num_perm=32, num_shards=4)
    with pytest.raises(ValueError, match="not a band index"):
        near_dup_ids_against_index(rd.from_arrow(new),
                                   str(tmp_path / "nope"))
    # zero-match probe (the COMMON fresh-snapshot case): no crash, all kept
    fresh = pa.table({"doc_id": np.array([900], np.int64),
                      "text": pa.array(["entirely novel content never "
                                        "indexed before today"])})
    out = dedup_near_against_index(rd.from_arrow(fresh), idx,
                                   mode=mode).to_pandas()
    assert list(out["doc_id"]) == [900]


def test_artifact_persistence_roundtrips(ray_session, tmp_path):
    import ray.data as rd

    from logray.functions.cluster import kmeans_fit
    from logray.functions.dsir import dsir_weights, fit_hashed_bag
    from logray.functions.lm import fit_ngram_lm, lm_perplexity
    from logray.functions.tokenize import tokenize_bpe, train_bpe_on_dataset
    from logray.state.artifacts import (load_bag, load_bpe, load_centroids,
                                        load_ngram_lm, save_bag, save_bpe,
                                        save_centroids, save_ngram_lm)

    docs = rd.from_arrow(pa.table({
        "doc_id": np.arange(30, dtype=np.int64),
        "text": [f"the cat sat on mat number {i} tonight" for i in range(30)],
    }))

    fitted = fit_ngram_lm(docs, n=3, dim=512)
    save_ngram_lm(fitted, str(tmp_path / "lm.npz"))
    loaded = load_ngram_lm(str(tmp_path / "lm.npz"))
    assert loaded[1] == fitted[1]
    for a, b in zip(loaded[0], fitted[0]):
        np.testing.assert_array_equal(a, b)
    # a reloaded model scores BIT-identically
    a = lm_perplexity(docs, fitted).to_pandas().sort_values("doc_id")
    b = lm_perplexity(docs, loaded).to_pandas().sort_values("doc_id")
    pd.testing.assert_frame_equal(a.reset_index(drop=True),
                                  b.reset_index(drop=True))

    bag = fit_hashed_bag(docs, dim=256)
    save_bag(bag, str(tmp_path / "bag.npz"))
    lb = load_bag(str(tmp_path / "bag.npz"))
    np.testing.assert_array_equal(lb[0], bag[0])
    assert lb[1] == bag[1]
    w1 = dsir_weights(docs, docs, dim=256,
                      fitted=(bag, bag)).to_pandas().sort_values("doc_id")
    w2 = dsir_weights(docs, docs, dim=256,
                      fitted=(lb, lb)).to_pandas().sort_values("doc_id")
    pd.testing.assert_frame_equal(w1.reset_index(drop=True),
                                  w2.reset_index(drop=True))

    emb = rd.from_arrow(pa.table({
        "vec_id": np.arange(40, dtype=np.int64),
        "embedding": list(np.random.default_rng(7)
                          .standard_normal((40, 8)).astype(np.float32)),
    }))
    cent, _ = kmeans_fit(emb, 4, id_col="vec_id", iters=3)
    save_centroids(cent, str(tmp_path / "cent.npz"))
    np.testing.assert_array_equal(load_centroids(str(tmp_path / "cent.npz")),
                                  cent)

    bpe = train_bpe_on_dataset(docs, vocab_size=300)
    save_bpe(bpe, str(tmp_path / "bpe.json"))
    bpe2 = load_bpe(str(tmp_path / "bpe.json"))
    t1 = tokenize_bpe(docs, bpe).to_pandas().sort_values("doc_id")
    t2 = tokenize_bpe(docs, bpe2).to_pandas().sort_values("doc_id")
    pd.testing.assert_frame_equal(t1.reset_index(drop=True),
                                  t2.reset_index(drop=True))

    # loading the wrong artifact kind refuses instead of mis-scoring
    with pytest.raises(ValueError, match="expected"):
        load_bag(str(tmp_path / "lm.npz"))
    with pytest.raises(ValueError, match="expected"):
        load_ngram_lm(str(tmp_path / "cent.npz"))


def test_containment_pairs_doc_in_doc(ray_session):
    import ray.data as rd

    from logray.functions.dedup import containment_pairs

    # doc 1 fully quoted inside doc 2: Jaccard is low (2/7) but
    # containment of 1 in 2 is 1.0 — the case the miner exists for
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, 3], pa.int64()),
        "grp": ["g", "g", "g"],
        "text": ["alpha beta",
                 "alpha beta gamma delta epsilon zeta eta",
                 "omega psi chi"],
    }))
    out = containment_pairs(ds, "grp", threshold=0.99).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (int(r.id_a), int(r.id_b)) == (1, 2)
    assert r.cont_a == 1.0
    assert r.cont_b == pytest.approx(2 / 7)


def test_containment_pairs_fuzz_matches_duckdb(ray_session):
    import duckdb
    import ray.data as rd

    from logray.functions.dedup import containment_pairs, containment_pairs_sql

    rng = np.random.default_rng(11)
    words = [f"w{i}" for i in range(30)]
    texts = [" ".join(rng.choice(words, size=rng.integers(1, 15)))
             for _ in range(60)]
    t = pa.table({
        "doc_id": pa.array(np.arange(60, dtype=np.int64)),
        "lang": pa.array([["en", "fr"][i % 2] for i in range(60)]),
        "text": pa.array(texts),
    })
    con = duckdb.connect()
    con.register("docs", t)
    want = (con.sql(containment_pairs_sql("docs", "lang", threshold=0.5))
            .df().sort_values(["id_a", "id_b"]).reset_index(drop=True))
    got = (containment_pairs(rd.from_arrow(t).repartition(4), "lang",
                             threshold=0.5)
           .to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(
        got[want.columns.tolist()], want, check_dtype=False)


def test_sentence_split_matches_duckdb_and_bruteforce(ray_session):
    """Regex sentence segmentation: exact vs the DuckDB twin on the same
    RE2 pattern, including empty docs, null text, trailing boundaries
    and multi-punctuation runs."""
    import re

    import duckdb
    import pandas as pd
    import ray.data as rd

    from logray.functions.textclean import (
        DEFAULT_SENTENCE_RE,
        sentence_split,
        sentence_split_sql,
    )

    texts = [
        "One sentence. Two sentences! Three?? Four",
        "No boundary here",
        "",
        None,
        "Trailing boundary. ",
        "A.  B",  # double space after the period
        "Multi!?! runs...   collapse",
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    })
    got = (
        sentence_split(rd.from_arrow(tbl).repartition(3), "text", "doc_id")
        .to_pandas().sort_values(["doc_id", "sent_idx"]).reset_index(drop=True)
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    want = con.execute(sentence_split_sql("documents", "text", "doc_id")).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    # brute force: python re.split on the same pattern
    for i, txt in enumerate(texts):
        sub = got[got["doc_id"] == i]
        exp = re.split(DEFAULT_SENTENCE_RE, txt) if txt is not None else []
        assert list(sub["sentence"]) == exp
        assert list(sub["sent_idx"]) == list(range(1, len(exp) + 1))


def test_html_to_text_matches_duckdb_twin(ray_session):
    """HTML -> text extraction: byte-exact vs the DuckDB expression
    generated from the SAME step table, on adversarial markup (script
    bodies containing tags, comments, uppercase tags, attribute '>',
    entity double-escapes, nulls, no-markup docs)."""
    import duckdb
    import pandas as pd
    import ray.data as rd

    from logray.functions.textclean import (
        html_tag_count_expr,
        html_to_text,
        html_to_text_expr,
    )

    docs = [
        '<html><head><script type="a">if (1<2) { x = "</div>"; }</script>'
        '<style>p { color: red }</style></head><body><!-- c <b> -->'
        '<h1>Title</h1><p>Hello &amp;lt; &nbsp;world</p><br/>'
        '<div>A  B</div>tail</body></html>',
        "no markup at all",
        "<P>Upper</P><BR><LI>item</LI>",
        '<a href="x>y">link</a> &quot;q&quot; &#39;s&#39; &apos;t&apos;',
        '<br class="x">attrful-br<hr/><h3>hdr</h3>',
        "",
        None,
        "multi\n\n\n  lines\t\ttabs",
        "<ul><li>a</li><li>b</li></ul><table><tr><td>c</td></tr></table>",
        "<SCRIPT>evil()</SCRIPT>before<blockquote>q</blockquote>after",
    ]
    tbl = pa.table({
        "doc_id": pa.array(range(len(docs)), pa.int64()),
        "text": pa.array(docs, pa.string()),
    })
    got = (
        html_to_text(rd.from_arrow(tbl).repartition(3), "text")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
        [["doc_id", "n_tags", "clean_text"]]
    )
    con = duckdb.connect()
    con.register("documents", tbl)
    want = con.execute(
        f"SELECT doc_id, {html_tag_count_expr('text')} AS n_tags, "
        f"{html_to_text_expr('text')} AS clean_text "
        f"FROM documents ORDER BY doc_id").df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    # semantic pins (definitional chain, not just twin agreement)
    by_id = dict(zip(got["doc_id"], got["clean_text"]))
    assert by_id[0] == "Title\nHello &lt; world\nA B\ntail"
    assert by_id[2] == "Upper\nitem"
    assert by_id[8] == "a\nb\nc"
    # opening block tags strip silently; only CLOSING ones break
    assert by_id[9] == "beforeq\nafter"
    assert by_id[1] == "no markup at all"


def test_snapshot_diff_matches_duckdb(ray_session):
    """Snapshot diff over (id, text fingerprint) rows: exact vs the FULL
    OUTER JOIN text-comparison twin (which also proves the 128-bit hash path
    collision-free here), including null-text transitions, string ids,
    the include_unchanged flag and the duplicate-id guard."""
    import duckdb
    import pandas as pd
    import pytest
    import ray.data as rd

    from logray.functions.snapshot import snapshot_diff, snapshot_diff_sql

    old = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5, 6, 7], pa.int64()),
        "text": pa.array(["a", "b", None, "", "same", "x", None]),
    })
    # 1 removed; 2 changed; 3 null->text; 4 ""->null (null vs "" must
    # differ); 5 unchanged; 6 unchanged; 7 null->null (unchanged); 8 added
    new = pa.table({
        "doc_id": pa.array([2, 3, 4, 5, 6, 7, 8], pa.int64()),
        "text": pa.array(["B", "now", None, "same", "x", None, "fresh"]),
    })
    con = duckdb.connect()
    con.register("old_t", old)
    con.register("new_t", new)
    for inc in (False, True):
        got = (snapshot_diff(rd.from_arrow(old).repartition(3),
                             rd.from_arrow(new).repartition(2),
                             num_buckets=4, include_unchanged=inc)
               .to_pandas().sort_values("doc_id")
               .reset_index(drop=True))
        want = con.execute(snapshot_diff_sql(
            "old_t", "new_t", include_unchanged=inc)).df()
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
    assert set(got[got["status"] == "unchanged"]["doc_id"]) == {5, 6, 7}

    # string ids route through the content-hash bucket path
    olds = pa.table({"doc_id": pa.array(["u1", "u2"]),
                     "text": pa.array(["a", "b"])})
    news = pa.table({"doc_id": pa.array(["u2", "u3"]),
                     "text": pa.array(["b2", "c"])})
    con.register("old_s", olds)
    con.register("new_s", news)
    got = (snapshot_diff(rd.from_arrow(olds), rd.from_arrow(news),
                         num_buckets=4)
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    want = con.execute(snapshot_diff_sql("old_s", "new_s")).df()
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

    # duplicate id within one snapshot -> loud refusal
    dup = pa.table({"doc_id": pa.array([1, 1], pa.int64()),
                    "text": pa.array(["a", "b"])})
    with pytest.raises(Exception, match="snapshot-unique"):
        snapshot_diff(rd.from_arrow(dup), rd.from_arrow(new),
                      num_buckets=2).to_pandas()


def test_content_hash_sql_twin_bit_exact(ray_session):
    """content_hash_sql replays FNV-1a byte-for-byte in a recursive
    CTE — exact on multi-byte UTF-8, empty strings, and the signed
    int64 wrap the stage emits."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from logray.functions.fingerprint import content_hash, content_hash_sql

    texts = ["hello", "", "héllo wörld", "a" * 500, "日本語テキスト",
             "tab\tand\nnewline", None]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    con = duckdb.connect()
    con.register("docs_t", df)
    want = con.execute(content_hash_sql("docs_t")
                       + " ORDER BY doc_id").fetchdf()
    valid = df[df["text"].notna()]
    got = content_hash(pa.array(valid["text"])).astype(np.int64)
    assert want["doc_id"].tolist() == valid["doc_id"].tolist()
    assert want["content_hash"].tolist() == got.tolist()


def test_simhash_sql_twin_bit_exact(ray_session):
    """simhash_sql replays the k-byte shingle hash (closed form) and
    the 64 bit-majority votes exactly, including the FNV sentinel for
    rows shorter than k bytes and the signed-int64 wrap."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from logray.functions.fingerprint import simhash, simhash_sql

    texts = ["hello world hello world", "ab", "", "héllo wörld héllo",
             "x" * 300, "abc", "abcd", None]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    con = duckdb.connect()
    con.register("docs_t", df)
    for k in (4, 5):
        want = con.execute(simhash_sql("docs_t", k=k)
                           + " ORDER BY doc_id").fetchdf()
        valid = df[df["text"].notna()]
        got = simhash(pa.array(valid["text"]), k).astype(np.int64)
        assert want["doc_id"].tolist() == valid["doc_id"].tolist(), k
        assert want["simhash"].tolist() == got.tolist(), k


def test_minhash_pairs_sql_twin_matches(ray_session):
    """minhash_pairs_sql reproduces the LSH pair set exactly —
    permutation mins, band folds, bucket collision, and the agreement
    verify all replayed in SQL — on a corpus with planted near-dups;
    and the hot-bucket loud guard empties the result rather than
    diverging silently."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logray.functions.dedup import minhash_lsh_dedup
    from logray.functions.fingerprint import minhash_pairs_sql

    rng = np.random.default_rng(9)
    base = ["the quick brown fox jumps over the lazy dog " * 3,
            "pack my box with five dozen liquor jugs " * 3,
            "how vexingly quick daft zebras jump " * 3]
    texts = []
    for i in range(30):
        t = base[i % 3]
        if i % 5 == 0:
            t = t + " tail" + str(rng.integers(10))  # near-dup variants
        texts.append(t)
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    got = minhash_lsh_dedup(rd.from_pandas(df), num_perm=64, bands=16,
                            k=5, threshold=0.8).to_pandas()
    got = (got[["id_a", "id_b"]].astype("int64")
           .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    con = duckdb.connect()
    con.register("docs_t", df)
    want = con.execute(minhash_pairs_sql("docs_t", num_perm=64, bands=16,
                                         k=5, threshold=0.8)
                       + " ORDER BY id_a, id_b").fetchdf()
    assert len(got) > 10  # the corpus actually produces pairs
    assert got.values.tolist() == want.values.tolist()
    # loud guard: max_bucket=1 forces every collision bucket "hot"
    hot = con.execute(minhash_pairs_sql("docs_t", num_perm=64, bands=16,
                                        k=5, threshold=0.8,
                                        max_bucket=1)).fetchdf()
    assert len(hot) == 0


def test_simhash_pairs_sql_twin_matches(ray_session):
    """simhash_pairs_sql reproduces the pigeonhole-chunk + popcount
    pair set exactly, and the hot-bucket loud guard empties the result
    rather than diverging."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from logray.functions.dedup import simhash_dedup
    from logray.functions.fingerprint import simhash_pairs_sql

    base = "the quick brown fox jumps over the lazy dog and runs away"
    texts = [base, base + "!", base.replace("lazy", "hazy"),
             "completely different text about data processing engines",
             base + " twice " + base, ""]
    texts = texts * 3  # exact repeats -> hamming 0 pairs
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    got = simhash_dedup(rd.from_pandas(df), max_hamming=3).to_pandas()
    got = (got[["id_a", "id_b"]].astype("int64")
           .sort_values(["id_a", "id_b"]).reset_index(drop=True))
    con = duckdb.connect()
    con.register("docs_t", df)
    want = con.execute(simhash_pairs_sql("docs_t", max_hamming=3)
                       + " ORDER BY id_a, id_b").fetchdf()
    assert len(got) > 5
    assert got.values.tolist() == want.values.tolist()
    hot = con.execute(simhash_pairs_sql("docs_t", max_hamming=3,
                                        max_bucket=1)).fetchdf()
    assert len(hot) == 0


def test_band_rows_sql_matches_band_hashes(ray_session):
    """band_rows_sql emits exactly the operator's (id, band_id, hash)
    LSH band rows — the shared primitive behind the minhash-pairs and
    incremental-index oracles."""
    import duckdb
    import numpy as np
    import pandas as pd
    import pyarrow as pa

    from logray.functions.fingerprint import (band_hashes, band_rows_sql,
                                              minhash_signatures)

    texts = ["the quick brown fox", "", "ab", "the quick brown fax"]
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    sig = minhash_signatures(pa.array(df["text"]), num_perm=64, k=5, seed=1)
    bh = band_hashes(sig, 16)
    want = {(int(i), b, int(bh[i, b]))
            for i in range(len(texts)) for b in range(16)}
    con = duckdb.connect()
    con.register("docs_t", df)
    got = con.execute(band_rows_sql("docs_t")).fetchall()
    got = {(int(i), int(b), int(h)) for i, b, h in got}
    assert got == want
