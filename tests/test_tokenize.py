"""BPE tokenization: the engine path vs a pinned fixture (vocab + expected
ids computed by an independent naive reference at fixture-creation time)
plus property checks (losslessness, contract parity, trainer determinism)."""

import json
import math
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from logray.functions.tokenize import (
    ByteBPE,
    _CLS,
    _WS,
    _resolve_bpe,
    _tokenize_fn,
    chunk_documents_tokens,
    pretokenize_spans,
    tokenize_bpe,
    train_bpe,
    train_bpe_on_dataset,
    word_frequencies,
)
from logray.vparse import _string_buffer_views

FIX = os.path.join(os.path.dirname(__file__), "fixtures")


def naive_pretok(bs: bytes):
    """Independent per-byte reference of the pre-tokenization contract."""
    cls = [_CLS[b] for b in bs]
    toks, i, n = [], 0, len(bs)
    while i < n:
        j = i
        while j < n and cls[j] == cls[i]:
            j += 1
        toks.append((i, j))
        i = j
    out, k = [], 0
    while k < len(toks):
        a, b = toks[k]
        if (b - a == 1 and bs[a] == 0x20 and k + 1 < len(toks)
                and cls[toks[k + 1][0]] != _WS):
            out.append((a, toks[k + 1][1]))
            k += 2
        else:
            out.append((a, b))
            k += 1
    return [bs[a:b] for a, b in out]


@pytest.fixture(scope="module")
def pinned_bpe():
    with open(os.path.join(FIX, "bpe_vocab.json")) as f:
        return ByteBPE.from_json(f.read())


def test_pretokenize_matches_naive_and_partitions():
    texts = ["hello world", "  double  space", "a1b2 c3!? d", "",
             "é¢漢 字x  ok", " lead", "tail ", "multi\nline ok", "x",
             "a \t b", "   ", "one two  three   four"]
    t = pa.table({"text": texts})
    data, starts, ends = _string_buffer_views(t["text"].combine_chunks())
    s, e, rid = pretokenize_spans(data, starts, ends)
    bts = data.tobytes()
    got: dict = {}
    for a, b, r in zip(s.tolist(), e.tolist(), rid.tolist()):
        got.setdefault(r, []).append(bts[a:b])
    for r, txt in enumerate(texts):
        want = naive_pretok(txt.encode())
        assert got.get(r, []) == want, (r, txt)
        # pre-tokens PARTITION the byte string (lossless)
        assert b"".join(got.get(r, [])) == txt.encode()


def test_encode_matches_pinned_fixture(pinned_bpe):
    exp = pq.read_table(os.path.join(FIX, "bpe_expected.parquet"))
    texts = exp["text"].to_pylist()
    want = exp["token_ids"].to_pylist()
    lst, per_row = pinned_bpe.encode_table(pa.table({"text": texts}), "text")
    got = lst.to_pylist()
    assert got == want
    assert per_row.tolist() == [len(w) for w in want]
    # decode is lossless for every fixture row
    for ids, txt in zip(got, texts):
        assert pinned_bpe.decode(ids) == txt


def test_trainer_deterministic_and_merge_order():
    wf = {b"aaab": 10, b"aab": 5, b"bba": 3}
    b1 = train_bpe(dict(wf), 8)
    b2 = train_bpe(dict(wf), 8)
    assert b1.merges == b2.merges
    # most frequent pair merges first: 'aa' appears 2*10 + 5 + ... times
    assert b1.merges[0] == (b"a", b"a")
    # every merge token is the concat of its parts and ids are stable
    for i, (a, b) in enumerate(b1.merges):
        assert b1.vocab[256 + i] == a + b


def test_tokenize_bpe_dataset_roundtrip(ray_session, pinned_bpe):
    import ray.data as rd

    texts = ["the quick brown fox", "unseen zebra!", "", "é¢漢 42",
             "assistant tool call result"] * 4
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    })).repartition(3)
    out = tokenize_bpe(ds, pinned_bpe).to_pandas().sort_values("doc_id")
    assert list(out.columns) == ["doc_id", "text", "token_ids", "n_tokens"]
    for _, r in out.iterrows():
        assert pinned_bpe.decode(r["token_ids"]) == r["text"]
        assert r["n_tokens"] == len(r["token_ids"])


def test_train_on_dataset_partition_invariant(ray_session):
    import ray.data as rd

    texts = [f"doc {i} says the cat sat on mat {i % 5}" for i in range(200)]
    t = pa.table({"text": texts})
    b1 = train_bpe_on_dataset(rd.from_arrow(t).repartition(1), vocab_size=300)
    b8 = train_bpe_on_dataset(rd.from_arrow(t).repartition(8), vocab_size=300)
    # word counts are summed, so training is partitioning-invariant
    assert b1.merges == b8.merges


def test_word_frequencies_matches_naive(ray_session):
    import ray.data as rd

    texts = ["a b a", "b  c", "a"]
    wf = word_frequencies(rd.from_arrow(pa.table({"text": texts})))
    want: dict = {}
    for s in texts:
        for w in naive_pretok(s.encode()):
            want[w] = want.get(w, 0) + 1
    assert wf == want


def test_chunk_documents_tokens_contract(ray_session, pinned_bpe):
    import ray.data as rd

    texts = ["the quick brown fox jumps over the lazy dog " * 8,
             "short", "", None,
             "é¢漢字 mixed 42! " * 12]
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts, pa.string()),
    }))
    max_t, ov = 16, 4
    step = max_t - ov
    ch = (chunk_documents_tokens(ds, pinned_bpe, max_tokens=max_t,
                                 overlap_tokens=ov)
          .to_pandas().sort_values(["doc_id", "chunk_idx"]))
    assert 3 not in set(ch["doc_id"])  # null text dropped
    for did, txt in enumerate(texts):
        if txt is None:
            continue
        full = pinned_bpe.encode(txt).tolist()
        T = len(full)
        n = max(math.ceil(max(T - ov, 0) / step), 1)
        rows = ch[ch.doc_id == did]
        assert len(rows) == n, (did, T)
        for _, r in rows.iterrows():
            i = r["chunk_idx"]
            want_ids = full[i * step: i * step + max_t]
            assert list(r["token_ids"]) == want_ids
            assert r["chunk_text"] == pinned_bpe.decode(want_ids)
        # chunks with overlap trimmed reconstruct the document's ids
        recon = []
        for _, r in rows.sort_values("chunk_idx").iterrows():
            ids = list(r["token_ids"])
            recon.extend(ids if r["chunk_idx"] == 0 else ids[ov:] if len(ids) > ov else ids[len(recon) - ov:])
        assert recon[:T] == full


def test_tokenize_cache_persists_across_batches(pinned_bpe):
    """A worker resolves one vocab JSON to one cached ByteBPE, whose
    encode cache carries over from batch to batch."""
    vocab = pinned_bpe.to_json()
    _tokenize_fn(pa.table({"text": ["the quick fox", "the lazy dog"]}), vocab)
    bpe = _resolve_bpe(vocab)
    n_cached = len(bpe._cache)
    assert n_cached > 0
    # all words already cached
    _tokenize_fn(pa.table({"text": ["the quick dog"]}), vocab)
    assert _resolve_bpe(vocab) is bpe
    assert len(bpe._cache) == n_cached


def test_vocab_json_roundtrip(pinned_bpe):
    b2 = ByteBPE.from_json(pinned_bpe.to_json())
    assert b2.merges == pinned_bpe.merges
    s = "roundtrip of strange bytes é¢漢 \x00\x7f"
    assert np.array_equal(b2.encode(s), pinned_bpe.encode(s))
    assert b2.decode(b2.encode(s)) == s


def test_detokenize_roundtrip_dataset(ray_session, pinned_bpe):
    import ray.data as rd

    from logray.functions.tokenize import detokenize

    texts = ["the quick brown fox", "", "é¢漢字 mixed 42!", "unseen zzz"] * 3
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), pa.int64()),
        "text": pa.array(texts),
    })).repartition(2)
    out = (detokenize(tokenize_bpe(ds, pinned_bpe), pinned_bpe)
           .to_pandas().sort_values("doc_id"))
    assert (out["text_decoded"] == out["text"]).all()


def test_factorize_spans_matches_object_grouping():
    # fuzz: hash-based span grouping must agree exactly with Python-object
    # grouping, including with a tiny chunk budget that forces the chunked
    # prefix-hash and chunked verification paths
    from logray.functions.tokenize import _factorize_spans, pretokenize_spans

    rng = np.random.default_rng(42)
    vocab = [b"the", b"cat", b"sat", b"  ", b"42", b"\xc3\xa9", b".", b"a"]
    rows = [
        b"".join(rng.choice(vocab, size=rng.integers(0, 30)).tolist())
        for _ in range(200)
    ]
    col = pa.array([r.decode("latin-1") for r in rows])
    data, starts, ends = _string_buffer_views(col)
    s, e, _ = pretokenize_spans(data, starts, ends)
    bts = data.tobytes()
    words = np.asarray([bts[a:b] for a, b in zip(s.tolist(), e.tolist())],
                       dtype=object)
    want_codes, want_uniq = pd.factorize(words, sort=False)
    for chunk in (1 << 24, 17):
        codes, first_idx, verified = _factorize_spans(data, s, e,
                                                      chunk_bytes=chunk)
        assert verified
        # same partition into groups and same representative bytes
        assert np.array_equal(codes, want_codes)
        got_uniq = [bts[s[i]:e[i]] for i in first_idx.tolist()]
        assert got_uniq == list(want_uniq)


def test_factorize_spans_collision_detection():
    # force every hash equal: verification must catch differing spans
    from logray.functions import tokenize as tk

    data = np.frombuffer(b"abcxyz", np.uint8)
    s = np.array([0, 3], np.int64)
    e = np.array([3, 6], np.int64)
    import logray.functions.sketch as sk

    real = sk._finalize
    try:
        sk._finalize = lambda v: np.zeros_like(v)
        codes, first_idx, verified = tk._factorize_spans(data, s, e)
        assert not verified
    finally:
        sk._finalize = real
