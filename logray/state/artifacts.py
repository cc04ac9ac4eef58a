"""Fitted-model artifact persistence — fit ONCE, reuse on every later
snapshot run.

The quality-selection operators all split into an expensive streaming
FIT over a reference corpus and a cheap row-local SCORE pass
(:func:`logray.functions.lm.fit_ngram_lm`,
:func:`logray.functions.dsir.fit_hashed_bag`,
:func:`logray.functions.cluster.kmeans_fit`,
:func:`logray.functions.tokenize.train_bpe_on_dataset`).  In the
continuous-crawl flow the fit must not re-run per snapshot: persist its
result next to the dedup indexes and load it back.

Format: one ``.npz`` per numeric artifact (dense numpy vectors — the
natural shape; parquet is for TABLES) with a ``__kind``/``__version``
marker so loading the wrong artifact type fails loudly instead of
mis-scoring; the BPE vocabulary reuses its canonical JSON form.
All load/save round-trips are BIT-exact: the fits are integer or
bit-deterministic by construction, so a reloaded model scores
identically to the in-memory one.

Reference parity: the reference persists its compiled format profiles
in ``~/.logram`` (``src/config/config.cpp``) for reuse across sessions;
these artifacts are the same idea for fitted models.
"""

from __future__ import annotations

import numpy as np

from logray.state.manifest import publish, publish_text

__all__ = [
    "save_ngram_lm", "load_ngram_lm",
    "save_bag", "load_bag",
    "save_centroids", "load_centroids",
    "save_bpe", "load_bpe",
    "save_logreg", "load_logreg",
    "save_pca", "load_pca",
]

_VERSION = 1


def _savez(path: str, **arrays) -> None:
    """Publish ``np.savez(**arrays)`` at EXACTLY ``path``: numpy appends
    .npz to a bare path name, never to an open file."""

    def write(tmp):
        with open(tmp, "wb") as f:
            np.savez(f, **arrays)

    publish(path, write)


def _check(d, kind: str) -> None:
    got = str(d["__kind"]) if "__kind" in d else None
    if got != kind:
        raise ValueError(f"artifact is {got!r}, expected {kind!r}")
    if int(d["__version"]) != _VERSION:
        raise ValueError(
            f"artifact version {int(d['__version'])} != {_VERSION}")


def save_ngram_lm(fitted, path: str) -> None:
    """Persist :func:`~logray.functions.lm.fit_ngram_lm`'s return value
    (per-order int64 count vectors + token total)."""
    counts, total = fitted
    _savez(path, __kind="ngram_lm", __version=_VERSION,
             total=np.int64(total), n=np.int64(len(counts)),
             **{f"c{k + 1}": counts[k] for k in range(len(counts))})


def load_ngram_lm(path: str):
    with np.load(path) as d:
        _check(d, "ngram_lm")
        n = int(d["n"])
        return [d[f"c{k + 1}"] for k in range(n)], int(d["total"])


def save_bag(bag, path: str) -> None:
    """Persist :func:`~logray.functions.dsir.fit_hashed_bag`'s return
    value (count vector + total)."""
    counts, total = bag
    _savez(path, __kind="hashed_bag", __version=_VERSION,
             counts=counts, total=np.int64(total))


def load_bag(path: str):
    with np.load(path) as d:
        _check(d, "hashed_bag")
        return d["counts"], int(d["total"])


def save_centroids(centroids: np.ndarray, path: str) -> None:
    """Persist a k-means centroid matrix
    (:func:`~logray.functions.cluster.kmeans_fit` / SemDeDup reuse)."""
    _savez(path, __kind="centroids", __version=_VERSION,
             centroids=np.asarray(centroids))


def load_centroids(path: str) -> np.ndarray:
    with np.load(path) as d:
        _check(d, "centroids")
        return d["centroids"]


def save_bpe(bpe, path: str) -> None:
    """Persist a trained ByteBPE vocabulary (its canonical JSON form)."""
    publish_text(path, bpe.to_json())


def load_bpe(path: str):
    from logray.functions.tokenize import ByteBPE

    with open(path) as f:
        return ByteBPE.from_json(f.read())


def save_logreg(model, path: str) -> None:
    """Persist a fitted quality classifier
    (:func:`~logray.functions.classifier.fit_logreg`): weights, bias,
    feature mode and the fit loss curve — a reloaded model scores
    bit-identically (train once on the labeled reference set, score
    every crawl snapshot)."""
    _savez(path, __kind="logreg", __version=_VERSION,
             weights=model.weights, bias=float(model.bias),
             dim=int(model.dim), losses=np.asarray(model.losses),
             features=model.features)


def load_logreg(path: str):
    from logray.functions.classifier import LogRegModel

    with np.load(path) as d:
        _check(d, "logreg")
        return LogRegModel(weights=d["weights"], bias=float(d["bias"]),
                           dim=int(d["dim"]),
                           losses=[float(x) for x in d["losses"]],
                           features=str(d["features"]))


def save_pca(model, path: str) -> None:
    """Persist a fitted PCA basis
    (:func:`~logray.functions.pca.fit_pca`)."""
    _savez(path, __kind="pca", __version=_VERSION,
             mean=model.mean, components=model.components,
             explained_variance=model.explained_variance,
             explained_variance_ratio=model.explained_variance_ratio,
             n_rows=int(model.n_rows))


def load_pca(path: str):
    from logray.functions.pca import PCAModel

    with np.load(path) as d:
        _check(d, "pca")
        return PCAModel(mean=d["mean"], components=d["components"],
                        explained_variance=d["explained_variance"],
                        explained_variance_ratio=d["explained_variance_ratio"],
                        n_rows=int(d["n_rows"]))
