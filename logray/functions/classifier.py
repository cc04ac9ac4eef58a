"""Trained quality classifier: distributed logistic regression over
hashed text features (the fastText-style quality filter of CCNet /
GPT-3 / LLaMA data pipelines, reduced to its load-bearing core — a
linear model over hashed unigram+bigram bags, trained and scored
entirely inside Ray Data).

Scale shape — nothing here shuffles:

- features are the shared vectorized hashed unigram+bigram kernel
  (:func:`logray.functions.dsir._feature_buckets`): lower + split +
  FNV, L1-normalized per document (each document contributes its MEAN
  feature embedding, the fastText recipe);
- training is full-batch gradient descent with heavy-ball momentum:
  each epoch is ONE streaming
  ``map_batches`` pass with the current weight vector broadcast in the
  task closure; every batch emits a fixed ``(dim+1)``-length float64
  gradient partial + loss/count scalars; the driver folds partials in a
  canonical order (sorted by each partial's min row id) so the update —
  and hence the fitted model — is reproducible for a given input layout
  regardless of task scheduling;
- scoring is a per-batch scatter-add against the broadcast weights —
  row-local, fuses into the read.

An epoch costs one pass over the corpus and ships only ``O(dim)`` bytes
per block to the driver, so the 100 TB path is bounded by read
bandwidth; broadcast weights are KBs.  Full-batch GD (not SGD) is the
deliberate choice: the gradient is a pure sum over rows, which is what
makes the computation partition-invariant and retry-safe.

Reference parity: the fit/score two-phase shape mirrors the reference's
rescan-per-statistic loop (`src/file_parsing/filtered_file_reader.cpp`
re-walks the file when the filter config changes); the broadcast weight
vector plays the role of the recompiled filter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from logray.functions.dsir import _feature_buckets

__all__ = ["LogRegModel", "fit_logreg", "score_logreg"]


@dataclass
class LogRegModel:
    """Fitted model: hashed-feature weights + bias + fit diagnostics."""

    weights: np.ndarray          # float64[dim]
    bias: float
    dim: int
    losses: list[float]          # mean log-loss per epoch (fit curve)
    features: str = "mean"       # feature mode the model was fitted with


def _doc_features(t: pa.Table, text_col: str, dim: int,
                  features: str = "mean"):
    """(parent_row, bucket, value) triples.

    ``features="mean"``: L1-normalized occurrence counts (each document
    is its mean feature embedding — the fastText recipe; margins shrink
    as 1/doc_len).  ``features="binary"``: L2-normalized distinct
    presence, value 1/sqrt(n_active) per (doc, bucket) — every document
    is a unit vector, so gradient steps are stable at any length
    (lambda_max(X'X/n) <= 1) and a rare marker feature keeps a
    1/sqrt(len) margin instead of the mean mode's 1/len."""
    parent, bucket = _feature_buckets(t, text_col, dim)
    if features == "binary":
        key = parent.astype(np.uint64) * np.uint64(dim) + bucket.astype(np.uint64)
        key = np.unique(key)
        parent = (key // np.uint64(dim)).astype(np.int64)
        bucket = (key % np.uint64(dim)).astype(np.int64)
        n_active = np.bincount(parent, minlength=t.num_rows).astype(np.float64)
        safe = np.where(n_active == 0, 1.0, n_active)
        return parent, bucket, 1.0 / np.sqrt(safe[parent])
    if features != "mean":
        raise ValueError(f"unknown features mode {features!r}")
    n_rows = t.num_rows
    per_doc = np.bincount(parent, minlength=n_rows).astype(np.float64)
    # docs with zero features contribute only the bias
    safe = np.where(per_doc == 0, 1.0, per_doc)
    val = 1.0 / safe[parent]
    return parent, bucket, val


def _fold_partials(df: pd.DataFrame) -> pd.DataFrame:
    """Combine a batch of gradient partials into one (tree_fold stage).
    Sums within the batch in sorted-key order; keeps the min key so the
    driver's canonical fold order still applies across combined rows."""
    df = df.sort_values("key", kind="mergesort")
    gw = np.zeros(len(np.frombuffer(df["gw"].iloc[0], dtype=np.float64)),
                  dtype=np.float64)
    for blob in df["gw"]:
        gw += np.frombuffer(blob, dtype=np.float64)
    return pd.DataFrame({
        "key": [df["key"].iloc[0]], "n": [int(df["n"].sum())],
        "gw": [gw.tobytes()], "gb": [float(df["gb"].sum())],
        "loss": [float(df["loss"].sum())],
    })


def _forward(parent, bucket, val, n_rows, w, b):
    z = np.full(n_rows, b, dtype=np.float64)
    np.add.at(z, parent, val * w[bucket])
    return z


def fit_logreg(ds, label_col: str, text_col: str = "text", dim: int = 4096,
               epochs: int = 30, lr: float = 2.0, l2: float = 1e-6,
               id_col: str | None = None, tree_fold: bool = False,
               features: str = "mean", momentum: float = 0.9,
               checkpoint_path: str | None = None) -> LogRegModel:
    """Full-batch distributed logistic regression.

    ``label_col`` must be boolean/0-1.  ``id_col`` (any orderable column,
    defaults to the first column) only canonicalizes the driver-side
    fold order of the per-batch partials — it never leaves the workers.

    The driver fold ships one ``(dim+1)``-float64 partial per block per
    epoch — fine up to ~10^4 blocks.  Past that (the 100 TB regime),
    set ``tree_fold=True``: a distributed combine stage sums groups of
    64 partials before they reach the driver, cutting driver traffic
    64x per level at the cost of bit-determinism (float association
    then depends on which partials co-batch; results agree to ~1e-12,
    asserted in tests).

    ``checkpoint_path``: persist (weights, velocity, losses) after every
    epoch (atomic rename).  A re-run with the same path resumes from the
    last completed epoch and produces THE SAME final model, bitwise, as
    an uninterrupted fit — each epoch over 100 TB is a full corpus pass,
    so a fit that dies at epoch 28/30 must not restart from zero.  The
    checkpoint stores the fit config (hyperparameters + column names)
    and refuses to resume under a different one.  It CANNOT tell two
    corpora apart: the path identifies the (dataset, fit) pair — use a
    distinct path per corpus, or a completed checkpoint from the old
    corpus is returned as-is with zero passes over the new one.
    """
    w = np.zeros(dim, dtype=np.float64)
    b = 0.0
    vw = np.zeros(dim, dtype=np.float64)  # heavy-ball velocity
    vb = 0.0
    losses: list[float] = []
    start_epoch = 0
    cfg = dict(dim=dim, lr=lr, l2=l2, features=features, momentum=momentum,
               tree_fold=tree_fold, label_col=label_col, text_col=text_col,
               id_col=id_col)
    if checkpoint_path is not None:
        state = _load_fit_checkpoint(checkpoint_path, cfg)
        if state is not None:
            w, b, vw, vb, losses, start_epoch = state

    for _epoch in range(start_epoch, epochs):
        cur_w, cur_b = w, b  # broadcast via closure, read-only per task

        def grad_part(t: pa.Table) -> pd.DataFrame:
            t = t.filter(pc.is_valid(t[text_col]))
            # null-text rows are dropped above; a null label on a row
            # that WOULD train poisons every gradient bucket with NaN
            if t[label_col].null_count:
                raise ValueError(
                    "fit_logreg: null labels poison the gradient — filter "
                    f"rows where {label_col!r} is null before fitting")
            n = t.num_rows
            key_col = id_col or t.column_names[0]
            key = str(t[key_col][0].as_py()) if n else ""
            if n == 0:
                z = np.zeros(0)
                parent = bucket = np.zeros(0, np.int64)
                val = np.zeros(0)
                y = np.zeros(0)
            else:
                parent, bucket, val = _doc_features(t, text_col, dim, features)
                y = pc.cast(t[label_col], pa.float64()).to_numpy(
                    zero_copy_only=False)
                z = _forward(parent, bucket, val, n, cur_w, cur_b)
            p = 1.0 / (1.0 + np.exp(-z))
            err = p - y
            gw = np.zeros(dim, dtype=np.float64)
            np.add.at(gw, bucket, val * err[parent])
            gb = float(err.sum())
            # stable log-loss: log(1+e^z) - y*z
            loss = float(np.sum(np.logaddexp(0.0, z) - y * z))
            return pd.DataFrame({
                "key": [key], "n": [n], "gw": [gw.tobytes()],
                "gb": [gb], "loss": [loss],
            })

        grads = ds.map_batches(grad_part, batch_format="pyarrow",
                               zero_copy_batch=True, batch_size=None)
        if tree_fold:
            grads = grads.map_batches(_fold_partials, batch_format="pandas",
                                      batch_size=64)
        parts = grads.to_pandas()
        parts = parts.sort_values("key", kind="mergesort")
        n_total = int(parts["n"].sum())
        gw = np.zeros(dim, dtype=np.float64)
        gb = 0.0
        loss = 0.0
        for _, row in parts.iterrows():
            gw += np.frombuffer(row["gw"], dtype=np.float64)
            gb += row["gb"]
            loss += row["loss"]
        if n_total == 0:
            raise ValueError("fit_logreg: no labeled rows")
        vw = momentum * vw - lr * (gw / n_total + l2 * w)
        vb = momentum * vb - lr * (gb / n_total)
        w = w + vw
        b = b + vb
        losses.append(loss / n_total)
        if checkpoint_path is not None:
            _save_fit_checkpoint(checkpoint_path, cfg, w, b, vw, vb,
                                 losses, _epoch + 1)

    return LogRegModel(weights=w, bias=b, dim=dim, losses=losses,
                       features=features)


def _save_fit_checkpoint(path, cfg, w, b, vw, vb, losses, epoch) -> None:
    import json

    from logray.state.artifacts import _savez

    _savez(path, __kind="logreg_fit_ckpt",
           cfg=json.dumps(cfg, sort_keys=True), epoch=epoch,
           w=w, b=b, vw=vw, vb=vb, losses=np.asarray(losses))


def _load_fit_checkpoint(path, cfg):
    import json
    import os

    if not os.path.exists(path):
        return None
    with np.load(path) as d:
        if str(d["__kind"]) != "logreg_fit_ckpt":
            raise ValueError(f"{path} is not a fit checkpoint")
        saved = str(d["cfg"])
        if saved != json.dumps(cfg, sort_keys=True):
            raise ValueError(
                "fit_logreg: checkpoint was written under a different fit "
                f"config ({saved}) — refusing to resume; delete it or match "
                "the parameters")
        return (d["w"], float(d["b"]), d["vw"], float(d["vb"]),
                [float(x) for x in d["losses"]], int(d["epoch"]))


def score_logreg(ds, model: LogRegModel, text_col: str = "text",
                 prob_col: str = "quality_prob", pred_col: str = "quality_pred",
                 threshold: float = 0.5, features: str | None = None):
    """Append probability + boolean prediction columns (row-local).

    ``features`` defaults to THE MODE THE MODEL WAS FITTED WITH
    (``model.features``) — scoring binary-fit weights with mean features
    silently produces garbage, so only override deliberately."""
    w, b, dim = model.weights, model.bias, model.dim
    if features is None:
        features = model.features

    def score(t: pa.Table) -> pa.Table:
        n = t.num_rows
        if n == 0:
            z = np.zeros(0)
        else:
            parent, bucket, val = _doc_features(t, text_col, dim, features)
            z = _forward(parent, bucket, val, n, w, b)
        p = 1.0 / (1.0 + np.exp(-z))
        for name, arr in [(prob_col, pa.array(p, type=pa.float64())),
                          (pred_col, pa.array(p >= threshold))]:
            if name in t.column_names:
                t = t.drop_columns([name])
            t = t.append_column(name, arr)
        return t

    return ds.map_batches(score, batch_format="pyarrow",
                          zero_copy_batch=True, batch_size=None)
