"""Evaluation metrics: approximation error, recommendation quality, clustering.

Clustering accuracy maps predicted to true labels through an optimal
assignment on the contingency matrix before counting matches; NMI is
normalised by the larger of the two partition entropies (natural logs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .exceptions import (
    EmptyMaskError,
    LengthMismatchError,
    NoObservedRatingsError,
    ShapeMismatchError,
    TooFewPointsError,
)
from .matrix import (
    ObservedCells,
    as_array,
    as_mask,
    check_factors,
    frobenius_sq_diff,
    matrix_divergence,
)


@dataclass
class ClusterAssignment:
    """Cluster labels in [1, k], one per data point."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.size and (self.labels.min() < 1 or self.labels.max() > self.k):
            raise LengthMismatchError(f"labels must lie in [1, {self.k}]")


class F1Result(NamedTuple):
    f1: float
    precision: float
    recall: float
    undefined: bool


def _fit(v, w, h, mask) -> tuple[np.ndarray, np.ndarray]:
    """``v`` and W @ H: at the observed cells only when masked, else dense."""
    va, wa, ha = as_array(v), as_array(w), as_array(h)
    if mask is None:
        check_factors(va.shape, wa, ha)
        return va, wa @ ha
    cells = ObservedCells(va, mask)
    return cells.v, cells.model(wa, ha)


def msl(v, w, h, mask=None) -> float:
    """Mean squared loss: squared residual sum divided by the full N*M."""
    return frobenius_sq_diff(*_fit(v, w, h, mask)) / as_array(v).size


def md(v, w, h, mask=None) -> float:
    """Mean divergence: generalised KL residual divided by the full N*M."""
    return matrix_divergence(*_fit(v, w, h, mask)) / as_array(v).size


def rmse(v, wh, mask) -> float:
    """Root mean squared error over the masked (held-out) entries."""
    va, wa, ma = as_array(v), as_array(wh), as_mask(mask)
    if ma.count == 0:
        raise EmptyMaskError("mask selects no entries")
    if not va.shape == wa.shape == ma.shape:
        raise ShapeMismatchError(f"shapes {va.shape}, {wa.shape} and mask {ma.shape} differ")
    return float(np.sqrt(frobenius_sq_diff(va.take(ma.flat), wa.take(ma.flat)) / ma.count))


def f1_score(v_true, predicted, observed_mask, heldout_mask) -> F1Result:
    """Micro-averaged F1 of recommend/not decisions on held-out cells.

    Each user's threshold is the mean of their observed (training) ratings;
    items rated strictly above it count as recommended.  The same threshold
    binarises the true held-out ratings and the model's predictions.
    """
    v, p = as_array(v_true), as_array(predicted)
    om, hm = as_mask(observed_mask), as_mask(heldout_mask)
    if not (v.shape == p.shape == om.shape == hm.shape):
        raise LengthMismatchError("ratings, predictions and masks must share a shape")
    n, m = v.shape
    obs_user, held_user = om.flat // m, hm.flat // m
    obs_count = np.bincount(obs_user, minlength=n)
    missing = held_user[obs_count[held_user] == 0]
    if missing.size:
        raise NoObservedRatingsError(int(missing[0]))
    thresholds = np.divide(np.bincount(obs_user, weights=v.take(om.flat), minlength=n),
                           obs_count, out=np.zeros(n), where=obs_count > 0)[held_user]
    true_rec = v.take(hm.flat) > thresholds
    pred_rec = p.take(hm.flat) > thresholds
    tp = int(np.sum(true_rec & pred_rec))
    fp = int(np.sum(~true_rec & pred_rec))
    fn = int(np.sum(true_rec & ~pred_rec))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0:
        return F1Result(0.0, precision, recall, True)
    return F1Result(2 * precision * recall / (precision + recall), precision, recall, False)


def kmeans(points, k: int, seed: int = 0, max_iters: int = 100) -> ClusterAssignment:
    """Lloyd iterations from k-means++ seeding over the columns of ``points``.

    Deterministic per seed.  A cluster that empties is re-seeded to the point
    farthest from its assigned centroid.
    """
    x = as_array(points).T
    npts = x.shape[0]
    if k < 1 or k > npts:
        raise TooFewPointsError(f"need 1 <= k <= {npts}, got k={k}")
    rng = np.random.default_rng(seed)

    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(npts)]
    closest = ((x - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total > 0:
            idx = rng.choice(npts, p=closest / total)
        else:
            # all remaining points coincide with a chosen centre
            idx = rng.integers(npts)
        centers[j] = x[idx]
        closest = np.minimum(closest, ((x - centers[j]) ** 2).sum(axis=1))

    labels = np.full(npts, -1)
    for _ in range(max_iters):
        d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1)
        new_labels = d2.argmin(axis=1)
        for c in range(k):
            if not np.any(new_labels == c):
                far = int(np.argmax(d2[np.arange(npts), new_labels]))
                centers[c] = x[far]
                new_labels[far] = c
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = x[labels == c]
            if members.size:
                centers[c] = members.mean(axis=0)
    return ClusterAssignment(labels + 1, k)


def _label_array(x) -> np.ndarray:
    if isinstance(x, ClusterAssignment):
        return x.labels
    return np.asarray(x, dtype=int)


def _contingency(pred, truth) -> np.ndarray:
    lp, lt = _label_array(pred), _label_array(truth)
    if lp.shape != lt.shape:
        raise LengthMismatchError(f"label lengths {lp.shape} vs {lt.shape}")
    up, ut = np.unique(lp), np.unique(lt)
    cont = np.zeros((up.size, ut.size))
    ip = np.searchsorted(up, lp)
    it = np.searchsorted(ut, lt)
    np.add.at(cont, (ip, it), 1.0)
    return cont


def clustering_accuracy(pred, truth) -> float:
    """Fraction of points matched under the best one-to-one label mapping."""
    cont = _contingency(pred, truth)
    size = max(cont.shape)
    padded = np.zeros((size, size))
    padded[: cont.shape[0], : cont.shape[1]] = cont
    rows, cols = linear_sum_assignment(-padded)
    return float(padded[rows, cols].sum() / cont.sum())


def nmi(pred, truth) -> float:
    """Mutual information normalised by the larger partition entropy.

    1.0 for identical partitions up to relabelling (including the
    both-trivial case); 0.0 when one side is a single cluster and the other
    is not.
    """
    cont = _contingency(pred, truth)
    n = cont.sum()
    pij = cont / n
    pi = pij.sum(axis=1)
    pj = pij.sum(axis=0)
    hp = float(-np.sum(pi[pi > 0] * np.log(pi[pi > 0])))
    ht = float(-np.sum(pj[pj > 0] * np.log(pj[pj > 0])))
    if hp == 0.0 and ht == 0.0:
        return 1.0
    nz = pij > 0
    mi = float(np.sum(pij[nz] * np.log(pij[nz] / np.outer(pi, pj)[nz])))
    return max(0.0, mi) / max(hp, ht)
