"""ROC and precision-recall metrics for genuine/impostor score sets.

Scores are "higher means more genuine". The ROC sweep moves a threshold
through the distinct score values (ties grouped), always including (0, 0)
and (1, 1). pAUC(20%) is the trapezoidal area over false-positive rates in
(0, 0.2], normalized by 0.2 so a perfect classifier scores 1.0. AUPR is
the trapezoidal area of the interpolated precision-recall curve over
recall in [0, 1].
"""

from __future__ import annotations

import numpy as np

from .matrixio import DataError


def _check_scores(scores, labels):
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel().astype(bool)
    if scores.size != labels.size:
        raise DataError("scores and labels must have equal length")
    if scores.size == 0:
        raise DataError("empty score set")
    if np.any(np.isnan(scores)):
        raise DataError("scores contain NaN")
    return scores, labels


def _sweep(scores, labels):
    """Cumulative (genuine, total) counts at each distinct threshold,
    strictest first. Runs of equal sorted scores, infinite ones included,
    share one threshold."""
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    cut = np.append(np.flatnonzero(s[1:] != s[:-1]), s.size - 1)
    return np.cumsum(labels[order])[cut], cut + 1


def roc_curve(scores, labels) -> list[tuple[float, float]]:
    """Threshold sweep ROC as (fpr, tpr) points sorted by fpr.

    Requires both classes present. Equal scores are grouped under one
    threshold, so constant scores give the two-point diagonal.
    """
    scores, labels = _check_scores(scores, labels)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both genuine and impostor samples")
    tp, seen = _sweep(scores, labels)
    points = [(0.0, 0.0)] + list(zip((seen - tp) / n_neg, tp / n_pos))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    return points


def pr_curve(scores, labels) -> list[tuple[float, float]]:
    """Threshold sweep precision-recall as (recall, precision) points.

    The first point extends the strictest threshold's precision to recall
    0; the last point has recall 1 with precision equal to the genuine
    prevalence. Requires at least one genuine sample.
    """
    scores, labels = _check_scores(scores, labels)
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise DataError("precision-recall needs at least one genuine sample")
    tp, seen = _sweep(scores, labels)
    points = list(zip(tp / n_pos, tp / seen))
    return [(0.0, points[0][1])] + points


def _clip_roc(points, limit: float):
    """Curve nodes restricted to fpr <= limit, with an interpolated cut point."""
    kept = [(f, t) for f, t in points if f <= limit + 1e-15]
    last_f, last_t = kept[-1]
    if last_f < limit:
        after = next((p for p in points if p[0] > limit), None)
        if after is not None:
            f1, t1 = after
            t_cut = last_t + (t1 - last_t) * (limit - last_f) / (f1 - last_f)
            kept.append((limit, t_cut))
    return kept


def pauc20(roc_points) -> float:
    """Partial area under the ROC over fpr in (0, 0.2], normalized by 0.2."""
    if not roc_points:
        raise DataError("empty ROC curve")
    fpr = np.array([p[0] for p in roc_points], dtype=np.float64)
    if np.any(np.diff(fpr) < -1e-12):
        raise DataError("ROC points must be sorted by fpr")
    kept = _clip_roc(roc_points, 0.2)
    area = 0.0
    for (f0, t0), (f1, t1) in zip(kept[:-1], kept[1:]):
        area += 0.5 * (t0 + t1) * (f1 - f0)
    return float(area / 0.2)


def aupr(pr_points) -> float:
    """Area under the interpolated precision-recall curve over recall [0, 1]."""
    if not pr_points:
        raise DataError("empty precision-recall curve")
    recall = np.array([p[0] for p in pr_points], dtype=np.float64)
    if np.any(np.diff(recall) < -1e-12):
        raise DataError("PR points must be sorted by recall")
    area = 0.0
    for (r0, p0), (r1, p1) in zip(pr_points[:-1], pr_points[1:]):
        area += 0.5 * (p0 + p1) * (r1 - r0)
    return float(area)
