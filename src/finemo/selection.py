"""Feature analysis (Pearson correlation) and chi-squared percentile selection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from finemo.segmenter import EmotionLabel

# signed ordinal target encoding for correlation against the emotion label
TARGET_ENCODING = {
    EmotionLabel.PRECAUTION: -1.0,
    EmotionLabel.NEUTRAL: 0.0,
    EmotionLabel.OPPORTUNITY: 1.0,
}


class SelectionError(Exception):
    pass


def pearson(x, y) -> float:
    """Pearson correlation coefficient of two equal-length samples."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise SelectionError("samples must have equal length >= 2")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = math.sqrt(float(np.sum(dx * dx)))
    sy = math.sqrt(float(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise SelectionError("correlation undefined for zero-variance sample")
    return float(np.sum(dx * dy)) / (sx * sy)


@dataclass
class CorrelationReport:
    """Per-feature correlation against the encoded target.

    Constant features get no r value and are listed separately.
    """

    r_values: dict[int, float]
    constant: list[int]


def correlation_report(X, labels: list[EmotionLabel]) -> CorrelationReport:
    X = np.asarray(X, dtype=float)
    y = np.array([TARGET_ENCODING[l] for l in labels])
    r_values: dict[int, float] = {}
    constant: list[int] = []
    for j in range(X.shape[1]):
        col = X[:, j]
        if np.all(col == col[0]):
            constant.append(j)
            continue
        r_values[j] = pearson(col, y)
    return CorrelationReport(r_values=r_values, constant=constant)


class Chi2Counts:
    """The class-conditional feature sums that chi-squared scores, added one
    sample at a time, so that no sample needs to be held.

    Each cell adds its values in sample order. A class with no sample adds
    nothing to any score.
    """

    def __init__(self, n_classes: int, n_features: int):
        self.observed = np.zeros((n_classes, n_features))
        self.class_counts = np.zeros(n_classes, dtype=np.int64)

    def add(self, ci: int, idx, vals) -> None:
        """Add one sample of class ``ci``: its nonzero (columns, values),
        as in ``FeatureVector.arrays``, with no column twice."""
        vals = np.asarray(vals, dtype=float)
        if np.any(vals < 0):
            raise SelectionError("chi2 requires nonnegative feature values")
        self.observed[ci, np.asarray(idx, dtype=np.intp)] += vals
        self.class_counts[ci] += 1

    def scores(self) -> np.ndarray:
        """Per-feature chi-squared statistic: observed values are the sums,
        expected values assume class-independence. All-zero features score
        0."""
        if np.count_nonzero(self.class_counts) < 2:
            raise SelectionError("chi2 requires at least two classes")
        class_prob = self.class_counts / self.class_counts.sum()
        expected = np.outer(class_prob, self.observed.sum(axis=0))
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(expected > 0, (self.observed - expected) ** 2 / expected, 0.0)
        return terms.sum(axis=0)


def chi2_scores(rows, y, n_features: int) -> np.ndarray:
    """Per-feature chi-squared statistic for nonnegative sparse features.

    ``rows`` yields one (columns, values) pair of arrays per sample, as in
    ``FeatureVector.arrays``, and ``y`` holds its integer class id; classes
    are taken in sorted order. ``Chi2Counts`` adds the rows one at a time,
    so ``rows`` may be a generator.
    """
    classes, y_index = np.unique(np.asarray(y, dtype=int), return_inverse=True)
    counts = Chi2Counts(classes.size, n_features)
    for ci, (idx, vals) in zip(y_index.tolist(), rows, strict=True):
        counts.add(ci, idx, vals)
    return counts.scores()


def select_percentile(scores, percentile: int = 15) -> set[int]:
    """The columns of the top ceil(percentile/100 * N) features by score;
    cutoff ties go to the lower column index."""
    scores = list(scores)
    if not scores:
        raise SelectionError("no scores to select from")
    if not 0 < percentile <= 100:
        raise SelectionError("percentile must be in (0, 100]")
    k = math.ceil(percentile / 100 * len(scores))
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return set(order[:k])
