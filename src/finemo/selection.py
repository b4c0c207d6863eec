"""Feature analysis (Pearson correlation) and chi-squared percentile selection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from finemo.segmenter import CLASS_ORDER, EmotionLabel

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


def chi2_scores(rows, n_features: int) -> np.ndarray:
    """Per-feature chi-squared statistic for nonnegative sparse features.

    ``rows`` yields one (class, columns, values) triple per sample: the
    class's index in ``CLASS_ORDER`` and the sample's nonzero columns and
    values, as in ``FeatureVector.arrays``, with no column twice. The rows
    are read once and none is held, so ``rows`` may be a generator.

    Observed values are the class-conditional sums, each cell adding its
    values in sample order; expected values assume class-independence. A
    class with no sample adds nothing to any score, and all-zero features
    score 0.
    """
    observed = np.zeros((len(CLASS_ORDER), n_features))
    class_counts = np.zeros(len(CLASS_ORDER), dtype=np.int64)
    for ci, idx, vals in rows:
        vals = np.asarray(vals, dtype=float)
        if np.any(vals < 0):
            raise SelectionError("chi2 requires nonnegative feature values")
        observed[ci, np.asarray(idx, dtype=np.intp)] += vals
        class_counts[ci] += 1
    if np.count_nonzero(class_counts) < 2:
        raise SelectionError("chi2 requires at least two classes")
    class_prob = class_counts / class_counts.sum()
    expected = np.outer(class_prob, observed.sum(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)
    return terms.sum(axis=0)


def rank_columns(scores: list[float]) -> list[int]:
    """Every column index, by descending score; ties go to the lower column."""
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))


def select_percentile(scores, percentile: int = 15) -> set[int]:
    """The columns of the top ceil(percentile/100 * N) features by score;
    cutoff ties go to the lower column index."""
    scores = list(scores)
    if not scores:
        raise SelectionError("no scores to select from")
    if not 0 < percentile <= 100:
        raise SelectionError("percentile must be in (0, 100]")
    k = math.ceil(percentile / 100 * len(scores))
    return set(rank_columns(scores)[:k])
