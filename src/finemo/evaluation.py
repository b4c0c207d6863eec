"""Prequential (test-then-train) evaluation and annotator-agreement math."""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from finemo.segmenter import CLASS_ORDER, EmotionLabel


class EvaluationError(Exception):
    pass


@dataclass
class PrequentialReport:
    """Cumulative metrics of one test-then-train pass.

    confusion rows are gold labels, columns predictions, both in
    CLASS_ORDER. Precision/recall with an empty
    denominator are reported as 0 and flagged.
    """

    n: int
    confusion: np.ndarray
    empty_denominators: list[str] = field(default_factory=list)
    default_trend_count: int = 0

    @property
    def accuracy(self) -> float:
        return float(np.trace(self.confusion)) / self.n if self.n else 0.0

    def precision(self, label: EmotionLabel) -> float:
        c = CLASS_ORDER.index(label)
        col = float(self.confusion[:, c].sum())
        return float(self.confusion[c, c]) / col if col else 0.0

    def recall(self, label: EmotionLabel) -> float:
        c = CLASS_ORDER.index(label)
        row = float(self.confusion[c, :].sum())
        return float(self.confusion[c, c]) / row if row else 0.0

    def finalize_flags(self) -> None:
        self.empty_denominators = []
        for c, label in enumerate(CLASS_ORDER):
            if self.confusion[:, c].sum() == 0:
                self.empty_denominators.append(f"precision:{label.name}")
            if self.confusion[c, :].sum() == 0:
                self.empty_denominators.append(f"recall:{label.name}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "labels": [l.name for l in CLASS_ORDER],
                "confusion": self.confusion.tolist(),
                "accuracy": self.accuracy,
                "precision": {l.name: self.precision(l) for l in CLASS_ORDER},
                "recall": {l.name: self.recall(l) for l in CLASS_ORDER},
                "empty_denominators": self.empty_denominators,
                "default_trend_count": self.default_trend_count,
            },
            indent=2,
        )

    def write_csvs(self, confusion_path: str) -> None:
        """Write confusion.csv. accuracy_series.csv is written while the run
        is under way, by ``series_writer``."""
        with open(confusion_path, "w", encoding="utf-8") as fh:
            fh.write("," + ",".join(l.name for l in CLASS_ORDER) + "\n")
            for c, label in enumerate(CLASS_ORDER):
                row = ",".join(str(int(v)) for v in self.confusion[c])
                fh.write(f"{label.name},{row}\n")


def series_writer(fh) -> Callable[[int, float], None]:
    """An ``on_sample`` sink for ``prequential_run`` that writes
    accuracy_series.csv to the open text file ``fh``: the header now, then
    one row per sample."""
    fh.write("n,accuracy\n")

    def write_row(n: int, accuracy: float) -> None:
        fh.write(f"{n},{accuracy:.10f}\n")

    return write_row


def prequential_run(
    stream,
    learner,
    sample_every: int = 1,
    on_predict=None,
    on_sample=None,
) -> PrequentialReport:
    """Predict first, record, then partial-fit, for every item of ``stream``.

    Items are ``(fv, gold, *context)`` tuples, consumed one at a time and
    not kept: the report holds only counts. ``on_predict(item, predicted)``,
    when given, is called for every item with the learner's prediction.
    ``on_sample(n, accuracy)``, when given, receives the accuracy series as
    it is made: the running accuracy after every ``sample_every``-th
    instance, and always after the last one.
    """
    index = {label: i for i, label in enumerate(CLASS_ORDER)}
    confusion = np.zeros((len(CLASS_ORDER), len(CLASS_ORDER)), dtype=int)
    correct = n = 0
    for n, item in enumerate(stream, start=1):
        fv, gold = item[0], item[1]
        predicted = learner.predict_label(fv)
        confusion[index[gold], index[predicted]] += 1
        correct += predicted is gold
        if on_sample is not None and n % sample_every == 0:
            on_sample(n, correct / n)
        learner.partial_fit(fv, gold)
        if on_predict is not None:
            on_predict(item, predicted)
    if not n:
        raise EvaluationError("empty stream")
    if on_sample is not None and n % sample_every:
        on_sample(n, correct / n)
    report = PrequentialReport(n=n, confusion=confusion)
    report.finalize_flags()
    return report


@dataclass
class AgreementReport:
    coincidence: np.ndarray
    alpha: float
    pairwise_accuracy: dict[tuple[int, int], float]

    def to_json(self) -> str:
        return json.dumps(
            {
                "coincidence": self.coincidence.tolist(),
                "alpha": self.alpha,
                "pairwise_accuracy": {
                    f"{a + 1}-{b + 1}": v for (a, b), v in self.pairwise_accuracy.items()
                },
            },
            indent=2,
        )


def krippendorff_alpha(coincidence) -> float:
    """Nominal-metric alpha from a symmetric coincidence matrix."""
    c = np.asarray(coincidence, dtype=float)
    if c.shape[0] != c.shape[1] or not np.allclose(c, c.T):
        raise EvaluationError("coincidence matrix must be square and symmetric")
    if np.any(c < 0):
        raise EvaluationError("coincidence matrix must be nonnegative")
    n = c.sum()
    if n <= 1:
        raise EvaluationError("coincidence matrix needs total mass > 1")
    marginals = c.sum(axis=1)
    observed_disagreement = n - np.trace(c)
    expected_disagreement = (n * n - np.sum(marginals**2)) / (n - 1.0)
    if expected_disagreement <= 0:
        raise EvaluationError("alpha undefined: all mass on one category")
    return float(1.0 - observed_disagreement / expected_disagreement)


def coincidence_matrix(annotations) -> np.ndarray:
    """Coincidence counts in CLASS_ORDER from per-item label tuples: each
    ordered pair of labels within an item contributes 1/(m-1)."""
    index = {label: i for i, label in enumerate(CLASS_ORDER)}
    c = np.zeros((len(CLASS_ORDER), len(CLASS_ORDER)))
    for item in annotations:
        m = len(item)
        if m < 2:
            raise EvaluationError("every item needs at least two annotations")
        for i in range(m):
            for j in range(m):
                if i != j:
                    c[index[item[i]], index[item[j]]] += 1.0 / (m - 1)
    return c


def pairwise_accuracy(annotations) -> dict[tuple[int, int], float]:
    """Agreement fraction per annotator pair over per-item label tuples."""
    annotations = list(annotations)
    if not annotations:
        raise EvaluationError("no annotated items")
    m = len(annotations[0])
    if any(len(item) != m for item in annotations):
        raise EvaluationError("every item must carry labels from all annotators")
    out = {}
    for a in range(m):
        for b in range(a + 1, m):
            agree = sum(item[a] == item[b] for item in annotations)
            out[(a, b)] = agree / len(annotations)
    return out


def agreement_report(annotations) -> AgreementReport:
    c = coincidence_matrix(annotations)
    return AgreementReport(
        coincidence=c,
        alpha=krippendorff_alpha(c),
        pairwise_accuracy=pairwise_accuracy(annotations),
    )
