from fractions import Fraction

import numpy as np
import pytest

from finemo.evaluation import (
    EvaluationError,
    agreement_report,
    coincidence_matrix,
    krippendorff_alpha,
    pairwise_accuracy,
    prequential_run,
    series_writer,
)
from finemo.features import N_DENSE
from finemo.segmenter import CLASS_ORDER, EmotionLabel
from tests.test_features import counts_vector

P, N, O = EmotionLabel.PRECAUTION, EmotionLabel.NEUTRAL, EmotionLabel.OPPORTUNITY

# published annotation coincidence counts, P/N/O order
ANNOTATION_MATRIX = [
    [2827, 341, 102],
    [341, 7505, 662],
    [102, 662, 3466],
]
# frozen regression value, first derived with the exact-fraction oracle below
ANNOTATION_ALPHA = 0.7721888640312408


def _fv():
    return counts_vector({}, np.zeros(N_DENSE), 0)


class _ScriptedLearner:
    """Plays back a fixed prediction sequence; ignores training."""

    def __init__(self, predictions):
        self.predictions = list(predictions)
        self.i = 0

    def predict_label(self, fv):
        pred = self.predictions[self.i]
        self.i += 1
        return pred

    def partial_fit(self, fv, label):
        pass


def test_prequential_matches_brute_force_recount():
    rng = np.random.default_rng(0)
    labels = [CLASS_ORDER[int(i)] for i in rng.integers(0, 3, 200)]
    preds = [CLASS_ORDER[int(i)] for i in rng.integers(0, 3, 200)]
    stream = [(_fv(), lab) for lab in labels]
    report = prequential_run(stream, _ScriptedLearner(preds))

    confusion = np.zeros((3, 3), dtype=int)
    for gold, pred in zip(labels, preds):
        confusion[CLASS_ORDER.index(gold), CLASS_ORDER.index(pred)] += 1
    assert (report.confusion == confusion).all()
    assert report.n == 200
    assert report.accuracy == confusion.trace() / 200
    for c, cls in enumerate(CLASS_ORDER):
        col = confusion[:, c].sum()
        row = confusion[c, :].sum()
        assert report.precision(cls) == (confusion[c, c] / col if col else 0.0)
        assert report.recall(cls) == (confusion[c, c] / row if row else 0.0)


def test_prequential_running_mean_step_bound():
    rng = np.random.default_rng(1)
    labels = [CLASS_ORDER[int(i)] for i in rng.integers(0, 3, 300)]
    preds = [CLASS_ORDER[int(i)] for i in rng.integers(0, 3, 300)]
    stream = [(_fv(), lab) for lab in labels]
    series = []
    prequential_run(stream, _ScriptedLearner(preds), on_sample=lambda *row: series.append(row))
    assert [n for n, _ in series] == list(range(1, 301))
    for (n1, a1), (n2, a2) in zip(series, series[1:]):
        assert abs(a2 - a1) <= 1.0 / n2 + 1e-12


def test_prequential_empty_denominator_flags():
    # never predicts opportunity and never sees precaution gold labels
    stream = [(_fv(), N), (_fv(), O), (_fv(), N)]
    report = prequential_run(stream, _ScriptedLearner([N, N, P]))
    assert "precision:OPPORTUNITY" in report.empty_denominators
    assert "recall:PRECAUTION" in report.empty_denominators
    assert report.precision(O) == 0.0
    assert report.recall(P) == 0.0


def test_prequential_sample_every():
    stream = [(_fv(), N)] * 10
    series = []
    report = prequential_run(
        stream, _ScriptedLearner([N] * 7 + [P] * 3), sample_every=4,
        on_sample=lambda *row: series.append(row),
    )
    assert [n for n, _ in series] == [4, 8, 10]
    assert series[-1] == (report.n, report.accuracy) == (10, 0.7)


def test_prequential_empty_stream_rejected():
    with pytest.raises(EvaluationError):
        prequential_run([], _ScriptedLearner([]))


def test_report_csv_format(tmp_path):
    spath = tmp_path / "series.csv"
    with open(spath, "w", encoding="utf-8") as fh:
        report = prequential_run(
            [(_fv(), N), (_fv(), P)], _ScriptedLearner([N, N]), on_sample=series_writer(fh)
        )
    cpath = tmp_path / "confusion.csv"
    report.write_csvs(str(cpath))
    lines = cpath.read_text().splitlines()
    assert lines[0] == ",PRECAUTION,NEUTRAL,OPPORTUNITY"
    assert lines[2] == "NEUTRAL,0,1,0"
    slines = spath.read_text().splitlines()
    assert slines[0] == "n,accuracy"
    assert slines[1:] == ["1,1.0000000000", "2,0.5000000000"]


def test_report_json_fields():
    import json

    report = prequential_run([(_fv(), N)], _ScriptedLearner([N]))
    data = json.loads(report.to_json())
    assert data["labels"] == ["PRECAUTION", "NEUTRAL", "OPPORTUNITY"]
    assert data["n"] == 1
    assert data["accuracy"] == 1.0
    assert "default_trend_count" in data


# ------------------------------------------------------------- agreement


def _oracle_alpha(matrix):
    """Exact-fraction nominal alpha, independent of the implementation."""
    n = sum(sum(row) for row in matrix)
    trace = sum(matrix[i][i] for i in range(len(matrix)))
    marginals = [sum(row) for row in matrix]
    observed = Fraction(n - trace)
    expected = Fraction(n * n - sum(m * m for m in marginals), n - 1)
    return 1 - observed / expected


def test_alpha_perfect_agreement_is_exactly_one():
    assert krippendorff_alpha([[4, 0], [0, 6]]) == 1.0
    assert krippendorff_alpha(np.diag([10, 20, 30])) == 1.0


def test_alpha_chance_matrix_is_zero():
    # off-diagonal mass m_c*m_k/(n-1), diagonal m_c*(m_c-1)/(n-1) makes the
    # observed disagreement equal the expected disagreement by construction
    m = [2.0, 3.0, 5.0]
    n = sum(m)
    c = [
        [m[i] * (m[j] if i != j else m[i] - 1) / (n - 1) for j in range(3)]
        for i in range(3)
    ]
    assert abs(krippendorff_alpha(c)) < 1e-6


def test_alpha_annotation_matrix_regression():
    got = krippendorff_alpha(ANNOTATION_MATRIX)
    assert abs(got - float(_oracle_alpha(ANNOTATION_MATRIX))) < 1e-6
    assert abs(got - ANNOTATION_ALPHA) < 1e-12


def test_alpha_validation():
    with pytest.raises(EvaluationError):
        krippendorff_alpha([[1, 2], [3, 1]])  # asymmetric
    with pytest.raises(EvaluationError):
        krippendorff_alpha([[1, -1], [-1, 1]])  # negative
    with pytest.raises(EvaluationError):
        krippendorff_alpha([[1, 0], [0, 0]])  # mass <= 1
    with pytest.raises(EvaluationError):
        krippendorff_alpha([[5, 0], [0, 0]])  # single category


def test_coincidence_matrix_pair_weights():
    # two annotators: each item contributes a full ordered pair each way
    c = coincidence_matrix([(P, P), (P, N)])
    assert c[0, 0] == 2.0
    assert c[0, 1] == 1.0 and c[1, 0] == 1.0
    # three annotators: ordered pairs weighted 1/(m-1)
    c3 = coincidence_matrix([(P, P, N)])
    assert c3[0, 0] == pytest.approx(1.0)
    assert c3[0, 1] == pytest.approx(1.0)
    assert c3.sum() == pytest.approx(3.0)  # one unit of mass per annotation


def test_coincidence_matrix_needs_pairs():
    with pytest.raises(EvaluationError):
        coincidence_matrix([(P,)])


def test_pairwise_accuracy():
    items = [(P, P, N), (N, N, N), (O, P, O)]
    acc = pairwise_accuracy(items)
    assert acc[(0, 1)] == pytest.approx(2 / 3)
    assert acc[(0, 2)] == pytest.approx(2 / 3)
    assert acc[(1, 2)] == pytest.approx(1 / 3)
    with pytest.raises(EvaluationError):
        pairwise_accuracy([])
    with pytest.raises(EvaluationError):
        pairwise_accuracy([(P, N), (P,)])


def test_agreement_report_round_trip():
    items = [(P, P), (N, N), (O, O), (P, N)]
    rep = agreement_report(items)
    assert rep.coincidence.sum() == pytest.approx(8.0)
    assert rep.alpha == krippendorff_alpha(rep.coincidence)
    assert rep.pairwise_accuracy[(0, 1)] == 0.75
    assert '"alpha"' in rep.to_json()
