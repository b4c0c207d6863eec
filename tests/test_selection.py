import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finemo.features import RUN_SIZE, VocabularyModel
from finemo.segmenter import CLASS_ORDER, EmotionLabel
from finemo.selection import (
    TARGET_ENCODING,
    SelectionError,
    chi2_scores,
    correlation_report,
    pearson,
    select_percentile,
)


def _brute_pearson(x, y):
    # direct textbook evaluation, independent of the implementation
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    num = sum((a - mx) * (b - my) for a, b in zip(x, y))
    den = math.sqrt(sum((a - mx) ** 2 for a in x)) * math.sqrt(
        sum((b - my) ** 2 for b in y)
    )
    return num / den


def test_pearson_against_direct_formula():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(2, 60))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        assert abs(pearson(x, y) - _brute_pearson(list(x), list(y))) < 1e-9


def test_pearson_against_numpy():
    rng = np.random.default_rng(7)
    x = rng.normal(size=200)
    y = 2 * x + rng.normal(size=200)
    assert abs(pearson(x, y) - np.corrcoef(x, y)[0, 1]) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-100, 100), min_size=3, max_size=30),
    st.floats(-10, 10).filter(lambda a: abs(a) > 1e-3),
    st.floats(-10, 10),
)
def test_pearson_linearity_property(x, a, b):
    if max(x) - min(x) < 1e-6:  # near-constant samples underflow
        return
    y = [a * v + b for v in x]
    r = pearson(x, y)
    assert abs(r - (1.0 if a > 0 else -1.0)) < 1e-9


def test_pearson_zero_variance_error():
    with pytest.raises(SelectionError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(SelectionError):
        pearson([1.0], [2.0])


def test_target_encoding():
    assert TARGET_ENCODING[EmotionLabel.PRECAUTION] == -1.0
    assert TARGET_ENCODING[EmotionLabel.NEUTRAL] == 0.0
    assert TARGET_ENCODING[EmotionLabel.OPPORTUNITY] == 1.0


def test_correlation_report_flags_constants():
    X = np.array([[1.0, 5.0], [1.0, 2.0], [1.0, 7.0]])
    labels = list(CLASS_ORDER)
    rep = correlation_report(X, labels)
    assert rep.constant == [0]
    assert 1 in rep.r_values
    assert set(rep.r_values) == {1}


def _brute_chi2(X, y):
    # independent recomputation from the contingency definition
    classes = sorted(set(y))
    n = len(y)
    scores = []
    for j in range(X.shape[1]):
        total = X[:, j].sum()
        s = 0.0
        for c in classes:
            mask = np.array([lab == c for lab in y])
            observed = X[mask, j].sum()
            expected = (mask.sum() / n) * total
            if expected > 0:
                s += (observed - expected) ** 2 / expected
        scores.append(s)
    return np.array(scores)


def test_chi2_matches_brute_force_and_selection_indices():
    rng = np.random.default_rng(123)
    for _ in range(20):
        n = int(rng.integers(5, 30))
        d = int(rng.integers(2, 15))
        X = rng.integers(0, 6, size=(n, d)).astype(float)
        y = rng.integers(0, 3, size=n)
        if len(set(y.tolist())) < 2:
            continue
        got = chi2_scores([(c, np.arange(len(row)), row) for c, row in zip(y.tolist(), X)], d)
        want = _brute_chi2(X, y.tolist())
        assert np.allclose(got, want, atol=1e-12)
        p = int(rng.integers(1, 101))
        k = math.ceil(p / 100 * d)
        order = sorted(range(d), key=lambda i: (-want[i], i))
        assert select_percentile(got, p) == set(order[:k])


def test_chi2_all_zero_feature_scores_zero():
    X = np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]])
    y = np.array([0, 1, 0])
    assert chi2_scores([(c, np.arange(len(row)), row) for c, row in zip(y.tolist(), X)], 2)[0] == 0.0


def test_chi2_rejects_negative_values():
    with pytest.raises(SelectionError):
        chi2_scores([(0, [0], [-1.0])], 1)


def test_chi2_requires_two_classes():
    with pytest.raises(SelectionError):
        chi2_scores([(0, [0], [1.0]), (0, [0], [2.0])], 1)


def _bincount_chi2_scores(rows, y, n_features):
    """The chi-squared scores as they were computed before ``chi2_scores``
    summed the rows one at a time: every row's columns and values
    concatenated, then summed per class by one ``np.bincount``."""
    classes, y_index = np.unique(np.asarray(y, dtype=int), return_inverse=True)
    cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for ci, (idx, row_vals) in zip(y_index.tolist(), rows, strict=True):
        cols.append(ci * n_features + np.asarray(idx, dtype=np.int64))
        vals.append(np.asarray(row_vals, dtype=float))
    flat, vals = np.concatenate(cols), np.concatenate(vals)
    if np.any(vals < 0):
        raise SelectionError("chi2 requires nonnegative feature values")
    if classes.size < 2:
        raise SelectionError("chi2 requires at least two classes")
    observed = np.bincount(flat, weights=vals, minlength=classes.size * n_features)
    observed = observed.reshape(classes.size, n_features)
    class_prob = np.bincount(y_index) / y_index.size
    expected = np.outer(class_prob, observed.sum(axis=0))
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0, (observed - expected) ** 2 / expected, 0.0)
    return terms.sum(axis=0)


def test_chi2_reduction_keeps_the_bits_of_the_bincount():
    rng = np.random.default_rng(26)
    for trial in range(60):
        n, d = int(rng.integers(2, 40)), int(rng.integers(1, 30))
        rows = []
        for _ in range(n):
            idx = rng.permutation(d)[: int(rng.integers(0, d + 1))]  # unique, in any order
            vals = rng.integers(1, 6, idx.size) * rng.choice([1.0, 0.1, 1 / 3], idx.size)
            rows.append((idx, vals))
        absent = int(rng.integers(0, 3))  # one of the three classes has no row
        y = rng.choice([c for c in range(3) if c != absent], n)
        if len(set(y.tolist())) < 2:
            y[:2] = [c for c in range(3) if c != absent]
        want = _bincount_chi2_scores(rows, y, d)
        # by class order, with a row of zeros for the absent class
        triples = [(c, idx, vals) for c, (idx, vals) in zip(y.tolist(), rows)]
        assert np.array_equal(chi2_scores(triples, d), want), trial
        assert np.array_equal(chi2_scores(iter(triples), d), want), trial


@pytest.mark.parametrize("run_size", [3, RUN_SIZE])
def test_chi2_runs_keep_the_bits_of_the_bincount(run_size, monkeypatch):
    # more rows than a run, a ragged last run, and fractional values whose
    # sums depend on the order they are added in
    monkeypatch.setattr("finemo.features.RUN_SIZE", run_size)
    rng = np.random.default_rng(39)
    for trial in range(20):
        n, d = 2 * RUN_SIZE + int(rng.integers(1, RUN_SIZE)), int(rng.integers(1, 12))
        X = np.zeros((n, d))
        rows = []
        for i in range(n):
            idx = rng.permutation(d)[: int(rng.integers(0, d + 1))]
            vals = rng.choice([0.1, 1 / 3, 0.7, 2.2, 1e-3], idx.size) * rng.integers(1, 6, idx.size)
            X[i, idx] = vals
            rows.append((idx, vals))
        y = rng.integers(0, 3, n)
        y[:2] = [0, 2]
        triples = [(c, idx, vals) for c, (idx, vals) in zip(y.tolist(), rows)]
        got = chi2_scores(iter(triples), d)
        assert got.tobytes() == _bincount_chi2_scores(rows, y, d).tobytes(), trial
        assert np.allclose(got, _brute_chi2(X, y.tolist()), rtol=1e-12, atol=1e-12), trial


@pytest.mark.parametrize("bad_row", [0, 1, 40, 69])
def test_chi2_refuses_a_negative_value_anywhere_in_a_run(bad_row):
    rows = [(i % 3, [0, 2], [1.0, 0.5]) for i in range(70)]
    rows[bad_row] = (rows[bad_row][0], [1, 2], [0.25, -0.5])
    with pytest.raises(SelectionError, match="nonnegative"):
        chi2_scores(iter(rows), 3)


@pytest.mark.parametrize("column", [-1, 3, 7])
def test_chi2_refuses_a_column_outside_the_features(column):
    rows = [(i % 3, [0, 2], [1.0, 0.5]) for i in range(40)]
    rows[35] = (0, [1, column], [1.0, 1.0])
    with pytest.raises(SelectionError, match="outside the 3 features"):
        chi2_scores(rows, 3)


@pytest.mark.parametrize(
    "rows, y, message",
    [
        ([([0], [-1.0])], [0], "nonnegative"),
        ([([0], [1.0]), ([0], [-2.0])], [0, 1], "nonnegative"),
        ([([0], [1.0]), ([0], [-2.0])], [0, 0], "nonnegative"),  # both wrong: values first
        ([([0], [1.0]), ([0], [2.0])], [0, 0], "two classes"),
        ([], [], "two classes"),
    ],
)
def test_chi2_refusals_match_the_bincount(rows, y, message):
    with pytest.raises(SelectionError, match=message):
        _bincount_chi2_scores(rows, np.array(y), 1)
    with pytest.raises(SelectionError, match=message):
        chi2_scores([(c, idx, vals) for c, (idx, vals) in zip(y, rows)], 1)


def test_select_percentile_count_and_ties():
    # scores tie everywhere: cutoff goes to the lower index
    assert select_percentile([1.0, 1.0, 1.0, 1.0], 50) == {0, 1}
    # ceil rounding keeps at least one feature
    assert select_percentile([3.0, 1.0, 2.0], 1) == {0}


def test_select_percentile_validation():
    with pytest.raises(SelectionError):
        select_percentile([], 10)
    with pytest.raises(SelectionError):
        select_percentile([1.0], 0)
    with pytest.raises(SelectionError):
        select_percentile([1.0], 101)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(0, 100), min_size=1, max_size=40),
    st.integers(1, 100),
    st.integers(1, 100),
)
def test_select_percentile_nesting(scores, p1, p2):
    lo, hi = sorted((p1, p2))
    assert select_percentile(scores, lo) <= select_percentile(scores, hi)



def test_selection_mask_round_trip():
    # the retained set is stored as the selection mask of vocabulary.json
    mask = select_percentile([0.5, 3.0, 0.0, 2.0, 1.0, 4.0, 0.2], 40)
    assert mask == {1, 3, 5}
    for stored in (mask, None):
        vm = VocabularyModel(
            char_vocab={}, word_vocab={}, wordbound_vocab={},
            bow_pre=[], bow_neu=[], bow_opp=[], selection_mask=stored,
        )
        back = VocabularyModel.from_json(vm.to_json())
        assert back.selection_mask == stored
