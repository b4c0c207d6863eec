import contextlib
import copy
import hashlib
import io
import itertools
import math
import os
import pickle
import subprocess
import sys
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finemo import streamml
from finemo.cli import PipelineConfig, feature_stream, main
from finemo.evaluation import prequential_run
from finemo.features import N_DENSE, N_NUMERIC, NUMERIC_COLUMNS, TREND_COLUMN, FeatureVector
from finemo.segmenter import CLASS_ORDER, EmotionLabel
from finemo.streamml import (
    GRIDS,
    RF_GRID,
    SGD_GRID,
    TIE_THRESHOLD,
    AdaptiveRandomForestClassifier,
    GridSearchResult,
    HoeffdingTreeClassifier,
    SGDLinearClassifier,
    StackedClassifier,
    StreamingNaiveBayes,
    _best_splits,
    _total,
    _log_quotients,
    _logs,
    _MAX_DISTINCT,
    POISSON_BATCH,
    _BatchedPoisson,
    _DriftMonitor,
    _Node,
    enumerate_grid,
    grid_search,
    learner_args,
    make_learner,
)
from finemo.synthetic import make_planted_stream
from tests.conftest import ROOT
from tests.test_features import counts_vector
from tests.test_tree_golden import FOREST, _drifting_stream, _models, _trees

P, N, O = EmotionLabel.PRECAUTION, EmotionLabel.NEUTRAL, EmotionLabel.OPPORTUNITY


def _argmax_label(scores: dict, classes):
    """The reference tie rule: the first class, in class order, whose score
    is strictly above every earlier one."""
    best = None
    best_score = -math.inf
    for cls in classes:
        s = scores[cls]
        if s > best_score:
            best, best_score = cls, s
    return best


def make_fv(sparse=None, numeric=None, trend=False, sparse_dim=30):
    """``sparse`` holds count columns below ``sparse_dim``; the last three of
    those are the BOW counters."""
    n_text = sparse_dim - 3
    sparse = dict(sparse or {})
    bow = [sparse.get(n_text + k, 0.0) for k in range(3)]
    numeric = list(numeric if numeric is not None else [0] * N_NUMERIC)
    return counts_vector(
        {i: v for i, v in sparse.items() if i < n_text},
        np.array([*bow, *numeric, trend], dtype=float),
        n_text,
    )


def count_pairs(fv):
    """The (column, value) pairs of the count columns: the first
    ``n_counts`` entries of ``arrays``."""
    m = fv.n_counts
    idx, vals = fv.arrays
    return list(zip(idx[:m].tolist(), vals[:m].tolist()))


def random_stream(rng, n, sparse_dim=30):
    stream = []
    for _ in range(n):
        k = int(rng.integers(0, 6))
        cols = rng.choice(sparse_dim, size=k, replace=False) if k else []
        sparse = {int(c): float(rng.integers(1, 4)) for c in cols}
        numeric = tuple(int(v) for v in rng.integers(0, 5, N_NUMERIC))
        trend = bool(rng.integers(0, 2))
        label = CLASS_ORDER[int(rng.integers(0, 3))]
        stream.append((make_fv(sparse, numeric, trend, sparse_dim), label))
    return stream


# ------------------------------------------------------------ naive Bayes


# per history vector: its count dict and the sum of that dict's values
_DOC_COUNTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _doc_counts(fv):
    memo = _DOC_COUNTS.get(fv)
    if memo is None:
        counts = dict(count_pairs(fv))
        memo = _DOC_COUNTS[fv] = counts, sum(counts.values())
    return memo


def _batch_nb_argmax(history, fv, var_epsilon=1e-9):
    """Batch-recomputed mixed naive Bayes, independent of the learner. Only
    what depends on one history vector alone is memoized; every score is
    summed again from the whole history."""
    if not history:
        return CLASS_ORDER[0]  # uniform scores: first class wins ties
    n_total = len(history)
    best, best_score = None, -math.inf
    for cls in CLASS_ORDER:
        docs = [h for h in history if h[1] is cls]
        if not docs:
            score = -math.inf
        else:
            n = len(docs)
            score = math.log(n / n_total)
            doc_counts, doc_totals = zip(*(_doc_counts(h[0]) for h in docs))
            denom = sum(doc_totals) + fv.n_text + 3
            for idx, val in count_pairs(fv):
                count = sum(c.get(idx, 0.0) for c in doc_counts)
                score += val * math.log((count + 1.0) / denom)
            X = np.array([h[0].dense[NUMERIC_COLUMNS] for h in docs], dtype=float)
            mean = X.mean(axis=0)
            var = np.maximum(X.var(axis=0), var_epsilon)
            x = np.array(fv.dense[NUMERIC_COLUMNS], dtype=float)
            score += float(
                np.sum(-0.5 * np.log(2 * math.pi * var) - (x - mean) ** 2 / (2 * var))
            )
            t = sum(bool(h[0].dense[TREND_COLUMN]) for h in docs)
            p_true = (t + 1.0) / (n + 2.0)
            score += math.log(p_true if fv.dense[TREND_COLUMN] else 1.0 - p_true)
        if score > best_score:
            best, best_score = cls, score
    return best


def test_nb_matches_batch_oracle_per_prefix():
    rng = np.random.default_rng(0)
    for trial in range(5):
        stream = random_stream(rng, 120)
        nb = StreamingNaiveBayes()
        history = []
        for fv, label in stream:
            assert nb.predict_label(fv) is _batch_nb_argmax(history, fv)
            nb.partial_fit(fv, label)
            history.append((fv, label))


def test_nb_unseen_class_scores_minus_inf():
    nb = StreamingNaiveBayes()
    fv = make_fv({1: 2.0})
    assert nb._scores(fv) == [-math.inf] * 3
    nb.partial_fit(fv, P)
    scores = nb._scores(fv)
    assert scores[0] > -math.inf and scores[1:] == [-math.inf, -math.inf]
    assert nb.predict_label(fv) is P


class _LoopNB(StreamingNaiveBayes):
    """The per-class dicts and per-term loops that the count-matrix kernel
    replaced, with ``math.log`` for every log."""

    def __init__(self, classes=CLASS_ORDER, var_epsilon=1e-9):
        self.classes = tuple(classes)
        self.var_epsilon = var_epsilon
        self.n_total = 0
        self._n = {c: 0 for c in self.classes}
        self._counts = {c: {} for c in self.classes}
        self._counts_total = {c: 0.0 for c in self.classes}
        self._num_sum = {c: np.zeros(N_NUMERIC) for c in self.classes}
        self._num_sumsq = {c: np.zeros(N_NUMERIC) for c in self.classes}
        self._trend_true = {c: 0 for c in self.classes}

    def partial_fit(self, fv, label):
        self.n_total += 1
        self._n[label] += 1
        counts = self._counts[label]
        for idx, val in count_pairs(fv):
            counts[idx] = counts.get(idx, 0.0) + val
            self._counts_total[label] += val
        x = fv.dense[NUMERIC_COLUMNS]
        self._num_sum[label] += x
        self._num_sumsq[label] += x * x
        self._trend_true[label] += int(fv.dense[TREND_COLUMN])

    def _scores(self, fv):
        if self.n_total == 0:
            return [-math.inf] * len(self.classes)
        vocab_size = fv.n_text + 3
        observed = count_pairs(fv)
        x = fv.dense[NUMERIC_COLUMNS]
        trend = fv.dense[TREND_COLUMN]
        scores = []
        for cls in self.classes:
            n = self._n[cls]
            if n == 0:
                scores.append(-math.inf)
                continue
            logp = math.log(n / self.n_total)
            denom = self._counts_total[cls] + vocab_size
            counts = self._counts[cls]
            for idx, val in observed:
                logp += val * math.log((counts.get(idx, 0.0) + 1.0) / denom)
            mean = self._num_sum[cls] / n
            var = self._num_sumsq[cls] / n - mean * mean
            var = np.maximum(var, self.var_epsilon)
            log_2pi_var = np.array([math.log(v) for v in (2.0 * math.pi * var).tolist()])
            logp += float(np.sum(-0.5 * log_2pi_var - (x - mean) ** 2 / (2.0 * var)))
            p_true = (self._trend_true[cls] + 1.0) / (n + 2.0)
            logp += math.log(p_true if trend else 1.0 - p_true)
            scores.append(logp)
        return scores


def _score_bytes(scores):
    return np.array(scores).tobytes()


def _assert_nb_matches_loop(make, stream):
    """Scores before every step and after the last one, bit for bit."""
    fast, slow = make(StreamingNaiveBayes), make(_LoopNB)
    for fv, label in stream:
        assert _score_bytes(fast._scores(fv)) == _score_bytes(slow._scores(fv))
        fast.partial_fit(fv, label)
        slow.partial_fit(fv, label)
    for fv, _ in stream[-1:]:
        assert _score_bytes(fast._scores(fv)) == _score_bytes(slow._scores(fv))
    assert fast.n_total == slow.n_total


_NB_TEXT = 12
_count = st.one_of(st.integers(1, 4).map(float), st.floats(0.01, 8.0))


@st.composite
def _nb_vector(draw):
    """Empty, n-gram-only, BOW-only or mixed count columns, with any numeric
    counters (a Gaussian stays exact for any float) and either trend."""
    kind = draw(st.sampled_from(["empty", "text", "bow", "mixed"]))
    text, dense = {}, np.zeros(N_DENSE)
    if kind in ("text", "mixed"):
        text = draw(
            st.dictionaries(st.integers(0, _NB_TEXT - 1), _count, min_size=1, max_size=_NB_TEXT)
        )
    if kind in ("bow", "mixed"):
        for col in draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True)):
            dense[col] = draw(_count)
    numeric = draw(st.lists(st.floats(-50.0, 50.0), min_size=N_NUMERIC, max_size=N_NUMERIC))
    dense[NUMERIC_COLUMNS] = numeric
    dense[TREND_COLUMN] = draw(st.booleans())
    return counts_vector(text, dense, _NB_TEXT)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    classes=st.sampled_from([CLASS_ORDER, (P, N), (O, N)]),
    # labels drawn from a prefix of the classes leave the others unseen
    n_labels=st.integers(1, 3),
    stream=st.lists(st.tuples(_nb_vector(), st.integers(0, 2)), max_size=30),
)
def test_nb_kernel_matches_loop_bit_for_bit(classes, n_labels, stream):
    n_labels = min(n_labels, len(classes))
    _assert_nb_matches_loop(
        lambda cls: cls(classes=classes), [(fv, classes[k % n_labels]) for fv, k in stream]
    )


def test_nb_kernel_matches_loop_on_a_random_stream():
    stream = random_stream(np.random.default_rng(3), 300)
    _assert_nb_matches_loop(lambda cls: cls(), stream)


def test_nb_logs_are_math_log_of_every_quotient():
    # quotients from 1/3400 to 1, repeated counts and a fractional one;
    # with numpy 2.4 on AVX-512, np.log differs from math.log in the last
    # bit for some of them
    counts = np.arange(6000.0).reshape(3, 2000) % 1700
    counts[0, 7] = 0.25
    denom = np.array([1700.0, 2500.0, 3400.0])
    expected = [
        [math.log((c + 1.0) / d) for c in row] for row, d in zip(counts.tolist(), denom.tolist())
    ]
    assert _log_quotients(counts, denom).tobytes() == np.array(expected).tobytes()
    assert _log_quotients(counts[:, :0], denom).shape == (3, 0)
    # one log per distinct quotient, scattered back: one quotient in every
    # cell, none shared, and a single row
    for cells, denoms, distinct in [
        (np.full((3, 50), 4.0), np.array([9.0, 9.0, 9.0]), 1),
        (np.arange(150.0).reshape(3, 50), np.array([151.0, 307.0, 463.0]), 150),
        (counts[:1], denom[:1], 1701),
    ]:
        quotients = [[(c + 1.0) / d for c in row] for row, d in zip(cells.tolist(), denoms.tolist())]
        assert len({q for row in quotients for q in row}) == distinct
        expected = [[math.log(q) for q in row] for row in quotients]
        assert _log_quotients(cells, denoms).tobytes() == np.array(expected).tobytes()
    # the Gaussian's 2 pi var, from the variance floor to large spreads, in
    # the (classes, counters) shape that naive Bayes passes
    var = 2.0 * math.pi * np.geomspace(1e-9, 1e6, 3 * 2000).reshape(3, 2000)
    expected = [[math.log(v) for v in row] for row in var.tolist()]
    assert _logs(var).tobytes() == np.array(expected).tobytes()
    assert _logs(var).shape == var.shape


@pytest.mark.parametrize("sparse_dim", [20, 40])  # narrower, wider than 30
def test_nb_refuses_a_vector_of_another_width(sparse_dim):
    nb = StreamingNaiveBayes()
    nb.partial_fit(make_fv({2: 3.0, 28: 1.0}, [1] * N_NUMERIC, True), P)
    state = pickle.dumps(nb.__dict__)
    other = make_fv({1: 1.0, sparse_dim - 1: 2.0}, sparse_dim=sparse_dim)
    names_both = rf"\b{sparse_dim}\b.*\b30\b"
    with pytest.raises(ValueError, match=names_both):
        nb.predict_label(other)
    with pytest.raises(ValueError, match=names_both):
        nb.partial_fit(other, N)
    assert pickle.dumps(nb.__dict__) == state


@pytest.mark.parametrize("mode", ["--single", "--stacked"])
def test_nb_kernel_matches_loop_on_the_selected_sample_cli(
    monkeypatch, tmp_path, sample_paths, mode
):
    """No golden covers naive Bayes under a chi-squared mask: the loop is the
    oracle of every byte the command writes."""
    argv = ["train-eval", "--warmup", "10", "--learner", "nb", mode, "--percentile", "15"]
    for key in ("lexicons", "tweets", "labels", "prices"):
        argv += [f"--{key}", sample_paths[key]]
    outputs = []
    for learner in (StreamingNaiveBayes, _LoopNB):
        monkeypatch.setitem(streamml.LEARNERS, "nb", learner)
        out = tmp_path / learner.__name__
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main([*argv, "--out", str(out)]) == 0
        outputs.append(
            (stdout.getvalue(), {p.name: p.read_bytes() for p in sorted(out.iterdir())})
        )
    assert outputs[0] == outputs[1]
    assert len(outputs[0][1]) == 5


def test_stacked_naive_bayes_labels_as_the_single_one(tmp_path, sample_paths):
    # a stage-2 naive Bayes trains on the instances of its two classes, so
    # it holds stage 1's statistics for them; only the prior's denominator
    # differs, and alike for both classes, so it confirms every non-neutral
    # stage-1 label (up to rounding, which moves no label here)
    stream, _ = make_planted_stream(3000, seed=7, warmup=600)
    labels = []
    for stacked in (False, True):
        model = make_learner("nb", {}, stacked)
        for fv, label in stream[:600]:
            model.partial_fit(fv, label)
        predicted = []
        prequential_run(stream[600:], model, on_predict=lambda item, label: predicted.append(label))
        labels.append(predicted)
    assert len(labels[0]) == 2400 and labels[0] == labels[1]
    assert {P, O} <= set(labels[0])

    files = []
    for mode in ("--single", "--stacked"):
        argv = ["train-eval", "--warmup", "10", "--learner", "nb", mode, "--out", str(tmp_path / mode)]
        for key in ("lexicons", "tweets", "labels", "prices"):
            argv += [f"--{key}", sample_paths[key]]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        files.append({name: (tmp_path / mode / name).read_bytes()
                      for name in ("indicators.jsonl", "confusion.csv")})
    assert files[0] == files[1]
    assert files[0]["indicators.jsonl"]  # some non-neutral label to confirm


# --------------------------------------------------------- Hoeffding tree


def _dense_stream(rng, n, centers):
    """Stream separable on numeric counter 0 (dense column 3)."""
    stream = []
    for _ in range(n):
        label = CLASS_ORDER[int(rng.integers(0, 3))]
        numeric = [0] * N_NUMERIC
        numeric[0] = centers[label] + int(rng.integers(0, 2))
        stream.append((make_fv(numeric=numeric), label))
    return stream


def test_tree_learns_separable_stream():
    rng = np.random.default_rng(1)
    centers = {P: 0, N: 10, O: 20}
    stream = _dense_stream(rng, 600, centers)
    tree = HoeffdingTreeClassifier(grace_period=50)
    for fv, label in stream:
        tree.partial_fit(fv, label)
    correct = sum(tree.predict_label(fv) is label for fv, label in stream[:200])
    assert correct / 200 > 0.95


def test_tree_never_splits_on_constant_features():
    tree = HoeffdingTreeClassifier(grace_period=10)
    fv = make_fv(numeric=[1] * N_NUMERIC)
    for i in range(100):
        tree.partial_fit(fv, P if i % 2 else O)
    assert tree._root.left is None


def test_tree_delta_one_splits_at_first_check():
    # delta >= 1 zeroes the Hoeffding bound: any positive gain splits
    rng = np.random.default_rng(2)
    stream = _dense_stream(rng, 10, {P: 0, N: 10, O: 20})
    tree = HoeffdingTreeClassifier(delta=1.0, grace_period=10)
    for fv, label in stream:
        tree.partial_fit(fv, label)
    assert tree._root.left is not None


def test_tree_subspace_needs_an_rng():
    # refused in the constructor, not by an assert that python -O strips
    with pytest.raises(ValueError, match="needs an rng"):
        HoeffdingTreeClassifier(subspace_size=N_DENSE - 1)
    # a subspace of every feature or more draws nothing
    for size in (None, N_DENSE, N_DENSE + 5):
        tree = HoeffdingTreeClassifier(subspace_size=size)
        assert list(tree._root.observers) == list(range(N_DENSE))
    rng = np.random.default_rng(0)
    tree = HoeffdingTreeClassifier(subspace_size=3, rng=rng)
    assert len(tree._root.observers) == 3


@pytest.mark.parametrize(
    "learner, args",
    [
        (HoeffdingTreeClassifier, {"delta": 0.0}),  # was a ZeroDivisionError at a split
        (HoeffdingTreeClassifier, {"delta": -1.0}),  # was a math domain error
        (HoeffdingTreeClassifier, {"delta": math.nan}),  # split on any positive gain
        (AdaptiveRandomForestClassifier, {"delta": 0.0}),
        (AdaptiveRandomForestClassifier, {"n_estimators": 0}),  # voted for the first class
        (AdaptiveRandomForestClassifier, {"max_features": -1}),  # failed in numpy
        (AdaptiveRandomForestClassifier, {"max_features": 0}),
        (AdaptiveRandomForestClassifier, {"max_features": "sqrt"}),
        (AdaptiveRandomForestClassifier, {"lam": -1.0}),  # failed in numpy
        (AdaptiveRandomForestClassifier, {"lam": 0.0}),  # never fitted a tree
    ],
    ids=lambda v: (
        {HoeffdingTreeClassifier: "tree", AdaptiveRandomForestClassifier: "forest"}[v]
        if isinstance(v, type) else "{}={}".format(*next(iter(v.items())))
    ),
)
def test_bad_tree_arguments_are_refused_at_construction(learner, args):
    (name,) = args
    with pytest.raises(ValueError, match=f"^{name} "):
        learner(**args)


@pytest.mark.parametrize("delta", [1.0, 5.0, math.inf])
def test_tree_delta_of_one_or_more_is_valid(delta):
    # delta >= 1 zeroes the Hoeffding bound instead of taking log(1/delta)
    rng = np.random.default_rng(2)
    stream = _dense_stream(rng, 60, {P: 0, N: 10, O: 20})
    for model in (HoeffdingTreeClassifier(delta=delta, grace_period=10),
                  AdaptiveRandomForestClassifier(n_estimators=2, max_features=N_DENSE, delta=delta,
                                                 grace_period=10)):
        prequential_run(stream, model)
        assert all(tree._root.left is not None for tree in _trees(model))


def test_tree_observer_caps_distinct_values():
    tree = HoeffdingTreeClassifier(grace_period=10_000)
    for i in range(200):
        numeric = [0] * N_NUMERIC
        numeric[0] = i
        tree.partial_fit(make_fv(numeric=numeric), P)
    assert len(tree._root.observers[3]) <= 64


def _nodes(node):
    if node.left is None:
        return [node]
    return [node, *_nodes(node.left), *_nodes(node.right)]


def test_split_node_keeps_no_observers(monkeypatch):
    # a leaf splits in place and drops its observers; every leaf observes
    # exactly the subspace it was made with: sorted distinct features of the
    # tree's subspace size, all of them without one
    subspaces = {}  # id of a leaf -> its features when made
    new_leaf = HoeffdingTreeClassifier._new_leaf

    def recording_new_leaf(self):
        leaf = new_leaf(self)
        subspaces[id(leaf)] = sorted(set(leaf.observers))
        return leaf

    monkeypatch.setattr(HoeffdingTreeClassifier, "_new_leaf", recording_new_leaf)
    stream = _drifting_stream()
    for name, model in _models().items():
        for fv, label in stream:
            model.partial_fit(fv, label)
        n_splits = 0
        for tree in _trees(model):
            size = tree.subspace_size if tree.subspace_size is not None else N_DENSE
            for node in _nodes(tree._root):
                if node.left is None:
                    assert list(node.observers) == subspaces[id(node)], name
                    assert len(node.observers) == size, name
                else:
                    n_splits += 1
                    assert node.observers is None and node.right is not None, name
        assert n_splits >= len(_trees(model)), name


@pytest.mark.parametrize("classes", [CLASS_ORDER, (P, N), (O, N)])
def test_tree_unfitted_and_all_zero_leaves_give_the_first_class(classes):
    tree = HoeffdingTreeClassifier(classes=classes, delta=1.0, grace_period=5 + len(classes))
    assert tree.predict_label(make_fv()) is classes[0]
    # weight 0 reaches the root but leaves its counts all zero
    tree.partial_fit(make_fv(), classes[-1], weight=0.0)
    assert tree.predict_label(make_fv()) is classes[0]
    # a split on the first BOW counter, at the grace period: 0 goes left to
    # a leaf of the last class, 1 goes right to a leaf whose classes all
    # tie. A split needs weight on both sides, so no fit reaches a child
    # that holds none.
    for cls in classes:
        tree.partial_fit(make_fv({27: 1.0}), cls)
    tree.partial_fit(make_fv(), classes[-1], weight=5.0)
    assert (tree._root.feature, tree._root.threshold) == (0, 0.0)
    assert tree.predict_label(make_fv()) is classes[-1]
    assert tree.predict_label(make_fv({27: 1.0})) is classes[0]


@pytest.mark.parametrize(
    "counts, winner",
    [([1.0, 3.0, 3.0], 1), ([2.0, 2.0, 1.0], 0), ([0.5, 0.5, 0.5], 0), ([0.0, 0.0, 4.0], 2)],
)
def test_tree_majority_tie_goes_to_the_first_class_that_has_it(counts, winner):
    # each count is one weighted fit, in every order of the classes
    for order in itertools.permutations(range(3)):
        tree = HoeffdingTreeClassifier()
        for ci in order:
            tree.partial_fit(make_fv(), CLASS_ORDER[ci], weight=counts[ci])
        assert tree._root.class_counts == counts
        assert tree.predict_label(make_fv()) is CLASS_ORDER[winner]


@pytest.mark.parametrize("weight", [-3.0, -1e-300, math.nan, math.inf, -math.inf])
def test_tree_refuses_a_negative_or_non_finite_weight(weight):
    tree = HoeffdingTreeClassifier()
    tree.partial_fit(make_fv(), N, weight=5.0)
    with pytest.raises(ValueError, match="weight"):
        tree.partial_fit(make_fv(), P, weight=weight)
    assert tree._root.class_counts == [0.0, 5.0, 0.0]
    assert tree.n_seen == 1


def _leaves(node):
    if node.left is None:
        return [node]
    return _leaves(node.left) + _leaves(node.right)


@settings(max_examples=150, deadline=None)
@given(
    classes=st.sampled_from([CLASS_ORDER, (P, N)]),
    fits=st.lists(
        st.tuples(
            st.integers(0, 2),
            st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 0.1, 0.2, 0.3]),
            st.sampled_from([0.0, 1.0, 2.0]),
        ),
        min_size=1,
        max_size=60,
    ),
)
def test_cached_majority_is_the_first_maximum_after_every_fit(classes, fits):
    # weights from few values tie often; delta 1 splits at every grace
    # period, so children get their majority from their counts
    tree = HoeffdingTreeClassifier(classes=classes, delta=1.0, grace_period=4)
    for ci, weight, value in fits:
        tree.partial_fit(make_fv(numeric=[value] * N_NUMERIC), classes[ci % len(classes)], weight=weight)
        for leaf in _leaves(tree._root):
            counts = leaf.class_counts
            assert leaf.best == counts.index(max(counts))


def test_two_class_tree_labels_from_its_own_classes():
    tree = HoeffdingTreeClassifier(classes=(P, N))
    for label in (N, P, N):
        tree.partial_fit(make_fv(), label)
    assert tree._root.class_counts == [1.0, 2.0]
    assert tree.predict_label(make_fv()) is N
    tree.partial_fit(make_fv(), P)
    assert tree.predict_label(make_fv()) is P  # a tie: the first class


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 2),
            st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.25, 0.5]), st.floats(0.01, 5.0)),
        ),
        min_size=1,
        max_size=30,
    )
)
def test_fractional_weight_leaf_label_is_numpy_argmax(fits):
    tree = HoeffdingTreeClassifier(grace_period=10**9)
    for ci, weight in fits:
        tree.partial_fit(make_fv(), CLASS_ORDER[ci], weight=weight)
    counts = tree._root.class_counts
    assert all(type(c) is float for c in counts)
    assert tree.predict_label(make_fv()) is CLASS_ORDER[int(np.argmax(counts))]


# -------------------------------------------------- adaptive random forest


def test_forest_seeded_determinism():
    rng = np.random.default_rng(4)
    stream = _dense_stream(rng, 300, {P: 0, N: 10, O: 20})
    runs = []
    for _ in range(2):
        forest = AdaptiveRandomForestClassifier(n_estimators=5, grace_period=50, seed=9)
        preds = []
        for fv, label in stream:
            preds.append(forest.predict_label(fv))
            forest.partial_fit(fv, label)
        runs.append(preds)
    assert runs[0] == runs[1]


def test_forest_unit_weights_when_lambda_none():
    rng = np.random.default_rng(5)
    stream = _dense_stream(rng, 100, {P: 0, N: 10, O: 20})
    forest = AdaptiveRandomForestClassifier(
        n_estimators=3, lam=None, max_features=N_DENSE, drift_detection=False, seed=0
    )
    for fv, label in stream:
        forest.partial_fit(fv, label)
    # every tree saw every instance exactly once, with weight 1
    for tree in forest._trees:
        assert tree.n_seen == 100
        node = tree._root
        while node.left is not None:
            node = node.left
        # class counts across the frontier sum to the stream length
    counts = []

    def collect(node, acc):
        if node.left is None:
            acc.append(sum(node.class_counts))
        else:
            collect(node.left, acc)
            collect(node.right, acc)

    for tree in forest._trees:
        acc = []
        collect(tree._root, acc)
        # splits copy observer statistics into children, so the frontier
        # total is at least the number of instances
        assert sum(acc) >= 100


def test_forest_auto_subspace_size():
    forest = AdaptiveRandomForestClassifier(n_estimators=2)
    assert forest.subspace_size == round(math.sqrt(N_NUMERIC + 4))


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
def test_degenerate_forest_equals_the_tree(stacked):
    # one tree over every dense feature, unit weights and no drift resets:
    # Gomes et al.'s forest reduces to a Hoeffding tree whose vote decides alone
    stream, _ = make_planted_stream(3000, seed=7, warmup=600)
    forest_args = {"n_estimators": 1, "lam": None, "max_features": N_DENSE,
                   "drift_detection": False, "grace_period": 50}
    labels, accuracy = [], []
    for model in (make_learner("rf", forest_args, stacked),
                  make_learner("dt", {"grace_period": 50}, stacked)):
        for fv, label in stream[:600]:
            model.partial_fit(fv, label)
        predicted = []
        report = prequential_run(stream[600:], model,
                                 on_predict=lambda item, label: predicted.append(label))
        labels.append(predicted)
        accuracy.append(report.accuracy)
    assert len(labels[0]) == 2400 and labels[0] == labels[1]
    assert round(accuracy[0], 4) == round(accuracy[1], 4) == 0.8771


def test_forest_drift_replaces_trees():
    rng = np.random.default_rng(6)
    first = _dense_stream(rng, 500, {P: 0, N: 10, O: 20})
    # abrupt concept flip: same inputs, swapped labels
    flipped = [(fv, {P: O, O: P, N: N}[label]) for fv, label in first]
    forest = AdaptiveRandomForestClassifier(
        n_estimators=3, grace_period=50, max_features=N_DENSE, seed=1
    )
    for fv, label in first + flipped:
        forest.partial_fit(fv, label)
    assert forest.n_resets > 0


# ------------------------------------ fast paths against their reference


def _n_splits(node):
    if node.left is None:
        return 0
    return 1 + _n_splits(node.left) + _n_splits(node.right)


def _planted(classes, n=600):
    stream, _ = make_planted_stream(n, seed=5, warmup=200)
    return [(fv, label) for fv, label in stream if label in classes]


def _leaf_majority(tree, fv):
    """The class with the most weight at the leaf that ``fv`` reaches, the
    first on ties, found by a descent of its own."""
    x = fv.dense.tolist()
    node = tree._root
    while node.left is not None:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return tree.classes[int(np.argmax(node.class_counts))]


# the reference for a tree's label: the majority class of its leaf
LABEL_REFERENCES = {"majority": _leaf_majority}


@pytest.mark.parametrize("reference", sorted(LABEL_REFERENCES))
@pytest.mark.parametrize("classes", [CLASS_ORDER, (P, N), (O, N)])
def test_tree_predict_label_is_argmax_of_scores(classes, reference):
    want = LABEL_REFERENCES[reference]
    tree = HoeffdingTreeClassifier(classes=classes, grace_period=30, delta=0.05)
    assert tree.predict_label(make_fv()) is want(tree, make_fv())  # unfitted
    for fv, label in _planted(classes):
        assert tree.predict_label(fv) is want(tree, fv)
        tree.partial_fit(fv, label)
    assert _n_splits(tree._root) >= 1


@pytest.mark.parametrize("classes", [CLASS_ORDER, (P, N)])
def test_forest_subspace_trees_predict_label_is_argmax_of_scores(classes):
    forest = AdaptiveRandomForestClassifier(
        classes=classes, n_estimators=4, grace_period=30, delta=0.05, seed=0,
        drift_detection=False,
    )
    assert forest.subspace_size < N_DENSE
    for fv, label in _planted(classes):
        for tree in forest._trees:
            assert tree.predict_label(fv) is _leaf_majority(tree, fv)
        forest.partial_fit(fv, label)
    assert all(_n_splits(tree._root) >= 1 for tree in forest._trees)


def test_tree_predict_label_on_a_leaf_without_weight():
    # fitted with weight 0: n_seen is 1 but every class count is 0
    for classes in (CLASS_ORDER, (O, N)):
        tree = HoeffdingTreeClassifier(classes=classes)
        tree.partial_fit(make_fv(), classes[-1], weight=0.0)
        assert _leaf_majority(tree, make_fv()) is classes[0]
        assert tree.predict_label(make_fv()) is classes[0]


def _entropy(counts):
    total = counts.sum()
    if total <= 0:
        return 0.0
    p = counts[counts > 0] / total
    return float(-(p * [math.log2(q) for q in p.tolist()]).sum())


def _loop_best_splits(counts, observers):
    """The per-feature split search before ``_best_splits``: numpy class
    counts and one ``_entropy`` per side of every threshold, with
    ``math.log2`` of every probability."""
    counts = np.array(counts)
    parent_entropy = _entropy(counts)
    n = counts.sum()
    per_feature = []
    for f, per_value in observers.items():
        values = sorted(per_value)
        if len(values) < 2:
            continue
        best_gain, best_thr = 0.0, None
        left = np.zeros(len(counts))
        for v in values[:-1]:
            left = left + per_value[v]
            right = counts - left
            ln, rn = left.sum(), right.sum()
            if ln <= 0 or rn <= 0:
                continue
            gain = parent_entropy - (ln / n) * _entropy(left) - (rn / n) * _entropy(right)
            if gain > best_gain:
                best_gain, best_thr = gain, v
        if best_thr is not None:
            per_feature.append((best_gain, f, best_thr))
    return per_feature, n


def _loop_split_decision(tree, counts, observers):
    """(feature, threshold, left counts, right counts) of the split that the
    numpy ``_attempt_split`` made on a root leaf, or None."""
    if np.count_nonzero(counts) < 2:
        return None
    per_feature, n = _loop_best_splits(counts, observers)
    if not per_feature:
        return None
    per_feature.sort(key=lambda t: (-t[0], t[1]))
    gain, feature, threshold = per_feature[0]
    second = per_feature[1][0] if len(per_feature) > 1 else 0.0
    if gain <= 0.0:
        return None
    r = math.log2(len(tree.classes))
    eps = math.sqrt(r * r * math.log(1.0 / tree.delta) / (2.0 * n)) if tree.delta < 1 else 0.0
    if not (gain - second > eps or eps < TIE_THRESHOLD):
        return None
    left, right = np.zeros(len(counts)), np.zeros(len(counts))
    for v, stats in observers[feature].items():
        if v <= threshold:
            left += stats
        else:
            right += stats
    return feature, threshold, left.tolist(), right.tolist()


@st.composite
def _observed_leaves(draw):
    """(classes, class counts, observers) of a leaf that learned a random
    sequence of weighted rows in the order of ``_fit_trees``, over counts that a
    split may have handed it. Few distinct values give tied and single-valued
    features; one present class gives a pure leaf."""
    classes = draw(st.sampled_from([CLASS_ORDER, (P, N)]))
    k = len(classes)
    present = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    if draw(st.booleans()):
        weights = st.integers(1, 8).map(float)
    else:
        weights = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 0.7]), st.floats(0.01, 10.0))
    n_features = draw(st.integers(1, 4))
    row = st.tuples(
        st.sampled_from(present),
        weights,
        st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.5]), min_size=n_features, max_size=n_features),
    )
    rows = draw(st.lists(row, min_size=1, max_size=40))
    inherited = draw(st.one_of(st.just([0.0] * k), st.lists(weights, min_size=k, max_size=k)))
    counts = list(inherited)
    observers = {f: {} for f in range(n_features)}
    for ci, weight, values in rows:
        counts[ci] += weight
        for f, v in enumerate(values):
            observers[f].setdefault(v, [0.0] * k)[ci] += weight
    return classes, counts, observers


def _two_values(left, right):
    """A leaf whose one feature saw weights ``left`` at 0 and ``right`` at 1."""
    classes = CLASS_ORDER if len(left) == 3 else (P, N)
    return classes, [a + b for a, b in zip(left, right)], {0: {0.0: left, 1.0: right}}


def _tied_leaf(k):
    """A leaf whose two features each saw the same ``_MAX_DISTINCT`` values
    with integer weights, in class runs mirrored about the middle value:
    the thresholds at either end of a run tie, and so do the features."""
    classes = CLASS_ORDER if k == 3 else (P, N)
    runs = [2, 0, 1, 1] if k == 3 else [0, 1, 1, 1]  # the class of each 8 values from an end
    per_value = {}
    for v in range(_MAX_DISTINCT):
        d = min(v, _MAX_DISTINCT - 1 - v)  # the distance from the nearer end
        stats = [0.0] * k
        stats[runs[d // 8]] = float(1 + d % 3)
        per_value[float(v)] = stats
    counts = [_total(stats[j] for stats in per_value.values()) for j in range(k)]
    return classes, counts, {0: per_value, 5: {v: list(w) for v, w in per_value.items()}}


# in the first two examples np.log2 on an AVX-512 CPU gives another gain
# than math.log2, which the split search and its oracle take
@settings(max_examples=300, deadline=None)
@given(leaf=_observed_leaves(), delta=st.sampled_from([1e-7, 0.05, 0.5, 1.0]))
@example(leaf=_two_values([1.4, 4.67], [1.36, 2.59]), delta=0.5)
@example(leaf=_two_values([5.23, 3.65, 8.63], [5.86, 4.77, 6.8]), delta=0.5)
@example(leaf=_tied_leaf(2), delta=0.05)
@example(leaf=_tied_leaf(3), delta=0.05)
def test_split_search_matches_the_loop_bit_for_bit(leaf, delta):
    classes, counts, observers = leaf
    want, _ = _loop_best_splits(counts, observers)
    got = _best_splits(counts, observers)
    assert [(float(g).hex(), f, v) for g, f, v in got] == [(float(g).hex(), f, v) for g, f, v in want]
    tree = HoeffdingTreeClassifier(classes=classes, delta=delta)
    root = _Node(len(classes), sorted(observers))
    root.class_counts, root.observers = list(counts), observers
    tree._root = root
    tree._attempt_split(root)
    decision = _loop_split_decision(tree, counts, observers)
    assert tree._root is root  # a split happens in place
    if decision is None:
        assert root.left is None and root.observers is observers
    else:
        assert (root.feature, root.threshold) == decision[:2]
        assert root.left.class_counts == decision[2]
        assert root.right.class_counts == decision[3]


@pytest.mark.parametrize("delta", [1e-7, 0.01])
@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
def test_every_split_attempt_follows_the_hoeffding_rule(monkeypatch, stacked, delta):
    # Domingos & Hulten (2000): a leaf splits on its best feature exactly
    # when best - second > eps or eps < TIE_THRESHOLD, with
    # eps = sqrt(R^2 ln(1/delta) / (2 n)) and R = log2 of the tree's classes
    # (log2 3 for stage 1, log2 2 for the stage-2 trees); the gains (by
    # _loop_best_splits) and eps are recomputed from the leaf as the attempt
    # found it
    attempts = []
    attempt_split = HoeffdingTreeClassifier._attempt_split

    def recording(self, leaf):
        counts, observers = list(leaf.class_counts), copy.deepcopy(leaf.observers)
        attempt_split(self, leaf)
        attempts.append((len(self.classes), counts, observers, leaf.left is not None))

    monkeypatch.setattr(HoeffdingTreeClassifier, "_attempt_split", recording)
    stream, _ = make_planted_stream(3000, seed=7, warmup=600)
    prequential_run(stream, make_learner("dt", {"grace_period": 50, "delta": delta}, stacked))
    outcomes = Counter()
    for n_classes, counts, observers, split in attempts:
        per_feature, n = _loop_best_splits(counts, observers)
        best, second = sorted([gain for gain, _, _ in per_feature] + [0.0, 0.0], reverse=True)[:2]
        r = math.log(n_classes) / math.log(2.0)
        eps = math.sqrt(r * r * math.log(1.0 / delta) / (2.0 * n))
        # no decision lies within rounding of the rule's boundaries
        assert best == 0.0 or best > 1e-9
        assert abs(best - second - eps) > 1e-9
        assert split == (best > 0.0 and (best - second > eps or eps < TIE_THRESHOLD))
        outcomes[n_classes, split, best > 0.0, eps < TIE_THRESHOLD] += 1
    # splits by the gap, and leaves that wait though some feature gains
    for n_classes in (3, 2) if stacked else (3,):
        assert outcomes[n_classes, True, True, False] and outcomes[n_classes, False, True, False]
    if stacked and delta == 0.01:
        assert outcomes[2, True, True, True]  # stage-2 leaves that split on a tie


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("learner", ["nb", "dt", "rf", "sgd"])
def test_no_learner_takes_a_numpy_log(monkeypatch, learner, stacked):
    stream = _planted(CLASS_ORDER)

    def refuse(*args, **kwargs):
        raise AssertionError("a learner took numpy's log")

    monkeypatch.setattr(np, "log", refuse)
    monkeypatch.setattr(np, "log2", refuse)
    trees = learner in ("dt", "rf")
    model = make_learner(learner, {"grace_period": 50, "delta": 0.05} if trees else {}, stacked)
    prequential_run(stream, model)
    if trees:
        # every stage splits, so every stage ran the split search
        for stage in [model.stage1, model.stage2_pre, model.stage2_opp] if stacked else [model]:
            assert sum(_n_splits(tree._root) for tree in getattr(stage, "_trees", [stage])) >= 1


def _dispatched_cpu_features() -> str:
    """The features that numpy picks SIMD kernels by and this CPU has, as
    CI reads them for its baseline-kernel run; empty when they are disabled."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return " ".join(f for f in __cpu_dispatch__ if __cpu_features__.get(f))


def _counter_where_logs_differ() -> float:
    """The first counter value x in 1..65535 whose naive Bayes variance,
    over fits with 0 and x, has another ``np.log(2 pi var)`` than
    ``math.log`` on this CPU; 1.0 if none has."""
    x = np.arange(1.0, 65536.0)
    mean = x / 2.0
    arg = 2.0 * math.pi * (x * x / 2.0 - mean * mean)
    differ = np.log(arg) != np.array([math.log(a) for a in arg.tolist()])
    return float(x[differ][0]) if differ.any() else 1.0


def _learner_bits(counter: float) -> tuple[str, str]:
    """The digest of the hex of every split gain of a stacked forest on the
    planted stream, and the hex of naive Bayes's scores after two
    precaution fits with numeric counter 0 at 0.0 and at ``counter``."""
    gains = []
    best_splits = streamml._best_splits

    def recording(counts, observers):
        found = best_splits(counts, observers)
        gains.extend(gain.hex() for gain, _, _ in found)
        return found

    streamml._best_splits = recording
    try:
        prequential_run(_planted(CLASS_ORDER), make_learner("rf", {"grace_period": 50}, True))
    finally:
        streamml._best_splits = best_splits
    # the other counters fit +-1/sqrt(2 pi): 2 pi var is 1.0, so at their
    # mean their Gaussian terms are 0 and the score is counter 0's term plus
    # the trend's, whose sum keeps a one-bit difference of that term's log
    a = math.sqrt(1.0 / (2.0 * math.pi))
    nb = StreamingNaiveBayes()
    for value, other in [(0.0, a), (counter, -a)]:
        nb.partial_fit(make_fv(numeric=[value] + [other] * (N_NUMERIC - 1)), P)
    scores = nb._scores(make_fv(numeric=[counter / 2.0] + [0.0] * (N_NUMERIC - 1)))
    return hashlib.sha256(" ".join(gains).encode()).hexdigest(), _score_bytes(scores).hex()


def test_learner_bits_do_not_depend_on_numpys_simd_kernel():
    features = _dispatched_cpu_features()
    if not features:
        pytest.skip("numpy dispatches no SIMD kernel here: the native kernels are the baseline")
    counter = _counter_where_logs_differ()
    src = os.path.dirname(os.path.dirname(streamml.__file__))
    root = os.path.abspath(ROOT)
    path = os.pathsep.join(filter(None, [src, root, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from tests.test_streamml import _learner_bits\n"
        "print(*_learner_bits(float(sys.argv[1])))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code, repr(counter)],
        capture_output=True,
        text=True,
        cwd=root,
        env={**os.environ, "NPY_DISABLE_CPU_FEATURES": features, "PYTHONPATH": path},
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    gains, scores = _learner_bits(counter)
    assert result.stdout.split() == [gains, scores]


@pytest.mark.parametrize("reference", ["majority", "predict_label"])
def test_forest_votes_equal_per_tree_predict_label(reference):
    # the forest reads the dense block once and votes with each leaf's
    # cached majority; the votes are those of the trees' public
    # predict_label, and so the majority class of the leaf each tree reaches,
    # and its label is their first maximum
    want = _leaf_majority if reference == "majority" else HoeffdingTreeClassifier.predict_label
    forest = AdaptiveRandomForestClassifier(**FOREST)
    voted = split = 0
    for fv, label in _drifting_stream():
        fitted = [tree for tree in forest._trees if tree.n_seen > 0]
        expected = {c: 0.0 for c in forest.classes}
        for tree in fitted:
            expected[want(tree, fv)] += 1.0
        assert forest._votes(fv) == list(expected.values())
        assert forest.predict_label(fv) is _argmax_label(expected, forest.classes)
        voted += bool(fitted)
        split += any(tree._root.left is not None for tree in fitted)
        forest.partial_fit(fv, label)
    assert voted == 999 and split > 500 and forest.n_resets > 0


class _ReferenceTree(HoeffdingTreeClassifier):
    """The tree's fit and label paths before the forest shared one descent:
    each call descends on its own, and observer stats are numpy arrays."""

    def partial_fit(self, fv, label, weight=1.0):
        x = fv.dense.tolist()
        self.n_seen += 1
        node = self._root
        while node.left is not None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        ci = self.classes.index(label)
        node.class_counts[ci] += weight
        node.n_since += weight
        for f in node.observers:
            per_value = node.observers[f]
            v = x[f]
            if v not in per_value and len(per_value) >= _MAX_DISTINCT:
                v = min(per_value, key=lambda k: abs(k - v))
            stats = per_value.get(v)
            if stats is None:
                stats = per_value[v] = np.zeros(len(self.classes))
            stats[ci] += weight
        if node.n_since >= self.grace_period:
            node.n_since = 0.0
            self._attempt_split(node)

    def predict_label(self, fv):
        x = fv.dense.tolist()
        node = self._root
        while node.left is not None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return self.classes[int(np.argmax(node.class_counts))]


class _ReferenceForest(AdaptiveRandomForestClassifier):
    """The forest's fit loop before one descent per tree: per tree,
    predict_label for the drift check, the monitor (and a reset), one scalar
    Poisson draw, then partial_fit; every tree is a _ReferenceTree, and the
    vote is the argmax of a dict of the trees' predict_label. The weights are
    scalar draws on the generator under each tree's ``_BatchedPoisson``, whose
    batch so stays empty and whose ``choice`` is the generator's."""

    def _new_tree(self, rng):
        return _ReferenceTree(
            classes=self.classes,
            delta=self.delta,
            grace_period=self.grace_period,
            subspace_size=self.subspace_size if self.subspace_size < N_DENSE else None,
            rng=rng,
        )

    def predict_label(self, fv):
        votes = {c: 0.0 for c in self.classes}
        for tree in self._trees:
            if tree.n_seen > 0:
                votes[tree.predict_label(fv)] += 1.0
        return _argmax_label(votes, self.classes)

    def partial_fit(self, fv, label):
        self.n_seen += 1
        for k, tree in enumerate(self._trees):
            if self.drift_detection and tree.n_seen > 0:
                err = tree.predict_label(fv) != label
                if self._monitors[k].add(err):
                    self._trees[k] = tree = self._new_tree(tree.rng)
                    self._monitors[k] = _DriftMonitor()
                    self.n_resets += 1
            w = 1.0 if self.lam is None else float(tree.rng.rng.poisson(self.lam))
            if w > 0:
                tree.partial_fit(fv, label, weight=w)


def _node_state(node):
    """Pre-order splits and leaves; a leaf with its features, class counts,
    weight since the last split attempt and observer stats in key order."""
    if node.left is not None:
        return [("split", node.feature, node.threshold), *_node_state(node.left), *_node_state(node.right)]
    observers = [
        (f, [(v, [float(w) for w in stats]) for v, stats in per_value.items()])
        for f, per_value in node.observers.items()
    ]
    return [("leaf", list(node.observers), list(node.class_counts), node.n_since, observers)]


def _consumed_state(draws):
    """The state of ``draws.rng`` after the weights used so far, as scalar
    draws leave it: a batch drawn ahead is replayed on a copy up to its
    used part."""
    if not draws._batch:
        return draws.rng.bit_generator.state
    rng = np.random.Generator(type(draws.rng.bit_generator)())
    rng.bit_generator.state = draws._state
    rng.poisson(draws.lam, POISSON_BATCH - len(draws._batch))
    return rng.bit_generator.state


def _monitor_state(monitor):
    """A drift monitor's n, errors, its window's error count and the
    window's outcomes in arrival order: the ring's filled slots, from the
    oldest on."""
    ring, i = monitor.ring, monitor.i
    window = ring[:i] if monitor.n < monitor.window else ring[i:] + ring[:i]
    return monitor.n, monitor.errors, monitor.recent_errors, list(window)


def _forest_state(forest, trees=True):
    monitors = [_monitor_state(m) for m in forest._monitors]
    state = [
        forest.n_seen,
        forest.n_resets,
        [tree.n_seen for tree in forest._trees],
        monitors,
        [_consumed_state(tree.rng) for tree in forest._trees],
    ]
    if trees:
        state.append([_node_state(tree._root) for tree in forest._trees])
    return state


def _swapping_stream(n, seed, classes=CLASS_ORDER):
    """A planted stream whose precaution and opportunity labels swap halfway."""
    stream, _ = make_planted_stream(n, seed=seed, warmup=n // 4)
    swap = {P: O, O: P, N: N}
    swapped = stream[: n // 2] + [(fv, swap[label]) for fv, label in stream[n // 2 :]]
    return [(fv, label) for fv, label in swapped if label in classes]


def _wide_stream(n, seed):
    """A run of 100 neutral instances whose numeric counters take 300
    values each, more than a leaf keeps (``_MAX_DISTINCT``), then
    ``_swapping_stream``: a leaf stays pure through the run, so it never
    splits and merges each new value into the nearest kept one."""
    rng = np.random.default_rng(seed)
    run = [(make_fv(numeric=rng.integers(0, 300, N_NUMERIC).tolist()), N) for _ in range(100)]
    return run + _swapping_stream(n, seed)


def _capped_leaves(forest):
    """The number of leaves of ``forest`` with a feature at the value cap."""
    return sum(
        any(len(per_value) == _MAX_DISTINCT for per_value in leaf.observers.values())
        for tree in forest._trees
        for leaf in _leaves(tree._root)
    )


@pytest.mark.parametrize("max_features", ["auto", N_DENSE])
@pytest.mark.parametrize("drift_detection", [True, False])
@pytest.mark.parametrize("lam", [None, 6.0, 35.0, 50.0, 100.0])
def test_forest_matches_reference_step_by_step(lam, drift_detection, max_features):
    # lam 35, 50 and 100 are RF_GRID's: a weight that large reaches the
    # grace period on most fits, so most fits attempt a split
    kwargs = dict(
        n_estimators=4, grace_period=40, delta=0.05, seed=7, lam=lam,
        drift_detection=drift_detection, max_features=max_features,
    )
    resets = splits = capped = 0
    streams = [
        (CLASS_ORDER, _swapping_stream(600, 3)),
        ((P, N), _swapping_stream(600, 4, (P, N))),
        (CLASS_ORDER, _wide_stream(600, 5)),
    ]
    for classes, stream in streams:
        forest = AdaptiveRandomForestClassifier(classes=classes, **kwargs)
        reference = _ReferenceForest(classes=classes, **kwargs)
        for step, (fv, label) in enumerate(stream):
            assert forest.predict_label(fv) is reference.predict_label(fv)
            forest.partial_fit(fv, label)
            reference.partial_fit(fv, label)
            every_tree = step % 50 == 0
            assert _forest_state(forest, every_tree) == _forest_state(reference, every_tree)
            if every_tree:
                splits = max(splits, *(_n_splits(tree._root) for tree in forest._trees))
                capped += _capped_leaves(forest)
        assert _forest_state(forest) == _forest_state(reference)
        resets += forest.n_resets
    # the streams must exercise splits, the nearest-value merge and, with
    # drift detection, resets
    assert splits >= 1
    assert capped >= 1
    assert (resets >= 1) is drift_detection


@pytest.mark.parametrize("lam", [6, 35, 50, 100])
def test_batched_poisson_replays_scalar_draws(lam):
    # runs of weights with subspace choices in between, across batch
    # boundaries: every value and the final state are those of scalar draws
    scalar, batched = np.random.default_rng(lam), _BatchedPoisson(np.random.default_rng(lam), lam)
    runs = [0, 1, 3, POISSON_BATCH - 1, POISSON_BATCH, POISSON_BATCH + 1, 2 * POISSON_BATCH + 5, 7]
    for i, run in enumerate(runs * 3):
        want = [float(scalar.poisson(lam)) for _ in range(run)]
        assert [batched.next() for _ in range(run)] == want
        if i % 4 != 3:
            size = 1 + i % 5
            want = scalar.choice(N_DENSE, size=size, replace=False).tolist()
            assert batched.choice(N_DENSE, size=size, replace=False).tolist() == want
    assert _consumed_state(batched) == scalar.bit_generator.state
    batched.choice(N_DENSE, size=1, replace=False)
    scalar.choice(N_DENSE, size=1, replace=False)
    assert batched.rng.bit_generator.state == scalar.bit_generator.state


class _ListDriftMonitor:
    """The window the running count replaced: a list, re-summed per add."""

    def __init__(self, window=100, min_instances=200):
        self.window = window
        self.min_instances = min_instances
        self.recent = []
        self.errors = 0
        self.n = 0

    def add(self, error):
        self.n += 1
        self.errors += int(error)
        self.recent.append(int(error))
        if len(self.recent) > self.window:
            self.recent.pop(0)
        if self.n < self.min_instances or len(self.recent) < self.window:
            return False
        lifetime = self.errors / self.n
        recent = sum(self.recent) / len(self.recent)
        sigma = math.sqrt(max(lifetime * (1.0 - lifetime), 1e-12) / self.window)
        return recent > lifetime + 3.0 * sigma


# runs of one outcome, so that a clean stretch followed by errors flags drift
_error_runs = st.lists(
    st.one_of(
        st.lists(st.booleans(), max_size=40),
        st.tuples(st.booleans(), st.integers(1, 150)).map(lambda run: [run[0]] * run[1]),
    ),
    max_size=8,
).map(lambda runs: [e for run in runs for e in run])


@pytest.mark.parametrize("window, min_instances", [(100, 200), (1, 1), (3, 2), (10, 5)])
@settings(max_examples=80, deadline=None, derandomize=True)
@given(errors=_error_runs)
@example(errors=[False] * 250 + [True] * 60 + [False] * 30)  # flags at the default window
def test_drift_monitor_matches_list_window(window, min_instances, errors):
    fast = _DriftMonitor(window, min_instances)
    slow = _ListDriftMonitor(window, min_instances)
    for error in errors:
        assert fast.add(error) is slow.add(error)
        assert _monitor_state(fast) == (slow.n, slow.errors, sum(slow.recent), slow.recent)


# ------------------------------------------------------------ linear model


def test_sgd_first_update_matches_learning_rate():
    alpha = 0.01
    sgd = SGDLinearClassifier(alpha=alpha)
    fv = make_fv({2: 3.0}, sparse_dim=5)
    sgd.partial_fit(fv, P)
    eta = 1.0 / (alpha * 1)
    i = CLASS_ORDER.index(P)
    assert sgd._w[i, 2] == pytest.approx(eta * 3.0)
    assert sgd._b[i] == pytest.approx(eta)
    j = CLASS_ORDER.index(N)
    assert sgd._w[j, 2] == pytest.approx(-eta * 3.0)


def test_sgd_converges_on_separable_stream():
    rng = np.random.default_rng(8)
    stream = []
    for _ in range(300):
        label = CLASS_ORDER[int(rng.integers(0, 3))]
        col = {P: 0, N: 1, O: 2}[label]
        stream.append((make_fv({col: 1.0}, sparse_dim=3), label))
    sgd = SGDLinearClassifier(alpha=1e-2)
    for _ in range(20):
        for fv, label in stream:
            sgd.partial_fit(fv, label)
    correct = sum(sgd.predict_label(fv) is label for fv, label in stream)
    assert correct / len(stream) > 0.95


def test_sgd_penalty_validation():
    with pytest.raises(ValueError):
        SGDLinearClassifier(penalty="bogus")


def test_sgd_penalty_mechanics():
    # step 1 creates a small weight; step 2 (on a featureless instance)
    # applies only the penalty to it: soft threshold for l1, shrink for l2
    small = make_fv({0: 0.2}, sparse_dim=3)
    empty = make_fv({}, sparse_dim=3)
    i = CLASS_ORDER.index(P)
    l1 = SGDLinearClassifier(penalty="l1", alpha=1.0)
    l1.partial_fit(small, P)
    assert l1._w[i, 0] == pytest.approx(0.2)
    l1.partial_fit(empty, P)  # t=2: threshold 1/t = 0.5 > |w|
    assert l1._w[i, 0] == 0.0
    l2 = SGDLinearClassifier(penalty="l2", alpha=1.0)
    l2.partial_fit(small, P)
    l2.partial_fit(empty, P)  # t=2: multiplicative factor 1 - 1/t
    assert l2._w[i, 0] == pytest.approx(0.1)
    assert l2._w[i, 0] != 0.0


class _LoopSGD:
    """The per-nonzero loops that the O(nnz) kernel replaced, in a learner
    of its own: its own weights and biases, no bank, and the L1 shrink
    rebinding ``_w``."""

    def __init__(self, classes=CLASS_ORDER, penalty="l2", l1_ratio=0.15, alpha=1e-4):
        self.classes = tuple(classes)
        self.l1_ratio = {"l1": 1.0, "l2": 0.0, "elasticnet": l1_ratio}[penalty]
        self.alpha = alpha
        self.t = 0
        self._w = self._b = None

    def _ensure(self, fv):
        if self._w is None:
            self._w = np.zeros((len(self.classes), fv.total_dim))
            self._b = np.zeros(len(self.classes))

    def _scores(self, fv):
        s = self._b.copy()
        for idx, val in fv.items():
            s += self._w[:, idx] * val
        return s

    def predict_label(self, fv):
        if self.t == 0:
            return self.classes[0]
        scores = self._scores(fv).tolist()
        return self.classes[scores.index(max(scores))]

    def partial_fit(self, fv, label):
        self._ensure(fv)
        self.t += 1
        eta = 1.0 / (self.alpha * self.t)
        scores = self._scores(fv)
        l2_part = self.alpha * (1.0 - self.l1_ratio)
        l1_part = self.alpha * self.l1_ratio
        if l2_part:
            self._w *= max(0.0, 1.0 - eta * l2_part)
        if l1_part:
            shrink = eta * l1_part
            self._w = np.sign(self._w) * np.maximum(np.abs(self._w) - shrink, 0.0)
        for i, cls in enumerate(self.classes):
            y = 1.0 if cls is label else -1.0
            if y * scores[i] < 1.0:
                for idx, val in fv.items():
                    self._w[i, idx] += eta * y * val
                self._b[i] += eta * y


def _assert_sgd_matches_loop(make, stream):
    """Scores before every step, then the final weights, bit for bit."""
    fast, slow = make(SGDLinearClassifier), make(_LoopSGD)
    for fv, label in stream:
        fast._ensure(fv)
        slow._ensure(fv)
        assert fast._scores(fv).tobytes() == slow._scores(fv).tobytes()
        fast.partial_fit(fv, label)
        slow.partial_fit(fv, label)
    assert fast.t == slow.t
    if stream:
        assert fast._w.tobytes() == slow._w.tobytes()
        assert fast._b.tobytes() == slow._b.tobytes()


_N_TEXT = 12
_nonzero = st.one_of(
    st.integers(1, 4).map(float),
    st.floats(-8.0, 8.0, allow_nan=False).filter(bool),
)


@st.composite
def _sgd_vector(draw):
    kind = draw(st.sampled_from(["empty", "dense", "text", "mixed"]))
    text, dense = {}, np.zeros(N_DENSE)
    if kind in ("text", "mixed"):
        text = draw(
            st.dictionaries(st.integers(0, _N_TEXT - 1), _nonzero, min_size=1, max_size=_N_TEXT)
        )
    if kind in ("dense", "mixed"):
        cols = draw(st.lists(st.integers(0, N_DENSE - 1), min_size=1, max_size=N_DENSE, unique=True))
        for col in cols:
            dense[col] = draw(_nonzero)
    return counts_vector(text, dense, _N_TEXT)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    classes=st.sampled_from([CLASS_ORDER, (P, N), (O, N)]),
    penalty=st.sampled_from(["l1", "l2", "elasticnet"]),
    l1_ratio=st.sampled_from(SGD_GRID["l1_ratio"]),
    alpha=st.one_of(st.sampled_from(SGD_GRID["alpha"] + (1.0,)), st.floats(1e-5, 1.0)),
    stream=st.lists(st.tuples(_sgd_vector(), st.integers(0, 2)), max_size=30),
)
def test_sgd_kernel_matches_loop_bit_for_bit(classes, penalty, l1_ratio, alpha, stream):
    _assert_sgd_matches_loop(
        lambda cls: cls(classes=classes, penalty=penalty, l1_ratio=l1_ratio, alpha=alpha),
        [(fv, classes[k % len(classes)]) for fv, k in stream],
    )


@pytest.fixture(scope="module")
def sample_selected(sample_paths):
    _, pairs = feature_stream(PipelineConfig(**sample_paths, warmup=10, percentile=15))
    return [(fv, inst.label) for inst, fv in pairs]


@pytest.mark.parametrize("penalty", ["l1", "l2", "elasticnet"])
@pytest.mark.parametrize("alpha", SGD_GRID["alpha"])
def test_sgd_kernel_matches_loop_on_the_selected_sample(sample_selected, penalty, alpha):
    assert len(sample_selected) == 31
    _assert_sgd_matches_loop(lambda cls: cls(penalty=penalty, alpha=alpha), sample_selected)


def test_sgd_scores_of_an_empty_vector_are_a_copy_of_the_bias():
    sgd = SGDLinearClassifier()
    sgd.partial_fit(make_fv({2: 3.0}), P)
    empty = make_fv()
    assert not len(empty.arrays[0])
    scores = sgd._scores(empty)
    assert scores.tobytes() == sgd._b.tobytes()
    assert not np.shares_memory(scores, sgd._b)
    before = scores.copy()
    sgd.partial_fit(make_fv({2: 3.0}), N)  # moves every bias
    assert scores.tobytes() == before.tobytes()


@pytest.mark.parametrize("sparse_dim", [20, 40])  # narrower, wider than 30
def test_sgd_refuses_a_vector_of_another_width(sparse_dim):
    sgd = SGDLinearClassifier()
    sgd.partial_fit(make_fv({2: 3.0}), P)
    w, b = sgd._w.copy(), sgd._b.copy()
    other = make_fv({1: 1.0, sparse_dim - 1: 2.0}, sparse_dim=sparse_dim)
    names_both = rf"\b{other.total_dim}\b.*\b{make_fv().total_dim}\b"
    with pytest.raises(ValueError, match=names_both):
        sgd.predict_label(other)
    with pytest.raises(ValueError, match=names_both):
        sgd.partial_fit(other, N)
    assert sgd.t == 1
    assert sgd._w.tobytes() == w.tobytes() and sgd._b.tobytes() == b.tobytes()


def _sgd_stages(model):
    if isinstance(model, StackedClassifier):
        return [model.stage1, model.stage2_pre, model.stage2_opp]
    return [model]


def _sgd_state(model):
    return [(m.t, m._w.tobytes(), m._b.tobytes()) for m in _sgd_stages(model)]


def _counting_passes(monkeypatch):
    """A list that ``_WeightBank.score``, the one scoring pass, appends
    (bank, vector) to on each call."""
    passes = []
    real = streamml._WeightBank.score

    def counting(self, fv):
        passes.append((self, fv))
        return real(self, fv)

    monkeypatch.setattr(streamml._WeightBank, "score", counting)
    return passes


def _reuses(stage, fv):
    """Whether ``stage`` would take its bank's kept scores for ``fv``."""
    bank = stage._bank
    return bank.fv() is fv and bank.scored_t[stage._k] == stage.t


def _fitted_stages(model, label):
    """The stages of ``model`` that a fit of ``label`` trains."""
    if not isinstance(model, StackedClassifier):
        return [model]
    return [model.stage1,
            *([model.stage2_pre] if label in (P, N) else []),
            *([model.stage2_opp] if label in (O, N) else [])]


@pytest.fixture(scope="module")
def planted_sgd_stream():
    stream, _ = make_planted_stream(400, seed=3, warmup=100)
    return stream


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("penalty", ["l1", "l2", "elasticnet"])
@pytest.mark.parametrize("source", ["sample", "planted"])
def test_sgd_reuse_leaves_the_state_of_fit_only(
    source, penalty, stacked, sample_selected, planted_sgd_stream, monkeypatch
):
    stream = sample_selected if source == "sample" else planted_sgd_stream
    args = learner_args("sgd", {"penalty": penalty, "alpha": 0.001}, 0)
    fit_only = make_learner("sgd", args, stacked)
    for fv, label in stream:
        fit_only.partial_fit(fv, label)
    passes = _counting_passes(monkeypatch)
    model = make_learner("sgd", args, stacked)
    prequential_run(stream, model)
    assert _sgd_state(model) == _sgd_state(fit_only)
    # one bank for the model, stacked or not, and one scoring pass per
    # vector, predicted and fitted by every stage
    assert {id(m._bank) for m in _sgd_stages(model)} == {id(bank) for bank, _ in passes}
    assert len({id(fv) for fv, _ in stream}) == len(stream) == len(passes)
    assert all(scored is fv for (_, scored), (fv, _) in zip(passes, stream))


@pytest.mark.parametrize("penalty", ["l1", "l2", "elasticnet"])
@pytest.mark.parametrize("source", ["sample", "planted"])
def test_stacked_sgd_bank_matches_unshared_loop_stages(
    source, penalty, sample_selected, planted_sgd_stream
):
    # the oracle: three standalone learners with the loops' arithmetic,
    # each with its own weights
    stream = sample_selected if source == "sample" else planted_sgd_stream
    args = learner_args("sgd", {"penalty": penalty, "alpha": 0.001}, 0)
    model = make_learner("sgd", args, True)
    oracle = StackedClassifier(*(_LoopSGD(classes=m.classes, **args) for m in _sgd_stages(model)))
    for fv, label in stream:
        assert model.predict_label(fv) is oracle.predict_label(fv)
        for m, o in zip(_sgd_stages(model), _sgd_stages(oracle)):
            assert m.predict_label(fv) is o.predict_label(fv)
        model.partial_fit(fv, label)
        oracle.partial_fit(fv, label)
    assert _sgd_state(model) == _sgd_state(oracle)
    (bank,) = {m._bank for m in _sgd_stages(model)}
    assert bank.w.shape == (7, stream[0][0].total_dim)


def _trained_sgd(stream, stacked):
    model = make_learner("sgd", learner_args("sgd", {"alpha": 0.001}, 0), stacked)
    for fv, label in stream:
        model.partial_fit(fv, label)
    return model


def test_sgd_reuse_recomputes_for_another_vector(planted_sgd_stream):
    history, rest = planted_sgd_stream[:50], planted_sgd_stream[50:]
    for stacked in (False, True):
        reference, tested = _trained_sgd(history, stacked), _trained_sgd(history, stacked)
        for (a, _), (b, label) in zip(rest, rest[1:]):
            # another vector of the stream at the same t; its scores would
            # give another hinge update
            tested.predict_label(a)
            tested.partial_fit(b, label)
            reference.partial_fit(b, label)
            assert _sgd_state(tested) == _sgd_state(reference)


def test_sgd_reuse_recomputes_when_the_same_vector_is_fitted_twice(planted_sgd_stream):
    history, rest = planted_sgd_stream[:50], planted_sgd_stream[50:150]
    for stacked in (False, True):
        reference, tested = _trained_sgd(history, stacked), _trained_sgd(history, stacked)
        for fv, label in rest:
            tested.predict_label(fv)
            tested.partial_fit(fv, label)
            # every stage that fitted no longer takes the kept scores
            assert not any(_reuses(m, fv) for m in _fitted_stages(tested, label))
            tested.partial_fit(fv, label)
            reference.partial_fit(fv, label)
            reference.partial_fit(fv, label)
            assert _sgd_state(tested) == _sgd_state(reference)


def test_sgd_reuse_never_takes_scores_kept_at_another_t(planted_sgd_stream):
    # the kept scores were made with the weights of their t; were they
    # still kept after a fit, the vector's next fit must not read them
    history, rest = planted_sgd_stream[:50], planted_sgd_stream[50:150]
    for stacked in (False, True):
        reference, tested = _trained_sgd(history, stacked), _trained_sgd(history, stacked)
        bank = _sgd_stages(tested)[0]._bank
        for (fv, label), (other, other_label) in zip(rest, rest[1:]):
            tested.predict_label(fv)
            kept = bank.fv, bank.scores, bank.scored_t
            assert kept[0]() is fv
            tested.partial_fit(other, other_label)
            assert bank.fv() is other
            bank.fv, bank.scores, bank.scored_t = kept
            tested.partial_fit(fv, label)
            reference.partial_fit(other, other_label)
            reference.partial_fit(fv, label)
            assert _sgd_state(tested) == _sgd_state(reference)


def test_sgd_stage1_fit_keeps_the_stage2_rows_but_not_its_own(planted_sgd_stream, monkeypatch):
    history, rest = planted_sgd_stream[:50], planted_sgd_stream[50:150]
    reference, tested = _trained_sgd(history, True), _trained_sgd(history, True)
    passes = _counting_passes(monkeypatch)
    for fv, label in rest:
        tested.predict_label(fv)
        n = len(passes)
        tested.stage1.partial_fit(fv, label)
        assert not _reuses(tested.stage1, fv)
        assert _reuses(tested.stage2_pre, fv) and _reuses(tested.stage2_opp, fv)
        for stage in _fitted_stages(tested, label)[1:]:
            stage.partial_fit(fv, label)
        assert len(passes) == n  # every stage fitted on the predicted scores
        tested.stage1.predict_label(fv)
        assert len(passes) == n + 1  # stage 1's rows were stale
        reference.partial_fit(fv, label)
        assert _sgd_state(tested) == _sgd_state(reference)


def test_stacked_sgd_scores_each_replay_linear_vector_once(monkeypatch, tmp_path, benchmark_inputs):
    passes = _counting_passes(monkeypatch)
    workload = benchmark_inputs["replay-linear"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(workload.train_eval_argv(str(tmp_path))) == 0
    # the warmup fits, then a predict and a fit per instance: one pass each
    assert len({id(bank) for bank, _ in passes}) == 1
    assert len(passes) == workload.n_instances == 3100


def test_stacked_sgd_on_sample_reads_each_vector_once(monkeypatch, tmp_path, sample_paths):
    calls = 0
    real_items = FeatureVector.items

    def counting_items(self):
        nonlocal calls
        calls += 1
        return real_items(self)

    monkeypatch.setattr(FeatureVector, "items", counting_items)
    argv = ["train-eval", "--warmup", "10", "--learner", "sgd", "--stacked", "--percentile", "15"]
    for key in ("lexicons", "tweets", "labels", "prices"):
        argv += [f"--{key}", sample_paths[key]]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(tmp_path)]) == 0
    # chi-squared reads the 10 warmup vectors; then each of the 31 vectors
    # the learners see builds its arrays once (the loops made 210 calls)
    assert calls <= 10 + 31


# --------------------------------------------------- the learner protocol


@pytest.mark.parametrize("stacked", [False, True], ids=["single", "stacked"])
@pytest.mark.parametrize("learner", ["nb", "dt", "rf", "sgd"])
def test_every_learner_has_one_protocol(learner, stacked):
    model = make_learner(learner, learner_args(learner, {}, 0), stacked)
    # before the first fit, the first class: what a uniform prior gives
    assert model.predict_label(make_fv()) is CLASS_ORDER[0]
    learners = [model]
    if stacked:
        learners += [model.stage1, model.stage2_pre, model.stage2_opp]
    for m in learners:
        methods = vars(type(m))
        assert "predict_label" in methods and "partial_fit" in methods
        assert not hasattr(m, "predict")


# ------------------------------------------------------------- stacking


class _StubLearner:
    """Records training labels; predicts a fixed label."""

    def __init__(self, fixed, classes=CLASS_ORDER):
        self.fixed = fixed
        self.classes = classes
        self.seen = []

    def predict_label(self, fv):
        return self.fixed

    def partial_fit(self, fv, label):
        self.seen.append(label)


def test_stacked_requires_independent_learners():
    a = StreamingNaiveBayes()
    with pytest.raises(ValueError):
        StackedClassifier(a, a, StreamingNaiveBayes())


def test_stacked_routes_gold_labels():
    s1, pre, opp = _StubLearner(N), _StubLearner(P, (P, N)), _StubLearner(O, (O, N))
    stacked = StackedClassifier(s1, pre, opp)
    fv = make_fv()
    for label in (P, N, O, P, O, N):
        stacked.partial_fit(fv, label)
    assert s1.seen == [P, N, O, P, O, N]
    assert pre.seen == [P, N, P, N]  # never opportunity
    assert opp.seen == [N, O, O, N]  # never precaution


def test_stacked_with_confirming_stage2_gives_stage1_labels():
    # a stage-2 learner that predicts its non-neutral class confirms stage 1
    fv = make_fv()
    for s1_label in CLASS_ORDER:
        stacked = StackedClassifier(_StubLearner(s1_label), _StubLearner(P, (P, N)),
                                    _StubLearner(O, (O, N)))
        assert stacked.predict_label(fv) is s1_label


def test_stacked_demotion_only():
    rng = np.random.default_rng(11)
    for seed in range(3):
        stream = random_stream(np.random.default_rng(seed), 150)
        stacked = make_learner("nb", {}, True)
        for fv, label in stream:
            s1 = stacked.stage1.predict_label(fv)
            combined = stacked.predict_label(fv)
            if combined is not N:
                assert combined is s1
            stacked.partial_fit(fv, label)


# ----------------------------------------------------------------- grids


def test_grid_sizes():
    assert len(enumerate_grid(RF_GRID)) == 4 * 4 * 4
    assert len(enumerate_grid(SGD_GRID)) == 3 * 3 * 3 * 3 * 3


def test_grid_declared_values():
    assert RF_GRID["estimators"] == (10, 35, 50, 100)
    assert RF_GRID["max_features"] == ("auto", 35, 50, 100)
    assert RF_GRID["lambda"] == (6, 35, 50, 100)
    assert SGD_GRID["penalty"] == ("l1", "l2", "elasticnet")
    assert SGD_GRID["l1_ratio"] == (0.05, 0.15, 0.9)
    assert SGD_GRID["alpha"] == (0.001, 0.0001, 0.00001)
    assert SGD_GRID["max_iter"] == (100, 1000, 10000)
    assert SGD_GRID["tol"] == (1e-1, 1e-3, 1e-5)


def test_grid_enumeration_order():
    configs = enumerate_grid(RF_GRID)
    assert configs[0] == {"estimators": 10, "max_features": "auto", "lambda": 6}
    assert configs[1] == {"estimators": 10, "max_features": "auto", "lambda": 35}
    assert configs[-1] == {"estimators": 100, "max_features": 100, "lambda": 100}


def test_grid_search_tie_goes_to_first(monkeypatch):
    rng = np.random.default_rng(12)
    warmup = random_stream(rng, 20)
    # the learner ignores its arguments, so every accuracy ties
    monkeypatch.setitem(
        streamml.LEARNERS, "sgd", lambda classes, **args: StreamingNaiveBayes(classes=classes)
    )
    result = grid_search("sgd", warmup, False, 0)
    assert isinstance(result, GridSearchResult)
    first = enumerate_grid(SGD_GRID)[0]
    assert result.point == first
    assert result.args == learner_args("sgd", first, 0)


def _full_grid_search(grid, warmup, factory):
    """The search before equal learners shared a run: one prequential run per
    grid point. Returns every point's accuracy and the first best point."""
    scored = [(cfg, prequential_run(warmup, factory(cfg)).accuracy) for cfg in enumerate_grid(grid)]
    best = scored[0]
    for cfg, acc in scored:
        if acc > best[1]:
            best = (cfg, acc)
    return scored, best


@pytest.mark.parametrize("learner, grid, runs", [("sgd", SGD_GRID, 15), ("rf", RF_GRID, 32)])
def test_grid_search_runs_each_distinct_learner_once(monkeypatch, learner, grid, runs):
    # small, because the full enumeration of RF_GRID builds forests of up to 100 trees
    warmup, _ = make_planted_stream(20, seed=1, warmup=20)
    assert GRIDS[learner] is grid
    built = []
    real = streamml.LEARNERS[learner]

    def counting(classes, **args):
        built.append(args)
        return real(classes=classes, **args)

    with monkeypatch.context() as patch:
        patch.setitem(streamml.LEARNERS, learner, counting)
        result = grid_search(learner, warmup, False, 7)
    scored, best = _full_grid_search(
        grid, warmup, lambda p: make_learner(learner, learner_args(learner, p, 7), False)
    )
    assert len(built) == runs
    assert (result.point, result.accuracy) == best
    assert result.args == learner_args(learner, result.point, 7)
    # the window tells the learners apart, and points that resolve alike
    # really do score alike
    by_args = {}
    for point, acc in scored:
        by_args.setdefault(frozenset(learner_args(learner, point, 7).items()), set()).add(acc)
    assert len(by_args) == runs
    assert all(len(accs) == 1 for accs in by_args.values())
    assert len({acc for _, acc in scored}) > 1
    assert result.point != scored[0][0]


def test_grid_search_validation():
    with pytest.raises(ValueError, match="empty warmup window"):
        grid_search("rf", [], False, 0)
    with pytest.raises(KeyError):  # naive Bayes has no grid
        grid_search("nb", [(make_fv(), P)], False, 0)


@pytest.mark.parametrize("learner", ["nb", "dt", "rf", "sgd"])
def test_learner_args_set_only_what_the_point_sets(learner):
    seed = 11
    args = learner_args(learner, {}, seed)
    assert args == ({"seed": seed} if learner == "rf" else {})
    # built from them, a learner has the state of the bare constructor
    cls = streamml.LEARNERS[learner]
    bare = cls(seed=seed) if learner == "rf" else cls()
    built = make_learner(learner, args, False)
    assert type(built) is cls
    assert pickle.dumps(built) == pickle.dumps(bare)


def test_learner_args_rename_clip_and_drop_unread_keys():
    assert learner_args("rf", {"estimators": 35, "max_features": 100, "lambda": 50}, 3) == {
        "n_estimators": 35, "max_features": N_DENSE, "lam": 50, "seed": 3
    }
    assert learner_args("rf", {"max_features": "auto"}, 0) == {"max_features": "auto", "seed": 0}
    point = {"penalty": "l1", "l1_ratio": 0.9, "alpha": 0.001, "max_iter": 100, "tol": 0.1}
    assert learner_args("sgd", point, 0) == {"penalty": "l1", "alpha": 0.001}
    point["penalty"] = "elasticnet"
    assert learner_args("sgd", point, 0) == {"penalty": "elasticnet", "l1_ratio": 0.9, "alpha": 0.001}
    # no key of a grid sets anything on a learner without one
    assert learner_args("dt", point, 0) == learner_args("nb", point, 0) == {}
