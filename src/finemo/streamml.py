"""Incremental learners, the two-stage stacking ensemble and grid search.

The four learners are naive Bayes, the Hoeffding tree, the adaptive random
forest and the SGD linear model; ``StackedClassifier`` cascades three of one
kind. Every learner exposes predict(fv) -> per-class scores (never mutating)
and partial_fit(fv, label) -> None (one instance, order-sensitive). Before
the first fit, predict returns the uniform prior.

Naive Bayes and the linear model consume the full hybrid feature space
through ``FeatureVector.arrays``, naive Bayes only its first ``n_counts``
entries; the tree learners consume only the dense block (``FeatureVector.dense``:
BOW counters, numeric counters, trend), so a tree run never makes a vector
count its n-grams. Hoeffding-tree leaves predict by majority vote. A tree
keeps its per-leaf class counts and, per leaf feature and value, its
per-class weights as lists of Python floats; each leaf also keeps the index
of its first-maximum class, updated with every weight it learns, so no
label or vote rescans the counts. A split attempt makes one ``np.log2``
call, on the probabilities of every class distribution it scores.

The forest descends each tree once per fitted instance, inline: the drift
check and the update share the leaf. Each tree's Poisson weights are drawn
``POISSON_BATCH`` at a time from the generator that also picks the tree's
leaf subspaces; before any other draw from it the batch is rewound to the
weights used (``_BatchedPoisson``), so every weight, subspace and reset has
the bits of one scalar draw per weight.
"""

from __future__ import annotations

import itertools
import math
import pickle
from collections import deque
from dataclasses import dataclass

import numpy as np

from finemo.evaluation import prequential_run
from finemo.features import (
    N_BOW,
    N_DENSE,
    N_NUMERIC,
    NUMERIC_COLUMNS,
    TREND_COLUMN,
    FeatureVector,
)
from finemo.segmenter import CLASS_ORDER, EmotionLabel

VAR_EPSILON = 1e-9  # floor of naive Bayes's per-class numeric variances
TIE_THRESHOLD = 0.05  # a Hoeffding bound below this splits even on a tie
POISSON_BATCH = 64  # forest weights drawn per generator call


def _argmax_label(scores: dict, classes) -> EmotionLabel:
    # ties resolved by class order
    best = None
    best_score = -math.inf
    for cls in classes:
        s = scores[cls]
        if s > best_score:
            best, best_score = cls, s
    return best


class IncrementalLearner:
    """Shared predict-label plumbing; subclasses implement predict/partial_fit."""

    classes: tuple[EmotionLabel, ...]

    def predict(self, fv: FeatureVector) -> dict[EmotionLabel, float]:
        raise NotImplementedError

    def partial_fit(self, fv: FeatureVector, label: EmotionLabel) -> None:
        raise NotImplementedError

    def predict_label(self, fv: FeatureVector) -> EmotionLabel:
        return _argmax_label(self.predict(fv), self.classes)

    def _uniform(self) -> dict[EmotionLabel, float]:
        p = 1.0 / len(self.classes)
        return {c: p for c in self.classes}


def _log_quotients(counts: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """``math.log((counts[k, j] + 1.0) / denom[k])`` for every cell, with one
    ``math.log`` per row and distinct count: counts repeat a few small
    values, so on the benchmark's ``typo-lexicon`` stream a quarter of the
    cells need a log. ``math.log``, not ``np.log``: the vectorized log
    differs in the last bit for a few quotients."""
    # sorted distinct counts; np.unique would add 1.7 MiB to peak RSS
    flat = np.sort(counts, axis=None)
    first = np.ones(flat.size, dtype=bool)
    first[1:] = flat[1:] != flat[:-1]
    values = flat[first]
    quotients = (values + 1.0) / denom[:, None]
    logs = np.array(list(map(math.log, quotients.ravel().tolist()))).reshape(quotients.shape)
    return np.take_along_axis(logs, np.searchsorted(values, counts), axis=1)


class StreamingNaiveBayes(IncrementalLearner):
    """Mixed-likelihood incremental Naive Bayes.

    Multinomial with add-1 smoothing over the count columns (n-grams and
    BOW counters), Gaussian over the numeric counters (streaming sums / sums
    of squares), Bernoulli with add-1 over the trend flag.

    The counts are one ``(n_classes, n_text + N_BOW)`` matrix, sized on the
    first fit; every vector must have that many count columns. Both
    ``partial_fit`` and ``predict`` read the first ``n_counts`` entries of the
    vector's ``arrays``, so they cost O(nnz) per class, and every score has
    the bits of the per-term loop: prior, then each count term in ``arrays``
    order, then the Gaussian and Bernoulli terms.
    """

    def __init__(self, classes=CLASS_ORDER):
        self.classes = tuple(classes)
        self.n_total = 0
        k = len(self.classes)
        # per class, by position in ``classes``
        self._n = [0] * k
        self._counts: np.ndarray | None = None
        self._counts_total = [0.0] * k
        self._num_sum = np.zeros((k, N_NUMERIC))
        self._num_sumsq = np.zeros((k, N_NUMERIC))
        self._trend_true = [0] * k

    def _count_terms(self, fv: FeatureVector) -> tuple[np.ndarray, np.ndarray]:
        """The first ``fv.n_counts`` entries of ``fv.arrays``: the n-gram and
        BOW counts, before the numeric counters and the trend."""
        width = fv.n_text + N_BOW
        if self._counts is None:
            self._counts = np.zeros((len(self.classes), width))
        elif width != self._counts.shape[1]:
            raise ValueError(
                f"feature vector has {width} count columns, "
                f"the model was sized to {self._counts.shape[1]}"
            )
        m = fv.n_counts
        idx, vals = fv.arrays
        return idx[:m], vals[:m]

    def partial_fit(self, fv: FeatureVector, label: EmotionLabel) -> None:
        k = self.classes.index(label)
        idx, vals = self._count_terms(fv)
        # the columns are distinct, so each count gets one add
        self._counts[k, idx] += vals
        total = self._counts_total[k]
        for v in vals.tolist():
            total += v
        self._counts_total[k] = total
        x = fv.dense[NUMERIC_COLUMNS]
        self._num_sum[k] += x
        self._num_sumsq[k] += x * x
        self._trend_true[k] += int(fv.dense[TREND_COLUMN])
        self._n[k] += 1
        self.n_total += 1

    def predict(self, fv: FeatureVector) -> dict[EmotionLabel, float]:
        if self.n_total == 0:
            return self._uniform()
        idx, vals = self._count_terms(fv)
        seen = [k for k, n in enumerate(self._n) if n]
        ns = [self._n[k] for k in seen]
        vocab_size = fv.n_text + N_BOW
        denom = np.array([self._counts_total[k] + vocab_size for k in seen])
        logs = _log_quotients(self._counts[:, idx][seen], denom)
        # add.accumulate adds the terms one after another, in arrays order,
        # so each sum has the bits of log prior + v_1 log q_1 + v_2 log q_2 ...
        prior = [math.log(n / self.n_total) for n in ns]
        terms = np.concatenate([np.array(prior)[:, None], logs * vals], axis=1)
        multinomial = np.add.accumulate(terms, axis=1)[:, -1].tolist()
        n = np.array(ns, dtype=float)[:, None]
        mean = self._num_sum[seen] / n
        var = self._num_sumsq[seen] / n - mean * mean
        var = np.maximum(var, VAR_EPSILON)
        x = fv.dense[NUMERIC_COLUMNS]
        # the sum of each contiguous row has the bits of np.sum of that row
        gaussian = np.sum(
            -0.5 * np.log(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var), axis=1
        ).tolist()
        trend = fv.dense[TREND_COLUMN]
        scores = {c: -math.inf for c in self.classes}
        for k, n, logp, gauss in zip(seen, ns, multinomial, gaussian):
            p_true = (self._trend_true[k] + 1.0) / (n + 2.0)
            scores[self.classes[k]] = logp + gauss + math.log(p_true if trend else 1.0 - p_true)
        return scores


class _LeafNode:
    __slots__ = ("class_counts", "best", "observers", "n_since")

    def __init__(self, n_classes: int, features: list[int]):
        self.class_counts = [0.0] * n_classes
        self.best = 0  # the index of the first maximum of class_counts
        # per feature of the leaf, in order: value -> per-class weights
        self.observers: dict[int, dict[float, list[float]]] = {f: {} for f in features}
        self.n_since = 0.0


class _SplitNode:
    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, feature: int, threshold: float, left, right):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


def _total(values) -> float:
    """``values`` added left to right. For fewer than eight floats this has
    the bits of ``np.sum``; the builtin ``sum`` compensates from Python 3.12
    on, so it can differ in the last bit."""
    total = 0.0
    for v in values:
        total += v
    return total


def _best_splits(counts: list[float], observers: dict) -> list[tuple[float, int, float]]:
    """(gain, feature, threshold) of the best threshold of every feature
    whose information gain is positive somewhere; a later threshold wins
    only with a strictly larger gain.

    The candidates are the distinct observed values but the largest, in
    sorted order; the left side adds their per-class weights one after
    another and the right side is ``counts`` minus the left. The entropy of
    the parent and of both sides of every candidate is
    ``-(p_0 log2 p_0 + p_1 log2 p_1 + ...)`` over the positive counts, added
    left to right; the logs of all these probabilities come from one
    ``np.log2`` call. ``math.log2`` differs from ``np.log2`` in the last bit
    for a few quotients, and a one-bit gain difference can flip a tie."""
    n = _total(counts)
    # the parent's probabilities, then those of the left and the right side
    # of every candidate; distribution d has probs[ends[d - 1]:ends[d]]
    probs = [c / n for c in counts if c > 0]
    ends = [len(probs)]
    candidates = []  # (feature, threshold, left total, right total)
    for f, per_value in observers.items():
        left = [0.0] * len(counts)
        for v in sorted(per_value)[:-1]:
            left = [a + b for a, b in zip(left, per_value[v])]
            right = [c - a for c, a in zip(counts, left)]
            ln, rn = _total(left), _total(right)
            if ln > 0 and rn > 0:
                probs += [c / ln for c in left if c > 0]
                ends.append(len(probs))
                probs += [c / rn for c in right if c > 0]
                ends.append(len(probs))
                candidates.append((f, v, ln, rn))
    logs = np.log2(probs).tolist()
    entropies, start = [], 0
    for end in ends:
        acc = 0.0
        for i in range(start, end):
            acc += probs[i] * logs[i]
        entropies.append(-acc)
        start = end
    parent_entropy = entropies[0]
    sides = iter(entropies[1:])
    best: dict[int, tuple[float, float]] = {}  # feature -> (gain, threshold)
    for (f, v, ln, rn), e_left, e_right in zip(candidates, sides, sides):
        gain = parent_entropy - (ln / n) * e_left - (rn / n) * e_right
        if gain > best.get(f, (0.0,))[0]:
            best[f] = (gain, v)
    return [(gain, f, v) for f, (gain, v) in best.items()]


_MAX_DISTINCT = 64


class HoeffdingTreeClassifier(IncrementalLearner):
    """Incremental decision tree with Hoeffding-bound split decisions.

    A leaf splits once the information-gain gap between its two best
    candidate splits exceeds eps = sqrt(R^2 ln(1/delta) / (2 n)), with
    R = log2(#classes), or once eps falls below TIE_THRESHOLD. Leaves
    predict by majority vote. Every call reads the dense block once as a
    list of Python floats. A leaf's class counts and its per-feature,
    per-value class weights are lists of Python floats. Each leaf keeps the
    index of its first-maximum class: a weight for class ``ci`` makes ``ci``
    the majority when its count passes the majority's, or equals it with
    ``ci`` first in class order, which is exact because weights are never
    negative. A split attempt on a leaf with two or more classes scores
    every candidate threshold with one ``np.log2`` call (``_best_splits``).

    A ``subspace_size`` below N_DENSE gives each new leaf that many features
    drawn with ``rng.choice`` (a ``Generator``, or the forest's
    ``_BatchedPoisson``); None or a larger size gives it every feature.
    """

    def __init__(
        self,
        classes=CLASS_ORDER,
        delta: float = 1e-7,
        grace_period: int = 200,
        subspace_size: int | None = None,
        rng: np.random.Generator | None = None,
    ):
        if subspace_size is not None and subspace_size < N_DENSE and rng is None:
            raise ValueError(f"a subspace of {subspace_size} features needs an rng")
        self.classes = tuple(classes)
        self.delta = delta
        self.grace_period = grace_period
        self.subspace_size = subspace_size
        self.rng = rng
        self._root = self._new_leaf()
        self.n_seen = 0

    def _new_leaf(self) -> _LeafNode:
        features = list(range(N_DENSE))
        if self.subspace_size is not None and self.subspace_size < N_DENSE:
            chosen = self.rng.choice(N_DENSE, size=self.subspace_size, replace=False)
            features = sorted(int(f) for f in chosen)
        return _LeafNode(len(self.classes), features)

    def _descend(self, x: list[float]) -> tuple[_LeafNode, _SplitNode | None, bool | None]:
        """The leaf that ``x`` reaches, its parent split and the side taken
        there (True: left); (root, None, None) while the root is a leaf."""
        node, parent, side = self._root, None, None
        while isinstance(node, _SplitNode):
            parent, side = node, x[node.feature] <= node.threshold
            node = node.left if side else node.right
        return node, parent, side

    def partial_fit(self, fv: FeatureVector, label: EmotionLabel, weight: float = 1.0) -> None:
        if not 0.0 <= weight < math.inf:
            raise ValueError(f"weight must be finite and non-negative, got {weight!r}")
        x = fv.dense.tolist()
        self._learn(x, self.classes.index(label), weight, *self._descend(x))

    def _learn(self, x: list[float], ci: int, weight: float, leaf: _LeafNode, parent, side) -> None:
        """Add ``x`` with class index ``ci`` and ``weight`` (finite, not
        negative) to the leaf that ``_descend(x)`` returned, then try to
        split it."""
        self.n_seen += 1
        counts = leaf.class_counts
        counts[ci] += weight
        best = leaf.best
        if counts[ci] > counts[best] or (counts[ci] == counts[best] and ci < best):
            leaf.best = ci
        leaf.n_since += weight
        for f, per_value in leaf.observers.items():
            v = x[f]
            stats = per_value.get(v)
            if stats is None:
                if len(per_value) >= _MAX_DISTINCT:
                    stats = per_value[min(per_value, key=lambda k: abs(k - v))]
                else:
                    stats = per_value[v] = [0.0] * len(self.classes)
            stats[ci] += weight
        if leaf.n_since >= self.grace_period:
            leaf.n_since = 0.0
            self._attempt_split(leaf, parent, side)

    def _attempt_split(self, leaf: _LeafNode, parent, side) -> None:
        counts = leaf.class_counts
        if len(counts) - counts.count(0.0) < 2:  # a pure leaf
            return
        # best split per feature, each with a positive gain; the Hoeffding
        # gap compares across features
        per_feature = _best_splits(counts, leaf.observers)
        if not per_feature:
            return
        per_feature.sort(key=lambda t: (-t[0], t[1]))
        gain, feature, threshold = per_feature[0]
        second = per_feature[1][0] if len(per_feature) > 1 else 0.0
        n = _total(counts)
        r = math.log2(len(self.classes))
        eps = math.sqrt(r * r * math.log(1.0 / self.delta) / (2.0 * n)) if self.delta < 1 else 0.0
        if gain - second > eps or eps < TIE_THRESHOLD:
            left_leaf, right_leaf = self._new_leaf(), self._new_leaf()
            per_value = leaf.observers[feature]
            for v, stats in per_value.items():
                child = left_leaf if v <= threshold else right_leaf
                child.class_counts = [a + b for a, b in zip(child.class_counts, stats)]
            for child in (left_leaf, right_leaf):
                child.best = child.class_counts.index(max(child.class_counts))
            split = _SplitNode(feature, threshold, left_leaf, right_leaf)
            if parent is None:
                self._root = split
            elif side:
                parent.left = split
            else:
                parent.right = split

    def predict_label(self, fv: FeatureVector) -> EmotionLabel:
        return self._leaf_label(self._descend(fv.dense.tolist())[0])

    def predict(self, fv: FeatureVector) -> dict[EmotionLabel, float]:
        return self._leaf_scores(self._descend(fv.dense.tolist())[0])

    def _leaf_label(self, leaf: _LeafNode) -> EmotionLabel:
        # the first maximum wins, as in _argmax_label; a leaf that has seen
        # nothing has all-zero counts, so it gives the uniform prior's pick
        return self.classes[leaf.best]

    def _leaf_scores(self, leaf: _LeafNode) -> dict[EmotionLabel, float]:
        # an unfitted tree's root has all-zero counts: the uniform prior
        counts = leaf.class_counts
        total = _total(counts)
        if total <= 0:
            return self._uniform()
        return {c: counts[i] / total for i, c in enumerate(self.classes)}


class _DriftMonitor:
    """Sliding-window error monitor: flags drift when the recent error rate
    exceeds the lifetime rate by three binomial standard deviations.

    The window keeps a running count of its errors, so ``add`` is O(1).
    While the recent rate is at most the lifetime rate, which integer
    counts decide exactly, no drift is possible and ``add`` does no float
    work.
    """

    def __init__(self, window: int = 100, min_instances: int = 200):
        self.window = window
        self.min_instances = min_instances
        self.recent: deque[int] = deque()
        self.recent_errors = 0
        self.errors = 0
        self.n = 0

    def add(self, error: bool) -> bool:
        e = int(error)
        self.n += 1
        self.errors += e
        self.recent.append(e)
        self.recent_errors += e
        if len(self.recent) > self.window:
            self.recent_errors -= self.recent.popleft()
        if self.n < self.min_instances or len(self.recent) < self.window:
            return False
        # recent <= lifetime; float division is monotone and sigma >= 0
        if self.recent_errors * self.n <= self.errors * self.window:
            return False
        lifetime = self.errors / self.n
        recent = self.recent_errors / len(self.recent)
        sigma = math.sqrt(max(lifetime * (1.0 - lifetime), 1e-12) / self.window)
        return recent > lifetime + 3.0 * sigma


class _BatchedPoisson:
    """Poisson(``lam``) weights drawn ``POISSON_BATCH`` at a time from
    ``rng``, with the values and generator states of one scalar draw each.

    ``Generator.poisson(lam, n)`` consumes the stream as ``n`` scalar calls
    do, so a batch holds the next weights in order. Its tree draws leaf
    subspaces from the same generator through ``choice``, which first
    rewinds: it restores the state from before the batch, redraws the
    weights used so far and drops the rest.
    """

    __slots__ = ("rng", "lam", "_batch", "_used", "_state")

    def __init__(self, rng: np.random.Generator, lam: float | None):
        self.rng = rng
        self.lam = lam
        self._batch: list[float] = []
        self._used = 0
        self._state = None  # the generator state before the batch

    def next(self) -> float:
        i = self._used
        if i == len(self._batch):
            # every drawn weight is used: the generator is where scalar
            # draws would have left it
            self._state = self.rng.bit_generator.state
            self._batch = self.rng.poisson(self.lam, POISSON_BATCH).astype(float).tolist()
            i = 0
        self._used = i + 1
        return self._batch[i]

    def choice(self, *args, **kwargs):
        if self._used < len(self._batch):
            self.rng.bit_generator.state = self._state
            self.rng.poisson(self.lam, self._used)
        self._batch, self._used = [], 0
        return self.rng.choice(*args, **kwargs)


class AdaptiveRandomForestClassifier(IncrementalLearner):
    """Online bagging ensemble of Hoeffding trees.

    Per-tree Poisson(lambda) instance weighting, per-leaf random feature
    subsets of size max_features, and a per-tree drift monitor that replaces
    a drifting tree with a fresh one. Prediction is a majority vote, ties
    resolved by class order.

    Tree ``k`` draws its weights and its leaf subspaces from one generator,
    seeded ``seed + 1000 k``, in the order of one scalar Poisson draw per
    fitted instance; ``_BatchedPoisson`` draws the weights in batches and
    keeps that order. ``lam=None`` gives every instance weight 1 and draws
    nothing. Fitting and voting descend each tree inline and read each
    leaf's cached majority.
    """

    def __init__(
        self,
        classes=CLASS_ORDER,
        n_estimators: int = 10,
        lam: float | None = 6.0,
        max_features: int | str = "auto",
        delta: float = 1e-7,
        grace_period: int = 200,
        seed: int = 0,
        drift_detection: bool = True,
    ):
        self.classes = tuple(classes)
        self.n_estimators = n_estimators
        self.lam = lam
        self.delta = delta
        self.grace_period = grace_period
        self.drift_detection = drift_detection
        if max_features == "auto":
            self.subspace_size = max(1, round(math.sqrt(N_DENSE)))
        else:
            self.subspace_size = min(int(max_features), N_DENSE)
        self._draws = [
            _BatchedPoisson(np.random.default_rng(seed + 1000 * k), lam) for k in range(n_estimators)
        ]
        self._trees = [self._new_tree(k) for k in range(n_estimators)]
        self._monitors = [_DriftMonitor() for _ in range(n_estimators)]
        self.n_seen = 0
        self.n_resets = 0

    def _new_tree(self, k: int) -> HoeffdingTreeClassifier:
        return HoeffdingTreeClassifier(
            classes=self.classes,
            delta=self.delta,
            grace_period=self.grace_period,
            subspace_size=self.subspace_size,
            rng=self._draws[k],
        )

    def partial_fit(self, fv: FeatureVector, label: EmotionLabel) -> None:
        self.n_seen += 1
        x = fv.dense.tolist()
        ci = self.classes.index(label)
        drift_detection, draws = self.drift_detection, self.lam is not None
        for k, tree in enumerate(self._trees):
            # one descent per tree, as in HoeffdingTreeClassifier._descend:
            # the drift check reads the leaf that the update then uses,
            # unless a reset leaves only a fresh root
            leaf, parent, side = tree._root, None, None
            while isinstance(leaf, _SplitNode):
                parent, side = leaf, x[leaf.feature] <= leaf.threshold
                leaf = leaf.left if side else leaf.right
            if drift_detection and tree.n_seen > 0 and self._monitors[k].add(leaf.best != ci):
                self._trees[k] = tree = self._new_tree(k)
                self._monitors[k] = _DriftMonitor()
                self.n_resets += 1
                leaf, parent, side = tree._root, None, None
            w = self._draws[k].next() if draws else 1.0
            if w > 0:
                tree._learn(x, ci, w, leaf, parent, side)

    def _votes(self, fv: FeatureVector) -> list[float]:
        """Per class, the number of fitted trees whose leaf it is the
        majority of."""
        votes = [0.0] * len(self.classes)
        x = fv.dense.tolist()
        for tree in self._trees:
            if tree.n_seen > 0:
                node = tree._root
                while isinstance(node, _SplitNode):
                    node = node.left if x[node.feature] <= node.threshold else node.right
                votes[node.best] += 1.0
        return votes

    def predict(self, fv: FeatureVector) -> dict[EmotionLabel, float]:
        votes = self._votes(fv)
        if not any(votes):
            return self._uniform()
        return dict(zip(self.classes, votes))

    def predict_label(self, fv: FeatureVector) -> EmotionLabel:
        # the first maximum, as _argmax_label gives; no votes: the first class
        votes = self._votes(fv)
        return self.classes[votes.index(max(votes))]


class SGDLinearClassifier(IncrementalLearner):
    """One-vs-rest linear model with hinge loss and eta_t = 1/(alpha t).

    Exactly one update per instance. Scoring and the hinge update read the
    vector's cached ``arrays``, so they cost O(nnz); every vector must have
    the width of the first one fitted.
    """

    def __init__(
        self,
        classes=CLASS_ORDER,
        penalty: str = "l2",
        l1_ratio: float = 0.15,
        alpha: float = 1e-4,
    ):
        if penalty not in ("l1", "l2", "elasticnet"):
            raise ValueError(f"unknown penalty: {penalty}")
        self.classes = tuple(classes)
        self.penalty = penalty
        self.l1_ratio = {"l1": 1.0, "l2": 0.0, "elasticnet": l1_ratio}[penalty]
        self.alpha = alpha
        self.t = 0
        self._w: np.ndarray | None = None
        self._b: np.ndarray | None = None

    def _ensure(self, fv: FeatureVector) -> None:
        if self._w is None:
            self._w = np.zeros((len(self.classes), fv.total_dim))
            self._b = np.zeros(len(self.classes))

    def _scores(self, fv: FeatureVector) -> np.ndarray:
        if fv.total_dim != self._w.shape[1]:
            raise ValueError(
                f"feature vector has {fv.total_dim} columns, "
                f"the model was sized to {self._w.shape[1]}"
            )
        idx, vals = fv.arrays
        # add.accumulate adds the terms one after another, in items() order,
        # so every score has the bits of b + w_1 x_1 + w_2 x_2 + ...; with
        # nnz 0 it returns a copy of b, never b itself
        terms = np.concatenate([self._b[:, None], self._w[:, idx] * vals], axis=1)
        return np.add.accumulate(terms, axis=1)[:, -1]

    def partial_fit(self, fv: FeatureVector, label: EmotionLabel) -> None:
        self._ensure(fv)
        scores = self._scores(fv)
        self.t += 1
        eta = 1.0 / (self.alpha * self.t)
        l2_part = self.alpha * (1.0 - self.l1_ratio)
        l1_part = self.alpha * self.l1_ratio
        if l2_part:
            self._w *= max(0.0, 1.0 - eta * l2_part)
        if l1_part:
            shrink = eta * l1_part
            self._w = np.sign(self._w) * np.maximum(np.abs(self._w) - shrink, 0.0)
        idx, vals = fv.arrays
        for i, cls in enumerate(self.classes):
            y = 1.0 if cls is label else -1.0
            if y * scores[i] < 1.0:
                # the columns are distinct, so each weight gets one add
                self._w[i, idx] += eta * y * vals
                self._b[i] += eta * y

    def predict(self, fv: FeatureVector) -> dict[EmotionLabel, float]:
        if self.t == 0 or self._w is None:
            return self._uniform()
        scores = self._scores(fv)
        return {c: float(scores[i]) for i, c in enumerate(self.classes)}


class StackedClassifier:
    """Two-stage cascade: a three-class stage followed by a binary
    emotion-vs-neutral re-check of non-neutral predictions. Stage 2 can only
    demote a prediction to neutral, never promote. Each stage-2 learner trains
    on the instances whose gold label is one of its two classes."""

    def __init__(
        self,
        stage1: IncrementalLearner,
        stage2_pre: IncrementalLearner,
        stage2_opp: IncrementalLearner,
    ):
        if stage1 is stage2_pre or stage1 is stage2_opp or stage2_pre is stage2_opp:
            raise ValueError("the three learners must be independent instances")
        self.stage1 = stage1
        self.stage2_pre = stage2_pre
        self.stage2_opp = stage2_opp
        self.classes = CLASS_ORDER

    def predict_label(self, fv: FeatureVector) -> EmotionLabel:
        s1 = self.stage1.predict_label(fv)
        if s1 is EmotionLabel.NEUTRAL:
            return EmotionLabel.NEUTRAL
        if s1 is EmotionLabel.PRECAUTION:
            return self.stage2_pre.predict_label(fv)
        return self.stage2_opp.predict_label(fv)

    def partial_fit(self, fv: FeatureVector, label: EmotionLabel) -> None:
        self.stage1.partial_fit(fv, label)
        if label in (EmotionLabel.PRECAUTION, EmotionLabel.NEUTRAL):
            self.stage2_pre.partial_fit(fv, label)
        if label in (EmotionLabel.OPPORTUNITY, EmotionLabel.NEUTRAL):
            self.stage2_opp.partial_fit(fv, label)


def make_stacked(factory) -> StackedClassifier:
    """Build a stacked classifier from a learner factory(classes)."""
    return StackedClassifier(
        stage1=factory(CLASS_ORDER),
        stage2_pre=factory((EmotionLabel.PRECAUTION, EmotionLabel.NEUTRAL)),
        stage2_opp=factory((EmotionLabel.OPPORTUNITY, EmotionLabel.NEUTRAL)),
    )


CHECKPOINT_FORMAT_VERSION = 1


def save_model(model, path: str) -> None:
    """Serialize a learner (or stacked cascade) to a versioned checkpoint."""
    with open(path, "wb") as fh:
        pickle.dump({"format_version": CHECKPOINT_FORMAT_VERSION, "model": model}, fh)


def load_model(path: str):
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format version: {version!r}")
    return payload["model"]


RF_GRID = {
    "estimators": (10, 35, 50, 100),
    "max_features": ("auto", 35, 50, 100),
    "lambda": (6, 35, 50, 100),
}

# as in the paper; max_iter and tol bound batch epochs, so they select nothing here
SGD_GRID = {
    "penalty": ("l1", "l2", "elasticnet"),
    "l1_ratio": (0.05, 0.15, 0.9),
    "alpha": (0.001, 0.0001, 0.00001),
    "max_iter": (100, 1000, 10000),
    "tol": (1e-1, 1e-3, 1e-5),
}


def learner_args(learner: str, point: dict) -> dict:
    """The constructor arguments of ``learner`` that grid ``point`` sets, with
    pipeline defaults for missing keys. Unread keys are dropped and ``max_features``
    is clipped to the dense block, so equal learners resolve to equal mappings."""
    if learner == "rf":
        max_features = point.get("max_features", "auto")
        if isinstance(max_features, int):
            max_features = min(max_features, N_DENSE)
        return {"n_estimators": point.get("estimators", 10), "max_features": max_features,
                "lam": point.get("lambda", 6)}
    if learner == "sgd":
        args = {"penalty": point.get("penalty", "l2"), "alpha": point.get("alpha", 1e-4)}
        if args["penalty"] == "elasticnet":
            args["l1_ratio"] = point.get("l1_ratio", 0.15)
        return args
    return {}


def enumerate_grid(grid: dict) -> list[dict]:
    """Cartesian product of the grid values, in declaration order."""
    keys = list(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


@dataclass
class GridSearchResult:
    config: dict
    accuracy: float
    n_evaluated: int  # grid points scored, not prequential runs


def grid_search(grid: dict, warmup, factory, resolve=dict) -> GridSearchResult:
    """Prequential accuracy over the warmup window per grid point; ties go to
    the first configuration in enumeration order. ``resolve(config)`` gives
    the arguments that ``factory(config)`` builds its deterministic learner
    from, so points that resolve alike would tie: only the first is run."""
    if not grid:
        raise ValueError("empty grid")
    configs = enumerate_grid(grid)
    if not warmup:
        raise ValueError("empty warmup window")
    best_cfg, best_acc = None, -1.0
    seen = set()
    for cfg in configs:
        key = frozenset(resolve(cfg).items())
        if key in seen:
            continue
        seen.add(key)
        acc = prequential_run(warmup, factory(cfg)).accuracy
        if acc > best_acc:
            best_cfg, best_acc = cfg, acc
    return GridSearchResult(config=best_cfg, accuracy=best_acc, n_evaluated=len(configs))
