"""Incremental learners, the two-stage stacking ensemble and grid search.

The four learners are naive Bayes, the Hoeffding tree, the adaptive random
forest and the SGD linear model; ``StackedClassifier`` cascades three of one
kind. Every learner, stacked or not, has one protocol, that of
prequential test-then-train: predict_label(fv) -> the predicted class (never
changing what the learner has learned) and partial_fit(fv, label) -> None
(one instance, order-sensitive). Ties go to the first class in the
learner's class order, and so does every prediction before the first fit.

Only this module names, builds and tunes the learners: callers pass a
``LEARNERS`` name and constructor arguments, every default lives in its
constructor, and ``grid_search`` tunes a learner over ``GRIDS[name]``.

Naive Bayes and the linear model consume the full hybrid feature space
through ``FeatureVector.arrays``, naive Bayes only its first ``n_counts``
entries; the tree learners consume only the dense block (``FeatureVector.dense``:
BOW counters, numeric counters, trend), so a tree run never makes a vector
count its n-grams. Hoeffding-tree leaves predict by majority vote. A tree
has one node type, a leaf that splits in place, and one descent,
``HoeffdingTreeClassifier._descend``, for the tree and the forest. A tree
keeps its per-leaf class counts and, per leaf feature and value, its
per-class weights as lists of Python floats; each leaf also keeps the index
of its first-maximum class, updated with every weight it learns, so no
label or vote rescans the counts.

Every log a learner takes is ``math.log`` or ``math.log2`` of a Python
float, never numpy's: numpy picks its log kernel by CPU, and its kernels
differ in the last bit for a few arguments, so a score or a split gain
would depend on the machine.

The forest's and the tree's fits are one loop over the trees,
``_fit_trees``, with the one copy of the leaf update: per tree one descent,
whose leaf the drift check and the update share, then the drift window,
the Poisson weight and the leaf update inline. Each tree's ``rng`` is its
weight stream, a ``_BatchedPoisson`` that draws its Poisson weights
``POISSON_BATCH`` at a time from the generator that also picks its leaf
subspaces; before any other draw from it the batch is rewound to the
weights used, so every weight, subspace and reset has the bits of one
scalar draw each.
"""

from __future__ import annotations

import itertools
import math
import weakref
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


def _logs(a: np.ndarray) -> np.ndarray:
    """``math.log`` of every entry of ``a``, in ``a``'s shape."""
    return np.fromiter(map(math.log, a.ravel().tolist()), float, a.size).reshape(a.shape)


def _log_quotients(counts: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """``math.log((counts[k, j] + 1.0) / denom[k])`` for every cell.

    Most cells share a quotient with another, so one sort groups the equal
    quotients and each distinct one takes one ``math.log``, which is
    scattered back: equal floats have equal logs, so every cell has the
    bits of its own ``math.log``, whatever order the sort kernel gives
    equal quotients."""
    quotients = ((counts + 1.0) / denom[:, None]).ravel()
    order = quotients.argsort()
    ranked = quotients[order]
    first = np.empty(len(ranked), dtype=bool)
    first[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=first[1:])
    logs = np.empty(len(ranked))
    logs[order] = _logs(ranked[first])[np.cumsum(first) - 1]
    return logs.reshape(counts.shape)


class StreamingNaiveBayes:
    """Mixed-likelihood incremental Naive Bayes.

    Multinomial with add-1 smoothing over the count columns (n-grams and
    BOW counters), Gaussian over the numeric counters (streaming sums / sums
    of squares), Bernoulli with add-1 over the trend flag.

    The counts are one ``(n_classes, n_text + N_BOW)`` matrix, sized on the
    first fit; every vector must have that many count columns. Both
    ``partial_fit`` and ``predict_label`` read the first ``n_counts`` entries
    of the vector's ``arrays``, so they cost O(nnz) per class, and every
    score has the bits of the per-term loop: prior, then each count term in
    ascending column order, then the Gaussian and Bernoulli terms.
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

    def predict_label(self, fv: FeatureVector) -> EmotionLabel:
        scores = self._scores(fv)
        return self.classes[scores.index(max(scores))]

    def _scores(self, fv: FeatureVector) -> list[float]:
        """Per class, in class order, the log joint likelihood of ``fv``; -inf
        for a class not fitted yet (every class before the first fit)."""
        scores = [-math.inf] * len(self.classes)
        if self.n_total == 0:
            return scores
        idx, vals = self._count_terms(fv)
        seen = [k for k, n in enumerate(self._n) if n]
        ns = [self._n[k] for k in seen]
        vocab_size = fv.n_text + N_BOW
        denom = np.array([self._counts_total[k] + vocab_size for k in seen])
        logs = _log_quotients(self._counts[:, idx][seen], denom)
        # add.accumulate adds the terms one after another, in ascending column
        # order, so each sum has the bits of log prior + v_1 log q_1 + ...
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
            -0.5 * _logs(2.0 * math.pi * var) - (x - mean) ** 2 / (2.0 * var), axis=1
        ).tolist()
        trend = fv.dense[TREND_COLUMN]
        for k, n, logp, gauss in zip(seen, ns, multinomial, gaussian):
            p_true = (self._trend_true[k] + 1.0) / (n + 2.0)
            scores[k] = logp + gauss + math.log(p_true if trend else 1.0 - p_true)
        return scores


class _Node:
    """A leaf (``left is None``) until it splits in place: it then sends
    ``x`` left when ``x[feature] <= threshold`` and drops its observers."""

    __slots__ = ("class_counts", "best", "observers", "n_since", "feature", "threshold", "left", "right")

    def __init__(self, n_classes: int, features: list[int]):
        self.class_counts = [0.0] * n_classes
        self.best = 0  # the index of the first maximum of class_counts
        # per feature of the leaf, in order: value -> per-class weights
        self.observers: dict[int, dict[float, list[float]]] | None = {f: {} for f in features}
        self.n_since = 0.0
        self.feature = self.threshold = self.left = self.right = None


def _total(values) -> float:
    """``values`` added left to right. For fewer than eight floats this has
    the bits of ``np.sum``; the builtin ``sum`` compensates from Python 3.12
    on, so it can differ in the last bit."""
    total = 0.0
    for v in values:
        total += v
    return total


def _entropy(counts: list[float], n: float) -> float:
    """``-(p_0 log2 p_0 + p_1 log2 p_1 + ...)`` with ``p = c / n`` over the
    positive counts ``c``, added left to right."""
    acc = 0.0
    for c in counts:
        if c > 0:
            p = c / n
            acc += p * math.log2(p)
    return -acc


def _best_splits(counts: list[float], observers: dict) -> list[tuple[float, int, float]]:
    """(gain, feature, threshold) of the best threshold of every feature
    whose information gain is positive somewhere; a later threshold wins
    only with a strictly larger gain.

    The candidates are the distinct observed values but the largest, in
    sorted order; the left side adds their per-class weights one after
    another into running sums and the right side is ``counts`` minus the
    left. Each side's total and entropy take the float operations of
    ``_total`` and ``_entropy``, in order, but build no list."""
    n = _total(counts)
    parent_entropy = _entropy(counts, n)
    best: dict[int, tuple[float, float]] = {}  # feature -> (gain, threshold)
    for f, per_value in observers.items():
        left = [0.0] * len(counts)
        for v in sorted(per_value)[:-1]:
            ln = rn = 0.0
            for j, w in enumerate(per_value[v]):
                a = left[j] = left[j] + w
                ln += a
                rn += counts[j] - a
            if ln > 0 and rn > 0:
                acc_left = acc_right = 0.0
                for a, c in zip(left, counts):
                    if a > 0:
                        p = a / ln
                        acc_left += p * math.log2(p)
                    b = c - a
                    if b > 0:
                        p = b / rn
                        acc_right += p * math.log2(p)
                gain = parent_entropy - (ln / n) * -acc_left - (rn / n) * -acc_right
                if gain > best.get(f, (0.0,))[0]:
                    best[f] = (gain, v)
    return [(gain, f, v) for f, (gain, v) in best.items()]


_MAX_DISTINCT = 64


class HoeffdingTreeClassifier:
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
    every candidate threshold by its information gain (``_best_splits``).

    A leaf splits in place, so no node knows its parent; ``_descend`` is the
    only loop that walks a tree, and the forest calls it too.

    A ``subspace_size`` below N_DENSE gives each new leaf that many features
    drawn with ``rng.choice`` (a ``Generator``, or in a forest the tree's
    weight stream, a ``_BatchedPoisson``); None or a larger size gives it
    every feature.
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
        if not delta > 0:
            raise ValueError(f"delta must be positive, got {delta!r}")
        self.classes = tuple(classes)
        self.delta = delta
        self.grace_period = grace_period
        self.subspace_size = subspace_size
        self.rng = rng
        self._root = self._new_leaf()
        self.n_seen = 0

    def _new_leaf(self) -> _Node:
        features = list(range(N_DENSE))
        if self.subspace_size is not None and self.subspace_size < N_DENSE:
            chosen = self.rng.choice(N_DENSE, size=self.subspace_size, replace=False)
            features = sorted(int(f) for f in chosen)
        return _Node(len(self.classes), features)

    def _descend(self, x: list[float]) -> _Node:
        """The leaf that ``x`` reaches."""
        node = self._root
        while node.left is not None:
            node = node.left if x[node.feature] <= node.threshold else node.right
        return node

    def partial_fit(self, fv: FeatureVector, label: EmotionLabel, weight: float = 1.0) -> None:
        if not 0.0 <= weight < math.inf:
            raise ValueError(f"weight must be finite and non-negative, got {weight!r}")
        _fit_trees([self], fv.dense.tolist(), self.classes.index(label), weight)

    def _attempt_split(self, leaf: _Node) -> None:
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
            left, right = self._new_leaf(), self._new_leaf()
            for v, stats in leaf.observers[feature].items():
                child = left if v <= threshold else right
                child.class_counts = [a + b for a, b in zip(child.class_counts, stats)]
            for child in (left, right):
                child.best = child.class_counts.index(max(child.class_counts))
            leaf.feature, leaf.threshold, leaf.left, leaf.right = feature, threshold, left, right
            leaf.observers = None

    def predict_label(self, fv: FeatureVector) -> EmotionLabel:
        # a leaf that has seen no weight has all-zero counts: the first class
        return self.classes[self._descend(fv.dense.tolist()).best]


class _DriftMonitor:
    """Sliding-window error monitor: flags drift when the recent error rate
    exceeds the lifetime rate by three binomial standard deviations.

    The window is a ``bytearray`` ring of the last ``window`` outcomes (1
    an error) whose oldest, at ``i``, the next overwrites, with a running
    count of its errors, so ``add`` is O(1); ``_fit_trees`` inlines it.
    While the recent rate is at most the lifetime rate, which integer counts
    decide exactly, no drift is possible and there is no float work.
    """

    __slots__ = ("window", "min_instances", "ring", "i", "recent_errors", "errors", "n")

    def __init__(self, window: int = 100, min_instances: int = 200):
        self.window = window
        self.min_instances = min_instances
        self.ring = bytearray(window)
        self.i = 0
        self.recent_errors = 0
        self.errors = 0
        self.n = 0

    def add(self, error: bool) -> bool:
        e = int(error)
        self.n += 1
        self.errors += e
        ring, i = self.ring, self.i
        self.recent_errors += e - ring[i]
        ring[i] = e
        self.i = i + 1 if i + 1 < self.window else 0
        return self.drifted()

    def drifted(self) -> bool:
        n = self.n
        # recent <= lifetime (any window not yet full): division is monotone, sigma >= 0
        if self.recent_errors * n <= self.errors * self.window or n < self.min_instances:
            return False
        lifetime = self.errors / n
        recent = self.recent_errors / self.window
        sigma = math.sqrt(max(lifetime * (1.0 - lifetime), 1e-12) / self.window)
        return recent > lifetime + 3.0 * sigma


class _BatchedPoisson:
    """Poisson(``lam``) weights drawn ``POISSON_BATCH`` at a time from
    ``rng``, with the values and generator states of one scalar draw each.

    ``Generator.poisson(lam, n)`` consumes the stream as ``n`` scalar calls
    do, so a batch holds the next weights; it keeps them last first, so the
    next weight is ``_batch.pop()`` and ``POISSON_BATCH - len(_batch)`` are
    used. Its tree draws leaf subspaces from the same generator through
    ``choice``, which first rewinds: it restores the state from before the
    batch, redraws the weights used so far and drops the rest.
    """

    __slots__ = ("rng", "lam", "_batch", "_state")

    def __init__(self, rng: np.random.Generator, lam: float | None):
        self.rng = rng
        self.lam = lam
        self._batch: list[float] = []
        self._state = None  # the generator state before the batch

    def next(self) -> float:
        if not self._batch:
            # every drawn weight is used: the generator is where scalar
            # draws would have left it
            self._state = self.rng.bit_generator.state
            self._batch = self.rng.poisson(self.lam, POISSON_BATCH)[::-1].astype(float).tolist()
        return self._batch.pop()

    def choice(self, *args, **kwargs):
        if self._batch:
            self.rng.bit_generator.state = self._state
            self.rng.poisson(self.lam, POISSON_BATCH - len(self._batch))
        self._batch = []
        return self.rng.choice(*args, **kwargs)


def _fit_trees(trees: list, x: list[float], ci: int, weight: float | None,
               monitors: list[_DriftMonitor] | None = None, new_tree=None) -> int:
    """Fit the dense list ``x`` of class index ``ci`` to each tree; return
    the number of resets. With ``monitors``, a fitted tree's window takes
    whether its leaf's majority misses ``ci``, and a drift resets the tree
    to ``new_tree(tree.rng)``. The leaf learns ``weight``, or with None the
    tree's next Poisson weight, skipping the tree on 0."""
    resets = 0
    for k, tree in enumerate(trees):
        leaf = tree._descend(x)
        if monitors is not None and tree.n_seen > 0:
            # _DriftMonitor.add up to its drifted(), inlined: calling add
            # per tree and fit was slower in 9 of 12 alternating pairs of
            # in-process train-eval on seed-5 clean-forest inputs (best of
            # 3 CPU times each, one pinned CPU of a 2-vCPU VM, Python 3.11):
            # median 0.913 s inline, 0.922 s with the call
            m, e = monitors[k], leaf.best != ci
            m.n += 1
            m.errors += e
            ring, i = m.ring, m.i
            m.recent_errors += e - ring[i]
            ring[i] = e
            m.i = i + 1 if i + 1 < m.window else 0
            if m.recent_errors * m.n > m.errors * m.window and m.drifted():
                trees[k] = tree = new_tree(tree.rng)
                monitors[k] = _DriftMonitor()
                resets += 1
                leaf = tree._root
        w = weight
        if w is None:
            batch = tree.rng._batch
            w = batch.pop() if batch else tree.rng.next()
            if w == 0:
                continue
        tree.n_seen += 1
        counts = leaf.class_counts
        c = counts[ci] = counts[ci] + w
        best = leaf.best
        if best != ci and (c > counts[best] or (c == counts[best] and ci < best)):
            leaf.best = ci
        for f, per_value in leaf.observers.items():
            v = x[f]
            try:  # a value the leaf has seen: all but a few fits
                per_value[v][ci] += w
            except KeyError:
                if len(per_value) >= _MAX_DISTINCT:
                    v = min(per_value, key=lambda u, v=v: abs(u - v))
                else:
                    per_value[v] = [0.0] * len(counts)
                per_value[v][ci] += w
        leaf.n_since += w
        if leaf.n_since >= tree.grace_period:
            leaf.n_since = 0.0
            tree._attempt_split(leaf)
    return resets


class AdaptiveRandomForestClassifier:
    """Online bagging ensemble of Hoeffding trees.

    Per-tree Poisson(lambda) instance weighting, per-leaf random feature
    subsets of size max_features, and a per-tree drift monitor that replaces
    a drifting tree with a fresh one. Prediction is a majority vote, ties
    resolved by class order.

    Tree ``k`` draws its weights and its leaf subspaces from one generator,
    seeded ``seed + 1000 k``, in the order of one scalar Poisson draw per
    fitted instance; the tree's ``rng``, a ``_BatchedPoisson``, draws the
    weights in batches and keeps that order, and a reset builds the new
    tree on the old tree's ``rng``. ``lam=None`` gives every instance weight
    1 and draws nothing. Fitting and voting descend each tree with its
    ``_descend`` and read each leaf's cached majority.
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
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be at least 1, got {n_estimators!r}")
        if lam is not None and not lam > 0:
            raise ValueError(f"lam must be positive or None, got {lam!r}")
        self.classes = tuple(classes)
        self.n_estimators = n_estimators
        self.lam = lam
        self.delta = delta
        self.grace_period = grace_period
        self.drift_detection = drift_detection
        if max_features == "auto":
            self.subspace_size = max(1, round(math.sqrt(N_DENSE)))
        elif isinstance(max_features, int) and max_features >= 1:
            self.subspace_size = min(max_features, N_DENSE)
        else:
            raise ValueError(f"max_features must be 'auto' or a positive integer, got {max_features!r}")
        self._trees = [
            self._new_tree(_BatchedPoisson(np.random.default_rng(seed + 1000 * k), lam))
            for k in range(n_estimators)
        ]
        self._monitors = [_DriftMonitor() for _ in range(n_estimators)]
        self.n_seen = 0
        self.n_resets = 0

    def _new_tree(self, rng: _BatchedPoisson) -> HoeffdingTreeClassifier:
        return HoeffdingTreeClassifier(
            classes=self.classes,
            delta=self.delta,
            grace_period=self.grace_period,
            subspace_size=self.subspace_size,
            rng=rng,
        )

    def partial_fit(self, fv: FeatureVector, label: EmotionLabel) -> None:
        self.n_seen += 1
        self.n_resets += _fit_trees(
            self._trees, fv.dense.tolist(), self.classes.index(label), None if self.lam else 1.0,
            self._monitors if self.drift_detection else None, self._new_tree)

    def _votes(self, fv: FeatureVector) -> list[float]:
        """Per class, the number of fitted trees whose leaf it is the
        majority of."""
        votes = [0.0] * len(self.classes)
        x = fv.dense.tolist()
        for tree in self._trees:
            if tree.n_seen > 0:
                votes[tree._descend(x).best] += 1.0
        return votes

    def predict_label(self, fv: FeatureVector) -> EmotionLabel:
        # the first maximum; no fitted tree, no votes: the first class
        votes = self._votes(fv)
        return self.classes[votes.index(max(votes))]


class _WeightBank:
    """The weights of the SGD learners of one model: one ``(rows, D)``
    weight matrix and one bias vector, learner ``k`` owning rows
    ``bounds[k]`` to ``bounds[k + 1]``, and each learner's step count
    ``t[k]``.

    The bank keeps the scores of every row for the last vector it scored,
    with a weak reference to the vector, so that it never keeps one alive,
    and every learner's step count at that moment. A learner reuses its
    rows of them only for that same vector object and only while its own
    step count is unchanged: its weights are then those that made them, for
    a learner's fit writes only its own rows. So a cascade that shares a
    bank scores each vector once, and every score has the bits of a second
    scoring: each row's ``np.add.accumulate`` adds that row's terms alone.
    """

    __slots__ = ("bounds", "t", "w", "b", "fv", "scores", "scored_t")

    def __init__(self, heights: list[int]):
        self.bounds = [0, *itertools.accumulate(heights)]
        self.t = [0] * len(heights)
        self.w: np.ndarray | None = None
        self.b: np.ndarray | None = None
        self.fv: weakref.ref | None = None
        self.scores: np.ndarray | None = None
        self.scored_t: list[int] | None = None

    def ensure(self, fv: FeatureVector) -> None:
        """Size the weights to ``fv``, zeroed, on the first call."""
        if self.w is None:
            self.w = np.zeros((self.bounds[-1], fv.total_dim))
            self.b = np.zeros(self.bounds[-1])

    def scores_of(self, k: int, fv: FeatureVector) -> np.ndarray:
        """Learner ``k``'s scores of ``fv``, in its class order; with nnz 0
        a copy of its biases, never the biases themselves."""
        kept = self.fv
        if kept is None or kept() is not fv or self.scored_t[k] != self.t[k]:
            self.score(fv)
        return self.scores[self.bounds[k] : self.bounds[k + 1]]

    def score(self, fv: FeatureVector) -> None:
        """Score every row on ``fv`` in one pass, and keep the scores with
        ``fv`` and every learner's step count."""
        if fv.total_dim != self.w.shape[1]:
            raise ValueError(
                f"feature vector has {fv.total_dim} columns, "
                f"the model was sized to {self.w.shape[1]}"
            )
        idx, vals = fv.arrays
        # add.accumulate adds the terms one after another, in ascending column
        # order, so every score has the bits of b + w_1 x_1 + w_2 x_2 + ...
        terms = np.concatenate([self.b[:, None], self.w[:, idx] * vals], axis=1)
        self.scores = np.add.accumulate(terms, axis=1)[:, -1]
        self.fv, self.scored_t = weakref.ref(fv), self.t.copy()


class SGDLinearClassifier:
    """One-vs-rest linear model with hinge loss and eta_t = 1/(alpha t).

    Exactly one update per instance. Scoring and the hinge update read the
    vector's cached ``arrays``, so they cost O(nnz); every vector must have
    the width of the first one fitted.

    The weights, the biases and the step count ``t`` live in a
    ``_WeightBank``: the learner's own, a bank of one, or with
    ``make_learner``'s stacked cascade one bank for the three stages. A
    learner scores through the bank, which scores every row of a vector on
    its first score by any of its learners and keeps them; the learner
    reuses its rows only for that same vector object while its ``t`` is
    unchanged. So the prequential predict-then-fit scores each instance
    once, for the whole cascade. ``_w`` and ``_b`` are views of the
    learner's rows, set on its first fit; a fit writes them in place.
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
        self._bank, self._k = _WeightBank([len(self.classes)]), 0
        self._w: np.ndarray | None = None
        self._b: np.ndarray | None = None

    @property
    def t(self) -> int:
        """The number of instances fitted."""
        return self._bank.t[self._k]

    def _ensure(self, fv: FeatureVector) -> None:
        if self._w is None:
            bank = self._bank
            bank.ensure(fv)
            rows = slice(bank.bounds[self._k], bank.bounds[self._k + 1])
            self._w, self._b = bank.w[rows], bank.b[rows]

    def _scores(self, fv: FeatureVector) -> np.ndarray:
        return self._bank.scores_of(self._k, fv)

    def partial_fit(self, fv: FeatureVector, label: EmotionLabel) -> None:
        self._ensure(fv)
        scores = self._scores(fv).tolist()
        t = self._bank.t[self._k] = self.t + 1
        eta = 1.0 / (self.alpha * t)
        l2_part = self.alpha * (1.0 - self.l1_ratio)
        l1_part = self.alpha * self.l1_ratio
        w = self._w
        if l2_part:
            w *= max(0.0, 1.0 - eta * l2_part)
        if l1_part:
            shrink = eta * l1_part
            w[...] = np.sign(w) * np.maximum(np.abs(w) - shrink, 0.0)
        idx, vals = fv.arrays
        for i, cls in enumerate(self.classes):
            y = 1.0 if cls is label else -1.0
            if y * scores[i] < 1.0:
                # the columns are distinct, so each weight gets one add
                w[i, idx] += eta * y * vals
                self._b[i] += eta * y

    def predict_label(self, fv: FeatureVector) -> EmotionLabel:
        if self.t == 0:
            return self.classes[0]
        scores = self._scores(fv).tolist()
        return self.classes[scores.index(max(scores))]


class StackedClassifier:
    """Two-stage cascade: a three-class stage followed by a binary
    emotion-vs-neutral re-check of non-neutral predictions. Stage 2 can only
    demote a prediction to neutral, never promote. Each stage-2 learner trains
    on the instances whose gold label is one of its two classes."""

    def __init__(self, stage1, stage2_pre, stage2_opp):
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


LEARNERS = {"nb": StreamingNaiveBayes, "dt": HoeffdingTreeClassifier,
            "rf": AdaptiveRandomForestClassifier, "sgd": SGDLinearClassifier}


def make_learner(name: str, args: dict, stacked: bool):
    """``LEARNERS[name]`` built from the constructor arguments ``args`` (the
    rest keep their defaults), or with ``stacked`` a cascade of three."""

    def build(classes):
        return LEARNERS[name](classes=classes, **args)

    if not stacked:
        return build(CLASS_ORDER)
    stages = [
        build(CLASS_ORDER),
        build((EmotionLabel.PRECAUTION, EmotionLabel.NEUTRAL)),
        build((EmotionLabel.OPPORTUNITY, EmotionLabel.NEUTRAL)),
    ]
    if name == "sgd":  # one weight bank for the cascade, a block of rows per stage
        bank = _WeightBank([len(m.classes) for m in stages])
        for k, m in enumerate(stages):
            m._bank, m._k = bank, k
    return StackedClassifier(*stages)


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

GRIDS = {"rf": RF_GRID, "sgd": SGD_GRID}

# per learner, grid key -> the constructor argument it sets; other keys set none
_GRID_ARGS = {
    "rf": {"estimators": "n_estimators", "max_features": "max_features", "lambda": "lam"},
    "sgd": {"penalty": "penalty", "l1_ratio": "l1_ratio", "alpha": "alpha"},
}


def learner_args(name: str, point: dict, seed: int) -> dict:
    """The constructor arguments that grid ``point`` sets, plus ``seed`` for
    the forest. Unread keys are dropped, ``l1_ratio`` too under a penalty but
    ``elasticnet``, and ``max_features`` is clipped to the dense block, so
    equal learners get equal dicts."""
    names = _GRID_ARGS.get(name, {})
    args = {names[key]: value for key, value in point.items() if key in names}
    if isinstance(args.get("max_features"), int):
        args["max_features"] = min(args["max_features"], N_DENSE)
    if "penalty" in args and args["penalty"] != "elasticnet":
        args.pop("l1_ratio", None)
    if name == "rf":
        args["seed"] = seed
    return args


def enumerate_grid(grid: dict) -> list[dict]:
    """Cartesian product of the grid values, in declaration order."""
    keys = list(grid)
    return [dict(zip(keys, combo)) for combo in itertools.product(*(grid[k] for k in keys))]


@dataclass
class GridSearchResult:
    point: dict  # as declared in the grid
    args: dict  # learner_args of the point
    accuracy: float


def grid_search(name: str, warmup, stacked: bool, seed: int) -> GridSearchResult:
    """The point of ``GRIDS[name]`` whose learner has the best prequential
    accuracy over the warmup window; ties go to the first point in
    enumeration order. Points with equal ``learner_args`` build equal
    deterministic learners, so only the first of them is run."""
    if not warmup:
        raise ValueError("empty warmup window")
    best, seen = None, []
    for point in enumerate_grid(GRIDS[name]):
        args = learner_args(name, point, seed)
        if args in seen:
            continue
        seen.append(args)
        accuracy = prequential_run(warmup, make_learner(name, args, stacked)).accuracy
        if best is None or accuracy > best.accuracy:
            best = GridSearchResult(point, args, accuracy)
    return best
