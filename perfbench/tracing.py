"""Span recorder for the traced benchmark run, and the arithmetic on spans.

The recorder wraps public functions and methods of the ``finemo`` modules
from outside: the program's own source is never edited. Every call of a
wrapped function appends one span (name, start, end, parent) to flat
in-memory arrays; nothing is written until the run ends. Some wrapped
functions also feed an observer that counts what the layer did (tokens out
of dictionary, segments, vector sizes).

A layer is a module of the program; a span's layer is the first dotted
component of its name. A span's self time is its duration minus the part of
that interval its child spans cover, so the self times of all spans add up to
the duration of the root spans by construction; that sum is an identity, not
a check.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "lexicons", "segmenter", "textproc", "features", "streamml", "selection", "evaluation")
LEARNERS = (
    "StreamingNaiveBayes",
    "HoeffdingTreeClassifier",
    "AdaptiveRandomForestClassifier",
    "SGDLinearClassifier",
    "StackedClassifier",
)
# (class, method) of every traced learner method; StackedClassifier.predict
# is an alias of its predict_label, so it is left out
LEARNER_SPANS = tuple(
    (cls, meth)
    for cls in LEARNERS
    for meth in ("predict", "predict_label", "partial_fit")
    if (cls, meth) != ("StackedClassifier", "predict")
)

# (module, attribute or Class.attribute, span name). Targets missing from the
# program are skipped, so a refactor that removes one reads as zero calls.
TARGETS = (
    ("finemo.cli", "main", "cli.main"),
    ("finemo.cli", "run_pipeline", "cli.run_pipeline"),
    ("finemo.cli", "read_tweets", "cli.read_tweets"),
    ("finemo.cli", "read_labels", "cli.read_labels"),
    ("finemo.cli", "build_instances", "cli.build_instances"),
    ("finemo.cli", "extract_features", "cli.extract_features"),
    # the chi-squared scoring the pipeline uses lives in cli today; it is
    # selection work, so it is charged to the selection layer
    ("finemo.cli", "_chi2_from_instances", "selection.chi2"),
    ("finemo.selection", "chi2_scores", "selection.chi2"),
    ("finemo.selection", "select_percentile", "selection.select_percentile"),
    ("finemo.lexicons", "load_lexicons", "lexicons.load_lexicons"),
    ("finemo.segmenter", "segment_tweet", "segmenter.segment_tweet"),
    ("finemo.segmenter", "replicate_per_asset", "segmenter.replicate_per_asset"),
    ("finemo.textproc", "process", "textproc.process"),
    ("finemo.textproc", "split_hashtags", "textproc.split_hashtags"),
    ("finemo.textproc", "lemmatize_correct", "textproc.lemmatize_correct"),
    ("finemo.features", "fit_vocabularies", "features.fit_vocabularies"),
    ("finemo.features", "vectorize", "features.vectorize"),
    ("finemo.features", "extract_numeric", "features.extract_numeric"),
    ("finemo.features", "compute_trend", "features.compute_trend"),
    ("finemo.features", "PriceSeries.from_csv", "features.PriceSeries.from_csv"),
    ("finemo.features", "FeatureVector.dense_view", "features.dense_view"),
    ("finemo.evaluation", "PrequentialReport.finalize_flags", "evaluation.report"),
    ("finemo.evaluation", "PrequentialReport.to_json", "evaluation.report"),
    ("finemo.evaluation", "PrequentialReport.write_csvs", "evaluation.report"),
    ("finemo.streamml", "AdaptiveRandomForestClassifier.__init__", "streamml.AdaptiveRandomForestClassifier.__init__"),
    *(("finemo.streamml", f"{cls}.{meth}", f"streamml.{cls}.{meth}") for cls, meth in LEARNER_SPANS),
)


class Recorder:
    """Flat in-memory span store plus the counters the observers fill."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.vectors: list = []  # every vectorize result, in call order
        self.forests: list = []
        self._oov_seen: set[str] = set()
        self._tags: frozenset[str] = frozenset()  # tokens the lemmatizer passes through
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str, observe=None):
        """Return ``fn`` wrapped so that every call records one span.

        ``observe(args, kwargs, result)`` runs inside the span, so its cost
        is charged to the wrapped function's own layer.
        """
        nid = self.name_id(name)
        start, end, parent, names, stack, clock = (
            self.start, self.end, self.parent, self.name, self._stack, self.clock,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            names.append(nid)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every target present in the loaded program."""
        observers = {
            "segmenter.segment_tweet": self._on_segment_tweet,
            "segmenter.replicate_per_asset": self._on_replicate,
            "textproc.split_hashtags": self._on_split_hashtags,
            "textproc.lemmatize_correct": self._on_lemmatize,
            "features.vectorize": self._on_vectorize,
            "streamml.AdaptiveRandomForestClassifier.__init__": self._on_forest,
        }
        self._tags = frozenset(getattr(importlib.import_module("finemo.textproc"), "TAGS", ()))
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, member = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                if owner is None:
                    continue
                # inherited methods are wrapped on the subclass, so that each
                # learner class gets spans of its own
                raw = next((k.__dict__[member] for k in owner.__mro__ if member in k.__dict__), None)
                if raw is None:
                    continue
                self._patch_method(owner, member, raw, span, observers.get(span))
            else:
                fn = getattr(module, member, None)
                if fn is None:
                    continue
                self._patch_function(fn, self.wrap(fn, span, observers.get(span)))

    def _patch_method(self, owner, member, raw, span, observe) -> None:
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, span, observe))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.wrap(raw.__func__, span, observe))
        else:
            wrapped = self.wrap(raw, span, observe)
        self._patches.append((owner, member, owner.__dict__.get(member)))
        setattr(owner, member, wrapped)

    def _patch_function(self, fn, wrapped) -> None:
        # rebind every module-level name that refers to fn, so that both
        # `module.fn(...)` and `from module import fn` callers see the wrapper
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "finemo" or mod_name.startswith("finemo.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrapped)

    def restore(self) -> None:
        """Undo every patch; an inherited method is un-shadowed again."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------ observers

    def _on_segment_tweet(self, args, kwargs, result) -> None:
        self.counters["tweets"] += 1
        self.counters["segments"] += len(result)

    def _on_replicate(self, args, kwargs, result) -> None:
        self.counters["replicas"] += len(result)

    def _on_split_hashtags(self, args, kwargs, result) -> None:
        self.counters["split_calls"] += 1
        self.counters["split_multi"] += len(result) > 1

    def _on_lemmatize(self, args, kwargs, result) -> None:
        token, lx = args[0], args[1]
        if token in self._tags:
            return
        self.counters["tokens"] += 1
        if token in lx.dictionary:
            return
        self.counters["oov"] += 1
        self.counters["corrected"] += result != token
        if token in self._oov_seen:
            self.counters["oov_repeat"] += 1
        else:
            self._oov_seen.add(token)

    def _on_vectorize(self, args, kwargs, fv) -> None:
        # counted after the run, so the count costs the traced run nothing
        self.vectors.append(fv)

    def _on_forest(self, args, kwargs, result) -> None:
        self.forests.append(args[0])

    # ------------------------------------------------------------ output

    def drift_resets(self) -> int:
        return sum(int(getattr(forest, "n_resets", 0)) for forest in self.forests)

    def nnz(self) -> list[int]:
        """Nonzero entries of every vectorize result, in call order."""
        return [sum(1 for _ in fv.items()) for fv in self.vectors]

    def write(self, path: str) -> None:
        """Write the spans as one ``.npz`` file."""
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name=np.frombuffer(self.name, dtype=np.int64),
            names=np.array(json.dumps(self.names)),
        )


def load_spans(path: str) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    with np.load(path) as data:
        names = json.loads(str(data["names"]))
        return names, data["name"], data["start"], data["end"], data["parent"]


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    out = end - start
    children = np.flatnonzero(parent >= 0)
    order = children[np.lexsort((start[children], parent[children]))]
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    covered: dict[int, float] = defaultdict(float)
    current, reach = -1, 0.0
    for i in order.tolist():
        p = parents[i]
        if p != current:
            current, reach = p, starts[p]
        lo = max(starts[i], reach)
        hi = min(ends[i], ends[p])
        if hi > lo:
            covered[p] += hi - lo
            reach = hi
    for p, c in covered.items():
        out[p] -= c
    return out


def aggregate(names, name, start, end, parent) -> dict:
    """Calls and self seconds per span name, self seconds per layer, the
    root duration and the number of spans."""
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    selfs = self_times(start, end, parent)
    calls = np.bincount(name, minlength=len(names))
    self_s = np.bincount(name, weights=selfs, minlength=len(names))
    per_name = {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(names)}
    layers = dict.fromkeys(LAYERS, 0.0)
    for n, (_, s) in per_name.items():
        layer = n.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + s
    roots = parent < 0
    return {
        "per_name": per_name,
        "layers": layers,
        "root_s": float(np.sum(np.asarray(end)[roots] - np.asarray(start)[roots])),
        "self_sum_s": float(selfs.sum()),
        "spans": int(len(name)),
    }


def check_spans(names, name, start, end, parent, wall_s: float) -> list[str]:
    """Problems with one traced run's spans: a span never closed, a root
    other than one ``cli.main``, or a root span that disagrees with the wall
    time measured around the same call from outside the recorder."""
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    roots = np.flatnonzero(np.asarray(parent) < 0)
    problems = []
    if np.any(end < start):
        problems.append(f"{int(np.sum(end < start))} spans were never closed")
    if len(roots) != 1 or names[int(np.asarray(name)[roots[0]])] != "cli.main":
        problems.append(f"expected one root span cli.main, found {len(roots)} roots")
    else:
        root_s = float(end[roots[0]] - start[roots[0]])
        if abs(root_s - wall_s) > 0.01 * wall_s + 0.005:
            problems.append(f"root span {root_s:.4f} s disagrees with the measured wall {wall_s:.4f} s")
    return problems


def calls_from(names, name, parent, callee: str, caller_layer: str) -> int:
    """Calls of span ``callee`` made directly from a span of ``caller_layer``."""
    if callee not in names:
        return 0
    name = np.asarray(name, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    callers = [i for i, n in enumerate(names) if n.split(".", 1)[0] == caller_layer]
    hits = (name == names.index(callee)) & (parent >= 0)
    return int(np.isin(name[parent[hits]], callers).sum())
