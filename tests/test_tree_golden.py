"""Byte-level golden of the Hoeffding-tree learners on a drifting stream.

The CLI goldens barely reach the tree code: on the bundled sample no tree
splits and no forest resets. This golden runs a single tree, an adaptive
random forest and a stacked forest, all with majority leaves, prequentially
over a seeded planted stream whose precaution and opportunity labels swap
halfway, and hashes the predicted labels, the drift-reset counts and every
tree's shape with the class counts of every leaf. The digest of these three
models was first recorded before the tree hot path was optimized; any change
in it means the learners' behaviour changed. To see the digest of the current code, run
``PYTHONPATH=src python tests/test_tree_golden.py``.
"""

import hashlib

from finemo.segmenter import EmotionLabel
from finemo.streamml import (
    AdaptiveRandomForestClassifier,
    HoeffdingTreeClassifier,
    make_learner,
)
from finemo.synthetic import make_planted_stream

P, N, O = EmotionLabel.PRECAUTION, EmotionLabel.NEUTRAL, EmotionLabel.OPPORTUNITY

N_INSTANCES = 1000
SEED = 3
# delta 0.05 and grace 50 make every tree of every forest split on this stream
TREE = {"grace_period": 50, "delta": 0.05}
FOREST = {**TREE, "n_estimators": 4, "seed": SEED}

GOLDEN = "3a5919c2f9229670af83167f92401b06"


def _drifting_stream():
    stream, _ = make_planted_stream(N_INSTANCES, seed=SEED, warmup=N_INSTANCES // 4)
    half = N_INSTANCES // 2
    swap = {P: O, O: P, N: N}
    return stream[:half] + [(fv, swap[label]) for fv, label in stream[half:]]


def _models():
    return {
        "tree": HoeffdingTreeClassifier(**TREE),
        "arf": AdaptiveRandomForestClassifier(**FOREST),
        "arf-stacked": make_learner("rf", FOREST, True),
    }


def _forests(model):
    if isinstance(model, AdaptiveRandomForestClassifier):
        return [model]
    if isinstance(model, HoeffdingTreeClassifier):
        return []
    return [model.stage1, model.stage2_pre, model.stage2_opp]


def _trees(model):
    if isinstance(model, HoeffdingTreeClassifier):
        return [model]
    return [tree for forest in _forests(model) for tree in forest._trees]


def _shape(node, out):
    """Pre-order: split (feature, threshold) and leaf class counts."""
    if node.left is None:
        out.append(f"leaf {list(node.class_counts)!r}")
        return 0
    out.append(f"split {node.feature} {node.threshold!r}")
    return 1 + _shape(node.left, out) + _shape(node.right, out)


def run_golden():
    """(digest, per-model stats) of one prequential pass per model."""
    stream = _drifting_stream()
    lines, stats = [], {}
    for name, model in _models().items():
        preds = []
        for fv, label in stream:
            preds.append(model.predict_label(fv).name)
            model.partial_fit(fv, label)
        resets = [forest.n_resets for forest in _forests(model)]
        lines += [f"model {name}", " ".join(preds), f"resets {resets}"]
        splits = [_shape(tree._root, lines) for tree in _trees(model)]
        stats[name] = {"resets": resets, "splits": splits}
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:32]
    return digest, stats


def test_tree_learners_match_golden():
    digest, stats = run_golden()
    # the stream must exercise splits in every tree and drift resets
    for name, s in stats.items():
        assert min(s["splits"]) >= 1, name
        assert all(r >= 1 for r in s["resets"]), name
    assert digest == GOLDEN


if __name__ == "__main__":
    digest, stats = run_golden()
    print(digest)
    for name, s in stats.items():
        print(name, s)
