"""Synthetic labeled segment streams with planted per-emotion bigrams.

Used by the experiment scripts and the acceptance suite: precaution
segments carry a planted "ser bajista"-style bigram, opportunity segments a
"mayor ganancia"-style bigram, neutral segments neither. Numeric counters
and the trend flag carry only a weak class signal, so the planted bigrams
dominate exactly when BOW features are enabled.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from finemo.features import N_NUMERIC, fit_vocabularies, vectorize
from finemo.segmenter import EmotionLabel
from finemo.textproc import ProcessedSegment

PLANTED = {
    EmotionLabel.PRECAUTION: ("ser", "bajista"),
    EmotionLabel.OPPORTUNITY: ("mayor", "ganancia"),
}

# segment distribution of the reference corpus: 1644 / 4172 / 2392
REFERENCE_BALANCE = {
    EmotionLabel.PRECAUTION: 1644,
    EmotionLabel.NEUTRAL: 4172,
    EmotionLabel.OPPORTUNITY: 2392,
}
PLANT_PROB = 0.95  # share of emotion segments that carry their bigram
FILLER_VOCAB = 40  # distinct filler tokens


def scaled_balance(n: int) -> dict:
    """Per-class segment counts of REFERENCE_BALANCE scaled to ``n``."""
    total = sum(REFERENCE_BALANCE.values())
    counts = {c: round(n * v / total) for c, v in REFERENCE_BALANCE.items()}
    # fix rounding drift on the majority class
    drift = n - sum(counts.values())
    counts[EmotionLabel.NEUTRAL] += drift
    return counts


def _numeric_for(label: EmotionLabel, rng: np.random.Generator) -> tuple[int, ...]:
    vals = [0] * N_NUMERIC
    vals[0] = int(rng.integers(60, 200))  # LEN_TWEET
    neg_bias = 2.0 if label is EmotionLabel.PRECAUTION else 0.4
    pos_bias = 2.0 if label is EmotionLabel.OPPORTUNITY else 0.4
    vals[15] = int(rng.poisson(neg_bias))  # NEG_POLARITY
    vals[17] = int(rng.poisson(pos_bias))  # POS_POLARITY
    vals[10] = int(rng.poisson(0.8))  # ADVERBS
    vals[3] = int(rng.poisson(0.5))  # TOTAL_NUM
    return tuple(vals)


def _trend_for(label: EmotionLabel, rng: np.random.Generator) -> bool:
    if label is EmotionLabel.PRECAUTION:
        return bool(rng.random() < 0.2)
    if label is EmotionLabel.OPPORTUNITY:
        return bool(rng.random() < 0.8)
    return bool(rng.random() < 0.5)


def make_planted_segments(
    n: int, seed: int = 0
) -> tuple[list[ProcessedSegment], list[EmotionLabel]]:
    """ProcessedSegments with class-exclusive planted bigrams, and their labels."""
    rng = np.random.default_rng(seed)
    labels = [c for c, k in scaled_balance(n).items() for _ in range(k)]
    rng.shuffle(labels)
    fillers = [f"w{k:02d}" for k in range(FILLER_VOCAB)]
    segments = []
    for label in labels:
        length = int(rng.integers(8, 16))
        tokens = ["TICKER"] + [fillers[int(j)] for j in rng.integers(0, FILLER_VOCAB, length)]
        planted = PLANTED.get(label)
        if planted is not None and rng.random() < PLANT_PROB:
            pos = int(rng.integers(1, len(tokens)))
            tokens[pos:pos] = list(planted)
        segments.append(ProcessedSegment(tokens=tuple(tokens), raw_len=len(" ".join(tokens))))
    return segments, labels


def make_planted_stream(
    n: int,
    seed: int = 0,
    warmup: int = 1000,
    ablate_bow: bool = False,
):
    """(stream, vocabulary) where stream is a list of (FeatureVector, label).

    Vocabularies and BOWs are fitted on the first ``warmup`` segments.
    ``ablate_bow`` empties the BOW lists, removing features 4-6 while
    keeping the rest of the space identical.
    """
    rng = np.random.default_rng(seed + 1)
    segments, labels = make_planted_segments(n, seed=seed)
    vm = fit_vocabularies(segments[:warmup], labels=labels[:warmup])
    if ablate_bow:
        vm = replace(vm, bow_pre=[], bow_neu=[], bow_opp=[])
    stream = []
    for seg, label in zip(segments, labels):
        fv = vectorize(seg, vm, _numeric_for(label, rng), _trend_for(label, rng))
        stream.append((fv, label))
    return stream, vm
