"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single [PASS]/[FAIL]
line (run with `pytest -s tests/test_acceptance.py` to see them all).
"""

import math
import os
import time
from collections import Counter
from datetime import datetime
from fractions import Fraction

import numpy as np

from finemo.cli import PipelineConfig, run_pipeline
from finemo.evaluation import krippendorff_alpha, prequential_run
from finemo.features import (
    N_NUMERIC,
    NUMERIC_NAMES,
    PriceSeries,
    VocabularyModel,
    compute_trend,
    vectorize,
)
from finemo.segmenter import CLASS_ORDER, EmotionLabel, RawTweet, segment_tweet
from finemo.selection import pearson, select_percentile, chi2_scores
from finemo.streamml import (
    RF_GRID,
    SGD_GRID,
    StreamingNaiveBayes,
    enumerate_grid,
    make_learner,
)
from finemo.synthetic import make_planted_stream
from finemo.textproc import process
from tests.conftest import LEXICON_DIR, SAMPLE_DIR
from tests.segmentation_cases import CASES
from tests.test_evaluation import ANNOTATION_ALPHA, ANNOTATION_MATRIX
from tests.test_features import (
    SAMPLE_1_EXPECTED,
    SAMPLE_1_TEXT,
    SAMPLE_2_EXPECTED,
    SAMPLE_2_TEXT,
    _numeric_for_text,
)
from tests.test_streamml import _batch_nb_argmax, make_fv, random_stream
from tests.test_textproc import _replica

P, N, O = EmotionLabel.PRECAUTION, EmotionLabel.NEUTRAL, EmotionLabel.OPPORTUNITY


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _tweet(text):
    return RawTweet(id="t", timestamp=datetime(2019, 8, 1, 10, 0), text=text)


def test_acceptance_01_segmentation_goldens(lx):
    t0 = time.time()
    ok = True
    grouped = [
        s.text
        for s in segment_tweet(_tweet(
            "BBVA no puede superar resistencia intraday mientras Santander "
            "sigue presionando a la baja aunque podría confirmar corrección"
        ), lx)
    ]
    ok &= grouped == [
        "BBVA no puede superar resistencia intraday",
        "mientras Santander sigue presionando a la baja aunque podría confirmar corrección",
    ]
    listed = segment_tweet(_tweet("ALUA.BA -2,57% EDN +8,08% CRES.BA -4,86%"), lx)
    ok &= [(s.text, s.asset_names) for s in listed] == [
        ("ALUA.BA -2,57%", ("ALUA.BA",)),
        ("EDN +8,08%", ("EDN",)),
        ("CRES.BA -4,86%", ("CRES.BA",)),
    ]
    passed = 0
    for text, expected in CASES:
        got = [(s.text, s.asset_names) for s in segment_tweet(_tweet(text), lx)]
        passed += got == [tuple(e) for e in expected]
    ok &= passed == len(CASES)
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _verdict("segmentation goldens", ok, f"{passed}/{len(CASES)} corpus cases, {elapsed:.3f}s")


def test_acceptance_02_text_processing_golden(lx):
    text = (
        "$Bankia sigue el crack bursátil. -1,925 euros, del IBEX35 "
        "#mayorcaída https://t.co/S73BxUSKiR"
    )
    got = process(_replica(text, lx, "BKIA"), lx).tokens
    want = ("TICKER", "seguir", "bursátil", "NEGATIVE", "euros",
            "OTHER_TICKER", "mayor", "caída")
    _verdict("text-processing token golden", got == want, " ".join(got))


def test_acceptance_03_feature_goldens(lx):
    prices = PriceSeries.from_csv(os.path.join(SAMPLE_DIR, "prices.csv"))
    ok = True
    details = []
    for text, expected, posted, want_trend in (
        (SAMPLE_1_TEXT, SAMPLE_1_EXPECTED, datetime(2019, 7, 30, 10, 0), False),
        (SAMPLE_2_TEXT, SAMPLE_2_EXPECTED, datetime(2019, 8, 6, 10, 0), True),
    ):
        _, numeric = _numeric_for_text(text, lx)
        want = tuple(expected.get(name, 0) for name in NUMERIC_NAMES)
        ok &= numeric == want
        trend = compute_trend("IBEX35", posted, prices)
        ok &= trend is want_trend
        details.append(f"len={numeric[0]} trend={'up' if trend else 'down'}")
    # BOW hit counters land in the first three dense columns
    vm = VocabularyModel(char_vocab={}, word_vocab={}, wordbound_vocab={},
                         bow_pre=["mucho cuidar"], bow_neu=[], bow_opp=["vez number"])
    seg1 = _replica(SAMPLE_1_TEXT, lx, "IBEX35")
    seg2 = _replica(SAMPLE_2_TEXT, lx, "IBEX35")
    fv1 = vectorize(process(seg1, lx), vm, (0,) * N_NUMERIC, False)
    fv2 = vectorize(process(seg2, lx), vm, (0,) * N_NUMERIC, True)
    ok &= fv1.dense[0] == 1.0 and fv1.dense[2] == 0.0
    ok &= fv2.dense[2] == 1.0 and fv2.dense[0] == 0.0
    _verdict("feature goldens", ok, "; ".join(details))


def test_acceptance_04_nb_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    mismatches = 0
    total = 0
    for _ in range(50):
        stream = random_stream(rng, int(rng.integers(100, 501)))
        nb = StreamingNaiveBayes()
        history = []
        for fv, label in stream:
            total += 1
            if nb.predict_label(fv) is not _batch_nb_argmax(history, fv):
                mismatches += 1
            nb.partial_fit(fv, label)
            history.append((fv, label))
    elapsed = time.time() - t0
    ok = mismatches == 0 and elapsed < 30.0
    _verdict("streaming-NB oracle equivalence", ok,
             f"{total} predictions, {mismatches} mismatches, {elapsed:.1f}s")


def test_acceptance_05_prequential_correctness():
    rng = np.random.default_rng(5)
    golds = [CLASS_ORDER[int(i)] for i in rng.integers(0, 3, 400)]
    preds = [CLASS_ORDER[int(i)] for i in rng.integers(0, 3, 400)]

    class Scripted:
        def __init__(self):
            self.i = 0

        def predict_label(self, fv):
            self.i += 1
            return preds[self.i - 1]

        def partial_fit(self, fv, label):
            pass

    stream = [(make_fv(), g) for g in golds]
    series = []
    report = prequential_run(stream, Scripted(), on_sample=lambda *row: series.append(row))
    confusion = np.zeros((3, 3), dtype=int)
    for g, p in zip(golds, preds):
        confusion[CLASS_ORDER.index(g), CLASS_ORDER.index(p)] += 1
    ok = (report.confusion == confusion).all()
    ok &= report.accuracy == confusion.trace() / 400
    for c, cls in enumerate(CLASS_ORDER):
        col, row = confusion[:, c].sum(), confusion[c, :].sum()
        ok &= report.precision(cls) == (confusion[c, c] / col if col else 0.0)
        ok &= report.recall(cls) == (confusion[c, c] / row if row else 0.0)
    bound_ok = all(
        abs(a2 - a1) <= 1.0 / n2 + 1e-12
        for (n1, a1), (n2, a2) in zip(series, series[1:])
    )
    ok &= bound_ok
    _verdict("prequential correctness", bool(ok), f"n=400, step bound {'holds' if bound_ok else 'violated'}")


def test_acceptance_06_selection_oracles():
    rng = np.random.default_rng(6)
    ok = True
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(3, 80))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        # direct definition: covariance over the product of standard deviations
        mx, my = x.mean(), y.mean()
        direct = float(np.sum((x - mx) * (y - my))) / (
            math.sqrt(float(np.sum((x - mx) ** 2))) * math.sqrt(float(np.sum((y - my) ** 2)))
        )
        err = abs(pearson(x, y) - direct)
        worst = max(worst, err)
        ok &= err < 1e-9
    for _ in range(20):
        a = float(rng.uniform(0.1, 5)) * (1 if rng.random() < 0.5 else -1)
        b = float(rng.uniform(-5, 5))
        x = rng.normal(size=30)
        ok &= abs(pearson(x, a * x + b) - (1.0 if a > 0 else -1.0)) < 1e-9
    exact_sets = 0
    for _ in range(20):
        n, d = int(rng.integers(5, 25)), int(rng.integers(2, 12))
        X = rng.integers(0, 5, size=(n, d)).astype(float)
        y = rng.integers(0, 3, size=n)
        if len(set(y.tolist())) < 2:
            y[0], y[1] = 0, 1
        scores = chi2_scores([(c, np.arange(len(row)), row) for c, row in zip(y.tolist(), X)], d)
        brute = []
        for j in range(d):
            total = X[:, j].sum()
            s = 0.0
            for c in sorted(set(y.tolist())):
                mask = y == c
                expected = (mask.sum() / n) * total
                if expected > 0:
                    s += (X[mask, j].sum() - expected) ** 2 / expected
            brute.append(s)
        p = int(rng.integers(1, 101))
        k = math.ceil(p / 100 * d)
        want = set(sorted(range(d), key=lambda i: (-brute[i], i))[:k])
        exact_sets += select_percentile(scores, p) == want
    ok &= exact_sets == 20
    _verdict("selection oracles", bool(ok),
             f"max pearson err {worst:.2e}, {exact_sets}/20 exact index sets")


def test_acceptance_07_stacking_demotion():
    ok = True
    checked = 0
    for seed in range(10):
        stream = random_stream(np.random.default_rng(100 + seed), 150)
        stacked = make_learner("nb", {}, True)
        for fv, label in stream:
            s1 = stacked.stage1.predict_label(fv)
            combined = stacked.predict_label(fv)
            if combined is not N:
                ok &= combined is s1  # non-neutral set is a subset of stage 1's
                checked += 1
            stacked.partial_fit(fv, label)
    # on a separable planted stream, stacking preserves non-neutral precision
    stream, _ = make_planted_stream(1500, seed=21, warmup=300)

    def precisions(model):
        for fv, label in stream[:300]:
            model.partial_fit(fv, label)
        col, hit = Counter(), Counter()
        for fv, label in stream[300:]:
            pred = model.predict_label(fv)
            col[pred] += 1
            hit[pred] += pred is label
            model.partial_fit(fv, label)
        return {c: (hit[c] / col[c] if col[c] else 0.0) for c in (P, O)}

    single = precisions(StreamingNaiveBayes())
    stacked = precisions(make_learner("nb", {}, True))
    ok &= stacked[P] >= single[P] and stacked[O] >= single[O]
    _verdict("stacking demotion property", bool(ok),
             f"{checked} non-neutral predictions checked; "
             f"stacked P={stacked[P]:.3f}>= single P={single[P]:.3f}, "
             f"stacked O={stacked[O]:.3f}>= single O={single[O]:.3f}")


def test_acceptance_08_end_to_end_synthetic():
    t0 = time.time()

    def run(ablate):
        stream, _ = make_planted_stream(5000, seed=7, warmup=1000, ablate_bow=ablate)
        model = make_learner("rf", {"n_estimators": 10, "grace_period": 50, "seed": 7}, True)
        for fv, label in stream[:1000]:
            model.partial_fit(fv, label)
        col, hit = Counter(), Counter()
        for fv, label in stream[1000:]:
            pred = model.predict_label(fv)
            col[pred] += 1
            hit[pred] += pred is label
            model.partial_fit(fv, label)
        return {c: (hit[c] / col[c] if col[c] else 0.0) for c in (P, O)}

    full = run(False)
    ablated = run(True)
    elapsed = time.time() - t0
    ok = full[P] >= 0.90 and full[O] >= 0.90
    ok &= ablated[P] < full[P] and ablated[O] < full[O]
    ok &= elapsed < 300.0
    _verdict("end-to-end synthetic BOW effect", bool(ok),
             f"full P={full[P]:.3f} O={full[O]:.3f}; "
             f"ablated P={ablated[P]:.3f} O={ablated[O]:.3f}; {elapsed:.0f}s")


def test_acceptance_09_agreement_math():
    ok = krippendorff_alpha(np.diag([10, 20, 30])) == 1.0
    m = [2.0, 3.0, 5.0]
    n = sum(m)
    chance = [
        [m[i] * (m[j] if i != j else m[i] - 1) / (n - 1) for j in range(3)]
        for i in range(3)
    ]
    ok &= abs(krippendorff_alpha(chance)) < 1e-6
    got = krippendorff_alpha(ANNOTATION_MATRIX)
    total = sum(sum(r) for r in ANNOTATION_MATRIX)
    trace = sum(ANNOTATION_MATRIX[i][i] for i in range(3))
    marginals = [sum(r) for r in ANNOTATION_MATRIX]
    oracle = 1 - Fraction(total - trace) / (
        Fraction(total * total - sum(v * v for v in marginals), total - 1)
    )
    ok &= abs(got - float(oracle)) < 1e-6
    ok &= abs(got - ANNOTATION_ALPHA) < 1e-12
    _verdict("agreement math", bool(ok), f"annotation alpha {got:.10f}")


def test_acceptance_10_grid_enumeration():
    rf = enumerate_grid(RF_GRID)
    sgd = enumerate_grid(SGD_GRID)
    # full cartesian products of the declared value tuples: 4x4x4 and 3^5
    ok = len(rf) == 4 * 4 * 4 == 64
    ok &= len(sgd) == 3 ** 5
    ok &= len({tuple(sorted(c.items())) for c in rf}) == len(rf)
    ok &= len({tuple(sorted(c.items())) for c in sgd}) == len(sgd)
    _verdict("hyperparameter grid enumeration", bool(ok),
             f"rf={len(rf)}, sgd={len(sgd)}")


def test_acceptance_11_determinism(tmp_path):
    blobs = []
    for run in range(2):
        cfg = PipelineConfig(
            lexicons=LEXICON_DIR,
            tweets=os.path.join(SAMPLE_DIR, "tweets.jsonl"),
            labels=os.path.join(SAMPLE_DIR, "labels.tsv"),
            prices=os.path.join(SAMPLE_DIR, "prices.csv"),
            warmup=10,
            learner="rf",
            stacked=True,
            seed=99,
            out=str(tmp_path / f"run{run}"),
        )
        run_pipeline(cfg)
        blobs.append(tuple(
            open(os.path.join(cfg.out, name), "rb").read()
            for name in ("confusion.csv", "accuracy_series.csv")
        ))
    ok = blobs[0] == blobs[1]
    _verdict("deterministic artifacts", ok, "confusion.csv and accuracy_series.csv byte-identical")
