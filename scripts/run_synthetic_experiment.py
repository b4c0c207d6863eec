"""Prequential comparison of the incremental learners on a synthetic stream.

Runs each learner (single and stacked) over the same planted-bigram stream,
with and without the BOW hit counters, and prints a results table.

    python3 scripts/run_synthetic_experiment.py [--n 5000] [--warmup 1000] [--seed 7]
"""

from __future__ import annotations

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from finemo.evaluation import prequential_run
from finemo.segmenter import EmotionLabel
from finemo.streamml import LEARNERS, learner_args, make_learner
from finemo.synthetic import make_planted_stream

# the trees try a split every 50 instances on these short streams
LEARNER_ARGS = {"dt": {"grace_period": 50}, "rf": {"grace_period": 50}}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--n", type=int, default=5000)
    parser.add_argument("--warmup", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    header = f"{'learner':<14} {'bow':<4} {'acc':>7} {'prec P':>7} {'prec O':>7} {'time':>6}"
    print(header)
    print("-" * len(header))
    for ablate in (False, True):
        stream, _ = make_planted_stream(
            args.n, seed=args.seed, warmup=args.warmup, ablate_bow=ablate
        )
        for name in LEARNERS:
            learner = {**learner_args(name, {}, args.seed), **LEARNER_ARGS.get(name, {})}
            for stacked in (False, True):
                model = make_learner(name, learner, stacked)
                t0 = time.time()
                for fv, label in stream[: args.warmup]:
                    model.partial_fit(fv, label)
                report = prequential_run(stream[args.warmup :], model)
                label = name + ("+stack" if stacked else "")
                print(
                    f"{label:<14} {'off' if ablate else 'on':<4} "
                    f"{report.accuracy:>7.4f} "
                    f"{report.precision(EmotionLabel.PRECAUTION):>7.4f} "
                    f"{report.precision(EmotionLabel.OPPORTUNITY):>7.4f} "
                    f"{time.time() - t0:>5.1f}s"
                )


if __name__ == "__main__":
    main()
