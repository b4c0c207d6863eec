"""Full pipeline run over the bundled sample corpus.

    python3 scripts/run_sample_pipeline.py [--learner nb] [--out out/sample]
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from finemo.cli import PipelineConfig, run_pipeline
from finemo.streamml import LEARNERS

ROOT = os.path.join(os.path.dirname(__file__), "..")


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--learner", default="nb", choices=list(LEARNERS))
    parser.add_argument("--stacked", action="store_true")
    parser.add_argument("--warmup", type=int, default=10)
    parser.add_argument("--out", default=os.path.join(ROOT, "out", "sample"))
    args = parser.parse_args()

    cfg = PipelineConfig(
        lexicons=os.path.join(ROOT, "data", "lexicons"),
        tweets=os.path.join(ROOT, "data", "sample", "tweets.jsonl"),
        labels=os.path.join(ROOT, "data", "sample", "labels.tsv"),
        prices=os.path.join(ROOT, "data", "sample", "prices.csv"),
        warmup=args.warmup,
        learner=args.learner,
        stacked=args.stacked,
        out=args.out,
    )
    report = run_pipeline(cfg)
    print(report.to_json())
    print(f"artifacts in {os.path.normpath(args.out)}")


if __name__ == "__main__":
    main()
