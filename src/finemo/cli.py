"""Command-line entry points for the streaming pipeline.

Subcommands:
  segment     tweets -> per-asset declarative segments (JSONL)
  process     tweets -> normalized per-asset token streams (JSONL)
  features    tweets + labels -> hybrid feature rows (JSONL) + vocabulary
  analyze     feature analysis: Pearson correlations and chi2 scores
  train-eval  prequential run with evaluation artifacts
  run         alias of train-eval
  agreement   annotator-agreement report from a label matrix (TSV)

Options come from flags or a YAML config file; flags win.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace
from datetime import datetime
from itertools import islice
from typing import get_args, get_type_hints

import numpy as np
import yaml

from finemo.evaluation import (
    CLASS_ORDER,
    EvaluationError,
    PrequentialReport,
    agreement_report,
    prequential_run,
)
from finemo.features import (
    DENSE_NAMES,
    NUMERIC_COLUMNS,
    TREND_COLUMN,
    FeatureVector,
    PriceError,
    PriceSeries,
    TrendUnavailableError,
    VocabularyError,
    compute_trend,
    extract_numeric,
    fit_vocabularies,
    vectorize,
)
from finemo.lexicons import LexiconError, load_lexicons
from finemo.segmenter import EmotionLabel, RawTweet, replicate_per_asset, segment_tweet
from finemo.selection import SelectionError, chi2_scores, correlation_report, select_percentile
from finemo.streamml import (
    RF_GRID,
    SGD_GRID,
    AdaptiveRandomForestClassifier,
    HoeffdingTreeClassifier,
    SGDLinearClassifier,
    StreamingNaiveBayes,
    grid_search,
    learner_args,
    make_stacked,
    save_model,
)
from finemo.textproc import ProcessedSegment, process

GRIDS = {"rf": RF_GRID, "sgd": SGD_GRID}

# Instances after the warmup window are built and vectorized in blocks of this
# size: interleaving vectorize and learn per instance costs tree learners locality.
BLOCK = 1024


class PipelineError(Exception):
    pass


@dataclass
class PipelineConfig:
    """Everything one run needs; mirrors the CLI flags one to one."""

    lexicons: str = "data/lexicons"
    tweets: str | None = None
    prices: str | None = None
    labels: str | None = None
    out: str = "out"
    warmup: int = 1000
    learner: str = "rf"  # nb | dt | rf | sgd
    stacked: bool = True
    seed: int = 0
    percentile: int = 0  # 0 disables chi2 percentile selection
    grid: str | None = None  # None | rf | sgd: warmup grid search
    ngram_min: int = 1
    ngram_max: int = 4
    max_df: float = 0.5
    min_df: float = 0.001
    bow_size: int = 500
    emit_all: bool = False  # indicators for every prediction, not only non-neutral
    sample_every: int = 1
    save_model: str | None = None

    @classmethod
    def from_yaml(cls, path: str) -> "PipelineConfig":
        with open(path, encoding="utf-8") as fh:
            try:
                data = yaml.safe_load(fh)
            except yaml.YAMLError as exc:
                raise PipelineError(f"{path}: bad YAML: {exc}") from None
        data = {} if data is None else data
        if not isinstance(data, dict):
            raise PipelineError(f"{path}: expected a mapping of option names to values")
        declared = {f.name: f.type for f in fields(cls)}
        unknown = set(data) - set(declared)
        if unknown:
            raise PipelineError(f"{path}: unknown config keys: {sorted(unknown, key=str)}")
        hints = get_type_hints(cls)
        for key, value in data.items():
            allowed = get_args(hints[key]) or (hints[key],)
            if float in allowed:
                allowed += (int,)
            # bool is an int subclass, but `warmup: true` is no warmup size
            if not isinstance(value, allowed) or (isinstance(value, bool) and bool not in allowed):
                raise PipelineError(f"{path}: {key}: expected {declared[key]}, got {value!r}")
        return cls(**data)


def read_tweets(path: str | None) -> list[RawTweet]:
    """The tweets of a JSONL file, sorted by timestamp."""
    if not path:
        raise PipelineError("a tweets file is required")
    tweets = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if not isinstance(obj, dict):
                    raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
                if not isinstance(obj.get("text", ""), str):
                    raise ValueError(f"text must be a string, got {type(obj['text']).__name__}")
                tweets.append(
                    RawTweet(
                        id=str(obj["id"]),
                        timestamp=datetime.fromisoformat(obj["created_at"]),
                        text=obj["text"],
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise PipelineError(f"{path}:{lineno}: bad tweet record: {exc}") from exc
    tweets.sort(key=lambda t: t.timestamp)
    return tweets


def read_labels(path: str) -> dict[tuple[str, int, str], EmotionLabel]:
    """tweet_id <TAB> segment_index <TAB> focus_ticker <TAB> P|N|O, one row
    per replica; a second row for the same key is refused."""
    out: dict[tuple[str, int, str], EmotionLabel] = {}
    first_line: dict[tuple[str, int, str], int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                raise PipelineError(f"{path}:{lineno}: expected 4 tab-separated fields")
            tweet_id, index, focus, label = parts
            try:
                key = (tweet_id, int(index), focus)
                emotion = EmotionLabel.parse(label)
            except ValueError as exc:
                raise PipelineError(f"{path}:{lineno}: {exc}") from exc
            if key in first_line:
                raise PipelineError(
                    f"{path}:{lineno}: duplicate label for tweet {tweet_id}, segment {index}, "
                    f"focus {focus} (first given on line {first_line[key]})"
                )
            first_line[key] = lineno
            out[key] = emotion
    return out


@dataclass
class Instance:
    """One per-asset replica, ready for feature extraction."""

    tweet: RawTweet
    segment_index: int
    processed: ProcessedSegment
    tagged_text: str  # asset-tagged text, before number tagging and cleaning
    focus: str
    label: EmotionLabel | None


def build_instances(tweets, lx, labels=None) -> Iterator[Instance]:
    """Every per-asset replica of ``tweets``, in arrival order.

    With ``labels``, replicas without a label are dropped before they are
    processed.
    """
    for tweet in tweets:
        for index, seg in enumerate(segment_tweet(tweet, lx)):
            for replica in replicate_per_asset(seg):
                label = labels.get((tweet.id, index, replica.focus)) if labels else None
                if labels is not None and label is None:
                    continue
                ps = replace(process(replica, lx), label=label)
                yield Instance(tweet, index, ps, replica.text, replica.focus, label)


def _check_stream(cfg: PipelineConfig) -> None:
    """Refuse a bad warmup or percentile before any file is read."""
    if cfg.warmup < 1:
        raise PipelineError(f"--warmup must be at least 1, got {cfg.warmup}")
    if cfg.percentile and not 1 <= cfg.percentile <= 100:
        raise PipelineError(f"--percentile must be in 1..100 (0 = off), got {cfg.percentile}")
    if cfg.percentile and not cfg.labels:
        raise PipelineError("--percentile needs labels to score features")


def _check_run(cfg: PipelineConfig) -> None:
    """Refuse a bad ``train-eval`` configuration before any file is read;
    the first failing check names the error."""
    if cfg.sample_every < 1:
        raise PipelineError(f"--sample-every must be at least 1, got {cfg.sample_every}")
    if cfg.grid and cfg.grid not in GRIDS:
        raise PipelineError(f"unknown grid: {cfg.grid}")
    _check_stream(cfg)
    if not cfg.labels:
        raise PipelineError("a model must be trained with --labels; there is no inference-only run")


class FeatureStream:
    """tweets -> instances -> (instance, feature vector), in arrival order.

    The lexicons, labels and prices named by ``cfg`` are read once. The
    vocabulary, and with ``cfg.percentile`` the chi-squared mask, is fitted
    on the first ``cfg.warmup`` instances; that window is the only part of
    the stream held in memory. Iterating yields the warmup pairs, then the
    rest of the stream. ``default_trends`` counts the instances, so far,
    whose trend fell back to downward for want of a closing price.
    """

    def __init__(self, cfg: PipelineConfig):
        _check_stream(cfg)
        self.lx = load_lexicons(cfg.lexicons)
        labels = read_labels(cfg.labels) if cfg.labels else None
        self.prices = PriceSeries.from_csv(cfg.prices) if cfg.prices else None
        if self.prices is None:
            print("warning: no prices file, trend defaults to downward", file=sys.stderr)
        self.default_trends = 0
        self._instances = build_instances(read_tweets(cfg.tweets), self.lx, labels)

        window = list(islice(self._instances, cfg.warmup))
        if not window:
            raise PipelineError("no asset-bearing segments in the input")
        if len(window) < cfg.warmup:
            raise PipelineError(
                f"insufficient warmup data: need {cfg.warmup} instances, have {len(window)}"
            )
        self.vm = fit_vocabularies(
            [inst.processed for inst in window],
            ngram_range=(cfg.ngram_min, cfg.ngram_max),
            max_df=cfg.max_df,
            min_df=cfg.min_df,
            bow_size=cfg.bow_size,
        )
        self.warmup = [(inst, self._vectorize(inst)) for inst in window]
        if cfg.percentile:
            scores = chi2_scores(
                [fv.items() for _, fv in self.warmup],
                [CLASS_ORDER.index(inst.label) for inst, _ in self.warmup],
                self.vm.total_dim,
            )
            mask = self.vm.selection_mask = select_percentile(scores, cfg.percentile).retained
            self.warmup = [(inst, fv.masked(mask)) for inst, fv in self.warmup]

    def _vectorize(self, inst: Instance) -> FeatureVector:
        numeric = extract_numeric(inst.processed, inst.tagged_text, self.lx)
        trend = False
        if self.prices is None:
            self.default_trends += 1
        else:
            try:
                trend = compute_trend(inst.focus, inst.tweet.timestamp, self.prices)
            except TrendUnavailableError:
                self.default_trends += 1
        return vectorize(inst.processed, self.vm, numeric, trend)

    def rest(self) -> Iterator[tuple[Instance, FeatureVector]]:
        """The pairs after the warmup window, built and vectorized BLOCK
        instances at a time."""
        while block := list(islice(self._instances, BLOCK)):
            yield from [(inst, self._vectorize(inst)) for inst in block]

    def __iter__(self) -> Iterator[tuple[Instance, FeatureVector]]:
        yield from self.warmup
        yield from self.rest()

    def write_vocabulary(self, out_dir: str) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "vocabulary.json"), "w", encoding="utf-8") as fh:
            fh.write(self.vm.to_json())


def make_learner(cfg: PipelineConfig, params: dict | None = None):
    """Instantiate the configured learner from the arguments that grid point
    ``params`` resolves to (``streamml.learner_args``)."""
    learners = {"nb": StreamingNaiveBayes, "dt": HoeffdingTreeClassifier,
                "rf": AdaptiveRandomForestClassifier, "sgd": SGDLinearClassifier}
    if cfg.learner not in learners:
        raise PipelineError(f"unknown learner: {cfg.learner}")
    args = learner_args(cfg.learner, params or {})
    if cfg.learner == "rf":
        args["seed"] = cfg.seed

    def factory(classes):
        return learners[cfg.learner](classes=classes, **args)

    if cfg.stacked:
        return make_stacked(factory)
    return factory(CLASS_ORDER)


def run_pipeline(cfg: PipelineConfig) -> PrequentialReport:
    """Segment, normalize, vectorize and evaluate one labeled stream.

    Writes report.json, confusion.csv, accuracy_series.csv, indicators.jsonl
    and vocabulary.json to the output directory and returns the report.
    """
    _check_run(cfg)
    stream = FeatureStream(cfg)
    stream.write_vocabulary(cfg.out)

    params = None
    if cfg.grid:
        warm = [(fv, inst.label) for inst, fv in stream.warmup]
        tuned = grid_search(
            GRIDS[cfg.grid],
            warm,
            lambda p: make_learner(cfg, p),
            lambda p: learner_args(cfg.learner, p),
        )
        params = tuned.config
        print(f"grid search: {tuned.config} (warmup accuracy {tuned.accuracy:.4f})")

    model = make_learner(cfg, params)
    with open(os.path.join(cfg.out, "indicators.jsonl"), "w", encoding="utf-8") as fh:

        def emit(inst: Instance, predicted: EmotionLabel) -> None:
            if predicted is EmotionLabel.NEUTRAL and not cfg.emit_all:
                return
            record = {
                "tweet_id": inst.tweet.id,
                "segment_index": inst.segment_index,
                "focus": inst.focus,
                "timestamp": inst.tweet.timestamp.isoformat(),
                "text": inst.tagged_text,
                "predicted": predicted.name,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")

        # warmup: train only; evaluation starts after the cold-start window
        for inst, fv in stream.warmup:
            model.partial_fit(fv, inst.label)
        try:
            report = prequential_run(
                ((fv, inst.label, inst) for inst, fv in stream.rest()),
                model,
                sample_every=cfg.sample_every,
                on_predict=lambda item, predicted: emit(item[2], predicted),
            )
        except EvaluationError:
            raise PipelineError(f"nothing to evaluate after a warmup of {cfg.warmup}") from None
    report.default_trend_count = stream.default_trends
    with open(os.path.join(cfg.out, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    report.write_csvs(
        os.path.join(cfg.out, "confusion.csv"),
        os.path.join(cfg.out, "accuracy_series.csv"),
    )
    if cfg.save_model:
        save_model(model, cfg.save_model)
    return report


# ---------------------------------------------------------------- subcommands


def _cmd_segment(cfg: PipelineConfig) -> None:
    lx = load_lexicons(cfg.lexicons)
    for tweet in read_tweets(cfg.tweets):
        for index, seg in enumerate(segment_tweet(tweet, lx)):
            print(
                json.dumps(
                    {
                        "tweet_id": tweet.id,
                        "segment_index": index,
                        "text": seg.text,
                        "assets": [
                            {"ticker": t, "start": s, "end": e}
                            for t, (s, e) in seg.assets
                        ],
                    },
                    ensure_ascii=False,
                )
            )


def _cmd_process(cfg: PipelineConfig) -> None:
    for inst in build_instances(read_tweets(cfg.tweets), load_lexicons(cfg.lexicons)):
        print(
            json.dumps(
                {
                    "tweet_id": inst.tweet.id,
                    "segment_index": inst.segment_index,
                    "focus": inst.focus,
                    "tokens": list(inst.processed.tokens),
                    "raw_len": inst.processed.raw_len,
                },
                ensure_ascii=False,
            )
        )


def _cmd_features(cfg: PipelineConfig) -> None:
    stream = FeatureStream(cfg)
    stream.write_vocabulary(cfg.out)
    for inst, fv in stream:
        print(
            json.dumps(
                {
                    "tweet_id": inst.tweet.id,
                    "segment_index": inst.segment_index,
                    "focus": inst.focus,
                    "sparse": {str(k): v for k, v in sorted(fv.counts())},
                    "numeric": [int(v) for v in fv.dense[NUMERIC_COLUMNS].tolist()],
                    "trend": bool(fv.dense[TREND_COLUMN]),
                    "label": inst.label.name if inst.label else None,
                },
                ensure_ascii=False,
            )
        )


def _cmd_analyze(cfg: PipelineConfig) -> None:
    if not cfg.labels:
        raise PipelineError("analyze needs labels")
    stream = FeatureStream(cfg)
    pairs = list(stream)
    # correlations over the interpretable dense block only
    X = np.array([fv.dense for _, fv in pairs])
    y = [inst.label for inst, _ in pairs]
    rep = correlation_report(X, y)
    chi2 = chi2_scores(
        [fv.items() for _, fv in pairs], [CLASS_ORDER.index(l) for l in y], stream.vm.total_dim
    )
    out = {
        "pearson": {DENSE_NAMES[j]: r for j, r in rep.r_values.items()},
        "constant": [DENSE_NAMES[j] for j in rep.constant],
        "chi2_top": [
            {"column": int(j), "score": float(chi2[j])}
            for j in np.argsort(-chi2)[:20]
        ],
    }
    print(json.dumps(out, ensure_ascii=False, indent=2))


def _cmd_agreement(cfg: PipelineConfig) -> None:
    """cfg.labels: TSV where each row is the per-annotator labels of one item."""
    if not cfg.labels:
        raise PipelineError("agreement needs a labels file")
    rows = []
    with open(cfg.labels, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append(tuple(EmotionLabel.parse(v) for v in line.split("\t")))
            except ValueError as exc:
                raise PipelineError(f"{cfg.labels}:{lineno}: {exc}") from exc
    print(agreement_report(rows).to_json())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finemo",
        description="Per-asset emotion indicators from financial microblog streams.",
    )
    parser.add_argument("command", choices=[
        "segment", "process", "features", "analyze", "train-eval", "run", "agreement",
    ])
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--lexicons", help="lexicon directory")
    parser.add_argument("--tweets", help="tweets JSONL file")
    parser.add_argument("--prices", help="closing prices CSV")
    parser.add_argument("--labels", help="labels TSV")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--warmup", type=int, help="cold-start window size")
    parser.add_argument("--learner", choices=["nb", "dt", "rf", "sgd"])
    parser.add_argument("--stacked", dest="stacked", action="store_true", default=None)
    parser.add_argument("--single", dest="stacked", action="store_false", default=None)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--percentile", type=int, help="chi2 selection percentile (0 = off)")
    parser.add_argument("--grid", choices=["rf", "sgd"], help="warmup grid search")
    parser.add_argument("--all", dest="emit_all", action="store_true", default=None,
                        help="emit indicators for neutral predictions too")
    parser.add_argument("--sample-every", dest="sample_every", type=int)
    parser.add_argument("--save-model", dest="save_model")
    return parser


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    cfg = PipelineConfig.from_yaml(args.config) if args.config else PipelineConfig()
    for f in fields(PipelineConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        if args.command == "segment":
            _cmd_segment(cfg)
        elif args.command == "process":
            _cmd_process(cfg)
        elif args.command == "features":
            _cmd_features(cfg)
        elif args.command == "analyze":
            _cmd_analyze(cfg)
        elif args.command in ("train-eval", "run"):
            print(run_pipeline(cfg).to_json())
        elif args.command == "agreement":
            _cmd_agreement(cfg)
    except BrokenPipeError:
        return 0
    except (PipelineError, OSError, LexiconError, PriceError, VocabularyError, SelectionError,
            EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
