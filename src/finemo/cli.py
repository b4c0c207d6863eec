"""Command-line entry points for the streaming pipeline.

Subcommands:
  segment     tweets -> per-asset declarative segments (JSONL)
  process     tweets -> normalized per-asset token streams (JSONL)
  features    tweets + labels -> hybrid feature rows (JSONL) + vocabulary
  analyze     feature analysis: Pearson correlations and chi2 scores
  train-eval  prequential run with evaluation artifacts
  run         alias of train-eval
  agreement   annotator-agreement report from a label matrix (TSV)

Options come from flags only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields, replace
from datetime import datetime
from itertools import islice
from typing import NamedTuple

import numpy as np

from finemo.evaluation import (
    EvaluationError,
    PrequentialReport,
    agreement_report,
    prequential_run,
    series_writer,
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
    VocabularyModel,
    compute_trend,
    extract_numeric,
    fit_vocabularies,
    vectorize,
)
from finemo.lexicons import EncodingError, LexiconError, data_lines, load_lexicons, text_lines
from finemo.segmenter import CLASS_ORDER, EmotionLabel, RawTweet, replicate_per_asset, segment_tweet
from finemo.selection import (
    SelectionError,
    chi2_scores,
    correlation_report,
    rank_columns,
    select_percentile,
)
from finemo.streamml import GRIDS, LEARNERS, grid_search, learner_args, make_learner
from finemo.textproc import ProcessedSegment, process

# Instances after the warmup window are built and vectorized in blocks of this
# size. Vectorizing each instance as it is consumed instead was 10-13% slower
# on every perfbench workload, naive Bayes and SGD included (2-vCPU VM, medians
# of 4 alternating 12 s runs at seed 5, tweets/ref-s: clean-forest 1977 -> 1726,
# replay-linear 2185 -> 1910, typo-lexicon 601 -> 544).
BLOCK = 1024


class PipelineError(Exception):
    pass


@dataclass
class PipelineConfig:
    """Everything one run needs. Each CLI flag sets one field."""

    lexicons: str = "data/lexicons"
    tweets: str | None = None
    prices: str | None = None
    labels: str | None = None
    out: str = "out"
    warmup: int = 1000
    learner: str = "rf"  # a key of streamml.LEARNERS
    stacked: bool = True
    seed: int = 0
    percentile: int = 0  # 0 disables chi2 percentile selection
    grid: bool = False  # warmup grid search over streamml.GRIDS[learner]
    emit_all: bool = False  # indicators for every prediction, not only non-neutral
    sample_every: int = 1


# ISO 8601 extended form; fromisoformat reads more from Python 3.11 on
_TIMESTAMP = re.compile(
    r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
    r"([T ][0-9]{2}:[0-9]{2}(:[0-9]{2}(\.[0-9]{3}([0-9]{3})?)?)?(Z|[+-][0-9]{2}:[0-9]{2})?)?"
)


def read_tweets(path: str) -> Iterator[RawTweet]:
    """The tweets of a JSONL file, read lazily in file order. A timestamp
    matches ``_TIMESTAMP``, Z meaning +00:00; every one has a UTC offset or
    none has, and none is earlier than the one before it."""
    first_has_offset = previous = None  # previous: (timestamp, created_at, line)
    for lineno, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
            if not isinstance(obj, dict):
                raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
            if not isinstance(obj.get("text", ""), str):
                raise ValueError(f"text must be a string, got {type(obj['text']).__name__}")
            tweet_id = obj["id"]
            if type(tweet_id) not in (str, int) or tweet_id == "":
                got = json.dumps(tweet_id)
                raise ValueError(f"id must be a non-empty string or an integer, got {got}")
            created_at = obj["created_at"]
            if not isinstance(created_at, str) or not _TIMESTAMP.fullmatch(created_at):
                raise ValueError(f"created_at must be an ISO 8601 timestamp, got {created_at!r}")
            timestamp = datetime.fromisoformat(created_at.replace("Z", "+00:00"))
            has_offset = timestamp.utcoffset() is not None
            if first_has_offset is None:
                first_has_offset = has_offset
            elif has_offset != first_has_offset:
                raise ValueError(
                    f"timestamp {created_at!r} {'has' if has_offset else 'lacks'} "
                    "a UTC offset, unlike the first record's"
                )
            if previous is not None and timestamp < previous[0]:
                raise ValueError(
                    f"created_at {created_at!r} is earlier than {previous[1]!r} on line "
                    f"{previous[2]}: tweets must be in time order"
                )
            tweet = RawTweet(id=str(tweet_id), timestamp=timestamp, text=obj["text"])
        except (KeyError, TypeError, ValueError) as exc:
            raise PipelineError(f"{path}:{lineno}: bad tweet record: {exc}") from exc
        # a "\udc80" escape decodes to a lone surrogate, which no output can encode
        for field, value in (("id", tweet.id), ("text", tweet.text)):
            try:
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise EncodingError(
                    f"{path}:{lineno}: not UTF-8: {field} has the lone surrogate "
                    f"U+{ord(value[exc.start]):04X} at character {exc.start + 1}"
                ) from None
        previous = (timestamp, created_at, lineno)
        yield tweet


class LabelRow(NamedTuple):
    """One row of a labels file."""

    lineno: int
    key: tuple[str, int, str]  # tweet_id, segment_index, focus
    label: EmotionLabel
    index: str  # segment_index as written


def read_label_rows(path: str) -> Iterator[LabelRow]:
    """The rows of a labels file, read lazily in file order:
    tweet_id <TAB> segment_index <TAB> focus_ticker <TAB> P|N|O, one row per
    replica."""
    for lineno, line in data_lines(path):
        parts = line.split("\t")
        if len(parts) != 4:
            raise PipelineError(f"{path}:{lineno}: expected 4 tab-separated fields")
        tweet_id, index, focus, label = parts
        try:
            if not (index.isascii() and index.isdigit()):
                raise ValueError(f"segment_index must be ASCII digits, got {index!r}")
            row = LabelRow(lineno, (tweet_id, int(index), focus), EmotionLabel.parse(label), index)
        except ValueError as exc:
            raise PipelineError(f"{path}:{lineno}: {exc}") from exc
        yield row


def _hold(path: str, held: dict[tuple[str, int, str], LabelRow], row: LabelRow) -> None:
    """Add ``row`` to ``held`` by its key; a second row for a key is refused."""
    first = held.setdefault(row.key, row)
    if first is not row:
        tweet_id, _, focus = row.key
        raise PipelineError(
            f"{path}:{row.lineno}: duplicate label for tweet {tweet_id}, segment {row.index}, "
            f"focus {focus} (first given on line {first.lineno})"
        )


def read_labels(path: str) -> dict[tuple[str, int, str], EmotionLabel]:
    """Every row of a labels file by key; a second row for a key anywhere in
    the file is refused. The pipeline reads labels by ``join_labels``."""
    held: dict[tuple[str, int, str], LabelRow] = {}
    for row in read_label_rows(path):
        _hold(path, held, row)
    return {key: row.label for key, row in held.items()}


def join_labels(
    tweets: Iterable[RawTweet], path: str
) -> Iterator[tuple[RawTweet, dict[tuple[str, int, str], LabelRow]]]:
    """Each tweet with its rows of the labels file ``path``, by key.

    The rows come in tweet order, so the join holds only the current tweet's
    rows, and a second row for a key within them is refused. A row still
    unread when the tweets run out names a tweet that never arrived or that
    came before the rows above it; it is refused by its line.
    """
    rows = read_label_rows(path)
    row = next(rows, None)
    for tweet in tweets:
        held: dict[tuple[str, int, str], LabelRow] = {}
        while row is not None and row.key[0] == tweet.id:
            _hold(path, held, row)
            row = next(rows, None)
        yield tweet, held
    if row is not None:
        raise PipelineError(
            f"{path}:{row.lineno}: label for tweet {row.key[0]}, which no later tweet has: "
            "labels must follow the order of the tweets file"
        )


@dataclass
class Instance:
    """One per-asset replica, ready for feature extraction."""

    tweet: RawTweet
    segment_index: int
    processed: ProcessedSegment
    tagged_text: str  # asset-tagged text, before number tagging and cleaning
    focus: str
    label: EmotionLabel | None


def build_instances(tweets, lx, labels: str | None = None) -> Iterator[Instance]:
    """Every per-asset replica of ``tweets``, in arrival order.

    With a ``labels`` file, the replicas that ``join_labels`` gives no row
    are dropped before they are processed, and a row that names no replica
    of its tweet is refused by its line once the tweet's replicas are built.
    """
    joined = join_labels(tweets, labels) if labels else ((tweet, None) for tweet in tweets)
    for tweet, held in joined:
        for index, seg in enumerate(segment_tweet(tweet, lx)):
            for replica in replicate_per_asset(seg):
                label = None
                if held is not None:
                    row = held.pop((tweet.id, index, replica.focus), None)
                    if row is None:
                        continue
                    label = row.label
                ps = process(replica, lx)
                yield Instance(tweet, index, ps, replica.text, replica.focus, label)
        if held:
            row = next(iter(held.values()))  # the first in file order
            _, _, focus = row.key
            raise PipelineError(
                f"{labels}:{row.lineno}: label for tweet {tweet.id}, segment {row.index}, "
                f"focus {focus}, which names no replica of that tweet"
            )


def _require_tweets(cfg: PipelineConfig) -> None:
    if not cfg.tweets:
        raise PipelineError("a tweets file is required")


def _check_stream(cfg: PipelineConfig) -> None:
    """Refuse a missing tweets file, a bad warmup or percentile before any
    file is read."""
    _require_tweets(cfg)
    if cfg.warmup < 1:
        raise PipelineError(f"--warmup must be at least 1, got {cfg.warmup}")
    if cfg.percentile and not 1 <= cfg.percentile <= 100:
        raise PipelineError(f"--percentile must be in 1..100 (0 = off), got {cfg.percentile}")
    if cfg.percentile and not cfg.labels:
        raise PipelineError("--percentile needs labels to score features")


def _check_run(cfg: PipelineConfig) -> None:
    """Refuse a bad ``train-eval`` configuration before any file is read;
    the first failing check names the error."""
    if cfg.learner not in LEARNERS:
        raise PipelineError(f"unknown learner: {cfg.learner}")
    if cfg.sample_every < 1:
        raise PipelineError(f"--sample-every must be at least 1, got {cfg.sample_every}")
    if cfg.seed < 0:
        raise PipelineError(f"--seed must be non-negative, got {cfg.seed}")
    if cfg.grid and cfg.learner not in GRIDS:
        raise PipelineError(f"--grid tunes the rf and sgd learners, not --learner {cfg.learner}")
    _check_stream(cfg)
    if not cfg.labels:
        raise PipelineError("a model must be trained with --labels; there is no inference-only run")


Pair = tuple[Instance, FeatureVector]


class Vectorizer:
    """One instance -> its feature vector under the fitted vocabulary ``vm``.
    ``default_trends`` counts the trends, so far, that fell back to downward
    for want of a closing price."""

    def __init__(self, lx, prices: PriceSeries, vm: VocabularyModel):
        self.lx, self.prices, self.vm = lx, prices, vm
        self.default_trends = 0

    def __call__(self, inst: Instance) -> FeatureVector:
        numeric = extract_numeric(inst.processed, inst.tagged_text, self.lx)
        try:
            trend = compute_trend(inst.focus, inst.tweet.timestamp, self.prices)
        except TrendUnavailableError:
            trend = False
            self.default_trends += 1
        return vectorize(inst.processed, self.vm, numeric, trend)


def feature_stream(cfg: PipelineConfig) -> tuple[Vectorizer, Iterator[Pair]]:
    """The vectorizer fitted on the first ``cfg.warmup`` instances, and every
    (instance, feature vector) pair of the stream, in arrival order; the
    caller checks ``cfg`` (``_check_stream``). The tweets and labels are read
    in one pass, as the pairs are needed. The vocabulary, and with
    ``cfg.percentile`` the chi-squared mask, is fitted on the warmup window,
    whose pairs come first; no pair is held once yielded."""
    lx = load_lexicons(cfg.lexicons)
    prices = PriceSeries.from_csv(cfg.prices) if cfg.prices else PriceSeries()
    if not cfg.prices:
        print("warning: no prices file, trend defaults to downward", file=sys.stderr)
    instances = build_instances(read_tweets(cfg.tweets), lx, cfg.labels)

    window = list(islice(instances, cfg.warmup))
    if not window:
        raise PipelineError("no asset-bearing segments in the input")
    if len(window) < cfg.warmup:
        raise PipelineError(
            f"insufficient warmup data: need {cfg.warmup} instances, have {len(window)}"
        )
    vectorizer = Vectorizer(lx, prices, fit_vocabularies(
        [inst.processed for inst in window], labels=[inst.label for inst in window]
    ))
    warmup = [(inst, vectorizer(inst)) for inst in window]
    if cfg.percentile:
        scores = chi2_scores(
            ((CLASS_ORDER.index(inst.label), *fv.arrays) for inst, fv in warmup),
            vectorizer.vm.total_dim,
        )
        mask = select_percentile(scores, cfg.percentile)
        vectorizer.vm = replace(vectorizer.vm, selection_mask=mask)
        # in place, so each unmasked vector is freed once its masked copy exists
        for i, (inst, fv) in enumerate(warmup):
            warmup[i] = (inst, fv.masked(mask))
    return vectorizer, _pairs(vectorizer, warmup, instances)


def _pairs(vectorizer: Vectorizer, warmup: list[Pair], instances: Iterator) -> Iterator[Pair]:
    """The ``warmup`` pairs, then a pair for each of ``instances``, built
    and vectorized BLOCK instances at a time; each is dropped once yielded."""
    yield from _drain(warmup)
    while block := list(islice(instances, BLOCK)):
        pairs = [(inst, vectorizer(inst)) for inst in block]
        del block
        yield from _drain(pairs)


def _drain(pairs: list) -> Iterator:
    """The items of ``pairs`` in order, each removed from the list as it is
    yielded, so that the list holds no item its consumer has passed."""
    pairs.reverse()
    while pairs:
        yield pairs.pop()


def _write_vocabulary(vm: VocabularyModel, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "vocabulary.json"), "w", encoding="utf-8") as fh:
        fh.write(vm.to_json())


def _fit_warmup(model, warm: list) -> None:
    """Train ``model`` on the (vector, label) pairs of ``warm``, dropping
    each once trained on."""
    for fv, label in _drain(warm):
        model.partial_fit(fv, label)


def run_pipeline(cfg: PipelineConfig) -> PrequentialReport:
    """Segment, normalize, vectorize and evaluate one labeled stream.

    Writes report.json, confusion.csv, accuracy_series.csv, indicators.jsonl
    and vocabulary.json to the output directory and returns the report.
    indicators.jsonl and accuracy_series.csv are written as the stream is
    evaluated, so a run refused late in the stream leaves them partial.
    """
    _check_run(cfg)
    vectorizer, pairs = feature_stream(cfg)
    _write_vocabulary(vectorizer.vm, cfg.out)

    warm = [(fv, inst.label) for inst, fv in islice(pairs, cfg.warmup)]
    if cfg.grid:
        tuned = grid_search(cfg.learner, warm, cfg.stacked, cfg.seed)
        args = tuned.args
        print(f"grid search: {tuned.point} (warmup accuracy {tuned.accuracy:.4f})")
    else:
        args = learner_args(cfg.learner, {}, cfg.seed)

    model = make_learner(cfg.learner, args, cfg.stacked)
    with (
        open(os.path.join(cfg.out, "indicators.jsonl"), "w", encoding="utf-8") as fh,
        open(os.path.join(cfg.out, "accuracy_series.csv"), "w", encoding="utf-8") as series,
    ):

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
        _fit_warmup(model, warm)
        try:
            report = prequential_run(
                ((fv, inst.label, inst) for inst, fv in pairs),
                model,
                sample_every=cfg.sample_every,
                on_predict=lambda item, predicted: emit(item[2], predicted),
                on_sample=series_writer(series),
            )
        except EvaluationError:
            raise PipelineError(f"nothing to evaluate after a warmup of {cfg.warmup}") from None
    report.default_trend_count = vectorizer.default_trends
    with open(os.path.join(cfg.out, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    report.write_csvs(os.path.join(cfg.out, "confusion.csv"))
    return report


# ---------------------------------------------------------------- subcommands


def _cmd_segment(cfg: PipelineConfig) -> None:
    _require_tweets(cfg)
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
    _require_tweets(cfg)
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
    _check_stream(cfg)
    vectorizer, pairs = feature_stream(cfg)
    _write_vocabulary(vectorizer.vm, cfg.out)
    for inst, fv in pairs:
        print(
            json.dumps(
                {
                    "tweet_id": inst.tweet.id,
                    "segment_index": inst.segment_index,
                    "focus": inst.focus,
                    "sparse": {str(k): v for k, v in islice(fv.items(), fv.n_counts)},
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
    _check_stream(cfg)
    vectorizer, pairs = feature_stream(cfg)
    # one pass: chi-squared sums the vectors as they come; the correlations,
    # over the interpretable dense block only, keep its 24 floats per instance
    dense, classes = array("d"), bytearray()

    def rows():
        for inst, fv in pairs:
            ci = CLASS_ORDER.index(inst.label)
            dense.frombytes(fv.dense.tobytes())
            classes.append(ci)
            yield (ci, *fv.arrays)

    chi2 = chi2_scores(rows(), vectorizer.vm.total_dim).tolist()
    X = np.frombuffer(dense).reshape(-1, len(DENSE_NAMES))
    rep = correlation_report(X, [CLASS_ORDER[ci] for ci in classes])
    out = {
        "pearson": {DENSE_NAMES[j]: r for j, r in rep.r_values.items()},
        "constant": [DENSE_NAMES[j] for j in rep.constant],
        "chi2_top": [{"column": j, "score": chi2[j]} for j in rank_columns(chi2)[:20]],
    }
    print(json.dumps(out, ensure_ascii=False, indent=2))


def _cmd_agreement(cfg: PipelineConfig) -> None:
    """cfg.labels: TSV where each row is the per-annotator labels of one
    item; every row has the first row's width, at least two."""
    if not cfg.labels:
        raise PipelineError("agreement needs a labels file")
    rows = []
    for lineno, line in data_lines(cfg.labels):
        try:
            row = tuple(EmotionLabel.parse(v) for v in line.strip().split("\t"))
            if len(row) < 2:
                raise ValueError("expected at least two annotators' labels")
            if rows and len(row) != len(rows[0]):
                raise ValueError(f"{len(row)} labels, but the first row has {len(rows[0])}")
        except ValueError as exc:
            raise PipelineError(f"{cfg.labels}:{lineno}: {exc}") from exc
        rows.append(row)
    if not rows:
        raise PipelineError(f"{cfg.labels}: no annotated items")
    try:
        report = agreement_report(rows)
    except EvaluationError as exc:
        raise PipelineError(f"{cfg.labels}: {exc}") from exc
    print(report.to_json())


def _cmd_train_eval(cfg: PipelineConfig) -> None:
    print(run_pipeline(cfg).to_json())


# each command's name and its function; ``run`` trains and evaluates as
# ``train-eval`` does
COMMANDS = {
    "segment": _cmd_segment,
    "process": _cmd_process,
    "features": _cmd_features,
    "analyze": _cmd_analyze,
    "train-eval": _cmd_train_eval,
    "run": _cmd_train_eval,
    "agreement": _cmd_agreement,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="finemo",
        description="Per-asset emotion indicators from financial microblog streams.",
    )
    parser.add_argument("command", choices=list(COMMANDS))
    parser.add_argument("--lexicons", help="lexicon directory")
    parser.add_argument("--tweets", help="tweets JSONL file")
    parser.add_argument("--prices", help="closing prices CSV")
    parser.add_argument("--labels", help="labels TSV")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--warmup", type=int, help="cold-start window size")
    parser.add_argument("--learner", choices=list(LEARNERS))
    parser.add_argument("--stacked", dest="stacked", action="store_true", default=None)
    parser.add_argument("--single", dest="stacked", action="store_false", default=None)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--percentile", type=int, help="chi2 selection percentile (0 = off)")
    parser.add_argument("--grid", action="store_true", default=None,
                        help="tune the rf or sgd learner by a warmup grid search")
    parser.add_argument("--all", dest="emit_all", action="store_true", default=None,
                        help="emit indicators for neutral predictions too")
    parser.add_argument("--sample-every", dest="sample_every", type=int)
    return parser


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    given = {f.name: getattr(args, f.name, None) for f in fields(PipelineConfig)}
    return PipelineConfig(**{name: value for name, value in given.items() if value is not None})


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        COMMANDS[args.command](config_from_args(args))
    except BrokenPipeError:
        return 0
    except (PipelineError, OSError, LexiconError, EncodingError, PriceError, VocabularyError,
            SelectionError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
