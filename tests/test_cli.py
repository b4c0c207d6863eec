import gc
import json
import os
import re
import shutil
import tracemalloc
import weakref
from dataclasses import fields
from datetime import datetime, timezone

import pytest

from finemo import cli, streamml
from finemo.cli import (
    PipelineConfig,
    PipelineError,
    build_instances,
    config_from_args,
    build_parser,
    join_labels,
    main,
    read_label_rows,
    read_labels,
    read_tweets,
    run_pipeline,
)
from finemo.features import PriceError, PriceSeries
from finemo.lexicons import load_lexicons
from finemo.segmenter import CLASS_ORDER, EmotionLabel
from finemo.selection import chi2_scores


def _config(sample_paths, tmp_path, **overrides):
    cfg = PipelineConfig(
        lexicons=sample_paths["lexicons"],
        tweets=sample_paths["tweets"],
        labels=sample_paths["labels"],
        prices=sample_paths["prices"],
        warmup=10,
        learner="nb",
        stacked=False,
        out=str(tmp_path / "out"),
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


def test_run_pipeline_artifact_contract(sample_paths, tmp_path):
    cfg = _config(sample_paths, tmp_path)
    report = run_pipeline(cfg)
    out = cfg.out
    for name in ("report.json", "confusion.csv", "accuracy_series.csv",
                 "indicators.jsonl", "vocabulary.json"):
        assert os.path.isfile(os.path.join(out, name)), name
    data = json.loads(open(os.path.join(out, "report.json")).read())
    assert data["n"] == report.n
    assert sum(sum(row) for row in data["confusion"]) == report.n
    # indicators only cover non-neutral predictions by default
    with open(os.path.join(out, "indicators.jsonl")) as fh:
        records = [json.loads(line) for line in fh]
    assert all(r["predicted"] in ("PRECAUTION", "OPPORTUNITY") for r in records)
    assert all({"tweet_id", "focus", "timestamp", "text"} <= set(r) for r in records)


def test_run_pipeline_emit_all(sample_paths, tmp_path):
    cfg = _config(sample_paths, tmp_path, emit_all=True)
    report = run_pipeline(cfg)
    with open(os.path.join(cfg.out, "indicators.jsonl")) as fh:
        records = [json.loads(line) for line in fh]
    assert len(records) == report.n  # one indicator per evaluated prediction


def test_deterministic_artifacts(sample_paths, tmp_path):
    blobs = []
    for run in range(2):
        cfg = _config(sample_paths, tmp_path, learner="rf", stacked=True,
                      seed=13, out=str(tmp_path / f"out{run}"))
        run_pipeline(cfg)
        blobs.append(tuple(
            open(os.path.join(cfg.out, name), "rb").read()
            for name in ("confusion.csv", "accuracy_series.csv")
        ))
    assert blobs[0] == blobs[1]


def test_inference_only_without_labels(sample_paths, tmp_path):
    # an untrained learner would label every segment with its first class
    cfg = _config(sample_paths, tmp_path, labels=None)
    with pytest.raises(PipelineError, match="a model must be trained with --labels"):
        run_pipeline(cfg)
    assert not os.path.exists(cfg.out)


def test_missing_prices_warns_and_defaults(sample_paths, tmp_path, capsys):
    cfg = _config(sample_paths, tmp_path, prices=None)
    report = run_pipeline(cfg)
    assert "trend defaults to downward" in capsys.readouterr().err
    assert report.default_trend_count > 0


def test_insufficient_warmup(sample_paths, tmp_path):
    cfg = _config(sample_paths, tmp_path, warmup=10_000)
    with pytest.raises(PipelineError, match="insufficient warmup data"):
        run_pipeline(cfg)


def test_percentile_selection_path(sample_paths, tmp_path):
    cfg = _config(sample_paths, tmp_path, percentile=15)
    report = run_pipeline(cfg)
    vm = json.loads(open(os.path.join(cfg.out, "vocabulary.json")).read())
    assert vm["selection_mask"] is not None
    assert report.n > 0


def test_grid_search_path(sample_paths, tmp_path, capsys):
    cfg = _config(sample_paths, tmp_path, learner="rf", grid=True)
    run_pipeline(cfg)
    assert "grid search:" in capsys.readouterr().out


def test_grid_run_builds_its_model_from_the_tuned_args(sample_paths, tmp_path, monkeypatch):
    cfg = _config(sample_paths, tmp_path, learner="sgd", grid=True)
    built, tuned = [], []
    real_learner, real_search = streamml.LEARNERS["sgd"], cli.grid_search

    def counting(classes, **args):
        built.append(args)
        return real_learner(classes=classes, **args)

    def recording(*args):
        tuned.append(real_search(*args))
        return tuned[-1]

    def resolve_again(*args):
        pytest.fail("the tuned point was resolved a second time")

    monkeypatch.setitem(streamml.LEARNERS, "sgd", counting)
    monkeypatch.setattr(cli, "grid_search", recording)
    monkeypatch.setattr(cli, "learner_args", resolve_again)
    run_pipeline(cfg)
    # one build per distinct point of the 243, then the model itself
    assert len(built) == 15 + 1
    assert built[-1] == tuned[0].args


def test_read_tweets_sorted_and_validated(sample_paths, tmp_path):
    # the records come in file order, which must be time order
    tweets = list(read_tweets(sample_paths["tweets"]))
    stamps = [t.timestamp for t in tweets]
    assert stamps == sorted(stamps)
    bad = tmp_path / "bad.jsonl"
    good = '{"id": "t", "created_at": "2019-08-01T10:00:00", "text": "hola"}\n'
    for record, message in [
        ('{"id": "x"}', "'created_at'"),
        ("[1, 2]", "expected a JSON object, got list"),
        ('"text"', "expected a JSON object, got str"),
        ('{"id": "x", "created_at": "2019-08-01T10:00:00", "text": 5}', "text must be a string"),
        ('{"id": "x", "created_at": 5, "text": "hola"}', "bad tweet record"),
        ("{not json", "bad tweet record"),
        # str() would make tweet "None" of null and "['a']" of ["a"]
        *(
            (f'{{"id": {tweet_id}, "created_at": "2019-08-01T10:00:00", "text": "hola"}}',
             f"id must be a non-empty string or an integer, got {re.escape(tweet_id)}$")
            for tweet_id in ("null", '["a"]', '{"a": 1}', "true", "1.5", '""')
        ),
        # the order check would compare offset-naive and offset-aware datetimes
        ('{"id": "x", "created_at": "2019-08-01T09:00:00+02:00", "text": "hola"}',
         "'2019-08-01T09:00:00\\+02:00' has a UTC offset, unlike the first record's"),
        ('{"id": "x", "created_at": "2019-08-01T09:59:59", "text": "hola"}',
         "'2019-08-01T09:59:59' is earlier than '2019-08-01T10:00:00' on line 1: "
         "tweets must be in time order$"),
    ]:
        bad.write_text(good + record + "\n")
        with pytest.raises(PipelineError, match=f"bad.jsonl:2: .*{message}"):
            list(read_tweets(str(bad)))
    bad.write_text(good.replace('"t"', "7"))
    assert [t.id for t in read_tweets(str(bad))] == ["7"]


def test_read_tweets_reads_one_timestamp_grammar(tmp_path):
    path = tmp_path / "tweets.jsonl"

    def record(stamp):
        return json.dumps({"id": "t", "created_at": stamp, "text": "hola"}) + "\n"

    # Z, as Twitter writes it, is +00:00 on every supported Python
    path.write_text(record("2019-08-05T09:15:00Z"))
    assert [t.timestamp for t in read_tweets(str(path))] == [
        datetime(2019, 8, 5, 9, 15, tzinfo=timezone.utc)
    ]
    for stamp in ("2019-08-05", "2019-08-05 09:15", "2019-08-05T09:15:00.123456"):
        path.write_text(record(stamp))
        assert [t.timestamp for t in read_tweets(str(path))] == [datetime.fromisoformat(stamp)]
    # the basic form and the other forms only Python 3.11 and later read
    for stamp in ("20190805T091500", "2019-08-05T0915", "2019-08-05T09:15:00.12", "2019-W32-1"):
        path.write_text(record("2019-08-05T09:00:00") + record(stamp))
        message = f"{path}:2: bad tweet record: created_at must be an ISO 8601 timestamp, got {stamp!r}"
        with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
            list(read_tweets(str(path)))


def _tweet_line(tweet_id, stamp, text="$SAN sube"):
    return json.dumps({"id": tweet_id, "created_at": stamp, "text": text}) + "\n"


def test_read_tweets_yields_records_before_a_later_bad_line(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_text(
        _tweet_line("t0", "2019-08-01T10:00:00") + _tweet_line("t1", "2019-08-01T11:00:00")
        + "{not json\n"
    )
    tweets = read_tweets(str(path))
    assert [next(tweets).id, next(tweets).id] == ["t0", "t1"]
    with pytest.raises(PipelineError, match=f"^{re.escape(str(path))}:3: bad tweet record"):
        next(tweets)


def test_read_tweets_refuses_an_earlier_timestamp_by_line(tmp_path):
    path = tmp_path / "tweets.jsonl"
    path.write_text(
        _tweet_line("t0", "2019-08-01T10:00:00Z")
        + "\n"
        + _tweet_line("t1", "2019-08-01T11:00:00Z")
        + _tweet_line("t2", "2019-08-01T12:30:00+02:00")  # 10:30Z
    )
    message = (
        f"{path}:4: bad tweet record: created_at '2019-08-01T12:30:00+02:00' is earlier than "
        "'2019-08-01T11:00:00Z' on line 3: tweets must be in time order"
    )
    with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
        list(read_tweets(str(path)))


def test_read_tweets_keeps_file_order_of_equal_timestamps(tmp_path):
    path = tmp_path / "tweets.jsonl"
    # the same instant, written three ways
    path.write_text(
        _tweet_line("c", "2019-08-01T10:00:00Z")
        + _tweet_line("a", "2019-08-01T12:00:00+02:00")
        + _tweet_line("b", "2019-08-01T10:00:00+00:00")
    )
    assert [t.id for t in read_tweets(str(path))] == ["c", "a", "b"]


def _join_inputs(tmp_path, labels):
    """A tweets file of t0, t1 and t2, each naming SAN once, and ``labels``."""
    tweets = tmp_path / "tweets.jsonl"
    tweets.write_text("".join(
        _tweet_line(f"t{i}", f"2019-08-01T1{i}:00:00") for i in range(3)
    ))
    path = tmp_path / "labels.tsv"
    path.write_text(labels)
    return str(tweets), str(path)


@pytest.mark.parametrize(
    "labels, lineno, message",
    [
        # a tweet that never arrives
        ("t0\t0\tSAN\tP\ntx\t0\tSAN\tP\nt2\t0\tSAN\tN\n", 2,
         "label for tweet tx, which no later tweet has: "
         "labels must follow the order of the tweets file"),
        # a row out of tweet order
        ("t1\t0\tSAN\tP\n# t0 again\nt0\t0\tSAN\tN\n", 3, "label for tweet t0, which no later"),
        # a second row for one key within a tweet's rows
        ("t0\t0\tSAN\tP\nt1\t0\tSAN\tN\nt1\t00\tSAN\tO\n", 3,
         "duplicate label for tweet t1, segment 00, focus SAN (first given on line 2)"),
    ],
)
def test_join_refuses_a_row_by_path_and_line(tmp_path, labels, lineno, message):
    tweets, path = _join_inputs(tmp_path, labels)
    with pytest.raises(PipelineError, match=f"^{re.escape(f'{path}:{lineno}: {message}')}"):
        list(join_labels(read_tweets(tweets), path))


def test_join_holds_only_the_current_tweets_rows(tmp_path):
    tweets, path = _join_inputs(tmp_path, "t0\t0\tSAN\tP\nt2\t0\tSAN\tN\nt2\t1\tSAN\tO\n")
    joined = [(tweet.id, sorted(row.lineno for row in held.values()))
              for tweet, held in join_labels(read_tweets(tweets), path)]
    assert joined == [("t0", [1]), ("t1", []), ("t2", [2, 3])]


def test_a_repeated_tweet_id_reads_its_labels_at_its_first_copy_only(lx, tmp_path):
    # the join reads t0's rows at its first copy, and no row is left for the
    # second, whose replica is dropped (a lookup in a dict would label both)
    tweets, path = _join_inputs(tmp_path, "t0\t0\tSAN\tP\nt1\t0\tSAN\tN\n")
    with open(tweets, "a", encoding="utf-8") as fh:
        fh.write(_tweet_line("t0", "2019-08-01T13:00:00"))
    got = [(i.tweet.id, i.tweet.timestamp.hour, i.label) for i in build_instances(
        read_tweets(tweets), lx, path)]
    assert got == [("t0", 10, EmotionLabel.PRECAUTION), ("t1", 11, EmotionLabel.NEUTRAL)]
    assert len(list(build_instances(read_tweets(tweets), lx))) == 4


def test_a_label_row_that_names_no_replica_of_its_tweet_is_refused(lx, tmp_path):
    # t0 has one segment naming SAN; of its two unmatched rows the first in
    # the file is named, once the replica that does match has been yielded
    tweets, path = _join_inputs(
        tmp_path, "t0\t0\tSAN\tP\nt0\t01\tSAN\tN\nt0\t0\tBBVA\tO\nt1\t0\tSAN\tN\n"
    )
    instances = build_instances(read_tweets(tweets), lx, path)
    assert next(instances).label is EmotionLabel.PRECAUTION
    message = (
        f"{path}:2: label for tweet t0, segment 01, focus SAN, "
        "which names no replica of that tweet"
    )
    with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
        next(instances)


def test_train_eval_refuses_a_label_row_that_names_no_replica(sample_paths, tmp_path, capsys):
    labels = tmp_path / "labels.tsv"
    shutil.copyfile(sample_paths["labels"], labels)
    with open(labels, encoding="utf-8") as fh:
        lineno = sum(1 for _ in fh) + 1
    with open(labels, "a", encoding="utf-8") as fh:
        fh.write("t024\t5\tCABK\tP\n")  # t024 is the sample's last tweet
    assert main(_argv({**sample_paths, "labels": labels}, "train-eval", tmp_path / "out")) == 1
    assert capsys.readouterr().err == (
        f"error: {labels}:{lineno}: label for tweet t024, segment 5, focus CABK, "
        "which names no replica of that tweet\n"
    )


def test_a_label_row_for_an_unknown_tweet_is_refused_before_the_warmup_check(
    sample_paths, tmp_path
):
    # every row after the stray one waits for a tweet that has passed, so
    # the window is short; the stray row is named all the same
    labels = tmp_path / "labels.tsv"
    rows = open(sample_paths["labels"], encoding="utf-8").read().splitlines(keepends=True)
    labels.write_text("".join(rows[:3]) + "t999\t0\tSAN\tP\n" + "".join(rows[3:]))
    cfg = _config(sample_paths, tmp_path, labels=str(labels))
    with pytest.raises(PipelineError, match=f"^{re.escape(str(labels))}:4: label for tweet t999"):
        run_pipeline(cfg)


def test_a_refusal_late_in_the_stream_leaves_no_report(sample_paths, tmp_path, capsys):
    labels = tmp_path / "labels.tsv"
    shutil.copyfile(sample_paths["labels"], labels)
    with open(labels, encoding="utf-8") as fh:
        lineno = sum(1 for _ in fh) + 1
    with open(labels, "a", encoding="utf-8") as fh:
        fh.write("t999\t0\tSAN\tP\n")
    out = tmp_path / "out"
    assert main(_argv({**sample_paths, "labels": labels}, "train-eval", out)) == 1
    assert capsys.readouterr().err.startswith(f"error: {labels}:{lineno}: label for tweet t999")
    assert sorted(p.name for p in out.iterdir()) == [
        "accuracy_series.csv", "indicators.jsonl", "vocabulary.json"
    ]
    assert (out / "accuracy_series.csv").read_text().startswith("n,accuracy\n")


def _lines_peak(tmp_path, n):
    """The tracemalloc peak, in bytes, of reading and joining a tweets file
    and a labels file of ``n`` lines each."""
    tweets = tmp_path / f"tweets-{n}.jsonl"
    labels = tmp_path / f"labels-{n}.tsv"
    with open(tweets, "w", encoding="utf-8") as tf, open(labels, "w", encoding="utf-8") as lf:
        for i in range(n):
            tf.write(_tweet_line(f"t{i}", f"2019-08-01T10:{i * 60 // n:02d}:00"))
            lf.write(f"t{i}\t0\tSAN\tP\n")
    tracemalloc.start()
    try:
        for _ in join_labels(read_tweets(str(tweets)), str(labels)):
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reading_and_joining_take_memory_independent_of_stream_length(tmp_path):
    # a list of 20000 tweets or a dict of 20000 labels would take megabytes
    _lines_peak(tmp_path, 100)  # first-use allocations of the parsers
    short, long = _lines_peak(tmp_path, 2000), _lines_peak(tmp_path, 20000)
    assert long < short + 16 * 1024, (short, long)


def _labeled_stream(sample_paths, tmp_path, n):
    """``sample_paths`` with a tweets file and a labels file of ``n``
    one-asset tweets, three texts and labels in turn."""
    tweets = tmp_path / f"tweets-{n}.jsonl"
    labels = tmp_path / f"labels-{n}.tsv"
    texts = [("SAN", "$SAN sube con fuerza", "O"), ("BBVA", "$BBVA baja mucho hoy", "P"),
             ("TEF", "$TEF estable en la sesión", "N")]
    with open(tweets, "w", encoding="utf-8") as tf, open(labels, "w", encoding="utf-8") as lf:
        for i in range(n):
            ticker, text, label = texts[i % 3]
            tf.write(_tweet_line(f"t{i}", f"2019-08-01T10:{i * 60 // n:02d}:00", text))
            lf.write(f"t{i}\t0\t{ticker}\t{label}\n")
    return {**sample_paths, "tweets": str(tweets), "labels": str(labels)}


def _train_eval_peak(cfg, monkeypatch):
    """The tracemalloc peak, in bytes, of ``run_pipeline(cfg)`` from the
    end of the warmup training to the end of the run."""
    fit_warmup = cli._fit_warmup

    def fit_then_reset_peak(model, warm):
        fit_warmup(model, warm)
        tracemalloc.reset_peak()

    monkeypatch.setattr(cli, "_fit_warmup", fit_then_reset_peak)
    tracemalloc.start()
    try:
        run_pipeline(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.setattr(cli, "_fit_warmup", fit_warmup)


def test_train_eval_takes_memory_independent_of_stream_length(
    sample_paths, tmp_path, monkeypatch
):
    # 500 and 2000 instances, 8 to a block. A point of the accuracy series
    # kept for each of the 1500 more would add about 85 KiB. The first run
    # makes the first-use allocations and fills the interpreter's free
    # lists, which the shorter run would otherwise fill less and so count
    # as growth of the longer one
    monkeypatch.setattr(cli, "BLOCK", 8)
    short, long = (
        _config(_labeled_stream(sample_paths, tmp_path, n), tmp_path) for n in (500, 2000)
    )
    _train_eval_peak(long, monkeypatch)
    short_peak = _train_eval_peak(short, monkeypatch)
    long_peak = _train_eval_peak(long, monkeypatch)
    assert long_peak < short_peak + 32 * 1024, (short_peak, long_peak)


def _analyze_peak(paths, capsys):
    """The tracemalloc peak, in bytes, of ``finemo analyze`` on ``paths``."""
    argv = ["analyze", "--warmup", "10"]
    for key in ("lexicons", "tweets", "labels", "prices"):
        argv += [f"--{key}", paths[key]]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        capsys.readouterr()


def test_analyze_grows_by_its_dense_rows_only(sample_paths, tmp_path, capsys, monkeypatch):
    # each instance keeps the 24 floats of its dense block; at the end the
    # Pearson correlations briefly take about 5 more per instance (the
    # labels, their encoding and one column's work arrays)
    monkeypatch.setattr(cli, "BLOCK", 8)
    short, long = (_labeled_stream(sample_paths, tmp_path, n) for n in (300, 1200))
    _analyze_peak(long, capsys)
    short_peak, long_peak = _analyze_peak(short, capsys), _analyze_peak(long, capsys)
    assert long_peak < short_peak + (1200 - 300) * (24 + 8) * 8, (short_peak, long_peak)


@pytest.mark.parametrize(
    "overrides",
    [{}, {"learner": "sgd", "grid": True}, {"learner": "sgd", "percentile": 15}],
)
def test_no_warmup_vector_outlives_the_warmup(sample_paths, tmp_path, monkeypatch, overrides):
    warmup = []  # weak references to the vectors the run's learner trained on before predicting
    alive_at_first_prediction = []

    class Probe:
        def __init__(self, learner):
            self.learner = learner

        def partial_fit(self, fv, label):
            if not alive_at_first_prediction:
                warmup.append(weakref.ref(fv))
            self.learner.partial_fit(fv, label)

        def predict_label(self, fv):
            if not alive_at_first_prediction:
                gc.collect()
                alive_at_first_prediction.append(sum(ref() is not None for ref in warmup))
            return self.learner.predict_label(fv)

    real = cli.make_learner
    monkeypatch.setattr(cli, "make_learner", lambda *args: Probe(real(*args)))
    run_pipeline(_config(sample_paths, tmp_path, **overrides))
    assert len(warmup) == 10
    assert alive_at_first_prediction == [0]


@pytest.mark.parametrize(
    "row, message",
    [
        ("XX,2019-08-02,abc", "could not convert"),
        ("XX,2019-08-02", "expected ticker,date,close"),
        ("XX,2019-08-02,0", "must be positive"),
        ("XX,2019-08-01,9.5", "duplicate price"),
    ],
)
def test_price_rows_validated(tmp_path, row, message):
    bad = tmp_path / "prices.csv"
    bad.write_text(f"ticker,date,close\nXX,2019-08-01,10.0\n{row}\n")
    with pytest.raises(PriceError, match=f"prices.csv:3: .*{message}"):
        PriceSeries.from_csv(str(bad))


def test_agreement_unknown_label_names_file_and_line(tmp_path, capsys):
    ann = tmp_path / "ann.tsv"
    ann.write_text("P\tP\nN\tZ\n")
    assert main(["agreement", "--labels", str(ann)]) == 1
    assert "ann.tsv:2: unknown emotion label" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, lineno, message",
    [
        ("P\n", 1, "expected at least two annotators' labels"),
        ("P\tN\n# nota\nO\n", 3, "expected at least two annotators' labels"),
        ("P\tN\nO\tO\nN\tN\tP\n", 3, "3 labels, but the first row has 2"),
        ("P\tN\tO\n\nN\tN\n", 3, "2 labels, but the first row has 3"),
    ],
)
def test_agreement_refuses_short_and_ragged_rows(tmp_path, capsys, text, lineno, message):
    ann = tmp_path / "ann.tsv"
    ann.write_text(text)
    assert main(["agreement", "--labels", str(ann)]) == 1
    assert capsys.readouterr().err == f"error: {ann}:{lineno}: {message}\n"


@pytest.mark.parametrize("text", ["", "# annotator A\tannotator B\n\n"])
def test_agreement_refuses_a_file_without_items(tmp_path, capsys, text):
    ann = tmp_path / "ann.tsv"
    ann.write_text(text)
    assert main(["agreement", "--labels", str(ann)]) == 1
    assert capsys.readouterr().err == f"error: {ann}: no annotated items\n"


def test_agreement_refuses_undefined_alpha_naming_the_file(tmp_path, capsys):
    ann = tmp_path / "ann.tsv"
    ann.write_text("P\tP\nP\tP\n")
    assert main(["agreement", "--labels", str(ann)]) == 1
    assert capsys.readouterr().err == f"error: {ann}: alpha undefined: all mass on one category\n"


def test_read_labels_validated(sample_paths, tmp_path):
    # the dict and the pipeline's join read rows by the one row reader
    rows = list(read_label_rows(sample_paths["labels"]))
    assert rows  # sample corpus ships labels for every replica
    assert read_labels(sample_paths["labels"]) == {row.key: row.label for row in rows}
    bad = tmp_path / "bad.tsv"
    for read in (read_labels, lambda path: list(read_label_rows(path))):
        bad.write_text("# comment\nt0\t0\tBBVA\n")
        message = f"{bad}:2: expected 4 tab-separated fields"
        with pytest.raises(PipelineError, match=re.escape(message)):
            read(str(bad))
        bad.write_text("t0\t0\tBBVA\tZ\n")
        with pytest.raises(PipelineError, match="bad.tsv:1"):
            read(str(bad))
        # -1 would match no replica, 1_0 would read as 10 and " 1" as 1
        for index in ("-1", "1_0", " 1", "1 ", "+1", "", "\u0661", "\u00b2"):
            bad.write_text(f"t0\t0\tBBVA\tP\nt0\t{index}\tBBVA\tP\n", encoding="utf-8")
            message = f"{bad}:2: segment_index must be ASCII digits, got {index!r}"
            with pytest.raises(PipelineError, match=f"^{re.escape(message)}$"):
                read(str(bad))


def test_read_labels_refuses_a_duplicate_key(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text(
        "t0\t0\tBBVA\tP\n# comment\nt0\t1\tBBVA\tN\nt1\t0\tBBVA\tN\nt0\t01\tBBVA\tO\n"
    )
    message = (
        re.escape(f"{path}:5: duplicate label for tweet t0, segment 01, focus BBVA")
        + r".*\bline 3\b"
    )
    # the dict refuses a second row for a key anywhere in the file; the join
    # refuses line 5 too, as out of tweet order (test_join_refuses_...)
    with pytest.raises(PipelineError, match=message):
        read_labels(str(path))
    path.write_text("t0\t0\tBBVA\tP\nt0\t0\tSAN\tP\nt0\t1\tBBVA\tP\n")
    assert len(read_labels(str(path))) == 3
    assert [row.lineno for row in read_label_rows(str(path))] == [1, 2, 3]


def test_read_labels_skips_blank_and_indented_comment_lines(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text("t0\t0\tBBVA\tP\n   \n\t\n  # note\nt1\t0\tSAN\tN\n")
    assert list(read_labels(str(path)).values()) == [EmotionLabel.PRECAUTION, EmotionLabel.NEUTRAL]
    assert [(row.lineno, row.label) for row in read_label_rows(str(path))] == [
        (1, EmotionLabel.PRECAUTION), (5, EmotionLabel.NEUTRAL)
    ]


@pytest.mark.parametrize(
    "file, row, message",
    [
        ("polarity.tsv", "\tneg", "empty word"),
        ("dictionary.tsv", "sigue\tir", "duplicate word 'sigue' (first on line 2)"),
        ("tickers.tsv", "SAN2\t\tbanco", "empty field"),
        ("labels.tsv", "t9\t0\tBBVA", "expected 4 tab-separated fields"),
    ],
)
def test_bad_input_rows_are_named_by_path_and_line(
    sample_paths, tmp_path, capsys, file, row, message
):
    lexicons = tmp_path / "lexicons"
    shutil.copytree(sample_paths["lexicons"], lexicons)
    labels = tmp_path / "labels.tsv"
    shutil.copyfile(sample_paths["labels"], labels)
    path = labels if file == "labels.tsv" else lexicons / file
    with open(path, encoding="utf-8") as fh:
        lineno = sum(1 for _ in fh) + 1
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(row + "\n")
    rc = main(["train-eval", "--lexicons", str(lexicons), "--tweets", sample_paths["tweets"],
               "--labels", str(labels), "--warmup", "10", "--learner", "nb",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    # labels are read as the stream goes, after the no-prices warning
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"error: {path}:{lineno}: {message}")


def _input_copies(sample_paths, tmp_path):
    """Copies of the bundled lexicons, tweets, labels and prices, and a
    two-annotator annotations file, by input kind."""
    lexicons = tmp_path / "lexicons"
    shutil.copytree(sample_paths["lexicons"], lexicons)
    paths = {"lexicons": lexicons}
    for kind in ("tweets", "labels", "prices"):
        paths[kind] = tmp_path / os.path.basename(sample_paths[kind])
        shutil.copyfile(sample_paths[kind], paths[kind])
    paths["annotations"] = tmp_path / "annotations.tsv"
    paths["annotations"].write_text("P\tP\nN\tO\nO\tO\n")
    return paths


def _argv(paths, command, out):
    if command == "agreement":
        return ["agreement", "--labels", str(paths["annotations"])]
    return ["train-eval", "--lexicons", str(paths["lexicons"]), "--tweets", str(paths["tweets"]),
            "--labels", str(paths["labels"]), "--prices", str(paths["prices"]),
            "--warmup", "10", "--learner", "nb", "--single", "--out", str(out)]


@pytest.mark.parametrize(
    "kind, line",
    [
        ("lexicons", b"caf\xe9\tpos"),
        ("labels", b"t000\t9\tSAN\t\xe9"),
        ("annotations", b"P\t\xe9"),
        ("tweets", b'{"id": "t999", "created_at": "2019-08-05T09:15:00", "text": "caf\xe9"}'),
        ("prices", b"SAN,2019-08-05,1\xe9"),
    ],
)
def test_non_utf8_input_is_refused_by_path_and_line(sample_paths, tmp_path, capsys, kind, line):
    paths = _input_copies(sample_paths, tmp_path)
    path = paths["lexicons"] / "polarity.tsv" if kind == "lexicons" else paths[kind]
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\n" + line + b"\n" + rest)
    command = "agreement" if kind == "annotations" else "train-eval"
    assert main(_argv(paths, command, tmp_path / "out")) == 1
    column = line.index(b"\xe9") + 1
    assert capsys.readouterr().err.endswith(
        f"error: {path}:2: not UTF-8: byte 0xe9 at character {column}\n"
    )


@pytest.mark.parametrize(
    "record, message",
    [
        ('{"id": "t999", "created_at": "2019-08-05T09:15:00", "text": "mercad\\udc80"}',
         "text has the lone surrogate U+DC80 at character 7"),
        ('{"id": "t\\ud83d", "created_at": "2019-08-05T09:15:00", "text": "hola"}',
         "id has the lone surrogate U+D83D at character 2"),
    ],
    ids=["text", "id"],
)
def test_lone_surrogate_escape_is_refused_by_path_and_line(sample_paths, tmp_path, capsys,
                                                           record, message):
    # the line is UTF-8, but json.loads makes a lone surrogate of the escape,
    # which indicators.jsonl could not encode
    paths = _input_copies(sample_paths, tmp_path)
    path = paths["tweets"]
    first, rest = path.read_bytes().split(b"\n", 1)
    path.write_bytes(first + b"\n" + record.encode() + b"\n" + rest)
    assert main(_argv(paths, "train-eval", tmp_path / "out")) == 1
    assert capsys.readouterr().err.endswith(f"error: {path}:2: not UTF-8: {message}\n")
    # an escaped surrogate pair is one astral character
    path.write_bytes(first + b"\n" + record.replace("\\udc80", "\\ud83d\\ude00")
                     .replace("t\\ud83d", "t\\ud83d\\ude00").encode() + b"\n" + rest)
    tweets = list(read_tweets(str(path)))
    assert "\U0001f600" in tweets[1].id + tweets[1].text


_READERS = {
    "lexicons": load_lexicons,
    "labels": read_labels,
    "tweets": lambda path: list(read_tweets(path)),
    "prices": lambda path: PriceSeries.from_csv(path).closes,
}


@pytest.mark.parametrize("kind", ["lexicons", "labels", "annotations", "tweets", "prices"])
def test_utf8_byte_order_mark_is_dropped(sample_paths, tmp_path, capsys, kind):
    # each input kind reads the same with a leading BOM as without it
    results = []
    for bom in (b"", b"\xef\xbb\xbf"):
        paths = _input_copies(sample_paths, tmp_path / f"bom-{len(bom)}")
        files = list(paths["lexicons"].iterdir()) if kind == "lexicons" else [paths[kind]]
        for path in files:
            path.write_bytes(bom + path.read_bytes())
        if kind == "annotations":
            assert main(_argv(paths, "agreement", None)) == 0
            results.append(capsys.readouterr().out)
        else:
            results.append(_READERS[kind](str(paths[kind])))
    assert results[0] == results[1]


@pytest.mark.parametrize("command", ["train-eval", "agreement"])
def test_crlf_inputs_read_as_lf(sample_paths, tmp_path, capsys, command):
    # every input file with CRLF line ends gives the same output
    outputs = []
    for ends in ("lf", "crlf"):
        paths = _input_copies(sample_paths, tmp_path / ends)
        if ends == "crlf":
            files = [*paths["lexicons"].iterdir(), *(paths[k] for k in paths if k != "lexicons")]
            for path in files:
                path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        out = tmp_path / ends / "out"
        assert main(_argv(paths, command, out)) == 0
        artifacts = sorted(out.iterdir()) if command == "train-eval" else []
        outputs.append((capsys.readouterr().out, [(a.name, a.read_bytes()) for a in artifacts]))
    assert outputs[0] == outputs[1]


def test_build_instances_covers_all_replicas(sample_paths):
    # one pass joins every label row of the sample with the replica it names
    lx = load_lexicons(sample_paths["lexicons"])
    labels = read_labels(sample_paths["labels"])
    instances = build_instances(read_tweets(sample_paths["tweets"]), lx, sample_paths["labels"])
    assert {(i.tweet.id, i.segment_index, i.focus): i.label for i in instances} == labels


def test_config_from_args_sets_only_the_flags_given():
    parser = build_parser()
    assert config_from_args(parser.parse_args(["run"])) == PipelineConfig()
    cfg = config_from_args(parser.parse_args(["run", "--warmup", "7", "--learner", "sgd"]))
    assert cfg == PipelineConfig(warmup=7, learner="sgd")


def test_every_flag_sets_a_config_field():
    # config_from_args copies only PipelineConfig fields, so a flag whose
    # destination is not a field would be parsed and then dropped
    dests = {a.dest for a in build_parser()._actions} - {"help", "command"}
    assert dests <= {f.name for f in fields(PipelineConfig)}


@pytest.mark.parametrize("flag", ["--save-model", "--config"])
def test_save_model_flag_is_gone(sample_paths, tmp_path, capsys, flag):
    argv = ["train-eval", "--tweets", sample_paths["tweets"], "--out", str(tmp_path),
            flag, str(tmp_path / "m.bin")]
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "m.bin").exists()


def test_main_exit_codes(sample_paths, tmp_path, capsys):
    rc = main([
        "train-eval",
        "--lexicons", sample_paths["lexicons"],
        "--tweets", sample_paths["tweets"],
        "--labels", sample_paths["labels"],
        "--prices", sample_paths["prices"],
        "--warmup", "10",
        "--learner", "nb",
        "--single",
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 0
    assert '"accuracy"' in capsys.readouterr().out
    rc = main(["run", "--tweets", str(tmp_path / "missing.jsonl"),
               "--lexicons", sample_paths["lexicons"]])
    assert rc == 1


def test_the_parser_offers_the_command_table():
    (command,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert command.choices == list(cli.COMMANDS) == [
        "segment", "process", "features", "analyze", "train-eval", "run", "agreement",
    ]


def test_run_with_labels_writes_what_train_eval_writes(sample_paths, tmp_path, capsys):
    outputs = []
    for command in ("train-eval", "run"):
        out = tmp_path / command
        argv = [command, "--warmup", "10", "--learner", "nb", "--single", "--out", str(out)]
        for key in ("lexicons", "tweets", "labels", "prices"):
            argv += [f"--{key}", sample_paths[key]]
        assert main(argv) == 0
        artifacts = sorted(out.iterdir())
        outputs.append((capsys.readouterr().out, [(a.name, a.read_bytes()) for a in artifacts]))
    assert len(outputs[0][1]) == 5
    assert outputs[0] == outputs[1]


def test_analyze_ranks_tied_chi2_scores_by_column(sample_paths, tmp_path, capsys):
    # on the sample, 13 columns tie at the cutoff of the top 20
    argv = ["analyze", "--warmup", "10"]
    for key in ("lexicons", "tweets", "labels", "prices"):
        argv += [f"--{key}", sample_paths[key]]
    assert main(argv) == 0
    top = json.loads(capsys.readouterr().out)["chi2_top"]
    cfg = _config(sample_paths, tmp_path)
    vectorizer, pairs = cli.feature_stream(cfg)
    score = chi2_scores(
        ((CLASS_ORDER.index(inst.label), *fv.arrays) for inst, fv in pairs),
        vectorizer.vm.total_dim,
    ).tolist()
    want = sorted(range(len(score)), key=lambda j: (-score[j], j))[:20]
    assert [entry["column"] for entry in top] == want
    assert [entry["score"] for entry in top] == [score[j] for j in want]
    assert len({score[j] for j in want}) < 20


def test_main_agreement_subcommand(tmp_path, capsys):
    ann = tmp_path / "ann.tsv"
    ann.write_text("P\tP\nN\tN\nO\tO\nP\tN\n")
    rc = main(["agreement", "--labels", str(ann)])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert "alpha" in data and "pairwise_accuracy" in data


def test_main_segment_subcommand(sample_paths, capsys):
    rc = main(["segment", "--tweets", sample_paths["tweets"],
               "--lexicons", sample_paths["lexicons"]])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    first = json.loads(lines[0])
    assert {"tweet_id", "segment_index", "text", "assets"} <= set(first)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"warmup": 0}, "--warmup must be at least 1"),
        ({"warmup": -3}, "--warmup must be at least 1"),
        ({"sample_every": 0}, "--sample-every must be at least 1"),
        ({"percentile": 101}, "--percentile must be in 1..100"),
        ({"percentile": -5}, "--percentile must be in 1..100"),
        ({"percentile": 15, "labels": None}, "--percentile needs labels"),
        # the sample has 31 labeled replicas, so nothing is left to evaluate
        ({"warmup": 31}, "nothing to evaluate"),
        ({"seed": -1}, "--seed must be non-negative, got -1"),
        ({"grid": True}, "--grid tunes the rf and sgd learners, not --learner nb"),
    ],
)
def test_invalid_run_parameters_refused(sample_paths, tmp_path, overrides, message):
    cfg = _config(sample_paths, tmp_path, **overrides)
    with pytest.raises(PipelineError, match=message):
        run_pipeline(cfg)


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"labels": None}, "a model must be trained with --labels"),
        ({"warmup": 0}, "--warmup must be at least 1"),
        ({"sample_every": 0}, "--sample-every must be at least 1"),
        ({"learner": "nb", "grid": True}, "--grid tunes the rf and sgd learners, not --learner nb"),
        ({"percentile": 101}, "--percentile must be in 1..100"),
        ({"percentile": 15, "labels": None}, "--percentile needs labels"),
        # precedence: the parameter checks come before the labels check
        ({"warmup": 0, "labels": None}, "--warmup must be at least 1"),
        ({"sample_every": 0, "warmup": 0}, "--sample-every must be at least 1"),
        ({"seed": -1}, "--seed must be non-negative"),
        ({"learner": "dt", "grid": True}, "--grid tunes the rf and sgd learners, not --learner dt"),
        # a PipelineConfig built in code can name a learner that --learner's
        # choices would refuse
        ({"learner": "foo"}, "unknown learner: foo"),
        ({"learner": "foo", "grid": True, "warmup": 0}, "unknown learner: foo"),
    ],
)
def test_bad_runs_are_refused_before_any_file_is_read(sample_paths, tmp_path, overrides, message):
    missing = str(tmp_path / "missing")
    cfg = _config(sample_paths, tmp_path, tweets=missing + ".jsonl", lexicons=missing, **overrides)
    with pytest.raises(PipelineError, match=message):
        run_pipeline(cfg)
    assert not os.path.exists(cfg.out)


@pytest.mark.parametrize("command", ["segment", "process", "features", "analyze", "train-eval"])
def test_missing_tweets_is_refused_before_anything_is_loaded(
    sample_paths, tmp_path, capsys, monkeypatch, command
):
    def no_load(path):
        raise AssertionError("lexicons loaded before the tweets check")

    monkeypatch.setattr(cli, "load_lexicons", no_load)
    out = tmp_path / "out"
    rc = main([command, "--lexicons", sample_paths["lexicons"], "--labels", sample_paths["labels"],
               "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == "error: a tweets file is required\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["features", "analyze", "train-eval"])
def test_the_stream_checks_run_once(sample_paths, tmp_path, capsys, monkeypatch, command):
    calls = []
    check = cli._check_stream
    monkeypatch.setattr(cli, "_check_stream", lambda cfg: calls.append(check(cfg)))
    argv = [command, "--warmup", "10", "--out", str(tmp_path / "out")]
    for key in ("lexicons", "tweets", "labels", "prices"):
        argv += [f"--{key}", sample_paths[key]]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == [None]


def _one_class_labels(sample_paths, tmp_path):
    """Every sample replica labeled N, with chi-squared selection on."""
    path = tmp_path / "labels.tsv"
    with open(sample_paths["labels"], encoding="utf-8") as fh:
        path.write_text("".join(row.rsplit("\t", 1)[0] + "\tN\n" for row in fh if row.strip()))
    return ["--labels", str(path), "--percentile", "15"]


def _empty_lexicons(sample_paths, tmp_path):
    return ["--lexicons", str(tmp_path)]


@pytest.mark.parametrize(
    "extra, message",
    [
        (_empty_lexicons, "tickers lexicon not found"),
        (_one_class_labels, "chi2 requires at least two classes"),
    ],
)
def test_main_reports_package_errors(sample_paths, tmp_path, capsys, extra, message):
    rc = main([
        "train-eval",
        "--lexicons", sample_paths["lexicons"],
        "--tweets", sample_paths["tweets"],
        "--labels", sample_paths["labels"],
        "--prices", sample_paths["prices"],
        "--warmup", "10",
        "--out", str(tmp_path / "out"),
        *extra(sample_paths, tmp_path),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
