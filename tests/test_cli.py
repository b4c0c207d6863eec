import json
import os
import re

import pytest

from finemo.cli import (
    PipelineConfig,
    PipelineError,
    build_instances,
    config_from_args,
    build_parser,
    main,
    read_labels,
    read_tweets,
    run_pipeline,
)
from finemo.features import PriceError, PriceSeries
from finemo.lexicons import load_lexicons
from finemo.streamml import load_model


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
    cfg = _config(sample_paths, tmp_path, learner="rf", grid="rf")
    run_pipeline(cfg)
    assert "grid search:" in capsys.readouterr().out


def test_save_and_reload_model(sample_paths, tmp_path):
    path = str(tmp_path / "model.bin")
    cfg = _config(sample_paths, tmp_path, save_model=path)
    run_pipeline(cfg)
    model = load_model(path)
    assert hasattr(model, "predict_label")


def test_read_tweets_sorted_and_validated(sample_paths, tmp_path):
    tweets = read_tweets(sample_paths["tweets"])
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
    ]:
        bad.write_text(good + record + "\n")
        with pytest.raises(PipelineError, match=f"bad.jsonl:2: .*{message}"):
            read_tweets(str(bad))


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


def test_read_labels_validated(sample_paths, tmp_path):
    labels = read_labels(sample_paths["labels"])
    assert labels  # sample corpus ships labels for every replica
    bad = tmp_path / "bad.tsv"
    bad.write_text("t0\t0\tBBVA\n")
    with pytest.raises(PipelineError, match="expected 4 tab-separated fields"):
        read_labels(str(bad))
    bad.write_text("t0\t0\tBBVA\tZ\n")
    with pytest.raises(PipelineError, match="bad.tsv:1"):
        read_labels(str(bad))


def test_read_labels_refuses_a_duplicate_key(tmp_path):
    path = tmp_path / "labels.tsv"
    path.write_text(
        "t0\t0\tBBVA\tP\n# comment\nt0\t1\tBBVA\tN\nt1\t0\tBBVA\tN\nt0\t01\tBBVA\tO\n"
    )
    message = (
        re.escape(f"{path}:5: duplicate label for tweet t0, segment 01, focus BBVA")
        + r".*\bline 3\b"
    )
    with pytest.raises(PipelineError, match=message):
        read_labels(str(path))
    path.write_text("t0\t0\tBBVA\tP\nt0\t0\tSAN\tP\nt0\t1\tBBVA\tP\n")
    assert len(read_labels(str(path))) == 3


def test_build_instances_covers_all_replicas(sample_paths):
    lx = load_lexicons(sample_paths["lexicons"])
    tweets = read_tweets(sample_paths["tweets"])
    labels = read_labels(sample_paths["labels"])
    instances = build_instances(tweets, lx, labels)
    labeled = [i for i in instances if i.label is not None]
    assert len(labeled) == len(labels)


def test_yaml_config_and_flag_override(sample_paths, tmp_path):
    config_file = tmp_path / "run.yaml"
    config_file.write_text(
        "learner: sgd\nwarmup: 5\nmax_df: 1\nlabels: null\nlexicons: {0}\n".format(
            sample_paths["lexicons"]
        )
    )
    parser = build_parser()
    args = parser.parse_args(["run", "--config", str(config_file), "--warmup", "7"])
    cfg = config_from_args(args)
    assert cfg.learner == "sgd"  # from the file
    assert cfg.warmup == 7  # flag wins
    assert cfg.lexicons == sample_paths["lexicons"]
    assert cfg.max_df == 1 and cfg.labels is None  # an int fills a float field


def test_yaml_config_rejects_unknown_keys(tmp_path):
    config_file = tmp_path / "run.yaml"
    config_file.write_text("learner: nb\nbogus_key: 1\n")
    with pytest.raises(PipelineError, match="run.yaml: unknown config keys"):
        PipelineConfig.from_yaml(str(config_file))


@pytest.mark.parametrize(
    "text, message",
    [
        ("learner: nb\nwarmup: [1\n", "bad YAML"),
        ("- learner\n- nb\n", "expected a mapping"),
        ("42\n", "expected a mapping"),
        ("warmup: abc\n", "warmup: expected int, got 'abc'"),
        ("warmup: true\n", "warmup: expected int, got True"),
        ("max_df: high\n", "max_df: expected float, got 'high'"),
        ("stacked: 1\n", "stacked: expected bool, got 1"),
        ("tweets: [a.jsonl]\n", "tweets: expected str | None, got \\['a.jsonl'\\]"),
        (None, "No such file"),
    ],
)
def test_bad_config_refused_without_traceback(tmp_path, capsys, text, message):
    config_file = tmp_path / "run.yaml"
    if text is not None:
        config_file.write_text(text)
    assert main(["train-eval", "--config", str(config_file)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(config_file) in err
    assert re.search(message, err), err


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
        ({"grid": "svm"}, "unknown grid: svm"),
        ({"percentile": 101}, "--percentile must be in 1..100"),
        ({"percentile": 15, "labels": None}, "--percentile needs labels"),
        # precedence: the parameter checks come before the labels check
        ({"warmup": 0, "labels": None}, "--warmup must be at least 1"),
        ({"sample_every": 0, "warmup": 0}, "--sample-every must be at least 1"),
    ],
)
def test_bad_runs_are_refused_before_any_file_is_read(sample_paths, tmp_path, overrides, message):
    missing = str(tmp_path / "missing")
    cfg = _config(sample_paths, tmp_path, tweets=missing + ".jsonl", lexicons=missing, **overrides)
    with pytest.raises(PipelineError, match=message):
        run_pipeline(cfg)
    assert not os.path.exists(cfg.out)


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
