"""Byte-level goldens of the command line on the bundled sample.

Each case runs ``finemo.cli.main`` in-process and hashes its stdout and every
file it writes to ``--out``. The digests are SHA-256 prefixes, all but
``sgd-stacked-grid-percentile``'s recorded before the tweets -> instances ->
vectors path was made a single stream; any change in a digest means the
program's output changed. To see the digests of the current code, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import hashlib
import io
import os
import tempfile

import pytest

from finemo.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
LEXICONS = ["--lexicons", os.path.join(ROOT, "data", "lexicons")]
TWEETS = ["--tweets", os.path.join(ROOT, "data", "sample", "tweets.jsonl")]
LABELS = ["--labels", os.path.join(ROOT, "data", "sample", "labels.tsv")]
PRICES = ["--prices", os.path.join(ROOT, "data", "sample", "prices.csv")]
RUN = ["train-eval", *LEXICONS, *TWEETS, *LABELS, *PRICES, "--warmup", "10"]

CASES = {
    **{
        f"{learner}-{mode}": [*RUN, "--learner", learner, f"--{mode}"]
        for learner in ("nb", "dt", "rf", "sgd")
        for mode in ("single", "stacked")
    },
    "sgd-stacked-percentile": [*RUN, "--learner", "sgd", "--stacked", "--percentile", "15"],
    # the search picks a point that writes the files of the run above
    "sgd-stacked-grid-percentile": [
        *RUN, "--learner", "sgd", "--stacked", "--grid", "--percentile", "15",
    ],
    "sgd-grid": [*RUN, "--learner", "sgd", "--single", "--grid"],
    "nb-sample-every-all": [*RUN, "--learner", "nb", "--single", "--sample-every", "3", "--all"],
    "nb-no-prices": [
        "train-eval", *LEXICONS, *TWEETS, *LABELS, "--warmup", "10", "--learner", "nb", "--single",
    ],
    "segment": ["segment", *LEXICONS, *TWEETS],
    "process": ["process", *LEXICONS, *TWEETS],
    "features": ["features", *LEXICONS, *TWEETS, *LABELS, *PRICES, "--warmup", "10"],
    "features-percentile": [
        "features", *LEXICONS, *TWEETS, *LABELS, *PRICES, "--warmup", "10", "--percentile", "15",
    ],
    "analyze": ["analyze", *LEXICONS, *TWEETS, *LABELS, *PRICES, "--warmup", "10"],
}

GOLDEN = {
    'analyze': {'stdout': '1c9299ac6d6370c9'},
    'dt-single': {'stdout': '751ecbe873c35250', 'accuracy_series.csv': 'ac2ad2e5c35c042f', 'confusion.csv': 'c35c795698721f90', 'indicators.jsonl': 'e3b0c44298fc1c14', 'report.json': 'efa7b2b75fe75f20', 'vocabulary.json': 'f3a97977731d0203'},
    'dt-stacked': {'stdout': '751ecbe873c35250', 'accuracy_series.csv': 'ac2ad2e5c35c042f', 'confusion.csv': 'c35c795698721f90', 'indicators.jsonl': 'e3b0c44298fc1c14', 'report.json': 'efa7b2b75fe75f20', 'vocabulary.json': 'f3a97977731d0203'},
    'features': {'stdout': '774554cdc94f30c7', 'vocabulary.json': 'f3a97977731d0203'},
    'features-percentile': {'stdout': 'ba548ca5843ec1e0', 'vocabulary.json': '4e8c7b42dd8c0235'},
    'nb-no-prices': {'stdout': '28c23d74df57ee08', 'accuracy_series.csv': 'f63ddc1fbcc2b175', 'confusion.csv': 'a91c411fc0afdd5b', 'indicators.jsonl': '565bdefef09757da', 'report.json': '399dde645978ae95', 'vocabulary.json': 'f3a97977731d0203'},
    'nb-sample-every-all': {'stdout': 'f1f7e2bfd0bb73e2', 'accuracy_series.csv': '69900074be380bdf', 'confusion.csv': 'a91c411fc0afdd5b', 'indicators.jsonl': 'dbcc1682be8ad236', 'report.json': '286b5e7fb13d15ef', 'vocabulary.json': 'f3a97977731d0203'},
    'nb-single': {'stdout': 'f1f7e2bfd0bb73e2', 'accuracy_series.csv': 'f63ddc1fbcc2b175', 'confusion.csv': 'a91c411fc0afdd5b', 'indicators.jsonl': '565bdefef09757da', 'report.json': '286b5e7fb13d15ef', 'vocabulary.json': 'f3a97977731d0203'},
    'nb-stacked': {'stdout': 'f1f7e2bfd0bb73e2', 'accuracy_series.csv': 'f63ddc1fbcc2b175', 'confusion.csv': 'a91c411fc0afdd5b', 'indicators.jsonl': '565bdefef09757da', 'report.json': '286b5e7fb13d15ef', 'vocabulary.json': 'f3a97977731d0203'},
    'process': {'stdout': 'dfc0b8baccb05440'},
    'rf-single': {'stdout': '751ecbe873c35250', 'accuracy_series.csv': 'ac2ad2e5c35c042f', 'confusion.csv': 'c35c795698721f90', 'indicators.jsonl': 'e3b0c44298fc1c14', 'report.json': 'efa7b2b75fe75f20', 'vocabulary.json': 'f3a97977731d0203'},
    'rf-stacked': {'stdout': '751ecbe873c35250', 'accuracy_series.csv': 'ac2ad2e5c35c042f', 'confusion.csv': 'c35c795698721f90', 'indicators.jsonl': 'e3b0c44298fc1c14', 'report.json': 'efa7b2b75fe75f20', 'vocabulary.json': 'f3a97977731d0203'},
    'segment': {'stdout': '01bb5c1f07221192'},
    'sgd-grid': {'stdout': '76f0612b2fc77555', 'accuracy_series.csv': 'a6373cbe37a4e181', 'confusion.csv': '0f9337dbb7babcfe', 'indicators.jsonl': 'afc45294298020a2', 'report.json': '11916bd5d73967b8', 'vocabulary.json': 'f3a97977731d0203'},
    'sgd-single': {'stdout': '9235c1735751fc64', 'accuracy_series.csv': 'a6373cbe37a4e181', 'confusion.csv': '0f9337dbb7babcfe', 'indicators.jsonl': 'afc45294298020a2', 'report.json': '11916bd5d73967b8', 'vocabulary.json': 'f3a97977731d0203'},
    'sgd-stacked': {'stdout': 'f366df22471b2015', 'accuracy_series.csv': 'd3f55a3ccdec2735', 'confusion.csv': '142ac2ddfba7b81f', 'indicators.jsonl': '39acf10bf82fd153', 'report.json': 'b1f76d9d46b10cbe', 'vocabulary.json': 'f3a97977731d0203'},
    'sgd-stacked-grid-percentile': {'stdout': '04b7c79dffc8223b', 'accuracy_series.csv': '8dc57cdc9895d8c7', 'confusion.csv': 'c8e6fa22e7320689', 'indicators.jsonl': 'd12f16fabe1bae03', 'report.json': '11a9869e410550d5', 'vocabulary.json': '4e8c7b42dd8c0235'},
    'sgd-stacked-percentile': {'stdout': '1417f920017fd3b7', 'accuracy_series.csv': '8dc57cdc9895d8c7', 'confusion.csv': 'c8e6fa22e7320689', 'indicators.jsonl': 'd12f16fabe1bae03', 'report.json': '11a9869e410550d5', 'vocabulary.json': '4e8c7b42dd8c0235'},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def digests(argv: list[str], out_dir: str) -> dict[str, str]:
    """Run one command line; digest its stdout and every file in out_dir."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main([*argv, "--out", out_dir])
    assert rc == 0
    out = {"stdout": _sha(stdout.getvalue().encode("utf-8"))}
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = _sha(fh.read())
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    got = digests(CASES[case], str(tmp_path / "out"))
    assert got == GOLDEN[case]


def test_inference_only_run_refused(tmp_path, capsys):
    # the untrained learner this command line used to predict with labeled
    # every segment PRECAUTION
    argv = ["run", *LEXICONS, *TWEETS, *PRICES, "--warmup", "10", "--learner", "nb", "--single", "--all"]
    out_dir = tmp_path / "out"
    assert main([*argv, "--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: a model must be trained with --labels" in captured.err
    assert not out_dir.exists()


if __name__ == "__main__":
    for name in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()):
            print(f"    {name!r}: {digests(CASES[name], os.path.join(tmp, 'out'))!r},")
