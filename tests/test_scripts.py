"""Smoke tests: the experiment scripts run end to end as subprocesses."""

import os
import subprocess
import sys

from tests.conftest import ROOT


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_run_synthetic_experiment_prints_full_table():
    result = _run_script("run_synthetic_experiment.py", "--n", "300", "--warmup", "100")
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()[2:]]
    learners = ("nb", "dt", "rf", "sgd")
    expected = {
        (name + suffix, bow)
        for bow in ("on", "off")
        for name in learners
        for suffix in ("", "+stack")
    }
    assert len(rows) == len(expected) == 16
    assert {(row[0], row[1]) for row in rows} == expected
    for row in rows:
        assert all(0.0 <= float(v) <= 1.0 for v in row[2:5])


def test_make_sample_data_reproduces_the_bundled_sample(tmp_path):
    # labels.tsv keys each label by (tweet, segment, focus), so this also pins
    # the segmentation of the sample tweets
    result = _run_script("make_sample_data.py", "--out", str(tmp_path))
    assert result.returncode == 0, result.stderr
    sample = os.path.join(ROOT, "data", "sample")
    names = sorted(os.listdir(sample))
    assert sorted(os.listdir(tmp_path)) == names
    for name in names:
        with open(os.path.join(sample, name), "rb") as want, open(tmp_path / name, "rb") as got:
            assert got.read() == want.read(), name
