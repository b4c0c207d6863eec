import json
import os
import time

import pytest
import run
from hostprobe import window_mean
from outputs import check_run, macro_f1

BENCHMARK_JSON = os.path.join(os.path.dirname(__file__), "..", "..", "BENCHMARK.json")


def test_macro_f1_by_hand():
    matrix = [[2, 1, 0], [0, 3, 0], [0, 1, 1]]
    # F1 per class: 4/5, 6/8, 2/3
    assert macro_f1(matrix) == pytest.approx((0.8 + 0.75 + 2 / 3) / 3)
    assert macro_f1([[0, 0, 0], [0, 5, 0], [0, 0, 0]]) == pytest.approx(1 / 3)


def _write_run(out, matrix, n=None, accuracy=None, defaults=0, series_acc=None):
    os.makedirs(out, exist_ok=True)
    names = ["PRECAUTION", "NEUTRAL", "OPPORTUNITY"]
    total = sum(map(sum, matrix))
    acc = sum(matrix[i][i] for i in range(3)) / total
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump({
            "n": total if n is None else n,
            "labels": names,
            "confusion": matrix,
            "accuracy": acc if accuracy is None else accuracy,
            "default_trend_count": defaults,
        }, fh)
    with open(os.path.join(out, "confusion.csv"), "w") as fh:
        fh.write("," + ",".join(names) + "\n")
        for name, row in zip(names, matrix):
            fh.write(name + "," + ",".join(map(str, row)) + "\n")
    with open(os.path.join(out, "accuracy_series.csv"), "w") as fh:
        fh.write(f"n,accuracy\n{total},{acc if series_acc is None else series_acc:.10f}\n")


def test_check_run_accepts_consistent_artifacts(tmp_path):
    _write_run(str(tmp_path), [[2, 1, 0], [0, 3, 0], [0, 1, 1]])
    problems, summary = check_run(str(tmp_path), expected_n=8)
    assert problems == []
    assert summary["accuracy"] == pytest.approx(6 / 8)


@pytest.mark.parametrize(
    "kwargs, expected_n",
    [
        ({}, 9),  # fewer post-warmup instances than generated
        ({"n": 9}, 8),  # matrix does not sum to n
        ({"accuracy": 0.5}, 8),  # accuracy does not recompute
        ({"defaults": 3}, 8),  # a price lookup fell back to the default trend
        ({"series_acc": 0.1}, 8),  # series does not end at the final accuracy
    ],
)
def test_check_run_flags_inconsistent_artifacts(tmp_path, kwargs, expected_n):
    _write_run(str(tmp_path), [[2, 1, 0], [0, 3, 0], [0, 1, 1]], **kwargs)
    problems, _ = check_run(str(tmp_path), expected_n=expected_n)
    assert problems


def test_benchmark_json_lists_the_printed_metrics():
    with open(BENCHMARK_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.SPECS)
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_host_probe_process_samples_until_terminated():
    probe = run.Probe(min(os.sched_getaffinity(0)))
    t0 = time.perf_counter()
    time.sleep(0.5)
    t1 = time.perf_counter()
    samples = probe.stop()
    assert probe.proc.returncode == 0
    assert len(samples) >= 5
    assert all(t0 - 1.0 < t < t1 + 1.0 and 0 < d < 0.05 for t, d in samples)
    assert window_mean(samples, t0, t1) > 0


def test_window_mean_takes_the_samples_inside_or_the_nearest():
    samples = [(float(t), float(t)) for t in range(10)]
    assert window_mean(samples, 2.0, 6.0) == pytest.approx(4.0)
    # too few inside: the MIN_SAMPLES nearest to the middle
    assert window_mean(samples, 4.9, 5.1) == pytest.approx(5.0)
    assert window_mean(samples, 20.0, 21.0) == pytest.approx(8.0)
