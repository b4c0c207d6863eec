"""Checks on the artifacts of one ``train-eval`` run, and the quality metrics
read from them."""

from __future__ import annotations

import hashlib
import json
import os

DETERMINISTIC_FILES = ("confusion.csv", "accuracy_series.csv")


def read_confusion(path: str) -> tuple[list[str], list[list[int]]]:
    """Class names and the matrix (rows gold, columns predicted) of a
    ``confusion.csv``."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh if line.strip()]
    labels = rows[0][1:]
    matrix = [[int(v) for v in row[1:]] for row in rows[1:]]
    if [row[0] for row in rows[1:]] != labels or any(len(r) != len(labels) for r in matrix):
        raise ValueError(f"{path}: not a square confusion matrix")
    return labels, matrix


def macro_f1(matrix: list[list[int]]) -> float:
    """Unweighted mean of per-class F1; a class with no gold and no predicted
    instance scores 0."""
    k = len(matrix)
    scores = []
    for c in range(k):
        tp = matrix[c][c]
        gold = sum(matrix[c])
        predicted = sum(matrix[r][c] for r in range(k))
        scores.append(2.0 * tp / (gold + predicted) if gold + predicted else 0.0)
    return sum(scores) / k


def digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in DETERMINISTIC_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_run(out_dir: str, expected_n: int) -> tuple[list[str], dict]:
    """Check one run's artifacts; returns (problems, summary).

    ``expected_n`` is the number of instances after the warmup window.
    """
    problems: list[str] = []
    try:
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        labels, matrix = read_confusion(os.path.join(out_dir, "confusion.csv"))
        with open(os.path.join(out_dir, "accuracy_series.csv"), encoding="utf-8") as fh:
            series = [line.strip().split(",") for line in fh if line.strip()][1:]
        summary = {"digest": digest(out_dir)}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable artifacts: {exc}"], {}

    n = report.get("n")
    total = sum(map(sum, matrix))
    trace = sum(matrix[c][c] for c in range(len(matrix)))
    if n != expected_n:
        problems.append(f"report n={n}, expected {expected_n} post-warmup instances")
    if labels != report.get("labels") or matrix != report.get("confusion"):
        problems.append("confusion.csv differs from report.json")
    if total != n:
        problems.append(f"confusion sums to {total}, report n={n}")
    accuracy = trace / total if total else 0.0
    if abs(accuracy - report.get("accuracy", -1.0)) > 1e-12:
        problems.append(f"accuracy {report.get('accuracy')} does not recompute ({accuracy})")
    if not series or int(series[-1][0]) != n or abs(float(series[-1][1]) - accuracy) > 1e-9:
        problems.append("accuracy_series.csv does not end at the final accuracy")
    # the generated prices cover every posting day
    if report.get("default_trend_count") != 0:
        problems.append(f"default_trend_count={report.get('default_trend_count')}, expected 0")
    summary.update(
        n=n,
        accuracy=accuracy,
        macro_f1=macro_f1(matrix),
        default_trend_count=report.get("default_trend_count"),
    )
    return problems, summary
