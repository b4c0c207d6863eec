"""Benchmark of the finemo prequential pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the workload for the seed under ``.perfbench-work/`` in the
checkout, then repeats ``finemo train-eval`` on it, each repetition in a fresh
single-threaded process (``perfbench/worker.py``), until ``--seconds`` are
spent. Before each untraced repetition, ``SETUPS_PER_REP`` fresh processes
time only the set-up. All of them run pinned to one CPU, where the host-speed
probe (``perfbench/hostprobe.py``) samples in a process of its own. Every repetition's artifacts
are checked. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print the same metrics, plus a few printed-only ones, by name and with
units.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1``
repetitions alternate between untraced and traced, and the metrics are the
per-layer ones computed from the traced repetitions' spans.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from hostprobe import MIN_SAMPLES, REFERENCE_S, window_mean  # noqa: E402
from outputs import check_run  # noqa: E402
from tracing import LAYERS, LEARNER_SPANS, aggregate, calls_from, check_spans, load_spans  # noqa: E402
from workloads import SPECS, generate  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".perfbench-work")
MIN_REPS = 3
SETUPS_PER_REP = 3
# no repetition starts that would end later than this many times --seconds,
# which bounds a run even where MIN_REPS would take longer
OVERRUN = 1.3

END_TO_END = (
    ("tweets_per_ref_s", "tweets/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("accuracy", "ratio"),
    ("macro_f1", "ratio"),
)

# printed with the end-to-end metrics but not listed in BENCHMARK.json: the
# raw times follow the host's drifting speed, which the probe measures
PRINTED_ONLY = (
    ("tweets_per_s", "tweets/s"),
    ("setup_raw_s", "s"),
    ("host_probe_s", "s"),
)

# spans reported with calls and self seconds, and with self seconds only
CALL_SPANS = (
    "segmenter.segment_tweet",
    "segmenter.replicate_per_asset",
    "textproc.process",
    "textproc.split_hashtags",
    "textproc.lemmatize_correct",
    "features.vectorize",
    "features.extract_numeric",
    "features.dense_view",
    *(f"streamml.{cls}.{meth}" for cls, meth in LEARNER_SPANS),
)
SELF_SPANS = (
    "lexicons.load_lexicons",
    "features.fit_vocabularies",
    "features.compute_trend",
    "selection.chi2",
    "selection.select_percentile",
    "evaluation.report",
    "cli.run_pipeline",
    "cli.read_tweets",
    "cli.build_instances",
    "cli.extract_features",
)
# per-layer metrics that are not one span's calls or self seconds
DERIVED = (
    ("trace.root_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("pipeline.instances", "count"),
    ("cli.load_lexicons.calls", "count"),
    ("segmenter.segments_per_tweet", "ratio"),
    ("segmenter.replicas_per_segment", "ratio"),
    ("textproc.oov_share", "ratio"),
    ("textproc.corrected_share", "ratio"),
    ("textproc.oov_repeat_share", "ratio"),
    ("textproc.split_share", "ratio"),
    ("features.vectorize.calls_per_instance", "ratio"),
    ("features.dense_view.calls_per_instance", "ratio"),
    ("features.default_trend_share", "ratio"),
    ("features.total_dim", "count"),
    ("features.mean_nnz", "count"),
    ("streamml.arf.drift_resets", "count"),
    ("selection.retained_share", "ratio"),
)

PER_LAYER = (
    *((f"layer.{layer}.self_s", "s") for layer in LAYERS),
    *((f"layer.{layer}.share", "ratio") for layer in LAYERS),
    *DERIVED,
    *(metric for span in CALL_SPANS for metric in ((f"{span}.calls", "count"), (f"{span}.self_s", "s"))),
    *((f"{span}.self_s", "s") for span in SELF_SPANS),
)


class Rep:
    """Outcome of one repetition and the set-up-only processes before it."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.duration_s = 0.0  # all its processes, for scheduling only
        self.setups: list[tuple[float, float]] = []  # (t0, t1) of each set-up
        self.result: dict | None = None
        self.summary: dict = {}
        self.trace: dict | None = None
        self.problems: list[str] = []


def _worker_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _pinned(cpu: int):
    return lambda: os.sched_setaffinity(0, {cpu})


def _run_worker(args: list[str], cpu: int, timeout: float) -> tuple[dict | None, str]:
    """Run worker.py; returns (its JSON result, or None, and a failure note)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=_worker_env(), timeout=timeout, cwd=ROOT,
            preexec_fn=_pinned(cpu),
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or result.get("rc", 0) != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return None, f"failed (exit {proc.returncode}): {tail[0]}"
    return result, ""


def run_rep(gen, work: str, index: int, traced: bool, setups: int, cpu: int, deadline: float) -> Rep:
    out_dir = os.path.join(work, f"out-{index}")
    spans = os.path.join(work, "spans.npz")
    argv = ["--", *gen.train_eval_argv(out_dir)]
    rep = Rep(traced)
    t0 = time.perf_counter()
    for _ in range(setups):
        result, note = _run_worker(["--setup-only", *argv], cpu, max(10.0, deadline - time.perf_counter()))
        if result is None:
            rep.problems.append(f"set-up before repetition {index} {note}")
            rep.duration_s = time.perf_counter() - t0
            return rep
        rep.setups.append((result["setup_t0"], result["setup_t1"]))
    result, note = _run_worker(
        [*(["--spans", spans] if traced else []), *argv], cpu, max(10.0, deadline - time.perf_counter())
    )
    rep.duration_s = time.perf_counter() - t0
    if result is None:
        rep.problems.append(f"repetition {index} {note}")
        return rep
    rep.result = result
    rep.setups.append((result["setup_t0"], result["setup_t1"]))
    rep.problems, rep.summary = check_run(out_dir, gen.n_instances - gen.spec.warmup)
    if traced:
        names, name, start, end, parent = load_spans(spans)
        rep.problems += check_spans(names, name, start, end, parent, _wall(result))
        rep.trace = aggregate(names, name, start, end, parent)
        rep.trace["cli.load_lexicons.calls"] = calls_from(
            names, name, parent, "lexicons.load_lexicons", "cli"
        )
    shutil.rmtree(out_dir, ignore_errors=True)
    return rep


def _wall(result: dict) -> float:
    return result["call_t1"] - result["call_t0"]


def end_to_end_metrics(gen, reps: list[Rep], probe: list) -> dict:
    """The listed end-to-end metrics, then the printed-only ones. Times are
    scaled by the host-speed probe of the same seconds into seconds of the
    reference host."""
    ok = [r.result for r in reps if r.result is not None]
    first = next(r.summary for r in reps if r.summary)
    setups = [t0t1 for r in reps for t0t1 in r.setups]
    calls = [(r["call_t0"], r["call_t1"]) for r in ok]
    return {
        "tweets_per_ref_s": statistics.median(
            gen.n_tweets / (t1 - t0) * window_mean(probe, t0, t1) / REFERENCE_S for t0, t1 in calls
        ),
        "setup_s": statistics.median(
            (t1 - t0) * REFERENCE_S / window_mean(probe, t0, t1) for t0, t1 in setups
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "accuracy": first["accuracy"],
        "macro_f1": first["macro_f1"],
        "tweets_per_s": statistics.median(gen.n_tweets / (t1 - t0) for t0, t1 in calls),
        "setup_raw_s": statistics.median(t1 - t0 for t0, t1 in setups),
        "host_probe_s": statistics.median(d for _, d in probe),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(gen, reps: list[Rep], probe: list) -> dict:
    traced = [r for r in reps if r.trace is not None]
    untraced = [r for r in reps if r.result is not None and not r.traced]
    first, result = traced[0].trace, traced[0].result

    def self_s(span: str) -> float:
        return statistics.median(r.trace["per_name"].get(span, (0, 0.0))[1] for r in traced)

    def calls(span: str) -> int:
        return first["per_name"].get(span, (0, 0.0))[0]

    def ref_wall(r: Rep) -> float:
        t0, t1 = r.result["call_t0"], r.result["call_t1"]
        return (t1 - t0) / window_mean(probe, t0, t1)

    counters = result.get("counters", {})
    instances = gen.n_instances
    final_pass = result.get("nnz", [])[-instances:]
    m: dict[str, float] = {
        "trace.root_s": statistics.median(r.trace["root_s"] for r in traced),
        # walls in probe units, so that host drift between the two kinds
        # cancels; the first repetition is always untraced
        "trace.overhead_share": statistics.median(map(ref_wall, traced))
        / statistics.median(map(ref_wall, untraced)) - 1.0,
        "trace.spans": first["spans"],
        "pipeline.instances": instances,
        "cli.load_lexicons.calls": first["cli.load_lexicons.calls"],
        "segmenter.segments_per_tweet": _ratio(counters.get("segments", 0), counters.get("tweets", 0)),
        "segmenter.replicas_per_segment": _ratio(counters.get("replicas", 0), counters.get("segments", 0)),
        "textproc.oov_share": _ratio(counters.get("oov", 0), counters.get("tokens", 0)),
        "textproc.corrected_share": _ratio(counters.get("corrected", 0), counters.get("oov", 0)),
        "textproc.oov_repeat_share": _ratio(counters.get("oov_repeat", 0), counters.get("oov", 0)),
        "textproc.split_share": _ratio(counters.get("split_multi", 0), counters.get("split_calls", 0)),
        "features.vectorize.calls_per_instance": _ratio(calls("features.vectorize"), instances),
        "features.dense_view.calls_per_instance": _ratio(calls("features.dense_view"), instances),
        "features.default_trend_share": _ratio(traced[0].summary.get("default_trend_count") or 0, instances),
        "features.total_dim": result.get("total_dim", 0),
        "features.mean_nnz": _ratio(sum(final_pass), len(final_pass)),
        "streamml.arf.drift_resets": result.get("drift_resets", 0),
        "selection.retained_share": _ratio(result.get("retained", 0), result.get("total_dim", 0)),
    }
    if set(m) != {name for name, _ in DERIVED}:
        raise AssertionError(f"DERIVED and per_layer_metrics differ: {sorted(set(m) ^ {n for n, _ in DERIVED})}")
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = statistics.median(r.trace["layers"].get(layer, 0.0) for r in traced)
        m[f"layer.{layer}.share"] = statistics.median(
            _ratio(r.trace["layers"].get(layer, 0.0), r.trace["root_s"]) for r in traced
        )
    for span in CALL_SPANS:
        m[f"{span}.calls"] = calls(span)
    for span in (*CALL_SPANS, *SELF_SPANS):
        m[f"{span}.self_s"] = self_s(span)
    return m


class Probe:
    """The host-speed probe process, pinned to one CPU."""

    def __init__(self, cpu: int):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "hostprobe.py")],
            stdout=subprocess.PIPE, text=True, env=_worker_env(), cwd=ROOT, preexec_fn=_pinned(cpu),
        )

    def stop(self) -> list[tuple[float, float]]:
        """Stop the probe, wait for it, and return its samples."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return []
        try:
            return [(t, d) for t, d in json.loads(out)]
        except ValueError:
            return []


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join("src", "finemo", "cli.py"), os.path.join("data", "lexicons"),
                   os.path.join("data", "sample")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            print(f"error: {needed} not found; run from a full checkout", file=sys.stderr)
            return 2

    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    gen = generate(args.workload, args.seed, os.path.join(ROOT, "data"), os.path.join(work, "input"))

    cpu = min(os.sched_getaffinity(0))
    probe = Probe(cpu)
    t_start = time.perf_counter()
    deadline = t_start + 170.0
    reps: list[Rep] = []
    try:
        while True:
            traced = bool(args.trace) and len(reps) % 2 == 1
            setups = 0 if args.trace else SETUPS_PER_REP
            reps.append(run_rep(gen, work, len(reps), traced, setups, cpu, deadline))
            if reps[-1].result is None:
                break
            elapsed = time.perf_counter() - t_start
            next_traced = bool(args.trace) and len(reps) % 2 == 1
            same_kind = [r.duration_s for r in reps if r.traced == next_traced] or [reps[-1].duration_s]
            expected_end = elapsed + statistics.median(same_kind)
            n_untraced = sum(not r.traced for r in reps)
            n_traced = len(reps) - n_untraced
            enough = n_traced >= 1 and n_untraced >= 1 if args.trace else n_untraced >= MIN_REPS
            if (enough and expected_end > args.seconds) or expected_end > OVERRUN * args.seconds:
                break
    finally:
        samples = probe.stop()

    digests = {r.summary.get("digest") for r in reps if r.summary}
    if len(digests) > 1:
        for r in reps:
            r.problems.append("confusion.csv/accuracy_series.csv differ between repetitions")
    for r in reps:
        for problem in r.problems:
            print(f"check failed: {problem}", file=sys.stderr)
    if not any(r.summary for r in reps) or (args.trace and not any(r.trace for r in reps)):
        print("error: no repetition completed", file=sys.stderr)
        return 1
    if len(samples) < MIN_SAMPLES:
        print("error: the host-speed probe gave no samples", file=sys.stderr)
        return 1

    failed = sum(bool(r.problems) for r in reps)
    if args.trace:
        values, catalogue, printed_only = per_layer_metrics(gen, reps, samples), PER_LAYER, ()
    else:
        values, catalogue, printed_only = end_to_end_metrics(gen, reps, samples), END_TO_END, PRINTED_ONLY
    values["failed_share"] = failed / len(reps)
    print(f"workload {args.workload} seed {args.seed}: {gen.n_tweets} tweets, "
          f"{gen.n_instances} instances, {len(reps)} repetitions, {len(samples)} probe samples")
    for name, unit in (*catalogue, *printed_only, ("failed_share", "ratio")):
        print(f"{name:48s} {values[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in catalogue},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
