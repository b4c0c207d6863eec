import os
import time

import numpy as np
import pytest
from tracing import Recorder, aggregate, calls_from, check_spans, self_times

DATA = os.path.join(os.path.dirname(__file__), "..", "..", "data")


def test_self_time_nested_disjoint_children():
    # root [0,10] -> a [1,4], b [5,9] -> c [6,7]
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent).tolist() == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # children [1,5] and [3,8] cover [1,8]: 7 of the root's 10 seconds
    out = self_times([0.0, 1.0, 3.0], [10.0, 5.0, 8.0], [-1, 0, 0])
    assert out[0] == pytest.approx(3.0)


def test_self_time_clips_children_to_parent():
    # a child reaching past its parent's end covers only the overlap
    out = self_times([0.0, 2.0], [4.0, 6.0], [-1, 0])
    assert out[0] == pytest.approx(2.0)


def test_self_times_add_up_to_root_durations():
    start = [0.0, 0.5, 1.0, 1.5, 4.0, 20.0, 21.0]
    end = [10.0, 3.0, 1.2, 2.5, 9.0, 25.0, 22.0]
    parent = [-1, 0, 1, 1, 0, -1, 5]
    assert self_times(start, end, parent).sum() == pytest.approx(10.0 + 5.0)


def test_aggregate_groups_by_name_and_layer():
    names = ["cli.main", "textproc.process", "textproc.lemmatize_correct", "lexicons.load_lexicons"]
    name = [0, 1, 2, 2, 3]
    start = [0.0, 1.0, 1.5, 2.5, 6.0]
    end = [10.0, 5.0, 2.0, 3.5, 7.0]
    parent = [-1, 0, 1, 1, 0]
    agg = aggregate(names, name, start, end, parent)
    assert agg["per_name"]["textproc.lemmatize_correct"] == (2, pytest.approx(1.5))
    assert agg["per_name"]["textproc.process"] == (1, pytest.approx(2.5))
    assert agg["layers"]["textproc"] == pytest.approx(4.0)
    assert agg["layers"]["cli"] == pytest.approx(5.0)
    assert agg["root_s"] == pytest.approx(10.0)
    assert agg["self_sum_s"] == pytest.approx(agg["root_s"])
    assert calls_from(names, name, parent, "lexicons.load_lexicons", "cli") == 1
    assert calls_from(names, name, parent, "textproc.lemmatize_correct", "cli") == 0


def test_check_spans_flags_unclosed_spans_extra_roots_and_wall_mismatch():
    names = ["cli.main", "features.vectorize"]
    assert check_spans(names, [0, 1], [0.0, 1.0], [10.0, 2.0], [-1, 0], wall_s=10.0) == []
    unclosed = check_spans(names, [0, 1], [0.0, 1.0], [10.0, 0.0], [-1, 0], wall_s=10.0)
    assert any("never closed" in p for p in unclosed)
    two_roots = check_spans(names, [0, 1], [0.0, 1.0], [10.0, 2.0], [-1, -1], wall_s=10.0)
    assert any("root" in p for p in two_roots)
    off = check_spans(names, [0, 1], [0.0, 1.0], [10.0, 2.0], [-1, 0], wall_s=12.0)
    assert any("disagrees" in p for p in off)


def test_recorder_spans_parents_and_exceptions():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))

    def inner(x):
        if x < 0:
            raise ValueError(x)
        return x

    inner_t = rec.wrap(inner, "features.inner")
    outer_t = rec.wrap(lambda x: inner_t(x) + inner_t(x), "cli.outer")
    assert outer_t(2) == 4
    with pytest.raises(ValueError):
        inner_t(-1)
    assert list(rec.parent) == [-1, 0, 0, -1]
    assert [rec.names[i] for i in rec.name] == ["cli.outer", "features.inner", "features.inner", "features.inner"]
    assert all(e > s for s, e in zip(rec.start, rec.end))
    agg = aggregate(rec.names, rec.name, rec.start, rec.end, rec.parent)
    assert agg["self_sum_s"] == pytest.approx(agg["root_s"])


def test_install_and_restore_leave_the_program_unchanged():
    import finemo.cli
    import finemo.streamml
    import finemo.textproc

    before = (
        finemo.cli.process,
        finemo.textproc.lemmatize_correct,
        finemo.streamml.HoeffdingTreeClassifier.__dict__.get("predict_label"),
        finemo.streamml.HoeffdingTreeClassifier.partial_fit,
    )
    rec = Recorder()
    rec.install()
    assert finemo.cli.process is not before[0]
    assert finemo.cli.process is finemo.textproc.process
    assert "predict_label" in finemo.streamml.HoeffdingTreeClassifier.__dict__
    rec.restore()
    after = (
        finemo.cli.process,
        finemo.textproc.lemmatize_correct,
        finemo.streamml.HoeffdingTreeClassifier.__dict__.get("predict_label"),
        finemo.streamml.HoeffdingTreeClassifier.partial_fit,
    )
    assert after == before
    assert before[2] is None  # inherited, so not shadowed after restore


def test_traced_pipeline_counts_layers(tmp_path):
    import finemo.cli

    rec = Recorder()
    rec.install()
    try:
        t0 = time.perf_counter()
        rc = finemo.cli.main([
            "train-eval",
            "--tweets", f"{DATA}/sample/tweets.jsonl",
            "--labels", f"{DATA}/sample/labels.tsv",
            "--prices", f"{DATA}/sample/prices.csv",
            "--lexicons", f"{DATA}/lexicons",
            "--warmup", "10", "--learner", "sgd", "--stacked", "--percentile", "15",
            "--out", str(tmp_path),
        ])
        wall_s = time.perf_counter() - t0
    finally:
        rec.restore()
    assert rc == 0
    assert check_spans(rec.names, rec.name, rec.start, rec.end, rec.parent, wall_s) == []
    agg = aggregate(rec.names, rec.name, rec.start, rec.end, rec.parent)
    assert agg["per_name"]["cli.main"][0] == 1
    assert agg["per_name"]["textproc.process"][0] == 31
    assert agg["per_name"]["features.vectorize"][0] == 2 * 31
    assert calls_from(rec.names, rec.name, rec.parent, "lexicons.load_lexicons", "cli") == 2
    assert agg["self_sum_s"] == pytest.approx(agg["root_s"], rel=1e-9)
    assert rec.counters["tweets"] == 25
    assert 0 < rec.counters["oov"] <= rec.counters["tokens"]
    assert len(rec.nnz()) == 62 and min(rec.nnz()) > 0
    assert np.isclose(sum(agg["layers"].values()), agg["root_s"])
