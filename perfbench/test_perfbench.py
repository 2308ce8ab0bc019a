"""Tests of the benchmark's own arithmetic and correctness gates.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
import paper  # noqa: E402
import service_mix  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402


def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "parent": parent, "name": name, "start": start,
            "end": end, "pid": 1, "args": {}}


# -- percentiles --------------------------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert stats.percentile(values, 50) == 50.0
    assert stats.percentile(values, 90) == 90.0
    assert stats.percentile(values, 100) == 100.0
    assert stats.percentile([7.0], 90) == 7.0


def test_p90_needs_ten_samples_beyond_it():
    hundred = [float(v) for v in range(100)]
    assert stats.beyond(hundred, 90) == 10
    assert stats.p_or_tail(hundred, 90) == (89.0, 90)
    ninety_nine = hundred[:99]
    assert stats.beyond(ninety_nine, 90) == 9
    value, q = stats.p_or_tail(ninety_nine, 90)
    assert q == 89 and stats.beyond(ninety_nine, q) >= 10
    assert stats.tail_percentile(ninety_nine) == 89


def test_tail_percentile_with_too_few_samples_falls_back_to_median():
    few = [3.0, 1.0, 2.0]
    assert stats.tail_percentile(few) == 0
    assert stats.p_or_tail(few, 90) == (2.0, 50)


# -- host-speed normalisation ------------------------------------------------------


def _host(*samples):
    host = hostspeed.HostSpeed()
    host.samples = list(samples)
    return host


def test_reference_around_takes_the_nearest_probes_on_both_sides():
    host = _host((0.0, 1.0, 1.0), (1.0, 2.0, 0.2), (5.0, 6.0, 0.4),
                 (6.0, 7.0, 9.0))
    # An operation from 2 to 5: one probe each side is 0.2 and 0.4.
    assert host.reference_around(2.0, 5.0) == pytest.approx(0.3)
    assert host.reference_around(2.0, 5.0, per_side=2) == pytest.approx(0.7)
    with pytest.raises(RuntimeError):
        _host().reference_around(0.0, 1.0)


def test_a_slower_host_leaves_the_normalised_time_unchanged():
    ref = hostspeed.REFERENCE_S
    fast = _host((0.0, 1.0, ref), (3.0, 4.0, ref))
    slow = _host((0.0, 1.0, 1.5 * ref), (3.0, 4.0, 1.5 * ref))
    assert fast.normalise(2.0, 1.0, 3.0) == pytest.approx(2.0)
    assert slow.normalise(3.0, 1.0, 3.0) == pytest.approx(2.0)


# -- spans --------------------------------------------------------------------------


def test_union_length_merges_overlaps():
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert spans.union_length([(0, 1), (0, 1)]) == 1
    assert spans.union_length([]) == 0


def test_self_time_with_overlapping_children():
    tree = [
        _span("p", None, 0.0, 10.0),
        _span("a", "p", 1.0, 4.0),
        _span("b", "p", 3.0, 6.0),  # overlaps a: union covers 1..6
    ]
    selfs = spans.self_times(tree)
    assert selfs["p"] == pytest.approx(5.0)
    assert selfs["a"] == pytest.approx(3.0)
    assert selfs["b"] == pytest.approx(3.0)


def test_self_time_with_nested_spans_counts_direct_children_only():
    tree = [
        _span("p", None, 0.0, 10.0),
        _span("c", "p", 2.0, 8.0),
        _span("g", "c", 3.0, 7.0),  # grandchild: inside c, not p's business
    ]
    selfs = spans.self_times(tree)
    assert selfs["p"] == pytest.approx(4.0)
    assert selfs["c"] == pytest.approx(2.0)
    assert selfs["g"] == pytest.approx(4.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_clips_children_that_outlive_the_parent():
    tree = [_span("p", None, 0.0, 4.0), _span("c", "p", 3.0, 9.0)]
    assert spans.self_times(tree)["p"] == pytest.approx(3.0)


def test_inclusive_time_does_not_double_count_recursion():
    tree = [
        _span("r1", None, 0.0, 6.0, "visa.runtime"),
        _span("r2", "r1", 1.0, 5.0, "visa.runtime"),
        _span("o", "r2", 2.0, 3.0, "pipelines.ooo"),
    ]
    table = spans.layer_table(tree)
    assert table["visa.runtime"]["inclusive_s"] == pytest.approx(6.0)
    assert table["visa.runtime"]["self_s"] == pytest.approx(5.0)
    assert table["visa.runtime"]["calls"] == 2


def test_covered_uses_root_spans_within_the_window():
    tree = [
        _span("a", None, 0.0, 2.0),
        _span("b", None, 1.0, 3.0),
        _span("c", "a", 0.0, 9.0),  # not a root: ignored
        _span("d", None, 8.0, 12.0),
    ]
    assert spans.covered(tree, 0.0, 10.0) == pytest.approx(5.0)


def test_recorder_nests_and_probes():
    recorder = spans.Recorder("t-")

    def leaf(x):
        return [x, x]

    wrapped = recorder.wrap("leaf", leaf, lambda x: lambda r: {"n": len(r)})
    with recorder.span("outer"):
        assert wrapped(3) == [3, 3]
    outer, inner = recorder.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["args"] == {"n": 2}
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]
    trace = spans.chrome_trace(recorder.spans)
    assert [e["ph"] for e in trace["traceEvents"]] == ["X", "X"]


def test_recorder_closes_spans_when_the_call_raises():
    recorder = spans.Recorder("t-")

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        recorder.wrap("boom", boom)()
    assert recorder.spans[0]["end"] is not None
    with recorder.span("after"):
        pass
    assert recorder.spans[1]["parent"] is None


# -- correctness gates --------------------------------------------------------------


def _golden(name: str) -> str:
    return (paper.GOLDEN_DIR / f"{name}.txt").read_text()


def test_golden_tables_pass_the_shape_checks():
    assert paper.table3_shape_errors(_golden("table3")) == []
    assert paper.figure2_shape_errors(_golden("figure2")) == []
    assert paper.artifact_errors("table3", 0, _golden("table3"), "", None) == []


def test_shape_checks_catch_a_bad_table():
    text = _golden("table3").replace("   34.7  ", "   10.0  ")  # srt WCET < simple
    errors = paper.table3_shape_errors(text)
    assert any("WCET 10.0 < simple" in e for e in errors)
    assert any("srt is not the WCET outlier" in e for e in errors)
    lines = _golden("figure2").splitlines()
    row = next(i for i, line in enumerate(lines) if line.split()[:2] == ["adpcm", "T"])
    lines[row] = lines[row][:-1] + "3"
    errors = paper.figure2_shape_errors("\n".join(lines))
    assert errors == ["figure2 adpcm T: 3 missed checkpoints"]


def test_artifact_errors_flag_golden_and_warm_mismatches():
    golden = _golden("figure2")
    changed = golden.replace("61.2", "61.3", 1)
    errors = paper.artifact_errors("figure2", 0, changed, "", golden)
    assert any("differs from golden" in e for e in errors)
    assert any("warm output differs" in e for e in errors)
    assert paper.artifact_errors("figure2", 1, "", "boom\n", None) == [
        "figure2: exit code 1: boom"]


# -- the job stream -----------------------------------------------------------------


def test_job_stream_is_seeded_and_keeps_its_composition():
    jobs = service_mix.make_jobs(7, 100)
    assert jobs == service_mix.make_jobs(7, 100)
    assert jobs != service_mix.make_jobs(8, 100)
    kinds = [kind for kind, _ in jobs]
    assert {k: kinds.count(k) for k in set(kinds)} == {
        "run": 50, "wcet": 15, "admit": 15, "lint": 15, "noop": 5}
    runs = [service_mix._canonical(p) for k, p in jobs if k == "run"]
    assert len(runs) - len(set(runs)) == 5  # a tenth: only deliberate repeats


def test_every_seed_sends_the_same_first_run_of_each_size():
    def firsts(seed):
        jobs = [service_mix.Job(i, kind, payload) for i, (kind, payload)
                in enumerate(service_mix.make_jobs(seed, 40))]
        return sorted(service_mix._canonical(j.payload)
                      for j in service_mix.first_of_each_size(jobs))

    sizes = firsts(1)
    assert len(sizes) == len(set(sizes)) == 18
    for seed in range(2, 12):
        assert firsts(seed) == sizes


def test_metric_deltas_sum_the_per_kind_series():
    before = service_mix.parse_exposition(
        'repro_store_ops_total{op="hits"} 1\n'
        'repro_store_ops_total{op="misses"} 1\n'
        'repro_job_phase_seconds_bucket{kind="run",phase="queue",le="0.5"} 1\n'
        'repro_job_phase_seconds_bucket{kind="run",phase="queue",le="+Inf"} 1\n')
    after = service_mix.parse_exposition(
        'repro_store_ops_total{op="hits"} 4\n'
        'repro_store_ops_total{op="misses"} 2\n'
        'repro_job_phase_seconds_bucket{kind="run",phase="queue",le="0.5"} 3\n'
        'repro_job_phase_seconds_bucket{kind="run",phase="queue",le="+Inf"} 4\n'
        'repro_job_phase_seconds_bucket{kind="wcet",phase="queue",le="0.5"} 2\n'
        'repro_job_phase_seconds_bucket{kind="wcet",phase="queue",le="+Inf"} 2\n')
    assert service_mix._ratio(before, after, "repro_store_ops_total") == 0.75
    assert service_mix._phase_buckets(before, after, "queue") == [
        (0.5, 4.0), (float("inf"), 5.0)]
    assert service_mix._phase_buckets(before, after, "queue", "wcet") == [
        (0.5, 2.0), (float("inf"), 2.0)]
    assert service_mix._phase_buckets(before, after, "execute") == []


# -- the service correctness gate ---------------------------------------------------


def _served(index, kind, payload, value):
    job = service_mix.Job(index, kind, payload)
    job.ok, job.value = True, value
    return job


def test_a_repeated_payload_with_another_result_fails_the_run():
    payload = {"workload": "cnt", "instances": 4}
    jobs = [_served(0, "run", payload, {"energy": 1.0}),
            _served(1, "run", payload, {"energy": 1.0}),
            _served(2, "run", payload, {"energy": 2.0})]
    assert service_mix.gate(jobs[:2], seed=1, daemon_code=0) == ([], 0)
    errors, failed = service_mix.gate(jobs, seed=1, daemon_code=0)
    assert failed == 1 and not jobs[2].ok
    assert errors == ["job 2 (run): repeated payload returned a different result"]


def test_unfinished_jobs_and_an_unclean_drain_fail_the_run():
    lost = service_mix.Job(0, "noop", {"tag": "t"})
    lost.error = "daemon closed the connection"
    errors, failed = service_mix.gate([lost], seed=1, daemon_code=-9)
    assert failed == 2
    assert errors == ["job 0 (noop): daemon closed the connection",
                      "daemon exited with code -9 after SIGTERM"]
