"""Tests of the benchmark itself: span arithmetic, wrapper installation,
work counts and the correctness checks.

    python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import spans  # noqa: E402
import workloads  # noqa: E402
from spans import Span, SpanIndex, Tracer, union_length  # noqa: E402


def _span(sid, parent, name, start, end, thread=1, **attrs):
    return Span(sid, parent, name, thread, start, end, 1, attrs)


def test_union_length_counts_overlap_once():
    assert union_length([(1, 4), (2, 6), (8, 9)], 0, 10) == 6
    assert union_length([(-2, 1), (9, 12)], 0, 10) == 2
    assert union_length([], 0, 10) == 0


def test_self_time_over_overlapping_thread_spans():
    index = SpanIndex(
        [
            _span(1, None, "montecarlo.estimate", 0.0, 10.0, threads=2),
            _span(2, 1, "simplex.classify_batch", 1.0, 4.0, thread=2),
            _span(3, 1, "simplex.classify_batch", 2.0, 6.0, thread=3),
            _span(4, 1, "montecarlo.substream", 8.0, 9.0, thread=2),
        ]
    )
    est = index.by_id[1]
    assert index.self_time(est) == pytest.approx(4.0)
    # busy time sums across threads; the union would hide the overlap
    assert index.busy("simplex.classify_batch") == pytest.approx(7.0)
    assert index.child_busy(est) == pytest.approx(8.0)


def test_busy_leaves_out_spans_nested_in_the_same_layer():
    index = SpanIndex(
        [
            _span(1, None, "cli.main", 0.0, 12.0),
            _span(2, 1, "universal.theorem_report", 1.0, 11.0),
            _span(3, 2, "universal.universal_average_1d", 2.0, 4.0),
            _span(4, 2, "universal.universal_average_1d", 5.0, 8.0),
        ]
    )
    assert index.busy(spans.ENUMERATE_SPANS) == pytest.approx(10.0)
    assert index.self_total("cli.main") == pytest.approx(2.0)


def test_worker_spans_take_the_caller_span_as_parent():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: threading.get_ident(), "leaf")

    def fan_out():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(lambda _: leaf(), range(4)))

    tracer.wrap(fan_out, "outer")()
    outer = [s for s in tracer.spans if s.name == "outer"]
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len(outer) == 1 and len(leaves) == 4
    assert all(s.parent == outer[0].id for s in leaves)


def _patch_points():
    from membranesim import cli, density, montecarlo, robustness, simplex, universal

    modules = (cli, density, montecarlo, robustness, simplex, universal)
    classes = [v for v in vars(density).values() if isinstance(v, type)]
    return {
        (id(owner), attr): value
        for owner in (*modules, *classes)
        for attr, value in vars(owner).items()
        if callable(value)
    }


def test_wrappers_are_restored_after_a_traced_batch(tmp_path):
    from membranesim import cli

    before = _patch_points()
    tracer = Tracer()
    with tracer.installed(1):
        during = _patch_points()
        assert sum(during[k] is not before[k] for k in before) >= 20
        cli.main(["identities", "--n-max", "3", "--out", str(tmp_path / "a.json")])
    assert _patch_points() == before
    with pytest.raises(RuntimeError), tracer.installed(2):
        raise RuntimeError("task failed")
    assert _patch_points() == before


def test_traced_run_matches_untraced_bytes_and_counts_blocks(tmp_path):
    from membranesim import cli

    argv = ["simulate", "--state", "0.2,0.3,0.5", "--samples", "100000", "--seed", "3",
            "--threads", "2", "--format", "json"]
    assert cli.main(argv + ["--out", str(tmp_path / "plain.json")]) == 0
    tracer = Tracer()
    with tracer.installed(1):
        assert cli.main(argv + ["--out", str(tmp_path / "traced.json")]) == 0
    plain = (tmp_path / "plain.json").read_bytes()
    assert (tmp_path / "traced.json").read_bytes() == plain
    metrics = spans.layer_metrics(SpanIndex(tracer.spans))
    assert metrics["montecarlo.estimate.calls"] == 1
    assert metrics["montecarlo.blocks"] == 2
    assert metrics["simplex.classify_batch.points"] == 100000
    assert metrics["cli.out_bytes"] == (tmp_path / "plain.json").stat().st_size
    assert 0.0 < metrics["montecarlo.parallel_eff"] <= 1.0


def test_work_counts_come_from_the_inputs_alone():
    code = (
        "import sys; sys.path.insert(0, 'perfbench'); import workloads; "
        "import json; print(json.dumps({w.name: sum(t.work for t in w.tasks) "
        "for w in workloads.WORKLOADS.values()})); "
        "assert 'membranesim' not in sys.modules"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        check=True,
    )
    totals = json.loads(out.stdout)
    assert totals["mc-uniform"] == 6 * (1 << 22)
    simulate = (1 << 18) + 3 * (1 << 20)
    robustness, dirac_limit, universal = 12 * 200_000, 3 * 200_000, 1 << 20
    assert totals["mc-structured"] == simulate + robustness + dirac_limit + universal
    table = sum((n - 1) * (2**n - 1) for n in range(2, 21))
    assert totals["exact-verify"] == table + 4 * (2**20 - 1) + 2 * (2**24 - 1)


def test_work_from_argv():
    assert workloads.work_from_argv(["simulate", "--samples", "77"]) == 77
    assert workloads.work_from_argv(
        ["robustness", "--epsilon-grid", "0.5,1.0", "--samples", "10"]
    ) == 40
    table = ["universal-exact", "--cells", "3", "--table"]
    assert workloads.work_from_argv(table) == 1 * 3 + 2 * 7
    one = ["universal-exact", "--cells", "5", "--position", "2"]
    assert workloads.work_from_argv(one) == 31


def test_centroid_truncated_probability_reduces_to_born_at_full_zone():
    x = workloads.parse_state("0.3,0.3,0.4")
    assert [workloads.centroid_truncated_probability(x, 1.0, i) for i in (1, 2, 3)] == [
        pytest.approx(c) for c in (0.3, 0.3, 0.4)
    ]
    parts = [workloads.centroid_truncated_probability(x, 0.5, i) for i in (1, 2, 3)]
    assert sum(parts) == pytest.approx(1.0)


def test_born_check_rejects_a_shifted_or_short_estimate():
    state = workloads.parse_state("0.2,0.8")

    def payload(p1, n=workloads.MC_UNIFORM_SAMPLES):
        c1 = round(p1 * n)
        rows = [
            {"outcome_index": 1, "count": c1},
            {"outcome_index": 2, "count": n - c1},
        ]
        return {"n_samples": n, "outcomes": rows}

    se = math.sqrt(0.2 * 0.8 / workloads.MC_UNIFORM_SAMPLES)
    assert workloads._born_check(payload(0.2 + 2 * se), state) is None
    assert workloads._born_check(payload(0.2 + 6 * se), state) is not None
    assert workloads._born_check(payload(0.2, n=1 << 20), state) is not None


def test_exact_checks_reject_a_wrong_row():
    good = {"n": 20, "i": 7, "all_match": True, "sum_at_i": f"{(2**20 - 1) * 13}/20"}
    assert workloads._recurrence_check(good, None) is None
    assert workloads._recurrence_check(dict(good, all_match=False), None) is not None
    row = {"n_cells": 24, "position": 6, "average": "3/4", "equal": True}
    assert workloads._average_check(row, None) is None
    assert workloads._average_check(dict(row, average="2/3"), None) is not None


def test_run_fails_without_the_package(tmp_path):
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=ignore)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-verify"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
    assert "membranesim" in out.stderr


def test_benchmark_json_names_what_the_run_reports():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layers = list(spans.layer_metrics(SpanIndex([]))) + ["trace.overhead_s"]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in layers
    }


def test_failed_counts_each_task_run_once():
    import run

    task = workloads.Task(name="t", work=1, argv=("x",), check=lambda p, r: "wrong")
    wl = workloads.Workload(name="w", why="", sizes="", tasks=(task,))
    plain = run.Batch(1, False, results=[("text", '{"a": 1}')])
    traced = run.Batch(1, True, results=[("text", '{"a": 2}')])
    problems = run.check_batches(wl, [plain, traced])
    assert len(problems) == 2
    mismatches = run.byte_mismatches(wl, [plain], [traced])
    assert list(mismatches) == [(1, True, 0)]
    assert len(mismatches | problems) == 2
