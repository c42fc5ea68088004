"""Tests of the benchmark itself: ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = layers.Tracer(clock)

    def leaf():
        clock.spend(1.0)

    def inner():
        clock.spend(2.0)
        leaf()
        clock.spend(0.5)

    def outer():
        clock.spend(3.0)
        inner()
        inner()
        tracer.untimed(clock.spend, 10.0)  # counts for no span
        clock.spend(4.0)

    leaf = tracer.wrap("leaf", leaf)
    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", outer)
    outer()
    assert tracer.calls == {"leaf": 2, "inner": 2, "outer": 1}
    assert tracer.self_s == {"leaf": 2.0, "inner": 5.0, "outer": 7.0}


def test_recursive_span_counts_each_level_once():
    clock = FakeClock()
    tracer = layers.Tracer(clock)

    def countdown(n):
        clock.spend(1.0)
        if n:
            countdown(n - 1)

    countdown = tracer.wrap("countdown", countdown)
    countdown(3)
    assert tracer.calls["countdown"] == 4
    assert tracer.self_s["countdown"] == 4.0


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = layers.Tracer(clock)

    def boom():
        clock.spend(1.0)
        raise ValueError

    def caller():
        clock.spend(2.0)
        with pytest.raises(ValueError):
            boom()

    boom, caller = tracer.wrap("boom", boom), tracer.wrap("caller", caller)
    caller()
    assert tracer.self_s == {"boom": 1.0, "caller": 2.0}


def test_percentile_rule():
    values = list(range(1, 101))
    assert run.percentile(values, 0.5) == 50
    assert run.percentile(values, 0.9) == 90
    assert run.samples_beyond(100, 0.9) == 10
    assert run.samples_beyond(202, 0.9) == 20
    assert run.samples_beyond(99, 0.9) == 9
    rows = [{"ms": float(v), "status": "pass"} for v in range(99)]
    with pytest.raises(ValueError):
        run.end_to_end([run.Child(1.0, 1.0, 0, rows)])
    rows.append({"ms": 99.0, "status": "pass"})
    assert run.end_to_end([run.Child(1.0, 1.0, 0, rows)])["case_ms_p90"]["value"] == 89.0


def test_smallest_full_grid_keeps_ten_cases_beyond_p90():
    smallest = min(w.full.cases for w in run.WORKLOADS.values())
    assert run.samples_beyond(smallest, run.P90) >= run.MIN_BEYOND


def test_failed_cases_are_counted_against_the_grid():
    rows = [{"case": str(i), "residual": "0", "status": "pass", "suite": "s", "ms": 1.0}
            for i in range(4)]
    grid = run.Grid(("s",), 4, run.rows_digest(rows))
    assert run.Child(1.0, 1.0, 0, rows).failed(grid) == 0
    assert run.Child(1.0, 1.0, 1, rows[:3]).failed(grid) == 1  # a lost row
    failing = rows[:3] + [dict(rows[3], status="fail", residual="1")]
    assert run.Child(1.0, 1.0, 1, failing).failed(grid) == 1
    assert run.Child(1.0, 1.0, 1, rows).failed(grid) == 4  # nonzero exit
    other = rows[:3] + [dict(rows[3], case="x")]
    assert run.Child(1.0, 1.0, 0, other).failed(grid) == 4  # digest mismatch


def test_benchmark_spec_names_every_traced_span():
    names = {m["name"] for m in SPEC["per_layer"]}
    for span in layers.span_names():
        assert {f"{span}.calls", f"{span}.self_s"} <= names
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_quick_mode_emits_every_named_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", workload, "--quick",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *_, summary_line, result_line = proc.stdout.splitlines()
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    summary = json.loads(summary_line)
    assert summary["failed_frac"]["value"] == 0
    assert {"python", "nproc", "cpu_model", "git_sha", "src_sha256"} <= set(summary["meta"])
    assert {"loadavg_start", "loadavg_end"} <= set(summary["meta"])


def test_seed_chooses_the_hash_layouts(monkeypatch, capsys):
    rows = [{"ms": 1.0, "status": "pass"}] * 100
    drawn = []

    def fake_child(grid, workdir, deadline, hash_seed, trace=False):
        drawn.append(hash_seed)
        return run.Child(1.0, 1.0, 0, rows)

    monkeypatch.setattr(run, "run_child", fake_child)

    def hash_seeds(seed):
        drawn.clear()
        run.run_workload("flag-wt0", 0, False, True, seed)
        return list(drawn)

    assert hash_seeds(1) == hash_seeds(1)
    assert hash_seeds(1) != hash_seeds(2)
