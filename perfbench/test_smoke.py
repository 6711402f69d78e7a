"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke test runs every command of every workload flow, untraced and
traced, on a tiny corpus, and fails if an output check that is valid at that
size fails or if a metric named in BENCHMARK.json is not reported.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
import layers  # noqa: E402


def test_smoke_runs_every_flow_and_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _trace(spans, hot=()):
    return {"spans": spans, "hot": list(hot), "feed_s": [], "alerts": 0}


def test_layer_self_times_and_remainder_add_up_to_wall_time():
    # main [0, 1.0] > load_store [0.1, 0.6] > read_trace_log [0.1, 0.4] with 0.05 s of parse calls.
    trace = _trace(
        [
            ["cli.main", 0.0, 1.0, None, 0.5, 0, None],
            ["linked_store.load_store", 0.1, 0.6, 0, 0.2, 0, None],
            ["trace_model.read_trace_log", 0.1, 0.4, 1, 0.25, 0, {"traces": 1, "states": 10}],
        ],
        [["trace_model.parse_event_line", "trace_model.read_trace_log", 10, 0.05, 0.05]],
    )
    metrics, problems = layers.layer_metrics([{"name": "check", "wall_s": 1.5, "trace": trace}])
    assert problems == []
    self_total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(self_total + metrics["unwrapped_s"] - 1.5) < 1e-9
    assert abs(metrics["unwrapped_s"] - 0.5) < 1e-9
    assert metrics["trace_model.events"] == 10
    assert abs(metrics["trace_model.us_per_event"] - 0.3 / 10 * 1e6) < 1e-6


def test_self_time_beyond_wall_time_is_reported():
    trace = _trace([["cli.main", 0.0, 2.0, None, 2.0, 0, None]])
    _metrics, problems = layers.layer_metrics([{"name": "learn", "wall_s": 1.0, "trace": trace}])
    assert problems
