"""tracemdp benchmark: whole CLI flows over generated corpora.

    python3 perfbench/run.py --workload desk --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A run generates its workload's corpus from the seed (``corpus.py``, several
times; ``setup_s`` is their median), then runs the workload's command
sequence -- learn, build, check, score, monitor, report, refine, export --
one ``tracemdp`` process per command, one command at a time, as a user
would.  It repeats the sequence until ``--seconds`` are used and reports
per-command medians; ``report`` only checks the scores and is not timed.
Every command's exit code and output are checked; each failing check is
printed by name and its command counts as failed (``ops_failed_ratio``).
The workloads, their flags and the expected results are in
``workloads.json``.

The end-to-end metrics are ``pipeline_s`` (the sum of the timed commands),
``peak_rss_mb`` (the largest peak RSS of one command) and ``setup_s``.  The
per-command medians ``command.<name>_s`` are printed in every run and are
per-layer metrics of traced runs: a single command of about a second varies
between runs on a shared two-core machine by more than any bound a
regression gate could use, while their sum holds steady.

With ``--trace 1`` every untraced sequence is followed by a traced one, in
which each command runs under ``perfbench/layers.py``: timing wrappers
around the public functions of each ``src/tracemdp/`` module.  The run then
reports the per-layer metrics instead of the end-to-end ones.

``--smoke`` runs every workload once, untraced and traced, on a tiny corpus
and checks that every metric named in BENCHMARK.json is reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Work files go to
``.perfbench_work/`` at the root of the checkout; the spans of the traced
sequences are left there as ``spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
LAYERS = os.path.join(HERE, "layers.py")

sys.path.insert(0, HERE)
import layers  # noqa: E402

# Timed commands, in the order they run; each has a `command.<name>_s` metric.
TIMED = ("learn", "build", "check", "score", "monitor", "refine", "export")
SETUP_REPEATS = 3
SMOKE_SIZE = {"n_baseline": 48, "n_anomalous": 48}
COMMAND_TIMEOUT_S = 170


class Checks:
    """Named output checks of one pipeline; a command with a failed check fails."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.failed_commands: set[str] = set()

    def expect(self, ok: bool, command: str, name: str, detail: str = "") -> bool:
        if not ok:
            self.failures.append(f"{command}.{name}" + (f": {detail}" if detail else ""))
            self.failed_commands.add(command)
        return ok


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], cwd: str, out_path: str, err_path: str) -> tuple[int, float, float]:
    """Runs one process; returns (exit code, wall seconds, peak RSS in MB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, stdout=out, stderr=err, env=_env())
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def tracemdp_argv(args: list[str], trace_path: str | None = None, cmd_id: int = 0) -> list[str]:
    if trace_path is None:
        return [sys.executable, "-m", "tracemdp.cli", *args]
    return [sys.executable, LAYERS, "--spans", trace_path, "--cmd-id", str(cmd_id), "--", *args]


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def setup(workload: dict, seed: int, run_dir: str, size: dict | None) -> tuple[dict, float]:
    """Generates the corpus several times; returns the last one and the median time."""
    from corpus import make_corpus

    times = []
    for i in range(SETUP_REPEATS):
        target = os.path.join(run_dir, f"setup{i}")
        shutil.rmtree(target, ignore_errors=True)
        start = time.perf_counter()
        gen = {**workload["generator"], **(size or {})}
        paths = make_corpus(seed, gen["n_baseline"], gen["n_anomalous"], target, workload["train"] != "baseline")
        times.append(time.perf_counter() - start)
    return paths, statistics.median(times)


# ---------------------------------------------------------------------------
# One pipeline
# ---------------------------------------------------------------------------

def commands(workload: dict, corpus: dict) -> list[tuple[str, list[str]]]:
    cmds = [
        ("learn", ["learn", "--log", corpus["train"], "--out", "tree.json", *workload["learn_flags"]]),
        ("build", ["build", "--log", corpus["train"], "--tree", "tree.json", "--out", "store"]),
    ]
    for prop in workload["checks"]:
        cmds.append(("check", ["check", "--store", "store", "--prop", prop]))
    cmds += [
        ("score", ["score", "--store", "store", "--log", corpus["anomalous"], "--out", "scores.jsonl"]),
        ("monitor", ["monitor", "--store", "store", "--follow", corpus["anomalous"], "--once"]),
        ("report", ["report", "--json", "--scores", "scores.jsonl", "--truth", corpus["truth"]]),
        ("refine", ["refine", "--store", "store", *workload["refine_flags"]]),
        ("export", ["export", "--store", "store", "--out", "exported"]),
    ]
    return cmds


def _last_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    return json.loads(lines[-1]) if lines else None


def _read_jsonl(path: str) -> list:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_output(name: str, rc: int, out_path: str, rep_dir: str, ctx: dict, checks: Checks) -> None:
    """Output checks of one command; ``ctx`` carries facts between commands."""
    workload, label = ctx["workload"], ctx["label"]
    try:
        if name in ("monitor", "score"):
            rows = _read_jsonl(out_path if name == "monitor" else os.path.join(rep_dir, "scores.jsonl"))
        else:
            result = _last_json(out_path)
    except (OSError, ValueError) as exc:
        checks.expect(False, label, "json", str(exc))
        return
    if name in ("learn", "build", "check", "report", "refine", "export") and not checks.expect(
        isinstance(result, dict), label, "json", "no JSON object on stdout"
    ):
        checks.expect(rc == 0, label, "exit_code", f"{rc}")
        return

    expected_rc = 0
    if name == "learn":
        ctx["leaves"] = result.get("leaves")
        checks.expect(isinstance(ctx["leaves"], int) and ctx["leaves"] >= 1, label, "leaves", f"{ctx['leaves']}")
    elif name == "build":
        ctx["states"], ctx["transitions"] = result.get("states"), result.get("transitions")
        checks.expect(bool(ctx["states"]), label, "states", f"{ctx['states']}")
    elif name == "check":
        value = result.get("value")
        checks.expect(isinstance(value, (int, float)) and 0.0 <= value <= 1.0, label, "value_in_unit", f"{value}")
        checks.expect(result.get("converged") is True, label, "converged")
        expected_rc = 1 if result.get("verdict") is False else 0
        ctx.setdefault("values", {})[result.get("property")] = value
    elif name == "score":
        checks.expect(len(rows) == ctx["n_anomalous"], label, "rows", f"{len(rows)} != {ctx['n_anomalous']}")
        checks.expect(
            all(row.get("verdict") in ("anomalous", "normal") for row in rows), label, "verdicts"
        )
    elif name == "monitor":
        checks.expect(len(rows) > 0 and all("trace_id" in row for row in rows), label, "alerts", f"{len(rows)}")
    elif name == "report" and ctx["full_checks"]:
        recall = result.get("per_anomaly_recall", {})
        for kind, floor in workload["min_recall"].items():
            got = recall.get(kind)
            checks.expect(got is not None and got >= floor, label, f"recall_{kind}", f"{got} < {floor}")
    elif name == "refine":
        kind = result.get("outcome")
        splits = sum(1 for entry in result.get("iterations", []) if entry.get("action") == "split")
        expected_rc = 1 if kind == "real_counterexample" else 0
        want = workload["refine"]
        got = {"kind": kind, "reason": result.get("reason"), "splits": splits}
        checks.expect(got == want, label, "outcome", f"{got} != {want}")
        ctx["refine"] = {**got, "iterations": len(result.get("iterations", [])),
                         "predicates": [e["predicate"] for e in result.get("iterations", []) if "predicate" in e]}
    elif name == "export":
        _check_export(rep_dir, ctx, checks, label)
    checks.expect(rc == expected_rc, label, "exit_code", f"{rc} != {expected_rc}")


def _check_export(rep_dir: str, ctx: dict, checks: Checks, label: str) -> None:
    from tracemdp.amdp import parse_explicit

    texts = {}
    for fname in ("model.tra", "model.lab"):
        try:
            with open(os.path.join(rep_dir, "exported", fname), "rb") as fh:
                exported = fh.read()
            with open(os.path.join(rep_dir, "store", fname), "rb") as fh:
                built = fh.read()
        except OSError as exc:
            checks.expect(False, label, "files", str(exc))
            return
        checks.expect(exported == built, label, f"{fname}_identical", "export differs from build")
        texts[fname] = exported.decode("utf-8")
    try:
        model = parse_explicit(texts["model.tra"], texts["model.lab"])
    except ValueError as exc:
        checks.expect(False, label, "parses", str(exc))
        return
    checks.expect(model.n_states == ctx.get("states"), label, "states", f"{model.n_states} != {ctx.get('states')}")


def check_pipeline(ctx: dict, checks: Checks) -> None:
    """Checks across commands: Pmin <= Pmax per target, recorded seed results."""
    values = ctx.get("values", {})
    for prop, pmin in values.items():
        if prop.startswith("Pmin=?"):
            pmax = values.get("Pmax=?" + prop[len("Pmin=?"):])
            if pmax is not None and pmin is not None:
                checks.expect(pmin <= pmax + 1e-12, "check", "pmin_le_pmax", f"{pmin} > {pmax}")
    recorded = ctx["workload"]["recorded"].get(str(ctx["seed"]))
    if recorded and ctx["full_checks"]:
        got = {key: ctx.get(key) for key in ("leaves", "states", "transitions", "refine")}
        for key, want in recorded.items():
            command = {"leaves": "learn", "refine": "refine"}.get(key, "build")
            checks.expect(got.get(key) == want, command, f"recorded_{key}", f"{got.get(key)} != {want}")


def run_pipeline(workload: dict, seed: int, corpus: dict, rep_dir: str, traced: bool, full_checks: bool):
    """Runs the command sequence once; returns (times, peak RSS, traced commands, checks)."""
    shutil.rmtree(rep_dir, ignore_errors=True)
    os.makedirs(rep_dir)
    checks = Checks()
    ctx = {"workload": workload, "seed": seed, "n_anomalous": corpus["n_anomalous"], "full_checks": full_checks}
    times = {name: 0.0 for name in TIMED}
    peak_rss = 0.0
    traced_cmds = []
    for i, (name, args) in enumerate(commands(workload, corpus)):
        ctx["label"] = name if name != "check" else f"check[{args[-1]}]"
        out_path = os.path.join(rep_dir, f"{i:02d}-{name}.out")
        trace_path = os.path.join(rep_dir, f"{i:02d}-{name}.spans.json") if traced else None
        rc, wall, rss = run_process(
            tracemdp_argv(args, trace_path, i), rep_dir, out_path, os.path.join(rep_dir, f"{i:02d}-{name}.err")
        )
        peak_rss = max(peak_rss, rss)
        if name in times:
            times[name] += wall
        check_output(name, rc, out_path, rep_dir, ctx, checks)
        if traced and name in times:
            try:
                with open(trace_path, "r", encoding="utf-8") as fh:
                    trace = json.load(fh)
            except (OSError, ValueError) as exc:
                checks.expect(False, ctx["label"], "spans", str(exc))
                continue
            traced_cmds.append({"name": name, "wall_s": wall, "trace": trace})
            checks.expect(not trace["invariant_violations"], ctx["label"], "invariants",
                          "; ".join(trace["invariant_violations"][:3]))
    check_pipeline(ctx, checks)
    n_commands = i + 1
    return times, peak_rss, traced_cmds, checks, n_commands


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------

def measure(name: str, workload: dict, seed: int, seconds: float, trace: bool, size: dict | None = None) -> dict:
    run_dir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    full_checks = size is None
    try:
        corpus, setup_s = setup(workload, seed, run_dir, size)
        samples, traced_samples, span_records = [], [], []
        attempted, failed, failures, absent = 0, 0, [], set()
        start = time.perf_counter()
        while True:
            step_start = time.perf_counter()
            for traced in (False, True) if trace else (False,):
                rep_dir = os.path.join(run_dir, "traced" if traced else "plain")
                times, peak_rss, traced_cmds, checks, n = run_pipeline(
                    workload, seed, corpus, rep_dir, traced, full_checks
                )
                attempted += n
                failed += len(checks.failed_commands)
                failures += checks.failures
                if traced:
                    metrics, problems = layers.layer_metrics(traced_cmds)
                    for problem in problems:
                        failures.append(f"trace.additivity: {problem}")
                    failed += len(problems)
                    # The invariant checks the traced run adds are work, not tracing overhead.
                    invariants_s = metrics["linked_store.invariants_s"]
                    traced_wall = sum(cmd["wall_s"] for cmd in traced_cmds)
                    traced_samples.append((metrics, traced_wall - invariants_s, samples[-1]["pipeline_s"]))
                    span_records.append(traced_cmds)
                    absent.update(fn for cmd in traced_cmds for fn in cmd["trace"]["absent"])
                else:
                    samples.append({**{f"command.{k}_s": v for k, v in times.items()},
                                    "pipeline_s": sum(times.values()), "peak_rss_mb": peak_rss})
            step = time.perf_counter() - step_start
            if time.perf_counter() - start + step > seconds:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = layers.median_metrics(samples)
    if trace:
        metrics = layers.median_metrics([m for m, _, _ in traced_samples])
        metrics.update((key, value) for key, value in plain.items() if key.startswith("command."))
        traced_wall = statistics.median(w for _, w, _ in traced_samples)
        plain_wall = statistics.median(p for _, _, p in traced_samples)
        metrics["trace_overhead_ratio"] = traced_wall / plain_wall - 1.0
        os.makedirs(WORK, exist_ok=True)
        with open(os.path.join(WORK, f"spans-{name}-{seed}.jsonl"), "w", encoding="utf-8") as fh:
            for pipeline, cmds in enumerate(span_records):
                for cmd in cmds:
                    fh.write(json.dumps({"pipeline": pipeline, "command": cmd["name"],
                                         "wall_s": cmd["wall_s"], **cmd["trace"]}) + "\n")
    else:
        metrics = {"pipeline_s": plain["pipeline_s"], "peak_rss_mb": plain["peak_rss_mb"], "setup_s": setup_s}
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "pipelines": len(samples),
        "absent": sorted(absent),
        "commands": {key: value for key, value in plain.items() if key.startswith("command.")},
    }


def _report(name: str, result: dict, units: dict[str, str]) -> dict:
    print(f"# workload {name}: {result['pipelines']} pipeline(s), "
          f"{result['attempted']} commands, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"FAIL {failure}")
    for fn in result["absent"]:
        print(f"ABSENT {fn}: not in the package, its metrics read 0")
    ratio = result["failed"] / result["attempted"]
    print(f"ops_failed_ratio {ratio:.4f}")
    for key, value in result["commands"].items():
        if key not in result["metrics"]:
            print(f"{key} {value:.6g} s")
    metrics = {}
    for key, value in result["metrics"].items():
        unit = units.get(key, "count")
        print(f"{key} {value:.6g} {unit}")
        metrics[key] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload once on a tiny corpus")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tracemdp", "cli.py")):
        print(f"tracemdp sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(HERE, "workloads.json"), "r", encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}

    if args.smoke:
        return smoke(workloads, bench, units)
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {sorted(workloads)}")
    result = measure(args.workload, workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    metrics = _report(args.workload, result, units)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def smoke(workloads: dict, bench: dict, units: dict[str, str]) -> int:
    """Every workload flow once, untraced and traced, on a tiny corpus."""
    ok = True
    attempted = failed = 0
    for name, workload in workloads.items():
        for trace, listed in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            result = measure(name, workload, 0, 0.0, trace, SMOKE_SIZE)
            _report(name, result, units)
            missing = [m["name"] for m in listed if m["name"] not in result["metrics"]]
            for metric in missing:
                print(f"FAIL {name}: metric {metric} missing")
            ok = ok and not missing and result["failed"] == 0
            attempted += result["attempted"]
            failed += result["failed"]
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
