"""Timing wrappers around the public functions of each tracemdp module.

Each module under ``src/tracemdp/`` is one layer.  Nothing in the package
changes: the wrappers are installed from outside, in a separate process per
CLI command, and the package code runs unmodified underneath them.

Run as a script, this file is a drop-in for ``python -m tracemdp.cli``:

    python3 perfbench/layers.py --spans OUT.json --cmd-id N -- learn --log ...

It installs the wrappers, runs ``tracemdp.cli.main`` on the remaining
arguments and writes the recorded spans to OUT.json when the command ends.
Imported, it turns the span files of one traced pipeline into the per-layer
metrics (``layer_metrics``).

Two kinds of wrapper exist.  A *span* wrapper records one span per call
(name, start, end, parent, command id, self time, a few result attributes).
A *hot* wrapper is used for per-item calls that run thousands of times per
command; it keeps only a call count, the total time and the self time per
(name, caller span), and for ``RunMonitor.feed`` the per-call durations.
A wrapped call's self time is its duration minus the time of the wrapped
calls made inside it, so the self times of one command's layers plus the
unwrapped remainder (interpreter start, imports, exit) add up to the
command's wall time.

After every ``linked_store.build`` the traced run also calls
``check_invariants`` on the new store (its own span); any violation fails the
run, and its time is left out of ``trace_overhead_ratio``.

The wrappers assume that tracemdp runs its wrapped code on the main thread,
which holds for every CLI command; calls from other threads run untimed.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import threading
import time

LAYERS = (
    "trace_model",
    "predicate_tree",
    "trace_trie",
    "amdp",
    "linked_store",
    "checker",
    "anomaly",
    "refinement",
)

# (module, qualified name, mode).  A name missing from the package is
# reported as absent and its metrics read 0.
WRAPPED = (
    ("cli", "main", "span"),
    ("trace_model", "read_trace_log", "span"),
    ("trace_model", "parse_event_line", "hot"),
    ("predicate_tree", "build_initial_tree", "span"),
    ("predicate_tree", "split_leaf", "span"),
    ("predicate_tree", "information_gain", "hot"),
    ("predicate_tree", "PredicateTree.abstract", "hot"),
    ("trace_trie", "rebuild", "span"),
    ("trace_trie", "abstract_trace", "hot"),
    ("amdp", "induce", "span"),
    ("amdp", "label_by_terminal", "span"),
    ("amdp", "label_states", "span"),
    ("amdp", "export_explicit", "span"),
    ("amdp", "Amdp.probability", "hot"),
    ("amdp", "Amdp.successors", "hot"),
    ("amdp", "Amdp.enabled_actions", "hot"),
    ("linked_store", "build", "span"),
    ("linked_store", "load_store", "span"),
    ("linked_store", "save_store", "span"),
    ("linked_store", "check_invariants", "span"),
    ("checker", "check", "span"),
    ("checker", "reach_values", "span"),
    ("checker", "extract_witness", "span"),
    ("anomaly", "run_loglik", "hot"),
    ("anomaly", "checkpoint_warnings", "hot"),
    ("anomaly", "prefix_stats", "span"),
    ("anomaly", "OfflineDetector.fit", "span"),
    ("anomaly", "RunMonitor.feed", "hot"),
    ("refinement", "verify_refine_loop", "span"),
    ("refinement", "refine_once", "span"),
    ("refinement", "concretize", "span"),
)

INVARIANTS = "linked_store.check_invariants"


class Tracer:
    """In-memory spans and hot-call aggregates of one CLI command."""

    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        self.main_thread = threading.get_ident()
        # Span records: [name, start, end, parent index, self seconds, attrs].
        self.spans: list[list] = []
        # (name, caller span name) -> [calls, total seconds, self seconds].
        self.hot: dict[tuple[str, str | None], list] = {}
        # Open calls: [child seconds, span index or None, name].
        self.stack: list[list] = []
        self.feed_s: list[float] = []
        self.alerts = 0
        self.invariant_violations: list[str] = []
        self.absent: list[str] = []

    def to_json_dict(self) -> dict:
        return {
            "cmd_id": self.cmd_id,
            "spans": [[*record[:5], self.cmd_id, record[5]] for record in self.spans],
            "hot": [[name, caller, *agg] for (name, caller), agg in sorted(self.hot.items(), key=str)],
            "feed_s": self.feed_s,
            "alerts": self.alerts,
            "invariant_violations": self.invariant_violations,
            "absent": self.absent,
        }


def _span_wrapper(tracer: Tracer, fn, name: str, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if threading.get_ident() != tracer.main_thread:
            return fn(*args, **kwargs)
        stack = tracer.stack
        parent = stack[-1] if stack else None
        record = [name, 0.0, 0.0, parent[1] if parent else None, 0.0, None]
        tracer.spans.append(record)
        frame = [0.0, len(tracer.spans) - 1, name]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            record[1], record[2], record[4] = start, end, end - start - frame[0]
            if parent is not None:
                parent[0] += end - start
        if observe is not None:
            record[5] = observe(tracer, result)
        return result

    return wrapper


def _hot_wrapper(tracer: Tracer, fn, name: str, observe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if threading.get_ident() != tracer.main_thread:
            return fn(*args, **kwargs)
        stack = tracer.stack
        parent = stack[-1] if stack else None
        frame = [0.0, None, name]
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            key = (name, parent[2] if parent else None)
            agg = tracer.hot.get(key)
            if agg is None:
                agg = tracer.hot[key] = [0, 0.0, 0.0]
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[0]
            if parent is not None:
                parent[0] += duration
        if observe is not None:
            observe(tracer, result, duration)
        return result

    return wrapper


# Result attributes kept per span, and side records of hot calls.

def _observe_log(tracer, log):
    return {"traces": len(log), "states": sum(trace.n_states for trace in log)}


def _observe_tree(tracer, tree):
    return {"leaves": tree.n_leaves}


def _observe_trie(tracer, trie):
    return {"nodes": trie.node_count}


def _observe_model(tracer, mdp):
    return {"states": len(mdp.states), "transitions": len(mdp.counts3)}


def _observe_build(tracer, store):
    """Checks the linked-store invariants of every store built (outside its span)."""
    check_invariants = getattr(sys.modules["tracemdp.linked_store"], "check_invariants", None)
    if check_invariants is None:
        return None
    violations = check_invariants(store)
    tracer.invariant_violations.extend(violations)
    return {"violations": len(violations)}


def _observe_check(tracer, result):
    return {"converged": bool(result.converged)}


def _observe_vi(tracer, result):
    return {"sweeps": result.iterations, "converged": bool(result.converged)}


def _observe_refine_loop(tracer, outcome):
    return {"iterations": len(outcome.iterations)}


def _observe_refine_once(tracer, result):
    return {"split": isinstance(result, tuple)}


def _observe_feed(tracer, alerts, duration):
    tracer.feed_s.append(duration)
    tracer.alerts += len(alerts)


OBSERVERS = {
    "trace_model.read_trace_log": _observe_log,
    "predicate_tree.build_initial_tree": _observe_tree,
    "trace_trie.rebuild": _observe_trie,
    "amdp.induce": _observe_model,
    "linked_store.build": _observe_build,
    "checker.check": _observe_check,
    "checker.reach_values": _observe_vi,
    "refinement.verify_refine_loop": _observe_refine_loop,
    "refinement.refine_once": _observe_refine_once,
    "anomaly.RunMonitor.feed": _observe_feed,
}


def install(tracer: Tracer) -> None:
    """Replaces each wrapped name where it is defined and where it was imported."""
    importlib.import_module("tracemdp.cli")
    package = [m for n, m in list(sys.modules.items()) if n == "tracemdp" or n.startswith("tracemdp.")]
    for module_name, qualname, mode in WRAPPED:
        name = f"{module_name}.{qualname}"
        owner = sys.modules.get(f"tracemdp.{module_name}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            tracer.absent.append(name)
            continue
        make = _span_wrapper if mode == "span" else _hot_wrapper
        wrapped = make(tracer, original, name, OBSERVERS.get(name))
        setattr(owner, attr, wrapped)
        if path:
            continue  # methods are looked up on the class
        for module in package:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def main(argv: list[str]) -> int:
    if len(argv) < 5 or argv[0] != "--spans" or argv[2] != "--cmd-id" or argv[4] != "--":
        print("usage: layers.py --spans OUT.json --cmd-id N -- <tracemdp args>", file=sys.stderr)
        return 2
    tracer = Tracer(int(argv[3]))
    try:
        install(tracer)
        return sys.modules["tracemdp.cli"].main(argv[5:])
    finally:
        with open(argv[1], "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json_dict(), fh)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pipeline
# ---------------------------------------------------------------------------

def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, min(len(ordered), round(q / 100.0 * len(ordered) + 0.5)))
    return ordered[rank - 1]


def layer_metrics(commands: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics of one traced pipeline, plus additivity problems.

    ``commands`` holds one dict per traced CLI command: ``name``, ``wall_s``
    (measured by the parent around the whole process) and ``trace`` (the
    span file the command wrote).
    """
    spans = []  # (command name, name, duration, self, attrs)
    hot: dict[tuple[str, str | None], list] = {}
    self_by_layer = {layer: 0.0 for layer in ("cli", *LAYERS)}
    feed_s: list[float] = []
    alerts = 0
    problems: list[str] = []
    unwrapped = 0.0
    for cmd in commands:
        trace = cmd["trace"]
        self_times = []
        for name, start, end, _parent, self_s, _cmd_id, attrs in trace["spans"]:
            spans.append((cmd["name"], name, end - start, self_s, attrs or {}))
            self_by_layer[name.split(".")[0]] += self_s
            self_times.append(self_s)
        for name, caller, calls, total, self_s in trace["hot"]:
            agg = hot.setdefault((name, caller), [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += total
            agg[2] += self_s
            self_by_layer[name.split(".")[0]] += self_s
            self_times.append(self_s)
        feed_s.extend(trace["feed_s"])
        alerts += trace["alerts"]
        rest = cmd["wall_s"] - sum(self_times)
        if rest < 0 or min(self_times, default=0.0) < -1e-6:
            problems.append(f"{cmd['name']}: layer self times do not fit in the command's wall time")
        unwrapped += rest

    def total(name: str) -> float:
        return sum(s[2] for s in spans if s[1] == name)

    def count(name: str) -> int:
        return sum(1 for s in spans if s[1] == name)

    def attr_sum(name: str, key: str) -> float:
        return sum(s[4].get(key, 0) for s in spans if s[1] == name)

    def first_attr(cmd_name: str, name: str, key: str) -> float:
        return next((s[4][key] for s in spans if s[0] == cmd_name and s[1] == name and key in s[4]), 0)

    def hot_sum(name: str, field: int, caller=None, exclude=None) -> float:
        return sum(
            agg[field]
            for (n, c), agg in hot.items()
            if n == name and (caller is None or c == caller) and (exclude is None or c != exclude)
        )

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    read_s = total("trace_model.read_trace_log")
    events = hot_sum("trace_model.parse_event_line", 0, caller="trace_model.read_trace_log")
    abstract_calls = hot_sum("predicate_tree.PredicateTree.abstract", 0, exclude=INVARIANTS)
    queries = ("amdp.Amdp.probability", "amdp.Amdp.successors", "amdp.Amdp.enabled_actions")
    iterations = attr_sum("refinement.verify_refine_loop", "iterations")
    attempts = count("refinement.refine_once")
    splits = sum(1 for s in spans if s[1] == "refinement.refine_once" and s[4].get("split"))

    metrics = {
        "trace_model.reads": count("trace_model.read_trace_log"),
        "trace_model.read_s": read_s,
        "trace_model.events": events,
        "trace_model.us_per_event": ratio(read_s * 1e6, events),
        "trace_model.parse_calls": hot_sum("trace_model.parse_event_line", 0),
        "predicate_tree.learn_s": total("predicate_tree.build_initial_tree"),
        "predicate_tree.gain_calls": hot_sum("predicate_tree.information_gain", 0),
        "predicate_tree.gain_s": hot_sum("predicate_tree.information_gain", 1),
        "predicate_tree.leaves": first_attr("learn", "predicate_tree.build_initial_tree", "leaves"),
        "predicate_tree.abstract_calls": abstract_calls,
        "predicate_tree.abstract_s": hot_sum("predicate_tree.PredicateTree.abstract", 1, exclude=INVARIANTS),
        "predicate_tree.abstract_per_state": ratio(abstract_calls, attr_sum("trace_model.read_trace_log", "states")),
        "trace_trie.rebuild_s": total("trace_trie.rebuild"),
        "trace_trie.nodes": first_attr("build", "trace_trie.rebuild", "nodes"),
        "amdp.induce_s": total("amdp.induce"),
        "amdp.label_s": total("amdp.label_by_terminal") + total("amdp.label_states"),
        "amdp.export_s": total("amdp.export_explicit"),
        "amdp.states": first_attr("build", "amdp.induce", "states"),
        "amdp.transitions": first_attr("build", "amdp.induce", "transitions"),
        "amdp.query_calls": sum(hot_sum(q, 0) for q in queries),
        "amdp.query_s": sum(hot_sum(q, 1) for q in queries),
        "linked_store.builds": count("linked_store.build"),
        "linked_store.build_s": total("linked_store.build"),
        "linked_store.load_s": total("linked_store.load_store"),
        "linked_store.save_s": total("linked_store.save_store"),
        "linked_store.invariants_s": total(INVARIANTS),
        "checker.checks": count("checker.check"),
        "checker.vi_s": total("checker.reach_values"),
        "checker.vi_sweeps": attr_sum("checker.reach_values", "sweeps"),
        "checker.witness_s": total("checker.extract_witness"),
        "checker.unconverged": sum(1 for s in spans if s[1] == "checker.check" and not s[4].get("converged", True)),
        "anomaly.loglik_calls": hot_sum("anomaly.run_loglik", 0),
        "anomaly.loglik_s": hot_sum("anomaly.run_loglik", 1),
        "anomaly.prefix_stats_s": total("anomaly.prefix_stats"),
        "anomaly.checkpoint_s": hot_sum("anomaly.checkpoint_warnings", 1),
        "anomaly.feed_calls": hot_sum("anomaly.RunMonitor.feed", 0),
        "anomaly.feed_s": hot_sum("anomaly.RunMonitor.feed", 1),
        "anomaly.feed_us_p50": _percentile(feed_s, 50) * 1e6,
        "anomaly.feed_us_p99": _percentile(feed_s, 99) * 1e6,
        "anomaly.alerts": alerts,
        "refinement.iterations": iterations,
        "refinement.split_attempts": attempts,
        "refinement.splits": splits,
        "refinement.split_yield": ratio(splits, attempts),
        "refinement.refine_once_s": total("refinement.refine_once"),
        "refinement.iteration_s": ratio(total("refinement.verify_refine_loop"), iterations),
    }
    for layer, self_s in self_by_layer.items():
        metrics[f"{layer}.self_s"] = self_s
    metrics["unwrapped_s"] = unwrapped
    return metrics, problems


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over several traced pipelines."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
