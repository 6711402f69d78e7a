"""Command-line front end.

Subcommands cover the whole pipeline: ``gen`` (synthetic corpus), ``learn``
(initial tree), ``build`` (linked store + explicit-state export), ``check``
(reachability query), ``score`` (offline anomaly report), ``monitor``
(streaming checkpoint warnings on a growing log), ``refine``
(verify-and-refine loop), ``export`` (re-export the model), and ``report``
(precision/recall/FPR against generator ground truth).

Exit codes: 0 ok, 1 a thresholded property is violated, 2 usage error,
3 data or configuration error.  Errors are reported as one JSON object on stderr.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
import time
from typing import Iterator

from . import __version__
from .amdp import LabelingConfig
from .anomaly import (
    DetectorConfig,
    OfflineDetector,
    RunMonitor,
    checkpoint_thresholds,
    prefix_stats,
    run_loglik,
    score_run,
)
from .checker import check, parse_property
from .errors import InvalidConfig, MalformedRecord, PropertySyntaxError, SchemaViolation, TraceMdpError
from .linked_store import build, load_store, load_store_inputs, save_store, write_model
from .predicate_tree import PredicateTree, TreeConfig, abstract_trace, build_initial_tree
from .refinement import RefinementConfig, verify_refine_loop
from .trace_model import SnapshotTable, parse_event_line, read_trace_log

# Every module the traced benchmark wraps is imported above, at module
# level; only the generator, the one module that needs numpy when it is
# imported, waits for ``gen``.

JSON_KW = {"sort_keys": True, "separators": (",", ":")}


def _print_json(obj: object, out=None) -> None:
    print(json.dumps(obj, **JSON_KW), file=out or sys.stdout)


def _tree_config(args: argparse.Namespace) -> TreeConfig:
    return TreeConfig(
        min_gain=args.gamma,
        max_depth=args.max_depth,
        max_leaves=args.max_leaves,
        min_leaf_size=args.min_leaf,
    )


def _labeling(args: argparse.Namespace) -> LabelingConfig:
    rules = ()
    if getattr(args, "labels", None):
        with open(args.labels, "r", encoding="utf-8") as fh:
            try:
                rules = LabelingConfig.from_json_dict({"rules": json.load(fh)}).rules
            except (KeyError, TypeError, ValueError) as exc:
                raise InvalidConfig(
                    f"label rules {args.labels!r} are malformed: {type(exc).__name__}: {exc}"
                ) from None
    return LabelingConfig(
        terminal_labels=not args.no_terminal_labels,
        success_mode=args.success_mode,
        failure_mode=args.failure_mode,
        rules=rules,
    )


def _checkpoints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise InvalidConfig(f"checkpoints must be comma-separated integers, got {text!r}") from None


def _detector_setup(args) -> tuple:
    """(store, detector config, checkpoint thresholds of the store's training runs)."""
    store = load_store(args.store)
    cfg = DetectorConfig(alpha=args.alpha, checkpoints=_checkpoints(args.checkpoints))
    stats = prefix_stats(store.runs, store.model, cfg.checkpoints)
    return store, cfg, checkpoint_thresholds(stats, cfg.alpha)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_gen(args) -> int:
    from .generator import GeneratorConfig, generate_corpus

    cfg = GeneratorConfig()
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                cfg = GeneratorConfig.from_json_dict(json.load(fh))
            except (TypeError, ValueError) as exc:
                raise InvalidConfig(
                    f"generator config {args.config!r} is malformed: {type(exc).__name__}: {exc}"
                ) from None
    paths = generate_corpus(cfg, args.out)
    _print_json(
        {"baseline": paths.baseline, "anomalous": paths.anomalous, "sidecar": paths.sidecar}
    )
    return 0


def _cmd_learn(args) -> int:
    log = read_trace_log(args.log)
    tree = build_initial_tree(log, _tree_config(args))
    tree.save(args.out)
    _print_json({"tree": args.out, "leaves": tree.n_leaves})
    return 0


def _cmd_build(args) -> int:
    log = read_trace_log(args.log)
    tree = PredicateTree.load(args.tree)
    store = build(log, tree, _labeling(args))
    save_store(store, args.out, args.log)
    _print_json(
        {
            "store": args.out,
            "states": store.model.n_states,
            "transitions": len(store.model.counts3),
            "labels": store.model.label_ids(),
            "mixed": {k: sorted(v) for k, v in sorted(store.mixed.items()) if v},
        }
    )
    return 0


def _cmd_check(args) -> int:
    query = parse_property(args.prop)
    if args.log:
        store = build(*load_store_inputs(args.store, args.log))
    else:
        store = load_store(args.store)
    result = check(store.model, query, epsilon=args.epsilon)
    _print_json(result.to_json_dict())
    return 1 if result.verdict is False else 0


def _cmd_score(args) -> int:
    store, cfg, thresholds = _detector_setup(args)
    detector = OfflineDetector(cfg).fit(run_loglik(store.model, run) for run in store.runs)

    target_log = read_trace_log(args.log)
    if target_log.schema not in (None, store.schema):
        raise SchemaViolation(f"log {args.log!r} does not match the store's training schema")
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for trace in target_log:
            run = abstract_trace(store.tree, trace)
            score, warnings = score_run(store.model, run, thresholds)
            _print_json(
                {
                    "trace_id": trace.trace_id,
                    "loglik": score.loglik if score.finite else None,
                    "length": score.length,
                    "verdict": "anomalous" if detector.flag(score) else "normal",
                    "checkpoint_warnings": warnings,
                    "unseen_transition_at": score.unseen_transition_at,
                },
                out,
            )
    finally:
        if args.out:
            out.close()
    return 0


def _interval(text: str) -> float:
    """A finite, non-negative number of seconds (argparse type of ``--interval``)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"must be a finite number of seconds >= 0, got {text!r}")
    return value


def _follow(path: str, once: bool, interval: float) -> Iterator[str]:
    """Yields the lines of a growing file; at its end, returns (``once``) or polls.

    A partial trailing line is completed before it is yielded, except under
    ``once``, which yields it as it stands.
    """
    with open(path, "r", encoding="utf-8") as fh:
        buffered = ""
        while True:
            buffered += fh.readline()
            if buffered.endswith("\n"):
                yield buffered
                buffered = ""
            elif once:
                if buffered:
                    yield buffered
                return
            else:
                time.sleep(interval)


# Snapshots the monitor interns at most; the table is emptied at this size,
# so an endless stream keeps flat memory.
MONITOR_SNAPSHOTS = 1024


def _cmd_monitor(args) -> int:
    store, _cfg, thresholds = _detector_setup(args)
    table = SnapshotTable(store.schema)

    monitors: dict[str, RunMonitor] = {}
    # Each open run's last snapshot and its abstract state: a step's pre is
    # routed only when it differs from the previous step's post.
    last: dict[str, tuple[object, int | None]] = {}
    for line in _follow(args.follow, args.once, args.interval):
        line = line.strip()
        if not line:
            continue
        event = parse_event_line(line, table)
        if len(table) >= MONITOR_SNAPSHOTS:
            table.clear()
        if event.kind == "terminal":
            monitors.pop(event.trace_id, None)
            last.pop(event.trace_id, None)
            continue
        if event.kind == "initial":
            last[event.trace_id] = (event.state, None)  # routed when a step starts there
            continue
        previous = last.get(event.trace_id)
        if event.pre is not None and (previous is None or event.pre != previous[0]):
            src = store.tree.abstract(event.pre)
        elif previous is None:
            raise TraceMdpError(f"trace {event.trace_id!r}: no pre snapshot available")
        elif previous[1] is None:
            src = store.tree.abstract(previous[0])
        else:
            src = previous[1]
        dst = store.tree.abstract(event.post)
        last[event.trace_id] = (event.post, dst)
        monitor = monitors.get(event.trace_id)
        if monitor is None:
            monitor = monitors[event.trace_id] = RunMonitor(store.model, thresholds)
        for alert in monitor.feed(src, event.action, dst):
            _print_json({"trace_id": event.trace_id, **alert})
            sys.stdout.flush()
    return 0


def _cmd_refine(args) -> int:
    query = parse_property(args.prop)
    log, tree, labeling = load_store_inputs(args.store)
    cfg = RefinementConfig(
        property=query,
        min_gain=args.gamma,
        max_depth=args.max_depth,
        max_leaves=args.max_leaves,
        max_iterations=args.max_iters,
        min_leaf_size=args.min_leaf,
    )
    outcome = verify_refine_loop(log, tree, cfg, labeling)
    if args.iteration_log:
        with open(args.iteration_log, "w", encoding="utf-8") as fh:
            for entry in outcome.iterations:
                fh.write(json.dumps(entry, **JSON_KW) + "\n")
    _print_json(
        {
            "outcome": outcome.kind,
            "reason": outcome.reason,
            "iterations": outcome.iterations,
            "witness": None
            if outcome.witness_path is None
            else {
                "states": list(outcome.witness_path.states),
                "actions": list(outcome.witness_path.actions),
                "refs": sorted(list(r) for r in (outcome.witness_refs or ())),
            },
        }
    )
    return 1 if outcome.kind == "real_counterexample" else 0


def _cmd_export(args) -> int:
    if args.format != "prism-explicit":
        raise TraceMdpError(f"unsupported export format {args.format!r}")
    store = load_store(args.store)
    os.makedirs(args.out, exist_ok=True)
    tra_path, lab_path = write_model(store.model, args.out)
    _print_json({"transitions": tra_path, "labels": lab_path})
    return 0


def _read_records(path: str, keys: tuple[str, ...]) -> Iterator[dict]:
    """Yields a JSONL file's records; a line that is not an object with string ``keys`` is MalformedRecord."""
    with open(path, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                record = None
            if not (isinstance(record, dict) and all(isinstance(record.get(key), str) for key in keys)):
                raise MalformedRecord(f"{path}:{number}: not a JSON object with string {', '.join(keys)}")
            yield record


def _cmd_report(args) -> int:
    truth = {
        record["trace_id"]: record["anomaly"]
        for record in _read_records(args.truth, ("trace_id", "anomaly"))
    }

    per_kind: dict[str, dict[str, int]] = {}
    negatives = {"n": 0, "flagged": 0}
    flagged_total = 0
    true_positives = 0
    for record in _read_records(args.scores, ("trace_id", "verdict")):
        flagged = record["verdict"] == "anomalous"
        kind = truth.get(record["trace_id"])
        if flagged:
            flagged_total += 1
        if kind is None:
            negatives["n"] += 1
            negatives["flagged"] += int(flagged)
        else:
            row = per_kind.setdefault(kind, {"n": 0, "flagged": 0})
            row["n"] += 1
            row["flagged"] += int(flagged)
            true_positives += int(flagged)

    summary = {
        "per_anomaly_recall": {
            kind: (row["flagged"] / row["n"] if row["n"] else None)
            for kind, row in sorted(per_kind.items())
        },
        "counts": {"per_anomaly": per_kind, "negatives": negatives},
        "precision": (true_positives / flagged_total) if flagged_total else None,
        "fpr": (negatives["flagged"] / negatives["n"]) if negatives["n"] else None,
    }
    if args.json:
        _print_json(summary)
    else:
        print(f"{'class':<16}{'n':>8}{'flagged':>10}{'recall':>10}")
        for kind, row in sorted(per_kind.items()):
            recall = row["flagged"] / row["n"] if row["n"] else float("nan")
            print(f"{kind:<16}{row['n']:>8}{row['flagged']:>10}{recall:>10.3f}")
        if negatives["n"]:
            fpr = negatives["flagged"] / negatives["n"]
            print(f"{'baseline':<16}{negatives['n']:>8}{negatives['flagged']:>10}{fpr:>10.3f}  (FPR)")
        if flagged_total:
            print(f"precision: {true_positives / flagged_total:.3f}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_tree_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--gamma", type=float, default=0.01, help="min information gain in bits")
    p.add_argument("--max-depth", type=int, default=12)
    p.add_argument("--max-leaves", type=int, default=256)
    p.add_argument("--min-leaf", type=int, default=5)


def _add_detector_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument(
        "--checkpoints",
        default=",".join(str(k) for k in range(10, 201, 10)),
        help="comma-separated prefix lengths",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tracemdp", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic file-ops corpus")
    p.add_argument("--config", help="generator config JSON (defaults if omitted)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("learn", help="learn an initial predicate tree from a log")
    p.add_argument("--log", required=True)
    p.add_argument("--out", required=True)
    _add_tree_flags(p)
    p.set_defaults(func=_cmd_learn)

    p = sub.add_parser("build", help="build a linked store with PRISM export")
    p.add_argument("--log", required=True)
    p.add_argument("--tree", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--labels", help="JSON file with label rules")
    p.add_argument("--no-terminal-labels", action="store_true")
    p.add_argument("--success-mode", choices=["all", "any"], default="all")
    p.add_argument("--failure-mode", choices=["all", "any"], default="any")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("check", help="evaluate a reachability property")
    p.add_argument("--store", required=True)
    p.add_argument("--prop", required=True)
    p.add_argument("--log", help="override the manifest's log path")
    p.add_argument("--epsilon", type=float, default=1e-8)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("score", help="score runs against the stored model")
    p.add_argument("--store", required=True)
    p.add_argument("--log", required=True)
    p.add_argument("--out", help="write the JSONL report here instead of stdout")
    _add_detector_flags(p)
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("monitor", help="stream checkpoint warnings from a growing log")
    p.add_argument("--store", required=True)
    p.add_argument("--follow", required=True)
    p.add_argument("--once", action="store_true", help="stop at end of file")
    p.add_argument("--interval", type=_interval, default=0.2)
    _add_detector_flags(p)
    p.set_defaults(func=_cmd_monitor)

    p = sub.add_parser("refine", help="run the verify-and-refine loop")
    p.add_argument("--store", required=True)
    p.add_argument("--prop", required=True)
    p.add_argument("--max-iters", type=int, default=20)
    p.add_argument("--iteration-log", help="write per-iteration JSONL here")
    _add_tree_flags(p)
    p.set_defaults(func=_cmd_refine, min_leaf=1)

    p = sub.add_parser("export", help="re-export the stored model")
    p.add_argument("--store", required=True)
    p.add_argument("--format", default="prism-explicit")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("report", help="precision/recall/FPR against ground truth")
    p.add_argument("--scores", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PropertySyntaxError as exc:
        _print_json({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        return 2
    except TraceMdpError as exc:
        _print_json({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as exc:
        _print_json({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        return 3


def run() -> None:
    """Process entry: exits with ``main()``'s code, skipping the collector at exit.

    Freezing moves every live object out of the collector's reach, so
    interpreter shutdown does not walk the imported modules' objects.
    ``main`` itself leaves the collector alone, as callers in a running
    process need it.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
