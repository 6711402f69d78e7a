"""Alternating pairs: the benchmark under two checkouts, and whether a gain clears the bar.

    python3 tools/pairs.py PARENT_ROOT CHANGE_ROOT WORKLOAD [PAIRS]

PARENT_ROOT and CHANGE_ROOT are the roots of two checkouts, each holding
``perfbench/run.py``.  Pair i runs ``perfbench/run.py --workload WORKLOAD
--seed i`` under both, for the run length that PARENT_ROOT's
``BENCHMARK.json`` sets; the parent runs first in even pairs and the change
in odd ones.  PAIRS defaults to 10.

For every end-to-end metric of ``BENCHMARK.json`` the script prints each
side's median and quartiles, the pairs the change won (ties count for
neither side) and whether the gain clears the bar for a claim: the change
wins at least nine tenths of the pairs, and its median is better than the
parent's by more than the distance between the parent's quartiles.  Next
to that it prints the change's median relative to the parent's against
the metric's ``bound``, and marks a metric whose median got worse by more
than its bound.  It also marks a metric as unresolved when the parent's
quartile spread, relative to its median, is wider than the bound, unless
every run of the change beats every run of the parent: a spread that
wide cannot tell a change within the bound from one past it.  It exits 1
if any run reports ``correct: false`` or gives no result line.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys

DEFAULT_PAIRS = 10


def run_bench(root: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The last stdout line of one benchmark run, parsed; None if it is not a result."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, stdout=subprocess.PIPE, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "correct" in result else None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """One line: both sides' quartiles, the change's wins and whether they clear the bar,
    the change of the median against the metric's regression bound, and whether
    the parent's spread is too wide for that bound to be resolved."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, p_med, p3 = quartiles(parent)
    c1, c_med, c3 = quartiles(change)
    gain = sign * (c_med - p_med)
    clears = wins >= math.ceil(0.9 * len(parent)) and gain > p3 - p1
    relative = (c_med - p_med) / p_med
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    unresolved = (p3 - p1) / p_med > bound and not beats_all
    return (
        f"parent {p_med:.6g} [{p1:.6g}, {p3:.6g}]  change {c_med:.6g} [{c1:.6g}, {c3:.6g}]  "
        f"wins {wins}/{len(parent)}  gain {gain:+.6g} vs parent spread {p3 - p1:.6g}  "
        f"{'CLEARS' if clears else 'does not clear'} the bar  "
        f"median {relative:+.1%} vs bound {bound:.0%}"
        + ("  WORSE than its bound" if -sign * relative > bound else "")
        + ("  UNRESOLVED: parent spread wider than its bound" if unresolved else "")
    )


def main(argv: list[str]) -> int:
    if len(argv) not in (3, 4) or not all(
        os.path.isfile(os.path.join(root, "perfbench", "run.py")) for root in argv[:2]
    ):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("each root must hold perfbench/run.py", file=sys.stderr)
        return 2
    parent_root, change_root = (os.path.abspath(root) for root in argv[:2])
    workload = argv[2]
    pairs = int(argv[3]) if len(argv) == 4 else DEFAULT_PAIRS
    with open(os.path.join(parent_root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)

    sides = {"parent": parent_root, "change": change_root}
    results: dict[str, list[dict]] = {"parent": [], "change": []}
    ok = True
    for seed in range(pairs):
        order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_bench(sides[side], workload, seed, bench["run_seconds"])
            if result is None or not result["correct"]:
                ok = False
                print(f"pair {seed} {side}: " + ("no result line" if result is None
                                                  else f"correct: false, {result['failed']} failed"))
            results[side].append(result or {"metrics": {}})
        summary = "  ".join(
            f"{side} {m['name']} {results[side][-1]['metrics'].get(m['name'], {}).get('value', math.nan):.6g}"
            for side in ("parent", "change") for m in bench["end_to_end"]
        )
        print(f"pair {seed} ({order[0]} first): {summary}", flush=True)

    print(f"# {workload}: {pairs} alternating pairs of {bench['run_seconds']} s runs")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = {
            side: [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            for side, runs in results.items()
        }
        if len(values["parent"]) != pairs or len(values["change"]) != pairs:
            print(f"{name}: missing from some runs")
            continue
        print(f"{name} ({metric['unit']}, {metric['better']} is better): "
              + verdict(values["parent"], values["change"], metric["better"], metric["bound"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
