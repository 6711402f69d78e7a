"""Identity oracle: the benchmark's CLI flow must give the same bytes under two source trees.

    python3 tools/identity.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories holding a ``tracemdp`` package,
such as the ``src`` directories of two checkouts.  For the desk, deep and
x10 workloads of ``perfbench/workloads.json`` at seeds 0 and 1, the script
generates each corpus with ``perfbench/corpus.make_corpus`` under each
source tree, in a process whose ``PYTHONPATH`` holds that tree, and
compares the corpus files (``baseline.jsonl``, ``anomalous.jsonl``,
``anomalies.jsonl``, ``train.jsonl``) byte for byte; if any differ, it
prints them and exits 1.  It then runs the command sequence of
``perfbench/run.commands`` under each source tree, followed by one more
refine (``EXTRA_REFINE``) that ends with a realized witness on the deep
store, so its refs are compared too, and a labeled flow
(``labeled_flow``): a second ``build`` with a rule file (``RULES``: a
``bool_eq`` rule on ``opsCompleted`` named ``success``, so it adds to the
terminal ``success`` label, plus two rule-only labels, ``stalled``, an
``all``-mode rule on ``opsCompleted == false``, and ``visited``, an
``any``-mode rule with no atoms, which holds everywhere) and non-default
``--success-mode any --failure-mode all``, a ``check`` of the first
rule's label and an ``export``,
then two more ``build --labels`` (``WRONGLY_TYPED``) whose rules compare
the text goal variable ``task`` as a number and as a boolean, so that the
exit code and error text of each are compared and no store may be written,
then a detector flow (``detector_flow``): ``score`` and ``monitor --once``
on the anomalous log with non-default ``DETECTOR_FLAGS``, so that both the
run-level and the checkpoint thresholds are compared at another alpha,
then a typed flow (``typed_flow``): the training log rewritten by
``write_typed_log``, so that each snapshot also holds a float, a nested
list and a ``-0.0`` (values the generator never writes), run through
``learn --gamma 0 --min-leaf 1``, ``build``, ``check``, ``score``,
``monitor --once`` and ``export``.  One process per command, with
``--iteration-log`` added to each refine.
Every command's standard output, standard error and exit code are kept
next to the files the commands write (the stores, ``scores.jsonl``, each
refine's iteration log, the exports).  ``diff -r`` then compares the two
trees' outputs; the script prints the differences and exits 1 if there are
any, else 0.  It then names each differing file that parses as JSON or as
JSON lines on both sides (``json_values``): ``float-only, max N ulps`` when
the two values differ only in float leaves, at most N units in the last
place apart (``max_ulps``), else ``structural``.

Both trees' flows read PARENT_SRC's corpus files (and the typed log written
from them), so the training-log path a store's manifest records is the
same on both sides.  Nothing is
written into either source tree or into ``perfbench/``: processes run
with ``PYTHONDONTWRITEBYTECODE=1`` and all files go to a temporary
directory that is removed at the end.
"""

from __future__ import annotations

import filecmp
import hashlib
import json
import os
import struct
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("desk", "deep", "x10")
SEEDS = (0, 1)
EXTRA_REFINE = ("refine", ["refine", "--store", "store", "--prop", 'Pmax<=0.5 [F "failure"]', "--max-iters", "3"])
RULES = [{"name": "success", "mode": "all",
          "atoms": [{"type": "bool_eq", "var": "opsCompleted", "expected": True}]},
         {"name": "stalled", "mode": "all",
          "atoms": [{"type": "bool_eq", "var": "opsCompleted", "expected": False}]},
         {"name": "visited", "mode": "any", "atoms": []}]
WRONGLY_TYPED = {
    "task-num": [{"name": "late", "mode": "any", "atoms": [{"type": "num_gt", "var": "task", "threshold": 1}]}],
    "task-bool": [{"name": "done", "mode": "all", "atoms": [{"type": "bool_eq", "var": "task", "expected": True}]}],
}
DETECTOR_FLAGS = ["--alpha", "0.2", "--checkpoints", "5,15,40"]
MAKE_CORPUS = "import json, sys; from corpus import make_corpus; print(json.dumps(make_corpus(*json.loads(sys.argv[1]))))"


def _env(src: str) -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}


def generate(src: str, args: list) -> dict:
    """``make_corpus(*args)`` with the generator of ``src``; the corpus paths it returns."""
    env = {**_env(src), "PYTHONPATH": src + os.pathsep + PERFBENCH}
    proc = subprocess.run(
        [sys.executable, "-c", MAKE_CORPUS, json.dumps(args)],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    return json.loads(proc.stdout)


def differing_files(a_dir: str, b_dir: str) -> list[str]:
    """Names of the files that are not byte-identical in both directories."""
    names = sorted(set(os.listdir(a_dir)) | set(os.listdir(b_dir)))
    _, mismatch, errors = filecmp.cmpfiles(a_dir, b_dir, names, shallow=False)
    return mismatch + errors


def json_values(path: str):
    """The file's JSON value, else the list of its non-blank lines' JSON values; None if neither."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            return json.loads(text)
        except ValueError:
            return [json.loads(line) for line in text.splitlines() if line.strip()]
    except ValueError:
        return None


def _ordinal(x: float) -> int:
    """The float's rank among doubles: adjacent doubles differ by 1, and -0.0 sits just below 0.0."""
    (bits,) = struct.unpack("<q", struct.pack("<d", x))
    return bits if bits >= 0 else bits ^ 0x7FFFFFFFFFFFFFFF


def max_ulps(a, b) -> int | None:
    """The largest ulp distance between matching float leaves of two JSON values.

    None when they differ in anything but float leaves: a type, a key or
    its order, a length, or a non-float leaf.
    """
    if type(a) is not type(b):
        return None
    if isinstance(a, float):
        return abs(_ordinal(a) - _ordinal(b))
    if isinstance(a, dict):
        if list(a) != list(b):
            return None
        parts = [max_ulps(a[key], b[key]) for key in a]
    elif isinstance(a, list):
        if len(a) != len(b):
            return None
        parts = [max_ulps(x, y) for x, y in zip(a, b)]
    else:
        return 0 if a == b else None
    return None if None in parts else max(parts, default=0)


def json_differences(a_dir: str, b_dir: str) -> list[str]:
    """``PATH: float-only, max N ulps`` or ``PATH: structural`` for each file under both
    directories that differs and parses as JSON or JSON lines on both sides."""
    lines = []
    for root, dirs, files in os.walk(a_dir):
        dirs.sort()
        for name in sorted(files):
            rel = os.path.relpath(os.path.join(root, name), a_dir)
            a, b = os.path.join(a_dir, rel), os.path.join(b_dir, rel)
            if not os.path.isfile(b) or filecmp.cmp(a, b, shallow=False):
                continue
            a_value, b_value = json_values(a), json_values(b)
            if a_value is None or b_value is None:
                continue
            ulps = max_ulps(a_value, b_value)
            lines.append(f"{rel}: " + ("structural" if ulps is None else f"float-only, max {ulps} ulps"))
    return lines


def labeled_flow(train: str) -> list[tuple[str, list[str]]]:
    """Builds a second store with ``RULES`` and non-default modes, checks the rule's label, exports
    it, then tries a build with each rule file of ``WRONGLY_TYPED``."""
    return [
        ("build", ["build", "--log", train, "--tree", "tree.json", "--out", "labeled", "--labels", "rules.json",
                   "--success-mode", "any", "--failure-mode", "all"]),
        ("check", ["check", "--store", "labeled", "--prop", f'Pmax=? [F "{RULES[0]["name"]}"]']),
        ("export", ["export", "--store", "labeled", "--out", "labeled-exported"]),
        *(("build", ["build", "--log", train, "--tree", "tree.json", "--out", name, "--labels", f"{name}.json"])
          for name in WRONGLY_TYPED),
    ]


def detector_flow(anomalous: str) -> list[tuple[str, list[str]]]:
    """Scores and monitors the anomalous log against the first store with ``DETECTOR_FLAGS``."""
    return [
        ("score", ["score", "--store", "store", "--log", anomalous, "--out", "detector-scores.jsonl",
                   *DETECTOR_FLAGS]),
        ("monitor", ["monitor", "--store", "store", "--follow", anomalous, "--once", *DETECTOR_FLAGS]),
    ]


def write_typed_log(train: str, out: str) -> None:
    """Copies the training log, adding ``ratio``, ``items`` and ``zero`` to each snapshot's state.

    The values are a function of the snapshot, so a step's ``pre`` still
    equals the previous ``post``: ``ratio`` one of seven floats in [-0.5,
    1.0], ``items`` a list of zero to two entries, the first a nested list
    of an int, a float and a bool, and ``zero`` always ``-0.0``.
    """
    with open(train, "r", encoding="utf-8") as src, open(out, "w", encoding="utf-8") as dst:
        for line in src:
            record = json.loads(line)
            for key in ("pre", "post", "state"):
                snapshot = record.get(key)
                if isinstance(snapshot, dict):
                    blob = json.dumps(snapshot, sort_keys=True).encode("utf-8")
                    n = int(hashlib.sha256(blob).hexdigest()[:8], 16)
                    items = [[n % 3, (n % 5) * 0.5, n % 2 == 0], "x"][: n % 3]
                    snapshot["state"].update(ratio=(n % 7) / 4 - 0.5, items=items, zero=-0.0)
            dst.write(json.dumps(record, sort_keys=True) + "\n")


def typed_flow(typed: str) -> list[tuple[str, list[str]]]:
    """Learns a deep tree on the typed log, then builds, checks, scores, monitors and exports it."""
    return [
        ("learn", ["learn", "--log", typed, "--out", "typed-tree.json", "--gamma", "0", "--min-leaf", "1"]),
        ("build", ["build", "--log", typed, "--tree", "typed-tree.json", "--out", "typed"]),
        ("check", ["check", "--store", "typed", "--prop", 'Pmax=? [F "success"]']),
        ("score", ["score", "--store", "typed", "--log", typed, "--out", "typed-scores.jsonl"]),
        ("monitor", ["monitor", "--store", "typed", "--follow", typed, "--once"]),
        ("export", ["export", "--store", "typed", "--out", "typed-exported"]),
    ]


def run_flow(commands: list[tuple[str, list[str]]], src: str, out_dir: str) -> None:
    """Runs the command sequence under ``src`` in ``out_dir``, keeping every output."""
    os.makedirs(out_dir)
    for name, rules in {"rules": RULES, **WRONGLY_TYPED}.items():
        with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(rules, fh)
    for i, (name, args) in enumerate(commands):
        stem = os.path.join(out_dir, f"{i:02d}-{name}")
        if name == "refine":
            args = [*args, "--iteration-log", f"{i:02d}-iterations.jsonl"]
        with open(stem + ".out", "wb") as out, open(stem + ".err", "wb") as err:
            proc = subprocess.run(
                [sys.executable, "-m", "tracemdp.cli", *args],
                cwd=out_dir, stdout=out, stderr=err, env=_env(src),
            )
        with open(stem + ".rc", "w", encoding="utf-8") as fh:
            fh.write(f"{proc.returncode}\n")


def main(argv: list[str]) -> int:
    if len(argv) != 2 or not all(os.path.isfile(os.path.join(p, "tracemdp", "cli.py")) for p in argv):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        print("each argument must be a directory holding tracemdp/cli.py", file=sys.stderr)
        return 2
    parent_src, change_src = (os.path.abspath(p) for p in argv)
    sys.path.insert(0, PERFBENCH)
    from run import commands

    with open(os.path.join(PERFBENCH, "workloads.json"), "r", encoding="utf-8") as fh:
        workloads = json.load(fh)["workloads"]
    with tempfile.TemporaryDirectory(prefix="tracemdp-identity-") as work:
        sides = {"parent": parent_src, "change": change_src}
        for name in WORKLOADS:
            workload = workloads[name]
            for seed in SEEDS:
                case = f"{name}-{seed}"
                gen = workload["generator"]
                corpora = {side: os.path.join(work, "corpus", side, case) for side in sides}
                paths = {
                    side: generate(src, [seed, gen["n_baseline"], gen["n_anomalous"], corpora[side],
                                         workload["train"] != "baseline"])
                    for side, src in sides.items()
                }
                different = differing_files(corpora["parent"], corpora["change"])
                if different:
                    print(f"DIFFERENT corpus files for {case}: {', '.join(different)}")
                    return 1
                corpus = paths["parent"]
                typed = os.path.join(corpora["parent"], "typed.jsonl")
                write_typed_log(corpus["train"], typed)
                flow = [*commands(workload, corpus), EXTRA_REFINE, *labeled_flow(corpus["train"]),
                        *detector_flow(corpus["anomalous"]), *typed_flow(typed)]
                for side, src in sides.items():
                    run_flow(flow, src, os.path.join(work, side, case))
                print(f"{case}: ran {len(flow)} commands under each tree", flush=True)
        diff = subprocess.run(
            ["diff", "-r", os.path.join(work, "parent"), os.path.join(work, "change")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        print(diff.stdout, end="")
        for line in json_differences(os.path.join(work, "parent"), os.path.join(work, "change")):
            print(line)
    if diff.returncode == 0:
        print(f"identical: {len(WORKLOADS) * len(SEEDS)} flows, stdout, stderr, exit codes and files")
        return 0
    print("DIFFERENT: see diff -r output above")
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
