#!/usr/bin/env python3
"""Walkthrough: counterexample-guided refinement of a too-coarse abstraction.

Two behavioral regimes share their early abstract states under the initial
tree, so the induced MDP admits an action combination no real run ever
exhibited.  The checker's failure witness is therefore realized by none of
the routed runs; the loop splits the offending leaf and re-verifies.
"""

import json

from tracemdp.checker import parse_property
from tracemdp.linked_store import check_invariants
from tracemdp.predicate_tree import TreeConfig, build_initial_tree
from tracemdp.refinement import RefinementConfig, verify_refine_loop
from tracemdp.trace_model import ConcreteState, TerminalStatus, Trace, TraceLog


def snapshot(stage: int, mode: int) -> ConcreteState:
    return ConcreteState({}, {}, {"stage": stage, "mode": mode})


def run(trace_id: str, mode: int, actions: list[str], status: str) -> Trace:
    snaps = tuple(snapshot(i, mode) for i in range(len(actions) + 1))
    return Trace(trace_id, snaps, tuple(actions), TerminalStatus(status))


log = TraceLog()
for i in range(6):
    log.append(run(f"steady_{i}", 0, ["fetch", "merge"], "success"))
for i in range(5):
    log.append(run(f"faulty_{i}", 1, ["fetch2", "crash", "spin"], "failure"))

initial = build_initial_tree(log, TreeConfig(min_gain=0.15, min_leaf_size=6))
print(f"initial tree: {initial.n_leaves} leaves")
mid0 = initial.abstract(log[0].states[1])
mid1 = initial.abstract(log[6].states[1])
print(f"mid-run states of both regimes share leaf {mid0}: {mid0 == mid1}")

cfg = RefinementConfig(
    property=parse_property('Pmax<=0.3 [F "failure"]'),
    min_gain=0.15,
    max_iterations=10,
)
outcome = verify_refine_loop(
    log,
    initial,
    cfg,
    on_iteration=lambda store, entry: entry.setdefault(
        "invariant_violations", len(check_invariants(store))
    ),
)

print("\niteration log:")
for entry in outcome.iterations:
    print(" ", json.dumps(entry, sort_keys=True))

print(f"\noutcome: {outcome.kind}")
if outcome.witness_path is not None:
    print(f"witness: {outcome.witness_path}")
    print(f"supported by concrete records: {sorted(outcome.witness_refs)}")
