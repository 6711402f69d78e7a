#!/usr/bin/env python3
"""Walkthrough: induce the behavioral MDP and check reachability bounds.

Builds the linked store (tree + routed runs + MDP with terminal-status labels),
evaluates Pmax/Pmin reachability templates, inspects the diagnostic witness,
and exports the model in the PRISM explicit-state text format.
"""

import tempfile

from tracemdp.amdp import export_explicit
from tracemdp.checker import check, parse_property
from tracemdp.generator import GeneratorConfig, generate_corpus
from tracemdp.linked_store import build
from tracemdp.predicate_tree import TreeConfig, build_initial_tree
from tracemdp.trace_model import read_trace_log

with tempfile.TemporaryDirectory(prefix="tracemdp-demo2-") as workdir:
    paths = generate_corpus(GeneratorConfig(seed=7, n_baseline=300, n_anomalous=0), workdir)
    log = read_trace_log(paths.baseline)
tree = build_initial_tree(log, TreeConfig())
store = build(log, tree)

model = store.model  # the one model the checker, the export and the scorer read
print(f"MDP: {model.n_states} states, {len(model.counts3)} transitions")
print(f"labels: {model.label_ids()}")
print(f"initial states (multiset): {dict(model.initial)}")

for prop in ('Pmax=? [F "success"]', 'Pmin=? [F "success"]', 'Pmin<=0.05 [F "failure"]'):
    result = check(model, parse_property(prop))
    verdict = "" if result.verdict is None else f"  verdict={'ok' if result.verdict else 'VIOLATED'}"
    print(f"\n{prop}")
    print(f"  value at modal initial = {result.value:.6f}{verdict}")
    print(f"  per initial state: { {k: round(v, 6) for k, v in result.per_initial.items()} }")
    if result.witness is not None:
        print(f"  witness path: {result.witness.path} (p={result.witness.probability:.4f})")

tra, lab = export_explicit(model)
print("\nPRISM explicit-state transitions file:")
print(tra, end="")
print("labels file:")
print(lab, end="")
