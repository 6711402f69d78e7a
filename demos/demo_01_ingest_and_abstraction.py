#!/usr/bin/env python3
"""Walkthrough: from raw JSONL tool-call events to a learned state abstraction.

Generates a small synthetic file-ops corpus, ingests it into typed traces,
learns a predicate tree by information gain over next actions, and shows how
concrete snapshots route to abstract states.
"""

import tempfile
from collections import Counter

from tracemdp.generator import GeneratorConfig, generate_corpus
from tracemdp.predicate_tree import TreeConfig, abstract_trace, build_initial_tree
from tracemdp.trace_model import PARTITIONS, read_trace_log

with tempfile.TemporaryDirectory(prefix="tracemdp-demo1-") as workdir:
    paths = generate_corpus(GeneratorConfig(seed=42, n_baseline=200, n_anomalous=0), workdir)
    print(f"wrote corpus under {workdir} (removed once it is read)")
    log = read_trace_log(paths.baseline)
print(f"\ningested {len(log)} traces, {log.n_transitions} transitions")
print("schema:")
variables = (
    (name, partition, kind) for partition, names in zip(PARTITIONS, log.schema) for name, kind in names.items()
)
for name, partition, kind in sorted(variables):
    print(f"  {name:<18} {partition:<6} {kind}")

tree = build_initial_tree(log, TreeConfig())
print(f"\nlearned predicate tree with {tree.n_leaves} leaves:")
print(tree.to_json())

runs = [abstract_trace(tree, trace) for trace in log]
print(f"trace {log[0].trace_id!r} routes through abstract states:")
print(" ", runs[0])

distinct = Counter(runs)
print(f"\n{len(runs)} routed runs, {len(distinct)} distinct abstract runs; the most frequent:")
for run, count in distinct.most_common(3):
    print(f"  x{count:<4} {run}")
