#!/usr/bin/env python3
"""Walkthrough: from raw JSONL tool-call events to a learned state abstraction.

Generates a small synthetic file-ops corpus, ingests it into typed traces,
learns a predicate tree by information gain over next actions, and shows how
concrete snapshots route to abstract states.
"""

import tempfile

from tracemdp.generator import GeneratorConfig, generate_corpus
from tracemdp.predicate_tree import TreeConfig, build_initial_tree
from tracemdp.trace_model import read_trace_log
from tracemdp.trace_trie import abstract_trace, rebuild

with tempfile.TemporaryDirectory(prefix="tracemdp-demo1-") as workdir:
    paths = generate_corpus(GeneratorConfig(seed=42, n_baseline=200, n_anomalous=0), workdir)
    print(f"wrote corpus under {workdir} (removed once it is read)")
    log = read_trace_log(paths.baseline)
print(f"\ningested {len(log)} traces, {log.n_transitions} transitions")
print("schema:")
for name, (partition, kind) in sorted(log.schema.items()):
    print(f"  {name:<18} {partition:<6} {kind}")

tree = build_initial_tree(log, TreeConfig())
print(f"\nlearned predicate tree with {tree.n_leaves} leaves:")
print(tree.to_json())

runs = [abstract_trace(tree, trace) for trace in log]
print(f"trace {log[0].trace_id!r} routes through abstract states:")
print(" ", runs[0])

trie = rebuild(runs)
print(f"\nprefix trie over all {len(log)} abstracted traces: {trie.node_count} nodes")
print("first lines of the debug dump:")
print("\n".join(trie.dump().splitlines()[:8]))
