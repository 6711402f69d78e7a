#!/usr/bin/env python3
"""Walkthrough: run-likelihood anomaly detection, offline and at checkpoints.

Trains the model on baseline runs, fits the one-sided low-likelihood
detector, scores a mixed corpus of injected anomalies, and reports recall
per anomaly class plus the false-positive rate on held-out baseline runs.
"""

import json
import tempfile

from tracemdp.anomaly import (
    DetectorConfig,
    OfflineDetector,
    checkpoint_warnings,
    prefix_stats,
    run_loglik,
)
from tracemdp.generator import GeneratorConfig, generate_corpus
from tracemdp.linked_store import build
from tracemdp.predicate_tree import TreeConfig, abstract_trace, build_initial_tree
from tracemdp.trace_model import read_trace_log

with tempfile.TemporaryDirectory(prefix="tracemdp-demo3-") as workdir:
    train = generate_corpus(GeneratorConfig(seed=0, n_baseline=500, n_anomalous=400), workdir + "/train")
    held = generate_corpus(GeneratorConfig(seed=1, n_baseline=100, n_anomalous=0), workdir + "/held")
    log = read_trace_log(train.baseline)
    anomalous_log = read_trace_log(train.anomalous)
    held_log = read_trace_log(held.baseline)
    with open(train.sidecar) as fh:
        truth = {record["trace_id"]: record["anomaly"] for record in map(json.loads, fh)}

tree = build_initial_tree(log, TreeConfig())
store = build(log, tree)
model = store.model

detector = OfflineDetector(DetectorConfig(alpha=0.05)).fit(
    run_loglik(model, run, t.trace_id) for run, t in zip(store.runs, log)
)
print(f"detector: mode={detector.effective_mode}  threshold={detector.threshold:.4f}")
print(f"training scores: mu={detector.stats.mu:.4f} sigma={detector.stats.sigma:.4f}")

flagged: dict[str, list[bool]] = {}
for trace in anomalous_log:
    score = run_loglik(model, abstract_trace(tree, trace), trace.trace_id)
    verdict = detector.flag(score)
    flagged.setdefault(truth[trace.trace_id], []).append(verdict["verdict"] == "anomalous")

print(f"\n{'class':<16}{'n':>6}{'recall':>9}")
for kind, hits in sorted(flagged.items()):
    print(f"{kind:<16}{len(hits):>6}{sum(hits) / len(hits):>9.3f}")

false_positives = sum(
    detector.flag(run_loglik(model, abstract_trace(tree, t)))["verdict"] == "anomalous"
    for t in held_log
)
print(f"{'held-out FPR':<16}{len(held_log):>6}{false_positives / len(held_log):>9.3f}")

# Prefix-conditioned warnings for one long anomalous run.
stats = prefix_stats(store.runs, model, checkpoints=range(5, 101, 5))
long_run = max(
    (abstract_trace(tree, t) for t in anomalous_log),
    key=lambda run: run.n_transitions,
)
warnings, unseen_at = checkpoint_warnings(model, long_run, stats)
print(f"\nlongest anomalous run ({long_run.n_transitions} steps): "
      f"{len(warnings)} checkpoint warnings, first at k={warnings[0]['k'] if warnings else None}")
