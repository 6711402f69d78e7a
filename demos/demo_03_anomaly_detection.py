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
    checkpoint_thresholds,
    prefix_stats,
    run_loglik,
    score_run,
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

detector = OfflineDetector(DetectorConfig(alpha=0.05)).fit(run_loglik(model, run) for run in store.runs)
print(f"detector: mode={detector.mode}  threshold={detector.threshold:.4f}")
print(f"training scores: mu={detector.mu:.4f} sigma={detector.sigma:.4f}")

flagged: dict[str, list[bool]] = {}
for trace in anomalous_log:
    score = run_loglik(model, abstract_trace(tree, trace))
    flagged.setdefault(truth[trace.trace_id], []).append(detector.flag(score))

print(f"\n{'class':<16}{'n':>6}{'recall':>9}")
for kind, hits in sorted(flagged.items()):
    print(f"{kind:<16}{len(hits):>6}{sum(hits) / len(hits):>9.3f}")

false_positives = sum(detector.flag(run_loglik(model, abstract_trace(tree, t))) for t in held_log)
print(f"{'held-out FPR':<16}{len(held_log):>6}{false_positives / len(held_log):>9.3f}")

# Prefix-conditioned warnings for one long anomalous run, against the
# thresholds of the armed checkpoints.
stats = prefix_stats(store.runs, model, checkpoints=range(5, 101, 5))
thresholds = checkpoint_thresholds(stats, detector.cfg.alpha)
print(f"\narmed checkpoints: {len(thresholds)} of {len(stats)}")
long_run = max(
    (abstract_trace(tree, t) for t in anomalous_log),
    key=lambda run: run.n_transitions,
)
_score, warnings = score_run(model, long_run, thresholds)
print(f"longest anomalous run ({long_run.n_transitions} steps): "
      f"{len(warnings)} checkpoint warnings, first at k={warnings[0]['k'] if warnings else None}")
