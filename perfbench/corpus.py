"""Seeded corpora for the benchmark workloads.

A corpus is one baseline log plus an anomalous log that holds the same
number of traces of each anomaly kind.  The generator draws each anomalous
trace's kind at random, which makes the size of the anomalous log (and of
everything trained or scored on it) swing by about a tenth from seed to
seed at benchmark sizes; generating each kind on its own and concatenating
the parts keeps the kind mix fixed, so runs with different seeds do the
same amount of work.
"""

from __future__ import annotations

import os
import shutil

from tracemdp.generator import ANOMALY_KINDS, GeneratorConfig, generate_corpus

# Trace-id prefix per anomaly kind; the generator names every anomalous
# trace "a<index>", so the parts are renamed apart before concatenation.
PREFIX = {"too_long": "l", "too_short": "s", "ratio_skew": "r", "malformed_path": "m"}
SEED_STRIDE = 1_000_003


def _append_renamed(src: str, dst, prefix: str) -> None:
    with open(src, "rb") as fh:
        dst.write(fh.read().replace(b'"trace_id":"a', b'"trace_id":"' + prefix.encode()))


def make_corpus(seed: int, n_baseline: int, n_anomalous: int, out_dir: str, concat_train: bool) -> dict:
    """Writes baseline.jsonl, anomalous.jsonl, anomalies.jsonl (and train.jsonl)."""
    if n_anomalous % len(ANOMALY_KINDS):
        raise ValueError(f"n_anomalous must be a multiple of {len(ANOMALY_KINDS)}")
    os.makedirs(out_dir, exist_ok=True)
    base = generate_corpus(
        GeneratorConfig(seed=seed, n_baseline=n_baseline, n_anomalous=0), os.path.join(out_dir, "base")
    )
    paths = {
        "baseline": os.path.join(out_dir, "baseline.jsonl"),
        "anomalous": os.path.join(out_dir, "anomalous.jsonl"),
        "truth": os.path.join(out_dir, "anomalies.jsonl"),
        "n_anomalous": n_anomalous,
    }
    shutil.move(base.baseline, paths["baseline"])
    with open(paths["anomalous"], "wb") as anomalous, open(paths["truth"], "wb") as truth:
        for j, kind in enumerate(ANOMALY_KINDS):
            cfg = GeneratorConfig(
                seed=seed + SEED_STRIDE * (j + 1),
                n_baseline=0,
                n_anomalous=n_anomalous // len(ANOMALY_KINDS),
                anomaly_weights={kind: 1.0},
            )
            part = generate_corpus(cfg, os.path.join(out_dir, kind))
            _append_renamed(part.anomalous, anomalous, PREFIX[kind])
            _append_renamed(part.sidecar, truth, PREFIX[kind])
            shutil.rmtree(os.path.join(out_dir, kind))
    shutil.rmtree(os.path.join(out_dir, "base"))
    paths["train"] = paths["baseline"]
    if concat_train:
        paths["train"] = os.path.join(out_dir, "train.jsonl")
        with open(paths["train"], "wb") as out:
            for part in (paths["baseline"], paths["anomalous"]):
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, out)
    return paths
