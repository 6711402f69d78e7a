"""Synthetic file-operations agent corpus with injected anomalies.

A baseline run models an agent that reads source documents and then writes
its outputs.  A plan of size L ~ U[length_min, length_max] and a write
ratio p ~ U[ratio bounds] fix the artifact count W = max(2, round(p * L));
the agent performs a research phase of R reads (R memoryless geometric with
mean ``read_mean``, capped) followed by the W writes, the final write
completing the plan (opsCompleted flips true).  The memoryless read phase
keeps the read->write handover uninformative for the abstraction, so
baseline run likelihoods are driven by the write phase alone and stay
near-normal.  Terminal status is success exactly when the run completes
within the op budget.

Anomaly instantiations:

* too_long        total length in [120, 200] (reads + writes); completes
                  but busts the budget, so the run ends in failure.
* too_short       the agent declares completion after 1-2 ops (reads then a
                  single "final" write).
* ratio_skew      extreme write ratio (0.02 or 0.98) at baseline plan size.
* malformed_path  one read returns a path never seen in baseline logs.

Every anomalous trace is tagged exactly once in the ground-truth sidecar.
Generation is a pure function of the config (seeded), byte for byte.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig

ANOMALY_KINDS = ("too_long", "too_short", "ratio_skew", "malformed_path")
_INT_FIELDS = (
    "seed", "n_baseline", "n_anomalous", "length_min", "length_max", "budget",
    "too_long_min", "too_long_max", "too_short_min", "too_short_max", "read_pool", "read_cap",
)
_NUMBER_FIELDS = ("write_ratio_min", "write_ratio_max", "read_mean")


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, float) or _is_int(value)


@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    n_baseline: int = 1000
    n_anomalous: int = 1000
    length_min: int = 8
    length_max: int = 40
    write_ratio_min: float = 0.3
    write_ratio_max: float = 0.7
    anomaly_weights: dict[str, float] = field(
        default_factory=lambda: {k: 0.25 for k in ANOMALY_KINDS}
    )
    budget: int = 100
    too_long_min: int = 120
    too_long_max: int = 200
    too_short_min: int = 1
    too_short_max: int = 2
    skew_ratios: tuple[float, float] = (0.02, 0.98)
    malformed_value: str = "../escaped/forbidden.txt"
    read_pool: int = 3
    read_mean: float = 12.0
    read_cap: int = 60

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            if not _is_int(getattr(self, name)):
                raise InvalidConfig(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in _NUMBER_FIELDS:
            if not _is_number(getattr(self, name)):
                raise InvalidConfig(f"{name} must be a number, got {getattr(self, name)!r}")
        if not all(_is_number(r) for r in self.skew_ratios):
            raise InvalidConfig(f"skew_ratios must be numbers, got {self.skew_ratios!r}")
        if self.seed < 0:
            raise InvalidConfig("seed must be non-negative")
        if self.n_baseline < 0 or self.n_anomalous < 0:
            raise InvalidConfig("trace counts must be non-negative")
        for lo, hi in (
            (self.length_min, self.length_max),
            (self.too_long_min, self.too_long_max),
            (self.too_short_min, self.too_short_max),
        ):
            if lo < 1 or hi < lo:
                raise InvalidConfig("length bounds must satisfy 1 <= min <= max")
        if not 0.0 < self.write_ratio_min <= self.write_ratio_max < 1.0:
            raise InvalidConfig("write ratio bounds must be inside (0, 1)")
        unknown = set(self.anomaly_weights) - set(ANOMALY_KINDS)
        if unknown:
            raise InvalidConfig(f"unknown anomaly kinds: {sorted(unknown)}")
        if any(w < 0 for w in self.anomaly_weights.values()):
            raise InvalidConfig("anomaly weights must be non-negative")
        if self.n_anomalous and abs(sum(self.anomaly_weights.values()) - 1.0) > 1e-9:
            raise InvalidConfig("anomaly weights must sum to 1")
        if not self.read_mean > 0 or self.read_cap < 1 or self.read_pool < 1:
            raise InvalidConfig("read phase parameters must be positive")

    @staticmethod
    def from_json_dict(raw: dict) -> "GeneratorConfig":
        kwargs = dict(raw)
        if "skew_ratios" in kwargs:
            kwargs["skew_ratios"] = tuple(kwargs["skew_ratios"])
        return GeneratorConfig(**kwargs)


@dataclass(frozen=True)
class CorpusPaths:
    baseline: str
    anomalous: str
    sidecar: str


def _snapshot(iteration: int, files_written: int, last_read: str, done: bool) -> dict:
    return {
        "goal": {"task": "file-sync"},
        "check": {"opsCompleted": done},
        "state": {
            "filesWrittenCount": files_written,
            "iteration": iteration,
            "lastFileRead": last_read,
        },
    }


def _emit_trace(
    trace_id: str,
    ops: list[str],
    status: str,
    cfg: GeneratorConfig,
    malformed_at: int | None = None,
) -> list[str]:
    """Event lines for one run; the final op completes the plan."""
    lines: list[str] = []
    iteration = 0
    files_written = 0
    last_read = ""
    reads_done = 0
    for seq, op in enumerate(ops):
        pre = _snapshot(iteration, files_written, last_read, False)
        iteration += 1
        if op == "readFile":
            if malformed_at is not None and reads_done == malformed_at:
                last_read = cfg.malformed_value
            else:
                last_read = f"doc_{reads_done % cfg.read_pool}.txt"
            reads_done += 1
        else:
            files_written += 1
        done = seq == len(ops) - 1
        post = _snapshot(iteration, files_written, last_read, done)
        lines.append(
            json.dumps(
                {
                    "trace_id": trace_id,
                    "seq": seq,
                    "kind": "tool_call",
                    "action": op,
                    "pre": pre,
                    "post": post,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    lines.append(
        json.dumps(
            {"trace_id": trace_id, "seq": len(ops), "kind": "terminal", "status": status},
            sort_keys=True,
            separators=(",", ":"),
        )
    )
    return lines


def _ops(reads: int, writes: int) -> list[str]:
    return ["readFile"] * reads + ["writeFile"] * writes


def _baseline_ops(rng: np.random.Generator, cfg: GeneratorConfig) -> list[str]:
    plan = int(rng.integers(cfg.length_min, cfg.length_max + 1))
    ratio = float(rng.uniform(cfg.write_ratio_min, cfg.write_ratio_max))
    writes = max(2, round(ratio * plan))
    reads = min(int(rng.geometric(1.0 / (cfg.read_mean + 1.0))) - 1, cfg.read_cap)
    return _ops(reads, writes)


def _status_for(length: int, cfg: GeneratorConfig) -> str:
    return "success" if length <= cfg.budget else "failure"


def generate_corpus(cfg: GeneratorConfig, out_dir: str) -> CorpusPaths:
    """Writes baseline.jsonl, anomalous.jsonl, and the ground-truth sidecar."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(cfg.seed)
    paths = CorpusPaths(
        baseline=os.path.join(out_dir, "baseline.jsonl"),
        anomalous=os.path.join(out_dir, "anomalous.jsonl"),
        sidecar=os.path.join(out_dir, "anomalies.jsonl"),
    )

    with open(paths.baseline, "w", encoding="utf-8") as fh:
        for i in range(cfg.n_baseline):
            ops = _baseline_ops(rng, cfg)
            for line in _emit_trace(f"b{i:05d}", ops, _status_for(len(ops), cfg), cfg):
                fh.write(line + "\n")

    kinds = [k for k in ANOMALY_KINDS if cfg.anomaly_weights.get(k, 0.0) > 0]
    weights = np.asarray([cfg.anomaly_weights[k] for k in kinds])
    weights = weights / weights.sum() if len(kinds) else weights

    with open(paths.anomalous, "w", encoding="utf-8") as fh, open(
        paths.sidecar, "w", encoding="utf-8"
    ) as sidecar:
        for i in range(cfg.n_anomalous):
            kind = str(rng.choice(kinds, p=weights))
            trace_id = f"a{i:05d}"
            malformed_at = None
            if kind == "too_long":
                total = int(rng.integers(cfg.too_long_min, cfg.too_long_max + 1))
                ratio = float(rng.uniform(cfg.write_ratio_min, cfg.write_ratio_max))
                writes = max(2, round(ratio * total))
                ops = _ops(total - writes, writes)
            elif kind == "too_short":
                length = int(rng.integers(cfg.too_short_min, cfg.too_short_max + 1))
                # Premature completion: reads, then one "final" write.
                ops = _ops(length - 1, 1)
            elif kind == "ratio_skew":
                total = int(rng.integers(cfg.length_min, cfg.length_max + 1))
                ratio = float(rng.choice(list(cfg.skew_ratios)))
                writes = min(total, max(2, round(ratio * total)))
                ops = _ops(total - writes, writes)
            else:  # malformed_path
                ops = _baseline_ops(rng, cfg)
                n_reads = sum(1 for op in ops if op == "readFile")
                if n_reads == 0:
                    ops = ["readFile"] + ops
                    n_reads = 1
                malformed_at = int(rng.integers(0, n_reads))
            for line in _emit_trace(
                trace_id, ops, _status_for(len(ops), cfg), cfg, malformed_at
            ):
                fh.write(line + "\n")
            sidecar.write(
                json.dumps(
                    {"trace_id": trace_id, "anomaly": kind},
                    sort_keys=True,
                    separators=(",", ":"),
                )
                + "\n"
            )
    return paths
