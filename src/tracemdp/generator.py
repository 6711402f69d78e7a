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

Each line is filled into a fixed template whose keys are already in sorted
order, and each snapshot's JSON text is encoded once, a step's post being
the next step's pre.  The result is byte-identical to
``json.dumps(record, sort_keys=True, separators=(",", ":"))`` of the
record dict, which is the reference ``tests/test_generator.py`` checks
the templates against.
"""

from __future__ import annotations

import functools
import json
import os
import re
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
        if not isinstance(self.anomaly_weights, dict) or not all(
            _is_number(w) and w >= 0 for w in self.anomaly_weights.values()
        ):
            raise InvalidConfig(f"anomaly weights must be non-negative numbers, got {self.anomaly_weights!r}")
        unknown = set(self.anomaly_weights) - set(ANOMALY_KINDS)
        if unknown:
            raise InvalidConfig(f"unknown anomaly kinds: {sorted(unknown)}")
        if self.n_anomalous and abs(sum(self.anomaly_weights.values()) - 1.0) > 1e-9:
            raise InvalidConfig("anomaly weights must sum to 1")
        if not self.read_mean > 0 or self.read_cap < 1 or self.read_pool < 1:
            raise InvalidConfig("read phase parameters must be positive")
        if self.anomaly_weights.get("ratio_skew", 0) > 0 and not self.skew_ratios:
            raise InvalidConfig("skew_ratios must not be empty while ratio_skew has weight")
        if not isinstance(self.malformed_value, str) or not self.malformed_value:
            raise InvalidConfig(f"malformed_value must be a non-empty string, got {self.malformed_value!r}")
        pool_index = re.fullmatch(r"doc_(0|[1-9][0-9]*)\.txt", self.malformed_value)
        if pool_index and int(pool_index[1]) < self.read_pool:
            raise InvalidConfig(f"malformed_value {self.malformed_value!r} is a baseline read path")

    @staticmethod
    def from_json_dict(raw: dict) -> "GeneratorConfig":
        if not isinstance(raw, dict):
            raise InvalidConfig(f"a generator config must be a JSON object, got {type(raw).__name__}")
        kwargs = dict(raw)
        if "skew_ratios" in kwargs:
            kwargs["skew_ratios"] = tuple(kwargs["skew_ratios"])
        return GeneratorConfig(**kwargs)


@dataclass(frozen=True)
class CorpusPaths:
    baseline: str
    anomalous: str
    sidecar: str


# Line templates, keys in sorted order.  String values are filled in as
# their own json.dumps text (json's escaping); integers as %d, which is
# how json writes them.
_SNAPSHOT = (
    '{"check":{"opsCompleted":%s},"goal":{"task":"file-sync"},'
    '"state":{"filesWrittenCount":%d,"iteration":%d,"lastFileRead":%s}}'
)
_TOOL_CALL = '{"action":%s,"kind":"tool_call","post":%s,"pre":%s,"seq":%d,"trace_id":%s}'
_TERMINAL = '{"kind":"terminal","seq":%d,"status":%s,"trace_id":%s}'
_SIDECAR = '{"anomaly":%s,"trace_id":%s}'

# JSON text of the few strings that recur on every line: actions, statuses,
# read paths and anomaly kinds.
_quoted = functools.lru_cache(maxsize=256)(json.dumps)


def _emit_trace(
    trace_id: str,
    ops: list[str],
    status: str,
    cfg: GeneratorConfig,
    malformed_at: int | None = None,
) -> list[str]:
    """Event lines for one run; the final op completes the plan.

    Each snapshot is encoded once: a step's post is the next step's pre.
    """
    lines: list[str] = []
    quoted_id = json.dumps(trace_id)
    files_written = 0
    last_read = _quoted("")
    reads_done = 0
    pre = _SNAPSHOT % ("false", 0, 0, last_read)
    last_seq = len(ops) - 1
    for seq, op in enumerate(ops):
        if op == "readFile":
            if malformed_at is not None and reads_done == malformed_at:
                last_read = _quoted(cfg.malformed_value)
            else:
                last_read = _quoted(f"doc_{reads_done % cfg.read_pool}.txt")
            reads_done += 1
        else:
            files_written += 1
        done = "true" if seq == last_seq else "false"
        post = _SNAPSHOT % (done, files_written, seq + 1, last_read)
        lines.append(_TOOL_CALL % (_quoted(op), post, pre, seq, quoted_id))
        pre = post
    lines.append(_TERMINAL % (len(ops), _quoted(status), quoted_id))
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
            lines = _emit_trace(f"b{i:05d}", ops, _status_for(len(ops), cfg), cfg)
            fh.write("\n".join(lines) + "\n")

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
            lines = _emit_trace(trace_id, ops, _status_for(len(ops), cfg), cfg, malformed_at)
            fh.write("\n".join(lines) + "\n")
            sidecar.write(_SIDECAR % (_quoted(kind), json.dumps(trace_id)) + "\n")
    return paths
