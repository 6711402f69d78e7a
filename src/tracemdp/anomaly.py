"""Run-likelihood anomaly detection, offline and prefix-conditioned online.

A run's score is the natural-log likelihood of its abstract path under the
induced model: sum of ln P(s_i, a_i, s_{i+1}).  A transition the model
never observed yields the -inf sentinel: such runs are anomalous by
definition and are excluded from the statistics.

``RunMonitor`` is the one scorer: it alone reads the model's table of
transition log-probabilities (``amdp.CompiledModel.logp``, the model that
the checker and the export read) and sums it, left to right from 0.0.
Whole-run scores (``score_run``, ``run_loglik``), the checkpoint statistics
(``prefix_stats``, one pass per run) and the streaming monitor all feed
one, so every path yields bit-identical sums.

Each threshold is computed once.  ``OfflineDetector.fit`` sets the
run-level one: mu - z_{1-alpha} * sigma (one-sided, low side), or, when the
training scores are strongly skewed, their empirical alpha-quantile; its
``flag`` compares a run's score with it.  ``checkpoint_thresholds`` applies
the normal rule, without that fallback, to the prefix statistics of each
armed checkpoint k, which use only historical runs of length >= k truncated
to their first k transitions; ``RunMonitor`` and ``score_run`` compare a
prefix score with the table.

The statistics (means, deviations, quantiles, skew) are computed in plain
Python that repeats numpy's arithmetic term for term (``_sum``,
``_mean_std``, ``_quantile``), so they keep numpy's digits without loading
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable, Mapping, Sequence

from .errors import DomainError, InsufficientData, InvalidConfig
from .trace_model import AbstractPath

DEFAULT_CHECKPOINTS = tuple(range(10, 201, 10))
# |skew| of the training scores above this switches the offline rule to
# the empirical alpha-quantile.
SKEW_LIMIT = 2.0


@dataclass(frozen=True)
class DetectorConfig:
    alpha: float = 0.05
    checkpoints: tuple[int, ...] = DEFAULT_CHECKPOINTS

    def __post_init__(self) -> None:
        if not 0 < self.alpha < 0.5:
            raise InvalidConfig("alpha must lie in (0, 0.5)")
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise InvalidConfig("checkpoints must be strictly increasing")
        if any(k <= 0 for k in self.checkpoints):
            raise InvalidConfig("checkpoints must be positive prefix lengths")


@dataclass(frozen=True)
class RunScore:
    loglik: float  # -inf when the run leaves the model's support
    length: int
    unseen_transition_at: int | None = None

    @property
    def finite(self) -> bool:
        return math.isfinite(self.loglik)


def score_run(
    model, run: AbstractPath, thresholds: Mapping[int, float] | None = None
) -> tuple[RunScore, list[dict]]:
    """Scores a whole run in one pass: its RunScore and checkpoint warnings.

    The warnings are the ones a monitor given ``thresholds`` would emit, as
    {"k", "loglik_k", "threshold"}; feeding stops at the first unseen
    transition.
    """
    monitor = RunMonitor(model, thresholds)
    warnings: list[dict] = []
    for step in run.steps():
        for alert in monitor.feed(*step):
            if alert["kind"] == "checkpoint":
                warnings.append({key: value for key, value in alert.items() if key != "kind"})
        if monitor.dead:
            return RunScore(-math.inf, run.n_transitions, monitor.steps - 1), warnings
    return RunScore(monitor.loglik, run.n_transitions), warnings


def run_loglik(model, run: AbstractPath) -> RunScore:
    """Natural-log likelihood of a run; empty runs score 0.

    An unseen transition is data, not an error: the score becomes -inf and
    the first offending step index is recorded.
    """
    return score_run(model, run)[0]


def _normal_threshold(mu: float, sigma: float, alpha: float) -> float:
    """The one-sided low-side rule mu - z_{1-alpha} * sigma."""
    return mu - normal_quantile(1.0 - alpha) * sigma


# ---------------------------------------------------------------------------
# Offline (run-level) detection
# ---------------------------------------------------------------------------

class OfflineDetector:
    """Run-level detector: ``fit`` computes the threshold once, ``flag`` compares with it.

    ``mu`` and ``sigma`` are the sample mean and unbiased (n-1) standard
    deviation of the finite training scores, in training order.  The
    threshold is mu - z_{1-alpha} sigma (``mode`` "normal"); when the sorted
    finite scores are strongly skewed (|skew| > SKEW_LIMIT) their
    empirical alpha-quantile replaces it (``mode`` "empirical").
    """

    def __init__(self, cfg: DetectorConfig | None = None):
        self.cfg = cfg or DetectorConfig()
        self.mu = self.sigma = self.threshold = math.nan
        self.mode = "normal"

    def fit(self, scores: Iterable[RunScore]) -> "OfflineDetector":
        finite = [score.loglik for score in scores if score.finite]
        if len(finite) < 2:
            raise InsufficientData(f"need at least 2 finite scores, got {len(finite)}")
        self.mu, self.sigma = _mean_std(finite)
        ordered = sorted(finite)
        n = len(ordered)
        mean = _sum(ordered) / n
        centered = [score - mean for score in ordered]
        # numpy squares as c * c and, without AVX-512, cubes with libm's pow, as c**3 does.
        m2 = _sum([c * c for c in centered]) / n
        skew = _sum([c**3 for c in centered]) / n / m2**1.5 if m2 else 0.0
        if abs(skew) > SKEW_LIMIT:
            self.mode, self.threshold = "empirical", _quantile(ordered, self.cfg.alpha)
        else:
            self.mode, self.threshold = "normal", _normal_threshold(self.mu, self.sigma, self.cfg.alpha)
        return self

    def flag(self, score: RunScore) -> bool:
        """One-sided low-likelihood rule; -inf scores are always anomalous."""
        return not score.finite or score.loglik < self.threshold


# ---------------------------------------------------------------------------
# Prefix-conditioned (online) detection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckpointStats:
    """Statistics of prefix scores at one checkpoint length.

    The checkpoint arms only once two finite scores exist.
    """

    k: int
    n_runs: int
    n_finite: int
    n_unseen: int
    mu: float | None
    sigma: float | None

    @property
    def armed(self) -> bool:
        return self.n_finite >= 2


def prefix_stats(
    runs: Sequence[AbstractPath],
    model,
    checkpoints: Iterable[int] = DEFAULT_CHECKPOINTS,
) -> dict[int, CheckpointStats]:
    """Checkpoint statistics over historical runs.

    For each k, runs shorter than k are excluded and longer runs are
    truncated to their first k transitions before scoring.  Each run is fed
    once, up to the last checkpoint it reaches or its first unseen
    transition, and its prefix score is read off at every checkpoint.
    """
    ks = sorted(set(checkpoints))
    unseen = dict.fromkeys(ks, 0)
    finite: dict[int, list[float]] = {k: [] for k in ks}
    for run in runs:
        monitor = RunMonitor(model)
        steps = run.steps()
        for k in ks:
            if k > run.n_transitions:
                break
            while monitor.steps < k and not monitor.dead:
                monitor.feed(*next(steps))
            if monitor.dead:
                unseen[k] += 1
            else:
                finite[k].append(monitor.loglik)
    out: dict[int, CheckpointStats] = {}
    for k in ks:
        # Summed in sorted order: the order fixes the last digits of mu and
        # sigma, and with them the printed thresholds.
        scores = sorted(finite[k])
        if len(scores) >= 2:
            mu, sigma = _mean_std(scores)
        else:
            mu = sigma = None
        n_runs = len(scores) + unseen[k]  # every run reaching k ends up finite or unseen
        out[k] = CheckpointStats(k, n_runs, len(scores), unseen[k], mu, sigma)
    return out


def checkpoint_thresholds(stats: Mapping[int, CheckpointStats], alpha: float) -> dict[int, float]:
    """The normal rule's threshold at each armed checkpoint; unarmed ones are left out."""
    return {k: _normal_threshold(cp.mu, cp.sigma, alpha) for k, cp in stats.items() if cp.armed}


class RunMonitor:
    """Incremental per-run scorer for streaming transition feeds.

    feed() returns the alert records triggered by that transition: at most
    one unseen-transition alert per run, plus a checkpoint warning when the
    prefix score falls below ``thresholds[k]`` at a checkpoint k.  Without
    thresholds it only reports the unseen transition.
    """

    def __init__(self, model, thresholds: Mapping[int, float] | None = None):
        self.logp = model.logp
        self.thresholds = thresholds or {}
        self.loglik = 0.0
        self.steps = 0
        self.dead = False

    def feed(self, src: int, action: str, dst: int) -> list[dict]:
        if self.dead:
            return []
        self.steps += 1
        logp = self.logp.get((src, action, dst))
        if logp is None:
            self.dead = True
            return [{"kind": "unseen_transition", "step": self.steps - 1}]
        self.loglik += logp
        threshold = self.thresholds.get(self.steps)
        if threshold is not None and self.loglik < threshold:
            return [
                {
                    "kind": "checkpoint",
                    "k": self.steps,
                    "loglik_k": self.loglik,
                    "threshold": threshold,
                }
            ]
        return []


# ---------------------------------------------------------------------------
# numpy's float64 arithmetic, term for term
# ---------------------------------------------------------------------------

def _sum(values: Sequence[float]) -> float:
    """``numpy.add.reduce`` of the values as a float64 vector, bit for bit.

    numpy adds its pairwise sum to the identity 0.0: fewer than 8 terms in
    sequence; up to 128 terms in 8 strided accumulators, combined as
    ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the tail in sequence; longer
    runs split at half their length rounded down to a multiple of 8.  Adding
    0.0 at every level instead of once changes no sum: it turns only a -0.0
    into 0.0, and a zero added to a sum changes nothing else.
    """
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _sum(values[:half]) + _sum(values[half:])
    tail = n - n % 8
    r = [reduce(add, values[j:tail:8]) for j in range(8)]
    return 0.0 + reduce(add, values[tail:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))


def _mean_std(values: Sequence[float]) -> tuple[float, float]:
    """numpy's ``mean()`` and ``std(ddof=1)`` of at least two values, bit for bit."""
    n = len(values)
    mean = _sum(values) / n
    return mean, math.sqrt(_sum([(v - mean) * (v - mean) for v in values]) / (n - 1))


def _quantile(ordered: Sequence[float], q: float) -> float:
    """numpy's default (linear) ``quantile`` of at least two sorted values, bit for bit."""
    virtual = (len(ordered) - 1) * q
    i = math.floor(virtual)
    gamma = virtual - i
    a, b = ordered[i], ordered[i + 1]
    diff = b - a
    return b - diff * (1 - gamma) if gamma >= 0.5 else a + diff * gamma


# ---------------------------------------------------------------------------
# Inverse normal CDF
# ---------------------------------------------------------------------------

# Coefficients of Acklam's rational approximation to the inverse standard
# normal CDF (relative error below 1.2e-9 over (0, 1)); one Halley step with
# erfc sharpens the result to near machine precision.
_A = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
      1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
_B = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
      6.680131188771972e01, -1.328068155288572e01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
      -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
      3.754408661907416e00)
_P_LOW = 0.02425


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF via a rational approximation."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"normal_quantile needs p in (0, 1), got {p!r}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )
    elif p <= 1.0 - _P_LOW:
        q = p - 0.5
        r = q * q
        x = (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / (
            ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )
    # Halley refinement against the exact CDF.
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)
