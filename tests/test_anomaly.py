import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_probability, count_totals
from tracemdp.amdp import from_counts
from tracemdp.anomaly import (
    _mean_std,
    _quantile,
    _sum,
    CheckpointStats,
    DetectorConfig,
    OfflineDetector,
    RunMonitor,
    RunScore,
    checkpoint_thresholds,
    normal_quantile,
    prefix_stats,
    run_loglik,
    score_run,
)
from tracemdp.errors import DomainError, InsufficientData
from tracemdp.trace_model import AbstractPath


def chain_model(probs):
    """Single-action chain: state i -> i+1 with given probability mass.

    ``probs`` maps (src, dst) to a weight out of 100.
    """
    return from_counts((), {(s, "go", d): weight for (s, d), weight in probs.items()}, {})


def random_chain(rng, n_draws, n_states):
    """The model of ``n_draws`` uniform "go" transitions among ``n_states`` states."""
    draws = Counter(
        (int(rng.integers(0, n_states)), "go", int(rng.integers(0, n_states))) for _ in range(n_draws)
    )
    return from_counts((), draws, {})


def path(*parts):
    states = tuple(parts[0::2])
    actions = tuple(parts[1::2])
    return AbstractPath(states, actions)


# ---------------------------------------------------------------------------
# Erf-series CDF oracle (independent of the implementation under test)
# ---------------------------------------------------------------------------

def erf_series(x: float) -> float:
    total = 0.0
    term = x
    n = 0
    while abs(term) > 1e-17:
        total += term / (2 * n + 1)
        n += 1
        term = -term * x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def normal_cdf_series(x: float) -> float:
    return 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))


def quantile_by_bisection(p: float) -> float:
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if normal_cdf_series(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


# ---------------------------------------------------------------------------
# Run log-likelihood
# ---------------------------------------------------------------------------

class TestRunLoglik:
    def test_product_of_factors(self):
        m = chain_model({(0, 1): 50, (0, 99): 50, (1, 2): 25, (1, 98): 75})
        score = run_loglik(m, path(0, "go", 1, "go", 2))
        assert score.loglik == pytest.approx(math.log(0.125), abs=1e-6)
        assert score.finite

    def test_empty_run(self):
        score = run_loglik(from_counts((), {}, {}), AbstractPath((), ()))
        assert score.loglik == 0.0
        assert score.length == 0

    def test_unseen_transition_sentinel(self):
        m = chain_model({(0, 1): 1, (1, 2): 1})
        score = run_loglik(m, path(0, "go", 1, "zap", 3))
        assert score.loglik == -math.inf
        assert score.unseen_transition_at == 1

    def test_zero_count_destination_sentinel(self):
        m = chain_model({(0, 1): 1})
        score = run_loglik(m, path(0, "go", 7))
        assert score.loglik == -math.inf
        assert score.unseen_transition_at == 0

    def test_additive_over_concatenation(self):
        rng = np.random.default_rng(8)
        m = random_chain(rng, 400, 4)
        for _ in range(20):
            states = [int(rng.integers(0, 4)) for _ in range(7)]
            p = AbstractPath(tuple(states), tuple("go" for _ in range(6)))
            k = int(rng.integers(0, 7))
            head = p.prefix(k)
            tail = AbstractPath(tuple(states[k:]), tuple("go" for _ in range(6 - k)))
            total = run_loglik(m, p).loglik
            split_sum = run_loglik(m, head).loglik + run_loglik(m, tail).loglik
            if math.isfinite(total):
                assert total == pytest.approx(split_sum, abs=1e-9)

    def test_prefix_scores_non_increasing(self):
        m = chain_model({(0, 0): 70, (0, 1): 30, (1, 1): 90, (1, 0): 10})
        run = path(0, "go", 0, "go", 1, "go", 1, "go", 0)
        prev = 0.0
        for k in range(run.n_transitions + 1):
            score = run_loglik(m, run.prefix(k)).loglik
            assert score <= prev + 1e-12
            prev = score


# ---------------------------------------------------------------------------
# Offline statistics and flagging
# ---------------------------------------------------------------------------

def scores_of(*logliks):
    return [RunScore(value, 5) for value in logliks]


def fitted(logliks, alpha=0.05):
    return OfflineDetector(DetectorConfig(alpha=alpha)).fit(scores_of(*logliks))


def reference_skewness(values):
    """Population skewness, summed in pure Python."""
    mean = math.fsum(values) / len(values)
    m2 = math.fsum((v - mean) ** 2 for v in values) / len(values)
    m3 = math.fsum((v - mean) ** 3 for v in values) / len(values)
    return m3 / m2**1.5


def reference_quantile(values, alpha):
    """numpy's default (linear) alpha-quantile, interpolated by hand."""
    ordered = sorted(values)
    position = alpha * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (position - low) * (ordered[high] - ordered[low])


class TestOfflineStats:
    """``fit``'s mu and sigma: mean and unbiased deviation of the finite scores."""

    def test_equal_scores(self):
        detector = fitted([-10.0, -10.0])
        assert detector.mu == -10.0 and detector.sigma == 0.0

    def test_two_scores_unbiased(self):
        detector = fitted([-8.0, -12.0])
        assert detector.mu == -10.0
        assert detector.sigma == pytest.approx(2 * math.sqrt(2), abs=1e-6)

    def test_insufficient(self):
        with pytest.raises(InsufficientData, match="need at least 2 finite scores, got 1"):
            fitted([-8.0])
        with pytest.raises(InsufficientData, match="need at least 2 finite scores, got 1"):
            fitted([-8.0, -math.inf])

    def test_sentinels_counted_separately(self):
        detector = fitted([-8.0, -12.0, -math.inf])
        assert detector.mu == -10.0 and detector.sigma == fitted([-8.0, -12.0]).sigma
        assert detector.flag(RunScore(-math.inf, 5, 2))


class TestOfflineFlag:
    def test_threshold_example(self):
        stats = {5: CheckpointStats(5, 10, 10, 0, mu=-10.0, sigma=2.0)}
        (threshold,) = checkpoint_thresholds(stats, 0.05).values()
        assert threshold == pytest.approx(-13.289707, abs=1e-5)
        assert threshold == -10.0 - normal_quantile(0.95) * 2.0

        class Fixed:
            logp = {(0, "go", 1): -14.0, (0, "go", 2): -13.0}

        low = RunMonitor(Fixed, {1: threshold}).feed(0, "go", 1)
        assert low == [{"kind": "checkpoint", "k": 1, "loglik_k": -14.0, "threshold": threshold}]
        assert RunMonitor(Fixed, {1: threshold}).feed(0, "go", 2) == []

    def test_score_at_mean_is_normal(self):
        detector = fitted([-8.0, -12.0])
        assert not detector.flag(RunScore(detector.mu, 5))

    def test_sigma_zero_degenerate(self):
        detector = fitted([-10.0, -10.0, -10.0])
        assert detector.mode == "normal" and detector.threshold == -10.0
        assert detector.flag(RunScore(-10.0001, 5))
        assert not detector.flag(RunScore(-10.0, 5))

    def test_sentinel_always_anomalous(self):
        assert fitted([-8.0, -12.0]).flag(RunScore(-math.inf, 5, 0))

    def test_monotone_in_score(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            alpha = float(rng.uniform(0.01, 0.49))
            detector = fitted([float(v) for v in rng.normal(rng.normal(), 3, size=20)], alpha)
            l2 = float(rng.normal(detector.mu, 2))
            l1 = l2 - float(rng.uniform(0, 5))
            if detector.flag(RunScore(l2, 5)):
                assert detector.flag(RunScore(l1, 5))

    def test_empirical_mode_uses_quantile(self):
        history = [-200.0, -15.0, -12.0, -11.0, -10.0, -9.0, -8.0, -7.0, -6.0, -5.0]
        detector = fitted(history, alpha=0.1)
        assert detector.mode == "empirical"
        assert detector.threshold == pytest.approx(reference_quantile(history, 0.1))
        assert detector.flag(RunScore(-199.0, 5))
        assert not detector.flag(RunScore(-10.0, 5))


class TestFittedThreshold:
    """``fit``'s threshold equals an independently computed one, in both modes."""

    def test_normal_mode_threshold(self):
        rng = np.random.default_rng(3)
        train = [float(v) for v in rng.normal(-10, 2, size=200)]
        detector = fitted(train + [-math.inf], alpha=0.05)
        mu = float(np.mean(train))
        sigma = float(np.std(train, ddof=1))
        assert detector.mode == "normal"
        assert (detector.mu, detector.sigma) == (mu, sigma)
        assert detector.threshold == mu - normal_quantile(0.95) * sigma

    def test_empirical_mode_threshold(self):
        rng = np.random.default_rng(5)
        train = [float(v) for v in rng.normal(-10, 1, size=99)] + [-400.0]
        assert abs(reference_skewness(train)) > 2
        detector = fitted(train, alpha=0.2)
        assert detector.mode == "empirical"
        assert detector.threshold == float(np.quantile(sorted(train), 0.2))
        assert detector.threshold == pytest.approx(reference_quantile(train, 0.2), abs=1e-12)
        assert detector.mu == float(np.mean(train))


class TestCheckpointThresholds:
    def test_unarmed_checkpoints_left_out(self):
        stats = {
            5: CheckpointStats(5, 10, 10, 0, mu=-2.0, sigma=0.5),
            7: CheckpointStats(7, 1, 1, 0, mu=None, sigma=None),
            9: CheckpointStats(9, 3, 0, 3, mu=None, sigma=None),
            11: CheckpointStats(11, 2, 2, 0, mu=-4.0, sigma=0.0),
        }
        thresholds = checkpoint_thresholds(stats, 0.2)
        assert thresholds == {5: -2.0 - normal_quantile(0.8) * 0.5, 11: -4.0}

    def test_from_prefix_stats(self):
        m = chain_model({(0, 0): 80, (0, 1): 20, (1, 1): 100})
        runs = [AbstractPath((0,) * (n + 1), ("go",) * n) for n in (3, 12, 14)]
        stats = prefix_stats(runs, m, checkpoints=(2, 10, 13))
        assert checkpoint_thresholds(stats, 0.05) == {
            2: stats[2].mu - normal_quantile(0.95) * stats[2].sigma,
            10: stats[10].mu - normal_quantile(0.95) * stats[10].sigma,
        }


class TestOfflineDetector:
    def test_skew_fallback(self):
        values = [-1.0] * 30 + [-200.0]
        assert abs(reference_skewness(values)) > 2
        detector = fitted(values, alpha=0.1)
        assert detector.mode == "empirical"
        assert detector.threshold == pytest.approx(reference_quantile(values, 0.1))

    def test_normal_mode_kept_for_symmetric_scores(self):
        rng = np.random.default_rng(3)
        scores = [RunScore(float(rng.normal(-10, 2)), 5) for i in range(200)]
        detector = OfflineDetector().fit(scores)
        assert detector.mode == "normal"

    def test_calibration_on_held_out(self):
        rng = np.random.default_rng(14)
        train = [RunScore(float(rng.normal(-10, 2)), 5) for i in range(500)]
        held = [RunScore(float(rng.normal(-10, 2)), 5) for i in range(500)]
        detector = OfflineDetector(DetectorConfig(alpha=0.05)).fit(train)
        rate = sum(detector.flag(s) for s in held) / len(held)
        assert rate <= 0.05 + 0.05


# ---------------------------------------------------------------------------
# Prefix statistics and the online rule
# ---------------------------------------------------------------------------

class TestPrefixStats:
    def model(self):
        return chain_model({(0, 0): 80, (0, 1): 20, (1, 1): 100})

    def runs(self, lengths):
        out = []
        for n in lengths:
            out.append(AbstractPath(tuple([0] * (n + 1)), tuple("go" for _ in range(n))))
        return out

    def test_exclusion_rule(self):
        stats = prefix_stats(self.runs([5, 15, 25]), self.model(), checkpoints=(10, 20))
        assert stats[10].n_runs == 2
        assert stats[20].n_runs == 1
        assert stats[10].armed
        assert not stats[20].armed

    def test_truncation_matches_manual_prefix(self):
        m = self.model()
        run = self.runs([15])[0]
        stats = prefix_stats([run, run], m, checkpoints=(10,))
        manual = sum(math.log(count_probability(m, 0, "go", 0)) for _ in range(10))
        assert stats[10].mu == pytest.approx(manual, abs=1e-9)

    def test_one_probability_lookup_per_transition(self):
        class CountingTable(dict):
            calls = 0

            def get(self, key, default=None):
                CountingTable.calls += 1
                return super().get(key, default)

        class CountingModel:
            """Exposes only the table the scorer reads, counting its lookups."""

            def __init__(self, model):
                self.logp = CountingTable(model.logp)

        runs = self.runs([25, 35, 31])  # reach 4, 5 and 5 checkpoints
        checkpoints = (5, 10, 15, 20, 30)
        stats = prefix_stats(runs, CountingModel(self.model()), checkpoints)
        assert 0 < CountingTable.calls <= sum(run.n_transitions for run in runs)
        assert stats == prefix_stats(runs, self.model(), checkpoints)

    def test_all_short_runs_unarmed(self):
        stats = prefix_stats(self.runs([2, 3]), self.model(), checkpoints=(10, 20))
        assert not any(cp.armed for cp in stats.values())

    def test_manual_recomputation_random(self):
        rng = np.random.default_rng(6)
        m = random_chain(rng, 600, 3)
        runs = []
        for _ in range(20):
            n = int(rng.integers(1, 25))
            states = tuple(int(rng.integers(0, 3)) for _ in range(n + 1))
            runs.append(AbstractPath(states, tuple("go" for _ in range(n))))
        stats = prefix_stats(runs, m, checkpoints=(5, 10))
        for k in (5, 10):
            manual = []
            for run in runs:
                if run.n_transitions < k:
                    continue
                total = 0.0
                dead = False
                for i in range(k):
                    p = count_probability(m, run.states[i], "go", run.states[i + 1])
                    if p == 0:
                        dead = True
                        break
                    total += math.log(p)
                if not dead:
                    manual.append(total)
            if len(manual) >= 2:
                assert stats[k].mu == pytest.approx(float(np.mean(manual)), abs=1e-9)
                assert stats[k].sigma == pytest.approx(
                    float(np.std(manual, ddof=1)), abs=1e-9
                )


class TestOnlineCheck:
    """The checkpoint rule of online detection, applied by RunMonitor.feed."""

    def setup_method(self):
        self.model = chain_model({(0, 0): 50, (0, 1): 50, (1, 1): 100})
        self.stats = {
            5: CheckpointStats(5, 10, 10, 0, mu=-2.0, sigma=0.5),
            7: CheckpointStats(7, 1, 1, 0, mu=None, sigma=None),
        }

    def run_of(self, states):
        return AbstractPath(tuple(states), tuple("go" for _ in range(len(states) - 1)))

    def alerts(self, run, stats):
        monitor = RunMonitor(self.model, checkpoint_thresholds(stats, 0.05))
        return [alert for step in run.steps() for alert in monitor.feed(*step)]

    def test_score_at_mean_is_normal(self):
        run = self.run_of([0, 1, 1, 1, 1, 1])  # one 0.5 factor then certainty
        assert self.alerts(run, {5: CheckpointStats(5, 2, 2, 0, math.log(0.5), 1.0)}) == []

    def test_low_prefix_warns(self):
        run = self.run_of([0, 0, 0, 0, 0, 0])  # five 0.5 factors
        (alert,) = self.alerts(run, self.stats)
        assert alert["kind"] == "checkpoint" and alert["k"] == 5
        assert alert["loglik_k"] == pytest.approx(5 * math.log(0.5))
        assert alert["threshold"] == pytest.approx(-2.0 - normal_quantile(0.95) * 0.5)

    def test_unseen_prefix_warns_without_stats(self):
        run = self.run_of([0, 2, 0, 0, 0, 0])
        assert self.alerts(run, self.stats) == [{"kind": "unseen_transition", "step": 0}]

    def test_unarmed_checkpoint_emits_nothing(self):
        # Seven 0.5 factors: far below checkpoint 7's lone score, yet only
        # the armed checkpoint 5 warns.
        run = self.run_of([0] * 8)
        assert [alert["k"] for alert in self.alerts(run, self.stats)] == [5]


class TestMonitorAgainstBatch:
    def test_monitor_equals_checkpoint_warnings(self):
        rng = np.random.default_rng(23)
        m = random_chain(rng, 400, 3)
        runs = []
        for _ in range(30):
            n = int(rng.integers(1, 30))
            states = tuple(int(rng.integers(0, 3)) for _ in range(n + 1))
            runs.append(AbstractPath(states, tuple("go" for _ in range(n))))
        stats = prefix_stats(runs, m, checkpoints=(5, 10, 15))
        thresholds = checkpoint_thresholds(stats, 0.2)
        for run in runs:
            score, batch_warnings = score_run(m, run, thresholds)
            batch_unseen = score.unseen_transition_at
            monitor = RunMonitor(m, thresholds)
            streamed = []
            unseen = None
            for src, action, dst in run.steps():
                for alert in monitor.feed(src, action, dst):
                    if alert["kind"] == "unseen_transition":
                        unseen = alert["step"]
                    else:
                        streamed.append(
                            {
                                "k": alert["k"],
                                "loglik_k": alert["loglik_k"],
                                "threshold": alert["threshold"],
                            }
                        )
            assert streamed == batch_warnings
            assert unseen == batch_unseen


def reference_prefix(m, run, k):
    """(Log-likelihood of the first k transitions or None, first unseen index or None)."""
    total = 0.0
    for i in range(k):
        src, action, dst = run.states[i], run.actions[i], run.states[i + 1]
        count = m.counts3.get((src, action, dst), 0)
        if count == 0:
            return None, i
        total += math.log(count / count_totals(m)[(src, action)])
    return total, None


@st.composite
def models_and_runs(draw):
    """A small count MDP (zero-weight entries included) and runs that mostly follow it."""
    key = st.tuples(st.integers(0, 3), st.sampled_from("ab"), st.integers(0, 3))
    counts = draw(st.dictionaries(key, st.integers(0, 3), min_size=4, max_size=24))
    m = from_counts((), counts, {})
    support = sorted(k for k, weight in counts.items() if weight > 0)
    runs = []
    for _ in range(draw(st.integers(0, 8))):
        states, actions = [draw(st.integers(0, 3))], []
        for _ in range(draw(st.integers(0, 10))):
            successors = [(a, d) for s, a, d in support if s == states[-1]]
            if not draw(st.integers(0, 9)):  # "c" is never observed; other pairs may have zero counts
                action, dst = draw(st.sampled_from("abc")), draw(st.integers(0, 3))
            elif successors:
                action, dst = draw(st.sampled_from(successors))
            else:
                break
            actions.append(action)
            states.append(dst)
        runs.append(AbstractPath(tuple(states), tuple(actions)))
    cfg = DetectorConfig(
        alpha=draw(st.sampled_from((0.05, 0.2, 0.45))),
        checkpoints=tuple(sorted(draw(st.sets(st.integers(1, 10), min_size=1, max_size=5)))),
    )
    return m, runs, cfg


class TestScorersAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(models_and_runs())
    def test_every_scorer_equals_naive_sum(self, case):
        m, runs, cfg = case
        stats = prefix_stats(runs, m, cfg.checkpoints)
        assert sorted(stats) == list(cfg.checkpoints)
        cp_scores = {}
        for k in cfg.checkpoints:
            eligible = [run for run in runs if run.n_transitions >= k]
            finite = sorted(
                value
                for value, _ in (reference_prefix(m, run, k) for run in eligible)
                if value is not None
            )
            cp_scores[k] = finite
            cp = stats[k]
            assert (cp.n_runs, cp.n_finite, cp.n_unseen) == (
                len(eligible),
                len(finite),
                len(eligible) - len(finite),
            )
            if len(finite) >= 2:
                assert cp.mu == float(np.mean(finite))
                assert cp.sigma == float(np.std(finite, ddof=1))

        for run in runs:
            total, unseen_at = reference_prefix(m, run, run.n_transitions)
            score = run_loglik(m, run)
            assert score == RunScore(-math.inf if total is None else total, run.n_transitions, unseen_at)

            expected = []
            for k in cfg.checkpoints:
                cp = stats[k]
                if k > run.n_transitions or not cp.armed:
                    continue
                value, _ = reference_prefix(m, run, k)
                if value is None:
                    continue
                threshold = float(np.mean(cp_scores[k])) - normal_quantile(1.0 - cfg.alpha) * float(
                    np.std(cp_scores[k], ddof=1)
                )
                if value < threshold:
                    expected.append({"k": k, "loglik_k": value, "threshold": threshold})
            thresholds = checkpoint_thresholds(stats, cfg.alpha)
            assert score_run(m, run, thresholds) == (score, expected)

            monitor = RunMonitor(m, thresholds)
            alerts = [alert for step in run.steps() for alert in monitor.feed(*step)]
            unseen = [] if unseen_at is None else [{"kind": "unseen_transition", "step": unseen_at}]
            assert alerts == [{"kind": "checkpoint", **w} for w in expected] + unseen
            if total is not None:
                assert monitor.loglik == total


# ---------------------------------------------------------------------------
# The plain-Python statistics against numpy, bit for bit
# ---------------------------------------------------------------------------

@st.composite
def float_lists(draw, min_size=1, max_size=1100):
    """Lengths that cross numpy's 8-term and 128-term blocks and its recursive
    split; drawn edge floats first, then seeded values of mixed sign and magnitude."""
    n = draw(st.integers(min_size, max_size))
    head = draw(st.lists(st.floats(-1e100, 1e100), max_size=min(n, 16)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return head + [rng.choice((-1.0, 1.0)) * rng.random() * 10.0 ** rng.randint(-12, 12) for _ in range(n - len(head))]


class TestNumpyDigits:
    @settings(max_examples=150, deadline=None)
    @given(float_lists())
    def test_sum_is_add_reduce(self, values):
        assert _sum(values).hex() == float(np.add.reduce(np.asarray(values))).hex()

    @settings(max_examples=150, deadline=None)
    @given(float_lists(min_size=2))
    def test_mean_std_are_mean_and_std_ddof_1(self, values):
        arr = np.asarray(values)
        mu, sigma = _mean_std(values)
        assert (mu.hex(), sigma.hex()) == (float(arr.mean()).hex(), float(arr.std(ddof=1)).hex())

    @settings(max_examples=150, deadline=None)
    @given(float_lists(min_size=2), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True))
    def test_quantile_is_linear_quantile(self, values, alpha):
        ordered = sorted(values)
        assert _quantile(ordered, alpha).hex() == float(np.quantile(np.asarray(ordered), alpha)).hex()


# ---------------------------------------------------------------------------
# Inverse normal CDF
# ---------------------------------------------------------------------------

class TestNormalQuantile:
    def test_symmetry_at_half(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_reference_points(self):
        assert normal_quantile(0.95) == pytest.approx(1.644854, abs=1e-5)
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)

    def test_against_erf_series_bisection(self):
        for p in (0.9, 0.95, 0.975, 0.99, 0.01, 0.2, 0.6):
            assert normal_quantile(p) == pytest.approx(quantile_by_bisection(p), abs=1e-5)

    def test_antisymmetry(self):
        rng = np.random.default_rng(2)
        for p in rng.uniform(0.001, 0.999, size=50):
            assert normal_quantile(1 - p) == pytest.approx(-normal_quantile(p), abs=1e-9)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DomainError):
                normal_quantile(bad)


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(alpha=0.7)
    with pytest.raises(ValueError):
        DetectorConfig(checkpoints=(10, 10))
