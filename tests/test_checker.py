import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from collections import Counter

from conftest import count_successors
from tracemdp.amdp import from_counts, induce
from tracemdp.checker import (
    ReachQuery,
    check,
    optimizing_scheduler,
    parse_property,
    reach_values,
)
from tracemdp.errors import PropertySyntaxError, UnknownLabel
from tracemdp.trace_model import AbstractPath


def model_from_counts(counts, labels=None, initial=(0,), states=()):
    """The model of {(s, a, s'): count}, with one run starting at each of ``initial``."""
    return from_counts(states, counts, Counter(initial), labels)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def chain_reach_by_iteration(states, chain, target, iters=400_000, tol=1e-13):
    """Reachability in a Markov chain by plain linear iteration."""
    x = {s: 1.0 if s in target else 0.0 for s in states}
    for _ in range(iters):
        delta = 0.0
        for s in states:
            if s in target or s not in chain:
                continue
            new = sum(p * x[d] for d, p in chain[s])
            delta = max(delta, abs(new - x[s]))
            x[s] = new
        if delta < tol:
            break
    return x


def enumerate_scheduler_values(model, target, direction):
    """Per-state optimum over all memoryless deterministic schedulers."""
    states = sorted(model.states)
    table = count_successors(model)
    decidable = [s for s in states if s not in target and s in table]
    action_sets = [sorted(table[s]) for s in decidable]
    best = {s: (1.0 if s in target else (-math.inf if direction == "max" else math.inf)) for s in states}
    for combo in itertools.product(*action_sets) if decidable else [()]:
        chain = {s: table[s][a] for s, a in zip(decidable, combo)}
        x = chain_reach_by_iteration(states, chain, target)
        for s in states:
            if s in target:
                continue
            if direction == "max":
                best[s] = max(best[s], x[s])
            else:
                best[s] = min(best[s], x[s])
    for s in states:
        if best[s] in (math.inf, -math.inf):
            best[s] = 1.0 if s in target else 0.0
    return best


def random_model(rng, max_states=6, max_actions=3):
    """A model over ids 0..n-1, so ids are indices; its "goal" label is random."""
    n = int(rng.integers(2, max_states + 1))
    counts = {}
    for s in range(n):
        for a in range(int(rng.integers(1, max_actions + 1))):
            if rng.uniform() < 0.15 and s > 0:
                continue  # occasional terminal rows
            support = rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False)
            for dst in support:
                counts[(s, f"a{a}", int(dst))] = int(rng.integers(1, 10))
    targets = {int(s) for s in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
    return from_counts(range(n), counts, {0: 1}, {"goal": targets})


# ---------------------------------------------------------------------------
# Property parsing
# ---------------------------------------------------------------------------

class TestParseProperty:
    def test_unthresholded(self):
        q = parse_property('Pmax=? [F "success"]')
        assert q == ReachQuery("max", "success", None)

    def test_min(self):
        assert parse_property('Pmin=? [F "failure"]').direction == "min"

    def test_thresholded(self):
        q = parse_property('Pmin>=0.1 [F "failure"]')
        assert q.threshold == (">=", 0.1)
        assert not q.satisfied_by(0.05)
        assert q.satisfied_by(0.2)

    def test_diamond_accepted(self):
        assert parse_property('Pmax=? [◇ "success"]').target_label == "success"

    def test_garbage_rejected(self):
        for bad in ("P=? [F success]", 'Pmax [F "x"]', 'Pmax=? [G "x"]', ""):
            with pytest.raises(PropertySyntaxError):
                parse_property(bad)

    def test_round_trip_str(self):
        q = parse_property('Pmin<=0.05 [F "failure"]')
        assert parse_property(str(q)) == q
        assert str(q) == 'Pmin<=0.05 [F "failure"]'

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(["<=", ">=", "<", ">"]),
        st.sampled_from(["min", "max"]),
    )
    def test_printed_bound_parses_back(self, bound, rel, direction):
        q = ReachQuery(direction, "failure", (rel, bound))
        text = str(q)
        assert parse_property(text).threshold[1] == bound
        assert parse_property(text) == q
        # A bound six significant digits hold is printed as before.
        if float(f"{bound:g}") == bound:
            assert text == f'P{direction}{rel}{bound:g} [F "failure"]'

    @pytest.mark.parametrize("text", ["1.5", "-0.2", "1e400", "+2", "-1e-300"])
    def test_bound_outside_unit_interval_rejected(self, text):
        with pytest.raises(PropertySyntaxError, match=re.escape(f"bound {text} is outside [0, 1]")):
            parse_property(f'Pmax<={text} [F "success"]')

    @pytest.mark.parametrize("text", ["0", "1", "-0", "1e0", "0.0512345678"])
    def test_bound_inside_unit_interval_accepted(self, text):
        assert parse_property(f'Pmin>={text} [F "failure"]').threshold == (">=", float(text))


# ---------------------------------------------------------------------------
# Value iteration
# ---------------------------------------------------------------------------

class TestReachValues:
    def test_target_state_is_one(self):
        m = model_from_counts({(0, "a", 1): 1}, labels={"goal": {1}})
        vi = reach_values(m, ReachQuery("max", "goal"))
        assert vi.values[1] == 1.0
        assert vi.values[0] == pytest.approx(1.0)

    def test_coin_flip_half(self):
        m = model_from_counts(
            {(0, "a", 1): 1, (0, "a", 2): 1}, labels={"goal": {1}}
        )
        vi = reach_values(m, ReachQuery("max", "goal"))
        assert vi.values[0] == pytest.approx(0.5)

    def test_empty_target(self):
        m = model_from_counts({(0, "a", 1): 1}, labels={"goal": set()})
        vi = reach_values(m, ReachQuery("max", "goal"))
        assert vi.values[0] == 0.0

    def test_all_states_target(self):
        m = model_from_counts({(0, "a", 1): 1}, labels={"goal": {0, 1}})
        assert reach_values(m, ReachQuery("max", "goal")).values[0] == 1.0

    def test_zero_cycle_pinned(self):
        # 0 -> {1 (cycle with 2), 3 (goal)}; the 1-2 cycle cannot reach goal.
        m = model_from_counts(
            {
                (0, "a", 1): 1,
                (0, "a", 3): 1,
                (1, "a", 2): 1,
                (2, "a", 1): 1,
            },
            labels={"goal": {3}},
        )
        vi = reach_values(m, ReachQuery("max", "goal"))
        assert vi.values[1] == 0.0
        assert vi.values[2] == 0.0
        assert vi.values[0] == pytest.approx(0.5)

    def test_monotone_from_zero(self):
        # VI from zero is deterministic, so max_iters=k yields the k-th iterate.
        rng = np.random.default_rng(5)
        for direction in ("max", "min"):
            for _ in range(10):
                model = random_model(rng)
                prev = {s: 0.0 for s in model.states}
                for k in range(1, 51):
                    values = reach_values(model, ReachQuery(direction, "goal"), max_iters=k).values
                    for s, v in values.items():
                        assert v >= prev[s] - 1e-12
                        assert -1e-12 <= v <= 1 + 1e-12
                    prev = values

    def test_min_leq_max(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            m = random_model(rng)
            vmax = reach_values(m, ReachQuery("max", "goal")).values
            vmin = reach_values(m, ReachQuery("min", "goal")).values
            for s in m.states:
                assert vmin[s] <= vmax[s] + 1e-9

    def test_matches_scheduler_enumeration(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            m = random_model(rng)
            target = m.labels["goal"]
            for direction in ("max", "min"):
                vi = reach_values(m, ReachQuery(direction, "goal"))
                oracle = enumerate_scheduler_values(m, target, direction)
                for s in m.states:
                    assert vi.values[s] == pytest.approx(oracle[s], abs=1e-6)

    @pytest.mark.parametrize("direction", ["max", "min"])
    def test_left_to_right_gauss_seidel_digits(self, direction):
        """Each choice sums p * x[d] left to right from 0.0; states update in place, in index order."""
        m = model_from_counts(
            {(0, "a", 1): 1, (0, "a", 2): 2, (0, "b", 1): 2, (0, "b", 4): 1,
             (1, "a", 2): 2, (1, "a", 3): 2, (1, "a", 4): 7,
             (2, "a", 0): 3, (2, "a", 3): 1, (2, "a", 4): 1},
            labels={"goal": {4}},
        )
        assert m.states == (0, 1, 2, 3, 4) and m.rows[0][0][1] == (1, 2)
        x = [0.0, 0.0, 0.0, 0.0, 1.0]
        pick = max if direction == "max" else min
        for sweeps in itertools.count(1):
            delta = 0.0
            for i in (0, 1, 2):
                values = []
                for _action, dsts, probs in m.rows[i]:
                    value = 0.0
                    for dst, prob in zip(dsts, probs):
                        value += prob * x[dst]
                    values.append(value)
                best = pick(values)
                delta = max(delta, abs(best - x[i]))
                x[i] = best
            if delta < 1e-8:
                break
        vi = reach_values(m, ReachQuery(direction, "goal"))
        assert vi.converged and vi.iterations == sweeps > 10
        assert [vi.values[s].hex() for s in m.states] == [v.hex() for v in x]

    def test_not_converged_flag(self):
        m = model_from_counts(
            {(0, "a", 0): 99, (0, "a", 1): 1}, labels={"goal": {1}}
        )
        vi = reach_values(m, ReachQuery("max", "goal"), epsilon=1e-12, max_iters=3)
        assert not vi.converged
        assert vi.iterations == 3


# ---------------------------------------------------------------------------
# check() and witnesses
# ---------------------------------------------------------------------------

class TestCheck:
    def test_verdict_and_per_initial(self):
        m = model_from_counts(
            {(0, "a", 1): 1, (0, "a", 2): 1, (2, "b", 1): 1},
            labels={"goal": {1}},
            initial=(0, 0, 2),
        )
        result = check(m, ReachQuery("max", "goal", ("<=", 0.9)))
        assert result.value == pytest.approx(1.0)
        assert result.verdict is False
        assert set(result.per_initial) == {0, 2}

    def test_empty_target_threshold_satisfied(self):
        m = model_from_counts({(0, "a", 1): 1}, labels={"goal": set()})
        result = check(m, ReachQuery("max", "goal", ("<=", 0.0)))
        assert result.value == 0.0
        assert result.verdict is True

    def test_witness_deterministic_chain(self):
        m = model_from_counts(
            {(0, "a", 1): 1, (1, "b", 2): 1},
            labels={"goal": {2}},
        )
        result = check(m, ReachQuery("max", "goal"))
        assert result.witness.path == AbstractPath((0, 1, 2), ("a", "b"))
        assert result.witness.probability == pytest.approx(1.0)

    def test_witness_unreachable_none(self):
        m = model_from_counts({(0, "a", 1): 1}, labels={"goal": {5}}, states=(5,))
        result = check(m, ReachQuery("max", "goal"))
        assert result.witness is None

    def test_witness_initial_in_target(self):
        m = model_from_counts({(0, "a", 1): 1}, labels={"goal": {0}})
        result = check(m, ReachQuery("max", "goal"))
        assert result.witness.path == AbstractPath((0,), ())

    def test_witness_most_probable_path(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            m = random_model(rng)
            target = m.labels["goal"]
            if not target or m.modal_initial() in target:
                continue
            result = check(m, ReachQuery("max", "goal"))
            if result.witness is None:
                continue
            sched = result.witness.scheduler
            # Exhaustive path enumeration up to length 10 under the scheduler.
            best = 0.0
            frontier = [((m.modal_initial(),), 1.0)]
            for _depth in range(10):
                grown = []
                for path, prob in frontier:
                    last = path[-1]
                    if last in target:
                        best = max(best, prob)
                        continue
                    action = sched.get(last)
                    if action is None:
                        continue
                    for dst, p in count_successors(m)[last][action]:
                        if p > 0:
                            grown.append((path + (dst,), prob * p))
                frontier = grown
            for path, prob in frontier:
                if path[-1] in target:
                    best = max(best, prob)
            if result.witness.path.n_transitions <= 10:
                assert result.witness.probability == pytest.approx(best, rel=1e-9)

    def test_scheduler_tie_break_lexicographic(self):
        model = model_from_counts(
            {(0, "zz", 1): 1, (0, "aa", 1): 1},
            labels={"goal": {1}},
        )
        values = reach_values(model, ReachQuery("max", "goal")).values
        sched = optimizing_scheduler(model, values, ReachQuery("max", "goal"))
        assert sched[0] == "aa"

    def test_undeclared_label_rejected(self):
        m = model_from_counts({(0, "a", 1): 1}, labels={"goal": {1}})
        with pytest.raises(UnknownLabel, match="'nolabel'.*'goal'"):
            check(m, ReachQuery("max", "nolabel"))

    def test_no_initial_state(self):
        m = model_from_counts({(0, "a", 1): 1}, labels={"goal": {1}}, initial=())
        result = check(m, ReachQuery("max", "goal"))
        assert result.value is None
        assert result.witness is None


def test_sandwich_on_synthetic_labels():
    # Empirical success frequency must lie inside [Pmin - 0.02, Pmax + 0.02].
    rng = np.random.default_rng(4)
    runs = []
    n_success = 0
    n_runs = 200
    for _ in range(n_runs):
        states = [0]
        for _step in range(30):
            states.append(1 if rng.uniform() < 0.3 else (2 if rng.uniform() < 0.5 else 0))
            if states[-1] == 1:
                n_success += 1
                break
            if states[-1] == 2:
                break
        runs.append(AbstractPath(tuple(states), ("go",) * (len(states) - 1)))
    m = induce(runs, (), {"success": {1}})
    empirical = n_success / n_runs
    vmax = check(m, ReachQuery("max", "success")).value
    vmin = check(m, ReachQuery("min", "success")).value
    assert vmin - 0.02 <= empirical <= vmax + 0.02
