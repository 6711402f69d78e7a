from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_compiled_equal,
    compiled_transitions,
    count_probability,
    count_totals,
    mk_log,
    mk_runs,
    mk_state,
    mk_trace,
)
from tracemdp.amdp import (
    LabelingConfig,
    LabelRule,
    export_explicit,
    from_counts,
    induce,
    label_states,
    parse_explicit,
)
from tracemdp.errors import UnknownVariable
from tracemdp.predicate_tree import Predicate, PredicateTree, TreeConfig, build_initial_tree
from tracemdp.trace_model import AbstractPath, TerminalStatus, Trace, TraceLog


def random_counts(rng, n_draws, n_states=5, n_actions=3):
    """{(s, a, s'): count} of ``n_draws`` uniform transitions."""
    return Counter(
        (int(rng.integers(0, n_states)), f"a{rng.integers(0, n_actions)}", int(rng.integers(0, n_states)))
        for _ in range(n_draws)
    )


def step(src, action, dst):
    return AbstractPath((src, dst), (action,))


class TestIngestAndProbability:
    """Counts, and the probabilities C(s,a,s') / C(s,a) the model derives from them."""

    def test_single_ingest(self):
        m = induce([step(0, "a", 1)], ())
        assert m.counts3 == {(0, "a", 1): 1}
        assert m.initial == {0: 1}
        assert m.states == (0, 1)
        assert m.rows == ((("a", (1,), (1.0,)),), ())

    def test_half_probability(self):
        m = induce([step(0, "a", 1), step(0, "a", 2)], ())
        assert compiled_transitions(m)[(0, "a", 1)] == 0.5

    def test_ratio_examples(self):
        m = from_counts((), {(0, "a", 1): 3, (0, "a", 2): 1}, {})
        assert compiled_transitions(m)[(0, "a", 1)] == 0.75
        m2 = from_counts((), {(0, "a", 1): 4}, {})
        assert compiled_transitions(m2)[(0, "a", 1)] == 1.0

    def test_unobserved_pair(self):
        m = from_counts((), {(0, "a", 1): 1}, {})
        # The scorer's table has no key for an unobserved pair, state or destination.
        assert m.logp == {(0, "a", 1): 0.0}
        for unseen in ((0, "b", 1), (5, "a", 1), (0, "a", 99)):
            assert unseen not in m.logp

    def test_row_stochastic_within_tolerance(self):
        m = from_counts((), random_counts(np.random.default_rng(13), 500), {})
        for row in m.rows:
            for _action, _dsts, probs in row:
                assert abs(sum(probs) - 1.0) <= 1e-12

    def test_terminal_states(self):
        m = from_counts([7], {(0, "a", 1): 1}, {})
        assert {s for s, row in zip(m.states, m.rows) if not row} == {1, 7}

    def test_counts2_marginalizes_counts3(self):
        m = from_counts((), random_counts(np.random.default_rng(3), 300, n_states=4, n_actions=2), {})
        totals = count_totals(m)
        for (s, a, d), p in compiled_transitions(m).items():  # ids are indices here
            assert p == m.counts3[(s, a, d)] / totals[(s, a)]

    def test_zero_counts_dropped(self):
        m = from_counts((), {(0, "a", 1): 2, (0, "a", 2): 0}, {3: 0, 0: 1})
        assert m.counts3 == {(0, "a", 1): 2} and m.initial == {0: 1}
        assert m.states == (0, 1)


class TestInduce:
    def make(self):
        traces = [
            mk_trace(f"t{i}", [{"f": False}, {"f": True}], ["go"], status="success")
            for i in range(3)
        ] + [
            mk_trace("bad", [{"f": False}, {"f": False}], ["go"], status="failure")
        ]
        log = mk_log(traces)
        tree = build_initial_tree(log, TreeConfig(min_leaf_size=1))
        return log, tree

    def test_counts_match_recount(self):
        log, tree = self.make()
        m = induce(mk_runs(log, tree), tree.abstract_ids())
        recount: dict = {}
        for trace in log:
            for i, action in enumerate(trace.actions):
                key = (tree.abstract(trace.states[i]), action)
                recount[key] = recount.get(key, 0) + 1
        assert recount == count_totals(m)

    def test_determinism(self):
        log, tree = self.make()
        runs = mk_runs(log, tree)
        assert induce(runs, tree.abstract_ids()) == induce(runs, tree.abstract_ids())

    def test_initial_multiset(self):
        log, tree = self.make()
        m = induce(mk_runs(log, tree), tree.abstract_ids())
        assert sum(m.initial.values()) == len(log)
        assert m.modal_initial() in m.states

    def test_all_leaves_become_states(self):
        log, tree = self.make()
        m = induce(mk_runs(log, tree), tree.abstract_ids())
        assert set(tree.abstract_ids()) <= set(m.states)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.lists(st.tuples(st.integers(0, 3), st.sampled_from("ab")), max_size=6), max_size=8),
        st.lists(st.lists(st.tuples(st.integers(0, 3), st.sampled_from("ab")), max_size=6), max_size=8),
    )
    def test_concatenation_sums_counts(self, a_steps, b_steps):
        """Inducing a + b counts what inducing a and b count, summed."""

        def runs(steps_per_run):
            # Each run visits its listed states; empty runs have no states.
            return [
                AbstractPath(tuple(s for s, _ in steps), tuple(a for _, a in steps[1:]))
                for steps in steps_per_run
            ]

        a, b = runs(a_steps), runs(b_steps)
        whole, part_a, part_b = induce(a + b, ()), induce(a, ()), induce(b, ())
        assert whole.counts3 == Counter(part_a.counts3) + Counter(part_b.counts3)
        assert whole.initial == Counter(part_a.initial) + Counter(part_b.initial)


def recount_labels(log, runs, labeling):
    """(labels, mixed) by brute force: every (trace, k) asked for evidence, one label at a time."""

    def terminal(name):
        def outcome(t, k):
            trace = log[t]
            if k == trace.n_states - 1 and trace.terminal_status.value in ("success", "failure"):
                return trace.terminal_status.value == name
            return None  # no evidence

        return outcome

    lifts = [(rule.name, rule.mode, lambda t, k, rule=rule: rule.holds(log[t].states[k])) for rule in labeling.rules]
    if labeling.terminal_labels:
        lifts[:0] = [("success", labeling.success_mode, terminal("success")),
                     ("failure", labeling.failure_mode, terminal("failure"))]
    labels, mixed = {}, {}
    for name, mode, outcome in lifts:
        evidence = {}
        for t, run in enumerate(runs):
            for k, state_id in enumerate(run.states):
                seen = outcome(t, k)
                if seen is not None:
                    evidence.setdefault(state_id, []).append(seen)
        lift = all if mode == "all" else any
        labels[name] = labels.get(name, set()) | {s for s, seen in evidence.items() if lift(seen)}
        mixed[name] = {s for s, seen in evidence.items() if mode == "all" and any(seen) and not all(seen)}
    return labels, mixed


def assert_recounted(log, runs, labeling):
    """``label_states`` equals the brute-force recount, or both raise UnknownVariable; returns (labels, mixed) or None."""
    try:
        expected = recount_labels(log, runs, labeling)
    except UnknownVariable:
        with pytest.raises(UnknownVariable):
            label_states(log, runs, labeling)
        return None
    got = label_states(log, runs, labeling)
    assert got == expected
    return got


BOTH_TRUE = {"testsPassed": True, "committed": True}
ONE_FALSE = {"testsPassed": False, "committed": True}

# Snapshots of one layout: state var x, check vars ok and n, goal var g.
SNAPSHOTS = st.builds(
    lambda x, ok, n, g: mk_state(state={"x": x}, check={"ok": ok, "n": n}, goal={"g": g}),
    st.integers(0, 3), st.booleans(), st.integers(0, 3), st.booleans(),
)
SPLITS = [Predicate("num_gt", "x", 0.5), Predicate("num_gt", "x", 1.5), Predicate("bool_eq", "ok", True),
          Predicate("num_gt", "n", 1.5), Predicate("bool_eq", "g", False)]
# Rule atoms: mostly check/goal atoms, plus a state-partition and an unknown variable.
ATOMS = st.sampled_from(
    [Predicate("bool_eq", "ok", True), Predicate("bool_eq", "ok", False), Predicate("num_gt", "n", 0.5),
     Predicate("num_gt", "n", 2.5), Predicate("bool_eq", "g", True)] * 3
    + [Predicate("num_gt", "x", 1.5), Predicate("bool_eq", "nonexistent", True)]
)
RULES = st.lists(
    st.builds(LabelRule, st.sampled_from(["success", "failure", "ok", "late"]),
              st.lists(ATOMS, max_size=2).map(tuple), st.sampled_from(["all", "any"])),
    max_size=3, unique_by=lambda rule: rule.name,
)


@st.composite
def labeling_cases(draw):
    """(log, runs, labeling): a few traces, state-less and truncated ones among them, routed through a random tree."""
    log = TraceLog()
    for i in range(draw(st.integers(0, 6))):
        states = draw(st.lists(SNAPSHOTS, max_size=4))
        status = draw(st.sampled_from(list(TerminalStatus)))
        log.append(Trace(f"t{i}", tuple(states), ("go",) * max(len(states) - 1, 0), status))
    tree = PredicateTree.single_leaf()
    for _ in range(draw(st.integers(0, 3))):
        leaf = draw(st.sampled_from(tree.abstract_ids()))
        tree, _, _ = tree.split(tree.leaf_node_of(leaf), draw(st.sampled_from(SPLITS)))
    labeling = LabelingConfig(
        terminal_labels=draw(st.booleans()),
        success_mode=draw(st.sampled_from(["all", "any"])),
        failure_mode=draw(st.sampled_from(["all", "any"])),
        rules=tuple(draw(RULES)),
    )
    return log, mk_runs(log, tree), labeling


class TestLabeling:
    @settings(max_examples=300, deadline=None)
    @given(labeling_cases())
    def test_matches_brute_force_recount(self, case):
        assert_recounted(*case)

    def rule_case(self, snapshots, mode="all", var="testsPassed"):
        """One truncated trace of ``snapshots`` (check vars) routed to state 0, and a rule named
        ``success`` on ``var`` and ``committed``, with terminal labels off."""
        log = mk_log([Trace("t", tuple(mk_state(check=c) for c in snapshots), ("go",) * (len(snapshots) - 1))])
        rule = LabelRule("success", (Predicate("bool_eq", var, True), Predicate("bool_eq", "committed", True)), mode)
        return log, mk_runs(log, PredicateTree.single_leaf()), LabelingConfig(terminal_labels=False, rules=(rule,))

    def test_all_mode_labels_uniform_leaf(self):
        labels, mixed = assert_recounted(*self.rule_case([BOTH_TRUE] * 3))
        assert labels["success"] == {0}
        assert mixed["success"] == set()

    def test_all_mode_mixed_leaf_reported(self):
        labels, mixed = assert_recounted(*self.rule_case([BOTH_TRUE, ONE_FALSE]))
        assert labels["success"] == set()
        assert mixed["success"] == {0}

    def test_any_mode(self):
        labels, mixed = assert_recounted(*self.rule_case([BOTH_TRUE, ONE_FALSE], mode="any"))
        assert labels["success"] == {0}
        assert mixed["success"] == set()

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable, match="unknown variable 'nonexistent'"):
            label_states(*self.rule_case([BOTH_TRUE], var="nonexistent"))

    def test_state_partition_variable_rejected(self):
        log = mk_log([mk_trace("t", [{"iteration": 5}], [])])
        rule = LabelRule("x", (Predicate("num_gt", "iteration", 3.0),), "all")
        runs = mk_runs(log, PredicateTree.single_leaf())
        with pytest.raises(UnknownVariable, match="outside check/goal"):
            label_states(log, runs, LabelingConfig(rules=(rule,)))

    def test_terminal_labeling_matches_recount(self):
        traces = [
            mk_trace(f"s{i}", [{"x": 0}, {"x": 1}], ["go"], status="success") for i in range(3)
        ] + [
            mk_trace("f0", [{"x": 0}, {"x": 5}], ["stop"], status="failure")
        ]
        log = mk_log(traces)
        tree = build_initial_tree(log, TreeConfig(min_leaf_size=1, min_gain=0.0))
        labels, _mixed = assert_recounted(log, mk_runs(log, tree), LabelingConfig())
        success_ends = {tree.abstract(t.states[-1]) for t in traces[:3]}
        fail_end = tree.abstract(traces[3].states[1])
        assert labels["failure"] == {fail_end}
        # Success states under mode=all exclude any leaf with a failure ender.
        assert all(s not in labels["success"] for s in {fail_end} - success_ends or set())
        assert success_ends - {fail_end} <= labels["success"]

    @pytest.mark.parametrize("modes", [("most", "any"), ("all", "")])
    def test_unknown_terminal_mode_rejected(self, modes):
        with pytest.raises(ValueError, match="unknown label mode"):
            LabelingConfig(success_mode=modes[0], failure_mode=modes[1])


class TestExport:
    def test_two_state_deterministic_edge(self):
        tra, lab = export_explicit(induce([step(0, "a", 1)], ()))
        assert tra.splitlines()[0] == "2 1 1"
        assert tra.splitlines()[1] == "0 0 1 1.0 a"
        assert lab.splitlines()[0] == "#DECLARATION init #END"
        assert lab.splitlines()[1] == "0 init"

    def test_empty_model(self):
        tra, lab = export_explicit(from_counts((), {}, {}))
        assert tra == "0 0 0\n"
        assert lab == "#DECLARATION init #END\n"

    def test_round_trip_probabilities(self):
        counts = random_counts(np.random.default_rng(17), 200)
        m = from_counts((), counts, {0: 1}, {"success": {2, 3}})
        parsed = parse_explicit(*export_explicit(m))
        assert_compiled_equal(parsed, m)
        index = {s: i for i, s in enumerate(sorted(m.states))}
        transitions = compiled_transitions(parsed)
        assert len(transitions) == len(m.counts3)
        for s, a, d in m.counts3:
            assert transitions[(index[s], a, index[d])] == count_probability(m, s, a, d)
        assert parsed.labels["success"] == {index[2], index[3]}
        assert parsed.init == {index[0]}
        assert parsed.logp == {(index[s], a, index[d]): lp for (s, a, d), lp in m.logp.items()}

    @pytest.mark.parametrize(
        "tra, lab",
        [
            ("", "#DECLARATION init #END\n"),
            ("2 1\n", "#DECLARATION init #END\n"),
            ("2 1 2\n0 0 1 1.0 a\n", "#DECLARATION init #END\n"),
            ("2 1 1\n0 0 1 1.0 a\n", "0 init\n"),
        ],
        ids=["no_header", "short_header", "count_mismatch", "no_declaration"],
    )
    def test_malformed_input_rejected(self, tra, lab):
        with pytest.raises(ValueError):
            parse_explicit(tra, lab)

    @pytest.mark.parametrize(
        "tra, lab",
        [
            ("2 7 1\n0 0 1 1.0 a\n", "#DECLARATION init #END\n"),
            ("2 1 1\n0 0 9 1.0 a\n", "#DECLARATION init #END\n"),
            ("1 1 1\n5 0 0 1.0 a\n", "#DECLARATION init #END\n"),
            ("1 1 1\n0 0 0 1.0 a\n", "#DECLARATION init done #END\n7 init done\n"),
        ],
        ids=["choice_count", "destination", "source", "label_state"],
    )
    def test_out_of_range_rejected(self, tra, lab):
        with pytest.raises(ValueError):
            parse_explicit(tra, lab)

    @pytest.mark.parametrize(
        "tra",
        [
            "1 1 1\n0 0 0 nan a\n",
            "1 1 1\n0 0 0 inf a\n",
            "1 1 1\n0 0 0 0.0 a\n",
            "1 1 1\n0 0 0 1.5 a\n",
            "2 1 2\n0 0 0 -0.5 a\n0 0 1 1.5 a\n",
            "2 1 1\n0 0 1 0.3 a\n",
            "2 1 2\n0 0 0 0.5 a\n0 0 1 0.4999 a\n",
            "2 1 2\n0 0 1 0.5 a\n0 0 1 0.5 a\n",
            "2 1 1\n0 1 1 1.0 a\n",
            "2 2 2\n0 1 1 1.0 a\n0 0 1 1.0 b\n",
            "2 1 2\n0 0 0 0.5 a\n0 1 1 0.5 a\n",
        ],
        ids=[
            "nan", "infinite", "zero", "above_one", "negative", "lone_fraction", "sum_short",
            "repeated_line", "wrong_choice", "swapped_choices", "split_choice",
        ],
    )
    def test_unwritten_input_rejected(self, tra):
        """What ``export_explicit`` never writes is rejected, not parsed."""
        with pytest.raises(ValueError):
            parse_explicit(tra, "#DECLARATION init #END\n")

    def test_sum_within_tolerance_accepted(self):
        third = repr(1 / 3)
        tra = f"3 1 3\n0 0 0 {third} a\n0 0 1 {third} a\n0 0 2 {third} a\n"
        ((action, dsts, probs),), _, _ = parse_explicit(tra, "#DECLARATION init #END\n").rows
        assert (action, dsts, probs) == ("a", (0, 1, 2), (1 / 3,) * 3)

    def test_byte_deterministic(self):
        m = induce([step(3, "b", 1), step(3, "a", 3), step(1, "a", 3)], (), {"failure": {1}})
        assert export_explicit(m) == export_explicit(m)

    def test_choice_indices_per_state(self):
        tra, _ = export_explicit(from_counts((), {(0, "b", 1): 1, (0, "a", 1): 1, (1, "c", 0): 1}, {}))
        lines = tra.splitlines()[1:]
        # Actions sorted by name within each state: a=choice 0, b=choice 1.
        assert lines[0] == "0 0 1 1.0 a"
        assert lines[1] == "0 1 1 1.0 b"
        assert lines[2] == "1 0 0 1.0 c"
