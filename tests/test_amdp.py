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
    LabelRule,
    export_explicit,
    from_counts,
    induce,
    label_by_terminal,
    label_states,
    parse_explicit,
)
from tracemdp.errors import UnknownVariable
from tracemdp.predicate_tree import Predicate, TreeConfig, build_initial_tree
from tracemdp.trace_model import AbstractPath


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


class TestLabeling:
    def evidence(self, **by_state):
        return {
            s: [mk_state(check=vars_) for vars_ in snaps] for s, snaps in by_state.items()
        }

    def rule(self, mode="all"):
        return LabelRule(
            "success",
            (Predicate("bool_eq", "testsPassed", True), Predicate("bool_eq", "committed", True)),
            mode,
        )

    def test_all_mode_labels_uniform_leaf(self):
        ev = self.evidence(
            **{"0": [{"testsPassed": True, "committed": True}] * 3}
        )
        report = label_states([0], [self.rule()], {0: ev["0"]})
        assert report.labeled["success"] == {0}
        assert report.mixed["success"] == set()

    def test_all_mode_mixed_leaf_reported(self):
        ev = [
            mk_state(check={"testsPassed": True, "committed": True}),
            mk_state(check={"testsPassed": False, "committed": True}),
        ]
        report = label_states([0], [self.rule()], {0: ev})
        assert report.labeled["success"] == set()
        assert report.mixed["success"] == {0}

    def test_any_mode(self):
        ev = [
            mk_state(check={"testsPassed": True, "committed": True}),
            mk_state(check={"testsPassed": False, "committed": True}),
        ]
        assert label_states([0], [self.rule(mode="any")], {0: ev}).labeled["success"] == {0}

    def test_unknown_variable(self):
        rule = LabelRule("x", (Predicate("bool_eq", "nonexistent", True),), "all")
        with pytest.raises(UnknownVariable):
            label_states([0], [rule], {0: [mk_state(check={"testsPassed": True})]})

    def test_state_partition_variable_rejected(self):
        rule = LabelRule("x", (Predicate("num_gt", "iteration", 3.0),), "all")
        with pytest.raises(UnknownVariable):
            label_states([0], [rule], {0: [mk_state(state={"iteration": 5})]})

    def test_terminal_labeling_matches_recount(self):
        traces = [
            mk_trace(f"s{i}", [{"x": 0}, {"x": 1}], ["go"], status="success") for i in range(3)
        ] + [
            mk_trace("f0", [{"x": 0}, {"x": 5}], ["stop"], status="failure")
        ]
        log = mk_log(traces)
        tree = build_initial_tree(log, TreeConfig(min_leaf_size=1, min_gain=0.0))
        labels = label_by_terminal(log, mk_runs(log, tree)).labeled
        success_ends = {tree.abstract(t.states[-1]) for t in traces[:3]}
        fail_end = tree.abstract(traces[3].states[1])
        assert labels["failure"] == {fail_end}
        # Success states under mode=all exclude any leaf with a failure ender.
        assert all(s not in labels["success"] for s in {fail_end} - success_ends or set())
        assert success_ends - {fail_end} <= labels["success"]

    @pytest.mark.parametrize("modes", [("most", "any"), ("all", "")])
    def test_unknown_terminal_mode_rejected(self, modes):
        log = mk_log([mk_trace("s", [{"x": 0}, {"x": 1}], ["go"], status="success")])
        runs = mk_runs(log, build_initial_tree(log, TreeConfig(min_leaf_size=1)))
        with pytest.raises(ValueError, match="unknown label mode"):
            label_by_terminal(log, runs, *modes)


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
