import numpy as np
import pytest

from conftest import assert_compiled_equal, compiled_transitions, mk_log, mk_runs, mk_state, mk_trace
from tracemdp.amdp import (
    Amdp,
    LabelRule,
    compile_model,
    export_explicit,
    induce,
    label_by_terminal,
    label_states,
    parse_explicit,
)
from tracemdp.errors import UnknownVariable, UnobservedStateAction
from tracemdp.predicate_tree import BooleanEq, ScalarThreshold, TreeConfig, build_initial_tree


class TestIngestAndProbability:
    def test_single_ingest(self):
        m = Amdp()
        m.ingest(0, "a", 1)
        assert m.counts3[(0, "a", 1)] == 1
        assert m.counts2[(0, "a")] == 1
        assert m.states == {0, 1}
        assert m.actions == {"a"}

    def test_half_probability(self):
        m = Amdp()
        m.ingest(0, "a", 1)
        m.ingest(0, "a", 2)
        assert m.probability(0, "a", 1) == 0.5

    def test_ratio_examples(self):
        m = Amdp()
        for _ in range(3):
            m.ingest(0, "a", 1)
        m.ingest(0, "a", 2)
        assert m.probability(0, "a", 1) == 0.75
        m2 = Amdp()
        for _ in range(4):
            m2.ingest(0, "a", 1)
        assert m2.probability(0, "a", 1) == 1.0

    def test_unobserved_pair(self):
        m = Amdp()
        m.ingest(0, "a", 1)
        with pytest.raises(UnobservedStateAction):
            m.probability(0, "b", 1)
        with pytest.raises(UnobservedStateAction):
            m.probability(5, "a", 1)
        # Unobserved destination under an observed pair is probability zero.
        assert m.probability(0, "a", 99) == 0.0

    def test_row_stochastic_within_tolerance(self):
        rng = np.random.default_rng(13)
        m = Amdp()
        for _ in range(500):
            m.ingest(int(rng.integers(0, 5)), f"a{rng.integers(0, 3)}", int(rng.integers(0, 5)))
        for row in compile_model(m).rows:
            for _action, _dsts, probs in row:
                assert abs(sum(probs) - 1.0) <= 1e-12

    def test_terminal_states(self):
        m = Amdp()
        m.ingest(0, "a", 1)
        m.add_state(7)
        model = compile_model(m)
        assert {s for s, row in zip(model.states, model.rows) if not row} == {1, 7}

    def test_counts2_marginalizes_counts3(self):
        rng = np.random.default_rng(3)
        m = Amdp()
        for _ in range(300):
            m.ingest(int(rng.integers(0, 4)), f"a{rng.integers(0, 2)}", int(rng.integers(0, 4)))
        for (s, a), n in m.counts2.items():
            assert n == sum(c for (s2, a2, _d), c in m.counts3.items() if (s2, a2) == (s, a))


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
        assert recount == {k: v for k, v in m.counts2.items() if v}

    def test_determinism(self):
        log, tree = self.make()
        runs = mk_runs(log, tree)
        assert induce(runs, tree.abstract_ids()).equal_counts(induce(runs, tree.abstract_ids()))

    def test_initial_multiset(self):
        log, tree = self.make()
        m = induce(mk_runs(log, tree), tree.abstract_ids())
        assert sum(m.initial.values()) == len(log)
        assert m.modal_initial() in m.states

    def test_all_leaves_become_states(self):
        log, tree = self.make()
        m = induce(mk_runs(log, tree), tree.abstract_ids())
        assert set(tree.abstract_ids()) <= m.states


class TestLabeling:
    def evidence(self, **by_state):
        return {
            s: [mk_state(check=vars_) for vars_ in snaps] for s, snaps in by_state.items()
        }

    def rule(self, mode="all"):
        return LabelRule(
            "success",
            (BooleanEq("testsPassed", True), BooleanEq("committed", True)),
            mode,
        )

    def test_all_mode_labels_uniform_leaf(self):
        m = Amdp()
        m.add_state(0)
        ev = self.evidence(
            **{"0": [{"testsPassed": True, "committed": True}] * 3}
        )
        report = label_states(m, [self.rule()], {0: ev["0"]})
        assert m.labels["success"] == {0}
        assert report.mixed["success"] == set()

    def test_all_mode_mixed_leaf_reported(self):
        m = Amdp()
        m.add_state(0)
        ev = [
            mk_state(check={"testsPassed": True, "committed": True}),
            mk_state(check={"testsPassed": False, "committed": True}),
        ]
        report = label_states(m, [self.rule()], {0: ev})
        assert m.labels["success"] == set()
        assert report.mixed["success"] == {0}

    def test_any_mode(self):
        m = Amdp()
        m.add_state(0)
        ev = [
            mk_state(check={"testsPassed": True, "committed": True}),
            mk_state(check={"testsPassed": False, "committed": True}),
        ]
        label_states(m, [self.rule(mode="any")], {0: ev})
        assert m.labels["success"] == {0}

    def test_unknown_variable(self):
        m = Amdp()
        m.add_state(0)
        rule = LabelRule("x", (BooleanEq("nonexistent", True),), "all")
        with pytest.raises(UnknownVariable):
            label_states(m, [rule], {0: [mk_state(check={"testsPassed": True})]})

    def test_state_partition_variable_rejected(self):
        m = Amdp()
        m.add_state(0)
        rule = LabelRule("x", (ScalarThreshold("iteration", 3.0),), "all")
        with pytest.raises(UnknownVariable):
            label_states(m, [rule], {0: [mk_state(state={"iteration": 5})]})

    def test_terminal_labeling_matches_recount(self):
        traces = [
            mk_trace(f"s{i}", [{"x": 0}, {"x": 1}], ["go"], status="success") for i in range(3)
        ] + [
            mk_trace("f0", [{"x": 0}, {"x": 5}], ["stop"], status="failure")
        ]
        log = mk_log(traces)
        tree = build_initial_tree(log, TreeConfig(min_leaf_size=1, min_gain=0.0))
        runs = mk_runs(log, tree)
        m = induce(runs, tree.abstract_ids())
        label_by_terminal(m, log, runs)
        success_ends = {tree.abstract(t.states[-1]) for t in traces[:3]}
        fail_end = tree.abstract(traces[3].states[1])
        assert m.labels["failure"] == {fail_end}
        # Success states under mode=all exclude any leaf with a failure ender.
        assert all(s not in m.labels["success"] for s in {fail_end} - success_ends or set())
        assert success_ends - {fail_end} <= m.labels["success"]


class TestExport:
    def test_two_state_deterministic_edge(self):
        m = Amdp()
        m.ingest(0, "a", 1)
        m.record_initial(0)
        tra, lab = export_explicit(m)
        assert tra.splitlines()[0] == "2 1 1"
        assert tra.splitlines()[1] == "0 0 1 1.0 a"
        assert lab.splitlines()[0] == "#DECLARATION init #END"
        assert lab.splitlines()[1] == "0 init"

    def test_empty_model(self):
        tra, lab = export_explicit(Amdp())
        assert tra == "0 0 0\n"
        assert lab == "#DECLARATION init #END\n"

    def test_round_trip_probabilities(self):
        rng = np.random.default_rng(17)
        m = Amdp()
        for _ in range(200):
            m.ingest(int(rng.integers(0, 5)), f"a{rng.integers(0, 3)}", int(rng.integers(0, 5)))
        m.record_initial(0)
        m.labels["success"] = {2, 3}
        parsed = parse_explicit(*export_explicit(m))
        assert_compiled_equal(parsed, compile_model(m))
        index = {s: i for i, s in enumerate(sorted(m.states))}
        transitions = compiled_transitions(parsed)
        assert len(transitions) == len(m.counts3)
        for (s, a, d), _n in m.counts3.items():
            assert transitions[(index[s], a, index[d])] == m.probability(s, a, d)
        assert parsed.labels["success"] == {index[s] for s in m.labels["success"]}
        assert parsed.init == {index[0]}

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

    def test_byte_deterministic(self):
        m = Amdp()
        m.ingest(3, "b", 1)
        m.ingest(3, "a", 3)
        m.ingest(1, "a", 3)
        m.record_initial(3)
        m.labels["failure"] = {1}
        assert export_explicit(m) == export_explicit(m)

    def test_choice_indices_per_state(self):
        m = Amdp()
        m.ingest(0, "b", 1)
        m.ingest(0, "a", 1)
        m.ingest(1, "c", 0)
        tra, _ = export_explicit(m)
        lines = tra.splitlines()[1:]
        # Actions sorted by name within each state: a=choice 0, b=choice 1.
        assert lines[0] == "0 0 1 1.0 a"
        assert lines[1] == "0 1 1 1.0 b"
        assert lines[2] == "1 0 0 1.0 c"
