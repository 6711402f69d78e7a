import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_log, mk_trace
from tracemdp.amdp import LabelingConfig, LabelRule, induce
from tracemdp.errors import StaleSplit
from tracemdp.linked_store import (
    SavedStore,
    apply_split,
    build,
    check_invariants,
    load_store,
    load_store_inputs,
    save_store,
    write_model,
)
from tracemdp.predicate_tree import (
    Predicate,
    PredicateTree,
    SplitRejected,
    TreeConfig,
    END_LABEL,
    abstract_trace,
    build_initial_tree,
    split_leaf,
)
from tracemdp.refinement import Real, Spurious, batch_for_leaf, concretize
from tracemdp.trace_model import AbstractPath


def small_log():
    traces = [
        mk_trace(f"r{i}", [{"x": 0, "k": i}, {"x": 1, "k": i}, {"x": 2, "k": i}], ["a", "b"])
        for i in range(4)
    ] + [
        mk_trace(f"w{i}", [{"x": 0, "k": i}, {"x": 5, "k": i}], ["c"], status="failure")
        for i in range(3)
    ]
    return mk_log(traces)


def random_log(rng, n_traces=30, max_len=10):
    traces = []
    for i in range(n_traces):
        n = int(rng.integers(1, max_len + 1))
        xs = [float(rng.integers(0, 8)) for _ in range(n + 1)]
        ys = [float(rng.uniform()) for _ in range(n + 1)]
        traces.append(
            mk_trace(
                f"t{i}",
                [{"x": x, "y": y} for x, y in zip(xs, ys)],
                [f"op{rng.integers(0, 3)}" for _ in range(n)],
                status="success" if rng.uniform() < 0.8 else "failure",
            )
        )
    return mk_log(traces)


def stores_equal(a, b) -> bool:
    return (
        a.tree.structurally_equal(b.tree)
        and a.model == b.model
        and a.runs == b.runs
    )


class TestBuild:
    def test_single_leaf_one_trace(self):
        log = mk_log([mk_trace("t", [{"x": 0}, {"x": 1}], ["go"])])
        store = build(log, PredicateTree.single_leaf())
        assert store.runs == (AbstractPath((0, 0), ("go",)),)
        assert store.model.states == (0,)
        assert check_invariants(store) == []

    def test_empty_log_isolated_states(self):
        log = mk_log([])
        tree = PredicateTree.single_leaf()
        store = build(log, tree)
        assert store.runs == ()
        assert store.model.states == (0,) and store.model.rows == ((),)
        assert check_invariants(store) == []

    def test_fresh_store_invariants(self):
        log = small_log()
        tree = build_initial_tree(log, TreeConfig(min_leaf_size=1))
        store = build(log, tree)
        assert check_invariants(store) == []

    def test_routes_each_state_once(self, monkeypatch):
        log = random_log(np.random.default_rng(7))
        tree = build_initial_tree(log, TreeConfig(min_gain=0.0, min_leaf_size=1))
        calls = []
        original = PredicateTree.abstract

        def counting_abstract(self, state):
            calls.append(state)
            return original(self, state)

        monkeypatch.setattr(PredicateTree, "abstract", counting_abstract)
        store = build(log, tree)
        assert len(calls) == sum(trace.n_states for trace in log)
        monkeypatch.undo()
        assert store.runs == tuple(abstract_trace(tree, trace) for trace in log)
        assert check_invariants(store) == []

    def test_terminal_labels_applied(self):
        log = small_log()
        tree = build_initial_tree(log, TreeConfig(min_leaf_size=1))
        store = build(log, tree)
        fail_end = tree.abstract(log[4].states[1])
        assert fail_end in store.model.label_ids()["failure"]

    def test_rule_label_adds_to_terminal_label(self):
        """A rule named like a terminal label adds its states; `mixed` keeps the rule's own."""
        traces = [
            mk_trace("s", [{"x": 0, "ok": False}, {"x": 1, "ok": False}], ["go"], check_key="ok"),
            mk_trace("f", [{"x": 0, "ok": False}, {"x": 2, "ok": True}], ["go"], "failure", "ok"),
        ]
        log = mk_log(traces)
        tree, _, _ = PredicateTree.single_leaf().split(
            PredicateTree.single_leaf().leaf_node_of(0), Predicate("num_gt", "x", 1.5)
        )
        succeeded, ok = (tree.abstract(trace.states[-1]) for trace in traces)
        assert succeeded != ok
        rules = (LabelRule("success", (Predicate("bool_eq", "ok", True),), "all"),)
        store = build(log, tree, LabelingConfig(success_mode="any", rules=rules))
        assert store.model.label_ids()["success"] == sorted({succeeded, ok})
        assert store.mixed["success"] == set()
        # A failure ending in `succeeded` makes it mixed for the terminal lift, not for the rule.
        ended_twice = mk_log([*traces, mk_trace("g", [{"x": 0, "ok": False}, {"x": 1, "ok": False}], ["go"],
                                                "failure", "ok")])
        assert build(ended_twice, tree).mixed["success"] == {succeeded}
        assert build(ended_twice, tree, LabelingConfig(rules=rules)).mixed["success"] == set()


class TestCheckInvariants:
    def test_corrupted_run_single_i2_violation(self):
        log = small_log()
        tree = build_initial_tree(log, TreeConfig(min_leaf_size=1))
        store = build(log, tree)
        run = store.runs[2]
        other = next(a for a in tree.abstract_ids() if a != run.states[1])
        corrupted = AbstractPath(run.states[:1] + (other,) + run.states[2:], run.actions)
        store.runs = store.runs[:2] + (corrupted,) + store.runs[3:]
        violations = check_invariants(store)
        assert len(violations) == 1
        assert violations[0].startswith("I2")

    def test_missing_run_is_i2_violation(self):
        log = small_log()
        store = build(log, PredicateTree.single_leaf())
        store.runs = store.runs[:-1]
        assert [v[:2] for v in check_invariants(store)] == ["I2"]

    def test_missing_state_is_i4_violation(self):
        log = small_log()
        store = build(log, PredicateTree.single_leaf())
        store.model = induce(store.runs, [*store.tree.abstract_ids(), 999])
        violations = check_invariants(store)
        assert any(v.startswith("I4") for v in violations)

    def test_randomized_refinement_fuzzing(self):
        rng = np.random.default_rng(42)
        log = random_log(rng)
        tree = build_initial_tree(log, TreeConfig(min_gain=0.3, min_leaf_size=2))
        store = build(log, tree)
        assert check_invariants(store) == []
        for _ in range(10):
            leaves = list(store.tree.abstract_ids())
            rng.shuffle(leaves)
            for leaf in leaves:
                batch = batch_for_leaf(store, leaf)
                result = split_leaf(
                    store.tree, leaf, batch, cfg=TreeConfig(min_gain=0.0, min_leaf_size=1)
                )
                if isinstance(result, SplitRejected):
                    continue
                store = apply_split(store, result)
                break
            else:
                break
            assert check_invariants(store) == []


class TestApplySplit:
    def test_equals_full_rebuild(self):
        rng = np.random.default_rng(7)
        log = random_log(rng)
        tree = build_initial_tree(log, TreeConfig(min_gain=0.3, min_leaf_size=2))
        store = build(log, tree)
        for leaf in store.tree.abstract_ids():
            batch = batch_for_leaf(store, leaf)
            result = split_leaf(
                store.tree, leaf, batch, cfg=TreeConfig(min_gain=0.0, min_leaf_size=1)
            )
            if isinstance(result, SplitRejected):
                continue
            incremental = apply_split(store, result)
            oracle = build(log, result.tree, store.labeling)
            assert stores_equal(incremental, oracle)
            break

    def test_one_sided_split_isolates_sibling(self):
        # Split the single leaf by a predicate satisfied by no observed state.
        log = mk_log([mk_trace("t", [{"x": 0}, {"x": 1}], ["go"])])
        store = build(log, PredicateTree.single_leaf())
        tree2, a0, a1 = store.tree.split(store.tree.leaf_node_of(0), Predicate("num_gt", "x", 99.0))
        from tracemdp.predicate_tree import LeafSplit

        split = LeafSplit(tree2, store.tree, 0, (a0, a1), Predicate("num_gt", "x", 99.0))
        refined = apply_split(store, split)
        assert refined.runs == (AbstractPath((a0, a0), ("go",)),)
        assert len(batch_for_leaf(refined, a0)) == 2
        assert len(batch_for_leaf(refined, a1)) == 0
        assert set(refined.model.states) == {a0, a1}
        assert check_invariants(refined) == []

    def test_stale_split_rejected(self):
        # The single leaf holds every state, so it has a split of real gain.
        store = build(small_log(), PredicateTree.single_leaf())
        result = split_leaf(
            store.tree, 0, batch_for_leaf(store, 0), cfg=TreeConfig(min_gain=0.0, min_leaf_size=1)
        )
        assert not isinstance(result, SplitRejected)
        refined = apply_split(store, result)
        with pytest.raises(StaleSplit):
            apply_split(refined, result)

    def test_handle_ids_not_reused(self):
        rng = np.random.default_rng(3)
        log = random_log(rng, n_traces=20)
        store = build(log, PredicateTree.single_leaf())
        seen: set[int] = set()
        for _ in range(6):
            live = set(store.model.states)
            assert not live & seen, "a retired abstract-state id came back"
            splittable = False
            for leaf in store.tree.abstract_ids():
                result = split_leaf(
                    store.tree,
                    leaf,
                    batch_for_leaf(store, leaf),
                    cfg=TreeConfig(min_gain=0.0, min_leaf_size=1),
                )
                if isinstance(result, SplitRejected):
                    continue
                seen.add(leaf)
                store = apply_split(store, result)
                splittable = True
                break
            if not splittable:
                break


def _state_key(state) -> str:
    return json.dumps(state.to_json(), sort_keys=True)


class TestRunReaders:
    """``batch_for_leaf`` and ``concretize`` read the routed runs; the
    references below recompute everything from the log and the tree."""

    @staticmethod
    def store_for(seed, min_gain, min_leaf_size):
        log = random_log(np.random.default_rng(seed), n_traces=12, max_len=6)
        tree = build_initial_tree(log, TreeConfig(min_gain=min_gain, min_leaf_size=min_leaf_size))
        return log, tree, build(log, tree)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.1, 0.3]),
        st.integers(1, 4),
    )
    def test_batch_for_leaf_is_the_leafs_logged_states(self, seed, min_gain, min_leaf_size):
        log, tree, store = self.store_for(seed, min_gain, min_leaf_size)
        for leaf in tree.abstract_ids():
            batch = batch_for_leaf(store, leaf)
            got = Counter((_state_key(s), label) for s, label in zip(batch.states, batch.labels))
            expected = Counter(
                (
                    _state_key(state),
                    trace.actions[i] if i < len(trace) else END_LABEL,
                )
                for trace in log
                for i, state in enumerate(trace.states)
                if tree.abstract(state) == leaf
            )
            assert got == expected

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 0.1, 0.3]),
        st.integers(1, 4),
        st.data(),
    )
    def test_concretize_refs_match_a_scan_of_the_log(self, seed, min_gain, min_leaf_size, data):
        log, tree, store = self.store_for(seed, min_gain, min_leaf_size)
        t = data.draw(st.integers(0, len(log) - 1))
        k = data.draw(st.integers(0, log[t].n_states - 1))
        witness = store.runs[t].prefix(k)
        verdict = concretize(store.runs, witness)
        assert isinstance(verdict, Real)
        expected = {
            (u, k)
            for u, trace in enumerate(log)
            if trace.n_states > k
            and tuple(map(tree.abstract, trace.states[: k + 1])) == witness.states
            and trace.actions[:k] == witness.actions
        }
        assert (t, k) in verdict.refs
        assert verdict.refs == expected
        unseen = AbstractPath(witness.states + (witness.states[-1],), witness.actions + ("never",))
        assert isinstance(concretize(store.runs, unseen), Spurious)


class TestRuleLabels:
    def test_all_mode_split_evidence_reported_mixed(self):
        traces = [
            mk_trace(f"p{i}", [{"x": 0, "ok": True}, {"x": 1, "ok": True}], ["go"], check_key="ok")
            for i in range(2)
        ] + [mk_trace("f", [{"x": 0, "ok": False}, {"x": 1, "ok": False}], ["go"], check_key="ok")]
        log = mk_log(traces)
        tree, low, high = PredicateTree.single_leaf().split(
            PredicateTree.single_leaf().leaf_node_of(0), Predicate("num_gt", "x", 0.5)
        )
        rules = (
            LabelRule("ok_all", (Predicate("bool_eq", "ok", True),), "all"),
            LabelRule("ok_any", (Predicate("bool_eq", "ok", True),), "any"),
        )
        store = build(log, tree, LabelingConfig(terminal_labels=False, rules=rules))
        assert store.model.label_ids()["ok_all"] == []
        assert store.mixed["ok_all"] == {low, high}
        assert set(store.model.label_ids()["ok_any"]) == {low, high}
        uniform = build(mk_log(traces[:2]), tree, LabelingConfig(terminal_labels=False, rules=rules))
        assert set(uniform.model.label_ids()["ok_all"]) == {low, high}
        assert uniform.mixed["ok_all"] == set()


class TestPersistence:
    def test_labeling_json_format(self):
        labeling = LabelingConfig(
            rules=(
                LabelRule("done", (Predicate("bool_eq", "opsCompleted", True),), "all"),
                LabelRule("late", (Predicate("num_gt", "iteration", 59.5),), "any"),
            )
        )
        raw = {
            "failure_mode": "any",
            "rules": [
                {
                    "atoms": [{"expected": True, "type": "bool_eq", "var": "opsCompleted"}],
                    "mode": "all",
                    "name": "done",
                },
                {
                    "atoms": [{"threshold": 59.5, "type": "num_gt", "var": "iteration"}],
                    "mode": "any",
                    "name": "late",
                },
            ],
            "success_mode": "all",
            "terminal_labels": True,
        }
        assert labeling.to_json_dict() == raw
        assert LabelingConfig.from_json_dict(raw) == labeling

    def test_save_load_round_trip(self, tmp_path):
        log = small_log()
        log_path = tmp_path / "log.jsonl"
        from tracemdp.trace_model import write_trace_log

        write_trace_log(log, str(log_path))
        tree = build_initial_tree(log, TreeConfig(min_leaf_size=1))
        store = build(log, tree, LabelingConfig(success_mode="all", failure_mode="any"))
        store_dir = tmp_path / "store"
        save_store(store, str(store_dir), str(log_path))
        reloaded = load_store(str(store_dir))
        assert isinstance(reloaded, SavedStore)
        assert reloaded.tree.structurally_equal(store.tree)
        assert reloaded.model == store.model
        assert reloaded.runs == store.runs
        saved = json.loads((store_dir / "runs.json").read_text())
        assert [trace_id for trace_id, _states, _actions in saved["runs"]] == [t.trace_id for t in log]
        assert reloaded.schema == log.schema
        # Byte-identical artifacts: the loaded tree and model re-save to the
        # same bytes, and so does every file of the store rebuilt from its inputs.
        resaved = tmp_path / "resaved"
        resaved.mkdir()
        reloaded.tree.save(str(resaved / "tree.json"))
        write_model(reloaded.model, str(resaved))
        save_store(build(*load_store_inputs(str(store_dir))), str(tmp_path / "store2"), str(log_path))
        for name in ("tree.json", "model.tra", "model.lab", "manifest.json", "runs.json"):
            a = (store_dir / name).read_bytes()
            b = (tmp_path / "store2" / name).read_bytes()
            assert a == b, name
            if name in ("tree.json", "model.tra", "model.lab"):
                assert a == (resaved / name).read_bytes(), name
