from conftest import mk_log, mk_trace
from tracemdp.checker import parse_property
from tracemdp.linked_store import build, check_invariants
from tracemdp.predicate_tree import (
    PredicateTree,
    SplitRejected,
    TreeConfig,
    build_initial_tree,
)
from tracemdp.refinement import (
    Real,
    RefinementConfig,
    Spurious,
    batch_for_leaf,
    concretize,
    refine_once,
    verify_refine_loop,
)
from tracemdp.trace_trie import AbstractPath, abstract_trace


def real_failure_log():
    """One observed risky run that fails; three safe runs that succeed."""
    traces = [
        mk_trace("t_fail", [{"step": 0, "err": 0}, {"step": 1, "err": 1}], ["risky"], "failure"),
    ] + [
        mk_trace(f"t_ok{i}", [{"step": 0, "err": 0}, {"step": 1, "err": 0}], ["safe"], "success")
        for i in range(3)
    ]
    return mk_log(traces)


def merged_regime_log():
    """Two behavioral regimes whose middle states merge under the initial tree.

    Regime 0 (6 runs): f then g, ending in success.  Regime 1 (5 runs): f2
    then g2 then h2, ending in failure.  With min_leaf_size=6 the initial
    tree cannot separate the regimes at stages 0-1, so the model invents the
    combination "f then g2" and the checker's failure witness is spurious.
    """
    traces = []
    for i in range(6):
        traces.append(
            mk_trace(
                f"m0_{i}",
                [{"stage": 0, "mode": 0}, {"stage": 1, "mode": 0}, {"stage": 2, "mode": 0}],
                ["f", "g"],
                "success",
            )
        )
    for i in range(5):
        traces.append(
            mk_trace(
                f"m1_{i}",
                [
                    {"stage": 0, "mode": 1},
                    {"stage": 1, "mode": 1},
                    {"stage": 2, "mode": 1},
                    {"stage": 3, "mode": 1},
                ],
                ["f2", "g2", "h2"],
                "failure",
            )
        )
    return mk_log(traces)


class TestConcretize:
    def store(self):
        log = real_failure_log()
        tree = build_initial_tree(log, TreeConfig(min_gain=0.1, min_leaf_size=1))
        return build(log, tree), log, tree

    def test_observed_witness_is_real_with_refs(self):
        store, log, tree = self.store()
        witness = abstract_trace(tree, log[0])
        verdict = concretize(store, witness)
        assert isinstance(verdict, Real)
        assert (0, 1) in verdict.refs

    def test_unsupported_first_step(self):
        store, _log, _tree = self.store()
        verdict = concretize(store, AbstractPath((999,), ()))
        assert verdict == Spurious(0, 999)

    def test_mid_divergence_matches_trie_oracle(self):
        store, log, tree = self.store()
        observed = abstract_trace(tree, log[0])
        probe = AbstractPath(
            observed.states + (777,), observed.actions + ("weird",)
        )
        verdict = concretize(store, probe)
        assert isinstance(verdict, Spurious)
        assert verdict.index == store.trie.earliest_divergence(probe)
        assert verdict.leaf == probe.states[verdict.index]


class TestRefineOnce:
    def test_pure_leaf_rejected(self):
        log = real_failure_log()
        store = build(log, PredicateTree.single_leaf())
        cfg = RefinementConfig(property=parse_property('Pmin<=0 [F "failure"]'))
        # The single leaf mixes labels, so force purity via an end-only leaf:
        # instead check a leaf whose batch cannot improve.
        result = refine_once(store, Spurious(0, 0), cfg)
        # The root batch has signal (risky/safe/end), so this splits.
        assert not isinstance(result, SplitRejected)
        refined, split = result
        assert refined.tree.n_leaves == 2
        assert check_invariants(refined) == []

    def test_unknown_leaf_rejected(self):
        log = real_failure_log()
        store = build(log, PredicateTree.single_leaf())
        cfg = RefinementConfig(property=parse_property('Pmin<=0 [F "failure"]'))
        assert isinstance(refine_once(store, Spurious(0, 555), cfg), SplitRejected)

    def test_bounds_respected(self):
        log = real_failure_log()
        store = build(log, PredicateTree.single_leaf())
        cfg = RefinementConfig(
            property=parse_property('Pmin<=0 [F "failure"]'), max_leaves=1
        )
        result = refine_once(store, Spurious(0, 0), cfg)
        assert isinstance(result, SplitRejected) and result.reason == "leaves"


class TestVerifyRefineLoop:
    def test_trivially_satisfied_in_one_iteration(self):
        log = mk_log(
            [mk_trace(f"t{i}", [{"x": 0}, {"x": 1}], ["go"], "success") for i in range(3)]
        )
        cfg = RefinementConfig(property=parse_property('Pmin<=0.05 [F "failure"]'))
        outcome = verify_refine_loop(log, PredicateTree.single_leaf(), cfg)
        assert outcome.verified
        assert len(outcome.iterations) == 1
        assert outcome.iterations[0]["verdict"] == "satisfied"

    def test_max_iterations_zero_exhausts_immediately(self):
        log = real_failure_log()
        cfg = RefinementConfig(
            property=parse_property('Pmin<=0 [F "failure"]'), max_iterations=0
        )
        outcome = verify_refine_loop(log, PredicateTree.single_leaf(), cfg)
        assert outcome.kind == "exhausted"
        assert outcome.iterations == []

    def test_report_only_without_threshold(self):
        log = real_failure_log()
        cfg = RefinementConfig(property=parse_property('Pmax=? [F "failure"]'))
        outcome = verify_refine_loop(log, PredicateTree.single_leaf(), cfg)
        assert outcome.verified and outcome.reason == "report_only"
        assert outcome.iterations[0]["bound"] is not None

    def test_observed_failure_yields_real_counterexample(self):
        log = real_failure_log()
        tree = build_initial_tree(log, TreeConfig(min_gain=0.1, min_leaf_size=1))
        cfg = RefinementConfig(property=parse_property('Pmin<=0 [F "failure"]'))
        outcome = verify_refine_loop(log, tree, cfg)
        assert outcome.kind == "real_counterexample"
        # The witness references the failing trace (index 0), and that trace,
        # abstracted under the final tree, realizes the witness path.
        assert any(ref[0] == 0 for ref in outcome.witness_refs)
        final_tree = outcome.store.tree
        observed = abstract_trace(final_tree, log[0])
        assert observed.states[: len(outcome.witness_path.states)] == outcome.witness_path.states
        assert observed.actions[: len(outcome.witness_path.actions)] == outcome.witness_path.actions

    def test_merged_regimes_split_then_terminate(self):
        log = merged_regime_log()
        initial = build_initial_tree(log, TreeConfig(min_gain=0.15, min_leaf_size=6))
        # The initial abstraction merges the two regimes at stages 0 and 1.
        assert initial.n_leaves == 4
        mids = {initial.abstract(log[0].states[1]), initial.abstract(log[6].states[1])}
        assert len(mids) == 1

        cfg = RefinementConfig(
            property=parse_property('Pmax<=0.3 [F "failure"]'),
            min_gain=0.15,
            max_iterations=10,
        )
        seen_invariants = []
        outcome = verify_refine_loop(
            log,
            initial,
            cfg,
            on_iteration=lambda store, entry: seen_invariants.append(check_invariants(store)),
        )
        splits = [e for e in outcome.iterations if e.get("action") == "split"]
        assert len(splits) >= 1
        assert splits[0]["predicate"] == "mode > 0.5"
        assert outcome.kind == "real_counterexample"
        assert len(outcome.iterations) <= cfg.max_iterations
        assert all(v == [] for v in seen_invariants)
        # Leaf count grew by exactly one per split.
        final_leaves = outcome.iterations[-1]["leaves"]
        assert final_leaves == 4 + len(splits)

    def test_leaf_count_strictly_increases_per_split(self):
        log = merged_regime_log()
        initial = build_initial_tree(log, TreeConfig(min_gain=0.15, min_leaf_size=6))
        cfg = RefinementConfig(
            property=parse_property('Pmax<=0.3 [F "failure"]'),
            min_gain=0.15,
            max_iterations=10,
        )
        outcome = verify_refine_loop(log, initial, cfg)
        counts = [e["leaves"] for e in outcome.iterations]
        for a, b, entry in zip(counts, counts[1:], outcome.iterations):
            if entry.get("action") == "split":
                assert b == a + 1


def test_batch_for_leaf_labels():
    log = real_failure_log()
    store = build(log, PredicateTree.single_leaf())
    batch = batch_for_leaf(store, 0)
    counts = batch.label_counts()
    assert counts["risky"] == 1
    assert counts["safe"] == 3
    assert counts["⊥"] == 4
