from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_log, mk_trace
from tracemdp.checker import parse_property
from tracemdp.linked_store import build, check_invariants
from tracemdp.predicate_tree import (
    PredicateTree,
    SplitRejected,
    TreeConfig,
    abstract_trace,
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
from tracemdp.trace_model import AbstractPath


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


STATES = st.integers(0, 2)
ACTIONS = st.sampled_from(["a", "b"])


@st.composite
def paths(draw, max_transitions=5):
    """An abstract path over a small alphabet; the empty path included."""
    n = draw(st.integers(-1, max_transitions))
    if n < 0:
        return AbstractPath((), ())
    states = draw(st.lists(STATES, min_size=n + 1, max_size=n + 1))
    actions = draw(st.lists(ACTIONS, min_size=n, max_size=n))
    return AbstractPath(tuple(states), tuple(actions))


def observed_prefixes(runs) -> set:
    """Every (t, prefix) of the runs, the empty prefix of an empty run included."""
    return {(t, run.prefix(k)) for t, run in enumerate(runs) for k in range(run.n_transitions + 1)}


def brute_refs(runs, witness) -> set:
    """(t, k) for every run t that has the k-transition witness as a prefix."""
    if not witness.states:
        return set()
    return {(t, witness.n_transitions) for t, p in observed_prefixes(runs) if p == witness}


def brute_divergence(runs, witness) -> int:
    """Transitions in the longest witness prefix that some run has as a prefix; 0 if none."""
    seen = {p for _t, p in observed_prefixes(runs)}
    return max(
        (k for k in range(witness.n_transitions + 1) if witness.prefix(k) in seen), default=0
    )


class TestConcretize:
    def store(self):
        log = real_failure_log()
        tree = build_initial_tree(log, TreeConfig(min_gain=0.1, min_leaf_size=1))
        return build(log, tree), log, tree

    def test_observed_witness_is_real_with_refs(self):
        store, log, tree = self.store()
        witness = abstract_trace(tree, log[0])
        verdict = concretize(store.runs, witness)
        assert isinstance(verdict, Real)
        assert (0, 1) in verdict.refs

    def test_unsupported_first_step(self):
        store, _log, _tree = self.store()
        verdict = concretize(store.runs, AbstractPath((999,), ()))
        assert verdict == Spurious(0, 999)

    def test_mid_divergence_matches_trie_oracle(self):
        store, log, tree = self.store()
        observed = abstract_trace(tree, log[0])
        probe = AbstractPath(
            observed.states + (777,), observed.actions + ("weird",)
        )
        verdict = concretize(store.runs, probe)
        assert isinstance(verdict, Spurious)
        assert verdict.index == brute_divergence(store.runs, probe) == observed.n_transitions
        assert verdict.leaf == probe.states[verdict.index]

    def test_empty_witness_is_real_without_refs(self):
        store, _log, _tree = self.store()
        assert concretize(store.runs, AbstractPath((), ())) == Real(frozenset())
        assert concretize((), AbstractPath((), ())) == Real(frozenset())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(paths(), max_size=8), st.data())
    def test_matches_brute_force(self, runs, data):
        witness = data.draw(paths())
        if runs and data.draw(st.booleans()):
            run = data.draw(st.sampled_from(runs))
            witness = run.prefix(data.draw(st.integers(0, run.n_transitions)))
            if witness.states and data.draw(st.booleans()):
                witness = AbstractPath(
                    witness.states + (data.draw(STATES),), witness.actions + (data.draw(ACTIONS),)
                )
        verdict = concretize(runs, witness)
        refs = brute_refs(runs, witness)
        if refs or not witness.states:
            assert verdict == Real(frozenset(refs))
        else:
            index = brute_divergence(runs, witness)
            assert verdict == Spurious(index, witness.states[index])


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
    counts = Counter(batch.labels)
    assert counts["risky"] == 1
    assert counts["safe"] == 3
    assert counts["⊥"] == 4
