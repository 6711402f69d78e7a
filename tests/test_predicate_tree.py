import json
import math
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mk_log, mk_state, mk_trace
from tracemdp.errors import EmptyBatch, EmptyLog, InvalidConfig, SchemaViolation, UnknownLeaf
from tracemdp.predicate_tree import (
    InternalNode,
    LabeledBatch,
    LeafNode,
    Predicate,
    PredicateTree,
    SplitRejected,
    TreeConfig,
    build_initial_tree,
    candidate_predicates,
    entropy,
    information_gain,
    labeled_batch_from_log,
    split_leaf,
)


def batch_of(pairs):
    """LabeledBatch from [(state-var dict, label)] pairs."""
    return LabeledBatch([mk_state(state=vars_) for vars_, _ in pairs], [l for _, l in pairs])


def brute_force_entropy(counts):
    total = sum(counts.values())
    return -sum((c / total) * math.log2(c / total) for c in counts.values() if c)


def brute_force_ig(batch, predicate):
    outcomes = [predicate.evaluate(s) for s in batch.states]
    sides = {True: {}, False: {}}
    parent = {}
    for label, outcome in zip(batch.labels, outcomes):
        parent[label] = parent.get(label, 0) + 1
        sides[outcome][label] = sides[outcome].get(label, 0) + 1
    if not sides[True] or not sides[False]:
        return 0.0
    n = len(batch.labels)
    result = brute_force_entropy(parent)
    for side in (True, False):
        weight = sum(sides[side].values()) / n
        result -= weight * brute_force_entropy(sides[side])
    return result


class TestEntropy:
    def test_uniform_two_class(self):
        assert entropy([2, 2]) == 1.0

    def test_pure(self):
        assert entropy([4]) == 0.0

    def test_three_one(self):
        assert entropy([3, 1]) == pytest.approx(0.811278, abs=1e-6)

    def test_empty(self):
        with pytest.raises(EmptyBatch):
            entropy([])
        with pytest.raises(EmptyBatch):
            entropy([0])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            entropy([-1, 2])


class TestInformationGain:
    def test_perfect_split(self):
        batch = batch_of(
            [({"x": 0}, "r"), ({"x": 1}, "r"), ({"x": 5}, "w"), ({"x": 6}, "w")]
        )
        assert information_gain(batch, Predicate("num_gt", "x", 3.0)) == pytest.approx(1.0)

    def test_degenerate_split_is_zero(self):
        batch = batch_of([({"x": 0}, "r"), ({"x": 1}, "w")])
        assert information_gain(batch, Predicate("num_gt", "x", 99.0)) == 0.0

    def test_partial_split(self):
        batch = batch_of(
            [({"x": 0}, "r"), ({"x": 1}, "r"), ({"x": 5}, "r"), ({"x": 6}, "w")]
        )
        assert information_gain(batch, Predicate("num_gt", "x", 3.0)) == pytest.approx(
            0.311278, abs=1e-6
        )

    def test_empty_batch(self):
        with pytest.raises(EmptyBatch):
            information_gain(LabeledBatch([], []), Predicate("num_gt", "x", 0.0))

    def test_matches_brute_force_on_random_batches(self):
        rng = np.random.default_rng(7)
        labels = ["a", "b", "c", "d"]
        kinds = set()
        for _ in range(60):
            n = int(rng.integers(1, 50))
            k = int(rng.integers(1, 5))
            batch = batch_of(
                [
                    (
                        {
                            "x": float(rng.integers(0, 6)),
                            "b": bool(rng.integers(0, 2)),
                            "i": int(rng.integers(-2, 3)),
                            "t": f"s{rng.integers(0, 3)}",
                            "c": ["e"] * int(rng.integers(0, 4)),
                        },
                        labels[int(rng.integers(0, k))],
                    )
                    for _ in range(n)
                ]
            )
            counts = Counter(batch.labels)
            assert entropy(list(counts.values())) == pytest.approx(brute_force_entropy(counts), abs=1e-9)
            for pred in candidate_predicates(batch):
                kinds.add(pred.kind)
                mask = pred.mask(batch.column(pred.var))
                assert mask == [pred.evaluate(s) for s in batch.states]
                got = information_gain(batch, pred)
                want = brute_force_ig(batch, pred)
                assert got == pytest.approx(want, abs=1e-9)
                assert -1e-12 <= got <= entropy(list(counts.values())) + 1e-12
        assert kinds == {"num_gt", "bool_eq", "text_eq", "coll_empty", "coll_card_gt"}


# Feature values at the edges of the count table: adjacent floats (a
# midpoint rounds onto a neighbour), -0.0 beside 0.0, the largest floats
# (their midpoint overflows), integers above 2**53 that share a float, and
# empty collections.
EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -1.5, 1.0, math.nextafter(1.0, 2.0), math.nextafter(math.nextafter(1.0, 2.0), 2.0),
    math.nextafter(1.0, 0.0), 1e308, 1.7976931348623157e308,
]
EDGE_INTS = [-1, 0, 1, 2**53, 2**53 + 1, 2**53 + 2, 2**53 + 3, 2**60]

edge_rows = st.lists(
    st.tuples(
        st.sampled_from(EDGE_FLOATS),
        st.sampled_from(EDGE_INTS),
        st.booleans(),
        st.sampled_from(["", "a", "b"]),
        st.integers(0, 3),
        st.sampled_from("abc"),
    ),
    min_size=1,
    max_size=40,
)


def edge_batch(rows):
    return batch_of(
        [({"f": f, "i": i, "b": b, "t": t, "c": [0] * c}, label) for f, i, b, t, c, label in rows]
    )


def brute_force_true_counts(batch, predicate):
    """Class counts, labels in sorted order, of the rows where ``predicate`` holds."""
    held = Counter(l for s, l in zip(batch.states, batch.labels) if predicate.evaluate(s))
    return [held[name] for name in sorted(set(batch.labels))]


def decimal_gain(counts, c_true):
    """Information gain of a split given as class counts, at 50 decimal digits."""
    with localcontext() as ctx:
        ctx.prec = 50

        def h(cs):
            total = sum(cs)
            return -sum(Decimal(c) / total * (Decimal(c) / total).ln() for c in cs if c) / Decimal(2).ln()

        n, n_true = sum(counts), sum(c_true)
        if n_true in (0, n):
            return Decimal(0)
        c_false = [c - t for c, t in zip(counts, c_true)]
        return h(counts) - Decimal(n_true) / n * h(c_true) - Decimal(n - n_true) / n * h(c_false)


class TestCountTable:
    @settings(max_examples=300, deadline=None)
    @given(edge_rows)
    def test_true_counts_match_brute_force(self, rows):
        batch = edge_batch(rows)
        counts = Counter(batch.labels)
        assert batch.class_counts() == [counts[name] for name in sorted(counts)]
        for pred in candidate_predicates(batch):
            assert batch.true_counts(pred) == brute_force_true_counts(batch, pred), pred

    def test_midpoint_rounding_onto_a_neighbour(self):
        above = math.nextafter(1.0, 2.0)
        batch = batch_of([({"f": 1.0}, "a"), ({"f": above}, "b")])
        (pred,) = candidate_predicates(batch)
        assert pred == Predicate("num_gt", "f", 1.0)  # (1.0 + above) / 2 rounds to 1.0
        assert batch.true_counts(pred) == [0, 1]
        assert information_gain(batch, pred) == 1.0

    @pytest.mark.parametrize(
        "values",
        [
            [1.0, math.nextafter(1.0, 2.0), math.nextafter(math.nextafter(1.0, 2.0), 2.0)],
            [1.5e308, 1.7e308],
            [-1.7e308, -1.5e308],
        ],
        ids=["adjacent_floats", "sum_overflows_up", "sum_overflows_down"],
    )
    def test_every_boundary_is_offered(self, values):
        """Each threshold splits its two neighbours, even where their midpoint rounds or overflows."""
        batch = batch_of([({"f": value}, f"l{i}") for i, value in enumerate(values)])
        preds = candidate_predicates(batch)
        n = len(values)
        assert [batch.true_counts(pred) for pred in preds] == [[0] * k + [1] * (n - k) for k in range(1, n)]
        assert all(math.isfinite(pred.param) for pred in preds)

    def test_wrongly_typed_predicate_is_schema_violation(self):
        batch = batch_of([({"t": "a"}, "a"), ({"t": "b"}, "b")])
        with pytest.raises(SchemaViolation, match="value of kind 'text' is not numeric"):
            batch.true_counts(Predicate("num_gt", "t", 0.5))


class TestExactGain:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(1, 6), min_size=1, max_size=5),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    def test_proportional_split_gains_exactly_zero(self, base, k_true, k_false):
        """Children with the parent's class proportions carry no information."""
        pairs = [
            ({"x": side}, f"l{i}")
            for i, count in enumerate(base)
            for side, k in ((1, k_true), (0, k_false))
            for _ in range(k * count)
        ]
        assert information_gain(batch_of(pairs), Predicate("num_gt", "x", 0.5)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(edge_rows)
    def test_gains_are_non_negative_and_match_a_decimal_reference(self, rows):
        batch = edge_batch(rows)
        counts = batch.class_counts()
        for pred in candidate_predicates(batch):
            gain = information_gain(batch, pred)
            assert gain >= 0.0, pred
            want = decimal_gain(counts, brute_force_true_counts(batch, pred))
            assert abs(Decimal(gain) - want) <= Decimal("1e-12"), pred


@pytest.mark.parametrize(
    "pred, value, text",
    [
        (Predicate("num_gt", "x", 1.0), "a", "value of kind 'text' is not numeric"),
        (Predicate("bool_eq", "x", True), 1, "'x' is not boolean"),
        (Predicate("text_eq", "x", "a"), 1.5, "'x' is not text"),
        (Predicate("coll_empty", "x"), 2, "value of kind 'integer' has no cardinality"),
        (Predicate("coll_card_gt", "x", 1), True, "value of kind 'boolean' has no cardinality"),
    ],
    ids=["num_gt", "bool_eq", "text_eq", "coll_empty", "coll_card_gt"],
)
def test_wrongly_typed_value_is_schema_violation(pred, value, text):
    with pytest.raises(SchemaViolation) as exc:
        pred.evaluate(mk_state(state={"x": value}))
    assert str(exc.value) == text


def test_integer_too_large_for_a_float_is_schema_violation():
    state = mk_state(state={"n": 10**400})
    with pytest.raises(SchemaViolation, match="'n'"):
        Predicate("num_gt", "n", 1.0).evaluate(state)
    with pytest.raises(SchemaViolation, match="'n'"):
        LabeledBatch([state], ["a"]).column("n")


class TestCandidates:
    def test_numeric_midpoints(self):
        batch = batch_of([({"x": 1}, "a"), ({"x": 3}, "b"), ({"x": 7}, "a")])
        preds = [p for p in candidate_predicates(batch) if p.kind == "num_gt"]
        assert [p.param for p in preds] == [2.0, 5.0]

    def test_boolean_single_candidate(self):
        batch = batch_of([({"f": True}, "a"), ({"f": False}, "b")])
        preds = candidate_predicates(batch)
        assert preds == [Predicate("bool_eq", "f", True)]

    def test_collection_empty_plus_card_midpoint(self):
        batch = batch_of([({"c": []}, "a"), ({"c": [1, 2]}, "b")])
        preds = candidate_predicates(batch)
        assert Predicate("coll_empty", "c") in preds
        assert Predicate("coll_card_gt", "c", 1) in preds

    def test_path_predicate_gains_zero_and_is_not_chosen(self):
        """A predicate holds on every state routed below it: offered again there, it gains exactly 0.0."""
        pred = Predicate("bool_eq", "f", True)
        tree, _a0, a1 = PredicateTree.single_leaf().split(0, pred)
        cfg = TreeConfig(min_gain=0.0, min_leaf_size=1)
        batch = batch_of([({"f": True, "x": 1}, "a"), ({"f": True, "x": 3}, "b")])
        assert candidate_predicates(batch) == [pred, Predicate("num_gt", "x", 2.0)]
        assert information_gain(batch, pred) == 0.0
        assert split_leaf(tree, a1, batch, cfg=cfg).predicate == Predicate("num_gt", "x", 2.0)
        alone = batch_of([({"f": True, "x": 1}, "a"), ({"f": True, "x": 1}, "b")])
        assert candidate_predicates(alone) == [pred]
        assert split_leaf(tree, a1, alone, cfg=cfg) == SplitRejected("min_gain")


class TestAbstract:
    def test_single_leaf(self):
        tree = PredicateTree.single_leaf()
        assert tree.abstract(mk_state(state={"x": 1})) == 0

    def test_boolean_root(self):
        tree = PredicateTree(
            {0: InternalNode(Predicate("bool_eq", "testsPassed", True), 1, 2), 1: LeafNode(0), 2: LeafNode(1)},
            root=0,
            next_node_id=3,
            next_abstract_id=2,
        )
        assert tree.abstract(mk_state(check={"testsPassed": True})) == 1
        assert tree.abstract(mk_state(check={"testsPassed": False})) == 0

    def test_depth_three_manual_trace(self):
        # Route: filesWritten>0 ? (iteration>4 ? L3 : L2) : (lastFileRead=="a.txt" ? L1 : L0)
        tree = PredicateTree(
            {
                0: InternalNode(Predicate("num_gt", "filesWritten", 0.0), 1, 2),
                1: InternalNode(Predicate("text_eq", "lastFileRead", "a.txt"), 3, 4),
                2: InternalNode(Predicate("num_gt", "iteration", 4.0), 5, 6),
                3: LeafNode(0),
                4: LeafNode(1),
                5: LeafNode(2),
                6: LeafNode(3),
            },
            root=0,
            next_node_id=7,
            next_abstract_id=4,
        )
        state = mk_state(state={"filesWritten": 2, "iteration": 5, "lastFileRead": "b.txt"})
        # filesWritten=2 > 0 -> true branch; iteration=5 > 4 -> true branch -> leaf 3.
        assert tree.abstract(state) == 3
        low = mk_state(state={"filesWritten": 0, "iteration": 9, "lastFileRead": "a.txt"})
        assert tree.abstract(low) == 1

    def test_missing_variable_raises(self):
        tree = PredicateTree(
            {0: InternalNode(Predicate("bool_eq", "f", True), 1, 2), 1: LeafNode(0), 2: LeafNode(1)},
            root=0,
            next_node_id=3,
            next_abstract_id=2,
        )
        with pytest.raises(SchemaViolation):
            tree.abstract(mk_state(state={"x": 1}))

    def test_deterministic_and_partitioning(self, two_regime_log):
        tree = build_initial_tree(two_regime_log, TreeConfig(min_leaf_size=1))
        batch = labeled_batch_from_log(two_regime_log)
        seen = {}
        for state in batch.states:
            leaf = tree.abstract(state)
            assert tree.abstract(state) == leaf  # repeated calls agree
            seen.setdefault(leaf, 0)
            seen[leaf] += 1
        assert sum(seen.values()) == len(batch)
        assert set(seen) <= set(tree.abstract_ids())


class TestBuildInitialTree:
    def test_log_without_transitions_rejected(self):
        log = mk_log([mk_trace(f"t{i}", [{"x": i}], []) for i in range(3)])
        with pytest.raises(EmptyLog):
            build_initial_tree(log)

    def test_same_next_action_nonseparable(self):
        # All states share the same label distribution signal-free variables.
        log = mk_log(
            [mk_trace(f"t{i}", [{"x": 1}, {"x": 1}], ["go"]) for i in range(4)]
        )
        tree = build_initial_tree(log, TreeConfig(min_leaf_size=1))
        # x is constant; only labels {go, END} exist but no candidate separates.
        assert tree.n_leaves == 1

    def test_two_action_log_split_on_files_written(self, two_regime_log):
        tree = build_initial_tree(two_regime_log, TreeConfig(min_leaf_size=1))
        root = tree.node(tree.root)
        assert isinstance(root, InternalNode)
        assert root.predicate == Predicate("bool_eq", "flag", True)

    def test_gamma_infinite_single_leaf(self, two_regime_log):
        tree = build_initial_tree(two_regime_log, TreeConfig(min_gain=math.inf))
        assert tree.n_leaves == 1

    def test_gamma_zero_splits_when_gain_exists(self, two_regime_log):
        tree = build_initial_tree(two_regime_log, TreeConfig(min_gain=0.0, min_leaf_size=1))
        assert tree.n_leaves > 1

    def test_max_leaves_respected(self):
        rng = np.random.default_rng(3)
        traces = [
            mk_trace(
                f"t{i}",
                [{"x": float(rng.uniform())}, {"x": float(rng.uniform())}],
                [str(rng.integers(0, 4))],
            )
            for i in range(60)
        ]
        tree = build_initial_tree(
            mk_log(traces), TreeConfig(min_gain=0.0, min_leaf_size=1, max_leaves=7)
        )
        assert tree.n_leaves <= 7


class TestSplitLeaf:
    def test_pure_batch_rejected(self):
        tree = PredicateTree.single_leaf()
        batch = batch_of([({"x": 1}, "a"), ({"x": 2}, "a")])
        result = split_leaf(tree, 0, batch, cfg=TreeConfig(min_leaf_size=1))
        assert isinstance(result, SplitRejected) and result.reason == "pure"

    def test_size_bound(self):
        tree = PredicateTree.single_leaf()
        batch = batch_of([({"x": 1}, "a"), ({"x": 2}, "b")])
        result = split_leaf(tree, 0, batch, cfg=TreeConfig(min_leaf_size=5))
        assert isinstance(result, SplitRejected) and result.reason == "size"

    def test_boolean_flag_split_gain_equals_entropy(self):
        tree = PredicateTree.single_leaf()
        batch = batch_of(
            [({"f": True}, "w"), ({"f": True}, "w"), ({"f": False}, "r"), ({"f": False}, "r")]
        )
        result = split_leaf(tree, 0, batch, cfg=TreeConfig(min_leaf_size=1))
        assert result.predicate == Predicate("bool_eq", "f", True)
        assert information_gain(batch, result.predicate) == pytest.approx(
            entropy(list(Counter(batch.labels).values()))
        )
        # Children are fresh ids; the parent id is retired.
        assert result.children == (1, 2)
        assert 0 not in result.tree.abstract_ids()

    def test_unknown_leaf(self):
        tree = PredicateTree.single_leaf()
        with pytest.raises(UnknownLeaf):
            split_leaf(tree, 99, batch_of([({"x": 1}, "a")]))

    def test_refinement_monotonicity(self):
        rng = np.random.default_rng(11)
        states = [
            {"x": float(rng.integers(0, 10)), "f": bool(rng.integers(0, 2))} for _ in range(40)
        ]
        labels = [str(rng.integers(0, 3)) for _ in range(40)]
        batch = LabeledBatch([mk_state(state=s) for s in states], labels)
        tree = PredicateTree.single_leaf()
        result = split_leaf(tree, 0, batch, cfg=TreeConfig(min_gain=0.0, min_leaf_size=1))
        before = [tree.abstract(s) for s in batch.states]
        after = [result.tree.abstract(s) for s in batch.states]
        for b, a in zip(before, after):
            assert b == 0
            assert a in result.children


class TestSerialization:
    def test_round_trip_exact(self, two_regime_log):
        tree = build_initial_tree(two_regime_log, TreeConfig(min_leaf_size=1))
        clone = PredicateTree.from_json(tree.to_json())
        assert clone.structurally_equal(tree)
        assert clone.to_json() == tree.to_json()

    @staticmethod
    def three_leaf_json() -> dict:
        """Root 0 splits into leaf 1 and internal node 2, which splits into leaves 3 and 4."""
        tree, _a1, a2 = PredicateTree.single_leaf().split(0, Predicate("num_gt", "x", 0.5))
        tree, _a3, _a4 = tree.split(tree.leaf_node_of(a2), Predicate("bool_eq", "f", True))
        raw = tree.to_json_dict()
        assert [n["kind"] for n in raw["nodes"]] == ["internal", "leaf", "internal", "leaf", "leaf"]
        return raw

    def test_well_formed_file_loads(self, tmp_path):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(self.three_leaf_json()))
        assert PredicateTree.load(str(path)).n_leaves == 3

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw["nodes"][2].update(ch1=99),
            lambda raw: raw.update(root=99),
            lambda raw: raw["nodes"][2].update(ch0=0),
            lambda raw: raw["nodes"][2].update(ch0=2),
            lambda raw: raw["nodes"][2].update(ch0=1),
            lambda raw: raw["nodes"][4].update(abstract_state_id=raw["nodes"][3]["abstract_state_id"]),
            lambda raw: raw.update(next_abstract_id=raw["nodes"][4]["abstract_state_id"]),
            lambda raw: raw.update(next_node_id=4),
            lambda raw: raw["nodes"].append({"id": 5, "kind": "leaf", "abstract_state_id": 9}),
            lambda raw: raw["nodes"].append(dict(raw["nodes"][4])),
            lambda raw: raw.pop("nodes"),
            lambda raw: raw["nodes"][0].pop("predicate"),
            lambda raw: raw["nodes"][0]["predicate"].update(type="num_between"),
        ],
        ids=[
            "undefined_child",
            "undefined_root",
            "child_is_the_root",
            "child_is_itself",
            "shared_child",
            "shared_abstract_id",
            "next_abstract_id_in_use",
            "next_node_id_in_use",
            "unreached_node",
            "node_defined_twice",
            "no_nodes",
            "no_predicate",
            "unknown_predicate",
        ],
    )
    def test_malformed_file_is_invalid_config(self, tmp_path, damage):
        raw = self.three_leaf_json()
        damage(raw)
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(InvalidConfig, match="tree.json"):
            PredicateTree.load(str(path))

    @pytest.mark.parametrize("text", ["not json", "[]", "{\"nodes\": [1]}"], ids=["not_json", "list", "bad_node"])
    def test_non_tree_text_is_invalid_config(self, tmp_path, text):
        path = tmp_path / "tree.json"
        path.write_text(text)
        with pytest.raises(InvalidConfig, match="tree.json"):
            PredicateTree.load(str(path))

    def test_ids_never_reused_after_reload(self):
        tree = PredicateTree.single_leaf()
        batch = batch_of([({"f": True}, "w"), ({"f": False}, "r")])
        split = split_leaf(tree, 0, batch, cfg=TreeConfig(min_leaf_size=1))
        reloaded = PredicateTree.from_json(split.tree.to_json())
        batch2 = batch_of([({"f": True}, "w"), ({"f": False}, "z")])
        # Splitting after reload still mints ids above every historical id.
        second = split_leaf(
            reloaded, split.children[1], batch2, cfg=TreeConfig(min_leaf_size=1)
        )
        assert min(second.children) > max(split.children)
