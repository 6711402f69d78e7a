import numpy as np
import pytest

from conftest import mk_log, mk_runs, mk_trace
from tracemdp.predicate_tree import TreeConfig, build_initial_tree, labeled_batch_from_log
from tracemdp.trace_trie import AbstractPath, TraceTrie, rebuild


def path(*parts):
    """AbstractPath from alternating state, action, state, ... arguments."""
    if not parts:
        return AbstractPath((), ())
    states = tuple(parts[0::2])
    actions = tuple(parts[1::2])
    return AbstractPath(states, actions)


class LinearScanOracle:
    """Reference implementation: a flat list of inserted paths."""

    def __init__(self):
        self.paths: list[AbstractPath] = []

    def insert(self, p: AbstractPath):
        self.paths.append(p)

    def _is_prefix(self, p: AbstractPath, q: AbstractPath) -> bool:
        return (
            len(p.states) <= len(q.states)
            and q.states[: len(p.states)] == p.states
            and q.actions[: len(p.actions)] == p.actions
        )

    def supports(self, p: AbstractPath) -> bool:
        return any(self._is_prefix(p, q) for q in self.paths) or not p.states

    def earliest_divergence(self, p: AbstractPath):
        if self.supports(p):
            return None
        for k in range(p.n_transitions, -1, -1):
            if self.supports(p.prefix(k)):
                return k
        return 0


def random_corpus(rng, n_paths, max_len, n_states=5, n_actions=3):
    out = []
    for _ in range(n_paths):
        n = int(rng.integers(0, max_len + 1))
        states = tuple(int(rng.integers(0, n_states)) for _ in range(n + 1))
        actions = tuple(f"a{rng.integers(0, n_actions)}" for _ in range(n))
        out.append(AbstractPath(states, actions))
    return out


class TestPathType:
    def test_alternation_enforced(self):
        with pytest.raises(ValueError):
            AbstractPath((1, 2), ())
        with pytest.raises(ValueError):
            AbstractPath((), ("a",))

    def test_prefix_and_concat(self):
        p = path(1, "a", 2, "b", 3)
        assert p.prefix(1) == path(1, "a", 2)
        assert p.prefix(0) == path(1)


class TestInsertAndSupports:
    def test_empty_path_root_only(self):
        trie = TraceTrie()
        trie.insert(path())
        assert trie.node_count == 0
        assert trie.root.end_count == 1
        assert trie.supports(path())

    def test_shared_prefix_shares_nodes(self):
        trie = TraceTrie()
        trie.insert(path(0, "a", 1, "b", 2))
        trie.insert(path(0, "a", 1, "c", 3))
        # Root child + shared node 1 + two divergent endpoints.
        assert trie.node_count == 4

    def test_exact_path_supported(self):
        trie = TraceTrie()
        trie.insert(path(0, "a", 1))
        assert trie.supports(path(0, "a", 1))
        assert trie.supports(path(0))
        assert not trie.supports(path(1))
        assert not trie.supports(path(0, "b", 1))

    def test_edges_keyed_by_action_and_state(self):
        trie = TraceTrie()
        trie.insert(path(0, "a", 1))
        trie.insert(path(0, "a", 2))
        assert not trie.supports(path(0, "b", 1))
        assert trie.supports(path(0, "a", 2))


class TestEarliestDivergence:
    def test_fully_supported(self):
        trie = TraceTrie()
        trie.insert(path(0, "a", 1, "b", 2))
        assert trie.earliest_divergence(path(0, "a", 1)) is None
        assert trie.earliest_divergence(path(0, "a", 1, "b", 2)) is None

    def test_unsupported_at_first_step(self):
        trie = TraceTrie()
        trie.insert(path(0, "a", 1))
        assert trie.earliest_divergence(path(5, "a", 1)) == 0
        assert trie.earliest_divergence(path(0, "z", 1)) == 0

    def test_mid_divergence(self):
        trie = TraceTrie()
        trie.insert(path(0, "a", 1, "b", 2, "c", 3))
        probe = path(0, "a", 1, "b", 2, "z", 9)
        assert trie.earliest_divergence(probe) == 2

    def test_matches_linear_scan_on_random_corpora(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            trie = TraceTrie()
            oracle = LinearScanOracle()
            for p in random_corpus(rng, int(rng.integers(1, 40)), 12):
                trie.insert(p)
                oracle.insert(p)
            for _ in range(30):
                probe = random_corpus(rng, 1, 12)[0]
                assert trie.supports(probe) == oracle.supports(probe)
                assert trie.earliest_divergence(probe) == oracle.earliest_divergence(probe)


class TestRebuild:
    def make_log(self):
        traces = [
            mk_trace(f"t{i}", [{"x": 0, "f": False}, {"x": 1, "f": False}], ["read"])
            for i in range(3)
        ] + [
            mk_trace(f"u{i}", [{"x": 0, "f": True}, {"x": 1, "f": True}], ["write"])
            for i in range(3)
        ]
        return mk_log(traces)

    def test_empty_log_root_only(self):
        from tracemdp.predicate_tree import PredicateTree

        trie = rebuild(mk_runs(mk_log([]), PredicateTree.single_leaf()))
        assert trie.node_count == 0

    def test_rebuild_deterministic(self):
        log = self.make_log()
        tree = build_initial_tree(log, TreeConfig(min_leaf_size=1))
        assert rebuild(mk_runs(log, tree)).structurally_equal(rebuild(mk_runs(log, tree)))

    def test_rebuild_after_split_does_not_shrink(self):
        from tracemdp.predicate_tree import split_leaf

        rng = np.random.default_rng(5)
        for _ in range(10):
            traces = []
            for i in range(12):
                xs = [int(rng.integers(0, 4)) for _ in range(4)]
                traces.append(
                    mk_trace(
                        f"t{i}",
                        [{"x": x, "y": int(rng.integers(0, 3))} for x in xs],
                        [f"a{rng.integers(0, 2)}" for _ in range(3)],
                    )
                )
            log = mk_log(traces)
            tree = build_initial_tree(log, TreeConfig(min_gain=0.2, min_leaf_size=2))
            before = rebuild(mk_runs(log, tree))
            # Split any leaf that admits one.
            batch = labeled_batch_from_log(log)
            for leaf in tree.abstract_ids():
                states = [s for s in batch.states if tree.abstract(s) == leaf]
                labels = [
                    l for s, l in zip(batch.states, batch.labels) if tree.abstract(s) == leaf
                ]
                from tracemdp.predicate_tree import LabeledBatch

                result = split_leaf(
                    tree, leaf, LabeledBatch(states, labels), cfg=TreeConfig(min_leaf_size=1)
                )
                if hasattr(result, "tree"):
                    after = rebuild(mk_runs(log, result.tree))
                    assert after.node_count >= before.node_count
                    break


def test_dump_renders():
    trie = TraceTrie()
    trie.insert(path(0, "a", 1))
    text = trie.dump()
    assert "ε" in text and "a -> 1" in text
