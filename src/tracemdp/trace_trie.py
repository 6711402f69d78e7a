"""Prefix trie over abstracted traces.

Every prefix of every inserted abstract path is a trie node.  Edges are
keyed by the pair (action, next abstract state) so that realizability checks
cover full state-action-state steps; the synthetic root carries no abstract
state, and a trace's initial state hangs under it keyed by (None, state).

The trie answers realizability only: whether an abstract path is a prefix
of some observed run, and where it first leaves them.  Which concrete
states sit behind an abstract state or prefix is read off the routed runs
themselves (``LinkedStore.runs``), so nodes carry no back-references.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

ROOT_ID = 0


@dataclass(frozen=True)
class AbstractPath:
    """Alternating sequence s0, a0, s1, ..., sn of abstract states and actions.

    The empty path (no states at all) is allowed and represents a trace with
    no recorded snapshots.
    """

    states: tuple[int, ...]
    actions: tuple[str, ...]

    def __post_init__(self) -> None:
        if self.states:
            if len(self.states) != len(self.actions) + 1:
                raise ValueError("need exactly one more state than actions")
        elif self.actions:
            raise ValueError("an empty path has no actions")

    @property
    def n_transitions(self) -> int:
        return len(self.actions)

    def steps(self) -> Iterator[tuple[int, str, int]]:
        for i, action in enumerate(self.actions):
            yield self.states[i], action, self.states[i + 1]

    def prefix(self, k: int) -> "AbstractPath":
        """The prefix with the first k transitions (k+1 states)."""
        if not 0 <= k <= self.n_transitions:
            raise ValueError(f"prefix length {k} out of range")
        if not self.states:
            return self
        return AbstractPath(self.states[: k + 1], self.actions[:k])

    def __str__(self) -> str:
        if not self.states:
            return "(empty)"
        parts = [str(self.states[0])]
        for i, action in enumerate(self.actions):
            parts.append(f"-{action}-> {self.states[i + 1]}")
        return " ".join(parts)


@dataclass
class TrieNode:
    node_id: int
    abstract_state: int | None  # None only at the root
    children: dict[tuple[str | None, int], int] = field(default_factory=dict)
    end_count: int = 0


class TraceTrie:
    def __init__(self) -> None:
        self.nodes: dict[int, TrieNode] = {ROOT_ID: TrieNode(ROOT_ID, None)}
        self._next_id = ROOT_ID + 1

    @property
    def root(self) -> TrieNode:
        return self.nodes[ROOT_ID]

    @property
    def node_count(self) -> int:
        """Number of nodes excluding the synthetic root."""
        return len(self.nodes) - 1

    def _child(self, node: TrieNode, key: tuple[str | None, int]) -> TrieNode:
        child_id = node.children.get(key)
        if child_id is None:
            child_id = self._next_id
            self._next_id += 1
            child = TrieNode(child_id, key[1])
            self.nodes[child_id] = child
            node.children[key] = child_id
            return child
        return self.nodes[child_id]

    def insert(self, path: AbstractPath) -> int:
        """Adds every prefix of a path as a node and counts the insert at the end node, whose id it returns."""
        node = self.root
        for i, state in enumerate(path.states):
            node = self._child(node, (path.actions[i - 1] if i else None, state))
        node.end_count += 1
        return node.node_id

    def supports(self, path: AbstractPath) -> bool:
        """True iff the path is a prefix of some inserted path."""
        return self.earliest_divergence(path) is None

    def earliest_divergence(self, path: AbstractPath) -> int | None:
        """Length (in transitions) of the longest supported prefix.

        None if the whole path is supported.  0 covers both an unsupported
        first transition and an initial state never observed at all.
        """
        node = self.root
        for i, state in enumerate(path.states):
            key = (path.actions[i - 1] if i else None, state)
            child_id = node.children.get(key)
            if child_id is None:
                return max(i - 1, 0)
            node = self.nodes[child_id]
        return None

    def structurally_equal(self, other: "TraceTrie") -> bool:
        if set(self.nodes) != set(other.nodes):
            return False
        for nid, node in self.nodes.items():
            o = other.nodes[nid]
            if (
                node.abstract_state != o.abstract_state
                or node.children != o.children
                or node.end_count != o.end_count
            ):
                return False
        return True

    def dump(self) -> str:
        """Indented text rendering for debugging."""
        lines: list[str] = []

        def emit(node: TrieNode, label: str, depth: int) -> None:
            marker = f" x{node.end_count}" if node.end_count else ""
            lines.append("  " * depth + f"{label} [node {node.node_id}]{marker}")
            for key in sorted(node.children, key=lambda k: (k[0] or "", k[1])):
                action, state = key
                child = self.nodes[node.children[key]]
                emit(child, f"{action or '·'} -> {state}", depth + 1)

        emit(self.root, "ε", 0)
        return "\n".join(lines)


def abstract_trace(tree, trace) -> AbstractPath:
    """Abstracts a trace under a predicate tree: one routed state per snapshot."""
    return AbstractPath(tuple(map(tree.abstract, trace.states)), trace.actions)


def rebuild(runs: Iterable[AbstractPath]) -> TraceTrie:
    """Fresh trie holding every run."""
    trie = TraceTrie()
    for run in runs:
        trie.insert(run)
    return trie
