"""Predicate grammar, entropy / information gain, and decision-tree abstraction.

The grammar has five kinds of ``Predicate``, and each is one comparison of
one variable's feature with the predicate's parameter.  A value's feature
depends only on its type tag: numbers and integers compare as floats,
booleans as bools, text as the string itself and collections by their
cardinality.

    num_gt        var > threshold          numbers, integers
    bool_eq       var == expected          booleans
    text_eq       var == expected          text
    coll_empty    card(var) == 0           collections
    coll_card_gt  card(var) > threshold    collections

Routing tests one value (``Predicate.test``) and learning counts the
classes on each side of a split with the same comparison
(``LabeledBatch.true_counts``).

A predicate tree routes a concrete state from the root to a leaf by
evaluating one predicate per internal node (false -> child 0, true ->
child 1).  Leaves are the abstract states.  Trees are immutable values:
construction and splitting return new trees, and abstract-state ids are
never reused after a split retires them.

Splits are chosen greedily by information gain of the next-action label
distribution, computed with base-2 entropy over integer class counts: one
table per variable and batch holds each distinct feature's class counts in
sorted order with their suffix sums, so every threshold's two sides are
read off it (Fayyad & Irani's boundary-point scan).  Everything here is
plain Python.
"""

from __future__ import annotations

import json
import math
import operator
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import EmptyBatch, EmptyLog, InvalidConfig, SchemaViolation, UnknownLeaf
from .trace_model import (
    BOOLEAN,
    COLLECTION,
    INTEGER,
    NUMBER,
    TEXT,
    AbstractPath,
    ConcreteState,
    Layout,
    Trace,
    TraceLog,
    kind_of,
)

# Class label assigned to a trace's final state, which has no next action.
END_LABEL = "⊥"  # ⊥


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

class _Kind(NamedTuple):
    tags: tuple[str, ...]  # type tags of the values the kind reads
    compare: Callable[[Any, Any], Any]  # applied as compare(feature, param)
    param_name: str | None  # JSON name of the parameter; None: the kind takes none
    param_types: tuple[type, ...]  # its exact JSON types; the last one is stored
    mismatch: str  # SchemaViolation text for a value of another tag
    text: str  # how the predicate prints


_KINDS = {
    "num_gt": _Kind((NUMBER, INTEGER), operator.gt, "threshold", (int, float),
                    "value of kind {tag!r} is not numeric", "{var} > {param:g}"),
    "bool_eq": _Kind((BOOLEAN,), operator.eq, "expected", (bool,),
                     "{var!r} is not boolean", "{var} == {json}"),
    "text_eq": _Kind((TEXT,), operator.eq, "expected", (str,),
                     "{var!r} is not text", "{var} == {param!r}"),
    "coll_empty": _Kind((COLLECTION,), operator.eq, None, (),
                        "value of kind {tag!r} has no cardinality", "empty({var})"),
    "coll_card_gt": _Kind((COLLECTION,), operator.gt, "threshold", (int,),
                          "value of kind {tag!r} has no cardinality", "card({var}) > {param}"),
}

# Per type tag: the feature a value is compared as.
_FEATURES = {NUMBER: float, INTEGER: float, BOOLEAN: bool, TEXT: str, COLLECTION: len}


def _feature(var: str, tag: str, value: object) -> object:
    """The feature that a value of variable ``var``, of type tag ``tag``, is compared as.

    SchemaViolation naming ``var`` for an integer too large for a float.
    """
    try:
        return _FEATURES[tag](value)
    except OverflowError:
        raise SchemaViolation(f"value of {var!r} is an integer too large for a float") from None


@dataclass(frozen=True)
class Predicate:
    """``compare(feature of var's value, param)``, with the comparison of ``kind``.

    The kind (``_KINDS``) fixes the type tags it reads and its comparison;
    ``param`` is a float threshold (num_gt), a bool or string to equal
    (bool_eq, text_eq) or an integer cardinality threshold (coll_card_gt),
    and coll_empty compares a cardinality with its default 0.
    """

    kind: str
    var: str
    param: Any = 0

    def test(self, value: object) -> bool:
        spec = _KINDS[self.kind]
        tag = kind_of(value)
        if tag not in spec.tags:
            raise SchemaViolation(spec.mismatch.format(var=self.var, tag=tag))
        return spec.compare(_feature(self.var, tag, value), self.param)

    def evaluate(self, state: ConcreteState) -> bool:
        """Total and deterministic on any schema-conforming state."""
        return self.test(state.value(self.var))

    def mask(self, column: Sequence) -> list[bool]:
        """``test`` over a feature column (see LabeledBatch.column)."""
        compare, param = _KINDS[self.kind].compare, self.param
        return [compare(feature, param) for feature in column]

    def sort_key(self) -> tuple:
        """Deterministic tie-break order: variable, kind, then parameter, text after every number."""
        if isinstance(self.param, str):
            return (self.var, self.kind, math.inf, self.param)
        return (self.var, self.kind, float(self.param), "")

    def __str__(self) -> str:
        return _KINDS[self.kind].text.format(var=self.var, param=self.param, json=json.dumps(self.param))


def predicate_to_json(pred: Predicate) -> dict:
    out: dict[str, object] = {"type": pred.kind, "var": pred.var}
    name = _KINDS[pred.kind].param_name
    if name is not None:
        out[name] = pred.param
    return out


def predicate_from_json(raw: Mapping) -> Predicate:
    """The predicate ``predicate_to_json`` wrote; ValueError if its type is
    unknown or a parameter has the wrong JSON type or is not finite."""
    kind = raw["type"]
    var = raw["var"]
    if not isinstance(var, str) or not var:
        raise ValueError(f"predicate var must be a non-empty string, not {var!r}")
    spec = _KINDS.get(kind) if isinstance(kind, str) else None
    if spec is None:
        raise ValueError(f"unknown predicate type {kind!r}")
    name = spec.param_name
    if name is None:
        return Predicate(kind, var)
    value = raw[name]
    if type(value) not in spec.param_types:
        types = " or ".join(t.__name__ for t in spec.param_types)
        raise ValueError(f"{kind} {name} must be {types}, not {value!r}")
    try:
        param = spec.param_types[-1](value)
    except OverflowError:
        raise ValueError(f"{kind} {name} is too large for a float") from None
    # json parses NaN and Infinity as floats, but JSON cannot write them back.
    if isinstance(param, float) and not math.isfinite(param):
        raise ValueError(f"{kind} {name} must be finite, not {param!r}")
    return Predicate(kind, var, param)


# ---------------------------------------------------------------------------
# Labeled batches
# ---------------------------------------------------------------------------

class _CountTable(NamedTuple):
    """One variable's class counts over a batch, classes in sorted label order."""

    tag: str  # the variable's type tag
    rows: dict  # distinct feature -> class counts of the rows holding it
    keys: list  # the distinct features, sorted
    suffix: list[list[int]]  # suffix[i]: class counts of the rows whose feature is in keys[i:]


class LabeledBatch:
    """Concrete states paired with their next-action class labels.

    Feature columns and per-variable count tables are built lazily, once
    per batch, so each candidate's gain reads class counts without a pass
    over the rows.
    """

    def __init__(self, states: Sequence[ConcreteState], labels: Sequence[str]):
        if len(states) != len(labels):
            raise ValueError("states and labels must have equal length")
        self.states = list(states)
        self.labels = list(labels)
        counts = Counter(self.labels)
        self._classes = {name: i for i, name in enumerate(sorted(counts))}
        self._counts = [counts[name] for name in self._classes]
        self._columns: dict[str, list] = {}
        self._tables: dict[str, _CountTable] = {}

    def __len__(self) -> int:
        return len(self.states)

    @property
    def var_catalog(self) -> Layout:
        """The batch's schema: its first state's layout (empty partitions if none)."""
        return self.states[0].layout if self.states else ({}, {}, {})

    def column(self, var: str) -> list:
        """Feature list of a variable: each value's ``_feature``."""
        col = self._columns.get(var)
        if col is None:
            tag = kind_of(self.states[0].value(var))
            col = self._columns[var] = [_feature(var, tag, s.value(var)) for s in self.states]
        return col

    def class_counts(self) -> list[int]:
        """Each label's count, labels in sorted order (the batch's own list: do not mutate)."""
        return self._counts

    def _table(self, var: str) -> _CountTable:
        table = self._tables.get(var)
        if table is None:
            rows: dict = {}
            for feature, label in zip(self.column(var), self.labels):
                row = rows.get(feature)
                if row is None:
                    row = rows[feature] = [0] * len(self._counts)
                row[self._classes[label]] += 1
            keys = sorted(rows)
            suffix = [[0] * len(self._counts)]
            for key in reversed(keys):
                suffix.append([a + b for a, b in zip(rows[key], suffix[-1])])
            suffix.reverse()
            tag = kind_of(self.states[0].value(var))
            table = self._tables[var] = _CountTable(tag, rows, keys, suffix)
        return table

    def true_counts(self, predicate: Predicate) -> list[int]:
        """Class counts (as ``class_counts``, the table's own list) of the rows where ``predicate`` holds.

        A ``gt`` kind holds on the features above its parameter, the suffix
        after ``bisect_right``; an ``eq`` kind on one feature's row.
        """
        spec = _KINDS[predicate.kind]
        table = self._table(predicate.var)
        if table.tag not in spec.tags:
            raise SchemaViolation(spec.mismatch.format(var=predicate.var, tag=table.tag))
        if spec.compare is operator.gt:
            return table.suffix[bisect_right(table.keys, predicate.param)]
        return table.rows.get(predicate.param, table.suffix[-1])

    def subset(self, mask: Sequence[bool]) -> "LabeledBatch":
        sub = LabeledBatch(list(compress(self.states, mask)), list(compress(self.labels, mask)))
        for var, col in self._columns.items():
            sub._columns[var] = list(compress(col, mask))
        return sub


def labeled_batch_from_log(
    log: TraceLog, refs: Iterable[tuple[int, int]] | None = None
) -> LabeledBatch:
    """States of a log, labeled by the next action (⊥ at ends).

    ``refs`` names the states as (trace index, state index) pairs, in batch
    order; without it the batch holds every observed state of the log.
    """
    if refs is None:
        refs = ((t, i) for t, trace in enumerate(log) for i in range(trace.n_states))
    states: list[ConcreteState] = []
    labels: list[str] = []
    for trace_idx, state_idx in refs:
        trace = log[trace_idx]
        states.append(trace.states[state_idx])
        labels.append(trace.actions[state_idx] if state_idx < len(trace) else END_LABEL)
    return LabeledBatch(states, labels)


# ---------------------------------------------------------------------------
# Entropy and information gain
# ---------------------------------------------------------------------------

def entropy(counts: Sequence[int]) -> float:
    """Shannon entropy in bits of an empirical class distribution, given as class counts."""
    if any(c < 0 for c in counts):
        raise ValueError(f"negative class count in {list(counts)}")
    total = sum(counts)
    if total == 0:
        raise EmptyBatch("entropy of an empty batch is undefined")
    return -sum(p * math.log2(p) for p in (c / total for c in counts if c))


def information_gain(batch: LabeledBatch, predicate: Predicate) -> float:
    """Entropy reduction of the label distribution under a predicate split.

    A split whose children keep the parent's class proportions, exactly in
    integers, carries no information and gains exactly 0.0; so does a
    degenerate split (one side empty).  Such a split is never selected.
    """
    if len(batch) == 0:
        raise EmptyBatch("information gain over an empty batch is undefined")
    counts = batch.class_counts()
    c_true = batch.true_counts(predicate)
    n, n_true = len(batch), sum(c_true)
    if all(t * n == c * n_true for c, t in zip(counts, c_true)):
        return 0.0
    c_false = [c - t for c, t in zip(counts, c_true)]
    return entropy(counts) - (n_true / n) * entropy(c_true) - ((n - n_true) / n) * entropy(c_false)


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TreeConfig:
    """Bounds for tree construction and leaf splitting.

    ``min_gain`` is the gamma threshold in bits: a node stays a leaf unless
    its best split gains more than that.  It must be non-negative, since a
    negative floor would admit splits of zero gain.
    """

    min_gain: float = 0.01
    max_depth: int = 12
    max_leaves: int = 256
    min_leaf_size: int = 5

    def __post_init__(self) -> None:
        if self.max_depth <= 0 or self.max_leaves <= 0 or self.min_leaf_size <= 0:
            raise InvalidConfig("tree bounds must be positive")
        if not self.min_gain >= 0:
            raise InvalidConfig(f"min_gain must be non-negative, got {self.min_gain!r}")


def candidate_predicates(batch: LabeledBatch) -> list[Predicate]:
    """Candidate splits for a batch, in deterministic sort order.

    Numeric variables yield one threshold between each two sorted distinct
    observed values: their midpoint, or the lower value where the midpoint
    rounds onto either value or overflows.  Booleans yield one equality
    test, text variables equality against each observed value, collections
    emptiness plus cardinality thresholds.
    """
    if len(batch) == 0:
        raise EmptyBatch("cannot derive candidates from an empty batch")
    out: list[Predicate] = []
    for var, kind in sorted(item for part in batch.var_catalog for item in part.items()):
        distinct = batch._table(var).keys
        if kind in (NUMBER, INTEGER):
            mids = ((a, (a + b) / 2.0, b) for a, b in zip(distinct, distinct[1:]))
            out += [Predicate("num_gt", var, m if a < m < b else a) for a, m, b in mids]
        elif kind == BOOLEAN:
            out.append(Predicate("bool_eq", var, True))
        elif kind == TEXT:
            out += [Predicate("text_eq", var, text) for text in distinct]
        elif kind == COLLECTION:
            out.append(Predicate("coll_empty", var))
            out += [Predicate("coll_card_gt", var, (a + b) // 2) for a, b in zip(distinct, distinct[1:])]
    out.sort(key=lambda p: p.sort_key())
    return out


# ---------------------------------------------------------------------------
# The tree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeafNode:
    abstract_id: int


@dataclass(frozen=True)
class InternalNode:
    predicate: Predicate
    ch0: int
    ch1: int


class PredicateTree:
    """Immutable binary decision tree whose leaves are abstract states."""

    def __init__(
        self,
        nodes: dict[int, LeafNode | InternalNode],
        root: int,
        next_node_id: int,
        next_abstract_id: int,
    ):
        self.nodes = nodes
        self.root = root
        self._next_node_id = next_node_id
        self._next_abstract_id = next_abstract_id
        self._leaf_index: dict[int, int] | None = None

    @staticmethod
    def single_leaf() -> "PredicateTree":
        return PredicateTree({0: LeafNode(0)}, root=0, next_node_id=1, next_abstract_id=1)

    # -- structure ---------------------------------------------------------

    def node(self, node_id: int) -> LeafNode | InternalNode:
        return self.nodes[node_id]

    def leaves(self) -> dict[int, int]:
        """Maps abstract-state id to its leaf node id."""
        if self._leaf_index is None:
            self._leaf_index = {
                n.abstract_id: nid for nid, n in self.nodes.items() if isinstance(n, LeafNode)
            }
        return self._leaf_index

    @property
    def n_leaves(self) -> int:
        return len(self.leaves())

    def abstract_ids(self) -> list[int]:
        return sorted(self.leaves())

    def leaf_node_of(self, abstract_id: int) -> int:
        try:
            return self.leaves()[abstract_id]
        except KeyError:
            raise UnknownLeaf(f"no leaf with abstract-state id {abstract_id}") from None

    def parent_map(self) -> dict[int, int]:
        return {
            child: nid
            for nid, n in self.nodes.items()
            if isinstance(n, InternalNode)
            for child in (n.ch0, n.ch1)
        }

    def path_predicates(self, node_id: int) -> list[Predicate]:
        """Predicates on the root-to-node path (node excluded)."""
        parents = self.parent_map()
        preds: list[Predicate] = []
        while node_id in parents:
            node_id = parents[node_id]
            preds.append(self.nodes[node_id].predicate)  # type: ignore[union-attr]
        preds.reverse()
        return preds

    # -- abstraction -------------------------------------------------------

    def abstract(self, state: ConcreteState) -> int:
        """Routes a concrete state to its abstract-state id (deterministic)."""
        node = self.nodes[self.root]
        while isinstance(node, InternalNode):
            node = self.nodes[node.ch1 if node.predicate.evaluate(state) else node.ch0]
        return node.abstract_id

    # -- splitting ---------------------------------------------------------

    def split(self, leaf_node_id: int, predicate: Predicate) -> tuple["PredicateTree", int, int]:
        """Replaces a leaf by an internal node with two fresh leaves.

        Returns (new tree, abstract id of false child, abstract id of true
        child).  The retired abstract id is never minted again.
        """
        node = self.nodes.get(leaf_node_id)
        if not isinstance(node, LeafNode):
            raise UnknownLeaf(f"node {leaf_node_id} is not a leaf")
        nodes = dict(self.nodes)
        n0, n1 = self._next_node_id, self._next_node_id + 1
        a0, a1 = self._next_abstract_id, self._next_abstract_id + 1
        nodes[n0] = LeafNode(a0)
        nodes[n1] = LeafNode(a1)
        nodes[leaf_node_id] = InternalNode(predicate, n0, n1)
        return PredicateTree(nodes, self.root, n0 + 2, a1 + 1), a0, a1

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        items = []
        for nid in sorted(self.nodes):
            n = self.nodes[nid]
            if isinstance(n, LeafNode):
                items.append({"id": nid, "kind": "leaf", "abstract_state_id": n.abstract_id})
            else:
                items.append(
                    {
                        "id": nid,
                        "kind": "internal",
                        "predicate": predicate_to_json(n.predicate),
                        "ch0": n.ch0,
                        "ch1": n.ch1,
                    }
                )
        return {
            "root": self.root,
            "next_node_id": self._next_node_id,
            "next_abstract_id": self._next_abstract_id,
            "nodes": items,
        }

    @staticmethod
    def from_json_dict(raw: Mapping) -> "PredicateTree":
        """The tree ``to_json_dict`` wrote; InvalidConfig unless ``raw`` is a well-formed tree.

        Well-formed: the root reaches every node exactly once (so no child is
        undefined, shared or an ancestor), no two leaves share an abstract-state
        id, and each id counter lies above every id in use.
        """
        try:
            nodes: dict[int, LeafNode | InternalNode] = {}
            for item in raw["nodes"]:
                if item["kind"] == "leaf":
                    node: LeafNode | InternalNode = LeafNode(int(item["abstract_state_id"]))
                else:
                    node = InternalNode(
                        predicate_from_json(item["predicate"]), int(item["ch0"]), int(item["ch1"])
                    )
                nodes.setdefault(int(item["id"]), node)
            duplicates = len(raw["nodes"]) - len(nodes)
            tree = PredicateTree(
                nodes, int(raw["root"]), int(raw["next_node_id"]), int(raw["next_abstract_id"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidConfig(f"{type(exc).__name__}: {exc}") from None
        if duplicates:
            raise InvalidConfig(f"{duplicates} node id(s) defined twice")
        reached: set[int] = set()
        pending = [tree.root]
        while pending:
            nid = pending.pop()
            if nid not in nodes:
                raise InvalidConfig(f"node {nid} is named but not defined")
            if nid in reached:
                raise InvalidConfig(f"node {nid} is reached twice from the root (a cycle or a shared child)")
            reached.add(nid)
            node = nodes[nid]
            if isinstance(node, InternalNode):
                pending += (node.ch0, node.ch1)
        if len(reached) != len(nodes):
            raise InvalidConfig(f"nodes {sorted(set(nodes) - reached)} are not reached from the root")
        abstract_ids = [n.abstract_id for n in nodes.values() if isinstance(n, LeafNode)]
        if len(set(abstract_ids)) != len(abstract_ids):
            raise InvalidConfig("two leaves share an abstract-state id")
        if tree._next_node_id <= max(nodes):
            raise InvalidConfig(f"next_node_id {tree._next_node_id} is not above node id {max(nodes)}")
        if tree._next_abstract_id <= max(abstract_ids):
            raise InvalidConfig(
                f"next_abstract_id {tree._next_abstract_id} is not above abstract-state id {max(abstract_ids)}"
            )
        return tree

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"

    @staticmethod
    def from_json(text: str) -> "PredicateTree":
        return PredicateTree.from_json_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())

    @staticmethod
    def load(path: str) -> "PredicateTree":
        """The tree saved at ``path``; InvalidConfig naming the file if it is not one."""
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        try:
            return PredicateTree.from_json(text)
        except ValueError as exc:  # not JSON, or InvalidConfig
            raise InvalidConfig(f"tree file {path!r} is malformed: {exc}") from None

    def structurally_equal(self, other: "PredicateTree") -> bool:
        return (
            self.root == other.root
            and self.nodes == other.nodes
            and self._next_node_id == other._next_node_id
            and self._next_abstract_id == other._next_abstract_id
        )


def abstract_trace(tree: PredicateTree, trace: Trace) -> AbstractPath:
    """Abstracts a trace under a predicate tree: one routed state per snapshot."""
    return AbstractPath(tuple(map(tree.abstract, trace.states)), trace.actions)


# ---------------------------------------------------------------------------
# Greedy construction and leaf splitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeafSplit:
    """A committed split of one leaf, carrying the tree it produced."""

    tree: PredicateTree
    base_tree: PredicateTree
    parent_abstract: int
    children: tuple[int, int]
    predicate: Predicate


@dataclass(frozen=True)
class SplitRejected:
    """Signal that no beneficial split exists for a leaf (not a failure)."""

    reason: str  # pure | size | depth | leaves | no_candidates | min_gain

    def __bool__(self) -> bool:
        return False


def split_leaf(
    tree: PredicateTree,
    leaf: int,
    batch: LabeledBatch,
    cfg: TreeConfig | None = None,
) -> LeafSplit | SplitRejected:
    """Splits the leaf with the max-gain candidate, or reports why not.

    ``leaf`` is the abstract-state id; ``batch`` must hold the concrete
    states currently mapped to it.  The returned LeafSplit references the
    tree it was derived from so stale applications can be detected.
    """
    cfg = cfg or TreeConfig()
    leaf_node = tree.leaf_node_of(leaf)  # raises UnknownLeaf
    if len(batch.class_counts()) <= 1:
        return SplitRejected("pure")
    if len(batch) < 2 * cfg.min_leaf_size:
        return SplitRejected("size")
    if len(tree.path_predicates(leaf_node)) >= cfg.max_depth:
        return SplitRejected("depth")
    if tree.n_leaves + 1 > cfg.max_leaves:
        return SplitRejected("leaves")
    candidates = candidate_predicates(batch)
    if not candidates:
        return SplitRejected("no_candidates")
    gains = [information_gain(batch, cand) for cand in candidates]
    best_gain = max(gains)  # the first candidate of the highest gain wins
    if best_gain <= cfg.min_gain:
        return SplitRejected("min_gain")
    best = candidates[gains.index(best_gain)]
    new_tree, a0, a1 = tree.split(leaf_node, best)
    return LeafSplit(new_tree, tree, leaf, (a0, a1), best)


def build_initial_tree(log: TraceLog, cfg: TreeConfig | None = None) -> PredicateTree:
    """Greedy top-down tree construction over all states of a log.

    Recursion stops at a node when the batch is pure, the best gain does not
    exceed ``min_gain``, or a depth / leaf-count / batch-size bound is hit.
    A predicate on the path holds on every state below it, so offered again
    there it gains exactly 0.0 and is never chosen.
    """
    cfg = cfg or TreeConfig()
    if log.n_transitions == 0:
        raise EmptyLog("tree construction needs at least one recorded transition")
    batch = labeled_batch_from_log(log)

    tree = PredicateTree.single_leaf()
    # Depth-first growth; each successful split adds one leaf to the total,
    # so the max_leaves check inside split_leaf sees the true global count.
    stack: list[tuple[int, LabeledBatch]] = [(0, batch)]
    while stack:
        abstract_id, node_batch = stack.pop()
        result = split_leaf(tree, abstract_id, node_batch, cfg)
        if isinstance(result, SplitRejected):
            continue
        tree = result.tree
        pred = result.predicate
        mask = pred.mask(node_batch.column(pred.var))
        a0, a1 = result.children
        # Push true side last so the false branch grows first (deterministic).
        stack.append((a1, node_batch.subset(mask)))
        stack.append((a0, node_batch.subset([not m for m in mask])))
    return tree
