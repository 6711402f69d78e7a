"""Handles tying tree leaves, MDP vertices, and trie endpoints together.

Every abstract state owns one handle <tree leaf, graph vertex, trie
endpoints>.  The store keeps the three structures and the handle maps
consistent under four invariants:

* I1  every handle's leaf and vertex resolve, and both maps round-trip;
* I2  every endpoint maps back to its handle and its concrete records
      re-abstract to the handle's leaf;
* I3  leaves and vertices are each in bijection with the handles;
* I4  the MDP's state set is exactly the handles' vertex set.

The synthetic trie root carries no abstract state and stays outside the
endpoint accounting.

``build`` routes every state of the log through the tree exactly once and
keeps the abstract runs (``LinkedStore.runs``, one per trace, in log
order).  The trie, the count MDP, the terminal labels and (saved with the
store) the detectors of ``score`` and ``monitor`` all read those runs; the
concrete states behind an abstract state come from its trie endpoints
(``batch_for_leaf``).

apply_split currently realizes the refined store by a full rebuild, which
the equality-with-rebuild property keeps honest if an incremental path is
added later.

A saved store is a directory of five files:

* ``tree.json``, the predicate tree;
* ``model.tra`` and ``model.lab``, the explicit-state export (``write_model``);
* ``runs.json``, the log's frozen schema as [name, partition, tag] triples,
  one [trace id, states, actions] entry per run in log order, and every
  label's sorted state ids (empty labels included: rule labels cannot be
  recomputed from runs);
* ``manifest.json``, naming the training log, its SHA-256, the tree file
  and the labeling config.

``load_store`` hashes the training log and refuses it if the hash no longer
matches the manifest (``StaleLog``), but never parses it: it returns a
``SavedStore`` (tree, MDP induced from the saved runs with the saved
labels, runs, trace ids, schema), which is all that ``check``, ``export``,
``score`` and ``monitor`` read.  ``load_store_inputs`` reads the manifest,
tree and log back for the commands that rebuild the full store
(``refine``, ``check --log``); an explicitly named log skips the hash
comparison.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from . import amdp as amdp_mod
from . import trace_trie as trie_mod
from .amdp import Amdp, LabelReport, LabelRule
from .errors import StaleLog, StaleSplit
from .predicate_tree import (
    LabeledBatch,
    LeafSplit,
    PredicateTree,
    labeled_batch_from_log,
    predicate_from_json,
    predicate_to_json,
)
from .trace_model import TraceLog, read_trace_log
from .trace_trie import AbstractPath


@dataclass(frozen=True)
class Handle:
    tree: int  # leaf node id in the predicate tree
    graph: int  # vertex id in the MDP (= abstract-state id)
    endpoints: frozenset[int]  # trie node ids


@dataclass(frozen=True)
class LabelingConfig:
    """How abstract states get their success/failure/custom labels."""

    terminal_labels: bool = True
    success_mode: str = "all"
    failure_mode: str = "any"
    rules: tuple[LabelRule, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "terminal_labels": self.terminal_labels,
            "success_mode": self.success_mode,
            "failure_mode": self.failure_mode,
            "rules": [
                {"name": r.name, "mode": r.mode, "atoms": [predicate_to_json(a) for a in r.atoms]}
                for r in self.rules
            ],
        }

    @staticmethod
    def from_json_dict(raw: dict) -> "LabelingConfig":
        rules = [
            LabelRule(r["name"], tuple(predicate_from_json(a) for a in r["atoms"]), r["mode"])
            for r in raw.get("rules", [])
        ]
        return LabelingConfig(
            terminal_labels=bool(raw.get("terminal_labels", True)),
            success_mode=raw.get("success_mode", "all"),
            failure_mode=raw.get("failure_mode", "any"),
            rules=tuple(rules),
        )


@dataclass
class LinkedStore:
    tree: PredicateTree
    amdp: Amdp
    trie: trie_mod.TraceTrie
    log: TraceLog
    runs: tuple[AbstractPath, ...]  # runs[i] is log[i] routed through tree
    handles: tuple[Handle, ...]
    map_tree: dict[int, Handle]
    map_graph: dict[int, Handle]
    map_trie: dict[int, Handle]
    labeling: LabelingConfig = field(default_factory=LabelingConfig)
    label_report: LabelReport = field(default_factory=LabelReport)


def build(
    log: TraceLog,
    tree: PredicateTree,
    labeling: LabelingConfig | None = None,
) -> LinkedStore:
    """Assembles trie, MDP, handles, and labels for a log under a tree."""
    labeling = labeling or LabelingConfig()
    runs = tuple(trie_mod.abstract_trace(tree, trace)[0] for trace in log)
    trie = trie_mod.rebuild(runs)
    mdp = amdp_mod.induce(runs, tree.abstract_ids())

    handles: list[Handle] = []
    map_tree: dict[int, Handle] = {}
    map_graph: dict[int, Handle] = {}
    map_trie: dict[int, Handle] = {}
    for abstract_id, leaf_node in sorted(tree.leaves().items()):
        handle = Handle(leaf_node, abstract_id, frozenset(trie.endpoints_for(abstract_id)))
        handles.append(handle)
        map_tree[leaf_node] = handle
        map_graph[abstract_id] = handle
        for node_id in handle.endpoints:
            map_trie[node_id] = handle

    store = LinkedStore(
        tree=tree,
        amdp=mdp,
        trie=trie,
        log=log,
        runs=runs,
        handles=tuple(handles),
        map_tree=map_tree,
        map_graph=map_graph,
        map_trie=map_trie,
        labeling=labeling,
    )

    report = LabelReport()
    if labeling.terminal_labels:
        report = amdp_mod.label_by_terminal(
            mdp, log, runs, labeling.success_mode, labeling.failure_mode
        )
    if labeling.rules:
        evidence = {h.graph: batch_for_leaf(store, h.graph).states for h in store.handles}
        rule_report = amdp_mod.label_states(mdp, labeling.rules, evidence)
        report.labeled.update(rule_report.labeled)
        report.mixed.update(rule_report.mixed)
    store.label_report = report
    return store


def batch_for_leaf(store: LinkedStore, abstract_id: int) -> LabeledBatch:
    """Concrete states behind a leaf, via its trie endpoints, labeled by their next action."""
    trie_nodes = store.trie.nodes
    refs = (
        ref
        for node_id in sorted(store.map_graph[abstract_id].endpoints)
        for ref in sorted(trie_nodes[node_id].record_refs)
    )
    return labeled_batch_from_log(store.log, refs)


def check_invariants(store: LinkedStore) -> list[str]:
    """Verifies I1-I4; returns a list of violation descriptions (empty = ok)."""
    violations: list[str] = []
    tree_leaves = store.tree.leaves()  # abstract id -> leaf node id
    leaf_nodes = set(tree_leaves.values())

    # I1: handles resolve and both maps round-trip.
    for h in store.handles:
        if h.tree not in leaf_nodes:
            violations.append(f"I1: handle for vertex {h.graph} points at non-leaf node {h.tree}")
        if h.graph not in store.amdp.states:
            violations.append(f"I1: handle vertex {h.graph} missing from the MDP state set")
        if store.map_tree.get(h.tree) is not h:
            violations.append(f"I1: map_tree does not round-trip for leaf node {h.tree}")
        if store.map_graph.get(h.graph) is not h:
            violations.append(f"I1: map_graph does not round-trip for vertex {h.graph}")

    # I2: endpoints map back and their concrete records re-abstract correctly.
    for h in store.handles:
        for node_id in sorted(h.endpoints):
            node = store.trie.nodes.get(node_id)
            if node is None:
                violations.append(f"I2: endpoint {node_id} of vertex {h.graph} is not a trie node")
                continue
            if store.map_trie.get(node_id) is not h:
                violations.append(f"I2: map_trie does not point endpoint {node_id} at its handle")
            if node.abstract_state != h.graph:
                violations.append(
                    f"I2: trie node {node_id} carries state {node.abstract_state}, handle has {h.graph}"
                )
            for trace_idx, state_idx in sorted(node.record_refs):
                concrete = store.log.state_at(trace_idx, state_idx)
                if store.tree.abstract(concrete) != h.graph:
                    violations.append(
                        f"I2: record ({trace_idx},{state_idx}) at node {node_id} "
                        f"re-abstracts away from vertex {h.graph}"
                    )
    for node_id, h in store.map_trie.items():
        if node_id not in h.endpoints:
            violations.append(f"I2: map_trie entry {node_id} is not among its handle's endpoints")
    # Every non-root trie node belongs to exactly one handle's endpoints.
    covered: set[int] = set()
    for h in store.handles:
        overlap = covered & h.endpoints
        if overlap:
            violations.append(f"I2: endpoints {sorted(overlap)} shared by several handles")
        covered |= h.endpoints
    all_nodes = set(store.trie.nodes) - {trie_mod.ROOT_ID}
    if covered != all_nodes:
        stray = sorted(all_nodes - covered) + sorted(covered - all_nodes)
        violations.append(f"I2: endpoint coverage mismatch around nodes {stray[:5]}")

    # I3: bijections between leaves/vertices and handles.
    handle_leaves = [h.tree for h in store.handles]
    handle_vertices = [h.graph for h in store.handles]
    if sorted(handle_leaves) != sorted(leaf_nodes):
        violations.append("I3: tree leaves and handles are not in bijection")
    if len(set(handle_vertices)) != len(handle_vertices):
        violations.append("I3: several handles share one vertex")

    # I4: the MDP state set is exactly the handles' vertex set.
    if store.amdp.states != set(handle_vertices):
        violations.append("I4: MDP state set differs from the handles' vertex set")

    return violations


def apply_split(store: LinkedStore, split: LeafSplit) -> LinkedStore:
    """Applies a leaf split, retiring the old handle and minting two.

    Realized as a full rebuild over the refined tree, so the result equals
    build(log, split.tree) exactly.  A split computed against a tree the
    store no longer holds raises StaleSplit.
    """
    if split.base_tree is not store.tree:
        raise StaleSplit(
            f"split of leaf {split.parent_abstract} was computed against a replaced tree"
        )
    return build(store.log, split.tree, store.labeling)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

TREE_FILE = "tree.json"
TRA_FILE = "model.tra"
LAB_FILE = "model.lab"
MANIFEST_FILE = "manifest.json"
RUNS_FILE = "runs.json"


@dataclass(frozen=True)
class SavedStore:
    """What the read-only commands need of a saved store."""

    tree: PredicateTree
    amdp: Amdp
    runs: tuple[AbstractPath, ...]  # in training log order
    trace_ids: tuple[str, ...]  # trace_ids[i] is the id of the trace behind runs[i]
    schema: dict[str, tuple[str, str]] | None  # the training log's frozen schema


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_model(mdp: Amdp, directory: str) -> tuple[str, str]:
    """Writes the explicit-state export into a directory; returns (tra, lab) paths."""
    paths = (os.path.join(directory, TRA_FILE), os.path.join(directory, LAB_FILE))
    for path, text in zip(paths, amdp_mod.export_explicit(mdp)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def save_store(store: LinkedStore, directory: str, log_path: str) -> None:
    """Writes tree JSON, explicit-state export, the routed runs and a rebuild manifest."""
    os.makedirs(directory, exist_ok=True)
    store.tree.save(os.path.join(directory, TREE_FILE))
    write_model(store.amdp, directory)
    manifest = {
        "log": os.path.abspath(log_path),
        "log_sha256": _sha256_file(log_path),
        "tree_file": TREE_FILE,
        "labeling": store.labeling.to_json_dict(),
    }
    with open(os.path.join(directory, MANIFEST_FILE), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    schema = store.log.schema
    saved = {
        "schema": None if schema is None else [[name, *entry] for name, entry in schema.items()],
        "runs": [
            [trace.trace_id, run.states, run.actions] for trace, run in zip(store.log, store.runs)
        ],
        "labels": {name: sorted(states) for name, states in store.amdp.labels.items()},
    }
    with open(os.path.join(directory, RUNS_FILE), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(saved, sort_keys=True, separators=(",", ":")) + "\n")


def _open_store(directory: str, log_path: str | None) -> tuple[dict, PredicateTree, str]:
    """A saved store's manifest, tree and training log path.

    Without ``log_path`` the manifest's log is named, and it must still hash
    to the manifest's SHA-256, else StaleLog.  An explicit ``log_path``
    overrides the manifest's log and skips the comparison.
    """
    with open(os.path.join(directory, MANIFEST_FILE), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    tree = PredicateTree.load(os.path.join(directory, manifest["tree_file"]))
    if not log_path:
        log_path = manifest["log"]
        if _sha256_file(log_path) != manifest.get("log_sha256"):
            raise StaleLog(
                f"store {directory!r}: training log {log_path!r} changed since the store was built"
            )
    return manifest, tree, log_path


def load_store_inputs(
    directory: str, log_path: str | None = None
) -> tuple[TraceLog, PredicateTree, LabelingConfig]:
    """Reads a saved store's training log, tree and labeling config (see ``_open_store``)."""
    manifest, tree, log_path = _open_store(directory, log_path)
    labeling = LabelingConfig.from_json_dict(manifest.get("labeling", {}))
    return read_trace_log(log_path), tree, labeling


def load_store(directory: str) -> SavedStore:
    """Loads the tree and the saved runs; the training log is hashed, never parsed.

    The MDP is induced from the runs exactly as ``build`` induces it, and
    its labels are the saved ones.
    """
    _manifest, tree, _log_path = _open_store(directory, None)
    with open(os.path.join(directory, RUNS_FILE), "r", encoding="utf-8") as fh:
        saved = json.load(fh)
    runs = tuple(AbstractPath(tuple(states), tuple(actions)) for _id, states, actions in saved["runs"])
    mdp = amdp_mod.induce(runs, tree.abstract_ids())
    mdp.labels = {name: set(states) for name, states in saved["labels"].items()}
    schema = saved["schema"]
    return SavedStore(
        tree=tree,
        amdp=mdp,
        runs=runs,
        trace_ids=tuple(trace_id for trace_id, _states, _actions in saved["runs"]),
        schema=None if schema is None else {name: (part, tag) for name, part, tag in schema},
    )
