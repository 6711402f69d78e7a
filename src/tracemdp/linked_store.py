"""The store: a log, a tree, and what routing the log through the tree yields.

``build`` routes every state of the log through the tree exactly once and
keeps the abstract runs (``LinkedStore.runs``, one per trace, in log
order).  The runs are the store's only record of where each concrete state
routes: the labels (``amdp.label_states``, whose mixed states the store
keeps as ``LinkedStore.mixed``), then the one count model
(``amdp.induce``, read by the checker, the export and the scorer) and,
saved with the store, the detectors of ``score`` and ``monitor`` are built
from them, a refinement witness is realized against them
(``refinement.concretize``), and the concrete states behind an abstract
state are read straight off them (``batch_for_leaf``).  ``check_invariants`` verifies two invariants:

* I2  there is one run per trace, and each run is its trace re-abstracted
      under the tree;
* I4  the model's state set is exactly the tree's abstract-state ids.

A saved store is a directory of five files:

* ``tree.json``, the predicate tree;
* ``model.tra`` and ``model.lab``, the explicit-state export (``write_model``);
* ``runs.json``, the log's frozen schema (a snapshot layout, see
  ``trace_model``) as [name, partition, tag] triples, partition by
  partition in goal/check/state order with names sorted, one [trace id,
  states, actions] entry per run in log order, and every label's sorted
  state ids (empty labels included: rule labels cannot be recomputed from
  runs);
* ``manifest.json``, naming the training log, its SHA-256, the tree file
  and the labeling config.

A store file that is not the JSON it should be, lacks a key, holds a
value of the wrong shape (a list where an object belongs), or (the
manifest) holds a labeling config ``amdp.LabelingConfig`` rejects (an
unknown mode, a ``terminal_labels`` that is not a boolean, two rules of
one name), raises ``DamagedStore`` naming the file; a malformed tree file
raises ``InvalidConfig`` (``PredicateTree.load``).

``load_store`` hashes the training log and refuses it if the hash no longer
matches the manifest (``StaleLog``), but never parses it: it returns a
``SavedStore`` (tree, model induced from the saved runs with the saved
labels, runs, and the schema rebuilt as a layout from the triples), which
is all that ``check``, ``export``, ``score`` and ``monitor`` read; ``score``
and ``monitor`` compare a log's snapshot layouts with that schema.
``load_store_inputs`` reads the manifest, tree and log back for the
commands that rebuild the full store (``refine``, ``check --log``); an
explicitly named log skips the hash comparison.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from . import amdp as amdp_mod
from .amdp import CompiledModel, LabelingConfig
from .errors import DamagedStore, StaleLog, StaleSplit, TraceMdpError
from .predicate_tree import (
    LabeledBatch,
    LeafSplit,
    PredicateTree,
    abstract_trace,
    labeled_batch_from_log,
)
from .trace_model import PARTITIONS, AbstractPath, Layout, TraceLog, read_trace_log


@dataclass
class LinkedStore:
    tree: PredicateTree
    model: CompiledModel
    log: TraceLog
    runs: tuple[AbstractPath, ...]  # runs[i] is log[i] routed through tree
    labeling: LabelingConfig
    mixed: dict[str, set[int]]  # each label's mixed states (amdp.label_states)


def build(
    log: TraceLog,
    tree: PredicateTree,
    labeling: LabelingConfig | None = None,
) -> LinkedStore:
    """Routes a log through a tree, labels the abstract states, then induces the model."""
    labeling = labeling or LabelingConfig()
    runs = tuple(abstract_trace(tree, trace) for trace in log)
    labels, mixed = amdp_mod.label_states(log, runs, labeling)
    model = amdp_mod.induce(runs, tree.abstract_ids(), labels)
    return LinkedStore(tree, model, log, runs, labeling, mixed)


def batch_for_leaf(store: LinkedStore, abstract_id: int) -> LabeledBatch:
    """Concrete states the runs route to a leaf, labeled by their next action."""
    refs = (
        (t, i)
        for t, run in enumerate(store.runs)
        for i, state in enumerate(run.states)
        if state == abstract_id
    )
    return labeled_batch_from_log(store.log, refs)


def check_invariants(store: LinkedStore) -> list[str]:
    """Verifies I2 and I4; returns a list of violation descriptions (empty = ok)."""
    violations: list[str] = []

    # I2: one run per trace, each its trace re-abstracted.
    if len(store.runs) != len(store.log):
        violations.append(f"I2: {len(store.runs)} runs for {len(store.log)} traces")
    for t, (trace, run) in enumerate(zip(store.log, store.runs)):
        states = tuple(map(store.tree.abstract, trace.states))
        if (run.states, run.actions) != (states, trace.actions):
            violations.append(f"I2: run {t} differs from trace {trace.trace_id!r} re-abstracted")

    # I4: the model's state set is exactly the tree's abstract-state ids.
    if list(store.model.states) != store.tree.abstract_ids():
        violations.append("I4: model state set differs from the tree's abstract-state ids")

    return violations


def apply_split(store: LinkedStore, split: LeafSplit) -> LinkedStore:
    """Applies a leaf split: the split leaf's id retires and two new ids take its states.

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
    model: CompiledModel
    runs: tuple[AbstractPath, ...]  # in training log order
    schema: Layout | None  # the training log's frozen schema


def _sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_model(model: CompiledModel, directory: str) -> tuple[str, str]:
    """Writes the explicit-state export into a directory; returns (tra, lab) paths."""
    paths = (os.path.join(directory, TRA_FILE), os.path.join(directory, LAB_FILE))
    for path, text in zip(paths, amdp_mod.export_explicit(model)):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths


def save_store(store: LinkedStore, directory: str, log_path: str) -> None:
    """Writes tree JSON, explicit-state export, the routed runs and a rebuild manifest."""
    os.makedirs(directory, exist_ok=True)
    store.tree.save(os.path.join(directory, TREE_FILE))
    write_model(store.model, directory)
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
        "schema": None if schema is None else [
            [name, part, tag] for part, names in zip(PARTITIONS, schema) for name, tag in sorted(names.items())
        ],
        "runs": [
            [trace.trace_id, run.states, run.actions] for trace, run in zip(store.log, store.runs)
        ],
        "labels": store.model.label_ids(),
    }
    with open(os.path.join(directory, RUNS_FILE), "w", encoding="utf-8") as fh:
        fh.write(json.dumps(saved, sort_keys=True, separators=(",", ":")) + "\n")


@contextmanager
def _reading(path: str):
    """Reports a store file that is not JSON, lacks a key or holds a wrongly shaped value as DamagedStore."""
    try:
        yield
    except TraceMdpError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DamagedStore(f"store file {path!r} is damaged: {type(exc).__name__}: {exc}") from None


def _open_store(directory: str, log_path: str | None) -> tuple[PredicateTree, str, LabelingConfig]:
    """A saved store's tree, training log path and labeling config.

    Without ``log_path`` the manifest's log is named, and it must still hash
    to the manifest's SHA-256, else StaleLog.  An explicit ``log_path``
    overrides the manifest's log and skips the comparison.
    """
    path = os.path.join(directory, MANIFEST_FILE)
    with _reading(path), open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
        tree = PredicateTree.load(os.path.join(directory, manifest["tree_file"]))
        if not log_path:
            log_path = manifest["log"]
            if _sha256_file(log_path) != manifest.get("log_sha256"):
                raise StaleLog(
                    f"store {directory!r}: training log {log_path!r} changed since the store was built"
                )
        return tree, log_path, LabelingConfig.from_json_dict(manifest.get("labeling", {}))


def load_store_inputs(
    directory: str, log_path: str | None = None
) -> tuple[TraceLog, PredicateTree, LabelingConfig]:
    """Reads a saved store's training log, tree and labeling config (see ``_open_store``)."""
    tree, log_path, labeling = _open_store(directory, log_path)
    return read_trace_log(log_path), tree, labeling


def load_store(directory: str) -> SavedStore:
    """Loads the tree and the saved runs; the training log is hashed, never parsed.

    The model is induced from the runs exactly as ``build`` induces it,
    with the saved labels.
    """
    tree, _log_path, _labeling = _open_store(directory, None)
    path = os.path.join(directory, RUNS_FILE)
    with _reading(path), open(path, "r", encoding="utf-8") as fh:
        saved = json.load(fh)
        runs = tuple(AbstractPath(tuple(states), tuple(actions)) for _id, states, actions in saved["runs"])
        model = amdp_mod.induce(runs, tree.abstract_ids(), saved["labels"])
        schema = None
        if saved["schema"] is not None:
            layout: dict[str, dict[str, str]] = {part: {} for part in PARTITIONS}
            for name, part, tag in saved["schema"]:
                layout[part][name] = tag
            schema = tuple(layout.values())
    return SavedStore(tree=tree, model=model, runs=runs, schema=schema)
