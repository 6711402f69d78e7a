"""Verification-and-refinement loop.

Each iteration rebuilds the store, checks the thresholded reachability
property, and, on violation, tries to realize the diagnostic witness in
the observed behaviour: the store's routed runs.  A witness that some run
starts with is a real counterexample; otherwise the leaf at the earliest
divergence point is split by the max-gain predicate and the loop repeats.
When the divergence leaf admits no beneficial split, earlier witness leaves
are tried before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .amdp import LabelingConfig
from .checker import ReachQuery, check
from .errors import InvalidConfig, UnknownLeaf
from .linked_store import LinkedStore, apply_split, batch_for_leaf, build
from .predicate_tree import LeafSplit, PredicateTree, SplitRejected, TreeConfig, split_leaf
from .trace_model import AbstractPath, TraceLog

Ref = tuple[int, int]  # (trace index, state index)


@dataclass(frozen=True)
class RefinementConfig:
    """Loop bounds plus the property under verification.

    The split bounds are those of ``TreeConfig`` and are checked by it.
    ``min_leaf_size`` defaults to 1 here, unlike initial construction:
    refinement targets small divergence populations inside one leaf.
    """

    property: ReachQuery
    min_gain: float = 0.01
    max_depth: int = 12
    max_leaves: int = 256
    max_iterations: int = 20
    min_leaf_size: int = 1

    def __post_init__(self) -> None:
        self.tree_config()
        if self.max_iterations < 0:
            raise InvalidConfig("max_iterations must be non-negative")

    def tree_config(self) -> TreeConfig:
        return TreeConfig(
            min_gain=self.min_gain,
            max_depth=self.max_depth,
            max_leaves=self.max_leaves,
            min_leaf_size=self.min_leaf_size,
        )


@dataclass(frozen=True)
class Real:
    """The witness is realized by observed behavior."""

    refs: frozenset[Ref]


@dataclass(frozen=True)
class Spurious:
    """The witness diverges from every observed prefix at step ``index``."""

    index: int
    leaf: int


def _matched(run: AbstractPath, witness: AbstractPath) -> int:
    """How many leading witness states the run matches, each action between them matching too."""
    m = 0
    for i, (state, wanted) in enumerate(zip(run.states, witness.states)):
        if state != wanted or (i and run.actions[i - 1] != witness.actions[i - 1]):
            break
        m += 1
    return m


def concretize(runs: Sequence[AbstractPath], witness: AbstractPath) -> Real | Spurious:
    """Classifies a witness as realizable (with concrete refs) or spurious.

    One pass over the routed runs.  A witness of k transitions is realized
    by every run that starts with it, and refers to state k of each.  If no
    run does, j is the number of transitions in the longest witness prefix
    that some run starts with (0 if none), and the result is the earliest
    divergence index j with the abstract state s_j where the first
    unmatched step starts.  The empty witness is realized, with no refs.
    """
    n = len(witness.states)
    if not n:
        return Real(frozenset())
    k = witness.n_transitions
    refs: set[Ref] = set()
    longest = 0
    for t, run in enumerate(runs):
        m = _matched(run, witness)
        if m == n:
            refs.add((t, k))
        longest = max(longest, m)
    if refs:
        return Real(frozenset(refs))
    j = max(longest - 1, 0)
    return Spurious(j, witness.states[j])


def refine_once(
    store: LinkedStore, spurious: Spurious, cfg: RefinementConfig
) -> tuple[LinkedStore, LeafSplit] | SplitRejected:
    """Splits the divergence leaf by max gain, excluding path predicates."""
    try:
        leaf_node = store.tree.leaf_node_of(spurious.leaf)
    except UnknownLeaf:
        return SplitRejected("no_candidates")
    excluded = set(store.tree.path_predicates(leaf_node))
    batch = batch_for_leaf(store, spurious.leaf)
    result = split_leaf(store.tree, spurious.leaf, batch, excluded, cfg.tree_config())
    if isinstance(result, SplitRejected):
        return result
    return apply_split(store, result), result


@dataclass
class LoopOutcome:
    """Terminal result of the loop plus its per-iteration record."""

    kind: str  # verified | real_counterexample | exhausted
    iterations: list[dict] = field(default_factory=list)
    witness_path: AbstractPath | None = None
    witness_refs: frozenset[Ref] | None = None
    reason: str | None = None
    store: LinkedStore | None = None

    @property
    def verified(self) -> bool:
        return self.kind == "verified"


def verify_refine_loop(
    log: TraceLog,
    initial_tree: PredicateTree,
    cfg: RefinementConfig,
    labeling: LabelingConfig | None = None,
    on_iteration: Callable[[LinkedStore, dict], None] | None = None,
) -> LoopOutcome:
    """Runs check / concretize / refine until a terminal outcome.

    Unthresholded properties run in report-only mode: the bound is computed
    once and the loop ends as verified without refining.  The iteration log
    records, per round, the leaf count, the computed bound, the verdict, and
    the refinement action taken.
    """
    labeling = labeling or LabelingConfig()
    store = build(log, initial_tree, labeling)
    outcome = LoopOutcome(kind="exhausted", reason="max_iterations")

    def record(entry: dict) -> None:
        outcome.iterations.append(entry)
        if on_iteration is not None:
            on_iteration(store, entry)

    for iteration in range(cfg.max_iterations):
        result = check(store.model, cfg.property)
        entry: dict = {"iter": iteration, "leaves": store.tree.n_leaves, "bound": result.value}

        if cfg.property.threshold is None:
            entry["verdict"] = "report_only"
            entry["action"] = "stop"
            record(entry)
            outcome.kind = "verified"
            outcome.reason = "report_only"
            break

        entry["verdict"] = "satisfied" if result.verdict else "violated"
        if result.verdict:
            entry["action"] = "stop"
            record(entry)
            outcome.kind = "verified"
            outcome.reason = None
            break

        if result.witness is None:
            entry["action"] = "stop"
            record(entry)
            outcome.reason = "no_witness_path"
            break

        realized = concretize(store.runs, result.witness.path)
        if isinstance(realized, Real):
            entry["action"] = "real_ce"
            record(entry)
            outcome.kind = "real_counterexample"
            outcome.witness_path = result.witness.path
            outcome.witness_refs = realized.refs
            outcome.reason = None
            break

        refined: LinkedStore | None = None
        for j in range(realized.index, -1, -1):
            attempt = refine_once(store, Spurious(j, result.witness.path.states[j]), cfg)
            if isinstance(attempt, SplitRejected):
                continue
            refined, split = attempt
            entry["action"] = "split"
            entry["leaf_split"] = split.parent_abstract
            entry["predicate"] = str(split.predicate)
            break
        if refined is None:
            entry["action"] = "stop"
            record(entry)
            outcome.reason = "no_beneficial_split"
            break

        record(entry)
        store = refined

    outcome.store = store
    return outcome
