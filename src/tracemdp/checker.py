"""Reachability checking on the induced MDP.

Computes P_max / P_min of eventually reaching a labeled state set by value
iteration over the empirically enabled actions, evaluates optional
thresholds, and extracts a diagnostic witness path (the most probable
target-reaching path under an optimizing memoryless scheduler).

Terminal states have no stored transitions; the checker treats them as
absorbing, which pins their value to 1 on the target and 0 off it.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import PropertySyntaxError
from .trace_trie import AbstractPath

MAX = "max"
MIN = "min"

_RELATIONS = {
    "<=": lambda v, t: v <= t,
    ">=": lambda v, t: v >= t,
    "<": lambda v, t: v < t,
    ">": lambda v, t: v > t,
}

_PROPERTY_RE = re.compile(
    r"""^\s*P(?P<dir>max|min)\s*
        (?:=\?|(?P<rel><=|>=|<|>)\s*(?P<bound>[-+0-9.eE]+))\s*
        \[\s*(?:F|◇)\s*"(?P<label>[^"]+)"\s*\]\s*$""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class ReachQuery:
    """P_max / P_min of eventually reaching states carrying ``target_label``."""

    direction: str
    target_label: str
    threshold: tuple[str, float] | None = None

    def __post_init__(self) -> None:
        if self.direction not in (MAX, MIN):
            raise ValueError(f"direction must be 'max' or 'min', not {self.direction!r}")
        if self.threshold is not None and self.threshold[0] not in _RELATIONS:
            raise ValueError(f"unknown threshold relation {self.threshold[0]!r}")

    def satisfied_by(self, value: float) -> bool:
        assert self.threshold is not None
        rel, bound = self.threshold
        return _RELATIONS[rel](value, bound)

    def __str__(self) -> str:
        head = f"P{self.direction}"
        head += "=?" if self.threshold is None else f"{self.threshold[0]}{self.threshold[1]:g}"
        return f'{head} [F "{self.target_label}"]'


def parse_property(text: str) -> ReachQuery:
    """Parses the reachability fragment: Pmax=? [F "label"], Pmin>=0.1 [F "label"]."""
    m = _PROPERTY_RE.match(text)
    if not m:
        raise PropertySyntaxError(f"cannot parse property template: {text!r}")
    threshold = None
    if m.group("rel"):
        try:
            threshold = (m.group("rel"), float(m.group("bound")))
        except ValueError:
            raise PropertySyntaxError(f"bad threshold in property: {text!r}") from None
    return ReachQuery(m.group("dir"), m.group("label"), threshold)


# ---------------------------------------------------------------------------
# Value iteration
# ---------------------------------------------------------------------------

@dataclass
class ValueIterationResult:
    values: dict[int, float]
    iterations: int
    converged: bool
    history: list[dict[int, float]] | None = None


def _cannot_reach(tables: list[list[tuple[np.ndarray, np.ndarray]]], target: set[int]) -> set[int]:
    """Indices of states with no support-graph path to the target under any action.

    ``tables`` are reach_values's per-state action tables and ``target``
    holds state indices.
    """
    # Reverse reachability from the target over positive-probability edges.
    reverse: list[set[int]] = [set() for _ in tables]
    for src, rows in enumerate(tables):
        for dsts, probs in rows:
            for dst in dsts[probs > 0].tolist():
                reverse[dst].add(src)
    reached = set(target)
    frontier = list(reached)
    while frontier:
        node = frontier.pop()
        for src in reverse[node]:
            if src not in reached:
                reached.add(src)
                frontier.append(src)
    return set(range(len(tables))) - reached


def reach_values(
    model,
    query: ReachQuery,
    epsilon: float = 1e-8,
    max_iters: int = 100_000,
    record_history: bool = False,
) -> ValueIterationResult:
    """Least fixpoint of the Bellman reachability operator, from the zero vector.

    Target states are pinned to 1.  For max-direction queries a graph
    pre-pass pins states that cannot reach the target at all to 0, so value
    iteration cannot stall inside zero-value cycles.  Iteration stops when
    the max-norm change drops below ``epsilon``; hitting ``max_iters`` first
    is reported via ``converged=False`` with the best values so far.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    states = sorted(model.states)
    index = {s: i for i, s in enumerate(states)}
    target = model.label_set(query.target_label) & set(states)

    # Per-state action tables: list of (destination index array, prob array).
    tables: list[list[tuple[np.ndarray, np.ndarray]]] = []
    for s in states:
        rows = []
        for action in model.enabled_actions(s):
            succ = model.successors(s, action)
            dsts = np.asarray([index[d] for d, _p in succ], dtype=np.int64)
            probs = np.asarray([p for _d, p in succ], dtype=np.float64)
            rows.append((dsts, probs))
        tables.append(rows)

    frozen = {index[t] for t in target}
    if query.direction == MAX:
        frozen |= _cannot_reach(tables, frozen)
    active = [i for i, s in enumerate(states) if i not in frozen and tables[i]]

    x = np.zeros(len(states))
    for t in target:
        x[index[t]] = 1.0
    pick = max if query.direction == MAX else min

    history: list[dict[int, float]] | None = [] if record_history else None
    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        delta = 0.0
        for i in active:
            best = pick(float(probs @ x[dsts]) for dsts, probs in tables[i])
            delta = max(delta, abs(best - x[i]))
            x[i] = best
        if history is not None:
            history.append({s: float(x[index[s]]) for s in states})
        if delta < epsilon:
            converged = True
            break

    values = {s: float(x[index[s]]) for s in states}
    return ValueIterationResult(values, iterations, converged, history)


# ---------------------------------------------------------------------------
# Witness extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Most probable target-reaching path under the optimizing scheduler."""

    path: AbstractPath
    scheduler: dict[int, str]
    probability: float


def optimizing_scheduler(model, values: dict[int, float], query: ReachQuery) -> dict[int, str]:
    """Per-state optimizing action; ties break lexicographically by name."""
    pick_better = (lambda a, b: a > b + 1e-15) if query.direction == MAX else (lambda a, b: a < b - 1e-15)
    scheduler: dict[int, str] = {}
    for s in sorted(model.states):
        best_action = None
        best_value = None
        for action in model.enabled_actions(s):
            v = sum(p * values[d] for d, p in model.successors(s, action))
            if best_action is None or pick_better(v, best_value):
                best_action, best_value = action, v
        if best_action is not None:
            scheduler[s] = best_action
    return scheduler


def extract_witness(model, values: dict[int, float], query: ReachQuery) -> Witness | None:
    """Shortest path under edge weights -log P in the scheduler-induced chain.

    Starts at the modal initial state; returns None when no initial state is
    known or the target is unreachable under the scheduler.
    """
    start = model.modal_initial()
    if start is None:
        return None
    target = model.label_set(query.target_label)
    if not target:
        return None
    scheduler = optimizing_scheduler(model, values, query)

    if start in target:
        return Witness(AbstractPath((start,), ()), scheduler, 1.0)

    dist: dict[int, float] = {start: 0.0}
    prev: dict[int, tuple[int, str]] = {}
    heap: list[tuple[float, int]] = [(0.0, start)]
    settled: set[int] = set()
    goal: int | None = None
    while heap:
        d, node = heapq.heappop(heap)
        if node in settled:
            continue
        settled.add(node)
        if node in target:
            goal = node
            break
        action = scheduler.get(node)
        if action is None:
            continue
        for dst, prob in model.successors(node, action):
            if prob <= 0 or dst in settled:
                continue
            nd = d - math.log(prob)
            if nd < dist.get(dst, math.inf):
                dist[dst] = nd
                prev[dst] = (node, action)
                heapq.heappush(heap, (nd, dst))
    if goal is None:
        return None

    rev_states = [goal]
    rev_actions: list[str] = []
    node = goal
    while node != start:
        node, action = prev[node]
        rev_states.append(node)
        rev_actions.append(action)
    path = AbstractPath(tuple(reversed(rev_states)), tuple(reversed(rev_actions)))
    return Witness(path, scheduler, math.exp(-dist[goal]))


# ---------------------------------------------------------------------------
# Top-level check
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    query: ReachQuery
    values: dict[int, float]
    value: float | None  # at the modal initial state
    per_initial: dict[int, float] = field(default_factory=dict)
    verdict: bool | None = None
    witness: Witness | None = None
    converged: bool = True
    iterations: int = 0

    def to_json_dict(self) -> dict:
        return {
            "property": str(self.query),
            "value": self.value,
            "per_initial_state": {str(k): v for k, v in sorted(self.per_initial.items())},
            "verdict": self.verdict,
            "converged": self.converged,
            "iterations": self.iterations,
            "witness": None
            if self.witness is None
            else {
                "states": list(self.witness.path.states),
                "actions": list(self.witness.path.actions),
                "probability": self.witness.probability,
                "scheduler": {str(k): v for k, v in sorted(self.witness.scheduler.items())},
            },
            "state_values": {str(k): v for k, v in sorted(self.values.items())},
        }


def check(
    model,
    query: ReachQuery,
    epsilon: float = 1e-8,
    max_iters: int = 100_000,
) -> CheckResult:
    """Evaluates the query at the modal initial state and extracts a witness.

    The verdict compares the modal-initial value against the threshold when
    one is present.  Values for every observed initial state are reported
    alongside, since traces may start in several abstract states.
    """
    vi = reach_values(model, query, epsilon, max_iters)
    modal = model.modal_initial()
    per_initial = {s: vi.values[s] for s in sorted(model.initial) if s in vi.values}
    value = vi.values.get(modal) if modal is not None else None
    verdict = None
    if query.threshold is not None and value is not None:
        verdict = query.satisfied_by(value)
    witness = extract_witness(model, vi.values, query)
    return CheckResult(
        query=query,
        values=vi.values,
        value=value,
        per_initial=per_initial,
        verdict=verdict,
        witness=witness,
        converged=vi.converged,
        iterations=vi.iterations,
    )
