"""Reachability checking on the induced MDP.

Computes P_max / P_min of eventually reaching a labeled state set by value
iteration over the empirically enabled actions, evaluates optional
thresholds, and extracts a diagnostic witness path (the most probable
target-reaching path under an optimizing memoryless scheduler).

Everything here reads the ``amdp.CompiledModel`` that ``amdp.induce``
returns, the one model the export writes and the scorer reads too.
Terminal states have no stored transitions; the checker treats them as
absorbing, which pins their value to 1 on the target and 0 off it.
"""

from __future__ import annotations

import heapq
import math
import re
from dataclasses import dataclass, field

from .amdp import Choice, CompiledModel
from .errors import InvalidConfig, PropertySyntaxError, UnknownLabel
from .trace_model import AbstractPath

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
        if self.threshold is None:
            head += "=?"
        else:
            rel, bound = self.threshold
            text = f"{bound:g}"
            # ``:g`` keeps six digits; a bound it would round prints in full.
            head += rel + (text if float(text) == bound else repr(bound))
        return f'{head} [F "{self.target_label}"]'


def parse_property(text: str) -> ReachQuery:
    """Parses the reachability fragment: Pmax=? [F "label"], Pmin>=0.1 [F "label"]."""
    m = _PROPERTY_RE.match(text)
    if not m:
        raise PropertySyntaxError(f"cannot parse property template: {text!r}")
    threshold = None
    if m.group("rel"):
        try:
            bound = float(m.group("bound"))
        except ValueError:
            raise PropertySyntaxError(f"bad threshold in property: {text!r}") from None
        if not 0 <= bound <= 1:
            raise PropertySyntaxError(
                f"probability bound {m.group('bound')} is outside [0, 1] in property: {text!r}"
            )
        threshold = (m.group("rel"), bound)
    return ReachQuery(m.group("dir"), m.group("label"), threshold)


# ---------------------------------------------------------------------------
# Value iteration
# ---------------------------------------------------------------------------

@dataclass
class ValueIterationResult:
    values: dict[int, float]
    iterations: int
    converged: bool


def _target(model: CompiledModel, query: ReachQuery) -> frozenset[int]:
    """Indices of the query's target states; the label must be declared."""
    try:
        return model.labels[query.target_label]
    except KeyError:
        raise UnknownLabel(
            f"label {query.target_label!r} is not declared; declared labels: {sorted(model.labels)}"
        ) from None


def _cannot_reach(rows: tuple[tuple[Choice, ...], ...], target: set[int]) -> set[int]:
    """Indices of states with no support-graph path to the target under any action."""
    # Reverse reachability from the target over positive-probability edges.
    reverse: list[set[int]] = [set() for _ in rows]
    for src, row in enumerate(rows):
        for _action, dsts, probs in row:
            for dst, prob in zip(dsts, probs):
                if prob > 0:
                    reverse[dst].add(src)
    reached = set(target)
    frontier = list(reached)
    while frontier:
        node = frontier.pop()
        for src in reverse[node]:
            if src not in reached:
                reached.add(src)
                frontier.append(src)
    return set(range(len(rows))) - reached


def reach_values(
    model: CompiledModel,
    query: ReachQuery,
    epsilon: float = 1e-8,
    max_iters: int = 100_000,
) -> ValueIterationResult:
    """Least fixpoint of the Bellman reachability operator, from the zero vector.

    Target states are pinned to 1.  For max-direction queries a graph
    pre-pass pins states that cannot reach the target at all to 0, so value
    iteration cannot stall inside zero-value cycles.  Iteration stops when
    the max-norm change drops below ``epsilon``; hitting ``max_iters`` first
    is reported via ``converged=False`` with the best values so far.  Values
    are keyed by stable state id.  ``epsilon`` must lie in (0, 1): values
    are probabilities, so a change of 1 or more cannot be seen, and a larger
    ``epsilon`` would stop after one sweep.
    """
    if not 0 < epsilon < 1:
        raise InvalidConfig(f"epsilon must be in (0, 1), got {epsilon!r}")
    target = _target(model, query)
    frozen = set(target)
    if query.direction == MAX:
        frozen |= _cannot_reach(model.rows, frozen)
    # Each active state's choices as (destination, probability) pairs.  A
    # choice's value is their products summed left to right from 0.0: plain
    # IEEE arithmetic, so the digits are the same on every CPU.
    active = [
        (i, [tuple(zip(dsts, probs)) for _, dsts, probs in row])
        for i, row in enumerate(model.rows)
        if i not in frozen and row
    ]

    x = [0.0] * model.n_states
    for t in target:
        x[t] = 1.0
    maximize = query.direction == MAX

    converged = False
    iterations = 0
    for iterations in range(1, max_iters + 1):
        delta = 0.0
        for i, choices in active:
            best = None
            for pairs in choices:
                value = 0.0
                for dst, prob in pairs:
                    value += prob * x[dst]
                if best is None or (value > best if maximize else value < best):
                    best = value
            change = abs(best - x[i])
            if change > delta:
                delta = change
            x[i] = best
        if delta < epsilon:
            converged = True
            break

    values = dict(zip(model.states, x))
    return ValueIterationResult(values, iterations, converged)


# ---------------------------------------------------------------------------
# Witness extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Witness:
    """Most probable target-reaching path under the optimizing scheduler."""

    path: AbstractPath
    scheduler: dict[int, str]
    probability: float


def optimizing_scheduler(
    model: CompiledModel, values: dict[int, float], query: ReachQuery
) -> dict[int, str]:
    """Per-state optimizing action, keyed by stable id; ties break lexicographically by name."""
    pick_better = (lambda a, b: a > b + 1e-15) if query.direction == MAX else (lambda a, b: a < b - 1e-15)
    x = [values[s] for s in model.states]
    scheduler: dict[int, str] = {}
    for s, row in zip(model.states, model.rows):
        best_action = None
        best_value = None
        for action, dsts, probs in row:
            v = 0.0  # summed as reach_values sums: builtin sum compensates from Python 3.12
            for d, p in zip(dsts, probs):
                v += p * x[d]
            if best_action is None or pick_better(v, best_value):
                best_action, best_value = action, v
        if best_action is not None:
            scheduler[s] = best_action
    return scheduler


def extract_witness(
    model: CompiledModel, values: dict[int, float], query: ReachQuery, start: int | None
) -> Witness | None:
    """Shortest path under edge weights -log P in the scheduler-induced chain.

    Starts at the stable id ``start`` (``check`` passes the modal initial
    state); returns None when no start is given or the target is
    unreachable under the scheduler.
    """
    if start is None:
        return None
    target = _target(model, query)
    if not target:
        return None
    scheduler = optimizing_scheduler(model, values, query)
    states = model.states
    origin = states.index(start)

    if origin in target:
        return Witness(AbstractPath((start,), ()), scheduler, 1.0)

    dist: dict[int, float] = {origin: 0.0}
    prev: dict[int, tuple[int, str]] = {}
    heap: list[tuple[float, int]] = [(0.0, origin)]
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
        action = scheduler.get(states[node])
        if action is None:
            continue
        _action, dsts, probs = next(c for c in model.rows[node] if c[0] == action)
        for dst, prob in zip(dsts, probs):
            if prob <= 0 or dst in settled:
                continue
            nd = d - math.log(prob)
            if nd < dist.get(dst, math.inf):
                dist[dst] = nd
                prev[dst] = (node, action)
                heapq.heappush(heap, (nd, dst))
    if goal is None:
        return None

    rev_states = [states[goal]]
    rev_actions: list[str] = []
    node = goal
    while node != origin:
        node, action = prev[node]
        rev_states.append(states[node])
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


def check(model: CompiledModel, query: ReachQuery, epsilon: float = 1e-8) -> CheckResult:
    """Evaluates the query at the modal initial state and extracts a witness.

    The verdict compares the modal-initial value against the threshold when
    one is present.  Values for every initial state are reported alongside,
    since traces may start in several abstract states.  The modal state
    comes from the initial-state counts, so a model without them (a parsed
    export) has no value, verdict or witness.
    """
    vi = reach_values(model, query, epsilon)
    modal = model.modal_initial()
    per_initial = {model.states[i]: vi.values[model.states[i]] for i in sorted(model.init)}
    value = vi.values.get(modal) if modal is not None else None
    verdict = None
    if query.threshold is not None and value is not None:
        verdict = query.satisfied_by(value)
    witness = extract_witness(model, vi.values, query, modal)
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
