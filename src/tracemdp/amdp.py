"""Count-based MDP over abstract states with tool actions.

Successor probabilities are unsmoothed empirical frequencies
P(s,a,s') = C(s,a,s') / C(s,a); unobserved transitions are absent, and
states without an outgoing counted action are terminal.  ``Amdp`` holds the
counts; ``compile_model`` turns them into a ``CompiledModel``, the one
structure that the checker reads and that the explicit-state
export/import pair writes and parses (the PRISM text format described in
``export_explicit``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import SchemaViolation, UnknownVariable, UnobservedStateAction
from .predicate_tree import BooleanEq, Predicate, ScalarThreshold
from .trace_model import CHECK, GOAL, AbstractPath, ConcreteState, TerminalStatus, TraceLog

SUCCESS_LABEL = "success"
FAILURE_LABEL = "failure"


class Amdp:
    """Count MDP, mutable during single-writer ingestion."""

    def __init__(self) -> None:
        self.states: set[int] = set()
        self.actions: set[str] = set()
        self.counts3: dict[tuple[int, str, int], int] = {}
        self.counts2: dict[tuple[int, str], int] = {}
        self.initial: Counter[int] = Counter()
        self.labels: dict[str, set[int]] = {}

    # -- construction ------------------------------------------------------

    def add_state(self, state: int) -> None:
        self.states.add(state)

    def record_initial(self, state: int) -> None:
        self.add_state(state)
        self.initial[state] += 1

    def ingest(self, src: int, action: str, dst: int, weight: int = 1) -> None:
        self.states.add(src)
        self.states.add(dst)
        self.actions.add(action)
        self.counts3[(src, action, dst)] = self.counts3.get((src, action, dst), 0) + weight
        self.counts2[(src, action)] = self.counts2.get((src, action), 0) + weight

    # -- queries -----------------------------------------------------------

    def probability(self, src: int, action: str, dst: int) -> float:
        total = self.counts2.get((src, action), 0)
        if total == 0:
            raise UnobservedStateAction(f"no observations for state {src} action {action!r}")
        return self.counts3.get((src, action, dst), 0) / total

    def modal_initial(self) -> int | None:
        """Most frequent initial state; ties go to the smallest id."""
        if not self.initial:
            return None
        return min(self.initial, key=lambda s: (-self.initial[s], s))

    def equal_counts(self, other: "Amdp") -> bool:
        return (
            self.states == other.states
            and self.actions == other.actions
            and self.counts3 == other.counts3
            and self.counts2 == other.counts2
            and self.initial == other.initial
        )


def induce(runs: Iterable[AbstractPath], states: Iterable[int]) -> Amdp:
    """MDP induction from abstract runs over the given abstract states.

    Every state given becomes a vertex even when no run visits it, so with
    ``tree.abstract_ids()`` the state set stays aligned with the abstraction.
    """
    mdp = Amdp()
    for abstract_id in states:
        mdp.add_state(abstract_id)
    for run in runs:
        if not run.states:
            continue
        mdp.record_initial(run.states[0])
        for src, action, dst in run.steps():
            mdp.ingest(src, action, dst)
    return mdp


# ---------------------------------------------------------------------------
# Labeling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabelRule:
    """Conjunction of flag/threshold atoms over checkpoint (or goal) variables.

    ``mode`` controls the lift to abstract states: "all" labels a state only
    when every observed concrete state satisfies the conjunction, "any" when
    at least one does.
    """

    name: str
    atoms: tuple[Predicate, ...]
    mode: str = "all"

    def __post_init__(self) -> None:
        if self.mode not in ("all", "any"):
            raise ValueError(f"unknown label mode {self.mode!r}")
        for atom in self.atoms:
            if not isinstance(atom, (BooleanEq, ScalarThreshold)):
                raise ValueError("label rules take BooleanEq / ScalarThreshold atoms only")

    def holds(self, state: ConcreteState) -> bool:
        for atom in self.atoms:
            try:
                partition = state.partition_of(atom.var)
            except SchemaViolation:
                raise UnknownVariable(
                    f"label rule {self.name!r} references unknown variable {atom.var!r}"
                ) from None
            if partition not in (CHECK, GOAL):
                raise UnknownVariable(
                    f"label rule {self.name!r} references {atom.var!r} outside check/goal"
                )
            if not atom.evaluate(state):
                return False
        return True


@dataclass
class LabelReport:
    """Outcome of a labeling pass; mixed states are refinement candidates."""

    labeled: dict[str, set[int]] = field(default_factory=dict)
    mixed: dict[str, set[int]] = field(default_factory=dict)


def _lift(mode: str, matching: int, others: int) -> str | None:
    """Lifts one state's evidence to "labeled", "mixed" or None (no label).

    Mode "all" labels a state whose evidence all matches and reports it
    mixed when only some does; mode "any" labels it when any evidence
    matches.
    """
    if not matching:
        return None
    return "mixed" if mode == "all" and others else "labeled"


def _record_labels(
    mdp: Amdp, report: LabelReport, name: str, lifted: Mapping[int, str | None]
) -> None:
    labeled = {state_id for state_id, verdict in lifted.items() if verdict == "labeled"}
    mdp.labels.setdefault(name, set()).update(labeled)
    report.labeled[name] = labeled
    report.mixed[name] = {state_id for state_id, verdict in lifted.items() if verdict == "mixed"}


def label_states(
    mdp: Amdp,
    rules: Sequence[LabelRule],
    evidence: Mapping[int, Sequence[ConcreteState]],
) -> LabelReport:
    """Applies label rules to abstract states using their concrete evidence.

    Under mode "all", states whose evidence is split (some satisfy, some do
    not) stay unlabeled and are reported as mixed.
    """
    report = LabelReport()
    for rule in rules:
        lifted: dict[int, str | None] = {}
        for state_id in sorted(mdp.states):
            outcomes = [rule.holds(s) for s in evidence.get(state_id, ())]
            matching = sum(outcomes)
            lifted[state_id] = _lift(rule.mode, matching, len(outcomes) - matching)
        _record_labels(mdp, report, rule.name, lifted)
    return report


def label_by_terminal(
    mdp: Amdp,
    log: TraceLog,
    runs: Sequence[AbstractPath],
    success_mode: str = "all",
    failure_mode: str = "any",
) -> LabelReport:
    """Labels abstract states from the terminal status of traces ending there.

    ``runs[i]`` is the abstract run of ``log[i]``; its last state is where
    the trace ended.  Success is lifted conservatively (mode "all" by
    default: every trace ending in the state succeeded), failure
    permissively (mode "any": some trace ending there failed).  Truncated
    traces contribute no evidence.
    """
    endings: dict[int, Counter[str]] = {}
    for trace, run in zip(log, runs):
        if not run.states:
            continue
        if trace.terminal_status not in (TerminalStatus.SUCCESS, TerminalStatus.FAILURE):
            continue
        endings.setdefault(run.states[-1], Counter())[trace.terminal_status.value] += 1

    report = LabelReport()
    for name, status, mode in (
        (SUCCESS_LABEL, "success", success_mode),
        (FAILURE_LABEL, "failure", failure_mode),
    ):
        lifted: dict[int, str | None] = {}
        for state_id, counts in endings.items():
            matching = counts.get(status, 0)
            lifted[state_id] = _lift(mode, matching, sum(counts.values()) - matching)
        _record_labels(mdp, report, name, lifted)
    return report


# ---------------------------------------------------------------------------
# Compiled model and its explicit-state export / import
# ---------------------------------------------------------------------------

Choice = tuple[str, tuple[int, ...], tuple[float, ...]]


@dataclass(frozen=True, eq=False)
class CompiledModel:
    """Dense, read-only form of an MDP: what the checker and the export see.

    ``states[i]`` is the stable id of state index ``i`` (ids ascending).
    ``rows[i]`` holds state ``i``'s choices in action-name order, each
    ``(action, destination indices ascending, their probabilities)``, the
    last two tuples of ``int`` and ``float``; a terminal state has an empty
    row.  ``labels`` maps every declared label, empty ones included, to its
    state indices, and ``init`` holds the indices of the initial states.
    """

    states: tuple[int, ...]
    rows: tuple[tuple[Choice, ...], ...]
    labels: Mapping[str, frozenset[int]]
    init: frozenset[int]

    @property
    def n_states(self) -> int:
        return len(self.states)


Grouped = dict[tuple[int, str], tuple[list[int], list[float]]]


def _rows(n_states: int, grouped: Grouped) -> tuple[tuple[Choice, ...], ...]:
    """Per-state choice rows from (src index, action) -> (dst indices, probabilities)."""
    rows: list[list[Choice]] = [[] for _ in range(n_states)]
    for (src, action), (dsts, probs) in sorted(grouped.items()):
        rows[src].append((action, tuple(dsts), tuple(probs)))
    return tuple(tuple(row) for row in rows)


def compile_model(mdp: Amdp) -> CompiledModel:
    """Compiles the counts once; every probability comes from ``Amdp.probability``."""
    states = tuple(sorted(mdp.states))
    index = {s: i for i, s in enumerate(states)}
    grouped: Grouped = {}
    for src, action, dst in sorted(key for key, n in mdp.counts3.items() if n > 0):
        dsts, probs = grouped.setdefault((index[src], action), ([], []))
        dsts.append(index[dst])
        probs.append(mdp.probability(src, action, dst))
    labels = {name: frozenset(index[s] for s in members) for name, members in mdp.labels.items()}
    init = frozenset(index[s] for s, n in mdp.initial.items() if n > 0)
    return CompiledModel(states, _rows(len(states), grouped), labels, init)


def export_explicit(mdp: Amdp) -> tuple[str, str]:
    """Renders (transitions text, labels text) in PRISM explicit style.

    Transitions: a ``states choices transitions`` header, then one line per
    transition ``src choice dst prob action`` with per-state choice indices
    over the state's actions in name order.  Labels: a ``#DECLARATION ...
    #END`` header naming init plus every label, then ``state label...``
    lines.  Output is byte-deterministic for a given model.
    """
    model = compile_model(mdp)
    lines: list[str] = []
    n_choices = 0
    for src, row in enumerate(model.rows):
        n_choices += len(row)
        for choice, (action, dsts, probs) in enumerate(row):
            for dst, prob in zip(dsts, probs):
                lines.append(f"{src} {choice} {dst} {prob!r} {action}")
    header = f"{model.n_states} {n_choices} {len(lines)}"
    tra = "\n".join([header] + lines) + "\n"

    by_state: dict[int, list[str]] = {idx: ["init"] for idx in model.init}
    for name in sorted(model.labels):
        for idx in model.labels[name]:
            by_state.setdefault(idx, []).append(name)
    label_lines = [f"#DECLARATION {' '.join(['init'] + sorted(model.labels))} #END"]
    label_lines += [f"{idx} {' '.join(by_state[idx])}" for idx in sorted(by_state)]
    lab = "\n".join(label_lines) + "\n"
    return tra, lab


def parse_explicit(tra_text: str, lab_text: str) -> CompiledModel:
    """Parses an ``export_explicit`` pair back into a model over ids 0..n-1.

    Raises ValueError on a bad header, a count that disagrees with it, or a
    state index out of range.
    """
    tra_lines = [ln for ln in tra_text.splitlines() if ln.strip()]
    if not tra_lines:
        raise ValueError("transitions file is missing its header")
    n_states, n_choices, n_transitions = (int(x) for x in tra_lines[0].split())
    grouped: Grouped = {}
    for line in tra_lines[1:]:
        src, _choice, dst, prob, action = line.split(" ", 4)
        dsts, probs = grouped.setdefault((_state_index(src, n_states), action), ([], []))
        dsts.append(_state_index(dst, n_states))
        probs.append(float(prob))
    if len(tra_lines) - 1 != n_transitions:
        raise ValueError("transition count does not match header")
    if len(grouped) != n_choices:
        raise ValueError("choice count does not match header")

    lab_lines = [ln for ln in lab_text.splitlines() if ln.strip()]
    if not lab_lines or not lab_lines[0].startswith("#DECLARATION"):
        raise ValueError("labels file is missing its #DECLARATION header")
    declared = lab_lines[0].split()[1:-1]  # between #DECLARATION and #END
    labels: dict[str, set[int]] = {name: set() for name in declared if name != "init"}
    init: set[int] = set()
    for line in lab_lines[1:]:
        parts = line.split()
        idx = _state_index(parts[0], n_states)
        for name in parts[1:]:
            if name == "init":
                init.add(idx)
            else:
                labels.setdefault(name, set()).add(idx)
    return CompiledModel(
        tuple(range(n_states)),
        _rows(n_states, grouped),
        {name: frozenset(members) for name, members in labels.items()},
        frozenset(init),
    )


def _state_index(text: str, n_states: int) -> int:
    idx = int(text)
    if not 0 <= idx < n_states:
        raise ValueError(f"state index {idx} out of range for {n_states} states")
    return idx
