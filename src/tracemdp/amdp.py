"""The count model over abstract states with tool actions.

``induce`` counts the routed runs once and returns a ``CompiledModel``: the
one model that the checker, the explicit-state export and the scorer read.
Successor probabilities are unsmoothed empirical frequencies
P(s,a,s') = C(s,a,s') / C(s,a), computed in ``from_counts`` alone;
unobserved transitions are absent, and states without an outgoing counted
action are terminal.  ``label_states`` tallies the terminal-status and
rule evidence of every abstract state in one scan of the runs and lifts it
to the label map that ``induce`` attaches to the model; ``LabelingConfig``
holds the labeling policy.  ``export_explicit`` writes the model in
the PRISM text format it describes, and ``parse_explicit`` reads it back.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import SchemaViolation, UnknownVariable
from .predicate_tree import Predicate, predicate_from_json, predicate_to_json
from .trace_model import CHECK, GOAL, AbstractPath, ConcreteState, TerminalStatus, TraceLog

SUCCESS_LABEL = "success"
FAILURE_LABEL = "failure"
LABEL_MODES = ("all", "any")

Choice = tuple[str, tuple[int, ...], tuple[float, ...]]
Step = tuple[int, str, int]


@dataclass(frozen=True)
class CompiledModel:
    """Dense, read-only MDP: what the checker, the export and the scorer read.

    ``states[i]`` is the stable id of state index ``i`` (ids ascending).
    ``rows[i]`` holds state ``i``'s choices in action-name order, each
    ``(action, destination indices ascending, their probabilities)``, the
    last two tuples of ``int`` and ``float``; a terminal state has an empty
    row.  ``labels`` maps every declared label, empty ones included, to its
    state indices, and ``init`` holds the indices of the initial states.
    Keyed by stable id, an induced model's ``counts3`` counts each observed
    ``(src, action, dst)`` and ``initial`` the runs starting in each state (a
    parsed export has neither); ``logp`` holds each transition's natural
    log-probability, so a missing key is an unseen transition.
    """

    states: tuple[int, ...]
    rows: tuple[tuple[Choice, ...], ...]
    labels: Mapping[str, frozenset[int]]
    init: frozenset[int]
    counts3: Mapping[Step, int] = field(default_factory=dict)
    initial: Mapping[int, int] = field(default_factory=dict)
    logp: Mapping[Step, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids = self.states
        logp = {
            (ids[src], action, ids[dst]): math.log(p)
            for src, row in enumerate(self.rows)
            for action, dsts, probs in row
            for dst, p in zip(dsts, probs)
        }
        object.__setattr__(self, "logp", logp)

    @property
    def n_states(self) -> int:
        return len(self.states)

    def modal_initial(self) -> int | None:
        """Most frequent initial state; ties go to the smallest id.  None without counts."""
        if not self.initial:
            return None
        return min(self.initial, key=lambda s: (-self.initial[s], s))

    def label_ids(self) -> dict[str, list[int]]:
        """Each label's state ids, ascending, in declaration order."""
        return {name: [self.states[i] for i in sorted(members)] for name, members in self.labels.items()}


Grouped = dict[tuple[int, str], tuple[list[int], list[float]]]


def _rows(n_states: int, grouped: Grouped) -> tuple[tuple[Choice, ...], ...]:
    """Per-state choice rows from (src index, action) -> (dst indices, probabilities)."""
    rows: list[list[Choice]] = [[] for _ in range(n_states)]
    for (src, action), (dsts, probs) in sorted(grouped.items()):
        rows[src].append((action, tuple(dsts), tuple(probs)))
    return tuple(tuple(row) for row in rows)


def from_counts(
    states: Iterable[int],
    counts3: Mapping[Step, int],
    initial: Mapping[int, int],
    labels: Mapping[str, Iterable[int]] | None = None,
) -> CompiledModel:
    """The model of transition and initial-state counts.

    Every id in ``states``, ``counts3`` and ``initial`` becomes a state, and
    zero counts are dropped.  ``labels`` maps each label to its state ids.
    """
    counts3 = {key: counts3[key] for key in sorted(counts3) if counts3[key]}
    initial = {s: n for s, n in initial.items() if n}
    ids = tuple(sorted({*states, *initial, *(s for src, _, dst in counts3 for s in (src, dst))}))
    index = {s: i for i, s in enumerate(ids)}
    grouped: Grouped = {}
    for (src, action, dst), n in counts3.items():
        dsts, ns = grouped.setdefault((index[src], action), ([], []))
        dsts.append(index[dst])
        ns.append(n)
    for _dsts, ns in grouped.values():
        total = sum(ns)
        ns[:] = [n / total for n in ns]  # C(s,a,s') / C(s,a)
    return CompiledModel(
        ids,
        _rows(len(ids), grouped),
        {name: frozenset(index[s] for s in members) for name, members in (labels or {}).items()},
        frozenset(index[s] for s in initial),
        counts3,
        initial,
    )


def induce(
    runs: Iterable[AbstractPath],
    states: Iterable[int],
    labels: Mapping[str, Iterable[int]] | None = None,
) -> CompiledModel:
    """Counts the abstract runs once into the model over the given abstract states.

    Every state given becomes a vertex even when no run visits it, so with
    ``tree.abstract_ids()`` the state set stays aligned with the abstraction.
    ``labels`` maps each label to its state ids.
    """
    counts3: Counter[Step] = Counter()
    initial: Counter[int] = Counter()
    for run in runs:
        if run.states:
            initial[run.states[0]] += 1
            counts3.update(run.steps())
    return from_counts(states, counts3, initial, labels)


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
        # The export writes names space-separated and declares "init" itself.
        name = self.name
        if not isinstance(name, str) or name.split() != [name] or name == "init":
            raise ValueError(f"label name must be a non-empty string without whitespace, not 'init', got {name!r}")
        if self.mode not in LABEL_MODES:
            raise ValueError(f"unknown label mode {self.mode!r}")
        for atom in self.atoms:
            if atom.kind not in ("bool_eq", "num_gt"):
                raise ValueError("label rules take bool_eq / num_gt atoms only")

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


@dataclass(frozen=True)
class LabelingConfig:
    """How abstract states get their success/failure/rule labels; rule names are unique."""

    terminal_labels: bool = True
    success_mode: str = "all"
    failure_mode: str = "any"
    rules: tuple[LabelRule, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.terminal_labels, bool):
            raise ValueError(f"terminal_labels must be a boolean, not {self.terminal_labels!r}")
        for mode in (self.success_mode, self.failure_mode):
            if mode not in LABEL_MODES:
                raise ValueError(f"unknown label mode {mode!r}")
        names: set[str] = set()
        for rule in self.rules:
            if rule.name in names:
                raise ValueError(f"duplicate label rule name {rule.name!r}")
            names.add(rule.name)

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
        return LabelingConfig(
            terminal_labels=raw.get("terminal_labels", True),
            success_mode=raw.get("success_mode", "all"),
            failure_mode=raw.get("failure_mode", "any"),
            rules=tuple(
                LabelRule(r["name"], tuple(predicate_from_json(a) for a in r["atoms"]), r["mode"])
                for r in raw.get("rules", [])
            ),
        )


def label_states(
    log: TraceLog,
    runs: Sequence[AbstractPath],
    labeling: LabelingConfig,
) -> tuple[dict[str, set[int]], dict[str, set[int]]]:
    """Labels abstract states in one scan of the runs: (labels, mixed), each label to its state ids.

    ``runs[i]`` is the abstract run of ``log[i]``.  Each label tallies
    matching and other evidence per state.  The terminal labels, named
    after the statuses ``success`` and ``failure``, count only where each
    run that succeeded or failed ended (truncated runs give no evidence); a
    rule counts every routed state, matching where its conjunction holds.
    Mode "all" then labels a state whose evidence all matches and reports
    it mixed when only some does; mode "any" labels it when any matches.
    A rule named like a terminal label adds its states to that label, and
    ``mixed`` keeps the rule's own.
    """
    ends: Counter[tuple[int, bool]] = Counter()  # (last state, succeeded) -> runs that ended
    rules = [(rule, Counter()) for rule in labeling.rules]  # (state, holds) -> n
    for trace, run in zip(log, runs):
        if labeling.terminal_labels and run.states and trace.terminal_status is not TerminalStatus.TRUNCATED:
            ends[run.states[-1], trace.terminal_status is TerminalStatus.SUCCESS] += 1
        if rules:
            for abstract_id, state in zip(run.states, trace.states):
                for rule, tally in rules:
                    tally[abstract_id, rule.holds(state)] += 1

    lifts = [(rule.name, rule.mode, tally) for rule, tally in rules]
    if labeling.terminal_labels:
        failed = Counter({(s, not succeeded): n for (s, succeeded), n in ends.items()})
        lifts[:0] = [(SUCCESS_LABEL, labeling.success_mode, ends),
                     (FAILURE_LABEL, labeling.failure_mode, failed)]
    labels: dict[str, set[int]] = {}
    mixed: dict[str, set[int]] = {}
    for name, mode, tally in lifts:
        labeled = labels.setdefault(name, set())
        split = mixed[name] = set()
        for state_id, matched in tally:
            if matched:
                (split if mode == "all" and tally[state_id, False] else labeled).add(state_id)
    return labels, mixed


# ---------------------------------------------------------------------------
# Explicit-state export / import
# ---------------------------------------------------------------------------

def export_explicit(model: CompiledModel) -> tuple[str, str]:
    """Renders (transitions text, labels text) in PRISM explicit style.

    Transitions: a ``states choices transitions`` header, then one line per
    transition ``src choice dst prob action`` with per-state choice indices
    over the state's actions in name order.  Labels: a ``#DECLARATION ...
    #END`` header naming init plus every label, then ``state label...``
    lines.  Output is byte-deterministic for a given model.
    """
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
    """Parses an ``export_explicit`` pair back into a model over ids 0..n-1, without counts.

    Raises ValueError on what ``export_explicit`` never writes: a bad
    header or a count that disagrees with it, a state index out of range, a
    probability that is not a finite number in (0, 1], a repeated
    ``(src, action, dst)`` line, a choice index that is not the action's
    position in its state's row, or a choice whose probabilities do not sum
    to 1 within 1e-9.
    """
    tra_lines = [ln for ln in tra_text.splitlines() if ln.strip()]
    if not tra_lines:
        raise ValueError("transitions file is missing its header")
    n_states, n_choices, n_transitions = (int(x) for x in tra_lines[0].split())
    grouped: Grouped = {}
    claimed: dict[tuple[int, str], set[int]] = {}
    for line in tra_lines[1:]:
        src, choice, dst, prob, action = line.split(" ", 4)
        p = float(prob)
        if not 0 < p <= 1:
            raise ValueError(f"probability {prob} is not in (0, 1]: {line!r}")
        key = (_state_index(src, n_states), action)
        claimed.setdefault(key, set()).add(int(choice))
        dsts, probs = grouped.setdefault(key, ([], []))
        dsts.append(_state_index(dst, n_states))
        probs.append(p)
    if len(tra_lines) - 1 != n_transitions:
        raise ValueError("transition count does not match header")
    if len(grouped) != n_choices:
        raise ValueError("choice count does not match header")
    rows = _rows(n_states, grouped)
    for src, row in enumerate(rows):
        for position, (action, dsts, probs) in enumerate(row):
            where = f"state {src} action {action!r}"
            if claimed[src, action] != {position}:
                raise ValueError(f"{where} is choice {position}, not {sorted(claimed[src, action])}")
            if len(set(dsts)) < len(dsts):
                raise ValueError(f"{where} repeats a destination")
            if abs(math.fsum(probs) - 1.0) > 1e-9:
                raise ValueError(f"{where}: probabilities sum to {math.fsum(probs)!r}")

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
        rows,
        {name: frozenset(members) for name, members in labels.items()},
        frozenset(init),
    )


def _state_index(text: str, n_states: int) -> int:
    idx = int(text)
    if not 0 <= idx < n_states:
        raise ValueError(f"state index {idx} out of range for {n_states} states")
    return idx
