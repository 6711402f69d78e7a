"""Agent execution traces as JSON values, and JSONL event ingestion.

A trace is a sequence of concrete states joined by tool calls.  Each
concrete state is a snapshot of three variable partitions:

* ``goal``  -- immutable task context,
* ``check`` -- low-dimensional workflow flags used for labeling,
* ``state`` -- execution statistics and artifacts used as features.

The wire format is JSONL, one event per line:

* tool_call: ``{"trace_id", "seq", "kind": "tool_call", "action",
  "pre": {"goal": {...}, "check": {...}, "state": {...}}, "post": {...}}``.
  ``pre`` may be omitted when the previous event's ``post`` (or an ``initial``
  record for the first step) supplies it.
* terminal: ``{"trace_id", "seq", "kind": "terminal", "status":
  "success"|"failure"}``.
* initial (optional): ``{"trace_id", "seq", "kind": "initial", "state":
  {"goal": ..., "check": ..., "state": ...}}``.

A partition maps each variable name to its JSON value as ``json.loads``
gives it: a ``str``, ``int``, ``bool`` or ``float``, or, for a JSON array,
a tuple of ``(tag, value)`` pairs, so that ``[1]``, ``[1.0]`` and ``[true]``
stay unequal.  ``kind_of`` gives a value's type tag.

A snapshot's layout is its schema: one dict per partition, in
goal/check/state order, from variable name to type tag, computed once when
the snapshot is built.  Snapshots are equal when their values and their
layouts are, so ``1``, ``1.0`` and ``true`` stay apart.  Unknown top-level
keys are ignored.  The schema is frozen on first sight; any later event
whose layout differs is rejected with
:class:`~tracemdp.errors.SchemaViolation`, never coerced, and only then are
``(partition, tag)`` pairs built, to name the difference.

Parsing costs little more than ``json.loads``:

* string values, action names and variable names are interned, so a log
  keeps one copy of each rather than one per line;
* snapshots are interned too, through a table that the reader owns:
  ``read_events`` keeps one per read and ``monitor`` one that it empties
  at a fixed size.  A snapshot's key is each partition's names and values
  in order plus the exact type of every value, so ``1``, ``1.0`` and
  ``true`` stay apart.  Only a snapshot whose ``goal``, ``check`` and
  ``state`` partitions are all present as objects, and whose values are all
  ``str``, ``int`` or ``bool``, gets a key; any other is converted afresh,
  so a float is never shared (``-0.0 == 0.0`` would let a shared snapshot
  print the wrong sign).  A snapshot whose key is in the table is that
  table's object, converted and checked against the schema once; a table
  serves only the schema it was filled under;
* a ``Trace`` is the concrete twin of the abstract run it routes to: its
  ``states`` (one more than its ``actions``, or none at all), its action
  names and one ``args_digest`` or None per action.  ``segment_stream``
  stores each snapshot of the chain once: a step's ``pre`` found equal to
  the previous ``post`` is not stored again.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from enum import Enum

from .errors import (
    ChainBreak,
    DuplicateSeq,
    MalformedRecord,
    SchemaViolation,
)

# Value type tags.
NUMBER = "number"
INTEGER = "integer"
BOOLEAN = "boolean"
TEXT = "text"
COLLECTION = "collection"

# Variable partitions.
GOAL = "goal"
CHECK = "check"
STATE = "state"
PARTITIONS = (GOAL, CHECK, STATE)

# A snapshot's schema: per partition, variable name -> type tag.
Layout = tuple[dict[str, str], dict[str, str], dict[str, str]]

_KINDS = {str: TEXT, int: INTEGER, bool: BOOLEAN, float: NUMBER, tuple: COLLECTION}


def kind_of(value: object) -> str:
    """The type tag of a snapshot value; MalformedRecord if it has none.

    Exact types are looked up first; subclasses fall back to ``isinstance``
    tests, bool before int, as bool is a subclass of int.
    """
    kind = _KINDS.get(type(value))
    if kind is not None:
        return kind
    for base in (bool, int, float, str, tuple):
        if isinstance(value, base):
            return _KINDS[base]
    raise MalformedRecord(f"unsupported JSON value: {value!r}")


def _from_json(raw: object) -> object:
    """A JSON value as a snapshot holds it: a string interned, an array as
    ``(tag, value)`` pairs, any other value as it is.  NaN and ±Infinity,
    which ``json`` parses but JSON has not, are MalformedRecord."""
    if type(raw) is str:
        return sys.intern(raw)
    if isinstance(raw, list):
        return tuple([(kind_of(item), item) for item in map(_from_json, raw)])
    tag = kind_of(raw)
    if tag == COLLECTION or (tag == NUMBER and not math.isfinite(raw)):  # a tuple is no JSON value
        raise MalformedRecord(f"unsupported JSON value: {raw!r}")
    return raw


def _to_json(value: object) -> object:
    if isinstance(value, tuple):
        return [_to_json(item) for _kind, item in value]
    return value


@dataclass(frozen=True, slots=True)
class ConcreteState:
    """Snapshot of goal/check/state variables at one point of a run.

    Each partition maps a variable name to its value (see ``kind_of``);
    ``layout`` is the snapshot's schema, derived from the values, and takes
    part in equality.  Slots keep each of a log's snapshots small.
    """

    goal_vars: dict[str, object]
    check_vars: dict[str, object]
    state_vars: dict[str, object]
    layout: Layout = field(init=False, repr=False)

    def __post_init__(self) -> None:
        names = list(self.goal_vars) + list(self.check_vars) + list(self.state_vars)
        if len(names) != len(set(names)):
            raise SchemaViolation("variable names must be unique across partitions")
        object.__setattr__(self, "layout", tuple(
            {name: kind_of(value) for name, value in part.items()}
            for part in (self.goal_vars, self.check_vars, self.state_vars)
        ))

    def partition_of(self, name: str) -> str:
        if name in self.goal_vars:
            return GOAL
        if name in self.check_vars:
            return CHECK
        if name in self.state_vars:
            return STATE
        raise SchemaViolation(f"unknown variable {name!r}")

    def value(self, name: str) -> object:
        for part in (self.goal_vars, self.check_vars, self.state_vars):
            if name in part:
                return part[name]
        raise SchemaViolation(f"unknown variable {name!r}")

    def to_json(self) -> dict[str, dict[str, object]]:
        return {
            key: {name: _to_json(value) for name, value in sorted(part.items())}
            for key, part in zip(PARTITIONS, (self.goal_vars, self.check_vars, self.state_vars))
        }

    @staticmethod
    def from_json(raw: Mapping[str, object]) -> "ConcreteState":
        if type(raw) is not dict and not isinstance(raw, Mapping):
            raise MalformedRecord(f"snapshot must be an object, got {type(raw).__name__}")
        return ConcreteState(_partition(raw, GOAL), _partition(raw, CHECK), _partition(raw, STATE))


def _partition(raw: Mapping[str, object], key: str) -> dict[str, object]:
    sub = raw.get(key, {})
    if type(sub) is not dict and not isinstance(sub, Mapping):
        raise MalformedRecord(f"snapshot partition {key!r} must be an object")
    return {sys.intern(str(k)): _from_json(v) for k, v in sub.items()}


class TerminalStatus(Enum):
    SUCCESS = "success"
    FAILURE = "failure"
    TRUNCATED = "truncated"


@dataclass(frozen=True)
class Trace:
    """A run's snapshots and the actions between them, plus how it ended.

    ``states`` has one more entry than ``actions``, or both are empty.
    ``digests[i]`` is the ``args_digest`` of ``actions[i]``, or None; left
    out, no action has one.
    """

    trace_id: str
    states: tuple[ConcreteState, ...]
    actions: tuple[str, ...]
    terminal_status: TerminalStatus = TerminalStatus.TRUNCATED
    digests: tuple[str | None, ...] | None = None

    def __post_init__(self) -> None:
        if self.digests is None:
            object.__setattr__(self, "digests", (None,) * len(self.actions))
        if len(self.digests) != len(self.actions):
            raise ValueError("need one digest per action")
        if not all(self.actions):
            raise MalformedRecord("action name must be non-empty")
        if not self.states:
            if self.actions:
                raise ValueError("a trace without states has no actions")
            return
        if len(self.states) != len(self.actions) + 1:
            raise ValueError("need exactly one more state than actions")
        layout = self.states[0].layout
        if any(state.layout != layout for state in self.states):
            raise SchemaViolation("pre and post snapshots of a transition must share one schema")

    def __len__(self) -> int:
        return len(self.actions)

    @property
    def n_states(self) -> int:
        """Number of concrete snapshots (0 for an empty trace)."""
        return len(self.states)


@dataclass(frozen=True)
class AbstractPath:
    """Alternating sequence s0, a0, s1, ..., sn of abstract states and actions.

    The abstract twin of ``Trace``: a trace routed through a predicate tree
    (``predicate_tree.abstract_trace``), or a checker witness.  The empty
    path (no states at all) is allowed and represents a trace with no
    recorded snapshots.
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


class TraceLog:
    """Append-only collection of traces sharing one schema, a snapshot layout.

    Stored (trace index, state index) pairs are stable identifiers: appends
    never change the meaning of earlier indices.
    """

    def __init__(self, schema: Layout | None = None):
        self._traces: list[Trace] = []
        self.schema = schema

    def __len__(self) -> int:
        return len(self._traces)

    def __iter__(self) -> Iterator[Trace]:
        return iter(self._traces)

    def __getitem__(self, index: int) -> Trace:
        return self._traces[index]

    @property
    def n_transitions(self) -> int:
        return sum(len(t) for t in self._traces)

    def append(self, trace: Trace) -> int:
        """Adds a trace, freezing the schema on first use.  Returns its index."""
        if trace.states:
            if self.schema is None:
                self.schema = trace.states[0].layout
            elif trace.states[0].layout != self.schema:
                raise SchemaViolation(
                    f"trace {trace.trace_id!r} does not match the frozen schema"
                )
        self._traces.append(trace)
        return len(self._traces) - 1


# ---------------------------------------------------------------------------
# Event parsing and stream segmentation
# ---------------------------------------------------------------------------

TOOL_CALL = "tool_call"
TERMINAL = "terminal"
INITIAL = "initial"


@dataclass(frozen=True)
class Event:
    kind: str
    trace_id: str
    seq: int
    action: str | None = None
    args_digest: str | None = None
    pre: ConcreteState | None = None
    post: ConcreteState | None = None
    status: str | None = None
    state: ConcreteState | None = None


def _digest_args(raw: object) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _pairs(layout: Layout) -> dict[str, tuple[str, str]]:
    """Maps each variable of a layout to its (partition, type tag)."""
    return {name: (part, tag) for part, names in zip(PARTITIONS, layout) for name, tag in names.items()}


def _check_schema(state: ConcreteState, schema: Layout, where: str) -> None:
    if state.layout == schema:
        return
    actual, expected = _pairs(state.layout), _pairs(schema)
    extra = sorted(set(actual) - set(expected))
    missing = sorted(set(expected) - set(actual))
    if extra:
        raise SchemaViolation(f"{where}: unknown variable {extra[0]!r} after schema freeze")
    if missing:
        raise SchemaViolation(f"{where}: missing variable {missing[0]!r}")
    for name in sorted(expected):
        if actual[name] != expected[name]:
            raise SchemaViolation(
                f"{where}: variable {name!r} has {actual[name]}, schema requires {expected[name]}"
            )
    raise SchemaViolation(f"{where}: snapshot does not conform to schema")


# A snapshot's typed content key -> the one ConcreteState built for it.
SnapshotTable = dict[tuple, ConcreteState]

_KEYED_TYPES = frozenset((str, int, bool))


def _content_key(raw: object) -> tuple | None:
    """The typed content key of a raw snapshot, or None if it gets none.

    Only snapshots with exactly the goal/check/state partitions, each a
    dict, whose values are all exact ``str``, ``int`` or ``bool`` get a
    key.  The key holds each partition's names in order (None, never a JSON
    name, ends a partition), then the values, then their types, which keep
    ``1`` and ``true`` apart.
    """
    if type(raw) is not dict or len(raw) != 3:
        return None
    goal, check, state = raw.get(GOAL), raw.get(CHECK), raw.get(STATE)
    if type(goal) is not dict or type(check) is not dict or type(state) is not dict:
        return None
    values = (*goal.values(), *check.values(), *state.values())
    types = tuple(map(type, values))
    if not _KEYED_TYPES.issuperset(types):
        return None
    return (*goal, None, *check, None, *state, values, types)


def _snapshot(
    raw: Mapping[str, object], table: SnapshotTable | None, new: SnapshotTable
) -> tuple[ConcreteState, bool]:
    """The snapshot of ``raw``, and whether it still needs the schema check.

    A keyed snapshot in ``table`` is returned as that object, which passed
    the check when it was stored.  Keyed snapshots converted by this line
    go to ``new`` (so ``pre`` and ``post`` of one line share one object);
    the caller stores them in ``table`` once they pass the check.
    """
    if table is None or (key := _content_key(raw)) is None:
        return ConcreteState.from_json(raw), True
    state = table.get(key)
    if state is not None:
        return state, False
    state = new.get(key)
    if state is None:
        state = new[key] = ConcreteState.from_json(raw)
    return state, True


def parse_event_line(
    line: str,
    schema: Layout | None = None,
    table: SnapshotTable | None = None,
) -> Event:
    """Parses one JSONL record into a typed event.

    If ``schema`` is given, every snapshot in the record is validated against
    it (missing or retyped variables raise SchemaViolation).  ``table``, read
    and filled only when ``schema`` is given, interns the record's snapshots:
    a snapshot whose typed content is already in it is that object, neither
    converted nor checked again.  A table must only ever serve one schema.
    """
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise MalformedRecord(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise MalformedRecord("event record must be a JSON object")

    kind = raw.get("kind")
    trace_id = raw.get("trace_id")
    seq = raw.get("seq")
    if not isinstance(trace_id, str) or not trace_id:
        raise MalformedRecord("missing or invalid 'trace_id'")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise MalformedRecord("missing or invalid 'seq'")
    if schema is None:
        table = None
    new: SnapshotTable = {}

    if kind == TOOL_CALL:
        action = raw.get("action")
        if not isinstance(action, str) or not action:
            raise MalformedRecord("tool_call event needs a non-empty 'action'")
        action = sys.intern(action)
        if "post" not in raw:
            raise MalformedRecord("tool_call event needs a 'post' snapshot")
        pre, check_pre = _snapshot(raw["pre"], table, new) if "pre" in raw else (None, False)
        post, check_post = _snapshot(raw["post"], table, new)
        digest = raw.get("args_digest")
        if digest is None and "args" in raw:
            digest = _digest_args(raw["args"])
        if schema is not None:
            if check_pre:
                _check_schema(pre, schema, f"{trace_id}#{seq} pre")  # type: ignore[arg-type]
            if check_post:
                _check_schema(post, schema, f"{trace_id}#{seq} post")
            if table is not None:
                table.update(new)
        return Event(TOOL_CALL, trace_id, seq, action=action, args_digest=digest, pre=pre, post=post)

    if kind == TERMINAL:
        status = raw.get("status")
        if status not in ("success", "failure"):
            raise MalformedRecord("terminal event needs status 'success' or 'failure'")
        return Event(TERMINAL, trace_id, seq, status=status)

    if kind == INITIAL:
        if "state" not in raw:
            raise MalformedRecord("initial event needs a 'state' snapshot")
        state, check_state = _snapshot(raw["state"], table, new)
        if schema is not None:
            if check_state:
                _check_schema(state, schema, f"{trace_id}#{seq} initial")
            if table is not None:
                table.update(new)
        return Event(INITIAL, trace_id, seq, state=state)

    raise MalformedRecord(f"unknown event kind: {kind!r}")


def segment_stream(events: Iterable[Event]) -> Trace:
    """Segments one trace's events (sorted by seq) into a trace.

    A tool_call without an explicit ``pre`` takes the previous post snapshot
    (or the ``initial`` record's state for the first step).  An explicit
    ``pre`` must equal it.  An ``initial`` record without tool calls gives a
    trace with no states.
    """
    events = list(events)
    if not events:
        raise MalformedRecord("cannot segment an empty event stream")
    trace_id = events[0].trace_id

    seen_seq: set[int] = set()
    last_seq: int | None = None
    for ev in events:
        if ev.trace_id != trace_id:
            raise MalformedRecord(
                f"mixed trace ids in one stream: {trace_id!r} and {ev.trace_id!r}"
            )
        if ev.seq in seen_seq:
            raise DuplicateSeq(f"trace {trace_id!r}: duplicate seq {ev.seq}")
        seen_seq.add(ev.seq)
        if last_seq is not None and ev.seq < last_seq:
            raise MalformedRecord(f"trace {trace_id!r}: events not sorted by seq")
        last_seq = ev.seq

    status = TerminalStatus.TRUNCATED
    states: list[ConcreteState] = []
    actions: list[str] = []
    digests: list[str | None] = []
    prev_post: ConcreteState | None = None

    for pos, ev in enumerate(events):
        if ev.kind == TERMINAL:
            if pos != len(events) - 1:
                raise MalformedRecord(f"trace {trace_id!r}: terminal event is not last")
            status = TerminalStatus(ev.status)
            continue
        if ev.kind == INITIAL:
            if actions or prev_post is not None:
                raise MalformedRecord(f"trace {trace_id!r}: initial record after first step")
            prev_post = ev.state
            continue

        # A step's pre is the previous post whenever there is one: a pre
        # equal to it (``-0.0 == 0.0`` too) is not stored again.
        pre = ev.pre
        if prev_post is None:
            if pre is None:
                raise MalformedRecord(
                    f"trace {trace_id!r}#{ev.seq}: no 'pre' snapshot and no prior state"
                )
            states.append(pre)
        elif pre is not None and pre is not prev_post and pre != prev_post:
            raise ChainBreak(
                f"trace {trace_id!r}#{ev.seq}: pre snapshot differs from previous post"
            )
        elif not states:
            states.append(prev_post)  # the initial record's state
        assert ev.post is not None
        states.append(ev.post)
        actions.append(ev.action)  # type: ignore[arg-type]
        digests.append(ev.args_digest)
        prev_post = ev.post

    return Trace(trace_id, tuple(states), tuple(actions), status, tuple(digests))


def read_events(lines: Iterable[str]) -> TraceLog:
    """Builds a TraceLog from JSONL lines.

    Traces are ordered by first appearance of their id; events within a trace
    are ordered by seq.  The schema freezes at the first snapshot seen.
    Snapshots are interned through one table, dropped with the read.
    """
    by_trace: dict[str, list[Event]] = {}
    schema: Layout | None = None
    table: SnapshotTable = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = parse_event_line(line, schema, table)
        except (MalformedRecord, SchemaViolation) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        if schema is None:
            snap = event.post or event.pre or event.state
            if snap is not None:
                schema = snap.layout
                # Re-validate the freezing record itself against its own schema
                # (catches pre/post disagreement inside one event); its
                # snapshots start the table.
                try:
                    event = parse_event_line(line, schema, table)
                except SchemaViolation as exc:
                    raise SchemaViolation(f"line {lineno}: {exc}") from None
        by_trace.setdefault(event.trace_id, []).append(event)

    log = TraceLog(schema)
    for trace_id, events in by_trace.items():
        events.sort(key=lambda e: e.seq)
        log.append(segment_stream(events))
    return log


def read_trace_log(path: str) -> TraceLog:
    with open(path, "r", encoding="utf-8") as fh:
        return read_events(fh)


def trace_to_lines(trace: Trace) -> list[str]:
    """Serializes a trace back to JSONL event lines (inverse of ingestion)."""
    lines = []
    for i, (action, digest) in enumerate(zip(trace.actions, trace.digests)):
        record: dict[str, object] = {
            "trace_id": trace.trace_id,
            "seq": i,
            "kind": TOOL_CALL,
            "action": action,
            "pre": trace.states[i].to_json(),
            "post": trace.states[i + 1].to_json(),
        }
        if digest is not None:
            record["args_digest"] = digest
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")))
    if trace.terminal_status in (TerminalStatus.SUCCESS, TerminalStatus.FAILURE):
        lines.append(
            json.dumps(
                {
                    "trace_id": trace.trace_id,
                    "seq": len(trace),
                    "kind": TERMINAL,
                    "status": trace.terminal_status.value,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return lines


def write_trace_log(log: TraceLog, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for trace in log:
            for line in trace_to_lines(trace):
                fh.write(line + "\n")
