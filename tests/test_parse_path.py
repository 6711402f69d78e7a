"""Property tests of the parse path: round trips and snapshot interning."""

import collections
import json
import math
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracemdp import trace_model
from tracemdp.errors import MalformedRecord, SchemaViolation, TraceMdpError
from tracemdp.trace_model import (
    ConcreteState,
    SnapshotTable,
    TerminalStatus,
    Trace,
    kind_of,
    parse_event_line,
    read_events,
    trace_to_lines,
)

NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6)
SCALARS = {
    "integer": st.one_of(st.integers(), st.sampled_from([-(2**70), 2**64, 0])),
    "boolean": st.booleans(),
    "number": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([-0.0, 0.0, 1e308, -1e308, 5e-324, 2.0**53 + 1]),
    ),
    "text": st.text(),
}
ITEMS = st.recursive(st.one_of(*SCALARS.values()), lambda inner: st.lists(inner, max_size=3), max_leaves=8)


def values_of(kind):
    return st.lists(ITEMS, max_size=4) if kind == "collection" else SCALARS[kind]


@st.composite
def traces(draw):
    """A chained trace over a random schema, with or without a terminal status."""
    names = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    kinds = st.sampled_from(sorted(SCALARS) + ["collection"])
    layout = {name: (draw(st.sampled_from(["goal", "check", "state"])), draw(kinds)) for name in names}
    states = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        parts = {"goal": {}, "check": {}, "state": {}}
        for name, (part, kind) in layout.items():
            parts[part][name] = draw(values_of(kind))
        states.append(ConcreteState.from_json(parts))
    actions = tuple(draw(NAMES) for _ in range(len(states) - 1))
    digest = st.none() | st.text(alphabet="0123456789abcdef", min_size=1, max_size=16)
    digests = tuple(draw(digest) for _ in actions)
    status = draw(st.sampled_from([TerminalStatus.SUCCESS, TerminalStatus.FAILURE, TerminalStatus.TRUNCATED]))
    return Trace(draw(NAMES), tuple(states), actions, status, digests)


def snap(**state_vars):
    return {"goal": {}, "check": {}, "state": state_vars}


def tool_call(pre, post):
    return json.dumps({"trace_id": "t", "seq": 0, "kind": "tool_call", "action": "a", "pre": pre, "post": post})


@settings(max_examples=150, deadline=None)
@given(traces())
def test_round_trip_is_byte_identical(trace):
    lines = trace_to_lines(trace)
    log = read_events(lines)
    assert len(log) == 1
    assert log[0] == trace
    assert trace_to_lines(log[0]) == lines


def test_text_values_are_interned():
    """Equal strings read from different lines, even inside arrays, are one object."""
    name = "".join(["distinct-", "text"])  # built at run time, so not interned already
    line = tool_call(snap(s=name, r=0.5, c=[name]), snap(s=name, r=1.5, c=[name]))
    first, second = read_events([line, line.replace('"t"', '"u"')])
    texts = [state.value("s") for trace in (first, second) for state in trace.states]
    texts += [state.value("c")[0][1] for trace in (first, second) for state in trace.states]
    assert texts[0] == name and texts[0] is not name
    assert texts[0] is sys.intern(name)
    assert all(text is texts[0] for text in texts)


def test_interned_values_keep_their_kind():
    event = parse_event_line(tool_call(snap(i=1, b=True, s="1", f=1.0), snap(i=1, b=True, s="1", f=1.0)))
    assert event.pre.layout == ({}, {}, {"i": "integer", "b": "boolean", "s": "text", "f": "number"})
    assert [kind_of(event.pre.value(name)) for name in "ibsf"] == ["integer", "boolean", "text", "number"]
    assert [type(event.pre.value(name)) for name in "ibsf"] == [int, bool, str, float]


def test_zero_keeps_its_sign():
    event = parse_event_line(tool_call(snap(x=0.0), snap(x=-0.0)))
    assert math.copysign(1.0, event.pre.value("x")) == 1.0
    assert math.copysign(1.0, event.post.value("x")) == -1.0
    assert json.dumps(event.pre.to_json()["state"]) == '{"x": 0.0}'
    assert json.dumps(event.post.to_json()["state"]) == '{"x": -0.0}'


def test_subclasses_take_the_fallback():
    class Text(str):
        pass

    class Count(int):
        pass

    class Ratio(float):
        pass

    assert kind_of(Text("a")) == "text"
    assert kind_of(Count(3)) == "integer"
    assert kind_of(Ratio(0.5)) == "number"
    state = ConcreteState.from_json(collections.OrderedDict(state=collections.OrderedDict(x=Count(1), t=Text("a"))))
    assert state.value("x") == 1 and state.value("t") == "a"
    assert state.layout == ({}, {}, {"x": "integer", "t": "text"})
    with pytest.raises(MalformedRecord, match=r"^unsupported JSON value: \(1, 2\)$"):
        ConcreteState.from_json({"state": {"x": (1, 2)}})


# Raw values per type tag, and look-alikes that differ only in JSON type or sign.
RAW = {
    "integer": [0, 1, 2],
    "boolean": [True, False],
    "number": [0.0, -0.0, 1.0],
    "text": ["", "1"],
    "collection": [[1], [1.0], []],
}
LOOK_ALIKES = [1, 1.0, True, 0, 0.0, -0.0, False, "1", [1], [1.0]]


@st.composite
def raw_snapshots(draw, layout):
    """A raw snapshot over ``layout``, now and then retyped or reshaped."""
    parts = {"check": {}, "goal": {}, "state": {}}
    for name, (part, kind) in layout.items():
        value = draw(st.sampled_from(RAW[kind]))
        if draw(st.integers(0, 9)) == 0:
            value = draw(st.sampled_from(LOOK_ALIKES))
        parts[part][name] = value
    shape = draw(st.integers(0, 9))
    if shape == 0:
        del parts[draw(st.sampled_from(sorted(parts)))]
    elif shape == 1:
        parts["extra"] = {}
    elif shape == 2:
        parts = {p: dict(reversed(vars_.items())) for p, vars_ in reversed(parts.items())}
    return parts


@st.composite
def twins(draw, snapshot):
    """``snapshot`` with one value swapped for an equal one of another type or sign, if any."""
    swaps = [
        (part, name, other)
        for part, variables in snapshot.items()
        for name, value in variables.items()
        for other in LOOK_ALIKES
        if other == value and json.dumps(other) != json.dumps(value)
    ]
    if not swaps or not draw(st.booleans()):
        return None
    part, name, other = draw(st.sampled_from(swaps))
    return {**snapshot, part: {**snapshot[part], name: other}}


@st.composite
def logs(draw):
    """JSONL lines of a few chained traces that reuse a small pool of snapshots."""
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    layout = {
        name: (draw(st.sampled_from(["goal", "check", "state"])), draw(st.sampled_from(sorted(RAW))))
        for name in names
    }
    pool = draw(st.lists(raw_snapshots(layout), min_size=1, max_size=5))
    pool += [twin for snapshot in pool if (twin := draw(twins(snapshot))) is not None]
    lines = []
    for t in range(draw(st.integers(1, 4))):
        chain = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=5))
        seq = 0
        if draw(st.booleans()):
            lines.append({"trace_id": f"t{t}", "seq": seq, "kind": "initial", "state": chain[0]})
            seq += 1
        for pre, post in zip(chain, chain[1:]):
            record = {"trace_id": f"t{t}", "seq": seq, "kind": "tool_call", "action": "a", "post": post}
            if seq == 0 or draw(st.booleans()):
                record["pre"] = pre
            lines.append(record)
            seq += 1
        if draw(st.booleans()):
            lines.append({"trace_id": f"t{t}", "seq": seq, "kind": "terminal", "status": "success"})
    return [json.dumps(line) for line in lines]


def outcome(lines):
    """What reading ``lines`` gives: the schema and every trace's lines, or the error."""
    try:
        log = read_events(lines)
    except TraceMdpError as exc:
        return type(exc), str(exc)
    return log.schema, [trace_to_lines(trace) for trace in log]


def tableless_outcome(lines):
    """``outcome`` with every line parsed through a fresh table that carries only the schema frozen so far."""
    parse = trace_model.parse_event_line

    def parse_alone(line, table):
        fresh = SnapshotTable(table.schema)
        event = parse(line, fresh)
        table.schema = fresh.schema
        return event

    with mock.patch.object(trace_model, "parse_event_line", parse_alone):
        return outcome(lines)


@settings(max_examples=300, deadline=None)
@given(logs())
def test_table_reads_like_no_table(lines):
    assert outcome(lines) == tableless_outcome(lines)


def test_two_faults_report_the_post():
    """A line whose pre and post are both faulty reports its post's fault, read with a table or without."""
    lines = [tool_call(snap(x=0.5), snap(x=1.5)), tool_call(snap(x=math.nan), snap(x="one")).replace('"t"', '"u"')]
    message = "line 2: u#0 post: variable 'x' has ('state', 'text'), schema requires ('state', 'number')"
    assert outcome(lines) == tableless_outcome(lines) == (SchemaViolation, message)


def test_each_line_parsed_once_and_each_snapshot_converted_once():
    """``json.loads`` runs once per non-blank line and ``from_json`` once per distinct keyed snapshot."""
    lines = [
        tool_call(snap(x=1), snap(x=2)),
        "  ",
        tool_call(snap(x=1), snap(x=2)).replace('"t"', '"u"'),
        json.dumps({"trace_id": "v", "seq": 0, "kind": "initial", "state": snap(x=2)}),
        json.dumps({"trace_id": "v", "seq": 1, "kind": "tool_call", "action": "a", "post": snap(x=3)}),
        json.dumps({"trace_id": "v", "seq": 2, "kind": "terminal", "status": "success"}),
    ]
    loads = mock.Mock(wraps=json.loads)
    from_json = mock.Mock(wraps=ConcreteState.from_json)
    with mock.patch.object(trace_model.json, "loads", loads), mock.patch.object(ConcreteState, "from_json", from_json):
        log = read_events(lines)
    assert [len(trace) for trace in log] == [1, 1, 1]
    assert loads.call_count == 5
    assert from_json.call_count == 3


@pytest.mark.parametrize("look_alike, kind", [(1.0, "number"), (True, "boolean")])
def test_look_alike_raises_the_same_violation(look_alike, kind):
    lines = [
        tool_call(snap(x=1, y="a"), snap(x=2, y="a")),
        tool_call(snap(x=1, y="a"), snap(x=2, y="a")).replace('"t"', '"u"'),
        tool_call(snap(x=1, y="a"), snap(x=look_alike, y="a")).replace('"t"', '"v"'),
    ]
    with pytest.raises(SchemaViolation) as exc:
        read_events(lines)
    assert (SchemaViolation, str(exc.value)) == tableless_outcome(lines)
    assert str(exc.value) == f"line 3: v#0 post: variable 'x' has ('state', '{kind}'), schema requires ('state', 'integer')"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(0, 2), st.booleans(), st.sampled_from(["a", "b"])), min_size=2, max_size=6),
        min_size=1,
        max_size=5,
    )
)
def test_keyed_snapshots_are_shared(chains):
    """A log whose snapshots have k distinct typed contents holds k snapshot objects."""
    lines = []
    for t, chain in enumerate(chains):
        for seq, (pre, post) in enumerate(zip(chain, chain[1:])):
            pre, post = ({"goal": {"g": s}, "check": {"done": b}, "state": {"n": n}} for n, b, s in (pre, post))
            lines.append(json.dumps({"trace_id": f"t{t}", "seq": seq, "kind": "tool_call", "action": "a", "pre": pre, "post": post}))
    log = read_events(lines)
    k = len({snapshot for chain in chains for snapshot in chain})
    assert len({id(state) for trace in log for state in trace.states}) == k


def test_float_snapshots_are_not_shared_across_traces():
    line = tool_call(snap(x=1, r=0.5), snap(x=2, r=0.5))
    log = read_events([line, line.replace('"t"', '"u"')])
    first, second = log
    assert first.states[0] is not second.states[0]
    assert first.states[1] is not second.states[1]
    assert first.states[0] == second.states[0]
