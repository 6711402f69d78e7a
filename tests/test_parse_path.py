"""Property tests of the parse path: round trips, interning and shared snapshots."""

import collections
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracemdp.errors import MalformedRecord
from tracemdp.trace_model import (
    ActionSymbol,
    ConcreteState,
    TerminalStatus,
    Trace,
    Transition,
    Value,
    _interned,
    parse_event_line,
    read_events,
    trace_to_lines,
)

NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=6)
SCALARS = {
    "integer": st.one_of(st.integers(), st.sampled_from([-(2**70), 2**64, 0])),
    "boolean": st.booleans(),
    "number": st.one_of(
        st.floats(allow_nan=False),
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
            parts[part][name] = Value.from_json(draw(values_of(kind)))
        states.append(ConcreteState(parts["goal"], parts["check"], parts["state"]))
    digests = st.none() | st.text(alphabet="0123456789abcdef", min_size=1, max_size=16)
    steps = tuple(
        Transition(states[i], ActionSymbol(draw(NAMES), draw(digests)), states[i + 1])
        for i in range(len(states) - 1)
    )
    status = draw(st.sampled_from([TerminalStatus.SUCCESS, TerminalStatus.FAILURE, TerminalStatus.TRUNCATED]))
    return Trace(draw(NAMES), steps, status)


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


@settings(max_examples=50, deadline=None)
@given(traces())
def test_parsed_steps_share_snapshots(trace):
    steps = read_events(trace_to_lines(trace))[0].steps
    for i in range(len(steps) - 1):
        assert steps[i].post is steps[i + 1].pre


def test_intern_cache_stays_bounded():
    size = _interned.cache_info().maxsize
    for i in range(size + 500):
        assert Value.from_json(f"distinct-{i}") == Value.text(f"distinct-{i}")
        assert Value.from_json(10**12 + i) == Value.integer(10**12 + i)
    assert _interned.cache_info().currsize == size


def test_interned_values_keep_their_kind():
    assert Value.from_json(1) is Value.from_json(1)
    assert Value.from_json(1).kind == "integer"
    assert Value.from_json(True).kind == "boolean"
    assert Value.from_json("1").kind == "text"


def test_zero_keeps_its_sign():
    assert math.copysign(1.0, Value.from_json(0.0).data) == 1.0
    assert math.copysign(1.0, Value.from_json(-0.0).data) == -1.0
    event = parse_event_line(tool_call(snap(x=0.0), snap(x=-0.0)))
    assert json.dumps(event.pre.to_json()["state"]) == '{"x": 0.0}'
    assert json.dumps(event.post.to_json()["state"]) == '{"x": -0.0}'


def test_subclasses_take_the_fallback():
    class Text(str):
        pass

    class Count(int):
        pass

    assert Value.from_json(Text("a")) == Value.text("a")
    assert Value.from_json(Count(3)) == Value.integer(3)
    state = ConcreteState.from_json(collections.OrderedDict(state=collections.OrderedDict(x=1)))
    assert state.value("x") == Value.integer(1)
    with pytest.raises(MalformedRecord):
        Value.from_json((1, 2))
