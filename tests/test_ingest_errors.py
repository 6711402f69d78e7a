"""Exact class and message of every ingest error.

The texts reach users through the CLI's JSON error records, so they are
pinned here one by one.
"""

import json

import pytest

from conftest import mk_state
from tracemdp.errors import ChainBreak, MalformedRecord, SchemaViolation
from tracemdp.trace_model import Trace, kind_of, parse_event_line, read_events


def snap(**state_vars):
    return {"goal": {}, "check": {}, "state": state_vars}


def line(trace_id, seq, pre, post):
    record = {"trace_id": trace_id, "seq": seq, "kind": "tool_call", "action": "a", "post": post}
    if pre is not None:
        record["pre"] = pre
    return json.dumps(record)


def trace_through(*snapshots):
    """A trace through state-var snapshots, one action "a" between each two."""
    states = tuple(mk_state(state=s) for s in snapshots)
    return Trace("t", states, ("a",) * (len(states) - 1))


# case -> (ingest call, error class, exact message).
INGEST_ERRORS = {
    "unknown_variable_after_freeze": (
        lambda: read_events([line("t1", 0, snap(x=0), snap(x=1)), line("t2", 0, snap(x=0), snap(x=1, y=2))]),
        SchemaViolation,
        "line 2: t2#0 post: unknown variable 'y' after schema freeze",
    ),
    "missing_variable": (
        lambda: read_events([line("t1", 0, snap(x=0, y=1), snap(x=1, y=1)), line("t1", 1, None, snap(x=2))]),
        SchemaViolation,
        "line 2: t1#1 post: missing variable 'y'",
    ),
    "retyped_variable": (
        lambda: read_events([line("t1", 0, snap(x=0), snap(x=1)), line("t2", 0, snap(x=0), snap(x="one"))]),
        SchemaViolation,
        "line 2: t2#0 post: variable 'x' has ('state', 'text'), schema requires ('state', 'integer')",
    ),
    "variable_in_other_partition": (
        lambda: parse_event_line(line("t1", 3, None, {"check": {"x": 1}}), ({}, {}, {"x": "integer"})),
        SchemaViolation,
        "t1#3 post: variable 'x' has ('check', 'integer'), schema requires ('state', 'integer')",
    ),
    "retyped_initial_state": (
        lambda: read_events(
            [
                line("t1", 0, snap(x=0), snap(x=1)),
                json.dumps({"trace_id": "t2", "seq": 0, "kind": "initial", "state": snap(x="a")}),
            ]
        ),
        SchemaViolation,
        "line 2: t2#0 initial: variable 'x' has ('state', 'text'), schema requires ('state', 'integer')",
    ),
    "freezing_record_pre_misses_variable": (
        lambda: read_events([line("t1", 0, snap(x=0), snap(x=0, y=1))]),
        SchemaViolation,
        "line 1: t1#0 pre: missing variable 'y'",
    ),
    "freezing_record_pre_retyped": (
        lambda: read_events([line("t1", 0, snap(x=0), snap(x=0.5))]),
        SchemaViolation,
        "line 1: t1#0 pre: variable 'x' has ('state', 'integer'), schema requires ('state', 'number')",
    ),
    "chain_break_at_step": (
        lambda: read_events([line("t1", 0, snap(x=0), snap(x=1)), line("t1", 1, snap(x=5), snap(x=6))]),
        ChainBreak,
        "trace 't1'#1: pre snapshot differs from previous post",
    ),
    "transition_schemas_differ": (
        lambda: trace_through({"x": 0}, {"x": 1}, {"x": "0"}),
        SchemaViolation,
        "pre and post snapshots of a transition must share one schema",
    ),
    "transition_variable_renamed": (
        lambda: trace_through({"x": 0}, {"y": 0}),
        SchemaViolation,
        "pre and post snapshots of a transition must share one schema",
    ),
    "unsupported_json_value": (
        lambda: kind_of(None),
        MalformedRecord,
        "unsupported JSON value: None",
    ),
    "unsupported_json_object": (
        lambda: kind_of({"a": 1}),
        MalformedRecord,
        "unsupported JSON value: {'a': 1}",
    ),
    "unsupported_value_in_log": (
        lambda: read_events([line("t1", 0, snap(x=0), snap(x=None))]),
        MalformedRecord,
        "line 1: unsupported JSON value: None",
    ),
    "unsupported_value_in_array": (
        lambda: read_events([line("t1", 0, snap(x=[0]), snap(x=[[None]]))]),
        MalformedRecord,
        "line 1: unsupported JSON value: None",
    ),
    "nan_in_pre": (
        lambda: read_events([line("t1", 0, snap(x=0.5), snap(x=1.5)), line("t2", 0, snap(x=float("nan")), snap(x=1.5))]),
        MalformedRecord,
        "line 2: unsupported JSON value: nan",
    ),
    "infinity_in_post": (
        lambda: read_events([line("t1", 0, snap(x=0.5), snap(x=float("inf")))]),
        MalformedRecord,
        "line 1: unsupported JSON value: inf",
    ),
    "negative_infinity_in_initial_state": (
        lambda: read_events(
            [
                line("t1", 0, snap(x=0.5), snap(x=1.5)),
                json.dumps({"trace_id": "t2", "seq": 0, "kind": "initial", "state": snap(x=float("-inf"))}),
            ]
        ),
        MalformedRecord,
        "line 2: unsupported JSON value: -inf",
    ),
    "nan_in_nested_list": (
        lambda: read_events([line("t1", 0, snap(x=[[0.5]]), snap(x=[[0.5], [float("nan")]]))]),
        MalformedRecord,
        "line 1: unsupported JSON value: nan",
    ),
    "non_object_snapshot": (
        lambda: read_events([line("t1", 0, [1], snap(x=1))]),
        MalformedRecord,
        "line 1: snapshot must be an object, got list",
    ),
    "non_object_partition": (
        lambda: read_events([line("t1", 0, snap(x=0), {"goal": {}, "check": "no", "state": {"x": 1}})]),
        MalformedRecord,
        "line 1: snapshot partition 'check' must be an object",
    ),
    "null_partition": (
        lambda: parse_event_line(line("t1", 0, snap(x=0), {"goal": None, "state": {"x": 1}})),
        MalformedRecord,
        "snapshot partition 'goal' must be an object",
    ),
}


@pytest.mark.parametrize("case", sorted(INGEST_ERRORS))
def test_ingest_error_text(case):
    call, error, message = INGEST_ERRORS[case]
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error
    assert str(exc.value) == message
