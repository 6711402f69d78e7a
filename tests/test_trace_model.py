import dataclasses
import json

import pytest

from conftest import mk_log, mk_state, mk_trace
from tracemdp.amdp import induce
from tracemdp.errors import ChainBreak, DuplicateSeq, MalformedRecord, SchemaViolation
from tracemdp.predicate_tree import abstract_trace, build_initial_tree
from tracemdp.trace_model import (
    AbstractPath,
    ConcreteState,
    SnapshotTable,
    TerminalStatus,
    kind_of,
    parse_event_line,
    read_events,
    segment_stream,
    trace_to_lines,
)


def tool_call(trace_id, seq, action, pre, post, **extra):
    return json.dumps(
        {
            "trace_id": trace_id,
            "seq": seq,
            "kind": "tool_call",
            "action": action,
            "pre": pre,
            "post": post,
            **extra,
        }
    )


def snap(**state_vars):
    return {"goal": {}, "check": {}, "state": state_vars}


class TestValue:
    def test_json_typing(self):
        assert kind_of(3) == "integer"
        assert kind_of(3.0) == "number"
        assert kind_of(True) == "boolean"
        assert kind_of("x") == "text"
        ev = parse_event_line(tool_call("t1", 0, "a", snap(x=[1]), snap(x=[])))
        assert kind_of(ev.pre.value("x")) == "collection"
        assert ev.pre.layout == ({}, {}, {"x": "collection"})

    def test_tag_immutable(self):
        state = mk_state(state={"x": 5})
        assert state.layout == ({}, {}, {"x": "integer"})
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.layout = ({}, {}, {"x": "number"})

    def test_json_round_trip(self):
        raw = [1, 2.5, False, "a", [3, "b"]]
        state = ConcreteState.from_json(snap(x=raw))
        assert state.value("x") == (
            ("integer", 1), ("number", 2.5), ("boolean", False), ("text", "a"),
            ("collection", (("integer", 3), ("text", "b"))),
        )
        assert state.to_json()["state"]["x"] == raw


class TestParseEventLine:
    def test_tool_call(self):
        line = tool_call("t1", 0, "readFile", snap(iteration=0), snap(iteration=1))
        ev = parse_event_line(line)
        assert ev.kind == "tool_call"
        assert ev.action == "readFile"
        assert ev.post.value("iteration") == 1

    def test_terminal(self):
        ev = parse_event_line('{"trace_id":"t1","seq":7,"kind":"terminal","status":"success"}')
        assert ev.kind == "terminal" and ev.status == "success"

    def test_schema_type_mismatch(self):
        schema = ({}, {}, {"iteration": "integer"})
        line = tool_call("t1", 0, "a", snap(iteration=0), snap(iteration="three"))
        with pytest.raises(SchemaViolation):
            parse_event_line(line, SnapshotTable(schema))

    def test_unknown_variable_after_freeze(self):
        schema = ({}, {}, {"iteration": "integer"})
        line = tool_call("t1", 0, "a", snap(iteration=0), snap(iteration=1, extra=2))
        with pytest.raises(SchemaViolation):
            parse_event_line(line, SnapshotTable(schema))

    def test_unknown_top_level_keys_ignored(self):
        line = tool_call("t1", 0, "a", snap(x=1), snap(x=2), comment="hi", zz=[1])
        assert parse_event_line(line).action == "a"

    def test_malformed(self):
        for bad in (
            "not json",
            "[1,2]",
            '{"trace_id":"t","seq":0,"kind":"mystery"}',
            '{"trace_id":"t","seq":-1,"kind":"terminal","status":"success"}',
            '{"trace_id":"t","seq":0,"kind":"terminal","status":"meh"}',
            '{"trace_id":"t","seq":0,"kind":"tool_call","post":{}}',
        ):
            with pytest.raises(MalformedRecord):
                parse_event_line(bad)

    def test_args_digest(self):
        line = tool_call("t1", 0, "a", snap(x=1), snap(x=2), args={"path": "f.txt"})
        ev = parse_event_line(line)
        assert ev.args_digest and len(ev.args_digest) == 16


class TestSegmentStream:
    def events(self, lines):
        return [parse_event_line(l) for l in lines]

    def test_three_steps_plus_terminal(self):
        lines = [
            tool_call("t1", i, "a", snap(x=i), snap(x=i + 1)) for i in range(3)
        ] + ['{"trace_id":"t1","seq":3,"kind":"terminal","status":"success"}']
        trace = segment_stream(self.events(lines))
        assert len(trace) == 3
        assert trace.terminal_status is TerminalStatus.SUCCESS

    def test_empty_trace_with_terminal(self):
        trace = segment_stream(
            self.events(['{"trace_id":"t1","seq":0,"kind":"terminal","status":"failure"}'])
        )
        assert len(trace) == 0
        assert trace.n_states == 0
        assert trace.terminal_status is TerminalStatus.FAILURE

    @pytest.mark.parametrize("status", [None, "success"])
    def test_initial_record_alone_has_no_states(self, status):
        lines = ['{"trace_id":"t1","seq":0,"kind":"initial","state":{"goal":{},"check":{},"state":{"x":0}}}']
        if status:
            lines.append(f'{{"trace_id":"t1","seq":1,"kind":"terminal","status":"{status}"}}')
        trace = segment_stream(self.events(lines))
        assert trace.n_states == 0 and len(trace) == 0
        tree = build_initial_tree(mk_log([mk_trace("t0", [{"x": 0}, {"x": 1}], ["a"])]))
        run = abstract_trace(tree, trace)
        assert run.states == () and run.actions == ()
        mdp = induce([run], tree.abstract_ids())
        assert sum(mdp.initial.values()) == 0

    def test_truncated_without_terminal(self):
        trace = segment_stream(self.events([tool_call("t1", 0, "a", snap(x=0), snap(x=1))]))
        assert trace.terminal_status is TerminalStatus.TRUNCATED

    def test_duplicate_seq(self):
        lines = [
            tool_call("t1", 0, "a", snap(x=0), snap(x=1)),
            tool_call("t1", 0, "a", snap(x=1), snap(x=2)),
        ]
        with pytest.raises(DuplicateSeq):
            segment_stream(self.events(lines))

    @pytest.mark.parametrize(
        "post, pre, breaks",
        [
            (1, 5, True),
            (1, 1.0, True),
            (1, True, True),
            ([1], [1.0], True),
            ([1], [True], True),
            ([[1]], [[1.0]], True),
            (0.0, -0.0, False),
            ([0.0], [-0.0], False),
        ],
        ids=["changed_value", "int_to_float", "int_to_bool", "array_int_to_float", "array_int_to_bool",
             "nested_int_to_float", "zero_sign", "array_zero_sign"],
    )
    def test_chain_break(self, post, pre, breaks):
        """A pre chains to the previous post only if it is equal and typed alike."""
        lines = [
            tool_call("t1", 0, "a", snap(x=post), snap(x=post)),
            tool_call("t1", 1, "a", snap(x=pre), snap(x=pre)),
        ]
        if breaks:
            with pytest.raises(ChainBreak):
                segment_stream(self.events(lines))
        else:
            assert len(segment_stream(self.events(lines)).states) == 3

    def test_post_only_log_with_initial(self):
        lines = [
            json.dumps(
                {"trace_id": "t1", "seq": 0, "kind": "initial", "state": snap(x=0)}
            ),
            json.dumps(
                {
                    "trace_id": "t1",
                    "seq": 1,
                    "kind": "tool_call",
                    "action": "a",
                    "post": snap(x=1),
                }
            ),
            json.dumps(
                {
                    "trace_id": "t1",
                    "seq": 2,
                    "kind": "tool_call",
                    "action": "b",
                    "post": snap(x=2),
                }
            ),
        ]
        trace = segment_stream(self.events(lines))
        assert len(trace) == 2
        assert trace.states[0].value("x") == 0
        assert trace.states[2].value("x") == 2


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        trace = mk_trace(
            "t9",
            [{"x": 0, "name": "a"}, {"x": 1, "name": "b"}, {"x": 2, "name": "b"}],
            ["readFile", "writeFile"],
            status="failure",
        )
        log = read_events(trace_to_lines(trace))
        assert len(log) == 1
        assert log[0] == trace


class TestPathType:
    def test_alternation_enforced(self):
        with pytest.raises(ValueError):
            AbstractPath((1, 2), ())
        with pytest.raises(ValueError):
            AbstractPath((), ("a",))

    def test_prefix_and_concat(self):
        p = AbstractPath((1, 2, 3), ("a", "b"))
        assert p.prefix(1) == AbstractPath((1, 2), ("a",))
        assert p.prefix(0) == AbstractPath((1,), ())


class TestTraceLog:
    def test_schema_freeze_rejects_mismatch(self):
        log = mk_log([mk_trace("a", [{"x": 1}, {"x": 2}], ["go"])])
        with pytest.raises(SchemaViolation):
            log.append(mk_trace("b", [{"y": 1}, {"y": 2}], ["go"]))
        with pytest.raises(SchemaViolation):
            log.append(mk_trace("c", [{"x": 1.5}, {"x": 2.5}], ["go"]))

    def test_indices_stable_across_append(self):
        log = mk_log([mk_trace("a", [{"x": 1}, {"x": 2}], ["go"])])
        before = log[0].states[1]
        log.append(mk_trace("b", [{"x": 5}, {"x": 6}], ["go"]))
        assert log[0].states[1] == before


def test_mixed_schema_stream_rejected():
    lines = [
        tool_call("t1", 0, "a", snap(x=0), snap(x=1)),
        tool_call("t2", 0, "a", {"goal": {}, "check": {}, "state": {"x": 0, "y": 1}},
                  {"goal": {}, "check": {}, "state": {"x": 1, "y": 1}}),
    ]
    with pytest.raises(SchemaViolation):
        read_events(lines)
