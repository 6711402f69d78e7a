"""Shared builders for handmade traces and corpora."""

from __future__ import annotations

import pytest

from tracemdp.trace_model import (
    ActionSymbol,
    ConcreteState,
    TerminalStatus,
    Trace,
    TraceLog,
    Transition,
    Value,
)
from tracemdp.trace_trie import abstract_trace


def mk_state(state=None, check=None, goal=None) -> ConcreteState:
    """ConcreteState from plain-python variable dicts."""

    def conv(d):
        return {k: Value.from_json(v) for k, v in (d or {}).items()}

    return ConcreteState(conv(goal), conv(check), conv(state))


def mk_trace(trace_id, snapshots, actions, status="success", check_key=None):
    """Linear trace through plain state-var snapshots.

    ``snapshots`` is a list of state-var dicts (one per concrete state);
    ``actions`` the action names between consecutive snapshots.  When
    ``check_key`` is given, each snapshot dict may carry that key and it is
    moved into the check partition.
    """
    assert len(snapshots) == len(actions) + 1
    states = []
    for snap in snapshots:
        snap = dict(snap)
        check = {check_key: snap.pop(check_key)} if check_key and check_key in snap else {}
        states.append(mk_state(state=snap, check=check))
    steps = tuple(
        Transition(states[i], ActionSymbol(actions[i]), states[i + 1])
        for i in range(len(actions))
    )
    return Trace(trace_id, steps, TerminalStatus(status))


def mk_log(traces) -> TraceLog:
    log = TraceLog()
    for trace in traces:
        log.append(trace)
    return log


def mk_runs(log, tree) -> list:
    """Abstract runs of a log under a tree, one per trace."""
    return [abstract_trace(tree, trace)[0] for trace in log]


@pytest.fixture()
def two_regime_log():
    """Two action regimes separated by a flag; next action depends on it."""
    traces = []
    for i in range(6):
        traces.append(
            mk_trace(
                f"r{i}",
                [{"flag": False, "n": i}, {"flag": False, "n": i + 1}],
                ["readFile"],
            )
        )
    for i in range(6):
        traces.append(
            mk_trace(
                f"w{i}",
                [{"flag": True, "n": i}, {"flag": True, "n": i + 1}],
                ["writeFile"],
            )
        )
    return mk_log(traces)
