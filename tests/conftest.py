"""Shared builders for handmade traces and corpora."""

from __future__ import annotations

import pytest

from tracemdp.predicate_tree import abstract_trace
from tracemdp.trace_model import ConcreteState, TerminalStatus, Trace, TraceLog


def mk_state(state=None, check=None, goal=None) -> ConcreteState:
    """ConcreteState from JSON-like variable dicts (lists become collections)."""
    return ConcreteState.from_json({"goal": goal or {}, "check": check or {}, "state": state or {}})


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
    return Trace(trace_id, tuple(states), tuple(actions), TerminalStatus(status))


def mk_log(traces) -> TraceLog:
    log = TraceLog()
    for trace in traces:
        log.append(trace)
    return log


def mk_runs(log, tree) -> list:
    """Abstract runs of a log under a tree, one per trace."""
    return [abstract_trace(tree, trace) for trace in log]


def count_totals(m) -> dict:
    """{(state, action): C(s,a)}, summed straight from ``m.counts3``."""
    totals: dict = {}
    for (s, a, _d), n in m.counts3.items():
        totals[(s, a)] = totals.get((s, a), 0) + n
    return totals


def count_probability(m, src, action, dst) -> float:
    """C(s,a,s') / C(s,a) straight from ``m.counts3``; 0.0 for a pair never counted."""
    total = count_totals(m).get((src, action), 0)
    return m.counts3.get((src, action, dst), 0) / total if total else 0.0


def count_successors(m) -> dict:
    """{state: {action: [(dst, probability), ...]}} read straight from the counts.

    Actions and destinations are in ascending order.  Reference solvers use
    this in place of the model's rows, so they stay independent of them.
    """
    totals = count_totals(m)
    table: dict = {}
    for (s, a, d), n in sorted(m.counts3.items()):
        table.setdefault(s, {}).setdefault(a, []).append((d, n / totals[(s, a)]))
    return table


def compiled_transitions(model) -> dict:
    """{(src index, action, dst index): probability} of a compiled model."""
    return {
        (src, action, dst): p
        for src, row in enumerate(model.rows)
        for action, dsts, probs in row
        for dst, p in zip(dsts, probs)
    }


def assert_compiled_equal(got, want) -> None:
    """Field-by-field equality of compiled models; ``got`` has ids 0..n-1 (a parsed export)."""
    assert got.states == tuple(range(want.n_states))
    assert len(got.rows) == len(want.rows)
    for got_row, want_row in zip(got.rows, want.rows):
        assert [c[0] for c in got_row] == [c[0] for c in want_row]
        for (_a, got_dsts, got_probs), (_b, want_dsts, want_probs) in zip(got_row, want_row):
            for dsts, probs in ((got_dsts, got_probs), (want_dsts, want_probs)):
                assert type(dsts) is tuple and all(type(d) is int for d in dsts)
                assert type(probs) is tuple and all(type(p) is float for p in probs)
            assert got_dsts == want_dsts
            assert got_probs == want_probs
    assert got.labels == want.labels
    assert got.init == want.init


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
