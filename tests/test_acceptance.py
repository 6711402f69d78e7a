"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Every tolerance and bound is pinned here; nothing
is deferred to calibration.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import time
from collections import Counter

import numpy as np
import pytest

from conftest import (
    assert_compiled_equal,
    compiled_transitions,
    count_probability,
    count_successors,
    count_totals,
    mk_log,
    mk_state,
    mk_trace,
)
from tracemdp.amdp import export_explicit, from_counts, parse_explicit
from tracemdp.anomaly import DetectorConfig, OfflineDetector, normal_quantile, run_loglik
from tracemdp.checker import ReachQuery, check, parse_property, reach_values
from tracemdp.generator import GeneratorConfig, generate_corpus
from tracemdp.linked_store import apply_split, build, check_invariants
from tracemdp.predicate_tree import (
    LabeledBatch,
    SplitRejected,
    TreeConfig,
    abstract_trace,
    build_initial_tree,
    candidate_predicates,
    entropy,
    information_gain,
    split_leaf,
)
from tracemdp.refinement import (
    Real,
    RefinementConfig,
    Spurious,
    batch_for_leaf,
    concretize,
    verify_refine_loop,
)
from tracemdp.trace_model import AbstractPath, read_trace_log


def criterion(number: int, title: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number}] FAIL  {title}", flush=True)
                raise
            suffix = f" ({detail})" if detail else ""
            print(f"[criterion {number}] PASS  {title}{suffix}", flush=True)

        return wrapper

    return deco


# ---------------------------------------------------------------------------
# 1. Entropy / information-gain oracle
# ---------------------------------------------------------------------------

def _brute_entropy(counts: dict) -> float:
    total = sum(counts.values())
    return -sum((c / total) * math.log2(c / total) for c in counts.values() if c)


def _brute_ig(batch: LabeledBatch, predicate) -> float:
    sides = {True: {}, False: {}}
    parent: dict = {}
    for state, label in zip(batch.states, batch.labels):
        outcome = predicate.evaluate(state)
        parent[label] = parent.get(label, 0) + 1
        sides[outcome][label] = sides[outcome].get(label, 0) + 1
    if not sides[True] or not sides[False]:
        return 0.0
    n = len(batch.labels)
    out = _brute_entropy(parent)
    for side in (True, False):
        out -= (sum(sides[side].values()) / n) * _brute_entropy(sides[side])
    return out


@criterion(1, "entropy and information gain match brute force to 1e-9")
def test_criterion_1_entropy_ig_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    checked = 0
    for _ in range(500):
        n = int(rng.integers(1, 51))
        n_labels = int(rng.integers(1, 5))
        states = [
            mk_state(
                state={
                    "x": float(rng.integers(0, 8)),
                    "flag": bool(rng.integers(0, 2)),
                    "name": f"s{rng.integers(0, 3)}",
                }
            )
            for _ in range(n)
        ]
        labels = [f"act{rng.integers(0, n_labels)}" for _ in range(n)]
        batch = LabeledBatch(states, labels)
        counts = Counter(batch.labels)
        assert entropy(list(counts.values())) == pytest.approx(_brute_entropy(counts), abs=1e-9)
        candidates = candidate_predicates(batch)
        take = candidates if len(candidates) <= 6 else candidates[:: len(candidates) // 6]
        for predicate in take:
            assert information_gain(batch, predicate) == pytest.approx(
                _brute_ig(batch, predicate), abs=1e-9
            )
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.1f}s (budget 5s)"
    return f"500 batches, {checked} gains, {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. Reachability vs scheduler enumeration
# ---------------------------------------------------------------------------

def _chain_reach_by_iteration(states, chain, target, tol=1e-13, max_sweeps=500_000):
    x = {s: 1.0 if s in target else 0.0 for s in states}
    for _ in range(max_sweeps):
        delta = 0.0
        for s in states:
            if s in target or s not in chain:
                continue
            new = sum(p * x[d] for d, p in chain[s])
            delta = max(delta, abs(new - x[s]))
            x[s] = new
        if delta < tol:
            break
    return x


def _enumerate_schedulers(model, target, direction):
    states = sorted(model.states)
    table = count_successors(model)
    decidable = [s for s in states if s not in target and s in table]
    best = {
        s: (1.0 if s in target else (-math.inf if direction == "max" else math.inf))
        for s in states
    }
    combos = itertools.product(*(sorted(table[s]) for s in decidable))
    for combo in combos if decidable else [()]:
        chain = {s: table[s][a] for s, a in zip(decidable, combo)}
        x = _chain_reach_by_iteration(states, chain, target)
        for s in states:
            if s in target:
                continue
            best[s] = max(best[s], x[s]) if direction == "max" else min(best[s], x[s])
    for s in states:
        if best[s] in (math.inf, -math.inf):
            best[s] = 0.0
    return best


def _random_mdp(rng):
    """A model over ids 0..n-1, so ids are indices; its "goal" label is random."""
    n = int(rng.integers(2, 7))
    counts = {}
    for s in range(n):
        for a in range(int(rng.integers(1, 4))):
            if rng.uniform() < 0.15 and s > 0:
                continue
            support = rng.choice(n, size=int(rng.integers(1, min(3, n) + 1)), replace=False)
            for dst in support:
                counts[(s, f"a{a}", int(dst))] = int(rng.integers(1, 10))
    goal = {int(s) for s in rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False)}
    return from_counts(range(n), counts, {0: 1}, {"goal": goal})


@criterion(2, "value iteration matches scheduler enumeration to 1e-6 on 200 MDPs")
def test_criterion_2_reachability_oracle():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    for _ in range(200):
        m = _random_mdp(rng)
        target = m.labels["goal"]
        for direction in ("max", "min"):
            got = reach_values(m, ReachQuery(direction, "goal")).values
            want = _enumerate_schedulers(m, target, direction)
            for s in m.states:
                assert got[s] == pytest.approx(want[s], abs=1e-6), (direction, s)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s (budget 30s)"
    return f"200 MDPs, both directions, {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 3. Witness concretization vs the set of observed prefixes
# ---------------------------------------------------------------------------

def _prefix_key(path, k):
    """The prefix of ``path`` with k transitions, as a hashable pair."""
    return path.states[: k + 1], path.actions[:k]


@criterion(3, "concretize matches the set of observed prefixes on 100 corpora")
def test_criterion_3_trie_oracle():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    for _ in range(100):
        n_paths = int(rng.integers(1, 201))
        paths = []
        for _ in range(n_paths):
            n = int(rng.integers(0, 31))
            states = tuple(int(rng.integers(0, 6)) for _ in range(n + 1))
            actions = tuple(f"a{rng.integers(0, 3)}" for _ in range(n))
            paths.append(AbstractPath(states, actions))
        prefixes = {_prefix_key(p, k) for p in paths for k in range(p.n_transitions + 1)}
        for _ in range(12):
            if paths and rng.uniform() < 0.5:
                base = paths[int(rng.integers(0, len(paths)))]
                k = int(rng.integers(0, base.n_transitions + 1))
                probe = base.prefix(k)
                if rng.uniform() < 0.5 and probe.states:
                    probe = AbstractPath(
                        probe.states + (int(rng.integers(0, 6)),),
                        probe.actions + (f"a{rng.integers(0, 3)}",),
                    )
            else:
                n = int(rng.integers(0, 31))
                probe = AbstractPath(
                    tuple(int(rng.integers(0, 6)) for _ in range(n + 1)),
                    tuple(f"a{rng.integers(0, 3)}" for _ in range(n)),
                )
            k = probe.n_transitions
            verdict = concretize(paths, probe)
            if _prefix_key(probe, k) in prefixes:
                refs = {
                    (t, k) for t, p in enumerate(paths)
                    if p.n_transitions >= k and _prefix_key(p, k) == _prefix_key(probe, k)
                }
                assert verdict == Real(frozenset(refs))
            else:
                j = max((j for j in range(k + 1) if _prefix_key(probe, j) in prefixes), default=0)
                assert verdict == Spurious(j, probe.states[j])
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 3 took {elapsed:.1f}s (budget 10s)"
    return f"100 corpora, {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 4. Structure invariants under randomized refinement
# ---------------------------------------------------------------------------

def _random_refinement_log(rng):
    traces = []
    for i in range(30):
        n = int(rng.integers(6, 11))
        xs = [float(rng.uniform(0, 100)) for _ in range(n + 1)]
        ys = [float(rng.uniform(0, 100)) for _ in range(n + 1)]
        traces.append(
            mk_trace(
                f"t{i}",
                [{"x": x, "y": y} for x, y in zip(xs, ys)],
                [f"op{rng.integers(0, 3)}" for _ in range(n)],
                status="success" if rng.uniform() < 0.7 else "failure",
            )
        )
    return mk_log(traces)


def _stores_equal(a, b) -> bool:
    return (
        a.tree.structurally_equal(b.tree)
        and a.model == b.model
        and a.runs == b.runs
    )


@criterion(4, "I2 and I4 hold after build and 50 refinement splits x 20 corpora; split == rebuild")
def test_criterion_4_structure_invariants():
    rng = np.random.default_rng(404)
    split_cfg = TreeConfig(min_gain=0.0, min_leaf_size=1, max_depth=64, max_leaves=4096)
    for corpus in range(20):
        log = _random_refinement_log(rng)
        tree = build_initial_tree(log, TreeConfig(min_gain=0.4, min_leaf_size=4))
        store = build(log, tree)
        assert check_invariants(store) == [], f"corpus {corpus}: fresh build violates"
        for round_no in range(50):
            leaves = list(store.tree.abstract_ids())
            rng.shuffle(leaves)
            for leaf in leaves:
                result = split_leaf(
                    store.tree, leaf, batch_for_leaf(store, leaf), cfg=split_cfg
                )
                if isinstance(result, SplitRejected):
                    continue
                refined = apply_split(store, result)
                oracle = build(log, result.tree, store.labeling)
                assert _stores_equal(refined, oracle), (
                    f"corpus {corpus} split {round_no}: apply_split != rebuild"
                )
                store = refined
                break
            else:
                pytest.fail(f"corpus {corpus}: ran out of splittable leaves at {round_no}")
            violations = check_invariants(store)
            assert violations == [], f"corpus {corpus} split {round_no}: {violations[:3]}"
    return "20 corpora x 50 splits"


# ---------------------------------------------------------------------------
# 5. Likelihood equations
# ---------------------------------------------------------------------------

def _erf_series(x: float) -> float:
    total, term, n = 0.0, x, 0
    while abs(term) > 1e-17:
        total += term / (2 * n + 1)
        n += 1
        term = -term * x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def _quantile_by_bisection(p: float) -> float:
    lo, hi = -10.0, 10.0
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if 0.5 * (1.0 + _erf_series(mid / math.sqrt(2.0))) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@criterion(5, "likelihood math: additivity, prefix truncation (1e-9), quantile oracle (1e-5)")
def test_criterion_5_likelihood_math():
    rng = np.random.default_rng(505)
    m = from_counts(
        (),
        Counter(
            (int(rng.integers(0, 4)), f"a{rng.integers(0, 2)}", int(rng.integers(0, 4)))
            for _ in range(800)
        ),
        {},
    )

    # Additivity over chain-consistent concatenations.
    for _ in range(40):
        n = int(rng.integers(1, 15))
        states = tuple(int(rng.integers(0, 4)) for _ in range(n + 1))
        actions = tuple(f"a{rng.integers(0, 2)}" for _ in range(n))
        run = AbstractPath(states, actions)
        k = int(rng.integers(0, n + 1))
        head, tail = run.prefix(k), AbstractPath(states[k:], actions[k:])
        total = run_loglik(m, run).loglik
        if math.isfinite(total):
            assert total == pytest.approx(
                run_loglik(m, head).loglik + run_loglik(m, tail).loglik, abs=1e-9
            )

    # Prefix truncation against manual computation on 20 random runs.
    for _ in range(20):
        n = int(rng.integers(5, 25))
        states = tuple(int(rng.integers(0, 4)) for _ in range(n + 1))
        actions = tuple(f"a{rng.integers(0, 2)}" for _ in range(n))
        run = AbstractPath(states, actions)
        for k in (3, 5, min(10, n)):
            manual = 0.0
            dead = False
            for i in range(k):
                p = count_probability(m, states[i], actions[i], states[i + 1])
                if p == 0.0:
                    dead = True
                    break
                manual += math.log(p)
            got = run_loglik(m, run.prefix(k)).loglik
            if dead:
                assert got == -math.inf
            else:
                assert got == pytest.approx(manual, abs=1e-9)
        # Monotone: lengthening a prefix never raises the score.
        scores = [run_loglik(m, run.prefix(k)).loglik for k in range(n + 1)]
        assert all(b <= a + 1e-12 for a, b in zip(scores, scores[1:]))

    for p in (0.9, 0.95, 0.975, 0.99):
        assert normal_quantile(p) == pytest.approx(_quantile_by_bisection(p), abs=1e-5)
    return "additivity, truncation, quantiles"


# ---------------------------------------------------------------------------
# 6 + 7. Desk-scale reproduction of the file-ops experiment
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk_pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    t0 = time.perf_counter()
    train_paths = generate_corpus(
        GeneratorConfig(seed=0, n_baseline=1000, n_anomalous=1000), str(root / "train")
    )
    held_paths = generate_corpus(
        GeneratorConfig(seed=1, n_baseline=200, n_anomalous=0), str(root / "held")
    )
    train_log = read_trace_log(train_paths.baseline)
    tree = build_initial_tree(train_log, TreeConfig())
    store = build(train_log, tree)
    model = store.model

    detector = OfflineDetector(DetectorConfig(alpha=0.05)).fit(
        run_loglik(model, abstract_trace(tree, trace)) for trace in train_log
    )

    def verdicts(log_path):
        out = {}
        for trace in read_trace_log(log_path):
            out[trace.trace_id] = detector.flag(run_loglik(model, abstract_trace(tree, trace)))
        return out

    anomalous_verdicts = verdicts(train_paths.anomalous)
    held_verdicts = verdicts(held_paths.baseline)
    elapsed = time.perf_counter() - t0

    truth = {}
    with open(train_paths.sidecar) as fh:
        for line in fh:
            record = json.loads(line)
            truth[record["trace_id"]] = record["anomaly"]

    return {
        "elapsed": elapsed,
        "tree": tree,
        "store": store,
        "log": train_log,
        "truth": truth,
        "anomalous_verdicts": anomalous_verdicts,
        "held_verdicts": held_verdicts,
    }


@criterion(6, "file-ops reproduction: recall >= 0.90 (too_long, too_short), FPR <= 0.10, < 60 s")
def test_criterion_6_desk_scale_detection(desk_pipeline):
    truth = desk_pipeline["truth"]
    verdicts = desk_pipeline["anomalous_verdicts"]
    recall = {}
    for kind in ("too_long", "too_short"):
        ids = [tid for tid, k in truth.items() if k == kind]
        assert ids, f"generator produced no {kind} traces"
        recall[kind] = sum(verdicts[tid] for tid in ids) / len(ids)
        assert recall[kind] >= 0.90, f"{kind} recall {recall[kind]:.3f} < 0.90"
    held = desk_pipeline["held_verdicts"]
    fpr = sum(held.values()) / len(held)
    assert len(held) == 200
    assert fpr <= 0.10, f"held-out FPR {fpr:.3f} > 0.10"
    assert desk_pipeline["elapsed"] < 60.0, f"pipeline took {desk_pipeline['elapsed']:.1f}s"
    return (
        f"recall too_long={recall['too_long']:.3f} too_short={recall['too_short']:.3f} "
        f"FPR={fpr:.3f} in {desk_pipeline['elapsed']:.1f}s"
    )


def test_run_loglik_is_the_left_to_right_count_sum(desk_pipeline):
    """Exactly, not approximately: each run's score is sum(log(C(s,a,s') / C(s,a))) from 0.0."""
    model = desk_pipeline["store"].model
    totals = count_totals(model)
    for run in desk_pipeline["store"].runs:
        expected = 0.0
        for step in run.steps():
            expected += math.log(model.counts3[step] / totals[step[:2]])
        assert run_loglik(model, run).loglik == expected


@criterion(7, "empirical success fraction inside [Pmin - 0.02, Pmax + 0.02]")
def test_criterion_7_sandwich(desk_pipeline):
    store = desk_pipeline["store"]
    tree = desk_pipeline["tree"]
    log = desk_pipeline["log"]
    modal = store.model.modal_initial()
    from_modal = [t for t in log if t.n_states and tree.abstract(t.states[0]) == modal]
    empirical = sum(t.terminal_status.value == "success" for t in from_modal) / len(from_modal)
    vmax = check(store.model, parse_property('Pmax=? [F "success"]')).value
    vmin = check(store.model, parse_property('Pmin=? [F "success"]')).value
    assert vmin - 0.02 <= empirical <= vmax + 0.02, (vmin, empirical, vmax)
    return f"Pmin={vmin:.4f} <= empirical={empirical:.4f} <= Pmax={vmax:.4f}"


# ---------------------------------------------------------------------------
# 8. Refinement loop outcomes
# ---------------------------------------------------------------------------

@criterion(8, "refinement loop: real counterexample found; merged regimes split under I2 and I4")
def test_criterion_8_refinement_loop():
    # (a) An observed failure trace violates Pmin<=0 [F "failure"].
    traces = [
        mk_trace("t_fail", [{"step": 0, "err": 0}, {"step": 1, "err": 1}], ["risky"], "failure")
    ] + [
        mk_trace(f"t_ok{i}", [{"step": 0, "err": 0}, {"step": 1, "err": 0}], ["safe"], "success")
        for i in range(3)
    ]
    log = mk_log(traces)
    tree = build_initial_tree(log, TreeConfig(min_gain=0.1, min_leaf_size=1))
    outcome = verify_refine_loop(
        log, tree, RefinementConfig(property=parse_property('Pmin<=0 [F "failure"]'))
    )
    assert outcome.kind == "real_counterexample"
    assert any(ref[0] == 0 for ref in outcome.witness_refs), "must reference the failure trace"
    observed = abstract_trace(outcome.store.tree, log[0])
    k = outcome.witness_path.n_transitions
    assert observed.prefix(k) == outcome.witness_path

    # (b) A corpus whose initial abstraction merges two regimes: the loop
    # must split at least once and terminate within bounds with I2 and I4 intact.
    traces = [
        mk_trace(
            f"m0_{i}",
            [{"stage": 0, "mode": 0}, {"stage": 1, "mode": 0}, {"stage": 2, "mode": 0}],
            ["f", "g"],
            "success",
        )
        for i in range(6)
    ] + [
        mk_trace(
            f"m1_{i}",
            [
                {"stage": 0, "mode": 1},
                {"stage": 1, "mode": 1},
                {"stage": 2, "mode": 1},
                {"stage": 3, "mode": 1},
            ],
            ["f2", "g2", "h2"],
            "failure",
        )
        for i in range(5)
    ]
    log = mk_log(traces)
    initial = build_initial_tree(log, TreeConfig(min_gain=0.15, min_leaf_size=6))
    merged_mid = {initial.abstract(log[0].states[1]), initial.abstract(log[6].states[1])}
    assert len(merged_mid) == 1, "fixture must merge the two regimes initially"

    invariant_reports = []
    cfg = RefinementConfig(
        property=parse_property('Pmax<=0.3 [F "failure"]'), min_gain=0.15, max_iterations=10
    )
    outcome = verify_refine_loop(
        log,
        initial,
        cfg,
        on_iteration=lambda store, entry: invariant_reports.append(check_invariants(store)),
    )
    splits = [e for e in outcome.iterations if e.get("action") == "split"]
    assert len(splits) >= 1
    assert len(outcome.iterations) <= cfg.max_iterations
    assert outcome.kind in ("real_counterexample", "verified")
    assert all(report == [] for report in invariant_reports)
    return f"(a) real CE with refs; (b) {len(splits)} split(s), {len(outcome.iterations)} iterations"


# ---------------------------------------------------------------------------
# 9. Explicit-state export round trip
# ---------------------------------------------------------------------------

@criterion(9, "PRISM explicit export is byte-deterministic and round-trips probabilities")
def test_criterion_9_export_round_trip(desk_pipeline):
    rng = np.random.default_rng(909)
    models = [desk_pipeline["store"].model]
    for _ in range(20):
        models.append(_random_mdp(rng))
    for m in models:
        tra1, lab1 = export_explicit(m)
        tra2, lab2 = export_explicit(m)
        assert tra1 == tra2 and lab1 == lab2, "export must be byte-deterministic"
        parsed = parse_explicit(tra1, lab1)
        assert_compiled_equal(parsed, m)
        index = {s: i for i, s in enumerate(sorted(m.states))}
        assert parsed.n_states == len(m.states)
        transitions = compiled_transitions(parsed)
        totals = count_totals(m)
        count = 0
        for (s, a, d), n in m.counts3.items():
            if n > 0:
                assert transitions[(index[s], a, index[d])] == n / totals[(s, a)]
                count += 1
        assert count == len(transitions)
        assert set(parsed.labels) == set(m.labels)
        assert parsed.init == {index[s] for s, n in m.initial.items() if n > 0}
    return f"{len(models)} models, exact probability equality"
