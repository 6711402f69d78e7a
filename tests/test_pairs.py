"""The verdict line of tools/pairs.py on fixed run lists."""

import importlib.util
import os

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
_spec = importlib.util.spec_from_file_location("pairs", os.path.join(TOOLS, "pairs.py"))
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [1.0, 1.1, 0.9, 1.0, 1.05, 0.95, 1.0, 1.02, 0.98, 1.0]
# Quartiles 0.85 and 1.15 around a median of 1.0: a spread of 30%.
NOISY = [0.6, 0.8, 0.8, 1.0, 1.0, 1.0, 1.0, 1.2, 1.2, 1.4]


def test_a_clear_gain_within_its_bound():
    line = pairs.verdict(PARENT, [p * 0.3 for p in PARENT], "lower", 0.25)
    assert "wins 10/10" in line and "CLEARS the bar" in line
    assert "median -70.0% vs bound 25%" in line and "WORSE" not in line and "UNRESOLVED" not in line


def test_a_small_gain_does_not_clear_the_bar():
    change = [p - 0.01 if i % 2 else p + 0.01 for i, p in enumerate(PARENT)]
    line = pairs.verdict(PARENT, change, "lower", 0.24)
    assert "wins 5/10" in line and "does not clear the bar" in line and "WORSE" not in line


def test_a_regression_past_its_bound_is_marked():
    line = pairs.verdict(PARENT, [p * 1.5 for p in PARENT], "lower", 0.25)
    assert "wins 0/10" in line and "median +50.0% vs bound 25%  WORSE than its bound" in line
    assert "WORSE" not in pairs.verdict(PARENT, [p * 1.2 for p in PARENT], "lower", 0.25)


def test_higher_is_better_turns_the_signs():
    assert "WORSE" in pairs.verdict(PARENT, [p * 0.5 for p in PARENT], "higher", 0.25)
    line = pairs.verdict(PARENT, [p * 2 for p in PARENT], "higher", 0.25)
    assert "wins 10/10" in line and "CLEARS the bar" in line and "WORSE" not in line


def test_a_spread_wider_than_the_bound_is_unresolved():
    line = pairs.verdict(NOISY, NOISY[::-1], "lower", 0.25)
    assert "median +0.0% vs bound 25%  UNRESOLVED: parent spread wider than its bound" in line
    assert "UNRESOLVED" not in pairs.verdict(NOISY, NOISY[::-1], "lower", 0.5)


def test_unresolved_prints_beside_worse():
    line = pairs.verdict(NOISY, [v * 1.5 for v in NOISY], "lower", 0.25)
    assert "WORSE than its bound  UNRESOLVED" in line


def test_a_change_beating_every_parent_run_is_resolved():
    assert "UNRESOLVED" not in pairs.verdict(NOISY, [v * 0.3 for v in NOISY], "lower", 0.25)
    assert "UNRESOLVED" in pairs.verdict(NOISY, [v * 0.5 for v in NOISY], "lower", 0.25)
    assert "UNRESOLVED" not in pairs.verdict(NOISY, [v * 3 for v in NOISY], "higher", 0.25)
