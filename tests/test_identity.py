"""The difference report of tools/identity.py on hand-made output trees."""

import importlib.util
import json
import math
import os

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
_spec = importlib.util.spec_from_file_location("identity", os.path.join(TOOLS, "identity.py"))
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def test_max_ulps_counts_float_steps():
    one_up = math.nextafter(1.0, 2.0)
    assert identity.max_ulps({"v": [1.0, 0.5]}, {"v": [math.nextafter(one_up, 2.0), 0.5]}) == 2
    assert identity.max_ulps(0.0, -0.0) == 1
    assert identity.max_ulps(-1e-300, 1e-300) > 1


def test_max_ulps_is_none_for_structure():
    assert identity.max_ulps({"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0}) is None
    assert identity.max_ulps([1.0], [1.0, 2.0]) is None
    assert identity.max_ulps({"n": 1}, {"n": 1.0}) is None
    assert identity.max_ulps({"ok": True}, {"ok": False}) is None


def test_json_differences_names_each_differing_json_file(tmp_path):
    sides = {}
    for side, bound in (("parent", 0.25), ("change", math.nextafter(0.25, 1.0))):
        root = tmp_path / side
        (root / "flow").mkdir(parents=True)
        (root / "flow" / "check.out").write_text(json.dumps({"bound": bound, "iterations": 3}) + "\n")
        (root / "flow" / "log.jsonl").write_text('{"k": 1}\n{"k": %d}\n' % (2 if side == "parent" else 3))
        (root / "flow" / "model.tra").write_text(f"0 0 1 {bound}\n")
        (root / "same.out").write_text("{}\n")
        sides[side] = str(root)
    assert identity.json_differences(sides["parent"], sides["change"]) == [
        os.path.join("flow", "check.out") + ": float-only, max 1 ulps",
        os.path.join("flow", "log.jsonl") + ": structural",
    ]
