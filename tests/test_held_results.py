import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "held_results.py"


def _tool():
    spec = importlib.util.spec_from_file_location("held_results", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_reports_float_moves_and_fails_on_other_differences(capsys):
    compare = _tool().compare
    a = {"fuzz": {"m": [1.0, 2.0], "status": "ok", "n": 3}, "repro": {}}
    moved = {"fuzz": {"m": [1.0, 2.0000000000000004], "status": "ok", "n": 3},
             "repro": {}}
    assert compare(a, moved) == 0
    out = capsys.readouterr().out
    assert "fuzz: 1 of 2 floats moved, at most 2.2e-16 relative" in out
    assert "fuzz/m[1]: 2.0 -> 2.0000000000000004" in out
    for other in ({"fuzz": {"m": [1.0, 2.0], "status": "bad", "n": 3}},
                  {"fuzz": {"m": [1.0], "status": "ok", "n": 3}},
                  {"fuzz": {"m": [1.0, 2.0], "status": "ok", "n": 4}},
                  {"fuzz": {"m": [1.0, 2.0], "status": "ok"}}):
        assert compare(a, {**other, "repro": {}}) == 1
    assert compare(a, {"fuzz": a["fuzz"]}) == 1
