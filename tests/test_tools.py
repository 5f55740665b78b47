"""tools/freeze_thresholds.py is the only sanctioned way to regenerate
src/pbnc/thresholds.json; importing it (without running main) makes a rename
in src/ that breaks the tool fail here."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "freeze_thresholds.py"


def test_freeze_tool_imports():
    spec = importlib.util.spec_from_file_location("freeze_thresholds", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for name in ("main", "freeze_eta", "freeze_pb_car", "freeze_scan", "freeze_fcn"):
        assert callable(getattr(tool, name))
    assert tool.OUT.name == "thresholds.json" and tool.OUT.exists()
