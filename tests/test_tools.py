"""tools/freeze_thresholds.py is the only sanctioned way to regenerate
src/pbnc/thresholds.json, and tools/payload_digests.py compares payloads
across commits; importing them (without running main) makes a rename in src/
that breaks a tool fail here."""

import importlib.util
import os
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "freeze_thresholds.py"


def test_freeze_tool_imports():
    spec = importlib.util.spec_from_file_location("freeze_thresholds", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for name in ("main", "freeze_eta", "freeze_pb_car", "freeze_scan", "freeze_fcn"):
        assert callable(getattr(tool, name))
    assert tool.OUT.name == "thresholds.json" and tool.OUT.exists()


def test_payload_digest_tool_imports(monkeypatch):
    # the tool pins the BLAS thread variables at import; keep them local
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location(
        "payload_digests", TOOL.with_name("payload_digests.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert callable(tool.main) and callable(tool.digest)
    labels = [label for label, _, _ in tool.CALLS]
    assert len(labels) == len(set(labels)) == 16
