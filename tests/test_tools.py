"""tools/freeze_thresholds.py is the only sanctioned way to regenerate
src/pbnc/thresholds.json, and tools/payload_digests.py compares payloads
across commits; importing them (without running main) makes a rename in src/
that breaks a tool fail here, and the digest tool's exit code is checked on
a call that writes no payload."""

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


def _digest_tool(monkeypatch):
    # the tool pins the BLAS thread variables at import; keep them local
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location(
        "payload_digests", TOOL.with_name("payload_digests.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_payload_digest_tool_imports(monkeypatch):
    tool = _digest_tool(monkeypatch)
    assert callable(tool.main) and callable(tool.digest)
    labels = [label for label, _, _ in tool.CALLS]
    assert len(labels) == len(set(labels)) == 28


def test_payload_digest_tool_fails_on_a_missing_payload(monkeypatch, tmp_path, capsys):
    tool = _digest_tool(monkeypatch)
    ok = ("mc.ok", "mc", {"L": 2, "n_samples": 100, "seed": 1, "checks": [{"check": "drift"}]})
    bad = ("mc.bad", "mc", {"L": 0})  # exit 2: no payload
    monkeypatch.setattr(tool, "CALLS", [ok])
    assert tool.main([]) == 0
    good_lines = capsys.readouterr().out
    monkeypatch.setattr(tool, "CALLS", [ok, bad])
    assert tool.main([]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1] == "mc.bad none"
    assert "mc.bad" in captured.err
    # two crashed runs are not "identical"
    digests = tmp_path / "digests.txt"
    digests.write_text(captured.out)
    assert tool.main(["--check", str(digests)]) == 1
    assert "2/2 payloads identical" in capsys.readouterr().err
    digests.write_text(good_lines)
    monkeypatch.setattr(tool, "CALLS", [ok])
    assert tool.main(["--check", str(digests)]) == 0
