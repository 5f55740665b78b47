"""tools/freeze_thresholds.py is the only sanctioned way to regenerate
src/pbnc/thresholds.json, tools/payload_digests.py compares payloads
across commits, tools/probe_cost.py counts the solves of a CAR pb_probe or
of an fcn row,
tools/mc_cost.py times one mc pass and counts its page faults, and
tools/src_size.py counts the code lines of src/pbnc; importing them
(without running main) makes a rename in src/ that breaks a tool fail
here, the digest tool's exit code is checked on a call that writes no
payload, the size tool counts a small source, the probe cost tool runs at
n = 2 in both modes and pins the solve budget of the car_chain sweep, and the mc cost
tool runs over two path blocks.  The last test keeps src/pbnc free of
code that only the tests call."""

import ast
import importlib.util
import json
import os
from collections import defaultdict
from pathlib import Path

from pbnc import hankel, numkit
from pbnc.coeff_systems import car_jordan_wigner
from pbnc.counterexample import PbSearch, build_T, fcn_experiment, pb_probe
from pbnc.hankel import MultiplierSeq, lacunary_default
from pbnc.martingale import SIM_BLOCK

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "freeze_thresholds.py"


def test_freeze_tool_imports():
    spec = importlib.util.spec_from_file_location("freeze_thresholds", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    for name in ("main", "freeze_eta", "freeze_pb_car", "freeze_scan", "freeze_fcn"):
        assert callable(getattr(tool, name))
    assert tool.OUT.name == "thresholds.json" and tool.OUT.exists()


def _tool(monkeypatch, name):
    # the tool pins the BLAS thread variables at import; keep them local
    monkeypatch.setattr(os, "environ", dict(os.environ))
    spec = importlib.util.spec_from_file_location(name, TOOL.with_name(f"{name}.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def _digest_tool(monkeypatch):
    return _tool(monkeypatch, "payload_digests")


def test_payload_digest_tool_imports(monkeypatch):
    tool = _digest_tool(monkeypatch)
    assert callable(tool.main) and callable(tool.digest)
    labels = [label for label, _, _ in tool.CALLS]
    assert len(labels) == len(set(labels)) == 30


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


def test_payload_digest_tool_dumps_and_compares(monkeypatch, tmp_path, capsys):
    tool = _digest_tool(monkeypatch)
    ok = ("mc.ok", "mc", {"L": 2, "n_samples": 100, "seed": 1, "checks": [{"check": "drift"}]})
    monkeypatch.setattr(tool, "CALLS", [ok])
    dump_a, dump_b = tmp_path / "a", tmp_path / "b"
    assert tool.main(["--dump", str(dump_a)]) == 0
    data = (dump_a / "mc.ok.json").read_bytes()
    assert capsys.readouterr().out == f"mc.ok {tool.digest(data)}\n"
    doc = json.loads(data)

    def compare(edit):
        moved = json.loads(data)
        edit(moved)
        dump_b.mkdir(exist_ok=True)
        (dump_b / "mc.ok.json").write_text(json.dumps(moved))
        code = tool.main(["--compare", str(dump_a), str(dump_b)])
        return code, capsys.readouterr().out

    code, out = compare(lambda d: None)  # same fields, other bytes: no field moved
    assert code == 0 and "| mc.ok | 0 | 0 |  | 0 |" in out
    assert tool.main(["--compare", str(dump_a), str(dump_a)]) == 0
    assert capsys.readouterr().out == "1/1 payloads identical\n"

    def numeric(d):  # two numeric fields move, by about 1e-15 and by 1/2
        d["results"]["n_samples"] *= 1 + 1e-15
        d["config"]["seed"] = 2

    code, out = compare(numeric)
    assert code == 0 and "0/1 payloads identical" in out
    row = [ln for ln in out.splitlines() if ln.startswith("| mc.ok |")]
    # the row names the field that moved most, relatively, and by how much
    assert row == ["| mc.ok | 2 | 0.5 | `config.seed` | 1 |"]
    code, out = compare(lambda d: d["results"].update(n_samples=d["results"]["n_samples"] + 25))
    row = [ln for ln in out.splitlines() if ln.startswith("| mc.ok |")]
    assert row == ["| mc.ok | 1 | 0.2 | `results.n_samples` | 25 |"]
    # a boolean, a new field or a missing payload fails the comparison
    flag = next(iter(doc["pass"]))
    code, out = compare(lambda d: d["pass"].update({flag: not d["pass"][flag]}))
    assert code == 1 and f"FAIL mc.ok: pass.{flag}" in out
    code, out = compare(lambda d: d["results"].update(extra=1))
    assert code == 1 and "results.extra" in out
    (dump_a / "mc.gone.json").write_bytes(data)
    assert tool.main(["--compare", str(dump_a), str(dump_b)]) == 1
    assert "FAIL mc.gone: payload only in" in capsys.readouterr().out


def test_probe_cost_tool_counts_a_car_probe(monkeypatch, capsys):
    tool = _tool(monkeypatch, "probe_cost")
    search = PbSearch(restarts=1)
    row = tool.probe_cost(2, search)
    assert row["steps"] > row["ascent_steps"] > 0 and row["checks"] > 0 and row["wall_s"] > 0
    spec = lacunary_default(2)
    bundle = build_T(car_jordan_wigner(2), spec, MultiplierSeq.indicator(spec))
    assert row["pb_probe"] == pb_probe(bundle, search)
    # the counting wrappers are gone again
    assert hankel.top_singular is numkit.top_singular
    assert hankel.fejer_ascent.__module__ == "pbnc.hankel"
    assert tool.main(["2", "--restarts", "1"]) == 0
    header, line = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "wall_s", "steps", "ascent_steps", "checks", "pb_probe"]
    fields = line.split()
    assert fields[0] == "2" and [int(f) for f in fields[2:5]] == [
        row["steps"], row["ascent_steps"], row["checks"]]


def test_probe_cost_tool_counts_an_fcn_row(monkeypatch, capsys):
    tool = _tool(monkeypatch, "probe_cost")
    row = tool.fcn_cost(2)
    assert row["steps"] > 0 and row["checks"] > 0 and row["wall_s"] > 0
    assert row["ascent_steps"] == 0  # a row runs no ascent
    assert row["pb_probe"] == fcn_experiment(2, 2.0, 42)["pb_probe"]
    assert hankel.top_singular is numkit.top_singular
    assert tool.main(["--fcn", "2"]) == 0
    header, line = capsys.readouterr().out.splitlines()
    assert header.split() == ["n", "wall_s", "steps", "ascent_steps", "checks", "pb_probe"]
    fields = line.split()
    assert fields[0] == "2" and [int(f) for f in fields[2:5]] == [row["steps"], 0, row["checks"]]


def test_mc_cost_tool_measures_one_pass(monkeypatch, capsys):
    tool = _tool(monkeypatch, "mc_cost")
    assert tool.main(["--L", "3", "--n-samples", str(2 * SIM_BLOCK)]) == 0
    header, line = capsys.readouterr().out.splitlines()
    assert header.split() == ["L", "n_samples", "seed", "wall_s", "user_s", "sys_s",
                              "minor_faults"]
    fields = line.split()
    assert fields[:3] == ["3", str(2 * SIM_BLOCK), "1"]
    assert float(fields[3]) > 0 and min(map(float, fields[4:6])) >= 0 and int(fields[6]) >= 0


def test_src_size_tool_counts_code_lines(monkeypatch, tmp_path, capsys):
    tool = _tool(monkeypatch, "src_size")
    source = ('"""Module docstring,\n\non three lines."""\n'
              "\n"
              "# a comment\n"
              "def f(x):\n"
              '    """One line."""\n'
              "    return (x +  # a trailing comment\n"
              "            1)\n"
              'TEXT = """a string\nthat is code"""\n')
    # code: def, return, its continuation and the two lines of TEXT
    assert tool.count(source) == (11, 5)
    (tmp_path / "m.py").write_text(source)
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[2:] == ["| m.py | 11 | 5 |", "| total | 11 | 5 |"]


def test_car_sweep_solve_cost(monkeypatch):
    # pb_probe at CAR n = 2..4 with the default PbSearch, the car_chain
    # benchmark's sweep: 3 027 GKL steps and 1 211 residual tests, where
    # cold screening solves took 3 408 steps and 1 258 tests, and cold
    # ascent solves with a test at each of a cycle's first 12 steps (every
    # third step after) 4 036 steps and 2 683 tests
    tool = _tool(monkeypatch, "probe_cost")
    rows = [tool.probe_cost(n, PbSearch()) for n in (2, 3, 4)]
    assert sum(r["steps"] for r in rows) <= 3_100
    assert sum(r["checks"] for r in rows) <= 1_258


# public name of src/pbnc ("module.name" or "module.Class.name") -> why it
# stays although nothing in src/pbnc or tools/ refers to it
UNREFERENCED_ALLOWED: dict[str, str] = {}


def _unreferenced() -> list[str]:
    """Public module-level functions, classes, methods and constants (names
    bound by a module-level assignment) of src/pbnc, outside
    UNREFERENCED_ALLOWED, that nothing in src/pbnc or tools/ refers to by
    name outside their own definition and outside other such code (a helper
    that only dead code calls is dead too).  Imports are not references, and
    neither is an attribute of a module bound by ``import`` (``np.block``)."""
    src = ROOT / "src" / "pbnc"
    defs = []  # (qualified name, name, path, first line, last line)
    refs = defaultdict(list)  # name -> [(path, line)]
    for path in sorted(src.glob("*.py")) + sorted((ROOT / "tools").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.Import) for alias in node.names}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute) and not (
                    isinstance(node.value, ast.Name) and node.value.id in modules):
                refs[node.attr].append((path, node.lineno))
        if path.parent != src:
            continue
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for name in (t.id for t in targets if isinstance(t, ast.Name)):
                    defs.append((f"{path.stem}.{name}", name, path, node.lineno, node.end_lineno))
                continue
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            qual = f"{path.stem}.{node.name}"
            defs.append((qual, node.name, path, node.lineno, node.end_lineno))
            for m in node.body if isinstance(node, ast.ClassDef) else []:
                if isinstance(m, ast.FunctionDef):
                    defs.append((f"{qual}.{m.name}", m.name, path, m.lineno, m.end_lineno))

    def inside(ref, d):
        return ref[0] == d[2] and d[3] <= ref[1] <= d[4]

    dead = []
    while new := [d for d in defs if d not in dead and d[0] not in UNREFERENCED_ALLOWED
                  and all(inside(r, d) or any(inside(r, x) for x in dead) for r in refs[d[1]])]:
        dead += new
    return sorted(d[0] for d in dead if not d[1].startswith("_"))


def test_src_defines_only_what_src_or_tools_use():
    assert all(why for why in UNREFERENCED_ALLOWED.values())
    unused = _unreferenced()
    assert unused == [], f"nothing in src/pbnc or tools/ uses {unused}"
