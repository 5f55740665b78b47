"""Tests of the benchmark's own code: the span recorder, the layer metric
list, the recorded headline values and the refusal to run without sources.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def _cli_payload(argv: list[str], out: Path) -> bytes:
    rc, raw = workloads.run_cli(argv + ["--out", str(out)])
    assert rc == 0
    return raw


def _parents(tracer: Tracer, name: str) -> set:
    return {tracer.spans[s.parent].name for s in tracer.spans
            if s.name == name and s.parent is not None}


def test_calls_through_imported_aliases_are_recorded():
    from pbnc import cli, coeff_systems, hankel, numkit

    original = numkit.sup_norm
    with Tracer() as tracer:
        # cli binds row_bound and pb_probe at import; hankel binds sup_norm
        assert cli.row_bound is coeff_systems.row_bound
        assert hankel.sup_norm is numkit.sup_norm is not original
        g = hankel.lacunary_basis_family(9)
        hankel.bound_probe(g, numkit.Polynomial([0.0, 1.0, 0.5]))
        system = coeff_systems.car_jordan_wigner(2)
        cli.row_bound(system, restarts=1)
    assert numkit.sup_norm is original
    assert "hankel.bound_probe" in _parents(tracer, "numkit.sup_norm")
    assert "hankel.norm_gtf" in _parents(tracer, "hankel.BlockHankel.gram_diagonal_or_none")
    assert any(s.name == "coeff_systems.row_bound" and s.parent is None
               for s in tracer.spans)


def test_dispatch_tables_are_traced(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "car", "n": 3}))
    with Tracer() as tracer:
        _cli_payload(["coeffs", "--config", str(cfg)], tmp_path)
    assert _parents(tracer, "cli.cmd_coeffs") == {"cli.run"}
    assert "coeff_systems.tensor_conj_norm" in _parents(tracer, "numkit.op_norm")
    assert all(t >= -1e-9 for t in self_times(tracer.spans))


def test_pool_threads_keep_their_own_span_stacks():
    from pbnc import hankel

    with Tracer() as tracer:
        hankel.bound_scan("lacunary", [5, 9, 17], hankel.ProbeConfig(n_random=2), threads=2)
    spans = tracer.spans
    for s in spans:
        if s.parent is not None:
            assert spans[s.parent].thread == s.thread
            assert spans[s.parent].start <= s.start and s.end <= spans[s.parent].end
    cells = [s for s in spans if s.name == "hankel.scan_probe_best"]
    assert len(cells) == 3
    assert layers.pass_metrics(spans)["hankel.bound_scan.cell_s.lacunary.D17"] > 0


@pytest.mark.parametrize("command,config", [
    ("hankel", {"mode": "scan", "families": ["lacunary", "ones"], "D_list": [9, 17],
                "seed": 3}),
    ("sweep", {"n_grid": [2], "search": {"restarts": 1, "seed": 3}}),
    ("fcn", {"c": 2.0, "n_grid": [2], "seed": 3}),
    ("mc", {"L": 4, "n_samples": 4000, "seed": 3}),
])
def test_traced_payload_equals_untraced(tmp_path, command, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    argv = [command, "--config", str(cfg)]
    plain = _cli_payload(argv, tmp_path / "plain")
    with Tracer() as tracer:
        traced = _cli_payload(argv, tmp_path / "traced")
    assert tracer.spans
    assert traced == plain


def test_reference_holds_every_workload_seed():
    ref = json.loads(workloads.REFERENCE_PATH.read_text())
    assert set(ref["headline"]) == {str(s) for s in range(workloads.SEED_CYCLE)}
    assert workloads.workload_seed(11 + 3 * workloads.SEED_CYCLE) == 11
    for seed, recorded in ref["headline"].items():
        for workload in ("scan", "car_chain", "fcn"):
            for call in workloads.calls(workload, int(seed)):
                assert any(name.startswith(call.label + ".") for name in recorded)


def test_headline_values_equal_their_recording(tmp_path):
    thresholds, ref = workloads.load_reference(ROOT)
    call = workloads.calls("scan", 3)[0]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(call.config))
    raw = _cli_payload([call.command, "--config", str(cfg)], tmp_path)
    _, headline = workloads.check(call, json.loads(raw), thresholds, ref)
    assert headline
    for name, value in headline:
        assert value == pytest.approx(ref["headline"]["3"][name], rel=1e-12)


def test_benchmark_json_lists_every_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert listed == layers.metric_units()


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
