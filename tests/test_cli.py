import csv
import json

import numpy as np
import pytest

from pbnc import cli, numkit
from pbnc.errors import NonConvergenceError
from pbnc.hankel import BlockHankel


def _write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _run(tmp_path, command, doc=None, extra=(), fmt=None):
    argv = [command, "--out", str(tmp_path / "out")]
    if doc is not None:
        argv += ["--config", str(_write_config(tmp_path, doc))]
    if fmt is not None:
        argv += ["--format", fmt]
    argv += list(extra)
    return cli.run(argv)


def _run_dirs(tmp_path):
    return sorted((tmp_path / "out").iterdir())


class TestCoeffs:
    def test_car_passes(self, tmp_path, capsys):
        code = _run(tmp_path, "coeffs", {"kind": "car", "n": 3, "restarts": 4})
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS car_relations" in out
        assert "PASS row_bound_unit" in out
        assert "FAIL" not in out

    def test_haar_flags(self, tmp_path):
        code = _run(tmp_path, "coeffs",
                    {"kind": "haar_unitary", "n": 2, "dim": 3, "restarts": 4, "seed": 5})
        assert code == 0
        payload = json.loads((_run_dirs(tmp_path)[0] / "payload.json").read_bytes())
        assert payload["pass"]["tensor_equals_n"] is True
        assert payload["results"]["kind"] == "haar_unitary"

    def test_invalid_kind_is_config_error(self, tmp_path):
        assert _run(tmp_path, "coeffs", {"kind": "octonion"}) == 2

    def test_invalid_n_is_config_error(self, tmp_path):
        assert _run(tmp_path, "coeffs", {"kind": "car", "n": 0}) == 2

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        # "restart" would otherwise run the default 32 restarts and pass
        assert _run(tmp_path, "coeffs", {"kind": "car", "n": 3, "restart": 4}) == 2
        assert "restart" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_tensor_budget_refused_before_other_work(self, tmp_path, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("ran before the tensor budget check")

        monkeypatch.setattr(cli, "car_relation_residual", unreachable)
        monkeypatch.setattr(cli, "row_bound", unreachable)
        assert _run(tmp_path, "coeffs", {"kind": "car", "n": 9}) == 2
        assert not (tmp_path / "out").exists()

    def test_capped_tensor_solve_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(numkit, "LANCZOS_STEP_CAP", 1)
        assert _run(tmp_path, "coeffs", {"kind": "car", "n": 3, "restarts": 4}) == 3


class TestHankelCommand:
    def test_probe_mode(self, tmp_path):
        code = _run(tmp_path, "hankel", {"mode": "probe", "L": 2, "D": 5})
        assert code == 0
        payload = json.loads((_run_dirs(tmp_path)[0] / "payload.json").read_bytes())
        assert payload["pass"]["hankel_property"] is True
        assert payload["pass"]["symbol_roundtrip"] is True
        assert payload["results"]["ratio"] > 0

    def test_scan_mode_writes_csv(self, tmp_path):
        doc = {"mode": "scan", "families": ["lacunary"], "D_list": [5, 9],
               "seed": 1, "probe": {"n_random": 2, "ascent_restarts": 1, "ascent_steps": 2}}
        code = _run(tmp_path, "hankel", doc)
        assert code == 0
        run_dir = _run_dirs(tmp_path)[0]
        with (run_dir / "scan.csv").open(newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["D", "family", "best_ratio", "argmax_poly_id", "seed"]
        rows = json.loads((run_dir / "payload.json").read_bytes())["results"]["rows"]
        assert len(parsed) == 1 + len(rows) == 3
        for line, row in zip(parsed[1:], rows):
            assert line[:2] == [str(row["D"]), "lacunary"]
            assert float(line[2]) == pytest.approx(row["best_ratio"], rel=1e-11)

    def test_hankel_property_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        flat = BlockHankel.flat

        def one_wrong_block(self):
            g = flat(self)
            out_dim, in_dim = self.block_shape
            g[:out_dim, in_dim : 2 * in_dim] += 1.0  # block (0, 1) no longer equals (1, 0)
            return g

        monkeypatch.setattr(BlockHankel, "flat", one_wrong_block)
        code = _run(tmp_path, "hankel", {"mode": "probe", "L": 2, "D": 5})
        out = capsys.readouterr().out
        assert "FAIL hankel_property" in out
        assert "PASS symbol_roundtrip" in out
        assert code == 1


class TestCertify:
    def test_car_default(self, tmp_path):
        code = _run(tmp_path, "certify",
                    {"system": "car", "n": 2, "search": {"restarts": 1}})
        assert code == 0
        payload = json.loads((_run_dirs(tmp_path)[0] / "payload.json").read_bytes())
        res = payload["results"]
        assert res["N_total"] == 2 * res["D"] * res["h_dim"]
        assert payload["pass"]["cb_at_least_half_sqrt_n"] is True

    def test_contraction_regime(self, tmp_path):
        code = _run(tmp_path, "certify",
                    {"system": "car", "n": 2, "eps": 0.0, "search": {"restarts": 1}})
        assert code == 0
        payload = json.loads((_run_dirs(tmp_path)[0] / "payload.json").read_bytes())
        assert payload["pass"]["contraction_certificate_zero"] is True
        assert payload["pass"]["von_neumann_probe"] is True

    def test_band_failure_exits_one(self, tmp_path, monkeypatch):
        doc, digest = cli.load_thresholds()
        doc = json.loads(json.dumps(doc))
        doc["pb_car"]["band_lo"] = 50.0
        doc["pb_car"]["band_hi"] = 60.0
        monkeypatch.setattr(cli, "load_thresholds", lambda: (doc, digest))
        code = _run(tmp_path, "certify", {"system": "car", "n": 2})
        assert code == 1


class TestSweep:
    def test_growth_flags(self, tmp_path, capsys):
        doc = {"system": "car", "n_grid": [2, 3], "search": {"restarts": 1}}
        code = _run(tmp_path, "sweep", doc, fmt="csv")
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS similarity_growth" in out
        run_dir = _run_dirs(tmp_path)[0]
        lines = (run_dir / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "n,similarity_lower,pb_probe,cb_over_pb"
        assert len(lines) == 3


class TestMc:
    DOC = {"L": 3, "n_samples": 4000, "seed": 12,
           "checks": [{"check": "drift"}, {"check": "eta_bound"},
                      {"check": "radial", "level": 2, "degree": 4},
                      {"check": "fourier", "level": 2, "degree": 6}]}

    def test_battery_passes(self, tmp_path):
        code = _run(tmp_path, "mc", self.DOC, fmt="csv")
        assert code == 0
        run_dir = _run_dirs(tmp_path)[0]
        lines = (run_dir / "mc.csv").read_text().strip().splitlines()
        assert len(lines) == 5
        payload = json.loads((run_dir / "payload.json").read_bytes())
        assert all(payload["pass"].values())

    def test_default_battery(self, tmp_path):
        code = _run(tmp_path, "mc", {"L": 4, "n_samples": 20000, "seed": 1})
        assert code == 0

    def test_unknown_check_is_config_error(self, tmp_path):
        doc = {"L": 2, "n_samples": 100, "checks": [{"check": "astrology"}]}
        assert _run(tmp_path, "mc", doc) == 2

    def test_unknown_top_level_key_is_config_error(self, tmp_path, capsys):
        # "n_sample" would otherwise run the default 100 000 samples and pass
        assert _run(tmp_path, "mc", {"L": 3, "n_sample": 1000, "seed": 1}) == 2
        assert "n_sample" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_check_key_is_config_error(self, tmp_path, capsys):
        doc = {"L": 3, "n_samples": 100, "seed": 1,
               "checks": [{"check": "drift"}, {"check": "radial", "levle": 2}]}
        assert _run(tmp_path, "mc", doc) == 2
        assert "levle" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFcn:
    def test_small_grid(self, tmp_path):
        code = _run(tmp_path, "fcn", {"n_grid": [2], "c": 2.0, "seed": 42}, fmt="csv")
        assert code == 0
        run_dir = _run_dirs(tmp_path)[0]
        payload = json.loads((run_dir / "payload.json").read_bytes())
        assert payload["pass"]["scaled_positive"] is True
        assert "scaled_band" not in payload["pass"]  # grid differs from frozen config
        lines = (run_dir / "fcn.csv").read_text().strip().splitlines()
        assert lines[0] == "n,c,cb_over_pb,scaled"


class TestDriver:
    def test_payload_byte_identical(self, tmp_path):
        doc = {"kind": "car", "n": 2, "restarts": 2}
        assert _run(tmp_path, "coeffs", doc) == 0
        first = (_run_dirs(tmp_path)[0] / "payload.json").read_bytes()
        assert _run(tmp_path, "coeffs", doc) == 0
        second = (_run_dirs(tmp_path)[0] / "payload.json").read_bytes()
        assert first == second

    def test_seed_flag_overrides_config(self, tmp_path):
        doc = {"kind": "haar_unitary", "n": 2, "dim": 2, "seed": 1, "restarts": 2}
        assert _run(tmp_path, "coeffs", doc, extra=["--seed", "99"]) == 0
        payload = json.loads((_run_dirs(tmp_path)[0] / "payload.json").read_bytes())
        assert payload["config"]["seed"] == 99

    def test_run_dir_is_config_addressed(self, tmp_path):
        doc = {"kind": "car", "n": 2, "restarts": 2}
        _run(tmp_path, "coeffs", doc)
        _run(tmp_path, "coeffs", {"kind": "car", "n": 3, "restarts": 2})
        dirs = _run_dirs(tmp_path)
        assert len(dirs) == 2
        assert all(d.name.startswith("coeffs-") for d in dirs)

    def test_report_hash_matches_payload(self, tmp_path):
        _run(tmp_path, "coeffs", {"kind": "car", "n": 2, "restarts": 2})
        run_dir = _run_dirs(tmp_path)[0]
        import hashlib

        payload = (run_dir / "payload.json").read_bytes()
        report = json.loads((run_dir / "report.json").read_text())
        assert report["payload_sha256"] == hashlib.sha256(payload).hexdigest()
        assert "runtime_ms" in report
        assert report["thresholds_hash"] == cli.load_thresholds()[1]

    def test_missing_config_file(self, tmp_path):
        code = cli.run(["coeffs", "--config", str(tmp_path / "absent.json"),
                        "--out", str(tmp_path / "out")])
        assert code == 2

    def test_malformed_config(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert cli.run(["coeffs", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_non_object_config(self, tmp_path):
        p = tmp_path / "arr.json"
        p.write_text("[1, 2]")
        assert cli.run(["coeffs", "--config", str(p), "--out", str(tmp_path / "o")]) == 2

    def test_nonconvergence_exit_code(self, tmp_path, monkeypatch):
        def boom(cfg, thresholds, threads):
            raise NonConvergenceError("stalled", 10, 1.0)

        monkeypatch.setitem(cli.HANDLERS, "coeffs", boom)
        assert _run(tmp_path, "coeffs", {"kind": "car", "n": 2}) == 3

    def test_bad_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["transmogrify"])
        assert exc.value.code == 2

    def test_env_thread_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PBNC_THREADS", "2")
        doc = {"mode": "scan", "families": ["lacunary"], "D_list": [5, 9], "seed": 1,
               "probe": {"n_random": 2, "ascent_restarts": 1, "ascent_steps": 2}}
        assert _run(tmp_path, "hankel", doc) == 0
        single = json.loads((_run_dirs(tmp_path)[0] / "payload.json").read_bytes())
        monkeypatch.delenv("PBNC_THREADS")
        doc2 = dict(doc)
        assert _run(tmp_path, "hankel", doc2, extra=["--threads", "1"]) == 0
        again = json.loads((_run_dirs(tmp_path)[0] / "payload.json").read_bytes())
        assert single == again
