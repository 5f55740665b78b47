import csv
import json
import time
import tracemalloc

import numpy as np
import pytest

from pbnc import cli, numkit
from pbnc.coeff_systems import car_jordan_wigner
from pbnc.counterexample import haar_bundle
from pbnc.errors import DimensionError, DomainError, NonConvergenceError
from pbnc.hankel import (
    BlockHankel,
    LacunarySpec,
    MultiplierSeq,
    build_hankel,
    lacunary_default,
    random_poly,
)
from pbnc.martingale import (
    SIM_BLOCK,
    BridgeForm,
    MartingaleConfig,
    McAccumulator,
    fourier_samples,
    multiplier_samples,
    orthogonality_samples,
    radial_samples,
)
from reference import simulate_paths


def _write_config(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _run(tmp_path, command, doc=None, extra=()):
    argv = [command, "--out", str(tmp_path / "out")]
    if doc is not None:
        argv += ["--config", str(_write_config(tmp_path, doc))]
    argv += list(extra)
    return cli.run(argv)


def _run_dirs(tmp_path):
    return sorted((tmp_path / "out").iterdir())


def _est(samples):
    """The package's one reducer over a full batch of per-sample values."""
    return McAccumulator().add(samples).estimate()


WORK = ("row_bound", "build_hankel", "bound_scan", "pb_probe", "fcn_experiment",
        "stream_estimates")


@pytest.mark.parametrize("command,doc,key", [
    ("sweep", {"n_grid": [[2]]}, "n_grid"),
    ("certify", {"search": {"restarts": [1]}}, "search.restarts"),
    ("mc", {"n_samples": [5]}, "n_samples"),
    # wrong shapes and non-finite numbers
    ("hankel", {"mode": "probe", "spec": 5}, "spec must"),
    ("hankel", {"mode": "scan", "families": [["lacunary"]], "D_list": [5]}, "families[0] must"),
    ("hankel", {"mode": "probe", "L": 2, "f": "abc"}, "f must"),
    ("certify", {"n": 2, "eps": float("inf")}, "eps must"),
    ("fcn", {"n_grid": [2], "c": float("nan")}, "c must"),
    # missing required keys and negative seeds
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"level": 2}]}, "checks[0].check is required"),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "multiplier", "level": 3}]},
     "checks[0].k is required"),
    ("coeffs", {"kind": "car", "n": 2, "seed": -1}, "seed must"),
    ("coeffs", {"kind": "haar_unitary", "n": 2, "seed": -1}, "seed must"),
    ("fcn", {"n_grid": [2], "seed": -1}, "seed must"),
    ("mc", {"L": 2, "n_samples": 100, "seed": -1}, "seed must"),
    ("certify", {"n": 2, "search": {"seed": -1}}, "search.seed must"),
    # second spellings of a setting
    ("coeffs", {"kind": "car", "n": 2, "output_dir": "elsewhere"}, "'output_dir'"),
    ("certify", {"n": 2, "search": {"search_seed": 3}}, "'search_seed'"),
    ("hankel", {"mode": "probe", "n": 3}, "'n'"),
    ("certify", {"kind": "car", "n": 2}, "'kind'"),
    ("sweep", {"kind": "car", "n_grid": [2]}, "'kind'"),
    # booleans and non-integral numbers are refused, not truncated
    ("coeffs", {"kind": "car", "n": 1.5}, "n must be an integer"),
    ("coeffs", {"kind": "car", "n": 2, "restarts": True}, "restarts must be an integer"),
    ("mc", {"L": 2, "n_samples": 100.5}, "n_samples must be an integer"),
    ("certify", {"n": 2, "eps": True}, "eps must be a finite number"),
    ("hankel", {"mode": "probe", "L": 2, "f": [0.0, False]}, "f[1] must"),
    ("hankel", {"mode": "scan", "D_list": [5], "probe": {"n_random": 2.5}}, "probe.n_random"),
    # integers and numbers below their least value are refused, not clamped
    ("certify", {"n": 2, "search": {"restarts": -5}}, "search.restarts must be an integer >= 1"),
    ("hankel", {"mode": "scan", "families": ["lacunary"], "D_list": [5],
                "probe": {"n_random": -3, "ascent_restarts": -1, "ascent_steps": -2}},
     "probe.n_random must be an integer >= 0"),
    ("hankel", {"mode": "scan", "families": ["lacunary"], "D_list": [5],
                "probe": {"ascent_restarts": 0}}, "probe.ascent_restarts must be an integer >= 1"),
    ("hankel", {"mode": "scan", "families": ["lacunary"], "D_list": [5],
                "probe": {"ascent_steps": -2}}, "probe.ascent_steps must be an integer >= 0"),
    ("coeffs", {"kind": "car", "n": 3, "restarts": 0}, "restarts must be an integer >= 1"),
    ("certify", {"system": "haar_unitary", "n": 2, "eps": -0.5},
     "eps must be a finite number >= 0"),
    ("sweep", {"system": "haar_unitary", "n_grid": [2], "eps": -0.5}, "eps must"),
    # a level is required where the default 0 is not a level the kind reads
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "fourier", "degree": 7}]},
     "checks[0].level is required"),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "drift"},
                                                  {"check": "multiplier", "k": 5}]},
     "checks[1].level is required"),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "orthogonality"}]},
     "checks[0].level is required"),
    # values a library precondition would refuse: c <= 1, a zero f or one of
    # degree >= 2D = 10 (L = 2: D = 5), a bridge degree >= 2D = 10 (car_n = 2,
    # K = (1, 4): D = 5), each before any Hankel or flat matrix is built
    ("fcn", {"n_grid": [2], "c": 1.0}, "c must exceed 1"),
    ("fcn", {"n_grid": [2], "c": 0.5}, "c must exceed 1"),
    ("hankel", {"mode": "probe", "L": 2, "f": [0.0, 0.0]}, "f must be a nonzero polynomial"),
    ("hankel", {"mode": "probe", "L": 2, "f": [0.0] * 10 + [1.0]}, "f must be a nonzero "
     "polynomial of degree < 2D = 10, not of degree 10"),
    ("hankel", {"mode": "probe", "spec": [2], "f": [0.0] * 6 + [1.0]}, "2D = 6, not of degree 6"),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "bridge", "car_n": 2, "degree": 10}]},
     "checks[0].degree = 10 is not below 2D = 10"),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "drift"},
                                                  {"check": "bridge", "car_n": 1, "degree": 4}]},
     "checks[1].degree = 4 is not below 2D = 4"),
])
def test_uncastable_value_is_config_error(tmp_path, capsys, monkeypatch, command, doc, key):
    # int([2]) is a TypeError, which must not surface as a traceback; every
    # malformed config exits 2 naming its key, before any work, and writes
    # no run directory
    def unreachable(*args, **kwargs):
        raise AssertionError("work ran before the config was checked")

    for name in WORK + ("car_relation_residual", "haar_bundle"):
        monkeypatch.setattr(cli, name, unreachable)
    assert _run(tmp_path, command, doc) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,doc,typo", [
    ("coeffs", {"kind": "car", "n": 2, "restart": 4}, "restart"),
    ("hankel", {"mode": "probe", "L": 2, "d": 5}, "'d'"),
    ("hankel", {"mode": "scan", "D_list": [5], "probe": {"n_randm": 2}}, "n_randm"),
    ("certify", {"n": 2, "search": {"restart": 1}}, "restart"),
    ("sweep", {"n_grid": [2], "epsilon": 0.5}, "epsilon"),
    ("fcn", {"n_grid": [2], "C": 3.0}, "'C'"),
    # the bridge check builds a Hankel matrix: the typo after it still stops first
    ("mc", {"L": 3, "n_samples": 100,
            "checks": [{"check": "bridge"}, {"check": "radial", "levle": 2}]}, "levle"),
    # dim shapes only a Haar system
    ("coeffs", {"kind": "car", "n": 2, "dim": 7}, "'dim'"),
    ("certify", {"system": "car", "n": 2, "dim": 7}, "'dim'"),
    # a bridge reads its own depth: a level there would be ignored
    ("mc", {"L": 4, "n_samples": 100, "checks": [{"check": "bridge", "level": 9}]}, "'level'"),
    # each mc kind reads only its own keys, and names the one it ignores
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "drift", "level": 40}]},
     "checks[0].level"),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "drift", "degree": 99}]},
     "checks[0].degree"),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "eta_bound", "degree": 4}]},
     "checks[0].degree"),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "eta_bound", "level": 2}]},
     "checks[0].level"),
    ("mc", {"L": 3, "n_samples": 1000, "checks": [{"check": "radial", "level": 2, "car_n": 9,
                                                   "n_max": 3, "k": 77}]}, "checks[0].car_n"),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "drift"},
                                                 {"check": "fourier", "level": 2, "k": 4}]},
     "checks[1].k"),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "multiplier", "level": 3, "k": 6,
                                                  "n_max": 5}]}, "checks[0].n_max"),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "orthogonality", "level": 2,
                                                  "car_n": 2}]}, "checks[0].car_n"),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "bridge", "k": 4}]}, "checks[0].k"),
])
def test_unknown_key_is_refused_before_work(tmp_path, capsys, monkeypatch, command, doc, typo):
    def unreachable(*args, **kwargs):
        raise AssertionError("work ran before the config was checked")

    for name in WORK:
        monkeypatch.setattr(cli, name, unreachable)
    assert _run(tmp_path, command, doc) == 2
    assert typo in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,doc,message,work", [
    ("mc", {"L": 2, "n_samples": 100, "checks": [{"check": "radial", "degree": 1 << 20}]},
     "exceeds cap", "stream_estimates"),
    ("hankel", {"mode": "probe", "D": 1_000_000}, "budget", "bound_probe"),
    ("coeffs", {"kind": "haar_unitary", "n": 2, "dim": 100_000}, "budget", "haar_unitaries"),
    ("coeffs", {"kind": "basis_vector", "n": 100_000_000}, "basis_vectors needs", "row_bound"),
    ("hankel", {"mode": "probe", "system": {"kind": "haar_unitary", "n": 2, "dim": 100_000}},
     "haar_unitaries needs", "build_hankel"),
    ("certify", {"system": "haar_unitary", "n": 2, "dim": 257,
                 "search": {"restarts": 1, "max_degree": 2}}, "budget", "pb_probe"),
    ("fcn", {"n_grid": [2, 40]}, "fcn row needs 1 <= n <= 12", "fcn_experiment"),
    ("mc", {"L": 4, "n_samples": 100, "checks": [{"check": "eta_bound", "n_max": 55}]},
     "checks[0].n_max = 55 is above 54", "stream_estimates"),
    ("mc", {"L": 56, "n_samples": 100, "checks": [{"check": "fourier", "level": 55, "degree": 3}]},
     "L = 56 is above 54", "stream_estimates"),
    ("mc", {"L": 300_000, "n_samples": 10}, "L = 300000 is above 54", "stream_estimates"),
    ("hankel", {"mode": "probe", "L": 300_000}, "1 <= L <= 12, got 300000", "lacunary_default"),
    ("certify", {"system": "haar_unitary", "n": 300_000, "dim": 2}, "1 <= n <= 12, got 300000",
     "haar_bundle"),
    # an explicit D: above the flat budget, over the depth cap, below 2^n
    ("certify", {"n": 2, "D": 20_000, "search": {"max_degree": 4}}, "D must be in 1..8192",
     "build_T"),
    ("certify", {"system": "haar_unitary", "n": 2, "dim": 2, "D": 30_000},
     "D must be in 1..8192", "haar_bundle"),
    ("hankel", {"mode": "scan", "families": ["lacunary"], "D_list": [5, 30_000]},
     "D_list[1] must be in 1..8192", "bound_scan"),
    ("hankel", {"mode": "probe", "L": 300_000, "D": 5}, "1 <= L <= 12, got 300000",
     "lacunary_default"),
    ("certify", {"system": "haar_unitary", "n": 300_000, "dim": 2, "D": 4},
     "1 <= n <= 12, got 300000", "haar_bundle"),
    ("sweep", {"system": "haar_unitary", "n_grid": [2, 12], "dim": 2, "D": 4095},
     "2^12 above D = 4095", "haar_bundle"),
    # the ones family's 2D - 1 = 8193 basis vectors are above BASIS_MAX_N
    ("hankel", {"mode": "scan", "families": ["ones"], "D_list": [3, 4097]},
     "D_list[1] must be in 1..4096", "bound_scan"),
    # an mc level outside the range its check kind reads, a fourier level 1
    # while K_1 = 2, a multiplier frequency outside its level's dyadic block
    ("mc", {"L": 6, "n_samples": 1_000_000, "checks": [{"check": "fourier", "level": 2,
                                                         "degree": 7},
                                                        {"check": "radial", "level": 9}]},
     "checks[1].level = 9 is outside 0..6", "stream_estimates"),
    ("mc", {"L": 4, "n_samples": 100, "checks": [{"check": "fourier", "level": 0}]},
     "checks[0].level = 0 is outside 1..4", "stream_estimates"),
    ("mc", {"L": 4, "n_samples": 100, "checks": [{"check": "fourier", "level": 1}]},
     "checks[0].level = 1 needs K_1 = 1", "stream_estimates"),
    ("mc", {"L": 4, "n_samples": 100, "checks": [{"check": "multiplier", "level": 1, "k": 2}]},
     "checks[0].level = 1 is outside 2..4", "stream_estimates"),
    ("mc", {"L": 4, "n_samples": 100, "checks": [{"check": "orthogonality", "level": 5}]},
     "checks[0].level = 5 is outside 1..4", "stream_estimates"),
    ("mc", {"L": 4, "n_samples": 100, "checks": [{"check": "drift"},
                                                  {"check": "multiplier", "level": 3, "k": 9}]},
     "checks[1].k = 9 is outside the level-3 dyadic block", "stream_estimates"),
    ("mc", {"L": 4, "n_samples": 100, "checks": [{"check": "multiplier", "level": 3, "k": 4}]},
     "checks[0].k = 4 is outside the level-3 dyadic block", "stream_estimates"),
    # a bridge depth deeper than the paths or outside the CAR range, an
    # eta_bound n_max below the first level it reads
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "bridge", "car_n": 5}]},
     "checks[0].car_n = 5 is outside 1..3", "stream_estimates"),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "bridge", "car_n": 0}]},
     "checks[0].car_n = 0 is outside 1..3", "car_jordan_wigner"),
    ("mc", {"L": 20, "n_samples": 100, "checks": [{"check": "bridge", "car_n": 13}]},
     "checks[0].car_n = 13 is outside 1..12", "car_jordan_wigner"),
    ("mc", {"L": 4, "n_samples": 100, "checks": [{"check": "drift"},
                                                  {"check": "eta_bound", "n_max": 1}]},
     "checks[1].n_max must be an integer >= 2", "eta_modulus_sup"),
])
def test_size_above_its_cap_is_refused_before_work(tmp_path, capsys, monkeypatch, command, doc,
                                                   message, work):
    # a degree above DEGREE_CAP is refused before its coefficients are drawn,
    # a flat Hankel matrix above FLAT_ENTRY_BUDGET before bound_probe builds
    # its D x D Toeplitz matrix, elements over the tensor budget before the
    # system is built or probed, a Haar or basis-vector system above its cap
    # before its arrays are allocated, an fcn n, a probe depth L or a bundle
    # n whose default D = 2^n + 1 is above the flat budget before any row
    # runs or 2^n is formed, and an mc level whose radius 1 - 2^-n rounds to
    # the one before (r_n^2 - r_{n-1}^2 = 0 in the eta weights), or that its
    # check cannot read, and a bridge car_n or eta_bound n_max outside its
    # range, before any path is drawn or CAR system built
    def unreachable(*args, **kwargs):
        raise AssertionError("work ran before the size was checked")

    monkeypatch.setattr(cli, work, unreachable)
    t0 = time.perf_counter()
    assert _run(tmp_path, command, doc) == 2
    assert time.perf_counter() - t0 < 1.0
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,doc", [
    ("certify", {"n": 2, "search": {"max_degree": 1, "restarts": 1}}),
    ("hankel", {"mode": "scan", "families": ["lacunary"], "D_list": [1]}),
])
def test_no_degree_for_random_candidates_runs(tmp_path, command, doc):
    # max_degree 1 leaves no random degree in [2, max_degree]: the search
    # draws no random candidate instead of dividing by zero
    assert _run(tmp_path, command, doc) == 0


@pytest.mark.parametrize("command,doc", [
    ("hankel", {"mode": "probe", "L": 2, "f": [0.0] * 9 + [1.0]}),
    ("mc", {"L": 3, "n_samples": 100, "checks": [{"check": "bridge", "car_n": 2, "degree": 9}]}),
])
def test_degree_one_below_2d_runs(tmp_path, command, doc):
    # degree 2D - 1 is the largest the Hankel truncation sees in full
    assert _run(tmp_path, command, doc) in (0, 1)
    assert (_run_dirs(tmp_path)[0] / "payload.json").exists()


@pytest.mark.parametrize("error", [ValueError, KeyError, TypeError, np.linalg.LinAlgError,
                                   DomainError, DimensionError])
@pytest.mark.parametrize("command,doc", [
    ("coeffs", {"kind": "car", "n": 2}),
    ("hankel", {"mode": "probe", "L": 2}),
    ("hankel", {"mode": "scan", "D_list": [5]}),
    ("certify", {"n": 2}),
    ("fcn", {"n_grid": [2]}),
    ("mc", {"L": 2, "n_samples": 100}),
])
def test_internal_error_is_not_a_config_error(tmp_path, monkeypatch, error, command, doc):
    # a bug in the numerics propagates with its traceback, never as exit 2
    def bug(*args, **kwargs):
        raise error("internal")

    for name in WORK:
        monkeypatch.setattr(cli, name, bug)
    with pytest.raises(error):
        _run(tmp_path, command, doc)
    assert not (tmp_path / "out").exists()


def test_removed_flag_and_variable(tmp_path, monkeypatch):
    # --format is gone (the CSV side file is always written) and PBNC_THREADS
    # no longer overrides --threads
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, "coeffs", {"kind": "car", "n": 2}, extra=["--format", "csv"])
    assert exc.value.code == 2
    monkeypatch.setenv("PBNC_THREADS", "not a number")
    assert _run(tmp_path, "coeffs", {"kind": "car", "n": 2, "restarts": 2}) == 0


class TestCoeffs:
    def test_car_passes(self, tmp_path, capsys):
        code = _run(tmp_path, "coeffs", {"kind": "car", "n": 3, "restarts": 4})
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS car_relations" in out
        assert "PASS row_bound_unit" in out
        assert "FAIL" not in out
        payload = json.loads((_run_dirs(tmp_path)[0] / "payload.json").read_bytes())
        assert payload["results"]["row_bound_converged"] is True

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

    def test_broken_block_fails_symbol_roundtrip(self, tmp_path, capsys, monkeypatch):
        flat = BlockHankel.flat

        def one_wrong_block(self):
            g = flat(self)
            out_dim, in_dim = self.block_shape
            g[:out_dim, in_dim : 2 * in_dim] += 1.0  # block (0, 1) no longer equals (1, 0)
            return g

        monkeypatch.setattr(BlockHankel, "flat", one_wrong_block)
        code = _run(tmp_path, "hankel", {"mode": "probe", "L": 2, "D": 5})
        # the flag reads the materialized blocks: block (0, 1) is no longer
        # the symbol of 0 + 1, so the matrix is no longer block Hankel
        assert "FAIL symbol_roundtrip" in capsys.readouterr().out
        assert code == 1

    @pytest.mark.parametrize("doc,typo", [
        ({"mode": "probe", "L": 2, "d": 5}, "'d'"),
        ({"mode": "probe", "L": 3, "system": {"kind": "car", "N": 3}}, "'N'"),
        ({"mode": "scan", "famlies": ["ones"], "D_list": [5]}, "famlies"),
        ({"mode": "scan", "D_list": [5], "probe": {"n_randm": 2}}, "n_randm"),
        ({"mode": "scna", "D_list": [5]}, "scna"),
    ])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, doc, typo):
        assert _run(tmp_path, "hankel", doc) == 2
        assert typo in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("doc,key", [
        ({"mode": "scan", "D_list": []}, "D_list"),
        ({"mode": "scan", "D_list": [5], "families": []}, "families"),
        ({"mode": "scan", "D_list": [5], "families": "lacunary"}, "families"),
    ])
    def test_empty_or_scalar_grid_is_config_error(self, tmp_path, capsys, doc, key):
        assert _run(tmp_path, "hankel", doc) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestCertify:
    def test_car_default(self, tmp_path):
        code = _run(tmp_path, "certify",
                    {"system": "car", "n": 2, "search": {"restarts": 1}})
        assert code == 0
        payload = json.loads((_run_dirs(tmp_path)[0] / "payload.json").read_bytes())
        res = payload["results"]
        assert res["N_total"] == 2 * res["D"] * res["h_dim"]
        assert payload["pass"]["cb_at_least_half_sqrt_n"] is True

    def test_k2_only_on_haar_rows(self, tmp_path):
        # a Haar row reports the K2 its multiplier divides by and its flag
        for system in ("car", "haar_unitary"):
            doc = {"system": system, "n": 2, "seed": 1, "search": {"restarts": 1}}
            (tmp_path / system).mkdir()
            assert _run(tmp_path / system, "certify", doc) == 0
            (run_dir,) = _run_dirs(tmp_path / system)
            res = json.loads((run_dir / "payload.json").read_bytes())["results"]
            if system == "car":
                assert "K2" not in res and "K2_converged" not in res
            else:
                bundle, converged = haar_bundle(2, 2, 1, 1, D=None, eps=1.0)
                assert res["K2"] == bundle.hankel.system.row_bound >= 1.0
                assert res["K2_converged"] is converged

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

    @pytest.mark.parametrize("doc,typo", [
        ({"system": "car", "n": 2, "epsilon": 0.0}, "epsilon"),
        ({"system": "car", "n": 2, "search": {"restart": 1}}, "restart"),
    ])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, doc, typo):
        # "epsilon" would otherwise run eps = 1 and pass
        assert _run(tmp_path, "certify", doc) == 2
        assert typo in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("max_degree", [0, -3, "eight"])
    def test_bad_max_degree_is_config_error(self, tmp_path, capsys, max_degree):
        doc = {"system": "car", "n": 2, "search": {"restarts": 1, "max_degree": max_degree}}
        assert _run(tmp_path, "certify", doc) == 2
        assert "search.max_degree" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_string_max_degree_is_coerced(self, tmp_path):
        for max_degree in ("8", 8):
            doc = {"system": "car", "n": 2, "search": {"restarts": 1, "max_degree": max_degree}}
            assert _run(tmp_path, "certify", doc) == 0
        rows = [json.loads((d / "payload.json").read_bytes())["results"]
                for d in _run_dirs(tmp_path)]
        assert len(rows) == 2 and rows[0] == rows[1]
        assert rows[0]["probe_budget"]["max_degree"] == 8

    def test_integral_number_is_an_integer(self, tmp_path):
        # 8.0 and 4e0 are integral: read as 8 and 4, not refused
        doc = {"system": "car", "n": 2.0, "search": {"restarts": 4e0, "max_degree": 8.0}}
        assert _run(tmp_path, "certify", doc) == 0
        (run_dir,) = _run_dirs(tmp_path)
        row = json.loads((run_dir / "payload.json").read_bytes())["results"]
        assert row["n"] == 2 and row["probe_budget"] == {"restarts": 4, "max_degree": 8, "seed": 7}


class TestSweep:
    def test_growth_flags(self, tmp_path, capsys):
        doc = {"system": "car", "n_grid": [2, 3], "search": {"restarts": 1}}
        code = _run(tmp_path, "sweep", doc)
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS similarity_growth" in out
        run_dir = _run_dirs(tmp_path)[0]
        lines = (run_dir / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "n,similarity_lower,pb_probe,cb_over_pb"
        assert len(lines) == 3

    @pytest.mark.parametrize("doc,typo", [
        ({"n_gird": [2, 3], "search": {"restarts": 1}}, "n_gird"),
        ({"n_grid": [2], "search": {"restarts": 1, "sead": 3}}, "sead"),
        ({"n": 2, "search": {"restarts": 1}}, "'n'"),  # sweep reads n_grid only
    ])
    def test_unknown_key_is_config_error(self, tmp_path, capsys, doc, typo):
        assert _run(tmp_path, "sweep", doc) == 2
        assert typo in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("n_grid", [[], 3])
    def test_empty_grid_is_config_error(self, tmp_path, capsys, n_grid):
        assert _run(tmp_path, "sweep", {"n_grid": n_grid}) == 2
        assert "n_grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestMc:
    DOC = {"L": 3, "n_samples": 4000, "seed": 12,
           "checks": [{"check": "drift"}, {"check": "eta_bound"},
                      {"check": "radial", "level": 2, "degree": 4},
                      {"check": "fourier", "level": 2, "degree": 6}]}

    def test_battery_passes(self, tmp_path):
        code = _run(tmp_path, "mc", self.DOC)
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

    @staticmethod
    def _full_batch_row(paths, chk, i, seed):
        """Check i reduced once over the full batch, on the same draws."""
        L = paths.L
        rng = cli._seeded_rng(seed, 0xC8EC, i)
        f = random_poly(int(chk.get("degree", 6)), rng)
        kind, level = chk["check"], int(chk.get("level", 0))
        if kind == "radial":
            return _est(radial_samples(paths, f, level))
        if kind == "fourier":
            return _est(fourier_samples(paths, f, lacunary_default(L), level))
        if kind == "multiplier":
            return _est(multiplier_samples(paths, f, level, int(chk["k"])))
        if kind == "orthogonality":
            g2 = random_poly(int(chk["degree"]), rng)
            return _est(orthogonality_samples(paths, f, g2, level))
        assert kind == "bridge"
        car_n = int(chk["car_n"])
        bspec = LacunarySpec((1,) + tuple(2**t for t in range(2, car_n + 1)))
        system = car_jordan_wigner(car_n)
        g = build_hankel(MultiplierSeq.indicator(bspec), bspec, system, D=max(bspec.K) + 1)
        h = system.op_dim[0]
        x = rng.standard_normal(h) + 1j * rng.standard_normal(h)
        y = rng.standard_normal(h) + 1j * rng.standard_normal(h)
        form = BridgeForm(g, f, x, y, bspec)
        return form.combine([_est(sample(paths)) for sample in form.samplers()])

    @pytest.mark.parametrize("n_samples", [SIM_BLOCK, SIM_BLOCK + 1, 3 * SIM_BLOCK + 5])
    def test_streamed_rows_equal_full_batch_estimators(self, n_samples):
        # the stream never holds the whole batch, yet every row is the
        # full-batch estimate to the last bit, a one-row last block included
        L, seed = 6, 4
        results, flags, _ = cli.cmd_mc({"L": L, "n_samples": n_samples, "seed": seed},
                                       cli.load_thresholds()[0], 1)
        assert all(flags.values())
        paths = simulate_paths(MartingaleConfig(L=L, n_samples=n_samples, seed=seed))
        assert results["renorm_count"] == paths.renorm_count
        for i, (chk, row) in enumerate(zip(cli._default_mc_checks(L), results["checks"])):
            if chk["check"] == "drift":
                assert row["estimate_re"] == paths.radial_drift
            elif chk["check"] != "eta_bound":
                est = self._full_batch_row(paths, chk, i, seed)
                assert complex(row["estimate_re"], row["estimate_im"]) == est.mean
                assert row["stderr"] == est.stderr

    def test_peak_memory_does_not_grow_with_samples(self):
        # numpy reports its allocations to tracemalloc; the stream holds one
        # SIM_BLOCK-row block, so 4x the samples may not cost 4x the memory
        thresholds = cli.load_thresholds()[0]

        def peak(n_samples):
            tracemalloc.start()
            try:
                cli.cmd_mc({"L": 6, "n_samples": n_samples, "seed": 2}, thresholds, 1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2 * SIM_BLOCK), peak(8 * SIM_BLOCK)
        assert large <= 1.25 * small


class TestFcn:
    def test_small_grid(self, tmp_path):
        code = _run(tmp_path, "fcn", {"n_grid": [2], "c": 2.0, "seed": 42})
        assert code == 0
        run_dir = _run_dirs(tmp_path)[0]
        payload = json.loads((run_dir / "payload.json").read_bytes())
        assert payload["pass"]["scaled_positive"] is True
        assert "scaled_band" not in payload["pass"]  # grid differs from frozen config
        lines = (run_dir / "fcn.csv").read_text().strip().splitlines()
        assert lines[0] == "n,c,cb_over_pb,scaled"

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        # "C" would otherwise run the frozen c = 2 and pass
        assert _run(tmp_path, "fcn", {"n_grid": [2], "C": 3.0}) == 2
        assert "'C'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    def test_empty_grid_is_config_error(self, tmp_path, capsys):
        assert _run(tmp_path, "fcn", {"n_grid": []}) == 2
        assert "n_grid" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    @pytest.mark.parametrize("raw", [b'{"kind": "car\xff", "n": 2}', b'{"n": 2}\xff',
                                     b'{"n\xff": 2}'])
    def test_non_utf8_config(self, tmp_path, raw):
        p = tmp_path / "latin.json"
        p.write_bytes(raw)
        assert cli.run(["coeffs", "--config", str(p), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

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
