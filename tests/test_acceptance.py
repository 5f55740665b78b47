"""Acceptance suite: one test per criterion, one pass/fail line each under
pytest -v.  Frozen reference numbers come from src/pbnc/thresholds.json
(regenerated only by tools/freeze_thresholds.py); everything else is computed
live at the stated tolerances."""

import json
import time
from functools import partial

import numpy as np
import pytest

from pbnc import cli
from pbnc.coeff_systems import (
    car_jordan_wigner,
    car_relation_residual,
    haar_unitaries,
    row_bound,
    tensor_conj_norm,
    trace_witness,
)
from pbnc.counterexample import (
    PbSearch,
    build_T,
    cb_certificate,
    fcn_experiment,
    pb_probe,
)
from pbnc.hankel import (
    LacunarySpec,
    MultiplierSeq,
    ProbeConfig,
    bound_probe,
    bound_scan,
    build_hankel,
    lacunary_basis_family,
    lacunary_default,
    ones_basis_family,
    symbol_block,
)
from pbnc.martingale import (
    BridgeForm,
    MartingaleConfig,
    eta_modulus_sup,
    fourier_samples,
    orthogonality_samples,
    radial_samples,
    stream_estimates,
)
from pbnc.numkit import Polynomial
from reference import op_norm, row_bound_check


@pytest.fixture(scope="module")
def thresholds():
    return cli.load_thresholds()[0]


MC_CONFIG = MartingaleConfig(L=6, n_samples=100_000, seed=0)


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))


def _car_bundle(n, eps=1.0):
    spec = lacunary_default(n)
    return build_T(car_jordan_wigner(n), spec, MultiplierSeq.indicator(spec), eps=eps)


def test_criterion_01_car_relations_exact_to_1e12_within_5s():
    t0 = time.perf_counter()
    residuals = {n: car_relation_residual(car_jordan_wigner(n)) for n in range(1, 7)}
    elapsed = time.perf_counter() - t0
    print(f"criterion 1: residuals {residuals} in {elapsed:.2f}s")
    assert all(r <= 1e-12 for r in residuals.values())
    assert elapsed < 5.0


def test_criterion_02_car_row_bound_is_unit():
    values = {n: row_bound(car_jordan_wigner(n), restarts=8, seed=0).value
              for n in range(2, 7)}
    print(f"criterion 2: row bounds {values}")
    assert all(abs(v - 1.0) <= 1e-6 for v in values.values())


def test_criterion_03_tensor_certificates_within_60s():
    t0 = time.perf_counter()
    for n in range(2, 7):
        sys_ = car_jordan_wigner(n)
        tw = trace_witness(sys_)
        assert abs(tw - n / 2.0) <= 1e-9
        assert tensor_conj_norm(sys_) >= n / 2.0 - 1e-9
    haar = haar_unitaries(4, 4, seed=0)
    tn = tensor_conj_norm(haar)
    elapsed = time.perf_counter() - t0
    print(f"criterion 3: haar(4,4) tensor {tn:.12f} in {elapsed:.1f}s")
    assert abs(tn - 4.0) <= 1e-8
    assert elapsed < 60.0


def test_criterion_04_hankel_structure_and_identity_probe():
    spec3 = lacunary_default(3)
    cases = [
        build_hankel(MultiplierSeq.indicator(spec3), spec3, car_jordan_wigner(3), 9),
        lacunary_basis_family(17),
        ones_basis_family(9),
    ]
    for g in cases:
        out_dim, in_dim = g.block_shape
        blocks = g.flat().reshape(g.D, out_dim, g.D, in_dim)
        for i in range(g.D):
            for j in range(g.D):
                assert np.array_equal(blocks[i, :, j, :], blocks[j, :, i, :])
                assert np.array_equal(blocks[i, :, j, :], symbol_block(g, i + j + 1))
        probe = bound_probe(g, Polynomial.monomial(1))
        ref = op_norm(g.flat()).value
        print(f"criterion 4: D={g.D} norm_gtf={probe.norm_gtf:.12f} ||G||={ref:.12f}")
        assert abs(probe.norm_gtf - ref) <= 1e-10


def test_criterion_05_scan_plateau_vs_growth(thresholds):
    frozen = thresholds["scan"]
    cfg = ProbeConfig(**frozen["probe"])
    rel = frozen["rel_tol"]
    for family in ("lacunary", "ones"):
        rows = bound_scan(family, list(frozen["d_grid"]), cfg, seed=frozen["seed"])
        vals = [r.best_ratio for r in rows]
        print(f"criterion 5: {family} {[f'{v:.9f}' for v in vals]}")
        for v, ref in zip(vals, frozen[family]):
            assert abs(v - ref) <= rel * max(abs(ref), 1.0)
        if family == "ones":
            assert all(b > a for a, b in zip(vals, vals[1:]))
        else:
            assert max(vals) <= frozen["plateau_cap"]


def test_criterion_06_car_separation_chain_within_10min(thresholds):
    frozen = thresholds["pb_car"]
    t0 = time.perf_counter()
    ratios = {}
    for n in (2, 3, 4):
        b = _car_bundle(n, eps=frozen["eps"])
        sim = cb_certificate(b)
        pb = pb_probe(b, PbSearch(restarts=frozen["search_restarts"], seed=frozen["seed"]))
        ref = frozen["values"][str(n)]
        print(f"criterion 6: n={n} sim={sim:.9f} pb={pb:.9f} ref={ref:.9f}")
        assert sim >= np.sqrt(n) / 2.0 - 1e-8
        assert frozen["band_lo"] * ref <= pb <= frozen["band_hi"] * ref
        ratios[n] = sim / pb
    elapsed = time.perf_counter() - t0
    print(f"criterion 6: ratios {ratios} in {elapsed:.1f}s")
    assert ratios[4] > ratios[2]
    assert elapsed < 600.0


def test_criterion_07_contraction_obeys_polynomial_bound():
    # von Neumann: a contraction has ||P(T)|| <= sup|P|, so the probe's best
    # certified ratio over its monomials, Fejer means, random polynomials and
    # ascent stays at 1
    b = _car_bundle(3, eps=0.0)
    pb = pb_probe(b)
    print(f"criterion 7: pb_probe {pb!r} at eps = 0")
    assert pb <= 1.0 + 1e-6


def test_criterion_08_scaled_certificate_band(thresholds):
    frozen = thresholds["fcn"]
    c = frozen["c"]
    for n in frozen["n_grid"]:
        row = fcn_experiment(int(n), c, seed=frozen["seed"])
        log_scaled = row["similarity_lower"] / ((c - 1.0) * np.sqrt(np.log(row["N"] + 1.0)))
        print(f"criterion 8: n={n} scaled={row['scaled']:.6f} log_scaled={log_scaled:.6f}")
        assert row["scaled"] > 0
        assert frozen["scaled_lo"] <= row["scaled"] <= frozen["scaled_hi"]
        assert frozen["log_scaled_lo"] <= log_scaled <= frozen["log_scaled_hi"]


def test_criterion_09_martingale_battery_within_2min(thresholds):
    t0 = time.perf_counter()
    spec = lacunary_default(6)
    rng = _rng(90)
    samplers, targets = [], []
    for i in range(10):
        n = 2 + (i % 5)
        f = Polynomial(rng.standard_normal(70) + 1j * rng.standard_normal(70))
        samplers.append(partial(fourier_samples, f=f, spec=spec, n=n))
        targets.append(f.coeffs[spec.K[n - 1]])

    for k in (2, 4, 6):
        f = Polynomial(rng.standard_normal(8) + 1j * rng.standard_normal(8))
        samplers.append(partial(radial_samples, f=f, k=k))
        targets.append(0.0)

    for n in (2, 5):
        f = Polynomial(rng.standard_normal(6) + 1j * rng.standard_normal(6))
        g = Polynomial(rng.standard_normal(7) + 1j * rng.standard_normal(7))
        samplers.append(partial(orthogonality_samples, f=f, g=g, n=n))
        targets.append(0.0)

    estimates, drift, _ = stream_estimates(MC_CONFIG, samplers)
    assert drift <= 1e-12
    for est, target in zip(estimates, targets, strict=True):
        assert abs(est.mean - target) <= 4.0 * est.stderr

    sup = eta_modulus_sup(20)
    assert sup <= thresholds["eta"]["sup_n20"]
    elapsed = time.perf_counter() - t0
    print(f"criterion 9: eta sup {sup:.12f}, battery in {elapsed:.1f}s")
    assert elapsed < 120.0


def test_criterion_10_hankel_bridge_five_polynomials():
    spec = LacunarySpec((1, 4, 8))
    system = car_jordan_wigner(3)
    g = build_hankel(MultiplierSeq.indicator(spec), spec, system, D=9)
    rng = _rng(100)
    forms = []
    for _ in range(5):
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        p = Polynomial(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        forms.append(BridgeForm(g, p, x, y, spec))
    estimates, _, _ = stream_estimates(MC_CONFIG, [s for form in forms for s in form.samplers()])
    for i, form in enumerate(forms):
        mc = form.combine(estimates[i * spec.L : (i + 1) * spec.L])
        gap = abs(mc.mean - form.exact)
        print(f"criterion 10: poly {i} gap {gap:.3e} vs 4*stderr {4 * mc.stderr:.3e}")
        assert gap <= 4.0 * mc.stderr


def test_criterion_11_row_bound_inequality_100_grids():
    rng = _rng(110)
    base = [[rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
             for _ in range(3)] for _ in range(3)]
    ok = row_bound_check(base, trials=99, seed=7)
    print(f"criterion 11: 100 random 3x3 grids of 4x4 blocks -> {ok}")
    assert ok


def test_criterion_12_payloads_byte_identical_per_seed(tmp_path):
    configs = [
        ("coeffs", {"kind": "car", "n": 2, "restarts": 2}),
        ("mc", {"L": 3, "n_samples": 2000, "seed": 5,
                "checks": [{"check": "drift"},
                           {"check": "radial", "level": 2, "degree": 4}]}),
    ]
    for command, doc in configs:
        payloads = []
        for rep in range(2):
            out = tmp_path / f"{command}-{rep}"
            cfg = tmp_path / f"{command}-{rep}.json"
            cfg.write_text(json.dumps(doc))
            code = cli.run([command, "--config", str(cfg), "--out", str(out)])
            assert code == 0
            run_dir = next(out.iterdir())
            payloads.append((run_dir / "payload.json").read_bytes())
        print(f"criterion 12: {command} payload {len(payloads[0])} bytes, identical: "
              f"{payloads[0] == payloads[1]}")
        assert payloads[0] == payloads[1]
