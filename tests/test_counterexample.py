import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbnc import counterexample, errors
from pbnc.coeff_systems import basis_vectors, car_jordan_wigner, haar_unitaries
from pbnc.counterexample import (
    OperatorBundle,
    PbSearch,
    TruncatedSpace,
    _poly_t_applies,
    _poly_t_norm,
    build_T,
    cb_certificate,
    eps_for_target_c,
    fcn_experiment,
    haar_bundle,
    haar_bundle_for_target,
    pb_probe,
    poly_of_T,
    row_bound_check,
    von_neumann_excess,
    with_eps,
)
from pbnc.hankel import LacunarySpec, MultiplierSeq, fejer_poly, lacunary_default, random_poly
from pbnc.numkit import Polynomial, op_norm, poly_of_matrix, sup_norm


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))


def _car_bundle(n=2, eps=1.0, D=None):
    spec = lacunary_default(n)
    return build_T(car_jordan_wigner(n), spec, MultiplierSeq.indicator(spec), D=D, eps=eps)


class TestBuildT:
    def test_default_truncation(self):
        b = _car_bundle(n=3)
        assert b.space.D == 9 and b.space.h_dim == 8
        assert b.total_dim == 2 * 9 * 8

    def test_block_layout(self):
        b = _car_bundle(n=2, eps=0.5)
        t = b.T
        half = b.space.total_dim
        s = b.S
        assert np.array_equal(t[:half, :half], s.T)
        assert np.array_equal(t[half:, half:], s)
        assert np.allclose(t[:half, half:], 0.5 * b.G_flat, atol=1e-15)
        assert not t[half:, :half].any()

    def test_nilpotent(self):
        b = _car_bundle(n=2)
        t = np.linalg.matrix_power(b.T, 2 * b.space.D)
        assert np.abs(t).max() <= 1e-12

    def test_validation(self):
        spec = lacunary_default(2)
        sys2 = car_jordan_wigner(2)
        with pytest.raises(errors.DomainError):
            build_T(sys2, spec, MultiplierSeq.indicator(spec), eps=-0.1)
        with pytest.raises(errors.ConfigurationError):
            build_T(car_jordan_wigner(3), spec, MultiplierSeq.indicator(spec))
        with pytest.raises(errors.ConfigurationError):
            build_T(basis_vectors(2), spec, MultiplierSeq.indicator(spec))

    def test_frequency_window_enforced(self):
        # frequency 8 sticks out of a D = 7 truncation's exactness window
        spec = lacunary_default(3)
        with pytest.raises(errors.ConfigurationError):
            build_T(car_jordan_wigner(3), spec, MultiplierSeq.indicator(spec), D=7)
        build_T(car_jordan_wigner(3), spec, MultiplierSeq.indicator(spec), D=8)

    def test_with_eps(self):
        b = _car_bundle(n=2, eps=1.0)
        b2 = with_eps(b, 0.25)
        assert b2.eps == 0.25 and b2.space.D == b.space.D
        assert b2.hankel is b.hankel and b.eps == 1.0  # shared, not rebuilt
        with pytest.raises(errors.DomainError):
            with_eps(b, -1.0)

    def test_space_validation(self):
        with pytest.raises(errors.ConfigurationError):
            TruncatedSpace(0, 4)


class TestPolyOfT:
    def test_matches_horner(self):
        rng = _rng(21)
        b = _car_bundle(n=2, eps=1.0)
        t = b.T
        for _ in range(8):
            p = random_poly(int(rng.integers(1, 9)), rng)
            direct = poly_of_matrix(p, t)
            blockwise = poly_of_T(b, p)
            assert np.abs(direct - blockwise).max() <= 1e-12

    def test_matches_horner_high_degree(self):
        rng = _rng(22)
        b = _car_bundle(n=2)
        p = random_poly(2 * b.space.D - 2, rng)
        assert np.abs(poly_of_matrix(p, b.T) - poly_of_T(b, p)).max() <= 1e-10

    def test_structured_matvec_agrees(self):
        rng = _rng(23)
        b = _car_bundle(n=2, eps=0.7)
        p = random_poly(6, rng)
        dense = poly_of_T(b, p)
        apply, apply_adjoint = _poly_t_applies(b, p)
        for _ in range(4):
            x = rng.standard_normal(b.total_dim) + 1j * rng.standard_normal(b.total_dim)
            assert np.allclose(apply(x), dense @ x, atol=1e-12)
            assert np.allclose(apply_adjoint(x), dense.conj().T @ x, atol=1e-12)

    def test_power_norm_cap_is_loud(self, monkeypatch):
        b = _car_bundle(n=2, eps=0.7)
        p = random_poly(6, _rng(24))
        # every bundle takes the structured route; cap it at 2 steps
        monkeypatch.setattr(counterexample, "PROBE_STEP_CAP", 2)
        with pytest.raises(errors.NonConvergenceError) as exc:
            _poly_t_norm(b, p, _rng(25))
        assert exc.value.iterations == 2
        # a Rayleigh estimate: positive and never above the exact norm
        assert 0.0 < exc.value.last_estimate <= float(op_norm(poly_of_T(b, p))) * (1 + 1e-12)

    def test_structured_norm_matches_dense(self):
        b = _car_bundle(n=3, eps=0.7)
        rng = _rng(26)
        for p in (random_poly(5, rng), fejer_poly(8), Polynomial.monomial(3)):
            assert _poly_t_norm(b, p, rng) == pytest.approx(
                float(op_norm(poly_of_T(b, p))), rel=1e-10)

    def test_car5_clustered_norm_matches_dense(self):
        # N = 2112; the top singular values of P(T) agree to 1.7e-6 relative,
        # where the power iteration stalled
        b = _car_bundle(n=5)
        p = fejer_poly(2)
        sigma, u, v = _poly_t_norm(b, p, _rng(27), want_vectors=True)
        assert sigma == pytest.approx(float(op_norm(poly_of_T(b, p))), rel=1e-10)
        apply, _ = _poly_t_applies(b, p)
        assert np.allclose(apply(v), sigma * u, rtol=0, atol=1e-8)

    def test_identity_poly(self):
        b = _car_bundle(n=2)
        assert np.allclose(poly_of_T(b, Polynomial([1.0])), np.eye(b.total_dim), atol=1e-15)


class TestPbProbe:
    def test_at_least_one(self):
        b = _car_bundle(n=2, eps=0.0)
        assert pb_probe(b, PbSearch(restarts=1, seed=0)) >= 1.0

    def test_contraction_regime(self):
        b = _car_bundle(n=2, eps=0.0)
        assert von_neumann_excess(b, 20, seed=5) <= 1e-6

    def test_norm_monotone_in_eps(self):
        rng = _rng(31)
        b0 = _car_bundle(n=2, eps=0.0)
        polys = [random_poly(6, rng) for _ in range(4)]
        for p in polys:
            norms = [float(op_norm(poly_of_T(with_eps(b0, e), p)))
                     for e in (0.0, 0.5, 1.0, 2.0)]
            assert all(b >= a - 1e-11 for a, b in zip(norms, norms[1:]))

    def test_max_degree_cap(self):
        b = _car_bundle(n=2)
        with pytest.raises(errors.ConfigurationError):
            pb_probe(b, PbSearch(max_degree=2 * b.space.D - 1))

    def test_deterministic(self):
        b = _car_bundle(n=2)
        s = PbSearch(restarts=2, seed=9)
        assert pb_probe(b, s) == pb_probe(b, s)


class TestCbCertificate:
    # hand-frozen: eps * n^{-1/2} * ||sum conj(C_k) (x) C_k|| for the
    # anticommuting family, normalizer exactly 1
    CAR_CB = {2: 1.0, 3: 2.0 / np.sqrt(3.0), 4: np.sqrt(6.0) / 2.0}

    def test_car_values(self):
        for n, ref in self.CAR_CB.items():
            assert cb_certificate(_car_bundle(n=n)) == pytest.approx(ref, abs=1e-9)

    def test_linear_in_eps(self):
        b = _car_bundle(n=2, eps=0.3)
        assert cb_certificate(b) == pytest.approx(0.3 * self.CAR_CB[2], abs=1e-12)
        assert cb_certificate(with_eps(b, 0.0)) == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(bundle=st.sampled_from([("car", 2), ("car", 3), ("haar", 2), ("haar", 3)]),
           e=st.floats(1e-6, 1e6))
    def test_linear_in_eps_property(self, bundle, e):
        kind, n = bundle
        if kind == "car":
            b = _car_bundle(n=n)
        else:
            b = haar_bundle(n, n, system_seed=5, row_bound_seed=6, D=None, eps=1.0)[0]
        unit = cb_certificate(with_eps(b, 1.0))
        assert cb_certificate(with_eps(b, e)) == pytest.approx(e * unit, rel=1e-14, abs=0)

    def test_dominates_trace_witness_rate(self):
        for n in (2, 3, 4):
            assert cb_certificate(_car_bundle(n=n)) >= np.sqrt(n) / 2.0 - 1e-8


class TestTargetScaling:
    def test_eps_formula(self):
        assert eps_for_target_c(2.0, 0.5) == pytest.approx(2.0)
        with pytest.raises(errors.DomainError):
            eps_for_target_c(1.0, 0.5)
        with pytest.raises(errors.DomainError):
            eps_for_target_c(2.0, 0.0)

    def test_haar_bundle_wiring(self):
        bundle, info = haar_bundle_for_target(2, 2.0, seed=42)
        assert bundle.system.kind == "haar_unitary"
        assert bundle.system.seed == info["system_seed"]
        assert bundle.space.D == 5
        assert info["eps"] == pytest.approx((2.0 - 1.0) / info["C_probe"], rel=1e-12)
        assert info["K2"] >= 1.0
        m_val = bundle.multiplier(2)
        assert abs(m_val - 1.0 / info["K2"]) <= 1e-12

    def test_fcn_row(self):
        row = fcn_experiment(2, 2.0, seed=42)
        keys = {"n", "c", "cb_over_pb", "scaled", "similarity_lower", "pb_probe",
                "N", "seed", "K2", "C_probe", "eps", "system_seed"}
        assert keys <= set(row)
        assert row["scaled"] > 0
        assert row["cb_over_pb"] == pytest.approx(
            row["similarity_lower"] / row["pb_probe"], rel=1e-12
        )
        assert row["scaled"] == pytest.approx(row["cb_over_pb"] / np.sqrt(2.0), rel=1e-12)

    def test_fcn_deterministic(self):
        a = fcn_experiment(2, 2.0, seed=42)
        b = fcn_experiment(2, 2.0, seed=42)
        assert a == b


class TestRowBoundCheck:
    def test_identity_grid_is_boundary_case(self):
        eye = np.eye(3, dtype=np.complex128)
        grid = [[eye for _ in range(4)] for _ in range(4)]
        assert row_bound_check(grid)

    def test_random_grids(self):
        rng = _rng(50)
        base = [[rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
                 for _ in range(3)] for _ in range(3)]
        assert row_bound_check(base, trials=10, seed=1)

    def test_non_square_grid_rejected(self):
        eye = np.eye(2, dtype=np.complex128)
        with pytest.raises(errors.DimensionError):
            row_bound_check([[eye, eye]])
