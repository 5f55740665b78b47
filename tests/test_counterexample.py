import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbnc import coeff_systems, counterexample, errors, hankel, numkit
from pbnc.coeff_systems import (
    CoefficientSystem,
    basis_vectors,
    car_jordan_wigner,
    haar_unitaries,
    row_bound,
    tensor_conj_norm,
)
from pbnc.counterexample import (
    OperatorBundle,
    PbSearch,
    _pb_map,
    _poly_t_applies,
    _power_pairings,
    build_T,
    cb_certificate,
    fcn_experiment,
    haar_bundle,
    haar_bundle_for_target,
    pb_probe,
)
from pbnc.hankel import (
    LacunarySpec,
    MultiplierSeq,
    check_default_depth,
    fejer_poly,
    lacunary_default,
    monomial_grid,
    probe_search,
    random_poly,
)
from pbnc.numkit import Polynomial, sup_norm, top_singular
from reference import dense_T, op_norm, poly_of_matrix, poly_of_T, row_bound_check


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))


def _car_bundle(n=2, eps=1.0, D=None):
    spec = lacunary_default(n)
    return build_T(car_jordan_wigner(n), spec, MultiplierSeq.indicator(spec), D=D, eps=eps)


@functools.lru_cache(maxsize=None)
def _small_bundle(kind, n):
    if kind == "car":
        return _car_bundle(n=n)
    return haar_bundle(n, n, system_seed=5, row_bound_seed=6, D=None, eps=1.0)[0]


SMALL_BUNDLES = [("car", 2), ("car", 3), ("haar", 2), ("haar", 3)]


def _pt_solve(b, rng):
    """The probe solve of P -> P(T), as pb_probe runs it."""
    return _pb_map(b, rng, 2 * b.hankel.D - 2)[0]


def _rel_err(got, want):
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1.0))


class TestBuildT:
    def test_default_truncation(self):
        b = _car_bundle(n=3)
        assert b.hankel.D == 9 and b.hankel.block_shape == (8, 8)
        assert b.total_dim == 2 * 9 * 8

    def test_block_layout(self):
        b = _car_bundle(n=2, eps=0.5)
        t = dense_T(b)
        half = b.total_dim // 2
        s = np.kron(np.eye(b.hankel.D, k=-1), np.eye(b.hankel.block_shape[1]))  # shift (x) I
        assert np.array_equal(t[:half, :half], s.T)
        assert np.array_equal(t[half:, half:], s)
        assert np.allclose(t[:half, half:], 0.5 * b.hankel.flat(), atol=1e-15)
        assert not t[half:, :half].any()

    def test_nilpotent(self):
        b = _car_bundle(n=2)
        t = np.linalg.matrix_power(dense_T(b), 2 * b.hankel.D)
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
        # frequency 8 sticks out of a D = 7 truncation's exactness window, and
        # out of D = 4, where no block sees it but cb_certificate would weight it
        spec = lacunary_default(3)
        for d in (7, 4):
            with pytest.raises(errors.ConfigurationError, match=r"\[8\] beyond D"):
                build_T(car_jordan_wigner(3), spec, MultiplierSeq.indicator(spec), D=d)
        build_T(car_jordan_wigner(3), spec, MultiplierSeq.indicator(spec), D=8)

    def test_bundle_holds_no_copy(self):
        # D, the system, the multiplier and the frequency map are read off
        # the one BlockHankel, so replace() cannot make two copies disagree
        assert [f.name for f in dataclasses.fields(OperatorBundle)] == ["hankel", "eps"]

    def test_with_eps(self):
        b = _car_bundle(n=2, eps=1.0)
        b2 = dataclasses.replace(b, eps=0.25)
        assert b2.eps == 0.25 and b2.hankel.D == b.hankel.D
        assert b2.hankel is b.hankel and b.eps == 1.0  # shared, not rebuilt
        # OperatorBundle states the eps rule, so both routes to a bundle refuse
        with pytest.raises(errors.DomainError, match="eps must be >= 0"):
            dataclasses.replace(b, eps=-1.0)
        with pytest.raises(errors.DomainError, match="eps must be >= 0"):
            _car_bundle(n=2, eps=-1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            b.eps = -1.0  # frozen: no bundle skips the check


class TestPolyOfT:
    def test_matches_horner(self):
        rng = _rng(21)
        b = _car_bundle(n=2, eps=1.0)
        t = dense_T(b)
        for _ in range(8):
            p = random_poly(int(rng.integers(1, 9)), rng)
            direct = poly_of_matrix(p, t)
            blockwise = poly_of_T(b, p)
            assert np.abs(direct - blockwise).max() <= 1e-12

    def test_matches_horner_high_degree(self):
        rng = _rng(22)
        b = _car_bundle(n=2)
        p = random_poly(2 * b.hankel.D - 2, rng)
        assert np.abs(poly_of_matrix(p, dense_T(b)) - poly_of_T(b, p)).max() <= 1e-10

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
        monkeypatch.setattr(hankel, "PROBE_STEP_CAP", 2)
        with pytest.raises(errors.NonConvergenceError) as exc:
            _pt_solve(b, _rng(25))(p)
        assert exc.value.iterations == 2
        # a Rayleigh estimate: positive and never above the exact norm
        assert 0.0 < exc.value.last_estimate <= float(op_norm(poly_of_T(b, p))) * (1 + 1e-12)

    def test_structured_norm_matches_dense(self):
        b = _car_bundle(n=3, eps=0.7)
        rng = _rng(26)
        for p in (random_poly(5, rng), fejer_poly(8), Polynomial.monomial(3)):
            assert _pt_solve(b, rng)(p)[0] == pytest.approx(
                float(op_norm(poly_of_T(b, p))), rel=1e-10)

    def test_car5_clustered_norm_matches_dense(self):
        # N = 2112; the top singular values of P(T) agree to 1.7e-6 relative,
        # where the power iteration stalled
        b = _car_bundle(n=5)
        p = fejer_poly(2)
        sigma, u, v = _pt_solve(b, _rng(27))(p)
        assert sigma == pytest.approx(float(op_norm(poly_of_T(b, p))), rel=1e-10)
        apply, _ = _poly_t_applies(b, p)
        assert np.allclose(apply(v), sigma * u, rtol=0, atol=1e-8)
        assert self._explicit_residual(b, p, sigma, v) <= 2e-10 * sigma

    @staticmethod
    def _explicit_residual(b, p, sigma, v):
        """||A^H (A v / sigma) - sigma v|| for A = P(T), recomputed from the
        matvecs rather than taken from the solver's estimate."""
        apply, apply_adjoint = _poly_t_applies(b, p)
        return float(np.linalg.norm(apply_adjoint(apply(v) / sigma) - sigma * v))

    def test_haar7_fejer_residual_is_honest(self):
        # N = 1806, the fcn experiment's n = 7 size: with the one-sided
        # reorthogonalization the recomputed residual still matches the
        # solver's estimate and passes its test
        b = _small_bundle("haar", 7)
        p = fejer_poly(2)
        apply, apply_adjoint = _poly_t_applies(b, p)
        est, _, v = top_singular(apply, apply_adjoint, b.total_dim, _rng(28), 1e-10,
                              hankel.PROBE_STEP_CAP)
        assert est.converged
        explicit = self._explicit_residual(b, p, est.value, v)
        assert explicit <= 2e-10 * est.value
        assert explicit == pytest.approx(est.residual, rel=1e-3)

    def test_identity_poly(self):
        b = _car_bundle(n=2)
        assert np.allclose(poly_of_T(b, Polynomial([1.0])), np.eye(b.total_dim), atol=1e-15)

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(bundle=st.sampled_from(SMALL_BUNDLES), eps=st.floats(0.0, 4.0),
           deg=st.integers(0, 17), seed=st.integers(0, 2**32 - 1))
    def test_block_formula_matches_horner_property(self, bundle, eps, deg, seed):
        b = dataclasses.replace(_small_bundle(*bundle), eps=eps)
        p = random_poly(min(deg, 2 * b.hankel.D - 1), _rng(seed))
        assert _rel_err(poly_of_T(b, p), poly_of_matrix(p, dense_T(b))) <= 1e-12

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(bundle=st.sampled_from(SMALL_BUNDLES), eps=st.floats(0.0, 4.0),
           deg=st.integers(0, 17), k=st.integers(0, 2**16), seed=st.integers(0, 2**32 - 1))
    def test_structured_matvecs_match_dense_property(self, bundle, eps, deg, k, seed):
        # the dense Toeplitz route, then the shift route of monomials c z^k:
        # z^0 (no corner), z^D (S^k = 0) and a drawn k in [0, 2D - 2]
        b = dataclasses.replace(_small_bundle(*bundle), eps=eps)
        rng = _rng(seed)
        D = b.hankel.D
        c = complex(rng.standard_normal(), rng.standard_normal())
        polys = [random_poly(min(deg, 2 * D - 1), rng)]
        polys += [Polynomial.monomial(j, c) for j in (0, D, k % (2 * D - 1))]
        for p in polys:
            dense = poly_of_T(b, p)
            apply, apply_adjoint = _poly_t_applies(b, p)
            x = rng.standard_normal(b.total_dim) + 1j * rng.standard_normal(b.total_dim)
            assert _rel_err(apply(x), dense @ x) <= 1e-12
            assert _rel_err(apply_adjoint(x), dense.conj().T @ x) <= 1e-12


class TestPbProbe:
    def test_at_least_one(self):
        b = _car_bundle(n=2, eps=0.0)
        assert pb_probe(b, PbSearch(restarts=1, seed=0)) >= 1.0

    def test_identity_ratio_rounding_below_one_is_floored(self):
        # a contraction: every candidate, P = 1 included, reads at most
        # 0.9999999999999999 here, while ||I|| / sup|1| = 1 exactly
        b = _car_bundle(n=4, eps=0.0)
        assert pb_probe(b, PbSearch(restarts=2, seed=0)) == 1.0

    def test_contraction_regime(self):
        # von Neumann's inequality: no candidate beats sup|P| at eps = 0
        b = _car_bundle(n=2, eps=0.0)
        assert pb_probe(b, PbSearch(restarts=2, seed=5)) <= 1.0 + 1e-6

    def test_norm_monotone_in_eps(self):
        rng = _rng(31)
        b0 = _car_bundle(n=2, eps=0.0)
        polys = [random_poly(6, rng) for _ in range(4)]
        for p in polys:
            norms = [float(op_norm(poly_of_T(dataclasses.replace(b0, eps=e), p)))
                     for e in (0.0, 0.5, 1.0, 2.0)]
            assert all(b >= a - 1e-11 for a, b in zip(norms, norms[1:]))

    def test_max_degree_cap(self):
        b = _car_bundle(n=2)
        with pytest.raises(errors.ConfigurationError):
            pb_probe(b, PbSearch(max_degree=2 * b.hankel.D - 1))

    def test_deterministic(self):
        b = _car_bundle(n=2)
        s = PbSearch(restarts=2, seed=9)
        assert pb_probe(b, s) == pb_probe(b, s)

    @pytest.mark.parametrize("kind", ["monomial", "fejer"])
    def test_witness_reproduces_best(self, kind):
        # without monomials the best is a Fejer mean; the dense P(T) checks it
        b = _car_bundle(n=2)
        max_degree = 2 * b.hankel.D - 2
        ks = monomial_grid(max_degree, b.hankel.multiplier.support) if kind == "monomial" else ()
        best, best_id = probe_search(functools.partial(_pb_map, b, max_degree=max_degree),
                                     max_degree, ks, seed=2)
        name, degree = best_id.split(":")
        assert name == kind
        p = Polynomial.monomial(int(degree)) if kind == "monomial" else fejer_poly(int(degree))
        dense = float(op_norm(poly_of_T(b, p))) / sup_norm(p).certified_upper
        assert dense == pytest.approx(best, rel=1e-9)

    def test_cold_solves_do_not_see_the_warm_starts(self, monkeypatch):
        # a warm start draws what a cold one draws, so every solve offered no
        # start (the first of each chain: z^0, fejer:2, random:0 and each
        # ascent's first step) returns the same bits with warm starts or without
        solve, values = hankel.top_singular, {}
        for warm in (True, False):
            seen = []

            def recorded(apply, apply_adjoint, dim, rng, tol, max_iter, start):
                est, u, v = solve(apply, apply_adjoint, dim, rng, tol, max_iter,
                                  start if warm else None)
                seen.append((start is not None, est.value))
                return est, u, v

            monkeypatch.setattr(hankel, "top_singular", recorded)
            pb_probe(_car_bundle(n=3), PbSearch(restarts=4, seed=3))
            values[warm] = [value for offered, value in seen if not offered]
            # D = 9: z^1..z^16 after z^0, fejer:4..16 after fejer:2, random:1..15
            # after random:0, and 2 ascents of 12 steps
            assert sum(offered for offered, _ in seen) == 16 + 3 + 15 + 2 * 11
        assert len(values[True]) == 5 and values[True] == values[False]

    @staticmethod
    def _pairings_by_matvec(b, u, v, max_degree):
        # the reference: one structured T matvec per power
        apply_t, _ = _poly_t_applies(b, Polynomial.monomial(1))
        out = np.zeros(max_degree + 1, dtype=np.complex128)
        vk = v.copy()
        for k in range(max_degree + 1):
            out[k] = np.vdot(u, vk)
            vk = apply_t(vk)
        return out

    @pytest.mark.parametrize("kind,n", [("car", 2), ("car", 3), ("car", 4), ("haar", 3)])
    @pytest.mark.parametrize("eps", [1.0, 0.37])
    def test_power_pairings_match_matvec_loop(self, kind, n, eps):
        # every k up to the 2D - 2 cap, so k >= D (where T^k = 0) is covered
        b = _small_bundle(kind, n) if kind == "haar" else _car_bundle(n=n)
        b = dataclasses.replace(b, eps=eps)
        rng = _rng(32 + n)
        u, v = (rng.standard_normal(b.total_dim) + 1j * rng.standard_normal(b.total_dim)
                for _ in range(2))
        max_degree = 2 * b.hankel.D - 2
        want = self._pairings_by_matvec(b, u, v, max_degree)
        got = _power_pairings(b, u, v, max_degree)
        assert _rel_err(got, want) <= 1e-12
        assert not got[b.hankel.D + 1:].any()
        short = _power_pairings(b, u, v, 3)
        assert np.array_equal(short, got[:4])


class TestCbCertificate:
    # hand-frozen: eps * n^{-1/2} * ||sum conj(C_k) (x) C_k|| for the
    # anticommuting family, normalizer exactly 1
    CAR_CB = {2: 1.0, 3: 2.0 / np.sqrt(3.0), 4: np.sqrt(6.0) / 2.0}

    def test_car_values(self):
        for n, ref in self.CAR_CB.items():
            assert cb_certificate(_car_bundle(n=n)) == pytest.approx(ref, abs=1e-9)
        # the closed form eps * sqrt(floor((n + 1)^2 / 4) / n), to rounding
        for n in range(2, 9):
            want = 0.7 * math.sqrt((n + 1) ** 2 // 4 / n)
            assert cb_certificate(_car_bundle(n=n, eps=0.7)) == pytest.approx(want, rel=1e-15,
                                                                                abs=0)

    def test_linear_in_eps(self):
        b = _car_bundle(n=2, eps=0.3)
        assert cb_certificate(b) == pytest.approx(0.3 * self.CAR_CB[2], abs=1e-12)
        assert cb_certificate(dataclasses.replace(b, eps=0.0)) == 0.0

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(bundle=st.sampled_from([("car", 2), ("car", 3), ("haar", 2), ("haar", 3)]),
           e=st.floats(1e-6, 1e6))
    def test_linear_in_eps_property(self, bundle, e):
        kind, n = bundle
        if kind == "car":
            b = _car_bundle(n=n)
        else:
            b, _ = haar_bundle(n, n, system_seed=5, row_bound_seed=6, D=None, eps=1.0)
        unit = cb_certificate(dataclasses.replace(b, eps=1.0))
        assert cb_certificate(dataclasses.replace(b, eps=e)) == pytest.approx(e * unit, rel=1e-14,
                                                                              abs=0)

    def test_dominates_trace_witness_rate(self):
        for n in (2, 3, 4):
            assert cb_certificate(_car_bundle(n=n)) >= np.sqrt(n) / 2.0 - 1e-8

    def test_runs_no_solve(self, monkeypatch):
        car = _car_bundle(n=3, eps=0.5)
        haar, _ = haar_bundle(3, 3, system_seed=5, row_bound_seed=6, D=None, eps=0.5)

        def unreachable(*args, **kwargs):
            raise AssertionError("cb_certificate ran a solve")

        monkeypatch.setattr(coeff_systems, "tensor_conj_norm", unreachable)
        monkeypatch.setattr(numkit, "top_singular", unreachable)
        assert cb_certificate(car) == pytest.approx(0.5 * 2.0 / np.sqrt(3.0), rel=1e-15, abs=0)
        k2 = haar.hankel.system.row_bound
        assert cb_certificate(haar) == pytest.approx(0.5 * np.sqrt(3.0) / k2**2, rel=1e-15, abs=0)

    def test_haar_divisor_is_the_bundles_k2(self, monkeypatch):
        # haar_bundle measures K2 once; the certificate runs no second ascent
        b, _ = haar_bundle(3, 3, system_seed=5, row_bound_seed=6, D=None, eps=1.0)

        def unreachable(*args, **kwargs):
            raise AssertionError("cb_certificate ran a row-bound ascent")

        monkeypatch.setattr(counterexample, "row_bound", unreachable)
        assert cb_certificate(b) > 0.0

    def test_system_without_row_bound_is_refused(self):
        spec = lacunary_default(2)
        b = build_T(haar_unitaries(2, 2, seed=0), spec, MultiplierSeq.indicator(spec))
        with pytest.raises(errors.ConfigurationError, match="row bound"):
            cb_certificate(b)

    def test_no_tensor_norm_or_two_multiplier_values_is_refused(self):
        spec = lacunary_default(2)
        by_hand = CoefficientSystem("car", car_jordan_wigner(2).elements, row_bound=1.0)
        b = build_T(by_hand, spec, MultiplierSeq.indicator(spec))
        with pytest.raises(errors.ConfigurationError, match="tensor norm"):
            cb_certificate(b)
        b = build_T(car_jordan_wigner(2), spec, MultiplierSeq(dict(zip(spec.K, (1.0, 0.5)))))
        with pytest.raises(errors.ConfigurationError, match="one multiplier value"):
            cb_certificate(b)

    # (n, dim, seed, D, eps) of the Haar bundles certify and sweep build in
    # tools/payload_digests.py (certify.haar.n2, .n6, .dim3 and sweep.haar),
    # whose row bounds run at the config seed
    DIGEST_HAAR = [(2, 2, 5, None, 1.0), (6, 6, 5, None, 1.0), (2, 3, 4, 6, 0.5),
                   (2, 3, 2, 9, 0.5), (3, 3, 2, 9, 0.5)]

    @staticmethod
    def _old_divisor(system, seed):
        """The divisor cb_certificate used before it read the system's
        row_bound: a second 32-restart ascent on the conjugated system."""
        conj = CoefficientSystem(system.kind, [np.conj(e) for e in system.elements])
        return row_bound(conj, restarts=32, seed=seed).value

    def _check_divisor(self, b, seed):
        # the solved norm of the 1/K2-weighted sum is tensor_conj_norm / K2
        system = b.hankel.system
        k2 = system.row_bound
        tcn = tensor_conj_norm(system) / k2
        cb = cb_certificate(b)
        assert cb == pytest.approx(b.eps * system.n ** -0.5 * tcn / k2, rel=1e-12, abs=0)
        old = b.eps * system.n ** -0.5 * tcn / self._old_divisor(system, seed)
        assert cb == pytest.approx(old, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n,dim,seed,d,eps", DIGEST_HAAR)
    def test_haar_k2_matches_the_conjugate_ascent(self, n, dim, seed, d, eps):
        self._check_divisor(haar_bundle(n, dim, seed, seed, D=d, eps=eps)[0], seed)

    @pytest.mark.parametrize("n", [2, 4, 7, 8])
    def test_fcn_k2_matches_the_conjugate_ascent(self, n):
        # the fcn bundles at seed 42
        b, _ = haar_bundle_for_target(n, 2.0, seed=42)
        self._check_divisor(b, 42)


class TestTargetScaling:
    def test_eps_formula(self):
        # eps = (c - 1) / C_probe is checked in test_haar_bundle_wiring
        with pytest.raises(errors.DomainError, match="target c must exceed 1"):
            haar_bundle_for_target(2, 1.0, seed=42)

    def test_haar_bundle_wiring(self):
        bundle, info = haar_bundle_for_target(2, 2.0, seed=42)
        assert bundle.hankel.system.kind == "haar_unitary"
        assert bundle.hankel.system.seed == info["system_seed"]
        assert bundle.hankel.D == 5
        assert info["eps"] == pytest.approx((2.0 - 1.0) / info["C_probe"], rel=1e-12)
        assert info["K2"] >= 1.0
        m_val = bundle.hankel.multiplier(2)
        assert abs(m_val - 1.0 / info["K2"]) <= 1e-12

    def test_c_probe_at_the_frozen_seed(self):
        # both maxima come from z^2, so the calibration is pinned to rounding
        for n, want in ((2, 0.8522440560906684), (4, 0.6716869639240086)):
            _, info = haar_bundle_for_target(n, 2.0, seed=42)
            assert info["C_probe"] == pytest.approx(want, rel=1e-12, abs=0)

    def test_fcn_size_cap_is_the_flat_budget(self):
        # D = 2^n + 1: 4097^2 Toeplitz entries fit 2^26, 8193^2 do not
        check_default_depth(12, "an fcn row", "n")
        for n in (0, 13, 10**9):
            with pytest.raises(errors.ConfigurationError, match="1 <= n <= 12"):
                check_default_depth(n, "an fcn row", "n")
        with pytest.raises(errors.ConfigurationError, match="1 <= n <= 12"):
            haar_bundle_for_target(13, 2.0, seed=0)

    @pytest.mark.parametrize("n", [2, 4, 7, 8])
    @pytest.mark.parametrize("c", [1.5, 2.0, 3.0])
    def test_fcn_pb_probe_is_the_closed_form_of_c(self, n, c):
        # both searches of the row win at z^2, whose certified sup is the
        # slack s: the eps calibration makes ||eps G T(2z)|| = x, and
        # z^2(T) has the norm of [[1, x], [0, 1]]; a search that beat z^2
        # here would be a discovery, not drift
        s = 1.0 / (1.0 - 2.0 * np.pi / numkit.default_grid_points(2))
        x = (c - 1.0) * s
        want = (x + np.sqrt(x * x + 4.0)) / (2.0 * s)
        assert fcn_experiment(n, c, 42)["pb_probe"] == pytest.approx(want, rel=1e-14, abs=0)

    @pytest.mark.parametrize("n,seed,c", [(n, seed, c) for n in (2, 4) for seed in (3, 42)
                                          for c in (1.5, 2.0, 3.0)] + [(7, 42, 2.0)])
    def test_fcn_full_searches_win_at_z2(self, monkeypatch, n, seed, c):
        # a row solves only the candidates of degree <= 2; the searches it
        # replaced, spelled out here, return the same bits from the same
        # z^2 solve, so a row that dropped z^2 or reordered its chain fails,
        # and a full search that beats z^2 is a discovery
        row = fcn_experiment(n, c, seed)
        bundle, _ = haar_bundle_for_target(n, c, seed)
        g = bundle.hankel
        probe_seed = np.random.SeedSequence(entropy=seed).spawn(3)[2].generate_state(1)[0]
        max_degree = 2 * g.D - 1
        monomials = [1] + [q for q in g.multiplier.support if q <= max_degree]
        assert probe_search(functools.partial(hankel.hankel_map, g), max_degree, monomials,
                            n_random=4, n_degrees=4, seed=int(probe_seed)) == (
            row["C_probe"], "monomial:2")
        found = []

        def spy(*args, **kwargs):
            found.append(probe_search(*args, **kwargs))
            return found[-1]

        monkeypatch.setattr(counterexample, "probe_search", spy)
        search = PbSearch(restarts=2, max_degree=min(2 * g.D - 2, 64), seed=seed)
        assert pb_probe(bundle, search) == row["pb_probe"]
        assert found[0][1] == "monomial:2"

    def test_fcn_row(self):
        row = fcn_experiment(2, 2.0, seed=42)
        keys = {"n", "c", "cb_over_pb", "scaled", "similarity_lower", "pb_probe",
                "N", "seed", "K2", "K2_converged", "C_probe", "eps", "system_seed"}
        assert keys <= set(row)
        assert row["scaled"] > 0
        assert row["cb_over_pb"] == pytest.approx(
            row["similarity_lower"] / row["pb_probe"], rel=1e-12
        )
        assert row["scaled"] == pytest.approx(row["cb_over_pb"] / np.sqrt(2.0), rel=1e-12)

    @pytest.mark.parametrize("n,seed,converged", [(4, 7, False), (2, 42, True)])
    def test_fcn_row_reports_k2_convergence(self, n, seed, converged):
        # at seed 7, n = 4 a restart of the K2 ascent stops at ROW_BOUND_STEP_CAP
        assert fcn_experiment(n, 2.0, seed)["K2_converged"] is converged

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
