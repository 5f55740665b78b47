import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbnc import errors, numkit
from pbnc.numkit import (
    Polynomial,
    default_grid_points,
    poly_derivative,
    poly_eval,
    subdiagonal_sums,
    sup_norm,
    toeplitz,
    toeplitz_factor,
    top_singular,
)
from pbnc.coeff_systems import car_jordan_wigner
from pbnc.counterexample import _poly_t_applies, build_T
from pbnc.hankel import MultiplierSeq, fejer_poly, lacunary_default
from reference import OP_NORM_EXACT_MAX_DIM, op_norm, poly_of_matrix


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestOpNorm:
    def test_diagonal(self):
        est = op_norm(np.diag([3.0, -4.0, 1.0]))
        assert est.value == pytest.approx(4.0, abs=1e-13)
        assert est.method == "exact-eigensolve"

    def test_matches_svd(self):
        rng = _rng(101)
        for shape in [(5, 5), (3, 8), (8, 3), (1, 1)]:
            a = _random_complex(rng, shape)
            ref = np.linalg.svd(a, compute_uv=False)[0]
            assert op_norm(a).value == pytest.approx(ref, rel=1e-12)

    def test_empty_and_zero(self):
        assert op_norm(np.zeros((4, 4))).value == 0.0
        assert op_norm(np.zeros((0, 3))).value == 0.0

    def test_above_exact_limit_is_loud(self):
        # 4097 rows: past OP_NORM_EXACT_MAX_DIM, where op_norm refuses
        a = np.zeros((OP_NORM_EXACT_MAX_DIM + 1, 3))
        with pytest.raises(errors.DimensionError, match="4096"):
            op_norm(a)

    def test_rejects_bad_input(self):
        with pytest.raises(errors.DimensionError):
            op_norm(np.zeros(3))
        with pytest.raises(errors.DomainError):
            op_norm(np.array([[np.inf, 0.0], [0.0, 1.0]]))


_entries = st.integers(-50, 50).map(lambda k: k / 8.0)  # exact, no underflow


@st.composite
def _complex_matrices(draw):
    rows, cols = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    re = draw(st.lists(_entries, min_size=rows * cols, max_size=rows * cols))
    im = draw(st.lists(_entries, min_size=rows * cols, max_size=rows * cols))
    return (np.array(re) + 1j * np.array(im)).reshape(rows, cols)


class TestTopSingular:
    @staticmethod
    def _solve(a, seed, tol, max_iter):
        ah = a.conj().T
        return top_singular(lambda v: a @ v, lambda w: ah @ w, a.shape[1], _rng(seed),
                            tol, max_iter)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(a=_complex_matrices(), seed=st.integers(0, 2**32 - 1))
    def test_rayleigh_lower_bound_matches_svd(self, a, seed):
        exact = np.linalg.svd(a, compute_uv=False)[0]
        est, u, v = self._solve(a, seed, 1e-14, 20_000)
        assert est.value <= exact * (1 + 1e-12)
        assert v.shape == (a.shape[1],) and u.shape == (a.shape[0],)
        # u is A v / ||A v|| from the solve's own last apply
        if est.value > 0.0:
            assert np.array_equal(u, (a @ v) / np.linalg.norm(a @ v))
        if est.converged:
            assert est.value == pytest.approx(exact, rel=1e-8, abs=1e-12)

    def test_cap_reports_not_converged(self):
        a = _random_complex(_rng(11), (8, 8))
        exact = np.linalg.svd(a, compute_uv=False)[0]
        est, _, _ = self._solve(a, 12, 1e-12, 2)
        assert not est.converged and est.iterations == 2
        assert 0.0 < est.value <= exact * (1 + 1e-12)

    def test_zero_operator(self):
        est, _, _ = self._solve(np.zeros((3, 4), dtype=np.complex128), 0, 1e-12, 10)
        assert est.value == 0.0 and est.converged and est.iterations == 1
        with pytest.raises(errors.DomainError):
            self._solve(np.eye(2), 0, 1e-12, 0)

    @staticmethod
    def _with_spectrum(rng, rows, cols, top):
        """U diag(s) V^H with random unitary U, V, s led by ``top``, the rest
        drawn below 0.9."""
        k = min(rows, cols)
        u, _ = np.linalg.qr(_random_complex(rng, (rows, k)))
        v, _ = np.linalg.qr(_random_complex(rng, (cols, k)))
        s = np.sort(rng.uniform(0.0, 0.9, k))[::-1]
        s[: len(top)] = top
        return (u * s) @ v.conj().T

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(rows=st.integers(3, 90), cols=st.integers(3, 90), seed=st.integers(0, 2**32 - 1),
           tol=st.sampled_from([1e-10, 1e-12]))
    def test_clustered_spectrum(self, rows, cols, seed, tol):
        # sigma_1 = sigma_2 and sigma_3 = sigma_1 (1 - 1e-6): a converged
        # value is the top singular value, restarts included (k > 40)
        a = self._with_spectrum(_rng(seed), rows, cols, [1.0, 1.0, 1.0 - 1e-6])
        est, _, v = self._solve(a, seed + 1, tol, 2_000)
        exact = np.linalg.svd(a, compute_uv=False)[0]
        assert est.value <= exact * (1 + 1e-12)
        assert est.method == "golub-kahan-lanczos"
        if est.converged:
            assert abs(est.value - exact) <= 1e-10 * exact
            assert est.residual <= tol * est.value
        assert est.converged  # 2 000 steps are plenty at these sizes
        assert est.value == pytest.approx(np.linalg.norm(a @ v), rel=1e-14)

    @pytest.mark.parametrize("shape", [(200, 3), (3, 200), (7, 7)])
    def test_exhausted_krylov_space_is_exact(self, shape):
        # k = min(rows, cols) steps span one side: converged at any tol
        a = _random_complex(_rng(31), shape)
        est, _, _ = self._solve(a, 32, 1e-300, 10_000)
        assert est.converged and est.iterations <= min(shape) + 1
        assert est.value == pytest.approx(np.linalg.svd(a, compute_uv=False)[0], rel=1e-13)

    def test_rank_deficient_breakdown(self):
        # rank 4 in 60 x 50: the Krylov space of A^H A runs out after 5 steps
        rng = _rng(33)
        u, _ = np.linalg.qr(_random_complex(rng, (60, 4)))
        v, _ = np.linalg.qr(_random_complex(rng, (50, 4)))
        a = (u * [3.0, 2.0, 1.5, 1.0]) @ v.conj().T
        est, _, _ = self._solve(a, 34, 1e-10, 10_000)
        assert est.converged and est.iterations <= 6
        assert est.value == pytest.approx(3.0, rel=1e-12)

    def test_clustered_car_operator_keeps_v_orthonormal(self, monkeypatch):
        # fejer:2 at CAR n = 4: the top singular values cluster, so the solve
        # restarts (about 80 steps); V stays orthonormal although most of its
        # Gram-Schmidt steps make one pass, and the residual read from the
        # top eigenpair of B B^T bounds the true one
        spec = lacunary_default(4)
        b = build_T(car_jordan_wigner(4), spec, MultiplierSeq.indicator(spec))
        apply, apply_adjoint = _poly_t_applies(b, fejer_poly(2))
        dgks, worst = numkit._dgks, []

        def checked(w, basis):
            w, beta = dgks(w, basis)
            v = np.vstack([basis, w / beta])
            worst.append(np.abs(v @ v.conj().T - np.eye(len(v))).max())
            return w, beta

        monkeypatch.setattr(numkit, "_dgks", checked)
        tol = 1e-10
        est, u, x = top_singular(apply, apply_adjoint, b.total_dim, _rng(0), tol, 20_000)
        assert est.converged and 2 * numkit.RESTART_STEPS <= est.iterations <= 100
        assert max(worst) <= 1e-12
        assert np.linalg.norm(apply_adjoint(u) - est.value * x) <= 10 * tol * est.value


class TestWarmStart:
    @staticmethod
    def _solve(a, seed, tol, start):
        ah = a.conj().T
        return top_singular(lambda v: a @ v, lambda w: ah @ w, a.shape[1], _rng(seed),
                            tol, 10_000, start)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a=_complex_matrices(), seed=st.integers(0, 2**32 - 1),
           tol=st.sampled_from([1e-10, 1e-14]))
    def test_rayleigh_lower_bound_from_any_start(self, a, seed, tol):
        # a start of the solve's own draws or a basis vector: the value is a
        # Rayleigh lower bound, and converged means the residual test passed
        exact = np.linalg.svd(a, compute_uv=False)[0]
        for start in (_random_complex(_rng(seed + 1), a.shape[1]),
                      np.eye(a.shape[1])[a.shape[1] - 1]):
            est, _, v = self._solve(a, seed, tol, start)
            assert est.value <= exact * (1 + 1e-12)
            assert est.value == pytest.approx(np.linalg.norm(a @ v), rel=1e-14, abs=1e-300)
            if est.converged:
                assert est.residual <= tol * est.value

    @staticmethod
    def _separated(seed):
        """70 x 60 with sigma_1 = 1 and the other singular values below 0.5."""
        rng = _rng(seed)
        u, _ = np.linalg.qr(_random_complex(rng, (70, 60)))
        v, _ = np.linalg.qr(_random_complex(rng, (60, 60)))
        s = np.concatenate([[1.0], np.sort(rng.uniform(0.0, 0.5, 59))[::-1]])
        return (u * s) @ v.conj().T

    @pytest.mark.parametrize("seed", [41, 43, 45])
    def test_start_at_the_top_vector_converges_in_a_few_steps(self, seed):
        # the noise, 1e-6 of the start, has to fall by 1e-4: 5 steps where a
        # cold start takes 11 or 12
        a = self._separated(seed)
        top = np.linalg.svd(a)[2][0].conj()
        cold, _, _ = self._solve(a, seed + 1, 1e-10, None)
        warm, _, _ = self._solve(a, seed + 1, 1e-10, top)
        assert warm.converged and warm.iterations <= 6 < cold.iterations
        assert warm.value == pytest.approx(1.0, rel=1e-12)

    def test_start_orthogonal_to_the_top_vector_still_finds_it(self):
        # the relative noise keeps an overlap with the top vector
        a = self._separated(43)
        second = np.linalg.svd(a)[2][1].conj()
        est, _, _ = self._solve(a, 44, 1e-10, second)
        assert est.converged and est.value == pytest.approx(1.0, rel=1e-12)

    def test_rng_stream_is_that_of_a_cold_start(self):
        a = self._separated(45)
        ah = a.conj().T
        states = []
        for start in (None, np.ones(60)):
            rng = _rng(46)
            top_singular(lambda v: a @ v, lambda w: ah @ w, 60, rng, 1e-10, 100, start)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]

    def test_zero_start_is_a_cold_start(self):
        a = self._separated(47)
        cold, _, v_cold = self._solve(a, 48, 1e-10, None)
        zero, _, v_zero = self._solve(a, 48, 1e-10, np.zeros(60))
        assert cold == zero and np.array_equal(v_cold, v_zero)


@pytest.mark.parametrize("d", [1, 2, 7, 33])
def test_subdiagonal_sums_match_loop(d):
    m = _random_complex(_rng(d), (d, d))
    loop = [sum(m[i, i - k] for i in range(k, d)) for k in range(d)]
    got = subdiagonal_sums(m)
    assert got.shape == (d,)
    assert np.abs(got - loop).max() <= 1e-12 * np.abs(loop).max()


class TestPolynomial:
    def test_trims_trailing_zeros(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.degree == 1
        assert np.array_equal(p.coeffs, np.array([1.0, 2.0], dtype=np.complex128))

    def test_zero_polynomial(self):
        p = Polynomial([0.0, 0.0])
        assert p.is_zero and p.degree == 0
        assert not Polynomial([0.0, 1e-300]).is_zero

    def test_monomial(self):
        p = Polynomial.monomial(3, 2.0)
        assert p.degree == 3 and p.coeffs[3] == 2.0 and p.coeffs[0] == 0.0
        with pytest.raises(errors.DomainError):
            Polynomial.monomial(-1)

    def test_immutable_coeffs(self):
        p = Polynomial([1.0, 2.0])
        with pytest.raises(ValueError):
            p.coeffs[0] = 5.0

    def test_degree_cap(self):
        with pytest.raises(errors.ConfigurationError):
            c = np.zeros(numkit.DEGREE_CAP + 2)
            c[-1] = 1.0
            Polynomial(c)

    def test_nonfinite_rejected(self):
        with pytest.raises(errors.DomainError):
            Polynomial([1.0, np.nan])


class TestPolyOps:
    def test_derivative(self):
        p = Polynomial([5.0, 1.0, 2.0, 3.0])
        dp = poly_derivative(p)
        assert np.allclose(dp.coeffs, [1.0, 4.0, 9.0])
        assert poly_derivative(Polynomial([7.0])).is_zero

    def test_eval_matches_reference(self):
        rng = _rng(5)
        c = _random_complex(rng, 6)
        p = Polynomial(c)
        z = _random_complex(rng, 10)
        ref = np.polyval(p.coeffs[::-1], z)
        assert np.allclose(poly_eval(p, z), ref, atol=1e-12)
        assert isinstance(poly_eval(p, 0.5 + 0.1j), complex)

    @staticmethod
    def _horner(coeffs, z):
        acc = np.full(z.shape, coeffs[-1], dtype=np.complex128)
        for c in coeffs[-2::-1]:
            acc = acc * z + c
        return acc

    # one point, the one-element product of the poly_eval docstring, and
    # lengths around 2^14, the rows of a path block
    @pytest.mark.parametrize("size", [0, 1, 16_383, 16_384, 16_385, 49_157])
    def test_eval_is_bit_identical_to_plain_horner(self, size):
        rng = _rng(50 + size)
        p = Polynomial(_random_complex(rng, 24))
        z = 0.6 * _random_complex(rng, size)
        got = poly_eval(p, z)
        assert got.shape == (size,)
        assert np.array_equal(got, self._horner(p.coeffs, z))

    def test_eval_bit_identical_on_strided_and_2d_input(self):
        rng = _rng(51)
        p = Polynomial(_random_complex(rng, 17))
        block = 0.6 * _random_complex(rng, (49_157, 7))
        column = block[:, 3]  # 112-byte stride
        assert np.array_equal(poly_eval(p, column), self._horner(p.coeffs, column))
        square = block[:300, 1:6].T  # 2-d, neither C- nor F-contiguous
        got = poly_eval(p, square)
        assert got.shape == square.shape
        assert np.array_equal(got, self._horner(p.coeffs, square))

    def test_eval_degree_zero_and_scalar(self):
        rng = _rng(52)
        z = _random_complex(rng, 16_387)
        const = Polynomial([2.0 - 1.0j])
        assert np.array_equal(poly_eval(const, z), np.full(z.shape, 2.0 - 1.0j))
        p = Polynomial(_random_complex(rng, 9))
        s = 0.3 - 0.7j
        got = poly_eval(p, s)
        assert type(got) is complex
        assert got == complex(self._horner(p.coeffs, np.asarray(s, dtype=np.complex128)))
        assert type(poly_eval(const, s)) is complex

    def test_poly_of_matrix(self):
        rng = _rng(6)
        a = _random_complex(rng, (5, 5))
        p = Polynomial([2.0, 0.0, 1.0])  # 2 + z^2
        ref = 2.0 * np.eye(5) + a @ a
        assert np.allclose(poly_of_matrix(p, a), ref, atol=1e-12)
        with pytest.raises(errors.DimensionError):
            poly_of_matrix(p, np.zeros((2, 3)))


class TestSupNorm:
    def test_monomial_is_one(self):
        b = sup_norm(Polynomial.monomial(7))
        assert b.grid_max == pytest.approx(1.0, abs=1e-14)
        assert b.certified_upper >= 1.0

    def test_known_maximum_on_grid(self):
        # sup |1 + z| = 2, attained at z = 1 which every grid contains
        b = sup_norm(Polynomial([1.0, 1.0]))
        assert b.grid_max == pytest.approx(2.0, abs=1e-12)
        assert 2.0 <= b.certified_upper <= 2.0 * 1.01

    def test_sandwich(self):
        rng = _rng(12)
        for _ in range(5):
            p = Polynomial(_random_complex(rng, 9))
            b = sup_norm(p)
            dense = np.abs(poly_eval(p, np.exp(2j * np.pi * rng.random(2000)))).max()
            assert dense <= b.certified_upper + 1e-12
            assert b.grid_max <= b.certified_upper

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(deg=st.integers(0, 40), extra=st.integers(0, 3), default_grid=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_sandwich_property(self, deg, extra, default_grid, seed):
        # the 16x finer grid holds the coarse one, and its max is an actual
        # value of |P|, so it sits between the grid max and the certificate
        p = Polynomial(_random_complex(_rng(seed), deg + 1))
        n = None if default_grid else 1 << (int(np.pi * deg).bit_length() + extra)
        b = sup_norm(p, grid_points=n)
        fine = float(np.abs(np.fft.fft(p.coeffs, n=16 * b.grid_points)).max())
        assert b.grid_max <= fine * (1 + 1e-12)
        assert fine <= b.certified_upper * (1 + 1e-12)

    def test_coarse_grid_rejected(self):
        with pytest.raises(errors.DomainError):
            sup_norm(Polynomial.monomial(100), grid_points=64)

    def test_default_grid_points(self):
        for deg in [0, 1, 10, 1000]:
            n = default_grid_points(deg)
            assert n & (n - 1) == 0  # power of two
            assert np.pi * deg / n < 0.02


class TestToeplitz:
    def test_entries(self):
        f = Polynomial([1.0, 2.0, 3.0])
        t = toeplitz(f, 4)
        for i in range(4):
            for j in range(4):
                expected = f.coeffs[i - j] if 0 <= i - j <= f.degree else 0.0
                assert t[i, j] == expected

    def test_multiplicative(self):
        rng = _rng(77)
        f = Polynomial(_random_complex(rng, 4))
        g = Polynomial(_random_complex(rng, 5))
        fg = Polynomial(np.convolve(f.coeffs, g.coeffs))
        d = 11
        assert np.allclose(toeplitz(fg, d), toeplitz(f, d) @ toeplitz(g, d), atol=1e-13)

    def test_matches_diagonal_fill(self):
        # one gather over i - j gives exactly the diagonal-by-diagonal fill
        rng = _rng(13)
        for d in (1, 2, 5, 17):
            for deg in (0, d - 1, d, 2 * d):
                f = Polynomial(_random_complex(rng, deg + 1))
                ref = np.zeros((d, d), dtype=np.complex128)
                for k in range(min(f.degree, d - 1) + 1):
                    ref += np.diag(np.full(d - k, f.coeffs[k]), -k)
                t = toeplitz(f, d)
                assert t.dtype == np.complex128 and t.tobytes() == ref.tobytes()

    def test_needs_positive_dim(self):
        with pytest.raises(errors.DomainError):
            toeplitz(Polynomial([1.0]), 0)

    @pytest.mark.parametrize("coeffs,dense", [
        ([0.0], False),
        ([0.0, 0.0, 2.0 - 1.0j], False),
        ([0.0] * 5 + [3.0], False),  # z^5 is 0 on D = 5
        ([0.0, 1.5j] + [0.0] * 5 + [4.0], False),  # one term below D
        ([1.0, 2.0j, -3.0, 0.5], True),
    ], ids=["zero", "one-term", "beyond-D", "one-term-below-D", "dense"])
    @pytest.mark.parametrize("scale", [1.0, 0.7 - 0.2j, 0.0])
    def test_factor_views_match_dense(self, monkeypatch, coeffs, dense, scale):
        # A x, A^t x, A^H x and conj(A) x of A = scale T(p) on D x h block
        # rows; a factor with at most one term left builds no Toeplitz matrix
        rng = _rng(14)
        d, h = 5, 3
        p = Polynomial(coeffs)
        a = scale * toeplitz(p, d)
        if not dense or scale == 0.0:
            monkeypatch.setattr(numkit, "toeplitz", lambda *args: pytest.fail("dense factor"))
        views = toeplitz_factor(p, d, scale)
        for view, want in zip(views, (a, a.T, a.conj().T, a.conj())):
            x = _random_complex(rng, (d, h))
            assert np.allclose(view(x), want @ x, rtol=0, atol=1e-13)

    def test_dense_factor_holds_one_matrix(self):
        # A^H x and conj(A) x are conj(T^t conj(x)) and conj(T conj(x)): a
        # dense factor keeps T only, 16 MB at D = 1024, not T and conj(T)
        d = 1024
        p = Polynomial(np.full(d, 1.0 + 1.0j))
        tracemalloc.start()
        try:
            views = toeplitz_factor(p, d)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one = d * d * np.dtype(np.complex128).itemsize
        assert len(views) == 4 and one <= held < 1.5 * one
