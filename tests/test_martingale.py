import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pbnc import cli, errors
from pbnc.coeff_systems import car_jordan_wigner
from pbnc.hankel import LacunarySpec, MultiplierSeq, build_hankel, lacunary_default
from pbnc.martingale import (
    MAX_LEVEL,
    SIM_BLOCK,
    BridgeForm,
    MartingaleConfig,
    McAccumulator,
    _eta_weights_at,
    _increment,
    _power,
    eta_modulus,
    eta_modulus_sup,
    fourier_samples,
    multiplier_samples,
    orthogonality_samples,
    radial_samples,
    radius,
    stream_estimates,
)
from pbnc.numkit import Polynomial, poly_eval
from reference import simulate_paths


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))


def _est(samples):
    """The package's one reducer over a full batch of per-sample values."""
    return McAccumulator().add(samples).estimate()


def _paths(L=5, n=40_000, seed=3):
    return simulate_paths(MartingaleConfig(L=L, n_samples=n, seed=seed))


@pytest.fixture(scope="module")
def paths():
    return _paths()


class TestConfig:
    def test_radius(self):
        assert radius(1) == 0.5 and radius(3) == 0.875

    def test_levels_stop_where_the_radii_saturate(self):
        # MAX_LEVEL is the last level whose radius differs from the one
        # before; above it r_n^2 - r_{n-1}^2 = 0 divides the eta weights
        assert radius(MAX_LEVEL) != radius(MAX_LEVEL - 1)
        assert radius(MAX_LEVEL + 1) == radius(MAX_LEVEL) == 1.0
        assert MartingaleConfig(L=MAX_LEVEL, n_samples=10).L == MAX_LEVEL
        assert np.isfinite(eta_modulus_sup(MAX_LEVEL))
        with pytest.raises(errors.ConfigurationError, match=f"L = {MAX_LEVEL + 1} is above"):
            MartingaleConfig(L=MAX_LEVEL + 1, n_samples=10)
        with pytest.raises(errors.ConfigurationError, match=f"n_max = {MAX_LEVEL + 1} is above"):
            eta_modulus_sup(MAX_LEVEL + 1)

    def test_basic_validation(self):
        with pytest.raises(errors.ConfigurationError):
            MartingaleConfig(L=0)
        with pytest.raises(errors.ConfigurationError):
            MartingaleConfig(L=2, n_samples=0)


class TestSimulation:
    def test_radial_invariant(self, paths):
        assert paths.radial_drift <= 1e-12
        assert not paths.psi[:, 0].any()

    def test_drift_is_that_of_the_renormalized_columns(self):
        # at L = 30 rounding drifts past RENORM_TOL on a few paths; the
        # kernel measures again only the entries it renormalized, and the
        # field still equals a recount over every final column, bit for bit
        got = _paths(L=30, n=4 * SIM_BLOCK, seed=3)
        assert got.renorm_count > 0
        assert got.radial_drift == max(float(np.abs(np.abs(got.psi[:, k]) - radius(k)).max())
                                       for k in range(1, got.L + 1))
        assert got.radial_drift <= 1e-12

    def test_deterministic(self):
        a = _paths(L=3, n=5000, seed=7)
        b = _paths(L=3, n=5000, seed=7)
        assert np.array_equal(a.Z, b.Z) and np.array_equal(a.psi, b.psi)
        c = _paths(L=3, n=5000, seed=8)
        assert not np.array_equal(a.Z, c.Z)

    def test_block_count_invariance(self):
        # 40000 samples span multiple 16384-blocks; prefix must not depend on total
        a = _paths(L=2, n=40_000, seed=5)
        b = _paths(L=2, n=20_000, seed=5)
        assert np.array_equal(a.Z[:16384], b.Z[:16384])

    def test_levels_are_contiguous_columns(self, paths):
        # poly_eval streams whole levels; a strided column costs ~4x there
        for k in range(paths.L):
            assert paths.Z[:, k].flags.c_contiguous
        for k in range(paths.L + 1):
            assert paths.psi[:, k].flags.c_contiguous

    @staticmethod
    def _angles(n, L, seed):
        """The (n, L) angles of the paths, drawn block by block in row-major
        order from the children of SeedSequence(seed)."""
        blocks = (n + SIM_BLOCK - 1) // SIM_BLOCK
        return np.concatenate([
            np.random.default_rng(child).uniform(
                0.0, 2.0 * np.pi, size=(min(SIM_BLOCK, n - b * SIM_BLOCK), L))
            for b, child in enumerate(np.random.SeedSequence(entropy=seed).spawn(blocks))])

    def test_matches_row_major_reference(self):
        n, L, seed = 2 * SIM_BLOCK + 5, 3, 11
        got = _paths(L=L, n=n, seed=seed)
        t = np.tan(self._angles(n, L, seed) / 2.0)
        Z = np.empty((n, L), dtype=np.complex128)
        Z.real = (1.0 - t * t) / (1.0 + t * t)
        Z.imag = 2.0 * t / (1.0 + t * t)
        psi = np.zeros((n, L + 1), dtype=np.complex128)
        for b in range(3):
            lo, hi = b * SIM_BLOCK, min((b + 1) * SIM_BLOCK, n)
            for k in range(1, L + 1):
                rk = radius(k)
                w = psi[lo:hi, k - 1] / rk
                z = Z[lo:hi, k - 1]
                psi[lo:hi, k] = rk * (z + w) / (1.0 + np.conj(w) * z)
        assert got.renorm_count == 0
        assert np.ascontiguousarray(got.Z).tobytes() == Z.tobytes()
        assert np.ascontiguousarray(got.psi).tobytes() == psi.tobytes()

    def test_draws_are_exp_itheta_to_two_ulp(self):
        # the tan(theta / 2) form is not exp(i theta) bit for bit; both are
        # unimodular to rounding, exp itself to 2.2e-16
        n, L, seed = 3 * SIM_BLOCK, 4, 5
        Z = _paths(L=L, n=n, seed=seed).Z
        assert np.abs(Z - np.exp(1j * self._angles(n, L, seed))).max() <= 4.5e-16
        assert np.abs(np.abs(Z) - 1.0).max() <= 4.5e-16

    def test_uniform_angles(self, paths):
        # psi_k is uniform on its circle: first moment ~ 0
        m = np.abs(paths.psi[:, 2].mean())
        assert m <= 5.0 * radius(2) / np.sqrt(paths.psi.shape[0])


class TestRadialMeans:
    def test_zero_mean_identity(self, paths):
        rng = _rng(11)
        for k in (1, 3, 5):
            f = Polynomial(rng.standard_normal(7) + 1j * rng.standard_normal(7))
            est = _est(radial_samples(paths, f, k))
            assert abs(est.mean) <= 4.0 * est.stderr

    def test_constant_poly_exact(self, paths):
        est = _est(radial_samples(paths, Polynomial([2.5 + 1j]), 2))
        assert est.mean == 0 and est.stderr == 0

    def test_level_bounds(self, paths):
        with pytest.raises(errors.ConfigurationError):
            radial_samples(paths, Polynomial([1.0]), 6)


class TestEtaWeights:
    def test_modulus_closed_form(self):
        # r_2/( (r_2^2 - r_1^2) * k * r_1^{k-1} ) at k = 4
        assert eta_modulus(2, 4) == pytest.approx(0.75 / (0.3125 * 4 * 0.125), rel=1e-14)

    def test_sup_is_peak_at_level_two(self):
        sup = eta_modulus_sup(20)
        assert sup == pytest.approx(4.8, abs=1e-12)
        assert sup == pytest.approx(eta_modulus(2, 4), abs=1e-12)

    def test_limit(self):
        # dyadic weights settle toward e^2/2 from below the level-2 peak
        assert eta_modulus(30, 2**30) == pytest.approx(np.exp(2.0) / 2.0, rel=1e-6)
        with pytest.raises(errors.DomainError):
            eta_modulus_sup(1)

    def test_binary_power_matches_numpy_power(self, paths):
        z = np.conj(paths.psi[:, 4]) / radius(4)
        for e in range(1, 65):
            want = z**e
            assert np.abs(_power(z, e) - want).max() <= e * 2.3e-16 * np.abs(want).max(), e

    def test_weights_unimodular_factor(self, paths):
        # |eta_{n-1}(k)| is the closed-form modulus on every path
        for n, k in ((3, 8), (3, 6), (5, 32)):
            w = _eta_weights_at(paths, n, k)
            assert np.abs(np.abs(w) - eta_modulus(n, k)).max() <= 1e-9

    def test_level_validation(self, paths):
        # the extraction level must lie inside both the paths and the spec
        f = Polynomial([0.0, 1.0])
        with pytest.raises(errors.ConfigurationError):
            fourier_samples(paths, f, lacunary_default(5), 0)
        with pytest.raises(errors.ConfigurationError):
            fourier_samples(paths, f, lacunary_default(6), 6)
        with pytest.raises(errors.ConfigurationError):
            fourier_samples(paths, f, lacunary_default(2), 3)


class TestFourierExtraction:
    def test_recovers_coefficients(self, paths):
        rng = _rng(13)
        spec = lacunary_default(5)
        f = Polynomial(rng.standard_normal(35) + 1j * rng.standard_normal(35))
        for n in (2, 3, 4, 5):
            est = _est(fourier_samples(paths, f, spec, n))
            target = f.coeffs[spec.K[n - 1]]
            assert abs(est.mean - target) <= 4.0 * est.stderr

    def test_level_one_increment_is_horner_form(self, paths):
        # psi_0 = 0, where Horner returns F-hat(0) bit for bit
        f = Polynomial(_rng(12).standard_normal(9) + 1j * _rng(21).standard_normal(9))
        horner = poly_eval(f, paths.psi[:, 1]) - poly_eval(f, paths.psi[:, 0])
        assert _increment(paths, f, 1).tobytes() == horner.tobytes()

    def test_level_one_requires_unit_frequency(self, paths):
        f = Polynomial([0.0, 3.0 - 1j, 0.5])
        with pytest.raises(errors.ConfigurationError):
            fourier_samples(paths, f, lacunary_default(5), 1)
        est = _est(fourier_samples(paths, f, LacunarySpec((1, 4, 8)), 1))
        assert abs(est.mean - (3.0 - 1j)) <= 4.0 * est.stderr

    def test_linearity(self, paths):
        # the estimator is linear in the coefficient vector up to rounding
        spec = lacunary_default(5)
        f = Polynomial([0.0, 1.0, 2.0, 0.0, 1j])
        g = Polynomial([1.0, 0.0, 0.0, 4.0, 0.0, 2.0])
        c = np.zeros(6, dtype=np.complex128)
        c[: f.coeffs.size] += 2.0 * f.coeffs
        c[: g.coeffs.size] += 1j * g.coeffs
        a = _est(fourier_samples(paths, f, spec, 2))
        b = _est(fourier_samples(paths, g, spec, 2))
        combo = _est(fourier_samples(paths, Polynomial(c), spec, 2))
        assert abs(combo.mean - (2.0 * a.mean + 1j * b.mean)) <= 1e-10

    def test_out_of_range_coefficient_is_zero(self, paths):
        spec = lacunary_default(5)
        f = Polynomial([0.0, 1.0, 1.0])  # no frequency-8 coefficient
        est = _est(fourier_samples(paths, f, spec, 3))
        assert abs(est.mean) <= 4.0 * est.stderr


class TestMultiplierExtraction:
    def test_matches_fourier_at_block_top(self, paths):
        spec = lacunary_default(5)
        rng = _rng(14)
        f = Polynomial(rng.standard_normal(20) + 1j * rng.standard_normal(20))
        n = 4
        a = _est(fourier_samples(paths, f, spec, n))
        b = _est(multiplier_samples(paths, f, n, spec.K[n - 1]))
        assert a.mean == b.mean and a.stderr == b.stderr

    def test_in_block_frequency(self, paths):
        rng = _rng(15)
        f = Polynomial(rng.standard_normal(9) + 1j * rng.standard_normal(9))
        est = _est(multiplier_samples(paths, f, 3, 6))
        assert abs(est.mean - f.coeffs[6]) <= 4.0 * est.stderr

    def test_block_validation(self, paths):
        f = Polynomial([1.0, 1.0])
        with pytest.raises(errors.ConfigurationError):
            multiplier_samples(paths, f, 3, 4)  # 4 <= 2^{3-1}
        with pytest.raises(errors.ConfigurationError):
            multiplier_samples(paths, f, 3, 9)
        with pytest.raises(errors.ConfigurationError):
            multiplier_samples(paths, f, 1, 1)


class TestOrthogonality:
    def test_vanishes(self, paths):
        rng = _rng(16)
        for n in (2, 4):
            f = Polynomial(rng.standard_normal(6) + 1j * rng.standard_normal(6))
            g = Polynomial(rng.standard_normal(5) + 1j * rng.standard_normal(5))
            est = _est(orthogonality_samples(paths, f, g, n))
            assert abs(est.mean) <= 4.0 * est.stderr

    def test_with_predictable_weight(self, paths):
        # the weight psi_2^2 is a function of the past, so the mean stays 0
        f = Polynomial([0.0, 1.0, 0.5])
        g = Polynomial([0.0, 2.0])
        est = _est(np.multiply(orthogonality_samples(paths, f, g, 3), paths.psi[:, 2] ** 2))
        assert abs(est.mean) <= 4.0 * est.stderr


class TestBridge:
    def test_exact_side_matches_direct_sum(self):
        spec = LacunarySpec((1, 4, 8))
        system = car_jordan_wigner(3)
        g = build_hankel(MultiplierSeq.indicator(spec), spec, system, D=9)
        rng = _rng(17)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        p = Polynomial(rng.standard_normal(12) + 1j * rng.standard_normal(12))
        exact = BridgeForm(g, p, x, y, spec).exact
        direct = sum(
            complex(g.multiplier(kt)) * complex(p.coeffs[kt] if kt <= p.degree else 0.0)
            * complex(y @ (system.elements[t - 1] @ x))
            for t, kt in enumerate(spec.K, start=1)
        )
        assert abs(exact - direct) <= 1e-10 * max(1.0, abs(direct))

    def test_mc_agrees_with_exact(self, paths):
        spec = LacunarySpec((1, 4, 8))
        system = car_jordan_wigner(3)
        g = build_hankel(MultiplierSeq.indicator(spec), spec, system, D=9)
        rng = _rng(18)
        x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        p = Polynomial(rng.standard_normal(10) + 1j * rng.standard_normal(10))
        form = BridgeForm(g, p, x, y, spec)
        mc = form.combine([_est(sample(paths)) for sample in form.samplers()])
        assert abs(mc.mean - form.exact) <= 4.0 * mc.stderr

    def test_monomial_probe(self):
        spec = LacunarySpec((1, 4, 8))
        system = car_jordan_wigner(3)
        g = build_hankel(MultiplierSeq.indicator(spec), spec, system, D=9)
        x = np.zeros(8, dtype=np.complex128)
        x[0] = 1.0
        y = np.zeros(8, dtype=np.complex128)
        y[1] = 1.0
        exact = BridgeForm(g, Polynomial.monomial(4), x, y, spec).exact
        expected = complex(y @ (system.elements[1] @ x))
        assert abs(exact - expected) <= 1e-12

    def test_validation(self):
        spec = LacunarySpec((1, 4, 8))
        other = lacunary_default(3)
        system = car_jordan_wigner(3)
        g = build_hankel(MultiplierSeq.indicator(spec), spec, system, D=9)
        x = np.ones(8, dtype=np.complex128)
        with pytest.raises(errors.ConfigurationError):
            BridgeForm(g, Polynomial([1.0]), x, x, other)
        with pytest.raises(errors.DomainError):
            BridgeForm(g, Polynomial.monomial(18), x, x, spec)


class TestStreaming:
    @staticmethod
    def _samplers():
        rng = _rng(19)
        f, g = (Polynomial(rng.standard_normal(d) + 1j * rng.standard_normal(d))
                for d in (20, 7))
        spec = LacunarySpec((1, 4, 8, 16))
        return {
            "radial": lambda p: radial_samples(p, f, 3),
            "fourier1": lambda p: fourier_samples(p, f, spec, 1),
            "fourier4": lambda p: fourier_samples(p, f, spec, 4),
            "multiplier": lambda p: multiplier_samples(p, f, 3, 6),
            "orthogonality": lambda p: orthogonality_samples(p, f, g, 2),
            "orthogonality_phi": lambda p: np.multiply(orthogonality_samples(p, f, g, 3),
                                                       np.conj(p.psi[:, 2])),
        }

    @pytest.mark.parametrize("n,block", [
        (4 * SIM_BLOCK, 0),       # a SIM_BLOCK-row batch against a larger one
        (SIM_BLOCK + 1, 1),       # a one-row last block
        (3 * SIM_BLOCK + 5, 3),   # a five-row last block
    ])
    def test_block_samples_equal_full_batch_rows(self, n, block):
        # products are taken in one order into fresh arrays, so neither
        # numpy's temporary elision (which swaps operands at 256 KiB) nor a
        # one-element in-place product changes a sample with the batch size
        cfg = MartingaleConfig(L=4, n_samples=n, seed=9)
        full = simulate_paths(cfg)
        drawn = []

        def copy_block(paths):  # the stream's next block overwrites this one
            drawn.append(replace(paths, Z=paths.Z.copy(order="F"),
                                 psi=paths.psi.copy(order="F")))
            return paths.psi[:, 1]

        stream_estimates(cfg, [copy_block])
        part = drawn[block]
        rows = slice(block * SIM_BLOCK, min((block + 1) * SIM_BLOCK, n))
        assert part.psi.shape[0] == rows.stop - rows.start
        assert part.psi.tobytes() == np.ascontiguousarray(full.psi[rows]).tobytes()
        for name, sample in self._samplers().items():
            assert sample(part).tobytes() == sample(full)[rows].tobytes(), name

    def test_stream_reuses_one_workspace(self):
        # every block is drawn into the first block's arrays (the short last
        # one into their leading rows), while simulate_paths allocates anew
        cfg = MartingaleConfig(L=3, n_samples=3 * SIM_BLOCK + 5, seed=2)
        seen = []

        def keep(paths):
            seen.append(paths)
            return paths.psi[:, 1]

        stream_estimates(cfg, [keep])
        assert [p.psi.shape[0] for p in seen] == [SIM_BLOCK] * 3 + [5]
        for p in seen[1:]:
            assert np.shares_memory(p.Z, seen[0].Z) and np.shares_memory(p.psi, seen[0].psi)
        a, b = simulate_paths(cfg), simulate_paths(cfg)
        assert not np.shares_memory(a.Z, b.Z) and not np.shares_memory(a.psi, b.psi)

    def test_reducer_merges_chunks(self):
        # the pairwise merge agrees with the two-pass formulas to rounding,
        # and a single chunk reproduces them exactly
        x = _rng(20).standard_normal(3 * SIM_BLOCK + 7) * (1 + 2j) + 0.5j
        est = McAccumulator().add(x).estimate()
        sd = np.sqrt(np.sum(np.abs(x - x.mean()) ** 2) / (x.size - 1))
        assert abs(est.mean - x.mean()) <= 1e-14
        assert est.stderr == pytest.approx(sd / np.sqrt(x.size), rel=1e-12)
        head = x[:100]
        one = McAccumulator().add(head).estimate()
        assert one.mean == complex(head.mean())
        assert one.stderr == np.sqrt(np.sum(np.abs(head - complex(head.mean())) ** 2) / 99) / 10

    def test_stream_holds_one_block(self):
        # the default L = 6 battery over three full blocks and a five-row one:
        # the traced peak stays within 1.6 blocks of path values, so the
        # blocks share one workspace and Z takes no complex copies
        L = 6
        spec = lacunary_default(L)
        samplers = []
        for i, doc in enumerate(cli._default_mc_checks(L)):
            own, _, _ = cli._mc_estimator(cli._read_check(cli._Keys(doc)), _rng(i), spec,
                                          cli.load_thresholds()[0]["eta"]["sup_n20"])
            samplers += own
        cfg = MartingaleConfig(L=L, n_samples=3 * SIM_BLOCK + 5, seed=1)
        tracemalloc.start()
        try:
            stream_estimates(cfg, samplers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * SIM_BLOCK * (2 * L + 1) * 16
