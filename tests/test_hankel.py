import csv
import json
from dataclasses import FrozenInstanceError
from functools import cached_property, partial

import numpy as np
import pytest

from pbnc import cli, errors, hankel, numkit
from pbnc.coeff_systems import basis_vectors, car_jordan_wigner, haar_unitaries
from pbnc.hankel import (
    BlockHankel,
    LacunarySpec,
    MultiplierSeq,
    ProbeConfig,
    bound_probe,
    bound_scan,
    build_hankel,
    fejer_ascent,
    fejer_poly,
    lacunary_basis_family,
    hankel_map,
    lacunary_default,
    monomial_grid,
    norm_gtf,
    ones_basis_family,
    probe_search,
    random_poly,
    scan_probe_best,
    symbol_block,
)
from pbnc.numkit import (
    DEGREE_CAP,
    Polynomial,
    poly_derivative,
    sup_norm,
    toeplitz,
)
from reference import op_norm


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))


def _small_car_hankel(n=2, D=5):
    spec = lacunary_default(n)
    return build_hankel(MultiplierSeq.indicator(spec), spec, car_jordan_wigner(n), D)


def _haar_cut_hankel():
    """Haar blocks at q = 2, 4, 8 with D = 5: q = 8 > D, so rows start at
    q - D, and the cross products C_q^H C_q' are nonzero."""
    spec = lacunary_default(3)
    return build_hankel(MultiplierSeq.indicator(spec), spec, haar_unitaries(3, 3, seed=4), D=5)


class TestLacunarySpec:
    def test_default(self):
        spec = lacunary_default(4)
        assert spec.K == (2, 4, 8, 16) and spec.L == 4

    def test_first_frequency_free(self):
        assert LacunarySpec((1, 4, 8)).K == (1, 4, 8)
        assert LacunarySpec((2, 3)).K == (2, 3)

    def test_dyadic_window_enforced(self):
        with pytest.raises(errors.ConfigurationError):
            LacunarySpec((2, 5))  # 5 > 2^2
        with pytest.raises(errors.ConfigurationError):
            LacunarySpec((2, 4, 4))  # not increasing
        with pytest.raises(errors.ConfigurationError):
            LacunarySpec((0, 2))
        with pytest.raises(errors.ConfigurationError):
            LacunarySpec(())

    def test_freq_map(self):
        assert lacunary_default(3).freq_map() == {2: 1, 4: 2, 8: 3}


def _block_sum(m: MultiplierSeq, n: int) -> float:
    """Sum of |m(k)|^2 over the dyadic block 2^{n-1} < k <= 2^n, n >= 1."""
    return sum(abs(m(k)) ** 2 for k in range(2 ** (n - 1) + 1, 2**n + 1))


class TestMultiplierSeq:
    def test_indicator(self):
        m = MultiplierSeq.indicator(lacunary_default(3))
        assert m.support == (2, 4, 8)
        assert m(4) == 1.0 and m(3) == 0j

    def test_zero_values_dropped(self):
        m = MultiplierSeq({2: 0.0, 4: 1.0})
        assert m.support == (4,)

    def test_frequency_validated(self):
        with pytest.raises(errors.ConfigurationError):
            MultiplierSeq({0: 1.0})
        with pytest.raises(errors.ConfigurationError):
            MultiplierSeq({2.5: 1.0})

    def test_block_sums(self):
        lac = MultiplierSeq.indicator(lacunary_default(4))
        for n in range(1, 5):
            assert _block_sum(lac, n) == pytest.approx(1.0)
        ones = MultiplierSeq.ones(16)
        # block (2^{n-1}, 2^n] holds 2^{n-1} integers
        for n in range(1, 5):
            assert _block_sum(ones, n) == pytest.approx(2.0 ** (n - 1))


class TestBlockHankel:
    def test_hankel_property_exact(self):
        g = _small_car_hankel()
        out_dim, in_dim = g.block_shape
        blocks = g.flat().reshape(g.D, out_dim, g.D, in_dim)
        for i in range(g.D):
            for j in range(g.D):
                assert np.array_equal(blocks[i, :, j, :], blocks[j, :, i, :])

    def test_coefficient_scaling(self):
        g = _small_car_hankel(n=2, D=5)
        c2 = g.coefficients[2]
        assert np.allclose(c2, 0.5 * car_jordan_wigner(2).elements[0], atol=1e-15)
        assert 3 not in g.coefficients

    def test_unsupported_block_is_zero(self):
        g = _small_car_hankel(n=2, D=5)
        out_dim, in_dim = g.block_shape
        blocks = g.flat().reshape(g.D, out_dim, g.D, in_dim)
        assert not blocks[1, :, 1, :].any()  # frequency 3 unsupported

    def test_flat_layout(self):
        g = _small_car_hankel(n=2, D=4)
        flat = g.flat()
        assert flat.shape == g.flat_shape
        h = g.block_shape[0]
        for i in range(4):
            for j in range(4):
                want = g.coefficients.get(i + j + 1, np.zeros(g.block_shape))
                assert np.array_equal(flat[i * h : (i + 1) * h, j * h : (j + 1) * h], want)

    def test_gram_equals_flat_product(self):
        for g in [_small_car_hankel(n=2, D=6), lacunary_basis_family(9), ones_basis_family(5),
                  _haar_cut_hankel()]:
            flat = g.flat()
            assert np.abs(g.gram() - flat.conj().T @ flat).max() <= 1e-12

    def test_gram_diagonal_fast_path(self):
        for g in [lacunary_basis_family(9), ones_basis_family(9)]:
            diag = g.gram_diagonal_or_none()
            assert diag is not None
            full = g.gram()
            assert np.array_equal(np.diag(full).real, diag)
            assert np.abs(full - np.diag(diag)).max() <= 1e-14
        assert _small_car_hankel().gram_diagonal_or_none() is None

    def test_gram_diagonal_none_on_shared_element(self):
        # frequencies 1 and 2 both map to e_1: C_1^H C_2 != 0
        m = MultiplierSeq({1: 1.0, 2: 1.0})
        g = build_hankel(m, LacunarySpec((1,)), basis_vectors(1), D=3, freq_map={1: 1, 2: 1})
        assert g.gram_diagonal_or_none() is None
        assert np.abs(g.gram() - np.diag(np.diag(g.gram()))).max() > 0

    def test_gram_diagonal_cached_read_only(self):
        g = ones_basis_family(9)
        first = g.gram_diagonal_or_none()
        again = g.gram_diagonal_or_none()
        assert np.array_equal(first, again)
        assert not again.flags.writeable
        with pytest.raises(ValueError):
            again[0] = 1.0

    def test_gram_cached_read_only(self, monkeypatch):
        builds, build = [], BlockHankel._gram.func
        counting = cached_property(lambda self: builds.append(self) or build(self))
        counting.__set_name__(BlockHankel, "_gram")
        monkeypatch.setattr(BlockHankel, "_gram", counting)
        g, h = _small_car_hankel(n=2, D=6), lacunary_basis_family(9)
        first = g.gram()
        for _ in range(3):
            assert g.gram() is first
        h.gram()
        h.gram()
        assert builds == [g, h]
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0

    def test_frozen(self):
        g = ones_basis_family(5)
        with pytest.raises(FrozenInstanceError):
            g.D = 6

    def test_apply_flat_matches_dense(self):
        rng = _rng(3)
        beyond = build_hankel(
            MultiplierSeq.indicator(LacunarySpec((4,))), LacunarySpec((4,)),
            haar_unitaries(1, 3, seed=4), D=2,
        )  # q = 4 > 2D - 1: no coefficients, G = 0
        assert not beyond.coefficients
        cases = [
            _small_car_hankel(n=2, D=6),  # every q <= D
            ones_basis_family(1),  # (2D-1) x 1 blocks, q up to 2D-1
            ones_basis_family(2),
            ones_basis_family(5),
            lacunary_basis_family(9),  # q = 16 > D: rows start at q - D
            _haar_cut_hankel(),
            beyond,
        ]
        for g in cases:
            flat = g.flat()
            x = rng.standard_normal(flat.shape[1]) + 1j * rng.standard_normal(flat.shape[1])
            y = rng.standard_normal(flat.shape[0]) + 1j * rng.standard_normal(flat.shape[0])
            gx = g.apply_flat(x)
            ghy = g.apply_flat_adjoint(y)
            assert np.allclose(gx, flat @ x, atol=1e-13)
            assert np.allclose(ghy, flat.conj().T @ y, atol=1e-13)
            assert np.vdot(y, gx) == pytest.approx(np.vdot(ghy, x), abs=1e-12)

    def test_flat_budget(self):
        with pytest.raises(errors.ConfigurationError):
            ones_basis_family(513).flat()


class TestBuildHankel:
    def test_unmapped_frequency_rejected(self):
        spec = lacunary_default(2)
        m = MultiplierSeq({2: 1.0, 4: 1.0, 3: 1.0})
        with pytest.raises(errors.ConfigurationError):
            build_hankel(m, spec, car_jordan_wigner(2), D=5)

    def test_support_beyond_window_ignored(self):
        # frequency 8 > 2D-1 = 5 never appears in a D=3 truncation
        spec = lacunary_default(3)
        g = build_hankel(MultiplierSeq.indicator(spec), spec, car_jordan_wigner(3), D=3)
        assert sorted(g.coefficients) == [2, 4]

    def test_zero_multiplier_gives_zero_matrix(self):
        spec = lacunary_default(2)
        m = MultiplierSeq({})
        g = build_hankel(m, spec, car_jordan_wigner(2), D=4)
        assert not g.flat().any()
        assert op_norm(g.flat()).value == 0.0

    def test_bad_freq_map_element(self):
        spec = lacunary_default(2)
        with pytest.raises(errors.ConfigurationError):
            build_hankel(
                MultiplierSeq.indicator(spec), spec, car_jordan_wigner(2), D=4,
                freq_map={2: 1, 4: 7},
            )


class TestSymbol:
    def test_roundtrip_exact(self):
        # every block equals m(q)/q * C_phi(q), q = i + j + 1, rebuilt here
        # from the multiplier, frequency map and system
        for g in [_small_car_hankel(n=3, D=9), lacunary_basis_family(9), ones_basis_family(5)]:
            out_dim, in_dim = g.block_shape
            blocks = g.flat().reshape(g.D, out_dim, g.D, in_dim)
            for i in range(g.D):
                for j in range(g.D):
                    q = i + j + 1
                    mq = g.multiplier(q)
                    ref = (np.zeros(g.block_shape) if mq == 0
                           else (mq / q) * g.system.elements[g.freq_map[q] - 1])
                    assert np.array_equal(blocks[i, :, j, :], ref)
                    assert np.array_equal(symbol_block(g, q), ref)

    def test_coefficient_indexing(self):
        g = _small_car_hankel(n=2, D=5)
        nonzero = {q for q in range(1, 2 * g.D) if symbol_block(g, q).any()}
        assert nonzero == set(g.coefficients) == {2, 4}


class TestBoundProbe:
    def test_identity_probe_is_operator_norm(self):
        # f = z has T(f') = I, so norm_gtf is exactly ||G||
        for g in [_small_car_hankel(n=2, D=6), lacunary_basis_family(9)]:
            probe = bound_probe(g, Polynomial.monomial(1))
            assert probe.norm_gtf == pytest.approx(op_norm(g.flat()).value, abs=1e-10)

    def test_gram_route_matches_dense(self):
        rng = _rng(8)
        g = _small_car_hankel(n=2, D=6)
        flat = g.flat()
        for _ in range(5):
            f = random_poly(7, rng)
            t = toeplitz(poly_derivative(f), g.D)
            dense = op_norm(flat @ np.kron(t, np.eye(g.block_shape[1]))).value
            assert norm_gtf(g, f) == pytest.approx(dense, abs=1e-10)

    def test_diagonal_route_matches_dense(self):
        rng = _rng(9)
        g = lacunary_basis_family(9)
        flat = g.flat()
        for _ in range(5):
            f = random_poly(9, rng)
            t = toeplitz(poly_derivative(f), g.D)
            dense = op_norm(flat @ t).value
            assert norm_gtf(g, f) == pytest.approx(dense, abs=1e-10)

    def test_gram_budget(self):
        # CAR n = 7 at D = 129: G^H G and T(f') (x) I would each hold
        # (129 * 128)^2 entries, 4.4 GB; the Gram route refuses first
        g = _small_car_hankel(n=7, D=129)
        assert g.gram_diagonal_or_none() is None
        with pytest.raises(errors.ConfigurationError, match="Gram matrix 16512x16512"):
            bound_probe(g, Polynomial.monomial(1))

    def test_ratio_normalization(self):
        g = lacunary_basis_family(9)
        p = bound_probe(g, Polynomial([0.0, 2.0]))  # f = 2z, scale cancels
        q = bound_probe(g, Polynomial.monomial(1))
        assert p.ratio == pytest.approx(q.ratio, rel=1e-12)

    def test_zero_poly_rejected(self):
        with pytest.raises(errors.DomainError):
            bound_probe(_small_car_hankel(), Polynomial([0.0]))

    def test_degree_window(self):
        g = _small_car_hankel(n=2, D=5)
        with pytest.raises(errors.DomainError):
            bound_probe(g, Polynomial.monomial(10))
        bound_probe(g, Polynomial.monomial(9))  # 2D-1 is the last legal degree

    def test_truncation_monotone(self):
        # growing D only adds anti-diagonals: the f = z probe never shrinks
        vals = [bound_probe(lacunary_basis_family(d), Polynomial.monomial(1)).norm_gtf
                for d in (5, 9, 17, 33)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestProbeSearch:
    def test_fejer_coeffs(self):
        f = fejer_poly(3)
        assert np.allclose(f.coeffs, [1.0, 0.75, 0.5, 0.25])
        with pytest.raises(errors.DomainError):
            fejer_poly(-1)

    def test_monomial_grid_modes(self):
        assert monomial_grid(9, (2, 4)) == list(range(10))
        assert monomial_grid(64, ()) == list(range(65))
        sparse = monomial_grid(599, (64, 128, 256))
        assert {0, 64, 127, 256, 257, 512, 599} <= set(sparse) and len(sparse) < 100

    def test_scan_probe_best_beats_monomials(self):
        g = lacunary_basis_family(17)
        cfg = ProbeConfig(n_random=4, ascent_restarts=1, ascent_steps=4)
        best, best_id = scan_probe_best(g, cfg, seed=1)
        ks = monomial_grid(2 * g.D - 1, g.multiplier.support)
        mono_best = max(bound_probe(g, Polynomial.monomial(k)).ratio for k in ks)
        assert best >= mono_best * (1 - 1e-12) and mono_best > 0
        assert ":" in best_id

    @pytest.mark.parametrize("system", ["basis", "car"])
    @pytest.mark.parametrize("kind", ["monomial", "fejer"])
    def test_witness_reproduces_best(self, system, kind):
        # the Hankel map of a diagonal (basis) and a dense (CAR) Gram matrix;
        # without monomials the best is a Fejer mean
        g = lacunary_basis_family(9) if system == "basis" else _small_car_hankel(2, 9)
        max_degree = 2 * g.D - 1
        ks = monomial_grid(max_degree, g.multiplier.support) if kind == "monomial" else ()
        best, best_id = probe_search(partial(hankel_map, g), max_degree, ks, seed=2)
        name, degree = best_id.split(":")
        assert name == kind
        f = Polynomial.monomial(int(degree)) if kind == "monomial" else fejer_poly(int(degree))
        solve, _ = hankel_map(g, _rng(3))
        assert solve(f)[0] / sup_norm(f).certified_upper == pytest.approx(best, rel=1e-9)
        assert bound_probe(g, f).ratio == pytest.approx(best, rel=1e-9)

    @pytest.mark.parametrize("g", [_small_car_hankel(2, 9), ones_basis_family(6)],
                             ids=["car", "ones"])
    def test_gradient_matches_pairing_loop(self, g):
        # the ascent direction from one subdiagonal-sum GEMM against the
        # per-shift loop sum_j <(W^H u)_{j+k}, v_j> on the solve's own (u, v)
        diag = g.gram_diagonal_or_none()
        wh = g.apply_flat_adjoint if diag is None else (lambda y: np.sqrt(diag) * y)
        solve, direction = hankel_map(g, _rng(4))
        D, in_dim = g.D, g.block_shape[1]
        for f in (random_poly(7, _rng(5)), fejer_poly(5)):
            _, u, v = solve(f)
            grad = direction(u, v)
            gu, vb = wh(u).reshape(D, in_dim), v.reshape(D, in_dim)
            loop = np.zeros(2 * D, dtype=np.complex128)
            for k in range(D):
                loop[k + 1] = (k + 1) * np.conj(np.vdot(gu[k:], vb[: D - k]))
            assert np.abs(grad - loop).max() <= 1e-12 * np.abs(loop).max()

    def test_fejer_ascent_passes_the_certified_bound(self):
        # the renormalizing FFT's bound, rescaled, stands in for sup_norm(f):
        # a solve that returns sup_norm(f)'s bound at step j and a negligible
        # norm at every other step makes the best ratio that of step j
        for j in range(6):
            rng = np.random.default_rng(3)
            seen = []

            def solve(f, start=None):
                seen.append(f)
                sigma = sup_norm(f).certified_upper if len(seen) == j + 1 else 1e-300
                return sigma, None, np.zeros(2)

            def direction(u, v):
                return rng.standard_normal(9) + 1j * rng.standard_normal(9)

            best = fejer_ascent(random_poly(4, rng), 8, 6, solve, direction)
            assert len(seen) == 6 and best == pytest.approx(1.0, rel=4e-16)

    def test_ascent_starts_each_solve_from_the_previous_v(self):
        # the first solve starts cold, every later one from the right vector
        # the step before returned
        rng = np.random.default_rng(4)
        starts, vs = [], []

        def solve(f, start=None):
            starts.append(None if start is None else start.copy())
            vs.append(rng.standard_normal(3))
            return 1.0, None, vs[-1]

        def direction(u, v):
            return rng.standard_normal(9) + 1j * rng.standard_normal(9)

        fejer_ascent(random_poly(4, rng), 8, 5, solve, direction)
        assert len(starts) == 5 and starts[0] is None
        assert all(np.array_equal(s, v) for s, v in zip(starts[1:], vs))

    @staticmethod
    def _stub_search(sigma_of, **budget):
        """probe_search over a map whose i-th solve returns the norm
        ``sigma_of(i)``, with the polynomials it solved; a direction is never
        asked for."""
        seen = []

        def map_of(rng):
            def solve(f, start=None):
                seen.append(f)
                return sigma_of(len(seen) - 1), None, None

            return solve, lambda u, v: pytest.fail("the ascent asked for a direction")

        best, best_id = probe_search(map_of, 12, range(13), n_random=6, n_degrees=3, seed=5,
                                     **budget)
        return best, best_id, seen

    def test_stub_map_ratio_is_sigma_over_certified_sup(self):
        # a norm of 0.5 at candidate i alone: the search returns that
        # candidate's sigma over sup_norm's certified bound, under its id
        ids = ([f"monomial:{k}" for k in range(13)] + [f"fejer:{d}" for d in (2, 4, 8)]
               + [f"random:{i}" for i in range(6)])
        for i, poly_id in enumerate(ids):
            best, best_id, seen = self._stub_search(lambda call: 0.5 if call == i else 0.0)
            assert len(seen) == len(ids)
            assert best == 0.5 / sup_norm(seen[i]).certified_upper and best_id == poly_id

    def test_stub_map_zero_norm_ends_the_ascent(self):
        # two ascents of up to 5 steps each make one solve apiece
        best, best_id, seen = self._stub_search(lambda call: 0.0, ascent_restarts=2,
                                                ascent_steps=5)
        assert len(seen) == 22 + 2
        assert best == 0.0 and best_id == "none"

    def test_no_random_candidate_below_degree_two(self):
        # max_degree 1: z^0, z^1 and the two ascents, no Fejer mean (degree
        # 2 and up) and no random candidate, with no degree to split over
        seen = []

        def map_of(rng):
            def solve(f, start=None):
                seen.append(f)
                return 0.0, None, None

            return solve, lambda u, v: pytest.fail("the ascent asked for a direction")

        assert probe_search(map_of, 1, range(2), n_random=6, n_degrees=3, ascent_restarts=2,
                            ascent_steps=3, seed=5) == (0.0, "none")
        assert [f.degree for f in seen] == [0, 1, 1, 1]

    def test_hankel_map_solve_cap_is_loud(self, monkeypatch):
        # the one probe solve: capped at 2 steps it raises, with a Rayleigh
        # value that is positive and never above the exact norm
        g = _small_car_hankel(2, 9)
        f = random_poly(6, _rng(24))
        monkeypatch.setattr(hankel, "PROBE_STEP_CAP", 2)
        solve, _ = hankel_map(g, _rng(25))
        with pytest.raises(errors.NonConvergenceError) as exc:
            solve(f)
        assert exc.value.iterations == 2
        assert 0.0 < exc.value.last_estimate <= norm_gtf(g, f) * (1 + 1e-12)

    def test_one_term_hankel_map_solve_is_a_shift(self, monkeypatch):
        # T(f') of a monomial c z^k is c k S^(k-1), zero for k = 0 and k > D:
        # the solve builds no D x D Toeplitz matrix and keeps the exact norm
        g = _small_car_hankel(2, 9)
        polys = [Polynomial.monomial(k, 0.5 - 2j) for k in (0, 1, 4, 9, 10, 17)]
        want = [norm_gtf(g, f) for f in polys]

        def no_toeplitz(*args, **kwargs):
            raise AssertionError("a one-term factor built a dense Toeplitz matrix")

        for module in (numkit, hankel):
            monkeypatch.setattr(module, "toeplitz", no_toeplitz)
        solve, _ = hankel_map(g, _rng(26))
        for f, norm in zip(polys, want):
            assert solve(f)[0] == pytest.approx(norm, rel=1e-10, abs=1e-12)

    def test_random_poly_degree_cap(self):
        rng = _rng(6)
        state = rng.bit_generator.state
        with pytest.raises(errors.ConfigurationError, match="cap"):
            random_poly(DEGREE_CAP + 1, rng)
        assert rng.bit_generator.state == state  # refused before any draw
        assert random_poly(DEGREE_CAP, rng).degree == DEGREE_CAP


class TestBoundScan:
    CFG = ProbeConfig(n_random=4, ascent_restarts=1, ascent_steps=4)

    def test_deterministic(self):
        a = bound_scan("lacunary", [5, 9], self.CFG, seed=3)
        b = bound_scan("lacunary", [5, 9], self.CFG, seed=3)
        assert a == b

    def test_threads_agree(self):
        a = bound_scan("ones", [5, 9, 17], self.CFG, seed=4, threads=1)
        b = bound_scan("ones", [5, 9, 17], self.CFG, seed=4, threads=3)
        assert a == b

    def test_unknown_family(self):
        with pytest.raises(errors.ConfigurationError):
            bound_scan("nope", [5], self.CFG)

    def test_csv_format(self, tmp_path):
        rows = bound_scan("lacunary", [5], self.CFG, seed=2)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "mode": "scan", "families": ["lacunary"], "D_list": [5], "seed": 2,
            "probe": {"n_random": 4, "ascent_restarts": 1, "ascent_steps": 4},
        }))
        assert cli.run(["hankel", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        (run_dir,) = (tmp_path / "out").iterdir()
        with (run_dir / "scan.csv").open(newline="") as fh:
            parsed = list(csv.reader(fh))
        assert parsed[0] == ["D", "family", "best_ratio", "argmax_poly_id", "seed"]
        assert parsed[1][0] == "5" and parsed[1][1] == "lacunary"
        assert float(parsed[1][2]) == pytest.approx(rows[0].best_ratio, rel=1e-11)


class TestFamilies:
    def test_lacunary_family_block_sums(self):
        g = lacunary_basis_family(17)
        for n in range(1, 6):
            assert _block_sum(g.multiplier, n) == pytest.approx(1.0)

    def test_ones_family_support(self):
        g = ones_basis_family(5)
        assert g.multiplier.support == tuple(range(1, 10))
        assert g.system.n == 9

