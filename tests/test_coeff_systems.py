import numpy as np
import pytest

from pbnc import coeff_systems, errors, numkit
from pbnc.coeff_systems import (
    CoefficientSystem,
    _tensor_conj_applies,
    basis_vectors,
    car_jordan_wigner,
    car_relation_residual,
    haar_unitaries,
    row_bound,
    tensor_conj_norm,
    trace_witness,
)
from reference import op_norm


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(entropy=seed))


class TestConstruction:
    def test_car_shapes(self):
        for n in [1, 2, 4]:
            sys_ = car_jordan_wigner(n)
            assert sys_.n == n
            assert sys_.op_dim == (2**n, 2**n)
            assert sys_.kind == "car" and sys_.is_square

    def test_car_n_bounds(self):
        with pytest.raises(errors.ConfigurationError):
            car_jordan_wigner(0)
        with pytest.raises(errors.ConfigurationError):
            car_jordan_wigner(13)

    def test_basis_vectors(self):
        sys_ = basis_vectors(4)
        assert sys_.op_dim == (4, 1) and not sys_.is_square
        stacked = np.hstack(sys_.elements)
        assert np.array_equal(stacked, np.eye(4, dtype=np.complex128))
        assert all(e.base is None for e in sys_.elements)  # no view into an n x n array

    def test_haar_determinism(self):
        a = haar_unitaries(3, 5, seed=42)
        b = haar_unitaries(3, 5, seed=42)
        c = haar_unitaries(3, 5, seed=43)
        for x, y in zip(a.elements, b.elements):
            assert np.array_equal(x, y)
        assert not np.array_equal(a.elements[0], c.elements[0])

    def test_haar_unitarity(self):
        sys_ = haar_unitaries(4, 6, seed=0)
        for u in sys_.elements:
            assert np.abs(u @ u.conj().T - np.eye(6)).max() <= 1e-12

    def test_validation(self):
        with pytest.raises(errors.ConfigurationError):
            CoefficientSystem("mystery", [np.eye(2)])
        with pytest.raises(errors.ConfigurationError):
            CoefficientSystem("car", [])
        with pytest.raises(errors.DimensionError):
            CoefficientSystem("car", [np.eye(2), np.eye(3)])


class TestCarRelations:
    def test_residual_tiny(self):
        for n in range(1, 5):
            assert car_relation_residual(car_jordan_wigner(n)) <= 1e-12

    def test_conjugate_preserves_relations(self):
        sys_ = CoefficientSystem("car", [np.conj(e) for e in car_jordan_wigner(3).elements])
        assert car_relation_residual(sys_) <= 1e-12

    def test_row_isometry_identity(self):
        # sum alpha_k C_k has norm exactly ||alpha||_2 under the relations
        sys_ = car_jordan_wigner(3)
        rng = _rng(9)
        for _ in range(10):
            alpha = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            m = sum(a * c for a, c in zip(alpha, sys_.elements))
            assert op_norm(m).value == pytest.approx(np.linalg.norm(alpha), abs=1e-12)

    def test_needs_square(self):
        with pytest.raises(errors.DomainError):
            car_relation_residual(basis_vectors(3))


class TestRowBound:
    def test_car_is_one(self):
        # the ascent reaches the exact value a CAR system carries
        for n in range(2, 5):
            system = car_jordan_wigner(n)
            rb = row_bound(system, restarts=4, seed=0)
            assert system.row_bound == 1.0
            assert rb.value == pytest.approx(system.row_bound, abs=1e-6)
        assert haar_unitaries(2, 2, seed=0).row_bound is None

    def test_basis_is_one(self):
        rb = row_bound(basis_vectors(5), restarts=4, seed=0)
        assert rb.value == pytest.approx(1.0, abs=1e-9)

    def test_never_exceeds_triangle_bound(self):
        sys_ = haar_unitaries(4, 4, seed=5)
        rb = row_bound(sys_, restarts=8, seed=1)
        # each element is unitary: ||sum alpha_k C_k|| <= ||alpha||_1 <= 2
        assert 1.0 <= rb.value <= 2.0 + 1e-9

    def test_deterministic_per_seed(self):
        sys_ = haar_unitaries(3, 4, seed=2)
        a = row_bound(sys_, restarts=6, seed=11)
        b = row_bound(sys_, restarts=6, seed=11)
        assert a.value == b.value

    def test_capped_ascent_is_reported(self, monkeypatch):
        sys_ = haar_unitaries(3, 4, seed=2)
        full = row_bound(sys_, restarts=3, seed=4)
        assert full.converged
        monkeypatch.setattr(coeff_systems, "ROW_BOUND_STEP_CAP", 1)
        capped = row_bound(sys_, restarts=3, seed=4)
        assert not capped.converged and 0.0 < capped.value <= full.value

    def test_restart_validation(self):
        with pytest.raises(errors.ConfigurationError):
            row_bound(car_jordan_wigner(2), restarts=0)

    @staticmethod
    def _per_restart_loop(system, restarts, seed):
        """The reference: one restart at a time, scalar steps."""
        best, converged = 0.0, True
        for child in np.random.SeedSequence(entropy=seed).spawn(restarts):
            rng = np.random.default_rng(child)
            alpha = rng.standard_normal(system.n) + 1j * rng.standard_normal(system.n)
            alpha /= np.linalg.norm(alpha)
            sigma_prev = -1.0
            for _ in range(coeff_systems.ROW_BOUND_STEP_CAP):
                u_mat, s, vh = np.linalg.svd(sum(a * c for a, c in zip(alpha, system.elements)))
                sigma, u, v = float(s[0]), u_mat[:, 0], vh[0].conj()
                grad = np.array([np.vdot(u, c @ v) for c in system.elements])
                norm = np.linalg.norm(grad)
                if norm == 0.0:
                    break
                alpha = grad.conj() / norm
                if abs(sigma - sigma_prev) < 1e-13 * max(1.0, sigma):
                    break
                sigma_prev = sigma
            else:
                converged = False
            best = max(best, sigma)
        return best, converged

    @pytest.mark.parametrize("system,restarts,seed,capped", [
        (haar_unitaries(2, 2, seed=3), 32, 0, False),
        (haar_unitaries(4, 4, seed=3), 32, 0, False),
        (haar_unitaries(7, 7, seed=3), 16, 2, False),
        (car_jordan_wigner(3), 32, 0, False),
        (car_jordan_wigner(5), 32, 0, False),  # 1024 entries per M: 8 groups of 4
        (car_jordan_wigner(6), 32, 0, False),  # 4096 entries per M: 32 groups of 1
        (haar_unitaries(7, 7, seed=123), 16, 1, True),  # a restart hits the step cap
    ])
    def test_lockstep_matches_per_restart_loop(self, system, restarts, seed, capped):
        want, want_converged = self._per_restart_loop(system, restarts, seed)
        assert want_converged is not capped
        got = row_bound(system, restarts=restarts, seed=seed)
        assert got.value == pytest.approx(want, rel=1e-12, abs=0)
        assert got.converged == want_converged


class TestTensorCertificates:
    # frozen by hand: ||sum C_k (x) conj(C_k)||^2 = floor((n + 1)^2 / 4) for
    # the anticommuting family, proven in the coeff_systems docstring
    CAR_TENSOR_SQ = {2: 2, 3: 4, 4: 6, 5: 9, 6: 12, 7: 16, 8: 20}

    def test_car_values(self):
        # the solve reaches the closed form car_jordan_wigner sets, n = 2..8
        for n, ref in self.CAR_TENSOR_SQ.items():
            system = car_jordan_wigner(n)
            assert system.tensor_norm**2 == pytest.approx(ref, abs=1e-12)
            assert tensor_conj_norm(system)**2 == pytest.approx(ref, abs=1e-12)

    def test_trace_witness_car(self):
        for n in range(2, 6):
            assert trace_witness(car_jordan_wigner(n)) == pytest.approx(n / 2.0, abs=1e-12)

    def test_witness_below_tensor(self):
        for n in range(2, 6):
            sys_ = car_jordan_wigner(n)
            assert trace_witness(sys_) <= tensor_conj_norm(sys_) + 1e-9

    def test_unitary_tensor_is_n(self):
        for n, dim in [(2, 3), (4, 4), (3, 1)]:
            sys_ = haar_unitaries(n, dim, seed=3)
            assert sys_.tensor_norm == n
            assert trace_witness(sys_) == pytest.approx(n, abs=1e-9)
            assert tensor_conj_norm(sys_) == pytest.approx(sys_.tensor_norm, abs=1e-8)
        assert basis_vectors(3).tensor_norm is None

    def test_budget_guard(self):
        tensor_conj_norm(car_jordan_wigner(1))
        with pytest.raises(errors.ConfigurationError):
            tensor_conj_norm(car_jordan_wigner(9))  # dim 512 > TENSOR_MAX_DIM = 256

    def test_applies_match_kron(self):
        rng = _rng(11)
        for sys_ in [car_jordan_wigner(n) for n in (1, 2, 3)] + [haar_unitaries(3, 4, seed=7)]:
            dense = sum(np.kron(c.conj(), c) for c in sys_.elements)
            apply, apply_adjoint = _tensor_conj_applies(sys_)
            size = dense.shape[1]
            for _ in range(3):
                x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                y = rng.standard_normal(size) + 1j * rng.standard_normal(size)
                assert np.allclose(apply(x), dense @ x, rtol=0, atol=1e-12)
                assert np.allclose(apply_adjoint(y), dense.conj().T @ y, rtol=0, atol=1e-12)
                # <A x, y> = <x, A^H y>
                assert abs(np.vdot(y, apply(x)) - np.vdot(apply_adjoint(y), x)) <= 1e-12

    def test_capped_solve_raises(self, monkeypatch):
        monkeypatch.setattr(numkit, "LANCZOS_STEP_CAP", 1)
        with pytest.raises(errors.NonConvergenceError):
            tensor_conj_norm(car_jordan_wigner(3))

    def test_needs_square(self):
        with pytest.raises(errors.DomainError):
            tensor_conj_norm(basis_vectors(3))
        with pytest.raises(errors.DomainError):
            trace_witness(basis_vectors(3))

