import numpy as np
import pytest

from pbnc import coeff_systems, errors
from pbnc.coeff_systems import (
    CoefficientSystem,
    basis_vectors,
    car_jordan_wigner,
    car_relation_residual,
    conj_system,
    haar_unitaries,
    row_bound,
    tensor_conj_norm,
    trace_witness,
)
from pbnc.numkit import op_norm


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
        sys_ = conj_system(car_jordan_wigner(3))
        assert sys_.kind == "car"
        assert car_relation_residual(sys_) <= 1e-12

    def test_row_isometry_identity(self):
        # sum alpha_k C_k has norm exactly ||alpha||_2 under the relations
        sys_ = car_jordan_wigner(3)
        rng = _rng(9)
        for _ in range(10):
            alpha = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            m = sum(a * c for a, c in zip(alpha, sys_.elements))
            assert float(op_norm(m)) == pytest.approx(np.linalg.norm(alpha), abs=1e-12)

    def test_needs_square(self):
        with pytest.raises(errors.DomainError):
            car_relation_residual(basis_vectors(3))


class TestRowBound:
    def test_car_is_one(self):
        for n in range(2, 5):
            rb = row_bound(car_jordan_wigner(n), restarts=4, seed=0)
            assert rb.value == pytest.approx(1.0, abs=1e-6)

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


class TestTensorCertificates:
    # frozen by hand: || sum C_k (x) conj(C_k) || for the anticommuting family
    CAR_TENSOR = {2: np.sqrt(2.0), 3: 2.0, 4: np.sqrt(6.0), 5: 3.0}

    def test_car_values(self):
        for n, ref in self.CAR_TENSOR.items():
            assert tensor_conj_norm(car_jordan_wigner(n)) == pytest.approx(ref, abs=1e-9)

    def test_trace_witness_car(self):
        for n in range(2, 6):
            assert trace_witness(car_jordan_wigner(n)) == pytest.approx(n / 2.0, abs=1e-12)

    def test_witness_below_tensor(self):
        for n in range(2, 6):
            sys_ = car_jordan_wigner(n)
            assert trace_witness(sys_) <= tensor_conj_norm(sys_) + 1e-9

    def test_unitary_tensor_is_n(self):
        for n, dim in [(2, 3), (4, 4)]:
            sys_ = haar_unitaries(n, dim, seed=3)
            assert trace_witness(sys_) == pytest.approx(n, abs=1e-9)
            assert tensor_conj_norm(sys_) == pytest.approx(n, abs=1e-8)

    def test_weighted_matches_dense(self):
        sys_ = haar_unitaries(3, 3, seed=5)
        rng = _rng(8)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        dense = sum(wt * np.kron(c.conj(), c) for wt, c in zip(w, sys_.elements))
        ref = np.linalg.svd(dense, compute_uv=False)[0]
        assert tensor_conj_norm(sys_, w) == pytest.approx(ref, rel=1e-12)

    def test_budget_guard(self):
        with pytest.raises(errors.ConfigurationError):
            tensor_conj_norm(car_jordan_wigner(7))  # 128^2 = 16384 > 4096

    def test_needs_square(self):
        with pytest.raises(errors.DomainError):
            tensor_conj_norm(basis_vectors(3))
        with pytest.raises(errors.DomainError):
            trace_witness(basis_vectors(3))

