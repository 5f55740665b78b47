"""Coefficient families (C_1..C_n) and their tensor certificates.

Three kinds are supported:

  * ``car``: anticommuting matrices built through the Jordan-Wigner recipe
    C_k = Z x ... x Z (k-1 factors) x A x I x ... x I with Z = diag(1,-1)
    and A = [[0,1],[0,0]].  Both relations C_iC_j + C_jC_i = 0 and
    C_i*C_j + C_jC_i* = delta_ij I hold exactly, and every unit coefficient
    vector alpha gives ||sum alpha_k C_k|| = 1 (the row bound is attained
    with equality).
  * ``haar_unitary``: independent Haar-distributed unitaries, sampled by QR
    of a seeded complex Gaussian matrix with the R-diagonal phase divided
    out.  Row bounds are empirical per seed.
  * ``basis_vector``: the canonical columns e_k as n x 1 matrices; the row
    bound is exactly 1 since sum alpha_k e_k has norm ||alpha||_2.

The certificates computed here feed the operator-bundle lower bounds:
``tensor_conj_norm`` is ||sum w_k conj(C_k) (x) C_k|| (w_k = 1 unless
given) and ``trace_witness`` is the rank-one evaluation
|sum tr(C_k X C_k* Y)| at X = Y = I/sqrt(tr I), which can never exceed the
unweighted norm.  The tensor norm is matrix-free: one ``numkit.top_singular``
solve on X -> sum w_k conj(C_k) X C_k^T (``_tensor_conj_applies``), so the
dim^2 x dim^2 operator is never built; its Rayleigh value is a lower bound
on the norm, converged to a 1e-12 residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import ConfigurationError, DimensionError, DomainError

CAR_MAX_N = 12  # dense elements: n * 4^n complex entries, 3.2 GB at n = 12
TENSOR_MAX_DIM = 256  # CAR n <= 8: tensor_conj_norm's apply costs O(n dim^3)
TENSOR_NORM_TOL = 1e-12  # top_singular residual tolerance of tensor_conj_norm
ROW_BOUND_STEP_CAP = 200  # alternating-ascent steps per row_bound restart

_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_A = np.array([[0, 1], [0, 0]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)


@dataclass
class CoefficientSystem:
    kind: str  # car | haar_unitary | basis_vector
    elements: list[np.ndarray]
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("car", "haar_unitary", "basis_vector"):
            raise ConfigurationError(f"unknown system kind {self.kind!r}")
        if not self.elements:
            raise ConfigurationError("a coefficient system needs at least one element")
        shapes = {e.shape for e in self.elements}
        if len(shapes) != 1:
            raise DimensionError(f"elements disagree on shape: {sorted(shapes)}")

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def op_dim(self) -> tuple[int, int]:
        return self.elements[0].shape

    @property
    def is_square(self) -> bool:
        out_dim, in_dim = self.op_dim
        return out_dim == in_dim


def car_jordan_wigner(n: int) -> CoefficientSystem:
    """CAR system on 2^n dimensions; see the module docstring for the recipe."""
    if not 1 <= n <= CAR_MAX_N:
        raise ConfigurationError(f"car_jordan_wigner needs 1 <= n <= {CAR_MAX_N}, got {n}")
    elements = []
    for k in range(1, n + 1):
        m = np.ones((1, 1), dtype=np.complex128)
        for factor in [_Z] * (k - 1) + [_A] + [_I2] * (n - k):
            m = np.kron(m, factor)
        elements.append(m)
    return CoefficientSystem("car", elements)


def haar_unitaries(n: int, dim: int, seed: int) -> CoefficientSystem:
    """n independent Haar unitaries, deterministic per seed."""
    if n < 1 or dim < 1:
        raise ConfigurationError("haar_unitaries needs n >= 1 and dim >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    elements = []
    for _ in range(n):
        g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        elements.append(q * (d / np.abs(d)))  # phase fix makes the law Haar
    return CoefficientSystem("haar_unitary", elements, seed=seed)


def basis_vectors(n: int) -> CoefficientSystem:
    if n < 1:
        raise ConfigurationError("basis_vectors needs n >= 1")
    eye = np.eye(n, dtype=np.complex128)
    return CoefficientSystem("basis_vector", [eye[:, k : k + 1].copy() for k in range(n)])


def conj_system(system: CoefficientSystem) -> CoefficientSystem:
    """Entrywise conjugate of every element; kind is preserved (conjugation
    preserves the CAR relations and unitarity)."""
    return CoefficientSystem(
        system.kind, [np.conj(e) for e in system.elements], seed=system.seed
    )


def car_relation_residual(system: CoefficientSystem) -> float:
    """Max entry of |C_iC_j + C_jC_i| and |C_i*C_j + C_jC_i* - delta_ij I|
    over all pairs."""
    if not system.is_square:
        raise DomainError("relation residuals need square elements")
    eye = np.eye(system.op_dim[0], dtype=np.complex128)
    worst = 0.0
    for i, ci in enumerate(system.elements):
        for j, cj in enumerate(system.elements):
            anti = ci @ cj + cj @ ci
            mixed = ci.conj().T @ cj + cj @ ci.conj().T - (eye if i == j else 0.0)
            worst = max(worst, float(np.abs(anti).max()), float(np.abs(mixed).max()))
    return worst


@dataclass(frozen=True)
class RowBoundEstimate:
    value: float
    restarts: int
    seed: int
    converged: bool  # no restart's ascent stopped at ROW_BOUND_STEP_CAP

    def __float__(self) -> float:
        return self.value


def row_bound(system: CoefficientSystem, restarts: int = 32, seed: int = 0) -> RowBoundEstimate:
    """Best found value of sup over ||alpha||_2 = 1 of ||sum alpha_k C_k||.

    Alternating ascent: for the current alpha take the top singular pair
    (u, v) of M = sum alpha_k C_k, then the optimal coefficients for that
    pair are alpha_k proportional to conj(u* C_k v); iterate to a fixed
    point and keep the max over seeded restarts.  The result is a lower
    bound on the true supremum (the maximization is nonconvex); ``converged``
    is False when some restart stopped at ROW_BOUND_STEP_CAP steps instead of
    at its fixed point.
    """
    if restarts < 1:
        raise ConfigurationError("row_bound needs restarts >= 1")
    n = system.n
    best, converged = 0.0, True
    children = np.random.SeedSequence(entropy=seed).spawn(restarts)
    for child in children:
        rng = np.random.default_rng(child)
        alpha = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        alpha /= np.linalg.norm(alpha)
        sigma_prev = -1.0
        for _ in range(ROW_BOUND_STEP_CAP):
            m = sum(a * c for a, c in zip(alpha, system.elements))
            u_mat, s, vh = np.linalg.svd(m)
            sigma = float(s[0])
            u = u_mat[:, 0]
            v = vh[0].conj()
            grad = np.array([np.vdot(u, c @ v) for c in system.elements])  # u* C_k v
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
    return RowBoundEstimate(best, restarts, seed, converged)


def check_tensor_budget(system: CoefficientSystem) -> None:
    """Raise ConfigurationError when ``tensor_conj_norm`` would refuse the
    system (element dimension above TENSOR_MAX_DIM), so a caller can refuse
    before any other work."""
    dim = system.op_dim[0]
    if dim > TENSOR_MAX_DIM:
        raise ConfigurationError(
            f"element dimension {dim} exceeds the tensor-norm budget {TENSOR_MAX_DIM}"
        )


def _tensor_conj_applies(system: CoefficientSystem, weights=None):
    """(apply, apply_adjoint) of M = sum_t w_t conj(C_t) (x) C_t on flat
    vectors of length dim^2, w_t = 1 when ``weights`` is None.

    With row-major vec, kron(conj C, C) vec(X) = vec(conj(C) X C^T), so the
    apply is X -> sum_t w_t conj(C_t) X C_t^T and the adjoint is
    Y -> sum_t conj(w_t) C_t^T Y conj(C_t) on dim x dim reshapes.  Each is
    one batched product X C_t^T (resp. Y conj(C_t)) for every t and one
    contraction over (t, j) with the stacked left factors; M is never built.
    """
    if not system.is_square:
        raise DomainError("tensor_conj_norm needs square elements")
    dim, n = system.op_dim[0], system.n
    w = np.ones(n) if weights is None else np.asarray(weights, dtype=np.complex128)
    if w.shape != (n,):
        raise DimensionError(f"need {n} weights, got shape {w.shape}")
    c = np.stack(system.elements)  # (t, i, j)
    right = c.transpose(0, 2, 1)  # C_t^T
    right_adj = c.conj()  # conj(C_t)
    # left[i, (t, j)]: the t-th left factor in columns t*dim .. t*dim + dim - 1
    left = (w[:, None, None] * c.conj()).transpose(1, 0, 2).reshape(dim, n * dim)
    left_adj = (np.conj(w)[:, None, None] * right).transpose(1, 0, 2).reshape(dim, n * dim)

    def apply(x: np.ndarray) -> np.ndarray:
        return (left @ (x.reshape(dim, dim) @ right).reshape(n * dim, dim)).reshape(-1)

    def apply_adjoint(y: np.ndarray) -> np.ndarray:
        return (left_adj @ (y.reshape(dim, dim) @ right_adj).reshape(n * dim, dim)).reshape(-1)

    return apply, apply_adjoint


def tensor_conj_norm(system: CoefficientSystem, weights=None) -> float:
    """||sum_t w_t conj(C_t) (x) C_t||, with w_t = 1 when ``weights`` is None
    (a factor swap is a unitary similarity, so that is ||sum C_t (x) conj(C_t)||).

    One ``numkit.top_singular`` solve on ``_tensor_conj_applies`` from a fixed
    seeded start, so the value is the same run to run; a solve that hits
    LANCZOS_STEP_CAP raises NonConvergenceError.  The value is the Rayleigh
    value ||M x|| of a unit vector x, a lower bound on the norm.
    """
    check_tensor_budget(system)
    dim = system.op_dim[0]
    apply, apply_adjoint = _tensor_conj_applies(system, weights)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0))
    est, _ = numkit.top_singular(apply, apply_adjoint, dim * dim, rng, TENSOR_NORM_TOL,
                                 numkit.LANCZOS_STEP_CAP)
    return est.check_converged("tensor_conj_norm").value


def trace_witness(system: CoefficientSystem) -> float:
    """|sum_k tr(C_k X C_k* Y)| at X = Y = I/sqrt(tr I).

    This is |<M vec(X), vec(Y)>| for M = sum C_k (x) conj(C_k) at unit
    Hilbert-Schmidt vectors, hence a certified lower bound on
    tensor_conj_norm.  For CAR systems the value is n/2 exactly; for
    unitaries it is n.
    """
    if not system.is_square:
        raise DomainError("trace_witness needs square elements")
    dim = system.op_dim[0]
    total = sum(np.trace(c @ c.conj().T) for c in system.elements)
    return float(abs(total)) / dim
