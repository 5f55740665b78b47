"""Coefficient families (C_1..C_n) and their tensor certificates.

Three kinds are supported:

  * ``car``: anticommuting matrices built through the Jordan-Wigner recipe
    C_k = Z x ... x Z (k-1 factors) x A x I x ... x I with Z = diag(1,-1)
    and A = [[0,1],[0,0]].  Both relations C_iC_j + C_jC_i = 0 and
    C_i*C_j + C_jC_i* = delta_ij I hold exactly, and every unit coefficient
    vector alpha gives ||sum alpha_k C_k|| = 1 (the row bound is attained
    with equality), so the system carries ``row_bound`` = 1.
  * ``haar_unitary``: independent Haar-distributed unitaries, sampled by QR
    of a seeded complex Gaussian matrix with the R-diagonal phase divided
    out.  Row bounds are empirical per seed: ``counterexample.haar_bundle``
    sets ``row_bound`` to the ``row_bound`` ascent's K2.
  * ``basis_vector``: the canonical columns e_k as n x 1 matrices; the row
    bound is exactly 1 since sum alpha_k e_k has norm ||alpha||_2.

The certificates computed here feed the operator-bundle lower bounds.  The
two square constructors set ``tensor_norm``, the exact norm of
M = sum_t conj(C_t) (x) C_t, which the cb certificate reads:

  * CAR: ||M|| = sqrt(floor((n + 1)^2 / 4)), by the quasi-spin reduction.
    The Jordan-Wigner elements are real, so conj(C_t) (x) C_t = C_t (x) C_t;
    pairing the two tensor factors site by site (a permutation unitary)
    turns it into (Z (x) Z)^{(x)(t-1)} (x) |00><11| (x) I on (C^4)^{(x)n}.
    Each site splits into the pair space span{|00>, |11>}, where Z (x) Z = 1
    and |00><11| is the lowering operator s- (|11> -> |00>), and the
    spectator space span{|01>, |10>}, where Z (x) Z = -1 and |00><11| = 0.
    No term changes which sites are spectators, so M is a direct sum over
    the set S of paired sites (and the spectator states) of
    sum_{t in S} +-s-_t, the sign of t fixed by the spectators before t.
    The diagonal unitary diag(1, -1) on each site with a minus sign removes
    the signs, leaving J- = sum_{t in S} s-_t on |S| spins 1/2.  On spin j
    (2j <= |S|) J-|j, m> = sqrt((j + m)(j - m + 1)) |j, m - 1>, and with
    a = j + m in 1..2j the largest a(2j + 1 - a) is floor((2j + 1)^2 / 4),
    which grows with j; the symmetric spin j = n/2 at S = all sites gives
    ||M||^2 = floor((n + 1)^2 / 4).
  * Haar unitaries (any unitaries): ||M|| = n.  The triangle inequality
    gives ||M|| <= sum_t ||conj(C_t)|| ||C_t|| = n, and with row-major vec
    M vec(I) = sum_t vec(conj(C_t) C_t^T) = sum_t vec(conj(C_t C_t^*))
    = n vec(I), so the unit vector vec(I)/sqrt(dim) attains n.

Basis vectors and systems built by hand carry no ``tensor_norm``.
``tensor_conj_norm`` is the independent numerical route to the same norm,
which ``coeffs`` reports and the tests compare the closed forms against:
one matrix-free ``numkit.top_singular`` solve on X -> sum conj(C_t) X C_t^T
(``_tensor_conj_applies``), so the dim^2 x dim^2 operator is never built;
its Rayleigh value is a lower bound on the norm, converged to a 1e-12
residual.  ``trace_witness`` is the rank-one evaluation
|sum tr(C_k X C_k* Y)| at X = Y = I/sqrt(tr I), which can never exceed the
norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import ConfigurationError, DimensionError, DomainError

CAR_MAX_N = 12  # dense elements: n * 4^n complex entries, 3.2 GB at n = 12
HAAR_MAX_ENTRIES = 1 << 27  # n * dim^2 complex entries of the elements, 2.1 GB
BASIS_MAX_N = 1 << 13  # n columns of n entries: n^2 complex entries, 1.1 GB
TENSOR_MAX_DIM = 256  # CAR n <= 8: tensor_conj_norm's apply costs O(n dim^3)
TENSOR_NORM_TOL = 1e-12  # top_singular residual tolerance of tensor_conj_norm
ROW_BOUND_STEP_CAP = 200  # alternating-ascent steps per row_bound restart
# entries of a row_bound group's stacked M (64 KB; U and V^H take as much).
# Lockstep saves Python steps, which matter only for small elements: from
# CAR n = 6 on the SVDs dominate and groups of 1 to 4 time alike, while at
# 1 << 14 the 32 CAR n = 5 restarts raised a coeffs run's peak RSS by 0.8 MB
ROW_BOUND_GROUP_ENTRIES = 1 << 12

_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
_A = np.array([[0, 1], [0, 0]], dtype=np.complex128)
_I2 = np.eye(2, dtype=np.complex128)


@dataclass
class CoefficientSystem:
    kind: str  # car | haar_unitary | basis_vector
    elements: list[np.ndarray]
    seed: int | None = None
    # sup over ||alpha||_2 = 1 of ||sum alpha_k C_k||, the divisor of the cb
    # certificate: exactly 1 for CAR, the empirical K2 of a Haar bundle
    row_bound: float | None = None
    # exact ||sum_t conj(C_t) (x) C_t|| (module docstring): CAR and Haar only
    tensor_norm: float | None = None

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


def car_dim(n: int) -> int:
    """2^n, the side of the CAR elements on n modes; n outside 1..CAR_MAX_N
    is refused before anything is built."""
    if not 1 <= n <= CAR_MAX_N:
        raise ConfigurationError(f"car_jordan_wigner needs 1 <= n <= {CAR_MAX_N}, got {n}")
    return 1 << n


def car_jordan_wigner(n: int) -> CoefficientSystem:
    """CAR system on 2^n dimensions; see the module docstring for the recipe."""
    car_dim(n)
    elements = []
    for k in range(1, n + 1):
        m = np.ones((1, 1), dtype=np.complex128)
        for factor in [_Z] * (k - 1) + [_A] + [_I2] * (n - k):
            m = np.kron(m, factor)
        elements.append(m)
    return CoefficientSystem("car", elements, row_bound=1.0, tensor_norm=np.sqrt((n + 1) ** 2 // 4))


def haar_unitaries(n: int, dim: int, seed: int) -> CoefficientSystem:
    """n independent Haar unitaries, deterministic per seed."""
    if n < 1 or dim < 1:
        raise ConfigurationError("haar_unitaries needs n >= 1 and dim >= 1")
    if n * dim * dim > HAAR_MAX_ENTRIES:
        raise ConfigurationError(
            f"haar_unitaries needs n * dim^2 <= {HAAR_MAX_ENTRIES}, got n = {n}, dim = {dim}")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    elements = []
    for _ in range(n):
        g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        elements.append(q * (d / np.abs(d)))  # phase fix makes the law Haar
    return CoefficientSystem("haar_unitary", elements, seed=seed, tensor_norm=float(n))


def basis_vectors(n: int) -> CoefficientSystem:
    if not 1 <= n <= BASIS_MAX_N:
        raise ConfigurationError(f"basis_vectors needs 1 <= n <= {BASIS_MAX_N}, got {n}")
    elements = []
    for k in range(n):
        e = np.zeros((n, 1), dtype=np.complex128)
        e[k, 0] = 1.0
        elements.append(e)
    return CoefficientSystem("basis_vector", elements)


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
    converged: bool  # no restart's ascent stopped at ROW_BOUND_STEP_CAP


def row_bound(system: CoefficientSystem, restarts: int = 32, seed: int = 0) -> RowBoundEstimate:
    """Best found value of sup over ||alpha||_2 = 1 of ||sum alpha_k C_k||.

    Alternating ascent: for the current alpha take the top singular pair
    (u, v) of M = sum alpha_k C_k, then the optimal coefficients for that
    pair are alpha_k proportional to conj(u* C_k v); iterate to a fixed
    point and keep the max over seeded restarts.  Restart r starts from a
    Gaussian alpha drawn from child r of SeedSequence(seed).  The restarts
    run in lockstep, in groups whose stacked M stay within
    ROW_BOUND_GROUP_ENTRIES entries (one restart per group when a single M
    is larger): one GEMM builds every M of a group, one
    batched SVD gives every pair and one product C v every u* C_k v, and a
    restart leaves its group when its own step stops (a zero gradient or
    sigma unchanged to 1e-13 relative).  The result is a lower bound on the
    true supremum (the maximization is nonconvex); ``converged`` is False
    when some restart stopped at ROW_BOUND_STEP_CAP steps instead of at its
    fixed point.
    """
    if restarts < 1:
        raise ConfigurationError("row_bound needs restarts >= 1")
    n = system.n
    out_dim, in_dim = system.op_dim
    c = np.stack(system.elements)  # (k, i, j)
    c_flat = c.reshape(n, out_dim * in_dim)  # M = alpha @ c_flat
    c_rows = c.reshape(n * out_dim, in_dim)  # (C_k v)_i = (c_rows @ v)[k * out_dim + i]
    starts = []
    for child in np.random.SeedSequence(entropy=seed).spawn(restarts):
        rng = np.random.default_rng(child)
        alpha = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        starts.append(alpha / np.linalg.norm(alpha))
    group = max(1, ROW_BOUND_GROUP_ENTRIES // (out_dim * in_dim))
    best, converged = 0.0, True
    for lo in range(0, restarts, group):
        alpha = np.array(starts[lo : lo + group])
        sigma = np.zeros(len(alpha))
        sigma_prev = np.full(len(alpha), -1.0)
        live = np.arange(len(alpha))  # restarts still stepping
        for _ in range(ROW_BOUND_STEP_CAP):
            u_mat, s, vh = np.linalg.svd((alpha[live] @ c_flat).reshape(-1, out_dim, in_dim))
            sig, u, v = s[:, 0], u_mat[:, :, 0], vh[:, 0].conj()
            cv = (c_rows @ v.T).reshape(n, out_dim, len(live))
            grad = np.einsum("ri,kir->rk", u.conj(), cv)  # u* C_k v
            norm = np.linalg.norm(grad, axis=1)
            moved = norm > 0.0
            alpha[live[moved]] = grad[moved].conj() / norm[moved, None]
            sigma[live] = sig
            stop = ~moved | (np.abs(sig - sigma_prev[live]) < 1e-13 * np.maximum(1.0, sig))
            sigma_prev[live] = sig
            live = live[~stop]
            if not live.size:
                break
        else:
            converged = False
        best = max(best, float(sigma.max()))
    return RowBoundEstimate(best, converged)


def check_tensor_budget(dim: int) -> None:
    """Raise ConfigurationError when ``tensor_conj_norm`` would refuse square
    elements of side ``dim`` (above TENSOR_MAX_DIM), so a caller that knows
    the side from its config can refuse before building anything."""
    if dim > TENSOR_MAX_DIM:
        raise ConfigurationError(
            f"element dimension {dim} exceeds the tensor-norm budget {TENSOR_MAX_DIM}"
        )


def _tensor_conj_applies(system: CoefficientSystem):
    """(apply, apply_adjoint) of M = sum_t conj(C_t) (x) C_t on flat vectors
    of length dim^2.

    With row-major vec, kron(conj C, C) vec(X) = vec(conj(C) X C^T), so the
    apply is X -> sum_t conj(C_t) X C_t^T and the adjoint is
    Y -> sum_t C_t^T Y conj(C_t) on dim x dim reshapes.  Each is one batched
    product X C_t^T (resp. Y conj(C_t)) for every t and one contraction over
    (t, j) with the stacked left factors; M is never built.
    """
    if not system.is_square:
        raise DomainError("tensor_conj_norm needs square elements")
    dim, n = system.op_dim[0], system.n
    c = np.stack(system.elements)  # (t, i, j)
    right = c.transpose(0, 2, 1)  # C_t^T
    right_adj = c.conj()  # conj(C_t)
    # left[i, (t, j)]: the t-th left factor in columns t*dim .. t*dim + dim - 1
    left = right_adj.transpose(1, 0, 2).reshape(dim, n * dim)
    left_adj = right.transpose(1, 0, 2).reshape(dim, n * dim)

    def apply(x: np.ndarray) -> np.ndarray:
        return (left @ (x.reshape(dim, dim) @ right).reshape(n * dim, dim)).reshape(-1)

    def apply_adjoint(y: np.ndarray) -> np.ndarray:
        return (left_adj @ (y.reshape(dim, dim) @ right_adj).reshape(n * dim, dim)).reshape(-1)

    return apply, apply_adjoint


def tensor_conj_norm(system: CoefficientSystem) -> float:
    """||sum_t conj(C_t) (x) C_t|| (a factor swap is a unitary similarity,
    so that is ||sum C_t (x) conj(C_t)||), computed: the independent check
    of the closed form a system carries as ``tensor_norm``.

    One ``numkit.top_singular`` solve on ``_tensor_conj_applies`` from a fixed
    seeded start, so the value is the same run to run; a solve that hits
    LANCZOS_STEP_CAP raises NonConvergenceError.  The value is the Rayleigh
    value ||M x|| of a unit vector x, a lower bound on the norm.
    """
    dim = system.op_dim[0]
    check_tensor_budget(dim)
    apply, apply_adjoint = _tensor_conj_applies(system)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=0))
    est, _, _ = numkit.top_singular(apply, apply_adjoint, dim * dim, rng, TENSOR_NORM_TOL,
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
