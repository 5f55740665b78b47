"""Dense complex matrix arithmetic, spectral norms, and analytic polynomials.

Conventions fixed here and relied on everywhere else:

  * A matrix is a 2-d numpy array of complex128 values, row-major.
  * ``op_norm`` returns the largest singular value of a dense matrix by an
    exact Hermitian eigensolve of A*A, up to dimension 4096; a larger matrix
    is a DimensionError.  No certificate goes through it; it is the dense
    reference of ``row_bound_check`` and the tests.
  * ``top_singular`` is the package's one matrix-free norm solver
    (Golub-Kahan-Lanczos bidiagonalization with one-sided reorthogonalization,
    full on the right basis only, and thick restarts): a Rayleigh lower
    bound, its residual and a ``converged`` flag that means the residual test
    passed, never a raise.  Every ``P(T)`` norm and every tensor certificate
    is one such solve.
  * Analytic polynomials are Taylor coefficient vectors P-hat(0..deg); the
    sup norm over the unit circle is certified from a roots-of-unity grid
    through the Bernstein derivative bound ||P'|| <= deg * ||P||.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    NonConvergenceError,
)

OP_NORM_EXACT_MAX_DIM = 4096
LANCZOS_STEP_CAP = 100_000  # step cap of tensor_conj_norm
RESTART_STEPS = 40  # top_singular's basis size: it restarts when the basis is full
RESTART_KEEP = 10  # Ritz pairs a top_singular restart keeps
CHECK_EVERY_STEP = 12  # top_singular tests the residual at each of a cycle's first steps
DEGREE_CAP = 1 << 16
HORNER_CHUNK = 1 << 14  # points poly_eval's accumulator covers at a time (256 KB)


def as_matrix(a) -> np.ndarray:
    """Coerce to a C-ordered complex128 2-d array and require finite entries."""
    m = np.ascontiguousarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")
    return m


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str  # "exact-eigensolve" | "golub-kahan-lanczos"
    iterations: int
    converged: bool = True  # the residual test passed
    residual: float = 0.0  # ||A^H u - value v|| of the returned pair (0 when exact)

    def __float__(self) -> float:
        return self.value

    def check_converged(self, what: str) -> "NormEstimate":
        """Self, or NonConvergenceError(iterations, value) for a capped solve."""
        if not self.converged:
            raise NonConvergenceError(f"{what} did not converge in {self.iterations} "
                                      "iterations", self.iterations, self.value)
        return self


def op_norm(a) -> NormEstimate:
    """Largest singular value of ``a``: Hermitian eigensolve of the Gram
    matrix on the smaller side, largest eigenvalue, square root.  A side
    longer than OP_NORM_EXACT_MAX_DIM raises DimensionError; matrix-free
    norms go through ``top_singular``.
    """
    a = as_matrix(a)
    if max(a.shape) > OP_NORM_EXACT_MAX_DIM:
        raise DimensionError(f"op_norm is exact only up to dimension {OP_NORM_EXACT_MAX_DIM}, "
                             f"got shape {a.shape}")
    if a.size == 0:
        return NormEstimate(0.0, "exact-eigensolve", 0)
    # Gram matrix on the smaller side has the same nonzero spectrum.
    if a.shape[0] <= a.shape[1]:
        gram = a @ a.conj().T
    else:
        gram = a.conj().T @ a
    w = np.linalg.eigvalsh(gram)
    value = float(np.sqrt(max(w[-1], 0.0)))
    return NormEstimate(value, "exact-eigensolve", 0)


def top_singular(apply, apply_adjoint, dim: int, rng: np.random.Generator,
                 tol: float, max_iter: int) -> tuple[NormEstimate, np.ndarray, np.ndarray]:
    """Top singular value of A (matvec closures) with its left and right
    Ritz vectors (u, x), by Golub-Kahan-Lanczos bidiagonalization from a
    complex Gaussian start drawn from ``rng``.

    Step k applies A and A^H once each.  The reorthogonalization is
    one-sided (Simon & Zha 2000): A^H u_k is orthonormalized against the
    whole preallocated V basis (twice, classical Gram-Schmidt), while A v_k
    is projected once on u_{k-1} only, except at a cycle's first step, where
    it is projected twice on every kept u to form the restart's coupling
    column.  So
    A V_k = U_k B_k and A^H U_k = V_k B_k^H + beta_k v_{k+1} e_k^T with
    B_k real upper triangular (bidiagonal until a restart).
    The top singular triple (sigma, p, q) of B_k gives x = V_k q with
    residual ||A^H (A x / sigma) - sigma x|| = beta_k |e_k^T p|, tested after
    each of a cycle's first CHECK_EVERY_STEP steps and every third step
    after.  The solve converges when that residual is <= tol * sigma, or on
    a breakdown (a new basis vector of norm <= tol times the largest one
    kept) or an exhausted Krylov space (k = min(rows, cols)), where B_k is
    exact and the residual reported is the dropped norm.  When the basis
    holds RESTART_STEPS vectors it restarts thick: the top
    RESTART_KEEP Ritz pairs and v_{k+1} stay, B_k becomes diag(sigma) plus
    one coupling column (Baglama & Reichel 2005).  After ``max_iter`` steps
    it comes back with converged=False.  The value is the Rayleigh value
    ||A x|| of the unit vector x, a lower bound converged or not, and
    u = A x / ||A x|| comes from that same apply (u = A x when A x = 0)."""
    if max_iter < 1:
        raise DomainError("top_singular needs max_iter >= 1")
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    u = apply(x)
    rows = u.size
    m = min(RESTART_STEPS, min(rows, dim) + 1)
    vb = np.empty((m + 1, dim), dtype=np.complex128)  # V, one basis vector per row
    ub = np.empty((m, rows), dtype=np.complex128)
    bmat = np.zeros((m, m))  # U^H A V, real up to rounding: alpha, beta >= 0
    vb[0] = x
    lock, steps, scale, converged = 0, 0, 0.0, False
    while True:
        exact = False
        for k in range(lock, min(m, lock + max_iter - steps)):
            steps += 1
            if steps > 1:  # the first step's A x is the ``u`` applied above
                u = apply(vb[k])
            # one-sided: a cycle's first A v_k is projected on every kept u
            # (the coupling column), later ones once on u_{k-1} only; a V kept
            # orthonormal keeps U orthogonal to working accuracy
            lo, passes = (0, 2) if k == lock else (k - 1, 1)
            u, coeffs, alpha = _orthonormalize(u, ub[lo:k], passes)
            bmat[lo:k, k] = coeffs.real
            if k == rows or alpha <= tol * scale:
                exact, residual = True, (0.0 if k == rows else alpha)
                break
            scale = max(scale, alpha)
            bmat[k, k], ub[k] = alpha, u
            if k + 1 == dim:
                exact, residual = True, 0.0
                break
            w, _, beta = _orthonormalize(apply_adjoint(ub[k]), vb[: k + 1])
            if beta <= tol * scale:
                exact, residual = True, beta
                break
            scale = max(scale, beta)
            vb[k + 1] = w
            kk = k + 1
            if kk == m or steps == max_iter or kk - lock <= CHECK_EVERY_STEP or kk % 3 == 0:
                p, s, qh = np.linalg.svd(bmat[:kk, :kk])
                residual = float(beta * abs(p[kk - 1, 0]))
                converged = bool(residual <= tol * s[0])
                if converged:
                    break
        if exact:
            kk = k + 1
            p, s, qh = np.linalg.svd(bmat[:kk, :kk])
            converged = True
        if converged or steps >= max_iter:
            break
        lock = min(RESTART_KEEP, kk - 1)
        vb[:lock] = qh[:lock].conj() @ vb[:kk]
        ub[:lock] = p[:, :lock].T @ ub[:kk]
        vb[lock] = vb[kk]
        bmat[:] = 0.0
        bmat[:lock, :lock] = np.diag(s[:lock])
    x = qh[0].conj() @ vb[:kk]
    x /= np.linalg.norm(x)
    ax = apply(x)
    nrm = np.linalg.norm(ax)
    est = NormEstimate(float(nrm), "golub-kahan-lanczos", steps, converged, residual)
    return est, (ax / nrm if nrm > 0 else ax), x


def _orthonormalize(w: np.ndarray, basis: np.ndarray,
                    passes: int = 2) -> tuple[np.ndarray, np.ndarray, float]:
    """``w`` projected off the orthonormal rows of ``basis`` ``passes`` times
    (classical Gram-Schmidt) and scaled to unit length, with the projection
    coefficients and its norm before scaling."""
    coeffs = np.zeros(len(basis), dtype=np.complex128)
    for _ in range(passes):
        h = (basis @ w.conj()).conj()
        w = w - h @ basis
        coeffs += h
    nrm = float(np.linalg.norm(w))
    return (w / nrm if nrm > 0.0 else w), coeffs, nrm


def subdiagonal_sums(m: np.ndarray) -> np.ndarray:
    """s[k] = sum_i m[i, i - k] for k = 0..D-1 of a D x D matrix.

    With m = conj(A) C^T for D x h block rows A, C this is
    s[k] = sum_i <A_i, C_{i-k}>, the pairing of A with C shifted down by k
    block rows, for every k from one GEMM."""
    d = m.shape[0]
    i, j = np.tril_indices(d)
    k = i - j
    return np.bincount(k, m.real[i, j], d) + 1j * np.bincount(k, m.imag[i, j], d)


# ---------------------------------------------------------------------------
# analytic polynomials


class Polynomial:
    """Analytic polynomial sum_k c_k z^k held as its coefficient vector.

    Exact trailing zeros are trimmed on construction so ``degree`` is honest;
    the zero polynomial is kept as the single coefficient 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.atleast_1d(np.asarray(coeffs, dtype=np.complex128)).ravel()
        if c.size == 0:
            c = np.zeros(1, dtype=np.complex128)
        if not np.isfinite(c).all():
            raise DomainError("polynomial has non-finite coefficients")
        nz = np.nonzero(c)[0]
        c = c[: nz[-1] + 1] if nz.size else c[:1]
        if c.size - 1 > DEGREE_CAP:
            raise ConfigurationError(f"degree {c.size - 1} exceeds cap {DEGREE_CAP}")
        c = c.copy()
        c.setflags(write=False)
        self.coeffs = c

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs.size == 1 and self.coeffs[0] == 0

    @classmethod
    def monomial(cls, k: int, coeff: complex = 1.0) -> "Polynomial":
        if k < 0:
            raise DomainError("monomial exponent must be >= 0")
        c = np.zeros(k + 1, dtype=np.complex128)
        c[k] = coeff
        return cls(c)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash(self.coeffs.tobytes())

    def __repr__(self) -> str:
        return f"Polynomial(degree={self.degree})"


def poly_derivative(p: Polynomial) -> Polynomial:
    c = p.coeffs
    if c.size == 1:
        return Polynomial([0.0])
    return Polynomial(c[1:] * np.arange(1, c.size))


def poly_eval(p: Polynomial, z):
    """Horner evaluation; ``z`` may be a scalar (returns ``complex``) or an
    ndarray of any shape and strides (returns an array of that shape).

    The points are taken in contiguous chunks of ``HORNER_CHUNK``, and each
    chunk runs every Horner step into preallocated buffers while its
    accumulator and points stay in cache; a strided input is copied once per
    chunk instead of being re-read at every degree.  Per point the
    operations and their order are those of ``acc = acc * z + c``, so the
    values are bit-identical to the plain loop.  The product goes to a
    second buffer, not back into ``acc``: numpy 2.4 on an AVX-512 CPU rounds
    a one-element in-place complex product without the fused multiply-add of
    its vector loop, so a one-point last chunk would differ in the last bit.
    """
    z = np.asarray(z, dtype=np.complex128)
    flat = z.reshape(-1)
    out = np.empty(flat.size, dtype=np.complex128)
    scratch = np.empty(min(flat.size, HORNER_CHUNK), dtype=np.complex128)
    for lo in range(0, flat.size, HORNER_CHUNK):
        zb = np.ascontiguousarray(flat[lo : lo + HORNER_CHUNK])
        acc = out[lo : lo + HORNER_CHUNK]
        prod = scratch[: acc.size]
        acc[...] = p.coeffs[-1]
        for c in p.coeffs[-2::-1]:
            np.multiply(acc, zb, out=prod)
            np.add(prod, c, out=acc)
    out = out.reshape(z.shape)
    return out if out.shape else complex(out)


def poly_of_matrix(p: Polynomial, a) -> np.ndarray:
    """Horner evaluation of P(A)."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError("poly_of_matrix needs a square matrix")
    eye = np.eye(a.shape[0], dtype=np.complex128)
    acc = p.coeffs[-1] * eye
    for c in p.coeffs[-2::-1]:
        acc = acc @ a + c * eye
    return acc


@dataclass(frozen=True)
class SupNormBound:
    grid_max: float
    certified_upper: float
    grid_points: int


def default_grid_points(degree: int) -> int:
    """Power-of-two grid keeping the Bernstein slack ~1% (pi*deg/N <= ~0.016)."""
    target = max(4096, int(np.ceil(64 * np.pi * (degree + 1))))
    return 1 << int(np.ceil(np.log2(target)))


def sup_norm(p: Polynomial, grid_points: int | None = None) -> SupNormBound:
    """Max of |P| over the N-th roots of unity plus a certified upper bound.

    grid_max <= sup|P| <= grid_max / (1 - pi*deg/N): between adjacent grid
    points (arc length 2pi/N) the Bernstein bound ||P'|| <= deg*||P|| limits
    the drop from the true maximum.  Requires N > pi*deg.
    """
    if grid_points is None:
        grid_points = default_grid_points(p.degree)
    slack = np.pi * p.degree / grid_points
    if slack >= 1.0:
        raise DomainError(
            f"grid too coarse: {grid_points} points for degree {p.degree} "
            f"(need grid_points > pi*deg)"
        )
    vals = np.abs(np.fft.fft(p.coeffs, n=grid_points))
    grid_max = float(vals.max())
    return SupNormBound(grid_max, grid_max / (1.0 - slack), grid_points)


def toeplitz(f: Polynomial, d: int) -> np.ndarray:
    """D x D lower-triangular Toeplitz matrix T_{ij} = f-hat(i-j).

    Represents multiplication by f on analytic polynomials truncated at
    degree < D, which is why T(f*g) = T(f)T(g) exactly.
    """
    if d < 1:
        raise DomainError("toeplitz needs D >= 1")
    # coefficients 0..d-1, then zeros where i - j < 0 wraps to a negative index
    c = np.zeros(2 * d - 1, dtype=np.complex128)
    n = min(f.coeffs.size, d)
    c[:n] = f.coeffs[:n]
    return c[np.subtract.outer(np.arange(d), np.arange(d))]
