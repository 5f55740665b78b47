"""Dense complex matrix arithmetic, spectral norms, and analytic polynomials.

Conventions fixed here and relied on everywhere else:

  * A matrix is a 2-d numpy array of complex128 values, row-major.
  * ``op_norm`` returns the largest singular value: an exact Hermitian
    eigensolve of A*A up to dimension 4096, seeded power iteration beyond.
  * ``top_singular`` is the package's one power iteration (matrix-free
    norms): a Rayleigh lower bound plus a ``converged`` flag, never a raise.
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
POWER_ITERATION_CAP = 100_000
DEGREE_CAP = 1 << 16


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
    method: str  # "exact-eigensolve" | "power-iteration"
    tolerance: float
    iterations: int
    converged: bool = True

    def __float__(self) -> float:
        return self.value

    def check_converged(self, what: str) -> "NormEstimate":
        """Self, or NonConvergenceError(iterations, value) for a capped solve."""
        if not self.converged:
            raise NonConvergenceError(f"{what} did not converge in {self.iterations} "
                                      "iterations", self.iterations, self.value)
        return self


def op_norm(a, tol: float = 1e-12, seed: int = 0) -> NormEstimate:
    """Largest singular value of ``a``.

    Exact route (max dimension <= 4096): Hermitian eigensolve of the Gram
    matrix on the smaller side, largest eigenvalue, square root.  Iterative
    route: ``top_singular`` with a seeded start vector; hitting the cap of
    POWER_ITERATION_CAP iterations raises NonConvergenceError rather than
    returning a value.
    """
    a = as_matrix(a)
    if tol <= 0:
        raise DomainError("tol must be positive")
    if a.size == 0:
        return NormEstimate(0.0, "exact-eigensolve", tol, 0)
    if max(a.shape) <= OP_NORM_EXACT_MAX_DIM:
        # Gram matrix on the smaller side has the same nonzero spectrum.
        if a.shape[0] <= a.shape[1]:
            gram = a @ a.conj().T
        else:
            gram = a.conj().T @ a
        w = np.linalg.eigvalsh(gram)
        value = float(np.sqrt(max(w[-1], 0.0)))
        return NormEstimate(value, "exact-eigensolve", tol, 0)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
    ah = a.conj().T
    est, _ = top_singular(lambda v: a @ v, lambda w: ah @ w, a.shape[1], rng, tol,
                          POWER_ITERATION_CAP)
    return est.check_converged("power iteration")


def top_singular(apply, apply_adjoint, dim: int, rng: np.random.Generator,
                 tol: float, max_iter: int) -> tuple[NormEstimate, np.ndarray]:
    """Top singular value of A (matvec closures) and the last right vector,
    by power iteration on A^H A from a complex Gaussian start drawn from
    ``rng``: value sqrt(||A v||^2), update v <- A^H A v / ||.||, stop when
    successive values agree to relative ``tol``.  The value is a lower bound
    converged or not; at ``max_iter`` it comes back with converged=False."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    rho = 0.0
    for it in range(1, max_iter + 1):
        av = apply(v)
        rho_new = float(np.real(np.vdot(av, av)))
        w = apply_adjoint(av)
        nw = np.linalg.norm(w)
        if nw == 0.0:  # A v = 0, or A^H A v rounded to 0
            return NormEstimate(float(np.sqrt(rho_new)), "power-iteration", tol, it), v
        v = w / nw
        if abs(rho_new - rho) < tol * max(rho_new, 1e-300):
            return NormEstimate(float(np.sqrt(rho_new)), "power-iteration", tol, it), v
        rho = rho_new
    return NormEstimate(float(np.sqrt(rho)), "power-iteration", tol, max_iter, False), v


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
    """Horner evaluation; ``z`` may be a scalar or an ndarray."""
    z = np.asarray(z, dtype=np.complex128)
    acc = np.full(z.shape, p.coeffs[-1], dtype=np.complex128)
    for c in p.coeffs[-2::-1]:
        acc = acc * z + c
    return acc if acc.shape else complex(acc)


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
    t = np.zeros((d, d), dtype=np.complex128)
    c = f.coeffs
    for k in range(min(f.degree, d - 1) + 1):
        idx = np.arange(d - k)
        t[idx + k, idx] = c[k]
    return t
