"""Matrix-free spectral norms, Toeplitz matrices and analytic polynomials.

Conventions fixed here and relied on everywhere else:

  * A matrix is a 2-d numpy array of complex128 values, row-major.  The
    dense references the tests compare against (an exact eigensolve norm,
    Horner evaluation of P(A)) live in tests/reference.py, not here.
  * ``top_singular`` is the package's one matrix-free norm solver
    (Golub-Kahan-Lanczos bidiagonalization with one-sided reorthogonalization,
    full on the right basis only, and thick restarts): a Rayleigh lower
    bound, its residual and a ``converged`` flag that means the residual test
    passed, never a raise.  Every ``P(T)`` norm is one such solve, and so
    is ``coeff_systems.tensor_conj_norm``, the numerical check of the closed
    tensor norms.  It starts from a Gaussian vector, or warm from a given
    vector plus a little of that Gaussian, runs a second Gram-Schmidt pass
    only where the first lost too much of the new vector (DGKS), and
    runs its residual test (the top eigenpair of B B^T for the projected
    matrix B; an SVD only before a restart) only where the residual's
    observed decay says the test can pass.
  * ``toeplitz_factor`` is the one Toeplitz factor scale T(p) of the probe
    maps, a shift when p has one term.
  * Analytic polynomials are Taylor coefficient vectors P-hat(0..deg); the
    sup norm over the unit circle is certified from a roots-of-unity grid
    through the Bernstein derivative bound ||P'|| <= deg * ||P||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigurationError, DomainError, NonConvergenceError

LANCZOS_STEP_CAP = 100_000  # step cap of tensor_conj_norm
RESTART_STEPS = 40  # top_singular's basis size: it restarts when the basis is full
RESTART_KEEP = 10  # Ritz pairs a top_singular restart keeps
WARM_START_NOISE = 1e-6  # relative size of the Gaussian a warm top_singular start is mixed with
CHECK_SHRINK = 0.7  # share of the predicted steps to convergence before the next residual test
CHECK_MAX_GAP = 8  # most steps between two of a cycle's residual tests
DGKS_RATIO = math.sqrt(0.5)  # a second Gram-Schmidt pass runs below this share of the norm
DEGREE_CAP = 1 << 16


@dataclass(frozen=True)
class NormEstimate:
    value: float
    method: str  # "exact-eigensolve" | "golub-kahan-lanczos"
    iterations: int
    converged: bool = True  # the residual test passed
    residual: float = 0.0  # ||A^H u - value v|| of the returned pair (0 when exact)
    checks: int = 0  # residual tests run (one small eigensolve or SVD each)

    def check_converged(self, what: str) -> "NormEstimate":
        """Self, or NonConvergenceError(iterations, value) for a capped solve."""
        if not self.converged:
            raise NonConvergenceError(f"{what} did not converge in {self.iterations} "
                                      "iterations", self.iterations, self.value)
        return self


def top_singular(apply, apply_adjoint, dim: int, rng: np.random.Generator,
                 tol: float, max_iter: int,
                 start: np.ndarray | None = None) -> tuple[NormEstimate, np.ndarray, np.ndarray]:
    """Top singular value of A (matvec closures) with its left and right
    Ritz vectors (u, x), by Golub-Kahan-Lanczos bidiagonalization.

    The first vector is a complex Gaussian g drawn from ``rng``, or, with a
    nonzero ``start``, start + WARM_START_NOISE ||start|| g / ||g||, both
    normalized.  g is drawn either way, so a warm start leaves the rng
    stream as a cold one would; the noise keeps an overlap with a top
    vector that ``start`` misses.

    Step k applies A and A^H once each.  The reorthogonalization is
    one-sided (Simon & Zha 2000): A^H u_k is orthogonalized against the
    whole preallocated V basis by classical Gram-Schmidt, with a second pass
    only when the first removed more than half of its squared norm (Daniel,
    Gragg, Kaufman & Stewart 1976), while A v_k is projected once on u_{k-1}
    only, except at a cycle's first step, where it is projected twice on
    every kept u to form the restart's coupling column.  So
    A V_k = U_k B_k and A^H U_k = V_k B_k^H + beta_k v_{k+1} e_k^T with
    B_k real upper triangular (bidiagonal until a restart).
    The top singular triple (sigma, p, q) of B_k gives x = V_k q with
    residual ||A^H (A x / sigma) - sigma x|| = beta_k |e_k^T p|.  The test
    reads sigma and p from the top eigenpair of B_k B_k^T (an SVD only when
    the basis is full, where a restart needs every triple), and it runs only
    where it can pass: at each step of a cycle until two tested residuals
    fall, then after a share of the steps their rate predicts to reach
    tol * sigma (``_check_gap``), and always when the basis is full or at
    ``max_iter``.  The solve converges when that residual is <= tol * sigma,
    and the residual reported is the one that passed; or on a breakdown (a
    new basis vector of norm <= tol times the largest one kept) or an
    exhausted Krylov space (k = min(rows, cols)), where B_k is exact and the
    residual reported is the dropped norm.  When the basis holds
    RESTART_STEPS vectors it restarts thick: the top RESTART_KEEP Ritz pairs
    and v_{k+1} stay, B_k becomes diag(sigma) plus one coupling column
    (Baglama & Reichel 2005).  After ``max_iter`` steps it comes back with
    converged=False.  The value is the Rayleigh quotient ||A x|| / ||x|| of
    the normalized x = V_k B_k^T p, a lower bound converged or not, from any
    start (exactly 1 when A x is x), and u = A x / ||A x|| comes from that
    same apply (u = A x when A x = 0)."""
    if max_iter < 1:
        raise DomainError("top_singular needs max_iter >= 1")
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    if start is not None and (start_norm := _norm(start)) > 0.0:
        x = start + (WARM_START_NOISE * start_norm / _norm(x)) * x
    x /= _norm(x)
    u = apply(x)
    rows = u.size
    m = min(RESTART_STEPS, min(rows, dim) + 1)
    vb = np.empty((m + 1, dim), dtype=np.complex128)  # V, one basis vector per row
    ub = np.empty((m, rows), dtype=np.complex128)
    bmat = np.zeros((m, m))  # U^H A V, real up to rounding: alpha, beta >= 0
    vb[0] = x
    lock, steps, scale, converged, checks = 0, 0, 0.0, False, 0
    while True:
        exact, tested, next_check = False, None, lock + 1
        for k in range(lock, min(m, lock + max_iter - steps)):
            steps += 1
            if steps > 1:  # the first step's A x is the ``u`` applied above
                u = apply(vb[k])
            # one-sided: a cycle's first A v_k is projected on every kept u
            # (the coupling column), later ones once on u_{k-1} only; a V kept
            # orthonormal keeps U orthogonal to working accuracy
            if k > lock:
                h = np.vdot(ub[k - 1], u)
                u = u - h * ub[k - 1]
                bmat[k - 1, k] = h.real
            elif k > 0:
                for _ in range(2):
                    h = (ub[:k] @ u.conj()).conj()
                    u = u - h @ ub[:k]
                    bmat[:k, k] += h.real
            alpha = _norm(u)
            if k == rows or alpha <= tol * scale:
                exact, residual = True, (0.0 if k == rows else alpha)
                break
            scale = max(scale, alpha)
            bmat[k, k] = alpha
            np.divide(u, alpha, out=ub[k])
            if k + 1 == dim:
                exact, residual = True, 0.0
                break
            w, beta = _dgks(apply_adjoint(ub[k]), vb[: k + 1])
            if beta <= tol * scale:
                exact, residual = True, beta
                break
            scale = max(scale, beta)
            np.divide(w, beta, out=vb[k + 1])
            kk = k + 1
            if kk == m or steps == max_iter or kk >= next_check:
                checks += 1
                if kk == m:  # a restart keeps RESTART_KEEP triples
                    p, s, qh = np.linalg.svd(bmat[:kk, :kk])
                    top, sigma = p[:, 0], s[0]
                else:
                    top, sigma = _top_left(bmat[:kk, :kk])
                residual = float(beta * abs(top[kk - 1]))
                converged = bool(residual <= tol * sigma)
                if converged:
                    break
                next_check = kk + _check_gap(tested, kk, residual, tol * sigma, lock)
                tested = (kk, residual)
        if exact:
            kk = k + 1
            top, _ = _top_left(bmat[:kk, :kk])
            converged = True
        if converged or steps >= max_iter:
            break
        lock = min(RESTART_KEEP, kk - 1)
        vb[:lock] = qh[:lock].conj() @ vb[:kk]
        ub[:lock] = p[:, :lock].T @ ub[:kk]
        vb[lock] = vb[kk]
        bmat[:] = 0.0
        bmat[:lock, :lock] = np.diag(s[:lock])
    q = bmat[:kk, :kk].T @ top  # sigma times the top right vector of B_k
    if not q.any():  # B_k = 0: every unit vector is a top vector
        q[0] = 1.0
    x = q @ vb[:kk]
    x /= _norm(x)
    ax = apply(x)
    # one norm function for ||A x|| and ||x||: the quotient is exactly 1 when
    # A x is x, as for P = 1
    nrm = np.linalg.norm(ax)
    est = NormEstimate(float(nrm / np.linalg.norm(x)), "golub-kahan-lanczos", steps, converged,
                       residual, checks)
    return est, (ax / nrm if nrm > 0 else ax), x


def _top_left(b: np.ndarray) -> tuple[np.ndarray, float]:
    """Top left singular vector p and value sigma of a real square b, from
    the top eigenpair of b b^T (sigma^2, p): cheaper than an SVD, and as
    accurate for the top triple."""
    lam, vecs = np.linalg.eigh(b @ b.T)
    return vecs[:, -1], math.sqrt(max(lam[-1], 0.0))


def _dgks(w: np.ndarray, basis: np.ndarray) -> tuple[np.ndarray, float]:
    """``w`` projected off the orthonormal rows of ``basis`` by classical
    Gram-Schmidt, and its norm.  A second pass runs only when the first left
    less than DGKS_RATIO = 1/sqrt(2) of ||w|| (Daniel, Gragg, Kaufman &
    Stewart 1976): when more is left, the rounding of the first pass is
    small against what is left, and the result is orthogonal to working
    accuracy."""
    before = _norm(w)
    w = w - (basis @ w.conj()).conj() @ basis
    after = _norm(w)
    if after < before * DGKS_RATIO:
        w = w - (basis @ w.conj()).conj() @ basis
        after = _norm(w)
    return w, after


def _norm(w: np.ndarray) -> float:
    """Euclidean norm of a complex vector from one dot product."""
    return math.sqrt(np.vdot(w, w).real)


def _check_gap(tested: tuple[int, float] | None, k: int, residual: float,
               target: float, lock: int) -> int:
    """Steps from a failed residual test at step k of a cycle that began
    after step ``lock`` to the next test.  With an earlier test (j, r_j) of
    the cycle and r_j > r_k = ``residual``, the residual falls by
    rate = (r_k / r_j)^(1 / (k - j)) per step, so it needs about
    log(target / r_k) / log(rate) more steps to pass; the next test comes
    after CHECK_SHRINK of them, at least 1 and at most CHECK_MAX_GAP or the
    k - lock steps the cycle has taken, whichever is less: early rates
    overstate the steps left, and a short solve would pay for that in steps
    it did not need.  With no such test yet it comes at the next step."""
    if tested is None or residual >= tested[1]:
        return 1
    j, r_j = tested
    predicted = np.log(target / residual) * (k - j) / np.log(residual / r_j)
    return int(min(max(CHECK_SHRINK * predicted, 1), CHECK_MAX_GAP, k - lock))


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

    One pass over the points into two preallocated buffers.  Per point the
    operations and their order are those of ``acc = acc * z + c``, so the
    values are bit-identical to the plain loop.  The product goes to the
    second buffer, not back into ``acc``: numpy 2.4 on an AVX-512 CPU rounds
    a one-element in-place complex product without the fused multiply-add of
    its vector loop, so one point would differ in the last bit.
    """
    z = np.asarray(z, dtype=np.complex128)
    acc = np.full(z.shape, p.coeffs[-1])
    prod = np.empty_like(acc)
    for c in p.coeffs[-2::-1]:
        np.multiply(acc, z, out=prod)
        np.add(prod, c, out=acc)
    return acc if acc.shape else complex(acc)


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


def toeplitz_factor(p: Polynomial, d: int, scale: complex = 1.0):
    """The four views (A x, A^t x, A^H x, conj(A) x) of A = scale T(p) on
    D x h block rows x, each ``view(x, out=None)`` writing into ``out`` when
    given; ``scale`` multiplies the D coefficients T(p) sees.  With at most
    one nonzero c z^k among them, A = c S^k for the shift S (block row i to
    i + 1), applied by slicing in O(D h); otherwise the views are products
    with one dense ``toeplitz`` matrix T, O(D^2 h), the last two as
    conj(T^t conj(x)) and conj(T conj(x)), so no conjugate copy is kept."""
    c = p.coeffs[:d] * scale
    nz = np.flatnonzero(c)
    if nz.size > 1:
        t = toeplitz(Polynomial(c), d)
        return partial(np.matmul, t), partial(np.matmul, t.T), _conj_view(t.T), _conj_view(t)
    k, ck = (nz[0], c[nz[0]]) if nz.size else (-1, 0j)  # k = -1: the zero factor
    cc = np.conj(ck)
    return _shift(k, ck, True), _shift(k, ck, False), _shift(k, cc, False), _shift(k, cc, True)


def _conj_view(m: np.ndarray):
    """x -> conj(m) x, as conj(m conj(x)) written into ``out``."""

    def apply(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.matmul(m, x.conj(), out=out)
        return np.conjugate(out, out=out)

    return apply


def _shift(k: int, c: complex, down: bool):
    """x -> c S^k x (``down``) or c (S^t)^k x, zero for k = -1."""

    def apply(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        d, out = x.shape[0], (np.empty_like(x) if out is None else out)
        if k < 0:
            out[...] = 0.0
        elif down:
            out[:k] = 0.0
            np.multiply(x[: d - k], c, out=out[k:])
        else:
            np.multiply(x[k:], c, out=out[: d - k])
            out[d - k :] = 0.0
        return out

    return apply
