"""The truncated counterexample operator and its certificates.

T = [[transpose(S), eps*G], [0, S]] acts on two copies of a truncated
vector-valued polynomial space: S is the degree-truncated shift, G the block
Hankel matrix of a lacunary multiplier over a coefficient system, and the
first copy carries dual coordinates (plain transpose, bilinear pairing
[x, y] = sum x_i y_i).

Two quantities are attached to a bundle and deliberately kept asymmetric:

* pb_probe: an empirical lower-bound search for the polynomial-boundedness
  constant sup ||P(T)|| / ||P||_inf.  Reported maxima are achieved by
  concrete polynomials and normalized by certified sup-norm upper bounds,
  so the probe never overstates the constant.  No upper bound is claimed.
  Each ||P(T)|| is a ``numkit.top_singular`` (Golub-Kahan-Lanczos) solve on
  the structured matvecs of ``_poly_t_applies``, whatever the bundle size; a
  solve that hits PROBE_STEP_CAP raises NonConvergenceError.  P(T) is never
  materialized (``poly_of_T`` is the tests' reference), and the ascent family
  is ``hankel.fejer_ascent``.
* cb_certificate: a certified lower bound on the completely bounded norm
  of P -> P(T), hence on ||V|| ||V^{-1}|| for every invertible V with
  ||V^{-1} T V|| <= 1 (reported as ``similarity_lower`` in the fcn rows and
  CLI payloads).  The certificate compresses the matrix polynomial
  sum_k conj(C_k) (x) (z^{K_k})(T) through coordinate isometries, which
  lands exactly on eps * n^{-1/2} * sum_k m(K_k) conj(C_k) (x) C_k, the
  weighted ``coeff_systems.tensor_conj_norm``.  That norm is a matrix-free
  ``top_singular`` solve whose Rayleigh value is itself a lower bound, so
  the certificate stays one; the Kronecker sum is never built.

With CAR systems the certificate grows like sqrt(n) while the probe stays
flat, the desk-scale form of the separation.  Haar-unitary bundles (CLI
certify and the fcn experiment) all come from ``haar_bundle``: multiplier
1/K2 on the dyadic frequencies, K2 the empirical row bound of the system.

Supported frequencies must stay <= D: within that range the truncated
transpose(S)^a G S^b collapse exactly to G S^{a+b}, which is what makes the
block formula for P(T) agree with plain Horner evaluation to rounding.
Above D the truncation leaks and the two genuinely differ, so build_T
rejects such multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coeff_systems import (
    CoefficientSystem,
    conj_system,
    haar_unitaries,
    row_bound,
    tensor_conj_norm,
)
from .errors import ConfigurationError, DimensionError, DomainError
from .hankel import (
    BlockHankel,
    LacunarySpec,
    MultiplierSeq,
    build_hankel,
    fejer_ascent,
    fejer_poly,
    gtf_applies,
    hankel_factor,
    lacunary_default,
    random_poly,
)
from .numkit import (
    Polynomial,
    op_norm,
    poly_derivative,
    sup_norm,
    toeplitz,
    top_singular,
)

PROBE_STEP_CAP = 20_000  # top_singular step cap of the P(T) norms
DENSE_T_ENTRY_BUDGET = 1 << 26
NORMALIZER_RESTARTS = 32  # row_bound restarts behind the non-CAR cb normalizer


@dataclass(frozen=True)
class TruncatedSpace:
    """Degree-truncated vector-valued polynomial space; basis (i, j) <-> z^i e_j,
    i major."""

    D: int
    h_dim: int

    def __post_init__(self):
        if self.D < 1 or self.h_dim < 1:
            raise ConfigurationError("TruncatedSpace needs D >= 1 and h_dim >= 1")

    @property
    def total_dim(self) -> int:
        return self.D * self.h_dim


@dataclass
class OperatorBundle:
    space: TruncatedSpace
    hankel: BlockHankel
    eps: float
    system: CoefficientSystem
    spec: LacunarySpec
    multiplier: MultiplierSeq

    @property
    def total_dim(self) -> int:
        return 2 * self.space.total_dim

    @property
    def shift(self) -> np.ndarray:
        """D x D one-step shift z^i -> z^{i+1}, truncated."""
        return np.eye(self.space.D, k=-1, dtype=np.complex128)

    @property
    def S(self) -> np.ndarray:
        return np.kron(self.shift, np.eye(self.space.h_dim, dtype=np.complex128))

    @property
    def G_flat(self) -> np.ndarray:
        return self.hankel.flat()

    @property
    def T(self) -> np.ndarray:
        n = self.total_dim
        if n * n > DENSE_T_ENTRY_BUDGET:
            raise ConfigurationError(
                f"dense T would be {n}x{n}; use the structured matvec routines"
            )
        s = self.S
        z = np.zeros_like(s)
        return np.block([[s.T, self.eps * self.G_flat], [z, s]])


def build_T(
    s_sys: CoefficientSystem,
    spec: LacunarySpec,
    m: MultiplierSeq,
    D: int | None = None,
    eps: float = 1.0,
) -> OperatorBundle:
    """Assemble the bundle.  Default D = 2^n + 1 for an n-level spec, so every
    frequency K_t <= 2^n sits inside the exactness window."""
    if eps < 0:
        raise DomainError("eps must be >= 0")
    if spec.L != s_sys.n:
        raise ConfigurationError(
            f"spec has {spec.L} frequencies but the system has {s_sys.n} elements"
        )
    if not s_sys.is_square:
        raise ConfigurationError("bundle systems must have square elements")
    if D is None:
        D = 2**spec.L + 1
    if D < 1:
        raise ConfigurationError("build_T needs D >= 1")
    supported = [q for q in m.support if q <= 2 * D - 1]
    over = [q for q in supported if q > D]
    if over:
        raise ConfigurationError(
            f"multiplier supported at {over} beyond D = {D}; the truncated block "
            "formula is exact only for frequencies <= D"
        )
    g = build_hankel(m, spec, s_sys, D)
    h_dim = s_sys.op_dim[0]
    space = TruncatedSpace(D=D, h_dim=h_dim)
    return OperatorBundle(
        space=space, hankel=g, eps=float(eps), system=s_sys, spec=spec, multiplier=m,
    )


def with_eps(b: OperatorBundle, eps: float) -> OperatorBundle:
    """The bundle at another eps, sharing the frozen BlockHankel."""
    if eps < 0:
        raise DomainError("eps must be >= 0")
    return replace(b, eps=float(eps))


def poly_of_T(b: OperatorBundle, p: Polynomial) -> np.ndarray:
    """Dense P(T) by the block formula [[P(S)^t, eps*G*(T(P') (x) I)], [0, P(S)]];
    agrees with Horner evaluation to rounding because supported frequencies
    stay <= D.  The reference the structured matvecs are tested against."""
    D, h = b.space.D, b.space.h_dim
    # P(S) = T(p) (x) I: the truncated shift's powers are the Toeplitz diagonals
    ps = np.kron(toeplitz(p, D), np.eye(h, dtype=np.complex128))
    tp = np.kron(toeplitz(poly_derivative(p), D), np.eye(h, dtype=np.complex128))
    corner = b.eps * (b.G_flat @ tp)
    z = np.zeros_like(ps)
    return np.block([[ps.T, corner], [z, ps]])


# ---------------------------------------------------------------------------
# structured matvecs: P(T) and P(T)^H without materializing P(T)


def _poly_t_applies(b: OperatorBundle, p: Polynomial):
    """(apply, apply_adjoint) closures for P(T) on flat vectors of length
    2*D*h.  Uses D x D Toeplitz factors, conjugated once per polynomial, and
    the Hankel anti-diagonal apply (one slice matmul per supported frequency);
    cost per matvec is O(D^2 h + F D h^2) instead of O((Dh)^2)."""
    D, h = b.space.D, b.space.h_dim
    t_p = toeplitz(p, D)
    t_pp = toeplitz(poly_derivative(p), D)
    t_p_conj = t_p.conj()  # (t_p.T)^H
    t_p_h = t_p_conj.T
    t_pp_h = t_pp.conj().T
    g = b.hankel
    eps = b.eps
    half = D * h

    def apply(x: np.ndarray) -> np.ndarray:
        x1 = x[:half].reshape(D, h)
        x2 = x[half:].reshape(D, h)
        y2 = t_p @ x2
        w = t_pp @ x2
        y1 = t_p.T @ x1 + eps * g.apply_flat(w.reshape(-1)).reshape(D, h)
        return np.concatenate([y1.reshape(-1), y2.reshape(-1)])

    def apply_adjoint(x: np.ndarray) -> np.ndarray:
        x1 = x[:half].reshape(D, h)
        x2 = x[half:].reshape(D, h)
        y1 = t_p_conj @ x1
        gh = g.apply_flat_adjoint(x1.reshape(-1)).reshape(D, h)
        y2 = t_p_h @ x2 + eps * (t_pp_h @ gh)
        return np.concatenate([y1.reshape(-1), y2.reshape(-1)])

    return apply, apply_adjoint


def _poly_t_norm(b: OperatorBundle, p: Polynomial, rng: np.random.Generator,
                 want_vectors: bool = False):
    """||P(T)|| by ``top_singular`` on the structured matvecs; with
    ``want_vectors`` also the top singular pair (u, v).  A solve that hits
    PROBE_STEP_CAP raises NonConvergenceError."""
    apply, apply_adjoint = _poly_t_applies(b, p)
    est, v = top_singular(apply, apply_adjoint, b.total_dim, rng, 1e-10, PROBE_STEP_CAP)
    est.check_converged("P(T) Golub-Kahan-Lanczos")
    if not want_vectors:
        return est.value
    av = apply(v)
    nav = np.linalg.norm(av)
    return est.value, (av / nav if nav > 0 else av), v


# ---------------------------------------------------------------------------
# polynomial-boundedness probe


@dataclass(frozen=True)
class PbSearch:
    restarts: int = 4
    max_degree: int | None = None
    seed: int = 0


def _pb_ratio(b: OperatorBundle, p: Polynomial, rng: np.random.Generator) -> float:
    norm = _poly_t_norm(b, p, rng)
    return norm / sup_norm(p).certified_upper


def _pb_monomial_grid(max_degree: int, freqs: tuple[int, ...]) -> list[int]:
    if max_degree <= 64:
        return list(range(0, max_degree + 1))
    ks = set(range(0, 65))
    ks.update(1 << j for j in range(1, 12) if (1 << j) <= max_degree)
    for q in freqs:
        ks.update(x for x in (q - 1, q, q + 1) if 0 <= x <= max_degree)
    ks.add(max_degree)
    return sorted(ks)


def _pb_ascent(
    b: OperatorBundle, start: Polynomial, max_degree: int, steps: int,
    rng: np.random.Generator,
) -> float:
    """Fejer ascent maximizing Re sum_k P-hat(k) <u, T^k v> over the
    grid-discretized sup-norm ball, with the top singular pair (u, v) of
    P(T) at each step."""
    apply_t, _ = _poly_t_applies(b, Polynomial.monomial(1))

    def value_and_grad(p: Polynomial, sup: float):
        sigma, u, v = _poly_t_norm(b, p, rng, want_vectors=True)
        ratio = sigma / sup
        if sigma == 0.0:
            return ratio, None
        # grad wrt P-hat(k) of Re <u, P(T) v> is conj(<u, T^k v>)
        grad = np.zeros(max_degree + 1, dtype=np.complex128)
        vk = v.copy()
        grad[0] = np.conj(np.vdot(u, vk))
        for k in range(1, max_degree + 1):
            vk = apply_t(vk)
            if not np.any(vk):
                break
            grad[k] = np.conj(np.vdot(u, vk))
        return ratio, grad

    return fejer_ascent(start, max_degree, steps, value_and_grad)


def pb_probe(b: OperatorBundle, search: PbSearch | None = None) -> float:
    """Empirical max of ||P(T)|| / certified sup|P| over monomials, Fejer
    means, seeded random polynomials, and coefficient ascent.  A lower bound
    on the polynomial-boundedness constant; includes P = 1, so the result is
    >= 1 exactly."""
    search = search or PbSearch()
    max_degree = search.max_degree
    cap = 2 * b.space.D - 2  # T^{2D} = 0: higher coefficients act as zero
    if max_degree is None:
        max_degree = cap
    if max_degree > cap:
        raise ConfigurationError(f"max_degree {max_degree} exceeds 2D-2 = {cap}")
    ss = np.random.SeedSequence(entropy=search.seed)
    child_norm, child_rand, child_ascent = ss.spawn(3)
    nrng = np.random.default_rng(child_norm)

    best = 0.0
    for k in _pb_monomial_grid(max_degree, b.multiplier.support):
        best = max(best, _pb_ratio(b, Polynomial.monomial(k), nrng))

    deg = 2
    while deg <= max_degree:
        best = max(best, _pb_ratio(b, fejer_poly(deg), nrng))
        deg *= 2

    rng = np.random.default_rng(child_rand)
    degrees = np.unique(np.geomspace(2, max(max_degree, 2), num=4).astype(int))
    degrees = degrees[degrees <= max(max_degree, 1)]
    for deg in degrees:
        for _ in range(max(1, search.restarts)):
            best = max(best, _pb_ratio(b, random_poly(int(deg), rng), nrng))

    arng = np.random.default_rng(child_ascent)
    n_starts = max(1, search.restarts // 2)
    starts = [fejer_poly(min(8, max(max_degree, 1)))]
    for _ in range(n_starts - 1):
        starts.append(random_poly(min(16, max(max_degree, 1)), arng))
    for start in starts:
        best = max(best, _pb_ascent(b, start, max_degree, steps=12, rng=arng))
    return best


def von_neumann_excess(b: OperatorBundle, n_polys: int, seed: int = 0) -> float:
    """max over seeded polynomials of ||P(T)|| - certified sup|P|; for a
    contraction bundle (eps = 0) this never exceeds rounding."""
    ss = np.random.SeedSequence(entropy=seed)
    rng = np.random.default_rng(ss)
    nrng = np.random.default_rng(ss.spawn(1)[0])
    worst = -np.inf
    cap = 2 * b.space.D - 2
    for _ in range(n_polys):
        deg = int(rng.integers(1, max(cap, 2)))
        p = random_poly(min(deg, cap), rng)
        if p.is_zero:
            continue
        excess = _poly_t_norm(b, p, nrng) - sup_norm(p).certified_upper
        worst = max(worst, excess)
    return float(worst)


# ---------------------------------------------------------------------------
# certified lower bound on the completely bounded norm


def cb_certificate(b: OperatorBundle, normalizer_seed: int = 0) -> float:
    """Certified lower bound on the cb norm of P -> P(T).

    The matrix polynomial A(z) = n^{-1/2} sum_k conj(C_k) z^{K_k} has
    sup-norm <= row bound of the conjugated system (exactly 1 for CAR, since
    conjugation preserves the anticommutation relations).  Compressing
    (id (x) u_T)(A) through the coordinate isometries -- row 0 of the dual
    summand out, e_0 (x) x into the analytic summand -- lands exactly on

        eps * n^{-1/2} * sum_k m(K_k) conj(C_k) (x) C_k,

    whose norm divided by the sup bound of A is the certificate.  For CAR
    the division is by the exact value 1; for other systems the conjugated
    row bound is re-estimated empirically and divided out.
    """
    n = b.system.n
    compressed = b.eps * (n ** -0.5) * tensor_conj_norm(
        b.system, [b.multiplier(k) for k in b.spec.K]
    )
    if b.system.kind == "car":
        normalizer = 1.0
    else:
        normalizer = float(
            row_bound(conj_system(b.system), restarts=NORMALIZER_RESTARTS,
                      seed=normalizer_seed)
        )
        normalizer = max(normalizer, 1e-300)
    return compressed / normalizer


# ---------------------------------------------------------------------------
# target-c scaling and the growth experiment


def eps_for_target_c(c: float, c_probe: float) -> float:
    """eps = (c - 1) / C_probe, aiming the rescaled bundle's probe at <= c;
    empirical, since C_probe is itself a lower-bound estimate."""
    if c <= 1:
        raise DomainError("target c must exceed 1")
    if c_probe <= 0:
        raise DomainError("C_probe must be positive")
    return (c - 1.0) / c_probe


def _light_hankel_probe(g: BlockHankel, seed: int) -> float:
    """Cheap lower bound for the Hankel boundedness constant: each probe is
    a ``top_singular`` solve of W (T(f') (x) I) with W^H W = G^H G.  Its
    Rayleigh values never exceed the true norm, converged or not, so the
    returned ratio is honest."""
    factor = hankel_factor(g)
    _, in_dim = g.block_shape
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))

    def ratio_of(f: Polynomial) -> float:
        apply, apply_adjoint = gtf_applies(factor, toeplitz(poly_derivative(f), g.D), in_dim)
        est, _ = top_singular(apply, apply_adjoint, g.D * in_dim, rng, 1e-9, 500)
        return est.value / sup_norm(f).certified_upper

    best = ratio_of(Polynomial.monomial(1))
    deg = 4
    while deg <= 2 * g.D - 2:
        best = max(best, ratio_of(fejer_poly(deg)))
        deg *= 4
    for q in g.multiplier.support:
        if q < 2 * g.D:
            best = max(best, ratio_of(Polynomial.monomial(q)))
    for _ in range(4):
        f = random_poly(min(16, 2 * g.D - 1), rng)
        if not f.is_zero:
            best = max(best, ratio_of(f))
    return best


def haar_bundle(n: int, dim: int, system_seed: int, row_bound_seed: int, *,
                D: int | None, eps: float) -> tuple[OperatorBundle, float]:
    """Haar-unitary bundle and its K2: n unitaries of size dim drawn at
    ``system_seed`` on the default dyadic frequencies, multiplier 1/K2 with
    K2 the empirical row bound of the system (16 restarts at
    ``row_bound_seed``)."""
    system = haar_unitaries(n, dim, seed=system_seed)
    spec = lacunary_default(n)
    k2 = float(row_bound(system, restarts=16, seed=row_bound_seed))
    m = MultiplierSeq({k: 1.0 / k2 for k in spec.K}, support_cutoff=max(spec.K))
    return build_T(system, spec, m, D=D, eps=eps), k2


def haar_bundle_for_target(n: int, c: float, seed: int) -> tuple[OperatorBundle, dict]:
    """``haar_bundle`` with dim H = n and D = 2^n + 1 at target probe
    constant c: eps from the probed Hankel constant."""
    if c <= 1:
        raise DomainError("target c must exceed 1")
    ss = np.random.SeedSequence(entropy=seed)
    sys_child, rb_child, probe_child = ss.spawn(3)
    sys_seed = int(sys_child.generate_state(1)[0])
    base, k2 = haar_bundle(n, n, sys_seed, int(rb_child.generate_state(1)[0]), D=None,
                           eps=0.0)
    c_probe = _light_hankel_probe(base.hankel, seed=int(probe_child.generate_state(1)[0]))
    eps = eps_for_target_c(c, c_probe)
    info = {"K2": k2, "C_probe": c_probe, "eps": eps, "system_seed": sys_seed}
    return with_eps(base, eps), info


def fcn_experiment(n: int, c: float, seed: int = 0) -> dict:
    """One row of the growth experiment: cb_over_pb = cb_certificate /
    pb_probe and its (c-1)sqrt(n) scaling.  Across an n-grid the scaled
    column staying inside a positive band reproduces the lower half of the
    two-sided sqrt(n) estimate empirically."""
    bundle, info = haar_bundle_for_target(n, c, seed)
    search = PbSearch(restarts=2, max_degree=min(2 * bundle.space.D - 2, 64), seed=seed)
    sim = cb_certificate(bundle, normalizer_seed=seed)
    pb = pb_probe(bundle, search)
    cb_over_pb = sim / pb
    scaled = cb_over_pb / ((c - 1.0) * np.sqrt(n))
    report = {
        "n": n,
        "c": c,
        "cb_over_pb": cb_over_pb,
        "scaled": scaled,
        "similarity_lower": sim,
        "pb_probe": pb,
        "N": bundle.total_dim,
        "seed": seed,
    }
    report.update(info)
    return report


# ---------------------------------------------------------------------------
# row-bound inequality for block matrices


def _row_bound_holds(blocks: np.ndarray, slack: float = 1e-10) -> bool:
    """|| (a_ij) || <= sqrt(n) * max_i || (sum_j a_ij a_ij^H)^{1/2} ||."""
    n = blocks.shape[0]
    if blocks.shape[1] != n:
        raise DimensionError("row_bound_check needs an n x n grid of blocks")
    flat = np.block([[blocks[i, j] for j in range(n)] for i in range(n)])
    lhs = float(op_norm(flat))
    rhs_rows = []
    for i in range(n):
        s = sum(blocks[i, j] @ blocks[i, j].conj().T for j in range(n))
        w = np.linalg.eigvalsh(s)
        rhs_rows.append(np.sqrt(max(float(w[-1]), 0.0)))
    rhs = np.sqrt(n) * max(rhs_rows)
    return lhs <= rhs + slack


def row_bound_check(blocks, trials: int = 0, seed: int = 0) -> bool:
    """Check the row-bound inequality on the given n x n block grid, plus
    `trials` seeded random grids of the same block shape."""
    arr = np.array([[np.asarray(b, dtype=np.complex128) for b in row] for row in blocks])
    if not _row_bound_holds(arr):
        return False
    if trials > 0:
        n = arr.shape[0]
        dims = arr[0, 0].shape
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed))
        for _ in range(trials):
            rand = (rng.standard_normal((n, n) + dims)
                    + 1j * rng.standard_normal((n, n) + dims))
            if not _row_bound_holds(rand):
                return False
    return True
