"""The truncated counterexample operator and its certificates.

T = [[transpose(S), eps*G], [0, S]] acts on two copies of a truncated
vector-valued polynomial space: S is the degree-truncated shift, G the block
Hankel matrix of a lacunary multiplier over a coefficient system, and the
first copy carries dual coordinates (plain transpose, bilinear pairing
[x, y] = sum x_i y_i).

Two quantities are attached to a bundle and deliberately kept asymmetric:

* pb_probe: an empirical lower-bound search for the polynomial-boundedness
  constant sup ||P(T)|| / ||P||_inf, ``hankel.probe_search`` on the map
  P -> P(T) of ``_pb_map``.  Reported maxima are achieved by concrete
  polynomials and normalized by certified sup-norm upper bounds, so the
  probe never overstates the constant.  No upper bound is claimed.  Each
  ||P(T)|| is a ``hankel.probe_solve`` on the matvecs of ``_poly_t_applies``,
  whose P(S), P(S)^t and T(P') are ``numkit.toeplitz_factor``s, as the
  Hankel map's T(f') is.  P(T) is never materialized here;
  tests/reference.py builds it densely as the tests' reference.
* cb_certificate: a lower bound on the completely bounded norm of
  P -> P(T), hence on ||V|| ||V^{-1}|| for every invertible V with
  ||V^{-1} T V|| <= 1 (reported as ``similarity_lower`` in the fcn rows and
  CLI payloads).  The certificate compresses the matrix polynomial
  sum_k conj(C_k) (x) (z^{K_k})(T) through coordinate isometries, which
  lands exactly on eps * n^{-1/2} * sum_k m(K_k) conj(C_k) (x) C_k, and
  divides by the system's ``row_bound``.  Every bundle a command builds has
  one multiplier value w on its frequencies, so that norm is |w| times the
  system's ``tensor_norm``, proven in closed form in ``coeff_systems``; no
  solve runs.  For CAR both factors are exact, so the CAR value is certified.

With CAR systems the certificate grows like sqrt(n) while the probe stays
flat, the desk-scale form of the separation.  Haar-unitary bundles (CLI
certify and the fcn experiment) all come from ``haar_bundle``: multiplier
1/K2 on the dyadic frequencies, K2 the empirical row bound of the system,
which the certificate also divides by; a Haar cb value is therefore
empirical.  The fcn experiment sets eps = (c - 1) / C_probe from the same
search on ``hankel.hankel_map`` (``haar_bundle_for_target``); a row runs
both of its searches as monomial chains ending at the z^2 witness, where the
full searches win, so no row builds a dense Toeplitz matrix, and it reports
whether the K2 ascent converged.
``OperatorBundle`` alone refuses eps < 0.

Supported frequencies must stay <= D: within that range the truncated
transpose(S)^a G S^b collapse exactly to G S^{a+b}, which is what makes the
block formula for P(T) agree with plain Horner evaluation to rounding.
Above D the truncation leaks and the two genuinely differ, so build_T
rejects such multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .coeff_systems import CoefficientSystem, haar_unitaries, row_bound
from .errors import ConfigurationError, DomainError
from .hankel import (
    BlockHankel,
    LacunarySpec,
    MultiplierSeq,
    build_hankel,
    check_default_depth,
    hankel_map,
    lacunary_default,
    monomial_grid,
    probe_search,
    probe_solve,
)
from .numkit import Polynomial, poly_derivative, subdiagonal_sums, toeplitz_factor


@dataclass(frozen=True)
class OperatorBundle:
    """T at ``eps`` >= 0 (DomainError otherwise); the BlockHankel holds D,
    the block shape, the system, the multiplier and the frequency map.  Basis
    (i, j) <-> z^i e_j, i major, in each summand.  Frozen, so every bundle
    passes the eps check: ``dataclasses.replace`` gives the bundle at another
    eps, sharing the frozen BlockHankel."""

    hankel: BlockHankel
    eps: float

    def __post_init__(self):
        if self.eps < 0:
            raise DomainError("eps must be >= 0")

    @property
    def total_dim(self) -> int:
        return 2 * self.hankel.flat_shape[1]


def build_T(
    s_sys: CoefficientSystem,
    spec: LacunarySpec,
    m: MultiplierSeq,
    D: int | None = None,
    eps: float = 1.0,
) -> OperatorBundle:
    """Assemble the bundle.  Default D = 2^n + 1 for an n-level spec, so every
    frequency K_t <= 2^n sits inside the exactness window.  A supported
    frequency above D is refused, also above 2D - 1 where no block sees it:
    ``cb_certificate`` reads the multiplier at every frequency of the map."""
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
    over = [q for q in m.support if q > D]
    if over:
        raise ConfigurationError(
            f"multiplier supported at {over} beyond D = {D}; the truncated block "
            "formula is exact only for frequencies <= D"
        )
    return OperatorBundle(hankel=build_hankel(m, spec, s_sys, D), eps=float(eps))


# ---------------------------------------------------------------------------
# structured matvecs: P(T) and P(T)^H without materializing P(T)


def _poly_t_applies(b: OperatorBundle, p: Polynomial):
    """(apply, apply_adjoint) closures for P(T) on flat vectors of length
    2*D*h, out of views of two ``numkit.toeplitz_factor``s on block rows:
    P(S), P(S)^t and the corner's eps T(P') before the Hankel apply (one
    gather and one GEMM, O(F D h^2) per matvec), and their adjoints.  Each
    view writes its block rows straight into the one output vector."""
    g = b.hankel
    D, h = g.D, g.block_shape[1]
    ps, ps_t, ps_h, ps_t_h = toeplitz_factor(p, D)
    corner, _, corner_h, _ = toeplitz_factor(poly_derivative(p), D, b.eps)
    half = D * h

    def apply(x: np.ndarray) -> np.ndarray:
        x2 = x[half:].reshape(D, h)
        out = np.empty(2 * half, dtype=np.complex128)
        y1, y2 = out[:half].reshape(D, h), out[half:].reshape(D, h)
        ps(x2, out=y2)
        corner(x2, out=y1)  # eps T(P') x2, read by the Hankel apply before y1 is filled
        gw = g.apply_flat(out[:half]).reshape(D, h)
        ps_t(x[:half].reshape(D, h), out=y1)
        y1 += gw
        return out

    def apply_adjoint(x: np.ndarray) -> np.ndarray:
        out = np.empty(2 * half, dtype=np.complex128)
        y1, y2 = out[:half].reshape(D, h), out[half:].reshape(D, h)
        ps_h(x[half:].reshape(D, h), out=y2)
        y2 += corner_h(g.apply_flat_adjoint(x[:half]).reshape(D, h))
        ps_t_h(x[:half].reshape(D, h), out=y1)
        return out

    return apply, apply_adjoint


# ---------------------------------------------------------------------------
# polynomial-boundedness probe


@dataclass(frozen=True)
class PbSearch:
    restarts: int = 4
    max_degree: int | None = None
    seed: int = 0


def _power_pairings(b: OperatorBundle, u: np.ndarray, v: np.ndarray, max_degree: int) -> np.ndarray:
    """<u, T^k v> for k = 0..max_degree in one pass.

    Inside the exactness window z^k(T) = [[(S^t)^k, eps k G S^{k-1}], [0, S^k]],
    so with block rows u = (u1, u2), v = (v1, v2)

        <u, T^k v> = <u1, (S^t)^k v1> + eps k <G^H u1, S^{k-1} v2> + <u2, S^k v2>.

    S = shift (x) I moves block row i to i + 1, so <a, S^k c> is the k-th
    subdiagonal sum of the D x D product conj(A) C^t of the D x h block rows;
    one adjoint Hankel apply and three such products give every k.  All
    three terms vanish beyond k = D."""
    D, h = b.hankel.D, b.hankel.block_shape[1]
    half = D * h
    u1, u2 = u[:half].reshape(D, h), u[half:].reshape(D, h)
    v1, v2 = v[:half].reshape(D, h), v[half:].reshape(D, h)
    gh_u1 = b.hankel.apply_flat_adjoint(u[:half]).reshape(D, h)
    top = subdiagonal_sums(v1 @ u1.conj().T)  # <u1, (S^t)^k v1>
    bottom = subdiagonal_sums(u2.conj() @ v2.T)
    corner = subdiagonal_sums(gh_u1.conj() @ v2.T)
    out = np.zeros(max_degree + 1, dtype=np.complex128)
    n = min(max_degree + 1, D)
    out[:n] = top[:n] + bottom[:n]
    k = np.arange(1, min(max_degree, D) + 1)
    out[k] += b.eps * k * corner[k - 1]
    return out


def _pb_map(b: OperatorBundle, rng: np.random.Generator, max_degree: int):
    """(solve, direction) of P -> P(T) for ``probe_search``: each norm is a
    ``hankel.probe_solve`` on ``_poly_t_applies`` drawing from ``rng``, and
    the ascent maximizes Re sum_k P-hat(k) <u, T^k v>, whose gradient is
    conj(<u, T^k v>)."""
    return (probe_solve(partial(_poly_t_applies, b), b.total_dim, rng, "P(T)"),
            lambda u, v: np.conj(_power_pairings(b, u, v, max_degree)))


def pb_probe(b: OperatorBundle, search: PbSearch | None = None) -> float:
    """Empirical max of ||P(T)|| / certified sup|P| over ``probe_search``'s
    monomials, Fejer means, seeded random polynomials and coefficient ascent.
    A lower bound on the polynomial-boundedness constant.  P = 1 is a
    candidate with ||I|| / sup|1| = 1 exactly, but its Rayleigh value can
    round below 1, so the result is floored at 1."""
    search = search or PbSearch()
    max_degree = search.max_degree
    cap = 2 * b.hankel.D - 2  # T^{2D} = 0: higher coefficients act as zero
    if max_degree is None:
        max_degree = cap
    if not 1 <= max_degree <= cap:
        raise ConfigurationError(f"max_degree {max_degree} outside 1..2D-2 = {cap}")
    best, _ = probe_search(
        partial(_pb_map, b, max_degree=max_degree), max_degree,
        monomial_grid(max_degree, b.hankel.multiplier.support),
        n_random=4 * search.restarts, n_degrees=4,
        ascent_restarts=max(1, search.restarts // 2), ascent_steps=12, seed=search.seed)
    return max(best, 1.0)


# ---------------------------------------------------------------------------
# lower bound on the completely bounded norm (certified for CAR)


def cb_certificate(b: OperatorBundle) -> float:
    """Lower bound on the cb norm of P -> P(T).

    The matrix polynomial A(z) = n^{-1/2} sum_k conj(C_k) z^{K_k} has
    sup-norm <= the system's ``row_bound``: at each z, with
    alpha_k = n^{-1/2} z^{K_k} of norm 1,
    ||sum alpha_k conj(C_k)|| = ||sum conj(alpha_k) C_k||, and alpha ->
    conj(alpha) maps the unit sphere onto itself, so conjugation leaves the
    row bound as it is.  Compressing (id (x) u_T)(A) through the coordinate
    isometries -- row 0 of the dual summand out, e_0 (x) x into the
    analytic summand -- lands exactly on

        eps * n^{-1/2} * sum_k m(K_k) conj(C_k) (x) C_k,

    whose norm divided by that row bound is the certificate.  The multiplier
    must take one value w on the frequencies (1 for the indicator, 1/K2 for
    a Haar bundle); then that norm is |w| times the system's exact
    ``tensor_norm``, so no solve runs.  For CAR the divisor is the exact 1
    and the value is certified.  A Haar bundle divides by its K2, an
    empirical lower bound on the supremum, so its value is empirical.  A
    system without a row bound or a tensor norm, and a multiplier with two
    values on the frequencies, are refused; no command builds either.
    """
    system, m = b.hankel.system, b.hankel.multiplier
    values = {m(q) for q in b.hankel.freq_map}
    if system.row_bound is None or system.tensor_norm is None or len(values) != 1:
        raise ConfigurationError("cb_certificate needs a row bound, a tensor norm and one "
                                 f"multiplier value: {system.kind} system, {len(values)} values")
    return b.eps * (system.n ** -0.5) * abs(values.pop()) * system.tensor_norm / system.row_bound


# ---------------------------------------------------------------------------
# target-c scaling and the growth experiment


def haar_bundle(n: int, dim: int, system_seed: int, row_bound_seed: int, *,
                D: int | None, eps: float) -> tuple[OperatorBundle, bool]:
    """Haar-unitary bundle: n unitaries of size dim drawn at ``system_seed``
    on the default dyadic frequencies, multiplier 1/K2 with K2 the empirical
    row bound of the system (16 restarts at ``row_bound_seed``), kept as
    the system's ``row_bound``; with it, whether that ascent converged
    (False when a restart stopped at ROW_BOUND_STEP_CAP)."""
    system = haar_unitaries(n, dim, seed=system_seed)
    rb = row_bound(system, restarts=16, seed=row_bound_seed)
    system.row_bound = rb.value
    spec = lacunary_default(n)
    m = MultiplierSeq({k: 1.0 / system.row_bound for k in spec.K})
    return build_T(system, spec, m, D=D, eps=eps), rb.converged


def haar_bundle_for_target(n: int, c: float, seed: int) -> tuple[OperatorBundle, dict]:
    """``haar_bundle`` with dim H = n and D = 2^n + 1 at target probe
    constant c: eps = (c - 1) / C_probe aims the rescaled bundle's probe at
    <= c, with C_probe a lower bound for the Hankel boundedness constant by
    ``probe_search`` on ``hankel_map`` over the chain z -> z^2 at max_degree
    1, which adds no Fejer mean, no random candidate and no ascent.  The
    search over every supported monomial, every Fejer mean and four random
    polynomials wins at z^2 on each row tried, and solves z^2 warm from z as
    this chain does, so it returns the same bits (pinned in the tests).  eps
    is empirical, as C_probe is.  z is a candidate, so
    C_probe >= ||G T(1)|| = ||G|| > 0.
    The info dict holds K2, whether its ascent converged, C_probe, eps and
    the system seed."""
    check_default_depth(n, "an fcn row", "n")
    if c <= 1:
        raise DomainError("target c must exceed 1")
    ss = np.random.SeedSequence(entropy=seed)
    sys_child, rb_child, probe_child = ss.spawn(3)
    sys_seed = int(sys_child.generate_state(1)[0])
    base, k2_converged = haar_bundle(n, n, sys_seed, int(rb_child.generate_state(1)[0]),
                                     D=None, eps=0.0)
    g = base.hankel
    c_probe, _ = probe_search(partial(hankel_map, g), 1, [1, 2],
                              seed=int(probe_child.generate_state(1)[0]))
    eps = (c - 1.0) / c_probe
    info = {"K2": g.system.row_bound, "K2_converged": k2_converged, "C_probe": c_probe,
            "eps": eps, "system_seed": sys_seed}
    return replace(base, eps=eps), info


def fcn_experiment(n: int, c: float, seed: int = 0) -> dict:
    """One row of the growth experiment: cb_over_pb = cb_certificate /
    pb_probe and its (c-1)sqrt(n) scaling.  Across an n-grid the scaled
    column staying inside a positive band reproduces the lower half of the
    two-sided sqrt(n) estimate empirically.

    The row's pb_probe is ``probe_search`` on ``_pb_map`` over the chain
    1 -> z -> z^2 at max_degree 1, which adds no Fejer mean, no random
    candidate and no ascent, floored at 1 as in ``pb_probe``.
    ``pb_probe``'s full search (PbSearch(restarts=2,
    max_degree=min(2D - 2, 64))) wins at z^2 on each row tried and reaches
    it by the same chain, so it returns the same bits (pinned in the tests).
    Every candidate is a monomial, so each P(T) factor is a shift.  The
    value is still a lower bound.

    The flat pb column follows from the calibration; it is not a
    measurement.  Both searches win at the z^2 witness, whose certified sup
    is s = 1/(1 - 2 pi/default_grid_points(2)), so with x = (c - 1)s the
    row's pb_probe is (x + sqrt(x^2 + 4))/(2s), the norm of [[1, x], [0, 1]]
    divided by s (pinned in the tests at n = 2, 4, 7 and 8, seed 42).  The
    row's evidence is the growth of cb alone."""
    bundle, info = haar_bundle_for_target(n, c, seed)
    sim = cb_certificate(bundle)
    pb, _ = probe_search(partial(_pb_map, bundle, max_degree=1), 1, [0, 1, 2], seed=seed)
    pb = max(pb, 1.0)
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
