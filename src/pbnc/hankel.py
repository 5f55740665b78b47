"""Lacunary frequency specs, multiplier sequences, block Hankel matrices and
the one probe search.

The central object is the D x D block matrix

    G_{ij} = m(q) * q^{-1} * C_{phi(q)},   q = i + j + 1,

zero when q is unsupported.  phi maps supported frequencies to elements of a
coefficient system: for a lacunary spec K_1 < ... < K_L the map is K_t -> t,
and the dense contrast mode (multiplier identically 1) uses the identity map
k -> k over a basis-vector system with 2D-1 elements.

G represents a bilinear Hankel form on truncated analytic vectors: composing
with the Toeplitz matrix of f' probes the boundedness inequality
||G T(f')|| <= C ||f||_inf whose constant C separates lacunary multipliers
(dyadic block sums bounded) from the dense multiplier (block sums growing).
All probe results are empirical maxima, i.e. lower bounds for C; the
normalization divides by the certified sup-norm upper bound so reported
ratios never overstate C.

``probe_search`` is the one probe pipeline (``monomial_grid``, Fejer means,
seeded random polynomials, ``fejer_ascent``) over a map given as a norm solve
and an ascent direction; it alone seeds and certifies.  Every norm is one
``probe_solve``: ``numkit.top_singular`` at tol 1e-10, NonConvergenceError
(exit 3) at PROBE_STEP_CAP steps.  ``hankel_map`` is the map f -> G T(f'):
its solve runs on W (T(f') (x) I), W^H W = G^H G (the root of the Gram
diagonal for basis-vector blocks, G otherwise, so no Gram matrix is formed),
with T(f') a ``numkit.toeplitz_factor`` as in P -> P(T).  ``scan_probe_best``
runs it on each scan cell, whose Gram matrix is diagonal, with closed-form
monomials; ``counterexample`` runs the same search on P -> P(T) and, over the
monomial chain z -> z^2, on ``hankel_map`` to set eps in the fcn
experiment.

``bound_probe`` evaluates one polynomial exactly (the CLI probe mode) through
(T(f') (x) I)^H (G^H G) (T(f') (x) I), with G^H G assembled once per
BlockHankel and refused above FLAT_ENTRY_BUDGET entries.

Block (i, j) depends on i + j alone, so one index says which blocks meet:
idx[i, f] = q_f - 1 - i is the input block row i reads on the anti-diagonal
of the f-th supported frequency q_f, or D (a zero pad block) where that
anti-diagonal misses row i.  Every kernel reads it.  The matvecs G x and
G^H y gather the input blocks through it at once and multiply the
D x (F in) result by the stacked coefficients in one GEMM, O(F D out in)
for F frequencies.  The Gram diagonal of a basis-vector system is one F x F
orthogonality product plus one bincount over the index; the Gram matrix and
``flat`` place each block where the index puts it.  The Gram diagonal and
the applies' index are computed once per (frozen) BlockHankel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from . import numkit
from .coeff_systems import BASIS_MAX_N, CoefficientSystem, basis_vectors
from .errors import ConfigurationError, DimensionError, DomainError
from .numkit import (Polynomial, poly_derivative, subdiagonal_sums, sup_norm, toeplitz,
                     toeplitz_factor, top_singular)

FLAT_ENTRY_BUDGET = 1 << 26  # refuse to materialize flat matrices above ~1 GiB
PROBE_STEP_CAP = 20_000  # top_singular step cap of every probe solve


@dataclass(frozen=True)
class LacunarySpec:
    """Strictly increasing positive frequencies with 2^{n-1} < K_n <= 2^n for
    n > 1; K_1 is unconstrained."""

    K: tuple[int, ...]

    def __post_init__(self):
        k = self.K
        if not k:
            raise ConfigurationError("LacunarySpec needs at least one frequency")
        if any(int(x) != x or x < 1 for x in k):
            raise ConfigurationError("frequencies must be positive integers")
        if any(b <= a for a, b in zip(k, k[1:])):
            raise ConfigurationError("frequencies must be strictly increasing")
        for n, kn in enumerate(k[1:], start=2):
            if not (2 ** (n - 1) < kn <= 2**n):
                raise ConfigurationError(
                    f"K_{n} = {kn} outside the dyadic window (2^{n-1}, 2^{n}]"
                )
        object.__setattr__(self, "K", tuple(int(x) for x in k))

    @property
    def L(self) -> int:
        return len(self.K)

    def freq_map(self) -> dict[int, int]:
        """frequency -> 1-based element index."""
        return {kt: t for t, kt in enumerate(self.K, start=1)}


def lacunary_default(L: int) -> LacunarySpec:
    if L < 1:
        raise ConfigurationError("lacunary_default needs L >= 1")
    return LacunarySpec(tuple(2**t for t in range(1, L + 1)))


def check_default_depth(L: int, what: str, key: str) -> None:
    """Raise ConfigurationError unless L >= 1 and D = 2^L + 1, the default
    truncation of ``lacunary_default(L)``, keeps D x D matrices within
    FLAT_ENTRY_BUDGET, so a caller that reads the depth from its config (as
    ``key``) refuses it before 2^L or any system is built.  Callers apply it
    whether D is given or not, so no config reaches a deeper
    ``lacunary_default``."""
    # 2^L + 1 <= isqrt(budget) <=> L <= max_l, without forming 2^L
    max_l = (math.isqrt(FLAT_ENTRY_BUDGET) - 1).bit_length() - 1
    if not 1 <= L <= max_l:
        raise ConfigurationError(f"{what} needs 1 <= {key} <= {max_l}, got {L}")


def check_truncation(D: int, key: str, family: str | None = None) -> None:
    """Raise ConfigurationError unless 1 <= D <= isqrt(FLAT_ENTRY_BUDGET), so
    that a D x D matrix of a D read from a config (as ``key``) stays within
    FLAT_ENTRY_BUDGET, and for the ``ones`` scan ``family`` unless its
    2D - 1 basis vectors stay within BASIS_MAX_N (D <= 4096); a caller
    checks it before anything of size D is built."""
    cap, why = math.isqrt(FLAT_ENTRY_BUDGET), "D x D within the flat budget"
    if family == "ones":
        cap = min(cap, (BASIS_MAX_N + 1) // 2)
        why = f"the ones family's 2D - 1 basis vectors within BASIS_MAX_N = {BASIS_MAX_N}"
    if not 1 <= D <= cap:
        raise ConfigurationError(f"{key} must be in 1..{cap} ({why}), not {D}")


@dataclass
class MultiplierSeq:
    """Sparse multiplier m: frequency k >= 1 -> complex value (missing = 0)."""

    values: dict[int, complex]

    def __post_init__(self):
        cleaned = {}
        for k, v in self.values.items():
            if int(k) != k or k < 1:
                raise ConfigurationError(f"multiplier frequency {k} must be a positive integer")
            v = complex(v)
            if v != 0:
                cleaned[int(k)] = v
        self.values = cleaned

    def __call__(self, k: int) -> complex:
        return self.values.get(k, 0j)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.values))

    @classmethod
    def indicator(cls, spec: LacunarySpec) -> "MultiplierSeq":
        return cls({k: 1.0 for k in spec.K})

    @classmethod
    def ones(cls, cutoff: int) -> "MultiplierSeq":
        return cls({k: 1.0 for k in range(1, cutoff + 1)})


# ---------------------------------------------------------------------------
# the block Hankel matrix


@dataclass(frozen=True, eq=False)
class BlockHankel:
    D: int
    multiplier: MultiplierSeq
    system: CoefficientSystem
    freq_map: dict[int, int]
    # scaled coefficient per supported frequency: m(q)/q * C_{phi(q)}
    coefficients: dict[int, np.ndarray] = field(repr=False)

    @property
    def block_shape(self) -> tuple[int, int]:
        return self.system.op_dim

    @property
    def flat_shape(self) -> tuple[int, int]:
        out_dim, in_dim = self.block_shape
        return (self.D * out_dim, self.D * in_dim)

    @property
    def _blocks(self) -> list[np.ndarray]:
        """The coefficients C_q by ascending frequency, ``_index``'s column order."""
        return [self.coefficients[q] for q in sorted(self.coefficients)]

    def _index(self) -> np.ndarray:
        """The one description of which blocks meet: idx[i, f] = q_f - 1 - i
        is the input block that row block i reads on the anti-diagonal of the
        f-th frequency q_f (ascending), or D (a zero pad block) where that
        anti-diagonal misses row i.  Built on each call; ``_gather`` keeps it
        for the applies."""
        freqs = np.array(sorted(self.coefficients), dtype=np.intp)
        j = freqs[None, :] - 1 - np.arange(self.D)[:, None]
        return np.where((j >= 0) & (j < self.D), j, self.D)

    def flat(self) -> np.ndarray:
        """Materialized (D*out) x (D*in) matrix."""
        rows, cols = self.flat_shape
        if rows * cols > FLAT_ENTRY_BUDGET:
            raise ConfigurationError(
                f"flat matrix {rows}x{cols} exceeds the materialization budget; "
                "use the Gram route"
            )
        out_dim, in_dim = self.block_shape
        g = np.zeros((self.D, out_dim, self.D, in_dim), dtype=np.complex128)
        idx = self._index()
        for f, c in enumerate(self._blocks):
            i = np.flatnonzero(idx[:, f] < self.D)
            g[i, :, idx[i, f], :] = c
        return g.reshape(rows, cols)

    def gram(self) -> np.ndarray:
        """G^H G as a (D*in) x (D*in) matrix, assembled from the products
        C_q^H C_q' of every frequency pair without materializing G
        (read-only, computed once per instance).  Above FLAT_ENTRY_BUDGET
        entries it is refused before anything is allocated."""
        return self._gram

    @cached_property
    def _gram(self) -> np.ndarray:
        _, in_dim = self.block_shape
        size = self.D * in_dim
        if size * size > FLAT_ENTRY_BUDGET:
            raise ConfigurationError(
                f"Gram matrix {size}x{size} exceeds the materialization budget"
            )
        gram = np.zeros((self.D, in_dim, self.D, in_dim), dtype=np.complex128)
        idx, blocks = self._index(), self._blocks
        hit = idx < self.D
        for f, c in enumerate(blocks):
            ch = c.conj().T
            for fp, cp in enumerate(blocks):
                # row i adds C_q^H C_q' to block (q-1-i, q'-1-i), i ascending
                i = np.flatnonzero(hit[:, f] & hit[:, fp])
                gram[idx[i, f], :, idx[i, fp], :] += ch @ cp
        gram = gram.reshape(size, size)
        gram.setflags(write=False)
        return gram

    def gram_diagonal_or_none(self) -> np.ndarray | None:
        """Fast path: when all cross products C_q^H C_q' (q != q') vanish and
        each C_q^H C_q is scalar (basis-vector blocks), the Gram matrix is
        diagonal; returns that diagonal (read-only, computed once per
        instance) or None."""
        return self._gram_diagonal

    @cached_property
    def _gram_diagonal(self) -> np.ndarray | None:
        out_dim, in_dim = self.block_shape
        if in_dim != 1:
            return None
        cols = np.hstack(self._blocks or [np.zeros((out_dim, 0))])
        cross = cols.conj().T @ cols  # C_q^H C_q' for every pair at once
        norms = cross.diagonal().real.copy()
        np.fill_diagonal(cross, 0.0)
        if cross.any():
            return None
        del cols, cross  # the F x F product, freed before the D x F index
        idx = self._index()
        # bincount adds in idx's row-major order, rows i ascending; bin D is the pad
        diag = np.bincount(idx.ravel(), np.tile(norms, self.D), minlength=self.D + 1)[: self.D]
        diag.setflags(write=False)
        return diag

    @cached_property
    def _gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(idx, stacked, stacked_adj) of the gather-GEMM applies, built once
        per instance: idx is ``_index``'s, stacked holds C_q^T and
        stacked_adj conj(C_q), one block row per frequency in idx's column
        order, both C-contiguous.  The pattern is symmetric in i <-> j, so
        the adjoint gathers through the same idx."""
        out_dim, in_dim = self.block_shape
        idx, blocks = self._index(), self._blocks
        # concatenate copies into C order (a strided factor doubles the GEMM's
        # cost); the empty block keeps the shape when no frequency is supported
        stacked = np.concatenate([c.T for c in blocks]
                                 + [np.zeros((0, out_dim), dtype=np.complex128)])
        stacked_adj = np.concatenate([c.conj() for c in blocks]
                                     + [np.zeros((0, in_dim), dtype=np.complex128)])
        return idx, stacked, stacked_adj

    def _gather_apply(self, vec: np.ndarray, width: int, stacked: np.ndarray) -> np.ndarray:
        """sum over frequencies of the gathered input blocks times ``stacked``:
        vec is padded with one zero block row, gathered through idx into a
        D x (F * width) matrix and multiplied once."""
        idx = self._gather[0]
        pad = np.zeros((self.D + 1, width), dtype=np.complex128)
        pad[: self.D] = vec.reshape(self.D, width)
        return (pad.take(idx, axis=0).reshape(self.D, -1) @ stacked).reshape(-1)

    def apply_flat(self, vec: np.ndarray) -> np.ndarray:
        """G @ vec without materializing G; vec has length D*in.  One gather
        of the input blocks along the anti-diagonals and one GEMM with the
        stacked C_q^T: O(F D out in)."""
        in_dim = self.block_shape[1]
        if vec.shape[0] != self.D * in_dim:
            raise DimensionError("vector length does not match D*in_dim")
        return self._gather_apply(vec, in_dim, self._gather[1])

    def apply_flat_adjoint(self, vec: np.ndarray) -> np.ndarray:
        """G^H @ vec: the same gather and one GEMM with the stacked conj(C_q)."""
        out_dim = self.block_shape[0]
        if vec.shape[0] != self.D * out_dim:
            raise DimensionError("vector length does not match D*out_dim")
        return self._gather_apply(vec, out_dim, self._gather[2])


def build_hankel(
    m: MultiplierSeq,
    spec: LacunarySpec,
    system: CoefficientSystem,
    D: int,
    freq_map: dict[int, int] | None = None,
) -> BlockHankel:
    """Assemble the block Hankel matrix for multiplier m over the given spec.

    The default frequency map sends K_t to element t.  A supported frequency
    <= 2D-1 with no mapped system element is a configuration error.  The
    dense contrast mode passes the identity map over a basis system instead
    of a lacunary spec.
    """
    if D < 1:
        raise ConfigurationError("build_hankel needs D >= 1")
    fmap = dict(freq_map) if freq_map is not None else spec.freq_map()
    coefficients = {}
    for q in m.support:
        if q > 2 * D - 1:
            continue  # beyond every anti-diagonal of the D-truncation
        if q not in fmap:
            raise ConfigurationError(
                f"multiplier supported at frequency {q} but no system element is mapped"
            )
        t = fmap[q]
        if not 1 <= t <= system.n:
            raise ConfigurationError(
                f"frequency {q} maps to element {t}, outside the {system.n}-element system"
            )
        coefficients[q] = (m(q) / q) * system.elements[t - 1]
    return BlockHankel(D=D, multiplier=m, system=system, freq_map=fmap, coefficients=coefficients)


# ---------------------------------------------------------------------------
# symbol


def symbol_block(g: BlockHankel, i: int, j: int) -> np.ndarray:
    """Block (i, j) rebuilt from the symbol q -> m(q)/q * C_{phi(q)},
    q = i + j + 1, out of the multiplier, frequency map and system (not out
    of the stored coefficients), so comparing it with block (i, j) of
    ``g.flat()`` checks the assembly."""
    q = i + j + 1
    mq = g.multiplier(q)
    if mq == 0:
        return np.zeros(g.block_shape, dtype=np.complex128)
    return (mq / q) * g.system.elements[g.freq_map[q] - 1]


# ---------------------------------------------------------------------------
# boundedness probes


@dataclass(frozen=True)
class BoundProbe:
    ratio: float
    norm_gtf: float
    sup_f: float


def norm_gtf(g: BlockHankel, f: Polynomial) -> float:
    """||G (T(f') (x) I)|| via the Gram route; equals the flat-product norm.
    A Gram matrix that is not diagonal is refused above FLAT_ENTRY_BUDGET
    entries (ConfigurationError)."""
    fp = poly_derivative(f)
    diag = g.gram_diagonal_or_none()
    if diag is not None:
        t_f = toeplitz(fp, g.D)
        w = np.sqrt(diag)[:, None] * t_f
        sv = np.linalg.svd(w, compute_uv=False)
        return float(sv[0]) if sv.size else 0.0
    # (T (x) I)^H (G^H G) (T (x) I); gram() refuses an oversize G^H G before
    # the kron of the same size is built
    gram = g.gram()
    tk = np.kron(toeplitz(fp, g.D), np.eye(g.block_shape[1], dtype=np.complex128))
    w = np.linalg.eigvalsh(tk.conj().T @ gram @ tk)
    return float(np.sqrt(max(w[-1], 0.0)))


def bound_probe(g: BlockHankel, f: Polynomial) -> BoundProbe:
    """ratio = ||G T(f')|| / certified sup|f|, the probe for the boundedness
    constant.  Degrees must stay below 2D so every coefficient of f' the
    truncation can see is present."""
    if f.is_zero:
        raise DomainError("bound_probe needs a nonzero polynomial (sup_f = 0)")
    if f.degree >= 2 * g.D:
        raise DomainError(f"deg f = {f.degree} >= 2D = {2 * g.D}")
    sup = sup_norm(f)
    norm = norm_gtf(g, f)
    return BoundProbe(ratio=norm / sup.certified_upper, norm_gtf=norm, sup_f=sup.certified_upper)


def fejer_poly(degree: int) -> Polynomial:
    """Analytic Fejer mean: coefficients 1 - k/(deg+1), k = 0..deg."""
    if degree < 0:
        raise DomainError("fejer_poly needs degree >= 0")
    k = np.arange(degree + 1)
    return Polynomial(1.0 - k / (degree + 1.0))


def random_poly(degree: int, rng: np.random.Generator) -> Polynomial:
    """Seeded probe polynomial: iid complex Gaussian coefficients scaled by
    1/deg (the sup normalization happens in the certified ratio), refused
    above ``numkit.DEGREE_CAP`` before anything is drawn."""
    if degree > numkit.DEGREE_CAP:
        raise ConfigurationError(f"degree {degree} exceeds cap {numkit.DEGREE_CAP}")
    c = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    return Polynomial(c / max(degree, 1))


@dataclass
class ProbeConfig:
    n_random: int = 16
    ascent_restarts: int = 2
    ascent_steps: int = 24


def monomial_grid(max_degree: int, support: tuple[int, ...]) -> list[int]:
    """Monomial degrees a probe search tries: every k in 0..max_degree up to
    64; above that 0..64, the powers of two, each supported frequency with its
    neighbours, and max_degree itself."""
    if max_degree <= 64:
        return list(range(0, max_degree + 1))
    ks = set(range(0, 65))
    ks.update(1 << j for j in range(1, 12) if (1 << j) <= max_degree)
    for q in support:
        ks.update(x for x in (q - 1, q, q + 1) if 0 <= x <= max_degree)
    ks.add(max_degree)
    return sorted(ks)


def fejer_ascent(start: Polynomial, max_degree: int, steps: int, solve, direction) -> float:
    """Best ratio seen by a coefficient ascent on a map of ``probe_search``:
    sigma of ``solve(f, start=v)`` over f's certified sup bound, stopping at
    sigma = 0; each step moves by half the coefficient norm along
    ``direction(u, v)`` damped by the Fejer weights, then renormalizes on the
    sup grid, whose FFT also gives the next step's bound (the grid and slack
    depend on the degree only).  Consecutive polynomials are close, so each
    solve after the first starts warm from the previous step's right vector
    v; its value is a Rayleigh lower bound all the same."""
    c = np.zeros(max_degree + 1, dtype=np.complex128)
    c[: start.coeffs.size] = start.coeffs
    damp = 1.0 - np.arange(max_degree + 1) / (max_degree + 1.0)
    best = 0.0
    sup = sup_norm(start).certified_upper
    v = None
    for _ in range(steps):
        f = Polynomial(c)
        if f.is_zero:
            break
        sigma, u, v = solve(f, start=v)
        best = max(best, sigma / sup)
        if sigma == 0.0:
            break
        grad = direction(u, v)
        step = 0.5 * np.linalg.norm(c) / max(np.linalg.norm(grad), 1e-30)
        c = c + step * damp * grad
        bound = sup_norm(Polynomial(c))
        gm = bound.grid_max
        if gm > 0:
            c /= gm
            sup = bound.certified_upper / gm
    return best


def probe_search(map_of, max_degree: int, monomials, *, n_random: int = 0,
                 n_degrees: int = 1, ascent_restarts: int = 1, ascent_steps: int = 0,
                 seed: int) -> tuple[float, str]:
    """The one probe pipeline: the best certified ratio ||map(f)|| / sup|f|
    over the candidates below, in this order, and the id of the first
    polynomial that reached it ("none" when every ratio is 0).

    - ``monomial:k``: z^k for each k in ``monomials``;
    - ``fejer:d``: the Fejer means of degree d = 2, 4, 8, ... <= max_degree;
    - ``random:i``: ``n_random`` seeded random polynomials, split evenly over
      a geometric grid of at most ``n_degrees`` degrees in [2, max_degree]
      (none when max_degree < 2);
    - ``ascent:i``: ``fejer_ascent`` for ``ascent_steps`` steps (none when
      0), started from fejer_poly(min(8, max_degree)) and from
      ``ascent_restarts - 1`` random polynomials of degree min(16, max_degree).

    ``map_of(rng)`` is ``(solve, direction)``: ``solve(f, start=None)`` gives
    the norm sigma (a lower bound) with its top singular pair (u, v), from
    the right vector ``start`` when one is given, and ``direction(u, v)`` the
    ascent direction, length max_degree + 1.  The monomials, the Fejer means
    and the random candidates are three warm chains: each solve starts from
    the right vector of the last solve of its chain whose sigma was nonzero
    (z^k from the last nonzero z^j, fejer:2d from fejer:d, random:i from
    random:i-1), the first of each cold; each ascent is a chain of its own.
    ``seed`` spawns three children: ``rng``, the random candidates, the
    random starts.  A lower-bound search: the ratio returned is reached by
    the polynomial named."""
    map_seed, rand_seed, ascent_seed = np.random.SeedSequence(seed).spawn(3)
    solve, direction = map_of(np.random.default_rng(map_seed))
    best, best_id = 0.0, "none"

    def offer(ratio: float, poly_id: str) -> None:
        nonlocal best, best_id
        if ratio > best:
            best, best_id = ratio, poly_id

    def chain(candidates) -> None:
        start = None  # the right vector of the chain's last nonzero solve
        for f, poly_id in candidates:
            sigma, _, v = solve(f, start=start)
            if sigma > 0.0:
                start = v
            offer(sigma / sup_norm(f).certified_upper, poly_id)

    chain((Polynomial.monomial(k), f"monomial:{k}") for k in monomials)
    fejer_degrees = [2**j for j in range(1, int(max_degree).bit_length())]  # 2, 4, ... <= max
    chain((fejer_poly(deg), f"fejer:{deg}") for deg in fejer_degrees)

    rng = np.random.default_rng(rand_seed)
    degrees = np.unique(np.geomspace(2, max(max_degree, 2), num=max(n_degrees, 1)).astype(int))
    degrees = degrees[degrees <= max_degree]
    per_degree = n_random // max(len(degrees), 1)
    chain((random_poly(int(deg), rng), f"random:{i * per_degree + r}")
          for i, deg in enumerate(degrees) for r in range(per_degree))

    if ascent_steps > 0:
        arng = np.random.default_rng(ascent_seed)
        starts = [fejer_poly(min(8, max_degree))]
        starts += [random_poly(min(16, max_degree), arng) for _ in range(ascent_restarts - 1)]
        for s_idx, start in enumerate(starts):
            offer(fejer_ascent(start, max_degree, ascent_steps, solve, direction),
                  f"ascent:{s_idx}")
    return best, best_id


def probe_solve(applies, dim: int, rng: np.random.Generator, what: str):
    """The ``solve`` of a probe map: ``solve(f, start=None)`` is (sigma, u, v)
    of one ``top_singular`` solve at tol 1e-10 on ``applies(f)`` =
    (apply, apply_adjoint) of the map at f, drawing from ``rng``, warm from
    ``start`` when given; one that hits PROBE_STEP_CAP raises
    NonConvergenceError naming ``what``."""

    def solve(f: Polynomial, start: np.ndarray | None = None):
        est, u, v = top_singular(*applies(f), dim, rng, 1e-10, PROBE_STEP_CAP, start)
        return est.check_converged(f"{what} Golub-Kahan-Lanczos").value, u, v

    return solve


def hankel_map(g: BlockHankel, rng: np.random.Generator):
    """(solve, direction) of f -> G (T(f') (x) I) for ``probe_search`` with
    max_degree 2D - 1.

    Each norm is a ``probe_solve`` drawing from ``rng`` on W (T(f') (x) I)
    with W^H W = G^H G: W is the square root of the Gram diagonal when the
    blocks are orthogonal basis vectors, G itself otherwise, so no dense
    Gram matrix is formed; T(f') is a shift when f is a monomial."""
    D = g.D
    _, in_dim = g.block_shape
    diag = g.gram_diagonal_or_none()
    if diag is None:
        w, wh = g.apply_flat, g.apply_flat_adjoint
    else:
        root = np.sqrt(diag)
        w = wh = (lambda x: root * x)

    def applies(f: Polynomial):
        t_f, _, t_h, _ = toeplitz_factor(poly_derivative(f), D)
        return (lambda v: w(t_f(v.reshape(D, in_dim)).reshape(-1)),
                lambda y: t_h(wh(y).reshape(D, in_dim)).reshape(-1))

    def direction(u: np.ndarray, v: np.ndarray) -> np.ndarray:
        # gradient of Re u^H W (T(f') x I) v in the coefficients of f, with
        # u = W T v / ||W T v||: d/d f-hat(k+1) = (k+1) conj of
        # sum_j <(W^H u)_{j+k}, v_j>, the k-th subdiagonal sum
        gu = wh(u).reshape(D, in_dim)
        grad = np.zeros(2 * D, dtype=np.complex128)
        k = np.arange(1, D + 1)
        grad[1 : D + 1] = k * np.conj(subdiagonal_sums(gu.conj() @ v.reshape(D, in_dim).T))
        return grad

    return probe_solve(applies, D * in_dim, rng, "G T(f')"), direction


@dataclass(frozen=True)
class ScanRow:
    D: int
    family: str
    best_ratio: float
    argmax_poly_id: str
    seed: int


def scan_probe_best(g: BlockHankel, cfg: ProbeConfig, seed: int) -> tuple[float, str]:
    """Best certified ratio for one cell of a scan family and its witness
    id.  Both families are basis-vector Hankels with a diagonal Gram matrix,
    so the monomials take the closed form
    ||G T((z^k)')|| = k sqrt(max diag[k-1:]), since T((z^k)') = k shift^{k-1};
    ``probe_search`` on ``hankel_map`` with the ``cfg`` budget runs the rest."""
    max_degree = 2 * g.D - 1
    diag = g.gram_diagonal_or_none()
    best, best_id = 0.0, "none"
    for k in monomial_grid(max_degree, g.multiplier.support):
        if not 1 <= k <= g.D:
            continue
        # |z^k| = 1 on the sup grid: the certified slack alone divides
        cert = 1.0 / (1.0 - np.pi * k / numkit.default_grid_points(k))
        ratio = k * np.sqrt(diag[k - 1 :].max()) / cert
        if ratio > best:
            best, best_id = ratio, f"monomial:{k}"
    found = probe_search(partial(hankel_map, g), max_degree, [], n_random=cfg.n_random,
                         n_degrees=cfg.n_random, ascent_restarts=cfg.ascent_restarts,
                         ascent_steps=cfg.ascent_steps, seed=seed)
    return found if found[0] > best else (best, best_id)


def lacunary_basis_family(D: int) -> BlockHankel:
    """The vector-valued regime: basis-vector blocks at frequencies 2^t up to
    2D-1, indicator multiplier.  Dyadic block sums all equal 1."""
    L = int(np.floor(np.log2(2 * D - 1))) if D >= 1 else 0
    L = max(L, 1)
    spec = lacunary_default(L)
    m = MultiplierSeq.indicator(spec)
    return build_hankel(m, spec, basis_vectors(L), D)


def ones_basis_family(D: int) -> BlockHankel:
    """Dense contrast: m identically 1 on every frequency <= 2D-1 with the
    identity frequency map over basis vectors e_1..e_{2D-1}.  Violates the
    bounded-block-sum condition; probe ratios grow with D."""
    n_freq = 2 * D - 1
    m = MultiplierSeq.ones(n_freq)
    fmap = {k: k for k in range(1, n_freq + 1)}
    # spec argument is unused under an explicit map; a singleton spec keeps the signature
    return build_hankel(m, LacunarySpec((1,)), basis_vectors(n_freq), D, freq_map=fmap)


SCAN_FAMILIES = {
    "lacunary": lacunary_basis_family,
    "ones": ones_basis_family,
}


def bound_scan(
    family: str,
    d_list: list[int],
    cfg: ProbeConfig,
    seed: int = 0,
    threads: int = 1,
) -> list[ScanRow]:
    """Max probe ratio per D for a family of ``SCAN_FAMILIES``.  Cells get
    deterministic spawned seeds and are aggregated in D_list order
    regardless of thread count."""
    if family not in SCAN_FAMILIES:
        raise ConfigurationError(
            f"unknown scan family {family!r}; choose from {sorted(SCAN_FAMILIES)}"
        )
    builder = SCAN_FAMILIES[family]
    children = np.random.SeedSequence(entropy=seed).spawn(len(d_list))
    cell_seeds = [int(c.generate_state(1)[0]) for c in children]

    def cell(args) -> ScanRow:
        d, cell_seed = args
        g = builder(d)
        best, best_id = scan_probe_best(g, cfg, cell_seed)
        return ScanRow(D=d, family=family, best_ratio=best, argmax_poly_id=best_id, seed=seed)

    jobs = list(zip(d_list, cell_seeds))
    if threads > 1 and len(jobs) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(cell, jobs))
    return [cell(j) for j in jobs]
