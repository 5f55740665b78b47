"""Monte Carlo engine for the dyadic Moebius martingale.

Paths follow psi_0 = 0, psi_n = r_n * Phi(psi_{n-1}/r_n, Z_n) with
Phi(z, zeta) = (zeta + z)/(1 + conj(z) zeta), r_n = 1 - 2^{-n}, and Z_n
independent uniform on the unit circle.  |psi_n| = r_n identically (Moebius
maps preserve the circle), so each level lives on its own centered circle
and psi_n is uniformly distributed on it.  Each Z_n is drawn as an angle
theta uniform on [0, 2 pi) and formed as ((1 - t^2) + 2it) / (1 + t^2) with
t = tan(theta / 2): Z_n equals exp(i theta) to within 2 ulp, not bit for
bit, at a fraction of the cost of the complex exponential.  Levels stop at
``MAX_LEVEL``, the last n whose r_n still differs from r_{n-1} in float64:
above it the extraction weights below divide by r_n^2 - r_{n-1}^2 = 0.

The engine verifies, at sampling accuracy, the identities this construction
is built to satisfy, each as the mean of one per-sample function:

* ``radial_samples``: E[F(psi_k)] = F-hat(0) for analytic polynomials F;
* ``fourier_samples``, ``multiplier_samples``: predictable weights eta_{n-1}
  make E[eta_{n-1} conj(Z_n) (F(psi_n) - F(psi_{n-1}))] = F-hat(K_n),
  with |eta_{n-1}| path-independent and explicitly bounded;
* ``orthogonality_samples``: E[conj(Z_n) dF_n dG_n] = 0, and so is the
  mean times any predictable weight phi_{n-1}, because both increments are
  analytic in Z_n with zero constant term, so their product has no Z_n^1
  coefficient;
* ``BridgeForm``: the extracted coefficients assemble the same bilinear
  form that the flattened Hankel matrix computes exactly.

Level 1 is special: predictable weights are constants there, so only the
frequency-1 coefficient can be extracted, and the weight is 1/r_1 (the
choice that makes E[(1/r_1) conj(Z_1) F(r_1 Z_1)] = F-hat(1) on the nose).
Extraction at level 1 therefore requires K_1 = 1.

In-block extraction at frequency k with 2^{n-1} < k <= 2^n uses the weight
conj(xi_{n-1})^{k-1} * r_n / ((r_n^2 - r_{n-1}^2) * k * r_{n-1}^{k-1});
the k-1 exponent is forced by consistency with the K_n case.

Memory model.  Paths are simulated in blocks of ``SIM_BLOCK`` rows, each
from its own ``SeedSequence`` child, by one kernel, ``_draw_block``, which
one driver, ``stream_estimates``, runs.  Every estimator is a per-sample
function (``radial_samples``, ``fourier_samples``, ``multiplier_samples``,
``orthogonality_samples``) followed by one reducer, ``McAccumulator``: a
Chan-Golub-LeVeque pairwise merge of (count, mean, M2) over ``SIM_BLOCK``-row
chunks.  The chunks are the simulation blocks, and the per-sample functions
take every elementwise product in one fixed operand order into a fresh array
(never in place), so a sample's value does not depend on how many rows its
batch holds.  ``stream_estimates`` therefore runs any ``n_samples`` with one
workspace of ``SIM_BLOCK x (2L + 1)`` path values, allocated once and
overwritten by each block in turn, and returns the same bits as one
``McAccumulator`` over the per-sample function of all the blocks drawn into
one batch.  Reusing the workspace spares the allocator a
fresh block-sized pair per block, which it would hand back to the system
and fault in again every time.  The draws are written straight into ``Z``
and each level's Moebius step straight into ``psi``, so at the peak the
workspace is alive together with either the level recurrence's few column
temporaries or one check's per-sample arrays: about 1.4 blocks under
tracemalloc for the default L = 6 battery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError
from .hankel import BlockHankel, LacunarySpec
from .numkit import Polynomial, poly_derivative, poly_eval

SIM_BLOCK = 1 << 14
RENORM_TOL = 1e-12


def radius(k: int) -> float:
    return 1.0 - 2.0 ** (-k)


def _last_distinct_level() -> int:
    """The last k with radius(k) != radius(k - 1) in float64."""
    k = 1
    while radius(k + 1) != radius(k):
        k += 1
    return k


MAX_LEVEL = _last_distinct_level()
# the least level each per-sample function reads; the most is the path depth
LEAST_LEVEL = {"radial": 0, "fourier": 1, "multiplier": 2, "orthogonality": 1}


def check_level(name: str, n: int) -> None:
    """Raise ConfigurationError for a level ``n`` above MAX_LEVEL, naming
    the setting ``name`` it came from."""
    if n > MAX_LEVEL:
        raise ConfigurationError(
            f"{name} = {n} is above {MAX_LEVEL}, the last level whose radius 1 - 2^-n "
            "differs from the one before in float64")


def check_sample_level(kind: str, n: int, L: int, *, spec: LacunarySpec | None = None,
                       k: int | None = None, at: str = "") -> None:
    """Raise ConfigurationError, naming the key ``<at>level`` or ``<at>k``,
    for a level ``n`` or a frequency that the ``kind`` per-sample function
    cannot read from paths of depth ``L``.  The one source of truth for
    these rules: ``radial_samples``, ``fourier_samples``,
    ``multiplier_samples`` and ``orthogonality_samples`` call it on every
    block, and ``pbnc mc`` on each check of its config before any path is
    drawn.

    * A kind reads levels ``LEAST_LEVEL[kind]``..L, and a fourier check no
      deeper than its ``spec``.
    * A fourier check at level 1 extracts K_1 of ``spec``, which must be 1:
      predictable weights are constants there, and constant weights only
      reach frequency 1.
    * A multiplier check at level n extracts a frequency ``k`` of the
      level-n dyadic block 2^{n-1} < k <= 2^n, where ``LacunarySpec``
      already puts a fourier check's K_n."""
    if kind == "fourier":
        L = min(L, spec.L)
    lo = LEAST_LEVEL[kind]
    if not lo <= n <= L:
        raise ConfigurationError(
            f"{at}level = {n} is outside {lo}..{L}, the levels a {kind} check reads at L = {L}")
    if kind == "fourier" and n == 1 and spec.K[0] != 1:
        raise ConfigurationError(
            f"{at}level = 1 needs K_1 = 1 (constant weights only reach frequency 1), "
            f"and the spec has K_1 = {spec.K[0]}")
    if kind == "multiplier" and not 2 ** (n - 1) < k <= 2**n:
        raise ConfigurationError(
            f"{at}k = {k} is outside the level-{n} dyadic block (2^{n - 1}, 2^{n}]")


@dataclass(frozen=True)
class MartingaleConfig:
    L: int
    n_samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.L < 1:
            raise ConfigurationError("MartingaleConfig needs L >= 1")
        check_level("L", self.L)
        if self.n_samples < 1:
            raise ConfigurationError("n_samples must be positive")

    @property
    def n_blocks(self) -> int:
        return (self.n_samples + SIM_BLOCK - 1) // SIM_BLOCK


@dataclass
class PathBatch:
    """One block of simulated paths: Z unimodular draws (N x L), psi values
    (N x (L+1), column 0 identically zero), N the block's rows: ``SIM_BLOCK``,
    or fewer in the last block.  ``stream_estimates`` hands each block to
    its samplers as views of one workspace, which the next block
    overwrites.  ``renorm_count`` counts the renormalized entries and
    ``radial_drift`` is the largest | |psi_k| - r_k | over every entry of
    levels 1..L, measured after renormalization.

    Both arrays are stored column-major (Fortran order): every estimator
    reads whole levels ``psi[:, k]`` and ``Z[:, k]``, and a contiguous
    column is what ``poly_eval``'s chunked Horner streams through cache.
    Shapes and indexing are those of any (N, L) array."""

    Z: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)
    renorm_count: int = 0
    radial_drift: float = 0.0

    @property
    def L(self) -> int:
        return self.Z.shape[1]


@dataclass(frozen=True)
class McEstimate:
    mean: complex
    stderr: float


class McAccumulator:
    """Running (count, mean, M2) of complex samples, M2 the sum of squared
    moduli of deviations from the mean; the package's one reducer.

    ``add`` cuts its input into ``SIM_BLOCK``-sample chunks, takes each
    chunk's mean and M2 directly and merges them by the pairwise update of
    Chan, Golub & LeVeque (1979).  Feeding the blocks of a stream one by one
    and feeding their concatenation once therefore run the same operations,
    so both give the same bits."""

    def __init__(self) -> None:
        self.count, self.mean, self.m2 = 0, 0j, 0.0

    def add(self, samples) -> "McAccumulator":
        samples = np.asarray(samples, dtype=np.complex128).reshape(-1)
        for lo in range(0, samples.size, SIM_BLOCK):
            chunk = samples[lo : lo + SIM_BLOCK]
            nb = chunk.size
            mean_b = complex(chunk.mean())
            m2_b = float((np.abs(chunk - mean_b) ** 2).sum())
            n = self.count + nb
            delta = mean_b - self.mean
            self.mean += delta * (nb / n)
            self.m2 += m2_b + abs(delta) ** 2 * (self.count * nb / n)
            self.count = n
        return self

    def estimate(self) -> McEstimate:
        n = self.count
        sd = float(np.sqrt(self.m2 / (n - 1))) if n > 1 else 0.0
        return McEstimate(mean=self.mean, stderr=sd / np.sqrt(n))


def _product(*factors) -> np.ndarray:
    """Left-to-right product of arrays (or scalars), each step into a fresh
    array.  ``a * b`` on temporaries may be evaluated as ``b * a`` above
    numpy's 256 KiB elision threshold, and an in-place product of one
    element skips the fused multiply-add of the vector loop; complex
    products are bitwise sensitive to both, so neither may depend on how
    many rows a batch holds."""
    out = np.asarray(factors[0], dtype=np.complex128)
    for f in factors[1:]:
        out = np.multiply(out, f)
    return out


def _unimodular(theta: np.ndarray, out: np.ndarray) -> None:
    """exp(i theta) as ((1 - t^2) + 2it) / (1 + t^2), t = tan(theta / 2),
    written into the real and imaginary parts of ``out``; the temporaries
    are as long as ``theta`` and die on return."""
    t = np.tan(np.multiply(theta, 0.5))
    t2 = np.multiply(t, t)
    den = np.add(1.0, t2)
    np.divide(np.subtract(1.0, t2), den, out=out.real)
    np.divide(np.multiply(2.0, t), den, out=out.imag)


def _draw_block(cfg: MartingaleConfig, b: int, Z: np.ndarray, psi: np.ndarray) -> PathBatch:
    """Draw block b of ``cfg`` into ``Z`` and ``psi``, column-major arrays
    with one row per path of the block (column 0 of ``psi`` zero on entry),
    and return them as a ``PathBatch``.  The one level recurrence, which
    ``stream_estimates`` runs on its one block workspace.  Every temporary
    is one column long, and each Moebius step divides straight into
    ``psi[:, k]``.

    Block b's angles theta are drawn from child b of
    ``SeedSequence(cfg.seed)`` in their row-major (rows, L) shape, so the
    values do not depend on the layout.  The modulus invariant
    |psi_k| = r_k is enforced by renormalization whenever rounding drifts
    past ``RENORM_TOL``; occurrences are counted, and the largest drift
    left is kept."""
    L = cfg.L
    # the b-th child of SeedSequence(cfg.seed).spawn(...), built directly
    child = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(b,))
    theta = np.random.default_rng(child).uniform(0.0, 2.0 * np.pi, size=(psi.shape[0], L))
    for k in range(L):
        _unimodular(theta[:, k], out=Z[:, k])
    del theta
    renorms, max_drift = 0, 0.0
    prev = psi[:, 0]
    for k in range(1, L + 1):
        rk = radius(k)
        zk = Z[:, k - 1]
        w = prev / rk
        cur = psi[:, k]
        np.divide(rk * (zk + w), 1.0 + np.conj(w) * zk, out=cur)
        drift = np.abs(np.abs(cur) - rk)
        bad = drift > RENORM_TOL
        if np.any(bad):
            renorms += int(bad.sum())
            cur[bad] = cur[bad] / np.abs(cur[bad]) * rk
            drift[bad] = np.abs(np.abs(cur[bad]) - rk)
        max_drift = max(max_drift, float(drift.max()))
        prev = cur
    return PathBatch(Z=Z, psi=psi, renorm_count=renorms, radial_drift=max_drift)


# ---------------------------------------------------------------------------
# mean identities


def radial_samples(paths: PathBatch, f: Polynomial, k: int) -> np.ndarray:
    """Per-path F(psi_k) - F-hat(0); its mean is 0 in expectation."""
    check_sample_level("radial", k, paths.L)
    return poly_eval(f, paths.psi[:, k]) - f.coeffs[0]


# ---------------------------------------------------------------------------
# eta weights and Fourier extraction


def eta_modulus(n: int, k: int) -> float:
    """|eta_{n-1}| for extraction at frequency k from level n; path-
    independent closed form."""
    rn, rp = radius(n), radius(n - 1)
    return rn / ((rn * rn - rp * rp) * k * rp ** (k - 1))


def eta_modulus_sup(n_max: int) -> float:
    """sup over 2 <= n <= n_max of the extraction-weight modulus at the
    dyadic frequency 2^n of level n; the sequence tends to e^2/2 from a
    one-time peak at n = 2."""
    if n_max < 2:
        raise DomainError("n_max must be >= 2")
    check_level("n_max", n_max)
    return max(eta_modulus(n, 2**n) for n in range(2, n_max + 1))


def _eta_weights_at(paths: PathBatch, n: int, k: int) -> np.ndarray:
    """Per-path predictable weight eta_{n-1}(k) for level n >= 2: the
    unimodular factor conj(xi_{n-1})^{k-1} times ``eta_modulus(n, k)``."""
    xi = paths.psi[:, n - 1] / radius(n - 1)
    return _product(_power(np.conj(xi), k - 1), eta_modulus(n, k))


def _power(z: np.ndarray, e: int) -> np.ndarray:
    """z^e for an integer e >= 1 by binary powering: about 2 log2(e) ufunc
    products, each into a fresh array (see ``_product``), where numpy's
    complex ``**`` runs a scalar loop per element.  Within e rounding errors
    of ``z ** e``."""
    out = None
    while True:
        if e & 1:
            out = z if out is None else np.multiply(out, z)
        e >>= 1
        if not e:
            return out
        z = np.multiply(z, z)


def _increment(paths: PathBatch, f: Polynomial, n: int) -> np.ndarray:
    """dF_n = F(psi_n) - F(psi_{n-1}) per path.  psi_0 = 0, where Horner
    gives F-hat(0) bit for bit, so level 1 subtracts that coefficient."""
    prev = f.coeffs[0] if n == 1 else poly_eval(f, paths.psi[:, n - 1])
    return poly_eval(f, paths.psi[:, n]) - prev


def fourier_samples(paths: PathBatch, f: Polynomial, spec: LacunarySpec, n: int) -> np.ndarray:
    """Per-path eta_{n-1} conj(Z_n) (F(psi_n) - F(psi_{n-1})), whose mean
    is F-hat(K_n) in expectation.  Level 1 requires K_1 = 1 (predictable
    weights are constant there) and uses eta_0 = 1/r_1."""
    check_sample_level("fourier", n, paths.L, spec=spec)
    if n == 1:
        return _product(np.conj(paths.Z[:, 0]), 1.0 / radius(1), _increment(paths, f, 1))
    # the block-top case is in-block extraction at k = K_n; one code path
    # keeps the two estimators bit-identical there
    return multiplier_samples(paths, f, n, spec.K[n - 1])


def multiplier_samples(paths: PathBatch, f: Polynomial, n: int, k: int) -> np.ndarray:
    """Per-path eta_{n-1}(k) conj(Z_n) dF_n, whose mean is F-hat(k) in
    expectation for any k in the level-n dyadic block 2^{n-1} < k <= 2^n;
    the weight swaps K_n for k in both the exponent (k - 1) and the
    modulus."""
    check_sample_level("multiplier", n, paths.L, k=k)
    eta = _eta_weights_at(paths, n, k)
    return _product(np.conj(paths.Z[:, n - 1]), eta, _increment(paths, f, n))


# ---------------------------------------------------------------------------
# orthogonality


def orthogonality_samples(paths: PathBatch, f: Polynomial, g: Polynomial, n: int) -> np.ndarray:
    """Per-path conj(Z_n) dF_n dG_n; its mean is 0 in expectation, since
    both increments are Z_n-analytic with zero constant term."""
    check_sample_level("orthogonality", n, paths.L)
    return _product(np.conj(paths.Z[:, n - 1]), _increment(paths, f, n), _increment(paths, g, n))


# ---------------------------------------------------------------------------
# the bridge to the Hankel matrix


class BridgeForm:
    """The bilinear form behind the counterexample corner,

        <u(P) x, y-bar> = sum_t m(K_t) P-hat(K_t) [C_t x, y],

    with [a, b] = sum a_i b_i: ``coeffs[t-1] = m(K_t) [C_t x, y]``, and the
    ``exact`` value, which contracts the flattened Hankel against the
    degree-zero coordinate embeddings.  The Monte Carlo side takes
    P-hat(K_t) from ``fourier_samples(paths, p, spec, t)``, t = 1..L."""

    def __init__(self, g: BlockHankel, p: Polynomial, x: np.ndarray, y: np.ndarray,
                 spec: LacunarySpec):
        if spec.freq_map() != g.freq_map:
            raise ConfigurationError("spec and Hankel frequency maps disagree")
        if p.degree >= 2 * g.D:
            raise DomainError(f"deg P = {p.degree} >= 2D = {2 * g.D}")
        out_dim, in_dim = g.block_shape
        x = np.asarray(x, dtype=np.complex128).reshape(in_dim)
        y = np.asarray(y, dtype=np.complex128).reshape(out_dim)
        self.p, self.spec = p, spec
        self.coeffs = tuple(g.multiplier(kt) * complex(y @ (g.system.elements[t - 1] @ x))
                            for t, kt in enumerate(spec.K, start=1))
        # (T(P') (x) I)(e_0 (x) x): block i is P'-hat(i) * x, i < D
        dp = poly_derivative(p).coeffs[: g.D]
        dp_col = np.zeros(g.D, dtype=np.complex128)
        dp_col[: dp.size] = dp
        embedded = (dp_col[:, None] * x[None, :]).reshape(g.D * in_dim)
        gv = g.apply_flat(embedded)
        self.exact = complex(y @ gv.reshape(g.D, out_dim)[0])

    def samplers(self) -> list:
        """One per-sample function of a ``PathBatch`` per level t."""
        return [lambda paths, t=t: fourier_samples(paths, self.p, self.spec, t)
                for t in range(1, self.spec.L + 1)]

    def combine(self, estimates: list[McEstimate]) -> McEstimate:
        """sum_t coeffs[t-1] * estimate_t; the propagated error adds
        |coefficient| * stderr linearly, a conservative bound."""
        mc_total = 0j
        err_total = 0.0
        for est, coeff in zip(estimates, self.coeffs, strict=True):
            mc_total += complex(est.mean) * coeff
            err_total += abs(coeff) * est.stderr
        return McEstimate(mean=mc_total, stderr=err_total)


# ---------------------------------------------------------------------------
# streaming


def stream_estimates(cfg: MartingaleConfig, samplers) -> tuple[list[McEstimate], float, int]:
    """The one driver of the path simulation: one pass over the path blocks
    of ``cfg``, each sampler mapping every ``SIM_BLOCK``-row block to its
    per-sample values, which feed that sampler's ``McAccumulator``.  Every
    block is drawn into one workspace allocated here (the last, shorter
    block into its leading rows), so memory is O(SIM_BLOCK * L) for any
    ``n_samples`` and no block allocates path arrays.  A sampler must not
    keep the batch it is given: the next block overwrites it.

    Returns (estimates, max radial drift, renormalization count), equal bit
    for bit to ``McAccumulator().add(samplers[i](paths)).estimate()`` and
    the drift and count of ``paths``, all ``cfg.n_blocks`` blocks drawn
    into one ``cfg.n_samples``-row batch."""
    accs = [McAccumulator() for _ in samplers]
    drift, renorms = 0.0, 0
    rows = min(SIM_BLOCK, cfg.n_samples)
    Z = np.empty((rows, cfg.L), dtype=np.complex128, order="F")
    psi = np.zeros((rows, cfg.L + 1), dtype=np.complex128, order="F")
    for b in range(cfg.n_blocks):
        rows = min(SIM_BLOCK, cfg.n_samples - b * SIM_BLOCK)
        paths = _draw_block(cfg, b, Z[:rows], psi[:rows])
        drift = max(drift, paths.radial_drift)
        renorms += paths.renorm_count
        for acc, sample in zip(accs, samplers):
            acc.add(sample(paths))
    return [acc.estimate() for acc in accs], drift, renorms
