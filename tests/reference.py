"""Dense references the tests compare the package's structured routines
against.  No command runs them; each materializes what the package only
applies, so they are exact and slow:

* ``op_norm``: the largest singular value by an exact Hermitian eigensolve
  of the Gram matrix, up to dimension OP_NORM_EXACT_MAX_DIM;
* ``poly_of_matrix``: Horner evaluation of P(A) for a square matrix;
* ``dense_T`` and ``poly_of_T``: a bundle's T and its block formula for
  P(T), both materialized, against the matvecs of ``pbnc.counterexample``;
* ``row_bound_check``: the row-bound inequality for n x n block grids,
  criterion 11's claim;
* ``simulate_paths``: every path block of an ``mc`` run in one batch, the
  full-batch estimates that ``pbnc.martingale.stream_estimates`` must equal
  bit for bit.
"""

from __future__ import annotations

import numpy as np

from pbnc.counterexample import OperatorBundle
from pbnc.errors import ConfigurationError, DimensionError, DomainError
from pbnc.martingale import SIM_BLOCK, MartingaleConfig, PathBatch, _draw_block
from pbnc.numkit import NormEstimate, Polynomial, poly_derivative, toeplitz

OP_NORM_EXACT_MAX_DIM = 4096
DENSE_T_ENTRY_BUDGET = 1 << 26


def as_matrix(a) -> np.ndarray:
    """Coerce to a C-ordered complex128 2-d array and require finite entries."""
    m = np.ascontiguousarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-d matrix, got ndim={m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise DomainError("matrix has non-finite entries")
    return m


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


def dense_T(b: OperatorBundle) -> np.ndarray:
    """T = [[S^t, eps*G], [0, S]] of the bundle, materialized."""
    n = b.total_dim
    if n * n > DENSE_T_ENTRY_BUDGET:
        raise ConfigurationError(
            f"dense T would be {n}x{n}; use the structured matvec routines"
        )
    g = b.hankel
    # S = shift (x) I, the one-step shift z^i -> z^{i+1}, truncated
    s = np.kron(np.eye(g.D, k=-1, dtype=np.complex128),
                np.eye(g.block_shape[1], dtype=np.complex128))
    return np.block([[s.T, b.eps * g.flat()], [np.zeros_like(s), s]])


def poly_of_T(b: OperatorBundle, p: Polynomial) -> np.ndarray:
    """Dense P(T) by the block formula [[P(S)^t, eps*G*(T(P') (x) I)], [0, P(S)]];
    agrees with Horner evaluation to rounding because supported frequencies
    stay <= D.  The reference the structured matvecs are tested against."""
    D, h = b.hankel.D, b.hankel.block_shape[1]
    # P(S) = T(p) (x) I: the truncated shift's powers are the Toeplitz diagonals
    ps = np.kron(toeplitz(p, D), np.eye(h, dtype=np.complex128))
    tp = np.kron(toeplitz(poly_derivative(p), D), np.eye(h, dtype=np.complex128))
    corner = b.eps * (b.hankel.flat() @ tp)
    z = np.zeros_like(ps)
    return np.block([[ps.T, corner], [z, ps]])


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


def simulate_paths(cfg: MartingaleConfig) -> PathBatch:
    """All ``cfg.n_blocks`` path blocks of ``cfg``, each drawn by
    ``_draw_block`` into its rows of one freshly allocated
    ``cfg.n_samples``-row batch: the rows equal, byte for byte, those that
    ``stream_estimates`` draws into its one block workspace.  The drift is
    the largest over the blocks and the renormalizations are summed."""
    n, L = cfg.n_samples, cfg.L
    Z = np.empty((n, L), dtype=np.complex128, order="F")
    psi = np.zeros((n, L + 1), dtype=np.complex128, order="F")
    renorms, drift = 0, 0.0
    for b in range(cfg.n_blocks):
        rows = slice(b * SIM_BLOCK, (b + 1) * SIM_BLOCK)
        block = _draw_block(cfg, b, Z[rows], psi[rows])
        renorms += block.renorm_count
        drift = max(drift, block.radial_drift)
    return PathBatch(Z=Z, psi=psi, renorm_count=renorms, radial_drift=drift)
