"""Numerical laboratory for a polynomially bounded operator that is not
similar to a contraction, at finite truncation.

Modules: numkit (norms, polynomials, Toeplitz),
coeff_systems (CAR / Haar-unitary / basis-vector coefficient systems),
hankel (lacunary multipliers and block Hankel matrices), counterexample
(the bundled operator, probes, certificates), martingale (Monte Carlo
engine for the dyadic Moebius martingale), cli (reproduction driver).
"""

__version__ = "0.1.0"

from .coeff_systems import (
    CoefficientSystem,
    RowBoundEstimate,
    basis_vectors,
    car_jordan_wigner,
    car_relation_residual,
    haar_unitaries,
    row_bound,
    tensor_conj_norm,
    trace_witness,
)
from .counterexample import (
    OperatorBundle,
    PbSearch,
    build_T,
    cb_certificate,
    eps_for_target_c,
    fcn_experiment,
    pb_probe,
)
from .errors import (
    ConfigurationError,
    DimensionError,
    DomainError,
    NonConvergenceError,
    PbncError,
)
from .hankel import (
    BlockHankel,
    BoundProbe,
    LacunarySpec,
    MultiplierSeq,
    ProbeConfig,
    ScanRow,
    bound_probe,
    bound_scan,
    build_hankel,
    fejer_poly,
    lacunary_default,
    symbol_block,
)
from .martingale import (
    MartingaleConfig,
    McEstimate,
    PathBatch,
    eta_modulus,
    eta_modulus_sup,
    simulate_paths,
)
from .numkit import (
    NormEstimate,
    Polynomial,
    SupNormBound,
    poly_derivative,
    poly_eval,
    sup_norm,
    toeplitz,
)
