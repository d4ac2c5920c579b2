"""Mesoscopic edge fluctuations of orthogonal polynomial ensembles.

Exact finite-n cumulants of linear statistics from recurrence coefficients,
tridiagonal resolvent machinery, limiting variance formulas, and a
Monte-Carlo cross-check, behind one CLI (``opemeso``).
"""

from .ensembles import (
    EdgeSpec,
    EnsembleSpec,
    Family,
    Side,
    chebyshev2,
    check_hypotheses,
    custom,
    edge_location,
    freud,
    from_json,
    hahn,
    hermite,
    jacobi_window,
    krawtchouk,
    laguerre,
    log_singular,
    modified_jacobi,
    modified_jacobi_expansion,
    recurrence,
    tricomi_carlitz,
)
from .errors import (
    IllConditioned,
    InvalidParams,
    NoConvergence,
    OpemesoError,
    OutOfDomain,
    Singular,
    Unsupported,
    WindowTooSmall,
)
from .testfun import ResolventTestFunction, parse_test_function
from .tridiagonal import (
    AlmostToeplitzDecomposition,
    DecayFit,
    TransferSpectrum,
    TridiagonalMatrix,
    TridiagonalResolvent,
    almost_toeplitz_decompose,
    decay_profile,
    free_resolvent_entry,
    invert_dense_oracle,
    resolvent_norm_estimate,
    transfer_spectrum,
)
from .cumulants import (
    BoundReport,
    CumulantReport,
    build_F,
    convergence_sweep,
    cumulant,
    cumulant_bound_check,
    default_margin,
    operator_norm_estimate,
    second_cumulant_three_ways,
)
from .limits import (
    LimitVariance,
    fit_resolvent_approximation,
    pi_squared_check,
    sigma2_quadrature,
    sigma2_residue,
    weighted_lipschitz_norm,
)
from .sampling import (
    SampleBatch,
    empirical_statistic,
    load_batch,
    sample_spectra,
    sample_statistic,
    save_batch,
    spectra_statistic,
)

__version__ = "0.1.0"
