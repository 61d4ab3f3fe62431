"""Euler-product models of L-functions on the 1-line.

Library surface: prime sieving and quadratic characters (primes), concrete
model families (lfamily), truncated products at s = 1 with growth reports
(mertens), the resonance lower-bound machinery and moment integrals
(resonator), direct evaluation and truncation calibration on the 1-line
(evaluate), large-value scans (scan), and the `olx` command line (cli).
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    NumericError,
    OlxError,
    RangeError,
    ResourceError,
    UnsupportedModelError,
)
from .lfamily import (
    EULER_GAMMA,
    LFunctionModel,
    TauTable,
    dirichlet_L1,
    dirichlet_direct,
    is_fundamental_discriminant,
    make_dedekind_quadratic,
    make_rankin_selberg_delta,
    make_zeta_power,
    parse_model,
    power_sum,
    sym2_residue,
    tau_table,
)
from .evaluate import (
    CalibrationStats,
    calibrate_truncation,
    euler_product_on_line,
    zeta_em,
    zeta_eta,
)
from .mertens import (
    MertensReport,
    mertens_prediction,
    mertens_report,
    truncated_product_at_1,
)
from .primes import kronecker, sieve_primes
from .resonator import (
    MomentQuadrature,
    MomentSeries,
    ResonanceReport,
    ResonatorConfig,
    asymptotic_bound,
    moment_quadrature,
    moment_series,
    q_of_prime,
    resonance_product,
    resonance_products_at_cutoff,
    resonator_config,
)
from .scan import BoundReport, ScanRecord, bound_report, grid_scan, refine_peak

__all__ = [
    "BoundReport",
    "CalibrationStats",
    "DomainError",
    "EULER_GAMMA",
    "LFunctionModel",
    "MertensReport",
    "MomentQuadrature",
    "MomentSeries",
    "NumericError",
    "OlxError",
    "RangeError",
    "ResonanceReport",
    "ResonatorConfig",
    "ResourceError",
    "ScanRecord",
    "TauTable",
    "UnsupportedModelError",
    "__version__",
    "asymptotic_bound",
    "bound_report",
    "calibrate_truncation",
    "dirichlet_L1",
    "dirichlet_direct",
    "euler_product_on_line",
    "grid_scan",
    "is_fundamental_discriminant",
    "kronecker",
    "make_dedekind_quadratic",
    "make_rankin_selberg_delta",
    "make_zeta_power",
    "mertens_prediction",
    "mertens_report",
    "moment_quadrature",
    "moment_series",
    "parse_model",
    "power_sum",
    "q_of_prime",
    "refine_peak",
    "resonance_product",
    "resonance_products_at_cutoff",
    "resonator_config",
    "sieve_primes",
    "sym2_residue",
    "tau_table",
    "truncated_product_at_1",
    "zeta_em",
    "zeta_eta",
]
