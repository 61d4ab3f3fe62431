"""Exception hierarchy shared by all modules, and the resource budgets.

Exit-code mapping used by the CLI: DomainError family -> 1,
NumericError -> 2, ResourceError -> 3. Every compute or memory budget is
one row of BUDGETS, refused through check_budget. A row's message formats
value, limit and the caller's context; the costs in its reason were
measured on a 2-core Xeon VM (numpy 2.4).
"""
from typing import NamedTuple


class OlxError(Exception):
    """Base class for all package errors."""


class DomainError(OlxError, ValueError):
    """An argument is outside the mathematical domain of the operation."""


class RangeError(DomainError):
    """A parameter exceeds the range covered by precomputed coefficients."""


class UnsupportedModelError(DomainError):
    """The requested operation has no implementation for this model."""


class ResourceError(OlxError, RuntimeError):
    """A parameter exceeds a compute or memory budget."""


class NumericError(OlxError, ArithmeticError):
    """A numeric computation degenerated or failed to converge."""


Budget = NamedTuple("Budget", [("limit", float), ("message", str), ("reason", str)])

BUDGETS = {
    "sieve_limit": Budget(1 << 32, "sieve limit {value:g} exceeds the sieve budget {limit}",
                          "pi(2^32) = 203,280,221 primes, 8 bytes each: 1.6 GB"),
    "Y": Budget(100_000_000, "Y = {value:g} exceeds the sieve budget {limit:g}",
                "largest truncation cutoff; its cached prime table holds 5.8e6 primes, 46 MB"),
    "abs_t": Budget(1e8, "|t| = {value:g} exceeds the phase precision budget {limit:g}",
                    "beyond it the phases t log p keep too few correct digits"),
    "samples": Budget(10_000, "calibration samples beyond the budget {limit}",
                      "an oracle value and a product each: 1000 at Y = 1e6 took 3.8 s"),
    "grid_points": Budget(1 << 28, "grid of {value:.3g} points exceeds the budget {limit}; "
                          "raise step or shrink the window", "14 s at 1 thread, 52 ns per point"),
    "top_k": Budget(1000, "top_k beyond the budget {limit}",
                    "10,001 products at Y = 1e5 took 3.0 s, so 64 per record take about 19 s"),
    "candidates": Budget(
        64, "{count} grid values within 2 eps = {two_eps:.1e} of the top {top_k} exceed the "
        "budget of {limit} per record", "standalone products a scan may spend per record"),
    "tau_N": Budget(20_000, "tau table budget is N <= {limit}, got {value}",
                    "20,000 entries take 0.09 s; the CRT range of the moduli ends near 36,780"),
    "zeta_power": Budget(10_000, "zeta power beyond the budget m <= {limit}",
                         "per-prime kernels loop over m roots: zeta^1e5 took 0.6 s on mertens"),
    "abs_d": Budget(1_000_000, "|d| <= {limit} required, got {d}",
                    "the squarefree test is trial division; character_table(-999995) takes 0.17 s"),
    "enum_items": Budget(12_000_000, "moment-series enumeration exceeded {limit} items; "
                         "lower n_cutoff or X",
                         "per half, 32 bytes per item at the first half's sort; binds near X = 25"),
    "quad_nodes": Budget(1 << 25, "quadrature needs {value:.3g} nodes, beyond the budget "
                         "{limit}; raise step or lower T", "13 s at 0.3-0.45 us per node, X = 18"),
    "charsum_head": Budget(1 << 27, "character series needs a head of {value} terms for period "
                           "{period} at |s| = {abs_s:.3g}; beyond budget",
                           "about 9 s: a head of 2.6e7 terms took 1.6-2.0 s"),
    "eta_terms": Budget(1 << 15, "alternating series needs {value} terms at |s| = {abs_s:.3g}, "
                        "beyond the budget {limit}", "|t| <= 36,733 on Re(s) = 1; the weights of "
                        "2^15 terms, two passes over integers of 83,000 bits, took 2.7-3.2 s"),
}


def check_budget(name: str, value, **context) -> None:
    """ResourceError with the row's message unless value <= its limit (NaN fails)."""
    row = BUDGETS[name]
    if not value <= row.limit:
        raise ResourceError(row.message.format(value=value, limit=row.limit, **context))
