"""Truncated Euler products at s = 1 and their growth prediction.

The product over p <= x of the full local factors grows like
residue * e^(gamma*m) * (log x)^m; mertens_report measures the ratio of
the actual truncated product to that prediction over a cutoff grid. No
fitting or extrapolation is applied: the error constant in the remainder
is not numerically accessible at desk scale, so only raw ratios ship.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import DomainError
from .lfamily import EULER_GAMMA, LFunctionModel, local_roots, log_local_factor
from .primes import sieve_primes
from .summation import blocked_log_sum, exp_of_log


@dataclass(frozen=True)
class MertensReport:
    """Truncated products, predictions, and their ratios over a cutoff grid."""

    label: str
    grid: tuple[float, ...]
    product: tuple[float, ...] = field(repr=False)
    prediction: tuple[float, ...] = field(repr=False)
    ratio: tuple[float, ...] = field(repr=False)


def lambda_coeff(model: LFunctionModel, p: int, r: int) -> complex:
    """(1/r) * sum_j alpha_j(p)^r, the p^r coefficient of log F.

    Bounded by degree/r in modulus; real to rounding for the shipped
    self-dual models.
    """
    if r < 1:
        raise DomainError(f"prime-power exponent must be >= 1, got {r}")
    roots = local_roots(model, p).roots
    return sum(z**r for z in roots) / r


def truncated_product_at_1(model: LFunctionModel, x: float) -> float:
    """prod_{p <= x} prod_j (1 - alpha_j(p)/p)^(-1), evaluated in log space.

    Accumulation is block-ordered and compensated, so results are
    bit-identical across runs and worker counts.
    """
    if x < 2:
        raise DomainError(f"truncated product needs x >= 2, got {x}")
    model.check_cutoff(x)
    primes = sieve_primes(int(x)).primes
    log_product = blocked_log_sum(primes, lambda ps: log_local_factor(model, ps))
    return exp_of_log(log_product, f"truncated product at x = {x}")


def mertens_prediction(model: LFunctionModel, x: float) -> float:
    """residue * e^(gamma*m) * (log x)^m."""
    if x <= 1:
        raise DomainError(f"prediction needs x > 1, got {x}")
    m = model.pole_order
    return model.residue * math.exp(EULER_GAMMA * m) * math.log(x) ** m


def mertens_report(model: LFunctionModel, grid: Sequence[float]) -> MertensReport:
    """Assemble products, predictions, and ratios over an ascending grid."""
    grid = tuple(float(x) for x in grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("cutoff grid must be strictly increasing")
    products = tuple(truncated_product_at_1(model, x) for x in grid)
    predictions = tuple(mertens_prediction(model, x) for x in grid)
    ratios = tuple(p / q for p, q in zip(products, predictions))
    return MertensReport(
        label=model.label,
        grid=grid,
        product=products,
        prediction=predictions,
        ratio=ratios,
    )
