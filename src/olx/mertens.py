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

import numpy as np

from .errors import DomainError, check_budget
from .lfamily import EULER_GAMMA, LFunctionModel, log_local_factor
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


def _sieve_limit(model: LFunctionModel, x: float) -> int:
    """int(x), after the checks that a product at cutoff x must pass."""
    if x < 2:
        raise DomainError(f"truncated product needs x >= 2, got {x}")
    model.check_cutoff(x)
    check_budget("sieve_limit", int(x))
    return int(x)


def _product(model: LFunctionModel, primes: np.ndarray, x: float) -> float:
    log_product = blocked_log_sum(primes, lambda ps: log_local_factor(model, ps))
    return exp_of_log(log_product, f"truncated product at x = {x}")


def truncated_product_at_1(model: LFunctionModel, x: float) -> float:
    """prod_{p <= x} prod_j (1 - alpha_j(p)/p)^(-1), evaluated in log space.

    The one-cutoff case of mertens_report: one sieve to x. Accumulation is
    block-ordered and compensated, so results are bit-identical across
    runs and worker counts.
    """
    return _product(model, sieve_primes(_sieve_limit(model, x)), x)


def mertens_prediction(model: LFunctionModel, x: float) -> float:
    """residue * e^(gamma*m) * (log x)^m."""
    if x <= 1:
        raise DomainError(f"prediction needs x > 1, got {x}")
    m = model.pole_order
    return model.residue * math.exp(EULER_GAMMA * m) * math.log(x) ** m


def mertens_report(model: LFunctionModel, grid: Sequence[float]) -> MertensReport:
    """Assemble products, predictions, and ratios over an ascending grid.

    The grid is sieved once, to its largest cutoff; each product reduces a
    prefix of those primes in the same blocks as truncated_product_at_1,
    so it has the same bits.
    """
    grid = tuple(float(x) for x in grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise DomainError("cutoff grid must be strictly increasing")
    limits = []
    try:
        for x in grid:
            limits.append(_sieve_limit(model, x))
    finally:
        # a refused cutoff is raised after the products before it, and an
        # overflow among those is raised instead, as one cutoff at a time
        primes = sieve_primes(limits[-1]) if limits else None
        products = tuple(_product(model, primes[: np.searchsorted(primes, n, side="right")], x)
                         for x, n in zip(grid, limits))
    predictions = tuple(mertens_prediction(model, x) for x in grid)
    ratios = tuple(p / q for p, q in zip(products, predictions))
    return MertensReport(
        label=model.label,
        grid=grid,
        product=products,
        prediction=predictions,
        ratio=ratios,
    )
