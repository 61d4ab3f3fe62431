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
from typing import Iterator, Sequence

from .errors import DomainError, check_budget
from .lfamily import EULER_GAMMA, LFunctionModel, log_local_factor
from .primes import SEGMENT_SIZE, sieve_primes
from .summation import exp_of_log, prefix_log_sums


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
    check_budget("sieve_limit", x)
    return int(x)


def _log_products(model: LFunctionModel, limits: Sequence[int]) -> Iterator[float]:
    """The log of the truncated product at each ascending limit: the
    prefix sums of summation.prime_blocks over the sieve windows of
    SEGMENT_SIZE integers from 2 to the last limit, so only one window's
    primes are held at a time and every product has the bits of the one
    reduction over all primes <= its limit."""
    last = limits[-1] if limits else 1
    windows = (sieve_primes(min(lo + SEGMENT_SIZE - 1, last), SEGMENT_SIZE, lo)
               for lo in range(2, last + 1, SEGMENT_SIZE))
    return prefix_log_sums(windows, lambda ps: log_local_factor(model, ps), limits)


def truncated_product_at_1(model: LFunctionModel, x: float) -> float:
    """prod_{p <= x} prod_j (1 - alpha_j(p)/p)^(-1), evaluated in log space.

    The one-cutoff case of mertens_report: one pass over sieve windows to
    x, holding one window's primes at a time, reduced over
    summation.prime_blocks; accumulation is block-ordered and compensated,
    so results are bit-identical across runs and worker counts.
    """
    log_product = next(_log_products(model, [_sieve_limit(model, x)]))
    return exp_of_log(log_product, f"truncated product at x = {x}")


def mertens_prediction(model: LFunctionModel, x: float) -> float:
    """residue * e^(gamma*m) * (log x)^m."""
    if not 1 < x < math.inf:
        raise DomainError(f"prediction needs 1 < x < inf, got {x}")
    m = model.pole_order
    return model.residue * math.exp(EULER_GAMMA * m) * math.log(x) ** m


def mertens_report(model: LFunctionModel, grid: Sequence[float]) -> MertensReport:
    """Assemble products, predictions, and ratios over an ascending grid.

    The grid is sieved in one pass of windows, to its largest cutoff, and
    each block of summation.prime_blocks is reduced once; every product
    is the one truncated_product_at_1 gives at its cutoff, to the bit.
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
        products = tuple(exp_of_log(v, f"truncated product at x = {x}")
                         for x, v in zip(grid, _log_products(model, limits)))
    predictions = tuple(mertens_prediction(model, x) for x in grid)
    ratios = tuple(p / q for p, q in zip(products, predictions))
    return MertensReport(
        label=model.label,
        grid=grid,
        product=products,
        prediction=predictions,
        ratio=ratios,
    )
