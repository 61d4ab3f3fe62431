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

import numpy as np

from .errors import DomainError, check_budget
from .lfamily import EULER_GAMMA, LFunctionModel, log_local_factor
from .primes import SEGMENT_SIZE, sieve_primes
from .summation import BLOCK, exp_of_log, neumaier_sum


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


def _prime_blocks(limit: int) -> Iterator[np.ndarray]:
    """The primes <= limit in consecutive BLOCKs counted from 2, the last
    one possibly short, from sieve windows of SEGMENT_SIZE integers: a block
    is a view of its window, or a copy where it spans two."""
    rest = np.empty(0, dtype=np.int64)  # the primes past the last block
    for lo in range(2, limit + 1, SEGMENT_SIZE):
        window = sieve_primes(min(lo + SEGMENT_SIZE - 1, limit), SEGMENT_SIZE, lo)
        j = BLOCK - len(rest)
        if len(window) < j:
            rest = np.concatenate((rest, window))
            continue
        yield np.concatenate((rest, window[:j])) if len(rest) else window[:j]
        while len(window) - j >= BLOCK:
            yield window[j : j + BLOCK]
            j += BLOCK
        rest = window[j:]
    if len(rest):
        yield rest


def _log_products(model: LFunctionModel, limits: Sequence[int]) -> Iterator[float]:
    """The log of the truncated product at each ascending limit, in one
    pass over the prime blocks to the last limit.

    Each block is reduced once; the product at a limit folds the sums of
    the full blocks below it and of its partial block with neumaier_sum.
    Those are blocked_log_sum's blocks over the primes <= limit, in its
    order, so every product has its bits, and only one sieve window's
    primes are held at a time.
    """

    def block_sum(primes: np.ndarray) -> float:
        return float(np.sum(log_local_factor(model, primes)))

    sums: list[float] = []
    i = 0
    for block in _prime_blocks(limits[-1]) if limits else ():
        while i < len(limits) and limits[i] < block[-1]:
            k = int(np.searchsorted(block, limits[i], side="right"))
            yield neumaier_sum(sums + [block_sum(block[:k])] if k else sums)
            i += 1
        sums.append(block_sum(block))
    for _ in limits[i:]:
        yield neumaier_sum(sums)


def truncated_product_at_1(model: LFunctionModel, x: float) -> float:
    """prod_{p <= x} prod_j (1 - alpha_j(p)/p)^(-1), evaluated in log space.

    The one-cutoff case of mertens_report: one pass over sieve windows to
    x, holding one window's primes at a time. Accumulation is block-ordered
    and compensated, so results are bit-identical across runs and worker
    counts.
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
    each full block of primes is reduced once; every product is the one
    truncated_product_at_1 gives at its cutoff, to the bit.
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
