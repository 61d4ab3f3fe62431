"""Deterministic compensated reduction over prime blocks.

All Euler products accumulate in log space: per-prime terms are summed
with numpy's pairwise reduction inside fixed-size blocks, and the block
results are folded left-to-right by neumaier_sum, the package's only
compensated loop (complex sums fold their real and imaginary parts
through it separately). The block boundaries depend only on the input,
never on a worker count, so two runs produce bit-identical sums
regardless of how blocks were computed.
"""
from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

BLOCK_PRIMES = 1 << 16


def neumaier_sum(values: Iterator[float]) -> float:
    """Compensated left-to-right sum of a sequence of floats."""
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def blocked_log_sum(
    primes: np.ndarray,
    term_fn: Callable[[np.ndarray], np.ndarray],
    block: int = BLOCK_PRIMES,
) -> float:
    """Sum term_fn over ascending prime blocks with ordered compensation.

    term_fn maps a block of primes to the per-prime real log terms; blocks
    are evaluated and reduced in ascending order.
    """

    def block_sums() -> Iterator[float]:
        for lo in range(0, len(primes), block):
            yield float(np.sum(term_fn(primes[lo : lo + block])))

    return neumaier_sum(block_sums())


def blocked_complex_log_sum(
    primes: np.ndarray,
    term_fn: Callable[[np.ndarray], np.ndarray],
    block: int = BLOCK_PRIMES,
) -> complex:
    """Complex analogue of blocked_log_sum (real and imaginary parts are
    compensated independently)."""
    sums = [
        complex(np.sum(term_fn(primes[lo : lo + block])))
        for lo in range(0, len(primes), block)
    ]
    return complex(
        neumaier_sum(s.real for s in sums), neumaier_sum(s.imag for s in sums)
    )
