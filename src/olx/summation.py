"""Deterministic compensated reduction over prime blocks.

All Euler products accumulate in log space: per-prime terms are summed
with numpy's pairwise reduction inside fixed-size blocks, and the block
results are folded left-to-right by neumaier_sum, the package's only
compensated loop (complex sums fold their real and imaginary parts
through it separately). The block boundaries depend only on the input,
never on a worker count, so two runs produce bit-identical sums
regardless of how blocks were computed; worker_cap reads that count from
OLX_THREADS for every pool in the package. exp_of_log turns a log sum
back into a value, raising NumericError instead of overflowing a float.
"""
from __future__ import annotations

import math
import os
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, NumericError

BLOCK = 1 << 16  # prime-sum and oracle-head terms, or enumeration cells, per block

LOG_FLOAT_MAX = float(np.log(np.finfo(np.float64).max))


def env_threads() -> int | None:
    """The worker cap set by OLX_THREADS, or None when it is unset."""
    raw = os.environ.get("OLX_THREADS")
    if raw is None:
        return None
    try:
        v = int(raw)
    except ValueError:
        raise DomainError(f"OLX_THREADS must be a positive integer, got {raw!r}") from None
    if v < 1:
        raise DomainError(f"OLX_THREADS must be a positive integer, got {raw!r}")
    return v


def worker_cap() -> int:
    """The worker count: OLX_THREADS, or all cores when it is unset."""
    return env_threads() or os.cpu_count() or 1


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
) -> float:
    """Sum term_fn over ascending prime blocks with ordered compensation.

    term_fn maps a block of primes to the per-prime real log terms; blocks
    are evaluated and reduced in ascending order.
    """

    def block_sums() -> Iterator[float]:
        for lo in range(0, len(primes), BLOCK):
            yield float(np.sum(term_fn(primes[lo : lo + BLOCK])))

    return neumaier_sum(block_sums())


def exp_of_log(log_value: float, what: str) -> float:
    """math.exp(log_value), or NumericError naming `what` when the value
    would overflow a float."""
    if log_value > LOG_FLOAT_MAX:
        raise NumericError(f"{what} overflows a float (log {log_value:.6g})")
    return math.exp(log_value)


def blocked_complex_log_sum(
    primes: np.ndarray,
    term_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
) -> complex:
    """Complex analogue of blocked_log_sum: term_fn returns the real and
    imaginary parts of the per-prime terms as two arrays, and each part is
    reduced and compensated independently."""
    sums = [
        tuple(float(np.sum(part)) for part in term_fn(primes[lo : lo + BLOCK]))
        for lo in range(0, len(primes), BLOCK)
    ]
    return complex(neumaier_sum(s[0] for s in sums), neumaier_sum(s[1] for s in sums))
