"""Deterministic compensated reduction over prime blocks.

This module owns the block order and the fold: prime_blocks cuts the
primes, whole or in sieve windows, into fixed-size blocks counted from
the first prime. All Euler products accumulate in log space: each
block's terms are summed with numpy's pairwise reduction, and the block
results are folded left-to-right by neumaier_sum, the package's only
compensated loop (complex sums fold their real and imaginary parts
through it separately). Neither depends on a worker count or a windowing,
so two runs give bit-identical sums; worker_cap reads that count from
OLX_THREADS for every pool in the package. exp_of_log turns a log sum
back into a value, raising NumericError instead of overflowing a float.

Blocks fix the bits; parts fix the working set. The term function is
called on consecutive PARTs of a block, and its parts are written into
one block-sized buffer per output, which the block's sum then reads. A
part's temporaries stay in cache, where a whole block's would stream
through memory. So a term function must be elementwise: its value at a
prime depends on that prime alone, never on the other primes in its call.
"""
from __future__ import annotations

import math
import os
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, NumericError

BLOCK = 1 << 16  # prime-sum and oracle-head terms, or enumeration cells, per block
PART = 1 << 13  # primes per term-function call within a block

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


def prime_blocks(windows: np.ndarray | Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Ascending prime windows cut into consecutive BLOCKs counted from the
    first prime, the last one possibly short; an array counts as one
    window. A block is a view of its window, or a copy where it spans two."""
    rest = ()  # the primes past the last full block
    for window in (windows,) if isinstance(windows, np.ndarray) else windows:
        if len(rest):
            j = BLOCK - len(rest)
            rest, window = np.concatenate((rest, window[:j])), window[j:]
            if len(rest) < BLOCK:
                continue
            yield rest
        full = len(window) - len(window) % BLOCK
        yield from (window[lo : lo + BLOCK] for lo in range(0, full, BLOCK))
        rest = window[full:]
    if len(rest):
        yield rest


def _block_terms(
    blocks: Iterable[np.ndarray],
    term_fn: Callable[[np.ndarray], Sequence[np.ndarray]],
) -> Iterator[tuple[np.ndarray, Sequence[np.ndarray]]]:
    """Each block with its terms, one array per output of term_fn: term_fn
    is called on the block's consecutive PARTs, each output written into
    its own buffer of the first block's length (no later block is longer)
    that every later block reuses. One array per output, not one array of
    rows: the two-row array of a complex product peaked 1 MB higher."""
    bufs = None
    for block in blocks:
        for lo in range(0, len(block), PART):
            parts = term_fn(block[lo : lo + PART])
            if bufs is None:
                bufs = [np.empty(len(block)) for _ in parts]
            for buf, part in zip(bufs, parts):
                buf[lo : lo + len(part)] = part
        yield block, [buf[: len(block)] for buf in bufs]


def prefix_log_sums(
    windows: np.ndarray | Iterable[np.ndarray],
    term_fn: Callable[[np.ndarray], np.ndarray],
    limits: Sequence[float],
) -> Iterator[float]:
    """The sum of term_fn (per-prime real log terms, elementwise) over the
    primes <= each ascending limit, in one pass over prime_blocks(windows):
    each block's terms are computed once, and the sum at a limit folds the
    full blocks below it and its partial block, the bits of blocked_log_sum
    over those primes."""
    sums: list[float] = []
    i = 0
    for block, (terms,) in _block_terms(prime_blocks(windows), lambda ps: (term_fn(ps),)):
        while i < len(limits) and limits[i] < block[-1]:
            k = int(np.searchsorted(block, limits[i], side="right"))
            yield neumaier_sum(sums + [float(np.sum(terms[:k]))] if k else sums)
            i += 1
        sums.append(float(np.sum(terms)))
    for _ in limits[i:]:
        yield neumaier_sum(sums)


def blocked_log_sum(
    primes: np.ndarray,
    term_fn: Callable[[np.ndarray], np.ndarray],
) -> float:
    """Sum term_fn over prime_blocks(primes) with ordered compensation: the
    one-limit case of prefix_log_sums."""
    return next(prefix_log_sums(primes, term_fn, (math.inf,)))


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
    imaginary parts of the per-prime terms as two arrays, elementwise, and
    each part is reduced and compensated independently."""
    sums = [(float(np.sum(re)), float(np.sum(im)))
            for _, (re, im) in _block_terms(prime_blocks(primes), term_fn)]
    return complex(neumaier_sum(s[0] for s in sums), neumaier_sum(s[1] for s in sums))
