"""Prime generation and the Kronecker symbol.

Every Euler product in this package iterates over the primes produced
here; the quadratic characters chi_d(n) = kronecker(d, n) drive the
degree-2 field models.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError, check_budget

SEGMENT_SIZE = 1 << 21


def _simple_sieve(limit: int) -> np.ndarray:
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def sieve_primes(limit: int, segment_size: int = SEGMENT_SIZE) -> np.ndarray:
    """All primes <= limit, ascending, as a read-only int64 array, from a
    segmented sieve of Eratosthenes over the odd numbers.

    The mask is bounded by segment_size (integers per segment, one flag per
    odd number), not limit, so scans can ask for primes up to 1e8 without a
    mask of that size. Each segment writes its primes straight into one
    buffer sized by pi(x) < 1.25506 x / ln x (Rosser and Schoenfeld), which
    is then shrunk in place, so the result holds 8 * pi(limit) bytes (46 MB
    at 1e8) and the primes are never copied whole. Segments are processed
    in ascending order; the result is deterministic.
    """
    if not limit >= 2:
        raise DomainError(f"sieve limit must be >= 2, got {limit}")
    check_budget("sieve_limit", limit)
    limit = int(limit)
    root = math.isqrt(limit)
    base = _simple_sieve(root)
    odd_base = base[1:]
    squares = odd_base * odd_base
    primes = np.empty(int(1.25506 * limit / math.log(limit)) + 1, dtype=np.int64)
    primes[: len(base)] = base
    count = max(len(base), 1)
    primes[0] = 2  # base is empty below 4
    lo = max(root + 1, 3) | 1  # first odd number past the base primes
    span = max(segment_size // 2, 1)  # odd numbers per segment
    while lo <= limit:
        n = min(span, (limit - lo) // 2 + 1)
        mask = np.ones(n, dtype=bool)
        # first odd multiple of p at or past max(p^2, lo), as an index
        start = np.maximum(squares, (lo + odd_base - 1) // odd_base * odd_base)
        start += odd_base * (start % 2 == 0)
        for p, i in zip(odd_base.tolist(), ((start - lo) // 2).tolist()):
            mask[i::p] = False
        found = np.flatnonzero(mask)
        found *= 2
        found += lo
        primes[count : count + len(found)] = found
        count += len(found)
        lo += 2 * n
        del found  # freed before the next segment finds its primes
    primes.resize(count, refcheck=False)  # no view of the buffer is left
    primes.setflags(write=False)
    return primes


def primes_upto(limit: float) -> np.ndarray:
    """The primes <= limit as a read-only array, cached across calls.

    Every truncation cutoff Y reaches the primes through here, so this is
    where the sieve budget "Y" is enforced, on the cutoff as given: a
    non-finite one is refused, and so is one a fraction above the limit.
    The cache is keyed on int(limit).
    """
    check_budget("Y", limit)
    return _sieved(int(limit))


@lru_cache(maxsize=6)
def _sieved(limit: int) -> np.ndarray:
    return sieve_primes(limit)


def kronecker(d: int, n: int) -> int:
    """Kronecker symbol (d/n) for nonzero d and n >= 1.

    Computed with the reciprocity algorithm (no factorization of n), so
    n may be large. Completely multiplicative in n with period |d|.
    """
    if d == 0:
        raise DomainError("kronecker symbol requires d != 0")
    if n < 1:
        raise DomainError(f"kronecker symbol requires n >= 1, got {n}")
    a, b = d, n
    result = 1
    if b % 2 == 0:
        if a % 2 == 0:
            return 0
        # (a/2) factor: +1 for a = +-1 mod 8, -1 for a = +-3 mod 8
        while b % 2 == 0:
            b //= 2
            if a % 8 in (3, 5):
                result = -result
    a %= b
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if b % 8 in (3, 5):
                result = -result
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            result = -result
        a %= b
    return result if b == 1 else 0


@lru_cache(maxsize=4)
def character_table(d: int) -> np.ndarray:
    """chi_d over one period: int8 array c of length |d| with c[n mod |d|] = chi_d(n),
    read-only and cached, so a model and its direct values share one table.

    Requires |d| >= 2 (every fundamental discriminant d != 1 qualifies);
    residue 0 maps to 0 since any n = 0 mod |d| shares a factor with d.
    """
    q = abs(d)
    if q < 2:
        raise DomainError("character table needs |d| >= 2")
    # chi_d is completely multiplicative: each prime power p^j < q flips or
    # zeroes its multiples by chi_d(p), one kronecker call per prime
    table = np.ones(q, dtype=np.int8)
    table[0] = 0
    for p in sieve_primes(q).tolist():
        chi_p = kronecker(d, p)
        if chi_p == 0:
            table[p::p] = 0
        elif chi_p < 0:
            pj = p
            while pj < q:
                table[pj::pj] *= -1
                pj *= p
    table.setflags(write=False)
    return table
