"""Values on the 1-line: truncated Euler products F(1+it; Y) and the
independent direct oracles they are calibrated against.

The truncated product is the package's working approximation of F(1+it);
zeta_em (Euler-Maclaurin) and zeta_eta (accelerated alternating series)
are two independent direct evaluations of the zeta factor, and
lfamily.dirichlet_direct supplies the character factor of the
quadratic-field models. calibrate_truncation measures how well the
truncated product tracks the direct value over seeded samples; it
reports deviations and never extrapolates (the truncated product does not
converge absolutely on the 1-line as Y grows).
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np

from .charsum import EM_BERNOULLI
from .errors import DomainError, NumericError, UnsupportedModelError, check_budget
from .lfamily import LFunctionModel, dirichlet_direct, power_sum
from .primes import primes_upto
from .summation import BLOCK, LOG_FLOAT_MAX, blocked_complex_log_sum, worker_cap

EXPANSION_DROP_MAX = 1e-13  # per unit of degree; see log_expansion
_EXPANSION_TINY = 1e-18  # log_expansion's coefficient floor; EXPANSION_DROP_MAX holds at it


def zeta_em(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin: head sum to N = max(50, 2|Im s|) in
    blocks of summation.BLOCK terms, so a call holds one block's
    temporaries (2.5 MiB traced at t = 1e6), integral and half terms, then 8
    Bernoulli corrections, for s != 1 with 0 < Re(s) <= 1e18 (past about
    1e19 the corrections' rising product overflows) and |Im s| within the
    phase budget "abs_t". On Re(s) = 1 the error against 30-digit mpmath
    was 8.4e-11 at t = 1e6, 6.8e-10 at 1e7 and 1.8e-8 at 1e8: the rounding
    of the phases t log n, not truncation."""
    s = complex(s)
    if s == 1:
        raise DomainError("zeta has a pole at s = 1")
    check_budget("abs_t", abs(s.imag))
    if not 0 < s.real <= 1e18:
        raise DomainError(f"zeta needs 0 < Re(s) <= 1e18, got {s}")
    N = max(50, math.ceil(2 * abs(s.imag)))
    total = 0.0 + 0.0j
    for lo in range(1, N + 1, BLOCK):
        n = np.arange(lo, min(lo + BLOCK, N + 1), dtype=np.float64)
        total += complex(np.sum(np.exp(-s * np.log(n))))
    nf = float(N)
    total += nf ** (1 - s) / (s - 1) - 0.5 * nf ** (-s)
    # correction terms B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N^(-s-2j+1)
    rising = s
    fact = 1.0
    for j, b in enumerate(EM_BERNOULLI, start=1):
        fact *= (2 * j - 1) * (2 * j)
        total += (b / fact) * rising * nf ** (-s - (2 * j - 1))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def _eta_terms(n: int):
    """Borwein's e_0 = 1, e_(i+1) = e_i 4(n+i)(n-i) / ((2i+1)(2i+2)) up to e_n; each
    // is exact, since e_i = n (n+i-1)! 4^i / ((n-i)! (2i)!) is an integer."""
    e = 1
    for i in range(n + 1):
        yield e
        e = e * (4 * (n + i) * (n - i)) // ((2 * i + 1) * (2 * i + 2))


@lru_cache(maxsize=64)
def _eta_weights(n: int) -> np.ndarray:
    """(-1)^k (d_n - d_k)/d_n for k < n, d_k = e_0 + ... + e_k, read-only: correctly
    rounded int/int divisions that never overflow, holding two big ints, not n. d_n
    is T_n(3) = ((3 + sqrt 8)^n + (3 - sqrt 8)^n)/2, from x_(k+1) = 6 x_k - x_(k-1)."""
    before, d_n = 3, 1  # T_-1(3), T_0(3)
    for _ in range(n):
        before, d_n = d_n, 6 * d_n - before
    tail = d_n
    weights = np.empty(n)
    for k, e in zip(range(n), _eta_terms(n)):
        tail -= e
        weights[k] = tail / d_n * (-1) ** k
    weights.setflags(write=False)
    return weights


def zeta_eta(s: complex) -> complex:
    """Riemann zeta via P. Borwein's accelerated alternating series ("An
    efficient algorithm for the Riemann zeta function", 2000), independent
    of zeta_em: zeta = eta / (1 - 2^(1-s)) with
    eta = sum_(k<n) (-1)^k (d_n - d_k)/d_n (k+1)^(-s) (_eta_weights). For
    Re(s) >= 1/2 its truncation error is at most 3 (1 + 2|t|) e^(pi |t|/2)
    / ((3 + sqrt 8)^n |1 - 2^(1-s)|), and n holds that to 1e-12.

    Domain: finite s != 1, Re(s) > 0 (else DomainError), |Im s| within
    "abs_t" (else ResourceError, NaN too), |1 - 2^(1-s)| >= max(1e-3,
    3e-6 |t|) (else NumericError: near s = 1 + 2 pi i k / log 2 the quotient
    is 0/0; k = 0 refuses |s - 1| < 1.44e-3) and n within "eta_terms" (else
    ResourceError, before any weight is built; on Re(s) = 1 that admits |t|
    up to about 36,733). Against 30-digit mpmath on Re(s) = 1 the error was
    6.5e-14 at t = 1e3, 5.3e-13 at 1e4 and 9.1e-13 at 3e4. Near the floor
    the terms' phase rounding, divided by |1 - 2^(1-s)|, dominates: over 35
    points at t = 544 to 36,622 the error was at most 2.0e-16 |t| /
    |1 - 2^(1-s)|, so the floor's 3e-6 |t| holds it below 6.7e-11."""
    s = complex(s)
    if s == 1:
        raise DomainError("zeta has a pole at s = 1")
    check_budget("abs_t", abs(s.imag))
    if not 0 < s.real < math.inf:
        raise DomainError(f"alternating-series path needs 0 < Re(s) < inf, got {s}")
    t = abs(s.imag)
    denom = 1.0 - 2.0 ** (1.0 - s)
    floor = max(1e-3, 3e-6 * t)  # the phase rounding, about 2e-16 |t|, over at most 6.7e-11
    if not abs(denom) >= floor:
        raise NumericError(f"|1 - 2^(1-s)| = {abs(denom):.2e} at s = {s}, below the floor "
                           f"{floor:.2e}")
    n = max(24, math.ceil((math.log(3e12 * (1 + 2 * t) / abs(denom)) + math.pi * t / 2)
                          / math.log(3 + math.sqrt(8)))) + 8
    check_budget("eta_terms", n, abs_s=abs(s))
    terms = _eta_weights(n) * np.exp(-s * np.log(np.arange(1.0, n + 1.0)))
    return complex(np.sum(terms)) / denom


def _log_terms_on_line(
    model: LFunctionModel, primes: np.ndarray, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Per-prime real and imaginary parts of the log of the local factors
    (1 - alpha w)^(-1) at s = 1 + it, in real arithmetic.

    With r = 1/p, phi = t log p and w = p^(-s) = r e^(-i phi), a real root
    a contributes
        -log(1 - a w) = -1/2 log1p(ar (ar - 2 cos phi))
                        - i atan2(ar sin phi, 1 - ar cos phi),
    and a pair of unit-modulus roots e^(+-i theta), c = cos theta,
    contributes -log f, f = 1 - 2c w + w^2, from A = Re f - 1 =
    r (r cos 2phi - 2c cos phi) and B = Im f = r (2c sin phi - r sin 2phi):
        -log f = -1/2 log1p(A (2 + A) + B^2) - i atan2(B, 1 + A).
    cos phi and sin phi are taken once per prime; the double angles follow
    from them. The rounding of these terms is bounded in the expsum
    docstring; the root bound (LFunctionModel) keeps log1p's argument > -1.
    """
    real, pair_re = model.root_blocks(primes)
    # block-sized temporaries are reused in place (out=): each fresh one
    # costs page faults once the previous block's memory was returned
    pf = primes.astype(np.float64)
    r = 1.0 / pf
    phi = np.log(pf, out=pf)
    phi *= t
    cos = np.cos(phi)
    sin = np.sin(phi, out=phi)
    re = np.zeros(len(primes))
    im = np.zeros(len(primes))
    for j in range(real.shape[1]):
        ar = real[:, j] * r
        abs_f2_m1 = ar - 2.0 * cos
        abs_f2_m1 *= ar  # |1 - a w|^2 - 1
        re -= 0.5 * np.log1p(abs_f2_m1, out=abs_f2_m1)
        re_f = 1.0 - ar * cos
        im -= np.arctan2(np.multiply(ar, sin, out=ar), re_f, out=re_f)
    if pair_re.shape[1]:
        cos2 = 2.0 * cos * cos - 1.0
        sin2 = 2.0 * sin * cos
    for j in range(pair_re.shape[1]):
        c = pair_re[:, j]
        a = r * (r * cos2 - 2.0 * c * cos)
        b = r * (2.0 * c * sin - r * sin2)
        abs_f2_m1 = a * (2.0 + a) + b * b
        re -= 0.5 * np.log1p(abs_f2_m1)
        im -= np.arctan2(b, 1.0 + a)
    return re, im


def euler_product_on_line(model: LFunctionModel, t: float, Y: float) -> complex:
    """F(1 + it; Y) = prod_{p <= Y} (local factor)^(-1), via the compensated
    complex log sum; block-ordered, so bit-identical across runs."""
    if not Y >= 2:  # NaN too
        raise DomainError(f"truncation cutoff must be >= 2, got {Y}")
    check_budget("abs_t", abs(t))
    model.check_cutoff(Y)
    primes = primes_upto(Y)
    log_f = blocked_complex_log_sum(
        primes, lambda ps: _log_terms_on_line(model, ps, float(t))
    )
    if log_f.real > LOG_FLOAT_MAX:
        raise NumericError(f"product magnitude overflows a float at t = {t}")
    return complex(np.exp(log_f.real) * complex(math.cos(log_f.imag), math.sin(log_f.imag)))


def log_expansion(model: LFunctionModel, Y: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and coefficients of log F(1 + it; Y) as a finite
    exponential sum: log F = sum c * exp(-i t w), w = r log p, c the
    p^r coefficient of log F divided by p^r.

    Terms with |c| < _EXPANSION_TINY are dropped; their total is below
    EXPANSION_DROP_MAX per unit of degree for every supported Y (2.6e-14
    for zeta at Y = 1e8, 1.2e-13 for zeta^1000 at Y = 1e7).
    Coefficients are real for the shipped models.
    """
    if not Y >= 2:  # NaN too
        raise DomainError(f"truncation cutoff must be >= 2, got {Y}")
    model.check_cutoff(Y)
    primes = primes_upto(Y)
    pf = primes.astype(np.float64)
    logp = np.log(pf)
    k = model.degree
    omegas = []
    coeffs = []
    r = 1
    while True:
        # keep primes where the generic bound (k/r) p^(-r) clears the floor
        mask = pf <= (k / (r * _EXPANSION_TINY)) ** (1.0 / r)
        if not mask.any():
            break
        c = power_sum(model, primes[mask], r) / (r * pf[mask] ** r)
        keep = np.abs(c) >= _EXPANSION_TINY
        omegas.append(r * logp[mask][keep])
        coeffs.append(c[keep])
        r += 1
    return np.concatenate(omegas), np.concatenate(coeffs)


_MIX64_MASK = (1 << 64) - 1
_MIX64_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(x: int) -> int:
    """splitmix64 finalizer; the calibration sampler draws u_i from
    mix64(seed + (i+1)*golden) / 2^64."""
    x &= _MIX64_MASK
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MIX64_MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MIX64_MASK
    return (z ^ (z >> 31)) & _MIX64_MASK


def sample_uniform(seed: int, count: int, lo: float, hi: float) -> tuple[float, ...]:
    """count deterministic uniform samples on [lo, hi] from a counter-based
    generator: sample i uses mix64(seed + (i+1)*golden)."""
    out = []
    for i in range(count):
        u = _mix64((seed + (i + 1) * _MIX64_GOLDEN) & _MIX64_MASK) / 2.0**64
        out.append(lo + (hi - lo) * u)
    return tuple(out)


def direct_value(model: LFunctionModel, t: float) -> complex:
    """F(1 + it) by the direct oracles; defined for the zeta-power and
    quadratic-field models only."""
    if model.kind == "zeta-power":
        zeta = zeta_em(complex(1.0, t))
        try:
            return zeta ** model.pole_order
        except OverflowError:
            raise NumericError(f"zeta(1 + it)^{model.pole_order} overflows at t = {t}") from None
    if model.kind == "dedekind":
        return zeta_em(complex(1.0, t)) * dirichlet_direct(model.discriminant, t)
    raise UnsupportedModelError(
        f"no direct oracle for model kind {model.kind!r} at desk scale"
    )


@dataclass(frozen=True)
class CalibrationStats:
    """Per-sample deviations |F(1+it; Y) / F(1+it) - 1| and their summary."""

    label: str
    t_range: tuple[float, float]
    Y: float
    sample_count: int
    seed: int
    t_samples: tuple[float, ...] = field(repr=False)
    deviation: tuple[float, ...] = field(repr=False)
    median: float = 0.0
    mean: float = 0.0
    max: float = 0.0


def calibrate_truncation(
    model: LFunctionModel,
    t_range: tuple[float, float],
    Y: float,
    sample_count: int,
    seed: int,
) -> CalibrationStats:
    """Measure the truncated product against the direct oracle on seeded
    uniform samples. Reporting only: no threshold is enforced here, and
    deviations are an empirical stand-in for the (numerically unreachable)
    asymptotic truncation rate. Samples run on worker_cap() threads and
    are gathered in sample order, so the result is the same for any count."""
    if not (isinstance(sample_count, Integral) and sample_count >= 1):
        raise DomainError(f"calibration needs an integer sample_count >= 1, got {sample_count!r}")
    if not isinstance(seed, Integral):
        raise DomainError(f"calibration needs an integer seed, got {seed!r}")
    check_budget("samples", sample_count)
    lo, hi = float(t_range[0]), float(t_range[1])
    if not lo < hi:
        raise DomainError("t_range must satisfy t_min < t_max")
    check_budget("abs_t", max(abs(lo), abs(hi)))
    ts = sample_uniform(int(seed), int(sample_count), lo, hi)

    def deviation(t: float) -> float:
        direct = direct_value(model, t)
        # neither zeta nor L(., chi_d) vanishes on the 1-line, but a high
        # power does underflow: |zeta(1 + it)|^1000 rounds to 0.0 near t = 947
        if abs(direct) < 1e-300:
            raise NumericError(f"direct value underflowed at t = {t}")
        return abs(euler_product_on_line(model, t, Y) / direct - 1.0)

    with ThreadPoolExecutor(max_workers=worker_cap()) as pool:
        # the first sample runs alone, so the workers share one sieved table
        # (primes_upto) and a refused input fails as it would serially
        devs = [pool.submit(deviation, ts[0]).result()]
        devs += pool.map(deviation, ts[1:])  # in sample order
    dev_arr = np.asarray(devs)
    return CalibrationStats(
        label=model.label,
        t_range=(lo, hi),
        Y=float(Y),
        sample_count=int(sample_count),
        seed=int(seed),
        t_samples=ts,
        deviation=tuple(devs),
        median=float(np.median(dev_arr)),
        mean=float(np.mean(dev_arr)),
        max=float(np.max(dev_arr)),
    )
