"""Values on the 1-line: truncated Euler products F(1+it; Y) and the
independent direct oracles they are calibrated against.

The truncated product is the package's working approximation of F(1+it);
zeta_em (Euler-Maclaurin) and zeta_eta (accelerated alternating series)
are two independent direct evaluations of the zeta factor, and
dirichlet_direct supplies the character factor of the quadratic-field
models. calibrate_truncation measures how well the truncated product
tracks the direct value over seeded samples; it reports deviations and
never extrapolates (the truncated product does not converge absolutely
on the 1-line as Y grows).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .charsum import periodic_lseries
from .errors import DomainError, NumericError, UnsupportedModelError
from .lfamily import LFunctionModel, is_fundamental_discriminant
from .primes import character_table, primes_upto
from .summation import LOG_FLOAT_MAX, blocked_complex_log_sum

_EM_BERNOULLI = (
    1.0 / 6,
    -1.0 / 30,
    1.0 / 42,
    -1.0 / 30,
    5.0 / 66,
    -691.0 / 2730,
    7.0 / 6,
    -3617.0 / 510,
)


def zeta_em(s: complex) -> complex:
    """Riemann zeta by Euler-Maclaurin: head sum to N = max(50, 2|Im s|),
    integral and half terms, then 8 Bernoulli corrections. Target 1e-10
    absolute for Re(s) >= 1/2, |Im s| <= 1e8."""
    s = complex(s)
    if s == 1:
        raise DomainError("zeta has a pole at s = 1")
    if abs(s.imag) > 1e8:
        raise DomainError("Euler-Maclaurin path restricted to |Im s| <= 1e8")
    N = max(50, math.ceil(2 * abs(s.imag)))
    total = 0.0 + 0.0j
    for lo in range(1, N + 1, 1 << 20):  # chunked: N can reach 2e8
        n = np.arange(lo, min(lo + (1 << 20), N + 1), dtype=np.float64)
        total += complex(np.sum(np.exp(-s * np.log(n))))
    nf = float(N)
    total += nf ** (1 - s) / (s - 1) - 0.5 * nf ** (-s)
    # correction terms B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N^(-s-2j+1)
    rising = s
    fact = 1.0
    for j, b in enumerate(_EM_BERNOULLI, start=1):
        fact *= (2 * j - 1) * (2 * j)
        total += (b / fact) * rising * nf ** (-s - (2 * j - 1))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


@lru_cache(maxsize=64)
def _eta_weights(n: int) -> tuple[float, ...]:
    """Chebyshev-acceleration weights for the alternating zeta series.

    d_k = n * sum_{i<=k} (n+i-1)! 4^i / ((n-i)! (2i)!), exact integers
    (each term equals n * C(n+i, 2i) * 4^i / (n+i)); returns
    (d_n - d_k)/d_n for k < n.
    """
    d = [0] * (n + 1)
    acc = 0
    for i in range(n + 1):
        num = n * math.comb(n + i, 2 * i) * 4**i
        if num % (n + i) != 0:
            raise NumericError("acceleration weights lost integrality")
        acc += num // (n + i)
        d[i] = acc
    dn = d[n]
    return tuple(float(dn - dk) / float(dn) for dk in d[:n])


def zeta_eta(s: complex) -> complex:
    """Riemann zeta via the accelerated alternating series, Re(s) > 0.

    eta(s) = sum (-1)^(k) (d_k - d_n)/(-d_n) (k+1)^(-s) + remainder with
    remainder shrinking like (3 + sqrt 8)^(-n) against a growth factor
    e^(pi |Im s|/2); zeta = eta / (1 - 2^(1-s)). Independent of zeta_em."""
    s = complex(s)
    if s == 1:
        raise DomainError("zeta has a pole at s = 1")
    if s.real <= 0:
        raise DomainError("alternating-series path needs Re(s) > 0")
    t = abs(s.imag)
    denom = 1.0 - 2.0 ** (1.0 - s)
    denom_mod = abs(denom)
    digits = 12.0
    n = math.ceil(
        (digits * math.log(10) + math.pi * t / 2 + math.log(3 * (1 + 2 * t) / max(denom_mod, 1e-3)))
        / math.log(3 + math.sqrt(8))
    )
    n = max(n, 24) + 8
    weights = _eta_weights(n)
    k = np.arange(n, dtype=np.float64)
    signs = np.where(k.astype(np.int64) % 2 == 0, 1.0, -1.0)
    terms = signs * np.asarray(weights) * np.exp(-s * np.log(k + 1))
    eta = complex(np.sum(terms))
    return eta / denom


def dirichlet_direct(d: int, t: float) -> complex:
    """L(1 + it, chi_d) by the Abel-summed character series, to 1e-9."""
    if not is_fundamental_discriminant(d):
        raise DomainError(f"{d} is not a fundamental discriminant != 1")
    if abs(d) > 1_000_000:
        raise DomainError(f"|d| <= 1e6 required, got {d}")
    value, bound = periodic_lseries(character_table(d), complex(1.0, float(t)))
    if bound > 1e-9:
        raise NumericError(f"character series tail bound {bound:.2e} exceeds 1e-9")
    return complex(value)


def _log_terms_on_line(
    model: LFunctionModel, primes: np.ndarray, t: float
) -> np.ndarray:
    """Per-prime complex log of the local factors at s = 1 + it."""
    real, pair_re = model.root_blocks(primes)
    logp = np.log(primes.astype(np.float64))
    w = np.exp(-(1.0 + 1j * t) * logp)
    terms = np.zeros(len(primes), dtype=np.complex128)
    for j in range(real.shape[1]):
        f = 1.0 - real[:, j] * w
        if np.min(np.abs(f)) < 1e-15:
            raise NumericError("degenerate local factor on the 1-line")
        terms -= np.log(f)
    for j in range(pair_re.shape[1]):
        f = 1.0 - 2.0 * pair_re[:, j] * w + w * w
        if np.min(np.abs(f)) < 1e-15:
            raise NumericError("degenerate local factor on the 1-line")
        terms -= np.log(f)
    return terms


def euler_product_on_line(model: LFunctionModel, t: float, Y: float) -> complex:
    """F(1 + it; Y) = prod_{p <= Y} (local factor)^(-1), via the compensated
    complex log sum; block-ordered, so bit-identical across runs."""
    if Y < 2:
        raise DomainError(f"truncation cutoff must be >= 2, got {Y}")
    model.check_cutoff(Y)
    primes = primes_upto(int(Y))
    log_f = blocked_complex_log_sum(
        primes, lambda ps: _log_terms_on_line(model, ps, float(t))
    )
    if log_f.real > LOG_FLOAT_MAX:
        raise NumericError(f"product magnitude overflows a float at t = {t}")
    return complex(np.exp(log_f.real) * complex(math.cos(log_f.imag), math.sin(log_f.imag)))


def log_expansion(
    model: LFunctionModel, Y: float, tiny: float = 1e-18
) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies and coefficients of log F(1 + it; Y) as a finite
    exponential sum: log F = sum c * exp(-i t w), w = r log p, c the
    p^r coefficient of log F divided by p^r.

    Terms with |c| < tiny are dropped (their total is below 1e-13 for
    every supported Y). Coefficients are real for the shipped models.
    """
    if Y < 2:
        return np.empty(0), np.empty(0)
    model.check_cutoff(Y)
    primes = primes_upto(int(Y))
    real, pair_re = model.root_blocks(primes)
    pf = primes.astype(np.float64)
    logp = np.log(pf)
    theta = np.arccos(np.clip(pair_re, -1.0, 1.0)) if pair_re.shape[1] else None
    k = model.degree
    omegas = []
    coeffs = []
    r = 1
    while True:
        # keep primes where the generic bound (k/r) p^(-r) clears the floor
        p_cap = (k / (r * tiny)) ** (1.0 / r)
        mask = pf <= p_cap
        if not mask.any():
            break
        psel = pf[mask]
        power_sum = np.zeros(mask.sum())
        for j in range(real.shape[1]):
            power_sum += real[mask, j] ** r
        if theta is not None:
            for j in range(pair_re.shape[1]):
                power_sum += 2.0 * np.cos(r * theta[mask, j])
        c = power_sum / (r * psel**r)
        keep = np.abs(c) >= tiny
        omegas.append(r * logp[mask][keep])
        coeffs.append(c[keep])
        r += 1
    omega = np.concatenate(omegas) if omegas else np.empty(0)
    coeff = np.concatenate(coeffs) if coeffs else np.empty(0)
    return omega, coeff


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
        return zeta_em(complex(1.0, t)) ** model.pole_order
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
    asymptotic truncation rate."""
    if sample_count < 1:
        raise DomainError("calibration needs sample_count >= 1")
    lo, hi = float(t_range[0]), float(t_range[1])
    if not lo < hi:
        raise DomainError("t_range must satisfy t_min < t_max")
    ts = sample_uniform(int(seed), int(sample_count), lo, hi)
    devs = []
    for t in ts:
        direct = direct_value(model, t)
        if abs(direct) < 1e-300:
            raise NumericError(f"direct value vanished at t = {t}")
        truncated = euler_product_on_line(model, t, Y)
        devs.append(abs(truncated / direct - 1.0))
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
