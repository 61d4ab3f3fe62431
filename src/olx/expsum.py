"""Real parts of exponential sums sum_k c_k exp(-i t w_k) on uniform t-grids.

The grid scan needs Re log F(1 + it; Y) at tens of millions of equally
spaced t. Direct evaluation is points x terms; instead the terms are
spread onto an oversampled cyclic grid g with a truncated Gaussian kernel
(Greengard & Lee, "Accelerating the Nonuniform FFT", SIAM Review 2004),
one transform produces all grid values at once, and the kernel transform
is divided out. Only the real part is wanted, and 2 Re fft(g) is the
real-output transform np.fft.irfft(h, nf, norm="forward") (numpy's hfft of
conj h) of the conjugated Hermitian half h[l] = conj(g[l]) + g[nf - l],
0 <= l <= nf/2. So g is never formed. A term at grid position x > nf/2 is
mirrored to y = nf - x (exact, by Sterbenz's lemma) and keeps its
amplitude; any other term keeps y = x and is conjugated. Its taps then
fall on cells floor(y) -+ 13 of a half grid padded by _HALF_WIDTH cells at
each end, and the padding is folded back conjugated, cell -c onto c and
cell nf/2 + c onto nf/2 - c, where g's cells nf - c and nf/2 + c belong.
h[0] and h[nf/2], each its own partner, are doubled to their real parts.

Fast Gaussian gridding (Greengard & Lee, section 3) gives a term's 27 taps
from two exp calls: with f = y - floor(y) in [0, 1),
e^(-(d - f)^2/4 tau) = e^(-f^2/4 tau) (e^(f/2 tau))^d C_|d|, where the
power runs up by products for d > 0 and down by quotients for d < 0 and
C_d = e^(-d^2/4 tau) is a constant table of 14 entries.

Each thread keeps its padded half grid (16 (nf/2 + 27) bytes) and its
transform output (8 nf bytes) from one call to the next while nf stays the
same, so a scan's chunks write into pages already mapped; the values
returned are a fresh array on every call.

The spreading is cyclic and exp(-i j theta) is 2 pi-periodic in the phase
step theta = step * w_k, so each phase step is reduced modulo 2 pi before
spreading (which leaves every theta below 2 pi unchanged) and any step is
admissible. Everything is deterministic for fixed inputs.

Error bound (u = 2^-53, K terms, |t| <= t_abs at every grid point).
error_bound bounds |values[j] - v|, v the sum evaluated directly in floating
point at t0 + j step, by (a) + (b) + (c):
  (a) spread and transform, per unit of sum |c_k|: outputs lie within nf/4
      of the centre, where deconvolution amplifies by at most
      1/_EDGE = e^(tau pi^2/4) = 31.6. Relative to that, the aliased kernel
      images (Poisson summation) add at most _ALIASING = 1.0e-12, the taps
      past the half-width _TRUNCATION = 6.0e-13 (a tap set floor(y) -+ 13
      leaves out taps at distances above 13 on one side and 14 on the
      other, mirrored or not), and rounding
      (2K + 2 log2 nf + 16 + _CHAIN) u/_EDGE, _CHAIN = 2.36 (_HALF_WIDTH + 1).
      A term's 27 taps fall in 27 distinct cells of the padded half grid,
      and a cell of h adds at most one folded padding cell to its own
      (nf >= 64 keeps the two folds apart), so
      at most 2K taps add into one cell (two from one term where its taps
      straddle cell 0 or nf/2), and each transform stage and each kernel,
      phase and deconvolution factor rounds once. The tap recurrence adds
      _CHAIN: e^(f/2 tau) is within 1.36u (its argument, below 0.36,
      rounds once), so each step of the power adds 2.36u, and
      e^(-f^2/4 tau)'s argument adds 0.36u and C_|d| and the product with
      it 1u each; a tap d cells out carries 2.36 (|d| + 1) u at most.
      C_|d|'s own argument rounds no more than the direct exponent it
      replaces. At the zeta scan t 10..1e6, step 0.05, Y = 1e5 (K = 32066,
      sum |c_k| = 3.02) this term comes to 6.8e-10, and grid_scan's eps
      moves from 2.49770e-8 (one exp per tap, 2^20-point chunks) to
      2.49773e-8 (the recurrence, 2^19-point chunks); the grid values
      there moved by at most 6e-15;
  (b) argument rounding, 20 u t_abs sum |c_k| w_k: a phase error d moves a
      term by at most |c_k| d, and this path (centre, product with w_k,
      reduced step, spreading position) and a direct evaluation (t, t w_k,
      log p) each round a phase a few times by u t_abs w_k. At t = 1e6,
      Y = 1e5 this is about 3e-8;
  (c) underflow, nf (2K + 2 log2 nf + 16 + _CHAIN) 2^-1072/_EDGE in absolute
      terms: a product or quotient whose result is subnormal can miss by a
      further 2^-1075 (sums there are exact), and an output gathers such
      misses from every cell. The recurrence's own values lie in
      [0.008, 104] and C_|d| >= 7.7e-14, so only the product with a
      subnormal amplitude can underflow, as before, and (c) keeps the count
      of (a). It matters only for sums of subnormal size: seeded sums
      with coefficients down to 5e-324 stay within 0.13 of the whole bound,
      and without (c) 251 of 600 of them exceeded it.
Measured at n = 512: the real part of a unit coefficient comes out within
0.7-1.7e-12 for theta up to 57.6 (bound 1.9e-12 to 6.7e-11) and 4.7e-12 at
theta = 400 (bound 4.6e-10); a seeded sweep in the tests stays within the
bound.

Selection tolerance. grid_scan's eps, which bounds |values[j] - log |F||
for the standalone product F(1 + it; Y), adds to error_bound the mass that
log_expansion drops (under 1e-13 per unit of degree) and the standalone
product's rounding, its phases phi = t log p taken as computed (their
rounding is in (b)):
  * per local log factor at prime p, at most 72u/p, to first order, for
    roots of modulus <= 1 (evaluate._log_terms_on_line; each operation
    rounds by u, and cos, sin and log1p stay within 1 ulp, as numpy's own
    float64 accuracy tests check). A real root a, rho = |a|/p <= 1/2,
    gets its log1p argument x = |1 - a w|^2 - 1 to within
    rho u (4 |rho - 2s| + 2 rho + 2), s = +-cos phi, which halving and
    1/(1 + x) <= 1/(1 - rho)^2 turn, with log1p's ulp, into at most 21u/p
    (7u/p for large p). For a pair, A and B are within rho u (12 rho + 10)
    and rho u (8.9 rho + 10); the log1p argument |f|^2 - 1 then moves by
    at most 2 |f| |(dA, dB)| plus its own roundings, and dividing by
    |f|^2 >= (1 - rho)^4 gives at most 71u/p per root, at p = 2 (12u/p
    for large p). Adding a prime's terms rounds by at most u (degree - 1)
    times their total, under 1.4 (degree - 1) u/p per factor. In all,
    (72 + 1.4 (degree - 1)) u degree sum_{p <= Y} 1/p;
  * 24u sum |c_k| for its blocked sum, and 8u for exp and modulus.
"""
from __future__ import annotations

import functools
import math
import threading

import numpy as np

_TAU = 1.4
_HALF_WIDTH = 13
_U = 2.0**-53
_EDGE = math.exp(-_TAU * (math.pi / 2) ** 2)  # kernel transform at |j| = nf/4 over its peak
_ALIASING = sum(math.exp(-4 * math.pi**2 * _TAU * (l * l + l / 2)) for l in (-3, -2, -1, 1, 2, 3))
_TRUNCATION = sum(math.exp(-d * d / (4 * _TAU)) * (1 + (d > _HALF_WIDTH))
                  for d in range(_HALF_WIDTH, 60)) / (math.sqrt(4 * math.pi * _TAU) * _EDGE)
_CHAIN = 2.36 * (_HALF_WIDTH + 1)  # roundings a tap's recurrence adds, term (a)
_TAPS = np.exp(-np.arange(_HALF_WIDTH + 1) ** 2 / (4.0 * _TAU))  # C_d = e^(-d^2/4 tau)
_THREAD = threading.local()


def exp_sum_on_grid(
    coeffs: np.ndarray,
    omegas: np.ndarray,
    t0: float,
    step: float,
    n: int,
) -> np.ndarray:
    """values[j] = Re sum_k coeffs[k] * exp(-i (t0 + j step) omegas[k])."""
    if len(omegas) == 0:
        return np.zeros(n)
    theta = np.mod(step * np.asarray(omegas, dtype=np.float64), 2.0 * math.pi)
    nf = 1 << max(6, int(math.ceil(math.log2(2 * n))))
    half = n // 2
    # centring the targets keeps the deconvolution band well conditioned
    amp = np.asarray(coeffs, dtype=np.complex128) * np.exp(
        -1j * (t0 + half * step) * omegas
    )
    x = theta * (nf / (2.0 * math.pi))
    # a term past nf/2 spreads mirrored and unconjugated, any other conjugated
    upper = x > nf // 2
    y = np.where(upper, nf - x, x)  # exact (Sterbenz)
    b = np.where(upper, amp, np.conj(amp))
    m0 = np.floor(y)
    f = y - m0
    centre = m0.astype(np.int64) + _HALF_WIDTH  # cell m0 of the padded half grid
    padded, spectrum = _buffers(nf)
    padded.fill(0.0)
    # tap d is e^(-f^2/4 tau) (e^(f/2 tau))^d C_|d|: products up, quotients down
    e1 = np.exp(f / (2.0 * _TAU))
    up = np.exp(-f * f / (4.0 * _TAU))
    np.add.at(padded, centre, b * up)
    down = up.copy()
    kernel = np.empty_like(f)
    for d in range(1, _HALF_WIDTH + 1):
        np.multiply(up, e1, out=up)
        np.divide(down, e1, out=down)
        np.add.at(padded, centre + d, b * np.multiply(up, _TAPS[d], out=kernel))
        np.add.at(padded, centre - d, b * np.multiply(down, _TAPS[d], out=kernel))
    h = padded[_HALF_WIDTH : _HALF_WIDTH + nf // 2 + 1]
    # cells -d and nf/2 + d are cells nf - d and nf/2 + d of g, conjugated at d and nf/2 - d
    h[1 : _HALF_WIDTH + 1] += np.conj(padded[_HALF_WIDTH - 1 :: -1])
    h[-_HALF_WIDTH - 1 : -1] += np.conj(padded[: -_HALF_WIDTH - 1 : -1])
    h[0] = 2.0 * h[0].real
    h[-1] = 2.0 * h[-1].real
    np.fft.irfft(h, nf, norm="forward", out=spectrum)  # = hfft(conj h) = 2 Re fft(g)
    # dividing into one array, not a concatenated copy, kept the README zeta
    # scan's peak RSS at 174 MB rather than 205 MB with 2 workers
    kernel_hat = _deconvolution(n, nf)
    out = np.empty(n)
    np.divide(spectrum[nf - half :], kernel_hat[:half], out=out[:half])
    np.divide(spectrum[: n - half], kernel_hat[half:], out=out[half:])
    return out


def _buffers(nf: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's padded half grid and transform output for an nf-cell
    grid, kept from its last call so that a scan's chunks write into pages
    already mapped: a fresh pair at 2^20 cells is 4,096 page faults."""
    held = getattr(_THREAD, "buffers", None)
    if held is None or len(held[1]) != nf:
        held = _THREAD.buffers = (np.empty(nf // 2 + 1 + 2 * _HALF_WIDTH, dtype=np.complex128),
                                  np.empty(nf))
    return held


@functools.lru_cache(maxsize=4)
def _deconvolution(n: int, nf: int) -> np.ndarray:
    """The kernel transform at the n centred outputs of an nf-cell grid (read-only)."""
    jc = np.arange(n) - n // 2
    table = 2.0 * math.sqrt(4.0 * math.pi * _TAU) * np.exp(-((2.0 * math.pi * jc) / nf) ** 2 * _TAU)
    table.flags.writeable = False
    return table


def error_bound(coeffs: np.ndarray, omegas: np.ndarray, t_abs: float, n: int) -> float:
    """Bound on the error of exp_sum_on_grid at up to n points within
    |t| <= t_abs (see the module docstring)."""
    mass = float(np.abs(coeffs).sum())
    log2_nf = max(6, math.ceil(math.log2(2 * n)))
    rounding = (2 * len(omegas) + 2 * log2_nf + 16 + _CHAIN) * _U / _EDGE
    underflow = rounding * 2.0 ** (log2_nf - 1019)
    phase = 20 * _U * t_abs * float(np.abs(coeffs * omegas).sum())
    return (_ALIASING + _TRUNCATION + rounding) * mass + underflow + phase
