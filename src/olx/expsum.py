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
fall on cells floor(y) -+ 17 of a half grid padded by _HALF_WIDTH cells at
each end, and the padding is folded back conjugated, cell -c onto c and
cell nf/2 + c onto nf/2 - c, where g's cells nf - c and nf/2 + c belong.
h[0] and h[nf/2], each its own partner, are doubled to their real parts.

Grid size and kernel. n outputs spread on nf = grid_cells(n) cells, the
smallest 3 * 2^k >= 1.5 n (at least 96), so the oversampling is
sigma = nf/n >= 1.5 and the outputs, centred, lie within n/2 <= nf/3 of
the centre. The bound below is written in r = n/nf: r = 2/3 at n = 2^k,
about 1/3 at n = 2^k + 1 (which spreads on 3 * 2^k cells, oversampled
about 3 times), and smaller still below 33 points. Each constant has its
reason:
  * sigma = 1.5: numpy's pocketfft transforms 3 * 2^k cells with one
    radix-3 pass, and the transform is most of a chunk's time. One irfft
    over 3 * 2^18 cells took 11-15 ms on a 2-core Xeon (numpy 2.4), against
    23-30 ms over the 2^20 cells of sigma = 2. sigma = 1.25 (5 * 2^k) is
    out of reach for a Gaussian: at aliasing 1e-11 its band edge would
    amplify by about 6e8.
  * tau = 2.1: the worst aliased image is e^(-4 pi^2 tau/3) (below), about
    1e-12 here; tau = 1.92 gives 1.1e-11, which the unit-coefficient sweep
    in the tests (1e-11) fails. A wider kernel only costs, since the band
    edge amplifies every rounding by up to e^(4 pi^2 tau/9) = 1.0e4.
  * half-width 17 (35 taps): the truncation term stays at 2.3e-12, the
    size of the aliasing; 16 would make it 1.2e-10.
Fast Gaussian gridding (Greengard & Lee, section 3) gives a term's 35 taps
from two exp calls: with f = y - floor(y) in [0, 1),
e^(-(d - f)^2/4 tau) = e^(-f^2/4 tau) (e^(f/2 tau))^d C_|d|, where the
power runs up by products for d > 0 and down by quotients for d < 0 and
C_d = e^(-d^2/4 tau) is a constant table of 18 entries.

Each thread keeps its padded half grid (16 (nf/2 + 35) bytes) and its
transform output (8 nf bytes) from one call to the next while nf stays the
same, so a scan's chunks write into pages already mapped; the values
returned are a fresh array on every call.

The spreading is cyclic and exp(-i j theta) is 2 pi-periodic in the phase
step theta = step * w_k, so each phase step is reduced modulo 2 pi before
spreading (which leaves every theta below 2 pi unchanged) and any step is
admissible. A term's cells depend on theta and nf only, not on t0, so one
count of the taps per cell (busiest_cell) serves every chunk of a scan.
Everything is deterministic for fixed inputs.

Error bound (u = 2^-53, K terms, |t| <= t_abs at every grid point).
error_bound bounds |values[j] - v|, v the sum evaluated directly in floating
point at t0 + j step, by (a) + (b) + (c):
  (a) spread and transform, per unit of sum |c_k|: outputs lie within
      r nf/2 of the centre, r = n/nf <= 2/3, where deconvolution amplifies
      by at most 1/edge = e^(tau (pi r)^2): 1.0e4 at r = 2/3 and 10 at
      r = 1/3. Relative to that, the aliased kernel images (Poisson
      summation; image l at output j is e^(-4 pi^2 tau (l^2 + 2 l j/nf)) of
      the kernel transform, and 2|j|/nf <= r leaves l^2 - r|l|) add at most
      1.0e-12 at r = 2/3 and 1e-24 at r = 1/3, the taps past the half-width
      _TAIL/edge, 2.3e-12 at r = 2/3 (a tap set floor(y) -+ 17 leaves out
      taps at distances above 17 on one side and 18 on the other, mirrored
      or not), and rounding (M + 2 ceil(log2 nf) + 16 + _CHAIN) u/edge,
      _CHAIN = 2.24 (_HALF_WIDTH + 1).
      M is the most taps that add into one cell of h. A cell of h adds at
      most one folded padding cell to its own (nf >= 96 keeps the two folds
      apart), so M <= 2K (two taps from one term where its taps straddle
      cell 0 or nf/2); error_bound counts M per cell from the step, folds
      included. Each transform stage and each kernel, phase and
      deconvolution factor rounds once, the radix-3 pass counted as two
      stages. The tap recurrence adds _CHAIN: e^(f/2 tau) is within 1.24u
      (its argument, below 0.24, rounds once), so each step of the power
      adds 2.24u, and e^(-f^2/4 tau)'s argument adds 0.24u and C_|d| and
      the product with it 1u each; a tap d cells out carries
      2.24 (|d| + 1) u at most. C_|d|'s own argument rounds no more than
      the direct exponent it replaces. M is small only where the terms
      spread over many cells: their positions step w_k nf/(2 pi), reduced
      modulo nf, must span far more than the 35 cells of one term's taps.
      At the zeta scan t 10..1e6, step 0.05, Y = 1e5 (K = 32066,
      sum |c_k| = 3.02) every one of its 39 chunks spans 2^19 points, the
      last overlapping the one before, and the busiest cell holds 56 taps
      on their 3 * 2^18 cells, so this term comes to 5.1e-10 and
      grid_scan's eps to 2.4812e-8 (2.4e-7 with M = 2K). At step 1e-4 the
      same terms span 501 cells of that grid and M = 8,810; at step 1e-6
      they span 5 and M = 2K = 64,132, so the term is 3.0e-8 and 2.2e-7,
      which (b) outgrows only above t_abs = 1.2e6 and 8.9e6. So the 1.5x
      grid costs eps nothing only while both hold: the terms spread over
      many cells, and t_abs is large enough for (b) to dominate. Chunks of
      spaced_points(2^19) = 2^18 + 1 points (r = 1/3) on the same grid cut
      the term a thousandfold, and scan.grid_scan takes them where they at
      least halve its bound;
  (b) argument rounding, 20 u t_abs sum |c_k| w_k: a phase error d moves a
      term by at most |c_k| d, and this path (centre, product with w_k,
      reduced step, spreading position) and a direct evaluation (t, t w_k,
      log p) each round a phase a few times by u t_abs w_k. At t = 1e6,
      Y = 1e5 this is 2.4e-8, 98% of eps;
  (c) underflow, nf (M + 2 ceil(log2 nf) + 16 + _CHAIN) 2^-1072/edge in
      absolute terms: a product or quotient whose result is subnormal can
      miss by a further 2^-1075 (sums there are exact), and an output
      gathers such misses from every cell. The recurrence's own values lie
      in [0.015, 51] and C_|d| >= 1.1e-15, so only the product with a
      subnormal amplitude can underflow, and (c) keeps the count of (a). It
      matters only for sums of subnormal size: 1,500 seeded sums (n up to
      2,049) with coefficients of 5e-324 to 1e-305 stayed within 0.045 of
      the whole bound, and without (c) 880 of them exceeded it.
Measured at n = 512 (768 cells): the real part of a unit coefficient comes
out within 0.7-1.7e-12 for theta up to 57.6 (bound 9.0e-11 to 1.6e-10) and
4.0e-12 at theta = 400 (bound 5.4e-10); a seeded sweep in the tests stays
within the bound.

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

_TAU = 2.1
_HALF_WIDTH = 17
_U = 2.0**-53
# the taps past the half-width, per unit of the deconvolution's factor (term (a))
_TAIL = sum(math.exp(-d * d / (4 * _TAU)) * (1 + (d > _HALF_WIDTH))
            for d in range(_HALF_WIDTH, 60)) / math.sqrt(4 * math.pi * _TAU)
_CHAIN = (2 + 1 / (2 * _TAU)) * (_HALF_WIDTH + 1)  # roundings a tap's recurrence adds, term (a)
_TAPS = np.exp(-np.arange(_HALF_WIDTH + 1) ** 2 / (4.0 * _TAU))  # C_d = e^(-d^2/4 tau)
_THREAD = threading.local()


def grid_cells(n: int) -> int:
    """nf, the cells of the grid that n outputs spread on: the smallest
    3 * 2^k >= 1.5 n, and at least 96, which keeps the two folds apart."""
    return 3 << max(5, (n - 1).bit_length() - 1)


def spaced_points(n: int) -> int:
    """The most outputs, up to n >= 2, whose grid is oversampled about 3
    times: 2^j + 1 of them spread on the 3 * 2^j cells of grid_cells."""
    return 1 + (1 << ((n - 1).bit_length() - 1))


def _positions(omegas: np.ndarray, step: float, nf: int) -> tuple[np.ndarray, np.ndarray]:
    """Each term's position y in [0, nf/2] on the half grid, and whether it
    lies past nf/2 and is mirrored there. Depends on the step, not on t0."""
    theta = np.mod(step * np.asarray(omegas, dtype=np.float64), 2.0 * math.pi)
    x = theta * (nf / (2.0 * math.pi))
    upper = x > nf // 2
    return np.where(upper, nf - x, x), upper  # exact (Sterbenz)


def _fold(padded: np.ndarray) -> np.ndarray:
    """Fold a padded half grid's padding back conjugated, cell -c onto c and
    cell nf/2 + c onto nf/2 - c, in place; returns the view of cells 0..nf/2."""
    h = padded[_HALF_WIDTH:-_HALF_WIDTH]
    h[1 : _HALF_WIDTH + 1] += np.conj(padded[_HALF_WIDTH - 1 :: -1])
    h[-_HALF_WIDTH - 1 : -1] += np.conj(padded[: -_HALF_WIDTH - 1 : -1])
    return h


def busiest_cell(omegas: np.ndarray, step: float, nf: int) -> int:
    """The most taps that add into one cell of h, folds included, when
    these terms spread on an nf-cell grid at this step."""
    span = 2 * _HALF_WIDTH + 1  # a term on cell m0 taps padded cells m0 .. m0 + 2 _HALF_WIDTH
    m0 = np.floor(_positions(omegas, step, nf)[0]).astype(np.int64)
    counts = np.cumsum(np.bincount(m0, minlength=nf // 2 + span))  # terms with m0 <= i
    counts[span:] = counts[span:] - counts[:-span]  # terms with i - span < m0 <= i
    return int(_fold(counts).max())


def exp_sum_on_grid(
    coeffs: np.ndarray,
    omegas: np.ndarray,
    t0: float,
    step: float,
    n: int,
) -> np.ndarray:
    """values[j] = Re sum_k coeffs[k] * exp(-i (t0 + j step) omegas[k])."""
    nf = grid_cells(n)
    half = n // 2
    # centring the targets keeps the deconvolution band well conditioned
    amp = np.asarray(coeffs, dtype=np.complex128) * np.exp(
        -1j * (t0 + half * step) * omegas
    )
    # a term past nf/2 spreads mirrored and unconjugated, any other conjugated
    y, upper = _positions(omegas, step, nf)
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
    h = _fold(padded)  # cells -d and nf/2 + d are cells nf - d and nf/2 + d of g
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
    already mapped: a fresh pair at 3 * 2^18 cells is 3,073 page faults."""
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


def error_bound(coeffs: np.ndarray, omegas: np.ndarray, t_abs: float, n: int,
                step: float) -> float:
    """Bound on the error of exp_sum_on_grid at up to n points at this step
    within |t| <= t_abs (see the module docstring); term (a) counts the
    taps of the busiest cell."""
    mass = float(np.abs(coeffs).sum())
    nf = grid_cells(n)
    r = n / nf  # outputs lie within r nf/2 of the centre
    inv_edge = math.exp(_TAU * (math.pi * r) ** 2)  # the deconvolution's largest factor
    aliasing = sum(math.exp(-4 * math.pi**2 * _TAU * (l * l + l * r)) for l in (-3, -2, -1, 1, 2, 3))
    taps = busiest_cell(omegas, step, nf)
    rounding = (taps + 2 * math.ceil(math.log2(nf)) + 16 + _CHAIN) * _U * inv_edge
    underflow = rounding * nf * 2.0**-1019
    phase = 20 * _U * t_abs * float(np.abs(coeffs * omegas).sum())
    return (aliasing + _TAIL * inv_edge + rounding) * mass + underflow + phase
