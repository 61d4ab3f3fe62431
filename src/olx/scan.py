"""Large-value search over t-windows.

grid_scan evaluates Re log F(1 + it; Y) on the requested closed uniform
grid with one path, the gridded-FFT exponential sum of log F, whose
distance from the log of a standalone product is at most a certified eps
(expsum docstring). Every grid point within 2 eps of the k-th value is
re-evaluated with a standalone product, so the records are exactly the
top k of all grid points by standalone magnitude. refine_peak runs
golden-section maximization around a seed. Reported maxima are lower
bounds on the window maximum; no global-optimum claim is made.
bound_report compares a scan against the growth prediction without
attaching any verdict (the prediction's additive constant is unknown).
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import BUDGETS, DomainError, NumericError, check_budget
from .evaluate import EXPANSION_DROP_MAX, euler_product_on_line, log_expansion
from .expsum import error_bound, exp_sum_on_grid, spaced_points
from .lfamily import LFunctionModel
from .primes import primes_upto
from .resonator import asymptotic_bound
from .summation import worker_cap

# Points per exp_sum_on_grid call, whose real transform has
# grid_cells(_CHUNK) = 3 * 2^18 cells. The README zeta scan (2e7 points),
# in-process medians of 5 on a 2-core Xeon (numpy 2.4), two runs each, with
# peak RSS:
#   chunk   1 thread               2 threads
#   2^18    1.45-1.47 s,  51 MB    0.88-0.96 s,  70 MB
#   2^19    1.04-1.05 s,  71 MB    0.64-0.66 s, 100 MB
#   2^20    1.10-1.36 s, 107 MB    0.63-0.75 s, 161 MB
# Each chunk pays a fixed 12 ms of spreading and set-up (35 taps for each of
# the 32,066 terms), which sinks 2^18; 2^20 gains nothing over 2^19 and takes
# 1.5-1.6 times the memory.
_CHUNK = 1 << 19


@dataclass(frozen=True)
class ScanRecord:
    """One located value of |F(1 + it; Y)|."""

    t: float
    magnitude: float
    phase: float
    Y: float
    refined: bool


@dataclass(frozen=True)
class BoundReport:
    """Scan maximum against the growth prediction; no pass/fail attached."""

    label: str
    T: float
    max_t: float
    max_magnitude: float
    bound: float
    difference: float
    ratio: float
    conjectural_form: float | None


def _record_at(model: LFunctionModel, t: float, Y: float, refined: bool) -> ScanRecord:
    value = euler_product_on_line(model, t, Y)
    mag = abs(value)
    if not math.isfinite(mag) or mag <= 0.0:
        raise NumericError(f"non-finite product magnitude at t = {t}")
    return ScanRecord(
        t=float(t),
        magnitude=mag,
        phase=math.atan2(value.imag, value.real),
        Y=float(Y),
        refined=refined,
    )


def _survivors(values: np.ndarray, top_k: int, eps: float) -> np.ndarray:
    """Indices of the values within 2 eps of the top_k-th largest: a
    superset of the top_k by any ranking that moves no value by more than
    eps."""
    k = min(top_k, len(values))
    kth = np.partition(values, len(values) - k)[len(values) - k]
    idx = np.flatnonzero(values >= kth - 2.0 * eps)
    check_budget("candidates", len(idx) / top_k, count=len(idx), two_eps=2 * eps, top_k=top_k)
    return idx


def grid_scan(
    model: LFunctionModel,
    t_min: float,
    t_max: float,
    step: float,
    Y: float,
    top_k: int,
) -> list[ScanRecord]:
    """Top grid maxima of |F(1 + it; Y)| on the closed uniform grid
    t_min, t_min + step, ..., <= t_max.

    The FFT path evaluates each grid point once, at any step. Each chunk
    and then the merge keep every point within 2 eps of the top_k-th
    value; the survivors are re-evaluated with standalone products, so the
    records are the top_k grid points by standalone magnitude, descending,
    ties toward smaller t, for any worker count (fixed chunking, ordered
    merge).
    """
    t_min, t_max, step, Y = float(t_min), float(t_max), float(step), float(Y)
    if not Y >= 2:  # NaN too
        raise DomainError(f"truncation cutoff must be >= 2, got {Y}")
    if not (isinstance(top_k, Integral) and top_k >= 1):
        raise DomainError(f"top_k must be an integer >= 1, got {top_k!r}")
    check_budget("top_k", top_k)
    t_abs = max(abs(t_min), abs(t_max))
    check_budget("abs_t", t_abs)
    if t_min == t_max:
        return [_record_at(model, t_min, Y, refined=False)]
    if t_min > t_max:
        raise DomainError("t_min must not exceed t_max")
    if step <= 0 or step > t_max - t_min:
        raise DomainError("step must satisfy 0 < step <= t_max - t_min")
    count = np.floor((t_max - t_min) / step + 1.0 + 1e-9)  # whole points; inf for a subnormal step
    check_budget("grid_points", count)
    n_points = int(count)
    omega, coeff = log_expansion(model, Y)

    # Every chunk spans `chunk` points, the last one ending at the last grid
    # point, so one bound covers them all. A chunk of 2^j + 1 points spreads
    # on 3 * 2^j cells, oversampled about 3 times, where the deconvolution
    # amplifies the grid's rounding 10 times rather than up to 1.0e4 times
    # (expsum docstring, term (a)). That rounding outgrows the phase term
    # where the terms crowd into few cells (small step * w_k, small t). Such
    # scans run in the largest such chunks up to _CHUNK points, at twice the
    # transforms per point, when these at least halve the bound.
    chunk = min(_CHUNK, n_points)
    bound = error_bound(coeff, omega, t_abs, chunk, step)
    spaced = spaced_points(chunk)
    spaced_bound = error_bound(coeff, omega, t_abs, spaced, step)
    if bound > 2.0 * spaced_bound:
        chunk, bound = spaced, spaced_bound
    n_chunks = (n_points + chunk - 1) // chunk
    # selection tolerance: grid value vs log standalone magnitude (expsum docstring)
    k = model.degree
    factor_rounding = (72 + 1.4 * (k - 1)) * k * float(np.sum(1.0 / primes_upto(Y)))
    eps = (bound
           + k * EXPANSION_DROP_MAX
           + 2.0**-53 * (factor_rounding + 24 * np.abs(coeff).sum() + 8))

    def chunk_survivors(ci: int) -> tuple[np.ndarray, np.ndarray]:
        lo = ci * chunk
        start = min(lo, n_points - chunk)
        re_log = exp_sum_on_grid(coeff, omega, t_min + start * step, step, chunk)[lo - start:]
        idx = _survivors(re_log, top_k, eps)
        return re_log[idx], lo + idx

    with ThreadPoolExecutor(max_workers=min(worker_cap(), n_chunks)) as pool:
        per_chunk = list(pool.map(chunk_survivors, range(n_chunks)))
    values, index = (np.concatenate(parts) for parts in zip(*per_chunk))
    records = [_record_at(model, t_min + int(i) * step, Y, refined=False)
               for i in index[_survivors(values, top_k, eps)]]
    records.sort(key=lambda r: (-r.magnitude, r.t))
    return records[:top_k]


def refine_peak(
    model: LFunctionModel,
    t_seed: float,
    Y: float,
    tol: float,
    bracket: float,
) -> ScanRecord:
    """Golden-section maximization of |F(1 + it; Y)| on [t_seed - bracket,
    t_seed + bracket] within the phase budget "abs_t"; stops when the
    bracket is below tol. Returns the best record it evaluated, ties
    toward smaller t; the seed is among them, so no refinement loses it."""
    if not tol >= 1e-9:
        raise DomainError(f"refinement tolerance must be >= 1e-9, got {tol}")
    if not bracket > 0:
        raise DomainError("bracket half-width must be positive")
    seen: list[ScanRecord] = []

    def mag(t: float) -> float:
        seen.append(_record_at(model, t, Y, refined=True))
        return seen[-1].magnitude

    mag(float(t_seed))
    edge = BUDGETS["abs_t"].limit
    a = max(t_seed - bracket, -edge)  # a seed at the budget edge stays refinable
    b = min(t_seed + bracket, edge)
    if b - a <= tol:
        return seen[0]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = mag(c), mag(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = mag(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = mag(d)
    return min(seen, key=lambda r: (-r.magnitude, r.t))


def bound_report(
    records: list[ScanRecord], model: LFunctionModel, T: float
) -> BoundReport:
    """Compare the best record against the growth prediction at scale T."""
    if not (records and all(abs(r.t) < math.inf and 0 <= r.magnitude < math.inf
                            for r in records)):
        raise DomainError("bound report needs at least one scan record, each with a finite "
                          "t and magnitude >= 0")
    best = max(records, key=lambda r: (r.magnitude, -r.t))
    bound = asymptotic_bound(model, T)
    conj = bound if model.pole_order == 1 else None
    return BoundReport(
        label=model.label,
        T=float(T),
        max_t=best.t,
        max_magnitude=best.magnitude,
        bound=bound,
        difference=best.magnitude - bound,
        ratio=best.magnitude / bound,
        conjectural_form=conj,
    )
