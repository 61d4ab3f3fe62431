"""Large-value search over t-windows.

grid_scan evaluates Re log F(1 + it; Y) on the requested closed uniform
grid (via the gridded-FFT exponential sum of log F for dense grids, a
direct cosine sum otherwise), keeps the top grid maxima, and
re-evaluates every reported record with a standalone product call, so
reported magnitudes never depend on the fast path. refine_peak runs
golden-section maximization around a seed. Reported maxima are lower
bounds on the window maximum; no global-optimum claim is made.
bound_report compares a scan against the growth prediction without
attaching any verdict (the prediction's additive constant is unknown).
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ResourceError
from .evaluate import euler_product_on_line, log_expansion
from .expsum import exp_sum_on_grid
from .lfamily import LFunctionModel
from .resonator import asymptotic_bound

T_MAX = 100_000_000.0
POINTS_MAX = 1 << 28
_CHUNK = 1 << 21
_DIRECT_WORK_MAX = 1 << 28


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


def _direct_log_re(
    coeff: np.ndarray, omega: np.ndarray, t0: float, step: float, n: int
) -> np.ndarray:
    """exp_sum_on_grid by direct summation, points x terms."""
    out = np.empty(n)
    block = max(1, (1 << 22) // max(1, len(omega)))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        t = t0 + step * np.arange(lo, hi)
        out[lo:hi] = np.cos(t[:, None] * omega[None, :]) @ coeff
    return out


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

    The grid is the requested one at any step: each of its points is
    evaluated exactly once, on the FFT path as on the direct one.
    Descending magnitude, ties toward smaller t; deterministic for any
    worker count (fixed chunking, ordered merge). Each returned record is
    re-evaluated with a standalone product call.
    """
    t_min, t_max, step, Y = float(t_min), float(t_max), float(step), float(Y)
    if top_k < 1:
        raise DomainError("top_k must be >= 1")
    if abs(t_max) > T_MAX or abs(t_min) > T_MAX:
        raise ResourceError(
            f"scan window beyond |t| = {T_MAX:g} (phase precision budget)"
        )
    if t_min == t_max:
        return [_record_at(model, t_min, Y, refined=False)]
    if t_min > t_max:
        raise DomainError("t_min must not exceed t_max")
    if step <= 0 or step > t_max - t_min:
        raise DomainError("step must satisfy 0 < step <= t_max - t_min")
    n_points = int(math.floor((t_max - t_min) / step + 1.0 + 1e-9))
    if n_points > POINTS_MAX:
        raise ResourceError(
            f"grid of {n_points} points exceeds the budget {POINTS_MAX}; "
            "raise step or shrink the window"
        )
    omega, coeff = log_expansion(model, Y)
    use_direct = n_points * max(1, len(omega)) <= _DIRECT_WORK_MAX

    def chunk_candidates(ci: int) -> list[tuple[float, float]]:
        lo = ci * _CHUNK
        n = min(_CHUNK, n_points - lo)
        log_re = _direct_log_re if use_direct else exp_sum_on_grid
        re_log = log_re(coeff, omega, t_min + lo * step, step, n)
        # over-select, then stable-sort so within-chunk ties land on smaller t
        kk = min(4 * top_k, n)
        idx = np.argpartition(-re_log, kk - 1)[:kk]
        idx = idx[np.lexsort((idx, -re_log[idx]))][: min(top_k, n)]
        return [(float(re_log[i]), t_min + (lo + int(i)) * step) for i in idx]

    n_chunks = (n_points + _CHUNK - 1) // _CHUNK
    workers = min(env_threads() or os.cpu_count() or 1, n_chunks)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_chunk = list(pool.map(chunk_candidates, range(n_chunks)))
    else:
        per_chunk = [chunk_candidates(ci) for ci in range(n_chunks)]
    candidates = [c for chunk in per_chunk for c in chunk]
    candidates.sort(key=lambda c: (-c[0], c[1]))
    records = [
        _record_at(model, t, Y, refined=False) for _, t in candidates[:top_k]
    ]
    records.sort(key=lambda r: (-r.magnitude, r.t))
    return records


def refine_peak(
    model: LFunctionModel,
    t_seed: float,
    Y: float,
    tol: float,
    bracket: float,
) -> ScanRecord:
    """Golden-section maximization of |F(1 + it; Y)| on
    [t_seed - bracket, t_seed + bracket]; stops when the bracket is below
    tol. The returned magnitude never falls below the seed's (the best
    evaluated point wins, and the seed is evaluated)."""
    if tol < 1e-9:
        raise DomainError(f"refinement tolerance must be >= 1e-9, got {tol}")
    if bracket <= 0:
        raise DomainError("bracket half-width must be positive")

    def mag(t: float) -> float:
        m = abs(euler_product_on_line(model, t, Y))
        if not math.isfinite(m):
            raise NumericError(f"non-finite product magnitude at t = {t}")
        return m

    best_t = float(t_seed)
    best_m = mag(best_t)
    a = t_seed - bracket
    b = t_seed + bracket
    if b - a <= tol:
        return _record_at(model, best_t, Y, refined=True)
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = mag(c), mag(d)
    while b - a > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = mag(c)
            t_new, m_new = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = mag(d)
            t_new, m_new = d, fd
        if m_new > best_m or (m_new == best_m and t_new < best_t):
            best_t, best_m = t_new, m_new
    if fc > best_m:
        best_t, best_m = c, fc
    if fd > best_m:
        best_t, best_m = d, fd
    return _record_at(model, best_t, Y, refined=True)


def bound_report(
    records: list[ScanRecord], model: LFunctionModel, T: float
) -> BoundReport:
    """Compare the best record against the growth prediction at scale T."""
    if not records:
        raise DomainError("bound report needs at least one scan record")
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
