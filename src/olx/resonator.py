"""Resonance machinery: multiplicative weights, the resonator product,
the lower-bound factorization, and the two moment-integral paths.

For a scale T, the cutoff is X = (log T)(log log T)/6 and primes p <= X
get weights q_p = 1 - p/X, extended completely multiplicatively to q_n.
The resonance product prod prod (1 - alpha_j(p) q_p / p)^(-1) factors
exactly into the truncated product at s = 1 times a defect in (0, 1];
the Gaussian-weighted moment ratio I1/I2 dominates the resonance product,
which is the computable core of the large-value lower bound.

Both moment integrals are evaluated two independent ways: a series path
summing Gaussian-transformed pair terms q_m q_n exp(-ln^2(m/n)/(4 eps^2))
over the multiplicative support (organized by per-prime exponent
differences, so the common-divisor direction has closed geometric sums),
and a direct quadrature of the defining integrals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, ResourceError
from .lfamily import LFunctionModel, local_coefficients, log_local_factor
from .primes import primes_upto
from .summation import blocked_log_sum, exp_of_log

_E_TO_E = math.exp(math.e)

X_SERIES_MAX = 50.0


@dataclass(frozen=True)
class ResonatorConfig:
    """Scale T with its derived cutoff X and Gaussian width eps."""

    T: float
    X: float
    eps: float


@dataclass(frozen=True)
class ResonanceReport:
    """Resonance product, its exact factorization, and the growth bound.

    asymptotic_bound omits the model-dependent bounded constant of the
    underlying estimate; reports never attach a verdict to it.
    """

    label: str
    T: float
    X: float
    resonance_product: float
    mertens_factor: float
    defect: float
    asymptotic_bound: float


@dataclass(frozen=True)
class MomentSeries:
    """Series-path moment values with the enumeration truncation bound."""

    I1: float
    I2: float
    truncation_bound: float


@dataclass(frozen=True)
class MomentQuadrature:
    """Quadrature-path moment values, step-halving error, and the
    imaginary-part diagnostic of the first integrand (relative)."""

    I1: float
    I2: float
    error_estimate: float
    i1_imag_rel: float


def resonator_config(T: float) -> ResonatorConfig:
    """X = (log T)(log_2 T)/6 and eps = (log T)/T; needs T > e^e so the
    iterated logarithms in the growth bound are defined."""
    T = float(T)
    if not T > _E_TO_E:
        raise DomainError(
            f"T must exceed e^e = {_E_TO_E:.6f} (iterated logarithms), got {T}"
        )
    log_t = math.log(T)
    return ResonatorConfig(T=T, X=log_t * math.log(log_t) / 6.0, eps=log_t / T)


def q_of_prime(p: int, X: float) -> float:
    """Resonator weight q_p = max(0, 1 - p/X)."""
    return max(0.0, 1.0 - p / X)


def q_of_int(n: int, X: float) -> float:
    """Completely multiplicative extension: q_n = prod q_p^(v_p(n)); q_1 = 1.

    Zero as soon as n has a prime factor beyond X, so only divisions by
    primes p <= X are ever needed (any cofactor they leave behind is a
    product of larger primes).
    """
    if n < 1:
        raise DomainError(f"q_n needs n >= 1, got {n}")
    if n == 1:
        return 1.0
    q = 1.0
    m = n
    if X >= 2:
        for p in primes_upto(int(X)):
            p = int(p)
            if p * p > m:
                break
            if m % p == 0:
                qp = q_of_prime(p, X)
                while m % p == 0:
                    q *= qp
                    m //= p
                if q == 0.0:
                    return 0.0
    if m > 1:
        if m > X:
            return 0.0
        q *= q_of_prime(m, X)
    return q


def _weights(primes: np.ndarray, X: float) -> np.ndarray:
    """Vectorized q_p = max(0, 1 - p/X)."""
    return np.maximum(1.0 - primes.astype(np.float64) / X, 0.0)


def _defect_terms(model: LFunctionModel, primes: np.ndarray, X: float) -> np.ndarray:
    """Per-prime log of the defect, from its own formula (not as the
    difference of two local-factor logs) so the factorization identity is
    a real check, not bookkeeping."""
    real, pair_re = model.root_blocks(primes)
    pf = primes.astype(np.float64)
    q = _weights(primes, X)
    terms = np.zeros(len(primes))
    for j in range(real.shape[1]):
        a = real[:, j]
        terms += np.log(pf - a) - np.log(pf - a * q)
    for j in range(pair_re.shape[1]):
        c = pair_re[:, j]
        terms += np.log(pf * pf - 2.0 * c * pf + 1.0) - np.log(
            pf * pf - 2.0 * c * q * pf + q * q
        )
    return terms


def resonance_products_at_cutoff(
    model: LFunctionModel, X: float
) -> tuple[float, float, float]:
    """(resonance_product, mertens_factor, defect) over primes p <= X."""
    model.check_cutoff(X)
    if X < 2:
        return 1.0, 1.0, 1.0
    primes = primes_upto(int(X))
    res = blocked_log_sum(primes, lambda ps: log_local_factor(model, ps, _weights(ps, X)))
    mer = blocked_log_sum(primes, lambda ps: log_local_factor(model, ps))
    dft = blocked_log_sum(primes, lambda ps: _defect_terms(model, ps, X))
    return (
        exp_of_log(res, f"resonance product at X = {X}"),
        exp_of_log(mer, f"Mertens factor at X = {X}"),
        math.exp(dft),  # the defect lies in (0, 1]
    )


def asymptotic_bound(model: LFunctionModel, T: float) -> float:
    """e^(gamma_f) * (log_2 T + log_3 T)^m, the growth prediction at scale T
    modulo a bounded additive constant that is never asserted."""
    T = float(T)
    if not T > _E_TO_E:
        raise DomainError(
            f"T must exceed e^e = {_E_TO_E:.6f} (iterated logarithms), got {T}"
        )
    ll = math.log(math.log(T))
    lll = math.log(ll)
    return math.exp(model.gamma_f) * (ll + lll) ** model.pole_order


def resonance_product(
    model: LFunctionModel, T: float, X: float | None = None
) -> ResonanceReport:
    """Assemble the resonance report at the scale-derived cutoff X(T), or
    at the cutoff X when one is given (the bound still uses T)."""
    if X is None:
        X = resonator_config(T).X
    res, mer, def_ = resonance_products_at_cutoff(model, X)
    return ResonanceReport(
        label=model.label,
        T=float(T),
        X=float(X),
        resonance_product=res,
        mertens_factor=mer,
        defect=def_,
        asymptotic_bound=asymptotic_bound(model, T),
    )


def R_eval(t: float, X: float) -> complex:
    """The resonator R(t) = prod_{p <= X} (1 - q_p p^(it))^(-1); the empty
    product (X < 2) is 1."""
    if X < 2:
        return complex(1.0)
    primes = primes_upto(int(X))
    value = complex(1.0)
    for p in primes:
        p = int(p)
        q = q_of_prime(p, X)
        f = 1.0 - q * complex(math.cos(t * math.log(p)), math.sin(t * math.log(p)))
        if abs(f) < 1e-15:
            raise NumericError(f"degenerate resonator factor at p = {p}")
        value /= f
    return value


# ---------------------------------------------------------------------------
# moment integrals, series path
# ---------------------------------------------------------------------------


def _local_b(
    model: LFunctionModel, p: int, q: float, xmax: int
) -> np.ndarray:
    """b(p^x) = sum_{v<=x} c(p^v) q^(x-v) with c(p^v) = a(p^v) p^(-v):
    the local Dirichlet coefficients of F(.; X) convolved with the
    geometric q-weights."""
    # p^-v via exp so deep tables underflow to zero instead of overflowing
    c = local_coefficients(model, p, xmax) * np.exp(
        -math.log(p) * np.arange(xmax + 1)
    )
    b = np.empty(xmax + 1)
    acc_prev = 0.0
    for x in range(xmax + 1):
        acc_prev = acc_prev * q + c[x]
        b[x] = acc_prev
    return b


def _tables_for_prime(
    model: LFunctionModel, p: int, q: float, delta: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """(w1, w2, fmax) weight tables over offsets f = -fmax..fmax.

    w2(f) = q^|f| / (1 - q^2)            (pair side m vs n, common part summed)
    w1(f) = sum_j b(p^(j+f+)) q^(j+f-)   (b-side vs q-side exponent difference)
    """
    if q <= 0.0:
        # only the coefficient side survives; offsets f >= 0
        fmax = max(1, math.ceil(math.log(1.0 / delta) / math.log(p)))
        b = _local_b(model, p, 0.0, fmax)
        w1 = np.zeros(2 * fmax + 1)
        w1[fmax:] = b
        w2 = np.zeros(2 * fmax + 1)
        w2[fmax] = 1.0
        return w1, w2, fmax
    rate = max(q, 1.0 / p)
    fmax = max(2, math.ceil(math.log(delta * 1e-3) / math.log(rate)))
    jmax = fmax + max(8, math.ceil(math.log(1e-20) / math.log(max(q * q, 1e-12))))
    b = _local_b(model, p, q, fmax + jmax + 1)
    w1 = np.empty(2 * fmax + 1)
    qj = q ** np.arange(jmax)
    for idx, f in enumerate(range(-fmax, fmax + 1)):
        fp, fm = max(f, 0), max(-f, 0)
        w1[idx] = float(np.dot(b[fp : fp + jmax], qj * (q**fm)))
    f = np.arange(-fmax, fmax + 1)
    w2 = q ** np.abs(f) / (1.0 - q * q)
    return w1, w2, fmax


def _enumerate_half(
    logs: list[float], tables: list[np.ndarray], delta: float, max_items: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """All offset vectors over the half with normalized weight >= delta.

    Returns (x, w_normalized, scale): true weight = w_normalized * scale.
    Primes are crossed in the given order; callers pass wide tables first
    so intermediate arrays stay small.
    """
    xs = np.zeros(1)
    ws = np.ones(1)
    scale = 1.0
    for logp, table in zip(logs, tables):
        m = float(table.max())
        scale *= m
        tnorm = table / m
        fmax = (len(table) - 1) // 2
        offs = np.arange(-fmax, fmax + 1) * logp
        keep_f = tnorm >= delta  # a single factor below delta can never recover
        tnorm = tnorm[keep_f]
        offs = offs[keep_f]
        new_x = (xs[:, None] + offs[None, :]).ravel()
        new_w = (ws[:, None] * tnorm[None, :]).ravel()
        keep = new_w >= delta
        xs = new_x[keep]
        ws = new_w[keep]
        if len(xs) > max_items:
            raise ResourceError(
                f"moment-series enumeration exceeded {max_items} items; "
                "lower n_cutoff or X"
            )
    return xs, ws, scale


def _octave_blocks(
    x: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, w) sorted by (weight octave min(floor(-log2 w), 60), x) for
    weights w in (0, 1], and the start offset of each octave 0..61.

    Same order as np.lexsort((x, octave)) whenever x has no ties: one
    quicksort on x, then a stable radix sort on the int16 octave.
    """
    octave = np.minimum(-np.log2(w), 60).astype(np.int16)
    by_x = np.argsort(x)
    order = by_x[np.argsort(octave[by_x], kind="stable")]
    return x[order], w[order], np.searchsorted(octave[order], np.arange(62))


def _banded_sum(
    xA: np.ndarray,
    wA: np.ndarray,
    xB: np.ndarray,
    wB: np.ndarray,
    inv4eps2: float,
    band: float,
    pair_floor: float,
) -> tuple[float, float]:
    """sum wA wB exp(-(xA+xB)^2 * inv4eps2) over pairs with |xA+xB| <= band
    and wA*wB >= pair_floor, via weight-octave buckets and sorted windows.

    Both sides are bucketed by weight octave and sorted by x inside each
    bucket. An octave pair (oa, ob) is admitted when 2^-(oa+ob) reaches
    the pair floor; for each admitted pair the items of the smaller
    bucket search their band windows in the larger one, so search and
    window expansion scale with the smaller side. The sum is symmetric
    in A and B, so the evaluated pair set does not depend on which side
    searches (up to rounding at the band edge, where g <= 1e-18).

    Returns (sum, floor_mass_bound) where the second term bounds the mass
    skipped by the pair floor (octave pair count times floor).
    """
    xA_s, wA_s, a_starts = _octave_blocks(xA, wA)
    xB_s, wB_s, b_starts = _octave_blocks(xB, wB)
    total = 0.0
    skipped = 0.0
    chunk = 8_000_000
    for oa in range(61):
        a_lo, a_hi = a_starts[oa], a_starts[oa + 1]
        if a_hi == a_lo:
            continue
        for ob in range(61):
            b_lo, b_hi = b_starts[ob], b_starts[ob + 1]
            if b_hi == b_lo:
                continue
            if 2.0 ** (-int(oa + ob)) < pair_floor:
                skipped += 2.0 ** (-int(oa + ob)) * int(min(a_hi - a_lo, b_hi - b_lo))
                continue
            a = xA_s[a_lo:a_hi], wA_s[a_lo:a_hi]
            b = xB_s[b_lo:b_hi], wB_s[b_lo:b_hi]
            (sx, sw), (lx, lw) = (a, b) if a_hi - a_lo <= b_hi - b_lo else (b, a)
            lo = np.searchsorted(lx, -band - sx)
            lens = np.searchsorted(lx, band - sx) - lo
            csum = np.zeros(len(lens) + 1, dtype=np.int64)
            np.cumsum(lens, out=csum[1:])
            pos = 0
            while pos < len(lens) and csum[pos] < csum[-1]:
                end = int(np.searchsorted(csum, csum[pos] + chunk))
                end = min(max(end, pos + 1), len(lens))
                L = lens[pos:end]
                # index into the larger bucket of each pair in this chunk
                flat = np.arange(csum[end] - csum[pos]) + np.repeat(
                    lo[pos:end] - (csum[pos:end] - csum[pos]), L
                )
                g = np.exp(-((np.repeat(sx[pos:end], L) + lx[flat]) ** 2) * inv4eps2)
                total += float(np.sum(np.repeat(sw[pos:end], L) * lw[flat] * g))
                pos = end
    return total, skipped


def _total_weight(
    model: LFunctionModel, p: int, q: float, which: str
) -> float:
    """Closed-form sum of the per-prime weight table over all of Z.

    I2: sum_f q^|f|/(1-q^2) = (1+q)/((1-q)(1-q^2)); I1: the double
    geometric sum factorizes into (sum_x b(p^x)) * (sum_y q^y)."""
    if which == "I2":
        if q <= 0.0:
            return 1.0
        return (1.0 + q) / ((1.0 - q) * (1.0 - q * q))
    depth = 64
    b = _local_b(model, p, max(q, 0.0), depth)
    rate = max(q, 1.0 / p)
    b_total = float(np.sum(b)) + float(b[-1]) * rate / (1.0 - rate)
    return b_total / (1.0 - q) if q > 0.0 else b_total


def _series_sum(
    model: LFunctionModel,
    X: float,
    eps: float,
    delta: float,
    which: str,
    max_items: int = 12_000_000,
) -> tuple[float, float, float]:
    """(S, extras, enumerated_mass): S = sum over offset vectors f of
    prod_i w_i(f_i) * exp(-(sum f_i log p_i)^2 / (4 eps^2)); extras
    collects the out-of-band Gaussian mass and the pair-floor allowance;
    enumerated_mass = total weight captured by the enumeration, for
    dropped-mass accounting against the closed-form total."""
    primes = [int(p) for p in primes_upto(max(2, int(X))) if p <= X]
    tabs = []
    for p in primes:
        q = 1.0 - p / X
        w1, w2, fmax = _tables_for_prime(model, p, max(q, 0.0), delta)
        tabs.append((math.log(p), w1 if which == "I1" else w2))
    if not tabs:
        return 1.0, 0.0, 1.0
    # widest tables first keeps intermediate enumeration arrays small
    tabs.sort(key=lambda t: -len(t[1]))
    half_a: list[tuple[float, np.ndarray]] = []
    half_b: list[tuple[float, np.ndarray]] = []
    size_a = size_b = 0.0
    for logp, table in tabs:
        if size_a <= size_b:
            half_a.append((logp, table))
            size_a += math.log(len(table))
        else:
            half_b.append((logp, table))
            size_b += math.log(len(table))
    xA, wA, scale_a = _enumerate_half(
        [t[0] for t in half_a], [t[1] for t in half_a], delta, max_items
    )
    xB, wB, scale_b = _enumerate_half(
        [t[0] for t in half_b], [t[1] for t in half_b], delta, max_items
    )
    g_tol = 1e-18
    band = 2.0 * eps * math.sqrt(math.log(1.0 / g_tol))
    pair_floor = delta * 1e-2
    s, skipped = _banded_sum(
        xA, wA, xB, wB, 1.0 / (4.0 * eps * eps), band, pair_floor
    )
    mass_a = float(np.sum(wA))
    mass_b = float(np.sum(wB))
    extras = g_tol * mass_a * mass_b + skipped
    scale = scale_a * scale_b
    return s * scale, extras * scale, mass_a * mass_b * scale


def moment_series(
    model: LFunctionModel, X: float, T: float, n_cutoff: int
) -> MomentSeries:
    """Series-path moment integrals.

    I2 = (sqrt(pi)/eps) sum_{m,n} q_m q_n exp(-ln^2(m/n) / (4 eps^2)) and
    I1 analogously with the coefficient sum of F(1+it; X) shifting the
    ratio. The sums run over the full multiplicative support: terms are
    grouped by per-prime exponent differences, common-divisor directions
    carry closed geometric sums, and the remaining enumeration is cut at
    a weight floor derived from n_cutoff (floor = n_cutoff^-2, clamped).
    truncation_bound combines the out-of-band and pair-floor allowances
    with a measured depth-convergence increment and the weight mass the
    floor dropped (closed-form totals minus enumerated mass, scaled by
    the outermost shell's measured band-entry rate); it grows, and never
    silently, when n_cutoff is too small for the requested accuracy.
    Costs rise steeply with X (weights approach 1); X <= 50 is the
    supported range. Measured for zeta at T = 5000 on a 2-core Xeon VM:
    n_cutoff 1e5 takes about 1.5 s at X = 18 and 6 s at X = 20; at X = 30,
    n_cutoff 1e4 exceeds the 12M-item enumeration budget (ResourceError)
    and n_cutoff 1e3 takes about 150 s and 1.3 GB for truncation_bound/I2
    = 0.63.
    """
    if X > X_SERIES_MAX:
        raise DomainError(f"series path supports X <= {X_SERIES_MAX}, got {X}")
    if n_cutoff < 1:
        raise DomainError("n_cutoff must be >= 1")
    model.check_cutoff(X)
    cfg = resonator_config(T)
    eps = cfg.eps
    norm = math.sqrt(math.pi) / eps
    if X < 2:
        return MomentSeries(I1=norm, I2=norm, truncation_bound=0.0)
    delta = min(max(1.0 / float(n_cutoff) ** 2, 1e-13), 1e-4)
    shallow = delta * 100.0  # always two decades shallower than delta
    s2, extras2, mass2 = _series_sum(model, X, eps, delta, "I2")
    s1, extras1, mass1 = _series_sum(model, X, eps, delta, "I1")
    s2_shallow, _, mass2_shallow = _series_sum(model, X, eps, shallow, "I2")
    s1_shallow, _, mass1_shallow = _series_sum(model, X, eps, shallow, "I1")
    depth_gap = abs(s2 - s2_shallow) + abs(s1 - s1_shallow)
    # dropped-mass term: weight not reached by the enumeration, scaled by
    # the measured band rate of the outermost enumerated shell (the rate
    # at which freshly added mass has been entering the Gaussian band)
    dropped = 0.0
    for which, s_val, s_sh, mass, mass_sh in (
        ("I2", s2, s2_shallow, mass2, mass2_shallow),
        ("I1", s1, s1_shallow, mass1, mass1_shallow),
    ):
        total = 1.0
        for p in (int(v) for v in primes_upto(max(2, int(X))) if v <= X):
            total *= _total_weight(model, p, 1.0 - p / X, which)
        marginal = mass - mass_sh
        rate = abs(s_val - s_sh) / marginal if marginal > 0 else 0.0
        dropped += max(0.0, total - mass) * 4.0 * rate
    bound = norm * (extras1 + extras2 + 2.0 * depth_gap + dropped)
    return MomentSeries(
        I1=float(norm * s1), I2=float(norm * s2), truncation_bound=float(bound)
    )


# ---------------------------------------------------------------------------
# moment integrals, quadrature path
# ---------------------------------------------------------------------------


def _integrand_sums(
    model: LFunctionModel, X: float, eps: float, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Re F*|R|^2*Phi, Im F*|R|^2*Phi, |R|^2*Phi) on the nodes t."""
    r2 = np.ones_like(t)
    f_val = np.ones_like(t, dtype=np.complex128)
    if X >= 2:
        primes = primes_upto(int(X))
        real, pair_re = model.root_blocks(primes)
        for i, p in enumerate(primes):
            p = int(p)
            q = q_of_prime(p, X)
            ph = t * math.log(p)
            z = np.cos(ph) + 1j * np.sin(ph)
            r2 /= 1.0 - 2.0 * q * np.cos(ph) + q * q
            w = np.conj(z) / p
            for j in range(real.shape[1]):
                f_val /= 1.0 - real[i, j] * w
            for j in range(pair_re.shape[1]):
                f_val /= 1.0 - 2.0 * pair_re[i, j] * w + w * w
    phi = np.exp(-((eps * t) ** 2))
    weighted = r2 * phi
    return f_val.real * weighted, f_val.imag * weighted, weighted


def _simpson(model: LFunctionModel, X: float, eps: float, h: float) -> tuple[float, float, float]:
    t_max = 6.1 / eps
    n = max(8, int(math.ceil(2.0 * t_max / h / 2.0)) * 2)
    step = 2.0 * t_max / n
    i1_re = i1_im = i2 = 0.0
    chunk = 1 << 19
    for lo in range(0, n + 1, chunk):
        hi = min(lo + chunk, n + 1)
        idx = np.arange(lo, hi)
        t = -t_max + idx * step
        w = np.where(idx % 2 == 1, 4.0, 2.0)
        w[idx == 0] = 1.0
        w[idx == n] = 1.0
        a, b, c = _integrand_sums(model, X, eps, t)
        i1_re += float(np.dot(w, a))
        i1_im += float(np.dot(w, b))
        i2 += float(np.dot(w, c))
    scale = step / 3.0
    return i1_re * scale, i1_im * scale, i2 * scale


def moment_quadrature(
    model: LFunctionModel, X: float, T: float, step: float
) -> MomentQuadrature:
    """Direct composite-Simpson evaluation of the moment integrals on
    |t| <= 6.1/eps (the Gaussian is below 1e-16 beyond), at spacings
    step, step/2, step/4. error_estimate is the last halving difference;
    if halving stops reducing the difference, the rule is not resolving
    the integrand and the failure is raised, not smoothed over."""
    if step <= 0:
        raise DomainError("quadrature step must be positive")
    model.check_cutoff(X)
    cfg = resonator_config(T)
    eps = cfg.eps
    vals = [_simpson(model, X, eps, step / f) for f in (1.0, 2.0, 4.0)]
    e1 = max(abs(vals[1][0] - vals[0][0]), abs(vals[1][2] - vals[0][2]))
    e2 = max(abs(vals[2][0] - vals[1][0]), abs(vals[2][2] - vals[1][2]))
    floor = 1e-12 * max(abs(vals[2][0]), abs(vals[2][2]))
    if e2 > e1 and e2 > floor:
        raise NumericError(
            f"quadrature not converging under step halving: "
            f"|diff| {e1:.3e} -> {e2:.3e} at step {step}"
        )
    i1_re, i1_im, i2 = vals[2]
    return MomentQuadrature(
        I1=i1_re,
        I2=i2,
        error_estimate=e2,
        i1_imag_rel=abs(i1_im) / max(abs(i1_re), 1e-300),
    )
