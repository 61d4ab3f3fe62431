"""Resonance machinery: multiplicative weights, the lower-bound
factorization, and the two moment-integral paths.

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

X_MOMENTS_MAX = 50.0  # weight cutoff of both moment-integral paths
_ENUM_MAX_ITEMS = 12_000_000  # per half of the moment-series enumeration
_ENUM_BLOCK = 1 << 16  # cells per row block of an enumeration outer product
QUAD_NODES_MAX = 1 << 25  # integrand nodes of moment_quadrature's one sweep
_GAUSS_CUT = 6.1  # quadrature range |t| <= 6.1/eps; the Gaussian is below 1e-16 beyond


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


def _iterated_logs(T: float) -> tuple[float, float]:
    """(log T, log_2 T); needs T > e^e so that log_3 T = log(log_2 T) > 0
    is defined too."""
    if not T > _E_TO_E:
        raise DomainError(
            f"T must exceed e^e = {_E_TO_E:.6f} (iterated logarithms), got {T}"
        )
    log_t = math.log(T)
    return log_t, math.log(log_t)


def resonator_config(T: float) -> ResonatorConfig:
    """X = (log T)(log_2 T)/6 and eps = (log T)/T."""
    T = float(T)
    log_t, log2_t = _iterated_logs(T)
    return ResonatorConfig(T=T, X=log_t * log2_t / 6.0, eps=log_t / T)


def q_of_prime(p: int | np.ndarray, X: float) -> float | np.ndarray:
    """Resonator weight q_p = max(0, 1 - p/X) of one prime or an array of them."""
    return np.maximum(1.0 - p / X, 0.0)


def _defect_terms(model: LFunctionModel, primes: np.ndarray, X: float) -> np.ndarray:
    """Per-prime log of the defect, from its own formula (not as the
    difference of two local-factor logs) so the factorization identity is
    a real check, not bookkeeping."""
    real, pair_re = model.root_blocks(primes)
    pf = primes.astype(np.float64)
    q = q_of_prime(primes, X)
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
    res = blocked_log_sum(primes, lambda ps: log_local_factor(model, ps, q_of_prime(ps, X)))
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
    _, ll = _iterated_logs(float(T))
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


def _weight_table(
    model: LFunctionModel, p: int, q: float, delta: float, which: str
) -> tuple[np.ndarray, float]:
    """The one weight table a moment needs, over offsets f = -fmax..fmax,
    and its closed-form total over all of Z.

    I2: w2(f) = q^|f| / (1 - q^2)            (pair side m vs n, common part summed)
        total (1 + q) / ((1 - q)(1 - q^2))
    I1: w1(f) = sum_j b(p^(j+f+)) q^(j+f-)   (b-side vs q-side exponent difference)
        total (sum_x b(p^x)) * (sum_y q^y): the double geometric sum factorizes

    At q = 0 (p = X) only offsets f >= 0 carry weight (f = 0 alone for
    I2) and the formulas still hold; only fmax is set by p instead of the
    rate max(q, 1/p).
    The I1 table and total share one b table: its prefix does not depend
    on its depth, so the total reads the first 65 entries of the table.
    """
    rate = max(q, 1.0 / p)
    if q > 0.0:
        fmax = max(2, math.ceil(math.log(delta * 1e-3) / math.log(rate)))
    else:
        fmax = max(1, math.ceil(math.log(1.0 / delta) / math.log(p)))
    if which == "I2":
        total = (1.0 + q) / ((1.0 - q) * (1.0 - q * q))
        return q ** np.abs(np.arange(-fmax, fmax + 1)) / (1.0 - q * q), total
    jmax = fmax + max(8, math.ceil(math.log(1e-20) / math.log(max(q * q, 1e-12))))
    b = _local_b(model, p, q, max(64, fmax + jmax + 1))
    total = (float(np.sum(b[:65])) + float(b[64]) * rate / (1.0 - rate)) / (1.0 - q)
    w1 = np.empty(2 * fmax + 1)
    qj = q ** np.arange(jmax)
    for idx, f in enumerate(range(-fmax, fmax + 1)):
        fp, fm = max(f, 0), max(-f, 0)
        w1[idx] = float(np.dot(b[fp : fp + jmax], qj * (q**fm)))
    return w1, total


def _enumerate_half(
    half: list[tuple[float, np.ndarray]], delta: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """All offset vectors over the half's (log p, table) pairs with
    normalized weight >= delta.

    Returns (x, w_normalized, scale): true weight = w_normalized * scale.
    Primes are crossed in the given order; callers pass wide tables first
    so intermediate arrays stay small. Each prime's outer product is built
    and filtered in row blocks of about _ENUM_BLOCK cells, concatenated in
    row order, so the unfiltered product is never held whole and the item
    budget refuses as soon as the kept count passes it.
    """
    xs = np.zeros(1)
    ws = np.ones(1)
    scale = 1.0
    for logp, table in half:
        m = float(table.max())
        scale *= m
        tnorm = table / m
        fmax = (len(table) - 1) // 2
        offs = np.arange(-fmax, fmax + 1) * logp
        keep_f = tnorm >= delta  # a single factor below delta can never recover
        tnorm = tnorm[keep_f]
        offs = offs[keep_f]
        rows = max(1, _ENUM_BLOCK // len(tnorm))
        parts_x, parts_w, kept = [], [], 0
        for lo in range(0, len(xs), rows):
            new_w = (ws[lo : lo + rows, None] * tnorm[None, :]).ravel()
            keep = new_w >= delta
            kept += int(np.count_nonzero(keep))
            if kept > _ENUM_MAX_ITEMS:
                raise ResourceError(
                    f"moment-series enumeration exceeded {_ENUM_MAX_ITEMS} items; "
                    "lower n_cutoff or X"
                )
            parts_w.append(new_w[keep])
            parts_x.append((xs[lo : lo + rows, None] + offs[None, :]).ravel()[keep])
        xs = np.concatenate(parts_x)
        del parts_x  # one array's parts at a time beside the joined arrays
        ws = np.concatenate(parts_w)
    return xs, ws, scale


def _octaves(w: np.ndarray) -> np.ndarray:
    """Weight octave min(floor(-log2 w), 60) of weights w in (0, 1]."""
    return np.minimum(-np.log2(w), 60).astype(np.int16)


def _octave_blocks(
    x: np.ndarray, w: np.ndarray, octave: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, w) sorted by (weight octave, x), given octave = _octaves(w), and
    the start offset of each octave 0..61.

    Same order as np.lexsort((x, octave)) whenever x has no ties: one
    quicksort on x, then a stable radix sort on the int16 octave. The
    permutation by x is freed before x and w are gathered.
    """
    by_x = np.argsort(x)
    order = by_x[np.argsort(octave[by_x], kind="stable")]
    del by_x
    starts = np.searchsorted(octave[order], np.arange(62))
    return x[order], w[order], starts


def _banded_sum(
    blocks_a: tuple[np.ndarray, np.ndarray, np.ndarray],
    blocks_b: tuple[np.ndarray, np.ndarray, np.ndarray],
    inv4eps2: float,
    band: float,
    pair_floor: float,
    o_sh: int,
) -> tuple[float, float, float]:
    """sum wA wB exp(-(xA+xB)^2 * inv4eps2) over pairs with |xA+xB| <= band
    and wA*wB >= pair_floor, via weight-octave buckets and sorted windows,
    together with its sub-sum over the items of weight octave < o_sh.

    Each side comes as _octave_blocks(x, w): bucketed by weight octave
    and sorted by x inside each bucket. An octave pair (oa, ob) is
    admitted when 2^-(oa+ob) reaches the pair floor; for each admitted
    pair the items of the smaller bucket search their band windows in the
    larger one, so search and window expansion scale with the smaller
    side. The sum is symmetric
    in A and B, so the evaluated pair set does not depend on which side
    searches (up to rounding at the band edge, where g <= 1e-18).

    The shallow sub-sum cuts on the octave boundary 2^-o_sh: it covers
    the in-band pairs of the octave pairs with oa < o_sh and ob < o_sh
    admitted at 2^-o_sh * 1e-2 (which must not undercut pair_floor), the
    pair set of the same sum over only the items of octave < o_sh with
    that floor. Every bucket lies wholly on one side of the cut, so such
    an octave pair adds its chunk sums to the shallow total as they are.

    Returns (sum, floor_mass_bound, shallow_sum), where the second term
    bounds the mass skipped by the pair floor (octave pair count times
    floor).
    """
    xA_s, wA_s, a_starts = blocks_a
    xB_s, wB_s, b_starts = blocks_b
    total = 0.0
    skipped = 0.0
    total_sh = 0.0
    chunk = 8_000_000
    for oa in range(61):
        a_lo, a_hi = a_starts[oa], a_starts[oa + 1]
        if a_hi == a_lo:
            continue
        for ob in range(61):
            b_lo, b_hi = b_starts[ob], b_starts[ob + 1]
            if b_hi == b_lo:
                continue
            pair_w = 2.0 ** (-int(oa + ob))
            if pair_w < pair_floor:
                skipped += pair_w * int(min(a_hi - a_lo, b_hi - b_lo))
                continue
            shallow = oa < o_sh and ob < o_sh and pair_w >= 2.0**-o_sh * 1e-2
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
                terms = np.exp(-((np.repeat(sx[pos:end], L) + lx[flat]) ** 2) * inv4eps2)
                terms *= np.repeat(sw[pos:end], L) * lw[flat]
                part = float(np.sum(terms))
                total += part
                if shallow:
                    total_sh += part
                pos = end
    return total, skipped, total_sh


def _series_sum(
    model: LFunctionModel, X: float, eps: float, delta: float, which: str
) -> tuple[float, float]:
    """(S, allowance) for one moment, from one enumeration at the floor
    delta and one pair sum over it.

    S = sum over offset vectors f of prod_i w_i(f_i) * exp(-(sum f_i log p_i)^2
    / (4 eps^2)). The allowance is formed here: the out-of-band Gaussian and
    pair-floor masses, twice the depth gap to the items above the octave
    boundary 2^-o_sh, the first at or below 100 delta (the pair sum's
    shallow sub-sum, so both cuts share one split into halves and one pass
    over the in-band pairs), and the weight the floor dropped (closed-form
    total minus the enumerated mass) times 4 times the rate at which the
    mass between the two cuts entered the Gaussian band. Each half's
    octaves, computed once, class its items for the shallow mass and the
    pair sum alike. The masses are summed before the half is sorted into
    octave blocks, and only the sorted copies stay alive through the pair sum.
    """
    tabs = []
    total = 1.0
    for p in (int(v) for v in primes_upto(int(X))):
        table, table_total = _weight_table(model, p, q_of_prime(p, X), delta, which)
        tabs.append((math.log(p), table))
        total *= table_total
    # widest tables first keeps intermediate enumeration arrays small
    tabs.sort(key=lambda t: -len(t[1]))
    halves: tuple[list, list] = ([], [])
    sizes = [0.0, 0.0]
    for logp, table in tabs:
        k = 0 if sizes[0] <= sizes[1] else 1
        halves[k].append((logp, table))
        sizes[k] += math.log(len(table))
    o_sh = math.ceil(math.log2(1.0 / (100.0 * delta)))  # 2^-o_sh <= 100 delta
    blocks, masses, masses_sh, scales = [], [], [], []
    for h in halves:
        x, w, half_scale = _enumerate_half(h, delta)
        octave = _octaves(w)
        masses.append(float(np.sum(w)))
        masses_sh.append(float(np.sum(w[octave < o_sh])))
        scales.append(half_scale)
        blocks.append(_octave_blocks(x, w, octave))
        del x, w, octave
    scale = scales[0] * scales[1]
    g_tol = 1e-18
    band = 2.0 * eps * math.sqrt(math.log(1.0 / g_tol))
    inv4eps2 = 1.0 / (4.0 * eps * eps)
    s, skipped, s_sh = _banded_sum(*blocks, inv4eps2, band, delta * 1e-2, o_sh)
    mass = masses[0] * masses[1] * scale
    gap = abs(s * scale - s_sh * scale)
    mass_sh = masses_sh[0] * masses_sh[1] * scale
    marginal = mass - mass_sh
    rate = gap / marginal if marginal > 0 else 0.0
    dropped = max(0.0, total - mass) * 4.0 * rate
    return s * scale, g_tol * mass + skipped * scale + 2.0 * gap + dropped


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
    Each moment is one `_series_sum` call, which forms its own allowance
    from one pair sum (out-of-band and pair-floor mass, the depth gap to a
    shallower cut on the weight-octave boundary 2^-o_sh, o_sh =
    ceil(log2(1/(100 floor))), read from the same pair sum, and the
    dropped mass scaled by the measured band-entry rate); truncation_bound
    is sqrt(pi)/eps times their sum. It grows, and never silently, when
    n_cutoff is too small for the requested accuracy. Costs rise steeply
    with X (weights approach 1); X <= 50 is the supported range. Measured
    for zeta at T = 5000 on a 2-core Xeon VM (numpy 2.4), one process per
    run, with its peak RSS: n_cutoff 1e5 takes about 1.1 s and 84 MB at
    X = 18, 5 s and 175 MB at X = 20 and 17 s and 330 MB at X = 22; at
    X = 30, n_cutoff 1e4 exceeds the 12M-item enumeration budget
    (ResourceError after 1.0 s and 357 MB) and n_cutoff 1e3 takes about
    150 s and 0.8 GB for truncation_bound/I2 = 0.45.
    """
    if X > X_MOMENTS_MAX:
        raise DomainError(f"moment integrals support X <= {X_MOMENTS_MAX}, got {X}")
    if n_cutoff < 1:
        raise DomainError("n_cutoff must be >= 1")
    model.check_cutoff(X)
    cfg = resonator_config(T)
    eps = cfg.eps
    norm = math.sqrt(math.pi) / eps
    if X < 2:
        return MomentSeries(I1=norm, I2=norm, truncation_bound=0.0)
    delta = min(max(1.0 / float(n_cutoff) ** 2, 1e-13), 1e-4)
    s2, extra2 = _series_sum(model, X, eps, delta, "I2")
    s1, extra1 = _series_sum(model, X, eps, delta, "I1")
    bound = norm * (extra1 + extra2)
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
            cos_ph = np.cos(ph)
            z = cos_ph + 1j * np.sin(ph)
            r2 /= 1.0 - 2.0 * q * cos_ph + q * q
            w = np.conj(z) / p
            for j in range(real.shape[1]):
                f_val /= 1.0 - real[i, j] * w
            for j in range(pair_re.shape[1]):
                f_val /= 1.0 - 2.0 * pair_re[i, j] * w + w * w
    phi = np.exp(-((eps * t) ** 2))
    weighted = r2 * phi
    return f_val.real * weighted, f_val.imag * weighted, weighted


def _simpson_levels(
    model: LFunctionModel, X: float, eps: float, t_max: float, n: int
) -> list[tuple[float, float, float]]:
    """Composite-Simpson (Re I1, Im I1, I2) on [-t_max, t_max] with n, 2n
    and 4n intervals, from one integrand sweep over the 4n + 1 nodes of the
    finest grid: each level reads every 4th, 2nd or 1st node. The sweep
    fills one (3, chunk) array per chunk from blocks of 2^15 nodes, so the
    integrand's temporaries stay small; each level takes one dot product
    per chunk."""
    strides = (4, 2, 1)
    h = 2.0 * t_max / (4 * n)
    sums = [[0.0] * 3 for _ in strides]
    chunk = 1 << 19  # a multiple of 8: every chunk starts on an even node of every level
    block = 1 << 15
    for lo in range(0, 4 * n + 1, chunk):
        hi = min(lo + chunk, 4 * n + 1)
        vals = np.empty((3, hi - lo))
        for b in range(lo, hi, block):
            t = -t_max + np.arange(b, min(b + block, hi)) * h
            vals[:, b - lo : b - lo + len(t)] = _integrand_sums(model, X, eps, t)
        for level, stride in zip(sums, strides):
            # the level's nodes here are j = lo/stride, ..., and lo/stride is
            # even: weight 4 on odd j, 2 on even j, 1 on the grid's two ends
            w = np.full((hi - 1) // stride - lo // stride + 1, 2.0)
            w[1::2] = 4.0
            if lo == 0:
                w[0] = 1.0
            if hi == 4 * n + 1:
                w[-1] = 1.0
            for c, v in enumerate(vals):
                level[c] += float(np.dot(w, v[::stride]))
    return [tuple(s * k * h / 3.0 for s in level) for level, k in zip(sums, strides)]


def quadrature_intervals(
    model: LFunctionModel, X: float, T: float, step: float
) -> int:
    """The coarsest interval count n of moment_quadrature after its input
    checks; ResourceError when the sweep's 4n + 1 nodes exceed
    QUAD_NODES_MAX. Cheap, so a caller can refuse a run before other work."""
    if step <= 0:
        raise DomainError("quadrature step must be positive")
    if X > X_MOMENTS_MAX:
        raise DomainError(f"moment integrals support X <= {X_MOMENTS_MAX}, got {X}")
    model.check_cutoff(X)
    half = _GAUSS_CUT / resonator_config(T).eps / step
    # half stays a float past the budget, so no step overflows ceil
    n = max(8, 2 * math.ceil(half)) if half <= QUAD_NODES_MAX else 2.0 * half
    if not 4 * n + 1 <= QUAD_NODES_MAX:
        raise ResourceError(
            f"quadrature needs {4 * n + 1:.3g} nodes, beyond the budget "
            f"{QUAD_NODES_MAX}; raise step or lower T"
        )
    return n


def moment_quadrature(
    model: LFunctionModel, X: float, T: float, step: float
) -> MomentQuadrature:
    """Direct composite-Simpson evaluation of the moment integrals on
    |t| <= 6.1/eps (the Gaussian is below 1e-16 beyond) with n, 2n and 4n
    intervals, n = max(8, 2 ceil((6.1/eps)/step)): spacings of about step,
    step/2 and step/4 on nested grids, all fed by one integrand sweep over
    the 4n + 1 nodes of the finest. error_estimate is the last halving
    difference; if halving stops reducing the difference, the rule is not
    resolving the integrand and the failure is raised, not smoothed over.

    The sweep takes 8 (6.1/eps)/step nodes to within 9 (7.2e5 at the
    defaults T = 5000, step 0.04), in chunks of 2^19 nodes, so its traced
    peak stays near 24 MiB at any node count. Above QUAD_NODES_MAX = 2^25,
    about 13 s at the 0.3-0.45 us per node measured at X = 18 on a 2-core
    Xeon VM (numpy 2.4), ResourceError is raised before any integrand work
    (quadrature_intervals)."""
    n = quadrature_intervals(model, X, T, step)
    eps = resonator_config(T).eps
    vals = _simpson_levels(model, X, eps, _GAUSS_CUT / eps, n)
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
