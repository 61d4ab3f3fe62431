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
differences, so the common-divisor direction has closed geometric sums;
a box-moment fast Gauss transform adds the pairs, and the truncation
bound is rigorous), and the trapezoid rule on the defining integrals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BUDGETS, DomainError, NumericError, check_budget
from .lfamily import LFunctionModel, local_coefficients, log_local_factor
from .primes import primes_upto
from .summation import blocked_log_sum, exp_of_log

_E_TO_E = math.exp(math.e)

X_MOMENTS_MAX = 50.0  # weight cutoff of both moment-integral paths
_ENUM_BLOCK = 1 << 16  # cells per row block of an enumeration outer product
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
    """Series-path moment values; truncation_bound bounds the distance of
    I1 and of I2 from the untruncated series (lag cut, Cramer remainder
    and the weight the enumeration floor dropped; see moment_series)."""

    I1: float
    I2: float
    truncation_bound: float


@dataclass(frozen=True)
class MomentQuadrature:
    """Quadrature-path moment values, the last step-halving difference
    |T_(step/2) - T_step| and the first integrand's imaginary part, relative."""

    I1: float
    I2: float
    error_estimate: float
    i1_imag_rel: float


def _iterated_logs(T: float) -> tuple[float, float]:
    """(log T, log_2 T); needs a finite T > e^e so that log_3 T =
    log(log_2 T) > 0 is defined too."""
    if not _E_TO_E < T < math.inf:
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
    primes = primes_upto(X)
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
            check_budget("enum_items", kept)
            parts_w.append(new_w[keep])
            parts_x.append((xs[lo : lo + rows, None] + offs[None, :]).ravel()[keep])
        xs = np.concatenate(parts_x)
        del parts_x  # one array's parts at a time beside the joined arrays
        ws = np.concatenate(parts_w)
    return xs, ws, scale


_BOX_R = 1.0  # r: box width in s = x/(2 eps), the pair sum's coordinate
_ORDERS = 30  # K: Taylor orders k + l < K of the box expansion
_Z_CUT = 6.6  # lag cut: pairs farther apart in s are dropped
_LAGS = int(_Z_CUT / _BOX_R) + 1  # box lags |L| <= 7 hold every pair closer than _Z_CUT
_BOX_BLOCK = 2048  # boxes per block of the lag sum
_GEMM_BOXES = 256  # boxes per matrix product
_CRAMER = (  # the orders n >= K of one pair; see _box_sum
    1.0865 * (_BOX_R * math.sqrt(2.0)) ** _ORDERS / math.sqrt(math.factorial(_ORDERS))
    / (1.0 - _BOX_R * math.sqrt(2.0 / (_ORDERS + 1))))
_PAIR_REM = math.exp(-_Z_CUT**2) + _CRAMER  # box sum error per unit pair weight


def _box_sum(
    s_a: np.ndarray, w_a: np.ndarray, s_b: np.ndarray, w_b: np.ndarray
) -> tuple[float, float, float]:
    """(S, sup_a, sup_b): S = sum over all pairs of w_a w_b exp(-(s_a - s_b)^2)
    to within _PAIR_REM * sum(w_a) * sum(w_b), and upper bounds of
    sup_y G_A(y) and sup_y G_B(y), G_A(y) = sum_a w_a exp(-(s_a - y)^2).

    Each side comes sorted by s, with weights w >= 0. This is a 1-D fast
    Gauss transform by box moments (Greengard & Strain, SIAM J. Sci. Stat.
    Comput. 12, 1991). Box i has centre i r; its items have offsets u. For
    a in box i and b in box i - L, s_a - s_b = L r + u_a - u_b. Taylor's
    series at Z = L r, where d^n/dz^n e^(-z^2) = (-1)^n h_n(z) with
    h_n = H_n e^(-z^2), turns the pair's Gaussian into
    sum_(k,l) (-1)^k h_(k+l)(Z) (u_a^k/k!) (u_b^l/l!), the sign being
    (-1)^(k+l) from the derivative times (-1)^l from (-u_b)^l. So
    S = sum_L sum_(k+l<K) (-1)^k h_(k+l)(L r) C_L[k, l] with
    C_L[k, l] = sum_i M^A_k[i] M^B_l[i - L], M_k[i] = sum w u^k/k! over
    box i, and H_(n+1) = 2z H_n - 2n H_(n-1).

    r = 1 needs 15 lags to reach the cut (29 at r = 1/2) and half the
    boxes. K = 30: as |u_a - u_b| <= r, Cramer's inequality |H_n(z)|
    e^(-z^2/2) <= 1.0865 2^(n/2) sqrt(n!) (A&S 22.14.17) bounds the orders
    n >= K by 1.0865 (r sqrt 2)^K / sqrt(K!) / (1 - r sqrt(2/(K+1))) =
    2.9e-12 per unit pair weight. The cut 6.6: the pairs of the lags
    |L| > 7 lie more than 7 r apart and add at most e^(-6.6^2) = 1.2e-19
    per unit pair weight, far below the Cramer term. _PAIR_REM is the sum.

    Work and memory follow the items, not the span: the occupied boxes of
    both sides are numbered in order, each gap longer than 8 boxes shrunk
    to 8, so every pair within reach keeps its lag and no other comes into
    reach. Each block of 2,048 boxes of that numbering builds both sides'
    moments there and 7 boxes beyond (np.bincount per order) and multiplies
    them 256 boxes at a time, which measured the same bits and time at
    OPENBLAS_NUM_THREADS = 1 and 2 on a 2-core Xeon VM (a product over
    8,192 boxes ran up to 15 times slower at 2).

    sup G_B is bounded from the box masses M_0: a point in box i lies at
    least (|L| - 1) r from every item of box i - L, so G_B there is at most
    sum_(|L|<=7) e^(-((|L|-1) r)^2) M^B_0[i - L], plus e^(-6.6^2) sum w_b
    for the items beyond; shrunk gaps bring no box nearer.
    """
    sides = []
    for s, w in ((s_a, w_a), (s_b, w_b)):
        key = s / _BOX_R
        key += 0.5
        np.floor(key, out=key)  # box i holds (i - 1/2) r <= s < (i + 1/2) r
        start = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1, [len(s)]))
        sides.append([s, w, start, key[start[:-1]]])
        del key
    occ = np.union1d(sides[0][3], sides[1][3])
    pos = _LAGS + np.concatenate(
        ([0], np.cumsum(np.minimum(np.diff(occ), _LAGS + 1)))).astype(np.int64)
    for side in sides:
        side.append(pos[np.searchsorted(occ, side[3])])
    lags = np.arange(-_LAGS, _LAGS + 1)
    reach = np.exp(-((np.maximum(np.abs(lags) - 1, 0) * _BOX_R) ** 2))
    ma, mb = moments = np.empty((2, _BOX_BLOCK + 2 * _LAGS, _ORDERS))
    cross = np.zeros((len(lags), _ORDERS, _ORDERS))  # C_L
    sup = np.zeros(2)
    for lo in range(-_LAGS, int(pos[-1]) + 1, _BOX_BLOCK):
        for (s, w, start, key, comp), m in zip(sides, moments):
            # m[j - lo, k] = sum w u^k/k! over the boxes j in [lo, lo + len(m))
            r0, r1 = np.searchsorted(comp, (lo, lo + len(m)))
            lengths = np.diff(start[r0 : r1 + 1])
            idx = np.repeat(comp[r0:r1] - lo, lengths)
            u = s[start[r0] : start[r1]] - np.repeat(key[r0:r1] * _BOX_R, lengths)
            p = w[start[r0] : start[r1]].copy()
            for k in range(_ORDERS):
                m[:, k] = np.bincount(idx, p, minlength=len(m))
                p *= u
                p /= k + 1
        ma_t = ma[_LAGS : _LAGS + _BOX_BLOCK].reshape(-1, _GEMM_BOXES, _ORDERS).transpose(0, 2, 1)
        g = np.zeros((2, _BOX_BLOCK))
        for i, L in enumerate(lags):
            shifted = slice(_LAGS - L, _LAGS - L + _BOX_BLOCK)
            cross[i] += (ma_t @ mb[shifted].reshape(-1, _GEMM_BOXES, _ORDERS)).sum(axis=0)
            g += reach[i] * moments[:, shifted, 0]
        sup = np.maximum(sup, g.max(axis=1))
    z = lags * _BOX_R
    h = np.zeros((_ORDERS, len(z)))
    h[0] = np.exp(-z * z)
    for n in range(_ORDERS - 1):  # at n = 0, h[n - 1] is the last row, still 0
        h[n + 1] = 2.0 * z * h[n] - 2.0 * n * h[n - 1]
    k = np.arange(_ORDERS)
    n = k[:, None] + k[None, :]  # weights[L, k, l] = (-1)^k h_(k+l)(L r) for k + l < K
    weights = np.where(n < _ORDERS, (-1.0) ** k[:, None] * h.T[:, np.minimum(n, _ORDERS - 1)], 0.0)
    tail = math.exp(-_Z_CUT**2)
    return (float(np.sum(weights * cross)), float(sup[0]) + tail * float(np.sum(w_a)),
            float(sup[1]) + tail * float(np.sum(w_b)))


def _series_sum(
    model: LFunctionModel, X: float, eps: float, delta: float, which: str
) -> tuple[float, float]:
    """(S, allowance) for one moment, from one enumeration at the floor
    delta and one box sum over it.

    S = sum over offset vectors f of prod_i w_i(f_i) * exp(-(sum f_i log p_i)^2
    / (4 eps^2)). The primes split into halves A and B of about equal
    table size. Each half is enumerated, scaled to s = x/(2 eps) (B
    reflected, s = -x/(2 eps)) and sorted, its unsorted copies freed
    before the next; `_box_sum` then adds every pair. The weights are
    non-negative, and the allowance bounds the distance from S to the sum
    over all of Z^pi, up to rounding, by three stated terms: the lag cut
    and the Cramer remainder, _PAIR_REM times mass_A mass_B (the
    enumerated masses), and the weight the floor dropped. With
    d_A = total_A - mass_A, total_A the product of its primes' closed-form
    `_weight_table` totals, the dropped pairs add at most
    d_A (sup G_B + d_B) + d_B sup G_A, sup G bounded by `_box_sum`.
    """
    halves: tuple[list, list] = ([], [])
    sizes, totals = [0.0, 0.0], [1.0, 1.0]
    tabs = [(math.log(p), *_weight_table(model, p, q_of_prime(p, X), delta, which))
            for p in (int(v) for v in primes_upto(X))]
    # widest tables first keeps intermediate enumeration arrays small
    for logp, table, table_total in sorted(tabs, key=lambda t: -len(t[1])):
        k = 0 if sizes[0] <= sizes[1] else 1
        halves[k].append((logp, table))
        sizes[k] += math.log(len(table))
        totals[k] *= table_total
    sides, masses, scales = [], [], []
    for sign, half in zip((1.0, -1.0), halves):
        x, w, half_scale = _enumerate_half(half, delta)
        x *= sign / (2.0 * eps)
        order = np.argsort(x)
        x = x[order]
        w = w[order]
        del order
        sides += [x, w]
        masses.append(float(np.sum(w)) * half_scale)
        scales.append(half_scale)
    s, sup_a, sup_b = _box_sum(*sides)
    d_a, d_b = (max(0.0, t - m) for t, m in zip(totals, masses))
    dropped = d_a * (sup_b * scales[1] + d_b) + d_b * sup_a * scales[0]
    return s * scales[0] * scales[1], _PAIR_REM * masses[0] * masses[1] + dropped


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
    Each moment is one `_series_sum` call, one enumeration and one
    box-moment pair sum. truncation_bound, sqrt(pi)/eps times the sum of
    both moments' allowances, is rigorous up to rounding: its three terms
    are the lag cut, the Cramer remainder of the Taylor orders >= 30, and
    the weight the floor dropped. It grows, and never silently, when
    n_cutoff is too small for the requested accuracy. X <= 50 is the
    supported range, but the 12M-item enumeration budget binds first.
    Measured for zeta at T = 5000 on a 2-core Xeon VM (numpy 2.4), one
    process per run, with its peak RSS and truncation_bound/I2: n_cutoff
    1e5 takes 0.8 s and 71 MB at X = 18 (2.5e-5), 2.4 s and 164 MB at
    X = 20 (3.9e-5) and 4.7 s and 285 MB at X = 22 (3.4e-5), and exceeds
    the budget at X = 25; n_cutoff 1e4 takes 11 s and 590 MB at X = 25
    (3.1e-3) and exceeds it at X = 30, where n_cutoff 1e3 takes 11 s and
    0.66 GB for 0.24. So the practical limit is about X = 25.
    """
    if X > X_MOMENTS_MAX:
        raise DomainError(f"moment integrals support X <= {X_MOMENTS_MAX}, got {X}")
    if not n_cutoff >= 1:
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
        primes = primes_upto(X)
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


def _trapezoid_levels(
    model: LFunctionModel, X: float, eps: float, t_max: float, n: int
) -> np.ndarray:
    """Trapezoid (Re I1, Im I1, I2) on [-t_max, t_max] with n/2, n and 2n
    intervals, one row per level, from one integrand sweep over the 2n + 1
    nodes of the finest grid: each level reads every 4th, 2nd or 1st node
    (n is even), all of them weighted 1 but the two ends, which every level
    shares. The sweep refills one (3, chunk) buffer per chunk from blocks
    of 2^15 nodes, so the integrand's temporaries stay small."""
    strides = np.array([4, 2, 1])
    h = t_max / n
    sums = np.zeros((3, 3))
    chunk = 1 << 19  # a multiple of 4, so every chunk starts on a node of every level
    block = 1 << 15
    buf = np.empty((3, min(chunk, 2 * n + 1)))
    for lo in range(0, 2 * n + 1, chunk):
        hi = min(lo + chunk, 2 * n + 1)
        vals = buf[:, : hi - lo]
        for b in range(lo, hi, block):
            t = -t_max + np.arange(b, min(b + block, hi)) * h
            vals[:, b - lo : b - lo + len(t)] = _integrand_sums(model, X, eps, t)
        if lo == 0:
            ends = vals[:, 0].copy()
        for level, stride in zip(sums, strides):
            # a plain sum, not the BLAS dot, whose sum order follows BLAS threads
            level += np.sum(vals[:, ::stride], axis=1)
    ends += vals[:, -1]
    return (sums - ends / 2.0) * (strides * h)[:, None]


def quadrature_intervals(
    model: LFunctionModel, X: float, T: float, step: float
) -> int:
    """The interval count n of moment_quadrature's middle level after its
    input checks; ResourceError when the sweep's 2n + 1 nodes exceed the
    budget "quad_nodes". Cheap, so a caller can refuse a run before other work."""
    if not 0 < step < math.inf:
        raise DomainError("quadrature step must be positive")
    if X > X_MOMENTS_MAX:
        raise DomainError(f"moment integrals support X <= {X_MOMENTS_MAX}, got {X}")
    model.check_cutoff(X)
    half = _GAUSS_CUT / resonator_config(T).eps / step
    # half stays a float past the budget, so no step overflows ceil
    n = max(8, 2 * math.ceil(half)) if half <= BUDGETS["quad_nodes"].limit else 2.0 * half
    check_budget("quad_nodes", 2 * n + 1)
    return n


def moment_quadrature(
    model: LFunctionModel, X: float, T: float, step: float
) -> MomentQuadrature:
    """Direct trapezoid evaluation of the moment integrals on |t| <= 6.1/eps
    (the Gaussian is below 1e-16 beyond) with n/2, n and 2n intervals,
    n = max(8, 2 ceil((6.1/eps)/step)): spacings of about 2 step, step and
    step/2 on nested grids, all fed by one integrand sweep over the 2n + 1
    nodes of the finest. On this Gaussian-windowed almost periodic
    integrand the trapezoid rule converges geometrically (Trefethen &
    Weideman, SIAM Rev. 56, 2014), so error_estimate, the last halving
    difference |T_(step/2) - T_step|, over-states its error; if halving
    stops reducing the difference, the rule is not resolving the integrand
    and the failure is raised, not smoothed over.

    The sweep takes 4 (6.1/eps)/step nodes to within 5 (3.6e5 at the
    defaults T = 5000, step 0.04), in chunks of 2^19 nodes through one
    buffer, so its traced peak stays below 16 MiB at any node count. Past
    the budget "quad_nodes" (olx.errors.BUDGETS), ResourceError is raised
    before any integrand work (quadrature_intervals)."""
    n = quadrature_intervals(model, X, T, step)
    eps = resonator_config(T).eps
    vals = _trapezoid_levels(model, X, eps, _GAUSS_CUT / eps, n)
    e1, e2 = np.abs(np.diff(vals[:, [0, 2]], axis=0)).max(axis=1)  # Re I1 and I2
    floor = 1e-12 * np.abs(vals[2, [0, 2]]).max()
    if e2 > e1 and e2 > floor:
        raise NumericError(
            f"quadrature not converging under step halving: "
            f"|diff| {e1:.3e} -> {e2:.3e} at step {step}"
        )
    i1_re, i1_im, i2 = vals[2].tolist()
    return MomentQuadrature(
        I1=i1_re,
        I2=i2,
        error_estimate=float(e2),
        i1_imag_rel=abs(i1_im) / max(abs(i1_re), 1e-300),
    )
