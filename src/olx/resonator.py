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
from typing import Callable

import numpy as np

from .errors import BUDGETS, DomainError, NumericError, check_budget
from .lfamily import LFunctionModel, local_coefficients, log_local_factor
from .primes import primes_upto
from .summation import BLOCK, blocked_log_sum, exp_of_log

_E_TO_E = math.exp(math.e)

X_MOMENTS_MAX = 50.0  # weight cutoff of both moment-integral paths
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
    I1 and of I2 from the untruncated series (lag cut, the Cramer
    remainder of the Taylor order `_box_sum` picks, at most 1% of the
    other terms below 30 orders, and the weight the enumeration floor
    dropped; see moment_series)."""

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
    """Resonator weight q_p = max(0, 1 - p/X) of one prime or an array of them,
    for primes p >= 2 and a finite cutoff X > 0."""
    if not (0 < X < math.inf and np.all(np.greater_equal(p, 2))):
        raise DomainError(f"resonator weights need primes p >= 2 and 0 < X < inf, got X = {X}")
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
    if math.isnan(X):
        raise DomainError(f"resonance cutoff X must be a number, got {X}")
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


def _weight_table(
    model: LFunctionModel, p: int, q: float, delta: float, which: str
) -> tuple[np.ndarray, float]:
    """The one weight table a moment needs, over offsets f = -fmax..fmax,
    and its closed-form total over all of Z.

    I2: w2(f) = q^|f| / (1 - q^2)            (pair side m vs n, common part summed)
        total (1 + q) / ((1 - q)(1 - q^2)) = 1 / (1 - q)^2
    I1: w1(f) = sum_(x - y = f) b(p^x) q^y   (b-side vs q-side exponent difference)
        with b(p^x) = sum_(v<=x) c_v q^(x-v) and c_v = a(p^v) p^(-v), the
        local Dirichlet coefficients of F(.; X). Put x = v + u and swap the
        sums: w1(f) = sum_v c_v sum_(u - y = f - v) q^(u+y) = sum_v c_v w2(f - v),
        so w1 = c * w2, one convolution, and its total is (sum_v c_v) times
        the I2 total, sum_v c_v being the Euler factor
        L_p(1) = prod_j (1 - alpha_j/p)^(-1).

    At q = 0 (p = X) only offsets f >= 0 carry weight (f = 0 alone for
    I2) and the formulas still hold; only fmax is set by p instead of the
    rate max(q, 1/p). Either way p^(-fmax) <= delta. c is taken to
    vmax = fmax + 64; as |alpha_j| <= 1, c_v <= C(v + d - 1, d - 1) p^(-v)
    for degree d, so for d <= 4 the terms dropped beyond vmax sum to less
    than 1e-18 c_0, and c_0 = 1 is at most (1 - q^2) times the largest
    entry. Every c_v is >= 0 for the models here, so a short vmax (higher
    zeta powers) only lowers entries, and the allowance built on the
    closed-form total still holds.
    """
    rate = max(q, 1.0 / p)
    if q > 0.0:
        fmax = max(2, math.ceil(math.log(delta * 1e-3) / math.log(rate)))
    else:
        fmax = max(1, math.ceil(math.log(1.0 / delta) / math.log(p)))
    total = (1.0 + q) / ((1.0 - q) * (1.0 - q * q))
    if which == "I2":
        return q ** np.abs(np.arange(-fmax, fmax + 1)) / (1.0 - q * q), total
    vmax = fmax + 64
    # p^-v via exp so deep tables underflow to zero instead of overflowing
    c = local_coefficients(model, p, vmax) * np.exp(-math.log(p) * np.arange(vmax + 1))
    w2 = q ** np.abs(np.arange(-fmax - vmax, fmax + 1)) / (1.0 - q * q)
    local = exp_of_log(float(log_local_factor(model, np.array([p]))[0]), f"L_{p}(1)")
    return np.convolve(c, w2, "valid"), total * local


def _enumerate_half(
    half: list[tuple[float, np.ndarray]], delta: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """All offset vectors over the half's (log p, table) pairs with
    normalized weight >= delta.

    Returns (x, w_normalized, scale): true weight = w_normalized * scale.
    Primes are crossed in the given order; callers pass wide tables first
    so intermediate arrays stay small. Each prime's outer product is built
    and filtered in row blocks of about summation.BLOCK cells, concatenated in
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
        rows = max(1, BLOCK // len(tnorm))
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
_ORDERS = 30  # the most Taylor orders k + l < K of the box expansion
_Z_CUT = 6.6  # lag cut: pairs farther apart in s are dropped
_LAGS = int(_Z_CUT / _BOX_R) + 1  # box lags |L| <= 7 hold every pair closer than _Z_CUT
_BOX_BLOCK = 2048  # boxes per block of the lag sum
_GEMM_BOXES = 256  # boxes per matrix product
_PAIR_REM = math.exp(-_Z_CUT**2)  # the lag cut's error per unit pair weight
_CRAMER = {  # CRAMER(K): the orders n >= K of one pair per unit of e^(-Z^2/2); see _box_sum
    K: 1.0865 * (_BOX_R * math.sqrt(2.0)) ** K / math.sqrt(math.factorial(K))
    / (1.0 - _BOX_R * math.sqrt(2.0 / (K + 1))) for K in range(2, _ORDERS + 1)}
_CRAMER_SHARE = 0.01  # K: the least order whose Cramer term is at most this share of the rest


def _box_sum(
    s_a: np.ndarray, w_a: np.ndarray, s_b: np.ndarray, w_b: np.ndarray,
    dropped: Callable[[float, float], float], folded: tuple[float, float] | None = None,
) -> tuple[float, float, float, float]:
    """(S, remainder, sup_a, sup_b): S = sum over all pairs of
    w_a w_b exp(-(s_a - s_b)^2) to within remainder, and upper bounds of
    sup_y G_A(y) and sup_y G_B(y), G_A(y) = sum_a w_a exp(-(s_a - y)^2).
    dropped(sup_a, sup_b) is the rest of the caller's allowance, in the
    units of w_a w_b; it sets the Taylor order K.

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
    box i, and H_(n+1) = 2z H_n - 2n H_(n-1). r = 1 needs 15 lags to
    reach the cut (29 at r = 1/2) and half the boxes.

    The remainder has two terms. The Cramer term: Cramer's inequality
    |H_n(z)| e^(-z^2/2) <= 1.0865 2^(n/2) sqrt(n!) (A&S 22.14.17) gives
    |h_n(Z)| = |H_n(Z)| e^(-Z^2/2) e^(-Z^2/2) <= 1.0865 2^(n/2) sqrt(n!)
    e^(-Z^2/2), so as |u_a - u_b| <= r the orders n >= K of a pair at lag
    L add at most e^(-(L r)^2/2) 1.0865 (r sqrt 2)^K / sqrt(K!) /
    (1 - r sqrt(2/(K+1))) = e^(-(L r)^2/2) CRAMER(K) (2.9e-12 at K = 30,
    2.8e-8 at K = 23) per unit pair weight, the ratio of successive
    orders being at most r sqrt(2/(K+1)). Summed, CRAMER(K) times the
    lag-weighted mass sum_L e^(-(L r)^2/2) C_L[0, 0]. The lag cut: the
    pairs of the lags |L| > 7 lie more than 7 r apart and add at most
    e^(-6.6^2) = 1.2e-19 per unit pair weight, _PAIR_REM times
    sum(w_a) sum(w_b).

    K is the least order in 2..30 whose Cramer term is at most
    _CRAMER_SHARE = 1% of the lag-cut term plus dropped(sup_a, sup_b), or
    30 if none is; so the remainder plus dropped is at most 1.01 times
    what 30 orders would state, and for zeta at X = 18, T = 5000,
    n_cutoff 1e5 K is 23. An order-0 pass picks it before any order-K
    moment is built: it takes each box's mass M_0 from one reduction
    over each side's box starts and walks the blocks below, yielding the
    lag-weighted mass and the sup bounds.

    Work and memory follow the items, not the span: the occupied boxes of
    both sides are numbered in order, each gap longer than 8 boxes shrunk
    to 8, so every pair within reach keeps its lag and no other comes into
    reach. Each block of 2,048 boxes of that numbering builds both sides'
    moments there and 7 boxes beyond (np.add.reduceat over the box starts
    per order, divided by k! once per box) and multiplies
    them 256 boxes at a time, which measured the same bits and time at
    OPENBLAS_NUM_THREADS = 1 and 2 on a 2-core Xeon VM (a product over
    8,192 boxes ran up to 15 times slower at 2).

    sup G_B is bounded from the box masses M_0: a point in box i lies at
    least (|L| - 1) r from every item of box i - L, so G_B there is at most
    sum_(|L|<=7) e^(-((|L|-1) r)^2) M^B_0[i - L], plus e^(-6.6^2) sum w_b
    for the items beyond; shrunk gaps bring no box nearer.

    folded = (mass_A, mass_B) sums half of an even pair sum (`_series_sum`
    derives it): both full sides are closed under s -> -s, A comes as its
    items at s >= 0 with the one at 0 halved, B as its items in boxes
    >= -7, and mass_A, mass_B are the full sides' masses. S is still the
    sum over the pairs given, and the full sum is 2 S; remainder, the sups
    and the order rule are the full sum's. The lag cut uses the full
    masses, since the dropped B items lie beyond every A item's reach; the
    Cramer term doubles with S. G_A is even, so sup G_A is its sup over
    y >= 0, where G_A(y) = G_A'(y) + G_A'(-y) for the half A' given: the
    order-0 pass adds the mirror of A's boxes 0..7 at boxes -7..0 (the
    mirror of an item of box j lies in box -j or on its upper edge, so a
    point in box -j + L is still at least (|L| - 1) r from it), the
    others being beyond reach of y >= 0. G_B is even too, and B's items within reach of y >= 0 are all
    given.
    """
    sides = []
    for s, w in ((s_a, w_a), (s_b, w_b)):
        key = s / _BOX_R
        key += 0.5
        np.floor(key, out=key)  # box i holds (i - 1/2) r <= s < (i + 1/2) r
        start = np.concatenate(([0], np.flatnonzero(key[1:] != key[:-1]) + 1, [len(s)]))
        sides.append([s, w, start, key[start[:-1]], np.add.reduceat(w, start[:-1])])
        del key
    # A's boxes 0..7 mirrored to -7..0, ascending (none unless folded)
    near_zero = slice(None, np.searchsorted(sides[0][3], _LAGS, "right") if folded else 0)
    mirror_key, mirror_mass = -sides[0][3][near_zero][::-1], sides[0][4][near_zero][::-1]
    occ = np.union1d(np.union1d(sides[0][3], sides[1][3]), mirror_key)
    pos = _LAGS + np.concatenate(
        ([0], np.cumsum(np.minimum(np.diff(occ), _LAGS + 1)))).astype(np.int64)
    for side in sides:
        side.append(pos[np.searchsorted(occ, side[3])])
    blocks = range(-_LAGS, int(pos[-1]) + 1, _BOX_BLOCK)
    lags = np.arange(-_LAGS, _LAGS + 1)
    reach = np.exp(-((np.maximum(np.abs(lags) - 1, 0) * _BOX_R) ** 2))
    near = np.exp(-((lags * _BOX_R) ** 2) / 2.0)  # each lag's Cramer factor
    # the order-0 pass: the sup bounds and the lag-weighted mass. Row 0 takes
    # A's mirrored masses and then A's own, for G_A; row 2 keeps A's alone
    rows = [(mirror_mass, pos[np.searchsorted(occ, mirror_key)]), sides[1][4:], sides[0][4:]]
    m0 = np.empty((3, _BOX_BLOCK + 2 * _LAGS))
    sup, lag_mass = np.zeros(2), 0.0
    for lo in blocks:
        for (mass, comp), m in zip(rows, m0):
            r0, r1 = np.searchsorted(comp, (lo, lo + len(m)))
            m.fill(0.0)
            m[comp[r0:r1] - lo] = mass[r0:r1]
        m0[0] += m0[2]
        g = np.zeros((3, _BOX_BLOCK))  # G_A and G_B bounds, then B's masses weighted by lag
        for i, L in enumerate(lags):
            shifted = m0[:, _LAGS - L : _LAGS - L + _BOX_BLOCK]
            g[:2] += reach[i] * shifted[:2]
            g[2] += near[i] * shifted[1]
        sup = np.maximum(sup, g[:2].max(axis=1))
        lag_mass += float(np.sum(m0[2, _LAGS : _LAGS + _BOX_BLOCK] * g[2]))
    copies = 2.0 if folded else 1.0  # the full sum is this many times S
    mass_a, mass_b = folded or (float(np.sum(w_a)), float(np.sum(w_b)))
    sup_a = float(sup[0]) + _PAIR_REM * mass_a  # the items beyond the lags
    sup_b = float(sup[1]) + _PAIR_REM * mass_b
    cut = _PAIR_REM * mass_a * mass_b
    allowed = _CRAMER_SHARE * (cut + dropped(sup_a, sup_b))
    K = next((k for k in range(2, _ORDERS) if copies * _CRAMER[k] * lag_mass <= allowed),
             _ORDERS)
    ma, mb = moments = np.empty((2, _BOX_BLOCK + 2 * _LAGS, K))
    cross = np.zeros((len(lags), K, K))  # C_L
    factorial = np.cumprod(np.maximum(np.arange(K), 1.0))
    for lo in blocks:
        for (s, w, start, key, _, comp), m in zip(sides, moments):
            # m[j - lo, k] = sum w u^k/k! over the boxes j in [lo, lo + len(m))
            r0, r1 = np.searchsorted(comp, (lo, lo + len(m)))
            lengths = np.diff(start[r0 : r1 + 1])
            u = s[start[r0] : start[r1]] - np.repeat(key[r0:r1] * _BOX_R, lengths)
            p = w[start[r0] : start[r1]].copy()
            sums = np.empty((K, r1 - r0))
            for k in range(K):
                np.add.reduceat(p, start[r0:r1] - start[r0], out=sums[k])
                p *= u
            m.fill(0.0)
            m[comp[r0:r1] - lo] = sums.T / factorial
        ma_t = ma[_LAGS : _LAGS + _BOX_BLOCK].reshape(-1, _GEMM_BOXES, K).transpose(0, 2, 1)
        for i, L in enumerate(lags):
            shifted = slice(_LAGS - L, _LAGS - L + _BOX_BLOCK)
            cross[i] += (ma_t @ mb[shifted].reshape(-1, _GEMM_BOXES, K)).sum(axis=0)
    z = lags * _BOX_R
    h = np.zeros((K, len(z)))
    h[0] = np.exp(-z * z)
    for n in range(K - 1):  # at n = 0, h[n - 1] is the last row, still 0
        h[n + 1] = 2.0 * z * h[n] - 2.0 * n * h[n - 1]
    k = np.arange(K)
    n = k[:, None] + k[None, :]  # weights[L, k, l] = (-1)^k h_(k+l)(L r) for k + l < K
    weights = np.where(n < K, (-1.0) ** k[:, None] * h.T[:, np.minimum(n, K - 1)], 0.0)
    return (float(np.sum(weights * cross)), cut + copies * _CRAMER[K] * lag_mass, sup_a, sup_b)


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
    and the Cramer remainder (`_box_sum`'s remainder), and the weight the
    floor dropped. With d_A = total_A - mass_A, total_A the product of its
    primes' closed-form `_weight_table` totals and mass_A the enumerated
    mass, the dropped pairs add at most d_A (sup G_B + d_B) + d_B sup G_A,
    sup G bounded by `_box_sum`, which sets its Taylor order by this term.

    I2 adds half its pairs. Its tables q^|f|/(1 - q^2) are even, so each
    half's enumeration is closed under f -> -f bit for bit: negated offsets
    are exact, a sum of negated terms rounds to the negated sum, and the
    mirrored item multiplies the same table entries in the same order. The
    pairs (a, b) and (-a, -b) then carry one term, so S = 2 S', where S'
    pairs the larger half's items at s >= 0, the one at s = 0 halved (an
    exact scaling), with the other half's items in boxes >= -7; the rest
    of that half lies beyond reach of s >= 0. Both halves are cut before
    they are sorted, so the sort and the box sum see about half the items.
    The allowance stays the unfolded one: `_box_sum` takes the full masses
    for the lag cut and the full sum's Cramer term, and bounds the even
    sup G_A by mirroring the folded half's boxes near 0. Bounding it by
    2 sup G_A' instead would raise truncation_bound by 3% at X = 18.
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
    sides, masses, dropped_weight, scale = [], [], [], 1.0
    for sign, half, total in zip((1.0, -1.0), halves, totals):
        x, w, half_scale = _enumerate_half(half, delta)
        x *= sign / (2.0 * eps)
        masses.append(float(np.sum(w)))
        if which == "I2":  # the items within reach of s >= 0
            keep = x >= -(_LAGS + 0.5) * _BOX_R
            x = x[keep]
            w = w[keep]
            del keep
        order = np.argsort(x)
        x = x[order]
        w = w[order]
        del order
        sides.append((x, w))
        dropped_weight.append(max(0.0, total / half_scale - masses[-1]))
        scale *= half_scale
    folded = None
    if which == "I2":  # fold the larger half: its items at s >= 0, the one at 0 halved
        if len(sides[1][0]) > len(sides[0][0]):
            for per_half in (sides, masses, dropped_weight):
                per_half.reverse()
        x, w = sides[0]
        lo, hi = np.searchsorted(x, 0.0), np.searchsorted(x, 0.0, "right")
        w[lo:hi] *= 0.5
        sides[0] = (x[lo:], w[lo:])
        folded = tuple(masses)
    d_a, d_b = (float(d) for d in dropped_weight)

    def dropped(sup_a: float, sup_b: float) -> float:
        term = d_a * (float(sup_b) + d_b) + d_b * float(sup_a)
        if not math.isfinite(term):  # a high zeta power's table totals
            raise NumericError(f"{which} series allowance overflows a float: its dropped-weight "
                               f"term d_A (sup G_B + d_B) + d_B sup G_A, d_A = {d_a:.3g}, "
                               f"d_B = {d_b:.3g}")
        return term

    s, remainder, sup_a, sup_b = _box_sum(*sides[0], *sides[1], dropped, folded)
    return s * (2.0 if folded else 1.0) * scale, (remainder + dropped(sup_a, sup_b)) * scale


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
    box-moment pair sum; I2's pair sum is folded onto the even half of its
    items (`_series_sum`), so it adds half its pairs and sorts half its
    items. I1 runs first: its enumeration is the larger and sets the
    traced peak, and with I2 first the bench command (X = 18) peaked at
    78 MB resident against 66 MB. truncation_bound, sqrt(pi)/eps times
    the sum of both moments' allowances, is rigorous up to rounding: its
    three terms are the lag cut, the Cramer remainder of the Taylor
    orders >= K, and the weight the floor dropped. Each pair sum picks its K as the least
    order in 2..30 whose Cramer term is at most 1% of the other two, so
    the bound is at most 1.01 times what 30 orders would give. Both
    moments' weight totals are closed forms (`_weight_table`), so the
    last term holds for every zeta power. It grows, and never silently,
    when n_cutoff is too small for the requested accuracy. X <= 50 is the
    supported range, but the 12M-item enumeration budget binds first.
    Measured for zeta at T = 5000 on a 2-core Xeon VM (numpy 2.4), one
    process per run, with its peak RSS and truncation_bound/I2: n_cutoff
    1e5 takes 0.46-0.47 s and 66 MB at X = 18 (2.5e-5), 0.97-1.10 s and
    163 MB at X = 20 (3.9e-5) and 1.84-2.13 s and 285 MB at X = 22
    (3.4e-5), against 0.55-0.57 s, 1.29-1.55 s and 2.27-2.71 s unfolded;
    the traced peaks, 31.5, 93.9 and 181.7 MiB, are I1's and did not
    move. K is 23 at all three, and the budget is exceeded at X = 25;
    with 30 orders throughout, n_cutoff 1e4 took 11 s and 590 MB at
    X = 25 (3.1e-3) and exceeded it at X = 30, where n_cutoff 1e3 took
    11 s and 0.66 GB for 0.24. So the practical limit is about X = 25.
    """
    if not X <= X_MOMENTS_MAX:  # NaN too
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
    s1, extra1 = _series_sum(model, X, eps, delta, "I1")
    s2, extra2 = _series_sum(model, X, eps, delta, "I2")
    bound = norm * (extra1 + extra2)
    return MomentSeries(
        I1=float(norm * s1), I2=float(norm * s2), truncation_bound=float(bound)
    )


# ---------------------------------------------------------------------------
# moment integrals, quadrature path
# ---------------------------------------------------------------------------


def _cos_sin(half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos 2h, sin 2h) of the half angles h from one tangent tau = tan h:
    cos 2h = (1 - tau)(1 + tau)/(1 + tau^2) and sin 2h = 2 tau/(1 + tau^2).
    One np.tan (SIMD-dispatched, about 5 ns per element on a 2-core Xeon
    VM) takes the place of np.cos and np.sin (27-33 ns each). tau^2 cannot
    overflow: no double lies within 4.7e-19 of an odd multiple of pi/2
    (the worst case of argument reduction), so |tau| < 2.2e18.

    Error, absolute, against cos and sin of the double 2h, to first order
    in u = 2^-53, given np.tan within 1 ulp (relative error a <= 2u): a
    moves sin by sin cos a and cos by -sin^2 a; the roundings add 3u
    relative to sin (tau^2, the sum, the quotient) and 6u to cos (both
    factors and their product besides). So cos is within 6u|cos| +
    2u sin^2 <= 6u and sin within 3u|sin| + 2u|sin cos| <= 3.5u. Against
    120-bit mpmath, for 2h up to 1e9, they stayed within 2.4u and 1.9u;
    libm's cos and sin, within 0.5u.
    """
    tau = np.tan(half)
    den = 1.0 + tau * tau
    return (1.0 - tau) * (1.0 + tau) / den, 2.0 * tau / den


def _integrand_sums(
    model: LFunctionModel, X: float, eps: float, t: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Re F*|R|^2*Phi, Im F*|R|^2*Phi, |R|^2*Phi) on the nodes t.

    The cos and sin of each phase t log p come from `_cos_sin` at the half
    angle t (log p / 2); halving log p is exact, so that angle is exactly
    half the double t log p and the phase rounds as it would whole. The
    two add at most 6u and 3.5u absolute beyond the phase's own rounding.
    """
    r2 = np.ones_like(t)
    f_val = np.ones_like(t, dtype=np.complex128)
    if X >= 2:
        primes = primes_upto(X)
        real, pair_re = model.root_blocks(primes)
        for i, p in enumerate(primes):
            p = int(p)
            q = q_of_prime(p, X)
            cos_ph, sin_ph = _cos_sin(t * (0.5 * math.log(p)))
            z = cos_ph + 1j * sin_ph
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
    shares. The sweep runs in blocks of 2^15 nodes, each summed into the
    levels as soon as it is made, so the integrand's temporaries stay small."""
    strides = np.array([4, 2, 1])
    h = t_max / n
    sums = np.zeros((3, 3))
    block = 1 << 15  # a multiple of 4, so every block starts on a node of every level
    for lo in range(0, 2 * n + 1, block):
        t = -t_max + np.arange(lo, min(lo + block, 2 * n + 1)) * h
        vals = _integrand_sums(model, X, eps, t)
        if lo == 0:
            ends = np.array([v[0] for v in vals])
        for level, stride in zip(sums, strides):
            # a plain sum, not the BLAS dot, whose sum order follows BLAS threads
            level += [np.sum(v[::stride]) for v in vals]
    ends += [v[-1] for v in vals]
    return (sums - ends / 2.0) * (strides * h)[:, None]


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
    defaults T = 5000, step 0.04) in blocks of 2^15; its traced peak was
    4.3 MiB for zeta at X = 18 at step 0.04 and at 0.004 alike. Past
    the budget "quad_nodes" (olx.errors.BUDGETS), ResourceError is raised
    before any integrand work, so `olx moments` refuses such a run before
    its series starts."""
    if not 0 < step < math.inf:
        raise DomainError("quadrature step must be positive")
    if not X <= X_MOMENTS_MAX:  # NaN too
        raise DomainError(f"moment integrals support X <= {X_MOMENTS_MAX}, got {X}")
    model.check_cutoff(X)
    eps = resonator_config(T).eps
    half = _GAUSS_CUT / eps / step
    # half stays a float past the budget, so no step overflows ceil
    n = max(8, 2 * math.ceil(half)) if half <= BUDGETS["quad_nodes"].limit else 2.0 * half
    check_budget("quad_nodes", 2 * n + 1)
    vals = _trapezoid_levels(model, X, eps, _GAUSS_CUT / eps, n)
    if not np.isfinite(vals).all():
        raise NumericError(f"quadrature level not finite at step {step}")
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
