"""Concrete Euler-product models: zeta powers, quadratic-field zeta
functions, and the degree-4 self-convolution of the discriminant cusp form.

Every model factorizes completely: at each prime p it carries exactly
`degree` inverse roots alpha_j(p) with |alpha_j| <= 1, and has a pole of
order m >= 1 at s = 1 with residue c = lim (s-1)^m F(s). The derived
constant gamma_f = m*gamma + log(c) scales all large-value predictions.

Residues are computed numerically here (the character series of charsum,
the symmetric-square Euler product); closed forms appear only in the tests
as oracles. dirichlet_direct is also the character factor of the
quadratic-field models' direct values on the 1-line.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from numbers import Integral

import numpy as np

from .charsum import periodic_lseries
from .errors import DomainError, NumericError, RangeError, check_budget
from .primes import character_table, primes_upto

EULER_GAMMA = 0.57721566490153286


@dataclass(frozen=True, eq=False)
class LFunctionModel:
    """A completely factorizing Euler product with a pole at s = 1.

    kind selects the vectorized local-root rule:
      'zeta-power'     all roots 1 with multiplicity = pole order
      'dedekind'       roots [1, chi_d(p)] for a fundamental discriminant d
      'rankin-selberg' roots [a^2, 1, 1, conj(a)^2] from normalized tau(p)
    coeff_cutoff is the largest prime with known roots (finite only for
    the Rankin-Selberg model). residue_tail is the tail estimate that
    sym2_residue reports with the Rankin-Selberg residue (0.0 otherwise).
    gamma_f is derived from the pole order m and the residue c.

    The root bound |alpha_j(p)| <= 1 holds where the models are built, so
    no kernel checks it: chi_d(p) is in {-1, 0, 1}, and _rs_lambda_sq checks
    tau(p)^2 <= 4 p^11 in exact integers; as 4 float(p^11) is exact and
    rounding is monotone, float(tau^2)/float(p^11) <= 4, so pair_re =
    lambda^2/2 - 1 lies in [-1, 1] exactly. With p >= 2 and weights q <= 1,
    |1 - alpha q p^(-s)| >= 1/2 on Re s = 1: no log1p argument reaches -1.
    """

    label: str
    degree: int
    pole_order: int
    residue: float
    kind: str
    coeff_cutoff: float
    residue_tail: float = 0.0
    discriminant: int | None = None
    _chi: np.ndarray | None = field(default=None, repr=False)
    _rs_primes: np.ndarray | None = field(default=None, repr=False)
    _rs_lam_sq: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.pole_order < 1:
            raise DomainError("model needs a pole at s = 1 (pole_order >= 1)")

    @property
    def gamma_f(self) -> float:
        """gamma_F = m*gamma + log(c)."""
        return self.pole_order * EULER_GAMMA + math.log(self.residue)

    def check_cutoff(self, x: float) -> None:
        """Raise RangeError if primes up to x reach past the coefficient table."""
        if not x <= self.coeff_cutoff:  # NaN too
            raise RangeError(f"cutoff {x} beyond coefficient cutoff {self.coeff_cutoff}")

    def root_blocks(self, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized local roots for an ascending block of primes.

        Returns (real_roots, pair_re): real_roots has one column per real
        root; pair_re has one column per conjugate pair of unit-modulus
        roots, holding the real part. Together they account for all
        `degree` roots of every prime in the block.
        """
        n = len(primes)
        if self.kind == "zeta-power":
            real = np.broadcast_to(1.0, (n, self.pole_order))
            return real, np.empty((n, 0))
        if self.kind == "dedekind":
            chi = self._chi[np.asarray(primes) % len(self._chi)].astype(np.float64)
            real = np.column_stack([np.ones(n), chi])
            return real, np.empty((n, 0))
        # rankin-selberg: two real roots 1 and the pair (a^2, conj(a)^2)
        if n:
            self.check_cutoff(int(primes[-1]))
        idx = np.searchsorted(self._rs_primes, primes)
        if n and ((idx >= len(self._rs_primes)).any() or (self._rs_primes[idx] != primes).any()):
            raise RangeError("non-prime or out-of-table value in prime block")
        lam_sq = self._rs_lam_sq[idx]
        real = np.broadcast_to(1.0, (n, 2))
        pair_re = (0.5 * lam_sq - 1.0).reshape(n, 1)
        return real, pair_re


def log_local_factor(
    model: LFunctionModel, primes: np.ndarray, q: float | np.ndarray = 1.0
) -> np.ndarray:
    """Per-prime log of prod_j (1 - alpha_j(p) q / p)^(-1) over an ascending
    block of primes; q is a scalar or one weight per prime in [0, 1] (q = 1
    is the local factor at s = 1, the resonator weights q_p give the
    resonance product), so each factor stays finite (LFunctionModel)."""
    real, pair_re = model.root_blocks(primes)
    inv_p = 1.0 / primes.astype(np.float64)
    terms = np.zeros(len(primes))
    for j in range(real.shape[1]):
        terms += -np.log1p(-real[:, j] * q * inv_p)
    for j in range(pair_re.shape[1]):
        # conjugate pair of unit-modulus roots: (1 - a q/p)(1 - conj(a) q/p)
        terms += -np.log1p((-2.0 * pair_re[:, j] * q + q * q * inv_p) * inv_p)
    return terms


def _is_squarefree(n: int) -> bool:
    if n % 4 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % (d * d) == 0:
            return False
        d += 2
    return True


def is_fundamental_discriminant(d: int) -> bool:
    """d = 1 mod 4 squarefree, or d = 4m with m = 2,3 mod 4 squarefree; d != 1.
    False for anything but an integer (5.0 included), as dirichlet_direct refuses it."""
    if not isinstance(d, Integral) or d in (0, 1):
        return False
    if d % 4 == 1:
        return _is_squarefree(abs(d))
    if d % 4 == 0:
        m = d // 4
        return m % 4 in (2, 3) and _is_squarefree(abs(m))
    return False


@dataclass(frozen=True)
class TauTable:
    """Exact integer tau(1..N), the coefficients of Delta = q * (eta^3)^8."""

    N: int
    values: tuple[int, ...] = field(repr=False)

    def tau(self, n: int) -> int:
        if not (1 <= n <= self.N):
            raise RangeError(f"tau({n}) outside table range 1..{self.N}")
        return self.values[n - 1]


_TAU_MODULI = (2147483647, 2147483629, 2147483587)


@lru_cache(maxsize=8)
def tau_table(N: int) -> TauTable:
    """tau(1..N) from Delta = q * (eta^3)^8 in exact integers.

    By Jacobi's identity eta^3 = prod (1 - q^n)^3 is the sparse series
    sum_k (-1)^k (2k+1) q^(k(k+1)/2), with about sqrt(2N) terms below q^N,
    so the eighth power takes seven truncated multiplications, each a sum
    of shifted copies. They run in int64 modulo three primes below 2^31,
    reduced once per multiplication: with |2k+1| <= 401 and about 200
    terms every partial sum stays below 2^49. The values are rebuilt by
    the Chinese remainder theorem, which is exact because
    |tau(n)| <= d(n) n^(11/2) <= 2 n^6 < M/2 for the moduli product M.
    The budget "tau_N" keeps it so: at N = 20,000, 4 N^6 = 2.6e26, while
    M = 9.9e27 (the CRT range ends near N = 36,780).
    """
    if not (isinstance(N, Integral) and N >= 1):
        raise DomainError(f"tau table needs an integer N >= 1, got {N!r}")
    check_budget("tau_N", N)
    M = math.prod(_TAU_MODULI)
    terms = []
    k = 0
    while k * (k + 1) // 2 < N:
        terms.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    moduli = np.array(_TAU_MODULI, dtype=np.int64)[:, None]
    power = np.zeros((len(_TAU_MODULI), N), dtype=np.int64)
    for e, c in terms:
        power[:, e] = c
    for _ in range(7):
        acc = np.zeros_like(power)
        for e, c in terms:
            acc[:, e:] += c * power[:, : N - e]
        power = acc % moduli
    lift = sum(r.astype(object) * (M // m * pow(M // m, -1, m)) for r, m in zip(power, _TAU_MODULI))
    return TauTable(N=N, values=tuple(int(v) - M if v > M // 2 else int(v) for v in lift % M))


def make_zeta_power(m: int) -> LFunctionModel:
    """The m-th power of the Riemann zeta model: all local roots 1."""
    if not (isinstance(m, Integral) and m >= 1):
        raise DomainError(f"zeta power needs an integer m >= 1 (the pole drives everything), "
                          f"got {m!r}")
    check_budget("zeta_power", m)
    label = "zeta" if m == 1 else f"zeta^{m}"
    return LFunctionModel(
        label=label,
        degree=m,
        pole_order=m,
        residue=1.0,
        kind="zeta-power",
        coeff_cutoff=math.inf,
    )


def dirichlet_direct(d: int, t: float) -> complex:
    """L(1 + it, chi_d) for a fundamental discriminant d != 1 within the
    budget "abs_d" and |t| within "abs_t", to 1e-9 absolute: the character
    series of charsum, whose stated remainder and rounding bound is
    checked against that target.
    Its phase rounding grows with |t|, so the check refuses beyond about
    |t| = 8e4 for d = -4 and 5e4 for d = 5. The series' inputs hold by
    construction: s = 1 + it, and for a fundamental d != 1 chi_d is a
    non-principal character mod |d|, so character_table(d) sums to zero
    over its period."""
    check_budget("abs_d", abs(d), d=d)  # first: the squarefree test is trial division
    check_budget("abs_t", abs(t))
    if not is_fundamental_discriminant(d):
        raise DomainError(f"{d!r} is not a fundamental discriminant != 1")
    value, bound = periodic_lseries(character_table(d), complex(1.0, float(t)))
    if not bound <= 1e-9:
        raise NumericError(f"character series error bound {bound:.2e} exceeds 1e-9")
    return complex(value)


def dirichlet_L1(d: int) -> float:
    """L(1, chi_d), the residue of the quadratic-field zeta function."""
    return dirichlet_direct(d, 0.0).real


def make_dedekind_quadratic(d: int) -> LFunctionModel:
    """Degree-2 model of the zeta function of the quadratic field of
    discriminant d: local roots [1, chi_d(p)] (split / inert / ramified
    give [1,1] / [1,-1] / [1,0]); residue L(1, chi_d)."""
    residue = dirichlet_L1(d)
    return LFunctionModel(
        label=f"dedekind:{d}",
        degree=2,
        pole_order=1,
        residue=residue,
        kind="dedekind",
        coeff_cutoff=math.inf,
        discriminant=d,
        _chi=character_table(d),
    )


def _rs_lambda_sq(N: int) -> tuple[np.ndarray, np.ndarray]:
    """(primes <= N, lambda(p)^2) with lambda(p) = tau(p) p^(-11/2).

    Verifies tau(p)^2 <= 4 p^11 in exact integer arithmetic; a violation
    would put a root off the unit circle and signals a tau bug.
    """
    table = tau_table(N)
    primes = primes_upto(N)
    lam_sq = np.empty(len(primes))
    for i, p in enumerate(primes):
        p = int(p)
        t = table.tau(p)
        if t * t > 4 * p**11:
            raise NumericError(f"tau({p}) violates the two-sided root bound")
        lam_sq[i] = (t * t) / float(p**11)
    return primes, lam_sq


def sym2_residue(P: int) -> tuple[float, float]:
    """Residue of the degree-4 self-convolution model at s = 1, as the
    symmetric-square Euler product over p <= P.

    Local factor at p: [(1 - a^2/p)(1 - 1/p)(1 - b^2/p)]^(-1) with a, b
    the unit-circle roots attached to tau(p); the zeta factor of the full
    degree-4 product is removed, leaving the residue.

    Returns (value, tail_estimate). tail_estimate = P^(-1/2) is measured,
    not proven: the omitted factors' linear parts carry sign cancellation
    with no elementary bound, so it is set from the relative error against
    the Petersson-norm value L(1, sym^2 Delta) = 0.6317929457278829, which
    stays below 0.72 P^(-1/2) for every P in 2..20000 (0.39 P^(-1/2) from
    P = 50 on).
    """
    if not (isinstance(P, Integral) and P >= 2):
        raise DomainError(f"symmetric-square product needs an integer P >= 2, got {P!r}")
    primes, lam_sq = _rs_lambda_sq(P)
    pf = primes.astype(np.float64)
    # conjugate pair a^2, b^2 with Re = lam_sq/2 - 1, modulus 1
    c = 0.5 * lam_sq - 1.0
    log_terms = -np.log1p((-2.0 * c + 1.0 / pf) / pf) - np.log1p(-1.0 / pf)
    value = math.exp(float(np.sum(log_terms)))
    return value, 1.0 / math.sqrt(P)


@lru_cache(maxsize=8)
def make_rankin_selberg_delta(N: int) -> LFunctionModel:
    """Degree-4 model of the self-convolution of the weight-12 cusp form.

    For p <= N write lambda(p) = tau(p) p^(-11/2) and take unit-circle
    roots a + b = lambda, ab = 1; the local roots are [a^2, 1, 1, b^2].
    Only primes up to the table size N carry coefficients.
    """
    if not (isinstance(N, Integral) and N >= 2):
        raise DomainError(f"coefficient table needs an integer N >= 2, got {N!r}")
    primes, lam_sq = _rs_lambda_sq(N)
    residue, tail = sym2_residue(N)
    lam_sq.setflags(write=False)
    return LFunctionModel(
        label=f"rs-delta:{N}",
        degree=4,
        pole_order=1,
        residue=residue,
        kind="rankin-selberg",
        coeff_cutoff=float(N),
        residue_tail=tail,
        _rs_primes=primes,
        _rs_lam_sq=lam_sq,
    )


def power_sum(model: LFunctionModel, primes: np.ndarray, r: int | np.ndarray) -> np.ndarray:
    """P_r(p) = sum_j alpha_j(p)^r over a block of primes, r >= 1 an integer
    or an integer array broadcasting against the block: real roots to the
    r-th power, each unit-modulus pair e^(+-i theta) as 2 cos(r theta)."""
    if not (np.asarray(r).dtype.kind in "iu" and np.all(np.greater_equal(r, 1))):
        raise DomainError(f"power sums need integer orders r >= 1, got {r!r}")
    real, pair_re = model.root_blocks(primes)
    total = np.zeros(len(primes))
    for j in range(real.shape[1]):
        total += real[:, j] ** r
    for j in range(pair_re.shape[1]):
        total += 2.0 * np.cos(r * np.arccos(pair_re[:, j]))
    return total


def local_coefficients(model: LFunctionModel, p: int, vmax: int) -> np.ndarray:
    """Dirichlet coefficients a(p^v), v = 0..vmax, of the local factor.

    Newton's identity h_v = (1/v) sum_{r<=v} P_r h_{v-r} with the power
    sums P_r of power_sum; real for the self-dual root multisets shipped
    here.
    """
    power_sums = np.empty(vmax + 1)
    power_sums[1:] = power_sum(model, np.full(vmax, p), np.arange(1, vmax + 1))
    h = np.zeros(vmax + 1)
    h[0] = 1.0
    for v in range(1, vmax + 1):
        h[v] = np.dot(power_sums[1 : v + 1], h[v - 1 :: -1]) / v
    return h


_SELECTORS = (
    ("zeta^", "zeta power", make_zeta_power),
    ("dedekind:", "discriminant", make_dedekind_quadratic),
    ("rs-delta:", "coefficient cutoff", make_rankin_selberg_delta),
)


def parse_model(selector: str) -> LFunctionModel:
    """Model grammar used by the CLI: zeta | zeta^<m> | dedekind:<d> | rs-delta:<N>."""
    if selector == "zeta":
        return make_zeta_power(1)
    for prefix, noun, make in _SELECTORS:
        if selector.startswith(prefix):
            try:
                arg = int(selector[len(prefix) :])
            except ValueError:
                raise DomainError(f"bad {noun} in model selector {selector!r}") from None
            return make(arg)
    raise DomainError(
        f"unknown model selector {selector!r}; "
        "expected zeta, zeta^<m>, dedekind:<d> or rs-delta:<N>"
    )
