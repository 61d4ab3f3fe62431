"""Concrete Euler-product models: zeta powers, quadratic-field zeta
functions, and the degree-4 self-convolution of the discriminant cusp form.

Every model factorizes completely: at each prime p it carries exactly
`degree` inverse roots alpha_j(p) with |alpha_j| <= 1, and has a pole of
order m >= 1 at s = 1 with residue c = lim (s-1)^m F(s). The derived
constant gamma_f = m*gamma + log(c) scales all large-value predictions.

Residues are computed numerically here (character series, symmetric-square
Euler product); closed forms appear only in the tests as oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .charsum import periodic_lseries
from .errors import DomainError, NumericError, RangeError, ResourceError
from .primes import character_table, sieve_primes

TAU_N_MAX = 20_000

EULER_GAMMA = 0.57721566490153286


@dataclass(frozen=True)
class LocalRoots:
    """The inverse roots of one local Euler factor, padded to full degree.

    A root equal to 0 encodes a trivial factor (e.g. the missing second
    root at a ramified prime of a quadratic field), keeping every prime
    at exactly `degree` entries.
    """

    roots: tuple[complex, ...]

    def __post_init__(self) -> None:
        for r in self.roots:
            if abs(r) > 1.0 + 1e-12:
                raise NumericError(f"local root {r} lies outside the unit disc")

    def __len__(self) -> int:
        return len(self.roots)


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
    """

    label: str
    degree: int
    pole_order: int
    residue: float
    gamma_f: float
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
        expected = self.pole_order * EULER_GAMMA + math.log(self.residue)
        if abs(expected - self.gamma_f) > 1e-12:
            raise NumericError("gamma_f is inconsistent with (pole_order, residue)")

    def roots_at(self, p: int) -> LocalRoots:
        return local_roots(self, p)

    def check_cutoff(self, x: float) -> None:
        """Raise RangeError if primes up to x reach past the coefficient table."""
        if x > self.coeff_cutoff:
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
    block of primes; q is a scalar or one weight per prime (q = 1 is the
    local factor at s = 1, the resonator weights q_p give the resonance
    product)."""
    real, pair_re = model.root_blocks(primes)
    inv_p = 1.0 / primes.astype(np.float64)
    terms = np.zeros(len(primes))
    for j in range(real.shape[1]):
        t = -np.log1p(-real[:, j] * q * inv_p)
        if not np.all(np.isfinite(t)):
            raise NumericError("degenerate local factor at s = 1")
        terms += t
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
    """d = 1 mod 4 squarefree, or d = 4m with m = 2,3 mod 4 squarefree; d != 1."""
    if d in (0, 1):
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


@lru_cache(maxsize=8)
def tau_table(N: int) -> TauTable:
    """tau(1..N) from Delta = q * (eta^3)^8 in exact integers.

    By Jacobi's identity eta^3 = prod (1 - q^n)^3 is the sparse series
    sum_k (-1)^k (2k+1) q^(k(k+1)/2), with about sqrt(2N) terms below q^N,
    so the eighth power takes seven truncated multiplications, each a sum
    of shifted copies of an integer (object) array.
    """
    if N < 1:
        raise DomainError("tau table needs N >= 1")
    if N > TAU_N_MAX:
        raise ResourceError(f"tau table budget is N <= {TAU_N_MAX}, got {N}")
    terms = []
    k = 0
    while k * (k + 1) // 2 < N:
        terms.append((k * (k + 1) // 2, (-1) ** k * (2 * k + 1)))
        k += 1
    power = np.zeros(N, dtype=object)
    for e, c in terms:
        power[e] = c
    for _ in range(7):
        acc = np.zeros(N, dtype=object)
        for e, c in terms:
            acc[e:] += c * power[: N - e]
        power = acc
    return TauTable(N=N, values=tuple(power.tolist()))


def make_zeta_power(m: int) -> LFunctionModel:
    """The m-th power of the Riemann zeta model: all local roots 1."""
    if m < 1:
        raise DomainError("zeta power needs m >= 1 (the pole drives everything)")
    label = "zeta" if m == 1 else f"zeta^{m}"
    return LFunctionModel(
        label=label,
        degree=m,
        pole_order=m,
        residue=1.0,
        gamma_f=m * EULER_GAMMA,
        kind="zeta-power",
        coeff_cutoff=math.inf,
    )


def dirichlet_L1(d: int) -> float:
    """L(1, chi_d) for a fundamental discriminant d != 1, to 1e-9 absolute.

    Character series summed by iterated Abel summation against the bounded
    periodic partial sums of chi_d; the scheme's rigorous tail bound is
    checked against the accuracy target.
    """
    if not is_fundamental_discriminant(d):
        raise DomainError(f"{d} is not a fundamental discriminant != 1")
    if abs(d) > 1_000_000:
        raise DomainError(f"|d| <= 1e6 required, got {d}")
    value, bound = periodic_lseries(character_table(d), complex(1.0, 0.0))
    if bound > 1e-9:
        raise NumericError(f"character series tail bound {bound:.2e} exceeds 1e-9")
    return float(value.real)


def make_dedekind_quadratic(d: int) -> LFunctionModel:
    """Degree-2 model of the zeta function of the quadratic field of
    discriminant d: local roots [1, chi_d(p)] (split / inert / ramified
    give [1,1] / [1,-1] / [1,0]); residue L(1, chi_d)."""
    if not is_fundamental_discriminant(d):
        raise DomainError(f"{d} is not a fundamental discriminant != 1")
    if abs(d) > 1_000_000:
        raise DomainError(f"|d| <= 1e6 required, got {d}")
    residue = dirichlet_L1(d)
    return LFunctionModel(
        label=f"dedekind:{d}",
        degree=2,
        pole_order=1,
        residue=residue,
        gamma_f=EULER_GAMMA + math.log(residue),
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
    primes = sieve_primes(N).primes
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

    Returns (value, tail_estimate). tail_estimate sums the quadratic-decay
    majorant 3/((n-1)n) of the local log factors over all integers n > P;
    the linear parts of the omitted factors carry sign cancellation that
    has no elementary bound, so the estimate sets a reporting scale rather
    than a guarantee.
    """
    if P < 2:
        raise DomainError("symmetric-square product needs P >= 2")
    primes, lam_sq = _rs_lambda_sq(P)
    pf = primes.astype(np.float64)
    # conjugate pair a^2, b^2 with Re = lam_sq/2 - 1, modulus 1
    c = 0.5 * lam_sq - 1.0
    log_terms = -np.log1p((-2.0 * c + 1.0 / pf) / pf) - np.log1p(-1.0 / pf)
    value = math.exp(float(np.sum(log_terms)))
    return value, 3.0 / P


@lru_cache(maxsize=8)
def make_rankin_selberg_delta(N: int) -> LFunctionModel:
    """Degree-4 model of the self-convolution of the weight-12 cusp form.

    For p <= N write lambda(p) = tau(p) p^(-11/2) and take unit-circle
    roots a + b = lambda, ab = 1; the local roots are [a^2, 1, 1, b^2].
    Only primes up to the table size N carry coefficients.
    """
    if N < 2:
        raise DomainError("coefficient table needs N >= 2")
    if N > TAU_N_MAX:
        raise ResourceError(f"coefficient budget is N <= {TAU_N_MAX}, got {N}")
    primes, lam_sq = _rs_lambda_sq(N)
    residue, tail = sym2_residue(N)
    lam_sq.setflags(write=False)
    return LFunctionModel(
        label=f"rs-delta:{N}",
        degree=4,
        pole_order=1,
        residue=residue,
        gamma_f=EULER_GAMMA + math.log(residue),
        kind="rankin-selberg",
        coeff_cutoff=float(N),
        residue_tail=tail,
        _rs_primes=primes,
        _rs_lam_sq=lam_sq,
    )


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1 if d == 2 else 2
    return True


def local_roots(model: LFunctionModel, p: int) -> LocalRoots:
    """The full multiset of inverse roots of model's local factor at p."""
    if not _is_prime(p):
        raise DomainError(f"{p} is not prime")
    model.check_cutoff(p)
    if model.kind == "zeta-power":
        return LocalRoots(roots=(complex(1.0),) * model.pole_order)
    if model.kind == "dedekind":
        chi = float(model._chi[p % len(model._chi)])
        return LocalRoots(roots=(complex(1.0), complex(chi)))
    idx = int(np.searchsorted(model._rs_primes, p))
    lam_sq = float(model._rs_lam_sq[idx])
    lam = math.sqrt(lam_sq)
    # a = lam/2 + i sqrt(1 - lam^2/4); a^2 kept in exact-pair form
    re = 0.5 * lam_sq - 1.0
    im = lam * math.sqrt(max(0.0, 1.0 - 0.25 * lam_sq))
    return LocalRoots(
        roots=(complex(re, im), complex(1.0), complex(1.0), complex(re, -im))
    )


def local_coefficients(model: LFunctionModel, p: int, vmax: int) -> np.ndarray:
    """Dirichlet coefficients a(p^v), v = 0..vmax, of the local factor.

    Newton's identity h_v = (1/v) sum_{r<=v} P_r h_{v-r} with power sums
    P_r = sum_j alpha_j^r; real for the self-dual root multisets shipped
    here.
    """
    roots = local_roots(model, p).roots
    power_sums = np.empty(vmax + 1)
    for r in range(1, vmax + 1):
        s = sum(z**r for z in roots)
        power_sums[r] = s.real
    h = np.zeros(vmax + 1)
    h[0] = 1.0
    for v in range(1, vmax + 1):
        h[v] = np.dot(power_sums[1 : v + 1], h[v - 1 :: -1]) / v
    return h


def parse_model(selector: str) -> LFunctionModel:
    """Model grammar used by the CLI: zeta | zeta^<m> | dedekind:<d> | rs-delta:<N>."""
    if selector == "zeta":
        return make_zeta_power(1)
    if selector.startswith("zeta^"):
        try:
            m = int(selector[5:])
        except ValueError:
            raise DomainError(f"bad zeta power in model selector {selector!r}") from None
        return make_zeta_power(m)
    if selector.startswith("dedekind:"):
        try:
            d = int(selector[9:])
        except ValueError:
            raise DomainError(f"bad discriminant in model selector {selector!r}") from None
        return make_dedekind_quadratic(d)
    if selector.startswith("rs-delta:"):
        try:
            n = int(selector[9:])
        except ValueError:
            raise DomainError(
                f"bad coefficient cutoff in model selector {selector!r}"
            ) from None
        return make_rankin_selberg_delta(n)
    raise DomainError(
        f"unknown model selector {selector!r}; "
        "expected zeta, zeta^<m>, dedekind:<d> or rs-delta:<N>"
    )
