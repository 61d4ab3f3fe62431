import math
from fractions import Fraction

import numpy as np
import pytest

from olx.errors import BUDGETS, DomainError, RangeError, ResourceError
from olx.lfamily import (
    EULER_GAMMA,
    _TAU_MODULI,
    dirichlet_L1,
    dirichlet_direct,
    is_fundamental_discriminant,
    local_coefficients,
    make_dedekind_quadratic,
    make_rankin_selberg_delta,
    make_zeta_power,
    parse_model,
    power_sum,
    sym2_residue,
    tau_table,
)
from olx.primes import character_table, kronecker, sieve_primes

SYM2_AT_1E4 = 0.63262221105274552  # regression pin from the first oracle run
# L(1, sym^2 Delta) = <Delta, Delta> 2^23 pi^13 / 11! with the published
# Petersson norm <Delta, Delta> = 1.035362056804320922347e-6
SYM2_PETERSSON = 0.6317929457278829


def roots_at(model, p):
    """The full multiset of complex inverse roots at p, rebuilt from the
    vectorized root_blocks: real roots, then each pair c +- i sqrt(1 - c^2)."""
    real, pair_re = model.root_blocks(np.array([p]))
    roots = [complex(a) for a in real[0]]
    for c in pair_re[0]:
        im = math.sqrt(max(0.0, 1.0 - c * c))
        roots += [complex(c, im), complex(c, -im)]
    return tuple(roots)


def scalar_power_sum(model, p, r):
    """The former scalar path, kept as power_sum's oracle: for rs-delta the
    roots a^2, 1, 1, conj(a)^2 with a = lam/2 + i sqrt(1 - lam^2/4), and
    sum_j alpha_j^r by complex powers."""
    idx = int(np.searchsorted(model._rs_primes, p))
    lam_sq = float(model._rs_lam_sq[idx])
    lam = math.sqrt(lam_sq)
    re = 0.5 * lam_sq - 1.0
    im = lam * math.sqrt(max(0.0, 1.0 - 0.25 * lam_sq))
    roots = (complex(re, im), complex(1.0), complex(1.0), complex(re, -im))
    return sum(z**r for z in roots).real


def class_number_L1(d):
    """L(1, chi_d) in closed form (Davenport, Multiplicative Number Theory,
    ch. 1 and 6): -pi |d|^(-3/2) sum_{a<|d|} chi(a) a for d < 0, and
    -d^(-1/2) sum_{a<d} chi(a) log sin(pi a/d) for d > 0."""
    chi = character_table(d).astype(np.float64)
    q = abs(d)
    a = np.arange(1, q, dtype=np.float64)
    if d < 0:
        return -math.pi * q**-1.5 * math.fsum(chi[1:] * a)
    return -(q**-0.5) * math.fsum(chi[1:] * np.log(np.sin(np.pi * a / q)))


def tau_oracle(N):
    """tau(1..N) by direct repeated multiplication with each (1 - q^n),
    24 times over, in exact integers. Independent of the packed multiply."""
    coeffs = [0] * N
    coeffs[0] = 1
    for n in range(1, N):
        for _ in range(24):
            for k in range(N - 1, n - 1, -1):
                coeffs[k] -= coeffs[k - n]
    return [0] + coeffs  # 1-based: tau(n) = coeffs[n-1]


class TestEulerGamma:
    def test_constant(self):
        # 50-digit reference value, truncated to binary64
        assert abs(EULER_GAMMA - 0.57721566490153286060651209) < 1e-16


class TestTau:
    def test_against_direct_expansion(self):
        want = tau_oracle(60)
        table = tau_table(60)
        assert [table.tau(n) for n in range(1, 61)] == want[1:]

    def test_known_values(self):
        t = tau_table(12)
        assert t.tau(1) == 1
        assert t.tau(2) == -24
        assert t.tau(3) == 252
        assert t.tau(4) == -1472
        assert t.tau(5) == 4830
        assert t.tau(6) == -6048
        assert t.tau(6) == t.tau(2) * t.tau(3)

    def test_multiplicativity(self):
        table = tau_table(2000)
        vals = [0] + [table.tau(n) for n in range(1, 2001)]
        for m in range(2, 50):
            for n in range(2, 2000 // m + 1):
                if math.gcd(m, n) == 1:
                    assert vals[m * n] == vals[m] * vals[n]

    def test_two_sided_prime_bound(self):
        table = tau_table(2000)
        for p in sieve_primes(2000):
            p = int(p)
            assert table.tau(p) ** 2 <= 4 * p**11

    def test_budget(self):
        with pytest.raises(ResourceError):
            tau_table(20_001)

    def test_budget_keeps_the_crt_exact(self):
        # |tau(n)| <= 2 n^6 < M/2 up to the budget, so tau_table needs no range check
        assert 4 * BUDGETS["tau_N"].limit ** 6 < math.prod(_TAU_MODULI)

    def test_range(self):
        with pytest.raises(RangeError):
            tau_table(10).tau(11)


class TestZetaPower:
    def test_zeta_roots(self, zeta):
        assert roots_at(zeta, 7) == (1 + 0j,)

    def test_gamma_f(self, zeta2):
        assert abs(zeta2.gamma_f - 2 * EULER_GAMMA) < 1e-15
        assert abs(zeta2.gamma_f - 1.1544313) < 1e-6

    def test_cube_roots(self, zeta3):
        assert roots_at(zeta3, 2) == (1 + 0j, 1 + 0j, 1 + 0j)

    def test_pole_required(self):
        with pytest.raises(DomainError):
            make_zeta_power(0)


class TestFundamentalDiscriminants:
    def test_accepted(self):
        for d in (-3, -4, 5, 8, -8, -7, 12, 13, -20, 21):
            assert is_fundamental_discriminant(d), d

    def test_rejected(self):
        for d in (0, 1, -1, 2, 3, 4, -4 * 3**2, 9, -9, 25, -12, 18):
            assert not is_fundamental_discriminant(d), d

    def test_non_integers_rejected_as_dirichlet_direct_refuses_them(self):
        for d in (5.0, -4.0, np.float64(-3.0), 5.5):
            assert not is_fundamental_discriminant(d), d
            with pytest.raises(DomainError):
                dirichlet_direct(d, 1.0)
        assert is_fundamental_discriminant(np.int64(5))


class TestDedekind:
    def test_split_inert_ramified(self, gauss):
        assert roots_at(gauss, 5) == (1 + 0j, 1 + 0j)
        assert roots_at(gauss, 3) == (1 + 0j, -1 + 0j)
        assert roots_at(gauss, 2) == (1 + 0j, 0j)

    def test_non_fundamental_rejected(self):
        for d in (1, 9, -12, 100):
            with pytest.raises(DomainError):
                make_dedekind_quadratic(d)

    def test_factorization_identity(self):
        # local polynomial prod_j (1 - alpha_j x) = (1 - x)(1 - chi(p) x)
        for d in (-4, -3, 5, 8):
            model = make_dedekind_quadratic(d)
            for p in sieve_primes(1000):
                p = int(p)
                r1, r2 = roots_at(model, p)
                chi = kronecker(d, p)
                assert abs((r1 + r2) - (1 + chi)) < 1e-14
                assert abs(r1 * r2 - chi) < 1e-14


class TestDirichletL1:
    def test_gauss_field(self):
        assert abs(dirichlet_L1(-4) - math.pi / 4) < 1e-9

    def test_eisenstein_field(self):
        assert abs(dirichlet_L1(-3) - math.pi / (3 * math.sqrt(3))) < 1e-9

    def test_golden_field(self):
        phi = (1 + math.sqrt(5)) / 2
        assert abs(dirichlet_L1(5) - 2 * math.log(phi) / math.sqrt(5)) < 1e-9

    def test_non_fundamental(self):
        with pytest.raises(DomainError):
            dirichlet_L1(12**2)

    def test_class_number_formula_sweep(self):
        # every fundamental discriminant with |d| <= 1000
        ds = [d for d in range(-1000, 1001) if is_fundamental_discriminant(d)]
        assert len(ds) == 607
        for d in ds:
            assert abs(dirichlet_L1(d) - class_number_L1(d)) <= 1e-12, d

    def test_largest_discriminant(self):
        # h(-999995) = 480 and w = 2, so L(1, chi) = pi h / sqrt(|d|)
        assert abs(dirichlet_L1(-999995) - math.pi * 480 / math.sqrt(999995)) <= 1e-9


class TestRankinSelberg:
    def test_root_sum_is_lambda_squared(self, rs_small):
        table = tau_table(2000)
        primes = sieve_primes(2000)
        real, pair_re = rs_small.root_blocks(primes)
        assert real.shape[1] + 2 * pair_re.shape[1] == rs_small.degree
        for p, p1 in zip(primes, power_sum(rs_small, primes, 1)):
            p = int(p)
            exact = Fraction(table.tau(p) ** 2, p**11)
            assert abs(p1 - float(exact)) < 1e-10

    def test_root_product_unitary(self, rs_small):
        for p in (2, 3, 11, 97):
            prod = 1 + 0j
            for r in roots_at(rs_small, p):
                prod *= r
            assert abs(prod - 1) < 1e-12

    def test_closed_under_conjugation(self, rs_small):
        for p in (2, 5, 13):
            roots = roots_at(rs_small, p)
            conj = tuple(sorted((z.conjugate() for z in roots), key=lambda z: (z.real, z.imag)))
            orig = tuple(sorted(roots, key=lambda z: (z.real, z.imag)))
            assert all(abs(a - b) < 1e-14 for a, b in zip(conj, orig))

    def test_roots_on_unit_disc(self, rs_small):
        real, pair_re = rs_small.root_blocks(sieve_primes(2000))
        assert np.all(np.abs(real) <= 1 + 1e-12)
        assert np.all(np.abs(pair_re) <= 1 + 1e-12)  # the pair's real part c = cos theta

    def test_coefficient_cutoff(self, rs_small):
        with pytest.raises(RangeError):
            rs_small.root_blocks(np.array([2003]))

    def test_power_sums_match_complex_roots(self, rs_small):
        primes = sieve_primes(2000)
        for r in range(1, 41):
            got = power_sum(rs_small, primes, r)
            want = [scalar_power_sum(rs_small, int(p), r) for p in primes]
            assert np.max(np.abs(got - want)) < 1e-12, r

    def test_budget(self):
        with pytest.raises(ResourceError):
            make_rankin_selberg_delta(30_000)


class TestSym2Residue:
    def test_sanity_band(self):
        value, _ = sym2_residue(100)
        assert 0.5 <= value <= 2.0

    def test_regression_pin(self):
        value, _ = sym2_residue(10**4)
        assert abs(value / SYM2_AT_1E4 - 1) < 1e-9

    def test_cauchy_stability(self):
        v1, _ = sym2_residue(10**4)
        v2, _ = sym2_residue(5000)
        assert abs(v1 - v2) <= 0.01

    def test_tail_estimate_decreasing(self):
        tails = [sym2_residue(P)[1] for P in (100, 1000, 10**4)]
        assert tails[0] > tails[1] > tails[2]

    def test_tail_estimate_covers_petersson_value(self):
        assert SYM2_PETERSSON == pytest.approx(
            1.035362056804320922347e-6 * 2**23 * math.pi**13 / math.factorial(11), rel=1e-15)
        for P in [*range(50, 1001, 50), *range(1250, 20001, 250)]:
            value, tail = sym2_residue(P)
            assert abs(value / SYM2_PETERSSON - 1) <= tail, P

    def test_small_p_rejected(self):
        with pytest.raises(DomainError):
            sym2_residue(1)

    def test_mean_square_slope(self):
        # independent route: partial sums of lambda(n)^2 grow like
        # x * residue / zeta(2)
        N = 20_000
        table = tau_table(N)
        lam = np.array([table.tau(n) for n in range(1, N + 1)], dtype=float)
        lam /= np.arange(1, N + 1, dtype=float) ** 5.5
        slope = float(np.sum(lam**2)) / N
        value, _ = sym2_residue(10**4)
        assert abs(slope / (value / (math.pi**2 / 6)) - 1) < 0.01


class TestModelInvariants:
    def test_gamma_f_consistency(self, zeta, zeta2, gauss, rs_small):
        for model in (zeta, zeta2, gauss, rs_small):
            recomputed = model.pole_order * EULER_GAMMA + math.log(model.residue)
            assert abs(recomputed - model.gamma_f) < 1e-12

    def test_local_coefficients_nonnegative(self, zeta, zeta2, gauss, rs_small):
        # power-series coefficients of the local factors stay >= 0,
        # out to prime powers p^v <= 1e4
        for model in (zeta, zeta2, gauss, rs_small):
            for p in sieve_primes(1000):
                vmax = max(6, int(math.log(1e4) / math.log(int(p))))
                coeffs = local_coefficients(model, int(p), vmax)
                assert np.all(coeffs >= -1e-10), (model.label, p)

    def test_dirichlet_coefficients_at_prime_powers(self, gauss):
        # a(p^v) counts points: split 1+v, inert v even, ramified 1
        for p, chi in ((5, 1), (3, -1), (2, 0)):
            coeffs = local_coefficients(gauss, p, 5)
            for v in range(6):
                if chi == 1:
                    want = v + 1
                elif chi == -1:
                    want = 1 - (v % 2)
                else:
                    want = 1
                assert abs(coeffs[v] - want) < 1e-12

    def test_root_bound_holds_as_the_kernels_assume(self):
        # the kernels take |alpha_j(p)| <= 1 unchecked (LFunctionModel): the
        # pair's real part lies in [-1, 1] with no rounding slack at all
        primes = sieve_primes(20000)
        _, pair_re = parse_model("rs-delta:20000").root_blocks(primes)
        assert pair_re.shape == (len(primes), 1)
        assert np.all((pair_re >= -1.0) & (pair_re <= 1.0))
        for d in (-4, 5):
            model = parse_model(f"dedekind:{d}")
            assert set(model._chi.tolist()) <= {-1, 0, 1}
            assert set(model.root_blocks(primes)[0][:, 1].tolist()) <= {-1.0, 0.0, 1.0}


class TestLocalRootsOp:
    def test_zeta_large_prime(self, zeta):
        assert roots_at(zeta, 10007) == (1 + 0j,)

    def test_dedekind_split(self, root5):
        assert roots_at(root5, 11) == (1 + 0j, 1 + 0j)


class TestParseModel:
    def test_grammar(self):
        assert parse_model("zeta").label == "zeta"
        assert parse_model("zeta^3").pole_order == 3
        assert parse_model("dedekind:-4").discriminant == -4
        assert parse_model("rs-delta:500").coeff_cutoff == 500

    def test_rejects(self):
        unknown = "; expected zeta, zeta^<m>, dedekind:<d> or rs-delta:<N>"
        for text, message in (
            ("zeta^x", "bad zeta power in model selector 'zeta^x'"),
            ("dedekind:abc", "bad discriminant in model selector 'dedekind:abc'"),
            ("rs-delta:", "bad coefficient cutoff in model selector 'rs-delta:'"),
            ("xi", "unknown model selector 'xi'" + unknown),
            ("zeta2", "unknown model selector 'zeta2'" + unknown),
        ):
            with pytest.raises(DomainError) as err:
                parse_model(text)
            assert str(err.value) == message
