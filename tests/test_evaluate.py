import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from olx.charsum import EM_BERNOULLI, periodic_lseries
from olx.errors import (
    BUDGETS,
    DomainError,
    NumericError,
    RangeError,
    ResourceError,
    UnsupportedModelError,
)
from olx.evaluate import (
    _eta_terms,
    _eta_weights,
    _log_terms_on_line,
    calibrate_truncation,
    dirichlet_direct,
    direct_value,
    euler_product_on_line,
    log_expansion,
    sample_uniform,
    zeta_em,
    zeta_eta,
)
from olx.lfamily import make_rankin_selberg_delta, make_zeta_power, parse_model
from olx.mertens import truncated_product_at_1
from olx.primes import character_table, primes_upto
from olx.resonator import (
    moment_quadrature,
    moment_series,
    resonance_products_at_cutoff,
)
from olx.scan import grid_scan, refine_peak

T_MAX = BUDGETS["abs_t"].limit
# zeta(1+i), frozen from both in-package oracles (they agree to 4e-16) and
# cross-checked against an independent multiprecision evaluation
ZETA_1_PLUS_I = complex(0.5821580597520036, -0.9268485643308071)
# zeta(1/2), same cross-check
ZETA_HALF = -1.4603545088095868


class TestZetaEulerMaclaurin:
    def test_basel(self):
        assert abs(zeta_em(2.0) - math.pi**2 / 6) < 1e-12

    def test_fourth_power(self):
        assert abs(zeta_em(4.0) - math.pi**4 / 90) < 1e-12

    def test_one_plus_i(self):
        assert abs(zeta_em(1 + 1j) - ZETA_1_PLUS_I) < 1e-10

    def test_pole(self):
        with pytest.raises(DomainError):
            zeta_em(1.0)

    def test_imaginary_budget(self):
        with pytest.raises(ResourceError):
            zeta_em(1 + 2e8j)

    def test_high_on_the_line(self):
        # multi-chunk head sum; frozen from an independent multiprecision
        # evaluation
        ref = complex(0.689453966869952, 0.735776210513220)
        assert abs(zeta_em(1 + 600000j) - ref) < 1e-10


class TestZetaAlternating:
    def test_one_plus_i(self):
        assert abs(zeta_eta(1 + 1j) - ZETA_1_PLUS_I) < 1e-10

    def test_half(self):
        v = zeta_eta(0.5)
        assert abs(v.imag) < 1e-12
        assert abs(v.real - ZETA_HALF) < 1e-10

    def test_conjugate_symmetry(self):
        s = 1 + 3j
        assert abs(zeta_eta(s.conjugate()) - zeta_eta(s).conjugate()) < 1e-12

    def test_pole(self):
        with pytest.raises(DomainError):
            zeta_eta(1.0)

    def test_left_halfplane_rejected(self):
        with pytest.raises(DomainError):
            zeta_eta(-0.5 + 1j)

    def test_recurrence_matches_the_binomial_formula(self):
        for n in range(1, 301):
            # d_k = n sum_(i<=k) (n+i-1)! 4^i / ((n-i)! (2i)!), term i written
            # n C(n+i, 2i) 4^i / (n+i)
            d = list(itertools.accumulate(
                n * math.comb(n + i, 2 * i) * 4**i // (n + i) for i in range(n + 1)))
            assert list(itertools.accumulate(_eta_terms(n))) == d, n
            want = [(d[n] - d[k]) / d[n] * (-1) ** k for k in range(n)]
            weights = _eta_weights(n)
            assert weights.tolist() == want, n
            assert not weights.flags.writeable

    @pytest.mark.parametrize("t", [500.0, 1e3, 1e4, 3e4])
    def test_agrees_with_euler_maclaurin_up_the_line(self, t):
        s = complex(1.0, t)
        assert abs(zeta_eta(s) - zeta_em(s)) <= 1e-10

    @pytest.mark.parametrize("k", [1, 40, 1000])
    def test_refused_at_the_zeros_of_one_minus_two_to_one_minus_s(self, k):
        with pytest.raises(NumericError):
            zeta_eta(complex(1.0, 2.0 * math.pi * k / math.log(2.0)))

    def test_term_budget_refuses_before_building_weights(self):
        start = time.perf_counter()
        with pytest.raises(ResourceError, match="alternating series needs"):
            zeta_eta(complex(1.0, 1e5))
        assert time.perf_counter() - start < 0.1


class TestCrossOracle:
    def test_twenty_point_grid(self):
        for i in range(20):
            t = 1.0 + i * (99.0 / 19.0)
            a = zeta_em(complex(1.0, t))
            b = zeta_eta(complex(1.0, t))
            assert abs(a - b) <= 1e-10 * (1 + abs(a)), t


class TestMpmathOracle:
    """A third oracle, independent of both in-package paths; test-only."""

    @pytest.mark.parametrize("t", [500.0, 1e3, 1e4, 3e4])
    def test_alternating_series_on_the_line(self, t):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mpmath.zeta(mpmath.mpc(1, t)))
        assert abs(zeta_eta(complex(1.0, t)) - ref) <= 1e-10

    def test_zeta_on_the_line(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20)
        with mpmath.workdps(25):
            for t in rng.uniform(1.0, 1e4, 20):
                ref = complex(mpmath.zeta(mpmath.mpc(1, t)))
                assert abs(zeta_em(complex(1.0, t)) - ref) <= 1e-10, t

    @pytest.mark.parametrize("d", [-4, 5])
    def test_dirichlet_on_the_line(self, d):
        mpmath = pytest.importorskip("mpmath")
        chi = [int(c) for c in character_table(d)]
        rng = np.random.default_rng(abs(d))
        with mpmath.workdps(25):
            for t in rng.uniform(1.0, 1e4, 5):
                ref = complex(mpmath.dirichlet(mpmath.mpc(1, t), chi))
                assert abs(dirichlet_direct(d, t) - ref) <= 1e-9, t

    # d = -739 stops at 31.5: its 30-digit reference takes 39 s at t = 1234.5
    @pytest.mark.parametrize("d, ts", [
        (-4, (7.0, 31.5, 1234.5, 9999.0)),
        (5, (7.0, 31.5, 1234.5, 9999.0)),
        (-739, (7.0, 31.5)),
    ], ids=["-4", "5", "-739"])
    def test_character_series_bound_off_the_axis(self, d, ts):
        # the stated bound, phase rounding included, covers the actual error
        mpmath = pytest.importorskip("mpmath")
        chi = character_table(d)
        with mpmath.workdps(30):
            for t in ts:
                ref = complex(mpmath.dirichlet(mpmath.mpc(1, t), [int(c) for c in chi]))
                value, bound = periodic_lseries(chi, complex(1.0, t))
                assert abs(value - ref) <= bound, t


class TestDirichletDirect:
    def test_gauss_at_zero(self):
        assert abs(dirichlet_direct(-4, 0.0) - math.pi / 4) < 1e-9

    def test_golden_at_zero(self):
        assert abs(dirichlet_direct(5, 0.0) - 0.4304089) < 1e-6

    def test_conjugate_symmetry(self):
        assert abs(dirichlet_direct(-4, -7.0) - dirichlet_direct(-4, 7.0).conjugate()) < 1e-12

    def test_pinned_values_off_the_real_axis(self):
        # frozen from an independent multiprecision evaluation
        assert abs(
            dirichlet_direct(-4, 7.0) - complex(0.8764622630030155, 0.5777457090349396)
        ) < 1e-9
        assert abs(
            dirichlet_direct(5, 31.5) - complex(2.8409976547749508, -0.0062861239050865)
        ) < 1e-9

    def test_non_fundamental(self):
        with pytest.raises(DomainError):
            dirichlet_direct(9, 1.0)


class TestEulerProductOnLine:
    def test_matches_real_product_at_t0(self, zeta):
        v = euler_product_on_line(zeta, 0.0, 10.0)
        assert abs(v.imag) < 1e-14
        assert abs(v.real / truncated_product_at_1(zeta, 10.0) - 1) < 1e-12

    def test_conjugate_symmetry(self, zeta):
        for t in (1.0, 10.0):
            a = euler_product_on_line(zeta, -t, 1000.0)
            b = euler_product_on_line(zeta, t, 1000.0)
            assert abs(a - b.conjugate()) < 1e-12 * abs(b)

    def test_dedekind_factorizes(self, zeta, gauss):
        from olx.primes import kronecker, sieve_primes

        t, Y = 5.0, 1000.0
        char = complex(1.0)
        for p in sieve_primes(int(Y)):
            p = int(p)
            chi = kronecker(-4, p)
            w = complex(p) ** complex(-1.0, -t)
            char /= 1.0 - chi * w
        lhs = euler_product_on_line(gauss, t, Y)
        rhs = euler_product_on_line(zeta, t, Y) * char
        assert abs(lhs / rhs - 1) < 1e-12

    def test_magnitude_below_full_product(self, zeta):
        cap = truncated_product_at_1(zeta, 1000.0)
        for t in (0.5, 3.0, 42.0, 171.76):
            assert abs(euler_product_on_line(zeta, t, 1000.0)) <= cap + 1e-9

    def test_rankin_selberg_cutoff(self, rs_small):
        from olx.errors import RangeError

        with pytest.raises(RangeError):
            euler_product_on_line(rs_small, 1.0, 5000.0)


@pytest.mark.parametrize("call", [
    lambda m, x: truncated_product_at_1(m, x),
    lambda m, x: euler_product_on_line(m, 1.0, x),
    lambda m, x: log_expansion(m, x),
    lambda m, x: resonance_products_at_cutoff(m, x),
    lambda m, x: moment_series(m, x, 5000.0, 100),  # X <= X_MOMENTS_MAX
    lambda m, x: moment_quadrature(m, x, 5000.0, 0.05),
], ids=["truncated_product_at_1", "euler_product_on_line", "log_expansion",
        "resonance_products_at_cutoff", "moment_series", "moment_quadrature"])
def test_cutoff_guard_at_every_entry_point(call):
    model = make_rankin_selberg_delta(20)
    with pytest.raises(RangeError, match=r"cutoff 30\.0 beyond coefficient cutoff 20\.0"):
        call(model, 30.0)


@pytest.mark.parametrize("call", [
    lambda m, t: euler_product_on_line(m, t, 100.0),
    lambda m, t: calibrate_truncation(m, (t / 2, t), 100.0, 1, 1),
    lambda m, t: refine_peak(m, t, 100.0, 1e-6, 0.05),
    lambda m, t: grid_scan(m, -t, t / 2, t / 4, 100.0, 1),
], ids=["euler_product_on_line", "calibrate_truncation", "refine_peak", "grid_scan"])
def test_phase_budget_at_every_t_entry_point(call, zeta):
    # past T_MAX no digit of the phases t log p is trustworthy
    with pytest.raises(ResourceError, match="phase precision budget"):
        call(zeta, 1e300)
    with pytest.raises(ResourceError, match="phase precision budget"):
        call(zeta, 2 * T_MAX)
    assert abs(euler_product_on_line(zeta, -T_MAX, 100.0)) > 0


def complex_log_terms(model, primes, t):
    """Oracle for the real-arithmetic kernel: the per-prime log of the local
    factors from numpy's complex log, -log(1 - a w) per real root and
    -log(1 - 2c w + w^2) per conjugate pair, w = p^-(1 + it)."""
    real, pair_re = model.root_blocks(primes)
    w = np.exp(-(1.0 + 1j * t) * np.log(primes.astype(np.float64)))
    terms = np.zeros(len(primes), dtype=np.complex128)
    for j in range(real.shape[1]):
        terms -= np.log(1.0 - real[:, j] * w)
    for j in range(pair_re.shape[1]):
        terms -= np.log(1.0 - 2.0 * pair_re[:, j] * w + w * w)
    return terms


def mpmath_product(model, t, Y, mpmath):
    """F(1 + it; Y) at 40 digits from the same float phases t log p as the
    package (their rounding is common to every formula and budgeted
    separately), so it measures the kernel's own rounding."""
    primes = primes_upto(int(Y))
    real, pair_re = model.root_blocks(primes)
    phases = t * np.log(primes.astype(np.float64))
    with mpmath.workdps(40):
        log_f = mpmath.mpc(0)
        for p, phi, roots, pairs in zip(primes.tolist(), phases.tolist(), real, pair_re):
            w = mpmath.expj(-mpmath.mpf(phi)) / p
            for a in roots:
                log_f -= mpmath.log(1 - mpmath.mpf(float(a)) * w)
            for c in pairs:
                log_f -= mpmath.log(1 - 2 * mpmath.mpf(float(c)) * w + w * w)
        return complex(mpmath.exp(log_f)), float(mpmath.re(log_f))


KERNEL_MODELS = [("zeta", 1e5), ("zeta^3", 1e5), ("dedekind:-4", 1e5), ("dedekind:5", 1e5),
                 ("rs-delta:2000", 2000.0)]
KERNEL_TS = [0.0, 14.13, -14.13, 1e3, 5e5, -T_MAX]


class TestRealKernel:
    @pytest.mark.parametrize("selector, Y", KERNEL_MODELS)
    def test_terms_match_complex_log_oracle(self, selector, Y):
        model = parse_model(selector)
        primes = primes_upto(int(Y))
        for t in KERNEL_TS:
            re, im = _log_terms_on_line(model, primes, t)
            # the oracle rounds each complex log near 1 to about u absolute
            np.testing.assert_allclose(re + 1j * im, complex_log_terms(model, primes, t),
                                       rtol=1e-13, atol=model.degree * 2.0**-51)

    @pytest.mark.parametrize("selector, Y", KERNEL_MODELS)
    def test_products_match_complex_log_oracle(self, selector, Y):
        model = parse_model(selector)
        primes = primes_upto(int(Y))
        for t in KERNEL_TS:
            oracle = np.exp(np.sum(complex_log_terms(model, primes, t)))
            assert abs(euler_product_on_line(model, t, Y) / oracle - 1) <= 1e-13, t

    @pytest.mark.parametrize("selector, Y", KERNEL_MODELS)
    def test_conjugate_symmetry_is_exact(self, selector, Y):
        model = parse_model(selector)
        for t in KERNEL_TS[1:]:
            a = euler_product_on_line(model, -t, Y)
            b = euler_product_on_line(model, t, Y)
            assert a.real == b.real and a.imag == -b.imag, t

    @pytest.mark.parametrize("selector, Y", [("zeta", 1e4), ("zeta^3", 1e4),
                                             ("dedekind:-4", 1e4), ("rs-delta:2000", 2000.0)])
    def test_no_less_accurate_than_complex_log(self, selector, Y):
        mpmath = pytest.importorskip("mpmath")
        model = parse_model(selector)
        primes = primes_upto(int(Y))
        k = model.degree
        # the standalone product's rounding of log |F| stated in the expsum docstring
        mass = np.abs(log_expansion(model, Y)[1]).sum()
        bound = 2.0**-53 * ((72 + 1.4 * (k - 1)) * k * np.sum(1.0 / primes) + 24 * mass + 8)
        for t in (0.0, 14.13, 123.456, 5e5, -T_MAX):
            ref, log_abs_ref = mpmath_product(model, t, Y, mpmath)
            ours = euler_product_on_line(model, t, Y)
            oracle = np.exp(np.sum(complex_log_terms(model, primes, t)))
            assert abs(ours / ref - 1) <= abs(oracle / ref - 1) + 1e-15, t
            assert abs(math.log(abs(ours)) - log_abs_ref) <= bound, t


class TestLogExpansion:
    def test_reconstructs_log_product(self, zeta, gauss, rs_small):
        for model in (zeta, gauss, rs_small):
            omega, coeff = log_expansion(model, 50.0)
            t = 3.0
            series = complex(
                sum(c * math.cos(t * w) for c, w in zip(coeff, omega)),
                -sum(c * math.sin(t * w) for c, w in zip(coeff, omega)),
            )
            direct = euler_product_on_line(model, t, 50.0)
            assert abs(complex(math.e) ** series / direct - 1) < 1e-12


class TestSampler:
    def test_deterministic(self):
        a = sample_uniform(7, 10, 0.0, 1.0)
        b = sample_uniform(7, 10, 0.0, 1.0)
        assert a == b

    def test_range(self):
        for u in sample_uniform(3, 100, 5.0, 6.0):
            assert 5.0 <= u <= 6.0

    def test_seed_sensitivity(self):
        assert sample_uniform(1, 5, 0.0, 1.0) != sample_uniform(2, 5, 0.0, 1.0)


class TestCalibration:
    def test_zero_samples_rejected(self, zeta):
        with pytest.raises(DomainError):
            calibrate_truncation(zeta, (10.0, 20.0), 1000.0, 0, 1)

    def test_unsupported_model(self, rs_small):
        with pytest.raises(UnsupportedModelError):
            calibrate_truncation(rs_small, (10.0, 20.0), 1000.0, 5, 1)

    def test_bitwise_reproducible(self, zeta):
        a = calibrate_truncation(zeta, (50.0, 60.0), 1000.0, 8, 42)
        b = calibrate_truncation(zeta, (50.0, 60.0), 1000.0, 8, 42)
        assert a == b

    def test_summary_matches_samples(self, zeta):
        stats = calibrate_truncation(zeta, (50.0, 150.0), 1000.0, 9, 3)
        devs = sorted(stats.deviation)
        assert stats.max == devs[-1]
        assert abs(stats.mean - sum(devs) / len(devs)) < 1e-15
        assert stats.median == devs[len(devs) // 2]

    def test_median_improves_with_truncation(self, zeta):
        coarse = calibrate_truncation(zeta, (100.0, 1000.0), 1e3, 40, 11)
        fine = calibrate_truncation(zeta, (100.0, 1000.0), 1e6, 40, 11)
        assert fine.median <= coarse.median

    def test_dedekind_supported(self, gauss):
        stats = calibrate_truncation(gauss, (40.0, 60.0), 1e4, 5, 9)
        assert all(d >= 0 and math.isfinite(d) for d in stats.deviation)

    def test_underflowed_direct_value_is_refused(self):
        # |zeta(1 + it)| is about 0.31 near t = 947, so its 1000th power is
        # 0.0: the quotient guard fires there, and the division never runs
        with pytest.raises(NumericError, match="direct value underflowed"):
            calibrate_truncation(make_zeta_power(1000), (946.9, 947.0), 1e3, 1, 1)

    def test_direct_value_square(self, zeta2):
        t = 2.5
        v1 = direct_value(zeta2, t)
        v2 = zeta_em(complex(1.0, t)) ** 2
        assert abs(v1 - v2) < 1e-14 * abs(v2)


def near_zero_of_the_eta_factor(k, distance):
    """The height t = 2 pi k / log 2 + delta > 0 at which |1 - 2^(-it)| = |distance|,
    on the side of the sign of distance."""
    return (2.0 * math.pi * k + 2.0 * math.asin(distance / 2.0)) / math.log(2.0)


class TestEtaFloor:
    # the error there was 9.2e-10, 2.7e-9, 1.45e-10 and 3.9e-10 under the
    # fixed floor 1e-3
    @pytest.mark.parametrize("k, distance", [(1000, 1e-3), (3000, 1e-3), (3000, 1e-2),
                                             (4000, 1e-2)])
    def test_refused_where_the_phase_rounding_passes_the_target(self, k, distance):
        with pytest.raises(NumericError, match="below the floor"):
            zeta_eta(complex(1.0, near_zero_of_the_eta_factor(k, distance)))

    @pytest.mark.parametrize("k, side", [(1000, 1), (3000, -1), (4000, 1)])
    def test_just_outside_the_floor_agrees_with_mpmath(self, k, side):
        mpmath = pytest.importorskip("mpmath")
        t0 = 2.0 * math.pi * k / math.log(2.0)
        t = near_zero_of_the_eta_factor(k, side * 1.01 * 3e-6 * t0)
        with mpmath.workdps(30):
            ref = complex(mpmath.zeta(mpmath.mpc(1, t)))
        assert abs(zeta_eta(complex(1.0, t)) - ref) <= 1e-10


def test_eta_weights_match_the_two_pass_construction():
    # d_n from the Chebyshev recurrence against d_n summed from the terms
    n = 4097
    tail = d_n = sum(_eta_terms(n))
    want = []
    for k, e in zip(range(n), _eta_terms(n)):
        tail -= e
        want.append(tail / d_n * (-1) ** k)
    assert _eta_weights(n).tolist() == want


def zeta_em_in_2_20_chunks(s):
    """zeta_em as it summed its head in chunks of 2^20 terms."""
    N = max(50, math.ceil(2 * abs(s.imag)))
    total = 0.0 + 0.0j
    for lo in range(1, N + 1, 1 << 20):
        n = np.arange(lo, min(lo + (1 << 20), N + 1), dtype=np.float64)
        total += complex(np.sum(np.exp(-s * np.log(n))))
    nf = float(N)
    total += nf ** (1 - s) / (s - 1) - 0.5 * nf ** (-s)
    rising, fact = s, 1.0
    for j, b in enumerate(EM_BERNOULLI, start=1):
        fact *= (2 * j - 1) * (2 * j)
        total += (b / fact) * rising * nf ** (-s - (2 * j - 1))
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    return total


def lseries_in_2_20_chunks(chi, s):
    """periodic_lseries' value as it summed its head in chunks of 2^20 terms."""
    q, t = len(chi), s.imag
    M = q * max(2, math.ceil(max(4096, 16 * q, 8 * q * (1 + abs(s))) / q))
    chi_f = np.asarray(chi, dtype=np.float64)
    head = 0.0 + 0.0j
    for lo in range(1, M + 1, 1 << 20):
        k = np.arange(lo, min(lo + (1 << 20), M + 1))
        n = k.astype(np.float64)
        w = chi_f[k % q] / n
        if t == 0.0:
            head += float(np.sum(w))
        else:
            phi = t * np.log(n)
            head += complex(np.sum(w * np.cos(phi)), -np.sum(w * np.sin(phi)))
    a = np.arange(1, q + 1)
    n = M + a.astype(np.float64)
    corr = np.full(q, 0.5 + 0.0j)
    rising, fact = s, 1.0
    for j, b in enumerate(EM_BERNOULLI, start=1):
        fact *= (2 * j - 1) * (2 * j)
        corr += (b / fact) * rising * (q / n) ** (2 * j - 1)
        rising *= (s + 2 * j - 1) * (s + 2 * j)
    delta = np.log1p(a / M)
    pole = (-delta / q) * np.exp(-1j * t * (math.log(M) + 0.5 * delta))
    pole *= np.sinc(t * delta / (2.0 * math.pi))
    return head + complex(np.sum(chi_f[a % q] * (np.exp(-s * np.log(n)) * corr + pole)))


class TestBlockedHeads:
    """The oracle heads run in blocks of summation.BLOCK = 2^16 terms: a head
    of one block keeps the bits it had in 2^20-term chunks, and no head holds
    more than a block's temporaries."""

    @pytest.mark.parametrize("t", [7.0, 171.76, 999.9, 3e4])
    def test_zeta_em_in_one_block_keeps_its_bits(self, t):
        s = complex(1.0, t)
        assert zeta_em(s) == zeta_em_in_2_20_chunks(s)

    @pytest.mark.parametrize("t", [100.0, 1000.0, 2046.0])  # heads of 4,096 to 65,508 terms
    def test_character_series_in_one_block_keeps_its_bits(self, t):
        assert dirichlet_direct(-4, t) == lseries_in_2_20_chunks(character_table(-4),
                                                                 complex(1.0, t))

    @staticmethod
    def traced_peak(fn, *args):
        fn(*args)  # caches (the character table) filled outside the trace
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_zeta_em_peak(self):
        # 2e6 head terms: 2.5 MiB in blocks of 2^16, 40 MiB in chunks of 2^20
        assert self.traced_peak(zeta_em, complex(1.0, 1e6)) < 8 * 2**20

    def test_character_series_peak(self):
        # 1.6e6 head terms: 3.0 MiB in blocks of 2^16, 40 MiB in chunks of 2^20
        assert self.traced_peak(dirichlet_direct, -4, 5e4) < 8 * 2**20
