import math

import numpy as np
import pytest

from olx.charsum import periodic_lseries
from olx.errors import BUDGETS, DomainError, RangeError, ResourceError, UnsupportedModelError
from olx.evaluate import (
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
from olx.lfamily import make_rankin_selberg_delta, parse_model
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


class TestCrossOracle:
    def test_twenty_point_grid(self):
        for i in range(20):
            t = 1.0 + i * (99.0 / 19.0)
            a = zeta_em(complex(1.0, t))
            b = zeta_eta(complex(1.0, t))
            assert abs(a - b) <= 1e-10 * (1 + abs(a)), t


class TestMpmathOracle:
    """A third oracle, independent of both in-package paths; test-only."""

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

    def test_direct_value_square(self, zeta2):
        t = 2.5
        v1 = direct_value(zeta2, t)
        v2 = zeta_em(complex(1.0, t)) ** 2
        assert abs(v1 - v2) < 1e-14 * abs(v2)
