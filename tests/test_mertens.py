import math
from fractions import Fraction

import pytest

from olx.errors import DomainError, NumericError
import numpy as np

from olx.lfamily import EULER_GAMMA, make_zeta_power, power_sum
from olx.mertens import (
    mertens_prediction,
    mertens_report,
    truncated_product_at_1,
)
from olx.primes import kronecker, sieve_primes


def product_oracle_zeta(x):
    """prod (1 - 1/p)^(-1) over p <= x in exact rational arithmetic."""
    acc = Fraction(1)
    for p in sieve_primes(x):
        acc *= 1 / (1 - Fraction(1, int(p)))
    return acc


def lambda_coeff(model, p, r):
    """(1/r) sum_j alpha_j(p)^r, the p^r coefficient of log F."""
    return power_sum(model, np.array([p]), r)[0] / r


class TestLambdaCoeff:
    def test_zeta(self, zeta):
        assert lambda_coeff(zeta, 101, 2) == 0.5

    def test_dedekind_order_one(self, gauss):
        assert abs(lambda_coeff(gauss, 3, 1)) < 1e-15

    def test_dedekind_order_two(self, gauss):
        assert abs(lambda_coeff(gauss, 3, 2) - 1.0) < 1e-15

    def test_bound_degree_over_r(self, zeta, zeta2, gauss, rs_small):
        primes = sieve_primes(1000)
        for model in (zeta, zeta2, gauss, rs_small):
            for r in range(1, 21):
                val = power_sum(model, primes, r) / r
                assert np.all(np.abs(val) <= model.degree / r + 1e-12)


class TestTruncatedProduct:
    def test_zeta_exact_small(self, zeta):
        want = product_oracle_zeta(10)
        assert want == Fraction(35, 8)
        assert abs(truncated_product_at_1(zeta, 10) / float(want) - 1) < 1e-13

    def test_zeta_square_small(self, zeta2):
        assert abs(truncated_product_at_1(zeta2, 10) - 19.140625) < 1e-12

    def test_dedekind_small(self, gauss):
        # ramified 2, inert 3, split 5: 2 * 9/8 * 25/16
        want = Fraction(2) * Fraction(9, 8) * Fraction(25, 16)
        assert want == Fraction(450, 128)
        assert abs(truncated_product_at_1(gauss, 5) / float(want) - 1) < 1e-13

    def test_power_law(self, zeta, zeta2, zeta3):
        for x in (1000.0, 1e6):
            base = truncated_product_at_1(zeta, x)
            for model, m in ((zeta2, 2), (zeta3, 3)):
                assert abs(truncated_product_at_1(model, x) / base**m - 1) < 1e-12

    def test_dedekind_splits_into_zeta_times_character(self, zeta):
        from olx.lfamily import make_dedekind_quadratic

        for d in (-4, -3, 5, 8):
            model = make_dedekind_quadratic(d)
            x = 1000
            char_factor = math.exp(
                -math.fsum(
                    math.log1p(-kronecker(d, int(p)) / int(p))
                    for p in sieve_primes(x)
                )
            )
            lhs = truncated_product_at_1(model, x)
            rhs = truncated_product_at_1(zeta, x) * char_factor
            assert abs(lhs / rhs - 1) < 1e-12

    def test_x_below_two_rejected(self, zeta):
        with pytest.raises(DomainError):
            truncated_product_at_1(zeta, 1.5)

    def test_rankin_selberg_cutoff(self, rs_small):
        from olx.errors import RangeError

        with pytest.raises(RangeError):
            truncated_product_at_1(rs_small, 5000.0)
        assert truncated_product_at_1(rs_small, 1999.0) > 1.0

    def test_deterministic(self, gauss):
        assert truncated_product_at_1(gauss, 12345) == truncated_product_at_1(
            gauss, 12345
        )


class TestPrediction:
    def test_zeta_at_1e6(self, zeta):
        want = math.exp(EULER_GAMMA) * math.log(1e6)
        assert abs(mertens_prediction(zeta, 1e6) - want) < 1e-12
        assert abs(want - 24.6064) < 1e-3

    def test_square_at_1e6(self, zeta2):
        want = math.exp(2 * EULER_GAMMA) * math.log(1e6) ** 2
        assert abs(mertens_prediction(zeta2, 1e6) - want) < 1e-10
        assert abs(want - 605.48) < 0.01

    def test_dedekind_at_1e6(self, gauss):
        want = gauss.residue * math.exp(EULER_GAMMA) * math.log(1e6)
        assert abs(mertens_prediction(gauss, 1e6) - want) < 1e-12
        assert abs(want - (math.pi / 4) * math.exp(EULER_GAMMA) * math.log(1e6)) < 1e-8

    def test_domain(self, zeta):
        with pytest.raises(DomainError):
            mertens_prediction(zeta, 1.0)


class TestReport:
    def test_zeta_ratio_converges(self, zeta):
        rep = mertens_report(zeta, [1e2, 1e3, 1e4, 1e5, 1e6])
        errs = [abs(r - 1) for r in rep.ratio]
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert 0.995 <= rep.ratio[-1] <= 1.005

    def test_positive_fields(self, gauss):
        rep = mertens_report(gauss, [100, 1000])
        assert all(v > 0 for v in rep.product)
        assert all(v > 0 for v in rep.prediction)

    def test_empty_grid(self, zeta):
        rep = mertens_report(zeta, [])
        assert rep.grid == () and rep.product == ()

    def test_non_increasing_grid_rejected(self, zeta):
        with pytest.raises(DomainError):
            mertens_report(zeta, [100, 100])

    def test_bitwise_reproducible(self, zeta):
        a = mertens_report(zeta, [1e3, 1e5])
        b = mertens_report(zeta, [1e3, 1e5])
        assert a == b

    def test_one_sieve_per_grid(self, zeta, monkeypatch):
        limits = []

        def spy(limit, *args):
            limits.append(limit)
            return sieve_primes(limit, *args)

        monkeypatch.setattr("olx.mertens.sieve_primes", spy)
        rep = mertens_report(zeta, [1e2, 1e3, 1e4, 1e5])
        assert limits == [100_000]
        assert 0.99 < rep.ratio[-1] < 1.01

    @pytest.mark.parametrize("model_name", ["zeta", "zeta2", "gauss", "rs_small"])
    def test_products_keep_the_bits_of_single_cutoffs(self, model_name, request):
        # 821,641 is the 65,536th prime, so at it the primes fill exactly
        # one summation block, and one more prime opens the next
        model = request.getfixturevalue(model_name)
        assert len(sieve_primes(821_641)) == 65_536
        grid = [2, 1000.5, 1999.0, 821_640, 821_641, 821_647]
        if model_name == "rs_small":
            grid = grid[:3]
        rep = mertens_report(model, grid)
        assert rep.product == tuple(truncated_product_at_1(model, x) for x in grid)

    def test_refusal_waits_for_the_cutoffs_before_it(self, rs_small):
        from olx.errors import RangeError

        with pytest.raises(RangeError, match="cutoff 5000.0 beyond"):
            mertens_report(rs_small, [100, 5000, 1e20])
        big = make_zeta_power(1000)
        with pytest.raises(NumericError, match="x = 100.0 overflows"):
            mertens_report(big, [100, 1e20])
        with pytest.raises(DomainError, match="x >= 2, got 1.5"):
            mertens_report(big, [1.5, 100])
