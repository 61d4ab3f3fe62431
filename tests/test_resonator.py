import math

import numpy as np
import pytest

from olx.errors import DomainError
from olx.lfamily import EULER_GAMMA
from olx.resonator import (
    R_eval,
    _banded_sum,
    asymptotic_bound,
    moment_quadrature,
    moment_series,
    q_of_int,
    q_of_prime,
    resonance_product,
    resonance_products_at_cutoff,
    resonator_config,
)

E_POW_E = math.exp(math.e)


def q_table_oracle(limit, X):
    """q_n for n = 1..limit via a smallest-prime-factor sweep (independent
    of the trial-division implementation)."""
    q = [0.0] * (limit + 1)
    q[1] = 1.0
    spf = list(range(limit + 1))
    for p in range(2, int(limit**0.5) + 1):
        if spf[p] == p:
            for m in range(p * p, limit + 1, p):
                if spf[m] == m:
                    spf[m] = p
    for n in range(2, limit + 1):
        p = spf[n]
        q[n] = q[n // p] * q_of_prime(p, X)
    return q


class TestConfig:
    def test_formula(self):
        cfg = resonator_config(math.exp(600.0))
        assert abs(cfg.X - 100.0 * math.log(600.0)) < 1e-9
        assert abs(cfg.X - 639.69) < 0.01

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            resonator_config(E_POW_E)

    def test_eps_decreasing(self):
        epss = [resonator_config(T).eps for T in (1e3, 1e6, 1e9)]
        assert epss[0] > epss[1] > epss[2]

    def test_recompute_exact(self):
        for T in (100.0, 5000.0, 1e8):
            cfg = resonator_config(T)
            assert cfg.X == math.log(T) * math.log(math.log(T)) / 6.0
            assert cfg.eps == math.log(T) / T
            assert 0.0 < cfg.eps < 1.0


class TestWeights:
    def test_prime_examples(self):
        assert q_of_prime(5, 10.0) == 0.5
        assert q_of_prime(101, 100.0) == 0.0
        assert [q_of_prime(p, 10.0) for p in (2, 3, 5, 7)] == pytest.approx(
            [0.8, 0.7, 0.5, 0.3]
        )

    def test_unit(self):
        assert q_of_int(1, 100.0) == 1.0

    def test_twelve(self):
        assert abs(q_of_int(12, 100.0) - 0.98**2 * 0.97) < 1e-12

    def test_large_prime_factor_kills(self):
        assert q_of_int(2 * 101, 100.0) == 0.0

    def test_multiplicative_exhaustive(self):
        X = 100.0
        limit = 1000
        q = q_table_oracle(limit * limit, X)
        for m in range(1, limit + 1):
            assert abs(q[m] - q_of_int(m, X)) < 1e-15, m
        for m in range(1, limit + 1):
            if q[m] == 0.0:
                continue
            for n in range(1, limit + 1):
                if math.gcd(m, n) == 1:
                    assert abs(q[m * n] - q[m] * q[n]) < 1e-12

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            q_of_int(0, 10.0)


class TestResonanceProducts:
    def test_zeta_at_ten(self, zeta):
        res, mer, dft = resonance_products_at_cutoff(zeta, 10.0)
        assert abs(res - 2.52362) < 1e-5
        assert abs(mer - 4.375) < 1e-12
        assert abs(dft - 0.576827) < 1e-6

    def test_factorization_identity(self, zeta, zeta2, gauss, rs_small):
        for model in (zeta, zeta2, gauss, rs_small):
            for X in (10.0, 100.0, 1000.0):
                res, mer, dft = resonance_products_at_cutoff(model, X)
                assert abs(res / (mer * dft) - 1) < 1e-12, (model.label, X)

    def test_square_model_squares(self, zeta, zeta2):
        res1, _, _ = resonance_products_at_cutoff(zeta, 10.0)
        res2, _, _ = resonance_products_at_cutoff(zeta2, 10.0)
        assert abs(res2 / res1**2 - 1) < 1e-12

    def test_domination_and_defect_range(self, zeta, zeta2, gauss, rs_small):
        for model in (zeta, zeta2, gauss, rs_small):
            res, mer, dft = resonance_products_at_cutoff(model, 100.0)
            assert res <= mer
            assert 0.0 < dft <= 1.0

    def test_defect_trend_constant(self, zeta):
        # (1 - defect) * log X stays near one constant over the grid
        cs = []
        for X in (100.0, 1000.0, 10000.0):
            _, _, dft = resonance_products_at_cutoff(zeta, X)
            cs.append((1.0 - dft) * math.log(X))
        assert max(cs) / min(cs) < 1.2
        assert all(0.5 < c < 2.0 for c in cs)

    def test_report_fields(self, gauss):
        rep = resonance_product(gauss, 1e8)
        assert rep.label == "dedekind:-4"
        assert abs(rep.resonance_product / (rep.mertens_factor * rep.defect) - 1) < 1e-12
        assert rep.asymptotic_bound > 0
        # a given cutoff replaces X(T); the bound still comes from T
        at_x = resonance_product(gauss, 1e8, X=30.0)
        assert (at_x.T, at_x.X) == (1e8, 30.0)
        assert (at_x.resonance_product, at_x.mertens_factor, at_x.defect) == \
            resonance_products_at_cutoff(gauss, 30.0)
        assert at_x.asymptotic_bound == rep.asymptotic_bound


class TestAsymptoticBound:
    def test_double_exponential(self, zeta):
        T = math.exp(math.exp(math.e))
        want = math.exp(EULER_GAMMA) * (math.e + 1.0)
        assert abs(asymptotic_bound(zeta, T) / want - 1) < 1e-12

    def test_at_1e8(self, zeta, zeta2):
        ll = math.log(math.log(1e8))
        lll = math.log(ll)
        assert abs(asymptotic_bound(zeta, 1e8) - math.exp(EULER_GAMMA) * (ll + lll)) < 1e-12
        assert abs(asymptotic_bound(zeta, 1e8) - 7.0937) < 1e-3
        assert abs(asymptotic_bound(zeta2, 1e8) - 50.320) < 1e-2

    def test_domain(self, zeta):
        with pytest.raises(DomainError):
            asymptotic_bound(zeta, 10.0)


class TestResonator:
    def test_at_zero(self):
        want = 10_000.0 / 210.0
        assert abs(R_eval(0.0, 10.0) - want) < 1e-9

    def test_empty_product(self):
        assert R_eval(123.0, 1.5) == 1.0

    def test_conjugate_symmetry(self):
        for t in (1.0, 10.0, 100.0):
            assert abs(R_eval(-t, 50.0) - R_eval(t, 50.0).conjugate()) < 1e-12

    def test_square_modulus_matches_quadrature_formula(self):
        # |R(t)|^2 from the complex product vs the real per-prime form
        # used inside the quadrature integrands
        import numpy as np

        from olx.primes import primes_upto

        X = 20.0
        for t in (0.7, 5.0, 42.0):
            direct = abs(R_eval(t, X)) ** 2
            acc = 1.0
            for p in primes_upto(int(X)):
                p = int(p)
                q = q_of_prime(p, X)
                acc /= 1.0 - 2.0 * q * math.cos(t * math.log(p)) + q * q
            assert abs(direct / acc - 1) < 1e-12


class TestBandedSum:
    """The pair kernel of the series path against a direct O(N*M) sum."""

    BAND = 0.05
    INV4EPS2 = math.log(1e18) / BAND**2  # g = 1e-18 at the band edge
    FLOOR = 1e-9  # cuts octave pairs with oa + ob >= 30

    @staticmethod
    def items(rng, n):
        # weights over 40 octaves, x spread wide enough that most windows are empty
        return rng.uniform(-3.0, 3.0, n), 2.0 ** -rng.uniform(0.0, 40.0, n)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(20190)
        xA, wA = self.items(rng, 400)
        xB, wB = self.items(rng, 250)
        octA = np.minimum(np.floor(-np.log2(wA)), 60).astype(int)
        octB = np.minimum(np.floor(-np.log2(wB)), 60).astype(int)
        nA = np.bincount(octA, minlength=61)
        nB = np.bincount(octB, minlength=61)
        admitted = 2.0 ** -(np.arange(61)[:, None] + np.arange(61)[None, :]) >= self.FLOOR
        both = admitted & (nA[:, None] > 0) & (nB[None, :] > 0)
        # blocks lopsided both ways, and some cut by the floor
        assert (both & (nA[:, None] > nB[None, :])).any()
        assert (both & (nA[:, None] < nB[None, :])).any()
        assert (~admitted & (nA[:, None] > 0) & (nB[None, :] > 0)).any()

        s = xA[:, None] + xB[None, :]
        keep = (np.abs(s) <= self.BAND) & admitted[octA[:, None], octB[None, :]]
        assert keep.any() and not keep.any(axis=1).all()  # some windows are empty
        terms = wA[:, None] * wB[None, :] * np.exp(-(s**2) * self.INV4EPS2)
        direct = float(np.sum(terms[keep]))
        skipped = 0.0  # octave pair count times the pair weight, in kernel order
        for oa in range(61):
            for ob in range(61):
                if nA[oa] and nB[ob] and not admitted[oa, ob]:
                    skipped += 2.0 ** (-(oa + ob)) * int(min(nA[oa], nB[ob]))

        total, floor_mass = _banded_sum(xA, wA, xB, wB, self.INV4EPS2, self.BAND, self.FLOOR)
        assert abs(total / direct - 1.0) < 1e-13
        assert floor_mass == skipped
        swapped, _ = _banded_sum(xB, wB, xA, wA, self.INV4EPS2, self.BAND, self.FLOOR)
        assert abs(swapped / total - 1.0) < 1e-14


class TestMoments:
    def test_empty_product_closed_form(self, zeta):
        eps = math.log(5000.0) / 5000.0
        norm = math.sqrt(math.pi) / eps
        ms = moment_series(zeta, 1.5, 5000.0, 100)
        assert ms.I1 == pytest.approx(norm) and ms.I2 == pytest.approx(norm)
        mq = moment_quadrature(zeta, 1.5, 5000.0, 0.05)
        assert abs(mq.I2 - norm) < max(mq.error_estimate, 1e-9 * norm)

    def test_single_prime_closed_form(self, zeta):
        # X=3: q_2 = 1/3, q_3 = 0; the diagonal geometric series gives 9/8
        # for I2 and sum_v 6^(-v) * 9/8 = 27/20 for I1
        eps = math.log(5000.0) / 5000.0
        norm = math.sqrt(math.pi) / eps
        ms = moment_series(zeta, 3.0, 5000.0, 10**4)
        assert abs(ms.I2 / norm - 9.0 / 8.0) < 1e-6
        assert abs(ms.I1 / norm - 27.0 / 20.0) < 1e-6

    def test_against_exponent_space_brute_force(self, zeta, gauss):
        # X=4 keeps only primes 2 and 3, and T=16 makes the Gaussian wide,
        # so near-diagonal structure matters; the brute force sums the
        # raw triple series over exponent vectors straight from the
        # definitions, independent of the factored evaluator
        from olx.lfamily import local_coefficients

        X, T, wcut = 4.0, 16.0, 1e-11
        eps = math.log(T) / T
        q2, q3 = 1 - 2 / X, 1 - 3 / X
        amax = int(math.log(1 / wcut) / -math.log(q2)) + 1
        bmax = int(math.log(1 / wcut) / -math.log(q3)) + 1
        xs, qs = [], []
        for a in range(amax + 1):
            for b in range(bmax + 1):
                w = q2**a * q3**b
                if w >= wcut:
                    xs.append(a * math.log(2) + b * math.log(3))
                    qs.append(w)
        import numpy as np

        xs = np.array(xs)
        qs = np.array(qs)
        inv = 1.0 / (4 * eps * eps)
        diff = xs[:, None] - xs[None, :]
        norm = math.sqrt(math.pi) / eps
        for model in (zeta, gauss):
            i2_brute = norm * float(qs @ np.exp(-diff * diff * inv) @ qs)
            c2 = local_coefficients(model, 2, 40) / 2.0 ** np.arange(41)
            c3 = local_coefficients(model, 3, 25) / 3.0 ** np.arange(26)
            s1 = 0.0
            for a in range(41):
                for b in range(26):
                    ck = c2[a] * c3[b]
                    if ck >= 1e-12:
                        lk = a * math.log(2) + b * math.log(3)
                        s1 += ck * float(qs @ np.exp(-((lk + diff) ** 2) * inv) @ qs)
            i1_brute = norm * s1
            ms = moment_series(model, X, T, 10**5)
            assert abs(ms.I1 / i1_brute - 1) < 1e-9, model.label
            assert abs(ms.I2 / i2_brute - 1) < 1e-9, model.label

    def test_series_quadrature_agreement(self, zeta):
        ms = moment_series(zeta, 10.0, 5000.0, 10**5)
        mq = moment_quadrature(zeta, 10.0, 5000.0, 0.04)
        assert abs(ms.I2 - mq.I2) / mq.I2 < 1e-6
        assert abs(ms.I1 - mq.I1) / mq.I1 < 1e-6

    def test_moment_inequality(self, zeta):
        res, _, _ = resonance_products_at_cutoff(zeta, 10.0)
        ms = moment_series(zeta, 10.0, 5000.0, 10**5)
        mq = moment_quadrature(zeta, 10.0, 5000.0, 0.04)
        allowance = (ms.truncation_bound + mq.error_estimate) / mq.I2
        assert mq.I1 / mq.I2 >= res - allowance

    def test_degree_four_model_both_paths(self, rs_small):
        # exercises the degree-4 local coefficient tables end to end
        ms = moment_series(rs_small, 10.0, 5000.0, 10**5)
        mq = moment_quadrature(rs_small, 10.0, 5000.0, 0.04)
        assert abs(ms.I2 - mq.I2) / mq.I2 < 1e-6
        assert abs(ms.I1 - mq.I1) / mq.I1 < 1e-6
        res, _, _ = resonance_products_at_cutoff(rs_small, 10.0)
        allowance = (ms.truncation_bound + mq.error_estimate) / mq.I2
        assert mq.I1 / mq.I2 >= res - allowance

    def test_imaginary_diagnostic(self, gauss):
        mq = moment_quadrature(gauss, 10.0, 5000.0, 0.05)
        assert mq.i1_imag_rel < 1e-8

    def test_truncation_bound_grows_when_shallow(self, zeta):
        deep = moment_series(zeta, 10.0, 5000.0, 10**5)
        shallow = moment_series(zeta, 10.0, 5000.0, 30)
        assert shallow.truncation_bound > deep.truncation_bound

    def test_series_x_cap(self, zeta):
        with pytest.raises(DomainError):
            moment_series(zeta, 60.0, 5000.0, 100)

    def test_quadrature_step_domain(self, zeta):
        with pytest.raises(DomainError):
            moment_quadrature(zeta, 10.0, 5000.0, 0.0)
