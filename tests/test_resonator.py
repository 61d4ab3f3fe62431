import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import olx.resonator as resonator
from olx.errors import BUDGETS, DomainError, NumericError, ResourceError
from olx.evaluate import euler_product_on_line
from olx.lfamily import EULER_GAMMA, local_coefficients, make_zeta_power
from olx.mertens import truncated_product_at_1
from olx.primes import primes_upto
from olx.resonator import (
    _CRAMER,
    _ORDERS,
    _PAIR_REM,
    _box_sum,
    _cos_sin,
    _enumerate_half,
    _integrand_sums,
    _series_sum,
    _trapezoid_levels,
    asymptotic_bound,
    moment_quadrature,
    moment_series,
    q_of_prime,
    resonance_product,
    resonance_products_at_cutoff,
    resonator_config,
)

E_POW_E = math.exp(math.e)


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
        # the array form gives the scalar values, bit for bit
        primes = np.array([2, 3, 5, 7, 11, 13, 17, 19, 23], dtype=np.int64)
        for X in (10.0, 17.9, 18.0, 1e3):
            q = q_of_prime(primes, X)
            assert q.tolist() == [q_of_prime(int(p), X) for p in primes]


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
    def test_square_modulus_matches_quadrature_formula(self, zeta):
        # |R(t)|^2 * Phi(t) from the quadrature integrands vs the complex
        # resonator product R(t) = prod_{p <= X} (1 - q_p p^(it))^(-1)
        from olx.primes import primes_upto

        X, eps = 20.0, 0.01
        t = np.array([0.7, 5.0, 42.0])
        r2_phi = _integrand_sums(zeta, X, eps, t)[2]
        for tk, got in zip(t, r2_phi):
            R = complex(1.0)
            for p in primes_upto(int(X)):
                R /= 1.0 - q_of_prime(int(p), X) * complex(math.cos(tk * math.log(p)),
                                                           math.sin(tk * math.log(p)))
            assert abs(got / math.exp(-((eps * tk) ** 2)) / abs(R) ** 2 - 1) < 1e-12


class TestBoxSum:
    """The box-moment pair sum against a direct O(N*M) sum."""

    def test_matches_brute_force_pair_sum(self):
        rng = np.random.default_rng(20190)
        # clustered halves, so most pairs lie within reach of each other,
        # with weights over 30 octaves
        sA = rng.uniform(-12.0, 12.0, 500)
        sB = rng.uniform(-12.0, 12.0, 300)
        # items exactly on box edges, each side of the origin
        sA = np.concatenate([sA, [-3.5, 0.5, 4.5, 20.5]])
        sB = np.concatenate([sB, [-0.5, 2.5, 41.5]])
        # pairs at the lag cut: gaps 6.5, 7.4, 7.6 and 8.5 from the item at
        # 20.5 (box 21) fall in lags 6, 7, 7 and 8, the last one beyond it
        sB = np.concatenate([sB, 20.5 + np.array([6.5, 7.4, 7.6, 8.5])])
        wA = 2.0 ** -rng.uniform(0.0, 30.0, len(sA))
        wB = 2.0 ** -rng.uniform(0.0, 30.0, len(sB))
        a, b = np.argsort(sA), np.argsort(sB)
        sA, wA, sB, wB = sA[a], wA[a], sB[b], wB[b]
        diff = sA[:, None] - sB[None, :]
        direct = float(wA @ np.exp(-diff**2) @ wB)
        remainder = (_PAIR_REM + _CRAMER[_ORDERS]) * float(np.sum(wA)) * float(np.sum(wB))
        assert remainder < 1e-10 * direct

        # with nothing dropped no order below 30 keeps the Cramer term under
        # 1% of the lag cut, so the rule picks K = 30
        S, _, sup_a, sup_b = _box_sum(sA, wA, sB, wB, no_drop)
        assert abs(S - direct) <= remainder
        swapped = _box_sum(sB, wB, sA, wA, no_drop)
        assert abs(swapped[0] - direct) <= remainder
        assert swapped[2:] == (sup_b, sup_a)
        # the sup bounds hold on a grid finer than the boxes, out past both ends
        y = np.linspace(-30.0, 60.0, 90_001)
        for s, w, bound in ((sA, wA, sup_a), (sB, wB, sup_b)):
            g = np.array([float(w @ np.exp(-(s - yk) ** 2)) for yk in y[::7]])
            assert g.max() <= bound < 4.0 * g.max()

    @pytest.mark.parametrize("fixture", ["zeta", "rs_small"])
    @pytest.mark.parametrize("n_cutoff", [10**2, 10**4])
    def test_rule_order_matches_brute_force(self, fixture, n_cutoff, request, monkeypatch):
        # both moments' pair sums at X = 10, at the order the rule picks (15
        # at n_cutoff 1e2, 23 at 1e4), within the remainder they state
        seen = []

        def recording(*args):
            seen.append((args[:4], _box_sum(*args)))
            return seen[-1][1]

        monkeypatch.setattr(resonator, "_box_sum", recording)
        moment_series(request.getfixturevalue(fixture), 10.0, 5000.0, n_cutoff)
        assert len(seen) == 2
        for (sA, wA, sB, wB), (S, remainder, _, _) in seen:
            direct = sum(float(wA[i : i + 256] @ np.exp(-(sA[i : i + 256, None] - sB) ** 2) @ wB)
                         for i in range(0, len(sA), 256))
            assert abs(S - direct) <= remainder
            # an order below 30: its Cramer term is above what 30 orders state
            assert remainder > _CRAMER[_ORDERS] * float(np.sum(wA)) * float(np.sum(wB))

    @pytest.mark.parametrize("fixture", ["zeta", "zeta3", "gauss", "rs_small"])
    def test_rule_adds_at_most_one_percent_to_the_bound(self, fixture, request, monkeypatch):
        model = request.getfixturevalue(fixture)
        for X in (3.0, 10.0, 18.0):
            for n_cutoff in (10**2, 10**4, 10**6):
                bound = moment_series(model, X, 5000.0, n_cutoff).truncation_bound
                with monkeypatch.context() as patch:
                    patch.setattr(resonator, "_CRAMER_SHARE", 0.0)  # K = 30 throughout
                    full = moment_series(model, X, 5000.0, n_cutoff).truncation_bound
                assert bound <= 1.01 * full, (X, n_cutoff)


def no_drop(sup_a, sup_b):
    return 0.0


def one_shot_enumeration(half, delta):
    """_enumerate_half as one outer product per prime, the reference for
    the row-blocked enumeration."""
    xs, ws, scale = np.zeros(1), np.ones(1), 1.0
    for logp, table in half:
        m = float(table.max())
        scale *= m
        tnorm = table / m
        fmax = (len(table) - 1) // 2
        offs = np.arange(-fmax, fmax + 1) * logp
        keep_f = tnorm >= delta
        tnorm, offs = tnorm[keep_f], offs[keep_f]
        new_x = (xs[:, None] + offs[None, :]).ravel()
        new_w = (ws[:, None] * tnorm[None, :]).ravel()
        keep = new_w >= delta
        xs, ws = new_x[keep], new_w[keep]
    return xs, ws, scale


class TestBlockedEnumeration:
    DELTA = 2.0**-10

    def test_matches_one_shot_reference(self):
        rng = np.random.default_rng(1729)

        def table(width, top):
            # powers of two, so products land exactly on DELTA; max 1 at the centre
            t = 2.0 ** -rng.integers(0, top, width).astype(float)
            t[width // 2] = 1.0
            return t

        wide = table(70_001, 31)  # wider than one row block of 2^16 cells
        wide[:5] = self.DELTA  # factors exactly at the floor are kept
        mid = table(41, 13)  # crosses the wide table's items in many row blocks
        last = rng.uniform(0.01, 0.5, 9) * 3.0  # a maximum other than 1
        half = [(math.log(2.0), wide), (math.log(3.0), mid), (math.log(5.0), last)]
        got = _enumerate_half(half, self.DELTA)
        want = one_shot_enumeration(half, self.DELTA)
        assert len(want[0]) > 1 << 16
        assert (want[1] == self.DELTA).sum() > 100
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    def test_budget_refuses_before_the_product_is_built(self, zeta, monkeypatch):
        # built one prime's whole outer product at a time, this enumeration
        # held 51 MiB before refusing at this budget, and 2 GB at the real one
        monkeypatch.setitem(BUDGETS, "enum_items", BUDGETS["enum_items"]._replace(limit=200_000))
        eps = resonator_config(5000.0).eps
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError) as info:
                _series_sum(zeta, 30.0, eps, 1e-8, "I2")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == (
            "moment-series enumeration exceeded 200000 items; lower n_cutoff or X")
        assert peak < 16 * 2**20


class TestMemoryPeaks:
    @staticmethod
    def traced_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_quadrature_sweeps_in_small_blocks(self, zeta):
        # 3.6e5 nodes in 11 blocks of 2^15, each summed into the three levels
        # as it is made: 4.25 MiB, one block's integrand and its temporaries
        assert self.traced_peak(moment_quadrature, zeta, 10.0, 5000.0, 0.04) < 8 * 2**20

    def test_quadrature_chunks_share_one_buffer(self, zeta):
        # 3.6e6 nodes in 110 blocks of 2^15: still 4.25 MiB, since no block
        # outlives its sums
        assert self.traced_peak(moment_quadrature, zeta, 10.0, 5000.0, 0.004) < 8 * 2**20

    def test_quadrature_sums_each_block_into_the_levels(self, zeta):
        # 3.6e6 nodes at X = 18: 4.3 MiB with each 2^15-node block summed
        # straight into the levels, 15.5 MiB through a (3, 2^19) buffer
        assert self.traced_peak(moment_quadrature, zeta, 18.0, 5000.0, 0.004) < 8 * 2**20

    def test_series_peak_not_above_one_shot_enumeration(self, zeta):
        moment_series(zeta, 14.0, 5000.0, 10**5)  # prime tables cached outside the peak
        # 8,458,514 bytes with one-shot enumeration and both halves' unsorted
        # items held through the pair sum; about 7.2e6 without them
        assert self.traced_peak(moment_series, zeta, 14.0, 5000.0, 10**5) <= 8_458_514


class TestWeightTable:
    MODELS = ("zeta", "zeta3", "gauss", "root5", "rs_small")

    @staticmethod
    def defined_i1_table(model, p, q, fmax):
        """w1(f) = sum over x - y = f (x, y >= 0) of b(p^x) q^y, with
        b(p^x) = sum_(v<=x) c_v q^(x-v) and c_v = a(p^v) p^(-v): the
        definition in `_weight_table`'s docstring, summed directly to a depth
        where q^(2x - f) and p^(-x) are far below rounding."""
        depth = 2 * fmax + 200
        c = local_coefficients(model, p, depth) * (1.0 / p) ** np.arange(depth + 1)
        b = np.array([np.dot(c[: x + 1], q ** np.arange(x, -1, -1)) for x in range(depth + 1)])
        x = np.arange(depth + 1)
        return np.array([np.sum(b[max(f, 0):] * q ** (x[max(f, 0):] - f))
                         for f in range(-fmax, fmax + 1)])

    @pytest.mark.parametrize("fixture", MODELS)
    def test_i1_table_matches_its_definition(self, fixture, request):
        model = request.getfixturevalue(fixture)
        for X in (3.0, 10.0, 18.0, 30.0):
            for p in (int(v) for v in primes_upto(X)):
                q = float(q_of_prime(p, X))
                table, _ = resonator._weight_table(model, p, q, 1e-10, "I1")
                want = self.defined_i1_table(model, p, q, (len(table) - 1) // 2)
                assert np.abs(table - want).max() <= 2e-15 * want.max(), (X, p)

    @pytest.mark.parametrize("m", [1, 3, 8, 20, 40])
    def test_i1_total_is_the_euler_factor_over_the_i2_total(self, m):
        # total L_p(1) / (1 - q)^2 with L_p(1) = (p / (p - 1))^m for zeta^m, exact
        # in rationals; the closed form sums m equal logs before its exp, so
        # its rounding grows with m (2.8e-14 at m = 40, p = 2)
        model = make_zeta_power(m)
        for p in (2, 3):
            for X in (3.0, 10.0, 30.0):
                q = float(q_of_prime(p, X))
                _, total = resonator._weight_table(model, p, q, 1e-10, "I1")
                want = Fraction(p, p - 1) ** m / (1 - Fraction(q)) ** 2
                assert abs(Fraction(total) / want - 1) <= m * 1e-15, (p, X)


class TestOnePassPerMoment:
    def test_call_counts(self, zeta, monkeypatch):
        # one pair sum per moment, and one coefficient table per prime for
        # I1 (X = 10: primes 2, 3, 5, 7; I2 needs no coefficients)
        calls = {"pairs": 0, "coefficients": 0}

        def counting(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        monkeypatch.setattr(resonator, "_box_sum",
                            counting("pairs", resonator._box_sum))
        monkeypatch.setattr(resonator, "local_coefficients",
                            counting("coefficients", resonator.local_coefficients))
        moment_series(zeta, 10.0, 5000.0, 10**4)
        assert calls == {"pairs": 2, "coefficients": 4}


def i2_halves(model, X, delta):
    """The I2 tables split into halves as `_series_sum` splits them, with
    each half's closed-form total."""
    halves, sizes, totals = ([], []), [0.0, 0.0], [1.0, 1.0]
    tabs = [(math.log(p), *resonator._weight_table(model, p, q_of_prime(p, X), delta, "I2"))
            for p in (int(v) for v in primes_upto(X))]
    for logp, table, total in sorted(tabs, key=lambda t: -len(t[1])):
        k = 0 if sizes[0] <= sizes[1] else 1
        halves[k].append((logp, table))
        sizes[k] += math.log(len(table))
        totals[k] *= total
    return halves, totals


def unfolded_i2_sum(model, X, eps, delta):
    """(S, allowance) of I2 with both halves whole and one unfolded `_box_sum`."""
    halves, totals = i2_halves(model, X, delta)
    sides, dropped_weight, scale = [], [], 1.0
    for sign, half, total in zip((1.0, -1.0), halves, totals):
        x, w, half_scale = _enumerate_half(half, delta)
        x *= sign / (2.0 * eps)
        order = np.argsort(x)
        sides += [x[order], w[order]]
        dropped_weight.append(max(0.0, total / half_scale - float(np.sum(w))))
        scale *= half_scale
    d_a, d_b = dropped_weight

    def dropped(sup_a, sup_b):
        return d_a * (sup_b + d_b) + d_b * sup_a

    s, remainder, sup_a, sup_b = _box_sum(*sides, dropped)
    return s * scale, (remainder + dropped(sup_a, sup_b)) * scale


class TestI2Fold:
    """I2 sums half its pairs: each half's items are closed under s -> -s."""

    @pytest.mark.parametrize("X", [10.0, 18.0])
    def test_i2_halves_are_closed_under_negation(self, zeta, X):
        halves, _ = i2_halves(zeta, X, 1e-10)
        for half in halves:
            x, w, _ = _enumerate_half(half, 1e-10)
            up, down = np.lexsort((w, x)), np.lexsort((w, -x))
            assert np.array_equal(x[up], -x[down]) and np.array_equal(w[up], w[down])

    def test_folded_pair_sum_against_brute_force(self):
        # even sides massed near 0, so sup G_A lies where A's two halves
        # overlap: the sup of the s >= 0 half alone is about half of it
        rng = np.random.default_rng(31)
        r_a, r_b = rng.normal(0.0, 3.0, 400), rng.uniform(-20.0, 20.0, 300)
        r_a = np.concatenate([r_a, [0.5, 7.5, 12.5]])  # on box edges
        r_b = np.concatenate([r_b, [-7.5, -8.5, 6.5]])
        w_ra = 2.0 ** -rng.uniform(0.0, 20.0, len(r_a))
        w_rb = 2.0 ** -rng.uniform(0.0, 20.0, len(r_b))
        sA, wA = np.concatenate([r_a, -r_a, [0.0]]), np.concatenate([w_ra, w_ra, [1.0]])
        sB, wB = np.concatenate([r_b, -r_b, [0.0]]), np.concatenate([w_rb, w_rb, [0.5]])
        a, b = np.argsort(sA), np.argsort(sB)
        sA, wA, sB, wB = sA[a], wA[a], sB[b], wB[b]
        direct = float(wA @ np.exp(-(sA[:, None] - sB[None, :]) ** 2) @ wB)
        # the fold: A's items at s >= 0, the one at 0 halved; B's within reach
        keep_a, keep_b = sA >= 0.0, sB >= -7.5
        wA_fold = np.where(sA == 0.0, 0.5 * wA, wA)[keep_a]
        folded = (float(np.sum(wA)), float(np.sum(wB)))
        S, remainder, sup_a, sup_b = _box_sum(sA[keep_a], wA_fold, sB[keep_b], wB[keep_b],
                                              no_drop, folded)
        assert remainder < 1e-10 * direct
        assert abs(2.0 * S - direct) <= remainder
        y = np.linspace(-40.0, 40.0, 80_001)
        for s, w, bound in ((sA, wA, sup_a), (sB, wB, sup_b)):
            g = np.array([float(w @ np.exp(-(s - yk) ** 2)) for yk in y[::7]])
            assert g.max() <= bound < 4.0 * g.max()
        half = np.array([float(wA_fold @ np.exp(-(sA[keep_a] - yk) ** 2)) for yk in y[::7]])
        assert half.max() < 0.75 * sup_a

    @pytest.mark.parametrize("fixture", ["zeta", "gauss", "rs_small"])
    @pytest.mark.parametrize("X", [3.0, 10.0, 18.0])
    def test_folded_series_matches_unfolded(self, fixture, X, request):
        # the two add the same pair terms in different orders, and each lands
        # a few ulp from the exact sum: against a long-double evaluation of
        # the same expansion the fold was +1.3 ulp off and the unfolded sum
        # -1.7 at X = 10, -3.2 and +2.8 at X = 14
        model = request.getfixturevalue(fixture)
        eps = resonator_config(5000.0).eps
        got = _series_sum(model, X, eps, 1e-10, "I2")
        want = unfolded_i2_sum(model, X, eps, 1e-10)
        assert abs(got[0] - want[0]) <= 8.0 * np.spacing(want[0])
        assert abs(got[1] / want[1] - 1.0) <= 1e-3


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

    @pytest.mark.parametrize("fixture", ["zeta", "rs_small"])
    def test_allowance_covers_the_dropped_mass(self, fixture, request):
        # n_cutoff 30 sets the floor 1e-4 and n_cutoff 1e5 the floor 1e-10:
        # the shallow allowance must cover what the deeper series adds
        model = request.getfixturevalue(fixture)
        shallow = moment_series(model, 10.0, 5000.0, 30)
        deep = moment_series(model, 10.0, 5000.0, 10**5)
        assert abs(shallow.I1 - deep.I1) <= shallow.truncation_bound
        assert abs(shallow.I2 - deep.I2) <= shallow.truncation_bound

    def test_large_T_keeps_only_the_diagonal(self, zeta):
        # at eps = 2.8e-11 only m = n pairs survive, so I2 is the diagonal
        # product; the items span about 1e12 boxes, which the pair sum
        # must not walk
        X, T = 10.0, 1e12
        start = time.perf_counter()
        ms = moment_series(zeta, X, T, 10**4)
        assert time.perf_counter() - start < 10.0
        norm = math.sqrt(math.pi) / resonator_config(T).eps
        diagonal = math.prod(1.0 / (1.0 - q_of_prime(p, X) ** 2) for p in (2, 3, 5, 7))
        assert abs(ms.I2 - norm * diagonal) <= ms.truncation_bound

    def test_series_x_cap(self, zeta):
        with pytest.raises(DomainError):
            moment_series(zeta, 60.0, 5000.0, 100)

    def test_quadrature_step_domain(self, zeta):
        with pytest.raises(DomainError):
            moment_quadrature(zeta, 10.0, 5000.0, 0.0)

    def test_quadrature_x_cap(self, zeta):
        with pytest.raises(DomainError):
            moment_quadrature(zeta, 60.0, 5000.0, 0.04)

    def test_quadrature_refuses_when_halving_stops_helping(self):
        # zeta^40 at X = 6 is rounding-limited: at step 0.01 the finest
        # halving difference (3.2e11) exceeds the one before it (1.7e9);
        # steps 0.008 and 0.012 happen to pass, so only this step is pinned
        with pytest.raises(NumericError, match="^quadrature not converging under step halving"):
            moment_quadrature(make_zeta_power(40), 6.0, 100.0, 0.01)

    @pytest.mark.parametrize("level, column", [(2, 0), (0, 2), (1, 1)])
    def test_quadrature_refuses_a_nan_level(self, zeta, level, column, monkeypatch):
        # NaN compares False both ways, so it must not pass the halving check
        # as a converged value; nor may one the check does not read (Im I1)
        vals = np.array([[2.0, 0.0, 3.0], [2.0, 0.0, 3.0], [2.0, 0.0, 3.0]])
        vals[level, column] = math.nan
        monkeypatch.setattr(resonator, "_trapezoid_levels", lambda *args: vals)
        with pytest.raises(NumericError, match="^quadrature level not finite at step 0.04$"):
            moment_quadrature(zeta, 3.0, 5000.0, 0.04)

    @pytest.mark.filterwarnings("error")
    def test_series_refuses_an_overflowing_allowance(self):
        # zeta^1000's closed-form weight totals leave I1's halves dropped
        # weights of 5e226 and 8e158, whose product overflows: refused by
        # name, with no numpy warning and no inf truncation_bound
        with pytest.raises(NumericError, match="^I1 series allowance overflows a float: "
                                               "its dropped-weight term"):
            moment_series(make_zeta_power(1000), 3.0, 5000.0, 100)

    @pytest.mark.parametrize("fixture, X", [
        ("zeta", 10.0), ("zeta2", 12.0), ("root5", 14.0), ("rs_small", 10.0)])
    def test_series_bound_covers_cross_path_gap(self, fixture, X, request):
        # the series allowance plus the halving difference must cover the
        # whole distance between the two independent paths
        model = request.getfixturevalue(fixture)
        ms = moment_series(model, X, 5000.0, 10**5)
        mq = moment_quadrature(model, X, 5000.0, 0.04)
        allowance = ms.truncation_bound + mq.error_estimate
        assert abs(ms.I1 - mq.I1) <= allowance
        assert abs(ms.I2 - mq.I2) <= allowance


class TestTrapezoidSweep:
    T = 5000.0

    def intervals(self, step):
        t_max = 6.1 / resonator_config(self.T).eps
        return t_max, max(8, 2 * math.ceil(t_max / step))

    def test_one_sweep_over_the_finest_grid(self, zeta, monkeypatch):
        seen = []

        def counting(model, X, eps, t):
            seen.append(len(t))
            return _integrand_sums(model, X, eps, t)

        monkeypatch.setattr(resonator, "_integrand_sums", counting)
        moment_quadrature(zeta, 10.0, self.T, 0.04)
        _, n = self.intervals(0.04)
        assert sum(seen) == 2 * n + 1

    def test_levels_match_single_level_trapezoid(self, gauss):
        # step 0.02 puts the sweep's 7.2e5 nodes in 22 blocks of 2^15, the last one short
        X = 10.0
        eps = resonator_config(self.T).eps
        t_max, n = self.intervals(0.02)
        assert 2 * n + 1 > 1 << 19
        levels = _trapezoid_levels(gauss, X, eps, t_max, n)
        for got, m in zip(levels, (n // 2, n, 2 * n)):
            t = np.linspace(-t_max, t_max, m + 1)
            want = [np.trapezoid(v, t) for v in _integrand_sums(gauss, X, eps, t)]
            scale = max(abs(v) for v in want)
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-12 * scale


def test_cos_sin_from_one_tangent_within_stated_error():
    # phases up to 1e8: random ones, and the doubles nearest odd multiples of
    # pi/2 (cos near 0, tau near 1) and of pi (tau up to about 1e16)
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(2019)
    ks = [1, 3, 5, *rng.integers(1, 15 * 10**6, 40).tolist()]
    u = 2.0**-53
    with mpmath.workprec(120):
        phases = np.concatenate([
            rng.uniform(-1e8, 1e8, 300), rng.uniform(-10.0, 10.0, 100), [0.0, 1e8],
            [float((2 * k + 1) * mpmath.pi / 2) for k in ks],
            [float((2 * k + 1) * mpmath.pi) for k in ks], [float(k * mpmath.pi) for k in ks]])
        cos, sin = _cos_sin(phases * 0.5)
        for ph, c, s in zip(phases, cos, sin):
            exact = mpmath.mpf(float(ph))
            assert abs(float(mpmath.cos(exact) - c)) <= 6.0 * u, ph
            assert abs(float(mpmath.sin(exact) - s)) <= 3.5 * u, ph


@pytest.mark.parametrize("call", [
    lambda m: moment_quadrature(m, math.nan, 5000.0, 0.04),
    lambda m: moment_quadrature(m, 10.0, 5000.0, math.nan),
    lambda m: moment_series(m, math.nan, 5000.0, 100),
    lambda m: resonance_products_at_cutoff(m, math.nan),
    lambda m: euler_product_on_line(m, 10.0, math.nan),
    lambda m: truncated_product_at_1(m, math.nan),
], ids=["quadrature-X", "quadrature-step", "series-X", "resonance-X", "euler-product-Y",
        "truncated-product-x"])
def test_nan_cutoff_or_step_is_a_domain_error(call, zeta):
    with pytest.raises(DomainError):
        call(zeta)
