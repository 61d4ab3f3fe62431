import math

import numpy as np
import pytest

import olx.scan as scan_mod
from olx.errors import DomainError, ResourceError
from olx.evaluate import euler_product_on_line
from olx.expsum import exp_sum_on_grid
from olx.scan import bound_report, grid_scan, refine_peak


class TestExpSum:
    def test_against_direct(self):
        rng = np.random.default_rng(5)
        omega = np.sort(rng.uniform(0.5, 30.0, 500))
        coeff = rng.uniform(-1.0, 1.0, 500) / omega
        t0, step, n = 250.0, 0.05, 4096
        fast = exp_sum_on_grid(coeff, omega, t0, step, n)
        for j in (0, 1, 17, 2048, 4095):
            t = t0 + j * step
            direct = np.sum(coeff * np.exp(-1j * t * omega))
            assert abs(fast[j] - direct) < 1e-10

    def test_phase_step_guard(self):
        with pytest.raises(DomainError):
            exp_sum_on_grid(np.ones(1), np.array([10.0]), 0.0, 1.0, 64)

    def test_band_edge_accuracy(self):
        # a unit coefficient at the very edge of the admissible phase band
        omega = np.array([1.97])
        coeff = np.array([1.0])
        vals = exp_sum_on_grid(coeff, omega, 0.0, 1.0, 512)
        j = np.arange(512)
        exact = np.exp(-1j * j * 1.97)
        assert np.abs(vals - exact).max() < 2e-9


class TestGridScan:
    def test_single_point(self, zeta):
        recs = grid_scan(zeta, 42.0, 42.0, 1.0, 1000.0, 3)
        assert len(recs) == 1 and recs[0].t == 42.0
        assert recs[0].magnitude == abs(euler_product_on_line(zeta, 42.0, 1000.0))

    def test_top_k_larger_than_grid(self, zeta):
        recs = grid_scan(zeta, 10.0, 11.0, 0.25, 100.0, 50)
        assert len(recs) == 5
        mags = [r.magnitude for r in recs]
        assert mags == sorted(mags, reverse=True)

    def test_known_peak(self, zeta):
        recs = grid_scan(zeta, 171.0, 172.0, 0.01, 1e4, 1)
        assert abs(recs[0].t - 171.76) < 0.02
        assert recs[0].magnitude > 3.0

    def test_records_reproducible(self, zeta):
        for r in grid_scan(zeta, 100.0, 110.0, 0.05, 1000.0, 4):
            v = euler_product_on_line(zeta, r.t, r.Y)
            assert abs(abs(v) - r.magnitude) <= 1e-12 * r.magnitude
            assert r.phase == math.atan2(v.imag, v.real)

    def test_fast_path_matches_direct_path(self, zeta, monkeypatch):
        window = (1000.0, 1250.0, 0.02, 1e5, 5)
        fast = grid_scan(zeta, *window)
        monkeypatch.setattr(scan_mod, "_DIRECT_WORK_MAX", 1 << 62)
        slow = grid_scan(zeta, *window)
        assert [r.t for r in fast] == [r.t for r in slow]
        for a, b in zip(fast, slow):
            assert abs(a.magnitude - b.magnitude) <= 1e-12 * a.magnitude

    def test_deterministic(self, gauss):
        a = grid_scan(gauss, 50.0, 60.0, 0.01, 1000.0, 5)
        b = grid_scan(gauss, 50.0, 60.0, 0.01, 1000.0, 5)
        assert a == b

    def test_ties_prefer_smaller_t(self, zeta):
        # symmetric window: |F(1-it)| = |F(1+it)| exactly, so each magnitude
        # appears at +-t and the smaller t must lead
        recs = grid_scan(zeta, -8.0, 8.0, 1.0, 100.0, 6)
        seen = {}
        for rank, r in enumerate(recs):
            if r.magnitude in seen:
                assert seen[r.magnitude][1] < r.t
            else:
                seen[r.magnitude] = (rank, r.t)

    def test_refinement_improves_grid_max(self, zeta):
        coarse = grid_scan(zeta, 171.0, 172.0, 0.02, 1e4, 1)
        fine = grid_scan(zeta, 171.0, 172.0, 0.01, 1e4, 1)
        assert fine[0].magnitude >= coarse[0].magnitude

    def test_window_validation(self, zeta):
        with pytest.raises(DomainError):
            grid_scan(zeta, 10.0, 5.0, 0.1, 100.0, 1)
        with pytest.raises(DomainError):
            grid_scan(zeta, 10.0, 11.0, 2.0, 100.0, 1)
        with pytest.raises(DomainError):
            grid_scan(zeta, 10.0, 11.0, 0.1, 100.0, 0)

    def test_budgets(self, zeta):
        with pytest.raises(ResourceError):
            grid_scan(zeta, 0.0, 1e6, 1.0, 2e8, 1)
        with pytest.raises(ResourceError):
            grid_scan(zeta, 0.0, 1e6, 1e-3, 100.0, 1)
        with pytest.raises(ResourceError):
            grid_scan(zeta, 0.0, 2e8, 1.0, 100.0, 1)


class TestRefinePeak:
    def test_improves_on_seed(self, zeta):
        seed = grid_scan(zeta, 171.0, 172.0, 0.05, 1e4, 1)[0]
        ref = refine_peak(zeta, seed.t, seed.Y, 1e-6, 0.05)
        assert ref.refined
        assert ref.magnitude >= seed.magnitude

    def test_tol_equal_to_bracket_returns_seed(self, zeta):
        ref = refine_peak(zeta, 171.76, 1e4, 0.1, 0.05)
        assert ref.t == 171.76

    def test_tighter_tol_not_worse(self, zeta):
        seed_t = grid_scan(zeta, 171.0, 172.0, 0.05, 1e4, 1)[0].t
        a = refine_peak(zeta, seed_t, 1e4, 1e-5, 0.05)
        b = refine_peak(zeta, seed_t, 1e4, 1e-6, 0.05)
        assert b.magnitude >= a.magnitude - 1e-12

    def test_tol_floor(self, zeta):
        with pytest.raises(DomainError):
            refine_peak(zeta, 100.0, 1000.0, 1e-10, 0.05)


class TestBoundReport:
    def test_values_at_1e6(self, zeta):
        recs = grid_scan(zeta, 171.0, 172.0, 0.01, 1e4, 3)
        rep = bound_report(recs, zeta, 1e6)
        assert abs(rep.bound - 6.396) < 1e-3
        assert rep.max_magnitude == recs[0].magnitude
        assert rep.ratio > 0 and math.isfinite(rep.ratio)
        assert rep.difference == rep.max_magnitude - rep.bound

    def test_square_model_bound(self, zeta2):
        recs = grid_scan(zeta2, 100.0, 101.0, 0.5, 100.0, 1)
        rep = bound_report(recs, zeta2, 1e6)
        ll = math.log(math.log(1e6))
        want = math.exp(zeta2.gamma_f) * (ll + math.log(ll)) ** 2
        assert abs(rep.bound - want) < 1e-12
        assert rep.conjectural_form is None

    def test_empty_rejected(self, zeta):
        with pytest.raises(DomainError):
            bound_report([], zeta, 1e6)

    def test_no_verdict_field(self, zeta):
        recs = grid_scan(zeta, 10.0, 10.0, 1.0, 100.0, 1)
        rep = bound_report(recs, zeta, 1e6)
        assert not hasattr(rep, "verdict")
        assert not hasattr(rep, "passed")
