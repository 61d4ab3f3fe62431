import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import olx.scan as scan_mod
from olx.errors import BUDGETS, DomainError, NumericError, ResourceError
from olx.evaluate import euler_product_on_line
from olx.expsum import (_HALF_WIDTH, busiest_cell, error_bound, exp_sum_on_grid, grid_cells,
                        spaced_points)
from olx.lfamily import make_zeta_power
from olx.scan import _survivors, bound_report, grid_scan, refine_peak

T_MAX = BUDGETS["abs_t"].limit
CANDIDATES_PER_RECORD = BUDGETS["candidates"].limit


def _direct_log_re(coeff, omega, t0, step, n):
    """exp_sum_on_grid by direct summation, points x terms: the test oracle."""
    out = np.empty(n)
    block = max(1, (1 << 22) // max(1, len(omega)))
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        t = t0 + step * np.arange(lo, hi)
        out[lo:hi] = np.cos(t[:, None] * omega[None, :]) @ coeff
    return out


def _complex_grid(coeff, omega, t0, step, n):
    # exp_sum_on_grid returns the real part; Re(-i z) = Im z gives the rest
    return (exp_sum_on_grid(coeff, omega, t0, step, n)
            + 1j * exp_sum_on_grid(-1j * coeff, omega, t0, step, n))


def _scan_eps(monkeypatch, model, t_min, t_max, step, Y=1e5):
    """grid_scan's eps for this window, stopping before any grid value is computed."""
    class Stop(Exception):
        pass

    def first_eps(values, top_k, eps):
        seen.append(eps)
        raise Stop

    seen = []
    with monkeypatch.context() as m:
        m.setenv("OLX_THREADS", "1")
        m.setattr(scan_mod, "exp_sum_on_grid", lambda *args: np.zeros(1))
        m.setattr(scan_mod, "_survivors", first_eps)
        with pytest.raises(Stop):
            grid_scan(model, t_min, t_max, step, Y, 10)
    return seen[0]


class TestExpSum:
    def test_against_direct(self):
        rng = np.random.default_rng(5)
        omega = np.sort(rng.uniform(0.5, 30.0, 500))
        coeff = rng.uniform(-1.0, 1.0, 500) / omega
        t0, step, n = 250.0, 0.05, 4096
        fast = _complex_grid(coeff, omega, t0, step, n)
        for j in (0, 1, 17, 2048, 4095):
            t = t0 + j * step
            direct = np.sum(coeff * np.exp(-1j * t * omega))
            assert abs(fast[j] - direct) < 1e-10

    def test_empty_sum_is_zero(self):
        # no terms spread nothing, so the general path returns zeros
        for n in (1, 2, 5, 4096):
            vals = exp_sum_on_grid(np.empty(0), np.empty(0), 250.0, 0.05, n)
            assert vals.shape == (n,) and not vals.any()

    def test_phase_step_sweep(self):
        # the spreading is cyclic, so the error does not grow with the phase
        # step; 0.001 and 6.28 spread across the grid's wrap-around point
        j = np.arange(512)
        for theta in (0.001, 2.5, 3.1, 6.2, 6.28, 10.0, 57.6):
            vals = _complex_grid(np.ones(1), np.array([theta]), 0.0, 1.0, 512)
            assert np.abs(vals - np.exp(-1j * j * theta)).max() <= 1e-11

    def test_seeded_sweep_within_stated_bound(self):
        # theta = step * omega up to 400, t0 up to T_MAX, n from 2 to 2^12
        rng = np.random.default_rng(2024)
        for n in (2, 3, 17, 64, 511, 4096):
            for t0 in (0.0, -3e3, 7e5, -T_MAX / 2, T_MAX - 5e3):
                terms = int(rng.integers(1, 40))
                omega = rng.uniform(0.5, 20.0, terms)
                coeff = rng.uniform(-1.0, 1.0, terms) / omega
                step = rng.uniform(0.0, 400.0) / omega.max()
                t_abs = max(abs(t0), abs(t0 + (n - 1) * step))
                fast = exp_sum_on_grid(coeff, omega, t0, step, n)
                direct = _direct_log_re(coeff, omega, t0, step, n)
                assert np.abs(fast - direct).max() <= error_bound(coeff, omega, t_abs, n, step)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        theta=st.lists(st.one_of(
            st.floats(0.0, 1e-6),  # taps at and around cell 0
            st.floats(math.pi - 1e-6, math.pi + 1e-6),  # around cell nf/2
            st.floats(2 * math.pi - 1e-6, 2 * math.pi + 1e-6),  # across the wrap
            st.floats(0.0, 400.0),
        ), min_size=1, max_size=24),
        n=st.one_of(st.just(1), st.integers(1, 12).map(lambda e: 1 << e),
                    st.integers(1, 2047).map(lambda m: 2 * m + 1)),
        t0=st.one_of(st.floats(-1e3, 1e3), st.floats(-T_MAX, T_MAX)),
        step=st.floats(0.01, 1.0),
        data=st.data(),
    )
    def test_property_within_stated_bound(self, theta, n, t0, step, data):
        # theta = step * omega per term; the direct sum is the oracle
        omega = np.array(theta) / step
        coeff = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(theta),
                                            max_size=len(theta))))
        t_abs = max(abs(t0), abs(t0 + (n - 1) * step))
        fast = exp_sum_on_grid(coeff, omega, t0, step, n)
        direct = _direct_log_re(coeff, omega, t0, step, n)
        assert fast.shape == (n,)
        assert np.abs(fast - direct).max() <= error_bound(coeff, omega, t_abs, n, step)

    def test_band_edge_accuracy(self):
        # a unit coefficient at 1.97, the edge of the phase band the grid once admitted
        omega = np.array([1.97])
        coeff = np.array([1.0])
        vals = _complex_grid(coeff, omega, 0.0, 1.0, 512)
        j = np.arange(512)
        exact = np.exp(-1j * j * 1.97)
        assert np.abs(vals - exact).max() < 2e-9

    def test_spreading_across_the_grid_edges(self):
        # n = 512 spreads on nf = 1024 cells; terms placed within _HALF_WIDTH
        # cells of 0, nf/2 and nf, exactly at 0 and nf/2, and at the largest
        # float below nf, fold their taps across the ends of the half grid
        n, nf = 512, 1024
        scale = nf / (2.0 * math.pi)  # with step 1, a term sits at mod(omega, 2 pi) * scale
        near = [0.25, 1.0, 6.5, 12.9, 13.0, nf / 2 - 13, nf / 2 - 0.3, nf / 2 + 0.7,
                nf / 2 + 12.5, nf - 13.2, nf - 1.0]
        exact = [0.0, math.pi, np.nextafter(2.0 * math.pi, 0.0)]
        assert [np.mod(w, 2.0 * math.pi) * scale for w in exact] == [0.0, nf / 2,
                                                                     np.nextafter(nf, 0.0)]
        omega = np.array([x / scale for x in near] + exact)
        xs = near + ["0", "nf/2", "below nf"]
        coeff = np.random.default_rng(3).uniform(-1.0, 1.0, len(xs))
        for t0 in (0.0, 37.5, -1e4):
            t_abs = max(abs(t0), abs(t0 + n - 1))
            for k in range(len(xs)):
                one = exp_sum_on_grid(coeff[k:k + 1], omega[k:k + 1], t0, 1.0, n)
                direct = _direct_log_re(coeff[k:k + 1], omega[k:k + 1], t0, 1.0, n)
                assert np.abs(one - direct).max() <= error_bound(coeff[k:k + 1], omega[k:k + 1],
                                                                 t_abs, n, 1.0), xs[k]
            fast = exp_sum_on_grid(coeff, omega, t0, 1.0, n)
            direct = _direct_log_re(coeff, omega, t0, 1.0, n)
            assert np.abs(fast - direct).max() <= error_bound(coeff, omega, t_abs, n, 1.0)

    @pytest.mark.parametrize("n", [512, 257])  # oversampled 1.5x and about 3x
    def test_spreading_across_the_edges_of_the_real_grid(self, n):
        # the same placements on the grid exp_sum_on_grid really uses
        nf, w = grid_cells(n), _HALF_WIDTH
        assert nf == 768
        scale = nf / (2.0 * math.pi)  # with step 1, a term sits at mod(omega, 2 pi) * scale
        near = [0.25, 1.0, w / 2, w - 0.1, w, nf / 2 - w, nf / 2 - 0.3, nf / 2 + 0.7,
                nf / 2 + w - 0.5, nf - w - 0.2, nf - 1.0]
        exact = [0.0, math.pi, np.nextafter(2.0 * math.pi, 0.0)]
        assert [np.mod(x, 2.0 * math.pi) * scale for x in exact] == [0.0, nf / 2,
                                                                     np.nextafter(nf, 0.0)]
        omega = np.array([x / scale for x in near] + exact)
        xs = near + ["0", "nf/2", "below nf"]
        coeff = np.random.default_rng(4).uniform(-1.0, 1.0, len(xs))
        for t0 in (0.0, 37.5, -1e4):
            t_abs = max(abs(t0), abs(t0 + n - 1))
            for k in range(len(xs)):
                one = exp_sum_on_grid(coeff[k:k + 1], omega[k:k + 1], t0, 1.0, n)
                direct = _direct_log_re(coeff[k:k + 1], omega[k:k + 1], t0, 1.0, n)
                assert np.abs(one - direct).max() <= error_bound(coeff[k:k + 1], omega[k:k + 1],
                                                                 t_abs, n, 1.0), xs[k]
            fast = exp_sum_on_grid(coeff, omega, t0, 1.0, n)
            direct = _direct_log_re(coeff, omega, t0, 1.0, n)
            assert np.abs(fast - direct).max() <= error_bound(coeff, omega, t_abs, n, 1.0)

    def test_busiest_cell_matches_a_per_cell_count(self):
        # every tap sent to its cell of h one by one, padding folded by reflection
        rng = np.random.default_rng(11)
        for n in (1, 100, 512, 4096):
            nf = grid_cells(n)
            for _ in range(6):
                step = rng.uniform(0.01, 2.0)
                theta = np.concatenate([
                    rng.uniform(0.0, 400.0, int(rng.integers(1, 50))),
                    rng.uniform(0.0, 2e-3, int(rng.integers(0, 30))),  # crowded around cell 0
                    rng.uniform(math.pi - 2e-3, math.pi, int(rng.integers(0, 30))),  # below nf/2
                    [0.0, math.pi, 2.0 * math.pi],  # on cells 0 and nf/2
                ])
                omega = theta / step
                x = np.mod(step * omega, 2.0 * math.pi) * (nf / (2.0 * math.pi))
                m0 = np.floor(np.where(x > nf // 2, nf - x, x)).astype(int)
                counts = np.zeros(nf // 2 + 1, dtype=int)
                for cell in (m0[:, None] + np.arange(-_HALF_WIDTH, _HALF_WIDTH + 1)).ravel():
                    counts[-cell if cell < 0 else nf - cell if cell > nf // 2 else cell] += 1
                assert busiest_cell(omega, step, nf) == counts.max()
                assert busiest_cell(omega, step, nf) <= 2 * len(omega)
        # two terms 2 _HALF_WIDTH cells apart share only the cell midway between them
        nf = grid_cells(512)
        y = np.array([200.5, 200.5 + 2 * _HALF_WIDTH])
        assert busiest_cell(y * (2.0 * math.pi / nf), 1.0, nf) == 2

    def test_spaced_points_are_oversampled_about_3_times(self):
        for n in list(range(2, 3000)) + [2**18, 2**18 + 1, 2**19 - 1, 2**19]:
            m = spaced_points(n)
            assert m <= n and (m - 1) & (m - 2) == 0  # 2^j + 1
            assert m == n or spaced_points(m) == m and 2 * m - 1 > n
            assert grid_cells(m) == max(96, 3 * (m - 1))  # r = m/nf just over 1/3 or below

    def test_counted_taps_keep_the_readme_scan_eps(self, zeta, monkeypatch):
        # eps of the README zeta scan; it was 2.4977e-8 on the 2x grid
        assert abs(_scan_eps(monkeypatch, zeta, 10.0, 1e6, 0.05) / 2.4977e-8 - 1.0) <= 0.05

    def test_short_last_chunk_keeps_the_eps(self, zeta, monkeypatch):
        # 3 points past two whole chunks: the third chunk still spans 2^19
        # points, ending at the last grid point and overlapping the second,
        # so eps moves only with t_abs
        whole = _scan_eps(monkeypatch, zeta, 1e6, 1e6 + (2 * 2**19 - 1) * 0.05, 0.05)
        longer = _scan_eps(monkeypatch, zeta, 1e6, 1e6 + (2 * 2**19 + 2) * 0.05, 0.05)
        assert abs(longer / whole - 1.0) <= 1e-3

    def test_reused_buffers_leave_results_alone(self):
        rng = np.random.default_rng(8)
        omega = rng.uniform(0.5, 30.0, 300)
        coeff = rng.uniform(-1.0, 1.0, 300) / omega
        first = exp_sum_on_grid(coeff, omega, 100.0, 0.05, 4096)
        kept = first.copy()
        second = exp_sum_on_grid(coeff, omega, 300.0, 0.05, 4096)
        assert second is not first and not np.shares_memory(first, second)
        assert np.array_equal(first, kept)
        # a call on another grid size in between changes nothing after it
        exp_sum_on_grid(coeff, omega, 0.0, 0.05, 100)
        again = exp_sum_on_grid(coeff, omega, 300.0, 0.05, 4096)
        script = ("import sys, numpy as np; from olx.expsum import exp_sum_on_grid; "
                  "rng = np.random.default_rng(8); omega = rng.uniform(0.5, 30.0, 300); "
                  "coeff = rng.uniform(-1.0, 1.0, 300) / omega; "
                  "sys.stdout.write(exp_sum_on_grid(coeff, omega, 300.0, 0.05, 4096).tobytes().hex())")
        fresh = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                               check=True, timeout=60).stdout
        assert again.tobytes().hex() == fresh == second.tobytes().hex()

    def test_concurrent_calls_match_serial_calls(self):
        # more threads than cores, with frequent switches between them; every
        # job spreads on the same 2^16-cell grid, so a buffer shared between
        # threads would be overwritten while in use
        rng = np.random.default_rng(9)
        omega = rng.uniform(0.5, 30.0, 2000)
        coeff = rng.uniform(-1.0, 1.0, 2000) / omega
        jobs = [(50.0 * i, 0.05, (32768, 20000)[i % 2]) for i in range(24)]
        serial = [exp_sum_on_grid(coeff, omega, *job) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(exp_sum_on_grid, coeff, omega, *job) for job in jobs]
                concurrent = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(serial, concurrent):
            assert a.tobytes() == b.tobytes()


class TestGridScan:
    def test_single_point(self, zeta):
        recs = grid_scan(zeta, 42.0, 42.0, 1.0, 1000.0, 3)
        assert len(recs) == 1 and recs[0].t == 42.0
        assert recs[0].magnitude == abs(euler_product_on_line(zeta, 42.0, 1000.0))

    def test_underflowed_record_says_so(self):
        # |F(1 + it; 1e3)| for zeta^1000 rounds to 0.0 near t = 947: a zero
        # magnitude is refused as underflowed, not as non-finite
        t = 946.9566561575173
        with pytest.raises(NumericError, match=f"^product magnitude underflowed at t = {t}$"):
            grid_scan(make_zeta_power(1000), t, t, 1.0, 1e3, 1)

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
        monkeypatch.setattr(scan_mod, "exp_sum_on_grid", _direct_log_re)
        slow = grid_scan(zeta, *window)
        assert [r.t for r in fast] == [r.t for r in slow]
        for a, b in zip(fast, slow):
            assert abs(a.magnitude - b.magnitude) <= 1e-12 * a.magnitude

    def test_coarse_step_fast_path_matches_direct_path(self, zeta, monkeypatch):
        # step * max(omega) is about 20; the FFT path transforms each
        # requested grid point exactly once, with no finer grid
        window = (1000.0, 6000.0, 0.5, 1e4, 5)
        points = []

        def counting(coeffs, omegas, t0, step, n):
            points.append(n)
            return exp_sum_on_grid(coeffs, omegas, t0, step, n)

        monkeypatch.setattr(scan_mod, "exp_sum_on_grid", counting)
        fast = grid_scan(zeta, *window)
        assert sum(points) == 10001
        monkeypatch.setattr(scan_mod, "exp_sum_on_grid", _direct_log_re)
        slow = grid_scan(zeta, *window)
        assert [r.t for r in fast] == [r.t for r in slow]
        for a, b in zip(fast, slow):
            assert abs(a.magnitude - b.magnitude) <= 1e-12 * a.magnitude

    def test_crowded_terms_take_spaced_chunks(self, zeta, monkeypatch):
        # at step 1e-5 and Y = 1e3 every term taps the same few cells, so the
        # 3,000 points run as two chunks of 2^11 + 1 points on 3 * 2^11
        # cells, the second ending at the last point; the records are still
        # the top k of a standalone product at every grid point
        t_min, step, n, Y = 2000.0, 1e-5, 3000, 1e3
        window = (t_min, t_min + (n - 1) * step, step, Y)
        oracle = sorted((-abs(euler_product_on_line(zeta, t_min + i * step, Y)), t_min + i * step)
                        for i in range(n))
        calls = []

        def recording(coeffs, omegas, t0, step, n):
            calls.append((round((t0 - t_min) / step), n))
            return exp_sum_on_grid(coeffs, omegas, t0, step, n)

        monkeypatch.setattr(scan_mod, "exp_sum_on_grid", recording)
        for threads in ("1", "2"):
            monkeypatch.setenv("OLX_THREADS", threads)
            recs = grid_scan(zeta, *window, 5)
            assert [(-r.magnitude, r.t) for r in recs] == oracle[:5]
        assert sorted(set(calls)) == [(0, 2049), (n - 2049, 2049)]

    def test_crowded_scan_keeps_its_candidates_in_budget(self, zeta, monkeypatch):
        # 2^19 points at step 1e-6: on one 1.5x-oversampled chunk eps would
        # be 2.2e-7 and 1,306 points would lie within 2 eps of the top 10
        # (budget 640); on two 3x-oversampled chunks eps is 2.4e-10
        window = (1000.0, 1000.0 + (2**19 - 1) * 1e-6, 1e-6)
        assert _scan_eps(monkeypatch, zeta, *window) < 1e-9
        recs = grid_scan(zeta, *window, 1e5, 10)
        assert len(recs) == 10
        assert [r.magnitude for r in recs] == sorted((r.magnitude for r in recs), reverse=True)

    @pytest.mark.parametrize("model, window", [
        ("zeta", (100.0, 110.0, 0.05, 1e3)),
        ("gauss", (-6.0, 6.0, 0.25, 300.0)),
    ], ids=["asymmetric", "symmetric"])
    def test_records_are_top_k_of_full_grid(self, model, window, request):
        # oracle: a standalone product at every grid point, ranked by
        # (-magnitude, t); in the symmetric window every value is a +-t tie,
        # and each even k cuts a tie in two
        model = request.getfixturevalue(model)
        t_min, t_max, step, Y = window
        n = int(math.floor((t_max - t_min) / step + 1.0 + 1e-9))
        grid = [t_min + i * step for i in range(n)]
        oracle = sorted((-abs(euler_product_on_line(model, t, Y)), t) for t in grid)
        for k in range(1, 13):
            recs = grid_scan(model, *window, k)
            assert [(-r.magnitude, r.t) for r in recs] == oracle[:k]

    @pytest.mark.parametrize("model, window", [
        ("zeta", (100.0, 110.0, 0.05, 1e3)),
        ("gauss", (-6.0, 6.0, 0.25, 300.0)),
    ], ids=["asymmetric", "symmetric"])
    def test_chunk_boundaries_keep_the_records(self, model, window, request, monkeypatch):
        # chunks of 64 points, and of 8, which leave one point past the last
        # whole chunk (201 = 25 * 8 + 1, 49 = 6 * 8 + 1): every chunk of a
        # scan has one length, the last ending at the last grid point, and
        # the records equal the unchunked run and the standalone product at
        # every grid point
        model = request.getfixturevalue(model)
        t_min, t_max, step, Y = window
        n = int(math.floor((t_max - t_min) / step + 1.0 + 1e-9))
        grid = [t_min + i * step for i in range(n)]
        oracle = sorted((-abs(euler_product_on_line(model, t, Y)), t) for t in grid)
        ks = (1, 2, 5, 12)
        whole = {k: grid_scan(model, *window, k) for k in ks}
        for k in ks:
            assert [(-r.magnitude, r.t) for r in whole[k]] == oracle[:k]
        scans = []

        def recording(coeffs, omegas, t0, step, m):
            scans[-1].append((round((t0 - t_min) / step), m))  # (first grid index, length)
            return exp_sum_on_grid(coeffs, omegas, t0, step, m)

        monkeypatch.setattr(scan_mod, "exp_sum_on_grid", recording)
        for chunk in (64, 8):
            monkeypatch.setattr(scan_mod, "_CHUNK", chunk)
            for threads in ("1", "2"):
                monkeypatch.setenv("OLX_THREADS", threads)
                for k in ks:
                    scans.append([])
                    assert grid_scan(model, *window, k) == whole[k]
        for calls in scans:
            assert len({m for _, m in calls}) == 1
            assert max(start + m for start, m in calls) == n

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


class TestSelection:
    def test_planted_near_ties_survive(self):
        # true values with near-ties below 1e-11 at and around the k-th;
        # the grid sees them moved by up to eps in either direction
        rng = np.random.default_rng(11)
        eps, k = 3e-11, 4
        for _ in range(200):
            true = rng.uniform(0.0, 1.0, 500)
            top = np.argsort(-true)[:k + 3]
            true[top] = 2.0 + rng.uniform(0.0, 1e-11, len(top))
            seen = true + rng.uniform(-eps, eps, len(true))
            best = sorted(range(len(true)), key=lambda i: (-true[i], i))[:k]
            assert set(best) <= set(_survivors(seen, k, eps).tolist())

    def test_flat_values_hit_the_budget(self):
        flat = np.zeros(CANDIDATES_PER_RECORD * 3 + 1)
        with pytest.raises(ResourceError):
            _survivors(flat, 3, 1e-12)

    def test_budget_counts_only_near_values(self):
        values = np.arange(CANDIDATES_PER_RECORD * 10, dtype=float)
        assert _survivors(values, 2, 1e-12).tolist() == [len(values) - 2, len(values) - 1]


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

    def test_bracket_stays_within_phase_budget(self, zeta):
        # a grid record at the edge of the budget can still be refined
        for seed in (T_MAX, -T_MAX):
            ref = refine_peak(zeta, seed, 100.0, 1e-6, 0.5)
            assert abs(ref.t) <= T_MAX and ref.refined

    def test_tol_floor(self, zeta):
        with pytest.raises(DomainError):
            refine_peak(zeta, 100.0, 1000.0, 1e-10, 0.05)

    def test_evaluates_no_point_twice(self, zeta, monkeypatch):
        evaluated = []

        def recording(model, t, Y):
            evaluated.append(t)
            return euler_product_on_line(model, t, Y)

        monkeypatch.setattr(scan_mod, "euler_product_on_line", recording)
        for seed, tol in ((171.76, 1e-6), (171.76, 0.1), (1000.3, 1e-4)):
            evaluated.clear()
            ref = refine_peak(zeta, seed, 1e4, tol, 0.05)
            assert len(evaluated) == len(set(evaluated))
            assert ref.t in evaluated


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
