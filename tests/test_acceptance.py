"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The headline growth bound is asymptotic with an
unknown additive constant, so acceptance rests on computable identities,
convergent quantities, and pinned regressions.
"""
import math
import os
import subprocess
import sys
import time

import pytest

from olx.evaluate import calibrate_truncation, zeta_em, zeta_eta
from olx.lfamily import (
    EULER_GAMMA,
    dirichlet_L1,
    make_dedekind_quadratic,
    make_rankin_selberg_delta,
    make_zeta_power,
    sym2_residue,
    tau_table,
)
from olx.mertens import truncated_product_at_1
from olx.resonator import (
    moment_quadrature,
    moment_series,
    resonance_products_at_cutoff,
)
from olx.scan import bound_report, grid_scan
from olx.primes import sieve_primes

# pinned by the first oracle runs and frozen
SCAN_MAX_PIN = 5.560443096730904
SCAN_MAX_T_PIN = 534573.7
CALIBRATION_MEDIAN_PIN = 2.131014541937540e-04
CALIBRATION_MAX_PIN = 7.809942039844420e-04


def report(n, text, t0):
    print(f"\nACCEPTANCE {n} PASS ({time.time() - t0:.1f}s): {text}")


def test_criterion_01_mertens_third_theorem():
    t0 = time.time()
    model = make_zeta_power(1)
    ratio = truncated_product_at_1(model, 1e6) / (math.exp(EULER_GAMMA) * math.log(1e6))
    assert 0.995 <= ratio <= 1.005
    report(1, f"zeta ratio at 1e6 = {ratio:.6f} in [0.995, 1.005]", t0)


def test_criterion_02_generalized_mertens_square():
    t0 = time.time()
    z1 = make_zeta_power(1)
    z2 = make_zeta_power(2)
    ratio = truncated_product_at_1(z2, 1e6) / (
        math.exp(2 * EULER_GAMMA) * math.log(1e6) ** 2
    )
    assert abs(ratio - 1) <= 0.01
    p1 = truncated_product_at_1(z1, 1e6)
    p2 = truncated_product_at_1(z2, 1e6)
    assert abs(p2 / p1**2 - 1) < 1e-12
    report(2, f"square-model ratio = {ratio:.6f}; power-law identity to 1e-12", t0)


def test_criterion_03_quadratic_fields():
    t0 = time.time()
    phi = (1 + math.sqrt(5)) / 2
    cases = [(-4, math.pi / 4), (5, 2 * math.log(phi) / math.sqrt(5))]
    ratios = []
    for d, residue_closed in cases:
        model = make_dedekind_quadratic(d)
        pred = residue_closed * math.exp(EULER_GAMMA) * math.log(1e6)
        ratio = truncated_product_at_1(model, 1e6) / pred
        assert abs(ratio - 1) <= 0.01, d
        ratios.append(ratio)
    report(3, f"d=-4 ratio {ratios[0]:.6f}, d=5 ratio {ratios[1]:.6f}, both within 1%", t0)


def test_criterion_04_rankin_selberg():
    t0 = time.time()
    model = make_rankin_selberg_delta(10**4)
    rho, tail = sym2_residue(10**4)
    pred = rho * math.exp(EULER_GAMMA) * math.log(1e4)
    ratio = truncated_product_at_1(model, 1e4) / pred
    assert abs(ratio - 1) <= 0.05
    report(4, f"degree-4 ratio = {ratio:.6f} within 5% (tail estimate {tail:.1e})", t0)


def test_criterion_05_resonance_factorization():
    t0 = time.time()
    models = [
        make_zeta_power(1),
        make_zeta_power(2),
        make_dedekind_quadratic(-4),
        make_rankin_selberg_delta(2000),
    ]
    worst = 0.0
    for model in models:
        for X in (10.0, 100.0, 1000.0):
            res, mer, dft = resonance_products_at_cutoff(model, X)
            worst = max(worst, abs(res / (mer * dft) - 1))
    assert worst < 1e-12
    report(5, f"identity over 4 families x 3 cutoffs, worst residual {worst:.2e}", t0)


def test_criterion_06_moment_inequality():
    t0 = time.time()
    details = []
    for model in (make_zeta_power(1), make_dedekind_quadratic(-4)):
        ser = moment_series(model, 20.0, 5000.0, 10**5)
        quad = moment_quadrature(model, 20.0, 5000.0, 0.04)
        res, _, _ = resonance_products_at_cutoff(model, 20.0)
        allowance = (ser.truncation_bound + quad.error_estimate) / quad.I2
        assert quad.I1 / quad.I2 >= res - allowance, model.label
        agreement = abs(quad.I2 - ser.I2) / quad.I2
        assert agreement <= 1e-6, model.label
        details.append(
            f"{model.label}: I1/I2 = {quad.I1 / quad.I2:.4f} >= {res:.4f}, "
            f"I2 agreement {agreement:.2e}"
        )
    report(6, "; ".join(details), t0)


def test_criterion_07_oracle_agreement():
    t0 = time.time()
    worst = 0.0
    for i in range(20):
        t = 1.0 + i * (99.0 / 19.0)
        a = zeta_em(complex(1.0, t))
        b = zeta_eta(complex(1.0, t))
        worst = max(worst, abs(a - b) / (1 + abs(a)))
    assert worst <= 1e-10
    l1 = dirichlet_L1(-4)
    assert abs(l1 - math.pi / 4) <= 1e-9
    report(7, f"zeta oracles agree to {worst:.2e}; L(1) for d=-4 = pi/4 to 1e-9", t0)


def test_criterion_08_truncation_calibration():
    t0 = time.time()
    stats = calibrate_truncation(make_zeta_power(1), (100.0, 1000.0), 1e6, 100, 1)
    assert stats.median <= 0.02
    assert stats.max <= 0.1
    # frozen regression for the pinned seed
    assert abs(stats.median / CALIBRATION_MEDIAN_PIN - 1) < 1e-6
    assert abs(stats.max / CALIBRATION_MAX_PIN - 1) < 1e-6
    report(8, f"median deviation {stats.median:.2e} <= 0.02, max {stats.max:.2e} <= 0.1", t0)


def test_criterion_09_coefficient_bound_and_multiplicativity():
    t0 = time.time()
    N = 10**4
    table = tau_table(N)
    for p in sieve_primes(N):
        p = int(p)
        assert table.tau(p) ** 2 <= 4 * p**11, p
    vals = [0] + [table.tau(n) for n in range(1, N + 1)]
    checked = 0
    for m in range(2, N):
        if m * 2 > N:
            break
        for n in range(2, N // m + 1):
            if math.gcd(m, n) == 1:
                assert vals[m * n] == vals[m] * vals[n], (m, n)
                checked += 1
    report(9, f"two-sided bound at all p <= 1e4; multiplicativity on {checked} pairs", t0)


@pytest.mark.parametrize(
    "cmd",
    [
        ["mertens", "--model", "zeta", "--x", "1e6", "--format", "csv"],
        ["scan", "--model", "zeta", "--t-min", "171", "--t-max", "172",
         "--step", "0.01", "--Y", "1e5", "--top-k", "5", "--format", "csv"],
    ],
    ids=["mertens", "scan"],
)
def test_criterion_10_determinism_across_workers(cmd):
    t0 = time.time()
    bodies = []
    for threads in ("1", "4"):
        env = dict(os.environ, OLX_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "olx.cli", *cmd],
            capture_output=True, env=env, check=True,
        )
        bodies.append(proc.stdout.split(b"\n", 1)[1])
    assert bodies[0] == bodies[1]
    report(10, f"bit-identical output for OLX_THREADS in {{1, 4}}: {cmd[0]}", t0)


def test_criterion_11_scan_regression():
    t0 = time.time()
    model = make_zeta_power(1)
    records = grid_scan(model, 10.0, 1e6, 0.05, 1e5, 10)
    best = records[0]
    assert best.magnitude >= 2.0
    assert abs(best.magnitude / SCAN_MAX_PIN - 1) < 1e-9
    assert abs(best.t - SCAN_MAX_T_PIN) < 0.05
    rep = bound_report(records, model, 1e6)
    assert abs(rep.bound - 6.396) < 1e-3
    assert not hasattr(rep, "verdict")
    report(
        11,
        f"max |F| = {best.magnitude:.6f} at t = {best.t:.2f} (pinned, >= 2.0); "
        f"bound(1e6) = {rep.bound:.4f}, no verdict attached",
        t0,
    )
