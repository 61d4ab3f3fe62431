"""Property suite for the library's error contract.

Every public function of `olx.__all__` either returns finite values or
raises an `OlxError`: never a NaN, an inf, a silently truncated argument
or a bare exception. Each argument is drawn from values it accepts and
from extremes: non-finite, zero, negative, huge and non-integer numbers.
The budgets are shrunk for the whole module, so a valid draw that would
run long is refused instead, and the suite stays within a few seconds.

Left out of the draws: the exceptions and the record types (plain
dataclasses that check nothing), and prime-block arguments, which are
drawn as ascending prime arrays (the functions that take them document
that contract; the extremes go to their other arguments).
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import olx
from olx.errors import BUDGETS, OlxError

# shrunk budgets: each keeps the shipped ones' type, so int limits stay ints
SMALL_BUDGETS = {
    "sieve_limit": 1 << 17, "Y": 100_000, "abs_t": 1e3, "samples": 3, "grid_points": 2000,
    "top_k": 3, "tau_N": 100, "zeta_power": 3, "abs_d": 1000, "enum_items": 100_000,
    "quad_nodes": 10_000, "charsum_head": 1 << 16, "eta_terms": 300,
}

EXTREMES = [math.nan, math.inf, -math.inf, 0, 0.0, -1, -2.5, 2.5, 1e300, -1e300, 10**30]


def num(lo, hi):
    """A float in [lo, hi] three times in four, else an extreme."""
    return st.one_of(st.floats(lo, hi), st.floats(lo, hi), st.floats(lo, hi),
                     st.sampled_from(EXTREMES))


def count(lo, hi):
    """An integer in [lo, hi] three times in four, else an extreme."""
    return st.one_of(st.integers(lo, hi), st.integers(lo, hi), st.integers(lo, hi),
                     st.sampled_from(EXTREMES))


@pytest.fixture(scope="module", autouse=True)
def small_budgets():
    with pytest.MonkeyPatch.context() as mp:
        for name, limit in SMALL_BUDGETS.items():
            mp.setitem(BUDGETS, name, BUDGETS[name]._replace(limit=limit))
        yield


@pytest.fixture(scope="module")
def models():
    return [olx.make_zeta_power(1), olx.make_zeta_power(2), olx.make_dedekind_quadratic(-4),
            olx.make_dedekind_quadratic(5), olx.make_rankin_selberg_delta(50)]


PRIME_BLOCKS = st.sampled_from([[2], [2, 3, 5, 7], [11, 13, 97], [7919]]).map(np.array)
DISCRIMINANTS = st.one_of(st.sampled_from([-4, 5, -3, 8, -7, 12, 9, 1, -12]), count(-1000, 1000))


def records(draw):
    return [olx.ScanRecord(t=draw(num(-1e3, 1e3)), magnitude=draw(num(0.0, 1e3)),
                           phase=draw(num(-4.0, 4.0)), Y=draw(num(2.0, 1e5)), refined=False)
            for _ in range(draw(st.integers(0, 3)))]


# per callable: draw(data, model) -> the positional arguments of one call
CALLS = {
    "asymptotic_bound": lambda d, m: (m, d(num(1.0, 1e12))),
    "bound_report": lambda d, m: (records(d), m, d(num(1.0, 1e12))),
    "calibrate_truncation": lambda d, m: (m, (d(num(-1e3, 1e3)), d(num(-1e3, 1e3))),
                                          d(num(0.0, 1e4)), d(count(0, 3)),
                                          d(count(-2**70, 2**70))),
    "dirichlet_L1": lambda d, m: (d(DISCRIMINANTS),),
    "dirichlet_direct": lambda d, m: (d(DISCRIMINANTS), d(num(-1e3, 1e3))),
    "euler_product_on_line": lambda d, m: (m, d(num(-1e3, 1e3)), d(num(0.0, 1e4))),
    "grid_scan": lambda d, m: (m, d(num(-1e3, 1e3)), d(num(-1e3, 1e3)), d(num(0.0, 50.0)),
                               d(num(0.0, 1e4)), d(count(0, 4))),
    "is_fundamental_discriminant": lambda d, m: (d(DISCRIMINANTS),),
    "kronecker": lambda d, m: (d(DISCRIMINANTS), d(count(-5, 10**6))),
    "make_dedekind_quadratic": lambda d, m: (d(DISCRIMINANTS),),
    "make_rankin_selberg_delta": lambda d, m: (d(count(0, 120)),),
    "make_zeta_power": lambda d, m: (d(count(-1, 4)),),
    "mertens_prediction": lambda d, m: (m, d(num(-10.0, 1e12))),
    "mertens_report": lambda d, m: (m, d(st.lists(num(0.0, 1e5), max_size=3))),
    "moment_quadrature": lambda d, m: (m, d(num(0.0, 60.0)), d(num(1.0, 300.0)),
                                       d(num(0.0, 2.0))),
    "moment_series": lambda d, m: (m, d(num(0.0, 60.0)), d(num(1.0, 300.0)),
                                   d(count(0, 1000))),
    "parse_model": lambda d, m: (d(st.one_of(
        st.sampled_from(["zeta", "zeta^2", "zeta^2.5", "zeta^nan", "dedekind:5",
                         "dedekind:5.0", "dedekind:2.5", "rs-delta:60", "rs-delta:60.5"]),
        st.text(max_size=8))),),
    "power_sum": lambda d, m: (m, d(PRIME_BLOCKS), d(count(-2, 40))),
    "q_of_prime": lambda d, m: (d(st.one_of(count(2, 100), PRIME_BLOCKS)), d(num(-10.0, 100.0))),
    "refine_peak": lambda d, m: (m, d(num(-1e3, 1e3)), d(num(0.0, 1e4)), d(num(0.0, 1.0)),
                                 d(num(0.0, 10.0))),
    "resonance_product": lambda d, m: (m, d(num(1.0, 1e300)), d(st.one_of(st.none(),
                                                                          num(0.0, 100.0)))),
    "resonance_products_at_cutoff": lambda d, m: (m, d(num(-10.0, 1e3))),
    "resonator_config": lambda d, m: (d(num(1.0, 1e300)),),
    # segments of fewer than 2^10 numbers are valid but run one Python loop per prime
    # per segment, so only the extremes go below that
    "sieve_primes": lambda d, m: (d(num(0.0, 1e5)), d(count(1 << 10, 1 << 16))),
    "sym2_residue": lambda d, m: (d(count(0, 120)),),
    "tau_table": lambda d, m: (d(count(-1, 120)),),
    "truncated_product_at_1": lambda d, m: (m, d(num(0.0, 1e5))),
    "zeta_em": lambda d, m: (complex(d(num(-3.0, 3.0)), d(num(-1e3, 1e3))),),
    "zeta_eta": lambda d, m: (complex(d(num(-3.0, 3.0)), d(num(-1e3, 1e3))),),
}

RECORD_TYPES = {"BoundReport", "CalibrationStats", "LFunctionModel", "MertensReport",
                "MomentQuadrature", "MomentSeries", "ResonanceReport", "ResonatorConfig",
                "ScanRecord", "TauTable"}


def finite(value) -> bool:
    """Whether every number inside value (records, tuples, arrays) is finite."""
    if value is None or isinstance(value, str):
        return True
    if isinstance(value, olx.LFunctionModel):  # coeff_cutoff is inf where no table caps it
        return finite((value.residue, value.residue_tail))
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return all(finite(v) for v in value)
    return bool(np.all(np.isfinite(np.asarray(value))))


def test_every_public_callable_is_drawn_or_named_as_a_record():
    public = {name for name in olx.__all__ if callable(getattr(olx, name))
              and not (isinstance(getattr(olx, name), type)
                       and issubclass(getattr(olx, name), Exception))}
    assert public == set(CALLS) | RECORD_TYPES


@pytest.mark.parametrize("name", list(CALLS))
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(data=st.data())
def test_returns_finite_values_or_raises_an_olx_error(name, data, models):
    model = data.draw(st.sampled_from(models), label="model")
    args = CALLS[name](data.draw, model)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = getattr(olx, name)(*args)
        except OlxError:
            return
    assert finite(result), (name, args, result)


ZETA = olx.make_zeta_power(1)
ZETA_3000 = olx.make_zeta_power(3000)  # built here, past the shrunk "zeta_power" budget

# inputs the suite or a probe found answered with a bare exception, a NaN or a
# silently truncated argument; each is refused at its own site
EXPLICIT = {
    "q_of_prime-zero-cutoff": lambda: olx.q_of_prime(2, 0.0),
    "q_of_prime-nan-cutoff": lambda: olx.q_of_prime(2, math.nan),
    "make_zeta_power-non-integer": lambda: olx.truncated_product_at_1(
        olx.make_zeta_power(2.5), 100.0),
    "tau_table-non-integer": lambda: olx.tau_table(2.5),
    "sym2_residue-non-integer": lambda: olx.sym2_residue(2.5),
    "make_rankin_selberg_delta-non-integer": lambda: olx.make_rankin_selberg_delta(2.5),
    "make_dedekind_quadratic-float": lambda: olx.make_dedekind_quadratic(5.0),
    "refine_peak-nan-tol": lambda: olx.refine_peak(ZETA, 100.0, 1e3, math.nan, 0.5),
    "calibrate_truncation-non-integer-count": lambda: olx.calibrate_truncation(
        ZETA, (100.0, 200.0), 1e3, 2.5, 1),
    "calibrate_truncation-non-integer-seed": lambda: olx.calibrate_truncation(
        ZETA, (100.0, 200.0), 1e3, 2, 2.5),
    "kronecker-non-integer": lambda: olx.kronecker(5, 2.5),
    "power_sum-nan-order": lambda: olx.power_sum(olx.make_dedekind_quadratic(-4),
                                                 np.array([5]), math.nan),
    "sieve_primes-nan-segment": lambda: olx.sieve_primes(1e5, math.nan),
    "bound_report-nan-magnitude": lambda: olx.bound_report(
        [olx.ScanRecord(t=0.0, magnitude=math.nan, phase=0.0, Y=2.0, refined=False)],
        ZETA, 16.0),
    "zeta_em-huge-real-part": lambda: olx.zeta_em(complex(1e300, 0.0)),
    "zeta_em-negative-real-part": lambda: olx.zeta_em(complex(-1e300, 0.0)),
    # the draws stop at zeta^3; here zeta(1 + it)^3000 overflows
    "calibrate_truncation-overflowing-direct-value": lambda: olx.calibrate_truncation(
        ZETA_3000, (100.0, 1000.0), 1e3, 3, 1),
}


@pytest.mark.parametrize("call", EXPLICIT.values(), ids=EXPLICIT.keys())
def test_explicit_bad_input_raises_an_olx_error(call):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OlxError):
            call()
