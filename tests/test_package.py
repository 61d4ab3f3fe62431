import math

import pytest

import olx
from olx.errors import BUDGETS, DomainError, ResourceError, check_budget
from olx.evaluate import log_expansion


def test_every_export_resolves():
    missing = [name for name in olx.__all__ if not hasattr(olx, name)]
    assert not missing


def test_exports_are_unique():
    assert len(olx.__all__) == len(set(olx.__all__))


def test_star_import_in_a_fresh_namespace():
    namespace: dict = {}
    exec("from olx import *", namespace)
    assert set(olx.__all__) <= namespace.keys()


# every format field a row's message may name besides value and limit
BUDGET_CONTEXT = {"count": 65, "two_eps": 2e-9, "top_k": 1, "d": -1000004, "period": 4,
                  "abs_s": 1.6e7}


@pytest.mark.parametrize("name", list(BUDGETS))
def test_every_budget_admits_its_limit_and_refuses_past_it(name):
    row = BUDGETS[name]
    check_budget(name, row.limit, **BUDGET_CONTEXT)
    past = row.limit + 1 if isinstance(row.limit, int) else math.nextafter(row.limit, math.inf)
    want = row.message.format(value=past, limit=row.limit, **BUDGET_CONTEXT)
    with pytest.raises(ResourceError) as info:
        check_budget(name, past, **BUDGET_CONTEXT)
    assert str(info.value) == want
    with pytest.raises(ResourceError):
        check_budget(name, math.nan, **BUDGET_CONTEXT)
    assert row.reason


ZETA = olx.make_zeta_power(1)
# library calls with a non-finite or out-of-budget argument, each with the
# OlxError it must raise in place of a NaN, an inf or a bare exception
BAD_INPUT = {
    "moment_series-T-inf": (DomainError, lambda: olx.moment_series(ZETA, 10, math.inf, 1e5)),
    "moment_series-n_cutoff-nan": (DomainError,
                                   lambda: olx.moment_series(ZETA, 10, 5000, math.nan)),
    "moment_quadrature-step-inf": (DomainError,
                                   lambda: olx.moment_quadrature(ZETA, 10, 5000, math.inf)),
    "moment_quadrature-T-inf": (DomainError,
                                lambda: olx.moment_quadrature(ZETA, 10, math.inf, 0.04)),
    "resonator_config-inf": (DomainError, lambda: olx.resonator_config(math.inf)),
    "asymptotic_bound-inf": (DomainError, lambda: olx.asymptotic_bound(ZETA, math.inf)),
    "resonance_product-inf": (DomainError, lambda: olx.resonance_product(ZETA, math.inf)),
    "resonance_products_at_cutoff-inf": (
        ResourceError, lambda: olx.resonance_products_at_cutoff(ZETA, math.inf)),
    "mertens_prediction-nan": (DomainError, lambda: olx.mertens_prediction(ZETA, math.nan)),
    "mertens_prediction-inf": (DomainError, lambda: olx.mertens_prediction(ZETA, math.inf)),
    "truncated_product_at_1-inf": (ResourceError,
                                   lambda: olx.truncated_product_at_1(ZETA, math.inf)),
    "euler_product_on_line-inf": (ResourceError,
                                  lambda: olx.euler_product_on_line(ZETA, 1.0, math.inf)),
    # the budget holds for the cutoff as given, not for int(Y)
    "euler_product_on_line-Y-past-budget": (
        ResourceError, lambda: olx.euler_product_on_line(ZETA, 1.0, BUDGETS["Y"].limit + 0.5)),
    "log_expansion-inf": (ResourceError, lambda: log_expansion(ZETA, math.inf)),
    "zeta_em-nan": (DomainError, lambda: olx.zeta_em(complex(math.nan, 1.0))),
    "zeta_em-inf": (DomainError, lambda: olx.zeta_em(complex(math.inf, 0.0))),
    "zeta_eta-t-nan": (ResourceError, lambda: olx.zeta_eta(complex(1.0, math.nan))),
    "zeta_eta-sigma-nan": (DomainError, lambda: olx.zeta_eta(complex(math.nan, 1.0))),
    "dirichlet_direct-nan": (ResourceError, lambda: olx.dirichlet_direct(-4, math.nan)),
    "dirichlet_direct-inf": (ResourceError, lambda: olx.dirichlet_direct(-4, math.inf)),
    # a count of records, refused like the other counts rather than by np.partition
    "grid_scan-top_k-2.5": (DomainError, lambda: olx.grid_scan(ZETA, 10, 11, 0.1, 100, 2.5)),
    # a NaN cutoff is refused as a cutoff below 2
    "euler_product_on_line-Y-nan": (DomainError,
                                    lambda: olx.euler_product_on_line(ZETA, 1.0, math.nan)),
    "grid_scan-Y-nan": (DomainError, lambda: olx.grid_scan(ZETA, 10, 11, 0.1, math.nan, 1)),
    # a cutoff below 2 is refused before any expansion or bound is built
    "grid_scan-Y-1.5": (DomainError, lambda: olx.grid_scan(ZETA, 10, 11, 0.1, 1.5, 1)),
    # and the expansion refuses one itself, rather than returning no terms
    "log_expansion-Y-1.5": (DomainError, lambda: log_expansion(ZETA, 1.5)),
    "log_expansion-Y-nan": (DomainError, lambda: log_expansion(ZETA, math.nan)),
    # a NaN weight cutoff is refused as one, not as a coefficient cutoff
    "moment_series-X-nan": (DomainError, lambda: olx.moment_series(ZETA, math.nan, 5000, 1e5)),
    "moment_quadrature-X-nan": (DomainError,
                                lambda: olx.moment_quadrature(ZETA, math.nan, 5000, 0.04)),
    "resonance_products_at_cutoff-X-nan": (
        DomainError, lambda: olx.resonance_products_at_cutoff(ZETA, math.nan)),
}
# the exact message where the kind alone does not tell the refusals apart
BAD_INPUT_MESSAGE = {
    "euler_product_on_line-Y-nan": "truncation cutoff must be >= 2, got nan",
    "grid_scan-Y-nan": "truncation cutoff must be >= 2, got nan",
    "grid_scan-Y-1.5": "truncation cutoff must be >= 2, got 1.5",
    "log_expansion-Y-1.5": "truncation cutoff must be >= 2, got 1.5",
    "log_expansion-Y-nan": "truncation cutoff must be >= 2, got nan",
    "moment_series-X-nan": "moment integrals support X <= 50.0, got nan",
    "moment_quadrature-X-nan": "moment integrals support X <= 50.0, got nan",
    "resonance_products_at_cutoff-X-nan": "resonance cutoff X must be a number, got nan",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", list(BAD_INPUT))
def test_bad_library_input_raises_an_olx_error(name):
    kind, call = BAD_INPUT[name]
    with pytest.raises(kind) as info:
        call()
    assert str(info.value) == BAD_INPUT_MESSAGE.get(name, str(info.value))
