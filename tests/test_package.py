import math

import pytest

import olx
from olx.errors import BUDGETS, ResourceError, check_budget


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
