import os
from pathlib import Path

import pytest

from olx.lfamily import (
    make_dedekind_quadratic,
    make_rankin_selberg_delta,
    make_zeta_power,
)


@pytest.fixture(scope="session", autouse=True)
def src_on_child_path():
    """Tests that start `python -m olx.cli` in a child process give it the
    checkout's src/, as pytest's `pythonpath` setting does for this one."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def zeta():
    return make_zeta_power(1)


@pytest.fixture(scope="session")
def zeta2():
    return make_zeta_power(2)


@pytest.fixture(scope="session")
def zeta3():
    return make_zeta_power(3)


@pytest.fixture(scope="session")
def gauss():
    """Quadratic-field model with discriminant -4."""
    return make_dedekind_quadratic(-4)


@pytest.fixture(scope="session")
def root5():
    """Quadratic-field model with discriminant 5."""
    return make_dedekind_quadratic(5)


@pytest.fixture(scope="session")
def rs_small():
    """Degree-4 self-convolution model with a small coefficient table."""
    return make_rankin_selberg_delta(2000)
