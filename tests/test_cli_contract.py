"""Property suite for the CLI error contract.

Every run through `cli.run` either exits 0 with an artifact whose header
config, run again, reproduces the artifact, or exits 1, 2 or 3 with
exactly one `error: <kind>: <reason>` line on stderr and nothing on
stdout. Draws cover the model grammar (valid and bad selectors) and every
numeric flag of every subcommand, with nan, inf, 1e300, 0 and negative
values among the draws.

Valid inputs that are slow are left out of the draws, each named where
its range is cut:
* dedekind:<d> near |d| = 1e6 (its character table takes 2.4 s);
* zeta^<m> for m in the thousands, below the budget (every kernel costs
  m times zeta's);
* heights |t| beyond 1e4 (the zeta oracle sums 2|t| terms);
* truncations Y and cutoffs x or X beyond 1e5 (the sieve and the products
  grow with them);
* moment scales T beyond 300 and quadrature steps below 0.05 (the
  quadrature sweeps 4 (6.1 T / log T) / step nodes);
* scan grids beyond about 1e4 points, and calibration beyond 5 samples.
"""
import contextlib
import io
import json
import re
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from olx.cli import run

# numbers the contract must survive on every numeric flag
EXTREMES = ["nan", "inf", "-inf", "1e300", "-1e300", "0", "-1", "-0.5", "abc", ""]


def or_extreme(valid):
    """A valid flag value three times in four, else an extreme, so that
    runs with several flags still often pass every check."""
    return st.integers(0, 3).flatmap(lambda i: st.sampled_from(EXTREMES) if i == 0 else valid)


def numbers(lo, hi):
    """Flag values: a cheap valid float in [lo, hi] or an extreme."""
    return or_extreme(st.floats(lo, hi, allow_nan=False).map(repr))


def integers(lo, hi):
    return or_extreme(st.integers(lo, hi).map(str))


MODELS = st.one_of(
    st.sampled_from(["zeta", "zeta^1", "zeta^2", "zeta^3", "zeta^+2", "zeta^200"]),
    st.sampled_from(["dedekind:-4", "dedekind:5", "dedekind:-3", "dedekind:8",
                     "dedekind:-7", "dedekind:12", "dedekind:-163"]),
    st.sampled_from(["rs-delta:2", "rs-delta:50", "rs-delta:500", "rs-delta:2000"]),
    # bad selectors: no pole, non-fundamental or oversized d, tables
    # beyond the budget, sizes beyond the zeta power budget, and garbage
    st.sampled_from([
        "zeta^0", "zeta^-1", "zeta^10001", "zeta^1000000000", "zeta^" + "9" * 4000,
        "zeta^" + "9" * 5000, "zeta^x", "zeta^1e5", "dedekind:1", "dedekind:0",
        "dedekind:9", "dedekind:-12", "dedekind:100", "dedekind:1000005",
        "dedekind:1000000000000000009", "dedekind:-1000000000000000003", "dedekind:",
        "rs-delta:1",
        "rs-delta:0", "rs-delta:20001", "rs-delta:1000000000000", "rs-delta:abc",
        "xi", "zeta2", "ZETA", ""]),
    st.text(max_size=12),
)

GRIDS = st.one_of(
    st.lists(st.floats(2.0, 1e5, allow_nan=False).map(repr), min_size=1, max_size=3)
    .map(",".join),
    st.sampled_from(["", ",", "1e2,abc", "1e3,1e2", "1e2,nan", "1e2,1e300", "-5,1e2"]),
)

# per subcommand: flag -> (always passed, value strategy); a flag whose
# default is slow is always passed, with a cheap valid value or an extreme
FLAGS = {
    "mertens": {"--x": (False, numbers(2.0, 1e5)), "--x-grid": (False, GRIDS)},
    "residue": {},
    "resonance": {"--T": (False, numbers(20.0, 1e12)), "--X": (False, numbers(0.0, 1e4))},
    "moments": {"--T": (True, numbers(20.0, 300.0)), "--X": (True, numbers(0.0, 6.0)),
                "--n-cutoff": (True, integers(1, 1000)),
                "--step": (True, numbers(0.05, 2.0))},
    "evaluate": {"--t": (False, numbers(-1e4, 1e4)), "--Y": (False, numbers(0.0, 1e5))},
    "calibrate": {"--t-min": (False, numbers(1.0, 1e3)),
                  "--t-max": (False, numbers(1.0, 1e3)),
                  "--Y": (True, numbers(0.0, 1e4)),
                  # the budget (1e4) and the 1e300 extreme are refused
                  "--samples": (True, st.one_of(integers(1, 5),
                                                st.sampled_from(["10001", "1e12"]))),
                  "--seed": (False, integers(-2**70, 2**70))},
    "scan": {"--T": (False, numbers(20.0, 500.0)),
             "--t-min": (False, numbers(1.0, 500.0)),
             "--t-max": (False, numbers(1.0, 550.0)),
             "--step": (True, numbers(0.05, 5.0)),
             "--Y": (True, numbers(0.0, 1e4)),
             # the budget (1000) and the 1e300 extreme are refused
             "--top-k": (False, st.one_of(integers(1, 20),
                                          st.sampled_from(["1001", "100000"]))),
             "--refine-tol": (False, numbers(1e-6, 1.0))},
}


@st.composite
def invocations(draw, command):
    argv = [command, f"--model={draw(MODELS)}",
            f"--format={draw(st.sampled_from(['json', 'csv']))}"]
    for flag, (always, values) in FLAGS[command].items():
        if always or draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    return argv


def call(argv):
    """(exit code, stdout, stderr) of one run; a warning, which the
    command line would print on stderr, raises instead."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def header_config(out, fmt):
    if fmt == "json":
        return json.loads(out)["config"]
    return json.loads(out.split("\n", 1)[0].split(" ", 3)[3])


def config_argv(config):
    """The argv that the header's config stands for."""
    argv = [config["command"], f"--model={config['model']}", f"--format={config['format']}"]
    for key, value in config.items():
        if key in ("command", "model", "format", "out", "threads") or value is None:
            continue
        if isinstance(value, list):
            value = ",".join(repr(v) for v in value)
        text = repr(value) if isinstance(value, float) else str(value)
        argv.append(f"--{key.replace('_', '-')}={text}")
    return argv


@pytest.mark.parametrize("command", list(FLAGS))
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_run_exits_per_contract(command, data):
    argv = data.draw(invocations(command), label="argv")
    code, out, err = call(argv)
    if code == 0:
        assert err == ""
        fmt = argv[2].split("=", 1)[1]
        again = config_argv(header_config(out, fmt))
        assert call(again) == (0, out, ""), again
    else:
        assert code in (1, 2, 3)
        assert out == ""
        assert re.fullmatch(r"error: (usage|domain|numeric|resource): [^\n]+\n", err), err
