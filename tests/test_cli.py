import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import olx.cli
from olx.cli import run
from olx.errors import NumericError, ResourceError
from olx.primes import sieve_primes


def run_capture(argv, capsys):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestExitCodes:
    def test_success(self, capsys, tmp_path):
        code = run(["mertens", "--model", "zeta", "--x", "1e4", "--format", "csv",
                    "--out", str(tmp_path / "m.csv")])
        assert code == 0

    def test_domain_error_is_one(self, capsys):
        code, out, err = run_capture(["resonance", "--model", "zeta", "--T", "2.0"], capsys)
        assert code == 1
        assert "e^e" in err
        assert err.startswith("error: domain:")
        assert err.count("\n") == 1

    def test_usage_error_is_one(self, capsys):
        code, _, err = run_capture(["mertens", "--model", "zeta", "--x", "abc"], capsys)
        assert code == 1
        assert err.startswith("error: usage:")

    def test_unknown_model_is_one(self, capsys):
        code, _, err = run_capture(["mertens", "--model", "xi"], capsys)
        assert code == 1

    def test_resource_error_is_three(self, capsys):
        code, _, err = run_capture(
            ["scan", "--model", "zeta", "--t-min", "0", "--t-max", "1e6",
             "--step", "1e-3", "--Y", "100"], capsys)
        assert code == 3
        assert err.startswith("error: resource:")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, want, reason", [
    (["mertens", "--x", "nan"], 1, None),
    (["mertens", "--x", "inf"], 1, None),
    (["mertens", "--x-grid", "1e2,abc"], 1, None),
    (["moments", "--n-cutoff", "1e400"], 1, None),
    (["evaluate", "--t", "nan"], 1, None),
    (["residue", "--out", "{missing}/f"], 1, None),
    (["mertens", "--model", "zeta^1000", "--x", "1e2"], 2,
     "truncated product at x = 100.0 overflows a float"),
    (["resonance", "--model", "zeta^5000"], 2,
     "resonance product at X = 8.944695694834484 overflows a float"),
    (["evaluate", "--model", "zeta^200", "--t", "0.001"], 2, None),
    (["scan", "--model", "zeta^2000", "--t-min", "10", "--t-max", "20",
      "--step", "0.5", "--Y", "100", "--top-k", "1"], 2, None),
    (["evaluate", "--Y", "1e9"], 3, None),
    (["calibrate", "--Y", "1e9", "--samples", "1"], 3, None),
    (["evaluate", "--t", "1e300"], 3, None),
    (["calibrate", "--t-min", "1e299", "--t-max", "1e300"], 3, None),
    (["mertens", "--x", "1e10"], 3, None),
    (["scan", "--model", "zeta", "--t-min", "10", "--t-max", "20", "--step", "1e-300",
      "--Y", "1e3"], 3, None),
    (["scan", "--model", "zeta", "--t-min", "0", "--t-max", "1e8", "--step", "5e-324",
      "--Y", "1e3"], 3, None),
    (["moments", "--X", "3", "--T", "1e9", "--n-cutoff", "100"], 3, None),
    (["moments", "--X", "3", "--step", "1e-7", "--n-cutoff", "100"], 3, None),
    (["moments", "--T", "1e8"], 3, None),
], ids=["x-nan", "x-inf", "x-grid-abc", "n-cutoff-1e400", "t-nan", "out-missing-dir",
        "mertens-overflow", "resonance-overflow", "oracle-overflow", "scan-overflow",
        "evaluate-sieve-budget", "calibrate-sieve-budget", "evaluate-phase-budget",
        "calibrate-phase-budget", "mertens-sieve-budget", "scan-grid-budget",
        "scan-grid-budget-inf", "moments-quadrature-budget-T",
        "moments-quadrature-budget-step", "moments-quadrature-budget-default-X"])
def test_bad_input_is_one_error_line(argv, want, reason, capsys, tmp_path):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code, _, err = run_capture(argv, capsys)
    assert code == want
    assert re.fullmatch(r"error: \w+: [^\n]+\n", err)
    if reason is not None:
        assert err.startswith(f"error: numeric: {reason} (log ")


@pytest.mark.parametrize("argv, reason", [
    (["scan", "--t-min", "10", "--t-max", "510", "--step", "0.05", "--Y", "1e5",
      "--top-k", "100000"], "top_k beyond the budget 1000"),
    (["scan", "--t-min", "10", "--t-max", "2e7", "--step", "1", "--top-k", "1e300"],
     "top_k beyond the budget 1000"),
    (["calibrate", "--samples", "1e300"], "calibration samples beyond the budget 10000"),
    (["mertens", "--model", "zeta^1000000000", "--x", "1e2"],
     "zeta power beyond the budget m <= 10000"),
    (["residue", "--model", "rs-delta:20001"], "tau table budget is N <= 20000, got 20001"),
    (["residue", "--model", "dedekind:-1000004"],
     "|d| <= 1000000 required, got -1000004"),
], ids=["scan-top-k", "scan-top-k-1e300", "calibrate-samples", "zeta-power", "tau-table",
        "discriminant"])
def test_size_budget_refuses_before_any_work(argv, reason, capsys):
    start = time.perf_counter()
    code, out, err = run_capture(argv, capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (3, "", f"error: resource: {reason}\n")


def test_moments_budget_refuses_before_the_series(capsys, monkeypatch):
    # the quadrature's node budget decides before any series work starts
    def series_must_not_run(*args):
        raise AssertionError("moment_series ran before the quadrature budget")

    monkeypatch.setattr("olx.cli.moment_series", series_must_not_run)
    code, _, err = run_capture(["moments", "--T", "1e8"], capsys)
    assert code == 3
    assert err.startswith("error: resource: quadrature needs")


def test_moments_budget_refuses_before_the_series_two_threads(capsys, monkeypatch):
    # the same refusal when the quadrature would run beside the series
    def series_must_not_run(*args):
        raise AssertionError("moment_series ran before the quadrature budget")

    monkeypatch.setenv("OLX_THREADS", "2")
    monkeypatch.setattr("olx.cli.moment_series", series_must_not_run)
    code, _, err = run_capture(["moments", "--T", "1e8"], capsys)
    assert code == 3
    assert err.startswith("error: resource: quadrature needs")


@pytest.mark.parametrize("model", ["zeta", "dedekind:-4"])
def test_moments_body_independent_of_threads(model, capsys, monkeypatch):
    bodies = []
    for threads in ("1", "2"):
        monkeypatch.setenv("OLX_THREADS", threads)
        code, out, _ = run_capture(["moments", "--model", model, "--X", "10",
                                    "--n-cutoff", "1e4"], capsys)
        assert code == 0
        bodies.append(out.split('"data":', 1)[1])  # the config names the thread count
    assert bodies[0] == bodies[1]


@pytest.mark.parametrize("threads", ["1", "2"], ids=["1-thread", "2-threads"])
def test_moments_paths_run_in_order_on_the_calling_thread(threads, capsys, monkeypatch):
    # the quadrature, then the series, both on this thread at any thread count
    ran = []

    def recording(name, fn):
        def wrapped(*args):
            ran.append((name, threading.current_thread() is threading.main_thread()))
            return fn(*args)
        return wrapped

    monkeypatch.setenv("OLX_THREADS", threads)
    for name in ("moment_quadrature", "moment_series"):
        monkeypatch.setattr(f"olx.cli.{name}", recording(name, getattr(olx.cli, name)))
    code, _, _ = run_capture(["moments", "--X", "5", "--n-cutoff", "100"], capsys)
    assert (code, ran) == (0, [("moment_quadrature", True), ("moment_series", True)])


@pytest.mark.parametrize("threads", ["1", "2"], ids=["1-thread", "2-threads"])
@pytest.mark.parametrize("quadrature_fails, want", [
    (True, (2, "error: numeric: quadrature failed\n")),
    (False, (3, "error: resource: series failed\n")),
], ids=["both-fail", "series-fails"])
def test_moments_error_precedence(threads, quadrature_fails, want, capsys, monkeypatch):
    # when both paths fail the quadrature's error is reported, at any thread
    # count: the quadrature runs first, and the series only after it succeeds
    def quadrature(*args):
        if quadrature_fails:
            raise NumericError("quadrature failed")

    def series(*args):
        raise ResourceError("series failed")

    monkeypatch.setenv("OLX_THREADS", threads)
    monkeypatch.setattr("olx.cli.moment_quadrature", quadrature)
    monkeypatch.setattr("olx.cli.moment_series", series)
    code, out, err = run_capture(["moments", "--X", "5", "--n-cutoff", "100"], capsys)
    assert (code, out, err) == (want[0], "", want[1])


@pytest.mark.parametrize("step, count", [("1e-300", "9.9e+302"), ("5e-324", "inf")])
def test_grid_budget_reason_is_short(step, count, capsys):
    # the point count is printed to 3 digits, not as a 300-digit integer
    code, _, err = run_capture(["scan", "--model", "zeta", "--t-min", "10", "--t-max", "1e3",
                                "--step", step, "--Y", "1e3"], capsys)
    assert code == 3
    assert err == (f"error: resource: grid of {count} points exceeds the budget 268435456; "
                   "raise step or shrink the window\n")


@pytest.mark.parametrize("model, grid, want", [
    ("zeta^1000", "1e2,1e10",
     (2, "error: numeric: truncated product at x = 100.0 overflows a float (log 2117.62)\n")),
    ("rs-delta:100", "50,200", (1, "error: domain: cutoff 200.0 beyond coefficient cutoff 100.0\n")),
    ("zeta", "1e2,1e10",
     (3, "error: resource: sieve limit 1e+10 exceeds the sieve budget 4294967296\n")),
], ids=["overflow-before-budget", "range-after-product", "budget-after-product"])
def test_mertens_grid_errors_keep_the_cutoff_order(model, grid, want, capsys, monkeypatch):
    # the grid is sieved once, to its last admitted cutoff, and the products
    # before a refused cutoff are computed (and may overflow) before it is refused
    limits = []

    def spy(limit, *args):
        limits.append(limit)
        return sieve_primes(limit, *args)

    monkeypatch.setattr("olx.mertens.sieve_primes", spy)
    start = time.perf_counter()
    code, out, err = run_capture(["mertens", "--model", model, "--x-grid", grid], capsys)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (want[0], "", want[1])
    assert limits == [int(float(grid.split(",")[0]))]


def test_mertens_pins_the_bench_grid(capsys):
    code, out, _ = run_capture(["mertens", "--x-grid", "1e6,1e7,1e8"], capsys)
    assert code == 0
    products = [float.hex(v) for v in json.loads(out)["data"]["product"]]
    assert products == ["0x1.89b7d72e83766p+4", "0x1.cb530703930f6p+4",
                        "0x1.067836f9e6d3fp+5"]


# Starts a command and prints its exit code and peak RSS in kilobytes. It
# runs in a small interpreter of its own: a child spawned straight from
# pytest would report pytest's own peak, which the spawn copies in.
PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def test_mertens_at_1e8_peaks_below_90_mb():
    # the 5,761,455 primes take 46 MB: about 78 MB in all with numpy 2.4,
    # and 121 MB for a sieve that holds them twice
    out = subprocess.run([sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "olx.cli",
                          "mertens", "--x", "1e8"], capture_output=True, check=True).stdout
    code, peak_kb = map(int, out.split())
    assert code == 0
    assert peak_kb < 90 * 1024


def test_mertens_bench_grid_peaks_below_50_mb():
    # the products stream sieve windows of 2^21 integers, so no prime array
    # grows with x: about 37 MB in all with numpy 2.4, against 78 MB when
    # the 5,761,455 primes to 1e8 are held
    out = subprocess.run([sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "olx.cli",
                          "mertens", "--model", "zeta", "--x-grid", "1e6,1e7,1e8"],
                         capture_output=True, check=True).stdout
    code, peak_kb = map(int, out.split())
    assert code == 0
    assert peak_kb < 50 * 1024


def readme_columns():
    """CSV column lists per subcommand from the README table; evaluate's
    row gives its oracle columns as a second backticked list."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    columns = {}
    for cmd, cell in re.findall(r"^\| `(\w+)` +\| (`[^|]*?) +\|$", readme, re.M):
        lists = [part.split(", ") for part in re.findall(r"`([^`]+)`", cell)]
        columns[cmd] = lists[0]
        if len(lists) > 1:
            columns[cmd + "+oracle"] = lists[0] + lists[1]
    return columns


SHAPE_CASES = [
    ("mertens", ["mertens", "--x-grid", "1e2,1e3"],
     {"label", "grid", "product", "prediction", "ratio"}),
    ("residue", ["residue", "--model", "rs-delta:100"],
     {"label", "residue", "tail_estimate"}),
    ("resonance", ["resonance", "--X", "30"],
     {"label", "T", "X", "resonance_product", "mertens_factor", "defect",
      "asymptotic_bound", "asymptotic_bound_note"}),
    ("moments", ["moments", "--X", "3", "--n-cutoff", "100", "--step", "0.05"],
     {"label", "series", "quadrature", "moment_ratio", "resonance_product",
      "i2_agreement"}),
    ("evaluate", ["evaluate", "--model", "rs-delta:500", "--t", "1", "--Y", "400"],
     {"label", "t", "Y", "truncated"}),
    ("evaluate+oracle", ["evaluate", "--t", "2", "--Y", "1e3"],
     {"label", "t", "Y", "truncated", "direct", "deviation"}),
    ("calibrate", ["calibrate", "--t-min", "10", "--t-max", "20", "--Y", "1e3",
                   "--samples", "3"],
     {"label", "t_range", "Y", "sample_count", "seed", "median", "mean", "max", "t",
      "deviation", "note"}),
    ("scan", ["scan", "--t-min", "171", "--t-max", "172", "--step", "0.01",
              "--Y", "1e3", "--top-k", "2"],
     {"label", "records", "bound_report"}),
]


@pytest.mark.parametrize("name, argv, keys", SHAPE_CASES, ids=[c[0] for c in SHAPE_CASES])
def test_output_shape(name, argv, keys, capsys):
    code, out, _ = run_capture(argv + ["--format", "csv"], capsys)
    assert code == 0
    assert out.split("\n")[1] == ",".join(readme_columns()[name])
    code, out, _ = run_capture(argv, capsys)
    assert code == 0
    assert set(json.loads(out)["data"]) == keys


class TestOutputs:
    def test_csv_shape(self, capsys):
        code, out, _ = run_capture(
            ["mertens", "--model", "zeta", "--x", "1e4", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# olx 0.1.0 {")
        assert lines[1] == "x,product,prediction,ratio"
        assert len(lines) == 3

    def test_json_config_first(self, capsys):
        code, out, _ = run_capture(["residue", "--model", "dedekind:-4"], capsys)
        assert code == 0
        assert out.startswith('{"config":')
        payload = json.loads(out)
        assert payload["version"] == "0.1.0"
        assert payload["config"]["command"] == "residue"

    def test_formats_encode_identical_values(self, capsys, tmp_path):
        base = ["calibrate", "--model", "zeta", "--t-min", "10", "--t-max", "20",
                "--Y", "1e3", "--samples", "5", "--seed", "7"]
        jpath = tmp_path / "c.json"
        cpath = tmp_path / "c.csv"
        assert run(base + ["--format", "json", "--out", str(jpath)]) == 0
        assert run(base + ["--format", "csv", "--out", str(cpath)]) == 0
        payload = json.loads(jpath.read_text())
        rows = cpath.read_text().strip().split("\n")[2:]
        for i, row in enumerate(rows):
            _, t_text, dev_text = row.split(",")
            assert float(t_text) == payload["data"]["t"][i]  # 0 ULP
            assert float(dev_text) == payload["data"]["deviation"][i]

    def test_header_config_reproduces_body(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        assert run(["mertens", "--model", "zeta", "--x-grid", "100,10000",
                    "--format", "csv", "--out", str(first)]) == 0
        header = first.read_text().split("\n")[0]
        config = json.loads(header.split(" ", 3)[3])
        argv = [config["command"], "--model", config["model"], "--format", config["format"],
                "--x-grid", ",".join(repr(x) for x in config["x_grid"])]
        second = tmp_path / "b.csv"
        assert run(argv + ["--out", str(second)]) == 0
        body_a = first.read_text().split("\n")[1:]
        body_b = second.read_text().split("\n")[1:]
        assert body_a == body_b

    def test_evaluate_includes_oracle(self, capsys):
        code, out, _ = run_capture(
            ["evaluate", "--model", "zeta", "--t", "2.0", "--Y", "1e5"], capsys)
        payload = json.loads(out)
        assert "direct" in payload["data"]
        assert payload["data"]["deviation"] < 0.05

    def test_evaluate_rs_has_no_oracle(self, capsys):
        # without --Y the truncation defaults to the coefficient cutoff
        code, out, _ = run_capture(["evaluate", "--model", "rs-delta:500", "--t", "1.0"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert "direct" not in payload["data"]
        assert payload["config"]["Y"] == payload["data"]["Y"] == 500.0

    @pytest.mark.parametrize("model, t, omitted", [
        ("dedekind:-4", "1e5", "character series error bound"),
        ("rs-delta:500", "1", None),
        ("zeta", "2", None),
    ])
    def test_evaluate_says_why_the_oracle_is_omitted(self, model, t, omitted, capsys):
        # a refused oracle names its refusal in the JSON body; a model with
        # no oracle, or one that has a value, carries no such key
        code, out, err = run_capture(["evaluate", "--model", model, "--t", t], capsys)
        assert (code, err) == (0, "")
        data = json.loads(out)["data"]
        if omitted is None:
            assert "direct_omitted" not in data
        else:
            assert data["direct_omitted"].startswith(omitted)
            assert data["direct_omitted"].endswith("exceeds 1e-9")
            assert "direct" not in data

    def test_moments_reports_agreement(self, capsys):
        code, out, _ = run_capture(
            ["moments", "--model", "zeta", "--X", "3", "--T", "5000",
             "--n-cutoff", "1000", "--step", "0.05"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["data"]["i2_agreement"] < 1e-6

    def test_no_numpy_reprs_leak_into_csv(self, capsys):
        code, out, _ = run_capture(
            ["moments", "--model", "zeta", "--X", "3", "--T", "5000",
             "--n-cutoff", "100", "--step", "0.05", "--format", "csv"], capsys)
        assert code == 0
        assert "np." not in out

    def test_scan_defaults_window_from_T(self, capsys):
        code, out, _ = run_capture(
            ["scan", "--model", "zeta", "--T", "400", "--step", "0.5",
             "--Y", "100", "--top-k", "2"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["t_min"] == 20.0
        assert payload["config"]["t_max"] == 400.0
        assert payload["data"]["bound_report"]["note"].startswith("no verdict")


class TestThreadsEnv:
    def test_invalid_threads_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("OLX_THREADS", "zero")
        code, _, err = run_capture(["residue", "--model", "zeta"], capsys)
        assert code == 1

    @pytest.mark.parametrize("cmd", [
        ["mertens", "--model", "zeta", "--x", "1e5", "--format", "csv"],
        ["scan", "--model", "zeta", "--t-min", "171", "--t-max", "172",
         "--step", "0.01", "--Y", "1e4", "--top-k", "3", "--format", "csv"],
        ["moments", "--X", "14", "--n-cutoff", "1e4", "--format", "csv"],
        ["calibrate", "--model", "zeta", "--Y", "1e4", "--samples", "24", "--format", "csv"],
        ["calibrate", "--model", "dedekind:-4", "--Y", "1e4", "--samples", "24",
         "--format", "csv"],
    ])
    def test_worker_count_independent(self, cmd, tmp_path):
        outputs = []
        for threads in ("1", "4"):
            env = dict(os.environ, OLX_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "olx.cli", *cmd],
                capture_output=True, env=env, check=True,
            )
            # strip the header line (it embeds the thread count)
            outputs.append(proc.stdout.split(b"\n", 1)[1])
        assert outputs[0] == outputs[1]

    def test_moments_independent_of_blas_threads(self):
        # the series' matrix products and the quadrature's sums must not
        # depend on OpenBLAS's own thread count
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "olx.cli", "moments", "--X", "14",
                 "--n-cutoff", "1e4", "--format", "csv"],
                capture_output=True, env=env, check=True,
            )
            outputs.append(proc.stdout.split(b"\n", 1)[1])
        assert outputs[0] == outputs[1]


def test_traced_bench_run_matches_the_cli(tmp_path):
    # the benchmark's traced pass rebinds its LAYERS functions by name;
    # a refactor that renames, inlines or changes the return type of one
    # must not go unnoticed
    script = Path(__file__).resolve().parents[1] / "perfbench" / "traced_cli.py"
    spans = tmp_path / "spans.json"
    for args, layers, counts in (
        (["moments", "--X", "10", "--n-cutoff", "1e4"],
         {"resonator.moment_series", "resonator.moment_quadrature",
          "lfamily.local_coefficients"}, {}),
        (["mertens", "--x", "1e5"], {"primes.sieve_primes"}, {"primes.primes_out": [9592]}),
        (["scan", "--model", "zeta", "--t-min", "171", "--t-max", "172", "--step", "0.01",
          "--Y", "1e3", "--top-k", "2"], {"expsum.exp_sum_on_grid", "scan.refine_peak"}, {}),
        (["calibrate", "--samples", "2"], {"evaluate.direct_value"}, {}),
    ):
        traced = subprocess.run([sys.executable, str(script), str(spans), *args],
                                capture_output=True)
        plain = subprocess.run([sys.executable, "-m", "olx.cli", *args],
                               capture_output=True, check=True)
        assert traced.returncode == 0, traced.stderr
        assert traced.stdout == plain.stdout
        recorded = json.loads(spans.read_text())  # spans.py layout: name 1, info 6
        assert layers <= {span[1] for span in recorded}, args[0]
        for metric, values in counts.items():
            assert [span[6][metric] for span in recorded
                    if span[6] and metric in span[6]] == values
