import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from olx.cli import run


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
], ids=["x-nan", "x-inf", "x-grid-abc", "n-cutoff-1e400", "t-nan", "out-missing-dir",
        "mertens-overflow", "resonance-overflow", "oracle-overflow", "scan-overflow"])
def test_bad_input_is_one_error_line(argv, want, reason, capsys, tmp_path):
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    code, _, err = run_capture(argv, capsys)
    assert code == want
    assert re.fullmatch(r"error: \w+: [^\n]+\n", err)
    if reason is not None:
        assert err.startswith(f"error: numeric: {reason} (log ")


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
