"""Checks on olx CLI artifacts (JSON format).

check_artifact returns (problems, values): an empty problem list means
the artifact passed; values holds the accuracy figures the benchmark
reports (scan_max_abs, series_bound_rel, i2_agreement). The oracles here
hold at every seed. Pins, taken from tests/test_acceptance.py, apply
only to the default-seed configs and arrive through `pins`.

Checks that re-evaluate a value call the package in this process, so
the checkout's src/ must be on sys.path before the first check runs.
"""
from __future__ import annotations

import json
import math
import statistics

SCAN_MAX_PIN = 5.560443096730904
SCAN_MAX_T_PIN = 534573.7
CALIBRATION_MEDIAN_PIN = 2.131014541937540e-04
CALIBRATION_MAX_PIN = 7.809942039844420e-04

# re-evaluating a value with the same standalone call must reproduce it;
# the slack only absorbs last-ulp differences
SAME_VALUE_REL = 1e-12
I2_AGREEMENT_MAX = 1e-6
MERTENS_RATIO_TOL = 0.005


def body(artifact: bytes) -> bytes:
    """The artifact minus its config header: the bytes after `"data":`.

    The CLI sorts keys, so "config" precedes "data"; the header records
    the thread count and is allowed to differ between thread counts.
    """
    return artifact.partition(b',"data":')[2]


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= SAME_VALUE_REL * abs(b)


def _scan(config: dict, data: dict, pins: dict) -> tuple[list[str], dict]:
    from olx import euler_product_on_line, parse_model

    problems = []
    records = data["records"]
    grid = [r for r in records if not r["refined"]]
    refined = [r for r in records if r["refined"]]
    if len(grid) != config["top_k"] or len(refined) != 1 or records[-1] is not refined[0]:
        problems.append(
            f"expected {config['top_k']} grid records then one refined record, "
            f"got {len(grid)} and {len(refined)}")
        return problems, {}
    model = parse_model(config["model"])
    lo = config["t_min"] - config["step"]
    hi = config["t_max"] + config["step"]
    for r in records:
        standalone = abs(euler_product_on_line(model, r["t"], r["Y"]))
        if not _same(r["magnitude"], standalone):
            problems.append(
                f"record at t = {r['t']!r}: magnitude {r['magnitude']!r} != "
                f"standalone product {standalone!r}")
        if not lo <= r["t"] <= hi:
            problems.append(f"record t = {r['t']!r} outside the scan window")
    grid_max = max(r["magnitude"] for r in grid)
    if not refined[0]["magnitude"] >= grid_max:
        problems.append(
            f"refined record {refined[0]['magnitude']!r} below grid maximum {grid_max!r}")
    if pins:
        best = grid[0]
        if not abs(best["magnitude"] / pins["max"] - 1.0) < 1e-9:
            problems.append(f"grid maximum {best['magnitude']!r} != pin {pins['max']!r}")
        if not abs(best["t"] - pins["t"]) < 0.05:
            problems.append(f"grid maximum at t = {best['t']!r}, pin {pins['t']!r}")
    return problems, {"scan_max_abs": max(grid_max, refined[0]["magnitude"])}


def _moments(config: dict, data: dict, pins: dict) -> tuple[list[str], dict]:
    problems = []
    ser, quad = data["series"], data["quadrature"]
    agreement = abs(ser["I2"] - quad["I2"]) / quad["I2"]
    if not agreement <= I2_AGREEMENT_MAX:
        problems.append(f"I2 agreement {agreement:.3e} exceeds {I2_AGREEMENT_MAX:g}")
    if data["i2_agreement"] != agreement:
        problems.append("reported i2_agreement does not match the two I2 values")
    ratio = quad["I1"] / quad["I2"]
    if not ratio >= data["resonance_product"]:
        problems.append(
            f"quadrature I1/I2 = {ratio!r} below resonance product "
            f"{data['resonance_product']!r}")
    bound_rel = ser["truncation_bound"] / ser["I2"]
    if not (math.isfinite(bound_rel) and bound_rel > 0):
        problems.append(f"series truncation bound / I2 = {bound_rel!r} is not positive")
    return problems, {"series_bound_rel": bound_rel, "i2_agreement": agreement}


def _calibrate(config: dict, data: dict, pins: dict) -> tuple[list[str], dict]:
    from olx import parse_model
    from olx.evaluate import direct_value, euler_product_on_line

    problems = []
    ts, devs = data["t"], data["deviation"]
    if not (len(ts) == len(devs) == config["samples"] == data["sample_count"]):
        problems.append("sample count does not match the config")
        return problems, {}
    if not all(config["t_min"] <= t <= config["t_max"] for t in ts):
        problems.append("a sample lies outside the requested window")
    if data["median"] != statistics.median(devs) or data["max"] != max(devs):
        problems.append("median or max does not match the per-sample deviations")
    model = parse_model(config["model"])
    t0 = ts[0]
    dev0 = abs(euler_product_on_line(model, t0, config["Y"]) / direct_value(model, t0) - 1.0)
    if not _same(devs[0], dev0):
        problems.append(f"sample 0 deviation {devs[0]!r} != recomputed {dev0!r}")
    for key in ("median", "max"):
        if key in pins and not abs(data[key] / pins[key] - 1.0) < 1e-6:
            problems.append(f"calibration {key} {data[key]!r} != pin {pins[key]!r}")
    return problems, {}


def _mertens(config: dict, data: dict, pins: dict) -> tuple[list[str], dict]:
    problems = []
    for x, p, q, r in zip(data["grid"], data["product"], data["prediction"], data["ratio"]):
        if r != p / q:
            problems.append(f"ratio at x = {x:g} is not product / prediction")
        if x == 1e6 and not abs(r - 1.0) <= MERTENS_RATIO_TOL:
            problems.append(f"Mertens ratio at 1e6 = {r!r} not within 0.5% of 1")
    if 1e6 not in data["grid"]:
        problems.append("grid lacks x = 1e6")
    return problems, {}


def _residue(config: dict, data: dict, pins: dict) -> tuple[list[str], dict]:
    value = data["residue"]
    if not (math.isfinite(value) and value > 0):
        return [f"residue {value!r} is not a positive number"], {}
    return [], {}


_CHECKS = {
    "scan": _scan,
    "moments": _moments,
    "calibrate": _calibrate,
    "mertens": _mertens,
    "residue": _residue,
}


def check_artifact(artifact: bytes, pins: dict | None = None) -> tuple[list[str], dict]:
    """Check one JSON artifact; returns (problems, accuracy values)."""
    from olx import OlxError

    try:
        doc = json.loads(artifact)
        config, data = doc["config"], doc["data"]
        return _CHECKS[config["command"]](config, data, pins or {})
    except (OlxError, ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"malformed artifact: {type(exc).__name__}: {exc}"], {}
