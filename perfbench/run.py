#!/usr/bin/env python3
"""Benchmark of the `olx` command line: wall time end to end, time per layer.

    python3 perfbench/run.py --workload scan-fft --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each workload is a closed loop over a fixed list of `olx` commands: one
client, one fresh interpreter per command, and the next command starts
only after the previous one exits. Commands run against the checkout's
src/ (found relative to this file), alternately with OLX_THREADS =
min(2, nproc) and OLX_THREADS = 1, until --seconds have passed. Every
artifact is checked (checks.py); a command fails if it exits non-zero or
its artifact fails a check, including when its body differs from an
earlier run of the same command at either thread count.

--trace 0 prints the end-to-end metrics. --trace 1 skips the set-up
timing, adds one traced pass of the command list (traced_cli.py) and
prints the per-layer metrics. --workload all runs every workload with
the traced pass and prints every metric. Lines before the last describe
the run; the last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics.

The seed picks the inputs: the default seed 0 runs the pinned configs
below, other seeds shift scan windows, calibration seeds and T while
keeping grid sizes, Y, X and n_cutoff, so cost stays comparable.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from spans import END, ID, INFO, NAME, PARENT, START, self_times
from traced_cli import CLI_METRIC, CLI_SPAN, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

DEFAULT_SEED = 0
THREADS = min(2, os.cpu_count() or 1)
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0  # cheap set-ups repeat more, so their median settles
MIN_PASSES = 2  # timed passes per thread count, however short --seconds is
COMMAND_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    pins: dict = field(default_factory=dict)  # checked at the default seed only


@dataclass(frozen=True)
class Workload:
    why: str
    models: tuple[str, ...]  # parsed by the set-up step
    commands: Callable[[random.Random | None], list[Command]]  # None = default seed


def _num(v: float) -> str:
    return repr(float(v))


def _scan_fft(rng: random.Random | None) -> list[Command]:
    shift = 0 if rng is None else 1000 * rng.randrange(1, 100)
    pins = {} if rng else {"max": checks.SCAN_MAX_PIN, "t": checks.SCAN_MAX_T_PIN}
    return [Command(("scan", "--model", "zeta", "--t-min", _num(10 + shift),
                     "--t-max", _num(1e6 + shift), "--step", "0.05", "--Y", "1e5",
                     "--top-k", "10"), pins)]


def _moments(rng: random.Random | None) -> list[Command]:
    T = 5000 if rng is None else 4800 + rng.randrange(401)
    return [Command(("moments", "--model", "zeta", "--X", "18", "--T", _num(T),
                     "--n-cutoff", "1e5"))]


def _pointwise(rng: random.Random | None) -> list[Command]:
    if rng is None:
        seeds, t0 = (1, 2), 10000
        pins = {"median": checks.CALIBRATION_MEDIAN_PIN, "max": checks.CALIBRATION_MAX_PIN}
    else:
        seeds = (rng.randrange(3, 1 << 31), rng.randrange(3, 1 << 31))
        t0, pins = 10000 + 1000 * rng.randrange(1, 90), {}
    window = ("--t-min", "100", "--t-max", "1000")
    return [
        Command(("calibrate", "--model", "zeta", *window, "--Y", "1e6",
                 "--samples", "100", "--seed", str(seeds[0])), pins),
        Command(("calibrate", "--model", "dedekind:-4", *window, "--Y", "1e5",
                 "--samples", "100", "--seed", str(seeds[1]))),
        Command(("scan", "--model", "dedekind:-4", "--t-min", _num(t0),
                 "--t-max", _num(t0 + 1000), "--step", "0.05", "--Y", "1e4",
                 "--top-k", "5")),
        Command(("mertens", "--model", "zeta", "--x-grid", "1e6,1e7,1e8")),
        Command(("residue", "--model", "rs-delta:20000")),
    ]


WORKLOADS = {
    "scan-fft": Workload(
        "FFT scan path (refine 2, 20 chunks of 2^22): expsum dominates and "
        "only here scan's thread pool works; bypasses resonator, tau table, charsum",
        ("zeta",), _scan_fft),
    "moments": Workload(
        "moment series path ~90% of the run, quadrature the rest, with I2 "
        "agreement checked; bypasses expsum, scan and the product kernels",
        ("zeta",), _moments),
    "pointwise": Workload(
        "points x primes work: 200 standalone products, a direct-path scan, "
        "the 1e8 sieve, the character series and the 20000-entry tau table",
        ("zeta", "dedekind:-4", "rs-delta:20000"), _pointwise),
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "wall_1t_s": "s", "peak_rss_mb": "MB"}
ACCURACY = {"scan_max_abs": "abs", "series_bound_rel": "rel", "i2_agreement": "rel"}


def _per_layer_units() -> dict[str, str]:
    units = {CLI_METRIC: "s"}
    for _, _, self_metric, calls_metric, _ in LAYERS:
        units[self_metric] = "s"
        if calls_metric:
            units[calls_metric] = "count"
    units.update({
        "primes.primes_out": "count", "summation.primes_reduced": "count",
        "evaluate.expansion_terms": "count", "expsum.fft_points": "count",
        "expsum.grid_bytes": "bytes", "expsum.spread_ops": "count",
        "scan.grid_points": "count", "scan.refine_factor": "count", "scan.path_fft": "flag",
        "scan.refine_peak_evals": "count", "scan.worker_busy_frac": "frac",
        "scan.parallel_efficiency": "frac", "trace.wall_s": "s", "trace.overhead_s": "s",
        "trace.overlap_s": "s", "trace.unaccounted_s": "s",
    })
    units.update(ACCURACY)
    units["failed_ops"] = "frac"
    return units


PER_LAYER = _per_layer_units()


@dataclass
class Run:
    wall: float
    rss_mb: float
    code: int
    out: bytes
    err: str


def _env(threads: int) -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), OLX_THREADS=str(threads))


def run_process(cmd: list[str], threads: int) -> Run:
    """Run cmd to completion; wall time covers interpreter start to exit."""
    with tempfile.TemporaryFile(dir=TMP) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                env=_env(threads), cwd=ROOT)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip()
    return Run(wall, usage.ru_maxrss / 1024.0, proc.returncode, out, stderr)


def olx_command(argv: tuple[str, ...], threads: int, spans: Path | None = None) -> Run:
    if spans is None:
        return run_process([sys.executable, "-m", "olx.cli", *argv], threads)
    return run_process([sys.executable, str(HERE / "traced_cli.py"), str(spans), *argv],
                       threads)


def setup_seconds(models: tuple[str, ...]) -> float:
    """Fresh interpreter: import olx and parse every model the workload names."""
    code = "import olx\n" + "".join(f"olx.parse_model({m!r})\n" for m in models)
    r = run_process([sys.executable, "-c", code], THREADS)
    if r.code != 0:
        raise SystemExit(f"perfbench: set-up failed (exit {r.code}): {r.err}")
    return r.wall


class Checker:
    """Checks each artifact and that repeats of a command give one body."""

    def __init__(self, pinned: bool) -> None:
        self.pinned = pinned
        self.bodies: dict[tuple, tuple[bytes, list[str]]] = {}  # first body, its problems
        self.values: dict[str, float] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def __call__(self, cmd: Command, r: Run, expected: bytes | None = None) -> None:
        self.attempted += 1
        if r.code != 0:
            problems = [f"exit {r.code}: {r.err.splitlines()[-1] if r.err else ''}"]
        elif expected is not None and r.out != expected:
            problems = ["traced artifact differs from the untraced one"]
        elif cmd.argv not in self.bodies:
            problems, values = checks.check_artifact(r.out, cmd.pins if self.pinned else {})
            self.bodies[cmd.argv] = (checks.body(r.out), problems)
            self.values.update(values)
        else:
            first, first_problems = self.bodies[cmd.argv]
            if checks.body(r.out) != first:
                problems = ["artifact body differs from an earlier run of the same command"]
            else:  # the same bytes fail (or pass) the same checks again
                self.failed += bool(first_problems)
                return
        if problems:
            self.failed += 1
            self.problems += [f"olx {' '.join(cmd.argv)}: {p}" for p in problems]


def measure(name: str, seed: int, seconds: float, trace: bool, setup: bool) -> dict:
    """Run one workload; returns {metric: (value, unit)} plus the run's details."""
    workload = WORKLOADS[name]
    pinned = seed == DEFAULT_SEED
    commands = workload.commands(None if pinned else random.Random(f"{name}:{seed}"))
    check = Checker(pinned)
    setups: list[float] = []
    while setup and (len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS):
        setups.append(setup_seconds(workload.models))
    walls: dict[int, list[float]] = {THREADS: [], 1: []}
    outputs: dict[tuple, bytes] = {}
    rss = 0.0
    start = time.perf_counter()
    while len(walls[1]) < MIN_PASSES or time.perf_counter() - start < seconds:
        for threads in (THREADS, 1):
            total = 0.0
            for cmd in commands:
                r = olx_command(cmd.argv, threads)
                total += r.wall
                rss = max(rss, r.rss_mb)
                check(cmd, r)
                if threads == THREADS:
                    outputs.setdefault(cmd.argv, r.out)
            walls[threads].append(total)
    e2e = {
        "setup_s": statistics.median(setups) if setups else None,
        "wall_s": statistics.median(walls[THREADS]),
        "wall_1t_s": statistics.median(walls[1]),
        "peak_rss_mb": rss,
    }
    metrics = {k: (v, END_TO_END[k]) for k, v in e2e.items() if setup}
    if trace:
        span_lists, traced_wall = [], 0.0
        for i, cmd in enumerate(commands):
            path = TMP / f"spans-{os.getpid()}-{i}.json"
            r = olx_command(cmd.argv, THREADS, spans=path)
            traced_wall += r.wall
            check(cmd, r, expected=outputs[cmd.argv])
            if path.exists():
                span_lists.append(json.loads(path.read_text()))
                path.unlink()
        layers = layer_metrics(span_lists, traced_wall, e2e)
        layers.update({k: check.values.get(k, 0.0) for k in ACCURACY})
        layers["failed_ops"] = check.failed / check.attempted
        metrics.update({k: (layers[k], u) for k, u in PER_LAYER.items()})
    return {"metrics": metrics, "check": check, "walls": walls}


def layer_metrics(span_lists: list[list], traced_wall: float, e2e: dict) -> dict:
    """Per-layer metrics summed over one traced pass of a command list."""
    by_span = {f"{mod}.{fn}": (s, c) for mod, fn, s, c, _ in LAYERS}
    by_span[CLI_SPAN] = (CLI_METRIC, None)
    m = {name: 0.0 for name in PER_LAYER}
    self_total = overlap_total = grid_span = busy = 0.0
    for spans in span_lists:
        selfs, overlap = self_times(spans)
        overlap_total += overlap
        by_id = {s[ID]: s for s in spans}
        for s in spans:
            self_metric, calls_metric = by_span[s[NAME]]
            m[self_metric] += selfs[s[ID]]
            self_total += selfs[s[ID]]
            if calls_metric:
                m[calls_metric] += 1
            for key, v in (s[INFO] or {}).items():
                if key in m:
                    m[key] += v
            if s[NAME] == "scan.grid_scan":
                grid_span += s[END] - s[START]
                m["scan.refine_factor"] = max(m["scan.refine_factor"], 1)
            parent = by_id.get(s[PARENT])
            if parent is None:
                continue
            if parent[NAME] == "scan.refine_peak" and s[NAME] == "evaluate.euler_product_on_line":
                m["scan.refine_peak_evals"] += 1
            if parent[NAME] == "scan.grid_scan" and s[NAME] == "expsum.exp_sum_on_grid":
                busy += s[END] - s[START]
                m["scan.path_fft"] = 1
                refine = round(parent[INFO]["step"] / s[INFO]["step"])
                m["scan.refine_factor"] = max(m["scan.refine_factor"], refine)
    if grid_span:
        m["scan.worker_busy_frac"] = busy / (THREADS * grid_span)
    m["scan.parallel_efficiency"] = e2e["wall_1t_s"] / (THREADS * e2e["wall_s"])
    m["trace.wall_s"] = traced_wall
    m["trace.overhead_s"] = traced_wall - e2e["wall_s"]
    m["trace.overlap_s"] = overlap_total
    m["trace.unaccounted_s"] = traced_wall - (self_total - overlap_total)
    return m


def environment() -> str:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return (f"nproc={os.cpu_count()} cpu={cpu!r} python={platform.python_version()} "
            f"numpy={numpy.__version__} OLX_THREADS={THREADS} commit={commit}")


def report(name: str, seed: int, result: dict) -> None:
    """Print one workload's passes, metrics by name with unit, and failures."""
    check = result["check"]
    print(f"workload {name} seed {seed}: {WORKLOADS[name].why}")
    print(f"  {check.attempted} commands, {check.failed} failed")
    for threads, walls in result["walls"].items():
        print(f"  passes at OLX_THREADS={threads}: " + " ".join(f"{w:.3f}" for w in walls) + " s")
    for k, (v, u) in result["metrics"].items():
        print(f"  {k:34s} {v:.6g} {u}")
    for k, v in check.values.items():
        if k not in result["metrics"]:
            print(f"  {k:34s} {v:.6g} {ACCURACY[k]} (checked)")
    for p in check.problems:
        print(f"  FAILED {p}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "olx" / "__init__.py").is_file():
        print(f"perfbench: no olx package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    every = args.workload == "all"
    names = list(WORKLOADS) if every else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    TMP.mkdir(exist_ok=True)
    try:
        print(f"env: {environment()}")
        for name in names:
            result = measure(name, args.seed, args.seconds,
                             trace=every or args.trace == 1, setup=every or args.trace == 0)
            report(name, args.seed, result)
            prefix = f"{name}." if every else ""
            metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u) in result["metrics"].items()})
            attempted += result["check"].attempted
            failed += result["check"].failed
    finally:
        try:
            TMP.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
