"""Run one `olx` command with a span around every call into the package's
public functions.

    python3 perfbench/traced_cli.py SPANS.json <olx arguments...>

Needs the checkout's src/ on PYTHONPATH. The wrappers are installed at
runtime and rebound in every olx module that imported the function by
name, so nothing under src/olx changes. Standard output is the CLI's own
artifact, byte for byte; the spans go to SPANS.json when the command ends.
"""
import time

_T0 = time.perf_counter()  # the "cli" span starts before olx is imported

import math
import sys

from spans import Recorder


def _fft_size(n: int) -> int:
    # the oversampled grid size exp_sum_on_grid allocates for n targets
    return 1 << max(6, int(math.ceil(math.log2(2 * n))))


def _expsum_sizes(a: dict, result) -> dict:
    nf = _fft_size(a["n"])
    terms = len(a["omegas"])
    # 16 bytes per complex128 grid cell; 27 = 2 * 13 + 1 kernel taps per term
    return {"expsum.fft_points": nf, "expsum.grid_bytes": 16 * nf,
            "expsum.spread_ops": 27 * terms, "step": float(a["step"])}


def _grid_points(a: dict, result) -> dict:
    span = float(a["t_max"]) - float(a["t_min"])
    step = float(a["step"])
    points = int(math.floor(span / step + 1.0 + 1e-9)) if span > 0 else 1
    return {"scan.grid_points": points, "step": step}


LAYERS = (
    # (module, function, self-time metric, call-count metric, size counts)
    ("primes", "sieve_primes", "primes.sieve_s", "primes.sieve_calls",
     lambda a, r: {"primes.primes_out": len(r)}),
    ("lfamily", "tau_table", "lfamily.tau_table_s", None, None),
    ("lfamily", "parse_model", "lfamily.parse_model_s", None, None),
    ("lfamily", "local_coefficients", "lfamily.local_coefficients_s",
     "lfamily.local_coefficients_calls", None),
    ("charsum", "periodic_lseries", "charsum.lseries_s", "charsum.lseries_calls", None),
    ("summation", "blocked_log_sum", "summation.blocked_sum_s",
     "summation.blocked_sum_calls", lambda a, r: {"summation.primes_reduced": len(a["primes"])}),
    ("summation", "blocked_complex_log_sum", "summation.blocked_sum_s",
     "summation.blocked_sum_calls", lambda a, r: {"summation.primes_reduced": len(a["primes"])}),
    ("mertens", "mertens_report", "mertens.report_s", None, None),
    ("evaluate", "euler_product_on_line", "evaluate.product_s", "evaluate.product_calls", None),
    ("evaluate", "direct_value", "evaluate.oracle_s", "evaluate.oracle_calls", None),
    ("evaluate", "log_expansion", "evaluate.log_expansion_s", None,
     lambda a, r: {"evaluate.expansion_terms": len(r[0])}),
    ("evaluate", "calibrate_truncation", "evaluate.calibrate_s", None, None),
    ("expsum", "exp_sum_on_grid", "expsum.grid_s", "expsum.grid_calls", _expsum_sizes),
    ("scan", "grid_scan", "scan.grid_scan_self_s", None, _grid_points),
    ("scan", "refine_peak", "scan.refine_peak_s", None, None),
    ("resonator", "moment_series", "resonator.series_s", None, None),
    ("resonator", "moment_quadrature", "resonator.quadrature_s", None, None),
    ("resonator", "resonance_products_at_cutoff", "resonator.resonance_s", None, None),
)
CLI_SPAN = "cli"
CLI_METRIC = "cli.self_s"


def install(recorder: Recorder) -> None:
    """Wrap every LAYERS function and rebind it wherever olx imported it."""
    import olx
    import olx.cli  # noqa: F401  (the package __init__ does not import it)

    loaded = [m for name, m in list(sys.modules.items())
              if name == "olx" or name.startswith("olx.")]
    for module, function, _, _, info in LAYERS:
        original = getattr(sys.modules[f"olx.{module}"], function)
        traced = recorder.wrap(f"{module}.{function}", original, info)
        for m in loaded:
            if vars(m).get(function) is original:
                setattr(m, function, traced)


def main(argv: list[str]) -> int:
    spans_path, olx_args = argv[0], argv[1:]
    recorder = Recorder()
    top = recorder.open(CLI_SPAN, start=_T0)
    try:
        install(recorder)
        from olx.cli import run

        code = run(olx_args)
        sys.stdout.flush()
    finally:
        recorder.close(top)
        recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
