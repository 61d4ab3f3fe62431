"""The `olx` command line: reproducible experiments with CSV/JSON output.

Every output starts with the full effective run configuration (a `#`
comment line for CSV, the leading "config" member for JSON) so any
artifact can be reproduced from its own header. Floats are written in
shortest round-trip form in both formats, so the two encodings carry
bit-identical numeric values. Exit codes: 0 success, 1 usage or domain
error, 2 numeric failure (overflow included), 3 resource budget; errors
print one machine-parsable line on stderr.

Each subcommand is one entry of the command table: its help text, its
flags as (flag, type, default, help), its CSV header, and a runner
(model, args) -> (params, data, rows) that returns the config parameters,
the JSON body and the CSV rows, built from the library's report
dataclasses.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, astuple
from typing import Any, Callable, NamedTuple, Sequence

from . import __version__
from .errors import DomainError, OlxError, ResourceError, UnsupportedModelError
from .evaluate import calibrate_truncation, direct_value, euler_product_on_line
from .lfamily import LFunctionModel, parse_model
from .mertens import mertens_report
from .resonator import (
    X_MOMENTS_MAX,
    moment_quadrature,
    moment_series,
    resonance_product,
    resonance_products_at_cutoff,
)
from .scan import bound_report, grid_scan, refine_peak
from .summation import env_threads


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        kwargs.setdefault("formatter_class", argparse.ArgumentDefaultsHelpFormatter)
        super().__init__(**kwargs)

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _num(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise _UsageError(f"not a number: {text!r}") from None
    if not math.isfinite(v):
        raise _UsageError(f"not a finite number: {text!r}")
    return v


def _int(text: str) -> int:
    v = _num(text)
    if v != int(v):
        raise _UsageError(f"expected an integer, got {text!r}")
    return int(v)


# Runners call the library through this module's globals at call time, so
# a tracer that rebinds those names sees every call.

def _mertens(model: LFunctionModel, args: argparse.Namespace):
    if args.x_grid is not None:
        grid = [_num(x) for x in args.x_grid.split(",") if x]
    elif args.x is not None:
        grid = [args.x]
    else:
        grid = [1e2, 1e3, 1e4, 1e5, 1e6]
    rep = mertens_report(model, grid)
    rows = list(zip(rep.grid, rep.product, rep.prediction, rep.ratio))
    return {"x_grid": list(rep.grid)}, asdict(rep), rows


def _residue(model: LFunctionModel, args: argparse.Namespace):
    data = {"label": model.label, "residue": model.residue,
            "tail_estimate": model.residue_tail}
    return {}, data, [[model.residue, model.residue_tail]]


def _resonance(model: LFunctionModel, args: argparse.Namespace):
    rep = resonance_product(model, args.T, args.X)
    data = {**asdict(rep), "asymptotic_bound_note": "additive bounded constant omitted"}
    return {"T": rep.T, "X": rep.X}, data, [astuple(rep)[1:]]  # label is not a column


def _moments(model: LFunctionModel, args: argparse.Namespace):
    # the quadrature first: its node budget refuses a run before the series is spent
    quad = moment_quadrature(model, args.X, args.T, args.step)
    ser = moment_series(model, args.X, args.T, args.n_cutoff)
    res, _, _ = resonance_products_at_cutoff(model, args.X)
    params = {"T": args.T, "X": args.X, "n_cutoff": args.n_cutoff, "step": args.step}
    data = {
        "label": model.label,
        "series": asdict(ser),
        "quadrature": asdict(quad),
        "moment_ratio": quad.I1 / quad.I2,
        "resonance_product": res,
        "i2_agreement": abs(ser.I2 - quad.I2) / quad.I2,
    }
    rows = [["series", *astuple(ser)], ["quadrature", *astuple(quad)[:3]]]
    return params, data, rows


def _complex(z: complex) -> dict:
    return {"re": z.real, "im": z.imag, "abs": abs(z)}


def _truncation(model: LFunctionModel, Y: float | None) -> float:
    """--Y, or when it is omitted 1e5 capped at the model's coefficient cutoff."""
    return min(1e5, model.coeff_cutoff) if Y is None else Y


def _evaluate(model: LFunctionModel, args: argparse.Namespace):
    Y = _truncation(model, args.Y)
    value = euler_product_on_line(model, args.t, Y)
    data = {"label": model.label, "t": args.t, "Y": Y, "truncated": _complex(value)}
    row = [args.t, Y, value.real, value.imag, abs(value)]
    try:
        direct = direct_value(model, args.t)
    except OlxError as exc:  # no oracle: the row stops before the direct_* columns
        if not isinstance(exc, UnsupportedModelError):  # a refused one says why
            data["direct_omitted"] = str(exc)
    else:
        data["direct"] = _complex(direct)
        data["deviation"] = abs(value / direct - 1.0)
        row += [direct.real, direct.imag, data["deviation"]]
    return {"t": args.t, "Y": Y}, data, [row]


def _calibrate(model: LFunctionModel, args: argparse.Namespace):
    stats = calibrate_truncation(
        model, (args.t_min, args.t_max), args.Y, args.samples, args.seed
    )
    params = {"t_min": args.t_min, "t_max": args.t_max, "Y": args.Y,
              "samples": args.samples, "seed": args.seed}
    data = asdict(stats)
    data["t"] = data.pop("t_samples")
    data["note"] = "empirical truncation study; no asymptotic rate is asserted"
    rows = [[i, t, d] for i, (t, d) in enumerate(zip(stats.t_samples, stats.deviation))]
    return params, data, rows


def _scan(model: LFunctionModel, args: argparse.Namespace):
    t_min, t_max, T = args.t_min, args.t_max, args.T
    if t_min is None or t_max is None:
        if T is None:
            raise _UsageError("scan needs --t-min/--t-max or --T")
        if not T > 0:
            raise DomainError(f"the window [sqrt(T), T] needs T > 0, got {T}")
        t_min = math.sqrt(T) if t_min is None else t_min
        t_max = T if t_max is None else t_max
    if T is None:
        T = t_max
    Y = _truncation(model, args.Y)
    records = grid_scan(model, t_min, t_max, args.step, Y, args.top_k)
    records.append(refine_peak(model, records[0].t, Y, args.refine_tol, args.step))
    report = asdict(bound_report(records, model, T))
    del report["label"]
    report["note"] = "no verdict: the bound's additive constant is unknown"
    params = {"T": T, "t_min": t_min, "t_max": t_max, "step": args.step, "Y": Y,
              "top_k": args.top_k, "refine_tol": args.refine_tol}
    data = {"label": model.label, "records": [asdict(r) for r in records],
            "bound_report": report}
    return params, data, [astuple(r) for r in records]


_Y_HELP = "product truncation; if omitted, 1e5 capped at the model's coefficient cutoff"


class _Command(NamedTuple):
    help: str
    flags: tuple[tuple[str, Callable[[str], Any] | None, Any, str], ...]
    header: tuple[str, ...]
    runner: Callable[[LFunctionModel, argparse.Namespace], tuple[dict, Any, list]]


_COMMANDS = {
    "mertens": _Command(
        "truncated product vs growth prediction",
        (("--x", _num, None, "single product cutoff"),
         ("--x-grid", None, None, "comma-separated cutoffs (default grid 1e2..1e6)")),
        ("x", "product", "prediction", "ratio"),
        _mertens,
    ),
    "residue": _Command(
        "numerically computed residue at s = 1", (), ("residue", "tail_estimate"), _residue
    ),
    "resonance": _Command(
        "resonance product and growth bound",
        (("--T", _num, 1e8, "scale; sets the cutoff X(T)"),
         ("--X", _num, None, "override the derived cutoff")),
        ("T", "X", "resonance_product", "mertens_factor", "defect", "asymptotic_bound"),
        _resonance,
    ),
    "moments": _Command(
        "moment integrals, series vs quadrature",
        (("--T", _num, 5000.0, "scale; sets the Gaussian width"),
         ("--X", _num, 20.0, f"weight cutoff (<= {X_MOMENTS_MAX:g})"),
         ("--n-cutoff", _int, 100_000, "series enumeration depth"),
         ("--step", _num, 0.04, "base quadrature spacing")),
        ("path", "I1", "I2", "error"),
        _moments,
    ),
    "evaluate": _Command(
        "single-point truncated product and oracle",
        (("--t", _num, 0.0, "height on the 1-line"),
         ("--Y", _num, None, _Y_HELP)),
        # the last three columns appear only when the model has a direct oracle
        ("t", "Y", "re", "im", "abs", "direct_re", "direct_im", "deviation"),
        _evaluate,
    ),
    "calibrate": _Command(
        "truncation quality over seeded samples",
        (("--t-min", _num, 100.0, "sample window start"),
         ("--t-max", _num, 1000.0, "sample window end"),
         ("--Y", _num, 1e6, "product truncation"),
         ("--samples", _int, 100, "sample count"),
         ("--seed", _int, 1, "sampler seed")),
        ("index", "t", "deviation"),
        _calibrate,
    ),
    "scan": _Command(
        "grid scan, peak refinement, bound report",
        (("--T", _num, None, "window defaults to [sqrt(T), T]"),
         ("--t-min", _num, None, "window start"),
         ("--t-max", _num, None, "window end"),
         ("--step", _num, 0.01, "grid spacing"),
         ("--Y", _num, None, _Y_HELP),
         ("--top-k", _int, 10, "records to keep"),
         ("--refine-tol", _num, 1e-6, "golden-section bracket tolerance")),
        ("t", "magnitude", "phase", "Y", "refined"),
        _scan,
    ),
}

# (exception, kind, exit code), first match wins; ArithmeticError covers
# NumericError and the OverflowError/FloatingPointError of a float overflow
_EXIT_CODES = (
    (_UsageError, "usage", 1),
    (ResourceError, "resource", 3),
    (ArithmeticError, "numeric", 2),
    (DomainError, "domain", 1),
)


def _build_parser() -> _Parser:
    p = _Parser(prog="olx", description=__doc__, add_help=True)
    sub = p.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        sp = sub.add_parser(name, help=cmd.help)
        sp.add_argument("--model", default="zeta",
                        help="zeta | zeta^<m> | dedekind:<d> | rs-delta:<N>")
        sp.add_argument("--format", choices=("csv", "json"), default="json",
                        help="output encoding")
        sp.add_argument("--out", default=None, help="output path (stdout if absent)")
        for flag, kind, default, text in cmd.flags:
            sp.add_argument(flag, type=kind, default=default, help=text)
    return p


def _fmt(v: Any) -> str:
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, float):
        return repr(float(v))  # normalizes numpy scalars to shortest round-trip
    return str(v)


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(args: argparse.Namespace, params: dict, data: Any,
          header: Sequence[str], rows: list) -> None:
    config = {"command": args.command, "model": args.model, "format": args.format,
              "out": args.out, "threads": env_threads(), **params}
    if args.format == "json":
        lines = [_dumps({"config": config, "data": data, "version": __version__})]
    else:
        lines = [f"# olx {__version__} {_dumps(config)}", ",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.out!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def run(argv: Sequence[str]) -> int:
    """Execute one subcommand; returns the process exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
        env_threads()  # validate early
        cmd = _COMMANDS[args.command]
        params, data, rows = cmd.runner(parse_model(args.model), args)
        header = cmd.header[: len(rows[0])] if rows else cmd.header
        _emit(args, params, data, header, rows)
        return 0
    except tuple(cls for cls, _, _ in _EXIT_CODES) as exc:
        kind, code = next((k, c) for cls, k, c in _EXIT_CODES if isinstance(exc, cls))
        print(f"error: {kind}: {exc}", file=sys.stderr)
        return code


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
