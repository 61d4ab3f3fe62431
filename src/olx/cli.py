"""The `olx` command line: reproducible experiments with CSV/JSON output.

Every output starts with the full effective run configuration (a `#`
comment line for CSV, the leading "config" member for JSON) so any
artifact can be reproduced from its own header. Floats are written in
shortest round-trip form in both formats, so the two encodings carry
bit-identical numeric values. Exit codes: 0 success, 1 usage or domain
error, 2 numeric failure, 3 resource budget; errors print one
machine-parsable line on stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Sequence

from . import __version__
from .errors import DomainError, NumericError, OlxError, ResourceError
from .evaluate import calibrate_truncation, direct_value, euler_product_on_line
from .lfamily import parse_model, sym2_residue
from .mertens import mertens_report
from .resonator import (
    ResonanceReport,
    asymptotic_bound,
    moment_quadrature,
    moment_series,
    resonance_product,
    resonance_products_at_cutoff,
)
from .scan import bound_report, env_threads, grid_scan, refine_peak


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


def _build_parser() -> _Parser:
    p = _Parser(prog="olx", description=__doc__, add_help=True)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--model", default="zeta",
                        help="zeta | zeta^<m> | dedekind:<d> | rs-delta:<N>")
        sp.add_argument("--format", choices=("csv", "json"), default="json",
                        help="output encoding")
        sp.add_argument("--out", default=None, help="output path (stdout if absent)")

    sp = sub.add_parser("mertens", help="truncated product vs growth prediction")
    common(sp)
    sp.add_argument("--x", type=_num, default=None, help="single product cutoff")
    sp.add_argument("--x-grid", default=None,
                    help="comma-separated cutoffs (default grid 1e2..1e6)")

    sp = sub.add_parser("residue", help="numerically computed residue at s = 1")
    common(sp)

    sp = sub.add_parser("resonance", help="resonance product and growth bound")
    common(sp)
    sp.add_argument("--T", type=_num, default=1e8, help="scale; sets the cutoff X(T)")
    sp.add_argument("--X", type=_num, default=None, help="override the derived cutoff")

    sp = sub.add_parser("moments", help="moment integrals, series vs quadrature")
    common(sp)
    sp.add_argument("--T", type=_num, default=5000.0, help="scale; sets the Gaussian width")
    sp.add_argument("--X", type=_num, default=20.0, help="weight cutoff (<= 50)")
    sp.add_argument("--n-cutoff", type=_int, default=100_000,
                    help="series enumeration depth")
    sp.add_argument("--step", type=_num, default=0.04, help="base quadrature spacing")

    sp = sub.add_parser("evaluate", help="single-point truncated product and oracle")
    common(sp)
    sp.add_argument("--t", type=_num, default=0.0, help="height on the 1-line")
    sp.add_argument("--Y", type=_num, default=1e5, help="product truncation")

    sp = sub.add_parser("calibrate", help="truncation quality over seeded samples")
    common(sp)
    sp.add_argument("--t-min", type=_num, default=100.0, help="sample window start")
    sp.add_argument("--t-max", type=_num, default=1000.0, help="sample window end")
    sp.add_argument("--Y", type=_num, default=1e6, help="product truncation")
    sp.add_argument("--samples", type=_int, default=100, help="sample count")
    sp.add_argument("--seed", type=_int, default=1, help="sampler seed")

    sp = sub.add_parser("scan", help="grid scan, peak refinement, bound report")
    common(sp)
    sp.add_argument("--T", type=_num, default=None, help="window defaults to [sqrt(T), T]")
    sp.add_argument("--t-min", type=_num, default=None, help="window start")
    sp.add_argument("--t-max", type=_num, default=None, help="window end")
    sp.add_argument("--step", type=_num, default=0.01, help="grid spacing")
    sp.add_argument("--Y", type=_num, default=1e5, help="product truncation")
    sp.add_argument("--top-k", type=_int, default=10, help="records to keep")
    sp.add_argument("--refine-tol", type=_num, default=1e-6,
                    help="golden-section bracket tolerance")
    return p


def _run_command(args: argparse.Namespace) -> tuple[dict, Any, list[str], list[list]]:
    """Returns (config_params, json_data, csv_header, csv_rows)."""
    cmd = args.command
    model = parse_model(args.model)

    if cmd == "mertens":
        if args.x_grid is not None:
            grid = [_num(x) for x in args.x_grid.split(",") if x]
        elif args.x is not None:
            grid = [args.x]
        else:
            grid = [1e2, 1e3, 1e4, 1e5, 1e6]
        rep = mertens_report(model, grid)
        params = {"x_grid": list(rep.grid)}
        data = {
            "label": rep.label,
            "grid": list(rep.grid),
            "product": list(rep.product),
            "prediction": list(rep.prediction),
            "ratio": list(rep.ratio),
        }
        rows = [
            [x, p, q, r]
            for x, p, q, r in zip(rep.grid, rep.product, rep.prediction, rep.ratio)
        ]
        return params, data, ["x", "product", "prediction", "ratio"], rows

    if cmd == "residue":
        if model.kind == "rankin-selberg":
            value, tail = sym2_residue(int(model.coeff_cutoff))
        else:
            value, tail = model.residue, 0.0
        data = {"label": model.label, "residue": value, "tail_estimate": tail}
        return {}, data, ["residue", "tail_estimate"], [[value, tail]]

    if cmd == "resonance":
        if args.X is not None:
            res, mer, dft = resonance_products_at_cutoff(model, args.X)
            rep = ResonanceReport(
                label=model.label,
                T=args.T,
                X=args.X,
                resonance_product=res,
                mertens_factor=mer,
                defect=dft,
                asymptotic_bound=asymptotic_bound(model, args.T),
            )
        else:
            rep = resonance_product(model, args.T)
        params = {"T": rep.T, "X": rep.X}
        data = {
            "label": rep.label,
            "T": rep.T,
            "X": rep.X,
            "resonance_product": rep.resonance_product,
            "mertens_factor": rep.mertens_factor,
            "defect": rep.defect,
            "asymptotic_bound": rep.asymptotic_bound,
            "asymptotic_bound_note": "additive bounded constant omitted",
        }
        header = ["T", "X", "resonance_product", "mertens_factor", "defect", "asymptotic_bound"]
        rows = [[rep.T, rep.X, rep.resonance_product, rep.mertens_factor, rep.defect, rep.asymptotic_bound]]
        return params, data, header, rows

    if cmd == "moments":
        ser = moment_series(model, args.X, args.T, args.n_cutoff)
        quad = moment_quadrature(model, args.X, args.T, args.step)
        res, _, _ = resonance_products_at_cutoff(model, args.X)
        params = {"T": args.T, "X": args.X, "n_cutoff": args.n_cutoff, "step": args.step}
        data = {
            "label": model.label,
            "series": {"I1": ser.I1, "I2": ser.I2, "truncation_bound": ser.truncation_bound},
            "quadrature": {
                "I1": quad.I1,
                "I2": quad.I2,
                "error_estimate": quad.error_estimate,
                "i1_imag_rel": quad.i1_imag_rel,
            },
            "moment_ratio": quad.I1 / quad.I2,
            "resonance_product": res,
            "i2_agreement": abs(ser.I2 - quad.I2) / quad.I2,
        }
        header = ["path", "I1", "I2", "error"]
        rows = [
            ["series", ser.I1, ser.I2, ser.truncation_bound],
            ["quadrature", quad.I1, quad.I2, quad.error_estimate],
        ]
        return params, data, header, rows

    if cmd == "evaluate":
        value = euler_product_on_line(model, args.t, args.Y)
        data = {
            "label": model.label,
            "t": args.t,
            "Y": args.Y,
            "truncated": {"re": value.real, "im": value.imag, "abs": abs(value)},
        }
        row = [args.t, args.Y, value.real, value.imag, abs(value)]
        header = ["t", "Y", "re", "im", "abs"]
        try:
            direct = direct_value(model, args.t)
            data["direct"] = {"re": direct.real, "im": direct.imag, "abs": abs(direct)}
            data["deviation"] = abs(value / direct - 1.0)
            header += ["direct_re", "direct_im", "deviation"]
            row += [direct.real, direct.imag, data["deviation"]]
        except OlxError:
            pass
        return {"t": args.t, "Y": args.Y}, data, header, [row]

    if cmd == "calibrate":
        stats = calibrate_truncation(
            model, (args.t_min, args.t_max), args.Y, args.samples, args.seed
        )
        params = {
            "t_min": args.t_min,
            "t_max": args.t_max,
            "Y": args.Y,
            "samples": args.samples,
            "seed": args.seed,
        }
        data = {
            "label": stats.label,
            "t_range": list(stats.t_range),
            "Y": stats.Y,
            "sample_count": stats.sample_count,
            "seed": stats.seed,
            "median": stats.median,
            "mean": stats.mean,
            "max": stats.max,
            "t": list(stats.t_samples),
            "deviation": list(stats.deviation),
            "note": "empirical truncation study; no asymptotic rate is asserted",
        }
        rows = [
            [i, t, d]
            for i, (t, d) in enumerate(zip(stats.t_samples, stats.deviation))
        ]
        return params, data, ["index", "t", "deviation"], rows

    if cmd == "scan":
        t_min, t_max = args.t_min, args.t_max
        T = args.T
        if t_min is None or t_max is None:
            if T is None:
                raise _UsageError("scan needs --t-min/--t-max or --T")
            t_min = math.sqrt(T) if t_min is None else t_min
            t_max = T if t_max is None else t_max
        if T is None:
            T = t_max
        records = grid_scan(model, t_min, t_max, args.step, args.Y, args.top_k)
        refined = refine_peak(
            model, records[0].t, args.Y, args.refine_tol, args.step
        )
        rep = bound_report(records + [refined], model, T)
        params = {
            "T": T,
            "t_min": t_min,
            "t_max": t_max,
            "step": args.step,
            "Y": args.Y,
            "top_k": args.top_k,
            "refine_tol": args.refine_tol,
        }
        data = {
            "label": model.label,
            "records": [
                {"t": r.t, "magnitude": r.magnitude, "phase": r.phase, "Y": r.Y, "refined": r.refined}
                for r in records + [refined]
            ],
            "bound_report": {
                "T": rep.T,
                "max_t": rep.max_t,
                "max_magnitude": rep.max_magnitude,
                "bound": rep.bound,
                "difference": rep.difference,
                "ratio": rep.ratio,
                "conjectural_form": rep.conjectural_form,
                "note": "no verdict: the bound's additive constant is unknown",
            },
        }
        rows = [
            [r.t, r.magnitude, r.phase, r.Y, int(r.refined)]
            for r in records + [refined]
        ]
        return params, data, ["t", "magnitude", "phase", "Y", "refined"], rows

    raise _UsageError(f"unknown command {cmd!r}")


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return repr(float(v))  # normalizes numpy scalars to shortest round-trip
    return str(v)


def _emit(
    args: argparse.Namespace,
    params: dict,
    data: Any,
    header: list[str],
    rows: list[list],
) -> None:
    config = {
        "command": args.command,
        "model": args.model,
        "format": args.format,
        "out": args.out,
        "threads": env_threads(),
        **params,
    }
    if args.format == "json":
        payload = {"config": config, "data": data, "version": __version__}
        text = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        lines = [
            "# olx "
            + __version__
            + " "
            + json.dumps(config, sort_keys=True, separators=(",", ":"))
        ]
        lines.append(",".join(header))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
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
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
        env_threads()  # validate early
        params, data, header, rows = _run_command(args)
        _emit(args, params, data, header, rows)
        return 0
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return 1
    except ResourceError as exc:
        print(f"error: resource: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: numeric: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
