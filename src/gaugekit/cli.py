"""Command-line interface: transform, identify, integrate, verify, idempotents.

Exit codes: 0 success (identify: gauge or linear_family), 1 negative verdict
(identify: not_gauge; verify: deviation above tolerance), 2 parse/validation
error (also a non-finite --t0 or --t1, a --tol that is not finite and > 0,
an unknown key in an input file, or an expression nested deeper than
Python's recursion limit allows), 3 numeric failure, 4 undetermined.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import timexpr as tx
from ._rk import TOL, IntegrationError
from .gauge import frozen_transform_field, gauge_transform
from .identify import (
    NonAutoSystem, default_grid, find_idempotents, identify,
)
from .matcurve import curve_from_dict
from .odeint import integrate as integrate_traj
from .odeint import verify_correspondence
from .polyfield import (
    NearSingularMatrixError, field_from_dict, field_to_dict, format_field,
)

__all__ = ["main"]

_NUMERIC_ERRORS = (IntegrationError, NearSingularMatrixError, tx.EvalError,
                   OverflowError, FloatingPointError, ZeroDivisionError)


class _InputError(Exception):
    """Validation failure naming the offending file (exit code 2)."""


# ---------------------------------------------------------------------------
# Deterministic JSON (numbers at 17 significant digits)
# ---------------------------------------------------------------------------

def _fmt_float(v: float) -> str:
    if not np.isfinite(v):
        return "null"
    if v == int(v) and abs(v) < 1e16:
        return f"{v:.1f}"
    return format(v, ".17g")


def dumps(obj, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{json.dumps(str(k))}: {dumps(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{inner}{dumps(v, indent + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------

def _load_json(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise _InputError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise _InputError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}") from exc
    except RecursionError:
        raise _InputError(f"{path}: JSON nested too deeply") from None


def _load(path: str, parse):
    try:
        return parse(_load_json(path))
    except ValueError as exc:  # tx.ParseError among them
        raise _InputError(f"{path}: {exc}") from exc


def _parse_x0(text: str, dim: int) -> np.ndarray:
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise _InputError(f"--x0: {exc}") from exc
    if len(vals) != dim:
        raise _InputError(f"--x0 has {len(vals)} entries, expected {dim}")
    return np.array(vals)


def _emit(data: dict, render_text, args) -> None:
    fmt = args.format or ("json" if args.out else "text")
    payload = dumps(data) + "\n" if fmt == "json" else render_text(data)
    if args.out:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _run_transform(args) -> int:
    f = _load(args.field, field_from_dict)
    A = _load(args.curve, curve_from_dict)
    if f.dim != A.dim:
        raise _InputError(f"{args.field}: field dim {f.dim} does not match "
                          f"curve dim {A.dim} from {args.curve}")
    ev = gauge_transform(f, A, t_span=(args.t0, args.t1))
    if ev.closed_form is not None:
        data = ev.closed_form.to_dict()
    else:
        ts = default_grid(args.t0, args.t1, args.grid)
        with np.errstate(all="ignore"):  # the pushforward refuses a non-finite A(t)
            data = {"dim": f.dim, "kind": "sampled",
                    "samples": [{"t": float(t),
                                 "field": field_to_dict(frozen_transform_field(f, A, float(t)))}
                                for t in ts]}

    def render(d: dict) -> str:
        lines = ["gauge transform" + ("" if "samples" in d else " (closed form)")]
        if "samples" in d:
            lines.append(f"sampled at {len(d['samples'])} grid times "
                         f"on [{args.t0:g}, {args.t1:g}]")
            first = d["samples"][0]
            lines.append(f"t = {first['t']:g}: "
                         + format_field(field_from_dict(first["field"]), digits=6))
        else:
            lines.append("constant: [" + ", ".join(d["constant"]) + "]")
            lines.append("linear:")
            for row in d["linear"]:
                lines.append("  [" + ", ".join(row) + "]")
            lines.append("terms:")
            for term in d["terms"]:
                mono = "*".join(f"x{k + 1}^{p}" if p > 1 else f"x{k + 1}"
                                for k, p in enumerate(term["exponents"]) if p)
                lines.append(f"  component {term['component'] + 1}: "
                             f"({term['coeff']}) * {mono}")
        return "\n".join(lines) + "\n"

    _emit(data, render, args)
    return 0


def _render_certificate(d: dict) -> str:
    lines = [f"status: {d['status']}"]
    if d["B"] is not None:
        lines.append("B:")
        for row in d["B"]:
            lines.append("  [" + ", ".join(f"{v: .12g}" for v in row) + "]")
    lines.append(f"kernel dimension: {d['kernel_dim']}")
    lines.append("b: [" + ", ".join(f"{v:.12g}" for v in d["b"]) + "]")
    if d["f"] is not None:
        lines.append("reconstructed field: "
                     + format_field(field_from_dict(d["f"]), digits=6))
    if d["residuals"]:
        lines.append(f"residuals: constant {d['residuals']['constant']:.3e}")
        for j, v in d["residuals"]["per_degree"].items():
            lines.append(f"           degree {j}: {v:.3e}")
    g = d["grid"]
    lines.append(f"grid: {g['points']} points on [{g['t0']:g}, {g['t1']:g}]")
    for note in d["diagnostics"]:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def _run_identify(args) -> int:
    q = _load(args.system, NonAutoSystem.from_dict)
    grid = default_grid(args.t0, args.t1, args.grid)
    cert = identify(q, grid, tol=args.tol if args.tol is not None else 1e-6)
    _emit(cert.to_dict(), _render_certificate, args)
    if cert.status in ("gauge", "linear_family"):
        return 0
    return 1 if cert.status == "not_gauge" else 4


def _run_integrate(args) -> int:
    if bool(args.system) == bool(args.field):
        raise _InputError("provide exactly one of --system or --field")
    rhs = (_load(args.system, NonAutoSystem.from_dict) if args.system
           else _load(args.field, field_from_dict))
    x0 = _parse_x0(args.x0, rhs.dim)
    traj = integrate_traj(rhs, x0, (args.t0, args.t1),
                          tol=args.tol if args.tol is not None else TOL)
    data = traj.to_dict()

    def render(d: dict) -> str:
        lines = [f"{len(d['t'])} samples on [{d['t'][0]:g}, {d['t'][-1]:g}]"]
        if traj.meta.get("blowup"):
            lines.append(f"blow-up detected; trajectory truncated at "
                         f"t = {traj.meta['t_end']:g}")
        lines.append("final state: ["
                     + ", ".join(f"{v:.12g}" for v in d["x"][-1]) + "]")
        return "\n".join(lines) + "\n"

    _emit(data, render, args)
    return 0


def _run_verify(args) -> int:
    f = _load(args.field, field_from_dict)
    A = _load(args.curve, curve_from_dict)
    x0 = _parse_x0(args.x0, f.dim)
    tol = args.tol if args.tol is not None else 1e-6
    dev = verify_correspondence(f, A, x0, (args.t0, args.t1))
    data = {"max_deviation": dev, "tol": tol, "passed": dev <= tol}

    def render(d: dict) -> str:
        verdict = "within" if d["passed"] else "ABOVE"
        return (f"max deviation {d['max_deviation']:.6e} "
                f"({verdict} tolerance {d['tol']:g})\n")

    _emit(data, render, args)
    return 0 if dev <= tol else 1


def _run_idempotents(args) -> int:
    p = _load(args.field, field_from_dict)
    try:
        res = find_idempotents(p, starts=args.starts, seed=args.seed)
    except ValueError as exc:
        raise _InputError(f"{args.field}: {exc}") from exc
    data = {
        "points": [[[float(c.real), float(c.imag)] for c in v] for v in res.points],
        "count": res.count,
        "spanning": res.spanning,
        "conclusive": res.conclusive,
        "message": res.message,
    }

    def render(d: dict) -> str:
        lines = [f"{d['count']} idempotent(s); spanning={str(d['spanning']).lower()}"
                 f" ({d['message']})"]
        for v in d["points"]:
            comps = ", ".join(f"{re:.9g}{im:+.9g}i" if im else f"{re:.9g}"
                              for re, im in v)
            lines.append(f"  ({comps})")
        return "\n".join(lines) + "\n"

    _emit(data, render, args)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--t0", type=float, default=0.0, help="grid start (default 0)")
    sp.add_argument("--t1", type=float, default=1.0, help="grid end (default 1)")
    sp.add_argument("--grid", type=int, default=33,
                    help="number of grid points (default 33)")
    sp.add_argument("--tol", type=float, default=None,
                    help=f"tolerance (default 1e-6; integrate: {TOL:g})")
    sp.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    sp.add_argument("--out", help="output file (JSON unless --format text)")
    sp.add_argument("--format", choices=("json", "text"),
                    help="output format (default: json to file, text to console)")


@functools.cache  # built on the first main() call, then reused
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gaugekit",
        description="Gauge transforms of autonomous polynomial ODEs: apply them, "
                    "identify them, certify them.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("transform", help="gauge-transform a field by a matrix curve")
    sp.add_argument("--field", required=True, help="autonomous field JSON")
    sp.add_argument("--curve", required=True, help="matrix curve JSON")
    _add_common(sp)
    sp.set_defaults(run=_run_transform)

    sp = sub.add_parser("identify",
                        help="decide whether a system is a gauge transform")
    sp.add_argument("--system", required=True, help="nonautonomous system JSON")
    _add_common(sp)
    sp.set_defaults(run=_run_identify)

    sp = sub.add_parser("integrate", help="integrate a system or field")
    sp.add_argument("--system", help="nonautonomous system JSON")
    sp.add_argument("--field", help="autonomous field JSON")
    sp.add_argument("--x0", required=True, help="initial state, comma separated")
    _add_common(sp)
    sp.set_defaults(run=_run_integrate)

    sp = sub.add_parser("verify",
                        help="check the solution correspondence w = A z numerically")
    sp.add_argument("--field", required=True, help="autonomous field JSON")
    sp.add_argument("--curve", required=True, help="matrix curve JSON")
    sp.add_argument("--x0", required=True, help="initial state, comma separated")
    _add_common(sp)
    sp.set_defaults(run=_run_verify)

    sp = sub.add_parser("idempotents",
                        help="complex solutions of p(c) = c for a homogeneous field")
    sp.add_argument("--field", required=True, help="homogeneous field JSON")
    sp.add_argument("--starts", type=int, default=200,
                    help="number of Newton starts (default 200)")
    _add_common(sp)
    sp.set_defaults(run=_run_idempotents)
    return ap


def _check_options(args) -> None:
    for name in ("t0", "t1"):
        if not np.isfinite(getattr(args, name)):
            raise _InputError(f"--{name} must be finite, got {getattr(args, name)!r}")
    if args.tol is not None and not (np.isfinite(args.tol) and args.tol > 0):
        raise _InputError(f"--tol must be finite and > 0, got {args.tol!r}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_options(args)
        return args.run(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:  # before ValueError, a base of some of them
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # the parser recurses; expressions come from system and curve
        # files only
        files = [v for v in (getattr(args, "system", None), getattr(args, "curve", None)) if v]
        print(f"error: {', '.join(files)}: expression nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
