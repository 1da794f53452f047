"""Command-line interface: transform, identify, integrate, verify, idempotents.

Each subcommand takes only the options it reads.  `transform` writes the
closed-form system, which `identify` and `integrate` load back, or exits 3
when the transform has none.  It writes JSON in system format 2, each
shared subexpression once (`NonAutoSystem.to_dict`), and text with every
coefficient in full.

Exit codes: 0 success (identify: gauge or linear_family), 1 negative verdict
(identify: not_gauge; verify: deviation above tolerance), 2 parse/validation
error (also a non-finite --t0, --t1 or --x0 entry, a --tol that is not
finite and > 0, a --starts below 1 or a --seed below 0, an unknown key in
an input file, a system format other than 1 and 2, or a JSON integer
beyond the float range), 3 numeric failure (transform: also no closed
form), 4 undetermined.
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
from .gauge import gauge_transform
from .identify import (
    DEFAULT_GRID_POINTS, DEFAULT_NEWTON_STARTS, DEFAULT_SEED, NonAutoSystem, default_grid,
    find_idempotents, identify,
)
from .matcurve import ClosedFormCurve, curve_from_dict
from .odeint import integrate as integrate_traj
from .odeint import verify_correspondence
from .polyfield import (
    NearSingularMatrixError, field_from_dict, format_field, format_monomial,
)

__all__ = ["main"]


class _InputError(Exception):
    """Validation failure naming the offending file (exit code 2)."""


class _NoClosedForm(Exception):
    """A transform with no closed form to write (exit code 3)."""


_NUMERIC_ERRORS = (IntegrationError, NearSingularMatrixError, tx.EvalError,
                   OverflowError, FloatingPointError, ZeroDivisionError, _NoClosedForm)


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
    if not np.all(np.isfinite(vals)):
        raise _InputError(f"--x0 entries must be finite, got {text!r}")
    return np.array(vals)


def _writes_json(args) -> bool:
    return (args.format or ("json" if args.out else "text")) == "json"


def _emit(data: dict, render_text, args) -> None:
    _write(dumps(data) + "\n" if _writes_json(args) else render_text(data), args)


def _write(payload: str, args) -> None:
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
    system = ev.closed_form
    if system is None:
        kind = "closed_form" if isinstance(A, ClosedFormCurve) else "exp"
        raise _NoClosedForm(f"{args.curve}: no closed form for the {kind} curve "
                            f"on [{args.t0:g}, {args.t1:g}]: {ev.reason}")

    if _writes_json(args):
        _write(dumps(system.to_dict()) + "\n", args)
        return 0
    # the text prints every coefficient in full, without the file's defs
    lines = ["gauge transform (closed form)",
             "constant: [" + ", ".join(map(tx.format_expr, system.constant)) + "]",
             "linear:"]
    for row in system.linear:
        lines.append("  [" + ", ".join(map(tx.format_expr, row)) + "]")
    lines.append("terms:")
    for (comp, exps), e in sorted(system.terms.items()):
        lines.append(f"  component {comp + 1}: "
                     f"({tx.format_expr(e)}) * {format_monomial(exps)}")
    _write("\n".join(lines) + "\n", args)
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
    cert = identify(q, grid, tol=args.tol)
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
    traj = integrate_traj(rhs, x0, (args.t0, args.t1), tol=args.tol)
    data = traj.to_dict()

    def render(d: dict) -> str:
        lines = [f"{len(d['t'])} samples on [{d['t'][0]:g}, {d['t'][-1]:g}]"]
        if traj.meta.get("blowup"):
            lines.append(f"blow-up detected; trajectory truncated at "
                         f"t = {traj.meta['t_end']:g}")
        # rows run in increasing time, so a backward span ends at the first
        end = 0 if args.t1 < args.t0 else -1
        lines.append(f"final state at t = {d['t'][end]:g}: ["
                     + ", ".join(f"{v:.12g}" for v in d["x"][end]) + "]")
        return "\n".join(lines) + "\n"

    _emit(data, render, args)
    return 0


def _run_verify(args) -> int:
    f = _load(args.field, field_from_dict)
    A = _load(args.curve, curve_from_dict)
    x0 = _parse_x0(args.x0, f.dim)
    dev = verify_correspondence(f, A, x0, (args.t0, args.t1))
    data = {"max_deviation": dev, "tol": args.tol, "passed": dev <= args.tol}

    def render(d: dict) -> str:
        verdict = "within" if d["passed"] else "ABOVE"
        return (f"max deviation {d['max_deviation']:.6e} "
                f"({verdict} tolerance {d['tol']:g})\n")

    _emit(data, render, args)
    return 0 if data["passed"] else 1


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

def _add_options(sp: argparse.ArgumentParser, span: str | None = None,
                 tol: float | None = None) -> None:
    """--t0/--t1 for a subcommand that reads a span, --tol for one that reads a
    tolerance, and the output options of every subcommand."""
    if span:
        sp.add_argument("--t0", type=float, default=0.0, help=f"{span} start (default 0)")
        sp.add_argument("--t1", type=float, default=1.0, help=f"{span} end (default 1)")
    if tol is not None:
        sp.add_argument("--tol", type=float, default=tol, help=f"tolerance (default {tol:g})")
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
    _add_options(sp, span="validation span")
    sp.set_defaults(run=_run_transform)

    sp = sub.add_parser("identify",
                        help="decide whether a system is a gauge transform")
    sp.add_argument("--system", required=True, help="nonautonomous system JSON")
    sp.add_argument("--grid", type=int, default=DEFAULT_GRID_POINTS,
                    help=f"number of grid points (default {DEFAULT_GRID_POINTS})")
    _add_options(sp, span="grid", tol=1e-6)
    sp.set_defaults(run=_run_identify)

    sp = sub.add_parser("integrate", help="integrate a system or field")
    sp.add_argument("--system", help="nonautonomous system JSON")
    sp.add_argument("--field", help="autonomous field JSON")
    sp.add_argument("--x0", required=True, help="initial state, comma separated")
    _add_options(sp, span="integration", tol=TOL)
    sp.set_defaults(run=_run_integrate)

    sp = sub.add_parser("verify",
                        help="check the solution correspondence w = A z numerically")
    sp.add_argument("--field", required=True, help="autonomous field JSON")
    sp.add_argument("--curve", required=True, help="matrix curve JSON")
    sp.add_argument("--x0", required=True, help="initial state, comma separated")
    _add_options(sp, span="integration", tol=1e-6)
    sp.set_defaults(run=_run_verify)

    sp = sub.add_parser("idempotents",
                        help="complex solutions of p(c) = c for a homogeneous field")
    sp.add_argument("--field", required=True, help="homogeneous field JSON")
    sp.add_argument("--starts", type=int, default=DEFAULT_NEWTON_STARTS,
                    help=f"number of Newton starts (default {DEFAULT_NEWTON_STARTS})")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"random seed (default {DEFAULT_SEED})")
    _add_options(sp)
    sp.set_defaults(run=_run_idempotents)
    return ap


def _check_options(args) -> None:
    opts = vars(args)  # only the options the subcommand has
    for name in ("t0", "t1"):
        if name in opts and not np.isfinite(opts[name]):
            raise _InputError(f"--{name} must be finite, got {opts[name]!r}")
    if "tol" in opts and not (np.isfinite(opts["tol"]) and opts["tol"] > 0):
        raise _InputError(f"--tol must be finite and > 0, got {opts['tol']!r}")
    if opts.get("starts", 1) < 1:
        raise _InputError(f"--starts must be >= 1, got {opts['starts']}")
    if opts.get("seed", 0) < 0:
        raise _InputError(f"--seed must be >= 0, got {opts['seed']}")


def _join_x0(argv: list) -> list:
    """argv with each --x0 joined to the token after it, so that a start
    whose first entry is negative ("-0.5,0.3") is read as the value of --x0
    rather than taken for an option."""
    out: list = []
    for arg in argv:
        if out and out[-1] == "--x0":
            out[-1] = f"--x0={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_join_x0(sys.argv[1:] if argv is None else argv))
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


if __name__ == "__main__":
    sys.exit(main())
