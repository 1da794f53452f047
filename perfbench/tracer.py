"""Span tracer for the traced benchmark run.

The tracer replaces each traced public function of gaugekit by a wrapper in
every gaugekit module namespace that holds it (``integrate_dense`` is looked
up in ``matcurve``, ``gauge`` and ``odeint``; ``linear_pushforward`` in
``identify`` and ``gauge``; ``integrate`` is ``integrate_traj`` in ``cli``).
Nothing under ``src/`` changes: the wrappers are installed from here.

Each wrapped call records one span (name, parent span, start, end).  The
right-hand side handed to ``integrate_dense`` is wrapped too, so every RHS
call is a span whose parent is its solve.  Spans are kept in compact arrays
in memory and written out once, at the end of the run; self times are span
time minus the time of the direct child spans.
"""

from __future__ import annotations

import re
import sys
import time
from array import array

import numpy as np

RHS = "rk.rhs"

# (defining module, attribute, span name, recursive): a recursive function
# records only its outermost call.
TRACED = [
    ("gaugekit.timexpr", "parse_expr", "timexpr.parse", False),
    ("gaugekit.timexpr", "diff_expr", "timexpr.diff", True),
    ("gaugekit.timexpr", "eval_expr", "timexpr.eval", True),
    ("gaugekit.timexpr", "compile_expr", "timexpr.compile", False),
    ("gaugekit.polyfield", "linear_pushforward", "polyfield.pushforward", False),
    ("gaugekit.polyfield", "lie_bracket", "polyfield.bracket", False),
    ("gaugekit.polyfield", "field_from_dict", "cli.load", False),
    ("gaugekit.matcurve", "mat_exp", "matcurve.mat_exp", False),
    ("gaugekit.matcurve", "solve_gauge_ode", "matcurve.flow", False),
    ("gaugekit.matcurve", "curve_from_dict", "cli.load", False),
    ("gaugekit._rk", "integrate_dense", "rk.solve", False),
    ("gaugekit.gauge", "gauge_transform", "gauge.transform", False),
    ("gaugekit.gauge", "symbolic_pushforward", "gauge.symbolic_pushforward", False),
    ("gaugekit.identify", "identify", "identify.identify", False),
    ("gaugekit.identify", "extract_jet", "identify.jet", False),
    ("gaugekit.identify", "solve_candidate_B", "identify.solve", False),
    ("gaugekit.identify", "verify_candidate", "identify.verify", False),
    ("gaugekit.odeint", "integrate", "odeint.integrate", False),
    ("gaugekit.cli", "main", "cli.main", False),
    ("gaugekit.cli", "dumps", "cli.dumps", True),
]

_REFINE_NOTE = re.compile(r"refinement (?:stopped after|exhausted) (\d+) iterations")


class Tracer:
    """Records spans while `enabled`; the benchmark turns it off around its
    own correctness checks so that they do not count as program work."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.steps = array("l")     # accepted steps of an rk.solve span, else 0
        self._stack: list[int] = []
        self._active: set[str] = set()
        self.enabled = False
        # outputs of the traced calls, read by the benchmark after each pass
        self.closed_forms: list = []
        self.certificates: list = []

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.steps.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str, recursive: bool):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled or name in tracer._active:
                return fn(*args, **kwargs)
            if recursive:
                tracer._active.add(name)
            idx = tracer._open(name)
            try:
                if name == "rk.solve":
                    args = (tracer._wrap(args[0], RHS, False),) + args[1:]
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                if recursive:
                    tracer._active.discard(name)
            tracer._record_output(name, idx, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _record_output(self, name: str, idx: int, out) -> None:
        if name == "rk.solve":
            self.steps[idx] = len(out.t_starts)
        elif name == "gauge.transform" and out.closed_form is not None:
            self.closed_forms.append(out.closed_form)
        elif name == "identify.identify":
            self.certificates.append(out)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Replace every traced function in every gaugekit namespace."""
        import gaugekit.cli  # noqa: F401  (the one module the package does not import)
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "gaugekit" or key.startswith("gaugekit."))]
        for mod_name, attr, name, recursive in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(original, name, recursive)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        from gaugekit.identify import NonAutoSystem
        load = self._wrap(NonAutoSystem.from_dict.__func__, "cli.load", False)
        NonAutoSystem.from_dict = classmethod(load)

    # -- reading --------------------------------------------------------------

    def mark(self) -> int:
        """Span index where the next pass begins."""
        return len(self.start)

    def take_outputs(self) -> tuple[list, list]:
        out = (self.closed_forms, self.certificates)
        self.closed_forms, self.certificates = [], []
        return out

    def pass_metrics(self, lo: int, hi: int) -> dict:
        """Per-layer totals over spans [lo, hi): counts and self times."""
        # copies: a live view would stop the arrays from growing
        name_id = np.frombuffer(self.name_id[lo:hi], dtype=np.int_)
        parent = np.frombuffer(self.parent[lo:hi], dtype=np.int_) - lo
        dur = np.frombuffer(self.end[lo:hi]) - np.frombuffer(self.start[lo:hi])
        steps = np.frombuffer(self.steps[lo:hi], dtype=np.int_)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_time = dur - child
        ids = {n: i for i, n in enumerate(self.names)}

        def mask(name):
            return name_id == ids.get(name, -1)

        def count(name):
            return int(np.count_nonzero(mask(name)))

        def self_s(name):
            return float(np.sum(self_time[mask(name)]))

        def total_s(name):
            return float(np.sum(dur[mask(name)]))

        rk, rhs, flow = mask("rk.solve"), mask(RHS), mask("matcurve.flow")
        rhs_per_solve = np.bincount(parent[rhs], minlength=len(dur))
        rk_under_flow = rk & has_parent & np.isin(parent, np.nonzero(flow)[0])
        accepted = int(np.sum(steps[rk]))
        attempted = int(np.sum((rhs_per_solve[rk] - 2) // 6))
        rhs_calls = count(RHS)
        rhs_s = total_s(RHS)
        return {
            "timexpr.diff_s": self_s("timexpr.diff"),
            "timexpr.eval_s": self_s("timexpr.eval"),
            "timexpr.compile_s": self_s("timexpr.compile"),
            "timexpr.compile_calls": count("timexpr.compile"),
            "timexpr.parse_s": self_s("timexpr.parse"),
            "gauge.transform_s": self_s("gauge.transform"),
            "gauge.symbolic_pushforward_s": self_s("gauge.symbolic_pushforward"),
            "identify.identify_s": self_s("identify.identify"),
            "identify.jet_s": self_s("identify.jet"),
            "identify.solve_s": self_s("identify.solve"),
            "identify.verify_s": self_s("identify.verify"),
            "identify.verify_calls": count("identify.verify"),
            "matcurve.flow_solves": count("matcurve.flow"),
            "matcurve.flow_s": total_s("matcurve.flow"),
            "matcurve.flow_setup_s": total_s("matcurve.flow")
            - float(np.sum(dur[rk_under_flow])),
            "matcurve.mat_exp_s": self_s("matcurve.mat_exp"),
            "matcurve.mat_exp_calls": count("matcurve.mat_exp"),
            "rk.solves": count("rk.solve"),
            "rk.rhs_calls": rhs_calls,
            "rk.steps_accepted": accepted,
            "rk.steps_rejected": attempted - accepted,
            "rk.rhs_s": rhs_s,
            "rk.rhs_us_per_call": 1e6 * rhs_s / rhs_calls if rhs_calls else 0.0,
            "rk.self_s": self_s("rk.solve"),
            "polyfield.pushforward_s": self_s("polyfield.pushforward"),
            "polyfield.pushforward_calls": count("polyfield.pushforward"),
            "polyfield.bracket_s": self_s("polyfield.bracket"),
            "odeint.integrate_s": self_s("odeint.integrate"),
            "cli.load_s": self_s("cli.load"),
            "cli.dumps_s": self_s("cli.dumps"),
            "cli.self_s": self_s("cli.main"),
        }

    def save(self, path) -> None:
        """Write every recorded span; times are seconds on perf_counter."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int_),
                 parent=np.frombuffer(self.parent, dtype=np.int_),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 steps=np.frombuffer(self.steps, dtype=np.int_))


def refine_iterations(certificates) -> int:
    """Gauss-Newton iterations, read from the certificates' notes."""
    total = 0
    for cert in certificates:
        for note in cert.diagnostics:
            m = _REFINE_NOTE.search(note)
            if m:
                total += int(m.group(1))
    return total


def expression_counts(systems) -> dict:
    """Tree nodes (shared subtrees counted at each use), distinct subtrees
    under structural equality (per system), and nonzero coefficients."""
    from gaugekit import timexpr as tx

    tree = unique = coeffs = 0
    zero = tx.Lit(0.0)
    for q in systems:
        exprs = list(q.constant) + [e for row in q.linear for e in row] \
            + list(q.terms.values())
        coeffs += sum(1 for e in exprs if e != zero)
        size: dict[int, int] = {}
        canon: dict[int, int] = {}
        keys: dict[tuple, int] = {}
        alive = []
        for root in exprs:
            stack = [(root, False)]
            while stack:
                node, ready = stack.pop()
                if id(node) in size:
                    continue
                kids = _children(node, tx)
                if not ready:
                    stack.append((node, True))
                    stack.extend((k, False) for k in kids if id(k) not in size)
                    continue
                alive.append(node)
                size[id(node)] = 1 + sum(size[id(k)] for k in kids)
                key = (type(node).__name__, _payload(node, tx),
                       tuple(canon[id(k)] for k in kids))
                canon[id(node)] = keys.setdefault(key, len(keys))
            tree += size[id(root)]
        unique += len(keys)
    return {"timexpr.tree_nodes": tree, "timexpr.unique_nodes": unique,
            "gauge.emitted_coeffs": coeffs}


def _children(node, tx) -> tuple:
    if isinstance(node, (tx.Add, tx.Sub, tx.Mul, tx.Div)):
        return (node.left, node.right)
    if isinstance(node, (tx.Neg, tx.Fun)):
        return (node.arg,)
    if isinstance(node, tx.Pow):
        return (node.base,)
    return ()


def _payload(node, tx):
    if isinstance(node, tx.Lit):
        return node.value
    if isinstance(node, tx.Fun):
        return node.name
    if isinstance(node, tx.Pow):
        return node.exponent
    return None
