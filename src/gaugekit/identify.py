"""Deciding whether a nonautonomous system is a gauge transform of an autonomous one.

Pipeline: take the Taylor jet at t=0 and solve the rows of its orders, all
linear in B, for the candidate family; certify its minimum-norm member by
residuals over a time grid along A(t) = T(t) exp(-tB), with T' = C(t)T,
T(0) = I integrated once, and raise the jet order while the member fails and
the family keeps a kernel.  The idempotent finder corroborates uniqueness of
B for generic nonlinearities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import product

import numpy as np

from . import polyfield
from . import timexpr as tx
from ._rk import IntegrationError
from .matcurve import mat_exp, solve_gauge_ode
from .polyfield import (
    NearSingularMatrixError, PolyField, as_index, check_invertible, check_keys, field_to_dict,
    linear_pushforward, parse_at,
)

__all__ = [
    "NonAutoSystem", "JetData", "CandidateFamily", "VerificationReport",
    "GaugeCertificate", "IdempotentSet",
    "extract_jet", "solve_candidate_B", "verify_candidate", "identify",
    "find_idempotents", "default_grid",
]

DEFAULT_GRID_POINTS = 33
# find_idempotents' number of Newton starts and random seed
DEFAULT_NEWTON_STARTS = 200
DEFAULT_SEED = 0
_SV_CUTOFF = 1e-10
_SOLVE_RESIDUAL_TOL = 1e-8
_NEWTON_ITERS = 60


def default_grid(t0: float = 0.0, t1: float = 1.0,
                 points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    if not (t1 > t0) or points < 2:
        raise ValueError("grid needs t1 > t0 and at least 2 points")
    return np.linspace(t0, t1, points)


class NonAutoSystem:
    """Analytic nonautonomous system x' = c(t) + C(t) x + sum_j q_j(t, x).

    Coefficients are TimeExpr; `terms` holds the parts homogeneous of degree
    >= 2, keyed by (component, exponent multi-index).
    """

    def __init__(self, dim: int, constant=None, linear=None, terms=None):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        zero = tx.Lit(0.0)
        self.constant = ([tx.as_expr(e) for e in constant]
                         if constant is not None else [zero] * dim)
        if len(self.constant) != dim:
            raise ValueError("constant part must have one entry per component")
        self.linear = ([[tx.as_expr(e) for e in row] for row in linear]
                       if linear is not None else [[zero] * dim for _ in range(dim)])
        if len(self.linear) != dim or any(len(r) != dim for r in self.linear):
            raise ValueError("linear part must be an n x n table")
        self.terms: dict = {}
        for (comp, exps), e in (terms or {}).items():
            exps = tuple(int(v) for v in exps)
            if not (0 <= comp < dim) or len(exps) != dim:
                raise ValueError(f"bad term key ({comp}, {exps}) for dim {dim}")
            if any(v < 0 for v in exps):
                raise ValueError(f"negative exponent in term {exps}")
            if sum(exps) < 2:
                raise ValueError(
                    f"term {exps} has total degree {sum(exps)}; "
                    "degrees 0 and 1 belong to the constant/linear tables")
            if sum(exps) > polyfield.MAX_DEGREE:
                raise ValueError(
                    f"term {exps} exceeds the degree cap {polyfield.MAX_DEGREE}")
            self.terms[(int(comp), exps)] = tx.as_expr(e)
        # sorted, as to_dict writes them, so that a system read back from its
        # file sums its terms in the same order
        self.terms = dict(sorted(self.terms.items()))
        # one table holds every coefficient: constants, the linear table row
        # by row, then the terms; each column is keyed like a term, and the
        # monomials (component, column, powers) skip its structural zeros
        units = [tuple(int(v == j) for v in range(dim)) for j in range(dim)]
        columns = [(i, (0,) * dim) for i in range(dim)] \
            + [(i, units[j]) for i in range(dim) for j in range(dim)] + list(self.terms)
        self._monomials = [(i, k, tuple((v, p) for v, p in enumerate(exps) if p))
                           for k, ((i, exps), e) in enumerate(zip(columns, self._coefficients()))
                           if e != zero]

    def _coefficients(self) -> list:
        """Every coefficient in table order: constants, linear rows, terms."""
        return self.constant + [e for row in self.linear for e in row] \
            + list(self.terms.values())

    # -- structure -------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted({sum(exps) for (_, exps) in self.terms})

    # -- evaluation --------------------------------------------------------
    # Each reader makes one table call per t and splits its row by _split.

    @cached_property
    def _numbering(self):
        """_coefficients() numbered by timexpr._number_nodes: the table is
        compiled from it and to_dict prints it, so the trees are walked once."""
        return tx._number_nodes(self._coefficients())

    @cached_property
    def _table(self):
        """t -> all coefficient values, in the order of _coefficients():
        one table, compiled on first use."""
        return tx.compile_table(self._coefficients(), self._numbering)

    def _split(self, rows) -> tuple:
        """m rows of the table, its values at m times or m Taylor columns, as
        (c, C, q): the (m, n) constants, the (m, n, n) linear part and, per
        degree j in increasing order, q[j] = (keys, values), the degree-j
        term keys in term order and their (m, len(keys)) values.  A -0 reads
        as 0.0."""
        n = self.dim
        vals = np.array(rows, dtype=float) + 0.0
        degrees: dict = {}
        for k, key in enumerate(self.terms, n + n * n):
            keys, cols = degrees.setdefault(sum(key[1]), ([], []))
            keys.append(key)
            cols.append(k)
        return (vals[:, :n], vals[:, n:n + n * n].reshape(-1, n, n),
                {j: (keys, vals[:, cols]) for j, (keys, cols) in sorted(degrees.items())})

    def constant_at(self, t: float) -> np.ndarray:
        return self._split([self._table(t)])[0][0]

    def degree_part_at(self, t: float, j: int) -> PolyField:
        keys, vals = self._split([self._table(t)])[2].get(j, ([], [[]]))
        return PolyField(self.dim, dict(zip(keys, vals[0])))

    @cached_property
    def _rhs(self):
        """(t, y) -> the system's value as a tuple of floats, for y a list of
        floats: the monomial sums over one table call, generated on first use
        (constant, then linear, then terms, in table order)."""
        return tx.compile_rhs(self.dim, self._monomials, self._table)

    def eval(self, t: float, x) -> np.ndarray:
        return np.array(self._rhs(t, np.asarray(x, dtype=float).tolist()))

    # -- JSON ---------------------------------------------------------------

    def to_dict(self) -> dict:
        """The system in format 2: each subexpression that the coefficients
        share is written once, in `defs`, and named e0, e1, ... wherever it
        occurs (timexpr.format_shared over _numbering)."""
        defs, texts = tx.format_shared(*self._numbering)
        n = self.dim
        return {
            "format": 2,
            "dim": n,
            "defs": defs,
            "constant": texts[:n],
            "linear": [texts[n + i * n:n + (i + 1) * n] for i in range(n)],
            "terms": [{"component": comp, "exponents": list(exps), "coeff": text}
                      for (comp, exps), text in zip(self.terms, texts[n + n * n:])],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "NonAutoSystem":
        """Read a system in format 1 (no "format" key, no defs) or format 2.
        Format 2 reads defs[j] as an expression that may name e0..e<j-1>,
        and each coefficient as one that may name any def; a name stands for
        the one object of its def."""
        if not isinstance(d, dict) or "dim" not in d:
            raise ValueError("system object must have a 'dim' entry")
        check_keys(d, ("format", "dim", "defs", "constant", "linear", "terms"),
                   "system object")
        version = as_index(d.get("format", 1), "format")
        if version not in (1, 2):
            raise ValueError(f"'format' is {version}; systems have formats 1 and 2")
        if "defs" in d and version != 2:
            raise ValueError("'defs' needs \"format\": 2")
        dim = as_index(d["dim"], "dim")
        defs_src = d.get("defs", [])
        if not isinstance(defs_src, list):
            raise ValueError("'defs' must be a list")
        defs = [] if version == 2 else None
        for j, src in enumerate(defs_src):
            defs.append(parse_at(src, f"defs[{j}]", defs))
        parse = partial(parse_at, defs=defs)
        constant_src = d.get("constant", ["0"] * dim)
        if not isinstance(constant_src, list):
            raise ValueError("'constant' must be a list")
        constant = [parse(e, f"constant[{i}]") for i, e in enumerate(constant_src)]
        linear = polyfield.read_table(d.get("linear", [["0"] * dim for _ in range(dim)]),
                                      "linear", parse)
        terms = polyfield.terms_from_list(d.get("terms", []), "system", parse)
        return cls(dim, constant, linear, terms)


# ---------------------------------------------------------------------------
# Jets
# ---------------------------------------------------------------------------

@dataclass
class JetData:
    """Taylor coefficients at t=0 of a nonautonomous system, up to `order`:
    c[k] of the constant part and q[j][k] (a PolyField) of the degree-j part
    for k <= order, and C[l] of the linear part for l < max(order, 1)."""
    dim: int
    c: list
    C: list
    q: dict

    @property
    def order(self) -> int:
        return len(self.c) - 1


def extract_jet(q: NonAutoSystem, order: int = 1) -> JetData:
    """Exact jet at t=0: every Taylor column read from q's own compiled
    table (column 0 is its values) and split by q._split, each field in q's
    term order; the linear part's column `order` is not part of the jet."""
    c, C, terms = q._split(q._table.taylor(0.0, order))
    return JetData(q.dim, list(c), list(C[:max(order, 1)]),
                   {j: [PolyField(q.dim, dict(zip(keys, row))) for row in vals.tolist()]
                    for j, (keys, vals) in terms.items()})


# ---------------------------------------------------------------------------
# Candidate solve
# ---------------------------------------------------------------------------

@dataclass
class CandidateFamily:
    """Affine solution set M_min + span(kernel) of the jet's conditions;
    B = C(0) + M."""
    B: np.ndarray
    M: np.ndarray
    kernel: list
    residual: float
    unconstrained: bool = False

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)


def _degree_keys(n: int, j: int) -> list:
    """Every (component, exponents) key of degree j, sorted."""
    return [(i, e) for i in range(n) for e in product(range(j + 1), repeat=n) if sum(e) == j]


def _bracket_block(p: PolyField, keys: list) -> np.ndarray:
    """The (len(keys), n^2) matrix whose column a*n + b is [E_ab, p] over keys,
    every key of p's degree, for E_ab the elementary matrix.

    [E_ab, p] = Dp E_ab x - E_ab p: a term c x^m e_i of p gives c m_a at key
    (i, m - e_a + e_b) of column a*n + b when m_a > 0, and -c at key (a, m) of
    column a*n + i.  No two terms share a key within a column, so this is
    lie_bracket(E_ab as a linear field, p) bit for bit.
    """
    n = p.dim
    row = {key: r for r, key in enumerate(keys)}
    pos = np.zeros((len(keys), n * n))
    neg = np.zeros_like(pos)
    for (i, m), c in p.terms.items():
        for a in range(n):
            neg[row[a, m], a * n + i] = c
            if m[a]:
                shifted = list(m)
                shifted[a] -= 1
                for b in range(n):
                    shifted[b] += 1
                    pos[row[i, tuple(shifted)], a * n + b] = c * m[a]
                    shifted[b] -= 1
    return pos - neg


def _stack_constraints(jet: JetData):
    """Rows over the n^2 entries of M = B - C(0), for every order 1..jet.order.

    Along A' = CA - AB, N = A B A^-1 - C has A'A^-1 = -N, N(0) = M and
    N' = [C, N] - C' (matrix commutator), so its Taylor coefficients satisfy
    (i+1) N_{i+1} = sum_{l<=i} (C_l N_{i-l} - N_{i-l} C_l) - (i+1) C_{i+1}
    and each is affine in M.  q_j(t) = A(t)_* p_j and c(t) = A(t) c(0) give
    k q_{j,k} = sum_{i<k} [N_i, q_{j,k-1-i}] and k c_k = -sum_{i<k} N_i c_{k-1-i},
    with [X, p] = Dp Xx - Xp linear in X: _bracket_block writes its matrix
    over the entries of X from p's terms directly, with no lie_bracket call.
    Order 1 reads [M, p_j] = r_j and M c(0) = -c'(0).
    """
    n, K = jet.dim, jet.order
    nn = n * n
    # N[i] stacks n^2 + 1 matrices: the coefficient of each entry of M, then
    # the constant part
    N = [np.eye(nn + 1, nn).reshape(nn + 1, n, n)]
    for i in range(K - 1):
        step = sum(C_l @ N[i - l] - N[i - l] @ C_l for l, C_l in enumerate(jet.C[:i + 1]))
        step[-1] -= (i + 1) * jet.C[i + 1]
        N.append(step / (i + 1))
    rows = []
    for j, fields in sorted(jet.q.items()):
        keys = _degree_keys(n, j)
        # brackets[m] maps the entries of X to [X, q_{j,m}] over keys
        brackets = [_bracket_block(f, keys) for f in fields[:K]]
        for k in range(1, K + 1):
            lhs = sum(brackets[k - 1 - i] @ N[i].reshape(nn + 1, nn).T for i in range(k))
            lhs[:, nn] -= k * np.array([fields[k].terms.get(key, 0.0) for key in keys])
            rows.append(lhs)
    for k in range(1, K + 1):
        lhs = sum(N[i] @ jet.c[k - 1 - i] for i in range(k)).T
        lhs[:, nn] += k * jet.c[k]
        rows.append(lhs)
    stacked = np.vstack([np.zeros((0, nn + 1))] + rows)
    stacked = stacked[stacked.any(axis=1)]  # a row 0 = 0 says nothing
    return stacked[:, :nn], -stacked[:, nn]


def solve_candidate_B(jet: JetData) -> CandidateFamily | None:
    """Solve the stacked conditions of every order of the jet for B.

    Returns the affine solution set (minimum-norm representative plus a
    kernel basis, with the rank, from one SVD), or None when the best
    least-squares fit leaves a residual above _SOLVE_RESIDUAL_TOL * (1 + ||rhs||).
    """
    n = jet.dim
    G, rhs = _stack_constraints(jet)
    m, *_ = np.linalg.lstsq(G, rhs, rcond=None)
    residual = float(np.linalg.norm(G @ m - rhs))
    if residual > _SOLVE_RESIDUAL_TOL * (1.0 + np.linalg.norm(rhs)):
        return None
    # with no rows at all, Vt is the identity and the kernel every E_ab
    _, sv, Vt = np.linalg.svd(G, full_matrices=True)
    rank = int(np.sum(sv > _SV_CUTOFF * sv[0])) if sv.size and sv[0] > 0 else 0
    M = m.reshape(n, n)
    return CandidateFamily(B=jet.C[0] + M, M=M,
                           kernel=[Vt[k].reshape(n, n) for k in range(rank, n * n)],
                           residual=residual, unconstrained=not len(G))


# ---------------------------------------------------------------------------
# Grid verification
# ---------------------------------------------------------------------------

@dataclass
class VerificationReport:
    passed: bool
    status: str                  # "ok" or "undetermined"
    residuals: dict
    scales: dict
    grid: np.ndarray
    diagnostics: list = field(default_factory=list)


class _GridTables:
    """All coefficient data of q evaluated on the grid, computed once; q[j]
    has one row per grid time over keys[j], every degree-j key, sorted."""

    def __init__(self, q: NonAutoSystem, ts: np.ndarray):
        self.ts = np.asarray(ts, dtype=float)
        self._C_columns, self._T = (q._table, q.dim), None
        self.c, self.C, terms = q._split([q._table(t) for t in self.ts])
        self.keys = {j: _degree_keys(q.dim, j) for j in terms}
        zero = np.zeros(len(self.ts))
        self.q = {}
        for j, (keys, vals) in terms.items():
            column = dict(zip(keys, vals.T))
            self.q[j] = np.column_stack([column.get(key, zero) for key in self.keys[j]])

    @property
    def linear_max(self) -> float:
        return float(np.max(np.abs(self.C))) if self.C.size else 0.0

    def degree_max(self, j: int) -> float:
        return float(np.max(np.abs(self.q[j])))

    def constant_max(self) -> float:
        return float(np.max(np.abs(self.c))) if self.c.size else 0.0

    def fundamental(self) -> np.ndarray | None:
        """T(t_k) for T' = C(t) T, T(0) = I, as a (K, n, n) stack; None when C
        vanishes on the grid.  One flow over the grid's span, integrated on
        the first call, whose generated right-hand side reads C(t) from q's
        own compiled table.  Its determinant keeps its sign there, and so
        does that of every A = T exp(-tB), as det A = det T exp(-t tr B)."""
        if self._T is None and self.linear_max > 0.0:
            n = self.C.shape[-1]
            curve = solve_gauge_ode(self._C_columns, np.zeros((n, n)), np.eye(n),
                                    t_span=(float(self.ts.min()), float(self.ts.max())))
            curve.assert_invertible_on_span()
            self._T = curve.sample(self.ts)
        return self._T


def _grid_residuals(B: np.ndarray, jet: JetData,
                    tables: _GridTables) -> tuple[np.ndarray, dict]:
    """Rows c(t_k) - A(t_k) c(0), and per degree j rows of q_j(t_k, .) minus
    A(t_k)_* p_j over tables.keys[j], where A(t) = T(t) exp(-tB) solves
    A' = CA - AB, A(0) = I, for T = tables.fundamental() (the identity when
    C == 0).  A(t) is one (K, n, n) stack for the K grid times from one
    stacked mat_exp, pushed forward once per degree; the first
    singular-value check that fails raises, also for non-finite entries."""
    T = tables.fundamental()
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite A fails its check
        A = mat_exp(-tables.ts[:, None, None] * B)
        if T is not None:
            A = T @ A
    if not jet.q:
        check_invertible(A)
    zero = np.zeros(len(tables.ts))
    per_degree = {}
    for j, fields in sorted(jet.q.items()):
        pushed = linear_pushforward(A, fields[0])
        per_degree[j] = tables.q[j] - np.column_stack(
            [pushed.get(key, zero) for key in tables.keys[j]])
    return tables.c - A @ jet.c[0], per_degree


def verify_candidate(q: NonAutoSystem, B: np.ndarray, grid=None, tol: float = 1e-6,
                     jet: JetData | None = None,
                     tables: _GridTables | None = None) -> VerificationReport:
    """Certify B against the full coefficient identities on the grid.

    Checks ||c(t) - A(t) c(0)|| and, per degree j, the coefficient distance
    between q_j(t, .) and the pushforward of q_j(0, .) by A(t), the solution
    of A' = CA - AB, A(0) = I (exp(-tB) when the linear part vanishes).
    """
    ts = default_grid() if grid is None else np.asarray(grid, dtype=float)
    jet = jet if jet is not None else extract_jet(q)
    tables = tables if tables is not None else _GridTables(q, ts)
    diagnostics: list[str] = []

    try:
        const, per_degree = _grid_residuals(B, jet, tables)
    except (IntegrationError, NearSingularMatrixError, tx.EvalError) as exc:
        diagnostics.append(f"verification aborted: {exc}")
        return VerificationReport(False, "undetermined", {}, {}, ts, diagnostics)

    # np.linalg.norm of a row is sqrt(row @ row), without its per-call dispatch
    const_res = max((math.sqrt(float(row @ row)) for row in const), default=0.0)
    residuals = {"constant": const_res, "per_degree": {}}
    scales = {"constant": tables.constant_max(), "per_degree": {}}
    ok = const_res <= tol * (1.0 + scales["constant"])
    for j, res in per_degree.items():
        res_j = float(np.max(np.abs(res)))
        residuals["per_degree"][j] = res_j
        scales["per_degree"][j] = tables.degree_max(j)
        ok = ok and res_j <= tol * (1.0 + scales["per_degree"][j])
    return VerificationReport(ok, "ok", residuals, scales, ts, diagnostics)


# ---------------------------------------------------------------------------
# Certificates and the full pipeline
# ---------------------------------------------------------------------------

@dataclass
class GaugeCertificate:
    status: str                       # gauge | not_gauge | linear_family | undetermined
    B: np.ndarray | None
    kernel_basis: list
    b: np.ndarray
    f: PolyField | None
    residuals: dict | None
    grid: np.ndarray
    diagnostics: list

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel_basis)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "B": None if self.B is None else [[float(v) for v in row] for row in self.B],
            "kernel_dim": self.kernel_dim,
            "kernel_basis": [[[float(v) for v in row] for row in K]
                             for K in self.kernel_basis],
            "b": [float(v) for v in self.b],
            "f": None if self.f is None else field_to_dict(self.f),
            "residuals": self.residuals,
            "grid": {"t0": float(self.grid[0]), "t1": float(self.grid[-1]),
                     "points": int(len(self.grid))},
            "diagnostics": list(self.diagnostics),
        }


def _reconstructed_field(jet: JetData, B: np.ndarray) -> PolyField:
    f = PolyField.from_constant(jet.c[0]) + PolyField.from_linear(B)
    for _, fields in sorted(jet.q.items()):
        f = f + fields[0]
    return f


def identify(q: NonAutoSystem, grid=None, tol: float = 1e-6) -> GaugeCertificate:
    """Full identification pipeline; returns a GaugeCertificate.

    Statuses: gauge (certified, residuals within tol), linear_family (purely
    linear system; every B works), not_gauge, undetermined (numerical
    failure, or a candidate family the jet conditions leave open: not a
    verdict).
    """
    ts = default_grid() if grid is None else np.asarray(grid, dtype=float)
    tables = _GridTables(q, ts)  # also validates evaluability on the grid
    jet = extract_jet(q)
    c0 = jet.c[0]
    diagnostics: list[str] = []

    def certificate(status, B=None, kernel=(), f=None, report=None):
        return GaugeCertificate(status, B, list(kernel), c0, f,
                                report.residuals if report else None, ts,
                                diagnostics + (report.diagnostics if report else []))

    # degrees with vanishing t=0 part must vanish identically
    for j, fields in sorted(jet.q.items()):
        scale_j = tables.degree_max(j)
        if fields[0].is_zero() and scale_j > 0.0:
            diagnostics.append(
                f"degree {j} vanishes at t=0 but not on the grid "
                f"(max coefficient {scale_j:.3e}); rejected without integration")
            return certificate("not_gauge")

    nonlinear_active = any(tables.degree_max(j) > 0.0 for j in jet.q)
    constant_active = tables.constant_max() > 0.0 or jet.c[1].any()

    if not nonlinear_active and not constant_active:
        # purely linear in x: a gauge transform of any linear autonomous system
        B = jet.C[0].copy()
        report = verify_candidate(q, B, ts, tol=tol, jet=jet, tables=tables)
        if report.status == "undetermined":
            return certificate("undetermined", B, report=report)
        diagnostics.append("purely linear system: every constant matrix B is admissible")
        return certificate("linear_family", B,
                           list(np.eye(q.dim * q.dim).reshape(-1, q.dim, q.dim)),
                           PolyField.from_linear(B), report)

    # Raise the order while the minimum-norm member fails the grid and the
    # family keeps a kernel: an order that cuts the family removes one of its
    # <= n^2 dimensions at least, so n^2 + 1 orders bound the search; an order
    # that adds no rank changes neither, and a later order may still cut.
    cand = report = None
    for order in range(1, q.dim ** 2 + 2):
        if order > 1:
            jet = extract_jet(q, order)
        family = solve_candidate_B(jet)
        if family is None:
            diagnostics.append("first-order conditions at t=0 are inconsistent" if order == 1
                               else f"order-{order} conditions at t=0 are inconsistent")
            return certificate("not_gauge")
        if cand is not None:
            if family.kernel_dim >= cand.kernel_dim:
                continue
            diagnostics.append(
                f"minimum-norm candidate failed; order-{order} conditions at t=0 cut "
                f"the solution family from {cand.kernel_dim} to {family.kernel_dim} "
                "dimensions")
        cand = family
        report = verify_candidate(q, cand.B, ts, tol=tol, jet=jet, tables=tables)
        if report.status == "undetermined":
            return certificate("undetermined", cand.B, cand.kernel, report=report)
        if report.passed or not cand.kernel:
            break
    else:
        diagnostics.append(
            f"minimum-norm candidate failed and a {cand.kernel_dim}-dimensional "
            f"solution family remains after the conditions of order {order}")
        return certificate("undetermined", cand.B, cand.kernel, report=report)

    if report.passed:
        return certificate("gauge", cand.B, cand.kernel,
                           _reconstructed_field(jet, cand.B), report)
    diagnostics.append("grid verification failed at the stated tolerance")
    return certificate("not_gauge", cand.B, cand.kernel, report=report)


# ---------------------------------------------------------------------------
# Idempotents
# ---------------------------------------------------------------------------

@dataclass
class IdempotentSet:
    points: list
    spanning: bool
    conclusive: bool
    message: str

    @property
    def count(self) -> int:
        return len(self.points)


def find_idempotents(p: PolyField, starts: int = DEFAULT_NEWTON_STARTS,
                     seed: int = DEFAULT_SEED) -> IdempotentSet:
    """Complex solutions of p(c) = c, c != 0, by multistart Newton.

    A spanning set of idempotents certifies that B -> [B, p] is injective,
    so the candidate matrix in the identification step is unique.  An empty
    result is inconclusive, never a proof of nonexistence; so is a haul
    exceeding the Bezout bound (positive-dimensional solution set).
    """
    if p.dim > 3:
        raise ValueError("idempotent search is built for dim <= 3")
    if p.is_zero():
        return IdempotentSet([], False, False, "none found (inconclusive)")
    degs = p.degrees()
    if degs != [degs[0]] or degs[0] < 2:
        raise ValueError("field must be homogeneous of a single degree >= 2")
    m, n = degs[0], p.dim
    rng = np.random.default_rng(seed)
    eye = np.eye(n)
    found: list[np.ndarray] = []
    for _ in range(starts):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        ok = False
        for _ in range(_NEWTON_ITERS):
            F = p.eval(c) - c
            if np.linalg.norm(F) <= 1e-12:
                ok = True
                break
            J = p.jacobian(c) - eye
            try:
                step = np.linalg.solve(J, -F)
            except np.linalg.LinAlgError:
                break
            c = c + step
            if not np.all(np.isfinite(c)) or np.linalg.norm(c) > 1e8:
                break
        if not ok and np.linalg.norm(p.eval(c) - c) > 1e-8:
            continue
        if np.linalg.norm(c) < 1e-8:
            continue
        for other in found:
            if np.linalg.norm(c - other) <= 1e-6:
                break
        else:
            found.append(c)
    # quantize the sort key above the dedup radius so rounding noise
    # cannot flip the reported order
    found.sort(key=lambda v: tuple(round(x, 5) for c in v for x in (c.real, c.imag)))

    if not found:
        return IdempotentSet([], False, False, "none found (inconclusive)")
    bezout = m ** n
    if len(found) > bezout:
        return IdempotentSet(found, False, False,
                             f"{len(found)} distinct solutions exceed the Bezout "
                             f"bound {bezout}; solution set looks positive-dimensional")
    sv = np.linalg.svd(np.array(found), compute_uv=False)
    rank = int(np.sum(sv > 1e-8 * sv[0])) if sv[0] > 0 else 0
    spanning = rank == n
    return IdempotentSet(found, spanning, True,
                         f"{len(found)} idempotents, rank {rank} of {n}")
