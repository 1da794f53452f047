"""Autonomous polynomial vector fields as graded coefficient tables.

A field on R^n is stored as a mapping (component, exponent multi-index) ->
coefficient.  Zero coefficients are never stored.  Fields are immutable by
convention; every operation returns a fresh object.
"""

from __future__ import annotations

import operator

import numpy as np

from . import timexpr as tx

__all__ = [
    "PolyField", "NearSingularMatrixError", "lie_bracket", "linear_pushforward",
    "pushforward_terms", "invert_checked", "check_invertible", "field_to_dict",
    "field_from_dict", "format_field", "MAX_DEGREE",
]

_SV_RATIO = 1e-12

# coefficients that the pushforward skips, in float and TimeExpr arithmetic
_ZEROS = (0.0, tx.Lit(0.0))

#: Degree cap for stored fields; coefficient tables grow combinatorially, so
#: desk-scale work stays small by default.  Raise it for bigger experiments.
MAX_DEGREE = 6


class NearSingularMatrixError(ValueError):
    """Matrix failed the invertibility threshold (smallest/largest singular value)."""


def check_invertible(A: np.ndarray) -> None:
    """Raise NearSingularMatrixError unless A is finite and its smallest singular
    value exceeds _SV_RATIO times the largest.  A (K, n, n) stack is checked by
    one SVD and raises for its first failing matrix, with that matrix's message."""
    A = np.asarray(A, dtype=float)
    finite = np.isfinite(A).all(axis=(-2, -1))
    # a non-finite matrix fails on its own; the SVD sees the identity there
    sv = np.linalg.svd(np.where(finite[..., None, None], A, np.eye(A.shape[-1])),
                       compute_uv=False)
    big, small = sv[..., 0].ravel(), sv[..., -1].ravel()
    bad = np.flatnonzero(~finite.ravel() | (big == 0.0) | (small <= _SV_RATIO * big))
    if bad.size:
        if not finite.ravel()[bad[0]]:
            raise NearSingularMatrixError("matrix has non-finite entries")
        s0, s1 = big[bad[0]], small[bad[0]]
        raise NearSingularMatrixError(
            f"matrix is numerically singular (sv ratio {s1 / s0 if s0 else 0.0:.3e})")


def invert_checked(A: np.ndarray) -> np.ndarray:
    """Inverse via a solve against the identity, after the singular-value
    check; a (K, n, n) stack gives the stack of inverses."""
    A = np.asarray(A, dtype=float)
    check_invertible(A)
    return np.linalg.solve(A, np.eye(A.shape[-1]))


class PolyField:
    """Polynomial vector field: sum of coeff * x^alpha unit-vector terms.

    terms maps (component, alpha) to a float coefficient, alpha a tuple of
    len dim; entries that are exactly zero are dropped on construction.
    """

    __slots__ = ("dim", "terms", "_rhs")

    def __init__(self, dim: int, terms: dict | None = None):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = dim
        clean = {}
        for (comp, exps), coeff in (terms or {}).items():
            exps = tuple(int(k) for k in exps)
            if not (0 <= comp < dim):
                raise ValueError(f"component {comp} out of range for dim {dim}")
            if len(exps) != dim:
                raise ValueError(f"multi-index {exps} has length {len(exps)}, expected {dim}")
            if any(k < 0 for k in exps):
                raise ValueError(f"negative exponent in {exps}")
            if sum(exps) > MAX_DEGREE:
                raise ValueError(
                    f"term {exps} exceeds the degree cap {MAX_DEGREE} "
                    "(raise polyfield.MAX_DEGREE)")
            c = float(coeff)
            if c != 0.0:
                clean[(int(comp), exps)] = c
        self.terms = clean
        self._rhs = None

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "PolyField":
        return cls(dim, {})

    @classmethod
    def from_constant(cls, b) -> "PolyField":
        b = np.asarray(b, dtype=float)
        dim = b.shape[0]
        zero = (0,) * dim
        return cls(dim, {(i, zero): b[i] for i in range(dim)})

    @classmethod
    def from_linear(cls, M) -> "PolyField":
        M = np.asarray(M, dtype=float)
        dim = M.shape[0]
        terms = {}
        for i in range(dim):
            for j in range(dim):
                e = [0] * dim
                e[j] = 1
                terms[(i, tuple(e))] = M[i, j]
        return cls(dim, terms)

    # -- basic algebra --------------------------------------------------

    def __add__(self, other: "PolyField") -> "PolyField":
        self._check_dim(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0.0) + c
        return PolyField(self.dim, out)

    def __sub__(self, other: "PolyField") -> "PolyField":
        return self + other.scale(-1.0)

    def __neg__(self) -> "PolyField":
        return self.scale(-1.0)

    def scale(self, c: float) -> "PolyField":
        return PolyField(self.dim, {key: c * v for key, v in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)

    def coeff_distance(self, other: "PolyField") -> float:
        """Max absolute coefficient difference."""
        self._check_dim(other)
        keys = set(self.terms) | set(other.terms)
        return max((abs(self.terms.get(k, 0.0) - other.terms.get(k, 0.0)) for k in keys),
                   default=0.0)

    def degrees(self) -> list[int]:
        return sorted({sum(exps) for (_, exps) in self.terms})

    def max_degree(self) -> int:
        return max((sum(exps) for (_, exps) in self.terms), default=0)

    def grade(self, j: int) -> "PolyField":
        """Homogeneous part of total degree j (zero field if absent)."""
        return PolyField(self.dim, {key: c for key, c in self.terms.items()
                                    if sum(key[1]) == j})

    def linear_matrix(self) -> np.ndarray:
        """The matrix of the degree-1 part."""
        M = np.zeros((self.dim, self.dim))
        for (i, exps), c in self.grade(1).terms.items():
            M[i, exps.index(1)] = c
        return M

    def constant_vector(self) -> np.ndarray:
        b = np.zeros(self.dim)
        for (i, _), c in self.grade(0).terms.items():
            b[i] = c
        return b

    # -- evaluation ------------------------------------------------------

    def eval(self, x) -> np.ndarray:
        """Value at x; supports real and complex points."""
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dim},)")
        out = np.zeros(self.dim, dtype=x.dtype if x.dtype.kind == "c" else float)
        for (i, exps), c in self.terms.items():
            m = c
            for k, p in enumerate(exps):
                if p:
                    m = m * x[k] ** p
            out[i] += m
        return out

    def rhs(self):
        """The field as a generated right-hand side (t, y) -> tuple of floats,
        for y a list of floats: equal to eval at real points bit for bit.
        Integrations go through it; eval stays for complex and one-off
        points.  It is generated on the first call and kept with the field."""
        if self._rhs is None:
            self._rhs = tx.compile_rhs(self.dim, [
                (i, c, tuple((k, p) for k, p in enumerate(exps) if p))
                for (i, exps), c in self.terms.items()])
        return self._rhs

    def jacobian(self, x) -> np.ndarray:
        """Matrix of partial derivatives at x, from exact coefficient differentiation."""
        x = np.asarray(x)
        if x.shape != (self.dim,):
            raise ValueError(f"point has shape {x.shape}, expected ({self.dim},)")
        J = np.zeros((self.dim, self.dim), dtype=x.dtype if x.dtype.kind == "c" else float)
        for (i, exps), c in self.terms.items():
            for k, p in enumerate(exps):
                if p == 0:
                    continue
                m = c * p
                for l, q in enumerate(exps):
                    q_eff = q - 1 if l == k else q
                    if q_eff:
                        m = m * x[l] ** q_eff
                J[i, k] += m
        return J

    # -- misc -------------------------------------------------------------

    def _check_dim(self, other: "PolyField") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, PolyField) and self.dim == other.dim
                and self.terms == other.terms)

    def __repr__(self) -> str:
        return f"PolyField(dim={self.dim}, {format_field(self)})"


# ---------------------------------------------------------------------------
# Scalar-polynomial helpers (dicts alpha -> coeff)
# ---------------------------------------------------------------------------

def _component_poly(f: PolyField, i: int) -> dict:
    return {exps: c for (comp, exps), c in f.terms.items() if comp == i}


def _poly_diff(p: dict, k: int) -> dict:
    out = {}
    for exps, c in p.items():
        if exps[k] == 0:
            continue
        e = list(exps)
        e[k] -= 1
        key = tuple(e)
        out[key] = out.get(key, 0.0) + c * exps[k]
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    """Product of two polynomials whose coefficients are floats or TimeExprs."""
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(map(operator.add, ea, eb))
            term = ca * cb
            out[key] = out[key] + term if key in out else term
    return out


def _poly_add_into(acc: dict, p: dict) -> None:
    for exps, c in p.items():
        acc[exps] = acc.get(exps, 0.0) + c


# ---------------------------------------------------------------------------
# Lie bracket
# ---------------------------------------------------------------------------

def lie_bracket(f: PolyField, g: PolyField) -> PolyField:
    """[f, g](x) = Dg(x) f(x) - Df(x) g(x), at exact coefficient level.

    For a matrix B read as the linear field Bx this gives
    [B, p](x) = Dp(x) Bx - B p(x).
    """
    f._check_dim(g)
    n = f.dim
    f_comps = [_component_poly(f, k) for k in range(n)]
    g_comps = [_component_poly(g, k) for k in range(n)]
    terms = {}
    for i in range(n):
        # accumulate Dg_i . f and Df_i . g separately, subtract once:
        # this keeps lie_bracket(f, g) == -lie_bracket(g, f) bitwise
        pos: dict = {}
        neg: dict = {}
        for k in range(n):
            _poly_add_into(pos, _poly_mul(_poly_diff(g_comps[i], k), f_comps[k]))
            _poly_add_into(neg, _poly_mul(_poly_diff(f_comps[i], k), g_comps[k]))
        for exps in pos.keys() | neg.keys():
            c = pos.get(exps, 0.0) - neg.get(exps, 0.0)
            if c != 0.0:
                terms[(i, exps)] = c
    return PolyField(n, terms)


# ---------------------------------------------------------------------------
# Pushforward by an invertible matrix
# ---------------------------------------------------------------------------

def _is_zero(c) -> bool:
    """The pushforward's skip test; a stack of coefficients is skipped when
    it is zero in every slice."""
    return not c.any() if isinstance(c, np.ndarray) else c in _ZEROS


def _linear_form(row: list, dim: int) -> dict:
    out = {}
    for l, c in enumerate(row):
        if not _is_zero(c):
            e = [0] * dim
            e[l] = 1
            out[tuple(e)] = c
    return out


def _poly_pow(p: dict, k: int, dim: int) -> dict:
    result = {(0,) * dim: 1.0}
    base = p
    while k:
        if k & 1:
            result = _poly_mul(result, base)
        k >>= 1
        if k:
            base = _poly_mul(base, base)
    return result


def pushforward_terms(A: list, Ainv: list, terms: dict) -> dict:
    """Coefficients of A f(A^{-1} x), keyed like PolyField terms, for f the
    field with the coefficient table `terms` ((component, exponents) ->
    coefficient).  A key may carry a tag after its exponents: (j, exponents,
    *tag) comes back as (i, exponents', *tag), so each tag's terms are pushed
    forward on their own, bit for bit as if alone, in one expansion.

    A and Ainv are n x n tables (rows) of floats, complex numbers, TimeExprs
    or (K,) arrays, one slice per matrix of a stack; the coefficients come
    out in the same arithmetic.  The coefficients of `terms` need only
    `+` and multiplication by an entry of the tables, so they may be of
    another type than the tables.  Exact multinomial expansion,
    degree-preserving on each graded part.  An entry that is zero (in every
    slice) is skipped, so a key can be missing or hold zeros where another
    arithmetic has none.
    """
    n = len(A)
    lin_forms = [_linear_form(Ainv[k], n) for k in range(n)]
    cache: dict = {}

    def expand(exps: tuple) -> dict:
        if exps not in cache:
            prod = {(0,) * n: 1.0}
            for k, p in enumerate(exps):
                if p:
                    prod = _poly_mul(prod, _poly_pow(lin_forms[k], p, n))
            cache[exps] = prod
        return cache[exps]

    out: dict = {}
    for src, c in terms.items():
        j, exps, tag = src[0], src[1], src[2:]
        expanded = expand(exps)
        for i in range(n):
            aij = A[i][j]
            if _is_zero(aij):
                continue
            ca = c * aij
            for e, v in expanded.items():
                key = (i, e) + tag
                term = ca * v
                out[key] = out[key] + term if key in out else term
    return out


def linear_pushforward(A, f: PolyField):
    """The field x -> A f(A^{-1} x), with exact multinomial expansion.

    Degree-preserving on each graded part.  A must pass the invertibility
    threshold; its inverse is obtained by a solve, not an inverse formula.
    An (n, n) matrix gives a PolyField.  A (K, n, n) stack is pushed forward
    in one expansion and gives the pushforward_terms mapping, whose
    coefficients are (K,) arrays, slice k belonging to A[k]; every matrix
    must pass the threshold, and a key absent from the mapping is zero in
    every slice.
    """
    A = np.asarray(A, dtype=float)
    n = f.dim
    if A.ndim not in (2, 3) or A.shape[-2:] != (n, n):
        raise ValueError(f"matrix shape {A.shape} does not match field dim {n}")
    Ainv = invert_checked(A)
    if A.ndim == 3:
        # entry (i, j) of the tables is the (K,) array of the stack's (i, j) entries
        return pushforward_terms(A.transpose(1, 2, 0), Ainv.transpose(1, 2, 0), f.terms)
    # Python floats, not numpy scalars: the shared expansion is faster on them
    return PolyField(n, pushforward_terms(A.tolist(), Ainv.tolist(), f.terms))


# ---------------------------------------------------------------------------
# JSON schema and display
# ---------------------------------------------------------------------------

def field_to_dict(f: PolyField) -> dict:
    entries = [{"component": comp, "exponents": list(exps), "coeff": c}
               for (comp, exps), c in sorted(f.terms.items())]
    return {"dim": f.dim, "terms": entries}


def as_index(value, what: str) -> int:
    """Strict integer for JSON schema fields; rejects bools, floats, junk."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def check_keys(d: dict, known: tuple, what: str) -> None:
    """Refuse a key of a JSON object that its loader would not read."""
    for key in d:
        if key not in known:
            raise ValueError(f"unknown key {key!r} in {what} "
                             f"(expected {', '.join(map(repr, known))})")


def parse_at(src, where: str, defs=None) -> tx.TimeExpr:
    """The expression of a JSON expression string or number, an error
    naming `where` (as "linear[0][1]") otherwise.  A string may name the
    expressions of `defs` as e0, e1, ... (see timexpr.parse_expr)."""
    if isinstance(src, bool) or not isinstance(src, (str, int, float)):
        raise ValueError(f"{where}: expected an expression string or number")
    try:
        return tx.parse_expr(src, defs) if isinstance(src, str) else tx.as_expr(src)
    except ValueError as exc:  # tx.ParseError among them
        raise ValueError(f"{where}: {exc}") from exc


def read_number(src, where: str) -> float:
    """The finite float of a JSON number or numeric string, an error naming
    `where` (as "generator[0][1]") otherwise; booleans are refused."""
    if isinstance(src, bool) or not isinstance(src, (str, int, float)):
        raise ValueError(f"{where}: expected a number")
    try:
        value = float(src)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{where}: numeric constant out of range") from None
    except ValueError as exc:  # a string that is not a number
        raise ValueError(f"{where}: {exc}") from None
    if not np.isfinite(value):
        raise ValueError(f"{where}: non-finite coefficient")
    return value


def read_table(obj, what: str, read_entry) -> list:
    """The entries of a JSON table (a list of lists), entry [i][j] read by
    read_entry(value, "what[i][j]"): parse_at or read_number."""
    if not isinstance(obj, list) or not all(isinstance(row, list) for row in obj):
        raise ValueError(f"'{what}' must be a table (list of lists)")
    return [[read_entry(e, f"{what}[{i}][{j}]") for j, e in enumerate(row)]
            for i, row in enumerate(obj)]


def terms_from_list(entries, what: str, parse_coeff) -> dict:
    """The {(component, exponents): coefficient} table of a JSON term list,
    each coefficient read by parse_coeff(value, "terms[k].coeff").  A term
    without "coeff", or with the key of an earlier term, is refused."""
    if not isinstance(entries, list):
        raise ValueError("'terms' must be a list")
    terms = {}
    for k, entry in enumerate(entries):
        where = f"{what} term #{k}"
        if not isinstance(entry, dict):
            raise ValueError(f"bad {where}: expected an object")
        check_keys(entry, ("component", "exponents", "coeff"), where)
        try:
            key = (as_index(entry["component"], "component"),
                   tuple(as_index(v, "exponent") for v in entry["exponents"]))
            coeff = parse_coeff(entry["coeff"], f"terms[{k}].coeff")
        except KeyError as exc:
            raise ValueError(f"bad {where}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad {where}: {exc}") from exc
        if key in terms:
            raise ValueError(f"bad {where}: repeats component {key[0]}, "
                             f"exponents {list(key[1])} of an earlier term")
        terms[key] = coeff
    return terms


def field_from_dict(d: dict) -> PolyField:
    if not isinstance(d, dict) or "dim" not in d:
        raise ValueError("field object must have a 'dim' entry")
    check_keys(d, ("dim", "terms"), "field object")
    dim = as_index(d["dim"], "dim")
    return PolyField(dim, terms_from_list(d.get("terms", []), "field", read_number))


def format_monomial(exps: tuple) -> str:
    """x1^2*x3 for the exponents (2, 0, 1)."""
    return "*".join(f"x{k + 1}^{p}" if p > 1 else f"x{k + 1}"
                    for k, p in enumerate(exps) if p > 0)


def format_field(f: PolyField, digits: int = 12) -> str:
    """Human-readable rendering, one polynomial per component."""
    comps = []
    for i in range(f.dim):
        entries = sorted(((exps, c) for (comp, exps), c in f.terms.items() if comp == i),
                         key=lambda it: (sum(it[0]), tuple(-e for e in it[0])))
        if not entries:
            comps.append("0")
            continue
        out = ""
        for exps, c in entries:
            mono = format_monomial(exps)
            mag = abs(c)
            coeff = f"{mag:.{digits}g}"
            if mono and coeff == "1":
                body = mono
            else:
                body = f"{coeff}*{mono}" if mono else coeff
            if not out:
                out = ("-" if c < 0 else "") + body
            else:
                out += (" - " if c < 0 else " + ") + body
        comps.append(out)
    return "(" + ", ".join(comps) + ")"
