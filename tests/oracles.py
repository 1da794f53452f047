"""Reference computations used as independent test oracles.

The exact-rational ones work over fractions.Fraction with hand-rolled loops:
no package code is reused, so these results adjudicate the floating
pipeline.  The `ref_*` smart constructors at the end are the recursive
definitions that timexpr's looping ones must reproduce node for node, and
`ref_adjugate_inverse` is the symbolic inverse written case by case for
n = 1, 2 and 3, which matcurve's one cofactor rule must reproduce.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from gaugekit.timexpr import T, Add, Fun, Lit, Mul, Neg, Sub, TVar, ediv, efun, lit


def frac_bracket(M, p_terms: dict, n: int) -> dict:
    """[M, p](x) = Dp(x) M x - M p(x) over Fractions.

    M: n x n nested list of Fraction; p_terms: {(comp, exps): Fraction}.
    """
    out: dict = {}

    def add(comp, exps, val):
        key = (comp, tuple(exps))
        out[key] = out.get(key, Fraction(0)) + val
        if out[key] == 0:
            del out[key]

    for (i, exps), c in p_terms.items():
        # Dp_i . (Mx): differentiate the monomial in x_k, multiply by (Mx)_k
        for k in range(n):
            if exps[k] == 0:
                continue
            for l in range(n):
                if M[k][l] == 0:
                    continue
                e = list(exps)
                e[k] -= 1
                e[l] += 1
                add(i, e, c * exps[k] * M[k][l])
        # minus M p: component i of p feeds every row of M
        for row in range(n):
            if M[row][i] != 0:
                add(row, exps, -M[row][i] * c)
    return out


def frac_solve(rows: list, rhs: list):
    """Exact solution set of a linear system over Fractions.

    Returns None when inconsistent, else (particular, kernel_basis) with the
    particular solution having zeros on the free variables.
    """
    m = len(rows)
    if m == 0:
        raise ValueError("no rows")
    ncols = len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((k for k in range(r, m) if aug[k][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for k in range(m):
            if k != r and aug[k][c] != 0:
                factor = aug[k][c]
                aug[k] = [vk - factor * vr for vk, vr in zip(aug[k], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for k in range(r, m):
        if aug[k][ncols] != 0:
            return None
    particular = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        particular[c] = aug[row_idx][ncols]
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row_idx, c in enumerate(pivots):
            v[c] = -aug[row_idx][fc]
        kernel.append(v)
    return particular, kernel


def frac_candidate_system(p_terms: dict, r_terms: dict, n: int,
                          c0=None, cdot0=None):
    """Stack [M, p] = r (and M c0 = -cdot0) as exact rows over the n^2
    unknown entries of M, returning (rows, rhs)."""
    rows, rhs = [], []
    cols = []
    for idx in range(n * n):
        E = [[Fraction(1) if (i, j) == divmod(idx, n) else Fraction(0)
              for j in range(n)] for i in range(n)]
        cols.append(frac_bracket(E, p_terms, n))
    keys = set(r_terms)
    for col in cols:
        keys |= set(col)
    for key in sorted(keys):
        rows.append([col.get(key, Fraction(0)) for col in cols])
        rhs.append(r_terms.get(key, Fraction(0)))
    if c0 is not None and (any(v != 0 for v in c0) or any(v != 0 for v in cdot0)):
        for i in range(n):
            row = [Fraction(0)] * (n * n)
            for b in range(n):
                row[i * n + b] = Fraction(c0[b])
            rows.append(row)
            rhs.append(-Fraction(cdot0[i]))
    return rows, rhs


def satisfies(rows: list, rhs: list, m_flat: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether the float vector satisfies the exact system within tol."""
    for row, b in zip(rows, rhs):
        val = sum(float(c) * m_flat[k] for k, c in enumerate(row))
        if abs(val - float(b)) > tol * (1.0 + abs(float(b))):
            return False
    return True


# ---------------------------------------------------------------------------
# Smart constructors, defined recursively: each recursive call is one link of
# a chain of negations or of literal factors
# ---------------------------------------------------------------------------

def ref_eneg(a):
    if isinstance(a, Lit):
        return Lit(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def ref_eadd(a, b):
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value + b.value)
    if isinstance(a, Lit) and a.value == 0.0:
        return b
    if isinstance(b, Lit) and b.value == 0.0:
        return a
    if isinstance(b, Neg):
        return ref_esub(a, b.arg)
    if isinstance(b, Lit) and b.value < 0:
        return Sub(a, Lit(-b.value))
    return Add(a, b)


def ref_esub(a, b):
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value - b.value)
    if isinstance(b, Lit) and b.value == 0.0:
        return a
    if isinstance(a, Lit) and a.value == 0.0:
        return ref_eneg(b)
    if isinstance(b, Neg):
        return ref_eadd(a, b.arg)
    return Sub(a, b)


def ref_linear_in_t(e):
    if isinstance(e, TVar):
        return 1.0
    if isinstance(e, Neg):
        c = ref_linear_in_t(e.arg)
        return None if c is None else -c
    if isinstance(e, Mul):
        if isinstance(e.left, Lit) and isinstance(e.right, TVar):
            return e.left.value
        if isinstance(e.right, Lit) and isinstance(e.left, TVar):
            return e.right.value
    if isinstance(e, Lit) and e.value == 0.0:
        return 0.0
    return None


def ref_merge_exp(a, b):
    ca, cb = ref_linear_in_t(a.arg), ref_linear_in_t(b.arg)
    if ca is not None and cb is not None:
        return efun("exp", ref_emul(Lit(ca + cb), T))
    return efun("exp", ref_eadd(a.arg, b.arg))


def ref_emul(a, b):
    if isinstance(a, Lit) and isinstance(b, Lit):
        return Lit(a.value * b.value)
    if isinstance(a, Lit):
        if a.value == 0.0:
            return Lit(0.0)
        if a.value == 1.0:
            return b
        if a.value == -1.0:
            return ref_eneg(b)
        if isinstance(b, Mul) and isinstance(b.left, Lit):
            return ref_emul(Lit(a.value * b.left.value), b.right)
        if isinstance(b, Neg):
            return ref_emul(Lit(-a.value), b.arg)
        return Mul(a, b)
    if isinstance(b, Lit):
        return ref_emul(b, a)
    if isinstance(a, Neg):
        return ref_eneg(ref_emul(a.arg, b))
    if isinstance(b, Neg):
        return ref_eneg(ref_emul(a, b.arg))
    if isinstance(a, Fun) and a.name == "exp" and isinstance(b, Fun) and b.name == "exp":
        return ref_merge_exp(a, b)
    if isinstance(a, Mul) and isinstance(a.left, Lit):
        return ref_emul(a.left, ref_emul(a.right, b))
    if isinstance(b, Mul) and isinstance(b.left, Lit):
        return ref_emul(b.left, ref_emul(a, b.right))
    if isinstance(a, Fun) and a.name == "exp" and isinstance(b, Mul) \
            and isinstance(b.left, Fun) and b.left.name == "exp":
        return ref_emul(ref_merge_exp(a, b.left), b.right)
    return Mul(a, b)


# ---------------------------------------------------------------------------
# Symbolic inverse, one branch per dimension
# ---------------------------------------------------------------------------

def ref_adjugate_inverse(entries):
    """Symbolic inverse via adjugate/determinant; only for n <= 3."""
    n = len(entries)
    if n == 1:
        return [[ediv(lit(1.0), entries[0][0])]]

    def det2(a, b, c, d):
        return a * d - b * c

    if n == 2:
        (a, b), (c, d) = entries
        det = det2(a, b, c, d)
        return [[ediv(d, det), ediv(-b, det)],
                [ediv(-c, det), ediv(a, det)]]
    if n == 3:
        def minor(i, j):
            rows = [r for r in range(3) if r != i]
            cols = [c for c in range(3) if c != j]
            return det2(entries[rows[0]][cols[0]], entries[rows[0]][cols[1]],
                        entries[rows[1]][cols[0]], entries[rows[1]][cols[1]])

        cof = [[minor(i, j) if (i + j) % 2 == 0 else -minor(i, j)
                for j in range(3)] for i in range(3)]
        det = sum(entries[0][k] * cof[0][k] for k in range(3))
        return [[ediv(cof[j][i], det) for j in range(3)] for i in range(3)]
    raise ValueError("symbolic inverse is only built for n <= 3")
