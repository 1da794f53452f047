import math

import numpy as np
import pytest

from gaugekit import timexpr as tx
from gaugekit.polyfield import (
    NearSingularMatrixError, PolyField, check_invertible, field_from_dict,
    field_to_dict, format_field, invert_checked, lie_bracket, linear_pushforward,
    pushforward_terms,
)

from conftest import random_field


def p2_field() -> PolyField:
    # (x1^2 - x2^2, 2 x1 x2): the complex squaring map in real coordinates
    return PolyField(2, {(0, (2, 0)): 1.0, (0, (0, 2)): -1.0, (1, (1, 1)): 2.0})


def bracket_linear_p2(b1, b2, b3, b4) -> PolyField:
    # [B, p2] for B = [[b1, b2], [b3, b4]], expanded by hand:
    #   ( b1 x1^2 - 2 b3 x1 x2 + (b1 - 2 b4) x2^2,
    #     b3 x1^2 + 2 b1 x1 x2 + (2 b2 + b3) x2^2 )
    return PolyField(2, {
        (0, (2, 0)): b1, (0, (1, 1)): -2 * b3, (0, (0, 2)): b1 - 2 * b4,
        (1, (2, 0)): b3, (1, (1, 1)): 2 * b1, (1, (0, 2)): 2 * b2 + b3,
    })


# ---------------------------------------------------------------------------
# Evaluation and Jacobian
# ---------------------------------------------------------------------------

def test_eval_idempotent_point():
    # (1, 0) is a fixed point of p2: p2(c) = c
    assert np.allclose(p2_field().eval([1.0, 0.0]), [1.0, 0.0])


def test_eval_zero_without_constant_part():
    f = random_field(np.random.default_rng(0), 3, [1, 2, 3])
    assert np.allclose(f.eval(np.zeros(3)), 0.0)


def test_eval_hand_substitution():
    assert np.allclose(p2_field().eval([0.5, 0.5]), [0.0, 0.5])


def test_eval_complex_point():
    v = p2_field().eval(np.array([0.5, 0.5j]))
    assert v[0] == pytest.approx(0.25 - (0.5j) ** 2)
    assert v[1] == pytest.approx(2 * 0.5 * 0.5j)


def test_jacobian_p2():
    # Dp2 = [[2 x1, -2 x2], [2 x2, 2 x1]]
    J = p2_field().jacobian([1.0, 2.0])
    assert np.allclose(J, [[2.0, -4.0], [4.0, 2.0]])


def test_jacobian_linear_field():
    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    f = PolyField.from_linear(M)
    for x in ([0.0, 0.0], [1.5, -2.0]):
        assert np.allclose(f.jacobian(x), M)


def test_jacobian_constant_field():
    f = PolyField.from_constant([3.0, -1.0])
    assert np.allclose(f.jacobian([0.7, 0.7]), 0.0)


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="shape"):
        p2_field().eval([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="mismatch"):
        lie_bracket(p2_field(), PolyField.zero(3))


# ---------------------------------------------------------------------------
# Lie bracket
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("b", [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
def test_bracket_elementary_matrices_exact(b):
    B = np.array(b, dtype=float).reshape(2, 2)
    got = lie_bracket(PolyField.from_linear(B), p2_field())
    assert got.terms == bracket_linear_p2(*b).terms


def test_bracket_general_symbolic_entries():
    rng = np.random.default_rng(5)
    for _ in range(20):
        b1, b2, b3, b4 = rng.uniform(-2, 2, size=4)
        B = np.array([[b1, b2], [b3, b4]])
        got = lie_bracket(PolyField.from_linear(B), p2_field())
        assert got.coeff_distance(bracket_linear_p2(b1, b2, b3, b4)) <= 1e-14


def test_bracket_self_is_zero():
    f = random_field(np.random.default_rng(1), 2, [0, 1, 2, 3])
    assert lie_bracket(f, f).is_zero()


def test_bracket_diag_case():
    B = np.diag([1.0, 2.0])
    got = lie_bracket(PolyField.from_linear(B), p2_field())
    expected = PolyField(2, {(0, (2, 0)): 1.0, (0, (0, 2)): -3.0, (1, (1, 1)): 2.0})
    assert got.terms == expected.terms


def test_bracket_antisymmetry_exact():
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = random_field(rng, 2, [0, 1, 2])
        g = random_field(rng, 2, [1, 2, 3])
        fg = lie_bracket(f, g)
        gf = lie_bracket(g, f)
        assert fg.coeff_distance(gf.scale(-1.0)) == 0.0


def test_bracket_bilinearity_property():
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1),
           st.floats(min_value=-3, max_value=3),
           st.floats(min_value=-3, max_value=3))
    def run(seed, a, b):
        rng = np.random.default_rng(seed)
        f = random_field(rng, 2, [1, 2])
        g = random_field(rng, 2, [1, 2])
        h = random_field(rng, 2, [1, 2])
        lhs = lie_bracket(f.scale(a) + g.scale(b), h)
        rhs = lie_bracket(f, h).scale(a) + lie_bracket(g, h).scale(b)
        assert lhs.coeff_distance(rhs) <= 1e-12 * (1 + rhs.max_abs_coeff())

    run()


def test_bracket_jacobi_identity():
    for n in (2, 3):
        rng = np.random.default_rng(100 + n)
        for _ in range(5):
            f = random_field(rng, n, [1, 2])
            g = random_field(rng, n, [1, 2])
            h = random_field(rng, n, [1, 2])
            total = (lie_bracket(lie_bracket(f, g), h)
                     + lie_bracket(lie_bracket(g, h), f)
                     + lie_bracket(lie_bracket(h, f), g))
            assert total.max_abs_coeff() <= 1e-10


def test_bracket_flow_consistency():
    # eval([B, p], x) matches d/ds|_0 exp(-sB) p(exp(sB) x) by central differences
    from gaugekit.matcurve import mat_exp
    rng = np.random.default_rng(3)
    s = 1e-5
    for _ in range(10):
        B = rng.uniform(-1, 1, size=(2, 2))
        p = random_field(rng, 2, [2])
        x = rng.uniform(-1, 1, size=2)
        lhs = lie_bracket(PolyField.from_linear(B), p).eval(x)
        plus = mat_exp(-s * B) @ p.eval(mat_exp(s * B) @ x)
        minus = mat_exp(s * B) @ p.eval(mat_exp(-s * B) @ x)
        assert np.max(np.abs(lhs - (plus - minus) / (2 * s))) <= 1e-6


# ---------------------------------------------------------------------------
# Pushforward
# ---------------------------------------------------------------------------

def test_pushforward_identity():
    f = random_field(np.random.default_rng(4), 2, [0, 1, 2, 3])
    assert linear_pushforward(np.eye(2), f).coeff_distance(f) <= 1e-14


def test_pushforward_quarter_rotation():
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    got = linear_pushforward(A, p2_field())
    expected = PolyField(2, {(0, (1, 1)): 2.0, (1, (0, 2)): 1.0, (1, (2, 0)): -1.0})
    assert got.coeff_distance(expected) <= 1e-14


def test_pushforward_diagonal_exponential():
    lam, mu, t = 1.0, 2.0, 0.3
    A = np.diag([math.exp(-lam * t), math.exp(-mu * t)])
    got = linear_pushforward(A, p2_field())
    expected = PolyField(2, {
        (0, (2, 0)): math.exp(lam * t),
        (0, (0, 2)): -math.exp((2 * mu - lam) * t),
        (1, (1, 1)): 2 * math.exp(lam * t),
    })
    assert got.coeff_distance(expected) <= 1e-12


def test_pushforward_functoriality_and_inverse():
    rng = np.random.default_rng(6)
    for n in (2, 3):
        for _ in range(5):
            f = random_field(rng, n, [0, 1, 2])
            A = rng.uniform(-1, 1, size=(n, n)) + 2 * np.eye(n)
            A2 = rng.uniform(-1, 1, size=(n, n)) + 2 * np.eye(n)
            once = linear_pushforward(A, linear_pushforward(A2, f))
            both = linear_pushforward(A @ A2, f)
            assert once.coeff_distance(both) <= 1e-10
            back = linear_pushforward(invert_checked(A), linear_pushforward(A, f))
            assert back.coeff_distance(f) <= 1e-10


def test_pushforward_eval_consistency():
    rng = np.random.default_rng(7)
    f = random_field(rng, 3, [0, 1, 2, 3])
    A = rng.uniform(-1, 1, size=(3, 3)) + 2 * np.eye(3)
    Ainv = invert_checked(A)
    pf = linear_pushforward(A, f)
    for _ in range(20):
        x = rng.uniform(-1, 1, size=3)
        lhs = pf.eval(x)
        rhs = A @ f.eval(Ainv @ x)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * (1 + np.max(np.abs(rhs)))


def test_pushforward_terms_literal_tables_match_floats_exactly():
    # the expansion shared with closed-form emission, run on tables of
    # constant expressions, does the same float arithmetic as the numeric path
    rng = np.random.default_rng(8)
    for n in (2, 3):
        f = random_field(rng, n, [0, 1, 2, 3])
        A = rng.uniform(-1, 1, size=(n, n)) + 2 * np.eye(n)
        A[0, 1] = 0.0
        want = linear_pushforward(A, f).terms
        lits = [[[tx.Lit(v) for v in row] for row in M.tolist()]
                for M in (A, invert_checked(A))]
        got = {key: tx.eval_expr(e, 0.0) for key, e in pushforward_terms(*lits, f.terms).items()}
        assert want.keys() <= got.keys()
        for key, v in got.items():
            assert v == want.get(key, 0.0)


def test_pushforward_near_singular_rejected():
    A = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(NearSingularMatrixError):
        linear_pushforward(A, p2_field())


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_nonfinite_matrix_rejected(bad):
    # an infinite entry once passed the singular-value test, and NaN made
    # the SVD raise a bare LinAlgError
    A = np.array([[bad, 0.0], [0.0, 1.0]])
    for call in (check_invertible, invert_checked,
                 lambda M: linear_pushforward(M, p2_field())):
        with pytest.raises(NearSingularMatrixError, match="non-finite"):
            call(A)


def partly_zero_stack(rng, n: int, K: int) -> np.ndarray:
    """K diagonally dominant n x n matrices whose off-diagonal entries are
    exactly 0 in some slices only; a triangular slice has exact zeros in its
    inverse too."""
    A = rng.uniform(-0.4, 0.4, size=(K, n, n))
    A[rng.random((K, n, n)) < 0.4] = 0.0
    idx = np.arange(n)
    A[:, idx, idx] = rng.uniform(1.0, 2.0, size=(K, n)) * rng.choice([-1.0, 1.0], size=(K, n))
    return A


def test_stacked_pushforward_equals_each_slice_exactly():
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=3),
           st.integers(min_value=2, max_value=4), st.sampled_from([1, 2, 5, 9]))
    def run(seed, n, degree, K):
        rng = np.random.default_rng(seed)
        f = random_field(rng, n, [degree])
        A = partly_zero_stack(rng, n, K)
        stacked = linear_pushforward(A, f)
        slices = [linear_pushforward(M, f).terms for M in A]
        assert set().union(*slices) <= stacked.keys()
        for key, coeffs in stacked.items():
            assert coeffs.shape == (K,)
            assert np.array_equal(coeffs, [terms.get(key, 0.0) for terms in slices])

    run()


def test_tagged_pushforward_equals_each_tags_own_pushforward_bit_for_bit():
    # a tag after the exponents rides through the one expansion: the terms
    # of each tag come back as if pushed forward alone, in float, complex
    # and stacked arithmetic
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=3),
           st.sampled_from(["float", "complex", "stack"]), st.integers(min_value=1, max_value=12))
    def run(seed, n, kind, count):
        rng = np.random.default_rng(seed)

        def table() -> list:
            shape = (n, n, 3) if kind == "stack" else (n, n)
            M = rng.uniform(-1.0, 1.0, size=shape)
            if kind == "complex":
                M = M + 1j * rng.uniform(-1.0, 1.0, size=shape)
            M[rng.random((n, n)) < 0.3] = 0.0
            return [list(row) for row in M] if kind == "stack" else M.tolist()

        A, Ainv = table(), table()
        tags = [tuple(rng.integers(-2, 3, size=n).tolist()) for _ in range(3)]
        terms = {}
        for _ in range(count):
            exps = tuple(rng.integers(0, 3, size=n).tolist())
            tag = tags[int(rng.integers(0, len(tags)))]
            terms[(int(rng.integers(0, n)), exps, tag)] = float(rng.uniform(-1.0, 1.0))
        tagged = pushforward_terms(A, Ainv, terms)
        for tag in tags:
            alone = pushforward_terms(A, Ainv, {(j, e): c for (j, e, k), c in terms.items()
                                                if k == tag})
            got = [((i, e), v) for (i, e, k), v in tagged.items() if k == tag]
            assert [key for key, _ in got] == list(alone)
            for key, v in got:
                assert np.asarray(v).tobytes() == np.asarray(alone[key]).tobytes()
        assert all(k in tags for _, _, k in tagged)

    run()


def test_stacked_check_raises_for_the_first_failing_matrix_alone():
    good = np.array([[2.0, 1.0], [0.5, 1.5]])
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    zero = np.zeros((2, 2))
    nan = np.array([[np.nan, 0.0], [0.0, 1.0]])

    def message(M) -> str:
        with pytest.raises(NearSingularMatrixError) as exc:
            invert_checked(M)
        return str(exc.value)

    assert message(near) != message(zero)
    for stack, first in (([good, near, good], near), ([good, near, zero], near),
                         ([zero, good, near], zero), ([good, near, nan], near)):
        for call in (check_invertible, invert_checked,
                     lambda S: linear_pushforward(S, p2_field())):
            with pytest.raises(NearSingularMatrixError) as exc:
                call(np.array(stack))
            assert str(exc.value) == message(first)
    # a non-finite matrix fails alone, with its own message
    with pytest.raises(NearSingularMatrixError, match="non-finite"):
        check_invertible(np.array([good, nan, near]))
    check_invertible(np.array([good, good]))
    assert np.array_equal(invert_checked(np.array([good, good.T])),
                          [invert_checked(good), invert_checked(good.T)])


# ---------------------------------------------------------------------------
# Grading
# ---------------------------------------------------------------------------

def test_grade_projection():
    b = PolyField.from_constant([1.0, 2.0])
    B = PolyField.from_linear(np.eye(2))
    f = b + B + p2_field()
    assert f.grade(0).terms == b.terms
    assert f.grade(1).terms == B.terms
    assert f.grade(2).terms == p2_field().terms
    assert p2_field().grade(2).terms == p2_field().terms
    assert p2_field().grade(1).is_zero()


def test_grades_sum_to_field():
    rng = np.random.default_rng(8)
    f = random_field(rng, 2, [0, 1, 2, 3])
    total = PolyField.zero(2)
    for j in range(f.max_degree() + 1):
        total = total + f.grade(j)
    assert total.coeff_distance(f) == 0.0


# ---------------------------------------------------------------------------
# JSON round trip and formatting
# ---------------------------------------------------------------------------

def test_field_json_roundtrip():
    f = p2_field() + PolyField.from_constant([0.5, 0.0])
    assert field_from_dict(field_to_dict(f)).terms == f.terms


def test_field_json_validation():
    with pytest.raises(ValueError):
        field_from_dict({"dim": 2, "terms": [{"component": 5, "exponents": [1, 0], "coeff": 1.0}]})
    with pytest.raises(ValueError):
        field_from_dict({"dim": 2, "terms": [{"component": 0, "exponents": [1], "coeff": 1.0}]})
    with pytest.raises(ValueError):
        field_from_dict({"terms": []})
    with pytest.raises(ValueError, match="integer"):
        field_from_dict({"dim": 2.5, "terms": []})
    with pytest.raises(ValueError, match="list"):
        field_from_dict({"dim": 2, "terms": {"component": 0}})
    with pytest.raises(ValueError, match="non-finite"):
        field_from_dict({"dim": 2, "terms": [
            {"component": 0, "exponents": [1, 0], "coeff": float("inf")}]})


def test_format_field_readable():
    assert format_field(p2_field()) == "(x1^2 - x2^2, 2*x1*x2)"
    assert format_field(PolyField.zero(2)) == "(0, 0)"
