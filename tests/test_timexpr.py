import ast
import copy
import hashlib
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gaugekit import timexpr as tx
from gaugekit.timexpr import (
    Add, Div, Fun, Lit, Mul, Neg, Pow, Sub, T,
    EvalError, ParseError, diff_expr, eval_expr, format_expr, parse_expr,
)

import oracles
from conftest import expr_corpus, random_time_expr

import numpy as np


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_zero():
    assert parse_expr("0") == Lit(0.0)


def test_parse_product_of_functions():
    assert parse_expr("exp(2*t)*sin(t)") == Mul(Fun("exp", Mul(Lit(2.0), T)), Fun("sin", T))


def test_parse_reference_hand_parse():
    # Hand parse of "1 + t*exp(-t)^2" under the grammar:
    #   expr = term + term; second term = t * factor; factor = exp(-t) ^ 2
    expected = Add(Lit(1.0), Mul(T, Pow(Fun("exp", Neg(T)), 2)))
    assert parse_expr("1 + t*exp(-t)^2") == expected


def test_parse_precedence_and_associativity():
    assert parse_expr("t+t*t") == Add(T, Mul(T, T))
    assert parse_expr("t-t-t") == Sub(Sub(T, T), T)
    assert parse_expr("t/t/t") == Div(Div(T, T), T)
    assert parse_expr("t^2*t") == Mul(Pow(T, 2), T)
    assert parse_expr("-t^2") == Pow(Neg(T), 2)  # unary minus binds inside the power base
    assert parse_expr("-(t^2)") == Neg(Pow(T, 2))


def test_parse_constant_folding():
    assert parse_expr("2*3+1") == Lit(7.0)
    assert parse_expr("-5") == Lit(-5.0)
    assert parse_expr("2^3") == Lit(8.0)
    assert parse_expr("cos(0)") == Lit(1.0)
    # folding stops at the first non-literal subtree
    assert parse_expr("2*t") == Mul(Lit(2.0), T)


def test_parse_number_formats():
    assert parse_expr("1.5e2") == Lit(150.0)
    assert parse_expr(".5") == Lit(0.5)
    assert parse_expr("2.") == Lit(2.0)


def test_parse_overflowing_constants_rejected():
    with pytest.raises(ParseError, match="out of range"):
        parse_expr("1e999")
    with pytest.raises(ParseError, match="overflow"):
        parse_expr("9^9999")
    with pytest.raises(ParseError, match="overflow"):
        parse_expr("exp(1e300)")
    with pytest.raises(ParseError, match="overflow"):
        parse_expr("1e300*1e300")


def test_parse_errors():
    with pytest.raises(ParseError) as err:
        parse_expr("exp(t")
    assert err.value.offset == 5

    with pytest.raises(ParseError, match="unknown function 'foo'"):
        parse_expr("foo(t)")

    with pytest.raises(ParseError, match="empty input"):
        parse_expr("")

    with pytest.raises(ParseError, match="trailing"):
        parse_expr("t t")

    with pytest.raises(ParseError, match="division by constant zero"):
        parse_expr("1/0")

    with pytest.raises(ParseError):
        parse_expr("t^-1")
    with pytest.raises(ParseError):
        parse_expr("t^2.5")
    with pytest.raises(ParseError):
        parse_expr("t @ 1")


def test_parse_reads_def_names_as_their_objects():
    a, b = parse_expr("exp(t)"), parse_expr("t+1")
    e = parse_expr("-e0^2*e1 + e1", [a, b])
    assert e == Add(Mul(Pow(Neg(a), 2), b), b)
    assert e.left.left.base.arg is a and e.left.right is b and e.right is b
    # a name stands where "(" expr ")" would: a literal def folds as one
    assert parse_expr("2*e0-e0", [Lit(3.0)]) == Lit(3.0)
    with pytest.raises(ParseError, match="no def 'e2' before this expression") as err:
        parse_expr("e0+e2", [a, b])
    assert err.value.offset == 3
    # names without defs, and names that are not e<k>, are unknown functions
    for source, defs in (("e0", None), ("e01", [a, b]), ("e", [a]), ("ee0", [a])):
        with pytest.raises(ParseError, match="unknown function"):
            parse_expr(source, defs)


def test_format_shared_writes_each_shared_subtree_once():
    x = _doubled(3)  # sin(t), then three sums of one node with itself
    nodes, roots = tx._number_nodes([x, x.left, Neg(x)])
    defs, texts = tx.format_shared(nodes, roots)
    assert defs == ["sin(t)", "e0+e0", "e1+e1", "e2+e2"]
    assert texts == ["e3", "e2", "-e3"]
    # a node used once, a literal and t are written in place
    nodes, roots = tx._number_nodes([Add(Mul(Lit(2.0), T), Mul(Lit(2.0), T))])
    assert tx.format_shared(nodes, roots) == (["2*t"], ["e0+e0"])
    nodes, roots = tx._number_nodes([Fun("exp", T), T, Lit(-0.5), T])
    assert tx.format_shared(nodes, roots) == ([], ["exp(t)", "t", "-0.5", "t"])


def test_format_expr_cuts_its_text_at_a_limit():
    full = format_expr(_doubled(3))  # 61 characters
    assert format_expr(_doubled(3), 61) == full
    assert format_expr(_doubled(3), 60) == full[:60] + "..."
    # 2^200 leaves: the cut walk stops after its prefix
    assert format_expr(_doubled(200), 50) == full[:50] + "..."


def test_eval_error_writes_a_cut_message_when_read(monkeypatch):
    calls = []
    real = tx._format
    monkeypatch.setattr(tx, "_format", lambda *a: calls.append(a) or real(*a))
    x = _doubled(200)
    err = EvalError("near-zero denominator", x, 0.5)
    assert calls == [] and err.subexpr is x and err.t == 0.5
    head = "near-zero denominator at t=0.5: "
    assert str(err) == head + format_expr(x, tx._MESSAGE_CHARS)
    assert len(str(err)) == len(head) + tx._MESSAGE_CHARS + len("...")


def test_parse_nests_deeper_than_the_recursion_limit():
    n = 100_000
    assert parse_expr("(" * n + "t" + ")" * n) is T
    for source, cls in (("-" * n + "t", Neg), ("sin(" * n + "t" + ")" * n, Fun)):
        e = parse_expr(source)
        for _ in range(n):
            assert type(e) is cls
            e = e.arg
        assert e is T


# random sources: pieces drawn in turn from an operand and an operator
# alphabet, 8 % of them from a noise alphabet instead; about 9 % parse, the
# rest reach every error the parser reports
_OPERANDS = ["0", "2", "7", ".5", "3.", "1e300", "t", "t", "-", "(", "exp(", "sin(", "cos("]
_OPERATORS = ["+", "-", "*", "/", "^", "^2", ")", " "]
_NOISE = ["@", ".", "e", "exp", "foo(", "1e999", "1", "9", "t", "(", ")", " ", "-"]


def _random_source(rng: random.Random) -> str:
    pieces, operand = [], True
    for _ in range(rng.randint(0, 30)):
        piece = rng.choice(_NOISE if rng.random() < 0.08 else
                           _OPERANDS if operand else _OPERATORS)
        pieces.append(piece)
        operand = piece[-1] in "+-*/^(" or (operand and piece == " ")
    source = "".join(pieces)
    if rng.random() < 0.7:
        source += ")" * (source.count("(") - source.count(")"))
    return source


def test_parse_outcomes_of_random_sources_are_pinned():
    # the printed tree, or the error's message, offset and expected tokens,
    # of 100,000 seeded sources; the digest was recorded with the
    # recursive-descent parser, so any change of a tree or an error shows
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(100_000):
        source = _random_source(rng)
        try:
            outcome = format_expr(parse_expr(source))
        except ParseError as err:
            outcome = repr((str(err), err.offset, err.expected))
        digest.update(outcome.encode() + b"\n")
    assert digest.hexdigest() == \
        "4a60559000565d5df3ff3f6c0a2fa798c362fc46629b6f672853cf99527ebacc"


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_eval_basics():
    assert eval_expr(parse_expr("t^2 + 1"), 0.0) == 1.0
    assert eval_expr(parse_expr("cos(t)"), 0.0) == 1.0


def _series_exp(x, terms=40):
    acc, term = 0.0, 1.0
    for k in range(terms):
        acc += term
        term *= x / (k + 1)
    return acc


def _series_sin(x, terms=30):
    acc, term = 0.0, x
    for k in range(terms):
        acc += term
        term *= -x * x / ((2 * k + 2) * (2 * k + 3))
    return acc


def test_eval_against_series_oracle():
    e = parse_expr("exp(2*t)*sin(t)")
    t = 0.3
    expected = _series_exp(0.6) * _series_sin(0.3)
    assert abs(eval_expr(e, t) - expected) <= 1e-12


def test_eval_near_zero_denominator():
    e = parse_expr("1/t")
    with pytest.raises(EvalError) as err:
        eval_expr(e, 1e-20)
    assert "t" in str(err.value)
    assert err.value.subexpr == T

    e2 = parse_expr("1/(1-cos(t))")
    with pytest.raises(EvalError):
        eval_expr(e2, 0.0)
    # fine away from the pole
    assert eval_expr(e2, 1.0) == pytest.approx(1.0 / (1.0 - math.cos(1.0)))


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def test_diff_constant_is_zero():
    assert diff_expr(parse_expr("5")) == Lit(0.0)


def test_diff_power_rule():
    d = diff_expr(parse_expr("t^3"))
    for t in np.linspace(-1.0, 1.0, 7):
        assert eval_expr(d, t) == pytest.approx(3 * t * t, abs=1e-12)


def test_diff_product_at_zero():
    d = diff_expr(parse_expr("exp(2*t)*sin(t)"))
    h = 1e-6
    e = parse_expr("exp(2*t)*sin(t)")
    fd = (eval_expr(e, h) - eval_expr(e, -h)) / (2 * h)
    assert abs(eval_expr(d, 0.0) - 1.0) <= 1e-8
    assert abs(eval_expr(d, 0.0) - fd) <= 1e-8


def test_diff_quotient_and_chain():
    e = parse_expr("sin(t^2)/(2+cos(t))")
    d = diff_expr(e)
    for t in (-0.7, 0.0, 0.4, 1.0):
        s, c = math.sin(t * t), math.cos(t)
        num = 2 * t * math.cos(t * t) * (2 + c) + s * math.sin(t)
        assert eval_expr(d, t) == pytest.approx(num / (2 + c) ** 2, abs=1e-12)


def test_diff_quotient_keeps_its_denominator():
    # d(a/b) = (a' - (a/b) b')/b: no squared denominator to underflow the check
    den = parse_expr("t - 0.5")
    e = Div(Lit(1e-9), den)
    d = diff_expr(e)
    assert isinstance(d, Div) and d.right == den
    assert eval_expr(d, 0.50000005) == pytest.approx(-4.0e5, rel=1e-6)
    assert eval_expr(diff_expr(d), 0.50000005) == pytest.approx(1.6e13, rel=1e-6)


def test_diff_corpus_vs_finite_differences():
    h = 1e-5
    for e, times in expr_corpus(seed=20260808, count=1000, depth=6):
        d = diff_expr(e)
        for t in times:
            fd = (eval_expr(e, t + h) - eval_expr(e, t - h)) / (2 * h)
            dv = eval_expr(d, t)
            assert abs(dv - fd) <= 1e-6 * (1.0 + abs(dv)), format_expr(e)


def test_diff_linearity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = random_time_expr(rng, 4)
        b = random_time_expr(rng, 4)
        da, db, dsum = diff_expr(a), diff_expr(b), diff_expr(Add(a, b))
        for t in rng.uniform(-1.0, 1.0, size=5):
            try:
                lhs = eval_expr(dsum, float(t))
                rhs = eval_expr(da, float(t)) + eval_expr(db, float(t))
            except (EvalError, OverflowError):
                continue
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


# ---------------------------------------------------------------------------
# Round trip
# ---------------------------------------------------------------------------

def test_roundtrip_corpus():
    for e, _ in expr_corpus(seed=99, count=300, depth=6, n_times=1):
        assert parse_expr(format_expr(e)) == e, format_expr(e)


def test_roundtrip_derivatives():
    # derivative trees exercise the smart constructors; they must round-trip too
    for e, _ in expr_corpus(seed=123, count=200, depth=5, n_times=1):
        d = diff_expr(e)
        assert parse_expr(format_expr(d)) == d, format_expr(d)


def test_roundtrip_tricky_shapes():
    cases = [
        Pow(Neg(T), 2),
        Neg(Pow(T, 2)),
        Neg(Neg(T)),
        Sub(T, Neg(T)),
        Mul(T, Div(T, Add(T, Lit(2.0)))),
        Div(Lit(1.0), Mul(T, T)),
        Pow(Fun("exp", Neg(T)), 3),
        Sub(Lit(1.0), Sub(Lit(2.0), T)),
        Mul(Neg(T), Neg(T)),
        Lit(-0.5),
        Fun("cos", Add(T, Lit(-1.5))),
    ]
    for e in cases:
        assert parse_expr(format_expr(e)) == e, format_expr(e)
    # 5,000 deep, built by loops: nested parentheses, a minus chain, a sin
    # nest, and right-nested sums and quotients.  == would recurse, so equality
    # is read from the shared numbering, which numbers equal trees once
    for wrap in (lambda e: Pow(e, 2), Neg, lambda e: Fun("sin", e),
                 lambda e: Add(T, e), lambda e: Div(T, e)):
        e = T
        for _ in range(5000):
            e = wrap(e)
        _, roots = tx._number_nodes([parse_expr(format_expr(e)), e])
        assert roots[0] == roots[1]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=6))
def test_roundtrip_property(seed, depth):
    e = random_time_expr(np.random.default_rng(seed), depth)
    assert parse_expr(format_expr(e)) == e


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------

def test_smart_constructors_fold_and_clean():
    assert tx.emul(Lit(0.0), T) == Lit(0.0)
    assert tx.emul(Lit(1.0), T) == T
    assert tx.eadd(Lit(0.0), T) == T
    assert tx.emul(Lit(-1.0), T) == Neg(T)
    assert tx.epow(T, 0) == Lit(1.0)
    assert tx.epow(T, 1) == T
    assert tx.eneg(Neg(T)) == T
    merged = tx.emul(Fun("exp", T), Fun("exp", Mul(Lit(2.0), T)))
    assert format_expr(merged) == "exp(3*t)"
    with pytest.raises(ZeroDivisionError):
        tx.ediv(T, Lit(0.0))


# literals that take every branch of the constructors: 0, +-1, -0.0, and
# factors whose products overflow to inf or underflow to 0
_FACTORS = [0.0, -0.0, 1.0, -1.0, 2.0, -0.5, 1e300, -1e300, 1e-300, -5e-324]
_EXPS = [Fun("exp", T), Fun("exp", Neg(T)), Fun("exp", Mul(Lit(2.0), T)),
         Fun("exp", Mul(T, Lit(-0.5))), Fun("exp", Lit(0.0)), Fun("exp", Mul(T, T))]


def _chained(base):
    """`base` under a chain of up to 40 links, each a Neg, a literal factor
    on the left or an exp(c*t) factor on the left."""
    link = st.one_of(st.just(Neg),
                     st.sampled_from(_FACTORS).map(lambda v: lambda e: Mul(Lit(v), e)),
                     st.sampled_from(_EXPS).map(lambda x: lambda e: Mul(x, e)))

    def wrap(args):
        e, links = args
        for f in links:
            e = f(e)
        return e

    return st.tuples(base, st.lists(link, max_size=40)).map(wrap)


_CHAIN_LEAF = st.one_of(st.just(T), st.sampled_from(_FACTORS).map(Lit), st.sampled_from(_EXPS))
# deferred: _grow is defined with the compile_table tests below
_CHAINED = st.deferred(lambda: _chained(st.recursive(_CHAIN_LEAF, _grow, max_leaves=8)))


def _same_tree(a, b) -> bool:
    """Structural equality with literals compared by repr, so that -0.0 is
    not 0.0, and without recursion."""
    _, roots = tx._number_nodes([a, b])
    return roots[0] == roots[1]


def _same_outcome(f, g, *args) -> bool:
    """f(*args) and g(*args) build the same tree, or raise the same error
    (exp of a literal beyond 709 overflows)."""
    try:
        got = f(*args)
    except OverflowError:
        with pytest.raises(OverflowError):
            g(*args)
        return True
    return _same_tree(got, g(*args))


@settings(max_examples=500, deadline=None)
@given(_CHAINED, _CHAINED)
def test_smart_constructors_build_the_trees_of_their_recursive_definitions(a, b):
    assert _same_outcome(tx.emul, oracles.ref_emul, a, b)
    assert _same_outcome(tx.eadd, oracles.ref_eadd, a, b)
    assert _same_outcome(tx.esub, oracles.ref_esub, a, b)
    assert repr(tx._linear_in_t(a)) == repr(oracles.ref_linear_in_t(a))
    assert _same_outcome(tx._merge_exp, oracles.ref_merge_exp, Fun("exp", a), Fun("exp", b))


def test_smart_constructors_take_chains_deeper_than_the_recursion_limit():
    n = 5000
    negs, factors = T, Mul(T, T)
    for k in range(n):
        negs = Neg(negs)
        factors = Mul(Lit(2.0 if k % 2 else 0.5), factors)
    chain = Mul(Fun("exp", T), factors)
    for _ in range(n):
        chain = Mul(Fun("exp", T), chain)
    assert _same_tree(tx.emul(negs, Neg(negs)), Neg(Mul(T, T)))
    assert _same_tree(tx.emul(factors, negs), Mul(Mul(T, T), T))
    assert _same_tree(tx.emul(T, factors), Mul(T, Mul(T, T)))
    assert _same_tree(tx.emul(Fun("exp", T), chain),
                      Mul(Fun("exp", Mul(Lit(n + 2.0), T)), Mul(T, T)))
    assert _same_tree(tx.eadd(T, negs), Add(T, T))
    assert _same_tree(tx.esub(T, Neg(negs)), Add(T, T))
    assert tx.esub(Lit(0.0), negs) is negs.arg
    assert tx._linear_in_t(Neg(Neg(negs))) == 1.0
    assert tx._linear_in_t(Neg(negs)) == -1.0


def test_operators_are_the_smart_constructors():
    rng = np.random.default_rng(12)
    for _ in range(200):
        a, b, c = (random_time_expr(rng, 3) for _ in range(3))
        assert a + b == tx.eadd(a, b)
        assert a - b == tx.esub(a, b)
        assert a * 2.5 == tx.emul(a, tx.lit(2.5))
        assert 2.5 * a == tx.emul(tx.lit(2.5), a)
        assert -a == tx.eneg(a)
        assert sum([a, b, c]) == tx.eadd(tx.eadd(a, b), c)


def test_operators_take_numpy_scalars_as_literals():
    assert np.float64(2.5) * T == tx.emul(tx.lit(2.5), T)
    assert np.float64(1.5) + T == tx.eadd(tx.lit(1.5), T)
    with pytest.raises(TypeError):
        T + "t"


def test_compile_expr_matches_eval():
    for e, times in expr_corpus(seed=77, count=200, depth=6, n_times=4):
        fn = tx.compile_expr(e)
        for t in times:
            assert fn(t) == eval_expr(e, t)


def test_compile_expr_division_guard():
    fn = tx.compile_expr(parse_expr("1/t + 1"))
    assert fn(2.0) == 1.5
    with pytest.raises(EvalError, match="near-zero denominator"):
        fn(1e-20)


def _outcome(fn, t):
    """repr of the value (so -0.0, inf and nan compare exactly), or the
    error kind."""
    try:
        return repr(fn(t))
    except (EvalError, OverflowError) as exc:
        return type(exc).__name__


def _shared_table(rng):
    """Random entries that share subtrees by identity and by structure."""
    a, b = random_time_expr(rng, 3), random_time_expr(rng, 3)
    a2 = copy.deepcopy(a)  # equal to a, distinct objects
    return [a, Add(a, b), Mul(a2, Neg(a)), Sub(b, a2), Div(a, Add(b, Lit(3.0))),
            Pow(Add(a, a2), 2), Fun("sin", Mul(a, b)), b]


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_compile_table_matches_eval_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    exprs = _shared_table(rng)
    table = tx.compile_table(exprs)
    for t in rng.uniform(-1.5, 1.5, size=4):
        t = float(t)
        got = _outcome(table, t)
        want = [_outcome(lambda s: eval_expr(e, s), t) for e in exprs]
        if any(w in ("EvalError", "OverflowError") for w in want):
            assert got in ("EvalError", "OverflowError")
        else:
            assert got == repr(tuple(map(float, want))), (exprs, t)


def test_compile_table_merges_equal_subtrees_of_parsed_trees():
    src = "exp(0.5*t)*sin(t) + exp(0.5*t)*sin(t)*cos(t)"
    e = parse_expr(src)
    nodes, roots = tx._number_nodes([e, parse_expr(src)])
    assert roots[0] == roots[1]
    assert sum(1 for node, _ in nodes if isinstance(node, Fun) and node.name == "exp") == 1
    assert tx.compile_table([e])(0.7) == (eval_expr(e, 0.7),)


def test_compile_table_keeps_signed_zeros():
    exprs = [Lit(-0.0), Lit(0.0), Add(Lit(-0.0), Lit(-0.0)), Add(Lit(0.0), Lit(-0.0)),
             Neg(T), Mul(Lit(-0.0), T), Mul(Lit(0.0), T),
             Neg(Lit(-0.0)), Sub(T, Lit(-0.0)), Mul(T, Lit(-0.0)), Neg(Mul(Lit(-0.0), T))]
    got = tx.compile_table(exprs)(0.0)
    want = tuple(eval_expr(e, 0.0) for e in exprs)
    assert [math.copysign(1.0, v) for v in got] == [math.copysign(1.0, v) for v in want]
    assert [math.copysign(1.0, v) for v in got] == [-1, 1, -1, 1, -1, -1, 1, 1, 1, -1, 1]
    # Python reads -t**2 as -(t**2): the table keeps (-t)**2 apart
    assert tx.compile_table([Pow(Neg(T), 2), Neg(Pow(T, 2))])(3.0) == (9.0, -9.0)


def test_compile_table_guard_names_the_denominator():
    den = parse_expr("t - 0.5")
    table = tx.compile_table([T, Div(Lit(1.0), den), Div(T, den)])
    assert table(1.0) == (1.0, 2.0, 2.0)
    with pytest.raises(EvalError, match="near-zero denominator") as info:
        table(0.5)
    assert info.value.subexpr == den
    assert "t-0.5" in str(info.value)
    with pytest.raises(EvalError) as info:
        tx.compile_table([Div(Lit(1.0), Lit(1e-15))])(0.0)
    assert info.value.subexpr == Lit(1e-15)
    with pytest.raises(EvalError):
        tx.compile_table([Div(Lit(2.0), T)])(0.0)


def test_compile_table_long_sum():
    # a parsed 500-term sum nests 500 deep; the table bounds its nesting
    e = parse_expr("+".join(["t"] * 500))
    assert tx.compile_table([e])(2.0) == (1000.0,)
    assert tx.compile_expr(e)(0.5) == eval_expr(e, 0.5) == 250.0
    # right-nested, every level needs its own parentheses (the parser cannot
    # read that depth, so these are built from nodes)
    s, p = T, T
    for _ in range(499):
        s, p = Add(T, s), Mul(Lit(1.0), p)
    assert tx.compile_table([s, p])(2.0) == (1000.0, 2.0)


# ---------------------------------------------------------------------------
# The table's source reads as the same tree: an AST oracle
# ---------------------------------------------------------------------------

_PY_OPS = {Add: ast.Add, Sub: ast.Sub, Mul: ast.Mult, Div: ast.Div}


def _expected_ast(nodes: list, k: int, named: set, top: bool = False) -> ast.expr:
    """Node k of a _number_nodes list as a fully parenthesized source would
    parse: named nodes other than the top one are their variables, and a
    negative literal is a unary minus over its magnitude, since ast.parse
    does not fold constants."""
    if k in named and not top:
        return ast.Name(f"v{k}", ast.Load())
    node, kids = nodes[k]
    kid = [_expected_ast(nodes, c, named) for c in kids]
    cls = type(node)
    if cls is Lit:
        v = node.value
        if not math.isfinite(v):
            return ast.Name(f"_c{k}", ast.Load())
        if math.copysign(1.0, v) < 0:
            return ast.UnaryOp(ast.USub(), ast.Constant(-v))
        return ast.Constant(v)
    if cls is tx.TVar:
        return ast.Name("t", ast.Load())
    if cls in _PY_OPS:
        return ast.BinOp(kid[0], _PY_OPS[cls](), kid[1])
    if cls is Neg:
        return ast.UnaryOp(ast.USub(), kid[0])
    if cls is Pow:
        return ast.BinOp(kid[0], ast.Pow(), ast.Constant(node.exponent))
    return ast.Call(ast.Name(str(node.name), ast.Load()), kid, [])


def _assert_source_parses_as_the_tree(exprs: list):
    sources = []
    real = tx._define

    def recording(src, name, namespace):
        sources.append(src)
        return real(src, name, namespace)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tx, "_define", recording)
        tx.compile_table(exprs)
    (fn,) = ast.parse(sources[0]).body
    assigns = [s for s in fn.body if isinstance(s, ast.Assign) and s.targets[0].id != "t"]
    named = {int(s.targets[0].id[1:]) for s in assigns}
    nodes, roots = tx._number_nodes(exprs)
    for stmt in assigns:
        k = int(stmt.targets[0].id[1:])
        assert ast.dump(stmt.value) == ast.dump(_expected_ast(nodes, k, named, top=True))
    returned = fn.body[-1].value.elts
    assert len(returned) == len(roots)
    for elt, k in zip(returned, roots):
        assert ast.dump(elt) == ast.dump(_expected_ast(nodes, k, named))


_LITERALS = [-0.0, 0.0, -0.5, 2.5, -3e30, 1e-20, -1e-5, math.inf, -math.inf]
_SIGNS = [Lit(-0.5), Lit(-0.0), Neg(T), Lit(2.0)]
_SHAPES = (
    # negative literals and -0.0 as left, right and ** base operands
    [cls(a, T) for cls in (Add, Sub, Mul, Div) for a in _SIGNS]
    + [cls(T, a) for cls in (Add, Sub, Mul, Div) for a in _SIGNS]
    + [Pow(a, 3) for a in _SIGNS]
    # Neg over Mul, Div, Pow and Neg; Pow over Neg, Pow and Mul
    + [Neg(Mul(T, Lit(-2.0))), Neg(Div(Lit(-1.0), T)), Neg(Pow(T, 2)), Neg(Neg(T)),
       Neg(Neg(Lit(-0.0))), Neg(Add(T, T)), Neg(Sub(T, Lit(-1.0)))]
    + [Pow(Neg(T), 2), Pow(Pow(T, 2), 3), Pow(Mul(T, T), 2), Pow(Add(T, Lit(-1.0)), 2),
       Pow(Fun("exp", Neg(T)), 2), Pow(Div(T, Lit(3.0)), 2)]
    # right nesting, which is not re-associated
    + [cls(T, cls(T, cls(Lit(-1.0), T))) for cls in (Add, Sub, Mul, Div)]
    + [Sub(T, Add(T, T)), Div(T, Mul(T, T)), Mul(T, Div(T, T)), Add(T, Sub(T, T)),
       Sub(Sub(T, T), T), Div(Div(T, T), Lit(-2.0)), Mul(Neg(T), Pow(T, 2)),
       Add(Mul(T, T), Neg(Mul(T, T)))]
)


@pytest.mark.parametrize("e", _SHAPES, ids=[format_expr(e) for e in _SHAPES])
def test_compile_table_source_parses_as_the_tree_shapes(e):
    _assert_source_parses_as_the_tree([e, Mul(e, e), Neg(e), Pow(e, 2)])


def _leaf():
    return st.one_of(st.just(T), st.sampled_from(_LITERALS).map(Lit))


def _grow(children):
    binary = st.tuples(st.sampled_from([Add, Sub, Mul, Div]), children, children)
    return st.one_of(
        binary.map(lambda x: x[0](x[1], x[2])),
        children.map(Neg),
        st.tuples(children, st.integers(2, 3)).map(lambda x: Pow(*x)),
        st.tuples(st.sampled_from(["exp", "sin", "cos"]), children).map(lambda x: Fun(*x)),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_leaf(), _grow, max_leaves=60), st.integers(0, 2**32 - 1))
def test_compile_table_source_parses_as_the_tree(e, seed):
    # drawn trees, random_time_expr's trees, and shared subtrees (by
    # identity and by structure) that get statements of their own
    rng = np.random.default_rng(seed)
    a = random_time_expr(rng, 5)
    _assert_source_parses_as_the_tree(
        [e, a, Add(e, a), Sub(copy.deepcopy(a), Neg(e)), Pow(Neg(a), 2), Div(T, e)])


def test_compile_table_empty_and_constant():
    assert tx.compile_table([])(1.0) == ()
    assert tx.compile_table([Lit(2.5), T])(np.float64(3.0)) == (2.5, 3.0)


def test_generated_functions_have_a_file_name_each():
    # profilers key functions by (file, line, name): two tables or two
    # right-hand sides under one file name would merge into one entry
    functions = [tx.compile_table([T]), tx.compile_table([T]),
                 tx.compile_rhs(1, [(0, 1.0, ())]), tx.compile_rhs(1, [(0, 2.0, ())])]
    files = [f.__code__.co_filename for f in functions]
    assert len(set(files)) == len(files)
    for f, file in zip(functions, files):
        assert file.startswith(f"<gaugekit {f.__name__} ") and file.endswith(">")
    assert [f.__name__ for f in functions] == ["_table", "_table", "_rhs", "_rhs"]


def _series(exprs, t, order):
    """The Taylor coefficients of each expression, read from their table."""
    return [list(a) for a in zip(*tx.compile_table(exprs).taylor(t, order))]


def test_taylor_coefficients_match_diff_then_eval():
    # order 0 is eval_expr bit for bit; orders 1 and 2 round differently
    # from diff_expr-then-eval_expr, by at most 1e-11 (1 + |reference|)
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(100):
        exprs = _shared_table(rng)
        t = float(rng.uniform(-1.0, 1.0))
        values = [_outcome(lambda s: eval_expr(e, s), t) for e in exprs]
        if any(v in ("EvalError", "OverflowError") for v in values):
            with pytest.raises((EvalError, OverflowError)):
                _series(exprs, t, 2)
            continue
        got = _series(exprs, t, 2)
        assert [repr(a[0]) for a in got] == values
        for a, e in zip(got, exprs):
            d1 = diff_expr(e)
            for k, d in ((1, d1), (2, diff_expr(d1))):
                # a derivative divides by the denominators of e alone, so it
                # evaluates wherever e does
                ref = eval_expr(d, t) / k
                if math.isfinite(ref):
                    assert abs(a[k] - ref) <= 1e-11 * (1.0 + abs(ref))
                    checked += 1
    assert checked > 1000


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
       st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
       st.integers(min_value=0, max_value=4), st.integers(min_value=-2, max_value=2))
def test_taylor_coefficients_of_polynomials_are_exact(u, v, k, t0):
    # u(t) * v(t)^k - u(t), with small integer coefficients, at an integer
    # t0: every coefficient is an integer well inside 2^53, so it is exact
    def expr(cs):
        e = Lit(float(cs[0]))
        for i, c in enumerate(cs[1:], 1):
            e = Add(e, Mul(Lit(float(c)), Pow(T, i)))
        return e

    def mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    poly = [1]
    for _ in range(k):
        poly = mul(poly, v)
    poly = mul(u, poly)
    poly = [p - (u[i] if i < len(u) else 0) for i, p in enumerate(poly)]
    # coefficients at t0: the shifted polynomial p(t0 + s)
    shifted = [0] * len(poly)
    for i, c in enumerate(poly):
        for m in range(i + 1):
            shifted[m] += c * math.comb(i, m) * t0 ** (i - m)
    order = len(poly) + 1
    got = _series([Sub(Mul(expr(u), Pow(expr(v), k)), expr(u))], float(t0), order)[0]
    assert got == [float(c) for c in shifted] + [0.0, 0.0]


def _counting(monkeypatch, name):
    calls = []
    walk = getattr(tx, name)

    def counted(*args):
        calls.append(1)
        return walk(*args)

    monkeypatch.setattr(tx, name, counted)
    return calls


def _doubled(levels):
    # sin, not t: a base whose derivative is a literal folds away
    x = tx.Fun("sin", tx.T)
    for _ in range(levels):
        x = tx.Add(x, x)
    return x


def test_walks_visit_each_shared_node_once(monkeypatch):
    x = _doubled(16)
    # t, sin and one sum per level: a tree walk would visit 3 * 2^16 - 1 nodes
    nodes, roots = tx._number_nodes([x, x])
    assert (len(nodes), roots) == (18, [17, 17])
    assert eval_expr(x, 0.3) == 2.0 ** 16 * math.sin(0.3)
    assert _series([x, x], 0.3, 1) == \
        [[2.0 ** 16 * math.sin(0.3), 2.0 ** 16 * math.cos(0.3)]] * 2
    adds = _counting(monkeypatch, "eadd")
    d = diff_expr(x)
    assert len(adds) == 16
    # the derivative shares its subtrees as the input does
    assert d.left is d.right
    assert eval_expr(d, 0.3) == 2.0 ** 16 * math.cos(0.3)
    # a parsed tree repeats equal subtrees as separate objects: numbered once
    y = parse_expr(format_expr(_doubled(10)))
    assert y.left is not y.right
    assert len(tx._number_nodes([y])[0]) == 12
    del adds[:]
    d = diff_expr(y)
    assert len(adds) == 10
    assert d.left is d.right


def test_walks_take_sums_deeper_than_the_recursion_limit():
    # a parsed 3,000-term sum nests 3,000 deep
    e = parse_expr("+".join(["sin(t)"] * 3000))
    d = diff_expr(e)
    assert eval_expr(d, 0.3) == pytest.approx(3000 * math.cos(0.3), rel=1e-12)
    assert _series([e], 0.3, 1) == [[eval_expr(e, 0.3), eval_expr(d, 0.3)]]


def test_smart_constructor_values_match_structure():
    rng = np.random.default_rng(11)
    for _ in range(200):
        a = random_time_expr(rng, 3)
        b = random_time_expr(rng, 3)
        pairs = [
            (tx.eadd(a, b), Add(a, b)),
            (tx.esub(a, b), Sub(a, b)),
            (tx.emul(a, b), Mul(a, b)),
        ]
        for t in rng.uniform(-1.0, 1.0, size=3):
            for smart, plain in pairs:
                try:
                    lhs = eval_expr(smart, float(t))
                    rhs = eval_expr(plain, float(t))
                except (EvalError, OverflowError):
                    continue
                assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
