"""Closed-form scalar functions of time: parsing, printing, evaluation, exact differentiation.

The expression language is deliberately small.  Grammar (whitespace insignificant)::

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := base ("^" INTEGER)?
    base   := NUMBER | "t" | DEF | "(" expr ")" | FUNC "(" expr ")" | "-" base
    FUNC   := "exp" | "sin" | "cos"
    DEF    := "e0" | "e1" | ...

A DEF names an expression that was read before this one (a shared
subexpression of a written system, see ``format_shared``); it is read only
when the parser is given those expressions, and stands for the one object
it names, as "(" expr ")" would stand for its expr.

Expressions are immutable trees; all functions here are pure.  Equality of two
expressions is structural (dataclass equality); semantic equality is checked by
sampled evaluation elsewhere, never by canonicalization.  The operators ``+``,
``-`` and ``*`` build trees through the smart constructors below; numbers are
taken as literals, also on the left of ``+`` and ``*``.

Trees built by the transform share subtrees by identity; trees read back
from JSON repeat equal subtrees as separate objects.  Every walk runs over one
numbering, ``_number_nodes``, of the distinct subtrees of a list of
expressions (children first, structurally equal subtrees once):
``compile_table`` generates one function of t from it (``compile_expr`` is its
one-entry form), ``_taylor`` loops over it for the Taylor coefficients of any
order at t (the table's ``taylor`` reader; ``eval_expr`` reads order 0), and
``diff_expr`` for the derivative as an expression.  Values agree bit for
bit across all of them.  The printer walks the numbering too, so that it
can write a shared subtree once, by name.  The parser reads and the
printer writes from an explicit stack, and the smart constructors walk
chains of negations and of literal factors in loops, so expressions of any
depth pass through every function here.  A table's source is written with Python's own precedence,
parenthesized only where Python would bind the operands otherwise, so it
parses to the same tree, and compiles to the same code, as if every node
were parenthesized.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from dataclasses import dataclass
from typing import Union

__all__ = [
    "TimeExpr", "Lit", "TVar", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Fun",
    "T", "ParseError", "EvalError", "parse_expr", "format_expr", "format_shared", "eval_expr",
    "compile_expr", "compile_table", "compile_rhs", "diff_expr", "lit", "eadd", "esub", "emul",
    "ediv", "eneg", "epow", "efun", "as_expr",
]


class _Arith:
    """Arithmetic operators shared by every node: a + b is eadd(a, b), and so on."""

    __slots__ = ()
    __array_ufunc__ = None  # numpy scalars defer to the reflected operator

    def __add__(self, other):
        return eadd(self, _operand(other))

    def __radd__(self, other):
        return eadd(_operand(other), self)

    def __sub__(self, other):
        return esub(self, _operand(other))

    def __mul__(self, other):
        return emul(self, _operand(other))

    def __rmul__(self, other):
        return emul(_operand(other), self)

    def __neg__(self):
        return eneg(self)


def _operand(x) -> "TimeExpr":
    if isinstance(x, _Arith):
        return x
    if isinstance(x, (int, float)):
        return lit(x)
    raise TypeError(f"unsupported operand for a time expression: {x!r}")


@dataclass(frozen=True)
class Lit(_Arith):
    value: float


@dataclass(frozen=True)
class TVar(_Arith):
    pass


@dataclass(frozen=True)
class Neg(_Arith):
    arg: "TimeExpr"


@dataclass(frozen=True)
class Add(_Arith):
    left: "TimeExpr"
    right: "TimeExpr"


@dataclass(frozen=True)
class Sub(_Arith):
    left: "TimeExpr"
    right: "TimeExpr"


@dataclass(frozen=True)
class Mul(_Arith):
    left: "TimeExpr"
    right: "TimeExpr"


@dataclass(frozen=True)
class Div(_Arith):
    left: "TimeExpr"
    right: "TimeExpr"


@dataclass(frozen=True)
class Pow(_Arith):
    base: "TimeExpr"
    exponent: int


@dataclass(frozen=True)
class Fun(_Arith):
    name: str  # "exp" | "sin" | "cos"
    arg: "TimeExpr"


TimeExpr = Union[Lit, TVar, Neg, Add, Sub, Mul, Div, Pow, Fun]

#: The time variable, shared singleton.
T = TVar()

_FUNCTIONS = {"exp": math.exp, "sin": math.sin, "cos": math.cos}

_DENOM_FLOOR = 1e-14


class ParseError(ValueError):
    """Syntax error with byte offset and the set of tokens that were expected."""

    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        detail = f"{message} at offset {offset}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class EvalError(ArithmeticError):
    """Evaluation failure; carries the offending subexpression.

    The message is written when it is read, so an error that is caught and
    dropped prints nothing, and it shows at most _MESSAGE_CHARS characters
    of the subexpression: a system read with defs can name a tree far
    larger than its file.
    """

    def __init__(self, message: str, subexpr: TimeExpr, t: float):
        super().__init__(message)
        self.message = message
        self.subexpr = subexpr
        self.t = t

    def __str__(self) -> str:
        return (f"{self.message} at t={self.t!r}: "
                f"{format_expr(self.subexpr, _MESSAGE_CHARS)}")


_MESSAGE_CHARS = 2000


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

# one token per match, after any whitespace: group 1 a number, 2 a name, 3 an
# operator or a parenthesis, 4 any other character, an error once looked at
_TOKEN = re.compile(r"\s*(?:((?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
                    r"|([A-Za-z_][A-Za-z_0-9]*)|([-+*/^()])|(\S))")
_NUMBER, _NAME, _OTHER = 1, 2, 4
_OPERATOR = {"+": Add, "-": Sub, "*": Mul, "/": Div}
_APPLY = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
_OPERAND = ("number", "'t'", "'('", "function", "'-'")
_DEF_NAME = re.compile(r"e(?:0|[1-9][0-9]*)")


def parse_expr(source: str, defs=None) -> TimeExpr:
    """Parse `source` into an expression tree.

    Literal-only subtrees are folded to a single literal at construction;
    no other rewriting happens, so the result is the unique AST of the
    source under standard precedence.  One loop reads the tokens with an
    explicit stack of pending operators and open parentheses, calls and
    unary minuses (Dijkstra's shunting-yard), so any nesting depth parses.
    With a sequence `defs`, the name e<k> reads as the object defs[k], one
    more operand, and a name e<k> with k >= len(defs) is an error.
    """
    tokens = [(m.lastindex, m[m.lastindex], m.start(m.lastindex))
              for m in _TOKEN.finditer(source)]
    if not tokens:
        raise ParseError("empty input", 0)
    tokens.append((None, None, len(source)))
    # above the None at the bottom: "(", a function name, Neg for a unary
    # minus, or a binary operator's class above its left operand
    stack: list = [None]
    i = 0
    while True:
        kind, tok, at = tokens[i]  # an operand is due
        i += 1
        if kind == _NUMBER:
            value = float(tok)
            if not math.isfinite(value):
                raise ParseError("numeric constant out of range", at)
            node = Lit(value)
        elif tok == "t":
            node = T
        elif tok == "-" or tok == "(":
            stack.append(Neg if tok == "-" else tok)
            continue
        elif defs is not None and kind == _NAME and _DEF_NAME.fullmatch(tok):
            k = int(tok[1:])
            if k >= len(defs):
                raise ParseError(f"no def {tok!r} before this expression", at)
            node = defs[k]
        elif kind == _NAME:
            if tok not in _FUNCTIONS:
                raise ParseError(f"unknown function {tok!r}", at,
                                 expected=("'exp'", "'sin'", "'cos'", "'t'"))
            if tokens[i][1] != "(":
                raise _unexpected(*tokens[i], ("'('",))
            i += 1
            stack.append(tok)
            continue
        else:
            raise _unexpected(kind, tok, at, _OPERAND)
        while True:  # node is a number, t, a parenthesis or a call
            while stack[-1] is Neg:
                stack.pop()
                node = Lit(-node.value) if type(node) is Lit else Neg(node)
            kind, tok, at = tokens[i]
            if tok == "^":
                kind, tok, at = tokens[i + 1]
                if kind != _NUMBER or not tok.isdecimal():
                    raise _unexpected(kind, tok, at, ("nonnegative integer exponent",))
                i += 2
                k = int(tok)
                node = Lit(_fold_value(pow, tokens[i][2], node.value, k)) \
                    if type(node) is Lit else Pow(node, k)
            elif kind == _OTHER:
                raise _unexpected(kind, tok, at)
            # a pending * or / folds now, before a token after an exponent is looked at
            if stack[-1] is Mul or stack[-1] is Div:
                node = _fold(stack, node, tokens[i][2])
            kind, tok, at = tokens[i]
            if kind == _OTHER:
                raise _unexpected(kind, tok, at)
            cls = _OPERATOR.get(tok)
            # a sum folds once the next operator is known not to bind tighter
            if (stack[-1] is Add or stack[-1] is Sub) and cls is not Mul and cls is not Div:
                node = _fold(stack, node, at)
            if cls is not None:
                stack += (node, cls)
                i += 1
                break
            frame = stack.pop()
            if frame is None:
                if tok is None:
                    return node
                raise ParseError(f"trailing input {tok!r}", at,
                                 expected=("'+'", "'-'", "'*'", "'/'", "'^'", "end of input"))
            if tok != ")":
                raise _unexpected(kind, tok, at, ("')'",))
            i += 1
            if frame != "(":
                node = Lit(_fold_value(_FUNCTIONS[frame], tokens[i][2], node.value)) \
                    if type(node) is Lit else Fun(frame, node)


def _unexpected(kind, tok, at: int, expected: tuple = ()) -> ParseError:
    if kind == _OTHER:
        return ParseError(f"unexpected character {tok!r}", at)
    return ParseError(f"unexpected {'end of input' if tok is None else repr(tok)}",
                      at, expected)


def _fold(stack: list, right: TimeExpr, offset: int) -> TimeExpr:
    """Apply the operator on top of `stack` to the operand below it and
    `right`, folding two literals to one."""
    cls = stack.pop()
    left = stack.pop()
    if cls is Div and type(right) is Lit and right.value == 0.0:
        raise ParseError("division by constant zero", offset)
    if type(left) is Lit and type(right) is Lit:
        return Lit(_fold_value(_APPLY[cls], offset, left.value, right.value))
    return cls(left, right)


def _fold_value(f, offset: int, *args) -> float:
    try:
        value = f(*args)
    except OverflowError:
        raise ParseError("constant folding overflows", offset) from None
    if not math.isfinite(value):
        raise ParseError("constant folding overflows", offset)
    return value


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _fmt_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def format_expr(e: TimeExpr, limit: int | None = None) -> str:
    """Render `e` so that parse_expr(format_expr(e)) is structurally equal to e:
    format_shared's walk with no names, every subtree written in full.

    With a `limit`, a text longer than `limit` characters is cut to its
    first `limit` and ends in "..."; the walk stops there, so a tree that
    shares its subtrees costs about `limit` steps plus its depth, whatever
    its full text would be.
    """
    nodes, roots = _number_nodes([e])
    return _format(nodes, roots[0], {}, limit)


def format_shared(nodes: list, roots: list) -> tuple[list, list]:
    """Render a _number_nodes numbering with each shared subtree written once.

    Every node used more than once, as a child or as a root, that is not a
    literal or t is a def, named e0, e1, ... in numbering order, so that a
    def names only earlier ones.  Returns (defs, texts): defs[j] renders def
    j and texts[i] renders roots[i] (the name alone when it is a def), each
    with the defs below it written by name.  Reading defs[j] by
    parse_expr(defs[j], first_j_read) in order, then each text with all of
    them, gives trees structurally equal to the numbered ones, each def one
    object.
    """
    uses = _uses(nodes, roots)
    names: dict = {}
    for k, (node, _) in enumerate(nodes):
        if uses[k] > 1 and type(node) is not Lit and type(node) is not TVar:
            names[k] = f"e{len(names)}"
    return ([_format(nodes, k, names) for k in names],
            [names.get(k) or _format(nodes, k, names) for k in roots])


def _format(nodes: list, root: int, names: dict, limit: int | None = None) -> str:
    """The text of node `root` of a numbering, a node below it with a name
    in `names` written as that name, cut as format_expr cuts it at `limit`.

    The text is written left to right from an explicit stack of literal
    pieces and of node numbers, each with the grammar level its context
    requires (0 expr, 1 term, 2 factor, 3 base-with-power, 4 atom); a node
    is wrapped in parentheses when it binds more loosely than that, and a
    name is an atom.  A leading "-" is a grammar `base`, legal anywhere
    except as the bare right operand of ^, which is never a node (exponents
    are ints).
    """
    out: list = []
    written = size = 0
    stack: list = [(root, 0)]
    while stack:
        if limit is not None:
            size += sum(map(len, out[written:]))
            written = len(out)
            if size > limit:
                break
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        k, level = item
        node, kids = nodes[k]
        cls = type(node)
        if k in names and k != root:
            out.append(names[k])
        elif cls is Lit:
            v = node.value
            negative = v < 0 or (v == 0 and math.copysign(1.0, v) < 0)
            out.append("-" + _fmt_number(-v) if negative else _fmt_number(v))
        elif cls is TVar:
            out.append("t")
        elif cls is Fun:
            out.append(node.name + "(")
            stack += [")", (kids[0], 0)]
        elif cls is Neg:
            out.append("-")
            stack.append((kids[0], 4))
        else:
            if cls is Pow:
                prec, parts = 3, [(kids[0], 4), f"^{node.exponent}"]
            else:  # one of _BINARY: the numbering refuses any other node
                prec = 1 if cls is Mul or cls is Div else 0
                parts = [(kids[0], prec), _BINARY[cls], (kids[1], prec + 1)]
            if prec < level:
                parts = ["("] + parts + [")"]
            stack += reversed(parts)
    text = "".join(out)
    return text if limit is None or len(text) <= limit else text[:limit] + "..."


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def eval_expr(e: TimeExpr, t: float) -> float:
    """Evaluate `e` at time `t`: the order-0 Taylor coefficient.

    Raises EvalError when a quotient denominator falls below 1e-14 in
    magnitude, naming the offending subexpression.
    """
    nodes, roots = _number_nodes([e])
    return _taylor(nodes, t, 0)[roots[0]][0]


def _taylor(nodes: list, t: float, order: int) -> list:
    """Taylor coefficients a_0..a_order at `t` of every node of a
    _number_nodes list, in its order: a_k = e^(k)(t)/k!, by the recurrences
    of Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13.  a_0 is
    the value that compile_table computes, bit for bit."""
    # sums start from a term, not from int 0, so that a -0.0 value stays -0.0
    out: list = []
    for node, kids in nodes:
        cls = type(node)
        if cls is Lit:
            a = [node.value] + [0.0] * order
        elif cls is TVar:
            a = ([t, 1.0] + [0.0] * order)[:order + 1]
        elif cls is Neg:
            a = [-v for v in out[kids[0]]]
        elif cls is Add:
            a = [u + v for u, v in zip(out[kids[0]], out[kids[1]])]
        elif cls is Sub:
            a = [u - v for u, v in zip(out[kids[0]], out[kids[1]])]
        elif cls is Mul:
            a = _cauchy(out[kids[0]], out[kids[1]])
        elif cls is Div:
            b = out[kids[1]]
            if abs(b[0]) <= _DENOM_FLOOR:
                raise EvalError("near-zero denominator", nodes[kids[1]][0], t)
            a = []
            for k, v in enumerate(out[kids[0]]):
                for i in range(1, k + 1):
                    v -= b[i] * a[k - i]
                a.append(v / b[0])
        elif cls is Pow:
            base = out[kids[0]]
            power, square, k = None, base, node.exponent
            while k:  # binary powering
                if k & 1:
                    power = square if power is None else _cauchy(power, square)
                k >>= 1
                if k:
                    square = _cauchy(square, square)
            a = [base[0] ** node.exponent] + ([0.0] * order if power is None else power[1:])
        else:  # Fun
            u = out[kids[0]]
            if node.name == "exp":  # y' = u' y
                a = [math.exp(u[0])]
                for k in range(1, order + 1):
                    a.append(_chain(u, a, k))
            else:  # s' = u' c, c' = -u' s
                s, c = [math.sin(u[0])], [math.cos(u[0])]
                for k in range(1, order + 1):
                    s.append(_chain(u, c, k))
                    c.append(-_chain(u, s, k))
                a = s if node.name == "sin" else c
        out.append(a)
    return out


def _cauchy(a: list, b: list) -> list:
    """Coefficients of the product of two truncated series."""
    out = []
    for k in range(len(a)):
        v = a[0] * b[k]
        for i in range(1, k + 1):
            v += a[i] * b[k - i]
        out.append(v)
    return out


def _chain(u: list, w: list, k: int) -> float:
    """The k-th coefficient (k >= 1) of y with y' = u' w: (1/k) sum_j j u_j w_(k-j)."""
    v = u[1] * w[k - 1]
    for j in range(2, k + 1):
        v += j * u[j] * w[k - j]
    return v / k


# ---------------------------------------------------------------------------
# Compiled tables (hot paths: grid tables, zero tests, ODE right-hand sides)
# ---------------------------------------------------------------------------

# single-use nodes are written inline up to this nesting depth; deeper ones,
# and every node used more than once, get a statement of their own
_INLINE_DEPTH = 12

_BINARY = {Add: "+", Sub: "-", Mul: "*", Div: "/"}

# compile_table writes Python's precedence: 0 sum, 1 product, 2 unary minus
# (a Neg or a negative literal), 3 power, 4 atom.  A left operand is wrapped
# when it binds more loosely than its operator, a right one also when it
# binds equally, the base of ** unless it is an atom, so Python parses the
# same tree as from full parentheses.  format_expr's levels do not transfer:
# the TimeExpr grammar reads -t^2 as (-t)^2, Python reads -t**2 as -(t**2).
_LEVEL = {Add: 0, Sub: 0, Mul: 1, Div: 1}


def _number_nodes(exprs: list) -> tuple[list, list]:
    """Number the distinct subtrees of `exprs` bottom-up.

    Returns (nodes, roots): nodes[k] is (a node, the numbers of its
    children), children numbered before parents and left before right;
    roots[i] is the number of exprs[i].  A node's key is (kind, payload,
    child numbers), so structurally equal subtrees get one number whether
    or not they are one object.
    """
    num_of: dict[int, int] = {}   # id(node) -> number; exprs keep nodes alive
    numbers: dict[tuple, int] = {}
    nodes: list = []
    get = num_of.get
    for root in exprs:
        stack = [root]
        while stack:
            node = stack[-1]
            i = id(node)
            if i in num_of:
                stack.pop()
                continue
            cls = type(node)
            if cls in _BINARY:
                a, b = get(id(node.left)), get(id(node.right))
                if a is None or b is None:
                    if b is None:
                        stack.append(node.right)
                    if a is None:
                        stack.append(node.left)
                    continue
                kid_nums = (a, b)
                key = (cls, a, b)
            elif cls is Lit:
                kid_nums = ()
                key = (cls, repr(node.value))  # keeps -0.0 apart from 0.0
            elif cls is TVar:
                kid_nums = ()
                key = (cls,)
            elif cls is Pow or cls is Neg or cls is Fun:
                kid = node.base if cls is Pow else node.arg
                a = get(id(kid))
                if a is None:
                    stack.append(kid)
                    continue
                kid_nums = (a,)
                key = (cls, node.exponent if cls is Pow else
                       node.name if cls is Fun else None, a)
            else:
                raise TypeError(f"not a TimeExpr node: {node!r}")
            stack.pop()
            k = numbers.get(key)
            if k is None:
                k = numbers[key] = len(nodes)
                nodes.append((node, kid_nums))
            num_of[i] = k
    return nodes, [num_of[id(e)] for e in exprs]


def _uses(nodes: list, roots: list) -> list:
    """How often each node of a numbering is used: as a child, or as a root."""
    uses = [0] * len(nodes)
    for _, kid_nums in nodes:
        for k in kid_nums:
            uses[k] += 1
    for k in roots:
        uses[k] += 1
    return uses


def compile_table(exprs, numbering=None):
    """Compile expressions into one callable t -> tuple of floats.

    Each distinct subtree is evaluated once per call, also when equal
    subtrees are separate objects.  Values are bit-identical to eval_expr at
    float(t), and a quotient whose denominator falls below 1e-14 in
    magnitude raises EvalError naming the denominator.  The callable's
    `taylor(t, order)` reads the Taylor coefficients over the same
    numbering: a list of order + 1 columns, column k holding the k-th
    coefficient of every expression and column 0 the table's values.  A
    caller that holds _number_nodes(exprs) already passes it as `numbering`.
    """
    nodes, roots = _number_nodes(list(exprs)) if numbering is None else numbering
    uses = _uses(nodes, roots)
    dens = {kid_nums[1] for node, kid_nums in nodes if type(node) is Div}
    consts: dict = {}
    refs: list = [None] * len(nodes)
    level = [4] * len(nodes)   # how tightly refs[k] binds in Python, see _LEVEL
    depth = [0] * len(nodes)
    body: list = []
    for k, (node, kid_nums) in enumerate(nodes):
        cls = type(node)
        if cls is Lit:
            v = node.value
            if not math.isfinite(v):
                refs[k] = f"_c{k}"
                consts[refs[k]] = v
            else:
                refs[k] = repr(v)
                if refs[k].startswith("-"):
                    level[k] = 2
        elif cls is TVar:
            refs[k] = "t"
        else:
            a = kid_nums[0]
            arg, d = refs[a], depth[a]
            if cls in _BINARY:
                b = kid_nums[1]
                lv = level[k] = _LEVEL[cls]
                right = refs[b] if level[b] > lv else f"({refs[b]})"
                text = (arg if level[a] >= lv else f"({arg})") + _BINARY[cls] + right
                d = max(d, depth[b])
            elif cls is Neg:
                level[k] = 2
                text = "-" + (arg if level[a] >= 2 else f"({arg})")
            elif cls is Pow:
                level[k] = 3
                text = (arg if level[a] == 4 else f"({arg})") + f"**{node.exponent}"
            else:
                text = f"{node.name}({arg})"
            depth[k] = d + 1
            if uses[k] > 1 or k in dens or depth[k] > _INLINE_DEPTH:
                body.append(f"    v{k} = {text}")
                refs[k], level[k], depth[k] = f"v{k}", 4, 0
            else:
                refs[k] = text
        if k in dens and not (cls is Lit and abs(node.value) > _DENOM_FLOOR):
            body.append(f"    if {-_DENOM_FLOOR!r} <= {refs[k]} <= {_DENOM_FLOOR!r}: "
                        f"_fail({k}, t)")
    body.append(f"    return ({''.join(refs[k] + ',' for k in roots)})")
    den_nodes = {k: nodes[k][0] for k in dens}

    def fail(k: int, t: float):
        raise EvalError("near-zero denominator", den_nodes[k], t)

    src = "def _table(t):\n    t = float(t)\n" + "\n".join(body) + "\n"
    table = _define(src, "_table", {"exp": math.exp, "sin": math.sin, "cos": math.cos,
                                     "_fail": fail, **consts})

    def taylor(t: float, order: int) -> list:
        a = _taylor(nodes, float(t), order)
        return [tuple(a[r][k] for r in roots) for k in range(order + 1)]

    table.taylor = taylor
    return table


def compile_rhs(dim: int, terms, table=None):
    """Compile a polynomial right-hand side into one callable (t, y) ->
    tuple of dim floats, for y a sequence of dim floats.

    `terms` lists (component, coefficient, powers) for the monomial
    coefficient * y[v1]**p1 * y[v2]**p2 * ... with powers ((v1, p1), ...).
    A coefficient is a float literal, or the int number of a column of
    `table`, a compile_table callable that the function calls once per t (a
    near-zero denominator raises its EvalError).  Each component sums its
    terms in the given order, starting from 0.0, with two exceptions that let
    a table stand in for a loop over coefficient values:
    - a column term without powers that comes first in its component starts
      the sum itself, so that a -0.0 value stays -0.0;
    - a monomial of degree 2 or more is skipped while its column reads
      exactly 0.0.
    A literal coefficient 0.0 is not written at all.  Values equal those of
    such a summation loop bit for bit.
    """
    cols: dict = {}
    consts: dict = {}
    sums = [""] * dim
    body: list = []
    for i, coeff, powers in terms:
        if isinstance(coeff, int):
            c = cols[coeff] = f"c{coeff}"
        elif coeff == 0.0:
            continue
        elif not math.isfinite(coeff):
            c = f"_c{len(consts)}"
            consts[c] = coeff
        else:
            c = f"({coeff!r})" if coeff < 0 else repr(coeff)
        mono = c + "".join(f"*y{v}**{p}" if p > 1 else f"*y{v}" for v, p in powers)
        if isinstance(coeff, int) and not powers and not sums[i]:
            sums[i] = c
        elif isinstance(coeff, int) and sum(p for _, p in powers) > 1:
            if sums[i] != f"o{i}":
                body.append(f"    o{i} = {sums[i] or '0.0'}")
            body.append(f"    if {c}: o{i} += {mono}")
            sums[i] = f"o{i}"
        else:
            sums[i] = f"{sums[i] or '0.0'} + {mono}"
    head = ["def _rhs(t, y):"]
    if cols:
        names = [cols.get(k, "_") for k in range(max(cols) + 1)]
        head.append(f"    {', '.join(names)}, *_ = _table(t)")
    head.append(f"    {''.join(f'y{v}, ' for v in range(dim))}= y")
    ret = f"    return ({''.join((v or '0.0') + ', ' for v in sums)})"
    return _define("\n".join(head + body + [ret]) + "\n", "_rhs",
                   {"_table": table, **consts})


# numbers the generated functions, one file name each
_DEFINED = itertools.count()


def _define(src: str, name: str, namespace: dict):
    """Run the source of one generated function and return the function.  It
    is popped from its globals, so that the two form no reference cycle and
    are freed as soon as the function's owner drops it.  Its code gets a file
    name of its own, `<gaugekit _rhs 17>`, so that tracebacks name what
    generated it and profilers, which key functions by file, line and name,
    keep the generated functions apart."""
    filename = f"<gaugekit {name} {next(_DEFINED)}>"
    exec(compile(src, filename, "exec"), namespace)  # noqa: S102 - our own source
    return namespace.pop(name)


def compile_expr(e: TimeExpr):
    """Compile `e` into a plain Python callable t -> float: a one-entry table."""
    table = compile_table([e])
    return lambda t: table(t)[0]


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------
# Used by diff_expr and by the operators above.  They fold literal-only nodes,
# drop 0/1 identities and pull negations out of products, and merge exp*exp
# factors; they never reorder non-literal terms.

def lit(v: float) -> Lit:
    if not math.isfinite(v):
        raise ValueError(f"non-finite literal {v!r}")
    return Lit(float(v))


def as_expr(e) -> TimeExpr:
    """An expression from a source string, a number or an expression."""
    if isinstance(e, str):
        return parse_expr(e)
    if isinstance(e, (int, float)):
        try:
            return lit(float(e))
        except OverflowError:  # an int beyond the float range
            raise ValueError("numeric constant out of range") from None
    return e


def eneg(a: TimeExpr) -> TimeExpr:
    if isinstance(a, Lit):
        return Lit(-a.value)
    if isinstance(a, Neg):
        return a.arg
    return Neg(a)


def eadd(a: TimeExpr, b: TimeExpr) -> TimeExpr:
    return _add(a, b, False)


def esub(a: TimeExpr, b: TimeExpr) -> TimeExpr:
    return _add(a, b, True)


def _add(a: TimeExpr, b: TimeExpr, minus: bool) -> TimeExpr:
    """a - b when `minus`, else a + b; a Neg right operand flips the sign."""
    while True:
        if isinstance(a, Lit) and isinstance(b, Lit):
            return Lit(a.value - b.value if minus else a.value + b.value)
        if isinstance(b, Lit) and b.value == 0.0:
            return a
        if isinstance(a, Lit) and a.value == 0.0:
            return eneg(b) if minus else b
        if not isinstance(b, Neg):
            break
        b, minus = b.arg, not minus
    if minus:
        return Sub(a, b)
    if isinstance(b, Lit) and b.value < 0:
        return Sub(a, Lit(-b.value))
    return Add(a, b)


def _linear_in_t(e: TimeExpr) -> float | None:
    """Coefficient c when e is c*t up to trivial shapes, else None."""
    negated = False
    while isinstance(e, Neg):
        e, negated = e.arg, not negated
    c = None
    if isinstance(e, TVar):
        c = 1.0
    elif isinstance(e, Mul):
        if isinstance(e.left, Lit) and isinstance(e.right, TVar):
            c = e.left.value
        elif isinstance(e.right, Lit) and isinstance(e.left, TVar):
            c = e.right.value
    elif isinstance(e, Lit) and e.value == 0.0:
        c = 0.0
    return -c if negated and c is not None else c


def _merge_exp(a: Fun, b: Fun) -> TimeExpr:
    ca, cb = _linear_in_t(a.arg), _linear_in_t(b.arg)
    if ca is not None and cb is not None:
        return efun("exp", _scale(Lit(ca + cb), T))
    return efun("exp", eadd(a.arg, b.arg))


def _scale(a: Lit, b: TimeExpr) -> TimeExpr:
    """emul(a, b) for a literal `a`: literal factors of `b` and negations
    fold into `a` until b is neither."""
    while True:
        if isinstance(b, Lit):
            return Lit(a.value * b.value)
        if a.value == 0.0:
            return Lit(0.0)
        if a.value == 1.0:
            return b
        if a.value == -1.0:
            return eneg(b)
        if isinstance(b, Mul) and isinstance(b.left, Lit):
            a, b = Lit(a.value * b.left.value), b.right
        elif isinstance(b, Neg):
            a, b = Lit(-a.value), b.arg
        else:
            return Mul(a, b)


def emul(a: TimeExpr, b: TimeExpr) -> TimeExpr:
    # what is left to apply to the product of a and b, innermost last:
    # None negates it, a literal multiplies it from the left
    pending: list = []
    product = None
    while product is None:
        if isinstance(a, Lit):
            product = _scale(a, b)
        elif isinstance(b, Lit):
            product = _scale(b, a)
        elif isinstance(a, Neg):
            pending.append(None)
            a = a.arg
        elif isinstance(b, Neg):
            pending.append(None)
            b = b.arg
        elif isinstance(a, Fun) and a.name == "exp" and isinstance(b, Fun) and b.name == "exp":
            product = _merge_exp(a, b)
        elif isinstance(a, Mul) and isinstance(a.left, Lit):
            pending.append(a.left)
            a = a.right
        elif isinstance(b, Mul) and isinstance(b.left, Lit):
            pending.append(b.left)
            b = b.right
        elif isinstance(a, Fun) and a.name == "exp" and isinstance(b, Mul) \
                and isinstance(b.left, Fun) and b.left.name == "exp":
            a, b = _merge_exp(a, b.left), b.right
        else:
            product = Mul(a, b)
    while pending:
        factor = pending.pop()
        product = eneg(product) if factor is None else _scale(factor, product)
    return product


def ediv(a: TimeExpr, b: TimeExpr) -> TimeExpr:
    if isinstance(b, Lit):
        if b.value == 0.0:
            raise ZeroDivisionError("division by constant zero expression")
        if isinstance(a, Lit):
            return Lit(a.value / b.value)
        if b.value == 1.0:
            return a
        return emul(Lit(1.0 / b.value), a)
    if isinstance(a, Lit) and a.value == 0.0:
        return Lit(0.0)
    return Div(a, b)


def epow(a: TimeExpr, k: int) -> TimeExpr:
    if k < 0:
        raise ValueError("integer power must be nonnegative")
    if k == 0:
        return Lit(1.0)
    if k == 1:
        return a
    if isinstance(a, Lit):
        return Lit(a.value ** k)
    return Pow(a, k)


def efun(name: str, arg: TimeExpr) -> TimeExpr:
    if name not in _FUNCTIONS:
        raise ValueError(f"unknown function {name!r}")
    if isinstance(arg, Lit):
        return Lit(_FUNCTIONS[name](arg.value))
    return Fun(name, arg)


# ---------------------------------------------------------------------------
# Differentiation
# ---------------------------------------------------------------------------

def diff_expr(e: TimeExpr) -> TimeExpr:
    """Exact derivative of `e` with respect to t (product/quotient/chain rules).

    The result is value-equivalent to the analytic derivative; it is not
    canonicalized beyond the trivial constructor cleanups above.  Equal
    subtrees of `e` share one derivative.
    """
    nodes, roots = _number_nodes([e])
    d: list = []
    for node, kids in nodes:
        cls = type(node)
        if cls is Lit:
            dk = Lit(0.0)
        elif cls is TVar:
            dk = Lit(1.0)
        elif cls is Neg:
            dk = eneg(d[kids[0]])
        elif cls is Add:
            dk = eadd(d[kids[0]], d[kids[1]])
        elif cls is Sub:
            dk = esub(d[kids[0]], d[kids[1]])
        elif cls is Mul:
            dk = eadd(emul(d[kids[0]], node.right), emul(node.left, d[kids[1]]))
        elif cls is Div:
            # (a' - (a/b) b') / b: the denominator stays b, not b^2
            dk = ediv(esub(d[kids[0]], emul(node, d[kids[1]])), node.right)
        elif cls is Pow:
            dk = Lit(0.0) if node.exponent == 0 else emul(
                emul(Lit(float(node.exponent)), epow(node.base, node.exponent - 1)),
                d[kids[0]])
        elif node.name == "exp":
            dk = emul(node, d[kids[0]])
        elif node.name == "sin":
            dk = emul(Fun("cos", node.arg), d[kids[0]])
        else:
            dk = eneg(emul(Fun("sin", node.arg), d[kids[0]]))
        d.append(dk)
    return d[roots[0]]
