"""A fixed computation that times the host, not the program.

The host is shared, and its speed drifts by 20 to 40 % over tens of seconds
(see README.md).  The worker runs `reference()` after every operation and
reports the run's timings in seconds at a fixed host speed: each raw time
is scaled by REFERENCE_S / (the median of the reference times nearest it).
The computation is the two kinds of work gaugekit spends its time on, so
that a slow stretch of the host slows both alike: a Python loop over a term table
with small numpy arrays, inside a fixed-step RK4, and compiling generated
expression source into lambdas, as `timexpr.compile_expr` does, and calling
them.  Nothing here calls gaugekit, so no change to the program changes it.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np

REFERENCE_S = 0.035     # the median reference time that defines the scale
_RK_STEPS = 100
_LAMBDAS = 75

_EXPONENTS = [(2, 0, 0), (0, 1, 1), (1, 0, 1), (0, 0, 3),
              (1, 1, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
_TERMS = {(i, e): 0.1 * (1 + i + sum(e)) * (-1) ** (i + e[0])
          for i in range(3) for e in _EXPONENTS}
_M = np.array([[0.0, -1.0, 0.2], [1.0, 0.0, -0.3], [0.1, 0.4, -0.5]])


def _rhs(t: float, x: np.ndarray) -> np.ndarray:
    out = np.zeros(3)
    for (i, exps), c in _TERMS.items():
        m = c
        for xk, p in zip(x, exps):
            if p:
                m *= xk ** p
        out[i] += m
    return out + (_M @ x) * np.cos(t)


def _rk4() -> np.ndarray:
    x, t, h = np.array([0.1, -0.2, 0.3]), 0.0, 1e-3
    for _ in range(_RK_STEPS):
        k1 = _rhs(t, x)
        k2 = _rhs(t + h / 2, x + h / 2 * k1)
        k3 = _rhs(t + h / 2, x + h / 2 * k2)
        k4 = _rhs(t + h, x + h * k3)
        x, t = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4), t + h
    return x


def _source(rng: random.Random, depth: int) -> str:
    if depth == 0:
        return rng.choice(["t", repr(round(rng.uniform(-2.0, 2.0), 6))])
    op = rng.choice("+-*f")
    if op == "f":
        return f"{rng.choice(['exp', 'sin', 'cos'])}({_source(rng, depth - 1)})"
    return f"({_source(rng, depth - 1)}{op}{_source(rng, depth - 1)})"


def _compiled_sum() -> float:
    rng = random.Random(7)
    ctx = {"exp": math.exp, "sin": math.sin, "cos": math.cos}
    total = 0.0
    for _ in range(_LAMBDAS):
        f = eval(f"lambda t: {_source(rng, 6)}", ctx)  # noqa: S307 - our own source
        total += sum(f(0.01 * j) for j in range(20))
    return total


def reference() -> float:
    """Time one run of the fixed computation, in seconds."""
    t0 = time.perf_counter()
    x = _rk4()
    total = _compiled_sum()
    elapsed = time.perf_counter() - t0
    if not (np.all(np.isfinite(x)) and math.isfinite(total)):
        raise RuntimeError("reference computation diverged")
    return elapsed
