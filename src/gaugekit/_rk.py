"""Adaptive Dormand-Prince 5(4) integrator with quartic dense output.

Shared numerical core for trajectory integration and matrix-curve flows.
The propagated solution is 5th order; the embedded 4th-order solution
drives step control.  Dense output uses the standard quartic interpolant
for this tableau.

Every integration in gaugekit runs at TOL unless its caller states another
tolerance: flows, trajectories and the solution-correspondence check.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

__all__ = ["IntegrationError", "DenseSolution", "integrate_dense", "rk_fixed_step",
           "TOL", "BLOWUP_NORM"]

# relative and absolute tolerance of the mixed error norm (Hairer, Norsett &
# Wanner, Solving ODEs I, II.4), one value for both
TOL = 1e-10
# a trajectory whose state norm passes this has blown up
BLOWUP_NORM = 1e8

# dense-output interpolant coefficients (columns: x, x^2, x^3, x^4 weights),
# one row per stage
_P = np.array([
    [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0.0, 0.0, 0.0, 0.0],
    [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_MAX_STEPS = 200_000


class IntegrationError(RuntimeError):
    """Step-size underflow or step budget exhausted."""


class DenseSolution:
    """Piecewise-quartic continuous solution over the integrated span."""

    def __init__(self, direction: int, dim: int):
        self.direction = direction
        self.dim = dim
        self.t_starts: list[float] = []
        self.hs: list[float] = []
        self.y_olds: list[np.ndarray] = []
        self.Qs: list[np.ndarray] = []
        self.t_end: float | None = None
        self.y_end: np.ndarray | None = None
        self.status = "running"  # -> "done" | "blowup"
        self.steps_rejected = 0   # accepted steps: len(t_starts)
        self.rhs_calls = 0

    @property
    def t_start(self) -> float:
        return self.t_starts[0]

    def _locate(self, ts) -> tuple:
        """Segment index, step and local coordinate of every t of ts: a
        list, an array and a list of Python floats, so that powers of a
        coordinate round as scalar powers do.  Raises IntegrationError for
        the first t outside the integrated span."""
        ts = np.asarray(ts, dtype=float)
        lo, hi = sorted((float(self.t_start), float(self.t_end)))
        outside = (ts < lo - 1e-12) | (ts > hi + 1e-12)
        if outside.any():
            raise IntegrationError(f"t={float(ts[np.argmax(outside)])!r} "
                                   f"outside the integrated span [{lo!r}, {hi!r}]")
        t_starts = np.asarray(self.t_starts)
        # a t up to 1e-12 before the start belongs to the first segment
        idx = np.maximum(np.searchsorted(t_starts * self.direction, ts * self.direction,
                                         side="right") - 1, 0).tolist()
        hs = np.array([self.hs[i] for i in idx])
        return idx, hs, ((ts - t_starts[idx]) / hs).tolist()

    def __call__(self, t: float) -> np.ndarray:
        return self.sample([t])[0]

    def derivative(self, t: float) -> np.ndarray:
        """Derivative of the interpolant (not an extra RHS evaluation)."""
        idx, _, (x,) = self._locate([t])
        return self.Qs[idx[0]] @ np.array([1.0, 2 * x, 3 * x * x, 4 * x ** 3])

    def sample(self, ts) -> np.ndarray:
        """The interpolant at every t of ts, one row per t: one segment
        search and one stacked product."""
        idx, hs, x = self._locate(ts)
        p = np.array([(v, v * v, v ** 3, v ** 4) for v in x]).reshape(len(x), 4, 1)
        # only the segments in use: stacking all of them would make a
        # one-row read cost as much as the whole solution
        Q = np.array([self.Qs[i] for i in idx]).reshape(len(x), self.dim, 4)
        y_old = np.array([self.y_olds[i] for i in idx]).reshape(len(x), self.dim)
        return y_old + hs[:, None] * (Q @ p)[:, :, 0]


def _rms(v: np.ndarray) -> float:
    """Root mean square of a 1-D array; equal to np.sqrt(np.mean(v ** 2)) bit
    for bit, without its dispatch cost on the few entries of a state."""
    return math.sqrt(np.add.reduce(v * v) / v.size)


def _initial_step(rhs, t0, y0, f0, direction, tol):
    y0, f0 = np.asarray(y0, dtype=float), np.asarray(f0, dtype=float)
    scale = tol + tol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = np.asarray(rhs(t0 + h0 * direction, y1.tolist()), dtype=float)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def _step(rhs, t, y, k1, hd, t_new):
    """One Dormand-Prince 5(4) step of size hd from (t, y), k1 = rhs(t, y)
    (Hairer, Norsett & Wanner, Solving ODEs I, II.5, Table 5.2).

    Returns the 5th-order solution at t_new and the stages k2..k7, k7 =
    rhs(t_new, y_new) being the next step's first stage.  States are lists
    of floats and each stage sum is written out per component with the
    tableau's weights, so a step makes no array operation of its own.
    """
    k2 = rhs(t + hd * (1 / 5), [v + hd * ((1 / 5) * a) for v, a in zip(y, k1)])
    k3 = rhs(t + hd * (3 / 10), [v + hd * ((3 / 40) * a + (9 / 40) * b)
                                 for v, a, b in zip(y, k1, k2)])
    k4 = rhs(t + hd * (4 / 5), [v + hd * ((44 / 45) * a - (56 / 15) * b + (32 / 9) * c)
                                for v, a, b, c in zip(y, k1, k2, k3)])
    k5 = rhs(t + hd * (8 / 9), [v + hd * ((19372 / 6561) * a - (25360 / 2187) * b
                                          + (64448 / 6561) * c - (212 / 729) * d)
                                for v, a, b, c, d in zip(y, k1, k2, k3, k4)])
    k6 = rhs(t + hd, [v + hd * ((9017 / 3168) * a - (355 / 33) * b + (46732 / 5247) * c
                                + (49 / 176) * d - (5103 / 18656) * e)
                      for v, a, b, c, d, e in zip(y, k1, k2, k3, k4, k5)])
    y_new = [v + hd * ((35 / 384) * a + (500 / 1113) * c + (125 / 192) * d
                       - (2187 / 6784) * e + (11 / 84) * f)
             for v, a, c, d, e, f in zip(y, k1, k3, k4, k5, k6)]
    return y_new, k2, k3, k4, k5, k6, rhs(t_new, y_new)


def integrate_dense(rhs, t0: float, t1: float, y0, tol: float = TOL,
                    blowup_norm: float | None = None) -> DenseSolution:
    """Integrate y' = rhs(t, y) from t0 to t1 (either direction), with tol
    as both the relative and the absolute tolerance.

    rhs gets the state as a list of floats and may return any sequence of
    floats (a tuple, a list or a 1-D array).  It is called twice to start
    and six times per attempted step.  Returns a DenseSolution, which also
    counts the rejected steps and the RHS calls; status "blowup" means the
    trajectory passed `blowup_norm` and integration stopped early at
    sol.t_end.
    """
    y = np.asarray(y0, dtype=float).tolist()
    if t1 == t0:
        raise ValueError("empty time span")
    direction = 1 if t1 > t0 else -1
    n = len(y)
    sol = DenseSolution(direction, n)

    t = float(t0)
    f = rhs(t, y)
    h = min(_initial_step(rhs, t, y, f, direction, tol), abs(t1 - t0))

    # the state and the seven stages of every accepted step, as packed
    # doubles: lists of Python floats would cost four times the memory
    y_olds, stages = array("d"), array("d")
    n_steps = 0
    status = "done"
    while (t1 - t) * direction > 0:
        # a remaining span below the step resolution is taken in one step
        if h < 1e-14 * max(1.0, abs(t)) and h < abs(t1 - t):
            raise IntegrationError(f"step size underflow at t={float(t)!r}")
        if n_steps > _MAX_STEPS:
            raise IntegrationError("step budget exhausted")
        n_steps += 1
        hd = h * direction
        # land exactly on the boundary instead of leaving an ulp-sized remainder
        if (t + hd - t1) * direction >= 0.0:
            t_new = t1
            hd = t1 - t
        else:
            t_new = t + hd

        y_new, k2, k3, k4, k5, k6, k7 = _step(rhs, t, y, f, hd, t_new)
        # 5th- minus 4th-order solution over the mixed scale, as an RMS norm
        err = math.hypot(*[
            hd * ((71 / 57600) * a - (71 / 16695) * c + (71 / 1920) * d
                  - (17253 / 339200) * e + (22 / 525) * g - (1 / 40) * k)
            / (tol + tol * max(abs(v), abs(w)))
            for v, w, a, c, d, e, g, k in zip(y, y_new, f, k3, k4, k5, k6, k7)]) / math.sqrt(n)

        if err <= 1.0:
            sol.t_starts.append(t)
            sol.hs.append(hd)
            y_olds.extend(y)
            for k in (f, k2, k3, k4, k5, k6, k7):
                stages.extend(k)
            t, y, f = t_new, y_new, k7
            if blowup_norm is not None and math.hypot(*y) > blowup_norm:
                status = "blowup"
                break
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err ** -0.2)
            h *= factor
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)

    # dense output: one stacked product for every accepted step
    sol.y_olds = list(np.frombuffer(y_olds).reshape(-1, n))
    sol.Qs = list(np.frombuffer(stages).reshape(-1, 7, n).transpose(0, 2, 1) @ _P)
    sol.t_end, sol.y_end, sol.status = t, np.array(y, dtype=float), status
    sol.rhs_calls = 2 + 6 * n_steps
    sol.steps_rejected = n_steps - len(sol.t_starts)
    return sol


def rk_fixed_step(rhs, t0: float, t1: float, y0, n_steps: int) -> np.ndarray:
    """Fixed-step Dormand-Prince endpoint, for convergence-order measurements."""
    y = np.asarray(y0, dtype=float).tolist()
    h = (t1 - t0) / n_steps
    t = t0
    f = rhs(t, y)
    for _ in range(n_steps):
        y, *_, f = _step(rhs, t, y, f, h, t + h)
        t += h
    return np.array(y, dtype=float)
