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

import numpy as np

__all__ = ["IntegrationError", "DenseSolution", "integrate_dense", "rk_fixed_step",
           "TOL", "BLOWUP_NORM"]

# relative and absolute tolerance of the mixed error norm (Hairer, Norsett &
# Wanner, Solving ODEs I, II.4), one value for both
TOL = 1e-10
# a trajectory whose state norm passes this has blown up
BLOWUP_NORM = 1e8

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0])

_A = [
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]

_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])

# 5th-order minus 4th-order weights (the FSAL stage carries -1/40)
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920,
               -17253 / 339200, 22 / 525, -1 / 40])

# dense-output interpolant coefficients (columns: x, x^2, x^3, x^4 weights)
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

    @property
    def t_start(self) -> float:
        return self.t_starts[0]

    def _segment(self, t: float) -> int:
        keys = np.asarray(self.t_starts) * self.direction
        idx = int(np.searchsorted(keys, t * self.direction, side="right")) - 1
        return min(max(idx, 0), len(self.t_starts) - 1)

    def _check(self, t: float):
        lo, hi = sorted((float(self.t_start), float(self.t_end)))
        if t < lo - 1e-12 or t > hi + 1e-12:
            raise IntegrationError(
                f"t={float(t)!r} outside the integrated span [{lo!r}, {hi!r}]")

    def __call__(self, t: float) -> np.ndarray:
        self._check(t)
        i = self._segment(t)
        x = (t - self.t_starts[i]) / self.hs[i]
        p = np.array([x, x * x, x ** 3, x ** 4])
        return self.y_olds[i] + self.hs[i] * (self.Qs[i] @ p)

    def derivative(self, t: float) -> np.ndarray:
        """Derivative of the interpolant (not an extra RHS evaluation)."""
        self._check(t)
        i = self._segment(t)
        x = (t - self.t_starts[i]) / self.hs[i]
        dp = np.array([1.0, 2 * x, 3 * x * x, 4 * x ** 3])
        return self.Qs[i] @ dp

    def sample(self, ts) -> np.ndarray:
        """The interpolant at every t of ts, one row per t: one segment
        search and one stacked product, equal to calling the solution at
        each t."""
        ts = np.asarray(ts, dtype=float)
        lo, hi = sorted((self.t_start, self.t_end))
        outside = (ts < lo - 1e-12) | (ts > hi + 1e-12)
        if outside.any():
            self._check(float(ts[np.argmax(outside)]))
        t_starts = np.asarray(self.t_starts)
        idx = np.searchsorted(t_starts * self.direction, ts * self.direction,
                              side="right") - 1
        idx = np.clip(idx, 0, len(self.t_starts) - 1)
        hs = np.asarray(self.hs)[idx]
        x = ((ts - t_starts[idx]) / hs).tolist()
        # scalar powers, as __call__ takes them: numpy's vectorized power can
        # round differently in the last bit
        p = np.array([(v, v * v, v ** 3, v ** 4) for v in x]).reshape(len(x), 4, 1)
        Q = np.asarray(self.Qs)[idx]
        return np.asarray(self.y_olds)[idx] + hs[:, None] * (Q @ p)[:, :, 0]


def _rms(v: np.ndarray) -> float:
    """Root mean square of a 1-D array; equal to np.sqrt(np.mean(v ** 2)) bit
    for bit, without its dispatch cost on the few entries of a state."""
    return math.sqrt(np.add.reduce(v * v) / v.size)


def _initial_step(rhs, t0, y0, f0, direction, tol):
    scale = tol + tol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    y1 = y0 + h0 * direction * f0
    f1 = rhs(t0 + h0 * direction, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1)


def integrate_dense(rhs, t0: float, t1: float, y0, tol: float = TOL,
                    blowup_norm: float | None = None) -> DenseSolution:
    """Integrate y' = rhs(t, y) from t0 to t1 (either direction), with tol
    as both the relative and the absolute tolerance.

    Returns a DenseSolution; status "blowup" means the trajectory passed
    `blowup_norm` and integration stopped early at sol.t_end.
    """
    y0 = np.asarray(y0, dtype=float)
    if t1 == t0:
        raise ValueError("empty time span")
    direction = 1 if t1 > t0 else -1
    sol = DenseSolution(direction, y0.shape[0])

    t, y = float(t0), y0.copy()
    f = np.asarray(rhs(t, y), dtype=float)
    h = min(_initial_step(rhs, t, y, f, direction, tol), abs(t1 - t0))

    K = np.empty((7, y0.shape[0]))
    n_steps = 0
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

        K[0] = f
        for s in range(5):
            y_stage = y + hd * (_A[s] @ K[: s + 1])
            K[s + 1] = rhs(t + _C[s + 1] * hd, y_stage)
        y_new = y + hd * (_B @ K[:6])
        K[6] = rhs(t_new, y_new)

        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err = _rms(hd * (_E @ K) / scale)

        if err <= 1.0:
            sol.t_starts.append(t)
            sol.hs.append(hd)
            sol.y_olds.append(y.copy())
            sol.Qs.append(K.T @ _P)
            t, y, f = t_new, y_new, K[6].copy()
            if blowup_norm is not None and np.linalg.norm(y) > blowup_norm:
                sol.t_end, sol.y_end, sol.status = t, y, "blowup"
                return sol
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err ** -0.2)
            h *= factor
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.2)

    sol.t_end, sol.y_end, sol.status = t, y, "done"
    return sol


def rk_fixed_step(rhs, t0: float, t1: float, y0, n_steps: int) -> np.ndarray:
    """Fixed-step Dormand-Prince endpoint, for convergence-order measurements."""
    y = np.asarray(y0, dtype=float).copy()
    h = (t1 - t0) / n_steps
    K = np.empty((6, y.shape[0]))
    t = t0
    for _ in range(n_steps):
        K[0] = rhs(t, y)
        for s in range(5):
            K[s + 1] = rhs(t + _C[s + 1] * h, y + h * (_A[s] @ K[: s + 1]))
        y = y + h * (_B @ K)
        t += h
    return y
