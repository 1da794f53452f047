"""Trajectory integration and the solution-correspondence verifier."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._rk import BLOWUP_NORM, TOL, IntegrationError, integrate_dense
from .gauge import NonAutoEvaluator, transform_rhs
from .identify import NonAutoSystem
from .matcurve import MatrixCurve
from .polyfield import PolyField

__all__ = ["Trajectory", "integrate", "verify_correspondence", "IntegrationError"]

_COMPARE_POINTS = 200


@dataclass
class Trajectory:
    """Sampled solution: strictly increasing times, one state row per time."""
    times: np.ndarray
    states: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.shape[0] != self.times.shape[0]:
            raise ValueError("times and states must have matching lengths")
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("states must be finite")

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def to_dict(self) -> dict:
        return {"t": [float(v) for v in self.times],
                "x": [[float(v) for v in row] for row in self.states]}

    @classmethod
    def from_dict(cls, d: dict) -> "Trajectory":
        return cls(np.asarray(d["t"], dtype=float), np.asarray(d["x"], dtype=float))


def _as_rhs(rhs):
    if isinstance(rhs, PolyField):
        return rhs.rhs()
    if isinstance(rhs, NonAutoSystem):
        return rhs._rhs
    if isinstance(rhs, NonAutoEvaluator):
        return rhs.rhs
    if callable(rhs):
        return lambda t, x: rhs(t, np.array(x))
    raise TypeError(f"cannot integrate object of type {type(rhs).__name__}")


def integrate(rhs, x0, t_span=(0.0, 1.0), tol: float = TOL,
              samples: int = _COMPARE_POINTS) -> Trajectory:
    """Adaptive 5(4) trajectory of x' = rhs(t, x), sampled on `samples`
    equispaced dense-output points.

    rhs may be a PolyField (autonomous), a NonAutoSystem/NonAutoEvaluator,
    or a plain (t, x) callable.  Finite-time blow-up (norm above
    BLOWUP_NORM) truncates the trajectory and sets meta["blowup"].
    """
    fun = _as_rhs(rhs)
    t0, t1 = float(t_span[0]), float(t_span[1])
    sol = integrate_dense(fun, t0, t1, np.asarray(x0, dtype=float), tol=tol,
                          blowup_norm=BLOWUP_NORM)
    ts = np.linspace(t0, sol.t_end, samples)
    states = sol.sample(ts)
    if ts[0] > ts[-1]:  # backward span: report in increasing time
        ts, states = ts[::-1], states[::-1]
    meta = {"tol": tol, "blowup": sol.status == "blowup", "t_end": sol.t_end}
    return Trajectory(ts, states, meta)


def verify_correspondence(f: PolyField, A: MatrixCurve, x0, t_span=(0.0, 1.0)) -> float:
    """Max relative deviation between A(t) z(t) and the integrated gauge transform.

    Integrates z' = f(z) from x0 and w' = f*(t, w) from A(0) x0 (the
    transform's numeric right-hand side; no closed form is emitted), both at
    tolerance TOL, then returns max_t ||w(t) - A(t) z(t)|| / (1 + ||A(t) z(t)||)
    over _COMPARE_POINTS equispaced dense samples.  If either trajectory
    blows up, the comparison interval is truncated to the span both
    trajectories reached.
    """
    x0 = np.asarray(x0, dtype=float)
    t0, t1 = float(t_span[0]), float(t_span[1])
    fstar = transform_rhs(f, A)
    sol_z = integrate_dense(f.rhs(), t0, t1, x0, blowup_norm=BLOWUP_NORM)
    sol_w = integrate_dense(fstar, t0, t1, A.value(t0) @ x0, blowup_norm=BLOWUP_NORM)
    t_hi = min(sol_z.t_end, sol_w.t_end) if t1 > t0 else max(sol_z.t_end, sol_w.t_end)
    ts = np.linspace(t0, t_hi, _COMPARE_POINTS)
    worst = 0.0
    for t, z, w in zip(ts.tolist(), sol_z.sample(ts), sol_w.sample(ts)):
        ref = A.value(t) @ z
        dev = np.linalg.norm(w - ref) / (1.0 + np.linalg.norm(ref))
        worst = max(worst, float(dev))
    return worst
