"""Adaptive DOP853 integrator with 7th-order dense output.

Shared numerical core for trajectory integration and matrix-curve flows.
The propagated solution is 8th order; step control uses the combined
5th/3rd-order error estimate, and dense output the 7th-order continuous
extension, which takes three more stages per accepted step (Hairer, Norsett
& Wanner, Solving ODEs I, II.5-II.6 and II.10).  The tableau is held once,
as data, and the stage code of a step is generated from it through
`timexpr._define`.

Every integration in gaugekit runs at TOL unless its caller states another
tolerance: flows, trajectories and the solution-correspondence check.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .timexpr import _define

__all__ = ["IntegrationError", "DenseSolution", "integrate_dense", "rk_fixed_step",
           "TOL", "BLOWUP_NORM"]

# relative and absolute tolerance of the mixed error norm (Hairer, Norsett &
# Wanner, Solving ODEs I, II.4), one value for both
TOL = 1e-10
# a trajectory whose state norm passes this has blown up
BLOWUP_NORM = 1e8

# The DOP853 tableau (HNW II.5-II.6 and Hairer's DOP853 code), each
# coefficient written once.  Stage i, for i = 2..12 and the dense output's
# 14..16, is k_i = rhs(t + c_i h, y + h sum_j a_ij k_j), and its row of _A
# lists the (j, a_ij) in the order the sum adds them.  Stage 13 is
# rhs(t_new, y_new), the next step's first.  The solution y + h sum_i b_i k_i
# and the 5th- and 3rd-order error estimates sum_i e_i k_i weigh the stages
# by _B, _E5 and _E3, one entry per stage.
_A = {
    2: ((1, 0.05260015195876773),),
    3: ((1, 0.0197250569845379), (2, 0.0591751709536137)),
    4: ((1, 0.02958758547680685), (3, 0.08876275643042054)),
    5: ((1, 0.2413651341592667), (3, -0.8845494793282861), (4, 0.924834003261792)),
    6: ((1, 0.037037037037037035), (4, 0.17082860872947386), (5, 0.12546768756682242)),
    7: ((1, 0.037109375), (4, 0.17025221101954405), (5, 0.06021653898045596),
        (6, -0.017578125)),
    8: ((1, 0.03709200011850479), (4, 0.17038392571223998), (5, 0.10726203044637328),
        (6, -0.015319437748624402), (7, 0.008273789163814023)),
    9: ((1, 0.6241109587160757), (4, -3.3608926294469414), (5, -0.868219346841726),
        (6, 27.59209969944671), (7, 20.154067550477894), (8, -43.48988418106996)),
    10: ((1, 0.47766253643826434), (4, -2.4881146199716677), (5, -0.590290826836843),
         (6, 21.230051448181193), (7, 15.279233632882423), (8, -33.28821096898486),
         (9, -0.020331201708508627)),
    11: ((1, -0.9371424300859873), (4, 5.186372428844064), (5, 1.0914373489967295),
         (6, -8.149787010746927), (7, -18.52006565999696), (8, 22.739487099350505),
         (9, 2.4936055526796523), (10, -3.0467644718982196)),
    12: ((1, 2.273310147516538), (4, -10.53449546673725), (5, -2.0008720582248625),
         (6, -17.9589318631188), (7, 27.94888452941996), (8, -2.8589982771350235),
         (9, -8.87285693353063), (10, 12.360567175794303), (11, 0.6433927460157636)),
    14: ((1, 0.056167502283047954), (7, 0.25350021021662483), (8, -0.2462390374708025),
         (9, -0.12419142326381637), (10, 0.15329179827876568), (11, 0.00820105229563469),
         (12, 0.007567897660545699), (13, -0.008298)),
    15: ((1, 0.03183464816350214), (6, 0.028300909672366776), (7, 0.053541988307438566),
         (8, -0.05492374857139099), (11, -0.00010834732869724932),
         (12, 0.0003825710908356584), (13, -0.00034046500868740456),
         (14, 0.1413124436746325)),
    16: ((1, -0.42889630158379194), (6, -4.697621415361164), (7, 7.683421196062599),
         (8, 4.06898981839711), (9, 0.3567271874552811), (13, -0.0013990241651590145),
         (14, 2.9475147891527724), (15, -9.15095847217987)),
}
# c_2 = a_21, stage 2's one weight
_C = {2: _A[2][0][1], 3: 0.0789002279381516, 4: 0.1183503419072274,
      5: 0.2816496580927726, 6: 0.3333333333333333, 7: 0.25, 8: 0.3076923076923077,
      9: 0.6512820512820513, 10: 0.6, 11: 0.8571428571428571, 12: 1.0, 14: 0.1, 15: 0.2,
      16: 0.7777777777777778}
_B = np.array([0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
               1.8915178993145003, -5.801203960010585, 0.3111643669578199,
               -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
               0.0, 0.0, 0.0, 0.0])
_E5 = np.array([0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
                -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
                0.3341791187130175, 0.08192320648511571, -0.022355307863886294,
                0.0, 0.0, 0.0, 0.0])
# the 3rd-order estimate is b less Hairer's weights bhh on stages 1, 9 and 12
_E3 = _B.copy()
_E3[[0, 8, 11]] -= (0.2440944881889764, 0.7338466882816118, 0.022058823529411766)

# Dense output over a step of size h from y (HNW II.6, Hairer's CONTD8): at
# t + x h it is y + h x (G1 + (1-x)(G2 + x (G3 + (1-x)(G4 + x (G5 + (1-x)(G6
# + x G7)))))), with G1 = sum b_i k_i, G2 = k1 - G1, G3 = 2 G1 - k1 - k13 and
# G4..G7 the rows of _D applied to the 16 stages.  _P is the same polynomial
# in the power basis: one row per stage, columns x, x^2, ..., x^7.
_D = np.array([
    [-8.428938276109013, 0.0, 0.0, 0.0, 0.0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973, 2.2404374302607883,
     0.6315787787694688, -0.08899033645133331, 18.148505520854727, -9.194632392478356,
     -4.436036387594894],
    [10.427508642579134, 0.0, 0.0, 0.0, 0.0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264, -30.674084731089398,
     -9.332130526430229, 15.697238121770845, -31.139403219565178, -9.35292435884448,
     35.81684148639408],
    [19.985053242002433, 0.0, 0.0, 0.0, 0.0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963, -1.0006050966910838,
     0.7777137798053443, -2.778205752353508, -60.19669523126412, 84.32040550667716,
     11.99229113618279],
    [-25.69393346270375, 0.0, 0.0, 0.0, 0.0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163, 104.0996495089623,
     29.8402934266605, -43.53345659001114, 96.32455395918828, -39.17726167561544,
     -149.72683625798564],
])
_K1, _K13 = np.eye(16)[0], np.eye(16)[12]
# x, x(1-x), x^2(1-x), x^2(1-x)^2, x^3(1-x)^2, x^3(1-x)^3, x^4(1-x)^3 in powers
_NESTED = np.array([
    [1, 0, 0, 0, 0, 0, 0],
    [1, -1, 0, 0, 0, 0, 0],
    [0, 1, -1, 0, 0, 0, 0],
    [0, 1, -2, 1, 0, 0, 0],
    [0, 0, 1, -2, 1, 0, 0],
    [0, 0, 1, -3, 3, -1, 0],
    [0, 0, 0, 1, -3, 3, -1],
], dtype=float)
_P = np.vstack([_B, _K1 - _B, 2 * _B - _K1 - _K13, _D]).T @ _NESTED

# The step error is held to a tenth of the tolerance.  Step control sees
# only the step ends, and between them the interpolant errs by more: for the
# 2 x 2 flow A' = C(t)A - AB, C = [[sin t, t], [0, cos t]], over [0, 1] at
# tol 1e-10, the plain scale leaves step ends 1.2e-10 and dense values
# 3.1e-9 off a tol-1e-13 solve; this one leaves 2.3e-11 and 6.1e-10.
_ERR_SCALE = 0.1

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_MAX_STEPS = 200_000


class IntegrationError(RuntimeError):
    """Step-size underflow or step budget exhausted."""


def check_in_span(ts: np.ndarray, lo: float, hi: float) -> None:
    """Raise IntegrationError for the first t of ts more than 1e-12 outside
    [lo, hi], naming it and the span as plain floats."""
    outside = (ts < lo - 1e-12) | (ts > hi + 1e-12)
    if outside.any():
        raise IntegrationError(f"t={float(ts[np.argmax(outside)])!r} "
                               f"outside the integrated span [{float(lo)!r}, {float(hi)!r}]")


@dataclass
class DenseSolution:
    """Piecewise degree-7 continuous solution over the integrated span.

    Accepted step k starts at t_starts[k] from Y[k] and is hs[k] long
    (negative backward); on it the solution is Y[k] + hs[k] Q[k] (x, x^2,
    ..., x^7) at t_starts[k] + x hs[k], 0 <= x <= 1.  The arrays have m rows,
    one per accepted step: t_starts and hs (m,), Y (m, n), Q (m, n, 7).
    """

    direction: int
    t_starts: np.ndarray
    hs: np.ndarray
    Y: np.ndarray
    Q: np.ndarray
    t_end: float
    y_end: np.ndarray
    status: str  # "done" | "blowup"
    steps_rejected: int
    rhs_calls: int

    def _locate(self, ts) -> tuple:
        """Segment index, step and local coordinate of every t of ts: an
        array, an array and a list of Python floats, so that powers of a
        coordinate round as scalar powers do.  Raises IntegrationError for
        the first t outside the integrated span."""
        ts = np.asarray(ts, dtype=float)
        check_in_span(ts, *sorted((self.t_starts[0], self.t_end)))
        # a t up to 1e-12 before the start belongs to the first segment
        idx = np.maximum(np.searchsorted(self.t_starts * self.direction, ts * self.direction,
                                         side="right") - 1, 0)
        hs = self.hs[idx]
        return idx, hs, ((ts - self.t_starts[idx]) / hs).tolist()

    def __call__(self, t: float) -> np.ndarray:
        return self.sample([t])[0]

    def derivative(self, t: float) -> np.ndarray:
        """Derivative of the interpolant (not an extra RHS evaluation)."""
        idx, _, (x,) = self._locate([t])
        return self.Q[idx[0]] @ np.array([1.0, 2 * x, 3 * x * x, 4 * x ** 3, 5 * x ** 4,
                                          6 * x ** 5, 7 * x ** 6])

    def sample(self, ts) -> np.ndarray:
        """The interpolant at every t of ts, one row per t: one segment
        search and one stacked product over the segments in use."""
        idx, hs, x = self._locate(ts)
        p = np.array([(v, v * v, v ** 3, v ** 4, v ** 5, v ** 6, v ** 7)
                      for v in x]).reshape(len(x), 7, 1)
        return self.Y[idx] + hs[:, None] * (self.Q[idx] @ p)[:, :, 0]


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
        # exponent 1/(order + 1), with order 7 that of the error estimate, as
        # in Hairer's DOP853 code and in the step factors below
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1)


def _sum(weights) -> str:
    """Source of sum_j w_j a_j over the (j, w_j) of `weights`, in their
    order, with a negative weight after the first as a subtraction."""
    (j, w), *rest = weights
    return " ".join([f"{w!r} * a{j}"]
                    + [f"{'-' if w < 0 else '+'} {abs(w)!r} * a{j}" for j, w in rest])


def _zip(js) -> str:
    """Source of `v, a1, a4 in zip(y, k1, k4)` over the stages js."""
    return f"v, {', '.join(f'a{j}' for j in js)} in zip(y, {', '.join(f'k{j}' for j in js)})"


def _stage(i: int) -> str:
    """Source of the line that computes stage i."""
    return (f"    k{i} = rhs(t + hd * {_C[i]!r}, [v + hd * ({_sum(_A[i])})"
            f" for {_zip([j for j, _ in _A[i]])}])")


def _weights(e: np.ndarray) -> list:
    """The (stage, weight) pairs of the nonzero entries of e, in stage order."""
    return [(j + 1, w) for j, w in enumerate(e.tolist()) if w]


# _step(rhs, t, y, k1, hd, t_new) is one DOP853 step of size hd from (t, y),
# k1 = rhs(t, y).  It returns the 8th-order solution at t_new, the stages
# k1..k13, k13 = rhs(t_new, y_new) being the next step's first stage, and the
# 5th- and 3rd-order error estimates per component, not yet times hd.
# _dense_stages(rhs, t, y, hd, ks) returns the three extra stages k14..k16 of
# the dense output on an accepted step, from its stages ks = k1..k13.  Both
# are generated from the tableau above: states are lists of floats and each
# stage sum is written out per component with the tableau's weights, so a
# step makes no array operation of its own.
_step = _define("\n".join([
    "def _step(rhs, t, y, k1, hd, t_new):",
    *map(_stage, range(2, 13)),
    "    y_new, e5, e3 = [], [], []",
    f"    for {_zip(sorted({j for e in (_B, _E5, _E3) for j, _ in _weights(e)}))}:",
    f"        y_new.append(v + hd * ({_sum(_weights(_B))}))",
    f"        e5.append({_sum(_weights(_E5))})",
    f"        e3.append({_sum(_weights(_E3))})",
    "    ks = (k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, rhs(t_new, y_new))",
    "    return y_new, ks, e5, e3\n"]), "_step", {})
_dense_stages = _define("\n".join([
    "def _dense_stages(rhs, t, y, hd, ks):",
    "    k1, k2, k3, k4, k5, k6, k7, k8, k9, k10, k11, k12, k13 = ks",
    *map(_stage, (14, 15, 16)),
    "    return k14, k15, k16\n"]), "_dense_stages", {})


def integrate_dense(rhs, t0: float, t1: float, y0, tol: float = TOL,
                    blowup_norm: float | None = None) -> DenseSolution:
    """Integrate y' = rhs(t, y) from t0 to t1 (either direction), with tol
    as both the relative and the absolute tolerance.

    rhs gets the state as a list of floats and may return any sequence of
    floats (a tuple, a list or a 1-D array).  It is called twice to start,
    twelve times per attempted step and three more times per accepted step,
    for the dense output.  Returns a DenseSolution, which also counts the
    rejected steps and the RHS calls.  With `blowup_norm` set, status
    "blowup" means the trajectory passed that norm, or its step size
    underflowed, and integration stopped early at sol.t_end, the last
    accepted step; without it both are an IntegrationError.
    """
    y = np.asarray(y0, dtype=float).tolist()
    if t1 == t0:
        raise ValueError("empty time span")
    direction = 1 if t1 > t0 else -1
    n = len(y)

    t = float(t0)
    f = rhs(t, y)
    h = min(_initial_step(rhs, t, y, f, direction, tol), abs(t1 - t0))

    # the start, step, state and sixteen stages of every accepted step, as
    # packed doubles: lists of Python floats would cost four times the memory
    t_starts, hs, y_olds, stages = array("d"), array("d"), array("d"), array("d")
    n_steps = 0
    status = "done"
    while (t1 - t) * direction > 0:
        # a remaining span below the step resolution is taken in one step
        if h < 1e-14 * max(1.0, abs(t)) and h < abs(t1 - t):
            # a trajectory that escapes faster than steps resolve has blown up
            if blowup_norm is not None and t_starts:
                status = "blowup"
                break
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

        y_new, ks, e5, e3 = _step(rhs, t, y, f, hd, t_new)
        # the combined 5th/3rd-order estimate over the mixed scale, as an
        # RMS norm (HNW II.10)
        scale = [_ERR_SCALE * (tol + tol * max(abs(v), abs(w))) for v, w in zip(y, y_new)]
        err5 = math.hypot(*[e / s for e, s in zip(e5, scale)])
        err3 = math.hypot(*[e / s for e, s in zip(e3, scale)])
        den = err5 * err5 + 0.01 * err3 * err3
        err = abs(hd) * err5 * err5 / math.sqrt(n * den) if den > 0.0 else 0.0

        if err <= 1.0:
            t_starts.append(t)
            hs.append(hd)
            y_olds.extend(y)
            for k in ks + _dense_stages(rhs, t, y, hd, ks):
                stages.extend(k)
            t, y, f = t_new, y_new, ks[-1]
            if blowup_norm is not None and math.hypot(*y) > blowup_norm:
                status = "blowup"
                break
            factor = _MAX_FACTOR if err == 0.0 else min(
                _MAX_FACTOR, _SAFETY * err ** -0.125)
            h *= factor
        else:
            h *= max(_MIN_FACTOR, _SAFETY * err ** -0.125)

    # dense output: one stacked product for every accepted step
    accepted = len(t_starts)
    Q = np.frombuffer(stages).reshape(-1, 16, n).transpose(0, 2, 1) @ _P
    return DenseSolution(direction, np.frombuffer(t_starts), np.frombuffer(hs),
                         np.frombuffer(y_olds).reshape(-1, n), Q, float(t),
                         np.array(y, dtype=float), status, n_steps - accepted,
                         2 + 12 * n_steps + 3 * accepted)


def rk_fixed_step(rhs, t0: float, t1: float, y0, n_steps: int) -> np.ndarray:
    """Fixed-step DOP853 endpoint, for convergence-order measurements."""
    y = np.asarray(y0, dtype=float).tolist()
    h = (t1 - t0) / n_steps
    t = t0
    f = rhs(t, y)
    for _ in range(n_steps):
        y, ks, _, _ = _step(rhs, t, y, f, h, t + h)
        f = ks[-1]
        t += h
    return np.array(y, dtype=float)
