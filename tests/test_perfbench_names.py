"""The names the benchmark's tracer wraps must exist in gaugekit, and the
outputs it reads must carry the fields it reads.

perfbench/tracer.py replaces functions by name from outside the package and
reads fields of what they return; a rename, an inlining or a change of
representation would otherwise leave its per-layer figures silently empty.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _traced():
    return [(mod, attr) for mod, attr, *_ in _tracer().TRACED]


@pytest.mark.parametrize("mod, attr", _traced())
def test_traced_name_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(mod), attr))


def test_traced_system_loader_resolves():
    from gaugekit.identify import NonAutoSystem
    assert isinstance(NonAutoSystem.__dict__["from_dict"], classmethod)


def test_traced_outputs_carry_the_fields_the_tracer_reads():
    # a solve's accepted steps are len(t_starts), and a transform's closed
    # form is its .closed_form; wrapped one by one, not installed, so the
    # rest of the suite runs untraced
    from gaugekit import ExponentialCurve, PolyField, gauge_transform
    from gaugekit._rk import integrate_dense
    calls = []

    def rhs(t, y):
        calls.append(t)
        return [-v for v in y]

    sol = integrate_dense(rhs, 0.0, 3.0, [1.0, 2.0])
    accepted = len(sol.t_starts)
    assert accepted > 1
    assert len(calls) == 2 + 12 * (accepted + sol.steps_rejected) + 3 * accepted
    tracer = _tracer().Tracer()
    tracer.enabled = True
    tracer._wrap(integrate_dense, "rk.solve", False)(rhs, 0.0, 3.0, [1.0, 2.0])
    assert tracer.pass_metrics(0, tracer.mark())["rk.steps_accepted"] == accepted

    f = PolyField(2, {(0, (2, 0)): 1.0, (1, (0, 1)): -0.5})
    ev = tracer._wrap(gauge_transform, "gauge.transform", False)(
        f, ExponentialCurve(np.array([[0.0, -1.0], [1.0, 0.0]])))
    assert ev.closed_form is not None
    assert tracer.take_outputs()[0] == [ev.closed_form]
