"""The names the benchmark's tracer wraps must exist in gaugekit.

perfbench/tracer.py replaces functions by name from outside the package; a
rename or an inlining would otherwise leave its per-layer figures silently
empty.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, attr) for mod, attr, *_ in tracer.TRACED]


@pytest.mark.parametrize("mod, attr", _traced())
def test_traced_name_resolves(mod, attr):
    assert callable(getattr(importlib.import_module(mod), attr))


def test_traced_system_loader_resolves():
    from gaugekit.identify import NonAutoSystem
    assert isinstance(NonAutoSystem.__dict__["from_dict"], classmethod)
