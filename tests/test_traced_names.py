"""Every name the benchmark's tracer wraps exists in `weightfilt`.

`perfbench/tracing.py` looks up each ``(module, attribute)`` entry of its
``TRACED`` list with ``getattr`` when a traced run starts, so a renamed or
deleted name would crash ``perfbench/run.py --trace 1``.  This test fails
on it first.
"""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_entries():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(home, attr) for home, attr, _, _ in module.TRACED]


@pytest.mark.parametrize("home, attr", _traced_entries(), ids=lambda x: x)
def test_traced_name_resolves(home, attr):
    obj = importlib.import_module(f"weightfilt.{home}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
