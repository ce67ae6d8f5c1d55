"""Every name the benchmark's tracer wraps exists in `weightfilt`.

`perfbench/tracing.py` looks up each ``(module, attribute)`` entry of its
``TRACED`` list with ``getattr`` when a traced run starts, so a renamed or
deleted name would crash ``perfbench/run.py --trace 1``.  This test fails
on it first.  The same holds for the two cached functions the benchmark
reads directly: `perfbench/worker.py` imports them and reads their
``cache_info()`` after every run, and the tracer rebinds the Zassenhaus
step by its name in `weightfilt.exact`, so a moved cache would fail every
run instead of this test.
"""

import importlib.util
import re
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"

# (module, attribute) of each lru_cache'd function the benchmark reads
CACHED = [("exact", "_sum_and_intersection"), ("filtration", "_subobject_compatibility_cached")]


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


@pytest.mark.parametrize("home, attr", CACHED, ids=lambda x: x)
def test_cached_name_keeps_its_cache(home, attr):
    worker = (PERFBENCH / "worker.py").read_text()
    assert f"from weightfilt.{home} import" in worker and attr in worker
    fn = getattr(importlib.import_module(f"weightfilt.{home}"), attr)
    info = fn.cache_info()
    assert isinstance(info.hits, int) and isinstance(info.misses, int)
    assert callable(fn.__wrapped__)


def test_tracer_rebinds_the_zassenhaus_step_by_name():
    # the name it rebinds must be the cached function checked above
    assert re.search(r"\bexact\._sum_and_intersection = ", TRACING.read_text())
