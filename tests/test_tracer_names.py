"""Every function the benchmark tracer wraps must still exist in spinhl.

``bench/tracer.py`` lists its spans and counters by module and attribute
path, and ``Tracer.install`` raises ``KeyError`` on a name that is gone, so a
rename in spinhl would break ``bench/run.py --trace 1``.  The tracer also
keeps its own copy of the check names for the per-check spans, which must
equal spinhl's.  These tests only read the tracer; they install nothing.
"""

import importlib.util
import os

import pytest

from spinhl.identities import CHECK_NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACER = os.path.join(ROOT, "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
# each entry is (name, module, attribute path, hook)
TRACED = sorted({entry[1:3] for entry in tracer.SPANS + tracer.COUNTERS})


@pytest.mark.parametrize("module_name, path", TRACED)
def test_traced_name_resolves(module_name, path):
    owner, attr = tracer._resolve(module_name, path)
    # install reads the original from the owner's own namespace
    assert attr in vars(owner), "%s.%s" % (module_name, path)


def test_tracer_check_names_are_spinhl_check_names():
    # a renamed or added check would otherwise drop out of the per-check spans
    assert tracer.CHECK_NAMES == CHECK_NAMES
