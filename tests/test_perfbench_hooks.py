"""The names and ranges the benchmark in perfbench/ relies on.

The benchmark wraps library functions by name (tracer.TARGETS) and checks
each verify report against the ranges it states itself
(workloads.CHECK_RANGES).  A renamed function or a changed range would
otherwise show up only when the benchmark runs.  Both modules are
stdlib-only and are imported here by path; child.py is not, because
importing it starts a sampler.
"""
import importlib.util
import sys
from pathlib import Path

import pytest

import fubinipoly  # noqa: F401  (imports every module the targets name)
from fubinipoly import verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
workloads = _load("workloads")


@pytest.mark.parametrize("module,path", [(module, path) for _, module, path, _ in tracer.TARGETS],
                         ids=[span_name for span_name, *_ in tracer.TARGETS])
def test_every_tracer_target_resolves(module, path):
    owner = sys.modules[f"fubinipoly.{module}"]
    if "." in path:
        cls_name, attr = path.split(".")
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, path))


@pytest.mark.parametrize("max_n", [1, 2, 12, 128, 600])
def test_check_ranges_match_the_registry(max_n):
    assert workloads.CHECK_IDS == verify.CHECK_IDS
    for check_id, bounds in workloads.CHECK_RANGES:
        indices = verify.CHECKS[check_id].indices(max_n)
        assert (indices.start, indices.stop - 1) == bounds(max_n), check_id
