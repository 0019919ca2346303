import importlib
import os
import sys

import pytest
from hypothesis import settings

import nishigraph.sparse as sparse

sys.path.insert(0, os.path.dirname(__file__))

# Property tests draw the same examples on every run and have no deadline, so
# a slow moment on a shared host cannot fail them.
settings.register_profile("nishigraph", derandomize=True, deadline=None)
settings.load_profile("nishigraph")

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                         "perfbench")


@pytest.fixture(scope="module")
def perfbench():
    """The benchmark's (workloads, tracer, worker) modules, imported from
    perfbench/."""
    sys.path.insert(0, PERFBENCH)
    try:
        yield (importlib.import_module("workloads"),
               importlib.import_module("tracer"),
               importlib.import_module("worker"))
    finally:
        sys.path.remove(PERFBENCH)


@pytest.fixture
def eigsh_calls(monkeypatch):
    """Sizes of the Lanczos (ARPACK) solves made while the test runs; the
    shift each passed is recorded too, and none may have passed one."""
    calls, sigmas = [], []
    eigsh = sparse.spla.eigsh

    def counted(*args, **kwargs):
        calls.append(args[0].shape[0])
        sigmas.append(kwargs.get("sigma"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(sparse.spla, "eigsh", counted)
    yield calls
    assert sigmas == [None] * len(calls)
