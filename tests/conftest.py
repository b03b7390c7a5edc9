import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's workload module, loaded by path, so that tests run
    its configs as they are rather than copies of them."""
    return _load("workloads")


@pytest.fixture(scope="session")
def bench_check():
    """The benchmark's output check (`perfbench/check.py`), loaded by
    path."""
    return _load("check")
