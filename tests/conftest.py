import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="session")
def workloads():
    """The benchmark's workload module, loaded by path, so that tests run
    its configs as they are rather than copies of them."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
