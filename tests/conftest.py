import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def sweep_workloads():
    """The benchmark's input generator, loaded from perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_sweep_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
