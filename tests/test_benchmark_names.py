"""The names the benchmark in perfbench/ looks up in the program still resolve.

`perfbench/tracer.py` wraps the functions in its TARGETS where their callers
look them up, and `perfbench/workloads.py` calls two more; a refactor that
drops one of them breaks `perfbench/run.py --trace 1`.  This test only
reads `perfbench/` and installs no wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(module, attr) for module, attr, _, _ in tracer.TARGETS]


WORKLOAD_CALLS = [("linquant.network", "gen_table_cached"), ("linquant.oracle", "class_event")]


@pytest.mark.parametrize("module, attr", _tracer_targets() + WORKLOAD_CALLS)
def test_benchmark_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
