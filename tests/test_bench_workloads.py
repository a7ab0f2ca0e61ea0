"""One full-size pass of each benchmark workload checks its answers.

``perfbench/workloads.py`` generates the benchmark's seeded instances and
checks each answer against its closed form.  A change that breaks one of
them would make the benchmark report its outputs incorrect; running one
pass here, in process, shows that before the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while it loads.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["exact-small", "tons-n3"])
def test_one_pass_of_each_workload_checks(workload, monkeypatch):
    bench = _workloads(monkeypatch)
    assert workload in bench.WORKLOADS
    ctx = bench.load(workload)
    [instances] = bench.generate(workload, seed=2024, passes=1)
    failures = {inst.label(): bench.run_instance(ctx, inst)
                for inst in instances}
    assert instances
    assert {label: why for label, why in failures.items() if why} == {}
