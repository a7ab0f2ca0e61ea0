"""The benchmark tracer's layer table matches the library.

``perfbench/tracing.py`` wraps module attributes by name; a layer whose
attribute is renamed away reads null in every traced run.  These checks
keep the table and the library in step without running the benchmark.
"""

import importlib
import importlib.util
from fractions import Fraction as F
from pathlib import Path

import pytest

import nsrand.lp as L

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    for module_name, attr, span in _tracing().LAYERS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), span


@pytest.mark.parametrize("mode", ["float", "exact"])
def test_one_highs_call_per_solve(monkeypatch, mode):
    import scipy.optimize

    calls = []
    real = scipy.optimize.linprog

    def counting(*args, **kwargs):
        calls.append(kwargs.get("method"))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", counting)
    lp = L.LinProgram(2, "max", {0: F(1), 1: F(2)})
    lp.add({0: 1, 1: 1}, "<=", F(3, 2))
    lp.add({1: 1}, "<=", 1)
    sol = L.solve(lp, mode=mode)
    assert sol.value == pytest.approx(2.5)
    assert calls == ["highs-ds"]
