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

import nsrand.games as G
import nsrand.lp as L
import nsrand.tons as T

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


def test_solve_counts_are_the_programs_own():
    """The tracer's ``lp.rows`` and ``lp.nnz`` of a solve are the row and
    nonzero counts of the LP it solves, upper bounds counted as rows: on
    a two-round TONS slice and on an LP with an upper bound."""
    tracing = _tracing()
    chsh = G.make_chsh_game()
    scenario = T.CausalScenario.for_game(T.TONS, 2, chsh)
    marginal = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(1, 2))), 2)
    sliced = T.build_guessing_lp(
        chsh, marginal, (0, 0), scenario,
        relabellings=T.marginal_symmetries(marginal, scenario, (0, 0)))
    bounded = L.LinProgram(2, "max", {0: F(1), 1: F(2)}, upper={1: F(1, 2)})
    bounded.add({0: 1, 1: 1}, "<=", F(3, 2))
    for lp in (sliced.program, bounded):
        tracer = tracing.Tracer()
        sol = L.solve(lp, mode="float")
        tracing._on_solve(tracer, 0, (lp,), {"mode": "float"}, sol)
        norm = lp.normalized()
        assert len(norm.rhs) == len(lp.rhs) + len(lp.upper)
        assert tracer.counts["lp.rows"] == len(norm.rhs)
        assert tracer.counts["lp.nnz"] == len(norm.indices)
        assert tracer.counts["lp.vars"] == lp.num_vars
