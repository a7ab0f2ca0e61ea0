"""Unit tests for the exact LP engine."""

import random
from fractions import Fraction as F

import pytest

import nsrand.lp as L


def _solve(lp, mode="exact"):
    return L.solve(lp, mode=mode)


def test_single_variable_box():
    """max x s.t. x <= 3 has value 3 with a verified certificate."""
    lp = L.LinProgram(1, "max", {0: F(1)})
    lp.add({0: 1}, "<=", 3)
    sol = _solve(lp)
    assert sol.status == "optimal"
    assert sol.value == 3
    assert sol.certified
    assert L.verify_certificate(lp, sol)


def test_degenerate_optimum_terminates():
    """Bland's rule terminates on the degenerate max x+y s.t. x+y <= 1."""
    lp = L.LinProgram(2, "max", {0: F(1), 1: F(1)})
    lp.add({0: 1, 1: 1}, "<=", 1)
    sol = _solve(lp)
    assert sol.value == 1
    assert sol.certified


def test_infeasible_status():
    lp = L.LinProgram(1, "max", {0: F(1)})
    lp.add({0: 1}, ">=", 2)
    lp.add({0: 1}, "<=", 1)
    assert _solve(lp).status == "infeasible"


def test_unbounded_status():
    lp = L.LinProgram(1, "max", {0: F(1)})
    lp.add({0: 1}, ">=", 1)
    assert _solve(lp).status == "unbounded"


def test_min_sense_and_free_variable():
    """min y over y == -2 with y free reaches the negative value."""
    lp = L.LinProgram(1, "min", {0: F(1)}, lower={0: None})
    lp.add({0: 1}, "==", -2)
    sol = _solve(lp)
    assert sol.value == -2
    assert sol.certified


def test_zero_variable_lp():
    """An LP without variables is optimal at 0 or infeasible."""
    sol = _solve(L.LinProgram(0, "max"))
    assert sol.value == 0
    assert sol.certified
    lp = L.LinProgram(0, "max")
    lp.add({}, "<=", -1)
    assert _solve(lp).status == "infeasible"


def test_upper_bound_normalization():
    lp = L.LinProgram(1, "max", {0: F(1)}, upper={0: F(5, 2)})
    sol = _solve(lp)
    assert sol.value == F(5, 2)
    assert len(sol.dual) == 1  # the desugared bound row


def test_certificate_rejects_perturbed_primal():
    """A 1e-6 perturbation of one primal entry breaks exact feasibility."""
    lp = L.LinProgram(2, "max", {0: F(2), 1: F(1)})
    lp.add({0: 1, 1: 1}, "==", 1)
    sol = _solve(lp)
    assert L.verify_certificate(lp, sol)
    sol.primal[0] += F(1, 10 ** 6)
    report = L.verify_certificate(lp, sol)
    assert not report
    assert report.reasons


def test_certificate_rejects_zeroed_dual():
    lp = L.LinProgram(1, "max", {0: F(1)})
    lp.add({0: 1}, "<=", 3)
    sol = _solve(lp)
    sol.dual = [F(0)]
    report = L.verify_certificate(lp, sol)
    assert not report
    assert any("gap" in r or "reduced" in r for r in report.reasons)


def test_deterministic_bit_for_bit():
    """Identical programs produce identical solutions."""
    def build():
        lp = L.LinProgram(3, "max", {0: F(1), 1: F(2), 2: F(3)})
        lp.add({0: 1, 1: 1}, "<=", F(3, 2))
        lp.add({1: 1, 2: 1}, "==", 1)
        lp.add({0: 1, 2: 1}, ">=", F(1, 3))
        return lp
    a = _solve(build())
    b = _solve(build())
    assert a.value == b.value
    assert a.primal == b.primal
    assert a.dual == b.dual


def test_float_mode_duality_gap_within_tolerance():
    lp = L.LinProgram(2, "max", {0: F(3), 1: F(2)})
    lp.add({0: 1, 1: 1}, "<=", 4)
    lp.add({0: 1, 1: 3}, "<=", 6)
    sol = _solve(lp, mode="float")
    assert sol.status == "optimal"
    primal = sum(float(c) * sol.primal[j] for j, c in lp.objective.items())
    dual = sum(sol.dual[k] * float(con.rhs)
               for k, con in enumerate(lp.constraints))
    assert abs(primal - dual) <= 1e-9
    assert L.verify_certificate(lp, sol)


def _three_var_lp():
    lp = L.LinProgram(3, "max", {0: F(1), 1: F(2), 2: F(1)})
    lp.add({0: 1, 1: 1}, "<=", F(3, 2))
    lp.add({1: 1, 2: 1}, "==", 1)
    lp.add({0: 1, 2: 1}, ">=", F(1, 3))
    return lp


def test_lift_path_matches_direct_simplex():
    """The float-assisted exact path returns the same certified optimum."""
    lp = _three_var_lp()
    direct = L._exact_simplex(lp.normalized())
    assert L.verify_certificate(lp, direct)
    lifted = _solve(_three_var_lp())
    assert lifted.certified
    assert lifted.value == direct.value == F(5, 2)


def test_float_optimum_is_checked_at_float_tolerance(perturbed_float_solver):
    """A float optimum off by 1e-6 fails at 1e-9 and passes at 1e-3."""
    with pytest.raises(L.CertificationError, match="tolerance 1e-09"):
        L.solve(_three_var_lp(), mode="float", float_tolerance=1e-9)
    sol = L.solve(_three_var_lp(), mode="float", float_tolerance=1e-3)
    assert sol.value == pytest.approx(2.5)


def _spy_on_dense_simplex(monkeypatch):
    calls = []
    dense = L._exact_simplex

    def spy(norm):
        sol = dense(norm)
        calls.append(sol.status)
        return sol
    monkeypatch.setattr(L, "_exact_simplex", spy)
    return calls


def test_dense_simplex_is_the_last_resort_when_the_lift_fails(monkeypatch):
    """With the lift failing, solve returns the dense simplex's optimum."""
    calls = _spy_on_dense_simplex(monkeypatch)
    monkeypatch.setattr(L, "_lift_exact", lambda norm, primal, dual: None)
    sol = _solve(_three_var_lp())
    assert calls == ["optimal"]
    assert sol.status == "optimal"
    assert sol.certified
    assert sol.value == F(5, 2)
    assert L.verify_certificate(_three_var_lp(), sol)


def test_highs_failure_falls_back_only_within_the_size_cap(monkeypatch):
    """A failed HiGHS solve (status 4) falls back to the dense simplex on
    a small instance; above ``_FALLBACK_CELL_LIMIT`` exact mode raises
    CertificationError without entering it, and float mode raises."""
    import scipy.optimize
    from scipy.optimize import OptimizeResult

    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs:
                        OptimizeResult(status=4, message="numerical trouble"))
    calls = _spy_on_dense_simplex(monkeypatch)
    sol = _solve(_three_var_lp())
    assert calls == ["optimal"]
    assert sol.certified and sol.value == F(5, 2)

    monkeypatch.setattr(L, "_FALLBACK_CELL_LIMIT", 0)
    with pytest.raises(L.CertificationError, match="numerical trouble"):
        _solve(_three_var_lp())
    assert calls == ["optimal"]
    with pytest.raises(L.LpError, match="float solver failed"):
        _solve(_three_var_lp(), mode="float")


def test_small_infeasible_and_unbounded_verdicts_from_dense_simplex(
        monkeypatch):
    """HiGHS's infeasible/unbounded verdict is re-proved exactly when small,
    and taken as is above the re-check size limit."""
    infeasible = L.LinProgram(1, "max", {0: F(1)})
    infeasible.add({0: 1}, ">=", 2)
    infeasible.add({0: 1}, "<=", 1)
    unbounded = L.LinProgram(1, "max", {0: F(1)})
    unbounded.add({0: 1}, ">=", 1)

    calls = _spy_on_dense_simplex(monkeypatch)
    assert _solve(infeasible).status == "infeasible"
    assert _solve(unbounded).status == "unbounded"
    assert calls == ["infeasible", "unbounded"]

    monkeypatch.setattr(L, "_VERDICT_RECHECK_CELL_LIMIT", 0)
    assert _solve(infeasible).status == "infeasible"
    assert _solve(unbounded).status == "unbounded"
    assert calls == ["infeasible", "unbounded"]


def test_random_cross_check_against_float_solver():
    """Exact solve, dense exact simplex and HiGHS agree in status and value
    on random LPs."""
    rng = random.Random(20240817)
    for _ in range(60):
        n = rng.randint(1, 4)
        lp = L.LinProgram(n, rng.choice(["max", "min"]),
                          {j: F(rng.randint(-3, 3)) for j in range(n)})
        for _ in range(rng.randint(1, 5)):
            lp.add({j: F(rng.randint(-2, 2)) for j in range(n)},
                   rng.choice(["<=", "==", ">="]), F(rng.randint(-2, 4)))
        for j in range(n):
            lp.add({j: 1}, "<=", 7)
        exact = _solve(lp)
        approx = _solve(lp, mode="float")
        direct = L._exact_simplex(lp.normalized())
        assert exact.status == approx.status
        assert direct.status == exact.status
        if exact.status == "optimal":
            assert exact.certified
            assert abs(float(exact.value) - approx.value) < 1e-7
            assert direct.value == exact.value
            assert L.verify_certificate(lp, direct)


def test_dump_format():
    lp = L.LinProgram(2, "max", {0: F(1, 3)})
    lp.add({0: 1, 1: -1}, ">=", F(2, 7))
    text = L.dump_lp(lp)
    assert "1/3*x0" in text
    assert ">= 2/7" in text
    assert "x1 >= 0" in text


def test_validate_rejects_bad_indices():
    lp = L.LinProgram(1, "max", {3: F(1)})
    with pytest.raises(L.LpError):
        lp.validate()
