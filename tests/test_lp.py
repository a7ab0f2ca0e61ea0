"""Unit tests for the exact LP engine."""

import contextlib
import hashlib
import math
import random
import re
from fractions import Fraction
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import OptimizeResult

import nsrand.lp as L
from nsrand import cli, games as G, nsvalues as NV, tons as T
from nsrand.lp import EQ, GE, LE, MAX, LinProgram, LpSolution
from nsrand.serialize import frac_str


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
    """The degenerate max x+y s.t. x+y <= 1 has the certified optimum 1."""
    lp = L.LinProgram(2, "max", {0: F(1), 1: F(1)})
    lp.add({0: 1, 1: 1}, "<=", 1)
    sol = _solve(lp)
    assert sol.value == 1
    assert sol.certified


def test_infeasible_status():
    lp = L.LinProgram(1, "max", {0: F(1)})
    lp.add({0: 1}, ">=", 2)
    lp.add({0: 1}, "<=", 1)
    sol = _solve(lp)
    assert sol.status == "infeasible"
    assert sol.certified


def test_unbounded_status():
    lp = L.LinProgram(1, "max", {0: F(1)})
    lp.add({0: 1}, ">=", 1)
    sol = _solve(lp)
    assert sol.status == "unbounded"
    assert sol.certified


def test_min_sense_and_free_variable():
    """min y over y == -2 with y free reaches the negative value."""
    lp = L.LinProgram(1, "min", {0: F(1)}, lower={0: None})
    lp.add({0: 1}, "==", -2)
    sol = _solve(lp)
    assert sol.value == -2
    assert sol.certified


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_zero_variable_lp(mode, monkeypatch):
    """An LP without variables is optimal at 0 or infeasible, in either
    mode and without a HiGHS call; exact answers are certified."""
    monkeypatch.setattr(L, "_highs", None)
    sol = _solve(L.LinProgram(0, "max"), mode)
    assert sol.value == 0
    assert sol.certified == (mode == "exact")
    lp = L.LinProgram(0, "max")
    lp.add({}, "<=", -1)
    infeasible = _solve(lp, mode)
    assert infeasible.status == "infeasible"
    assert infeasible.certified == (mode == "exact")


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
    direct = _exact_simplex(lp.normalized())
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


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1e-3])
def test_tolerance_must_be_finite_and_positive(tolerance,
                                               perturbed_float_solver):
    """No tolerance lets a float optimum off by 1e-6 pass unchecked: NaN
    and inf are refused like 0 and negative ones, in either mode."""
    for mode in ("float", "exact"):
        with pytest.raises(L.LpError, match="finite and positive"):
            L.solve(_three_var_lp(), mode=mode, float_tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1e-3])
def test_certificate_check_refuses_a_bad_tolerance(tolerance):
    """``verify_certificate`` refuses the tolerances ``solve`` refuses,
    where NaN and inf used to accept any certificate."""
    lp = L.LinProgram(2, "max", {0: 1, 1: 1})
    lp.add({0: 1, 1: 1}, "<=", 1)
    sol = LpSolution("optimal", 5.0, [3.0, 4.0], [-2.0], "float")
    assert L.verify_certificate(lp, sol).reasons[:2] == [
        "row 0: 7.0 > 1", "dual 0: wrong sign for <= row"]
    for mode in ("float", "exact"):
        sol.mode = mode
        with pytest.raises(L.LpError, match="float tolerance must be finite "
                                            "and positive"):
            L.verify_certificate(lp, sol, tolerance)


def _spy(monkeypatch, name):
    """Record the calls of ``L.<name>`` and return the list."""
    calls = []
    real = getattr(L, name)

    def spy(*args):
        calls.append(name)
        return real(*args)
    monkeypatch.setattr(L, name, spy)
    return calls


def test_basis_solve_certifies_up_to_the_cap(monkeypatch):
    """The exact basis solve returns the certified optimum; above
    ``_FALLBACK_CELL_LIMIT`` nonzeros it is not entered, no exact
    arithmetic runs, and exact mode raises CertificationError."""
    calls = _spy(monkeypatch, "_solve_active_set")
    sol = _solve(_three_var_lp())
    assert calls == ["_solve_active_set"]
    assert sol.status == "optimal"
    assert sol.certified
    assert sol.value == F(5, 2)
    assert L.verify_certificate(_three_var_lp(), sol)

    monkeypatch.setattr(L, "_FALLBACK_CELL_LIMIT", 0)
    verified = _spy(monkeypatch, "verify_certificate")
    with pytest.raises(L.CertificationError, match="capped at 0 nonzeros"):
        _solve(_three_var_lp())
    assert calls == ["_solve_active_set"]
    assert verified == []


def test_highs_failure_raises_at_any_size(monkeypatch):
    """A failed HiGHS solve (status 4) raises CertificationError in exact
    mode, however small the LP, without entering the basis solve; float
    mode raises LpError."""
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *args, **kwargs:
                        OptimizeResult(status=4, message="numerical trouble"))
    calls = _spy(monkeypatch, "_solve_active_set")
    with pytest.raises(L.CertificationError, match="numerical trouble"):
        _solve(_three_var_lp())
    assert calls == []
    with pytest.raises(L.LpError, match="float solver failed"):
        _solve(_three_var_lp(), mode="float")


def _infeasible_and_unbounded():
    infeasible = L.LinProgram(1, "max", {0: F(1)})
    infeasible.add({0: 1}, ">=", 2)
    infeasible.add({0: 1}, "<=", 1)
    unbounded = L.LinProgram(1, "max", {0: F(1)})
    unbounded.add({0: 1}, ">=", 1)
    return infeasible, unbounded


def test_verdicts_are_certified_by_auxiliary_lps(monkeypatch):
    """An infeasible verdict is proved by a certified phase-one LP (one
    more HiGHS call), an unbounded one also by a certified ray LP (two
    more)."""
    infeasible, unbounded = _infeasible_and_unbounded()
    calls = _spy(monkeypatch, "_highs")
    sol = _solve(infeasible)
    assert (sol.status, sol.certified, len(calls)) == ("infeasible", True, 2)
    sol = _solve(unbounded)
    assert (sol.status, sol.certified, len(calls)) == ("unbounded", True, 5)


def _fake_first_verdict(monkeypatch, status, message):
    """linprog answers ``status`` on its first call, then really solves."""
    real = scipy.optimize.linprog
    calls = []

    def fake(*args, **kwargs):
        calls.append(status)
        if len(calls) == 1:
            return OptimizeResult(status=status, message=message)
        return real(*args, **kwargs)
    monkeypatch.setattr(scipy.optimize, "linprog", fake)
    return calls


def test_false_infeasible_verdict_raises(monkeypatch):
    """HiGHS calling a feasible, bounded LP infeasible raises
    CertificationError: phase one certifies it feasible, the ray LP
    bounded."""
    calls = _fake_first_verdict(monkeypatch, 2, "The problem is infeasible.")
    with pytest.raises(L.CertificationError, match="feasible and bounded"):
        _solve(_three_var_lp())
    assert len(calls) == 3


def test_auxiliary_lps_decide_infeasible_or_unbounded(monkeypatch):
    """HiGHS has called a feasible, unbounded LP infeasible; the exact
    path returns the verdict its auxiliary LPs prove, not HiGHS's."""
    _, unbounded = _infeasible_and_unbounded()
    _fake_first_verdict(monkeypatch, 2, "The problem is infeasible.")
    sol = _solve(unbounded)
    assert (sol.status, sol.certified) == ("unbounded", True)


def test_verdict_auxiliary_lps_go_through_solve(monkeypatch):
    """``solve`` is the one exact entry: an optimum is one call, an
    infeasible verdict two (its phase-one LP), an unbounded one three
    (phase one and the ray LP)."""
    infeasible, unbounded = _infeasible_and_unbounded()
    for lp, status, count in ((_three_var_lp(), "optimal", 1),
                              (infeasible, "infeasible", 2),
                              (unbounded, "unbounded", 3)):
        calls = _spy(monkeypatch, "solve")
        assert L.solve(lp).status == status
        assert len(calls) == count, status
        monkeypatch.undo()


def _fake_statuses(monkeypatch, statuses):
    """linprog answers ``statuses`` on its first calls, then really
    solves."""
    real = scipy.optimize.linprog
    calls = []

    def fake(*args, **kwargs):
        calls.append(None)
        if len(calls) <= len(statuses):
            return OptimizeResult(status=statuses[len(calls) - 1],
                                  message=f"fake status {len(calls)}")
        return real(*args, **kwargs)
    monkeypatch.setattr(scipy.optimize, "linprog", fake)
    return calls


def test_failed_auxiliary_lp_raises_as_a_failed_lp(monkeypatch):
    """A HiGHS failure on the phase-one LP of a verdict raises the words
    of a failure on the LP itself, after the two HiGHS calls."""
    calls = _fake_statuses(monkeypatch, [2, 4])
    with pytest.raises(L.CertificationError,
                       match=r"HiGHS found no optimum \(fake status 2\)"):
        _solve(_three_var_lp())
    assert len(calls) == 2


def test_mislabelled_auxiliary_lp_still_raises(monkeypatch):
    """HiGHS calling both a feasible LP and its phase-one LP infeasible
    raises CertificationError: the phase-one LP is proved feasible and
    bounded by its own auxiliary LPs, two more HiGHS calls."""
    calls = _fake_statuses(monkeypatch, [2, 2])
    with pytest.raises(L.CertificationError, match="feasible and bounded"):
        _solve(_three_var_lp())
    assert len(calls) == 4


@pytest.mark.parametrize("kind", [T.TONS, T.ABNS])
def test_basis_solve_alone_certifies_two_round_guessing(kind, monkeypatch):
    """The basis solve certifies the two-round guessing LPs at their
    known values: 1 - 3v/4 for TONS, the pinned grid values for ABNS."""
    chsh = G.make_chsh_game()
    scenario = T.CausalScenario.for_game(kind, 2, chsh)
    calls = _spy(monkeypatch, "_solve_active_set")
    abns = {F(1, 4): F(7, 8), F(1, 2): F(23, 32), F(11, 12): F(383, 1152)}
    for i, v in enumerate((F(1, 4), F(1, 2), F(11, 12))):
        marginal = G.product_behavior(G.make_pr_v(G.NoisyPRParams(v)), 2)
        value = T.tons_guessing_probability(chsh, marginal, (0, 0), scenario)
        assert len(calls) == i + 1, v
        assert value == (1 - 3 * v / 4 if kind == T.TONS else abns[v]), v


def test_basis_solve_alone_certifies_the_builtin_game_values(monkeypatch):
    """The basis solve certifies the ns-value LPs of the five built-in
    games at their known values."""
    known = {"chain": 1, "chsh": 1, "chain-guessing": F(8, 9),
             "chsh-guessing": F(3, 4), "magic-square": 1}
    assert set(known) == set(cli.BUILTIN_GAMES)
    calls = _spy(monkeypatch, "_solve_active_set")
    for name, make in cli.BUILTIN_GAMES.items():
        assert NV.ns_value(make()) == known[name], name
    assert len(calls) == 5


def _digest_linprog(monkeypatch):
    """Record the sha256 of the arrays of every ``linprog`` call: the
    objective, the right-hand sides, and each constraint matrix's CSR
    ``data``, ``indices`` and ``indptr``."""
    real, digests = scipy.optimize.linprog, []

    def digest(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None, **kwargs):
        h = hashlib.sha256()
        for a in (c, b_ub, b_eq):
            if a is not None:
                h.update(np.ascontiguousarray(a, float).tobytes())
        for m in (A_ub, A_eq):
            if m is not None:
                for a in (m.data, m.indices, m.indptr):
                    h.update(np.ascontiguousarray(a).tobytes())
        digests.append(h.hexdigest())
        return real(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, **kwargs)
    monkeypatch.setattr(scipy.optimize, "linprog", digest)
    return digests


def test_over_cap_lps_are_refused_before_highs(monkeypatch):
    """Exact mode refuses an LP, or an auxiliary LP of a verdict, above
    ``_FALLBACK_CELL_LIMIT`` nonzeros before HiGHS runs; float mode
    solves it."""
    calls = _digest_linprog(monkeypatch)
    monkeypatch.setattr(L, "_FALLBACK_CELL_LIMIT", 0)
    for lp in (_three_var_lp(), *_infeasible_and_unbounded()):
        with pytest.raises(L.CertificationError, match="capped at 0 nonzeros"):
            _solve(lp)
    assert calls == []
    assert _solve(_three_var_lp(), mode="float").value == pytest.approx(2.5)
    assert len(calls) == 1


def test_verdict_auxiliary_lps_are_capped(monkeypatch):
    """An infeasible LP under the cap whose phase-one LP (two more
    columns per row) is over it makes one HiGHS call, not two."""
    infeasible, _ = _infeasible_and_unbounded()
    calls = _digest_linprog(monkeypatch)
    monkeypatch.setattr(L, "_FALLBACK_CELL_LIMIT", 2)
    with pytest.raises(L.CertificationError, match="capped at 2 nonzeros"):
        _solve(infeasible)
    assert len(calls) == 1


# Float three-round noisy-PR values and the digest of the HiGHS input of
# their slices: both are fixed to the last bit.
_THREE_ROUND_PINS = [
    (T.TONS, F(1, 4), "0.78125",
     "cde6c33d96a5b909c488bec4567785f24c120fb8f98ede4e13bf0345cb1ee1c0"),
    (T.TONS, F(1, 2), "0.5624999999999999",
     "164dac79bb53cf59564a51f778a72ffa31d3d106e66706612e0ef9cdee6534cf"),
    (T.TONS, F(2, 3), "0.41666666666666663",
     "ec8bc55fafbfc008f044b9a02e4f1f6bb2c879dd8b6e4f930111775acf1cc4d7"),
    (T.TONS, F(11, 12), "0.19791666666666655",
     "e75114b12d3b7347a5f7c4290cfff8f42cef2c3cfefcfb5ead26803ae7d42663"),
    (T.ABNS, F(1, 4), "0.868408203125",
     "80a407254f90245b74a9128de7e3a05ad0db66f435ef01a023fda6d70f10af95"),
    (T.ABNS, F(1, 2), "0.685546875",
     "b0347c2a7432143170a55b43088e6d93602379c9ce82aa72ea57833f24e5e79e"),
    (T.ABNS, F(2, 3), "0.5619212962962963",
     "1741192827a6ba0d41a834ba50d5c27f405a2fe9138888406c2f180cf8ab329c"),
    (T.ABNS, F(11, 12), "0.24741391782407404",
     "5834d0a8c17aeb499237fdf9b6e759c928d371073c6cd0745382713d34ee19ad")]


@pytest.mark.parametrize("kind, v, value, digest", _THREE_ROUND_PINS)
def test_three_round_float_values_are_pinned(kind, v, value, digest,
                                             monkeypatch):
    chsh = G.make_chsh_game()
    digests = _digest_linprog(monkeypatch)
    marginal = G.product_behavior(G.make_pr_v(G.NoisyPRParams(v)), 3)
    pg = T.tons_guessing_probability(
        chsh, marginal, (0, 0, 0), T.CausalScenario.for_game(kind, 3, chsh),
        mode="float")
    assert repr(pg) == value
    assert digests == [digest]


@pytest.mark.parametrize("kind, value", [
    (T.TONS, F(9, 64)), (T.ABNS, F(594623, 2654208))])
def test_four_round_slices_certify_on_the_tight_retry(kind, value,
                                                      monkeypatch):
    """At v = 11/12 the four-round slices' optima fail their certificates
    at HiGHS's default tolerances; the one retry, with both feasibility
    tolerances at 1e-10, certifies them exactly and in float mode."""
    chsh = G.make_chsh_game()
    scenario = T.CausalScenario.for_game(kind, 4, chsh)
    marginal = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(11, 12))), 4)
    prog = T.build_guessing_lp(
        chsh, marginal, (0,) * 4, scenario,
        relabellings=T.marginal_symmetries(marginal, scenario, (0,) * 4)
    ).program
    real, options = scipy.optimize.linprog, []

    def spy(*args, **kwargs):
        options.append(kwargs.get("options"))
        return real(*args, **kwargs)
    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    sol = L.solve(prog, "exact")
    assert (sol.value, sol.certified) == (value, True)
    assert L.solve(prog, "float").value == pytest.approx(float(value),
                                                         abs=1e-9)
    tight = {"primal_feasibility_tolerance": 1e-10,
             "dual_feasibility_tolerance": 1e-10}
    assert options == [None, tight] * 2


def test_single_round_highs_inputs_are_pinned(monkeypatch):
    """The HiGHS input of the eps-NS LP of the chain guessing game at
    eps = 1/20 and of the magic-square guessing LP at value 1."""
    digests = _digest_linprog(monkeypatch)
    NV.eps_ns_value(G.make_guessing_game(G.make_chain_game()), F(1, 20))
    NV.single_round_guessing(G.make_magic_square_game(), 0, 1)
    assert digests == [
        "390742651f7cbe1b9c61b835022b47a7e38e1ac6cc96f3988c90febb1b8974d5",
        "530896ea5cb4e08bccf386942b7836b0f42d28a547ffd4d0ba00a166904ff02a"]


_RATIONAL = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def _small_lps(draw):
    """LPs with up to 6 variables (some free) and 8 rows of all three
    relations, with rational coefficients."""
    n = draw(st.integers(1, 6))
    index = st.integers(0, n - 1)
    lp = L.LinProgram(n, draw(st.sampled_from([L.MAX, L.MIN])),
                      draw(st.dictionaries(index, _RATIONAL)),
                      lower={j: None for j in draw(st.sets(index))})
    for _ in range(draw(st.integers(0, 8))):
        lp.add(draw(st.dictionaries(index, _RATIONAL)),
               draw(st.sampled_from([L.LE, L.EQ, L.GE])), draw(_RATIONAL))
    return lp


def _basis_only(highs):
    """``highs`` with the float optimum reduced to its basis: the value
    becomes NaN and each primal and dual entry 1.0 or 0.0 by whether it
    is above ``_FLOAT_ZERO_SNAP``; the slacks and reduced costs stay."""
    def reduced(norm):
        sol, message, tight = highs(norm)
        if tight is not None:
            sol.value = math.nan
            sol.primal, sol.dual = (
                [float(abs(v) > L._FLOAT_ZERO_SNAP) for v in values]
                for values in (sol.primal, sol.dual))
        return sol, message, tight
    return reduced


@pytest.mark.parametrize("lift", [True, False], ids=["lift", "basis-only"])
@settings(max_examples=150, deadline=None)
@given(lp=_small_lps())
def test_exact_path_agrees_with_the_dense_oracle(lift, lp):
    """Status and exact value equal the dense simplex's, and every
    optimum and every verdict is certified, whether the exact step
    lifts HiGHS's float optimum or sees only its basis."""
    expected = _exact_simplex(lp.normalized())
    with (contextlib.nullcontext() if lift else
          mock.patch.object(L, "_highs", _basis_only(L._highs))):
        sol = _solve(lp)
    assert sol.status == expected.status
    assert sol.certified
    if sol.status == "optimal":
        assert sol.value == expected.value
        assert L.verify_certificate(lp, sol)


def test_eliminate_rank_and_consistency():
    """``eliminate`` gives the rank, and None for 0 = nonzero."""
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {1: F(1, 3), 2: 1}]
    assert len(eliminate(rows)) == 2
    assert eliminate([{0: 1, L.RHS: 1}, {0: 2, L.RHS: 3}]) is None
    assert eliminate([{0: 1, 1: 1, L.RHS: 3}, {0: 1, 1: -1, L.RHS: 1}]) \
        == {0: {0: 1, L.RHS: 2}, 1: {1: 1, L.RHS: 1}}


def eliminate(rows):
    """Reduced row echelon form of sparse rational rows {column: value}:
    ``L._echelon`` of the rows, shortest first, each scaled to integers.
    Returns the nonzero rows by pivot column, each 1 at its pivot (their
    count is the rank), or None when the system is inconsistent."""
    pivots = L._echelon([dict(zip(row, G.integer_table(row.values())[0]
                                  .tolist())) for row in sorted(rows, key=len)])
    return None if pivots is None else {
        p: {j: Fraction(c, prow[p]) for j, c in prow.items()}
        for p, prow in pivots.items()}


def _eliminate_oracle(rows):
    """The rational Gauss-Jordan elimination that ``eliminate`` had
    before its integer kernel, kept as the reference: rows shortest
    first, each reduced by the pivot rows it meets, pivoting on its
    lowest column and normalized to 1 there, with every earlier pivot
    row cleared at the new pivot column; None at a row 0 = nonzero."""
    pivots = {}

    def reduce(row, p, prow):
        # row -= row[p] * prow, where prow is 1 at p.
        f = row.pop(p)
        for j, c in prow.items():
            if j != p:
                v = row.get(j, 0) - f * c
                if v:
                    row[j] = v
                else:
                    del row[j]

    for row in sorted(rows, key=len):
        row = {j: Fraction(c) for j, c in row.items() if c}
        for p in [j for j in row if j in pivots]:
            reduce(row, p, pivots[p])
        cols = [j for j in row if j != L.RHS]
        if not cols:
            if row:
                return None
            continue
        p = min(cols)
        inv = 1 / row[p]
        row = {j: c * inv for j, c in row.items()}
        for qrow in pivots.values():
            if p in qrow:
                reduce(qrow, p, row)
        pivots[p] = row
    return pivots


_ENTRY = st.one_of(_RATIONAL, st.integers(-9, 9),
                   st.integers(-2 ** 70, 2 ** 70),
                   st.builds(F, st.integers(-2 ** 70, 2 ** 70),
                             st.integers(1, 2 ** 66)))


@st.composite
def _sparse_systems(draw):
    """Up to 9 sparse rows on up to 6 columns, some with a right-hand
    side, then up to 3 rational combinations of them (rank-deficient
    systems); entries are small rationals, ints, and ints or fractions
    past 2^63, zeros included."""
    keys = st.integers(0, draw(st.integers(1, 6)) - 1) | st.just(L.RHS)
    rows = draw(st.lists(st.dictionaries(keys, _ENTRY, max_size=4),
                         max_size=9))
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        combo = {}
        for row in draw(st.lists(st.sampled_from(rows), min_size=1,
                                 max_size=3)):
            f = draw(_RATIONAL)
            for j, c in row.items():
                combo[j] = combo.get(j, 0) + f * c
        rows.append(combo)
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(rows=_sparse_systems())
@example(rows=[{0: 1, L.RHS: 1}, {1: 1, L.RHS: 2}, {0: 1, 1: 1, L.RHS: 4}])
@example(rows=[{0: 2 ** 64 + 1, 1: F(1, 3), L.RHS: 2 ** 65},
               {0: -(2 ** 63), 1: 2 ** 70 - 1}, {1: 0, L.RHS: 0}])
def test_eliminate_agrees_with_the_fraction_oracle(rows):
    """The integer kernel gives exactly the rational elimination's pivots,
    in order, and rows, or None where it does."""
    expected = _eliminate_oracle([dict(row) for row in rows])
    got = eliminate([dict(row) for row in rows])
    assert got == expected
    if got is not None:
        assert list(got) == list(expected)
        assert {type(c) for row in got.values() for c in row.values()} \
            <= {Fraction}


def test_eliminate_checks_rows_past_full_rank():
    """Once every column has a pivot the rows left are only checked, and
    a row that fails only then makes the system inconsistent."""
    pivots = [{0: 1, L.RHS: 1}, {1: 1, L.RHS: 2}]
    assert eliminate(pivots + [{0: 1, 1: 1, L.RHS: 4}]) is None
    assert eliminate(pivots + [{0: 2, 1: 1, L.RHS: 4},
                                 {0: 3, 1: 1, L.RHS: 4}]) is None
    assert eliminate(pivots + [{0: F(1, 2), 1: 1, L.RHS: F(5, 2)}]) == \
        {0: {0: 1, L.RHS: 1}, 1: {1: 1, L.RHS: 2}}


def test_echelon_runs_on_integers():
    """The kernel reduces integer rows to integer rows, past int64 too:
    each pivot row is a multiple of the rational one, not 1 at the
    pivot."""
    rows = [{0: 3, 1: 2, L.RHS: 2 ** 64}, {0: 2, 1: -5, L.RHS: 7},
            {0: 6, 1: 4, 2: 9}]
    expected = _eliminate_oracle(rows)
    pivots = L._echelon(rows)
    assert {type(c) for row in pivots.values() for c in row.values()} \
        == {int}
    assert {p: {j: F(c, row[p]) for j, c in row.items()}
            for p, row in pivots.items()} == expected


@pytest.mark.xfail(strict=True, raises=L.CertificationError)
def test_tiny_equality_dual_certifies():
    """max x0 + (1 - e) x1 s.t. (1 + e) x0 + x1 <= 1, x0 - x1 = e, with
    e = 10^-12: the optimum (1 + e)/(2 + e) at x0 needs the equality
    row's dual, e^2/(2 + e) ~ 5e-25, which HiGHS reports as 0.0.  The
    lift reads the tight set at ``_FLOAT_ZERO_SNAP``, drops that row from
    the dual system, finds it inconsistent and raises CertificationError
    ("the exact basis solve did not verify"); float mode solves it.  A
    basis solve reads no tolerance (ROADMAP item 3) and should make this
    pass."""
    e = F(1, 10 ** 12)
    lp = LinProgram(2, MAX, {0: 1, 1: 1 - e})
    lp.add({0: 1 + e, 1: 1}, LE, 1)
    lp.add({0: 1, 1: -1}, EQ, e)
    assert _solve(lp, mode="float").value == pytest.approx(1, abs=1e-9)
    x0 = (1 + e) / (2 + e)
    sol = _solve(lp)
    assert sol.certified and L.verify_certificate(lp, sol)
    assert sol.value == x0 + (1 - e) * (x0 - e)


def test_highs_gets_one_bounds_array(monkeypatch):
    """``_highs`` passes ``linprog`` one (n, 2) float bounds array from the
    free-column mask: [-inf, inf] on free columns, [0, inf] else."""
    seen = []
    real = scipy.optimize.linprog

    def spy(*args, bounds=None, **kwargs):
        seen.append(bounds)
        return real(*args, bounds=bounds, **kwargs)
    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    lp = LinProgram(3, MAX, {0: 1, 1: 1, 2: -1}, lower={1: None, 2: 0})
    lp.add({0: 1, 1: 1}, LE, 2)
    lp.add({1: 1, 2: -1}, LE, 1)
    lp.add({1: 1}, GE, -1)
    _solve(lp, mode="float")
    assert len(seen) == 1
    assert isinstance(seen[0], np.ndarray) and seen[0].dtype == float
    assert seen[0].tolist() == [[0, math.inf], [-math.inf, math.inf],
                                [0, math.inf]]


def test_random_cross_check_against_float_solver():
    """Exact solve, the dense exact simplex and HiGHS agree in status and
    value on random LPs."""
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
        direct = _exact_simplex(lp.normalized())
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
    # Bound keys are column indices too: an upper bound would otherwise
    # reach scipy as a bad row, a lower bound be ignored.
    for bounds in ({"upper": {5: F(3)}}, {"lower": {5: None}}):
        lp = L.LinProgram(2, "max", {0: F(1)}, **bounds)
        lp.add({0: 1, 1: 1}, "<=", 1)
        with pytest.raises(L.LpError, match="bound index 5 out of range"):
            L.solve(lp)


def test_integral_data_is_kept_as_int():
    """Rows hold exact numbers: ``int`` where integral, ``Fraction``
    otherwise, whatever type the caller passed."""
    con = L.make_constraint({2: F(4, 2), 0: 0.5, 1: 0}, "<=", F(3))
    assert con.coeffs == ((0, F(1, 2)), (2, 2))
    assert [type(c) for _, c in con.coeffs] == [F, int]
    assert type(con.rhs) is int and con.rhs == 3


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("entry", ["row coefficient", "right-hand side",
                                   "objective coefficient", "upper bound"])
def test_non_finite_lp_data_is_an_lp_error(entry, bad):
    """NaN or an infinity in a row is refused by ``make_constraint`` and
    ``add``, in the objective or a bound by ``validate`` and so by
    ``solve``: an ``LpError`` naming the entry, in both modes."""
    named = rf"^{entry}\b.* is {bad}, not finite$"
    if entry in ("row coefficient", "right-hand side"):
        coeffs, rhs = ({0: bad}, 1) if entry == "row coefficient" \
            else ({0: 1}, bad)
        lp = L.LinProgram(1, "max", {0: 1})
        with pytest.raises(L.LpError, match=named):
            L.make_constraint(coeffs, "<=", rhs)
        with pytest.raises(L.LpError, match=named):
            lp.add(coeffs, "<=", rhs)
        assert not len(lp.rhs)
        return
    lp = L.LinProgram(1, "max", {0: bad} if entry == "objective coefficient"
                      else {0: 1},
                      upper={0: bad} if entry == "upper bound" else {})
    lp.add({0: 1}, "<=", 1)
    with pytest.raises(L.LpError, match=named):
        lp.validate()
    for mode in ("float", "exact"):
        with pytest.raises(L.LpError, match=named):
            L.solve(lp, mode)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "+inf", "-inf"])
def test_non_finite_append_rows_data_is_named_as_add_names_it(bad):
    """A non-finite coefficient or right-hand side in ``append_rows`` is
    the ``LpError`` that ``add`` raises for the same row, and the program
    is left as it was; a coefficient is named by its column in its
    block's first row.  A guessing LP at a non-finite game value is
    refused the same way."""
    for blocks, rhs, coeffs in [
            ([(np.array([[0, 1]]), [1, bad])], [1], {0: 1, 1: bad}),
            ([(np.array([[0, 1]]), [1, 1])], [bad], {0: 1, 1: 1}),
            ([(np.array([[0, 1], [1, 0]]), [1, 1]),
              (np.array([[1, 0], [0, 1]]), [bad, 1])], [1, 1, 1],
             {1: bad, 0: 1})]:
        lp, rows = L.LinProgram(2), L.LinProgram(2)
        with pytest.raises(L.LpError) as added:
            lp.add(coeffs, LE, rhs[-1])
        with pytest.raises(L.LpError) as appended:
            L.append_rows(rows, blocks, rhs, LE)
        assert str(appended.value) == str(added.value)
        assert not len(rows.rhs) and not len(rows.indices)
    with pytest.raises(L.LpError,
                       match=rf"^right-hand side is {bad}, not finite$"):
        NV.single_round_guessing(G.make_chsh_game(), 0, bad)


@pytest.mark.parametrize("column", [2, 3, -1])
def test_append_rows_refuses_columns_outside_the_program(column):
    """A column outside [0, num_vars) would be keyed into another row
    (x3 of row 0 of a 2-variable LP into x1 of row 1); it is refused in
    ``validate``'s words before any array changes, by ``append_rows`` and
    by ``add``, its one-row form."""
    prog = LinProgram(2)
    L.append_rows(prog, [(np.array([[0, 1]]), [1, 1])], [1], LE)
    before = L.dump_lp(prog)
    with pytest.raises(L.LpError, match=rf"^row index {column} out of range$"):
        L.append_rows(prog, [(np.array([[0, column]]), [1, 3]),
                             (np.array([[1, 1]]), [1, 1])], [1, 2], LE)
    assert L.dump_lp(prog) == before
    arrays = [prog.indptr, prog.indices, prog.data, prog.rhs, prog.rel]
    with pytest.raises(L.LpError, match=rf"^row index {column} out of range$"):
        prog.add({0: 1, column: 3}, LE, 1)
    assert L.dump_lp(prog) == before
    assert all(new is old for new, old in zip(
        [prog.indptr, prog.indices, prog.data, prog.rhs, prog.rel], arrays))


@pytest.mark.parametrize("blocks, rhs, message", [
    ([(np.array([[0, 1]]), [1, 1])], [1, 2],
     "row count 1, right-hand side count 2"),
    ([(np.array([[0, 1], [1, 0]]), [1, 1])], [1],
     "row count 2, right-hand side count 1"),
    ([(np.array([[0, 1]]), [1, 1]), (np.array([[0, 1]]), [1, 1, 1])], [1, 1],
     "block 1: row width 2, coefficient count 3"),
    ([(np.array([[0, 1]]), [1])], [1],
     "block 0: row width 2, coefficient count 1")],
    ids=["extra-rhs", "missing-rhs", "long-coefficients",
         "short-coefficients"])
def test_append_rows_refuses_shapes_that_do_not_match(blocks, rhs, message):
    """A right-hand side per row and a coefficient per column of a block's
    rows, or an ``LpError`` naming both counts before any array changes:
    an extra right-hand side was dropped, a missing one an ``IndexError``,
    a coefficient list of the wrong length numpy's broadcast error."""
    prog = LinProgram(2)
    L.append_rows(prog, [(np.array([[0, 1]]), [1, 1])], [1], LE)
    before = L.dump_lp(prog)
    with pytest.raises(L.LpError, match=rf"^{message}$"):
        L.append_rows(prog, blocks, rhs, LE)
    assert L.dump_lp(prog) == before


def test_append_rows_of_no_blocks_appends_nothing():
    """No blocks and no right-hand sides append nothing and keep every
    array; no blocks with right-hand sides are refused by both counts."""
    prog = LinProgram(2)
    L.append_rows(prog, [(np.array([[0, 1]]), [1, 1])], [1], LE)
    arrays = [prog.indptr, prog.indices, prog.data, prog.rhs, prog.rel]
    before = L.dump_lp(prog)
    L.append_rows(prog, [], [], LE)
    with pytest.raises(L.LpError,
                       match=r"^row count 0, right-hand side count 2$"):
        L.append_rows(prog, [], [1, 2], LE)
    assert L.dump_lp(prog) == before
    assert all(new is old for new, old in zip(
        [prog.indptr, prog.indices, prog.data, prog.rhs, prog.rel], arrays))


@pytest.mark.parametrize("columns, shape", [
    (np.array([0, 1]), r"\(2,\)"), (np.array(1), r"\(\)"),
    (np.zeros((1, 2, 1), np.intp), r"\(1, 2, 1\)")],
    ids=["1-d", "0-d", "3-d"])
def test_append_rows_refuses_a_block_that_is_not_2_d(columns, shape):
    """A block's columns are a (rows, width) array; any other shape is
    refused by block and shape before any array changes."""
    prog = LinProgram(2)
    L.append_rows(prog, [(np.array([[0, 1]]), [1, 1])], [1], LE)
    before = L.dump_lp(prog)
    with pytest.raises(L.LpError,
                       match=rf"^block 1: column shape {shape}, not 2-D$"):
        L.append_rows(prog, [(np.array([[0, 1]]), [1, 1]),
                             (columns, [1, 1])], [1, 1], LE)
    assert L.dump_lp(prog) == before


def test_no_solve_path_builds_row_objects(monkeypatch):
    """Rows stay arrays from the build to the certificate: with
    ``Constraint`` made to raise, the three-round float and the two-round
    exact TONS slices, the chain guessing game's ns-value and its eps-NS
    value at 1/20 are built and solved, from empty TONS caches."""
    guessing = G.make_guessing_game(G.make_chain_game())
    eps_value = NV.eps_ns_value(guessing, F(1, 20)).value

    def refuse(*args, **kwargs):
        raise AssertionError("a per-row Constraint was built")
    monkeypatch.setattr(L, "Constraint", refuse)
    T.build_causal_constraints.cache_clear()
    T._slice_skeleton.cache_clear()
    chsh = G.make_chsh_game()
    for n, mode, value in ((3, "float", "0.5624999999999999"),
                           (2, "exact", "Fraction(5, 8)")):
        scenario = T.CausalScenario.for_game(T.TONS, n, chsh)
        marginal = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(1, 2))),
                                      n)
        assert repr(T.tons_guessing_probability(
            chsh, marginal, (0,) * n, scenario, mode=mode)) == value
    assert NV.ns_value(guessing) == F(8, 9)
    report = NV.eps_ns_value(guessing, F(1, 20))
    assert report.value == eps_value and report.solution.certified


def _certificate_lp():
    """max x0 + x2 over x0 + x1 <= 2, x0 - x1 >= 0, x2 - x0 == 0, with x2
    free: the optimum 4 at x = (2, 0, 2), y = (2, 0, 1)."""
    lp = L.LinProgram(3, "max", {0: F(1), 2: F(1)}, lower={2: None})
    lp.add({0: 1, 1: 1}, "<=", 2)
    lp.add({0: 1, 1: -1}, ">=", 0)
    lp.add({2: 1, 0: -1}, "==", 0)
    return lp


def _negate_dual(k):
    def perturb(sol, one):
        sol.dual[k] = -sol.dual[k]
    return perturb


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("perturb, reason", [
    (lambda sol, one: sol.primal.__setitem__(1, -one),
     r"^x1 = -1(\.0)? violates x >= 0$"),
    (lambda sol, one: sol.primal.__setitem__(1, 3 * one),
     r"^row 1: -[\d.e-]+ < 0$"),
    (_negate_dual(0), r"^dual 0: wrong sign for <= row$"),
    (lambda sol, one: sol.dual.__setitem__(1, one),
     r"^dual 1: wrong sign for >= row$"),
    (lambda sol, one: sol.dual.__setitem__(2, sol.dual[2] + one),
     r"^reduced cost of free x2 is [\d.e-]+, not 0$")],
    ids=["negative-coordinate", "violated-ge-row", "le-dual-sign",
         "ge-dual-sign", "free-reduced-cost"])
def test_certificate_names_each_violation(mode, perturb, reason):
    """Each way of spoiling an optimal pair is rejected with its reason,
    in exact arithmetic and at the float tolerance."""
    lp = _certificate_lp()
    sol = _solve(lp, mode)
    assert sol.value == 4 and L.verify_certificate(lp, sol)
    perturb(sol, F(1) if mode == "exact" else 1.0)
    report = L.verify_certificate(lp, sol)
    assert not report
    assert any(re.match(reason, r) for r in report.reasons), report.reasons


def test_non_finite_certificates_fail_by_name():
    """NaN or infinite entries fail the certificate, naming each entry,
    in both modes; exact mode does not raise on them."""
    lp = L.LinProgram(2, "max", {0: 1, 1: 1})
    lp.add({0: 1, 1: 1}, "<=", 1)
    for mode in ("float", "exact"):
        nan = LpSolution("optimal", math.nan, [math.nan, math.nan],
                         [math.nan], mode)
        report = L.verify_certificate(lp, nan)
        assert not report
        assert report.reasons == [
            "x0 = nan is not finite", "x1 = nan is not finite",
            "dual 0 = nan is not finite", "reported value nan is not finite"]
        inf = LpSolution("optimal", F(1), [math.inf, F(0)], [-math.inf],
                         mode)
        assert L.verify_certificate(lp, inf).reasons == [
            "x0 = inf is not finite", "dual 0 = -inf is not finite"]


def test_exact_check_takes_floats_exactly():
    """A float entry is taken as the rational it stores: 0.1 is not 1/10."""
    lp = L.LinProgram(1, "max", {0: 1})
    lp.add({0: 10}, "<=", 1)
    exact = LpSolution("optimal", F(1, 10), [F(1, 10)], [F(1, 10)], "exact")
    assert L.verify_certificate(lp, exact)
    floats = LpSolution("optimal", 0.1, [0.1], [0.1], "exact")
    assert not L.verify_certificate(lp, floats)


# ---------------------------------------------------------------------------
# the integer certificate check against the Fraction oracle
# ---------------------------------------------------------------------------

def _fraction_certificate(lp: LinProgram, sol: LpSolution
                          ) -> L.CertificateReport:
    """``verify_certificate`` in exact mode, entry by entry in Fractions."""
    reasons: list[str] = []
    norm = lp.normalized()
    if sol.status != LpSolution.OPTIMAL:
        return L.CertificateReport(False, [f"status is {sol.status}, not "
                                          f"optimal"])
    if len(sol.primal) != lp.num_vars:
        return L.CertificateReport(False, ["primal length mismatch"])
    if len(sol.dual) != len(norm.constraints):
        return L.CertificateReport(False, ["dual length mismatch"])
    x, y, cons = sol.primal, sol.dual, norm.constraints
    zero = Fraction(0)
    for j in range(lp.num_vars):
        if not norm.is_free(j) and x[j] < 0:
            reasons.append(f"x{j} = {x[j]} violates x >= 0")
    for k, con in enumerate(cons):
        lhs = sum((c * x[j] for j, c in con.coeffs), start=zero)
        delta = lhs - con.rhs
        if con.rel == EQ and delta != 0:
            reasons.append(f"row {k}: {lhs} != {con.rhs}")
        elif con.rel == LE and delta > 0:
            reasons.append(f"row {k}: {lhs} > {con.rhs}")
        elif con.rel == GE and delta < 0:
            reasons.append(f"row {k}: {lhs} < {con.rhs}")
    sign = 1 if norm.sense == MAX else -1
    for k, con in enumerate(cons):
        if con.rel == LE and sign * y[k] < 0:
            reasons.append(f"dual {k}: wrong sign for <= row")
        elif con.rel == GE and -sign * y[k] < 0:
            reasons.append(f"dual {k}: wrong sign for >= row")
    col_dual = [zero] * lp.num_vars
    for k, yk in enumerate(y):
        if yk:
            for j, c in cons[k].coeffs:
                col_dual[j] += yk * c
    for j in range(lp.num_vars):
        r = col_dual[j] - norm.objective.get(j, 0)
        if norm.is_free(j):
            if r != 0:
                reasons.append(f"reduced cost of free x{j} is {r}, not 0")
        elif sign * r < 0:
            reasons.append(f"reduced cost of x{j} has wrong sign: {r}")
    primal_obj = sum((c * x[j] for j, c in norm.objective.items()),
                     start=zero)
    dual_obj = sum((y[k] * con.rhs for k, con in enumerate(cons)),
                   start=zero)
    if primal_obj != dual_obj:
        reasons.append(f"objective gap: primal {float(primal_obj):.12g} "
                       f"vs dual {float(dual_obj):.12g}")
    if sol.value is not None and primal_obj != sol.value:
        reasons.append(f"reported value {float(sol.value):.12g} != primal "
                       f"objective {float(primal_obj):.12g}")
    return L.CertificateReport(not reasons, reasons)


@st.composite
def _certificates(draw):
    """An LP of ``_small_lps`` with its exact optimum (random vectors when
    it has none), then possibly spoilt: a primal entry moved, a dual
    entry negated or moved, or the reported value moved."""
    lp = draw(_small_lps())
    m = len(lp.normalized().constraints)
    sol = _solve(lp)
    if sol.status != "optimal":
        sol = LpSolution("optimal", draw(st.none() | _RATIONAL),
                         draw(st.lists(_RATIONAL, min_size=lp.num_vars,
                                       max_size=lp.num_vars)),
                         draw(st.lists(_RATIONAL, min_size=m, max_size=m)),
                         "exact")
    spoil = draw(st.sampled_from(["none", "primal", "negate-dual", "dual",
                                  "value"]))
    if spoil == "primal":
        sol.primal[draw(st.integers(0, lp.num_vars - 1))] += draw(_RATIONAL)
    elif spoil in ("negate-dual", "dual") and m:
        k = draw(st.integers(0, m - 1))
        sol.dual[k] = -sol.dual[k] if spoil == "negate-dual" else \
            sol.dual[k] + draw(_RATIONAL)
    elif spoil == "value":
        sol.value = draw(_RATIONAL)
    return lp, sol


@settings(max_examples=100, deadline=None)
@given(case=_certificates())
def test_integer_check_agrees_with_the_fraction_oracle(case):
    """Same verdict and same reasons, in the same order, as the check
    made entry by entry in Fractions."""
    lp, sol = case
    expected = _fraction_certificate(lp, sol)
    report = L.verify_certificate(lp, sol)
    assert (report.ok, report.reasons) == (expected.ok, expected.reasons)


def test_integer_check_beyond_int64_agrees_with_the_oracle():
    """Denominators near 2**40 push the integer residuals past int64:
    the check runs on Python ints with the oracle's verdicts."""
    p, q, r = 2 ** 40 - 87, 2 ** 40 - 167, 2 ** 40 - 57
    # max x0 s.t. x0 / p <= 1 / q: the optimum x0 = p / q, y = p.  The
    # data's own denominator p q is past int64.
    small = L.LinProgram(1, "max", {0: 1})
    small.add({0: F(1, p)}, "<=", F(1, q))
    assert G.integer_table([F(1, p), F(1, q), 1])[0].dtype == object
    # max x0 + x1 s.t. x0 / p <= 1, x0 / p + x1 <= 1, x1 free: data over
    # p and the optimum x = (p, 0), y = (p - 1, 1) fit int64 alone, not
    # together.
    mixed = L.LinProgram(2, "max", {0: 1, 1: 1}, lower={1: None})
    mixed.add({0: F(1, p)}, "<=", 1)
    mixed.add({0: F(1, p), 1: 1}, "<=", 1)
    cases = [(small, LpSolution("optimal", F(p, q), [F(p, q)], [F(p)],
                                "exact")),
             (mixed, LpSolution("optimal", F(p), [F(p), F(0)],
                                [F(p - 1), F(1)], "exact"))]
    for lp, sol in cases:
        assert L.verify_certificate(lp, sol)
        for spoilt in (
                LpSolution("optimal", sol.value, [sol.primal[0] + F(1, r),
                                                  *sol.primal[1:]],
                           sol.dual, "exact"),
                LpSolution("optimal", sol.value, sol.primal,
                           [-v for v in sol.dual], "exact")):
            report = L.verify_certificate(lp, spoilt)
            expected = _fraction_certificate(lp, spoilt)
            assert not report
            assert report.reasons == expected.reasons


def _float_certificate(lp: LinProgram, sol: LpSolution, tolerance: float
                       ) -> L.CertificateReport:
    """``verify_certificate`` in float mode, row by row in Python floats."""
    norm = lp.normalized()
    if sol.status != LpSolution.OPTIMAL:
        return L.CertificateReport(False, [f"status is {sol.status}, not "
                                          f"optimal"])
    if len(sol.primal) != lp.num_vars:
        return L.CertificateReport(False, ["primal length mismatch"])
    if len(sol.dual) != len(norm.constraints):
        return L.CertificateReport(False, ["dual length mismatch"])
    x, y, value, cons = sol.primal, sol.dual, sol.value, norm.constraints

    def viol(delta) -> bool:
        return abs(float(delta)) > tolerance

    def neg(val) -> bool:
        return float(val) < -tolerance

    reasons: list[str] = []
    for j in range(norm.num_vars):
        if not norm.is_free(j) and neg(x[j]):
            reasons.append(f"x{j} = {x[j]} violates x >= 0")
    for k, con in enumerate(cons):
        lhs = sum((c * x[j] for j, c in con.coeffs), start=0.0)
        delta = lhs - con.rhs
        if con.rel == EQ and viol(delta):
            reasons.append(f"row {k}: {lhs} != {con.rhs}")
        elif con.rel == LE and delta > 0 and viol(delta):
            reasons.append(f"row {k}: {lhs} > {con.rhs}")
        elif con.rel == GE and delta < 0 and viol(delta):
            reasons.append(f"row {k}: {lhs} < {con.rhs}")
    sign = 1 if norm.sense == MAX else -1
    for k, con in enumerate(cons):
        if con.rel == LE and neg(sign * y[k]):
            reasons.append(f"dual {k}: wrong sign for <= row")
        elif con.rel == GE and neg(-sign * y[k]):
            reasons.append(f"dual {k}: wrong sign for >= row")
    col_dual = [0.0] * norm.num_vars
    for k, yk in enumerate(y):
        if yk:
            for j, c in cons[k].coeffs:
                col_dual[j] += yk * c
    for j in range(norm.num_vars):
        r = col_dual[j] - norm.objective.get(j, 0)
        if norm.is_free(j):
            if viol(r):
                reasons.append(f"reduced cost of free x{j} is {r}, not 0")
        elif neg(sign * r):
            reasons.append(f"reduced cost of x{j} has wrong sign: {r}")
    primal_obj = sum((c * x[j] for j, c in norm.objective.items()),
                     start=0.0)
    dual_obj = sum((y[k] * con.rhs for k, con in enumerate(cons)),
                   start=0.0)
    if viol(primal_obj - dual_obj):
        reasons.append(f"objective gap: primal {float(primal_obj):.12g} "
                       f"vs dual {float(dual_obj):.12g}")
    if value is not None and viol(primal_obj - value):
        reasons.append(f"reported value {float(value):.12g} != primal "
                       f"objective {float(primal_obj):.12g}")
    return L.CertificateReport(not reasons, reasons)


_SHIFTS = st.sampled_from([1e-12, 1e-10, 1e-9, 1e-7, 1e-3, 1.0])


@st.composite
def _float_certificates(draw):
    """An LP of ``_small_lps`` with HiGHS's float optimum (random vectors
    when it has none), a tolerance, then possibly spoilt: a primal entry,
    a dual entry or the reported value moved by plus or minus an amount
    that may be the tolerance itself."""
    lp = draw(_small_lps())
    m = len(lp.normalized().constraints)
    sol = L._highs(lp.normalized())[0]
    floats = st.floats(-9, 9)
    if sol is None or sol.status != "optimal":
        sol = LpSolution("optimal", draw(st.none() | floats),
                         draw(st.lists(floats, min_size=lp.num_vars,
                                       max_size=lp.num_vars)),
                         draw(st.lists(floats, min_size=m, max_size=m)),
                         "float")
    tolerance = draw(st.sampled_from([1e-9, 1e-7]))
    shift = draw(st.sampled_from([-1.0, 1.0])) * \
        draw(st.just(tolerance) | _SHIFTS)
    spoil = draw(st.sampled_from(["none", "primal", "dual", "value"]))
    if spoil == "primal":
        sol.primal[draw(st.integers(0, lp.num_vars - 1))] += shift
    elif spoil == "dual" and m:
        sol.dual[draw(st.integers(0, m - 1))] += shift
    elif spoil == "value" and sol.value is not None:
        sol.value += shift
    return lp, sol, tolerance


def _at_the_tolerance():
    """max x0 s.t. x0 <= 0 at x0 = 1e-9: the row residual and the
    objective gap are both exactly the tolerance, which passes."""
    lp = L.LinProgram(1, "max", {0: 1})
    lp.add({0: 1}, "<=", 0)
    return lp, LpSolution("optimal", 0.0, [1e-9], [1.0], "float"), 1e-9


@settings(max_examples=150, deadline=None)
@given(case=_float_certificates())
@example(case=_at_the_tolerance())
def test_float_check_agrees_with_the_float_oracle(case):
    """Same verdict and same reasons, in the same order and to the last
    printed bit, as the check made row by row in Python floats."""
    lp, sol, tolerance = case
    expected = _float_certificate(lp, sol, tolerance)
    report = L.verify_certificate(lp, sol, tolerance)
    assert (report.ok, report.reasons) == (expected.ok, expected.reasons)


def test_float_check_prints_a_zero_objective_as_0():
    """An objective of 0 reached through a -0.0 term prints as 0, not -0,
    as the oracle's sums from +0.0 do."""
    lp = L.LinProgram(1, "max", {0: -1})
    lp.add({0: 1}, "<=", 1)
    sol = L.solve(lp, mode="float")
    assert sol.primal == [0.0] and sol.value == 0
    sol.value = 1.0
    report = L.verify_certificate(lp, sol)
    assert report.reasons == _float_certificate(lp, sol, 1e-9).reasons == [
        "reported value 1 != primal objective 0"]


# ---------------------------------------------------------------------------
# reference oracle: a dense two-phase simplex over Fractions with Bland's
# rule (guaranteed termination on degenerate LPs), independent of HiGHS
# ---------------------------------------------------------------------------

def _exact_simplex(norm: LinProgram) -> LpSolution:
    """Two-phase dense tableau simplex over Fractions with Bland's rule."""
    n = norm.num_vars
    maximize = norm.sense == MAX
    obj = {j: (c if maximize else -c) for j, c in norm.objective.items()}

    # Free variables are split as x = x+ - x-.
    free = [j for j in range(n) if norm.is_free(j)]
    split = {j: n + k for k, j in enumerate(free)}
    n_struct = n + len(free)

    rows = []          # (dense coeffs over structural vars, rhs, flip, rel)
    for con in norm.constraints:
        dense = [Fraction(0)] * n_struct
        for j, c in con.coeffs:
            dense[j] += c
            if j in split:
                dense[split[j]] -= c
        rhs, rel, flip = con.rhs, con.rel, False
        if rhs < 0:
            dense = [-c for c in dense]
            rhs = -rhs
            rel = {LE: GE, GE: LE, EQ: EQ}[rel]
            flip = True
        rows.append((dense, rhs, flip, rel))

    m = len(rows)
    # Columns: structural | slack/surplus (one per inequality) | identity
    # start columns (slack for <=, artificial for >=/==) | rhs.
    n_slack = sum(1 for r in rows if r[3] != EQ)
    ncols = n_struct + n_slack + m
    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    id_col: list[int] = []
    artificial: set[int] = set()
    slack_pos = 0
    zero = Fraction(0)
    one = Fraction(1)
    for i, (dense, rhs, _flip, rel) in enumerate(rows):
        row = dense + [zero] * (n_slack + m) + [rhs]
        if rel == LE:
            col = n_struct + slack_pos
            row[col] = one
            slack_pos += 1
            basis.append(col)
            id_col.append(col)
        elif rel == GE:
            row[n_struct + slack_pos] = -one
            slack_pos += 1
            art = n_struct + n_slack + i
            row[art] = one
            artificial.add(art)
            basis.append(art)
            id_col.append(art)
        else:
            art = n_struct + n_slack + i
            row[art] = one
            artificial.add(art)
            basis.append(art)
            id_col.append(art)
        tableau.append(row)

    def pivot(pr: int, pc: int) -> None:
        prow = tableau[pr]
        piv = prow[pc]
        if piv != 1:
            inv = 1 / piv
            tableau[pr] = prow = [c * inv for c in prow]
        for i in range(len(tableau)):
            if i == pr:
                continue
            row = tableau[i]
            f = row[pc]
            if f:
                tableau[i] = [a - f * b for a, b in zip(row, prow)]
        basis[pr] = pc

    def run(costs: list[Fraction], barred: set[int]) -> str:
        # costs is the z-row (reduced costs), mutated in place via tableau[m].
        tableau.append(costs)
        try:
            while True:
                zrow = tableau[m]
                enter = -1
                for j in range(ncols):
                    if j in barred:
                        continue
                    if zrow[j] < 0:
                        enter = j
                        break
                if enter < 0:
                    return "optimal"
                leave, best = -1, None
                for i in range(m):
                    a = tableau[i][enter]
                    if a > 0:
                        ratio = tableau[i][ncols] / a
                        if best is None or ratio < best or (
                                ratio == best and basis[i] < basis[leave]):
                            best, leave = ratio, i
                if leave < 0:
                    return "unbounded"
                pivot(leave, enter)
        finally:
            tableau.pop()

    # Phase 1: minimise the sum of artificials.
    if artificial:
        z = [zero] * (ncols + 1)
        for a in artificial:
            z[a] = one
        for i in range(m):
            if basis[i] in artificial:
                row = tableau[i]
                z = [zc - rc for zc, rc in zip(z, row)]
        status = run(z, set())
        # After run() the z-row is popped; read the phase-1 objective off
        # the basic artificial levels instead.
        infeas = sum((tableau[i][ncols] for i in range(m) if basis[i] in artificial),
                     start=zero)
        if status != "optimal" or infeas != 0:
            return LpSolution(LpSolution.INFEASIBLE, None, [], [], "exact")
        # Drive basic artificials out where possible; leftover rows are
        # redundant and keep a zero-level artificial in the basis.
        for i in range(m):
            if basis[i] in artificial:
                row = tableau[i]
                for j in range(n_struct + n_slack):
                    if row[j] != 0:
                        pivot(i, j)
                        break

    # Phase 2.
    z = [zero] * (ncols + 1)
    for j, c in obj.items():
        z[j] -= c
        if j in split:
            z[split[j]] += c
    for i in range(m):
        bc = basis[i]
        coeff = -z[bc]
        if coeff:
            row = tableau[i]
            z = [zc + coeff * rc for zc, rc in zip(z, row)]
    status = run(z, artificial)
    if status == "unbounded":
        return LpSolution(LpSolution.UNBOUNDED, None, [], [], "exact")

    x = [zero] * n_struct
    for i in range(m):
        if basis[i] < n_struct:
            x[basis[i]] = tableau[i][ncols]
    primal = [x[j] - (x[split[j]] if j in split else zero) for j in range(n)]

    # Simplex multipliers sit in the z-row over each row's identity-start
    # column; undo the rhs sign normalisation per row.
    zrow_final = [zero] * ncols
    for j, c in obj.items():
        zrow_final[j] -= c
        if j in split:
            zrow_final[split[j]] += c
    for i in range(m):
        bc = basis[i]
        coeff = -zrow_final[bc]
        if coeff:
            row = tableau[i]
            zrow_final = [zc + coeff * rc for zc, rc in zip(zrow_final, row[:ncols])]
    dual = []
    for i, (_dense, _rhs, flip, _rel) in enumerate(rows):
        yi = zrow_final[id_col[i]]
        dual.append(-yi if flip else yi)

    value = sum((c * primal[j] for j, c in norm.objective.items()), start=zero)
    if not maximize:
        dual = [-yi for yi in dual]
    return LpSolution(LpSolution.OPTIMAL, value, primal, dual, "exact")


# ---------------------------------------------------------------------------
# the row writer
# ---------------------------------------------------------------------------

def test_append_rows_keeps_a_coefficient_past_two_to_the_53_exact():
    """2**53 + 1 has no float; the row holds it as it was given."""
    lp = LinProgram(2, "max", {0: 1})
    L.append_rows(lp, [(np.array([[0, 1]]), [2 ** 53 + 1, 1])], [1], LE)
    assert lp.constraints[0].coeffs == ((0, 2 ** 53 + 1), (1, 1))


@pytest.mark.parametrize("coeffs", [[2 ** 53 + 1, 0.5], [2 ** 63 + 1, 1]],
                         ids=["beside-a-float", "past-int64"])
def test_append_rows_keeps_list_entries_as_given(coeffs):
    """numpy reads each list as float64, which rounds its first entry to
    2**53 or 2**63; the rows hold the entries given, as ``add``'s do."""
    lp, added = LinProgram(2, "max", {0: 1}), LinProgram(2, "max", {0: 1})
    L.append_rows(lp, [(np.array([[0, 1]]), coeffs)], [1], LE)
    added.add(dict(enumerate(coeffs)), LE, 1)
    assert np.array(coeffs).dtype == float
    assert lp.constraints[0].coeffs == ((0, coeffs[0]), (1, F(coeffs[1])))
    assert L.dump_lp(lp) == L.dump_lp(added)


def test_append_rows_sums_past_int64_in_python_ints():
    """Two 2**62 terms in one column sum to 2**63, one past int64."""
    lp = LinProgram(1, "max", {0: 1})
    L.append_rows(lp, [(np.array([[0, 0]]), np.array([2 ** 62, 2 ** 62]))],
                  [1], LE)
    assert lp.data.tolist() == [2 ** 63]
    assert type(lp.data[0]) is int


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_append_rows_sums_a_repeated_column(mode):
    """max x0 s.t. x0 + 2 x0 <= 3 is the row 3 x0 <= 3 in both modes."""
    lp = LinProgram(1, "max", {0: 1})
    L.append_rows(lp, [(np.array([[0, 0]]), [1, 2])], [3], LE)
    assert lp.constraints[0].coeffs == ((0, 3),)
    assert _solve(lp, mode).value == 1


def test_append_rows_puts_fractions_over_one_denominator():
    """Blocks of ints, Fractions and int arrays share one denominator."""
    lp = LinProgram(2, "max", {0: 1})
    L.append_rows(lp, [(np.array([[0, 1], [1, 0]]), [F(1, 3), F(1, 2)]),
                       (np.array([[1]]), np.array([3]))], [1, 2, 3], LE)
    assert [c.coeffs for c in lp.constraints] == [
        ((0, F(1, 3)), (1, F(1, 2))), ((0, F(1, 2)), (1, F(1, 3))), ((1, 3),)]
    assert lp.den == 6


# Coefficients that cancel (small ints, Fractions) and pass int64.
_ROW_COEFFS = st.one_of(
    st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3),
    st.sampled_from([2 ** 63, -2 ** 63 - 1, 2 ** 64 + 3, -2 ** 64 - 3]))


@st.composite
def _row_blocks(draw):
    """(variable count, blocks, right-hand sides) for ``append_rows``:
    blocks of empty rows, repeated columns within a row, and rows that
    repeat within and across blocks."""
    num_vars = draw(st.integers(1, 3))
    blocks = []
    for _ in range(draw(st.integers(0, 3))):
        width, rows = draw(st.integers(0, 4)), draw(st.integers(0, 5))
        columns = draw(st.lists(st.lists(
            st.integers(0, num_vars - 1), min_size=width, max_size=width),
            min_size=rows, max_size=rows))
        coeffs = draw(st.lists(_ROW_COEFFS, min_size=width, max_size=width))
        if draw(st.booleans()) and all(type(c) is int and abs(c) <= 2
                                       for c in coeffs):
            coeffs = np.array(coeffs, np.int64)
        blocks.append((np.array(columns, np.intp).reshape(rows, width),
                       coeffs))
    count = sum(len(j) for j, _ in blocks)
    rhs = draw(st.lists(st.sampled_from([0, 1, F(1, 2), 2 ** 64]),
                        min_size=count, max_size=count))
    return num_vars, blocks, rhs


def _dict_rows(blocks, rhs, distinct):
    """``append_rows``' rows by a dict per row: each column's terms summed
    in ``Fraction``s, zero sums dropped, and, if ``distinct``, only the
    first of equal rows (right-hand side included)."""
    rows, rhs = [], iter(rhs)
    for j, coeffs in blocks:
        for columns in j.tolist():
            sums = {}
            for col, c in zip(columns, coeffs):
                sums[col] = sums.get(col, 0) + F(int(c) if isinstance(
                    c, np.integer) else c)
            row = (tuple(sorted((col, c) for col, c in sums.items() if c)),
                   F(next(rhs)))
            if not (distinct and row in rows):
                rows.append(row)
    return rows


@pytest.mark.parametrize("distinct", [False, True])
@settings(max_examples=300, deadline=None)
@given(data=_row_blocks())
def test_append_rows_matches_a_dict_per_row(distinct, data):
    """Rows appended after one row with a Fraction coefficient are the
    dict oracle's rows, in order, with columns ascending, and the first
    row is kept as it was."""
    num_vars, blocks, rhs = data
    prog = LinProgram(num_vars)
    prog.add({0: F(1, 5)}, GE, F(1, 7))
    L.append_rows(prog, blocks, rhs, EQ, distinct=distinct)
    rows = [(con.coeffs, con.rhs) for con in prog.constraints]
    assert rows[0] == (((0, F(1, 5)),), F(1, 7))
    assert rows[1:] == _dict_rows(blocks, rhs, distinct)
    assert prog.rel.tolist() == [L._GE] + [L._EQ] * (len(rows) - 1)
    assert prog.indptr[-1] == len(prog.indices) == len(prog.data)


@pytest.mark.parametrize("distinct", [False, True])
@pytest.mark.parametrize("b", [0, 1, F(1, 37), F(3 ** 41 + 1, 3 ** 41),
                               2 ** 70],
                         ids=["0", "1", "1/37", "past-int64-den", "2**70"])
def test_one_right_hand_side_is_a_list_of_its_copies(b, distinct):
    """One number as the right-hand side of every row gives the arrays,
    denominators and dtypes of a list of one copy per row, on rows that
    repeat within and across blocks, after a row over another
    denominator."""
    blocks = [(np.array([[0, 1], [1, 0], [0, 1]]), [F(1, 3), 2]),
              (np.array([[2, 2], [0, 1]]), np.array([1, 1])),
              (np.array([[0, 1]]), [F(1, 3), 2])]
    count = sum(len(j) for j, _ in blocks)
    shared, listed = LinProgram(3), LinProgram(3)
    for prog, rhs in ((shared, b), (listed, [b] * count)):
        prog.add({0: F(1, 5)}, GE, F(1, 7))
        L.append_rows(prog, blocks, rhs, LE, distinct=distinct)
    assert (shared.den, shared.rhs_den) == (listed.den, listed.rhs_den)
    for name in ("indptr", "indices", "data", "rhs", "rel"):
        got, want = getattr(shared, name), getattr(listed, name)
        assert got.dtype == want.dtype and got.tolist() == want.tolist()
    assert len(shared.rhs) == (5 if distinct else 7)


def test_one_right_hand_side_is_checked_and_needs_no_rows():
    """A NaN right-hand side for every row is refused as a per-row one
    is, and one number with no blocks appends nothing."""
    prog = LinProgram(2)
    L.append_rows(prog, [(np.array([[0, 1]]), [1, 1])], [1], LE)
    arrays = [prog.indptr, prog.indices, prog.data, prog.rhs, prog.rel]
    with pytest.raises(L.LpError, match=r"^right-hand side is nan, not finite$"):
        L.append_rows(prog, [(np.array([[0, 1]]), [1, 1])], math.nan, LE)
    L.append_rows(prog, [], 1, LE)
    assert all(new is old for new, old in zip(
        [prog.indptr, prog.indices, prog.data, prog.rhs, prog.rel], arrays))


def test_rows_given_as_pairs_are_refused():
    """A row is a dict {column: coefficient}, so it names a column once;
    a list of pairs, which could name one twice, has no ``items``."""
    lp = LinProgram(1, "max", {0: 1})
    pairs = [(0, 1), (0, 2)]
    with pytest.raises(AttributeError):
        lp.add(pairs, "<=", 3)
    with pytest.raises(AttributeError):
        L.make_constraint(pairs, "<=", 3)
    assert not len(lp.rhs)


@pytest.mark.parametrize("where", ["rhs", "coefficient"])
def test_first_row_over_a_denominator_past_int64(where):
    """The first row of an empty program may carry a denominator past
    int64, 3**41, on its right-hand side or in a coefficient."""
    q = F(3 ** 41 + 1, 3 ** 41)
    lp = LinProgram(1, "max", {0: 1})
    if where == "rhs":
        lp.add({0: 1}, "<=", q)
    else:
        lp.add({0: q}, "<=", 2)
    sol = _solve(lp)
    assert sol.certified
    assert sol.value == (q if where == "rhs" else F(2 * 3 ** 41, 3 ** 41 + 1))


def test_library_builders_write_rows_without_add(monkeypatch, chsh_game,
                                                 chain_game,
                                                 chain_guessing_game):
    """Every library LP builder appends its rows as index blocks: with
    ``LinProgram.add`` broken, the NS and eps-NS LPs of chain-guessing,
    a chain-line LP and the two-round value-constrained CHSH LP build and
    solve."""
    def broken(*args, **kwargs):
        raise AssertionError("LinProgram.add called")
    monkeypatch.setattr(LinProgram, "add", broken)
    prog, _ = NV._behavior_lp(chain_guessing_game, G.game_value_coefficients(
        chain_guessing_game))
    assert L.solve_certified(prog, "exact").value == F(8, 9)
    assert NV.eps_ns_value(chain_guessing_game, F(1, 20)).value == F(17, 18)
    assert NV.single_round_guessing(chain_game, 0, 5, functional=(
        G.chain_i3_coefficients())) == F(3, 4)
    scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
    assert T.tons_guessing_probability(chsh_game, None, (0, 0), scenario,
                                       omega_star=F(7, 8)) == F(5, 8)


def _pinned_solution(label):
    """The exact optimum of one certificate pin: kind, then parameter."""
    kind, _, arg = label.partition(":")
    chain, chsh = G.make_chain_game(), G.make_chsh_game()
    if kind == "chain-line":
        return NV.single_round_guessing(
            chain, 0, F(arg), functional=G.chain_i3_coefficients(),
            with_solution=True)[1]
    if kind == "magic-square":
        return NV.single_round_guessing(G.make_magic_square_game(), int(arg),
                                        1, with_solution=True)[1]
    guessing = G.make_guessing_game(chain)
    if kind == "eps-ns":
        return NV.eps_ns_value(guessing, F(arg)).solution
    if kind == "ns-value":
        prog = NV._behavior_lp(guessing,
                               G.game_value_coefficients(guessing))[0]
    elif kind == "value":
        scenario = T.CausalScenario.for_game(arg, 2, chsh)
        prog = T.build_guessing_lp(chsh, None, (0, 0), scenario,
                                   omega_star=F(7, 8)).program
    else:
        scenario = T.CausalScenario.for_game(arg, 2, chsh)
        marginal = G.product_behavior(
            G.make_pr_v(G.NoisyPRParams(F(1, 2))), 2)
        prog = T.build_guessing_lp(
            chsh, marginal, (0, 0), scenario,
            relabellings=T.marginal_symmetries(marginal, scenario,
                                               (0, 0))).program
    return L.solve_certified(prog, "exact")


@pytest.mark.parametrize("label, value, digest", [
    ("chain-line:9/2", F(7, 8),
     "e2b2b008d3e6c4701ae8f6221fd0db70d3ac4baa72a3b736df0fd3f70bdcd8ec"),
    ("chain-line:5", F(3, 4),
     "2cea961454c806803e0b36f8da52a5b1dc8335e54dd3055c119ed941cf03a56b"),
    ("chain-line:17/3", F(7, 12),
     "047d6b14e020b53c202650e3147a08fbc1c2920a92bb4d328152ece3d67d6bb4"),
    ("magic-square:0", F(1),
     "9fb1172ab1b99b28b2c9352eccb90f82df7652479b5e938fa12e429a4fb0fa78"),
    ("eps-ns:1/20", F(17, 18),
     "52fbfe3641641b1839d2e08a8ac48dfebd6f05f5ed11876290db23f675dc44fe"),
    ("eps-ns:1/37", F(34, 37),
     "90165509bd88ac51bced4a26f7745ff625d1cb07f4a37c3ec97a95acb89153ce"),
    ("ns-value:", F(8, 9),
     "61ab92e16df227d4ecf1180f8e4efc27345bae7a89bae56087f8d5d36de45905"),
    ("slice:tons", F(5, 8),
     "cce446fe9fcb6b2bd047495ddcb3c4a46f245dce589d1e767acb86db040e5bcd"),
    ("slice:abns", F(23, 32),
     "ad7d8836e3efede3aa8835205d988773b20f87889698276d5157a80a1f2830a8"),
    ("value:tons", F(5, 8),
     "3cc827e73f1c575d7d543ee6a85f4c474fe4eb78a522ae7df9ba885bccbe0406"),
])
def test_exact_certificates_are_pinned(label, value, digest):
    """The certified optimum of each LP, not just its value, stays the
    same: the sha256 of the value, the primal and the dual as p/q lines.
    The n = 2 slices are of the noisy PR box at v = 1/2."""
    sol = _pinned_solution(label)
    assert sol.certified and sol.value == value
    text = "".join(line + "\n" for line in (
        frac_str(sol.value), " ".join(map(frac_str, sol.primal)),
        " ".join(map(frac_str, sol.dual))))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
