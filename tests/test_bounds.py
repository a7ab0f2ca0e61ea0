"""Tests for the concentration-bound formulas and their consistency."""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from nsrand import bounds as B
from nsrand import games as G


class TestAzuma:
    def test_reference_point(self):
        assert B.azuma_abort_bound(1000, 0.05) == \
            pytest.approx(2 * math.exp(-1.25), rel=1e-15)

    def test_decreases_to_zero_in_n(self):
        values = [B.azuma_abort_bound(n, 0.1)
                  for n in (10, 100, 1000, 10000, 100000)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-20

    def test_formal_n_zero_clamps_in_reporting(self):
        raw = B.azuma_abort_bound(0, 0.1)
        assert raw == 2.0
        assert B.clamp_probability(raw) == 1.0

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(B.InfeasibleParamsError):
            B.azuma_abort_bound(10, 0.0)


class TestChernoff:
    def test_equal_arguments_give_one(self):
        assert B.chernoff_bound(50, 0.5, 0.5).kl_bound == 1.0

    def test_kl_dominates_quadratic(self):
        """D(gamma||zeta) >= 2 (gamma - zeta)^2 on a 100-point grid."""
        for gamma in np.linspace(0.0, 1.0, 10):
            for zeta in np.linspace(0.0, 1.0, 10):
                if zeta > gamma:
                    continue
                d = B.binary_relative_entropy(gamma, zeta)
                assert d >= 2 * (gamma - zeta) ** 2 - 1e-12

    def test_kl_bound_tighter_in_the_tail(self):
        bound = B.chernoff_bound(300, 0.8, 2 / 3)
        d = B.binary_relative_entropy(0.8, 2 / 3)
        assert bound.kl_bound == pytest.approx(math.exp(-300 * d), rel=1e-12)
        assert bound.kl_bound <= bound.quadratic_bound

    def test_rejects_gamma_below_zeta(self):
        with pytest.raises(B.InfeasibleParamsError):
            B.chernoff_bound(10, 0.4, 0.5)


class TestParallelRepetition:
    def test_default_mu_constant(self):
        assert 6 ** 9 * 5 ** 2 == 251942400
        assert B.MU_CHAIN == F(1, 251942400)
        assert float(B.MU_CHAIN) == pytest.approx(3.969e-9, rel=1e-3)

    def test_reference_evaluation(self):
        value = B.parallel_rep_bound(10 ** 9, 0.05)
        assert 0 < value < 8
        assert value == pytest.approx(
            8 * math.exp(-0.05 ** 4 * float(B.MU_CHAIN) * 10 ** 9), rel=1e-12)

    def test_monotone_in_each_argument(self):
        base = B.parallel_rep_bound(10 ** 12, 0.05)
        assert B.parallel_rep_bound(10 ** 13, 0.05) < base
        assert B.parallel_rep_bound(10 ** 12, 0.06) < base
        assert B.parallel_rep_bound(10 ** 12, 0.05, mu=2 * float(B.MU_CHAIN)) \
            < base


class TestDecayReport:
    def test_feasible_at_quantum_value(self):
        """Splitting the budget at the chain's quantum value is feasible."""
        margin = B.CHAIN_QUANTUM_VALUE - 8 / 9
        params = B.DecayParams(10 ** 6, margin / 2, margin / 2, 0.75)
        assert params.feasible
        report = B.tons_decay_report(params)
        assert report.t == pytest.approx((params.omega_star - params.kappa)
                                         * params.n)

    def test_omega_star_above_quantum_value_infeasible(self):
        params = B.DecayParams.from_omega_star(100, 0.97)
        with pytest.raises(B.InfeasibleParamsError, match="4 \\+ sqrt"):
            B.tons_decay_report(params)

    def test_headline_is_three_parallel_repetitions(self):
        params = B.DecayParams(10 ** 7, 0.03, 0.03, 0.75)
        report = B.tons_decay_report(params)
        expected = 24 * math.exp(-0.03 ** 4 * params.mu * params.n)
        assert report.headline_raw == pytest.approx(expected, rel=1e-12)
        assert report.headline_raw == pytest.approx(
            3 * B.parallel_rep_bound(params.n, params.delta, params.mu),
            rel=1e-12)

    def test_conditional_bound_below_three_parallel_reps(self):
        """8 e / (1 - abort) <= 24 e whenever the no-abort mass is >= 1/3."""
        for n in (10 ** 5, 10 ** 7, 10 ** 9):
            params = B.DecayParams(n, 0.03, 0.03, 0.75)
            report = B.tons_decay_report(params)
            if 1.0 - report.abort_bound_raw >= 1 / 3:
                assert report.guess_given_no_abort_raw <= \
                    report.headline_raw + 1e-15

    def test_headline_monotone_and_rate_analytic(self):
        reports = [B.tons_decay_report(B.DecayParams(n, 0.04, 0.02, 0.75))
                   for n in (10 ** 3, 10 ** 6, 10 ** 9, 10 ** 12)]
        raws = [r.headline_raw for r in reports]
        assert all(b < a for a, b in zip(raws, raws[1:]))
        moderate = reports[0]
        assert moderate.hmin_rate == pytest.approx(
            -math.log2(moderate.headline_raw) / moderate.params.n, rel=1e-9)

    def test_useful_regime_onset_is_astronomical(self):
        """The constants put the sub-unit headline beyond 1e13 rounds."""
        report = B.tons_decay_report(B.DecayParams(10, 0.05, 0.01, 0.75))
        assert report.useful_n_onset == math.ceil(
            math.log(24) / (0.05 ** 4 * float(B.MU_CHAIN)))
        assert report.useful_n_onset > 10 ** 13

    def test_parameter_validation(self):
        with pytest.raises(B.InfeasibleParamsError):
            B.DecayParams(10, 0.2, 0.01, 0.75)      # delta >= 1/10
        with pytest.raises(B.InfeasibleParamsError):
            B.DecayParams(10, 0.05, 0.01, 0.5)      # gamma <= 2/3
        with pytest.raises(B.InfeasibleParamsError):
            B.DecayParams.from_omega_star(10, 0.8)  # below 8/9


class TestMuConsistency:
    def test_exact_rational_identity(self):
        """(1/27)^2 = (10/9)^2 * 6^7 * (1/(6^9 * 25)) holds exactly."""
        assert F(1, 27) ** 2 == F(10, 9) ** 2 * 6 ** 7 * F(1, 6 ** 9 * 25)
        assert F(1, 27) ** 2 / (F(10, 9) ** 2 * 6 ** 7) == F(1, 6 ** 9 * 5 ** 2)

    def test_full_check_with_lp_slope(self):
        """pi_min from the built game and alpha from the LP reproduce mu."""
        report = B.mu_consistency_check()
        assert report.consistent
        assert report.pi_min == F(1, 27)
        assert report.alpha == F(10, 9)
        assert report.mu_from_formula == B.MU_CHAIN

    def test_pi_min_is_the_least_entry_of_the_integer_form(self):
        """pi_min is read off ``Game.integers`` as an exact Fraction: the
        least entry of the guessing game's pi dict."""
        guessing = G.make_guessing_game(G.make_chain_game())
        report = B.mu_consistency_check()
        assert type(report.pi_min) is F
        assert report.pi_min == min(guessing.pi.values()) == B.PI_MIN_CHAIN


class TestNonFiniteParameters:
    """A NaN passed every ``<= 0`` check: the bounds returned NaN, and the
    decay report raised from ``math.ceil``.  Non-finite inputs are refused
    by name; finite ones keep their messages."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name, call", [
        ("kappa", lambda q: B.azuma_abort_bound(10, q)),
        ("delta", lambda q: B.parallel_rep_bound(10, q)),
        ("mu", lambda q: B.parallel_rep_bound(10, 0.05, mu=q)),
        ("t", lambda q: B.chernoff_bound(q, 0.7, 0.6)),
        ("kappa", lambda q: B.DecayParams(10, 0.03, q, 0.75)),
        ("mu", lambda q: B.DecayParams(10, 0.03, 0.03, 0.75, mu=q)),
        ("omega_star", lambda q: B.DecayParams.from_omega_star(10, q))])
    def test_refused_by_name(self, name, call, value):
        with pytest.raises(B.InfeasibleParamsError,
                           match=f"^{name} must be finite, got {value}$"):
            call(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("call", [
        lambda n: B.azuma_abort_bound(n, 0.1),
        lambda n: B.parallel_rep_bound(n, 0.05),
        lambda n: B.DecayParams(n, 0.03, 0.03, 0.75)],
        ids=["azuma", "parallel-rep", "decay"])
    def test_round_count_refused_by_name(self, call, value):
        """A NaN round count gave a NaN bound and an infinite one 0 or
        +inf; ``DecayParams`` took both."""
        with pytest.raises(B.InfeasibleParamsError,
                           match=f"^n must be finite, got {value}$"):
            call(value)

    def test_negative_round_count_refused(self):
        """``parallel_rep_bound`` read no sign of n: at n = -5 it returned
        a bound above 8; it is refused in ``azuma_abort_bound``'s words."""
        for call in (B.azuma_abort_bound, B.parallel_rep_bound):
            with pytest.raises(B.InfeasibleParamsError) as error:
                call(-5, 0.05)
            assert str(error.value) == "n must be nonnegative, got -5"

    @pytest.mark.parametrize("n", [10.5, 10.0, F(21, 2)])
    def test_decay_round_count_must_be_an_integer(self, n):
        """``DecayParams(10.5, ...)`` was built, and its decay report gave
        a min-entropy rate for 10.5 rounds; a round count that is not an
        integer is refused by name."""
        with pytest.raises(B.InfeasibleParamsError,
                           match=rf"^n must be an integer, got {n}$"):
            B.DecayParams(n, 0.03, 0.03, 0.75)
        with pytest.raises(B.InfeasibleParamsError,
                           match=rf"^n must be an integer, got {n}$"):
            B.DecayParams.from_omega_star(n, 0.97)

    def test_finite_messages_are_unchanged(self):
        for call, message in [
                (lambda: B.azuma_abort_bound(10, 0.0),
                 "kappa must be positive, got 0.0"),
                (lambda: B.parallel_rep_bound(10, 0.0),
                 "delta and mu must be positive"),
                (lambda: B.chernoff_bound(-1.0, 0.7, 0.6),
                 "t must be nonnegative, got -1.0"),
                (lambda: B.DecayParams(10, 0.03, 0.03, 0.75, mu=0.0),
                 "mu must be positive, got 0.0")]:
            with pytest.raises(B.InfeasibleParamsError) as error:
                call()
            assert str(error.value) == message
