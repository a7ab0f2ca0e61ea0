"""Acceptance suite: one test per criterion, each printing PASS/FAIL.

Every criterion asserts at its stated tolerance and runtime budget; run
with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  The asymptotic decay statement itself is not reproducible at
desk scale (its constants place the useful regime beyond 1e13 rounds);
criterion 9 therefore checks the formula level and consistency, as the
criteria themselves prescribe.
"""

import math
import time
from fractions import Fraction as F

import numpy as np

from nsrand import bounds as B
from nsrand import chain as C
from nsrand import games as G
from nsrand import ksattack as K
from nsrand import nsvalues as NV
from nsrand import tons as T


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {tag}" + (f" ({detail})" if detail else ""))
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_tons_n2_exact(chsh_game):
    """TONS n=2: exact LP equals 1 - 3v/4 on the five-point noise grid."""
    scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
    worst = 0.0
    for v in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
        marginal = G.product_behavior(G.make_pr_v(G.NoisyPRParams(v)), 2)
        start = time.monotonic()
        pg = T.tons_guessing_probability(chsh_game, marginal, (0, 0), scenario)
        elapsed = time.monotonic() - start
        worst = max(worst, elapsed)
        assert pg == 1 - 3 * v / 4, f"v={v}: {pg}"
        assert elapsed < 60, f"v={v} took {elapsed:.1f}s"
    _report("1 (TONS n=2 exact, 1 - 3v/4)", True, f"max {worst:.1f}s/instance")


def test_criterion_2_tons_n3_float(chsh_game):
    """TONS n=3: float LP within 1e-6 of 1 - 7v/8 for v above sqrt(5)-2."""
    scenario = T.CausalScenario.for_game(T.TONS, 3, chsh_game)
    worst_err = 0.0
    worst_time = 0.0
    for v in (F(1, 4), F(1, 2), F(1)):
        marginal = G.product_behavior(G.make_pr_v(G.NoisyPRParams(v)), 3)
        start = time.monotonic()
        pg = T.tons_guessing_probability(chsh_game, marginal, (0, 0, 0),
                                         scenario, mode="float")
        elapsed = time.monotonic() - start
        err = abs(pg - float(1 - 7 * v / 8))
        worst_err = max(worst_err, err)
        worst_time = max(worst_time, elapsed)
        assert err <= 1e-6, f"v={v}: error {err:.2e}"
        assert elapsed < 120, f"v={v} took {elapsed:.1f}s"
    _report("2 (TONS n=3 float, 1 - 7v/8)", True,
            f"max error {worst_err:.1e}, max {worst_time:.0f}s/instance")


def test_criterion_3_guessing_game_values(chain_guessing_game):
    """Guessing game: 8/9 at epsilon 0, (8+10e)/9 in the linear regime,
    saturation at 1, all with verified dual certificates, each < 10 s."""
    checks = [(None, F(8, 9))] + \
        [(e, (8 + 10 * e) / 9) for e in (F(1, 40), F(1, 20), F(1, 10))] + \
        [(F(1, 5), F(1))]
    for eps, expected in checks:
        start = time.monotonic()
        if eps is None:
            value = NV.ns_value(chain_guessing_game)
        else:
            report = NV.eps_ns_value(chain_guessing_game, eps)
            value = report.value
            assert report.solution.certified
        elapsed = time.monotonic() - start
        assert value == expected, f"eps={eps}: {value} != {expected}"
        assert elapsed < 10, f"eps={eps} took {elapsed:.1f}s"
    _report("3 (guessing-game values with certificates)", True)


def test_criterion_4_chain_ns_line(chain_game):
    """Chain NS line: the guessing LP equals 2 - w/4 exactly."""
    samples = [F(4), F(9, 2), F(5), F(11, 2), F(6)]
    rows = NV.chain_ns_guessing_curve(samples)
    for (w, pg) in rows:
        assert pg == 2 - w / 4, f"w={w}: {pg}"
    _report("4 (chain NS guessing line 2 - w/4)", True)


def test_criterion_5_magic_square_bound_randomness(magic_square_game):
    """Magic square at maximal value: guessing probability exactly 1."""
    for x_star in range(3):
        pg = NV.single_round_guessing(magic_square_game, x_star, 1)
        assert pg == 1, f"x*={x_star}: {pg}"
    _report("5 (magic square bound randomness)", True)


def test_criterion_6_chain_consistency_suite():
    """Appendix-style analytics: oracle match, round trip, endpoints,
    and the fixed strategy's game value."""
    thetas = np.linspace(0.0, math.pi - 1e-3, 200)
    worst_oracle = max(abs(C.qubit_strategy(t).chained_expression()
                           - C.quantum_value(t)) for t in thetas)
    assert worst_oracle < 1e-10, f"(a) oracle mismatch {worst_oracle:.2e}"

    worst_rt = max(abs(C.pg_quantum_of_w(C.quantum_value(t))
                       - C.guessing_from_theta(t)) for t in thetas)
    assert worst_rt < 1e-8, f"(b) round trip {worst_rt:.2e}"

    assert abs(C.pg_quantum_of_w(4.0) - 1.0) < 1e-10, "(c) endpoint w=4"
    assert abs(C.pg_quantum_of_w(3 * math.sqrt(3)) - 0.5) < 1e-10, \
        "(c) endpoint w=3sqrt3"
    assert abs(C.quantum_value(0.0) - 4.0) < 1e-10
    assert abs(C.quantum_value(math.pi) - 3 * math.sqrt(3)) < 1e-10

    value = C.chain_game_quantum_value()
    assert abs(value - (4 + math.sqrt(3)) / 6) < 1e-12, f"(d) {value}"
    _report("6 (chain analytics consistency)", True,
            f"oracle {worst_oracle:.1e}, roundtrip {worst_rt:.1e}")


def test_criterion_7_ks_attack_pipeline():
    """Bundled Cabello and single-basis sets: full verifier passes exactly
    and the attack marginals span at least d-1 affine dimensions."""
    start = time.monotonic()
    for name, expect_dim in (("cabello18", 3), ("single_basis", 2)):
        ks = K.load_bundled_ks(name)
        attack = K.tripartite_attack(ks, 0)
        report = K.verify_behavior(attack, game=K.make_ks_game(ks))
        assert report.all_passed, f"{name}:\n{report.summary()}"
        dim = K.attack_affine_dimension(list(attack.blocks.values()))
        assert dim >= expect_dim, f"{name}: affine dimension {dim}"
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"pipeline took {elapsed:.1f}s"
    _report("7 (KS attack pipeline)", True, f"{elapsed:.1f}s total")


def test_criterion_8_constants_identity(chain_guessing_game):
    """(1/27)^2 / ((10/9)^2 6^7) = 1/(6^9 5^2) with the slope from the LP."""
    alpha = NV.alpha_slope(chain_guessing_game,
                           [F(0), F(1, 40), F(1, 20)])
    assert alpha == F(10, 9), f"alpha = {alpha}"
    pi_min = min(chain_guessing_game.pi.values())
    assert pi_min == F(1, 27)
    assert pi_min ** 2 / (alpha ** 2 * 6 ** 7) == F(1, 6 ** 9 * 5 ** 2)
    _report("8 (exact constants identity)", True)


def test_criterion_9_decay_curve_and_feasibility():
    """Headline 24 exp(-d^4 mu n) reproduced, monotone in n; omega* above
    the quantum value flagged infeasible.  (The asymptotic theorem itself
    is out of desk reach; these formula-level checks stand in, as stated.)"""
    params = [B.DecayParams(n, 0.04, 0.02, 0.75)
              for n in (10 ** 2, 10 ** 5, 10 ** 8, 10 ** 11, 10 ** 14)]
    headlines = [B.tons_decay_report(p).headline_raw for p in params]
    for p, h in zip(params, headlines):
        expected = 24 * math.exp(-p.delta ** 4 * p.mu * p.n)
        assert abs(h - expected) <= 1e-12 * expected
    assert all(b < a for a, b in zip(headlines, headlines[1:]))

    try:
        B.tons_decay_report(B.DecayParams.from_omega_star(1000, 0.97))
        flagged = False
    except B.InfeasibleParamsError:
        flagged = True
    assert flagged, "omega* = 0.97 not flagged"
    _report("9 (decay curve and feasibility flag)", True)
