"""Tests for multi-round causal constraint sets and guessing LPs."""

import dataclasses
import hashlib
import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings, strategies as st

from nsrand import games as G
from nsrand import ksattack as K
from nsrand import lp as L
from nsrand import nsvalues as NV
from nsrand import tons as T

from conftest import oracle_rows


def _pr_product(v, n):
    return G.product_behavior(G.make_pr_v(G.NoisyPRParams(v)), n)


def _is_output_only(r):
    """Identity inputs and one output permutation per party."""
    return (r.alice_inputs == tuple(range(len(r.alice_inputs)))
            and r.bob_inputs == tuple(range(len(r.bob_inputs)))
            and len(set(r.alice_outputs)) == len(set(r.bob_outputs)) == 1)


def output_relabellings(marginal, scenario):
    """The output-only relabellings among the marginal's symmetries."""
    return [r for r in T.marginal_symmetries(marginal, scenario,
                                             (0,) * scenario.rounds)
            if _is_output_only(r)]


def _output_only(k, alice, bob):
    """Round k's output-only relabelling by the permutations alice, bob."""
    return T.LocalRelabelling(k, (0, 1), (alice, alice), (0, 1), (bob, bob))


def _independent_count(scenario):
    """Count Def-style constraint tuples by direct enumeration."""
    n = scenario.rounds
    na, nb, nx, ny = (scenario.alice_outputs, scenario.bob_outputs,
                      scenario.alice_inputs, scenario.bob_inputs)
    levels = range(n) if scenario.kind == T.TONS else (0,)
    count = 0
    for i in levels:
        # Bob side: (a-string, b-prefix, x-string, y-prefix, y-suffix != ref)
        for _ in itertools.product(range(na ** n), range(nb ** i),
                                   range(nx ** n), range(ny ** i)):
            count += ny ** (n - i) - 1
        for _ in itertools.product(range(nb ** n), range(na ** i),
                                   range(ny ** n), range(nx ** i)):
            count += nx ** (n - i) - 1
    return count


def causal_constraint_count(scenario):
    """Closed-form row count of build_causal_constraints."""
    n = scenario.rounds
    na, nb, nx, ny = (scenario.alice_outputs, scenario.bob_outputs,
                      scenario.alice_inputs, scenario.bob_inputs)
    levels = range(n) if scenario.kind == T.TONS else (0,)
    total = 0
    for i in levels:
        total += (na ** n) * (nb ** i) * (nx ** n) * (ny ** i) * (ny ** (n - i) - 1)
        total += (nb ** n) * (na ** i) * (ny ** n) * (nx ** i) * (nx ** (n - i) - 1)
    return total


def satisfies_causal_constraints(behavior, scenario):
    """Evaluate the scenario's equality rows directly on a behavior."""
    SA, SB, SX, SY = scenario.string_sizes
    entries = [behavior.entry((A, B), (X, Y)) for A, B, X, Y in
               itertools.product(range(SA), range(SB), range(SX), range(SY))]
    for index, coeffs in T.build_causal_constraints(scenario).blocks:
        for row in index.tolist():
            total = F(0)
            for f, c in zip(row, coeffs.tolist()):
                total += c * entries[f]
            if total != 0:
                return False
    return True


def _random_ns_behavior(rng):
    """Convex combination of local deterministic and PR-type vertices."""
    table = {((a, b), (x, y)): F(0) for a in range(2) for b in range(2)
             for x in range(2) for y in range(2)}
    weights = [F(rng.randint(0, 8)) for _ in range(3)]
    if not any(weights):
        weights[0] = F(1)  # an all-zero mixture is not a behavior
    total = sum(weights)
    for weight in weights:
        kind = rng.random() < 0.5
        if kind:
            fa = [rng.randint(0, 1) for _ in range(2)]
            fb = [rng.randint(0, 1) for _ in range(2)]
            for x in range(2):
                for y in range(2):
                    table[((fa[x], fb[y]), (x, y))] += weight / total
        else:
            alpha, beta, gamma = (rng.randint(0, 1) for _ in range(3))
            for x in range(2):
                for y in range(2):
                    for a in range(2):
                        b = a ^ (x & y) ^ (alpha & x) ^ (beta & y) ^ gamma
                        table[((a, b), (x, y))] += weight / total / 2
    return G.Behavior((2, 2), (2, 2), table)


class TestCausalConstraints:
    def test_single_round_equals_bipartite_ns(self, chsh_game):
        """At n = 1 the constraint family is plain no-signalling."""
        scenario = T.CausalScenario.for_game(T.TONS, 1, chsh_game)
        rows = T.build_causal_constraints(scenario)
        assert len(rows) == 8   # 2 parties x 2 kept outputs x 2 contexts
        pr = G.make_pr_v(G.NoisyPRParams(F(1, 2)))
        assert satisfies_causal_constraints(pr, scenario)

    def test_constraint_count_matches_enumerator(self, chsh_game):
        for kind in (T.TONS, T.ABNS):
            for n in (1, 2):
                scenario = T.CausalScenario.for_game(kind, n, chsh_game)
                rows = T.build_causal_constraints(scenario)
                assert len(rows) == causal_constraint_count(scenario)
                assert len(rows) == _independent_count(scenario)

    @pytest.mark.parametrize("sizes", [(2, 2, 2, 2), (3, 2, 2, 3),
                                       (2, 3, 3, 1)])
    def test_index_rows_are_the_ns_equality_rows(self, sizes):
        """The index blocks hold the no-signalling equality rows of the
        oracle (``conftest.oracle_rows``), Bob's family first, row by row
        and term by term."""
        na, nb, nx, ny = sizes
        for kind in (T.TONS, T.ABNS):
            for n in (1, 2):
                scenario = T.CausalScenario(kind, n, *sizes)
                keys = list(itertools.product(
                    itertools.product(range(na ** n), range(nb ** n)),
                    itertools.product(range(nx ** n), range(ny ** n))))
                rows = [list(zip((keys[f] for f in row), coeffs.tolist()))
                        for index, coeffs in
                        T.build_causal_constraints(scenario).blocks
                        for row in index.tolist()]
                assert rows == [list(row.items()) for row in
                                oracle_rows((na, nb), (nx, ny),
                                            G.BLOCK_FAMILIES, n,
                                            kind == T.TONS)]

    def test_tons_points_are_abns_feasible(self, chsh_game):
        """Random mixtures of NS-vertex products satisfy both families."""
        rng = random.Random(42)
        tons2 = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
        abns2 = T.CausalScenario.for_game(T.ABNS, 2, chsh_game)
        for _ in range(50):
            product = G.product_behavior(_random_ns_behavior(rng), 2)
            assert satisfies_causal_constraints(product, tons2)
            assert satisfies_causal_constraints(product, abns2)

    def test_signalling_behavior_fails(self, chsh_game):
        scenario = T.CausalScenario.for_game(T.TONS, 1, chsh_game)
        table = {((a, b), (x, y)): F(1 if a == y and b == 0 else 0)
                 for a in range(2) for b in range(2)
                 for x in range(2) for y in range(2)}
        signalling = G.Behavior((2, 2), (2, 2), table)
        assert not satisfies_causal_constraints(signalling, scenario)


class TestNsRowProperties:
    """The no-signalling rows, evaluated by the LP builders' generator and
    by the verifiers, on random NS boxes and on a signalling perturbation."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_random_ns_boxes_satisfy_every_row(self, seed):
        box = _random_ns_behavior(random.Random(seed))
        families = G.ns_families(2)
        for n, behavior in ((1, box), (2, G.product_behavior(box, 2))):
            for time_ordered in (False, True):
                for row in oracle_rows((2, 2), (2, 2), families, n,
                                       time_ordered):
                    assert sum(c * behavior.entry(*key)
                               for key, c in row.items()) == 0
            assert K.verify_behavior(behavior).all_passed
        assert satisfies_causal_constraints(
            box, T.CausalScenario(T.TONS, 1))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), x=st.integers(0, 1),
           y=st.integers(0, 1), data=st.data())
    def test_alice_output_shift_fails_exactly_ns_b(self, seed, x, y, data):
        """Moving mass between Alice's outputs at one (x, y) makes her
        marginal depend on y, and on nothing else."""
        table = dict(_random_ns_behavior(random.Random(seed)).table)
        a, b = data.draw(st.sampled_from(sorted(
            outs for (outs, ins), p in table.items()
            if ins == (x, y) and p > 0)))
        moved = table[((a, b), (x, y))] / 2
        table[((a, b), (x, y))] -= moved
        table[((1 - a, b), (x, y))] += moved
        signalling = G.Behavior((2, 2), (2, 2), table)
        report = K.verify_behavior(signalling)
        assert [c.name for c in report.failures()] == ["ns-B-indep-y"]
        assert not satisfies_causal_constraints(
            signalling, T.CausalScenario(T.TONS, 1))


class TestGuessingProbability:
    def test_single_round_pr_v(self, chsh_game):
        """One-round guessing of the noisy PR box follows 1 - v/2."""
        scenario = T.CausalScenario.for_game(T.TONS, 1, chsh_game)
        for v in (F(0), F(1, 2), F(1)):
            pg = T.tons_guessing_probability(chsh_game, _pr_product(v, 1),
                                             (0,), scenario)
            assert pg == 1 - v / 2

    def test_two_rounds_formula(self, chsh_game):
        scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
        for v in (F(0), F(1, 4), F(1, 2), F(1)):
            pg = T.tons_guessing_probability(chsh_game, _pr_product(v, 2),
                                             (0, 0), scenario)
            assert pg == 1 - 3 * v / 4

    def test_reference_string_invariance(self, chsh_game):
        """The optimum is identical for every reference y-string at n = 2."""
        scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
        marginal = _pr_product(F(1, 2), 2)
        values = {T.tons_guessing_probability(chsh_game, marginal, (0, 0),
                                              scenario, y_ref=(y1, y2))
                  for y1 in range(2) for y2 in range(2)}
        assert values == {F(5, 8)}

    def test_abns_dominates_tons(self, chsh_game):
        marginal = _pr_product(F(1, 2), 2)
        tons_pg = T.tons_guessing_probability(
            chsh_game, marginal, (0, 0),
            T.CausalScenario.for_game(T.TONS, 2, chsh_game))
        abns_pg = T.tons_guessing_probability(
            chsh_game, marginal, (0, 0),
            T.CausalScenario.for_game(T.ABNS, 2, chsh_game))
        assert abns_pg >= tons_pg

    def test_noise_monotonicity(self, chsh_game):
        scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
        values = [T.tons_guessing_probability(chsh_game, _pr_product(v, 2),
                                              (0, 0), scenario)
                  for v in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_round_permutation_invariance(self, chsh_game):
        """Swapping round labels of marginal and x-star leaves the value."""
        scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
        marginal = _pr_product(F(1, 2), 2)   # symmetric under round swap
        a = T.tons_guessing_probability(chsh_game, marginal, (0, 1), scenario)
        b = T.tons_guessing_probability(chsh_game, marginal, (1, 0), scenario)
        assert a == b

    def test_infeasible_marginal(self, chsh_game):
        """A signalling marginal is rejected via LP infeasibility."""
        scenario = T.CausalScenario.for_game(T.TONS, 1, chsh_game)
        table = {((a, b), (x, y)): F(1 if a == y and b == 0 else 0)
                 for a in range(2) for b in range(2)
                 for x in range(2) for y in range(2)}
        with pytest.raises(NV.InfeasibleError):
            T.tons_guessing_probability(chsh_game,
                                        G.Behavior((2, 2), (2, 2), table),
                                        (0,), scenario)

    def test_round_cap_reports_size(self, chsh_game):
        scenario = T.CausalScenario.for_game(T.TONS, 7, chsh_game)
        with pytest.raises(L.LpSizeError, match="variables"):
            T.tons_guessing_probability(chsh_game, _pr_product(F(1), 2),
                                        (0,) * 7, scenario)
        with pytest.raises(L.LpSizeError):
            T.tons_guessing_probability(
                chsh_game, _pr_product(F(1), 2), (0,) * 5,
                T.CausalScenario.for_game(T.TONS, 5, chsh_game), mode="float")

    def test_round_cap_reports_the_slice_bound(self, chsh_game):
        """Over the cap, a marginal of the right shape is reported by the
        least size of its slice: 4^4 relabellings fix the four-round noisy
        PR box, so at least 2^20 / 2^8 columns remain; any other marginal
        by the full LP's size."""
        scenario = T.CausalScenario.for_game(T.TONS, 4, chsh_game)
        with pytest.raises(L.LpSizeError,
                           match="slice has at least 4096 variables"):
            T.tons_guessing_probability(chsh_game, _pr_product(F(1, 2), 4),
                                        (0,) * 4, scenario, mode="float")
        with pytest.raises(L.LpSizeError,
                           match="the full LP has 1048576 variables"):
            T._check_caps(scenario, "float")

    @pytest.mark.parametrize("v", [F(1, 2), F(1), F(0)])
    def test_cap_bound_from_the_round_box(self, chsh_game, v):
        """A product's slice bound, read off its one-round box, is the
        bound the product's own symmetries give."""
        box = G.make_pr_v(G.NoisyPRParams(v))
        for x_star in ((0, 0, 0, 0), (1, 0, 1, 1)):
            scenario = T.CausalScenario.for_game(T.TONS, 4, chsh_game)
            reports = []
            for kwargs in ({"marginal": G.product_behavior(box, 4)},
                           {"round_box": box}):
                with pytest.raises(L.LpSizeError) as err:
                    T._check_caps(scenario, "float", x_star=x_star, **kwargs)
                reports.append(str(err.value))
            assert reports[0] == reports[1]
            assert "symmetric slice" in reports[1]


def test_lp_column_count_invariant(chsh_game):
    """Variables: one block per guess times the full behavior table."""
    scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
    built = T.build_guessing_lp(chsh_game, _pr_product(F(1, 2), 2), (0, 0),
                                scenario)
    sa, sb, sx, sy = scenario.string_sizes
    assert built.program.num_vars == sa * (sa * sb * sx * sy) == 1024
    assert built.num_causal_rows == causal_constraint_count(scenario) * sa
    assert built.num_marginal_rows == sa * sb * sx * sy


class TestIidBaseline:
    def test_single_round_identity(self, chsh_game):
        pr = G.make_pr_v(G.NoisyPRParams(F(1, 2)))
        assert T.iid_guessing_baseline(chsh_game, pr, 1) == F(3, 4)

    def test_square_of_single_round(self, chsh_game):
        pr = G.make_pr_v(G.NoisyPRParams(F(1, 2)))
        assert T.iid_guessing_baseline(chsh_game, pr, 2) == F(9, 16)

    def test_tons_strictly_beats_iid(self, chsh_game):
        """Sequential attacks outperform the independent strategy."""
        v = F(1, 2)
        scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
        tons_pg = T.tons_guessing_probability(chsh_game, _pr_product(v, 2),
                                              (0, 0), scenario)
        iid = T.iid_guessing_baseline(chsh_game,
                                      G.make_pr_v(G.NoisyPRParams(v)), 2)
        assert tons_pg > iid


class TestPerRoundValueMode:
    def test_single_round_matches_value_constrained_lp(self, chsh_game):
        """At n = 1 the experimental mode reduces to the decomposition LP."""
        scenario = T.CausalScenario.for_game(T.TONS, 1, chsh_game)
        for w in (F(3, 4), F(7, 8), F(1)):
            via_mode = T.tons_guessing_probability(
                chsh_game, None, (0,), scenario, omega_star=w)
            direct = NV.single_round_guessing(chsh_game, 0, w)
            assert via_mode == direct

    def test_two_round_mode_runs(self, chsh_game):
        scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
        pg = T.tons_guessing_probability(chsh_game, None, (0, 0), scenario,
                                         omega_star=F(7, 8))
        assert F(1, 4) <= pg <= 1

    def test_exactly_one_constraint_is_given(self, chsh_game):
        """A marginal and a value, or neither, is refused naming both."""
        scenario = T.CausalScenario.for_game(T.TONS, 1, chsh_game)
        for marginal, omega_star in ((_pr_product(F(1, 2), 1), F(3, 4)),
                                     (None, None)):
            with pytest.raises(G.GameError,
                               match="marginal and omega_star"):
                T.build_guessing_lp(chsh_game, marginal, (0,), scenario,
                                    omega_star=omega_star)


def _flip_average(box, flips):
    """Average a one-round box over the group ``flips`` generate."""
    group = {(0, 0)}
    while True:
        grown = group | {(g[0] ^ f[0], g[1] ^ f[1]) for g in group
                         for f in flips}
        if grown == group:
            break
        group = grown
    table = {((a, b), (x, y)): sum(box.entry((a ^ fa, b ^ fb), (x, y))
                                   for fa, fb in group) / len(group)
             for a in range(2) for b in range(2)
             for x in range(2) for y in range(2)}
    return G.Behavior((2, 2), (2, 2), table)


ROUND = T.CausalScenario(T.TONS, 1)
# The 31 non-identity local relabellings of a 2x2x2x2 round fixing x* = 0.
LOCAL_MOVES = list(T._round_search(ROUND, 0, 0)[0])
# Flip Bob's input and shift Alice's output by her input: y -> y + 1,
# a -> a + x.  It fixes the noisy PR box but moves no output at x* = 0.
Y_FLIP = T.LocalRelabelling(0, (0, 1), ((0, 1), (1, 0)), (1, 0),
                            ((0, 1), (0, 1)))


def _group_average(box, moves):
    """Average a one-round box over the group the relabellings generate."""
    keys = [((a, b), (x, y)) for a in range(2) for b in range(2)
            for x in range(2) for y in range(2)]
    position = {key: i for i, key in enumerate(keys)}
    generators = []
    for r in moves:
        (A2, X2), (B2, Y2) = T._string_images(r, ROUND)
        generators.append(tuple(
            position[((A2[a, x], B2[b, y]), (X2[a, x], Y2[b, y]))]
            for (a, b), (x, y) in keys))
    group = {tuple(range(len(keys)))}
    while True:
        grown = group | {tuple(m[i] for i in g) for g in group
                         for m in generators}
        if grown == group:
            break
        group = grown
    return G.Behavior((2, 2), (2, 2), {
        key: sum(box.entry(*keys[g[i]]) for g in group) / len(group)
        for i, key in enumerate(keys)})


def relabelling_images(built, relabellings, x_star):
    """Variable permutation of the full guessing LP induced by each
    relabelling; Alice's output permutation at x* acts on Eve's guess."""
    scenario = built.scenario
    sa, sb, sx, sy = scenario.string_sizes
    assert built.program.num_vars == sa * sa * sb * sx * sy
    return [T._variable_map(r, scenario, x_star) for r in relabellings]


def orbit_quotient(prog, images):
    """The LP restricted to points constant on each variable orbit.

    ``images`` are variable permutations that map ``prog``'s feasible
    set onto itself and fix its objective there.  The quotient has one
    column per orbit of the group they generate, numbered by the orbit's
    least variable, the objective and each row summed per orbit, and each
    distinct row once; its optimum is the optimum of ``prog``.
    """
    if not images:
        return prog
    orbits, col = np.unique(T._orbit_minima(prog.num_vars, images),
                            return_inverse=True)
    col = col.tolist()
    quotient = L.LinProgram(
        len(orbits), prog.sense,
        lower={col[j]: lo for j, lo in prog.lower.items()},
        upper={col[j]: up for j, up in prog.upper.items()})
    for j, c in prog.objective.items():
        quotient.objective[col[j]] = quotient.objective.get(col[j], 0) + c
    # Rows are summed over integer numerators on a common denominator.
    den = math.lcm(*{c.denominator for con in prog.constraints
                     for _, c in con.coeffs})
    seen = set()
    for con in prog.constraints:
        sums: dict[int, int] = {}
        for j, c in con.coeffs:
            q = col[j]
            sums[q] = sums.get(q, 0) + c.numerator * (den // c.denominator)
        key = (tuple(sorted((q, s) for q, s in sums.items() if s)),
               con.rel, con.rhs)
        if key not in seen:
            seen.add(key)
            quotient.add({q: F(s, den) for q, s in key[0]}, con.rel, con.rhs)
    return quotient


def _direct_and_oracle_slice(game, marginal, scenario):
    """``dump_lp`` of the slice built directly and of the full LP's orbit
    quotient under the marginal's relabellings."""
    n = scenario.rounds
    relabellings = output_relabellings(marginal, scenario)
    direct = T.build_guessing_lp(game, marginal, (0,) * n, scenario,
                                 relabellings=relabellings)
    full = T.build_guessing_lp(game, marginal, (0,) * n, scenario)
    oracle = orbit_quotient(full.program,
                            relabelling_images(full, relabellings, (0,) * n))
    return L.dump_lp(direct.program), L.dump_lp(oracle)


def _full_and_slice(game, marginal, scenario, mode="exact"):
    """Optimum of the full guessing LP and of its symmetric slice."""
    n = scenario.rounds
    built = T.build_guessing_lp(game, marginal, (0,) * n, scenario)
    full = L.solve_certified(built.program, mode).value
    sliced = T.tons_guessing_probability(game, marginal, (0,) * n, scenario,
                                         mode=mode)
    return full, sliced


def _rows(prog):
    return {(con.coeffs, con.rel, con.rhs) for con in prog.constraints}


def _row_space_residual(basis, rows):
    """Largest entry of ``rows`` off the span of the orthonormal rows of
    ``basis``."""
    return np.abs(rows - (rows @ basis.T) @ basis).max()


SCENARIOS = [(kind, n) for kind in (T.TONS, T.ABNS) for n in (1, 2)]


class TestSymmetricSlice:
    @pytest.mark.parametrize("kind,n", SCENARIOS)
    def test_relabellings_map_the_full_lp_onto_itself(self, chsh_game,
                                                      kind, n):
        scenario = T.CausalScenario.for_game(kind, n, chsh_game)
        marginal = _pr_product(F(1, 2), n)
        relabellings = output_relabellings(marginal, scenario)
        # The noisy PR box is fixed by flipping both outputs of one round.
        assert relabellings == [_output_only(k, (1, 0), (1, 0))
                                for k in range(n)]
        built = T.build_guessing_lp(chsh_game, marginal, (0,) * n, scenario)
        prog = built.program
        rows = _rows(prog)
        for image in relabelling_images(built, relabellings, (0,) * n):
            assert sorted(image) == list(range(prog.num_vars))
            assert {int(image[j]): c for j, c in prog.objective.items()} \
                == prog.objective
            moved = {(tuple(sorted((int(image[j]), c) for j, c in con.coeffs)),
                      con.rel, con.rhs) for con in prog.constraints}
            assert moved == rows

    @pytest.mark.parametrize("kind,n", SCENARIOS)
    def test_symmetries_map_the_full_lp_feasible_set_onto_itself(
            self, chsh_game, kind, n):
        """Every found local relabelling maps the feasible set of the full
        LP into itself (each moved row, with its right-hand side, lies in
        the span of the rows) and keeps the objective on it (the change
        of objective is a combination of rows with zero right-hand side).
        The objective itself is not fixed term by term."""
        scenario = T.CausalScenario.for_game(kind, n, chsh_game)
        marginal = _pr_product(F(1, 2), n)
        symmetries = T.marginal_symmetries(marginal, scenario, (0,) * n)
        assert len(symmetries) == 3 * n
        assert all(dataclasses.replace(Y_FLIP, k=k) in symmetries
                   for k in range(n))
        prog = T.build_guessing_lp(chsh_game, marginal, (0,) * n,
                                   scenario).program
        rows = np.zeros((len(prog.constraints), prog.num_vars + 1))
        for i, con in enumerate(prog.constraints):
            for j, c in con.coeffs:
                rows[i, j] = c
            rows[i, -1] = con.rhs
        objective = np.zeros(prog.num_vars)
        for j, c in prog.objective.items():
            objective[j] = c
        basis = scipy.linalg.orth(rows.T).T
        moves_objective = False
        for image in relabelling_images(
                T.build_guessing_lp(chsh_game, marginal, (0,) * n, scenario),
                symmetries, (0,) * n):
            assert sorted(image) == list(range(prog.num_vars))
            moved = np.column_stack([rows[:, image], rows[:, -1]])
            assert _row_space_residual(basis, moved) < 1e-9
            change = np.append(objective[image] - objective, 0)
            assert _row_space_residual(basis, change[None]) < 1e-9
            moves_objective |= bool(change.any())
        assert moves_objective

    def test_noisy_pr_box_is_solved_as_one_block(self, chsh_game,
                                                 monkeypatch):
        solved = []
        solve = L.solve

        def spy(prog, *args, **kwargs):
            solved.append(prog.num_vars)
            return solve(prog, *args, **kwargs)

        monkeypatch.setattr(L, "solve", spy)
        scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
        assert T.tons_guessing_probability(
            chsh_game, _pr_product(F(1, 2), 2), (0, 0), scenario) == F(5, 8)
        sa, sb, sx, sy = scenario.string_sizes
        # One block, folded once more per round by the y-flip.
        assert solved == [sa * sb * sx * sy // 4] == [64]

    @pytest.mark.parametrize("kind,n", SCENARIOS)
    def test_slice_matches_full_lp_exactly(self, chsh_game, kind, n):
        scenario = T.CausalScenario.for_game(kind, n, chsh_game)
        for v in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
            full, sliced = _full_and_slice(chsh_game, _pr_product(v, n),
                                           scenario)
            assert sliced == full, (v, sliced, full)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           flips=st.sets(st.sampled_from([(1, 0), (0, 1), (1, 1)])),
           kind=st.sampled_from([T.TONS, T.ABNS]),
           n=st.sampled_from([1, 2]))
    def test_slice_matches_full_lp_on_random_ns_products(self, seed, flips,
                                                         kind, n):
        """Random NS boxes, averaged over a random flip group so that the
        slice is usually proper, give the full LP's exact value."""
        game = G.make_chsh_game()
        box = _flip_average(_random_ns_behavior(random.Random(seed)), flips)
        scenario = T.CausalScenario.for_game(kind, n, game)
        marginal = G.product_behavior(box, n)
        if flips:
            assert output_relabellings(marginal, scenario)
        full, sliced = _full_and_slice(game, marginal, scenario)
        assert sliced == full
        direct, oracle = _direct_and_oracle_slice(game, marginal, scenario)
        assert direct == oracle

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           moves=st.sets(st.sampled_from(LOCAL_MOVES), max_size=3),
           kind=st.sampled_from([T.TONS, T.ABNS]),
           n=st.sampled_from([1, 2]))
    @example(seed=7, moves={Y_FLIP}, kind=T.TONS, n=2)
    def test_local_slice_matches_full_lp_on_random_ns_products(
            self, seed, moves, kind, n):
        """Random NS boxes, averaged over the group of a random set of one
        round's local relabellings, give the full LP's exact value on the
        slice of every relabelling found; that slice is the full LP's
        orbit quotient, up to rows it spans."""
        game = G.make_chsh_game()
        box = _group_average(_random_ns_behavior(random.Random(seed)), moves)
        scenario = T.CausalScenario.for_game(kind, n, game)
        marginal = G.product_behavior(box, n)
        symmetries = T.marginal_symmetries(marginal, scenario, (0,) * n)
        assert all(dataclasses.replace(r, k=k) in symmetries
                   for r in moves for k in range(n))
        full_lp = T.build_guessing_lp(game, marginal, (0,) * n, scenario)
        full = L.solve_certified(full_lp.program, "exact").value
        assert T.tons_guessing_probability(game, marginal, (0,) * n,
                                           scenario) == full
        direct = T.build_guessing_lp(game, marginal, (0,) * n, scenario,
                                     relabellings=symmetries).program
        oracle = orbit_quotient(full_lp.program, relabelling_images(
            full_lp, symmetries, (0,) * n))
        assert direct.num_vars == oracle.num_vars
        assert direct.objective == oracle.objective
        assert _rows(direct) <= _rows(oracle)
        assert L.solve_certified(oracle, "exact").value == full

    @pytest.mark.parametrize("kind,n", SCENARIOS)
    def test_direct_slice_is_the_quotient_of_the_full_lp(self, chsh_game,
                                                         kind, n):
        """Row for row, in the same order, at every noise level."""
        scenario = T.CausalScenario.for_game(kind, n, chsh_game)
        for v in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
            direct, oracle = _direct_and_oracle_slice(
                chsh_game, _pr_product(v, n), scenario)
            assert direct == oracle, v

    @pytest.mark.parametrize("kind,n", SCENARIOS)
    def test_direct_slice_maps_each_key_to_its_orbit(self, chsh_game, kind,
                                                     n):
        """``columns`` is constant along every relabelling, output-only or
        local (Alice's output permutation at x* acting on the guess too),
        and reaches every slice column."""
        scenario = T.CausalScenario.for_game(kind, n, chsh_game)
        marginal = _pr_product(F(1, 2), n)
        for relabellings in (output_relabellings(marginal, scenario),
                             T.marginal_symmetries(marginal, scenario,
                                                   (0,) * n)):
            built = T.build_guessing_lp(chsh_game, marginal, (0,) * n,
                                        scenario, relabellings=relabellings)
            columns = built.columns
            assert set(columns) == set(range(built.program.num_vars))
            for r in relabellings:
                image = T._variable_map(r, scenario, (0,) * n)
                assert (columns[image] == columns).all()

    def test_relabellings_need_fixed_marginal_mode(self, chsh_game):
        scenario = T.CausalScenario.for_game(T.TONS, 1, chsh_game)
        with pytest.raises(G.GameError, match="fixed-marginal"):
            T.build_guessing_lp(chsh_game, None, (0,), scenario,
                                omega_star=F(3, 4),
                                relabellings=[_output_only(0, (1, 0),
                                                           (1, 0))])

    def test_large_alphabets_keep_to_output_relabellings(
            self, magic_square_game):
        """A round with 3 inputs and 4 outputs per party has
        2 * 6 * 24^6 local relabellings; the search keeps to its
        24^2 - 1 output relabellings."""
        scenario = T.CausalScenario.for_game(T.TONS, 1, magic_square_game)
        uniform = G.uniform_behavior(magic_square_game.output_sizes,
                                     magic_square_game.input_sizes)
        symmetries = T.marginal_symmetries(uniform, scenario, (0,))
        assert len(set(symmetries)) == len(symmetries) == 24 ** 2 - 1
        assert all(_is_output_only(r) for r in symmetries)

    def test_relabelling_must_fix_x_star(self, chsh_game):
        """Moving Alice's input x* would move Eve's objective."""
        scenario = T.CausalScenario.for_game(T.TONS, 1, chsh_game)
        x_flip = T.LocalRelabelling(0, (1, 0), ((0, 1), (0, 1)), (0, 1),
                                    ((0, 1), (0, 1)))
        with pytest.raises(G.GameError, match="x\\*"):
            T.build_guessing_lp(chsh_game, _pr_product(F(1, 2), 1), (0,),
                                scenario, relabellings=[x_flip])

    @pytest.mark.parametrize("n", [1, 2])
    def test_symmetric_signalling_marginal_stays_infeasible(self, chsh_game,
                                                            n):
        """P(a, b | x, y) = [b = x] / 2 signals from Alice to Bob but is
        fixed by the Alice flip; the slice must not hide the signalling."""
        box = G.Behavior((2, 2), (2, 2), {
            ((a, b), (x, y)): F(1, 2) if b == x else F(0)
            for a in range(2) for b in range(2)
            for x in range(2) for y in range(2)})
        marginal = G.product_behavior(box, n)
        scenario = T.CausalScenario.for_game(T.TONS, n, chsh_game)
        assert output_relabellings(marginal, scenario) == \
            [_output_only(k, (1, 0), (0, 1)) for k in range(n)]
        for mode in ("exact", "float"):
            with pytest.raises(NV.InfeasibleError):
                T.tons_guessing_probability(chsh_game, marginal, (0,) * n,
                                            scenario, mode=mode)

    @pytest.mark.parametrize("kind,n", SCENARIOS)
    def test_asymmetric_marginal_keeps_the_full_lp(self, chsh_game, kind, n):
        """Always outputting (0, 0) is fixed by no output relabelling."""
        box = G.Behavior((2, 2), (2, 2), {
            ((0, 0), (x, y)): F(1) for x in range(2) for y in range(2)})
        marginal = G.product_behavior(box, n)
        scenario = T.CausalScenario.for_game(kind, n, chsh_game)
        relabellings = output_relabellings(marginal, scenario)
        assert relabellings == []
        built = T.build_guessing_lp(chsh_game, marginal, (0,) * n, scenario)
        quotient = orbit_quotient(built.program, relabelling_images(
            built, relabellings, (0,) * n))
        assert quotient.num_vars == built.program.num_vars
        direct, oracle = _direct_and_oracle_slice(chsh_game, marginal,
                                                  scenario)
        assert direct == oracle == L.dump_lp(built.program)
        assert T.tons_guessing_probability(chsh_game, marginal, (0,) * n,
                                           scenario) == 1


# Exact two-round ABNS values of the noisy PR box at every v = k/q with
# q <= 12, as computed on the output-relabelling slice.
ABNS_N2 = """
0:1 1/12:23/24 1/11:21/22 1/10:19/20 1/9:17/18 1/8:15/16 1/7:13/14
1/6:11/12 2/11:10/11 1/5:9/10 2/9:8/9 1/4:7/8 3/11:19/22 2/7:6/7
3/10:17/20 1/3:5/6 4/11:9/11 3/8:13/16 2/5:4/5 5/12:911/1152 3/7:153/196
4/9:497/648 5/11:367/484 1/2:23/32 6/11:657/968 5/9:217/324 4/7:257/392
7/12:743/1152 3/5:63/100 5/8:311/512 7/11:289/484 2/3:41/72 7/10:431/800
5/7:103/196 8/11:497/968 3/4:63/128 7/9:151/324 4/5:89/200 9/11:207/484
5/6:119/288 6/7:153/392 7/8:191/512 8/9:233/648 9/10:279/800
10/11:329/968 11/12:383/1152 1:1/4
"""


def test_two_round_values_on_the_rational_grid(chsh_game):
    """TONS gives 1 - 3v/4 and ABNS its pinned value at all 47 v."""
    pinned = {F(v): F(p) for v, p in
              (pair.split(":") for pair in ABNS_N2.split())}
    assert set(pinned) == {F(k, q) for q in range(1, 13)
                           for k in range(q + 1)}
    tons2, abns2 = (T.CausalScenario.for_game(kind, 2, chsh_game)
                    for kind in (T.TONS, T.ABNS))
    for v, abns in pinned.items():
        marginal = _pr_product(v, 2)
        assert T.tons_guessing_probability(
            chsh_game, marginal, (0, 0), tons2) == 1 - 3 * v / 4, v
        assert T.tons_guessing_probability(
            chsh_game, marginal, (0, 0), abns2) == abns, v


class TestGeneratedInvariances:
    """Invariances of the exact guessing probability on random NS boxes b
    (``_random_ns_behavior``) and on their two-round products b (x) b."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), x_star=st.integers(0, 1))
    def test_one_round_tons_equals_abns(self, chsh_game, seed, x_star):
        """At n = 1 both families are bipartite no-signalling."""
        box = _random_ns_behavior(random.Random(seed))
        tons, abns = (T.tons_guessing_probability(
            chsh_game, box, (x_star,),
            T.CausalScenario.for_game(kind, 1, chsh_game))
            for kind in (T.TONS, T.ABNS))
        assert tons == abns

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from([T.TONS, T.ABNS]),
           x_star=st.tuples(st.integers(0, 1), st.integers(0, 1)))
    def test_two_round_value_ignores_the_reference_input(
            self, chsh_game, seed, kind, x_star):
        """Every y_ref gives the same value: Alice's marginal, which the
        objective reads at y_ref, does not depend on Bob's inputs."""
        marginal = G.product_behavior(
            _random_ns_behavior(random.Random(seed)), 2)
        scenario = T.CausalScenario.for_game(kind, 2, chsh_game)
        values = {T.tons_guessing_probability(chsh_game, marginal, x_star,
                                              scenario, y_ref=y_ref)
                  for y_ref in itertools.product(range(2), repeat=2)}
        assert len(values) == 1, values

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), x1=st.integers(0, 1),
           x2=st.integers(0, 1))
    def test_two_round_abns_value_is_round_permutation_invariant(
            self, chsh_game, seed, x1, x2):
        """Swapping the rounds of x* leaves the ABNS value of b (x) b,
        which the swap fixes, unchanged; TONS, a subset of ABNS, stays
        below it in either order."""
        marginal = G.product_behavior(
            _random_ns_behavior(random.Random(seed)), 2)

        def value(kind, x_star):
            return T.tons_guessing_probability(
                chsh_game, marginal, x_star,
                T.CausalScenario.for_game(kind, 2, chsh_game))
        abns = value(T.ABNS, (x1, x2))
        assert value(T.ABNS, (x2, x1)) == abns
        assert value(T.TONS, (x1, x2)) <= abns
        assert value(T.TONS, (x2, x1)) <= abns

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from([T.TONS, T.ABNS]), n=st.integers(1, 2),
           data=st.data())
    def test_value_is_local_relabelling_invariant(self, chsh_game, seed,
                                                  kind, n, data):
        """Relabelling the first round of b (x) ... (x) b locally (each
        party's inputs by a permutation, its outputs by one permutation
        per input) moves x*_1 to its image and keeps the exact value."""
        perm = st.permutations([0, 1])
        sx, sy, ax, by = (data.draw(perm), data.draw(perm),
                          data.draw(st.tuples(perm, perm)),
                          data.draw(st.tuples(perm, perm)))
        x_star = data.draw(st.tuples(*[st.integers(0, 1)] * n))
        product = G.product_behavior(
            _random_ns_behavior(random.Random(seed)), n)
        scale = 2 ** (n - 1)  # round 1 is the most significant symbol

        def moved(key):
            (a, b), (x, y) = ([divmod(s, scale) for s in pair]
                              for pair in key)
            return ((ax[x[0]][a[0]] * scale + a[1],
                     by[y[0]][b[0]] * scale + b[1]),
                    (sx[x[0]] * scale + x[1], sy[y[0]] * scale + y[1]))
        relabelled = G.Behavior(
            product.input_sizes, product.output_sizes,
            {moved(k): p for k, p in product.table.items()})
        scenario = T.CausalScenario.for_game(kind, n, chsh_game)
        assert T.tons_guessing_probability(
            chsh_game, relabelled, (sx[x_star[0]], *x_star[1:]), scenario) \
            == T.tons_guessing_probability(chsh_game, product, x_star,
                                           scenario)

    def test_tons_value_depends_on_the_round_order(self, chsh_game):
        """The TONS rows are time-ordered, so swapping the rounds of x* is
        no symmetry of the TONS LP: on this box's b (x) b the two orders
        give different values (the full LP agrees with the slice)."""
        marginal = G.product_behavior(
            _random_ns_behavior(random.Random(163914)), 2)
        scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
        assert [T.tons_guessing_probability(chsh_game, marginal, x_star,
                                            scenario)
                for x_star in ((0, 1), (1, 0))] == [F(373, 432), F(121, 144)]


def _full_space_labels(scenario, x_star, relabellings):
    """The reference orbit labels: ``_orbit_minima`` over the full-space
    permutations of every relabelling."""
    sa, sb, sx, sy = scenario.string_sizes
    return T._orbit_minima(sa * sa * sb * sx * sy, [
        T._variable_map(r, scenario, x_star) for r in relabellings])


def _correlation_box(d, nx, ny, weights, shifts):
    """A box with uniform marginals over d outputs: at inputs (x, y),
    b = a + shifts[x][y] (mod d) with weight weights[x][y], else
    uniform noise."""
    return G.Behavior((nx, ny), (d, d), {
        ((a, b), (x, y)): (1 - weights[x][y]) / d ** 2
        + weights[x][y] * ((b - a - shifts[x][y]) % d == 0) / d
        for a in range(d) for b in range(d) for x in range(nx)
        for y in range(ny)})


class TestOrbitLabels:
    """``_orbit_labels`` builds the slice's orbit labels from one-round
    orbits; they equal the full-space ``_orbit_minima`` label for label."""

    @settings(max_examples=20, deadline=None)
    @given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1,
                          max_size=3),
           moves=st.lists(st.sets(st.sampled_from(LOCAL_MOVES), max_size=3),
                          min_size=3, max_size=3),
           shared=st.booleans(), kind=st.sampled_from([T.TONS, T.ABNS]),
           data=st.data())
    def test_labels_of_random_products(self, seeds, moves, shared, kind,
                                       data):
        """Products of random no-signalling boxes, each averaged over its
        own random set of local relabellings, at n <= 3 and a random x*."""
        boxes = [_group_average(_random_ns_behavior(random.Random(seed)), m)
                 for seed, m in zip(seeds, moves)]
        n = len(boxes)
        marginal = G.product_behavior(boxes[0], n) if shared \
            else _mixed_product(boxes)
        x_star = data.draw(st.tuples(*[st.integers(0, 1)] * n))
        scenario = T.CausalScenario.for_game(kind, n, G.make_chsh_game())
        relabellings = T.marginal_symmetries(marginal, scenario, x_star)
        labels = T._orbit_labels(scenario, x_star, relabellings)
        assert labels.dtype == np.int64
        assert np.array_equal(labels, _full_space_labels(
            scenario, x_star, relabellings))

    @settings(max_examples=8, deadline=None)
    @given(alphabets=st.sampled_from([(3, 2), (2, 3)]),
           n=st.integers(1, 2), kind=st.sampled_from([T.TONS, T.ABNS]),
           data=st.data())
    def test_labels_on_three_symbol_alphabets(self, alphabets, n, kind,
                                              data):
        """Three outputs or three inputs per party: n-fold products of a
        random correlation box with uniform marginals, which every joint
        output shift fixes."""
        d, m = alphabets

        def grid(values):
            row = st.lists(st.sampled_from(values), min_size=m, max_size=m)
            return data.draw(st.lists(row, min_size=m, max_size=m))
        box = _correlation_box(d, m, m, grid([F(0), F(1, 2), F(1)]),
                               grid(range(d)))
        marginal = G.product_behavior(box, n)
        scenario = T.CausalScenario(kind, n, d, d, m, m)
        x_star = data.draw(st.tuples(*[st.integers(0, m - 1)] * n))
        relabellings = T.marginal_symmetries(marginal, scenario, x_star)
        assert relabellings
        assert np.array_equal(
            T._orbit_labels(scenario, x_star, relabellings),
            _full_space_labels(scenario, x_star, relabellings))

    @pytest.mark.parametrize("kind", [T.TONS, T.ABNS])
    @pytest.mark.parametrize("v", [F(1, 2), F(11, 12)])
    def test_four_round_noisy_pr_labels(self, kind, v):
        """Both four-round noisy-PR slices, 1,048,576 variables."""
        scenario = T.CausalScenario(kind, 4)
        x_star = (0, 1, 1, 0)
        relabellings = T.marginal_symmetries(_pr_product(v, 4), scenario,
                                             x_star)
        labels = T._orbit_labels(scenario, x_star, relabellings)
        assert len(np.unique(labels)) == 4096
        assert np.array_equal(labels, _full_space_labels(
            scenario, x_star, relabellings))

    def test_four_round_labels_stay_small(self):
        """The four-round TONS orbit step allocates under 16 MB; the
        full-space permutations took 134 MB."""
        scenario = T.CausalScenario(T.TONS, 4)
        x_star = (0,) * 4
        relabellings = T.marginal_symmetries(_pr_product(F(1, 2), 4),
                                             scenario, x_star)
        tracemalloc.start()
        try:
            T._orbit_labels(scenario, x_star, relabellings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 10 ** 6, peak


@pytest.mark.parametrize("kind, value", [(T.TONS, F(25, 32)),
                                         (T.ABNS, F(3557, 4096))])
def test_three_round_slice_optimum_lifts_to_the_full_lp(chsh_game, kind,
                                                        value):
    """The exact three-round slice optimum at v = 1/4, lifted to the full
    LP by x_full[v] = x_slice[columns[v]], satisfies every full-LP row
    exactly and attains the slice value there.  Checked over integers:
    the lifted point over one denominator against each row's
    right-hand side, cross-multiplied."""
    scenario = T.CausalScenario.for_game(kind, 3, chsh_game)
    marginal = _pr_product(F(1, 4), 3)
    x_star = (0, 0, 0)
    sliced = T.build_guessing_lp(
        chsh_game, marginal, x_star, scenario,
        relabellings=T.marginal_symmetries(marginal, scenario, x_star))
    sol = L.solve_certified(sliced.program, "exact")
    assert sol.value == value
    full = T.build_guessing_lp(chsh_game, marginal, x_star, scenario).program
    nums, den = G.integer_table([sol.primal[c] for c in sliced.columns])
    x = nums.astype(object)
    assert len(x) == full.num_vars and (x >= 0).all()
    assert not full.lower and not full.upper
    rows = full.constraints
    assert {con.rel for con in rows} == {L.EQ}
    index = np.repeat(np.arange(len(rows)), [len(con.coeffs) for con in rows])
    cols = np.array([j for con in rows for j, _ in con.coeffs])
    coeffs = np.array([c for con in rows for _, c in con.coeffs], dtype=object)
    lhs = np.zeros(len(rows), dtype=object)
    np.add.at(lhs, index, coeffs * x[cols])
    rhs, rhs_den = G.integer_table([con.rhs for con in rows])
    residual = lhs * rhs_den - rhs.astype(object) * den
    assert not residual.any(), np.flatnonzero(residual)[:5]
    objective = sum(c * x[j] for j, c in full.objective.items())
    assert F(objective, den) == value


# ---------------------------------------------------------------------------
# the per-scenario caches of the slice build, and the batched symmetry search
# ---------------------------------------------------------------------------

def _fixing_oracle(marginal, scenario, x_star):
    """The symmetry search one candidate at a time, on the integer table
    of every entry: each candidate's image of the whole table is gathered
    and compared with it."""
    nums, _ = G.integer_table(marginal.table.values())
    table = G.dense_table(marginal.table, scenario.string_sizes, nums)
    SA, SB, SX, SY = scenario.string_sizes
    flat = table.ravel()
    found = []
    for k, x in enumerate(x_star):
        for r in T._round_search(scenario, k, x)[0]:
            (A2, X2), (B2, Y2) = T._string_images(r, scenario)
            image = (((A2[:, None, :, None] * SB + B2[None, :, None, :]) * SX
                      + X2[:, None, :, None]) * SY + Y2[None, :, None, :])
            if (flat[image] == table).all():
                found.append(r)
    return found


def _mixed_product(boxes):
    """The product of one 2x2x2x2 box per round over round-major strings,
    one ``Fraction`` per entry."""
    table = {}
    for items in itertools.product(*(box.table.items() for box in boxes)):
        strings, p = (0, 0, 0, 0), F(1)
        for ((a, b), (x, y)), q in items:
            strings = tuple(2 * s + t for s, t in zip(strings, (a, b, x, y)))
            p *= q
        if p:
            A, B, X, Y = strings
            table[((A, B), (X, Y))] = p
    size = 2 ** len(boxes)
    return G.Behavior((size, size), (size, size), table)


@settings(max_examples=25, deadline=None)
@given(seeds=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3),
       moves=st.sets(st.sampled_from(LOCAL_MOVES), max_size=3),
       shared=st.booleans(), data=st.data())
def test_batched_symmetry_search_matches_the_candidate_loop(seeds, moves,
                                                            shared, data):
    """On products of random no-signalling boxes, each averaged over the
    group of a random set of local relabellings so that some candidates
    fix it, the batched search returns what the per-candidate search
    returns, in its order.  ``shared`` takes the n-fold product of the
    first box (``games.product_behavior``, one Fraction per value)."""
    boxes = [_group_average(_random_ns_behavior(random.Random(seed)), moves)
             for seed in seeds]
    n = len(boxes)
    marginal = G.product_behavior(boxes[0], n) if shared \
        else _mixed_product(boxes)
    x_star = data.draw(st.tuples(*[st.integers(0, 1)] * n))
    scenario = T.CausalScenario.for_game(T.TONS, n, G.make_chsh_game())
    assert T.marginal_symmetries(marginal, scenario, x_star) == \
        _fixing_oracle(marginal, scenario, x_star)


def _block_passes(marginal, scenario, x_star):
    """Per round, the candidates whose image of the A = B = 0 block holds
    the same values, one candidate at a time."""
    table = marginal.integers[0]
    passes = []
    for k, x in enumerate(x_star):
        passes.append(0)
        for r in T._round_search(scenario, k, x)[0]:
            (A2, X2), (B2, Y2) = T._string_images(r, scenario)
            image = table[A2[0][:, None], B2[0][None, :], X2[0][:, None],
                          Y2[0][None, :]]
            passes[-1] += bool((image == table[0, 0]).all())
    return passes


def _distinct_entries_box():
    """A 2x2x2x2 box whose 16 entries all differ: at input pair i = 2x + y,
    output pair (a, b) has weight 4i + 2a + b + 1 over the pair's sum."""
    return G.Behavior((2, 2), (2, 2), {
        ((a, b), (x, y)): F(4 * (2 * x + y) + 2 * a + b + 1,
                            16 * (2 * x + y) + 10)
        for x in range(2) for y in range(2) for a in range(2)
        for b in range(2)})


@pytest.mark.parametrize("n", [1, 2, 3])
def test_no_candidate_passes_the_sieve_of_an_asymmetric_marginal(n):
    """No candidate of any round fixes the A = B = 0 block of a product
    of a box with distinct entries, so the full gather gets none."""
    box = _distinct_entries_box()
    box.check_valid()
    marginal = G.product_behavior(box, n)
    scenario = T.CausalScenario.for_game(T.TONS, n, G.make_chsh_game())
    x_star = (0, 1, 1)[:n]
    assert _block_passes(marginal, scenario, x_star) == [0] * n
    assert T.marginal_symmetries(marginal, scenario, x_star) == [] == \
        _fixing_oracle(marginal, scenario, x_star)


def test_each_round_enumerates_its_moves_once(monkeypatch):
    """The symmetry search lists each round's party moves once, and builds
    its candidates from them: three ``_party_moves`` calls for three
    rounds, with the noisy PR box's symmetries found as before."""
    calls = []
    real = T._party_moves

    def counting(scenario, x_k):
        calls.append(x_k)
        return real(scenario, x_k)
    marginal = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(1, 3))), 3)
    scenario = T.CausalScenario.for_game(T.TONS, 3, G.make_chsh_game())
    expected = _fixing_oracle(marginal, scenario, (0, 1, 0))
    monkeypatch.setattr(T, "_party_moves", counting)
    assert T.marginal_symmetries(marginal, scenario, (0, 1, 0)) == expected
    assert calls == [0, 1, 0]


@pytest.mark.parametrize("chunk", [1, 2])
@pytest.mark.parametrize("n, box", [
    (3, G.make_pr_v(G.NoisyPRParams(F(1, 3)))),
    (2, _group_average(_random_ns_behavior(random.Random(5)),
                       LOCAL_MOVES[3:5]))])
def test_the_gather_of_passing_candidates_in_small_chunks(monkeypatch, n,
                                                         box, chunk):
    """With ``_GATHER_LIMIT`` down to one or two candidates' tables, the
    candidates that pass the sieve are gathered chunk by chunk, and what
    fixes the marginal is found in the per-candidate search's order."""
    marginal = G.product_behavior(box, n)
    scenario = T.CausalScenario.for_game(T.TONS, n, G.make_chsh_game())
    x_star = (0, 1, 0)[:n]
    assert max(_block_passes(marginal, scenario, x_star)) > chunk
    monkeypatch.setattr(T, "_GATHER_LIMIT", chunk * 4 ** (2 * n))
    found = T.marginal_symmetries(marginal, scenario, x_star)
    assert found and found == _fixing_oracle(marginal, scenario, x_star)


@pytest.mark.parametrize("box", [
    G.make_pr_v(G.NoisyPRParams(F(1, 3))),
    _group_average(_random_ns_behavior(random.Random(11)), [Y_FLIP])])
def test_four_round_symmetries_match_the_candidate_loop(box):
    """A four-round product's symmetries, 65,536 entries a candidate."""
    marginal = G.product_behavior(box, 4)
    scenario = T.CausalScenario.for_game(T.ABNS, 4, G.make_chsh_game())
    x_star = (0, 1, 1, 0)
    found = T.marginal_symmetries(marginal, scenario, x_star)
    assert found and found == _fixing_oracle(marginal, scenario, x_star)


@pytest.mark.parametrize("n, mode", [(2, "exact"), (3, "float")])
def test_a_product_is_solved_without_its_fraction_table(monkeypatch,
                                                       chsh_game, n, mode):
    """The symmetry search, the build and the solve of a product marginal
    read its integer form alone; its dict copy gives the same value."""
    marginal = _pr_product(F(1, 2), n)
    copy = G.Behavior(marginal.input_sizes, marginal.output_sizes,
                      dict(_pr_product(F(1, 2), n).table))

    def refuse(*_):
        raise AssertionError("the Fraction table was built")
    monkeypatch.setattr(G, "fraction_table", refuse)
    scenario = T.CausalScenario.for_game(T.TONS, n, chsh_game)
    value = T.tons_guessing_probability(chsh_game, marginal, (0,) * n,
                                        scenario, mode)
    monkeypatch.undo()
    assert repr(value) == repr(T.tons_guessing_probability(
        chsh_game, copy, (0,) * n, scenario, mode))


def _clear_caches():
    T.build_causal_constraints.cache_clear()
    T._slice_skeleton.cache_clear()


def _slice_record(game, marginal, scenario, mode):
    """What a slice build and solve produce: the relabellings, the
    ``dump_lp`` digest, the column map, the row counts and the value."""
    x_star = (0,) * scenario.rounds
    relabellings = T.marginal_symmetries(marginal, scenario, x_star)
    built = T.build_guessing_lp(game, marginal, x_star, scenario,
                                relabellings=relabellings)
    digest = hashlib.sha256(L.dump_lp(built.program).encode()).hexdigest()
    value = L.solve_certified(built.program, mode).value
    return (relabellings, digest, built.columns.tobytes(),
            built.num_causal_rows, built.num_marginal_rows, repr(value))


class TestScenarioCaches:

    @pytest.mark.parametrize("kind", [T.TONS, T.ABNS])
    @pytest.mark.parametrize("n", [2, 3])
    def test_warm_builds_equal_cold_builds(self, chsh_game, kind, n):
        """Along a noise sweep every build after the first is served by
        both caches, and equals a build from empty caches."""
        scenario = T.CausalScenario.for_game(kind, n, chsh_game)
        mode = "exact" if n == 2 else "float"
        sweep = [F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(11, 12)]
        _clear_caches()
        warm = [_slice_record(chsh_game, _pr_product(v, n), scenario, mode)
                for v in sweep]
        assert T.build_causal_constraints.cache_info().misses == 1
        assert T._slice_skeleton.cache_info().hits == len(sweep) - 1
        for v, record in zip(sweep, warm):
            _clear_caches()
            assert _slice_record(chsh_game, _pr_product(v, n), scenario,
                                 mode) == record, v

    def test_a_different_group_gets_its_own_skeleton(self, chsh_game):
        """The PR box (v = 1) has the symmetries of v = 1/2 and shares its
        skeleton; the uniform box, fixed by every candidate, gets its
        own; a product with no symmetry builds the full LP, which is not
        kept.  Each build equals its build from empty caches."""
        scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
        uniform = G.uniform_behavior((4, 4), (4, 4))
        asymmetric = _mixed_product([
            _random_ns_behavior(random.Random(seed)) for seed in (3, 4)])
        marginals = [_pr_product(F(1, 2), 2), _pr_product(F(1), 2), uniform,
                     asymmetric]
        _clear_caches()
        warm = [_slice_record(chsh_game, m, scenario, "exact")
                for m in marginals]
        assert [len(record[0]) for record in warm] == [6, 6, 62, 0]
        assert warm[0][2] == warm[1][2] != warm[2][2]
        info = T._slice_skeleton.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 2, 2)
        for marginal, record in zip(marginals, warm):
            _clear_caches()
            assert _slice_record(chsh_game, marginal, scenario,
                                 "exact") == record

    def test_a_built_program_is_its_own(self, chsh_game):
        """Rows are shared between builds but frozen, the column map is
        read-only, and changing one program's rows or objective leaves
        the next build as it was."""
        scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
        marginal = _pr_product(F(1, 2), 2)
        relabellings = T.marginal_symmetries(marginal, scenario, (0, 0))

        def build():
            return T.build_guessing_lp(chsh_game, marginal, (0, 0), scenario,
                                       relabellings=relabellings)
        first = build()
        dump = L.dump_lp(first.program)
        prog = first.program
        prog.add({0: 1}, L.LE, 0)
        prog.objective[0] = 5
        prog.rhs = prog.rhs + 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            prog.constraints[1].rhs = 7
        with pytest.raises(ValueError):
            first.columns[0] = 1
        shared = build().program
        assert shared.indices is build().program.indices
        for array in (shared.indptr, shared.indices, shared.data):
            with pytest.raises(ValueError):
                array[0] = 1
        assert L.dump_lp(prog) != dump
        assert L.dump_lp(build().program) == dump


def test_causal_rows_are_kept_per_scenario_and_read_only(chsh_game):
    """Repeated calls return the same rows, which cannot be written; a
    scenario of another kind or round count gets its own."""
    T.build_causal_constraints.cache_clear()
    scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
    rows = T.build_causal_constraints(scenario)
    assert T.build_causal_constraints(
        T.CausalScenario.for_game(T.TONS, 2, chsh_game)) is rows
    for other in (T.CausalScenario.for_game(T.ABNS, 2, chsh_game),
                  T.CausalScenario.for_game(T.TONS, 3, chsh_game)):
        assert T.build_causal_constraints(other) is not rows
    index, coeffs = rows.blocks[0]
    with pytest.raises(ValueError):
        index[0, 0] = 1
    with pytest.raises(ValueError):
        coeffs[0] = 0


@pytest.mark.parametrize("kind", [T.TONS, T.ABNS])
def test_slice_marginal_rows_are_distinct_and_sum_to_the_blocks(chsh_game,
                                                                kind):
    """Each marginal row of a slice has positive coefficients summing to
    the number of blocks, and no two are equal: none can repeat a causal
    row (whose coefficients sum to 0) or another marginal row, so the
    build appends them without a de-duplication pass."""
    scenario = T.CausalScenario.for_game(kind, 3, chsh_game)
    marginal = _pr_product(F(1, 2), 3)
    relabellings = T.marginal_symmetries(marginal, scenario, (0, 0, 0))
    built = T.build_guessing_lp(chsh_game, marginal, (0, 0, 0), scenario,
                                relabellings=relabellings)
    rows = built.program.constraints
    causal, marginal_rows = (rows[:built.num_causal_rows],
                             rows[built.num_causal_rows:])
    assert len(marginal_rows) == built.num_marginal_rows > 0
    SA = scenario.string_sizes[0]
    assert all(sum(c for _, c in con.coeffs) == 0 for con in causal)
    assert all(min(c for _, c in con.coeffs) > 0 and
               sum(c for _, c in con.coeffs) == SA for con in marginal_rows)
    assert len({con.coeffs for con in marginal_rows}) == len(marginal_rows)


def _skeleton_digest(skeleton):
    """sha256 of every number and array a ``_Skeleton`` holds."""
    prog = skeleton.program
    digest = hashlib.sha256(repr((
        prog.num_vars, prog.den, prog.rhs_den, sorted(prog.objective.items()),
        skeleton.num_causal)).encode())
    for array in (prog.indptr, prog.indices, prog.data, prog.rhs, prog.rel,
                  skeleton.columns, skeleton.by_block, skeleton.keys):
        assert array.dtype != object
        digest.update(f"{array.dtype} {array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _four_round_skeleton_key(kind):
    """The ``_guessing_skeleton`` arguments of the four-round noisy-PR
    slice at v = 1/2, x* = 0000."""
    scenario = T.CausalScenario(kind, 4)
    x_star = (0,) * 4
    relabellings = tuple(T.marginal_symmetries(_pr_product(F(1, 2), 4),
                                               scenario, x_star))
    return (scenario, T.build_causal_constraints(scenario), x_star, (0,) * 4,
            relabellings)


@pytest.mark.parametrize("kind, sizes, digest", [
    (T.TONS, (4096, 7041, 256),
     "ae02d0cea6d4954d56d26230f078fab0fb21be658038aa3b15b5f3c54b73c46c"),
    (T.ABNS, (4096, 1281, 256),
     "67e8116d26b364743620cba7b3aa4b43c00e9f19752d71e3b79d7b04b3f46f52")])
def test_four_round_skeleton_digests(kind, sizes, digest):
    """The four-round slice skeletons are pinned array for array: columns,
    sizes, objective, causal and marginal rows, column map and keys.  No
    pinned ``dump_lp`` reaches four rounds."""
    skeleton = T._guessing_skeleton(*_four_round_skeleton_key(kind))
    assert (skeleton.program.num_vars, skeleton.num_causal,
            len(skeleton.keys)) == sizes
    assert _skeleton_digest(skeleton) == digest


def test_four_round_skeleton_build_stays_small():
    """The four-round TONS skeleton build allocates under 48 MB; summing
    and de-duplicating all 79,360 causal rows in one pass took 90 MB."""
    key = _four_round_skeleton_key(T.TONS)
    tracemalloc.start()
    try:
        T._guessing_skeleton(*key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 10 ** 6, peak


@pytest.mark.parametrize("kind", [T.TONS, T.ABNS])
@pytest.mark.parametrize("n", [2, 3])
def test_product_marginal_builds_what_its_dict_copy_builds(chsh_game, kind,
                                                           n):
    """A product marginal and a plain copy of its table give the same
    relabellings, ``dump_lp`` digest, column map, row counts and value
    (exact at n = 2, the same float ``repr`` at 3)."""
    scenario = T.CausalScenario.for_game(kind, n, chsh_game)
    product = _pr_product(F(2, 3), n)
    copy = G.Behavior(product.input_sizes, product.output_sizes,
                      dict(product.table))
    mode = "exact" if n == 2 else "float"
    assert _slice_record(chsh_game, product, scenario, mode) == \
        _slice_record(chsh_game, copy, scenario, mode)


@pytest.mark.parametrize("old, new", [
    (((0, 0), (0, 0)), ((0,), (0, 0, 0))), (None, ((0, 0, 0), (0, 0)))])
def test_keys_without_one_symbol_per_party_are_refused(chsh_game, old, new):
    """A v = 1/2 PR box with one entry re-keyed, or one key added, with
    the wrong symbol count per party: the key is refused by name, never
    read as another entry or as a missing one."""
    table = dict(G.make_pr_v(G.NoisyPRParams(F(1, 2))).table)
    table[new] = table.pop(old) if old else F(1, 4)
    marginal = G.Behavior((2, 2), (2, 2), table)
    scenario = T.CausalScenario.for_game(T.TONS, 1, chsh_game)
    for call in (T.marginal_symmetries, T.tons_guessing_probability,
                 T.build_guessing_lp):
        args = (marginal, scenario, (0,)) if call is T.marginal_symmetries \
            else (chsh_game, marginal, (0,), scenario)
        with pytest.raises(G.GameError, match="one symbol per party"):
            call(*args)


def test_keys_outside_the_alphabets_are_refused(chsh_game):
    """The v = 1 PR box plus an entry at output 2 of a binary alphabet:
    the key is refused by name, not left out of the marginal (which
    gave a guessing probability of 1/2 at n = 1)."""
    table = dict(G.make_pr_v(G.NoisyPRParams(F(1))).table)
    table[((2, 0), (0, 0))] = F(1, 3)
    marginal = G.Behavior((2, 2), (2, 2), table)
    scenario = T.CausalScenario.for_game(T.TONS, 1, chsh_game)
    with pytest.raises(G.GameError, match=re.escape(
            "keys outside the alphabets: [((2, 0), (0, 0))]")):
        T.tons_guessing_probability(chsh_game, marginal, (0,), scenario)


@pytest.mark.parametrize("n", [-1, 0, 1.5, F(2), "2"])
def test_iid_baseline_refuses_a_malformed_round_count(chsh_game, n):
    """n = -1 gave 4/3, n = 0 gave 1 and n = 1.5 a float in exact mode."""
    pr = G.make_pr_v(G.NoisyPRParams(F(1, 2)))
    with pytest.raises(G.GameError, match=re.escape(
            f"round count must be an integer of at least 1, not {n!r}")):
        T.iid_guessing_baseline(chsh_game, pr, n)


@pytest.mark.parametrize("sizes, name, value", [
    ((1.5,), "round count", 1.5), ((0,), "round count", 0),
    ((1, 0), "alphabet size alice_outputs", 0),
    ((2, 2, 2, 2, F(3, 2)), "alphabet size bob_inputs", F(3, 2)),
    ((2, 2, -1), "alphabet size bob_outputs", -1)])
def test_scenario_sizes_must_be_positive_integers(sizes, name, value):
    """A scenario's round count and alphabet sizes are integers of at least
    1, refused by name at construction, not by a bare TypeError later."""
    with pytest.raises(G.GameError, match=re.escape(
            f"{name} must be an integer of at least 1, not {value!r}")):
        T.CausalScenario(T.TONS, *sizes)
    rounds = T.CausalScenario(T.ABNS, np.int64(2)).rounds
    assert (rounds, type(rounds)) == (2, int)
