"""Tests for multi-round causal constraint sets and guessing LPs."""

import dataclasses
import itertools
import math
import random
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
        assert T.satisfies_causal_constraints(pr, scenario)

    def test_constraint_count_matches_enumerator(self, chsh_game):
        for kind in (T.TONS, T.ABNS):
            for n in (1, 2):
                scenario = T.CausalScenario.for_game(kind, n, chsh_game)
                rows = T.build_causal_constraints(scenario)
                assert len(rows) == T.causal_constraint_count(scenario)
                assert len(rows) == _independent_count(scenario)

    def test_tons_points_are_abns_feasible(self, chsh_game):
        """Random mixtures of NS-vertex products satisfy both families."""
        rng = random.Random(42)
        tons2 = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
        abns2 = T.CausalScenario.for_game(T.ABNS, 2, chsh_game)
        for _ in range(50):
            product = G.product_behavior(_random_ns_behavior(rng), 2)
            assert T.satisfies_causal_constraints(product, tons2)
            assert T.satisfies_causal_constraints(product, abns2)

    def test_signalling_behavior_fails(self, chsh_game):
        scenario = T.CausalScenario.for_game(T.TONS, 1, chsh_game)
        table = {((a, b), (x, y)): F(1 if a == y and b == 0 else 0)
                 for a in range(2) for b in range(2)
                 for x in range(2) for y in range(2)}
        signalling = G.Behavior((2, 2), (2, 2), table)
        assert not T.satisfies_causal_constraints(signalling, scenario)


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
                for row in G.ns_equality_rows((2, 2), (2, 2), families, n,
                                              time_ordered):
                    assert sum(c * behavior.entry(*key)
                               for key, c in row.items()) == 0
            assert K.verify_behavior(behavior).all_passed
        assert T.satisfies_causal_constraints(
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
        assert not T.satisfies_causal_constraints(
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


def test_lp_column_count_invariant(chsh_game):
    """Variables: one block per guess times the full behavior table."""
    scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
    built = T.build_guessing_lp(chsh_game, _pr_product(F(1, 2), 2), (0, 0),
                                scenario)
    sa, sb, sx, sy = scenario.string_sizes
    assert built.program.num_vars == sa * (sa * sb * sx * sy) == 1024
    assert built.num_causal_rows == T.causal_constraint_count(scenario) * sa
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
LOCAL_MOVES = list(T._round_candidates(ROUND, 0, 0))
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
            quotient.constraints.append(L.Constraint(
                tuple((q, F(s, den)) for q, s in key[0]), con.rel, con.rhs))
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


def _columns(built):
    """``built.var`` in variable order: e, X, Y, A, B from major to minor."""
    sa, sb, sx, sy = built.scenario.string_sizes
    return np.array([built.var[(e, A, B, X, Y)] for e, X, Y, A, B in
                     itertools.product(range(sa), range(sx), range(sy),
                                       range(sa), range(sb))])


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
        """``var`` is constant along every relabelling, output-only or
        local (Alice's output permutation at x* acting on the guess too),
        and reaches every slice column."""
        scenario = T.CausalScenario.for_game(kind, n, chsh_game)
        marginal = _pr_product(F(1, 2), n)
        for relabellings in (output_relabellings(marginal, scenario),
                             T.marginal_symmetries(marginal, scenario,
                                                   (0,) * n)):
            built = T.build_guessing_lp(chsh_game, marginal, (0,) * n,
                                        scenario, relabellings=relabellings)
            columns = _columns(built)
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
