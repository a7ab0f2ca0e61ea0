"""Tests for multi-round causal constraint sets and guessing LPs."""

import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nsrand import games as G
from nsrand import ksattack as K
from nsrand import lp as L
from nsrand import nsvalues as NV
from nsrand import tons as T


def _pr_product(v, n):
    return G.product_behavior(G.make_pr_v(G.NoisyPRParams(v)), n)


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
                chsh_game, None, (0,), scenario,
                constraint_mode=T.PER_ROUND_VALUE, omega_star=w)
            direct = NV.single_round_guessing(chsh_game, 0, w)
            assert via_mode == direct

    def test_two_round_mode_runs(self, chsh_game):
        scenario = T.CausalScenario.for_game(T.TONS, 2, chsh_game)
        pg = T.tons_guessing_probability(
            chsh_game, None, (0, 0), scenario,
            constraint_mode=T.PER_ROUND_VALUE, omega_star=F(7, 8))
        assert F(1, 4) <= pg <= 1


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


def _direct_and_oracle_slice(game, marginal, scenario):
    """``dump_lp`` of the slice built directly and of the full LP's orbit
    quotient under the marginal's relabellings."""
    n = scenario.rounds
    relabellings = T.marginal_relabellings(marginal, scenario)
    direct = T.build_guessing_lp(game, marginal, (0,) * n, scenario,
                                 relabellings=relabellings)
    full = T.build_guessing_lp(game, marginal, (0,) * n, scenario)
    oracle = T.orbit_quotient(full.program,
                              T.relabelling_images(full, relabellings))
    return L.dump_lp(direct.program), L.dump_lp(oracle)


def _full_and_slice(game, marginal, scenario, mode="exact"):
    """Optimum of the full guessing LP and of its symmetric slice."""
    n = scenario.rounds
    built = T.build_guessing_lp(game, marginal, (0,) * n, scenario)
    full = NV._solve_certified(built.program, mode).value
    sliced = T.tons_guessing_probability(game, marginal, (0,) * n, scenario,
                                         mode=mode)
    return full, sliced


SCENARIOS = [(kind, n) for kind in (T.TONS, T.ABNS) for n in (1, 2)]


class TestSymmetricSlice:
    @pytest.mark.parametrize("kind,n", SCENARIOS)
    def test_relabellings_map_the_full_lp_onto_itself(self, chsh_game,
                                                      kind, n):
        scenario = T.CausalScenario.for_game(kind, n, chsh_game)
        marginal = _pr_product(F(1, 2), n)
        relabellings = T.marginal_relabellings(marginal, scenario)
        # The noisy PR box is fixed by flipping both outputs of one round.
        assert relabellings == [(k, (1, 0), (1, 0)) for k in range(n)]
        built = T.build_guessing_lp(chsh_game, marginal, (0,) * n, scenario)
        prog = built.program
        rows = {(con.coeffs, con.rel, con.rhs) for con in prog.constraints}
        for image in T.relabelling_images(built, relabellings):
            assert sorted(image) == list(range(prog.num_vars))
            assert {int(image[j]): c for j, c in prog.objective.items()} \
                == prog.objective
            moved = {(tuple(sorted((int(image[j]), c) for j, c in con.coeffs)),
                      con.rel, con.rhs) for con in prog.constraints}
            assert moved == rows

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
        assert solved == [sa * sb * sx * sy]

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
            assert T.marginal_relabellings(marginal, scenario)
        full, sliced = _full_and_slice(game, marginal, scenario)
        assert sliced == full
        direct, oracle = _direct_and_oracle_slice(game, marginal, scenario)
        assert direct == oracle

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
        """``var`` is constant along every relabelling (Alice's acting on
        the guess too) and reaches every slice column."""
        scenario = T.CausalScenario.for_game(kind, n, chsh_game)
        relabellings = T.marginal_relabellings(_pr_product(F(1, 2), n),
                                               scenario)
        built = T.build_guessing_lp(chsh_game, _pr_product(F(1, 2), n),
                                    (0,) * n, scenario,
                                    relabellings=relabellings)
        assert set(built.var.values()) == set(range(built.program.num_vars))
        for relabelling in relabellings:
            ia, ib = T._relabelled_strings(relabelling, scenario)
            for (e, A, B, X, Y), j in built.var.items():
                assert built.var[(ia[e], ia[A], ib[B], X, Y)] == j

    def test_relabellings_need_fixed_marginal_mode(self, chsh_game):
        scenario = T.CausalScenario.for_game(T.TONS, 1, chsh_game)
        with pytest.raises(G.GameError, match="fixed-marginal"):
            T.build_guessing_lp(chsh_game, None, (0,), scenario,
                                constraint_mode=T.PER_ROUND_VALUE,
                                omega_star=F(3, 4),
                                relabellings=[(0, (1, 0), (1, 0))])

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
        assert T.marginal_relabellings(marginal, scenario) == \
            [(k, (1, 0), (0, 1)) for k in range(n)]
        for mode in ("exact", "float"):
            with pytest.raises(NV.InfeasibleError):
                T.tons_guessing_probability(chsh_game, marginal, (0,) * n,
                                            scenario, mode=mode)

    @pytest.mark.parametrize("kind,n", SCENARIOS)
    def test_asymmetric_marginal_keeps_the_full_lp(self, chsh_game, kind, n):
        """Always outputting (0, 0) is fixed by no relabelling."""
        box = G.Behavior((2, 2), (2, 2), {
            ((0, 0), (x, y)): F(1) for x in range(2) for y in range(2)})
        marginal = G.product_behavior(box, n)
        scenario = T.CausalScenario.for_game(kind, n, chsh_game)
        relabellings = T.marginal_relabellings(marginal, scenario)
        assert relabellings == []
        built = T.build_guessing_lp(chsh_game, marginal, (0,) * n, scenario)
        quotient = T.orbit_quotient(built.program,
                                    T.relabelling_images(built, relabellings))
        assert quotient.num_vars == built.program.num_vars
        direct, oracle = _direct_and_oracle_slice(chsh_game, marginal,
                                                  scenario)
        assert direct == oracle == L.dump_lp(built.program)
        assert T.tons_guessing_probability(chsh_game, marginal, (0,) * n,
                                           scenario) == 1
