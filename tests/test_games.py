"""Tests for game construction, behaviors and behavior functionals."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from nsrand import games as G


class TestChainGame:
    def test_predicate_values(self, chain_game):
        """Correlated, forbidden and always-win entries of the predicate."""
        assert chain_game.wins((0, 0), (0, 0)) == 1
        assert chain_game.wins((0, 1), (0, 0)) == 0
        assert chain_game.wins((1, 0), (1, 2)) == 1   # always-win pair
        assert chain_game.wins((0, 1), (0, 2)) == 1   # anticorrelated pair
        assert chain_game.wins((0, 0), (0, 2)) == 0

    def test_uniform_complete_support(self, chain_game):
        assert all(p == F(1, 9) for p in chain_game.pi.values())

    def test_classical_value(self, chain_game):
        """The 6-cycle with one flip admits at most 5 satisfied constraints."""
        assert G.classical_value(chain_game) == F(8, 9)

    def test_general_m_builder(self):
        """The m-setting generalization: classical value (m^2 - 1)/m^2."""
        for m in (2, 4):
            game = G.make_chain_game(m)
            assert len(game.pi) == m * m
            assert G.classical_value(game) == F(m * m - 1, m * m)
        with pytest.raises(G.GameError):
            G.make_chain_game(1)


class TestChshGame:
    def test_predicate_values(self, chsh_game):
        assert chsh_game.wins((0, 0), (1, 1)) == 0
        assert chsh_game.wins((1, 0), (1, 1)) == 1
        assert chsh_game.wins((0, 0), (0, 1)) == 1

    def test_classical_value(self, chsh_game):
        assert G.classical_value(chsh_game) == F(3, 4)


class TestGuessingGame:
    def test_predicate_values(self, chain_guessing_game):
        gg = chain_guessing_game
        assert gg.wins((0, 0, 0), (0, 0, 0)) == 1
        assert gg.wins((0, 0, 1), (0, 0, 0)) == 0   # e != a while z == x
        assert gg.wins((0, 0, 1), (0, 0, 2)) == 1   # z != x frees Eve
        assert gg.wins((0, 1, 0), (0, 0, 1)) == 0   # chain part still binds

    def test_rejects_tripartite_input(self, chain_guessing_game):
        with pytest.raises(G.GameError):
            G.make_guessing_game(chain_guessing_game)

    def test_preserves_complete_support(self, chain_game, chain_guessing_game):
        """pi_g > 0 everywhere and Eve's alphabet matches Alice's."""
        assert all(p > 0 for p in chain_guessing_game.pi.values())
        assert min(chain_guessing_game.pi.values()) == F(1, 27)
        assert chain_guessing_game.input_sizes == (3, 3, 3)
        assert chain_guessing_game.output_sizes == (2, 2, 2)

    def test_matches_conjunction_of_predicates(self, chain_game,
                                               chain_guessing_game):
        """V_g factorizes as V(a,b,x,y) * W(a,e,x,z) over the whole table."""
        for (a, b, e), (x, y, z) in chain_guessing_game.predicate:
            expected = chain_game.wins((a, b), (x, y)) * \
                G.guess_predicate(a, e, x, z)
            assert chain_guessing_game.wins((a, b, e), (x, y, z)) == expected


class TestMagicSquareGame:
    def test_classical_value_by_independent_enumeration(self, magic_square_game):
        """Brute force over all deterministic strategies gives 8/9."""
        alice, bob = G.magic_square_parity_triples()
        best = 0
        for sa in itertools.product(range(4), repeat=3):
            for sb in itertools.product(range(4), repeat=3):
                wins = sum(alice[sa[x]][y] == bob[sb[y]][x]
                           for x in range(3) for y in range(3))
                best = max(best, wins)
        assert F(best, 9) == F(8, 9)
        assert G.classical_value(magic_square_game) == F(8, 9)

    def test_matches_bundled_data(self, magic_square_game):
        """The versioned data file agrees with the generating convention."""
        regenerated = G._magic_square_table()
        for key, val in regenerated["V"].items():
            a, b, x, y = (int(t) for t in key.split(","))
            assert magic_square_game.wins((a, b), (x, y)) == val

    def test_symmetry_under_simultaneous_relabeling(self, magic_square_game):
        """A cyclic row/column shift is undone by relabeling the outputs."""
        game = magic_square_game
        alice, bob = G.magic_square_parity_triples()
        sigma = {0: 1, 1: 2, 2: 0}
        def relabel(triples, t_index):
            # compose with sigma^{-1} so position sigma(k) holds entry k
            t = triples[t_index]
            return triples.index((t[2], t[0], t[1]))
        for x in range(3):
            for y in range(3):
                for a in range(4):
                    for b in range(4):
                        pa = relabel(alice, a)
                        pb = relabel(bob, b)
                        assert game.wins((pa, pb), (sigma[x], sigma[y])) == \
                            game.wins((a, b), (x, y))


class TestNoisyPrBox:
    def test_entry_values(self):
        pr1 = G.make_pr_v(G.NoisyPRParams(F(1)))
        assert pr1.entry((0, 0), (1, 1)) == 0
        pr0 = G.make_pr_v(G.NoisyPRParams(F(0)))
        assert pr0.entry((0, 0), (0, 0)) == F(3, 8)
        assert set(pr0.table.values()) == {F(3, 8), F(1, 8)}

    def test_rejects_v_outside_unit_interval(self):
        with pytest.raises(G.GameError):
            G.NoisyPRParams(F(3, 2))

    def test_chsh_value_formula(self, chsh_game):
        """Direct summation over the 16 events gives (3+v)/4."""
        for v in (F(0), F(1, 3), F(1, 2), F(1)):
            pr = G.make_pr_v(G.NoisyPRParams(v))
            total = sum(F(1, 4) * pr.entry((a, b), (x, y))
                        for a in range(2) for b in range(2)
                        for x in range(2) for y in range(2)
                        if a ^ b == x & y)
            assert total == (3 + v) / 4
            assert G.bell_value(pr, chsh_game) == (3 + v) / 4


class TestProductBehavior:
    def test_single_round_is_identity(self):
        pr = G.make_pr_v(G.NoisyPRParams(F(1, 2)))
        assert G.product_behavior(pr, 1).table == pr.table

    def test_two_round_pr_box_entry(self):
        p2 = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(1))), 2)
        assert p2.entry((0, 0), (0, 0)) == F(1, 4)

    def test_normalization_every_input(self):
        p2 = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(1, 3))), 2)
        for ins in p2.inputs():
            assert p2.normalization(ins) == 1

    def test_rejects_zero_rounds(self):
        with pytest.raises(G.GameError):
            G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(1))), 0)

    def test_round_marginal_value_consistency(self, chsh_game):
        """Each round of the product behaves like the single-round box."""
        v = F(1, 2)
        pr = G.make_pr_v(G.NoisyPRParams(v))
        p3 = G.product_behavior(pr, 3)
        for i in range(3):
            marginal = G.round_marginal(p3, i, 3, (2, 2), (2, 2))
            assert G.bell_value(marginal, chsh_game) == (3 + v) / 4


class TestBehaviorFunctionals:
    def test_pr_box_wins_chsh(self, chsh_game):
        assert G.bell_value(G.make_pr_v(G.NoisyPRParams(F(1))), chsh_game) == 1

    def test_uniform_behavior_chain_value(self, chain_game):
        """Brute-force summation over all 36 events gives 2/3."""
        uniform = G.uniform_behavior((2, 2), (3, 3))
        oracle = sum(F(1, 9) * F(1, 4) * chain_game.wins((a, b), (x, y))
                     for a in range(2) for b in range(2)
                     for x in range(3) for y in range(3))
        assert oracle == F(2, 3)
        assert G.bell_value(uniform, chain_game) == F(2, 3)

    def test_shape_mismatch_raises(self, chain_game):
        with pytest.raises(G.GameError):
            G.bell_value(G.make_pr_v(G.NoisyPRParams(F(1))), chain_game)

    def test_chain_expression_deterministic_point(self):
        det = G.Behavior((3, 3), (2, 2),
                         {((a, b), (x, y)): F(1 if (a, b) == (0, 0) else 0)
                          for a in range(2) for b in range(2)
                          for x in range(3) for y in range(3)})
        assert G.chain_expression_value(det) == 4

    def test_chain_expression_uniform_vanishes(self):
        assert G.chain_expression_value(G.uniform_behavior((2, 2), (3, 3))) == 0

    def test_chain_expression_perfect_behavior(self):
        """A behavior winning every correlated pair reaches the NS bound 6."""
        table = {}
        for x in range(3):
            for y in range(3):
                target = G.chain_correlated_pairs(3).get((x, y), 0)
                for a in range(2):
                    for b in range(2):
                        table[((a, b), (x, y))] = \
                            F(1, 2) if a ^ b == target else F(0)
        assert G.chain_expression_value(G.Behavior((3, 3), (2, 2), table)) == 6

    def test_correlated_pair_parameterization(self, chain_game):
        """With success q on each correlated pair: value (3+6q)/9, I3 = 6(2q-1)."""
        rng = random.Random(7)
        for _ in range(100):
            q = F(rng.randint(0, 64), 64)
            table = {}
            for x in range(3):
                for y in range(3):
                    target = G.chain_correlated_pairs(3).get((x, y), 0)
                    for a in range(2):
                        for b in range(2):
                            table[((a, b), (x, y))] = \
                                q / 2 if a ^ b == target else (1 - q) / 2
            behavior = G.Behavior((3, 3), (2, 2), table)
            assert G.bell_value(behavior, chain_game) == (3 + 6 * q) / 9
            assert G.chain_expression_value(behavior) == 6 * (2 * q - 1)


class TestConstructedGameInvariants:
    def test_pi_sums_and_total_predicates(self, chain_game, chsh_game,
                                          chain_guessing_game,
                                          magic_square_game):
        """Every bundled game has an exact distribution and a total table."""
        for game in (chain_game, chsh_game, chain_guessing_game,
                     magic_square_game):
            assert sum(game.pi.values()) == 1
            n_in = math.prod(game.input_sizes)
            n_out = math.prod(game.output_sizes)
            assert len(game.predicate) == n_in * n_out

    def test_alphabet_validation(self):
        with pytest.raises(G.GameError):
            G.Alphabet(0)

    def test_game_rejects_bad_distribution(self):
        two = G.Alphabet(2)
        pi = {(0, 0): F(1, 2), (0, 1): F(1, 2), (1, 0): F(1, 2),
              (1, 1): F(-1, 2)}
        predicate = {((a, b), (x, y)): 1 for a in range(2) for b in range(2)
                     for x in range(2) for y in range(2)}
        with pytest.raises(G.GameError):
            G.Game(2, (two, two), (two, two), pi, predicate)

    def test_behavior_check_valid(self):
        table = {((a, b), (x, y)): F(1, 4) for a in range(2) for b in range(2)
                 for x in range(2) for y in range(2)}
        G.Behavior((2, 2), (2, 2), table).check_valid()
        table[((0, 0), (0, 0))] = F(-1, 4)
        with pytest.raises(G.GameError):
            G.Behavior((2, 2), (2, 2), table).check_valid()

    def test_round_major_encoding(self):
        assert G.encode_string((1, 0, 2), 3) == 11
        assert G.decode_string(11, 3, 3) == (1, 0, 2)
        assert G.decode_string(G.encode_string((0, 1), 2), 2, 2) == (0, 1)
