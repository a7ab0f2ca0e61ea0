"""Tests for game construction, behaviors and behavior functionals."""

import ast
import itertools
import json
import math
import pathlib
import random
import re
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsrand import games as G
from nsrand import serialize as S


def decode_string(value, base, rounds):
    """The per-round symbols of a flattened string; round 1 first."""
    digits = []
    for _ in range(rounds):
        value, d = divmod(value, base)
        digits.append(d)
    return tuple(reversed(digits))


def _oracle_product(behavior, n):
    """``games.product_behavior`` multiplied entry by entry."""
    na, nb = behavior.output_sizes
    nx, ny = behavior.input_sizes
    table = {}
    for xs in itertools.product(range(nx), repeat=n):
        for ys in itertools.product(range(ny), repeat=n):
            ins = (G.encode_string(xs, nx), G.encode_string(ys, ny))
            for as_ in itertools.product(range(na), repeat=n):
                for bs in itertools.product(range(nb), repeat=n):
                    p = F(1)
                    for i in range(n):
                        p *= behavior.entry((as_[i], bs[i]), (xs[i], ys[i]))
                        if not p:
                            break
                    if p:
                        table[((G.encode_string(as_, na),
                                G.encode_string(bs, nb)), ins)] = p
    return G.Behavior((nx ** n, ny ** n), (na ** n, nb ** n), table)


def round_marginal(behavior, i, n, round_output_sizes, round_input_sizes):
    """Single-round marginal of an n-round bipartite behavior: rounds
    other than ``i`` keep the all-zero inputs, their outputs summed out."""
    na, nb = round_output_sizes
    nx, ny = round_input_sizes
    table = {}
    for x in range(nx):
        for y in range(ny):
            xs, ys = [0] * n, [0] * n
            xs[i], ys[i] = x, y
            ins = (G.encode_string(xs, nx), G.encode_string(ys, ny))
            for a in range(na):
                for b in range(nb):
                    total = F(0)
                    for as_ in itertools.product(range(na), repeat=n):
                        if as_[i] != a:
                            continue
                        for bs in itertools.product(range(nb), repeat=n):
                            if bs[i] != b:
                                continue
                            total += behavior.entry(
                                (G.encode_string(as_, na),
                                 G.encode_string(bs, nb)), ins)
                    table[((a, b), (x, y))] = total
    return G.Behavior((nx, ny), (na, nb), table)


@st.composite
def _boxes(draw, weights=st.sampled_from((0, 0, 1, 2, 3, 7))):
    """A random rational 2-party box with zero entries likely and 1-3
    symbols per alphabet, each input's entries ``weights`` over their
    sum, with a round count n of 1-3 whose product has at most 4,096
    entries: ``(box, n)``."""
    outs = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=2)))
    ins = tuple(draw(st.lists(st.integers(1, 3), min_size=2, max_size=2)))
    table = {}
    for x, y in itertools.product(*map(range, ins)):
        # Nonnegative weights, not all zero.
        ws = draw(st.lists(weights, min_size=math.prod(outs),
                           max_size=math.prod(outs)).filter(any))
        for (a, b), w in zip(itertools.product(*map(range, outs)), ws):
            table[((a, b), (x, y))] = F(w, sum(ws))
    entries = math.prod(outs + ins)
    n = draw(st.integers(1, max(
        r for r in (1, 2, 3) if r == 1 or entries ** r <= 4096)))
    return G.Behavior(ins, outs, table), n


def _oracle_form(behavior):
    """The integer form by the two table helpers: ``integer_table`` of
    the values, with the int64 bound of every sum of entries times the
    largest output alphabet, laid out by ``dense_table``."""
    table = behavior.table
    nums, den = G.integer_table(table.values(), bound=(len(table) + 1)
                                * max(behavior.output_sizes))
    return G.dense_table(table, (*behavior.output_sizes,
                                 *behavior.input_sizes), nums), den


def _assert_same_form(form, expected):
    (P, den), (Q, expected_den) = form, expected
    assert den == expected_den
    assert P.dtype == Q.dtype and P.shape == Q.shape
    assert np.array_equal(P, Q)


# Entries of every kind a table may hold: ints, Fractions over small and
# over huge denominators (numerators past int64 over their common one),
# floats, and zeros.
_ENTRIES = st.one_of(
    st.integers(-3, 3), st.fractions(-1, 1, max_denominator=60),
    st.fractions(-1, 1), st.floats(-1, 1, allow_nan=False),
    st.just(0), st.just(F(0)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_integers_match_the_table_conversion(data):
    """``Behavior.integers`` equals ``integer_table`` plus ``dense_table``
    of the table in values, denominator and int64/object choice, for 2
    and 3 parties, keys in any order, zero entries sometimes left out,
    normalized or not; a second read returns the same object."""
    parties = data.draw(st.sampled_from([2, 3]))
    top = 3 if parties == 2 else 2
    ins = tuple(data.draw(st.integers(1, top)) for _ in range(parties))
    outs = tuple(data.draw(st.integers(1, top)) for _ in range(parties))
    keys = data.draw(st.permutations([
        (o, i) for i in itertools.product(*map(range, ins))
        for o in itertools.product(*map(range, outs))]))
    table = {}
    for key in keys:
        p = data.draw(_ENTRIES)
        if p or data.draw(st.booleans()):
            table[key] = p
    behavior = G.Behavior(ins, outs, table,
                          subnormalized=data.draw(st.booleans()))
    form = behavior.integers
    _assert_same_form(form, _oracle_form(behavior))
    assert behavior.integers is form


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_entries_are_refused_by_the_form(bad):
    """A NaN or infinite entry has no integer form: reading it, the
    validity check and the product raise GameError."""
    table = dict(G.make_pr_v(G.NoisyPRParams(F(1, 2))).table)
    table[((0, 0), (1, 1))] = bad
    behavior = G.Behavior((2, 2), (2, 2), table)
    for read in (lambda: behavior.integers, behavior.check_valid,
                 lambda: G.product_behavior(behavior, 2)):
        with pytest.raises(G.GameError, match="finite"):
            read()


def test_game_tables_must_cover_the_alphabets(chsh_game):
    """A predicate with the right number of entries, one of them outside
    the alphabets, is not total."""
    predicate = dict(chsh_game.predicate)
    predicate[((7, 0), (1, 1))] = predicate.pop(((1, 1), (1, 1)))
    with pytest.raises(G.GameError, match="total"):
        G.Game(2, chsh_game.input_alphabets, chsh_game.output_alphabets,
               chsh_game.pi, predicate)


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

    @settings(max_examples=100, deadline=None)
    @given(case=_boxes())
    def test_product_matches_the_oracle(self, case):
        """Random rational boxes with zero entries, 1-3 symbols per
        alphabet and 1-3 rounds (at most 4,096 entries): equal tables with
        the same key order."""
        box, n = case
        product = G.product_behavior(box, n)
        expected = _oracle_product(box, n)
        assert (product.input_sizes, product.output_sizes) == \
            (expected.input_sizes, expected.output_sizes)
        assert list(product.table.items()) == list(expected.table.items())

    @settings(max_examples=100, deadline=None)
    @given(case=_boxes(st.one_of(st.sampled_from((0, 0, 1, 2, 3, 7)),
                                 st.integers(1, 2 ** 24))))
    def test_product_form_matches_the_oracle(self, case):
        """The integer form of a product equals the table conversion of
        the entry-by-entry product: values, denominator and int64/object
        choice, numerators past int64 included."""
        box, n = case
        _assert_same_form(G.product_behavior(box, n).integers,
                          _oracle_form(_oracle_product(box, n)))

    def test_round_marginal_value_consistency(self, chsh_game):
        """Each round of the product behaves like the single-round box."""
        v = F(1, 2)
        pr = G.make_pr_v(G.NoisyPRParams(v))
        p3 = G.product_behavior(pr, 3)
        for i in range(3):
            marginal = round_marginal(p3, i, 3, (2, 2), (2, 2))
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
        """A size that is not an integer of at least 1 is refused when the
        alphabet is made, naming the alphabet size."""
        for size in (1.5, 0, -1):
            with pytest.raises(G.GameError, match=re.escape(
                    f"alphabet size must be an integer of at least 1, not "
                    f"{size!r}")):
                G.Alphabet(size)

    @pytest.mark.parametrize("field, bad", [
        ("output_sizes", (2, 0)), ("input_sizes", (-1, 2)),
        ("input_sizes", (2, 2.5)), ("output_sizes", (2, "2"))])
    def test_behavior_alphabet_sizes_are_positive_integers(self, field, bad):
        """A behavior's alphabet size that is not an integer of at least 1
        is refused by name: it built an empty behavior, and a uniform
        one raised a bare ``ZeroDivisionError`` from ``Fraction(1, 0)``."""
        i = next(i for i, size in enumerate(bad) if size != 2)
        message = re.escape(f"alphabet size {field}[{i}] must be an integer "
                            f"of at least 1, not {bad[i]!r}")
        sizes = {"input_sizes": (2, 2), "output_sizes": (2, 2), field: bad}
        with pytest.raises(G.GameError, match=f"^{message}$"):
            G.Behavior(sizes["input_sizes"], sizes["output_sizes"], {})
        with pytest.raises(G.GameError, match=f"^{message}$"):
            G.uniform_behavior(sizes["output_sizes"], sizes["input_sizes"])

    def test_behavior_keeps_integer_sizes_as_tuples(self):
        box = G.uniform_behavior([np.int64(2), 3], [2, 2])
        assert box.output_sizes == (2, 3) and box.input_sizes == (2, 2)
        assert all(type(s) is int for s in box.output_sizes)
        box.check_valid()

    def test_alphabet_keeps_an_integer_size(self):
        two = G.Alphabet(2)
        assert two.size == 2 and type(two.size) is int
        assert two.symbols() == range(2)

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

    def test_float_entries_must_sum_to_one_exactly(self):
        """Float entries are taken at their exact binary values: inputs
        summing to 1 in float arithmetic but not exactly (0.1 + 0.2 +
        0.7) are refused, exactly dyadic ones are accepted."""
        table = {((a, b), (x, y)): 0.25 for a in range(2) for b in range(2)
                 for x in range(2) for y in range(2)}
        G.Behavior((2, 2), (2, 2), table).check_valid()
        for key, p in zip([(0, 0), (0, 1), (1, 0), (1, 1)],
                          [0.1, 0.2, 0.7, 0.0]):
            table[(key, (0, 0))] = p
        assert sum(table[(key, (0, 0))] for key in
                   [(0, 0), (0, 1), (1, 0), (1, 1)]) == 1.0
        with pytest.raises(G.GameError, match="per-input sums 1"):
            G.Behavior((2, 2), (2, 2), table).check_valid()

    def test_round_major_encoding(self):
        assert G.encode_string((1, 0, 2), 3) == 11
        assert decode_string(11, 3, 3) == (1, 0, 2)
        assert decode_string(G.encode_string((0, 1), 2), 2, 2) == (0, 1)


def test_behavior_table_is_a_read_only_copy():
    """The table cannot change under ``integers``: writes to it raise,
    and the dict it was built from is copied, so a later change to that
    dict leaves the behavior and its checks as they were."""
    source = dict(G.make_pr_v(G.NoisyPRParams(F(1))).table)
    behavior = G.Behavior((2, 2), (2, 2), source)
    behavior.check_valid()
    with pytest.raises(TypeError):
        behavior.table[((0, 0), (0, 0))] = -1
    source[((0, 0), (0, 0))] = -1
    assert behavior.entry((0, 0), (0, 0)) == F(1, 2)
    behavior.check_valid()
    with pytest.raises(G.GameError, match="nonnegative"):
        G.Behavior((2, 2), (2, 2), source).check_valid()


def test_dense_table_refuses_keys_outside_the_shape():
    """Negative symbols and symbols past an alphabet are named, the
    first three in table order."""
    table = {((0, 0), (0, 0)): 1, ((2, 0), (0, 0)): 2, ((0, 0), (0, -1)): 3,
             ((0, 1), (1, 0)): 4, ((0, 0), (5, 0)): 5, ((0, 3), (0, 0)): 6}
    with pytest.raises(G.GameError) as err:
        G.dense_table(table, (2, 2, 2, 2), np.arange(1, 7))
    assert str(err.value) == ("keys outside the alphabets: [((2, 0), (0, 0)), "
                              "((0, 0), (0, -1)), ((0, 0), (5, 0))]")


# ---------------------------------------------------------------------------
# the integer form of a game
# ---------------------------------------------------------------------------

def _oracle_coefficients(game):
    """``game_value_coefficients`` as a loop over the pi and predicate
    dicts, pi's order first."""
    coeffs = {}
    for ins, p_in in game.pi.items():
        if not p_in:
            continue
        for outs in game.outputs():
            if game.predicate[(outs, ins)]:
                coeffs[(outs, ins)] = p_in
    return coeffs


def _oracle_classical_value(game):
    """``classical_value`` one deterministic strategy at a time over the
    dict coefficients."""
    coeffs = _oracle_coefficients(game)
    spaces = [itertools.product(out.symbols(), repeat=inp.size)
              for inp, out in zip(game.input_alphabets, game.output_alphabets)]
    best = F(0)
    for strategies in itertools.product(*spaces):
        value = sum((coeffs.get((tuple(s[x] for s, x in zip(strategies, ins)),
                                 ins), 0) for ins in game.pi), start=F(0))
        best = max(best, value)
    return best


def _oracle_game_checks(behavior, game):
    """``verify_behavior``'s game checks as loops over the dicts: the
    losing events with mass, pi's order first, and sum(pi * V * P)."""
    leaked = [(outs, ins) for ins, p_in in game.pi.items() if p_in
              for outs in game.outputs()
              if not game.predicate[(outs, ins)] and behavior.entry(outs, ins)]
    value = sum((p * behavior.entry(*key)
                 for key, p in _oracle_coefficients(game).items()), start=F(0))
    return leaked, value


_VALUE_FORMS = ((0, 1), (False, True), (0.0, 1.0))


@st.composite
def _games_with_behaviors(draw):
    """A 2- or 3-party game with small alphabets: pi rational with zero
    entries, inserted in input order, and a random predicate, each entry
    written as 0/1, False/True or 0.0/1.0, in shuffled key order.  With
    it a behavior of its shape, nonnegative rational entries, zeros left
    out (not normalized: the game checks read it as it is)."""
    parties = draw(st.sampled_from((2, 3)))
    top = 3 if parties == 2 else 2
    ins = tuple(draw(st.integers(1, top)) for _ in range(parties))
    outs = tuple(draw(st.integers(1, top)) for _ in range(parties))
    inputs = list(itertools.product(*map(range, ins)))
    weights = [draw(st.fractions(0, 1, max_denominator=6)) for _ in inputs]
    weights[draw(st.integers(0, len(inputs) - 1))] += 1
    pi = {i: w / sum(weights) for i, w in zip(inputs, weights)}
    keys = draw(st.permutations([(o, i) for i in inputs for o in
                                 itertools.product(*map(range, outs))]))
    predicate = {key: draw(st.sampled_from(_VALUE_FORMS))[
        draw(st.integers(0, 1))] for key in keys}
    game = G.Game(parties, tuple(map(G.Alphabet, ins)),
                  tuple(map(G.Alphabet, outs)), pi, predicate)
    table = {key: draw(st.fractions(0, 1, max_denominator=8)) for key in keys}
    return game, G.Behavior(ins, outs, {k: p for k, p in table.items() if p})


@settings(max_examples=150, deadline=None)
@given(case=_games_with_behaviors())
def test_game_integers_agree_with_the_dict_oracles(case):
    """``Game.integers`` holds pi and pi*V over one denominator, V taken
    as 0/1 whatever its type; the coefficients (content and key order),
    the classical value, the bell value and ``verify_behavior``'s game
    checks read from it agree with loops over the dicts."""
    from nsrand import ksattack as K
    game, behavior = case
    W, pi, den = game.integers
    assert W.dtype == pi.dtype == np.int64
    for ins, p in game.pi.items():
        assert F(int(pi[ins]), den) == p
    for (outs, ins), v in game.predicate.items():
        assert F(int(W[(*outs, *ins)]), den) == (game.pi[ins] if v else 0)
    assert list(G.game_value_coefficients(game).items()) == \
        list(_oracle_coefficients(game).items())
    assert G.classical_value(game) == _oracle_classical_value(game)
    leaked, value = _oracle_game_checks(behavior, game)
    assert G.bell_value(behavior, game) == value
    checks = {c.name: (c.passed, c.detail)
              for c in K.verify_behavior(behavior, game).checks}
    assert checks["zero-mass-on-losing-events"] == (
        not leaked, f"mass on losing events {leaked[:3]}" if leaked else "")
    assert checks["wins-game"] == (value == 1, f"value {value}")


def test_game_tables_are_read_only_copies():
    """The tables cannot change under ``integers``.  Setting CHSH's
    pi[(0, 0)] to 5 made ``classical_value`` 11/2 with no error; now
    writes raise, and the dicts a game is built from are copied, so a
    later change to them leaves the game as it was."""
    chsh = G.make_chsh_game()
    with pytest.raises(TypeError):
        chsh.pi[(0, 0)] = F(5)
    with pytest.raises(TypeError):
        chsh.predicate[((0, 0), (1, 1))] = 1
    pi, predicate = dict(chsh.pi), dict(chsh.predicate)
    game = G.Game(2, chsh.input_alphabets, chsh.output_alphabets, pi,
                  predicate)
    pi[(0, 0)], predicate[((0, 0), (1, 1))] = F(5), 1
    assert game.pi[(0, 0)] == F(1, 4) and game.wins((0, 0), (1, 1)) == 0
    assert G.classical_value(game) == F(3, 4)
    assert G.game_value_coefficients(game) == \
        G.game_value_coefficients(G.make_chsh_game())


def test_bell_value_refuses_what_the_verifier_refuses(chsh_game):
    """The v = 1 PR box plus an entry at output 2 of a binary alphabet had
    bell value 1 while ``verify_behavior`` refused it: the key is now
    named, as is a NaN entry.  Float entries count at their exact binary
    values, so the float box's value is the Fraction 1."""
    table = dict(G.make_pr_v(G.NoisyPRParams(F(1))).table)
    extra = G.Behavior((2, 2), (2, 2), {**table, ((2, 0), (0, 0)): F(1, 3)})
    with pytest.raises(G.GameError, match=re.escape(
            "keys outside the alphabets: [((2, 0), (0, 0))]")):
        G.bell_value(extra, chsh_game)
    nan = G.Behavior((2, 2), (2, 2), {**table, ((0, 0), (0, 0)): math.nan})
    with pytest.raises(G.GameError, match="finite"):
        G.bell_value(nan, chsh_game)
    floats = G.Behavior((2, 2), (2, 2), {k: float(p) for k, p in table.items()})
    value = G.bell_value(floats, chsh_game)
    assert value == 1 and type(value) is F


def test_negative_pi_entry_is_named(chsh_game):
    """A pi summing to 1 with a negative entry was reported as "sums to
    1"; the first negative entry is named instead."""
    pi = {(0, 0): F(-1, 4), (0, 1): F(3, 4), (1, 0): F(1, 4), (1, 1): F(1, 4)}
    with pytest.raises(G.GameError, match=re.escape(
            "input probability pi[(0, 0)] = -1/4 < 0")):
        G.Game(2, chsh_game.input_alphabets, chsh_game.output_alphabets, pi,
               chsh_game.predicate)


_SUM = "input distribution must be a probability distribution (sums to {})"
_ZERO_ONE = "predicate entries must be 0 or 1"
_TOTAL = "pi/predicate tables must be total over the alphabets"


@pytest.mark.parametrize("pi_edit, predicate_edit, message", [
    ({(1, 1): None}, {}, _SUM.format("3/4")),
    ({(1, 1): None, (0, 0): F(1, 2)}, {}, _TOTAL),
    ({(2, 0): F(0)}, {}, _TOTAL),
    ({(0,): F(0)}, {}, _TOTAL),
    ({(1, 1): None, (0, 2): F(1, 4)}, {}, _TOTAL),
    ({}, {((0, 1), (1, 0)): None}, _TOTAL),
    ({}, {((0, 0), (0, 2)): 1}, _TOTAL),
    ({}, {((0,), (0, 0)): 1}, _TOTAL),
    ({}, {((1, 1), (1, 1)): None, ((7, 0), (1, 1)): 0}, _TOTAL),
    ({(1, 1): math.nan}, {}, _SUM.format("nan")),
    ({(1, 1): math.inf}, {}, _SUM.format("inf")),
    ({(1, 1): -math.inf}, {}, _SUM.format("-inf")),
    ({}, {((0, 0), (1, 1)): 2}, _ZERO_ONE),
    ({}, {((0, 0), (1, 1)): math.nan}, _ZERO_ONE),
    ({}, {((0, 0), (1, 1)): "1"}, _ZERO_ONE),
    ({}, {((0, 0), (1, 1)): [1]}, _ZERO_ONE),
    ({(2, 0): F(0)}, {((0, 0), (1, 1)): 2}, _ZERO_ONE),
    ({(1, 1): math.nan}, {((0, 0), (1, 1)): 2}, _SUM.format("nan")),
    ({(1, 1): None}, {((0, 0), (1, 1)): 2}, _SUM.format("3/4")),
    ({}, {((0, 1), (1, 0)): None, ((0, 0), (1, 1)): 0.5}, _ZERO_ONE),
])
def test_malformed_games_keep_their_messages(chsh_game, pi_edit,
                                             predicate_edit, message):
    """CHSH with entries dropped (None), added or changed: missing, extra,
    short and out-of-range keys, NaN and infinite pi, predicate entries
    off 0/1 (2, NaN, a string, a list), and two faults at once.  Each raises the message it raised
    when the checks walked the dicts: the sum first, then the predicate
    values, then totality."""
    tables = []
    for table, edit in ((chsh_game.pi, pi_edit),
                        (chsh_game.predicate, predicate_edit)):
        table = {**table, **edit}
        tables.append({k: v for k, v in table.items() if v is not None})
    with pytest.raises(G.GameError, match=f"^{re.escape(message)}$"):
        G.Game(2, chsh_game.input_alphabets, chsh_game.output_alphabets,
               *tables)


def test_float_pi_is_taken_at_its_exact_binary_value(chsh_game):
    """0.25 each is a distribution.  0.1, 0.2, 0.7 and 0, which sum to 1.0
    in float arithmetic, are not, and the message gives the exact sum."""
    alphabets = chsh_game.input_alphabets, chsh_game.output_alphabets
    quarter = G.Game(2, *alphabets, dict.fromkeys(chsh_game.pi, 0.25),
                     chsh_game.predicate)
    assert G.classical_value(quarter) == F(3, 4)
    pi = dict(zip(chsh_game.pi, [0.1, 0.2, 0.7, 0.0]))
    assert sum(pi.values()) == 1.0
    exact = sum(map(F, pi.values()))
    with pytest.raises(G.GameError, match=re.escape(_SUM.format(exact))):
        G.Game(2, *alphabets, pi, chsh_game.predicate)


def _table_reads(source):
    """Lines reading an attribute ``pi`` or ``predicate``, ``math.pi``
    aside."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("pi", "predicate")
                  and not (isinstance(node.value, ast.Name)
                           and node.value.id == "math"))


def test_only_games_and_serialize_read_the_game_dicts():
    """Every other module reads a game through ``Game.integers``: no
    ``.pi`` or ``.predicate`` outside ``games.py`` and ``serialize.py``."""
    assert _table_reads("game.pi[(0, 0)]\nmath.pi\nx = g.predicate") == [1, 3]
    src = pathlib.Path(G.__file__).parent
    reads = {path.name: _table_reads(path.read_text())
             for path in sorted(src.glob("*.py"))
             if path.name not in ("games.py", "serialize.py")}
    assert len(reads) > 5
    assert {name: lines for name, lines in reads.items() if lines} == {}


def test_product_keeps_the_box_subnormalized():
    """The v = 1/2 PR box with every entry halved, marked subnormalized,
    passes its check; so does its two-round product, whose per-input sums
    are 1/4.  The product was marked normalized, and its check raised."""
    pr = G.make_pr_v(G.NoisyPRParams(F(1, 2)))
    box = G.Behavior((2, 2), (2, 2), {k: p / 2 for k, p in pr.table.items()},
                     subnormalized=True)
    box.check_valid()
    product = G.product_behavior(box, 2)
    assert product.subnormalized
    product.check_valid()
    assert {product.normalization(ins) for ins in product.inputs()} == \
        {F(1, 4)}


def test_behavior_integers_are_read_only(chsh_game):
    """The integer form of a table, and of a product, cannot be edited in
    place: a write to it raises, and what is read from it stays."""
    box = G.make_pr_v(G.NoisyPRParams(F(1, 2)))
    for behavior in (box, G.product_behavior(box, 2)):
        P, den = behavior.integers
        with pytest.raises(ValueError, match="read-only"):
            P[...] = 0
        assert (P > 0).all() and behavior.integers[0] is P
    assert G.bell_value(box, chsh_game) == F(7, 8)


def test_game_integers_are_read_only():
    """Zeroing CHSH's cached W made ``classical_value`` 0 while the
    predicate still read 1; W and pi now refuse the write."""
    chsh = G.make_chsh_game()
    W, pi, _ = chsh.integers
    for array in (W, pi):
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert G.classical_value(chsh) == F(3, 4)


class TestProductTableView:
    """A product's table is read from its integer form, on first read."""

    @pytest.fixture
    def conversions(self, monkeypatch):
        """How often a view's ``Fraction`` dict is built."""
        calls = []

        def spy(nums, den, key):
            calls.append(nums.shape)
            return fraction_table(nums, den, key)
        fraction_table = G.fraction_table
        monkeypatch.setattr(G, "fraction_table", spy)
        return calls

    def test_the_dict_is_built_once_and_only_when_read(self, conversions):
        product = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(1, 2))), 3)
        product.check_valid()
        assert product.integers[1] == 4096 and not conversions
        assert product.entry((0, 0), (0, 0)) == F(343, 4096)
        assert len(product.table) == 4096
        assert conversions == [(8, 8, 8, 8)]

    def test_lookups_match_the_dict_and_build_it_only_off_the_form(self):
        """Keys of in-range ints are read off the integer form, without the
        dict; zeros are absent.  Any other key gets the dict's answer."""
        product = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(1))), 2)
        copy = dict(_oracle_product(G.make_pr_v(G.NoisyPRParams(F(1))),
                                    2).table)

        def lookup(table, key):
            try:
                return table[key], type(table[key]), key in table
            except (KeyError, TypeError) as error:
                return type(error), key in table if type(error) is \
                    KeyError else None
        ints = list(itertools.product(*map(range, (4, 4, 4, 4))))
        keys = [(i[:2], i[2:]) for i in ints]
        assert [lookup(product.table, k) for k in keys] == \
            [lookup(copy, k) for k in keys]
        assert len(copy) == 64 and "_table" not in product.table.__dict__
        odd = [((0, -1), (0, 0)), ((4, 0), (0, 0)), ((0, 0), (0,)),
               ((0, 0, 0), (0,)), (((0, 0), (0, 0)),), (0, 0, 0, 0),
               ((True, 0), (0, 0)), ((0.0, 0), (0, 0)),
               ((np.int64(0), 0), (0, 0)), ([0, 0], [0, 0]), "key",
               ((1, 1), [0, 0])]
        assert [lookup(product.table, k) for k in odd] == \
            [lookup(copy, k) for k in odd]
        assert product.entry((1, 0), (0, 0)) == 0

    def test_items_are_the_oracle_products_in_order(self):
        box = G.make_pr_v(G.NoisyPRParams(F(1, 3)))
        for n in (1, 2, 3):
            assert list(G.product_behavior(box, n).table.items()) == \
                list(_oracle_product(box, n).table.items())

    def test_items_build_the_dict_once_and_yield_its_pairs(self, conversions):
        """``items()`` reads the built dict: one ``fraction_table`` call,
        and the same value objects on every read, not a new ``Fraction``
        per entry."""
        product = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(1, 2))), 2)
        first, again = list(product.table.items()), list(product.table.items())
        assert conversions == [(4, 4, 4, 4)]
        assert first == list(dict(product.table).items())
        assert all(a is b for (_, a), (_, b) in zip(first, again))
        assert conversions == [(4, 4, 4, 4)]

    def test_equal_both_ways_to_a_dict_copy(self):
        product = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(2, 3))), 2)
        copy = dict(product.table)
        assert product.table == copy and copy == product.table
        assert product == G.Behavior(product.input_sizes,
                                     product.output_sizes, copy)
        assert G.Behavior(product.input_sizes, product.output_sizes,
                          copy) == product
        copy[((0, 0), (0, 0))] += 1
        assert product.table != copy and copy != product.table

    def test_serialized_as_its_dict_copy(self):
        product = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(1, 4))), 2)
        copy = G.Behavior(product.input_sizes, product.output_sizes,
                          dict(product.table))
        assert json.dumps(S.behavior_to_dict(product)) == \
            json.dumps(S.behavior_to_dict(copy))


@pytest.mark.parametrize("n", [0, -2, 1.5, F(2), "2"])
def test_product_round_count_must_be_a_positive_integer(n):
    """A round count that is not an integer, or is below 1, is a
    GameError naming the value, not a TypeError or a fractional power."""
    box = G.make_pr_v(G.NoisyPRParams(F(1, 2)))
    with pytest.raises(G.GameError, match=re.escape(
            f"round count must be an integer of at least 1, not {n!r}")):
        G.product_behavior(box, n)
