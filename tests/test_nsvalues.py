"""Tests for single-round no-signalling values and guessing LPs."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from nsrand import games as G
from nsrand import lp as L
from nsrand import nsvalues as NV


class TestNsValue:
    def test_chain_game(self, chain_game):
        """A PR-type behavior wins the chain game perfectly."""
        assert NV.ns_value(chain_game) == 1

    def test_chsh_game(self, chsh_game):
        assert NV.ns_value(chsh_game) == 1

    def test_chain_guessing_game(self, chain_guessing_game):
        assert NV.ns_value(chain_guessing_game) == F(8, 9)

    def test_chsh_guessing_game(self, chsh_game):
        """Monogamy forces the CHSH guessing game strictly below 1."""
        assert NV.ns_value(G.make_guessing_game(chsh_game)) == F(3, 4)

    def test_magic_square(self, magic_square_game):
        assert NV.ns_value(magic_square_game) == 1


def _relabelled(game, input_perms, output_perms):
    """The game with party k's input x renamed input_perms[k][x] and, at
    input x, its output a renamed output_perms[k][x][a]."""
    def move_inputs(ins):
        return tuple(input_perms[k][x] for k, x in enumerate(ins))

    def move_outputs(outs, ins):
        return tuple(output_perms[k][x][a]
                     for k, (a, x) in enumerate(zip(outs, ins)))

    pi = {move_inputs(ins): p for ins, p in game.pi.items()}
    predicate = {(move_outputs(outs, ins), move_inputs(ins)): win
                 for (outs, ins), win in game.predicate.items()}
    return G.Game(game.parties, game.input_alphabets, game.output_alphabets,
                  pi, predicate, game.name)


@st.composite
def _relabelling(draw, game):
    """Per party, an input permutation and one output permutation per
    input."""
    input_perms, output_perms = [], []
    for n_in, n_out in zip(game.input_sizes, game.output_sizes):
        input_perms.append(draw(st.permutations(range(n_in))))
        output_perms.append([draw(st.permutations(range(n_out)))
                             for _ in range(n_in)])
    return input_perms, output_perms


class TestNsValueInvariance:
    """A relabelling of each party's inputs and outputs maps the
    no-signalling polytope onto itself, so the value is unchanged."""

    @pytest.mark.parametrize("name", ["chsh", "chain"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_ns_value_is_relabelling_invariant(self, name, data):
        game = {"chsh": G.make_chsh_game, "chain": G.make_chain_game}[name]()
        relabelled = _relabelled(game, *data.draw(_relabelling(game)))
        assert NV.ns_value(relabelled) == NV.ns_value(game)

    @pytest.mark.parametrize("name", ["chsh", "chain"])
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_guessing_game_value_is_relabelling_invariant(self, name, data):
        """The same on the tripartite guessing game, value below 1."""
        game = G.make_guessing_game(
            {"chsh": G.make_chsh_game, "chain": G.make_chain_game}[name]())
        relabelled = _relabelled(game, *data.draw(_relabelling(game)))
        assert NV.ns_value(relabelled) == NV.ns_value(game) < 1


class TestEpsNsValue:
    def test_matches_ns_value_at_zero(self, chain_guessing_game, chsh_game):
        for game in (chain_guessing_game, G.make_guessing_game(chsh_game)):
            assert NV.eps_ns_value(game, 0).value == NV.ns_value(game)

    def test_linear_regime_values(self, chain_guessing_game):
        for eps in (F(1, 40), F(1, 20), F(1, 10)):
            report = NV.eps_ns_value(chain_guessing_game, eps)
            assert report.value == (8 + 10 * eps) / 9

    def test_saturates_at_one(self, chain_guessing_game):
        assert NV.eps_ns_value(chain_guessing_game, F(1, 5)).value == 1
        assert NV.eps_ns_value(chain_guessing_game, F(1, 2)).value == 1

    def test_monotone_and_capped(self, chain_guessing_game):
        values = [NV.eps_ns_value(chain_guessing_game, e).value
                  for e in (0, F(1, 40), F(1, 20), F(1, 8), F(1, 4))]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert all(v <= 1 for v in values)

    def test_dual_certificate_structure(self, chain_guessing_game):
        """Normalization duals per setting plus six tau families, verified."""
        report = NV.eps_ns_value(chain_guessing_game, F(1, 20))
        assert report.solution.certified
        assert len(report.normalization_duals) == 27
        assert set(report.tau_duals) <= {
            "A|x", "B|y", "E|z", "AB|xy", "AE|xz", "BE|yz"}
        assert all(t >= 0 for fam in report.tau_duals.values()
                   for t in fam.values())
        # Dual objective reproduces the optimum: sum N + eps * sum tau.
        n_sum = sum(report.normalization_duals.values())
        t_sum = sum(t for fam in report.tau_duals.values()
                    for t in fam.values())
        assert n_sum + F(1, 20) * t_sum == report.value

    def test_rejects_negative_epsilon(self, chain_guessing_game):
        with pytest.raises(G.GameError):
            NV.eps_ns_value(chain_guessing_game, F(-1, 10))


class TestAlphaSlope:
    def test_chain_guessing_slope(self, chain_guessing_game):
        grid = [F(0), F(1, 40), F(1, 20)]
        assert NV.alpha_slope(chain_guessing_game, grid) == F(10, 9)

    def test_degenerate_grid_rejected(self, chain_guessing_game):
        with pytest.raises(G.GameError):
            NV.alpha_slope(chain_guessing_game, [F(1, 40), F(1, 40)])

    def test_chsh_guessing_slope(self, chsh_game):
        """The CHSH guessing game is affine with slope 3/2 near zero."""
        gg = G.make_guessing_game(chsh_game)
        slope = NV.alpha_slope(gg, [F(0), F(1, 100), F(1, 50)])
        assert slope == F(3, 2)
        assert slope >= 0

    def test_nonaffine_regime_reports_segments(self, chain_guessing_game):
        """A grid straddling the kink at 1/10 exposes the piecewise shape."""
        with pytest.raises(NV.NonAffineSlopeError) as exc:
            NV.alpha_slope(chain_guessing_game, [F(0), F(1, 20), F(1, 2)])
        segments = exc.value.segments
        assert len(segments) == 2
        assert segments[0][2] != segments[1][2]


class TestSingleRoundGuessing:
    def test_chain_i3_endpoints(self, chain_game):
        functional = G.chain_i3_coefficients()
        assert NV.single_round_guessing(chain_game, 0, F(6),
                                        functional=functional) == F(1, 2)
        assert NV.single_round_guessing(chain_game, 0, F(4),
                                        functional=functional) == 1

    def test_magic_square_bound_randomness(self, magic_square_game):
        """Maximal violation does not certify any randomness of Alice."""
        for x_star in range(3):
            assert NV.single_round_guessing(magic_square_game, x_star, 1) == 1

    def test_monotone_in_value_with_ge_relation(self, chain_game):
        functional = G.chain_i3_coefficients()
        values = [NV.single_round_guessing(chain_game, 0, w, ">=",
                                           functional=functional)
                  for w in (F(4), F(9, 2), F(5), F(6))]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_reference_input_independence(self, chain_game):
        functional = G.chain_i3_coefficients()
        values = {NV.single_round_guessing(chain_game, 0, F(5),
                                           functional=functional, y_ref=y)
                  for y in range(3)}
        assert len(values) == 1

    def test_inputs_outside_the_alphabets_rejected(self, chsh_game):
        for x_star, y_ref in ((2, 0), (0, 2), (0, -1)):
            with pytest.raises(G.GameError):
                NV.single_round_guessing(chsh_game, x_star, F(3, 4),
                                         y_ref=y_ref)

    def test_infeasible_value_reported(self, chsh_game):
        with pytest.raises(NV.InfeasibleError):
            NV.single_round_guessing(chsh_game, 0, F(3, 2))

    def test_certificates_on_returned_optima(self, chain_game):
        value, sol, prog = NV.single_round_guessing(
            chain_game, 0, F(5), functional=G.chain_i3_coefficients(),
            with_solution=True)
        assert sol.certified
        assert L.verify_certificate(prog, sol)
        assert value == F(3, 4)


class TestChainCurve:
    def test_exact_line(self):
        samples = [F(4), F(9, 2), F(5), F(11, 2), F(6)]
        rows = NV.chain_ns_guessing_curve(samples)
        assert [pg for _, pg in rows] == [2 - w / 4 for w in samples]

    def test_sample_outside_range_rejected(self):
        with pytest.raises(G.GameError):
            NV.chain_ns_guessing_curve([F(7)])

    def test_x_star_symmetry(self):
        """The chained expression treats the three settings symmetrically."""
        values = {NV.chain_ns_guessing_curve([F(9, 2)], x_star=x)[0][1]
                  for x in range(3)}
        assert values == {F(7, 8)}


def test_guessing_game_lp_value_from_raw_engine(chain_guessing_game):
    """The bare LP for the epsilon = 0 guessing game solves to 8/9."""
    prog, _ = NV._behavior_lp(chain_guessing_game,
                              G.game_value_coefficients(chain_guessing_game))
    sol = L.solve(prog, mode="exact")
    assert sol.value == F(8, 9)
    assert sol.certified
