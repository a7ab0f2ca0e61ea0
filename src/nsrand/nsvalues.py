"""Single-round no-signalling quantities.

Exact LP values of games over the no-signalling polytope, the
epsilon-almost-no-signalling relaxation with its dual certificate, and
the single-round adversarial guessing probability obtained from convex
decompositions into subnormalized no-signalling blocks (one block per
guess of the adversary).  The guessing LP is the one-round,
value-constrained case of ``tons.build_guessing_lp``.  All
no-signalling rows come from ``games.ns_index_groups``, appended by
``lp.append_rows``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import lp as L
from . import tons as T
from .games import (NS_FAMILIES, Game, GameError, chain_i3_coefficients,
                    finite_rational, game_value_coefficients,
                    make_chain_game, ns_families, ns_index_groups,
                    ns_pair_rows)
from .lp import InfeasibleError  # noqa: F401  (re-exported)

Number = Union[Fraction, float]


def _normalized_lp(game: Game, objective) -> tuple[L.LinProgram, dict]:
    """LP over normalized behaviors of the game's shape, one row per input."""
    var = {(outs, ins): v for v, (ins, outs) in enumerate(
        itertools.product(game.inputs(), game.outputs()))}
    prog = L.LinProgram(len(var), "max",
                        {var[key]: Fraction(c)
                         for key, c in objective.items()})
    n_out = math.prod(game.output_sizes)
    L.append_rows(prog, [(np.arange(len(var)).reshape(-1, n_out),
                          [1] * n_out)], 1, L.EQ)
    return prog, var


def _ns_groups(game: Game, families):
    """``games.ns_index_groups`` of the game's shape, with each flat tensor
    index (outputs major) taken to its ``_normalized_lp`` variable (inputs
    major)."""
    n_out, n_in = math.prod(game.output_sizes), math.prod(game.input_sizes)
    for name, summed, index in ns_index_groups(
            game.output_sizes, game.input_sizes, families):
        yield name, summed, index % n_in * n_out + index // n_in


def _behavior_lp(game: Game, objective_coeffs) -> tuple[L.LinProgram, dict]:
    """LP over the exact no-signalling polytope of the game's shape.

    The single-party families suffice: they imply the two-party ones.
    """
    prog, var = _normalized_lp(game, objective_coeffs)
    blocks = [ns_pair_rows(index, [(k, 0) for k in range(1, index.shape[1])])
              for _, _, index in _ns_groups(game, NS_FAMILIES[:game.parties])]
    L.append_rows(prog, blocks, 0, L.EQ)
    return prog, var


def ns_value(game: Game, mode: str = "exact") -> Number:
    """Exact optimum of the game value over no-signalling behaviors."""
    prog, _ = _behavior_lp(game, game_value_coefficients(game))
    return L.solve_certified(prog, mode).value


@dataclass
class EpsNsReport:
    """Value of a game over epsilon-almost-no-signalling behaviors.

    ``normalization_duals`` carries one multiplier per input setting and
    ``tau_duals`` one nonnegative multiplier per relaxed marginal
    constraint, grouped by marginal family; together they form the dual
    certificate (dual objective = sum N + epsilon * sum tau).
    """

    epsilon: Fraction
    value: Number
    normalization_duals: dict
    tau_duals: dict
    solution: L.LpSolution


def eps_ns_value(game: Game, epsilon, mode: str = "exact") -> EpsNsReport:
    """Game value when every no-signalling equality is relaxed by epsilon.

    All marginal families of the tripartite definition (three single-party
    and three two-party groups) are relaxed with the same slack; ordered
    input pairs give one inequality per direction of each absolute value.
    """
    epsilon = finite_rational(epsilon, "epsilon")
    if epsilon < 0:
        raise GameError("epsilon must be nonnegative")
    prog, var = _normalized_lp(game, game_value_coefficients(game))
    keys = list(var)
    blocks, tau_rows = [], []  # (family, kept outs, from-inputs, to-inputs)
    for name, summed, index in _ns_groups(game, ns_families(game.parties)):
        pairs = list(itertools.permutations(range(index.shape[1]), 2))
        blocks.append(ns_pair_rows(index, pairs))
        for group in index[:, :, 0].tolist():
            outs = keys[group[0]][0]
            kept_outs = tuple(o for p, o in enumerate(outs) if p not in summed)
            tau_rows += [(name, kept_outs, keys[group[a]][1],
                          keys[group[b]][1]) for a, b in pairs]
    L.append_rows(prog, blocks, epsilon, L.LE)

    sol = L.solve_certified(prog, mode)
    normalization = dict(zip(game.inputs(), sol.dual))
    tau: dict = {}
    for key, dual in zip(tau_rows, sol.dual[len(normalization):]):
        tau.setdefault(key[0], {})[key[1:]] = dual
    return EpsNsReport(epsilon, sol.value, normalization, tau, sol)


class NonAffineSlopeError(RuntimeError):
    """Sampled epsilon values are not exactly affine; carries the segments."""

    def __init__(self, segments):
        super().__init__(f"piecewise structure detected: {segments}")
        self.segments = segments


def alpha_slope(game: Game, eps_grid: Sequence, mode: str = "exact") -> Fraction:
    """Slope of the epsilon-almost-no-signalling value on a sampled regime.

    Checks that the sampled values are exactly affine; a nonlinear regime
    raises NonAffineSlopeError whose ``segments`` attribute reports the
    piecewise structure instead of a single slope.
    """
    grid = sorted({finite_rational(e, "epsilon") for e in eps_grid})
    if len(grid) < 2:
        raise GameError("need at least two distinct grid points")
    values = [eps_ns_value(game, e, mode=mode).value for e in grid]
    segments = []
    for (e0, v0), (e1, v1) in zip(zip(grid, values), zip(grid[1:], values[1:])):
        segments.append((e0, e1, Fraction(v1 - v0) / (e1 - e0)))
    slopes = {s for _, _, s in segments}
    if len(slopes) != 1:
        raise NonAffineSlopeError(segments)
    return segments[0][2]


# ---------------------------------------------------------------------------
# single-round guessing probability
# ---------------------------------------------------------------------------

def single_round_guessing(game: Game, x_star: int, w_star,
                          relation: str = L.EQ,
                          functional: Optional[dict] = None,
                          mode: str = "exact",
                          y_ref: int = 0,
                          with_solution: bool = False,
                          float_tolerance: float = 1e-9):
    """Adversarial guessing probability of Alice's output at ``x_star``.

    Maximizes the probability that the block label matches Alice's output
    over decompositions into subnormalized no-signalling blocks, one per
    guess, whose normalized sum attains value ``w_star`` (with respect to
    the game value, or to an alternative linear ``functional`` such as the
    chained correlator expression) under ``relation``, ``lp.EQ`` or
    ``lp.GE``.  The LP is the one-round TONS scenario of the game,
    value-constrained (``tons.build_guessing_lp``).  The optimum does not
    depend on the reference input ``y_ref`` (no-signalling of the blocks);
    the parameter exists so that this can be asserted.
    """
    scenario = T.CausalScenario.for_game(T.TONS, 1, game)
    prog = T.build_guessing_lp(game, None, (x_star,), scenario, (y_ref,),
                               omega_star=w_star, relation=relation,
                               functional=functional).program
    sol = L.solve_certified(prog, mode, float_tolerance)
    return (sol.value, sol, prog) if with_solution else sol.value


def chain_ns_guessing_curve(samples: Sequence, mode: str = "exact",
                            x_star: int = 0, float_tolerance: float = 1e-9
                            ) -> list[tuple[Fraction, Number]]:
    """No-signalling guessing curve of the chained expression.

    For every sampled value w in [4, 6] the LP optimum is checked to equal
    2 - w/4 exactly before the (w, P_g) row is emitted.
    """
    game = make_chain_game()
    functional = chain_i3_coefficients()
    rows = []
    for w in samples:
        w = finite_rational(w, "sample")
        if not 4 <= w <= 6:
            raise GameError(f"sample {w} outside [4, 6]")
        pg = single_round_guessing(game, x_star, w, L.EQ,
                                   functional=functional, mode=mode,
                                   float_tolerance=float_tolerance)
        expected = 2 - w / 4
        if mode == "exact" and pg != expected:
            raise RuntimeError(
                f"LP value {pg} at w={w} deviates from the line {expected}")
        rows.append((w, pg))
    return rows
