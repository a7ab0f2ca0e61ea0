"""Single-round no-signalling quantities.

Exact LP values of games over the no-signalling polytope, the
epsilon-almost-no-signalling relaxation with its dual certificate, and
the single-round adversarial guessing probability obtained from convex
decompositions into subnormalized no-signalling blocks (one block per
guess of the adversary).  All no-signalling rows come from
``games.ns_marginal_groups``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from . import lp as L
from .games import (BLOCK_FAMILIES, NS_FAMILIES, Game, GameError,
                    chain_i3_coefficients, game_value_coefficients,
                    make_chain_game, ns_equality_rows, ns_families,
                    ns_marginal_groups)

Number = Union[Fraction, float]

EQ_RELATION = "=="
GE_RELATION = ">="


class InfeasibleError(RuntimeError):
    """The requested constraint set admits no behavior."""


class UncertifiedError(RuntimeError):
    """Exact mode could not produce a verified optimality certificate."""


def _normalized_lp(game: Game, objective) -> tuple[L.LinProgram, dict]:
    """LP over normalized behaviors of the game's shape, one row per input."""
    var = {}
    for ins in game.inputs():
        for outs in game.outputs():
            var[(outs, ins)] = len(var)
    prog = L.LinProgram(len(var), "max",
                        {var[key]: Fraction(c)
                         for key, c in objective.items()})
    for ins in game.inputs():
        prog.add({var[(outs, ins)]: 1 for outs in game.outputs()}, "==", 1)
    return prog, var


def _behavior_lp(game: Game, objective_coeffs) -> tuple[L.LinProgram, dict]:
    """LP over the exact no-signalling polytope of the game's shape.

    The single-party families suffice: they imply the two-party ones.
    """
    prog, var = _normalized_lp(game, objective_coeffs)
    for row in ns_equality_rows(game.output_sizes, game.input_sizes,
                                NS_FAMILIES[:game.parties]):
        prog.add({var[key]: c for key, c in row.items()}, "==", 0)
    return prog, var


def _solve_certified(prog: L.LinProgram, mode: str,
                     float_tolerance: float = 1e-9) -> L.LpSolution:
    sol = L.solve(prog, mode=mode, float_tolerance=float_tolerance)
    if sol.status == L.LpSolution.INFEASIBLE:
        raise InfeasibleError("constraint set is infeasible")
    if sol.status != L.LpSolution.OPTIMAL:
        raise RuntimeError(f"unexpected LP status {sol.status}")
    if mode == "exact" and not sol.certified:
        raise UncertifiedError("no exact optimality certificate obtained")
    return sol


def ns_value(game: Game, mode: str = "exact") -> Number:
    """Exact optimum of the game value over no-signalling behaviors."""
    prog, _ = _behavior_lp(game, game_value_coefficients(game))
    return _solve_certified(prog, mode).value


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
    epsilon = Fraction(epsilon)
    if epsilon < 0:
        raise GameError("epsilon must be nonnegative")
    prog, var = _normalized_lp(game, game_value_coefficients(game))
    tau_rows = []  # (family, kept outs, from-inputs, to-inputs)
    for name, kept_outs, entries in ns_marginal_groups(
            game.output_sizes, game.input_sizes, ns_families(game.parties)):
        for (ia, keys_a), (ib, keys_b) in itertools.permutations(entries, 2):
            coeffs = {var[key]: 1 for key in keys_a}
            coeffs.update((var[key], -1) for key in keys_b)
            prog.add(coeffs, "<=", epsilon)
            tau_rows.append((name, kept_outs, ia, ib))

    sol = _solve_certified(prog, mode)
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
    grid = sorted({Fraction(e) for e in eps_grid})
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

def _guessing_lp(game: Game, x_star: int, w_star, relation: str,
                 functional: Optional[dict], y_ref: int = 0
                 ) -> tuple[L.LinProgram, dict]:
    """Decomposition LP: one subnormalized no-signalling block per guess.

    The adversary's guess e ranges over Alice's output alphabet; the block
    masses P(e|z*) are absorbed into the subnormalized blocks, whose sum
    must be normalized and meet the value constraint.
    """
    if game.parties != 2:
        raise GameError("single-round guessing expects a bipartite game")
    na, nb = game.output_sizes
    nx, ny = game.input_sizes
    if not 0 <= x_star < nx:
        raise GameError(f"x_star {x_star} outside the input alphabet")
    coeffs_value = functional if functional is not None \
        else game_value_coefficients(game)

    var = {}
    for e in range(na):
        for ins in game.inputs():
            for outs in game.outputs():
                var[(e, *outs, *ins)] = len(var)
    objective = {var[(e, e, b, x_star, y_ref)]: Fraction(1)
                 for e in range(na) for b in range(nb)}
    prog = L.LinProgram(len(var), "max", objective)

    # Per-block no-signalling (homogeneous, valid for subnormalized blocks).
    rows = list(ns_equality_rows(game.output_sizes, game.input_sizes,
                                 BLOCK_FAMILIES))
    for e in range(na):
        for row in rows:
            prog.add({var[(e, *outs, *ins)]: c
                      for (outs, ins), c in row.items()}, "==", 0)

    # The summed decomposition is a normalized behavior.
    prog.add({var[(e, a, b, 0, 0)]: 1 for e in range(na)
              for a in range(na) for b in range(nb)}, "==", 1)

    # Observed value of the summed behavior.
    value_row: dict[int, Fraction] = {}
    for ((a, b), (x, y)), c in coeffs_value.items():
        for e in range(na):
            j = var[(e, a, b, x, y)]
            value_row[j] = value_row.get(j, Fraction(0)) + Fraction(c)
    prog.add(value_row, relation, Fraction(w_star))
    return prog, var


def single_round_guessing(game: Game, x_star: int, w_star,
                          relation: str = EQ_RELATION,
                          functional: Optional[dict] = None,
                          mode: str = "exact",
                          y_ref: int = 0,
                          with_solution: bool = False,
                          float_tolerance: float = 1e-9):
    """Adversarial guessing probability of Alice's output at ``x_star``.

    Maximizes the probability that the block label matches Alice's output
    over decompositions whose sum attains value ``w_star`` (with respect to
    the game value, or to an alternative linear ``functional`` such as the
    chained correlator expression) under the given relation.  The optimum
    does not depend on the reference input ``y_ref`` (no-signalling of the
    blocks); the parameter exists so that this can be asserted.
    """
    if relation not in (EQ_RELATION, GE_RELATION):
        raise GameError(f"relation must be '==' or '>=', got {relation!r}")
    prog, _ = _guessing_lp(game, x_star, w_star, relation, functional, y_ref)
    sol = _solve_certified(prog, mode, float_tolerance)
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
        w = Fraction(w)
        if not 4 <= w <= 6:
            raise GameError(f"sample {w} outside [4, 6]")
        pg = single_round_guessing(game, x_star, w, EQ_RELATION,
                                   functional=functional, mode=mode,
                                   float_tolerance=float_tolerance)
        expected = 2 - w / 4
        if mode == "exact" and pg != expected:
            raise RuntimeError(
                f"LP value {pg} at w={w} deviates from the line {expected}")
        rows.append((w, pg))
    return rows
