"""Multi-round guessing probability under time-ordered causal constraints.

Builds the LP for an adversary guessing Alice's full output string over n
sequential rounds, where each conditional device behavior satisfies either
the time-ordered (TONS) or the block (ABNS) no-signalling constraint
family.  Strings are flattened round-major; the adversary holds one
subnormalized block per candidate output string, and by default the sum
of the blocks is pinned to a given n-round marginal behavior.

A fixed marginal is usually invariant under some per-round output
relabellings (the noisy PR box under flipping both outputs of a round).
Such a relabelling, applied to Eve's guess as well, maps the whole LP onto
itself, and an invariant LP has an invariant optimum.  The LP is
therefore solved on its symmetric slice: one variable per orbit of the
generated group (Boedi, Herr & Joswig, Math. Program. 137 (2013)).  For
the noisy PR box the slice is a single block instead of one per guess.
Rounds are never permuted: the TONS rows are time-ordered.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import lp as L
from .games import (Behavior, Game, GameError, encode_string,
                    game_value_coefficients)
from .nsvalues import _solve_certified

Number = Union[Fraction, float]

TONS = "tons"
ABNS = "abns"

FIXED_MARGINAL = "fixed-marginal"
PER_ROUND_VALUE = "per-round-value"

EXACT_ROUND_CAP = 3
FLOAT_ROUND_CAP = 4


@dataclass(frozen=True)
class CausalScenario:
    """Causal constraint family, round count, and single-round alphabets."""

    kind: str
    rounds: int
    alice_outputs: int = 2
    bob_outputs: int = 2
    alice_inputs: int = 2
    bob_inputs: int = 2

    def __post_init__(self):
        if self.kind not in (TONS, ABNS):
            raise GameError(f"unknown causal scenario kind {self.kind!r}")
        if self.rounds < 1:
            raise GameError("need at least one round")

    @classmethod
    def for_game(cls, kind: str, rounds: int, game: Game) -> "CausalScenario":
        if game.parties != 2:
            raise GameError("causal scenarios extend bipartite games")
        (nx, ny), (na, nb) = game.input_sizes, game.output_sizes
        return cls(kind, rounds, na, nb, nx, ny)

    @property
    def string_sizes(self) -> tuple[int, int, int, int]:
        n = self.rounds
        return (self.alice_outputs ** n, self.bob_outputs ** n,
                self.alice_inputs ** n, self.bob_inputs ** n)


def build_causal_constraints(scenario: CausalScenario) -> list[dict]:
    """Homogeneous equality rows of the scenario over one behavior block.

    Rows are dicts mapping (A, B, X, Y) string keys to +-1 coefficients;
    each row states that a partial sum with a given suffix of one party's
    inputs equals the same sum with the all-zero reference suffix.  TONS
    emits both directions of every prefix level i in 0..n-1; ABNS only the
    full-block level i = 0.
    """
    n = scenario.rounds
    na, nb, nx, ny = (scenario.alice_outputs, scenario.bob_outputs,
                      scenario.alice_inputs, scenario.bob_inputs)
    levels = range(n) if scenario.kind == TONS else (0,)
    rows: list[dict] = []

    def emit(i: int, out_base: int, in_base: int, other_out_base: int,
             other_in_base: int, bob_side: bool):
        # One party's outputs past round i are summed out; the resulting
        # partial sum must not depend on that party's inputs past round i.
        # Kept coordinates: the first i rounds of the summed party, plus
        # the other party's full strings.
        ref_suffix = (0,) * (n - i)
        for other_out in range(other_out_base ** n):
            for other_in in range(other_in_base ** n):
                for keep in itertools.product(range(out_base), repeat=i):
                    for in_keep in itertools.product(range(in_base), repeat=i):
                        for suffix in itertools.product(range(in_base),
                                                        repeat=n - i):
                            if suffix == ref_suffix:
                                continue
                            coeffs: dict = {}
                            for tail in itertools.product(range(out_base),
                                                          repeat=n - i):
                                out_enc = encode_string(keep + tail, out_base)
                                for sgn, in_tail in ((1, suffix),
                                                     (-1, ref_suffix)):
                                    in_enc = encode_string(in_keep + in_tail,
                                                           in_base)
                                    if bob_side:
                                        key = (other_out, out_enc,
                                               other_in, in_enc)
                                    else:
                                        key = (out_enc, other_out,
                                               in_enc, other_in)
                                    coeffs[key] = coeffs.get(key, 0) + sgn
                            rows.append(coeffs)

    for i in levels:
        emit(i, nb, ny, na, nx, bob_side=True)   # future b free of future y
        emit(i, na, nx, nb, ny, bob_side=False)  # future a free of future x
    return rows


def causal_constraint_count(scenario: CausalScenario) -> int:
    """Closed-form row count of build_causal_constraints."""
    n = scenario.rounds
    na, nb, nx, ny = (scenario.alice_outputs, scenario.bob_outputs,
                      scenario.alice_inputs, scenario.bob_inputs)
    levels = range(n) if scenario.kind == TONS else (0,)
    total = 0
    for i in levels:
        total += (na ** n) * (nb ** i) * (nx ** n) * (ny ** i) * (ny ** (n - i) - 1)
        total += (nb ** n) * (na ** i) * (ny ** n) * (nx ** i) * (nx ** (n - i) - 1)
    return total


def satisfies_causal_constraints(behavior: Behavior,
                                 scenario: CausalScenario) -> bool:
    """Evaluate the scenario's equality rows directly on a behavior."""
    for row in build_causal_constraints(scenario):
        total = Fraction(0)
        for (A, B, X, Y), c in row.items():
            total += c * behavior.entry((A, B), (X, Y))
        if total != 0:
            return False
    return True


@dataclass
class TonsLp:
    """Assembled guessing LP with its variable index map."""

    program: L.LinProgram
    var: dict
    scenario: CausalScenario
    num_causal_rows: int
    num_marginal_rows: int


def _check_caps(scenario: CausalScenario, mode: str,
                exact_round_cap: int, float_round_cap: int) -> None:
    cap = exact_round_cap if mode == "exact" else float_round_cap
    if scenario.rounds > cap:
        sa, sb, sx, sy = scenario.string_sizes
        raise L.LpSizeError(
            f"{scenario.kind} at n={scenario.rounds} needs "
            f"{sa * (sa * sb * sx * sy)} variables "
            f"({sa} blocks x {sa * sb * sx * sy} entries); the default cap is "
            f"n <= {cap} in {mode} mode")


def build_guessing_lp(game: Game, marginal: Optional[Behavior],
                      x_star: Sequence[int], scenario: CausalScenario,
                      y_ref: Optional[Sequence[int]] = None,
                      constraint_mode: str = FIXED_MARGINAL,
                      omega_star=None) -> TonsLp:
    """Assemble the multi-round guessing LP.

    In fixed-marginal mode the blocks must sum to ``marginal`` exactly; in
    the experimental per-round-value mode they must instead reproduce game
    value ``omega_star`` in every round conditioned on each past-input
    history (averaged over past outputs).
    """
    n = scenario.rounds
    na, nb, nx, ny = (scenario.alice_outputs, scenario.bob_outputs,
                      scenario.alice_inputs, scenario.bob_inputs)
    SA, SB, SX, SY = scenario.string_sizes
    if len(x_star) != n or any(not 0 <= x < nx for x in x_star):
        raise GameError(f"x_star must be {n} symbols below {nx}")
    x_enc = encode_string(list(x_star), nx)
    y_enc = 0 if y_ref is None else encode_string(list(y_ref), ny)

    var = {}
    for e in range(SA):
        for X in range(SX):
            for Y in range(SY):
                for A in range(SA):
                    for B in range(SB):
                        var[(e, A, B, X, Y)] = len(var)

    objective = {var[(e, e, B, x_enc, y_enc)]: Fraction(1)
                 for e in range(SA) for B in range(SB)}
    prog = L.LinProgram(len(var), "max", objective)

    causal_rows = build_causal_constraints(scenario)
    for e in range(SA):
        for row in causal_rows:
            prog.add({var[(e,) + key]: Fraction(c) for key, c in row.items()},
                     "==", 0)
    num_causal = len(causal_rows) * SA

    num_marg = 0
    if constraint_mode == FIXED_MARGINAL:
        if marginal is None:
            raise GameError("fixed-marginal mode needs a marginal behavior")
        if marginal.output_sizes != (SA, SB) or marginal.input_sizes != (SX, SY):
            raise GameError("marginal shape does not match the scenario")
        for X in range(SX):
            for Y in range(SY):
                for A in range(SA):
                    for B in range(SB):
                        prog.add({var[(e, A, B, X, Y)]: 1 for e in range(SA)},
                                 "==", marginal.entry((A, B), (X, Y)))
                        num_marg += 1
    elif constraint_mode == PER_ROUND_VALUE:
        if omega_star is None:
            raise GameError("per-round-value mode needs omega_star")
        coeffs_value = game_value_coefficients(game)
        # Summed blocks form a normalized behavior.
        prog.add({var[(e, A, B, 0, 0)]: 1 for e in range(SA)
                  for A in range(SA) for B in range(SB)}, "==", 1)
        num_marg += 1
        for i in range(n):
            for x_past in itertools.product(range(nx), repeat=i):
                for y_past in itertools.product(range(ny), repeat=i):
                    row: dict[int, Fraction] = {}
                    for ((ai, bi), (xi, yi)), c in coeffs_value.items():
                        xs = list(x_past) + [xi] + [0] * (n - i - 1)
                        ys = list(y_past) + [yi] + [0] * (n - i - 1)
                        X = encode_string(xs, nx)
                        Y = encode_string(ys, ny)
                        for e in range(SA):
                            for A_str in itertools.product(range(na), repeat=n):
                                if A_str[i] != ai:
                                    continue
                                A = encode_string(A_str, na)
                                for B_str in itertools.product(range(nb),
                                                               repeat=n):
                                    if B_str[i] != bi:
                                        continue
                                    B = encode_string(B_str, nb)
                                    j = var[(e, A, B, X, Y)]
                                    row[j] = row.get(j, Fraction(0)) + c
                    prog.add(row, "==", Fraction(omega_star))
                    num_marg += 1
    else:
        raise GameError(f"unknown constraint mode {constraint_mode!r}")

    return TonsLp(prog, var, scenario, num_causal, num_marg)


def _relabel_strings(perm: Sequence[int], base: int, rounds: int,
                     k: int) -> np.ndarray:
    """Image of every round-major string when round k's symbol is permuted."""
    strings = np.arange(base ** rounds)
    weight = base ** (rounds - 1 - k)
    digit = strings // weight % base
    return strings + (np.asarray(perm)[digit] - digit) * weight


def _relabelled_strings(relabelling, scenario: CausalScenario):
    k, alice, bob = relabelling
    n = scenario.rounds
    return (_relabel_strings(alice, scenario.alice_outputs, n, k),
            _relabel_strings(bob, scenario.bob_outputs, n, k))


def marginal_relabellings(marginal: Behavior,
                          scenario: CausalScenario) -> list[tuple]:
    """Per-round output relabellings that fix the marginal exactly.

    Each is ``(k, alice_perm, bob_perm)``: round k's Alice and Bob
    symbols go through the two permutations, inputs stay put.  Entries
    are compared exactly, so a float marginal only matches bit for bit.
    """
    table = np.zeros(scenario.string_sizes, dtype=object)
    for ((A, B), (X, Y)), p in marginal.table.items():
        table[A, B, X, Y] = p
    identity = (tuple(range(scenario.alice_outputs)),
                tuple(range(scenario.bob_outputs)))
    found = []
    for k in range(scenario.rounds):
        for alice in itertools.permutations(identity[0]):
            for bob in itertools.permutations(identity[1]):
                if (alice, bob) == identity:
                    continue
                ia, ib = _relabelled_strings((k, alice, bob), scenario)
                if (table[ia][:, ib] == table).all():
                    found.append((k, alice, bob))
    return found


def relabelling_images(built: TonsLp, relabellings) -> list[np.ndarray]:
    """Variable permutation of the guessing LP induced by each relabelling.

    Alice's relabelling acts on Eve's guess ``e`` as on Alice's string,
    so the objective ``[A = e]`` is fixed along with every row.
    """
    SA, SB, SX, SY = built.scenario.string_sizes
    index = np.empty((SA, SA, SB, SX, SY), dtype=np.int64)
    for key, j in built.var.items():
        index[key] = j
    images = []
    for relabelling in relabellings:
        ia, ib = _relabelled_strings(relabelling, built.scenario)
        image = np.empty(built.program.num_vars, dtype=np.int64)
        image[index.ravel()] = index[ia][:, ia][:, :, ib].ravel()
        images.append(image)
    return images


def orbit_quotient(prog: L.LinProgram,
                   images: Sequence[np.ndarray]) -> L.LinProgram:
    """The LP restricted to points constant on each variable orbit.

    ``images`` are variable permutations that map ``prog`` onto itself.
    The quotient has one column per orbit of the group they generate, the
    objective and each row summed per orbit, and each distinct row once;
    its optimum is the optimum of ``prog``.
    """
    if not images:
        return prog
    # Label propagation: every variable takes the least label reachable
    # through the generators; at the fixed point labels are constant on
    # orbits (each generator has finite order) and distinct across them.
    labels = np.arange(prog.num_vars)
    while True:
        new = labels
        for image in images:
            new = np.minimum(new, new[image])
        if np.array_equal(new, labels):
            break
        labels = new
    orbits, col = np.unique(labels, return_inverse=True)
    col = col.tolist()

    quotient = L.LinProgram(
        len(orbits), prog.sense,
        lower={col[j]: lo for j, lo in prog.lower.items()},
        upper={col[j]: up for j, up in prog.upper.items()})
    for j, c in prog.objective.items():
        quotient.objective[col[j]] = quotient.objective.get(col[j], 0) + c
    # Rows are summed over integer numerators on a common denominator:
    # Fraction additions would cost more than the solve.
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
                tuple((q, Fraction(s, den)) for q, s in key[0]),
                con.rel, con.rhs))
    return quotient


def tons_guessing_probability(game: Game, marginal: Behavior,
                              x_star: Sequence[int], scenario: CausalScenario,
                              mode: str = "exact",
                              y_ref: Optional[Sequence[int]] = None,
                              constraint_mode: str = FIXED_MARGINAL,
                              omega_star=None,
                              exact_round_cap: int = EXACT_ROUND_CAP,
                              float_round_cap: int = FLOAT_ROUND_CAP,
                              float_tolerance: float = 1e-9) -> Number:
    """Eve's optimal probability of guessing Alice's full output string.

    In fixed-marginal mode the LP is solved on the slice fixed by the
    marginal's output relabellings (see the module docstring).  Raises
    InfeasibleError when the marginal is not attainable within the
    causal set, and LpSizeError beyond the configured round caps.
    """
    _check_caps(scenario, mode, exact_round_cap, float_round_cap)
    built = build_guessing_lp(game, marginal, x_star, scenario, y_ref,
                              constraint_mode, omega_star)
    program = built.program
    if constraint_mode == FIXED_MARGINAL:
        relabellings = marginal_relabellings(marginal, scenario)
        program = orbit_quotient(program,
                                 relabelling_images(built, relabellings))
    sol = _solve_certified(program, mode, float_tolerance)
    return sol.value


def iid_guessing_baseline(game: Game, single_round_marginal: Behavior,
                          n: int, mode: str = "exact") -> Number:
    """The i.i.d. benchmark: (single-round guessing LP value) ** n."""
    scenario = CausalScenario.for_game(TONS, 1, game)
    single = tons_guessing_probability(game, single_round_marginal, (0,),
                                       scenario, mode=mode)
    return single ** n
