"""Multi-round guessing probability under time-ordered causal constraints.

Builds the LP for an adversary guessing Alice's full output string over n
sequential rounds, where each conditional device behavior satisfies either
the time-ordered (TONS) or the block (ABNS) no-signalling constraint
family (``games.ns_equality_rows`` over n rounds).  Strings are flattened
round-major; the adversary holds one subnormalized block per candidate
output string, and by default the sum of the blocks is pinned to a given
n-round marginal behavior.

A fixed marginal is usually invariant under some per-round output
relabellings (the noisy PR box under flipping both outputs of a round).
Such a relabelling, applied to Eve's guess as well, maps the whole LP onto
itself, and an invariant LP has an invariant optimum.  The LP is
therefore solved on its symmetric slice: one variable per orbit of the
generated group (Boedi, Herr & Joswig, Math. Program. 137 (2013)).  For
the noisy PR box the slice is a single block instead of one per guess.
Rounds are never permuted: the TONS rows are time-ordered.

The slice is built directly, without the 2^n-block LP.  The full LP is
built only when the marginal has no symmetry, in per-round-value mode,
and as the test oracle: ``orbit_quotient`` of the full LP under
``relabelling_images`` is the slice, row for row.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import lp as L
from .games import (BLOCK_FAMILIES, Behavior, Game, GameError,
                    encode_string, game_value_coefficients, ns_equality_rows)
from .nsvalues import _solve_certified

Number = Union[Fraction, float]

TONS = "tons"
ABNS = "abns"

FIXED_MARGINAL = "fixed-marginal"
PER_ROUND_VALUE = "per-round-value"

EXACT_ROUND_CAP = 3
# Four rounds give a 65,536-variable slice for the noisy PR box: minutes
# in HiGHS, and its float optimum misses the default tolerance.
FLOAT_ROUND_CAP = 3


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

    Rows are ``games.ns_equality_rows``, Bob's family first: dicts
    mapping ``((A, B), (X, Y))`` string keys to +-1.  Each states that a
    partial sum with a given suffix of one party's inputs equals the same
    sum with the all-zero reference suffix.  TONS emits both directions
    of every prefix level i in 0..n-1; ABNS only the full-block level 0.
    """
    return list(ns_equality_rows(
        (scenario.alice_outputs, scenario.bob_outputs),
        (scenario.alice_inputs, scenario.bob_inputs), BLOCK_FAMILIES,
        scenario.rounds, time_ordered=scenario.kind == TONS))


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
        for key, c in row.items():
            total += c * behavior.entry(*key)
        if total != 0:
            return False
    return True


@dataclass
class TonsLp:
    """Assembled guessing LP with its variable index map: ``var`` maps
    each ``(e, A, B, X, Y)`` key to its column (its orbit's on a slice)."""

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


def _check_marginal(marginal: Optional[Behavior],
                    scenario: CausalScenario) -> None:
    if marginal is None:
        raise GameError("fixed-marginal mode needs a marginal behavior")
    SA, SB, SX, SY = scenario.string_sizes
    if marginal.output_sizes != (SA, SB) or marginal.input_sizes != (SX, SY):
        raise GameError("marginal shape does not match the scenario")


def build_guessing_lp(game: Game, marginal: Optional[Behavior],
                      x_star: Sequence[int], scenario: CausalScenario,
                      y_ref: Optional[Sequence[int]] = None,
                      constraint_mode: str = FIXED_MARGINAL,
                      omega_star=None, relabellings=()) -> TonsLp:
    """Assemble the multi-round guessing LP.

    In fixed-marginal mode the blocks must sum to ``marginal`` exactly; in
    the experimental per-round-value mode they must instead reproduce game
    value ``omega_star`` in every round conditioned on each past-input
    history (averaged over past outputs).

    Given ``relabellings`` (fixed-marginal mode, see
    ``marginal_relabellings``), the LP is built directly on its symmetric
    slice: one column per variable orbit, the objective and each row
    summed per orbit, each distinct row once, and ``var`` maps every key to
    its orbit's column.  This is ``orbit_quotient`` of the full LP, row for
    row, without building the full LP: only the least guess of each guess
    orbit contributes causal rows, because the rows of the other blocks
    are their images and fold onto the same slice rows.  With no
    relabellings (no symmetry, per-round-value mode, or the full LP as a
    test oracle) every variable is its own column.
    """
    n = scenario.rounds
    na, nb, nx, ny = (scenario.alice_outputs, scenario.bob_outputs,
                      scenario.alice_inputs, scenario.bob_inputs)
    SA, SB, SX, SY = scenario.string_sizes
    if len(x_star) != n or any(not 0 <= x < nx for x in x_star):
        raise GameError(f"x_star must be {n} symbols below {nx}")
    x_enc = encode_string(list(x_star), nx)
    y_enc = 0 if y_ref is None else encode_string(list(y_ref), ny)
    if constraint_mode == FIXED_MARGINAL:
        _check_marginal(marginal, scenario)
    elif relabellings:
        raise GameError("relabellings need fixed-marginal mode")

    # Variables are numbered with e, X, Y, A, B from major to minor;
    # labels[e, A, B, X, Y] is the least variable of each one's orbit.
    block = SA * SB * SX * SY
    index = np.arange(SA * block).reshape(SA, SX, SY, SA, SB)
    labels = _orbit_minima(index.transpose(0, 3, 4, 1, 2),
                           [_relabelled_strings(r, scenario)
                            for r in relabellings])
    orbits, col = np.unique(labels, return_inverse=True)
    col = col.reshape(labels.shape)
    keys = itertools.product(range(SA), range(SX), range(SY), range(SA),
                             range(SB))
    var = {(e, A, B, X, Y): j for (e, X, Y, A, B), j in
           zip(keys, col.transpose(0, 3, 4, 1, 2).ravel().tolist())}

    objective: dict[int, Fraction] = {}
    for e in range(SA):
        for B in range(SB):
            j = var[(e, e, B, x_enc, y_enc)]
            objective[j] = objective.get(j, 0) + Fraction(1)
    prog = L.LinProgram(len(orbits), "max", objective)

    seen = set()
    fraction = functools.cache(Fraction)  # coefficients are small integers

    def add_row(terms, rhs) -> int:
        """Append sum(c x_j) == rhs summed per column; on the slice a row
        already present is dropped.  Returns the number of rows added."""
        sums: dict[int, int] = {}
        for j, c in terms:
            sums[j] = sums.get(j, 0) + c
        coeffs = tuple(sorted((j, c) for j, c in sums.items() if c))
        rhs = Fraction(rhs)
        if relabellings:
            if (coeffs, rhs) in seen:
                return 0
            seen.add((coeffs, rhs))
        prog.constraints.append(L.Constraint(
            tuple((j, fraction(c)) for j, c in coeffs), L.EQ, rhs))
        return 1

    causal_rows = build_causal_constraints(scenario)
    num_causal = 0
    # Block e's rows fold onto those of the least guess in e's orbit, so
    # only that block emits them.  Variables are numbered guess-major: the
    # least variable of the orbit of (e, 0, 0, 0, 0) lies in that block.
    for e in np.flatnonzero(labels[:, 0, 0, 0, 0] >= np.arange(SA) * block):
        cols = col[e].tolist()
        for row in causal_rows:
            num_causal += add_row(
                [(cols[A][B][X][Y], c) for ((A, B), (X, Y)), c in row.items()],
                0)

    num_marg = 0
    if constraint_mode == FIXED_MARGINAL:
        entries = itertools.product(range(SX), range(SY), range(SA),
                                    range(SB))
        per_entry = col.transpose(3, 4, 1, 2, 0).reshape(-1, SA).tolist()
        for (X, Y, A, B), cols in zip(entries, per_entry):
            num_marg += add_row([(j, 1) for j in cols],
                                marginal.entry((A, B), (X, Y)))
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


def _orbit_minima(index: np.ndarray, moves) -> np.ndarray:
    """Least entry of ``index[e, A, B, X, Y]`` over each orbit of the group
    generated by the string relabellings ``moves`` (pairs of Alice and Bob
    string images), Alice's also acting on the guess ``e``.

    Label propagation: every entry takes the least label reachable through
    the generators; at the fixed point labels are constant on orbits (each
    generator has finite order) and distinct across them.
    """
    labels = index
    while True:
        new = labels
        for ia, ib in moves:
            new = np.minimum(new, new[ia][:, ia][:, :, ib])
        if np.array_equal(new, labels):
            return labels
        labels = new


def marginal_relabellings(marginal: Behavior,
                          scenario: CausalScenario) -> list[tuple]:
    """Per-round output relabellings that fix the marginal exactly.

    Each is ``(k, alice_perm, bob_perm)``: round k's Alice and Bob
    symbols go through the two permutations, inputs stay put.  Entries
    are compared exactly, so a float marginal only matches bit for bit.
    """
    _check_marginal(marginal, scenario)
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
    relabellings = (marginal_relabellings(marginal, scenario)
                    if constraint_mode == FIXED_MARGINAL else ())
    built = build_guessing_lp(game, marginal, x_star, scenario, y_ref,
                              constraint_mode, omega_star, relabellings)
    return _solve_certified(built.program, mode, float_tolerance).value


def iid_guessing_baseline(game: Game, single_round_marginal: Behavior,
                          n: int, mode: str = "exact") -> Number:
    """The i.i.d. benchmark: (single-round guessing LP value) ** n."""
    scenario = CausalScenario.for_game(TONS, 1, game)
    single = tons_guessing_probability(game, single_round_marginal, (0,),
                                       scenario, mode=mode)
    return single ** n
