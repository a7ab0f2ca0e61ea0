"""Multi-round guessing probability under time-ordered causal constraints.

Builds the LP for an adversary guessing Alice's full output string over n
sequential rounds, where each conditional device behavior satisfies either
the time-ordered (TONS) or the block (ABNS) no-signalling constraint
family (``games.ns_equality_rows`` over n rounds).  Strings are flattened
round-major; the adversary holds one subnormalized block per candidate
output string.  The sum of the blocks is either pinned to a given n-round
marginal behavior, or, in the value-constrained case, normalized and held
to a value in every round.  The one-round value-constrained LP is the
single-round guessing LP of ``nsvalues.single_round_guessing``.

A fixed marginal is usually invariant under some local relabellings of
single rounds (Barrett et al., PRA 71, 022101 (2005)): a permutation of
each party's inputs and, per input, of its outputs.  Alice's input
permutation must fix x*, and her output permutation at x* also acts on
Eve's guess.  Such a relabelling maps the TONS and ABNS sets, the blocks'
sum and hence the feasible set onto themselves; Eve's objective is fixed
on the feasible set, though not term by term (a Bob input permutation
moves the reference input, which Alice's marginal ignores).  An invariant
LP has an invariant optimum, so the LP is solved on its symmetric slice:
one variable per orbit of the generated group (Boedi, Herr & Joswig,
Math. Program. 137 (2013)).  The noisy PR box is fixed per round by
flipping both outputs and by flipping Bob's input while Alice's output
shifts by her input (y -> y + 1, a -> a + x): the three-round slice has
512 columns instead of 32,768, and certifies exactly at every noise
level tried.  Rounds are never permuted: the TONS rows are time-ordered.

The slice is built directly, without the 2^n-block LP.  The full LP is
built only when the marginal has no symmetry, in the value-constrained
case, and as a test oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import lp as L
from .games import (BLOCK_FAMILIES, Behavior, Game, GameError,
                    encode_string, game_value_coefficients, ns_equality_rows)

Number = Union[Fraction, float]

TONS = "tons"
ABNS = "abns"

# Four rounds give a 4,096-variable slice for the noisy PR box, built and
# solved in 2-7 s (TONS: about half of it emitting 79,360 causal rows
# through dicts), but TONS at v = 1/4 does not lift to an exact
# certificate and at v = 11/12 both kinds' float optima miss the default
# tolerance.
EXACT_ROUND_CAP = 3
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
    """Assembled guessing LP with its variable index map: ``columns[v]``
    is the column of variable v (its orbit's on a slice), variables
    numbered with e, X, Y, A, B from major to minor."""

    program: L.LinProgram
    columns: np.ndarray
    scenario: CausalScenario
    num_causal_rows: int
    num_marginal_rows: int

    @functools.cached_property
    def var(self) -> dict:
        """The column of every ``(e, A, B, X, Y)`` key."""
        SA, SB, SX, SY = self.scenario.string_sizes
        keys = itertools.product(range(SA), range(SX), range(SY), range(SA),
                                 range(SB))
        return {(e, A, B, X, Y): j for (e, X, Y, A, B), j in
                zip(keys, self.columns.tolist())}


def _check_caps(scenario: CausalScenario, mode: str,
                marginal: Optional[Behavior] = None,
                x_star: Optional[Sequence[int]] = None) -> None:
    """Raise LpSizeError beyond the round cap of ``mode``.

    The report gives a lower bound on the slice that would be solved when
    ``marginal`` has the scenario's shape: the group of its relabellings
    has prod_k (|fixing relabellings of round k| + 1) elements, so there
    are at least (full variables) / |G| orbits.  Otherwise it gives the
    full LP's size.
    """
    cap = EXACT_ROUND_CAP if mode == "exact" else FLOAT_ROUND_CAP
    n = scenario.rounds
    if n <= cap:
        return
    sa, sb, sx, sy = scenario.string_sizes
    full = sa * (sa * sb * sx * sy)
    if marginal is not None and _shape_matches(marginal, scenario):
        per_round = Counter(r.k for r in
                            marginal_symmetries(marginal, scenario, x_star))
        order = math.prod(per_round[k] + 1 for k in range(n))
        size = (f"its symmetric slice has at least {-(-full // order)} "
                f"variables ({full} in the full LP over a group of {order} "
                f"local relabellings)")
    else:
        size = (f"the full LP has {full} variables ({sa} blocks x "
                f"{full // sa} entries)")
    raise L.LpSizeError(f"{scenario.kind} at n={n}: {size}; the cap is "
                        f"n <= {cap} in {mode} mode")


def _shape_matches(marginal: Behavior, scenario: CausalScenario) -> bool:
    SA, SB, SX, SY = scenario.string_sizes
    return marginal.output_sizes == (SA, SB) and \
        marginal.input_sizes == (SX, SY)


def _check_marginal(marginal: Optional[Behavior],
                    scenario: CausalScenario) -> None:
    if marginal is None:
        raise GameError("fixed-marginal mode needs a marginal behavior")
    if not _shape_matches(marginal, scenario):
        raise GameError("marginal shape does not match the scenario")


def _check_x_star(x_star: Sequence[int], scenario: CausalScenario) -> None:
    n, nx = scenario.rounds, scenario.alice_inputs
    if len(x_star) != n or any(not 0 <= x < nx for x in x_star):
        raise GameError(f"x_star must be {n} symbols below {nx}")


@dataclass(frozen=True)
class LocalRelabelling:
    """A relabelling of round ``k`` alone.

    Alice's round-k input x becomes ``alice_inputs[x]`` and her output a
    becomes ``alice_outputs[x][a]``; Bob's likewise.  An output-only
    relabelling has identity inputs and the same output permutation at
    every input.
    """

    k: int
    alice_inputs: tuple[int, ...]
    alice_outputs: tuple[tuple[int, ...], ...]
    bob_inputs: tuple[int, ...]
    bob_outputs: tuple[tuple[int, ...], ...]


def _party_images(inputs, outputs, n_out: int, n_in: int, rounds: int,
                  k: int) -> tuple[np.ndarray, np.ndarray]:
    """Images of every (output string, input string) pair of one party
    under a round-k relabelling, as two arrays indexed [output, input]."""
    w_out, w_in = n_out ** (rounds - 1 - k), n_in ** (rounds - 1 - k)
    strings_out = np.arange(n_out ** rounds)[:, None]
    strings_in = np.arange(n_in ** rounds)[None, :]
    o, i = strings_out // w_out % n_out, strings_in // w_in % n_in
    image_out = strings_out + (np.asarray(outputs)[i, o] - o) * w_out
    image_in = strings_in + (np.asarray(inputs)[i] - i) * w_in
    return image_out, np.broadcast_to(image_in, image_out.shape)


def _string_images(r: LocalRelabelling, scenario: CausalScenario):
    """(A', X') indexed [A, X] and (B', Y') indexed [B, Y]."""
    n = scenario.rounds
    return (_party_images(r.alice_inputs, r.alice_outputs,
                          scenario.alice_outputs, scenario.alice_inputs,
                          n, r.k),
            _party_images(r.bob_inputs, r.bob_outputs, scenario.bob_outputs,
                          scenario.bob_inputs, n, r.k))


def _variable_map(r: LocalRelabelling, scenario: CausalScenario,
                  x_star: Sequence[int]) -> np.ndarray:
    """The relabelling as a permutation of the guessing LP's variables,
    numbered with e, X, Y, A, B from major to minor; the guess e goes
    through Alice's output permutation at x*_k."""
    if r.alice_inputs[x_star[r.k]] != x_star[r.k]:
        raise GameError(f"relabelling of round {r.k} moves x* = "
                        f"{x_star[r.k]}")
    SA, SB, SX, SY = scenario.string_sizes
    (A2, X2), (B2, Y2) = _string_images(r, scenario)
    guess = A2[:, encode_string(list(x_star), scenario.alice_inputs)]
    # Broadcast the [A, X] and [B, Y] images onto the [e, X, Y, A, B] axes.
    A2, X2 = (m.T[None, :, None, :, None] for m in (A2, X2))
    B2, Y2 = (m.T[None, None, :, None, :] for m in (B2, Y2))
    image = ((((guess[:, None, None, None, None] * SX + X2) * SY + Y2) * SA
              + A2) * SB + B2)
    return image.ravel()


def _orbit_minima(size: int, maps: Sequence[np.ndarray]) -> np.ndarray:
    """Least index in the orbit of each of ``range(size)`` under the group
    generated by the permutations ``maps``.

    Label propagation: every index takes the least label reachable through
    the generators; at the fixed point labels are constant on orbits (each
    generator has finite order) and distinct across them.
    """
    labels = np.arange(size)
    while True:
        new = labels
        for image in maps:
            new = np.minimum(new, new[image])
        if np.array_equal(new, labels):
            return labels
        labels = new


def build_guessing_lp(game: Game, marginal: Optional[Behavior],
                      x_star: Sequence[int], scenario: CausalScenario,
                      y_ref: Optional[Sequence[int]] = None,
                      omega_star=None, relabellings=(), relation: str = L.EQ,
                      functional: Optional[dict] = None) -> TonsLp:
    """Assemble the guessing LP; exactly one of ``marginal`` and
    ``omega_star`` gives its constraint.

    Given ``marginal``, the blocks must sum to it exactly.  Given
    ``omega_star``, the value-constrained case, they must instead sum to
    a normalized behavior whose value (of ``game``, or of the linear
    ``functional`` on single-round keys) in every round, conditioned on
    each past-input history and averaged over past outputs, stands in
    ``relation`` (``lp.EQ`` or ``lp.GE``) to ``omega_star``.  At one
    round this is the single-round guessing LP.

    Given ``relabellings`` (``LocalRelabelling``s fixing the marginal, as
    from ``marginal_symmetries``), the LP is built directly on its
    symmetric slice: one column per variable orbit, numbered by each
    orbit's least variable, the objective and each row summed per orbit,
    each distinct row once, and ``var`` maps every key to its orbit's
    column.  Only the least guess of each guess orbit contributes causal
    rows: the group acts on the guess through the guess alone, and the
    rows of block g(e) are, on the slice, combinations of those of block
    e (under output-only relabellings they are the same rows).  With no
    relabellings (no symmetry, the value-constrained case, or the full LP
    as a test oracle) every variable is its own column.
    """
    n = scenario.rounds
    na, nb, nx, ny = (scenario.alice_outputs, scenario.bob_outputs,
                      scenario.alice_inputs, scenario.bob_inputs)
    SA, SB, SX, SY = scenario.string_sizes
    _check_x_star(x_star, scenario)
    if y_ref is not None and (len(y_ref) != n or
                              any(not 0 <= y < ny for y in y_ref)):
        raise GameError(f"y_ref must be {n} symbols below {ny}")
    x_enc = encode_string(list(x_star), nx)
    y_enc = 0 if y_ref is None else encode_string(list(y_ref), ny)
    if (marginal is None) == (omega_star is None):
        raise GameError("give exactly one of marginal and omega_star")
    if marginal is not None:
        _check_marginal(marginal, scenario)
    elif relabellings:
        raise GameError("relabellings need the fixed-marginal constraint")
    elif relation not in (L.EQ, L.GE):
        raise GameError(f"relation must be '==' or '>=', got {relation!r}")

    # Variables are numbered with e, X, Y, A, B from major to minor;
    # labels[v] is the least variable of v's orbit.
    block = SA * SB * SX * SY
    labels = _orbit_minima(SA * block, [
        _variable_map(r, scenario, x_star) for r in relabellings])
    orbits, col = np.unique(labels, return_inverse=True)
    built = TonsLp(L.LinProgram(len(orbits), "max"), col, scenario, 0, 0)
    prog = built.program
    # by_block[e, A, B, X, Y] is the column of that key.
    by_block = col.reshape(SA, SX, SY, SA, SB).transpose(0, 3, 4, 1, 2)

    # Summed per orbit, the objective is exact on the invariant points.
    for e in range(SA):
        for j in by_block[e, e, :, x_enc, y_enc].tolist():
            prog.objective[j] = prog.objective.get(j, 0) + Fraction(1)

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
    # Variables are numbered guess-major: the least variable of the orbit
    # of (e, 0, 0, 0, 0) lies in the block of the least guess in e's orbit.
    for e in np.flatnonzero(labels[::block] >= np.arange(SA) * block):
        cols = by_block[e].tolist()
        for row in causal_rows:
            built.num_causal_rows += add_row(
                [(cols[A][B][X][Y], c) for ((A, B), (X, Y)), c in row.items()],
                0)

    if marginal is not None:
        entries = list(itertools.product(range(SX), range(SY), range(SA),
                                         range(SB)))
        per_entry = col.reshape(SA, block).T
        # Entries of one orbit, and only those, share their columns: keep
        # the first entry of each.
        kept = np.unique(np.sort(per_entry, axis=1), axis=0,
                         return_index=True)[1]
        for i in np.sort(kept).tolist():
            X, Y, A, B = entries[i]
            built.num_marginal_rows += add_row(
                [(j, 1) for j in per_entry[i].tolist()],
                marginal.entry((A, B), (X, Y)))
        return built

    coeffs_value = functional if functional is not None \
        else game_value_coefficients(game)
    # The summed blocks form a normalized behavior.
    prog.add(dict.fromkeys(by_block[..., 0, 0].ravel().tolist(), 1), L.EQ, 1)
    built.num_marginal_rows += 1
    for i in range(n):
        # Round i's output symbol of every output string.
        a_i = np.arange(SA) // na ** (n - 1 - i) % na
        b_i = np.arange(SB) // nb ** (n - 1 - i) % nb
        for x_past in itertools.product(range(nx), repeat=i):
            for y_past in itertools.product(range(ny), repeat=i):
                row: dict[int, Fraction] = {}
                for ((ai, bi), (xi, yi)), c in coeffs_value.items():
                    X = encode_string([*x_past, xi] + [0] * (n - i - 1), nx)
                    Y = encode_string([*y_past, yi] + [0] * (n - i - 1), ny)
                    for j in by_block[:, a_i == ai][:, :, b_i == bi, X, Y] \
                            .ravel().tolist():
                        row[j] = row.get(j, 0) + c
                prog.add(row, relation, omega_star)
                built.num_marginal_rows += 1
    return built


def _marginal_table(marginal: Behavior,
                    scenario: CausalScenario) -> np.ndarray:
    """The marginal indexed [A, B, X, Y] as integer numerators over their
    common denominator (int64 when they fit): exact, and comparing it
    is ten times faster than comparing Fractions."""
    _check_marginal(marginal, scenario)
    keys = np.array([(A, B, X, Y) for (A, B), (X, Y) in marginal.table],
                    dtype=np.int64).reshape(-1, 4)
    values = [Fraction(p) for p in marginal.table.values()]
    den = math.lcm(*(p.denominator for p in values))
    nums = [p.numerator * (den // p.denominator) for p in values]
    dtype = np.int64 if max(map(abs, nums), default=0) < 2 ** 63 else object
    table = np.zeros(scenario.string_sizes, dtype=dtype)
    table[tuple(keys.T)] = np.array(nums, dtype=dtype)
    return table


def _round_candidates(scenario: CausalScenario, k: int,
                      x_k: Optional[int]):
    """Non-identity relabellings of round k, Alice's side outermost: the
    output-only ones when ``x_k`` is None, else the local ones whose Alice
    input permutation fixes x_k."""
    na, nb, nx, ny = (scenario.alice_outputs, scenario.bob_outputs,
                      scenario.alice_inputs, scenario.bob_inputs)
    perms = itertools.permutations
    if x_k is None:
        alice = [(tuple(range(nx)), (p,) * nx) for p in perms(range(na))]
        bob = [(tuple(range(ny)), (p,) * ny) for p in perms(range(nb))]
    else:
        alice = [(xs, outs) for xs in perms(range(nx)) if xs[x_k] == x_k
                 for outs in itertools.product(perms(range(na)), repeat=nx)]
        bob = [(ys, outs) for ys in perms(range(ny))
               for outs in itertools.product(perms(range(nb)), repeat=ny)]
    for a in alice:
        for b in bob:
            if (a, b) != (alice[0], bob[0]):   # the identity comes first
                yield LocalRelabelling(k, *a, *b)


def _fixing(table: np.ndarray, scenario: CausalScenario, candidates):
    """The candidates under which the marginal table is unchanged."""
    SA, SB, SX, SY = scenario.string_sizes
    flat = table.ravel()
    found = []
    for r in candidates:
        (A2, X2), (B2, Y2) = _string_images(r, scenario)
        image = (((A2[:, None, :, None] * SB + B2[None, :, None, :]) * SX
                  + X2[:, None, :, None]) * SY + Y2[None, :, None, :])
        if (flat[image] == table).all():
            found.append(r)
    return found


# Candidates per round above which the search keeps to output relabellings:
# (nx - 1)! ny! na!^nx nb!^ny local ones, 32 for a 2x2x2x2 round.
_LOCAL_SEARCH_LIMIT = 4096


def marginal_symmetries(marginal: Behavior, scenario: CausalScenario,
                        x_star: Sequence[int]) -> list[LocalRelabelling]:
    """Local relabellings of single rounds that fix the marginal and x*.

    Round k's candidates are every Bob input permutation, every Alice
    input permutation fixing x*_k and, per input, every output
    permutation of each party; those under which every marginal entry is
    unchanged are returned, round by round.  In each round they and the
    identity form a group, so the group they generate has
    prod_k (|round k's| + 1) elements.  Entries are compared exactly, so
    a float marginal only matches bit for bit.  Rounds with more than
    ``_LOCAL_SEARCH_LIMIT`` candidates are searched for output
    relabellings only.
    """
    _check_x_star(x_star, scenario)
    table = _marginal_table(marginal, scenario)
    na, nb, nx, ny = (scenario.alice_outputs, scenario.bob_outputs,
                      scenario.alice_inputs, scenario.bob_inputs)
    f = math.factorial
    local = (f(nx - 1) * f(ny) * f(na) ** nx * f(nb) ** ny
             <= _LOCAL_SEARCH_LIMIT)
    return [r for k in range(scenario.rounds)
            for r in _fixing(table, scenario, _round_candidates(
                scenario, k, x_star[k] if local else None))]


def tons_guessing_probability(game: Game, marginal: Optional[Behavior],
                              x_star: Sequence[int], scenario: CausalScenario,
                              mode: str = "exact",
                              y_ref: Optional[Sequence[int]] = None,
                              omega_star=None,
                              float_tolerance: float = 1e-9) -> Number:
    """Eve's optimal probability of guessing Alice's full output string.

    Exactly one of ``marginal`` and ``omega_star`` constrains the blocks
    (see ``build_guessing_lp``).  Given a marginal, the LP is solved on
    the slice fixed by its local relabellings (see the module docstring).
    Raises InfeasibleError when the constraint is not attainable within
    the causal set, and LpSizeError beyond the round caps.
    """
    _check_caps(scenario, mode, marginal, x_star)
    relabellings = (marginal_symmetries(marginal, scenario, x_star)
                    if marginal is not None else ())
    built = build_guessing_lp(game, marginal, x_star, scenario, y_ref,
                              omega_star, relabellings)
    return L.solve_certified(built.program, mode, float_tolerance).value


def iid_guessing_baseline(game: Game, single_round_marginal: Behavior,
                          n: int, mode: str = "exact") -> Number:
    """The i.i.d. benchmark: (single-round guessing LP value) ** n."""
    scenario = CausalScenario.for_game(TONS, 1, game)
    single = tons_guessing_probability(game, single_round_marginal, (0,),
                                       scenario, mode=mode)
    return single ** n
