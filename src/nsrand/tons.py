"""Multi-round guessing probability under time-ordered causal constraints.

Builds the LP for an adversary guessing Alice's full output string over n
sequential rounds, where each conditional device behavior satisfies either
the time-ordered (TONS) or the block (ABNS) no-signalling constraint
family (``games.ns_index_groups`` over n rounds, appended by
``lp.append_rows``).  Strings are flattened round-major; the adversary
holds one subnormalized block per candidate output string.  The sum of
the blocks is either pinned to a given n-round marginal behavior, or, in
the value-constrained case, normalized and held to a value in every
round.  The one-round value-constrained LP is the single-round guessing
LP of ``nsvalues.single_round_guessing``.

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
Math. Program. 137 (2013)).  The group is the product of the rounds'
groups, so the orbits are labelled round by round (``_orbit_labels``):
each round's one-round orbits, of na * nx * ny * na * nb variables, give
its share of every orbit's least variable, and no permutation of the
whole variable space is built.  Columns number the orbits in the order of
their least variables, by a running count of the variables that are their
own labels; nothing is sorted.  The causal rows are summed and
de-duplicated one constraint block at a time (``lp.append_rows``), and a
slice has one marginal row per entry orbit, that of the first entry
holding each least column.  The noisy PR box is fixed per round by
flipping both outputs and by flipping Bob's input while Alice's output
shifts by her input (y -> y + 1, a -> a + x): the three-round slice has
512 columns instead of 32,768, and certifies exactly at every noise
level tried.  Rounds are never permuted: the TONS rows are time-ordered.

The slice is built directly, without the 2^n-block LP.  The full LP is
built only when the marginal has no symmetry, in the value-constrained
case, and as a test oracle.

A sweep over the noise at a fixed scenario solves LPs that differ only in
their right-hand sides, so two module-level caches of ``_CACHE_SIZE``
entries each keep what does not depend on the marginal's values: the
causal rows of ``build_causal_constraints``, keyed on the scenario, and
the slice skeleton of ``build_guessing_lp`` (orbit columns, objective,
de-duplicated causal rows and marginal-row columns), keyed on
``(scenario, x_star, y_ref, relabellings)`` (a full LP's is rebuilt
every call).  Per call, the symmetry search and the build read only the
marginal's ``games.Behavior.integers`` (a product's as computed, with no
``Fraction`` table).  Cached arrays, the rows' among them, are read-only;
every call returns its own ``LinProgram``.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from . import lp as L
from .games import (BLOCK_FAMILIES, Behavior, Game, GameError, Number,
                    encode_string, game_value_coefficients, ns_index_groups,
                    ns_pair_rows, positive_int)

TONS = "tons"
ABNS = "abns"

# Four rounds give a 4,096-variable slice for the noisy PR box (TONS:
# 7,297 rows, built in 0.1 s and solved in 0.6-0.9 s on a 2-vCPU Xeon);
# at v = 11/12 both kinds certify only on ``lp.solve``'s tight retry.
# The caps stay at 3 until the four-round values are pinned.
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
        for field in ("rounds", "alice_outputs", "bob_outputs",
                      "alice_inputs", "bob_inputs"):
            object.__setattr__(self, field, positive_int(
                getattr(self, field), "round count" if field == "rounds"
                else f"alphabet size {field}"))

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


@dataclass(frozen=True, eq=False)
class CausalRows:
    """Rows over one behavior block P flattened in (A, B, X, Y) order, as
    blocks ``(index, coeffs)`` of one width each: a block's row r is
    sum_k coeffs[k] P[index[r, k]] == 0, +1 entries then -1 entries.
    The arrays are read-only; instances compare by identity."""

    blocks: tuple

    def __len__(self) -> int:
        return sum(len(index) for index, _ in self.blocks)


# Entries kept by each cache of this module: a noise sweep of one scenario
# needs one causal row set and one slice skeleton, so a sweep of both kinds
# needs two of each.
_CACHE_SIZE = 16


@functools.lru_cache(maxsize=_CACHE_SIZE)
def build_causal_constraints(scenario: CausalScenario) -> CausalRows:
    """The ``games.ns_pair_rows`` of the ``games.ns_index_groups``, Bob's
    family first, over one behavior block, with pairs (k, 0): each row
    states that a partial sum with a suffix of one party's inputs equals
    that with the all-zero reference suffix.  TONS emits both directions
    of every prefix level i in 0..n-1; ABNS only the full-block level 0.
    Kept per scenario in a ``_CACHE_SIZE``-entry cache, so repeated calls
    return the same object."""
    blocks = tuple(
        ns_pair_rows(index, [(k, 0) for k in range(1, index.shape[1])])
        for _, _, index in ns_index_groups(
            (scenario.alice_outputs, scenario.bob_outputs),
            (scenario.alice_inputs, scenario.bob_inputs), BLOCK_FAMILIES,
            scenario.rounds, time_ordered=scenario.kind == TONS))
    for block in blocks:
        for array in block:
            array.setflags(write=False)
    return CausalRows(blocks)


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


def _check_caps(scenario: CausalScenario, mode: str,
                marginal: Optional[Behavior] = None,
                x_star: Optional[Sequence[int]] = None,
                round_box: Optional[Behavior] = None) -> None:
    """Raise LpSizeError beyond the round cap of ``mode``.

    The report gives a lower bound on the slice that would be solved when
    ``marginal`` has the scenario's shape: the group of its relabellings
    has prod_k (|fixing relabellings of round k| + 1) elements, so there
    are at least (full variables) / |G| orbits.  For the n-fold product
    of a normalized ``round_box`` it is read off the box alone: a round-k
    relabelling fixes such a product iff it fixes round k's box.
    Otherwise the report gives the full LP's size.
    """
    cap = EXACT_ROUND_CAP if mode == "exact" else FLOAT_ROUND_CAP
    n = scenario.rounds
    if n <= cap:
        return
    sa, sb, sx, sy = scenario.string_sizes
    full = sa * (sa * sb * sx * sy)
    per_round = None
    if round_box is not None:
        _check_x_star(x_star, scenario)
        one = replace(scenario, rounds=1)
        per_round = [len(marginal_symmetries(round_box, one, (x,)))
                     for x in x_star]
    elif marginal is not None and _shape_matches(marginal, scenario):
        counts = Counter(r.k for r in
                         marginal_symmetries(marginal, scenario, x_star))
        per_round = [counts[k] for k in range(n)]
    if per_round is None:
        size = (f"the full LP has {full} variables ({sa} blocks x "
                f"{full // sa} entries)")
    else:
        order = math.prod(c + 1 for c in per_round)
        size = (f"its symmetric slice has at least {-(-full // order)} "
                f"variables ({full} in the full LP over a group of {order} "
                f"local relabellings)")
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
    under a round-k relabelling, as two arrays indexed [output, input]
    (for relabellings stacked on leading axes, with those axes first)."""
    w_out, w_in = n_out ** (rounds - 1 - k), n_in ** (rounds - 1 - k)
    strings_out = np.arange(n_out ** rounds)[:, None]
    strings_in = np.arange(n_in ** rounds)[None, :]
    o, i = strings_out // w_out % n_out, strings_in // w_in % n_in
    image_out = strings_out + (np.asarray(outputs)[..., i, o] - o) * w_out
    image_in = strings_in + (np.asarray(inputs)[..., i] - i) * w_in
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


def _orbit_labels(scenario: CausalScenario, x_star: Sequence[int],
                  relabellings: Sequence[LocalRelabelling]) -> np.ndarray:
    """``_orbit_minima`` of the guessing LP's variables under the
    single-round ``relabellings``, built from one-round orbits.

    Relabellings of different rounds act on disjoint digits of a
    variable, so the group is the product of the round groups.  Variable
    v's index is the sum over rounds k of a term in v's round-k digits
    (e_k, x_k, y_k, a_k, b_k) alone, increasing in them lexicographically,
    so its orbit's least index is the sum of each round's least term.
    Round k's is read off ``_orbit_minima`` on the one-round space (of
    na * nx * ny * na * nb variables) under round k's relabellings; the n
    shares are added by broadcasting over the 5n digit axes.
    """
    n = scenario.rounds
    na, nb, nx, ny = (scenario.alice_outputs, scenario.bob_outputs,
                      scenario.alice_inputs, scenario.bob_inputs)
    SA, SB, SX, SY = scenario.string_sizes
    one = replace(scenario, rounds=1)
    sizes = (na, nx, ny, na, nb)
    # Weight of the least significant digit of e, X, Y, A and B.
    unit = np.array([SX * SY * SA * SB, SY * SA * SB, SA * SB, SB, 1])
    labels = np.zeros(sum(((s,) * n for s in sizes), ()), np.int64)
    for k in range(n):
        minima = _orbit_minima(math.prod(sizes), [
            _variable_map(replace(r, k=0), one, (x_star[k],))
            for r in relabellings if r.k == k])
        weights = unit * np.array(sizes) ** (n - 1 - k)
        share = weights @ np.array(np.unravel_index(minima, sizes))
        # Round k's digit of each string lies on axis k of its n axes.
        shape = [1] * (5 * n)
        for axis in range(k, 5 * n, n):
            shape[axis] = sizes[axis // n]
        labels += share.reshape(shape)
    return labels.ravel()


@dataclass(frozen=True)
class _Skeleton:
    """What a guessing LP takes from its ``_guessing_skeleton`` key alone.

    ``program`` has the LP's columns, objective and rows: the
    ``num_causal`` causal rows, then the marginal rows, all with
    right-hand side 0.  ``keys`` holds, per marginal row, the key
    (X, Y, A, B) whose entry is its right-hand side.  The arrays, the
    program's among them, are read-only; ``by_block`` is the column of
    each key, indexed [e, A, B, X, Y].
    """

    program: L.LinProgram
    columns: np.ndarray
    by_block: np.ndarray
    num_causal: int
    keys: np.ndarray


def _guessing_skeleton(scenario: CausalScenario, causal: CausalRows,
                       x_star: tuple, y_ref: tuple, relabellings: tuple,
                       with_marginal: bool = True) -> _Skeleton:
    """The orbit columns, objective, causal rows and, ``with_marginal``,
    marginal-row columns of ``build_guessing_lp``'s LP, for valid
    ``x_star`` and ``y_ref`` and the scenario's ``causal`` rows."""
    SA, SB, SX, SY = scenario.string_sizes
    x_enc = encode_string(list(x_star), scenario.alice_inputs)
    y_enc = encode_string(list(y_ref), scenario.bob_inputs)
    # Variables are numbered with e, X, Y, A, B from major to minor;
    # labels[v] is the least variable of v's orbit, summed from the
    # one-round orbits of each round's relabellings.
    block = SA * SB * SX * SY
    labels = _orbit_labels(scenario, x_star, relabellings)
    # Causal rows come from the least guess of each guess orbit: the least
    # variable of the orbit of (e, 0, 0, 0, 0) lies in that guess's block.
    guesses = np.flatnonzero(labels[::block] >= np.arange(SA) * block)
    # Columns number the orbits in the order of their least variables.  A
    # variable is its orbit's least exactly when it is its own label, so a
    # running count of those ranks every label, and nothing is sorted.
    rank = np.cumsum(labels == np.arange(labels.size))
    col = rank[labels]
    col -= 1
    col.setflags(write=False)
    prog = L.LinProgram(int(rank[-1]))
    del labels, rank  # 8 MB each at four rounds, not held through the rows
    # by_block[e, A, B, X, Y] is the column of that key.
    by_block = col.reshape(SA, SX, SY, SA, SB).transpose(0, 3, 4, 1, 2)

    # Summed per orbit, the objective is exact on the invariant points.
    prog.objective.update(Counter(by_block[
        range(SA), range(SA), :, x_enc, y_enc].ravel().tolist()))

    rows = [(by_key[index], c)
            for by_key in by_block[guesses].reshape(len(guesses), block)
            for index, c in causal.blocks]
    L.append_rows(prog, rows, 0, L.EQ, distinct=bool(relabellings))
    num_causal = len(prog.rhs)
    keys = np.zeros((0, 4), np.int64)
    if with_marginal:
        # Entries of one orbit, and only those, share their columns: one
        # marginal row for the first entry of each.  The entry orbits
        # partition the columns, so an entry's least column names its
        # orbit, and the first entry holding each least column is its
        # orbit's first.  A row's coefficients are positive and sum to SA,
        # so it equals no causal row (theirs sum to 0) and no other
        # marginal row (their columns are disjoint); no de-duplication is
        # needed.
        per_entry = col.reshape(SA, block).T
        first = np.full(prog.num_vars, block)
        np.minimum.at(first, per_entry.min(axis=1), np.arange(block))
        kept = np.sort(first[first < block])
        L.append_rows(prog, [(per_entry[kept], np.ones(SA, np.int64))], 0,
                      L.EQ)
        keys = np.transpose(np.unravel_index(kept, (SX, SY, SA, SB)))
    keys.setflags(write=False)
    return _Skeleton(prog, col, by_block, num_causal, keys)


# Only slices are kept: a full three-round LP holds ~36 MB of rows, and
# solving it costs far more than building it.
_slice_skeleton = functools.lru_cache(maxsize=_CACHE_SIZE)(_guessing_skeleton)


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
    each distinct row once, and ``columns`` maps every variable to its
    orbit's column.  Only the least guess of each guess orbit contributes causal
    rows: the group acts on the guess through the guess alone, and the
    rows of block g(e) are, on the slice, combinations of those of block
    e (under output-only relabellings they are the same rows).  With no
    relabellings (no symmetry, the value-constrained case, or the full LP
    as a test oracle) every variable is its own column.

    Everything but the right-hand sides depends only on ``(scenario,
    x_star, y_ref, relabellings)``: the orbit columns, the objective, the
    de-duplicated causal rows and the marginal rows' columns, with the
    entry each row reads (``_guessing_skeleton``).  A slice's skeleton is
    built once per such key, with the scenario's cached
    ``build_causal_constraints``, and kept in a ``_CACHE_SIZE``-entry
    cache, as read-only arrays that every program built from it shares;
    a full LP's is built afresh, without marginal rows in the
    value-constrained case.  Each call still checks its arguments and
    gathers the marginal's ``integers`` at the marginal rows' keys as
    their right-hand sides; in the value-constrained case it adds the
    normalization and value rows instead.  It returns a new
    ``LinProgram`` with its own objective dict and right-hand sides.
    """
    n = scenario.rounds
    na, nb, nx, ny = (scenario.alice_outputs, scenario.bob_outputs,
                      scenario.alice_inputs, scenario.bob_inputs)
    SA, SB, _, _ = scenario.string_sizes
    _check_x_star(x_star, scenario)
    if y_ref is not None and (len(y_ref) != n or
                              any(not 0 <= y < ny for y in y_ref)):
        raise GameError(f"y_ref must be {n} symbols below {ny}")
    if (marginal is None) == (omega_star is None):
        raise GameError("give exactly one of marginal and omega_star")
    if marginal is not None:
        _check_marginal(marginal, scenario)
    elif relabellings:
        raise GameError("relabellings need the fixed-marginal constraint")
    elif relation not in (L.EQ, L.GE):
        raise GameError(f"relation must be '==' or '>=', got {relation!r}")

    key = (scenario, build_causal_constraints(scenario), tuple(x_star),
           (0,) * n if y_ref is None else tuple(y_ref), tuple(relabellings))
    skeleton = _slice_skeleton(*key) if relabellings \
        else _guessing_skeleton(*key, with_marginal=marginal is not None)
    prog = replace(skeleton.program, lower={}, upper={},
                   objective=dict(skeleton.program.objective))
    built = TonsLp(prog, skeleton.columns, scenario, skeleton.num_causal,
                   len(skeleton.keys))
    if marginal is not None:
        nums, prog.rhs_den = marginal.integers
        X, Y, A, B = skeleton.keys.T
        rhs = nums[A, B, X, Y]
        prog.rhs = np.concatenate([np.zeros(skeleton.num_causal, rhs.dtype),
                                   rhs])
        return built

    coeffs_value = functional if functional is not None \
        else game_value_coefficients(game)
    # The summed blocks form a normalized behavior.
    total = skeleton.by_block[..., 0, 0].reshape(1, -1)
    L.append_rows(prog, [(total, [1] * total.size)], 1, L.EQ)
    for i in range(n):
        # Round i's output symbol of every output string, and one row per
        # past input history (x_past major): its inputs, round i's, then 0s.
        a_i = np.arange(SA) // na ** (n - 1 - i) % na
        b_i = np.arange(SB) // nb ** (n - 1 - i) % nb
        X = np.arange(nx ** i)[:, None] * nx ** (n - i)
        Y = np.arange(ny ** i)[None, :] * ny ** (n - i)
        columns, coeffs = [], []
        for ((ai, bi), (xi, yi)), c in coeffs_value.items():
            j = skeleton.by_block[:, a_i == ai][:, :, b_i == bi][
                ..., X + xi * nx ** (n - 1 - i), Y + yi * ny ** (n - 1 - i)]
            columns.append(j.reshape(-1, X.size * Y.size).T)
            coeffs += [c] * columns[-1].shape[1]
        L.append_rows(prog, [(np.hstack(columns), coeffs)], omega_star,
                      relation)
    built.num_marginal_rows = len(prog.rhs) - skeleton.num_causal
    return built


def _party_moves(scenario: CausalScenario, x_k: Optional[int]):
    """Each party's relabellings of one round as (input permutation,
    output permutation per input), the identity first: output-only ones
    when ``x_k`` is None, else local ones, Alice's fixing x_k."""
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
    return alice, bob


def _round_search(scenario: CausalScenario, k: int, x_k: Optional[int]):
    """Round k's non-identity relabellings, Alice's side outermost, with
    the flat-index offsets of their images in the [A, B, X, Y] marginal
    table: Alice's indexed [candidate, A, X], Bob's [candidate, B, Y].
    Entry (A, B, X, Y) goes to the sum of its Alice and its Bob offset."""
    alice, bob = _party_moves(scenario, x_k)
    SA, SB, SX, SY = scenario.string_sizes
    n = scenario.rounds
    # int32 halves the index array the search builds per call.
    dtype = np.int32 if SA * SB * SX * SY <= 2 ** 31 else np.int64
    A2, X2 = _party_images(*map(list, zip(*alice)), scenario.alice_outputs,
                           scenario.alice_inputs, n, k)
    B2, Y2 = _party_images(*map(list, zip(*bob)), scenario.bob_outputs,
                           scenario.bob_inputs, n, k)
    alice_offsets = ((A2 * SB * SX + X2) * SY).astype(dtype)
    bob_offsets = (B2 * SX * SY + Y2).astype(dtype)
    pick = np.arange(1, len(alice) * len(bob))
    return ([LocalRelabelling(k, *a, *b) for a in alice for b in bob][1:],
            alice_offsets[pick // len(bob)], bob_offsets[pick % len(bob)])


# Candidates per round above which the search keeps to output relabellings:
# (nx - 1)! ny! na!^nx nb!^ny local ones, 32 for a 2x2x2x2 round.
_LOCAL_SEARCH_LIMIT = 4096
# Table entries gathered at once for the candidates passing the symmetry
# search's sieve: all 31 of a 2x2x2x2 round up to four rounds (65,536
# entries each); beyond that the index and value arrays stay under 16/32 MB.
_GATHER_LIMIT = 1 << 22


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

    A round's candidates are tested together on the marginal's
    ``integers``: their images, each the sum of an Alice and a Bob offset
    (``_round_search``), index it in one gather, first on the A = B = 0
    block (a subset of the same equalities); those that pass are tested
    whole, up to ``_GATHER_LIMIT`` entries at a time.  Nothing is cached.
    """
    _check_x_star(x_star, scenario)
    _check_marginal(marginal, scenario)
    P = marginal.integers[0]
    flat = P.ravel()
    na, nb, nx, ny = (scenario.alice_outputs, scenario.bob_outputs,
                      scenario.alice_inputs, scenario.bob_inputs)
    f = math.factorial
    local = (f(nx - 1) * f(ny) * f(na) ** nx * f(nb) ** ny
             <= _LOCAL_SEARCH_LIMIT)
    step = max(1, _GATHER_LIMIT // flat.size)
    found = []
    for k in range(scenario.rounds):
        candidates, alice, bob = _round_search(
            scenario, k, int(x_star[k]) if local else None)
        block = flat[alice[:, 0, :, None] + bob[:, 0, None, :]]  # A = B = 0
        passed = np.flatnonzero((block == P[0, 0]).all(axis=(1, 2)))
        for s in range(0, len(passed), step):
            i = passed[s:s + step]
            image = alice[i, :, None, :, None] + bob[i, None, :, None, :]
            fixed = (flat[image] == P).all(axis=(1, 2, 3, 4))
            found += [candidates[j] for j in i[fixed]]
    return found


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
    n = positive_int(n, "round count")
    scenario = CausalScenario.for_game(TONS, 1, game)
    single = tons_guessing_probability(game, single_round_marginal, (0,),
                                       scenario, mode=mode)
    return single ** n
