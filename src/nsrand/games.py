"""Nonlocal games and behaviors.

Defines finite-alphabet games (input distribution plus 0/1 predicate),
conditional-probability behaviors with exact rational entries, and the
specific games used throughout the package: the 3-input chained game in
its complete-support variant, CHSH, tripartite guessing games, and the
Mermin-Peres magic square.  Multi-round strings are flattened with
round-major mixed-radix indexing throughout.  ``ns_marginal_groups`` is
the one source of no-signalling marginal rows, single-round and
time-ordered, for every LP builder and verifier.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from typing import Optional, Sequence, Union

Number = Union[Fraction, float]


class GameError(ValueError):
    """Inconsistent game or behavior data."""


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet of symbols 0..size-1."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise GameError(f"alphabet size must be >= 1, got {self.size}")

    def symbols(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class NoisyPRParams:
    """Noise weight of the noisy PR box mixture."""

    v: Fraction

    def __post_init__(self):
        v = Fraction(self.v)
        object.__setattr__(self, "v", v)
        if not 0 <= v <= 1:
            raise GameError(f"v must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class Game:
    """A 2- or 3-party nonlocal game.

    ``pi`` maps full input tuples to exact rational probabilities and
    ``predicate`` maps (output tuple, input tuple) to 0/1.  Both tables
    are total over their index space.
    """

    parties: int
    input_alphabets: tuple[Alphabet, ...]
    output_alphabets: tuple[Alphabet, ...]
    pi: dict[tuple[int, ...], Fraction]
    predicate: dict[tuple[tuple[int, ...], tuple[int, ...]], int]
    name: str = ""

    def __post_init__(self):
        if self.parties not in (2, 3):
            raise GameError("only bipartite and tripartite games are supported")
        if len(self.input_alphabets) != self.parties or \
                len(self.output_alphabets) != self.parties:
            raise GameError("alphabet count does not match party count")
        total = sum(self.pi.values(), start=Fraction(0))
        if total != 1 or any(p < 0 for p in self.pi.values()):
            raise GameError(f"input distribution must be a probability "
                            f"distribution (sums to {total})")
        if any(v not in (0, 1) for v in self.predicate.values()):
            raise GameError("predicate entries must be 0 or 1")
        n_in = prod(a.size for a in self.input_alphabets)
        n_out = prod(a.size for a in self.output_alphabets)
        if len(self.pi) != n_in or len(self.predicate) != n_in * n_out:
            raise GameError("pi/predicate tables must be total")

    @property
    def input_sizes(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.input_alphabets)

    @property
    def output_sizes(self) -> tuple[int, ...]:
        return tuple(a.size for a in self.output_alphabets)

    def inputs(self):
        return itertools.product(*(a.symbols() for a in self.input_alphabets))

    def outputs(self):
        return itertools.product(*(a.symbols() for a in self.output_alphabets))

    def wins(self, outputs: tuple[int, ...], inputs: tuple[int, ...]) -> int:
        return self.predicate[(outputs, inputs)]


@dataclass(frozen=True)
class Behavior:
    """Conditional probabilities P(outputs | inputs) for 2 or 3 parties.

    Entries are exact rationals (or floats in float mode).  For every
    input tuple the entries sum to 1, or to a common subnormalization
    constant when ``subnormalized`` is set.
    """

    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]
    table: dict[tuple[tuple[int, ...], tuple[int, ...]], Number]
    subnormalized: bool = False

    @property
    def parties(self) -> int:
        return len(self.input_sizes)

    def inputs(self):
        return itertools.product(*(range(s) for s in self.input_sizes))

    def outputs(self):
        return itertools.product(*(range(s) for s in self.output_sizes))

    def entry(self, outputs: tuple[int, ...], inputs: tuple[int, ...]) -> Number:
        return self.table.get((outputs, inputs), 0)

    def normalization(self, inputs: tuple[int, ...]) -> Number:
        return sum(self.entry(o, inputs) for o in self.outputs())

    def check_valid(self, tol: float = 0.0) -> None:
        """Raise unless entries are nonnegative and per-input sums agree."""
        sums = []
        for ins in self.inputs():
            for outs in self.outputs():
                p = self.entry(outs, ins)
                if p < (-tol if tol else 0):
                    raise GameError(f"negative probability {p} at {outs}|{ins}")
            sums.append(self.normalization(ins))
        target = Fraction(1) if not self.subnormalized else sums[0]
        for s in sums:
            if abs(s - target) > tol:
                raise GameError(f"per-input sums differ: {s} vs {target}")


def prod(values) -> int:
    out = 1
    for v in values:
        out *= v
    return out


# ---------------------------------------------------------------------------
# round-major mixed-radix string flattening
# ---------------------------------------------------------------------------

def encode_string(digits: Sequence[int], base: int) -> int:
    """Flatten a per-round symbol string; round 1 is most significant."""
    v = 0
    for d in digits:
        v = v * base + d
    return v


def decode_string(value: int, base: int, rounds: int) -> tuple[int, ...]:
    digits = []
    for _ in range(rounds):
        value, d = divmod(value, base)
        digits.append(d)
    return tuple(reversed(digits))


# ---------------------------------------------------------------------------
# no-signalling marginal rows
# ---------------------------------------------------------------------------

# Marginal families: (name, parties whose outputs are summed out).  The
# summed parties' inputs must not change the remaining marginal.  A
# bipartite behavior has the first two, a tripartite one all six.
NS_FAMILIES = (
    ("A|x", (0,)),
    ("B|y", (1,)),
    ("E|z", (2,)),
    ("AB|xy", (0, 1)),
    ("AE|xz", (0, 2)),
    ("BE|yz", (1, 2)),
)


# Bob's family first: the row order of the blockwise guessing LPs.
BLOCK_FAMILIES = (NS_FAMILIES[1], NS_FAMILIES[0])


def ns_families(parties: int) -> tuple:
    """Every marginal family of a bipartite or tripartite behavior."""
    return NS_FAMILIES[:2] if parties == 2 else NS_FAMILIES


def ns_marginal_groups(output_sizes: Sequence[int], input_sizes: Sequence[int],
                       families, rounds: int = 1, time_ordered: bool = False):
    """Groups of marginal sums that no-signalling requires to be equal.

    Sizes are per round and party; keys are ``Behavior.table`` keys of
    round-major strings.  At level i a family sums its parties' outputs
    after round i, and the sum may not depend on their inputs after round
    i.  Levels are 0..rounds-1 if ``time_ordered`` (TONS), else 0 alone.

    Yields ``(family name, kept outputs, [(inputs, keys), ...])``: one
    entry per input suffix of the summed parties, all-zero suffix first.
    Order: level, family, kept parties' output strings then input
    strings, summed parties' prefix outputs then prefix inputs, suffix.
    """
    n = rounds
    parties = range(len(output_sizes))
    for i in (range(n) if time_ordered else (0,)):
        for name, summed in families:
            kept = [p for p in parties if p not in summed]
            # A string is prefix * span + suffix: kept parties fix whole
            # strings (span 1), summed parties their first i rounds.
            out_span = [1 if p in kept else output_sizes[p] ** (n - i)
                        for p in parties]
            in_span = [1 if p in kept else input_sizes[p] ** (n - i)
                       for p in parties]
            for kept_outs, kept_ins, pre_outs, pre_ins in itertools.product(
                    _strings(output_sizes, kept, n),
                    _strings(input_sizes, kept, n),
                    _strings(output_sizes, summed, i),
                    _strings(input_sizes, summed, i)):
                outs = list(_extensions(
                    _merge(kept, kept_outs, summed, pre_outs), out_span))
                yield name, kept_outs, [
                    (ins, [(o, ins) for o in outs]) for ins in _extensions(
                        _merge(kept, kept_ins, summed, pre_ins), in_span)]


def _strings(sizes, parties, rounds: int):
    """Every tuple of the parties' encoded strings of ``rounds`` rounds."""
    return itertools.product(*(range(sizes[p] ** rounds) for p in parties))


def _merge(kept, kept_vals, summed, summed_vals) -> list[int]:
    """Values in party order from the kept and the summed parties' values."""
    merged = dict(zip(kept, kept_vals)) | dict(zip(summed, summed_vals))
    return [merged[p] for p in sorted(merged)]


def _extensions(prefixes, spans):
    """Every tuple of strings that extend the per-party prefixes."""
    return itertools.product(*(range(pre * span, (pre + 1) * span)
                               for pre, span in zip(prefixes, spans)))


def ns_equality_rows(output_sizes: Sequence[int], input_sizes: Sequence[int],
                     families, rounds: int = 1, time_ordered: bool = False):
    """Rows ``{key: +-1}``, one per non-reference entry of each
    ``ns_marginal_groups`` group: its marginal sum minus the reference."""
    for _, _, entries in ns_marginal_groups(output_sizes, input_sizes,
                                            families, rounds, time_ordered):
        ref = dict.fromkeys(entries[0][1], -1)
        for _, keys in entries[1:]:
            yield dict.fromkeys(keys, 1) | ref


# ---------------------------------------------------------------------------
# game builders
# ---------------------------------------------------------------------------

# Input pairs of the 3-input chain game: correlated pairs demand a xor b
# equal to the listed target; the remaining three pairs always win.
CHAIN_CORRELATED_PAIRS: dict[tuple[int, int], int] = {
    (0, 0): 0, (1, 0): 0, (1, 1): 0, (2, 1): 0, (2, 2): 0, (0, 2): 1,
}


def chain_correlated_pairs(m: int) -> dict[tuple[int, int], int]:
    """Constrained input pairs of the m-setting chain: a 2m-cycle with one flip."""
    pairs = {}
    for x in range(m):
        pairs[(x, x)] = 0
        if x + 1 < m:
            pairs[(x + 1, x)] = 0
    pairs[(0, m - 1)] = 1
    return pairs


def make_chain_game(m: int = 3) -> Game:
    """Complete-support m-input chained game with uniform inputs.

    Only m = 3 is exercised against book values; other m are provided for
    exploration.
    """
    if m < 2:
        raise GameError("the chain needs at least two settings")
    two, inputs = Alphabet(2), Alphabet(m)
    correlated = chain_correlated_pairs(m)
    pi = {(x, y): Fraction(1, m * m) for x in range(m) for y in range(m)}
    predicate = {}
    for x, y in pi:
        for a, b in itertools.product(range(2), repeat=2):
            if (x, y) in correlated:
                win = int(a ^ b == correlated[(x, y)])
            else:
                win = 1
            predicate[((a, b), (x, y))] = win
    return Game(2, (inputs, inputs), (two, two), pi, predicate,
                name=f"chain{m}")


def make_chsh_game() -> Game:
    """CHSH: two binary inputs per player, win iff a xor b = x.y."""
    two = Alphabet(2)
    pi = {(x, y): Fraction(1, 4) for x in range(2) for y in range(2)}
    predicate = {((a, b), (x, y)): int(a ^ b == x & y)
                 for x in range(2) for y in range(2)
                 for a in range(2) for b in range(2)}
    return Game(2, (two, two), (two, two), pi, predicate, name="chsh")


def guess_predicate(a: int, e: int, x: int, z: int) -> int:
    """Eve must reproduce Alice's output whenever their inputs coincide."""
    return 0 if (x == z and a != e) else 1


def make_guessing_game(game: Game) -> Game:
    """Tripartite guessing-game extension of a bipartite game.

    Eve receives a uniformly random input from Alice's input alphabet and
    wins automatically unless her input matches Alice's, in which case her
    output must equal Alice's.  The input distribution stays complete
    support whenever the base game's is.
    """
    if game.parties != 2:
        raise GameError("guessing games extend bipartite games only")
    ax, bx = game.input_alphabets
    aa, ba = game.output_alphabets
    pi = {(x, y, z): game.pi[(x, y)] / ax.size
          for (x, y) in game.pi for z in ax.symbols()}
    predicate = {}
    for (x, y, z) in pi:
        for a, b, e in itertools.product(aa.symbols(), ba.symbols(), aa.symbols()):
            v = game.wins((a, b), (x, y)) * guess_predicate(a, e, x, z)
            predicate[((a, b, e), (x, y, z))] = v
    return Game(3, (ax, bx, ax), (aa, ba, aa), pi, predicate,
                name=(game.name + "-guess") if game.name else "guess")


_MAGIC_SQUARE_RESOURCE = "magic_square_game.json"


def magic_square_parity_triples() -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Output encodings: Alice's even-parity and Bob's odd-parity bit triples."""
    alice = [t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 0]
    bob = [t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 1]
    return alice, bob


def _magic_square_table() -> dict:
    """Regenerate the bundled magic-square data (kept for provenance tests)."""
    alice, bob = magic_square_parity_triples()
    entries = {}
    for x in range(3):          # Alice fills row x
        for y in range(3):      # Bob fills column y
            for a, ta in enumerate(alice):
                for b, tb in enumerate(bob):
                    entries[f"{a},{b},{x},{y}"] = int(ta[y] == tb[x])
    return {
        "version": 1,
        "convention": "mermin-peres; alice outputs even-parity bit triples "
                      "(lexicographic), bob odd-parity; win iff shared cell agrees",
        "parties": 2,
        "inputs": [3, 3],
        "outputs": [4, 4],
        "pi": {f"{x},{y}": "1/9" for x in range(3) for y in range(3)},
        "V": entries,
    }


def make_magic_square_game() -> Game:
    """Load the standard Mermin-Peres magic square game from bundled data."""
    data = json.loads(resources.files("nsrand.data")
                      .joinpath(_MAGIC_SQUARE_RESOURCE).read_text())
    three, four = Alphabet(3), Alphabet(4)
    pi = {tuple(int(t) for t in key.split(",")): Fraction(val)
          for key, val in data["pi"].items()}
    predicate = {}
    for key, val in data["V"].items():
        a, b, x, y = (int(t) for t in key.split(","))
        predicate[((a, b), (x, y))] = int(val)
    return Game(2, (three, three), (four, four), pi, predicate,
                name="magic-square")


# ---------------------------------------------------------------------------
# behaviors
# ---------------------------------------------------------------------------

def make_pr_v(params: NoisyPRParams) -> Behavior:
    """Noisy PR box: (3+v)/8 on winning CHSH events, (1-v)/8 otherwise."""
    v = params.v
    win, lose = (3 + v) / 8, (1 - v) / 8
    table = {}
    for x, y in itertools.product(range(2), repeat=2):
        for a, b in itertools.product(range(2), repeat=2):
            table[((a, b), (x, y))] = win if a ^ b == x & y else lose
    return Behavior((2, 2), (2, 2), table)


def uniform_behavior(output_sizes: tuple[int, ...],
                     input_sizes: tuple[int, ...]) -> Behavior:
    p = Fraction(1, prod(output_sizes))
    table = {}
    for ins in itertools.product(*(range(s) for s in input_sizes)):
        for outs in itertools.product(*(range(s) for s in output_sizes)):
            table[(outs, ins)] = p
    return Behavior(input_sizes, output_sizes, table)


def product_behavior(behavior: Behavior, n: int) -> Behavior:
    """n-round product of a bipartite behavior over round-major strings."""
    if behavior.parties != 2:
        raise GameError("product_behavior expects a bipartite behavior")
    if n < 1:
        raise GameError("need at least one round")
    behavior.check_valid()
    na, nb = behavior.output_sizes
    nx, ny = behavior.input_sizes
    table = {}
    for xs in itertools.product(range(nx), repeat=n):
        for ys in itertools.product(range(ny), repeat=n):
            ins = (encode_string(xs, nx), encode_string(ys, ny))
            for as_ in itertools.product(range(na), repeat=n):
                for bs in itertools.product(range(nb), repeat=n):
                    p = Fraction(1)
                    for i in range(n):
                        p *= behavior.entry((as_[i], bs[i]), (xs[i], ys[i]))
                        if not p:
                            break
                    if p:
                        table[((encode_string(as_, na), encode_string(bs, nb)),
                               ins)] = p
    return Behavior((nx ** n, ny ** n), (na ** n, nb ** n), table)


def round_marginal(behavior: Behavior, i: int, n: int,
                   round_output_sizes: tuple[int, int],
                   round_input_sizes: tuple[int, int],
                   fixed_inputs: Optional[tuple[Sequence[int], Sequence[int]]] = None,
                   ) -> Behavior:
    """Single-round marginal of an n-round bipartite behavior.

    Rounds other than ``i`` keep the inputs given in ``fixed_inputs``
    (all-zero strings by default); their outputs are summed out.
    """
    na, nb = round_output_sizes
    nx, ny = round_input_sizes
    if fixed_inputs is None:
        xs_fixed, ys_fixed = [0] * n, [0] * n
    else:
        xs_fixed, ys_fixed = list(fixed_inputs[0]), list(fixed_inputs[1])
    table = {}
    for x in range(nx):
        for y in range(ny):
            xs, ys = list(xs_fixed), list(ys_fixed)
            xs[i], ys[i] = x, y
            ins = (encode_string(xs, nx), encode_string(ys, ny))
            for a in range(na):
                for b in range(nb):
                    total = Fraction(0)
                    for as_ in itertools.product(range(na), repeat=n):
                        if as_[i] != a:
                            continue
                        for bs in itertools.product(range(nb), repeat=n):
                            if bs[i] != b:
                                continue
                            total += behavior.entry(
                                (encode_string(as_, na), encode_string(bs, nb)),
                                ins)
                    table[((a, b), (x, y))] = total
    return Behavior((nx, ny), (na, nb), table)


# ---------------------------------------------------------------------------
# linear functionals on behaviors
# ---------------------------------------------------------------------------

def bell_value(behavior: Behavior, game: Game) -> Number:
    """Game value sum(pi * V * P) of a behavior."""
    if behavior.output_sizes != game.output_sizes or \
            behavior.input_sizes != game.input_sizes:
        raise GameError(
            f"shape mismatch: behavior {behavior.output_sizes}|"
            f"{behavior.input_sizes} vs game {game.output_sizes}|{game.input_sizes}")
    total = Fraction(0)
    for ins, p_in in game.pi.items():
        if not p_in:
            continue
        for outs in game.outputs():
            if game.predicate[(outs, ins)]:
                total += p_in * behavior.entry(outs, ins)
    return total


def game_value_coefficients(game: Game) -> dict:
    """Sparse coefficients of the game-value functional pi*V."""
    coeffs = {}
    for ins, p_in in game.pi.items():
        if not p_in:
            continue
        for outs in game.outputs():
            if game.predicate[(outs, ins)]:
                coeffs[(outs, ins)] = p_in
    return coeffs


# Correlator terms of the three-setting chained Bell expression: input
# pair -> sign of <A_x B_y> in the combination.
CHAIN_I3_TERMS: dict[tuple[int, int], int] = {
    (0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1, (2, 2): 1, (0, 2): -1,
}


def chain_i3_coefficients() -> dict:
    """Coefficients expressing the chained Bell combination on probabilities."""
    coeffs = {}
    for (x, y), sign in CHAIN_I3_TERMS.items():
        for a in range(2):
            for b in range(2):
                coeffs[((a, b), (x, y))] = Fraction(sign * (-1) ** (a ^ b))
    return coeffs


def chain_expression_value(behavior: Behavior) -> Number:
    """Chained Bell combination of correlators, outcomes mapped a -> (-1)^a."""
    if behavior.input_sizes != (3, 3) or behavior.output_sizes != (2, 2):
        raise GameError("chained expression needs a 3-input 2-output behavior")
    total = Fraction(0)
    for key, c in chain_i3_coefficients().items():
        total += c * behavior.entry(*key)
    return total


def classical_value(game: Game) -> Fraction:
    """Best deterministic-strategy value, by exhaustive enumeration."""
    strategy_spaces = []
    for inp, out in zip(game.input_alphabets, game.output_alphabets):
        strategy_spaces.append(list(
            itertools.product(out.symbols(), repeat=inp.size)))
    best = Fraction(0)
    for strategies in itertools.product(*strategy_spaces):
        value = Fraction(0)
        for ins, p_in in game.pi.items():
            if not p_in:
                continue
            outs = tuple(strategies[k][ins[k]] for k in range(game.parties))
            if game.predicate[(outs, ins)]:
                value += p_in
        if value > best:
            best = value
    return best
