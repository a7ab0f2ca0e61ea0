"""Nonlocal games and behaviors.

Defines finite-alphabet games (input distribution plus 0/1 predicate)
and conditional-probability behaviors with exact rational entries, each
read through one integer form (``Game.integers``: pi and the game-value
functional pi*V; ``Behavior.integers``), and the games used
throughout the package: the complete-support 3-input chained game, CHSH,
tripartite guessing games and the Mermin-Peres magic square, all built
in code (the game files in ``nsrand.data`` are shipped copies, checked
against these builders).  Multi-round strings are flattened with
round-major mixed-radix indexing throughout.  ``ns_index_groups`` is the
one source of no-signalling marginal rows, single-round and
time-ordered, for every LP builder and verifier: flat index arrays into
the behavior tensor, which ``ns_pair_rows`` turns into LP row blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Sequence, Union

import numpy as np

Number = Union[Fraction, float]


class GameError(ValueError):
    """Inconsistent game or behavior data."""


def finite_rational(value, what: str) -> Fraction:
    """``Fraction(value)``; a NaN, an infinity or a malformed string is a
    GameError naming ``what``."""
    try:
        return Fraction(value)
    except (ValueError, OverflowError):
        raise GameError(f"{what} must be a finite rational, not "
                        f"{value!r}") from None


def positive_int(value, what: str) -> int:
    """``value`` as an int; one that is not an integer (``operator.index``)
    or is below 1 is a GameError naming ``what``."""
    try:
        n = operator.index(value)
    except TypeError:  # not an integer: refused below
        n = 0
    if n < 1:
        raise GameError(f"{what} must be an integer of at least 1, not "
                        f"{value!r}")
    return n


def _alphabet_sizes(sizes, what: str) -> tuple[int, ...]:
    """``sizes`` as a tuple of ints, each through ``positive_int`` and
    named as entry i of ``what``."""
    return tuple(positive_int(size, f"alphabet size {what}[{i}]")
                 for i, size in enumerate(sizes))


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet of symbols 0..size-1."""

    size: int

    def __post_init__(self):
        object.__setattr__(self, "size", positive_int(self.size,
                                                      "alphabet size"))

    def symbols(self) -> range:
        return range(self.size)


@dataclass(frozen=True)
class NoisyPRParams:
    """Noise weight of the noisy PR box mixture."""

    v: Fraction

    def __post_init__(self):
        v = finite_rational(self.v, "v")
        object.__setattr__(self, "v", v)
        if not 0 <= v <= 1:
            raise GameError(f"v must lie in [0, 1], got {v}")


@dataclass(frozen=True)
class Game:
    """A 2- or 3-party nonlocal game.

    ``pi`` maps full input tuples to exact rational probabilities and
    ``predicate`` maps (output tuple, input tuple) to 0/1.  Both tables
    are total over their index space, and kept as read-only copies, so
    ``integers`` stays their form.
    """

    parties: int
    input_alphabets: tuple[Alphabet, ...]
    output_alphabets: tuple[Alphabet, ...]
    pi: Mapping[tuple[int, ...], Fraction]
    predicate: Mapping[tuple[tuple[int, ...], tuple[int, ...]], int]
    name: str = ""

    def __post_init__(self):
        if self.parties not in (2, 3):
            raise GameError("only bipartite and tripartite games are supported")
        if len(self.input_alphabets) != self.parties or \
                len(self.output_alphabets) != self.parties:
            raise GameError("alphabet count does not match party count")
        for name in ("pi", "predicate"):
            object.__setattr__(self, name,
                               MappingProxyType(dict(getattr(self, name))))
        self.integers  # validates the tables

    @functools.cached_property
    def integers(self) -> tuple[np.ndarray, np.ndarray, int]:
        """``(W, pi, den)``: the game-value functional pi*V, indexed
        [outputs..., inputs...], and pi, indexed [inputs...], as numerators
        over pi's least common denominator; int64 while each times the
        number of entries fits, else Python ints; read-only.  Read as the
        game is built, so malformed tables raise GameError there."""
        ins = list(self.inputs())
        keys = itertools.product(self.outputs(), ins)
        try:
            p, v = [self.pi[k] for k in ins], [self.predicate[k] for k in keys]
            total = (len(p), len(v)) == (len(self.pi), len(self.predicate))
        except KeyError:
            total = False
        if not total:  # every entry is checked before totality is
            p, v = list(self.pi.values()), list(self.predicate.values())
        try:
            pi, den = integer_table(p, bound=len(p) + len(v))
            mass = Fraction(int(pi.sum()), den)
        except (ValueError, OverflowError):  # a NaN or an inf
            pi, mass = np.zeros(0), sum(self.pi.values(), start=Fraction(0))
        if (pi < 0).any():
            key = next(k for k, q in self.pi.items() if q < 0)
            raise GameError(f"input probability pi[{key}] = {self.pi[key]} < 0")
        if mass != 1:
            raise GameError(f"input distribution must be a probability "
                            f"distribution (sums to {mass})")
        if v.count(0) + v.count(1) != len(v):
            raise GameError("predicate entries must be 0 or 1")
        if not total:
            raise GameError("pi/predicate tables must be total over the "
                            "alphabets")
        pi = pi.reshape(self.input_sizes)
        V = np.fromiter(v, bool, len(v)).reshape(self.output_sizes + pi.shape)
        return locked(V * pi), locked(pi), den

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

    Entries are exact rationals, or floats taken at their exact binary
    values.  For every input tuple the entries sum exactly to 1, or to a
    common subnormalization constant when ``subnormalized`` is set.  The
    table is kept read-only: a copy, or, for a computed behavior (a
    product, a KS attack), a view of ``integers``.
    """

    input_sizes: tuple[int, ...]
    output_sizes: tuple[int, ...]
    table: Mapping[tuple[tuple[int, ...], tuple[int, ...]], Number]
    subnormalized: bool = False

    def __post_init__(self):
        for field in ("input_sizes", "output_sizes"):
            object.__setattr__(self, field,
                               _alphabet_sizes(getattr(self, field), field))
        if isinstance(self.table, _FractionView):
            self.__dict__["integers"] = self.table.form
        else:
            object.__setattr__(self, "table",
                               MappingProxyType(dict(self.table)))

    @property
    def parties(self) -> int:
        return len(self.input_sizes)

    def inputs(self):
        return itertools.product(*(range(s) for s in self.input_sizes))

    def outputs(self):
        return itertools.product(*(range(s) for s in self.output_sizes))

    @functools.cached_property
    def integers(self) -> tuple[np.ndarray, int]:
        """``(P, den)``: numerators over the entries' least common denominator,
        P indexed [outputs..., inputs...]; int64 while every sum of entries
        times the largest output alphabet fits, else Python ints; read-only
        and kept once read.  Keys without one symbol per party or outside
        the alphabets, and non-finite entries, raise GameError."""
        m, chain = self.parties, itertools.chain.from_iterable
        if not (set(map(len, self.table)) <= {2} and
                set(map(len, chain(self.table))) <= {m}):
            bad = [k for k in self.table if tuple(map(len, k)) != (m, m)]
            raise GameError(f"keys without one symbol per party: {bad[:3]}")
        try:
            nums, den = integer_table(self.table.values(), bound=(
                len(self.table) + 1) * max(self.output_sizes))
        except (ValueError, OverflowError):  # Fraction of a NaN or an inf
            raise GameError("behavior entries must be finite") from None
        return locked(dense_table(self.table, (*self.output_sizes,
                                               *self.input_sizes), nums)), den

    def entry(self, outputs: tuple[int, ...], inputs: tuple[int, ...]) -> Number:
        return self.table.get((outputs, inputs), 0)

    def normalization(self, inputs: tuple[int, ...]) -> Number:
        return sum(self.entry(o, inputs) for o in self.outputs())

    def check_valid(self) -> None:
        """Raise unless entries are nonnegative and per-input sums agree
        exactly (equal 1 unless ``subnormalized``), on ``integers``."""
        P, den = self.integers
        sums = P.sum(axis=tuple(range(self.parties))).ravel()
        target = sums[0] if self.subnormalized else den
        if (P < 0).any() or (sums != target).any():
            raise GameError(f"entries must be nonnegative with per-input "
                            f"sums {Fraction(int(target), den)}")


# ---------------------------------------------------------------------------
# round-major mixed-radix string flattening
# ---------------------------------------------------------------------------

def encode_string(digits: Sequence[int], base: int) -> int:
    """Flatten a per-round symbol string; round 1 is most significant."""
    v = 0
    for d in digits:
        v = v * base + d
    return v


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


def ns_index_groups(output_sizes: Sequence[int], input_sizes: Sequence[int],
                    families, rounds: int = 1, time_ordered: bool = False):
    """Groups of marginal sums that no-signalling requires to be equal, as
    flat indices into the behavior tensor of shape (output strings per
    party, input strings per party).

    Sizes are per round and party; strings are round-major.  At level i
    a family sums its parties' outputs after round i, and the sum may not
    depend on their inputs after round i.  Levels are 0..rounds-1 if
    ``time_ordered`` (TONS), else 0 alone.

    Yields ``(family name, summed parties, index)`` per level and family,
    where ``index[g, k]`` holds the keys of group g's k-th entry: one
    entry per input suffix of the summed parties, all-zero suffix first.
    Groups run over the kept parties' output strings then input strings,
    then the summed parties' prefix outputs then prefix inputs.
    """
    n, m = rounds, len(output_sizes)
    sizes = (*output_sizes, *input_sizes)
    for i in (range(n) if time_ordered else (0,)):
        # Tensor axis a split into its first i rounds (axis 2a) and the
        # rest (axis 2a + 1): a string is prefix * size ** (n - i) + suffix.
        split = np.arange(math.prod(sizes) ** n).reshape(
            [d for size in sizes for d in (size ** i, size ** (n - i))])
        for name, summed in families:
            axes = [a for a in range(2 * m) if a % m in summed]
            outs, ins = axes[:len(summed)], axes[len(summed):]
            # Groups run over the kept strings and the summed prefixes,
            # entries over the input suffixes, keys over the output ones.
            order = [2 * a + h for a in range(2 * m) if a % m not in summed
                     for h in (0, 1)] + [2 * a for a in axes] + \
                [2 * a + 1 for a in ins + outs]
            shape = [math.prod(sizes[a] ** (n - i) for a in suffix)
                     for suffix in (ins, outs)]
            yield name, summed, split.transpose(order).reshape(-1, *shape)


def ns_pair_rows(index: np.ndarray, pairs) -> tuple[np.ndarray, np.ndarray]:
    """The rows "entry a's marginal sum minus entry b's" of every group of
    an ``ns_index_groups`` index, group by group and, within a group, one
    per pair (a, b) of ``pairs``: a block ``(keys, coeffs)`` with +1 on
    a's keys, then -1 on b's."""
    a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    keys = index.shape[2]
    return (np.concatenate([index[:, a], index[:, b]], axis=2)
            .reshape(-1, 2 * keys), np.repeat([1, -1], keys))


# ---------------------------------------------------------------------------
# game builders
# ---------------------------------------------------------------------------

def chain_correlated_pairs(m: int) -> dict[tuple[int, int], int]:
    """Constrained input pairs of the m-setting chain: a 2m-cycle with one
    flip.  A pair demands a xor b equal to its target; the other pairs
    always win."""
    pairs = {(x + d, x): 0 for x in range(m) for d in (0, 1) if x + d < m}
    return pairs | {(0, m - 1): 1}


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
    # A pair outside ``correlated`` is won whatever a xor b is.
    predicate = {((a, b), (x, y)): int(a ^ b == correlated.get((x, y), a ^ b))
                 for x, y in pi for a in range(2) for b in range(2)}
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
    predicate = {((a, b, e), (x, y, z)):
                 game.wins((a, b), (x, y)) * guess_predicate(a, e, x, z)
                 for (x, y, z) in pi for a, b, e in itertools.product(
                     aa.symbols(), ba.symbols(), aa.symbols())}
    return Game(3, (ax, bx, ax), (aa, ba, aa), pi, predicate,
                name=(game.name + "-guess") if game.name else "guess")


def magic_square_parity_triples() -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """Output encodings: Alice's even-parity and Bob's odd-parity bit triples."""
    alice = [t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 0]
    bob = [t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 1]
    return alice, bob


def make_magic_square_game() -> Game:
    """Mermin-Peres magic square: Alice fills row x with an even-parity
    triple, Bob column y with an odd-parity one; win iff they agree."""
    alice, bob = magic_square_parity_triples()
    three, four = Alphabet(3), Alphabet(4)
    pi = {(x, y): Fraction(1, 9) for x in range(3) for y in range(3)}
    predicate = {((a, b), (x, y)): int(ta[y] == tb[x])
                 for a, ta in enumerate(alice) for b, tb in enumerate(bob)
                 for x in range(3) for y in range(3)}
    return Game(2, (three, three), (four, four), pi, predicate,
                name="magic-square")


# ---------------------------------------------------------------------------
# behaviors
# ---------------------------------------------------------------------------

def make_pr_v(params: NoisyPRParams) -> Behavior:
    """Noisy PR box: (3+v)/8 on winning CHSH events, (1-v)/8 otherwise."""
    v = params.v
    win, lose = (3 + v) / 8, (1 - v) / 8
    return Behavior((2, 2), (2, 2), {
        ((a, b), (x, y)): win if a ^ b == x & y else lose
        for x, y in itertools.product(range(2), repeat=2)
        for a, b in itertools.product(range(2), repeat=2)})


def uniform_behavior(output_sizes: tuple[int, ...],
                     input_sizes: tuple[int, ...]) -> Behavior:
    output_sizes = _alphabet_sizes(output_sizes, "output_sizes")
    input_sizes = _alphabet_sizes(input_sizes, "input_sizes")
    p = Fraction(1, math.prod(output_sizes))
    return Behavior(input_sizes, output_sizes, {
        (outs, ins): p for ins in itertools.product(*map(range, input_sizes))
        for outs in itertools.product(*map(range, output_sizes))})


def product_behavior(behavior: Behavior, n: int) -> Behavior:
    """n-round product of a bipartite behavior over round-major strings,
    subnormalized if the box is: its numerator products over den^n, handed
    over as its ``integers`` by ``_integer_behavior``."""
    if behavior.parties != 2:
        raise GameError("product_behavior expects a bipartite behavior")
    n = positive_int(n, "round count")
    behavior.check_valid()
    box, den = behavior.integers
    box = narrowed(box, int(box.max()) ** (n - 1))  # products fit int64
    product = functools.reduce(np.multiply.outer, [box] * n)
    # Axes a_1, b_1, x_1, y_1, ..., a_n, b_n, x_n, y_n, reordered to
    # a_1..a_n, b_1..b_n, x_1..x_n, y_1..y_n: the (A, B, X, Y) order.
    sizes = [size ** n for size in box.shape]
    product = product.transpose([4 * i + k for k in range(4)
                                 for i in range(n)]).reshape(sizes)
    return _integer_behavior(product, den ** n, (2, 3, 0, 1),
                             behavior.subnormalized)


def _integer_behavior(nums: np.ndarray, den: int, order: tuple[int, ...],
                      subnormalized: bool = False) -> Behavior:
    """The behavior of numerators ``nums`` over ``den``, indexed
    [outputs..., inputs...]: reduced by their gcd to exactly the
    ``integers`` its table would give, int64 by ``narrowed``'s rule, in a
    read-only table view whose entries run over the axes in ``order``."""
    m = nums.ndim // 2
    g = math.gcd(den, int(np.gcd.reduce(nums, axis=None)))
    nums = narrowed(nums // g, (int(np.count_nonzero(nums)) + 1)
                    * max(nums.shape[:m]))
    return Behavior(nums.shape[m:], nums.shape[:m], _FractionView(
        (locked(nums), den // g), order), subnormalized)


@dataclass(frozen=True, eq=False)
class _FractionView(Mapping):
    """A read-only behavior table over its ``integers`` ``(P, den)``: the
    nonzero entries as ``Fraction``s, running over P's axes in ``order``
    (major first).  A key of in-range ints is looked up in P; the dict
    is built on the first other read."""

    form: tuple[np.ndarray, int]
    order: tuple[int, ...]

    @functools.cached_property
    def _table(self) -> dict:
        return fraction_table(*self.form, self.order)

    def __getitem__(self, key):
        P, den = self.form
        if type(key) is tuple and [type(k) for k in key] == [tuple] * 2 and \
                list(map(len, key)) == [P.ndim // 2] * 2 and all(
                    type(i) is int and 0 <= i < size
                    for i, size in zip(key[0] + key[1], P.shape)):
            q = int(P[key[0] + key[1]])
            if q:
                return Fraction(q, den)
            raise KeyError(key)
        return self._table[key]  # any other key gets the dict's answer

    def __iter__(self):
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)

    def items(self):
        return self._table.items()


def integer_table(values, bound: int = 1) -> tuple[np.ndarray, int]:
    """Exact numbers as integer numerators over their least common
    denominator: ``(numerators, denominator)``.  Entries that are neither
    ``int`` nor ``Fraction`` are taken exactly with ``Fraction``.  The
    numerators are int64 when each of them times ``bound`` (a caller's
    bound on how much sums and products grow them) fits, else Python
    ints in an ``object`` array."""
    ratios = [(p if isinstance(p, (int, Fraction)) else Fraction(p))
              .as_integer_ratio() for p in values]
    den = math.lcm(*{d for _, d in ratios})

    def scaled(dtype):
        return np.fromiter((n * (den // d) for n, d in ratios), dtype,
                           len(ratios))
    try:  # filled from a generator, so that no list of Python ints is built
        return narrowed(scaled(np.int64), bound), den
    except OverflowError:
        return scaled(object), den


def narrowed(nums: np.ndarray, bound: int) -> np.ndarray:
    """Numerators as int64 if each times ``bound`` fits, else Python ints.
    The magnitude is taken as at least 1, so ``narrowed(nums, f) * f``
    never overflows int64, also for an empty or all-zero array."""
    top = max(int(nums.max(initial=0)), -int(nums.min(initial=0)), 1)
    return nums.astype(np.int64 if top * bound < 2 ** 63 else object,
                       copy=False)


def locked(array: np.ndarray) -> np.ndarray:
    """``array``, made read-only."""
    array.setflags(write=False)
    return array


def dense_table(table: dict, shape: tuple, values: np.ndarray) -> np.ndarray:
    """``values``, one per key of ``table`` in its order, as a dense array
    indexed [outputs..., inputs...]; keys outside ``shape`` raise GameError."""
    chain = itertools.chain.from_iterable
    keys = np.fromiter(chain(chain(table)), np.int64).reshape(-1, len(shape))
    outside = ((keys < 0) | (keys >= shape)).any(axis=1)
    if outside.any():
        bad = [k for k, out in zip(table, outside.tolist()) if out]
        raise GameError(f"keys outside the alphabets: {bad[:3]}")
    out = np.zeros(shape, dtype=values.dtype)
    out[tuple(keys.T)] = values
    return out


def is_finite(p) -> bool:
    """False for a NaN or infinite float; exact numbers are finite."""
    return type(p) is int or type(p) is Fraction or math.isfinite(p)


# ---------------------------------------------------------------------------
# linear functionals on behaviors
# ---------------------------------------------------------------------------

def bell_value(behavior: Behavior, game: Game) -> Fraction:
    """Game value sum(pi * V * P) of a behavior, exactly, from both integer
    forms.  Other alphabets than the game's, a malformed behavior key or a
    non-finite entry raise GameError."""
    if (behavior.output_sizes, behavior.input_sizes) != (
            game.output_sizes, game.input_sizes):
        raise GameError(
            f"shape mismatch: behavior {behavior.output_sizes}|"
            f"{behavior.input_sizes} vs game {game.output_sizes}|{game.input_sizes}")
    (W, _, den), (P, p_den) = game.integers, behavior.integers
    # Two int64 numerators can multiply past 2^63: sum in Python ints.
    return Fraction(int((W.astype(object) * P).sum()), den * p_den)


def game_value_coefficients(game: Game) -> dict:
    """Sparse coefficients of the game-value functional pi*V: the nonzero
    entries of ``Game.integers``' W, inputs major."""
    W, _, den = game.integers
    m = game.parties
    return fraction_table(W, den, (*range(m, 2 * m), *range(m)))


def fraction_table(nums: np.ndarray, den: int, order: Sequence[int]) -> dict:
    """The nonzero entries of ``nums``, indexed [outputs..., inputs...],
    over ``den`` as a behavior table, running over its axes in ``order``,
    major first; one ``Fraction`` per distinct numerator."""
    index = np.argwhere(nums.transpose(order))[:, np.argsort(order)]
    values = nums[tuple(index.T)].tolist()
    value = {q: Fraction(q, den) for q in set(values)}
    m = nums.ndim // 2
    return dict(zip([(tuple(i[:m]), tuple(i[m:])) for i in index.tolist()],
                    map(value.get, values)))


# Correlator terms of the three-setting chained Bell expression: input
# pair -> sign of <A_x B_y> in the combination.
CHAIN_I3_TERMS: dict[tuple[int, int], int] = {
    (0, 0): 1, (1, 0): 1, (1, 1): 1, (2, 1): 1, (2, 2): 1, (0, 2): -1,
}


def chain_i3_coefficients() -> dict:
    """Coefficients expressing the chained Bell combination on probabilities."""
    return {((a, b), (x, y)): Fraction(sign * (-1) ** (a ^ b))
            for (x, y), sign in CHAIN_I3_TERMS.items()
            for a in range(2) for b in range(2)}


def chain_expression_value(behavior: Behavior) -> Number:
    """Chained Bell combination of correlators, outcomes mapped a -> (-1)^a."""
    if behavior.input_sizes != (3, 3) or behavior.output_sizes != (2, 2):
        raise GameError("chained expression needs a 3-input 2-output behavior")
    return sum((c * behavior.entry(*key) for key, c in
                chain_i3_coefficients().items()), start=Fraction(0))


def classical_value(game: Game) -> Fraction:
    """Best deterministic-strategy value, by exhaustive enumeration: W
    gathered for every strategy profile at once, one input tuple at a
    time."""
    W, _, den = game.integers
    # Each party's strategies, one row of outputs indexed by its input.
    spaces = [np.array(list(itertools.product(range(out), repeat=inp)))
              for inp, out in zip(game.input_sizes, game.output_sizes)]
    value = sum(W[(*np.ix_(*(s[:, x] for s, x in zip(spaces, ins))), *ins)]
                for ins in game.inputs())
    return Fraction(int(value.max()), den)
