"""No-signalling attacks on pseudotelepathy games from weak KS sets.

Pipeline: ingest a Kochen-Specker vector set, build its orthogonality
graph, search exhaustively for {0, 1/2, 1} assignments that place weight
1 on a chosen vector, turn assignments into bipartite no-signalling
behaviors winning the associated game, assemble the tripartite behavior
that lets an eavesdropper guess one player's outputs perfectly, and
verify every claimed property exactly on ``games.Behavior.integers``
and ``games.Game.integers`` (the no-signalling marginals through
``games.ns_index_groups``).

The bipartite behavior realizes the assignment as both marginals by
solving one small exact transportation problem per input pair, supported
on non-orthogonal outcome pairs.  Construction returns a verification
report rather than a validity guarantee: sets where no such coupling
exists are reported, not repaired.

The attack is built over integers as well as checked over them: one
exact Gram matrix of the vectors over a common denominator gives
orthogonality, assignments and couplings count half units (0, 1, 2), and
the blocks, their (u, w) marginal and the tripartite behavior are numpy
numerators handed to ``Behavior`` as its ``integers``, whose table
builds ``Fraction`` entries only when read.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Iterator, Optional, Sequence

import numpy as np

from .games import (Alphabet, Behavior, Game, GameError, _integer_behavior,
                    bell_value, integer_table, is_finite, ns_families,
                    ns_index_groups)
from .lp import _echelon
from .serialize import json_field, json_list, string, whole

ComplexRational = tuple[Fraction, Fraction]

ASSIGNMENT_VALUES = (Fraction(0), Fraction(1, 2), Fraction(1))

DEFAULT_ORTH_TOL = 1e-9
DEFAULT_NORM_TOL = 1e-9
# Assignments tried per outcome before an attack gives up on it.
ASSIGNMENT_SEARCH_LIMIT = 20000


class KsError(ValueError):
    """Inconsistent KS-set data."""


class KsAttackError(RuntimeError):
    """The attack construction failed; carries the failing outcomes."""

    def __init__(self, message: str, failures: Optional[list] = None):
        super().__init__(message)
        self.failures = failures or []


def _to_component(value) -> ComplexRational:
    if isinstance(value, (list, tuple)):
        re, im = value
    else:
        re, im = value, 0
    return (Fraction(re), Fraction(im))


@dataclass
class KSSet:
    """Weak Kochen-Specker set: unit vectors with basis structure.

    ``bases`` lists index d-tuples; ``alice_bases``/``bob_bases`` pick the
    measurement contexts of the two players (identical lists give the
    augmented game where both players measure every basis).
    """

    dim: int
    vectors: list[tuple[ComplexRational, ...]]
    bases: list[tuple[int, ...]]
    alice_bases: list[int]
    bob_bases: list[int]
    name: str = ""

    def validate(self, orth_tol: float = DEFAULT_ORTH_TOL,
                 require_unit: bool = True) -> None:
        if self.dim < 3:
            raise KsError(f"dimension must be >= 3, got {self.dim}")
        n = len(self.vectors)
        short = next((i for i, vec in enumerate(self.vectors)
                      if len(vec) != self.dim), n)
        norms, orth, den2 = _gram(self.vectors[:short], self.dim, orth_tol)
        tol = Fraction(DEFAULT_NORM_TOL)
        off = abs(norms - den2) * tol.denominator > tol.numerator * den2
        if require_unit and off.any():
            i = int(np.argmax(off))
            raise KsError(f"vector {i} is not a unit vector (|v|^2 = "
                          f"{float(Fraction(norms[i], den2)):.12g})")
        if short < n:
            raise KsError(f"vector {short} has "
                          f"{len(self.vectors[short])} components")
        seen = set()
        for k, basis in enumerate(self.bases):
            if len(basis) != self.dim:
                raise KsError(f"basis {k} has {len(basis)} members")
            for v in basis:
                if not 0 <= v < n:
                    raise KsError(f"basis {k} names vector {v}, not one of "
                                  f"0..{n - 1}")
            seen.update(basis)
            for i, j in itertools.combinations(basis, 2):
                if not orth[i, j]:
                    raise KsError(f"basis {k} is not orthogonal: "
                                  f"vectors {i} and {j}")
        if seen != set(range(n)):
            raise KsError("every vector must appear in at least one basis")
        _check_sides(self)


def _check_sides(ks: KSSet) -> None:
    """KsError unless each player names one or more of the set's bases."""
    for name in ("alice_bases", "bob_bases"):
        side = getattr(ks, name)
        if not side:
            raise KsError(f"{name} must name at least one basis")
        for k in side:
            if not 0 <= k < len(ks.bases):
                raise KsError(f"basis index {k} out of range")


def _gram(vectors, dim: int, tol: float):
    """Squared norms of ``vectors`` over ``den2``, and which pairs are
    orthogonal (|<u|w>| <= tol), exactly: ``(norms, orth, den2)``.  The
    components go over one denominator, so that the Gram matrix
    <u|w> = (R R^T + I I^T) + i (R I^T - I R^T) is one over ``den2``.  A
    negative or non-finite ``tol`` raises KsError."""
    if not 0 <= tol < math.inf:  # a NaN fails both
        raise KsError("tolerance must be nonnegative" if tol < 0 else
                      f"tolerance must be finite, got {tol}")
    nums, den = integer_table(itertools.chain.from_iterable(
        itertools.chain.from_iterable(vectors)))
    R, I = nums.astype(object).reshape(len(vectors), dim, 2).transpose(2, 0, 1)
    re, im = R @ R.T + I @ I.T, R @ I.T - I @ R.T
    t, den2 = Fraction(tol), den * den
    orth = (re * re + im * im) * t.denominator ** 2 <= (t.numerator * den2) ** 2
    return re.diagonal(), orth, den2


@dataclass
class OrthGraph:
    """Orthogonality graph of a set; ``orth`` is its symmetric edge matrix."""

    num_vertices: int
    edges: set[tuple[int, int]]
    bases: list[tuple[int, ...]]
    orth: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        i, j = ends = np.array(list(self.edges), np.intp).reshape(-1, 2).T
        if ((ends < 0) | (ends >= self.num_vertices)).any():
            raise KsError("edge endpoint out of range")
        self.orth = np.zeros((self.num_vertices,) * 2, bool)
        self.orth[i, j] = self.orth[j, i] = True

    def is_edge(self, i: int, j: int) -> bool:
        n = self.num_vertices
        return 0 <= min(i, j) and max(i, j) < n and bool(self.orth[i, j])


def build_orth_graph(ks: KSSet, tol: float = DEFAULT_ORTH_TOL) -> OrthGraph:
    """Edges exactly where |<u|w>| <= tol; all basis cliques verified."""
    n = len(ks.vectors)
    orth = _gram(ks.vectors, ks.dim, tol)[1]
    edges = set(map(tuple, np.argwhere(np.triu(orth, 1)).tolist()))
    graph = OrthGraph(n, edges, [tuple(b) for b in ks.bases])
    for k, basis in enumerate(graph.bases):
        for i, j in itertools.combinations(basis, 2):
            if not graph.is_edge(i, j):
                raise KsError(f"basis {k} is not a clique: pair ({i}, {j})")
    return graph


@dataclass
class Assignment:
    """Map from vectors to {0, 1/2, 1} respecting cliques and edges."""

    values: dict[int, Fraction]

    def validate(self, graph: OrthGraph) -> None:
        """Independent re-check, deliberately separate from the search;
        sums are taken exactly in half units (0, 1, 2)."""
        half = {}
        for v, val in self.values.items():
            if val not in ASSIGNMENT_VALUES:
                raise KsError(f"value {val} at vertex {v} not in {{0, 1/2, 1}}")
            half[v] = ASSIGNMENT_VALUES.index(val)
        if set(half) != set(range(graph.num_vertices)):
            raise KsError("assignment must cover every vertex")
        for k, basis in enumerate(graph.bases):
            total = sum(half[v] for v in basis)
            if total != 2:
                raise KsError(f"basis {k} sums to {Fraction(total, 2)}, "
                              f"not 1")
        for i, j in graph.edges:
            if half[i] + half[j] > 2:
                raise KsError(f"edge ({i}, {j}) violates f(u) + f(w) <= 1")


def enumerate_assignments(graph: OrthGraph, target: int) -> Iterator[Assignment]:
    """Every valid assignment with value 1 on ``target``, in search order:
    an exhaustive DFS over {0, 1/2, 1} labelings.

    Vertices are processed in basis-major order with lexicographic value
    order; clique sums are unit-propagated.  Values are counted in half
    units (0, 1, 2) and given to each ``Assignment`` as
    ``ASSIGNMENT_VALUES``.  Exhaustion
    without a yield proves that no valid assignment exists.
    """
    if not 0 <= target < graph.num_vertices:
        raise KsError(f"target {target} out of range")
    order = list(dict.fromkeys(itertools.chain.from_iterable(graph.bases)))
    neighbours = [np.flatnonzero(row).tolist() for row in graph.orth]
    basis_of = [[k for k, basis in enumerate(graph.bases) if v in basis]
                for v in range(graph.num_vertices)]
    values: dict[int, int] = {}

    def consistent(v: int) -> bool:
        val = values[v]
        if any(val + values.get(w, 0) > 2 for w in neighbours[v]):
            return False
        for k in basis_of[v]:
            known = [values[u] for u in graph.bases[k] if u in values]
            total = sum(known)
            if total > 2 or total + 2 * (len(graph.bases[k]) - len(known)) < 2:
                return False
        return True

    def descend(pos: int) -> Iterator[Assignment]:
        while pos < len(order) and order[pos] in values:
            pos += 1
        if pos == len(order):
            yield Assignment({v: ASSIGNMENT_VALUES[h]
                              for v, h in values.items()})
            return
        v = order[pos]
        for val in range(3):
            values[v] = val
            if consistent(v):
                yield from descend(pos + 1)
            del values[v]

    values[target] = 2
    if consistent(target):
        yield from descend(0)


def find_assignment(graph: OrthGraph, target: int) -> Optional[Assignment]:
    """First valid assignment with value 1 on ``target``, or None (a proof)."""
    assignment = next(enumerate_assignments(graph, target), None)
    if assignment is not None:
        assignment.validate(graph)
    return assignment


# ---------------------------------------------------------------------------
# transportation couplings
# ---------------------------------------------------------------------------

def _max_flow_coupling(supply: Sequence[int], demand: Sequence[int],
                       allowed: np.ndarray) -> Optional[np.ndarray]:
    """Integer transportation plan, indexed [supply, demand], on the
    ``allowed`` arcs, or None if infeasible.

    Breadth-first augmenting paths on one residual matrix over the nodes
    source, supplies, demands, sink (in that order).  An allowed arc has
    room for more than the total, so that only the supplies, the demands
    and the flow a path cancels limit it.
    """
    left = sum(supply)
    if left != sum(demand):
        return None
    n_u, n_w = len(supply), len(demand)
    sink = n_u + n_w + 1
    cap = [[0] * (sink + 1) for _ in range(sink + 1)]
    cap[0][1:n_u + 1] = supply
    for i, row in enumerate(allowed.tolist()):
        cap[i + 1][n_u + 1:sink] = [left + 1 if a else 0 for a in row]
    for j, q in enumerate(demand):
        cap[n_u + 1 + j][sink] = q
    nodes = range(sink + 1)
    while left:
        parent = [-1] * (sink + 1)
        parent[0] = 0
        queue = [0]
        for a in queue:
            room = cap[a]
            for b in nodes:
                if room[b] and parent[b] < 0:
                    parent[b] = a
                    queue.append(b)
            if parent[sink] >= 0:
                break
        else:
            return None
        path = [sink]
        while path[-1]:
            path.append(parent[path[-1]])
        arcs = list(zip(path[1:], path))
        push = min(cap[a][b] for a, b in arcs)
        for a, b in arcs:
            cap[a][b] -= push
            cap[b][a] += push
        left -= push
    return np.array([row[1:n_u + 1] for row in cap[n_u + 1:sink]],
                    dtype=np.int64).T.reshape(n_u, n_w)


# ---------------------------------------------------------------------------
# behaviors from assignments
# ---------------------------------------------------------------------------

@dataclass
class PropertyCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class VerificationReport:
    checks: list[PropertyCheck] = field(default_factory=list)

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(PropertyCheck(name, bool(passed), detail))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[PropertyCheck]:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        return "\n".join(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}"
                         + (f": {c.detail}" if c.detail else "")
                         for c in self.checks)


def make_ks_game(ks: KSSet, graph: Optional[OrthGraph] = None) -> Game:
    """Pseudotelepathy game of the set: distinct orthogonal outputs lose."""
    _check_sides(ks)
    if graph is None:
        graph = build_orth_graph(ks)
    nx, ny, d = len(ks.alice_bases), len(ks.bob_bases), ks.dim
    pi = dict.fromkeys(itertools.product(range(nx), range(ny)),
                       Fraction(1, nx * ny))
    # Vector numbers indexed [x, y, u, w]; keys in that order.
    vu = np.reshape([ks.bases[b] for b in ks.alice_bases], (nx, 1, d, 1))
    vw = np.reshape([ks.bases[b] for b in ks.bob_bases], (1, ny, 1, d))
    wins = ((vu == vw) | ~graph.orth[vu, vw]).astype(int).ravel().tolist()
    outs = list(itertools.product(range(d), repeat=2))
    predicate = dict(zip([(o, i) for i in pi for o in outs], wins))
    return Game(2, (Alphabet(nx), Alphabet(ny)), (Alphabet(d), Alphabet(d)),
                pi, predicate, name=(ks.name + "-game") if ks.name else "ks-game")


def bipartite_from_assignment(ks: KSSet, assignment: Assignment,
                              graph: Optional[OrthGraph] = None,
                              ) -> tuple[Behavior, VerificationReport]:
    """Bipartite no-signalling behavior with both marginals equal to f.

    For every input pair a transportation plan couples the two basis
    marginals on the winning outcome pairs of the set's game, which
    forces zero mass on every losing pair.  Where no plan exists the
    block falls back to f(w) on every winning pair and the defect shows
    up in the verification report.  The block is built in half units,
    indexed [u, w, x, y].
    """
    if graph is None:
        graph = build_orth_graph(ks)
    assignment.validate(graph)
    game = make_ks_game(ks, graph)
    d, nx, ny = ks.dim, len(ks.alice_bases), len(ks.bob_bases)
    half = {v: ASSIGNMENT_VALUES.index(val)
            for v, val in assignment.values.items()}
    alice, bob = (np.array([[half[v] for v in ks.bases[b]] for b in side],
                           np.int64).reshape(-1, d)
                  for side in (ks.alice_bases, ks.bob_bases))
    wins = game.integers[0] != 0  # pi is uniform: W is V
    block = np.zeros((d, d, nx, ny), np.int64)
    report = VerificationReport()
    fallback_pairs = []
    for x, y in itertools.product(range(nx), range(ny)):
        plan = _max_flow_coupling(alice[x].tolist(), bob[y].tolist(),
                                  wins[:, :, x, y])
        if plan is None:
            fallback_pairs.append((x, y))
            plan = wins[:, :, x, y] * bob[y]
        block[:, :, x, y] = plan
    report.record("coupling-exists", not fallback_pairs,
                  f"no marginal-preserving coupling for input pairs "
                  f"{fallback_pairs}" if fallback_pairs else "")
    behavior = _integer_behavior(block, 2, (2, 3, 0, 1))
    inner = verify_behavior(behavior, game=game)
    report.checks.extend(inner.checks)

    # Marginals must reproduce the assignment on both sides; the detail
    # names the first entry that does not, Bob's in (y, x, w) order, then
    # Alice's in (x, y, u) order.
    bob_miss = np.argwhere((block.sum(axis=0) != bob.T[:, None, :])
                           .transpose(2, 1, 0))
    alice_miss = np.argwhere((block.sum(axis=1) != alice.T[:, :, None])
                             .transpose(1, 2, 0))
    detail = ""
    if len(bob_miss):
        y, x, j = bob_miss[0].tolist()
        detail = f"bob marginal at w={j}, ({x},{y})"
    elif len(alice_miss):
        x, y, i = alice_miss[0].tolist()
        detail = f"alice marginal at u={i}, ({x},{y})"
    report.record("marginals-equal-assignment", not detail, detail)
    return behavior, report


@dataclass
class AttackBehavior:
    """Tripartite no-signalling attack for one distinguished input."""

    behavior: Behavior                      # P(u, w, e | x, y, z)
    x_star: int
    assignments: dict[int, Assignment]      # outcome e -> assignment f_e
    blocks: dict[int, Behavior]             # outcome e -> bipartite block
    ab_marginal: Behavior


def tripartite_attack(ks: KSSet, x_star: int,
                      assignments: Optional[dict[int, Assignment]] = None,
                      graph: Optional[OrthGraph] = None) -> AttackBehavior:
    """Attack letting Eve guess Alice's output for input ``x_star`` perfectly.

    With ``assignments`` omitted, the per-outcome assignments are searched
    exhaustively among valid ones (value 1 on the outcome's vector) until
    each bipartite block passes full verification.  ``graph`` is the
    set's orthogonality graph, built at the default tolerance when
    omitted.  Raises KsAttackError listing the outcomes for which no
    working assignment exists.
    """
    if graph is None:
        graph = build_orth_graph(ks)
    if not 0 <= x_star < len(ks.alice_bases):
        raise KsError(f"x_star {x_star} is not an Alice basis index")
    d = ks.dim
    star_vectors = ks.bases[ks.alice_bases[x_star]]

    blocks: dict[int, Behavior] = {}
    chosen: dict[int, Assignment] = {}
    failures = []
    for e in range(d):
        target = star_vectors[e]
        if assignments is not None:
            if e not in assignments:
                raise KsAttackError(f"missing assignment for outcome {e}",
                                    failures=[e])
            candidates: Iterator[Assignment] = iter([assignments[e]])
        else:
            candidates = enumerate_assignments(graph, target)
        for cand in itertools.islice(candidates, ASSIGNMENT_SEARCH_LIMIT):
            if cand.values[target] != 1:
                raise KsAttackError(
                    f"assignment for outcome {e} does not fix its vector to 1",
                    failures=[e])
            behavior, report = bipartite_from_assignment(ks, cand, graph)
            if report.all_passed:
                chosen[e], blocks[e] = cand, behavior
                break
        else:
            failures.append(e)
    if failures:
        raise KsAttackError(
            f"no verified attack block for outcomes {failures} "
            f"(searched up to {ASSIGNMENT_SEARCH_LIMIT} assignments each)",
            failures)

    # Eve's blocks over one denominator, stacked [e, u, w, x, y]; the
    # (u, w) marginal is their mean.  Half units: the denominator is 1 or 2.
    nx, ny = len(ks.alice_bases), len(ks.bob_bases)
    forms = [blocks[e].integers for e in range(d)]
    den = math.lcm(*(q for _, q in forms))
    stack = np.stack([nums * (den // q) for nums, q in forms])
    ab = stack.sum(axis=0)
    ab_marginal = _integer_behavior(ab, d * den, (0, 1, 2, 3))

    # P(u, w, e | x, y, z) over d * d * den, indexed [u, w, e, x, y, z]:
    # Eve's block e times d at z = x_star, the (u, w) marginal elsewhere;
    # its table runs z-major, then over x, y, u, w, e.
    P = np.empty((d, d, d, nx, ny, nx), stack.dtype)
    P[:] = ab[:, :, None, :, :, None]
    P[..., x_star] = stack.transpose(1, 2, 0, 3, 4) * d
    behavior = _integer_behavior(P, d * d * den, (5, 3, 4, 0, 1, 2))
    return AttackBehavior(behavior, x_star, chosen, blocks, ab_marginal)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_behavior(behavior, game: Optional[Game] = None) -> VerificationReport:
    """Exhaustive exact property report; never raises on defects.

    Checks nonnegativity, per-input normalization, every no-signalling
    marginal equality, optionally zero mass on the game's losing events, and
    (for attack behaviors) the perfect-guessing condition, exactly on
    ``Behavior.integers``.  A NaN or infinite entry, or a key without one
    symbol per party, fails the report by name.  A game whose alphabets
    differ from the behavior's raises GameError.
    """
    if isinstance(behavior, AttackBehavior):
        return _verify_attack(behavior, game)
    report = VerificationReport()
    tensor = _integer_checks(behavior, report)
    if tensor is None or game is None:
        return report
    value = bell_value(behavior, game)
    (W, pi, _), (P, _), m = game.integers, tensor, behavior.parties
    lost = ((W == 0) & (P != 0) & (pi != 0)).transpose(*range(m, 2 * m),
                                                       *range(m))
    leaked = [(tuple(i[m:]), tuple(i[:m])) for i in np.argwhere(lost).tolist()]
    report.record("zero-mass-on-losing-events", not leaked,
                  f"mass on losing events {leaked[:3]}" if leaked else "")
    report.record("wins-game", value == 1, f"value {value}")
    return report


def _integer_checks(b: Behavior, report: VerificationReport):
    """Record nonnegativity, normalization and the no-signalling checks
    of ``b``.  Returns its ``integers``, or None after recording a
    failing ``finite-entries`` or ``well-formed-keys`` check: the table
    is scanned only when ``integers`` refuses it."""
    try:
        P, den = b.integers
    except GameError as error:
        bad = [key for key, p in b.table.items() if not is_finite(p)]
        if bad:
            report.record("finite-entries", False,
                          f"non-finite entries at {bad[:3]}")
        else:
            report.record("well-formed-keys", False, str(error))
        return None
    # The first negative entries, in the table's order.
    negative = set(map(tuple, np.argwhere(P < 0).tolist()))
    neg = [key for key in b.table
           if (*key[0], *key[1]) in negative][:3] if negative else []
    report.record("nonnegativity", not neg,
                  f"negative entries at {neg}" if neg else "")

    parties = b.parties
    off = np.argwhere(P.sum(axis=tuple(range(parties))) != den)[:3]
    bad_norm = [(ins, b.normalization(ins))
                for ins in map(tuple, off.tolist())]
    report.record("normalization", not bad_norm,
                  f"per-input sums off at {bad_norm}" if bad_norm else "")

    # Per family, the first marginal sum off its reference, reported as
    # (kept outputs, kept inputs, summed parties' inputs).
    flat = P.ravel()
    families = ns_families(parties)
    for name, summed, index in ns_index_groups(b.output_sizes,
                                               b.input_sizes, families):
        sums = flat[index].sum(axis=2)
        off = sums != sums[:, :1]
        detail = ""
        if off.any():
            g = int(np.argmax(off.any(axis=1)))
            e = int(np.argmax(off[g]))
            outs = np.unravel_index(index[g, 0, 0], P.shape)[:parties]
            ins = np.unravel_index(index[g, e, 0], P.shape)[parties:]
            detail = "first violation at " + str((
                tuple(int(o) for p, o in enumerate(outs) if p not in summed),
                tuple(int(v) for p, v in enumerate(ins) if p not in summed),
                tuple(int(ins[p]) for p in summed)))
        report.record("ns-" + name.replace("|", "-indep-"), not detail,
                      detail)
    return P, den


def _verify_attack(attack: AttackBehavior,
                   game: Optional[Game] = None) -> VerificationReport:
    b = attack.behavior
    report = VerificationReport()
    tensor = _integer_checks(b, report)
    if tensor is None:
        return report
    P, den = tensor
    nx, ny, nz = b.input_sizes
    d = b.output_sizes[2]

    # Eve's marginal, indexed [z, x, y, e]: the first entry off 1/d.
    eve = P.sum(axis=(0, 1)).transpose(3, 1, 2, 0)
    off = np.flatnonzero(eve.ravel() * d != den)
    detail = ""
    if len(off):
        z, x, y, e = (int(i) for i in np.unravel_index(off[0], eve.shape))
        detail = f"P(e={e}|{x},{y},{z}) = {Fraction(int(eve[z, x, y, e]), den)}"
    report.record("eve-marginal-uniform", not detail, detail)

    # P(u = e | x_star, y, x_star), indexed [y]: the first one off 1.
    diag, xs = np.arange(d), attack.x_star
    hit = P[diag, :, diag, xs, :, xs].sum(axis=(0, 1))
    off = np.flatnonzero(hit != den)
    detail = f"guess probability {Fraction(int(hit[off[0]]), den)} " \
        f"at y={int(off[0])}" if len(off) else ""
    report.record("perfect-guessing-at-zstar", not detail, detail)

    if game is not None:
        sub = verify_behavior(attack.ab_marginal, game)
        for check in sub.checks:
            report.record("ab-" + check.name, check.passed, check.detail)
    return report


def attack_affine_dimension(attacks: Sequence[Behavior]) -> int:
    """Affine dimension of a family of behaviors of one shape (exact rank)."""
    if len(attacks) < 2:
        raise KsAttackError("need at least two behaviors")
    shapes = {(b.output_sizes, b.input_sizes) for b in attacks}
    if len(shapes) > 1:
        raise KsAttackError(f"behaviors of different shapes: {sorted(shapes)}")
    forms = [b.integers for b in attacks]
    den = math.lcm(*(q for _, q in forms))
    rows = np.stack([P.astype(object).ravel() * (den // q) for P, q in forms])
    return len(_echelon([{j: c for j, c in enumerate(row) if c}
                         for row in (rows[1:] - rows[0]).tolist()]))


# ---------------------------------------------------------------------------
# bundled data
# ---------------------------------------------------------------------------

def ks_from_dict(data: dict, orth_tol: float = DEFAULT_ORTH_TOL) -> KSSet:
    """The KS set of a JSON object; a missing or malformed field raises
    ``InputFormatError`` naming it, an inconsistent set ``KsError``."""
    vectors = json_field(data, "vectors", lambda vs: [
        tuple(map(_to_component, json_list(vec))) for vec in json_list(vs)])
    bases = json_field(data, "bases", lambda bs: [
        tuple(map(whole, json_list(b))) for b in json_list(bs)])
    alice, bob = (json_field(data, side,
                             lambda bs: list(map(whole, json_list(bs))),
                             list(range(len(bases))))
                  for side in ("alice_bases", "bob_bases"))
    ks = KSSet(json_field(data, "dim", whole), vectors, bases, alice, bob,
               name=json_field(data, "name", string, ""))
    ks.validate(orth_tol=orth_tol)
    return ks


def load_bundled_ks(name: str, orth_tol: float = DEFAULT_ORTH_TOL) -> KSSet:
    """Load one of the bundled sets: cabello18, peres24, single_basis."""
    path = resources.files("nsrand.data").joinpath(f"{name}.json")
    data = json.loads(path.read_text())
    return ks_from_dict(data, orth_tol=orth_tol)
