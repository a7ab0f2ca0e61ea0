"""No-signalling attacks on pseudotelepathy games from weak KS sets.

Pipeline: ingest a Kochen-Specker vector set, build its orthogonality
graph, search exhaustively for {0, 1/2, 1} assignments that place weight
1 on a chosen vector, turn assignments into bipartite no-signalling
behaviors winning the associated game, assemble the tripartite behavior
that lets an eavesdropper guess one player's outputs perfectly, and
verify every claimed property in exact arithmetic, over integer
numerators (the no-signalling marginals through ``games.ns_index_groups``).

The bipartite behavior realizes the assignment as both marginals by
solving one small exact transportation problem per input pair, supported
on non-orthogonal outcome pairs.  Construction returns a verification
report rather than a validity guarantee: sets where no such coupling
exists are reported, not repaired.
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

from .games import (Alphabet, Behavior, Game, check_game_shape, dense_table,
                    integer_table, is_finite, ns_families, ns_index_groups)
from .lp import eliminate
from .serialize import json_field, string, whole

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


def inner_product(u: Sequence[ComplexRational],
                  w: Sequence[ComplexRational]) -> ComplexRational:
    """Exact <u|w> with the conjugate on the first argument."""
    re = Fraction(0)
    im = Fraction(0)
    for (a, b), (c, d) in zip(u, w):
        re += a * c + b * d
        im += a * d - b * c
    return (re, im)


def norm_sq(u: Sequence[ComplexRational]) -> Fraction:
    re, _ = inner_product(u, u)
    return re


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
        for i, vec in enumerate(self.vectors):
            if len(vec) != self.dim:
                raise KsError(f"vector {i} has {len(vec)} components")
            if require_unit and abs(norm_sq(vec) - 1) > DEFAULT_NORM_TOL:
                raise KsError(f"vector {i} is not a unit vector "
                              f"(|v|^2 = {float(norm_sq(vec)):.12g})")
        seen = set()
        for k, basis in enumerate(self.bases):
            if len(basis) != self.dim:
                raise KsError(f"basis {k} has {len(basis)} members")
            seen.update(basis)
            for i, j in itertools.combinations(basis, 2):
                ip = inner_product(self.vectors[i], self.vectors[j])
                if not _orthogonal(ip, orth_tol):
                    raise KsError(f"basis {k} is not orthogonal: "
                                  f"vectors {i} and {j}")
        if seen != set(range(len(self.vectors))):
            raise KsError("every vector must appear in at least one basis")
        for side in (self.alice_bases, self.bob_bases):
            for k in side:
                if not 0 <= k < len(self.bases):
                    raise KsError(f"basis index {k} out of range")


def _orthogonal(ip: ComplexRational, tol: float) -> bool:
    re, im = ip
    return re * re + im * im <= Fraction(tol) ** 2


@dataclass
class OrthGraph:
    """Orthogonality graph: one vertex per vector, edges for orthogonal pairs."""

    num_vertices: int
    edges: set[tuple[int, int]]
    bases: list[tuple[int, ...]]
    adjacency: dict[int, set[int]] = field(default_factory=dict)

    def __post_init__(self):
        if not self.adjacency:
            adj: dict[int, set[int]] = {v: set() for v in range(self.num_vertices)}
            for i, j in self.edges:
                adj[i].add(j)
                adj[j].add(i)
            self.adjacency = adj

    def is_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges


def build_orth_graph(ks: KSSet, tol: float = DEFAULT_ORTH_TOL) -> OrthGraph:
    """Edges exactly where |<u|w>| <= tol; all basis cliques verified."""
    if tol < 0:
        raise KsError("tolerance must be nonnegative")
    n = len(ks.vectors)
    edges = set()
    for i in range(n):
        for j in range(i + 1, n):
            if _orthogonal(inner_product(ks.vectors[i], ks.vectors[j]), tol):
                edges.add((i, j))
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
        """Independent re-check, deliberately separate from the search."""
        for v, val in self.values.items():
            if val not in ASSIGNMENT_VALUES:
                raise KsError(f"value {val} at vertex {v} not in {{0, 1/2, 1}}")
        if set(self.values) != set(range(graph.num_vertices)):
            raise KsError("assignment must cover every vertex")
        for k, basis in enumerate(graph.bases):
            total = sum((self.values[v] for v in basis), start=Fraction(0))
            if total != 1:
                raise KsError(f"basis {k} sums to {total}, not 1")
        for i, j in graph.edges:
            if self.values[i] + self.values[j] > 1:
                raise KsError(f"edge ({i}, {j}) violates f(u) + f(w) <= 1")


def _search_assignments(graph: OrthGraph, target: int) -> Iterator[dict]:
    """Exhaustive DFS over {0, 1/2, 1} labelings with f(target) = 1.

    Vertices are processed in basis-major order with lexicographic value
    order; clique sums are unit-propagated.  Exhaustion without a yield
    proves that no valid assignment exists.
    """
    order = []
    seen = set()
    for basis in graph.bases:
        for v in basis:
            if v not in seen:
                seen.add(v)
                order.append(v)
    values: dict[int, Fraction] = {}

    basis_of = {v: [] for v in range(graph.num_vertices)}
    for k, basis in enumerate(graph.bases):
        for v in basis:
            basis_of[v].append(k)

    def consistent(v: int) -> bool:
        val = values[v]
        for w in graph.adjacency[v]:
            if w in values and val + values[w] > 1:
                return False
        for k in basis_of[v]:
            basis = graph.bases[k]
            total = Fraction(0)
            unassigned = 0
            for u in basis:
                if u in values:
                    total += values[u]
                else:
                    unassigned += 1
            if total > 1 or (unassigned == 0 and total != 1):
                return False
            if total + unassigned < 1:
                return False
        return True

    def descend(pos: int) -> Iterator[dict]:
        while pos < len(order) and order[pos] in values:
            pos += 1
        if pos == len(order):
            yield dict(values)
            return
        v = order[pos]
        for val in ASSIGNMENT_VALUES:
            values[v] = val
            if consistent(v):
                yield from descend(pos + 1)
            del values[v]

    values[target] = Fraction(1)
    if consistent(target):
        yield from descend(0)


def find_assignment(graph: OrthGraph, target: int) -> Optional[Assignment]:
    """First valid assignment with value 1 on ``target``, or None (a proof)."""
    if not 0 <= target < graph.num_vertices:
        raise KsError(f"target {target} out of range")
    for values in _search_assignments(graph, target):
        assignment = Assignment(values)
        assignment.validate(graph)
        return assignment
    return None


def enumerate_assignments(graph: OrthGraph, target: int) -> Iterator[Assignment]:
    for values in _search_assignments(graph, target):
        yield Assignment(values)


# ---------------------------------------------------------------------------
# transportation couplings
# ---------------------------------------------------------------------------

def _max_flow_coupling(supply: list[Fraction], demand: list[Fraction],
                       allowed: set[tuple[int, int]]) -> Optional[dict]:
    """Exact transportation plan on allowed arcs, or None if infeasible."""
    scale = math.lcm(*(f.denominator for f in supply + demand))
    src = [int(f * scale) for f in supply]
    snk = [int(f * scale) for f in demand]
    if sum(src) != sum(snk):
        return None
    n_u, n_w = len(supply), len(demand)
    flow = {arc: 0 for arc in allowed}
    # Augmenting paths on the bipartite residual network.
    target_total = sum(src)
    pushed = 0
    src_left = list(src)
    snk_left = list(snk)
    while pushed < target_total:
        # BFS from any unsaturated source.
        parent: dict = {}
        queue = []
        for i in range(n_u):
            if src_left[i] > 0:
                parent[("u", i)] = None
                queue.append(("u", i))
        found = None
        while queue and found is None:
            node = queue.pop(0)
            if node[0] == "u":
                i = node[1]
                for j in range(n_w):
                    if (i, j) in allowed and ("w", j) not in parent:
                        parent[("w", j)] = node
                        if snk_left[j] > 0:
                            found = ("w", j)
                            break
                        queue.append(("w", j))
            else:
                j = node[1]
                for i in range(n_u):
                    if (i, j) in allowed and flow[(i, j)] > 0 \
                            and ("u", i) not in parent:
                        parent[("u", i)] = node
                        queue.append(("u", i))
        if found is None:
            return None
        # Trace back the path and its bottleneck.
        path = []
        node = found
        while parent[node] is not None:
            path.append((parent[node], node))
            node = parent[node]
        path.reverse()
        bottleneck = min(src_left[node[1]], snk_left[found[1]])
        for a, b in path:
            if a[0] == "w":  # backward arc (w -> u) cancels flow
                bottleneck = min(bottleneck, flow[(b[1], a[1])])
        for a, b in path:
            if a[0] == "u":
                flow[(a[1], b[1])] += bottleneck
            else:
                flow[(b[1], a[1])] -= bottleneck
        src_left[node[1]] -= bottleneck
        snk_left[found[1]] -= bottleneck
        pushed += bottleneck
    return {arc: Fraction(f, scale) for arc, f in flow.items() if f}


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
    if graph is None:
        graph = build_orth_graph(ks)
    nx, ny = len(ks.alice_bases), len(ks.bob_bases)
    d = ks.dim
    pi = {(x, y): Fraction(1, nx * ny) for x in range(nx) for y in range(ny)}
    predicate = {}
    for x, bx in enumerate(ks.alice_bases):
        for y, by in enumerate(ks.bob_bases):
            for u in range(d):
                for w in range(d):
                    vu = ks.bases[bx][u]
                    vw = ks.bases[by][w]
                    lose = vu != vw and graph.is_edge(vu, vw)
                    predicate[((u, w), (x, y))] = 0 if lose else 1
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
    up in the verification report.
    """
    if graph is None:
        graph = build_orth_graph(ks)
    assignment.validate(graph)
    game = make_ks_game(ks, graph)
    d = ks.dim
    f = assignment.values
    table = {}
    report = VerificationReport()
    fallback_pairs = []
    for x, bx in enumerate(ks.alice_bases):
        for y, by in enumerate(ks.bob_bases):
            supply = [f[v] for v in ks.bases[bx]]
            demand = [f[v] for v in ks.bases[by]]
            allowed = {(i, j) for i in range(d) for j in range(d)
                       if game.wins((i, j), (x, y))}
            plan = _max_flow_coupling(supply, demand, allowed)
            if plan is None:
                fallback_pairs.append((x, y))
                for i in range(d):
                    for j in range(d):
                        if (i, j) in allowed:
                            table[((i, j), (x, y))] = demand[j]
            else:
                for (i, j), q in plan.items():
                    table[((i, j), (x, y))] = q
    report.record("coupling-exists", not fallback_pairs,
                  f"no marginal-preserving coupling for input pairs "
                  f"{fallback_pairs}" if fallback_pairs else "")
    behavior = Behavior((len(ks.alice_bases), len(ks.bob_bases)), (d, d), table)
    inner = verify_behavior(behavior, game=game)
    report.checks.extend(inner.checks)

    # Marginals must reproduce the assignment on both sides; the detail
    # names the first entry that does not.
    ok = True
    detail = ""
    for y, by in enumerate(ks.bob_bases):
        for x in range(len(ks.alice_bases)):
            for j, vec in enumerate(ks.bases[by]):
                marg = sum((behavior.entry((i, j), (x, y)) for i in range(d)),
                           start=Fraction(0))
                if ok and marg != f[vec]:
                    ok, detail = False, f"bob marginal at w={j}, ({x},{y})"
    for x, bx in enumerate(ks.alice_bases):
        for y in range(len(ks.bob_bases)):
            for i, vec in enumerate(ks.bases[bx]):
                marg = sum((behavior.entry((i, j), (x, y)) for j in range(d)),
                           start=Fraction(0))
                if ok and marg != f[vec]:
                    ok, detail = False, f"alice marginal at u={i}, ({x},{y})"
    report.record("marginals-equal-assignment", ok, detail)
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
        found = None
        for count, cand in enumerate(candidates):
            if count >= ASSIGNMENT_SEARCH_LIMIT:
                break
            if cand.values[target] != 1:
                raise KsAttackError(
                    f"assignment for outcome {e} does not fix its vector to 1",
                    failures=[e])
            behavior, report = bipartite_from_assignment(ks, cand, graph)
            if report.all_passed:
                found = (cand, behavior)
                break
        if found is None:
            failures.append(e)
        else:
            chosen[e], blocks[e] = found
    if failures:
        raise KsAttackError(
            f"no verified attack block for outcomes {failures} "
            f"(searched up to {ASSIGNMENT_SEARCH_LIMIT} assignments each)",
            failures)

    nx, ny = len(ks.alice_bases), len(ks.bob_bases)
    inv_d = Fraction(1, d)
    ab_table: dict = {}
    for key_out in itertools.product(range(d), range(d)):
        for key_in in itertools.product(range(nx), range(ny)):
            total = sum((blocks[e].entry(key_out, key_in) for e in range(d)),
                        start=Fraction(0))
            if total:
                ab_table[(key_out, key_in)] = total * inv_d
    ab_marginal = Behavior((nx, ny), (d, d), ab_table)

    # Entries for z = x_star come from Eve's blocks, all others from the
    # (u, w) marginal; each is scaled by 1/d once and reused across z.
    def scaled(b: Behavior) -> dict:
        return {key: inv_d * p for key, p in b.table.items() if p}

    scaled_blocks = [scaled(blocks[e]) for e in range(d)]
    scaled_ab = scaled(ab_marginal)
    guessed, unguessed = {}, {}
    for x, y, u, w, e in itertools.product(range(nx), range(ny), range(d),
                                           range(d), range(d)):
        key = ((u, w), (x, y))
        if key in scaled_blocks[e]:
            guessed[((u, w, e), (x, y))] = scaled_blocks[e][key]
        if key in scaled_ab:
            unguessed[((u, w, e), (x, y))] = scaled_ab[key]
    table = {(outs, (x, y, z)): p for z in range(nx)
             for (outs, (x, y)), p in
             (guessed if z == x_star else unguessed).items()}
    behavior = Behavior((nx, ny, nx), (d, d, d), table)
    return AttackBehavior(behavior, x_star, chosen, blocks, ab_marginal)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_behavior(behavior, game: Optional[Game] = None) -> VerificationReport:
    """Exhaustive exact property report; never raises on defects.

    Checks nonnegativity, per-input normalization, every no-signalling
    marginal equality, optionally zero mass on the game's losing events,
    and (for attack behaviors) the perfect-guessing condition.  Entries
    are compared exactly over integers (``_integer_checks``); a NaN or
    infinite entry fails the report by name.  A game whose alphabets
    differ from the behavior's raises GameError.
    """
    if isinstance(behavior, AttackBehavior):
        return _verify_attack(behavior, game)
    report = VerificationReport()
    tensor = _integer_checks(behavior, report)
    if tensor is None or game is None:
        return report
    check_game_shape(behavior, game)
    P, den = tensor
    leaked = []
    for ins, p_in in game.pi.items():
        if not p_in:
            continue
        for outs in game.outputs():
            if not game.predicate[(outs, ins)] and behavior.entry(outs, ins):
                leaked.append((outs, ins))
    report.record("zero-mass-on-losing-events", not leaked,
                  f"mass on losing events {leaked[:3]}" if leaked else "")
    # The value is sum(pi * V * P): pi over its own denominator, the
    # winning mass per input over the behavior's.
    wins = dense_table(game.predicate, P.shape,
                       np.fromiter(game.predicate.values(), bool))
    won = np.where(wins, P, 0).sum(axis=tuple(range(behavior.parties)))
    pi, pi_den = integer_table(game.pi.values())
    total = sum(int(q) * int(won[ins]) for ins, q in zip(game.pi, pi))
    value = Fraction(total, pi_den * den)
    report.record("wins-game", value == 1, f"value {value}")
    return report


def _integer_checks(b: Behavior, report: VerificationReport):
    """Record nonnegativity, normalization and the no-signalling checks
    of ``b``.  Returns its entries as integers over one denominator,
    ``(tensor indexed [outputs..., inputs...], denominator)``, or None
    after recording a failing ``finite-entries`` check."""
    bad = [key for key, p in b.table.items() if not is_finite(p)]
    if bad:
        report.record("finite-entries", False,
                      f"non-finite entries at {bad[:3]}")
        return None
    # Every check sums at most all entries, and Eve's marginal is then
    # scaled by the size of her alphabet.
    nums, den = integer_table(b.table.values(), bound=(len(b.table) + 1)
                              * max(b.output_sizes))
    keys = list(b.table)
    neg = [keys[i] for i in np.flatnonzero(nums < 0)[:3]]
    report.record("nonnegativity", not neg,
                  f"negative entries at {neg}" if neg else "")

    parties = b.parties
    shape = (*b.output_sizes, *b.input_sizes)
    P = dense_table(b.table, shape, nums)
    sums = P.sum(axis=tuple(range(parties))).ravel()
    bad_norm = []
    for i in np.flatnonzero(sums != den)[:3]:
        ins = tuple(int(v) for v in np.unravel_index(i, b.input_sizes))
        bad_norm.append((ins, b.normalization(ins)))
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
            outs = np.unravel_index(index[g, 0, 0], shape)[:parties]
            ins = np.unravel_index(index[g, e, 0], shape)[parties:]
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
    """Affine dimension of a family of behaviors (exact rational rank)."""
    if len(attacks) < 2:
        raise KsAttackError("need at least two behaviors")
    base = attacks[0]
    keys = sorted(set().union(*(set(b.table) for b in attacks)))
    return len(eliminate(
        {i: Fraction(other.entry(*k)) - Fraction(base.entry(*k))
         for i, k in enumerate(keys)} for other in attacks[1:]))


# ---------------------------------------------------------------------------
# bundled data
# ---------------------------------------------------------------------------

def ks_from_dict(data: dict, orth_tol: float = DEFAULT_ORTH_TOL) -> KSSet:
    """The KS set of a JSON object; a missing or malformed field raises
    ``InputFormatError`` naming it, an inconsistent set ``KsError``."""
    vectors = json_field(data, "vectors", lambda vs: [
        tuple(map(_to_component, vec)) for vec in vs])
    bases = json_field(data, "bases",
                       lambda bs: [tuple(map(whole, b)) for b in bs])
    alice, bob = (json_field(data, side, lambda bs: list(map(whole, bs)),
                             range(len(bases)))
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
