"""Tests for the Kochen-Specker attack pipeline."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsrand import games as G
from nsrand import ksattack as K

from conftest import oracle_groups
from test_lp import eliminate


def with_base_split(ks, alice_bases, bob_bases):
    """Project the augmented set onto a specific measurement split."""
    restricted = K.KSSet(ks.dim, list(ks.vectors), list(ks.bases),
                         list(alice_bases), list(bob_bases), name=ks.name)
    restricted.validate()
    return restricted


@pytest.fixture(scope="module")
def cabello():
    return K.load_bundled_ks("cabello18")


@pytest.fixture(scope="module")
def cabello_graph(cabello):
    return K.build_orth_graph(cabello)


@pytest.fixture(scope="module")
def single_basis():
    return K.load_bundled_ks("single_basis")


class TestOrthGraph:
    def test_single_basis_is_triangle(self, single_basis):
        graph = K.build_orth_graph(single_basis)
        assert graph.edges == {(0, 1), (0, 2), (1, 2)}

    def test_cabello_cliques_and_recount(self, cabello, cabello_graph):
        """Edge set matches an independent double-loop float recount."""
        assert len(cabello.bases) == 9
        recount = set()
        for i in range(18):
            for j in range(i + 1, 18):
                ip = sum(float(re) * float(re2) + float(im) * float(im2)
                         for (re, im), (re2, im2) in
                         zip(cabello.vectors[i], cabello.vectors[j]))
                if abs(ip) <= 1e-9:
                    recount.add((i, j))
        assert cabello_graph.edges == recount
        for basis in cabello.bases:
            for i, j in itertools.combinations(basis, 2):
                assert cabello_graph.is_edge(i, j)

    def test_zero_tolerance_identical(self, cabello, cabello_graph):
        """Exact rational data needs no tolerance at all."""
        assert K.build_orth_graph(cabello, tol=0.0).edges == cabello_graph.edges

    def test_non_clique_basis_rejected(self):
        one = (F(1), F(0))
        zero = (F(0), F(0))
        ks = K.KSSet(3, [(one, zero, zero), (zero, one, zero),
                         (one, one, zero)],
                     [(0, 1, 2)], [0], [0])
        with pytest.raises(K.KsError, match="orthogonal"):
            ks.validate(require_unit=False)
        with pytest.raises(K.KsError, match="unit"):
            ks.validate()


class TestAssignments:
    def test_single_basis_forced(self, single_basis):
        graph = K.build_orth_graph(single_basis)
        assignment = K.find_assignment(graph, 0)
        assert assignment.values == {0: F(1), 1: F(0), 2: F(0)}

    def test_cabello_every_target(self, cabello_graph):
        """A valid assignment exists for each of the 18 vectors."""
        for target in range(18):
            assignment = K.find_assignment(cabello_graph, target)
            assert assignment is not None
            assignment.validate(cabello_graph)
            assert assignment.values[target] == 1

    def test_gadget_without_assignment(self):
        """Forcing 1 next to a fully-blocked second basis proves absence."""
        edges = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                 (0, 3), (0, 4), (0, 5)}
        graph = K.OrthGraph(6, edges, [(0, 1, 2), (3, 4, 5)])
        assert K.find_assignment(graph, 0) is None

    def test_independent_validator_rejects_bad_sum(self, cabello_graph):
        values = {v: F(0) for v in range(18)}
        with pytest.raises(K.KsError, match="sums to"):
            K.Assignment(values).validate(cabello_graph)

    @pytest.mark.parametrize("values, message", [
        ({0: F(1), 1: F(1, 3), 2: F(0), 3: F(1), 4: F(0), 5: F(0)},
         "value 1/3 at vertex 1 not in {0, 1/2, 1}"),
        ({0: F(1), 1: F(0), 2: F(0), 3: F(1), 4: F(0)},
         "assignment must cover every vertex"),
        ({0: F(1, 2), 1: F(1), 2: F(0), 3: F(1), 4: F(0), 5: F(0)},
         "basis 0 sums to 3/2, not 1"),
        ({0: F(1), 1: F(0), 2: F(0), 3: F(0), 4: F(0), 5: F(0)},
         "basis 1 sums to 0, not 1"),
        ({0: F(1), 1: F(0), 2: F(0), 3: F(1), 4: F(0), 5: F(0)},
         "edge (0, 3) violates f(u) + f(w) <= 1")],
        ids=["value", "cover", "basis-over", "basis-under", "edge"])
    def test_independent_validator_names_each_failure(self, values, message):
        """Two bases joined by one edge; each check's message, exactly."""
        edges = {(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)}
        graph = K.OrthGraph(6, edges, [(0, 1, 2), (3, 4, 5)])
        with pytest.raises(K.KsError) as err:
            K.Assignment(values).validate(graph)
        assert str(err.value) == message


class TestBipartiteConstruction:
    def test_cabello_block_properties(self, cabello, cabello_graph):
        assignment = K.find_assignment(cabello_graph, 0)
        behavior, report = K.bipartite_from_assignment(cabello, assignment,
                                                       cabello_graph)
        assert report.all_passed, report.summary()
        d = cabello.dim
        f = assignment.values
        # Zero mass on orthogonal pairs.
        for x, bx in enumerate(cabello.alice_bases):
            for y, by in enumerate(cabello.bob_bases):
                for u in range(d):
                    for w in range(d):
                        vu, vw = cabello.bases[bx][u], cabello.bases[by][w]
                        if vu != vw and cabello_graph.is_edge(vu, vw):
                            assert behavior.entry((u, w), (x, y)) == 0
        # Bob marginal is the assignment for every y, and Alice's at y = x.
        for y, by in enumerate(cabello.bob_bases):
            for w in range(d):
                assert sum(behavior.entry((u, w), (0, y))
                           for u in range(d)) == f[cabello.bases[by][w]]
        for x, bx in enumerate(cabello.alice_bases):
            for u in range(d):
                assert sum(behavior.entry((u, w), (x, x))
                           for w in range(d)) == f[cabello.bases[bx][u]]


class TestTripartiteAttack:
    def test_single_basis_attack(self, single_basis):
        attack = K.tripartite_attack(single_basis, 0)
        report = K.verify_behavior(attack, game=K.make_ks_game(single_basis))
        assert report.all_passed, report.summary()

    def test_cabello_attack_full_verifier(self, cabello):
        attack = K.tripartite_attack(cabello, 0)
        report = K.verify_behavior(attack, game=K.make_ks_game(cabello))
        assert report.all_passed, report.summary()

    def test_cabello_guessing_and_eve_marginal(self, cabello):
        attack = K.tripartite_attack(cabello, 2)
        b = attack.behavior
        d = cabello.dim
        for y in range(len(cabello.bob_bases)):
            assert sum(b.entry((e, w, e), (2, y, 2))
                       for e in range(d) for w in range(d)) == 1
        assert sum(b.entry((u, w, 0), (0, 0, 1))
                   for u in range(d) for w in range(d)) == F(1, d)

    def test_table_entries_follow_the_construction(self, cabello):
        """P(u, w, e | x, y, z) is Eve's block e over d at z = x_star and
        the (u, w) marginal over d elsewhere; zero entries are left out."""
        attack = K.tripartite_attack(cabello, 2)
        d = cabello.dim
        nx, ny = len(cabello.alice_bases), len(cabello.bob_bases)
        expected = {}
        for z, x, y, u, w, e in itertools.product(
                range(nx), range(nx), range(ny), range(d), range(d),
                range(d)):
            source = attack.blocks[e] if z == 2 else attack.ab_marginal
            p = source.entry((u, w), (x, y)) / d
            if p:
                expected[((u, w, e), (x, y, z))] = p
        assert list(attack.behavior.table.items()) == list(expected.items())

    def test_missing_assignment_rejected(self, single_basis):
        with pytest.raises(K.KsAttackError, match="missing"):
            K.tripartite_attack(single_basis, 0, assignments={})

    def test_ab_marginal_wins_game(self, cabello):
        attack = K.tripartite_attack(cabello, 0)
        game = K.make_ks_game(cabello)
        assert G.bell_value(attack.ab_marginal, game) == 1


class TestVerifyBehavior:
    def test_bumped_entry_flags_normalization(self):
        pr = G.make_pr_v(G.NoisyPRParams(F(1, 2)))
        table = dict(pr.table)
        table[((0, 0), (0, 0))] += F(1, 100)
        report = K.verify_behavior(G.Behavior((2, 2), (2, 2), table))
        names = {c.name: c.passed for c in report.checks}
        assert not names["normalization"]

    def test_product_of_ns_behaviors_passes(self):
        """Round products of no-signalling boxes stay no-signalling."""
        product = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(1, 3))), 2)
        report = K.verify_behavior(product)
        assert report.all_passed

    def test_never_raises_on_defects(self):
        table = {((a, b), (x, y)): F(-1, 4) if (a, b, x, y) == (0, 0, 0, 0)
                 else F(1, 4)
                 for a in range(2) for b in range(2)
                 for x in range(2) for y in range(2)}
        report = K.verify_behavior(G.Behavior((2, 2), (2, 2), table))
        assert not report.all_passed
        assert any(not c.passed for c in report.checks)


class TestAffineDimension:
    def test_identical_behaviors_have_dimension_zero(self, single_basis):
        attack = K.tripartite_attack(single_basis, 0)
        block = attack.blocks[0]
        assert K.attack_affine_dimension([block] * 3) == 0

    def test_single_basis_synthetic_exactly_two(self, single_basis):
        """The three deterministic d = 3 blocks span an affine plane."""
        attack = K.tripartite_attack(single_basis, 0)
        assert K.attack_affine_dimension(list(attack.blocks.values())) == 2

    def test_cabello_at_least_d_minus_one(self, cabello):
        attack = K.tripartite_attack(cabello, 0)
        dim = K.attack_affine_dimension(list(attack.blocks.values()))
        assert dim >= cabello.dim - 1

    def test_needs_two_behaviors(self, single_basis):
        attack = K.tripartite_attack(single_basis, 0)
        with pytest.raises(K.KsAttackError):
            K.attack_affine_dimension([attack.blocks[0]])


class TestPeres24:
    def test_attack_passes_for_each_row_context(self):
        """The magic-square KS form admits the perfect-guessing attack."""
        ks = K.load_bundled_ks("peres24")
        attack = K.tripartite_attack(ks, 0)
        report = K.verify_behavior(attack, game=K.make_ks_game(ks))
        assert report.all_passed, report.summary()
        assert K.attack_affine_dimension(list(attack.blocks.values())) >= 3

    def test_attack_builds_the_orthogonality_graph_once(self, monkeypatch):
        """Every candidate block reuses the attack's graph for its game."""
        ks = K.load_bundled_ks("peres24")
        calls = []
        real = K.build_orth_graph

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(K, "build_orth_graph", counting)
        K.tripartite_attack(ks, 0)
        assert len(calls) == 1


class TestBaseSplit:
    def test_projection_from_augmented_set(self, cabello):
        """Restricting the augmented game to a genuine Alice/Bob split."""
        restricted = with_base_split(cabello, [0, 1, 2], [3, 4, 5])
        game = K.make_ks_game(restricted)
        assert game.input_sizes == (3, 3)
        attack = K.tripartite_attack(restricted, 0)
        report = K.verify_behavior(attack, game=game)
        assert report.all_passed, report.summary()


class TestRelabeling:
    def test_pipeline_commutes_on_forced_set(self, single_basis):
        """Permuting vector labels permutes the (forced) attack exactly."""
        perm = [2, 0, 1]
        permuted = K.KSSet(
            3,
            [single_basis.vectors[perm.index(i)] for i in range(3)],
            [tuple(perm[v] for v in single_basis.bases[0])],
            [0], [0])
        permuted.validate()
        original = K.tripartite_attack(single_basis, 0)
        relabeled = K.tripartite_attack(permuted, 0)
        # Outcome e of the permuted attack refers to position e in the
        # permuted basis tuple, which holds relabeled vectors.
        for e in range(3):
            orig_vec = single_basis.bases[0][e]
            assert relabeled.assignments[e].values[perm[orig_vec]] == 1
        report = K.verify_behavior(relabeled,
                                   game=K.make_ks_game(permuted))
        assert report.all_passed

    def test_cabello_invariants_under_relabeling(self, cabello):
        """Verified properties are label-independent on the 18-vector set."""
        perm = list(range(18))
        perm[0], perm[5] = perm[5], perm[0]
        perm[3], perm[11] = perm[11], perm[3]
        inverse = [perm.index(i) for i in range(18)]
        permuted = K.KSSet(
            4,
            [cabello.vectors[inverse[i]] for i in range(18)],
            [tuple(perm[v] for v in basis) for basis in cabello.bases],
            list(cabello.alice_bases), list(cabello.bob_bases))
        permuted.validate()
        attack = K.tripartite_attack(permuted, 0)
        report = K.verify_behavior(attack, game=K.make_ks_game(permuted))
        assert report.all_passed, report.summary()


# ---------------------------------------------------------------------------
# the integer verifier against the Fraction oracle
# ---------------------------------------------------------------------------

def _fraction_report(behavior, game=None) -> K.VerificationReport:
    """``verify_behavior`` entry by entry in Fractions."""
    if isinstance(behavior, K.AttackBehavior):
        return _fraction_attack_report(behavior, game)
    report = K.VerificationReport()
    b = behavior
    neg = [(o, i) for (o, i), p in b.table.items() if p < 0]
    report.record("nonnegativity", not neg,
                  f"negative entries at {neg[:3]}" if neg else "")
    bad_norm = []
    for ins in b.inputs():
        s = b.normalization(ins)
        if s != 1:
            bad_norm.append((ins, s))
    report.record("normalization", not bad_norm,
                  f"per-input sums off at {bad_norm[:3]}" if bad_norm else "")
    families = G.ns_families(b.parties)
    bad: dict = {}
    for name, kept_outs, entries in oracle_groups(
            b.output_sizes, b.input_sizes, families):
        sums = [sum((b.entry(*key) for key in keys), start=F(0))
                for _, keys in entries]
        off = [ins for (ins, _), s in zip(entries, sums) if s != sums[0]]
        if off and name not in bad:
            summed = dict(families)[name]
            bad[name] = (kept_outs,
                         tuple(v for p, v in enumerate(off[0])
                               if p not in summed),
                         tuple(off[0][p] for p in summed))
    for name, _ in families:
        report.record("ns-" + name.replace("|", "-indep-"), name not in bad,
                      f"first violation at {bad[name]}" if name in bad else "")
    if game is not None:
        leaked = []
        for ins, p_in in game.pi.items():
            if not p_in:
                continue
            for outs in game.outputs():
                if not game.predicate[(outs, ins)] and b.entry(outs, ins):
                    leaked.append((outs, ins))
        report.record("zero-mass-on-losing-events", not leaked,
                      f"mass on losing events {leaked[:3]}" if leaked else "")
        value = G.bell_value(b, game)
        report.record("wins-game", value == 1, f"value {value}")
    return report


def _fraction_attack_report(attack, game=None) -> K.VerificationReport:
    b = attack.behavior
    report = _fraction_report(b)
    nx, ny, nz = b.input_sizes
    d = b.output_sizes[2]
    ok, detail = True, ""
    for z in range(nz):
        for x in range(nx):
            for y in range(ny):
                for e in range(d):
                    marg = sum((b.entry((u, w, e), (x, y, z))
                                for u in range(d) for w in range(d)),
                               start=F(0))
                    if marg != F(1, d) and ok:
                        ok, detail = False, f"P(e={e}|{x},{y},{z}) = {marg}"
    report.record("eve-marginal-uniform", ok, detail)
    ok, detail = True, ""
    for y in range(ny):
        hit = sum((b.entry((e, w, e), (attack.x_star, y, attack.x_star))
                   for e in range(d) for w in range(d)), start=F(0))
        if hit != 1 and ok:
            ok, detail = False, f"guess probability {hit} at y={y}"
    report.record("perfect-guessing-at-zstar", ok, detail)
    if game is not None:
        sub = _fraction_report(attack.ab_marginal, game)
        for check in sub.checks:
            report.record("ab-" + check.name, check.passed, check.detail)
    return report


def _checks(report):
    return [(c.name, c.passed, c.detail) for c in report.checks]


_WEIGHT = st.fractions(min_value=0, max_value=1, max_denominator=12)
_SHIFT = st.fractions(min_value=-1, max_value=1, max_denominator=12)


@st.composite
def _behaviors(draw):
    """A bipartite or tripartite mixture of deterministic strategies (no
    signalling), possibly spoilt by moving mass within an input (which
    keeps the sums and may signal) or by shifting single entries; zero
    entries are sometimes left out.  Bipartite ones may come with a game
    of random 0/1 predicate and uniform inputs."""
    parties = draw(st.sampled_from([2, 3]))
    top = 3 if parties == 2 else 2
    ins = tuple(draw(st.integers(1, top)) for _ in range(parties))
    outs = tuple(draw(st.integers(1, top)) for _ in range(parties))
    keys = [(o, i) for i in itertools.product(*map(range, ins))
            for o in itertools.product(*map(range, outs))]
    weights = draw(st.lists(_WEIGHT, min_size=1, max_size=3))
    total = sum(weights) or 1
    weights = [w / total for w in weights] if sum(weights) else [F(1)]
    table = dict.fromkeys(keys, F(0))
    for w in weights:
        strategy = [[draw(st.integers(0, outs[p] - 1)) for _ in range(ins[p])]
                    for p in range(parties)]
        for i in itertools.product(*map(range, ins)):
            o = tuple(strategy[p][i[p]] for p in range(parties))
            table[(o, i)] += w
    for _ in range(draw(st.integers(0, 3))):
        (o1, i), (o2, _) = draw(st.sampled_from(keys)), draw(
            st.sampled_from(keys))
        q = draw(_SHIFT)
        if draw(st.booleans()):
            table[(o1, i)] += q
            table[(o2, i)] -= q
        else:
            table[(o1, i)] += q
    if draw(st.booleans()):
        table = {k: p for k, p in table.items() if p}
    behavior = G.Behavior(ins, outs, table)
    game = None
    if parties == 2 and draw(st.booleans()):
        pi = {i: F(1, math.prod(ins)) for i in itertools.product(
            *map(range, ins))}
        game = G.Game(2, tuple(map(G.Alphabet, ins)),
                      tuple(map(G.Alphabet, outs)), pi,
                      {(o, i): draw(st.integers(0, 1)) for o, i in keys})
    return behavior, game


@settings(max_examples=200, deadline=None)
@given(case=_behaviors())
def test_integer_verifier_agrees_with_the_fraction_oracle(case):
    """Same checks, verdicts and details as the Fraction oracle."""
    behavior, game = case
    assert _checks(K.verify_behavior(behavior, game)) == \
        _checks(_fraction_report(behavior, game))


@settings(max_examples=60, deadline=None)
@given(shifts=st.lists(st.tuples(st.integers(0, 26), _SHIFT), max_size=3))
def test_attack_checks_agree_with_the_fraction_oracle(single_basis, shifts):
    """Spoilt single-basis attacks: the attack's own checks agree too."""
    attack = K.tripartite_attack(single_basis, 0)
    table = dict(attack.behavior.table)
    keys = [((u, w, e), (0, 0, 0)) for u, w, e in itertools.product(
        range(3), repeat=3)]
    for k, q in shifts:
        table[keys[k]] = table.get(keys[k], 0) + q
    attack.behavior = G.Behavior((1, 1, 1), (3, 3, 3), table)
    game = K.make_ks_game(single_basis)
    assert _checks(K.verify_behavior(attack, game)) == \
        _checks(_fraction_report(attack, game))


def test_attack_reports_name_the_first_failing_entry():
    """With Eve's output-0 entries halved, Eve's marginal and the guess
    probability fail first at (x, y, z) = (0, 0, 0) and y = 0."""
    ks = K.load_bundled_ks("peres24")
    attack = K.tripartite_attack(ks, 0)
    b = attack.behavior
    attack.behavior = G.Behavior(b.input_sizes, b.output_sizes, {
        key: p / 2 if key[0][2] == 0 else p for key, p in b.table.items()})
    checks = {c.name: c.detail for c in K.verify_behavior(attack).checks}
    assert checks["eve-marginal-uniform"] == "P(e=0|0,0,0) = 1/8"
    assert checks["perfect-guessing-at-zstar"] == "guess probability 7/8 at y=0"
    assert checks["normalization"].startswith(
        "per-input sums off at [((0, 0, 0), Fraction(7, 8))")
    assert _checks(K.verify_behavior(attack)) == \
        _checks(_fraction_report(attack))


def test_assignment_marginals_name_the_first_failing_entry():
    """peres24's first assignment for target 0 has no coupling at two
    input pairs; of its 8 marginal misses the detail names the first."""
    ks = K.load_bundled_ks("peres24")
    graph = K.build_orth_graph(ks)
    assignment = next(K.enumerate_assignments(graph, 0))
    _, report = K.bipartite_from_assignment(ks, assignment, graph)
    checks = {c.name: (c.passed, c.detail) for c in report.checks}
    assert checks["marginals-equal-assignment"] == (
        False, "bob marginal at w=0, (1,0)")


def test_verifier_beyond_int64_agrees_with_the_oracle():
    """Entries over denominators near 2**40 have numerators past int64
    over their common denominator: the object path gives the oracle's
    verdicts, passing and failing."""
    p, q = F(1, 2 ** 40 - 87), F(1, 2 ** 40 - 167)
    assert G.integer_table([p, q, 1 - p - q])[0].dtype == object
    for x1 in (p, q):
        table = {((0, 0), (0, 0)): p, ((1, 1), (0, 0)): 1 - p,
                 ((0, 0), (1, 0)): x1, ((1, 1), (1, 0)): 1 - x1}
        behavior = G.Behavior((2, 1), (2, 2), table)
        report = K.verify_behavior(behavior)
        assert report.all_passed == (x1 == p)
        assert _checks(report) == _checks(_fraction_report(behavior))


def test_non_finite_entries_fail_without_raising():
    table = dict(G.make_pr_v(G.NoisyPRParams(F(1, 2))).table)
    table[((0, 0), (1, 1))] = math.nan
    table[((1, 1), (1, 1))] = math.inf
    report = K.verify_behavior(G.Behavior((2, 2), (2, 2), table))
    assert _checks(report) == [
        ("finite-entries", False,
         "non-finite entries at [((0, 0), (1, 1)), ((1, 1), (1, 1))]")]


# ---------------------------------------------------------------------------
# the half-unit coupling against the Fraction oracle
# ---------------------------------------------------------------------------

def _fraction_max_flow_coupling(supply, demand, allowed):
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
    return {arc: F(f, scale) for arc, f in flow.items() if f}


@st.composite
def _transport_cases(draw):
    """Supplies and demands up to 6 each, mostly the margins of a random
    plan, sometimes with one total moved off; the allowed arcs are random,
    sometimes widened to hold the plan."""
    n_u, n_w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    plan = [[draw(st.integers(0, 2)) for _ in range(n_w)]
            for _ in range(n_u)]
    allowed = np.array([[draw(st.booleans()) for _ in range(n_w)]
                        for _ in range(n_u)])
    if draw(st.booleans()):
        allowed |= np.array(plan) > 0
    supply = [sum(row) for row in plan]
    demand = [sum(col) for col in zip(*plan)]
    if draw(st.booleans()):
        j = draw(st.integers(0, n_w - 1))
        demand[j] = max(0, demand[j] + draw(st.sampled_from([-1, 1])))
    return supply, demand, allowed


@settings(max_examples=300, deadline=None)
@given(case=_transport_cases())
def test_coupling_agrees_with_the_fraction_oracle(case):
    """The residual-matrix coupling finds the oracle's plan, arc for arc,
    and fails exactly where the oracle does."""
    supply, demand, allowed = case
    plan = K._max_flow_coupling(supply, demand, allowed)
    expected = _fraction_max_flow_coupling(
        [F(q) for q in supply], [F(q) for q in demand],
        {(i, j) for i, j in np.argwhere(allowed).tolist()})
    if expected is None:
        assert plan is None
    else:
        assert {(i, j): F(q) for (i, j), q in np.ndenumerate(plan)
                if q} == expected


def test_alice_marginal_misses_are_named(monkeypatch):
    """A coupling that puts each column's mass on its first row keeps
    Bob's marginals and breaks Alice's: the detail names Alice's first
    miss in (x, y, u) order."""
    ks = K.load_bundled_ks("cabello18")
    graph = K.build_orth_graph(ks)
    assignment = K.find_assignment(graph, 0)

    def first_row(supply, demand, allowed):
        plan = np.zeros((len(supply), len(demand)), np.int64)
        plan[0] = demand
        return plan

    monkeypatch.setattr(K, "_max_flow_coupling", first_row)
    _, report = K.bipartite_from_assignment(ks, assignment, graph)
    checks = {c.name: (c.passed, c.detail) for c in report.checks}
    # Alice's marginal is now 1 at u = 0 and 0 elsewhere.
    f = assignment.values
    x, y, u = next((x, y, u) for x, bx in enumerate(ks.alice_bases)
                   for y in range(len(ks.bob_bases))
                   for u, v in enumerate(ks.bases[bx])
                   if f[v] != (u == 0))
    assert checks["marginals-equal-assignment"] == (
        False, f"alice marginal at u={u}, ({x},{y})")
    assert (x, y, u) == (2, 0, 0)


@pytest.mark.parametrize("old, new", [
    (((0, 0), (0, 0)), ((0,), (0, 0, 0))), (None, ((0, 0, 0), (0, 0)))])
def test_keys_without_one_symbol_per_party_fail_without_raising(old, new):
    """A v = 1/2 PR box with one entry re-keyed, or one key added, with
    the wrong symbol count per party: one failing check names the key,
    with or without a game."""
    table = dict(G.make_pr_v(G.NoisyPRParams(F(1, 2))).table)
    table[new] = table.pop(old) if old else F(1, 4)
    behavior = G.Behavior((2, 2), (2, 2), table)
    for game in (None, G.make_chsh_game()):
        assert _checks(K.verify_behavior(behavior, game)) == [
            ("well-formed-keys", False,
             f"keys without one symbol per party: [{new}]")]


def _fraction_affine_dimension(behaviors):
    """``attack_affine_dimension`` in Fractions, over the union of the
    tables' keys."""
    base = behaviors[0]
    keys = sorted(set().union(*(set(b.table) for b in behaviors)))
    return len(eliminate(
        {i: F(other.entry(*k)) - F(base.entry(*k))
         for i, k in enumerate(keys)} for other in behaviors[1:]))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_affine_dimension_agrees_with_the_fraction_oracle(data):
    """Families of 2-5 behaviors of one shape, each over its own
    denominator or an affine combination of earlier ones (so that the
    rank falls short), zero entries left out."""
    ins = tuple(data.draw(st.integers(1, 3)) for _ in range(2))
    outs = tuple(data.draw(st.integers(1, 3)) for _ in range(2))
    keys = [(o, i) for i in itertools.product(*map(range, ins))
            for o in itertools.product(*map(range, outs))]
    family = []
    for _ in range(data.draw(st.integers(2, 5))):
        if family and data.draw(st.booleans()):
            b1, b2 = (data.draw(st.sampled_from(family)) for _ in range(2))
            t = data.draw(_SHIFT)
            table = {k: b1.entry(*k) + t * (b2.entry(*k) - b1.entry(*k))
                     for k in keys}
        else:
            den = data.draw(st.integers(1, 50))
            table = {k: F(data.draw(st.integers(-den, den)), den)
                     for k in keys}
        family.append(G.Behavior(ins, outs,
                                 {k: p for k, p in table.items() if p}))
    assert K.attack_affine_dimension(family) == \
        _fraction_affine_dimension(family)


def test_affine_dimension_refuses_behaviors_of_different_shapes():
    """A 2-input × 3-input box and a 3 × 2 one have equally many entries
    but no common coordinates."""
    boxes = [G.Behavior(ins, (2, 2), {
        ((0, 0), xy): 1 for xy in itertools.product(*map(range, ins))})
        for ins in [(2, 3), (3, 2)]]
    with pytest.raises(K.KsAttackError, match="different shapes"):
        K.attack_affine_dimension(boxes)


@pytest.mark.parametrize("name", ["cabello18", "peres24"])
def test_attack_affine_dimension_pins_agree_with_the_fraction_oracle(name):
    blocks = list(K.tripartite_attack(K.load_bundled_ks(name), 0)
                  .blocks.values())
    assert K.attack_affine_dimension(blocks) == \
        _fraction_affine_dimension(blocks) == 3


def _loop_predicate(ks, graph):
    """The game's predicate by four loops over the edge set, keyed in
    x, y, u, w order: a pair loses iff its vectors differ and are
    orthogonal."""
    predicate = {}
    for x, bx in enumerate(ks.alice_bases):
        for y, by in enumerate(ks.bob_bases):
            for u in range(ks.dim):
                for w in range(ks.dim):
                    vu, vw = ks.bases[bx][u], ks.bases[by][w]
                    lose = vu != vw and (min(vu, vw), max(vu, vw)) in \
                        graph.edges
                    predicate[((u, w), (x, y))] = 0 if lose else 1
    return predicate


def _assert_orth_is_the_edge_set(graph):
    """``orth`` is symmetric with an empty diagonal, and true exactly on
    the edges."""
    orth = graph.orth
    assert orth.dtype == bool and orth.shape == (graph.num_vertices,) * 2
    assert (orth == orth.T).all() and not orth.diagonal().any()
    assert set(map(tuple, np.argwhere(np.triu(orth)).tolist())) == graph.edges


@pytest.mark.parametrize("name", ["cabello18", "peres24", "single_basis"])
def test_ks_game_matches_the_loop_predicate(name):
    ks = K.load_bundled_ks(name)
    graph = K.build_orth_graph(ks)
    _assert_orth_is_the_edge_set(graph)
    game = K.make_ks_game(ks, graph)
    expected = _loop_predicate(ks, graph)
    assert list(game.predicate.items()) == list(expected.items())
    assert [type(v) for v in game.predicate.values()] == \
        [int] * len(expected)
    nx, ny = len(ks.alice_bases), len(ks.bob_bases)
    assert list(game.pi.items()) == [
        ((x, y), F(1, nx * ny)) for x in range(nx) for y in range(ny)]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_ks_game_matches_the_loop_predicate_on_generated_graphs(data):
    """Random bases of distinct vertices, made cliques, plus random edges;
    players measuring random bases (repeats allowed).  ``make_ks_game``
    reads only the bases, so the vectors are left empty."""
    n = data.draw(st.integers(3, 9))
    d = data.draw(st.integers(2, min(n, 4)))
    vertex = st.integers(0, n - 1)
    bases = data.draw(st.lists(st.lists(vertex, min_size=d, max_size=d,
                                        unique=True).map(tuple),
                               min_size=1, max_size=4))
    edges = {(min(i, j), max(i, j)) for b in bases
             for i, j in itertools.combinations(b, 2)}
    edges |= {(i, j) for i, j in data.draw(st.lists(st.tuples(vertex, vertex),
                                                    max_size=12)) if i < j}
    graph = K.OrthGraph(n, edges, bases)
    _assert_orth_is_the_edge_set(graph)
    side = st.lists(st.integers(0, len(bases) - 1), min_size=1, max_size=3)
    ks = K.KSSet(d, [], bases, data.draw(side), data.draw(side))
    assert list(K.make_ks_game(ks, graph).predicate.items()) == \
        list(_loop_predicate(ks, graph).items())


@pytest.mark.parametrize("target", [-1, 18])
def test_assignment_targets_outside_the_graph_are_refused(cabello_graph,
                                                          target):
    for search in (K.find_assignment,
                   lambda g, t: next(K.enumerate_assignments(g, t))):
        with pytest.raises(K.KsError, match=rf"^target {target} out of range$"):
            search(cabello_graph, target)


def test_keys_outside_the_alphabets_fail_without_raising():
    """The v = 1 PR box plus an entry at output 2 of a binary alphabet
    passed every check against CHSH while the key was left out; now one
    failing check names it, with or without a game."""
    table = dict(G.make_pr_v(G.NoisyPRParams(F(1))).table)
    table[((2, 0), (0, 0))] = F(1, 3)
    behavior = G.Behavior((2, 2), (2, 2), table)
    for game in (None, G.make_chsh_game()):
        assert _checks(K.verify_behavior(behavior, game)) == [
            ("well-formed-keys", False,
             "keys outside the alphabets: [((2, 0), (0, 0))]")]


@pytest.mark.parametrize("edge", [(0, 3), (-1, 0)])
def test_orth_graph_refuses_edges_outside_its_vertices(edge):
    """A negative endpoint would wrap around ``orth``; one past the last
    vertex would not fit.  ``is_edge`` reads no vertex outside."""
    with pytest.raises(K.KsError, match="^edge endpoint out of range$"):
        K.OrthGraph(3, {(0, 1), edge}, [(0, 1, 2)])
    graph = K.OrthGraph(3, {(0, 1), (0, 2), (1, 2)}, [(0, 1, 2)])
    assert graph.is_edge(1, 0) and not graph.is_edge(*edge)


def test_game_value_is_summed_past_int64():
    """pi over the prime 2^31 - 1 and the PR box at v = 2^-40 over 2^43:
    both integer forms are int64, but a product of their numerators
    passes 2^63, where an int64 sum wraps.  The value (3 + v)/4 is summed
    in Python ints."""
    chsh, den = G.make_chsh_game(), 2 ** 31 - 1
    pi = dict(zip(chsh.pi, [F(den // 4, den)] * 3 + [F(den - 3 * (den // 4),
                                                       den)]))
    game = G.Game(2, chsh.input_alphabets, chsh.output_alphabets, pi,
                  chsh.predicate)
    v = F(1, 2 ** 40)
    box = G.make_pr_v(G.NoisyPRParams(v))
    (W, _, w_den), (P, p_den) = game.integers, box.integers
    assert W.dtype == P.dtype == np.int64 and w_den == den
    assert int(W.max()) * int(P.max()) >= 2 ** 63
    assert int((W * P).sum()) != (3 + v) / 4 * w_den * p_den
    checks = {c.name: (c.passed, c.detail)
              for c in K.verify_behavior(box, game).checks}
    assert checks["wins-game"] == (False, f"value {(3 + v) / 4}")
    assert G.bell_value(box, game) == (3 + v) / 4


# ---------------------------------------------------------------------------
# the attack behaviors' integer construction
# ---------------------------------------------------------------------------

def _refuse_fraction_tables(monkeypatch):
    def refuse(*_):
        raise AssertionError("a Fraction table was built")
    monkeypatch.setattr(G, "fraction_table", refuse)


@pytest.mark.parametrize("name", ["cabello18", "peres24", "single_basis"])
def test_an_attack_is_built_and_checked_without_fraction_tables(
        monkeypatch, name):
    """Attack, verification with the game, and affine dimension read the
    behaviors' integer forms alone."""
    ks = K.load_bundled_ks(name)
    graph = K.build_orth_graph(ks)
    game = K.make_ks_game(ks, graph)
    _refuse_fraction_tables(monkeypatch)
    attack = K.tripartite_attack(ks, 0, graph=graph)
    assert K.verify_behavior(attack, game).all_passed
    assert K.attack_affine_dimension(list(attack.blocks.values())) == \
        ks.dim - 1


def test_a_product_is_verified_without_its_fraction_table(monkeypatch):
    product = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(1, 3))), 2)
    _refuse_fraction_tables(monkeypatch)
    assert K.verify_behavior(product).all_passed
    assert "_table" not in product.table.__dict__


@pytest.mark.parametrize("name", ["cabello18", "peres24", "single_basis"])
def test_attack_integers_equal_those_of_their_dict_copies(name):
    """Values, denominator and dtype of every attack behavior's integer
    form are those that ``Behavior.integers`` gives from its table."""
    ks = K.load_bundled_ks(name)
    graph = K.build_orth_graph(ks)
    for x_star in range(len(ks.alice_bases)):
        attack = K.tripartite_attack(ks, x_star, graph=graph)
        for b in (attack.behavior, attack.ab_marginal,
                  *attack.blocks.values()):
            (P, den), (Q, q_den) = b.integers, G.Behavior(
                b.input_sizes, b.output_sizes, dict(b.table)).integers
            assert (den, P.dtype, P.shape) == (q_den, Q.dtype, Q.shape)
            assert np.array_equal(P, Q)


def test_block_and_marginal_tables_follow_the_construction(cabello):
    """A block's entries run over its inputs, then its outputs; the (u, w)
    marginal's, the mean of the blocks, over outputs, then inputs."""
    attack = K.tripartite_attack(cabello, 1)
    d = cabello.dim
    nx, ny = len(cabello.alice_bases), len(cabello.bob_bases)
    for block in attack.blocks.values():
        P, den = block.integers
        expected = {((u, w), (x, y)): F(int(P[u, w, x, y]), den)
                    for x, y, u, w in itertools.product(
                        range(nx), range(ny), range(d), range(d))
                    if P[u, w, x, y]}
        assert list(block.table.items()) == list(expected.items())
    expected = {}
    for u, w, x, y in itertools.product(range(d), range(d), range(nx),
                                        range(ny)):
        p = sum(block.entry((u, w), (x, y))
                for block in attack.blocks.values()) / d
        if p:
            expected[((u, w), (x, y))] = p
    assert list(attack.ab_marginal.table.items()) == list(expected.items())


def test_non_finite_entries_outrank_malformed_keys():
    """A table with a NaN and a key without one symbol per party fails
    ``finite-entries``, whichever check ``integers`` meets first."""
    table = dict(G.make_pr_v(G.NoisyPRParams(F(1, 2))).table)
    table[((0, 0), (1, 1))] = math.nan
    table[((0, 0, 0), (1, 1))] = F(0)
    report = K.verify_behavior(G.Behavior((2, 2), (2, 2), table))
    assert _checks(report) == [
        ("finite-entries", False, "non-finite entries at [((0, 0), (1, 1))]")]


# ---------------------------------------------------------------------------
# KS-set input checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("side", ["alice_bases", "bob_bases"])
def test_an_empty_basis_list_is_refused(single_basis, side):
    """No basis for Bob divided by zero in the game's pi; none for Alice
    blamed x_star."""
    data = {"dim": 3, "vectors": [[[int(i == j), 0] for j in range(3)]
                                  for i in range(3)],
            "bases": [[0, 1, 2]], side: []}
    with pytest.raises(K.KsError, match=f"^{side} must name at least one "
                       "basis$"):
        K.ks_from_dict(data)
    ks = K.KSSet(3, list(single_basis.vectors), [(0, 1, 2)], [0], [0])
    setattr(ks, side, [])
    with pytest.raises(K.KsError, match=side):
        ks.validate()


@pytest.mark.parametrize("side", ["alice_bases", "bob_bases"])
def test_the_game_of_an_unvalidated_set_needs_both_sides(cabello, side):
    """``make_ks_game`` of a set that was never validated, one of whose
    players names no basis, is refused in ``validate``'s words, where it
    divided by zero in the game's pi; so is Bob's case in
    ``tripartite_attack``, which builds that game."""
    bases = {"alice_bases": [0], "bob_bases": [0], side: []}
    ks = K.KSSet(cabello.dim, cabello.vectors, cabello.bases,
                 bases["alice_bases"], bases["bob_bases"])
    refused = f"^{side} must name at least one basis$"
    with pytest.raises(K.KsError, match=refused):
        K.make_ks_game(ks)
    if side == "bob_bases":
        with pytest.raises(K.KsError, match=refused):
            K.tripartite_attack(ks, 0)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_a_non_finite_orthogonality_tolerance_is_refused(cabello, tol):
    """NaN and +inf escaped as ValueError and OverflowError from the
    exact Gram test; both are refused where the tolerance is read."""
    with pytest.raises(K.KsError, match=f"^tolerance must be finite, got {tol}$"):
        K.build_orth_graph(cabello, tol)
    with pytest.raises(K.KsError, match=f"^tolerance must be finite, got {tol}$"):
        K.load_bundled_ks("peres24", orth_tol=tol)
    for negative in (-1e-9, -math.inf):
        with pytest.raises(K.KsError, match="^tolerance must be nonnegative$"):
            K.build_orth_graph(cabello, negative)
