"""Tests for the Kochen-Specker attack pipeline."""

import itertools
from fractions import Fraction as F

import pytest

from nsrand import games as G
from nsrand import ksattack as K


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
        restricted = K.with_base_split(cabello, [0, 1, 2], [3, 4, 5])
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
