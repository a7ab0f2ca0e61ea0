"""Pinned no-signalling programs and verification reports.

Every LP builder and verifier takes its no-signalling marginal rows from
one generator, the index arrays of ``games.ns_index_groups``, checked
here against the string-by-string oracle ``conftest.oracle_groups``.
The sha256 digests of ``lp.dump_lp``
below fix the content and the order of every row of each program;
``ns-value --certificate`` writes one dual per row, so a moved row
changes an emitted file even when the optimum stays the same.
"""

import hashlib
import itertools
import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from nsrand import cli
from nsrand import games as G
from nsrand import ksattack as K
from nsrand import lp as L
from nsrand import nsvalues as NV
from nsrand import tons as T

from conftest import oracle_groups, oracle_rows

PINNED = {
    "abns:1":
        "b90a5ea31f05cbcb6b5167d2df6b968dffbd1552d6b29fee9abf4bf5c3888d75",
    "abns:2":
        "25376cbaf12def9fab591a8116a3d009b9557647086ffbb1520d06081c794ea9",
    "behavior:chain":
        "3c34a38f598175d7637610641c4936cd4da77a057765c32eb46fb49e908371e8",
    "behavior:chain-guessing":
        "c4c85e1621b7e52ae07b0c122ed13642800876be585a81cd28179093fe8f4660",
    "behavior:chsh":
        "f492a0043fba23aa7b6d8de2f42d3a4424aa032da3165ba27115f632c14b9e2d",
    "behavior:chsh-guessing":
        "028e046056db42442d9110bf20022a5167afa93709643079c5870b84b3a316d5",
    "behavior:magic-square":
        "cdcb6084512c52b7cb78590d0381314f7f4ce0286eb3ab8f61f0522f2f3c8a47",
    "eps:chain-guessing":
        "c0fcfa64c574c1c0f56cbcb9e547419b98ee0c8546ad0396d20008948496b3f2",
    "eps:chsh":
        "5877ed3973956f2c6aa6014621a29a9154b80fc8b0fa49cc0ba8405d0ee53717",
    "eps:magic-square":
        "c37242caf15c2faf21d1a4dbf3e4015ac3daac96e484e7a7f050c9ff5d2e4a5b",
    # The chain guessing LP on the I3 functional: w = 5, ">=", y_ref = 1.
    "guessing-i3:0":
        "6d3ef012a1c86c01c7ef456591d5cb07fea55d0dc843eb1e746dee78a6a92aae",
    "guessing:chain:0":
        "624220af41d1b5fda103e2ded04316c622189f2db225749d3b5e85a4382db561",
    "guessing:chain:1":
        "5ded4971be6498424fd4dd97722c2a872bfc9ef917c2976fde11eb1ca76894fc",
    "guessing:chain:2":
        "f424daca82ca255f38195eec465aac9d85b13f8ab60f7fe80684db96c3137d90",
    "guessing:magic:0":
        "07d6ae8a8d471addaf21a19247a6314f43f446de8d07344fec9ec12bd2a8f7ad",
    "guessing:magic:1":
        "325c90d40dc1e289edcb146d8c2e4416e978dc3cd660dfbd54ea1c72603a3594",
    "guessing:magic:2":
        "ee77a708f3d5076e26fbdaa7be34af4f980c5053efd8095d30eee78e21c90493",
    # Symmetric slices of the TONS/ABNS LPs at v = 1/2, built directly;
    # digests taken from the orbit quotient of the full LP.
    "slice:abns:2":
        "20794d60e63d5f45bd41c96ffc43fde93fc0793fab756602b60b0f6915707b80",
    "slice:abns:3":
        "0574e719a635053ecf233986520c3581eed72dc9f20e6615583d48e3a40d3412",
    "slice:tons:2":
        "602f6e03507d8d7e053cb6157565f71d7fee25ced1ff01eed5c68ca959319b1a",
    "slice:tons:3":
        "4d0110ef79f54a0a2583809cf01d59b47b9086698ffa537ec5051aeacc55a552",
    # The production slices: every relabelling from marginal_symmetries.
    "slice-full:abns:2":
        "7d845ac00537a7d7db9410e41ff5e1c133d4eb8c31117526a14beeb57a0caa25",
    "slice-full:abns:3":
        "9ac7fa05b04c8ea5e428ea8c61f6afdfbc78ca74e29ca3a15dfdc24391577771",
    "slice-full:tons:2":
        "c38d259259921b8f3b8a9a150edb113a95b622b184e467e6ca6ddc900c27071f",
    "slice-full:tons:3":
        "956a0ad73130bd4e90d065b852667b9eb325b1743bfb22d7610d3386d3590715",
    "tons:1":
        "b90a5ea31f05cbcb6b5167d2df6b968dffbd1552d6b29fee9abf4bf5c3888d75",
    "tons:2":
        "879d2d138cd318390b9bfe2e4d51b5ffed313c24c877a65ee35be442eb4de600",
    # Value-constrained TONS/ABNS LPs: every round's value is 7/8.
    "value:abns:2":
        "9bcbae87f647541afddef84c46fe46d24ef46e8732556faebdbba7caba8d442c",
    "value:tons:2":
        "d1a072cd1e7d3fd3df502f0b92ea2a4dd16c85aaff1545269c28ec23cf8ff0ca",
}


class _Built(Exception):
    """Stops a solving function once its program is assembled."""

    def __init__(self, prog):
        super().__init__()
        self.prog = prog


def _captured(function, *args, **kwargs):
    """The program ``function`` builds and hands to the certified solve."""
    def capture(prog, *args, **kwargs):
        raise _Built(prog)

    with mock.patch.object(L, "solve_certified", capture):
        with pytest.raises(_Built) as built:
            function(*args, **kwargs)
    return built.value.prog


def _program(label):
    kind, _, rest = label.partition(":")
    if kind == "behavior":
        game = cli.BUILTIN_GAMES[rest]()
        return NV._behavior_lp(game, G.game_value_coefficients(game))[0]
    if kind == "eps":
        return _captured(NV.eps_ns_value, cli.BUILTIN_GAMES[rest](), F(1, 20))
    if kind == "guessing":
        name, x_star = rest.split(":")
        game = {"chain": G.make_chain_game,
                "magic": G.make_magic_square_game}[name]()
        return _captured(NV.single_round_guessing, game, int(x_star), 1)
    if kind == "guessing-i3":
        return _captured(NV.single_round_guessing, G.make_chain_game(),
                         int(rest), 5, ">=",
                         functional=G.chain_i3_coefficients(), y_ref=1)
    chsh = G.make_chsh_game()
    if kind == "value":
        kind, _, rest = rest.partition(":")
        n = int(rest)
        scenario = T.CausalScenario.for_game(kind, n, chsh)
        return T.build_guessing_lp(chsh, None, (0,) * n, scenario,
                                   omega_star=F(7, 8)).program
    sliced = kind if kind in ("slice", "slice-full") else None
    if sliced:
        kind, _, rest = rest.partition(":")
    n = int(rest)
    marginal = G.product_behavior(G.make_pr_v(G.NoisyPRParams(F(1, 2))), n)
    scenario = T.CausalScenario.for_game(kind, n, chsh)
    relabellings = ()
    if sliced == "slice-full":
        relabellings = T.marginal_symmetries(marginal, scenario, (0,) * n)
    elif sliced == "slice":
        # The output-only symmetries: identity inputs and one output
        # permutation per party.
        relabellings = [
            r for r in T.marginal_symmetries(marginal, scenario, (0,) * n)
            if r.alice_inputs == r.bob_inputs == (0, 1)
            and len(set(r.alice_outputs)) == len(set(r.bob_outputs)) == 1]
    return T.build_guessing_lp(chsh, marginal, (0,) * n, scenario,
                               relabellings=relabellings).program


@pytest.mark.parametrize("label", sorted(PINNED))
def test_program_rows_are_pinned(label):
    text = L.dump_lp(_program(label))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[label]


def _report(behavior):
    return [(c.name, c.passed, c.detail)
            for c in K.verify_behavior(behavior).checks]


def test_verify_behavior_reports_are_pinned():
    # Bipartite: mass moved between Alice's outputs at (x, y) = (1, 1),
    # so Alice's marginal depends on y.
    table = dict(G.make_pr_v(G.NoisyPRParams(F(1, 2))).table)
    table[((0, 0), (1, 1))] += F(1, 16)
    table[((1, 0), (1, 1))] -= F(1, 16)
    assert _report(G.Behavior((2, 2), (2, 2), table)) == [
        ("nonnegativity", True, ""),
        ("normalization", True, ""),
        ("ns-A-indep-x", True, ""),
        ("ns-B-indep-y", False, "first violation at ((0,), (1,), (1,))"),
    ]
    # Tripartite: Eve outputs Alice's input.
    table = {((a, b, x), (x, y, z)): F(1, 4)
             for a in range(2) for b in range(2)
             for x in range(2) for y in range(2) for z in range(2)}
    assert _report(G.Behavior((2, 2, 2), (2, 2, 2), table)) == [
        ("nonnegativity", True, ""),
        ("normalization", True, ""),
        ("ns-A-indep-x", False, "first violation at ((0, 0), (0, 0), (1,))"),
        ("ns-B-indep-y", True, ""),
        ("ns-E-indep-z", True, ""),
        ("ns-AB-indep-xy", False, "first violation at ((0,), (0,), (1, 0))"),
        ("ns-AE-indep-xz", True, ""),
        ("ns-BE-indep-yz", True, ""),
    ]


# ---------------------------------------------------------------------------
# the group enumeration and the single-round rows against the oracle
# ---------------------------------------------------------------------------

def _key_groups(outs, ins, families, rounds, time_ordered):
    """``games.ns_index_groups`` read by ``Behavior.table`` key, in the
    form of ``oracle_groups``."""
    keys = list(itertools.product(*(
        itertools.product(*(range(s ** rounds) for s in sizes))
        for sizes in (outs, ins))))
    for name, summed, index in G.ns_index_groups(outs, ins, families, rounds,
                                                 time_ordered):
        for group in index.tolist():
            kept_outs = tuple(o for p, o in enumerate(keys[group[0][0]][0])
                              if p not in summed)
            yield name, kept_outs, [(keys[entry[0]][1],
                                     [keys[f] for f in entry])
                                    for entry in group]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), parties=st.sampled_from((2, 3)),
       time_ordered=st.booleans())
def test_index_groups_match_the_oracle(data, parties, time_ordered):
    """Random shapes, 1-3 symbols per alphabet and 1-3 rounds (at most
    4,096 behavior entries): the same groups in the same order."""
    sizes = st.lists(st.integers(1, 3), min_size=parties, max_size=parties)
    outs, ins = tuple(data.draw(sizes)), tuple(data.draw(sizes))
    entries = math.prod(outs + ins)
    rounds = data.draw(st.integers(1, max(
        r for r in (1, 2, 3) if r == 1 or entries ** r <= 4096)))
    families = data.draw(st.permutations(G.ns_families(parties)))
    assert list(_key_groups(outs, ins, families, rounds, time_ordered)) == \
        list(oracle_groups(outs, ins, families, rounds, time_ordered))


def _uniform_game(outs, ins):
    """The game of the given shape with uniform inputs that always wins."""
    inputs = list(itertools.product(*map(range, ins)))
    pi = dict.fromkeys(inputs, F(1, len(inputs)))
    return G.Game(len(outs), tuple(map(G.Alphabet, ins)),
                  tuple(map(G.Alphabet, outs)), pi,
                  {(o, i): 1 for o in itertools.product(*map(range, outs))
                   for i in inputs})


@settings(max_examples=60, deadline=None)
@given(data=st.data(), parties=st.sampled_from((2, 3)),
       epsilon=st.fractions(0, 1, max_denominator=40))
def test_single_round_rows_match_the_oracle(data, parties, epsilon):
    """Random shapes, 1-3 symbols per alphabet: after the normalization
    rows, ``_behavior_lp`` holds the oracle rows of the single-party
    families with pairs (k, 0), and ``eps_ns_value`` those of every family
    with every ordered pair, ``<= epsilon``, each keyed in ``tau_duals``
    by its family, kept outputs and pair of inputs."""
    sizes = st.lists(st.integers(1, 3), min_size=parties, max_size=parties)
    outs, ins = tuple(data.draw(sizes)), tuple(data.draw(sizes))
    game = _uniform_game(outs, ins)
    prog, var = NV._behavior_lp(game, G.game_value_coefficients(game))
    inputs = math.prod(ins)
    assert prog.constraints[inputs:] == [
        L.make_constraint({var[key]: c for key, c in row.items()}, "==", 0)
        for row in oracle_rows(outs, ins, G.NS_FAMILIES[:parties])]

    # A stand-in solve whose dual of row r is r shows each row's tau key.
    built = []

    def solve(prog, mode):
        built.append(prog)
        return L.LpSolution(L.LpSolution.OPTIMAL, 0, [],
                            list(range(len(prog.constraints))), mode)

    with mock.patch.object(L, "solve_certified", solve):
        report = NV.eps_ns_value(game, epsilon)
    families = G.ns_families(parties)
    assert built[0].constraints[inputs:] == [
        L.make_constraint({var[key]: c for key, c in row.items()}, "<=",
                          epsilon)
        for row in oracle_rows(outs, ins, families, all_pairs=True)]
    tau, r = {}, inputs
    for name, kept_outs, entries in oracle_groups(outs, ins, families):
        for (ia, _), (ib, _) in itertools.permutations(entries, 2):
            tau.setdefault(name, {})[(kept_outs, ia, ib)] = r
            r += 1
    assert report.tau_duals == tau
