"""Perfect eavesdropping on pseudotelepathy games.

Builds the no-signalling attack for the bundled Kochen-Specker sets: a
{0, 1/2, 1} assignment per outcome turns into a bipartite behavior that
wins the game, and the blocks assemble into a tripartite behavior whose
third party guesses Alice's outputs perfectly at maximal violation.
"""

from nsrand import (attack_affine_dimension, bell_value, find_assignment,
                    build_orth_graph, load_bundled_ks, make_ks_game,
                    tripartite_attack, verify_behavior)

for name in ("single_basis", "cabello18", "peres24"):
    ks = load_bundled_ks(name)
    graph = build_orth_graph(ks)
    print(f"== {name}: dim {ks.dim}, {len(ks.vectors)} vectors, "
          f"{len(ks.bases)} bases, {len(graph.edges)} orthogonal pairs")

    target = ks.bases[ks.alice_bases[0]][0]
    assignment = find_assignment(graph, target)
    shown = {v: str(val) for v, val in sorted(assignment.values.items())
             if val != 0}
    print(f"   assignment fixing vector {target} to 1 (nonzeros): {shown}")

    attack = tripartite_attack(ks, x_star=0)
    game = make_ks_game(ks)
    report = verify_behavior(attack, game=game)
    status = "all checks pass" if report.all_passed else report.summary()
    print(f"   tripartite attack: {status}")
    print(f"   Alice-Bob marginal wins the game: value "
          f"{bell_value(attack.ab_marginal, game)}")
    dim = attack_affine_dimension(list(attack.blocks.values()))
    print(f"   affine dimension of the {ks.dim} attack marginals: {dim} "
          f"(lower-bounds the quantum-reachable face by d - 1 = {ks.dim - 1})")
    print()

print("moral: maximal violation of these games certifies no randomness at")
print("all against a no-signalling adversary, unlike the chained game.")
