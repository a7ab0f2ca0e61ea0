"""Shared fixtures, and the string-by-string oracle of the
no-signalling marginal groups that the row tests compare against."""

import itertools

import pytest

from nsrand import games
from nsrand import lp as L


@pytest.fixture(scope="session")
def chain_game():
    return games.make_chain_game()


@pytest.fixture(scope="session")
def chsh_game():
    return games.make_chsh_game()


@pytest.fixture(scope="session")
def chain_guessing_game(chain_game):
    return games.make_guessing_game(chain_game)


@pytest.fixture(scope="session")
def magic_square_game():
    return games.make_magic_square_game()


@pytest.fixture
def perturbed_float_solver(monkeypatch):
    """HiGHS answers shifted by 1e-6 in every primal coordinate."""
    real = L._highs

    def perturbed(norm, *options):
        sol, message, tight = real(norm, *options)
        sol.primal = [x + 1e-6 for x in sol.primal]
        return sol, message, tight

    monkeypatch.setattr(L, "_highs", perturbed)


# ---------------------------------------------------------------------------
# the no-signalling groups, enumerated string by string
# ---------------------------------------------------------------------------

def oracle_groups(output_sizes, input_sizes, families, rounds=1,
                  time_ordered=False):
    """The groups of ``games.ns_index_groups``, enumerated string by string
    over ``Behavior.table`` keys: ``(family name, kept outputs,
    [(inputs, keys), ...])`` per group, one entry per input suffix of the
    summed parties, all-zero suffix first, in the generator's order."""
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


def _strings(sizes, parties, rounds):
    """Every tuple of the parties' encoded strings of ``rounds`` rounds."""
    return itertools.product(*(range(sizes[p] ** rounds) for p in parties))


def _merge(kept, kept_vals, summed, summed_vals):
    """Values in party order from the kept and the summed parties' values."""
    merged = dict(zip(kept, kept_vals)) | dict(zip(summed, summed_vals))
    return [merged[p] for p in sorted(merged)]


def _extensions(prefixes, spans):
    """Every tuple of strings that extend the per-party prefixes."""
    return itertools.product(*(range(pre * span, (pre + 1) * span)
                               for pre, span in zip(prefixes, spans)))


def oracle_rows(output_sizes, input_sizes, families, rounds=1,
                time_ordered=False, all_pairs=False):
    """Rows ``{key: +-1}`` of the ``oracle_groups``: per group, entry a's
    keys at +1 then entry b's at -1, for the pairs (k, 0) with k >= 1, or
    for every ordered pair if ``all_pairs``."""
    for _, _, entries in oracle_groups(output_sizes, input_sizes, families,
                                       rounds, time_ordered):
        pairs = (itertools.permutations(range(len(entries)), 2) if all_pairs
                 else ((k, 0) for k in range(1, len(entries))))
        for a, b in pairs:
            yield dict.fromkeys(entries[a][1], 1) | \
                dict.fromkeys(entries[b][1], -1)
