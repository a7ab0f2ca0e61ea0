"""Seeded instance lists of the benchmark workloads, with answer checks.

A workload run is a sequence of passes.  Each pass is one seeded list of
instances with a fixed mix of kinds, so passes of one workload do the same
kind of work whatever the seed; the seed only picks the parameters and,
on ``exact-small``, the order.  Every instance carries the closed-form answer it is checked
against, so a check can be fed a deliberately wrong answer.

The kinds call the library through module attributes (``NV.ns_value``,
not a name bound at import), so that the tracer's wrappers see the calls.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from types import SimpleNamespace
from typing import Callable, Optional

from nsrand import games as G
from nsrand import ksattack as K
from nsrand import nsvalues as NV
from nsrand import tons as T

# Tolerance of acceptance criterion 2 for the float three-round LPs.
FLOAT_TOL = 1e-6

WORKLOADS = ("exact-small", "tons-n3")


@dataclass(frozen=True)
class Instance:
    """One library call with its generated inputs and its expected answer."""

    kind: str
    params: tuple
    expected: object

    def label(self) -> str:
        return f"{self.kind}({', '.join(map(str, self.params))})"


# ---------------------------------------------------------------------------
# answer checks: each returns None when the answer is right, else the reason
# ---------------------------------------------------------------------------

def _exact(value, certified: bool) -> Optional[str]:
    if not certified:
        return "exact answer carries no verified certificate"
    if not isinstance(value, F):
        return f"answer {value!r} is not an exact rational"
    return None


def _equal(value, expected, certified: bool = True) -> Optional[str]:
    return _exact(value, certified) or (
        None if value == expected else f"{value} != {expected}")


def _at_least(value, expected, certified: bool = True) -> Optional[str]:
    return _exact(value, certified) or (
        None if value >= expected else f"{value} < {expected}")


def _close(value, expected) -> Optional[str]:
    err = abs(float(value) - float(expected))
    return None if err <= FLOAT_TOL else \
        f"{float(value)!r} misses {expected} by {err:.2e}"


def _float_at_least(value, expected) -> Optional[str]:
    return None if float(value) >= float(expected) - FLOAT_TOL else \
        f"{float(value)!r} < {expected} - {FLOAT_TOL}"


# ---------------------------------------------------------------------------
# kinds: run one instance and check its answer
# ---------------------------------------------------------------------------

def _chain_line(ctx, inst: Instance) -> Optional[str]:
    w, x_star = inst.params
    value, sol, _ = NV.single_round_guessing(
        ctx.chain, x_star, w, functional=ctx.i3, with_solution=True)
    return _equal(value, inst.expected, sol.certified)


def _eps_ns(ctx, inst: Instance) -> Optional[str]:
    (eps,) = inst.params
    report = NV.eps_ns_value(ctx.chain_guessing, eps)
    return _equal(report.value, inst.expected, report.solution.certified)


def _marginal(v, rounds: int):
    return G.product_behavior(G.make_pr_v(G.NoisyPRParams(v)), rounds)


def _multiround(ctx, inst: Instance):
    v, rounds, mode = inst.params
    # The kind names "tons" and "abns" are the scenario kinds.
    scenario = T.CausalScenario.for_game(inst.kind, rounds, ctx.chsh)
    # An exact answer is only returned with a verified certificate: the
    # library raises UncertifiedError otherwise.
    return T.tons_guessing_probability(ctx.chsh, _marginal(v, rounds),
                                       (0,) * rounds, scenario, mode=mode)


def _tons(ctx, inst: Instance) -> Optional[str]:
    value = _multiround(ctx, inst)
    if inst.params[2] == "exact":
        return _equal(value, inst.expected)
    return _close(value, inst.expected)


def _abns(ctx, inst: Instance) -> Optional[str]:
    value = _multiround(ctx, inst)
    if inst.params[2] == "exact":
        return _at_least(value, inst.expected)
    return _float_at_least(value, inst.expected)


def _magic(ctx, inst: Instance) -> Optional[str]:
    (x_star,) = inst.params
    value, sol, _ = NV.single_round_guessing(ctx.magic, x_star, 1,
                                             with_solution=True)
    return _equal(value, inst.expected, sol.certified)


def _ns_value(ctx, inst: Instance) -> Optional[str]:
    return _equal(NV.ns_value(ctx.chain_guessing), inst.expected)


def _ks_attack(ctx, inst: Instance) -> Optional[str]:
    name, x_star = inst.params
    ks = ctx.ks[name]
    attack = K.tripartite_attack(ks, x_star)
    report = K.verify_behavior(attack, game=K.make_ks_game(ks))
    if not report.all_passed:
        return "verification failed:\n" + report.summary()
    dim = K.attack_affine_dimension(list(attack.blocks.values()))
    return None if dim >= inst.expected else \
        f"affine dimension {dim} < {inst.expected}"


KINDS: dict[str, Callable] = {
    "chain-line": _chain_line,
    "eps-ns": _eps_ns,
    T.TONS: _tons,
    T.ABNS: _abns,
    "magic-square": _magic,
    "ns-value": _ns_value,
    "ks-attack": _ks_attack,
}


def run_instance(ctx, inst: Instance) -> Optional[str]:
    """Run one instance; None if its answer checks, else why it failed."""
    return KINDS[inst.kind](ctx, inst)


# ---------------------------------------------------------------------------
# set-up and seeded generation
# ---------------------------------------------------------------------------

def load(workload: str) -> SimpleNamespace:
    """Load the bundled games and KS sets the workload's kinds use."""
    if workload == "exact-small":
        chain = G.make_chain_game()
        return SimpleNamespace(chain=chain, i3=G.chain_i3_coefficients(),
                               chain_guessing=G.make_guessing_game(chain),
                               chsh=G.make_chsh_game(),
                               magic=G.make_magic_square_game(),
                               ks={"peres24": K.load_bundled_ks("peres24")})
    if workload == "tons-n3":
        return SimpleNamespace(chsh=G.make_chsh_game())
    raise ValueError(f"unknown workload {workload!r}")


def _rational(rng: random.Random, lo: F, hi: F, denominators: range) -> F:
    """A rational k/q in [lo, hi] with a seeded denominator q."""
    while True:
        q = rng.choice(denominators)
        k_lo, k_hi = math.ceil(lo * q), math.floor(hi * q)
        if k_lo <= k_hi:
            return F(rng.randint(k_lo, k_hi), q)


def _tons_value(v: F, rounds: int) -> F:
    """TONS guessing value of the noisy PR box: 1 - (1 - 2^-n) v."""
    return 1 - (1 - F(1, 2 ** rounds)) * v


def _exact_small_pass(rng: random.Random, tiny: bool) -> list[Instance]:
    # A short pass (12 instances, about 3 s), so that a run holds many and
    # their median rides out slow stretches of the machine.
    # Three chain-line LPs, one per third of [4, 6]: the dense simplex
    # runs slower at small w, so strata keep its share of a pass steady.
    strata = [(F(4), F(6))] if tiny else \
        [(4 + F(2 * i, 3), 4 + F(2 * i + 2, 3)) for i in range(3)]
    out = []
    for lo, hi in strata:
        w = _rational(rng, lo, hi, range(1, 13))
        out.append(Instance("chain-line", (w, rng.randrange(3)), 2 - w / 4))
    # Four cheaper kinds below them and four eps-ns LPs put the median
    # instance in the middle of the eps-ns group.
    for _ in range(1 if tiny else 4):
        eps = _rational(rng, F(0), F(1, 10), range(10, 61))
        out.append(Instance("eps-ns", (eps,), (8 + 10 * eps) / 9))
    v = _rational(rng, F(0), F(1), range(1, 13))
    out.append(Instance(T.TONS, (v, 2, "exact"), _tons_value(v, 2)))
    out.append(Instance(T.ABNS, (v, 2, "exact"), _tons_value(v, 2)))
    out.append(Instance("magic-square", (rng.randrange(3),), F(1)))
    out.append(Instance("ns-value", (), F(8, 9)))
    # One small KS attack keeps the exact KS verification layer measured.
    out.append(Instance("ks-attack", ("peres24", rng.randrange(3)), 3))
    return out


def _tons_n3_pass(rng: random.Random, tiny: bool) -> list[Instance]:
    # v = 1 (the fully noisy box) is left out: HiGHS solves it about ten
    # times faster than any v < 1, so drawing it would make a pass's time
    # depend on the seed rather than on the code.
    rounds = 2 if tiny else 3
    out = []
    for kind in (T.TONS, T.ABNS):
        v = _rational(rng, F(1, 4), F(11, 12), range(2, 13))
        out.append(Instance(kind, (v, rounds, "float"),
                            _tons_value(v, rounds)))
    return out


def generate(workload: str, seed: int, passes: int,
             tiny: bool = False) -> list[list[Instance]]:
    """The seeded instance lists of the first ``passes`` passes."""
    lists = []
    for p in range(passes):
        rng = random.Random(seed * 1_000_003 + p)
        if workload == "exact-small":
            items = _exact_small_pass(rng, tiny)
            rng.shuffle(items)
        else:
            # TONS always runs first: peak RSS depends on the order of the
            # two LPs (256 MB this way, 273 MB the other).
            items = _tons_n3_pass(rng, tiny)
        lists.append(items)
    return lists
