"""Closed-form concentration bounds of the randomness-accumulation argument.

Evaluates the abort probability (Azuma-Hoeffding), the generalized
Chernoff bound on the adversary's matching-input rounds, the t-out-of-n
parallel-repetition decay, the headline exponential decay of the guessing
probability with its min-entropy rate, and the exact rational consistency
of the computed constants.  Probabilities are clamped to [0, 1] in
reports while the raw formula values are kept alongside.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

# Constants of the three-input chain instantiation.
MU_CHAIN = Fraction(1, 6 ** 9 * 5 ** 2)
PI_MIN_CHAIN = Fraction(1, 27)
ALPHA_CHAIN = Fraction(10, 9)
GUESSING_GAME_NS_VALUE = Fraction(8, 9)
CHAIN_QUANTUM_VALUE = (4.0 + math.sqrt(3.0)) / 6.0
DELTA_MAX = Fraction(1, 10)


class InfeasibleParamsError(ValueError):
    """Parameter combination violates a stated inequality; says which."""


def _check_finite(**values: float) -> None:
    """Raise naming the first of ``values`` that is a NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InfeasibleParamsError(f"{name} must be finite, got {value}")


def clamp_probability(value: float) -> float:
    return min(1.0, max(0.0, value))


def azuma_abort_bound(n: int, kappa: float) -> float:
    """Abort probability bound 2 exp(-n kappa^2 / 2)."""
    _check_finite(n=n, kappa=kappa)
    if kappa <= 0:
        raise InfeasibleParamsError(f"kappa must be positive, got {kappa}")
    if n < 0:
        raise InfeasibleParamsError(f"n must be nonnegative, got {n}")
    return 2.0 * math.exp(-n * kappa * kappa / 2.0)


def binary_relative_entropy(gamma: float, zeta: float) -> float:
    """D(gamma || zeta) in nats, with the usual 0 log 0 = 0 conventions."""
    if not 0 <= gamma <= 1 or not 0 <= zeta <= 1:
        raise InfeasibleParamsError("arguments must lie in [0, 1]")
    def term(p, q):
        if p == 0:
            return 0.0
        if q == 0:
            return math.inf
        return p * math.log(p / q)
    return term(gamma, zeta) + term(1.0 - gamma, 1.0 - zeta)


class ChernoffBound(NamedTuple):
    kl_bound: float         # exp(-t D(gamma || zeta))
    quadratic_bound: float  # the weaker exp(-2 t (gamma - zeta)^2)


def chernoff_bound(t: float, gamma: float, zeta: float) -> ChernoffBound:
    """Generalized Chernoff bound for subset-correlated Boolean variables."""
    _check_finite(t=t)
    if gamma < zeta:
        raise InfeasibleParamsError(
            f"need zeta <= gamma, got gamma={gamma} < zeta={zeta}")
    if t < 0:
        raise InfeasibleParamsError(f"t must be nonnegative, got {t}")
    d = binary_relative_entropy(gamma, zeta)
    kl = 0.0 if d == math.inf and t > 0 else math.exp(-t * d) if d != math.inf \
        else 1.0
    return ChernoffBound(kl, math.exp(-2.0 * t * (gamma - zeta) ** 2))


def parallel_rep_bound(n: int, delta: float, mu: float = float(MU_CHAIN)) -> float:
    """t-out-of-n parallel repetition decay 8 exp(-delta^4 mu n)."""
    _check_finite(n=n, delta=delta, mu=mu)
    if delta <= 0 or mu <= 0:
        raise InfeasibleParamsError("delta and mu must be positive")
    if n < 0:
        raise InfeasibleParamsError(f"n must be nonnegative, got {n}")
    return 8.0 * math.exp(-delta ** 4 * mu * n)


@dataclass(frozen=True)
class DecayParams:
    """Parameters of the decay chain; omega_star = kappa + delta + 8/9."""

    n: int
    delta: float
    kappa: float
    gamma: float
    mu: float = float(MU_CHAIN)

    def __post_init__(self):
        if not 0 < self.delta < float(DELTA_MAX):
            raise InfeasibleParamsError(
                f"delta must lie in (0, 1/10), got {self.delta}")
        _check_finite(n=self.n, kappa=self.kappa, mu=self.mu)
        if self.kappa <= 0:
            raise InfeasibleParamsError(f"kappa must be positive, got {self.kappa}")
        if not 2.0 / 3.0 < self.gamma < 1.0:
            raise InfeasibleParamsError(
                f"gamma must lie in (2/3, 1), got {self.gamma}")
        if self.mu <= 0:
            raise InfeasibleParamsError(f"mu must be positive, got {self.mu}")
        try:
            operator.index(self.n)
        except TypeError:
            raise InfeasibleParamsError(
                f"n must be an integer, got {self.n}") from None
        if self.n < 1:
            raise InfeasibleParamsError(f"n must be at least 1, got {self.n}")

    @property
    def omega_star(self) -> float:
        return self.kappa + self.delta + float(GUESSING_GAME_NS_VALUE)

    @property
    def feasible(self) -> bool:
        return self.omega_star <= CHAIN_QUANTUM_VALUE + 1e-15

    @classmethod
    def from_omega_star(cls, n: int, omega_star: float, gamma: float = 0.75,
                        mu: float = float(MU_CHAIN)) -> "DecayParams":
        """Split the value budget omega_star - 8/9 evenly between kappa and delta."""
        _check_finite(omega_star=omega_star)
        margin = omega_star - float(GUESSING_GAME_NS_VALUE)
        if margin <= 0:
            raise InfeasibleParamsError(
                f"omega_star = {omega_star} does not exceed the guessing-game "
                f"no-signalling value 8/9")
        return cls(n, margin / 2.0, margin / 2.0, gamma, mu)


@dataclass(frozen=True)
class BoundReport:
    """All bound components at one parameter point."""

    params: DecayParams
    t: float                             # (omega_star - kappa) n
    abort_bound_raw: float
    abort_bound: float                   # clamped
    guess_given_no_abort_raw: float      # 8 e^{-d^4 mu n} / (1 - abort)
    guess_given_no_abort: float
    guess_rounds_fraction: float         # at least (1 - gamma) t rounds ...
    guess_rounds_failure: float          # ... except with this probability
    headline_raw: float                  # 24 e^{-delta^4 mu n}
    headline: float
    hmin_rate: float                     # -log2(headline) / n
    useful_n_onset: int                  # first n with headline < 1


def tons_decay_report(params: DecayParams) -> BoundReport:
    """Evaluate the full decay chain at one parameter point.

    Infeasible parameter combinations (omega_star above the chain game's
    quantum value) raise with the violated inequality spelled out.
    """
    if not params.feasible:
        raise InfeasibleParamsError(
            f"omega_star = kappa + delta + 8/9 = {params.omega_star:.6f} "
            f"exceeds the chain game quantum value (4 + sqrt(3))/6 = "
            f"{CHAIN_QUANTUM_VALUE:.6f}")
    n, delta, kappa, gamma, mu = (params.n, params.delta, params.kappa,
                                  params.gamma, params.mu)
    t = (params.omega_star - kappa) * n
    abort_raw = azuma_abort_bound(n, kappa)
    exponent = delta ** 4 * mu * n
    parallel = parallel_rep_bound(n, delta, mu)
    no_abort = 1.0 - abort_raw
    guess_raw = parallel / no_abort if no_abort > 0 else math.inf
    chern = chernoff_bound(t, gamma, 2.0 / 3.0)
    headline_raw = 24.0 * math.exp(-exponent)
    # The rate is computed from the exponent analytically so that
    # astronomically small bounds do not underflow to -inf/0.
    hmin_rate = (exponent * math.log2(math.e) - math.log2(24.0)) / n
    onset = math.ceil(math.log(24.0) / (delta ** 4 * mu))
    return BoundReport(
        params=params,
        t=t,
        abort_bound_raw=abort_raw,
        abort_bound=clamp_probability(abort_raw),
        guess_given_no_abort_raw=guess_raw,
        guess_given_no_abort=clamp_probability(guess_raw),
        guess_rounds_fraction=(1.0 - gamma) * t,
        guess_rounds_failure=clamp_probability(chern.quadratic_bound),
        headline_raw=headline_raw,
        headline=clamp_probability(headline_raw),
        hmin_rate=hmin_rate,
        useful_n_onset=onset,
    )


@dataclass(frozen=True)
class MuReport:
    """Exact-arithmetic consistency of the decay constant."""

    pi_min: Fraction
    alpha: Fraction
    mu_from_formula: Fraction
    mu_expected: Fraction
    consistent: bool


def mu_consistency_check() -> MuReport:
    """Check mu = pi_min^2 / (alpha^2 6^7) = 1/(6^9 5^2) in exact rationals.

    ``pi_min`` is read off the constructed guessing game and ``alpha`` is
    reproduced by the LP slope of the epsilon-relaxed value.
    """
    from .games import make_chain_game, make_guessing_game
    from .nsvalues import alpha_slope

    guessing = make_guessing_game(make_chain_game())
    _, pi, den = guessing.integers
    pi_min = Fraction(int(pi.min()), den)
    alpha = alpha_slope(guessing,
                        [Fraction(0), Fraction(1, 40), Fraction(1, 20)])
    mu = pi_min ** 2 / (alpha ** 2 * 6 ** 7)
    return MuReport(pi_min=pi_min, alpha=alpha, mu_from_formula=mu,
                    mu_expected=MU_CHAIN,
                    consistent=(mu == MU_CHAIN and pi_min == PI_MIN_CHAIN
                                and alpha == ALPHA_CHAIN))
