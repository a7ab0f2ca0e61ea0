"""Analytics of the three-setting chained Bell expression.

Implements the parametric qubit strategy that trades violation against
eavesdropper correlation: closed-form value and guessing probability as
functions of the strategy angle, the cubic inversion giving the guessing
probability as a function of the observed violation, the no-signalling
line, and min-entropy curve emission.  All linear algebra is plain
double-precision on 2x2/4x4 matrices with explicit tolerances.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .games import CHAIN_I3_TERMS, game_value_coefficients, make_chain_game

log = logging.getLogger(__name__)

SQRT3 = math.sqrt(3.0)
W_CLASSICAL = 4.0
W_QUANTUM_MAX = 3.0 * SQRT3
W_NS_MAX = 6.0

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


class ChainDomainError(ValueError):
    """Argument outside the parameterization's domain."""


@dataclass(frozen=True)
class StrategyParams:
    """Measurement angles of the parametric strategy."""

    theta: float
    phi_a: float
    phi_b: float


def angles_from_theta(theta: float) -> StrategyParams:
    """Measurement angles realizing the optimal trade-off at overlap angle theta.

    Valid for theta in [0, pi); the denominator 1 + cos(theta) vanishes at
    theta = pi, where the dedicated limit branches of the value and
    guessing functions apply instead.
    """
    if not 0 <= theta < math.pi:
        raise ChainDomainError(f"theta must lie in [0, pi), got {theta}")
    c = math.cos(theta)
    root = math.sqrt(3.0 + c * c)
    # Rationalized forms of (1 - c - root)/(1 + c) and (2 - root)/(1 + c);
    # algebraically identical but free of the cancellation near theta = pi.
    cos_phi_a = -2.0 / (1.0 - c + root)
    sin_phi_b = (1.0 - c) / (2.0 + root)
    cos_phi_a = min(1.0, max(-1.0, cos_phi_a))
    sin_phi_b = min(1.0, max(-1.0, sin_phi_b))
    phi_a = math.acos(cos_phi_a)                  # in (pi/2, pi]
    phi_b = math.pi - math.asin(sin_phi_b)        # branch in (pi/2, pi]
    return StrategyParams(theta, phi_a, phi_b)


@dataclass(frozen=True)
class QubitStrategy:
    """Shared two-qubit state and the six +-1-valued local observables."""

    rho: np.ndarray                    # 4x4 density matrix of Alice-Bob
    alice: tuple[np.ndarray, ...]      # A_0, A_1, A_2
    bob: tuple[np.ndarray, ...]        # B_0, B_1, B_2

    def correlator(self, x: int, y: int) -> float:
        op = np.kron(self.alice[x], self.bob[y])
        return float(np.trace(self.rho @ op).real)

    def chained_expression(self) -> float:
        return sum(sign * self.correlator(x, y)
                   for (x, y), sign in CHAIN_I3_TERMS.items())

    def outcome_probability(self, a: int, b: int, x: int, y: int) -> float:
        proj_a = (I2 + (-1) ** a * self.alice[x]) / 2.0
        proj_b = (I2 + (-1) ** b * self.bob[y]) / 2.0
        return float(np.trace(self.rho @ np.kron(proj_a, proj_b)).real)


def reduced_state(theta: float) -> np.ndarray:
    """Alice-Bob state: Pauli expansion with transverse weight sin(theta/2)."""
    s = math.sin(theta / 2.0)
    return (np.kron(I2, I2) + np.kron(PAULI_Z, PAULI_Z)
            + s * np.kron(PAULI_X, PAULI_X)
            - s * np.kron(PAULI_Y, PAULI_Y)) / 4.0


def qubit_strategy(theta: float) -> QubitStrategy:
    """Parametric strategy: observables in the xz-plane, correlated state."""
    p = angles_from_theta(theta)
    def obs(angle_sin, angle_cos):
        return angle_sin * PAULI_X + angle_cos * PAULI_Z
    alice = (PAULI_Z,
             obs(math.sin(p.phi_a), -math.cos(p.phi_a)),
             obs(math.sin(p.phi_a), math.cos(p.phi_a)))
    bob = (obs(math.sin(p.phi_b), -math.cos(p.phi_b)),
           PAULI_X,
           obs(math.sin(p.phi_b), math.cos(p.phi_b)))
    return QubitStrategy(reduced_state(theta), alice, bob)


def quantum_value(theta: float) -> float:
    """Closed-form chained-expression value of the parametric strategy.

    Defined on [0, pi]; theta = pi is the decoupled maximally entangled
    point and returns the algebraic maximum 3*sqrt(3) via the limit branch.
    """
    if not 0 <= theta <= math.pi:
        raise ChainDomainError(f"theta must lie in [0, pi], got {theta}")
    if theta == math.pi:
        return W_QUANTUM_MAX
    c = math.cos(theta)
    root = math.sqrt(3.0 + c * c)
    # Stable equivalent of sqrt(2(-3 + c + 2 root)) * (3 - c + root)/(1 + c):
    # the radicand is rationalized so nothing cancels as theta -> pi.
    denom = (3.0 - c) + math.sqrt((3.0 - c) ** 2 + 3.0 * (1.0 + c) ** 2)
    return math.sqrt(6.0 / denom) * (3.0 - c + root)


def guessing_from_theta(theta: float) -> float:
    """Optimal eavesdropper guessing probability (1 + cos(theta/2)) / 2."""
    if not 0 <= theta <= math.pi:
        raise ChainDomainError(f"theta must lie in [0, pi], got {theta}")
    return (1.0 + math.cos(theta / 2.0)) / 2.0


def cubic_coefficients(w: float) -> tuple[float, float, float, float]:
    w2 = w * w
    w4 = w2 * w2
    return (8.0 * w2, w4 - 432.0, 2.0 * w4 - 72.0 * w2 + 864.0, w4 - 432.0)


def pg_quantum_of_w(w: float) -> float:
    """Guessing probability at observed violation w, via the cubic inversion.

    Among the real roots of the cubic, the one consistent with the
    parametric curve (its arccos reproduces w through the closed form) is
    selected; endpoints map to 1 at w = 4 and 1/2 at w = 3*sqrt(3).
    """
    if not W_CLASSICAL - 1e-12 <= w <= W_QUANTUM_MAX + 1e-12:
        raise ChainDomainError(f"w must lie in [4, 3*sqrt(3)], got {w}")
    # Endpoints are exact statements, not numerics.
    if abs(w - W_CLASSICAL) < 1e-9:
        return 1.0
    if abs(w - W_QUANTUM_MAX) < 1e-9:
        return 0.5
    a, b, c, d = cubic_coefficients(w)
    # Depressed-cubic discriminant, logged for the root-selection record.
    p = (3 * a * c - b * b) / (3 * a * a)
    q = (2 * b ** 3 - 9 * a * b * c + 27 * a * a * d) / (27 * a ** 3)
    disc = (q / 2) ** 2 + (p / 3) ** 3
    log.debug("cubic at w=%.12g: discriminant %.3e", w, disc)

    def polish(x: float) -> float:
        # Newton refinement; the admissible root is simple on (4, 3 sqrt 3).
        for _ in range(40):
            f = ((a * x + b) * x + c) * x + d
            df = (3 * a * x + 2 * b) * x + c
            if not df:
                break
            step = f / df
            x -= step
            if abs(step) < 1e-16 * max(1.0, abs(x)):
                break
        return x

    roots = np.roots([a, b, c, d])
    best: Optional[tuple[float, float]] = None
    for r in roots:
        if abs(r.imag) > 1e-7:
            continue
        x = min(1.0, max(-1.0, polish(float(r.real))))
        pg = 0.5 * (1.0 + math.sqrt((1.0 + x) / 2.0))
        if not 0.5 - 1e-9 <= pg <= 1.0 + 1e-9:
            continue
        residual = abs(quantum_value(math.acos(x)) - w)
        if best is None or residual < best[0]:
            best = (residual, pg)
    if best is None:
        raise ChainDomainError(f"no admissible real root at w = {w}")
    return min(1.0, max(0.5, best[1]))


def pg_ns_of_w(w: float) -> float:
    """No-signalling guessing line 2 - w/4 on [4, 6]."""
    if not W_CLASSICAL - 1e-12 <= w <= W_NS_MAX + 1e-12:
        raise ChainDomainError(f"w must lie in [4, 6], got {w}")
    return 2.0 - w / 4.0


def hmin(pg: float) -> float:
    return -math.log2(pg) or 0.0


@dataclass(frozen=True)
class CurvePoint:
    """One sample of the min-entropy curves; quantum columns None beyond 3*sqrt(3)."""

    w: float
    pg_quantum: Optional[float]
    hmin_quantum: Optional[float]
    pg_ns: float
    hmin_ns: float


def emit_min_entropy_curves(grid: Sequence[float]) -> list[CurvePoint]:
    """Min-entropy of both adversary classes along a violation grid in [4, 6]."""
    points = []
    for w in grid:
        pg_ns = pg_ns_of_w(w)
        if w <= W_QUANTUM_MAX + 1e-12:
            pg_q = pg_quantum_of_w(min(w, W_QUANTUM_MAX))
            points.append(CurvePoint(float(w), pg_q, hmin(pg_q),
                                     pg_ns, hmin(pg_ns)))
        else:
            points.append(CurvePoint(float(w), None, None, pg_ns, hmin(pg_ns)))
    return points


# ---------------------------------------------------------------------------
# fixed strategy certifying the quantum game value
# ---------------------------------------------------------------------------

def chain_game_strategy() -> QubitStrategy:
    """Standard chain-game measurements on the maximally entangled state."""
    phi_plus = np.zeros(4, dtype=complex)
    phi_plus[0] = phi_plus[3] = 1.0 / math.sqrt(2.0)
    rho = np.outer(phi_plus, phi_plus.conj())
    alice = tuple(math.sin(x * math.pi / 3) * PAULI_X
                  + math.cos(x * math.pi / 3) * PAULI_Z for x in range(3))
    bob = tuple(math.sin((2 * y + 1) * math.pi / 6) * PAULI_X
                + math.cos((2 * y + 1) * math.pi / 6) * PAULI_Z
                for y in range(3))
    return QubitStrategy(rho, alice, bob)


def chain_game_quantum_value() -> float:
    """Game value of the fixed strategy; equals (4 + sqrt(3)) / 6."""
    strategy = chain_game_strategy()
    return sum(float(p) * strategy.outcome_probability(*outs, *ins)
               for (outs, ins), p in
               game_value_coefficients(make_chain_game()).items())
