"""Tests for the chained-expression analytics."""

import math

import numpy as np
import pytest

from nsrand import chain as C
from nsrand import nsvalues as NV

THETA_GRID = np.linspace(0.0, math.pi - 1e-3, 200)


def purified_state(theta):
    """Three-qubit purification with Eve overlap <e0|e1> = sin(theta/2)."""
    s = math.sin(theta / 2.0)
    e0 = np.array([1.0, 0.0], dtype=complex)
    e1 = np.array([s, math.sqrt(max(0.0, 1.0 - s * s))], dtype=complex)
    psi = np.zeros(8, dtype=complex)
    psi[:2] += e0 / math.sqrt(2.0)           # |0>_A |0>_B (e-components)
    psi[6:] += e1 / math.sqrt(2.0)           # |1>_A |1>_B
    return psi


def trace_out_eve(psi):
    full = np.outer(psi, psi.conj()).reshape(2, 2, 2, 2, 2, 2)
    return np.einsum("abkcdk->abcd", full).reshape(4, 4)


class TestAngles:
    def test_theta_zero_boundary(self):
        p = C.angles_from_theta(0.0)
        assert math.cos(p.phi_a) == pytest.approx(-1.0, abs=1e-15)
        assert math.sin(p.phi_b) == pytest.approx(0.0, abs=1e-15)

    def test_theta_half_pi(self):
        p = C.angles_from_theta(math.pi / 2)
        assert math.cos(p.phi_a) == pytest.approx(1 - math.sqrt(3), abs=1e-14)

    def test_branch_in_second_quadrant(self):
        for theta in np.linspace(0.1, math.pi - 0.1, 25):
            p = C.angles_from_theta(theta)
            assert math.pi / 2 < p.phi_a <= math.pi
            assert math.pi / 2 < p.phi_b <= math.pi

    def test_rejects_theta_pi(self):
        with pytest.raises(C.ChainDomainError):
            C.angles_from_theta(math.pi)

    def test_relation_identities(self):
        """The four auxiliary identities hold to 1e-10 across the range."""
        for theta in np.linspace(0.0, math.pi - 1e-3, 50):
            p = C.angles_from_theta(theta)
            c = math.cos(theta)
            assert abs(math.sin(p.phi_b) - math.cos(p.phi_a) - 1) < 1e-10
            assert abs(2 * math.cos(p.phi_a) + 1
                       + math.cos(p.phi_b) ** 2 * (1 + c) / 2) < 1e-10
            assert abs(math.sin(p.phi_a)
                       + math.cos(p.phi_b) * math.sin(theta / 2)) < 1e-10
            if theta > 1e-6:
                assert abs(2 * math.sin(p.phi_b) - 1
                           + math.sin(p.phi_a) ** 2 * (1 + c) / (1 - c)) < 1e-10


class TestQuantumValue:
    def test_endpoints(self):
        assert C.quantum_value(0.0) == pytest.approx(4.0, abs=1e-12)
        assert C.quantum_value(math.pi) == 3 * math.sqrt(3)

    def test_matches_density_matrix_oracle(self):
        """Closed form vs direct 4x4 trace on 200 grid points."""
        for theta in THETA_GRID:
            oracle = C.qubit_strategy(theta).chained_expression()
            assert abs(oracle - C.quantum_value(theta)) < 1e-10

    def test_strictly_increasing(self):
        values = [C.quantum_value(t)
                  for t in np.linspace(0.0, math.pi - 1e-6, 400)]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestGuessingFromTheta:
    def test_values(self):
        assert C.guessing_from_theta(0.0) == 1.0
        assert C.guessing_from_theta(math.pi) == pytest.approx(0.5, abs=1e-15)
        assert C.guessing_from_theta(math.pi / 2) == \
            pytest.approx((1 + math.sqrt(2) / 2) / 2, abs=1e-15)

    def test_strictly_decreasing(self):
        values = [C.guessing_from_theta(t)
                  for t in np.linspace(0.0, math.pi, 400)]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestStrategyObjects:
    def test_observables_square_to_identity(self):
        for theta in (0.0, 0.7, 2.0, 3.0):
            s = C.qubit_strategy(theta)
            for obs in s.alice + s.bob:
                assert np.abs(obs @ obs - np.eye(2)).max() < 1e-12

    def test_state_is_density_matrix(self):
        for theta in (0.0, 1.2, 2.8):
            rho = C.reduced_state(theta)
            assert abs(np.trace(rho) - 1) < 1e-12
            eigs = np.linalg.eigvalsh(rho)
            assert eigs.min() > -1e-12

    def test_purification_partial_trace(self):
        """Tracing Eve out of the stated pure state returns the Pauli form."""
        for theta in np.linspace(0.0, math.pi, 60):
            rho = trace_out_eve(purified_state(theta))
            assert np.abs(rho - C.reduced_state(theta)).max() < 1e-12


class TestCubicInversion:
    def test_endpoints_exact(self):
        assert C.pg_quantum_of_w(4.0) == 1.0
        assert C.pg_quantum_of_w(3 * math.sqrt(3)) == 0.5

    def test_round_trip_against_parametric_curve(self):
        for theta in THETA_GRID:
            w = C.quantum_value(theta)
            assert abs(C.pg_quantum_of_w(w)
                       - C.guessing_from_theta(theta)) < 1e-8

    def test_cubic_residual(self):
        """The selected root satisfies the cubic to 1e-6 relative."""
        for w in np.linspace(4.0, 3 * math.sqrt(3), 50):
            pg = C.pg_quantum_of_w(w)
            x = 2.0 * (2.0 * pg - 1.0) ** 2 - 1.0
            a, b, c, d = C.cubic_coefficients(w)
            scale = max(abs(t) for t in (a, b, c, d))
            assert abs(((a * x + b) * x + c) * x + d) < 1e-6 * scale

    def test_domain_errors(self):
        with pytest.raises(C.ChainDomainError):
            C.pg_quantum_of_w(3.0)
        with pytest.raises(C.ChainDomainError):
            C.pg_quantum_of_w(5.5)


class TestNsLine:
    def test_endpoints(self):
        assert C.pg_ns_of_w(6.0) == 0.5
        assert C.pg_ns_of_w(4.0) == 1.0

    def test_matches_lp_at_rational_points(self):
        """The analytical line coincides with the decomposition LP."""
        from fractions import Fraction as F
        samples = [F(4), F(17, 4), F(9, 2), F(21, 4), F(6)]
        rows = NV.chain_ns_guessing_curve(samples)
        for (w, pg_lp) in rows:
            assert float(pg_lp) == pytest.approx(C.pg_ns_of_w(float(w)),
                                                 abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(C.ChainDomainError):
            C.pg_ns_of_w(6.5)


class TestCurveEmission:
    def test_hmin_endpoints(self):
        points = C.emit_min_entropy_curves([4.0, 6.0])
        assert points[0].hmin_quantum == 0.0
        assert points[1].hmin_ns == 1.0

    def test_quantum_blank_beyond_reach(self):
        points = C.emit_min_entropy_curves([5.5, 6.0])
        assert all(p.pg_quantum is None for p in points)

    def test_quantum_entropy_dominates_ns(self):
        """A no-signalling adversary is at least as strong as a quantum one."""
        grid = np.linspace(4.0, 3 * math.sqrt(3), 40)
        for p in C.emit_min_entropy_curves(grid):
            assert p.hmin_quantum >= p.hmin_ns - 1e-12


def test_fixed_strategy_game_value(chain_game):
    """The x pi/3 / (2y+1) pi/6 strategy attains (4 + sqrt 3)/6 exactly."""
    value = C.chain_game_quantum_value()
    assert abs(value - (4 + math.sqrt(3)) / 6) < 1e-12
    strategy = C.chain_game_strategy()
    total = sum(float(p) * strategy.outcome_probability(a, b, x, y)
                for (x, y), p in chain_game.pi.items()
                for a in range(2) for b in range(2)
                if chain_game.wins((a, b), (x, y)))
    assert abs(total - value) < 1e-14
