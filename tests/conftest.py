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

    def perturbed(norm):
        sol, message = real(norm)
        sol.primal = [x + 1e-6 for x in sol.primal]
        return sol, message

    monkeypatch.setattr(L, "_highs", perturbed)
