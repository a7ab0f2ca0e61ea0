"""Device-independent randomness quantities against no-signalling adversaries.

Exact LP values of nonlocal games over no-signalling (and epsilon-almost
no-signalling) behaviors, multi-round guessing probabilities under
time-ordered causal constraints, constructive attacks on pseudotelepathy
games from weak Kochen-Specker sets, analytical min-entropy curves for
the three-setting chained Bell expression, and the exponential
concentration bounds tying them together.
"""

from .bounds import (DecayParams, InfeasibleParamsError, MuReport,
                     azuma_abort_bound, chernoff_bound, mu_consistency_check,
                     parallel_rep_bound, tons_decay_report)
from .chain import (CurvePoint, StrategyParams, angles_from_theta,
                    chain_game_quantum_value, emit_min_entropy_curves,
                    guessing_from_theta, pg_ns_of_w, pg_quantum_of_w,
                    quantum_value, qubit_strategy)
from .games import (Alphabet, Behavior, Game, NoisyPRParams, bell_value,
                    chain_expression_value, classical_value, make_chain_game,
                    make_chsh_game, make_guessing_game, make_magic_square_game,
                    make_pr_v, product_behavior, uniform_behavior)
from .ksattack import (Assignment, AttackBehavior, KSSet, OrthGraph,
                       VerificationReport, attack_affine_dimension,
                       bipartite_from_assignment, build_orth_graph,
                       find_assignment, load_bundled_ks, make_ks_game,
                       tripartite_attack, verify_behavior)
from .lp import (InfeasibleError, LinProgram, LpSolution, dump_lp, solve,
                 verify_certificate)
from .nsvalues import (EpsNsReport, alpha_slope, chain_ns_guessing_curve,
                       eps_ns_value, ns_value, single_round_guessing)
from .tons import (CausalScenario, TonsLp, build_causal_constraints,
                   build_guessing_lp, iid_guessing_baseline,
                   tons_guessing_probability)

__version__ = "0.1.0"
