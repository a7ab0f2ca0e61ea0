"""Command-line interface.

Subcommands: ns-value (exact game values with certificates), tons
(multi-round guessing probabilities), ks-attack (KS-set attack pipeline
with verification report), curves (min-entropy curves CSV) and bounds
(concentration-bound sweeps CSV).  Outputs are deterministic given the
configuration and embed reproducibility manifests.

Settings (flags on either side of the subcommand, or --config fields):
ns-value, tons and curves read --mode and --float-tolerance, ks-attack
--orth-tolerance, bounds none and no --config; the others are refused.
Two still move only the config hash: --float-tolerance in exact mode,
and curves' settings without --lp-samples.

Exit codes: 0 success / all checks passed, 1 verification failure,
2 infeasible parameters or size caps, 3 input errors, 4 certification
failure (no exactly verified certificate, or a float optimum outside
--float-tolerance).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import bounds as bounds_mod
from . import chain as chain_mod
from . import games, ksattack, nsvalues, serialize, tons
from .lp import (CertificationError, InfeasibleError, LpError, LpSizeError,
                 solve_certified)

CONFIG_ENV_VAR = "NSRAND_CONFIG"

EXIT_OK = 0
EXIT_VERIFICATION_FAILURE = 1
EXIT_INFEASIBLE = 2
EXIT_INPUT_ERROR = 3
EXIT_CERTIFICATION_FAILURE = 4

BUILTIN_GAMES = {
    "chain": games.make_chain_game,
    "chsh": games.make_chsh_game,
    "chain-guessing": lambda: games.make_guessing_game(games.make_chain_game()),
    "chsh-guessing": lambda: games.make_guessing_game(games.make_chsh_game()),
    "magic-square": games.make_magic_square_game,
}
BUILTIN_KS = ("cabello18", "peres24", "single_basis")


@dataclass
class RunConfig:
    mode: Optional[str] = None  # None: the command's default
    float_tolerance: float = 1e-9
    orth_tolerance: float = 1e-9

    def hashed(self) -> dict:
        """The manifest's config; an unset mode hashes as "exact"."""
        return asdict(self) | {"mode": self.mode or "exact"}

    def validate(self) -> None:
        if self.mode not in (None, "exact", "float"):
            raise serialize.InputFormatError(f"unknown mode {self.mode!r}")
        for name in ("float_tolerance", "orth_tolerance"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise serialize.InputFormatError(
                    f"{name} must be finite and positive, not {value}")


# Config file fields: the JSON types each accepts, and their name.
_CONFIG_FIELDS = {"mode": (str, "a string"),
                  "float_tolerance": ((int, float), "a number"),
                  "orth_tolerance": ((int, float), "a number")}


def load_config(args) -> RunConfig:
    """The settings ``args.command`` reads (``args.reads``).  Any other
    flag, or --config where it reads none, is an input error; the config
    file's other fields are type-checked, not applied."""
    accepted = {"config", *args.reads} if args.reads else set()
    for field in ("config", *_CONFIG_FIELDS):
        if hasattr(args, field) and field not in accepted:
            raise serialize.InputFormatError(
                f"{args.command} does not read --{field.replace('_', '-')}")
    cfg = RunConfig()
    # A command that reads no setting reads no config file either.
    path = args.reads and (getattr(args, "config", None)
                           or os.environ.get(CONFIG_ENV_VAR))
    if path:
        data = _read_json(path, "config file")
        if not isinstance(data, dict):
            raise serialize.InputFormatError(
                f"config file {path}: the top level must be a JSON object")
        for field, (types, name) in _CONFIG_FIELDS.items():
            if field in data:
                value = data[field]
                if isinstance(value, bool) or not isinstance(value, types):
                    raise serialize.InputFormatError(
                        f"config file {path}: {field} must be {name}, "
                        f"not {json.dumps(value)}")
                if field in args.reads:
                    setattr(cfg, field, value)
    for field in args.reads:
        if hasattr(args, field):
            setattr(cfg, field, getattr(args, field))
    cfg.validate()
    return cfg


def _read_json(spec: str, what: str):
    """Parse the JSON file at ``spec``; read and parse errors are input
    errors naming ``what`` the file is."""
    try:
        return json.loads(Path(spec).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        raise serialize.InputFormatError(f"cannot read {what} {spec}: {exc}")
    except json.JSONDecodeError as exc:
        raise serialize.InputFormatError(
            f"{what} {spec}: line {exc.lineno}, column {exc.colno}: {exc.msg}")


def _int_list(text: str, flag: str, sep: Optional[str] = None) -> list[int]:
    """The integers in ``text``, one per character or split at ``sep``;
    anything else is an input error naming ``flag``."""
    try:
        return [int(t) for t in (text.split(sep) if sep else text)]
    except ValueError:
        raise serialize.InputFormatError(
            f"{flag} must list integers, got {text!r}") from None


def _resolve_game(spec: str) -> tuple[games.Game, list[Path]]:
    if spec in BUILTIN_GAMES:
        return BUILTIN_GAMES[spec](), []
    return serialize.game_from_dict(_read_json(spec, "game file")), [Path(spec)]


def _resolve_ks(spec: str, orth_tol: float) -> tuple[ksattack.KSSet, list[Path]]:
    if spec in BUILTIN_KS:
        return ksattack.load_bundled_ks(spec, orth_tol=orth_tol), []
    data = _read_json(spec, "KS file")
    try:
        ks = ksattack.ks_from_dict(data, orth_tol=orth_tol)
    except (ksattack.KsError, serialize.InputFormatError) as exc:
        raise serialize.InputFormatError(f"KS file {spec}: {exc}")
    return ks, [Path(spec)]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ns_value(args, cfg: RunConfig) -> int:
    game, inputs = _resolve_game(args.game)
    prog, _ = nsvalues._behavior_lp(game, games.game_value_coefficients(game))
    mode = cfg.mode or "exact"
    sol = solve_certified(prog, mode, cfg.float_tolerance)
    value = sol.value
    print(serialize.frac_str(value) if mode == "exact" else repr(value))
    manifest = serialize.build_manifest(cfg.hashed() | {"game": args.game},
                                        inputs)
    certificate = {
        "game": game.name or args.game,
        "value": serialize.frac_str(value) if mode == "exact" else value,
        "certified": sol.certified,
        "primal": [serialize.frac_str(p) if mode == "exact" else p
                   for p in sol.primal],
        "dual": [serialize.frac_str(y) if mode == "exact" else y
                 for y in sol.dual],
    }
    serialize.write_json(args.certificate, certificate, manifest)
    return EXIT_OK


def cmd_tons(args, cfg: RunConfig) -> int:
    game, _ = _resolve_game(args.game)
    v = serialize.parse_frac(args.v, "--v")
    if not 0 <= v <= 1:
        raise bounds_mod.InfeasibleParamsError(f"v = {v} outside [0, 1]")
    n = args.n
    scenario = tons.CausalScenario.for_game(args.scenario, n, game)
    x_star = tuple(_int_list(args.xstar, "--xstar")) if args.xstar \
        else (0,) * n
    marginal = None
    if args.marginal:
        marginal = serialize.behavior_from_dict(
            _read_json(args.marginal, "marginal file"))
    if marginal is None and args.game != "chsh":
        raise serialize.InputFormatError(
            "the bundled product marginal exists for --game chsh only; "
            "supply a behavior file via --marginal")
    box = games.make_pr_v(games.NoisyPRParams(v)) if marginal is None \
        else None
    # Unset, the mode is float from three rounds; its size cap is enforced
    # before the product is built.
    mode = cfg.mode or ("float" if n >= 3 else "exact")
    tons._check_caps(scenario, mode, marginal, x_star, round_box=box)
    if cfg.mode is None and n >= 3:
        print(f"note: n = {n} solved in float mode (pass --mode exact "
              f"to insist)", file=sys.stderr)
    if box is not None:
        marginal = games.product_behavior(box, n)
    pg = tons.tons_guessing_probability(game, marginal, x_star, scenario,
                                        mode=mode,
                                        float_tolerance=cfg.float_tolerance)
    formula: Optional[Fraction] = None
    if args.game == "chsh" and args.scenario == "tons" and not args.marginal:
        if n == 2:
            formula = 1 - 3 * v / 4
        elif n == 3 and v * v + 4 * v - 1 >= 0:  # exactly v >= sqrt(5) - 2
            formula = 1 - 7 * v / 8
    if formula is None:
        match = "n/a"
    elif mode == "exact":
        match = "yes" if pg == formula else "NO"
    else:
        match = "yes" if abs(pg - float(formula)) <= 1e-6 else "NO"
    pg_text = serialize.frac_str(pg) if mode == "exact" else repr(pg)
    print("n,v,scenario,pg,formula,match")
    print(f"{n},{serialize.frac_str(v)},{args.scenario},{pg_text},"
          f"{serialize.frac_str(formula) if formula is not None else ''},{match}")
    return EXIT_OK if match in ("yes", "n/a") else EXIT_VERIFICATION_FAILURE


def cmd_ks_attack(args, cfg: RunConfig) -> int:
    ks, inputs = _resolve_ks(args.ks, cfg.orth_tolerance)
    graph = ksattack.build_orth_graph(ks, cfg.orth_tolerance)
    attack = ksattack.tripartite_attack(ks, args.xstar, graph=graph)
    report = ksattack.verify_behavior(attack,
                                      game=ksattack.make_ks_game(ks, graph))
    dim = ksattack.attack_affine_dimension(list(attack.blocks.values()))
    print(report.summary())
    print(f"affine dimension of the {ks.dim} attack marginals: {dim} "
          f"(d - 1 = {ks.dim - 1})")
    manifest = serialize.build_manifest(
        cfg.hashed() | {"ks": args.ks, "xstar": args.xstar}, inputs)
    payload = serialize.behavior_to_dict(attack.behavior)
    payload["verification"] = {c.name: c.passed for c in report.checks}
    payload["affine_dimension"] = dim
    serialize.write_json(args.out, payload, manifest)
    return EXIT_OK if report.all_passed and dim >= ks.dim - 1 \
        else EXIT_VERIFICATION_FAILURE


def cmd_curves(args, cfg: RunConfig) -> int:
    if not (4 <= args.wmin < args.wmax <= 6):
        raise bounds_mod.InfeasibleParamsError(
            f"curve range [{args.wmin}, {args.wmax}] must sit inside [4, 6]")
    if args.points < 2:
        raise bounds_mod.InfeasibleParamsError("need at least two grid points")
    if args.lp_samples < 0:
        raise bounds_mod.InfeasibleParamsError(
            f"--lp-samples must be nonnegative, got {args.lp_samples}")
    step = (args.wmax - args.wmin) / (args.points - 1)
    grid = [args.wmin + i * step for i in range(args.points)]
    points = chain_mod.emit_min_entropy_curves(grid)
    manifest = serialize.build_manifest(
        cfg.hashed() | {"wmin": args.wmin, "wmax": args.wmax,
                        "points": args.points, "lp_samples": args.lp_samples})
    rows = [[repr(p.w),
             "" if p.pg_quantum is None else repr(p.pg_quantum),
             "" if p.hmin_quantum is None else repr(p.hmin_quantum),
             repr(p.pg_ns), repr(p.hmin_ns)] for p in points]
    serialize.write_csv(args.out, ["w", "pg_quantum", "hmin_quantum",
                                   "pg_ns", "hmin_ns"], rows, manifest)
    if args.lp_samples:
        # Exact LP cross-check of the no-signalling line at rational points.
        step_q = (Fraction(6) - 4) / (args.lp_samples - 1) \
            if args.lp_samples > 1 else Fraction(0)
        samples = [4 + i * step_q for i in range(args.lp_samples)]
        lp_rows = nsvalues.chain_ns_guessing_curve(
            samples, mode=cfg.mode or "exact",
            float_tolerance=cfg.float_tolerance)
        header, rows_lp = serialize.guessing_curve_rows(lp_rows)
        lp_path = Path(args.out).with_suffix(".lp.csv")
        serialize.write_csv(lp_path, header, rows_lp, manifest)
        print(f"wrote {len(rows_lp)} LP-checked rows to {lp_path}")
    theta_grid = [i * (math.pi - 1e-3) / 199 for i in range(200)]
    max_roundtrip = max(
        abs(chain_mod.pg_quantum_of_w(chain_mod.quantum_value(t))
            - chain_mod.guessing_from_theta(t)) for t in theta_grid)
    summary = {
        "w_classical": chain_mod.W_CLASSICAL,
        "w_quantum_max": chain_mod.W_QUANTUM_MAX,
        "w_ns_max": chain_mod.W_NS_MAX,
        "pg_at_w4": chain_mod.pg_quantum_of_w(4.0),
        "pg_at_wmax": chain_mod.pg_quantum_of_w(chain_mod.W_QUANTUM_MAX),
        "max_roundtrip_error": max_roundtrip,
    }
    serialize.write_json(Path(args.out).with_suffix(".summary.json"),
                         summary, manifest)
    print(f"wrote {args.points} curve rows to {args.out}")
    return EXIT_OK


def cmd_bounds(args, cfg: RunConfig) -> int:
    ns = _int_list(args.n, "--n", ",")
    rows = []
    for n in ns:
        if args.omega_star is not None:
            params = bounds_mod.DecayParams.from_omega_star(
                n, args.omega_star, gamma=args.gamma)
        else:
            params = bounds_mod.DecayParams(n, args.delta, args.kappa,
                                            args.gamma)
        report = bounds_mod.tons_decay_report(params)
        rows.append([n, *map(repr, (
            params.delta, params.kappa, params.gamma, report.abort_bound,
            report.guess_given_no_abort, report.headline, report.hmin_rate))])
    manifest = serialize.build_manifest(
        cfg.hashed() | {"n": args.n, "delta": args.delta, "kappa": args.kappa,
                        "gamma": args.gamma, "omega_star": args.omega_star})
    serialize.write_csv(args.out, ["n", "delta", "kappa", "gamma",
                                   "abort_bound", "guess_bound", "headline",
                                   "hmin_rate"], rows, manifest)
    print(f"wrote {len(rows)} bound rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # Settings go before or after the subcommand.  Unset ones leave no
    # attribute (SUPPRESS): they reset neither the other side nor the config.
    common = argparse.ArgumentParser(add_help=False,
                                     argument_default=argparse.SUPPRESS)
    common.add_argument("--config",
                        help=f"JSON config path (or ${CONFIG_ENV_VAR})")
    common.add_argument("--mode", choices=("exact", "float"))
    common.add_argument("--float-tolerance", type=float)
    common.add_argument("--orth-tolerance", type=float)
    parser = argparse.ArgumentParser(
        prog="nsrand", parents=[common],
        description="Device-independent randomness against no-signalling "
                    "adversaries: exact LP values, attacks, curves, bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ns-value", parents=[common],
                       help="no-signalling value of a game")
    p.add_argument("game", help="builtin name (%s) or JSON path"
                   % ", ".join(BUILTIN_GAMES))
    p.add_argument("--certificate", default="ns_value_certificate.json")
    p.set_defaults(func=cmd_ns_value, reads=("mode", "float_tolerance"))

    p = sub.add_parser("tons", parents=[common],
                       help="multi-round guessing probability")
    p.add_argument("--game", default="chsh")
    p.add_argument("--v", default="1", help="noise weight as p/q")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--scenario", choices=(tons.TONS, tons.ABNS),
                   default=tons.TONS)
    p.add_argument("--xstar", default=None, help="digit string, e.g. 01")
    p.add_argument("--marginal", default=None,
                   help="behavior JSON overriding the bundled product marginal")
    p.set_defaults(func=cmd_tons, reads=("mode", "float_tolerance"))

    p = sub.add_parser("ks-attack", parents=[common],
                       help="KS-set attack pipeline")
    p.add_argument("--ks", required=True,
                   help="builtin name (%s) or JSON path" % ", ".join(BUILTIN_KS))
    p.add_argument("--xstar", type=int, default=0, help="Alice basis index")
    p.add_argument("--out", default="attack_behavior.json")
    p.set_defaults(func=cmd_ks_attack, reads=("orth_tolerance",))

    p = sub.add_parser("curves", parents=[common],
                       help="min-entropy curves CSV")
    p.add_argument("--wmin", type=float, default=4.0)
    p.add_argument("--wmax", type=float, default=6.0)
    p.add_argument("--points", type=int, default=201)
    p.add_argument("--lp-samples", dest="lp_samples", type=int, default=0,
                   help="also LP-verify the NS line at this many rational w")
    p.add_argument("--out", default="curves.csv")
    p.set_defaults(func=cmd_curves, reads=("mode", "float_tolerance"))

    p = sub.add_parser("bounds", parents=[common],
                       help="concentration bound sweep CSV")
    p.add_argument("--n", default="1000000", help="comma-separated round counts")
    p.add_argument("--delta", type=float, default=0.03)
    p.add_argument("--kappa", type=float, default=0.03)
    p.add_argument("--gamma", type=float, default=0.75)
    p.add_argument("--omega-star", dest="omega_star", type=float, default=None,
                   help="derive kappa = delta = (omega* - 8/9)/2")
    p.add_argument("--out", default="bounds.csv")
    p.set_defaults(func=cmd_bounds, reads=())
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        return args.func(args, cfg)
    except (serialize.InputFormatError, games.GameError,
            ksattack.KsError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except CertificationError as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION_FAILURE
    except LpSizeError as exc:
        print(f"too large: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (bounds_mod.InfeasibleParamsError, InfeasibleError,
            LpError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except ksattack.KsAttackError as exc:
        print(f"attack construction failed: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILURE


if __name__ == "__main__":
    sys.exit(main())
