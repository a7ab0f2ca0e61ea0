"""Tests for JSON/CSV serialization and the command-line interface."""

import json
from fractions import Fraction as F

import pytest

from nsrand import cli, games as G, lp as L, nsvalues as NV, serialize as S


class TestSerialization:
    def test_game_round_trip(self, chain_guessing_game):
        data = S.game_to_dict(chain_guessing_game)
        back = S.game_from_dict(data)
        assert back.pi == chain_guessing_game.pi
        assert back.predicate == chain_guessing_game.predicate

    def test_behavior_round_trip(self):
        pr = G.make_pr_v(G.NoisyPRParams(F(1, 3)))
        back = S.behavior_from_dict(S.behavior_to_dict(pr))
        assert back.table == pr.table

    def test_fraction_codec(self):
        assert S.frac_str(F(8, 9)) == "8/9"
        assert S.frac_str(F(3)) == "3"
        assert S.parse_frac("8/9") == F(8, 9)
        with pytest.raises(S.InputFormatError):
            S.parse_frac("eight ninths")

    def test_bad_key_diagnostics(self):
        data = S.game_to_dict(G.make_chsh_game())
        data["pi"]["0 0"] = "1/4"
        with pytest.raises(S.InputFormatError, match="0 0"):
            S.game_from_dict(data)

    def test_bundled_game_files_match_builders(self):
        """The data directory ships the games the builders construct."""
        from importlib import resources
        pairs = (("chain_game", G.make_chain_game()),
                 ("chsh_game", G.make_chsh_game()),
                 ("chain_guessing_game",
                  G.make_guessing_game(G.make_chain_game())))
        for name, built in pairs:
            raw = resources.files("nsrand.data").joinpath(f"{name}.json")
            loaded = S.game_from_dict(json.loads(raw.read_text()))
            assert loaded.pi == built.pi
            assert loaded.predicate == built.predicate

    def test_manifest_is_deterministic(self, tmp_path):
        f = tmp_path / "x.json"
        f.write_text("{}")
        m1 = S.build_manifest({"a": 1}, [f])
        m2 = S.build_manifest({"a": 1}, [f])
        assert m1 == m2
        assert m1["tool_version"] == S.TOOL_VERSION


class TestCli:
    def test_ns_value_bundled_chain(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        code = cli.main(["ns-value", "chain", "--certificate", str(cert)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"
        payload = json.loads(cert.read_text())
        assert payload["value"] == "1"
        assert payload["certified"] is True
        assert "manifest" in payload

    def test_ns_value_bundled_guessing_game(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        code = cli.main(["ns-value", "chain-guessing",
                         "--certificate", str(cert)])
        assert code == 0
        assert capsys.readouterr().out.strip() == "8/9"

    def test_ns_value_certificates_verify_exactly(self, tmp_path, capsys):
        """Every built-in game's certificate file holds a primal/dual pair
        that verifies exactly against the rebuilt behavior LP."""
        for name, make in cli.BUILTIN_GAMES.items():
            cert = tmp_path / f"{name}.json"
            code = cli.main(["ns-value", name, "--certificate", str(cert)])
            assert code == 0
            payload = json.loads(cert.read_text())
            assert capsys.readouterr().out.strip() == payload["value"]
            assert payload["certified"] is True
            game = make()
            prog, _ = NV._behavior_lp(game, G.game_value_coefficients(game))
            sol = L.LpSolution(L.LpSolution.OPTIMAL,
                               S.parse_frac(payload["value"]),
                               [S.parse_frac(x) for x in payload["primal"]],
                               [S.parse_frac(y) for y in payload["dual"]],
                               "exact")
            report = L.verify_certificate(prog, sol)
            assert report, (name, report.reasons[:3])

    def test_ns_value_game_file(self, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(S.game_to_dict(G.make_chsh_game())))
        code = cli.main(["ns-value", str(path),
                         "--certificate", str(tmp_path / "c.json")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code = cli.main(["ns-value", str(path)])
        assert code == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert "line" in err

    def test_unreadable_marginal_is_input_error(self, tmp_path, capsys):
        """A missing, malformed or binary --marginal file exits 3, not
        with a traceback."""
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        binary = tmp_path / "binary.json"
        binary.write_bytes(b"\xff\xfe\x00")
        for path in (tmp_path / "missing.json", bad, binary):
            code = cli.main(["tons", "--n", "1", "--marginal", str(path)])
            assert code == cli.EXIT_INPUT_ERROR, path
            assert "input error" in capsys.readouterr().err

    def test_default_and_explicit_exact_mode_write_identical_files(
            self, tmp_path, capsys):
        """Naming the default mode changes no byte of the certificate."""
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["ns-value", "chsh", "--certificate", str(a)]) == 0
        assert cli.main(["--mode", "exact", "ns-value", "chsh",
                         "--certificate", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_tons_row_matches_formula(self, capsys):
        code = cli.main(["tons", "--v", "1/2", "--n", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2,1/2,tons,5/8,5/8,yes" in out

    def test_global_flags_on_either_side_of_subcommand(self, tmp_path,
                                                       capsys):
        """Global flags work before and after the subcommand, and a
        flag overrides the config file from either side."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "float"}))
        tail = ["--v", "1/2", "--n", "2"]
        as_float = "2,1/2,tons,0.625,5/8,yes"
        as_exact = "2,1/2,tons,5/8,5/8,yes"
        runs = (
            (["tons", "--v", "1/2", "--n", "1", "--mode", "exact"],
             "1,1/2,tons,3/4,,n/a"),
            (["--mode", "float", "tons"] + tail, as_float),
            (["tons"] + tail + ["--mode", "float"], as_float),
            (["tons"] + tail + ["--config", str(cfg)], as_float),
            (["--mode", "exact", "tons"] + tail + ["--config", str(cfg)],
             as_exact),
            (["--config", str(cfg), "tons"] + tail + ["--mode", "exact"],
             as_exact),
        )
        for argv, row in runs:
            assert cli.main(argv) == 0, argv
            assert row in capsys.readouterr().out, argv

    def test_exact_three_rounds_certify(self, capsys):
        """The three-round slice lifts exactly where the output-only one
        did not."""
        for v, pg in (("1/4", "25/32"), ("11/12", "19/96")):
            code = cli.main(["--mode", "exact", "tons", "--v", v,
                             "--n", "3"])
            assert code == 0, v
            assert f"3,{v},tons,{pg},{pg},yes" in capsys.readouterr().out

    def test_tons_size_cap(self, capsys):
        code = cli.main(["tons", "--v", "1", "--n", "7"])
        assert code == cli.EXIT_INFEASIBLE
        assert "cap" in capsys.readouterr().err

    def test_four_round_float_is_over_the_cap(self, monkeypatch, capsys):
        """n = 4 is refused with its size report before any LP is built."""
        def no_build(*args, **kwargs):
            raise AssertionError("the LP was built")

        monkeypatch.setattr(cli.tons, "build_guessing_lp", no_build)
        code = cli.main(["--mode", "float", "tons", "--v", "1/2", "--n", "4"])
        assert code == cli.EXIT_INFEASIBLE
        err = capsys.readouterr().err
        assert "variables" in err and "n <= 3 in float mode" in err

    def test_exact_certification_failure_exit_code(self, monkeypatch,
                                                   capsys):
        """A failed exact lift with no dense fallback is not "infeasible"."""
        monkeypatch.setattr(L, "_lift_exact", lambda *args: None)
        monkeypatch.setattr(L, "_FALLBACK_CELL_LIMIT", 0)
        code = cli.main(["--mode", "exact", "tons", "--v", "1/2", "--n", "2"])
        assert code == cli.EXIT_CERTIFICATION_FAILURE == 4
        assert "certification failed" in capsys.readouterr().err

    def test_uncertified_optimum_exit_code(self, tmp_path, monkeypatch,
                                           capsys):
        uncertified = L.LpSolution(L.LpSolution.OPTIMAL, F(1), [], [],
                                   "exact", certified=False)
        monkeypatch.setattr(L, "solve", lambda *args, **kwargs: uncertified)
        code = cli.main(["ns-value", "chsh",
                         "--certificate", str(tmp_path / "c.json")])
        assert code == cli.EXIT_CERTIFICATION_FAILURE
        assert "certification failed" in capsys.readouterr().err

    def test_float_tolerance_is_honoured(self, tmp_path, capsys,
                                         perturbed_float_solver):
        """A float optimum off by 1e-6 exits 4 at the default tolerance
        and passes when --float-tolerance admits it."""
        cert = str(tmp_path / "c.json")
        runs = (["--mode", "float", "ns-value", "chsh-guessing",
                 "--certificate", cert],
                ["--mode", "float", "tons", "--v", "1/2", "--n", "2"],
                ["--mode", "float", "curves", "--points", "2",
                 "--lp-samples", "2", "--out", str(tmp_path / "c.csv")])
        for argv in runs:
            assert cli.main(argv) == cli.EXIT_CERTIFICATION_FAILURE, argv
            assert "tolerance 1e-09" in capsys.readouterr().err
            assert cli.main(argv + ["--float-tolerance", "1e-3"]) == 0, argv
            capsys.readouterr()

    def test_ks_attack_single_basis(self, tmp_path, capsys):
        out = tmp_path / "attack.json"
        code = cli.main(["ks-attack", "--ks", "single_basis",
                         "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "[PASS]" in text and "[FAIL]" not in text
        payload = json.loads(out.read_text())
        assert payload["affine_dimension"] == 2

    def test_orth_tolerance_reaches_the_orthogonality_graph(self, tmp_path,
                                                            capsys):
        """A set orthogonal only within --orth-tolerance is attacked at
        that tolerance, not rejected by the graph's default one."""
        data = {"dim": 3, "bases": [[0, 1, 2]],
                "vectors": [[["1", "0"], ["1/10000000", "0"], ["0", "0"]],
                            [["0", "0"], ["1", "0"], ["0", "0"]],
                            [["0", "0"], ["0", "0"], ["1", "0"]]]}
        path = tmp_path / "tilted.json"
        path.write_text(json.dumps(data))
        code = cli.main(["ks-attack", "--ks", str(path), "--orth-tolerance",
                         "1e-6", "--out", str(tmp_path / "attack.json")])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "[PASS]" in captured.out and "[FAIL]" not in captured.out

    def test_ks_attack_rejects_non_unit_vector(self, tmp_path, capsys):
        data = {
            "dim": 3,
            "vectors": [[["2", "0"], ["0", "0"], ["0", "0"]],
                        [["0", "0"], ["1", "0"], ["0", "0"]],
                        [["0", "0"], ["0", "0"], ["1", "0"]]],
            "bases": [[0, 1, 2]],
        }
        path = tmp_path / "ks.json"
        path.write_text(json.dumps(data))
        code = cli.main(["ks-attack", "--ks", str(path)])
        assert code == cli.EXIT_INPUT_ERROR
        assert "vector 0" in capsys.readouterr().err

    def test_curves_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(["curves", "--points", "21", "--out", str(a)]) == 0
        assert cli.main(["curves", "--points", "21", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        data_rows = [l for l in lines if not l.startswith("#")][1:]
        assert len(data_rows) == 21
        assert a.with_suffix(".summary.json").exists()

    def test_curves_lp_check_emission(self, tmp_path, capsys):
        """The NS line CSV carries p/q and decimal columns per sample."""
        out = tmp_path / "c.csv"
        code = cli.main(["curves", "--points", "5", "--lp-samples", "3",
                         "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        lp_csv = out.with_suffix(".lp.csv").read_text().splitlines()
        rows = [l for l in lp_csv if not l.startswith("#")]
        assert rows[0] == "w,pg,hmin,w_decimal,pg_decimal"
        assert rows[1].startswith("4,1,0.0,")
        assert rows[-1].startswith("6,1/2,1.0,")

    def test_bounds_infeasible_exit(self, capsys):
        code = cli.main(["bounds", "--omega-star", "0.97"])
        assert code == cli.EXIT_INFEASIBLE
        assert "kappa + delta + 8/9" in capsys.readouterr().err

    def test_non_integer_xstar_is_input_error(self, capsys):
        code = cli.main(["tons", "--n", "2", "--xstar", "a1"])
        assert code == cli.EXIT_INPUT_ERROR
        assert "--xstar" in capsys.readouterr().err

    def test_non_integer_round_count_is_input_error(self, tmp_path, capsys):
        code = cli.main(["bounds", "--n", "10,abc",
                         "--out", str(tmp_path / "b.csv")])
        assert code == cli.EXIT_INPUT_ERROR
        assert "--n" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    def test_negative_lp_samples_is_infeasible(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        code = cli.main(["curves", "--points", "2", "--lp-samples", "-1",
                         "--out", str(out)])
        assert code == cli.EXIT_INFEASIBLE
        assert "--lp-samples" in capsys.readouterr().err
        assert not out.exists()

    def test_bounds_csv(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = cli.main(["bounds", "--n", "1000,100000", "--delta", "0.03",
                         "--kappa", "0.02", "--out", str(out)])
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#")]
        assert rows[0].startswith("n,delta,kappa,gamma,abort_bound")
        assert len(rows) == 3

    def test_config_file_and_env(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "float"}))
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
        code = cli.main(["ns-value", "chsh",
                         "--certificate", str(tmp_path / "c.json")])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("0.9999") or out == "1.0"

    def test_config_field_types_are_input_errors(self, tmp_path, capsys):
        """A config file that is not an object, or whose fields have the
        wrong JSON type, exits 3 naming the file and the field."""
        cases = (({"float_tolerance": "1e-3"}, "float_tolerance"),
                 ({"orth_tolerance": True}, "orth_tolerance"),
                 ({"mode": 1}, "mode"),
                 ("float", "JSON object"),
                 ([{"mode": "float"}], "JSON object"))
        for data, field in cases:
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(data))
            code = cli.main(["--config", str(path), "ns-value", "chsh",
                             "--certificate", str(tmp_path / "c.json")])
            assert code == cli.EXIT_INPUT_ERROR, data
            err = capsys.readouterr().err
            assert str(path) in err and field in err, err

    def test_flag_overrides_config(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "float"}))
        monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
        code = cli.main(["--mode", "exact", "ns-value", "chsh",
                         "--certificate", str(tmp_path / "c.json")])
        assert code == 0
        assert capsys.readouterr().out.strip() == "1"
