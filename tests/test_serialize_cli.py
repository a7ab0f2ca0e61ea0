"""Tests for JSON/CSV serialization and the command-line interface."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import nsrand
from nsrand import cli, games as G, lp as L, nsvalues as NV, serialize as S


def game_to_dict(game):
    """The game-file JSON object of ``game``."""
    return {
        "parties": game.parties,
        "inputs": list(game.input_sizes),
        "outputs": list(game.output_sizes),
        "pi": {",".join(map(str, ins)): S.frac_str(p)
               for ins, p in sorted(game.pi.items())},
        "V": {",".join(map(str, outs + ins)): v
              for (outs, ins), v in sorted(game.predicate.items())},
        "name": game.name,
    }


class TestSerialization:
    def test_game_round_trip(self, chain_guessing_game):
        data = game_to_dict(chain_guessing_game)
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
        data = game_to_dict(G.make_chsh_game())
        data["pi"]["0 0"] = "1/4"
        with pytest.raises(S.InputFormatError, match="0 0"):
            S.game_from_dict(data)

    def test_bundled_game_files_match_builders(self):
        """The data directory ships the games the builders construct."""
        from importlib import resources
        pairs = (("chain_game", G.make_chain_game()),
                 ("chsh_game", G.make_chsh_game()),
                 ("chain_guessing_game",
                  G.make_guessing_game(G.make_chain_game())),
                 ("magic_square_game", G.make_magic_square_game()))
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

    @pytest.mark.parametrize("name, digest", [
        ("chain",
         "ed0b48527a4bf3de281e2c7cd5c6ab193e76074087831ba52dc4c7fd1bc0421d"),
        ("chsh",
         "f5a5320ef2c5ceefc42b362373593c1a8825f792d60994095410a238be7611a0"),
        ("chain-guessing",
         "b4760375d4d9942324a45b8711e7f800f919bce29e444eaef67c05d71cf5c32b"),
        ("chsh-guessing",
         "15483b103f7f4d7266ad0a5f34106cb31e78c33c93060fb5c4f6d0114f5ecd60"),
        ("magic-square",
         "e20ca6ac27a25fc4887d2a513696b56dbf0fe55046c77800717c177536f56bb4")])
    def test_ns_value_certificate_bytes_are_pinned(self, name, digest,
                                                   tmp_path, capsys):
        """Each built-in game's certificate file is byte for byte the one
        pinned here: the certified primal/dual pair may not move."""
        cert = tmp_path / "cert.json"
        assert cli.main(["ns-value", name, "--certificate", str(cert)]) == 0
        capsys.readouterr()
        assert S.sha256_hex(cert.read_bytes()) == digest

    def test_ns_value_game_file(self, tmp_path, capsys):
        path = tmp_path / "game.json"
        path.write_text(json.dumps(game_to_dict(G.make_chsh_game())))
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

    @pytest.mark.parametrize("key", ["5,0|1,1", "-1,0|1,1"])
    def test_marginal_symbol_outside_its_alphabet_is_input_error(
            self, key, tmp_path, capsys):
        """A --marginal key naming an output beyond the declared alphabet,
        or a negative one (which numpy would alias onto another entry),
        exits 3."""
        data = S.behavior_to_dict(G.make_pr_v(G.NoisyPRParams(F(1, 2))))
        data["P"][key] = data["P"].pop("1,0|1,1")
        path = tmp_path / "marginal.json"
        path.write_text(json.dumps(data))
        code = cli.main(["tons", "--n", "1", "--marginal", str(path)])
        assert code == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert f"key '{key.split('|')[0]}' at P" in err
        assert "outside its alphabet 0..1" in err

    def test_game_symbol_outside_its_alphabet_is_input_error(self, tmp_path,
                                                             capsys):
        """A game file whose V table swaps 1,1,1,1 for 7,0,1,1 keeps the
        entry count but not the alphabet: exit 3."""
        data = game_to_dict(G.make_chsh_game())
        data["V"]["7,0,1,1"] = data["V"].pop("1,1,1,1")
        path = tmp_path / "game.json"
        path.write_text(json.dumps(data))
        code = cli.main(["ns-value", str(path),
                         "--certificate", str(tmp_path / "c.json")])
        assert code == cli.EXIT_INPUT_ERROR
        assert "key '7,0,1,1' at V: symbol 7 outside its alphabet" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("field", ["pi", "V", "P"])
    def test_table_that_is_not_an_object_is_input_error(self, field,
                                                        tmp_path, capsys):
        """A game's pi or V, or a marginal's P, given as a JSON list exits
        3 naming the field, not with a traceback."""
        if field == "P":
            data = S.behavior_to_dict(G.make_pr_v(G.NoisyPRParams(F(1, 2))))
            argv = ["tons", "--n", "1", "--marginal"]
        else:
            data = game_to_dict(G.make_chsh_game())
            argv = ["ns-value"]
        data[field] = [1]
        path = tmp_path / "table.json"
        path.write_text(json.dumps(data))
        assert cli.main(argv + [str(path)]) == cli.EXIT_INPUT_ERROR
        assert f"field {field!r} must be a JSON object, not list" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("kind, field, value, message", [
        ("game", "name", 7, "bad field 'name': 7 is not a string"),
        ("game", "parties", 2.9, "bad field 'parties': 2.9 is not an integer"),
        ("game", "inputs", [2.5, "2"],
         "bad field 'inputs': 2.5 is not an integer"),
        ("behavior", "parties", 2.9,
         "bad field 'parties': 2.9 is not an integer"),
        ("behavior", "outputs", [2, 2.5],
         "bad field 'outputs': 2.5 is not an integer"),
        ("game", "inputs", "22", "bad field 'inputs': '22' is not a list"),
        ("game", "outputs", {"2": 0, "3": 1},
         "bad field 'outputs': {'2': 0, '3': 1} is not a list"),
        ("behavior", "inputs", "22",
         "bad field 'inputs': '22' is not a list"),
        ("behavior", "subnormalized", "no",
         "bad field 'subnormalized': 'no' is not a boolean")],
        ids=["game-name", "game-parties", "game-inputs", "behavior-parties",
             "behavior-outputs", "game-inputs-string", "game-outputs-object",
             "behavior-inputs-string", "behavior-subnormalized-string"])
    def test_malformed_game_or_behavior_field_is_input_error(
            self, kind, field, value, message, tmp_path, capsys):
        """A game whose name is not a string, or a game or behavior whose
        sizes are not whole numbers, exits 3 naming the field: it is not
        written into the certificate, nor truncated and solved."""
        if kind == "behavior":
            data = S.behavior_to_dict(G.make_pr_v(G.NoisyPRParams(F(1, 2))))
            argv = ["tons", "--n", "1", "--marginal"]
        else:
            data = game_to_dict(G.make_chsh_game())
            argv = ["ns-value", "--certificate", str(tmp_path / "c.json")]
        data[field] = value
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(data))
        code = cli.main(argv + [str(path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT_ERROR, err
        assert message in err, err

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

    def test_tons_marginal_file(self, tmp_path, capsys):
        """A product marginal read from --marginal gives the same value
        as the bundled one; no formula applies to a file."""
        path = tmp_path / "marginal.json"
        path.write_text(json.dumps(S.behavior_to_dict(G.product_behavior(
            G.make_pr_v(G.NoisyPRParams(F(1, 2))), 2))))
        code = cli.main(["tons", "--v", "1/2", "--n", "2", "--marginal",
                         str(path)])
        assert code == 0
        assert "2,1/2,tons,5/8,,n/a" in capsys.readouterr().out

    def test_tons_three_rounds_fall_back_to_float(self, capsys):
        """Without an explicit mode, n = 3 is solved in float mode and
        says so on stderr."""
        assert cli.main(["tons", "--v", "1/2", "--n", "3"]) == 0
        captured = capsys.readouterr()
        assert "3,1/2,tons,0.5624999999999999,9/16,yes" in captured.out
        assert "note: n = 3 solved in float mode (pass --mode exact to " \
            "insist)" in captured.err

    def test_tons_noise_outside_the_unit_interval(self, capsys):
        assert cli.main(["tons", "--v", "3/2"]) == cli.EXIT_INFEASIBLE == 2
        assert "v = 3/2 outside [0, 1]" in capsys.readouterr().err

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
        assert err.startswith("too large: ")
        assert "slice has at least 4096 variables" in err
        assert "n <= 3 in float mode" in err

    def test_cap_is_checked_in_the_mode_solved(self, monkeypatch, capsys):
        """Without --mode, n = 4 would fall back to float: the float cap
        is reported, before the product marginal is built."""
        def no_product(*args, **kwargs):
            raise AssertionError("the product marginal was built")

        monkeypatch.setattr(cli.games, "product_behavior", no_product)
        code = cli.main(["tons", "--v", "1/2", "--n", "4"])
        assert code == cli.EXIT_INFEASIBLE == 2
        err = capsys.readouterr().err
        assert "slice has at least 4096 variables" in err
        assert "n <= 3 in float mode" in err and "note:" not in err
        for xstar in ("00", "0005"):
            code = cli.main(["tons", "--v", "1/2", "--n", "4", "--xstar",
                             xstar])
            assert code == cli.EXIT_INPUT_ERROR == 3, xstar
            assert "x_star must be 4 symbols" in capsys.readouterr().err

    def test_exact_certification_failure_exit_code(self, monkeypatch,
                                                   capsys):
        """An LP above the size cap of the exact basis solve has no exact
        certificate, which is not "infeasible"."""
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

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("field, argv", [
        ("float_tolerance", ["--mode", "float", "--float-tolerance", "{}",
                             "ns-value", "chsh"]),
        ("orth_tolerance", ["--orth-tolerance", "{}", "ks-attack", "--ks",
                            "peres24"])])
    def test_non_finite_tolerance_is_an_input_error(self, field, argv,
                                                    value, tmp_path, capsys):
        """A NaN or infinite tolerance exits 3 naming its field: a NaN
        float tolerance would let every float optimum pass its check."""
        argv = [a.format(value) for a in argv] + [
            "--certificate" if "ns-value" in argv else "--out",
            str(tmp_path / "out.json")]
        assert cli.main(argv) == cli.EXIT_INPUT_ERROR
        err = capsys.readouterr().err
        assert field in err and "finite and positive" in err, err

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

    @pytest.mark.parametrize("ks, xstar, digest", [
        ("cabello18", 0, "3322769af0a8ee35c2379820a00055ad"
                         "2b0f693ae59a33b33c620cc1bdc19b0b"),
        ("cabello18", 1, "c43a6bd86ccc663b3653351b49c4ccf4"
                         "7b6046ed305c212a51da959d69e49258"),
        ("cabello18", 2, "3be1f7b075136251a36ff3c0ab67b0ad"
                         "81753045507b3988a14a0aeb14d0a9e8"),
        ("cabello18", 3, "21d78dffcc359ef16b58c633ab6fb6db"
                         "bbbf8b8874323f4f368b20332d9873ab"),
        ("cabello18", 4, "523ac0858683efa712298f48d514d3bc"
                         "304ee4e1a1f687f67a3211752ceed33f"),
        ("cabello18", 5, "ea1e536e0d17dbe0f9f7e4142f71007c"
                         "f63b4e97a97ddd3473767f3f3bb16288"),
        ("cabello18", 6, "1ad72858ad98a926e5e68b4832b72327"
                         "ff5205a660da0494b793f0eb85946f0f"),
        ("cabello18", 7, "a1bd1b3d372e0dacc48108b5f553ac5e"
                         "23cf4724c6f8252b557b8d0dbc85c4df"),
        ("cabello18", 8, "21c9e3924382583ff6e808494969fa55"
                         "9b092021348dd52fb152e35d510cb0f4"),
        ("peres24", 0, "49db22ece451f1bc90fb25429992bf89"
                       "828a98a4a13b61bced54f49243a83a2d"),
        ("peres24", 1, "e40c619674d5a2a72c952091034ce53c"
                       "57b94162773ea6113105c288db099938"),
        ("peres24", 2, "168a2654e1382bf7b455ac6b6ca6e85f"
                       "674f66b39bdb44f72d70f81c85b3d76d"),
        ("single_basis", 0, "ffe35cb9614655d327306913c7cce988"
                            "6a364a338b12d799a2da4383be398c63")])
    def test_ks_attack_bytes_are_pinned(self, ks, xstar, digest, tmp_path,
                                        capsys):
        """Each bundled set's attack file and report, byte for byte: the
        blocks the search picks and the table they assemble may not
        move.  Every d = 4 report is the same one."""
        out = tmp_path / "attack.json"
        code = cli.main(["ks-attack", "--ks", ks, "--xstar", str(xstar),
                         "--out", str(out)])
        stdout = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert S.sha256_hex(out.read_bytes()) == digest
        assert S.sha256_hex(stdout.encode()) == (
            "bf54681d79e3bee7e02ca10affed2029f36da52beb887fc03e800f625e278ca0"
            if ks == "single_basis" else
            "41fc21db133f3f994f76942d970b34227bebaf283926df8406982f097cf06aa0")

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

    @pytest.mark.parametrize("edit, message", [
        (lambda data: data.__delitem__("bases"), "missing field 'bases'"),
        (lambda data: data["vectors"][1][0].__setitem__(0, "x"),
         "bad field 'vectors': Invalid literal for Fraction: 'x'"),
        (lambda data: data.__setitem__("dim", 3.5),
         "bad field 'dim': 3.5 is not an integer"),
        (lambda data: data.__setitem__("dim", "three"), "bad field 'dim'"),
        (lambda data: data.__setitem__("dim", math.inf), "bad field 'dim'"),
        (lambda data: [data], "missing field 'vectors'"),
        (lambda data: data.__setitem__("name", 5),
         "bad field 'name': 5 is not a string"),
        (lambda data: data.__setitem__("bases", [[0, 1, 7]]),
         "basis 0 names vector 7, not one of 0..2"),
        (lambda data: data.__setitem__("bases", [[0, 1, -1]]),
         "basis 0 names vector -1, not one of 0..2"),
        (lambda data: data.__setitem__("bases", ["012"]),
         "bad field 'bases': '012' is not a list"),
        (lambda data: data.__setitem__("alice_bases", "0"),
         "bad field 'alice_bases': '0' is not a list"),
        (lambda data: data.__setitem__("bob_bases", "0"),
         "bad field 'bob_bases': '0' is not a list"),
        (lambda data: data["vectors"].__setitem__(0, "100"),
         "bad field 'vectors': '100' is not a list")],
        ids=["no-bases", "non-numeric-component", "fractional-dim",
             "text-dim", "infinite-dim", "not-an-object", "non-string-name",
             "basis-index-past-the-end", "negative-basis-index",
             "basis-as-a-string", "alice-bases-as-a-string",
             "bob-bases-as-a-string", "vector-as-a-string"])
    def test_malformed_ks_file_is_an_input_error(self, edit, message,
                                                 tmp_path, capsys):
        """A KS file with a missing or malformed field exits 3 naming the
        field, as game and behavior files do."""
        data = {"dim": 3, "bases": [[0, 1, 2]],
                "vectors": [[["1", "0"], ["0", "0"], ["0", "0"]],
                            [["0", "0"], ["1", "0"], ["0", "0"]],
                            [["0", "0"], ["0", "0"], ["1", "0"]]]}
        path = tmp_path / "ks.json"
        path.write_text(json.dumps(edit(data) or data))
        code = cli.main(["ks-attack", "--ks", str(path),
                         "--out", str(tmp_path / "attack.json")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT_ERROR, err
        assert err.startswith(f"input error: KS file {path}: {message}"), err

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

    @pytest.mark.parametrize("flag, name", [("--kappa", "kappa"),
                                            ("--omega-star", "omega_star")])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_bounds_parameter_is_infeasible(self, flag, name,
                                                       value, tmp_path,
                                                       capsys):
        """``--kappa nan`` was blamed on omega_star and ``--omega-star
        nan`` on delta; each now names its own parameter."""
        out = tmp_path / "b.csv"
        code = cli.main(["bounds", flag, value, "--out", str(out)])
        assert code == cli.EXIT_INFEASIBLE
        assert capsys.readouterr().err == \
            f"infeasible: {name} must be finite, got {value}\n"
        assert not out.exists()

    @pytest.mark.parametrize("side", ["alice_bases", "bob_bases"])
    def test_empty_basis_list_is_an_input_error(self, side, tmp_path,
                                                capsys):
        """An empty Bob list crashed with ZeroDivisionError, an empty Alice
        list blamed x_star."""
        data = {"dim": 3, "bases": [[0, 1, 2]], side: [],
                "vectors": [[["1", "0"], ["0", "0"], ["0", "0"]],
                            [["0", "0"], ["1", "0"], ["0", "0"]],
                            [["0", "0"], ["0", "0"], ["1", "0"]]]}
        path = tmp_path / "ks.json"
        path.write_text(json.dumps(data))
        code = cli.main(["ks-attack", "--ks", str(path),
                         "--out", str(tmp_path / "attack.json")])
        assert code == cli.EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"input error: KS file {path}: " \
            f"{side} must name at least one basis\n"
        assert not (tmp_path / "attack.json").exists()

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


def test_python_m_nsrand_runs_the_cli():
    """``python -m nsrand`` is the command-line interface."""
    src = str(Path(nsrand.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    run = subprocess.run([sys.executable, "-m", "nsrand", "tons", "--v", "1/2",
                          "--n", "2"], capture_output=True, text=True, env=env,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["n,v,scenario,pg,formula,match",
                                       "2,1/2,tons,5/8,5/8,yes"]


# Each command and its arguments, and each setting with a value.
_COMMANDS = {"ns-value": ["ns-value", "chsh"], "tons": ["tons"],
             "ks-attack": ["ks-attack", "--ks", "cabello18"],
             "curves": ["curves"], "bounds": ["bounds"]}
_SETTINGS = {"--config": "cfg.json", "--mode": "float",
             "--float-tolerance": "1e-3", "--orth-tolerance": "1e-3"}


def test_each_command_takes_only_the_settings_it_reads(tmp_path, capsys,
                                                       monkeypatch):
    """Of the 20 (command, setting) pairs, the 11 a command reads are
    accepted.  Each other one exits 3 naming the command and the flag,
    before or after the subcommand, and writes nothing."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    (tmp_path / "cfg.json").write_text("{}")
    accepted = set()
    for command, argv in _COMMANDS.items():
        for flag, value in _SETTINGS.items():
            for full in ([flag, value, *argv], [*argv, flag, value]):
                try:
                    cli.load_config(cli.build_parser().parse_args(full))
                except S.InputFormatError:
                    assert cli.main(full) == cli.EXIT_INPUT_ERROR, full
                    assert capsys.readouterr().err == \
                        f"input error: {command} does not read {flag}\n"
                else:
                    accepted.add((command, flag))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
    solver = {"--config", "--mode", "--float-tolerance"}
    assert accepted == {(c, f) for c in ("ns-value", "tons", "curves")
                        for f in solver} | {("ks-attack", "--config"),
                                            ("ks-attack", "--orth-tolerance")}


def test_run_config_has_no_hidden_mode_field():
    """Three fields; an unset mode, the command's default, hashes as an
    explicit exact mode does."""
    assert [f.name for f in dataclasses.fields(cli.RunConfig)] == [
        "mode", "float_tolerance", "orth_tolerance"]
    assert cli.RunConfig().mode is None
    assert cli.RunConfig().hashed() == cli.RunConfig("exact").hashed() == {
        "mode": "exact", "float_tolerance": 1e-9, "orth_tolerance": 1e-9}


@pytest.mark.parametrize("argv, out, fields", [
    (["ns-value", "chsh"], "--certificate",
     {"orth_tolerance": 1e-6, "mode": "exact"}),
    (["ks-attack", "--ks", "cabello18"], "--out",
     {"mode": "float", "float_tolerance": 1e-3})])
def test_unread_config_fields_leave_the_default_bytes(argv, out, fields,
                                                      tmp_path, capsys,
                                                      monkeypatch):
    """Config file fields a command does not read are type-checked, not
    applied: the run writes the default run's bytes."""
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(fields))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(argv + [out, str(a)]) == 0
    assert cli.main(argv + [out, str(b), "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_a_command_that_reads_no_setting_ignores_the_config_variable(
        tmp_path, capsys, monkeypatch):
    """``bounds`` reads no setting, so it does not read the file that
    $NSRAND_CONFIG names: with a malformed one it writes the default
    run's bytes.  ``ns-value`` still refuses the same file."""
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.main(["bounds", "--out", str(a)]) == 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1]")
    monkeypatch.setenv(cli.CONFIG_ENV_VAR, str(cfg))
    assert cli.main(["bounds", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    assert cli.main(["ns-value", "chsh", "--certificate",
                     str(tmp_path / "c.json")]) == cli.EXIT_INPUT_ERROR
    assert capsys.readouterr().err == (
        f"input error: config file {cfg}: the top level must be a JSON "
        "object\n")
