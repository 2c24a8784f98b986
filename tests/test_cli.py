import json

import pytest

import ntumatch.cli
from ntumatch import InputError, InvariantError, Matching, couples, exhaustive, gen_random
from ntumatch.cli import main
from ntumatch.games import BlockCertificate
from ntumatch.serialize import (
    certificate_from_json,
    certificate_to_json,
    instance_from_json,
    instance_to_json,
    matching_from_json,
    matching_to_json,
)


class TestRoundTrip:
    def test_instance(self):
        inst = gen_random(9, 3, 0.4, seed=11)
        again = instance_from_json(instance_to_json(inst))
        assert again.graph == inst.graph
        assert set(again.players) == set(inst.players)
        assert instance_to_json(again) == instance_to_json(inst)

    def test_matching(self):
        m = Matching([(3, 1), (0, 5)])
        assert matching_from_json(matching_to_json(m)) == m

    def test_certificate(self):
        cert = BlockCertificate((1, 2), Matching([(4, 5)]), "strong")
        text = certificate_to_json("weak", cert)
        obj = certificate_from_json(text)
        assert obj["verdict"] == "blocked"
        assert obj["kind"] == "weak"
        assert obj["coalition"] == (1, 2)
        assert obj["witness"] == Matching([(4, 5)])

    def test_rejects_malformed(self):
        from ntumatch import InputError

        with pytest.raises(InputError):
            instance_from_json("[1,2]")
        with pytest.raises(InputError):
            matching_from_json('{"edges": [[0]]}')

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": true, "edges": [], "players": [[0]]}',
            '{"n": 2, "edges": [[0, true]], "players": [[0, 1]]}',
            '{"n": 2, "edges": [], "players": [[false, 1]]}',
        ],
    )
    def test_instance_rejects_booleans(self, text):
        with pytest.raises(InputError):
            instance_from_json(text)

    @pytest.mark.parametrize("n", [1, 3])
    def test_instance_rejects_n_other_than_player_vertices(self, n):
        with pytest.raises(InputError, match="players list 2 vertices"):
            instance_from_json(f'{{"n": {n}, "edges": [], "players": [[0], [1]]}}')

    def test_missing_edges_rejected(self):
        # the writers always emit the key; a missing one is no empty edge set
        with pytest.raises(InputError, match="edges"):
            instance_from_json('{"n": 2, "players": [[0], [1]]}')
        with pytest.raises(InputError, match="edges"):
            matching_from_json('{"edge": [[0, 1]]}')

    def test_matching_and_certificate_reject_booleans(self):
        with pytest.raises(InputError):
            matching_from_json('{"edges": [[false, 1]]}')
        with pytest.raises(InputError):
            certificate_from_json(
                '{"verdict": "blocked", "kind": "weak", "coalition": [true], "witness": []}'
            )


class TestCli:
    def test_gen_deterministic(self, tmp_path, capsys):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert main(["gen", "example1", "--out", str(out1)]) == 0
        assert main(["gen", "example1", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_example1_member_flow(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        mat = tmp_path / "m.json"
        cert = tmp_path / "cert.json"
        assert (
            main(
                [
                    "gen",
                    "example1",
                    "--out",
                    str(inst),
                    "--matching-out",
                    str(mat),
                ]
            )
            == 0
        )
        rc = main(
            [
                "verify",
                "--core",
                "weak",
                "--instance",
                str(inst),
                "--matching",
                str(mat),
                "--method",
                "const",
                "--out",
                str(cert),
            ]
        )
        assert rc == 1
        capsys.readouterr()
        payload = certificate_from_json(cert.read_text())
        assert payload["verdict"] == "blocked"
        # the emitted certificate re-validates against the instance
        from ntumatch.games import utility

        inst_obj = instance_from_json(inst.read_text())
        m_obj = matching_from_json(mat.read_text())
        block = BlockCertificate(
            payload["coalition"],
            payload["witness"],
            "strong" if payload["kind"] == "weak" else "weak",
        )
        block.validate(inst_obj, utility(inst_obj, m_obj))

    def test_core_empty_on_example1(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        main(["gen", "example1", "--out", str(inst)])
        rc = main(
            ["core-empty", "--core", "weak", "--instance", str(inst), "--method", "const"]
        )
        assert rc == 1
        capsys.readouterr()

    def test_couples_solve_never_empty(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        sol = tmp_path / "sol.json"
        for seed in (1, 2, 3):
            main(
                [
                    "gen",
                    "random",
                    "--n",
                    "12",
                    "--class-cap",
                    "2",
                    "--edge-prob",
                    "0.35",
                    "--seed",
                    str(seed),
                    "--out",
                    str(inst),
                ]
            )
            rc = main(
                [
                    "solve",
                    "--core",
                    "weak",
                    "--instance",
                    str(inst),
                    "--out",
                    str(sol),
                ]
            )
            assert rc == 0
            rc = main(
                [
                    "verify",
                    "--core",
                    "weak",
                    "--instance",
                    str(inst),
                    "--matching",
                    str(sol),
                ]
            )
            assert rc == 0
            capsys.readouterr()

    def test_x3c_yes_instance_blocked(self, tmp_path, capsys):
        x3c = tmp_path / "x3c.json"
        x3c.write_text('{"elements": 3, "sets": [[1, 2, 3]]}')
        inst = tmp_path / "inst.json"
        mat = tmp_path / "m.json"
        assert (
            main(
                [
                    "gen",
                    "x3c-weak",
                    "--input",
                    str(x3c),
                    "--out",
                    str(inst),
                    "--matching-out",
                    str(mat),
                ]
            )
            == 0
        )
        cert = tmp_path / "cert.json"
        rc = main(
            [
                "verify",
                "--core",
                "weak",
                "--instance",
                str(inst),
                "--matching",
                str(mat),
                "--method",
                "const",
                "--out",
                str(cert),
            ]
        )
        assert rc == 1
        capsys.readouterr()
        assert certificate_from_json(cert.read_text())["verdict"] == "blocked"

    @pytest.mark.parametrize(
        "kind,text",
        [
            ("x3c-weak", "not json"),
            ("x3c-strong", '{"sets": [[1, 2, 3]]}'),
            ("sat-weak", '[[1, "a", 3]]'),
        ],
        ids=["non-json", "missing-elements", "string-literal"],
    )
    def test_gen_malformed_input_exit_2(self, tmp_path, capsys, kind, text):
        # exit 1 means "blocked / core empty", so a bad input file must not
        # reach the generators and fail there
        src = tmp_path / "in.json"
        src.write_text(text)
        assert main(["gen", kind, "--input", str(src)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: input: ")

    def test_usage_error(self, capsys):
        assert main(["verify", "--core", "weak"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("flag,method", [("--cap", "oracle"), ("--budget", "const")])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_work_cap_below_one_is_usage_error(
        self, tmp_path, capsys, monkeypatch, command, flag, method, value
    ):
        inst = tmp_path / "inst.json"
        mat = tmp_path / "m.json"
        main(["gen", "example1", "--out", str(inst), "--matching-out", str(mat)])
        capsys.readouterr()

        def unread(text):
            raise AssertionError("instance read before the arguments were checked")

        monkeypatch.setattr(ntumatch.cli.serialize, "instance_from_json", unread)
        argv = [command, "--core", "weak", "--instance", str(inst), "--method", method, flag, value]
        if command == "verify":
            argv += ["--matching", str(mat)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: must be at least 1, got {int(value)}" in captured.err

    def test_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert (
            main(
                [
                    "verify",
                    "--core",
                    "weak",
                    "--instance",
                    str(bad),
                    "--matching",
                    str(bad),
                ]
            )
            == 2
        )
        capsys.readouterr()

    def test_method_mismatch(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        main(["gen", "example1", "--out", str(inst)])
        rc = main(
            [
                "solve",
                "--core",
                "weak",
                "--instance",
                str(inst),
                "--method",
                "couples",
            ]
        )
        assert rc == 3
        capsys.readouterr()

    def test_oracle_subcommand(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        main(
            [
                "gen",
                "random",
                "--n",
                "6",
                "--class-cap",
                "3",
                "--edge-prob",
                "0.5",
                "--seed",
                "4",
                "--out",
                str(inst),
            ]
        )
        capsys.readouterr()
        assert main(["oracle", "matchings", "--instance", str(inst)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["matchings"] >= 1
        assert main(["oracle", "core", "--instance", str(inst), "--core", "weak"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "in_core_vectors" in payload

    def test_oracle_realizes_at_most_one_matching(self, tmp_path, capsys, monkeypatch):
        # this instance's weak core is non-empty and its strong core empty
        inst, mat = tmp_path / "inst.json", tmp_path / "m.json"
        main(["gen", "random", "--n", "8", "--class-cap", "3", "--edge-prob", "0.4",
              "--seed", "132", "--out", str(inst)])
        real = exhaustive._matching_of
        calls = []
        monkeypatch.setattr(
            exhaustive, "_matching_of", lambda g, chosen: calls.append(chosen) or real(g, chosen)
        )

        def realized(*argv):
            calls.clear()
            rc = main([*argv, "--instance", str(inst)])
            return rc, len(calls)

        oracle = ("--method", "oracle")
        assert realized("solve", "--core", "weak", *oracle, "--out", str(mat)) == (0, 1)
        assert realized("solve", "--core", "strong", *oracle) == (1, 0)
        assert realized("verify", "--core", "weak", *oracle, "--matching", str(mat)) == (0, 0)
        assert realized("verify", "--core", "strong", *oracle, "--matching", str(mat)) == (1, 1)
        assert realized("oracle", "core", "--core", "weak") == (0, 0)
        capsys.readouterr()

    def test_missing_edges_exit_2(self, tmp_path, capsys):
        # read as "no edges", this matching would come out blocked (exit 1)
        inst, mat = tmp_path / "inst.json", tmp_path / "m.json"
        inst.write_text('{"n": 2, "edges": [[0, 1]], "players": [[0], [1]]}')
        mat.write_text('{"edge": [[0, 1]]}')
        rc = main(["verify", "--core", "weak", "--instance", str(inst), "--matching", str(mat)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: input:")

    def test_oracle_long_path_resource_exit_3(self, tmp_path, capsys):
        n = 1300
        inst = tmp_path / "path.json"
        inst.write_text(
            json.dumps(
                {
                    "n": n,
                    "edges": [[i, i + 1] for i in range(n - 1)],
                    "players": [[i, i + 1] for i in range(0, n, 2)],
                }
            )
        )
        rc = main(["oracle", "matchings", "--instance", str(inst), "--cap", "1000"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: resource:")
        assert captured.out == ""

    def test_boolean_ids_exit_2(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        inst.write_text('{"n": 2, "edges": [[0, true]], "players": [[0, 1]]}')
        rc = main(["solve", "--core", "weak", "--instance", str(inst)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: input:")

    def test_huge_n_exit_2_before_allocation(self, tmp_path, capsys, monkeypatch):
        import ntumatch.serialize

        real_graph = ntumatch.serialize.Graph

        def sized_graph(n, edges=()):
            assert n < 10**6, "Graph allocated before n was checked"
            return real_graph(n, edges)

        monkeypatch.setattr(ntumatch.serialize, "Graph", sized_graph)
        inst = tmp_path / "inst.json"
        inst.write_text('{"n": 1000000000000, "edges": [], "players": [[0], [1]]}')
        rc = main(["core-empty", "--core", "weak", "--method", "const", "--instance", str(inst)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "fault", [InvariantError("broken splice"), RecursionError("too deep")]
    )
    def test_internal_fault_exit_4(self, tmp_path, capsys, monkeypatch, fault):
        inst = tmp_path / "inst.json"
        main(["gen", "random", "--n", "6", "--seed", "1", "--out", str(inst)])
        capsys.readouterr()

        def boom(cg):
            raise fault

        monkeypatch.setattr(couples, "strong_core_solve", boom)
        rc = main(["solve", "--core", "strong", "--method", "couples", "--instance", str(inst)])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: internal: {fault}\n"
