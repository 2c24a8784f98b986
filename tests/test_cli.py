import json

import pytest

import ntumatch.cli
from ntumatch import InputError, InvariantError, Matching, couples, exhaustive, gen_random
from ntumatch.cli import main
from ntumatch.exhaustive import _matching_of
from ntumatch.games import BLOCK_KIND, DEFAULT_BUDGET, BlockCertificate
from ntumatch.serialize import (
    certificate_from_json,
    certificate_to_json,
    instance_from_json,
    instance_to_json,
    matching_from_json,
    matching_to_json,
)

from exhaustive_reference import blocked_reference, coalition_maxima_reference, first_by_vector_reference


def _inst(n="4", edges="[[0, 2]]", players="[[0, 1], [2, 3]]"):
    return f'{{"n": {n}, "edges": {edges}, "players": {players}}}'


def _mat(edges):
    return f'{{"edges": {edges}}}'


def _cert(verdict="blocked", coalition="[0]", witness="[[0, 1]]"):
    text = f'{{"verdict": "{verdict}", "kind": "weak"'
    if coalition is not None:
        text += f', "coalition": {coalition}'
    return text + f', "witness": {witness}}}'


# malformed inputs with the messages the parsers gave before their checks
# became one loop per array: bools, floats, strings, nulls, wrong arity,
# nesting, and which of several faults is named
MALFORMED = [
    ("instance", "[1, 2]", "instance must be a JSON object"),
    ("instance", "not json", "invalid JSON for instance: Expecting value: line 1 column 1 (char 0)"),
    ("instance", _inst(n="true"), "instance.n must be an integer"),
    ("instance", _inst(n="4.0"), "instance.n must be an integer"),
    ("instance", _inst(n='"4"'), "instance.n must be an integer"),
    ("instance", _inst(n="null"), "instance.n must be an integer"),
    ("instance", '{"n": 4, "players": [[0, 1], [2, 3]]}', "instance.edges must be an array"),
    ("instance", _inst(edges="null"), "instance.edges must be an array"),
    ("instance", _inst(edges="{}"), "instance.edges must be an array"),
    ("instance", _inst(edges='"01"'), "instance.edges must be an array"),
    ("instance", _inst(edges="[[0, true]]"), "instance edge [0, True] must be a pair of integers"),
    ("instance", _inst(edges="[[false, 1]]"), "instance edge [False, 1] must be a pair of integers"),
    ("instance", _inst(edges="[[0, 1.0]]"), "instance edge [0, 1.0] must be a pair of integers"),
    ("instance", _inst(edges='[["0", 1]]'), "instance edge ['0', 1] must be a pair of integers"),
    ("instance", _inst(edges="[[0, null]]"), "instance edge [0, None] must be a pair of integers"),
    ("instance", _inst(edges="[[0, 1, 2]]"), "instance edge [0, 1, 2] must be a pair of integers"),
    ("instance", _inst(edges="[[[0], 1]]"), "instance edge [[0], 1] must be a pair of integers"),
    ("instance", _inst(edges="[[0]]"), "instance edge [0] must be a pair of integers"),
    ("instance", _inst(edges="[5]"), "instance edge 5 must be a pair of integers"),
    ("instance", _inst(edges="[null]"), "instance edge None must be a pair of integers"),
    ("instance", _inst(edges="[[0, 2], [1, true]]"), "instance edge [1, True] must be a pair of integers"),
    ("instance", _inst(players="null"), "instance.players must be a non-empty array"),
    ("instance", _inst(players="[]"), "instance.players must be a non-empty array"),
    ("instance", _inst(players="{}"), "instance.players must be a non-empty array"),
    ("instance", _inst(players="[[0, true], [2, 3]]"), "player [0, True] must be an array of integers"),
    ("instance", _inst(players="[[0, 1.0], [2, 3]]"), "player [0, 1.0] must be an array of integers"),
    ("instance", _inst(players='[["0", 1], [2, 3]]'), "player ['0', 1] must be an array of integers"),
    ("instance", _inst(players="[[0, null], [2, 3]]"), "player [0, None] must be an array of integers"),
    ("instance", _inst(players="[[[0], 1], [2, 3]]"), "player [[0], 1] must be an array of integers"),
    ("instance", _inst(players="[[0, 1], 2, 3]"), "player 2 must be an array of integers"),
    ("instance", _inst(players="[[0, 1], [2, 3.5], null]"), "player [2, 3.5] must be an array of integers"),
    ("instance", _inst(n="5"), "instance.n is 5, but the players list 4 vertices"),
    ("instance", _inst(n="3"), "instance.n is 3, but the players list 4 vertices"),
    ("instance", _inst(edges="[[1, 1]]"), "self-loop at vertex 1"),
    ("instance", _inst(edges="[[0, 7]]"), "edge (0,7) out of range for n=4"),
    ("instance", _inst(edges="[[-1, 2]]"), "edge (-1,2) out of range for n=4"),
    ("instance", _inst(edges="[[0, 7], [3, 3]]"), "self-loop at vertex 3"),
    ("instance", _inst(edges="[[3, 3], [1, 1]]"), "self-loop at vertex 3"),
    ("instance", _inst(edges="[[2, 0], [0, 2], [9, 1], [1, 5]]"), "edge (1,5) out of range for n=4"),
    ("instance", _inst(players="[[0, 1], [1, 2, 3]]"), "player 1 overlaps another player"),
    ("instance", _inst(players="[[0, 1], [2, 4]]"), "players must partition the vertex set"),
    ("instance", _inst(players="[[0, 1], [], [2, 3]]"), "player 1 is empty"),
    ("instance", '{"n": 2, "edges": [[0, 1]], "players": [[0, 0, 1]]}', "player 0 lists a vertex twice"),
    ("instance", _inst(players="[[0, 1], [2, 3, 2]]"), "player 1 lists a vertex twice"),
    ("matching", "[[0, 1]]", "matching must be a JSON object"),
    (
        "matching",
        "{",
        "invalid JSON for matching: Expecting property name enclosed in double quotes: "
        "line 1 column 2 (char 1)",
    ),
    ("matching", '{"edge": [[0, 1]]}', "matching.edges must be an array"),
    ("matching", _mat("null"), "matching.edges must be an array"),
    ("matching", _mat("3"), "matching.edges must be an array"),
    ("matching", _mat("[[0, true]]"), "matching edge [0, True] must be a pair of integers"),
    ("matching", _mat("[[0, 1.0]]"), "matching edge [0, 1.0] must be a pair of integers"),
    ("matching", _mat('[["0", 1]]'), "matching edge ['0', 1] must be a pair of integers"),
    ("matching", _mat("[[0, null]]"), "matching edge [0, None] must be a pair of integers"),
    ("matching", _mat("[[0, 1, 2]]"), "matching edge [0, 1, 2] must be a pair of integers"),
    ("matching", _mat("[[[0], 1]]"), "matching edge [[0], 1] must be a pair of integers"),
    ("matching", _mat("[[0]]"), "matching edge [0] must be a pair of integers"),
    ("matching", _mat("[2]"), "matching edge 2 must be a pair of integers"),
    ("matching", _mat("[[2, 2]]"), "self-loop at vertex 2"),
    ("matching", _mat("[[0, 1], [2, 1]]"), "edges are not vertex-disjoint at (1,2)"),
    ("matching", _mat("[[0, 1], [1, 2], [3, 3]]"), "self-loop at vertex 3"),
    ("matching", _mat("[[4, 4], [3, 3]]"), "self-loop at vertex 4"),
    # a certificate names its coalition, and the verdict fits the payload
    ("certificate", _cert(coalition=None), "certificate.coalition must be an array of integers"),
    (
        "certificate",
        _cert("in_core", coalition=None, witness="[]"),
        "certificate.coalition must be an array of integers",
    ),
    ("certificate", _cert(coalition="null"), "certificate.coalition must be an array of integers"),
    ("certificate", _cert(coalition="[]"), "a blocked certificate must name a non-empty coalition"),
    (
        "certificate",
        _cert(coalition="[]", witness="[]"),
        "a blocked certificate must name a non-empty coalition",
    ),
    (
        "certificate",
        _cert("in_core", coalition="[3]", witness="[]"),
        "an in_core certificate must have an empty coalition and witness",
    ),
    (
        "certificate",
        _cert("in_core", coalition="[]"),
        "an in_core certificate must have an empty coalition and witness",
    ),
    (
        "certificate",
        _cert("in_core", coalition="[3]", witness="[[0, 1], [2, 3]]"),
        "an in_core certificate must have an empty coalition and witness",
    ),
]


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

    @pytest.mark.parametrize(
        "witness,message",
        [
            (None, "certificate.witness must be an array"),
            ("3", "certificate.witness must be an array"),
            ("null", "certificate.witness must be an array"),
            ("[[0]]", "certificate.witness edge [0] must be a pair of integers"),
            ("[[0, true]]", "certificate.witness edge [0, True] must be a pair of integers"),
        ],
    )
    def test_certificate_witness_required_and_named(self, witness, message):
        # a blocked certificate without its witness must not read as one
        # whose witness is the empty matching
        text = '{"verdict": "blocked", "kind": "weak", "coalition": [0]'
        text += "}" if witness is None else f', "witness": {witness}}}'
        with pytest.raises(InputError) as exc:
            certificate_from_json(text)
        assert str(exc.value) == message

    def test_certificate_payloads_that_fit_their_verdict(self):
        assert certificate_from_json(_cert())["coalition"] == (0,)
        empty = certificate_from_json(_cert("in_core", coalition="[]", witness="[]"))
        assert empty["coalition"] == () and empty["witness"] == Matching()

    @pytest.mark.parametrize("kind,text,message", MALFORMED)
    def test_malformed_input_messages(self, kind, text, message):
        parse = {
            "instance": instance_from_json,
            "matching": matching_from_json,
            "certificate": certificate_from_json,
        }[kind]
        with pytest.raises(InputError) as exc:
            parse(text)
        assert str(exc.value) == message


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

    def test_parser_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        built = []
        real = ntumatch.cli.build_parser
        monkeypatch.setattr(ntumatch.cli, "_parser", None)
        monkeypatch.setattr(ntumatch.cli, "build_parser", lambda: built.append(1) or real())
        inst = tmp_path / "inst.json"
        for _ in range(3):
            assert main(["gen", "example1", "--out", str(inst)]) == 0
        assert main(["verify", "--core", "weak"]) == 2
        assert main(["oracle", "matchings", "--instance", str(inst)]) == 0
        assert main(["solve", "--core", "weak", "--instance", str(inst), "--budget", "0"]) == 2
        assert len(built) == 1
        capsys.readouterr()

    def test_reused_parser_answers_as_a_fresh_one(self, tmp_path, capsys, monkeypatch):
        inst, mat = tmp_path / "inst.json", tmp_path / "m.json"
        main(["gen", "random", "--n", "40", "--edge-prob", "0.08", "--seed", "3", "--out", str(inst)])
        main(["solve", "--core", "weak", "--instance", str(inst), "--out", str(mat)])
        capsys.readouterr()

        def run(argv, fresh):
            if fresh:
                monkeypatch.setattr(ntumatch.cli, "_parser", None)
            return main(argv), capsys.readouterr()

        usage = ["verify", "--core", "weak"]
        verify = ["verify", "--core", "strong", "--instance", str(inst), "--matching", str(mat)]
        first = run(usage, fresh=True)
        # argparse's usage error still reaches the captured stderr
        assert first[0] == 2 and first[1].out == ""
        assert "usage: ntumatch verify" in first[1].err and "required" in first[1].err
        assert run(usage, fresh=False) == first
        after_error = run(verify, fresh=False)
        assert after_error[1].out.startswith("{")
        assert run(verify, fresh=True) == after_error

    @pytest.mark.parametrize("command", ["solve", "verify"])
    @pytest.mark.parametrize("method", ["oracle", "const"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_work_cap_below_one_is_usage_error(
        self, tmp_path, capsys, monkeypatch, command, method, value
    ):
        inst = tmp_path / "inst.json"
        mat = tmp_path / "m.json"
        main(["gen", "example1", "--out", str(inst), "--matching-out", str(mat)])
        capsys.readouterr()

        def unread(text):
            raise AssertionError("instance read before the arguments were checked")

        monkeypatch.setattr(ntumatch.cli.serialize, "instance_from_json", unread)
        argv = [command, "--core", "weak", "--instance", str(inst), "--method", method, "--budget", value]
        if command == "verify":
            argv += ["--matching", str(mat)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument --budget: must be at least 1, got {int(value)}" in captured.err

    @pytest.mark.parametrize("command", ["verify", "solve", "core-empty", "oracle"])
    def test_cap_flag_is_gone(self, tmp_path, capsys, command):
        # --budget is the one work cap of every command
        inst = tmp_path / "inst.json"
        mat = tmp_path / "m.json"
        main(["gen", "example1", "--out", str(inst), "--matching-out", str(mat)])
        capsys.readouterr()
        argv = [command, "--core", "weak", "--instance", str(inst), "--cap", "5"]
        if command == "oracle":
            argv.insert(1, "core")
        if command == "verify":
            argv += ["--matching", str(mat)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: --cap 5" in captured.err

    def test_auto_sends_three_vertex_players_to_const(self, tmp_path, capsys, monkeypatch):
        # eight players of three vertices: auto used to pick the oracle,
        # which exited 3 on its matching cap after seconds
        inst = tmp_path / "inst.json"
        main(["gen", "random", "--n", "24", "--class-cap", "3", "--seed", "5", "--out", str(inst)])
        capsys.readouterr()

        def no_oracle(*args, **kwargs):
            raise AssertionError("auto ran the oracle")

        monkeypatch.setattr(exhaustive, "oracle_core", no_oracle)
        for command in ("solve", "core-empty"):
            for core in ("weak", "strong"):
                assert main([command, "--core", core, "--instance", str(inst)]) == 0
                matching_from_json(capsys.readouterr().out).validate_for(
                    instance_from_json(inst.read_text()).graph
                )

    def test_const_verify_honours_budget(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        mat = tmp_path / "m.json"
        main(["gen", "example1", "--out", str(inst), "--matching-out", str(mat)])
        capsys.readouterr()
        argv = ["verify", "--core", "weak", "--method", "const",
                "--instance", str(inst), "--matching", str(mat)]
        assert main(argv) == 1
        capsys.readouterr()
        assert main([*argv, "--budget", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: resource: block search visited more than 1 coalitions\n"

    def test_lattice_above_default_budget_is_answered(self, tmp_path, capsys):
        # twelve players of three vertices: a lattice of 4**12 > 10**7
        # points, which the old up-front budget check refused; the frontier
        # is one vector, and the block search visits 4,090 coalitions
        inst = tmp_path / "inst.json"
        main(["gen", "random", "--n", "36", "--class-cap", "3", "--seed", "5", "--out", str(inst)])
        capsys.readouterr()
        players = instance_from_json(inst.read_text()).players
        assert len(players) == 12 and all(len(p) == 3 for p in players)
        for core in ("weak", "strong"):
            assert main(["core-empty", "--core", core, "--instance", str(inst)]) == 0
            assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("n, class_cap, p, seed", [(8, 2, 0.4, 41), (9, 3, 0.35, 42), (10, 2, 0.3, 43)])
    def test_oracle_outputs_equal_reference(self, tmp_path, capsys, n, class_cap, p, seed):
        # every output of the oracle method against the one built from the
        # reference phases, which build every coalition's table: verify on
        # each achievable vector's first matching, solve and oracle core
        path, mat = tmp_path / "inst.json", tmp_path / "m.json"
        path.write_text(instance_to_json(gen_random(n, class_cap, p, seed)))
        inst = instance_from_json(path.read_text())  # players in the file's order
        first = first_by_vector_reference(inst, DEFAULT_BUDGET)
        realize = {vec: _matching_of(inst.graph, chosen) for vec, (_, chosen) in first.items()}
        for core in ("weak", "strong"):
            maxima = coalition_maxima_reference(first, inst.num_players)
            blocked = blocked_reference(maxima, first, BLOCK_KIND[core] == "strong")
            in_core = [vec for vec in sorted(first) if vec not in blocked]
            payload = {"kind": core, "in_core_vectors": [list(v) for v in in_core], "empty": not in_core}
            assert main(["oracle", "core", "--core", core, "--instance", str(path)]) == 0
            assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
            rc = main(["solve", "--core", core, "--method", "oracle", "--instance", str(path)])
            solved = matching_to_json(realize[in_core[-1]]) if in_core else ""
            assert (rc, capsys.readouterr().out) == (0 if in_core else 1, solved), core
            for vec, m in realize.items():
                mat.write_text(matching_to_json(m))
                argv = ["verify", "--core", core, "--method", "oracle", "--instance", str(path)]
                rc = main([*argv, "--matching", str(mat)])
                hit = blocked.get(vec)
                cert = hit and BlockCertificate(hit[0], realize[hit[1]], BLOCK_KIND[core])
                assert (rc, capsys.readouterr().out) == (int(bool(hit)), certificate_to_json(core, cert)), vec

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
        rc = main(["oracle", "matchings", "--instance", str(inst), "--budget", "1000"])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: resource:")
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--out", "--matching-out", "--map-out"])
    def test_gen_unwritable_output_exit_2(self, tmp_path, capsys, flag):
        bad = str(tmp_path / "missing" / "x.json")
        assert main(["gen", "example1", flag, bad]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: input: cannot write {bad}: ")
        assert captured.err.count("\n") == 1
        if flag == "--out":
            assert captured.out == ""

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command):
        inst, mat = tmp_path / "inst.json", tmp_path / "m.json"
        main(["gen", "random", "--n", "8", "--seed", "3", "--out", str(inst)])
        main(["solve", "--core", "weak", "--instance", str(inst), "--out", str(mat)])
        capsys.readouterr()
        bad = str(tmp_path / "missing" / "out.json")
        argv = [command, "--core", "weak", "--instance", str(inst), "--out", bad]
        if command == "verify":
            argv += ["--matching", str(mat)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: input: cannot write {bad}: ")

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
