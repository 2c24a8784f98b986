"""Golden CLI outputs: the exit code and the sha256 of stdout of ``gen``,
``solve``, ``core-empty`` and ``verify`` for each engine on seeded
instances.  The digests were recorded before the parser, the writers and
the augmenting loop were rewritten for speed, so they pin every output
byte of those paths.  Each instance is also read from a scrambled copy
(edges reversed and shuffled, each player's vertices reversed), which
takes the checked fallback parse, and must give the same bytes.
"""

import hashlib
import json
import random

from ntumatch import Matching, max_matching
from ntumatch.cli import main
from ntumatch.serialize import instance_from_json, matching_to_json

# (engine, n, class cap, edge probability, seed)
INSTANCES = [
    ("couples", 23, 2, 0.12, 1),
    ("couples", 40, 2, 0.08, 2),
    ("couples", 60, 2, 0.05, 3),
    ("const", 16, 2, 0.2, 4),
    ("const", 15, 3, 0.25, 5),
    ("oracle", 10, 2, 0.3, 6),
    ("oracle", 11, 3, 0.3, 7),
]

# (exit code, sha256 of stdout, stderr) per case
GOLDEN = {
    'couples-23-1 gen': (0, 'cba229052ab44c810741305a3f81198240684095cf9944a6111e5bdfa88970d6', ''),
    'couples-23-1 solve weak': (0, '2386cbed797bb982995bbdfcd62eca1fc5689d0c2101966f06ca8b15f28f5def', ''),
    'couples-23-1 core-empty weak': (0, '2386cbed797bb982995bbdfcd62eca1fc5689d0c2101966f06ca8b15f28f5def', ''),
    'couples-23-1 verify weak max': (1, 'a8726ce7f89f8a1e5d952f048c8361f82190379c1d71577b89a7cf1f5643fc90', ''),
    'couples-23-1 verify weak max-less-one': (1, 'a8726ce7f89f8a1e5d952f048c8361f82190379c1d71577b89a7cf1f5643fc90', ''),
    'couples-23-1 solve strong': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: strong core is empty\n'),
    'couples-23-1 core-empty strong': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: strong core is empty\n'),
    'couples-23-1 verify strong max': (1, 'c4e8a7f2827c0a8f36a1a20edde2b6a1abc859cc79f16dc0128c2f0d28e582ef', ''),
    'couples-23-1 verify strong max-less-one': (1, 'c4e8a7f2827c0a8f36a1a20edde2b6a1abc859cc79f16dc0128c2f0d28e582ef', ''),
    'couples-40-2 gen': (0, '90a6f51626405c230242652631508a854831c302b7e9075cb4c97db7fa8e3925', ''),
    'couples-40-2 solve weak': (0, 'd588dab2bc140a837c3675fd43b833f5c5ba687154e695c52019f9db8b805dda', ''),
    'couples-40-2 core-empty weak': (0, 'd588dab2bc140a837c3675fd43b833f5c5ba687154e695c52019f9db8b805dda', ''),
    'couples-40-2 verify weak max': (0, 'f0e3377a8df7450989f9bb4524746511ed6e6e33c11b17ccf996819ee2ea7ee9', ''),
    'couples-40-2 verify weak max-less-one': (0, 'f0e3377a8df7450989f9bb4524746511ed6e6e33c11b17ccf996819ee2ea7ee9', ''),
    'couples-40-2 solve strong': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: strong core is empty\n'),
    'couples-40-2 core-empty strong': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: strong core is empty\n'),
    'couples-40-2 verify strong max': (1, '2eae4de9f70d3c072a6aebc5e5f8ac7791e8ec3e266cde89f1da878cf82a7530', ''),
    'couples-40-2 verify strong max-less-one': (1, '34b6c4af662147f6769b9f729e4414f9534a74164e4ebaddc58c613caba40fe4', ''),
    'couples-60-3 gen': (0, '7a629fa71bf4d5804035520d415e80e4a04d607e3f9cea9393aa5b586cd4a97b', ''),
    'couples-60-3 solve weak': (0, '1b7ab4405a42947bfb00f615dbc864d17b3ac553f293bc59ccd3abd92a931e71', ''),
    'couples-60-3 core-empty weak': (0, '1b7ab4405a42947bfb00f615dbc864d17b3ac553f293bc59ccd3abd92a931e71', ''),
    'couples-60-3 verify weak max': (0, 'f0e3377a8df7450989f9bb4524746511ed6e6e33c11b17ccf996819ee2ea7ee9', ''),
    'couples-60-3 verify weak max-less-one': (0, 'f0e3377a8df7450989f9bb4524746511ed6e6e33c11b17ccf996819ee2ea7ee9', ''),
    'couples-60-3 solve strong': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: strong core is empty\n'),
    'couples-60-3 core-empty strong': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: strong core is empty\n'),
    'couples-60-3 verify strong max': (1, '51addd0a52b9117f8655bc5af5c4b02e8e8af18b42c9e687ac159f26b28d3843', ''),
    'couples-60-3 verify strong max-less-one': (1, 'bff55101038d0327bfaf2ec9e08a1985177d26a14316628291e5a3eff5c8a921', ''),
    'const-16-4 gen': (0, '1975f4698ca9485da86362aca02e9998868dfbbffdd67f0b7a181833263c4671', ''),
    'const-16-4 solve weak': (0, 'db96da6ad0548a3a1c60cf919fd6369c384766daafe91088d95bdeb0b1b5b635', ''),
    'const-16-4 core-empty weak': (0, 'db96da6ad0548a3a1c60cf919fd6369c384766daafe91088d95bdeb0b1b5b635', ''),
    'const-16-4 verify weak max': (0, 'f0e3377a8df7450989f9bb4524746511ed6e6e33c11b17ccf996819ee2ea7ee9', ''),
    'const-16-4 verify weak max-less-one': (1, '738545bacdae2c4a450e4537a338c2f9bb996453b0413fcd6fd97f0a219f6a7f', ''),
    'const-16-4 solve strong': (0, 'db96da6ad0548a3a1c60cf919fd6369c384766daafe91088d95bdeb0b1b5b635', ''),
    'const-16-4 core-empty strong': (0, 'db96da6ad0548a3a1c60cf919fd6369c384766daafe91088d95bdeb0b1b5b635', ''),
    'const-16-4 verify strong max': (0, '6c0e818bea808c231c40754a2780a8fb6ed0ddcf0bdf9fc6e45a280e31144849', ''),
    'const-16-4 verify strong max-less-one': (1, '5208512d09dfe804815be019a7a17e49093a4cd0df5c4e991c2a2121ba03cc99', ''),
    'const-15-5 gen': (0, '51717cf5683f2d5a1659f342db81d7b39d688fa768d6bed24d288283f80ee390', ''),
    'const-15-5 solve weak': (0, 'b33af5d48ea6efb59e72a1a76d849489fce804f1f691766eb880075fb06003ed', ''),
    'const-15-5 core-empty weak': (0, 'b33af5d48ea6efb59e72a1a76d849489fce804f1f691766eb880075fb06003ed', ''),
    'const-15-5 verify weak max': (0, 'f0e3377a8df7450989f9bb4524746511ed6e6e33c11b17ccf996819ee2ea7ee9', ''),
    'const-15-5 verify weak max-less-one': (1, '97c9a67c235292819208aa423c2c368dcfe18dfe4cd5a1077da9fdb0cb0ad05a', ''),
    'const-15-5 solve strong': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: strong core is empty\n'),
    'const-15-5 core-empty strong': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: strong core is empty\n'),
    'const-15-5 verify strong max': (1, 'cfedb7b38bbd1c51fe7d87a246e4e08ce3bcf446ecde88a778f8a177834f16a3', ''),
    'const-15-5 verify strong max-less-one': (1, 'beabfa8aa8f14b229ac69cc08200c88f6d006b1c32466da2d6d915869d6cca13', ''),
    'oracle-10-6 gen': (0, 'd30338ccaa1c88f9599f4db0a3f8209586aea339d970d58494da307de570f62a', ''),
    'oracle-10-6 solve weak': (0, 'e29108e2767461c5e6928997f44edb26635f9ff86ad12a03f706063331554881', ''),
    'oracle-10-6 core-empty weak': (0, 'e29108e2767461c5e6928997f44edb26635f9ff86ad12a03f706063331554881', ''),
    'oracle-10-6 verify weak max': (0, 'f0e3377a8df7450989f9bb4524746511ed6e6e33c11b17ccf996819ee2ea7ee9', ''),
    'oracle-10-6 verify weak max-less-one': (0, 'f0e3377a8df7450989f9bb4524746511ed6e6e33c11b17ccf996819ee2ea7ee9', ''),
    'oracle-10-6 solve strong': (0, 'b45893cfc002544ad759f0976dd06f560da067b0f60af0f349302a3c91eed8d0', ''),
    'oracle-10-6 core-empty strong': (0, 'b45893cfc002544ad759f0976dd06f560da067b0f60af0f349302a3c91eed8d0', ''),
    'oracle-10-6 verify strong max': (0, '6c0e818bea808c231c40754a2780a8fb6ed0ddcf0bdf9fc6e45a280e31144849', ''),
    'oracle-10-6 verify strong max-less-one': (1, '1e8345d7a5da771bd903d6049a1fbd7b2a28b93939fb9746ddcb25ad2ecbb63e', ''),
    'oracle-11-7 gen': (0, 'af2bfd3f911d27126d5871bad3ffb32d76a414ee776b3878c6583b4597ad073f', ''),
    'oracle-11-7 solve weak': (0, '72947a6f4f9f1b88cafb5d1d517d49e50aa5127ea238c3a947dee89faf321cb4', ''),
    'oracle-11-7 core-empty weak': (0, '72947a6f4f9f1b88cafb5d1d517d49e50aa5127ea238c3a947dee89faf321cb4', ''),
    'oracle-11-7 verify weak max': (0, 'f0e3377a8df7450989f9bb4524746511ed6e6e33c11b17ccf996819ee2ea7ee9', ''),
    'oracle-11-7 verify weak max-less-one': (1, '940fd12e09d3be583bf690a12d041a3dd908a7fdf30deb774322186939e40b4f', ''),
    'oracle-11-7 solve strong': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: strong core is empty\n'),
    'oracle-11-7 core-empty strong': (1, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855', 'error: strong core is empty\n'),
    'oracle-11-7 verify strong max': (1, '218c164a6dfe3730c418befb6a7c32aeda82e9b2b37fab272bd9936651da756c', ''),
    'oracle-11-7 verify strong max-less-one': (1, 'f6a99338e1c5942e1b97953940902b3570ac2b9b5e322be89bd20e4f5915af44', ''),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _scrambled(text: str, seed: int) -> str:
    obj = json.loads(text)
    rng = random.Random(seed)
    edges = [[v, u] for u, v in obj["edges"]]
    rng.shuffle(edges)
    players = [p[::-1] for p in obj["players"]]
    return json.dumps({"n": obj["n"], "edges": edges, "players": players})


def _run(capsys, argv) -> tuple:
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def golden_cases(tmp_path, capsys):
    """Yields ``(case name, exit code, stdout, stderr)`` for every case,
    running each query on the canonical and on the scrambled instance
    file; the two runs share a name."""
    for engine, n, cap, p, seed in INSTANCES:
        tag = f"{engine}-{n}-{seed}"
        path = tmp_path / f"{tag}.json"
        argv = ["gen", "random", "--n", str(n), "--class-cap", str(cap)]
        argv += ["--edge-prob", str(p), "--seed", str(seed), "--out", str(path)]
        rc, out, err = _run(capsys, argv)
        yield f"{tag} gen", rc, out, err
        scrambled = tmp_path / f"{tag}-scrambled.json"
        scrambled.write_text(_scrambled(out, seed), encoding="utf-8")
        best = max_matching(instance_from_json(out).graph)
        matchings = {"max": best, "max-less-one": Matching(best.edges[1:])}
        mpaths = {}
        for name, m in matchings.items():
            mpaths[name] = tmp_path / f"{tag}-{name}.json"
            mpaths[name].write_text(matching_to_json(m), encoding="utf-8")
        for ipath in (path, scrambled):
            common = ["--method", engine, "--instance", str(ipath)]
            for core in ("weak", "strong"):
                for command in ("solve", "core-empty"):
                    rc, out, err = _run(capsys, [command, "--core", core, *common])
                    yield f"{tag} {command} {core}", rc, out, err
                for name, mpath in mpaths.items():
                    argv = ["verify", "--core", core, *common, "--matching", str(mpath)]
                    rc, out, err = _run(capsys, argv)
                    yield f"{tag} verify {core} {name}", rc, out, err


def test_cli_outputs_match_recorded_digests(tmp_path, capsys):
    seen = {}
    for name, rc, out, err in golden_cases(tmp_path, capsys):
        got = (rc, _sha(out), err)
        assert seen.setdefault(name, got) == got, f"{name}: scrambled input changed the output"
        assert got == GOLDEN[name], name
    assert seen.keys() == GOLDEN.keys()
