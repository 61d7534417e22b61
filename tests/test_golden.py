"""Golden CLI corpus: the README examples at n <= 5, byte for byte.

Each case runs `cli.main` in-process inside a fresh temporary directory
and compares sha256 digests of its stdout (with the temporary path
replaced by `<tmp>`, since `gen --out` and `witness --out` print it) and
of every file it wrote.  The digests were recorded at commit bc5e705,
before the scan pipeline in `certify` was merged into one; any change to
a report or an emitted file shows up here.
"""

import hashlib
from pathlib import Path

import pytest

from ingletonlp import certify
from ingletonlp.cli import main

VIOLATOR4 = (
    "n=4\n{1}=1/2 {2}=1/2 {1,2}=3/4 {3}=1/2 {1,3}=3/4 {2,3}=3/4 {1,2,3}=1"
    " {4}=1/2 {1,4}=3/4 {2,4}=3/4 {1,2,4}=1 {3,4}=1 {1,3,4}=1 {2,3,4}=1"
    " {1,2,3,4}=1\n")

PROBLEM = """\
n 4
cone gamma-in
maximize +1*h{1,2} +1*h{3,4}
st +1*h{1,2,3,4} <= 2
st +1*h{1} -1*h{2} = 0
"""

BUTTERFLY5 = """\
source s1
source s2
edge a from s1 cap 1
edge b from s2 cap 1
edge m from s1,s2 cap 1
sink t1 wants s1,s2 sees a,m
sink t2 wants s1,s2 sees b,m
"""

# name -> (argv with {tmp} for the run directory, input files written first)
CASES = {
    "count5": (["count", "--n", "5"], {}),
    "gen4-out": (["gen", "--n", "4", "--family", "delta", "--out", "{tmp}/delta4.txt"], {}),
    "gen4-elemental": (["gen", "--n", "4", "--family", "elemental"], {}),
    "classify": (["classify", "--n", "4", "--quad", "{1},{2},{3},{4}"], {}),
    "implies-delta": (["implies", "--n", "4", "--quad", "{1,2},{3},{2,4},{1}",
                       "--family", "delta", "--emit-certificates", "{tmp}/out"], {}),
    "implies-elemental": (["implies", "--n", "4", "--quad", "{1},{2},{3},{4}",
                           "--family", "elemental", "--emit-certificates", "{tmp}/out"], {}),
    "theorem1-4": (["check-theorem1", "--n", "4", "--emit-certificates", "{tmp}/out"], {}),
    "theorem1-5-sample": (["check-theorem1", "--n", "5", "--sample", "60", "--seed", "0",
                           "--emit-certificates", "{tmp}/out"], {}),
    "completeness-4": (["check-completeness", "--n", "4",
                        "--emit-certificates", "{tmp}/out"], {}),
    "completeness-5-sample": (["check-completeness", "--n", "5", "--sample", "100",
                               "--seed", "0", "--emit-certificates", "{tmp}/out"], {}),
    "minimality-4": (["check-minimality", "--n", "4", "--emit-certificates", "{tmp}/out"], {}),
    "minimality-5": (["check-minimality", "--n", "5"], {}),
    "witness-violator": (["witness", "--n", "4", "--kind", "violator",
                          "--out", "{tmp}/point.txt"], {}),
    "membership-gamma": (["membership", "--point", "{tmp}/point.txt", "--cone", "gamma"],
                         {"point.txt": VIOLATOR4}),
    "membership-gamma-in": (["membership", "--point", "{tmp}/point.txt",
                             "--cone", "gamma-in"], {"point.txt": VIOLATOR4}),
    "bound-problem": (["bound", "--problem", "{tmp}/prob.txt"], {"prob.txt": PROBLEM}),
    "bound-butterfly5-gamma-in": (["bound", "--network", "{tmp}/net.txt", "--cone", "gamma-in"],
                                  {"net.txt": BUTTERFLY5}),
    "bound-butterfly5-gamma": (["bound", "--network", "{tmp}/net.txt", "--cone", "gamma"],
                               {"net.txt": BUTTERFLY5}),
}

# name -> (exit code, stdout sha256, {emitted file: sha256}), recorded at bc5e705
GOLDEN = {
    "bound-butterfly5-gamma": (0, "d7ac17612ebfb01f5f74c995ff310f3e525000edff572ef8ecee062e0324105b", {}),
    "bound-butterfly5-gamma-in": (0, "3b43c599219c0528232f7336e57ca8d5a50adbc55ebb637271ee0d2bb92c6a85", {}),
    "bound-problem": (0, "52938d75ce79429c916d0d446eb3feacb4d9334c4339db1b84bf6055ec2174b7", {}),
    "classify": (0, "de3aa2b0d628b0ea8e78799d8f5ab123927fd743be678de25fe90e61e23a02e5", {}),
    "completeness-4": (0, "442ad12b5db5e2ff0f5098a4091a087c5f512ee8fbe12b19fc720c1cb54670ec", {"out/certificates.txt": "9cb8ebe5662a45f323f61377b32a12139e2692c700525d42fd38308ac422b945", "out/generators.txt": "a110162dbc18921f2ae92414ce0b4858f5a13b303ebe612d88f6c377c58b6822"}),
    "completeness-5-sample": (0, "446adce7e4c4d27ee57338e47fb7d0da1b4a8dd2acef612f36667d48b6b3b51c", {"out/certificates.txt": "0e185c970b8c3233cdef56dc5906dd4f2af781f67f11d634038af8db1eb1042d", "out/generators.txt": "5f165951cd6146bd76be9dc8e1477d34938ed0d890503deba4e56de6e7c22a38"}),
    "count5": (0, "3b4ef6e3dd92ecf73a3f7955d6d15dd363fd359bbfcdc34b4a0191c96014fc20", {}),
    "gen4-elemental": (0, "0b117b58457cd48ec93f2872108ee47fdccc24e09db128ac0bad666779415374", {}),
    "gen4-out": (0, "349b76be75a19c620eedc57d7f5cbb33f1079479c25f6f01cc21fe35eeea249a", {"delta4.txt": "a110162dbc18921f2ae92414ce0b4858f5a13b303ebe612d88f6c377c58b6822"}),
    "implies-delta": (0, "1f4fbbee65891e89f1ee101fec0d44e58f01b37e518fbb9f25e154e971277a6a", {"out/certificates.txt": "8a1ed53c0eceac93ac5dc9946db35337adb91bfb7bea84536fb7fae552e96870", "out/generators.txt": "a110162dbc18921f2ae92414ce0b4858f5a13b303ebe612d88f6c377c58b6822"}),
    "implies-elemental": (0, "2cdde712d5af57f66fcb399db9d433f0374db39a9cf2a7327909b724065e70b9", {"out/witnesses.txt": "350b7d7ad41c07e6c1248077d695f4e460da6310fa4aad9fb3ce1a03f3a66d65"}),
    "membership-gamma": (0, "860576b876011bab268681f64c83bfad8d5f11e53ae3cd1341d5dce9fe653d2a", {}),
    "membership-gamma-in": (0, "6fcf5b5a6401bdeee91cbd6d4d636ee62266380ed6b2c92e9d87bead1b1be5f5", {}),
    "minimality-4": (0, "39b11e11c5ccab40a70052d65b77a185ae7601190f76720f1aa5ceaa9ef041ce", {"out/generators.txt": "a110162dbc18921f2ae92414ce0b4858f5a13b303ebe612d88f6c377c58b6822", "out/witnesses.txt": "e8d9da1a1de71961b1319e280b985cb55b32c5b6bfd2b0fe173a1a5298f44635"}),
    "minimality-5": (0, "1ba5dd8b7f9a2bbc69e06810734c86a72582c977e4eba0372db31169790f438f", {}),
    "theorem1-4": (0, "dddf070f7e4b5bd5a15fbff061894ced9be2858f2f8c2056e6a66ad53fd09bc7", {"out/certificates.txt": "cea4469c49d23502170810a11b89fe5c2f9dd6ca224593794c4cb549f9ff17a1", "out/generators.txt": "0b117b58457cd48ec93f2872108ee47fdccc24e09db128ac0bad666779415374", "out/witnesses.txt": "350b7d7ad41c07e6c1248077d695f4e460da6310fa4aad9fb3ce1a03f3a66d65"}),
    "theorem1-5-sample": (0, "3a84b8df1c2324a6e16c49bc210c75bac7cca161234ef366f76957a016ceb70a", {"out/certificates.txt": "ea6366b6521c3852210a09bffada37a36762c2903821e2f38855ea6455b9eeab", "out/generators.txt": "728cf622aa35ceca8723fb7f187701e218603f2759cda6f39043350cbb343c08"}),
    "witness-violator": (0, "0459536eef3402fe9388fa312106c5a3085ef2657b01fda9b837761439607d33", {"point.txt": "d118a97d7e27224760996f057f66cef94c41fd14b1e50040f122d1a2e2dc02c3"}),
}

# minimality-5 (all 205 drop-one witnesses at n=5) was recorded at de772fc;
# bc5e705 prints the same bytes.

# cases run once a session through tests/conftest.py's cli_run_once, which
# test_recheck shares to re-check the files they write
SHARED_RUNS = ("completeness-4", "theorem1-4")

# Files the corpus gained on purpose since bc5e705: `implies --emit-certificates`
# now writes the generator list in both outcomes, so the witness case writes
# the same bytes `gen --n 4 --family elemental` prints.
ADDED_FILES = {
    "implies-elemental": {"out/generators.txt": GOLDEN["gen4-elemental"][1]},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(rc: int, out: str, tmp: Path, inputs: dict) -> tuple:
    files = {p.relative_to(tmp).as_posix(): _sha(p.read_bytes())
             for p in sorted(tmp.rglob("*")) if p.is_file()
             and p.relative_to(tmp).as_posix() not in inputs}
    return rc, _sha(out.replace(str(tmp), "<tmp>").encode("ascii")), files


def run_case(name: str, tmp: Path, capsys) -> tuple:
    argv, inputs = CASES[name]
    for fname, text in inputs.items():
        (tmp / fname).write_text(text, encoding="ascii")
    rc = main([a.replace("{tmp}", str(tmp)) for a in argv])
    out, _err = capsys.readouterr()
    return _digests(rc, out, tmp, inputs)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_case(name, tmp_path, capsys, request):
    rc, stdout, files = GOLDEN[name]
    expected = (rc, stdout, {**files, **ADDED_FILES.get(name, {})})
    if name == "minimality-5":
        # the scan runs once per session (tests/conftest.py) and writes no file
        assert CASES[name] == (["check-minimality", "--n", "5"], {})
        code, out = request.getfixturevalue("minimality5_run")
        assert (code, _sha(out.encode("ascii")), {}) == expected
        return
    if name in SHARED_RUNS:
        argv, inputs = CASES[name]
        assert _digests(*request.getfixturevalue("cli_run_once")(argv), inputs) == expected
        return
    assert run_case(name, tmp_path, capsys) == expected


def test_readme_library_example_runs():
    # the fenced python block under "## Library" in README.md, run as written
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert scope["result"].value == 1
    assert isinstance(scope["answer"], certify.FarkasCertificate)
