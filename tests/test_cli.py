"""Command-line behavior: reports, files, exit codes."""

import hashlib
import os
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ingletonlp import certify, cli, ingen
from ingletonlp.cli import main
from ingletonlp.entspace import vector_from_text, vector_to_text, witness_fulldim


def run_cli(capsys, argv):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("ingletonlp ")


def test_count_report(capsys):
    rc, out, err = run_cli(capsys, ["count", "--n", "4"])
    assert rc == 0 and err == ""
    assert out == ("# ingletonlp 0.1.0\n"
                   "# count n=4\n"
                   "delta0 6\n"
                   "delta1 24\n"
                   "delta2 4\n"
                   "delta 34\n"
                   "elemental 28\n"
                   "naive 65536\n"
                   "status ok\n")


def test_gen_to_stdout(capsys):
    rc, out, _ = run_cli(capsys, ["gen", "--n", "3", "--family", "delta1"])
    assert rc == 0
    assert out == ingen.inequalities_to_text(3, ingen.gen_delta1(3))


def test_gen_to_file(tmp_path, capsys):
    target = tmp_path / "delta.txt"
    rc, out, _ = run_cli(capsys, ["gen", "--n", "4", "--out", str(target)])
    assert rc == 0
    assert "count 34" in out and out.endswith("status ok\n")
    n, members = ingen.read_inequalities(target)
    assert n == 4 and len(members) == 34


# sha256 of `gen --n 6 --family F` stdout, recorded before gen streamed its lines
GEN6_STDOUT_SHA256 = {
    "delta": "6fe69acf01a52ac7095b54072e9d1e6a9ccc3aad04f2eb163165d8160eac6602",
    "delta0": "60f471dc4d49fb852b4c43311f14848db2c991253ef2b82414277c8a684e838b",
    "delta1": "51ea60012420a1f8a5ce3bb8778ea506836a7d4266ac9e125884ff401befaf39",
    "delta2": "d2a85e5eca363570f814b18a06653c1f45dfea6066bbb16d3bcc8f769d2d0699",
    "elemental": "710a9a6cc9dde2064da677776919dab47e6136a2faa7fd0d1d69b8ff38ac2722",
}


@pytest.mark.parametrize("family", sorted(GEN6_STDOUT_SHA256))
def test_gen_bytes_at_n6_on_stdout_and_in_file(capsys, tmp_path, family):
    rc, out, _ = run_cli(capsys, ["gen", "--n", "6", "--family", family])
    assert rc == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == GEN6_STDOUT_SHA256[family]
    target = tmp_path / "members.txt"
    rc, _, _ = run_cli(capsys, ["gen", "--n", "6", "--family", family, "--out", str(target)])
    assert rc == 0 and target.read_bytes() == out.encode("ascii")


def test_gen_takes_members_from_the_family_table_and_text_from_the_writer(
        tmp_path, capsys, monkeypatch):
    # perfbench times gen by rebinding cli._FAMILIES and ingen.inequalities_to_text
    calls = {"gen": 0, "write": 0}
    to_text = ingen.inequalities_to_text

    def gen_delta(n, budget):
        calls["gen"] += 1
        return ingen.gen_delta(n, budget=budget)

    def counted_to_text(*args, **kwargs):
        calls["write"] += 1
        return to_text(*args, **kwargs)

    monkeypatch.setitem(cli._FAMILIES, "delta", gen_delta)
    monkeypatch.setattr(ingen, "inequalities_to_text", counted_to_text)
    target = tmp_path / "delta.txt"
    rc, _, _ = run_cli(capsys, ["gen", "--n", "4", "--out", str(target)])
    assert rc == 0 and calls == {"gen": 1, "write": 1}
    assert target.read_text() == to_text(4, ingen.gen_delta(4))


def test_gen_streams_in_bounded_memory(tmp_path, capsys):
    # n=7 writes 14,959 members (2.4 MB); holding them or their text costs
    # about 17 MB of Python allocations, streaming them well under 1 MB
    tracemalloc.start()
    try:
        rc = main(["gen", "--n", "7", "--out", str(tmp_path / "delta7.txt")])
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert rc == 0
    assert peak < 4_000_000


def test_classify(capsys):
    rc, out, _ = run_cli(capsys,
                         ["classify", "--n", "4", "--quad", "{1},{2},{3},{4}"])
    assert rc == 0
    assert "class ReducesTo {1},{2};{3},{4}|{}" in out
    assert out.endswith("status ok\n")


def test_implies_true_with_certificate(capsys, tmp_path):
    emit = tmp_path / "certs"
    rc, out, _ = run_cli(capsys, [
        "implies", "--n", "4", "--quad", "{1},{2},{3},{4}",
        "--family", "delta", "--emit-certificates", str(emit)])
    assert rc == 0
    assert "implied true" in out
    from ingletonlp import certify
    items = certify.read_certificates(emit / "certificates.txt")
    assert items and items[0][0] == "{1},{2},{3},{4}"
    n, gens = ingen.read_inequalities(emit / "generators.txt")
    target_id, cert = items[0]
    from ingletonlp.entspace import ingleton_expr, parse_quad, IngletonQuad
    target = ingleton_expr(parse_quad(target_id, 4))
    assert certify.verify_certificate(target, [ci.expr for ci in gens], cert)


def test_implies_false_emits_witness(capsys, tmp_path):
    emit = tmp_path / "wit"
    rc, out, _ = run_cli(capsys, [
        "implies", "--n", "4", "--quad", "{1},{2},{3},{4}",
        "--family", "elemental", "--emit-certificates", str(emit)])
    assert rc == 0
    assert "implied false" in out and "witness " in out
    from ingletonlp import certify
    n, items = certify.read_witnesses(emit / "witnesses.txt")
    assert n == 4 and items[0][0] == "{1},{2},{3},{4}"


def test_implies_with_generator_file(capsys, tmp_path):
    gens = tmp_path / "gens.txt"
    ingen.write_inequalities(gens, 4, ingen.gen_delta(4))
    rc, out, _ = run_cli(capsys, [
        "implies", "--n", "4", "--quad", "{1,2},{3},{2,4},{1}",
        "--gens", str(gens)])
    assert rc == 0 and "implied true" in out


@pytest.mark.parametrize("kind,payload", [("Delta0", "{1},{2};{3},{5}|{}"),
                                          ("Delta1", "{1},{5}|{}"),
                                          ("Delta2", "{5}")])
def test_out_of_range_payload_in_generator_file_exits_two(capsys, tmp_path, kind, payload):
    lines = ingen.inequalities_to_text(4, ingen.gen_delta(4)).splitlines()
    at = next(k for k, ln in enumerate(lines) if ln.startswith(kind + "\t"))
    lines[at] = "\t".join((kind, payload, lines[at].split("\t")[2]))
    gens = tmp_path / "gens.txt"
    gens.write_text("\n".join(lines) + "\n", encoding="ascii")
    rc, out, err = run_cli(capsys, ["implies", "--n", "4", "--quad", "{1},{2},{3},{4}",
                                    "--gens", str(gens)])
    assert rc == 2 and out == "" and "not a subset" in err


def test_implies_generator_file_wrong_n(capsys, tmp_path):
    gens = tmp_path / "gens.txt"
    ingen.write_inequalities(gens, 3, ingen.gen_delta(3))
    rc, _, err = run_cli(capsys, [
        "implies", "--n", "4", "--quad", "{1},{2},{3},{4}",
        "--gens", str(gens)])
    assert rc == 2
    assert err.startswith("error:")


def test_check_theorem1_exit_and_determinism(capsys):
    rc1, out1, _ = run_cli(capsys, ["check-theorem1", "--n", "3"])
    rc2, out2, _ = run_cli(capsys,
                           ["check-theorem1", "--n", "3", "--workers", "2"])
    assert rc1 == rc2 == 0
    assert out1 == out2  # byte-identical regardless of worker count
    assert "status ok" in out1


def test_check_completeness_sampled(capsys):
    rc, out, _ = run_cli(capsys, [
        "check-completeness", "--n", "5", "--sample", "40", "--seed", "9"])
    assert rc == 0
    assert "mode sample" in out and "status ok" in out


def test_check_minimality_emits_witnesses(capsys, tmp_path):
    emit = tmp_path / "scan"
    rc, out, _ = run_cli(capsys, [
        "check-minimality", "--n", "3", "--emit-certificates", str(emit)])
    assert rc == 0
    assert "members 9" in out and "non-redundant 9" in out
    from ingletonlp import certify
    n, items = certify.read_witnesses(emit / "witnesses.txt")
    assert n == 3 and len(items) == 9


def test_witness_roundtrip_through_membership(capsys, tmp_path):
    point = tmp_path / "violator.txt"
    rc, out, _ = run_cli(capsys, [
        "witness", "--n", "4", "--kind", "violator", "--out", str(point)])
    assert rc == 0 and "status ok" in out

    rc, out, _ = run_cli(capsys, [
        "membership", "--point", str(point), "--cone", "gamma"])
    assert rc == 0 and "member true" in out

    rc, out, _ = run_cli(capsys, [
        "membership", "--point", str(point), "--cone", "gamma-in"])
    assert rc == 0
    assert "member false" in out and "violated Delta0" in out


def test_witness_to_stdout_parses(capsys):
    rc, out, _ = run_cli(capsys, ["witness", "--n", "3", "--kind", "modular"])
    assert rc == 0
    v = vector_from_text(out)
    assert v.n == 3 and v[0b111] == 3


def test_bound_problem_file(capsys, tmp_path):
    prob = tmp_path / "prob.txt"
    prob.write_text("""
n 2
cone gamma-in
maximize +1*h{1} +1*h{2}
st +1*h{1,2} <= 1
""", encoding="ascii")
    out_file = tmp_path / "report.txt"
    rc, out, _ = run_cli(capsys, [
        "bound", "--problem", str(prob), "--out", str(out_file)])
    assert rc == 0
    assert "value 2" in out and "status optimal" in out
    assert "verified true" in out
    assert out_file.read_text(encoding="ascii") == out


def test_bound_network_file(capsys, tmp_path):
    net = tmp_path / "net.txt"
    net.write_text("""
source s1
edge e1 from s1 cap 1
sink t1 wants s1 sees e1
""", encoding="ascii")
    rc, out, _ = run_cli(capsys, [
        "bound", "--network", str(net), "--cone", "gamma"])
    assert rc == 0
    assert "value 1" in out and "cone=gamma " in out


def test_bound_needs_exactly_one_input(capsys, tmp_path):
    rc, _, err = run_cli(capsys, ["bound", "--n", "2"])
    assert rc == 2 and err.startswith("error:")


@pytest.mark.parametrize("text", [
    "n\ncone gamma-in\nmaximize +1*h{1}\n",
    "n 2\ncone gamma-in\nmaximize +1*h{1}\nst +1*h{1} <= 1/0\n",
    "n 2\ncone\nmaximize +1*h{1}\n",
    "n 2\ncone gamma-in\nmaximize +1/0*h{1}\n",
])
def test_malformed_problem_exits_two(capsys, tmp_path, text):
    # a bare n or cone line and a zero denominator are input errors, not crashes
    prob = tmp_path / "prob.txt"
    prob.write_text(text, encoding="ascii")
    rc, out, err = run_cli(capsys, ["bound", "--problem", str(prob)])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_zero_capacity_denominator_exits_two(capsys, tmp_path):
    net = tmp_path / "net.txt"
    net.write_text("source s1\nedge e1 from s1 cap 1/0\nsink t1 wants s1 sees e1\n",
                   encoding="ascii")
    rc, _, err = run_cli(capsys, ["bound", "--network", str(net), "--cone", "gamma"])
    assert rc == 2 and err.startswith("error:")


def test_bad_quad_text_exits_two(capsys):
    rc, _, err = run_cli(capsys, ["classify", "--n", "4", "--quad", "{1};{2}"])
    assert rc == 2 and err.startswith("error:")


def test_out_of_range_n_exits_two(capsys):
    rc, _, err = run_cli(capsys, ["count", "--n", "25"])
    assert rc == 2 and err.startswith("error:")


def test_budget_flag_exits_two(capsys):
    rc, _, err = run_cli(capsys, ["gen", "--n", "8", "--budget", "10"])
    assert rc == 2 and "budget" in err


def test_budget_env_var(capsys, monkeypatch):
    monkeypatch.setenv(cli.ENV_BUDGET, "10")
    rc, _, err = run_cli(capsys, ["gen", "--n", "8"])
    assert rc == 2 and "budget" in err
    # an explicit flag wins over the environment
    monkeypatch.setenv(cli.ENV_BUDGET, "10")
    rc, out, _ = run_cli(capsys, ["gen", "--n", "4", "--budget", "1000000"])
    assert rc == 0


@pytest.mark.parametrize("argv", [
    ["gen", "--n", "5", "--family", "elemental", "--budget", "10"],
    ["gen", "--n", "5", "--family", "delta1", "--budget", "1"],
    ["implies", "--n", "4", "--quad", "{1},{2},{3},{4}", "--family", "elemental",
     "--budget", "1"],
    ["check-theorem1", "--n", "3", "--budget", "1"],
])
def test_budget_reaches_every_family(capsys, argv):
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == "" and "budget" in err


@pytest.mark.parametrize("argv", [
    ["check-theorem1", "--n", "5", "--sample", "0"],
    ["check-theorem1", "--n", "5", "--sample", "-3"],
    ["check-completeness", "--n", "5", "--sample", "0"],
    ["check-completeness", "--n", "5", "--sample", "-2"],
])
def test_sample_below_one_exits_two(capsys, argv):
    rc, out, err = run_cli(capsys, argv)
    assert rc == 2 and out == "" and "sample size" in err


@pytest.mark.parametrize("scan", ["check-theorem1", "check-completeness", "check-minimality"])
@pytest.mark.parametrize("workers", ["0", "-1"])
def test_workers_below_one_exits_two(capsys, scan, workers):
    rc, out, err = run_cli(capsys, [scan, "--n", "3", "--workers", workers])
    assert rc == 2 and out == "" and "worker count" in err


@pytest.mark.parametrize("flag", [["--seed", "1"], ["--sample", "5"]])
def test_minimality_takes_no_sampling_flags(capsys, flag):
    # the drop-one scan always decides every member
    with pytest.raises(SystemExit) as exc:
        main(["check-minimality", "--n", "3", *flag])
    assert exc.value.code == 2
    _out, err = capsys.readouterr()
    assert "unrecognized arguments" in err


def test_minimality_above_five_names_the_optin_flag(capsys):
    rc, out, err = run_cli(capsys, ["check-minimality", "--n", "6"])
    assert rc == 2 and out == "" and "requires --allow-large" in err


def test_completeness_sample_applies_at_small_n(capsys):
    # exhaustive only when no sample size is given, as for check-theorem1
    rc, out, _ = run_cli(capsys, ["check-completeness", "--n", "3", "--sample", "7"])
    assert rc == 0
    assert "mode sample" in out and "samples 7" in out and "certified 7" in out


def test_implies_true_emits_its_generators(capsys, tmp_path):
    emit = tmp_path / "out"
    rc, _, _ = run_cli(capsys, [
        "implies", "--n", "3", "--quad", "{1},{1},{},{2,3}", "--family", "delta2",
        "--emit-certificates", str(emit)])
    assert rc == 0
    n, gens = ingen.read_inequalities(emit / "generators.txt")
    assert n == 3 and gens == ingen.gen_delta2(3)


def test_implies_decides_once(capsys, monkeypatch):
    calls = []
    decide = certify._ConeSystem.decide

    def counted(self, target):
        calls.append(target)
        return decide(self, target)
    monkeypatch.setattr(certify._ConeSystem, "decide", counted)
    for family, verdict in (("elemental", "implied false"), ("delta", "implied true")):
        calls.clear()
        rc, out, _ = run_cli(capsys, ["implies", "--n", "4", "--quad", "{1},{2},{3},{4}",
                                      "--family", family])
        assert rc == 0 and verdict in out
        assert len(calls) == 1


def test_bound_builds_its_family_once(capsys, tmp_path, monkeypatch):
    calls = []
    gen_delta = ingen.gen_delta

    def counted(n, budget=ingen.DEFAULT_BUDGET):
        calls.append(n)
        return gen_delta(n, budget=budget)
    monkeypatch.setattr(ingen, "gen_delta", counted)
    prob = tmp_path / "prob.txt"
    prob.write_text("n 3\ncone gamma-in\nmaximize +1*h{1,2,3}\nst +1*h{1} <= 1\n"
                    "st +1*h{2} <= 1\nst +1*h{3} <= 1\n", encoding="ascii")
    rc, out, _ = run_cli(capsys, ["bound", "--problem", str(prob)])
    assert rc == 0 and "value 3" in out and "verified true" in out
    assert calls == [3]


def test_gen_and_count_leave_the_float_stack_unloaded():
    # numpy and scipy serve only the HiGHS presolves, which gen and count never run
    code = (
        "import sys\n"
        "from ingletonlp import cli\n"
        "codes = [cli.main(['gen', '--n', '4']), cli.main(['count', '--n', '6'])]\n"
        "loaded = [m for m in ('numpy', 'scipy') if m in sys.modules]\n"
        "sys.stderr.write(f'codes={codes} loaded={loaded}')\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith("codes=[0, 0] loaded=[]")


def test_huge_n_in_a_vector_file_exits_two(capsys, tmp_path):
    # the header is range-checked before 2^n - 1 values are allocated
    point = tmp_path / "point.txt"
    point.write_text("n=70\n{1}=1\n", encoding="ascii")
    rc, out, err = run_cli(capsys, ["membership", "--point", str(point)])
    assert rc == 2 and out == "" and err.startswith("error:")


# near-valid n=3 inputs, each with the arguments that read it; the budget
# turns a mutated header asking for a large n into a fast exit 2
_FUZZ_SEEDS = [
    (["bound", "--problem"],
     "n 3\ncone gamma-in\nmaximize +1*h{1} +1*h{2}\nst +1*h{1,2} <= 1\n"
     "st +1*h{3} >= 1/2\n"),
    (["bound", "--cone", "gamma", "--network"],
     "source s1\nsource s2\nedge e from s1,s2 cap 1\nsink t wants s1,s2 sees e\n"),
    (["membership", "--point"], vector_to_text(witness_fulldim(3))),
    (["implies", "--n", "3", "--quad", "{1},{2},{},{3}", "--gens"],
     ingen.inequalities_to_text(3, ingen.gen_delta(3))),
    (["implies", "--n", "3", "--quad", "{1},{2},{},{3}", "--gens"],
     ingen.inequalities_to_text(3, ingen.gen_elemental(3))),
]
_FUZZ_EDITS = st.lists(st.tuples(st.sampled_from(("insert", "replace", "delete")),
                                 st.integers(0, 10 ** 4),
                                 st.sampled_from("0123456789{}=,;|+-*/ \t\nhn")),
                       min_size=1, max_size=4)


def _mutate(text, edits):
    for op, at, ch in edits:
        at %= len(text) + 1
        if op == "insert":
            text = text[:at] + ch + text[at:]
        else:
            text = text[:at] + (ch if op == "replace" else "") + text[at + 1:]
    return text


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_FUZZ_SEEDS), _FUZZ_EDITS)
def test_mutated_input_files_exit_zero_or_two(capsys, tmp_path, seed, edits):
    argv, text = seed
    path = tmp_path / "input.txt"
    path.write_text(_mutate(text, edits), encoding="ascii")
    rc, _out, _err = run_cli(capsys, [*argv, str(path), "--budget", "210"])
    assert rc in (0, 2)
