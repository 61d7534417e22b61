"""Command-line behavior: reports, files, exit codes."""

import ast
import hashlib
import os
import re
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ingletonlp import certify, cli, entspace, ingen
from ingletonlp.cli import main
from ingletonlp.entspace import LinExpr, vector_from_text, vector_to_text, witness_fulldim


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


def test_gen_builds_no_member_expression(capsys, monkeypatch):
    # a family's lines are rendered run by run from its enumerators: no
    # member object and no expression is built
    def refuse(*args, **kwargs):
        raise AssertionError("gen built a member object or expression")

    monkeypatch.setattr(ingen, "member_expr", refuse)
    monkeypatch.setattr(ingen, "CanonicalInequality", refuse)
    monkeypatch.setattr(LinExpr, "_raw", refuse)
    rc, out, _ = run_cli(capsys, ["gen", "--n", "6", "--family", "delta"])
    assert rc == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == GEN6_STDOUT_SHA256["delta"]


# sha256 of `gen --n 8` output, the same value as GEN8_SHA256 in perfbench/workloads.py
GEN8_SHA256 = "f457d393cba5f67127e6676ca9717597f61193cafdaca1406aced867db1d160a"


def test_gen_bytes_at_n8(tmp_path, capsys):
    target = tmp_path / "members.txt"
    rc, _, _ = run_cli(capsys, ["gen", "--n", "8", "--out", str(target)])
    assert rc == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GEN8_SHA256


def test_gen_without_delta0_builds_no_table(capsys, monkeypatch, fresh_subset_text):
    # only Delta0 lines read the 2^n-entry tables, so Delta2 at n=20 stays instant
    calls = []
    real = entspace.format_subset
    monkeypatch.setattr(entspace, "format_subset", lambda m: calls.append(m) or real(m))
    rc, out, _ = run_cli(capsys, ["gen", "--n", "20", "--family", "delta2"])
    # each element, {1..20} without it, and {1..20}, each named once
    assert rc == 0 and len(calls) == len(set(calls)) == 2 * 20 + 1
    assert out == ingen.inequalities_to_text(20, ingen.gen_delta2(20))


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


def _true_expr(kind, payload):
    """The payload's form at n=4 with repeated masks summed, from the public constructors."""
    from ingletonlp.entspace import (IngletonQuad, cond_entropy_expr, cond_mutinfo_expr,
                                     format_expr, ingleton_expr, parse_subset)
    masks = [parse_subset(t) for t in re.findall(r"\{[^}]*\}", payload)]
    if kind == "Delta0":
        *ds, beta = masks
        return format_expr(ingleton_expr(IngletonQuad(4, *(d | beta for d in ds))))
    if kind == "Delta1":
        return format_expr(cond_mutinfo_expr(4, *masks))
    return format_expr(cond_entropy_expr(4, masks[0], 0b1111 & ~masks[0]))


# payloads no enumerator yields: their terms repeat masks or reach h{}
_OFF_SHAPE = [("Delta0", "{},{2};{3},{4}|{}"),
              ("Delta0", "{1},{1};{3},{4}|{}"),
              ("Delta0", "{1},{2};{3},{4}|{1}"),
              ("Delta1", "{1},{2}|{1}"),
              ("Delta1", "{1},{1}|{}"),
              ("Delta1", "{1,2},{3}|{}"),
              ("Delta2", "{1,2}"),
              ("Delta2", "{}")]


@pytest.mark.parametrize("kind,payload,expr",
                         [(k, p, _true_expr(k, p)) for k, p in _OFF_SHAPE]
                         + [("Delta1", "{1},{2}|{1}", "+1*h{1} +1*h{1,2}")])
def test_off_shape_payload_in_generator_file_exits_two(capsys, tmp_path, kind, payload, expr):
    # rejected whatever the expression: the true form with repeated masks
    # summed, or the one keeping the last term per mask
    lines = ingen.inequalities_to_text(4, ingen.gen_delta(4)).splitlines()
    at = next(k for k, ln in enumerate(lines) if ln.startswith(kind + "\t"))
    lines[at] = "\t".join((kind, payload, expr))
    gens = tmp_path / "gens.txt"
    gens.write_text("\n".join(lines) + "\n", encoding="ascii")
    rc, out, err = run_cli(capsys, ["implies", "--n", "4", "--quad", "{1},{2},{3},{4}",
                                    "--gens", str(gens)])
    assert rc == 2 and out == "" and f"{kind} payload" in err



@pytest.mark.parametrize("kind,payload", [("Delta0", "{1}garbage{2};{3},{4}|{}"),
                                          ("Delta0", "{1},{2};{3}|{4}|{}"),
                                          ("Delta0", "{1},{2};{3};{4}|{}"),
                                          ("Delta0", "{1},{2};{3},x{4}|{}"),
                                          ("Delta1", "{1}.{2}|{}"),
                                          ("Delta1", "{1}{2}h|{}")])
def test_junk_between_payload_subsets_exits_two(capsys, tmp_path, kind, payload):
    # the first line of the kind, payload mutated, expression kept
    lines = ingen.inequalities_to_text(4, ingen.gen_delta(4)).splitlines()
    at = next(k for k, ln in enumerate(lines) if ln.startswith(kind + "\t"))
    lines[at] = "\t".join((kind, payload, lines[at].split("\t")[2]))
    gens = tmp_path / "gens.txt"
    gens.write_text("\n".join(lines) + "\n", encoding="ascii")
    rc, out, err = run_cli(capsys, ["implies", "--n", "4", "--quad", "{1},{2},{3},{4}",
                                    "--gens", str(gens)])
    assert rc == 2 and out == "" and err.startswith("error:")
    if payload.count("|") > 1 or payload.count(";") > 1:  # a separator too many
        assert repr(payload) in err


@pytest.mark.parametrize("fields", [2, 4])
def test_generator_line_without_three_fields_exits_two(capsys, tmp_path, fields):
    # the first Delta0 line with its expression dropped, or given twice
    lines = ingen.inequalities_to_text(4, ingen.gen_delta(4)).splitlines()
    at = next(k for k, ln in enumerate(lines) if ln.startswith("Delta0\t"))
    parts = lines[at].split("\t")
    lines[at] = "\t".join(parts[:2] if fields == 2 else parts + parts[2:])
    gens = tmp_path / "gens.txt"
    gens.write_text("\n".join(lines) + "\n", encoding="ascii")
    rc, out, err = run_cli(capsys, ["implies", "--n", "4", "--quad", "{1},{2},{3},{4}",
                                    "--gens", str(gens)])
    assert len(lines[at].split("\t")) == fields
    assert rc == 2 and out == "" and err.startswith("error:") and repr(lines[at]) in err


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
    # an unwritable --out fails before anything is printed
    rc, out, err = run_cli(capsys, [
        "bound", "--problem", str(prob), "--out", str(tmp_path / "no" / "such.txt")])
    assert rc == 2 and out == "" and err.startswith("error:")


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


@pytest.mark.parametrize("argv, text, what", [
    (["bound", "--problem"], "n 3\ncone gamma-in\nmaximize +1*h{1}\nst +1*h{1,2,3} <= 1\n",
     "problem file is for n=3"),
    (["bound", "--cone", "gamma", "--network"],
     "source s1\nedge e1 from s1 cap 1\nsink t1 wants s1 sees e1\n", "network file is for n=2"),
    (["membership", "--point"], vector_to_text(witness_fulldim(2)), "point file is for n=2"),
])
def test_an_explicit_n_must_match_the_input_file(capsys, tmp_path, argv, text, what):
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="ascii")
    rc, out, err = run_cli(capsys, [*argv, str(path), "--n", "5"])
    assert rc == 2 and out == ""
    assert err == f"error: {what}, requested n=5\n"
    # without --n the file's n is used, and stating that n changes nothing
    rc, out, _ = run_cli(capsys, [*argv, str(path)])
    file_n = what.rpartition("=")[2]
    assert rc == 0 and f" n={file_n} " in out
    assert run_cli(capsys, [*argv, str(path), "--n", file_n]) == (0, out, "")


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


def test_cyclic_network_exits_two(capsys, tmp_path):
    net = tmp_path / "net.txt"
    net.write_text("source s1\nedge a from s1,b cap 1\nedge b from a cap 1\n"
                   "sink t1 wants s1 sees b\n", encoding="ascii")
    rc, out, err = run_cli(capsys, ["bound", "--network", str(net), "--cone", "gamma"])
    assert rc == 2 and out == "" and err.startswith("error:") and "cycle" in err


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
    settle = certify._settle

    def counted(system, target, *args, **kwargs):
        calls.append(target)
        return settle(system, target, *args, **kwargs)
    monkeypatch.setattr(certify, "_settle", counted)
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


def _child(code):
    """(stdout, stderr) of code run in a fresh interpreter, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def test_gen_and_count_leave_the_float_stack_unloaded():
    # numpy and scipy serve only the HiGHS presolves, which gen and count never run
    code = (
        "import sys\n"
        "from ingletonlp import cli\n"
        "codes = [cli.main(['gen', '--n', '4']), cli.main(['count', '--n', '6'])]\n"
        "loaded = [m for m in ('numpy', 'scipy') if m in sys.modules]\n"
        "sys.stderr.write(f'codes={codes} loaded={loaded}')\n")
    _out, err = _child(code)
    assert err.endswith("codes=[0, 0] loaded=[]")


# the 5-node butterfly: 205 gamma-in members
BUTTERFLY5 = ("source s1\nsource s2\nedge a from s1 cap 1\nedge b from s2 cap 1\n"
              "edge m from s1,s2 cap 1\nsink t1 wants s1,s2 sees a,m\n"
              "sink t2 wants s1,s2 sees b,m\n")


def test_exact_bound_leaves_the_float_stack_unloaded(tmp_path):
    # 205 gamma-in members are under the all-columns limit, so no HiGHS seed
    # runs and the exact simplex must make do with the standard library
    net = tmp_path / "net.txt"
    net.write_text(BUTTERFLY5, encoding="ascii")
    code = (
        "import sys\n"
        "from ingletonlp import cli\n"
        f"code = cli.main(['bound', '--network', {str(net)!r}, '--cone', 'gamma-in'])\n"
        "loaded = [m for m in ('numpy', 'scipy') if m in sys.modules]\n"
        "sys.stderr.write(f'code={code} loaded={loaded}')\n")
    out, err = _child(code)
    assert "value 2" in out.splitlines()
    assert err.endswith("code=0 loaded=[]")


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    # the package resolves its names on first use, and cli imports bound and
    # certify inside the commands that run them
    net = tmp_path / "net.txt"
    net.write_text(BUTTERFLY5, encoding="ascii")
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return ([m for m in sorted(sys.modules) if m.startswith('ingletonlp')],\n"
        "            'multiprocessing' in sys.modules)\n"
        "import ingletonlp.cli as cli\n"
        "seen = [loaded()]\n"
        "codes = [cli.main(['gen', '--n', '4']), cli.main(['count', '--n', '6'])]\n"
        "seen.append(loaded())\n"
        f"codes.append(cli.main(['bound', '--network', {str(net)!r}]))\n"
        "seen.append(loaded())\n"
        "sys.stderr.write(repr((codes, seen)))\n")
    _out, err = _child(code)
    codes, seen = ast.literal_eval(err)
    base = ["ingletonlp", "ingletonlp._version", "ingletonlp.cli", "ingletonlp.entspace",
            "ingletonlp.ingen"]
    assert codes == [0, 0, 0]
    assert seen[0] == seen[1] == (base, False)
    assert seen[2] == (sorted(base + ["ingletonlp.bound", "ingletonlp.simplex"]), False)
    # certify imports bound only for the violator, which the drop-one scan never
    # runs, and multiprocessing only to fork workers, which one worker never does
    code = (
        "import sys\n"
        "import ingletonlp.cli as cli\n"
        "code = cli.main(['check-minimality', '--n', '3'])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('ingletonlp'))\n"
        "sys.stderr.write(repr((code, loaded, 'multiprocessing' in sys.modules)))\n")
    _out, err = _child(code)
    assert ast.literal_eval(err) == (
        0, sorted(base + ["ingletonlp.certify", "ingletonlp.simplex"]), False)


def test_violator_witness_leaves_the_float_stack_unloaded():
    # the violator is one exact bound solve over the 28 elemental members at n=4
    code = (
        "import sys\n"
        "from ingletonlp import cli\n"
        "code = cli.main(['witness', '--n', '4', '--kind', 'violator'])\n"
        "loaded = [m for m in ('numpy', 'scipy') if m in sys.modules]\n"
        "sys.stderr.write(f'code={code} loaded={loaded}')\n")
    out, err = _child(code)
    assert out.endswith("{1,2,3,4}=1\n")
    assert err.endswith("code=0 loaded=[]")


def test_drop_one_scan_leaves_scipy_optimize_and_sparse_unloaded(capsys):
    # the presolves drive HiGHS's compiled module, loaded from its file, and
    # hand it lists and scalars, so numpy never loads either
    out, err = _child(
        "import sys\n"
        "from ingletonlp import cli\n"
        "code = cli.main(['check-minimality', '--n', '4'])\n"
        "loaded = [m for m in ('numpy', 'scipy.optimize', 'scipy.sparse') if m in sys.modules]\n"
        "highs = 'scipy.optimize._highspy._core' in sys.modules\n"
        "sys.stderr.write(f'code={code} loaded={loaded} highs={highs}')\n")
    assert err.endswith("code=0 loaded=[] highs=True")
    # the same bytes as in this process, where scipy.optimize may well be loaded
    rc, here, _ = run_cli(capsys, ["check-minimality", "--n", "4"])
    assert rc == 0 and out == here


def test_linprog_of_every_status_leaves_numpy_unloaded():
    # linprog is the package's one way into HiGHS, so this covers the bound
    # seed and the completeness presolves too: optimal over bounds (-1, 1),
    # infeasible, unbounded, and <= rows beside = rows; then a completeness run
    _out, err = _child(
        "import contextlib, io, sys\n"
        "from ingletonlp import cli, simplex\n"
        "lps = [([1.0, -1.0], dict(A_ub=[([0], [1.0]), ([0], [1.0])], b_ub=[0.5],\n"
        "                          bounds=(-1, 1))),\n"
        "       ([1.0, 1.0], dict(A_eq=[([0], [1.0]), ([0], [1.0])], b_eq=[-1.0])),\n"
        "       ([-1.0, -1.0], dict(A_ub=[([0], [1.0]), ([0], [-1.0])], b_ub=[1.0])),\n"
        "       ([-1.0, 0.0], dict(A_ub=[([0], [1.0]), ([0], [1.0])], b_ub=[2.0],\n"
        "                          A_eq=[([0], [1.0]), ([0], [-1.0])], b_eq=[0.0]))]\n"
        "got = [(r.status, r.fun) for r in (simplex.linprog(c, **kw) for c, kw in lps)]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['check-completeness', '--n', '3'])\n"
        "sys.stderr.write(f'{got} code={code} numpy={\"numpy\" in sys.modules}')\n")
    assert err.endswith("[(0, -2.0), (2, None), (3, None), (0, -1.0)] code=0 numpy=False")


def test_scipy_optimize_imported_after_a_scan_reuses_the_loaded_highs():
    _out, err = _child(
        "import sys\n"
        "from ingletonlp import certify, simplex\n"
        "ok = certify.check_minimality(3).ok\n"
        "core = sys.modules['scipy.optimize._highspy._core']\n"
        "from scipy.optimize import linprog\n"
        "res = linprog([-1, -2], A_ub=[[1, 1]], b_ub=[4], method='highs')\n"
        "same = sys.modules['scipy.optimize._highspy._core'] is core is simplex._highs()[0]\n"
        "sys.stderr.write(f'{ok} {res.status} {res.x.tolist()} {res.fun} {same}')\n")
    assert err.endswith("True 0 [0.0, 4.0] -8.0 True")


def test_huge_n_in_a_vector_file_exits_two(capsys, tmp_path):
    # the header is range-checked before 2^n - 1 values are allocated
    point = tmp_path / "point.txt"
    point.write_text("n=70\n{1}=1\n", encoding="ascii")
    rc, out, err = run_cli(capsys, ["membership", "--point", str(point)])
    assert rc == 2 and out == "" and err.startswith("error:")


def _capped_cli(argv, limit=1 << 30):
    """(exit code, stderr) of the CLI in a child process whose address space
    is capped at limit bytes, so a runaway allocation fails fast there."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    code = f"import sys\nfrom ingletonlp import cli\nsys.exit(cli.main({argv!r}))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, preexec_fn=cap)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("args, text", [
    (["classify", "--n", "4", "--quad", "{40000000000},{2},{3},{4}"], None),
    (["membership", "--point"], "n=4\n{40000000000}=1\n"),
    (["bound", "--problem"], "n 4\ncone gamma\nmaximize +1*h{40000000000}\n"),
])
def test_huge_element_in_subset_text_exits_two(tmp_path, args, text):
    # an element is range-checked before it is shifted into a 2^e mask
    if text is not None:
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="ascii")
        args = [*args, str(path)]
    rc, err = _capped_cli(args)
    assert rc == 2 and err.startswith("error:"), err



@pytest.mark.parametrize("scan", ["check-theorem1", "check-completeness"])
def test_sample_size_is_budgeted(capsys, scan):
    # n=3 families fit a budget of 10, so only the sample size can exceed it
    rc, out, err = run_cli(capsys, [scan, "--n", "3", "--sample", "11", "--budget", "10"])
    assert rc == 2 and out == "" and "exceeds budget 10" in err
    rc, out, _ = run_cli(capsys, [scan, "--n", "3", "--sample", "10", "--budget", "10"])
    assert rc == 0 and "samples 10" in out


@pytest.mark.parametrize("scan", ["check-theorem1", "check-completeness"])
def test_huge_sample_exits_two_before_drawing(scan):
    # counted before any quad is drawn, so 10**12 of them never reach memory
    start = time.monotonic()
    rc, err = _capped_cli([scan, "--n", "5", "--sample", str(10 ** 12)])
    assert rc == 2 and "exceeds budget" in err, err
    assert time.monotonic() - start < 30


def test_deep_network_file_exits_two(capsys, tmp_path):
    # a 3,000-edge chain, last edge first, is refused by its size before
    # the depth-first pass that would recurse once per edge
    edges = [f"edge e{k} from {f'e{k - 1}' if k > 1 else 's'} cap 1" for k in range(3000, 0, -1)]
    net = tmp_path / "net.txt"
    net.write_text("\n".join(["source s", *edges, "sink t wants s sees e3000"]) + "\n",
                   encoding="ascii")
    rc, out, err = run_cli(capsys, ["bound", "--network", str(net), "--cone", "gamma"])
    assert rc == 2 and out == "" and "ground-set size" in err


@pytest.mark.parametrize("pairs", ["{1}=1 {1}=2", "{1,2}=1 {2,1}=1", "{}=0 {}=0"])
def test_repeated_subset_in_a_point_file_exits_two(capsys, tmp_path, pairs):
    point = tmp_path / "point.txt"
    point.write_text(f"n=3\n{pairs}\n", encoding="ascii")
    rc, out, err = run_cli(capsys, ["membership", "--point", str(point)])
    assert rc == 2 and out == "" and "repeated subset" in err


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
