"""Independent re-check of the files and reports the CLI emits.

Runs `cli.main` on the golden cases that write files, and on the
butterfly5 `bound` report, then reads what they wrote with the parsers
of `recheck` and re-verifies every claim there, with dense vectors of
ints and Fractions.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from ingletonlp.cli import main
from recheck import (
    add,
    check_certificates,
    check_witness,
    covered,
    disjoint_ingleton_forms,
    ingleton,
    member_form,
    point,
    polymatroid_forms,
    read_generators,
    read_witnesses,
    report_fields,
    subsets,
    unit,
    value,
)


def run(tmp_path: Path, capsys, argv: list[str], inputs: dict | None = None) -> str:
    for name, text in (inputs or {}).items():
        (tmp_path / name).write_text(text, encoding="ascii")
    assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 0
    return capsys.readouterr().out


def run_scan(tmp_path: Path, capsys, cli_run_once, argv: list[str], sample) -> tuple:
    """(stdout, run directory) of a quad scan; the exhaustive one (no sample)
    is the run test_golden hashes, shared through tests/conftest.py."""
    if sample:
        return run(tmp_path, capsys, argv + ["--sample", sample, "--seed", "0"]), tmp_path
    code, out, where = cli_run_once(argv)
    assert code == 0
    return out, where


# ---------------------------------------------------------------------------
# the emitted files


def test_generator_file(tmp_path, capsys):
    run(tmp_path, capsys, ["gen", "--n", "4", "--family", "delta", "--out", "{tmp}/d.txt"])
    n, gens = read_generators(tmp_path / "d.txt")
    assert n == 4 and len(gens) == 34
    assert len({tuple(form) for _k, _p, form in gens}) == 34
    # each member is an Ingleton form over disjoint d's, or an elemental form
    reference = disjoint_ingleton_forms(4) | {tuple(f) for f in polymatroid_forms(4)}
    assert all(tuple(form) in reference for _k, _p, form in gens)


@pytest.mark.parametrize("family,quad,implied", [
    ("delta", "{1,2},{3},{2,4},{1}", True),
    ("elemental", "{1},{2},{3},{4}", False)])
def test_implies_files(tmp_path, capsys, family, quad, implied):
    out = run(tmp_path, capsys, ["implies", "--n", "4", "--quad", quad, "--family", family,
                                 "--emit-certificates", "{tmp}/out"])
    fields = report_fields(out)
    assert (fields["implied"], fields["status"]) == ("true" if implied else "false", "ok")
    n, gens = read_generators(tmp_path / "out" / "generators.txt")
    if implied:
        assert check_certificates(tmp_path / "out" / "certificates.txt", n, gens) == [quad]
    else:
        [(label, h)] = read_witnesses(tmp_path / "out" / "witnesses.txt", n)
        assert label == quad
        check_witness(h, ingleton(n, *subsets(quad)), [g for _k, _p, g in gens])
        assert fields["witness"] == " ".join(
            f"{{{','.join(str(e + 1) for e in range(n) if m >> e & 1)}}}={h[m]}"
            for m in range(1, 1 << n) if h[m])


@pytest.mark.parametrize("n,sample", [(4, None), (5, "60")])
def test_theorem1_files(tmp_path, capsys, cli_run_once, n, sample):
    argv = ["check-theorem1", "--n", str(n), "--emit-certificates", "{tmp}/out"]
    out, where = run_scan(tmp_path, capsys, cli_run_once, argv, sample)
    fields = report_fields(out)
    _, gens = read_generators(where / "out" / "generators.txt")
    elemental = [tuple(f) for f in polymatroid_forms(n)]
    assert len(gens) == len(elemental) and {tuple(g) for _k, _p, g in gens} == set(elemental)
    implied = check_certificates(where / "out" / "certificates.txt", n, gens)
    wits = where / "out" / "witnesses.txt"
    separated = []
    for label, h in (read_witnesses(wits, n) if wits.exists() else []):
        check_witness(h, ingleton(n, *subsets(label)), [g for _k, _p, g in gens])
        separated.append(label)
    # Theorem 1: the elemental forms imply J exactly when an argument is covered
    assert all(covered(subsets(q)) for q in implied)
    assert not any(covered(subsets(q)) for q in separated)
    assert (int(fields["implied"]), int(fields["not-implied"])) == (len(implied), len(separated))
    assert (fields["counterexamples"], fields["status"]) == ("0", "ok")
    if sample:
        assert len(implied) + len(separated) == int(sample)


@pytest.mark.parametrize("n,sample", [(4, None), (5, "100")])
def test_completeness_files(tmp_path, capsys, cli_run_once, n, sample):
    argv = ["check-completeness", "--n", str(n), "--emit-certificates", "{tmp}/out"]
    out, where = run_scan(tmp_path, capsys, cli_run_once, argv, sample)
    fields = report_fields(out)
    _, gens = read_generators(where / "out" / "generators.txt")
    labels = check_certificates(where / "out" / "certificates.txt", n, gens)
    assert int(fields["certified"]) == len(labels)
    assert (fields["failures"], fields["status"]) == ("0", "ok")
    if sample:
        assert len(labels) == int(sample)
    else:
        # one certificate per swap class: a1 <= a2 and a3 <= a4 as masks
        pairs = (1 << n) * ((1 << n) + 1) // 2
        assert len(set(labels)) == len(labels) == pairs * pairs


def test_minimality_files(tmp_path, capsys):
    out = run(tmp_path, capsys, ["check-minimality", "--n", "4", "--emit-certificates",
                                 "{tmp}/out"])
    n, gens = read_generators(tmp_path / "out" / "generators.txt")
    wits = read_witnesses(tmp_path / "out" / "witnesses.txt", n)
    # each member is separated from the others by its own witness point
    assert [label for label, _h in wits] == [f"{k} {p}" for k, p, _g in gens]
    for k, (_label, h) in enumerate(wits):
        check_witness(h, gens[k][2], [g for j, (_k, _p, g) in enumerate(gens) if j != k])
    fields = report_fields(out)
    assert (fields["redundant"], fields["status"]) == ("0", "ok")


def test_violator_point_file(tmp_path, capsys):
    run(tmp_path, capsys, ["witness", "--n", "4", "--kind", "violator",
                           "--out", "{tmp}/point.txt"])
    lines = (tmp_path / "point.txt").read_text(encoding="ascii").splitlines()
    assert lines[0] == "n=4"
    h = point(lines[1], 4)
    assert h[15] == 1 and value(ingleton(4, 1, 2, 4, 8), h) < 0
    assert all(value(g, h) >= 0 for g in polymatroid_forms(4))


BUTTERFLY5 = """\
source s1
source s2
edge a from s1 cap 1
edge b from s2 cap 1
edge m from s1,s2 cap 1
sink t1 wants s1,s2 sees a,m
sink t2 wants s1,s2 sees b,m
"""


def test_butterfly5_bound_report(tmp_path, capsys):
    out = run(tmp_path, capsys, ["bound", "--network", "{tmp}/net.txt", "--cone", "gamma-in"],
              {"net.txt": BUTTERFLY5})
    n = 5  # elements s1, s2, a, b, m in that order

    def h(*elements) -> list:
        return unit(n, sum(1 << (e - 1) for e in elements))

    def cond(a: list, b: list) -> list:
        """h(a | b) for unit vectors a and b: h(a + b) - h(b)."""
        return add(unit(n, a.index(1) | b.index(1)), b, weights=[1, -1])

    # sources independent, each edge a function of its inputs, each sink
    # decodes both sources, unit capacities; maximize h(s1) + h(s2)
    rows = [(add(h(1, 2), h(1), h(2), weights=[1, -1, -1]), "=", 0),
            (cond(h(3), h(1)), "=", 0), (cond(h(4), h(2)), "=", 0),
            (cond(h(5), h(1, 2)), "=", 0),
            (cond(h(1, 2), h(3, 5)), "=", 0), (cond(h(1, 2), h(4, 5)), "=", 0),
            (h(3), "<=", 1), (h(4), "<=", 1), (h(5), "<=", 1)]
    objective = add(h(1), h(2))
    lines = out.splitlines()
    assert lines[1] == f"# bound n=5 cone=gamma-in sense=max constraints={len(rows)}"
    fields = report_fields(out)
    best = Fraction(fields["value"])
    assert (best, fields["status"], fields["verified"]) == (2, "optimal", "true")
    # the primal point is feasible and reaches the value
    x = point(fields["primal"], n)
    for form, rel, rhs in rows:
        v = value(form, x)
        assert v == rhs if rel == "=" else v <= rhs
    assert value(objective, x) == best
    assert all(value(g, x) >= 0 for g in polymatroid_forms(n))
    assert all(value(g, x) >= 0 for g in disjoint_ingleton_forms(n))
    # the dual multipliers prove that no feasible point does better:
    # objective = sum u_j row_j - sum lambda_g g, u >= 0 on <= rows, lambda >= 0
    user = [Fraction(0)] * len(rows)
    cone = []
    for ln in lines:
        if ln.startswith("dual user "):
            j, u = ln.split()[2:]
            user[int(j) - 1] = Fraction(u)
        elif ln.startswith("dual gen "):
            kind, payload, lam = ln.split()[2:]
            assert Fraction(lam) > 0
            cone.append((member_form(kind, payload, n), Fraction(lam)))
    assert all(u >= 0 for u, (_f, rel, _r) in zip(user, rows) if rel == "<=")
    combo = add(*(f for f, _rel, _r in rows), *(g for g, _lam in cone),
                weights=user + [-lam for _g, lam in cone])
    assert combo == objective
    assert sum(u * rhs for u, (_f, _rel, rhs) in zip(user, rows)) == best
