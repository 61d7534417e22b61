"""The benchmark's workloads: the ingletonlp command each runs, and its output check.

Every workload is one CLI command run with the default `--workers 1`.
Beside each is why it is in the benchmark, the layer it loads and the
layers it bypasses.  A check raises `CheckFailed` when an output is
wrong; it re-verifies the printed answer in exact arithmetic with the
package's own verifiers, so another optimal dual or certificate still
passes.  Byte identity with the seed's stdout is reported, and is
required only for `gen-n8`, whose output has a single correct form.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from ingletonlp import bound, certify, ingen
from ingletonlp.entspace import (
    IngletonQuad,
    format_quad,
    ingleton_expr,
    parse_quad,
    vector_from_text,
)


class CheckFailed(Exception):
    """An output of the measured command is wrong."""


# The butterfly of tests/test_bound.py without its two relay edges m1, m2:
# n=5 instead of 7.  One n=7 butterfly solve takes about 65 s, and every
# n=6 gamma-in instance tried needed 24 s or more, which leaves no room
# for repeats inside one benchmark run.
BUTTERFLY5 = """\
source s1
source s2
edge a from s1 cap 1
edge b from s2 cap 1
edge m from s1,s2 cap 1
sink t1 wants s1,s2 sees a,m
sink t2 wants s1,s2 sees b,m
"""

SCAN_N = 5
COMPLETENESS_SAMPLE = 1000
GEN_N = 8
# sha256 of `gen --n 8` output at the commit that defined the benchmark
GEN8_SHA256 = "f457d393cba5f67127e6676ca9717597f61193cafdaca1406aced867db1d160a"


def _require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _report_fields(text: str) -> dict[str, str]:
    """First value of each `key value` line of a report."""
    fields: dict[str, str] = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        fields.setdefault(key, value)
    return fields


def parse_bound_report(problem: bound.BoundProblem, text: str) -> bound.BoundResult:
    """Rebuild the optimal BoundResult a `bound` report prints."""
    members = bound.cone_members(problem.n, problem.cone)
    index = {(ci.kind, ci.payload_text()): k for k, ci in enumerate(members)}
    fields = _report_fields(text)
    _require(fields.get("status") == "optimal", "status is not optimal")
    user = [Fraction(0)] * len(problem.constraints)
    cone = []
    for line in text.splitlines():
        parts = line.split(" ")
        if parts[:2] == ["dual", "user"]:
            user[int(parts[2]) - 1] = Fraction(parts[3])
        elif parts[:2] == ["dual", "gen"]:
            key = (parts[2], " ".join(parts[3:-1]))
            _require(key in index, f"dual names unknown member {key}")
            cone.append((index[key], Fraction(parts[-1])))
    primal = vector_from_text(f"n={problem.n}\n{fields['primal']}\n")
    dual = bound.DualCertificate(user=tuple(user), cone=tuple(cone))
    return bound.BoundResult(status="optimal", value=Fraction(fields["value"]),
                             primal=primal, dual=dual)


def check_bound(run_dir: Path, stdout: bytes, seed: int) -> None:
    net = bound.parse_network(BUTTERFLY5)
    problem = bound.compile_network(net, cone=bound.CONE_GAMMA_IN)
    result = parse_bound_report(problem, stdout.decode("ascii"))
    _require(result.value == 2, f"value {result.value}, expected 2")
    _require(bound.verify_bound_result(problem, result),
             "certificate fails verify_bound_result")


def check_completeness(run_dir: Path, stdout: bytes, seed: int) -> None:
    fields = _report_fields(stdout.decode("ascii"))
    _require(fields.get("status") == "ok", "status is not ok")
    _require(fields.get("samples") == str(COMPLETENESS_SAMPLE), "wrong sample count")
    _require(fields.get("certified") == fields.get("samples"),
             "certified differs from samples")
    certs = certify.read_certificates(run_dir / "ce" / "certificates.txt")
    rng = random.Random(seed)
    top = 2 ** SCAN_N
    expected = [format_quad(IngletonQuad(SCAN_N, *(rng.randrange(top) for _ in range(4))))
                for _ in range(COMPLETENESS_SAMPLE)]
    _require([label for label, _c in certs] == expected,
             "certificates do not cover the seeded sample")
    gens = [ci.expr for ci in ingen.gen_delta(SCAN_N)]
    for label, cert in certs:
        target = ingleton_expr(parse_quad(label, SCAN_N))
        _require(certify.verify_certificate(target, gens, cert),
                 f"certificate for {label} fails verification")


def check_minimality(run_dir: Path, stdout: bytes, seed: int) -> None:
    text = stdout.decode("ascii")
    fields = _report_fields(text)
    _require(fields.get("status") == "ok", "status is not ok")
    delta = ingen.gen_delta(SCAN_N)
    exprs = [ci.expr for ci in delta]
    index = {(ci.kind, ci.payload_text()): k for k, ci in enumerate(delta)}
    seen = set()
    for line in text.splitlines():
        if not line.startswith("witness\t"):
            continue
        _tag, kind, payload, pairs = line.split("\t")
        k = index.get((kind, payload))
        _require(k is not None and k not in seen, f"stray witness {kind} {payload}")
        seen.add(k)
        wit = certify.SeparationWitness(vector_from_text(f"n={SCAN_N}\n{pairs}\n"))
        _require(certify.verify_witness(exprs[k], exprs[:k] + exprs[k + 1:], wit),
                 f"witness for {kind} {payload} fails verification")
    _require(len(seen) == len(delta), f"{len(seen)} witnesses for {len(delta)} members")


def check_gen(run_dir: Path, stdout: bytes, seed: int) -> None:
    digest = hashlib.sha256((run_dir / "members.txt").read_bytes()).hexdigest()
    _require(digest == GEN8_SHA256, "members file differs from the seed's")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # one line; BENCHMARK.json carries the same text
    loads: str
    bypasses: str
    args: Callable[[int], list[str]]  # seed -> ingletonlp arguments
    check: Callable[[Path, bytes, int], None]
    inputs: tuple[tuple[str, str], ...] = ()  # files written beside the run
    golden_required: bool = False

    def golden_status(self, seed: int, stdout: bytes) -> str:
        """`match`, `differs`, or `unknown` when no golden is recorded for the seed."""
        table = GOLDEN_STDOUT[self.name]
        want = table.get(seed, table.get(None))
        if want is None:
            return "unknown"
        return "match" if hashlib.sha256(stdout).hexdigest() == want else "differs"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="bound-butterfly5",
        why="exact LP bound on a 5-node butterfly over gamma-in: the exact simplex does"
            " most of the work, so it shows any change to the LP core",
        loads="simplex (one exact solve over all 205 Delta columns, 31 rows), bound",
        bypasses="column generation and warm starts (205 members is below the"
                 " 800-member all-columns limit), certify",
        args=lambda seed: ["bound", "--network", "butterfly5.net", "--cone", "gamma-in"],
        check=check_bound,
        inputs=(("butterfly5.net", BUTTERFLY5),),
    ),
    # Runnable by name, but not listed in BENCHMARK.json: four workloads of
    # repeated 8-9 s commands do not fit the benchmark's total run budget.
    # It is the one workload whose input depends on --seed, for re-checking
    # a claim on a held-out seed.
    Workload(
        name="scan-completeness",
        why="1000 seeded Ingleton quads at n=5, each certified by HiGHS plus a small"
            " exact solve: shows per-call overhead of many small LPs",
        loads="certify (HiGHS presolve and certificate side), simplex on 31-row systems,"
              " verify_certificate",
        bypasses="bound, column generation, witness repair",
        args=lambda seed: ["check-completeness", "--n", str(SCAN_N),
                           "--sample", str(COMPLETENESS_SAMPLE), "--seed", str(seed),
                           "--emit-certificates", "ce"],
        check=check_completeness,
    ),
    Workload(
        name="scan-minimality",
        why="205 drop-one non-implication decisions at n=5: certify from the witness"
            " side, never the exact simplex, so the control for LP-core changes",
        loads="certify (HiGHS, witness repair), entspace.evaluate, verify_witness",
        bypasses="the exact simplex, bound",
        args=lambda seed: ["check-minimality", "--n", str(SCAN_N)],
        check=check_minimality,
    ),
    Workload(
        name="gen-n8",
        why="writes the 122,886 Delta members for n=8 (21 MB): generation and the text"
            " writer dominate and memory grows with n; no LP, the control for solvers",
        loads="ingen (generation and inequalities_to_text), peak memory",
        bypasses="every LP layer: simplex, HiGHS, certify, bound",
        args=lambda seed: ["gen", "--n", str(GEN_N), "--out", "members.txt"],
        check=check_gen,
        golden_required=True,
    ),
)}

# sha256 of each workload's stdout at the commit that defined the
# benchmark, keyed by seed where the command takes it
GOLDEN_STDOUT: dict[str, dict[int | None, str]] = {
    "bound-butterfly5": {
        None: "3b43c599219c0528232f7336e57ca8d5a50adbc55ebb637271ee0d2bb92c6a85"},
    "scan-completeness": {
        0: "3c3f18d7ce18b8d2d8cf5edb1d07fb33538d0824249b2053e64d0a50e761a4d9"},
    "scan-minimality": {
        None: "1ba5dd8b7f9a2bbc69e06810734c86a72582c977e4eba0372db31169790f438f"},
    "gen-n8": {
        None: "34f32ab10cc564eca3b316a825567586d8764326d31bcea4ba67ff0de521d827"},
}
