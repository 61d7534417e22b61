"""The package's verifiers judged against the dense re-checker on mutated answers.

For n in `NS`, the honest certificates of the exhaustive completeness
scan and the honest drop-one witnesses of `check_minimality(n)` are
mutated: ids or coefficients dropped, duplicated, permuted or truncated,
an id shifted by the member count or past the end, a coefficient or a
point coordinate nudged by 1/k, a sign flipped.  `verify_certificate` and `verify_witness` must
accept a mutant exactly when `recheck.certificate_holds` and
`recheck.witness_holds` do; an IndexError counts as a rejection.

Honest `solve_bound` results of the seeded random problems of
`test_bound._random_problem` at n=3 and n=4 (both cones, both senses, all
three statuses) are mutated the same way, their primal points and rays as
the witnesses are, and a claimed value nudged or sign-flipped besides.
Every honest answer is also judged under each problem mutant (sense
flipped, one row's relation changed or its right-hand side moved) and
with its primal or ray scaled.
`verify_bound_result` must accept exactly when `recheck.bound_result_holds`
does.
"""

import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import replace
from ingletonlp import bound, certify, ingen
from ingletonlp.entspace import EntropyVector, ingleton_expr, parse_quad
from recheck import (
    bound_result_holds,
    certificate_holds,
    ingleton,
    member_form,
    read_certificates,
    subsets,
    witness_holds,
)
from test_bound import _random_problem

NS = (3, 4)
by_n = pytest.mark.parametrize("n", NS)


@functools.cache
def _members(n):
    """(package expressions, dense forms) of Delta at n, in member order."""
    delta = ingen.gen_delta(n)
    return ([ci.expr for ci in delta],
            [member_form(ci.kind, ci.payload_text(), n) for ci in delta])


@pytest.fixture(scope="module")
def certificates(cli_run_once):
    """certificates(n): (label, gen_ids, coeffs) of every nonempty certificate
    that `check-completeness --n n` writes; at n=4 that is the run test_golden
    hashes, shared through tests/conftest.py, so the scan runs once."""
    @functools.cache
    def read(n):
        code, _out, where = cli_run_once(["check-completeness", "--n", str(n),
                                          "--emit-certificates", "{tmp}/out"])
        assert code == 0
        return [(label, [g for g, _c in cert], [c for _g, c in cert])
                for label, cert in read_certificates(where / "out" / "certificates.txt") if cert]
    return read


@functools.cache
def _witnesses(n):
    """(member id, dense point) of every drop-one witness of the n scan."""
    report = certify.check_minimality(n)
    return [(k, [0, *(v for _m, v in w.point.items())])
            for k, (_kind, _payload, w) in enumerate(report.witnesses)]


_IDS = ("drop", "duplicate", "permute", "truncate", "shift", "past", "flip")
_COEFFS = ("drop", "duplicate", "permute", "truncate", "nudge", "flip")
_PAIRS = ("drop", "duplicate", "permute", "truncate")


@st.composite
def _list_mutant(draw, items, hows, count=0):
    """items mutated once by one of hows: an entry dropped, duplicated, nudged
    by 1/k, sign-flipped, shifted by the member count or put past the end,
    or the list permuted or truncated."""
    items = list(items)
    i = draw(st.integers(0, len(items) - 1))
    how = draw(st.sampled_from(hows))
    if how == "drop":
        del items[i]
    elif how == "duplicate":
        items.insert(i, items[i])
    elif how == "permute":
        items = draw(st.permutations(items))
    elif how == "truncate":
        items = items[:i]
    elif how == "nudge":
        items[i] += draw(st.sampled_from([1, -1])) * Fraction(1, draw(st.integers(1, 6)))
    elif how == "flip":
        items[i] = -items[i]
    elif how == "shift":
        items[i] += draw(st.sampled_from([count, -count]))
    else:
        items[i] = count + draw(st.integers(0, 3))
    return items


@st.composite
def _combination_mutant(draw, ids, coeffs, count):
    """(ids, coeffs) of a cone combination over count members, with the ids,
    the coefficients or both in step mutated by _list_mutant."""
    part = draw(st.sampled_from(["ids", "coeffs", "pairs"]))
    if part == "ids":
        ids = draw(_list_mutant(ids, _IDS, count))
    elif part == "coeffs":
        coeffs = draw(_list_mutant(coeffs, _COEFFS))
    else:  # both in step
        pairs = draw(_list_mutant(list(zip(ids, coeffs)), _PAIRS))
        ids, coeffs = [g for g, _c in pairs], [c for _g, c in pairs]
    return ids, coeffs


@st.composite
def _certificate_mutants(draw, honest, count):
    # drawn by index: a strategy over n=4's 15,277 certificates would hash each
    label, ids, coeffs = honest[draw(st.integers(0, len(honest) - 1))]
    return (label, *draw(_combination_mutant(ids, coeffs, count)))


def _package_accepts_certificate(n, label, ids, coeffs):
    exprs, _forms = _members(n)
    cert = certify.FarkasCertificate(tuple(ids), tuple(coeffs))
    try:
        return certify.verify_certificate(ingleton_expr(parse_quad(label, n)), exprs, cert)
    except IndexError:
        return False


@by_n
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_certificate_agrees_with_the_recheck(n, certificates, data):
    _exprs, forms = _members(n)
    label, ids, coeffs = data.draw(_certificate_mutants(certificates(n), len(forms)))
    want = certificate_holds(ids, coeffs, ingleton(n, *subsets(label)), forms)
    assert _package_accepts_certificate(n, label, ids, coeffs) == want


@st.composite
def _point_mutant(draw, h):
    """The dense point h with one coordinate zeroed, copied to another, nudged
    by 1/k or sign-flipped, its coordinates permuted, or those from one on zeroed."""
    h = list(h)
    i, j = draw(st.integers(1, len(h) - 1)), draw(st.integers(1, len(h) - 1))
    how = draw(st.sampled_from(["drop", "duplicate", "permute", "truncate", "nudge", "flip"]))
    if how == "drop":
        h[i] = 0
    elif how == "duplicate":
        h[j] = h[i]
    elif how == "permute":
        h[1:] = draw(st.permutations(h[1:]))
    elif how == "truncate":
        h[i:] = [0] * (len(h) - i)
    elif how == "nudge":
        h[i] += draw(st.sampled_from([1, -1])) * Fraction(1, draw(st.integers(1, 6)))
    else:
        h[i] = -h[i]
    return h


@st.composite
def _witness_mutants(draw, n):
    """A drop-one witness mutated by _point_mutant."""
    k, h = draw(st.sampled_from(_witnesses(n)))
    return k, draw(_point_mutant(h))


@by_n
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_verify_witness_agrees_with_the_recheck(n, data):
    k, h = data.draw(_witness_mutants(n))
    exprs, forms = _members(n)
    want = witness_holds(h, forms[k], forms[:k] + forms[k + 1:])
    wit = certify.SeparationWitness(EntropyVector(n, h[1:]))
    assert certify.verify_witness(exprs[k], exprs[:k] + exprs[k + 1:], wit) == want


@by_n
def test_the_honest_answers_pass_both(n, certificates):
    exprs, forms = _members(n)
    for label, ids, coeffs in certificates(n):
        assert _package_accepts_certificate(n, label, ids, coeffs)
        assert certificate_holds(ids, coeffs, ingleton(n, *subsets(label)), forms)
    for k, h in _witnesses(n):
        assert witness_holds(h, forms[k], forms[:k] + forms[k + 1:])


# ---------------------------------------------------------------------------
# bound results


@functools.cache
def _cone(n, cone):
    """(members, dense forms) of a cone, in member order."""
    members = bound.cone_members(n, cone)
    return members, [member_form(ci.kind, ci.payload_text(), n) for ci in members]


def _dense(n, expr):
    out = [0] * (1 << n)
    for m, c in expr.coeffs.items():
        out[m] = c
    return out


def _answer(res):
    """A BoundResult as recheck.bound_result_holds keywords: dense points, lists."""
    cert = res.dual or res.farkas
    point = lambda h: None if h is None else [0, *(v for _m, v in h.items())]
    return dict(status=res.status, claimed=res.value, primal=point(res.primal),
                user=None if cert is None else list(cert.user),
                cone=None if cert is None else list(cert.cone), ray=point(res.ray))


@functools.cache
def _bound_cases():
    """(problem, honest answer) of each seeded random problem at n=3 and n=4."""
    cases = []
    for n in (3, 4):
        rng = random.Random(n)
        for _ in range(30):
            problem = _random_problem(rng, n)
            members = _cone(n, problem.cone)[0]
            cases.append((problem, _answer(bound.solve_bound(problem, members=members))))
    return cases


def _package_accepts_bound(problem, answer):
    n, status = problem.n, answer["status"]
    point = lambda h: None if h is None else EntropyVector(n, h[1:])
    cert = None
    if answer["user"] is not None:
        kind = bound.DualCertificate if status == "optimal" else bound.InfeasibilityCertificate
        cert = kind(tuple(answer["user"]), tuple(answer["cone"]))
    result = bound.BoundResult(status, answer["claimed"], point(answer["primal"]),
                               cert if status == "optimal" else None,
                               cert if status == "infeasible" else None, point(answer["ray"]))
    return bound.verify_bound_result(problem, result, members=_cone(n, problem.cone)[0])


def _recheck_accepts_bound(problem, answer):
    n = problem.n
    rows = [(_dense(n, e), rel, rhs) for e, rel, rhs in problem.constraints]
    return bound_result_holds(problem.sense, _dense(n, problem.objective), rows,
                              _cone(n, problem.cone)[1], **answer)


@st.composite
def _bound_mutants(draw):
    """An honest answer with its user or cone multipliers mutated as a certificate's
    are, its primal or ray as a witness's, or its claimed value nudged or flipped."""
    problem, answer = draw(st.sampled_from(_bound_cases()))
    answer = dict(answer)
    parts = [p for p in ("user", "cone", "primal", "ray") if answer[p]]
    part = draw(st.sampled_from(parts + ["claimed"] * (answer["claimed"] is not None)))
    if part == "user":
        answer["user"] = draw(_list_mutant(answer["user"], _COEFFS))
    elif part == "cone":
        ids, coeffs = zip(*answer["cone"])
        count = len(_cone(problem.n, problem.cone)[0])
        answer["cone"] = list(zip(*draw(_combination_mutant(list(ids), list(coeffs), count))))
    elif part == "claimed":
        answer["claimed"] = draw(_list_mutant([answer["claimed"]], ("nudge", "flip")))[0]
    else:
        answer[part] = draw(_point_mutant(answer[part]))
    return problem, answer


@settings(max_examples=300, deadline=None)
@given(_bound_mutants())
def test_verify_bound_result_agrees_with_the_recheck(case):
    problem, answer = case
    assert _package_accepts_bound(problem, answer) == _recheck_accepts_bound(problem, answer)


def _problem_mutants(problem, answer):
    """Every answer kept under its problem with the sense flipped, one row's
    relation changed or its rhs moved by +-1/2; and every answer with its
    primal or ray scaled by 1/2 or 2 under the problem itself."""
    flipped = "min" if problem.sense == "max" else "max"
    problems = [replace(problem, sense=flipped)]
    for i, (lhs, rel, rhs) in enumerate(problem.constraints):
        rows = list(problem.constraints)
        for row in [(lhs, r, rhs) for r in bound.RELATIONS if r != rel] + [
                (lhs, rel, rhs + d) for d in (Fraction(1, 2), Fraction(-1, 2))]:
            rows[i] = row
            problems.append(replace(problem, constraints=tuple(rows)))
    yield from ((p, answer) for p in problems)
    for part in ("primal", "ray"):
        if answer[part] is not None:
            for k in (Fraction(1, 2), 2):
                yield problem, dict(answer, **{part: [k * x for x in answer[part]]})


def test_verify_bound_result_agrees_with_the_recheck_on_every_problem_mutant():
    outcomes = set()
    for case in _bound_cases():
        for problem, answer in _problem_mutants(*case):
            want = _recheck_accepts_bound(problem, answer)
            assert _package_accepts_bound(problem, answer) == want
            outcomes.add(want)
    assert outcomes == {True, False}


def test_the_honest_bound_results_pass_both():
    cases = _bound_cases()
    for problem, answer in cases:
        assert _package_accepts_bound(problem, answer)
        assert _recheck_accepts_bound(problem, answer)
    assert {a["status"] for _p, a in cases} == {"optimal", "infeasible", "unbounded"}
    assert {p.cone for p, _a in cases} == {bound.CONE_GAMMA, bound.CONE_GAMMA_IN}
    assert {p.sense for p, _a in cases} == set(bound.SENSES)
