"""Farkas certificates, separation witnesses, and the scan reports."""

import functools
import itertools
import multiprocessing
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import replace
from ingletonlp import bound, certify, ingen
from ingletonlp.entspace import (
    EntropyVector,
    GroundSetError,
    IngletonQuad,
    LinExpr,
    MemberTable,
    evaluate,
    ingleton_expr,
    parse_expr,
    witness_modular,
)


def delta_exprs(n):
    return [ci.expr for ci in ingen.gen_delta(n)]


def elemental_exprs(n):
    return [ci.expr for ci in ingen.gen_elemental(n)]


# ---------------------------------------------------------------------------
# certificates


def test_conic_implies_finds_exact_combination():
    gens = delta_exprs(3)
    target = ingleton_expr(IngletonQuad(3, 0b1, 0b10, 0, 0b100))
    cert = certify.decide_implication(target, gens)
    assert isinstance(cert, certify.FarkasCertificate)
    assert all(cf > 0 for cf in cert.coeffs)
    assert all(isinstance(cf, Fraction) for cf in cert.coeffs)
    assert certify.verify_certificate(target, gens, cert)
    # re-verify by hand: the combination reproduces the target exactly
    combo = sum((cf * gens[k] for k, cf in zip(cert.gen_ids, cert.coeffs)),
                start=parse_expr("0", 3))
    assert combo == target


def test_verify_certificate_rejects_tampered_coeffs():
    gens = delta_exprs(3)
    target = gens[0] + gens[1]
    cert = certify.decide_implication(target, gens)
    assert isinstance(cert, certify.FarkasCertificate) and certify.verify_certificate(target, gens, cert)
    bad = certify.FarkasCertificate(cert.gen_ids,
                                    tuple(cf + 1 for cf in cert.coeffs))
    assert not certify.verify_certificate(target, gens, bad)


def test_verify_certificate_rejects_negative_multiplier():
    gens = delta_exprs(3)
    target = gens[0] - gens[1]  # needs a negative weight: not conic
    cert = certify.FarkasCertificate((0, 1), (Fraction(1), Fraction(-1)))
    assert not certify.verify_certificate(target, gens, cert)
    assert isinstance(certify.decide_implication(target, gens), certify.SeparationWitness)


def test_verify_certificate_rejects_ids_and_coeffs_of_different_lengths():
    gens = delta_exprs(3)
    # zip would drop the unpaired id 99 and check gens[0] against itself
    one = (Fraction(1),)
    assert not certify.verify_certificate(gens[0], gens, certify.FarkasCertificate((0, 99), one))
    assert not certify.verify_certificate(gens[0], gens, certify.FarkasCertificate((0,), one * 2))
    assert certify.verify_certificate(gens[0], gens, certify.FarkasCertificate((0,), one))
    with pytest.raises(IndexError):
        certify.verify_certificate(gens[0], gens, certify.FarkasCertificate((99,), one))


def test_verify_certificate_checks_the_ground_set():
    # the same mask and coefficient over n=4 is not the n=3 target
    with pytest.raises(GroundSetError):
        certify.verify_certificate(LinExpr(3, {1: 1}), [LinExpr(4, {1: 1})],
                                   certify.FarkasCertificate((0,), (Fraction(1),)))


def test_separation_witness_when_not_implied():
    gens = elemental_exprs(4)
    target = ingleton_expr(IngletonQuad(4, 0b1, 0b10, 0b100, 0b1000))
    wit = certify.decide_implication(target, gens)
    assert isinstance(wit, certify.SeparationWitness)
    assert certify.verify_witness(target, gens, wit)
    assert evaluate(target, wit.point) < 0
    assert all(evaluate(g, wit.point) >= 0 for g in gens)


def test_separation_witness_absent_when_implied():
    gens = delta_exprs(3)
    target = gens[2] + gens[5]
    assert isinstance(certify.decide_implication(target, gens), certify.FarkasCertificate)



@pytest.mark.parametrize("implied", [True, False])
def test_target_beyond_float_range_is_decided_exactly(implied):
    # coefficients of 10**400 overflow a float; the presolve steps aside
    gens = elemental_exprs(4)
    base = gens[0] + gens[3] if implied else ingleton_expr(IngletonQuad(4, 1, 2, 4, 8))
    target = base * 10 ** 400
    out = certify.decide_implication(target, gens)
    if implied:
        assert isinstance(out, certify.FarkasCertificate)
        assert certify.verify_certificate(target, gens, out)
    else:
        assert isinstance(out, certify.SeparationWitness)
        assert certify.verify_witness(target, gens, out) and evaluate(target, out.point) == -1


@pytest.mark.parametrize("implied", [True, False])
def test_generators_beyond_float_range_are_decided_exactly(monkeypatch, implied):
    # building the float columns overflows inside decide's presolve guard,
    # so the presolve steps aside before any HiGHS call
    monkeypatch.setattr(certify, "linprog", None)  # any HiGHS call would raise
    base = elemental_exprs(4)
    gens = [g * 10 ** 400 for g in base]
    # the target itself fits a float; only the generators do not
    target = base[0] + base[3] if implied else ingleton_expr(IngletonQuad(4, 1, 2, 4, 8))
    out = certify.decide_implication(target, gens)
    if implied:
        assert isinstance(out, certify.FarkasCertificate)
        assert certify.verify_certificate(target, gens, out)
    else:
        assert isinstance(out, certify.SeparationWitness)
        assert certify.verify_witness(target, gens, out) and evaluate(target, out.point) == -1


def test_certificate_file_roundtrip(tmp_path):
    gens = delta_exprs(3)
    items = []
    for idx in (0, 3):
        target = gens[idx]
        cert = certify.decide_implication(target, gens)
        assert isinstance(cert, certify.FarkasCertificate)
        items.append((f"member-{idx}", cert))
    path = tmp_path / "certs.txt"
    certify.write_certificates(path, items)
    back = certify.read_certificates(path)
    assert back == items


@pytest.mark.parametrize("line", ["q\t0:1/0", "q\t0:x", "q\t0"])
def test_bad_certificate_line_is_value_error(line):
    with pytest.raises(ValueError):
        certify.parse_certificate_line(line)


def test_witness_file_roundtrip(tmp_path):
    gens = elemental_exprs(4)
    target = ingleton_expr(IngletonQuad(4, 0b1, 0b10, 0b100, 0b1000))
    wit = certify.decide_implication(target, gens)
    assert isinstance(wit, certify.SeparationWitness)
    path = tmp_path / "wit.txt"
    certify.write_witnesses(path, 4, [("gap", wit)])
    n, back = certify.read_witnesses(path)
    assert n == 4
    label, w2 = back[0]
    assert label == "gap"
    assert all(w2.point[m] == wit.point[m] for m in range(1, 16))


# ---------------------------------------------------------------------------
# scans


def test_theorem1_n3_every_orbit_implied():
    rep = certify.check_theorem1(3)
    assert (rep.quads, rep.classes, rep.orbits) == (4096, 1296, 291)
    assert rep.implied == 291 and rep.not_implied == 0
    assert not rep.counterexamples
    assert rep.ok
    assert rep.to_text().endswith("status ok\n")


def test_theorem1_sampled_mode_is_deterministic():
    a = certify.check_theorem1(5, sample=200, seed=11)
    b = certify.check_theorem1(5, sample=200, seed=11)
    assert a.to_text() == b.to_text()
    assert a.mode == "sample"
    assert a.ok


def test_theorem1_worker_count_does_not_change_report():
    a = certify.check_theorem1(3, workers=1)
    b = certify.check_theorem1(3, workers=2)
    assert a.to_text() == b.to_text()


@pytest.mark.parametrize("n, sample", [(3, None), (4, 50)])
def test_completeness_worker_count_does_not_change_report(n, sample):
    # the exhaustive scan carries certificates across orbits after the workers
    # return, the sampled one takes each certificate from a worker
    a = certify.check_completeness(n, sample=sample, workers=1)
    b = certify.check_completeness(n, sample=sample, workers=2)
    assert a.to_text() == b.to_text()
    assert a.certificates == b.certificates and len(a.certificates) == a.certified > 0


def test_completeness_n3_certifies_every_class():
    rep = certify.check_completeness(3)
    assert rep.mode == "exhaustive"
    assert (rep.quads, rep.classes, rep.orbits) == (4096, 1296, 291)
    assert rep.certified == 1296
    assert len(rep.certificates) == 1296
    assert rep.ok and not rep.failures
    assert rep.to_text().endswith("status ok\n")


def test_completeness_sampled_mode():
    rep = certify.check_completeness(5, sample=50, seed=3)
    assert rep.mode == "sample"
    assert rep.certified == rep.samples == 50
    assert rep.ok


def _assert_minimality_n3(rep):
    assert rep.members == 9
    assert len(rep.witnesses) == 9
    assert not rep.redundant
    assert rep.ok
    # each witness drives its own member negative while the rest stay >= 0
    gens = delta_exprs(3)
    members = ingen.gen_delta(3)
    by_payload = {(ci.kind, ci.payload_text()): k
                  for k, ci in enumerate(members)}
    for kind, payload, wit in rep.witnesses:
        k = by_payload[(kind, payload)]
        assert evaluate(gens[k], wit.point) == -1
        rest = gens[:k] + gens[k + 1:]
        assert all(evaluate(g, wit.point) >= 0 for g in rest)


def test_minimality_n3_no_member_redundant():
    _assert_minimality_n3(certify.check_minimality(3))


@pytest.mark.parametrize("n", [3, 4])
def test_witness_first_settles_drop_one_like_decide(n):
    # the scan's order (separating point first) and the default order
    # (feasibility LP first) give the same answer, witness point included
    gens = delta_exprs(n)
    for k, target in enumerate(gens):
        rest = certify._ConeSystem(gens[:k] + gens[k + 1:])
        first = certify._settle(rest, target, witness_first=True)
        assert isinstance(first, certify.SeparationWitness)
        assert first == certify._settle(rest, target)


def test_separate_leaves_lp_free_answers_to_decide(monkeypatch):
    monkeypatch.setattr(certify, "linprog", None)  # any HiGHS call would raise
    # witness_first puts no LP before the zero and outside-the-support answers
    system = certify._ConeSystem([parse_expr("+1*h{1}", 2)])
    zero = certify._settle(system, parse_expr("0", 2), witness_first=True)
    assert zero == certify.FarkasCertificate((), ())
    unit = certify._settle(system, parse_expr("+1*h{2}", 2), witness_first=True)
    assert unit.point[0b10] == -1


def _counting_linprog(monkeypatch):
    calls = []
    real = certify.linprog
    monkeypatch.setattr(certify, "linprog", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


def test_one_lp_per_drop_one_member(monkeypatch):
    # n=4: one LP for the first member of each of the 5 orbits, and one for
    # each of the 3 other members of the h(i|N-i) orbit, whose representative's
    # witness the relabelings fixing it move; the other 26 take a carried
    # witness: 5 + 3
    calls = _counting_linprog(monkeypatch)
    assert certify.check_minimality(4).ok
    assert len(calls) == 8
    calls.clear()
    gens = delta_exprs(3)
    cert = certify.decide_implication(gens[0] + gens[-1], gens)
    assert isinstance(cert, certify.FarkasCertificate) and len(calls) == 1


def _assert_same_system(sub, fresh):
    assert (sub.n, sub.gens, sub._exact_keys, +sub.uses) == \
        (fresh.n, fresh.gens, fresh._exact_keys, fresh.uses)
    # a mask only the dropped member used stays in sub with no use
    if sub.masks == fresh.masks:
        assert sub.index == fresh.index
        # the float column lists, compared exactly
        assert sub.float_gens() == fresh.float_gens()
        assert sub.float_cone() == fresh.float_cone()


def _check_drop_one_systems(gens, targets=None):
    """Each full.without(k) matches _ConeSystem(rest), and so do its settled
    answers on targets(k) (default: every generator), witness points included."""
    full = certify._ConeSystem(gens)
    full.float_gens()
    for k in range(len(gens)):
        sub, fresh = full.without(k), certify._ConeSystem(gens[:k] + gens[k + 1:])
        _assert_same_system(sub, fresh)
        for t in (targets(k) if targets else gens):
            for witness_first in (True, False):
                assert certify._settle(sub, t, witness_first=witness_first) == \
                    certify._settle(fresh, t, witness_first=witness_first)
    return full


@pytest.mark.parametrize("n", [3, 4])
def test_drop_one_system_decides_like_a_fresh_one(n):
    gens = delta_exprs(n)
    # the member itself, an implied sum and a member the others still hold
    full = _check_drop_one_systems(gens, lambda k: (
        gens[k], gens[k - 1] + gens[(k + 1) % len(gens)], gens[k - 1]))
    assert all(full.without(k).masks is full.masks for k in range(len(gens)))  # derived


def test_drop_one_system_without_the_only_member_on_a_mask():
    gens = [parse_expr(t, 3) for t in ("+1*h{1}", "+1*h{2}", "+1*h{1} +1*h{2}", "+1*h{3}")]
    full = _check_drop_one_systems(gens)
    assert full.without(3).masks is full.masks and full.without(3).uses[0b100] == 0
    assert full.without(0).masks is full.masks
    # h{3} is now unconstrained
    assert certify._settle(full.without(3), gens[3]).point[0b100] == -1
    with pytest.raises(ValueError, match="at least one generator"):
        certify._ConeSystem(gens[:1]).without(0)


def test_drop_one_system_without_a_repeated_member():
    gens = [parse_expr(t, 3) for t in ("+1*h{1}", "+1*h{1} +1*h{2}", "+1*h{1}")]
    full = _check_drop_one_systems(gens)
    # the other copy is now generator 1
    assert certify._settle(full.without(0), gens[0]) == \
        certify.FarkasCertificate((1,), (Fraction(1),))


# the Delta members at n=3, then every single-mask form +1*h{m}
_N3_POOL = delta_exprs(3) + [LinExpr.single(3, m) for m in range(1, 8)]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, len(_N3_POOL) - 1), min_size=2, max_size=7), st.booleans())
def test_drop_one_system_matches_a_fresh_one_on_drawn_generators(picks, float_first):
    # repeated members and masks that one member alone uses included
    gens = [_N3_POOL[i] for i in picks]
    full = certify._ConeSystem(gens)
    if float_first:
        full.float_gens()
    for k in range(len(gens)):
        sub, fresh = full.without(k), certify._ConeSystem(gens[:k] + gens[k + 1:])
        before, after = gens[k - 1], gens[(k + 1) % len(gens)]
        for t in gens + [before + after, before - after]:
            for witness_first in (True, False):
                got = certify._settle(sub, t, witness_first=witness_first)
                want = certify._settle(fresh, t, witness_first=witness_first)
                # every generator gets the fresh answer; so does every target
                # unless k alone used a mask, a free coordinate of sub's LPs
                if t in gens or sub.masks == fresh.masks:
                    assert got == want
                assert type(got) is type(want)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_no_delta_member_alone_on_a_mask_or_repeated(n):
    # so dropping any one member leaves every mask used and every key unique
    gens = delta_exprs(n)
    uses = Counter(m for g in gens for m in g.coeffs)
    assert set(uses) == set(range(1, 2 ** n)) and min(uses.values()) >= 2
    assert len({g.key() for g in gens}) == len(gens)


def test_minimality_builds_the_float_rows_once(monkeypatch):
    calls = []
    real = certify.float_columns
    monkeypatch.setattr(certify, "float_columns",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    assert certify.check_minimality(4).ok
    assert len(calls) == 1


def _fraction_value(e, h):
    return sum(c * h[m] for m, c in e.coeffs.items())


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-2, 9), min_size=15, max_size=15), st.integers(2, 30),
       st.lists(st.integers(0, 15), min_size=1, max_size=4), st.integers(0, 33))
def test_verify_witness_agrees_with_fraction_evaluation(nums, den, picks, t):
    point = EntropyVector(4, [Fraction(a, den) for a in nums])
    assume(point.den > 1)
    gens = [elemental_exprs(4)[i] for i in picks]
    target = delta_exprs(4)[t]
    want = all(_fraction_value(g, point) >= 0 for g in gens) and \
        _fraction_value(target, point) < 0
    assert certify.verify_witness(target, gens, certify.SeparationWitness(point)) == want


_LANES = {"first": 0, "middle": 14, "last": 27}  # of the 28 elemental members at n=4


def _drop_one_point(gens, k):
    """A point that violates gens[k] alone, at value -1."""
    wit = certify.decide_implication(gens[k], gens[:k] + gens[k + 1:])
    assert isinstance(wit, certify.SeparationWitness)
    return wit


@pytest.mark.parametrize("where", list(_LANES))
def test_a_point_violating_one_member_is_rejected(where):
    # the packed pass reads every other lane as nonnegative, so the one
    # violated lane alone must reject the point, wherever it sits
    gens, k = elemental_exprs(4), _LANES[where]
    wit, table = _drop_one_point(gens, k), MemberTable(gens)
    assert certify.verify_witness(gens[k], gens[:k] + gens[k + 1:], wit)
    assert certify.verify_witness(gens[k], table.without(k), wit)
    assert not certify.verify_witness(gens[k], gens, wit)
    assert not certify.verify_witness(gens[k], table, wit)
    with pytest.raises(GroundSetError):
        certify.verify_witness(gens[k], elemental_exprs(3), wit)


@pytest.mark.parametrize("where", list(_LANES))
def test_bound_rejects_a_primal_violating_one_member(where):
    # every point of the cone with h(N) <= 1 maximizes 0, so only the member
    # check can tell the honest primal from the drop-one point
    problem = bound.BoundProblem(4, bound.CONE_GAMMA, "max", LinExpr.zero(4),
                                 ((LinExpr.single(4, 15), "<=", Fraction(1)),))
    members = ingen.gen_elemental(4)
    result = bound.solve_bound(problem, members=members)
    gens, k = [ci.expr for ci in members], _LANES[where]
    h = _drop_one_point(gens, k).point
    # a positive scale keeps every sign and puts h(N) below 1
    bad = EntropyVector.over(4, h.nums, h.den * (1 + abs(h.nums[14])))
    good = EntropyVector.over(4, witness_modular(4).nums, 4)
    assert bound.verify_bound_result(problem, replace(result, primal=good))
    assert not bound.verify_bound_result(problem, replace(result, primal=bad))


def test_quad_scans_decide_each_distinct_target_once(monkeypatch):
    calls = []
    real = certify._settle
    monkeypatch.setattr(certify, "_settle", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    rep = certify.check_theorem1(4)
    assert rep.ok and rep.orbits == 1240 and rep.implied + rep.not_implied == 1240
    assert len(calls) == 244


def test_minimality_worker_count_does_not_change_report():
    assert certify.check_minimality(3, workers=2).to_text() == \
        certify.check_minimality(3).to_text()


def test_minimality_worker_count_does_not_change_report_with_fractional_witnesses():
    # n=4 is the smallest scan whose witnesses have fractional values
    rep = certify.check_minimality(4, workers=2)
    assert rep.to_text() == certify.check_minimality(4, workers=1).to_text()
    assert any(v.denominator > 1 for _k, _p, w in rep.witnesses for _m, v in w.point.items())


def test_scan_reports_carry_their_generators():
    assert certify.check_minimality(3).generators == tuple(ingen.gen_delta(3))
    rep = certify.check_theorem1(5, sample=5)
    assert rep.generators == tuple(ingen.gen_elemental(5))
    rep = certify.check_completeness(3, sample=5)
    assert rep.generators == tuple(ingen.gen_delta(3))
    assert (rep.mode, rep.samples, rep.certified) == ("sample", 5, 5)


@pytest.mark.parametrize("sample", [0, -3])
def test_sample_size_below_one_is_rejected(sample):
    with pytest.raises(ValueError, match="sample size"):
        certify.check_theorem1(5, sample=sample)
    with pytest.raises(ValueError, match="sample size"):
        certify.check_completeness(5, sample=sample)


def test_minimality_refuses_large_n_without_optin():
    with pytest.raises(ValueError):
        certify.check_minimality(6)


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize("scan", [certify.check_theorem1, certify.check_completeness,
                                  certify.check_minimality])
def test_worker_count_below_one_is_rejected(scan, workers):
    with pytest.raises(ValueError, match="worker count"):
        scan(3, workers=workers)


# ---------------------------------------------------------------------------
# named violator


def test_map_forks_no_more_workers_than_items_or_cpus(monkeypatch):
    # a fake fork context records each pool's size and maps in process
    sizes = []

    class Pool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return [fn(it) for it in items]

    monkeypatch.setattr(multiprocessing, "get_context",
                        lambda method: SimpleNamespace(Pool=Pool))
    monkeypatch.setattr(certify, "_job", None)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    items = list(range(10))
    for few in (items, items[:2], items[:1], []):
        assert certify._map(lambda x: x * x, few, 64) == [x * x for x in few]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert certify._map(lambda x: -x, items, 64) == [-x for x in items]
    assert sizes == [3, 2]


def test_violator_below_four_elements_is_impossible():
    with pytest.raises(GroundSetError):
        certify.find_ingleton_violator(3)


def test_violator_scales_with_ground_set():
    v4 = certify.find_ingleton_violator(4)
    assert v4.n == 4 and v4[0b1111] == 1
    v5 = certify.find_ingleton_violator(5)
    assert v5.n == 5
    q5 = IngletonQuad(5, 0b1, 0b10, 0b100, 0b1000)
    assert evaluate(ingleton_expr(q5), v5) < 0


# ---------------------------------------------------------------------------
# soundness guards raise RuntimeError, which python -O does not strip


def _ingleton4():
    return ingleton_expr(IngletonQuad(4, 0b1, 0b10, 0b100, 0b1000)), elemental_exprs(4)


def test_conic_implies_guard(monkeypatch):
    gens = delta_exprs(3)
    target = ingleton_expr(IngletonQuad(3, 0b1, 0b10, 0, 0b100))
    monkeypatch.setattr(certify, "verify_certificate", lambda *args: False)
    with pytest.raises(RuntimeError, match="certificate"):
        certify.decide_implication(target, gens)


def test_separation_witness_guard(monkeypatch):
    target, gens = _ingleton4()
    monkeypatch.setattr(certify, "verify_witness", lambda *args: False)
    with pytest.raises(RuntimeError, match="witness"):
        certify.decide_implication(target, gens)


def test_unit_witness_guard(monkeypatch):
    # h{2} lies outside every generator's support, so the unit point is the
    # one answer, and _settle's check is what rejects it when it misses
    system = certify._ConeSystem([parse_expr("+1*h{1}", 2)])
    monkeypatch.setattr(certify, "evaluate", lambda e, h: 0)
    with pytest.raises(RuntimeError, match="unsound witness"):
        certify._settle(system, parse_expr("+1*h{2}", 2))


# ---------------------------------------------------------------------------
# certify and bound evaluate through their module name `evaluate`, which
# the per-layer trace (perfbench/spans.py) rebinds


def _counting(monkeypatch, module):
    calls = []

    def counted(e, h):
        calls.append(e)
        return evaluate(e, h)
    monkeypatch.setattr(module, "evaluate", counted)
    return calls


def test_settle_evaluates_through_certify_evaluate(monkeypatch):
    calls = _counting(monkeypatch, certify)
    target, gens = _ingleton4()
    assert isinstance(certify.decide_implication(target, gens), certify.SeparationWitness)
    assert calls


def test_each_drop_one_witness_is_checked_once(monkeypatch):
    # each of the 8 members decided at n=4 (5 representatives, 3 members of
    # the h(i|N-i) orbit): one evaluation scales the rounded point to -1, then
    # _settle's one check reads the 33 other members in one packed pass (no
    # evaluation), the target's sign and its value, 3 in all; each of the 26
    # carried members gets that check alone, 2: 8 * 3 + 26 * 2, where
    # evaluating every other member took 8 * 36 + 26 * 35 = 1198
    calls = _counting(monkeypatch, certify)
    assert certify.check_minimality(4).ok
    assert len(calls) == 76


def test_drop_one_witnesses_carry_by_the_stabilizer(monkeypatch):
    # each representative's witness is relabeled by its stabilizer's tables,
    # until one moves it, and then once per member it is carried to: 16 + 26
    # at n=4, where relabeling by every table onto each member took 100
    calls = []
    real = certify._relabel_point
    monkeypatch.setattr(certify, "_relabel_point", lambda h, tab: calls.append(1) or real(h, tab))
    assert certify.check_minimality(4).ok
    assert len(calls) == 42


def _negated_relabeling(monkeypatch):
    real = certify._relabel_point

    def negated(h, tab):
        moved = real(h, tab)
        return EntropyVector.over(moved.n, [-a for a in moved.nums], moved.den)
    monkeypatch.setattr(certify, "_relabel_point", negated)


def test_a_carried_witness_that_fails_is_decided_in_full(monkeypatch):
    # every carried point now rates its member +1, so each member is decided as
    # the representatives are: one LP each, and the same report
    want = certify.check_minimality(4).to_text()
    _negated_relabeling(monkeypatch)
    calls = _counting_linprog(monkeypatch)
    rep = certify.check_minimality(4)
    assert rep.ok and rep.to_text() == want
    assert len(calls) == 34


@functools.cache
def _members_by_payload(n):
    return {(ci.kind, ci.payload): ci for ci in ingen.gen_delta(n)}


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_relabeling_carries_members_and_their_values(data):
    # pi.g and pi.h are built here from the relabeled masks: pi.g is the member
    # at the key _member_image((g.kind, g.payload), pi), and pi.g at pi.h is g at h
    n = data.draw(st.integers(3, 5))
    perm = data.draw(st.permutations(range(n)))
    members = _members_by_payload(n)
    g = list(members.values())[data.draw(st.integers(0, len(members) - 1))]
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    h = EntropyVector.over(n, [rng.randint(-20, 20) for _ in range(2 ** n - 1)],
                           rng.randint(1, 6))
    tab = [sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in range(2 ** n)]
    moved = LinExpr(n, {tab[m]: c for m, c in g.expr.coeffs.items()})
    moved_h = EntropyVector.from_dict(n, {tab[m]: v for m, v in h.items()})
    assert members[certify._member_image((g.kind, g.payload), tab)].expr == moved
    assert evaluate(moved, moved_h) == evaluate(g.expr, h)
    assert certify._relabel_point(h, tab) == moved_h


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_perm_tables_relabel_bit_by_bit(n):
    # one table per permutation, in itertools order, the image of each mask
    # being the or of its elements' images
    assert certify._perm_tables(n) == [
        [sum(1 << perm[i] for i in range(n) if m >> i & 1) for m in range(2 ** n)]
        for perm in itertools.permutations(range(n))]


def _least_images(n):
    """Per swap class, its least swap-normalized image over the relabelings and
    the first table index reaching it, each class relabeled by every table."""
    tables = certify._perm_tables(n)
    pairs = list(itertools.combinations_with_replacement(range(2 ** n), 2))
    least = {}
    for q in (p + r for p in pairs for r in pairs):
        least[q] = min(((min(tab[q[0]], tab[q[1]]), max(tab[q[0]], tab[q[1]]),
                         min(tab[q[2]], tab[q[3]]), max(tab[q[2]], tab[q[3]])), pi)
                       for pi, tab in enumerate(tables))
    return least


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quad_orbits_match_each_class_minimized_over_every_relabeling(n):
    items, (canon, tables), fields = certify._choose_quads(n, None, 0, None)
    # canon keeps a table carrying the representative onto each class; its
    # inverse is the first table carrying the class onto its least image
    assert all(certify._quad_image(rep, tables[pi]) == cls for cls, (rep, pi) in canon.items())
    index = {tuple(tab): pi for pi, tab in enumerate(tables)}
    assert {cls: (rep, index[tuple(sorted(range(2 ** n), key=tables[pi].__getitem__))])
            for cls, (rep, pi) in canon.items()} == _least_images(n)
    assert items == sorted({rep for rep, _pi in canon.values()})
    assert (fields["classes"], fields["orbits"]) == (len(canon), len(items))


def test_quad_walk_relabels_each_orbit_once(monkeypatch):
    # 1,240 orbits at n=4, each relabeled once by each of the 24 tables, where
    # minimizing each of the 18,496 classes over every table took 443,904 images
    calls = Counter()
    real = certify._quad_image

    def counted(q, tab):
        calls["image"] += 1
        return real(q, tab)
    monkeypatch.setattr(certify, "_quad_image", counted)
    _items, _orbits, fields = certify._choose_quads(4, None, 0, None)
    assert (fields["classes"], fields["orbits"], calls["image"]) == (18496, 1240, 1240 * 24)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_member_orbits_match_a_brute_force_walk(n):
    # a member's representative is the least id in its orbit, and its
    # relabelings are every table, in order, carrying that one onto it; each
    # image is found here by relabeling the member's expression
    delta = ingen.gen_delta(n)
    tables = certify._perm_tables(n)
    at = {ci.expr.key(): k for k, ci in enumerate(delta)}
    images = [[at[LinExpr(n, {tab[m]: c for m, c in ci.expr.coeffs.items()}).key()]
               for tab in tables] for ci in delta]
    want = [(min(images[k]), [pi for pi, image in enumerate(images[min(images[k])])
                              if image == k]) for k in range(len(delta))]
    keys = [(ci.kind, ci.payload) for ci in delta]
    assert certify._orbits(keys, certify._member_image, tables) == want


def test_bound_verify_evaluates_through_bound_evaluate(monkeypatch):
    problem = bound.parse_problem("n 2\ncone gamma-in\nmaximize +1*h{1}\nst +1*h{1,2} <= 1\n")
    result = bound.solve_bound(problem)
    calls = _counting(monkeypatch, bound)
    assert bound.verify_bound_result(problem, result)
    assert calls


def _failed_linprog(*args, **kwargs):
    return SimpleNamespace(status=4, x=None, fun=None)


def _outside_linprog(*args, **kwargs):
    # claims the target is not implied, then offers a point far outside the cone
    n_vars = len(args[0])
    return SimpleNamespace(status=2 if "A_eq" in kwargs else 0,
                           x=np.full(n_vars, -1.0), fun=-1.0)


@pytest.mark.parametrize("fake", [_failed_linprog, _outside_linprog])
def test_exact_fallback_when_float_solve_misleads(monkeypatch, fake):
    # every answer then comes from the exact solves in _exact_solve
    monkeypatch.setattr(certify, "linprog", fake)
    target, gens = _ingleton4()
    wit = certify.decide_implication(target, gens)
    assert isinstance(wit, certify.SeparationWitness)
    assert certify.verify_witness(target, gens, wit) and evaluate(target, wit.point) == -1
    gens = delta_exprs(3)
    target = ingleton_expr(IngletonQuad(3, 0b1, 0b10, 0, 0b100))
    cert = certify.decide_implication(target, gens)
    assert isinstance(cert, certify.FarkasCertificate) and certify.verify_certificate(target, gens, cert)


@pytest.mark.parametrize("fake", [_failed_linprog, _outside_linprog])
def test_minimality_falls_back_to_the_exact_decision(monkeypatch, fake):
    # no float point verifies, so each decided member's witness is the Farkas
    # point of one exact solve over the other members.  Delta at n=3 is three
    # orbits of three, I(i;j), I(i;j|k) and h(i|jk); the point for h(1|23)
    # is not symmetric in 2 and 3, so h(2|13) and h(3|12) are decided too,
    # and the other 4 members take carried points: 3 + 2 solves
    monkeypatch.setattr(certify, "linprog", fake)
    solves = []
    real = certify.solve_standard
    monkeypatch.setattr(certify, "solve_standard",
                        lambda *a, **kw: solves.append(1) or real(*a, **kw))
    _assert_minimality_n3(certify.check_minimality(3))
    assert len(solves) == 5


def test_failed_separation_is_not_repeated(monkeypatch):
    # per decided member (3 representatives and 2 more members of the
    # h(i|jk) orbit, as above): the separating-direction LP, then the
    # feasibility LP, and not the separating-direction LP a second time
    calls = []
    monkeypatch.setattr(certify, "linprog",
                        lambda *a, **kw: calls.append(1) or _outside_linprog(*a, **kw))
    _assert_minimality_n3(certify.check_minimality(3))
    assert len(calls) == 2 * 5


def test_exact_fallback_solves_once(monkeypatch):
    # with no float hint, one exact solve over every generator settles
    # either outcome: the certificate or the Farkas vector behind the witness
    calls = []
    real = certify.solve_standard
    monkeypatch.setattr(certify, "linprog", _failed_linprog)
    monkeypatch.setattr(certify, "solve_standard",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    target, gens = _ingleton4()
    assert isinstance(certify.decide_implication(target, gens), certify.SeparationWitness)
    assert len(calls) == 1
    gens = delta_exprs(3)
    cert = certify.decide_implication(gens[0] + gens[-1], gens)
    assert isinstance(cert, certify.FarkasCertificate) and len(calls) == 2


def _tampered_solve(edit=lambda res: None):
    # edit changes res in place, or returns the result to hand on instead
    real = certify.solve_standard

    def solve(*args, **kwargs):
        res = real(*args, **kwargs)
        return edit(res) or res
    return solve


def _set(**fields):
    return lambda res: replace(res, **fields)


def _negate_y(res):
    res.y = [-v for v in res.y]


def _tampered_bound(edit=lambda res: None):
    real = bound.solve_bound

    def solve(*args, **kwargs):
        res = real(*args, **kwargs)
        return edit(res) or res
    return solve


def _rescale_primal_top(res):
    h = res.primal  # coordinate h{1,2,3,4} doubled
    return _set(primal=EntropyVector(4, [2 * h[m] if m == 15 else h[m] for m in range(1, 16)]))(res)


def _only_target_negative(e, h):
    return -1 if e == ingleton_expr(IngletonQuad(4, 0b1, 0b10, 0b100, 0b1000)) else 0


@pytest.mark.parametrize("solve, fake_eval, what", [
    (_tampered_solve(_set(status="unbounded")), None, "no Farkas vector"),
    (_tampered_solve(_negate_y), None, "does not separate"),
])
def test_exact_witness_guards(monkeypatch, solve, fake_eval, what):
    # without a Farkas vector that separates, no point can be built
    target, gens = _ingleton4()
    system = certify._ConeSystem(gens)
    b_exact = [target.coeffs.get(m, 0) for m in system.masks]
    assert isinstance(system._exact_decide(b_exact), certify.SeparationWitness)
    monkeypatch.setattr(certify, "solve_standard", solve)
    with pytest.raises(RuntimeError, match=what):
        system._exact_decide(b_exact)


@pytest.mark.parametrize("tamper, fault", [
    (lambda mp: mp.setattr(certify, "evaluate", lambda e, h: 0), "misses the target"),
    # the generators are read in one packed pass, not through evaluate
    (lambda mp: mp.setattr(MemberTable, "nonnegative", lambda self, h: False),
     "leaves the generator cone"),
])
def test_settle_rejects_an_unsound_witness(monkeypatch, tamper, fault):
    # every candidate, the exact solve's point last, gets the one check in
    # _settle, and a point that fails it is never returned
    target, gens = _ingleton4()
    system = certify._ConeSystem(gens)
    assert isinstance(certify._settle(system, target), certify.SeparationWitness)
    tamper(monkeypatch)
    with pytest.raises(RuntimeError, match="unsound witness"):
        certify._settle(system, target)


@pytest.mark.parametrize("solve, fake_eval, what", [
    (_tampered_bound(_set(status="infeasible")), None, "no Ingleton violation"),
    (_tampered_bound(), lambda e, h: 0, "satisfies Ingleton"),
    (_tampered_bound(), lambda e, h: -1, "not a polymatroid"),
    (_tampered_bound(_rescale_primal_top), _only_target_negative, "not normalized"),
])
def test_violator4_guards(monkeypatch, solve, fake_eval, what):
    # the violator is one bound solve; the guards re-check what it returns
    monkeypatch.setattr(bound, "solve_bound", solve)
    if fake_eval is not None:
        monkeypatch.setattr(certify, "evaluate", fake_eval)
    with pytest.raises(RuntimeError, match=what):
        certify.find_ingleton_violator(4)


@pytest.mark.parametrize("fake_eval, what", [
    (lambda e, h: 0, "padded point satisfies"),
    (lambda e, h: -1, "padded point is not a polymatroid"),
])
def test_padded_violator_guards(monkeypatch, fake_eval, what):
    base = certify.find_ingleton_violator(4)
    monkeypatch.setattr(certify, "_violator4", lambda: base)
    monkeypatch.setattr(certify, "evaluate", fake_eval)
    with pytest.raises(RuntimeError, match=what):
        certify.find_ingleton_violator(5)


def test_guards_survive_optimize_flag():
    # python -O strips assert statements; the guards must still fire
    code = (
        "from conftest import replace\n"
        "from fractions import Fraction\n"
        "from ingletonlp import bound, certify, ingen\n"
        "from ingletonlp.entspace import EntropyVector, IngletonQuad, LinExpr, ingleton_expr\n"
        "gens = [ci.expr for ci in ingen.gen_delta(3)]\n"
        "problem = bound.BoundProblem(3, bound.CONE_GAMMA_IN, 'max', LinExpr.zero(3),\n"
        "                             ((LinExpr.single(3, 7), '<=', Fraction(1)),))\n"
        "result = bound.solve_bound(problem)\n"
        "for k in (0, 4, len(gens) - 1):  # a point violating the member in lane k\n"
        "    rest = gens[:k] + gens[k + 1:]\n"
        "    wit = certify.decide_implication(gens[k], rest)\n"
        "    if not isinstance(wit, certify.SeparationWitness) or \\\n"
        "            certify.verify_witness(gens[k], gens, wit) or \\\n"
        "            not certify.verify_witness(gens[k], rest, wit):\n"
        "        raise SystemExit(1)\n"
        "    h = wit.point  # scaled into h(N) <= 1, where every point maximizes 0\n"
        "    bad = EntropyVector.over(3, h.nums, h.den * (1 + abs(h.nums[6])))\n"
        "    if bound.verify_bound_result(problem, replace(result, primal=bad)):\n"
        "        raise SystemExit(1)\n"
        "from ingletonlp import simplex\n"
        "init, pivot, append = (simplex._System.__init__, simplex._Tableau.pivot,\n"
        "                       simplex._Tableau.append)\n"
        "def then_tamper(real, row):  # the row just pivoted or appended, off by one\n"
        "    def tampered(self, *args):\n"
        "        real(self, *args)\n"
        "        self.X[row] += 1\n"
        "    return tampered\n"
        "for D, patch, guard in ((1, {}, 'entering column'),\n"
        "                        (0, {'pivot': then_tamper(pivot, 0)}, 'entering column'),\n"
        "                        (0, {'append': then_tamper(append, -1)}, 'row of T')):\n"
        "    # a wrong start denominator, a basis row after a pivot, or the\n"
        "    # objective row before pricing; D is 6 for these rows\n"
        "    simplex._System.__init__ = (\n"
        "        lambda self, rows, d, *rest, D=D: init(self, rows, d + D, *rest))\n"
        "    simplex._Tableau.pivot = patch.get('pivot', pivot)\n"
        "    simplex._Tableau.append = patch.get('append', append)\n"
        "    try:\n"
        "        simplex.solve_standard([[Fraction(1, 2), 1, 1, 0], [Fraction(1, 3), 3, 0, 1]],\n"
        "                               [4, 6], [-1, -2, 0, 0])\n"
        "        raise SystemExit(1)\n"
        "    except RuntimeError as e:\n"
        "        if guard not in str(e):\n"
        "            raise SystemExit(1)\n"
        "simplex._System.__init__, simplex._Tableau.pivot = init, pivot\n"
        "simplex._Tableau.append = append\n"
        "target = ingleton_expr(IngletonQuad(3, 1, 2, 0, 4))\n"
        "certify.verify_certificate = lambda *args: False\n"
        "try:\n"
        "    certify.decide_implication(target, gens)\n"
        "except RuntimeError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, timeout=120)
    assert proc.returncode == 0
