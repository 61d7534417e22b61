"""End-to-end checks of the package's central claims.

Each test covers one headline guarantee: counting formulas, the
subset-cover characterization, certificate completeness over the minimal
inequality set, minimality of that set, the exact reduction identities,
the two named witness vectors, and exact verified LP bounds.  Everything
runs in rational arithmetic; every tolerance is zero.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from ingletonlp import bound, certify, ingen
from ingletonlp.entspace import (
    IngletonQuad,
    LinExpr,
    cond_entropy_expr,
    cond_mutinfo_expr,
    evaluate,
    ingleton_expr,
    parse_quad,
    vector_from_text,
    witness_fulldim,
)

F = Fraction

DELTA_SIZES = {2: 3, 3: 9, 4: 34, 5: 205, 6: 1716, 7: 14959, 8: 122886}


def J(n, a1, a2, a3, a4):
    return ingleton_expr(IngletonQuad(n, a1, a2, a3, a4))


def submasks(m):
    s = m
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & m


def test_count_formulas_match_full_enumeration():
    t0 = time.monotonic()
    for n in range(2, 7):
        assert len(ingen.gen_delta0(n)) == ingen.count_delta0(n)
        assert len(ingen.gen_delta(n)) == ingen.count_delta(n) == DELTA_SIZES[n]
    assert time.monotonic() - t0 < 10
    for n in (7, 8):
        assert len(ingen.gen_delta(n)) == ingen.count_delta(n) == DELTA_SIZES[n]


def test_orbit_scan_confirms_subset_cover_characterization():
    rep = certify.check_theorem1(4)
    assert rep.quads == 4 ** 8
    assert rep.classes == 18496
    assert rep.orbits == 1240
    # exactly one orbit resists the basic inequalities: the generic quad
    assert rep.implied == 1239 and rep.not_implied == 1
    assert not rep.counterexamples
    assert rep.ok


def test_every_ingleton_inequality_certified_over_minimal_set():
    # exhaustive over all quads at n=4, then a seeded sample at n=5;
    # every certificate is re-expanded here with plain expression sums
    rep = certify.check_completeness(4)
    assert rep.mode == "exhaustive"
    assert rep.certified == rep.classes == 18496
    assert rep.ok and len(rep.certificates) == 18496
    gens4 = [ci.expr for ci in ingen.gen_delta(4)]
    for label, cert in rep.certificates:
        target = ingleton_expr(parse_quad(label, 4))
        combo = LinExpr.zero(4)
        for k, cf in zip(cert.gen_ids, cert.coeffs):
            assert cf > 0
            combo = combo + cf * gens4[k]
        assert combo == target

    rep5 = certify.check_completeness(5, sample=1000, seed=0)
    assert rep5.mode == "sample"
    assert rep5.certified == rep5.samples == 1000
    assert rep5.ok
    gens5 = [ci.expr for ci in ingen.gen_delta(5)]
    for label, cert in rep5.certificates:
        target = ingleton_expr(parse_quad(label, 5))
        combo = LinExpr.zero(5)
        for k, cf in zip(cert.gen_ids, cert.coeffs):
            combo = combo + cf * gens5[k]
        assert combo == target


def _check_drop_one_witnesses(n, witnesses):
    """Each (kind, payload text, point) names a distinct member of Delta at n,
    together all of them; its own member is -1 at the point, every other >= 0."""
    members = ingen.gen_delta(n)
    exprs = [ci.expr for ci in members]
    index = {(ci.kind, ci.payload_text()): k
             for k, ci in enumerate(members)}
    owners = [index[(kind, payload)] for kind, payload, _point in witnesses]
    assert sorted(owners) == list(range(len(members)))
    for k, (_kind, _payload, point) in zip(owners, witnesses):
        assert evaluate(exprs[k], point) == -1
        assert all(evaluate(exprs[j], point) >= 0
                   for j in range(len(members)) if j != k)


def test_minimal_set_has_no_redundant_member(minimality5_run):
    rep = certify.check_minimality(4)
    assert rep.members == 34
    assert not rep.redundant
    assert len(rep.witnesses) == 34
    assert rep.ok
    _check_drop_one_witnesses(4, [(kind, payload, wit.point)
                                  for kind, payload, wit in rep.witnesses])
    # n=5 from the CLI report, whose bytes the golden corpus also checks
    code, out = minimality5_run
    lines = out.splitlines()
    assert code == 0 and lines[-1] == "status ok"
    assert {"members 205", "non-redundant 205", "redundant 0"} <= set(lines)
    witnesses = []
    for line in lines:
        if line.startswith("witness\t"):
            _tag, kind, payload, pairs = line.split("\t")
            witnesses.append((kind, payload, vector_from_text(f"n=5\n{pairs}\n")))
    assert len(witnesses) == 205
    _check_drop_one_witnesses(5, witnesses)


def test_reduction_identities_hold_exactly():
    # order swaps within the first and the last argument pair
    for a1, a2, a3, a4 in itertools.product(range(16), repeat=4):
        e = J(4, a1, a2, a3, a4)
        assert e == J(4, a2, a1, a3, a4)
        assert e == J(4, a1, a2, a4, a3)

    # an empty third slot turns the form into conditional information
    for a1, a2, a4 in itertools.product(range(16), repeat=3):
        assert J(4, a1, a2, 0, a4) == cond_mutinfo_expr(4, a1, a2, a4)
    for a, b in itertools.product(range(16), repeat=2):
        assert J(4, a, a, 0, b) == cond_entropy_expr(4, a, b)

    # shared elements can be absorbed out of a pair of arguments
    quads = list(itertools.product(range(16), repeat=4))
    for a1, a2, a3, a4 in quads:
        for beta in submasks(a1 & a2):
            assert J(4, a1, a2, a3, a4) == (
                J(4, a1, a2, a3 | beta, a4 | beta)
                + cond_entropy_expr(4, beta, a3 | a4))
    for a1, a2, a3, a4 in quads:
        for beta in submasks(a1 & a3):
            assert J(4, a1, a2, a3, a4) == (
                J(4, a1, a2 | beta, a3, a4 | beta)
                + cond_mutinfo_expr(4, beta, a4, a2))
    for a1, a2, a3, a4 in quads:
        for beta in submasks(a3 & a4):
            assert J(4, a1, a2, a3, a4) == (
                J(4, a1 | beta, a2 | beta, a3, a4)
                + cond_mutinfo_expr(4, beta, a2, a1)
                + cond_entropy_expr(4, beta, a2))

    # a first argument covered by the other three decomposes into basic
    # quantities; note the second term conditions on everything drawn
    # from the earlier arguments, not just the alpha2 part
    pairs = [(alpha, s) for alpha in range(16) for s in submasks(alpha)]
    for (x2, a), (x3, b), (x4, c) in itertools.product(pairs, repeat=3):
        abc = a | b | c
        assert J(4, abc, x2, x3, x4) == (
            cond_mutinfo_expr(4, x3, x4, abc)
            + cond_mutinfo_expr(4, x3, c, x2 | a | b)
            + cond_mutinfo_expr(4, x4, b, x2)
            + cond_entropy_expr(4, a, x3 | x4))

    # dropping b from that conditioning set breaks the identity
    x2, x3, x4, a, b, c = 0, 1, 1, 0, 1, 1
    abc = a | b | c
    narrow = (cond_mutinfo_expr(4, x3, x4, abc)
              + cond_mutinfo_expr(4, x3, c, x2 | a)
              + cond_mutinfo_expr(4, x4, b, x2)
              + cond_entropy_expr(4, a, x3 | x4))
    assert J(4, abc, x2, x3, x4) != narrow

    # a fourth argument covered by the first three
    for (x1, a), (x2, b), (x3, c) in itertools.product(pairs, repeat=3):
        abc = a | b | c
        assert J(4, x1, x2, x3, abc) == (
            cond_mutinfo_expr(4, x2, c, x1 | b)
            + cond_mutinfo_expr(4, x3, b, x1)
            + cond_mutinfo_expr(4, x3, a, x2 | c)
            + cond_mutinfo_expr(4, x1, x2, x3 | a | b)
            + cond_entropy_expr(4, c, x2))

    # seeded random sweep on a larger ground set
    rng = random.Random(0)
    top = 64

    def rand_sub(m):
        return m & rng.randrange(top)

    for _ in range(2500):
        a1, a2, a3, a4 = (rng.randrange(top) for _ in range(4))
        e = J(6, a1, a2, a3, a4)
        assert e == J(6, a2, a1, a3, a4) == J(6, a1, a2, a4, a3)
    for _ in range(2500):
        a1, a2, a3, a4 = (rng.randrange(top) for _ in range(4))
        beta = rand_sub(a1 & a2)
        assert J(6, a1, a2, a3, a4) == (
            J(6, a1, a2, a3 | beta, a4 | beta)
            + cond_entropy_expr(6, beta, a3 | a4))
    for _ in range(2500):
        x2, x3, x4 = (rng.randrange(top) for _ in range(3))
        a, b, c = rand_sub(x2), rand_sub(x3), rand_sub(x4)
        abc = a | b | c
        assert J(6, abc, x2, x3, x4) == (
            cond_mutinfo_expr(6, x3, x4, abc)
            + cond_mutinfo_expr(6, x3, c, x2 | a | b)
            + cond_mutinfo_expr(6, x4, b, x2)
            + cond_entropy_expr(6, a, x3 | x4))
    for _ in range(2500):
        x1, x2, x3 = (rng.randrange(top) for _ in range(3))
        a, b, c = rand_sub(x1), rand_sub(x2), rand_sub(x3)
        abc = a | b | c
        assert J(6, x1, x2, x3, abc) == (
            cond_mutinfo_expr(6, x2, c, x1 | b)
            + cond_mutinfo_expr(6, x3, b, x1)
            + cond_mutinfo_expr(6, x3, a, x2 | c)
            + cond_mutinfo_expr(6, x1, x2, x3 | a | b)
            + cond_entropy_expr(6, c, x2))


def test_fulldim_witness_strictly_satisfies_every_ingleton():
    v = witness_fulldim(4)
    for quad in itertools.product(range(16), repeat=4):
        e = ingleton_expr(IngletonQuad(4, *quad))
        if not e.is_zero():
            assert evaluate(e, v) >= 1


def test_violator_separates_polymatroid_from_ingleton_cone():
    v = certify.find_ingleton_violator(4)
    assert v[0b1111] == 1
    for ci in ingen.gen_elemental(4):
        assert evaluate(ci.expr, v) >= 0
    q = IngletonQuad(4, 0b1, 0b10, 0b100, 0b1000)
    val = evaluate(ingleton_expr(q), v)
    assert val < 0 and isinstance(val, Fraction)
    assert bound.membership(v, bound.CONE_GAMMA) == (True, None)
    member, violated = bound.membership(v, bound.CONE_GAMMA_IN)
    assert not member and violated is not None


def test_bounds_are_exact_monotone_and_dual_verified():
    def recheck(problem, res, extras=()):
        glist = [ci.expr for ci in bound.cone_members(problem.n, problem.cone)]
        glist += list(extras)
        combo = LinExpr.zero(problem.n)
        paid = F(0)
        for (expr, rel, rhs), u in zip(problem.constraints, res.dual.user):
            assert (u >= 0) if rel == "<=" else (u <= 0) if rel == ">=" else True
            combo = combo + u * expr
            paid += u * rhs
        for k, cf in res.dual.cone:
            assert cf >= 0
            combo = combo - cf * glist[k]
        assert combo == problem.objective
        assert paid == res.value

    rng = random.Random(42)

    def draw_problem(cone):
        obj = LinExpr.zero(4)
        for _ in range(rng.randint(1, 3)):
            obj = obj + LinExpr.single(4, rng.randrange(1, 16),
                                       F(rng.randint(-3, 3)))
        cons = [(LinExpr.single(4, 0b1111), "<=", F(1))]
        for _ in range(rng.randint(0, 2)):
            row = (LinExpr.single(4, rng.randrange(1, 16))
                   + LinExpr.single(4, rng.randrange(1, 16)))
            cons.append((row, "<=", F(rng.randint(1, 3))))
        return bound.BoundProblem(4, cone, "max", obj, tuple(cons))

    # the refined cone sits inside the polymatroid cone, so its optimum
    # can never exceed the relaxation's
    for _ in range(50):
        inner = draw_problem(bound.CONE_GAMMA_IN)
        outer = bound.BoundProblem(4, bound.CONE_GAMMA, "max",
                                   inner.objective, inner.constraints)
        res_in = bound.solve_bound(inner)
        res_out = bound.solve_bound(outer)
        assert res_in.status == res_out.status == "optimal"
        assert isinstance(res_in.value, Fraction)
        assert isinstance(res_out.value, Fraction)
        assert res_in.value <= res_out.value
        recheck(inner, res_in)
        recheck(outer, res_out)

    # adding redundant Ingleton rows to the generating set never moves
    # the optimum
    for _ in range(20):
        problem = draw_problem(bound.CONE_GAMMA_IN)
        extras = []
        while len(extras) < 200:
            q = IngletonQuad(4, *(rng.randrange(16) for _ in range(4)))
            e = ingleton_expr(q)
            if not e.is_zero():
                extras.append(e)
        plain = bound.solve_bound(problem)
        padded = bound.solve_bound(problem, extra_inequalities=extras)
        assert plain.status == padded.status == "optimal"
        assert plain.value == padded.value
        recheck(problem, padded, extras=extras)


def test_family_size_vanishes_relative_to_quad_space():
    # the minimal list grows like 1.5^(4n) while raw quads grow like 2^(4n)
    ratios = [F(ingen.count_delta(n), (2 ** n) ** 4) for n in range(4, 9)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] < F(1, 10 ** 4)
    growth = [ingen.count_delta(n + 1) / ingen.count_delta(n)
              for n in range(4, 8)]
    assert all(g < 9 for g in growth)  # far under the 16x of raw quads
