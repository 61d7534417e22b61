"""Exact LP bounds over the polymatroid and Ingleton-refined cones."""

import hashlib
import itertools
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import replace
from ingletonlp import bound, ingen, simplex
from ingletonlp.entspace import (
    EntropyVector,
    IngletonQuad,
    LinExpr,
    MemberTable,
    evaluate,
    ingleton_expr,
    parse_expr,
    witness_fulldim,
    witness_modular,
)

F = Fraction


def solve_text(text):
    problem = bound.parse_problem(text)
    return problem, bound.solve_bound(problem)


def recheck_dual(problem, result, extras=()):
    """Re-derive the certificate identities with plain expression arithmetic."""
    glist = [ci.expr for ci in bound.cone_members(problem.n, problem.cone)]
    glist += list(extras)
    user_combo = LinExpr.zero(problem.n)
    paid = F(0)
    for (expr, rel, rhs), u in zip(problem.constraints, result.dual.user):
        if problem.sense == "max":
            assert u >= 0 if rel == "<=" else True
            assert u <= 0 if rel == ">=" else True
        else:
            assert u <= 0 if rel == "<=" else True
            assert u >= 0 if rel == ">=" else True
        user_combo = user_combo + u * expr
        paid += u * rhs
    cone_combo = LinExpr.zero(problem.n)
    for k, cf in result.dual.cone:
        assert cf >= 0
        cone_combo = cone_combo + cf * glist[k]
    if problem.sense == "max":
        assert user_combo - cone_combo == problem.objective
    else:
        assert user_combo + cone_combo == problem.objective
    assert paid == result.value


def recheck_farkas(problem, result, extras=()):
    glist = [ci.expr for ci in bound.cone_members(problem.n, problem.cone)]
    glist += list(extras)
    combo = LinExpr.zero(problem.n)
    paid = F(0)
    for (expr, rel, rhs), u in zip(problem.constraints, result.farkas.user):
        assert u <= 0 if rel == "<=" else True
        assert u >= 0 if rel == ">=" else True
        combo = combo + u * expr
        paid += u * rhs
    for k, cf in result.farkas.cone:
        assert cf >= 0
        combo = combo + cf * glist[k]
    assert combo.is_zero()
    assert paid > 0


def recheck_ray(problem, result):
    glist = [ci.expr for ci in bound.cone_members(problem.n, problem.cone)]
    assert all(evaluate(g, result.ray) >= 0 for g in glist)
    for expr, rel, _rhs in problem.constraints:
        v = evaluate(expr, result.ray)
        if rel == "<=":
            assert v <= 0
        elif rel == ">=":
            assert v >= 0
        else:
            assert v == 0
    gain = evaluate(problem.objective, result.ray)
    assert gain > 0 if problem.sense == "max" else gain < 0


# ---------------------------------------------------------------------------
# small hand-checkable problems


def test_max_single_coordinate_capped_by_joint():
    problem, res = solve_text("""
n 2
cone gamma-in
maximize +1*h{1}
st +1*h{1,2} <= 1
""")
    assert res.status == "optimal"
    assert res.value == 1
    assert isinstance(res.value, Fraction)
    assert evaluate(problem.objective, res.primal) == 1
    recheck_dual(problem, res)


def test_max_sum_doubles_the_cap():
    problem, res = solve_text("""
n 2
cone gamma-in
maximize +1*h{1} +1*h{2}
st +1*h{1,2} <= 1
""")
    assert res.status == "optimal"
    assert res.value == 2
    recheck_dual(problem, res)


def test_unconstrained_objective_is_unbounded():
    problem, res = solve_text("""
n 2
cone gamma-in
maximize +1*h{1}
""")
    assert res.status == "unbounded"
    recheck_ray(problem, res)
    # the feasible point that anchors the ray satisfies every row
    assert res.primal is not None


def test_contradictory_rows_are_infeasible():
    problem, res = solve_text("""
n 2
cone gamma-in
maximize +1*h{1}
st +1*h{1} <= 1
st +1*h{1} >= 2
""")
    assert res.status == "infeasible"
    recheck_farkas(problem, res)


def test_min_joint_above_marginal():
    problem, res = solve_text("""
n 2
cone gamma-in
minimize +1*h{1,2}
st +1*h{1} >= 1
""")
    assert res.status == "optimal"
    assert res.value == 1
    recheck_dual(problem, res)


def test_min_unrelated_coordinate_is_free():
    problem, res = solve_text("""
n 2
cone gamma-in
minimize +1*h{1}
st +1*h{2} >= 1
""")
    assert res.status == "optimal"
    assert res.value == 0
    recheck_dual(problem, res)


def test_min_against_cone_nonnegativity_is_infeasible():
    problem, res = solve_text("""
n 2
cone gamma-in
minimize +1*h{1}
st +1*h{1} <= -1
""")
    assert res.status == "infeasible"
    recheck_farkas(problem, res)


def test_verify_bound_result_rejects_cone_ids_outside_the_members():
    problem, res = solve_text("""
n 2
cone gamma-in
maximize +1*h{1} +1*h{2}
st +1*h{1,2} <= 1
""")
    inf_problem, infeasible = solve_text("""
n 2
cone gamma-in
minimize +1*h{1}
st +1*h{1} <= -1
""")
    size = len(bound.cone_members(2, bound.CONE_GAMMA_IN))
    assert res.dual.cone and infeasible.farkas.cone
    assert bound.verify_bound_result(problem, res)
    assert bound.verify_bound_result(inf_problem, infeasible)
    # shifted back by the member count, Python indexing would wrap onto the
    # same members; past the end it would raise
    for shift in (-size, 10 ** 6):
        dual = replace(res.dual, cone=tuple((k + shift, cf) for k, cf in res.dual.cone))
        assert not bound.verify_bound_result(problem, replace(res, dual=dual))
        farkas = replace(infeasible.farkas,
                         cone=tuple((k + shift, cf) for k, cf in infeasible.farkas.cone))
        assert not bound.verify_bound_result(inf_problem, replace(infeasible, farkas=farkas))


def test_equality_row():
    problem, res = solve_text("""
n 2
cone gamma-in
maximize +1*h{1}
st +1*h{1} -1*h{2} = 0
st +1*h{1,2} <= 1
""")
    assert res.status == "optimal"
    assert res.value == 1
    recheck_dual(problem, res)


def test_fractional_data_gives_fractional_value():
    problem, res = solve_text("""
n 2
cone gamma-in
maximize +2/3*h{1}
st +1*h{1,2} <= 5/7
""")
    assert res.status == "optimal"
    assert res.value == F(10, 21)
    recheck_dual(problem, res)


def test_scaling_rows_leaves_value_alone():
    base = """
n 3
cone gamma-in
maximize +1*h{1,2,3}
st +1*h{1} <= 1
st +1*h{2} <= 1
st +1*h{3} <= 1
"""
    scaled = base.replace("+1*h{1} <= 1", "+7/3*h{1} <= 7/3")
    _, a = solve_text(base)
    _, b = solve_text(scaled)
    assert a.value == b.value == 3


def test_gamma_cone_differs_on_ingleton_direction():
    # minimize the Ingleton form at fixed total entropy: the polymatroid
    # cone dips negative, the refined cone cannot
    q = IngletonQuad(4, 0b1, 0b10, 0b100, 0b1000)
    obj = ingleton_expr(q)
    cons = ((LinExpr.single(4, 0b1111), "<=", F(1)),)
    lo_gamma = bound.solve_bound(bound.BoundProblem(
        4, bound.CONE_GAMMA, "min", obj, cons))
    lo_in = bound.solve_bound(bound.BoundProblem(
        4, bound.CONE_GAMMA_IN, "min", obj, cons))
    assert lo_gamma.value == F(-1, 4)
    assert lo_in.value == 0
    recheck_dual(bound.BoundProblem(4, bound.CONE_GAMMA, "min", obj, cons),
                 lo_gamma)


def test_redundant_extra_generators_change_nothing():
    rng = random.Random(5)
    text = """
n 4
cone gamma-in
maximize +1*h{1,2} +1*h{3,4}
st +1*h{1,2,3,4} <= 2
st +1*h{1} <= 1
"""
    problem = bound.parse_problem(text)
    plain = bound.solve_bound(problem)
    extras = []
    for _ in range(40):
        q = IngletonQuad(4, *(rng.randrange(16) for _ in range(4)))
        e = ingleton_expr(q)
        if not e.is_zero():
            extras.append(e)
    augmented = bound.solve_bound(problem, extra_inequalities=extras)
    assert plain.status == augmented.status == "optimal"
    assert plain.value == augmented.value
    recheck_dual(problem, augmented, extras=extras)


def test_extra_generators_ground_set_checked():
    problem = bound.parse_problem("""
n 2
cone gamma-in
maximize +1*h{1}
st +1*h{1,2} <= 1
""")
    with pytest.raises(ValueError):
        bound.solve_bound(problem,
                          extra_inequalities=[LinExpr.single(3, 0b1)])


def test_extra_inequality_over_another_ground_set_is_blamed_on_the_extras():
    # solving and verifying check the extras alike, before packing the cone
    problem, res = solve_text("""
n 2
cone gamma-in
maximize +1*h{1}
st +1*h{1,2} <= 1
""")
    wrong = [LinExpr.single(3, 0b1)]
    message = "extra inequality ground set differs from problem"
    with pytest.raises(ValueError, match=message):
        bound.solve_bound(problem, extra_inequalities=wrong)
    with pytest.raises(ValueError, match=message):
        bound.verify_bound_result(problem, res, extra_inequalities=wrong)


# ---------------------------------------------------------------------------
# membership


def test_modular_point_in_both_cones():
    v = witness_modular(4)
    assert bound.membership(v, bound.CONE_GAMMA) == (True, None)
    assert bound.membership(v, bound.CONE_GAMMA_IN) == (True, None)


def test_fulldim_point_in_both_cones():
    v = witness_fulldim(4)
    assert bound.membership(v, bound.CONE_GAMMA)[0]
    assert bound.membership(v, bound.CONE_GAMMA_IN)[0]


def test_violator_separates_the_cones():
    from ingletonlp.certify import find_ingleton_violator
    v = find_ingleton_violator(4)
    assert bound.membership(v, bound.CONE_GAMMA) == (True, None)
    member, violated = bound.membership(v, bound.CONE_GAMMA_IN)
    assert not member
    assert violated.kind == "Delta0"


@pytest.mark.parametrize("cone", [bound.CONE_GAMMA, bound.CONE_GAMMA_IN])
def test_membership_stops_where_a_full_scan_does(cone):
    rng = random.Random(11)
    for n in (3, 4, 5):
        members = bound.cone_members(n, cone)
        base = witness_fulldim(n)
        for _ in range(20):
            # two coordinates of a strictly submodular point moved: a mix of
            # members and of violations early and late in the list
            values = [4 * v for _m, v in base.items()]
            for _ in range(2):
                values[rng.randrange(len(values))] += rng.randint(-8, 8)
            point = EntropyVector(n, values)
            first = next((ci for ci in members if evaluate(ci.expr, point) < 0), None)
            assert bound.membership(point, cone) == (first is None, first)


def test_membership_answers_early_violation_without_the_family_list(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("membership built the member list")
    monkeypatch.setattr(ingen, "gen_delta", refuse)
    point = EntropyVector.from_dict(8, {0b1100: 1})  # -h{3,4} in the first member
    member, violated = bound.membership(point, bound.CONE_GAMMA_IN)
    assert not member
    assert (violated.kind, violated.payload) == ("Delta0", (1, 2, 4, 8, 0))


# ---------------------------------------------------------------------------
# problem and network text


def test_parse_problem_rejects_malformed_input():
    for text in (
            "cone gamma\nmaximize +1*h{1}\n",               # no n
            "n 2\nn 2\ncone gamma\nmaximize +1*h{1}\n",     # duplicate n
            "n 2\nmaximize +1*h{1}\n",                      # no cone
            "n 2\ncone gamma\n",                            # no objective
            "n 2\ncone gamma\nmaximize +1*h{1}\nst +1*h{1} 1\n",
            "n 2\ncone gamma\nmaximize +1*h{1}\nfoo bar\n",
    ):
        with pytest.raises(ValueError):
            bound.parse_problem(text)


def test_parse_problem_ignores_comments_and_blanks():
    problem = bound.parse_problem("""
# a comment
n 2

cone gamma
maximize +1*h{1}
""")
    assert problem.n == 2 and problem.cone == "gamma"


def test_parse_network_and_validation():
    net = bound.parse_network("""
source s1
edge e1 from s1 cap 1
sink t1 wants s1 sees e1
""")
    assert [e.ident for e in net.edges] == ["e1"]
    for text, message in (
            ("source s1\nedge e1 from s0 cap 1\nsink t1 wants s1 sees e1\n",
             "edge e1 references unknown id s0"),
            ("source s1\nedge e1 from s1 cap 1\nsink t1 wants e1 sees e1\n",
             "sink t1 demands non-source id e1"),
            ("source s1\nedge e1 from s1 cap 1\nsink t1 wants s1 sees e9\n",
             "sink t1 sees unknown id e9"),
            ("source s1\nedge e1 from s1 cap -1\nsink t1 wants s1 sees e1\n",
             "edge e1 has negative capacity"),
            ("source s1\nedge e1 s1 cap 1\n", "malformed network line"),
            ("source s1\nedge a from s1,b cap 1\nedge b from a cap 1\n"
             "sink t1 wants s1 sees b\n", "cycle through edge a"),
            ("source s1\nedge a from a cap 1\nsink t1 wants s1 sees a\n",
             "cycle through edge a"),
            ("source s1\nsource s2\nedge a from s1 cap 1\nedge b from s2,a cap 1\n"
             "sink t1 wants s1,s2 sees a\n", "sink t1 cannot reach demanded source s2"),
            ("source s1\nedge s1 from s1 cap 1\nsink t1 wants s1 sees s1\n",
             "duplicate source/edge id"),
            ("source s1\nedge e1 from s1 cap 1\nsink t1 wants s1 sees e1\n"
             "sink t1 wants s1 sees s1\n", "duplicate sink id"),
    ):
        with pytest.raises(ValueError, match=message):
            bound.parse_network(text)


def test_single_edge_network_rate():
    net = bound.parse_network("""
source s1
edge e1 from s1 cap 1
sink t1 wants s1 sees e1
""")
    problem = bound.compile_network(net)
    res = bound.solve_bound(problem)
    assert res.status == "optimal" and res.value == 1
    recheck_dual(problem, res)


def test_parallel_sources_network_rate():
    net = bound.parse_network("""
source s1
source s2
edge e1 from s1 cap 1
edge e2 from s2 cap 1
sink t1 wants s1 sees e1
sink t2 wants s2 sees e2
""")
    res = bound.solve_bound(bound.compile_network(net))
    assert res.status == "optimal" and res.value == 2


def test_network_demand_weights():
    net = bound.parse_network("""
source s1
source s2
edge e1 from s1 cap 1
edge e2 from s2 cap 1
sink t1 wants s1 sees e1
sink t2 wants s2 sees e2
""")
    res = bound.solve_bound(bound.compile_network(net, demands={"s1": 3}))
    assert res.value == 3
    with pytest.raises(ValueError):
        bound.compile_network(net, demands={"e1": 1})


def _report_sha256(problem, res):
    return hashlib.sha256(bound.format_bound_report(problem, res).encode()).hexdigest()


def _steps_sha256(steps):
    """sha256 of the (row, column) pairs the tableau pivoted on, in order."""
    return hashlib.sha256(str(steps).encode()).hexdigest()


def test_butterfly_network_rate(monkeypatch):
    # coded relay: both receivers recover both unit sources through
    # capacity-one middles, total rate 2
    pivots, per_solve, steps = [0], [], []
    real_pivot, real_solve = simplex._Tableau.pivot, bound.solve_standard

    def pivot(self, *args):
        pivots[0] += 1
        steps.append(args[:2])
        real_pivot(self, *args)

    def solve(*args, **kwargs):
        before = pivots[0]
        res = real_solve(*args, **kwargs)
        per_solve.append((pivots[0] - before, kwargs.get("warm") is not None))
        return res
    monkeypatch.setattr(simplex._Tableau, "pivot", pivot)
    monkeypatch.setattr(bound, "solve_standard", solve)
    net = bound.parse_network("""
source s1
source s2
edge a from s1 cap 1
edge b from s2 cap 1
edge m from s1,s2 cap 1
edge m1 from m cap 1
edge m2 from m cap 1
sink t1 wants s1,s2 sees a,m1
sink t2 wants s1,s2 sees b,m2
""")
    problem = bound.compile_network(net, cone=bound.CONE_GAMMA_IN)
    res = bound.solve_bound(problem)
    assert res.status == "optimal"
    assert res.value == 2
    recheck_dual(problem, res)
    # the whole report, basis and certificate included, is locked byte for byte
    assert _report_sha256(problem, res) == (
        "8133540835fb0ba79dfa3292f24152542181009980a5a28d7289ca9a802a90d5")
    # duals come off the final tableau and warm solves keep it: no pivot
    # goes to a second dual solve or to rebuilding the previous basis
    assert per_solve == [(692, False), (7, True), (5, True)]
    assert pivots[0] == 704
    # and so is the (row, column) of every pivot, warm solves included
    assert _steps_sha256(steps) == (
        "88759543dcc5909cc20916006066c0cb72aa3a3cd3431698884f87a0c06227fd")


def test_butterfly5_report_bytes(monkeypatch):
    # the butterfly without relays m1, m2 (n=5): one exact solve over all
    # 205 Delta columns, cheap enough to lock on every run
    pivots, solved, steps = [0], [], []
    real_pivot, real_solve = simplex._Tableau.pivot, bound.solve_standard

    def pivot(self, *args):
        pivots[0] += 1
        steps.append(args[:2])
        real_pivot(self, *args)

    def solve(*args, **kwargs):
        solved.append(real_solve(*args, **kwargs))
        return solved[-1]
    monkeypatch.setattr(simplex._Tableau, "pivot", pivot)
    monkeypatch.setattr(bound, "solve_standard", solve)
    net = bound.parse_network("""
source s1
source s2
edge a from s1 cap 1
edge b from s2 cap 1
edge m from s1,s2 cap 1
sink t1 wants s1,s2 sees a,m
sink t2 wants s1,s2 sees b,m
""")
    problem = bound.compile_network(net, cone=bound.CONE_GAMMA_IN)
    res = bound.solve_bound(problem)
    assert res.value == 2
    recheck_dual(problem, res)
    assert _report_sha256(problem, res) == (
        "3b43c599219c0528232f7336e57ca8d5a50adbc55ebb637271ee0d2bb92c6a85")
    # every pivot is a ratio-test pivot, counted per phase, and no entry
    # needs a lane wider than 32 bits
    [lp] = solved
    assert lp.pivots == (79, 50) and sum(lp.pivots) == pivots[0] == 129
    assert _steps_sha256(steps) == (
        "61d2c73c4207d30962f44fd4ed7d22e133e0f65bffc7e9298c518529a7c6ef1d")
    assert lp.width <= max(simplex._WIDTH, 32)


def test_butterfly5_report_bytes_with_64_bit_lanes(monkeypatch):
    # tableaux that start at 64-bit lanes, not 8, print the same bytes
    monkeypatch.setattr(simplex, "_WIDTH", 64)
    test_butterfly5_report_bytes(monkeypatch)


def _random_problem(rng, n):
    dim = 2 ** n - 1

    def expr():
        return LinExpr(n, {rng.randrange(1, dim + 1): rng.choice((-2, -1, 1, 2))
                           for _ in range(rng.randint(1, 3))})
    cons = tuple((expr(), rng.choice(bound.RELATIONS), F(rng.randint(-1, 2)))
                 for _ in range(rng.randint(1, 3)))
    return bound.BoundProblem(n, rng.choice((bound.CONE_GAMMA, bound.CONE_GAMMA_IN)),
                              rng.choice(bound.SENSES), expr(), cons)


@pytest.mark.parametrize("n", [3, 4])
def test_column_generation_matches_all_columns(monkeypatch, n):
    # with no all-columns shortcut, small problems run the float seed,
    # pricing and the improving-ray search that otherwise only n=7 reaches
    rng = random.Random(n)
    problems = [_random_problem(rng, n) for _ in range(30)]
    expected = [bound.solve_bound(p) for p in problems]
    priced = []
    real_price = bound._price

    def price(*args):
        out = real_price(*args)
        priced.extend(out)
        return out
    monkeypatch.setattr(bound, "_price", price)
    monkeypatch.setattr(bound, "_ALL_COLUMNS_LIMIT", 0)
    for problem, want in zip(problems, expected):
        got = bound.solve_bound(problem)
        assert (got.status, got.value) == (want.status, want.value)
        assert bound.verify_bound_result(problem, got)
    assert {r.status for r in expected} == {"optimal", "infeasible", "unbounded"}
    assert priced
    assert {p.cone for p in problems} == {bound.CONE_GAMMA, bound.CONE_GAMMA_IN}
    assert {p.sense for p in problems} == set(bound.SENSES)


@pytest.mark.parametrize("n", [3, 4])
def test_an_empty_seed_restores_feasibility_from_the_no_ray_certificate(monkeypatch, n):
    # with no seed columns a first solve can be infeasible with no improving
    # ray: _solve_max then adds the no-ray certificate's cone ids and solves
    # again; the all-columns answers never take that branch
    restored = []
    real_ray = bound._improving_ray

    def improving_ray(*args):
        ray, bound_ids = real_ray(*args)
        if ray is None:
            restored.append(bound_ids)
        return ray, bound_ids
    monkeypatch.setattr(bound, "_improving_ray", improving_ray)
    monkeypatch.setattr(bound, "_float_seed", lambda asm: [])
    test_column_generation_matches_all_columns(monkeypatch, n)
    assert restored and all(restored)


@pytest.mark.parametrize("n", [3, 4])
def test_gamma_in_is_gamma_cut_by_every_ingleton_form(n):
    # the paper's reduction: Delta cuts out of Gamma the cone that every
    # Ingleton form over every quad cuts out, so both give one answer; on the
    # problems of test_column_generation_matches_all_columns and on max -J
    forms = {}
    for q in itertools.product(range(2 ** n), repeat=4):
        e = ingleton_expr(IngletonQuad(n, *q))
        if not e.is_zero():
            forms.setdefault(tuple(sorted(e.coeffs.items())), e)
    forms = list(forms.values())
    rng = random.Random(n)
    problems = [_random_problem(rng, n) for _ in range(30)]
    classic = -ingleton_expr(IngletonQuad(n, 1, 2, 4, 2 ** (n - 1)))
    top = ((LinExpr.single(n, 2 ** n - 1), "<=", F(1)),)
    problems += [bound.BoundProblem(n, bound.CONE_GAMMA, "max", f, top)
                 for f in [classic] + [-e for e in rng.sample(forms, 2)]]
    statuses = set()
    for problem in problems:
        inner, outer = (replace(problem, cone=c) for c in (bound.CONE_GAMMA_IN, bound.CONE_GAMMA))
        want = bound.solve_bound(inner)
        got = bound.solve_bound(outer, extra_inequalities=forms)
        assert (got.status, got.value) == (want.status, want.value)
        assert bound.verify_bound_result(inner, want)
        assert bound.verify_bound_result(outer, got, extra_inequalities=forms)
        statuses.add(want.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}
    # at n=4 Gamma alone lets -J go positive, so the forms do the cutting
    if n == 4:
        assert bound.solve_bound(bound.BoundProblem(n, bound.CONE_GAMMA, "max", classic, top)).value > 0


@pytest.mark.parametrize("n", [3, 4])
def test_min_answer_is_the_negated_max_answer(n):
    # min f and max -f share every certificate but the value and the dual
    # user multipliers, which change sign; on the problems of
    # test_column_generation_matches_all_columns
    rng = random.Random(n)
    unsigned = lambda r: (r.status, r.primal, r.ray, r.farkas)
    statuses = set()
    for problem in (_random_problem(rng, n) for _ in range(30)):
        f = problem.objective
        lo = bound.solve_bound(replace(problem, sense="min", objective=f))
        hi = bound.solve_bound(replace(problem, sense="max", objective=-f))
        assert unsigned(lo) == unsigned(hi)
        if lo.status == "optimal":
            assert lo.value == -hi.value and lo.dual.cone == hi.dual.cone
            assert lo.dual.user == tuple(-u for u in hi.dual.user)
        else:
            assert {lo.value, hi.value, lo.dual, hi.dual} == {None}
        statuses.add(lo.status)
    assert statuses == {"optimal", "infeasible", "unbounded"}


@pytest.mark.parametrize("n", [3, 4])
def test_each_solve_packs_its_cone_once(monkeypatch, n):
    # pricing, the improving-ray search and the verification share one
    # table, on the problems of test_column_generation_matches_all_columns
    rng = random.Random(n)
    problems = [_random_problem(rng, n) for _ in range(30)]
    built = []

    class Counted(MemberTable):
        def __init__(self, exprs):
            built.append(1)
            super().__init__(exprs)
    monkeypatch.setattr(bound, "MemberTable", Counted)
    monkeypatch.setattr(bound, "_ALL_COLUMNS_LIMIT", 0)
    statuses = set()
    for problem in problems:
        built.clear()
        statuses.add(bound.solve_bound(problem).status)
        assert len(built) == 1
    assert statuses == {"optimal", "infeasible", "unbounded"}



def test_rhs_beyond_float_range_seeds_no_columns(monkeypatch, capsys, tmp_path):
    # the float seed never decides: a value it cannot hold leaves it out,
    # the seed falls back to the Delta1/Delta2 members, and the exact column
    # generation finds the all-columns answer from there
    text = "n 3\ncone gamma-in\nmaximize +1*h{1,2,3}\nst +1*h{1} <= 1%s\nst +1*h{2,3} <= 1\n"
    problem = bound.parse_problem(text % ("0" * 400))
    want = bound.solve_bound(problem)
    assert (want.status, want.value) == ("optimal", 10 ** 400 + 1)
    monkeypatch.setattr(bound, "_ALL_COLUMNS_LIMIT", 0)
    asm = bound._DualAssembly(problem, bound._cone(problem, None, None))
    elemental = [k for k, ci in enumerate(bound.cone_members(3, problem.cone))
                 if ci.kind != "Delta0"]
    assert elemental and bound._float_seed(asm) == elemental
    got = bound.solve_bound(problem)
    assert (got.status, got.value) == (want.status, want.value)
    assert bound.verify_bound_result(problem, got)
    path = tmp_path / "problem.txt"
    path.write_text(text % ("0" * 400), encoding="ascii")
    from ingletonlp.cli import main
    assert main(["bound", "--problem", str(path)]) == 0
    assert f"value {10 ** 400 + 1}" in capsys.readouterr().out


def test_rhs_beyond_float_range_at_n6_starts_from_the_elemental_members(tmp_path):
    # 1,716 gamma-in members, past the all-columns limit, and no float seed:
    # column generation starts from the 246 Delta1/Delta2 members, where
    # pricing in 256 a round from none took minutes
    path = tmp_path / "problem.txt"
    path.write_text("n 6\ncone gamma-in\nmaximize +1*h{1,2,3,4,5,6}\n"
                    f"st +1*h{{1}} <= {10 ** 400}\n", encoding="ascii")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "ingletonlp.cli", "bound", "--problem",
                           str(path)], env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "status unbounded" in lines and "verified true" in lines
    assert elapsed < 15


def _dense_seed_lp(problem, glist):
    """The float seed's LP as scipy.optimize.linprog keywords, one dense float list per row.

    It maximizes the objective in the problem's sense: f for max, -f for min."""
    dim = 2 ** problem.n - 1
    dense = lambda e: [float(e.coeffs.get(m, 0)) for m in range(1, dim + 1)]
    a_ub = [[-c for c in dense(g)] for g in glist]
    b_ub = [0.0] * len(glist)
    a_eq, b_eq = [], []
    for expr, rel, rhs in problem.constraints:
        if rel == "<=":
            a_ub.append(dense(expr))
            b_ub.append(float(rhs))
        elif rel == ">=":
            a_ub.append([-c for c in dense(expr)])
            b_ub.append(-float(rhs))
        else:
            a_eq.append(dense(expr))
            b_eq.append(float(rhs))
    sign = -1 if problem.sense == "min" else 1
    cost = [-c for c in dense(sign * problem.objective)]
    return dict(c=cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq or None, b_eq=b_eq or None,
                bounds=(0, None), method="highs")


def _dense_float_seed(problem, glist):
    """The float seed from the dense LP: the column-list seed's reference."""
    from scipy.optimize import linprog
    res = linprog(**_dense_seed_lp(problem, glist))
    if res.status != 0:
        return []
    marg = res.ineqlin.marginals
    return [k for k in range(len(glist)) if abs(marg[k]) > 1e-9]


def _seed_columns(problem):
    asm = bound._DualAssembly(problem, bound._cone(problem, None, None))
    return bound._float_seed(asm), _dense_float_seed(problem, asm.glist)


@pytest.mark.parametrize("n", [3, 4])
def test_float_seed_matches_the_dense_reference(n):
    # the problems of test_column_generation_matches_all_columns
    rng = random.Random(n)
    seeds = [_seed_columns(_random_problem(rng, n)) for _ in range(30)]
    assert all(got == want for got, want in seeds)
    assert any(got for got, _want in seeds) and not all(got for got, _want in seeds)


@pytest.mark.parametrize("n", [3, 4])
def test_float_seed_lp_is_scipys(monkeypatch, highs_models, n):
    # simplex.linprog on the seed's column lists hands HiGHS the model that
    # scipy.optimize.linprog builds from the dense rows, entry order included,
    # and gets its answer bit for bit: status, x, objective and <= row duals
    from scipy.optimize import linprog
    rng = random.Random(n)
    got, (ours, theirs) = [], highs_models
    monkeypatch.setattr(bound, "linprog", lambda *a, **kw: got.append(simplex.linprog(*a, **kw))
                        or got[-1])
    statuses = []
    for _ in range(30):  # the problems of test_float_seed_matches_the_dense_reference
        problem = _random_problem(rng, n)
        asm = bound._DualAssembly(problem, bound._cone(problem, None, None))
        bound._float_seed(asm)
        mine, ref = got.pop(), linprog(**_dense_seed_lp(problem, asm.glist))
        assert len(ours) == len(theirs) == 1 and ours.pop() == theirs.pop()
        assert mine.status == ref.status
        if ref.status == 0:
            assert (list(mine.x), mine.fun) == (list(ref.x), ref.fun)
            assert list(mine.duals) == list(ref.ineqlin.marginals)
        statuses.append(mine.status)
    assert 0 in statuses and len(set(statuses)) > 1


def test_float_seed_memory_at_n6():
    # 1,716 gamma-in members, past the all-columns limit: the seed's matrix
    # is sparse, where one dense float list per member took about 6 MB
    n = 6
    cons = tuple((LinExpr.single(n, 1 << i), "<=", F(1)) for i in range(n))
    problem = bound.BoundProblem(n, bound.CONE_GAMMA_IN, "max",
                                 LinExpr.single(n, 2 ** n - 1), cons)
    asm = bound._DualAssembly(problem, bound._cone(problem, None, None))
    glist = asm.glist
    assert len(glist) > bound._ALL_COLUMNS_LIMIT
    want = bound._float_seed(asm)  # loads HiGHS before tracing starts
    tracemalloc.start()
    try:
        got = bound._float_seed(asm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want == _dense_float_seed(problem, glist) and got
    assert peak < 2_000_000


def _outcome(res):
    return res.status, res.value


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([3, 4]), st.integers(0, 2 ** 32), st.integers(1, 5))
def test_solve_bound_properties(n, seed, k):
    problem = _random_problem(random.Random(seed), n)
    f = problem.objective
    other = "min" if problem.sense == "max" else "max"
    status, value = _outcome(bound.solve_bound(problem))
    # max f = -min(-f), and the other way round
    flipped = bound.solve_bound(replace(problem, sense=other, objective=-f))
    assert _outcome(flipped) == (status, None if value is None else -value)
    # a positive multiple of the objective scales the value alike
    scaled = bound.solve_bound(replace(problem, objective=f * k))
    assert _outcome(scaled) == (status, None if value is None else value * k)
    # gamma-in lies inside gamma, so its maximum is never the larger one
    up = replace(problem, sense="max")
    wide = bound.solve_bound(replace(up, cone=bound.CONE_GAMMA))
    narrow = bound.solve_bound(replace(up, cone=bound.CONE_GAMMA_IN))
    if narrow.status != "infeasible":
        assert wide.status != "infeasible"
    if narrow.status == "unbounded":
        assert wide.status == "unbounded"
    if wide.status == narrow.status == "optimal":
        assert wide.value >= narrow.value


# ---------------------------------------------------------------------------
# report text


def test_bound_report_layout():
    problem, res = solve_text("""
n 2
cone gamma-in
maximize +1*h{1}
st +1*h{1,2} <= 1
""")
    text = bound.format_bound_report(problem, res)
    lines = text.splitlines()
    assert lines[0].startswith("# ingletonlp ")
    assert lines[1] == "# bound n=2 cone=gamma-in sense=max constraints=1"
    assert "value 1" in lines
    assert "status optimal" in lines
    assert any(ln.startswith("primal ") for ln in lines)
    assert any(ln.startswith("dual ") for ln in lines)
    assert lines[-1] == "verified true"


def test_bound_report_infeasible_layout():
    problem, res = solve_text("""
n 2
cone gamma-in
maximize +1*h{1}
st +1*h{1} <= 1
st +1*h{1} >= 2
""")
    text = bound.format_bound_report(problem, res)
    assert "status infeasible" in text
    assert "farkas user" in text
    assert text.endswith("verified true\n")
