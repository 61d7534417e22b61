"""Exact LP bounds over the polymatroid and Ingleton-refined cones."""

import hashlib
import random
from fractions import Fraction

import pytest

from ingletonlp import bound, ingen
from ingletonlp.entspace import (
    EntropyVector,
    IngletonQuad,
    LinExpr,
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
    for text in (
            "source s1\nedge e1 from s0 cap 1\nsink t1 wants s1 sees e1\n",
            "source s1\nedge e1 from s1 cap 1\nsink t1 wants e1 sees e1\n",
            "source s1\nedge e1 from s1 cap 1\nsink t1 wants s1 sees e9\n",
            "source s1\nedge e1 from s1 cap -1\nsink t1 wants s1 sees e1\n",
            "source s1\nedge e1 s1 cap 1\n",
    ):
        with pytest.raises(ValueError):
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


def test_butterfly_network_rate():
    # coded relay: both receivers recover both unit sources through
    # capacity-one middles, total rate 2
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


def test_butterfly5_report_bytes():
    # the butterfly without relays m1, m2 (n=5): one exact solve over all
    # 205 Delta columns, cheap enough to lock on every run
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
