"""Coordinate conventions, expression arithmetic, and text formats."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ingletonlp import bound, certify, ingen, simplex
from ingletonlp.entspace import (
    EntropyVector,
    GroundSetError,
    IngletonQuad,
    LinExpr,
    MAX_N,
    MIN_N,
    MemberTable,
    accumulate,
    check_mask,
    check_n,
    cond_entropy_expr,
    cond_mutinfo_expr,
    elements_of,
    evaluate,
    format_expr,
    format_quad,
    format_subset,
    format_vector_pairs,
    full_mask,
    ingleton_expr,
    int_form,
    mask_from_elements,
    parse_expr,
    parse_quad,
    parse_subset,
    text_tables,
    vector_from_text,
    vector_to_text,
    witness_fulldim,
    witness_modular,
)


def popcount(m):
    return bin(m).count("1")


# ---------------------------------------------------------------------------
# ground set and subset coding


def test_ground_set_bounds():
    assert (MIN_N, MAX_N) == (2, 20)
    check_n(2)
    check_n(20)
    for bad in (0, 1, 21, -3):
        with pytest.raises(GroundSetError):
            check_n(bad)


def test_full_mask():
    assert full_mask(2) == 0b11
    assert full_mask(4) == 0b1111


def test_check_mask_rejects_out_of_range():
    check_mask(0, 3)
    check_mask(0b111, 3)
    with pytest.raises(ValueError):
        check_mask(0b1000, 3)
    with pytest.raises(ValueError):
        check_mask(-1, 3)


def test_mask_elements_roundtrip():
    # element k occupies bit k-1
    assert mask_from_elements([1, 3], n=4) == 0b101
    assert elements_of(0b101) == (1, 3)
    assert elements_of(0) == ()
    for m in range(16):
        assert mask_from_elements(elements_of(m), n=4) == m


def test_elements_are_range_checked_before_shifting():
    # a huge element would otherwise build a 2^e-bit int first
    for elements, n in (([MAX_N + 1], None), ([40000000000], None), ([5], 4), ([0], None)):
        with pytest.raises(GroundSetError):
            mask_from_elements(elements, n=n)
    assert mask_from_elements([MAX_N]) == 1 << (MAX_N - 1)
    with pytest.raises(ValueError):
        parse_subset("{40000000000}")


def test_subset_text_roundtrip():
    assert format_subset(0b101) == "{1,3}"
    assert format_subset(0) == "{}"
    assert parse_subset("{1,3}") == 0b101
    assert parse_subset("{}") == 0
    assert parse_subset("{ 2 , 4 }") == 0b1010
    for m in range(32):
        assert parse_subset(format_subset(m)) == m


def test_parse_subset_rejects_garbage():
    for bad in ("1,3", "{1;3}", "{0}", "{a}"):
        with pytest.raises(ValueError):
            parse_subset(bad)


# ---------------------------------------------------------------------------
# linear expressions


def test_zero_expression():
    z = LinExpr.zero(3)
    assert z.is_zero()
    assert z.terms() == []
    assert format_expr(z) == "0"


def test_single_and_arithmetic():
    a = LinExpr.single(3, 0b1)
    b = LinExpr.single(3, 0b10, Fraction(2))
    s = a + b
    assert dict(s.terms()) == {0b1: 1, 0b10: 2}
    assert (s - s).is_zero()
    assert dict((-a).terms()) == {0b1: -1}
    assert dict((a * Fraction(3, 2)).terms()) == {0b1: Fraction(3, 2)}
    assert dict((Fraction(3, 2) * a).terms()) == {0b1: Fraction(3, 2)}


def test_cancellation_drops_terms():
    a = LinExpr.single(3, 0b11)
    e = a + (-a)
    assert e.is_zero()
    assert e == LinExpr.zero(3)


def test_expressions_hash_by_content():
    e1 = parse_expr("+1*h{1} -2*h{2,3}", 3)
    e2 = LinExpr.single(3, 0b1) - LinExpr.single(3, 0b110, Fraction(2))
    assert e1 == e2
    assert hash(e1) == hash(e2)
    assert len({e1, e2}) == 1


def test_mixed_ground_sets_rejected():
    with pytest.raises(ValueError):
        LinExpr.single(3, 0b1) + LinExpr.single(4, 0b1)


def test_expr_text_roundtrip():
    text = "+3/2*h{1,2} -1*h{3}"
    e = parse_expr(text, 3)
    assert dict(e.terms()) == {0b11: Fraction(3, 2), 0b100: -1}
    assert format_expr(e) == text
    assert parse_expr(format_expr(e), 3) == e


def _reference_format_expr(e):
    # the writer's formula before int coefficients were printed directly
    parts = []
    for mask, c in e.terms():
        c = Fraction(c)
        parts.append(f"{'+' if c > 0 else '-'}{abs(c)}*h{format_subset(mask)}")
    return " ".join(parts) if parts else "0"


_coefficients = st.one_of(
    st.integers(-12, 12),
    st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 6).flatmap(lambda n: st.tuples(
    st.just(n), st.dictionaries(st.integers(1, 2 ** n - 1), _coefficients, max_size=8))))
def test_format_expr_matches_reference_and_roundtrips(case):
    n, coeffs = case
    e = LinExpr(n, coeffs)
    text = format_expr(e)
    assert text == _reference_format_expr(e)
    _sn, tn = text_tables(n)
    for mask, c in e.terms():
        if c in (1, -1):
            assert tn[mask << 1 | (c < 0)] == format_expr(LinExpr.single(n, mask, c))
    assert parse_expr(text, n) == e


def test_parse_expr_zero_literal():
    assert parse_expr("0", 4).is_zero()


def test_parse_expr_requires_explicit_coefficient():
    # bare h{1} without a coefficient is not part of the grammar
    for bad in ("h{1}", "+h{1}", "-h{2,3}", "1*g{1}", "+1h{1}"):
        with pytest.raises(ValueError):
            parse_expr(bad, 4)


def test_parse_expr_rejects_out_of_range_elements():
    with pytest.raises(ValueError):
        parse_expr("+1*h{4}", 3)


def test_parse_expr_merges_repeated_subsets():
    e = parse_expr("+1*h{1} +2*h{1} -3*h{1}", 3)
    assert e.is_zero()


# ---------------------------------------------------------------------------
# entropy vectors


def test_vector_from_function():
    v = EntropyVector(3, [Fraction(popcount(m)) for m in range(1, 8)])
    assert v[0b1] == 1
    assert v[0b111] == 3
    assert len(list(v.items())) == 7


@pytest.mark.parametrize("bad", [0.5, np.float64(1), np.int64(1), "1"])
def test_vector_rejects_values_that_are_not_rational(bad):
    with pytest.raises(TypeError, match="int or Fraction"):
        EntropyVector(2, [1, bad, 2])
    with pytest.raises(TypeError, match="int or Fraction"):
        EntropyVector.from_dict(2, {0b11: bad})


def test_vector_empty_set_and_range_checks():
    v = witness_modular(3)
    assert v[0] == 0  # h of the empty set
    with pytest.raises(ValueError):
        v[0b1000]


def test_vector_text_roundtrip():
    v = witness_modular(3)
    text = vector_to_text(v)
    assert text == ("n=3\n"
                    "{1}=1 {2}=1 {1,2}=2 {3}=1 {1,3}=2 {2,3}=2 {1,2,3}=3\n")
    w = vector_from_text(text)
    assert w.n == 3
    assert all(w[m] == v[m] for m in range(1, 8))
    assert format_vector_pairs(v) in text


def test_vector_text_fractional_values():
    v = EntropyVector(2, [Fraction(popcount(m), 4) for m in range(1, 4)])
    w = vector_from_text(vector_to_text(v))
    assert w[0b11] == Fraction(1, 2)


def test_vector_from_text_rejects_missing_header():
    with pytest.raises(ValueError):
        vector_from_text("{1}=1 {2}=1 {1,2}=2\n")


def test_zero_denominator_is_a_value_error():
    with pytest.raises(ValueError):
        parse_expr("+1/0*h{1}", 2)
    with pytest.raises(ValueError):
        vector_from_text("n=2\n{1}=1/0 {2}=1 {1,2}=2\n")


# ---------------------------------------------------------------------------
# quads and the ten-term form


def test_quad_accepts_empty_parts():
    q = IngletonQuad(4, 0b1, 0, 0b10, 0b100)
    assert q.masks() == (0b1, 0, 0b10, 0b100)


def test_quad_rejects_out_of_range_mask():
    with pytest.raises(ValueError):
        IngletonQuad(3, 0b1000, 0, 0, 0)


def test_quad_text_roundtrip():
    q = IngletonQuad(4, 0b1, 0b10, 0b100, 0b1000)
    assert format_quad(q) == "{1},{2},{3},{4}"
    assert parse_quad("{1},{2},{3},{4}", 4) == q
    assert parse_quad("{1,2} , {} , {3} , {4}", 4).masks() == (3, 0, 4, 8)
    with pytest.raises(ValueError):
        parse_quad("{1},{2},{3}", 4)


def test_ingleton_expr_singleton_quad():
    q = IngletonQuad(4, 0b1, 0b10, 0b100, 0b1000)
    assert format_expr(ingleton_expr(q)) == (
        "-1*h{1} -1*h{2} +1*h{1,2} +1*h{1,3} +1*h{2,3} -1*h{1,2,3}"
        " +1*h{1,4} +1*h{2,4} -1*h{1,2,4} -1*h{3,4}")


def test_ingleton_expr_drops_empty_set_terms():
    # with a3 empty the h(a3-union) terms collapse onto smaller subsets
    q = IngletonQuad(3, 0b1, 0b10, 0, 0b100)
    e = ingleton_expr(q)
    assert all(mask != 0 for mask, _ in e.terms())
    assert e == cond_mutinfo_expr(3, 0b1, 0b10, 0b100)


def test_ingleton_expr_swap_symmetry():
    q = IngletonQuad(4, 0b11, 0b100, 0b1010, 0b1)
    a1, a2, a3, a4 = q.masks()
    assert ingleton_expr(q) == ingleton_expr(IngletonQuad(4, a2, a1, a3, a4))
    assert ingleton_expr(q) == ingleton_expr(IngletonQuad(4, a1, a2, a4, a3))


# ---------------------------------------------------------------------------
# information-measure building blocks


def test_cond_entropy_on_modular_point():
    # on the size function h(a)=|a| conditional entropy counts new elements
    v = witness_modular(4)
    for alpha in range(1, 16):
        for beta in range(16):
            e = cond_entropy_expr(4, alpha, beta)
            assert evaluate(e, v) == popcount(alpha & ~beta)


def test_cond_mutinfo_on_modular_point():
    v = witness_modular(4)
    for alpha in range(1, 16):
        for beta in range(1, 16):
            for delta in (0, 0b1, 0b1010):
                e = cond_mutinfo_expr(4, alpha, beta, delta)
                assert evaluate(e, v) == popcount(alpha & beta & ~delta)


def test_evaluate_is_linear():
    v = witness_fulldim(3)
    e1 = parse_expr("+1*h{1} -1*h{2,3}", 3)
    e2 = parse_expr("+2*h{1,2} +1*h{3}", 3)
    assert (evaluate(e1 + e2, v)
            == evaluate(e1, v) + evaluate(e2, v))
    assert evaluate(e1 * Fraction(5, 3), v) == Fraction(5, 3) * evaluate(e1, v)


_point_values = st.one_of(
    st.integers(-40, 40),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-40, 40)))  # denominator 1


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_evaluate_matches_fraction_sum(data):
    n = data.draw(st.integers(2, 6))
    values = data.draw(st.lists(_point_values, min_size=2 ** n - 1, max_size=2 ** n - 1))
    e = LinExpr(n, data.draw(st.dictionaries(st.integers(1, 2 ** n - 1), _coefficients,
                                             max_size=12)))
    h = EntropyVector(n, values)
    expected = sum((Fraction(c) * Fraction(h[m]) for m, c in e.coeffs.items()), Fraction(0))
    got = evaluate(e, h)
    assert got == expected
    if all(type(x) is int for x in [*values, *e.coeffs.values()]):
        assert type(got) is int
    # the scaled form is exact, and an evaluated point still equals a fresh one
    nums, den = h.nums, h.den
    assert den > 0 and [Fraction(a, den) for a in nums] == list(values)
    fresh = EntropyVector(n, values)
    assert h == fresh and hash(h) == hash(fresh)
    back = pickle.loads(pickle.dumps(h))
    assert back == h and evaluate(e, back) == expected
    # a point built from unreduced numerators evaluates the same
    over = EntropyVector.over(n, [3 * a for a in nums], 3 * den)
    assert over == h and evaluate(e, over) == expected


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_member_table_matches_evaluate(data):
    # int and Fraction coefficients, points over den > 1 with negative
    # coordinates, and 10**400-scale points that widen the lanes
    n = data.draw(st.integers(2, 5))
    exprs = [LinExpr(n, c) for c in data.draw(st.lists(st.dictionaries(
        st.integers(1, 2 ** n - 1), _coefficients, max_size=10), min_size=1, max_size=12))]
    scale = data.draw(st.sampled_from([1, 10 ** 400]))
    h = EntropyVector(n, [v * scale for v in data.draw(
        st.lists(_point_values, min_size=2 ** n - 1, max_size=2 ** n - 1))])
    table = MemberTable(exprs)
    want = [evaluate(e, h) for e in exprs]
    assert [Fraction(v, table.den * h.den) for v in table.scaled(h)] == want
    assert table.nonnegative(h) == all(v >= 0 for v in want)
    if scale > 1 and any(h.nums) and any(e.coeffs for e in exprs):
        assert table.width(h) > 1024
    k = data.draw(st.integers(0, len(exprs) - 1))
    rest, want = table.without(k), want[:k] + want[k + 1:]
    assert [Fraction(v, table.den * h.den) for v in rest.scaled(h)] == want
    assert rest.nonnegative(h) == all(v >= 0 for v in want)


@pytest.mark.parametrize("w", [8, 16, 32, 64, 128, 256])
def test_member_table_values_at_the_lane_bound(w):
    # +-(2^(w-1) - 1) is the widest value a w-bit lane holds; one more widens
    top = 2 ** (w - 1) - 1
    exprs = [LinExpr.single(2, 1), LinExpr.single(2, 1, -1), LinExpr.single(2, 2)]
    h = EntropyVector(2, [top, -top, 0])
    table = MemberTable(exprs)
    assert table.width(h) == w
    assert table.scaled(h) == [top, -top, -top]
    assert not table.nonnegative(h) and not table.without(0).nonnegative(h)
    assert table.without(1).without(1).nonnegative(h)
    wider = EntropyVector(2, [top + 1, -top - 1, 0])
    assert table.width(wider) == 2 * w
    assert table.scaled(wider) == [top + 1, -top - 1, -top - 1]


# ---------------------------------------------------------------------------
# named vectors


def test_modular_vector_values():
    v = witness_modular(5)
    for m in range(1, 32):
        assert v[m] == popcount(m)


def test_fulldim_vector_values():
    v = witness_fulldim(4)
    for m in range(1, 16):
        assert v[m] == 2 ** 4 - 2 ** (4 - popcount(m))


def test_fulldim_vector_is_strictly_submodular():
    v = witness_fulldim(3)
    for a in range(1, 8):
        for b in range(1, 8):
            if a & ~b and b & ~a:
                assert v[a] + v[b] > v[a | b] + (v[a & b] if a & b else 0)


def test_accumulate_sums_and_drops_cancelled_terms():
    a = parse_expr("+1*h{1} +2*h{1,2}", 2)
    b = parse_expr("-1*h{1} +1/2*h{2}", 2)
    assert accumulate([(1, a), (1, b)]) == (a + b).coeffs
    assert accumulate([(Fraction(3), a), (-3, a)]) == {}
    assert accumulate([(0, a), (2, b)]) == (2 * b).coeffs
    assert accumulate([]) == {}


def _dense_reference(n, pairs):
    """The sum of (mask, coeff) pairs over 2^n dense Fractions, h(empty)
    left out; the masks come in the order each last turned nonzero."""
    dense = [Fraction(0)] * (1 << n)
    turned = {}
    for step, (mask, c) in enumerate(pairs):
        if not dense[mask] and dense[mask] + c:
            turned[mask] = step
        dense[mask] += c
    live = sorted((m for m in range(1, 1 << n) if dense[m]), key=turned.get)
    return {m: dense[m] for m in live}


def _same_map(got, want):
    # equal, and in the same key order: the float presolve reads dict order
    return got == want and list(got) == list(want)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_accumulate_matches_a_dense_fraction_sum(data):
    n = data.draw(st.integers(2, 4))
    mask = st.integers(0, 2 ** n - 1)  # mask 0 included
    maps = st.lists(st.dictionaries(mask, _coefficients, max_size=6), min_size=1, max_size=5)
    terms = [(data.draw(_coefficients), LinExpr(n, m)) for m in data.draw(maps)]
    # take some terms out again and put them back, so their keys leave and re-enter
    again = data.draw(st.lists(st.sampled_from(terms), max_size=4))
    terms += [(-c, e) for c, e in again] + again
    want = _dense_reference(n, [(m, c * x) for c, e in terms for m, x in e.coeffs.items()])
    assert _same_map(accumulate(terms), want)
    total = sum((c * e for c, e in terms), LinExpr.zero(n))
    assert _same_map(total.coeffs, want)
    # parsed text sums repeated and empty subsets the same way
    pairs = data.draw(st.lists(st.tuples(mask, _coefficients), min_size=1, max_size=8))
    pairs += [(m, -c) for m, c in pairs[:3]] + pairs[:3]
    text = " ".join(f"{'-' if c < 0 else '+'}{abs(c)}*h{format_subset(m)}" for m, c in pairs)
    assert _same_map(parse_expr(text, n).coeffs, _dense_reference(n, pairs))


@pytest.mark.parametrize("values, expected", [
    ([3, -2, 0], ([3, -2, 0], 1)),  # ints stay as they are, over 1
    ([Fraction(1, 2), Fraction(-1, 3)], ([3, -2], 6)),
    ([1, Fraction(1, 2), 0], ([2, 1, 0], 2)),
    ([True, False, 2], ([1, 0, 2], 1)),  # bools come back as ints
    ([], ([], 1)),
])
def test_int_form_puts_rationals_over_their_lcm(values, expected):
    nums, den = int_form(values)
    assert (nums, den) == expected and {type(v) for v in nums} <= {int}
    assert nums is not values


def _record(name):
    """One instance of the package's record class of that name, as a solve or parser makes it."""
    net = ("source s1\nsource s2\nedge a from s1 cap 1\nedge b from s2 cap 1\n"
           "edge m from s1,s2 cap 1\nsink t1 wants s1,s2 sees a,m\nsink t2 wants s1,s2 sees b,m\n")
    problem = bound.BoundProblem(3, bound.CONE_GAMMA_IN, "max", LinExpr.single(3, 1),
                                 ((LinExpr.single(3, 7), "<=", Fraction(1)),))
    target = ingleton_expr(IngletonQuad(4, 1, 2, 4, 8))
    members = ingen.gen_delta(4)
    members[3].expr  # one member carries its expression, which nothing compares
    lp = simplex.solve_standard([[1, 1, 1]], [2], [-1, -2, 0])
    scan = dict(n=4, generators=tuple(members[:2]), mode="sample", seed=0, samples=1,
                quads=0, classes=0, orbits=0)
    return {
        "IngletonQuad": lambda: IngletonQuad(4, 1, 2, 4, 8),
        "CanonicalInequality": lambda: members[3],
        "QuadClass": lambda: ingen.classify_quad(IngletonQuad(4, 1, 2, 4, 8)),
        "BoundProblem": lambda: problem,
        "DualCertificate": lambda: bound.solve_bound(problem).dual,
        "InfeasibilityCertificate": lambda: bound.InfeasibilityCertificate(
            (Fraction(-1),), ((0, Fraction(1, 2)),)),
        "BoundResult": lambda: bound.solve_bound(problem),
        "NetworkEdge": lambda: bound.parse_network(net).edges[2],
        "NetworkSink": lambda: bound.parse_network(net).sinks[0],
        "NetworkDescription": lambda: bound.parse_network(net),
        "FarkasCertificate": lambda: certify.decide_implication(
            target, [ci.expr for ci in members]),
        "SeparationWitness": lambda: certify.decide_implication(
            target, [ci.expr for ci in ingen.gen_elemental(4)]),
        "_QuadScanReport": lambda: certify._QuadScanReport(**scan),
        "Theorem1Report": lambda: certify.Theorem1Report(
            **scan, implied=1, not_implied=0, counterexamples=(), certificates=(), witnesses=()),
        "CompletenessReport": lambda: certify.CompletenessReport(
            **scan, certified=0, failures=("{1},{2},{3},{4}",), certificates=()),
        "MinimalityReport": lambda: certify.check_minimality(3),
        "LPResult": lambda: simplex.LPResult("optimal", lp.x, lp.objective, lp.y),
        "_Restart": lambda: lp.warm,
    }[name]()


# each frozen record class, then each mutable one, with one of its fields
FIELD = {"IngletonQuad": "a1", "CanonicalInequality": "payload", "QuadClass": "kind",
         "BoundProblem": "sense", "DualCertificate": "user", "InfeasibilityCertificate": "cone",
         "BoundResult": "value", "NetworkEdge": "cap", "NetworkSink": "sees",
         "NetworkDescription": "edges", "FarkasCertificate": "coeffs",
         "SeparationWitness": "point", "_Restart": "basis"}
MUTABLE = {"_QuadScanReport": "mode", "Theorem1Report": "implied",
           "CompletenessReport": "failures", "MinimalityReport": "redundant", "LPResult": "x"}


@pytest.mark.parametrize("name", [*FIELD, *MUTABLE])
def test_every_record_class_behaves_as_a_record(name):
    rec = _record(name)
    field = FIELD.get(name) or MUTABLE[name]
    assert type(rec).__name__ == name
    copied, back = copy.copy(rec), pickle.loads(pickle.dumps(rec))
    assert type(copied) is type(back) is type(rec)
    if name == "_Restart":  # its tableau compares by identity, and its lists cannot hash
        assert copied == rec
        assert [getattr(back, f) for f in ("basis", "start", "sign", "n_art", "A", "b")] == \
            [getattr(rec, f) for f in ("basis", "start", "sign", "n_art", "A", "b")]
    else:
        for twin in (copied, back):
            assert twin == rec and not twin != rec and getattr(twin, field) == getattr(rec, field)
            if name in FIELD:
                assert hash(twin) == hash(rec)
    if name in FIELD:
        with pytest.raises(AttributeError):
            setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            delattr(rec, field)
    else:
        with pytest.raises(TypeError):
            hash(rec)
        setattr(rec, field, None)
        assert getattr(rec, field) is None and rec != back


def test_record_reprs_read_as_dataclass_reprs():
    assert repr(IngletonQuad(4, 1, 2, 4, 8)) == "IngletonQuad(n=4, a1=1, a2=2, a3=4, a4=8)"
    infeasible = bound.BoundResult(
        "infeasible", farkas=bound.InfeasibilityCertificate((Fraction(-1),), ()))
    assert repr(infeasible) == (
        "BoundResult(status='infeasible', value=None, primal=None, dual=None, "
        "farkas=InfeasibilityCertificate(user=(Fraction(-1, 1),), cone=()), ray=None)")
    ci = ingen.gen_delta2(3)[0]
    ci.expr  # a member's expression is left out of its repr, read or not
    assert repr(ci) == "CanonicalInequality(n=3, kind='Delta2', payload=(1,))"
    warm = simplex.solve_standard([[1, 1]], [1], [-1, 0]).warm
    assert repr(warm).startswith("<ingletonlp.simplex._Restart object at ")


def test_record_arguments_by_position_keyword_and_default():
    q = IngletonQuad(4, 1, 2, 4, 8)
    assert IngletonQuad(a4=8, a3=4, n=4, a1=1, a2=2) == IngletonQuad(4, 1, a2=2, a3=4, a4=8) == q
    assert ingen.QuadClass("Trivial").payload is None
    r = simplex.LPResult("optimal", None, Fraction(1), width=16)
    assert (r.objective, r.warm, r.pivots, r.width) == (Fraction(1), None, (0, 0), 16)
    for bad in [lambda: IngletonQuad(4, 1, 2, 4),  # a field missing
                lambda: IngletonQuad(4, 1, 2, 4, 8, 16),  # one too many
                lambda: IngletonQuad(4, 1, 2, 4, 8, n=4),  # a field twice
                lambda: IngletonQuad(4, 1, 2, 4, a5=8)]:  # no such field
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(GroundSetError):  # the class's own checks run after the fields are set
        IngletonQuad(a1=1, a2=2, a3=4, a4=32, n=4)
