"""Family generation, counting formulas, quad classification, file format."""

import hashlib
import io
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from ingletonlp import entspace, ingen
from ingletonlp.entspace import (
    IngletonQuad,
    LinExpr,
    evaluate,
    format_subset,
    ingleton_expr,
    parse_expr,
    witness_modular,
)

# independently derived sizes for n = 2..8
DELTA_SIZES = [3, 9, 34, 205, 1716, 14959, 122886]
DELTA0_SIZES = [0, 0, 6, 120, 1470, 14280, 121086]


def delta1_size(n):
    return math.comb(n, 2) * 2 ** (n - 2)


# ---------------------------------------------------------------------------
# counts


def test_count_formulas_frozen_values():
    for n, want in zip(range(2, 9), DELTA_SIZES):
        assert ingen.count_delta(n) == want
    for n, want in zip(range(2, 9), DELTA0_SIZES):
        assert ingen.count_delta0(n) == want


def test_count_delta_closed_form():
    for n in range(2, 12):
        want = ((6 ** n + 6 * 4 ** n + 2 ** n) // 4 - 5 ** n - 3 ** n
                + delta1_size(n) + n)
        assert ingen.count_delta(n) == want


def test_generated_sizes_match_counts():
    for n in range(2, 6):
        assert len(ingen.gen_delta0(n)) == ingen.count_delta0(n)
        assert len(ingen.gen_delta1(n)) == delta1_size(n)
        assert len(ingen.gen_delta2(n)) == n
        assert len(ingen.gen_delta(n)) == ingen.count_delta(n)


def test_elemental_size():
    for n in range(2, 7):
        assert len(ingen.gen_elemental(n)) == n + delta1_size(n)
    assert len(ingen.gen_elemental(4)) == 28


def test_budget_guard():
    with pytest.raises(ingen.BudgetExceededError):
        ingen.gen_delta(8, budget=100)
    # a budget at least as large as the family is not an error
    assert len(ingen.gen_delta(4, budget=34)) == 34


# ---------------------------------------------------------------------------
# member structure


def _brute_force_delta0_payloads(n):
    # every assignment of the elements to d1, d2, d3, d4, beta or unused,
    # kept when each d is nonempty and both pairs are in canonical order
    out = []
    for slots in itertools.product(range(6), repeat=n):
        masks = [0] * 6
        for e, slot in enumerate(slots):
            masks[slot] |= 1 << e
        payload = tuple(masks[:5])
        if all(payload[:4]) and ingen.delta0_payload(*payload) == payload:
            out.append(payload)
    return sorted(out)


@pytest.mark.parametrize("n", range(2, 7))
def test_delta0_order_matches_brute_force(n):
    assert [ci.payload for ci in ingen.gen_delta0(n)] == _brute_force_delta0_payloads(n)


def test_delta0_enumeration_size_through_n8():
    for n in range(2, 9):
        assert sum(len(betas) for _ds, betas in ingen._delta0_runs(n)) == ingen.count_delta0(n)


def test_members_carry_distinct_payload_and_expr():
    members = ingen.gen_delta(4)
    keys = {(ci.kind, ci.payload) for ci in members}
    assert len(keys) == len(members)
    exprs = {ci.expr.key() for ci in members}
    assert len(exprs) == len(members)
    kinds = {ci.kind for ci in members}
    assert kinds == {"Delta0", "Delta1", "Delta2"}


def test_delta_union_is_disjoint():
    d0 = {ci.expr.key() for ci in ingen.gen_delta0(4)}
    d1 = {ci.expr.key() for ci in ingen.gen_delta1(4)}
    d2 = {ci.expr.key() for ci in ingen.gen_delta2(4)}
    assert not (d0 & d1) and not (d0 & d2) and not (d1 & d2)
    assert len(d0 | d1 | d2) == ingen.count_delta(4)


def test_elemental_members_vanish_on_modular_point():
    # the size function makes every conditional mutual information term
    # count shared fresh elements, so h-kind members evaluate to 1
    v = witness_modular(4)
    for ci in ingen.gen_elemental(4):
        val = evaluate(ci.expr, v)
        assert val in (0, 1)


def test_delta0_members_are_ingleton_expressions():
    # every Delta0 expression must be reachable from some quad
    members = ingen.gen_delta0(4)
    reachable = set()
    for quad in itertools.product(range(16), repeat=4):
        reachable.add(ingleton_expr(IngletonQuad(4, *quad)).key())
    for ci in members:
        assert ci.expr.key() in reachable


def test_payload_text_formats():
    d0 = ingen.gen_delta0(4)[0]
    assert ";" in d0.payload_text() and "|" in d0.payload_text()
    d1 = ingen.gen_delta1(3)[0]
    assert d1.payload_text() == "{1},{2}|{}"
    d2 = ingen.gen_delta2(3)[0]
    assert d2.payload_text() == "{1}"


# ---------------------------------------------------------------------------
# classification


def test_classify_trivial():
    cls = ingen.classify_quad(IngletonQuad(4, 1, 1, 1, 1))
    assert cls.kind == ingen.CLASS_TRIVIAL
    assert str(cls) == "Trivial"


def test_classify_in_delta1():
    cls = ingen.classify_quad(IngletonQuad(4, 0b1, 0b10, 0, 0b100))
    assert cls.kind == ingen.CLASS_IN_DELTA1
    assert str(cls) == "InDelta1 {1},{2}|{3}"
    # the empty slot may sit in position four after a swap
    swapped = ingen.classify_quad(IngletonQuad(4, 0b10, 0b1, 0b100, 0))
    assert str(swapped) == "InDelta1 {1},{2}|{3}"


def test_classify_in_delta2():
    cls = ingen.classify_quad(IngletonQuad(4, 0b1, 0b1, 0, 0b1110))
    assert cls.kind == ingen.CLASS_IN_DELTA2
    assert str(cls) == "InDelta2 {1}"


def test_classify_basic_implied():
    cls = ingen.classify_quad(IngletonQuad(4, 0b11, 0b1, 0b10, 0b1000))
    assert cls.kind == ingen.CLASS_BASIC_IMPLIED


def test_classify_reduces_to():
    cls = ingen.classify_quad(IngletonQuad(4, 0b1, 0b10, 0b100, 0b1000))
    assert cls.kind == ingen.CLASS_REDUCES_TO
    assert str(cls) == "ReducesTo {1},{2};{3},{4}|{}"


def test_classify_total_on_random_quads():
    import random
    rng = random.Random(7)
    kinds = {ingen.CLASS_TRIVIAL, ingen.CLASS_BASIC_IMPLIED,
             ingen.CLASS_IN_DELTA1, ingen.CLASS_IN_DELTA2,
             ingen.CLASS_REDUCES_TO}
    for _ in range(500):
        q = IngletonQuad(5, *(rng.randrange(32) for _ in range(4)))
        assert ingen.classify_quad(q).kind in kinds


def test_reduce_quad_strips_shared_elements():
    # element 1 sits in every part, element 2 in the first two parts
    q = IngletonQuad(4, 0b0011, 0b0011, 0b0101, 0b1001)
    d1, d2, d3, d4, beta = ingen.reduce_quad(q)
    assert beta & (d1 | d2 | d3 | d4) == 0
    for d in (d1, d2, d3, d4):
        assert d & 0b1 == 0


def test_classification_agrees_with_delta_payloads():
    # quads that classify as ReducesTo name an actual family member
    members = {(ci.kind, ci.payload) for ci in ingen.gen_delta0(4)}
    q = IngletonQuad(4, 0b1, 0b10, 0b100, 0b1000)
    cls = ingen.classify_quad(q)
    assert ("Delta0", cls.payload) in members


# ---------------------------------------------------------------------------
# inequality files


def test_inequality_text_roundtrip(tmp_path):
    members = ingen.gen_delta(3)
    text = ingen.inequalities_to_text(3, members)
    assert text.startswith("n=3 count=9\n")
    n, back = ingen.inequalities_from_text(text)
    assert n == 3
    assert [(ci.kind, ci.payload) for ci in back] == \
        [(ci.kind, ci.payload) for ci in members]
    assert [ci.expr for ci in back] == [ci.expr for ci in members]

    path = tmp_path / "delta3.txt"
    ingen.write_inequalities(path, 3, members)
    n2, back2 = ingen.read_inequalities(path)
    assert (n2, [ci.expr for ci in back2]) == (3, [ci.expr for ci in members])


def test_inequality_text_rejects_bad_header():
    with pytest.raises(ValueError):
        ingen.inequalities_from_text("count=9\nDelta1\t{1},{2}|{}\t+1*h{1}\n")


def test_inequality_text_rejects_count_mismatch():
    members = ingen.gen_delta1(3)
    text = ingen.inequalities_to_text(3, members)
    broken = text.replace("count=6", "count=7")
    with pytest.raises(ValueError):
        ingen.inequalities_from_text(broken)


class _ShortFamily:
    """Claims one member more than it yields."""

    def __init__(self, members):
        self.members = members

    def __len__(self):
        return len(self.members) + 1

    def __iter__(self):
        return iter(self.members)


def test_stream_writer_checks_the_header_count():
    out = io.StringIO()
    with pytest.raises(RuntimeError, match="count=6, wrote 5"):
        ingen.write_inequality_stream(out, 3, _ShortFamily(ingen.gen_delta1(3)[:-1]))


def test_stream_writer_matches_the_text_across_blocks(monkeypatch):
    members = ingen.gen_delta(4)
    monkeypatch.setattr(ingen, "_BLOCK", 5)
    out = io.StringIO()
    ingen.write_inequality_stream(out, 4, ingen.family("delta", 4))
    assert out.getvalue() == ingen.inequalities_to_text(4, members)


def test_stream_names_each_subset_once_per_file(monkeypatch, fresh_subset_text):
    # a list streamed in blocks of 5 formats no subset text the Family path does not
    calls = []
    real = entspace.format_subset
    monkeypatch.setattr(entspace, "format_subset", lambda m: calls.append(m) or real(m))
    monkeypatch.setattr(ingen, "_BLOCK", 5)
    texts = []
    for source in (ingen.family("delta", 5), ingen.gen_delta(5)):
        fresh_subset_text()
        calls.clear()
        out = io.StringIO()
        ingen.write_inequality_stream(out, 5, source)
        texts.append(out.getvalue())
        assert len(calls) == len(set(calls)) <= 2 ** 5
    assert texts[0] == texts[1] == ingen.inequalities_to_text(5, ingen.gen_delta(5))


def test_runs_cross_block_edges(monkeypatch):
    # blocks of 3 split runs: at n=5 a Delta0 run has up to 2 betas, a Delta1 run 8 mus
    members = ingen.gen_delta(5)
    want = ingen.inequalities_to_text(5, members)
    monkeypatch.setattr(ingen, "_BLOCK", 3)
    for source in (ingen.family("delta", 5), members):
        out = io.StringIO()
        ingen.write_inequality_stream(out, 5, source)
        assert out.getvalue() == want
    # a reversed list groups into reversed runs
    by_member = [ingen.inequalities_to_text(5, [ci], header=False) for ci in members]
    assert ingen.inequalities_to_text(5, members[::-1], header=False) == "".join(by_member[::-1])
    with pytest.raises(RuntimeError, match="count=6, wrote 5"):
        ingen.write_inequality_stream(io.StringIO(), 3, _ShortFamily(ingen.gen_delta1(3)[:-1]))


def _reference_text(n, members):
    """The inequality file of members, each line spelled from the member's
    expression by the public formatters: no code of the run writer's."""
    lines = [f"{ci.kind}\t{ingen.payload_text(ci.kind, ci.payload)}"
             f"\t{entspace.format_expr(ingen.member_expr(n, ci.kind, ci.payload))}\n"
             for ci in members]
    return f"n={n} count={len(members)}\n" + "".join(lines)


@pytest.mark.parametrize("block", [5, None])
def test_family_writer_matches_the_list_writer(monkeypatch, block):
    # the Family path and the list path both render through _write_runs, so
    # both give the same bytes, held up to n=7 to a reference renderer that
    # shares none of its code (it takes seconds at n=8)
    if block is not None:
        monkeypatch.setattr(ingen, "_BLOCK", block)
    for name in ingen.FAMILIES:
        for n in range(2, 9):
            members = list(ingen.family(name, n))
            out = io.StringIO()
            ingen.write_inequality_stream(out, n, ingen.family(name, n))
            assert ingen.inequalities_to_text(n, members) == out.getvalue(), (name, n)
            if n < 8:
                assert out.getvalue() == _reference_text(n, members), (name, n)


def test_a_shared_names_table_follows_n():
    # the text tables hold one n: asked for another n, they are built for it
    for n in (5, 4, 6):
        members = ingen.gen_delta(n)
        assert ingen.inequalities_to_text(n, members) == _reference_text(n, members), n
        assert [len(t) for t in entspace.text_tables(n)] == [2 ** n, 2 ** (n + 1)]
        assert entspace.text_tables.cache_info().currsize == 1


def test_payload_text_builds_no_table(monkeypatch, fresh_subset_text):
    # a payload names its own masks only, at any n
    calls = []
    real = entspace.format_subset
    monkeypatch.setattr(entspace, "format_subset", lambda m: calls.append(m) or real(m))
    assert ingen.CanonicalInequality(20, "Delta2", (1,)).payload_text() == "{1}"
    assert calls == [1]


@st.composite
def _delta0_run_cases(draw):
    """(n, (d1, d2, d3, d4), betas): nonempty disjoint d's in canonical order
    and a few betas from the elements they leave."""
    n = draw(st.integers(4, 12))
    elements = draw(st.permutations(range(n)))
    # one element for each d, then each other element to a d or to the rest
    slots = list(range(4)) + draw(st.lists(st.integers(0, 4), min_size=n - 4, max_size=n - 4))
    masks = [0] * 5
    for e, slot in zip(elements, slots):
        masks[slot] |= 1 << e
    d1, d2, d3, d4, _beta = ingen.delta0_payload(*masks[:4], 0)
    rest = masks[4]
    betas = draw(st.lists(st.integers(0, rest).map(lambda b: b & rest), min_size=1, max_size=6))
    return n, (d1, d2, d3, d4), betas


@settings(max_examples=200, deadline=None)
@given(_delta0_run_cases())
def test_delta0_run_text_matches_member_by_member(case):
    n, ds, betas = case
    want = []
    for beta in betas:
        payload = (*ds, beta)
        terms = ingen.member_terms(n, "Delta0", payload)
        masks = [m for m, _s in terms]
        assert all(a < b for a, b in zip(masks, masks[1:]))
        a1, a2, a3, a4 = (d | beta for d in ds)
        assert dict(terms) == ingleton_expr(IngletonQuad(n, a1, a2, a3, a4)).coeffs
        body = " ".join(f"{'+' if s > 0 else '-'}1*h{format_subset(m)}" for m, s in terms)
        want.append(f"Delta0\t{ingen.payload_text('Delta0', payload)}\t{body}\n")
    parts = []
    assert ingen._write_runs(parts.append, n, "Delta0", [(ds, betas)]) == len(betas)
    assert "".join(parts) == "".join(want)


def test_generation_checks_no_mask_it_made(monkeypatch):
    # masks are validated where they arrive from outside, not per generated member
    calls = []
    check = entspace.check_mask
    monkeypatch.setattr(entspace, "check_mask", lambda m, n: calls.append(m) or check(m, n))
    assert len(ingen.gen_delta(5)) == 205 and len(ingen.gen_elemental(5)) == 85
    assert calls == []


def test_generation_is_deterministic():
    a = ingen.inequalities_to_text(4, ingen.gen_delta(4))
    b = ingen.inequalities_to_text(4, ingen.gen_delta(4))
    assert a == b


def test_count_elemental_matches_generation():
    for n in range(2, 7):
        assert ingen.count_elemental(n) == len(ingen.gen_elemental(n))
        assert ingen.count_elemental(n) == len(ingen.gen_delta1(n)) + len(ingen.gen_delta2(n))
    assert ingen.count_elemental(20) == 49_807_380


@pytest.mark.parametrize("gen", [ingen.gen_delta1, ingen.gen_delta2, ingen.gen_elemental])
def test_budget_guard_every_family(gen):
    with pytest.raises(ingen.BudgetExceededError):
        gen(20, budget=1)
    assert gen(3, budget=None) == gen(3)


def test_count_delta0_integer_guard(monkeypatch):
    # the closed form is divisible by four for every n; the check must not be an assert
    monkeypatch.setattr(ingen, "divmod", lambda a, b: (a // b, 1), raising=False)
    with pytest.raises(RuntimeError, match="not an integer"):
        ingen.count_delta0(5)


# sha256 of inequalities_to_text(7, ...), recorded before the member writer
# was made table-driven
WRITER_SHA256 = {
    "delta": "1d3e08c12cb5c015036947ce8de3e4741f91c70fbc86d06947dc07b49e43f9b1",
    "elemental": "d491c1ec0a11b04c4b198e61c826f113322a10f5be400df50d63e1456fa28804",
}


@pytest.mark.parametrize("family,gen", [("delta", ingen.gen_delta),
                                        ("elemental", ingen.gen_elemental)])
def test_writer_bytes_at_n7(family, gen):
    members = gen(7)
    text = ingen.inequalities_to_text(7, members)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == WRITER_SHA256[family]


# ---------------------------------------------------------------------------
# member expressions and lines against the checked public constructors


def _oracle_expr(n, ci):
    """The member's >= 0 form, built only from the mask-checking constructors."""
    shape = ingen.shape(ci.kind)
    if shape == ingen.KIND_DELTA0:
        d1, d2, d3, d4, beta = ci.payload
        return ingleton_expr(IngletonQuad(n, d1 | beta, d2 | beta, d3 | beta, d4 | beta))
    if shape == ingen.KIND_DELTA1:
        i, j, mu = ci.payload
        return entspace.cond_mutinfo_expr(n, 1 << (i - 1), 1 << (j - 1), mu)
    bit = 1 << (ci.payload[0] - 1)
    return entspace.cond_entropy_expr(n, bit, entspace.full_mask(n) & ~bit)


@pytest.mark.parametrize("name", sorted(ingen.FAMILIES))
def test_members_match_the_public_constructors(name):
    for n in range(2, 7):
        for ci in ingen.family(name, n):
            want = _oracle_expr(n, ci)
            assert ci.expr == want
            line = ingen.inequalities_to_text(n, [ci], header=False)
            assert line == (f"{ci.kind}\t{ingen.payload_text(ci.kind, ci.payload)}"
                            f"\t{entspace.format_expr(want)}\n")


def _forms_read_off(values):
    """I(a;b|d) and J(a1,a2,a3,a4) computed straight from values[mask], values[0] == 0."""
    def mutinfo(a, b, d):
        return values[a | d] + values[b | d] - values[d] - values[a | b | d]

    def ingleton(a1, a2, a3, a4):
        return (mutinfo(a1, a2, a3) + mutinfo(a1, a2, a4) + mutinfo(a3, a4, 0)
                - mutinfo(a1, a2, 0))
    return mutinfo, ingleton


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_forms_match_values_read_off_random_points(n):
    rng = random.Random(n)
    top = entspace.full_mask(n)
    members = ingen.gen_delta(n) + ingen.gen_elemental(n)
    for _ in range(3):
        values = [0] + [rng.randrange(-50, 51) for _ in range(top)]
        mutinfo, ingleton = _forms_read_off(values)
        h = entspace.EntropyVector(n, values[1:])
        for _ in range(300):
            a1, a2, a3, a4 = (rng.randrange(top + 1) for _ in range(4))
            quad = IngletonQuad(n, a1, a2, a3, a4)
            assert evaluate(ingleton_expr(quad), h) == ingleton(a1, a2, a3, a4)
            assert evaluate(entspace.cond_mutinfo_expr(n, a1, a2, a3), h) == mutinfo(a1, a2, a3)
            cond = values[a1 | a2] - values[a2]
            assert evaluate(entspace.cond_entropy_expr(n, a1, a2), h) == cond
        for ci in members:
            shape = ingen.shape(ci.kind)
            if shape == ingen.KIND_DELTA0:
                *ds, beta = ci.payload
                want = ingleton(*(d | beta for d in ds))
            elif shape == ingen.KIND_DELTA1:
                i, j, mu = ci.payload
                want = mutinfo(1 << (i - 1), 1 << (j - 1), mu)
            else:
                want = values[top] - values[top & ~(1 << (ci.payload[0] - 1))]
            assert evaluate(ci.expr, h) == want


def test_a_member_whose_expression_was_read_matches_a_fresh_one():
    # a member holds its three fields alone and builds expr on each read, so
    # reading it changes neither equality, hash, repr nor the pickled bytes
    read, fresh = ingen.gen_delta(4)[0], ingen.gen_delta(4)[0]
    assert read.expr == ingen.member_expr(4, read.kind, read.payload)
    assert ingen.CanonicalInequality.__slots__ == ("n", "kind", "payload")
    assert read == fresh and hash(read) == hash(fresh) and repr(read) == repr(fresh)
    assert pickle.dumps(read) == pickle.dumps(fresh)


def test_parsed_and_generated_members_compare_and_hash_alike():
    members = ingen.gen_delta(5)
    n, back = ingen.inequalities_from_text(ingen.inequalities_to_text(5, members))
    assert n == 5 and back == members
    assert [hash(ci) for ci in back] == [hash(ci) for ci in members]
    assert set(back) == set(members)
    # equal members carry equal expressions, whichever way each was made
    assert [ci.expr for ci in back] == [ci.expr for ci in members]
    assert ingen.gen_delta1(5)[0] != ingen.gen_elemental(5)[5]


def test_members_pickle_before_and_after_the_expression_is_read():
    # forked scan workers send members across processes
    for ci in ingen.gen_delta(4)[::7]:
        before = pickle.loads(pickle.dumps(ci))  # ci.expr not read yet
        assert before == ci and before.expr == ci.expr
        after = pickle.loads(pickle.dumps(ci))
        assert after == ci and after.expr == ci.expr
