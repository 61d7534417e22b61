"""Family generation, counting formulas, quad classification, file format."""

import hashlib
import io
import itertools
import math

import pytest

from ingletonlp import entspace, ingen
from ingletonlp.entspace import (
    IngletonQuad,
    LinExpr,
    evaluate,
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
        assert sum(1 for _ in ingen._delta0_payloads(n)) == ingen.count_delta0(n)


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
