"""Enumeration of the canonical inequality families and quad classification.

Three families are generated: the disjoint-support ten-term forms (Delta0),
the pairwise mutual-information forms (Delta1), and the single-element
conditional-entropy forms (Delta2).  Union of the three is the minimal
generating set; Delta1 and Delta2 together coincide with the elemental
basic inequalities.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Sequence

from .entspace import (
    IngletonQuad,
    LinExpr,
    SubsetNames,
    check_n,
    cond_entropy_expr,
    cond_mutinfo_expr,
    format_expr,
    full_mask,
    ingleton_expr,
    parse_expr,
    parse_subset,
)

KIND_DELTA0 = "Delta0"
KIND_DELTA1 = "Delta1"
KIND_DELTA2 = "Delta2"
KIND_ELEMENTAL_H = "ElementalH"
KIND_ELEMENTAL_I = "ElementalI"

# the elemental set is Delta2 then Delta1, written under its own tags
ELEMENTAL_TAGS = {KIND_DELTA2: KIND_ELEMENTAL_H, KIND_DELTA1: KIND_ELEMENTAL_I}
_SHAPES = {tag: kind for kind, tag in ELEMENTAL_TAGS.items()}


def shape(kind: str) -> str:
    """The family whose payload and expression a kind tag stands for."""
    return _SHAPES.get(kind, kind)

DEFAULT_BUDGET = 10 ** 8


class BudgetExceededError(RuntimeError):
    """Predicted enumeration size exceeds the configured budget."""


def _check_budget(predicted: int, budget: int | None) -> None:
    if budget is not None and predicted > budget:
        raise BudgetExceededError(f"predicted {predicted} members exceeds budget {budget}")


def payload_text(kind: str, payload: tuple, names: SubsetNames | None = None) -> str:
    if names is None:
        names = SubsetNames()
    kind = shape(kind)
    if kind == KIND_DELTA0:
        d1, d2, d3, d4, beta = payload
        return f"{names[d1]},{names[d2]};{names[d3]},{names[d4]}|{names[beta]}"
    if kind == KIND_DELTA1:
        i, j, mu = payload
        return f"{names[1 << (i - 1)]},{names[1 << (j - 1)]}|{names[mu]}"
    # Delta2 carries a single element
    return names[1 << (payload[0] - 1)]


def member_expr(n: int, kind: str, payload: tuple) -> LinExpr:
    """The >= 0 form a member of the given kind and payload stands for."""
    kind = shape(kind)
    if kind == KIND_DELTA0:
        d1, d2, d3, d4, beta = payload
        return ingleton_expr(IngletonQuad(n, d1 | beta, d2 | beta, d3 | beta, d4 | beta))
    if kind == KIND_DELTA1:
        i, j, mu = payload
        return cond_mutinfo_expr(n, 1 << (i - 1), 1 << (j - 1), mu)
    bi = 1 << (payload[0] - 1)
    return cond_entropy_expr(n, bi, full_mask(n) & ~bi)


@dataclass(frozen=True)
class CanonicalInequality:
    """One >= 0 generator with its family tag and identifying payload."""

    kind: str
    payload: tuple
    expr: LinExpr

    def payload_text(self) -> str:
        return payload_text(self.kind, self.payload)

    def line(self, names: SubsetNames | None = None) -> str:
        return (f"{self.kind}\t{payload_text(self.kind, self.payload, names)}"
                f"\t{format_expr(self.expr, names)}")


def count_delta0(n: int) -> int:
    if n < 2:
        raise ValueError("need n >= 2")
    quarter, rest = divmod(6 ** n + 6 * 4 ** n + 2 ** n, 4)
    if rest:
        raise RuntimeError(f"closed form for |Delta0| at n={n} is not an integer")
    return quarter - 5 ** n - 3 ** n


def count_elemental(n: int) -> int:
    """Size of the elemental set, which is also the size of Delta1 plus Delta2."""
    if n < 2:
        raise ValueError("need n >= 2")
    return n + math.comb(n, 2) * 2 ** (n - 2)


def count_delta(n: int) -> int:
    """Closed-form size of the full generating set; exact integer arithmetic."""
    return count_elemental(n) + count_delta0(n)


def _delta0_payloads(n: int) -> list[tuple[int, int, int, int, int]]:
    # Walk the 6-way element assignments (d1..d4, shared part, unused) in
    # increasing element order.  Forbidding d2 before d1 (and d4 before d3)
    # emits exactly one representative per unordered-pair orbit, and the
    # remaining-slots prune only removes assignments with an empty d.
    out: list[tuple[int, int, int, int, int]] = []
    masks = [0, 0, 0, 0, 0]

    def walk(k: int, need: int) -> None:
        if n - k < need:
            return
        if k == n:
            out.append((masks[0], masks[1], masks[2], masks[3], masks[4]))
            return
        bit = 1 << k
        for slot in range(4):
            prev = masks[slot]
            if prev == 0:
                if slot == 1 and masks[0] == 0:
                    continue
                if slot == 3 and masks[2] == 0:
                    continue
                masks[slot] = bit
                walk(k + 1, need - 1)
                masks[slot] = 0
            else:
                masks[slot] = prev | bit
                walk(k + 1, need)
                masks[slot] = prev
        prev = masks[4]
        masks[4] = prev | bit
        walk(k + 1, need)
        masks[4] = prev
        walk(k + 1, need)  # element unused

    walk(0, 4)
    return out


def gen_delta0(n: int, budget: int | None = DEFAULT_BUDGET) -> list[CanonicalInequality]:
    """Disjoint-support members J(d1,d2,d3,d4 | beta), deduplicated."""
    check_n(n)
    _check_budget(count_delta0(n), budget)
    return [CanonicalInequality(KIND_DELTA0, payload, member_expr(n, KIND_DELTA0, payload))
            for payload in sorted(_delta0_payloads(n))]


def gen_delta1(n: int, budget: int | None = DEFAULT_BUDGET) -> list[CanonicalInequality]:
    """Pairwise forms J(i, j, empty, mu) = I(i; j | mu), i < j, mu avoiding both."""
    check_n(n)
    _check_budget(count_elemental(n) - n, budget)
    out = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rest = full_mask(n) & ~(1 << (i - 1) | 1 << (j - 1))
            mu = 0
            while True:
                out.append(CanonicalInequality(
                    KIND_DELTA1, (i, j, mu), member_expr(n, KIND_DELTA1, (i, j, mu))))
                if mu == rest:
                    break
                mu = (mu - rest) & rest  # next subset of rest
    return out


def gen_delta2(n: int, budget: int | None = DEFAULT_BUDGET) -> list[CanonicalInequality]:
    """Single-element forms J(i, i, empty, N-i) = h(i | N-i)."""
    check_n(n)
    _check_budget(n, budget)
    return [CanonicalInequality(KIND_DELTA2, (i,), member_expr(n, KIND_DELTA2, (i,)))
            for i in range(1, n + 1)]


def gen_delta(n: int, budget: int | None = DEFAULT_BUDGET) -> list[CanonicalInequality]:
    """The full minimal generating set in canonical order."""
    check_n(n)
    _check_budget(count_delta(n), budget)
    return gen_delta0(n, budget=None) + gen_delta1(n, budget=None) + gen_delta2(n, budget=None)


def gen_elemental(n: int, budget: int | None = DEFAULT_BUDGET) -> list[CanonicalInequality]:
    """Elemental basic inequalities: h(i|N-i) block, then I(i;j|mu) block."""
    check_n(n)
    _check_budget(count_elemental(n), budget)
    return [CanonicalInequality(ELEMENTAL_TAGS[ci.kind], ci.payload, ci.expr)
            for ci in gen_delta2(n, budget=None) + gen_delta1(n, budget=None)]


def reduce_quad(q: IngletonQuad) -> tuple[int, int, int, int, int]:
    """Private parts d_i = a_i minus the other three, and the shared rest."""
    a = q.masks()
    ds = []
    for i in range(4):
        others = 0
        for j in range(4):
            if j != i:
                others |= a[j]
        ds.append(a[i] & ~others)
    beta = 0
    for i in range(4):
        beta |= a[i] & ~ds[i]
    return (ds[0], ds[1], ds[2], ds[3], beta)


def delta0_payload(d1: int, d2: int, d3: int, d4: int, beta: int) -> tuple[int, int, int, int, int]:
    """Canonical order: within each pair the mask with the smaller minimum first."""
    if (d1 & -d1) > (d2 & -d2):
        d1, d2 = d2, d1
    if (d3 & -d3) > (d4 & -d4):
        d3, d4 = d4, d3
    return (d1, d2, d3, d4, beta)


CLASS_TRIVIAL = "Trivial"
CLASS_BASIC_IMPLIED = "BasicImplied"
CLASS_IN_DELTA1 = "InDelta1"
CLASS_IN_DELTA2 = "InDelta2"
CLASS_REDUCES_TO = "ReducesTo"

_CLASS_TO_KIND = {
    CLASS_IN_DELTA1: KIND_DELTA1,
    CLASS_IN_DELTA2: KIND_DELTA2,
    CLASS_REDUCES_TO: KIND_DELTA0,
}


@dataclass(frozen=True)
class QuadClass:
    """Exactly one of Trivial | BasicImplied | InDelta1 | InDelta2 | ReducesTo(payload)."""

    kind: str
    payload: tuple | None = None

    def __str__(self) -> str:
        if self.payload is None:
            return self.kind
        return f"{self.kind} {payload_text(_CLASS_TO_KIND[self.kind], self.payload)}"


def _is_singleton(mask: int) -> bool:
    return mask != 0 and mask & (mask - 1) == 0


def classify_quad(q: IngletonQuad) -> QuadClass:
    n = q.n
    a1, a2, a3, a4 = q.masks()
    if ingleton_expr(q).is_zero():
        return QuadClass(CLASS_TRIVIAL)
    # the two value-preserving swaps generate four equivalent argument orders
    arrangements = {(a1, a2, a3, a4), (a2, a1, a3, a4), (a1, a2, a4, a3), (a2, a1, a4, a3)}
    for b1, b2, b3, b4 in arrangements:
        if b3 == 0 and _is_singleton(b1) and _is_singleton(b2) and b1 != b2 and not b4 & (b1 | b2):
            i, j = sorted((b1.bit_length(), b2.bit_length()))
            return QuadClass(CLASS_IN_DELTA1, (i, j, b4))
    for b1, b2, b3, b4 in arrangements:
        if b3 == 0 and b1 == b2 and _is_singleton(b1) and b4 == full_mask(n) & ~b1:
            return QuadClass(CLASS_IN_DELTA2, (b1.bit_length(),))
    reduced = reduce_quad(q)
    if 0 in reduced[:4]:  # an empty private part: covered by the other three
        return QuadClass(CLASS_BASIC_IMPLIED)
    return QuadClass(CLASS_REDUCES_TO, delta0_payload(*reduced))


def write_inequalities(path, n: int, ineqs: Sequence[CanonicalInequality]) -> None:
    with open(path, "w", encoding="ascii") as f:
        f.write(inequalities_to_text(n, ineqs))


def inequalities_to_text(n: int, ineqs: Sequence[CanonicalInequality]) -> str:
    names = SubsetNames()
    lines = [f"n={n} count={len(ineqs)}"]
    lines.extend(ci.line(names) for ci in ineqs)
    return "\n".join(lines) + "\n"


def _parse_payload(kind: str, text: str) -> tuple:
    kind = shape(kind)
    if kind == KIND_DELTA0:
        pairs, beta_s = text.split("|")
        left, right = pairs.split(";")
        d1_s, d2_s = _split_subsets(left, 2)
        d3_s, d4_s = _split_subsets(right, 2)
        return (parse_subset(d1_s), parse_subset(d2_s), parse_subset(d3_s),
                parse_subset(d4_s), parse_subset(beta_s))
    if kind == KIND_DELTA1:
        head, mu_s = text.split("|")
        i_s, j_s = _split_subsets(head, 2)
        i, j = parse_subset(i_s).bit_length(), parse_subset(j_s).bit_length()
        return (i, j, parse_subset(mu_s))
    if kind == KIND_DELTA2:
        return (parse_subset(text).bit_length(),)
    raise ValueError(f"unknown inequality kind {kind!r}")


def _split_subsets(text: str, count: int) -> list[str]:
    parts = re.findall(r"\{[0-9,\s]*\}", text)
    if len(parts) != count:
        raise ValueError(f"expected {count} subsets in {text!r}")
    return parts


def read_inequalities(path) -> tuple[int, list[CanonicalInequality]]:
    with open(path, "r", encoding="ascii") as f:
        return inequalities_from_text(f.read())


def inequalities_from_text(text: str) -> tuple[int, list[CanonicalInequality]]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty inequality list")
    head = lines[0].split()
    if len(head) != 2 or not head[0].startswith("n=") or not head[1].startswith("count="):
        raise ValueError(f"bad header {lines[0]!r}")
    n = int(head[0][2:])
    count = int(head[1][6:])
    out = []
    for ln in lines[1:]:
        kind, payload_text, expr_text = ln.split("\t")
        payload = _parse_payload(kind, payload_text)
        expr = parse_expr(expr_text, n)
        if expr != member_expr(n, kind, payload):
            raise ValueError(f"expression does not match its payload: {ln!r}")
        out.append(CanonicalInequality(kind, payload, expr))
    if len(out) != count:
        raise ValueError(f"header says count={count}, found {len(out)} lines")
    return n, out
