"""Enumeration of the canonical inequality families and quad classification.

Three families are generated: the disjoint-support ten-term forms (Delta0),
the pairwise mutual-information forms (Delta1), and the single-element
conditional-entropy forms (Delta2).  Union of the three is the minimal
generating set; Delta1 and Delta2 together coincide with the elemental
basic inequalities.

Each family is one lazy enumerator that yields its members in canonical
order (`family`), so a writer holds one block of members at a time and
its memory does not grow with n; the `gen_*` functions list the same
members.
Payloads are built here from masks inside {1..n} and are not checked
again; the inequality-file parser checks every mask it reads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

from .entspace import (
    IngletonQuad,
    LinExpr,
    SubsetNames,
    _cond_entropy_acc,
    _ingleton_acc,
    _mutinfo_acc,
    check_mask,
    check_n,
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

# the elemental tags stand for the Delta2 and Delta1 shapes
_SHAPES = {KIND_ELEMENTAL_H: KIND_DELTA2, KIND_ELEMENTAL_I: KIND_DELTA1}


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
    """The >= 0 form a member of the given kind and payload stands for.

    The payload's masks must lie in {1..n}; they are not checked here.
    """
    kind = shape(kind)
    if kind == KIND_DELTA0:
        d1, d2, d3, d4, beta = payload
        return LinExpr._raw(n, _ingleton_acc(d1 | beta, d2 | beta, d3 | beta, d4 | beta))
    if kind == KIND_DELTA1:
        i, j, mu = payload
        return LinExpr._raw(n, _mutinfo_acc(1 << (i - 1), 1 << (j - 1), mu))
    bi = 1 << (payload[0] - 1)
    return LinExpr._raw(n, _cond_entropy_acc(bi, full_mask(n) & ~bi))


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


def _nonempty_submasks(mask: int) -> Iterator[int]:
    """The nonempty submasks of mask in increasing order."""
    sub = 0
    while sub != mask:
        sub = (sub - mask) & mask
        yield sub


def _delta0_payloads(n: int) -> Iterator[tuple[int, int, int, int, int]]:
    # Nested loops over increasing submasks yield the payloads in
    # lexicographic order.  Keeping every element of d2 above the lowest
    # element of d1 (and d4 above that of d3) leaves one payload per orbit
    # of the two within-pair swaps; the d's are nonempty and disjoint, and
    # beta is any subset of what they leave.
    top = full_mask(n)
    for d1 in range(1, top + 1):
        rest1 = top & ~d1
        for d2 in _nonempty_submasks(rest1 & -((d1 & -d1) << 1)):
            rest2 = rest1 & ~d2
            for d3 in _nonempty_submasks(rest2):
                rest3 = rest2 & ~d3
                for d4 in _nonempty_submasks(rest3 & -((d3 & -d3) << 1)):
                    rest4 = rest3 & ~d4
                    yield d1, d2, d3, d4, 0
                    for beta in _nonempty_submasks(rest4):
                        yield d1, d2, d3, d4, beta


def _delta1_payloads(n: int) -> Iterator[tuple[int, int, int]]:
    # i < j, then mu over the subsets avoiding both, in increasing order
    top = full_mask(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rest = top & ~(1 << (i - 1) | 1 << (j - 1))
            yield i, j, 0
            for mu in _nonempty_submasks(rest):
                yield i, j, mu


def _delta2_payloads(n: int) -> Iterator[tuple[int]]:
    return ((i,) for i in range(1, n + 1))


# family -> (closed-form size, blocks of (kind tag, payload enumerator)),
# the blocks in canonical order; the elemental set is Delta2 then Delta1
# under its own tags
FAMILIES = {
    "delta": (count_delta,
              ((KIND_DELTA0, _delta0_payloads), (KIND_DELTA1, _delta1_payloads),
               (KIND_DELTA2, _delta2_payloads))),
    "delta0": (count_delta0, ((KIND_DELTA0, _delta0_payloads),)),
    "delta1": (lambda n: count_elemental(n) - n, ((KIND_DELTA1, _delta1_payloads),)),
    "delta2": (lambda n: n, ((KIND_DELTA2, _delta2_payloads),)),
    "elemental": (count_elemental,
                  ((KIND_ELEMENTAL_H, _delta2_payloads), (KIND_ELEMENTAL_I, _delta1_payloads))),
}


def _members(n: int, blocks) -> Iterator[CanonicalInequality]:
    for kind, payloads in blocks:
        for payload in payloads(n):
            yield CanonicalInequality(kind, payload, member_expr(n, kind, payload))


class Family:
    """One family's members at one n, in canonical order.

    Its length is the closed form; each iteration enumerates the members
    afresh and lazily, so nothing is held between one member and the next.
    """

    __slots__ = ("n", "_size", "_blocks")

    def __init__(self, n: int, size: int, blocks) -> None:
        self.n, self._size, self._blocks = n, size, blocks

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[CanonicalInequality]:
        return _members(self.n, self._blocks)


def family(name: str, n: int, budget: int | None = DEFAULT_BUDGET) -> Family:
    """The members of the family named in FAMILIES, enumerated lazily.

    The budget is checked against the closed-form size before anything
    is generated.
    """
    check_n(n)
    size, blocks = FAMILIES[name]
    predicted = size(n)
    _check_budget(predicted, budget)
    return Family(n, predicted, blocks)


def gen_delta0(n: int, budget: int | None = DEFAULT_BUDGET) -> list[CanonicalInequality]:
    """Disjoint-support members J(d1,d2,d3,d4 | beta), deduplicated."""
    return list(family("delta0", n, budget))


def gen_delta1(n: int, budget: int | None = DEFAULT_BUDGET) -> list[CanonicalInequality]:
    """Pairwise forms J(i, j, empty, mu) = I(i; j | mu), i < j, mu avoiding both."""
    return list(family("delta1", n, budget))


def gen_delta2(n: int, budget: int | None = DEFAULT_BUDGET) -> list[CanonicalInequality]:
    """Single-element forms J(i, i, empty, N-i) = h(i | N-i)."""
    return list(family("delta2", n, budget))


def gen_delta(n: int, budget: int | None = DEFAULT_BUDGET) -> list[CanonicalInequality]:
    """The full minimal generating set in canonical order."""
    return list(family("delta", n, budget))


def gen_elemental(n: int, budget: int | None = DEFAULT_BUDGET) -> list[CanonicalInequality]:
    """Elemental basic inequalities: h(i|N-i) block, then I(i;j|mu) block."""
    return list(family("elemental", n, budget))


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


# members rendered per inequalities_to_text call when a file is streamed
_BLOCK = 1024


def _header(n: int, count: int) -> str:
    return f"n={n} count={count}\n"


def write_inequality_stream(f, n: int, members) -> None:
    """Write the inequality file of `members` (sized and iterable) to the text stream f.

    The header names len(members).  The lines are rendered by
    inequalities_to_text (the writer perfbench times) _BLOCK members at a
    time, so one block and its text are all that is held.  After the last
    block a RuntimeError is
    raised if the members were not len(members) many.
    """
    count = len(members)
    f.write(_header(n, count))
    written = 0
    it = iter(members)
    while block := list(islice(it, _BLOCK)):
        f.write(inequalities_to_text(n, block, header=False))
        written += len(block)
    if written != count:
        raise RuntimeError(f"header says count={count}, wrote {written} members")


def write_inequalities(path, n: int, ineqs: Sequence[CanonicalInequality]) -> None:
    with open(path, "w", encoding="ascii") as f:
        write_inequality_stream(f, n, ineqs)


def inequalities_to_text(n: int, ineqs: Sequence[CanonicalInequality],
                         header: bool = True) -> str:
    """The inequality file of ineqs; with header=False, its member lines alone."""
    names = SubsetNames()
    lines = [_header(n, len(ineqs))] if header else []
    lines.extend(f"{ci.line(names)}\n" for ci in ineqs)
    return "".join(lines)


def _subset_in(text: str, n: int) -> int:
    mask = parse_subset(text)
    check_mask(mask, n)
    return mask


def _parse_payload(kind: str, text: str, n: int) -> tuple:
    # the one place a payload arrives from outside: every mask is checked here
    kind = shape(kind)
    if kind == KIND_DELTA0:
        pairs, beta_s = text.split("|")
        left, right = pairs.split(";")
        d1_s, d2_s = _split_subsets(left, 2)
        d3_s, d4_s = _split_subsets(right, 2)
        return tuple(_subset_in(t, n) for t in (d1_s, d2_s, d3_s, d4_s, beta_s))
    if kind == KIND_DELTA1:
        head, mu_s = text.split("|")
        i_s, j_s = _split_subsets(head, 2)
        i, j = _subset_in(i_s, n).bit_length(), _subset_in(j_s, n).bit_length()
        return (i, j, _subset_in(mu_s, n))
    if kind == KIND_DELTA2:
        return (_subset_in(text, n).bit_length(),)
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
    check_n(n)
    count = int(head[1][6:])
    out = []
    for ln in lines[1:]:
        kind, payload_text, expr_text = ln.split("\t")
        payload = _parse_payload(kind, payload_text, n)
        expr = parse_expr(expr_text, n)
        if expr != member_expr(n, kind, payload):
            raise ValueError(f"expression does not match its payload: {ln!r}")
        out.append(CanonicalInequality(kind, payload, expr))
    if len(out) != count:
        raise ValueError(f"header says count={count}, found {len(out)} lines")
    return n, out
