"""Enumeration of the canonical inequality families and quad classification.

Three families are generated: the disjoint-support ten-term forms (Delta0),
the pairwise mutual-information forms (Delta1), and the single-element
conditional-entropy forms (Delta2).  Union of the three is the minimal
generating set; Delta1 and Delta2 together coincide with the elemental
basic inequalities.

Each family is one lazy enumerator that yields its members in canonical
order (`family`) as runs: the members sharing all of their payload but
its last entry (a Delta0 beta, a Delta1 mu), so a writer holds one run
at a time; the `gen_*` functions list the same members.
Payloads are built here from masks inside {1..n} and are not checked
again; the inequality-file parser checks every mask it reads and the
shape of every payload (nonempty disjoint d's, a beta outside them; two
distinct elements, a mu avoiding both; one element).

A member is exactly its (n, kind, payload), and its `expr` is
`member_expr(n, kind, payload)`, built from the unit terms of
`member_terms` on each read.  Those terms come from
`entspace.ingleton_masks` and `entspace.mutinfo_terms`, the one spelling
of each form.  This module is the one that knows a payload's layout:
other modules use a member's (kind, payload) as an opaque key, and get
from here a key's image under a relabeling (`member_image`) and the
elemental keys whose forms sum to h(alpha) (`entropy_decomposition`).
File lines are rendered from those terms without building
any expression, a run at a time, by the one writer `_write_runs`: a Family
hands it each block's runs straight from the enumerator, and a member list
its runs regrouped.  Every subset text is read from the one memo
`entspace.SUBSET_TEXT`, and a Delta0 line reads its texts from the two
lists of `entspace.text_tables(n)`, indexed by mask and by term.
"""

from __future__ import annotations

import math
from itertools import groupby, islice
from typing import Iterator, Sequence

from .entspace import (
    IngletonQuad,
    LinExpr,
    Record,
    SUBSET_TEXT,
    _term_text,
    check_mask,
    check_n,
    elements_of,
    full_mask,
    ingleton_expr,
    ingleton_masks,
    ingleton_terms,
    mutinfo_terms,
    parse_expr,
    parse_subset,
    split_subsets,
    text_tables,
)

KIND_DELTA0 = "Delta0"
KIND_DELTA1 = "Delta1"
KIND_DELTA2 = "Delta2"
KIND_ELEMENTAL_H = "ElementalH"
KIND_ELEMENTAL_I = "ElementalI"

# the cones a bound runs over; here so that the command parser needs no bound
CONE_GAMMA = "gamma"
CONE_GAMMA_IN = "gamma-in"

# the elemental tags stand for the Delta2 and Delta1 shapes
_SHAPES = {KIND_ELEMENTAL_H: KIND_DELTA2, KIND_ELEMENTAL_I: KIND_DELTA1}


def shape(kind: str) -> str:
    """The family whose payload and expression a kind tag stands for."""
    return _SHAPES.get(kind, kind)

DEFAULT_BUDGET = 10 ** 8


class BudgetExceededError(RuntimeError):
    """Predicted enumeration size exceeds the configured budget."""


def check_budget(predicted: int, budget: int | None, what: str) -> None:
    if budget is not None and predicted > budget:
        raise BudgetExceededError(f"predicted {predicted} {what} exceeds budget {budget}")


def payload_text(kind: str, payload: tuple) -> str:
    kind, text = shape(kind), SUBSET_TEXT
    if kind == KIND_DELTA0:
        d1, d2, d3, d4, beta = payload
        return f"{text[d1]},{text[d2]};{text[d3]},{text[d4]}|{text[beta]}"
    if kind == KIND_DELTA1:
        i, j, mu = payload
        return f"{text[1 << (i - 1)]},{text[1 << (j - 1)]}|{text[mu]}"
    # Delta2 carries a single element
    return text[1 << (payload[0] - 1)]


def member_terms(n: int, kind: str, payload: tuple) -> list[tuple[int, int]]:
    """The (mask, +-1) terms, in mask order, of the >= 0 form a member stands for.

    The d's of a Delta0 payload are nonempty and disjoint, so its ten
    masks are distinct; so are the masks of the other shapes, and no
    term cancels.  The payload must have that shape and its masks must
    lie in {1..n}: the enumerators and the file parser see to it, and
    nothing is checked here.
    """
    kind = shape(kind)
    if kind == KIND_DELTA0:
        # J(a1,a2,a3,a4) with a_k = d_k | beta: or-ing a beta disjoint from
        # the d's keeps J(d1,d2,d3,d4)'s terms in mask order
        *ds, beta = payload
        return [(x | beta, s) for x, s in sorted(ingleton_terms(*ds))]
    if kind == KIND_DELTA1:
        # I(i; j | mu), whose h(mu) term vanishes when mu is empty
        i, j, mu = payload
        terms = sorted(mutinfo_terms(1 << (i - 1), 1 << (j - 1), mu))
        return terms if mu else terms[1:]
    # h(i | N - i) = h(N) - h(N - i), already in mask order
    top = full_mask(n)
    return [(top & ~(1 << (payload[0] - 1)), -1), (top, 1)]


def member_expr(n: int, kind: str, payload: tuple) -> LinExpr:
    """The >= 0 form a member of the given kind and payload stands for.

    The payload's masks must lie in {1..n}; they are not checked here.
    """
    return LinExpr._raw(n, dict(member_terms(n, kind, payload)))


class CanonicalInequality(Record):
    """One >= 0 generator: its ground-set size, family tag and identifying payload.

    These three fields are all it holds; `expr` builds
    `member_expr(n, kind, payload)` afresh on each read, so a caller that
    reads it more than once keeps the expression itself.
    """

    __slots__ = ("n", "kind", "payload")

    @property
    def expr(self) -> LinExpr:
        return member_expr(self.n, self.kind, self.payload)

    def payload_text(self) -> str:
        return payload_text(self.kind, self.payload)


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


def _delta0_runs(n: int) -> Iterator[tuple[tuple[int, int, int, int], tuple[int, ...]]]:
    # Nested loops over increasing submasks yield the payloads in
    # lexicographic order.  Keeping every element of d2 above the lowest
    # element of d1 (and d4 above that of d3) leaves one payload per orbit
    # of the two within-pair swaps; the d's are nonempty and disjoint, and
    # beta is any subset of what they leave.
    subs: dict[int, tuple[int, ...]] = {}

    def submasks(mask: int) -> tuple[int, ...]:
        # 0, then the nonempty submasks, memoized by mask: the d loops skip the 0
        if (s := subs.get(mask)) is None:
            s = subs[mask] = (0, *_nonempty_submasks(mask))
        return s

    top = full_mask(n)
    for d1 in range(1, top + 1):
        rest1 = top & ~d1
        for d2 in submasks(rest1 & -((d1 & -d1) << 1))[1:]:
            rest2 = rest1 & ~d2
            for d3 in submasks(rest2)[1:]:
                rest3 = rest2 & ~d3
                for d4 in submasks(rest3 & -((d3 & -d3) << 1))[1:]:
                    yield (d1, d2, d3, d4), submasks(rest3 & ~d4)


def _delta1_runs(n: int) -> Iterator[tuple[tuple[int, int], tuple[int, ...]]]:
    # i < j, then mu over the subsets avoiding both, in increasing order
    top = full_mask(n)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            yield (i, j), (0, *_nonempty_submasks(top & ~(1 << (i - 1) | 1 << (j - 1))))


def _delta2_runs(n: int) -> Iterator[tuple[tuple, tuple[int, ...]]]:
    yield (), tuple(range(1, n + 1))


# family -> (closed-form size, blocks of (kind tag, run enumerator)), the
# blocks in canonical order; the elemental set is Delta2 then Delta1 under
# its own tags.  A run enumerator yields (head, tails): the members with
# payload head + (tail,), tail over tails, in canonical order.
FAMILIES = {
    "delta": (count_delta,
              ((KIND_DELTA0, _delta0_runs), (KIND_DELTA1, _delta1_runs),
               (KIND_DELTA2, _delta2_runs))),
    "delta0": (count_delta0, ((KIND_DELTA0, _delta0_runs),)),
    "delta1": (lambda n: count_elemental(n) - n, ((KIND_DELTA1, _delta1_runs),)),
    "delta2": (lambda n: n, ((KIND_DELTA2, _delta2_runs),)),
    "elemental": (count_elemental,
                  ((KIND_ELEMENTAL_H, _delta2_runs), (KIND_ELEMENTAL_I, _delta1_runs))),
}


class Family:
    """One family's members at one n, in canonical order.

    Its length is the closed form; each iteration enumerates the members
    afresh and lazily, so nothing is held between one run and the next.
    """

    __slots__ = ("n", "_size", "_blocks")

    def __init__(self, n: int, size: int, blocks) -> None:
        self.n, self._size, self._blocks = n, size, blocks

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[CanonicalInequality]:
        return (CanonicalInequality(self.n, kind, (*head, tail)) for kind, runs in self._blocks
                for head, tails in runs(self.n) for tail in tails)


def family(name: str, n: int, budget: int | None = DEFAULT_BUDGET) -> Family:
    """The members of the family named in FAMILIES, enumerated lazily.

    The budget is checked against the closed-form size before anything
    is generated.
    """
    check_n(n)
    size, blocks = FAMILIES[name]
    predicted = size(n)
    check_budget(predicted, budget, "members")
    return Family(n, predicted, blocks)


# gen_delta0/1/2 stay public although no command calls them: the perfbench
# tracer rebinds all three by name (`SITES` in perfbench/spans.py).
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
    # a[i - 1], a[i - 2], a[i - 3] are the other three, indices taken mod 4
    d1, d2, d3, d4 = (a[i] & ~(a[i - 1] | a[i - 2] | a[i - 3]) for i in range(4))
    return (d1, d2, d3, d4, (a[0] | a[1] | a[2] | a[3]) & ~(d1 | d2 | d3 | d4))


def delta0_payload(d1: int, d2: int, d3: int, d4: int, beta: int) -> tuple[int, int, int, int, int]:
    """Canonical order: within each pair the mask with the smaller minimum first."""
    if (d1 & -d1) > (d2 & -d2):
        d1, d2 = d2, d1
    if (d3 & -d3) > (d4 & -d4):
        d3, d4 = d4, d3
    return (d1, d2, d3, d4, beta)


def member_image(key: tuple, tab) -> tuple:
    """The (kind, payload) key of member key's image under the relabeling tab,
    a list carrying each mask to its image."""
    kind, payload = key
    if kind == KIND_DELTA0:
        return kind, delta0_payload(*[tab[m] for m in payload])
    if shape(kind) == KIND_DELTA1:
        i, j, mu = payload
        a, b = sorted((tab[1 << (i - 1)].bit_length(), tab[1 << (j - 1)].bit_length()))
        return kind, (a, b, tab[mu])
    return kind, (tab[1 << (payload[0] - 1)].bit_length(),)


def entropy_decomposition(n: int, alpha: int) -> list[tuple]:
    """h(alpha) as a coefficient-1 sum of elemental forms, as (shape, payload) keys."""
    keys: list[tuple] = []
    elems = elements_of(alpha)
    for pos, a in enumerate(elems):
        beta = 0
        for b in elems[pos + 1:]:
            beta |= 1 << (b - 1)
        cur = beta
        for j in range(1, n + 1):
            bj = 1 << (j - 1)
            if j == a or cur & bj:
                continue
            lo, hi = (a, j) if a < j else (j, a)
            keys.append((KIND_DELTA1, (lo, hi, cur)))
            cur |= bj
        keys.append((KIND_DELTA2, (a,)))
    return keys


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


class QuadClass(Record):
    """Exactly one of Trivial | BasicImplied | InDelta1 | InDelta2 | ReducesTo(payload)."""

    __slots__ = ("kind", "payload")
    _defaults = (None,)

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


# lines gathered per write, and members per inequalities_to_text call when a list is streamed
_BLOCK = 1024


def _header(n: int, count: int) -> str:
    return f"n={n} count={count}\n"


def _write_runs(write, n: int, kind: str, runs) -> int:
    """Render the members (kind, head + (tail,)), tail over tails, of each run
    (head, tails) in turn, and hand write the lines each time _BLOCK or more
    have gathered and at the end; returns the number of lines.

    The kind is read once: a Delta0 run sorts its ten term indexes once
    for all of its betas, and its lines read text_tables(n)."""
    written, lines = 0, []
    if shape(kind) == KIND_DELTA0:
        sn, tn = text_tables(n)
        for (d1, d2, d3, d4), tails in runs:
            prefix = f"{kind}\t{sn[d1]},{sn[d2]};{sn[d3]},{sn[d4]}|"
            # sorted tn indexes mask << 1 | (sign < 0): J of the doubled d's has J's masks << 1
            p0, p1, p2, p3, p4, m0, m1, m2, m3, m4 = ingleton_masks(
                d1 << 1, d2 << 1, d3 << 1, d4 << 1)
            k0, k1, k2, k3, k4, k5, k6, k7, k8, k9 = sorted(
                (p0, p1, p2, p3, p4, m0 | 1, m1 | 1, m2 | 1, m3 | 1, m4 | 1))
            # the ten terms spelled out: a comprehension per line costs a call
            for beta in tails:
                b = beta << 1  # the index of (x | beta, s) is that of (x, s) plus b
                lines.append(f"{prefix}{sn[beta]}\t{tn[k0 + b]} {tn[k1 + b]} {tn[k2 + b]}"
                             f" {tn[k3 + b]} {tn[k4 + b]} {tn[k5 + b]} {tn[k6 + b]}"
                             f" {tn[k7 + b]} {tn[k8 + b]} {tn[k9 + b]}\n")
            if len(lines) >= _BLOCK:
                write("".join(lines))
                written, lines = written + len(lines), []
    else:
        for head, tails in runs:
            for p in [(*head, tail) for tail in tails]:
                terms = [_term_text(c, SUBSET_TEXT[m]) for m, c in member_terms(n, kind, p)]
                lines.append(f"{kind}\t{payload_text(kind, p)}\t{' '.join(terms)}\n")
            if len(lines) >= _BLOCK:
                write("".join(lines))
                written, lines = written + len(lines), []
    write("".join(lines))
    return written + len(lines)


def write_inequality_stream(f, n: int, members) -> None:
    """Write the inequality file of `members` (sized and iterable) to the text stream f.

    The header names len(members).  A Family's blocks go to _write_runs
    run by run from its enumerators, building no member; other members go
    through inequalities_to_text (the writer perfbench times) _BLOCK at a
    time.  A RuntimeError follows the last line if the members were not
    len(members) many."""
    count = len(members)
    f.write(_header(n, count))
    written = 0
    if isinstance(members, Family):
        for kind, runs in members._blocks:
            written += _write_runs(f.write, n, kind, runs(n))
    else:
        it = iter(members)
        while block := list(islice(it, _BLOCK)):
            f.write(inequalities_to_text(n, block, header=False))
            written += len(block)
    if written != count:
        raise RuntimeError(f"header says count={count}, wrote {written} members")


def write_inequalities(path, n: int, ineqs: Sequence[CanonicalInequality]) -> None:
    with open(path, "w", encoding="ascii") as f:
        write_inequality_stream(f, n, ineqs)


def inequalities_to_text(n: int, ineqs: Sequence[CanonicalInequality], header: bool = True) -> str:
    """The inequality file of ineqs, rendered run by run (consecutive members that
    differ only in their payload's last entry); header=False leaves the lines alone."""
    parts = [_header(n, len(ineqs))] if header else []
    for (kind, head), run in groupby(ineqs, lambda ci: (ci.kind, ci.payload[:-1])):
        _write_runs(parts.append, n, kind, [(head, [ci.payload[-1] for ci in run])])
    return "".join(parts)


def _subset_in(text: str, n: int) -> int:
    mask = parse_subset(text)
    check_mask(mask, n)
    return mask


def _element_in(kind: str, text: str, n: int) -> int:
    mask = _subset_in(text, n)
    if not _is_singleton(mask):
        raise ValueError(f"{kind} payload subset {text!r} is not a single element")
    return mask.bit_length()


def _parse_payload(kind: str, text: str, n: int) -> tuple:
    # the one place a payload arrives from outside: every mask is checked
    # here, and so is the shape member_terms relies on
    form = shape(kind)
    if form == KIND_DELTA0:
        if text.count("|") != 1 or text.partition("|")[0].count(";") != 1:
            raise ValueError(f"{kind} payload {text!r} is not of the form d1,d2;d3,d4|beta")
        pairs, beta_s = text.split("|")
        left, right = pairs.split(";")
        d1_s, d2_s = split_subsets(left, 2)
        d3_s, d4_s = split_subsets(right, 2)
        payload = tuple(_subset_in(t, n) for t in (d1_s, d2_s, d3_s, d4_s, beta_s))
        union, overlap = 0, 0
        for m in payload:
            overlap |= m & union
            union |= m
        if overlap or 0 in payload[:4]:
            raise ValueError(f"{kind} payload {text!r} needs nonempty disjoint d's "
                             "and a beta outside them")
        return payload
    if form == KIND_DELTA1:
        if text.count("|") != 1:
            raise ValueError(f"{kind} payload {text!r} is not of the form i,j|mu")
        head, mu_s = text.split("|")
        i_s, j_s = split_subsets(head, 2)
        i, j, mu = _element_in(kind, i_s, n), _element_in(kind, j_s, n), _subset_in(mu_s, n)
        if i == j or mu & (1 << (i - 1) | 1 << (j - 1)):
            raise ValueError(f"{kind} payload {text!r} needs two distinct elements "
                             "and a mu avoiding both")
        return (i, j, mu)
    if form == KIND_DELTA2:
        return (_element_in(kind, text, n),)
    raise ValueError(f"unknown inequality kind {kind!r}")


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
        fields = ln.split("\t")
        if len(fields) != 3:
            raise ValueError(f"expected kind, payload and expression, tab-separated: {ln!r}")
        kind, payload_text, expr_text = fields
        payload = _parse_payload(kind, payload_text, n)
        if parse_expr(expr_text, n) != member_expr(n, kind, payload):
            raise ValueError(f"expression does not match its payload: {ln!r}")
        out.append(CanonicalInequality(n, kind, payload))
    if len(out) != count:
        raise ValueError(f"header says count={count}, found {len(out)} lines")
    return n, out
