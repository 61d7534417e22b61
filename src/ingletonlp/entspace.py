"""Exact linear expressions over joint-entropy coordinates.

The coordinate space for a ground set {1..n} has one axis per nonempty
subset.  Subsets are int bitmasks (bit k-1 = element k), coefficients and
point values are exact rationals (int or fractions.Fraction), and the
empty set always evaluates to zero and is never stored.  A point also
keeps its values as int numerators over one common denominator, so
evaluating an expression is one int dot product divided once.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ._version import __version__

MIN_N = 2
MAX_N = 20

Rational = int | Fraction


class GroundSetError(ValueError):
    """Masks or operands disagree about the ground set."""


def check_n(n: int) -> None:
    if not isinstance(n, int) or not MIN_N <= n <= MAX_N:
        raise GroundSetError(f"ground-set size must be an int in [{MIN_N}, {MAX_N}], got {n!r}")


def full_mask(n: int) -> int:
    return (1 << n) - 1


def check_mask(mask: int, n: int) -> None:
    if not isinstance(mask, int) or mask < 0 or mask & ~full_mask(n):
        raise GroundSetError(f"mask {mask!r} is not a subset of {{1..{n}}}")


def mask_from_elements(elements: Iterable[int], n: int | None = None) -> int:
    mask = 0
    for e in elements:
        if not isinstance(e, int) or e < 1 or (n is not None and e > n):
            raise GroundSetError(f"element {e!r} outside ground set")
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def format_subset(mask: int) -> str:
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"


class SubsetNames(dict):
    """format_subset text by mask, filled in as masks are first met.

    A writer keeps one for the text it builds, so the memo holds no more
    masks than that text names.
    """

    __slots__ = ()

    def __missing__(self, mask: int) -> str:
        text = self[mask] = format_subset(mask)
        return text


def parse_subset(text: str) -> int:
    s = text.strip()
    if not (s.startswith("{") and s.endswith("}")):
        raise ValueError(f"bad subset syntax: {text!r}")
    body = s[1:-1].strip()
    if not body:
        return 0
    try:
        return mask_from_elements(int(tok) for tok in body.split(","))
    except (ValueError, GroundSetError) as exc:
        raise ValueError(f"bad subset syntax: {text!r}") from exc


def _bump(acc: dict, mask: int, coeff) -> None:
    # h(empty) is identically zero; such terms vanish silently
    if not mask:
        return
    s = acc.get(mask, 0) + coeff
    if s:
        acc[mask] = s
    else:
        acc.pop(mask, None)


def accumulate(terms: Iterable[tuple[Rational, LinExpr]]) -> dict[int, Rational]:
    """Coefficient map of the sum of coeff*expr over (coeff, expr) terms."""
    acc: dict[int, Rational] = {}
    for coeff, expr in terms:
        for mask, c in expr.coeffs.items():
            _bump(acc, mask, coeff * c)
    return acc


class LinExpr:
    """Sparse exact-rational functional over nonempty subset coordinates."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[int, Rational] | None = None):
        check_n(n)
        clean: dict[int, Rational] = {}
        if coeffs:
            top = full_mask(n)
            for mask, c in coeffs.items():
                if mask == 0:
                    continue
                if not isinstance(mask, int) or mask < 0 or mask & ~top:
                    raise GroundSetError(f"mask {mask!r} is not a subset of {{1..{n}}}")
                if c:
                    clean[mask] = c
        self.n = n
        self.coeffs = clean

    @classmethod
    def _raw(cls, n: int, coeffs: dict) -> "LinExpr":
        # trusted fast path: caller guarantees masks valid and no zeros
        e = object.__new__(cls)
        e.n = n
        e.coeffs = coeffs
        return e

    @classmethod
    def zero(cls, n: int) -> "LinExpr":
        return cls(n)

    @classmethod
    def single(cls, n: int, mask: int, coeff: Rational = 1) -> "LinExpr":
        return cls(n, {mask: coeff})

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self) -> list[tuple[int, Rational]]:
        return sorted(self.coeffs.items())

    def key(self) -> tuple:
        return (self.n, tuple(sorted(self.coeffs.items())))

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.key())

    def __add__(self, other) -> "LinExpr":
        if not isinstance(other, LinExpr):
            return NotImplemented
        if other.n != self.n:
            raise GroundSetError("ground-set mismatch between expressions")
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            _bump(out, m, c)
        return LinExpr._raw(self.n, out)

    def __sub__(self, other) -> "LinExpr":
        if not isinstance(other, LinExpr):
            return NotImplemented
        return self.__add__(-other)

    def __neg__(self) -> "LinExpr":
        return LinExpr._raw(self.n, {m: -c for m, c in self.coeffs.items()})

    def __mul__(self, scalar) -> "LinExpr":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return LinExpr._raw(self.n, {})
        return LinExpr._raw(self.n, {m: c * scalar for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"<LinExpr n={self.n} {format_expr(self)}>"


def format_expr(e: LinExpr, names: SubsetNames | None = None) -> str:
    """Signed terms `+c*h{..}` in mask order; `names` memoizes the subset text."""
    if e.is_zero():
        return "0"
    if names is None:
        names = SubsetNames()
    parts = []
    for mask, c in e.terms():
        if not isinstance(c, int):
            c = Fraction(c)
        parts.append(f"{'+' if c > 0 else '-'}{abs(c)}*h{names[mask]}")
    return " ".join(parts)


def parse_rational(text: str) -> Fraction:
    """A rational token; a zero denominator is a ValueError like any bad token."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


_TERM_RE = re.compile(r"([+-]?)(\d+(?:/\d+)?)\*h\{([0-9,\s]*)\}")


def parse_expr(text: str, n: int) -> LinExpr:
    s = text.strip()
    if s == "0":
        return LinExpr.zero(n)
    acc: dict[int, Rational] = {}
    pos = 0
    for m in _TERM_RE.finditer(s):
        if s[pos:m.start()].strip():
            raise ValueError(f"bad expression syntax near {s[pos:m.start()]!r}")
        sign, num, body = m.groups()
        c = parse_rational(num)
        if sign == "-":
            c = -c
        mask = parse_subset("{" + body + "}")
        _bump(acc, mask, c)
        pos = m.end()
    if s[pos:].strip() or pos == 0:
        raise ValueError(f"bad expression syntax: {text!r}")
    return LinExpr(n, acc)


class EntropyVector:
    """Point of the coordinate space: one exact rational per nonempty subset."""

    __slots__ = ("n", "_values", "_scaled")

    def __init__(self, n: int, values: Sequence[Rational]):
        check_n(n)
        vals = tuple(values)
        if len(vals) != full_mask(n):
            raise GroundSetError(f"need {full_mask(n)} values for n={n}, got {len(vals)}")
        bad = next((v for v in vals if not isinstance(v, (int, Fraction))), None)
        if bad is not None:
            raise TypeError(f"point values must be int or Fraction, got {bad!r}")
        self.n = n
        self._values = vals
        self._scaled = None

    @classmethod
    def over(cls, n: int, nums: Sequence[int], den: int) -> "EntropyVector":
        """The point nums/den, keeping nums and den > 0 as its scaled form."""
        h = cls(n, [Fraction(a, den) for a in nums])
        h._scaled = (nums, den)
        return h

    def scaled(self) -> tuple[Sequence[int], int]:
        """(numerators, den): the values as ints over one positive denominator."""
        if self._scaled is None:
            den = math.lcm(*(v.denominator for v in self._values))
            self._scaled = ([v.numerator * (den // v.denominator) for v in self._values], den)
        return self._scaled

    @classmethod
    def from_dict(cls, n: int, mapping: Mapping[int, Rational]) -> "EntropyVector":
        check_n(n)  # before allocating 2^n - 1 values
        vals = [0] * full_mask(n)
        for mask, v in mapping.items():
            if mask == 0:
                if v:
                    raise GroundSetError("the empty set carries no value")
                continue
            check_mask(mask, n)
            vals[mask - 1] = v
        return cls(n, vals)

    @classmethod
    def from_function(cls, n: int, fn: Callable[[int], Rational]) -> "EntropyVector":
        return cls(n, [fn(mask) for mask in range(1, full_mask(n) + 1)])

    def __getitem__(self, mask: int) -> Rational:
        if mask == 0:
            return 0
        check_mask(mask, self.n)
        return self._values[mask - 1]

    def items(self) -> Iterator[tuple[int, Rational]]:
        for mask, v in enumerate(self._values, start=1):
            yield mask, v

    def __eq__(self, other) -> bool:
        if not isinstance(other, EntropyVector):
            return NotImplemented
        return self.n == other.n and all(a == b for a, b in zip(self._values, other._values))

    def __hash__(self) -> int:
        return hash((self.n, tuple(Fraction(v) for v in self._values)))

    def __repr__(self) -> str:
        return f"<EntropyVector n={self.n} {format_vector_pairs(self)}>"


def report_text(command: str, n: int, params: Mapping[str, object],
                body: Iterable[str]) -> str:
    """A plain-text report: the versioned two-line header, then the body lines."""
    head = f"# {command} n={n}" + "".join(f" {k}={v}" for k, v in params.items())
    return "\n".join([f"# ingletonlp {__version__}", head, *body]) + "\n"


def format_vector_pairs(h: EntropyVector) -> str:
    parts = [f"{format_subset(mask)}={v}" for mask, v in h.items() if v]
    return " ".join(parts)


def vector_to_text(h: EntropyVector) -> str:
    return f"n={h.n}\n{format_vector_pairs(h)}\n"


_PAIR_RE = re.compile(r"(\{[0-9,\s]*\})=(-?\d+(?:/\d+)?)")


def vector_from_text(text: str) -> EntropyVector:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("vector text must start with an n=<int> line")
    n = int(lines[0][2:])
    body = " ".join(lines[1:])
    acc: dict[int, Rational] = {}
    pos = 0
    for m in _PAIR_RE.finditer(body):
        if body[pos:m.start()].strip():
            raise ValueError(f"bad vector syntax near {body[pos:m.start()]!r}")
        acc[parse_subset(m.group(1))] = parse_rational(m.group(2))
        pos = m.end()
    if body[pos:].strip():
        raise ValueError(f"bad vector syntax near {body[pos:]!r}")
    return EntropyVector.from_dict(n, acc)


@dataclass(frozen=True)
class IngletonQuad:
    """Four subset arguments of the ten-term inequality form."""

    n: int
    a1: int
    a2: int
    a3: int
    a4: int

    def __post_init__(self):
        check_n(self.n)
        for m in (self.a1, self.a2, self.a3, self.a4):
            check_mask(m, self.n)

    def masks(self) -> tuple[int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4)


def format_quad(q: IngletonQuad) -> str:
    return ",".join(format_subset(m) for m in q.masks())


def parse_quad(text: str, n: int) -> IngletonQuad:
    parts = re.findall(r"\{[0-9,\s]*\}", text)
    leftover = re.sub(r"\{[0-9,\s]*\}", "", text).replace(",", "").replace("(", "").replace(")", "").strip()
    if len(parts) != 4 or leftover:
        raise ValueError(f"expected four subsets, got {text!r}")
    masks = [parse_subset(p) for p in parts]
    return IngletonQuad(n, *masks)


def _cond_entropy_acc(alpha: int, beta: int) -> dict:
    acc: dict[int, Rational] = {}
    _bump(acc, alpha | beta, 1)
    _bump(acc, beta, -1)
    return acc


def cond_entropy_expr(n: int, alpha: int, beta: int) -> LinExpr:
    """h(alpha | beta) = h(alpha+beta) - h(beta) as a coefficient map."""
    check_n(n)
    check_mask(alpha, n)
    check_mask(beta, n)
    return LinExpr._raw(n, _cond_entropy_acc(alpha, beta))


def _mutinfo_acc(alpha: int, beta: int, delta: int) -> dict:
    acc: dict[int, Rational] = {}
    _bump(acc, alpha | delta, 1)
    _bump(acc, beta | delta, 1)
    _bump(acc, delta, -1)
    _bump(acc, alpha | beta | delta, -1)
    return acc


def cond_mutinfo_expr(n: int, alpha: int, beta: int, delta: int) -> LinExpr:
    """I(alpha; beta | delta) as a coefficient map."""
    check_n(n)
    for m in (alpha, beta, delta):
        check_mask(m, n)
    return LinExpr._raw(n, _mutinfo_acc(alpha, beta, delta))


def _ingleton_acc(a1: int, a2: int, a3: int, a4: int) -> dict:
    # ten formal terms; coefficients merge and may cancel entirely
    acc: dict[int, Rational] = {}
    for m in (a1 | a2, a1 | a3, a1 | a4, a2 | a3, a2 | a4):
        _bump(acc, m, 1)
    for m in (a1, a2, a3 | a4, a1 | a2 | a3, a1 | a2 | a4):
        _bump(acc, m, -1)
    return acc


def ingleton_expr(q: IngletonQuad) -> LinExpr:
    """Ten-term inequality form for the quad, with merged coefficients."""
    return LinExpr._raw(q.n, _ingleton_acc(q.a1, q.a2, q.a3, q.a4))


def project_onto(e: LinExpr, beta: int) -> LinExpr:
    """Replace every coordinate mask alpha by alpha & beta."""
    check_mask(beta, e.n)
    acc: dict[int, Rational] = {}
    for m, c in e.coeffs.items():
        _bump(acc, m & beta, c)
    return LinExpr._raw(e.n, acc)


def project_away(e: LinExpr, beta: int) -> LinExpr:
    """Replace every coordinate mask alpha by alpha minus beta."""
    check_mask(beta, e.n)
    acc: dict[int, Rational] = {}
    for m, c in e.coeffs.items():
        _bump(acc, m & ~beta, c)
    return LinExpr._raw(e.n, acc)


def evaluate(e: LinExpr, h: EntropyVector) -> Rational:
    if e.n != h.n:
        raise GroundSetError("expression and point use different ground sets")
    nums, den = h._scaled or h.scaled()
    s = sum(c * nums[m - 1] for m, c in e.coeffs.items())
    return s if den == 1 else Fraction(s, den)


def witness_fulldim(n: int) -> EntropyVector:
    """Strictly submodular point 2^n - 2^(n-|alpha|); integer valued."""
    check_n(n)
    scale = 1 << n
    return EntropyVector(n, [scale - (scale >> mask.bit_count()) for mask in range(1, scale)])


def witness_modular(n: int) -> EntropyVector:
    """Cardinality point |alpha|; every ten-term form evaluates to zero."""
    check_n(n)
    return EntropyVector(n, [mask.bit_count() for mask in range(1, (1 << n))])
