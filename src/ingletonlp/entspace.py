"""Exact linear expressions over joint-entropy coordinates.

The coordinate space for a ground set {1..n} has one axis per nonempty
subset.  Subsets are int bitmasks (bit k-1 = element k), coefficients and
point values are exact rationals (int or fractions.Fraction), and the empty
set always evaluates to zero and is never stored.  A point is int numerators
over one positive denominator (`int_form`, which also builds the exact
simplex rows), so evaluating is one int dot product divided once.  `Lanes`
is the one packed-lane format, for `MemberTable` and the simplex.  `Record`
is the base of every record class, so the package never imports `dataclasses`.

`ingleton_masks` and `mutinfo_terms` are the only spelling of the ten-term
form J and of I(a; b | d), here and in `ingen`; `_combine` is the only
loop that sums (mask, coeff) pairs into a coefficient map.  Every `{..}`
text the package writes comes from one memo for the process, `SUBSET_TEXT`,
and every `+c*h{..}` term is spelled by `_term_text`.
"""

from __future__ import annotations

import copy
import functools
import math
import re
import sys
from array import array
from collections import defaultdict
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

from ._version import __version__

MIN_N = 2
MAX_N = 20

Rational = int | Fraction


def int_form(values: Sequence[Rational]) -> tuple[list[int], int]:
    """Rationals as int numerators over their lcm denominator: lowest terms if each is reduced."""
    if set(map(type, values)) <= {int}:
        return list(values), 1
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


class Lanes:
    """The packed-lane format: a row of `cells` ints r_k, |r_k| < 2^(w-1), as one int.

    A row packs as the plain int sum r_k 2^(w k), so an int combination of
    packed rows packs the same combination of their entries, while those fit.
    Only this module adds `bias`, 2^(w-1) in every lane: it lifts each lane to
    r_k + 2^(w-1), which reads off without borrows, its top bit set iff r_k >= 0.
    """

    _CODES = {array(code).itemsize * 8: code for code in "bhiq"}  # lane width -> typecode

    def __init__(self, w: int, cells: int):
        self.w, self.cells = w, cells
        self.bias = (1 << (w - 1)) * ((1 << (w * cells)) - 1) // ((1 << w) - 1)

    @staticmethod
    def fit(b: int) -> int:
        """The least of 8, 16, 32, ... above b: the width whose lanes hold any entry of b bits."""
        return max(8, 1 << b.bit_length())

    def zeros(self) -> array | dict:
        """A row of zero lanes to set lane by lane and `encode`; above 64 bits, a dict."""
        code = self._CODES.get(self.w)
        return array(code, bytes(self.w // 8 * self.cells)) if code else {}

    def encode(self, entries: list[int] | array | dict) -> list[int]:
        """Each run of `cells` entries as one packed row; entries is flat or a row of `zeros`."""
        nb = self.w // 8
        if self.w in self._CODES:
            a = array(self._CODES[self.w], entries)
            if sys.byteorder == "big":  # lanes are packed little-endian
                a.byteswap()
            raw = a.tobytes()
        elif isinstance(entries, dict):  # a wide `zeros` row: only its lanes set
            raw = bytearray(nb * self.cells)
            for k, v in entries.items():
                raw[k * nb:(k + 1) * nb] = v.to_bytes(nb, "little", signed=True)
        else:
            raw = b"".join(v.to_bytes(nb, "little", signed=True) for v in entries)
        raw, nb, bias = memoryview(raw), nb * self.cells, self.bias
        # flipping each lane's top bit turns two's complement r into r + 2^(w-1); less the bias
        return [(int.from_bytes(raw[k:k + nb], "little") ^ bias) - bias
                for k in range(0, len(raw), nb)]

    def decode(self, *xs: int) -> list[int]:
        """The entries of packed rows, one row after another."""
        w, nb, bias = self.w, self.w // 8, self.bias  # (x + bias) ^ bias: lanes in two's complement
        raw = b"".join([((x + bias) ^ bias).to_bytes(nb * self.cells, "little") for x in xs])
        if w > 128:  # lanes this wide decode faster whole than word by word
            return [int.from_bytes(raw[k:k + nb], "little", signed=True)
                    for k in range(0, len(raw), nb)]
        a = array(self._CODES[min(w, 64)], raw)
        if sys.byteorder == "big":
            a.byteswap()
        if w == 128:  # a signed top word over an unsigned low word
            return [hi << 64 | lo for hi, lo in zip(a[1::2], array("Q", a.tobytes())[::2])]
        return a.tolist()


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
    """Bit mask of the elements, each checked against n (MAX_N if None) before shifting."""
    mask = 0
    for e in elements:
        if not isinstance(e, int) or not 1 <= e <= (MAX_N if n is None else n):
            raise GroundSetError(f"element {e!r} outside ground set")
        mask |= 1 << (e - 1)
    return mask


def elements_of(mask: int) -> tuple[int, ...]:
    return tuple(e for e in range(1, mask.bit_length() + 1) if mask >> (e - 1) & 1)


def format_subset(mask: int) -> str:
    return "{" + ",".join(str(e) for e in elements_of(mask)) + "}"


def _term_text(c: Rational, subset_text: str) -> str:
    return f"{'+' if c > 0 else '-'}{abs(c)}*h{subset_text}"


class _SubsetText(dict):
    """format_subset text by mask, formatted at its first use and kept for the process."""

    def __missing__(self, mask: int) -> str:
        text = self[mask] = format_subset(mask)
        return text


SUBSET_TEXT = _SubsetText()  # the one memo every writer and report reads


@functools.lru_cache(maxsize=1)
def text_tables(n: int) -> tuple[list[str], list[str]]:
    """(sn, tn): sn[mask] the text of each of the 2^n subsets, tn[mask << 1 | (sign < 0)]
    that of each unit term, as _term_text spells it; rebuilt only when n changes."""
    sn = [SUBSET_TEXT[m] for m in range(1 << n)]
    return sn, [_term_text(-1 if k & 1 else 1, sn[k >> 1]) for k in range(2 << n)]


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


def _combine(pairs: Iterable[tuple[int, Rational]], acc: dict | None = None) -> dict:
    """acc (a new dict if None) plus each (mask, coeff) of pairs: mask 0 is skipped,
    as h(empty) is zero, and a sum reaching zero is popped, so its key re-enters last."""
    if acc is None:
        acc = {}
    for mask, c in pairs:
        if mask in acc:
            s = acc[mask] + c
            if s:
                acc[mask] = s
            else:
                del acc[mask]
        elif mask and c:
            acc[mask] = c
    return acc


def accumulate(terms: Iterable[tuple[Rational, LinExpr]]) -> dict[int, Rational]:
    """Coefficient map of the sum of coeff*expr over (coeff, expr) terms."""
    return _combine([(mask, coeff * c) for coeff, expr in terms for mask, c in expr.coeffs.items()])


class LinExpr:
    """Sparse exact-rational functional over nonempty subset coordinates."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[int, Rational] | None = None):
        check_n(n)
        clean: dict[int, Rational] = {}
        if coeffs:
            for mask, c in coeffs.items():
                if mask == 0:
                    continue
                check_mask(mask, n)
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
        return LinExpr._raw(self.n, _combine(other.coeffs.items(), dict(self.coeffs)))

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


def format_expr(e: LinExpr) -> str:
    """Signed terms `+c*h{..}` in mask order."""
    if e.is_zero():
        return "0"
    return " ".join(_term_text(c if isinstance(c, int) else Fraction(c), SUBSET_TEXT[mask])
                    for mask, c in e.terms())


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
    pairs: list[tuple[int, Rational]] = []
    pos = 0
    for m in _TERM_RE.finditer(s):
        if s[pos:m.start()].strip():
            raise ValueError(f"bad expression syntax near {s[pos:m.start()]!r}")
        sign, num, body = m.groups()
        c = parse_rational(num)
        pairs.append((parse_subset("{" + body + "}"), -c if sign == "-" else c))
        pos = m.end()
    if s[pos:].strip() or pos == 0:
        raise ValueError(f"bad expression syntax: {text!r}")
    return LinExpr(n, _combine(pairs))


class EntropyVector:
    """Point of the coordinate space: h(mask) = nums[mask - 1] / den, den > 0, in lowest terms."""

    __slots__ = ("n", "nums", "den")

    def __init__(self, n: int, values: Sequence[Rational]):
        check_n(n)
        vals = list(values)
        if len(vals) != full_mask(n):
            raise GroundSetError(f"need {full_mask(n)} values for n={n}, got {len(vals)}")
        bad = next((v for v in vals if not isinstance(v, (int, Fraction))), None)
        if bad is not None:
            raise TypeError(f"point values must be int or Fraction, got {bad!r}")
        nums, self.den = int_form(vals)
        self.n, self.nums = n, tuple(nums)

    @classmethod
    def over(cls, n: int, nums: Sequence[int], den: int) -> "EntropyVector":
        """The point nums/den for int nums and den > 0, stored in lowest terms."""
        h = cls(n, nums)
        g = math.gcd(den, *h.nums)
        h.nums, h.den = tuple(a // g for a in h.nums), den // g
        return h

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

    def __getitem__(self, mask: int) -> Rational:
        if mask == 0:
            return 0
        check_mask(mask, self.n)
        return self._value(self.nums[mask - 1])

    def _value(self, a: int) -> Rational:
        return a if self.den == 1 else Fraction(a, self.den)

    def items(self) -> Iterator[tuple[int, Rational]]:
        for mask, a in enumerate(self.nums, start=1):
            yield mask, self._value(a)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EntropyVector):
            return NotImplemented
        return (self.n, self.den, self.nums) == (other.n, other.den, other.nums)

    def __hash__(self) -> int:
        return hash((self.n, self.den, self.nums))

    def __repr__(self) -> str:
        return f"<EntropyVector n={self.n} {format_vector_pairs(self)}>"


def report_text(command: str, n: int, params: Mapping[str, object],
                body: Iterable[str]) -> str:
    """A plain-text report: the versioned two-line header, then the body lines."""
    head = f"# {command} n={n}" + "".join(f" {k}={v}" for k, v in params.items())
    return "\n".join([f"# ingletonlp {__version__}", head, *body]) + "\n"


def format_vector_pairs(h: EntropyVector) -> str:
    """`{..}=v` per nonzero coordinate, v in lowest terms as Fraction prints it."""
    return " ".join(f"{SUBSET_TEXT[m]}={a // (g := math.gcd(a, h.den))}"
                    + (f"/{h.den // g}" if g < h.den else "")
                    for m, a in enumerate(h.nums, start=1) if a)


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
        mask = parse_subset(m.group(1))
        if mask in acc:
            raise ValueError(f"repeated subset {m.group(1)}")
        acc[mask] = parse_rational(m.group(2))
        pos = m.end()
    if body[pos:].strip():
        raise ValueError(f"bad vector syntax near {body[pos:]!r}")
    return EntropyVector.from_dict(n, acc)


class Record:
    """Fields: the names in `__slots__`, after a base record's; `_defaults` holds the
    trailing ones' defaults, as in namedtuple.  `__init__` takes fields by position or
    keyword, then runs `__post_init__`.  Every field takes part in `==`, `hash`, `repr`
    and pickling.  A record is frozen and hashable unless its class sets `_mutable`."""

    __slots__ = ()
    _fields, _defaults, _mutable = (), (), False

    def __init_subclass__(cls):
        cls._fields = cls._fields + cls.__dict__.get("__slots__", ())
        cls._key = attrgetter(*cls._fields)  # built once, in C
        if cls._mutable:
            cls.__setattr__, cls.__delattr__ = object.__setattr__, object.__delattr__
            cls.__hash__ = None

    def __init__(self, *args, **kwargs):
        names, tail = self._fields, self._defaults
        if not kwargs and 0 <= len(names) - len(args) <= len(tail):  # defaults fill the tail
            args += tail[len(tail) + len(args) - len(names):]
        else:
            given = dict(zip(names[-len(tail):], tail), **dict(zip(names, args)), **kwargs)
            if args[len(names):] or given.keys() != set(names):
                raise TypeError(f"{type(self).__name__} takes each of {names} once")
            args = [given[f] for f in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks a record class runs once its fields are set."""

    def __eq__(self, other) -> bool:
        return self._key(self) == self._key(other) if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        shown = (f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")
    __delattr__ = __setattr__

    def __reduce__(self):  # pickle and copy rebuild the record from its fields
        return type(self), tuple(getattr(self, f) for f in self._fields)


class IngletonQuad(Record):
    """Four subset arguments of the ten-term inequality form: ints n, a1, a2, a3, a4."""

    __slots__ = ("n", "a1", "a2", "a3", "a4")

    def __post_init__(self):
        check_n(self.n)
        for m in (self.a1, self.a2, self.a3, self.a4):
            check_mask(m, self.n)

    def masks(self) -> tuple[int, int, int, int]:
        return (self.a1, self.a2, self.a3, self.a4)


def format_quad(q: IngletonQuad) -> str:
    return ",".join(SUBSET_TEXT[m] for m in q.masks())


_SUBSET_RE = re.compile(r"\{[0-9,\s]*\}")


def split_subsets(text: str, count: int) -> list[str]:
    """The count `{..}` subset texts of text, with only `,()` and whitespace around them."""
    parts = _SUBSET_RE.findall(text)
    if len(parts) != count or not re.fullmatch(r"[,()\s]*", _SUBSET_RE.sub("", text)):
        raise ValueError(f"expected {count} subsets, got {text!r}")
    return parts


def parse_quad(text: str, n: int) -> IngletonQuad:
    return IngletonQuad(n, *(parse_subset(p) for p in split_subsets(text, 4)))


def mutinfo_terms(alpha: int, beta: int, delta: int) -> tuple[tuple[int, int], ...]:
    """The (mask, +-1) terms h(a d) + h(b d) - h(d) - h(a b d) of I(a; b | d)."""
    return ((alpha | delta, 1), (beta | delta, 1), (delta, -1), (alpha | beta | delta, -1))


def ingleton_masks(a1: int, a2: int, a3: int, a4: int) -> tuple[int, ...]:
    """The masks of J = I(a1;a2|a3) + I(a1;a2|a4) + I(a3;a4) - I(a1;a2), five + then five -."""
    return (a1 | a2, a1 | a3, a1 | a4, a2 | a3, a2 | a4,
            a1, a2, a3 | a4, a1 | a2 | a3, a1 | a2 | a4)


def ingleton_terms(a1: int, a2: int, a3: int, a4: int) -> Iterator[tuple[int, int]]:
    """The ten (mask, +-1) terms of J, in the order of ingleton_masks, read once."""
    return zip(ingleton_masks(a1, a2, a3, a4), (1, 1, 1, 1, 1, -1, -1, -1, -1, -1))


def cond_entropy_expr(n: int, alpha: int, beta: int) -> LinExpr:
    """h(alpha | beta) = h(alpha+beta) - h(beta) as a coefficient map."""
    check_n(n)
    check_mask(alpha, n)
    check_mask(beta, n)
    return LinExpr._raw(n, _combine(((alpha | beta, 1), (beta, -1))))


def cond_mutinfo_expr(n: int, alpha: int, beta: int, delta: int) -> LinExpr:
    """I(alpha; beta | delta) as a coefficient map."""
    check_n(n)
    for m in (alpha, beta, delta):
        check_mask(m, n)
    return LinExpr._raw(n, _combine(mutinfo_terms(alpha, beta, delta)))


def ingleton_expr(q: IngletonQuad) -> LinExpr:
    """Ten-term inequality form for the quad; coefficients merge and may cancel."""
    return LinExpr._raw(q.n, _combine(ingleton_terms(q.a1, q.a2, q.a3, q.a4)))


def evaluate(e: LinExpr, h: EntropyVector) -> Rational:
    if e.n != h.n:
        raise GroundSetError("expression and point use different ground sets")
    nums = h.nums
    return h._value(sum(c * nums[m - 1] for m, c in e.coeffs.items()))


class MemberTable:
    """Every member's exact value at a point, in one packed-integer pass.

    Per mask m, C_m, a packed `Lanes` row, holds member k's coefficient,
    over the common denominator `den`, in lane k; then lane k of sum_m C_m h.nums[m - 1]
    is member k's value at h times den * h.den.  No lane overflows: `width`
    bounds each value by max|h.nums| times the largest coefficient L1 norm.
    """

    def __init__(self, exprs: Iterable[LinExpr]):
        exprs = list(exprs)
        self.n = exprs[0].n if exprs else None
        if any(e.n != self.n for e in exprs):
            raise GroundSetError("members disagree on the ground set")
        self._maps, self.den = [e.coeffs for e in exprs], 1
        if not all(type(c) is int for cs in self._maps for c in cs.values()):
            flat, self.den = int_form([c for cs in self._maps for c in cs.values()])
            it = iter(flat)
            self._maps = [{m: next(it) for m in cs} for cs in self._maps]
        self._l1 = max((sum(map(abs, cs.values())) for cs in self._maps), default=0)
        self._out, self._packs = (), {}  # members left out; width -> (lanes, columns)
        self._lanes(self.width())  # the lanes the coefficients need, packed up front

    def without(self, k: int) -> "MemberTable":
        """This table with its member k left out, sharing the packed columns."""
        sub = copy.copy(self)
        for o in self._out:  # ascending: k counts only the members left in
            k += o <= k
        sub._out = tuple(sorted((*self._out, k)))
        return sub

    def width(self, h: EntropyVector | None = None) -> int:
        """The lane width for max|h.nums| (1 with no h) times the largest L1 norm."""
        top = self._l1 * (1 if h is None else max(max(h.nums), -min(h.nums), 1))
        return Lanes.fit(top.bit_length())

    def _pass(self, h: EntropyVector) -> tuple[Lanes, int]:
        """(lanes, the pass packed in them): lane k holds member k's value at h, scaled."""
        if self._maps and h.n != self.n:
            raise GroundSetError("members and point use different ground sets")
        lanes, cols = self._lanes(self.width(h))
        return lanes, sum(c * h.nums[i] for i, c in cols)

    def _lanes(self, w: int) -> tuple[Lanes, list[tuple[int, int]]]:
        """(lanes, [(m - 1, C_m)]) in w-bit lanes, packed at the first call."""
        if w not in self._packs:
            lanes = Lanes(w, len(self._maps))
            rows = defaultdict(lanes.zeros)
            for k, cs in enumerate(self._maps):
                for m, c in cs.items():
                    rows[m][k] = c
            self._packs[w] = lanes, [(m - 1, lanes.encode(row)[0]) for m, row in rows.items()]
        return self._packs[w]

    def scaled(self, h: EntropyVector) -> list[int]:
        """Each member's value at h times den * h.den, in member order."""
        lanes, v = self._pass(h)
        return [x for k, x in enumerate(lanes.decode(v)) if k not in self._out]

    def nonnegative(self, h: EntropyVector) -> bool:
        """Whether every member is >= 0 at h: one test of the biased lanes' top bits."""
        lanes, v = self._pass(h)
        keep = lanes.bias - sum(1 << (lanes.w * (k + 1) - 1) for k in self._out)
        return (v + lanes.bias) & keep == keep


def witness_fulldim(n: int) -> EntropyVector:
    """Strictly submodular point 2^n - 2^(n-|alpha|); integer valued."""
    check_n(n)
    scale = 1 << n
    return EntropyVector(n, [scale - (scale >> mask.bit_count()) for mask in range(1, scale)])


def witness_modular(n: int) -> EntropyVector:
    """Cardinality point |alpha|; every ten-term form evaluates to zero."""
    check_n(n)
    return EntropyVector(n, [mask.bit_count() for mask in range(1, (1 << n))])
