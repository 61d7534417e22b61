"""Exact rational two-phase simplex for small dense linear programs.

Solves min c.x subject to A x = b, x >= 0 entirely in rational arithmetic.
Every terminal status ships checkable data:

  optimal    x, objective, and duals y with y.A_j <= c_j for every column
             and y.b == objective
  infeasible Farkas vector y with y.A_j <= 0 for every column and y.b > 0
  unbounded  a feasible x plus a ray r >= 0 with A r = 0 and c.r < 0

The kernel is fraction-free and packed.  Each tableau row, the objective
row included, is integer numerators over one positive denominator, held
as one Python int with a w-bit lane per entry, plus an upper bound on the
bit length of its entries.  Clearing a column from a row is X.p - f.P on
two ints, with no gcd.  A row is decoded and divided by its gcd only when
the next elimination could overflow a lane, and the pivot row once per
pivot, which makes its pivot entry positive.  When a reduced row still
does not fit, every row is repacked at twice the width.

So every row is its gcd-reduced form times a positive factor and stands
for the same rational row.  Each pivot decision reads only signs, the
order of entries within one row, and cross-multiplied entries of two rows
with positive denominators.  No positive factor changes any of these, so
each pivot is the one plain rational arithmetic would choose.  Inputs may
mix ints and Fractions; outputs are Fractions.

`exact_columns` builds every exact matrix the package hands the solver.
This is also the package's only float module.  `linprog` is its one way
into the float solver (HiGHS through scipy) and `float_rows` builds the
scipy sparse matrices the presolves hand it (`drop_row` slices one row
out); each imports scipy at its first call.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd

from .entspace import int_form

_WIDTH = 64  # lane width a tableau starts at; tests patch it smaller
_CODES = {array(code).itemsize * 8: code for code in "bhiq"}  # lane width -> typecode
_SWAP = sys.byteorder == "big"  # packed bytes are little-endian


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list | None = None
    objective: Fraction | None = None
    y: list | None = None  # duals (optimal) or Farkas vector (infeasible)
    ray: list | None = None
    # opaque restart data (surviving rows, basis columns); feed back as
    # `warm` when re-solving the same rows with extra columns appended
    warm: tuple | None = None


def linprog(c, **kwargs):
    """Float LP through scipy.optimize.linprog, imported at the first call.

    Only the HiGHS presolves of `certify` and `bound` call it, so a command
    that runs no presolve never loads scipy or numpy.
    """
    from scipy.optimize import linprog as scipy_linprog
    return scipy_linprog(c, **kwargs)


def float_rows(exprs, index: dict[int, int], sign: int = 1):
    """Float CSR matrix with one row per LinExpr: mask m's coefficient,
    times sign, in column index[m].  Imports scipy at the first call."""
    from scipy.sparse import csr_matrix
    data, cols, ptr = [], [], [0]
    for e in exprs:
        for m, c in e.coeffs.items():
            cols.append(index[m])
            data.append(sign * float(c))
        ptr.append(len(cols))
    return csr_matrix((data, cols, ptr), shape=(len(ptr) - 1, len(index)))


def drop_row(rows, k: int):
    """The float CSR matrix `rows` without row k; every other entry keeps its place."""
    import numpy as np
    return rows[np.delete(np.arange(rows.shape[0]), k)]


def exact_columns(exprs, index: dict[int, int], sign: int = 1) -> list[list]:
    """Dense exact matrix with one column per LinExpr: mask m's coefficient,
    times sign, in row index[m]; index maps onto range(len(index))."""
    rows = [[0] * len(exprs) for _ in index]
    for j, e in enumerate(exprs):
        for m, c in e.coeffs.items():
            rows[index[m]][j] = sign * c
    return rows


def _bits(vals: list[int]) -> int:
    """Bit length of the largest magnitude in vals."""
    return max(max(vals), -min(vals)).bit_length()


class _Tableau:
    """Equal-length integer rows, each packed into one int over a denominator.

    Row i holds numerators r_k over D[i] > 0, none longer than bits[i] bits,
    as X[i] = bias + sum r_k 2^(w k).  `bias` puts half = 2^(w-1) in every
    w-bit lane, so lane k holds r_k + half in [0, 2^w) and reads off with a
    mask and a shift, without borrows.
    """

    def __init__(self, rows: list[list[int]], dens: list[int]):
        self.cells = len(rows[0])
        flat = list(chain.from_iterable(rows))
        self.X, self.D, self.bits = [], list(dens), [_bits(flat)] * len(rows)
        self.w = _WIDTH
        self.widen(self.bits[0], flat)

    def widen(self, b: int, flat: list[int] | None = None) -> None:
        """Repack every row, or the given entries, in lanes wider than b bits."""
        if flat is None:
            flat = list(chain.from_iterable(map(self.row, range(len(self.X)))))
        while self.w <= b:
            self.w *= 2
        self.half = 1 << (self.w - 1)
        self.bias = self.half * ((1 << (self.w * self.cells)) - 1) // (2 * self.half - 1)
        self.X[:] = self.pack(flat)

    def pack(self, flat: list[int]) -> list[int]:
        """Each run of `cells` entries as one biased int."""
        nb = self.w // 8
        if self.w in _CODES:
            a = array(_CODES[self.w], flat)
            if _SWAP:
                a.byteswap()
            raw = memoryview(a.tobytes())
        else:
            raw = memoryview(b"".join(v.to_bytes(nb, "little", signed=True) for v in flat))
        nb *= self.cells
        # flipping each lane's top bit turns two's complement r into r + half
        return [int.from_bytes(raw[k:k + nb], "little") ^ self.bias
                for k in range(0, len(raw), nb)]

    def row(self, i: int) -> list[int]:
        nb = self.w // 8
        raw = (self.X[i] ^ self.bias).to_bytes(nb * self.cells, "little")
        if self.w not in _CODES:
            return [int.from_bytes(raw[k:k + nb], "little", signed=True)
                    for k in range(0, len(raw), nb)]
        a = array(_CODES[self.w], raw)
        if _SWAP:
            a.byteswap()
        return a.tolist()

    def column(self, k: int) -> list[int]:
        """Entry k of every row."""
        s, half = self.w * k, self.half
        top = (1 << (s + self.w)) - 1  # masking first keeps the shift small
        return [((x & top) >> s) - half for x in self.X]

    def lane(self, i: int, k: int) -> int:
        s = self.w * k
        return ((self.X[i] & ((1 << (s + self.w)) - 1)) >> s) - self.half

    def first(self, i: int) -> int:
        """Index of row i's first nonzero entry, or -1 for a zero row."""
        x = self.X[i] - self.bias
        # the lowest set bit of the unbiased row lies in that entry's lane
        return ((x & -x).bit_length() - 1) // self.w if x else -1

    def append(self, row: list[int], den: int) -> None:
        b = _bits(row)
        if b >= self.w:
            self.widen(b)
        self.X += self.pack(row)
        self.D.append(den)
        self.bits.append(b)

    def drop(self, which) -> None:
        """Delete a row (an index) or rows (a slice)."""
        for rows in (self.X, self.D, self.bits):
            del rows[which]

    def swap(self, i: int, j: int) -> None:
        for rows in (self.X, self.D, self.bits):
            rows[i], rows[j] = rows[j], rows[i]

    def reduce(self, i: int, col: int = -1) -> int:
        """Divide row i by gcd(D[i], *row); returns the divisor.

        With col >= 0 the row becomes row/row[col] instead: its numerators
        over their gcd, signed to leave a positive denominator.
        """
        vals = self.row(i)
        den = vals[col] if col >= 0 else self.D[i]
        g = -gcd(*vals) if den < 0 else gcd(den, *vals)
        if g != 1:
            # g divides every entry, so it divides the unbiased int lane by lane
            self.X[i] = (self.X[i] - self.bias) // g + self.bias
        self.D[i] = den // g
        self.bits[i] = (max(max(vals), -min(vals)) // abs(g)).bit_length()
        return g

    def pivot(self, pi: int, col: int, fs: list[int]) -> None:
        """Scale row pi to a unit at col and clear col from every other row.

        fs is column col of every row, as `column(col)` reads it.
        """
        self.reduce(pi, col)
        self.clear(pi, [(i, f) for i, f in enumerate(fs) if f and i != pi])

    def clear(self, pi: int, targets) -> None:
        """For each (i, f), row i minus f/p times row pi, where p = D[pi].

        Row pi holds p where row i holds f.  For numerators R and P, row i
        becomes (R.p - f.P) / (D[i].p): row pi's own denominator cancels.
        On the biased ints that is X[i].p - f.X[pi] + bias.(f - p + 1).
        """
        X, D, bits = self.X, self.D, self.bits
        for i, f in targets:
            # if the result could overflow a lane: reduce row i, then row pi, then widen
            for fix in range(3):
                b = max(bits[i] + D[pi].bit_length(), f.bit_length() + bits[pi]) + 1
                if b < self.w:
                    break
                if fix == 0:
                    f //= self.reduce(i)
                elif fix == 1:
                    self.reduce(pi)
                else:
                    self.widen(b)
            p = D[pi]
            X[i] = X[i] * p - f * X[pi] + self.bias * (f - p + 1)
            D[i] *= p
            bits[i] = b


def _warm_tableau(rows: list[list[int]], dens: list[int], warm: tuple, nc: int):
    """Tableau reduced to a remembered basis, or None when it no longer fits."""
    live_in, bcols = warm
    if len(live_in) != len(bcols) or any(j >= nc for j in bcols):
        return None
    live = list(live_in)
    basis = list(bcols)
    # rows dropped as dependent ride along: appended columns can make one
    # independent again, and then the old basis no longer fits
    kept = set(live)
    order = live + [i for i in range(len(rows)) if i not in kept]
    tab = _Tableau([rows[i] for i in order], [dens[i] for i in order])
    mm = len(live)
    for pos in range(mm):
        col = basis[pos]
        fs = tab.column(col)
        r = next((k for k in range(pos, mm) if fs[k] != 0), -1)
        if r < 0:
            return None
        tab.pivot(r, col, fs)
        tab.swap(pos, r)
        live[pos], live[r] = live[r], live[pos]
    if any(v < 0 for v in tab.column(nc)[:mm]):
        return None
    if any(tab.first(i) >= 0 for i in range(mm, len(order))):
        return None
    tab.drop(slice(mm, None))
    return tab, basis, live


def _solve_transposed(cols: list[list[int]], rhs: list) -> list[Fraction]:
    """Solve M^T w = rhs for integer columns cols of an invertible M."""
    mm = len(rhs)
    if mm == 0:
        return []
    pairs = [int_form(cols[k] + [rhs[k]]) for k in range(mm)]
    tab = _Tableau([r for r, _ in pairs], [d for _, d in pairs])
    for col in range(mm):
        fs = tab.column(col)
        piv = next((r for r in range(col, mm) if fs[r] != 0), -1)
        if piv < 0:
            raise RuntimeError(f"singular basis: column {col} has no pivot in the dual solve")
        tab.pivot(piv, col, fs)
        tab.swap(col, piv)
    return [Fraction(v, d) for v, d in zip(tab.column(mm), tab.D)]


def solve_standard(A: list[list], b: list, c: list, warm: tuple | None = None) -> LPResult:
    m = len(A)
    nc = len(c)

    if m == 0:
        for j in range(nc):
            if c[j] < 0:
                ray = [Fraction(0)] * nc
                ray[j] = Fraction(1)
                return LPResult("unbounded", x=[Fraction(0)] * nc, ray=ray)
        return LPResult("optimal", x=[Fraction(0)] * nc, objective=Fraction(0), y=[])

    # row i of A x = b as ints over dens[i], rhs last, oriented to rhs >= 0
    sign = [1] * m
    rows = []
    dens = []
    for i in range(m):
        r, d = int_form(list(A[i]) + [b[i]])
        if r[nc] < 0:
            r = [-v for v in r]
            sign[i] = -1
        rows.append(r)
        dens.append(d)

    art_of_row = {}
    n_art = 0
    built = None if warm is None else _warm_tableau(rows, dens, warm, nc)
    if built is not None:
        tab, basis, live_rows = built
    else:
        # crash basis from unit columns; a -1 unit on a zero-rhs row counts
        # too, after flipping that row
        basis = [-1] * m
        for j in range(nc):
            nonzero = [i for i in range(m) if rows[i][j]]
            if len(nonzero) != 1 or basis[nonzero[0]] >= 0:
                continue
            i = nonzero[0]
            if rows[i][j] == dens[i]:
                basis[i] = j
            elif rows[i][j] == -dens[i] and rows[i][nc] == 0:
                rows[i] = [-v for v in rows[i]]
                sign[i] = -sign[i]
                basis[i] = j

        for i in range(m):
            if basis[i] < 0:
                basis[i] = nc + n_art
                art_of_row[i] = nc + n_art
                n_art += 1

        # tableau rows carry the rhs in the last slot
        T = [rows[i][:nc] + [0] * n_art + rows[i][nc:] for i in range(m)]
        for i, j in art_of_row.items():
            T[i][j] = dens[i]
        tab = _Tableau(T, dens)
        live_rows = list(range(m))  # indices into rows/sign surviving deletion

    ncols = nc + n_art

    def duals(cvec: list) -> list[Fraction]:
        """y with y.B = c_B for the current basis B of the oriented rows.

        Row i of the oriented system is rows[i]/dens[i], so solving against
        the integer columns gives w = y/dens, and y_i = dens_i w_i.
        """
        cols = [[rows[i][j] if j < nc else (dens[i] if art_of_row.get(i) == j else 0)
                 for i in live_rows] for j in basis]
        w = _solve_transposed(cols, [cvec[j] for j in basis])
        y_full = [Fraction(0)] * m
        for pos, i in enumerate(live_rows):
            y_full[i] = w[pos] * dens[i] * sign[i]
        return y_full

    def zrow(cvec: list) -> int:
        """Append the objective row reduced against the basis, rhs last.

        It sits below the basis rows, so every pivot clears it too; returns its index.
        """
        Z, dz = int_form(cvec + [0])
        z = len(basis)
        tab.append(Z, dz)
        for pos, j in enumerate(basis):
            if Z[j]:
                tab.clear(pos, [(z, tab.lane(z, j))])
        return z

    def run_phase(z: int) -> int | None:
        """Pivot to optimality; returns an entering column on unboundedness.

        Leaving rows follow the lexicographic ratio rule, comparing rhs
        first and then a fixed column order that starts with the phase's
        initial basis.  The basis columns form an identity at phase
        start, so every row begins lexicographically positive and no
        basis can repeat, which rules out cycling on degenerate pivots.
        Artificial columns never re-enter.
        """
        in_basis = [False] * ncols
        for j in basis:
            in_basis[j] = True
        order = list(basis) + [j for j in range(ncols) if not in_basis[j]]

        def lex_less(i: int, j: int) -> bool:
            # rows i and j have positive denominators, so the sign of each
            # cross-multiplied numerator decides
            vi, vj = fs[i], fs[j]
            d = tab.lane(i, ncols) * vj - tab.lane(j, ncols) * vi
            if d != 0:
                return d < 0
            ti, tj = tab.row(i), tab.row(j)
            for k in order:
                d = ti[k] * vj - tj[k] * vi
                if d != 0:
                    return d < 0
            return False

        while True:
            # Dantzig pricing, lowest index on ties
            priced = tab.row(z)[:nc]
            best = min(priced, default=0)
            if best >= 0:
                return None
            enter = priced.index(best)
            fs = tab.column(enter)
            leave = -1
            for i in range(z):
                if fs[i] > 0 and (leave < 0 or lex_less(i, leave)):
                    leave = i
            if leave < 0:
                return enter
            tab.pivot(leave, enter, fs)
            basis[leave] = enter

    if n_art:
        pcost = [0] * nc + [1] * n_art
        z = zrow(pcost)
        # the auxiliary objective is bounded below by zero
        if run_phase(z) is not None:
            raise RuntimeError("phase 1 reported an unbounded auxiliary objective")
        if tab.lane(z, ncols) < 0:
            return LPResult("infeasible", y=duals(pcost))
        tab.drop(z)
        # drive artificials out of the basis, deleting dependent rows
        pos = 0
        while pos < len(basis):
            if basis[pos] >= nc:
                pj = tab.first(pos)
                if 0 <= pj < nc:
                    tab.pivot(pos, pj, tab.column(pj))
                    basis[pos] = pj
                else:
                    tab.drop(pos)
                    del live_rows[pos], basis[pos]
                    continue
            pos += 1

    ext_cost = list(c) + [0] * n_art
    nr = zrow(ext_cost)
    hit = run_phase(nr)

    x = [Fraction(0)] * nc
    for i, v in enumerate(tab.column(ncols)[:nr]):
        x[basis[i]] = Fraction(v, tab.D[i])
    if hit is not None:
        ray = [Fraction(0)] * nc
        ray[hit] = Fraction(1)
        for i, v in enumerate(tab.column(hit)[:nr]):
            if v != 0:
                ray[basis[i]] = Fraction(-v, tab.D[i])
        return LPResult("unbounded", x=x, ray=ray)

    objective = sum((x[j] * c[j] for j in range(nc) if x[j]), Fraction(0))
    return LPResult("optimal", x=x, objective=objective, y=duals(ext_cost),
                    warm=(list(live_rows), list(basis)))
