"""Exact rational two-phase simplex for small dense linear programs.

Solves min c.x subject to A x = b, x >= 0 entirely in rational arithmetic.
Every terminal status ships checkable data:

  optimal    x, objective, and duals y with y.A_j <= c_j for every column
             and y.b == objective
  infeasible Farkas vector y with y.A_j <= 0 for every column and y.b > 0
  unbounded  a feasible x plus a ray r >= 0 with A r = 0 and c.r < 0

The kernel is fraction-free and packed (Edmonds, J. Res. NBS 71B, 1967;
Bareiss, Math. Comp. 22, 1968).  For one shared d > 0, every row holds d
times its rational row as integers, one Python int with a w-bit lane per
entry; the objective row also carries its own int_form scale.  A pivot on
entry p of row r sets each other row i to (|p|.U_i - sgn(p).f_i.U_r) / d
and d to |p|, and Edmonds' identity makes that division exact in every
lane, so no gcd runs.  A cold start puts every row over the product of the
row denominators, as pivoting its starting basis in from d = 1 would.  One
positive d scales every row alike, so it changes no sign, no order within
a row and no sign of a cross-multiplied pair of entries: each pivot
decision, and so each pivot, is the one rational arithmetic would make.
Inputs may mix ints and Fractions; outputs are Fractions.

Each row starts with a unit basis column, its crash column or its
artificial, and the tableau keeps every such column.  So the final tableau
holds B^-1 in them: the duals are read off the objective row there, and a
re-solve with columns appended enters each as B^-1 a into the kept tableau
and runs phase 2 from the old basis.  That is the B^-1 A a rebuild of the
basis would give, row for row, so each pivot is the same.

`exact_columns` builds every exact matrix the package hands the solver.
This is also the package's only float module.  `linprog` is its one way
into the float solver, HiGHS's dual simplex, which it drives through the
compiled HiGHS module scipy ships, loaded at the first call without
importing numpy, scipy.optimize or scipy.sparse.  `float_columns` builds
the column lists the presolves hand it.
"""

from __future__ import annotations

import functools
import importlib.util
import os
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from itertools import accumulate, chain
from math import copysign, prod
from types import SimpleNamespace

from .entspace import int_form

_WIDTH = 8  # lane width a tableau starts at; `widen` doubles it as its entries need
_CODES = {array(code).itemsize * 8: code for code in "bhiq"}  # lane width -> typecode
_SWAP = sys.byteorder == "big"  # packed bytes are little-endian


@dataclass
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: list | None = None
    objective: Fraction | None = None
    y: list | None = None  # duals (optimal) or Farkas vector (infeasible)
    ray: list | None = None
    # restart data of an optimal solve that deleted no row, for `warm` when
    # re-solving the same A and b with columns appended; else ignored
    warm: _Restart | None = None
    pivots: tuple[int, int] = (0, 0)  # ratio-test pivots in phase 1 and in phase 2
    width: int = 0  # the tableau's final lane width; 0 when none was built


@functools.cache
def _highs():
    """scipy's compiled HiGHS module, and the options scipy.optimize.linprog sets.

    It is loaded from its file, so no scipy package code runs; a later
    `import scipy.optimize` finds it in sys.modules and reuses it."""
    name = "scipy.optimize._highspy._core"
    if name not in sys.modules:
        spec = importlib.util.find_spec("scipy")
        base = spec and os.path.join(spec.submodule_search_locations[0], "optimize", "_highspy")
        path = next((p for s in EXTENSION_SUFFIXES
                     if base and os.path.exists(p := os.path.join(base, "_core" + s))), None)
        if path is None:
            raise ImportError("the float presolves need scipy>=1.15 and its HiGHS core module")
        loader = ExtensionFileLoader(name, path)
        core = importlib.util.module_from_spec(importlib.util.spec_from_loader(name, loader))
        loader.exec_module(core)
        sys.modules[name] = core
    core = sys.modules[name]
    options = core.HighsOptions()
    options.presolve, options.output_flag, options.log_to_console = "on", False, False
    options.highs_debug_level = 0
    options.simplex_strategy = core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return core, options


@functools.lru_cache(maxsize=16)
def _zero_cost_lp(n):
    """A zero-cost HighsLp of n columns, sized by scalar calls, which load no numpy."""
    core, options = _highs()
    highs = core._Highs()
    highs.passOptions(options)  # without them HiGHS prints its banner
    for _ in range(n):
        highs.addVar(0.0, 0.0)
    return highs.getLp()


def linprog(c, A_ub=None, b_ub=(), A_eq=None, b_eq=(), bounds=(0, None)):
    """min c.x subject to A_ub x <= b_ub, A_eq x = b_eq, bounds[0] <= x <= bounds[1].

    This is the LP scipy.optimize.linprog(method="highs") hands HiGHS, with
    A_ub and A_eq as `float_columns` lists over len(c) columns, handed over as
    lists and scalars, so numpy never loads.  The status is scipy's: 0 optimal,
    2 infeasible, 3 unbounded, else 4.  Only an optimal solve has x, fun, and
    duals: the row duals of the <= rows.
    """
    core, options = _highs()
    inf, n, m = core.kHighsInf, len(c), len(b_ub)
    cols = A_ub or A_eq
    if A_ub is not None and A_eq is not None:  # each column lists A_eq's rows below A_ub's
        cols = [(r + [i + m for i in s], v + w) for (r, v), (s, w) in zip(A_ub, A_eq)]
    lp, (lo, hi) = _zero_cost_lp(n), bounds  # shared per column count: passModel copies it
    lp.num_row_ = lp.a_matrix_.num_row_ = m + len(b_eq)
    lp.col_lower_, lp.col_upper_ = [-inf if lo is None else lo] * n, [inf if hi is None else hi] * n
    lp.row_lower_, lp.row_upper_ = [-inf] * m + [*b_eq], [*b_ub, *b_eq]
    lp.a_matrix_.start_ = [0, *accumulate(len(r) for r, _v in cols)]
    lp.a_matrix_.index_ = [*chain.from_iterable(r for r, _v in cols)]
    lp.a_matrix_.value_ = [*chain.from_iterable(v for _r, v in cols)]
    highs = core._Highs()  # a fresh one, so no solver state outlives the call
    highs.passOptions(options)
    highs.passModel(lp)  # then each cost as a scalar, -0.0 too, as scipy hands it over
    for j in [j for j, cj in enumerate(c) if cj or copysign(1.0, cj) < 0]:
        highs.changeColCost(j, c[j])
    highs.run()
    ms = core.HighsModelStatus
    status = {ms.kOptimal: 0, ms.kInfeasible: 2, ms.kUnbounded: 3}.get(highs.getModelStatus(), 4)
    if status != 0:
        return SimpleNamespace(status=status, x=None, fun=None, duals=None)
    sol = highs.getSolution()
    return SimpleNamespace(status=0, x=sol.col_value, duals=sol.row_dual[:m],
                           fun=highs.getInfo().objective_function_value)


def float_columns(rows, index, sign: int = 1) -> list[tuple[list[int], list[float]]]:
    """The float matrix with one row per mapping in rows, key m's value times
    sign in column index[m], as one (row ids, values) pair per column.  Row ids
    ascend, as scipy's sparse matrices hand them to HiGHS.  A value beyond
    float range raises OverflowError."""
    cols = [([], []) for _ in index]
    for i, row in enumerate(rows):
        for m, v in row.items():
            at, vals = cols[index[m]]
            at.append(i)
            vals.append(sign * float(v))
    return cols


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
    """Equal-length integer rows over one denominator d > 0, each packed into one int.

    Row i holds d times its rational row, numerators r_k none longer than
    bits[i] bits, as X[i] = bias + sum r_k 2^(w k).  `bias` puts half =
    2^(w-1) in every w-bit lane, so lane k holds r_k + half in [0, 2^w) and
    reads off with a mask and a shift, without borrows.  w starts at _WIDTH
    and doubles when a bound needs it; `pivot` measures its pivot row.
    """

    def __init__(self, rows: list[list[int]], d: int):
        self.cells = len(rows[0])
        flat = list(chain.from_iterable(rows))
        self.X, self.d, self.bits = [], d, [_bits(flat)] * len(rows)
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
        if self.w > 128:  # lanes this wide decode faster whole than word by word
            return [int.from_bytes(raw[k:k + nb], "little", signed=True)
                    for k in range(0, len(raw), nb)]
        a = array(_CODES[min(self.w, 64)], raw)
        if _SWAP:
            a.byteswap()
        if self.w == 128:  # a signed top word over an unsigned low word
            return [hi << 64 | lo for hi, lo in zip(a[1::2], array("Q", a.tobytes())[::2])]
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

    def append(self, row: list[int]) -> None:
        b = _bits(row)
        if b >= self.w:
            self.widen(b)
        self.X += self.pack(row)
        self.bits.append(b)

    def drop(self, i: int) -> None:
        """Delete row i."""
        del self.X[i], self.bits[i]

    def pivot(self, r: int, col: int, fs: list[int]) -> None:
        """Make column col a unit in row r, fs being `column(col)`; d becomes |fs[r]|."""
        p, d = fs[r], self.d
        a, s = abs(p), (1 if p > 0 else -1)
        self.bits[r] = _bits(self.row(r))
        for i, f in enumerate(fs):
            if i != r and (f or a != d):  # a row with f = 0 still scales by |p|/d
                self.combine(i, a, r, s * f, d)
        if p < 0:
            self.X[r] = 2 * self.bias - self.X[r]
        self.d = a

    def combine(self, i: int, a: int, r: int, f: int, d: int) -> None:
        """Row i becomes (a.row i - f.row r) / d, which must divide in every lane.

        Only the result must fit a lane.  When it might not, row i is measured
        first, since bounds carried from pivot to pivot ratchet up; row r's
        bound stands as it is, which `pivot` measures once per pivot.
        """
        bits = self.bits
        for measured in (False, True):
            top = max(bits[i] + a.bit_length(), bits[r] + f.bit_length() if f else 0)
            b = max(top + 2 - d.bit_length(), 0)
            if b < self.w or measured:
                break
            bits[i] = _bits(self.row(i))
        if b >= self.w:
            self.widen(b)
        x = a * self.X[i] - f * self.X[r] + self.bias * (f - a)  # unbiased
        if d != 1:
            x, rest = divmod(x, d)
            if rest:
                raise RuntimeError("a tableau row does not divide by the tableau's denominator")
        self.X[i], bits[i] = x + self.bias, b


@dataclass(frozen=True, repr=False)  # its tableau and copy of A are large
class _Restart:
    """An optimal tableau without its objective row, to re-solve from.

    Row pos of tab is unit at column basis[pos].  Row i of A was oriented
    by sign[i] and started with the unit column start[i], its crash column
    or its artificial.  A and b are copies of the system solved.
    """
    tab: _Tableau
    basis: list[int]
    start: list[int]
    sign: list[int]
    n_art: int
    A: list[list]
    b: list

    def resume(self, A: list[list], b: list, nc: int) -> tuple[_Tableau, list[int]] | None:
        """The tableau with A's appended columns entered as B^-1 a, and start to match.

        None unless b is equal and every row of A starts with the old row.
        Column start[i] holds B^-1 e_i of the oriented rows, so an appended
        column a enters row pos as the sum of T[pos][start[i]] a_i over a's
        nonzero entries.  Its lanes go before the artificial and rhs lanes.
        """
        if list(b) != self.b or len(A) != len(self.A) or any(
                list(row[:len(old)]) != old for row, old in zip(A, self.A)):
            return None
        m, tab, old = len(A), self.tab, self.tab.cells - self.n_art - 1
        # each row's appended entries over its own denominator; the product
        # of these, not their lcm, keeps every division exact, as in a cold start
        new = [int_form([s * a for a in row[old:nc]]) for s, row in zip(self.sign, A)]
        g = prod(den for _vals, den in new)
        cols = [[(self.start[i], vals[k] * (g // den)) for i, (vals, den) in enumerate(new)
                 if vals[k]] for k in range(nc - old)]
        T = [[v * g for v in row[:old]] + [sum(row[j] * a for j, a in col) for col in cols]
             + [v * g for v in row[old:]] for row in map(tab.row, range(m))]
        start = [j + nc - old if j >= old else j for j in self.start]
        return _Tableau(T, tab.d * g), start


def solve_standard(A: list[list], b: list, c: list, warm: _Restart | None = None) -> LPResult:
    m = len(A)
    nc = len(c)

    if m == 0:
        for j in range(nc):
            if c[j] < 0:
                ray = [Fraction(0)] * nc
                ray[j] = Fraction(1)
                return LPResult("unbounded", x=[Fraction(0)] * nc, ray=ray)
        return LPResult("optimal", x=[Fraction(0)] * nc, objective=Fraction(0), y=[])

    resumed = warm.resume(A, b, nc) if isinstance(warm, _Restart) else None
    if resumed is not None:
        tab, start = resumed
        basis, sign, n_art = list(warm.basis), warm.sign, warm.n_art
    else:
        # row i of A x = b as ints over dens[i], rhs last, oriented to rhs >= 0
        rows, dens = zip(*(int_form(list(A[i]) + [b[i]]) for i in range(m)))
        sign = [-1 if r[nc] < 0 else 1 for r in rows]
        rows = [[s * v for v in r] for s, r in zip(sign, rows)]

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

        n_art = 0
        for i in range(m):
            if basis[i] < 0:
                basis[i] = nc + n_art
                n_art += 1

        # tableau rows carry the rhs in the last slot, over the product of
        # the row denominators, so that every division is exact
        d = prod(dens)
        T = [[v * (d // den) for v in row[:nc]] + [0] * n_art + [row[nc] * (d // den)]
             for row, den in zip(rows, dens)]
        for i, j in enumerate(basis):
            if j >= nc:
                T[i][j] = d
        tab = _Tableau(T, d)
        start = list(basis)

    ncols = nc + n_art
    pivots = [0, 0]  # run_phase's, in phase 1 and in phase 2

    def result(status: str, **fields) -> LPResult:
        return LPResult(status, pivots=(pivots[0], pivots[1]), width=tab.w, **fields)

    def duals(z: int, dz: int, cvec: list) -> list[Fraction]:
        """y with y.B = c_B for the current basis B, read off objective row z over d.dz.

        Column start[i] holds B^-1 e_i of the oriented rows, so its reduced
        cost is cvec[start[i]] minus the oriented dual of row i.  A row
        deleted as dependent gets 0: its artificial costs 0 and is zero in
        every row left.
        """
        Z, den = tab.row(z), tab.d * dz
        return [s * (cvec[j] - Fraction(Z[j], den)) for s, j in zip(sign, start)]

    def zrow(cvec: list) -> tuple[int, int]:
        """Append the objective row reduced against the basis, rhs last.

        It sits below the basis rows, so every pivot clears it too.  Returns
        its index and dz, cvec's int_form scale: it holds d.dz times the reduced costs.
        """
        Z, dz = int_form(cvec + [0])
        z = len(basis)
        tab.append([v * tab.d for v in Z])
        for pos, j in enumerate(basis):
            if Z[j]:  # row pos holds d where row z holds d.Z[j]
                tab.combine(z, 1, pos, Z[j], 1)
        return z, dz

    def run_phase(z: int, phase: int) -> int | None:
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
            # rows i and j share one positive denominator, so the sign of
            # each cross-multiplied numerator decides
            vi, vj = fs[i], fs[j]
            d = rhs[i] * vj - rhs[j] * vi
            if d != 0:
                return d < 0
            ti, tj = tied(i), tied(j)
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
            # each row decoded for a tie is kept for the rest of this ratio test
            fs, rhs, tied = tab.column(enter), tab.column(ncols), functools.cache(tab.row)
            leave = -1
            for i in range(z):
                if fs[i] > 0 and (leave < 0 or lex_less(i, leave)):
                    leave = i
            if leave < 0:
                return enter
            tab.pivot(leave, enter, fs)
            basis[leave] = enter
            pivots[phase] += 1

    if resumed is None and n_art:
        pcost = [0] * nc + [1] * n_art
        z, dz = zrow(pcost)
        # the auxiliary objective is bounded below by zero
        if run_phase(z, 0) is not None:
            raise RuntimeError("phase 1 reported an unbounded auxiliary objective")
        if tab.lane(z, ncols) < 0:
            return result("infeasible", y=duals(z, dz, pcost))
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
                    del basis[pos]
                    continue
            pos += 1

    ext_cost = list(c) + [0] * n_art
    nr, dz = zrow(ext_cost)
    hit = run_phase(nr, 1)

    x = [Fraction(0)] * nc
    for i, v in enumerate(tab.column(ncols)[:nr]):
        x[basis[i]] = Fraction(v, tab.d)
    if hit is not None:
        ray = [Fraction(0)] * nc
        ray[hit] = Fraction(1)
        for i, v in enumerate(tab.column(hit)[:nr]):
            if v != 0:
                ray[basis[i]] = Fraction(-v, tab.d)
        return result("unbounded", x=x, ray=ray)

    objective = sum((x[j] * c[j] for j in range(nc) if x[j]), Fraction(0))
    y = duals(nr, dz, ext_cost)
    tab.drop(nr)
    # a deleted row could turn independent once columns are appended
    return result("optimal", x=x, objective=objective, y=y, warm=None if len(basis) < m else
                  _Restart(tab, basis, start, sign, n_art, [list(row) for row in A], list(b)))
