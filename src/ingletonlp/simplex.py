"""Exact rational two-phase simplex for small dense linear programs.

Solves min c.x subject to A x = b, x >= 0 entirely in rational arithmetic.
Every terminal status ships checkable data:

  optimal    x, objective, and duals y with y.A_j <= c_j for every column
             and y.b == objective
  infeasible Farkas vector y with y.A_j <= 0 for every column and y.b > 0
  unbounded  a feasible x plus a ray r >= 0 with A r = 0 and c.r < 0

The kernel is revised and fraction-free (Edmonds, J. Res. NBS 71B, 1967;
Bareiss, Math. Comp. 22, 1968), pricing from the original columns as
exact LP solvers do (Applegate, Cook, Dash & Espinoza, Oper. Res. Lett.
35, 2007).  A cold start puts the oriented rows of A over the product D
of the row denominators, as pivoting the starting basis in from 1 would:
the integer matrix M, whose start column for row i, its crash column or
its artificial, is D times unit i.  The tableau pivoted is only the block
S over those start columns and the rhs, plus the objective row: for one
shared d > 0 it holds d times B^-1 and B^-1 b, and the full tableau,
T = S.M/D, is never formed.  Row i of S is one int, sum_k U_ik 2^(w k)
in the `entspace.Lanes` format `MemberTable` shares, so row operations
are int operations on whole rows.  A pivot on entry p of row r sets each
other row i to (|p|.U_i - sgn(p).f_i.U_r) / d and d to |p|, and Edmonds'
identity makes that division exact in every lane, so no gcd runs.
Pricing reads P, T's objective row on A's columns, off S's objective row
before each pivot: P is g.M/D plus d times the costs, g from that row's
start lanes, one multiply-add per packed row of M, so no second copy of
the objective row is pivoted.  An entering column is S times M's column
over D, and a ratio-test tie reads T's phase-start basis columns the same
way.  One positive d scales every row alike, so it changes no sign, no
order within a row and no sign of a cross-multiplied pair of entries:
each pivot decision, and so each pivot, is the one rational arithmetic
would make.  Inputs may mix ints and Fractions; outputs are Fractions.

The final S holds B^-1 in its start lanes: the duals are read off the
objective row there, and a re-solve with columns appended appends them
to M alone and runs phase 2 from the old basis, each pivot the one a
rebuild of B^-1 A would give.

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
from fractions import Fraction
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from itertools import accumulate, chain
from math import copysign, prod
from operator import mul
from types import SimpleNamespace

from .entspace import Lanes, Record, int_form

_WIDTH = 8  # lane width a tableau starts at; `widen` widens it as its entries need


class LPResult(Record):
    """status "optimal" | "infeasible" | "unbounded"; y holds the duals (optimal) or a
    Farkas vector (infeasible).  warm is the `_Restart` of an optimal solve that
    deleted no row, for re-solving the same A and b with columns appended.  pivots
    counts the ratio-test pivots of each phase; width is the final lane width, or 0."""

    __slots__ = ("status", "x", "objective", "y", "ray", "warm", "pivots", "width")
    _defaults = (None,) * 5 + ((0, 0), 0)
    _mutable = True


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


class _Tableau(Lanes):
    """Equal-length integer rows over one denominator d > 0, each packed into one int.

    Row i holds d times its rational row, numerators none longer than bits[i]
    bits, in `Lanes` of w bits, from _WIDTH up; `pivot` measures its pivot row.
    """

    def __init__(self, rows: list[list[int]], d: int):
        flat = list(chain.from_iterable(rows))
        self.X, self.d, self.bits = [], d, [_bits(flat)] * len(rows)
        self.w, self.cells = _WIDTH, len(rows[0])
        self.widen(self.bits[0], flat)

    def widen(self, b: int, flat: list[int] | None = None) -> None:
        """Repack every row, or the given entries, in lanes wider than b bits."""
        flat = self.decode(*self.X) if flat is None else flat
        Lanes.__init__(self, max(self.w, self.fit(b)), self.cells)
        self.X[:] = self.encode(flat)

    def row(self, i: int) -> list[int]:
        return self.decode(self.X[i])

    def append(self, row: list[int]) -> None:
        b = _bits(row)
        if b >= self.w:
            self.widen(b)
        self.X += self.encode(row)
        self.bits.append(b)

    def drop(self, i: int) -> None:
        """Delete row i."""
        del self.X[i], self.bits[i]

    def pivot(self, r: int, col: int, fs: list[int]) -> None:
        """Make column col a unit in row r, fs being its entry in every row; d becomes |fs[r]|."""
        p, d = fs[r], self.d
        a, s = abs(p), (1 if p > 0 else -1)
        self.bits[r] = _bits(self.row(r))
        for i, f in enumerate(fs):
            if i != r and (f or a != d):  # a row with f = 0 still scales by |p|/d
                self.combine(i, a, r, s * f, d)
        if p < 0:
            self.X[r] = -self.X[r]
        self.d = a

    def combine(self, i: int, a: int, r: int, f: int, d: int) -> None:
        """Row i becomes (a.row i - f.row r) / d, which must divide in every lane.

        Only the result must fit a lane: no entry is longer than the bit
        length of (a.2^bits[i] + |f|.2^bits[r]) / d.  When that might not fit,
        row i is measured first, since bounds carried from pivot to pivot
        ratchet up; row r's bound stands as it is, which `pivot` measures
        once per pivot.
        """
        bits = self.bits
        b = (((a << bits[i]) + (abs(f) << bits[r])) // d).bit_length()
        if b >= self.w:
            bits[i] = _bits(self.row(i))
            b = (((a << bits[i]) + (abs(f) << bits[r])) // d).bit_length()
            if b >= self.w:
                self.widen(b)
        x = a * self.X[i] - f * self.X[r]
        if d != 1:
            x, rest = divmod(x, d)
            if rest:
                raise RuntimeError("a tableau row does not divide by the tableau's denominator")
        self.X[i], bits[i] = x, b


class _System:
    """The cold start's integer matrix M over its denominator D, and its costs.

    M holds A's rows, oriented, over D, and its start columns are D times a
    unit, so a tableau S over the start columns stands for T = S.M/D; ratio
    tests read T's phase-start basis columns through one over those columns
    of M alone.  `tab` packs M's rows, and then D times the cost ints once
    pricing first weights them; `row` reads a row of T on A's columns from
    its start lanes in S, as pricing reads P, T's objective row, before each
    pivot.  `cols` keeps each column's nonzero (row, entry) pairs, for
    entering columns.
    """

    def __init__(self, rows: list[list[int]], D: int, cost: list[int]):
        self.rows, self.D, self.cost = rows, D, [D * z for z in cost]
        self.cols = [[(k, v) for k, v in enumerate(col) if v] for col in zip(*rows)]
        # no entry of g.M is longer than max |g| times its column's sum of
        # |entries|, plus the cost row's weight times max |D.cost|
        self.l1 = max((sum(abs(v) for _k, v in col) for col in self.cols), default=0)
        self.zmax = max(map(abs, self.cost), default=0)
        self.tab = _Tableau(rows, D) if cost else None

    def row(self, g: list[int], w: int = 0) -> list[int]:
        """The entries of (g.M + w.D.cost)/D, which must divide exactly."""
        tab, m = self.tab, len(self.rows)
        if tab is None:
            return []
        if w and len(tab.X) == m:
            tab.append(self.cost)
        b = (max(map(abs, g)) * self.l1 + abs(w) * self.zmax).bit_length()
        if b >= tab.w:  # lanes sized from that bound, so nothing is measured
            tab.widen(b)
        x, rest = divmod(sum(map(mul, g, tab.X)) + (w * tab.X[m] if w else 0), self.D)
        if rest:
            raise RuntimeError("a row of T does not divide by the start denominator")
        return tab.decode(x)

    def column(self, S: list[int], w: int, q: int, rows: int) -> list[int]:
        """Column q of S.M/D in S's first `rows` rows, S being the entries of
        w lanes a row, one row after another; each must divide by D."""
        fs = [0] * rows
        for k, v in self.cols[q]:
            fs = [f + v * s for f, s in zip(fs, S[k::w])]
        if self.D != 1:
            if any(f % self.D for f in fs):
                raise RuntimeError("an entering column does not divide by the start denominator")
            fs = [f // self.D for f in fs]
        return fs


class _Restart(Record):
    """An optimal tableau over the start lanes without its objective row, to re-solve from.

    Row pos of tab is unit at column basis[pos] of T = tab.M/D.  Row i of A
    was oriented by sign[i] and started with the unit column start[i], its
    crash column or its artificial.  A and b are copies of the system solved.
    """

    __slots__ = ("tab", "M", "basis", "start", "sign", "n_art", "A", "b")
    __repr__ = object.__repr__  # its tableau and copy of A are large

    def resume(self, A: list[list], b: list, cost: list[int]) -> tuple[_System, _Tableau] | None:
        """M with A's appended columns and the new cost ints, and a copy of tab to pivot.

        None unless b is equal and every row of A starts with the old row.
        Each row's appended entries are over their own denominator; their
        product g, not their lcm, keeps every division exact, as in a cold
        start, once M, D, the tableau and its d all scale by g.
        """
        if list(b) != self.b or len(A) != len(self.A) or any(
                list(row[:len(old)]) != old for row, old in zip(A, self.A)):
            return None
        M, old = self.M, len(self.M.cols)
        new = [int_form([s * a for a in row[old:len(cost)]]) for s, row in zip(self.sign, A)]
        g, tab = prod(den for _vals, den in new), self.tab
        return (_System([[v * g for v in row] + [M.D * v * (g // den) for v in vals]
                         for row, (vals, den) in zip(M.rows, new)], M.D * g, cost),
                _Tableau([[g * v for v in tab.row(i)] for i in range(len(A))], tab.d * g))


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

    cost = int_form(list(c))[0]
    resumed = warm.resume(A, b, cost) if isinstance(warm, _Restart) else None
    if resumed is not None:
        (M, tab), old = resumed, len(warm.M.cols)
        basis, sign, n_art = list(warm.basis), warm.sign, warm.n_art
        start = [j + nc - old if j >= old else j for j in warm.start]
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

        # M's rows over the product of the row denominators, so that every
        # division is exact; the tableau starts as D.I beside the rhs
        D = prod(dens)
        M = _System([[v * (D // den) for v in row[:nc]] for row, den in zip(rows, dens)], D, cost)
        tab = _Tableau([[0] * i + [D] + [0] * (m - i - 1) + [row[nc] * (D // den)]
                        for i, (row, den) in enumerate(zip(rows, dens))], D)
        start = list(basis)

    pivots = [0, 0]  # run_phase's, in phase 1 and in phase 2

    def result(status: str, **fields) -> LPResult:
        return LPResult(status, pivots=(pivots[0], pivots[1]), width=tab.w, **fields)

    def duals(z: int, dz: int, cvec: list) -> list[Fraction]:
        """y with y.B = c_B for the current basis B, read off objective row z over d.dz.

        Lane i holds B^-1 e_i of the oriented rows, column start[i] of T, so
        its reduced cost is cvec[start[i]] minus the oriented dual of row i.
        A row deleted as dependent gets 0: its artificial costs 0 and is
        zero in every row left.
        """
        Z, den = tab.row(z), tab.d * dz
        return [s * (cvec[j] - Fraction(Z[k], den)) for k, (s, j) in enumerate(zip(sign, start))]

    def zrow(cvec: list) -> tuple[int, int, list[int]]:
        """Append the objective row reduced against the basis, rhs lane m.

        It sits below the basis rows, so every pivot clears it too.  Returns
        its index, dz, cvec's int_form scale, and the ints over dz: the row
        holds d.dz times the reduced costs of T's columns in its lanes.
        """
        Z, dz = int_form(cvec + [0])
        z = len(basis)
        tab.append([v * tab.d for v in [Z[j] for j in start] + [0]])
        for pos, j in enumerate(basis):
            if Z[j]:  # row pos holds d where row z holds d.Z[j]
                tab.combine(z, 1, pos, Z[j], 1)
        return z, dz, Z

    def run_phase(z: int, phase: int, Z: list[int]) -> tuple[int, list[int]] | None:
        """Pivot to optimality; returns an entering column and its entries on unboundedness.

        Before each pivot, each column of T is priced as g.M/D + d.Z, where
        g is the objective row's start lanes less d.Z there.  Leaving rows
        follow the lexicographic ratio rule, comparing rhs first and then a
        fixed column order that starts with the phase's initial basis; ties
        read those columns of T from S and M.  They form an identity at
        phase start, so every row begins lexicographically positive, no two
        rows tie on all of them, and no basis can repeat, which rules out
        cycling on degenerate pivots.  Artificial columns never re-enter.
        """
        def lex_less(i: int, j: int) -> bool:
            # rows i and j share one positive denominator, so the sign of
            # each cross-multiplied numerator decides
            vi, vj = fs[i], fs[j]
            d = rhs[i] * vj - rhs[j] * vi
            if d != 0:
                return d < 0
            for ti, tj in zip(tied(i), tied(j)):
                d = ti * vj - tj * vi
                if d != 0:
                    return d < 0
            # those columns are independent, so only a wrong tableau gets here
            raise RuntimeError("two tableau rows tie on the phase-start basis")

        # T's phase-start basis columns are S's start lanes when the phase
        # starts from the start basis, else S times E/D, E being those of M
        E = None if basis == start else _System(
            [[row[j] for j in basis] for row in M.rows], M.D, [0] * len(basis))
        while True:
            S, w, d = tab.decode(*tab.X), tab.cells, tab.d  # every row, one after another
            # phase 2 adds D.c weighted by d: phase 1's Z is 0 on A's columns
            priced = M.row([S[z * w + k] - d * Z[j] for k, j in enumerate(start)], d * phase)
            # Dantzig pricing, lowest index on ties
            best = min(priced, default=0)
            if best >= 0:
                return None
            enter = priced.index(best)
            fs, rhs = M.column(S, w, enter, z) + [best], S[m::w]
            tied = ((lambda i: S[i * w:i * w + m]) if E is None else
                    functools.cache(lambda i: E.row(S[i * w:i * w + m])))
            leave = -1
            for i in range(z):
                if fs[i] > 0 and (leave < 0 or lex_less(i, leave)):
                    leave = i
            if leave < 0:
                return enter, fs
            tab.pivot(leave, enter, fs)
            basis[leave] = enter
            pivots[phase] += 1

    if resumed is None and n_art:
        pcost = [0] * nc + [1] * n_art
        z, dz, Z = zrow(pcost)
        # the auxiliary objective is bounded below by zero
        if run_phase(z, 0, Z) is not None:
            raise RuntimeError("phase 1 reported an unbounded auxiliary objective")
        if tab.row(z)[m] < 0:
            return result("infeasible", y=duals(z, dz, pcost))
        tab.drop(z)
        # drive artificials out of the basis, deleting dependent rows
        pos = 0
        while pos < len(basis):
            if basis[pos] >= nc:
                Mg = M.row(tab.row(pos)[:m])
                pj = next((j for j, v in enumerate(Mg) if v), -1)  # S_pos.M's first nonzero
                if pj >= 0:
                    tab.pivot(pos, pj, M.column(tab.decode(*tab.X), tab.cells, pj, len(basis)))
                    basis[pos] = pj
                else:
                    tab.drop(pos)
                    del basis[pos]
                    continue
            pos += 1

    ext_cost = list(c) + [0] * n_art
    nr, dz, Z = zrow(ext_cost)
    hit = run_phase(nr, 1, Z) if any(cost) else None  # with every cost 0 every basis is optimal

    x = [Fraction(0)] * nc
    for i, v in enumerate(tab.decode(*tab.X[:nr])[m::tab.cells]):
        x[basis[i]] = Fraction(v, tab.d)
    if hit is not None:
        enter, fs = hit
        ray = [Fraction(0)] * nc
        ray[enter] = Fraction(1)
        for i, v in enumerate(fs[:nr]):
            if v != 0:
                ray[basis[i]] = Fraction(-v, tab.d)
        return result("unbounded", x=x, ray=ray)

    objective = sum((x[j] * c[j] for j in range(nc) if x[j]), Fraction(0))
    y = duals(nr, dz, ext_cost)
    tab.drop(nr)
    # a deleted row could turn independent once columns are appended
    return result("optimal", x=x, objective=objective, y=y, warm=None if len(basis) < m else
                  _Restart(tab, M, basis, start, sign, n_art, [list(row) for row in A], list(b)))
