"""Exact rational two-phase simplex for small dense linear programs.

Solves min c.x subject to A x = b, x >= 0 entirely in rational arithmetic.
Every terminal status ships checkable data:

  optimal    x, objective, and duals y with y.A_j <= c_j for every column
             and y.b == objective
  infeasible Farkas vector y with y.A_j <= 0 for every column and y.b > 0
  unbounded  a feasible x plus a ray r >= 0 with A r = 0 and c.r < 0

The kernel is fraction-free: every tableau row, and the objective row, is
a list of Python ints over one positive denominator, and every elimination
is the single integer row operation `_eliminate`, reduced by the row's
gcd.  A sign test or a comparison within one row reads the numerators
directly, and the ratio test cross-multiplies them, so each pivot is the
one plain rational arithmetic would choose.  Inputs may mix ints and
Fractions; outputs are Fractions.

`linprog` is the package's one way into the float solver (HiGHS through
scipy); it imports scipy at its first call.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


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


def _reduce(row: list[int], den: int) -> tuple[list[int], int]:
    """row/den divided through by gcd(den, *row), with a positive denominator."""
    g = gcd(den, *row)
    if den < 0:
        g = -g
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _eliminate(R: list[int], dR: int, P: list[int], col: int) -> tuple[list[int], int]:
    """Row R/dR minus the multiple of pivot row P that clears column col.

    (R.p - R[col].P) / (dR.p) with p = P[col]; P's own denominator cancels.
    """
    p, f = P[col], R[col]
    return _reduce([a * p - f * b for a, b in zip(R, P)], dR * p)


def _pivot(T: list[list[int]], D: list[int], pi: int, col: int) -> list[int]:
    """Scale row pi to a unit at col and clear col from every other row."""
    P = T[pi]
    for i, R in enumerate(T):
        if i != pi and R[col]:
            T[i], D[i] = _eliminate(R, D[i], P, col)
    T[pi], D[pi] = _reduce(P, P[col])
    return T[pi]


def _int_row(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over their least common denominator."""
    den = lcm(*(int(v.denominator) for v in values))
    return [int(v.numerator) * (den // int(v.denominator)) for v in values], den


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
    T = [list(rows[i]) for i in order]
    D = [dens[i] for i in order]
    mm = len(live)
    for pos in range(mm):
        col = basis[pos]
        r = next((k for k in range(pos, mm) if T[k][col] != 0), -1)
        if r < 0:
            return None
        if r != pos:
            T[pos], T[r] = T[r], T[pos]
            D[pos], D[r] = D[r], D[pos]
            live[pos], live[r] = live[r], live[pos]
        _pivot(T, D, pos, col)
    if any(T[pos][nc] < 0 for pos in range(mm)) or any(map(any, T[mm:])):
        return None
    return T[:mm], D[:mm], basis, live


def _solve_transposed(cols: list[list[int]], rhs: list) -> list[Fraction]:
    """Solve M^T w = rhs for integer columns cols of an invertible M."""
    mm = len(rhs)
    pairs = [_int_row(cols[k] + [rhs[k]]) for k in range(mm)]
    T, D = [r for r, _ in pairs], [d for _, d in pairs]
    for col in range(mm):
        piv = next(r for r in range(col, mm) if T[r][col] != 0)
        T[col], T[piv] = T[piv], T[col]
        D[col], D[piv] = D[piv], D[col]
        _pivot(T, D, col, col)
    return [Fraction(T[r][mm], D[r]) for r in range(mm)]


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
        r, d = _int_row(list(A[i]) + [b[i]])
        if r[nc] < 0:
            r = [-v for v in r]
            sign[i] = -1
        rows.append(r)
        dens.append(d)

    T = None
    art_of_row = {}
    n_art = 0
    if warm is not None:
        built = _warm_tableau(rows, dens, warm, nc)
        if built is not None:
            T, D, basis, live_rows = built

    if T is None:
        # crash basis from unit columns; a -1 unit on a zero-rhs row counts
        # too, after flipping that row
        basis = [-1] * m
        for j in range(nc):
            hit = -1
            val = None
            for i in range(m):
                v = rows[i][j]
                if v != 0:
                    if hit >= 0:
                        hit = -1
                        break
                    hit = i
                    val = v
            if hit < 0 or basis[hit] >= 0:
                continue
            if val == dens[hit]:
                basis[hit] = j
            elif val == -dens[hit] and rows[hit][nc] == 0:
                rows[hit] = [-v for v in rows[hit]]
                sign[hit] = -sign[hit]
                basis[hit] = j

        for i in range(m):
            if basis[i] < 0:
                basis[i] = nc + n_art
                art_of_row[i] = nc + n_art
                n_art += 1

        # tableau rows carry the rhs in the last slot
        T = []
        for i in range(m):
            row = rows[i][:nc] + [0] * n_art + [rows[i][nc]]
            if basis[i] >= nc:
                row[basis[i]] = dens[i]
            T.append(row)
        D = list(dens)
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

    def zrow(cvec: list) -> list:
        """Objective row [Z, dz] reduced against the basis, rhs last."""
        Z, dz = _int_row(cvec + [0])
        for pos, j in enumerate(basis):
            if Z[j]:
                Z, dz = _eliminate(Z, dz, T[pos], j)
        return [Z, dz]

    def run_phase(z: list) -> int | None:
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

        def lex_less(i: int, j: int, enter: int) -> bool:
            # rows i and j share positive denominators, so the sign of each
            # cross-multiplied numerator decides
            ti, tj = T[i], T[j]
            vi, vj = ti[enter], tj[enter]
            d = ti[ncols] * vj - tj[ncols] * vi
            if d != 0:
                return d < 0
            for k in order:
                d = ti[k] * vj - tj[k] * vi
                if d != 0:
                    return d < 0
            return False

        while True:
            # Dantzig pricing, lowest index on ties
            priced = z[0][:nc]
            best = min(priced, default=0)
            if best >= 0:
                return None
            enter = priced.index(best)
            leave = -1
            for i in range(len(T)):
                if T[i][enter] > 0 and (leave < 0 or lex_less(i, leave, enter)):
                    leave = i
            if leave < 0:
                return enter
            P = _pivot(T, D, leave, enter)
            z[0], z[1] = _eliminate(z[0], z[1], P, enter)
            basis[leave] = enter

    if n_art:
        pcost = [0] * nc + [1] * n_art
        z = zrow(pcost)
        # the auxiliary objective is bounded below by zero
        if run_phase(z) is not None:
            raise RuntimeError("phase 1 reported an unbounded auxiliary objective")
        if z[0][ncols] < 0:
            return LPResult("infeasible", y=duals(pcost))
        # drive artificials out of the basis, deleting dependent rows
        pos = 0
        while pos < len(T):
            if basis[pos] >= nc:
                pj = next((j for j in range(nc) if T[pos][j] != 0), -1)
                if pj >= 0:
                    _pivot(T, D, pos, pj)
                    basis[pos] = pj
                else:
                    del T[pos], D[pos], live_rows[pos], basis[pos]
                    continue
            pos += 1

    ext_cost = list(c) + [0] * n_art
    hit = run_phase(zrow(ext_cost))
    nr = len(T)

    x = [Fraction(0)] * nc
    for i in range(nr):
        x[basis[i]] = Fraction(T[i][ncols], D[i])
    if hit is not None:
        ray = [Fraction(0)] * nc
        ray[hit] = Fraction(1)
        for i in range(nr):
            if T[i][hit] != 0:
                ray[basis[i]] = Fraction(-T[i][hit], D[i])
        return LPResult("unbounded", x=x, ray=ray)

    objective = sum((x[j] * c[j] for j in range(nc) if x[j]), Fraction(0))
    return LPResult("optimal", x=x, objective=objective, y=duals(ext_cost),
                    warm=(list(live_rows), list(basis)))
