"""The effort one Ingleton-LP bound takes over Delta and over every Ingleton form.

    PYTHONPATH=src python tests/effort.py [n]      (n defaults to 5)

The paper's abstract claims that the minimal list Delta greatly reduces
the effort of computing an Ingleton-LP bound.  This script solves one
bound both ways at n: maximize -J({1},{2},{3},{4}) subject to h(N) <= 1,
over `gamma-in` (Gamma cut by Delta) and over `gamma` (the elemental
members) plus every distinct nonzero Ingleton form.  The forms are
enumerated here from the quads of nonempty subsets, not taken from
`ingen`: a quad with an empty argument gives a Shannon form, which
Gamma already implies.  It stops with an error if the two values
differ, and prints for each side the members, the exact simplex calls,
the columns of the last one, the pivots per phase summed over all of
them, the widest lane and the time of `bound.solve_bound` (which
re-verifies its certificate).  The exact solves are read through a
wrapper on `bound.solve_standard`.  `tests/test_bound.py` runs n=4.
"""

from __future__ import annotations

import contextlib
import itertools
import sys
import time
from fractions import Fraction

from ingletonlp import bound, ingen
from ingletonlp.entspace import IngletonQuad, LinExpr, ingleton_expr


def ingleton_forms(n: int) -> list[LinExpr]:
    """Every distinct nonzero J(a1,a2,a3,a4) over nonempty subsets, in first-seen order.

    J is unchanged by swapping a1 with a2 or a3 with a4, so each pair is
    taken unordered."""
    pairs = list(itertools.combinations_with_replacement(range(1, 2 ** n), 2))
    forms: dict[tuple, LinExpr] = {}
    for a1, a2 in pairs:
        for a3, a4 in pairs:
            e = ingleton_expr(IngletonQuad(n, a1, a2, a3, a4))
            if not e.is_zero():
                forms.setdefault(e.key(), e)
    return list(forms.values())


@contextlib.contextmanager
def exact_solves():
    """Record (columns, pivots per phase, lane width) of each exact solve a bound makes."""
    solve, seen = bound.solve_standard, []

    def counted(A, b, c, warm=None):
        res = solve(A, b, c, warm=warm)
        seen.append((len(c), res.pivots, res.width))
        return res

    bound.solve_standard = counted
    try:
        yield seen
    finally:
        bound.solve_standard = solve


class Effort:
    """One side's value, members, exact solves and time."""

    def __init__(self, value, members: int, solves: list, seconds: float):
        self.value, self.members, self.seconds = value, members, seconds
        self.calls = len(solves)
        self.columns = solves[-1][0]
        self.pivots = tuple(sum(p[k] for _c, p, _w in solves) for k in (0, 1))
        self.width = max(w for _c, _p, w in solves)

    def text(self, side: str) -> str:
        return (f"{side}: value {self.value}, members {self.members}, exact solves "
                f"{self.calls}, last over {self.columns} columns, pivots {self.pivots}, "
                f"lane width {self.width}, {self.seconds:.3f} s")


def measure(n: int, forms: list[LinExpr] | None = None) -> dict[str, Effort]:
    """The bound solved over Delta ("delta") and over Gamma plus the forms ("forms")."""
    if forms is None:
        forms = ingleton_forms(n)
    objective = -ingleton_expr(IngletonQuad(n, 1, 2, 4, 8))
    top = ((LinExpr.single(n, 2 ** n - 1), "<=", Fraction(1)),)
    sides = {"delta": (bound.CONE_GAMMA_IN, None), "forms": (bound.CONE_GAMMA, forms)}
    out = {}
    for side, (cone, extra) in sides.items():
        problem = bound.BoundProblem(n, cone, "max", objective, top)
        members = bound.cone_members(n, cone)
        with exact_solves() as solves:
            t0 = time.perf_counter()
            result = bound.solve_bound(problem, extra_inequalities=extra, members=members)
            seconds = time.perf_counter() - t0
        out[side] = Effort(result.value, len(members) + len(extra or ()), solves, seconds)
    if out["delta"].value != out["forms"].value:
        raise RuntimeError(f"the two cones disagree at n={n}: "
                           f"{out['delta'].value} against {out['forms'].value}")
    return out


def main(argv: list[str]) -> int:
    n = int(argv[0]) if argv else 5
    t0 = time.perf_counter()
    forms = ingleton_forms(n)
    print(f"n={n}: {len(forms)} distinct nonzero Ingleton forms, "
          f"{ingen.count_delta(n)} members of Delta "
          f"(forms enumerated in {time.perf_counter() - t0:.1f} s)")
    for side, effort in measure(n, forms).items():
        print(effort.text(side))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
