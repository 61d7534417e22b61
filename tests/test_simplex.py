"""Exact simplex: status contracts, degeneracy, warm restarts."""

from collections import Counter
from fractions import Fraction

from ingletonlp.simplex import LPResult, solve_standard

F = Fraction


def check_dual(A, b, c, res):
    # y.A_j <= c_j for every column and y.b == objective
    m, nc = len(A), len(c)
    assert len(res.y) == m
    for j in range(nc):
        red = sum(res.y[i] * A[i][j] for i in range(m))
        assert red <= c[j]
    assert sum(res.y[i] * b[i] for i in range(m)) == res.objective


def check_feasible(A, b, x):
    assert all(v >= 0 for v in x)
    for i in range(len(A)):
        assert sum(A[i][j] * x[j] for j in range(len(x))) == b[i]


def test_optimal_small_lp():
    # min -x1 - 2 x2  st  x1 + x2 + s1 = 4,  x1 + 3 x2 + s2 = 6
    A = [[1, 1, 1, 0], [1, 3, 0, 1]]
    b = [4, 6]
    c = [-1, -2, 0, 0]
    res = solve_standard(A, b, c)
    assert res.status == "optimal"
    assert res.objective == -5
    assert res.x[:2] == [F(3), F(1)]
    assert all(isinstance(v, Fraction) for v in res.x)
    assert isinstance(res.objective, Fraction)
    check_feasible(A, b, res.x)
    check_dual(A, b, c, res)


def test_optimal_exact_fractions():
    # optimum lands on a fractional vertex; floats would not represent it
    A = [[3, 1, 1, 0], [1, 3, 0, 1]]
    b = [1, 1]
    c = [-1, -1, 0, 0]
    res = solve_standard(A, b, c)
    assert res.status == "optimal"
    assert res.objective == F(-1, 2)
    assert res.x[:2] == [F(1, 4), F(1, 4)]
    check_dual(A, b, c, res)


def test_negative_rhs_is_reoriented():
    # same system as above written with flipped row signs
    A = [[-1, -1, -1, 0], [1, 3, 0, 1]]
    b = [-4, 6]
    c = [-1, -2, 0, 0]
    res = solve_standard(A, b, c)
    assert res.status == "optimal"
    assert res.objective == -5
    check_dual(A, b, c, res)


def test_infeasible_farkas():
    # x1 = 2 and x1 = 1 cannot both hold
    A = [[1], [1]]
    b = [2, 1]
    c = [0]
    res = solve_standard(A, b, c)
    assert res.status == "infeasible"
    y = res.y
    for j in range(1):
        assert sum(y[i] * A[i][j] for i in range(2)) <= 0
    assert sum(y[i] * b[i] for i in range(2)) > 0


def test_unbounded_ray():
    # min -x1  st  x1 - x2 = 0: push both coordinates forever
    A = [[1, -1]]
    b = [0]
    c = [-1, 0]
    res = solve_standard(A, b, c)
    assert res.status == "unbounded"
    check_feasible(A, b, res.x)
    r = res.ray
    assert all(v >= 0 for v in r)
    assert sum(A[0][j] * r[j] for j in range(2)) == 0
    assert sum(c[j] * r[j] for j in range(2)) < 0


def test_results_count_pivots_per_phase():
    # each status reports its ratio-test pivots per phase and the lane
    # width its tableau ended at; no tableau, no pivots and no width
    res = solve_standard([[1, 1, 1, 0], [1, 3, 0, 1]], [4, 6], [-1, -2, 0, 0])
    assert (res.status, res.pivots, res.width) == ("optimal", (0, 2), 8)
    res = solve_standard([[1, 1], [1, 1]], [1, 2], [0, 0])
    assert (res.status, res.pivots, res.width) == ("infeasible", (1, 0), 8)
    res = solve_standard([[2, -1, 1]], [1], [-1, 0, 0])
    assert (res.status, res.pivots, res.width) == ("unbounded", (0, 1), 8)
    res = solve_standard([], [], [2, 1])
    assert (res.pivots, res.width) == ((0, 0), 0)


def test_zero_rows():
    res = solve_standard([], [], [2, 1])
    assert res.status == "optimal"
    assert res.objective == 0
    res = solve_standard([], [], [-1])
    assert res.status == "unbounded"


def test_degenerate_cycling_instance_terminates():
    # Beale's example: Dantzig entering with a naive ratio rule cycles here
    A = [
        [F(1, 4), -60, F(-1, 25), 9, 1, 0, 0],
        [F(1, 2), -90, F(-1, 50), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ]
    b = [0, 0, 1]
    c = [F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0]
    res = solve_standard(A, b, c)
    assert res.status == "optimal"
    assert res.objective == F(-1, 20)
    check_feasible(A, b, res.x)
    check_dual(A, b, c, res)


def test_highly_degenerate_assignment():
    # all basic feasible solutions are degenerate; must still terminate
    n = 4
    A = []
    b = []
    for i in range(n):
        row = [0] * (n * n)
        for j in range(n):
            row[i * n + j] = 1
        A.append(row)
        b.append(1)
    for j in range(n):
        row = [0] * (n * n)
        for i in range(n):
            row[i * n + j] = 1
        A.append(row)
        b.append(1)
    c = [((i * 7 + j * 3) % 5) - 2 for i in range(n) for j in range(n)]
    res = solve_standard(A, b, c)
    assert res.status == "optimal"
    check_feasible(A, b, res.x)
    check_dual(A, b, c, res)


def test_warm_restart_matches_cold():
    A = [[1, 1, 1, 0], [1, 3, 0, 1]]
    b = [4, 6]
    c = [-1, -2, 0, 0]
    first = solve_standard(A, b, c)
    assert first.warm is not None

    # append one attractive column and re-solve with and without the basis
    A2 = [row + [2] for row in A]
    c2 = c + [-5]
    warm = solve_standard(A2, b, c2, warm=first.warm)
    cold = solve_standard(A2, b, c2)
    assert warm.status == cold.status == "optimal"
    assert warm.objective == cold.objective
    check_dual(A2, b, c2, warm)
    check_feasible(A2, b, warm.x)


def test_warm_restart_same_problem_is_identity():
    A = [[2, 1, 1, 0], [1, 2, 0, 1]]
    b = [3, 3]
    c = [-1, -1, 0, 0]
    first = solve_standard(A, b, c)
    # a restart can be used twice: resuming leaves it as it was
    for _ in range(2):
        again = solve_standard(A, b, c, warm=first.warm)
        assert again.status == "optimal"
        assert (again.x, again.y, again.objective) == (first.x, first.y, first.objective)


def test_warm_restart_rejects_stale_basis():
    # a restart from another rhs, another prefix column or another row
    # count, or one that is not restart data, is ignored: the solve is cold
    A = [[1, 1, 1, 0], [1, 3, 0, 1]]
    b = [4, 6]
    c = [-1, -2, 0, 0]
    first = solve_standard(A, b, c)
    moved = [[2, 1, 1, 0, 1], [1, 3, 0, 1, 1]]
    cases = [
        ([row + [1] for row in A], [2, 6], c + [-1], first.warm),
        (moved, b, c + [-1], first.warm),
        (A + [[1, 0, 0, 0]], b + [1], c, first.warm),
        (A, b, c, ([0, 1], [5, 6])),
    ]
    for A2, b2, c2, warm in cases:
        got = solve_standard(A2, b2, c2, warm=warm)
        cold = solve_standard(A2, b2, c2)
        assert got.status == cold.status == "optimal"
        assert (got.x, got.y, got.objective) == (cold.x, cold.y, cold.objective)
        check_feasible(A2, b2, got.x)
        check_dual(A2, b2, c2, got)


def test_warm_restart_rechecks_dropped_rows():
    # the second row repeats the first and is deleted; an appended column
    # could make it independent again, so that solve offers no restart
    A = [[0, 0, 1], [0, 0, -1]]
    b = [1, -1]
    c = [0, 0, 1]
    first = solve_standard(A, b, c)
    assert first.status == "optimal" and first.warm is None
    check_dual(A, b, c, first)
    A2 = [[0, 0, 1, 0], [0, 0, -1, -1]]
    c2 = [0, 0, 1, -1]
    again = solve_standard(A2, b, c2, warm=first.warm)
    assert again.status == "optimal" and again.objective == 1
    check_feasible(A2, b, again.x)
    check_dual(A2, b, c2, again)


def test_result_dataclass_defaults():
    r = LPResult("infeasible")
    assert r.x is None and r.objective is None and r.warm is None


# ---------------------------------------------------------------------------
# property test: exact certificates, and agreement with a float solver

import math  # noqa: E402

import pytest  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402
from scipy.optimize import linprog  # noqa: E402

from ingletonlp import simplex  # noqa: E402
from ingletonlp.entspace import Lanes  # noqa: E402

_rationals = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3, 4]))


def check_farkas(A, b, y):
    assert len(y) == len(A)
    for j in range(len(A[0])):
        assert sum(y[i] * A[i][j] for i in range(len(A))) <= 0
    assert sum(y[i] * b[i] for i in range(len(A))) > 0


def check_ray(A, c, ray):
    assert all(v >= 0 for v in ray)
    for row in A:
        assert sum(a * r for a, r in zip(row, ray)) == 0
    assert sum(cj * r for cj, r in zip(c, ray)) < 0


def check_result(A, b, c, res):
    if res.status == "optimal":
        check_feasible(A, b, res.x)
        check_dual(A, b, c, res)
        assert sum(cj * xj for cj, xj in zip(c, res.x)) == res.objective
    elif res.status == "infeasible":
        check_farkas(A, b, res.y)
    else:
        assert res.status == "unbounded"
        check_feasible(A, b, res.x)
        check_ray(A, c, res.ray)


@st.composite
def small_lps(draw):
    m = draw(st.integers(1, 4))
    nc = draw(st.integers(1, 5))
    A = [draw(st.lists(_rationals, min_size=nc, max_size=nc)) for _ in range(m)]
    b = draw(st.lists(_rationals, min_size=m, max_size=m))
    # dependent rows: scaled copies of existing rows, rhs scaled alike
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, m - 1))
        s = draw(st.sampled_from([F(1), F(-1), F(2), F(-1, 3)]))
        A.append([s * v for v in A[k]])
        b.append(s * b[k])
    c = draw(st.lists(_rationals, min_size=nc, max_size=nc))
    extra = draw(st.lists(st.lists(_rationals, min_size=len(A) + 1, max_size=len(A) + 1),
                          max_size=3))
    return A, b, c, extra


_HIGHS_STATUS = {0: "optimal", 2: "infeasible", 3: "unbounded"}


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_random_lps_certified_and_match_highs(lp):
    A, b, c, extra = lp
    res = solve_standard(A, b, c)
    check_result(A, b, c, res)

    ref = linprog([float(v) for v in c], A_eq=[[float(v) for v in row] for row in A],
                  b_eq=[float(v) for v in b], bounds=(0, None), method="highs")
    assert _HIGHS_STATUS.get(ref.status) == res.status
    if res.status == "optimal":
        assert abs(float(res.objective) - ref.fun) <= 1e-7

        # appended columns: the old basis warm-starts the same optimum
        A2 = [row + [col[i] for col in extra] for i, row in enumerate(A)]
        c2 = c + [col[-1] for col in extra]
        warm = solve_standard(A2, b, c2, warm=res.warm)
        cold = solve_standard(A2, b, c2)
        check_result(A2, b, c2, warm)
        assert warm.status == cold.status
        assert warm.objective == cold.objective


def test_phase1_unbounded_guard(monkeypatch):
    # a negated auxiliary cost row makes phase 1 unbounded, which sound
    # arithmetic never does; the guard must raise even under python -O
    real = simplex.int_form

    def negated_cost_row(values):
        row, den = real(values)
        return ([-v for v in row], den) if values[-1] == 0 else (row, den)

    monkeypatch.setattr(simplex, "int_form", negated_cost_row)
    with pytest.raises(RuntimeError, match="phase 1"):
        solve_standard([[2, -1]], [1], [0, 0])


# ---------------------------------------------------------------------------
# the packed kernel against plain Fraction Gauss-Jordan elimination


@st.composite
def pivot_runs(draw):
    m = draw(st.integers(1, 8))
    n = draw(st.integers(1, 12))
    entries = st.integers(-2 ** 40, 2 ** 40)
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    dens = draw(st.lists(st.integers(1, 2 ** 20), min_size=m, max_size=m))
    picks = draw(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1)), max_size=12))
    return rows, dens, picks


def _check_rows(tab, ref):
    # every entry is d times the Fraction entry, over one d > 0
    assert len(tab.X) == len(ref) and tab.d > 0
    for i, want in enumerate(ref):
        got = tab.row(i)
        assert max(map(abs, got)).bit_length() <= tab.bits[i] < tab.w
        assert got == [v * tab.d for v in want]


def _start(rows, dens):
    """A tableau of rows[i] over dens[i], all over the product of dens, as a cold start puts it.

    Their lcm is not enough: pivots would then leave remainders."""
    d = math.prod(dens)
    return simplex._Tableau([[v * (d // den) for v in row] for row, den in zip(rows, dens)], d)


@pytest.mark.parametrize("width", [None, 64])
def test_packed_pivots_match_fractions(monkeypatch, width):
    # by default tableaux start at 8-bit lanes and widen; a 64-bit start too
    if width:
        monkeypatch.setattr(simplex, "_WIDTH", width)
    repacks = []
    real_widen = simplex._Tableau.widen

    def widen(self, b, flat=None):
        if flat is None:  # live rows repacked, not a first packing
            repacks.append(b)
        real_widen(self, b, flat)
    monkeypatch.setattr(simplex._Tableau, "widen", widen)

    @settings(max_examples=150, deadline=None)
    @given(pivot_runs())
    def check(run):
        rows, dens, picks = run
        tab = _start(rows, dens)
        assert tab.w >= (width or 8)
        ref = [[F(v, d) for v in row] for row, d in zip(rows, dens)]
        _check_rows(tab, ref)
        for pi, col in picks:
            fs = tab.decode(*tab.X)[col::tab.cells]
            assert fs == [r[col] * tab.d for r in ref]
            if not fs[pi]:
                continue
            tab.pivot(pi, col, fs)
            ref[pi] = [v / ref[pi][col] for v in ref[pi]]
            for i, r in enumerate(ref):
                if i != pi and r[col]:
                    ref[i] = [a - r[col] * b for a, b in zip(r, ref[pi])]
            _check_rows(tab, ref)
            assert tab.d == abs(fs[pi])

    check()
    if not width:
        assert repacks, "no tableau outgrew its 8-bit lanes"


def test_pivot_over_a_wrong_denominator_raises():
    # rows that are not d times a pivot-reachable tableau leave a remainder;
    # the guard must raise even under python -O
    tab = simplex._Tableau([[2, 1], [1, 1]], 3)
    with pytest.raises(RuntimeError, match="denominator"):
        tab.pivot(0, 0, tab.decode(*tab.X)[::tab.cells])
    # [1/3, 1] and [1, 1/3] over the lcm of their denominators, 3, not their product
    tab = simplex._Tableau([[1, 3], [3, 1]], 3)
    with pytest.raises(RuntimeError, match="denominator"):
        tab.pivot(0, 0, tab.decode(*tab.X)[::tab.cells])


def test_warm_restart_with_fractional_columns_stays_exact():
    # appended columns over a denominator in each row: the restarted tableau
    # goes over the product of those denominators, as a cold start does, so
    # every pivot divides exactly (over their lcm, 2, the first would not)
    A, b, c = [[1, 0], [0, 1]], [1, 1], [0, 0]
    res = solve_standard(A, b, c)
    assert res.warm is not None
    A2 = [[1, 0, F(1, 2), 0], [0, 1, 0, F(1, 2)]]
    c2 = [0, 0, -1, -1]
    warm = solve_standard(A2, b, c2, warm=res.warm)
    assert warm.x == [0, 0, 2, 2] and warm.objective == -4
    check_result(A2, b, c2, warm)


def test_wide_coefficients_widen_lanes(monkeypatch):
    # rows scaled by different factors near 2^70 outgrow 64-bit lanes; the
    # optimum is nondegenerate, so x and the objective stay, and y scales back
    widths = []
    real_widen = simplex._Tableau.widen

    def widen(self, b, flat=None):
        real_widen(self, b, flat)
        widths.append(self.w)
    monkeypatch.setattr(simplex._Tableau, "widen", widen)
    A = [[1, 1, 1, 0], [1, 3, 0, 1]]
    b = [4, 6]
    c = [-1, -2, 0, 0]
    plain = solve_standard(A, b, c)
    s = [2 ** 70 + 1, 2 ** 70 - 3]
    A2 = [[si * v for v in row] for si, row in zip(s, A)]
    b2 = [si * v for si, v in zip(s, b)]
    wide = solve_standard(A2, b2, c)
    assert max(widths) > 64
    assert wide.status == plain.status == "optimal"
    assert wide.x == plain.x and wide.objective == plain.objective
    assert [y * si for y, si in zip(wide.y, s)] == plain.y
    check_dual(A2, b2, c, wide)


def test_random_lps_with_64_bit_lanes(monkeypatch):
    # the same properties when every tableau starts at 64-bit lanes, not 8
    monkeypatch.setattr(simplex, "_WIDTH", 64)
    test_random_lps_certified_and_match_highs()


@pytest.mark.parametrize("w", [8, 16, 32, 64, 128, 256])
def test_wide_lanes_round_trip(monkeypatch, w):
    # the one lane format at every width: dense rows as a tableau packs them,
    # and a zeroed row filled entry by entry as MemberTable fills it, each
    # pack to sum r_k 2^(w k) and decode to the entries packed
    monkeypatch.setattr(simplex, "_WIDTH", w)
    entries = st.integers(1 - 2 ** (w - 1), 2 ** (w - 1) - 1) | st.just(0)
    shapes = st.tuples(st.integers(1, 4), st.integers(1, 9))

    @settings(max_examples=100, deadline=None)
    @given(shapes.flatmap(lambda mn: st.lists(st.lists(entries, min_size=mn[1], max_size=mn[1]),
                                              min_size=mn[0], max_size=mn[0])))
    def check(rows):
        tab = simplex._Tableau(rows, 1)
        assert tab.w == w
        lanes = Lanes(w, tab.cells)
        packed = [sum(v << (w * k) for k, v in enumerate(row)) for row in rows]
        assert tab.X == lanes.encode([v for row in rows for v in row]) == packed
        assert [tab.row(i) for i in range(len(rows))] == rows
        assert tab.decode(*tab.X) == [v for row in rows for v in row]
        for row, x in zip(rows, packed):
            zeroed = lanes.zeros()
            for k, v in enumerate(row):
                if v:
                    zeroed[k] = v
            assert lanes.encode(zeroed) == [x] and lanes.decode(x) == row

    check()


@pytest.mark.parametrize("w", [8, 16, 32, 64, 128, 256])
def test_packed_rows_combine_linearly(w):
    # the exact kernel's row operations are int operations on whole packed
    # rows: a.X1 - f.X2 packs a.r1 - f.r2, and decodes to it, while that fits
    half = 2 ** (w // 2 - 1) - 1  # |a.u - f.v| <= 2.half^2 < 2^(w-1)
    small = st.integers(-half, half) | st.sampled_from([-half, half])
    pairs = st.integers(1, 9).flatmap(
        lambda n: st.tuples(*[st.lists(small, min_size=n, max_size=n)] * 2))

    @settings(max_examples=100, deadline=None)
    @given(pairs, small, small)
    def check(rows, a, f):
        r1, r2 = rows
        combo = [a * u - f * v for u, v in zip(r1, r2)]
        assert max(map(abs, combo)) < 2 ** (w - 1)
        lanes = Lanes(w, len(r1))
        (x1, x2), (x,) = lanes.encode(r1 + r2), lanes.encode(combo)
        assert x == a * x1 - f * x2
        assert lanes.decode(x) == combo
        assert lanes.decode(x1, x2) == r1 + r2

    check()


def _solve_fractions(M, rhs):
    """The y with M y = rhs for a square invertible M, by Fraction Gauss-Jordan."""
    T = [[F(v) for v in row] + [F(r)] for row, r in zip(M, rhs)]
    for col in range(len(T)):
        piv = next(r for r in range(col, len(T)) if T[r][col] != 0)
        T[col], T[piv] = T[piv], T[col]
        T[col] = [v / T[col][col] for v in T[col]]
        for r in range(len(T)):
            if r != col and T[r][col]:
                T[r] = [a - T[r][col] * v for a, v in zip(T[r], T[col])]
    return [row[-1] for row in T]


@pytest.mark.parametrize("width", [None, 64])
def test_duals_solve_the_recorded_basis(monkeypatch, width):
    # y read off the final tableau is the one y with y.B = c_B, for the
    # basis the restart records, after cold and warm solves alike
    if width:
        monkeypatch.setattr(simplex, "_WIDTH", width)
    checked = []

    def check_basis(A, c, res):
        basis = res.warm.basis
        assert len(basis) == len(A) and all(j < len(c) for j in basis)
        M = [[A[i][j] for i in range(len(A))] for j in basis]
        assert res.y == _solve_fractions(M, [c[j] for j in basis])
        checked.append(len(A))

    # derandomized: the count asserted below depends on which examples are drawn
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_lps())
    def check(lp):
        A, b, c, extra = lp
        res = solve_standard(A, b, c)
        if res.warm is None:
            return
        check_basis(A, c, res)
        A2 = [row + [col[i] for col in extra] for i, row in enumerate(A)]
        c2 = c + [col[-1] for col in extra]
        again = solve_standard(A2, b, c2, warm=res.warm)
        if again.warm is not None:
            check_basis(A2, c2, again)

    check()
    assert len(checked) > 30, "too few optimal solves kept a restart"


# ---------------------------------------------------------------------------
# every pivot against a dense Fraction oracle that shares no code with the package

from recheck import simplex_steps  # noqa: E402

_entries = st.sampled_from([0, 0, 0, 1, 1, -1, 2, -2, F(1, 2), F(-1, 3), F(3, 2), F(2, 5)])


@st.composite
def oracle_lps(draw):
    """Sparse rational LPs, half of them feasible by construction and zero rhs
    entries making many degenerate, with some rows repeated up to scale and
    columns to append for a warm re-solve."""
    m, nc = draw(st.integers(1, 5)), draw(st.integers(1, 7))
    A = [draw(st.lists(_entries, min_size=nc, max_size=nc)) for _ in range(m)]
    if draw(st.booleans()):  # b = A x0 for some x0 >= 0
        x0 = draw(st.lists(st.sampled_from([0, 0, 1, 2, F(1, 2)]), min_size=nc, max_size=nc))
        b = [sum(a * x for a, x in zip(row, x0)) for row in A]
    else:
        b = draw(st.lists(_entries, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 1))):
        k, s = draw(st.integers(0, m - 1)), draw(st.sampled_from([F(1), F(-2), F(1, 3)]))
        A.append([s * v for v in A[k]])
        b.append(s * b[k])
    c = draw(st.lists(_entries, min_size=nc, max_size=nc))
    extra = draw(st.lists(st.lists(_entries, min_size=len(A) + 1, max_size=len(A) + 1),
                          min_size=1, max_size=3))
    return A, b, c, extra


def test_pivots_match_a_dense_fraction_oracle(monkeypatch):
    # the same (row, column) pivots, per-phase counts, status, x, y and ray as a
    # dense two-phase simplex with the same rules, cold and warm with columns
    # appended
    steps = []
    real_pivot = simplex._Tableau.pivot

    def pivot(self, r, col, fs):
        steps.append((r, col))
        real_pivot(self, r, col, fs)
    monkeypatch.setattr(simplex._Tableau, "pivot", pivot)
    seen = Counter()

    def agree(A, b, c, warm=None, restart=None):
        steps.clear()
        res = solve_standard(A, b, c, warm=warm)
        want = simplex_steps(A, b, c, restart)
        assert (res.status, steps, list(res.pivots)) == (want["status"], want["steps"], want["pivots"])
        assert (res.x, res.y, res.ray) == (want["x"], want["y"], want["ray"])
        assert (res.warm is None) == (want["restart"] is None)
        seen[res.status, warm is not None] += 1
        # a basic variable at 0: a degenerate vertex
        seen["degenerate"] += res.warm is not None and any(res.x[j] == 0 for j in res.warm.basis)
        return res, want

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(oracle_lps())
    def check(lp):
        A, b, c, extra = lp
        res, want = agree(A, b, c)
        if res.warm is not None:
            A2 = [row + [col[i] for col in extra] for i, row in enumerate(A)]
            agree(A2, b, c + [col[-1] for col in extra], res.warm, want["restart"])

    check()
    assert min(seen[status, False] for status in ("optimal", "infeasible", "unbounded")) >= 20, seen
    assert seen["optimal", True] >= 25 and seen["unbounded", True] >= 2, seen
    assert seen["degenerate"] >= 30, seen


# ---------------------------------------------------------------------------
# the float stack: HiGHS's compiled module, driven on column lists

import itertools  # noqa: E402
import sys  # noqa: E402

from ingletonlp import certify, ingen  # noqa: E402
from ingletonlp.entspace import IngletonQuad, LinExpr, ingleton_expr, parse_expr  # noqa: E402


def _dense(exprs, masks, sign=1):
    """One float list per expression: its coefficient on each mask, times sign."""
    return [[sign * float(e.coeffs.get(m, 0)) for m in masks] for e in exprs]


def test_float_columns_match_the_dense_coefficients():
    # Delta at n=4, a Fraction coefficient and an all-zero row, over the
    # column order a certify cone system gives its masks
    exprs = [ci.expr for ci in ingen.gen_delta(4)]
    exprs += [parse_expr("+1/2*h{1} -3*h{2,3}", 4), LinExpr.zero(4)]
    masks = sorted({m for e in exprs for m in e.coeffs})
    index = {m: i for i, m in enumerate(masks)}
    for sign in (1, -1):
        cols = simplex.float_columns((e.coeffs for e in exprs), index, sign)
        assert len(cols) == len(masks)
        dense = [[0.0] * len(masks) for _ in exprs]
        for j, (rows, vals) in enumerate(cols):
            assert rows == sorted(set(rows)) and len(vals) == len(rows)  # rows ascend
            for i, v in zip(rows, vals):
                dense[i][j] = v
        assert dense == _dense(exprs, masks, sign)


def _assert_is_scipys(mine, ref, models):
    """simplex.linprog handed HiGHS scipy.optimize.linprog's model, entry order
    included, and got scipy's answer, bit for bit."""
    ours, theirs = models
    assert len(ours) == len(theirs) == 1 and ours.pop() == theirs.pop()
    assert mine.status == ref.status
    if ref.status == 0:
        assert list(mine.x) == list(ref.x) and mine.fun == ref.fun
        assert list(mine.duals) == list(ref.ineqlin.marginals)
    else:
        assert (mine.x, mine.fun, ref.x, ref.fun) == (None, None, None, None)


def test_linprog_is_scipys_on_every_n4_drop_one_witness_lp(highs_models):
    # the separating-direction LP of each member against the rest, as the
    # drop-one scan poses it on the columns it slices out of the full system
    gens = [ci.expr for ci in ingen.gen_delta(4)]
    full = certify._ConeSystem(gens)
    full.float_gens()
    for k, target in enumerate(gens):
        sub, rest = full.without(k), gens[:k] + gens[k + 1:]
        cost, zeros = [float(target.coeffs.get(m, 0)) for m in sub.masks], [0.0] * len(rest)
        mine = simplex.linprog(cost, A_ub=sub.float_gens(), b_ub=zeros, bounds=(-1, 1))
        ref = linprog(cost, A_ub=_dense(rest, sub.masks, -1), b_ub=zeros, bounds=(-1, 1),
                      method="highs")
        _assert_is_scipys(mine, ref, highs_models)
        assert mine.status == 0 and mine.fun < 0


def test_linprog_is_scipys_on_every_n3_quad_feasibility_presolve(highs_models):
    # every distinct Ingleton target of the 4,096 quads at n=3 that decide
    # hands to the feasibility LP over Delta
    gens = [ci.expr for ci in ingen.gen_delta(3)]
    system = certify._ConeSystem(gens)
    targets = {t.key(): t for t in (ingleton_expr(IngletonQuad(3, *q))
                                    for q in itertools.product(range(8), repeat=4))}
    posed = [t for t in targets.values() if not t.is_zero()
             and t.key() not in system._exact_keys and set(t.coeffs) <= set(system.index)]
    assert len(posed) > 20
    a_eq = [list(col) for col in zip(*_dense(gens, system.masks))]
    for t in posed:
        b = [float(t.coeffs.get(m, 0)) for m in system.masks]
        mine = simplex.linprog([0.0] * len(gens), A_eq=system.float_cone(), b_eq=b)
        ref = linprog([0.0] * len(gens), A_eq=a_eq, b_eq=b, method="highs")
        _assert_is_scipys(mine, ref, highs_models)
        assert mine.status == 0  # below four elements every Ingleton inequality holds


def test_linprog_is_scipys_on_infeasible_and_unbounded_lps(highs_models):
    # x1 + x2 = -1 has no point with x >= 0; min -x1 - x2 over x1 - x2 <= 1 falls forever
    one = [([0], [1.0]), ([0], [1.0])]
    mine = simplex.linprog([1.0, 1.0], A_eq=one, b_eq=[-1.0])
    ref = linprog([1.0, 1.0], A_eq=[[1.0, 1.0]], b_eq=[-1.0], method="highs")
    _assert_is_scipys(mine, ref, highs_models)
    assert mine.status == 2
    diff = [([0], [1.0]), ([0], [-1.0])]
    mine = simplex.linprog([-1.0, -1.0], A_ub=diff, b_ub=[1.0])
    ref = linprog([-1.0, -1.0], A_ub=[[1.0, -1.0]], b_ub=[1.0], method="highs")
    _assert_is_scipys(mine, ref, highs_models)
    assert mine.status == 3


def test_missing_highs_core_names_the_scipy_it_needs(monkeypatch):
    # no fallback to scipy.optimize.linprog: without the compiled module, say what is needed
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core", raising=False)
    monkeypatch.setattr(simplex, "EXTENSION_SUFFIXES", [".no-such-suffix"])
    with pytest.raises(ImportError, match=r"scipy>=1\.15"):
        simplex._highs.__wrapped__()


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exact_columns_match_the_dense_coefficients(data):
    # int and Fraction coefficients, both signs, rows in any index order
    n = data.draw(st.integers(2, 4))
    masks = data.draw(st.permutations(range(1, 2 ** n)))
    coeff = st.one_of(st.integers(-5, 5), _rationals)
    exprs = [LinExpr(n, d) for d in data.draw(st.lists(
        st.dictionaries(st.sampled_from(masks), coeff, max_size=6), max_size=6))]
    index = {m: i for i, m in enumerate(masks)}
    for sign in (1, -1):
        dense = [[sign * e.coeffs.get(m, 0) for e in exprs] for m in masks]
        assert simplex.exact_columns(exprs, index, sign) == dense
