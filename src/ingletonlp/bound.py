"""Exact LP bounds over the basic or Ingleton cone.

Problems are optimized in exact rational arithmetic.  The exact solve
runs on the multiplier (dual) system, whose row count is the coordinate
count 2^n - 1 rather than the cone size; cone members enter as columns
and are generated lazily whenever a candidate point or ray still
violates one.  A floating-point presolve only seeds the starting
columns and never decides anything.  Every returned result carries a
certificate that `verify_bound_result` re-checks independently: a
primal point plus dual multipliers reproducing the optimum, an
infeasibility combination, or a feasible point plus an improving ray.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import ingen
from .entspace import (
    EntropyVector,
    LinExpr,
    accumulate,
    check_n,
    cond_entropy_expr,
    elements_of,
    evaluate,
    format_vector_pairs,
    parse_rational,
    report_text,
)
from .simplex import linprog, solve_standard

CONE_GAMMA = "gamma"
CONE_GAMMA_IN = "gamma-in"
RELATIONS = ("<=", "=", ">=")
SENSES = ("max", "min")


@dataclass(frozen=True)
class BoundProblem:
    n: int
    cone: str
    sense: str
    objective: LinExpr
    constraints: tuple[tuple[LinExpr, str, Fraction], ...]

    def __post_init__(self):
        check_n(self.n)
        if self.cone not in (CONE_GAMMA, CONE_GAMMA_IN):
            raise ValueError(f"unknown cone {self.cone!r}")
        if self.sense not in SENSES:
            raise ValueError(f"unknown sense {self.sense!r}")
        if self.objective.n != self.n:
            raise ValueError("objective ground set differs from problem")
        for expr, rel, _rhs in self.constraints:
            if expr.n != self.n:
                raise ValueError("constraint ground set differs from problem")
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")


@dataclass(frozen=True)
class DualCertificate:
    """Multipliers reproducing the optimum as a combination of rows.

    For sense=max:  objective == sum(user[j]*lhs_j) - sum(cone coeff*gen)
    and value == sum(user[j]*rhs_j), with cone coeffs >= 0 and user signs
    >= 0 on <= rows, <= 0 on >= rows, free on = rows.  For sense=min the
    cone combination enters with + and the user signs flip.
    """

    user: tuple[Fraction, ...]
    cone: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Multipliers with sum(user[j]*lhs_j) + sum(cone)*gens == 0 yet
    sum(user[j]*rhs_j) > 0; user signs <= 0 on <= rows, >= 0 on >= rows."""

    user: tuple[Fraction, ...]
    cone: tuple[tuple[int, Fraction], ...]


@dataclass(frozen=True)
class BoundResult:
    status: str  # optimal | infeasible | unbounded
    value: Fraction | None = None
    primal: EntropyVector | None = None
    dual: DualCertificate | None = None
    farkas: InfeasibilityCertificate | None = None
    ray: EntropyVector | None = None


# the family whose inequalities cut out each cone
_CONE_FAMILY = {CONE_GAMMA: "elemental", CONE_GAMMA_IN: "delta"}


def _cone_family(cone: str) -> str:
    try:
        return _CONE_FAMILY[cone]
    except KeyError:
        raise ValueError(f"unknown cone {cone!r}") from None


def cone_members(n: int, cone: str,
                 budget: int | None = ingen.DEFAULT_BUDGET) -> list[ingen.CanonicalInequality]:
    # the list builder is looked up when called, so a rebound gen_* is the one used
    return getattr(ingen, "gen_" + _cone_family(cone))(n, budget=budget)


def membership(h: EntropyVector, cone: str,
               budget: int | None = ingen.DEFAULT_BUDGET):
    """(True, None) if h satisfies every member, else (False, first violated).

    The members are enumerated lazily, so the scan stops at the first
    violated one without building the family.
    """
    members = ingen.family(_cone_family(cone), h.n, budget=budget)
    for ci in members:
        if evaluate(ci.expr, h) < 0:
            return False, ci
    return True, None


# ---------------------------------------------------------------------------
# solving


def _entropy_decomposition(n: int, alpha: int) -> list[tuple]:
    """h(alpha) as a coefficient-1 sum of elemental forms, as payload keys."""
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
            keys.append(("I", lo, hi, cur))
            cur |= bj
        keys.append(("H", a))
    return keys


def _elemental_index(members) -> dict[tuple, int]:
    by_key = {}
    for idx, ci in enumerate(members):
        kind = ingen.shape(ci.kind)
        if kind == ingen.KIND_DELTA2:
            by_key[("H", ci.payload[0])] = idx
        elif kind == ingen.KIND_DELTA1:
            by_key[("I",) + ci.payload] = idx
    return by_key


class _DualAssembly:
    """Exact multiplier system: coordinates are rows, inequalities columns.

    The tableau height stays at 2^n - 1 no matter how many cone members
    exist, so large families only cost columns, which can be generated
    lazily.  The solver's row duals hand back the point (or improving
    ray) on the original side in one solve.
    """

    def __init__(self, problem: BoundProblem, glist: list[LinExpr]):
        self.p = problem
        self.glist = glist
        self.dim = 2 ** problem.n - 1
        # assembled <= rows; >= rows enter negated so one sign rule applies
        self.ub: list[tuple[LinExpr, Fraction]] = []
        self.eq: list[tuple[LinExpr, Fraction]] = []
        self.user_map: list[tuple[str, int, bool]] = []
        for expr, rel, rhs in problem.constraints:
            if rel == "=":
                self.user_map.append(("eq", len(self.eq), False))
                self.eq.append((expr, rhs))
            elif rel == ">=":
                self.user_map.append(("ub", len(self.ub), True))
                self.ub.append((-expr, -rhs))
            else:
                self.user_map.append(("ub", len(self.ub), False))
                self.ub.append((expr, rhs))

    def solve(self, chosen: list[int], objective: LinExpr, warm=None):
        """Multiplier variables: user rows, surpluses, chosen cone columns.

        The cone block sits last so column ids stay stable while columns
        are appended, which lets the previous basis warm-start the next
        solve.
        """
        m2, m3, nk, dim = len(self.ub), len(self.eq), len(chosen), self.dim
        width = m2 + 2 * m3 + dim + nk
        rows = []
        b = []
        base = m2 + 2 * m3 + dim
        for alpha in range(1, dim + 1):
            row = [0] * width
            for j, (u, _e) in enumerate(self.ub):
                c = u.coeffs.get(alpha)
                if c:
                    row[j] = c
            for i, (f, _r) in enumerate(self.eq):
                c = f.coeffs.get(alpha)
                if c:
                    row[m2 + i] = c
                    row[m2 + m3 + i] = -c
            row[m2 + 2 * m3 + alpha - 1] = -1
            for pos, k in enumerate(chosen):
                c = self.glist[k].coeffs.get(alpha)
                if c:
                    row[base + pos] = -c
            rows.append(row)
            b.append(objective.coeffs.get(alpha, 0))
        cost = ([e for _u, e in self.ub] + [r for _f, r in self.eq]
                + [-r for _f, r in self.eq] + [0] * (dim + nk))
        return solve_standard(rows, b, cost, warm=warm)

    def split(self, w, chosen):
        """(mu, nu, lam, surplus) blocks of a multiplier vector."""
        m2, m3, dim = len(self.ub), len(self.eq), self.dim
        mu = w[:m2]
        nu = [w[m2 + i] - w[m2 + m3 + i] for i in range(m3)]
        base = m2 + 2 * m3
        return mu, nu, w[base + dim:], w[base:base + dim]


# most violated members priced in per round
_PRICE_CAP = 256


def _price(glist, kset, vec) -> list[int]:
    """Cone members violated at vec, worst first, at most _PRICE_CAP of them."""
    bad = [(v, k) for k in range(len(glist)) if k not in kset
           and (v := evaluate(glist[k], vec)) < 0]
    bad.sort()
    return [k for _v, k in bad[:_PRICE_CAP]]


def _float_seed(problem: BoundProblem, glist: list[LinExpr]) -> list[int]:
    """Float presolve; guesses which cone rows matter.  Never decides."""
    dim = 2 ** problem.n - 1
    dense = lambda e: [float(e.coeffs.get(m, 0)) for m in range(1, dim + 1)]
    a_ub = [[-c for c in dense(g)] for g in glist]
    b_ub = [0.0] * len(glist)
    a_eq, b_eq = [], []
    for expr, rel, rhs in problem.constraints:
        if rel == "<=":
            a_ub.append(dense(expr))
            b_ub.append(float(rhs))
        elif rel == ">=":
            a_ub.append([-c for c in dense(expr)])
            b_ub.append(-float(rhs))
        else:
            a_eq.append(dense(expr))
            b_eq.append(float(rhs))
    cost = [-c for c in dense(problem.objective)]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq or None, b_eq=b_eq or None,
                  bounds=(0, None), method="highs")
    if res.status != 0:
        return []
    marg = res.ineqlin.marginals if res.ineqlin is not None else None
    if marg is None:
        slack = res.slack
        return [k for k in range(len(glist)) if abs(slack[k]) <= 1e-7]
    # dual support is at most basis-sized; tight-but-unused rows would
    # bloat the exact solve on degenerate vertices
    return [k for k in range(len(glist)) if abs(marg[k]) > 1e-9]


# below this size every cone member enters up front; one exact solve
_ALL_COLUMNS_LIMIT = 800


def _close(asm: _DualAssembly, glist, chosen: list[int], objective: LinExpr):
    """Solve over chosen columns, pricing in violated members until none is left.

    Returns the last solve and the columns it ran over.  Each re-solve
    starts from the previous basis; only an optimal solve has a point
    (its row duals) to price, so any other status ends the loop.
    """
    kset = set(chosen)
    warm = None
    for _round in range(len(glist) + 10):
        res = asm.solve(chosen, objective, warm=warm)
        warm = res.warm
        if res.status != "optimal":
            return res, chosen
        add = _price(glist, kset, EntropyVector(asm.p.n, res.y))
        if not add:
            return res, chosen
        kset.update(add)
        chosen = chosen + sorted(add)
    raise RuntimeError("column generation failed to close")


def _solve_max(problem: BoundProblem, members, glist) -> BoundResult:
    """Column generation over cone members; problem.sense must be max."""
    asm = _DualAssembly(problem, glist)
    if len(glist) <= _ALL_COLUMNS_LIMIT:
        chosen = list(range(len(glist)))
    else:
        chosen = sorted(set(_float_seed(problem, glist)))
    for _round in range(len(glist) + 10):
        res, chosen = _close(asm, glist, chosen, problem.objective)
        # optimal is the answer; unbounded multipliers mean nothing satisfies
        # the constraint rows, and dropping cone columns only relaxed them
        if res.status != "infeasible":
            return _result(problem, members, asm, chosen, res)
        # no multiplier combination covers the objective over these
        # columns: the rows admit no point, or an improving ray exists
        out = _feasible_point(problem, members, glist, asm, chosen)
        if isinstance(out, BoundResult):
            return out
        ray, bound_ids = _improving_ray(problem, members, glist, chosen)
        if ray is not None:
            return BoundResult(status="unbounded", primal=out, ray=ray)
        # the no-ray certificate is itself a multiplier combination
        # covering the objective, so these columns restore feasibility
        new = sorted(set(bound_ids) - set(chosen))
        if not new:
            raise RuntimeError("boundedness certificate added no columns")
        chosen = chosen + new
    raise RuntimeError("column generation failed to close")


def _improving_ray(problem, members, glist, chosen):
    """Confirmed improving direction, or the cone ids proving none exists.

    Any improving ray scales to objective value one, so the homogenized
    rows plus that normalization form a system whose points are exactly
    the rays sought.
    """
    cons = tuple((expr, rel, Fraction(0)) for expr, rel, _r in problem.constraints)
    cons += ((problem.objective, "=", Fraction(1)),)
    mod = BoundProblem(problem.n, problem.cone, "max",
                       LinExpr.zero(problem.n), cons)
    masm = _DualAssembly(mod, glist)
    out = _feasible_point(mod, members, glist, masm, list(chosen))
    if isinstance(out, BoundResult):
        return None, [k for k, _cf in out.farkas.cone]
    return out, None


def _feasible_point(problem, members, glist, asm: _DualAssembly, chosen):
    """Point satisfying every row, or a BoundResult proving there is none."""
    res, chosen = _close(asm, glist, chosen, LinExpr.zero(problem.n))
    if res.status == "infeasible":
        raise RuntimeError("zero-objective system cannot be infeasible")
    if res.status == "unbounded":
        return _result(problem, members, asm, chosen, res)
    return EntropyVector(problem.n, res.y)


def _cone_fold(problem, members, asm: _DualAssembly, chosen, w) -> dict:
    """Cone multipliers: the lambda block plus surpluses folded back in.

    A surplus on coordinate alpha weights the bound x_alpha >= 0, which
    the cone already implies; rewriting h(alpha) as a coefficient-1 sum
    of single-element forms turns it into ordinary cone multipliers.
    """
    _mu, _nu, lam_block, surplus = asm.split(w, chosen)
    lam: dict[int, Fraction] = {}
    for pos, k in enumerate(chosen):
        if lam_block[pos]:
            lam[k] = Fraction(lam_block[pos])
    by_key = _elemental_index(members)
    for alpha in range(1, asm.dim + 1):
        gap = surplus[alpha - 1]
        if gap:
            for key in _entropy_decomposition(problem.n, alpha):
                idx = by_key[key]
                lam[idx] = lam.get(idx, Fraction(0)) + gap
    return lam


def _user_multipliers(asm: _DualAssembly, w, chosen, negate: bool) -> list:
    """Per original constraint; negate undoes the assembly for Farkas use."""
    mu, nu, _lam, _s = asm.split(w, chosen)
    out = []
    for block, idx, flipped in asm.user_map:
        v = mu[idx] if block == "ub" else nu[idx]
        if flipped != negate:
            v = -v
        out.append(Fraction(v))
    return out


def _result(problem, members, asm, chosen, res) -> BoundResult:
    """The optimum of an optimal multiplier solve, or the infeasibility
    certificate read off the ray of an unbounded one."""
    optimal = res.status == "optimal"
    w = res.x if optimal else res.ray
    lam = _cone_fold(problem, members, asm, chosen, w)
    user = tuple(_user_multipliers(asm, w, chosen, negate=not optimal))
    cone = tuple(sorted((k, cf) for k, cf in lam.items() if cf))
    if optimal:
        return BoundResult(status="optimal", value=Fraction(res.objective),
                           primal=EntropyVector(problem.n, res.y),
                           dual=DualCertificate(user=user, cone=cone))
    return BoundResult(status="infeasible",
                       farkas=InfeasibilityCertificate(user=user, cone=cone))


def solve_bound(problem: BoundProblem, extra_inequalities=None, members=None) -> BoundResult:
    """Exact optimum with a re-verified certificate for whichever status holds.

    `members` is the problem's cone family when the caller has built it
    already; otherwise it is generated here.
    """
    if members is None:
        members = cone_members(problem.n, problem.cone)
    extras = [e for e in (extra_inequalities or [])]
    for e in extras:
        if e.n != problem.n:
            raise ValueError("extra inequality ground set differs from problem")
    glist = [ci.expr for ci in members] + extras

    flipped = problem.sense == "min"
    inner = problem
    if flipped:
        inner = BoundProblem(problem.n, problem.cone, "max",
                             -problem.objective, problem.constraints)
    result = _solve_max(inner, members, glist)
    if flipped:
        result = _flip_sense(result)
    if not verify_bound_result(problem, result, extra_inequalities=extras, members=members):
        raise RuntimeError("certificate failed verification")
    return result


def _flip_sense(result: BoundResult) -> BoundResult:
    """Map a max answer for the negated objective back to the min problem."""
    if result.status == "optimal":
        dual = DualCertificate(user=tuple(-u for u in result.dual.user),
                               cone=result.dual.cone)
        return BoundResult(status="optimal", value=-result.value,
                           primal=result.primal, dual=dual)
    return result


# ---------------------------------------------------------------------------
# verification (exact, no solver state)


def verify_bound_result(problem: BoundProblem, result: BoundResult,
                        extra_inequalities=None, members=None) -> bool:
    """Re-check result's certificate exactly; `members` as in solve_bound."""
    if members is None:
        members = cone_members(problem.n, problem.cone)
    glist = [ci.expr for ci in members] + [e for e in (extra_inequalities or [])]
    if result.status == "optimal":
        maximize = problem.sense == "max"
        return (_check_rows(problem, glist, result.primal, homogeneous=False)
                and evaluate(problem.objective, result.primal) == result.value
                and _combination(problem, glist, result.dual, "<=" if maximize else ">=",
                                 -1 if maximize else 1)
                == (problem.objective.coeffs, result.value))
    if result.status == "infeasible":
        comb = _combination(problem, glist, result.farkas, ">=", 1)
        return comb is not None and not comb[0] and comb[1] > 0
    if result.status == "unbounded":
        if not (_check_rows(problem, glist, result.primal, homogeneous=False)
                and _check_rows(problem, glist, result.ray, homogeneous=True)):
            return False
        gain = evaluate(problem.objective, result.ray)
        return gain > 0 if problem.sense == "max" else gain < 0
    return False


def _check_rows(problem, glist, point, homogeneous: bool) -> bool:
    """point satisfies every cone member and constraint row; homogeneous
    checks the rows against zero right-hand sides, as a ray must."""
    if point is None or point.n != problem.n:
        return False
    if any(evaluate(g, point) < 0 for g in glist):
        return False
    for expr, rel, rhs in problem.constraints:
        v = evaluate(expr, point)
        if homogeneous:
            rhs = 0
        if rel == "<=" and v > rhs:
            return False
        if rel == ">=" and v < rhs:
            return False
        if rel == "=" and v != rhs:
            return False
    return True


def _combination(problem, glist, cert, pos_rel: str, cone_sign: int):
    """(coefficients, rhs total) of cert's multiplier combination of the rows.

    None when cert is missing, has the wrong length, or breaks a sign rule:
    cone multipliers must be >= 0, user multipliers >= 0 on pos_rel rows
    and <= 0 on the mirror relation.  The cone members enter with cone_sign.
    """
    if cert is None or len(cert.user) != len(problem.constraints):
        return None
    if any(cf < 0 for _k, cf in cert.cone):
        return None
    neg_rel = ">=" if pos_rel == "<=" else "<="
    for u, (_e, rel, _r) in zip(cert.user, problem.constraints):
        if (rel == pos_rel and u < 0) or (rel == neg_rel and u > 0):
            return None
    rows = [(u, expr) for u, (expr, _rel, _rhs) in zip(cert.user, problem.constraints)]
    acc = accumulate(rows + [(cone_sign * cf, glist[k]) for k, cf in cert.cone])
    total = sum((u * rhs for u, (_e, _rel, rhs) in zip(cert.user, problem.constraints)),
                Fraction(0))
    return acc, total


# ---------------------------------------------------------------------------
# network compilation


@dataclass(frozen=True)
class NetworkEdge:
    ident: str
    inputs: tuple[str, ...]
    cap: Fraction


@dataclass(frozen=True)
class NetworkSink:
    ident: str
    wants: tuple[str, ...]
    sees: tuple[str, ...]


@dataclass(frozen=True)
class NetworkDescription:
    sources: tuple[str, ...]
    edges: tuple[NetworkEdge, ...]
    sinks: tuple[NetworkSink, ...]


def _validate_network(net: NetworkDescription) -> None:
    names = list(net.sources) + [e.ident for e in net.edges]
    if len(set(names)) != len(names):
        raise ValueError("duplicate source/edge id")
    sink_ids = [s.ident for s in net.sinks]
    if len(set(sink_ids)) != len(sink_ids):
        raise ValueError("duplicate sink id")
    known = set(names)
    sources = set(net.sources)
    edge_by_id = {e.ident: e for e in net.edges}
    for e in net.edges:
        if not e.inputs:
            raise ValueError(f"edge {e.ident} has no inputs")
        if e.cap < 0:
            raise ValueError(f"edge {e.ident} has negative capacity")
        for ref in e.inputs:
            if ref not in known:
                raise ValueError(f"edge {e.ident} references unknown id {ref}")
    for s in net.sinks:
        if not s.wants or not s.sees:
            raise ValueError(f"sink {s.ident} needs wants and sees lists")
        for ref in s.sees:
            if ref not in known:
                raise ValueError(f"sink {s.ident} sees unknown id {ref}")
        for ref in s.wants:
            if ref not in sources:
                raise ValueError(f"sink {s.ident} demands non-source id {ref}")
    # cycle check over edge -> input-edge references
    state: dict[str, int] = {}

    def visit(eid: str) -> None:
        state[eid] = 1
        for ref in edge_by_id[eid].inputs:
            if ref in edge_by_id:
                if state.get(ref) == 1:
                    raise ValueError(f"cycle through edge {ref}")
                if ref not in state:
                    visit(ref)
        state[eid] = 2

    for e in net.edges:
        if e.ident not in state:
            visit(e.ident)
    for s in net.sinks:
        reach = set(s.sees)
        frontier = list(s.sees)
        while frontier:
            ref = frontier.pop()
            if ref in edge_by_id:
                for up in edge_by_id[ref].inputs:
                    if up not in reach:
                        reach.add(up)
                        frontier.append(up)
        for want in s.wants:
            if want not in reach:
                raise ValueError(
                    f"sink {s.ident} cannot reach demanded source {want}")


def compile_network(net: NetworkDescription, demands=None,
                    cone: str = CONE_GAMMA_IN) -> BoundProblem:
    """Outer-bound LP: independence + functional-edge + decoding + capacity rows.

    `demands` optionally maps source ids to rate weights; unweighted runs
    maximize the plain rate sum.
    """
    _validate_network(net)
    n = len(net.sources) + len(net.edges)
    check_n(n)
    bit = {}
    for name in list(net.sources) + [e.ident for e in net.edges]:
        bit[name] = 1 << len(bit)

    def mask_of(ids) -> int:
        m = 0
        for ref in ids:
            m |= bit[ref]
        return m

    if demands is None:
        weights = {s: Fraction(1) for s in net.sources}
    else:
        unknown = set(demands) - set(net.sources)
        if unknown:
            raise ValueError(f"demand weight for non-source id {sorted(unknown)[0]}")
        weights = {s: Fraction(demands.get(s, 0)) for s in net.sources}
    objective = LinExpr.zero(n)
    for s in net.sources:
        if weights[s]:
            objective = objective + weights[s] * LinExpr.single(n, bit[s])

    cons: list[tuple[LinExpr, str, Fraction]] = []
    if len(net.sources) >= 2:
        indep = LinExpr.single(n, mask_of(net.sources))
        for s in net.sources:
            indep = indep - LinExpr.single(n, bit[s])
        cons.append((indep, "=", Fraction(0)))
    for e in net.edges:
        cons.append((cond_entropy_expr(n, bit[e.ident], mask_of(e.inputs)),
                     "=", Fraction(0)))
    for s in net.sinks:
        cons.append((cond_entropy_expr(n, mask_of(s.wants), mask_of(s.sees)),
                     "=", Fraction(0)))
    for e in net.edges:
        cons.append((LinExpr.single(n, bit[e.ident]), "<=", Fraction(e.cap)))
    return BoundProblem(n=n, cone=cone, sense="max", objective=objective,
                        constraints=tuple(cons))


# ---------------------------------------------------------------------------
# text formats


def parse_problem(text: str) -> BoundProblem:
    """Line format: `n <int>`, `cone gamma|gamma-in`, `maximize|minimize <expr>`,
    and any number of `st <expr> <=|=|>= <rational>` rows."""
    from .entspace import parse_expr
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    n = None
    for ln in lines:
        parts = ln.split()
        if parts[0] in ("n", "cone") and len(parts) != 2:
            raise ValueError(f"malformed {parts[0]} line: {ln!r}")
        if parts[0] == "n":
            if n is not None:
                raise ValueError("duplicate n line")
            n = int(parts[1])
    if n is None:
        raise ValueError("missing n line")
    cone = None
    sense = None
    objective = None
    cons = []
    for ln in lines:
        parts = ln.split()
        head = parts[0]
        if head == "n":
            continue
        if head == "cone":
            if cone is not None:
                raise ValueError("duplicate cone line")
            cone = parts[1]
        elif head in ("maximize", "minimize"):
            if objective is not None:
                raise ValueError("duplicate objective line")
            sense = "max" if head == "maximize" else "min"
            objective = parse_expr(ln[len(head):].strip(), n)
        elif head == "st":
            rel_at = None
            for i, tok in enumerate(parts):
                if tok in RELATIONS:
                    rel_at = i
                    break
            if rel_at is None or rel_at != len(parts) - 2:
                raise ValueError(f"malformed constraint: {ln!r}")
            expr = parse_expr(" ".join(parts[1:rel_at]), n)
            cons.append((expr, parts[rel_at], parse_rational(parts[-1])))
        else:
            raise ValueError(f"unknown directive {head!r}")
    if cone is None or objective is None:
        raise ValueError("problem needs cone and objective lines")
    return BoundProblem(n=n, cone=cone, sense=sense, objective=objective,
                        constraints=tuple(cons))


def parse_network(text: str) -> NetworkDescription:
    """Line format: `source s1`, `edge e1 from s1,s2 cap 1`,
    `sink t1 wants s1 sees e1,e2`."""
    sources = []
    edges = []
    sinks = []
    for raw in text.splitlines():
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if parts[0] == "source" and len(parts) == 2:
            sources.append(parts[1])
        elif (parts[0] == "edge" and len(parts) == 6
              and parts[2] == "from" and parts[4] == "cap"):
            edges.append(NetworkEdge(parts[1], tuple(parts[3].split(",")),
                                     parse_rational(parts[5])))
        elif (parts[0] == "sink" and len(parts) == 6
              and parts[2] == "wants" and parts[4] == "sees"):
            sinks.append(NetworkSink(parts[1], tuple(parts[3].split(",")),
                                     tuple(parts[5].split(","))))
        else:
            raise ValueError(f"malformed network line: {ln!r}")
    net = NetworkDescription(tuple(sources), tuple(edges), tuple(sinks))
    _validate_network(net)
    return net


def format_bound_report(problem: BoundProblem, result: BoundResult, members=None) -> str:
    if members is None:
        members = cone_members(problem.n, problem.cone)
    lines = []

    def gen_lines(tag: str, pairs):
        out = []
        for k, cf in pairs:
            if k < len(members):
                ci = members[k]
                out.append(f"{tag} gen {ci.kind} {ci.payload_text()} {cf}")
            else:
                out.append(f"{tag} extra {k - len(members)} {cf}")
        return out

    if result.status == "optimal":
        lines.append(f"value {result.value}")
        lines.append("status optimal")
        lines.append(f"primal {format_vector_pairs(result.primal)}".rstrip())
        for j, cf in enumerate(result.dual.user):
            if cf:
                lines.append(f"dual user {j + 1} {cf}")
        lines.extend(gen_lines("dual", result.dual.cone))
    elif result.status == "infeasible":
        lines.append("status infeasible")
        for j, cf in enumerate(result.farkas.user):
            if cf:
                lines.append(f"farkas user {j + 1} {cf}")
        lines.extend(gen_lines("farkas", result.farkas.cone))
    else:
        lines.append("status unbounded")
        lines.append(f"primal {format_vector_pairs(result.primal)}".rstrip())
        lines.append(f"ray {format_vector_pairs(result.ray)}".rstrip())
    lines.append("verified true")
    params = {"cone": problem.cone, "sense": problem.sense,
              "constraints": len(problem.constraints)}
    return report_text("bound", problem.n, params, lines)
