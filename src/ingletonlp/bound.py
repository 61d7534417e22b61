"""Exact LP bounds over the basic or Ingleton cone.

Problems are optimized in exact rational arithmetic.  The exact solve
runs on the multiplier (dual) system, whose row count is the coordinate
count 2^n - 1 rather than the cone size; cone members enter as columns
and are generated lazily whenever a candidate point or ray still
violates one.  A floating-point presolve only seeds the starting
columns and never decides anything.  `solve_bound` builds one cone and
one assembly, and pricing, the improving-ray search and the verification
read it.  Every returned result carries a certificate that
`verify_bound_result` re-checks independently: a primal point plus dual
multipliers reproducing the optimum, an infeasibility combination, or a
feasible point plus an improving ray.
"""

from __future__ import annotations

from fractions import Fraction

from . import ingen
from .entspace import (
    EntropyVector,
    LinExpr,
    MemberTable,
    Record,
    accumulate,
    check_n,
    cond_entropy_expr,
    elements_of,
    evaluate,
    format_vector_pairs,
    parse_rational,
    report_text,
)
from .ingen import CONE_GAMMA, CONE_GAMMA_IN
from .simplex import exact_columns, float_columns, linprog, solve_standard

RELATIONS = ("<=", "=", ">=")
SENSES = ("max", "min")


class BoundProblem(Record):
    """Optimize the objective over cone at n; constraints are (LinExpr, relation, rhs) rows."""

    __slots__ = ("n", "cone", "sense", "objective", "constraints")

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


class DualCertificate(Record):
    """Multipliers reproducing the optimum: user per row, cone as (generator id, coeff).

    For sense=max:  objective == sum(user[j]*lhs_j) - sum(cone coeff*gen)
    and value == sum(user[j]*rhs_j), with cone coeffs >= 0 and user signs
    >= 0 on <= rows, <= 0 on >= rows, free on = rows.  For sense=min the
    cone combination enters with + and the user signs flip.
    """

    __slots__ = ("user", "cone")


class InfeasibilityCertificate(Record):
    """Multipliers, as in DualCertificate, with sum(user[j]*lhs_j) + sum(cone)*gens
    == 0 yet sum(user[j]*rhs_j) > 0; user signs <= 0 on <= rows, >= 0 on >= rows."""

    __slots__ = ("user", "cone")


class BoundResult(Record):
    """status optimal | infeasible | unbounded, and what certifies it."""

    __slots__ = ("status", "value", "primal", "dual", "farkas", "ray")
    _defaults = (None,) * 5


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
            keys.append((ingen.KIND_DELTA1, (lo, hi, cur)))
            cur |= bj
        keys.append((ingen.KIND_DELTA2, (a,)))
    return keys


def _cone(problem: BoundProblem, extra_inequalities, members):
    """(members, glist, table): the cone family (generated when None), its rows
    then the extra inequalities, and those rows packed once for pricing and checks."""
    if members is None:
        members = cone_members(problem.n, problem.cone)
    extras = list(extra_inequalities or [])
    if any(e.n != problem.n for e in extras):
        raise ValueError("extra inequality ground set differs from problem")
    glist = [ci.expr for ci in members] + extras
    return members, glist, MemberTable(glist)


class _DualAssembly:
    """Exact multiplier system: coordinates are rows, inequalities columns.

    The tableau height stays at 2^n - 1 no matter how many cone members
    exist, so large families only cost columns, which can be generated
    lazily.  The solver's row duals hand back the point (or improving
    ray) on the original side in one solve.
    """

    def __init__(self, problem: BoundProblem, cone: tuple):
        self.p, self.cone = problem, cone
        self.members, self.glist, self.table = cone
        self.sign = -1 if problem.sense == "min" else 1  # min f is solved as max -f
        self.objective = self.sign * problem.objective
        self.dim = 2 ** problem.n - 1
        self.index = {m: m - 1 for m in range(1, self.dim + 1)}
        cons = problem.constraints
        # one (constraint id, sign) per user column: <= rows, >= rows negated
        # so one sign rule applies, then = rows and = rows negated
        eqs = [j for j, (_e, rel, _r) in enumerate(cons) if rel == "="]
        self.user = [(j, -1 if rel == ">=" else 1)
                     for j, (_e, rel, _r) in enumerate(cons) if rel != "="]
        self.user += [(j, 1) for j in eqs] + [(j, -1) for j in eqs]
        # the fixed block: user columns, then a -1 surplus unit per coordinate
        units = [LinExpr.single(problem.n, m, -1) for m in self.index]
        self.fixed = exact_columns([s * cons[j][0] for j, s in self.user] + units, self.index)
        self.cost = [s * cons[j][2] for j, s in self.user] + [0] * self.dim

    def solve(self, chosen: list[int], objective: LinExpr, warm=None):
        """Multiplier variables: user rows, surpluses, chosen cone columns.

        The cone block sits last so column ids stay stable while columns
        are appended, which lets the previous basis warm-start the next
        solve.
        """
        cone = exact_columns([self.glist[k] for k in chosen], self.index, sign=-1)
        rows = [f + c for f, c in zip(self.fixed, cone)]
        b = [objective.coeffs.get(m, 0) for m in self.index]
        return solve_standard(rows, b, self.cost + [0] * len(chosen), warm=warm)


# most violated members priced in per round
_PRICE_CAP = 256


def _price(asm: _DualAssembly, kset, vec) -> list[int]:
    """Cone members violated at vec, worst first, at most _PRICE_CAP of them."""
    if len(kset) == len(asm.glist):
        return []
    # one positive scale for every value, so the scaled ints sort as the values
    bad = sorted((v, k) for k, v in enumerate(asm.table.scaled(vec)) if v < 0 and k not in kset)
    return [k for _v, k in bad[:_PRICE_CAP]]


def _float_seed(asm: _DualAssembly) -> list[int]:
    """Float presolve; guesses which cone rows matter.  Never decides.

    A value beyond float range leaves nothing to presolve: the seed is
    then the elemental (Delta1/Delta2-shaped) members."""
    cons = asm.p.constraints
    ub = [(j, s) for j, s in asm.user if cons[j][1] != "="]
    eq = [(e, r) for e, rel, r in cons if rel == "="]
    try:
        # cone members g >= 0 enter as -g <= 0 beside the assembled <= rows
        rows = asm.glist + [-s * cons[j][0] for j, s in ub]
        a_ub = float_columns([e.coeffs for e in rows], asm.index, sign=-1)
        b_ub = [0.0] * len(asm.glist) + [float(s * cons[j][2]) for j, s in ub]
        cost = [-float(asm.objective.coeffs.get(m, 0)) for m in asm.index]
        a_eq = float_columns([e.coeffs for e, _r in eq], asm.index)
        b_eq = [float(r) for _e, r in eq]
    except OverflowError:
        return [k for k, ci in enumerate(asm.members)
                if ingen.shape(ci.kind) != ingen.KIND_DELTA0]
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq)
    if res.status != 0:
        return []
    # dual support is at most basis-sized; tight-but-unused rows would
    # bloat the exact solve on degenerate vertices
    marg = res.duals
    return [k for k in range(len(asm.glist)) if abs(marg[k]) > 1e-9]


# below this size every cone member enters up front; one exact solve
_ALL_COLUMNS_LIMIT = 800


def _close(asm: _DualAssembly, chosen: list[int], objective: LinExpr):
    """Solve over chosen columns, pricing in violated members until none is left.

    Returns the last solve and the columns it ran over.  Each re-solve
    starts from the previous basis; only an optimal solve has a point
    (its row duals) to price, so any other status ends the loop.
    """
    kset = set(chosen)
    warm = None
    for _round in range(len(asm.glist) + 10):
        res = asm.solve(chosen, objective, warm=warm)
        warm = res.warm
        if res.status != "optimal":
            return res, chosen
        add = _price(asm, kset, EntropyVector(asm.p.n, res.y))
        if not add:
            return res, chosen
        kset.update(add)
        chosen = chosen + sorted(add)
    raise RuntimeError("column generation failed to close")


def _solve_max(asm: _DualAssembly) -> BoundResult:
    """Column generation over the cone members, maximizing asm.objective."""
    chosen = list(range(len(asm.glist)))
    if len(chosen) > _ALL_COLUMNS_LIMIT:
        chosen = _float_seed(asm)
    for _round in range(len(asm.glist) + 10):
        res, chosen = _close(asm, chosen, asm.objective)
        # optimal is the answer; unbounded multipliers mean nothing satisfies
        # the constraint rows, and dropping cone columns only relaxed them
        if res.status != "infeasible":
            return _result(asm, chosen, res)
        # no multiplier combination covers the objective over these
        # columns: the rows admit no point, or an improving ray exists
        out = _feasible_point(asm, chosen)
        if isinstance(out, BoundResult):
            return out
        ray, bound_ids = _improving_ray(asm, chosen)
        if ray is not None:
            return BoundResult(status="unbounded", primal=out, ray=ray)
        # the no-ray certificate is itself a multiplier combination
        # covering the objective, so these columns restore feasibility
        new = sorted(set(bound_ids) - set(chosen))
        if not new:
            raise RuntimeError("boundedness certificate added no columns")
        chosen = chosen + new
    raise RuntimeError("column generation failed to close")


def _improving_ray(asm: _DualAssembly, chosen):
    """Confirmed improving direction, or the cone ids proving none exists.

    Any improving ray scales to objective value one, so the homogenized
    rows plus that normalization form a system whose points are exactly
    the rays sought.
    """
    p = asm.p
    cons = tuple((expr, rel, Fraction(0)) for expr, rel, _r in p.constraints)
    cons += ((asm.objective, "=", Fraction(1)),)
    mod = BoundProblem(p.n, p.cone, "max", LinExpr.zero(p.n), cons)
    out = _feasible_point(_DualAssembly(mod, asm.cone), list(chosen))
    if isinstance(out, BoundResult):
        return None, [k for k, _cf in out.farkas.cone]
    return out, None


def _feasible_point(asm: _DualAssembly, chosen):
    """Point satisfying every row, or a BoundResult proving there is none."""
    res, chosen = _close(asm, chosen, LinExpr.zero(asm.p.n))
    if res.status == "infeasible":
        raise RuntimeError("zero-objective system cannot be infeasible")
    if res.status == "unbounded":
        return _result(asm, chosen, res)
    return EntropyVector(asm.p.n, res.y)


def _cone_fold(asm: _DualAssembly, chosen, w) -> dict:
    """Cone multipliers: the lambda block plus surpluses folded back in.

    A surplus on coordinate alpha weights the bound x_alpha >= 0, which
    the cone already implies; rewriting h(alpha) as a coefficient-1 sum
    of single-element forms turns it into ordinary cone multipliers.
    """
    base = len(asm.user)
    surplus = w[base:base + asm.dim]
    lam: dict[int, Fraction] = {}
    for k, v in zip(chosen, w[base + asm.dim:]):
        if v:
            lam[k] = Fraction(v)
    by_key = {(ingen.shape(ci.kind), ci.payload): idx for idx, ci in enumerate(asm.members)}
    for alpha in range(1, asm.dim + 1):
        gap = surplus[alpha - 1]
        if gap:
            for key in _entropy_decomposition(asm.p.n, alpha):
                idx = by_key[key]
                lam[idx] = lam.get(idx, Fraction(0)) + gap
    return lam


def _result(asm: _DualAssembly, chosen, res) -> BoundResult:
    """The optimum of an optimal multiplier solve, its value and user multipliers
    signed back to the problem's sense, or the infeasibility certificate read
    off the ray of an unbounded one, its user multipliers undoing the assembly's."""
    optimal = res.status == "optimal"
    w = res.x if optimal else res.ray
    sign = asm.sign if optimal else -1
    user = [Fraction(0)] * len(asm.p.constraints)
    for v, (j, s) in zip(w, asm.user):
        user[j] += sign * s * v
    lam = _cone_fold(asm, chosen, w)
    cone = tuple(sorted((k, cf) for k, cf in lam.items() if cf))
    if optimal:
        return BoundResult(status="optimal", value=asm.sign * Fraction(res.objective),
                           primal=EntropyVector(asm.p.n, res.y),
                           dual=DualCertificate(user=tuple(user), cone=cone))
    return BoundResult(status="infeasible",
                       farkas=InfeasibilityCertificate(user=tuple(user), cone=cone))


def solve_bound(problem: BoundProblem, extra_inequalities=None, members=None) -> BoundResult:
    """Exact optimum with a re-verified certificate for whichever status holds.

    `members` is the problem's cone family when the caller has built it
    already; otherwise it is generated here.
    """
    cone = _cone(problem, extra_inequalities, members)
    result = _solve_max(_DualAssembly(problem, cone))
    if not _verified(problem, result, cone):
        raise RuntimeError("certificate failed verification")
    return result


# ---------------------------------------------------------------------------
# verification (exact, no solver state)


def verify_bound_result(problem: BoundProblem, result: BoundResult,
                        extra_inequalities=None, members=None) -> bool:
    """Re-check result's certificate exactly; `members` as in solve_bound."""
    return _verified(problem, result, _cone(problem, extra_inequalities, members))


def _verified(problem, result, cone) -> bool:
    """verify_bound_result over a cone that _cone built."""
    _members, glist, table = cone
    if result.status == "optimal":
        maximize = problem.sense == "max"
        return (_check_rows(problem, table, result.primal, homogeneous=False)
                and evaluate(problem.objective, result.primal) == result.value
                and _combination(problem, glist, result.dual, "<=" if maximize else ">=",
                                 -1 if maximize else 1)
                == (problem.objective.coeffs, result.value))
    if result.status == "infeasible":
        comb = _combination(problem, glist, result.farkas, ">=", 1)
        return comb is not None and not comb[0] and comb[1] > 0
    if result.status == "unbounded":
        if not (_check_rows(problem, table, result.primal, homogeneous=False)
                and _check_rows(problem, table, result.ray, homogeneous=True)):
            return False
        gain = evaluate(problem.objective, result.ray)
        return gain > 0 if problem.sense == "max" else gain < 0
    return False


def _check_rows(problem, table, point, homogeneous: bool) -> bool:
    """point satisfies every cone member, in one pass of their table, and constraint
    row; homogeneous checks the rows against zero right-hand sides, as a ray must."""
    if point is None or point.n != problem.n or not table.nonnegative(point):
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

    None when cert is missing, has the wrong length, names a row outside
    glist, or breaks a sign rule: cone multipliers must be >= 0, user
    multipliers >= 0 on pos_rel rows and <= 0 on the mirror relation.
    The cone members enter with cone_sign.
    """
    if cert is None or len(cert.user) != len(problem.constraints):
        return None
    if any(cf < 0 or not 0 <= k < len(glist) for k, cf in cert.cone):
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


# a network as parse_network reads it: ids are strs, in tuples, and caps Fractions
class NetworkEdge(Record):
    __slots__ = ("ident", "inputs", "cap")


class NetworkSink(Record):
    __slots__ = ("ident", "wants", "sees")


class NetworkDescription(Record):
    __slots__ = ("sources", "edges", "sinks")


def _validate_network(net: NetworkDescription) -> None:
    # the size check bounds the depth of the pass below
    check_n(len(net.sources) + len(net.edges))
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
    # one depth-first pass gives every id the sources upstream of it;
    # an edge met again while its inputs are still open closes a cycle
    upstream = {src: {src} for src in net.sources}
    entered: set[str] = set()

    def visit(ref: str) -> set[str]:
        if ref not in upstream:
            if ref in entered:
                raise ValueError(f"cycle through edge {ref}")
            entered.add(ref)
            upstream[ref] = set().union(*map(visit, edge_by_id[ref].inputs))
        return upstream[ref]

    for e in net.edges:
        visit(e.ident)
    for s in net.sinks:
        reach = set().union(*map(visit, s.sees))
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
