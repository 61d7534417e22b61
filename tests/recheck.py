"""A dense re-checker of the package's outputs, sharing no code with it.

Vectors are dense lists of ints and Fractions: index m is the subset with
bitmask m, and index 0 (the empty set) is 0.  Nothing here uses the
package's expressions, points, evaluators or parsers; the Ingleton form is
spelled afresh as J = I(1;2|3) + I(1;2|4) + I(3;4) - I(1;2).
`certificate_holds`, `witness_holds` and `bound_result_holds` are the
yes/no answers that the package's verifiers are judged against, and
`simplex_steps` is the pivot-by-pivot run the exact simplex is judged
against.
"""

import re
from fractions import Fraction
from itertools import product
from pathlib import Path

# ---------------------------------------------------------------------------
# parsers


def rational(text: str):
    """An int or a/b token; ints stay ints, which keeps the dense sums fast."""
    return Fraction(text) if "/" in text else int(text)


def subset(text: str) -> int:
    body = text.strip()
    assert body[0] == "{" and body[-1] == "}", text
    return sum(1 << (int(e) - 1) for e in body[1:-1].split(",") if e.strip())


def subsets(text: str) -> list[int]:
    return [subset(t) for t in re.findall(r"\{[^}]*\}", text)]


def functional(text: str, n: int) -> list:
    """A signed-term expression `+c*h{..} ...` (or `0`) as a dense vector."""
    out = [0] * (1 << n)
    if text.strip() == "0":
        return out
    terms = re.findall(r"([+-])(\d+(?:/\d+)?)\*h(\{[^}]*\})", text)
    assert " ".join(f"{s}{c}*h{t}" for s, c, t in terms) == text.strip(), text
    for sign, c, t in terms:
        out[subset(t)] += rational(c) if sign == "+" else -rational(c)
    return out


def point(pairs: str, n: int) -> list:
    """`{..}=v` pairs (zeros left out) as a dense vector."""
    out = [0] * (1 << n)
    for t, v in re.findall(r"(\{[^}]*\})=(-?\d+(?:/\d+)?)", pairs):
        out[subset(t)] = rational(v)
    assert " ".join(f"{t}={v}" for t, v in re.findall(r"(\{[^}]*\})=(\S+)", pairs)) == pairs
    return out


def read_generators(path: Path) -> tuple[int, list[tuple[str, str, list]]]:
    lines = path.read_text(encoding="ascii").splitlines()
    head = re.fullmatch(r"n=(\d+) count=(\d+)", lines[0])
    n, count = int(head[1]), int(head[2])
    gens = []
    for ln in lines[1:]:
        kind, payload, expr = ln.split("\t")
        form = member_form(kind, payload, n)
        assert form == functional(expr, n), ln
        gens.append((kind, payload, form))
    assert len(gens) == count
    return n, gens


def read_certificates(path: Path) -> list[tuple[str, list[tuple[int, int | Fraction]]]]:
    out = []
    for ln in path.read_text(encoding="ascii").splitlines():
        label, body = ln.split("\t")
        pairs = [piece.split(":") for piece in body.split(",")] if body else []
        out.append((label, [(int(g), rational(c)) for g, c in pairs]))
    return out


def read_witnesses(path: Path, n: int) -> list[tuple[str, list]]:
    lines = path.read_text(encoding="ascii").splitlines()
    assert lines[0] == f"n={n}"
    return [(label, point(pairs, n)) for label, pairs in (ln.split("\t") for ln in lines[1:])]


def report_fields(text: str) -> dict[str, str]:
    """`key value` body lines of a report, after its two header lines."""
    lines = text.splitlines()
    assert lines[0].startswith("# ingletonlp ") and lines[1].startswith("# ")
    fields = {}
    for ln in lines[2:]:
        key, _, value = ln.partition(" ")
        fields.setdefault(key, value)
    return fields


# ---------------------------------------------------------------------------
# forms and checks


def unit(n: int, mask: int) -> list:
    out = [0] * (1 << n)
    out[mask] = 1
    return out


def add(*vectors: list, weights=None) -> list:
    """The weighted sum of dense vectors; the empty-set entry is left 0."""
    weights = weights or [1] * len(vectors)
    return [0] + [sum(w * v[m] for w, v in zip(weights, vectors) if v[m])
                  for m in range(1, len(vectors[0]))]


def mutinfo(n: int, a: int, b: int, c: int, out: list | None = None, sign: int = 1) -> list:
    """out (a new zero vector if None) plus sign * I(a; b | c), where
    I(a; b | c) = h(ac) + h(bc) - h(c) - h(abc)."""
    out = [0] * (1 << n) if out is None else out
    for mask, s in ((a | c, sign), (b | c, sign), (c, -sign), (a | b | c, -sign)):
        out[mask] += s
    out[0] = 0
    return out


def ingleton(n: int, a1: int, a2: int, a3: int, a4: int) -> list:
    """J = I(a1;a2|a3) + I(a1;a2|a4) + I(a3;a4) - I(a1;a2)."""
    out = mutinfo(n, a1, a2, a3)
    mutinfo(n, a1, a2, a4, out)
    mutinfo(n, a3, a4, 0, out)
    return mutinfo(n, a1, a2, 0, out, sign=-1)


def member_form(kind: str, payload: str, n: int) -> list:
    """A generator line's form, from its kind and payload alone."""
    full = (1 << n) - 1
    if kind == "Delta0":
        d1, d2, d3, d4, beta = subsets(payload)
        return ingleton(n, d1 | beta, d2 | beta, d3 | beta, d4 | beta)
    if kind in ("Delta1", "ElementalI"):
        return mutinfo(n, *subsets(payload))
    assert kind in ("Delta2", "ElementalH"), kind
    (i,) = subsets(payload)
    return add(unit(n, full), unit(n, full & ~i), weights=[1, -1])


def value(form: list, h: list):
    return sum(c * x for c, x in zip(form, h) if c)


def polymatroid_forms(n: int) -> list[list]:
    """Every elemental form: h(N) - h(N - i), and I(i; j | K) for K avoiding i, j."""
    full = (1 << n) - 1
    forms = [member_form("Delta2", "{%d}" % i, n) for i in range(1, n + 1)]
    for i in range(n):
        for j in range(i + 1, n):
            rest = full & ~(1 << i | 1 << j)
            forms += [mutinfo(n, 1 << i, 1 << j, k) for k in range(rest + 1) if k & rest == k]
    return forms


def disjoint_ingleton_forms(n: int) -> set[tuple]:
    """J(d1 + b, .., d4 + b) for every assignment of elements to disjoint nonempty
    d's, b, or none: each Ingleton inequality reduces to one of these."""
    forms = set()
    for parts in product(range(6), repeat=n):
        masks = [sum(1 << e for e, p in enumerate(parts) if p == k) for k in range(5)]
        if all(masks[:4]):
            forms.add(tuple(ingleton(n, *(d | masks[4] for d in masks[:4]))))
    return forms


def covered(quad: list[int]) -> bool:
    """Some argument lies inside the union of the other three."""
    return any(a & ~(quad[k - 1] | quad[k - 2] | quad[k - 3]) == 0
               for k, a in enumerate(quad))


def certificate_holds(ids: list, coeffs: list, target: list, forms) -> bool:
    """Whether coeffs[j] times forms[ids[j]], summed, is target: as many ids as
    coefficients, each id naming a form, and no coefficient negative."""
    if len(ids) != len(coeffs) or not all(0 <= g < len(forms) and c >= 0
                                          for g, c in zip(ids, coeffs)):
        return False
    combo = [0] * len(target)  # an empty certificate proves target = 0
    for g, c in zip(ids, coeffs):
        for m, x in enumerate(forms[g]):
            if x:
                combo[m] += c * x
    return combo == target


def witness_holds(h: list, target: list, forms) -> bool:
    """Whether the point h satisfies every form and violates target."""
    return value(target, h) < 0 and all(value(g, h) >= 0 for g in forms)


def check_certificates(path: Path, n: int, gens) -> list[str]:
    """Every line writes J(quad) as a positive combination of gens; the labels."""
    labels = []
    forms = [form for _k, _p, form in gens]
    for label, cert in read_certificates(path):
        ids, coeffs = [g for g, _c in cert], [c for _g, c in cert]
        assert all(c > 0 for c in coeffs), label
        assert certificate_holds(ids, coeffs, ingleton(n, *subsets(label)), forms), label
        labels.append(label)
    return labels


def check_witness(h: list, target: list, forms) -> None:
    """h is normalized to target value -1 and separates target from forms."""
    assert h[0] == 0 and value(target, h) == -1
    assert witness_holds(h, target, forms)


def bound_result_holds(sense: str, objective: list, rows: list, forms, status: str,
                       claimed=None, primal=None, user=None, cone=None, ray=None) -> bool:
    """Whether a claimed answer to `sense objective.h subject to forms.h >= 0 and
    rows` holds.  rows are (lhs, relation, rhs); user and cone are the multipliers
    of the dual (optimal) or Farkas (infeasible) certificate, cone as (form id,
    coefficient) pairs.  With s = 1 for max and -1 for min:

    optimal: primal meets every form and row, objective.primal == claimed, and
      sum user.lhs - s * sum cone.forms == objective with sum user.rhs == claimed;
    infeasible: sum user.lhs + sum cone.forms == 0 yet sum user.rhs > 0;
    unbounded: primal meets every form and row, ray every form and every row
      with rhs 0, and s * objective.ray > 0.

    Cone ids name forms and cone coefficients are >= 0.  A <= row's user
    multiplier has sign s (optimal) or -1 (infeasible), a >= row's the
    opposite one, and an = row's is free.
    """
    s = 1 if sense == "max" else -1

    def meets(h, homogeneous: bool) -> bool:
        if h is None or len(h) != len(objective) or any(value(g, h) < 0 for g in forms):
            return False
        for lhs, rel, rhs in rows:
            gap = value(lhs, h) - (0 if homogeneous else rhs)
            if not {"<=": gap <= 0, ">=": gap >= 0, "=": gap == 0}[rel]:
                return False
        return True

    def combination(row_sign: int, cone_sign: int):
        """(sum user.lhs + cone_sign * sum cone.forms, sum user.rhs), or None
        when a multiplier breaks its sign rule or names no form."""
        if user is None or cone is None or len(user) != len(rows):
            return None
        if not all(0 <= k < len(forms) and c >= 0 for k, c in cone):
            return None
        if not all(u * {"<=": row_sign, ">=": -row_sign, "=": 0}[rel] >= 0
                   for u, (_lhs, rel, _rhs) in zip(user, rows)):
            return None
        total = [0] * len(objective)
        terms = [(u, lhs) for u, (lhs, _rel, _rhs) in zip(user, rows)]
        for c, form in terms + [(cone_sign * c, forms[k]) for k, c in cone]:
            for m, x in enumerate(form):
                total[m] += c * x
        return total, sum(u * rhs for u, (_lhs, _rel, rhs) in zip(user, rows))

    if status == "optimal":
        return (meets(primal, False) and value(objective, primal) == claimed
                and combination(s, -s) == (objective, claimed))
    if status == "infeasible":
        comb = combination(-1, 1)
        return comb is not None and not any(comb[0]) and comb[1] > 0
    return (status == "unbounded" and meets(primal, False) and meets(ray, True)
            and s * value(objective, ray) > 0)


# ---------------------------------------------------------------------------
# the exact simplex's pivot rules, on a dense Fraction tableau


def _eliminate(T: list, r: int, q: int) -> None:
    """Gauss-Jordan on entry (r, q): row r is scaled to 1 there, every other row to 0."""
    T[r] = [v / T[r][q] for v in T[r]]
    for i, row in enumerate(T):
        if i != r and row[q]:
            T[i] = [a - row[q] * v for a, v in zip(row, T[r])]


def simplex_steps(A: list, b: list, c: list, restart: dict | None = None) -> dict:
    """min c.x subject to A x = b, x >= 0, by the exact simplex's pivot rules.

    Rows are oriented to rhs >= 0.  A crash basis takes, column by column,
    each column of A with one nonzero, a 1, in a row that has none yet; a -1
    counts on a zero-rhs row, which is then negated.  Every other row gets
    an artificial column, in row order after A's.  Pricing is Dantzig's over
    A's columns, lowest index on ties.  The leaving row has the least
    positive-entry ratio rhs/entry, ties broken by each row over its
    entering entry, compared column by column: the basis the phase started
    from, in row order, then every other column in index order; the first
    such row wins.  After phase 1 each basic artificial leaves for the
    first nonzero column of A in its row, or the row is deleted.

    Returns status, x, y (duals, or the Farkas vector), ray, the (row,
    column) of every pivot, the ratio-test pivots per phase, and, when
    optimal with every row kept, restart data: handed back with columns
    appended to A and b unchanged, phase 2 starts from that basis.
    """
    m, nc = len(A), len(c)
    out = {"status": "optimal", "x": None, "y": None, "ray": None, "steps": [],
           "pivots": [0, 0], "restart": None}
    if m == 0:
        out["x"] = [Fraction(0)] * nc
        neg = [j for j in range(nc) if c[j] < 0]
        if neg:
            out["status"], out["ray"] = "unbounded", [Fraction(j == neg[0]) for j in range(nc)]
        else:
            out["y"] = []
        return out
    sign = list(restart["sign"]) if restart else [-1 if v < 0 else 1 for v in b]
    rows = [[s * Fraction(v) for v in row] + [s * Fraction(r)] for s, row, r in zip(sign, A, b)]
    if restart:
        crash = restart["crash"]
    else:
        crash = [None] * m
        for j in range(nc):
            nonzero = [i for i in range(m) if rows[i][j]]
            if len(nonzero) != 1 or crash[nonzero[0]] is not None:
                continue
            i = nonzero[0]
            if rows[i][j] == -1 and rows[i][nc] == 0:
                rows[i], sign[i] = [-v for v in rows[i]], -sign[i]
            if rows[i][j] == 1:
                crash[i] = j
    arts = [i for i in range(m) if crash[i] is None]
    start = [nc + arts.index(i) if j is None else j for i, j in enumerate(crash)]
    ncols = nc + len(arts)
    T = [row[:nc] + [Fraction(i == k) for k in arts] + row[nc:] for i, row in enumerate(rows)]
    basis = list(restart["basis"]) if restart else list(start)
    if restart:  # T becomes B^-1 T for that basis
        for pos, q in enumerate(basis):
            r = next(i for i in range(pos, m) if T[i][q])
            T[pos], T[r] = T[r], T[pos]
            _eliminate(T, pos, q)

    def pivot(r: int, q: int) -> None:
        out["steps"].append((r, q))
        _eliminate(T, r, q)
        basis[r] = q

    def duals(cost: list) -> list:
        return [s * sum(cost[j] * T[p][start[i]] for p, j in enumerate(basis))
                for i, s in enumerate(sign)]

    def run(cost: list, phase: int) -> int | None:
        order = basis + [j for j in range(ncols) if j not in basis]
        while True:
            reduced = [cost[q] - sum(cost[j] * T[p][q] for p, j in enumerate(basis))
                       for q in range(nc)]
            if not reduced or min(reduced) >= 0:
                return None
            q = reduced.index(min(reduced))
            rows_in = [i for i in range(len(basis)) if T[i][q] > 0]
            if not rows_in:
                return q
            pivot(min(rows_in, key=lambda i: [T[i][-1] / T[i][q]]
                      + [T[i][k] / T[i][q] for k in order]), q)
            out["pivots"][phase] += 1

    if arts and not restart:
        cost = [0] * nc + [1] * len(arts)
        if run(cost, 0) is not None:
            raise AssertionError("phase 1 is bounded below by 0")
        if sum(cost[j] * T[p][-1] for p, j in enumerate(basis)) > 0:
            out["status"], out["y"] = "infeasible", duals(cost)
            return out
        pos = 0
        while pos < len(basis):
            if basis[pos] >= nc:
                q = next((j for j in range(nc) if T[pos][j]), None)
                if q is None:
                    del T[pos], basis[pos]
                    continue
                pivot(pos, q)
            pos += 1
    cost = list(c) + [0] * len(arts)
    hit = run(cost, 1)
    out["x"] = [Fraction(0)] * nc
    for p, j in enumerate(basis):
        out["x"][j] = T[p][-1]
    if hit is not None:
        out["status"], out["ray"] = "unbounded", [Fraction(j == hit) for j in range(nc)]
        for p, j in enumerate(basis):
            out["ray"][j] -= T[p][hit]
        return out
    out["y"] = duals(cost)
    if len(basis) == m:
        out["restart"] = {"sign": sign, "crash": crash, "basis": basis}
    return out
