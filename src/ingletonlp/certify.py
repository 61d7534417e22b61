"""Exact conic-implication engine and the redundancy/minimality scans.

The decision core answers "is target in the conic hull of the generators"
with either a nonnegative-combination certificate or a separating point.
`_ConeSystem.answers` proposes candidates, the cheap ones first, and
`_settle` checks each exactly, once, against every generator: the first
that passes is the answer.  A floating-point solve only proposes; it
never decides an answer.

Both kinds of scan walk each relabeling orbit once, from its first
element (`_orbits`).  The quad scans decide each orbit's least swap class.
The drop-one scan decides the first member of each relabeling orbit in a
system derived from the full one (`_ConeSystem.without`, every mask kept)
and, expecting no member to be implied, asks HiGHS for the separating
point first; the other candidates follow only if none verifies.  Each
other member is offered that witness relabeled, checked like any other.
"""

from __future__ import annotations

import copy
import itertools
import os
import random
from collections import Counter
from fractions import Fraction
from math import gcd

from . import ingen
from .entspace import (
    EntropyVector,
    GroundSetError,
    IngletonQuad,
    LinExpr,
    MemberTable,
    Record,
    accumulate,
    check_n,
    evaluate,
    format_quad,
    format_vector_pairs,
    ingleton_expr,
    parse_rational,
    report_text,
)
from .simplex import exact_columns, float_columns, linprog, solve_standard


def _require(ok: bool, what: str) -> None:
    """Soundness check that, unlike assert, survives python -O."""
    if not ok:
        raise RuntimeError(what)


class FarkasCertificate(Record):
    """Nonnegative multipliers writing the target as a combination of generators."""

    __slots__ = ("gen_ids", "coeffs")


class SeparationWitness(Record):
    """A point satisfying every generator but strictly violating the target."""

    __slots__ = ("point",)


def verify_certificate(target: LinExpr, gens, cert: FarkasCertificate) -> bool:
    """Exact round-trip check; raises IndexError on out-of-range generator ids
    and GroundSetError on a named generator over another n than target's.

    A certificate whose ids and coefficients differ in number is rejected.
    """
    if len(cert.gen_ids) != len(cert.coeffs):
        return False
    for gid, cf in zip(cert.gen_ids, cert.coeffs):
        if gid < 0 or gid >= len(gens):
            raise IndexError(f"generator id {gid} out of range")
        if gens[gid].n != target.n:
            raise GroundSetError("a generator disagrees with the target on the ground set")
        if cf < 0:
            return False
    terms = zip(cert.coeffs, (gens[gid] for gid in cert.gen_ids))
    return accumulate(terms) == target.coeffs


def verify_witness(target: LinExpr, gens, wit: SeparationWitness) -> bool:
    """wit's point satisfies gens, LinExprs or their MemberTable, and violates target."""
    table = gens if isinstance(gens, MemberTable) else MemberTable(gens)
    return table.nonnegative(wit.point) and evaluate(target, wit.point) < 0


class _ConeSystem:
    """Prepared LP data for one generator set, reusable across many targets."""

    def __init__(self, gens: list[LinExpr]):
        if not gens:
            raise ValueError("need at least one generator")
        self.n = gens[0].n
        self.gens, self.keys = gens, [g.key() for g in gens]
        self.uses = Counter(m for g in gens for m in g.coeffs)  # generators per mask
        self.masks = sorted(self.uses)
        self.index = {m: i for i, m in enumerate(self.masks)}
        self._float_gens = self._float_cone = None
        self.table = MemberTable(gens)  # for witness checks; before any worker forks
        self._exact_keys = {key: i for i, key in reversed(list(enumerate(self.keys)))}

    def answers(self, target: LinExpr, witness_first: bool = False):
        """Candidate answers for target, cheapest first; _settle checks them.

        The float witness (a separating-direction LP) runs before the
        feasibility presolve with witness_first, and otherwise only after
        an infeasible one; either way HiGHS sees each LP at most once, and
        only if no earlier candidate passed.  The last candidate is the
        exact decision over every generator.
        """
        if target.n != self.n:
            raise GroundSetError("target disagrees with generators on the ground set")
        if target.is_zero():
            yield _certificate((), ())
        hit = self._exact_keys.get(target.key())
        if hit is not None:
            yield _certificate((hit,), (1,))
        outside = [m for m in target.coeffs if not self.uses[m]]
        if outside:
            # no generator has a coefficient there: the unit point is the answer
            m = min(outside)
            yield SeparationWitness(
                EntropyVector.from_dict(self.n, {m: Fraction(-1, 1) / target.coeffs[m]}))
            return

        b_exact = [target.coeffs.get(m, 0) for m in self.masks]
        try:  # the float stage only proposes, so it steps aside beyond float range
            b_float = [float(v) for v in b_exact]
            self.float_gens()
        except OverflowError:
            yield self._exact_decide(b_exact)
            return
        ngen = len(self.gens)

        if witness_first:
            yield from self._float_witnesses(target, b_float)
        res = linprog([0.0] * ngen, A_eq=self.float_cone(), b_eq=b_float)
        if res.status == 0:
            support = [j for j in range(ngen) if res.x[j] > 1e-9]
            sol = self._exact_solve(support, b_exact)
            if sol.status == "optimal":
                yield _certificate(support, sol.x)
        elif res.status == 2 and not witness_first:
            yield from self._float_witnesses(target, b_float)
        yield self._exact_decide(b_exact)

    def without(self, k: int) -> "_ConeSystem":
        """Every generator but k, derived from this system: k's masks lose one use
        each (a mask k alone used stays, a free coordinate of the LPs), and k
        leaves the keys, the witness table and the float columns if built."""
        if len(self.gens) == 1:
            raise ValueError("need at least one generator")
        sub = copy.copy(self)  # so every field of __init__ reaches it
        sub.gens, sub.keys = self.gens[:k] + self.gens[k + 1:], self.keys[:k] + self.keys[k + 1:]
        sub._exact_keys = {key: i for i, key in reversed(list(enumerate(sub.keys)))}
        sub.uses = self.uses.copy()
        sub.uses.subtract(list(self.gens[k].coeffs))  # one use per mask, not the coefficients
        sub.table, sub._float_cone, cols = self.table.without(k), None, self._float_gens
        sub._float_gens = None if cols is None else [
            ([i - (i > k) for i in at if i != k], [v for i, v in zip(at, vals) if i != k])
            for at, vals in cols]
        return sub

    def float_gens(self):
        """The separating-direction LP's columns, one per mask: each generator
        g as a row -g <= 0.  Built for the first presolve."""
        if self._float_gens is None:
            self._float_gens = float_columns((g.coeffs for g in self.gens), self.index, -1)
        return self._float_gens

    def float_cone(self):
        """The feasibility LP's columns, one per generator: float_gens transposed."""
        if self._float_cone is None:
            per_mask = [dict(zip(at, vals)) for at, vals in self.float_gens()]
            self._float_cone = float_columns(per_mask, range(len(self.gens)), -1)
        return self._float_cone

    def _exact_solve(self, support: list[int], b_exact):
        """Exact feasibility solve of sum_j x_j gens[support[j]] = target, x >= 0,
        over A/g for g the gcd of A's numerators, so that a common factor never
        reaches the kernel's long divisions.  x scales back by 1/g and a
        Farkas vector stays one; the crash basis, and so the pivots, may
        differ from a solve over A itself."""
        A = exact_columns([self.gens[j] for j in support], self.index)
        g = gcd(*(v.numerator for row in A for v in row))
        if g > 1:
            A = [[v // g if type(v) is int else v / g for v in row] for row in A]
        res = solve_standard(A, b_exact, [0] * len(support))
        if g > 1 and res.x is not None:
            res.x = [v / g for v in res.x]
        return res

    def _exact_decide(self, b_exact):
        """The answer of one exact solve over every generator.

        An optimal solve is the certificate; otherwise its Farkas vector y
        (y.gen <= 0 for every generator, y.b > 0) scales to the witness.
        """
        every = list(range(len(self.gens)))
        res = self._exact_solve(every, b_exact)
        if res.status == "optimal":
            return _certificate(every, res.x)
        _require(res.status == "infeasible", "exact solve found no Farkas vector")
        y = res.y
        ty = sum(y[i] * b_exact[i] for i in range(len(self.masks)))
        _require(ty > 0, "Farkas vector does not separate the target")
        coords = {m: -y[i] / ty for i, m in enumerate(self.masks)}
        return SeparationWitness(EntropyVector.from_dict(self.n, coords))

    def _float_witnesses(self, target: LinExpr, b_float):
        """HiGHS's separating direction rounded at each denominator in turn,
        each rounding that the target rates negative scaled to target value -1."""
        # direction p with g.p >= 0 for all generators and target.p < 0
        res = linprog(b_float, A_ub=self.float_gens(), b_ub=[0.0] * len(self.gens),
                      bounds=(-1, 1))
        if res.status != 0 or res.fun > -1e-7:
            return
        for den in (16, 1024, 10 ** 6, 10 ** 12):
            rounded = EntropyVector.from_dict(self.n, {
                m: Fraction(res.x[i]).limit_denominator(den) for i, m in enumerate(self.masks)})
            tval = evaluate(target, rounded)
            if tval < 0:
                # rounded is nums/den, so the scaled point is nums/q with q = -tval*den
                q = -tval * rounded.den
                yield SeparationWitness(EntropyVector.over(
                    self.n, [a * q.denominator for a in rounded.nums], q.numerator))


def _certificate(ids, x) -> FarkasCertificate:
    """The nonzero multipliers x[j] of generators ids[j], ids ascending."""
    pairs = sorted((gid, Fraction(v)) for gid, v in zip(ids, x) if v != 0)
    return FarkasCertificate(tuple(g for g, _v in pairs), tuple(v for _g, v in pairs))


def _settle(system: _ConeSystem, target: LinExpr, label: str = "the target",
            witness_first: bool = False):
    """The first of system.answers(target, witness_first) that passes its exact
    check against system.gens: a FarkasCertificate, or a SeparationWitness at
    target value -1.  RuntimeError names the last candidate if none passes."""
    for out in system.answers(target, witness_first):
        if isinstance(out, FarkasCertificate):
            if verify_certificate(target, system.gens, out):
                return out
        elif verify_witness(target, system.table, out) and evaluate(target, out.point) == -1:
            return out
    what = "certificate" if isinstance(out, FarkasCertificate) else "witness"
    raise RuntimeError(f"unsound {what} for {label}")


def decide_implication(target: LinExpr, gens) -> FarkasCertificate | SeparationWitness:
    """One exact decision: a certificate if target is a nonnegative combination
    of gens, else a witness point normalized to target value -1."""
    return _settle(_ConeSystem(list(gens)), target)


# ---------------------------------------------------------------------------
# quad orbits under argument swaps and ground-set relabeling

def _perm_tables(n: int) -> list[list[int]]:
    tables = []
    for perm in itertools.permutations(range(n)):
        tab = [0]
        for image in perm:  # element k's: masks below 2^(k+1) are those below 2^k, then with it
            tab += [t | 1 << image for t in tab]
        tables.append(tab)
    return tables


def _quad_image(q, tab) -> tuple[int, int, int, int]:
    """The swap class (a1 <= a2, a3 <= a4) of quad q relabeled by tab."""
    a1, a2, a3, a4 = tab[q[0]], tab[q[1]], tab[q[2]], tab[q[3]]
    return (min(a1, a2), max(a1, a2), min(a3, a4), max(a3, a4))


def _relabel_point(h: EntropyVector, tab) -> EntropyVector:
    """h carried by the relabeling tab: the new value at tab[m] is h's at m."""
    nums = [0] * len(h.nums)
    for m, a in zip(tab[1:], h.nums):
        nums[m - 1] = a
    moved = object.__new__(EntropyVector)  # permuted numerators stay in lowest terms
    moved.n, moved.nums, moved.den = h.n, tuple(nums), h.den
    return moved


def _orbits(keys: list, image, tables) -> list[tuple[int, list[int]]]:
    """Per key k, (r, the ids of the tables carrying key r onto k), r being the
    first key of k's orbit: each orbit is walked once, from its first key."""
    at = {key: i for i, key in enumerate(keys)}
    onto = [None] * len(keys)
    for r, key in enumerate(keys):
        if onto[r] is None:
            for pi, tab in enumerate(tables):
                k = at[image(key, tab)]
                onto[k] = onto[k] or (r, [])
                onto[k][1].append(pi)
    return onto


def _choose_quads(n: int, sample: int | None, seed: int, budget: int | None):
    """The quads a scan decides, the orbits, and the report fields saying how.

    Exhaustive iff n <= 4 and no sample size is given: the orbits are
    (canon, tables), where canon maps every swap class (a1 <= a2, a3 <= a4)
    to its representative, its least image, and the index in tables of a relabeling
    carrying the representative onto it, the one whose inverse comes first.
    Otherwise `sample` (default 1000, budgeted before any is drawn) seeded quads, no orbits.
    """
    if sample is not None and sample < 1:
        raise ValueError(f"sample size must be at least 1, got {sample}")
    if n > 4 or sample is not None:
        ingen.check_budget(sample or 1000, budget, "sampled quads")
        rng = random.Random(seed)
        top = 2 ** n
        items = [tuple(rng.randrange(top) for _ in range(4)) for _ in range(sample or 1000)]
        return items, None, dict(mode="sample", seed=seed, samples=len(items),
                                 quads=len(items), classes=0, orbits=0)
    tables = _perm_tables(n)
    pairs = list(itertools.combinations_with_replacement(range(2 ** n), 2))
    classes = [p + r for p in pairs for r in pairs]  # ascending, so each orbit starts at its least
    # of the tables carrying r onto a class, the one whose inverse comes first
    index = {tuple(tab): pi for pi, tab in enumerate(tables)}
    inverse = [index[tuple(sorted(range(2 ** n), key=tab.__getitem__))] for tab in tables]
    canon = {cls: (classes[r], min(pis, key=inverse.__getitem__))
             for cls, (r, pis) in zip(classes, _orbits(classes, _quad_image, tables))}
    items = sorted({rep for rep, _pi in canon.values()})
    return items, (canon, tables), dict(mode="exhaustive", seed=seed, samples=0,
                                        quads=2 ** (4 * n), classes=len(canon), orbits=len(items))


def _quad_text(n: int, quad) -> str:
    return format_quad(IngletonQuad(n, *quad))


# ---------------------------------------------------------------------------
# one decide-and-verify pipeline behind the three scans

_job = None  # set in each worker process only, by _adopt_job


def _adopt_job(job) -> None:
    global _job
    _job = job


def _call_job(item):
    return _job(item)


def _map(job, items: list, workers: int) -> list:
    """[job(item) for item in items], split over forked workers if workers > 1.

    No more workers are forked than there are items or CPUs.  A forked
    worker gets the job, closure and prepared state included, without
    pickling; only items and results cross the process boundary.
    """
    if workers < 1:
        raise ValueError(f"worker count must be at least 1, got {workers}")
    workers = min(workers, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [job(it) for it in items]
    import multiprocessing  # only here: a one-worker scan never loads it
    chunk = max(1, len(items) // (workers * 8))
    with multiprocessing.get_context("fork").Pool(
            workers, initializer=_adopt_job, initargs=(job,)) as pool:
        return pool.map(_call_job, items, chunksize=chunk)


def _decide_quads(n: int, members, quads: list, workers: int) -> list:
    """(label, answer) per quad, in order; each distinct target is decided once."""
    system = _ConeSystem([ci.expr for ci in members])
    posed = [(ingleton_expr(q), format_quad(q)) for q in (IngletonQuad(n, *t) for t in quads)]
    first = {}  # target key -> id of its first quad
    ids = [first.setdefault(target.key(), i) for i, (target, _label) in enumerate(posed)]
    reps = list(first.values())
    answer = dict(zip(reps, _map(lambda i: _settle(system, *posed[i]), reps, workers)))
    return [(label, answer[i]) for i, (_target, label) in zip(ids, posed)]


def _scan_text(command: str, n: int, params: dict, body: list[str], ok: bool) -> str:
    return report_text(command, n, params, [*body, "status ok" if ok else "status fail"])


# ---------------------------------------------------------------------------
# theorem-level scans


class _QuadScanReport(Record):
    """What both quad scans report: the generators, and how the quads were chosen."""

    __slots__ = ("n", "generators", "mode", "seed", "samples", "quads", "classes", "orbits")
    _mutable = True

    def _text(self, command: str, body: list[str], ok: bool) -> str:
        if self.mode == "sample":
            counts = [f"seed {self.seed}", f"samples {self.samples}"]
        else:
            counts = [f"quads {self.quads}", f"classes {self.classes}", f"orbits {self.orbits}"]
        return _scan_text(command, self.n, {"mode": self.mode},
                          [f"mode {self.mode}", *counts, *body], ok)


class Theorem1Report(_QuadScanReport):
    __slots__ = ("implied", "not_implied", "counterexamples", "certificates", "witnesses")

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_text(self) -> str:
        return self._text("check-theorem1", [
            f"implied {self.implied}", f"not-implied {self.not_implied}",
            f"counterexamples {len(self.counterexamples)}",
            *(f"counterexample {q}" for q in self.counterexamples)], self.ok)


def check_theorem1(n: int, sample: int | None = None, seed: int = 0, workers: int = 1,
                   budget: int | None = ingen.DEFAULT_BUDGET) -> Theorem1Report:
    """Basic-implication criterion vs the LP decision, per quad orbit."""
    elemental = ingen.gen_elemental(n, budget=budget)
    items, _canon, fields = _choose_quads(n, sample, seed, budget)
    bad = []
    certs = []
    wits = []
    for quad, (text, answer) in zip(items, _decide_quads(n, elemental, items, workers)):
        implied = isinstance(answer, FarkasCertificate)
        (certs if implied else wits).append((text, answer))
        # an argument covered by the other three has an empty private part
        if implied != (0 in ingen.reduce_quad(IngletonQuad(n, *quad))[:4]):
            bad.append(text)
    return Theorem1Report(
        n=n, generators=tuple(elemental), **fields, implied=len(certs),
        not_implied=len(wits), counterexamples=tuple(bad), certificates=tuple(certs),
        witnesses=tuple(wits))


class CompletenessReport(_QuadScanReport):
    __slots__ = ("certified", "failures", "certificates")

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        return self._text("check-completeness", [
            f"certified {self.certified}", f"failures {len(self.failures)}",
            *(f"failure {q}" for q in self.failures)], self.ok)


def check_completeness(n: int, sample: int | None = None, seed: int = 0,
                       workers: int = 1,
                       budget: int | None = ingen.DEFAULT_BUDGET) -> CompletenessReport:
    """Every Ingleton inequality receives a certificate over the minimal set."""
    delta = ingen.gen_delta(n, budget=budget)
    items, orbits, fields = _choose_quads(n, sample, seed, budget)
    results = _decide_quads(n, delta, items, workers)
    failures = [text for text, answer in results
                if not isinstance(answer, FarkasCertificate)]
    certs = [(text, answer) for text, answer in results
             if isinstance(answer, FarkasCertificate)]
    if orbits is not None and failures:
        certs = []  # some representative failed: report the failures alone
    elif orbits is not None:
        # carry each representative's certificate to every class in its orbit
        canon, tables = orbits
        exprs = [ci.expr for ci in delta]
        keys = [(ci.kind, ci.payload) for ci in delta]
        at = {key: k for k, key in enumerate(keys)}
        rep_cert = dict(zip(items, (answer for _text, answer in results)))
        certs = []
        for cls, (rep, pi) in sorted(canon.items()):
            cert = rep_cert[rep]  # relabeled forward: tables[pi] carries rep onto cls
            fc = _certificate([at[ingen.member_image(keys[g], tables[pi])] for g in cert.gen_ids],
                              cert.coeffs)
            if verify_certificate(ingleton_expr(IngletonQuad(n, *cls)), exprs, fc):
                certs.append((_quad_text(n, cls), fc))
            else:
                failures.append(_quad_text(n, cls))
    return CompletenessReport(
        n=n, generators=tuple(delta), **fields, certified=len(certs),
        failures=tuple(failures), certificates=tuple(certs))


class MinimalityReport(Record):
    """witnesses holds (kind, payload text, SeparationWitness) per non-redundant member."""

    __slots__ = ("n", "generators", "members", "redundant", "witnesses")
    _mutable = True

    @property
    def ok(self) -> bool:
        return not self.redundant

    def to_text(self) -> str:
        return _scan_text("check-minimality", self.n, {}, [
            f"members {self.members}",
            f"non-redundant {self.members - len(self.redundant)}",
            f"redundant {len(self.redundant)}",
            *(f"redundant-member {t}" for t in self.redundant),
            *(f"witness\t{kind}\t{payload}\t{format_vector_pairs(w.point)}"
              for kind, payload, w in self.witnesses)], self.ok)


def check_minimality(n: int, workers: int = 1, allow_large: bool = False,
                     budget: int | None = ingen.DEFAULT_BUDGET) -> MinimalityReport:
    """Drop-one scan: every member must get a separation witness against the rest.

    A member after its orbit's first takes that one's witness relabeled if the first's
    stabilizer fixes it and the point passes the member's exact check, else is decided."""
    if n > 5 and not allow_large:
        raise ValueError("drop-one scan above n=5 requires --allow-large (allow_large=True)")
    delta = ingen.gen_delta(n, budget=budget)
    full = _ConeSystem([ci.expr for ci in delta])
    full.float_gens()  # once, before any worker forks: each member slices a row out
    labels = [(ci.kind, ci.payload_text()) for ci in delta]
    tables = _perm_tables(n)
    onto = _orbits([(ci.kind, ci.payload) for ci in delta], ingen.member_image, tables)

    def settle(k):
        return _settle(full.without(k), full.gens[k], "\t".join(labels[k]), witness_first=True)

    def carry(k):
        r, pis = onto[k]
        wit = SeparationWitness(_relabel_point(answers[r].point, tables[pis[0]])) \
            if r in fixed else None
        if wit and verify_witness(full.gens[k], full.table.without(k), wit) \
                and evaluate(full.gens[k], wit.point) == -1:
            return wit
        return settle(k)
    reps = [k for k, (r, _pis) in enumerate(onto) if r == k]
    answers = dict(zip(reps, _map(settle, reps, workers)))
    # the tables onto a member, one coset of r's stabilizer, give one image iff that fixes it
    fixed = {r for r in reps if isinstance(h := answers[r], SeparationWitness) and all(
        _relabel_point(h.point, tables[pi]) == h.point for pi in onto[r][1])}
    rest = [k for k, (r, _pis) in enumerate(onto) if r != k]
    answers.update(zip(rest, _map(carry, rest, workers)))
    return MinimalityReport(
        n=n, generators=tuple(delta), members=len(delta),
        redundant=tuple("\t".join(labels[k]) for k in range(len(delta))
                        if isinstance(answers[k], FarkasCertificate)),
        witnesses=tuple((*labels[k], answers[k]) for k in range(len(delta))
                        if isinstance(answers[k], SeparationWitness)))


# ---------------------------------------------------------------------------
# the four-element violating point and its lifts


def find_ingleton_violator(n: int = 4) -> EntropyVector:
    """Exact point in the polymatroid cone with negative Ingleton value, h(N)=1."""
    check_n(n)
    if n < 4:
        raise GroundSetError("every Ingleton inequality holds below four elements")
    base = _violator4()
    if n == 4:
        return base
    # pad with independent unit-entropy elements, then renormalize h(N)=1:
    # h(mask) = (base(mask & 0xF) + |mask >> 4|) / (n - 3), over base's denominator
    inner, den = (0, *base.nums), base.den
    out = EntropyVector.over(n, [inner[m & 0xF] + (m >> 4).bit_count() * den
                                 for m in range(1, 1 << n)], den * (n - 3))
    quad = IngletonQuad(n, 1, 2, 4, 8)
    _require(evaluate(ingleton_expr(quad), out) < 0, "padded point satisfies Ingleton")
    if n <= 8:
        _require(all(evaluate(ci.expr, out) >= 0 for ci in ingen.gen_elemental(n)),
                 "padded point is not a polymatroid")
    return out


def _violator4() -> EntropyVector:
    from . import bound  # loaded by this command alone
    members = ingen.gen_elemental(4)
    elem = [ci.expr for ci in members]
    target = ingleton_expr(IngletonQuad(4, 1, 2, 4, 8))
    # minimize the Ingleton value over the polymatroid cone sliced at h(N)=1
    problem = bound.BoundProblem(4, bound.CONE_GAMMA, "min", target,
                                 ((LinExpr.single(4, 15), "=", Fraction(1)),))
    res = bound.solve_bound(problem, members=members)
    _require(res.status == "optimal" and res.value < 0,
             "no Ingleton violation in the polymatroid cone")
    point = res.primal
    _require(evaluate(target, point) < 0, "violator satisfies Ingleton")
    _require(all(evaluate(g, point) >= 0 for g in elem), "violator is not a polymatroid")
    _require(point[15] == 1, "violator is not normalized to h(N) = 1")
    return point


# ---------------------------------------------------------------------------
# certificate / witness file round-trips


def format_certificate_line(target_id: str, cert: FarkasCertificate) -> str:
    body = ",".join(f"{gid}:{cf}" for gid, cf in zip(cert.gen_ids, cert.coeffs))
    return f"{target_id}\t{body}"


def parse_certificate_line(line: str) -> tuple[str, FarkasCertificate]:
    target_id, _, body = line.rstrip("\n").partition("\t")
    ids = []
    coeffs = []
    if body:
        for piece in body.split(","):
            gid, _, cf = piece.partition(":")
            ids.append(int(gid))
            coeffs.append(parse_rational(cf))
    return target_id, FarkasCertificate(tuple(ids), tuple(coeffs))


def write_certificates(path, items) -> None:
    with open(path, "w", encoding="ascii") as f:
        for target_id, cert in items:
            f.write(format_certificate_line(target_id, cert) + "\n")


def read_certificates(path) -> list[tuple[str, FarkasCertificate]]:
    with open(path, "r", encoding="ascii") as f:
        return [parse_certificate_line(ln) for ln in f if ln.strip()]


def write_witnesses(path, n: int, items) -> None:
    """items: iterable of (label, SeparationWitness)."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"n={n}\n")
        for label, w in items:
            f.write(f"{label}\t{format_vector_pairs(w.point)}\n")


def read_witnesses(path) -> tuple[int, list[tuple[str, SeparationWitness]]]:
    from .entspace import vector_from_text
    with open(path, "r", encoding="ascii") as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("missing ground-set header")
    n = int(lines[0][2:])
    out = []
    for ln in lines[1:]:
        label, _, pairs = ln.partition("\t")
        out.append((label, SeparationWitness(vector_from_text(f"n={n}\n{pairs}\n"))))
    return n, out
