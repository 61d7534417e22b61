"""Exact conic-implication engine and the redundancy/minimality scans.

The decision core answers "is target in the conic hull of the generators"
with either a nonnegative-combination certificate or a separating point.
A floating-point solve may propose where to look, but every returned
object is re-verified in exact rational arithmetic; the float layer never
decides an answer.
"""

from __future__ import annotations

import itertools
import multiprocessing
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog

from . import ingen
from ._version import __version__
from .entspace import (
    EntropyVector,
    GroundSetError,
    IngletonQuad,
    LinExpr,
    evaluate,
    format_quad,
    format_vector_pairs,
    ingleton_expr,
    witness_fulldim,
)
from .simplex import solve_standard


def _require(ok: bool, what: str) -> None:
    """Soundness check that, unlike assert, survives python -O."""
    if not ok:
        raise RuntimeError(what)


@dataclass(frozen=True)
class FarkasCertificate:
    """Nonnegative multipliers writing the target as a combination of generators."""

    gen_ids: tuple[int, ...]
    coeffs: tuple[Fraction, ...]

    def as_dict(self) -> dict[int, Fraction]:
        return dict(zip(self.gen_ids, self.coeffs))


@dataclass(frozen=True)
class SeparationWitness:
    """A point satisfying every generator but strictly violating the target."""

    point: EntropyVector


def verify_certificate(target: LinExpr, gens, cert: FarkasCertificate) -> bool:
    """Exact round-trip check; raises IndexError on out-of-range generator ids."""
    acc: dict[int, Fraction] = {}
    for gid, cf in zip(cert.gen_ids, cert.coeffs):
        if gid < 0 or gid >= len(gens):
            raise IndexError(f"generator id {gid} out of range")
        if cf < 0:
            return False
        if cf == 0:
            continue
        for m, c in gens[gid].coeffs.items():
            v = acc.get(m, 0) + cf * c
            if v:
                acc[m] = v
            else:
                acc.pop(m, None)
    return acc == target.coeffs


def verify_witness(target: LinExpr, gens, wit: SeparationWitness) -> bool:
    p = wit.point
    if any(evaluate(g, p) < 0 for g in gens):
        return False
    return evaluate(target, p) < 0


class _ConeSystem:
    """Prepared LP data for one generator set, reusable across many targets."""

    def __init__(self, gens: list[LinExpr]):
        if not gens:
            raise ValueError("need at least one generator")
        self.n = gens[0].n
        for g in gens:
            if g.n != self.n:
                raise GroundSetError("generators disagree on the ground set")
        self.gens = gens
        support: set[int] = set()
        for g in gens:
            support.update(g.coeffs)
        self.masks = sorted(support)
        self.index = {m: i for i, m in enumerate(self.masks)}
        self.float_cols = np.array(
            [[float(g.coeffs.get(m, 0)) for m in self.masks] for g in gens]).T
        self._exact_keys = {}
        for i, g in enumerate(gens):
            self._exact_keys.setdefault(g.key(), i)
        w = witness_fulldim(self.n)
        self._fulldim = w
        self._fulldim_vals = [evaluate(g, w) for g in gens]
        self._repairable = all(v > 0 for v in self._fulldim_vals)

    def decide(self, target: LinExpr):
        """Returns (cert_dict, None) or (None, witness_point)."""
        if target.n != self.n:
            raise GroundSetError("target disagrees with generators on the ground set")
        if target.is_zero():
            return {}, None
        hit = self._exact_keys.get(target.key())
        if hit is not None:
            return {hit: Fraction(1)}, None
        outside = [m for m in target.coeffs if m not in self.index]
        if outside:
            # no combination can produce a coefficient there
            m = min(outside)
            point = _unit_point(self.n, m, Fraction(-1, 1) / target.coeffs[m])
            _require(evaluate(target, point) == -1, "unit witness misses the target")
            return None, point

        b_exact = [target.coeffs.get(m, 0) for m in self.masks]
        b_float = np.array([float(v) for v in b_exact])
        ngen = len(self.gens)

        res = linprog(np.zeros(ngen), A_eq=self.float_cols, b_eq=b_float,
                      bounds=(0, None), method="highs")
        if res.status == 0:
            support = [j for j in range(ngen) if res.x[j] > 1e-9]
            cert = self._exact_feasible(support, b_exact)
            if cert is not None:
                return cert, None
        elif res.status == 2:
            point = self._float_witness(target, b_float)
            if point is not None:
                return None, point

        cert = self._exact_feasible(list(range(ngen)), b_exact)
        if cert is not None:
            return cert, None
        return None, self._exact_witness(target, b_exact)

    def _exact_feasible(self, support: list[int], b_exact) -> dict | None:
        rows = range(len(self.masks))
        A = [[self.gens[j].coeffs.get(self.masks[i], 0) for j in support] for i in rows]
        res = solve_standard(A, b_exact, [0] * len(support))
        if res.status != "optimal":
            return None
        return {support[j]: res.x[j] for j in range(len(support)) if res.x[j] != 0}

    def _exact_witness(self, target: LinExpr, b_exact) -> EntropyVector:
        A = [[g.coeffs.get(m, 0) for g in self.gens] for m in self.masks]
        res = solve_standard(A, b_exact, [0] * len(self.gens))
        _require(res.status == "infeasible", "exact solve found no Farkas vector")
        y = res.y
        ty = sum(y[i] * b_exact[i] for i in range(len(self.masks)))
        _require(ty > 0, "Farkas vector does not separate the target")
        coords = {m: -y[i] / ty for i, m in enumerate(self.masks)}
        point = _point_from(self.n, coords)
        _require(evaluate(target, point) == -1, "witness misses the target")
        _require(all(evaluate(g, point) >= 0 for g in self.gens),
                 "witness leaves the generator cone")
        return point

    def _float_witness(self, target: LinExpr, b_float) -> EntropyVector | None:
        # direction p with g.p >= 0 for all generators and target.p < 0
        res = linprog(b_float, A_ub=-self.float_cols.T,
                      b_ub=np.zeros(len(self.gens)), bounds=(-1, 1), method="highs")
        if res.status != 0 or res.fun > -1e-7:
            return None
        for den in (16, 1024, 10 ** 6, 10 ** 12):
            coords = {m: Fraction(res.x[i]).limit_denominator(den)
                      for i, m in enumerate(self.masks)}
            point = self._repair(target, coords)
            if point is not None:
                return point
        return None

    def _repair(self, target: LinExpr, coords: dict) -> EntropyVector | None:
        point = _point_from(self.n, coords)
        tval = evaluate(target, point)
        if tval >= 0:
            return None
        vals = [evaluate(g, point) for g in self.gens]
        if min(vals) < 0:
            if not self._repairable:
                return None
            # push into the cone along the strictly-positive interior direction
            theta = max(-vals[k] / self._fulldim_vals[k]
                        for k in range(len(vals)) if vals[k] < 0)
            tshift = tval + theta * evaluate(target, self._fulldim)
            if tshift >= 0:
                return None
            coords = {m: coords.get(m, 0) + theta * self._fulldim[m] for m in self.masks}
            point = _point_from(self.n, coords)
            tval = tshift
        scale = Fraction(-1, 1) / tval
        coords = {m: coords.get(m, 0) * scale for m in self.masks}
        point = _point_from(self.n, coords)
        if any(evaluate(g, point) < 0 for g in self.gens):
            return None
        if evaluate(target, point) != -1:
            return None
        return point


def _point_from(n: int, coords: dict) -> EntropyVector:
    vals = [Fraction(0)] * (2 ** n - 1)
    for m, v in coords.items():
        vals[m - 1] = Fraction(v)
    return EntropyVector(n, vals)


def _unit_point(n: int, mask: int, value: Fraction) -> EntropyVector:
    return _point_from(n, {mask: value})


def _cert_from_dict(d: dict[int, Fraction]) -> FarkasCertificate:
    ids = tuple(sorted(d))
    return FarkasCertificate(ids, tuple(Fraction(d[i]) for i in ids))


def conic_implies(target: LinExpr, gens) -> FarkasCertificate | None:
    """Certificate iff target is a nonnegative combination of gens, else None."""
    cert, _ = _ConeSystem(list(gens)).decide(target)
    if cert is None:
        return None
    out = _cert_from_dict(cert)
    _require(verify_certificate(target, list(gens), out), "certificate fails verification")
    return out


def separation_witness(target: LinExpr, gens) -> SeparationWitness | None:
    """Witness point (normalized to target value -1) iff target is not implied."""
    _, point = _ConeSystem(list(gens)).decide(target)
    if point is None:
        return None
    out = SeparationWitness(point)
    _require(verify_witness(target, list(gens), out), "witness fails verification")
    return out


# ---------------------------------------------------------------------------
# quad orbits under argument swaps and ground-set relabeling

def _perm_tables(n: int) -> list[list[int]]:
    tables = []
    for perm in itertools.permutations(range(n)):
        tab = [0] * (2 ** n)
        for mask in range(2 ** n):
            out = 0
            for k in range(n):
                if mask >> k & 1:
                    out |= 1 << perm[k]
            tab[mask] = out
        tables.append(tab)
    return tables


def _swap_norm(q: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    a1, a2, a3, a4 = q
    if a1 > a2:
        a1, a2 = a2, a1
    if a3 > a4:
        a3, a4 = a4, a3
    return (a1, a2, a3, a4)


def _canonical_quad(q, tables) -> tuple[tuple[int, int, int, int], int]:
    best = None
    best_pi = 0
    for pi, tab in enumerate(tables):
        cand = _swap_norm((tab[q[0]], tab[q[1]], tab[q[2]], tab[q[3]]))
        if best is None or cand < best:
            best = cand
            best_pi = pi
    return best, best_pi


def _inverse_perm_index(n: int) -> list[int]:
    perms = list(itertools.permutations(range(n)))
    where = {p: i for i, p in enumerate(perms)}
    out = []
    for p in perms:
        inv = [0] * n
        for k, v in enumerate(p):
            inv[v] = k
        out.append(where[tuple(inv)])
    return out


def _delta_id_maps(n: int, delta: list[ingen.CanonicalInequality],
                   tables) -> list[list[int]]:
    """For each relabeling, the induced permutation of canonical member ids."""
    by_payload = {(ci.kind, ci.payload): i for i, ci in enumerate(delta)}
    perms = list(itertools.permutations(range(n)))
    maps = []
    for pi, tab in enumerate(tables):
        perm = perms[pi]
        one = []
        for ci in delta:
            if ci.kind == ingen.KIND_DELTA0:
                d1, d2, d3, d4, beta = ci.payload
                pl = ingen.delta0_payload(tab[d1], tab[d2], tab[d3], tab[d4], tab[beta])
            elif ci.kind in (ingen.KIND_DELTA1, ingen.KIND_ELEMENTAL_I):
                i, j, mu = ci.payload
                a, b = sorted((perm[i - 1] + 1, perm[j - 1] + 1))
                pl = (a, b, tab[mu])
            else:
                pl = (perm[ci.payload[0] - 1] + 1,)
            one.append(by_payload[(ci.kind, pl)])
        maps.append(one)
    return maps


def _subset_covered(q: tuple[int, int, int, int]) -> bool:
    for i in range(4):
        others = 0
        for j in range(4):
            if j != i:
                others |= q[j]
        if not q[i] & ~others:
            return True
    return False


# ---------------------------------------------------------------------------
# worker pool plumbing; each worker builds the generator system once

_WORK: dict = {}


def _pool_init(n: int, family: str) -> None:
    if family == "elemental":
        members = ingen.gen_elemental(n)
    else:
        members = ingen.gen_delta(n)
    _WORK["n"] = n
    _WORK["exprs"] = [ci.expr for ci in members]
    _WORK["sys"] = _ConeSystem(_WORK["exprs"])


def _job_quad(quad):
    target = ingleton_expr(IngletonQuad(_WORK["n"], *quad))
    cert, point = _WORK["sys"].decide(target)
    return quad, cert, point


def _job_drop_one(idx: int):
    exprs = _WORK["exprs"]
    rest = exprs[:idx] + exprs[idx + 1:]
    cert, point = _ConeSystem(rest).decide(exprs[idx])
    return idx, cert, point


def _run_jobs(items, job, workers: int, init_args):
    if workers <= 1:
        _pool_init(*init_args)
        return [job(it) for it in items]
    ctx = multiprocessing.get_context("fork")
    chunk = max(1, len(items) // (workers * 8))
    with ctx.Pool(workers, initializer=_pool_init, initargs=init_args) as pool:
        return pool.map(job, items, chunksize=chunk)


def _report_head(command: str, n: int, params) -> list[str]:
    extra = "".join(f" {k}={v}" for k, v in params)
    return [f"# ingletonlp {__version__}", f"# {command} n={n}{extra}"]


def _random_quad(rng: random.Random, n: int) -> tuple[int, int, int, int]:
    top = 2 ** n
    return (rng.randrange(top), rng.randrange(top), rng.randrange(top),
            rng.randrange(top))


# ---------------------------------------------------------------------------
# theorem-level scans


@dataclass
class Theorem1Report:
    n: int
    mode: str
    seed: int
    samples: int
    quads: int
    classes: int
    orbits: int
    implied: int
    not_implied: int
    counterexamples: tuple[str, ...]
    certificates: tuple[tuple[str, FarkasCertificate], ...]
    witnesses: tuple[tuple[str, SeparationWitness], ...]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_text(self) -> str:
        lines = _report_head("check-theorem1", self.n, [("mode", self.mode)])
        lines.append(f"mode {self.mode}")
        if self.mode == "sample":
            lines.append(f"seed {self.seed}")
            lines.append(f"samples {self.samples}")
        else:
            lines.append(f"quads {self.quads}")
            lines.append(f"classes {self.classes}")
            lines.append(f"orbits {self.orbits}")
        lines.append(f"implied {self.implied}")
        lines.append(f"not-implied {self.not_implied}")
        lines.append(f"counterexamples {len(self.counterexamples)}")
        for q in self.counterexamples:
            lines.append(f"counterexample {q}")
        lines.append("status ok" if self.ok else "status fail")
        return "\n".join(lines) + "\n"


def _quad_text(n: int, quad) -> str:
    return format_quad(IngletonQuad(n, *quad))


def check_theorem1(n: int, sample: int | None = None, seed: int = 0,
                   workers: int = 1) -> Theorem1Report:
    """Basic-implication criterion vs the LP decision, per quad orbit."""
    elem = [ci.expr for ci in ingen.gen_elemental(n)]
    if n <= 4 and sample is None:
        tables = _perm_tables(n)
        top = 2 ** n
        reps = set()
        nclasses = 0
        for a1 in range(top):
            for a2 in range(a1, top):
                for a3 in range(top):
                    for a4 in range(a3, top):
                        nclasses += 1
                        reps.add(_canonical_quad((a1, a2, a3, a4), tables)[0])
        items = sorted(reps)
        mode = "exhaustive"
        quads = top ** 4
    else:
        rng = random.Random(seed)
        count = sample if sample is not None else 1000
        items = [_random_quad(rng, n) for _ in range(count)]
        mode = "sample"
        quads = len(items)
        nclasses = 0

    results = _run_jobs(items, _job_quad, workers, (n, "elemental"))

    implied = 0
    not_implied = 0
    bad = []
    certs = []
    wits = []
    for quad, cert, point in results:
        text = _quad_text(n, quad)
        predicted = _subset_covered(quad)
        if cert is not None:
            fc = _cert_from_dict(cert)
            target = ingleton_expr(IngletonQuad(n, *quad))
            if not verify_certificate(target, elem, fc):
                raise RuntimeError(f"unsound certificate for {text}")
            implied += 1
            certs.append((text, fc))
            if not predicted:
                bad.append(text)
        else:
            sw = SeparationWitness(point)
            target = ingleton_expr(IngletonQuad(n, *quad))
            if not verify_witness(target, elem, sw):
                raise RuntimeError(f"unsound witness for {text}")
            not_implied += 1
            wits.append((text, sw))
            if predicted:
                bad.append(text)
    return Theorem1Report(
        n=n, mode=mode, seed=seed, samples=len(items), quads=quads,
        classes=nclasses, orbits=len(items) if mode == "exhaustive" else 0,
        implied=implied, not_implied=not_implied,
        counterexamples=tuple(bad), certificates=tuple(certs),
        witnesses=tuple(wits))


@dataclass
class CompletenessReport:
    n: int
    mode: str
    seed: int
    samples: int
    quads: int
    classes: int
    orbits: int
    certified: int
    failures: tuple[str, ...]
    certificates: tuple[tuple[str, FarkasCertificate], ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = _report_head("check-completeness", self.n, [("mode", self.mode)])
        lines.append(f"mode {self.mode}")
        if self.mode == "sample":
            lines.append(f"seed {self.seed}")
            lines.append(f"samples {self.samples}")
        else:
            lines.append(f"quads {self.quads}")
            lines.append(f"classes {self.classes}")
            lines.append(f"orbits {self.orbits}")
        lines.append(f"certified {self.certified}")
        lines.append(f"failures {len(self.failures)}")
        for q in self.failures:
            lines.append(f"failure {q}")
        lines.append("status ok" if self.ok else "status fail")
        return "\n".join(lines) + "\n"


def check_completeness(n: int, sample_size: int = 1000, seed: int = 0,
                       workers: int = 1,
                       budget: int | None = ingen.DEFAULT_BUDGET) -> CompletenessReport:
    """Every Ingleton inequality receives a certificate over the minimal set."""
    delta = ingen.gen_delta(n, budget=budget)
    delta_exprs = [ci.expr for ci in delta]

    if n <= 4:
        tables = _perm_tables(n)
        inv_index = _inverse_perm_index(n)
        id_maps = _delta_id_maps(n, delta, tables)
        top = 2 ** n
        canon: dict[tuple, tuple] = {}  # class -> (rep, inverse perm)
        reps = {}
        for a1 in range(top):
            for a2 in range(a1, top):
                for a3 in range(top):
                    for a4 in range(a3, top):
                        cls = (a1, a2, a3, a4)
                        rep, pi = _canonical_quad(cls, tables)
                        canon[cls] = (rep, inv_index[pi])
                        reps[rep] = None
        items = sorted(reps)
        results = _run_jobs(items, _job_quad, workers, (n, "delta"))
        rep_cert: dict[tuple, dict] = {}
        failures = []
        for quad, cert, point in results:
            if cert is None:
                failures.append(_quad_text(n, quad))
            else:
                rep_cert[quad] = cert
        certified = 0
        out_certs = []
        if not failures:
            for cls in sorted(canon):
                rep, inv_pi = canon[cls]
                idmap = id_maps[inv_pi]
                mapped = {}
                for gid, cf in rep_cert[rep].items():
                    mapped[idmap[gid]] = mapped.get(idmap[gid], Fraction(0)) + cf
                fc = _cert_from_dict(mapped)
                target = ingleton_expr(IngletonQuad(n, *cls))
                if not verify_certificate(target, delta_exprs, fc):
                    failures.append(_quad_text(n, cls))
                    continue
                certified += 1
                out_certs.append((_quad_text(n, cls), fc))
        return CompletenessReport(
            n=n, mode="exhaustive", seed=seed, samples=0, quads=top ** 4,
            classes=len(canon), orbits=len(items), certified=certified,
            failures=tuple(failures), certificates=tuple(out_certs))

    rng = random.Random(seed)
    items = [_random_quad(rng, n) for _ in range(sample_size)]
    results = _run_jobs(items, _job_quad, workers, (n, "delta"))
    failures = []
    out_certs = []
    certified = 0
    for quad, cert, point in results:
        text = _quad_text(n, quad)
        if cert is None:
            failures.append(text)
            continue
        fc = _cert_from_dict(cert)
        target = ingleton_expr(IngletonQuad(n, *quad))
        if not verify_certificate(target, delta_exprs, fc):
            failures.append(text)
            continue
        certified += 1
        out_certs.append((text, fc))
    return CompletenessReport(
        n=n, mode="sample", seed=seed, samples=sample_size, quads=len(items),
        classes=0, orbits=0, certified=certified, failures=tuple(failures),
        certificates=tuple(out_certs))


@dataclass
class MinimalityReport:
    n: int
    members: int
    redundant: tuple[str, ...]
    witnesses: tuple[tuple[str, str, SeparationWitness], ...]  # (kind, payload, w)

    @property
    def ok(self) -> bool:
        return not self.redundant

    def to_text(self) -> str:
        lines = _report_head("check-minimality", self.n, [])
        lines.append(f"members {self.members}")
        lines.append(f"non-redundant {self.members - len(self.redundant)}")
        lines.append(f"redundant {len(self.redundant)}")
        for t in self.redundant:
            lines.append(f"redundant-member {t}")
        for kind, payload, w in self.witnesses:
            lines.append(f"witness\t{kind}\t{payload}\t{format_vector_pairs(w.point)}")
        lines.append("status ok" if self.ok else "status fail")
        return "\n".join(lines) + "\n"


def check_minimality(n: int, workers: int = 1, allow_large: bool = False,
                     budget: int | None = ingen.DEFAULT_BUDGET) -> MinimalityReport:
    """Drop-one scan: every member must get a separation witness against the rest."""
    if n > 5 and not allow_large:
        raise ValueError("drop-one scan above n=5 requires allow_large")
    delta = ingen.gen_delta(n, budget=budget)
    exprs = [ci.expr for ci in delta]
    results = _run_jobs(list(range(len(delta))), _job_drop_one, workers, (n, "delta"))
    redundant = []
    witnesses = []
    for idx, cert, point in results:
        ci = delta[idx]
        if cert is not None:
            redundant.append(f"{ci.kind}\t{ci.payload_text()}")
            continue
        sw = SeparationWitness(point)
        rest = exprs[:idx] + exprs[idx + 1:]
        if not verify_witness(exprs[idx], rest, sw):
            raise RuntimeError(f"unsound witness for {ci.payload_text()}")
        if evaluate(exprs[idx], sw.point) != -1:
            raise RuntimeError(f"witness not normalized for {ci.payload_text()}")
        witnesses.append((ci.kind, ci.payload_text(), sw))
    return MinimalityReport(n=n, members=len(delta), redundant=tuple(redundant),
                            witnesses=tuple(witnesses))


# ---------------------------------------------------------------------------
# the four-element violating point and its lifts


def find_ingleton_violator(n: int = 4) -> EntropyVector:
    """Exact point in the polymatroid cone with negative Ingleton value, h(N)=1."""
    if n < 4:
        raise GroundSetError("every Ingleton inequality holds below four elements")
    base = _violator4()
    if n == 4:
        return base
    # pad with independent unit-entropy elements, then renormalize h(N)=1
    extra = n - 4
    scale = Fraction(1, 1 + extra)

    def val(mask: int) -> Fraction:
        inner = mask & 0xF
        inner_val = base[inner] if inner else Fraction(0)
        return (inner_val + (mask >> 4).bit_count()) * scale

    out = EntropyVector.from_function(n, val)
    quad = IngletonQuad(n, 1, 2, 4, 8)
    _require(evaluate(ingleton_expr(quad), out) < 0, "padded point satisfies Ingleton")
    if n <= 8:
        _require(all(evaluate(ci.expr, out) >= 0 for ci in ingen.gen_elemental(n)),
                 "padded point is not a polymatroid")
    return out


def _violator4() -> EntropyVector:
    elem = [ci.expr for ci in ingen.gen_elemental(4)]
    target = ingleton_expr(IngletonQuad(4, 1, 2, 4, 8))
    nm = 15
    # minimize the Ingleton value over the polymatroid cone sliced at h(N)=1
    rows = []
    b = []
    for g in elem:
        row = [-g.coeffs.get(m, 0) for m in range(1, 16)] + [0] * len(elem)
        rows.append(row)
        b.append(0)
    for k, row in enumerate(rows):
        row[nm + k] = 1
    full_row = [0] * (nm + len(elem))
    full_row[nm - 1] = 1
    rows.append(full_row)
    b.append(1)
    cost = [target.coeffs.get(m, 0) for m in range(1, 16)] + [0] * len(elem)
    res = solve_standard(rows, b, cost)
    _require(res.status == "optimal" and res.objective < 0,
             "no Ingleton violation in the polymatroid cone")
    point = EntropyVector(4, res.x[:nm])
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
            coeffs.append(Fraction(cf))
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
