"""Command-line front end for generation, certification scans, and bounds.

Exit codes: 0 when every claim checks out, 1 when a verification claim
fails (theorem counterexample, redundant member, uncertified result),
2 on malformed input or budget errors.  Reports are plain text with a
stable two-line header; nothing in them depends on worker count or time.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import bound as bound_mod
from . import certify, ingen
from ._version import __version__
from .entspace import (
    check_n,
    format_quad,
    format_vector_pairs,
    ingleton_expr,
    parse_quad,
    report_text,
    vector_from_text,
    vector_to_text,
    witness_fulldim,
    witness_modular,
)

ENV_BUDGET = "INGLETONLP_BUDGET"

_FAMILIES = {
    "delta": ingen.gen_delta,
    "delta0": ingen.gen_delta0,
    "delta1": ingen.gen_delta1,
    "delta2": ingen.gen_delta2,
    "elemental": ingen.gen_elemental,
}


@dataclass
class RunConfig:
    command: str
    n: int = 4
    family: str = "delta"
    out: str | None = None
    emit_dir: str | None = None
    budget: int | None = None
    workers: int = 1
    seed: int = 0
    sample: int | None = None
    allow_large: bool = False
    quad: str | None = None
    gens_path: str | None = None
    kind: str | None = None
    cone: str = bound_mod.CONE_GAMMA_IN
    point: str | None = None
    problem: str | None = None
    network: str | None = None


def _resolve_budget(config: RunConfig) -> int:
    if config.budget is not None:
        return config.budget
    env = os.environ.get(ENV_BUDGET)
    if env is not None:
        return int(env)
    return ingen.DEFAULT_BUDGET


def _cmd_gen(config: RunConfig) -> int:
    budget = _resolve_budget(config)
    make = _FAMILIES[config.family]
    members = make(config.n, budget=budget)
    text = ingen.inequalities_to_text(config.n, members)
    if config.out:
        Path(config.out).write_text(text, encoding="ascii")
        sys.stdout.write(report_text("gen", config.n, {"family": config.family}, [
            f"count {len(members)}", f"out {config.out}", "status ok"]))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_count(config: RunConfig) -> int:
    n = config.n
    elemental = ingen.count_elemental(n)
    sys.stdout.write(report_text("count", n, {}, [
        f"delta0 {ingen.count_delta0(n)}", f"delta1 {elemental - n}", f"delta2 {n}",
        f"delta {ingen.count_delta(n)}", f"elemental {elemental}",
        f"naive {(2 ** n) ** 4}", "status ok"]))
    return 0


def _cmd_classify(config: RunConfig) -> int:
    q = parse_quad(config.quad, config.n)
    cls = ingen.classify_quad(q)
    sys.stdout.write(report_text("classify", config.n, {"quad": format_quad(q)},
                                 [f"class {cls}", "status ok"]))
    return 0


def _load_gens(config: RunConfig):
    budget = _resolve_budget(config)
    if config.gens_path:
        n, members = ingen.read_inequalities(config.gens_path)
        if n != config.n:
            raise ValueError(f"generator file is for n={n}, requested n={config.n}")
        return members
    return _FAMILIES[config.family](config.n, budget=budget)


def _cmd_implies(config: RunConfig) -> int:
    q = parse_quad(config.quad, config.n)
    label = format_quad(q)
    target = ingleton_expr(q)
    members = _load_gens(config)
    answer = certify.decide_implication(target, [ci.expr for ci in members])
    if isinstance(answer, certify.FarkasCertificate):
        body = ["implied true", certify.format_certificate_line(label, answer)]
        _emit(config, members, certificates=[(label, answer)])
    else:
        body = ["implied false", f"witness {format_vector_pairs(answer.point)}"]
        _emit(config, members, witnesses=[(label, answer)])
    sys.stdout.write(report_text("implies", config.n, {"quad": label, "gens": len(members)},
                                 [*body, "status ok"]))
    return 0


def _emit(config: RunConfig, members, certificates=(), witnesses=()) -> None:
    if not config.emit_dir:
        return
    d = Path(config.emit_dir)
    d.mkdir(parents=True, exist_ok=True)
    (d / "generators.txt").write_text(
        ingen.inequalities_to_text(config.n, members), encoding="ascii")
    if certificates:
        certify.write_certificates(d / "certificates.txt", certificates)
    if witnesses:
        certify.write_witnesses(d / "witnesses.txt", config.n, witnesses)


def _cmd_check_theorem1(config: RunConfig) -> int:
    report = certify.check_theorem1(config.n, sample=config.sample, seed=config.seed,
                                    workers=config.workers, budget=_resolve_budget(config))
    sys.stdout.write(report.to_text())
    _emit(config, report.generators, certificates=report.certificates,
               witnesses=report.witnesses)
    return 0 if report.ok else 1


def _cmd_check_completeness(config: RunConfig) -> int:
    report = certify.check_completeness(
        config.n, sample_size=config.sample, seed=config.seed, workers=config.workers,
        budget=_resolve_budget(config))
    sys.stdout.write(report.to_text())
    _emit(config, report.generators, certificates=report.certificates)
    return 0 if report.ok else 1


def _cmd_check_minimality(config: RunConfig) -> int:
    report = certify.check_minimality(config.n, workers=config.workers,
                                      allow_large=config.allow_large,
                                      budget=_resolve_budget(config))
    sys.stdout.write(report.to_text())
    _emit(config, report.generators,
               witnesses=[(f"{kind} {payload}", w) for kind, payload, w in report.witnesses])
    return 0 if report.ok else 1


def _cmd_witness(config: RunConfig) -> int:
    if config.kind == "fulldim":
        vec = witness_fulldim(config.n)
    elif config.kind == "modular":
        vec = witness_modular(config.n)
    elif config.kind == "violator":
        vec = certify.find_ingleton_violator(config.n)
    else:
        raise ValueError(f"unknown witness kind {config.kind!r}")
    text = vector_to_text(vec)
    if config.out:
        Path(config.out).write_text(text, encoding="ascii")
        sys.stdout.write(report_text("witness", config.n, {"kind": config.kind},
                                     [f"out {config.out}", "status ok"]))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_membership(config: RunConfig) -> int:
    budget = _resolve_budget(config)
    vec = vector_from_text(Path(config.point).read_text(encoding="ascii"))
    member, violated = bound_mod.membership(vec, config.cone, budget=budget)
    body = [f"member {'true' if member else 'false'}"]
    if violated is not None:
        body.append(f"violated {violated.kind} {violated.payload_text()}")
    sys.stdout.write(report_text("membership", vec.n, {"cone": config.cone},
                                 [*body, "status ok"]))
    return 0


def _cmd_bound(config: RunConfig) -> int:
    budget = _resolve_budget(config)
    if (config.problem is None) == (config.network is None):
        raise ValueError("bound needs exactly one of --problem or --network")
    if config.problem:
        problem = bound_mod.parse_problem(
            Path(config.problem).read_text(encoding="ascii"))
    else:
        net = bound_mod.parse_network(
            Path(config.network).read_text(encoding="ascii"))
        problem = bound_mod.compile_network(net, cone=config.cone)
    members = bound_mod.cone_members(problem.n, problem.cone, budget=budget)
    result = bound_mod.solve_bound(problem, members=members)
    text = bound_mod.format_bound_report(problem, result, members=members)
    sys.stdout.write(text)
    if config.out:
        Path(config.out).write_text(text, encoding="ascii")
    return 0


_HANDLERS = {
    "gen": _cmd_gen,
    "count": _cmd_count,
    "classify": _cmd_classify,
    "implies": _cmd_implies,
    "check-theorem1": _cmd_check_theorem1,
    "check-completeness": _cmd_check_completeness,
    "check-minimality": _cmd_check_minimality,
    "witness": _cmd_witness,
    "membership": _cmd_membership,
    "bound": _cmd_bound,
}


def run(config: RunConfig) -> int:
    check_n(config.n)
    return _HANDLERS[config.command](config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ingletonlp",
        description="Generate, certify, and optimize over Ingleton inequality sets.")
    parser.add_argument("--version", action="version",
                        version=f"ingletonlp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, n_default=4):
        p.add_argument("--n", type=int, default=n_default)
        p.add_argument("--budget", type=int, default=None)

    p = sub.add_parser("gen", help="write an inequality family to a file")
    common(p)
    p.add_argument("--family", choices=sorted(_FAMILIES), default="delta")
    p.add_argument("--out", default=None)

    p = sub.add_parser("count", help="closed-form family sizes")
    common(p)

    p = sub.add_parser("classify", help="classify one quad")
    common(p)
    p.add_argument("--quad", required=True)

    p = sub.add_parser("implies", help="decide one conic implication")
    common(p)
    p.add_argument("--quad", required=True)
    p.add_argument("--family", choices=sorted(_FAMILIES), default="delta")
    p.add_argument("--gens", dest="gens_path", default=None,
                   help="inequality file overriding --family")
    p.add_argument("--emit-certificates", dest="emit_dir", default=None)

    for name in ("check-theorem1", "check-completeness", "check-minimality"):
        p = sub.add_parser(name)
        common(p)
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--sample", type=int, default=None)
        p.add_argument("--emit-certificates", dest="emit_dir", default=None)
        if name == "check-minimality":
            p.add_argument("--allow-large", action="store_true")

    p = sub.add_parser("witness", help="print a named entropy vector")
    common(p)
    p.add_argument("--kind", choices=("fulldim", "modular", "violator"),
                   required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("membership", help="test a vector against a cone")
    common(p)
    p.add_argument("--point", required=True, help="vector file")
    p.add_argument("--cone", choices=(bound_mod.CONE_GAMMA,
                                      bound_mod.CONE_GAMMA_IN),
                   default=bound_mod.CONE_GAMMA_IN)

    p = sub.add_parser("bound", help="solve an exact LP bound")
    common(p)
    p.add_argument("--problem", default=None)
    p.add_argument("--network", default=None)
    p.add_argument("--cone", choices=(bound_mod.CONE_GAMMA,
                                      bound_mod.CONE_GAMMA_IN),
                   default=bound_mod.CONE_GAMMA_IN)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    fields = {f for f in RunConfig.__dataclass_fields__}
    config = RunConfig(**{k: v for k, v in vars(ns).items() if k in fields})
    try:
        return run(config)
    except (ValueError, OSError, ingen.BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
