"""Command-line front end for generation, certification scans, and bounds.

Each command imports the modules it runs (`bound`, `certify`) when it
starts, so `gen` and `count` load only `entspace` and `ingen`.  Importing
`cli` loads neither `dataclasses` nor `argparse` (`main` imports it); that
took bound-butterfly5's `setup_s` from 0.050 s to 0.039 s on 2 x86 vCPUs.

Exit codes: 0 when every claim checks out, 1 when a verification claim
fails (theorem counterexample, redundant member, uncertified result),
2 on malformed input or budget errors.  Reports are plain text with a
stable two-line header; nothing in them depends on worker count or time.
"""

from __future__ import annotations

import functools
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import ingen
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

if TYPE_CHECKING:
    import argparse

ENV_BUDGET = "INGLETONLP_BUDGET"

# family name -> its members at (n, budget=...), sized and iterable.  These
# are the lazy `ingen.family` enumerators; perfbench's tracer swaps the
# `gen_*` list builders in for the entries it times, and every use here
# takes either.
_FAMILIES = {name: functools.partial(ingen.family, name) for name in ingen.FAMILIES}


def _resolve_budget(args: argparse.Namespace) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get(ENV_BUDGET)
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"{ENV_BUDGET} must be an int, got {env!r}") from None
    return ingen.DEFAULT_BUDGET


def _cmd_gen(args: argparse.Namespace) -> int:
    # streamed: one block of members and its text at a time, whatever n is
    members = _FAMILIES[args.family](args.n, budget=_resolve_budget(args))
    if args.out:
        with open(args.out, "w", encoding="ascii") as f:
            ingen.write_inequality_stream(f, args.n, members)
        sys.stdout.write(report_text("gen", args.n, {"family": args.family}, [
            f"count {len(members)}", f"out {args.out}", "status ok"]))
    else:
        ingen.write_inequality_stream(sys.stdout, args.n, members)
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    n = args.n
    sizes = [f"{name} {len(ingen.family(name, n, budget=None))}"
             for name in ("delta0", "delta1", "delta2", "delta", "elemental")]
    sys.stdout.write(report_text("count", n, {}, [
        *sizes, f"naive {(2 ** n) ** 4}", "status ok"]))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    q = parse_quad(args.quad, args.n)
    cls = ingen.classify_quad(q)
    sys.stdout.write(report_text("classify", args.n, {"quad": format_quad(q)},
                                 [f"class {cls}", "status ok"]))
    return 0


def _check_file_n(what: str, n: int, args: argparse.Namespace) -> None:
    """An --n given on the command line must be the n the input file is for."""
    if args.n is not None and n != args.n:
        raise ValueError(f"{what} file is for n={n}, requested n={args.n}")


def _load_gens(args: argparse.Namespace):
    budget = _resolve_budget(args)
    if args.gens_path:
        n, members = ingen.read_inequalities(args.gens_path)
        _check_file_n("generator", n, args)
        return members
    return list(_FAMILIES[args.family](args.n, budget=budget))


def _cmd_implies(args: argparse.Namespace) -> int:
    from . import certify
    q = parse_quad(args.quad, args.n)
    label = format_quad(q)
    target = ingleton_expr(q)
    members = _load_gens(args)
    answer = certify.decide_implication(target, [ci.expr for ci in members])
    if isinstance(answer, certify.FarkasCertificate):
        body = ["implied true", certify.format_certificate_line(label, answer)]
        _emit(args, members, certificates=[(label, answer)])
    else:
        body = ["implied false", f"witness {format_vector_pairs(answer.point)}"]
        _emit(args, members, witnesses=[(label, answer)])
    sys.stdout.write(report_text("implies", args.n, {"quad": label, "gens": len(members)},
                                 [*body, "status ok"]))
    return 0


def _emit(args: argparse.Namespace, members, certificates=(), witnesses=()) -> None:
    if not args.emit_dir:
        return
    from . import certify
    d = Path(args.emit_dir)
    d.mkdir(parents=True, exist_ok=True)
    ingen.write_inequalities(d / "generators.txt", args.n, members)
    if certificates:
        certify.write_certificates(d / "certificates.txt", certificates)
    if witnesses:
        certify.write_witnesses(d / "witnesses.txt", args.n, witnesses)


def _cmd_check_theorem1(args: argparse.Namespace) -> int:
    from . import certify
    report = certify.check_theorem1(args.n, sample=args.sample, seed=args.seed,
                                    workers=args.workers, budget=_resolve_budget(args))
    _emit(args, report.generators, certificates=report.certificates,
          witnesses=report.witnesses)
    sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


def _cmd_check_completeness(args: argparse.Namespace) -> int:
    from . import certify
    report = certify.check_completeness(
        args.n, sample=args.sample, seed=args.seed, workers=args.workers,
        budget=_resolve_budget(args))
    _emit(args, report.generators, certificates=report.certificates)
    sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


def _cmd_check_minimality(args: argparse.Namespace) -> int:
    from . import certify
    report = certify.check_minimality(args.n, workers=args.workers,
                                      allow_large=args.allow_large,
                                      budget=_resolve_budget(args))
    _emit(args, report.generators,
          witnesses=[(f"{kind} {payload}", w) for kind, payload, w in report.witnesses])
    sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


def _cmd_witness(args: argparse.Namespace) -> int:
    if args.kind == "fulldim":
        vec = witness_fulldim(args.n)
    elif args.kind == "modular":
        vec = witness_modular(args.n)
    elif args.kind == "violator":
        from . import certify
        vec = certify.find_ingleton_violator(args.n)
    else:
        raise ValueError(f"unknown witness kind {args.kind!r}")
    text = vector_to_text(vec)
    if args.out:
        Path(args.out).write_text(text, encoding="ascii")
        sys.stdout.write(report_text("witness", args.n, {"kind": args.kind},
                                     [f"out {args.out}", "status ok"]))
    else:
        sys.stdout.write(text)
    return 0


def _cmd_membership(args: argparse.Namespace) -> int:
    from . import bound as bound_mod
    budget = _resolve_budget(args)
    vec = vector_from_text(Path(args.point).read_text(encoding="ascii"))
    _check_file_n("point", vec.n, args)
    member, violated = bound_mod.membership(vec, args.cone, budget=budget)
    body = [f"member {'true' if member else 'false'}"]
    if violated is not None:
        body.append(f"violated {violated.kind} {violated.payload_text()}")
    sys.stdout.write(report_text("membership", vec.n, {"cone": args.cone},
                                 [*body, "status ok"]))
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    from . import bound as bound_mod
    budget = _resolve_budget(args)
    if (args.problem is None) == (args.network is None):
        raise ValueError("bound needs exactly one of --problem or --network")
    if args.problem:
        problem = bound_mod.parse_problem(
            Path(args.problem).read_text(encoding="ascii"))
    else:
        net = bound_mod.parse_network(
            Path(args.network).read_text(encoding="ascii"))
        problem = bound_mod.compile_network(net, cone=args.cone)
    _check_file_n("problem" if args.problem else "network", problem.n, args)
    members = bound_mod.cone_members(problem.n, problem.cone, budget=budget)
    result = bound_mod.solve_bound(problem, members=members)
    text = bound_mod.format_bound_report(problem, result, members=members)
    if args.out:  # first, so an unwritable file leaves stdout empty
        Path(args.out).write_text(text, encoding="ascii")
    sys.stdout.write(text)
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


def _build_parser() -> argparse.ArgumentParser:
    import argparse  # here, so importing cli does not load it
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
        p.add_argument("--emit-certificates", dest="emit_dir", default=None)
        if name == "check-minimality":
            p.add_argument("--allow-large", action="store_true")
        else:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--sample", type=int, default=None)

    p = sub.add_parser("witness", help="print a named entropy vector")
    common(p)
    p.add_argument("--kind", choices=("fulldim", "modular", "violator"),
                   required=True)
    p.add_argument("--out", default=None)

    # these two read n from their input file; an --n given must match it
    p = sub.add_parser("membership", help="test a vector against a cone")
    common(p, n_default=None)
    p.add_argument("--point", required=True, help="vector file")
    p.add_argument("--cone", choices=(ingen.CONE_GAMMA, ingen.CONE_GAMMA_IN),
                   default=ingen.CONE_GAMMA_IN)

    p = sub.add_parser("bound", help="solve an exact LP bound")
    common(p, n_default=None)
    p.add_argument("--problem", default=None)
    p.add_argument("--network", default=None)
    p.add_argument("--cone", choices=(ingen.CONE_GAMMA, ingen.CONE_GAMMA_IN),
                   default=ingen.CONE_GAMMA_IN)
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.n is not None:
            check_n(args.n)
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, ingen.BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
