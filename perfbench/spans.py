"""Spans recorded around ingletonlp's layer boundaries, from outside the package.

`Tracer.install` rebinds every name the package calls across a layer
boundary, at every module that binds it: `certify` and `bound` import
`solve_standard`, `linprog` and `evaluate` by value, and `cli._FAMILIES`
captured `gen_delta` and `gen_delta0` when `cli` was imported, so
patching only the defining module would miss those calls.  Spans stay
in memory; `layer_metrics` folds them into the per-layer numbers when
the command has finished.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute, span name); one wrapper per binding site
SITES = (
    ("ingletonlp.simplex", "solve_standard", "simplex.solve"),
    ("ingletonlp.certify", "solve_standard", "simplex.solve"),
    ("ingletonlp.bound", "solve_standard", "simplex.solve"),
    ("ingletonlp.certify", "linprog", "certify.presolve"),
    ("ingletonlp.bound", "linprog", "bound.presolve"),
    ("ingletonlp.entspace", "evaluate", "entspace.evaluate"),
    ("ingletonlp.certify", "evaluate", "entspace.evaluate"),
    ("ingletonlp.bound", "evaluate", "entspace.evaluate"),
    ("ingletonlp.ingen", "gen_delta", "ingen.gen"),
    ("ingletonlp.ingen", "gen_delta0", "ingen.gen"),
    ("ingletonlp.ingen", "gen_delta1", "ingen.gen"),
    ("ingletonlp.ingen", "gen_delta2", "ingen.gen"),
    ("ingletonlp.ingen", "gen_elemental", "ingen.gen"),
    ("ingletonlp.ingen", "inequalities_to_text", "ingen.write"),
    ("ingletonlp.certify", "verify_certificate", "certify.verify"),
    ("ingletonlp.certify", "verify_witness", "certify.verify"),
    ("ingletonlp.certify", "check_theorem1", "certify.scan"),
    ("ingletonlp.certify", "check_completeness", "certify.scan"),
    ("ingletonlp.certify", "check_minimality", "certify.scan"),
    ("ingletonlp.bound", "solve_bound", "bound.solve"),
    ("ingletonlp.bound", "verify_bound_result", "bound.verify"),
    ("ingletonlp.bound", "format_bound_report", "bound.report"),
)

# per-layer metric name -> unit; the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "simplex.calls": "count",
    "simplex.busy_s": "s",
    "simplex.cells": "count",
    "simplex.max_bits": "bits",
    "simplex.warm_offered": "count",
    "certify.presolve_calls": "count",
    "certify.presolve_busy_s": "s",
    "certify.verify_calls": "count",
    "certify.verify_busy_s": "s",
    "certify.scan_self_s": "s",
    "entspace.evaluate_calls": "count",
    "entspace.evaluate_busy_s": "s",
    "ingen.gen_calls": "count",
    "ingen.gen_busy_s": "s",
    "ingen.members": "count",
    "ingen.regen_ratio": "ratio",
    "ingen.write_busy_s": "s",
    "bound.presolve_calls": "count",
    "bound.presolve_busy_s": "s",
    "bound.verify_busy_s": "s",
    "bound.self_s": "s",
    "bound.report_busy_s": "s",
    "cli.main_s": "s",
    "trace.overhead_s": "s",
}


def _max_bits(values) -> int:
    best = 0
    for v in values or ():
        best = max(best, v.numerator.bit_length(), v.denominator.bit_length())
    return best


def _simplex_note(args, kwargs, result):
    a = args[0]
    cells = len(a) * (len(a[0]) if a else 0)
    warm = kwargs.get("warm", args[3] if len(args) > 3 else None) is not None
    return cells, warm, max(_max_bits(result.x), _max_bits(result.y))


def _gen_note(args, kwargs, result):
    return (args[0] if args else kwargs["n"]), len(result)


_NOTES = {"simplex.solve": _simplex_note, "ingen.gen": _gen_note}


class Tracer:
    """Closed spans as (name, start, end, parent index, note), in start order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        note_fn = _NOTES.get(name)
        label = fn.__name__
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent, None)
            if note_fn is not None:
                self.spans[idx] = (name, t0, t1, parent,
                                   (label,) + note_fn(args, kwargs, result))
            return result

        return wrapper

    def install(self) -> None:
        wrapped = {}
        for module_name, attr, span in SITES:
            module = importlib.import_module(module_name)
            w = self.wrap(span, getattr(module, attr))
            setattr(module, attr, w)
            wrapped[(module_name, attr)] = w
        cli = importlib.import_module("ingletonlp.cli")
        cli._FAMILIES["delta"] = wrapped[("ingletonlp.ingen", "gen_delta")]
        cli._FAMILIES["delta0"] = wrapped[("ingletonlp.ingen", "gen_delta0")]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for _name, start, end, parent, _note in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (_name, start, end, _parent, _note) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def _outermost(spans, name: str) -> list[int]:
    """Indices of `name` spans that have no `name` span above them."""
    out = []
    for idx, span in enumerate(spans):
        if span[0] != name:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out.append(idx)
    return out


def layer_metrics(spans) -> dict[str, float]:
    """Fold closed spans into the values named in LAYER_METRICS.

    `trace.overhead_s` is missing: it compares traced with untraced runs.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for idx, span in enumerate(spans):
        by_name[span[0]].append(idx)

    def busy(name):
        return sum(spans[i][2] - spans[i][1] for i in by_name[name])

    def self_sum(name):
        return sum(selfs[i] for i in by_name[name])

    # a span whose call raised carries no note
    notes = [spans[i][4] for i in by_name["simplex.solve"] if spans[i][4]]
    gens = [i for i in _outermost(spans, "ingen.gen") if spans[i][4]]
    gen_keys = [spans[i][4][:2] for i in gens]
    return {
        "simplex.calls": len(by_name["simplex.solve"]),
        "simplex.busy_s": busy("simplex.solve"),
        "simplex.cells": sum(n[1] for n in notes),
        "simplex.max_bits": max((n[3] for n in notes), default=0),
        "simplex.warm_offered": sum(1 for n in notes if n[2]),
        "certify.presolve_calls": len(by_name["certify.presolve"]),
        "certify.presolve_busy_s": busy("certify.presolve"),
        "certify.verify_calls": len(by_name["certify.verify"]),
        "certify.verify_busy_s": busy("certify.verify"),
        "certify.scan_self_s": self_sum("certify.scan"),
        "entspace.evaluate_calls": len(by_name["entspace.evaluate"]),
        "entspace.evaluate_busy_s": busy("entspace.evaluate"),
        "ingen.gen_calls": len(gens),
        "ingen.gen_busy_s": sum(spans[i][2] - spans[i][1] for i in gens),
        "ingen.members": sum(spans[i][4][2] for i in gens),
        "ingen.regen_ratio": len(gens) / len(set(gen_keys)) if gens else 0.0,
        "ingen.write_busy_s": busy("ingen.write"),
        "bound.presolve_calls": len(by_name["bound.presolve"]),
        "bound.presolve_busy_s": busy("bound.presolve"),
        "bound.verify_busy_s": busy("bound.verify"),
        "bound.self_s": self_sum("bound.solve"),
        "bound.report_busy_s": busy("bound.report"),
        "cli.main_s": busy("cli.main"),
    }
