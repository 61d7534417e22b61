"""Exact generation, certification, and LP use of Ingleton inequalities.

Each public name is imported from its module on first access, so that a
command loads only the modules it runs.
"""

import importlib

from ._version import __version__

# module -> the public names it defines
_EXPORTS = {
    "bound": (
        "BoundProblem", "BoundResult", "DualCertificate",
        "InfeasibilityCertificate", "NetworkDescription", "NetworkEdge",
        "NetworkSink", "compile_network", "membership", "parse_network",
        "parse_problem", "solve_bound", "verify_bound_result"),
    "certify": (
        "FarkasCertificate", "SeparationWitness", "check_completeness",
        "check_minimality", "check_theorem1", "decide_implication",
        "find_ingleton_violator", "verify_certificate", "verify_witness"),
    "entspace": (
        "EntropyVector", "GroundSetError", "IngletonQuad", "LinExpr",
        "cond_entropy_expr", "cond_mutinfo_expr", "evaluate", "format_expr",
        "format_quad", "format_subset", "ingleton_expr", "parse_expr",
        "parse_quad", "parse_subset", "witness_fulldim", "witness_modular"),
    "ingen": (
        "BudgetExceededError", "CanonicalInequality", "QuadClass",
        "classify_quad", "count_delta", "count_delta0", "count_elemental", "gen_delta",
        "gen_delta0", "gen_delta1", "gen_delta2", "gen_elemental",
        "inequalities_from_text", "inequalities_to_text", "reduce_quad"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
