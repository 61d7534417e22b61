"""Structure locks read from the package's syntax trees."""

import ast
import importlib
from pathlib import Path

import pytest

import ingletonlp

PACKAGE = Path(ingletonlp.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_assert_statement_in_the_package():
    # python -O strips asserts; soundness checks go through _require instead
    trees = _trees()
    assert len(trees) > 5
    found = [(name, node.lineno) for name, tree in trees.items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_module_imports_dataclasses():
    # the records sit on entspace.Record, so importing the package loads no
    # dataclasses and, through it, no inspect
    imported = {alias.name if isinstance(node, ast.Import) else node.module
                for tree in _trees().values() for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert {"functools", "fractions"} <= imported and "dataclasses" not in imported


def _defined(trees):
    """(module file, function name) of every function definition."""
    return [(name, node.name) for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _calls(tree, func):
    """Calls of func in tree, by plain or attribute name."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", getattr(node.func, "id", None)) == func]


def test_one_accumulator_and_one_permutation_walk():
    trees = _trees()
    defined = {fn for _name, fn in _defined(trees)}
    assert "_combine" in defined and "_bump" not in defined
    assert len(_calls(trees["certify.py"], "permutations")) == 1
    # the completeness scan's certificates and the drop-one orbit walk both
    # relabel members through ingen.member_image
    sites = _CallSites("delta0_payload")
    sites.visit(trees["ingen.py"])
    assert sorted(sites.sites) == ["classify_quad", "member_image"]
    # one orbit walk serves the quad scans and the drop-one scan
    assert not {"_canonical_quad", "_delta_id_maps", "_delta_orbits"} & defined
    assert [name for name, fn in _defined(trees) if fn == "_orbits"] == ["certify.py"]
    walks = _CallSites("_orbits")
    walks.visit(trees["certify.py"])
    assert sorted(walks.sites) == ["_choose_quads", "check_minimality"]


_PAYLOAD_LAYOUT = {"delta0_payload", "KIND_DELTA1", "KIND_DELTA2"}


def _payload_reads(tree):
    """Every subscript of, or tuple unpacking from, a name or attribute called payload."""
    def is_payload(node):
        return getattr(node, "attr", getattr(node, "id", None)) == "payload"
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript) and is_payload(node.value) or (
                isinstance(node, ast.Assign) and is_payload(node.value)
                and any(isinstance(t, (ast.Tuple, ast.List)) for t in node.targets)):
            yield ast.unparse(node)


def test_only_ingen_knows_a_payload_layout():
    # certify and bound take a member's (kind, payload) as an opaque key:
    # they neither unpack a payload nor build one, and ask ingen for a key's
    # relabeled image and for the elemental keys summing to h(alpha)
    trees = _trees()
    for name in ("certify.py", "bound.py"):
        used = {node.attr if isinstance(node, ast.Attribute) else node.id
                for node in ast.walk(trees[name]) if isinstance(node, (ast.Attribute, ast.Name))}
        assert not _PAYLOAD_LAYOUT & used, name
        assert list(_payload_reads(trees[name])) == [], name
    defined = _defined(trees)
    for fn in ("member_image", "entropy_decomposition", "member_terms", "_parse_payload"):
        assert [name for name, f in defined if f == fn] == ["ingen.py"], fn
    from ingletonlp.ingen import CanonicalInequality
    assert CanonicalInequality.__slots__ == ("n", "kind", "payload")


_NETWORK_CHECKS = ("duplicate source/edge id", "duplicate sink id", "has no inputs",
                   "negative capacity", "references unknown id", "sees unknown id",
                   "demands non-source id", "cycle through edge", "cannot reach demanded")


def test_networks_and_cone_systems_are_checked_once():
    # NetworkDescription checks itself once built, as BoundProblem and
    # IngletonQuad do, so neither the parser nor the compiler checks a network
    trees = _trees()
    tree = trees["bound.py"]
    network = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "NetworkDescription")
    inside = {id(node) for node in ast.walk(network)}
    messages = [node for node in ast.walk(tree) if isinstance(node, ast.Constant)
                and isinstance(node.value, str) and any(m in node.value for m in _NETWORK_CHECKS)]
    assert len(messages) == len(_NETWORK_CHECKS)
    assert all(id(node) in inside for node in messages)
    assert _calls(_function(network, "__post_init__"), "check_n")
    for fn in ("parse_network", "compile_network"):
        assert not _calls(_function(tree, fn), "check_n"), fn
    # a cone system leaves its ground-set check to the MemberTable it builds
    system = next(node for node in trees["certify.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "_ConeSystem")
    init = _function(system, "__init__")
    assert _calls(init, "MemberTable") and not _calls(init, "GroundSetError")


def test_one_exact_matrix_builder_and_one_exact_solve_per_module():
    # simplex builds every exact matrix; the violator is a bound solve
    trees = _trees()
    assert [name for name, fn in _defined(trees) if fn == "exact_columns"] == ["simplex.py"]
    assert len(_calls(trees["certify.py"], "solve_standard")) == 1
    assert len(_calls(trees["bound.py"], "solve_standard")) == 1


def test_duals_and_restarts_need_no_second_solve_or_basis_rebuild():
    # both are read off the final tableau's starting-basis columns
    defined = {fn for _name, fn in _defined(_trees())}
    assert "solve_standard" in defined
    assert not {"_solve_transposed", "_warm_tableau", "swap"} & defined


def test_one_tableau_denominator_and_no_gcd():
    # pivots divide exactly by the tableau's one denominator, so no row is
    # gcd-reduced, no row keeps a denominator of its own, and nothing widens
    # lanes behind a reduce
    from ingletonlp.simplex import _Tableau
    tree = _trees()["simplex.py"]
    tableau = next(node for node in tree.body
                   if isinstance(node, ast.ClassDef) and node.name == "_Tableau")
    methods = {node.name for node in tableau.body if isinstance(node, ast.FunctionDef)}
    assert {"pivot", "combine"} <= methods and not {"reduce", "clear"} & methods
    assert not hasattr(_Tableau([[1]], 1), "D")
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "gcd" not in imported and not _calls(tree, "gcd")


def _float_stack_names(tree):
    """(kind, text) of each import, and each string but a docstring, naming numpy or scipy."""
    docs = {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found = [("import", alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found = [("import", node.module or "")]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docs:
            found = [("string", node.value)]
        else:
            continue
        yield from (hit for hit in found if "numpy" in hit[1] or "scipy" in hit[1])


def test_highs_is_reached_through_simplex_alone():
    # simplex loads HiGHS's compiled module from its file and hands it column
    # lists: no module imports numpy or scipy (scipy.optimize and scipy.sparse
    # included), and no other module names them
    trees = _trees()
    defined = {fn for _name, fn in _defined(trees)}
    assert {"linprog", "float_columns"} <= defined
    assert not {"float_rows", "drop_row"} & defined
    found = {name: list(_float_stack_names(tree)) for name, tree in trees.items()}
    assert [name for name, hits in found.items() if hits] == ["simplex.py"]
    assert {kind for kind, _text in found["simplex.py"]} == {"string"}


class _CallSites(ast.NodeVisitor):
    """The innermost enclosing function (or <module>) of every call of func."""

    def __init__(self, func):
        self.func, self.stack, self.sites = func, ["<module>"], []

    def visit_FunctionDef(self, node):
        self.stack.append(node.name)
        self.generic_visit(node)
        self.stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if getattr(node.func, "attr", getattr(node.func, "id", None)) == self.func:
            self.sites.append(self.stack[-1])
        self.generic_visit(node)


def test_one_form_per_point_and_one_scaling_routine():
    # a point is int numerators over one denominator, and one routine
    # puts rationals over their lcm for points and simplex rows alike
    from ingletonlp.entspace import EntropyVector
    trees = _trees()
    assert "_int_row" not in {fn for _name, fn in _defined(trees)}
    callers = set()
    for name, tree in trees.items():
        sites = _CallSites("lcm")
        sites.visit(tree)
        callers.update((name, fn) for fn in sites.sites)
    assert callers == {("entspace.py", "int_form")}
    assert not {"_values", "_scaled"} & set(EntropyVector.__slots__)


def test_one_verifier_and_one_run_writer():
    # certify proposes answers and _settle checks each once; ingen walks the
    # Delta0 loop nest in _delta0_runs alone and renders lines in _write_runs
    trees = _trees()
    defined = {fn for _name, fn in _defined(trees)}
    assert {"answers", "_settle", "_certificate", "_write_runs"} <= defined
    assert not {"decide", "_repair", "_cert_over", "_cert_from_dict",
                "_run_text", "_write_delta0"} & defined
    # a nested helper counts as part of the function that holds it
    callers = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.FunctionDef) and _calls(node, "_nonempty_submasks")}
    assert callers == {"_delta0_runs", "_delta1_runs"}


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _or_of_names(node):
    """Whether node is a | b or a | b | c ... of plain names."""
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr) and all(
        isinstance(side, ast.Name) or _or_of_names(side) for side in (node.left, node.right))


class _MaskSpellings(_CallSites):
    """The innermost enclosing function of every tuple or list that spells
    five or more unions of names, bare or as the first entry of a pair."""

    def visit_Tuple(self, node):
        firsts = [e.elts[0] if isinstance(e, ast.Tuple) and e.elts else e for e in node.elts]
        if sum(map(_or_of_names, firsts)) >= 5:
            self.sites.append(self.stack[-1])
        self.generic_visit(node)

    visit_List = visit_Tuple
    visit_Call = ast.NodeVisitor.generic_visit


def test_the_ingleton_masks_are_spelled_once():
    # J's ten masks are written out in entspace.ingleton_masks alone; its
    # terms and the Delta0 lines of _write_runs take them from there
    trees = _trees()
    spelled = set()
    for name, tree in trees.items():
        sites = _MaskSpellings(None)  # func unused: no call is recorded
        sites.visit(tree)
        spelled.update((name, fn) for fn in sites.sites)
    assert spelled == {("entspace.py", "ingleton_masks")}
    assert _calls(_function(trees["entspace.py"], "ingleton_terms"), "ingleton_masks")
    assert _calls(_function(trees["ingen.py"], "_write_runs"), "ingleton_masks")
    imported = {(node.module, alias.name) for node in ast.walk(trees["ingen.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert ("entspace", "ingleton_masks") in imported


def test_members_are_read_in_one_packed_pass():
    # verify_witness, _check_rows and _price read every member through a
    # MemberTable pass; evaluate is left for the target and the constraint rows
    trees = _trees()
    verify = _function(trees["certify.py"], "verify_witness")
    assert _calls(verify, "nonnegative") and len(_calls(verify, "evaluate")) == 1
    assert not any(isinstance(node, (ast.For, ast.comprehension)) for node in ast.walk(verify))
    price = _function(trees["bound.py"], "_price")
    assert _calls(price, "scaled") and not _calls(price, "evaluate")
    rows = _function(trees["bound.py"], "_check_rows")
    assert _calls(rows, "nonnegative")
    loops = [node for node in ast.walk(rows) if isinstance(node, (ast.For, ast.comprehension))]
    assert [ast.unparse(node.iter) for node in loops] == ["problem.constraints"]
    assert len(_calls(loops[0], "evaluate")) == len(_calls(rows, "evaluate")) == 1


def test_one_way_to_build_a_drop_one_system():
    # without(k) derives member k's system from the full one: no rebuild
    # fork, no field-by-field copy, and Counter counts the uses of each mask
    trees = _trees()
    names = {node.attr if isinstance(node, ast.Attribute) else node.id
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Attribute, ast.Name))}
    assert "_lone" not in names
    tree = trees["certify.py"]
    system = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "_ConeSystem")
    without = _function(system, "without")
    assert not _calls(without, "_ConeSystem") and not _calls(without, "__new__")
    assert "copy.copy" in {ast.unparse(node.func) for node in _calls(without, "copy")}
    counted = [node for node in ast.walk(tree) if isinstance(node, ast.Name)
               and node.id == "Counter"]
    assert len(counted) == 1
    assert [ast.unparse(target) for node in ast.walk(_function(system, "__init__"))
            if isinstance(node, ast.Assign) and _calls(node.value, "Counter")
            for target in node.targets] == ["self.uses"]


def test_public_names_resolve_to_their_defining_modules():
    # the package imports each name's module on first access
    from ingletonlp import _EXPORTS

    assert set(ingletonlp.__all__) <= set(dir(ingletonlp))
    assert set(ingletonlp.__all__) == {"__version__"} | {n for ns in _EXPORTS.values() for n in ns}
    for module, names in _EXPORTS.items():
        defining = importlib.import_module(f"ingletonlp.{module}")
        for name in names:
            assert getattr(ingletonlp, name) is getattr(defining, name)
    star = {}
    exec("from ingletonlp import *", star)
    assert all(star[name] is getattr(ingletonlp, name) for name in ingletonlp.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        ingletonlp.no_such_name


class _TermTextBuilders(_CallSites):
    """The innermost enclosing function of every f-string with `*h` in its text."""

    def visit_JoinedStr(self, node):
        if any(isinstance(part, ast.Constant) and "*h" in part.value for part in node.values):
            self.sites.append(self.stack[-1])
        self.generic_visit(node)

    visit_Call = ast.NodeVisitor.generic_visit


def test_one_subset_text_memo_for_the_process():
    # every {..} text is read from entspace.SUBSET_TEXT and every term is
    # spelled by _term_text: no per-file memo, no term keys, no names plumbing
    trees = _trees()
    used = {node.attr if isinstance(node, ast.Attribute) else node.id
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Attribute, ast.Name))}
    defined = {node.name for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
    assert not {"SubsetNames", "term_key", "_VECTOR_NAMES"} & (used | defined)
    with_names = [(name, getattr(node, "name", "<lambda>")) for name, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                  and "names" in {arg.arg for arg in ast.walk(node.args)
                                  if isinstance(arg, ast.arg)}]
    assert with_names == []
    formats, builders = set(), set()
    for name, tree in trees.items():
        sites = _CallSites("format_subset")
        sites.visit(tree)
        formats.update((name, fn) for fn in sites.sites)
        spelled = _TermTextBuilders(None)  # func unused: no call is recorded
        spelled.visit(tree)
        builders.update((name, fn) for fn in spelled.sites)
    assert formats == {("entspace.py", "__missing__")}
    assert builders == {("entspace.py", "_term_text")}
    memo = next(node for node in trees["entspace.py"].body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SUBSET_TEXT")
    assert ast.unparse(memo.value) == "_SubsetText()"


def test_one_assembly_per_bound_solve():
    # column generation reads the problem, its sense and its cone off one
    # _DualAssembly, and _cone alone builds and packs the cone rows
    tree = _trees()["bound.py"]
    defined = {fn for _name, fn in _defined({"bound.py": tree})}
    assert not {"_flip_sense", "_user_multipliers"} & defined

    def params(name):
        return {arg.arg for arg in ast.walk(_function(tree, name).args) if isinstance(arg, ast.arg)}
    assert "fallback" not in params("_float_seed")
    for name in ("_solve_max", "_feasible_point", "_improving_ray", "_cone_fold", "_result"):
        assert not {"problem", "members"} & params(name), name
    packs = _CallSites("MemberTable")
    packs.visit(tree)
    assert packs.sites == ["_cone"]


def _methods(tree, cls):
    node = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls)
    return {fn.name for fn in node.body if isinstance(fn, ast.FunctionDef)}


def _lane_bias_spellings(tree):
    """Every (1 << (a * b)) - 1: the all-lanes mask of the bias, one 1 in each lane's bits."""
    def is_one(node):
        return isinstance(node, ast.Constant) and node.value == 1
    return [node for node in ast.walk(tree) if isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub) and is_one(node.right)
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.LShift)
            and is_one(node.left.left) and isinstance(node.left.right, ast.BinOp)
            and isinstance(node.left.right.op, ast.Mult)]


def test_one_packed_lane_codec():
    # entspace.Lanes owns the width rule, the bias, the encoder and the
    # decoder; MemberTable and the exact tableaux pack through it alone, and
    # outside entspace a packed row is the plain int sum r_k 2^(w k)
    trees = _trees()
    codec = next(node for node in trees["entspace.py"].body
                 if isinstance(node, ast.ClassDef) and node.name == "Lanes")
    inside = {id(node) for node in ast.walk(codec)}
    bypasses = [(name, node.lineno) for name, tree in trees.items()
                for func in ("from_bytes", "to_bytes", "array") for node in _calls(tree, func)
                if id(node) not in inside]
    assert bypasses == []
    assert {"fit", "zeros", "encode", "decode"} <= _methods(trees["entspace.py"], "Lanes")
    spelled = [(name, id(node) in inside) for name, tree in trees.items()
               for node in _lane_bias_spellings(tree)]
    assert spelled == [("entspace.py", True)]
    readers = {name for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr == "bias"}
    assert readers == {"entspace.py"}
    assert "bias" not in (PACKAGE / "simplex.py").read_text(encoding="utf-8")
    simplex = trees["simplex.py"]
    assert not {"column", "pack", "decode"} & _methods(simplex, "_Tableau")
    assert "first" not in _methods(simplex, "_System")
    assert _calls(_function(trees["entspace.py"], "_lanes"), "Lanes")
    from ingletonlp.entspace import Lanes
    from ingletonlp.simplex import _Tableau
    assert issubclass(_Tableau, Lanes)


RETIRED = {"conic_implies", "separation_witness", "project_onto", "project_away",
           "from_function"}


def test_one_decision_entry_point():
    # decide_implication answers either way and EntropyVector(n, values)
    # builds a point, so the wrappers and helpers that only tests reached are gone
    assert not RETIRED & {fn for _name, fn in _defined(_trees())}
    assert not RETIRED & set(ingletonlp.__all__)
    tests = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(Path(__file__).parent.glob("*.py"))}
    assert not {"conic_implies", "separation_witness"} & {fn for _name, fn in _defined(tests)}


def test_pricing_reads_the_objective_row():
    # each pivot is priced from the objective row of S that every pivot
    # already updates, so no packed copy of it is pivoted on its own
    simplex = _trees()["simplex.py"]
    assert not {"price", "update"} & _methods(simplex, "_System")
    system = next(node for node in simplex.body
                  if isinstance(node, ast.ClassDef) and node.name == "_System")
    packs = _calls(_function(system, "__init__"), "_Tableau")
    assert [ast.unparse(call.args[0]) for call in packs] == ["rows"]
    loops = [node for node in ast.walk(_function(simplex, "run_phase"))
             if isinstance(node, ast.While)]
    assert len(loops) == 1
    assert "M" in [ast.unparse(call.func.value) for call in _calls(loops[0], "row")
                   if isinstance(call.func, ast.Attribute)]
