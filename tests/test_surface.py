"""Every public function and method of the package is used by the package,
and every cache in it follows the one cache rule, `groups.cached`.

A public name that only its own tests call is surface that neither the
verifier nor the CLI keeps honest: delete it, or make the suite check it.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superchar"

# called from outside the package and never from inside it
ENTRY_POINTS = {"cli.main"}  # the `superchar` console script


def _public_definitions(module: str, tree: ast.Module):
    """(qualified name, short name, node, is_method) of each public def."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{module}.{node.name}.{sub.name}", sub.name, sub, True


def test_every_public_function_is_referenced_inside_the_package():
    definitions = []
    references = []  # (name, module, line, is_attribute)
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        tree = ast.parse(path.read_text(encoding="utf-8"))
        definitions += [(module, *d) for d in _public_definitions(module, tree)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.append((node.id, module, node.lineno, False))
            elif isinstance(node, ast.Attribute):
                references.append((node.attr, module, node.lineno, True))
    assert definitions

    def referenced(module, name, node, is_method):
        # a function is called by name, a method as an attribute; uses inside
        # the definition itself do not count
        return any(
            ref == name
            and attribute == is_method
            and not (where == module and node.lineno <= line <= node.end_lineno)
            for ref, where, line, attribute in references
        )

    defined = {qualified for _, qualified, *_ in definitions}
    assert ENTRY_POINTS <= defined
    unused = [
        qualified
        for module, qualified, name, node, is_method in definitions
        if qualified not in ENTRY_POINTS and not referenced(module, name, node, is_method)
    ]
    assert unused == []


def _memo_uses(module: str, tree: ast.Module):
    """(qualified name of the enclosing def, node, parent) of each `x._memo`."""
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_memo":
            names = []
            outer = parents[node]
            while not isinstance(outer, ast.Module):
                if isinstance(outer, (ast.FunctionDef, ast.ClassDef)):
                    names.append(outer.name)
                outer = parents[outer]
            yield ".".join([module, *reversed(names)]), node, parents[node]


def _allowed_memo_use(where: str, node: ast.Attribute, parent: ast.AST) -> bool:
    if where == "groups.cached" or where.startswith("groups.cached."):
        return True
    if where.endswith(".__init__") or where == "groups.release":
        # only `self._memo = {}`, or `owner._memo = {}` dropping a theory's entries after its suite
        return (isinstance(parent, ast.Assign) and parent.targets == [node]
                and isinstance(parent.value, ast.Dict) and not parent.value.keys)
    return False


def test_memo_is_touched_only_by_the_cache_rule():
    uses = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        uses += _memo_uses(module, ast.parse(path.read_text(encoding="utf-8")))
    assert {where for where, *_ in uses} >= {"groups.cached.lookup"}
    stray = [f"{where}:{node.lineno}" for where, node, parent in uses
             if not _allowed_memo_use(where, node, parent)]
    assert stray == []


def test_theories_are_made_only_by_the_derivation():
    # one object per (table, class partition) holds because the cached
    # derivation is the one place a `SuperTheory` is made
    calls = []  # module.top-level definition of each call
    for path in sorted(PACKAGE.glob("*.py")):
        for outer in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(outer):
                if isinstance(node, ast.Call) and "SuperTheory" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    calls.append(f"{path.stem}.{getattr(outer, 'name', '')}")
    assert calls == ["supertheory._theory"]


STATUSES = {"pass", "fail", "vacuous", "not-applicable"}


def _statuses_named(node: ast.AST) -> list[str]:
    return [c.value for c in ast.walk(node) if isinstance(c, ast.Constant) and c.value in STATUSES]


def _checkers() -> list[ast.FunctionDef]:
    """The definitions in verifier.py registered with `@theorem`."""
    tree = ast.parse((PACKAGE / "verifier.py").read_text(encoding="utf-8"))
    checkers = [node for node in tree.body if isinstance(node, ast.FunctionDef) and any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "theorem" for d in node.decorator_list)]
    assert len(checkers) == 34
    return checkers


def test_no_checker_names_a_status():
    # a checker yields (scope, hypothesis, conclusion); `_STATUS` alone
    # turns these into a status
    checkers = _checkers()
    assert {node.name: _statuses_named(node) for node in checkers} == {node.name: [] for node in checkers}


def test_no_checker_reads_a_condition_of_a_verdict():
    # a verdict holds the conditions of one theorem, so a checker reads its
    # agreement or holds, never a condition by name: an identity another
    # theorem states is evaluated by that theorem's checker
    checkers = _checkers()
    reads = {node.name: [f"{ast.unparse(a)} at line {a.lineno}" for a in ast.walk(node)
                         if isinstance(a, ast.Attribute) and a.attr in ("conditions", "extras")]
             for node in checkers}
    assert reads == {node.name: [] for node in checkers}


def test_structure_raises_only_where_a_value_would_not_exist():
    # its identities are theorems that the checkers evaluate; a raise is left
    # only where the value asked for does not exist
    tree = ast.parse((PACKAGE / "structure.py").read_text(encoding="utf-8"))
    raised = sorted((node.lineno, ast.unparse(node.exc.args[0])) for node in ast.walk(tree)
                    if isinstance(node, ast.Raise) and getattr(node.exc, "func", None)
                    and getattr(node.exc.func, "id", None) == "ConsistencyError")
    assert [text for _, text in raised] == [
        "'Z(S) is not a subgroup; the theory is invalid'",
        "'supercharacter kernel is not a subgroup'",
        "f'{kind} series failed to descend'",
        "'upper series term is not a subgroup'",
    ]


def test_statuses_are_named_only_by_the_status_rule_and_the_summary_keys():
    tree = ast.parse((PACKAGE / "verifier.py").read_text(encoding="utf-8"))
    naming = [ast.unparse(s.targets[0]) if isinstance(s, ast.Assign) else f"line {s.lineno}"
              for s in tree.body if _statuses_named(s)]
    assert naming == ["_STATUS", "_SUMMARY_KEY"]


def test_vanishing_evaluates_no_theorem_beside_its_builders():
    # each theorem's conclusion is evaluated by its checker in verifier, not
    # by a `*_check` helper beside the builders; `scd_check` stays because
    # analyze shows its report
    tree = ast.parse((PACKAGE / "vanishing.py").read_text(encoding="utf-8"))
    checks = [node.name for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name.endswith(("_check", "_checks"))]
    assert checks == ["scd_check"]
