"""Source guards, read from the package's syntax trees.

The package's public surface is what its own pipeline runs: every public
top-level function in src/diffrec is referenced by package code other than
its own definition and `__init__`. A function that only tests call belongs
under tests/.

simkit's n x n passes are plain arithmetic: no call in simkit takes a
`where=` argument, since a masked ufunc over a random mask is several
times slower than the plain one.

What sets a method apart lives in `harness.METHODS` alone: no module
compares a value with a method's name."""

import ast
from pathlib import Path

import diffrec
from diffrec import harness

PACKAGE = Path(diffrec.__file__).resolve().parent
# called from outside the package: the console script
ENTRY_POINTS = {"cli.main"}


def _modules() -> dict[str, ast.Module]:
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    }


def _loads(tree, skip=None):
    """(names loaded, (module, attribute) pairs loaded) in tree, outside
    the subtree `skip`."""
    names, attrs, todo = set(), set(), [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            attrs.add((node.value.id, node.attr))
        todo.extend(ast.iter_child_nodes(node))
    return names, attrs


def _imported(tree, module: str) -> set[str]:
    """Names `tree` imports with `from diffrec.<module> import ...`."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == f"diffrec.{module}"
        for alias in node.names
    }


def unused_public_functions(modules: dict[str, ast.Module]) -> list[str]:
    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            if f"{module}.{node.name}" in ENTRY_POINTS:
                continue
            used = False
            for other, other_tree in modules.items():
                names, attrs = _loads(other_tree, skip=node if other == module else None)
                visible = other == module or node.name in _imported(other_tree, module)
                if (visible and node.name in names) or (module, node.name) in attrs:
                    used = True
                    break
            if not used:
                unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_function_is_used_by_the_package():
    assert unused_public_functions(_modules()) == []


def test_the_guard_finds_a_function_only_its_own_body_calls():
    modules = {
        "a": ast.parse("def kept():\n    return 1\n\ndef dead(n):\n    return dead(n - 1)\n"),
        "b": ast.parse("from diffrec.a import kept\n\ndef main():\n    return kept()\n"),
        "c": ast.parse("from diffrec import a\n\ndef helper():\n    return a.kept\n"),
    }
    assert unused_public_functions(modules) == ["a.dead", "b.main", "c.helper"]


def masked_calls(tree: ast.Module) -> list[int]:
    """Lines of the calls in tree that pass a `where=` keyword."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and any(kw.arg == "where" for kw in node.keywords)
    )


def test_simkit_makes_no_masked_call():
    assert masked_calls(_modules()["simkit"]) == []


def test_the_guard_finds_a_masked_call():
    tree = ast.parse(
        "np.divide(a, b, out=a)\n"
        "np.divide(a, b, out=np.zeros_like(a), where=b > 0)\n"
        "x = f(g(y, where=m))\n"
    )
    assert masked_calls(tree) == [2, 3]


def method_comparisons(tree: ast.Module, names: set[str]) -> list[int]:
    """Lines of the comparisons and match cases in tree with one of the
    method `names` as a string literal, alone or in a tuple, list or set."""

    def named(node) -> bool:
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return any(named(e) for e in node.elts)
        return isinstance(node, ast.Constant) and node.value in names

    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Compare) and any(map(named, [node.left, *node.comparators])))
        or (isinstance(node, ast.MatchValue) and named(node.value))
    )


def test_no_module_compares_with_a_method_name():
    names = set(harness.METHODS)
    found = {name: method_comparisons(tree, names) for name, tree in _modules().items()}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_the_guard_finds_a_method_comparison():
    tree = ast.parse(
        'if method == "PIM+RA":\n'
        '    pass\n'
        'x = m in ("MD", "SVD")\n'
        'y = {"UBCF": 1, "IBCF": 2}\n'
        'z = axis != "users"\n'
        'match method:\n'
        '    case "IBCF":\n'
        '        pass\n'
        'if "UBCF" != name:\n'
        '    pass\n'
    )
    assert method_comparisons(tree, {"UBCF", "IBCF", "SVD", "MD", "PIM+RA"}) == [1, 3, 7, 9]
