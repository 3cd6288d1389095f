"""Every function and class the package defines is used: named in the
package or its scripts outside its own definition, exported in
accordion_tau.__all__, or a dunder."""

import ast
import pathlib

import accordion_tau

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "accordion_tau"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(node, inside, out):
    """Add to out every name that node and its children mention as an
    ast.Name or ast.Attribute, except inside a definition of that name
    (inside: the names of the definitions around node)."""
    if isinstance(node, DEFS):
        inside = inside | {node.name}
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    if isinstance(node, (ast.Name, ast.Attribute)) and name not in inside:
        out.add(name)
    for child in ast.iter_child_nodes(node):
        _uses(child, inside, out)


def unused_definitions(defining, using):
    """(file name, line, name) of each function or class defined in the
    files defining that no file in using names outside its own definition,
    that accordion_tau.__all__ does not list, and that is no dunder."""
    used: set = set()
    for path in using:
        _uses(ast.parse(path.read_text()), frozenset(), used)
    kept = used | set(accordion_tau.__all__)
    return [
        (path.name, node.lineno, node.name)
        for path in defining
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, DEFS)
        and node.name not in kept
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_every_function_and_class_in_the_package_is_used():
    defining = sorted(PACKAGE.glob("*.py"))
    assert unused_definitions(defining, defining + sorted((ROOT / "scripts").glob("*.py"))) == []


def test_the_scan_flags_a_helper_named_only_by_itself_or_a_docstring(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "def helper(n):\n"
        '    """helper is recursive."""\n'
        "    return helper(n - 1) if n else 0\n"
        "\n"
        "def used():\n"
        "    return 1\n"
        "\n"
        "class Box:\n"
        "    def __repr__(self):\n"
        "        return used()\n"
    )
    assert unused_definitions([module], [module]) == [
        ("module.py", 1, "helper"),
        ("module.py", 8, "Box"),
    ]
