"""Every function, class and module-level assignment the package defines is
used: named in the package or its scripts outside its own definition,
exported in accordion_tau.__all__, or a dunder.  And every annotated field
of a class the package defines is read as an attribute somewhere in the
package or its scripts; that scan matches by attribute name only, so a read
of x.name counts for every field called name, whatever x is."""

import ast
import pathlib

import accordion_tau

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "accordion_tau"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _uses(node, inside, out):
    """Add to out every name that node and its children mention as an
    ast.Name or ast.Attribute, except inside a definition of that name
    (inside: the names of the definitions around node) and except a name
    that is only assigned to."""
    if isinstance(node, DEFS):
        inside = inside | {node.name}
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    stored = isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
    if isinstance(node, (ast.Name, ast.Attribute)) and name not in inside and not stored:
        out.add(name)
    for child in ast.iter_child_nodes(node):
        _uses(child, inside, out)


def _definitions(tree):
    """(line, name) of every function and class in tree, and of every name
    a module-level assignment binds."""
    for node in ast.walk(tree):
        if isinstance(node, DEFS):
            yield node.lineno, node.name
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.lineno, name.id


def unused_definitions(defining, using):
    """(file name, line, name) of each function, class or module-level
    assignment defined in the files defining that no file in using names
    outside its own definition, that accordion_tau.__all__ does not list,
    and that is no dunder.  An assignment's own target is a store, not a
    use, so it does not count as naming it."""
    used: set = set()
    for path in using:
        _uses(ast.parse(path.read_text()), frozenset(), used)
    kept = used | set(accordion_tau.__all__)
    return [
        (path.name, line, name)
        for path in defining
        for line, name in sorted(_definitions(ast.parse(path.read_text())))
        if name not in kept and not (name.startswith("__") and name.endswith("__"))
    ]


def _fields(tree):
    """(line, class name, field name) of every annotated field in the body
    of a class in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield item.lineno, node.name, item.target.id


def _attribute_reads(tree, out):
    """Add to out the name of every attribute tree reads: loads it, or
    updates it in place (x.name += 1)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            out.add(node.target.attr)


def unread_fields(defining, using):
    """(file name, line, class.field) of each annotated field of a class
    defined in the files defining that no file in using reads as an
    attribute, matched by attribute name only."""
    read: set = set()
    for path in using:
        _attribute_reads(ast.parse(path.read_text()), read)
    return [
        (path.name, line, f"{cls}.{name}")
        for path in defining
        for line, cls, name in sorted(_fields(ast.parse(path.read_text())))
        if name not in read
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
        "\n"
        "Alias = object\n"
        "LIMIT: int = 3\n"
        "TABLE = {LIMIT: used}\n"
        "print(TABLE)\n"
    )
    assert unused_definitions([module], [module]) == [
        ("module.py", 1, "helper"),
        ("module.py", 8, "Box"),
        ("module.py", 12, "Alias"),
    ]


def test_every_class_field_in_the_package_is_read():
    defining = sorted(PACKAGE.glob("*.py"))
    assert unread_fields(defining, defining + sorted((ROOT / "scripts").glob("*.py"))) == []
    # the scan reads class-level annotations, so plain classes declare their
    # fields there too, or they drop out of it
    seen = {
        f"{cls}.{name}" for path in defining for _, cls, name in _fields(ast.parse(path.read_text()))
    }
    assert seen >= {
        "LabeledComplex.kind",
        "IsoReport.generic_found",
        "VerifySummary.complexes_audited",
        "TwoTermComplex.module",
    }


def test_the_field_scan_flags_a_field_that_is_only_stored(tmp_path):
    module = tmp_path / "module.py"
    module.write_text(
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass\n"
        "class Basis:\n"
        "    paths: tuple\n"
        "    ends: dict\n"
        "    count: int = 0\n"
        "    LIMIT = 3\n"
        "\n"
        "def grow(basis):\n"
        "    basis.ends = {}\n"
        "    basis.count += 1\n"
        "    return basis.paths\n"
    )
    assert unread_fields([module], [module]) == [("module.py", 6, "Basis.ends")]
