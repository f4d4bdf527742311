"""Hygiene of the package sources, checked with the standard library's ast
module:
- every name a module imports is used in it. Names that __init__.py lists
  in __all__ count as used (they are re-exported);
- every exception class errors.py defines is caught somewhere in the
  package, so no class exists that no handler tells apart;
- every field of a dataclass in the package is read somewhere in the
  package, the benchmark or the tests, so no member is carried unread;
- cli.py joins --out (args.out) to a file name only inside cli._out, the
  one place that refuses an output that would replace a run's input."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stochgm"


def imported_names(tree):
    """Name bound by each import statement -> line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_unused_import():
    source = ("import os.path\nfrom dataclasses import dataclass, field\n"
              "from . import a as b\n__all__ = ['b']\n"
              "@dataclass\nclass C:\n    x: int = 0\n")
    assert unused_imports(source) == [(1, "os"), (2, "field")]


def caught_names(tree):
    """Names an except clause of the module names (bare or as attributes)."""
    names = set()
    for handler in ast.walk(tree):
        if isinstance(handler, ast.ExceptHandler) and handler.type is not None:
            for node in ast.walk(handler.type):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


def uncaught_classes(errors_source, sources):
    defined = {node.name for node in ast.parse(errors_source).body
               if isinstance(node, ast.ClassDef)}
    caught = set().union(*(caught_names(ast.parse(src)) for src in sources))
    return sorted(defined - caught)


def test_every_error_class_is_caught():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert uncaught_classes((PACKAGE / "errors.py").read_text(), sources) == []


def test_detects_uncaught_error_class():
    errors = "class A(Exception):\n    pass\n\nclass B(A):\n    pass\n"
    source = ("try:\n    f()\nexcept (errors.A, KeyError):\n    pass\n"
              "try:\n    g()\nexcept B:\n    pass\n")
    assert uncaught_classes(errors, [source]) == []
    assert uncaught_classes(errors, [source.replace("B:", "KeyError:")]) == ["B"]


def _is_dataclass(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def dataclass_fields(tree):
    """(class, field) for each annotated field of each @dataclass."""
    return [(node.name, stmt.target.id)
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]


def read_attributes(tree):
    """Attribute names the module reads: x.name in a load context, or
    getattr(x, "name"...) with a constant name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            names.add(node.args[1].value)
    return names


def unread_fields(package_sources, reader_sources):
    read = set().union(*(read_attributes(ast.parse(src)) for src in reader_sources))
    return sorted(f"{cls}.{name}"
                  for src in package_sources
                  for cls, name in dataclass_fields(ast.parse(src))
                  if name not in read)


def test_every_dataclass_field_is_read():
    package = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    readers = package + [path.read_text() for folder in ("perfbench", "tests")
                         for path in sorted((ROOT / folder).glob("*.py"))]
    assert unread_fields(package, readers) == []


def test_detects_unread_field():
    package = ("from dataclasses import dataclass\n"
               "@dataclass(frozen=True)\nclass A:\n    x: int\n    y: int = 0\n"
               "    z: int = 0\n    K = 3\n"
               "@dataclasses.dataclass\nclass B:\n    w: float\n"
               "class C:\n    v: int\n")
    reader = "def f(a, b):\n    a.y = 1\n    return a.x + getattr(b, 'w')\n"
    assert unread_fields([package], [reader]) == ["A.y", "A.z"]


def out_joins(source):
    """(line, enclosing function) of each os.path.join given an `.out`
    attribute (args.out) outside a function named _out."""
    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            owner = getattr(node, "name", "<lambda>")
        if (isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "join"
                and any(getattr(arg, "attr", None) == "out" for arg in node.args)
                and owner != "_out"):
            yield node.lineno, owner
        for child in ast.iter_child_nodes(node):
            yield from visit(child, owner)

    return list(visit(ast.parse(source), None))


def test_out_is_joined_only_in_cli_out():
    assert out_joins((PACKAGE / "cli.py").read_text()) == []


def test_detects_out_joined_outside_cli_out():
    source = ("def _out(args, name):\n    return os.path.join(args.out, name)\n"
              "def cmd(args):\n    def one(rec):\n"
              "        return os.path.join(args.out, rec.id)\n"
              "    paths = map(lambda n: path.join(args.out, n), 'ab')\n"
              "log = os.path.join(ARGS.out, 'run_log.json')\n")
    assert out_joins(source) == [(5, "one"), (6, "<lambda>"), (7, None)]
