"""Every public name of the package has a caller outside the tests.

A public name is a top-level function or class of a ``src/bol`` module,
or a method of such a class, whose name has no leading underscore.  It
counts as called when ``src/bol`` (outside its own definition and the
re-exports of ``bol/__init__.py``), ``perfbench`` or ``tools`` refers
to it: a ``Name`` load, an ``Attribute``, an import alias, or a string
constant that is an identifier (the benchmark tracer patches functions
by ``getattr`` on such strings).  The match is by name, not by binding.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bol"


def _public_defs():
    """(name, module, first line, last line) of every public def and method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            out.append((node.name, path, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                out.extend((item.name, path, item.lineno, item.end_lineno)
                           for item in node.body
                           if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))
    return out


def _references():
    """name -> [(file, line)] of every reference in the package, perfbench and tools."""
    out = {}
    paths = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) \
        + sorted((ROOT / "tools").glob("*.py"))
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                if path == PACKAGE / "__init__.py":
                    continue  # a re-export is not a caller
                names = [alias.name.rpartition(".")[2] for alias in node.names]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                names = [node.value]
            else:
                continue
            for name in names:
                out.setdefault(name, []).append((path, node.lineno))
    return out


def test_every_public_name_has_a_caller():
    refs = _references()
    uncalled = sorted(
        f"{path.stem}.{name}" for name, path, first, last in _public_defs()
        if all(where == path and first <= line <= last for where, line in refs.get(name, [])))
    assert not uncalled, f"public names without a caller outside the tests: {uncalled}"
