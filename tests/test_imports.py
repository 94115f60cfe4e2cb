"""Every name a library module imports is used in that module, every
private module-level name is used somewhere in the library, orthopoly
sits below functionals, the package imports each public name from the
module that defines it, and exports every exception a library module
defines."""

import ast
import importlib
from pathlib import Path

import qhankel

SRC = Path(__file__).resolve().parent.parent / "src" / "qhankel"


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_library_modules_use_every_name_they_import():
    unused = sorted((path.name, name)
                    for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
                    for name in _unused_imports(path))
    assert unused == []


def _private_names(stmt):
    """The private names, dunders aside, that a module-level def, class or
    assignment defines.  A def under a private decorator call such as
    @_register("name") files itself in a table (verification.CHECKS), so it
    needs no caller and is left out."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        if any(isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id.startswith("_") for d in stmt.decorator_list):
            return []
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        return []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _mentions(stmt):
    found = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(a.name for a in node.names)
    return found


def test_every_private_name_is_used():
    # a name mentioned only where it is defined is a leftover
    statements = [(path.name, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    mentions = [_mentions(stmt) for _, stmt in statements]
    unused = [(module, name) for i, (module, stmt) in enumerate(statements)
              for name in _private_names(stmt)
              if not any(name in m for j, m in enumerate(mentions) if j != i)]
    assert unused == []


def test_orthopoly_imports_only_ratcore():
    # the J-fraction data (mu0, which coefficient table) lives in functionals,
    # and c_n is read from coeffs_monic, not built from qkit's Pochhammers
    tree = ast.parse((SRC / "orthopoly.py").read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert imported == {"ratcore"}


def _defined_names(path):
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def test_init_imports_each_name_from_its_defining_module():
    tree = ast.parse((SRC / "__init__.py").read_text())
    misplaced = sorted((node.module, a.name)
                       for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
                       for a in node.names
                       if a.name not in _defined_names(SRC / f"{node.module}.py"))
    assert misplaced == []


def test_every_library_exception_is_exported_and_reported_as_exit_1():
    # cli._computing turns ValueError and ArithmeticError into exit 1
    found = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"qhankel.{path.stem}")
        found += [obj for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Exception)
                  and obj.__module__ == module.__name__]
    assert len(found) >= 6
    assert [e.__name__ for e in found if getattr(qhankel, e.__name__, None) is not e] == []
    assert [e.__name__ for e in found if not issubclass(e, (ValueError, ArithmeticError))] == []
