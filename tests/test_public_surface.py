"""Every public name of the library has a caller in the library.

A name in a module's `__all__` must be read somewhere in `src/richain`
outside its own definition; an import does not count.  Code that only
tests use belongs in the tests.
"""

import ast
import pathlib

import richain

SRC = pathlib.Path(richain.__file__).parent

ALLOWED_UNUSED = set()


def _public_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _definition_lines(tree):
    """Line span of each top-level function or class, by name."""
    return {
        node.name: range(node.lineno, node.end_lineno + 1)
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def _loads(tree):
    """(name, line) of every name or attribute the module reads."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr, node.lineno


def unused_public_names(src):
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(pathlib.Path(src).glob("*.py"))
        if path.name != "__init__.py"
    }
    loads = {module: list(_loads(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        own = _definition_lines(tree)
        for name in _public_names(tree):
            span = own.get(name, range(0))
            if not any(
                loaded == name and not (where == module and line in span)
                for where, reads in loads.items()
                for loaded, line in reads
            ):
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_name_has_a_library_caller():
    assert set(unused_public_names(SRC)) == ALLOWED_UNUSED


def test_imports_and_own_reads_do_not_count(tmp_path):
    (tmp_path / "a.py").write_text(
        '__all__ = ["used", "recursive", "imported"]\n'
        "def used():\n    return 1\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n"
        "def imported():\n    pass\n"
    )
    (tmp_path / "b.py").write_text("from .a import imported\n__all__ = []\n")
    assert unused_public_names(tmp_path) == ["a.recursive", "a.imported"]
