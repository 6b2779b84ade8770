"""Every definition and import of the package has a use inside it.

A public top-level definition that only tests, docs or the package's
`__init__` name is code that no command runs.  The few kept for a planned
consumer are listed with that consumer.  A private top-level definition
that no other top-level statement names, or an imported name that its
module never reads, is dead code left behind by a change.
"""

import ast
from pathlib import Path

import conexa

PACKAGE = Path(conexa.__file__).parent

# name -> the consumer it is kept for
KEEP = {
    "brunnian_family": "acceptance criterion 9, the rv round trips",
    "realize_structure": "acceptance criterion 9, the rv round trips",
    "distribution_to_dict": "ROADMAP item 10, derive-rvs output",
    "density_to_dict": "ROADMAP item 2, quantum realizations as density files",
}


def modules() -> dict:
    """Module file name -> its parsed body, for every module but `__init__`."""
    return {
        path.name: ast.parse(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }


def names_in(node) -> set:
    """The names and attribute names that `node` reads or binds."""
    names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    return names | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)}


def unnamed(private: bool) -> list:
    """Top-level functions and classes of the package's modules, public or
    private ones, that no other top-level statement of a module but
    `__init__` names."""
    defined, statements = {}, []
    for tree in modules().values():
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                if stmt.name.startswith("_") == private:
                    defined[stmt.name] = stmt
            statements.append((stmt, names_in(stmt)))
    return sorted(
        name
        for name, node in defined.items()
        if not any(name in names for stmt, names in statements if stmt is not node)
    )


def test_every_public_definition_has_a_caller_in_the_package():
    found = unnamed(private=False)
    assert [name for name in found if name not in KEEP] == []
    # a kept name that gains a caller, or goes, leaves the table
    assert [name for name in found if name in KEEP] == sorted(KEEP)


def test_every_private_definition_is_named_in_the_package():
    assert unnamed(private=True) == []


def test_every_imported_name_is_read_by_its_module():
    unread = []
    for module, tree in modules().items():
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for stmt in imports
            if not (isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__")
            for alias in stmt.names
        }
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unread += [f"{module}: {name}" for name in sorted(bound - read)]
    assert unread == []
