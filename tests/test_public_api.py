"""Every public function and class of the package has a caller inside it.

A public top-level definition that only tests, docs or the package's
`__init__` name is code that no command runs.  The few kept for a planned
consumer are listed with that consumer.
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


def uncalled() -> list:
    """Public top-level functions and classes of the package's modules that no
    other top-level statement of a module but `__init__` names."""
    defined, statements = {}, []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_"):
                defined[stmt.name] = stmt
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            statements.append((stmt, names))
    return sorted(
        name
        for name, node in defined.items()
        if not any(name in names for stmt, names in statements if stmt is not node)
    )


def test_every_public_definition_has_a_caller_in_the_package():
    found = uncalled()
    assert [name for name in found if name not in KEEP] == []
    # a kept name that gains a caller, or goes, leaves the table
    assert [name for name in found if name in KEEP] == sorted(KEEP)
