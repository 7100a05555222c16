"""No orphaned definitions: every top-level function and class of the
package is used somewhere other than its own definition.

The package, the demos and the benchmark are parsed with ast, not imported.
A use is a name, an attribute, an import alias or a value in a dict such as
checks.SUITES (itself a name).  A use inside the definition it names, such
as a recursive call, does not count, and neither does a use from the tests:
a helper that only its tests call is dead code.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loopstar"
USERS = (PACKAGE, ROOT / "demos", ROOT / "bench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def used_names(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(filter(None, (n.name.rpartition(".")[2], n.asname)))
    return out


def orphans(folders, package: pathlib.Path) -> tuple[int, list[str]]:
    """(number of definitions, the unused ones as "file:name"), over the
    top-level definitions in package and the uses in folders."""
    definitions, uses = [], {}
    for folder in folders:
        for path in sorted(folder.glob("*.py")):
            for stmt in ast.parse(path.read_text(), str(path)).body:
                owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
                if owner and folder == package and not (owner.startswith("__") and owner.endswith("__")):
                    definitions.append((path, owner))
                for name in used_names(stmt):
                    uses.setdefault(name, set()).add((path, owner))
    unused = [f"{path.name}:{name}" for path, name in definitions if not uses.get(name, set()) - {(path, name)}]
    return len(definitions), unused


def test_every_definition_is_used_outside_itself():
    count, unused = orphans(USERS, PACKAGE)
    assert count > 50
    assert unused == []


def test_a_helper_used_only_by_itself_is_an_orphan(tmp_path):
    """A recursive helper with no other caller is unused; one that a dict
    value names, or another module imports, is used."""
    (tmp_path / "mod.py").write_text(
        "def helper(n):\n    return helper(n - 1) if n else 0\n\n"
        "def suite():\n    return 1\n\n"
        "def exported():\n    return 2\n\n"
        "SUITES = {'s': suite}\n"
    )
    (tmp_path / "user.py").write_text("from mod import exported\n")
    assert orphans([tmp_path], tmp_path) == (3, ["mod.py:helper"])
