"""No orphaned definitions: every top-level function and class of the
package, every method of its classes other than the dunders, and every
field of those classes is used somewhere other than its own definition.

The package, the demos and the benchmark are parsed with ast, not imported.
A use is a name, an attribute, an import alias, a value in a dict such as
checks.SUITES (itself a name), or the names after the module in a dotted
string such as bench/tracer.py's "diagram.formal_sum_from_json"; a method
is used only when it is read as an attribute, and so is a field: an
annotated name of a class body, or an attribute that the class's code
assigns on self, directly or through object.__setattr__, being read
anywhere but in the statements that assign it.  A use inside the definition
it names, such as a recursive call, does not count, and neither does a
re-export in an __init__.py or a use from the tests: a helper that only its
tests call is dead code.
"""

import ast
import pathlib
import re
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "loopstar"
USERS = (PACKAGE, ROOT / "demos", ROOT / "bench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = (*FUNCTIONS, ast.ClassDef)
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def attributes_read(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def attributes_loaded(node: ast.AST) -> Counter:
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def is_self(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def field_assignments(cls: ast.ClassDef):
    """(field, the node that assigns it) for each annotated name of the
    class body and each attribute that the class's code assigns on self,
    directly or through object.__setattr__(self, "name", value)."""
    for stmt in cls.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            yield stmt.target.id, stmt
    for node in ast.walk(cls):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for n in ast.walk(target):
                    if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store) and is_self(n.value):
                        yield n.attr, node
        elif (isinstance(node, ast.Call) and ast.unparse(node.func) == "object.__setattr__"
              and len(node.args) == 3 and is_self(node.args[0])
              and isinstance(node.args[1], ast.Constant) and isinstance(node.args[1].value, str)):
            yield node.args[1].value, node


def used_names(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(filter(None, (n.name.rpartition(".")[2], n.asname)))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and DOTTED.fullmatch(n.value):
            out.update(n.value.split(".")[1:])
    return out


def orphans(folders, package: pathlib.Path) -> tuple[int, list[str]]:
    """(number of definitions, the unused ones as "file:name"), over the
    top-level definitions in package and the uses in folders."""
    definitions, uses = [], {}
    for folder in folders:
        for path in sorted(folder.glob("*.py")):
            for stmt in ast.parse(path.read_text(), str(path)).body:
                owner = stmt.name if isinstance(stmt, DEFINITIONS) else None
                if owner and folder == package and not is_dunder(owner):
                    definitions.append((path, owner))
                if path.name == "__init__.py":  # a re-export is not a use
                    continue
                for name in used_names(stmt):
                    uses.setdefault(name, set()).add((path, owner))
    unused = [f"{path.name}:{name}" for path, name in definitions if not uses.get(name, set()) - {(path, name)}]
    return len(definitions), unused


def orphaned_methods(folders, package: pathlib.Path) -> tuple[int, list[str]]:
    """(number of methods, the unread ones as "file:Class.method"), over the
    non-dunder methods of the top-level classes in package and the attribute
    reads in folders.  Reads are matched by name, whatever the object."""
    methods, reads = [], Counter()
    for folder in folders:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            reads += attributes_read(tree)
            if folder != package:
                continue
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef):
                    methods += [(path, cls.name, f) for f in cls.body
                                if isinstance(f, FUNCTIONS) and not is_dunder(f.name)]
    unread = [f"{path.name}:{cls}.{f.name}" for path, cls, f in methods
              if reads[f.name] == attributes_read(f)[f.name]]
    return len(methods), unread


def orphaned_fields(folders, package: pathlib.Path) -> tuple[int, list[str]]:
    """(number of fields, the unread ones as "file:Class.field"), over the
    fields of the top-level classes in package and the attribute reads in
    folders, a read inside a statement that assigns the field not counting.
    Reads are matched by name, whatever the object."""
    fields, reads = {}, Counter()
    for folder in folders:
        for path in sorted(folder.glob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            reads += attributes_loaded(tree)
            if folder != package:
                continue
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef):
                    for name, node in field_assignments(cls):
                        fields.setdefault((path.name, cls.name, name), []).append(node)
    unread = [f"{path}:{cls}.{name}" for (path, cls, name), nodes in fields.items()
              if reads[name] == sum(attributes_loaded(n)[name] for n in nodes)]
    return len(fields), unread


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


def test_a_re_export_is_not_a_use(tmp_path):
    """A definition that only the package's __init__.py imports, to export
    it, is unused."""
    (tmp_path / "mod.py").write_text("def exported():\n    return 2\n")
    (tmp_path / "__init__.py").write_text("from .mod import exported\n\n__all__ = ['exported']\n")
    assert orphans([tmp_path], tmp_path) == (1, ["mod.py:exported"])


def test_a_dotted_string_names_a_use(tmp_path):
    """A "module.name" string, as the benchmark's layer table writes its
    keys, uses the name; a plain string with the same text does not."""
    (tmp_path / "mod.py").write_text("def named():\n    return 1\n\ndef quoted():\n    return 2\n")
    (tmp_path / "user.py").write_text("LAYERS = {'mod.named': 'x'}\nWORDS = ['quoted']\n")
    assert orphans([tmp_path], tmp_path) == (2, ["mod.py:quoted"])


def test_every_method_is_read_outside_itself():
    count, unread = orphaned_methods(USERS, PACKAGE)
    assert count > 30
    assert unread == []


def test_a_method_read_only_by_itself_is_an_orphan(tmp_path):
    """A method that only calls itself is unread; one that another module
    reads as an attribute is read, and a dunder is never counted."""
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def __len__(self):\n        return 0\n"
        "    def again(self, n):\n        return self.again(n - 1) if n else 0\n"
        "    def used(self):\n        return 1\n"
    )
    (tmp_path / "user.py").write_text("from mod import A\n\nA().used()\n")
    assert orphaned_methods([tmp_path], tmp_path) == (2, ["mod.py:A.again"])


def test_every_field_is_read_outside_its_assignments():
    count, unread = orphaned_fields(USERS, PACKAGE)
    assert count > 30
    assert unread == []


def test_a_field_only_assigned_is_an_orphan(tmp_path):
    """An annotated field or an attribute set on self, directly, by an
    augmented assignment or through object.__setattr__, that nothing reads
    outside the statements assigning it is unread; one that another module
    reads as an attribute is read, and a subscript assignment reads the
    attribute it indexes."""
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    kept: int\n"
        "    lost: int\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "        self.n += self.n\n"
        "        self.table = {}\n"
        "        self.table[1] = 2\n"
        "        self.used, self.dropped = 1, 2\n"
        "        object.__setattr__(self, 'hidden', 3)\n"
        "        object.__setattr__(self, 'shown', 4)\n"
        "    def read(self):\n"
        "        return self.shown\n"
    )
    (tmp_path / "user.py").write_text("from mod import A\n\nA().used + A().kept\n")
    assert orphaned_fields([tmp_path], tmp_path) == (
        8, ["mod.py:A.lost", "mod.py:A.n", "mod.py:A.dropped", "mod.py:A.hidden"])


def test_a_read_in_the_assigning_statement_is_not_a_use(tmp_path):
    """A field whose only read is in a statement assigning it, however
    many such statements there are, is unread.  Reads are matched by name,
    as for methods: a read of the same name on another object elsewhere
    counts, and an augmented assignment of it is no read."""
    (tmp_path / "mod.py").write_text(
        "class A:\n"
        "    def __init__(self, other):\n"
        "        self.count = 0\n"
        "        self.count = self.count + 1\n"
        "        self.size = 0\n"
        "        other.size += 1\n"
        "        other.count = other.size\n"
    )
    assert orphaned_fields([tmp_path], tmp_path) == (2, ["mod.py:A.count"])
