"""The merge rule of FormalSum has one owner: outside diagram.py no module of
the package writes a sum's terms.

The package is parsed with ast, not imported.  A write is an attribute
.terms that is stored or deleted, an item of .terms that is stored or
deleted, .terms bound to a name (from then on the dict could be written
under that name), or .terms as the receiver of a method that changes a dict
in place.  Reading the terms, iterating them or passing them on is fine.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "loopstar"
OWNER = "diagram.py"
MUTATORS = {"setdefault", "update", "pop", "popitem", "clear", "__setitem__", "__delitem__"}


def is_terms(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "terms"


def terms_writes(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) of each write to a .terms attribute in the tree."""
    out = []
    for n in ast.walk(tree):
        if is_terms(n) and isinstance(n.ctx, (ast.Store, ast.Del)):
            out.append((n.lineno, "stores or deletes .terms"))
        elif isinstance(n, ast.Subscript) and is_terms(n.value) and isinstance(n.ctx, (ast.Store, ast.Del)):
            out.append((n.lineno, "stores or deletes an item of .terms"))
        elif isinstance(n, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)) and n.value is not None:
            values = n.value.elts if isinstance(n.value, ast.Tuple) else [n.value]
            if any(map(is_terms, values)):
                out.append((n.lineno, "binds .terms to a name"))
        elif (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr in MUTATORS
              and is_terms(n.func.value)):
            out.append((n.lineno, f"calls .terms.{n.func.attr}"))
    return out


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != OWNER))
def test_no_module_but_diagram_writes_a_sums_terms(path):
    tree = ast.parse((PACKAGE / path).read_text(encoding="utf-8"))
    assert terms_writes(tree) == [], f"{path} writes a FormalSum's terms; merge through FormalSum instead"


@pytest.mark.parametrize("source", [
    "out.terms = {}",
    "del out.terms",
    "out.terms[m] = c",
    "del out.terms[m]",
    "out.terms[m] += c",
    "terms = out.terms",
    "terms: dict = out.terms",
    "a, terms = 1, out.terms",
    "if (terms := out.terms): pass",
    "out.terms.setdefault(m, c)",
    "out.terms.update(other.terms)",
    "out.terms.pop(m)",
    "out.terms.clear()",
])
def test_the_guard_sees_each_kind_of_write(source):
    assert terms_writes(ast.parse(source))


@pytest.mark.parametrize("source", [
    "for m, c in f.terms.items(): pass",
    "x = len(f.terms)",
    "x = next(iter(f.terms))",
    "x = [f.terms for f in factors]",
    "x = f.terms[m]",
    "x = {m: c for m, c in f.terms.items()}",
])
def test_the_guard_lets_a_read_pass(source):
    assert terms_writes(ast.parse(source)) == []
