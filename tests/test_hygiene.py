"""Source hygiene that no linter checks here: every name a module of the
package imports is used in that module."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "flatact"


def unused_imports(source):
    """The names bound by the import statements of `source` that no other
    statement reads, in order of appearance.  A name counts as read when it
    appears as a bare name, as the head of an attribute chain, or as a
    string in `__all__`."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [name for name in imported if name not in used]


MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def test_every_module_is_checked():
    names = {p.stem for p in MODULES}
    assert {"fpgroups", "groups", "screening", "cohomology", "certificates"} <= names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    src = ("import os\nimport numpy as np\nfrom a import (b, c)\n"
           "from d import e\n__all__ = ['e']\nprint(np.pi, c)\n")
    assert unused_imports(src) == ["os", "b"]
