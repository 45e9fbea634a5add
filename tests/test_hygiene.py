"""Source hygiene that no linter checks here: every name a module of the
package imports is used in that module, every private function, class
and method of the package is used somewhere in it, every local that a
function assigns is read, every public function and class of the
package has a reader outside the tests or is named in the README, no
module writes a private attribute of an object other than self or cls,
every entry point of the C engine is declared to ctypes and called, and
the C engine compiles without a warning."""

import ast
import pathlib
import re
import shutil
import subprocess
from collections import Counter

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


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _referenced(node):
    """The names that `node` and everything below it read: bare names and
    attribute names."""
    out = []
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.append(n.id)
        elif isinstance(n, ast.Attribute):
            out.append(n.attr)
    return out


def unused_private_definitions(sources):
    """The module-level `_name` functions and classes and the `_name`
    methods of module-level classes, over the modules `sources` maps names
    to, that no module reads outside the definition itself, as sorted
    "module.name" or "module.Class.name" strings.  Dunders are not private.
    A name counts as read wherever it appears as a bare name or as an
    attribute, so a read through any object keeps every definition of that
    name."""
    trees = {mod: ast.parse(src) for mod, src in sources.items()}
    reads = Counter(name for tree in trees.values() for name in _referenced(tree))
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    unused = []
    for mod, tree in trees.items():
        found = [(mod + "." + n.name, n) for n in tree.body if isinstance(n, defs)]
        found += [(mod + "." + c.name + "." + n.name, n)
                  for c in tree.body if isinstance(c, ast.ClassDef)
                  for n in c.body if isinstance(n, defs[:2])]
        for label, node in found:
            if _private(node.name) and \
                    reads[node.name] == _referenced(node).count(node.name):
                unused.append(label)
    return sorted(unused)


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


def test_no_unused_private_definitions():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unused_private_definitions(sources) == []


def test_the_check_sees_an_unused_private_definition():
    sources = {
        "a": ("def _used():\n    pass\n"
              "def _recursive(n):\n    return _recursive(n - 1)\n"
              "def _dead():\n    pass\n"
              "class _Box:\n"
              "    def __init__(self):\n        self._kept()\n"
              "    def _kept(self):\n        pass\n"
              "    def _stale(self):\n        return self._stale()\n"
              "    def __repr__(self):\n        return ''\n"
              "def public():\n    return _used\n"),
        "b": "from a import _Box\n_Box()\n",
    }
    assert unused_private_definitions(sources) == [
        "a._Box._stale", "a._dead", "a._recursive"]


def unread_public_definitions(sources, readers, readme):
    """The module-level public functions and classes of the modules that
    `sources` maps names to, that no text of `sources` or `readers` reads
    outside the definition itself and that `readme` does not name, as
    sorted "module.name" strings.  Reads are counted as for private
    definitions."""
    reads = Counter(name for src in [*sources.values(), *readers]
                    for name in _referenced(ast.parse(src)))
    named = set(re.findall(r"\w+", readme))
    return sorted(
        mod + "." + node.name for mod, src in sources.items()
        for node in ast.parse(src).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in named
        and reads[node.name] == _referenced(node).count(node.name))


# public definitions whose caller outside the tests is still to come, and
# the ROADMAP item that brings it
AWAITING_A_CALLER = {
    "fpgroups.rewrite_subgroup_presentation": "item 13",
}


def test_every_public_definition_is_read_or_documented():
    root = PACKAGE.parent.parent
    readers = [p.read_text() for d in ("benchmarks", "perfbench")
               for p in sorted((root / d).glob("*.py"))]
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    unread = unread_public_definitions(sources, readers, (root / "README.md").read_text())
    assert unread == sorted(AWAITING_A_CALLER)


def test_the_check_sees_an_unread_public_definition():
    sources = {
        "a": ("def used():\n    pass\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "def documented():\n    pass\n"
              "class Dead:\n    def method(self):\n        return used()\n"
              "def _private():\n    pass\n"),
        "b": "def read_by_a_script():\n    pass\n",
    }
    script = "from b import read_by_a_script\nread_by_a_script()\n"
    assert unread_public_definitions(sources, [script], "`a.documented()` ...") == [
        "a.Dead", "a.recursive"]


def unused_locals(source):
    """The names that a function of `source`, nested ones included,
    assigns by a plain `name = ...` and that nothing in the function reads,
    closures included, as sorted "function.name" strings.  A name the
    function declares global or nonlocal is not its local."""
    out = set()
    funcs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, funcs[:2]):
            continue
        outer, stack = [], [func]
        while stack:        # the nodes of func, not those of nested functions
            node = stack.pop()
            outer.append(node)
            stack += [c for c in ast.iter_child_nodes(node) if not isinstance(c, funcs)]
        declared = {n for node in outer if isinstance(node, (ast.Global, ast.Nonlocal))
                    for n in node.names}
        assigned = {t.id for node in outer if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        read = {n.id for n in ast.walk(func)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out |= {func.name + "." + name for name in assigned - declared - read}
    return sorted(out)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []


def test_the_check_sees_an_unused_local():
    src = ("def f(xs):\n"
           "    total = 0\n    dead = len(xs)\n    a, b = xs\n"
           "    def g():\n        stale = total\n        return xs\n"
           "    def h():\n        nonlocal total\n        total = 1\n"
           "    return g, h, a\n"
           "def k():\n    global G\n    G = 1\n    kept = 2\n"
           "    return lambda: kept\n")
    assert unused_locals(src) == ["f.dead", "g.stale"]


def foreign_private_writes(source):
    """The private attributes of `source` written through an object other
    than the bare name self or cls (any attribute in a store context:
    plain, augmented, annotated, tuple and loop targets), as sorted
    "line: target" strings.  A class sets its own state through self or
    cls; a write from outside bypasses whatever its constructor checks."""
    writes = sorted(
        (n.lineno, n.col_offset, ast.unparse(n)) for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
        and _private(n.attr)
        and not (isinstance(n.value, ast.Name) and n.value.id in ("self", "cls")))
    return ["%d: %s" % (line, text) for line, _, text in writes]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_foreign_private_writes(path):
    assert foreign_private_writes(path.read_text()) == []


def test_the_check_sees_a_foreign_private_write():
    src = ("class A:\n"
           "    def __init__(self):\n        self._x = 1\n        self.y = 2\n"
           "    @classmethod\n    def make(cls):\n        cls._cache = {}\n"
           "def f(a, b):\n    a._x = 0\n    a.__dict__ = {}\n    b.y._z += 1\n"
           "    (a.y, [b._w, *a._v]) = 1, [2, 3]\n    a._u: int = 4\n"
           "    other_self = a\n    other_self._x = 5\n"
           "    for a._t in b:\n        print(a._t)\n")
    assert foreign_private_writes(src) == [
        "9: a._x", "11: b.y._z", "12: b._w", "12: a._v", "13: a._u",
        "15: other_self._x", "16: a._t"]


def exported_c_functions(source):
    """The `fa_` functions that C `source` gives external linkage, sorted:
    those whose definition or declaration starts a line with its return
    type rather than `static`."""
    return sorted(set(re.findall(r"^(?!static\b)\w[\w \t*]*?\b(fa_\w+)\(", source, re.M)))


def loaded_c_functions(source):
    """The `fa_` names that `_load_compiled` of the fpgroups `source`
    declares, sorted."""
    (func,) = [n for n in ast.parse(source).body
               if isinstance(n, ast.FunctionDef) and n.name == "_load_compiled"]
    return sorted({n.value for n in ast.walk(func) if isinstance(n, ast.Constant)
                   and isinstance(n.value, str) and n.value.startswith("fa_")})


def test_c_entry_points_are_declared_and_called():
    declared = loaded_c_functions((PACKAGE / "fpgroups.py").read_text())
    assert exported_c_functions((PACKAGE / "_coset.c").read_text()) == declared
    read = {name for p in PACKAGE.glob("*.py") for name in _referenced(ast.parse(p.read_text()))}
    assert [name for name in declared if name not in read] == []


def test_the_check_sees_a_c_entry_point():
    src = ("/* Entry points:\n *   fa_documented(n)\n */\n"
           "static int fa_helper(int n)\n{\n    return n;\n}\n\n"
           "int fa_run(int32_t n,\n           int32_t **buf)\n{\n    return 0;\n}\n\n"
           "void fa_take(int32_t *buf, int64_t n, int32_t *out)\n{\n}\n")
    assert exported_c_functions(src) == ["fa_run", "fa_take"]
    loader = ("def _load_compiled():\n"
              "    for name in ('fa_run', 'fa_take'):\n        pass\n"
              "def other():\n    return 'fa_elsewhere'\n")
    assert loaded_c_functions(loader) == ["fa_run", "fa_take"]


@pytest.mark.skipif(shutil.which("cc") is None, reason="needs a C compiler")
def test_c_engine_compiles_without_warnings(tmp_path):
    cmd = ["cc", "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
           "-o", str(tmp_path / "coset.so"), str(PACKAGE / "_coset.c")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
