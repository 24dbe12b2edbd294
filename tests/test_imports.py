"""Every module-level import in src/ is used, and every public name in
src/ is read by the package, a demo or the bench, not only by tests."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
READERS = sorted(SRC.rglob("*.py")) + sorted(ROOT.glob("demos/*.py")) + sorted(ROOT.glob("bench/*.py"))

# Public names that only tests read, each with why it stays.  Each must
# stay unread outside the tests: once something reads it, drop it here.
UNREAD = {
    "action.transition_ratio": "ROADMAP item 6 gates it",
    "rates.kramers_rate_complexity": "ROADMAP item 8 gates it",
}


def unused_imports(source):
    """Names bound by top-level imports of ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_the_check_finds_an_unused_import():
    src = "import os\nfrom json import dumps, loads\nimport numpy as np\n\ndef f():\n    return np.pi, loads\n"
    assert unused_imports(src) == [(1, "os"), (2, "dumps")]
    assert MODULES, f"no modules found under {SRC}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def public_defs(tree):
    """(qualified name, node) for each public top-level function or class
    of ``tree`` and each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for m in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    yield f"{node.name}.{m.name}", m


def names_read(node):
    """How often ``node`` reads each name, as a variable, an attribute or an import."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name.split(".")[-1]
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    )


def unread_names(defining, readers):
    """Qualified public names of the ``defining`` trees (module name ->
    tree, each also in ``readers``) that no tree in ``readers`` reads
    outside their own definition."""
    everywhere = sum((names_read(t) for t in readers), Counter())
    out = set()
    for mod, tree in defining.items():
        for qual, node in public_defs(tree):
            name = qual.rsplit(".", 1)[-1]
            if everywhere[name] <= names_read(node)[name]:
                out.add(f"{mod}.{qual}")
    return out


def test_the_check_finds_an_unread_name():
    tree = ast.parse("def f(): return f()\ndef g(): pass\nclass C:\n    def m(self): pass\n    def n(self): pass\n")
    other = ast.parse("from mod import C\nC().n()\n")
    assert unread_names({"mod": tree}, [tree, other]) == {"mod.f", "mod.g", "mod.C.m"}


def test_every_public_name_is_read_outside_the_tests():
    trees = {p: ast.parse(p.read_text()) for p in READERS}
    defining = {".".join(p.relative_to(SRC / "reachlab").with_suffix("").parts): trees[p] for p in MODULES}
    unread = unread_names(defining, list(trees.values()))
    assert sorted(unread - set(UNREAD)) == [], "only tests read these: use them or delete them"
    assert sorted(set(UNREAD) - unread) == [], "these now have a reader: drop them from UNREAD"
