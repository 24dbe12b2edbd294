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
    of ``tree``, each public method of those classes, and each public
    annotated field of a class that does not call ``asdict`` (which reads
    them all)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if not isinstance(node, ast.ClassDef):
                continue
            whole = any(
                isinstance(c, ast.Call) and "asdict" in (getattr(c.func, a, None) for a in ("id", "attr"))
                for c in ast.walk(node)
            )
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                    yield f"{node.name}.{m.name}", m
                elif isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name) and not whole:
                    if not m.target.id.startswith("_"):
                        yield f"{node.name}.{m.target.id}", m


def is_field(node):
    """An annotated field, or a method under ``@property``."""
    return isinstance(node, ast.AnnAssign) or any(
        isinstance(d, ast.Name) and d.id == "property" for d in getattr(node, "decorator_list", ())
    )


def names_read(node):
    """How often ``node`` reads each name, as a variable, an attribute or an import."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.name.split(".")[-1]
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute, ast.alias))
    )


def attributes_loaded(node):
    """How often ``node`` loads each attribute other than as a call's callee."""
    callees = {id(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
    return Counter(
        n.attr
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and id(n) not in callees
    )


def unread_names(defining, readers):
    """Qualified public names of the ``defining`` trees (module name ->
    tree, each also in ``readers``) that no tree in ``readers`` reads
    outside their own definition.  A field or property is read only by
    an attribute load: not by a constructor keyword, not by a bare name,
    and not as a call's callee (``samples.std()`` reads no ``std`` field)."""
    everywhere = sum((names_read(t) for t in readers), Counter())
    loaded = sum((attributes_loaded(t) for t in readers), Counter())
    out = set()
    for mod, tree in defining.items():
        for qual, node in public_defs(tree):
            name = qual.rsplit(".", 1)[-1]
            reads, own = (loaded, attributes_loaded) if is_field(node) else (everywhere, names_read)
            if reads[name] <= own(node)[name]:
                out.add(f"{mod}.{qual}")
    return out


def test_the_check_finds_an_unread_name():
    tree = ast.parse("def f(): return f()\ndef g(): pass\nclass C:\n    def m(self): pass\n    def n(self): pass\n")
    other = ast.parse("from mod import C\nC().n()\n")
    assert unread_names({"mod": tree}, [tree, other]) == {"mod.f", "mod.g", "mod.C.m"}


def test_the_check_finds_an_unread_field():
    tree = ast.parse(
        "from dataclasses import asdict, dataclass\n"
        "@dataclass\nclass P:\n    a: int\n    b: int\n    c: int\n    _d: int = 0\n"
        "    @property\n    def e(self): return self.a\n"
        "    @property\n    def f(self): return 1\n"
        "@dataclass\nclass Q:\n    x: int\n    def to_dict(self): return asdict(self)\n"
    )
    # a keyword, a bare name and a callee read no field; asdict reads all of Q's
    other = ast.parse(
        "from mod import P, Q\nc = 1\np = P(a=1, b=2, c=c)\nprint(p.b, p.e, Q(1).to_dict())\np.c()\n"
    )
    assert unread_names({"mod": tree}, [tree, other]) == {"mod.P.c", "mod.P.f"}


def test_every_public_name_is_read_outside_the_tests():
    trees = {p: ast.parse(p.read_text()) for p in READERS}
    defining = {".".join(p.relative_to(SRC / "reachlab").with_suffix("").parts): trees[p] for p in MODULES}
    unread = unread_names(defining, list(trees.values()))
    assert sorted(unread - set(UNREAD)) == [], "only tests read these: use them or delete them"
    assert sorted(set(UNREAD) - unread) == [], "these now have a reader: drop them from UNREAD"
