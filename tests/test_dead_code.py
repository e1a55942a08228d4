"""No dead private code: every module-level private function or class of
the package is read somewhere in the package outside its own definition,
as a name or as an attribute.  A reference from the tests alone does not
count, and neither does a call of a function to itself.  Standard library
only (ast), so it runs wherever the tests do."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/hyperproof/*.py"))


def _names(node) -> Counter:
    """Each name read in node's subtree, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def unreferenced_private(sources: dict) -> list:
    """(file, name) of every module-level private function or class of the
    sources (file -> text) that none of them reads outside its own body."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = sum((_names(tree) for tree in trees.values()), Counter())
    return [(path, node.name) for path, tree in trees.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and read[node.name] == _names(node)[node.name]]


def test_the_scan_finds_dead_private_code():
    sources = {
        "a.py": ("def _used(n):\n"
                 "    return _used(n - 1) if n else 0\n"
                 "def _recursive(n):\n"
                 "    return _recursive(n - 1) if n else 0\n"
                 "class _Dead:\n"
                 "    pass\n"
                 "def public():\n"
                 "    def _nested():\n"
                 "        pass\n"
                 "    return _used(1)\n"),
        "b.py": ("import a\n"
                 "class _Read:\n"
                 "    pass\n"
                 "print(a._Read, _Read.__name__)\n"),
    }
    assert unreferenced_private(sources) == [("a.py", "_recursive"),
                                             ("a.py", "_Dead")]


def test_no_dead_private_code():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in FILES}
    assert unreferenced_private(sources) == []
