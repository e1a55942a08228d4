"""No dead code: every module-level private function, class or constant (a
name bound by assignment) of the package, and every public function or
class that the package's __all__ does not export, is read somewhere in the
package outside its own definition, as a name or as an attribute.  An
import is not a read.  A reference from the tests alone does not count,
and neither does a call of a function to itself.  Standard library only
(ast), so it runs wherever the tests do."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("src/hyperproof/*.py"))
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node) -> Counter:
    """Each name read in node's subtree, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _defined(node) -> list:
    """The names a module-level statement binds: a function's or class's,
    or those an assignment stores to."""
    if isinstance(node, _DEFINITIONS):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def _exported(tree) -> set:
    """The names a module's __all__ lists."""
    return {name for node in tree.body if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets)
            for name in ast.literal_eval(node.value)}


def unreferenced(sources: dict) -> list:
    """(file, name) of every module-level private function, class or
    constant of the sources (file -> text), and every public function or
    class that no __all__ of theirs exports, that none of them reads
    outside its own definition."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    read = sum((_names(tree) for tree in trees.values()), Counter())
    exported = set().union(*map(_exported, trees.values()))
    return [(path, name) for path, tree in trees.items()
            for node in tree.body for name in _defined(node)
            if read[name] == _names(node)[name] and (
                name.startswith("_") and not name.startswith("__")
                or not name.startswith("_") and name not in exported
                and isinstance(node, _DEFINITIONS))]


def test_the_scan_finds_dead_private_code():
    sources = {
        "a.py": ("def _used(n):\n"
                 "    return _used(n - 1) if n else 0\n"
                 "def _recursive(n):\n"
                 "    return _recursive(n - 1) if n else 0\n"
                 "class _Dead:\n"
                 "    pass\n"
                 "_UNREAD = 6\n"
                 "_TRIES, _BITS = 6, 1 << 15\n"
                 "_LIMIT: int = _TRIES\n"
                 "__all__ = ['public']\n"
                 "def public():\n"
                 "    def _nested():\n"
                 "        pass\n"
                 "    return _used(1)\n"
                 "def left_behind():\n"
                 "    return left_behind()\n"
                 "class Unread:\n"
                 "    pass\n"
                 "UNREAD_PUBLIC = 1\n"
                 "def read_in_b():\n"
                 "    pass\n"),
        "b.py": ("from a import Unread, read_in_b\n"
                 "import a\n"
                 "read_in_b()\n"
                 "class _Read:\n"
                 "    pass\n"
                 "_TABLE = {}\n"
                 "_TABLE[1] = 2\n"
                 "print(a._Read, _Read.__name__, a._LIMIT)\n"),
    }
    assert unreferenced(sources) == [("a.py", "_recursive"),
                                     ("a.py", "_Dead"),
                                     ("a.py", "_UNREAD"),
                                     ("a.py", "_BITS"),
                                     ("a.py", "left_behind"),
                                     ("a.py", "Unread")]


def test_no_dead_private_code():
    sources = {str(p.relative_to(ROOT)): p.read_text() for p in FILES}
    assert unreferenced(sources) == []
