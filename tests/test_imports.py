"""No module imports a name it never reads.

A stdlib-only scan of the syntax trees of the package and of the tests:
every name an import statement binds must be read somewhere in the same
module.  Package __init__ modules are exempt, since their imports are the
public re-exports, and so is `from __future__`, whose names are compiler
directives.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p
    for d in ("src", "tests")
    for p in (ROOT / d).rglob("*.py")
    if p.name != "__init__.py"
)


def unused_imports(source):
    """Names bound by the imports of a module's source that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_module_imports_an_unread_name():
    planted = "from __future__ import annotations\nimport os, os.path as osp\nimport sys\nprint(sys)\n"
    assert unused_imports(planted) == [(2, "os"), (2, "osp")]
    found = {
        str(path.relative_to(ROOT)): names
        for path in MODULES
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert found == {}
