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


# the per-node kernels a per-block integrand is made of
BLOCK_KERNELS = {
    "frames",
    "q_batch",
    "tangent_jet",
    "cofactor_batch",
    "contract2_batch",
    "elem_sym_batch",
    "elem_sym_pencil",
    "certified_minimum",
}


def node_walkers(source):
    """(top-level definition, line) of every call of .walk_blocks(...)."""
    return sorted(
        (getattr(top, "name", None), node.lineno)
        for top in ast.parse(source).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "walk_blocks"
    )


def imported_names(path):
    """Every name an import statement of the module binds."""
    return {
        alias.asname or alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_one_node_sweep_for_every_one_body_integral():
    # grid walks are functionals' one-body sweep and its walks over several
    # bodies, the eigenvalue-sum scan and the curvature certificate; node
    # blocks are taken only by functionals, for its table of density
    # differences
    package = [path for path in MODULES if path.parent.name == "areafun"]
    walkers = {
        (path.stem, name)
        for path in package
        for name, _ in node_walkers(path.read_text(encoding="utf-8"))
    }
    assert walkers == {
        ("functionals", "functional_difference"),
        ("functionals", "_mixed_integral"),
        ("functionals", "_sweep"),
        ("conditions", "EigenSumScan"),
        ("bodies", "certify_c2plus"),
    }
    assert {p.stem for p in package if "node_blocks" in imported_names(p)} == {"functionals"}
    # and the drivers, the identity checks and the reduction build no
    # per-block integrand
    for stem in ("experiments", "identities", "reduction"):
        bound = imported_names(ROOT / "src" / "areafun" / f"{stem}.py")
        assert not bound & BLOCK_KERNELS, (stem, bound & BLOCK_KERNELS)
