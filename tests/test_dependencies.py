"""What the package imports at run time: numpy and the standard library."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _runtime_dependencies() -> set[str]:
    """Distribution names in ``[project].dependencies`` of pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10: read the list with a regex
        block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M)
        specs = re.findall(r"[\"']([^\"']+)[\"']", block.group(1))
    else:
        specs = tomllib.loads(text)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", spec.strip()).group(0).lower() for spec in specs}


def _imported_packages() -> set[str]:
    """Top-level names of every absolute, non-stdlib import under src/gmr."""
    names = set()
    for path in sorted((SRC / "gmr").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return {name for name in names if name not in sys.stdlib_module_names}


def test_src_imports_exactly_the_declared_runtime_dependencies():
    assert _imported_packages() == _runtime_dependencies()


def test_importing_the_cli_loads_no_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "import gmr, gmr.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module) -> dict[str, ast.stmt]:
    """Each module-level private name of a module and the statement that defines it."""
    defined = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [stmt.name]
        elif isinstance(stmt, ast.Assign):
            targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            targets = [stmt.target.id]
        else:
            continue
        defined.update((name, stmt) for name in targets if _private(name))
    return defined


def _private_references(module: str, tree: ast.Module):
    """Yield (module, name, statement) for each private name a top-level statement reads.

    A bare name belongs to the module itself unless ``from .other import``
    brought it in; an attribute (``io._x``, ``self._x``) may belong to any
    module, so its module is None.
    """
    imported = {
        alias.asname or alias.name: node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }
    for stmt in tree.body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and _private(node.id):
                yield imported.get(node.id, module), node.id, stmt
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                yield None, node.attr, stmt


def test_every_private_name_is_used_outside_its_own_definition():
    # A helper that only calls itself, or that nothing calls, is dead code.
    trees = {
        path.stem: ast.parse(path.read_text(), filename=str(path))
        for path in sorted((SRC / "gmr").rglob("*.py"))
    }
    refs = [ref for module, tree in trees.items() for ref in _private_references(module, tree)]
    defined = [
        (module, name, stmt)
        for module, tree in trees.items()
        for name, stmt in _private_definitions(tree).items()
    ]
    assert ("em", "_solve_spd") in {(module, name) for module, name, _ in defined}
    dead = [
        f"{module}.{name}"
        for module, name, stmt in defined
        if not any(n == name and m in (module, None) and s is not stmt for m, n, s in refs)
    ]
    assert dead == []
