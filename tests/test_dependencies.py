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
