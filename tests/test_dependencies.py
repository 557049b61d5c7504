"""What the package imports at run time: numpy and the standard library."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import gmr

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


# The public surface of ``gmr``: each module's ``__all__``, sorted, plus ``__version__``.
PUBLIC_NAMES = [
    "AllRestartsFailedError", "BenchmarkSpec", "DimensionMismatchError",
    "DuplicateGroupIdError", "EmConfig", "EmptyClusterError", "EmptyGroupError", "FitResult",
    "GmrError", "GroundTruth", "Group", "GroupPredictions", "GroupTooSmallError",
    "GroupedDataset", "InfeasibleError", "LengthMismatchError", "ModelParams", "NonFiniteError",
    "PredictiveMixture", "Responsibilities", "SelectionReport", "SimConfig",
    "SingularSystemError", "TooFewGroupsError", "TooManyGroupsError", "UnknownGroupError",
    "aggregate", "aggregate_columns", "baseline_mean", "baseline_ols", "beta_error",
    "compute_group_stats", "confusion", "e_step", "fit", "generate", "init_responsibilities",
    "iter_records", "log_joint", "log_marginal_likelihood", "m_step_beta", "m_step_pi",
    "m_step_sigma2", "map_predict_fmr", "map_predict_gmr", "nmi", "partition_groups",
    "predict_groups", "predictive_density", "rmse", "select_k", "simplex_betas",
    "train_test_split", "validate_dataset", "wishart_covariance", "__version__",
]
PUBLIC_MODULES = ("benchmark", "data", "em", "errors", "metrics", "predict", "select", "simulate")


def test_the_package_exports_exactly_its_modules_public_names():
    assert gmr.__all__ == PUBLIC_NAMES
    homes = {f"gmr.{module}" for module in PUBLIC_MODULES}
    for name in PUBLIC_NAMES[:-1]:
        exported = getattr(gmr, name)
        assert exported.__module__ in homes, name
        assert getattr(importlib.import_module(exported.__module__), name) is exported
    declared = [
        name
        for module in sorted(homes)
        for name in getattr(importlib.import_module(module), "__all__", ())
    ]
    assert len(declared) == len(set(declared)), "a name is public in two modules"


def test_importing_the_cli_loads_no_multiprocessing():
    # The CSV writers and `benchmark --jobs` import it when they start workers.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "import gmr.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_importing_the_package_loads_no_io_cli_or_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "import gmr\n"
        "print(sorted(m for m in sys.modules if m in ('gmr.io', 'gmr.cli', 'scipy')"
        " or m.startswith('scipy.')))\n"
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


def test_no_handler_in_src_catches_every_exception():
    # A programming bug must surface as a traceback, not as an error message.
    broad = []
    for path in sorted((SRC / "gmr").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ExceptHandler):
                continue
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if node.type is None or any(
                isinstance(t, ast.Name) and t.id in ("Exception", "BaseException") for t in caught
            ):
                broad.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert broad == []
