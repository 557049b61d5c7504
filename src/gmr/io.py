"""File formats: dataset CSV, model JSON, ground-truth JSON, prediction CSV.

All writers produce byte-stable output for identical inputs: fixed column
orders, insertion-ordered JSON objects, shortest round-trip float formatting
and a bare ``\\n`` line terminator.

Dataset and prediction CSVs go through one bulk codec.  A reader checks the
header with `csv`, parses all data rows in one `numpy.loadtxt` call (ids
quoted as RFC 4180 says, blank lines skipped, every row exactly as wide as
the header) and gathers each group's rows out of the one parsed array.
Where that call raises, or where numpy's float parser would accept a cell that
``float()`` rejects, the file takes the cold path instead: the cell-by-cell
`csv.reader` loop that defines the format.  It accepts what ``float()``
accepts and raises the `FormatError` naming the first offending
``file:line``, where lines count CSV records and the header is line 1.  So
both paths accept the same files and read the same values.  A writer formats
each run of rows with one ``repr`` of its nested list, so every float is
written as the shortest round-trip ``float.__repr__``, and it quotes ids as
`csv.writer` does, with a bare ``\\r`` quoted too.

One writer serves `write_dataset_csv` and ``simulate --split``: it formats
each group's rows once and sends each line to every file whose row mask
holds it, so the dataset and both halves of its split are written in one
pass.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import warnings
from contextlib import ExitStack
from io import StringIO
from itertools import compress
from pathlib import Path

import numpy as np

from .data import Group, GroupedDataset, ModelParams, Responsibilities
from .em import FitResult
from .errors import GmrError
from .predict import GroupPredictions
from .select import SelectionReport
from .simulate import GroundTruth, SimConfig

__all__ = [
    "read_dataset_csv",
    "read_model_json",
    "read_predictions_csv",
    "read_truth_json",
    "write_dataset_csv",
    "write_model_json",
    "write_predictions_csv",
    "write_selection_report",
    "write_truth_json",
]

_PREDICTION_COLUMNS = ["group", "y_true", "y_pred", "log_density", "used_fallback"]

# Whitespace that numpy's float parser strips from a cell and ``float()`` does not.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


class FormatError(GmrError, ValueError):
    """A file does not match the expected format."""


def _float(text: str, where: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise FormatError(f"{where}: {text!r} is not a number") from None


def _flag(text: str, where: str) -> bool:
    try:
        return bool(int(text))
    except ValueError:
        raise FormatError(f"{where}: {text!r} is not an integer") from None


def _bulk_rows(fh, fields):
    """Parse the rest of ``fh`` in one C-level call; None leaves it to the cold path.

    The rows of one group share one id string, not one string per row each.
    """
    ids = {}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without data rows
            return np.loadtxt(
                _checked_lines(fh), dtype=np.dtype(fields), delimiter=",",
                comments=None, quotechar='"', ndmin=1,
                converters={0: lambda cell: ids.setdefault(cell, cell)},
            )
    except ValueError:  # also a UnicodeDecodeError, which the cold path re-raises
        return None


def _checked_lines(fh):
    """Yield the lines of ``fh``; raise ValueError at whitespace only numpy's parser strips."""
    for line in fh:
        if any(c in line for c in _LOADTXT_ONLY_SPACE):
            raise ValueError("a cell float() may reject")
        yield line


def _cold_records(path: Path):
    """Yield ``(line, row)`` for each non-blank record after the header, via `csv`."""
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for lineno, row in enumerate(reader, start=2):
            if row:
                yield lineno, row


def _read_rows(path: Path, header_ok, expected: str, flagged: bool = False):
    """Ids, values (rows, m) and flags (or None) of the rows ``id,v1,...,vm[,flag]``.

    The header must satisfy ``header_ok``; m is its width less the id and flag
    columns.  The bulk parse takes flags written exactly ``0`` or ``1``.
    """
    with path.open(newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None or not header_ok(header):
            raise FormatError(f"{path}: expected header {expected}, got {header!r}")
        width = len(header)
        m = width - 1 - flagged
        fields = [("group", object), ("values", float, (m,))] + [("flag", object)] * flagged
        table = _bulk_rows(fh, fields)
    if table is not None:
        if not flagged:
            return table["group"], table["values"], None
        flags = table["flag"]
        used = flags == "1"
        if (used | (flags == "0")).all():  # ``int()`` reads other spellings below
            return table["group"].copy(), table["values"], used
    ids, values, flags = [], [], []
    for lineno, row in _cold_records(path):
        where = f"{path}:{lineno}"
        if len(row) != width:
            raise FormatError(f"{where}: expected {width} columns, got {len(row)}")
        ids.append(row[0])
        values.append([_float(cell, where) for cell in row[1 : m + 1]])
        if flagged:
            flags.append(_flag(row[-1], where))
    flags = np.array(flags, dtype=bool) if flagged else None
    return np.array(ids, dtype=object), np.array(values).reshape(-1, m), flags


def _grouped(ids: np.ndarray, values: np.ndarray) -> GroupedDataset:
    """Rows ``[y, x...]`` grouped by id: groups by first appearance, rows in file order."""
    unique, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    order = np.argsort(first)
    group_of_row = np.argsort(order)[inverse]  # the inverse permutation of order, per row
    bounds = np.cumsum(np.bincount(group_of_row, minlength=order.size))[:-1]
    rows = np.split(np.argsort(group_of_row, kind="stable"), bounds)  # each group's row numbers
    return GroupedDataset(
        tuple(
            Group(id=gid, responses=values[idx, 0], features=values[idx, 1:])
            for gid, idx in zip(unique[order].tolist(), rows)
        )
    )


def read_dataset_csv(path) -> GroupedDataset:
    """Read a ``group,y,x1,...,xp`` CSV; groups ordered by first appearance."""
    ids, values, _ = _read_rows(
        Path(path), lambda h: len(h) >= 3 and h[:2] == ["group", "y"], "'group,y,x1,...,xp'"
    )
    return _grouped(ids, values)


def _csv_field(value) -> str:
    """``value`` as `csv.writer` writes it as one cell of a longer row.

    The ``\\r\\n`` terminator makes it quote a bare ``\\r`` as well as ``\\n``,
    so that every id reads back as one field.
    """
    buf = StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow([value, ""])
    return buf.getvalue().removesuffix(",\r\n")


def _csv_lines(prefix: str, values, suffix: str) -> list[str]:
    """One line ``prefix + ",".join(map(repr, row)) + suffix + "\\n"`` per row of ``values``."""
    if not len(values):
        return []
    cells = repr(np.asarray(values, dtype=float).tolist())[2:-2].replace(", ", ",")
    return [f"{prefix}{row}{suffix}\n" for row in cells.split("],[")]


def write_dataset_csv(d: GroupedDataset, path) -> None:
    _write_dataset_csvs(d, [(path, None)])


def _write_dataset_csvs(d: GroupedDataset, outputs) -> None:
    """Write the rows of ``d`` to each ``(path, rows)`` of ``outputs`` in one pass.

    ``rows`` is a boolean mask over the rows in dataset order, or None for
    every row.  Each group's rows are formatted once, and each file holds the
    bytes `write_dataset_csv` writes for the dataset of its rows.
    """
    header = ",".join(["group", "y"] + [f"x{j + 1}" for j in range(d.p)]) + "\n"
    with ExitStack() as stack:
        files = []
        for path, rows in outputs:
            fh = stack.enter_context(Path(path).open("w", newline=""))
            fh.write(header)
            files.append((fh, None if rows is None else np.split(rows, d.offsets[1:])))
        for r, g in enumerate(d.groups):
            values = np.column_stack([g.responses, g.features])
            lines = _csv_lines(_csv_field(g.id) + ",", values, "")
            for fh, masks in files:
                fh.write("".join(lines if masks is None else compress(lines, masks[r])))


def write_model_json(result: FitResult, path) -> None:
    """Serialize a fit: parameters, per-group posteriors and fit metadata."""
    params = result.params
    doc = {
        "K": params.K,
        "p": params.p,
        "pi": params.pi.tolist(),
        "beta": [params.beta[:, k].tolist() for k in range(params.K)],
        "sigma2": params.sigma2.tolist(),
        "group_posteriors": {
            gid: row.tolist() for gid, row in zip(result.group_ids, result.tau.tau)
        },
        "log_likelihood": result.log_likelihood,
        "n_iter": result.n_iter,
        "converged": result.converged,
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _read_json(path, build):
    """``build(doc)`` for the JSON object in ``path``.

    A file that is not a JSON object, or whose fields ``build`` cannot use,
    raises `FormatError` naming the file and keeping the original message.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    try:
        return build(doc)
    except KeyError as exc:
        raise FormatError(f"{path}: missing field {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise FormatError(f"{path}: {exc}") from None


def _fit_result(doc: dict) -> FitResult:
    posteriors = doc["group_posteriors"]
    params = ModelParams(
        pi=doc["pi"],
        beta=np.array(doc["beta"], dtype=float).T,
        sigma2=doc["sigma2"],
    )
    tau = Responsibilities(np.array(list(posteriors.values()), dtype=float))
    if doc["K"] != params.K or doc["p"] != params.p:
        raise ValueError(
            f"K={doc['K']!r}, p={doc['p']!r} disagree with pi and beta (K={params.K}, p={params.p})"
        )
    if tau.K != params.K:
        raise ValueError(f"group_posteriors rows have {tau.K} entries, pi has {params.K}")
    return FitResult(
        params=params,
        tau=tau,
        group_ids=tuple(posteriors.keys()),
        log_likelihood=float(doc["log_likelihood"]),
        n_iter=int(doc["n_iter"]),
        converged=bool(doc["converged"]),
        ll_trace=None,
    )


def read_model_json(path) -> FitResult:
    """Load a model written by `write_model_json`; ``ll_trace`` is not stored."""
    return _read_json(path, _fit_result)


def write_truth_json(truth: GroundTruth, cfg: SimConfig, path) -> None:
    p, K = truth.beta_true.shape
    doc = {
        "beta_true": [truth.beta_true[:, k].tolist() for k in range(K)],
        "labels": truth.labels.tolist(),
        "sigma": truth.sigma_true.tolist(),
        "Sigma_x": truth.Sigma_x.tolist(),
        "config": dataclasses.asdict(cfg),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _truth(doc: dict) -> tuple[GroundTruth, SimConfig]:
    truth = GroundTruth(
        beta_true=np.array(doc["beta_true"], dtype=float).T,
        labels=doc["labels"],
        sigma_true=doc["sigma"],
        Sigma_x=doc["Sigma_x"],
    )
    return truth, SimConfig(**doc["config"])


def read_truth_json(path) -> tuple[GroundTruth, SimConfig]:
    return _read_json(path, _truth)


def write_predictions_csv(preds: GroupPredictions, path) -> None:
    path = Path(path)
    group = np.array(preds.group, dtype=object)
    fallback = np.asarray(preds.used_fallback)
    values = np.column_stack([preds.y_true, preds.y_pred, preds.log_density])
    # One block of lines per run of rows that share a group and a fallback flag.
    new_run = (group[1:] != group[:-1]) | (fallback[1:] != fallback[:-1])
    bounds = [0, *(np.flatnonzero(new_run) + 1).tolist(), len(group)] if len(group) else []
    with path.open("w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(_PREDICTION_COLUMNS)
        for start, stop in zip(bounds, bounds[1:]):
            prefix = _csv_field(group[start]) + ","
            fh.write("".join(_csv_lines(prefix, values[start:stop], f",{int(fallback[start])}")))


def read_predictions_csv(path) -> dict[str, np.ndarray]:
    """Read a predictions CSV back into column arrays."""
    group, values, used_fallback = _read_rows(
        Path(path), lambda h: h == _PREDICTION_COLUMNS, str(_PREDICTION_COLUMNS), flagged=True
    )
    y_true, y_pred, log_density = np.array(values.T)
    return {
        "group": group,
        "y_true": y_true,
        "y_pred": y_pred,
        "log_density": log_density,
        "used_fallback": used_fallback,
    }


def write_selection_report(report: SelectionReport, json_path, csv_path) -> None:
    """Write a selection report as JSON plus a ``K,mean_rmse,sd_rmse`` table."""
    doc = {
        "k_grid": list(report.k_grid),
        "rmse_by_k": {str(k): report.rmse_by_k[k] for k in sorted(report.rmse_by_k)},
        "sd_by_k": {str(k): report.sd_by_k[k] for k in sorted(report.sd_by_k)},
        "best_k": report.best_k,
        "best_mixture_k": report.best_mixture_k,
        "n_reps": report.n_reps,
    }
    Path(json_path).write_text(json.dumps(doc, indent=2) + "\n")
    rows = ([k, report.rmse_by_k[k], report.sd_by_k[k]] for k in sorted(report.rmse_by_k))
    _write_table_csv(["K", "mean_rmse", "sd_rmse"], rows, csv_path)


def _write_table_csv(columns, rows, path) -> None:
    """Write a report table: floats as their ``repr``, None as an empty cell."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                ["" if v is None else repr(v) if isinstance(v, float) else v for v in row]
            )
