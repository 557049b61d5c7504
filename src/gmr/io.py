"""File formats: dataset CSV, model JSON, ground-truth JSON, prediction CSV.

All writers produce byte-stable output for identical inputs: fixed column
orders, insertion-ordered JSON objects, shortest round-trip float formatting
and a bare ``\\n`` line terminator.

Every file is read and written as UTF-8, whatever the locale.

Dataset and prediction CSVs go through one bulk codec.  A reader checks the
header with `csv`, parses all data rows in one `numpy.loadtxt` call on the
open file (ids quoted as RFC 4180 says, blank lines skipped, every row
exactly as wide as the header, each id read as its index in order of first
appearance, a predictions flag as an integer) and gathers each group's rows
out of the one parsed array.  Where that call raises, or where a scan of the
file finds whitespace that numpy's parsers strip and ``float()`` and
``int()`` reject, the file takes the cold path instead: the cell-by-cell
`csv.reader` loop that defines the format.  It accepts what ``float()`` and
``int()`` accept and raises the `FormatError` naming the first offending
``file:line``, where lines count CSV records and the header is line 1.  So
both paths accept the same files and read the same values.  A writer formats
each run of rows with one ``repr`` of its nested list, so every float is
written as the shortest round-trip ``float.__repr__``, and it quotes ids as
`csv.writer` does, with a bare ``\\r`` quoted too.

Both CSV writers hand their items (groups, or blocks of prediction rows) to
one run loop, `_write_runs`.  It cuts the items into contiguous runs of
about `RUN_CELLS` float cells and formats each run once, sending each line
to every file whose row mask holds it, so `write_dataset_csv` and
``simulate --split`` write the dataset and both halves of its split in one
pass.  An output of more than one run is formatted in worker processes,
forked one per CPU, at most one per run, on Linux with two or more CPUs:
they take turns at the runs, and the parent moves each run's text into the
files in order, so the bytes do not change.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import warnings
from contextlib import ExitStack
from io import StringIO
from itertools import compress, pairwise
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

# Whitespace that numpy's parsers strip from a cell and ``float()`` and ``int()`` do not.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
# Bytes per read of the scan for that whitespace: a buffer large enough to be
# mapped on its own (see `cli._c_allocator`), so it leaves no hole in the heap.
_SCAN_BYTES = 1 << 20

# Float cells in one run of rows, about 1 MB of text.  An output of one run is
# formatted in this process: a pool would cost more to start than it saves.
RUN_CELLS = 1 << 16


class FormatError(GmrError, ValueError):
    """A file does not match the expected format."""


def _cell(convert, text: str, where: str, kind: str):
    """``convert(text)``, or the `FormatError` saying the cell at ``where`` is not ``kind``."""
    try:
        return convert(text)
    except ValueError:
        raise FormatError(f"{where}: {text!r} is not {kind}") from None


def _bulk_rows(fh, fields):
    """Parse the rest of ``fh`` in one C-level call: its ids and table, or None for the cold path.

    The file ``fh.name`` is scanned first: one holding whitespace that only
    numpy's parser strips goes to the cold path.  The ids are listed in order
    of first appearance, and the table's first field holds each row's index
    into that list.
    """
    if _holds_loadtxt_only_space(fh.name):
        return None
    index = {}
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without data rows
            table = np.loadtxt(
                fh, dtype=np.dtype(fields), delimiter=",",
                comments=None, quotechar='"', ndmin=1,
                converters={0: lambda cell: index.setdefault(cell, len(index))},
            )
    except ValueError:  # also a UnicodeDecodeError, which the cold path re-raises
        return None
    return list(index), table


def _holds_loadtxt_only_space(path) -> bool:
    """Whether the file holds a byte of `_LOADTXT_ONLY_SPACE`, read `_SCAN_BYTES` at a time.

    Each is one byte in UTF-8, and no other character's encoding holds it.
    """
    buf = bytearray(_SCAN_BYTES)
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            if any(buf.find(c, 0, n) >= 0 for c in _LOADTXT_ONLY_SPACE.encode()):
                return True
    return False


def _cold_records(path: Path):
    """Yield ``(line, row)`` for each non-blank record after the header, via `csv`."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for lineno, row in enumerate(reader, start=2):
            if row:
                yield lineno, row


def _read_rows(path: Path, header_ok, expected: str, flagged: bool = False):
    """Ids, codes, values (rows, m) and flags (or None) of the rows ``id,v1,...,vm[,flag]``.

    The ids are listed in order of first appearance, and row i's id is
    ``ids[codes[i]]``.  The header must satisfy ``header_ok``; m is its width
    less the id and flag columns.  A flag is an integer, true where it is not
    0.  A file that is not UTF-8 text, or that `csv` cannot read, raises
    `FormatError`.
    """
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), None)
            if header is None or not header_ok(header):
                raise FormatError(f"{path}: expected header {expected}, got {header!r}")
            width = len(header)
            m = width - 1 - flagged
            fields = [("group", np.intp), ("values", float, (m,))] + [("flag", np.int64)] * flagged
            bulk = _bulk_rows(fh, fields)
        if bulk is not None:
            ids, table = bulk
            return ids, table["group"], table["values"], table["flag"] != 0 if flagged else None
        index, codes, values, flags = {}, [], [], []
        for lineno, row in _cold_records(path):
            where = f"{path}:{lineno}"
            if len(row) != width:
                raise FormatError(f"{where}: expected {width} columns, got {len(row)}")
            codes.append(index.setdefault(row[0], len(index)))
            values.append([_cell(float, cell, where, "a number") for cell in row[1 : m + 1]])
            if flagged:
                flags.append(_cell(int, row[-1], where, "an integer") != 0)
        flags = np.array(flags, dtype=bool) if flagged else None
        return list(index), np.array(codes, dtype=np.intp), np.array(values).reshape(-1, m), flags
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:  # a field over `csv.field_size_limit`, say
        raise FormatError(f"{path}: {exc}") from None


def _grouped(ids: list, codes: np.ndarray, values: np.ndarray) -> GroupedDataset:
    """Rows ``[y, x...]`` grouped by the codes of `_read_rows`: groups as ``ids``, rows in file order."""
    bounds = np.cumsum(np.bincount(codes, minlength=len(ids)))[:-1]
    rows = np.split(np.argsort(codes, kind="stable"), bounds)  # each group's row numbers
    return GroupedDataset(
        tuple(
            Group(id=gid, responses=values[idx, 0], features=values[idx, 1:])
            for gid, idx in zip(ids, rows)
        )
    )


def read_dataset_csv(path) -> GroupedDataset:
    """Read a ``group,y,x1,...,xp`` CSV; groups ordered by first appearance."""
    ids, codes, values, _ = _read_rows(
        Path(path), lambda h: len(h) >= 3 and h[:2] == ["group", "y"], "'group,y,x1,...,xp'"
    )
    return _grouped(ids, codes, values)


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


def _runs(cells) -> list[range]:
    """Contiguous ranges of items, cut where the sum of ``cells`` passes a multiple of `RUN_CELLS`."""
    bounds = np.flatnonzero(np.diff(np.cumsum(cells) // RUN_CELLS)) + 1
    return [range(a, b) for a, b in pairwise([0, *bounds.tolist(), len(cells)])]


def _pool_size(runs: int) -> int:
    """Worker processes to format an output of ``runs`` runs; 1 formats it here.

    One per CPU this process may run on, and at most one per run, for an
    output of more than one run, on Linux (``fork`` and ``os.splice``) and
    outside a daemonic process, which may not start processes of its own.
    """
    if runs < 2 or not hasattr(os, "splice") or not hasattr(os, "sched_getaffinity"):
        return 1
    import multiprocessing

    return 1 if multiprocessing.current_process().daemon else min(runs, len(os.sched_getaffinity(0)))


def _format_to_pipe(run_texts, runs, fd) -> None:
    """A worker: each run's texts, UTF-8, to the pipe ``fd``, each after its length."""
    with open(fd, "wb") as pipe:
        for run in runs:
            for text in run_texts(run):
                data = text.encode("utf-8")
                pipe.write(len(data).to_bytes(8, "little"))
                pipe.write(data)


def _splice_text(pipe: int, fd: int) -> None:
    """Move one text that `_format_to_pipe` wrote from ``pipe`` to the file ``fd``."""
    head = b""
    while len(head) < 8 and (part := os.read(pipe, 8 - len(head))):
        head += part
    left = int.from_bytes(head, "little") if len(head) == 8 else -1
    while left > 0 and (n := os.splice(pipe, fd, left)):
        left -= n
    if left:
        raise RuntimeError("a CSV formatting worker ended before its last run")


def _write_runs(files, masks, item_lines, cells) -> None:
    """Write the lines of every item, in order, to the UTF-8 text files ``files``.

    ``item_lines(i)`` lists item i's lines and ``cells[i]`` counts its float
    cells.  ``masks`` holds one entry per file: None for every line, or a
    sequence whose i-th entry masks the lines of item i that the file takes.
    The items are cut into `_runs`, and each run is formatted once, into one
    text per file.  With one worker (`_pool_size`) this process formats and
    writes the runs in turn.  With more, forked workers take turns at them:
    each formats one run at a time and writes it to its own pipe, which this
    process moves into the files in order with ``os.splice``, so no run's
    text passes through this process's memory.  The workers are ended and
    joined on every path.
    """
    runs = _runs(cells)

    def run_texts(run):
        texts = [[] for _ in files]
        for i in run:
            lines = item_lines(i)
            for text, mask in zip(texts, masks):
                text.extend(lines if mask is None else compress(lines, mask[i]))
        return ["".join(text) for text in texts]

    workers = _pool_size(len(runs))
    if workers < 2:
        for run in runs:
            for fh, text in zip(files, run_texts(run)):
                fh.write(text)
        return
    import multiprocessing

    for fh in files:
        fh.flush()  # the header; the runs go to the file descriptors
    procs, pipes = [], []
    try:
        for w in range(workers):
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:  # a worker holds no other worker's write end, so its exit reads as EOF
                procs.append(multiprocessing.get_context("fork").Process(
                    target=_format_to_pipe, args=(run_texts, runs[w::workers], write_end)
                ))
                procs[-1].start()
            finally:
                os.close(write_end)
        for i in range(len(runs)):
            for fh in files:
                _splice_text(pipes[i % workers], fh.fileno())
    finally:  # a worker still running has failed this process, or has only its exit left
        for proc in procs:
            proc.terminate()
            proc.join()
        for read_end in pipes:
            os.close(read_end)


def write_dataset_csv(d: GroupedDataset, path) -> None:
    _write_dataset_csvs(d, [(path, None)])


def _write_dataset_csvs(d: GroupedDataset, outputs) -> None:
    """Write the rows of ``d`` to each ``(path, rows)`` of ``outputs`` in one pass.

    ``rows`` is a boolean mask over the rows in dataset order, or None for
    every row.  Each group's rows are formatted once, and each file holds the
    bytes `write_dataset_csv` writes for the dataset of its rows.
    """
    header = ",".join(["group", "y"] + [f"x{j + 1}" for j in range(d.p)]) + "\n"

    def group_lines(r):
        g = d.groups[r]
        return _csv_lines(_csv_field(g.id) + ",", np.column_stack([g.responses, g.features]), "")

    with ExitStack() as stack:
        files = [stack.enter_context(Path(path).open("w", newline="", encoding="utf-8"))
                 for path, _ in outputs]
        for fh in files:
            fh.write(header)
        masks = [None if rows is None else np.split(rows, d.offsets[1:]) for _, rows in outputs]
        _write_runs(files, masks, group_lines, d.n_r * (d.p + 1))


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
    _write_json(doc, path)


def _write_json(doc: dict, path) -> None:
    """Write ``doc`` as indented JSON and a final newline, encoded straight to the file."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _read_json(path, build):
    """``build(doc)`` for the JSON object in ``path``.

    A file that is not a JSON object, or whose fields ``build`` cannot use,
    raises `FormatError` naming the file and keeping the original message.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (RecursionError, ValueError) as exc:  # also deep nesting or a UnicodeDecodeError
        raise FormatError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object")
    try:
        return build(doc)
    except KeyError as exc:
        raise FormatError(f"{path}: missing field {exc}") from None
    except (AttributeError, OverflowError, TypeError, ValueError) as exc:
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
    _write_json(doc, path)


def _truth(doc: dict) -> tuple[GroundTruth, SimConfig]:
    truth = GroundTruth(
        beta_true=np.array(doc["beta_true"], dtype=float).T,
        labels=doc["labels"],
        sigma_true=doc["sigma"],
        Sigma_x=doc["Sigma_x"],
    )
    labels, beta = truth.labels, truth.beta_true
    K = beta.shape[1] if beta.ndim == 2 else 0  # a flat beta_true holds no coefficient vector
    if labels.ndim != 1 or not labels.size or not ((labels >= 0) & (labels < K)).all():
        raise ValueError(f"labels must be a non-empty list in 0..{K - 1}, the columns of beta_true")
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
    bounds = [0, *(np.flatnonzero(new_run) + 1).tolist(), len(group)] if len(group) else [0]

    def block_lines(b):
        start, stop = bounds[b], bounds[b + 1]
        prefix = _csv_field(group[start]) + ","
        return _csv_lines(prefix, values[start:stop], f",{int(fallback[start])}")

    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(_PREDICTION_COLUMNS)
        _write_runs([fh], [None], block_lines, 3 * np.diff(bounds))


def read_predictions_csv(path) -> dict[str, np.ndarray]:
    """Read a predictions CSV back into column arrays."""
    ids, codes, values, used_fallback = _read_rows(
        Path(path), lambda h: h == _PREDICTION_COLUMNS, str(_PREDICTION_COLUMNS), flagged=True
    )
    y_true, y_pred, log_density = np.array(values.T)
    return {
        "group": np.array(ids, dtype=object)[codes],
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
    _write_json(doc, json_path)
    rows = ([k, report.rmse_by_k[k], report.sd_by_k[k]] for k in sorted(report.rmse_by_k))
    _write_table_csv(["K", "mean_rmse", "sd_rmse"], rows, csv_path)


def _write_table_csv(columns, rows, path) -> None:
    """Write a report table: floats as their ``repr``, None as an empty cell."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow(
                ["" if v is None else repr(v) if isinstance(v, float) else v for v in row]
            )
