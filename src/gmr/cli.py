"""Command line front end.

Subcommands: ``simulate``, ``fit``, ``predict``, ``evaluate``, ``select-k``,
``benchmark``.  Data outputs go to files (or stdout for ``evaluate``);
diagnostics go to stderr at a level picked by the ``GMR_LOG`` environment
variable (``error``, ``warn``, ``info``, ``debug``).  Every subcommand is
deterministic given its ``--seed``.

Exit codes: 0 on success, 1 on runtime failure or a bug's traceback, 2 on usage errors.

The model has no implicit intercept: features are exactly the ``x1..xp``
columns of the dataset.  To fit an intercept, append a constant column of
ones before fitting.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path
from typing import get_args

import numpy as np

from . import benchmark as bench
from . import io
from .data import _from_dict
from .em import EmConfig, InitStrategy, fit
from .errors import GmrError, NonFiniteError
from .metrics import rmse
from .predict import predict_groups
from .select import select_k
from .simulate import SimConfig, _test_rows, generate

__all__ = ["build_parser", "entrypoint", "main"]

logger = logging.getLogger(__name__)

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


class _UsageError(Exception):
    """Bad flags or config values; reported with exit code 2."""


def _configure_logging() -> None:
    name = os.environ.get("GMR_LOG", "warn").strip().lower()
    logging.basicConfig(
        stream=sys.stderr,
        level=_LOG_LEVELS.get(name, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _c_allocator():
    """glibc, set to map each buffer of 1 MiB or more on its own; None for other C libraries.

    glibc's own threshold rises to each large buffer freed, and the heap's
    layout then moved a pipeline's peak RSS by 10 MB from one run to the next.
    `main` also hands the freed heap pages back when a command ends.
    """
    import ctypes

    libc = None if sys.platform == "win32" else ctypes.CDLL(None)
    if not hasattr(libc, "malloc_trim"):  # glibc has it with mallopt; macOS has neither
        return None
    libc.mallopt(-3, 1 << 20)  # -3 is M_MMAP_THRESHOLD
    return libc


def _config(cls, args: argparse.Namespace, path: str | None):
    """``cls`` built from the JSON settings file ``path`` (or none), overridden by every flag given.

    The settings keys are the fields of ``cls``; each is also the argparse
    attribute of its flag, where the command has one.  A file that cannot be
    read, unknown keys and values ``cls`` rejects are usage errors.
    """
    names = [f.name for f in fields(cls)]
    try:
        conf = {} if path is None else io._read_json(path, dict)
    except (OSError, io.FormatError) as exc:
        raise _UsageError(str(exc)) from None
    conf.update({name: v for name in names if (v := getattr(args, name, None)) is not None})
    try:
        return _from_dict(cls, conf)
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from None


def _out_path(out: str) -> Path:
    """``out`` with its directory created, before the work rather than after it."""
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _report_paths(out: str, source: str) -> tuple[Path, Path]:
    """The report path ``out`` and its CSV table beside it, neither the input file ``source``.

    An ``out`` ending in ``.csv`` is a usage error: the table would overwrite the report.
    """
    report, table = Path(out), Path(out).with_suffix(".csv")
    if report.suffix == ".csv":
        raise _UsageError(f"--out {out} ends in .csv, the suffix of its CSV table; pick another")
    if any(p.exists() and Path(source).exists() and p.samefile(source) for p in (report, table)):
        raise _UsageError(f"--out {out} would overwrite the input {source}; pick another")
    return _out_path(out), table


def _size_summary(sizes) -> str:
    counts = Counter(int(s) for s in sizes)
    return ", ".join(f"{cnt} of {size}" for size, cnt in sorted(counts.items(), reverse=True))


def _parse_k_grid(text: str) -> list[int]:
    grid: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "-" in token[1:]:
            lo, _, hi = token.partition("-")
            try:
                lo, hi = int(lo), int(hi)
            except ValueError:
                raise _UsageError(f"bad K range {token!r}") from None
            if hi < lo:
                raise _UsageError(f"bad K range {token!r}")
            grid.extend(range(lo, hi + 1))
        else:
            try:
                grid.append(int(token))
            except ValueError:
                raise _UsageError(f"bad K value {token!r}") from None
    if not grid:
        raise _UsageError("empty K grid")
    return grid


def cmd_simulate(args: argparse.Namespace) -> int:
    """Draw a dataset and write ``dataset.csv`` and ``truth.json`` to ``--out``.

    With ``--split`` the held-out rows are drawn first, as `train_test_split`
    draws them, so a bad fraction or a group too small to split fails before
    any file is written.  One pass then formats each group's rows once and
    writes every line to ``dataset.csv`` and to ``train.csv`` or ``test.csv``;
    the files hold the same bytes as writing the dataset and both halves of
    the split one by one.
    """
    cfg = _config(SimConfig, args, args.config)
    data, truth = generate(cfg)
    out = Path(args.out)
    outputs = [(out / "dataset.csv", None)]
    if args.split is not None:
        try:
            test_rows = _test_rows(data, args.split, seed=cfg.seed)
        except ValueError as exc:
            raise _UsageError(f"--split: {exc}") from None
        outputs += [(out / "train.csv", ~test_rows), (out / "test.csv", test_rows)]
    out.mkdir(parents=True, exist_ok=True)
    io._write_dataset_csvs(data, outputs)
    io.write_truth_json(truth, cfg, out / "truth.json")
    written = ["dataset.csv", "truth.json"] + [path.name for path, _ in outputs[1:]]
    print(
        f"R={data.R} groups; sizes: {_size_summary(data.n_r)}; "
        f"wrote {', '.join(written)} in {out}"
    )
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _config(EmConfig, args, args.config)
    out = _out_path(args.out)
    data = io.read_dataset_csv(args.data)
    result = fit(data, cfg)
    io.write_model_json(result, out)
    print(
        f"log_likelihood={result.log_likelihood:.6f} n_iter={result.n_iter} "
        f"converged={result.converged}"
    )
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    out = _out_path(args.out)
    model = io.read_model_json(args.model)
    data = io.read_dataset_csv(args.data)
    preds = predict_groups(model, data, on_unknown=args.fallback)
    io.write_predictions_csv(preds, out)
    n_fallback = int(preds.used_fallback.sum())
    print(f"wrote {len(preds.y_pred)} predictions ({n_fallback} with prior fallback)")
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    if args.model is None:
        for flag in ("truth", "train", "test"):
            if getattr(args, flag) is not None:
                raise _UsageError(f"--{flag} needs --model")
    if args.model is None and args.predictions is None:
        raise _UsageError("need --model (with --truth) and/or --predictions")
    if args.test is not None and args.predictions is not None:
        raise _UsageError("--test and --predictions both give rmse_test; pass one")
    out = _out_path(args.out) if args.out else None
    metrics = ("nmi", "beta_error", "rmse_train", "rmse_test", "n_iter", "converged", "K")
    record = {**dict.fromkeys(metrics), "seed": args.seed}
    if args.model:
        model = io.read_model_json(args.model)
        record.update(n_iter=model.n_iter, converged=model.converged, K=model.params.K)
        if args.truth:
            record.update(bench._label_scores(model, io.read_truth_json(args.truth)[0]))
        if args.train:
            record["rmse_train"] = bench._holdout_rmse(model, io.read_dataset_csv(args.train))
        if args.test:
            record["rmse_test"] = bench._holdout_rmse(model, io.read_dataset_csv(args.test))
    if args.predictions is not None:
        cols = io.read_predictions_csv(args.predictions)
        if not cols["y_true"].size:
            raise io.FormatError(f"{args.predictions}: no prediction rows")
        for name in ("y_true", "y_pred"):
            if not np.isfinite(cols[name]).all():
                raise NonFiniteError(f"{args.predictions}: {name} contains NaN or infinite values")
        record["rmse_test"] = rmse(cols["y_true"], cols["y_pred"])
    line = json.dumps(record)
    if out:
        out.write_text(line + "\n")
    else:
        print(line)
    return 0


def cmd_select_k(args: argparse.Namespace) -> int:
    out, csv_path = _report_paths(args.out, args.data)
    template = _config(EmConfig, args, None)
    data = io.read_dataset_csv(args.data)
    grid = _parse_k_grid(args.k_grid)
    try:
        report = select_k(
            data, grid, cfg=template, test_frac=args.test_frac, n_reps=args.reps, seed=args.seed
        )
    except GmrError:
        raise  # data and runtime errors exit 1, even those that are ValueErrors
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    io.write_selection_report(report, out, csv_path)
    print(f"best_k={report.best_k} best_mixture_k={report.best_mixture_k} n_reps={report.n_reps}")
    return 0


def cmd_benchmark(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise _UsageError(f"--jobs must be at least 1, got {args.jobs}")
    out, csv_path = _report_paths(args.out, args.spec)
    spec = _config(bench.BenchmarkSpec, args, args.spec)
    records = []
    with out.open("w") as fh:
        for record in bench.iter_records(spec, jobs=args.jobs):
            fh.write(json.dumps(record) + "\n")
            records.append(record)
    rows = bench.aggregate(records)
    columns = bench.aggregate_columns(spec)
    io._write_table_csv(columns, ([row[c] for c in columns] for row in rows), csv_path)
    n_failed = sum(row["n_failed"] for row in rows)
    print(
        f"{len(records)} replications in {len(rows)} cells; {n_failed} failures; "
        f"wrote {out} and {csv_path}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmr",
        description="Grouped mixture of regressions: simulate, fit, predict, evaluate, select K, benchmark.",
        epilog=(
            "The model has no implicit intercept; append a constant feature "
            "column to the dataset if you want one.  Set GMR_LOG=debug for "
            "verbose diagnostics on stderr."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    em_flags = argparse.ArgumentParser(add_help=False)  # shared by fit and select-k
    em_flags.add_argument("--epsilon", type=float, help="convergence threshold on responsibilities")
    em_flags.add_argument("--max-iter", type=int, help="iteration cap per restart")
    em_flags.add_argument(
        "--restarts",
        type=int,
        dest="n_restarts",  # the EmConfig field, so config keys and flags share names
        metavar="RESTARTS",
        help="independent restarts per fit",
    )
    em_flags.add_argument("--init", choices=get_args(InitStrategy), help="initialization strategy")
    em_flags.add_argument("--seed", type=int, help="RNG seed")

    sim = sub.add_parser("simulate", help="draw a synthetic dataset and its ground truth")
    sim.add_argument("--config", help="JSON file with simulation settings (flags win)")
    sim.add_argument("--n", type=int, help="total observations")
    sim.add_argument("--K", type=int, help="number of clusters")
    sim.add_argument("--p", type=int, help="feature dimension")
    sim.add_argument("--G", type=int, help="groups per cluster")
    sim.add_argument("--sigma", type=float, help="noise standard deviation")
    sim.add_argument("--delta-beta", type=float, help="pairwise coefficient distance")
    sim.add_argument("--wishart-df", type=int, help="design covariance degrees of freedom")
    sim.add_argument("--split", type=float, help="also write train/test CSVs with this hold-out fraction")
    sim.add_argument("--seed", type=int, help="RNG seed")
    sim.add_argument("--out", required=True, help="output directory")

    fit_p = sub.add_parser("fit", parents=[em_flags], help="fit the mixture to a dataset CSV")
    fit_p.add_argument("--config", help="JSON file with EM settings (flags win)")
    fit_p.add_argument("--data", required=True, help="dataset CSV (group,y,x1,...,xp)")
    fit_p.add_argument("--K", type=int, help="number of clusters")
    fit_p.add_argument("--sigma2-floor", type=float, help="minimum noise variance")
    fit_p.add_argument("--ridge", type=float, help="relative ridge for the beta solve")
    fit_p.add_argument("--out", required=True, help="model JSON path")

    pred = sub.add_parser("predict", help="predict a dataset CSV with a fitted model")
    pred.add_argument("--model", required=True, help="model JSON from fit")
    pred.add_argument("--data", required=True, help="dataset CSV to predict")
    pred.add_argument(
        "--fallback",
        choices=["prior", "error"],
        default="prior",
        help="behavior for groups unseen at training time (default: prior weights, flagged)",
    )
    pred.add_argument("--out", required=True, help="predictions CSV path")

    ev = sub.add_parser("evaluate", help="compute metrics from fit artifacts and ground truth")
    ev.add_argument("--model", help="model JSON from fit")
    ev.add_argument("--truth", help="ground-truth JSON from simulate (needs --model)")
    ev.add_argument("--train", help="training dataset CSV, for rmse_train (needs --model)")
    ev.add_argument(
        "--test", help="hold-out dataset CSV, for rmse_test (needs --model; not with --predictions)"
    )
    ev.add_argument(
        "--predictions", help="predictions CSV; its y_true/y_pred give rmse_test (not with --test)"
    )
    ev.add_argument("--seed", type=int, help="seed to record in the metrics")
    ev.add_argument("--out", help="metrics JSON path (default: stdout)")

    sel = sub.add_parser(
        "select-k", parents=[em_flags], help="choose K by repeated hold-out validation"
    )
    sel.add_argument("--data", required=True, help="dataset CSV")
    sel.add_argument("--k-grid", required=True, help="candidates, e.g. '2,3,4' or '2-8'")
    sel.add_argument("--reps", type=int, default=10, help="hold-out repetitions (default 10)")
    sel.add_argument("--test-frac", type=float, default=0.2, help="per-group hold-out fraction")
    sel.add_argument("--out", required=True, help="report JSON path, not *.csv (CSV table beside it)")
    sel.set_defaults(K=1)  # the template K; select_k sets each candidate's

    ben = sub.add_parser("benchmark", help="run a Monte Carlo grid sweep")
    ben.add_argument("--spec", required=True, help="benchmark spec JSON")
    ben.add_argument("--jobs", type=int, default=1, help="worker processes, at least 1 (default 1)")
    ben.add_argument("--seed", type=int, help="override the spec's seed")
    ben.add_argument("--out", required=True, help="JSON-lines path, not *.csv (aggregate CSV beside it)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reuses; a new one per call would be cyclic garbage once parsed."""
    return build_parser()


def main(argv=None) -> int:
    _configure_logging()
    libc = _c_allocator()
    args = _parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]  # per call, so a wrapped cmd_* runs
    try:
        return command(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GmrError, OSError) as exc:
        logger.debug("failure detail", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if libc is not None:
            libc.malloc_trim(0)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
