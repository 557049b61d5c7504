"""File formats: dataset CSV, model JSON, truth JSON, predictions CSV, reports."""

import json
import random
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

import gmr.io
from gmr import EmConfig, SimConfig, fit, generate, predict_groups, select_k
from gmr.io import (
    FormatError,
    read_dataset_csv,
    read_model_json,
    read_predictions_csv,
    read_truth_json,
    write_dataset_csv,
    write_model_json,
    write_predictions_csv,
    write_truth_json,
    write_selection_report,
)


@pytest.fixture
def sim(tmp_path):
    cfg = SimConfig(n=80, K=2, p=2, G=2, sigma=1.0, delta_beta=6.0, seed=0)
    d, truth = generate(cfg)
    return tmp_path, cfg, d, truth


def test_dataset_round_trip(sim):
    tmp, _, d, _ = sim
    path = tmp / "data.csv"
    write_dataset_csv(d, path)
    back = read_dataset_csv(path)
    assert back.group_ids == d.group_ids
    assert (back.stacked[0] == d.stacked[0]).all()
    assert (back.stacked[1] == d.stacked[1]).all()
    header = path.read_text().splitlines()[0]
    assert header == "group,y,x1,x2"


def test_dataset_write_is_byte_stable(sim):
    tmp, _, d, _ = sim
    write_dataset_csv(d, tmp / "a.csv")
    write_dataset_csv(d, tmp / "b.csv")
    assert (tmp / "a.csv").read_bytes() == (tmp / "b.csv").read_bytes()


def test_dataset_groups_ordered_by_first_appearance(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(
        "group,y,x1\n"
        "b,1.0,2.0\n"
        "a,2.0,3.0\n"
        "b,3.0,4.0\n"
    )
    d = read_dataset_csv(path)
    assert d.group_ids == ("b", "a")
    assert d.groups[0].responses.tolist() == [1.0, 3.0]
    assert d.groups[1].responses.tolist() == [2.0]


def test_dataset_read_rejects_bad_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,y,x1\na,1.0,2.0\n")
    with pytest.raises(FormatError):
        read_dataset_csv(path)


def test_dataset_read_rejects_non_numeric_cell(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("group,y,x1\na,1.0,oops\n")
    with pytest.raises(FormatError, match="line 2|:2"):
        read_dataset_csv(path)


def test_dataset_read_rejects_empty_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("")
    with pytest.raises(FormatError):
        read_dataset_csv(path)


def test_dataset_read_rejects_ragged_row(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("group,y,x1,x2\na,1.0,2.0\n")
    with pytest.raises(FormatError):
        read_dataset_csv(path)


def test_model_round_trip(sim):
    tmp, _, d, _ = sim
    res = fit(d, EmConfig(K=2, seed=1))
    path = tmp / "model.json"
    write_model_json(res, path)
    back = read_model_json(path)
    assert back.params.K == res.params.K
    assert (back.params.pi == res.params.pi).all()
    assert (back.params.beta == res.params.beta).all()
    assert (back.params.sigma2 == res.params.sigma2).all()
    assert (back.tau.tau == res.tau.tau).all()
    assert back.group_ids == res.group_ids
    assert back.log_likelihood == res.log_likelihood
    assert back.n_iter == res.n_iter
    assert back.converged == res.converged
    assert back.ll_trace is None

    doc = json.loads(path.read_text())
    assert list(doc)[:6] == ["K", "p", "pi", "beta", "sigma2", "group_posteriors"]
    assert len(doc["beta"]) == 2 and len(doc["beta"][0]) == 2


def test_model_read_rejects_garbage(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("[]")
    with pytest.raises(FormatError):
        read_model_json(path)
    path.write_text('{"K": 2}')
    with pytest.raises(FormatError):
        read_model_json(path)


@pytest.mark.parametrize(
    "kind, field, value, message",
    [
        ("model", "group_posteriors", [], "'list' object has no attribute 'values'"),
        ("model", "pi", "x", "could not convert string to float: 'x'"),
        ("model", "beta", [[1.0], [1.0, 2.0]], "setting an array element with a sequence"),
        ("model", "n_iter", "x", "invalid literal for int() with base 10: 'x'"),
        ("truth", "config", [], "argument after ** must be a mapping"),
        ("truth", "labels", "x", "invalid literal for int() with base 10: 'x'"),
    ],
)
def test_malformed_json_fields_raise_format_error_naming_the_file(
    sim, kind, field, value, message
):
    tmp, cfg, d, truth = sim
    path = tmp / f"{kind}.json"
    if kind == "model":
        write_model_json(fit(d, EmConfig(K=2, n_restarts=1, seed=1)), path)
    else:
        write_truth_json(truth, cfg, path)
    read = read_model_json if kind == "model" else read_truth_json
    read(path)  # the untouched file reads
    doc = json.loads(path.read_text())
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: .*{re.escape(message)}"):
        read(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("group_posteriors", [0.5, 0.25, 0.25], "group_posteriors rows have 3 entries, pi has 2"),
        ("K", 5, "K=5, p=2 disagree with pi and beta (K=2, p=2)"),
        ("p", 9, "K=2, p=9 disagree with pi and beta (K=2, p=2)"),
    ],
)
def test_model_json_that_contradicts_itself_raises_format_error(sim, field, value, message):
    tmp, _, d, _ = sim
    path = tmp / "model.json"
    write_model_json(fit(d, EmConfig(K=2, n_restarts=1, seed=1)), path)
    doc = json.loads(path.read_text())
    if field == "group_posteriors":
        value = dict.fromkeys(doc["group_posteriors"], value)  # every row 3 wide
    doc[field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        read_model_json(path)


def test_truth_round_trip(sim):
    tmp, cfg, _, truth = sim
    path = tmp / "truth.json"
    write_truth_json(truth, cfg, path)
    back_truth, back_cfg = read_truth_json(path)
    assert (back_truth.beta_true == truth.beta_true).all()
    assert (back_truth.labels == truth.labels).all()
    assert (back_truth.sigma_true == truth.sigma_true).all()
    assert (back_truth.Sigma_x == truth.Sigma_x).all()
    assert back_cfg == cfg


def test_predictions_round_trip(sim):
    tmp, _, d, _ = sim
    res = fit(d, EmConfig(K=2, seed=2))
    preds = predict_groups(res, d, on_unknown="error")
    path = tmp / "preds.csv"
    write_predictions_csv(preds, path)
    cols = read_predictions_csv(path)
    assert cols["group"].tolist() == list(preds.group)
    assert (cols["y_true"] == preds.y_true).all()
    assert (cols["y_pred"] == preds.y_pred).all()
    assert (cols["log_density"] == preds.log_density).all()
    assert (cols["used_fallback"] == preds.used_fallback).all()
    header = path.read_text().splitlines()[0]
    assert header == "group,y_true,y_pred,log_density,used_fallback"


def test_selection_report_files(sim):
    tmp, _, d, _ = sim
    report = select_k(d, [1, 2], cfg=EmConfig(K=1, n_restarts=2), n_reps=2, seed=3)
    jp, cp = tmp / "report.json", tmp / "report.csv"
    write_selection_report(report, jp, cp)
    doc = json.loads(jp.read_text())
    assert doc["k_grid"] == [1, 2]
    assert doc["best_k"] == report.best_k
    assert doc["best_mixture_k"] == report.best_mixture_k
    assert set(doc["rmse_by_k"]) == {"0", "1", "2"}
    lines = cp.read_text().splitlines()
    assert lines[0] == "K,mean_rmse,sd_rmse"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]


def test_table_writer_bytes(tmp_path):
    path = tmp_path / "table.csv"
    rows = [[3, 0.1 + 0.2, -0.0, None], [0, 1.0, 5e-324, 2]]
    gmr.io._write_table_csv(["K", "x", "y", "z"], rows, path)
    assert path.read_bytes() == b"K,x,y,z\n3,0.30000000000000004,-0.0,\n0,1.0,5e-324,2\n"


def test_float_repr_precision_survives_round_trip(tmp_path):
    from gmr import Group, GroupedDataset

    value = 0.1 + 0.2  # not exactly representable in decimal
    d = GroupedDataset((Group("g", [value], [[np.pi]]),))
    path = tmp_path / "data.csv"
    write_dataset_csv(d, path)
    back = read_dataset_csv(path)
    assert back.groups[0].responses[0] == value
    assert back.groups[0].features[0, 0] == np.pi


# The CSV contract: quoting, blank lines, float spellings and every error, on
# inputs that generated files never contain.

ODD_IDS = ["", "a,b", 'q"r', "#x", " lead", "é", "a\nb"]
PRED_HEADER = "group,y_true,y_pred,log_density,used_fallback\n"


def _csv_file(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode())  # exact bytes: no newline translation
    return path


def _same_float(got, want):
    return float(got).hex() == want.hex()  # tells -0.0 from 0.0; every nan is "nan"


def test_dataset_read_odd_ids(tmp_path):
    path = _csv_file(
        tmp_path,
        'group,y,x1\n,1,2\n"a,b",3,4\n"q""r",5,6\n#x,7,8\n lead,9,10\n'
        'é,11,12\n"a\nb",13,14\n,15,16\n',
    )
    d = read_dataset_csv(path)
    assert d.group_ids == tuple(ODD_IDS)
    assert [g.responses.tolist() for g in d.groups] == [
        [1.0, 15.0], [3.0], [5.0], [7.0], [9.0], [11.0], [13.0]
    ]
    assert d.groups[0].features.tolist() == [[2.0], [16.0]]
    assert d.groups[6].features.tolist() == [[14.0]]


def test_dataset_read_keeps_file_order_within_interleaved_groups(tmp_path):
    rng = np.random.default_rng(4)
    ids = [f"g{k}" for k in rng.integers(0, 7, size=400)]
    rows = {}
    lines = ["group,y,x1"]
    for i, gid in enumerate(ids):
        rows.setdefault(gid, []).append(float(i))
        lines.append(f"{gid},{i},{-i}")
    d = read_dataset_csv(_csv_file(tmp_path, "\n".join(lines) + "\n"))
    assert d.group_ids == tuple(rows)
    assert [g.responses.tolist() for g in d.groups] == list(rows.values())
    assert [(-g.features[:, 0]).tolist() for g in d.groups] == list(rows.values())

def test_dataset_read_skips_blank_lines_and_reads_crlf(tmp_path):
    lf = _csv_file(tmp_path, "group,y,x1\n\na,1,2\n\n\nb,3,4\n\n", "lf.csv")
    crlf = _csv_file(tmp_path, "group,y,x1\r\na,1,2\r\n\r\nb,3,4\r\n", "crlf.csv")
    for path in (lf, crlf):
        d = read_dataset_csv(path)
        assert d.group_ids == ("a", "b")
        assert d.stacked[0].tolist() == [1.0, 3.0]
        assert d.stacked[1].tolist() == [[2.0], [4.0]]


def test_dataset_read_header_only_gives_no_groups(tmp_path):
    assert read_dataset_csv(_csv_file(tmp_path, "group,y,x1\n\n")).R == 0


@pytest.mark.parametrize(
    "cell", ["1_0", " 1.5", "1e500", "١", '"2.5"', "-0.0", "5e-324", "-inf", "nan", "1.5\t"]
)
def test_dataset_read_cells_parse_as_float_does(tmp_path, cell):
    path = _csv_file(tmp_path, f"group,y,x1\na,0,{cell}\n")
    want = float(cell.strip('"'))
    assert _same_float(read_dataset_csv(path).groups[0].features[0, 0], want)


@pytest.mark.parametrize(
    "line, got", [("a,1,2,3", 4), ("a,1", 2), (" ", 1), ("\t", 1), ('""', 1), (",", 2)]
)
def test_dataset_read_wrong_width_names_file_line_and_counts(tmp_path, line, got):
    path = _csv_file(tmp_path, f"group,y,x1\na,1,2\n\n{line}\nb,3,4\n")
    with pytest.raises(FormatError) as exc:
        read_dataset_csv(path)
    assert str(exc.value) == f"{path}:4: expected 3 columns, got {got}"


@pytest.mark.parametrize("cell", ["oops", "", "0x10", "1 2", "1\x1c", "nan(1)", "1e"])
def test_dataset_read_non_number_names_line_and_cell(tmp_path, cell):
    path = _csv_file(tmp_path, f"group,y,x1\na,1,2\nb,3,{cell}\n")
    with pytest.raises(FormatError) as exc:
        read_dataset_csv(path)
    assert str(exc.value) == f"{path}:3: {cell!r} is not a number"


def test_dataset_read_reports_the_first_offending_line(tmp_path):
    path = _csv_file(tmp_path, "group,y,x1\na,1,2\nb,x,2\nc,1\n")
    with pytest.raises(FormatError, match=r":3: 'x' is not a number$"):
        read_dataset_csv(path)
    path = _csv_file(tmp_path, "group,y,x1\na,1,2\nc,1\nb,x,2\n")
    with pytest.raises(FormatError, match=r":3: expected 3 columns, got 2$"):
        read_dataset_csv(path)


def test_predictions_read_contract(tmp_path):
    path = _csv_file(
        tmp_path,
        PRED_HEADER + '"a,b",1,2,-3,0\n\n#x, 1.5,1_0,-inf,1\r\n"q""r",1e500,-0.0,5e-324, 1\n',
    )
    cols = read_predictions_csv(path)
    assert cols["group"].tolist() == ["a,b", "#x", 'q"r']
    assert cols["y_true"].tolist() == [1.0, 1.5, float("inf")]
    assert cols["y_pred"].tolist() == [2.0, 10.0, -0.0]
    assert np.signbit(cols["y_pred"][2])
    assert cols["log_density"].tolist() == [-3.0, -np.inf, 5e-324]
    assert cols["used_fallback"].tolist() == [False, True, True]


def test_predictions_read_errors(tmp_path):
    path = _csv_file(tmp_path, "group,y_true,y_pred,log_density\n")
    with pytest.raises(FormatError) as exc:
        read_predictions_csv(path)
    assert str(exc.value) == (
        f"{path}: expected header ['group', 'y_true', 'y_pred', 'log_density', "
        "'used_fallback'], got ['group', 'y_true', 'y_pred', 'log_density']"
    )
    for line, got in (("a,1,2,3,0,0", 6), ("a,1,2,3", 4), (" ", 1)):
        path = _csv_file(tmp_path, PRED_HEADER + f"a,1,2,3,0\n{line}\n")
        with pytest.raises(FormatError) as exc:
            read_predictions_csv(path)
        assert str(exc.value) == f"{path}:3: expected 5 columns, got {got}"
    path = _csv_file(tmp_path, PRED_HEADER + "a,1,oops,3,0\n")
    with pytest.raises(FormatError) as exc:
        read_predictions_csv(path)
    assert str(exc.value) == f"{path}:2: 'oops' is not a number"
    path = _csv_file(tmp_path, PRED_HEADER + "a,1,2,3,yes\n")
    with pytest.raises(FormatError) as exc:
        read_predictions_csv(path)
    assert str(exc.value) == f"{path}:2: 'yes' is not an integer"


# Written by the cell-by-cell csv.writer loop that preceded the bulk writer.
GOLDEN_DATASET = (
    b"group,y,x1,x2\n"
    b",-0.0,5e-324,1e+300\n"
    b",5e-324,1e+300,0.30000000000000004\n"
    b'"a,b",5e-324,1e+300,0.30000000000000004\n'
    b'"a,b",1e+300,0.30000000000000004,-0.0\n'
    b'"q""r",1e+300,0.30000000000000004,-0.0\n'
    b'"q""r",0.30000000000000004,-0.0,5e-324\n'
    b"#x,0.30000000000000004,-0.0,5e-324\n"
    b"#x,-0.0,5e-324,1e+300\n"
    b" lead,-0.0,5e-324,1e+300\n"
    b" lead,5e-324,1e+300,0.30000000000000004\n"
    b"\xc3\xa9,5e-324,1e+300,0.30000000000000004\n"
    b"\xc3\xa9,1e+300,0.30000000000000004,-0.0\n"
    b'"a\nb",1e+300,0.30000000000000004,-0.0\n'
    b'"a\nb",0.30000000000000004,-0.0,5e-324\n'
)
GOLDEN_PREDICTIONS = (
    b"group,y_true,y_pred,log_density,used_fallback\n"
    b'"a,b",-0.0,5e-324,1e+300,0\n'
    b'"a,b",0.30000000000000004,-1.5,-inf,1\n'
    b",1e+300,0.30000000000000004,nan,1\n"
    b'"q""r",5e-324,-0.0,2.0,0\n'
    b"#x,1.0,1.0,1.0,0\n"
    b"#x,-2.0,3.0,-4.0,0\n"
)


def test_writers_golden_bytes(tmp_path):
    from gmr import Group, GroupedDataset
    from gmr.predict import GroupPredictions

    values = [-0.0, 5e-324, 1e300, 0.1 + 0.2]
    groups = []
    for i, gid in enumerate(ODD_IDS):
        rows = [[values[(i + j + c) % 4] for c in range(3)] for j in range(2)]
        groups.append(Group(gid, [r[0] for r in rows], [r[1:] for r in rows]))
    path = tmp_path / "data.csv"
    write_dataset_csv(GroupedDataset(tuple(groups)), path)
    assert path.read_bytes() == GOLDEN_DATASET
    back = read_dataset_csv(path)
    assert back.group_ids == tuple(ODD_IDS)
    for g, h in zip(groups, back.groups):
        assert np.array_equal(g.responses, h.responses)
        assert np.array_equal(np.signbit(g.responses), np.signbit(h.responses))
        assert np.array_equal(g.features, h.features)

    preds = GroupPredictions(
        group=("a,b", "a,b", "", 'q"r', "#x", "#x"),
        y_true=np.array([-0.0, 0.1 + 0.2, 1e300, 5e-324, 1.0, -2.0]),
        y_pred=np.array([5e-324, -1.5, 0.1 + 0.2, -0.0, 1.0, 3.0]),
        log_density=np.array([1e300, -np.inf, np.nan, 2.0, 1.0, -4.0]),
        used_fallback=np.array([False, True, True, False, False, False]),
    )
    path = tmp_path / "preds.csv"
    write_predictions_csv(preds, path)
    assert path.read_bytes() == GOLDEN_PREDICTIONS
    cols = read_predictions_csv(path)
    assert cols["group"].tolist() == list(preds.group)
    assert cols["used_fallback"].tolist() == preds.used_fallback.tolist()


def test_writers_write_nothing_for_empty_blocks(tmp_path):
    from gmr import Group, GroupedDataset
    from gmr.predict import GroupPredictions

    d = GroupedDataset((Group("a", [], np.empty((0, 1))), Group("b", [1.0], [[2.0]])))
    write_dataset_csv(d, tmp_path / "data.csv")
    assert (tmp_path / "data.csv").read_bytes() == b"group,y,x1\nb,1.0,2.0\n"
    none = np.array([])
    preds = GroupPredictions((), none, none, none, np.array([], dtype=bool))
    write_predictions_csv(preds, tmp_path / "preds.csv")
    assert (tmp_path / "preds.csv").read_bytes() == PRED_HEADER.encode()
    cols = read_predictions_csv(tmp_path / "preds.csv")
    assert all(len(col) == 0 for col in cols.values())


def test_writers_quote_ids_holding_carriage_returns(tmp_path, monkeypatch):
    from gmr import Group, GroupedDataset
    from gmr.predict import GroupPredictions

    ids = ["a\rb", "\r", "a\r\nb"]
    d = GroupedDataset(tuple(Group(gid, [float(i)], [[-float(i)]]) for i, gid in enumerate(ids)))
    data = tmp_path / "data.csv"
    write_dataset_csv(d, data)
    assert data.read_bytes() == (
        b'group,y,x1\n"a\rb",0.0,-0.0\n"\r",1.0,-1.0\n"a\r\nb",2.0,-2.0\n'
    )
    preds = GroupPredictions(
        group=tuple(ids),
        y_true=np.array([1.0, 2.0, 3.0]),
        y_pred=np.array([4.0, 5.0, 6.0]),
        log_density=np.array([-1.0, -2.0, -3.0]),
        used_fallback=np.array([False, True, False]),
    )
    pred_path = tmp_path / "preds.csv"
    write_predictions_csv(preds, pred_path)
    assert pred_path.read_bytes() == PRED_HEADER.encode() + (
        b'"a\rb",1.0,4.0,-1.0,0\n"\r",2.0,5.0,-2.0,1\n"a\r\nb",3.0,6.0,-3.0,0\n'
    )

    real_bulk_rows, parsed = gmr.io._bulk_rows, []

    def spy(fh, fields):
        table = real_bulk_rows(fh, fields)
        parsed.append(table is not None)
        return table

    for read, path in ((read_dataset_csv, data), (read_predictions_csv, pred_path)):
        with monkeypatch.context() as m:
            m.setattr(gmr.io, "_bulk_rows", spy)
            bulk = _read_outcome(read, path)
            m.setattr(gmr.io, "_bulk_rows", lambda fh, fields: None)
            assert _read_outcome(read, path) == bulk
    assert parsed == [True, True]  # the bulk parse read both files
    assert read_dataset_csv(data).group_ids == tuple(ids)
    assert [g.responses.tolist() for g in read_dataset_csv(data).groups] == [[0.0], [1.0], [2.0]]
    cols = read_predictions_csv(pred_path)
    assert cols["group"].tolist() == ids
    assert cols["used_fallback"].tolist() == [False, True, False]


def _read_outcome(read, path):
    try:
        result = read(path)
    except Exception as exc:  # the outcome compared is the error itself
        return type(exc), str(exc)
    if isinstance(result, dict):
        return [(k, v.dtype.str, v.tolist() if v.dtype == object else v.tobytes())
                for k, v in result.items()]
    return [(g.id, g.responses.tobytes(), g.features.tobytes(), g.features.shape)
            for g in result.groups]


def test_bulk_parse_agrees_with_cell_by_cell_parse_on_mangled_files(tmp_path, monkeypatch):
    # Each file is read through the bulk codec and again with the bulk parse
    # switched off, so the cell-by-cell loop reads it alone.
    pieces = [",", ",", '"', "\n", "\r", "\r\n", " ", "\t", "#", "_", "١", "é", "\x1c",
              "\x00", "\x85", "\u3000", "inf", "nan", "e", ".", "-", "1", "a"]
    rng = random.Random(20261018)
    real_bulk_rows, parsed = gmr.io._bulk_rows, []

    def spy(fh, fields):
        table = real_bulk_rows(fh, fields)
        parsed.append(table is not None)
        return table

    for i in range(600):
        dataset = i % 2 == 0
        read = read_dataset_csv if dataset else read_predictions_csv
        width = 3 if dataset else 5
        lines = []
        for _ in range(rng.randint(0, 4)):
            cells = [rng.choice(["a", "", "b1"])] + [rng.choice(["1", "-2.5", "1e3"])
                                                     for _ in range(width - 2)]
            line = ",".join(cells + [rng.choice(["0", "1"])])
            for _ in range(rng.randint(0, 2)):
                at = rng.randint(0, len(line))
                line = line[:at] + rng.choice(pieces) + line[at + rng.randint(0, 1):]
            lines.append(line + rng.choice(["\n", "\r\n", ""]))
        header = "group,y,x1\n" if dataset else PRED_HEADER
        path = _csv_file(tmp_path, header + "".join(lines), f"f{i}.csv")
        with monkeypatch.context() as m:
            m.setattr(gmr.io, "_bulk_rows", spy)
            bulk = _read_outcome(read, path)
            m.setattr(gmr.io, "_bulk_rows", lambda fh, fields: None)
            assert _read_outcome(read, path) == bulk, repr(path.read_text())
    assert sum(parsed) > 150  # the bulk parse took many of the files


def test_truth_json_fractional_labels_raise_format_error_naming_the_file(sim):
    tmp, cfg, _, truth = sim
    path = tmp / "truth.json"
    write_truth_json(truth, cfg, path)
    doc = json.loads(path.read_text())
    doc["labels"] = [label + 0.9 for label in doc["labels"]]  # not truncated back to the truth
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: labels must be integers')}"):
        read_truth_json(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("labels", 5, "labels must be a non-empty list in 0..1, the columns of beta_true"),
        ("labels", -1, "labels must be a non-empty list in 0..1, the columns of beta_true"),
        ("labels", [], "labels must be a non-empty list in 0..1, the columns of beta_true"),
        ("labels", [[0, 1]], "labels must be a non-empty list in 0..1, the columns of beta_true"),
        ("beta_true", [1.0, 2.0], "labels must be a non-empty list in 0..-1, the columns of beta_true"),
    ],
)
def test_truth_json_labels_outside_its_clusters_raise_format_error(sim, field, value, message):
    tmp, cfg, _, truth = sim
    path = tmp / "truth.json"
    write_truth_json(truth, cfg, path)
    doc = json.loads(path.read_text())
    doc[field] = [value] + doc["labels"][1:] if isinstance(value, int) else value
    path.write_text(json.dumps(doc))
    with pytest.raises(FormatError, match=f"^{re.escape(f'{path}: {message}')}$"):
        read_truth_json(path)


def test_files_that_are_not_utf8_raise_format_error_naming_the_file(sim):
    tmp, cfg, d, truth = sim
    csv_path, model_path, truth_path = tmp / "d.csv", tmp / "model.json", tmp / "truth.json"
    write_dataset_csv(d, csv_path)
    write_model_json(fit(d, EmConfig(K=2, n_restarts=1, seed=1)), model_path)
    write_truth_json(truth, cfg, truth_path)
    lines = csv_path.read_bytes().split(b"\n")
    lines[2] += b"\xff"  # a bad byte in line 3
    csv_path.write_bytes(b"\n".join(lines))
    late = tmp / "late.csv"  # the bad byte lies past the first chunk the reader decodes
    late.write_bytes(b"group,y,x1\n" + b"a,1.0,2.0\n" * 2000 + b"b\xff,1.0,2.0\n")
    preds = tmp / "preds.csv"
    preds.write_bytes(b"group,y_true,y_pred,log_density,used_fallback\n\xc3,1,1,0,0\n")
    for read, path in [(read_dataset_csv, csv_path), (read_dataset_csv, late),
                       (read_predictions_csv, preds)]:
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: not UTF-8 text"):
            read(path)
    for read, path in [(read_model_json, model_path), (read_truth_json, truth_path)]:
        path.write_bytes(path.read_bytes().replace(b'"', b'"\xfe', 1))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: invalid JSON"):
            read(path)


def test_files_csv_or_json_cannot_parse_raise_format_error_naming_the_file(sim):
    tmp, cfg, d, truth = sim
    wide = "x" * (1 << 18)  # past csv's default field size limit of 128 KiB
    head, row = tmp / "head.csv", tmp / "row.csv"
    head.write_text(f"group,y,x1{wide}\na,1.0,2.0\n")
    row.write_text(f"group,y,x1\na,1.0,2.0\nb,1.0,{wide}\n")  # the bulk parse gives up
    for path in (head, row):
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: field larger than"):
            read_dataset_csv(path)
    deep = tmp / "deep.json"
    deep.write_text("[" * 100_000)
    for read in (read_model_json, read_truth_json):
        with pytest.raises(FormatError, match=f"^{re.escape(str(deep))}: invalid JSON"):
            read(deep)
