"""Float settings: a value that is not a finite number is a usage error naming it.

The probe runs every float flag of ``simulate``, ``fit`` and ``select-k``,
and every float field of a ``benchmark --spec``, through in-process `main`
with NaN and both infinities.  Each case must exit 2, name its flag or field,
and write no file.
"""

import json
import logging
from dataclasses import fields

import numpy as np
import pytest

from gmr import BenchmarkSpec, EmConfig, SimConfig, fit, generate
from gmr.cli import build_parser, main

NON_FINITE = ("nan", "inf", "-inf")
COMMANDS = ("simulate", "fit", "select-k")


def _float_flags(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    return [(a.option_strings[0], a.dest) for a in sub._actions if a.type is float]


FLAG_CASES = [(c, *flag) for c in COMMANDS for flag in _float_flags(c)]
SPEC_FIELDS = [f.name for f in fields(BenchmarkSpec) if "float" in str(f.type)]


def test_the_probe_sees_every_float_setting():
    assert [(c, f) for c, f, _ in FLAG_CASES] == [
        ("simulate", "--sigma"), ("simulate", "--delta-beta"), ("simulate", "--split"),
        ("fit", "--epsilon"), ("fit", "--sigma2-floor"), ("fit", "--ridge"),
        ("select-k", "--epsilon"), ("select-k", "--test-frac"),
    ]
    assert SPEC_FIELDS == ["sigma", "delta_beta", "test_frac", "epsilon"]


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert main(["simulate", "--n", "60", "--K", "2", "--p", "2", "--G", "5", "--sigma", "1",
                 "--delta-beta", "6", "--seed", "0", "--out", str(out)]) == 0
    return out / "dataset.csv"


def _files(directory):
    return [p for p in directory.rglob("*") if p.is_file()]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("command, flag, dest", FLAG_CASES)
def test_non_finite_float_flag_is_a_usage_error(data_csv, tmp_path, capsys, command, flag, dest,
                                                value):
    out = tmp_path / "out"
    base = {
        "simulate": ["--n", "60", "--K", "2", "--p", "2", "--G", "5", "--sigma", "1",
                     "--delta-beta", "6", "--seed", "0", "--out", str(out)],
        "fit": ["--data", str(data_csv), "--K", "2", "--seed", "0", "--out", str(out / "m.json")],
        "select-k": ["--data", str(data_csv), "--k-grid", "2", "--reps", "1", "--seed", "0",
                     "--out", str(out / "report.json")],
    }[command]
    capsys.readouterr()
    assert main([command, *base, f"{flag}={value}"]) == 2  # the last value of a flag wins
    err = capsys.readouterr().err
    assert err.startswith("error: ") and (flag in err or dest in err), err
    assert _files(out) == []


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("field", SPEC_FIELDS)
def test_non_finite_spec_field_is_a_usage_error(tmp_path, capsys, field, value):
    doc = {"K": 2, "p": 2, "G": 4, "n": 60, "sigma": 1.0, "delta_beta": 8.0, "n_reps": 1,
           "restarts": 1, "seed": 13}
    doc[field] = [1.0, float(value)] if field in ("sigma", "delta_beta") else float(value)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))  # NaN and Infinity, which Python's json reads back
    out = tmp_path / "out"
    assert main(["benchmark", "--spec", str(spec), "--out", str(out / "results.jsonl")]) == 2
    assert capsys.readouterr().err == f"error: {field} must be finite, got {float(value)}\n"
    assert _files(out) == []


@pytest.mark.parametrize(
    "cls, base, field",
    [
        (EmConfig, {"K": 2}, "epsilon"),
        (EmConfig, {"K": 2}, "ridge"),
        (EmConfig, {"K": 2}, "sigma2_floor"),
        (SimConfig, {"n": 60, "K": 2, "p": 2, "G": 5, "sigma": 1.0, "delta_beta": 6.0}, "sigma"),
        (SimConfig, {"n": 60, "K": 2, "p": 2, "G": 5, "sigma": 1.0, "delta_beta": 6.0},
         "delta_beta"),
    ],
)
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, np.float32("nan")])
def test_settings_refuse_non_finite_floats(cls, base, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        cls(**{**base, field: value})


def test_integer_settings_beyond_the_float_range_are_refused():
    assert EmConfig(K=2, ridge=10**308).ridge == 10**308
    with pytest.raises(ValueError, match="^ridge must be finite, got 1000"):
        EmConfig(K=2, ridge=10**309)  # a JSON integer literal can be this large


def test_a_variance_floor_above_the_responses_variance_warns(caplog):
    d, _ = generate(SimConfig(n=60, K=2, p=2, G=5, sigma=1.0, delta_beta=6.0, seed=0))
    var_y = float(np.var(d.responses))
    with caplog.at_level(logging.WARNING, logger="gmr.em"):
        fit(d, EmConfig(K=2, n_restarts=1, seed=0, sigma2_floor=var_y / 2))
        assert caplog.messages == []
        res = fit(d, EmConfig(K=2, n_restarts=1, seed=0, sigma2_floor=1e300))
    assert caplog.messages == [f"sigma2_floor=1e+300 exceeds the responses' variance {var_y:g}"]
    assert (res.params.sigma2 == 1e300).all()
