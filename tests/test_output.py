"""The shared table and JSON formats, and byte pins for every file writer
against copies of the writers as they were before they shared them."""

import json
import math

import numpy as np
import pytest

from psector import _output
from psector.experiments import (
    ExperimentReport,
    mc_agreement,
    run_exponent_table,
    run_phragmen_check,
)
from psector.measure import MeasureProblem, solve_measure, write_summary_json
from psector.profile import build_profile, write_profile_csv


def reference_profile_csv(prof, path):
    # the original profile writer: one formatted line per sample, joined
    p_str = "inf" if prof.p == math.inf else repr(prof.p)
    lines = [
        f"# nu = {prof.nu!r}",
        f"# p = {p_str}",
        f"# k = {prof.k!r}",
        f"# case = {prof.case}",
        f"# c = {prof.c!r}",
        "phi,theta,f,fprime",
    ]
    for i in range(len(prof.phi)):
        lines.append(
            f"{float(prof.phi[i])!r},{float(prof.theta[i])!r},"
            f"{float(prof.f[i])!r},{float(prof.fprime[i])!r}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _reference_json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _reference_csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def reference_report_json(rep, path):
    # the original ExperimentReport.write_json
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(
            {
                "experiment_id": rep.experiment_id,
                "parameters": rep.parameters,
                "rows": rep.rows,
                "criteria": rep.criteria,
                "provenance": rep.provenance,
                "passed": rep.passed,
            },
            fh,
            indent=2,
            sort_keys=True,
            default=_reference_json_default,
        )
        fh.write("\n")


def reference_report_csv(rep, path):
    # the original ExperimentReport.write_csv
    cols = list(rep.rows[0].keys()) if rep.rows else []
    lines = [f"# experiment = {rep.experiment_id}"]
    for key in sorted(rep.parameters):
        lines.append(f"# {key} = {rep.parameters[key]!r}")
    lines.append(",".join(cols))
    for row in rep.rows:
        lines.append(",".join(_reference_csv_cell(row.get(c)) for c in cols))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def reference_summary_json(solution, path, extra=None):
    # the original write_summary_json
    data = solution.summary()
    if extra:
        data.update(extra)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def assert_same_bytes(tmp_path, write, reference, obj, **kwargs):
    write(obj, tmp_path / "new", **kwargs)
    reference(obj, tmp_path / "ref", **kwargs)
    assert (tmp_path / "new").read_bytes() == (tmp_path / "ref").read_bytes()


@pytest.mark.parametrize("nu, p, n", [
    (1.0, 2.0, 129), (2.0, 3.0, 129), (0.5, math.inf, 129), (2.0, 1.5, 129),
    (1.0, math.inf, 65), (2.0, 3.0, 1025),
], ids=["closed-form", "angle-map", "plateau", "stream", "inf-angle-map", "angle-map-1025"])
def test_profile_csv_bytes(tmp_path, nu, p, n):
    prof = build_profile(nu, p, n)
    assert_same_bytes(tmp_path, write_profile_csv, reference_profile_csv, prof)


@pytest.fixture(scope="module")
def exponent_table():
    return run_exponent_table()


def test_exponent_table_bytes(tmp_path, exponent_table):
    rep = exponent_table
    assert_same_bytes(tmp_path, ExperimentReport.write_csv, reference_report_csv, rep)
    assert_same_bytes(tmp_path, ExperimentReport.write_json, reference_report_json, rep)


def test_report_without_rows_bytes(tmp_path):
    rep = ExperimentReport("empty", {"nu": 2.0, "cases": [[1.0, "inf"]]},
                           provenance={"seed": np.int64(3)})
    rep.check("trivial", np.bool_(True), "detail")
    assert_same_bytes(tmp_path, ExperimentReport.write_csv, reference_report_csv, rep)
    assert (tmp_path / "new").read_text().endswith("# nu = 2.0\n\n")
    assert_same_bytes(tmp_path, ExperimentReport.write_json, reference_report_json, rep)


def test_report_cells_bytes(tmp_path):
    rep = run_phragmen_check(2.0, 3.0)
    rep.rows.append({"R": np.float64(0.1), "M": None, "M_over_Rk": "text"})
    assert_same_bytes(tmp_path, ExperimentReport.write_csv, reference_report_csv, rep)
    assert_same_bytes(tmp_path, ExperimentReport.write_json, reference_report_json, rep)


def test_mc_check_summary_bytes(tmp_path):
    sol = solve_measure(MeasureProblem(nu=1.0, p=2.0, n_r=48, n_phi=49))
    rows, ok = mc_agreement(sol, 2000, 5)
    extra = {"k": 1.0, "slope": 0.98, "slope_window": [0.05, 0.4],
             "mc_agreement": rows, "mc_within_3_sigma": ok, "mc_seed": 5,
             "mc_walks": 2000}
    assert_same_bytes(tmp_path, write_summary_json, reference_summary_json,
                      sol, extra=extra)
    data = json.loads((tmp_path / "new").read_text())
    assert data["radial_spacing"] == "logarithmic"
    assert data["mc_agreement"] == rows


def test_table_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    _output.write_table(path, [("a", "1.5"), ("tag", "x = y")], ["u", "v"],
                        ["1,2\n3,4\n", "", "5,6\n"])
    assert path.read_bytes() == b"# a = 1.5\n# tag = x = y\nu,v\n1,2\n3,4\n5,6\n"
    assert _output.read_table(path) == (
        {"a": "1.5", "tag": "x = y"}, ["u", "v"], [["1", "2"], ["3", "4"], ["5", "6"]])


def test_table_without_rows(tmp_path):
    path = tmp_path / "t.csv"
    _output.write_table(path, [("experiment", "e")], [], [])
    assert path.read_bytes() == b"# experiment = e\n\n"
    assert _output.read_table(path) == ({"experiment": "e"}, [], [])


def test_json_numpy_scalars(tmp_path):
    path = tmp_path / "d.json"
    _output.write_json(path, {"b": np.float64(0.1), "a": [np.int64(2)]})
    assert path.read_bytes() == b'{\n  "a": [\n    2\n  ],\n  "b": 0.1\n}\n'
    with pytest.raises(TypeError):
        _output.write_json(tmp_path / "e.json", {"x": object()})


def test_json_is_strict(tmp_path):
    # a non-finite float, as a failed solve's residual, is written as null,
    # so the file parses without accepting NaN or Infinity
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    path = tmp_path / "d.json"
    _output.write_json(path, {"inf": math.inf, "nan": np.float64(math.nan),
                              "rows": [{"x": -math.inf, "y": 1.5}], "pair": (math.nan, 2)})
    assert json.loads(path.read_text(), parse_constant=refuse) == {
        "inf": None, "nan": None, "rows": [{"x": None, "y": 1.5}], "pair": [None, 2]}
