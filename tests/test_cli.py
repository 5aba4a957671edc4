"""End-to-end CLI behavior: artifacts, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from xml.etree import ElementTree

import numpy as np
import pytest

from krylovchain import cli
from krylovchain.observables import ObservableSeries
from krylovchain.outputs import load_series, write_series_csv, write_series_json


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "krylovchain.cli", *args],
        capture_output=True,
        text=True,
    )


def write_config(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


BASE_EVOLVE = {
    "family": {"kind": "syk_like", "alpha": 1.0, "eta": 1.0},
    "evolve": {"t_max": 2.0, "samples": 20},
}


def test_evolve_writes_series_and_manifest(tmp_path):
    cfg = write_config(tmp_path / "c.json", BASE_EVOLVE)
    out = tmp_path / "out"
    r = run_cli("evolve", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    names = sorted(p.name for p in out.iterdir())
    assert names == ["manifest.json", "series.csv", "series.json"]
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == "t,c_k,s_k,phi0,norm_error,active_size"
    assert len(lines) == 22  # header + 21 samples
    # manifest checksums cover both artifacts
    manifest = json.loads((out / "manifest.json").read_text())
    assert {e["path"] for e in manifest["outputs"]} == {"series.csv", "series.json"}
    assert all(len(e["sha256"]) == 64 for e in manifest["outputs"])
    # round trip through the loader
    series = load_series(out / "series.csv")
    assert series.c_k[-1] == pytest.approx(math.sinh(2.0) ** 2, rel=1e-5)
    series_j = load_series(out / "series.json")
    assert series_j.c_k == series.c_k


def test_evolve_deterministic_and_parallel_equivalent(tmp_path):
    doc = {
        "family": {"kind": "syk_like", "alpha": 1.0, "eta": 1.0},
        "evolve": {"t_max": 1.5, "samples": 12},
        "sweep": {"family.eta": [0.5, 1.0, 2.0]},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    outs = []
    for sub, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / sub
        r = run_cli("evolve", "--config", cfg, "--out", str(out), "--jobs", jobs)
        assert r.returncode == 0, r.stderr
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "manifest.json")
    assert len(names) == 6  # 3 sweep points x (csv + json)
    for other in outs[1:]:
        for name in names:
            assert (outs[0] / name).read_bytes() == (other / name).read_bytes()


def test_fit_reports_and_exit_codes(tmp_path):
    doc = {
        "family": {"kind": "syk_like", "alpha": 1.0, "eta": 1.0},
        "evolve": {"t_max": 5.3, "samples": 100},
        "fit": {"c_min": 10.0, "bound_tol": 0.05},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    r = run_cli("evolve", "--config", cfg, "--out", str(out))
    assert r.returncode == 0, r.stderr
    fits = tmp_path / "fits"
    r = run_cli("fit", str(out / "series.json"), "--config", cfg, "--out", str(fits))
    assert r.returncode == 0, r.stderr
    report = json.loads((fits / "series_fit.json").read_text())
    assert set(report) == {
        "eta_tilde",
        "intercept",
        "lnln_coefficient",
        "window",
        "rms_residual",
        "samples",
    }
    assert report["eta_tilde"] == pytest.approx(1.0, abs=0.05)
    svg = (fits / "series_fit.svg").read_text()
    assert svg.startswith("<svg") and "ln C_K" in svg and "S_K" in svg
    assert "stroke-dasharray" in svg  # fitted line is dashed


def test_fit_window_error_exit_2(tmp_path):
    doc = dict(BASE_EVOLVE)
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    run_cli("evolve", "--config", cfg, "--out", str(out))
    r = run_cli(
        "fit",
        str(out / "series.json"),
        "--config",
        write_config(tmp_path / "f.json", {"fit": {"c_min": 1e6}}),
        "--out",
        str(tmp_path / "fits"),
    )
    assert r.returncode == 2


def test_fit_bound_violation_exit_3(tmp_path):
    # synthetic series with slope 1.3 must flag the bound
    n = 40
    c = np.geomspace(2.0, 1e4, n)
    doc = {
        "times": list(np.linspace(1.0, 4.0, n)),
        "c_k": list(c),
        "s_k": list(1.3 * np.log(c)),
        "phi0": [0.0] * n,
        "norm_error": [0.0] * n,
        "active_size": [100] * n,
    }
    series_path = tmp_path / "synthetic.json"
    series_path.write_text(json.dumps(doc))
    r = run_cli(
        "fit",
        str(series_path),
        "--config",
        write_config(tmp_path / "f.json", {"fit": {"c_min": 2.0}}),
        "--out",
        str(tmp_path / "fits"),
    )
    assert r.returncode == 3


def test_schema_error_exit_2_with_pointer(tmp_path):
    cfg = write_config(tmp_path / "c.json", {**BASE_EVOLVE, "bogus": 1})
    r = run_cli("evolve", "--config", cfg, "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert "/bogus" in r.stderr


@pytest.mark.parametrize(
    "doc,pointer",
    [
        ({**BASE_EVOLVE, "sweep": {"family.eta": [1.0, -1.0]}}, "/sweep/family.eta"),
        (
            {**BASE_EVOLVE, "evolve": {"t_max": 1.0, "sample_times": [0.4, 0.2]}},
            "/evolve/sample_times",
        ),
        ({**BASE_EVOLVE, "family": {"kind": "su2", "alpha": 1.0, "j": 0.3}}, "/family/j"),
        (
            {**BASE_EVOLVE, "family": {"kind": "spectral_model", "nu": 0.5, "omega0": 1.0}},
            "/family/nu",
        ),
        # b_1 = alpha + gamma = -1
        ({**BASE_EVOLVE, "family": {"kind": "linear", "alpha": 1, "gamma": -2}}, "/family"),
        # b_1 = ln(1) = 0
        ({**BASE_EVOLVE, "family": {"kind": "log_growth", "alpha": 1, "offset": 0}}, "/family"),
        # b_1 = 1 / ln(1) = inf
        (
            {**BASE_EVOLVE, "family": {"kind": "log_corrected_linear", "alpha": 1, "offset": 0}},
            "/family",
        ),
        # b_1 = alpha sqrt(eta) overflows
        ({**BASE_EVOLVE, "family": {"kind": "syk_like", "alpha": 1e308, "eta": 1e308}}, "/family"),
        (
            {**BASE_EVOLVE, "family": {"kind": "power_log", "alpha": 1, "delta": 0.5, "sign": True}},
            "/family/sign",
        ),
        ({**BASE_EVOLVE, "evolve": {"t_max": 1.0, "sample_times": []}}, "/evolve/sample_times"),
        (
            {**BASE_EVOLVE, "evolve": {"t_max": 1.0, "sample_times": [], "method": "rk45"}},
            "/evolve/sample_times",
        ),
        ({**BASE_EVOLVE, "evolve": {"t_max": 5.0, "samples": 1, "grid": "log"}}, "/evolve/samples"),
        # t_max bounds the run: no sample time may lie past it
        ({**BASE_EVOLVE, "evolve": {"t_max": 1.0, "sample_times": [0, 3]}}, "/evolve/sample_times"),
        # sample times the clock cannot tell apart
        ({**BASE_EVOLVE, "evolve": {"t_max": 1e-12}}, "at /evolve: "),
        (
            {**BASE_EVOLVE, "evolve": {"t_max": 1.0, "grid": "log", "log_decades": 400}},
            "/evolve/log_decades",
        ),
        (
            {**BASE_EVOLVE, "evolve": {"t_max": 1.0, "sample_times": [0.5, 0.5 + 1e-13]}},
            "/evolve/sample_times",
        ),
    ],
    ids=[
        "swept_eta",
        "decreasing_sample_times",
        "su2_fractional_j",
        "spectral_fractional_nu",
        "linear_negative_b1",
        "log_growth_zero_b1",
        "log_corrected_linear_infinite_b1",
        "syk_like_overflowing_b1",
        "power_log_bool_sign",
        "empty_sample_times_cayley4",
        "empty_sample_times_rk45",
        "log_grid_one_sample",
        "sample_time_past_t_max",
        "uniform_grid_finer_than_clock",
        "log_grid_first_time_underflows",
        "sample_times_finer_than_clock",
    ],
)
def test_invalid_values_exit_2_before_running(tmp_path, doc, pointer):
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "o"
    r = run_cli("evolve", "--config", cfg, "--out", str(out))
    assert r.returncode == 2
    assert pointer in r.stderr
    assert "Traceback" not in r.stderr
    assert not out.exists()  # rejected before any point ran


def test_moments_roundtrip_and_invalid_exit_4(tmp_path):
    cfg = write_config(
        tmp_path / "m.json",
        {"moments": {"direction": "to_lanczos", "values": [1, 1, 2, 5, 14], "count": 4}},
    )
    r = run_cli("moments", "--config", cfg, "--out", str(tmp_path / "m"))
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "m" / "moments_report.json").read_text())
    assert set(report) == {
        "direction",
        "arithmetic",
        "coefficients",
        "b_squared",
        "round_trip_residual",
    }
    assert report["coefficients"] == [1.0, 1.0, 1.0, 1.0]
    assert report["round_trip_residual"] == 0.0
    assert report["arithmetic"] == "exact"

    bad = write_config(
        tmp_path / "bad.json",
        {"moments": {"direction": "to_lanczos", "values": [1, 1, 0.5], "count": 2}},
    )
    r = run_cli("moments", "--config", bad, "--out", str(tmp_path / "bad"))
    assert r.returncode == 4
    assert "order 2" in r.stderr
    report = json.loads((tmp_path / "bad" / "moments_report.json").read_text())
    assert report == {"error": r.stderr.strip(), "failing_order": 2}


def test_moments_to_moments_direction(tmp_path):
    cfg = write_config(
        tmp_path / "m.json",
        {"moments": {"direction": "to_moments", "values": [1.0], "count": 2}},
    )
    r = run_cli("moments", "--config", cfg, "--out", str(tmp_path / "m"))
    assert r.returncode == 0
    report = json.loads((tmp_path / "m" / "moments_report.json").read_text())
    assert set(report) == {"direction", "arithmetic", "moments", "round_trip_residual"}
    assert report["moments"] == [1.0, 1.0, 1.0]


def test_wnumber_command(tmp_path):
    cfg = write_config(
        tmp_path / "w.json",
        {"family": {"kind": "syk_like", "alpha": 1.0, "eta": 1.0}, "wnumber": {"depth": 4000}},
    )
    r = run_cli("wnumber", "--config", cfg, "--out", str(tmp_path / "w"))
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "w" / "wnumber_report.json").read_text())
    assert set(report) == {"verdict", "value", "reason", "partial_products", "cf_trace"}
    assert report["verdict"] == "finite"
    assert report["value"] == pytest.approx(math.pi / 2, abs=1e-6)


def test_modes_command(tmp_path):
    cfg = write_config(
        tmp_path / "mod.json", {"family": {"kind": "explicit", "coefficients": [1.0, 1.0]}}
    )
    r = run_cli("modes", "--config", cfg, "--out", str(tmp_path / "mod"))
    assert r.returncode == 0, r.stderr
    report = json.loads((tmp_path / "mod" / "modes_report.json").read_text())
    assert set(report) == {"zero_mode_weight", "modes", "impulses", "provenance"}
    assert report["zero_mode_weight"] == pytest.approx(0.5, abs=1e-12)
    assert report["modes"][0][0] == pytest.approx(math.sqrt(2), rel=1e-12)
    assert len(report["impulses"]) == 3


def test_resource_limit_exit_5_with_partial_results(tmp_path):
    doc = {
        "family": {"kind": "syk_like", "alpha": 1.0, "eta": 1.0},
        "evolve": {"t_max": 6.0, "samples": 30, "max_active_size": 64},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    out = tmp_path / "out"
    r = run_cli("evolve", "--config", cfg, "--out", str(out))
    assert r.returncode == 5
    assert "resource limit" in r.stderr
    series = load_series(out / "series.csv")  # partial results written
    assert 0 < len(series) < 31


@pytest.mark.parametrize("method", ["cayley6", "rk45"])
@pytest.mark.parametrize("b", [1e20, 1e300])
def test_step_floor_exit_5_with_partial_results(tmp_path, b, method):
    # every step the rule allows is below the step floor: the t = 0 row is
    # written and the run ends like one that hits the window cap
    doc = {
        "family": {"kind": "constant", "b": b},
        "evolve": {"t_max": 1, "samples": 2, "method": method},
    }
    out = tmp_path / "out"
    r = run_cli("evolve", "--config", write_config(tmp_path / "c.json", doc), "--out", str(out))
    assert r.returncode == 5
    assert r.stderr.count("step size underflow at t=0 ") == 1 and "Traceback" not in r.stderr
    assert (out / "series.csv").read_text().splitlines() == [
        "t,c_k,s_k,phi0,norm_error,active_size",
        "0.0,0.0,0.0,1.0,0.0,16",
    ]


# a config that has every section some subcommand requires
ALL_SECTIONS = {
    "family": {"kind": "explicit", "coefficients": [1.0]},
    "evolve": {"t_max": 1.0},
    "moments": {"direction": "to_lanczos", "values": [1, 1]},
}


@pytest.mark.parametrize(
    "command,section",
    [(name, section) for name, (_, _, requires) in cli._COMMANDS.items() for section in requires],
)
def test_missing_required_section_exit_2(tmp_path, capsys, command, section):
    doc = {k: v for k, v in ALL_SECTIONS.items() if k != section}
    out = tmp_path / "o"
    assert cli.main([command, "--config", write_config(tmp_path / "c.json", doc), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"config error at /{section}: required for {command}\n"
    assert not out.exists()


def test_csv_float_format_round_trips(tmp_path):
    cfg = write_config(tmp_path / "c.json", BASE_EVOLVE)
    out = tmp_path / "out"
    run_cli("evolve", "--config", cfg, "--out", str(out))
    csv_series = load_series(out / "series.csv")
    json_series = load_series(out / "series.json")
    assert csv_series == json_series  # all six columns: the repr round trip is lossless


SERIES = {
    "times": [0.0, 1.0],
    "c_k": [0.0, 1.0],
    "s_k": [0.0, 0.5],
    "phi0": [1.0, 0.5],
    "norm_error": [0.0, 0.0],
    "active_size": [16, 16],
}


@pytest.mark.parametrize(
    "name,text",
    [
        ("nope.json", None),
        ("bad.json", "{not json"),
        ("bad.json", json.dumps({k: v for k, v in SERIES.items() if k != "c_k"})),
        ("bad.json", json.dumps({**SERIES, "s_k": [0.0]})),
        ("bad.csv", "time,c_k,s_k,phi0,norm_error,active_size\n0.0,0.0,0.0,1.0,0.0,16\n"),
        ("bad.json", json.dumps({**SERIES, "times": [1.0, 0.5]})),
    ],
    ids=[
        "missing_file",
        "invalid_json",
        "missing_column",
        "unequal_columns",
        "wrong_csv_header",
        "times_not_increasing",
    ],
)
def test_missing_series_artifact_exit_2(tmp_path, name, text):
    if text is not None:
        (tmp_path / name).write_text(text, encoding="utf-8")
    r = run_cli("fit", str(tmp_path / name), "--out", str(tmp_path / "f"))
    assert r.returncode == 2
    assert name in r.stderr
    assert "Traceback" not in r.stderr


_C = np.geomspace(2.0, 1e4, 40)
# S_K = ln C_K over C_K in [2, 1e4]: fits with c_min = 2
FITTABLE = {
    "times": list(np.linspace(1.0, 4.0, len(_C))),
    "c_k": list(_C),
    "s_k": list(np.log(_C)),
    "phi0": [0.0] * len(_C),
    "norm_error": [0.0] * len(_C),
    "active_size": [100] * len(_C),
}


@pytest.mark.parametrize("later", ["nope.json", "small.json"], ids=["missing_file", "window_error"])
def test_fit_failure_leaves_no_partial_artifacts(tmp_path, later):
    # a bad later argument fails the command before the earlier one's report is written
    (tmp_path / "good.json").write_text(json.dumps(FITTABLE), encoding="utf-8")
    (tmp_path / "small.json").write_text(json.dumps(SERIES), encoding="utf-8")  # C_K < c_min
    cfg = write_config(tmp_path / "f.json", {"fit": {"c_min": 2.0}})
    out = tmp_path / "fits"
    series = [str(tmp_path / "good.json"), str(tmp_path / later)]
    r = run_cli("fit", *series, "--config", cfg, "--out", str(out))
    assert r.returncode == 2
    assert later in r.stderr
    assert "Traceback" not in r.stderr
    assert list(out.glob("*_fit.*")) == [] and not (out / "manifest.json").exists()


@pytest.mark.parametrize(
    "names",
    [("r1/series.json", "r2/series.json"), ("r/series.json", "r/series.csv")],
    ids=["two_runs", "json_and_csv"],
)
def test_fit_rejects_colliding_stems(tmp_path, names):
    # both would write series_fit.json and series_fit.svg: nothing is written
    series = ObservableSeries(*(tuple(v) for v in FITTABLE.values()))
    for name in names:
        path = tmp_path / name
        path.parent.mkdir(exist_ok=True)
        (write_series_csv if path.suffix == ".csv" else write_series_json)(path, series)
    cfg = write_config(tmp_path / "f.json", {"fit": {"c_min": 2.0}})
    out = tmp_path / "fits"
    r = run_cli("fit", *(str(tmp_path / n) for n in names), "--config", cfg, "--out", str(out))
    assert r.returncode == 2
    assert names[1] in r.stderr and "Traceback" not in r.stderr
    assert list(out.glob("*_fit.*")) == [] and not (out / "manifest.json").exists()
    # each alone fits
    assert run_cli("fit", str(tmp_path / names[1]), "--config", cfg, "--out", str(out)).returncode == 0


def test_fit_plot_title_is_escaped(tmp_path):
    # the title is the series' stem, which may hold XML markup characters
    (tmp_path / "a&b<c.json").write_text(json.dumps(FITTABLE), encoding="utf-8")
    cfg = write_config(tmp_path / "f.json", {"fit": {"c_min": 2.0}})
    r = run_cli("fit", str(tmp_path / "a&b<c.json"), "--config", cfg, "--out", str(tmp_path / "f"))
    assert r.returncode == 0, r.stderr
    root = ElementTree.parse(tmp_path / "f" / "a&b<c_fit.svg").getroot()
    assert "a&b<c" in [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]


@pytest.mark.parametrize(
    "name",
    ["a\x01b.json", os.fsdecode(b"a\xffb.json")],
    ids=["c0_control", "not_utf8"],
)
def test_fit_plot_title_replaces_non_xml_characters(tmp_path, name):
    # a control character is not an XML 1.0 character, and a name that is not
    # UTF-8 stems to a lone surrogate; both become U+FFFD in the title.  A
    # strict stdout, as under a UTF-8 locale, must still print the report path
    (tmp_path / name).write_text(json.dumps(FITTABLE), encoding="utf-8")
    cfg = write_config(tmp_path / "f.json", {"fit": {"c_min": 2.0}})
    r = subprocess.run(
        [sys.executable, "-m", "krylovchain.cli", "fit", str(tmp_path / name), "--config", cfg,
         "--out", str(tmp_path / "f")],
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
    )
    assert r.returncode == 0, r.stderr.decode(errors="replace")
    root = ElementTree.parse(tmp_path / "f" / (name[:-5] + "_fit.svg")).getroot()
    assert "a\ufffdb" in [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert (tmp_path / "f" / "manifest.json").exists()


@pytest.mark.parametrize(
    "moments,code,fragment",
    [
        ({"direction": "to_lanczos", "values": [1, 1, 2], "count": 3}, 2, "/moments/count"),
        ({"direction": "to_lanczos", "values": [2, 1, 2]}, 2, "/moments/values"),
        (
            {"direction": "to_lanczos", "values": [1, 1e308, 1e308], "arithmetic": "double"},
            4,
            "order 2",
        ),
        ({"direction": "to_moments", "values": [1e200], "count": 3}, 4, "order 1"),
        # to_moments is exact whatever the input
        (
            {"direction": "to_moments", "values": [1.0], "arithmetic": "exact"},
            2,
            "/moments/arithmetic",
        ),
    ],
    ids=[
        "count_past_values",
        "mu0_not_one",
        "double_precision_exhausted",
        "to_moments_overflow",
        "to_moments_arithmetic",
    ],
)
def test_moments_config_exit_codes(tmp_path, moments, code, fragment):
    cfg = write_config(tmp_path / "m.json", {"moments": moments})
    r = run_cli("moments", "--config", cfg, "--out", str(tmp_path / "m"))
    assert r.returncode == code
    assert fragment in r.stderr
    assert "Traceback" not in r.stderr
    if code == 4:  # the same report an invalid sequence gets
        report = json.loads((tmp_path / "m" / "moments_report.json").read_text())
        assert set(report) == {"error", "failing_order"}
