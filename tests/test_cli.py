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
        # sample times closer than ten step floors (1e-12 t): 1000 samples to a
        # subnormal t_max, which is only ~200 floats above 0
        ({**BASE_EVOLVE, "evolve": {"t_max": 1e-321, "samples": 1000}}, "at /evolve: "),
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


def test_wnumber_on_an_overflowing_coupling_exit_5_without_report(tmp_path):
    # b_2 = 2e308 is inf: no report, and one message that names b_2
    cfg = write_config(tmp_path / "w.json", {"family": {"kind": "linear", "alpha": 1e308, "gamma": 1}})
    r = run_cli("wnumber", "--config", cfg, "--out", str(tmp_path / "w"))
    assert r.returncode == 5
    assert r.stderr == "coupling b_2 = inf is not finite: the continued fraction needs b_1..b_20002\n"
    assert not (tmp_path / "w" / "wnumber_report.json").exists()


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


def test_modes_on_a_family_without_explicit_coefficients_exit_2(tmp_path):
    cfg = write_config(tmp_path / "mod.json", {"family": {"kind": "syk_like", "alpha": 1.0, "eta": 1.0}})
    out = tmp_path / "mod"
    r = run_cli("modes", "--config", cfg, "--out", str(out))
    assert r.returncode == 2
    assert "modes needs an explicit family" in r.stderr and "Traceback" not in r.stderr
    assert not (out / "modes_report.json").exists()


def test_overflowing_coupling_exit_5_with_partial_results(tmp_path):
    # b_2 = 2e308 is inf: the t = 0 row is written and the message names b_2
    doc = {"family": {"kind": "linear", "alpha": 1e308, "gamma": 1}, "evolve": {"t_max": 1, "samples": 2}}
    out = tmp_path / "out"
    r = run_cli("evolve", "--config", write_config(tmp_path / "c.json", doc), "--out", str(out))
    assert r.returncode == 5
    assert r.stderr == "coupling b_2 = inf is not finite: the window cannot grow past site 1\n"
    assert (out / "series.csv").read_text().splitlines() == [
        "t,c_k,s_k,phi0,norm_error,active_size",
        "0.0,0.0,0.0,1.0,0.0,2",
    ]


def test_tolerances_below_float64_epsilon_exit_2(tmp_path):
    doc = {"family": {"kind": "constant", "b": 1}, "evolve": {"t_max": 1, "rel_tol": 1e-20, "abs_tol": 1e-20}}
    r = run_cli("evolve", "--config", write_config(tmp_path / "c.json", doc), "--out", str(tmp_path / "o"))
    assert r.returncode == 2
    assert r.stderr == (
        "config error at /evolve: expected abs_tol + rel_tol >= 2.220446049250313e-16, the float64 epsilon\n"
    )


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
    assert "Warning" not in r.stderr
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


def _reports(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "manifest.json"}


def test_fit_and_wnumber_defaults_are_declared_once(tmp_path, capsys):
    # leaving a section out, giving it empty and spelling out its defaults
    # are one and the same run
    cfg = write_config(tmp_path / "c.json", {**BASE_EVOLVE, "evolve": {"t_max": 5.3, "samples": 100}})
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    series = str(tmp_path / "s" / "series.json")
    runs = []
    for name, section in (
        (None, None), ("empty", {}), ("spelled", {"c_min": 50, "bound_tol": 0, "weighting": "logc"})
    ):
        args = ["fit", series, "--out", str(tmp_path / f"fit_{name}")]
        if name is not None:
            args += ["--config", write_config(tmp_path / f"{name}.json", {"fit": section})]
        runs.append((cli.main(args), _reports(tmp_path / f"fit_{name}")))
    assert runs[0][1] and runs[1] == runs[0] and runs[2] == runs[0]
    family = BASE_EVOLVE["family"]
    reports = []
    for name, section in (("empty", {}), ("spelled", {"depth": 20000, "tol": 1e-7})):
        cfg = write_config(tmp_path / f"w_{name}.json", {"family": family, "wnumber": section})
        assert cli.main(["wnumber", "--config", cfg, "--out", str(tmp_path / f"w_{name}")]) == 0
        reports.append(_reports(tmp_path / f"w_{name}"))
    assert reports[0] and reports[1] == reports[0]


def test_library_defaults_match_the_subcommands(tmp_path, capsys):
    # default_window + fit_log_relation and w_number, called with their own
    # defaults, write the reports that `fit` and `wnumber` write without a
    # section
    from dataclasses import asdict

    from krylovchain import SykLike, default_window, fit_log_relation, w_number
    from krylovchain.outputs import write_fit_report, write_json

    cfg = write_config(tmp_path / "c.json", {**BASE_EVOLVE, "evolve": {"t_max": 5.3, "samples": 100}})
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "s")]) == 0
    series_path = tmp_path / "s" / "series.json"
    assert cli.main(["fit", str(series_path), "--out", str(tmp_path / "fit")]) == 0
    series = load_series(series_path)
    write_fit_report(tmp_path / "lib_fit.json", fit_log_relation(series, default_window(series)))
    assert (tmp_path / "lib_fit.json").read_bytes() == (tmp_path / "fit" / "series_fit.json").read_bytes()
    w_cfg = write_config(tmp_path / "w.json", {"family": BASE_EVOLVE["family"]})
    assert cli.main(["wnumber", "--config", w_cfg, "--out", str(tmp_path / "w")]) == 0
    write_json(tmp_path / "lib_w.json", asdict(w_number(SykLike(1.0, 1.0))))
    assert (tmp_path / "lib_w.json").read_bytes() == (tmp_path / "w" / "wnumber_report.json").read_bytes()


class _SerialPool:
    """Stands in for ProcessPoolExecutor: records each max_workers and the point
    indices in the order it receives them, and maps in this process."""

    def __init__(self):
        self.max_workers = []
        self.received = []

    def __call__(self, max_workers):
        self.max_workers.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.received += [task[3] for task in tasks]
        return map(fn, tasks)


def test_sweep_pool_has_no_more_workers_than_points(tmp_path, monkeypatch, capsys):
    pool = _SerialPool()
    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    doc = {**BASE_EVOLVE, "evolve": {"t_max": 0.5, "samples": 4}, "sweep": {"family.eta": [0.5, 1.0, 2.0]}}
    cfg = write_config(tmp_path / "c.json", doc)
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "100000"]) == 0
    assert pool.max_workers == [3]
    assert len(list((tmp_path / "o").glob("series_*.json"))) == 3


def test_sweep_starts_the_costliest_point_first(tmp_path, monkeypatch, capsys):
    # planned stage solves grow with t_max, so the pool receives the points
    # as 1, 2, 0; paths, the manifest and the series stay in index order
    doc = {**BASE_EVOLVE, "sweep": {"evolve.t_max": [1.0, 3.0, 2.0]}}
    cfg = write_config(tmp_path / "c.json", doc)
    pool = _SerialPool()
    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    out = tmp_path / "o"
    assert cli.main(["evolve", "--config", cfg, "--out", str(out), "--jobs", "2"]) == 0
    assert pool.received == [1, 2, 0]
    names = [
        f"series_{i:03d}_t_max={t}.{ext}" for i, t in enumerate((1.0, 3.0, 2.0)) for ext in ("csv", "json")
    ]
    assert capsys.readouterr().out.splitlines() == [str(out / name) for name in names]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [e["path"] for e in manifest["outputs"]] == names
    for jobs in ("1", "2", "3"):
        r = run_cli("evolve", "--config", cfg, "--out", str(tmp_path / jobs), "--jobs", jobs)
        assert r.returncode == 0, r.stderr
        assert r.stdout.splitlines() == [str(tmp_path / jobs / name) for name in names]
        for name in names:
            assert (tmp_path / jobs / name).read_bytes() == (out / name).read_bytes()


def test_sweep_reports_an_overflowing_point_alike_at_any_jobs(tmp_path, monkeypatch, capsys):
    # the b_2 = inf point has no finite plan, so it ranks last at --jobs 2, and
    # it still ends with exit 5, one message, no numpy warning and its t = 0 row
    doc = {
        "family": {"kind": "linear", "alpha": 1e308, "gamma": 1},
        "evolve": {"t_max": 1, "samples": 2},
        "sweep": {"family.alpha": [1e308, 1.0, 2.0]},
    }
    cfg = write_config(tmp_path / "c.json", doc)
    pool = _SerialPool()
    monkeypatch.setattr(cli, "ProcessPoolExecutor", pool)
    assert cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "serial"), "--jobs", "2"]) == 5
    assert pool.received == [2, 1, 0]
    runs = {j: run_cli("evolve", "--config", cfg, "--out", str(tmp_path / j), "--jobs", j) for j in "12"}
    for r in runs.values():
        assert r.returncode == 5
        assert r.stderr == "coupling b_2 = inf is not finite: the window cannot grow past site 1\n"
    names = sorted(p.name for p in (tmp_path / "1").iterdir() if p.name != "manifest.json")
    assert len(names) == 6
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir() if p.name != "manifest.json")
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
    assert runs["1"].stdout.replace(str(tmp_path / "1"), "") == runs["2"].stdout.replace(str(tmp_path / "2"), "")


@pytest.mark.parametrize("jobs", ["0", "-1", "two"])
def test_jobs_flag_below_one_exit_2(tmp_path, capsys, jobs):
    cfg = write_config(tmp_path / "c.json", BASE_EVOLVE)
    with pytest.raises(SystemExit) as info:
        cli.main(["evolve", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", jobs])
    assert info.value.code == 2
    assert "expected integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
