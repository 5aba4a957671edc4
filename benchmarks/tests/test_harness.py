"""Self-test of the benchmark harness on small inputs (runs in seconds).

    python3 -m pytest benchmarks/tests -q

The small instances below exercise the harness only; their numbers are
never reported as workload results.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracing import EXACT_COUNTERS, layer_metrics  # noqa: E402

SMALL = {
    "spectral_sweep": "SpectralSweep(config='benchmarks/tests/tiny_sweep.json',"
                      " reference_eta=(0.9, 0.91, 0.93), eta_tol=0.05, c_peak_max=100.0)",
    "powerlaw_evolve": "PowerLawEvolve(c_target=200.0, samples=40, reference_eta=0.5,"
                       " eta_tol=0.2, c_min=100.0)",
    "moments_cf": "MomentsCf(count=12, random_sequences=2, hankel_count=6, mp_count=8)",
}
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


def run_small(name, trace, out_dir, workload=None):
    """One worker run of a small instance, in a fresh interpreter like the real runs."""
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from workloads import *\n"
        "from worker import run_once\n"
        f"rec = run_once({workload or SMALL[name]}, 7, {trace}, {str(out_dir)!r})\n"
        "print(json.dumps(rec, default=str))\n"
    )
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_run_passes_checks_and_traces_every_layer(name, tmp_path):
    first = run_small(name, True, tmp_path / "a")
    second = run_small(name, True, tmp_path / "b")
    assert first["failed"] == 0, first["checks"]
    assert first["attempted"] >= 3
    # trace.overhead_s needs an untraced run beside it, so run.py adds it
    assert set(first["layers"]) == set(PER_LAYER) - {"trace.overhead_s"}
    assert {k: first["layers"][k] for k in EXACT_COUNTERS} == {
        k: second["layers"][k] for k in EXACT_COUNTERS}
    assert 0 < first["layers"]["trace.coverage"] <= 1.0


def test_layers_are_attributed_to_the_workload_that_uses_them(tmp_path):
    sweep = run_small("spectral_sweep", True, tmp_path / "s")["layers"]
    moments = run_small("moments_cf", True, tmp_path / "m")["layers"]
    for key in ("evolve.steps", "evolve.factorizations", "outputs.bytes", "observables.sites",
                "closedforms.spectral_sequence_self_s", "config.time_s", "cli.point_s_max"):
        assert sweep[key] > 0, key
    assert 0 < sweep["cli.pool_efficiency"] <= 1.0
    assert sweep["evolve.factorizations"] <= sweep["evolve.steps"]
    assert moments["evolve.steps"] == 0
    assert moments["moments.calls"] == 3 * 5 + 2 * 2
    assert moments["observables.cf_calls"] > 0


def test_failed_check_is_counted(tmp_path):
    rec = run_small("powerlaw_evolve", False, tmp_path,
                    SMALL["powerlaw_evolve"].replace("reference_eta=0.5", "reference_eta=5.0"))
    assert (rec["attempted"], rec["failed"]) == (3, 1)
    assert rec["wall_s"] > 0 and rec["cpu_s"] > 0 and rec["peak_rss_mb"] > 0


def test_self_times_and_coverage():
    spans = [
        ("1:1", "evolve", 0.0, 4.0, None, 1, {"starts": 1}),
        ("1:2", "sequences.b_array", 0.0, 1.0, "1:1", 1, {"n": 10}),
        ("1:3", "lapack.dgttrs", 1.0, 2.0, "1:1", 1, {"n": 10, "bytes": 400}),
        ("1:4", "sequences.b_array", 2.0, 2.5, "1:1", 1, {"n": 15}),
        ("2:1", "cli.point", 3.0, 9.0, "1:9", 2, None),
    ]
    m = layer_metrics(spans, traced_wall_s=10.0, jobs=2)
    assert m["evolve.time_s"] == 4.0
    assert m["evolve.step_other_s"] == 1.5
    assert m["evolve.window_resizes"] == 1
    assert m["sequences.sites"] == 25
    assert m["trace.coverage"] == 0.9
    assert m["cli.point_s_max"] == 6.0


def test_run_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's files, run.py exits non-zero."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "moments_cf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
