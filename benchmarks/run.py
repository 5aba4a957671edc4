"""The krylovchain benchmark: one workload, timed end to end or traced by layer.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a krylovchain checkout; it needs nothing installed beyond the
package's dependencies and imports krylovchain from `src/`.  Every
workload run is a fresh worker process (`worker.py`), one at a time.

--trace 0  times `setup_s` in fresh interpreters, then repeats the
           workload for about S seconds (the whole number of runs closest
           to S, at least one) and reports the end-to-end metrics of
           BENCHMARK.json as medians.
--trace 1  does the same with pairs of an untraced and a traced run and
           reports the per-layer metrics of BENCHMARK.json.

Every run's outputs are checked.  Checks that span runs of one source
tree (series bytes, exact counters) compare against the first run's
values kept under .bench_build/benchmarks/.  The last line of standard
output is the JSON result; the full run record is written beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT_COUNTERS
from workloads import WORKLOADS, Checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_build" / "benchmarks"
SETUP_REPEATS = 3
BUDGET_S = 165.0  # each invocation must finish within 180 s
THREAD_ENV_PREFIXES = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "VECLIB_", "NUMEXPR_", "GOTO")


def child(args, env, timeout):
    """Run worker.py in a new process group; on timeout kill the whole group."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=env, cwd=ROOT, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"worker {args[0]} timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        return None, f"worker {args[0]} exit {proc.returncode}: {err[-2000:]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, f"worker {args[0]} printed no record: {out[-500:]} {err[-1500:]}"


def source_info():
    digest = hashlib.sha256()
    lines = 0
    files = sorted((ROOT / "src").rglob("*.py"))
    for p in files:
        data = p.read_bytes()
        digest.update(str(p.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_sha256": digest.hexdigest(), "src_lines": lines, "src_files": len(files)}


def commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return out.stdout.strip() or f"unknown ({out.stderr.strip()})"


def environment(versions, source):
    return {
        "commit": commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **versions,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(THREAD_ENV_PREFIXES)},
        **source,
    }


def repeat_checks(tally, src_sha256, workload, seed, records):
    """Series bytes and exact counters must repeat across runs of one source tree."""
    key = f"{src_sha256[:16]}-{workload}"
    if WORKLOADS[workload].uses_seed:
        key += f"-seed{seed}"
    path = STATE / f"state-{key}.json"
    state = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    digests = [r["facts"]["series_sha256"] for r in records if "series_sha256" in r["facts"]]
    if digests:
        state.setdefault("series_sha256", digests[0])
        tally.check("series bytes identical across repeats",
                    all(d == state["series_sha256"] for d in digests), digests)
    counts = [{k: r["layers"][k] for k in EXACT_COUNTERS} for r in records if "layers" in r]
    if counts:
        state.setdefault("counters", counts[0])
        tally.check("exact counters identical across traced runs",
                    all(c == state["counters"] for c in counts), counts)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(state, indent=1), encoding="utf-8")
    os.replace(tmp, path)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)

    if not (ROOT / "src" / "krylovchain" / "__init__.py").is_file():
        print(f"benchmark: no krylovchain source at {ROOT / 'src'}; run it from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if ns.trace else spec["end_to_end"]

    start = time.perf_counter()
    run_dir = STATE / f"{ns.workload}-seed{ns.seed}-trace{ns.trace}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    tally = Checks()  # every checked operation of this invocation

    def remaining():
        return BUDGET_S - (time.perf_counter() - start)

    probes = []
    for _ in range(SETUP_REPEATS):
        rec, err = child(["setup", ns.workload, str(ns.seed)], env, remaining())
        tally.check("set-up probe", rec is not None, err)
        if rec:
            probes.append(rec)

    runs = {False: [], True: []}
    measure_start = time.perf_counter()
    kinds = (False, True) if ns.trace else (False,)
    longest = 0.0
    k = 0
    while True:
        t_round = time.perf_counter()
        for traced in kinds:
            out_dir = run_dir / f"run{k}-{'traced' if traced else 'plain'}"
            rec, err = child(["run", ns.workload, str(ns.seed), str(int(traced)), str(out_dir)],
                             env, remaining())
            tally.check(f"workload run {k} reports", rec is not None, err)
            if rec:
                tally.results += rec["checks"]
                runs[traced].append(rec)
        k += 1
        last = time.perf_counter() - t_round
        longest = max(longest, last)
        # stop at the whole number of runs whose total is closest to S seconds
        measured = time.perf_counter() - measure_start
        if measured + last / 2 >= ns.seconds or remaining() < 1.3 * longest:
            break
    source = source_info()
    repeat_checks(tally, source["src_sha256"], ns.workload, ns.seed, runs[False] + runs[True])

    failures = [(name, detail) for name, ok, detail in tally.results if not ok]
    if not probes or not runs[False] or (ns.trace and not runs[True]):
        print(f"benchmark: no usable run of {ns.workload}: {failures}", file=sys.stderr)
        return 1
    walls = [r["wall_s"] for r in runs[False]]
    if ns.trace:
        traced_walls = [r["wall_s"] for r in runs[True]]
        values = {m["name"]: statistics.median_low(r["layers"][m["name"]] for r in runs[True])
                  for m in wanted if m["name"] != "trace.overhead_s"}
        values["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(walls)
    else:
        values = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(r["cpu_s"] for r in runs[False]),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs[False]),
            "setup_s": statistics.median(p["setup_s"] for p in probes),
        }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    failed = len(failures)

    wl = WORKLOADS[ns.workload]
    record = {
        "workload": ns.workload,
        "seed": ns.seed,
        "inputs": wl.__doc__.strip() + (
            " Inputs drawn from the seed." if wl.uses_seed
            else " Fixed physics inputs: the seed is recorded but not used."),
        "parameters": vars(wl),
        "trace": ns.trace,
        "seconds": ns.seconds,
        "environment": environment(probes[0]["versions"], source),
        "setup_s_samples": [p["setup_s"] for p in probes],
        "runs": [dict(r, traced=traced) for traced in kinds for r in runs[traced]],
        "fail_ratio": {"failed": failed, "attempted": tally.attempted},
        "failures": failures,
        "metrics": metrics,
        "elapsed_s": time.perf_counter() - start,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1, default=str),
                                         encoding="utf-8")

    print(f"{ns.workload} seed {ns.seed}: {len(walls)} timed and {len(runs[True])} traced "
          f"run(s); record {run_dir.relative_to(ROOT) / 'record.json'}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_ratio':40s} {failed}/{tally.attempted} operations failed")
    for name, detail in failures:
        print(f"  FAILED {name}: {detail[:300]}")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
