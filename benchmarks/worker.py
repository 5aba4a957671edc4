"""One workload run, or one set-up probe, in a fresh interpreter.

    python3 benchmarks/worker.py setup WORKLOAD SEED
    python3 benchmarks/worker.py run WORKLOAD SEED TRACE OUT_DIR

Prints one JSON record as its last line.  `run.py` starts it with
krylovchain's source on PYTHONPATH; nothing here imports krylovchain at
module level, so the set-up probe times the package import itself.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_metrics, load_spans
from workloads import WORKLOADS, Checks

ROOT = Path(__file__).resolve().parent.parent


def setup_probe(name, seed):
    t0 = time.perf_counter()
    WORKLOADS[name].setup(ROOT, seed)
    setup_s = time.perf_counter() - t0
    # every workload's set-up imports krylovchain, which imports all three
    versions = {m: sys.modules[m].__version__ for m in ("numpy", "scipy", "mpmath")}
    return {"setup_s": setup_s, "versions": versions}


def _cpu_s():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_once(wl, seed, trace, out_dir):
    """Set up, then time one run from the first call into krylovchain to the checked outputs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = wl.setup(ROOT, seed)
    tracer = None
    if trace and wl.in_process:
        tracer = Tracer()
        tracer.install()
    checks = Checks()
    extra = {}
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    try:
        extra = wl.run(inputs, out_dir, checks, trace)
    except Exception as exc:  # a failed operation is reported, not fatal
        traceback.print_exc()
        checks.check("workload raised no exception", False, repr(exc))
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    rss_kb = max(resource.getrusage(who).ru_maxrss
                 for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_kb / 1024.0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "checks": checks.results,
        "facts": {k: v for k, v in extra.items() if k != "span_files"},
    }
    if trace:
        spans = (tracer.spans if tracer else []) + load_spans(extra.get("span_files", []))
        (out_dir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
        record["layers"] = layer_metrics(spans, wall, extra.get("jobs"))
    return record


def main(argv):
    if argv[0] == "setup":
        record = setup_probe(argv[1], int(argv[2]))
    else:
        record = run_once(WORKLOADS[argv[1]], int(argv[2]), argv[3] == "1", argv[4])
    print(json.dumps(record, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
