"""Spans around the calls into krylovchain's layers, recorded from outside.

`Tracer.install()` rebinds public functions of the package to wrappers
that record one span per call: name, start, end, parent span, process id
and a few counts.  No module under `src/` changes.  Spans are kept in
memory; `dump` writes them out when the traced process ends.  Forked
sweep workers inherit the wrappers and ship their spans back to the
parent as one file per sweep point (`Tracer.ship_dir`).

`layer_metrics` turns the spans of one traced workload run into the
per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# Counters that must repeat exactly between traced runs of one commit.
EXACT_COUNTERS = (
    "evolve.steps",
    "evolve.factorizations",
    "evolve.site_steps",
    "evolve.peak_window",
    "sequences.sites",
    "observables.sites",
    "moments.calls",
    "outputs.bytes",
)


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, pid, counts)
        self.ship_dir = None
        self._stack = []
        self._next = 0

    def call(self, name, fn, args, kwargs, count=None):
        """Run fn(*args, **kwargs) as one span; `count(args, result)` gives its counts."""
        self._next += 1
        sid = f"{os.getpid()}:{self._next}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
        # a call that raised (the generator's closing StopIteration too) leaves no span
        self.spans.append((sid, name, start, end, parent, os.getpid(),
                           count(args, result) if count else None))
        return result

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        return traced

    def wrap_generator(self, name, fn):
        """One span per next(): the time spent inside the generator."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            first = {"starts": 1}
            while True:
                try:
                    item = self.call(name, next, (gen,), {}, lambda a, r: first)
                except StopIteration:
                    return
                first = None
                yield item

        return traced

    def wrap_point(self, fn):
        """Sweep-point worker: record the point's spans and ship them as a file.

        Runs in a forked pool worker, so the inherited stack still holds the
        parent process's open `cli.evolve` span, which becomes the parent.
        """

        @functools.wraps(fn)
        def traced(task):
            self.spans = []
            try:
                return self.call("cli.point", fn, (task,), {})
            finally:
                self.dump(Path(self.ship_dir) / f"point-{os.getpid()}-{task[3]}.json")

        return traced

    def dump(self, path):
        Path(path).write_text(json.dumps([list(s) for s in self.spans]), encoding="utf-8")

    def install(self):
        """Rebind krylovchain's public functions to traced wrappers."""
        import krylovchain
        import krylovchain.cli as cli
        import krylovchain.config as config
        import krylovchain.fitting as fitting
        import krylovchain.moments as moments
        import krylovchain.observables as observables
        import krylovchain.sequences as sequences
        import krylovchain.wnumber as wnumber

        # the package attribute `evolve` is the function, which shadows the module
        evolve_mod = sys.modules["krylovchain.evolve"]
        evolve_mod.lapack = _LapackProxy(
            evolve_mod.lapack,
            dgttrf=self.wrap("lapack.dgttrf", evolve_mod.lapack.dgttrf, _count_factor),
            dgttrs=self.wrap("lapack.dgttrs", evolve_mod.lapack.dgttrs, _count_solve),
        )
        sequences.LanczosSequence.b_array = self.wrap(
            "sequences.b_array", sequences.LanczosSequence.b_array, _count_b_array
        )

        def rebind(modules, attr, name, count=None):
            original = getattr(modules[0], attr)
            traced = self.wrap(name, original, count)
            for mod in modules:
                setattr(mod, attr, traced)

        traced_evolve = self.wrap_generator("evolve", evolve_mod.evolve)
        krylovchain.evolve = cli.evolve = traced_evolve
        for attr in ("complexity", "entropy"):
            rebind((observables, cli), attr, f"observables.{attr}", _count_state)
        rebind((wnumber,), "relaxation_phi0", "observables.relaxation_phi0")
        for attr in ("moments_to_lanczos", "lanczos_to_moments", "lanczos_from_hankel"):
            mods = [krylovchain, moments] + [
                m for m in (krylovchain.closedforms, cli) if hasattr(m, attr)
            ]
            rebind(mods, attr, f"moments.{attr}")
        rebind((config,), "spectral_model_sequence", "closedforms.spectral_model_sequence")
        rebind((krylovchain, wnumber), "w_number", "wnumber.w_number")
        rebind((krylovchain, fitting), "default_window", "fitting.default_window")
        for attr in ("fit_log_relation", "select_window"):
            rebind((krylovchain, fitting, cli), attr, f"fitting.{attr}")
        for attr in ("parse_config", "sweep_points", "apply_sweep_point",
                     "build_sequence", "build_evolve_config"):
            rebind((cli,), attr, f"config.{attr}")
        for attr in ("write_series_csv", "write_series_json", "write_fit_report", "write_fit_plot"):
            rebind((cli,), attr, f"outputs.{attr}", _count_written)
        # the manifest carries a timestamp, so its size is not an exact count
        rebind((cli,), "write_manifest", "outputs.write_manifest")
        cli._run_one_point = self.wrap_point(cli._run_one_point)


class _LapackProxy:
    """scipy's lapack module with some routines replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _count_factor(args, result):
    return {"n": len(args[1])}


def _count_solve(args, result):
    dl, d, du, du2, ipiv, rhs = args
    n = len(d)
    # computed bytes: the four factor bands, pivots, right-hand side in and solution out
    moved = 8 * (len(dl) + n + len(du) + len(du2) + 2 * n) + ipiv.itemsize * len(ipiv)
    return {"n": n, "bytes": moved}


def _count_b_array(args, result):
    return {"n": int(args[1])}


def _count_state(args, result):
    return {"n": len(args[0].amplitudes)}


def _count_written(args, result):
    return {"bytes": Path(args[0]).stat().st_size}


def load_spans(paths):
    spans = []
    for p in paths:
        spans += [tuple(s) for s in json.loads(Path(p).read_text(encoding="utf-8"))]
    return spans


def _self_times(spans):
    """Span duration minus the time its direct children (same process) cover."""
    child_time = {}
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None and parent.split(":")[0] == sid.split(":")[0]:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    return {sid: (end - start) - child_time.get(sid, 0.0) for sid, _, start, end, *_ in spans}


def _union_length(intervals):
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans, traced_wall_s, jobs=None):
    """Per-layer metrics of one traced workload run.

    Times are summed span durations, except `*_self_s`,
    `evolve.step_other_s`, `fitting.time_s` and `config.time_s`, which sum
    self times so that nested calls count once.  Counts are exact.
    `trace.coverage` is the share of the traced wall during which some
    layer span was open in some process: for one process that is the sum
    of layer self times over the wall, and overlapping worker time is
    counted once.
    """
    selft = _self_times(spans)
    total, self_total, calls, counts, peak = {}, {}, {}, {}, {}
    for sid, name, start, end, _, _, c in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        self_total[name] = self_total.get(name, 0.0) + selft[sid]
        calls[name] = calls.get(name, 0) + 1
        for key, v in (c or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + v
            peak[(name, key)] = max(peak.get((name, key), 0), v)

    def t(*names):
        return sum(total.get(n, 0.0) for n in names)

    def st(*names):
        return sum(self_total.get(n, 0.0) for n in names)

    def n(name):
        return calls.get(name, 0)

    def c(name, key):
        return counts.get((name, key), 0)

    steps = n("lapack.dgttrs")
    factorizations = n("lapack.dgttrf")
    evolve_ids = {s[0] for s in spans if s[1] == "evolve"}
    b_array_in_evolve = sum(1 for s in spans if s[1] == "sequences.b_array" and s[4] in evolve_ids)
    points = [end - start for _, name, start, end, *_ in spans if name == "cli.point"]
    main_wall = t("cli.evolve")
    moment_fns = ("moments.moments_to_lanczos", "moments.lanczos_to_moments",
                  "moments.lanczos_from_hankel")
    metrics = {
        "evolve.steps": steps,
        "evolve.factorizations": factorizations,
        "evolve.factor_cache_hit_ratio": 1.0 - factorizations / steps if steps else 0.0,
        "evolve.site_steps": c("lapack.dgttrs", "n"),
        "evolve.solve_mb_computed": c("lapack.dgttrs", "bytes") / 1e6,
        "evolve.solve_s": t("lapack.dgttrs"),
        "evolve.factor_s": t("lapack.dgttrf"),
        "evolve.time_s": t("evolve"),
        "evolve.step_other_s": st("evolve"),
        "evolve.peak_window": peak.get(("lapack.dgttrs", "n"), 0),
        # every evolve evaluates b once when it opens its window; later calls are regrowths
        "evolve.window_resizes": b_array_in_evolve - c("evolve", "starts"),
        "sequences.b_array_s": t("sequences.b_array"),
        "sequences.sites": c("sequences.b_array", "n"),
        "observables.reduce_s": t("observables.complexity", "observables.entropy"),
        "observables.sites": c("observables.complexity", "n") + c("observables.entropy", "n"),
        "observables.cf_s": t("observables.relaxation_phi0"),
        "observables.cf_calls": n("observables.relaxation_phi0"),
        "moments.to_lanczos_s": t("moments.moments_to_lanczos"),
        "moments.to_moments_s": t("moments.lanczos_to_moments"),
        "moments.hankel_s": t("moments.lanczos_from_hankel"),
        "moments.calls": sum(n(f) for f in moment_fns),
        "closedforms.spectral_sequence_self_s": st("closedforms.spectral_model_sequence"),
        "wnumber.time_s": t("wnumber.w_number"),
        "fitting.time_s": st("fitting.default_window", "fitting.select_window",
                             "fitting.fit_log_relation"),
        "outputs.time_s": sum(v for k, v in total.items() if k.startswith("outputs.")),
        "outputs.bytes": sum(v for (k, key), v in counts.items()
                             if k.startswith("outputs.") and key == "bytes"),
        "config.time_s": sum(v for k, v in self_total.items() if k.startswith("config.")),
        "cli.pool_efficiency": sum(points) / (jobs * main_wall) if main_wall and jobs else 0.0,
        "cli.point_s_max": max(points, default=0.0),
        "trace.coverage": _union_length([(s[2], s[3]) for s in spans]) / traced_wall_s,
    }
    return metrics

