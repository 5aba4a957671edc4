"""Batch command-line front end.

Subcommands:

  evolve   run one evolution per sweep point, write series CSV/JSON + manifest
  fit      fit S_K against ln C_K for existing series artifacts, write
           report JSON + SVG plot
  moments  convert between moments and coefficients, write a report
  wnumber  classify the ergodicity indicator W for a family
  modes    mode decomposition of an explicit finite chain

Exit codes: 0 success, 2 usage/window/schema/series-artifact error or
colliding fit stems, 3 bound violation, 4 invalid moments, or precision
exhausted (a double to_lanczos conversion, or a to_moments moment past
the float64 range), 5 resource limit: the window cap, a step below the
step floor, or a coupling b_n past the float64 range (evolve writes the
samples taken so far; wnumber writes no report).
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from . import __version__
from .closedforms import finite_chain_modes
from .config import (
    apply_sweep_point,
    build_evolve_config,
    build_sequence,
    parse_config,
    sweep_points,
)
from .errors import (
    ArtifactError,
    CouplingOverflowError,
    InvalidMomentSequenceError,
    PrecisionExhaustedError,
    ResourceLimitError,
    SchemaError,
    StiffnessError,
    WindowError,
)
from .evolve import evolve, planned_solves
from .fitting import eta_bound_check, fit_log_relation, select_window
from .moments import MomentSequence, lanczos_to_moments, moments_to_lanczos
from .observables import series_from_trajectory, spectral_density_finite
from .outputs import (
    load_series,
    write_fit_plot,
    write_fit_report,
    write_json,
    write_manifest,
    write_series_csv,
    write_series_json,
)
from .wnumber import w_number

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_MOMENTS = 4
EXIT_RESOURCE = 5

_EXIT_CODES = {
    SchemaError: EXIT_USAGE,
    WindowError: EXIT_USAGE,
    ArtifactError: EXIT_USAGE,
    InvalidMomentSequenceError: EXIT_MOMENTS,
    PrecisionExhaustedError: EXIT_MOMENTS,
    ResourceLimitError: EXIT_RESOURCE,
    CouplingOverflowError: EXIT_RESOURCE,
}


def _load_config(path: str, command: str):
    """The RunConfig of the config at path, which holds every section command requires."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError("", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise SchemaError("", f"config is not valid JSON: {exc}")
    cfg = parse_config(doc)
    for section in _COMMANDS[command][2] if command in _COMMANDS else ():
        if getattr(cfg, section) is None:
            raise SchemaError(f"/{section}", f"required for {command}")
    return cfg


def _point_label(index: int, assignment: dict) -> str:
    if not assignment:
        return "series"
    parts = [f"{axis.split('.')[-1]}={value!r}".replace("'", "") for axis, value in sorted(assignment.items())]
    return f"series_{index:03d}_" + "_".join(parts)


def _until_resource_limit(states, errors: list):
    """Pass states through; on the window cap, the step floor or a non-finite
    coupling stop and record it in errors."""
    try:
        yield from states
    except ResourceLimitError as exc:
        errors.append(f"resource limit at t={exc.t_reached:.6g}")
    except (StiffnessError, CouplingOverflowError) as exc:
        errors.append(str(exc))


def _run_one_point(task):
    """Worker for one built sweep point; returns (written paths, error messages)."""
    family, out_dir, formats, index, assignment, seq, cfg = task
    label = _point_label(index, assignment)
    written = []
    errors = []
    series = series_from_trajectory(_until_resource_limit(evolve(seq, cfg), errors))
    out_dir = Path(out_dir)
    if len(series) > 0:
        meta = {"family": family, "sweep_point": assignment}
        if "csv" in formats:
            p = out_dir / f"{label}.csv"
            write_series_csv(p, series)
            written.append(str(p))
        if "json" in formats:
            p = out_dir / f"{label}.json"
            write_series_json(p, series, meta=meta)
            written.append(str(p))
    return written, errors


def _out_dir(ns) -> Path:
    out_dir = Path(ns.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _write_manifest(out_dir: Path, written, doc) -> None:
    generated_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    write_manifest(out_dir, written, doc, generated_at=generated_at)


def _cmd_evolve(ns) -> int:
    cfg = _load_config(ns.config, "evolve")
    out_dir = _out_dir(ns)
    points = sweep_points(cfg)
    jobs = ns.jobs if ns.jobs is not None else cfg.jobs
    # every point is built before any runs, so a failing build writes no series
    tasks = []
    for i, pt in enumerate(points):
        point_doc = apply_sweep_point(cfg.raw, pt)
        seq = build_sequence(point_doc["family"])
        evolve_cfg = build_evolve_config(point_doc["evolve"])
        tasks.append((point_doc["family"], str(out_dir), cfg.output.formats, i, pt, seq, evolve_cfg))
    if jobs > 1 and len(tasks) > 1:
        # the costliest points start first (ties in index order), so that the
        # longest does not wait for a short one; results go back by index
        order = sorted(range(len(tasks)), key=lambda i: -planned_solves(*tasks[i][5:]))
        # a forked pool starts all its workers at once, so no more than there are points
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            ran = dict(zip(order, pool.map(_run_one_point, [tasks[i] for i in order])))
        results = [ran[i] for i in range(len(tasks))]
    else:
        results = [_run_one_point(t) for t in tasks]
    written = [Path(p) for paths, _ in results for p in paths]
    errors = [e for _, errs in results for e in errs]
    _write_manifest(out_dir, written, cfg.raw)
    for p in written:
        print(p)
    if errors:
        print("; ".join(errors), file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK


def _cmd_fit(ns) -> int:
    cfg = _load_config(ns.config, "fit") if ns.config else parse_config({})
    # every series is loaded and fitted before any report is written, so a
    # bad argument leaves no partial artifacts behind
    fits, stems = [], {}
    for series_path in ns.series:
        p = Path(series_path)
        if p.stem in stems:  # both would write <stem>_fit.json and .svg
            raise ArtifactError(p, f"its report would overwrite that of {stems[p.stem]}")
        stems[p.stem] = p
        series = load_series(p)
        try:
            window = select_window(series, cfg.fit.c_min, cfg.fit.c_max, cfg.fit.t_min, cfg.fit.t_max)
            fit = fit_log_relation(series, window, cfg.fit.include_lnln, cfg.fit.weighting)
        except WindowError as exc:
            raise WindowError(f"{p.name}: {exc}") from None
        fits.append((p, series, fit))
    out_dir = _out_dir(ns)
    exit_code = EXIT_OK
    written = []
    for p, series, fit in fits:
        report = out_dir / f"{p.stem}_fit.json"
        plot = out_dir / f"{p.stem}_fit.svg"
        write_fit_report(report, fit)
        write_fit_plot(plot, series, fit, title=p.stem)
        written += [report, plot]
        verdict = eta_bound_check(fit, tol=cfg.fit.bound_tol)
        if verdict.kind == "violates_bound":
            exit_code = EXIT_BOUND
        print(f"{report} eta_tilde={fit.eta_tilde!r}")
    if ns.config:
        _write_manifest(out_dir, written, cfg.raw)
    return exit_code


def _moments_report(section) -> dict:
    """The report of the conversion a MomentsSection describes."""
    if section.direction == "to_lanczos":
        exact = section.arithmetic == "exact"
        mseq = MomentSequence.from_values(map(Fraction if exact else float, section.values))
        precision = "double" if section.arithmetic == "double" else "auto"
        conv = moments_to_lanczos(mseq, section.count, precision=precision)
        back = lanczos_to_moments(b_squared=conv.b_squared, count=section.count)
        residual = max(abs(float(a) - float(b)) for a, b in zip(back.entries, mseq.entries))
        return {
            "direction": "to_lanczos",
            "arithmetic": conv.mode,
            "coefficients": list(conv.coefficients),
            "b_squared": [
                [v.numerator, v.denominator] if conv.exact else v for v in conv.b_squared
            ],
            "round_trip_residual": residual,
        }
    mseq = lanczos_to_moments(b=section.values, count=section.count)
    moments = []
    for order, v in enumerate(mseq.entries):  # exact rationals, possibly past float64
        try:
            moments.append(float(v))
        except OverflowError:
            raise PrecisionExhaustedError(order, "moment exceeds the float64 range") from None
    return {
        "direction": "to_moments",
        "arithmetic": "exact",
        "moments": moments,
        "round_trip_residual": 0.0,
    }


def _cmd_moments(ns) -> int:
    cfg = _load_config(ns.config, "moments")
    report_path = _out_dir(ns) / "moments_report.json"
    try:
        report = _moments_report(cfg.moments)
    except (InvalidMomentSequenceError, PrecisionExhaustedError) as exc:
        write_json(report_path, {"error": str(exc), "failing_order": exc.order})
        raise
    write_json(report_path, report)
    print(report_path)
    return EXIT_OK


def _cmd_wnumber(ns) -> int:
    cfg = _load_config(ns.config, "wnumber")
    cls = w_number(build_sequence(cfg.family), depth=cfg.wnumber.depth, tol=cfg.wnumber.tol)
    path = _out_dir(ns) / "wnumber_report.json"
    write_json(path, asdict(cls))
    print(path)
    return EXIT_OK


def _cmd_modes(ns) -> int:
    cfg = _load_config(ns.config, "modes")
    if cfg.family["kind"] != "explicit":
        raise SchemaError("/family/kind", "modes needs an explicit family")
    md = finite_chain_modes(cfg.family["coefficients"])
    path = _out_dir(ns) / "modes_report.json"
    write_json(path, {**asdict(md), "impulses": spectral_density_finite(md).impulses})
    print(path)
    return EXIT_OK


# the subcommands run from a config: (handler, help, the config sections it
# requires); fit takes series arguments and an optional config
_COMMANDS = {
    "evolve": (_cmd_evolve, "run evolutions (with optional sweep)", ("family", "evolve")),
    "moments": (_cmd_moments, "convert moments <-> coefficients", ("moments",)),
    "wnumber": (_cmd_wnumber, "classify the ergodicity indicator W", ("family",)),
    "modes": (_cmd_modes, "finite-chain mode decomposition", ("family",)),
}


def _jobs(text: str) -> int:
    """--jobs: an integer >= 1, as the config's jobs."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected integer >= 1, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="krylov-chain",
        description="Operator growth on Krylov chains: evolve, fit, convert, classify.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.set_defaults(fn=fn)
        if name == "evolve":
            p.add_argument("--jobs", type=_jobs, default=None)

    p = sub.add_parser("fit", help="fit S_K = eta ln C_K + c on series artifacts")
    p.add_argument("series", nargs="+", help="series CSV/JSON artifacts")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_fit)
    return parser


def main(argv=None) -> int:
    if isinstance(sys.stdout, io.TextIOWrapper):  # paths that are not UTF-8 print as their bytes
        sys.stdout.reconfigure(errors="surrogateescape")
    ns = build_parser().parse_args(argv)
    try:
        return ns.fn(ns)
    except tuple(_EXIT_CODES) as exc:
        print(str(exc), file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
