"""The benchmark's workloads: their inputs, the timed calls and the output checks.

Each workload has `setup(root, seed)`, which imports krylovchain and builds
the inputs (timed as `setup_s`), and `run(inputs, out_dir, checks, trace)`,
the timed part, which records every check in `checks` and returns extra
facts for the run record.  Sizes are fields, so the harness self-test can
build small instances; the instances in WORKLOADS are the reported ones.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent


class Checks:
    """Checked operations of one run; a failure is a failed check or an exception."""

    def __init__(self):
        self.results = []  # (name, ok, detail)

    def check(self, name, ok, detail=""):
        self.results.append((name, bool(ok), str(detail)))

    @property
    def attempted(self):
        return len(self.results)

    @property
    def failed(self):
        return sum(1 for _, ok, _ in self.results if not ok)


@dataclass(frozen=True)
class SpectralSweep:
    """The README pipeline: `krylov-chain evolve` over the nu sweep, then `fit`."""

    config: str = "docs/examples/evolve_spectral_sweep.json"
    jobs: int = 2
    reference_eta: tuple = (0.976348, 0.978129, 1.011020)
    eta_tol: float = 0.05
    c_peak_max: float = 1e5
    in_process = False
    uses_seed = False

    def setup(self, root, seed):
        from krylovchain.config import parse_config, sweep_points

        path = Path(root) / self.config
        points = sweep_points(parse_config(json.loads(path.read_text(encoding="utf-8"))))
        return {"config": str(path), "points": len(points)}

    def run(self, inputs, out_dir, checks, trace):
        out = Path(out_dir) / "evolve"
        fits = out / "fits"
        span_files = []

        def cli(*args):
            cmd = [sys.executable, "-m", "krylovchain.cli"]
            if trace:
                span_files.append(Path(out_dir) / f"spans-{args[0]}.json")
                cmd = [sys.executable, str(HERE / "traced_cli.py"), str(span_files[-1])]
            return subprocess.run(cmd + list(args), capture_output=True, text=True)

        evolve = cli("evolve", "--config", inputs["config"], "--jobs", str(self.jobs),
                     "--out", str(out))
        checks.check("evolve exits 0", evolve.returncode == 0,
                     f"exit {evolve.returncode}: {evolve.stderr[-500:]}")
        series = sorted(out.glob("series_*.json"))
        written = sorted(out.glob("series_*.csv")) + series
        checks.check("evolve writes 2 series files per point",
                     len(written) == 2 * inputs["points"], [p.name for p in written])

        fit = cli("fit", *map(str, series), "--config", inputs["config"], "--out", str(fits))
        etas = []
        for i, ref in enumerate(self.reference_eta):
            p = fits / f"{series[i].stem}_fit.json" if i < len(series) else fits / "missing"
            eta = json.loads(p.read_text(encoding="utf-8"))["eta_tilde"] if p.exists() else math.nan
            etas.append(eta)
            checks.check(f"point {i} eta_tilde within {self.eta_tol} of {ref}",
                         abs(eta - ref) <= self.eta_tol, eta)
        # exit 3 is the documented answer when a fitted slope exceeds 1
        expected_exit = 3 if any(e > 1.0 for e in etas) else 0
        checks.check(f"fit exits {expected_exit}", fit.returncode == expected_exit,
                     f"exit {fit.returncode}: {fit.stderr[-500:]}")
        c_peak = max((max(json.loads(p.read_text(encoding="utf-8"))["c_k"]) for p in series),
                     default=math.nan)
        checks.check(f"C_K peak <= {self.c_peak_max:g}", c_peak <= self.c_peak_max, c_peak)

        digest = hashlib.sha256()
        for p in written:
            digest.update(p.name.encode() + b"\0" + p.read_bytes())
        return {"series_sha256": digest.hexdigest(), "span_files": span_files,
                "jobs": self.jobs, "eta_tilde": etas, "c_k_peak": c_peak}


@dataclass(frozen=True)
class PowerLawEvolve:
    """In-process evolve of b_n = sqrt(n), reduced to a series and fitted."""

    delta: float = 0.5
    c_target: float = 1.35e4
    samples: int = 150
    reference_eta: float = 0.500917
    eta_tol: float = 0.02
    c_min: float = 1e4
    norm_tol: float = 1e-9
    in_process = True
    uses_seed = False

    def setup(self, root, seed):
        import krylovchain as kc

        t_max = self.c_target ** (1 - self.delta) / (2 * (1 - self.delta))
        return {"seq": kc.PowerLaw(1.0, self.delta),
                "cfg": kc.EvolveConfig(t_max=t_max, samples=self.samples, rel_tol=1e-8)}

    def run(self, inputs, out_dir, checks, trace):
        import krylovchain as kc

        series = kc.series_from_trajectory(kc.evolve(inputs["seq"], inputs["cfg"]))
        eta = kc.fit_log_relation(series, kc.default_window(series)).eta_tilde
        checks.check(f"eta_tilde within {self.eta_tol} of {self.reference_eta}",
                     abs(eta - self.reference_eta) <= self.eta_tol, eta)
        checks.check(f"max C_K >= {self.c_min:g}", max(series.c_k) >= self.c_min, max(series.c_k))
        checks.check(f"norm_error <= {self.norm_tol:g}",
                     max(series.norm_error) <= self.norm_tol, max(series.norm_error))
        return {"eta_tilde": eta, "c_k_peak": max(series.c_k)}


@dataclass(frozen=True)
class MomentsCf:
    """Moment problem and continued fractions, with no evolve."""

    count: int = 64
    random_sequences: int = 8
    hankel_count: int = 24
    mp_count: int = 40
    w_tol: float = 1e-6
    mp_rel_tol: float = 1e-10
    nus: tuple = (0, 1, 2)
    in_process = True
    uses_seed = True

    def setup(self, root, seed):
        from fractions import Fraction

        import krylovchain as kc

        spectral = {}
        for nu in self.nus:
            unit = kc.SpectralModel(nu=nu, omega0=1.0)
            spectral[nu] = kc.MomentSequence.from_values(
                [kc.spectral_model_moments(unit, k, exact=True) for k in range(self.count + 1)]
            )
        as_float = {nu: [float(v) for v in m.entries[: self.mp_count + 1]]
                    for nu, m in spectral.items()}
        rng = random.Random(seed)
        return {
            "spectral": spectral,
            "float": {nu: kc.MomentSequence.from_values(v) for nu, v in as_float.items()},
            # the same rounded values as rationals, for the exact reference
            "float_exact": {nu: kc.MomentSequence.from_values([Fraction(x) for x in v])
                            for nu, v in as_float.items()},
            "random": [[Fraction(rng.randint(1, 9), rng.randint(1, 6)) for _ in range(self.count)]
                       for _ in range(self.random_sequences)],
            "w": [
                ("SykLike(1,1)", kc.SykLike(1.0, 1.0), math.pi / 2),
                ("SykLike(1,2)", kc.SykLike(1.0, 2.0), None),
                ("SqrtGrowth(1)", kc.SqrtGrowth(1.0), math.sqrt(math.pi / 2)),
                ("Constant(1)", kc.Constant(1.0), None),
                ("PowerLaw(1,0.5)", kc.PowerLaw(1.0, 0.5), None),
                ("LogGrowth(1,0,1)", kc.LogGrowth(1.0, 0.0, 1), None),
            ],
        }

    def run(self, inputs, out_dir, checks, trace):
        import krylovchain as kc

        for nu, mu in inputs["spectral"].items():
            conv = kc.moments_to_lanczos(mu, self.count)
            back = kc.lanczos_to_moments(b_squared=conv.b_squared, count=self.count)
            checks.check(f"nu={nu} exact round trip is identical", back.entries == mu.entries)
            oracle = kc.lanczos_from_hankel(mu, self.hankel_count)
            checks.check(f"nu={nu} Hankel oracle equals qd",
                         oracle == list(conv.b_squared[: self.hankel_count]))
            mp = kc.moments_to_lanczos(inputs["float"][nu], self.mp_count)
            exact = kc.moments_to_lanczos(inputs["float_exact"][nu], self.mp_count)
            rel = max(abs(a - float(b)) / float(b) for a, b in zip(mp.b_squared, exact.b_squared))
            checks.check(f"nu={nu} mpmath path within {self.mp_rel_tol:g} of exact",
                         mp.mode.startswith("mp") and rel <= self.mp_rel_tol, f"{mp.mode} {rel}")
        for i, b_sq in enumerate(inputs["random"]):
            m = kc.lanczos_to_moments(b_squared=b_sq, count=len(b_sq))
            back = kc.moments_to_lanczos(m, len(b_sq))
            checks.check(f"random sequence {i} exact round trip is identical",
                         list(back.b_squared) == b_sq)
        w_values = {}
        for label, seq, want in inputs["w"]:
            w = kc.w_number(seq)
            w_values[label] = w.value
            ok = w.verdict == "finite" and (want is None or abs(w.value - want) <= self.w_tol)
            checks.check(f"W({label}) is finite" + (f" and {want:.9f}" if want else ""), ok,
                         f"{w.verdict} {w.value}")
        return {"w": w_values}


WORKLOADS = {
    "spectral_sweep": SpectralSweep(),
    "powerlaw_evolve": PowerLawEvolve(),
    "moments_cf": MomentsCf(),
}
