"""Artifact writers: CSV/JSON series, fit reports, SVG plots, manifest.

Outputs are byte deterministic: floats are rendered with repr (shortest
round-trip form), JSON keys are sorted, line endings are LF, and no
timestamps appear in data files.  The manifest is the only artifact
allowed to carry a timestamp.
"""

from __future__ import annotations

import hashlib
import html
import json
import math
import re
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .errors import ArtifactError, OrderingError
from .fitting import FitResult
from .observables import ObservableSeries

__all__ = [
    "CSV_HEADER",
    "write_json",
    "write_series_csv",
    "write_series_json",
    "load_series",
    "write_fit_report",
    "write_fit_plot",
    "write_manifest",
]

# the series columns in ObservableSeries field order, each with the type of its values
_COLUMNS = {f.name: int if f.name == "active_size" else float for f in fields(ObservableSeries)}
CSV_HEADER = ",".join(["t", *list(_COLUMNS)[1:]])  # the CSV names the times column t


def write_json(path: Path, doc: dict) -> None:
    """doc as JSON with sorted keys and a two-space indent."""
    path.write_text(
        json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8", newline="\n"
    )


def write_series_csv(path: Path, series: ObservableSeries) -> None:
    columns = [[repr(kind(v)) for v in getattr(series, name)] for name, kind in _COLUMNS.items()]
    lines = [CSV_HEADER, *map(",".join, zip(*columns))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def write_series_json(path: Path, series: ObservableSeries, meta: Optional[dict] = None) -> None:
    doc = {name: list(getattr(series, name)) for name in _COLUMNS}
    if meta:
        doc["meta"] = meta
    write_json(path, doc)


def load_series(path: Path) -> ObservableSeries:
    """Read a series artifact back (CSV or JSON, by extension).

    A missing or malformed file raises ArtifactError, which names it.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".json":
            doc = json.loads(text)
            columns = [doc[name] for name in _COLUMNS]
        else:
            header, *rows = text.strip().split("\n")
            if header != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {header!r}")
            cells = [row.split(",") for row in rows]
            if any(len(row) != len(_COLUMNS) for row in cells):
                raise ValueError(f"a row does not have {len(_COLUMNS)} fields")
            columns = list(zip(*cells)) or [()] * len(_COLUMNS)
        return ObservableSeries(*(
            tuple(map(kind, column)) for kind, column in zip(_COLUMNS.values(), columns)
        ))
    except OSError as exc:
        raise ArtifactError(path, exc.strerror) from None
    except KeyError as exc:
        raise ArtifactError(path, f"missing column {exc}") from None
    except (ValueError, TypeError, OrderingError) as exc:
        raise ArtifactError(path, str(exc)) from None


def write_fit_report(path: Path, fit: FitResult) -> None:
    doc = {
        "eta_tilde": fit.eta_tilde,
        "intercept": fit.intercept,
        "lnln_coefficient": fit.lnln_coefficient,
        "window": {
            "t_min": fit.window[0],
            "t_max": fit.window[1],
            "c_min": fit.window[2],
            "c_max": fit.window[3],
        },
        "rms_residual": fit.rms_residual,
        "samples": fit.sample_count,
    }
    write_json(path, doc)


# any character outside XML 1.0's Char production: C0 controls other than
# tab, LF and CR, lone surrogates, U+FFFE and U+FFFF
_NON_XML_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


def _svg_fmt(x: float) -> str:
    return f"{x:.4f}"


def write_fit_plot(
    path: Path,
    series: ObservableSeries,
    fit: FitResult,
    title: str = "",
) -> None:
    """Static SVG of S_K against ln C_K with the fitted line dashed."""
    pts = [
        (math.log(c), s)
        for c, s in zip(series.c_k, series.s_k)
        if c > 0 and math.isfinite(math.log(c))
    ]
    if not pts:
        pts = [(0.0, 0.0)]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-12:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-12:
        y1 = y0 + 1.0
    w, h, m = 640.0, 480.0, 60.0

    def sx(x):
        return m + (x - x0) / (x1 - x0) * (w - 2 * m)

    def sy(y):
        return h - m - (y - y0) / (y1 - y0) * (h - 2 * m)

    data_pts = " ".join(f"{_svg_fmt(sx(x))},{_svg_fmt(sy(y))}" for x, y in pts)
    fit_xs = (max(x0, math.log(fit.window[2])) if fit.window[2] > 0 else x0, x1)
    fit_line = []
    for x in fit_xs:
        y = fit.intercept + fit.eta_tilde * x
        if fit.lnln_coefficient is not None and x > 0:
            y += fit.lnln_coefficient * math.log(x)
        fit_line.append((sx(x), sy(min(max(y, y0 - (y1 - y0)), y1 + (y1 - y0)))))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(w)}" height="{int(h)}" '
        f'viewBox="0 0 {int(w)} {int(h)}">',
        f'<rect width="{int(w)}" height="{int(h)}" fill="white"/>',
        f'<line x1="{_svg_fmt(m)}" y1="{_svg_fmt(h - m)}" x2="{_svg_fmt(w - m)}" '
        f'y2="{_svg_fmt(h - m)}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_svg_fmt(m)}" y1="{_svg_fmt(h - m)}" x2="{_svg_fmt(m)}" '
        f'y2="{_svg_fmt(m)}" stroke="black" stroke-width="1"/>',
        f'<text x="{_svg_fmt(w / 2)}" y="{_svg_fmt(h - 18)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">ln C_K</text>',
        f'<text x="18" y="{_svg_fmt(h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 18 {_svg_fmt(h / 2)})">S_K</text>',
        f'<polyline points="{data_pts}" fill="none" stroke="#1f6fb2" stroke-width="1.5"/>',
        f'<line x1="{_svg_fmt(fit_line[0][0])}" y1="{_svg_fmt(fit_line[0][1])}" '
        f'x2="{_svg_fmt(fit_line[1][0])}" y2="{_svg_fmt(fit_line[1][1])}" '
        f'stroke="#c23b22" stroke-width="1.5" stroke-dasharray="6,4"/>',
    ]
    if title:
        text = html.escape(_NON_XML_CHAR.sub("\ufffd", title), quote=False)
        parts.append(
            f'<text x="{_svg_fmt(w / 2)}" y="24" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{text}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")


def sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def write_manifest(
    out_dir: Path,
    artifact_paths: Sequence[Path],
    config_doc: dict,
    generated_at: str,
) -> Path:
    """Checksummed listing of every artifact written by a run."""
    entries: List[Dict] = []
    for p in sorted(Path(q) for q in artifact_paths):
        entries.append(
            {
                "path": p.name,
                "bytes": p.stat().st_size,
                "sha256": sha256_of(p),
            }
        )
    doc = {
        "outputs": entries,
        "config_sha256": hashlib.sha256(
            json.dumps(config_doc, sort_keys=True).encode()
        ).hexdigest(),
        "generated_at": generated_at,
    }
    path = Path(out_dir) / "manifest.json"
    write_json(path, doc)
    return path
