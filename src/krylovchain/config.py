"""Run-configuration parsing and validation.

Configs are JSON documents validated against the schema below before any
computation starts.  Validation is strict: unknown keys are rejected, and
every error carries the JSON-pointer path of the offending entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from .closedforms import SpectralModel, spectral_model_sequence
from .errors import SchemaError
from .evolve import METHODS, EvolveConfig
from .sequences import (
    Constant,
    ConstantWithFirst,
    Explicit,
    LanczosSequence,
    Linear,
    LogCorrectedLinear,
    LogGrowth,
    PowerLaw,
    PowerLog,
    SqrtGrowth,
    Su2,
    SykLike,
)

__all__ = ["RunConfig", "parse_config", "build_sequence", "CONFIG_SCHEMA_DOC"]


def _is_num(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_pos(v) -> bool:
    return _is_num(v) and v > 0


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_whole(v) -> bool:
    """A number with an integer value: 2 and 2.0 both count."""
    return _is_num(v) and float(v).is_integer()


_FAMILY_PARAMS: Dict[str, Dict[str, tuple]] = {
    # name: {param: (required, validator, message)}
    "linear": {
        "alpha": (True, _is_pos, "positive number"),
        "gamma": (False, _is_num, "number"),
    },
    "syk_like": {
        "alpha": (True, _is_pos, "positive number"),
        "eta": (True, _is_pos, "positive number"),
    },
    "sqrt_growth": {"alpha": (True, _is_pos, "positive number")},
    "su2": {
        "alpha": (True, _is_pos, "positive number"),
        "j": (True, lambda v: _is_pos(v) and _is_whole(2 * v), "positive integer or half integer"),
    },
    "power_law": {
        "alpha": (True, _is_pos, "positive number"),
        "delta": (True, lambda v: _is_num(v) and 0 < v < 1, "number in (0, 1)"),
    },
    "power_log": {
        "alpha": (True, _is_pos, "positive number"),
        "delta": (True, lambda v: _is_num(v) and 0 < v < 1, "number in (0, 1)"),
        "sign": (True, lambda v: v in (1, -1), "+1 or -1"),
    },
    "log_corrected_linear": {
        "alpha": (True, _is_pos, "positive number"),
        "sigma": (False, _is_pos, "positive number"),
        "offset": (False, lambda v: _is_int(v) and v >= 0, "non-negative integer"),
    },
    "log_growth": {
        "alpha": (True, _is_pos, "positive number"),
        "gamma0": (False, _is_num, "number"),
        "offset": (False, lambda v: _is_int(v) and v >= 0, "non-negative integer"),
    },
    "constant": {"b": (True, _is_pos, "positive number")},
    "constant_with_first": {
        "b1": (True, _is_pos, "positive number"),
        "b": (True, _is_pos, "positive number"),
    },
    "explicit": {
        "coefficients": (
            True,
            lambda v: isinstance(v, list) and len(v) >= 1 and all(_is_pos(x) for x in v),
            "non-empty list of positive numbers",
        )
    },
    "spectral_model": {
        "nu": (True, lambda v: _is_whole(v) and v >= 0, "integer >= 0"),
        "alpha": (False, _is_pos, "positive number"),
        "omega0": (False, _is_pos, "positive number"),
        "exact_coefficients": (False, lambda v: _is_int(v) and v >= 8, "integer >= 8"),
    },
}

_FAMILY_BUILDERS = {
    "linear": lambda p: Linear(alpha=p["alpha"], gamma=p.get("gamma", 0.0)),
    "syk_like": lambda p: SykLike(alpha=p["alpha"], eta=p["eta"]),
    "sqrt_growth": lambda p: SqrtGrowth(alpha=p["alpha"]),
    "su2": lambda p: Su2(alpha=p["alpha"], j=p["j"]),
    "power_law": lambda p: PowerLaw(alpha=p["alpha"], delta=p["delta"]),
    "power_log": lambda p: PowerLog(alpha=p["alpha"], delta=p["delta"], sign=p["sign"]),
    "log_corrected_linear": lambda p: LogCorrectedLinear(
        alpha=p["alpha"], sigma=p.get("sigma", 1.0), offset=p.get("offset", 1)
    ),
    "log_growth": lambda p: LogGrowth(
        alpha=p["alpha"], gamma0=p.get("gamma0", 0.0), offset=p.get("offset", 1)
    ),
    "constant": lambda p: Constant(b_value=p["b"]),
    "constant_with_first": lambda p: ConstantWithFirst(b_first=p["b1"], b_value=p["b"]),
    "explicit": lambda p: Explicit(coefficients=tuple(p["coefficients"])),
}

_EVOLVE_KEYS = {
    "t_max": (True, _is_pos, "positive number"),
    "samples": (False, lambda v: _is_int(v) and v >= 1, "integer >= 1"),
    "grid": (False, lambda v: v in ("uniform", "log"), "'uniform' or 'log'"),
    "sample_times": (
        False,
        lambda v: isinstance(v, list)
        and all(_is_num(x) and x >= 0 for x in v)
        and all(b > a for a, b in zip(v, v[1:])),
        "increasing list of numbers >= 0",
    ),
    "rel_tol": (False, lambda v: _is_num(v) and 0 < v < 1, "number in (0, 1)"),
    "abs_tol": (False, lambda v: _is_num(v) and 0 < v < 1, "number in (0, 1)"),
    "truncation_tol": (False, lambda v: _is_num(v) and 0 < v < 1, "number in (0, 1)"),
    "guard_band": (False, lambda v: _is_int(v) and v >= 4, "integer >= 4"),
    "max_active_size": (False, lambda v: _is_int(v) and v >= 16, "integer >= 16"),
    "method": (False, lambda v: v in METHODS, "one of " + ", ".join(METHODS)),
    "log_decades": (False, _is_pos, "positive number"),
}

_FIT_KEYS = {
    "c_min": (False, _is_pos, "positive number"),
    "c_max": (False, _is_pos, "positive number"),
    "t_min": (False, lambda v: _is_num(v) and v >= 0, "number >= 0"),
    "t_max": (False, _is_pos, "positive number"),
    "include_lnln": (False, lambda v: isinstance(v, bool), "boolean"),
    "weighting": (False, lambda v: v in ("logc", "time"), "'logc' or 'time'"),
    "bound_tol": (False, lambda v: _is_num(v) and v >= 0, "number >= 0"),
}

_MOMENTS_KEYS = {
    "direction": (True, lambda v: v in ("to_lanczos", "to_moments"), "'to_lanczos' or 'to_moments'"),
    "values": (
        True,
        lambda v: isinstance(v, list) and len(v) >= 1 and all(_is_num(x) for x in v),
        "non-empty list of numbers",
    ),
    "count": (False, lambda v: _is_int(v) and v >= 0, "integer >= 0"),
    "arithmetic": (False, lambda v: v in ("exact", "float", "double"), "'exact', 'float' or 'double'"),
}

_WNUMBER_KEYS = {
    "depth": (False, lambda v: _is_int(v) and v >= 2, "integer >= 2"),
    "tol": (False, lambda v: _is_num(v) and 0 < v < 1, "number in (0, 1)"),
}

_OUTPUT_KEYS = {
    "formats": (
        False,
        lambda v: isinstance(v, list)
        and len(v) >= 1
        and all(x in ("csv", "json") for x in v),
        "list drawn from ['csv', 'json']",
    ),
}

_TOP_KEYS = ("family", "evolve", "fit", "moments", "wnumber", "output", "sweep", "jobs")


@dataclass
class RunConfig:
    """Validated run configuration."""

    raw: Dict[str, Any]
    family: Optional[Dict[str, Any]] = None
    evolve: Optional[Dict[str, Any]] = None
    fit: Dict[str, Any] = field(default_factory=dict)
    moments: Optional[Dict[str, Any]] = None
    wnumber: Dict[str, Any] = field(default_factory=dict)
    output_formats: tuple = ("csv", "json")
    sweep: Dict[str, List[Any]] = field(default_factory=dict)
    jobs: int = 1


def _check_section(section: Dict[str, Any], schema: Dict[str, tuple], pointer: str):
    if not isinstance(section, dict):
        raise SchemaError(pointer, "expected an object")
    for key in section:
        if key not in schema:
            raise SchemaError(f"{pointer}/{key}", "unknown key")
    for key, (required, check, want) in schema.items():
        if key in section:
            if not check(section[key]):
                raise SchemaError(f"{pointer}/{key}", f"expected {want}")
        elif required:
            raise SchemaError(f"{pointer}/{key}", "required key missing")


def _check_family(section: Dict[str, Any], pointer: str):
    if not isinstance(section, dict):
        raise SchemaError(pointer, "expected an object")
    kind = section.get("kind")
    if kind is None:
        raise SchemaError(f"{pointer}/kind", "required key missing")
    if not isinstance(kind, str) or kind not in _FAMILY_PARAMS:
        raise SchemaError(
            f"{pointer}/kind", f"unknown family; known: {sorted(_FAMILY_PARAMS)}"
        )
    schema = {"kind": (True, lambda v: True, "family name"), **_FAMILY_PARAMS[kind]}
    _check_section(section, schema, pointer)
    if kind == "spectral_model" and "alpha" in section and "omega0" in section:
        raise SchemaError(f"{pointer}/omega0", "give either alpha or omega0, not both")


_SECTION_KEYS = {
    "evolve": _EVOLVE_KEYS,
    "fit": _FIT_KEYS,
    "moments": _MOMENTS_KEYS,
    "wnumber": _WNUMBER_KEYS,
    "output": _OUTPUT_KEYS,
}
_SWEPT = ("family", "evolve", "fit")
_SECTION_FIELDS = ("family", "evolve", "fit", "moments", "wnumber")  # RunConfig fields


def _check_sections(doc: Dict[str, Any], heads):
    """Validate, in order, the sections named in `heads` that doc has."""
    for head in heads:
        if head == "family" and head in doc:
            _check_family(doc[head], "/family")
        elif head in doc:
            _check_section(doc[head], _SECTION_KEYS[head], f"/{head}")


def _check_sweep_points(cfg: RunConfig):
    """Validate every expanded sweep point; errors point at /sweep/<axis>."""
    for point in sweep_points(cfg):
        try:
            _check_sections(apply_sweep_point(cfg.raw, point), _SWEPT)
        except SchemaError as exc:
            # the unswept sections are valid, so a swept value is at fault: the
            # axis naming the failing key, else the first axis of its section
            head, _, key = exc.pointer[1:].partition("/")
            axis = f"{head}.{key}"
            if axis not in point:
                axis = min(a for a in point if a.startswith(head + "."))
            raise SchemaError(
                f"/sweep/{axis}", f"value {point[axis]!r} fails {exc.pointer}: {exc.detail}"
            ) from None


def parse_config(document: Any) -> RunConfig:
    """Validate a config document; raises SchemaError with a JSON pointer."""
    if not isinstance(document, dict):
        raise SchemaError("", "config must be a JSON object")
    for key in document:
        if key not in _TOP_KEYS:
            raise SchemaError(f"/{key}", "unknown key")
    _check_sections(document, ("family", *_SECTION_KEYS))
    cfg = RunConfig(raw=document, **{h: document[h] for h in _SECTION_FIELDS if h in document})
    if "output" in document:
        cfg.output_formats = tuple(document["output"].get("formats", ["csv", "json"]))
    if "sweep" in document:
        sweep = document["sweep"]
        if not isinstance(sweep, dict):
            raise SchemaError("/sweep", "expected an object of axis lists")
        for axis, values in sweep.items():
            if not isinstance(values, list) or len(values) == 0:
                raise SchemaError(f"/sweep/{axis}", "expected a non-empty list")
            parts = axis.split(".")
            if len(parts) != 2 or parts[0] not in _SWEPT:
                raise SchemaError(
                    f"/sweep/{axis}", "axis must target family.*, evolve.* or fit.*"
                )
        cfg.sweep = {k: list(v) for k, v in sweep.items()}
        _check_sweep_points(cfg)
    if "jobs" in document:
        if not (_is_int(document["jobs"]) and document["jobs"] >= 1):
            raise SchemaError("/jobs", "expected integer >= 1")
        cfg.jobs = document["jobs"]
    return cfg


def apply_sweep_point(config: Dict[str, Any], assignment: Dict[str, Any]) -> Dict[str, Any]:
    """Deep-copied config with dotted sweep assignments applied."""
    import copy

    doc = copy.deepcopy(config)
    doc.pop("sweep", None)
    doc.pop("jobs", None)
    for axis, value in assignment.items():
        parts = axis.split(".")
        node = doc
        for p in parts[:-1]:
            node = node.setdefault(p, {})
        node[parts[-1]] = value
    return doc


def sweep_points(cfg: RunConfig) -> List[Dict[str, Any]]:
    """Cartesian product of sweep axes in deterministic (sorted, row-major) order."""
    if not cfg.sweep:
        return [{}]
    axes = sorted(cfg.sweep)
    points = [{}]
    for axis in axes:
        points = [dict(p, **{axis: v}) for p in points for v in cfg.sweep[axis]]
    return points


def build_sequence(family: Dict[str, Any]) -> LanczosSequence:
    """LanczosSequence (or stitched spectral-model sequence) from a family dict."""
    kind = family["kind"]
    if kind == "spectral_model":
        if "omega0" in family:
            model = SpectralModel(nu=family["nu"], omega0=family["omega0"])
        else:
            model = SpectralModel.with_rate(nu=family["nu"], alpha=family.get("alpha", 1.0))
        return spectral_model_sequence(
            model, exact_count=family.get("exact_coefficients", 96)
        )
    params = {k: v for k, v in family.items() if k != "kind"}
    return _FAMILY_BUILDERS[kind](params)


def build_evolve_config(evolve_section: Dict[str, Any]) -> EvolveConfig:
    kw = dict(evolve_section)
    if "sample_times" in kw:
        kw["sample_times"] = tuple(kw["sample_times"])
    return EvolveConfig(**kw)


CONFIG_SCHEMA_DOC = {
    "family": {"kind": sorted(_FAMILY_PARAMS), "params": {k: sorted(v) for k, v in _FAMILY_PARAMS.items()}},
    "evolve": sorted(_EVOLVE_KEYS),
    "fit": sorted(_FIT_KEYS),
    "moments": sorted(_MOMENTS_KEYS),
    "wnumber": sorted(_WNUMBER_KEYS),
    "output": sorted(_OUTPUT_KEYS),
    "sweep": "object mapping dotted axis paths (family.*, evolve.*, fit.*) to value lists",
    "jobs": "integer >= 1",
}
