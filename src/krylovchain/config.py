"""Run-configuration parsing and validation.

Configs are JSON documents validated before any computation starts.
Validation is strict: unknown keys are rejected, and every error carries
the JSON-pointer path of the offending entry.

The family and evolve sections are validated by building the sequence
dataclass or EvolveConfig they describe, so their keys, defaults and
admitted values are those of the dataclass fields (see errors.param),
and a ParameterError becomes a SchemaError at /section/key, or at
/family when b_1 is at fault.  A spectral_model family builds its
SpectralModel; its moment problem waits for build_sequence.  The fit,
moments, wnumber and output sections, which no dataclass holds, are
checked against the tables below.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Dict, List, Optional

from .closedforms import SpectralModel, spectral_model_sequence
from .errors import (
    NON_NEGATIVE,
    NUMBER,
    POSITIVE,
    UNIT,
    ParameterError,
    Rule,
    SchemaError,
    at_least,
    one_of,
)
from .evolve import EvolveConfig
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

_FAMILIES = {
    "linear": Linear,
    "syk_like": SykLike,
    "sqrt_growth": SqrtGrowth,
    "su2": Su2,
    "power_law": PowerLaw,
    "power_log": PowerLog,
    "log_corrected_linear": LogCorrectedLinear,
    "log_growth": LogGrowth,
    "constant": Constant,
    "constant_with_first": ConstantWithFirst,
    "explicit": Explicit,
}
_JSON_KEY = {"b_value": "b", "b_first": "b1"}  # field name -> config key, where they differ
_FIELD = {key: name for name, key in _JSON_KEY.items()}


def _params(cls) -> Dict[str, bool]:
    """{config key: required} for the fields of a dataclass, in field order."""
    return {_JSON_KEY.get(f.name, f.name): f.default is MISSING for f in fields(cls)}


_FAMILY_KEYS = {kind: tuple(_params(cls)) for kind, cls in _FAMILIES.items()}
_FAMILY_KEYS["spectral_model"] = ("nu", "alpha", "omega0", "exact_coefficients")
_WHOLE = Rule("integer >= 0", lambda v: NON_NEGATIVE.ok(v) and float(v).is_integer())

_FIT_KEYS = {
    "c_min": (False, POSITIVE),
    "c_max": (False, POSITIVE),
    "t_min": (False, NON_NEGATIVE),
    "t_max": (False, POSITIVE),
    "include_lnln": (False, Rule("boolean", lambda v: isinstance(v, bool))),
    "weighting": (False, one_of("logc", "time")),
    "bound_tol": (False, NON_NEGATIVE),
}

_MOMENTS_KEYS = {
    "direction": (True, one_of("to_lanczos", "to_moments")),
    "values": (
        True,
        Rule(
            "non-empty list of numbers",
            lambda v: isinstance(v, list) and len(v) >= 1 and all(map(NUMBER.ok, v)),
        ),
    ),
    "count": (False, at_least(0)),
    "arithmetic": (False, one_of("exact", "float", "double")),
}

_WNUMBER_KEYS = {
    "depth": (False, at_least(2)),
    "tol": (False, UNIT),
}

_OUTPUT_KEYS = {
    "formats": (
        False,
        Rule(
            "list drawn from ['csv', 'json']",
            lambda v: isinstance(v, list) and len(v) >= 1 and all(x in ("csv", "json") for x in v),
        ),
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


def _check_keys(section: Any, keys, pointer: str):
    if not isinstance(section, dict):
        raise SchemaError(pointer, "expected an object")
    for key in section:
        if key not in keys:
            raise SchemaError(f"{pointer}/{key}", "unknown key")


@contextmanager
def _errors_at(pointer: str, section: Dict[str, Any]):
    """Re-raise a ParameterError as a SchemaError at pointer/<its config key>."""
    try:
        yield
    except ParameterError as exc:
        if exc.name is None:
            raise SchemaError(pointer, exc.detail) from None
        key = _JSON_KEY.get(exc.name, exc.name)
        raise SchemaError(
            f"{pointer}/{key}", exc.detail if key in section else "required key missing"
        ) from None


def _check_section(section: Any, schema: Dict[str, tuple], pointer: str):
    _check_keys(section, schema, pointer)
    with _errors_at(pointer, section):
        for key, (required, rule) in schema.items():
            if required or key in section:
                rule.check(key, section.get(key))


_NULL = object()  # stands for JSON null and for a missing required key; no rule admits it


def _from_fields(cls, section: Dict[str, Any]):
    """cls built from the config keys of its fields; other keys are ignored."""
    # a null or missing value fails its field's rule in field order, as a bad
    # value would; None itself is valid for sample_times, as "not given"
    return cls(**{
        _FIELD.get(key, key): _NULL if section.get(key) is None else section[key]
        for key, required in _params(cls).items()
        if required or key in section
    })


def _spectral_model(p: Dict[str, Any]) -> SpectralModel:
    """The SpectralModel of a spectral_model family, checked key by key in schema order."""
    _WHOLE.check("nu", p.get("nu"))
    model = SpectralModel.with_rate(nu=p["nu"], alpha=p.get("alpha", 1.0))
    if "omega0" in p:
        model = SpectralModel(nu=p["nu"], omega0=p["omega0"])
    at_least(8).check("exact_coefficients", p.get("exact_coefficients", 96))
    if "alpha" in p and "omega0" in p:
        raise ParameterError("omega0", "give either alpha or omega0, not both")
    return model


def _family(family: Dict[str, Any]):
    """The family's sequence, or for spectral_model its SpectralModel (no moment problem)."""
    with _errors_at("/family", family):
        if family["kind"] == "spectral_model":
            return _spectral_model(family)
        return _from_fields(_FAMILIES[family["kind"]], family)


def _check_family(section: Any):
    if not isinstance(section, dict):
        raise SchemaError("/family", "expected an object")
    kind = section.get("kind")
    if kind is None:
        raise SchemaError("/family/kind", "required key missing")
    if not isinstance(kind, str) or kind not in _FAMILY_KEYS:
        raise SchemaError("/family/kind", f"unknown family; known: {sorted(_FAMILY_KEYS)}")
    _check_keys(section, ("kind", *_FAMILY_KEYS[kind]), "/family")
    _family(section)


_SECTION_KEYS = {
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
        if head not in doc:
            continue
        if head == "family":
            _check_family(doc[head])
        elif head == "evolve":
            _check_keys(doc[head], _params(EvolveConfig), "/evolve")
            build_evolve_config(doc[head])
        else:
            _check_section(doc[head], _SECTION_KEYS[head], f"/{head}")
            if head == "moments" and doc[head]["direction"] == "to_lanczos":
                _check_moments(doc[head])


def _check_moments(section: Dict[str, Any]):
    """Moments to convert: mu_0 = 1, and one coefficient at most per moment past mu_0."""
    values = section["values"]
    if values[0] != 1:
        raise SchemaError("/moments/values", f"mu_0 must be 1, got {values[0]!r}")
    if section.get("count", 0) > len(values) - 1:
        raise SchemaError(
            "/moments/count", f"at most {len(values) - 1} coefficients from {len(values)} moments"
        )


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
    _check_keys(document, _TOP_KEYS, "")
    _check_sections(document, ("family", "evolve", *_SECTION_KEYS))
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
        if not at_least(1).ok(document["jobs"]):
            raise SchemaError("/jobs", "expected integer >= 1")
        cfg.jobs = document["jobs"]
    return cfg


def apply_sweep_point(config: Dict[str, Any], assignment: Dict[str, Any]) -> Dict[str, Any]:
    """Deep-copied config with dotted sweep assignments applied."""
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
    built = _family(family)
    if isinstance(built, SpectralModel):
        return spectral_model_sequence(built, exact_count=family.get("exact_coefficients", 96))
    return built


def build_evolve_config(evolve_section: Dict[str, Any]) -> EvolveConfig:
    with _errors_at("/evolve", evolve_section):
        return _from_fields(EvolveConfig, evolve_section)


CONFIG_SCHEMA_DOC = {
    "family": {
        "kind": sorted(_FAMILY_KEYS),
        "params": {k: sorted(v) for k, v in _FAMILY_KEYS.items()},
    },
    "evolve": sorted(_params(EvolveConfig)),
    "fit": sorted(_FIT_KEYS),
    "moments": sorted(_MOMENTS_KEYS),
    "wnumber": sorted(_WNUMBER_KEYS),
    "output": sorted(_OUTPUT_KEYS),
    "sweep": "object mapping dotted axis paths (family.*, evolve.*, fit.*) to value lists",
    "jobs": "integer >= 1",
}
