"""Run-configuration parsing and validation.

Configs are JSON documents validated before any computation starts.
Validation is strict: unknown keys are rejected, and every error carries
the JSON-pointer path of the offending entry.

Every section is validated by building the dataclass it describes: the
family's sequence, EvolveConfig, or the FitSection, MomentsSection,
WnumberSection and OutputSection below.  So its keys, defaults and
admitted values are those of the dataclass fields (see errors.param),
and a ParameterError becomes a SchemaError at /section/key, or at
/section when no single key is at fault (b_1 for a family).  A
spectral_model family builds its SpectralModel; its moment problem
waits for build_sequence.
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from .closedforms import EXACT_COUNT, SpectralModel, spectral_model_sequence
from .errors import (
    NON_NEGATIVE,
    NUMBER,
    POSITIVE,
    UNIT,
    ParameterError,
    Rule,
    SchemaError,
    at_least,
    check_fields,
    one_of,
    param,
)
from . import fitting, wnumber
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

__all__ = ["RunConfig", "parse_config", "build_section", "build_sequence"]

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


def _or_none(rule: Rule) -> Rule:
    """rule, admitting also the default None (a JSON null never reaches it: see _from_fields)."""
    return Rule(rule.want, lambda v: v is None or rule.ok(v))


class _Checked:
    """A dataclass whose fields must satisfy their rules."""

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class FitSection(_Checked):
    """The window that `fit` selects, its regression and the slope bound's tolerance."""

    c_min: float = param(POSITIVE, fitting.C_MIN)
    c_max: Optional[float] = param(_or_none(POSITIVE), None)
    t_min: Optional[float] = param(_or_none(NON_NEGATIVE), None)
    t_max: Optional[float] = param(_or_none(POSITIVE), None)
    include_lnln: bool = param(Rule("boolean", lambda v: isinstance(v, bool)), False)
    weighting: str = param(one_of(*fitting.WEIGHTINGS), fitting.WEIGHTING)
    bound_tol: float = param(NON_NEGATIVE, 0.0)


@dataclass(frozen=True)
class MomentsSection(_Checked):
    """One moments <-> coefficients conversion; count None is the natural maximum."""

    direction: str = param(one_of("to_lanczos", "to_moments"))
    values: Tuple[float, ...] = param(Rule(
        "non-empty list of numbers",
        lambda v: isinstance(v, (list, tuple)) and len(v) >= 1 and all(map(NUMBER.ok, v)),
    ))
    count: Optional[int] = param(_or_none(at_least(0)), None)
    arithmetic: Optional[str] = param(_or_none(one_of("exact", "float", "double")), None)

    def __post_init__(self):
        super().__post_init__()
        n = len(self.values)
        if self.direction == "to_moments" and self.arithmetic is not None:
            raise ParameterError("arithmetic", "applies to to_lanczos only")  # exact whatever the input
        if self.direction == "to_lanczos":
            if self.values[0] != 1:
                raise ParameterError("values", f"mu_0 must be 1, got {self.values[0]!r}")
            n -= 1  # one coefficient at most per moment past mu_0
            if self.count is not None and self.count > n:
                raise ParameterError("count", f"at most {n} coefficients from {n + 1} moments")
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "count", n if self.count is None else self.count)
        object.__setattr__(self, "arithmetic", self.arithmetic or "exact")


@dataclass(frozen=True)
class WnumberSection(_Checked):
    """The continued-fraction depth and agreement tolerance of w_number."""

    depth: int = param(at_least(2), wnumber.DEPTH)
    tol: float = param(UNIT, wnumber.TOL)


@dataclass(frozen=True)
class OutputSection(_Checked):
    """The series formats that evolve writes."""

    formats: Tuple[str, ...] = param(Rule(
        "list drawn from ['csv', 'json']",
        lambda v: isinstance(v, (list, tuple)) and len(v) >= 1 and all(x in ("csv", "json") for x in v),
    ), ("csv", "json"))

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "formats", tuple(self.formats))


# the sections built by build_section, in validation order; family is keyed by its kind
_SECTIONS = {"evolve": EvolveConfig, "fit": FitSection, "moments": MomentsSection,
             "wnumber": WnumberSection, "output": OutputSection}
_TOP_KEYS = ("family", *_SECTIONS, "sweep", "jobs")


@dataclass
class RunConfig:
    """Validated run configuration."""

    raw: Dict[str, Any]
    family: Optional[Dict[str, Any]] = None  # family and evolve stay dicts: a
    evolve: Optional[Dict[str, Any]] = None  # sweep point rebuilds them
    fit: FitSection = field(default_factory=FitSection)
    moments: Optional[MomentsSection] = None
    wnumber: WnumberSection = field(default_factory=WnumberSection)
    output: OutputSection = field(default_factory=OutputSection)
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
    at_least(8).check("exact_coefficients", p.get("exact_coefficients", EXACT_COUNT))
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
    return _family(section)


def build_section(head: str, section: Any):
    """The dataclass of config section `head` (any but family), built from section."""
    cls = _SECTIONS[head]
    _check_keys(section, _params(cls), f"/{head}")
    with _errors_at(f"/{head}", section):
        return _from_fields(cls, section)


_SWEPT = ("family", "evolve")  # the sections a sweep point's evolve reads


def _check_sections(doc: Dict[str, Any], heads) -> Dict[str, Any]:
    """Validate, in order, the sections named in `heads` that doc has; {head: its dataclass}."""
    return {
        head: _check_family(doc[head]) if head == "family" else build_section(head, doc[head])
        for head in heads
        if head in doc
    }


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
    built = _check_sections(document, ("family", *_SECTIONS))
    cfg = RunConfig(raw=document, **{h: document[h] if h in _SWEPT else v for h, v in built.items()})
    if "sweep" in document:
        sweep = document["sweep"]
        if not isinstance(sweep, dict):
            raise SchemaError("/sweep", "expected an object of axis lists")
        for axis, values in sweep.items():
            if not isinstance(values, list) or len(values) == 0:
                raise SchemaError(f"/sweep/{axis}", "expected a non-empty list")
            parts = axis.split(".")
            if len(parts) != 2 or parts[0] not in _SWEPT:
                raise SchemaError(f"/sweep/{axis}", "axis must target family.* or evolve.*")
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
        return spectral_model_sequence(built, family.get("exact_coefficients", EXACT_COUNT))
    return built


def build_evolve_config(evolve_section: Dict[str, Any]) -> EvolveConfig:
    return build_section("evolve", evolve_section)
