"""Config schema validation and sequence construction."""

import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from krylovchain import SchemaError, SykLike, cli
from krylovchain.config import (
    _FAMILY_KEYS,
    _SECTIONS,
    _TOP_KEYS,
    _params,
    apply_sweep_point,
    build_evolve_config,
    build_sequence,
    parse_config,
    sweep_points,
)
from krylovchain.evolve import METHODS


# the keys the parser admits: each family's parameters, and each section's
_PARAMS = {kind: sorted(keys) for kind, keys in _FAMILY_KEYS.items()}
_KEYS = {head: sorted(_params(cls)) for head, cls in _SECTIONS.items()}

BASE = {
    "family": {"kind": "syk_like", "alpha": 1.0, "eta": 1.0},
    "evolve": {"t_max": 2.0, "samples": 10},
}


def test_valid_config_parses():
    cfg = parse_config(dict(BASE))
    assert cfg.family["kind"] == "syk_like"
    assert cfg.evolve["t_max"] == 2.0
    assert cfg.jobs == 1


def test_unknown_top_key_pointer():
    with pytest.raises(SchemaError) as info:
        parse_config({**BASE, "familly": {}})
    assert info.value.pointer == "/familly"


def test_unknown_family_key():
    doc = dict(BASE)
    doc["family"] = {"kind": "syk_like", "alpha": 1.0, "eta": 1.0, "beta": 2.0}
    with pytest.raises(SchemaError) as info:
        parse_config(doc)
    assert info.value.pointer == "/family/beta"


def test_missing_required_param():
    doc = dict(BASE)
    doc["family"] = {"kind": "syk_like", "alpha": 1.0}
    with pytest.raises(SchemaError) as info:
        parse_config(doc)
    assert info.value.pointer == "/family/eta"


def test_bad_value_type():
    doc = dict(BASE)
    doc["evolve"] = {"t_max": -1.0}
    with pytest.raises(SchemaError) as info:
        parse_config(doc)
    assert info.value.pointer == "/evolve/t_max"


def test_unknown_family_kind():
    with pytest.raises(SchemaError) as info:
        parse_config({"family": {"kind": "banana"}})
    assert info.value.pointer == "/family/kind"


def test_empty_sweep_axis_rejected():
    doc = {**BASE, "sweep": {"family.eta": []}}
    with pytest.raises(SchemaError) as info:
        parse_config(doc)
    assert info.value.pointer == "/sweep/family.eta"


def test_sweep_axis_target_restricted():
    doc = {**BASE, "sweep": {"output.formats": [["csv"]]}}
    with pytest.raises(SchemaError):
        parse_config(doc)


def test_sweep_axis_must_name_one_key():
    doc = {**BASE, "sweep": {"family.eta.x": [1.0]}}
    with pytest.raises(SchemaError) as info:
        parse_config(doc)
    assert info.value.pointer == "/sweep/family.eta.x"


@pytest.mark.parametrize(
    "sweep,pointer,detail",
    [
        ({"family.eta": [1.0, -1.0]}, "/sweep/family.eta", "value -1.0 fails /family/eta"),
        ({"evolve.t_max": [1.0, 0.0]}, "/sweep/evolve.t_max", "value 0.0 fails /evolve/t_max"),
        (
            {"evolve.sample_times": [[0.0, 0.5], [0.5, 0.1]]},
            "/sweep/evolve.sample_times",
            "value [0.5, 0.1] fails /evolve/sample_times",
        ),
        # a sweep point runs only its evolve, so no fit.* axis could change a result
        ({"fit.c_min": [5.0, 500.0]}, "/sweep/fit.c_min", "axis must target family.* or evolve.*"),
        # the point is invalid through its kind, not through a key of its own
        ({"family.kind": ["syk_like", "constant"]}, "/sweep/family.kind", "fails /family/alpha"),
        ({"family.eta": [2.0], "family.kind": ["linear"]}, "/sweep/family.eta", "fails /family/eta"),
    ],
    ids=["eta", "t_max", "sample_times", "c_min", "kind", "key_of_other_kind"],
)
def test_swept_values_validated(sweep, pointer, detail):
    with pytest.raises(SchemaError) as info:
        parse_config({**BASE, "sweep": sweep})
    assert info.value.pointer == pointer
    assert detail in info.value.detail


@pytest.mark.parametrize(
    "family,pointer",
    [
        ({"kind": "su2", "alpha": 1.0, "j": 0.3}, "/family/j"),
        ({"kind": "su2", "alpha": 1.0, "j": -0.5}, "/family/j"),
        ({"kind": "spectral_model", "nu": 0.5, "omega0": 1.0}, "/family/nu"),
        ({"kind": "spectral_model", "nu": -1, "omega0": 1.0}, "/family/nu"),
    ],
    ids=["j_fraction", "j_negative", "nu_fraction", "nu_negative"],
)
def test_family_values_the_builders_reject(family, pointer):
    with pytest.raises(SchemaError) as info:
        parse_config({**BASE, "family": family})
    assert info.value.pointer == pointer


@pytest.mark.parametrize(
    "family",
    [
        {"kind": "su2", "alpha": 1.0, "j": 0.5},
        {"kind": "su2", "alpha": 1.0, "j": 3},
        {"kind": "spectral_model", "nu": 2, "omega0": 1.0},
        {"kind": "spectral_model", "nu": 1.0, "omega0": 1.0},
    ],
    ids=["j_half", "j_integer", "nu_int", "nu_whole_float"],
)
def test_family_values_the_builders_accept(family):
    cfg = parse_config({**BASE, "family": family})
    build_sequence(cfg.family)


def test_swept_values_valid_at_every_point():
    sweep = {"family.eta": [0.5, 2.0], "evolve.sample_times": [[0.0, 1.0]]}
    cfg = parse_config({**BASE, "sweep": sweep})
    assert len(sweep_points(cfg)) == 2


def test_sweep_points_deterministic_order():
    doc = {**BASE, "sweep": {"family.eta": [1.0, 2.0], "evolve.t_max": [1.0, 3.0]}}
    cfg = parse_config(doc)
    pts = sweep_points(cfg)
    assert len(pts) == 4
    assert pts[0] == {"evolve.t_max": 1.0, "family.eta": 1.0}
    assert pts[-1] == {"evolve.t_max": 3.0, "family.eta": 2.0}
    point_doc = apply_sweep_point(doc, pts[-1])
    assert point_doc["family"]["eta"] == 2.0
    assert point_doc["evolve"]["t_max"] == 3.0
    assert "sweep" not in point_doc
    assert doc["family"]["eta"] == 1.0  # original untouched


@pytest.mark.parametrize(
    "times", [[0.4, 0.2], [0.0, 0.5, 0.5], [-0.1, 0.2], [0.0, "1"]]
)
def test_sample_times_non_negative_and_increasing(times):
    with pytest.raises(SchemaError) as info:
        parse_config({"evolve": {"t_max": 1.0, "sample_times": times}})
    assert info.value.pointer == "/evolve/sample_times"
    parse_config({"evolve": {"t_max": 1.0, "sample_times": [0.0, 0.2, 0.4]}})


def test_family_kind_must_be_a_name():
    for kind in ([], {}, 3):
        with pytest.raises(SchemaError) as info:
            parse_config({"family": {"kind": kind}})
        assert info.value.pointer == "/family/kind"


def test_build_sequence_families():
    seq = build_sequence({"kind": "syk_like", "alpha": 1.0, "eta": 2.0})
    assert isinstance(seq, SykLike)
    seq = build_sequence({"kind": "explicit", "coefficients": [1.0, 2.0]})
    assert seq.support == 2
    seq = build_sequence({"kind": "constant_with_first", "b1": 1.0, "b": 0.5})
    assert seq.b(1) == 1.0 and seq.b(2) == 0.5
    seq = build_sequence({"kind": "spectral_model", "nu": 0, "omega0": 1.0,
                          "exact_coefficients": 16})
    assert seq.b(1) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_spectral_model_alpha_xor_omega0():
    with pytest.raises(SchemaError) as info:
        parse_config({"family": {"kind": "spectral_model", "nu": 0, "alpha": 1.0, "omega0": 1.0}})
    assert info.value.pointer == "/family/omega0"


def test_build_evolve_config():
    cfg = build_evolve_config({"t_max": 1.5, "samples": 7, "method": "rk45"})
    assert cfg.t_max == 1.5 and cfg.samples == 7 and cfg.method == "rk45"
    # the schema and EvolveConfig accept the same method names
    for method in ("cayley6", "cayley4", "trapezoidal", "rk45"):
        parse_config({"evolve": {"t_max": 1.0, "method": method}})
        assert build_evolve_config({"t_max": 1.0, "method": method}).method == method
    with pytest.raises(SchemaError) as info:
        parse_config({"evolve": {"t_max": 1.0, "method": "pade4"}})
    assert info.value.pointer == "/evolve/method"


def test_moments_section():
    cfg = parse_config(
        {"moments": {"direction": "to_lanczos", "values": [1, 1, 2], "count": 2}}
    )
    assert cfg.moments.direction == "to_lanczos"
    with pytest.raises(SchemaError):
        parse_config({"moments": {"direction": "sideways", "values": [1]}})


def test_jobs_validation():
    with pytest.raises(SchemaError) as info:
        parse_config({**BASE, "jobs": 0})
    assert info.value.pointer == "/jobs"


def test_every_documented_example_validates():
    import json
    from pathlib import Path

    examples = sorted((Path(__file__).parent.parent / "docs" / "examples").glob("*.json"))
    assert len(examples) >= 5
    for path in examples:
        doc = json.loads(path.read_text())
        cfg = parse_config(doc)  # must not raise
        if cfg.family is not None and cfg.family["kind"] != "spectral_model":
            build_sequence(cfg.family)


def test_schema_doc_tables_match_the_schema():
    text = (Path(__file__).parent.parent / "docs" / "config-schema.md").read_text()

    def rows(section):
        body = text.split(f"## `{section}`\n", 1)[1].split("\n## ", 1)[0]
        return [line.split("|")[1:3] for line in body.splitlines() if line.startswith("| `")]

    family = {kind.strip(" `"): sorted(re.findall(r"`(\w+)`", params)) for kind, params in rows("family")}
    assert family == _PARAMS
    for section in ("evolve", "fit", "moments", "wnumber", "output"):
        keys = sorted(name for keys, _ in rows(section) for name in re.findall(r"`(\w+)`", keys))
        assert keys == _KEYS[section], section


DETERMINISTIC = settings(derandomize=True, max_examples=60, deadline=None, database=None)

_NAMES = sorted(
    {*_TOP_KEYS, "kind", *_PARAMS, *(k for keys in _PARAMS.values() for k in keys)}
    | {k for keys in _KEYS.values() for k in keys}
    | {f"{head}.{k}" for head in ("family", "evolve") for k in ("kind", "alpha", "t_max", "samples")}
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([*_NAMES, 10**400]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_NAMES) | st.text(max_size=2), inner, max_size=5),
    max_leaves=16,
)


@DETERMINISTIC
@given(json_values)
def test_arbitrary_json_raises_only_schema_error(doc):
    try:
        parse_config(doc)
    except SchemaError:
        pass


# numbers on both sides of the rules' bounds, overflow, a bool and lists
_values = (
    st.floats(-2.0, 3.0)
    | st.integers(-1, 3)
    | st.sampled_from([1e308, True])
    | st.lists(st.floats(-1.0, 3.0), min_size=1, max_size=3)
)
evolve_sections = st.fixed_dictionaries(
    {"t_max": _values},
    optional=dict.fromkeys(
        set(_KEYS["evolve"]) - {"t_max"}, _values | st.sampled_from(["log", "rk45"])
    ),
)


def _accepted(doc):
    try:
        parse_config(doc)
    except SchemaError:
        return False
    return True


@pytest.mark.parametrize("kind", sorted(k for k in _PARAMS if k != "spectral_model"))
@DETERMINISTIC
@given(st.data())
def test_accepted_families_build(kind, data):
    family = data.draw(
        st.fixed_dictionaries({"kind": st.just(kind)}, optional=dict.fromkeys(_PARAMS[kind], _values))
    )
    if _accepted({"family": family}):
        build_sequence(family)


@DETERMINISTIC
@given(evolve_sections)
def test_accepted_evolve_sections_build(evolve):
    if _accepted({"evolve": evolve}):
        build_evolve_config(evolve)


# The sections above are accepted together about once in 1,000 draws, so here
# each key is drawn from values its rule may admit, the extremes included.
# Tolerances come from a list, whose pairs summing below float64 epsilon are
# rejected (between 1e-90 and 1e-20 a run would take 1e4 to 1e13 steps).
# t_max <= 2 and max_active_size <= 512 keep every run short.
_admitted = st.floats(0.01, 3.0) | st.sampled_from([5e-324, 1e-300, 1e20, 1e300, 1e308])
family_sections = st.sampled_from(sorted(k for k in _PARAMS if k != "spectral_model")).flatmap(
    lambda kind: st.fixed_dictionaries({
        "kind": st.just(kind),
        **{
            key: st.lists(_admitted, min_size=1, max_size=3) if key == "coefficients"
            else _admitted | st.integers(1, 3)
            for key in _PARAMS[kind]
        },
    })
)
_tolerances = st.sampled_from([5e-324, 1e-300, 1e-9, 1e-6, 0.5])
run_evolve_sections = st.fixed_dictionaries(
    {"t_max": st.floats(0.5, 2.0) | st.just(1e-300), "max_active_size": st.integers(16, 512)},
    optional={
        "samples": st.integers(1, 20),
        "grid": st.sampled_from(["uniform", "log"]),
        "log_decades": _admitted,
        "sample_times": st.lists(st.floats(0.0, 0.5), min_size=1, max_size=4, unique=True).map(sorted),
        "rel_tol": _tolerances,
        "abs_tol": _tolerances,
        "truncation_tol": _tolerances,
        "guard_band": st.integers(4, 16),
        "method": st.sampled_from(METHODS),
    },
)


# the explicit examples run top down, and the first failure ends the test: a
# run without the step floor raises on the first two and never ends the third
@settings(DETERMINISTIC, max_examples=150, report_multiple_bugs=False)
@given(family_sections, run_evolve_sections)
@example({"kind": "constant", "b": 1e20}, {"t_max": 1, "samples": 2})
@example({"kind": "constant", "b": 1e300}, {"t_max": 1, "samples": 2})
@example({"kind": "constant", "b": 1e20}, {"t_max": 1, "samples": 2, "method": "rk45"})
# b_2 = inf, and a first step set by b_1 = 1 whose stage system overflows
@example({"kind": "linear", "alpha": 1e308, "gamma": 1}, {"t_max": 1, "samples": 2})
@example({"kind": "constant_with_first", "b": 1e300, "b1": 1.0}, {"t_max": 1.0, "max_active_size": 16})
# abs_tol = 5e-324 overflows scipy's first rk45 step guess: exit 5 at the window cap
@example(
    {"kind": "constant", "b": 1.0},
    {"t_max": 1.0, "samples": 1, "method": "rk45", "abs_tol": 5e-324, "truncation_tol": 5e-324,
     "guard_band": 4, "max_active_size": 16},
)
def test_accepted_configs_evolve_exit_0_2_or_5(family, evolve):
    # the step floor and the window cap end a run with exit 5, never a traceback
    doc = {"family": family, "evolve": evolve}
    assume(_accepted(doc))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["evolve", "--config", str(path), "--out", str(Path(tmp) / "o")]) in (0, 2, 5)
