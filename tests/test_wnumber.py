"""Ergodicity indicator: structural classification and finite values."""

import math
import warnings

import numpy as np
import pytest

from krylovchain import (
    Constant,
    CouplingOverflowError,
    Explicit,
    Linear,
    LogGrowth,
    PowerLaw,
    SqrtGrowth,
    StitchedSequence,
    Su2,
    SykLike,
    partial_products,
    w_number,
)


def quadrature_w(phi0_fn, t_max, n=400_001):
    """Independent oracle: W = integral of phi_0(t) over [0, inf)."""
    ts = np.linspace(0.0, t_max, n)
    return float(np.trapezoid(phi0_fn(ts), ts))


@pytest.mark.parametrize("k", range(1, 13))
def test_structural_classification_explicit(k):
    rng = np.random.default_rng(k)
    seq = Explicit(tuple(rng.uniform(0.5, 2.0, size=k)))
    verdict = w_number(seq).verdict
    assert verdict == ("zero" if k % 2 == 1 else "infinite")


def test_structural_su2():
    # integer j: even support -> infinite; half integer j: odd -> zero
    assert w_number(Su2(1.0, 2.0)).verdict == "infinite"
    assert w_number(Su2(1.0, 1.5)).verdict == "zero"


def test_syk_value_pi_over_2():
    # phi_0(t) = sech(t); quadrature oracle reproduces pi/2 first
    oracle = quadrature_w(lambda t: 1.0 / np.cosh(t), 50.0)
    assert oracle == pytest.approx(math.pi / 2, abs=1e-9)
    cls = w_number(SykLike(1.0, 1.0))
    assert cls.verdict == "finite"
    assert cls.value == pytest.approx(math.pi / 2, abs=1e-6)


def test_sqrt_growth_value():
    # phi_0(t) = exp(-t^2/2); oracle gives sqrt(pi/2)
    oracle = quadrature_w(lambda t: np.exp(-0.5 * t * t), 40.0)
    assert oracle == pytest.approx(math.sqrt(math.pi / 2), abs=1e-10)
    cls = w_number(SqrtGrowth(1.0))
    assert cls.value == pytest.approx(math.sqrt(math.pi / 2), abs=1e-6)


def test_constant_value_and_product_discrepancy():
    # every partial product is 1, but phi_0(0) = 1/b: the relaxation
    # function is authoritative and the products stay diagnostic
    cls = w_number(Constant(2.0))
    assert cls.verdict == "finite"
    assert cls.value == pytest.approx(0.5, abs=1e-9)
    assert all(p == pytest.approx(1.0) for p in cls.partial_products)


@pytest.mark.parametrize("s", [2.0 ** -600, 1e-200, 1e-160, 1e150, 1e160, 1e200, 2.0 ** 600])
def test_w_does_not_depend_on_the_units_of_b(s):
    # W is an inverse energy: the chain s b has W / s.  At these s, b^2 or
    # z^2 leaves the float range; a power of two rescales without rounding
    for seq, unit in ((SykLike(s, 1.0), SykLike(1.0, 1.0)), (Constant(s), Constant(1.0))):
        cls, ref = w_number(seq), w_number(unit)
        assert cls.verdict == "finite"
        if math.frexp(s)[0] == 0.5:
            assert cls.value == ref.value / s
        else:
            assert abs(cls.value * s - ref.value) <= 1e-12 * ref.value


def test_coupling_past_the_float_range_is_named():
    # b_n = 1e308 n + 1 has b_2 = inf, which the fraction needs at every depth
    with pytest.raises(CouplingOverflowError) as info:
        w_number(Linear(1e308, 1.0))
    assert info.value.n == 2


@pytest.mark.parametrize(
    "v,w,verdict",
    [(0.5, 1.0, "infinite"), (1.0, 0.5, "zero"), (0.9, 1.0, "infinite"), (1.0, 0.9, "zero")],
)
def test_dimerized_chain_slope_verdicts(v, w, verdict):
    # b_odd = v, b_even = w: alpha n stays below one ulp of b_n at every
    # depth used.  For v < w, z phi_0(z) -> 1 - v^2/w^2 (W infinite); for
    # v > w, phi_0(z) / z -> 1 / (v^2 - w^2) (W zero)
    cls = w_number(StitchedSequence(head=(v,), alpha=1e-300, gamma_even=w, gamma_odd=v))
    assert cls.verdict == verdict and cls.value is None
    z, phi = cls.cf_trace[-1]
    if verdict == "infinite":
        assert z * phi == pytest.approx(1.0 - v * v / (w * w), rel=1e-3)
    else:
        assert phi / z == pytest.approx(1.0 / (v * v - w * w), rel=1e-3)


def test_partial_products_values():
    prods = partial_products(SykLike(1.0, 1.0), 3)
    # b_n = n: products (2/1)^2, (2*4/(1*3))^2, (2*4*6/(1*3*5))^2
    assert prods[0] == pytest.approx(4.0)
    assert prods[1] == pytest.approx((8 / 3) ** 2)
    assert prods[2] == pytest.approx((48 / 15) ** 2)


def reference_partial_products(seq, terms):
    """The running products term by term, from seq.b."""
    out, acc = [], 1.0
    for m in range(1, terms + 1):
        if seq.support is not None and 2 * m > seq.support:
            break
        acc *= (seq.b(2 * m) / seq.b(2 * m - 1)) ** 2
        out.append(acc)
    return tuple(out)


@pytest.mark.parametrize("seq", [
    SykLike(1.0, 1.0), SykLike(1.0, 2.0), SqrtGrowth(1.0), Constant(1.0),
    PowerLaw(1.0, 0.5), LogGrowth(1.0, 0.0, 1),
], ids=repr)
def test_partial_products_match_the_term_by_term_loop(seq):
    assert partial_products(seq, 48) == reference_partial_products(seq, 48)


@pytest.mark.parametrize("seq,verdict", [
    (Explicit((1e-160, 1.0, 1.0)), "zero"),
    (StitchedSequence(head=(1e-160,), alpha=1.0), "infinite"),
])
def test_partial_products_end_before_a_square_leaves_the_float_range(seq, verdict):
    # (b_2 / b_1)^2 = 1e320: no product is finite, so none is reported
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cls = w_number(seq)
    assert cls.verdict == verdict
    assert cls.partial_products == ()


@pytest.mark.parametrize("s", [2.0 ** 600, 2.0 ** -600])
def test_trace_of_a_chain_past_1e154_scales_with_its_units(s):
    # b_n / b_1 = 1e160 n: b_n^2 / b_1^2 is past the float range, b_n / b_1 is not
    unit = w_number(StitchedSequence(head=(1e-100,), alpha=1e60))
    cls = w_number(StitchedSequence(head=(1e-100 * s,), alpha=1e60 * s))
    assert unit.verdict == cls.verdict == "infinite"
    assert cls.cf_trace == tuple((z * s, v / s) for z, v in unit.cf_trace)


def test_trace_attached():
    cls = w_number(SykLike(1.0, 1.0), depth=4000)
    assert len(cls.cf_trace) == 3
    zs = [z for z, _ in cls.cf_trace]
    assert zs == pytest.approx([1e-2, 1e-3, 1e-4])


def test_w_past_the_float_range_is_undetermined():
    # every phi_0 of the ladder is inf: the reason names the overflow, and the
    # trace keeps only finite pairs (here none)
    cls = w_number(SykLike(1e-310, 1.0))
    assert cls.verdict == "undetermined" and cls.value is None
    assert "overflows float64" in cls.reason
    assert cls.cf_trace == ()


def test_undetermined_at_tiny_depth():
    cls = w_number(SykLike(1.0, 1.0), depth=16, tol=1e-12)
    assert cls.verdict == "undetermined"
    assert cls.reason


def test_depth_validation():
    with pytest.raises(ValueError):
        w_number(Constant(1.0), depth=1)


def test_running_quadrature_matches_structural_classification():
    # even K carries a zero mode, so the running integral of phi_0 grows
    # linearly (W = infinity); for odd K it stays bounded near 0 (W = 0)
    from krylovchain import finite_chain_modes

    rng = np.random.default_rng(13)
    for k, expect_divergent in ((4, True), (5, False)):
        b = tuple(rng.uniform(0.8, 1.6, size=k))
        md = finite_chain_modes(b)
        ts = np.linspace(0.0, 400.0, 400_001)
        phi0 = md.phi0(ts)
        running = np.cumsum(phi0) * (ts[1] - ts[0])
        half = running[len(running) // 2]
        full = running[-1]
        if expect_divergent:
            assert md.zero_mode_weight > 0
            assert full == pytest.approx(2.0 * half, rel=0.05)
            assert abs(full) > 50.0
        else:
            assert md.zero_mode_weight == pytest.approx(0.0, abs=1e-12)
            assert abs(full) < 2.0  # bounded oscillation around zero
        verdict = w_number(kc_explicit(b)).verdict
        assert verdict == ("infinite" if expect_divergent else "zero")


def kc_explicit(b):
    return Explicit(tuple(b))
