"""Moment <-> coefficient transformations and the Hankel oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from krylovchain import (
    InsufficientDataError,
    InvalidMomentSequenceError,
    MomentSequence,
    PrecisionExhaustedError,
    hankel_determinants,
    lanczos_from_hankel,
    lanczos_to_moments,
    moments_to_lanczos,
)
from krylovchain.closedforms import SpectralModel, spectral_model_moments
from krylovchain.moments import _qd_recurrence


def test_catalan_moments_give_unit_chain():
    m = MomentSequence.from_values([1, 1, 2, 5, 14])
    conv = moments_to_lanczos(m, 4)
    assert conv.exact
    assert conv.b_squared == (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    # independent route: b_n^2 = D_{n-2} D_n / D_{n-1}^2
    assert lanczos_from_hankel(m, 4) == list(conv.b_squared)


def test_single_moment_gives_b1():
    m = MomentSequence.from_values([1, Fraction(9, 4)])
    conv = moments_to_lanczos(m, 1)
    assert conv.b_squared == (Fraction(9, 4),)
    assert conv.coefficients[0] == pytest.approx(1.5)


def test_gaussian_moments():
    # mu_{2n} = (2n-1)!! gives b_n^2 = n
    m = MomentSequence.from_values([1, 1, 3, 15])
    conv = moments_to_lanczos(m, 3)
    assert conv.b_squared == (Fraction(1), Fraction(2), Fraction(3))


def test_lanczos_to_moments_examples():
    # single-coefficient chain: mu_2 = w^2, mu_4 = w^4
    m = lanczos_to_moments(b=[Fraction(3, 2)], count=2)
    assert m.entries == (1, Fraction(9, 4), Fraction(81, 16))
    # b = (1, 1): mu_2 = 1, mu_4 = 2
    m = lanczos_to_moments(b=[1, 1], count=2)
    assert m.entries == (1, 1, 2)
    # empty coefficients, count 0
    m = lanczos_to_moments(b=[], count=0)
    assert m.entries == (1,)
    with pytest.raises(InsufficientDataError):
        lanczos_to_moments(b=[], count=1)


def test_round_trip_exact_rational_length_21():
    rng = np.random.default_rng(11)
    for _ in range(6):
        b_sq = [Fraction(int(rng.integers(1, 12)), int(rng.integers(1, 8))) for _ in range(20)]
        m = lanczos_to_moments(b_squared=b_sq, count=20)
        assert len(m) == 21 and m.exact
        conv = moments_to_lanczos(m, 20)
        assert list(conv.b_squared) == b_sq  # exact equality, no tolerance


def test_round_trip_float_length_10():
    # float coefficients are exact binary rationals, so the forward map is
    # lossless and the round trip lands far inside the 1e-12 budget
    rng = np.random.default_rng(23)
    for _ in range(10):
        b = rng.uniform(0.4, 2.5, size=10)
        m = lanczos_to_moments(b=[float(v) for v in b], count=10)
        conv = moments_to_lanczos(m, 10)
        got = np.asarray(conv.coefficients)
        assert np.max(np.abs(got - b) / b) < 1e-12


def test_round_trip_float_moment_entries():
    # rounding the moments themselves to float64 costs ~kappa * 1e-16;
    # the mpmath inverse still recovers the chain to float accuracy
    rng = np.random.default_rng(31)
    b = rng.uniform(0.5, 2.0, size=8)
    m = lanczos_to_moments(b=[float(v) for v in b], count=8)
    m_float = MomentSequence.from_values([float(v) for v in m.entries])
    conv = moments_to_lanczos(m_float, 8)
    assert conv.mode.startswith("mp")
    got = np.asarray(conv.coefficients)
    assert np.max(np.abs(got - b) / b) < 1e-8


def test_hankel_oracle_equivalence_on_random_rationals():
    rng = np.random.default_rng(5)
    for _ in range(5):
        b_sq = [Fraction(int(rng.integers(1, 9)), int(rng.integers(1, 5))) for _ in range(10)]
        m = lanczos_to_moments(b_squared=b_sq, count=10)
        fast = moments_to_lanczos(m, 10).b_squared
        oracle = lanczos_from_hankel(m, 10)
        assert list(fast) == oracle == b_sq


def test_hankel_determinants_positive_for_valid_sequence():
    m = lanczos_to_moments(b_squared=[Fraction(2), Fraction(1, 3), Fraction(5)], count=3)
    dets = hankel_determinants(m, 3)
    assert all(d > 0 for d in dets)


def test_invalid_moments_name_failing_order():
    m = MomentSequence.from_values([1, 1, Fraction(1, 2)])
    with pytest.raises(InvalidMomentSequenceError) as info:
        moments_to_lanczos(m, 2)
    assert info.value.order == 2
    with pytest.raises(InvalidMomentSequenceError) as info:
        lanczos_from_hankel(m, 2)
    assert info.value.order == 2


def test_invalid_moments_float_mode():
    m = MomentSequence.from_values([1.0, 1.0, 0.5])
    with pytest.raises(InvalidMomentSequenceError) as info:
        moments_to_lanczos(m, 2)
    assert info.value.order == 2


def test_mu0_must_be_one():
    with pytest.raises(ValueError):
        MomentSequence.from_values([2, 1])


def test_precision_modes():
    m = lanczos_to_moments(b_squared=[Fraction(k) for k in range(1, 9)], count=8)
    exact = moments_to_lanczos(m, 8)
    assert exact.mode == "exact"
    mp_mode = moments_to_lanczos(
        MomentSequence.from_values([float(v) for v in m.entries]), 8
    )
    assert mp_mode.mode.startswith("mp")
    assert np.allclose(mp_mode.coefficients, exact.coefficients, rtol=1e-12)
    dbl = moments_to_lanczos(m, 8, precision="double")
    assert dbl.mode == "double"
    assert np.allclose(dbl.coefficients, exact.coefficients, rtol=1e-6)


def test_double_precision_exhaustion():
    # the uniform chain has a bounded spectrum: float64 cancellation
    # destroys positivity around order 30 while the exact path sails on
    count = 35
    b_sq = [Fraction(1)] * count
    m = lanczos_to_moments(b_squared=b_sq, count=count)
    exact = moments_to_lanczos(m, count)
    assert list(exact.b_squared) == b_sq
    with pytest.raises(PrecisionExhaustedError) as info:
        moments_to_lanczos(m, count, precision="double")
    assert 1 <= info.value.order <= count


def test_insufficient_entries():
    m = MomentSequence.from_values([1, 1, 2])
    with pytest.raises(InsufficientDataError):
        moments_to_lanczos(m, 3)


class _CountingRange:
    """range, counting the items of every range made after the first."""

    def __init__(self, budget):
        self.first, self.rest, self.budget = None, 0, budget

    def __call__(self, *args):
        r = range(*args)
        if self.first is None:
            self.first = len(r)
        else:
            self.rest += len(r)
            assert self.rest <= self.budget, f"more than {self.budget} site updates"
        return r


def test_moments_visit_only_the_chains_sites(monkeypatch):
    # b_2 = 0 ends every path at site 1, so 20,000 moments take 40,000 site
    # updates, one per power, rather than the ~2e8 of the full triangle of
    # sites.  The first range is the powers, each later one a power's sites;
    # the budget is checked as they are made, so a loop over the triangle
    # fails within its first powers
    import krylovchain.moments as module

    counted = _CountingRange(budget=40_000)
    monkeypatch.setattr(module, "range", counted, raising=False)
    m = lanczos_to_moments(b=[1.0], count=20_000)
    assert (counted.first, counted.rest) == (40_000, 40_000)
    assert m.entries == (Fraction(1),) * 20_001


# ---------------------------------------------------------------------------
# the pruned moment map and the checkerboard Hankel oracle against plain
# references: exact equality, no tolerance

DETERMINISTIC = settings(derandomize=True, max_examples=60, deadline=None, database=None)

rationals = st.builds(Fraction, st.integers(1, 40), st.integers(1, 12))


def full_window_moments(b_squared, count):
    """mu_0..mu_{2*count}: every site of a (count+1)-site window at every power."""
    sq = [Fraction(v) for v in b_squared][:count]
    sq += [Fraction(0)] * (count - len(sq))
    v = [Fraction(1)] + [Fraction(0)] * count
    entries = [v[0]]
    for p in range(1, 2 * count + 1):
        v = [
            (v[i - 1] if i > 0 else 0) + (sq[i] * v[i + 1] if i < count else 0)
            for i in range(count + 1)
        ]
        if p % 2 == 0:
            entries.append(v[0])
    return tuple(entries)


def pivoted_determinants(entries, count):
    """D_0..D_count, one row-pivoted elimination of each aerated Hankel matrix."""
    m = []
    for v in entries:
        m += [v, v * 0]
    dets = []
    for n in range(count + 1):
        a = [[m[i + j] for j in range(n + 1)] for i in range(n + 1)]
        det = entries[0] * 0 + 1
        for col in range(n + 1):
            piv = next((r for r in range(col, n + 1) if a[r][col] != 0), None)
            if piv is None:
                det *= 0
                break
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                det = -det
            det *= a[col][col]
            for r in range(col + 1, n + 1):
                f = a[r][col] / a[col][col]
                if f != 0:
                    for c in range(col, n + 1):
                        a[r][c] -= f * a[col][c]
        dets.append(det)
    return dets


def pruned_fraction_moments(b_squared, count):
    """mu_0..mu_{2*count} by lanczos_to_moments' pruned recurrence, on Fraction objects."""
    sq = [Fraction(v) for v in b_squared][:count]
    sites = len(sq)
    sq += [Fraction(0)] * (count - sites)
    v = [Fraction(1)] + [Fraction(0)] * count
    entries = [v[0]]
    for p in range(1, 2 * count + 1):
        for i in range(p % 2, min(p, 2 * count - p, sites) + 1, 2):
            if i == p:
                v[i] = v[i - 1]
            elif i == 0:
                v[i] = sq[0] * v[1]
            else:
                v[i] = v[i - 1] + sq[i] * v[i + 1]
        if p % 2 == 0:
            entries.append(v[0])
    return tuple(entries)


@pytest.mark.parametrize("nu", [0, 1, 2])
def test_integer_moments_match_fraction_moments_on_spectral_heads(nu):
    # the b^2 of the heads run to 790 digits: every moment is the reduced
    # fraction of Fraction arithmetic, and the exact moment it came from
    unit = SpectralModel(nu=nu, omega0=1.0)
    mu = tuple(spectral_model_moments(unit, k, exact=True) for k in range(65))
    b_sq = moments_to_lanczos(MomentSequence.from_values(mu), 64).b_squared
    got = lanczos_to_moments(b_squared=b_sq, count=64).entries
    assert got == pruned_fraction_moments(b_sq, 64)
    assert got == mu


@DETERMINISTIC
@given(st.integers(0, 12).flatmap(
    lambda count: st.tuples(st.just(count), st.lists(rationals, min_size=1, max_size=count + 2))
))
def test_pruned_moments_match_full_window_rationals(case):
    count, b_sq = case
    got = lanczos_to_moments(b_squared=b_sq, count=count)
    assert got.entries == full_window_moments(b_sq, count)


@DETERMINISTIC
@given(st.integers(1, 12), st.lists(st.one_of(rationals, st.floats(0.05, 5.0)), min_size=1, max_size=14))
def test_pruned_moments_match_full_window_b_input(count, b):
    got = lanczos_to_moments(b=b, count=count)
    assert got.entries == full_window_moments([Fraction(v) ** 2 for v in b], count)


@DETERMINISTIC
@given(st.integers(2, 14).flatmap(
    lambda count: st.tuples(st.just(count), st.lists(rationals, min_size=1, max_size=count - 1))
))
def test_pruned_moments_zero_pad_short_input(case):
    # a chain shorter than count ends in zeros: the moments stop growing
    count, b_sq = case
    got = lanczos_to_moments(b_squared=b_sq, count=count)
    assert got.entries == full_window_moments(b_sq + [0] * (count - len(b_sq)), count)


@DETERMINISTIC
@given(st.lists(rationals, min_size=1, max_size=14))
def test_exact_round_trip_is_identical(b_sq):
    count = len(b_sq)
    m = lanczos_to_moments(b_squared=b_sq, count=count)
    assert list(moments_to_lanczos(m, count).b_squared) == b_sq


def assert_matches_fraction_qd(entries, count):
    """moments_to_lanczos gives the b^2 of the qd recurrence on Fractions, or fails at its order."""
    b_sq, fail = _qd_recurrence(list(entries), count, lambda x: x <= 0)
    m = MomentSequence.from_values(entries)
    if fail is None:
        assert moments_to_lanczos(m, count).b_squared == tuple(b_sq)
    else:
        with pytest.raises(InvalidMomentSequenceError) as info:
            moments_to_lanczos(m, count)
        assert info.value.order == fail


@DETERMINISTIC
@given(
    st.lists(rationals, min_size=1, max_size=14),
    st.data(),
    st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12)),
)
def test_integer_qd_matches_fraction_qd(b_sq, data, shift):
    # a valid sequence, and a copy with one moment past mu_0 moved by shift,
    # which is often invalid
    count = len(b_sq)
    mu = list(lanczos_to_moments(b_squared=b_sq, count=count).entries)
    assert_matches_fraction_qd(mu, count)
    k = data.draw(st.integers(1, count))
    mu[k] += shift * mu[k]
    assert_matches_fraction_qd(mu, count)


@pytest.mark.parametrize("nu", [0, 1, 2])
def test_integer_qd_matches_fraction_qd_on_spectral_heads(nu):
    # the exact heads of the spectral model, as spectral_model_sequence takes them
    unit = SpectralModel(nu=nu, omega0=1.0)
    assert_matches_fraction_qd([spectral_model_moments(unit, k, exact=True) for k in range(97)], 96)


@DETERMINISTIC
@given(st.lists(rationals, min_size=1, max_size=12))
def test_hankel_determinants_match_pivoted_reference_valid(b_sq):
    count = len(b_sq)
    m = lanczos_to_moments(b_squared=b_sq, count=count)
    dets = hankel_determinants(m, count)
    assert dets == pivoted_determinants(m.entries, count)
    assert all(isinstance(d, Fraction) and d > 0 for d in dets)


@DETERMINISTIC
@given(st.lists(st.integers(-3, 3), min_size=1, max_size=11))
def test_hankel_determinants_match_pivoted_reference_any_integers(tail):
    # small integers make many leading minors of either block vanish
    m = MomentSequence.from_values([1] + tail)
    assert hankel_determinants(m, len(tail)) == pivoted_determinants(m.entries, len(tail))


@DETERMINISTIC
@given(st.lists(st.builds(Fraction, st.integers(-3, 3), st.integers(1, 6)), min_size=1, max_size=11))
# the even block's 2 x 2 minor is 0, and its 3 x 3 one comes from _det, at s = 4
@example([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4), Fraction(0), Fraction(1, 2)])
def test_hankel_determinants_match_pivoted_reference_any_rationals(tail):
    # the integer elimination scales each block by the lcm of its
    # denominators: zero minors and the fallback past them meet that scale
    m = MomentSequence.from_values([1] + tail)
    assert hankel_determinants(m, len(tail)) == pivoted_determinants(m.entries, len(tail))


def test_hankel_determinants_invalid_sequence():
    m = MomentSequence.from_values([1, 1, Fraction(1, 2)])
    dets = hankel_determinants(m, 2)
    assert dets == pivoted_determinants(m.entries, 2) == [1, 1, Fraction(-1, 2)]
    with pytest.raises(InvalidMomentSequenceError) as info:
        lanczos_from_hankel(m, 2)
    assert info.value.order == 2


@pytest.mark.parametrize(
    "values,zeros",
    [
        # det (mu_{2(i+j)})_{2x2} = 0, the 3x3 minor of that block is -1
        ([1, 1, 1, 2, 5], [2, 3]),
        # det (mu_{2(i+j+1)})_{2x2} = 0, the 3x3 minor of that block is -1
        ([1, 1, 2, 4, 9, 20], [3, 4]),
    ],
    ids=["even_block", "odd_block"],
)
def test_hankel_determinants_past_a_zero_leading_minor(values, zeros):
    m = MomentSequence.from_values(values)
    count = len(values) - 1
    dets = hankel_determinants(m, count)
    assert dets == pivoted_determinants(m.entries, count)
    assert [n for n, d in enumerate(dets) if d == 0] == zeros
    assert dets[-1] != 0
    with pytest.raises(InvalidMomentSequenceError) as info:
        lanczos_from_hankel(m, count)
    assert info.value.order == zeros[0]


def test_hankel_determinants_float_input():
    b = [0.7, 1.3, 2.1, 0.9, 1.6]
    m = MomentSequence.from_values([float(v) for v in lanczos_to_moments(b=b, count=5).entries])
    assert hankel_determinants(m, 5) == pivoted_determinants(m.entries, 5)
