"""Coefficient families: formulas, validation, finite support."""

import math

import numpy as np
import pytest

from krylovchain import (
    Constant,
    ConstantWithFirst,
    Explicit,
    Linear,
    LogCorrectedLinear,
    LogGrowth,
    PowerLaw,
    PowerLog,
    SqrtGrowth,
    StitchedSequence,
    Su2,
    SupportExceededError,
    SykLike,
    eval_bn,
)


def test_syk_like_example():
    # sqrt(3 * (3 - 1 + 1)) = 3
    assert eval_bn(SykLike(1.0, 1.0), 3) == pytest.approx(3.0, abs=1e-14)


def test_sqrt_growth_example():
    assert eval_bn(SqrtGrowth(2.0), 4) == pytest.approx(4.0, abs=1e-14)


def test_su2_example_and_support():
    assert eval_bn(Su2(1.0, 1.0), 2) == pytest.approx(math.sqrt(2), abs=1e-14)
    with pytest.raises(SupportExceededError) as info:
        eval_bn(Su2(1.0, 1.0), 3)
    assert info.value.support == 2


@pytest.mark.parametrize("two_j", range(1, 11))
def test_su2_support_property(two_j):
    seq = Su2(1.0, two_j / 2.0)
    assert eval_bn(seq, two_j) > 0.0
    with pytest.raises(SupportExceededError):
        eval_bn(seq, two_j + 1)
    # b vanishes exactly at the missing site per the closed formula
    assert seq.b_array(two_j + 3)[two_j:].tolist() == [0.0, 0.0, 0.0]


def test_explicit_support():
    seq = Explicit((1.0, 2.0, 0.5))
    assert seq.support == 3
    assert eval_bn(seq, 2) == 2.0
    with pytest.raises(SupportExceededError):
        eval_bn(seq, 4)
    assert seq.b_array(5).tolist() == [1.0, 2.0, 0.5, 0.0, 0.0]


@pytest.mark.parametrize(
    "seq",
    [
        Explicit((1.0, 2.0, 0.5)),
        Su2(1.0, 1.5),
        SykLike(2.0, 0.25),
        StitchedSequence(head=(1.0, 2.0, 3.5), alpha=1.0, gamma_even=0.5, c_odd=2.0),
    ],
    ids=lambda seq: type(seq).__name__,
)
def test_b_array_tail_matches_the_full_array(seq):
    # a window that grows evaluates only its new tail, bit for bit
    full = seq.b_array(12)
    for start in (1, 2, 3, 4, 5, 9):
        assert np.array_equal(seq.b_array(13 - start, start=start), full[start - 1 :])
    assert seq.b_array(0, start=7).tolist() == []
    with pytest.raises(ValueError):
        seq.b_array(3, start=0)


def test_all_infinite_families_positive_finite():
    seqs = [
        Linear(1.0, 0.5),
        SykLike(2.0, 0.25),
        SqrtGrowth(0.7),
        PowerLaw(1.0, 0.5),
        PowerLog(1.0, 0.5, 1),
        PowerLog(1.0, 0.5, -1),
        LogCorrectedLinear(1.0, 2.0, 1),
        LogGrowth(1.0, 0.0, 1),
        LogGrowth(1.0, 1.0, 0),
        Constant(0.5),
        ConstantWithFirst(1.0, 0.5),
    ]
    for seq in seqs:
        arr = seq.b_array(200)
        assert np.all(arr > 0), type(seq).__name__
        assert np.all(np.isfinite(arr))
        assert arr[0] == pytest.approx(seq.b(1))
        assert arr[137] == pytest.approx(seq.b(138))


def test_family_formulas_spot_values():
    assert eval_bn(Linear(2.0, 1.0), 5) == 11.0
    assert eval_bn(PowerLaw(2.0, 0.5), 9) == pytest.approx(6.0)
    assert eval_bn(PowerLog(1.0, 0.5, 1), 3) == pytest.approx(math.sqrt(3) * math.log(4))
    assert eval_bn(PowerLog(1.0, 0.5, -1), 3) == pytest.approx(math.sqrt(3) / math.log(4))
    assert eval_bn(LogCorrectedLinear(1.0, 2.0, 1), 4) == pytest.approx(4.0 / math.log(5) ** 2)
    assert eval_bn(LogGrowth(1.5, 0.25, 1), 2) == pytest.approx(1.5 * math.log(3) + 0.25)
    assert eval_bn(ConstantWithFirst(3.0, 1.0), 1) == 3.0
    assert eval_bn(ConstantWithFirst(3.0, 1.0), 2) == 1.0


def test_parameter_validation():
    with pytest.raises(ValueError):
        SykLike(1.0, 0.0)
    with pytest.raises(ValueError):
        PowerLaw(1.0, 1.0)
    with pytest.raises(ValueError):
        PowerLog(1.0, 0.5, 2)
    with pytest.raises(ValueError):
        Su2(1.0, 0.3)  # 2j not an integer
    with pytest.raises(ValueError):
        Explicit(())
    with pytest.raises(ValueError):
        Explicit((1.0, -2.0))
    with pytest.raises(ValueError):
        Constant(0.0)
    # log(1) = 0 would make b_1 vanish
    with pytest.raises(ValueError):
        LogGrowth(1.0, 0.0, 0)
    with pytest.raises(ValueError):
        LogCorrectedLinear(1.0, 1.0, 0)


def test_eval_bn_rejects_bad_index():
    with pytest.raises(ValueError):
        eval_bn(Constant(1.0), 0)


def test_stitched_sequence():
    seq = StitchedSequence(
        head=(1.0, 2.0, 3.5),
        alpha=1.0,
        gamma_even=0.5,
        gamma_odd=-0.25,
        c_even=1.0,
        c_odd=2.0,
    )
    assert seq.b(2) == 2.0
    assert seq.b(4) == pytest.approx(4.0 + 0.5 + 1.0 / 4.0)
    assert seq.b(5) == pytest.approx(5.0 - 0.25 + 2.0 / 5.0)
    arr = seq.b_array(10)
    assert arr[2] == 3.5 and arr[9] == pytest.approx(seq.b(10))


def test_sequences_are_immutable():
    seq = SykLike(1.0, 1.0)
    with pytest.raises(Exception):
        seq.alpha = 2.0
