"""Brightness codec tests.

The digit oracle is Python's own octal string formatting, so the
round-trip check does not reuse the codec's arithmetic.
"""
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vrlatsim import codec


def octal_digits_oracle(code: int):
    return [int(ch) for ch in format(code, "04o")]


def test_encode_matches_string_formatting_exhaustively():
    for code in range(codec.CODE_COUNT):
        assert list(codec.encode(code)) == octal_digits_oracle(code)


def test_round_trip_exhaustive():
    codes = np.arange(codec.CODE_COUNT)
    assert np.array_equal(codec.decode(codec.encode(codes)), codes)


def test_encode_rejects_out_of_range_codes():
    with pytest.raises(ValueError, match=r"^code outside 0\.\.4095: 4096$"):
        codec.encode(4096)
    with pytest.raises(ValueError, match=r"^code outside 0\.\.4095: -1$"):
        codec.encode(-1)
    codes = np.array([[5, 4095], [-1, 7]])
    with pytest.raises(ValueError, match=re.escape(f"code outside 0..4095: {codes!r}")):
        codec.encode(codes)


def test_decode_rejects_bad_digits():
    with pytest.raises(ValueError, match=re.escape("digit outside 0..7: [0, 0, 8, 0]")):
        codec.decode([0, 0, 8, 0])
    with pytest.raises(ValueError, match=re.escape("expected 4 digits, got shape (3,)")):
        codec.decode([1, 2, 3])
    digits = [[1, 2, 3, 4], [0, -1, 0, 0]]
    with pytest.raises(ValueError, match=re.escape(f"digit outside 0..7: {digits!r}")):
        codec.decode(digits)


def test_luminance_rejects_bad_digits():
    with pytest.raises(ValueError, match=r"^digit outside 0\.\.7: 8$"):
        codec.digits_to_luminance(8)
    with pytest.raises(ValueError, match=re.escape("digit outside 0..7: [7, 0, -1]")):
        codec.digits_to_luminance([7, 0, -1])


def test_empty_and_zero_dimensional_inputs_are_accepted():
    none = np.zeros(0, dtype=np.int64)
    digits = codec.encode(none)
    assert (digits.shape, digits.dtype) == ((0, 4), np.int64)
    codes = codec.decode(digits)
    assert (codes.shape, codes.dtype) == ((0,), np.int64)
    lum = codec.digits_to_luminance(none)
    assert (lum.shape, lum.dtype) == ((0,), np.float64)
    assert codec.encode(np.asarray(1234)).tolist() == [2, 3, 2, 2]
    # four digits decode to one 0-d code, as encode takes one
    code = codec.decode(np.asarray([2, 3, 2, 2]))
    assert (np.ndim(code), code) == (0, 1234)
    assert codec.digits_to_luminance(np.asarray(7)) == 1.0
    assert np.ndim(codec.digits_to_luminance(np.asarray(7))) == 0


def test_quantize_clamped_saturates_instead():
    angles = [0.0, 90.0, 180.0, 359.999, -5.0, 360.0, 400.0]
    codes = codec.quantize_angle_clamped(angles, 360.0)
    assert codes.tolist() == [0, 1024, 2048, 4095, 0, codec.CODE_MAX, codec.CODE_MAX]


def _dequantize(code, angle_range):
    """The bin-centre angle of a code, which must quantize back to it."""
    return (code + 0.5) / codec.CODE_COUNT * angle_range


@given(st.integers(min_value=0, max_value=codec.CODE_MAX))
def test_quantize_inverts_dequantize(code):
    assert codec.quantize_angle_clamped(_dequantize(code, 360.0), 360.0) == code


@given(st.integers(min_value=0, max_value=codec.CODE_MAX),
       st.floats(min_value=10.0, max_value=1000.0,
                 allow_nan=False, allow_infinity=False))
def test_round_trip_holds_for_any_range(code, angle_range):
    angle = _dequantize(code, angle_range)
    assert codec.quantize_angle_clamped(angle, angle_range) == code


def test_classify_examples():
    lum = [0.01, 0.99, 0.43, 0.58]
    assert list(codec.classify_luminance(lum)) == [0, 7, 3, 4]


def test_classify_clamps_overshoot_readings():
    assert codec.classify_luminance(-0.2) == 0
    assert codec.classify_luminance(1.3) == 7


def test_classify_midpoint_tie_resolves_down():
    # 0.5 sits exactly between levels 3 and 4 (3.5 sevenths)
    assert codec.classify_luminance(0.5) == 3


@given(st.lists(st.integers(0, codec.DIGIT_MAX), min_size=4, max_size=4))
def test_exact_luminance_classifies_back(digits):
    lum = codec.digits_to_luminance(np.array(digits))
    assert list(codec.classify_luminance(lum)) == digits


@given(st.integers(min_value=0, max_value=codec.CODE_MAX),
       st.floats(min_value=-0.071, max_value=0.071,
                 allow_nan=False, allow_infinity=False))
def test_noise_below_half_level_never_flips_a_digit(code, offset):
    # half the level spacing is 1/14 = 0.0714...; any disturbance
    # strictly inside that margin classifies back to the same digit
    lum = codec.digits_to_luminance(codec.encode(code)) + offset
    assert codec.decode(codec.classify_luminance(lum)) == code


def _noisy_code_error_rate(sigma: float, trials: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, codec.CODE_COUNT, size=trials)
    lum = codec.digits_to_luminance(codec.encode(codes))
    noisy = lum + rng.normal(0.0, sigma, size=lum.shape)
    decoded = codec.decode(codec.classify_luminance(noisy))
    return float(np.mean(decoded != codes))


def test_moderate_noise_rarely_misclassifies():
    # at sigma = 1/60 the half-level boundary sits at 4.3 sigma; the
    # expected code error rate is about 7e-5
    rate = _noisy_code_error_rate(1.0 / 60.0, 100_000, seed=101)
    assert rate < 1e-3


def test_boundary_noise_matches_the_gaussian_floor():
    # at sigma = 1/42 the boundary is exactly 3 sigma away; with four
    # digits per code the error rate must land near 1 - (1-p)^4 where
    # p mixes interior (2 neighbours) and edge (1 neighbour) digits:
    # (6*0.0027 + 2*0.00135) / 8 per digit, about 0.0094 per code
    rate = _noisy_code_error_rate(1.0 / 42.0, 100_000, seed=102)
    assert 0.005 < rate < 0.015


def test_scalar_and_array_inputs_agree():
    assert codec.encode(1234).shape == (4,)
    batch = codec.encode(np.array([0, 1234, 4095]))
    assert batch.shape == (3, 4)
    assert list(batch[1]) == list(codec.encode(1234))
    assert codec.decode(batch).tolist() == [0, 1234, 4095]
    assert codec.decode(batch[1]) == 1234
    assert codec.quantize_angle_clamped([1.0], 360.0).tolist() == \
        [codec.quantize_angle_clamped(1.0, 360.0)]
