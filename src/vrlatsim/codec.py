"""Octal brightness-code codec.

A rotation angle is quantized to a 12-bit code (0..4095) and shown on a
display as four square fields, each holding one octal digit as a grey
level.  Eight levels spaced 1/7 apart leave the widest possible margin
between neighbours; the decoder classifies each photosensor reading back
to the nearest level.

All functions accept scalars or numpy arrays, return arrays and are pure.
They run once per trace on every run, so they call ndarray methods and
ufuncs directly: numpy's Python-level helpers (`np.clip` on integers,
`np.any`, a `sum` over the short digit axis) cost more than the
arithmetic on arrays of this size.
"""
from __future__ import annotations

import numpy as np

CODE_COUNT = 4096
CODE_MAX = CODE_COUNT - 1
DIGIT_COUNT = 4
DIGIT_BASE = 8
DIGIT_MAX = DIGIT_BASE - 1
LEVEL_STEP = 1.0 / DIGIT_MAX          # luminance distance between adjacent levels

# place values of the four octal digits, most significant first
_PLACES = np.array([512, 64, 8, 1], dtype=np.int64)


def quantize_angle_clamped(angle_deg, angle_range_deg):
    """Map angles onto the 0..4095 code scale, saturating at both ends.

    Render pipelines may extrapolate slightly past the mechanical range;
    a real application would clamp before encoding, so this does too.
    """
    a = np.asarray(angle_deg, dtype=float)
    codes = (a / angle_range_deg * CODE_COUNT).astype(np.int64)
    return np.minimum(np.maximum(codes, 0), CODE_MAX)


def encode(code):
    """Split a code into its four octal digits, most significant first.

    Array input of shape (...,) yields digits of shape (..., 4).
    """
    c = np.asarray(code, dtype=np.int64)
    if c.size and c.view(np.uint64).max() > CODE_MAX:
        raise ValueError(f"code outside 0..{CODE_MAX}: {code!r}")
    return (c[..., None] // _PLACES) % DIGIT_BASE


def decode(digits):
    """Reassemble a code from four octal digits (inverse of encode)."""
    d = np.asarray(digits, dtype=np.int64)
    if d.shape[-1] != DIGIT_COUNT:
        raise ValueError(f"expected {DIGIT_COUNT} digits, got shape {d.shape}")
    # one reduction checks both ends: a negative digit, read as unsigned,
    # is above 2**63
    if d.size and d.view(np.uint64).max() > DIGIT_MAX:
        raise ValueError(f"digit outside 0..{DIGIT_MAX}: {digits!r}")
    return d @ _PLACES


def digits_to_luminance(digits):
    """Grey level for each digit: k maps to k/7 so 0 is black and 7 is white."""
    d = np.asarray(digits, dtype=np.int64)
    if d.size and d.view(np.uint64).max() > DIGIT_MAX:
        raise ValueError(f"digit outside 0..{DIGIT_MAX}: {digits!r}")
    return d / float(DIGIT_MAX)


def classify_luminance(luminance):
    """Nearest-level classification of measured grey values.

    Values are clamped to [0, 1] first since sensor noise can push a
    reading slightly outside the display range.  A value exactly halfway
    between two levels resolves to the lower one.  The clamp is fmax and
    fmin, which send a NaN reading to 0 as well, so every clamped value
    gives a digit in 0..7 without a clamp of the integers.
    """
    lum = np.fmin(np.fmax(np.asarray(luminance, dtype=float), 0.0), 1.0)
    # ceil(7x - 0.5) picks the nearest level and sends exact midpoints down
    return np.ceil(lum * DIGIT_MAX - 0.5).astype(np.int64)
