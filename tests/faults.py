"""Named faults for the trust tests.

Each fault edits a fresh `RawCapture` in place, before `quantize_capture`
rounds it to file precision, and returns it.  A row of
`tests/test_trust.py` names its fault by its key in `FAULTS`.
"""
from vrlatsim.rig import RawCapture


def white_photo_row(capture: RawCapture, row: int) -> RawCapture:
    """Every photosensor field of one sample reads full white."""
    capture.photo[row, :] = 1.0
    return capture


def pot_sample(capture: RawCapture, index: int, value: float) -> RawCapture:
    """One potentiometer sample reads `value` on the normalized [0, 1] scale."""
    capture.pot[index] = value
    return capture


FAULTS = {
    "white_photo_row": white_photo_row,
    "pot_sample": pot_sample,
}
