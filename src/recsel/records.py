"""Record-value extraction from finite observation sequences.

Records use strict inequality: an observation equal to the running extreme
is not a record, so behavior is deterministic after rounding even though
ties have probability zero under continuous models.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import families
from .errors import DataError, UsageError


class Direction(str, enum.Enum):
    UPPER = "upper"
    LOWER = "lower"


@dataclass(frozen=True)
class RecordSet:
    """Record values with their 1-based record times."""

    values: np.ndarray
    times: np.ndarray
    direction: Direction
    source_length: int

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        times = np.asarray(self.times, dtype=np.int64)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "times", times)
        if values.shape != times.shape or values.ndim != 1 or values.size == 0:
            raise DataError("values and times must be matching nonempty 1-d arrays")
        if not np.all(np.isfinite(values)):
            raise DataError("record values must be finite")
        if times[0] != 1 or np.any(np.diff(times) <= 0):
            raise DataError("record times must start at 1 and increase strictly")
        diffs = np.diff(values)
        if self.direction == Direction.UPPER and np.any(diffs <= 0):
            raise DataError("upper record values must increase strictly")
        if self.direction == Direction.LOWER and np.any(diffs >= 0):
            raise DataError("lower record values must decrease strictly")
        if times[-1] > self.source_length:
            raise DataError("record time exceeds source length")

    def __len__(self) -> int:
        return int(self.values.size)


def _as_sequence(seq) -> np.ndarray:
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise UsageError("need a nonempty 1-d sequence of observations")
    if not np.all(np.isfinite(arr)):
        raise DataError("sequence contains non-finite values")
    return arr


def record_mask(block, extreme, direction: Direction | str = Direction.UPPER):
    """Where each observation strictly beats the running extreme along the
    last axis, the extreme carried in from earlier observations included.

    `block` is 1-d, or 2-d with one sequence per row and `extreme` holding
    one carried extreme per row.  Returns (mask, extreme after the block).
    """
    block = np.asarray(block, dtype=float)
    extreme = np.asarray(extreme, dtype=float)[..., None]
    upper = Direction(direction) == Direction.UPPER
    acc, beats = (np.maximum, np.greater) if upper else (np.minimum, np.less)
    running = acc.accumulate(block, axis=-1)
    acc(running, extreme, out=running)
    mask = np.empty(block.shape, dtype=bool)
    beats(block[..., :1], extreme, out=mask[..., :1])
    beats(block[..., 1:], running[..., :-1], out=mask[..., 1:])
    return mask, running[..., -1]


def extract_records(seq, direction: Direction | str = Direction.UPPER) -> RecordSet:
    """Scan a sequence for records.  The first element is always a record;
    later elements are records when they strictly exceed (upper) or fall
    below (lower) every earlier observation."""
    direction = Direction(direction)
    arr = _as_sequence(seq)
    start = -np.inf if direction == Direction.UPPER else np.inf
    times = np.flatnonzero(record_mask(arr, start, direction)[0]) + 1
    return RecordSet(arr[times - 1], times, direction, arr.size)


def canonical_records(seq, family: families.FamilySpec) -> RecordSet:
    """Records of the canonical (Gamma- or exponential-scale) statistic, the
    scale on which the selection estimators operate.

    Every observation is checked against the family's support first.
    Gamma-type: upper records of S(x), transformed first so that a
    non-monotone S (the zero-mean normal member) stays correct.  Hazard
    family: H applied to the upper records of x.  Reversed-hazard family: -R
    applied to the lower records of x, which are the upper records of the
    exponential statistic -log G(X).
    """
    # finiteness first, so that an infinite or NaN input is named as such
    arr = _as_sequence(seq)
    if family.kind == families.Kind.GAMMA_TYPE:
        # S, applied to every observation, checks the support of each
        return extract_records(families.s_transform(family, arr))
    families.check_support(family, arr)
    reversed_hazard = family.kind == families.Kind.PROPORTIONAL_REVERSED_HAZARD
    raw = extract_records(arr, Direction.LOWER if reversed_hazard else Direction.UPPER)
    values = families.canonical_transform(family, raw.values)
    return RecordSet(values, raw.times, Direction.UPPER, raw.source_length)
