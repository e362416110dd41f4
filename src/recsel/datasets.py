"""Bundled datasets.

`lacc-rainfall-records`: the upper record values of annual rainfall (inches)
at the Los Angeles Civic Center over 1890-1989.  Only the record sequence is
bundled; the raw 100-year series is not available.  The accompanying family
uses the known cumulative hazard H(x) = (x - 4)^1.9 with fitted scale 113.23.
"""

from __future__ import annotations

from importlib import resources

from . import families

RAINFALL_DATASET = "lacc-rainfall-records"

RAINFALL_RECORD_VALUES = (12.69, 12.84, 18.72, 21.96, 23.92, 27.16, 31.28, 34.04)

RAINFALL_FITTED_SCALE = 113.23


def rainfall_family() -> families.FamilySpec:
    """Proportional-hazard family with H(x) = (x - 4)^1.9 on x > 4."""
    return families.proportional_hazard(
        families.Member.CUSTOM, shift=4.0, power=1.9, scale=1.0)


def rainfall_records_path() -> str:
    """Filesystem path of the bundled record file (one value per line)."""
    return str(resources.files("recsel").joinpath("data/lacc_rainfall_records.txt"))
