"""Point estimators for the selected-population parameter and unbiased
estimators of their risk.

All closed forms operate on canonical-scale record values: the transformed
records S(U) for gamma-type families, H(U) for hazard families and -R(L)
for reversed-hazard families.  The convention ``prev = 0`` encodes the first
record (the canonical transform vanishes at the support endpoint), which
keeps every estimator unbiased at n = 1.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import families
from .errors import DomainError, NumericError, UsageError, finite_number
from .records import RecordSet

QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-8
QUAD_LIMIT = 32768

DEFAULT_BAND_FACTOR = 1.5


class EstimatorId(str, enum.Enum):
    UMVUE_GAMMA = "umvue_gamma"
    NATURAL_GAMMA = "natural_gamma"
    UMVUE_PHR = "umvue_phr"
    UMVUE_PRHR = "umvue_prhr"
    NATURAL_PHR = "natural_phr"
    STATIONARY_UMVUE = "stationary_umvue"


@dataclass(frozen=True)
class EstimateReport:
    """One estimate with its unbiased risk estimate and sigma band."""

    estimator_id: EstimatorId
    n: int
    estimate: float
    risk_estimate: float
    band: tuple[float, float]
    band_factor: float = DEFAULT_BAND_FACTOR

    def __post_init__(self):
        lo, hi = self.band
        if not (lo <= self.estimate <= hi):
            raise UsageError("band must bracket the estimate")

    def to_csv_row(self) -> list:
        return [self.n, self.estimator_id.value, self.estimate, self.risk_estimate,
                self.band[0], self.band[1]]

    def to_json_dict(self) -> dict:
        return {
            "estimator_id": self.estimator_id.value,
            "n": self.n,
            "estimate": self.estimate,
            "risk_estimate": self.risk_estimate,
            "band_lo": self.band[0],
            "band_hi": self.band[1],
            "band_factor": self.band_factor,
        }


def _make_band(estimate: float, risk_estimate: float, band_factor: float) -> tuple[float, float]:
    # a risk estimate can be negative (it is unbiased, not positive); the
    # band uses its positive part
    half = band_factor * math.sqrt(max(risk_estimate, 0.0))
    return (max(0.0, estimate - half), estimate + half)


# ---------------------------------------------------------------------------
# gamma-type (model 1)


def _check_gamma_pair(u_prev, u_curr, p):
    if not np.all(np.asarray(p) > 0):
        raise DomainError("shape p must be > 0")
    u_prev = np.asarray(u_prev, dtype=float)
    u_curr = np.asarray(u_curr, dtype=float)
    if np.any(u_prev < 0):
        raise DomainError("record values must be nonnegative on the canonical scale")
    if np.any(u_prev >= u_curr):
        raise DomainError("need u_prev < u_curr: records increase strictly")
    return u_prev, u_curr


def umvue_gamma(u_prev, u_curr, p: float):
    """(u/p)(1 - (u_prev/u)^p), the unbiased selection estimator from a
    consecutive pair of canonical records; u_prev = 0 encodes n = 1."""
    u_prev, u_curr = _check_gamma_pair(u_prev, u_curr, p)
    out = (u_curr / p) * (1.0 - (u_prev / u_curr) ** p)
    return out if out.ndim else float(out)


def natural_gamma(u_curr, p: float):
    """Plug-in estimator u/p ignoring the selection effect."""
    if p <= 0:
        raise DomainError("shape p must be > 0")
    u_curr = np.asarray(u_curr, dtype=float)
    if np.any(u_curr <= 0):
        raise DomainError("record value must be positive")
    out = u_curr / p
    return out if out.ndim else float(out)


def _gamma_second_moment_term(u_prev, u_curr, p):
    """Unbiased estimator of the squared selected parameter.  Where the
    powers of u overflow, the same value scaled by r = u_prev/u:
    u^2 (1 - r^(p+1) - (p+1) r^p (1 - r)) / (p (p+1))."""
    with np.errstate(over="ignore", invalid="ignore"):
        num = u_curr ** (p + 1.0) - u_prev ** (p + 1.0) - (p + 1.0) * u_prev**p * (u_curr - u_prev)
        out = num / (p * (p + 1.0) * u_curr ** (p - 1.0))
        bad = ~np.isfinite(out)
        if np.any(bad):
            r = u_prev / u_curr
            scaled = u_curr * u_curr * (1.0 - r ** (p + 1.0) - (p + 1.0) * r**p * (1.0 - r))
            out = np.where(bad, scaled / (p * (p + 1.0)), out)
    return out


def risk_umvue_gamma(u_prev, u_curr, p: float):
    """Closed-form unbiased risk estimate for umvue_gamma."""
    u_prev, u_curr = _check_gamma_pair(u_prev, u_curr, p)
    v = (u_curr / p) * (1.0 - (u_prev / u_curr) ** p)
    out = v * v - _gamma_second_moment_term(u_prev, u_curr, p)
    return out if out.ndim else float(out)


def risk_general_gamma(V, u_prev: float, u_curr: float, p: float) -> float:
    """Unbiased risk estimate for an arbitrary estimator V(u, u_prev) of the
    selected parameter, integral evaluated by adaptive quadrature."""
    u_prev_a, u_curr_a = _check_gamma_pair(u_prev, u_curr, p)
    u_prev, u_curr = float(u_prev_a), float(u_curr_a)
    integral = _quad(lambda t: t ** (p - 1.0) * V(t, u_prev), u_prev, u_curr)
    v = float(V(u_curr, u_prev))
    return v * v - 2.0 * integral / u_curr ** (p - 1.0) + float(
        _gamma_second_moment_term(u_prev_a, u_curr_a, p))


# ---------------------------------------------------------------------------
# hazard families (model 2)


def _check_hazard_pair(h_prev, h_curr):
    h_prev = np.asarray(h_prev, dtype=float)
    h_curr = np.asarray(h_curr, dtype=float)
    if np.any(h_prev < 0):
        raise DomainError("cumulative hazard values are nonnegative")
    if np.any(h_prev > h_curr):
        raise DomainError("need h_prev <= h_curr: the cumulative hazard is nondecreasing")
    return h_prev, h_curr


def umvue_phr(h_prev, h_curr):
    """Spacing of consecutive cumulative-hazard record values; h_prev = 0
    encodes n = 1.  Serves both the hazard family (H values) and the
    reversed family (-R values at lower records)."""
    h_prev, h_curr = _check_hazard_pair(h_prev, h_curr)
    out = h_curr - h_prev
    return out if out.ndim else float(out)


def natural_phr(h_curr):
    """Plug-in estimator H(U_n) ignoring the selection effect."""
    h_curr = np.asarray(h_curr, dtype=float)
    if np.any(h_curr < 0):
        raise DomainError("cumulative hazard values are nonnegative")
    return h_curr if h_curr.ndim else float(h_curr)


def risk_umvue_phr(h_prev, h_curr):
    """Closed-form unbiased risk estimate: squared spacing over two."""
    h_prev, h_curr = _check_hazard_pair(h_prev, h_curr)
    out = (h_curr - h_prev) ** 2 / 2.0
    return out if out.ndim else float(out)


def risk_general_phr(V, u_prev: float, u_curr: float, family: families.FamilySpec) -> float:
    """Unbiased risk estimate for an arbitrary estimator V(u, u_prev) built
    from raw-scale records of a hazard family.

    H(X) is exponential, so the integral is taken in the hazard scale,
    through the substitution s = H(t) and the member's inverse H^-1
    (interpolated for a tabulated member).
    """
    if family.kind != families.Kind.PROPORTIONAL_HAZARD:
        raise UsageError("risk_general_phr applies to proportional-hazard families")
    u_prev = float(u_prev)
    u_curr = float(u_curr)
    h_prev = families.cumulative_hazard(family, u_prev)
    h_curr = families.cumulative_hazard(family, u_curr)
    if h_prev > h_curr:
        raise DomainError("records must be ordered")
    integral = _quad(lambda s: V(families.cumulative_hazard_inverse(family, s), u_prev),
                     h_prev, h_curr)
    v = float(V(u_curr, u_prev))
    return v * v + (h_curr - h_prev) ** 2 / 2.0 - 2.0 * integral


def _quad(fn, a: float, b: float) -> float:
    # imported on first use: no CLI subcommand reaches quadrature
    from scipy.integrate import quad

    if a == b:
        return 0.0
    out = quad(fn, a, b, epsabs=QUAD_ABS_TOL, epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT,
               full_output=True)
    value, abserr = out[0], out[1]
    if len(out) > 3:
        raise NumericError(
            f"quadrature did not converge on [{a}, {b}]: "
            f"achieved abs error {abserr:.3e} ({out[3].strip()})")
    return value


# ---------------------------------------------------------------------------
# estimator table and estimate paths


# Which estimators a family kind gets: its selection estimator, then the
# plug-in one that ignores the selection effect.
ESTIMATORS = {
    families.Kind.GAMMA_TYPE: (EstimatorId.UMVUE_GAMMA, EstimatorId.NATURAL_GAMMA),
    families.Kind.PROPORTIONAL_HAZARD: (EstimatorId.UMVUE_PHR, EstimatorId.NATURAL_PHR),
    families.Kind.PROPORTIONAL_REVERSED_HAZARD: (EstimatorId.UMVUE_PRHR, EstimatorId.NATURAL_PHR),
}


def evaluate(estimator: EstimatorId, prev, curr, p: float | None = None, risk: bool = False):
    """A per-record estimator at consecutive canonical records (prev = 0
    encodes n = 1), or with risk=True the closed-form unbiased estimate of
    its risk, which the selection estimators have."""
    if estimator == EstimatorId.UMVUE_GAMMA:
        return (risk_umvue_gamma if risk else umvue_gamma)(prev, curr, p)
    if estimator in (EstimatorId.UMVUE_PHR, EstimatorId.UMVUE_PRHR):
        return (risk_umvue_phr if risk else umvue_phr)(prev, curr)
    if risk:
        raise UsageError(f"{estimator.value} has no closed-form risk estimate")
    if estimator == EstimatorId.NATURAL_GAMMA:
        return natural_gamma(curr, p)
    if estimator == EstimatorId.NATURAL_PHR:
        return natural_phr(curr)
    raise UsageError(f"{estimator} is not a per-record selection estimator")


def estimate_path(canonical: RecordSet, family: families.FamilySpec, stationary: bool,
                  band_factor: float = DEFAULT_BAND_FACTOR) -> list[EstimateReport]:
    """Per-record estimate series for a canonical RecordSet (see
    records.canonical_records).  Under the stationary hypothesis the series
    is H(U_n)/n; otherwise the selection estimator for the family kind."""
    if stationary and family.kind == families.Kind.GAMMA_TYPE:
        raise UsageError("stationary estimates are defined for hazard families")
    if finite_number("band_factor", band_factor) < 0:
        raise UsageError(f"band_factor must be >= 0, got {band_factor!r}")
    est_id = EstimatorId.STATIONARY_UMVUE if stationary else ESTIMATORS[family.kind][0]
    values = canonical.values
    reports = []
    for n in range(1, len(canonical) + 1):
        curr = float(values[n - 1])
        with np.errstate(over="ignore", invalid="ignore"):
            if stationary:
                estimate = curr / n
                risk = curr * curr / (n * n * (n + 1.0))
            else:
                prev = float(values[n - 2]) if n > 1 else 0.0
                estimate = evaluate(est_id, prev, curr, family.shape_p)
                risk = evaluate(est_id, prev, curr, family.shape_p, risk=True)
        if math.isnan(estimate) or math.isnan(risk):
            raise NumericError(f"the estimate or risk estimate at n={n} is NaN: "
                               f"its terms overflow float64")
        reports.append(EstimateReport(est_id, n, estimate, risk,
                                      _make_band(estimate, risk, band_factor), band_factor))
    return reports
