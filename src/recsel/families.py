"""Distribution families for record-value inference.

Two model classes are supported:

* gamma-type families, where a member-specific transform S carries
  S(X) ~ Gamma(p, theta) on the scale parameterization, and
* proportional hazard / proportional reversed hazard families built on a
  known base cdf G, where H(X) = -log(1 - G(X)) (resp. -log G(X)) is
  exponential with mean theta.

Each (kind, member) pair is one row of the catalog _ROWS.  FamilySpec values
are immutable and safe to share between threads.  The module gives each
member's transform, its support and, for a hazard member, the inverse of
the transform (interpolated for a tabulated member), not its raw-scale law:
the estimators and the stationarity test work on the canonical statistic
only.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Callable

import numpy as np

from .errors import DataError, DomainError, UsageError, finite_number


class Kind(str, enum.Enum):
    GAMMA_TYPE = "gamma_type"
    PROPORTIONAL_HAZARD = "proportional_hazard"
    PROPORTIONAL_REVERSED_HAZARD = "proportional_reversed_hazard"


class Member(str, enum.Enum):
    EXPONENTIAL = "exponential"
    GAMMA = "gamma"
    NORMAL_ZERO_MEAN = "normal_zero_mean"
    INVERSE_GAUSSIAN = "inverse_gaussian"
    WEIBULL_KNOWN_BETA = "weibull_known_beta"
    RAYLEIGH = "rayleigh"
    BETA = "beta"
    PARETO = "pareto"
    BURR = "burr"
    CUSTOM = "custom"


@dataclass(frozen=True)
class _Row:
    """One catalog member of one kind.  t is its transform (S, H or R) and
    inv the inverse of t that the risk substitution of a hazard member uses
    (None on a row only gamma-type members use); each takes the value and
    the member's parameters.  params names the member's parameters,
    positive numbers but for the table's two arrays, and reals its other
    real ones; support maps the parameters to the support's endpoints."""

    t: Callable
    inv: Callable | None = None
    params: tuple[str, ...] = ()
    reals: tuple[str, ...] = ()
    support: Callable = lambda a: (0.0, math.inf)
    shape: float | None = 1.0  # gamma-type: the shape p the member fixes, None when p is free


def _check_table(kind: Kind, a: dict) -> dict:
    try:
        xs = np.asarray(a["table_x"], dtype=float)
        hs = np.array(a["table_h"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"custom table is not numeric: {exc}") from None
    if xs.ndim != 1 or xs.shape != hs.shape or xs.size < 2:
        raise UsageError("custom table needs matching 1-d arrays with >= 2 points")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(hs))):
        raise UsageError("custom table values must be finite")
    # H(a) = 0 and R(b) = 0 exactly: the n = 1 convention takes prev = 0
    end = 0 if kind == Kind.PROPORTIONAL_HAZARD else -1
    if math.isclose(hs[end], 0.0, abs_tol=1e-12):
        hs[end] = 0.0
    if np.any(np.diff(xs) <= 0) or np.any(np.diff(hs) < 0):
        raise UsageError("custom table must be strictly increasing in x, nondecreasing in h")
    if hs[end] != 0.0:
        raise UsageError("tabulated H must start at 0 on the support lower endpoint" if end == 0
                         else "tabulated R must end at 0 on the support upper endpoint")
    return {"table_x": tuple(map(float, xs)), "table_h": tuple(map(float, hs))}


def _burr_h(x, a):
    """H(x) = log1p(x**alpha); where x**alpha overflows, the same value as
    alpha*log(x) + log1p(x**-alpha)."""
    xa = x ** a["alpha"]
    big = np.isinf(xa)
    xb = np.where(big, x, 1.0)
    return np.where(big, a["alpha"] * np.log(xb) + np.log1p(xb ** -a["alpha"]), np.log1p(xa))


def _burr_h_inverse(u, a):
    """H^-1(u) = expm1(u)**(1/alpha); where expm1(u) overflows, the same value
    as exp(u/alpha) * (-expm1(-u))**(1/alpha)."""
    with np.errstate(over="ignore"):
        e = np.expm1(u)
    big = np.isinf(e)
    ub = np.where(big, u, 0.0)
    return np.where(big, np.exp(ub / a["alpha"]) * (-np.expm1(-ub)) ** (1.0 / a["alpha"]),
                    e ** (1.0 / a["alpha"]))


# formulas exponential and Rayleigh members share across kinds
_IDENTITY = _Row(lambda x, a: x, lambda u, a: u)
_HALF_SQUARE = _Row(lambda x, a: x * x / 2.0, lambda u, a: np.sqrt(2.0 * u))
# a custom member given as a monotone table of (x, transform) pairs, on the
# table's range only, since the table does not determine the tail; the
# interpolated inverse is exact off the flat pieces, which have zero measure in u
_TABLE = _Row(lambda x, a: np.interp(x, a["table_x"], a["table_h"]),
              lambda u, a: np.interp(u, a["table_h"], a["table_x"]),
              ("table_x", "table_h"), support=lambda a: (a["table_x"][0], a["table_x"][-1]))

_ROWS = {
    (Kind.GAMMA_TYPE, Member.EXPONENTIAL): _IDENTITY,
    (Kind.GAMMA_TYPE, Member.GAMMA): replace(_IDENTITY, shape=None),
    (Kind.GAMMA_TYPE, Member.NORMAL_ZERO_MEAN): replace(
        _HALF_SQUARE, support=lambda a: (-math.inf, math.inf), shape=0.5),
    # mean-infinity limit: the one-sided stable law with S(x) = 1/(2x)
    (Kind.GAMMA_TYPE, Member.INVERSE_GAUSSIAN): _Row(lambda x, a: 1.0 / (2.0 * x), shape=0.5),
    (Kind.GAMMA_TYPE, Member.WEIBULL_KNOWN_BETA): _Row(lambda x, a: x ** a["beta"], params=("beta",)),
    (Kind.GAMMA_TYPE, Member.RAYLEIGH): _HALF_SQUARE,
    (Kind.PROPORTIONAL_HAZARD, Member.EXPONENTIAL): _IDENTITY,
    (Kind.PROPORTIONAL_HAZARD, Member.RAYLEIGH): _HALF_SQUARE,
    (Kind.PROPORTIONAL_HAZARD, Member.PARETO): _Row(
        lambda x, a: np.log(x / a["beta"]), lambda u, a: a["beta"] * np.exp(u), ("beta",),
        support=lambda a: (a["beta"], math.inf)),
    (Kind.PROPORTIONAL_HAZARD, Member.BURR): _Row(_burr_h, _burr_h_inverse, ("alpha",)),
    # parametric custom transform H(x) = ((x - shift)**power)/scale
    (Kind.PROPORTIONAL_HAZARD, Member.CUSTOM): _Row(
        lambda x, a: (x - a["shift"]) ** a["power"] / a["scale"],
        lambda u, a: a["shift"] + (a["scale"] * u) ** (1.0 / a["power"]),
        ("power", "scale"), ("shift",), support=lambda a: (a["shift"], math.inf)),
    (Kind.PROPORTIONAL_REVERSED_HAZARD, Member.BETA): _Row(
        lambda x, a: np.log(x), lambda u, a: np.exp(u), support=lambda a: (0.0, 1.0)),
    (Kind.PROPORTIONAL_REVERSED_HAZARD, Member.CUSTOM): _TABLE,
}


@dataclass(frozen=True)
class FamilySpec:
    """One family instance: a model kind, a catalog member and its constants.
    Construction checks the constants against the member's catalog row and
    sets the support from them."""

    kind: Kind
    member: Member
    shape_p: float | None = None
    member_params: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))
    support: tuple[float, float] = field(init=False)
    row: _Row = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kind, member, a = Kind(self.kind), Member(self.member), dict(self.member_params)
        row = _ROWS.get((kind, member))
        if row is None:
            raise UsageError(f"{member.value} is not a {kind.value} member")
        if kind == Kind.PROPORTIONAL_HAZARD and member == Member.CUSTOM and "table_x" in a:
            row = _TABLE
        names = {*row.params, *row.reals}
        if a.keys() != names:
            raise UsageError(f"{member.value} takes parameters {sorted(names)}, got {sorted(a)}")
        if row is _TABLE:
            a = _check_table(kind, a)
        else:
            a = {name: finite_number(name, value) for name, value in a.items()}
            for name in row.params:
                if a[name] <= 0:
                    raise UsageError(f"{member.value} member needs {name} > 0")
        p = self.shape_p
        if kind != Kind.GAMMA_TYPE:
            if p is not None:
                raise UsageError("only gamma-type families take a shape p")
        elif p is None and row.shape is None:
            raise UsageError("gamma member needs an explicit shape p")
        else:
            p = row.shape if p is None else finite_number("p", p)
            if p <= 0:
                raise UsageError("gamma-type families need shape_p > 0")
            if row.shape is not None and not math.isclose(p, row.shape):
                raise UsageError(f"{member.value} fixes p = {row.shape}")
        for name, value in (("kind", kind), ("member", member), ("shape_p", p), ("row", row),
                            ("member_params", MappingProxyType(a)), ("support", row.support(a))):
            object.__setattr__(self, name, value)


# ---------------------------------------------------------------------------
# constructors


def gamma_type(member: Member | str, p: float | None = None, **params) -> FamilySpec:
    """Build a gamma-type family (catalog items: exponential, gamma, zero-mean
    normal, inverse Gaussian, Weibull with known beta, Rayleigh)."""
    return FamilySpec(Kind.GAMMA_TYPE, member, p, params)


def proportional_hazard(member: Member | str, **params) -> FamilySpec:
    """Build a proportional hazard family, survival (1 - G(x))**(1/theta).
    The custom member takes either shift/power/scale, for H(x) =
    ((x - shift)**power)/scale, or a monotone table table_x/table_h."""
    return FamilySpec(Kind.PROPORTIONAL_HAZARD, member, None, params)


def proportional_reversed_hazard(member: Member | str, **params) -> FamilySpec:
    """Build a proportional reversed hazard family, cdf G(x)**(1/theta).
    The custom member takes a monotone table table_x/table_h of R."""
    return FamilySpec(Kind.PROPORTIONAL_REVERSED_HAZARD, member, None, params)


# ---------------------------------------------------------------------------
# transforms


def check_support(family: FamilySpec, x):
    """x as a float array when every value lies in the family's support,
    else a DomainError that names the support.  The support is the open
    interval between its endpoints plus each finite endpoint where the
    member's transform is finite, so it holds no NaN and no infinity, and
    x = 0 lies outside it for the inverse-Gaussian S = 1/(2x) and the beta
    R = log x."""
    x = np.asarray(x, dtype=float)
    lo, hi = family.support
    inside = (x > lo) & (x < hi)
    if not inside.all():
        with np.errstate(divide="ignore"):
            closed = [e for e in (lo, hi)
                      if math.isfinite(e) and np.isfinite(family.row.t(np.float64(e), family.member_params))]
        outside = ~(inside | np.isin(x, closed))
        if outside.any():
            left, right = "[" if lo in closed else "(", "]" if hi in closed else ")"
            raise DomainError(f"value {x[outside][0]} outside support {left}{lo}, {hi}{right}")
    return x


def _apply(family: FamilySpec, x):
    """The family's transform at x on the support.  The transform is finite
    on the support, so an infinite one is an overflow of float64 and a data
    error."""
    x = check_support(family, x)
    with np.errstate(over="ignore"):
        out = family.row.t(x, family.member_params)
    if not np.all(np.isfinite(out)):
        raise DataError(f"the canonical value of {x[~np.isfinite(out)][0]} overflows float64")
    return out if np.ndim(x) else float(out)


def s_transform(family: FamilySpec, x):
    """Evaluate the gamma-type transform S at x (identity, x**2/2, 1/(2x), ...)."""
    if family.kind != Kind.GAMMA_TYPE:
        raise UsageError("s_transform applies to gamma-type families only")
    return _apply(family, x)


def cumulative_hazard(family: FamilySpec, x):
    """H(x) = -log(1 - G(x)) for the hazard family, R(x) = log G(x) for the
    reversed family.  Evaluation exactly at a support endpoint returns the
    limit (0) rather than raising."""
    if family.kind == Kind.GAMMA_TYPE:
        raise UsageError("cumulative_hazard applies to hazard families only")
    return _apply(family, x)


def cumulative_hazard_inverse(family: FamilySpec, u):
    """Inverse of cumulative_hazard, interpolated for a tabulated member,
    whose range is the table's."""
    u = np.asarray(u, dtype=float)
    if family.kind == Kind.GAMMA_TYPE:
        raise UsageError("cumulative_hazard_inverse applies to hazard families only")
    if family.kind == Kind.PROPORTIONAL_HAZARD and np.any(u < 0):
        raise DomainError("cumulative hazard values are nonnegative")
    if family.kind == Kind.PROPORTIONAL_REVERSED_HAZARD and np.any(u > 0):
        raise DomainError("reversed cumulative hazard values are nonpositive")
    a = family.member_params
    if family.row is _TABLE and not np.all((u >= a["table_h"][0]) & (u <= a["table_h"][-1])):
        # np.interp would clamp there
        raise DomainError(f"value outside the table's range [{a['table_h'][0]}, {a['table_h'][-1]}]")
    out = family.row.inv(u, a)
    return out if u.ndim else float(out)


def canonical_transform(family: FamilySpec, x):
    """The statistic with a Gamma (model 1) or exponential (model 2) law:
    S(x), H(x), or -R(x).  Nonnegative and nondecreasing along the record
    direction relevant for estimation."""
    if family.kind == Kind.GAMMA_TYPE:
        return s_transform(family, x)
    if family.kind == Kind.PROPORTIONAL_HAZARD:
        return cumulative_hazard(family, x)
    out = cumulative_hazard(family, x)
    return -out if np.ndim(out) else -float(out)


# ---------------------------------------------------------------------------
# JSON interface


def to_json_dict(family: FamilySpec) -> dict:
    out = {"kind": family.kind.value, "member": family.member.value}
    if family.kind == Kind.GAMMA_TYPE:
        out["p"] = family.shape_p
    params = dict(family.member_params)
    if family.member == Member.CUSTOM and "shift" in params:
        params = {"custom_H": {"shift": params["shift"], "power": params["power"], "scale": params["scale"]}}
    if params:
        out["params"] = params
    return out


def from_json_dict(doc: dict) -> FamilySpec:
    """A family from its JSON document; a malformed one is a usage error."""
    try:
        kind = Kind(doc["kind"])
        params = dict(doc.get("params", {}))
        if "custom_H" in params:
            params.update(params.pop("custom_H"))
        return FamilySpec(kind, doc["member"], doc.get("p"), params)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad family document: {exc}") from exc


def from_json(text: str) -> FamilySpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"family JSON does not parse: {exc}") from exc
    return from_json_dict(doc)
