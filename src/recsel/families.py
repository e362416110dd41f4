"""Distribution families for record-value inference.

Two model classes are supported:

* gamma-type families, where a member-specific transform S carries
  S(X) ~ Gamma(p, theta) on the scale parameterization, and
* proportional hazard / proportional reversed hazard families built on a
  known base cdf G, where H(X) = -log(1 - G(X)) (resp. -log G(X)) is
  exponential with mean theta.

FamilySpec values are immutable and safe to share between threads; sampling
takes an externally supplied generator.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import DomainError, UsageError


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


_MODEL1_MEMBERS = {
    Member.EXPONENTIAL,
    Member.GAMMA,
    Member.NORMAL_ZERO_MEAN,
    Member.INVERSE_GAUSSIAN,
    Member.WEIBULL_KNOWN_BETA,
    Member.RAYLEIGH,
}
_MODEL2_MEMBERS = {
    Member.EXPONENTIAL,
    Member.RAYLEIGH,
    Member.BETA,
    Member.PARETO,
    Member.BURR,
    Member.CUSTOM,
}

# Shape parameter fixed by the member; GAMMA leaves p free.
_FIXED_SHAPE = {
    Member.EXPONENTIAL: 1.0,
    Member.NORMAL_ZERO_MEAN: 0.5,
    Member.INVERSE_GAUSSIAN: 0.5,
    Member.WEIBULL_KNOWN_BETA: 1.0,
    Member.RAYLEIGH: 1.0,
}


@dataclass(frozen=True)
class FamilySpec:
    """One family instance: a model kind, a catalog member and its constants."""

    kind: Kind
    member: Member
    shape_p: float | None = None
    member_params: MappingProxyType = field(default_factory=lambda: MappingProxyType({}))
    support: tuple[float, float] = (-math.inf, math.inf)

    def __post_init__(self):
        if self.kind == Kind.GAMMA_TYPE:
            if self.member not in _MODEL1_MEMBERS:
                raise UsageError(f"{self.member.value} is not a gamma-type member")
            if self.shape_p is None or self.shape_p <= 0:
                raise UsageError("gamma-type families need shape_p > 0")
        else:
            if self.member not in _MODEL2_MEMBERS:
                raise UsageError(f"{self.member.value} is not a hazard-family member")

    def param(self, name: str):
        try:
            return self.member_params[name]
        except KeyError:
            raise UsageError(f"family {self.member.value} is missing parameter {name!r}") from None


# ---------------------------------------------------------------------------
# constructors


def gamma_type(member: Member | str, p: float | None = None, **params) -> FamilySpec:
    """Build a gamma-type family (catalog items: exponential, gamma, zero-mean
    normal, inverse Gaussian, Weibull with known beta, Rayleigh)."""
    member = Member(member)
    if member in _FIXED_SHAPE:
        fixed = _FIXED_SHAPE[member]
        if p is not None and not math.isclose(p, fixed):
            raise UsageError(f"{member.value} fixes p = {fixed}")
        p = fixed
    elif member == Member.GAMMA:
        if p is None:
            raise UsageError("gamma member needs an explicit shape p")
    if member == Member.WEIBULL_KNOWN_BETA:
        beta = float(params.pop("beta", 0.0))
        if beta <= 0:
            raise UsageError("weibull member needs beta > 0")
        params["beta"] = beta
    if params and member != Member.WEIBULL_KNOWN_BETA:
        raise UsageError(f"unexpected parameters for {member.value}: {sorted(params)}")
    support = (-math.inf, math.inf) if member == Member.NORMAL_ZERO_MEAN else (0.0, math.inf)
    return FamilySpec(Kind.GAMMA_TYPE, member, float(p), MappingProxyType(dict(params)), support)


def proportional_hazard(member: Member | str, **params) -> FamilySpec:
    """Build a proportional hazard family, survival (1 - G(x))**(1/theta)."""
    return _hazard_family(Kind.PROPORTIONAL_HAZARD, Member(member), params)


def proportional_reversed_hazard(member: Member | str, **params) -> FamilySpec:
    """Build a proportional reversed hazard family, cdf G(x)**(1/theta)."""
    return _hazard_family(Kind.PROPORTIONAL_REVERSED_HAZARD, Member(member), params)


def _hazard_family(kind: Kind, member: Member, params: dict) -> FamilySpec:
    params = dict(params)
    if member == Member.PARETO:
        if kind != Kind.PROPORTIONAL_HAZARD:
            raise UsageError("pareto is a proportional-hazard member")
        beta = float(params.pop("beta", 0.0))
        if beta <= 0:
            raise UsageError("pareto member needs beta > 0")
        support = (beta, math.inf)
        params = {"beta": beta}
    elif member == Member.BURR:
        if kind != Kind.PROPORTIONAL_HAZARD:
            raise UsageError("burr is a proportional-hazard member")
        alpha = float(params.pop("alpha", 0.0))
        if alpha <= 0:
            raise UsageError("burr member needs alpha > 0")
        support = (0.0, math.inf)
        params = {"alpha": alpha}
    elif member == Member.BETA:
        if kind != Kind.PROPORTIONAL_REVERSED_HAZARD:
            raise UsageError("beta is a reversed-hazard member")
        support = (0.0, 1.0)
        params = {}
    elif member in (Member.EXPONENTIAL, Member.RAYLEIGH):
        if kind != Kind.PROPORTIONAL_HAZARD:
            raise UsageError(f"{member.value} is a proportional-hazard member")
        support = (0.0, math.inf)
        params = {}
    elif member == Member.CUSTOM:
        return _custom_family(kind, params)
    else:
        raise UsageError(f"{member.value} is not a hazard-family member")
    if params.keys() - {"beta", "alpha"}:
        raise UsageError(f"unexpected parameters: {sorted(params)}")
    return FamilySpec(kind, member, None, MappingProxyType(params), support)


def _custom_family(kind: Kind, params: dict) -> FamilySpec:
    """Custom member given either a parametric transform ((x - shift)**power)/scale
    or a monotone table of (x, transform) pairs.

    Tabulated members support evaluation only (no sampling: the table does not
    determine the tail).
    """
    if {"shift", "power", "scale"} <= params.keys():
        shift = float(params["shift"])
        power = float(params["power"])
        scale = float(params["scale"])
        if power <= 0 or scale <= 0:
            raise UsageError("custom transform needs power > 0 and scale > 0")
        if kind == Kind.PROPORTIONAL_REVERSED_HAZARD:
            raise UsageError("parametric custom transform is defined for the hazard family")
        out = {"shift": shift, "power": power, "scale": scale}
        return FamilySpec(kind, Member.CUSTOM, None, MappingProxyType(out), (shift, math.inf))
    if {"table_x", "table_h"} <= params.keys():
        xs = np.asarray(params["table_x"], dtype=float)
        hs = np.asarray(params["table_h"], dtype=float)
        if xs.ndim != 1 or xs.shape != hs.shape or xs.size < 2:
            raise UsageError("custom table needs matching 1-d arrays with >= 2 points")
        if np.any(np.diff(xs) <= 0) or np.any(np.diff(hs) < 0):
            raise UsageError("custom table must be strictly increasing in x, nondecreasing in h")
        if kind == Kind.PROPORTIONAL_HAZARD and not math.isclose(hs[0], 0.0, abs_tol=1e-12):
            raise UsageError("tabulated H must start at 0 on the support lower endpoint")
        if kind == Kind.PROPORTIONAL_REVERSED_HAZARD and not math.isclose(hs[-1], 0.0, abs_tol=1e-12):
            raise UsageError("tabulated R must end at 0 on the support upper endpoint")
        out = {"table_x": tuple(map(float, xs)), "table_h": tuple(map(float, hs))}
        return FamilySpec(kind, Member.CUSTOM, None, MappingProxyType(out), (float(xs[0]), float(xs[-1])))
    raise UsageError("custom member needs either shift/power/scale or table_x/table_h")


# ---------------------------------------------------------------------------
# model-1 transform catalog


def _check_support(family: FamilySpec, x):
    x = np.asarray(x, dtype=float)
    lo, hi = family.support
    if np.any(x < lo) or np.any(x > hi):
        raise DomainError(f"value outside support [{lo}, {hi}]")
    return x


def s_transform(family: FamilySpec, x):
    """Evaluate the gamma-type transform S at x (identity, x**2/2, 1/(2x), ...)."""
    if family.kind != Kind.GAMMA_TYPE:
        raise UsageError("s_transform applies to gamma-type families only")
    x = _check_support(family, x)
    m = family.member
    if m in (Member.EXPONENTIAL, Member.GAMMA):
        out = x
    elif m in (Member.NORMAL_ZERO_MEAN, Member.RAYLEIGH):
        out = x * x / 2.0
    elif m == Member.INVERSE_GAUSSIAN:
        with np.errstate(divide="ignore"):
            out = 1.0 / (2.0 * x)
    elif m == Member.WEIBULL_KNOWN_BETA:
        out = x ** family.param("beta")
    else:  # pragma: no cover - constructor prevents this
        raise UsageError(f"no transform for {m.value}")
    return out if np.ndim(x) else float(out)


def _s_inverse(family: FamilySpec, y, rng: np.random.Generator | None):
    """Map a Gamma(p, theta) draw back to the observation scale."""
    m = family.member
    if m in (Member.EXPONENTIAL, Member.GAMMA):
        return y
    if m == Member.RAYLEIGH:
        return np.sqrt(2.0 * y)
    if m == Member.NORMAL_ZERO_MEAN:
        signs = rng.integers(0, 2, size=np.shape(y)) * 2 - 1
        return signs * np.sqrt(2.0 * y)
    if m == Member.INVERSE_GAUSSIAN:
        return 1.0 / (2.0 * y)
    if m == Member.WEIBULL_KNOWN_BETA:
        return y ** (1.0 / family.param("beta"))
    raise UsageError(f"no inverse transform for {m.value}")  # pragma: no cover


# ---------------------------------------------------------------------------
# model-2 transforms


def cumulative_hazard(family: FamilySpec, x):
    """H(x) = -log(1 - G(x)) for the hazard family, R(x) = log G(x) for the
    reversed family.  Evaluation exactly at a support endpoint returns the
    limit (0) rather than raising."""
    if family.kind == Kind.PROPORTIONAL_HAZARD:
        return _eval_H(family, x)
    if family.kind == Kind.PROPORTIONAL_REVERSED_HAZARD:
        return _eval_R(family, x)
    raise UsageError("cumulative_hazard applies to hazard families only")


def _eval_H(family: FamilySpec, x):
    x = _check_support(family, x)
    m = family.member
    if m == Member.EXPONENTIAL:
        out = x
    elif m == Member.RAYLEIGH:
        out = x * x / 2.0
    elif m == Member.PARETO:
        out = np.log(x / family.param("beta"))
    elif m == Member.BURR:
        out = np.log1p(x ** family.param("alpha"))
    elif m == Member.CUSTOM:
        if "shift" in family.member_params:
            out = (x - family.param("shift")) ** family.param("power") / family.param("scale")
        else:
            out = np.interp(x, family.param("table_x"), family.param("table_h"))
    else:  # pragma: no cover
        raise UsageError(f"no cumulative hazard for {m.value}")
    return out if np.ndim(x) else float(out)


def _eval_R(family: FamilySpec, x):
    x = _check_support(family, x)
    m = family.member
    if m == Member.BETA:
        with np.errstate(divide="ignore"):
            out = np.log(x)
    elif m == Member.CUSTOM:
        out = np.interp(x, family.param("table_x"), family.param("table_h"))
    else:  # pragma: no cover
        raise UsageError(f"no reversed hazard for {m.value}")
    return out if np.ndim(x) else float(out)


def hazard(family: FamilySpec, x):
    """Derivative of cumulative_hazard: the hazard rate g/(1-G), or the
    reversed hazard rate g/G for the reversed family."""
    x = _check_support(family, x)
    m = family.member
    if family.kind == Kind.PROPORTIONAL_HAZARD:
        if m == Member.EXPONENTIAL:
            out = np.ones_like(x)
        elif m == Member.RAYLEIGH:
            out = x
        elif m == Member.PARETO:
            out = 1.0 / x
        elif m == Member.BURR:
            a = family.param("alpha")
            out = a * x ** (a - 1.0) / (1.0 + x**a)
        elif m == Member.CUSTOM and "shift" in family.member_params:
            q = family.param("power")
            out = q * (x - family.param("shift")) ** (q - 1.0) / family.param("scale")
        elif m == Member.CUSTOM:
            out = _table_slope(family, x)
        else:  # pragma: no cover
            raise UsageError(f"no hazard for {m.value}")
    elif family.kind == Kind.PROPORTIONAL_REVERSED_HAZARD:
        if m == Member.BETA:
            with np.errstate(divide="ignore"):
                out = 1.0 / x
        elif m == Member.CUSTOM:
            out = _table_slope(family, x)
        else:  # pragma: no cover
            raise UsageError(f"no reversed hazard for {m.value}")
    else:
        raise UsageError("hazard applies to hazard families only")
    return out if np.ndim(x) else float(out)


def _table_slope(family: FamilySpec, x):
    xs = np.asarray(family.param("table_x"))
    hs = np.asarray(family.param("table_h"))
    idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
    return (hs[idx + 1] - hs[idx]) / (xs[idx + 1] - xs[idx])


def has_closed_inverse(family: FamilySpec) -> bool:
    return family.member != Member.CUSTOM or "shift" in family.member_params


def cumulative_hazard_inverse(family: FamilySpec, u):
    """Inverse of cumulative_hazard on the support (closed-form members only)."""
    u = np.asarray(u, dtype=float)
    m = family.member
    if family.kind == Kind.PROPORTIONAL_HAZARD:
        if np.any(u < 0):
            raise DomainError("cumulative hazard values are nonnegative")
        if m == Member.EXPONENTIAL:
            out = u
        elif m == Member.RAYLEIGH:
            out = np.sqrt(2.0 * u)
        elif m == Member.PARETO:
            out = family.param("beta") * np.exp(u)
        elif m == Member.BURR:
            out = np.expm1(u) ** (1.0 / family.param("alpha"))
        elif m == Member.CUSTOM and "shift" in family.member_params:
            out = family.param("shift") + (family.param("scale") * u) ** (1.0 / family.param("power"))
        else:
            raise UsageError("tabulated custom transform has no closed-form inverse")
    elif family.kind == Kind.PROPORTIONAL_REVERSED_HAZARD:
        if np.any(u > 0):
            raise DomainError("reversed cumulative hazard values are nonpositive")
        if m == Member.BETA:
            out = np.exp(u)
        else:
            raise UsageError("tabulated custom transform has no closed-form inverse")
    else:
        raise UsageError("cumulative_hazard_inverse applies to hazard families only")
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


def estimation_record_direction(family: FamilySpec) -> str:
    """Raw-scale record direction whose records carry the selection estimand:
    'upper' except for the reversed-hazard family, whose canonical exponential
    statistic -log G(X) grows as X falls."""
    if family.kind == Kind.PROPORTIONAL_REVERSED_HAZARD:
        return "lower"
    return "upper"


# ---------------------------------------------------------------------------
# sampling / cdf / pdf


def _check_theta(theta: float) -> float:
    theta = float(theta)
    if not theta > 0:
        raise DomainError("theta must be > 0")
    return theta


def sample(family: FamilySpec, theta: float, rng: np.random.Generator, size=None):
    """Draw from F_theta.  Gamma-type members are generated through the
    Gamma(p, theta) transform representation; hazard families through the
    exponential representation of the cumulative (reversed) hazard."""
    theta = _check_theta(theta)
    if family.kind == Kind.GAMMA_TYPE:
        y = rng.standard_gamma(family.shape_p, size=size) * theta
        out = _s_inverse(family, y, rng)
    else:
        if not has_closed_inverse(family):
            raise UsageError("tabulated custom members do not support sampling")
        e = rng.standard_exponential(size=size) * theta
        if family.kind == Kind.PROPORTIONAL_HAZARD:
            out = cumulative_hazard_inverse(family, e)
        else:
            out = cumulative_hazard_inverse(family, -e)
    if size is None:
        return float(out)
    return np.asarray(out)


def cdf(family: FamilySpec, theta: float, x):
    """F_theta(x); 0 below and 1 above the support."""
    theta = _check_theta(theta)
    x = np.asarray(x, dtype=float)
    lo, hi = family.support
    inside = np.clip(x, lo, hi)
    if family.kind == Kind.GAMMA_TYPE:
        out = _m1_dist(family, theta).cdf(inside)
    elif family.kind == Kind.PROPORTIONAL_HAZARD:
        out = -np.expm1(-_eval_H(family, inside) / theta)
    else:
        out = np.exp(_eval_R(family, inside) / theta)
    out = np.where(x < lo, 0.0, np.where(x > hi, 1.0, out))
    return out if x.ndim else float(out)


def pdf(family: FamilySpec, theta: float, x):
    """f_theta(x); 0 outside the support."""
    theta = _check_theta(theta)
    x = np.asarray(x, dtype=float)
    lo, hi = family.support
    outside = (x < lo) | (x > hi)
    inside = np.clip(x, lo, hi)
    if family.kind == Kind.GAMMA_TYPE:
        out = _m1_dist(family, theta).pdf(inside)
    elif family.kind == Kind.PROPORTIONAL_HAZARD:
        out = hazard(family, inside) / theta * np.exp(-_eval_H(family, inside) / theta)
    else:
        out = hazard(family, inside) / theta * np.exp(_eval_R(family, inside) / theta)
    out = np.where(outside, 0.0, out)
    return out if x.ndim else float(out)


def _m1_dist(family: FamilySpec, theta: float):
    """Frozen scipy distribution matching the gamma-type member.

    scipy.stats is imported here, its only use, so that importing the
    package (and every CLI subcommand) does not pay for it."""
    from scipy import stats

    m = family.member
    if m == Member.EXPONENTIAL:
        return stats.expon(scale=theta)
    if m == Member.GAMMA:
        return stats.gamma(family.shape_p, scale=theta)
    if m == Member.NORMAL_ZERO_MEAN:
        return stats.norm(scale=math.sqrt(theta))
    if m == Member.INVERSE_GAUSSIAN:
        # mean-infinity limit: the one-sided stable law with S(x) = 1/(2x)
        return stats.levy(scale=1.0 / theta)
    if m == Member.WEIBULL_KNOWN_BETA:
        beta = family.param("beta")
        return stats.weibull_min(beta, scale=theta ** (1.0 / beta))
    if m == Member.RAYLEIGH:
        return stats.rayleigh(scale=math.sqrt(theta))
    raise UsageError(f"no distribution for {m.value}")  # pragma: no cover


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
        member = Member(doc["member"])
        params = dict(doc.get("params", {}))
        if "custom_H" in params:
            params.update(params.pop("custom_H"))
        if kind == Kind.GAMMA_TYPE:
            return gamma_type(member, p=doc.get("p"), **params)
        if kind == Kind.PROPORTIONAL_HAZARD:
            return proportional_hazard(member, **params)
        return proportional_reversed_hazard(member, **params)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad family document: {exc}") from exc


def to_json(family: FamilySpec) -> str:
    return json.dumps(to_json_dict(family), sort_keys=True)


def from_json(text: str) -> FamilySpec:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"family JSON does not parse: {exc}") from exc
    return from_json_dict(doc)
