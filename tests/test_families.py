"""Family catalog: transforms and supports, checked against named reference laws."""

import math
import re
import zlib

import numpy as np
import pytest
from scipy import stats

from recsel import families
from recsel.errors import DomainError, UsageError
from recsel.families import Kind, Member

RNG = lambda seed: np.random.default_rng(seed)


def all_model1():
    return [
        families.gamma_type(Member.EXPONENTIAL),
        families.gamma_type(Member.GAMMA, p=0.7),
        families.gamma_type(Member.GAMMA, p=2.0),
        families.gamma_type(Member.NORMAL_ZERO_MEAN),
        families.gamma_type(Member.INVERSE_GAUSSIAN),
        families.gamma_type(Member.WEIBULL_KNOWN_BETA, beta=1.7),
        families.gamma_type(Member.RAYLEIGH),
    ]


def all_model2():
    return [
        families.proportional_hazard(Member.EXPONENTIAL),
        families.proportional_hazard(Member.RAYLEIGH),
        families.proportional_hazard(Member.PARETO, beta=2.0),
        families.proportional_hazard(Member.BURR, alpha=1.5),
        families.proportional_hazard(Member.CUSTOM, shift=4.0, power=1.9, scale=1.0),
        families.proportional_reversed_hazard(Member.BETA),
    ]


class TestTransforms:
    def test_rayleigh_s(self):
        fam = families.gamma_type(Member.RAYLEIGH)
        assert families.s_transform(fam, 2.0) == pytest.approx(2.0)

    def test_exponential_identity(self):
        fam = families.gamma_type(Member.EXPONENTIAL)
        assert families.s_transform(fam, 3.7) == 3.7

    def test_inverse_gaussian_s(self):
        fam = families.gamma_type(Member.INVERSE_GAUSSIAN)
        assert families.s_transform(fam, 0.25) == pytest.approx(2.0)

    def test_weibull_s(self):
        fam = families.gamma_type(Member.WEIBULL_KNOWN_BETA, beta=3.0)
        assert families.s_transform(fam, 2.0) == pytest.approx(8.0)

    def test_kind_mismatch(self):
        with pytest.raises(UsageError):
            families.s_transform(families.proportional_hazard(Member.EXPONENTIAL), 1.0)

    def test_outside_support(self):
        for x in (-1.0, math.nan):
            with pytest.raises(DomainError, match=r"outside support \[0.0, inf\)"):
                families.s_transform(families.gamma_type(Member.RAYLEIGH), x)


class TestCumulativeHazard:
    def test_exponential_identity(self):
        fam = families.proportional_hazard(Member.EXPONENTIAL)
        assert families.cumulative_hazard(fam, 1.3) == pytest.approx(1.3)

    def test_rainfall_value(self):
        fam = families.proportional_hazard(Member.CUSTOM, shift=4.0, power=1.9, scale=1.0)
        assert families.cumulative_hazard(fam, 12.69) == pytest.approx(8.69**1.9, rel=1e-12)

    def test_beta_log(self):
        fam = families.proportional_reversed_hazard(Member.BETA)
        assert families.cumulative_hazard(fam, 0.5) == pytest.approx(math.log(0.5))

    def test_endpoint_limits(self):
        rainfall = families.proportional_hazard(Member.CUSTOM, shift=4.0, power=1.9, scale=1.0)
        assert families.cumulative_hazard(rainfall, 4.0) == 0.0
        beta = families.proportional_reversed_hazard(Member.BETA)
        assert families.cumulative_hazard(beta, 1.0) == 0.0
        pareto = families.proportional_hazard(Member.PARETO, beta=2.0)
        assert families.cumulative_hazard(pareto, 2.0) == 0.0

    def test_outside_support(self):
        fam = families.proportional_hazard(Member.CUSTOM, shift=4.0, power=1.9, scale=1.0)
        for x in (3.5, math.nan):
            with pytest.raises(DomainError):
                families.cumulative_hazard(fam, x)

    @pytest.mark.parametrize("fam", all_model2(), ids=lambda f: f"{f.kind.value}-{f.member.value}")
    def test_nondecreasing(self, fam):
        lo, hi = fam.support
        lo = lo if np.isfinite(lo) else 0.0
        hi = hi if np.isfinite(hi) else lo + 50.0
        xs = np.linspace(lo + 1e-9, hi - 1e-9, 200)
        h = families.cumulative_hazard(fam, xs)
        assert np.all(np.diff(h) >= 0)

    def test_tabulated_matches_parametric(self):
        xs = np.linspace(4.0, 60.0, 4001)
        hs = (xs - 4.0) ** 1.9
        tab = families.proportional_hazard(Member.CUSTOM, table_x=xs, table_h=hs)
        exact = families.proportional_hazard(Member.CUSTOM, shift=4.0, power=1.9, scale=1.0)
        x = np.linspace(4.5, 59.0, 37)
        assert families.cumulative_hazard(tab, x) == pytest.approx(
            families.cumulative_hazard(exact, x), rel=1e-3)
        u = families.cumulative_hazard(exact, x)
        assert families.cumulative_hazard_inverse(tab, u) == pytest.approx(
            families.cumulative_hazard_inverse(exact, u), rel=1e-4)

    @pytest.mark.parametrize("fam", [
        families.proportional_hazard(Member.CUSTOM, table_x=[1.0, 2.0, 3.0, 5.0, 6.0],
                                     table_h=[0.0, 0.5, 2.0, 2.0, 4.5]),
        families.proportional_reversed_hazard(Member.CUSTOM, table_x=[0.5, 1.0, 2.0, 3.0],
                                              table_h=[-4.0, -1.0, -1.0, 0.0]),
    ], ids=lambda f: f.kind.value)
    def test_tabulated_inverse_round_trip(self, fam):
        # H^-1(H(x)) = x off the flat piece, where H is constant; H(H^-1(u))
        # = u on the whole range, the flat piece's value included
        xs, hs = (np.asarray(fam.member_params[k]) for k in ("table_x", "table_h"))
        flat = np.flatnonzero(np.diff(hs) == 0)[0]
        x = np.linspace(xs[0], xs[-1], 97)
        x = x[(x <= xs[flat]) | (x >= xs[flat + 1])]
        back = families.cumulative_hazard_inverse(fam, families.cumulative_hazard(fam, x))
        assert back == pytest.approx(x, rel=1e-12)
        u = np.append(np.linspace(hs[0], hs[-1], 97), hs[flat])
        assert families.cumulative_hazard(
            fam, families.cumulative_hazard_inverse(fam, u)) == pytest.approx(u, rel=1e-12, abs=1e-15)
        # np.interp would clamp past the table's ends: a DomainError instead
        # (past the end at 0, the kind's sign check gives it)
        for bad in (hs[0] - 1e-9, hs[-1] + 1e-9, math.nan):
            with pytest.raises(DomainError):
                families.cumulative_hazard_inverse(fam, [hs[0], bad])
        far = hs[-1] + 1e-9 if fam.kind == Kind.PROPORTIONAL_HAZARD else hs[0] - 1e-9
        with pytest.raises(DomainError, match=re.escape(f"outside the table's range [{hs[0]}, {hs[-1]}]")):
            families.cumulative_hazard_inverse(fam, far)

    @pytest.mark.parametrize("build, table_h, message", [
        (families.proportional_hazard, [1e-13, -1.0, 2.0], "nondecreasing in h"),
        (families.proportional_hazard, [1e-11, 1.0, 2.0], "tabulated H must start at 0"),
        (families.proportional_reversed_hazard, [-2.0, 1.0, -1e-13], "nondecreasing in h"),
        (families.proportional_reversed_hazard, [-2.0, -1.0, -1e-11], "tabulated R must end at 0"),
    ], ids=["phr-decreasing", "phr-start", "prhr-decreasing", "prhr-end"])
    def test_bad_table_endpoint_is_usage_error(self, build, table_h, message):
        # an endpoint within 1e-12 of 0 is set to 0 before the monotonicity
        # check; a table that still decreases, or an endpoint past the
        # tolerance, is a usage error
        with pytest.raises(UsageError, match=message):
            build(Member.CUSTOM, table_x=[0.0, 1.0, 2.0], table_h=table_h)


class TestSupport:
    @pytest.mark.parametrize("fam, x, support", [
        (families.gamma_type(Member.INVERSE_GAUSSIAN), 0.0, "(0.0, inf)"),
        (families.proportional_reversed_hazard(Member.BETA), 0.0, "(0.0, 1.0]"),
        (families.proportional_reversed_hazard(Member.BETA), 1.5, "(0.0, 1.0]"),
        (families.proportional_hazard(Member.PARETO, beta=2.0), 1.0, "[2.0, inf)"),
        (families.gamma_type(Member.NORMAL_ZERO_MEAN), -math.inf, "(-inf, inf)"),
        (families.gamma_type(Member.INVERSE_GAUSSIAN), math.inf, "(0.0, inf)"),
        (families.proportional_hazard(Member.EXPONENTIAL), math.nan, "[0.0, inf)"),
    ], ids=["ig-zero", "beta-zero", "beta-above", "pareto-below", "normal-inf", "ig-inf", "nan"])
    def test_outside_names_the_support(self, fam, x, support):
        # an endpoint where the transform is infinite is outside, and so is
        # every infinite endpoint
        with pytest.raises(DomainError, match=re.escape(f"outside support {support}")):
            families.check_support(fam, [0.5, x])

    def test_closed_endpoints_are_inside(self):
        beta = families.proportional_reversed_hazard(Member.BETA)
        assert families.check_support(beta, [1.0, 0.5]).tolist() == [1.0, 0.5]
        pareto = families.proportional_hazard(Member.PARETO, beta=2.0)
        assert families.check_support(pareto, 2.0) == 2.0
        tab = families.proportional_reversed_hazard(Member.CUSTOM, table_x=[1.0, 2.0], table_h=[-3.0, 0.0])
        assert families.check_support(tab, [1.0, 2.0]).tolist() == [1.0, 2.0]


def reference_law(fam, theta):
    """scipy's law of X for the member at theta, written from the named
    distribution rather than from the member's transform."""
    a = fam.member_params
    laws = {
        (Kind.GAMMA_TYPE, Member.EXPONENTIAL): lambda: stats.expon(scale=theta),
        (Kind.GAMMA_TYPE, Member.GAMMA): lambda: stats.gamma(fam.shape_p, scale=theta),
        (Kind.GAMMA_TYPE, Member.NORMAL_ZERO_MEAN): lambda: stats.norm(scale=math.sqrt(theta)),
        (Kind.GAMMA_TYPE, Member.INVERSE_GAUSSIAN): lambda: stats.levy(scale=1.0 / theta),
        (Kind.GAMMA_TYPE, Member.WEIBULL_KNOWN_BETA): lambda: stats.weibull_min(
            a["beta"], scale=theta ** (1.0 / a["beta"])),
        (Kind.GAMMA_TYPE, Member.RAYLEIGH): lambda: stats.rayleigh(scale=math.sqrt(theta)),
        (Kind.PROPORTIONAL_HAZARD, Member.EXPONENTIAL): lambda: stats.expon(scale=theta),
        (Kind.PROPORTIONAL_HAZARD, Member.RAYLEIGH): lambda: stats.rayleigh(scale=math.sqrt(theta)),
        (Kind.PROPORTIONAL_HAZARD, Member.PARETO): lambda: stats.pareto(1.0 / theta, scale=a["beta"]),
        (Kind.PROPORTIONAL_HAZARD, Member.BURR): lambda: stats.burr12(a["alpha"], 1.0 / theta),
        (Kind.PROPORTIONAL_HAZARD, Member.CUSTOM): lambda: stats.weibull_min(
            a["power"], loc=a["shift"], scale=(a["scale"] * theta) ** (1.0 / a["power"])),
        (Kind.PROPORTIONAL_REVERSED_HAZARD, Member.BETA): lambda: stats.beta(1.0 / theta, 1.0),
    }
    return laws[(fam.kind, fam.member)]()


def reference_sample(fam, theta, n):
    seed = zlib.crc32(repr((fam.kind.value, fam.member.value, fam.shape_p, theta, n)).encode())
    return reference_law(fam, theta).rvs(size=n, random_state=RNG(seed))


def canonical_law(fam, theta):
    """The law of the canonical statistic: Gamma(p, theta) or Exp(theta)."""
    if fam.kind == Kind.GAMMA_TYPE:
        return stats.gamma(fam.shape_p, scale=theta)
    return stats.expon(scale=theta)


class TestSampling:
    """X drawn from each member's reference law, checked through the
    member's transform."""

    @pytest.mark.parametrize("fam", all_model1(), ids=lambda f: f.member.value + str(f.shape_p))
    @pytest.mark.parametrize("theta", [0.5, 1.0, 5.0])
    def test_model1_transform_moment(self, fam, theta):
        # S(X)/p has mean theta and sd theta/sqrt(p)
        n = 10**5
        s = families.s_transform(fam, reference_sample(fam, theta, n)) / fam.shape_p
        se = theta / math.sqrt(fam.shape_p * n)
        assert abs(s.mean() - theta) < 4 * se

    @pytest.mark.parametrize("fam", all_model2(), ids=lambda f: f"{f.kind.value}-{f.member.value}")
    @pytest.mark.parametrize("theta", [0.7, 3.0])
    def test_model2_probability_integral(self, fam, theta):
        # H(X), or -R(X), is Exp(theta) under the reference law
        h = families.canonical_transform(fam, reference_sample(fam, theta, 10**5))
        assert stats.kstest(h, canonical_law(fam, theta).cdf).pvalue > 1e-3

    def test_reversed_hazard_exponential_moment(self):
        # E[-R(X)] = theta for the reversed family
        fam = families.proportional_reversed_hazard(Member.BETA)
        theta = 1.7
        w = families.canonical_transform(fam, reference_sample(fam, theta, 10**5))
        assert abs(w.mean() - theta) < 4 * theta / math.sqrt(10**5)

    @pytest.mark.parametrize("fam", all_model2(), ids=lambda f: f"{f.kind.value}-{f.member.value}")
    def test_inverse_undoes_the_transform(self, fam):
        x = reference_sample(fam, 1.0, 1000)
        back = families.cumulative_hazard_inverse(fam, families.cumulative_hazard(fam, x))
        assert back == pytest.approx(x, rel=1e-9)

    @pytest.mark.parametrize("u", [700.0, 709.8, 863.47, 1060.0])
    def test_burr_inverse_past_the_expm1_overflow(self, u):
        """expm1(u) overflows from u ~ 709.78 on, though H^-1(u) ~ e^(u/alpha)
        is finite: the inverse stays finite and H undoes it, with no numpy
        warning (warnings are errors here)."""
        fam = families.proportional_hazard(Member.BURR, alpha=1.5)
        x = families.cumulative_hazard_inverse(fam, u)
        assert math.isfinite(x)
        assert families.cumulative_hazard(fam, x) == pytest.approx(u, rel=1e-12)


class TestCdfPdf:
    """The reference law's cdf against the member's transform."""

    @pytest.mark.parametrize("fam", all_model1(), ids=lambda f: f.member.value + str(f.shape_p))
    def test_model1_cdf_matches_sample(self, fam):
        for theta in (0.7, 3.0):
            s = families.s_transform(fam, reference_sample(fam, theta, 10**5))
            assert stats.kstest(s, canonical_law(fam, theta).cdf).pvalue > 1e-3


class TestSpecAndJson:
    def test_defaults_and_validation(self):
        with pytest.raises(UsageError):
            families.gamma_type(Member.GAMMA)  # p required
        with pytest.raises(UsageError):
            families.gamma_type(Member.RAYLEIGH, p=2.0)  # p fixed at 1
        with pytest.raises(UsageError):
            families.proportional_hazard(Member.BETA)  # reversed-family member
        with pytest.raises(UsageError):
            families.proportional_hazard(Member.PARETO, beta=-1.0)

    def test_unknown_parameters(self):
        with pytest.raises(UsageError):
            families.proportional_hazard("exponential", foo=1)

    def test_roundtrip(self):
        for fam in all_model1() + all_model2():
            doc = families.to_json_dict(fam)
            back = families.from_json_dict(doc)
            assert back == fam

    def test_custom_h_json_form(self):
        text = '{"kind": "proportional_hazard", "member": "custom", "params": {"custom_H": {"shift": 4, "power": 1.9, "scale": 1}}}'
        fam = families.from_json(text)
        assert fam.support[0] == 4.0
        assert families.cumulative_hazard(fam, 12.69) == pytest.approx(8.69**1.9)
        assert "custom_H" in families.to_json_dict(fam)["params"]

    def test_bad_json(self):
        with pytest.raises(UsageError):
            families.from_json("{not json")
        with pytest.raises(UsageError):
            families.from_json('{"kind": "nope", "member": "beta"}')
