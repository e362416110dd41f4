"""Family catalog: transforms, sampling laws, cdf/pdf consistency."""

import math

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
        with pytest.raises(DomainError):
            families.s_transform(families.gamma_type(Member.RAYLEIGH), -1.0)


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
        with pytest.raises(DomainError):
            families.cumulative_hazard(fam, 3.5)

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
        with pytest.raises(UsageError):
            families.sample(tab, 1.0, RNG(0))


class TestSampling:
    def test_phr_exponential_mean(self):
        fam = families.proportional_hazard(Member.EXPONENTIAL)
        x = families.sample(fam, 2.0, RNG(101), size=10**6)
        h = families.cumulative_hazard(fam, x)
        assert abs(h.mean() - 2.0) < 0.01

    def test_gamma_p1_mean(self):
        fam = families.gamma_type(Member.EXPONENTIAL)
        x = families.sample(fam, 1.0, RNG(102), size=10**6)
        assert abs(x.mean() - 1.0) < 0.01

    def test_beta_theta1_uniform(self):
        fam = families.proportional_reversed_hazard(Member.BETA)
        x = families.sample(fam, 1.0, RNG(103), size=10**6)
        d = stats.kstest(x, "uniform").statistic
        assert d < 0.002

    def test_theta_positive(self):
        fam = families.gamma_type(Member.RAYLEIGH)
        with pytest.raises(DomainError):
            families.sample(fam, 0.0, RNG(0))

    @pytest.mark.parametrize("fam", all_model1(), ids=lambda f: f.member.value + str(f.shape_p))
    @pytest.mark.parametrize("theta", [0.5, 1.0, 5.0])
    def test_model1_transform_moment(self, fam, theta):
        # S(X)/p has mean theta and sd theta/sqrt(p)
        n = 10**5
        x = families.sample(fam, theta, RNG(hash((fam.member.value, theta)) % 2**31), size=n)
        s = families.s_transform(fam, x) / fam.shape_p
        se = theta / math.sqrt(fam.shape_p * n)
        assert abs(s.mean() - theta) < 4 * se

    @pytest.mark.parametrize("fam", all_model2(), ids=lambda f: f"{f.kind.value}-{f.member.value}")
    @pytest.mark.parametrize("theta", [0.7, 3.0])
    def test_model2_probability_integral(self, fam, theta):
        n = 10**5
        x = families.sample(fam, theta, RNG(hash((fam.member.value, fam.kind.value, theta)) % 2**31), size=n)
        u = families.cdf(fam, theta, x)
        d = stats.kstest(u, "uniform").statistic
        assert d < 0.01

    def test_reversed_hazard_exponential_moment(self):
        # E[-R(X)] = theta holds for the reversed family even though only the
        # probability-integral check is contract-level
        fam = families.proportional_reversed_hazard(Member.BETA)
        theta = 1.7
        x = families.sample(fam, theta, RNG(104), size=10**5)
        w = families.canonical_transform(fam, x)
        assert abs(w.mean() - theta) < 4 * theta / math.sqrt(10**5)


class TestCdfPdf:
    def test_exponential_value(self):
        fam = families.proportional_hazard(Member.EXPONENTIAL)
        assert families.cdf(fam, 2.0, 2.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_rainfall_fitted_cdf(self):
        fam = families.proportional_hazard(Member.CUSTOM, shift=4.0, power=1.9, scale=1.0)
        assert families.cdf(fam, 113.23, 4.0) == 0.0
        expected = 1.0 - math.exp(-(10.0**1.9) / 113.23)
        assert families.cdf(fam, 113.23, 14.0) == pytest.approx(expected, rel=1e-12)

    def test_outside_support(self):
        fam = families.proportional_hazard(Member.PARETO, beta=2.0)
        assert families.cdf(fam, 1.0, 1.0) == 0.0
        assert families.pdf(fam, 1.0, 1.0) == 0.0
        beta = families.proportional_reversed_hazard(Member.BETA)
        assert families.cdf(beta, 1.0, 2.0) == 1.0

    @pytest.mark.parametrize("fam", all_model1() + all_model2(),
                             ids=lambda f: f"{f.kind.value}-{f.member.value}-{f.shape_p}")
    def test_pdf_is_cdf_derivative(self, fam):
        theta = 1.3
        qs = np.linspace(0.05, 0.9, 20)
        if fam.kind == Kind.GAMMA_TYPE:
            xs = np.quantile(families.sample(fam, theta, RNG(9), size=20000), qs)
        else:
            lo, hi = fam.support
            hi = hi if np.isfinite(hi) else np.quantile(
                families.sample(fam, theta, RNG(9), size=20000), 0.95)
            xs = lo + (hi - lo) * qs
        for x in xs:
            h = 1e-6 * max(1.0, abs(x))
            num = (families.cdf(fam, theta, x + h) - families.cdf(fam, theta, x - h)) / (2 * h)
            pdf = families.pdf(fam, theta, x)
            assert num == pytest.approx(pdf, rel=1e-4, abs=1e-10)

    @pytest.mark.parametrize("fam", all_model1(), ids=lambda f: f.member.value + str(f.shape_p))
    def test_model1_cdf_matches_sample(self, fam):
        theta = 2.3
        x = families.sample(fam, theta, RNG(33), size=10**5)
        u = families.cdf(fam, theta, x)
        assert stats.kstest(u, "uniform").statistic < 0.01


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
