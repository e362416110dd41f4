"""Large-n record diagnostics: the exact iid chain, limit laws and risk decay."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from recsel import asymptotics, families, montecarlo
from recsel.errors import UsageError
from recsel.families import Member
from recsel.montecarlo import ParameterSequenceModel

CONST = ParameterSequenceModel.constant(1.0)


class TestExactChainAgainstStreaming:
    """The closed-form chain must agree in law with literal simulation."""

    def setup_method(self):
        rng = np.random.default_rng(10)
        self.vals, times = montecarlo.record_chain(rng.standard_exponential((10**4, 7)))
        self.times = times[:, -1]
        # gamma-type p = 1 is the same iid exponential law, and the engine
        # streams it (constant-theta hazard families run this chain)
        cfg = montecarlo.SimulationConfig(
            family=families.gamma_type(Member.GAMMA, p=1.0),
            theta_model=CONST, n_target=4, replications=10**4, master_seed=55)
        draws = montecarlo.simulate_records(cfg, threads=4)
        ok = draws.ok
        self.svals = draws.values[ok]
        self.stimes = draws.times[ok].astype(float)

    def test_record_time_law(self):
        d = sps.ks_2samp(self.times, self.stimes[:, -1]).statistic
        assert d < 1.628 * math.sqrt(2.0 / 10**4)

    def test_record_value_law(self):
        d = sps.ks_2samp(self.vals[:, -1], self.svals[:, -1]).statistic
        assert d < 1.628 * math.sqrt(2.0 / 10**4)
        # values are a Gamma(n) sum of spacings
        d2 = sps.kstest(self.vals[:, -1], sps.gamma(4).cdf).statistic
        assert d2 < 0.02

    def test_value_time_dependence(self):
        c_chain = np.corrcoef(self.vals[:, -1], np.log(self.times))[0, 1]
        c_stream = np.corrcoef(self.svals[:, -1], np.log(self.stimes[:, -1]))[0, 1]
        assert c_chain == pytest.approx(c_stream, abs=0.03)
        assert c_chain > 0.5


class TestNormalizedSample:
    def test_gumbel_marginal(self):
        rng = np.random.default_rng(11)
        u_n, _, _ = asymptotics.normalized_sample(CONST, 30, 10**4, rng)
        d = sps.kstest(u_n, lambda x: asymptotics.gumbel_cdf(x)).statistic
        assert d < 0.05

    def test_joint_grid_deviation_shrinks(self):
        # over 20 seeds at 10**5 replicates the deviation averages 0.085,
        # 0.015 and 0.002 (sd 0.001 each): each drop is over 9 standard
        # errors of the difference.  From n ~ 10 on it sits at the noise.
        grid = [(y, z) for y in (-1.0, 0.0, 1.0, 2.0) for z in (-1.0, 0.0, 1.0, 2.0)]
        devs = []
        for n in (3, 5, 30):
            rng = np.random.default_rng(12)
            u_n, u_p, _ = asymptotics.normalized_sample(CONST, n, 10**5, rng)
            dev = max(
                abs(float(np.mean((u_n <= y) & (u_p <= z))) - asymptotics.gumbel_joint_cdf(y, z))
                for y, z in grid)
            devs.append(dev)
        assert devs[0] > devs[1] > devs[2]
        assert devs[-1] < 0.02

    def test_time_clt(self):
        rng = np.random.default_rng(13)
        _, _, t_star = asymptotics.normalized_sample(CONST, 30, 10**4, rng)
        d = sps.kstest(t_star, "norm").statistic
        assert d < 0.1

    def test_ordering_invariant(self):
        rng = np.random.default_rng(14)
        u_n, u_p, _ = asymptotics.normalized_sample(CONST, 8, 500, rng)
        assert u_n.shape == u_p.shape == (500,)
        assert np.all(u_n > u_p)


class TestFrechetCorrelation:
    def test_trend_and_threshold(self):
        cors = []
        for n in (10, 25, 50):
            rng = np.random.default_rng(16)
            cors.append(asymptotics.frechet_correlation(CONST, n, 10**4, rng))
        assert cors[0] < cors[1] < cors[2]
        assert cors[-1] > 0.9
        assert all(-1.0 <= c <= 1.0 for c in cors)

    def test_matches_independent_spacing_formula(self):
        # with iid exponential spacings the correlation is sqrt((n-1)/n)
        rng = np.random.default_rng(17)
        c = asymptotics.frechet_correlation(CONST, 25, 2 * 10**4, rng)
        assert c == pytest.approx(math.sqrt(24.0 / 25.0), abs=0.01)

    def test_first_record_rejected(self):
        with pytest.raises(UsageError):
            asymptotics.frechet_correlation(CONST, 1, 100, np.random.default_rng(0))


class TestRiskRate:
    def test_constant_matches_one_over_n(self):
        rng = np.random.default_rng(18)
        points = asymptotics.risk_rate(CONST, [5, 10, 20, 40], 2 * 10**4, rng)
        for p in points:
            assert abs(p.risk - 1.0) < 4 * p.se
            assert p.risk >= 0
        rates = [p.rate for p in points]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_first_record_and_streamed_schemes(self):
        # at n = 1 the previous record is 0, so the estimator is the first record
        rng = np.random.default_rng(20)
        (first,) = asymptotics.risk_rate(CONST, [1], 2 * 10**4, rng)
        assert abs(first.risk - 1.0) < 4 * first.se
        # no other scheme is simulated: the diagnostics need constant theta
        with pytest.raises(UsageError, match="stochastic_geometric"):
            asymptotics.risk_rate(ParameterSequenceModel.stochastic_geometric(), [1, 3], 2000, rng)

    def test_identity_anchor_under_changing_thetas(self):
        # risk of the spacing estimator equals E[theta_selected^2] at finite n
        model = ParameterSequenceModel.stochastic_geometric()
        cfg = montecarlo.SimulationConfig(
            family=families.proportional_hazard(Member.EXPONENTIAL), theta_model=model,
            n_target=3, replications=10**5, master_seed=606)
        draws = montecarlo.simulate_records(cfg, threads=4)
        ok = draws.ok
        spac = draws.values[ok, 2] - draws.values[ok, 1]
        err2 = (spac - draws.thetas[ok, 2]) ** 2
        diff = err2 - draws.thetas[ok, 2] ** 2
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) < 4 * se


@pytest.mark.parametrize("diagnostic", [
    lambda model, rng: asymptotics.normalized_sample(model, 5, 100, rng),
    lambda model, rng: asymptotics.frechet_correlation(model, 5, 100, rng),
    lambda model, rng: asymptotics.risk_rate(model, [5], 100, rng),
], ids=["normalized_sample", "frechet_correlation", "risk_rate"])
@pytest.mark.parametrize("model", [
    ParameterSequenceModel.ar_positive_error(),
    ParameterSequenceModel.stochastic_geometric(),
    ParameterSequenceModel.white_noise(),
    ParameterSequenceModel.user_supplied([1.0, 2.0, 3.0]),
], ids=lambda m: m.scheme.value)
def test_non_constant_schemes_are_usage_errors(diagnostic, model):
    with pytest.raises(UsageError, match=model.scheme.value):
        diagnostic(model, np.random.default_rng(0))


class TestJointCdfFormula:
    def test_diagonal_and_off_diagonal(self):
        # at y = z the correction factor is 1
        assert asymptotics.gumbel_joint_cdf(0.5, 0.5) == pytest.approx(math.exp(-math.exp(-0.5)))
        # y -> inf leaves the second-maximum limit exp(-e^-z)(1 + e^-z) in z
        val = asymptotics.gumbel_joint_cdf(50.0, 0.0)
        assert val == pytest.approx(math.exp(-1.0) * (1.0 + (1.0 - math.exp(-50.0))), rel=1e-9)

    def test_monotone_in_each_argument(self):
        ys = np.linspace(-2, 3, 21)
        vals = [asymptotics.gumbel_joint_cdf(y, 0.3) for y in ys]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
