"""Stationarity statistic, null simulation, critical values and the decision."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from recsel import families, montecarlo, stationarity
from recsel.errors import DataError, DomainError, UsageError
from recsel.families import Member
from recsel.stationarity import Decision

RAINFALL = [12.69, 12.84, 18.72, 21.96, 23.92, 27.16, 31.28, 34.04]


def rainfall_T():
    h = (np.asarray(RAINFALL) - 4.0) ** 1.9
    spac = np.diff(np.concatenate(([0.0], h)))
    ratios = spac[1:] / spac[:-1]
    return float(np.sum((ratios - 1.0) ** 2) / (len(spac) - 1))


class TestStatistic:
    def test_flat_path_is_zero(self):
        assert stationarity.test_statistic([5.0, 5.0, 5.0]) == 0.0

    def test_pair(self):
        assert stationarity.test_statistic([1.0, 2.0]) == pytest.approx(1.0)

    def test_rainfall_direct_arithmetic(self):
        h = (np.asarray(RAINFALL) - 4.0) ** 1.9
        spac = np.diff(np.concatenate(([0.0], h)))
        assert stationarity.test_statistic(spac) == pytest.approx(rainfall_T(), rel=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        th = rng.exponential(size=9) + 0.1
        base = stationarity.test_statistic(th)
        for c in (1e-6, 0.5, 3.0, 1e8):
            assert stationarity.test_statistic(c * th) == pytest.approx(base, rel=1e-12)

    def test_domain_errors(self):
        with pytest.raises(UsageError):
            stationarity.test_statistic([1.0])
        with pytest.raises(DomainError):
            stationarity.test_statistic([1.0, 0.0])
        with pytest.raises(DomainError):
            stationarity.test_statistic([1.0, -2.0])


class TestNullSimulation:
    def test_degenerate_equal_draws(self):
        assert stationarity.test_statistic([3.3, 3.3]) == 0.0

    def test_n2_median_closed_form(self):
        # the ratio of unit exponentials has cdf w/(1+w), so
        # P(T <= c) = 2 sqrt(c)/(4 - c) for c < 1 and the median is 12 - 8 sqrt(2)
        draws = stationarity._null_T_block(2, 2000 + 10**5, np.random.default_rng(1))
        median = np.median(draws)
        target = 12.0 - 8.0 * math.sqrt(2.0)
        dens = 0.51522  # null density at the median
        se = 1.0 / (2.0 * dens * math.sqrt(draws.size))
        assert abs(median - target) < 4 * se

    def test_n2_tail_quantile_closed_form(self):
        # P(T > t) = 1/(2 + sqrt(t)) for t >= 1, so t(alpha) = (1/alpha - 2)^2
        rng = np.random.default_rng(2)
        draws = stationarity._null_T_block(2, 2 * 10**5, rng)
        draws.sort()
        for alpha, target in ((0.1, 64.0), (0.05, 324.0)):
            got = stationarity._sorted_quantile(draws, alpha)
            assert got == pytest.approx(target, rel=0.1)

    def test_heavy_tail_quantiles_stabilize_but_means_do_not(self):
        d1 = stationarity._null_T_block(2, 10**5, np.random.default_rng(3))
        d2 = stationarity._null_T_block(2, 10**5, np.random.default_rng(4))
        q1, q2 = np.quantile(d1, 0.9), np.quantile(d2, 0.9)
        assert abs(q1 - q2) / q1 < 0.1
        assert d1.mean() > 20 * np.median(d1)  # mean dominated by the tail

    def test_needs_two(self):
        with pytest.raises(UsageError):
            stationarity.critical_values([1], [0.05], 1000, 0)


class TestQuantile:
    def test_type1_ceiling_small_sample(self):
        draws = np.arange(1.0, 11.0)
        assert stationarity._sorted_quantile(draws, 0.1) == 9.0
        assert stationarity._sorted_quantile(draws, 0.05) == 10.0
        assert stationarity._sorted_quantile(draws, 0.5) == 5.0

    def test_alpha_range(self):
        for alpha in (0.0, 1.0, -0.5, float("nan")):
            with pytest.raises(UsageError, match=r"alpha must lie in \(0, 1\)"):
                stationarity.critical_values([2], [0.05, alpha], 1000, 0)


class TestCriticalValues:
    def test_table_shape_and_monotonicity(self):
        table = stationarity.critical_values(range(2, 11), [0.01, 0.025, 0.05, 0.1],
                                             2 * 10**5, 20260810, threads=4)
        assert table.quantiles.shape == (9, 4)
        # rows fall in alpha; columns rise in n
        assert np.all(np.diff(table.quantiles, axis=1) < 0)
        assert np.all(np.diff(table.quantiles, axis=0) > 0)

    def test_median_column_valid(self):
        table = stationarity.critical_values([3], [0.5], 10**4, 7, threads=1)
        assert table.cell(3, 0.5) > 0

    def test_worker_invariance(self):
        a = stationarity.critical_values([2, 5], [0.05, 0.1], 10**4, 11, threads=1)
        b = stationarity.critical_values([2, 5], [0.05, 0.1], 10**4, 11, threads=4)
        assert np.array_equal(a.quantiles, b.quantiles)

    def test_blocks_are_bounded_by_values(self, monkeypatch):
        """A long row draws blocks of at most 2**21 values, not up to 2**17
        rows of n values each (16 GB at n = 10**4 and 10**5 replications)."""
        blocks = []

        def recording(n, count, rng):
            blocks.append((count, n))
            return np.ones(count)

        monkeypatch.setattr(stationarity, "_null_T_block", recording)
        stationarity.critical_values([10**5], [0.05], 1000, 0)
        assert sum(count for count, _ in blocks) == 1000
        assert all(count * n <= 2**21 for count, n in blocks)

    def test_replication_floor(self):
        with pytest.raises(UsageError):
            stationarity.critical_values([2], [0.05], 500, 0)

    def test_csv_roundtrip(self, tmp_path):
        table = stationarity.critical_values([2, 3, 4], [0.05, 0.1], 10**4, 13)
        path = tmp_path / "table.csv"
        table.to_csv(path)
        back = stationarity.CriticalValueTable.from_text(path.read_text(encoding="utf-8"), is_json=False)
        assert back.n_values == table.n_values
        assert back.alphas == table.alphas
        assert back.replications == table.replications
        assert back.master_seed == table.master_seed
        assert np.allclose(back.quantiles, table.quantiles, rtol=1e-5)

    def test_json_roundtrip(self, tmp_path):
        table = stationarity.critical_values([2, 3], [0.05], 10**4, 13)
        path = tmp_path / "table.json"
        table.to_json(path)
        back = stationarity.CriticalValueTable.from_text(path.read_text(encoding="utf-8"), is_json=True)
        assert np.array_equal(back.quantiles, table.quantiles)

    def test_null_calibration(self):
        # independent draws pushed through decide reject at rate alpha
        n, alpha = 5, 0.05
        table = stationarity.critical_values([n], [alpha], 10**6, 101, threads=4)
        draws = stationarity._null_T_block(n, 10**5, np.random.default_rng(202))
        rate = float(np.mean(draws > table.cell(n, alpha)))
        tol = 3.0 * math.sqrt(alpha * (1 - alpha) / draws.size)
        assert abs(rate - alpha) < tol


class TestDistributionalIdentity:
    def test_engine_spacings_match_null_representation(self):
        # the statistic from literal record simulation under a constant theta
        # agrees in law with the exponential-ratio null
        n, reps = 4, 10**4
        fam = families.proportional_hazard(Member.EXPONENTIAL)
        cfg = montecarlo.SimulationConfig(
            family=fam, theta_model=montecarlo.ParameterSequenceModel.constant(1.3),
            n_target=n, replications=reps, master_seed=303)
        draws = montecarlo.simulate_records(cfg, threads=4)
        vals = draws.values[draws.ok]
        spac = np.diff(np.concatenate([np.zeros((vals.shape[0], 1)), vals], axis=1), axis=1)
        ratios = spac[:, 1:] / spac[:, :-1]
        engine_T = np.mean((ratios - 1.0) ** 2, axis=1)
        null_T = stationarity._null_T_block(n, reps, np.random.default_rng(404))
        d = sps.ks_2samp(engine_T, null_T).statistic
        crit = 1.628 * math.sqrt(2.0 / reps)  # 1% two-sample threshold
        assert d < crit


class TestDecide:
    def paper_style_table(self):
        quantiles = np.array([[2698.59]])
        return stationarity.CriticalValueTable((8,), (0.05,), quantiles, 10**5, 0)

    def test_rainfall_fail_to_reject(self):
        T = rainfall_T()
        assert stationarity.decide(T, 8, 0.05, self.paper_style_table()) == Decision.FAIL_TO_REJECT

    def test_boundary_is_fail_to_reject(self):
        table = self.paper_style_table()
        assert stationarity.decide(2698.59, 8, 0.05, table) == Decision.FAIL_TO_REJECT
        assert stationarity.decide(2698.60, 8, 0.05, table) == Decision.REJECT

    def test_huge_statistic_rejects(self):
        assert stationarity.decide(1e9, 8, 0.05, self.paper_style_table()) == Decision.REJECT

    def test_missing_cell(self):
        table = self.paper_style_table()
        with pytest.raises(UsageError):
            stationarity.decide(1.0, 9, 0.05, table)
        with pytest.raises(UsageError):
            stationarity.decide(1.0, 8, 0.01, table)

    def test_table_validation(self):
        with pytest.raises(DataError):
            stationarity.CriticalValueTable((2,), (0.05, 0.1), np.array([[10.0, 20.0]]), 10**4, 0)
