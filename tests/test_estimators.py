"""Selection estimators and their unbiased risk estimates."""

import math

import numpy as np
import pytest

from recsel import estimators, families, montecarlo, records
from recsel.errors import DomainError, UsageError
from recsel.estimators import EstimatorId
from recsel.families import Member

RAINFALL = [12.69, 12.84, 18.72, 21.96, 23.92, 27.16, 31.28, 34.04]


class TestPointEstimators:
    def test_umvue_gamma_p1_is_spacing(self):
        assert estimators.umvue_gamma(2.0, 5.0, 1.0) == pytest.approx(3.0)

    def test_umvue_gamma_rayleigh_records(self):
        # raw records 2 and 4 on the transformed scale are 2 and 8
        assert estimators.umvue_gamma(2.0, 8.0, 1.0) == pytest.approx((16.0 - 4.0) / 2.0)

    def test_umvue_gamma_p2(self):
        assert estimators.umvue_gamma(1.0, 2.0, 2.0) == pytest.approx(0.75)

    def test_umvue_gamma_ordering_error(self):
        with pytest.raises(DomainError):
            estimators.umvue_gamma(5.0, 5.0, 1.0)
        with pytest.raises(DomainError):
            estimators.umvue_gamma(6.0, 5.0, 1.0)
        with pytest.raises(DomainError):
            estimators.umvue_gamma(1.0, 2.0, 0.0)

    def test_natural_gamma(self):
        assert estimators.natural_gamma(5.0, 1.0) == 5.0
        assert estimators.natural_gamma(8.0, 2.0) == 4.0

    def test_umvue_collapses_to_natural_at_first_record(self):
        assert estimators.umvue_gamma(0.0, 7.0, 2.0) == pytest.approx(
            estimators.natural_gamma(7.0, 2.0))

    def test_umvue_phr_identity_base(self):
        assert estimators.umvue_phr(2.0, 5.0) == pytest.approx(3.0)

    def test_umvue_phr_rainfall_last_spacing(self):
        h7 = (31.28 - 4.0) ** 1.9
        h8 = (34.04 - 4.0) ** 1.9
        assert estimators.umvue_phr(h7, h8) == pytest.approx(h8 - h7)
        assert h8 - h7 > 0

    def test_umvue_phr_degenerate(self):
        assert estimators.umvue_phr(4.0, 4.0) == 0.0

    def test_umvue_phr_ordering_error(self):
        with pytest.raises(DomainError):
            estimators.umvue_phr(5.0, 4.0)


class TestClosedFormRisks:
    def test_w2_simple_value(self):
        assert estimators.risk_umvue_gamma(0.0, 1.0, 1.0) == pytest.approx(0.5)

    def test_w2_vanishes_quadratically(self):
        for eps in (1e-2, 1e-3, 1e-4):
            w = estimators.risk_umvue_gamma(1.0 - eps, 1.0, 1.0)
            assert w == pytest.approx(eps**2 / 2.0, rel=1e-9)

    def test_w3_values(self):
        assert estimators.risk_umvue_phr(0.0, 3.0) == pytest.approx(4.5)
        assert estimators.risk_umvue_phr(2.0, 2.0) == 0.0

    def test_w3_nonnegative_random(self):
        rng = np.random.default_rng(0)
        a = rng.exponential(size=100)
        b = a + rng.exponential(size=100)
        assert np.all(estimators.risk_umvue_phr(a, b) >= 0)


class TestGeneralRiskQuadrature:
    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 3.7])
    def test_matches_w2_closed_form(self, p):
        rng = np.random.default_rng(10)
        pairs = list(zip(rng.gamma(2.0, size=20), rng.gamma(2.0, size=20)))
        pairs = [(min(a, b), max(a, b) + 1e-3) for a, b in pairs] + [(0.0, 1.3)]
        V = lambda t, prev: estimators.umvue_gamma(prev, t, p)
        for a, b in pairs:
            w_quad = estimators.risk_general_gamma(V, a, b, p)
            w_closed = estimators.risk_umvue_gamma(a, b, p)
            assert w_quad == pytest.approx(w_closed, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0])
    def test_matches_natural_antiderivative(self, p):
        # hand-integrated polynomial for V(t) = t/p: the integrand t^{p-1} t/p
        # has antiderivative t^{p+1}/(p(p+1)), so
        # W = b^2/p^2 - 2 (b^{p+1} - a^{p+1}) / (p (p+1) b^{p-1}) + second-moment term
        a, b = 0.8, 2.6
        V = lambda t, prev: t / p
        w_quad = estimators.risk_general_gamma(V, a, b, p)
        second = (b ** (p + 1) - a ** (p + 1) - (p + 1) * a**p * (b - a)) / (p * (p + 1) * b ** (p - 1))
        w_hand = b**2 / p**2 - 2 * (b ** (p + 1) - a ** (p + 1)) / (p * (p + 1) * b ** (p - 1)) + second
        assert w_quad == pytest.approx(w_hand, rel=1e-9)

    def test_zero_estimator_leaves_second_moment_term(self):
        a, b, p = 0.5, 2.0, 1.5
        w = estimators.risk_general_gamma(lambda t, prev: 0.0, a, b, p)
        second = (b ** (p + 1) - a ** (p + 1) - (p + 1) * a**p * (b - a)) / (p * (p + 1) * b ** (p - 1))
        assert w == pytest.approx(second, rel=1e-12)

    @pytest.mark.parametrize("fam, a, b", [
        (families.proportional_hazard(Member.EXPONENTIAL), 1.5, 4.0),
        (families.proportional_hazard(Member.BURR, alpha=1.5), 1.5, 4.0),
        (families.proportional_hazard(Member.CUSTOM, shift=4.0, power=1.9, scale=1.0), 5.5, 8.0),
        # hazard rates infinite at the support's lower end, where the
        # hazard-scale integrand stays smooth
        (families.proportional_hazard(Member.CUSTOM, shift=1.0, power=0.3, scale=2.0), 1.0 + 1e-8, 51.0),
        (families.proportional_hazard(Member.BURR, alpha=0.2), 0.0, 2.0),
        (families.proportional_hazard(Member.BURR, alpha=0.2), 0.0, 1e-3),
    ], ids=["exponential", "burr", "custom", "custom-power0.3", "burr0.2-to-2", "burr0.2-to-1e-3"])
    def test_phr_general_reduces_to_w3(self, fam, a, b):
        V = lambda t, prev: families.cumulative_hazard(fam, t) - families.cumulative_hazard(fam, prev)
        w_quad = estimators.risk_general_phr(V, a, b, fam)
        w_closed = estimators.risk_umvue_phr(
            families.cumulative_hazard(fam, a), families.cumulative_hazard(fam, b))
        assert w_quad == pytest.approx(w_closed, rel=1e-10)

    def test_phr_general_tabulated_hazard_path(self):
        # a tabulated transform integrates through its interpolated inverse
        xs = np.linspace(0.0, 20.0, 20001)
        tab = families.proportional_hazard(Member.CUSTOM, table_x=xs, table_h=xs.copy())
        V = lambda t, prev: families.cumulative_hazard(tab, t) - families.cumulative_hazard(tab, prev)
        w = estimators.risk_general_phr(V, 1.0, 3.0, tab)
        assert w == pytest.approx(estimators.risk_umvue_phr(1.0, 3.0), rel=1e-12)

    def test_phr_natural_estimator_closed_form(self):
        # substitution antiderivative: W = H(a)^2 + (H(b) - H(a))^2 / 2
        fam = families.proportional_hazard(Member.RAYLEIGH)
        a, b = 1.2, 2.5
        ha = families.cumulative_hazard(fam, a)
        hb = families.cumulative_hazard(fam, b)
        w_quad = estimators.risk_general_phr(lambda t, prev: families.cumulative_hazard(fam, t), a, b, fam)
        assert w_quad == pytest.approx(ha**2 + (hb - ha) ** 2 / 2.0, rel=1e-9)

    def test_phr_zero_estimator(self):
        fam = families.proportional_hazard(Member.EXPONENTIAL)
        w = estimators.risk_general_phr(lambda t, prev: 0.0, 1.0, 4.0, fam)
        assert w == pytest.approx((4.0 - 1.0) ** 2 / 2.0, rel=1e-12)

    def test_phr_nan_record_is_outside_support(self):
        fam = families.proportional_hazard(Member.EXPONENTIAL)
        with pytest.raises(DomainError, match="outside support"):
            estimators.risk_general_phr(lambda t, prev: t, math.nan, 2.0, fam)

    def test_phr_kind_guard(self):
        fam = families.proportional_reversed_hazard(Member.BETA)
        with pytest.raises(UsageError):
            estimators.risk_general_phr(lambda t, prev: 0.0, 0.2, 0.8, fam)


class TestUnbiasednessByMonteCarlo:
    def _draws(self, family, scheme, n_target, reps, seed):
        cfg = montecarlo.SimulationConfig(
            family=family, theta_model=scheme, n_target=n_target,
            replications=reps, master_seed=seed)
        d = montecarlo.simulate_records(cfg, threads=4)
        ok = d.ok
        return d.values[ok], d.thetas[ok]

    def test_w2_unbiased_for_v2_risk(self):
        fam = families.gamma_type(Member.GAMMA, p=2.0)
        vals, ths = self._draws(fam, montecarlo.ParameterSequenceModel.constant(1.0), 2, 10**5, 1001)
        v = estimators.umvue_gamma(vals[:, 0], vals[:, 1], 2.0)
        w = estimators.risk_umvue_gamma(vals[:, 0], vals[:, 1], 2.0)
        diff = w - (v - ths[:, 1]) ** 2
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) < 4 * se

    def test_w3_unbiased_and_risk_identity(self):
        fam = families.proportional_hazard(Member.EXPONENTIAL)
        vals, ths = self._draws(fam, montecarlo.ParameterSequenceModel.constant(1.0), 3, 10**5, 1002)
        v = vals[:, 2] - vals[:, 1]
        w = v * v / 2.0
        err2 = (v - ths[:, 2]) ** 2
        diff = w - err2
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) < 4 * se
        # risk of the spacing estimator equals the second moment of the target
        diff2 = err2 - ths[:, 2] ** 2
        se2 = diff2.std(ddof=1) / math.sqrt(diff2.size)
        assert abs(diff2.mean()) < 4 * se2

    def test_domination_gap_is_previous_hazard_square(self):
        fam = families.proportional_hazard(Member.EXPONENTIAL)
        vals, ths = self._draws(fam, montecarlo.ParameterSequenceModel.constant(1.0), 3, 10**5, 1003)
        umv_err2 = (vals[:, 2] - vals[:, 1] - ths[:, 2]) ** 2
        nat_err2 = (vals[:, 2] - ths[:, 2]) ** 2
        gap = nat_err2 - umv_err2 - vals[:, 1] ** 2
        se = gap.std(ddof=1) / math.sqrt(gap.size)
        assert nat_err2.mean() > umv_err2.mean()
        assert abs(gap.mean()) < 4 * se


class TestScaleEquivariance:
    def test_exponential_base_scaling(self):
        fam = families.proportional_hazard(Member.EXPONENTIAL)
        seq = np.array([1.0, 0.4, 2.2, 1.7, 3.9])
        for c in (0.5, 3.0):
            base = records.canonical_records(seq, fam)
            scaled = records.canonical_records(c * seq, fam)
            v1 = estimators.umvue_phr(base.values[0], base.values[1])
            v2 = estimators.umvue_phr(scaled.values[0], scaled.values[1])
            assert v2 == pytest.approx(c * v1, rel=1e-12)
            assert estimators.natural_phr(scaled.values[1]) == pytest.approx(
                c * estimators.natural_phr(base.values[1]), rel=1e-12)
            w1 = estimators.risk_umvue_phr(base.values[0], base.values[1])
            w2 = estimators.risk_umvue_phr(scaled.values[0], scaled.values[1])
            assert w2 == pytest.approx(c * c * w1, rel=1e-12)


class TestReports:
    def test_stationary_values(self):
        fam = families.proportional_hazard(Member.EXPONENTIAL)
        canon = records.canonical_records([2.0, 8.0], fam)
        rep1, rep = estimators.estimate_path(canon, fam, stationary=True)
        assert rep.estimator_id == EstimatorId.STATIONARY_UMVUE
        assert rep.estimate == pytest.approx(4.0)
        assert rep.risk_estimate == pytest.approx(64.0 / 12.0)
        assert rep1.estimate == pytest.approx(2.0)
        assert rep1.risk_estimate == pytest.approx(4.0 / 2.0)

    def test_band_geometry(self):
        rep = estimators.EstimateReport(EstimatorId.UMVUE_PHR, 2, 5.0, 4.0, (2.0, 8.0), 1.5)
        assert rep.band[0] <= rep.estimate <= rep.band[1]
        row = rep.to_csv_row()
        assert row == [2, "umvue_phr", 5.0, 4.0, 2.0, 8.0]

    def test_band_clamps_at_zero_and_on_negative_risk(self):
        fam = families.proportional_hazard(Member.EXPONENTIAL)
        canon = records.canonical_records([1.0, 1.05, 30.0], fam)
        reports = estimators.estimate_path(canon, fam, stationary=False, band_factor=10.0)
        assert all(r.band[0] >= 0.0 for r in reports)
        assert all(r.band[0] <= r.estimate <= r.band[1] for r in reports)

    def test_nonstationary_rainfall_path(self):
        fam = families.proportional_hazard(Member.CUSTOM, shift=4.0, power=1.9, scale=1.0)
        canon = records.canonical_records(RAINFALL, fam)
        reports = estimators.estimate_path(canon, fam, stationary=False)
        h = (np.array(RAINFALL) - 4.0) ** 1.9
        spac = np.diff(np.concatenate(([0.0], h)))
        assert [r.estimate for r in reports] == pytest.approx(spac.tolist(), rel=1e-12)
        assert [r.risk_estimate for r in reports] == pytest.approx((spac**2 / 2).tolist(), rel=1e-12)
        assert all(r.estimator_id == EstimatorId.UMVUE_PHR for r in reports)

    def test_stationary_rainfall_path(self):
        fam = families.proportional_hazard(Member.CUSTOM, shift=4.0, power=1.9, scale=1.0)
        canon = records.canonical_records(RAINFALL, fam)
        reports = estimators.estimate_path(canon, fam, stationary=True)
        h = (np.array(RAINFALL) - 4.0) ** 1.9
        assert [r.estimate for r in reports] == pytest.approx((h / np.arange(1, 9)).tolist(), rel=1e-12)

    def test_gamma_path_uses_transformed_scale(self):
        fam = families.gamma_type(Member.RAYLEIGH)
        canon = records.canonical_records([1.0, 3.0, 2.0], fam)
        reports = estimators.estimate_path(canon, fam, stationary=False)
        assert reports[0].estimate == pytest.approx(0.5)
        assert reports[1].estimate == pytest.approx(4.0)  # (4.5/1)(1 - 0.5/4.5)
        with pytest.raises(UsageError):
            estimators.estimate_path(canon, fam, stationary=True)

    def test_estimator_table(self):
        """Each kind's first estimator is the one estimate_path reports, and
        evaluate gives the same values and risks as the closed forms."""
        prev, curr = np.array([0.0, 1.0]), np.array([2.0, 3.0])
        for selection, plug_in in estimators.ESTIMATORS.values():
            assert selection.value.startswith("umvue") and plug_in.value.startswith("natural")
        assert estimators.evaluate(EstimatorId.UMVUE_GAMMA, prev, curr, 0.5).tolist() == \
            estimators.umvue_gamma(prev, curr, 0.5).tolist()
        assert estimators.evaluate(EstimatorId.UMVUE_PRHR, prev, curr, risk=True).tolist() == [2.0, 2.0]
        assert estimators.evaluate(EstimatorId.NATURAL_GAMMA, prev, curr, 0.5).tolist() == [4.0, 6.0]
        assert estimators.evaluate(EstimatorId.NATURAL_PHR, prev, curr).tolist() == [2.0, 3.0]
        for est, risk in ((EstimatorId.NATURAL_PHR, True), (EstimatorId.STATIONARY_UMVUE, False)):
            with pytest.raises(UsageError):
                estimators.evaluate(est, prev, curr, risk=risk)

    def test_reversed_family_path(self):
        fam = families.proportional_reversed_hazard(Member.BETA)
        canon = records.canonical_records([0.5, 0.2, 0.3], fam)
        reports = estimators.estimate_path(canon, fam, stationary=False)
        w = -np.log([0.5, 0.2])
        assert [r.estimate for r in reports] == pytest.approx([w[0], w[1] - w[0]], rel=1e-12)
        assert all(r.estimator_id == EstimatorId.UMVUE_PRHR for r in reports)
