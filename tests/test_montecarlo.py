"""Theta schemes, the replicate engine, and summary tables."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from recsel import estimators, families, montecarlo
from recsel.errors import DataError, NumericError, UsageError
from recsel.estimators import EstimatorId
from recsel.families import Member
from recsel.montecarlo import ParameterSequenceModel, Scheme, SimulationConfig
from recsel.streams import replicate_stream


def exp_family():
    return families.proportional_hazard(Member.EXPONENTIAL)


def summary_cell(summary, estimator, n):
    """The summary cell of estimator at record index n."""
    (found,) = [c for c in summary.cells if c.estimator == estimator and c.n == n]
    return found


class TestThetaStream:
    def test_constant(self):
        stream = montecarlo.ThetaStream(ParameterSequenceModel.constant(1.0), [np.random.default_rng(0)])
        assert np.all(stream.take(10) == 1.0)
        stream = montecarlo.ThetaStream(ParameterSequenceModel.constant(2.5), [np.random.default_rng(0)])
        assert stream.take(17)[0, -1] == 2.5

    def test_affine_scan_matches_loop(self):
        rng = np.random.default_rng(1)
        mult = rng.random(1000)
        add = rng.standard_exponential(1000)
        A, C = montecarlo._affine_scan(mult, add)
        x = 0.7
        expect = np.empty(1000)
        for i in range(1000):
            x = mult[i] * x + add[i]
            expect[i] = x
        got = A * 0.7 + C
        assert got == pytest.approx(expect, rel=1e-10)

    def test_ar_first_theta_is_unit_exponential(self):
        # theta_0 = 0 forces theta_1 = eps_1 ~ Exp(1)
        reps = 10**5
        vals = np.empty(reps)
        for r in range(reps):
            stream = montecarlo.ThetaStream(ParameterSequenceModel.ar_positive_error(),
                                            [replicate_stream(5, r)])
            vals[r] = stream.take(1)[0, 0]
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - 1.0) < 4 * se

    def test_ar_stream_continues_across_takes(self):
        # replay the same generator to rebuild the recurrence across the
        # take boundary by hand
        model = ParameterSequenceModel.ar_positive_error()
        stream = montecarlo.ThetaStream(model, [np.random.default_rng(7)])
        got = np.concatenate([stream.take(13)[0], stream.take(87)[0]])
        rng = np.random.default_rng(7)
        expect = np.empty(100)
        theta = 0.0
        for z, eps in (( rng.random(13), rng.standard_exponential(13)),
                       (rng.random(87), rng.standard_exponential(87))):
            base = 100 - z.size if z.size == 87 else 0
            for i in range(z.size):
                theta = z[i] * theta + eps[i]
                expect[base + i] = theta
        assert got == pytest.approx(expect, rel=1e-10)

    def test_white_noise_mean(self):
        stream = montecarlo.ThetaStream(ParameterSequenceModel.white_noise(), [np.random.default_rng(2)])
        vals = stream.take(10**6)[0]
        assert abs(vals.mean() - 10.0) < 0.004
        assert np.all(vals > 0)

    def test_geometric_redraw_mean_oracle(self):
        # E[theta_i] = 0.5 * integral_0^1 (1 + d/10)^{i-1} dd = 5 (1.1^i - 1) / i
        i = 5
        reps = 5 * 10**4
        model = ParameterSequenceModel.stochastic_geometric(True)
        vals = np.empty(reps)
        for r in range(reps):
            vals[r] = montecarlo.ThetaStream(model, [replicate_stream(3, r)]).take(i)[0, i - 1]
        expect = 5.0 * (1.1**i - 1.0) / i
        se = vals.std(ddof=1) / math.sqrt(reps)
        assert abs(vals.mean() - expect) < 4 * se

    def test_geometric_fixed_reading_is_monotone(self):
        stream = montecarlo.ThetaStream(ParameterSequenceModel.stochastic_geometric(False),
                                        [np.random.default_rng(4)])
        vals = stream.take(50)[0]
        assert np.all(np.diff(vals) > 0)

    def test_user_supplied_exhaustion(self):
        stream = montecarlo.ThetaStream(ParameterSequenceModel.user_supplied([1.0, 2.0]),
                                        [np.random.default_rng(0)])
        assert stream.take(2).tolist() == [[1.0, 2.0]]
        with pytest.raises(DataError):
            stream.take(1)

    def test_json_roundtrip(self):
        for model in (ParameterSequenceModel.constant(2.0),
                      ParameterSequenceModel.ar_positive_error(),
                      ParameterSequenceModel.stochastic_geometric(False),
                      ParameterSequenceModel.white_noise(),
                      ParameterSequenceModel.user_supplied([1.0, 2.0])):
            assert ParameterSequenceModel.from_json_dict(model.to_json_dict()) == model

    def test_validation(self):
        with pytest.raises(UsageError):
            ParameterSequenceModel.constant(0.0)
        with pytest.raises(UsageError):
            ParameterSequenceModel.user_supplied([])
        with pytest.raises(UsageError):  # every draw would be redrawn forever
            ParameterSequenceModel.white_noise(mean=-1.0, sd=0.0)
        stream = montecarlo.ThetaStream(ParameterSequenceModel.constant(1.0), [np.random.default_rng(0)])
        with pytest.raises(UsageError):
            stream.take(0)

    def test_constructors_leave_defaults_to_the_scheme_table(self):
        table = montecarlo._SCHEME_PARAMS
        assert ParameterSequenceModel.white_noise().params == {
            name: default for name, (default, _) in table[Scheme.WHITE_NOISE].items()}
        assert ParameterSequenceModel.white_noise(sd=2.0).params == {"mean": 10.0, "sd": 2.0}
        assert ParameterSequenceModel.stochastic_geometric().params == {"redraw_per_index": True}
        assert ParameterSequenceModel.stochastic_geometric(False).params == {"redraw_per_index": False}


class TestRunReplicate:
    """Single replicates through simulate_records (replications=1, replicate
    stream (master_seed, 0))."""

    @pytest.mark.parametrize("value", [3.9, "3", True, float("inf"), float("nan"), 0, -2])
    @pytest.mark.parametrize("name", ["n_target", "replications", "max_observations"])
    def test_config_counts_are_whole_numbers_from_one(self, name, value):
        kwargs = dict(family=exp_family(), theta_model=ParameterSequenceModel.constant(1.0),
                      n_target=2, replications=1, master_seed=0)
        with pytest.raises(UsageError, match=name):
            SimulationConfig(**dict(kwargs, **{name: value}))
        whole = SimulationConfig(**dict(kwargs, **{name: 1e5}))
        assert getattr(whole, name) == 10**5 and type(getattr(whole, name)) is int

    def test_single_record_constant(self):
        cfg = SimulationConfig(family=exp_family(), theta_model=ParameterSequenceModel.constant(3.0),
                               n_target=1, replications=1, master_seed=12)
        d = montecarlo.simulate_records(cfg)
        assert d.thetas[0, -1] == 3.0
        assert np.count_nonzero(d.times[0]) == 1
        assert d.times[0, 0] == 1
        assert d.observations[0] == 1
        assert not d.truncated[0]

    def test_deterministic_given_stream(self):
        cfg = SimulationConfig(family=exp_family(), theta_model=ParameterSequenceModel.ar_positive_error(),
                               n_target=3, replications=1, master_seed=9)
        a = montecarlo.simulate_records(cfg)
        b = montecarlo.simulate_records(cfg)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.times, b.times)
        assert a.thetas[0, -1] == b.thetas[0, -1]

    def test_records_are_upper_canonical(self):
        cfg = SimulationConfig(family=families.gamma_type(Member.GAMMA, p=0.5),
                               theta_model=ParameterSequenceModel.white_noise(),
                               n_target=4, replications=1, master_seed=10)
        d = montecarlo.simulate_records(cfg)
        assert np.all(np.diff(d.values[0]) > 0)
        assert np.all(np.diff(d.times[0]) > 0)
        assert d.s_inv[0].shape == (4,)
        assert np.all(np.diff(d.s_inv[0]) > 0)

    def test_truncation_flagged(self):
        cfg = SimulationConfig(family=exp_family(), theta_model=ParameterSequenceModel.constant(1.0),
                               n_target=10, replications=1, master_seed=11, max_observations=50)
        d = montecarlo.simulate_records(cfg)
        if d.truncated[0]:
            assert math.isnan(d.thetas[0, -1])
            assert d.observations[0] == 50
        else:  # the stream may legitimately find 10 records within 50 draws
            assert np.count_nonzero(d.times[0]) == 10

    def test_user_supplied_thetas_drive_the_engine(self):
        thetas = [1.0] * 200
        cfg = SimulationConfig(family=exp_family(),
                               theta_model=ParameterSequenceModel.user_supplied(thetas),
                               n_target=2, replications=1, master_seed=13)
        assert montecarlo.simulate_records(cfg).thetas[0, -1] == 1.0
        short = SimulationConfig(family=exp_family(),
                                 theta_model=ParameterSequenceModel.user_supplied([1.0, 2.0]),
                                 n_target=50, replications=1, master_seed=13)
        with pytest.raises(DataError):
            montecarlo.simulate_records(short)

    def test_geometric_records_come_sooner_than_iid(self):
        reps = 10**4
        geo = SimulationConfig(family=exp_family(),
                               theta_model=ParameterSequenceModel.stochastic_geometric(),
                               n_target=4, replications=reps, master_seed=21)
        con = SimulationConfig(family=exp_family(), theta_model=ParameterSequenceModel.constant(1.0),
                               n_target=4, replications=reps, master_seed=21)
        dg = montecarlo.simulate_records(geo, threads=4)
        dc = montecarlo.simulate_records(con, threads=4)
        assert np.median(dg.times[dg.ok, -1]) < np.median(dc.times[dc.ok, -1])

    def test_white_noise_truncation_counter_exercises(self):
        # with a small cap some replicates stop before the 4th record
        cfg = SimulationConfig(family=exp_family(), theta_model=ParameterSequenceModel.white_noise(),
                               n_target=4, replications=3000, master_seed=22, max_observations=500)
        draws = montecarlo.simulate_records(cfg, threads=4)
        assert draws.truncated.sum() > 0
        assert np.all(np.isnan(draws.values[draws.truncated]))


class TestBiasRiskTable:
    def test_thread_count_invariance(self):
        cfg = SimulationConfig(family=families.gamma_type(Member.GAMMA, p=2.0),
                               theta_model=ParameterSequenceModel.ar_positive_error(),
                               n_target=3, replications=4000, master_seed=31)
        views = [montecarlo.bias_risk_table(cfg, threads=t) for t in (1, 4, 8)]
        for other in views[1:]:
            for a, b in zip(views[0].cells, other.cells):
                assert (a.bias, a.risk, a.se_bias, a.se_risk) == (b.bias, b.risk, b.se_bias, b.se_risk)

    def test_constant_phr_umvue_unbiased(self):
        cfg = SimulationConfig(family=exp_family(), theta_model=ParameterSequenceModel.constant(1.0),
                               n_target=2, replications=2 * 10**4, master_seed=32)
        cell = summary_cell(montecarlo.bias_risk_table(cfg, threads=4), EstimatorId.UMVUE_PHR, 2)
        assert abs(cell.bias) < 4 * cell.se_bias

    def test_natural_bias_positive_and_growing(self):
        for family in (exp_family(), families.gamma_type(Member.GAMMA, p=2.0)):
            cfg = SimulationConfig(family=family, theta_model=ParameterSequenceModel.white_noise(),
                                   n_target=3, replications=2 * 10**4, master_seed=33)
            summary = montecarlo.bias_risk_table(cfg, threads=4)
            gamma_kind = family.kind == families.Kind.GAMMA_TYPE
            nat = EstimatorId.NATURAL_GAMMA if gamma_kind else EstimatorId.NATURAL_PHR
            biases = [summary_cell(summary, nat, n).bias for n in (1, 2, 3)]
            assert all(b > 0 for b in biases[1:])
            assert biases[1] < biases[2]
            umvue = EstimatorId.UMVUE_GAMMA if gamma_kind else EstimatorId.UMVUE_PHR
            umv = summary_cell(summary, umvue, 3)
            assert abs(umv.bias) < 4 * umv.se_bias

    def test_white_noise_umvue_risk_decreases_in_n(self):
        # near-stationary populations at a high parameter level: the selection
        # estimator's risk falls with the record index
        cfg = SimulationConfig(family=families.gamma_type(Member.GAMMA, p=0.5),
                               theta_model=ParameterSequenceModel.white_noise(),
                               n_target=4, replications=3 * 10**4, master_seed=38)
        summary = montecarlo.bias_risk_table(cfg, threads=4)
        risks = [summary_cell(summary, EstimatorId.UMVUE_GAMMA, n).risk for n in (2, 3, 4)]
        assert risks[0] > risks[1] > risks[2]

    def test_reversed_family_umvue_unbiased(self):
        cfg = SimulationConfig(family=families.proportional_reversed_hazard(Member.BETA),
                               theta_model=ParameterSequenceModel.constant(1.0),
                               n_target=2, replications=2 * 10**4, master_seed=34)
        summary = montecarlo.bias_risk_table(cfg, threads=4)
        cell = summary_cell(summary, EstimatorId.UMVUE_PRHR, 2)
        assert abs(cell.bias) < 4 * cell.se_bias

    def test_truncation_validation(self):
        cfg = SimulationConfig(family=exp_family(), theta_model=ParameterSequenceModel.constant(1.0),
                               n_target=6, replications=2000, master_seed=35, max_observations=60)
        with pytest.raises(NumericError):
            montecarlo.bias_risk_table(cfg)

    def test_single_replicate_has_nan_se(self):
        cfg = SimulationConfig(family=exp_family(), theta_model=ParameterSequenceModel.constant(1.0),
                               n_target=2, replications=1, master_seed=36)
        summary = montecarlo.bias_risk_table(cfg)
        cell = summary_cell(summary, EstimatorId.UMVUE_PHR, 2)
        assert math.isnan(cell.se_bias) and math.isnan(cell.se_risk)

    def test_csv_rows_layout(self):
        cfg = SimulationConfig(family=families.gamma_type(Member.GAMMA, p=0.5),
                               theta_model=ParameterSequenceModel.constant(1.0),
                               n_target=3, replications=500, master_seed=37)
        summary = montecarlo.bias_risk_table(cfg)
        rows = summary.to_csv_rows(n_values=[2, 3])
        assert all(row[0] == "constant" and row[1] == 0.5 for row in rows)
        assert sorted({row[2] for row in rows}) == [2, 3]
        assert {row[3] for row in rows} == {"umvue_gamma", "natural_gamma"}


class TestSpacingSurvival:
    def test_zero_point_is_exact(self):
        cfg = SimulationConfig(family=exp_family(), theta_model=ParameterSequenceModel.constant(1.0),
                               n_target=3, replications=2000, master_seed=41)
        dev = montecarlo.spacing_survival_check(cfg, [0.0])
        assert dev == 0.0

    def test_constant_scheme_mixture(self):
        cfg = SimulationConfig(family=exp_family(), theta_model=ParameterSequenceModel.constant(1.0),
                               n_target=3, replications=10**5, master_seed=42)
        dev = montecarlo.spacing_survival_check(cfg, np.linspace(0.0, 6.0, 25), threads=4)
        assert dev < 0.01

    def test_geometric_scheme_mixture(self):
        cfg = SimulationConfig(family=exp_family(),
                               theta_model=ParameterSequenceModel.stochastic_geometric(),
                               n_target=3, replications=10**5, master_seed=43)
        dev = montecarlo.spacing_survival_check(cfg, np.linspace(0.0, 10.0, 25), threads=4)
        assert dev < 0.015

    def test_truncation_bound(self):
        """Truncated replicates are not dropped beyond MAX_TRUNCATION_FRACTION."""
        cfg = SimulationConfig(family=exp_family(), theta_model=ParameterSequenceModel.constant(1.0),
                               n_target=6, replications=2000, master_seed=45, max_observations=60)
        with pytest.raises(NumericError):
            montecarlo.spacing_survival_check(cfg, [0.0, 1.0])

    def test_kind_guard(self):
        cfg = SimulationConfig(family=families.gamma_type(Member.EXPONENTIAL),
                               theta_model=ParameterSequenceModel.constant(1.0),
                               n_target=2, replications=100, master_seed=44)
        with pytest.raises(UsageError):
            montecarlo.spacing_survival_check(cfg, [0.0, 1.0])


# ---------------------------------------------------------------------------
# reference engine: the same record process, one replicate at a time on its
# own stream, with plain 1-d numpy.  The batched engine must reproduce it bit
# for bit.


def reference_affine_scan(mult, add):
    A, C = mult.copy(), add.copy()
    step = 1
    while step < A.size:
        newA, newC = A.copy(), C.copy()
        newA[step:] = A[step:] * A[:-step]
        newC[step:] = C[step:] + A[step:] * C[:-step]
        A, C = newA, newC
        step *= 2
    return A, C


def reference_thetas(model: ParameterSequenceModel, rng: np.random.Generator):
    """Theta blocks of one replicate: send(count) gives the next count values
    and a mask of those that left the model (clamped or redrawn)."""
    index, ar_prev, geo_cd = 0, 0.0, None
    out = None
    while True:
        count = yield out
        departed = np.zeros(count, dtype=bool)
        if model.scheme == Scheme.CONSTANT:
            out = np.full(count, float(model.params["value"]))
        elif model.scheme == Scheme.AR_POSITIVE_ERROR:
            z = rng.random(count)
            eps = rng.standard_exponential(count)
            A, C = reference_affine_scan(z, eps)
            out = A * ar_prev + C
            ar_prev = float(out[-1])
        elif model.scheme == Scheme.STOCHASTIC_GEOMETRIC:
            idx = np.arange(index + 1, index + count + 1, dtype=float)
            if model.params.get("redraw_per_index", True):
                c = rng.random(count)
                d = rng.random(count)
            else:
                if geo_cd is None:
                    geo_cd = (float(rng.random()), float(rng.random()))
                c, d = geo_cd
            exponent = (idx - 1.0) * np.log1p(np.asarray(d) / 10.0)
            departed = exponent > 700.0
            out = c * np.exp(np.minimum(exponent, 700.0))
        elif model.scheme == Scheme.WHITE_NOISE:
            mean, sd = float(model.params["mean"]), float(model.params["sd"])
            out = mean + sd * rng.standard_normal(count)
            departed = out <= 0
            while np.any(out <= 0):
                bad = out <= 0
                out[bad] = mean + sd * rng.standard_normal(int(bad.sum()))
        else:
            out = np.asarray(model.params["thetas"][index:index + count], dtype=float)
        index += count
        out = out, departed


def reference_simulate(config: SimulationConfig) -> montecarlo.SimulationDraws:
    reps, n_target, cap = config.replications, config.n_target, config.max_observations
    values = np.full((reps, n_target), np.nan)
    thetas = np.full((reps, n_target), np.nan)
    times = np.zeros((reps, n_target), dtype=np.int64)
    s_inv = np.full((reps, n_target), np.nan)
    truncated = np.zeros(reps, dtype=bool)
    observations = np.zeros(reps, dtype=np.int64)
    user = config.theta_model.scheme == Scheme.USER_SUPPLIED
    departures = 0
    # built from numpy directly, not through recsel.streams, so that the
    # engine's run key, counter jumps and generator reuse are checked too
    key = np.random.SeedSequence(config.master_seed).generate_state(2, np.uint64)
    for r in range(reps):
        rng = np.random.Generator(np.random.Philox(key=key).jumped(r))
        stream = reference_thetas(config.theta_model, rng)
        next(stream)
        found, offset, cur_max, sinv_carry, block = 0, 0, -np.inf, 0.0, montecarlo._FIRST_BLOCK
        while found < n_target and offset < cap:
            b = min(block, cap - offset)
            if user:
                left = len(config.theta_model.params["thetas"]) - offset
                if left == 0:
                    raise DataError(
                        f"user-supplied theta list exhausted after {offset} observations "
                        f"before record {n_target}")
                b = min(b, left)
            theta, departed = stream.send(b)
            if config.family.kind == families.Kind.GAMMA_TYPE:
                y = rng.standard_gamma(config.family.shape_p, b) * theta
            else:
                y = rng.standard_exponential(b) * theta
            sinv = sinv_carry + np.cumsum(1.0 / theta)
            running = np.maximum.accumulate(y)
            prev = np.empty(b)
            prev[0] = cur_max
            prev[1:] = np.maximum(running[:-1], cur_max)
            for i in np.flatnonzero(y > prev)[: n_target - found]:
                values[r, found], thetas[r, found], s_inv[r, found] = y[i], theta[i], sinv[i]
                times[r, found] = offset + int(i) + 1
                found += 1
            if found == n_target:
                observations[r] = times[r, -1]
                departures += int(np.count_nonzero(departed[:observations[r] - offset]))
                break
            departures += int(np.count_nonzero(departed))
            cur_max = max(cur_max, float(running[-1]))
            sinv_carry = float(sinv[-1])
            offset += b
            block = min(block * 2, montecarlo._MAX_BLOCK)
        else:
            truncated[r], observations[r] = True, offset
            values[r] = thetas[r] = s_inv[r] = np.nan
            times[r] = 0
    draws = montecarlo.SimulationDraws(values, thetas, times, s_inv, truncated, observations)
    if config.theta_model.scheme == Scheme.STOCHASTIC_GEOMETRIC:
        draws.geometric_exponent_clamped = departures
    elif config.theta_model.scheme == Scheme.WHITE_NOISE:
        draws.white_noise_redraws = departures
    return draws


DRAW_FIELDS = ("values", "thetas", "times", "s_inv", "truncated", "observations")
COUNTERS = ("geometric_exponent_clamped", "white_noise_redraws")

FAMILIES = (families.gamma_type(Member.GAMMA, p=0.5), families.gamma_type(Member.GAMMA, p=2.0),
            exp_family(), families.proportional_reversed_hazard(Member.BETA))

MODELS = st.one_of(
    st.just(ParameterSequenceModel.ar_positive_error()),
    st.builds(ParameterSequenceModel.white_noise,
              mean=st.sampled_from([10.0, 0.5]), sd=st.just(1.0)),  # 0.5: frequent redraws
    st.builds(ParameterSequenceModel.stochastic_geometric, st.booleans()),
    st.builds(ParameterSequenceModel.constant, st.sampled_from([1.0, 2.5])),
    st.builds(ParameterSequenceModel.user_supplied,
              st.lists(st.floats(0.1, 5.0), min_size=1, max_size=300)),
)


def outcome(simulate, config):
    """Bytes of every draws field, or the DataError message."""
    try:
        draws = simulate(config)
    except DataError as exc:
        return str(exc)
    return (tuple(getattr(draws, f).tobytes() for f in DRAW_FIELDS)
            + tuple(getattr(draws, c) for c in COUNTERS))


def forced_handoffs(mp, rows=24):
    """Batches of `rows` replicates that suspend before their 128-observation
    block, so nearly every batch reaches a worker; group sizes change too."""
    mp.setattr(montecarlo, "_BATCH_ROWS", rows)
    mp.setattr(montecarlo, "_BATCH_ELEMENTS", 128)


class TestMatchesReference:
    """The batched engine gives the per-replicate loop's draws bit for bit,
    at one, two and eight threads, over batch boundaries and hand-offs to
    workers.  Constant-theta hazard-family configs run the record chain,
    equal in law only (TestRecordChain)."""

    def assert_same(self, config):
        expect = outcome(reference_simulate, config)
        for threads in (1, 2):
            got = outcome(lambda c: montecarlo.simulate_records(c, threads=threads), config)
            assert got == expect, f"threads={threads}"
        with pytest.MonkeyPatch.context() as mp:
            forced_handoffs(mp)
            for threads in (1, 2, 8):
                got = outcome(lambda c: montecarlo.simulate_records(c, threads=threads), config)
                assert got == expect, f"threads={threads}, forced hand-offs"
        return expect

    @settings(max_examples=150, deadline=None)
    @given(family=st.sampled_from(FAMILIES), model=MODELS, n_target=st.integers(1, 5),
           reps=st.integers(1, 200), seed=st.integers(0, 2**130),
           cap=st.sampled_from([40, 700, 20000]))
    def test_bit_equal(self, family, model, n_target, reps, seed, cap):
        assume(model.scheme != Scheme.CONSTANT or family.kind == families.Kind.GAMMA_TYPE)
        config = SimulationConfig(family=family, theta_model=model, n_target=n_target,
                                  replications=reps, master_seed=seed, max_observations=cap)
        self.assert_same(config)

    def test_rows_reach_the_largest_block(self):
        # ~11 records in 65,472 iid draws: 14 need the 65,536 block, and the
        # cap trims the block after it.  Gamma-type p = 1 gives the same iid
        # exponential law as the hazard family, and it streams.
        config = SimulationConfig(family=families.gamma_type(Member.GAMMA, p=1.0),
                                  theta_model=ParameterSequenceModel.constant(1.0),
                                  n_target=14, replications=3, master_seed=51,
                                  max_observations=150_000)
        draws = montecarlo.simulate_records(config)
        assert draws.observations.max() > 65_472
        self.assert_same(config)

    def test_many_threads_with_frequent_switches(self):
        """Workers write disjoint rows of the shared draws: eight threads on
        handed-off batches, switching every 10 us, lose no row.  Batches of
        16 and 48 rows, the last one shorter, reuse the generators of
        batches that workers finished."""
        config = SimulationConfig(family=families.gamma_type(Member.GAMMA, p=0.5),
                                  theta_model=ParameterSequenceModel.white_noise(),
                                  n_target=3, replications=600, master_seed=53,
                                  max_observations=5000)
        expect = outcome(reference_simulate, config)
        interval = sys.getswitchinterval()
        take = montecarlo.ThetaStream.take
        for rows in (16, 48):
            takers = set()

            def recording(self, count, rows=None):
                takers.add(threading.get_ident())
                return take(self, count, rows)

            try:
                sys.setswitchinterval(1e-5)
                with pytest.MonkeyPatch.context() as mp:
                    forced_handoffs(mp, rows)
                    mp.setattr(montecarlo.ThetaStream, "take", recording)
                    got = outcome(lambda c: montecarlo.simulate_records(c, threads=8), config)
            finally:
                sys.setswitchinterval(interval)
            assert got == expect, f"rows={rows}"
            assert takers - {threading.get_ident()}, "no batch ran on a worker"

    def test_short_replicates_start_no_thread(self, monkeypatch):
        # geometric theta ends every replicate within ~100 observations, far
        # short of a 4096-observation block: no batch is handed off.  The
        # record chain has no blocks, so even with hand-offs forced it hands
        # none off
        started = []
        start = threading.Thread.start

        def recording(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording)
        config = SimulationConfig(family=families.gamma_type(Member.GAMMA, p=0.5),
                                  theta_model=ParameterSequenceModel.stochastic_geometric(),
                                  n_target=4, replications=2000, master_seed=56)
        draws = montecarlo.simulate_records(config, threads=2)
        assert draws.observations.max() <= 4032  # the blocks before the first of 4096
        forced_handoffs(monkeypatch)
        chain = montecarlo.simulate_records(constant_config(exp_family(), 1.0, 70), threads=2)
        assert chain.sampler == "record_chain"
        assert started == []

    def test_handed_off_batches_recycle_generators(self, monkeypatch):
        """Finished batches give their generators to later ones: streams
        built anew stay within the batches in flight, however many batches
        run."""
        built = []

        def counting(master_seed, r, reuse=None):
            if reuse is None:
                built.append(r)
            return replicate_stream(master_seed, r, reuse)

        monkeypatch.setattr(montecarlo, "replicate_stream", counting)
        forced_handoffs(monkeypatch, rows=8)
        config = SimulationConfig(family=exp_family(),
                                  theta_model=ParameterSequenceModel.white_noise(),
                                  n_target=3, replications=800, master_seed=57)
        draws = montecarlo.simulate_records(config, threads=2)
        # at most two batches on workers and one on the calling thread
        assert len(built) <= 8 * 3
        assert outcome(lambda c: draws, config) == outcome(reference_simulate, config)

    def test_clamped_exponents_are_counted(self):
        # rows that are still short of 200 records past i ~ 7.3e3 use thetas
        # whose geometric exponent was clamped; some reach the cap
        config = SimulationConfig(family=exp_family(),
                                  theta_model=ParameterSequenceModel.stochastic_geometric(),
                                  n_target=200, replications=70, master_seed=54,
                                  max_observations=12_000)
        self.assert_same(config)
        draws = montecarlo.simulate_records(config)
        assert draws.truncated.any() and not draws.truncated.all()
        assert draws.geometric_exponent_clamped > 0

    def test_departures_are_counted_in_bounded_memory(self):
        # once the clamp binds for most positions records come at a log rate,
        # so every row runs to the cap, clamping ~96% of its 10**6 values
        config = SimulationConfig(family=exp_family(),
                                  theta_model=ParameterSequenceModel.stochastic_geometric(),
                                  n_target=300, replications=3, master_seed=55,
                                  max_observations=10**6)
        tracemalloc.start()
        try:
            draws = montecarlo.simulate_records(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert draws.truncated.all()
        expect = reference_simulate(config).geometric_exponent_clamped
        assert draws.geometric_exponent_clamped == expect > 2_800_000
        # one 65,536-observation block's matrices, not a record per clamped value
        assert peak < 16 * 2**20

    def test_theta_list_exhaustion_message(self):
        config = SimulationConfig(family=exp_family(),
                                  theta_model=ParameterSequenceModel.user_supplied([1.0] * 100),
                                  n_target=40, replications=130, master_seed=52)
        message = self.assert_same(config)
        assert message == "user-supplied theta list exhausted after 100 observations before record 40"


class TestBatchedThetaStream:
    @settings(max_examples=40, deadline=None)
    @given(model=MODELS.filter(lambda m: m.scheme != Scheme.USER_SUPPLIED),
           counts=st.lists(st.integers(1, 80), min_size=1, max_size=4),
           subsets=st.lists(st.lists(st.booleans(), min_size=5, max_size=5), min_size=4, max_size=4))
    def test_rows_match_single_streams(self, model, counts, subsets):
        """Each row of a batched stream is the stream of its generator alone,
        whichever rows each call takes."""
        batched = montecarlo.ThetaStream(model, [replicate_stream(60, r) for r in range(5)])
        single = [montecarlo.ThetaStream(model, [replicate_stream(60, r)]) for r in range(5)]
        for count, subset in zip(counts, subsets):
            rows = np.flatnonzero(subset)
            if rows.size == 0:
                continue
            block = batched.take(count, rows)
            assert block.shape == (rows.size, count)
            for row, r in zip(block, rows):
                assert row.tobytes() == single[r].take(count)[0].tobytes()


HAZARD_FAMILIES = (exp_family(), families.proportional_reversed_hazard(Member.BETA))


def constant_config(family, theta, seed, n_target=4, reps=2000, cap=10**5):
    return SimulationConfig(family=family, theta_model=ParameterSequenceModel.constant(theta),
                            n_target=n_target, replications=reps, master_seed=seed,
                            max_observations=cap)


class TestRecordChain:
    """Constant-theta hazard-family replicates are exact record chains: the
    streaming reference's record process in law, truncation included."""

    @pytest.mark.parametrize("family", HAZARD_FAMILIES, ids=lambda f: f.kind.value)
    @pytest.mark.parametrize("theta", [1.0, 2.5])
    def test_same_law_as_streaming(self, family, theta):
        chain = montecarlo.simulate_records(constant_config(family, theta, 61))
        stream = reference_simulate(constant_config(family, theta, 62))
        assert chain.sampler == "record_chain"
        for k in range(4):
            for name in ("values", "times"):
                a = getattr(chain, name)[chain.ok, k]
                b = getattr(stream, name)[stream.ok, k]
                p = sps.ks_2samp(a, b).pvalue
                assert p > 1e-3, f"{name} k={k + 1}: p={p:.2g}"

    def test_fields_follow_the_record_times(self):
        draws = montecarlo.simulate_records(constant_config(exp_family(), 2.5, 63))
        ok = draws.ok
        # streaming cumulates 1/theta, which rounds differently: not compared
        assert np.array_equal(draws.s_inv[ok], draws.times[ok] / 2.5)
        assert np.all(draws.thetas[ok] == 2.5)
        assert np.array_equal(draws.observations[ok], draws.times[ok, -1])
        assert np.all(draws.times[ok, 0] == 1) and np.all(np.diff(draws.times[ok]) > 0)
        assert np.all(np.diff(draws.values[ok]) > 0)

    def test_truncated_fraction_matches_streaming(self):
        reps = 4000
        chain = montecarlo.simulate_records(constant_config(exp_family(), 1.0, 64, reps=reps, cap=40))
        stream = reference_simulate(constant_config(exp_family(), 1.0, 65, reps=reps, cap=40))
        a, b = chain.truncated.mean(), stream.truncated.mean()
        f = (a + b) / 2
        assert 0 < f < 1
        assert abs(a - b) < 4 * math.sqrt(2 * f * (1 - f) / reps)
        cut = chain.truncated
        assert np.all(chain.observations[cut] == 40) and np.all(chain.times[cut] == 0)
        assert np.all(np.isnan(chain.values[cut])) and np.all(np.isnan(chain.s_inv[cut]))
        assert np.all(chain.observations[~cut] <= 40)

    @pytest.mark.parametrize("n_target", [170, 800])  # 800: exp(-level) underflows
    def test_extreme_levels_are_truncated(self, n_target):
        config = constant_config(exp_family(), 1.0, 66, n_target=n_target, reps=200, cap=2**62)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            draws = montecarlo.simulate_records(config)
        assert draws.truncated.all()
        assert np.all(draws.times == 0) and np.all(draws.observations == 2**62)
        assert np.all(np.isnan(draws.values))

    def test_zero_draw_against_zero_probability(self):
        # level 800: the success probability underflows to 0, and a wait
        # draw of exactly 0 must still give an infinite wait, not NaN
        e = np.array([[800.0, 0.0, 0.0], [800.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            levels, times = montecarlo.record_chain(e)
        assert levels.tolist() == [[800.0, 800.0], [800.0, 800.0], [0.0, 1.0]]
        assert times.tolist() == [[1.0, math.inf], [1.0, math.inf], [1.0, 2.0]]

    def test_single_record_is_the_first_observation(self):
        # one record needs no wait: the chain's single draw is the first
        # value of the replicate stream, as in the streaming reference
        config = constant_config(exp_family(), 2.5, 67, n_target=1, reps=150)
        assert outcome(montecarlo.simulate_records, config) == outcome(reference_simulate, config)

    def test_byte_identical_across_threads(self):
        # batches of 96 (the last of 20), with hand-offs forced, give the
        # bytes of the default batches: the chain never leaves the caller
        config = constant_config(families.proportional_reversed_hazard(Member.BETA), 1.0, 68,
                                 n_target=5, reps=500)
        with pytest.MonkeyPatch.context() as mp:
            forced_handoffs(mp, rows=96)
            got = [outcome(lambda c: montecarlo.simulate_records(c, threads=t), config)
                   for t in (1, 2, 8)]
        assert got[0] == got[1] == got[2] == outcome(montecarlo.simulate_records, config)

    def test_one_stream_per_replicate(self, monkeypatch):
        seen = []

        def counting(master_seed, r, reuse=None):
            seen.append(r)
            return replicate_stream(master_seed, r, reuse)

        monkeypatch.setattr(montecarlo, "replicate_stream", counting)
        monkeypatch.setattr(montecarlo, "_BATCH_ROWS", 96)
        montecarlo.simulate_records(constant_config(exp_family(), 1.0, 69, reps=300), threads=2)
        assert sorted(seen) == list(range(300))
