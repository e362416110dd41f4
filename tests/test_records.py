"""Record extraction: scan semantics, canonical records, block scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recsel import families, records
from recsel.errors import DataError, UsageError
from recsel.families import Member
from recsel.records import Direction


class TestExtract:
    def test_upper_example(self):
        rec = records.extract_records([3, 1, 4, 1, 5], Direction.UPPER)
        assert rec.values.tolist() == [3, 4, 5]
        assert rec.times.tolist() == [1, 3, 5]
        assert rec.source_length == 5

    def test_lower_example(self):
        rec = records.extract_records([3, 1, 4, 1, 5], Direction.LOWER)
        assert rec.values.tolist() == [3, 1]
        assert rec.times.tolist() == [1, 2]

    def test_rainfall_sequence_is_all_records(self):
        seq = [12.69, 12.84, 18.72, 21.96, 23.92, 27.16, 31.28, 34.04]
        rec = records.extract_records(seq, Direction.UPPER)
        assert len(rec) == 8
        assert rec.times.tolist() == list(range(1, 9))

    def test_single_value(self):
        rec = records.extract_records([7.0])
        assert rec.values.tolist() == [7.0] and rec.times.tolist() == [1]

    def test_ties_are_not_records(self):
        rec = records.extract_records([1.0, 1.0, 2.0], Direction.UPPER)
        assert rec.values.tolist() == [1.0, 2.0]
        assert rec.times.tolist() == [1, 3]

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            records.extract_records([])

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            records.extract_records([1.0, np.nan])

    def test_idempotent_on_own_values(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            seq = rng.normal(size=50)
            rec = records.extract_records(seq, Direction.UPPER)
            again = records.extract_records(rec.values, Direction.UPPER)
            assert np.array_equal(again.values, rec.values)
            assert again.times.tolist() == list(range(1, len(rec) + 1))


class TestTransformed:
    def test_rayleigh_example(self):
        fam = families.gamma_type(Member.RAYLEIGH)
        rec = records.canonical_records([1.0, 3.0, 2.0], fam)
        assert rec.values.tolist() == [0.5, 4.5]
        assert rec.times.tolist() == [1, 2]

    def test_identity_matches_plain_upper(self):
        fam = families.gamma_type(Member.EXPONENTIAL)
        rng = np.random.default_rng(1)
        seq = rng.exponential(size=200)
        a = records.canonical_records(seq, fam)
        b = records.extract_records(seq, Direction.UPPER)
        assert np.array_equal(a.values, b.values) and np.array_equal(a.times, b.times)

    def test_decreasing_transform_uses_lower_records(self):
        # S(x) = 1/(2x) falls, so S-records are S of the raw lower records
        fam = families.gamma_type(Member.INVERSE_GAUSSIAN)
        rng = np.random.default_rng(2)
        for _ in range(100):
            seq = rng.gamma(2.0, size=rng.integers(3, 60))
            direct = records.canonical_records(seq, fam)
            lower = records.extract_records(seq, Direction.LOWER)
            assert direct.values == pytest.approx(families.s_transform(fam, lower.values))
            assert np.array_equal(direct.times, lower.times)

    def test_increasing_transform_shortcut(self):
        fam = families.gamma_type(Member.WEIBULL_KNOWN_BETA, beta=2.5)
        rng = np.random.default_rng(3)
        for _ in range(100):
            seq = rng.weibull(2.5, size=rng.integers(3, 60))
            direct = records.canonical_records(seq, fam)
            upper = records.extract_records(seq, Direction.UPPER)
            assert direct.values == pytest.approx(families.s_transform(fam, upper.values))
            assert np.array_equal(direct.times, upper.times)

    def test_raw_values_are_checked_before_s(self):
        # inf is named as non-finite, not as outside the support (the
        # inverse-Gaussian S would map it to 0)
        fam = families.gamma_type(Member.INVERSE_GAUSSIAN)
        with pytest.raises(DataError, match="non-finite"):
            records.canonical_records([1.0, np.inf], fam)


class TestCanonical:
    def test_phr_is_hazard_of_upper(self):
        fam = families.proportional_hazard(Member.RAYLEIGH)
        seq = [1.0, 0.5, 2.0, 1.5, 3.0]
        canon = records.canonical_records(seq, fam)
        upper = records.extract_records(seq, Direction.UPPER)
        assert canon.values == pytest.approx(families.cumulative_hazard(fam, upper.values))
        assert np.array_equal(canon.times, upper.times)

    def test_reversed_family_uses_lower_records(self):
        fam = families.proportional_reversed_hazard(Member.BETA)
        seq = [0.5, 0.8, 0.3, 0.4, 0.1]
        canon = records.canonical_records(seq, fam)
        lower = records.extract_records(seq, Direction.LOWER)
        assert np.array_equal(canon.times, lower.times)
        assert canon.values == pytest.approx(-np.log(lower.values))
        assert np.all(np.diff(canon.values) > 0)

    def test_infinite_canonical_value_rejected(self):
        # -log G(0) = inf for the beta member, so 0 lies outside its support
        fam = families.proportional_reversed_hazard(Member.BETA)
        with pytest.raises(DataError, match=r"value 0.0 outside support \(0.0, 1.0\]"):
            records.canonical_records([0.5, 0.2, 0.0], fam)


class TestAccumulator:
    """Record counts over many one-shot scans."""

    def test_expected_record_count_harmonic(self):
        # iid continuous length-100 sequences produce ~H_100 records
        m, reps = 100, 10**4
        rng = np.random.default_rng(6)
        counts = np.empty(reps)
        for r in range(reps):
            counts[r] = len(records.extract_records(rng.random(m), Direction.UPPER))
        harmonic = np.sum(1.0 / np.arange(1, m + 1))
        var = np.sum((1.0 / np.arange(1, m + 1)) * (1.0 - 1.0 / np.arange(1, m + 1)))
        se = np.sqrt(var / reps)
        assert abs(counts.mean() - harmonic) < 3 * se


finite = st.floats(-1e6, 1e6, allow_nan=False)
# small integers make ties, which must not count as records
sequences = st.lists(st.one_of(finite, st.integers(-3, 3).map(float)), min_size=1, max_size=200)


class TestRecordMask:
    @settings(max_examples=200, deadline=None)
    @given(seq=sequences, cuts=st.lists(st.integers(1, 200), max_size=8),
           direction=st.sampled_from(list(Direction)))
    def test_accumulator_equals_one_shot_scan_for_any_split(self, seq, cuts, direction):
        """Blocks scanned in turn, each with the extreme the last one left,
        mark the records of one scan of the whole sequence."""
        bounds = sorted({0, len(seq), *(c for c in cuts if c < len(seq))})
        extreme = -np.inf if direction == Direction.UPPER else np.inf
        masks = []
        for a, b in zip(bounds, bounds[1:]):
            mask, extreme = records.record_mask(seq[a:b], extreme, direction)
            masks.append(mask)
        batch = records.extract_records(seq, direction)
        assert np.array_equal(np.flatnonzero(np.concatenate(masks)) + 1, batch.times)
        assert extreme == batch.values[-1]

    @settings(max_examples=200, deadline=None)
    @given(seq=sequences, direction=st.sampled_from(list(Direction)))
    def test_records_are_strict_and_start_at_time_1(self, seq, direction):
        rec = records.extract_records(seq, direction)
        steps = np.diff(rec.values)
        assert np.all(steps > 0) if direction == Direction.UPPER else np.all(steps < 0)
        assert rec.times[0] == 1
        assert np.all(np.diff(rec.times) > 0)
        assert rec.values[-1] == (max(seq) if direction == Direction.UPPER else min(seq))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(finite, min_size=6, max_size=6), min_size=1, max_size=5),
           carried=st.lists(st.one_of(finite, st.just(-np.inf)), min_size=5, max_size=5))
    def test_rows_scan_as_alone(self, rows, carried):
        """A 2-d block scans each row with its own carried extreme."""
        block = np.array(rows)
        extreme = np.array(carried[:block.shape[0]])
        mask, after = records.record_mask(block, extreme)
        for row, e, m, a in zip(block, extreme, mask, after):
            m1, a1 = records.record_mask(row, e)
            assert np.array_equal(m, m1) and a == a1
            assert a == max(e, row.max())
            prev = np.maximum.accumulate(np.concatenate(([e], row)))[:-1]
            assert np.array_equal(m, row > prev)
