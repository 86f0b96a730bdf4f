import itertools
import random
import warnings

import pytest

from hrscodes import (
    CSV_HEADER,
    ChannelSpec,
    CodeParams,
    FailureReason,
    MISCORRECTED,
    NrtMatrix,
    ParameterError,
    PrimeField,
    TrialReport,
    count_matrices_of_weight,
    decoding_radius,
    nrt_weight,
    run_trials,
    sample_error,
)
from hrscodes.channel import _stream
from reference import column_weight, count_error_matrices


class TestCounting:
    def test_column_counts(self):
        assert count_matrices_of_weight(2, 7, 0) == 1
        assert count_matrices_of_weight(2, 7, 1) == 6
        assert count_matrices_of_weight(2, 7, 2) == 42

    def test_column_counts_exhaustive(self):
        s, p = 2, 7
        hist = [0] * (s + 1)
        for col in itertools.product(range(p), repeat=s):
            hist[column_weight(col)] += 1
        for u in range(s + 1):
            assert count_matrices_of_weight(s, p, u) == hist[u]

    def test_matrix_counts_exhaustive(self):
        s, r, p = 2, 2, 3
        gf = PrimeField(p)
        hist = [0] * (s * r + 1)
        for flat in itertools.product(range(p), repeat=s * r):
            m = NrtMatrix(gf, [list(flat[:r]), list(flat[r:])])
            hist[nrt_weight(m)] += 1
        for w in range(s * r + 1):
            assert count_error_matrices(s, r, p, w) == hist[w]
        assert sum(hist) == p ** (s * r)

    def test_counts_partition_the_space(self):
        for s, r, p in [(1, 4, 5), (3, 2, 7), (2, 3, 11)]:
            total = sum(count_error_matrices(s, r, p, w) for w in range(s * r + 1))
            assert total == p ** (s * r)

    def test_validation(self):
        with pytest.raises(ParameterError):
            count_matrices_of_weight(2, 7, 3)
        with pytest.raises(ValueError):
            ChannelSpec(p=6, s=2, r=2, weight=1)
        with pytest.raises(ParameterError):
            ChannelSpec(p=7, s=0, r=2, weight=0)
        with pytest.raises(ParameterError):
            ChannelSpec(p=7, s=2, r=2, weight=5)
        with pytest.raises(ParameterError):
            ChannelSpec(p=7, s=2, r=2, weight=-1)


class TestSampling:
    def test_weight_zero_and_full(self):
        spec = ChannelSpec(p=7, s=3, r=4, weight=0, seed=1)
        assert nrt_weight(sample_error(spec)) == 0
        spec = ChannelSpec(p=7, s=3, r=4, weight=12, seed=1)
        err = sample_error(spec)
        assert nrt_weight(err) == 12
        assert all(int(v) != 0 for v in err.entries[0])

    def test_exact_weight(self):
        rnd = random.Random(30)
        for _ in range(200):
            s, r = rnd.randint(1, 4), rnd.randint(1, 5)
            spec = ChannelSpec(
                p=rnd.choice([2, 3, 7, 101]),
                s=s,
                r=r,
                weight=rnd.randint(0, s * r),
                seed=rnd.getrandbits(32),
            )
            assert nrt_weight(sample_error(spec)) == spec.weight

    def test_deterministic_per_seed(self):
        spec = ChannelSpec(p=101, s=3, r=5, weight=9, seed=77)
        assert sample_error(spec) == sample_error(spec)
        other = ChannelSpec(p=101, s=3, r=5, weight=9, seed=78)
        assert sample_error(other) != sample_error(spec)

    def test_shared_stream_advances(self):
        spec = ChannelSpec(p=101, s=3, r=5, weight=9, seed=77)
        rng = spec.rng()
        assert sample_error(spec, rng) != sample_error(spec, rng)

    def test_small_space_is_covered(self):
        # s=1, r=1, p=3, w=1: only the matrices [[1]] and [[2]] exist.
        spec = ChannelSpec(p=3, s=1, r=1, weight=1, seed=5)
        rng = spec.rng()
        seen = {int(sample_error(spec, rng).entries[0, 0]) for _ in range(100)}
        assert seen == {1, 2}

    def test_seeds_at_and_above_2_63_draw_apart(self):
        # Seeds with seed mod 2**64 >= 2**63 (every negative seed among
        # them) once made a float64 Philox key: neighbours drew the same
        # streams, with a RuntimeWarning from the cast.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in ((-5, -6), (2**63 + 7, 2**63 + 8)):
                draws = [
                    sample_error(ChannelSpec(p=101, s=2, r=4, weight=5, seed=seed))
                    for seed in (a, b)
                ]
                assert draws[0] != draws[1]
                trial = [_stream(seed, 3).integers(0, 2**62, size=4).tolist() for seed in (a, b)]
                assert trial[0] != trial[1]

    def test_streams_pinned_below_2_63(self, golden_params):
        # Draws fixed before the key became uint64; seeds in [0, 2**63)
        # keep them.
        pinned = {
            0: [[62, 0, 0, 51], [24, 0, 19, 91]],
            5: [[6, 0, 0, 25], [59, 21, 0, 84]],
            2**63 - 1: [[0, 76, 49, 0], [0, 62, 53, 74]],
        }
        for seed, rows in pinned.items():
            spec = ChannelSpec(p=101, s=2, r=4, weight=5, seed=seed)
            assert sample_error(spec).to_lists() == rows
        # (no_solution, non_divisible, miscorrected) of 40 trials at weight 4.
        reports = {0: (4, 32, 4), 5: (4, 29, 7), 2**63 - 1: (10, 24, 6)}
        for seed, counts in reports.items():
            report = run_trials(golden_params, weight=4, trials=40, seed=seed)
            f = report.failures
            got = (f[FailureReason.NO_SOLUTION.value], f[FailureReason.NON_DIVISIBLE.value])
            assert got + (f[MISCORRECTED],) == counts

    def test_big_modulus(self):
        p = (1 << 61) - 1
        spec = ChannelSpec(p=p, s=2, r=3, weight=4, seed=9)
        err = sample_error(spec)
        assert nrt_weight(err) == 4
        flat = [int(v) for row in err.to_lists() for v in row]
        assert all(0 <= v < p for v in flat)
        assert any(v > (1 << 32) for v in flat)  # draws use the full range


class TestTrials:
    def test_within_radius_always_recovers(self, golden_params):
        report = run_trials(golden_params, weight=2, trials=50, seed=3)
        assert report.successes == 50
        assert all(v == 0 for v in report.failures.values())
        assert report.mean_decode_us > 0

    def test_weight_zero(self, golden_params):
        report = run_trials(golden_params, weight=0, trials=10, seed=4)
        assert report.successes == 10

    def test_outcomes_partition_trials(self):
        params = CodeParams(5, 4, 2, 2, [0, 1, 2, 3])
        for weight in range(params.s * params.r + 1):
            report = run_trials(params, weight=weight, trials=40, seed=weight)
            assert report.successes + sum(report.failures.values()) == 40
            if weight <= decoding_radius(params):
                assert report.successes == 40
        beyond = run_trials(params, weight=params.s * params.r, trials=40, seed=11)
        assert sum(beyond.failures.values()) + beyond.successes == 40
        assert beyond.successes < 40  # weight 8 cannot look like weight <= 3

    def test_deterministic_report(self, golden_params):
        a = run_trials(golden_params, weight=3, trials=30, seed=12)
        b = run_trials(golden_params, weight=3, trials=30, seed=12)
        assert a == b  # timing differs; equality ignores it

    def test_zero_trials(self, golden_params):
        report = run_trials(golden_params, weight=1, trials=0, seed=0)
        assert report.trials == 0 and report.successes == 0
        assert report.mean_decode_us == 0.0

    def test_trial_validation(self, golden_params):
        with pytest.raises(ParameterError):
            run_trials(golden_params, weight=1, trials=-1, seed=0)
        with pytest.raises(ParameterError):
            run_trials(golden_params, weight=9, trials=1, seed=0)


class TestCsv:
    def test_header(self):
        assert CSV_HEADER == (
            "weight,trials,successes,fail_nosolution,fail_nondivisible,"
            "fail_distance,mean_decode_us"
        )

    def test_row_layout(self):
        report = TrialReport(
            weight=3,
            trials=100,
            successes=90,
            failures={
                FailureReason.NO_SOLUTION.value: 6,
                FailureReason.NON_DIVISIBLE.value: 3,
                FailureReason.DISTANCE_EXCEEDED.value: 0,
                MISCORRECTED: 1,
            },
            mean_decode_us=123.4567,
        )
        assert report.csv_row() == "3,100,90,6,3,0,123.457"
        assert len(report.csv_row().split(",")) == len(CSV_HEADER.split(","))

    def test_real_row_parses(self, golden_params):
        report = run_trials(golden_params, weight=2, trials=5, seed=6)
        cells = report.csv_row().split(",")
        assert [int(c) for c in cells[:6]] == [2, 5, 5, 0, 0, 0]
        assert float(cells[6]) >= 0
