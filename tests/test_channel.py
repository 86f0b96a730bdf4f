import gc
import hashlib
import itertools
import os
import random
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
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
    decode,
    decoding_radius,
    nrt_weight,
    run_trials,
    sample_error,
)
from hrscodes import channel, decoder, hrs, poly
from hrscodes.channel import _stream, _table_fits, _tail_counts
from reference import column_weight, count_error_matrices, generator_sample_error, tail_counts
from reference import run_trials as trial_by_trial

MODULI = (2, 3, 5, 7, 101, 2**31 - 1, 2**32 + 15, 2**61 - 1)
BIT_GENERATORS = (
    np.random.MT19937,
    np.random.Philox,
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.SFC64,
)


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

    @pytest.mark.parametrize("p", [2, 3, 7, 101, 2**61 - 1])
    def test_tail_table_matches_convolution(self, p):
        for s, r in itertools.product(range(1, 5), (1, 2, 3, 5, 8, 16)):
            for w in sorted({0, 1, s, r * s // 2, r * s}):
                table = _tail_counts(p, s, r, w)
                assert table == tail_counts(p, s, r, w)
                # sample_error reads the column counts from row 1.
                top = min(w, s)
                counts = [count_matrices_of_weight(s, p, u) for u in range(top + 1)]
                assert table[1][: top + 1] == counts

    def test_each_spec_builds_its_table_once(self, monkeypatch, golden_params):
        # One build per ChannelSpec however many draws it serves, and one
        # per run_trials call.
        builds, build = [], channel._tail_counts
        monkeypatch.setattr(channel, "_tail_counts", lambda *key: builds.append(key) or build(*key))
        spec = ChannelSpec(p=101, s=3, r=10, weight=7, seed=2)
        for seed in range(5):
            sample_error(spec, _stream(seed, 0))
        assert builds == [(101, 3, 10, 7)]
        builds.clear()
        for trials in (0, 3, 2 * channel._BLOCK + 1):
            run_trials(golden_params, 2, trials, seed=4)
        assert builds == [(7, 2, 4, 2)] * 3

    def test_tables_go_with_their_specs(self):
        # Each table of this shape takes over 1 MiB; once its spec is
        # gone, nothing of it stays.
        sample_error(ChannelSpec(p=7, s=2, r=2, weight=1))  # imports and streams
        tracemalloc.start()
        try:
            for w in (80, 81, 82):
                sample_error(ChannelSpec(p=2**61 - 1, s=2, r=64, weight=w, seed=w))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1 << 20

    def test_validation(self):
        with pytest.raises(ParameterError):
            count_matrices_of_weight(2, 7, 3)
        for args in ((2, 7, 1.5), (2, 7, True), (2, 7.5, 2), (2.0, 7, 1), ("2", 7, 1)):
            with pytest.raises(ParameterError, match="must be an integer"):
                count_matrices_of_weight(*args)
        assert count_matrices_of_weight(np.int64(2), np.int64(7), np.int64(2)) == 42
        with pytest.raises(ValueError):
            ChannelSpec(p=6, s=2, r=2, weight=1)
        with pytest.raises(ParameterError):
            ChannelSpec(p=7, s=0, r=2, weight=0)
        with pytest.raises(ParameterError):
            ChannelSpec(p=7, s=2, r=2, weight=5)
        with pytest.raises(ParameterError):
            ChannelSpec(p=7, s=2, r=2, weight=-1)
        for name, value in (("seed", 1.5), ("s", 2.0), ("weight", 2.0), ("seed", True)):
            with pytest.raises(ParameterError, match=f"{name} must be an integer"):
                ChannelSpec(**{"p": 7, "s": 2, "r": 2, "weight": 1, name: value})
        spec = ChannelSpec(*np.array([7, 2, 2, 1, 5]))
        assert spec == ChannelSpec(7, 2, 2, 1, 5) and type(spec.seed) is int


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

    def test_draw_holds_the_generator_lock(self):
        # Words are read through ctypes calls, which release the GIL: while
        # another thread holds the bit generator's lock, no draw starts, not
        # even one that reads only the buffered half word integers(0, 7)
        # left behind.
        spec = ChannelSpec(p=2, s=1, r=1, weight=1, seed=2)
        rng = spec.rng()
        rng.integers(0, 7)
        out = []
        worker = threading.Thread(target=lambda: out.append(sample_error(spec, rng)))
        with rng.bit_generator.lock:
            worker.start()
            worker.join(0.2)
            assert worker.is_alive()
        worker.join(10)
        assert not worker.is_alive()
        assert nrt_weight(out[0]) == spec.weight

    def test_big_modulus(self):
        p = (1 << 61) - 1
        spec = ChannelSpec(p=p, s=2, r=3, weight=4, seed=9)
        err = sample_error(spec)
        assert nrt_weight(err) == 4
        flat = [int(v) for row in err.to_lists() for v in row]
        assert all(0 <= v < p for v in flat)
        assert any(v > (1 << 32) for v in flat)  # draws use the full range


def draw_digest() -> str:
    """sha256 over seeded sample_error matrices (seven moduli from 2 to
    2**61 - 1, shapes 1x1 to 4x3 at every weight, seeds below and at or above
    2**63, six draws from one shared stream per modulus) and run_trials
    reports."""
    digest = hashlib.sha256()
    seeds = (0, 11, 2**63 - 1, 2**63, 2**64 - 3, -5)
    for p in (2, 3, 7, 101, 2**31 - 1, 2**32 + 15, 2**61 - 1):
        for s, r in ((1, 1), (2, 3), (3, 2), (1, 6), (4, 3)):
            for weight in range(s * r + 1):
                for seed in seeds[weight % 3 :: 3]:
                    spec = ChannelSpec(p=p, s=s, r=r, weight=weight, seed=seed)
                    record = (p, s, r, weight, seed, sample_error(spec).to_lists())
                    digest.update(repr(record).encode())
        spec = ChannelSpec(p=p, s=4, r=9, weight=17, seed=2**63 + p)
        rng = spec.rng()
        for _ in range(6):
            digest.update(repr(sample_error(spec, rng).to_lists()).encode())
    params = CodeParams(PrimeField(7), 4, 2, 4, [1, 2, 3, 4])
    for seed in (3, 2**63 + 3):
        for weight in (2, 4):
            report = run_trials(params, weight=weight, trials=20, seed=seed)
            record = (seed, report.weight, report.successes, sorted(report.failures.items()))
            digest.update(repr(record).encode())
    return digest.hexdigest()


def test_draws_pinned():
    """Every draw of draw_digest, byte for byte, as the sampler written
    with Generator.bytes and Generator.integers calls made them."""
    assert draw_digest() == "12f89d1e2dfdb46f254dd72e42af1c9200c30990666ab50da1fe9de4ca775038"


def test_words_keep_their_bit_generator():
    # _Words built from a Generator that is dropped at once, its memory then
    # reused by fresh bit generators, still reads the stream it was given.
    # Run in a child process, so that a crash fails this test alone.
    script = """if True:
        import numpy as np
        from hrscodes.channel import ChannelSpec, _Words, _draw, _stream, sample_error
        spec = ChannelSpec(p=101, s=3, r=16, weight=12)
        for i in range(50):
            words = _Words(_stream(9, i).bit_generator)
            fresh = [np.random.Philox(k) for k in range(50)]
            assert (_draw(spec, words) == sample_error(spec, _stream(9, i)).entries).all(), i
    """
    src = str(Path(channel.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert run.returncode == 0, run.stderr


class TestAgainstGeneratorSampler:
    """sample_error reads raw bit-generator words; the oracle makes the same
    draws through numpy Generator calls.  Both must give equal matrices and
    leave the generator in an equal state."""

    @staticmethod
    def assert_same_draws(make, specs, warm_up=None):
        ours, theirs = make(), make()
        if warm_up is not None:
            warm_up(ours)
            warm_up(theirs)
        for spec in specs:
            assert sample_error(spec, ours) == generator_sample_error(spec, theirs), spec
            assert repr(ours.bit_generator.state) == repr(theirs.bit_generator.state), spec
        # The caller's stream continues as it would have.
        after = [g.integers(0, 2**40, size=3).tolist() for g in (ours, theirs)]
        assert after[0] == after[1]

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda b: b.__name__)
    @pytest.mark.parametrize("p", MODULI)
    def test_every_weight(self, bit_generator, p):
        shapes = ((1, 1), (2, 1), (1, 3), (3, 2), (2, 5), (2, 12))
        if bit_generator is np.random.Philox:
            shapes += ((2, 40),)
        for seed, (s, r) in enumerate(shapes):
            specs = [ChannelSpec(p=p, s=s, r=r, weight=w) for w in range(s * r + 1)]
            self.assert_same_draws(lambda: np.random.Generator(bit_generator(seed)), specs)

    @pytest.mark.parametrize("p", MODULI)
    def test_odd_number_of_words_consumed(self, p):
        # integers(0, 7, size=3) reads three uint32 words and leaves the
        # high half of the second raw word in the buffer.
        specs = [ChannelSpec(p=p, s=3, r=4, weight=w) for w in (0, 1, 5, 12, 7)]
        for seed in (0, 2**63 - 1):
            self.assert_same_draws(
                lambda: _stream(seed, 1), specs, lambda g: g.integers(0, 7, size=3)
            )

    def test_range_of_one_reads_one_word(self):
        # At weight 0 every column draws from [0, 1): Generator.bytes(0)
        # still reads one uint32 word.
        spec = ChannelSpec(p=101, s=2, r=3, weight=0)
        ours, theirs = _stream(4, 0), _stream(4, 0)
        sample_error(spec, ours)
        for _ in range(3):
            theirs.bytes(0)
        assert repr(ours.bit_generator.state) == repr(theirs.bit_generator.state)

    def test_integers_1_2_reads_no_word(self):
        # Over GF(2) the single 1x1 matrix of weight 1 is [[1]]: one word for
        # its weight draw from [0, 1), none for integers(1, 2).
        spec = ChannelSpec(p=2, s=1, r=1, weight=1)
        ours, theirs = _stream(4, 0), _stream(4, 0)
        assert sample_error(spec, ours).to_lists() == [[1]]
        theirs.bytes(0)
        assert repr(ours.bit_generator.state) == repr(theirs.bit_generator.state)


class TestTailTableCap:
    def test_legal_job_past_the_cap_is_refused(self):
        # r*s = 2048 is a legal code length; this table would take GBs.
        with pytest.raises(ParameterError, match="160 MiB"):
            ChannelSpec(p=2**61 - 1, s=1, r=2048, weight=1024)
        with pytest.raises(ParameterError, match="160 MiB"):
            ChannelSpec(p=3, s=1, r=10**9, weight=0)

    def test_benchmark_codes_fit(self):
        # decode-n256, decode-bigp-n64 and the simulate-sweep codes up to
        # weight radius + 2 (the test and acceptance codes fit, or their
        # ChannelSpec would raise).
        codes = ((101, 4, 64, 64), (2**61 - 1, 4, 16, 16))
        for p, s, r, w in codes + ((7, 3, 7, 9), (101, 3, 10, 11), (101, 3, 16, 14)):
            assert _table_fits(p, s, r, w)

    @pytest.mark.parametrize(
        "p, s, r, w", [(2**61 - 1, 1, 64, 32), (3, 8, 16, 100), (101, 4, 30, 60)]
    )
    def test_estimate_bounds_the_table(self, monkeypatch, p, s, r, w):
        table = _tail_counts(p, s, r, w)
        size = sys.getsizeof(table) + sum(
            sys.getsizeof(row) + sum(sys.getsizeof(x) for x in row if x > 256) for row in table
        )
        monkeypatch.setattr(channel, "_MAX_TABLE_BYTES", size - 1)
        assert not _table_fits(p, s, r, w)
        monkeypatch.setattr(channel, "_MAX_TABLE_BYTES", 2 * size)
        assert _table_fits(p, s, r, w)


# Trial counts around the block size: none, one, a block short, a block, one
# over, and two blocks and two over.
B = channel._BLOCK
TRIAL_COUNTS = (0, 1, B - 1, B, B + 1, 2 * B + 2)


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

    @pytest.mark.parametrize("p", [7, 2**61 - 1])
    @pytest.mark.parametrize("seed", [0, 2**63 + 3, -5])
    def test_trials_draw_from_their_own_streams(self, monkeypatch, p, seed):
        # One re-keyed bit generator per run draws, in trial i, the message
        # and the error a fresh _stream(seed, i) draws.
        params = CodeParams(p, 4, 2, 3, [0, 1, 2, 5])
        messages, errors = [], []

        def record_encode(params, coeffs):
            messages.extend(np.reshape(coeffs, (-1, params.t)).tolist())
            return hrs._encode(params, coeffs)

        def record_draw(spec, words, draw=channel._draw):
            entries = draw(spec, words)
            errors.append(NrtMatrix(spec.field, entries))
            return entries

        monkeypatch.setattr(channel, "_encode", record_encode)
        monkeypatch.setattr(channel, "_draw", record_draw)
        run_trials(params, weight=3, trials=6, seed=seed)
        spec = ChannelSpec(p=p, s=2, r=4, weight=3, seed=seed)
        for index in range(6):
            rng = _stream(seed, index)
            assert messages[index] == rng.integers(0, p, size=3).tolist()
            assert errors[index] == sample_error(spec, rng)

    @pytest.mark.parametrize("multiplied", [False, True])
    @pytest.mark.parametrize("p", [2, 3, 7, 101, 2**31 - 1, 2**61 - 1])
    def test_blocks_report_what_trial_by_trial_decoding_reports(self, p, multiplied):
        # Every weight of one code, below and beyond the radius, and every
        # trial count around the block size: the block loop and the public
        # decode, one trial at a time, count the same outcomes.
        rnd = random.Random(f"blocks:{p}:{multiplied}")
        r, s = (2, 2) if p == 2 else (3, 2)
        alphas = rnd.sample(range(min(p, 10**6)), r)
        v = [[rnd.randrange(1, p) for _ in range(r)] for _ in range(s)] if multiplied else None
        params = CodeParams(p, r, s, rnd.randint(1, r * s - 1), alphas, v)
        failed = 0
        for weight in range(r * s + 1):
            for trials in TRIAL_COUNTS:
                seed = rnd.getrandbits(64)
                report = run_trials(params, weight, trials, seed)
                assert report == trial_by_trial(params, weight, trials, seed), (weight, trials)
                failed += report.trials - report.successes
        assert failed  # weights past the radius do fail

    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    def test_one_encode_and_one_interpolation_per_block(self, monkeypatch, golden_params, trials):
        calls = {"_encode": 0, "_interpolate": 0}

        def counted(name):
            def call(*args):
                calls[name] += 1
                return getattr(hrs, name)(*args)

            return call

        monkeypatch.setattr(channel, "_encode", counted("_encode"))
        monkeypatch.setattr(decoder, "_interpolate", counted("_interpolate"))
        run_trials(golden_params, weight=2, trials=trials, seed=1)
        blocks = -(-trials // B)
        assert calls == {"_encode": blocks, "_interpolate": blocks}

    @staticmethod
    def record_divisions(monkeypatch):
        """Patch the decode stages' _interpolate and _divmod: the list
        returned gets one list per block, holding (dividend, divisor,
        remainder) of each division _decode_block makes in it; the Euclid's
        own divisions, which share decoder._divmod, are not recorded."""
        blocks = []

        def interpolate(*args):
            blocks.append([])
            return hrs._interpolate(*args)

        def divmod_(a, b, p):
            quot, rest = poly._divmod(a, b, p)
            if sys._getframe(1).f_code.co_name == "_decode_block":
                blocks[-1].append((a, b, rest))
            return quot, rest

        monkeypatch.setattr(decoder, "_interpolate", interpolate)
        monkeypatch.setattr(decoder, "_divmod", divmod_)
        return blocks

    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    @pytest.mark.parametrize("weight", [2, 4])
    def test_one_stacked_division_per_shape(self, monkeypatch, golden_params, weight, trials):
        # Weight 2 is the radius, 4 lies beyond it: every trial that passes
        # the degree tests is one row of one division, a 1-D row when it is
        # alone in its shape and a stack of two or more rows otherwise, and
        # no block divides one (dividend, divisor) shape twice.
        blocks = self.record_divisions(monkeypatch)
        report = run_trials(golden_params, weight, trials, seed=weight + trials)
        assert len(blocks) == -(-trials // B)
        calls = [call for block in blocks for call in block]
        assert all(a.ndim == b.ndim == 1 or a.ndim == b.ndim == 2 <= len(a) for a, b, _ in calls)
        reached = trials - report.failures[FailureReason.NO_SOLUTION.value]
        assert sum(len(a) if a.ndim == 2 else 1 for a, _, _ in calls) == reached
        for block in blocks:
            shapes = [(a.shape[-1], b.shape[-1]) for a, b, _ in block]
            assert len(shapes) == len(set(shapes))

    def test_edge_shapes_in_stacks(self, monkeypatch):
        # r_j = 0 (an empty dividend row: the zero message) on both codes,
        # deg N0 < deg E0 (non-divisible, with an empty quotient) and blocks
        # that mix shapes: the stacks count what decode counts one trial at
        # a time.  Over GF(2) at t = 1 no trial is non-divisible.
        blocks = self.record_divisions(monkeypatch)
        rnd, non_divisible = random.Random("edges"), 0
        for p, r, s, t in ((2, 2, 2, 1), (3, 3, 2, 2)):
            params, first = CodeParams(p, r, s, t, list(range(r))), len(blocks)
            for weight, trials in itertools.product(range(r * s + 1), TRIAL_COUNTS):
                seed = rnd.getrandbits(64)
                report = run_trials(params, weight, trials, seed)
                assert report == trial_by_trial(params, weight, trials, seed), (p, weight, trials)
                non_divisible += report.failures[FailureReason.NON_DIVISIBLE.value]
            assert any(a.shape[-1] == 0 for block in blocks[first:] for a, _, _ in block), p
        calls = [call for block in blocks for call in block]
        assert non_divisible
        assert any(0 < a.shape[-1] < b.shape[-1] and rest.any() for a, b, rest in calls)
        assert any(len(block) > 1 for block in blocks)

    def test_decode_and_trials_share_one_stage_chain(self, monkeypatch, golden_params):
        # decode and run_trials reach the key equation only through
        # decoder._decode_block: one call on a stack of one per decode, one
        # per block of trials; channel.py names none of the stages.
        stage, solve, stacks, callers = decoder._decode_block, decoder._key_equation, [], set()

        def record_stage(params, entries, e):
            stacks.append(entries.shape)
            return stage(params, entries, e)

        def record_solve(*args):
            frame = sys._getframe(1)
            while frame.f_code.co_name == "<listcomp>":  # its own frame before Python 3.12
                frame = frame.f_back
            callers.add(frame.f_code.co_name)
            return solve(*args)

        monkeypatch.setattr(decoder, "_decode_block", record_stage)
        monkeypatch.setattr(channel, "_decode_block", record_stage)
        monkeypatch.setattr(decoder, "_key_equation", record_solve)
        s, r = golden_params.s, golden_params.r
        decode(golden_params, sample_error(ChannelSpec(p=7, s=s, r=r, weight=2)))
        assert stacks == [(1, s, r)]
        run_trials(golden_params, weight=2, trials=B + 1, seed=5)
        assert stacks[1:] == [(B, s, r), (1, s, r)]
        assert callers == {"_decode_block"}
        source = Path(channel.__file__).read_text()
        assert not re.search(r"_key_equation|_interpolate|_unscaled|_divmod", source)

    def test_zero_trials(self, golden_params):
        report = run_trials(golden_params, weight=1, trials=0, seed=0)
        assert report.trials == 0 and report.successes == 0
        assert report.mean_decode_us == 0.0

    def test_trial_validation(self, golden_params):
        with pytest.raises(ParameterError):
            run_trials(golden_params, weight=1, trials=-1, seed=0)
        with pytest.raises(ParameterError):
            run_trials(golden_params, weight=9, trials=1, seed=0)
        with pytest.raises(ParameterError, match="trials must be an integer"):
            run_trials(golden_params, weight=1, trials=3.0, seed=0)


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
