"""End-to-end acceptance checks with explicit runtime budgets.

Every test here times itself against a hard wall-clock budget and prints a
single summary line; the functional tolerances are exact unless a test says
otherwise.  Seeds are fixed so reruns measure the same work.
"""

import math
import random
import statistics
import time

import numpy as np

from hrscodes import (
    ChannelSpec,
    CodeParams,
    DecodeSuccess,
    NrtMatrix,
    Poly,
    brute_force_min_distance,
    decode,
    decoding_radius,
    encode,
    hermite_interpolate,
    nrt_distance,
    nrt_weight,
    sample_error,
)
from conftest import (
    GOLDEN_M,
    GOLDEN_MESSAGE,
    GOLDEN_CODEWORD,
    GOLDEN_RECEIVED,
    GOLDEN_RHS,
    random_poly,
)
from reference import (
    build_wb_system,
    codeword_weight_formula,
    is_zero,
    mul,
    nearest_codeword_multiplicity,
    solve,
    sub,
)


def small_mds_family():
    """Every (p, r, s, t) with p in {3,5,7}, s <= p, rs <= 8, p**t <= 1e5."""
    for p in (3, 5, 7):
        for s in range(1, min(p, 8) + 1):
            for r in range(1, min(p, 8 // s) + 1):
                for t in range(1, r * s + 1):
                    if p**t <= 10**5:
                        yield CodeParams(p, r, s, t, list(range(r)))


def test_acceptance_1_golden_example():
    start = time.perf_counter()
    params = CodeParams(7, 4, 2, 4, [1, 2, 3, 4])
    message = Poly(params.field, GOLDEN_MESSAGE)
    assert encode(params, message).to_lists() == GOLDEN_CODEWORD
    y = NrtMatrix(params.field, GOLDEN_RECEIVED)
    system = build_wb_system(params, y, 2)
    assert system.matrix.tolist() == GOLDEN_M
    assert system.rhs.tolist() == GOLDEN_RHS
    out = decode(params, y, 2)
    assert isinstance(out, DecodeSuccess) and out.message == message
    elapsed = time.perf_counter() - start
    assert elapsed < 0.010
    print(f"ACCEPTANCE 1 (golden example): PASS ({elapsed * 1000:.2f} ms)")


def test_acceptance_2_unique_decoding():
    start = time.perf_counter()
    rnd = random.Random(0xACC2)
    trials = 10_000
    for index in range(trials):
        p = (5, 7, 101)[index % 3]
        s = rnd.randint(1, 3)
        r = rnd.randint(1, p)
        t = rnd.randint(1, r * s)
        params = CodeParams(p, r, s, t, rnd.sample(range(p), r))
        f = random_poly(rnd, params.field, t)
        w = rnd.randint(0, decoding_radius(params))
        err = sample_error(
            ChannelSpec(p=p, s=s, r=r, weight=w, seed=rnd.getrandbits(32))
        )
        out = decode(params, encode(params, f) + err)
        assert isinstance(out, DecodeSuccess), (p, r, s, t, w)
        assert out.message == f, (p, r, s, t, w)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 2 (unique decoding): PASS "
        f"({trials} trials, 0 failures, {elapsed:.1f} s)"
    )


def test_acceptance_3_mds():
    start = time.perf_counter()
    checked = 0
    for params in small_mds_family():
        d = brute_force_min_distance(params)
        want = params.r * params.s - params.t + 1
        assert d == want, (params.p, params.r, params.s, params.t, d, want)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 3 (MDS): PASS ({checked} parameter sets, {elapsed:.1f} s)")


def test_acceptance_4_weight_formula():
    start = time.perf_counter()
    rnd = random.Random(0xACC4)
    for _ in range(1000):
        p = rnd.choice([3, 5, 7, 101])
        s = rnd.randint(1, min(p, 3))
        r = rnd.randint(1, min(p, 6))
        t = rnd.randint(1, r * s)
        params = CodeParams(p, r, s, t, rnd.sample(range(p), r))
        # Bias some roots onto evaluation points so low orders get exercised.
        f = Poly.one(params.field)
        for _ in range(rnd.randint(0, t - 1)):
            a = rnd.choice(params.alphas)
            f = mul(f, Poly(params.field, (-a % p, 1)))
        if f.degree > t - 1 or rnd.random() < 0.5:
            f = random_poly(rnd, params.field, t)
        assert nrt_weight(encode(params, f)) == codeword_weight_formula(params, f)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 4 (weight formula): PASS (1000 trials, {elapsed:.1f} s)")


def test_acceptance_5_hermite_roundtrip():
    start = time.perf_counter()
    rnd = random.Random(0xACC5)
    for _ in range(1000):
        p = rnd.choice([3, 5, 7, 101])
        s = rnd.randint(1, min(p, 4))
        r = rnd.randint(1, min(p, 5))
        params = CodeParams(p, r, s, r * s, rnd.sample(range(p), r))
        f = random_poly(rnd, params.field, r * s)
        assert hermite_interpolate(params, encode(params, f)) == f
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"ACCEPTANCE 5 (interpolation roundtrip): PASS (1000 trials, {elapsed:.1f} s)")


def test_acceptance_6_ratio_invariance():
    start = time.perf_counter()
    rnd = random.Random(0xACC6)
    instances = 0
    while instances < 100:
        p = rnd.choice([5, 7])
        s = rnd.randint(1, 3)
        r = rnd.randint(1, min(p, 12 // s))
        t = rnd.randint(1, r * s)
        params = CodeParams(p, r, s, t, rnd.sample(range(p), r))
        e = decoding_radius(params)
        f = random_poly(rnd, params.field, t)
        w = rnd.randint(0, e)
        err = sample_error(
            ChannelSpec(p=p, s=s, r=r, weight=w, seed=rnd.getrandbits(32))
        )
        system = build_wb_system(params, encode(params, f) + err, e)
        sol = solve(params.field, system.matrix, system.rhs)
        assert sol is not None
        n0, e0 = system.split(params.field, sol.particular)
        for _ in range(20):
            x = sol.particular.copy()
            for v in sol.nullspace:
                x = (x + rnd.randrange(p) * v) % p
            n1, e1 = system.split(params.field, x)
            assert is_zero(sub(mul(n0, e1), mul(n1, e0)))
        instances += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"ACCEPTANCE 6 (ratio invariance): PASS (100 x 20 perturbations, {elapsed:.1f} s)"
    )


def test_acceptance_7_oracle_agreement():
    start = time.perf_counter()
    rnd = random.Random(0xACC7)
    exercised = 0
    for params in small_mds_family():
        p, s, r = params.p, params.s, params.r
        radius = decoding_radius(params)
        words = []
        for _ in range(2):
            words.append(
                NrtMatrix(
                    params.field,
                    [[rnd.randrange(p) for _ in range(r)] for _ in range(s)],
                )
            )
        for _ in range(2):
            f = random_poly(rnd, params.field, params.t)
            err = sample_error(
                ChannelSpec(p=p, s=s, r=r, weight=rnd.randint(0, s * r), seed=rnd.getrandbits(32))
            )
            words.append(encode(params, f) + err)
        for y in words:
            best, dist, count = nearest_codeword_multiplicity(params, y)
            if dist <= radius and count == 1:
                out = decode(params, y)
                assert isinstance(out, DecodeSuccess), (p, r, s, params.t)
                assert out.message == best
                assert out.error_weight == dist
                exercised += 1
    elapsed = time.perf_counter() - start
    assert exercised > 100  # the premise must actually occur
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 7 (oracle agreement): PASS "
        f"({exercised} in-radius unique instances, {elapsed:.1f} s)"
    )


def _timed_decode(rs: int) -> float:
    r, s = rs // 4, 4
    t = rs // 2
    params = CodeParams(101, r, s, t, list(range(r)))
    rnd = random.Random(rs)
    f = random_poly(rnd, params.field, t)
    err = sample_error(
        ChannelSpec(p=101, s=s, r=r, weight=decoding_radius(params), seed=rs)
    )
    y = encode(params, f) + err
    times = []
    for _ in range(3):
        start = time.perf_counter()
        out = decode(params, y)
        times.append(time.perf_counter() - start)
        assert isinstance(out, DecodeSuccess) and out.message == f
    return statistics.median(times)


def test_acceptance_8_complexity_envelope():
    timings = {rs: _timed_decode(rs) for rs in (32, 64, 128, 256)}
    assert timings[256] < 5.0
    base = max(timings[32], 1e-4)  # noise floor for the tiny instance
    for rs in (64, 128, 256):
        bound = 4.0 * base * (rs / 32) ** 3
        assert timings[rs] <= bound, (rs, timings[rs], bound)
    pretty = ", ".join(f"rs={rs}: {t * 1000:.1f} ms" for rs, t in timings.items())
    print(f"ACCEPTANCE 8 (complexity envelope): PASS ({pretty})")


def test_acceptance_9_sampler_uniformity():
    start = time.perf_counter()
    n = 100_000
    spec = ChannelSpec(p=7, s=2, r=1, weight=1, seed=0xACC9)
    rng = spec.rng()
    counts = [0] * 7
    for _ in range(n):
        err = sample_error(spec, rng)
        assert int(err.entries[0, 0]) == 0
        counts[int(err.entries[1, 0])] += 1
    assert counts[0] == 0
    expected = n / 6
    sigma = math.sqrt(n * (1 / 6) * (5 / 6))
    worst = max(abs(c - expected) for c in counts[1:])
    assert worst <= 3 * sigma, (counts, expected, 3 * sigma)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 9 (sampler uniformity): PASS "
        f"(max |dev| {worst:.0f} <= {3 * sigma:.0f}, {elapsed:.1f} s)"
    )
