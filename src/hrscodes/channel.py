"""Random NRT errors of exact target weight, and a decode trial harness.

Sampling is uniform over all s x r matrices of NRT weight exactly w.  A
column of weight u > 0 is free below its topmost nonzero entry, so there
are (p-1)*p**(u-1) such columns; a tail-count table over these column
counts lets each column weight be drawn with its exact conditional
probability, using arbitrary-precision integers throughout.
"""

import time
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .decoder import DecodeSuccess, FailureReason, decode
from .errors import ParameterError
from .field import PrimeField
from .hrs import CodeParams, encode
from .nrt import NrtMatrix
from .poly import Poly

CSV_HEADER = (
    "weight,trials,successes,fail_nosolution,fail_nondivisible,"
    "fail_distance,mean_decode_us"
)

# Trials where decode returns a wrong message inside its distance contract.
MISCORRECTED = "miscorrected"


@dataclass(frozen=True)
class ChannelSpec:
    """Shape and target weight of an exact-weight NRT error source."""

    p: int
    s: int
    r: int
    weight: int
    seed: int = 0

    def __post_init__(self):
        PrimeField(self.p)
        if self.s < 1 or self.r < 1:
            raise ParameterError(f"matrix shape must be positive, got {self.s}x{self.r}")
        if not 0 <= self.weight <= self.s * self.r:
            raise ParameterError(
                f"weight must lie in [0, {self.s * self.r}], got {self.weight}"
            )

    def rng(self) -> np.random.Generator:
        return _stream(self.seed, 0)


def _stream(seed: int, index: int) -> np.random.Generator:
    """The counter-based stream keyed by (seed mod 2**64, index).

    The key is built as uint64: from a plain list numpy would make a
    float64 key for seed mod 2**64 >= 2**63, where nearby seeds collide.
    """
    key = np.array([seed % 2**64, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def count_matrices_of_weight(s: int, p: int, w_col: int) -> int:
    """Number of s x 1 matrices (columns) of NRT weight exactly w_col.

    Weight u > 0 pins the topmost nonzero entry to row s-u+1 (p-1 choices)
    and leaves the u-1 entries below it free.
    """
    if not 0 <= w_col <= s:
        raise ParameterError(f"column weight must lie in [0, {s}], got {w_col}")
    if w_col == 0:
        return 1
    return (p - 1) * p ** (w_col - 1)


@lru_cache(maxsize=32)
def _tail_counts(p: int, s: int, r: int, w: int):
    """table[c][v] = number of ways c columns can carry total weight v <= w."""
    table = [[0] * (w + 1) for _ in range(r + 1)]
    table[0][0] = 1
    col = [count_matrices_of_weight(s, p, u) for u in range(min(s, w) + 1)]
    for c in range(1, r + 1):
        prev = table[c - 1]
        cur = table[c]
        for v in range(w + 1):
            acc = 0
            for u in range(min(s, v) + 1):
                acc += col[u] * prev[v - u]
            cur[v] = acc
    return table


def _uniform_below(rng: np.random.Generator, n: int) -> int:
    """Uniform integer in [0, n) for arbitrary-precision n, by rejection."""
    bits = (n - 1).bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    while True:
        x = int.from_bytes(rng.bytes(nbytes), "little") & mask
        if x < n:
            return x


def sample_error(spec: ChannelSpec, rng: np.random.Generator | None = None) -> NrtMatrix:
    """One matrix drawn uniformly among those of NRT weight exactly spec.weight."""
    if rng is None:
        rng = spec.rng()
    gf = PrimeField(spec.p)
    s, r, p = spec.s, spec.r, spec.p
    entries = np.zeros((s, r), dtype=gf.dtype)
    remaining = spec.weight
    table = _tail_counts(p, s, r, spec.weight)
    col_counts = [count_matrices_of_weight(s, p, u) for u in range(s + 1)]
    for j in range(r):
        tail = table[r - 1 - j]
        draw = _uniform_below(rng, table[r - j][remaining])
        u = 0
        while True:
            bucket = col_counts[u] * tail[remaining - u]
            if draw < bucket:
                break
            draw -= bucket
            u += 1
        if u > 0:
            entries[s - u, j] = int(rng.integers(1, p))
            if u > 1:
                # Plain ints so object arrays never hold numpy scalars.
                entries[s - u + 1 :, j] = [int(x) for x in rng.integers(0, p, size=u - 1)]
        remaining -= u
    return NrtMatrix(gf, entries)


@dataclass(frozen=True)
class TrialReport:
    """Aggregate outcome of a decode trial run; timing is excluded from
    equality so reports are comparable across machines."""

    weight: int
    trials: int
    successes: int
    failures: dict[str, int]
    mean_decode_us: float = dataclass_field(compare=False, default=0.0)

    def csv_row(self) -> str:
        f = self.failures
        return (
            f"{self.weight},{self.trials},{self.successes},"
            f"{f[FailureReason.NO_SOLUTION.value]},"
            f"{f[FailureReason.NON_DIVISIBLE.value]},"
            f"{f[FailureReason.DISTANCE_EXCEEDED.value]},"
            f"{self.mean_decode_us:.3f}"
        )


def run_trials(params: CodeParams, weight: int, trials: int, seed: int) -> TrialReport:
    """Monte-Carlo loop: encode a random message, add a random weight-w
    error, decode, compare.

    Each trial gets its own counter-based stream keyed by (seed, index), so
    the report is reproducible trial by trial regardless of run order.
    Miscorrections (a returned message other than the transmitted one,
    still within distance e of the received word) are tallied under
    "miscorrected"; the CSV row derives it as trials minus the other
    columns.
    """
    if trials < 0:
        raise ParameterError(f"trial count must be non-negative, got {trials}")
    spec = ChannelSpec(p=params.p, s=params.s, r=params.r, weight=weight, seed=seed)
    counts = {
        FailureReason.NO_SOLUTION.value: 0,
        FailureReason.NON_DIVISIBLE.value: 0,
        FailureReason.DISTANCE_EXCEEDED.value: 0,
        MISCORRECTED: 0,
    }
    successes = 0
    elapsed = 0.0
    for index in range(trials):
        rng = _stream(seed, index)
        coeffs = [int(c) for c in rng.integers(0, params.p, size=params.t)]
        message = Poly(params.field, coeffs)
        noisy = encode(params, message) + sample_error(spec, rng)
        start = time.perf_counter()
        outcome = decode(params, noisy)
        elapsed += time.perf_counter() - start
        if isinstance(outcome, DecodeSuccess):
            if outcome.message == message:
                successes += 1
            else:
                counts[MISCORRECTED] += 1
        else:
            counts[outcome.reason.value] += 1
    mean_us = elapsed / trials * 1e6 if trials else 0.0
    return TrialReport(
        weight=weight,
        trials=trials,
        successes=successes,
        failures=counts,
        mean_decode_us=mean_us,
    )
