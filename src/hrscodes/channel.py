"""Random NRT errors of exact target weight, and a decode trial harness.

Sampling is uniform over all s x r matrices of NRT weight exactly w.  A
column of weight u > 0 is free below its topmost nonzero entry, so there
are (p-1)*p**(u-1) such columns; a tail-count table over these column
counts, built once by each ChannelSpec for all of its draws, lets each
column weight be drawn with its exact conditional probability, using
arbitrary-precision integers throughout.

Draws are defined by the word streams of any numpy bit generator, which
numpy keeps stable across versions; run_trials reads them through _draw,
the raw-entries draw that sample_error wraps in an NrtMatrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .decoder import FailureReason, _decode_block, decoding_radius
from .errors import ParameterError, require_int
from .field import PrimeField
from .hrs import CodeParams, _encode
from .nrt import NrtMatrix

CSV_HEADER = (
    "weight,trials,successes,fail_nosolution,fail_nondivisible,"
    "fail_distance,mean_decode_us"
)

# Trials where decode returns a wrong message inside its distance contract.
MISCORRECTED = "miscorrected"

# Largest tail-count table a spec may ask for: the largest code table that
# hrs.MAX_CODE_LENGTH allows.  Doubling r and weight makes it about 8x larger.
_MAX_TABLE_BYTES = 160 << 20

# Trials encoded in one product, and decoded in one stage call, per block.
_BLOCK = 64


@dataclass(frozen=True)
class ChannelSpec:
    """Shape and target weight of an exact-weight NRT error source."""

    p: int
    s: int
    r: int
    weight: int
    seed: int = 0
    # The field of p and the tail-count table, built once here for every
    # draw of the spec.
    field: PrimeField = dataclass_field(init=False, repr=False, compare=False)
    _tails: list = dataclass_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("p", "s", "r", "weight", "seed"):
            object.__setattr__(self, name, require_int(getattr(self, name), name))
        object.__setattr__(self, "field", PrimeField(self.p))
        if self.s < 1 or self.r < 1:
            raise ParameterError(f"matrix shape must be positive, got {self.s}x{self.r}")
        if not 0 <= self.weight <= self.s * self.r:
            raise ParameterError(
                f"weight must lie in [0, {self.s * self.r}], got {self.weight}"
            )
        if not _table_fits(self.p, self.s, self.r, self.weight):
            raise ParameterError(f"tail-count table of {self} exceeds {_MAX_TABLE_BYTES >> 20} MiB")
        object.__setattr__(self, "_tails", _tail_counts(self.p, self.s, self.r, self.weight))

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
    s, p = require_int(s, "s"), require_int(p, "p")
    w_col = require_int(w_col, "column weight")
    if not 0 <= w_col <= s:
        raise ParameterError(f"column weight must lie in [0, {s}], got {w_col}")
    if w_col == 0:
        return 1
    return (p - 1) * p ** (w_col - 1)


def _table_fits(p: int, s: int, r: int, w: int) -> bool:
    """Whether _tail_counts(p, s, r, w) fits _MAX_TABLE_BYTES by an upper
    estimate: entry [c][v] is 0 for v > c*s, else a Python int (28 bytes
    plus 4 per 30 bits) below p**v * 2**(v+c), in a row of 64 + 8(w+1)."""
    bits, total = p.bit_length() + 1, (r + 1) * (64 + 8 * (w + 1))
    for c in range(1, r + 1):
        if total > _MAX_TABLE_BYTES:
            break
        m = min(w, c * s)
        total += 32 * m + 4 * (bits * m * (m + 1) // 2 + c * m) // 30
    return total <= _MAX_TABLE_BYTES


def _tail_counts(p: int, s: int, r: int, w: int):
    """table[c][v] = number of ways c columns can carry total weight v <= w.

    Row c is the convolution of row c-1 with the column counts 1 and
    (p-1)*p**(u-1), u = 1..s.  The sliding sum
    A[v] = sum_{u=1..min(s,v)} p**(u-1)*prev[v-u] = p*A[v-1] + prev[v-1] - p**s*prev[v-1-s]
    gives each row in O(w) steps as cur[v] = prev[v] + (p-1)*A[v].
    """
    table = [[0] * (w + 1) for _ in range(r + 1)]
    table[0][0] = 1
    top = p**s
    for c in range(1, r + 1):
        prev = table[c - 1]
        cur = table[c]
        cur[0], acc = 1, 0
        for v in range(1, min(w, c * s) + 1):
            acc = p * acc + prev[v - 1] - (top * prev[v - 1 - s] if v > s else 0)
            cur[v] = prev[v] + (p - 1) * acc
    return table


class _Words:
    """A bit generator's own C word functions, the ones Generator calls,
    and its lock: next_uint32 keeps numpy's buffered half word in the
    generator's state, which a reseat of the state keeps valid.  It holds
    the bit generator too, which owns the C state the functions read."""

    def __init__(self, bit_generator):
        c = bit_generator.ctypes
        self.state, self.next_uint32, self.next_uint64 = c.state, c.next_uint32, c.next_uint64
        self.bit_generator, self.lock = bit_generator, bit_generator.lock

    def uniform(self, n: int) -> int:
        """[0, n) by rejection on Generator.bytes: whole uint32 words (one
        even for n = 1) masked to the bit length of n - 1."""
        bits, x = (n - 1).bit_length(), n
        while x >= n:
            x = 0
            for shift in range(0, max(bits, 32), 32):
                x |= self.next_uint32(self.state) << shift
            x &= (1 << bits) - 1
        return x

    def below(self, n: int, k: int) -> list[int]:
        """k draws from [0, n) as Generator.integers makes them: Lemire's
        rejection on uint32 words for n <= 2**32, on uint64 words above, and
        no word read for n = 1."""
        if n == 1:
            return [0] * k
        bits, word = (32, self.next_uint32) if n <= 1 << 32 else (64, self.next_uint64)
        out, low, threshold = [], (1 << bits) - 1, (1 << bits) % n
        while len(out) < k:
            m = word(self.state) * n
            if m & low >= threshold:
                out.append(m >> bits)
        return out


def sample_error(spec: ChannelSpec, rng: np.random.Generator | None = None) -> NrtMatrix:
    """One matrix drawn uniformly among those of NRT weight exactly spec.weight.

    The draws are read from the C word functions of rng's bit generator as
    Generator.bytes and Generator.integers would read them, and leave it
    where those calls would: numpy keeps raw streams stable across versions,
    not Generator methods.  Any numpy bit generator is accepted; its lock is
    held while the words are read, as Generator methods hold it.  This is
    _draw, the entries run_trials draws, wrapped in an NrtMatrix.
    """
    if rng is None:
        rng = spec.rng()
    if not isinstance(rng, np.random.Generator):
        raise ParameterError(f"rng must be a numpy.random.Generator, got {type(rng).__name__}")
    return NrtMatrix(spec.field, _draw(spec, _Words(rng.bit_generator)))


def _draw(spec: ChannelSpec, words: _Words) -> np.ndarray:
    """The s x r entries of one sample_error draw, in the field's dtype,
    read from words with its generator's lock held."""
    s, r, p = spec.s, spec.r, spec.p
    entries = np.zeros((s, r), dtype=spec.field.dtype)
    remaining = spec.weight
    table = spec._tails
    col_counts = table[1]  # one column: count_matrices_of_weight(s, p, u)
    with words.lock:
        for j in range(r):
            tail = table[r - 1 - j]
            draw = words.uniform(table[r - j][remaining])
            u = 0
            while draw >= col_counts[u] * tail[remaining - u]:
                draw -= col_counts[u] * tail[remaining - u]
                u += 1
            if u > 0:
                entries[s - u :, j] = [1 + words.below(p - 1, 1)[0], *words.below(p, u - 1)]
            remaining -= u
    return entries


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
    error, decode at the radius, compare.

    Each trial gets its own counter-based stream keyed by (seed, index), so
    the report is reproducible trial by trial regardless of run order: one
    Philox, re-keyed per trial, draws the trial's message and then its
    error (_draw, through one _Words per run).  Blocks of _BLOCK trials are
    encoded in one hrs._encode product and decoded in one call of
    decoder._decode_block, decode's stages; mean_decode_us is a mean per
    decode, the block's stage time over its trials.  Miscorrections (a
    returned message other than the transmitted one, still within the
    radius of the received word) are tallied under "miscorrected"; the CSV
    row derives it as trials minus the other columns.
    """
    trials = require_int(trials, "trials")
    if trials < 0:
        raise ParameterError(f"trial count must be non-negative, got {trials}")
    spec = ChannelSpec(p=params.p, s=params.s, r=params.r, weight=weight, seed=seed)
    counts = {
        FailureReason.NO_SOLUTION.value: 0,
        FailureReason.NON_DIVISIBLE.value: 0,
        FailureReason.DISTANCE_EXCEEDED.value: 0,
        MISCORRECTED: 0,
    }
    elapsed, p, radius = 0.0, params.p, decoding_radius(params)
    rng = _stream(spec.seed, 0)
    fresh, words = rng.bit_generator.state, _Words(rng.bit_generator)
    for first in range(0, trials, _BLOCK):
        sent, errors = [], []
        for index in range(first, min(first + _BLOCK, trials)):
            fresh["state"]["key"][1] = index
            rng.bit_generator.state = fresh
            sent.append(rng.integers(0, p, size=params.t))
            errors.append(_draw(spec, words))
        sent = np.array(sent)
        noisy = (_encode(params, sent) + np.array(errors)) % p
        start = time.perf_counter()
        decoded = _decode_block(params, noisy, radius)
        elapsed += time.perf_counter() - start
        for message, outcome in zip(sent.tolist(), decoded):
            if isinstance(outcome, FailureReason):
                counts[outcome.value] += 1
            elif outcome[0].tolist() + [0] * (params.t - len(outcome[0])) != message:
                counts[MISCORRECTED] += 1
    mean_us = elapsed / trials * 1e6 if trials else 0.0
    return TrialReport(
        weight=spec.weight,
        trials=trials,
        successes=trials - sum(counts.values()),
        failures=counts,
        mean_decode_us=mean_us,
    )
