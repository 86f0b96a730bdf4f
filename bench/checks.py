"""Output checks and reference arithmetic for the benchmark.

Standard library only, so the set-up probe can import it without pulling in
numpy.  Nothing here calls into hrscodes: the reference encoder and NRT
weight are written out from the definitions, so a defect in the package
cannot hide itself from the check.  Every check returns None when the output
is right and a one-line reason when it is not.
"""

from math import comb

SIMULATE_COLUMNS = (
    "weight",
    "trials",
    "successes",
    "fail_nosolution",
    "fail_nondivisible",
    "fail_distance",
    "mean_decode_us",
)


def radius(r: int, s: int, t: int) -> int:
    """Unique-decoding radius floor((rs - t) / 2)."""
    return (r * s - t) // 2


def ref_encode(p: int, s: int, alphas, multipliers, coeffs) -> list[list[int]]:
    """Codeword of the polynomial with the given coefficients (low first).

    Entry (i, j) is v[i][j] * sum_k C(k, i) * c_k * alpha_j**(k - i), the
    order-i hyperderivative at alpha_j; multipliers=None means all ones.
    """
    n = len(coeffs)
    binom = [[comb(k, i) % p for k in range(n)] for i in range(s)]
    rows = [[0] * len(alphas) for _ in range(s)]
    for j, alpha in enumerate(alphas):
        powers = [1] * n
        for k in range(1, n):
            powers[k] = powers[k - 1] * alpha % p
        for i in range(s):
            b = binom[i]
            acc = sum(b[k] * coeffs[k] * powers[k - i] for k in range(i, n))
            v = 1 if multipliers is None else multipliers[i][j]
            rows[i][j] = acc * v % p
    return rows


def ref_nrt_weight(rows) -> int:
    """NRT weight: each column weighs s - i for its topmost nonzero row i."""
    s = len(rows)
    total = 0
    for col in zip(*rows):
        for i, x in enumerate(col):
            if x:
                total += s - i
                break
    return total


def trim(coeffs) -> list[int]:
    """Coefficients without trailing zeros; the zero polynomial is [0]."""
    out = list(coeffs)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out or [0]


def check_decode(outcome, sent) -> str | None:
    """An in-radius decode must return exactly the message that was sent."""
    if not getattr(outcome, "ok", False):
        reason = getattr(outcome, "reason", outcome)
        return f"in-radius decode failed: {getattr(reason, 'value', reason)}"
    got = trim(outcome.message.to_list())
    if got != trim(sent):
        return f"decode returned a wrong message (first coefficients {got[:4]})"
    return None


def check_simulate(code: int, text: str, weight: int, trials: int, rad: int) -> str | None:
    """One `hrscodes simulate` job: exit 0, the CSV header, one row whose
    columns sum to trials, and every trial decoded at weight <= radius."""
    if code != 0:
        return f"cli.main returned {code}"
    lines = text.strip().splitlines()
    if len(lines) != 2 or lines[0].split(",") != list(SIMULATE_COLUMNS):
        return f"unexpected simulate output {text[:120]!r}"
    fields = lines[1].split(",")
    if len(fields) != len(SIMULATE_COLUMNS):
        return f"row has {len(fields)} columns: {lines[1]!r}"
    try:
        w, n, ok, nosol, nondiv, dist = (int(x) for x in fields[:6])
    except ValueError:
        return f"non-integer count in row {lines[1]!r}"
    if (w, n) != (weight, trials):
        return f"row is for weight {w}, {n} trials; asked {weight}, {trials}"
    if ok + nosol + nondiv + dist != trials:
        return f"columns sum to {ok + nosol + nondiv + dist}, not {trials}: {lines[1]!r}"
    if weight <= rad and ok < trials:
        return f"{trials - ok} of {trials} in-radius trials not decoded: {lines[1]!r}"
    return None


def check_interpolant(p: int, s: int, alphas, coeffs, received) -> str | None:
    """The Hermite interpolant must reproduce the received word."""
    if ref_encode(p, s, alphas, None, coeffs) != received:
        return "hermite_interpolate does not reproduce the received word"
    return None
