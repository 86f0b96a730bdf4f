"""The integer rule at every entry point: a float, bool, string or complex
number is refused with a ParameterError naming the input, never truncated,
and a numpy integer is accepted, on the int64 and the object path."""

import contextlib
import re

import numpy as np
import pytest

from hrscodes import (
    BudgetExceededError,
    ChannelSpec,
    CodeParams,
    NrtMatrix,
    ParameterError,
    Poly,
    PrimeField,
    brute_force_min_distance,
    decode,
    encode,
    run_trials,
    sample_error,
)


def code(p, alpha=2, multiplier=1):
    """r=3, s=2, t=2 (radius 2), with one point and one multiplier given."""
    return CodeParams(p, 3, 2, 2, [0, 1, alpha], [[1, 1, 1], [1, 1, multiplier]])


def spec(modulus, **fields):
    return ChannelSpec(**{"p": modulus, "s": 2, "r": 3, "weight": 1, "seed": 0, **fields})


def word(p):
    return NrtMatrix(PrimeField(p), [[1, 2, 3], [4, 5, 6]])


# Entry point: (name in the message, integer it is given, call with a value).
ENTRIES = {
    "Poly": ("coefficient", 3, lambda p, x: Poly(PrimeField(p), [1, x])),
    "NrtMatrix list": ("matrix entry", 3, lambda p, x: NrtMatrix(PrimeField(p), [[1, x]])),
    "NrtMatrix object array": (
        "matrix entry",
        3,
        lambda p, x: NrtMatrix(PrimeField(p), np.array([[1, x]], dtype=object)),
    ),
    "CodeParams alphas": ("alpha", 2, lambda p, x: code(p, alpha=x)),
    "CodeParams multipliers": ("multiplier", 3, lambda p, x: code(p, multiplier=x)),
    "encode": ("coefficient", 3, lambda p, x: encode(code(p), Poly(PrimeField(p), [1, x]))),
    "decode e": ("e", 1, lambda p, x: decode(code(p), word(p), x)),
    "ChannelSpec p": ("p", None, lambda p, x: spec(p, p=x)),
    "ChannelSpec s": ("s", 2, lambda p, x: spec(p, s=x)),
    "ChannelSpec r": ("r", 3, lambda p, x: spec(p, r=x)),
    "ChannelSpec weight": ("weight", 1, lambda p, x: spec(p, weight=x)),
    "ChannelSpec seed": ("seed", 5, lambda p, x: spec(p, seed=x)),
    "run_trials trials": ("trials", 1, lambda p, x: run_trials(code(p), 1, x, 0)),
    "brute_force_min_distance budget": (
        "budget",
        10,
        lambda p, x: brute_force_min_distance(code(p), x),
    ),
}

KINDS = {"float": float, "bool": lambda n: True, "str": str, "complex": complex}


@pytest.mark.parametrize("p", [7, 2**61 - 1])
@pytest.mark.parametrize("entry", ENTRIES)
def test_integer_rule_at_every_entry_point(entry, p):
    name, n, call = ENTRIES[entry]
    n = p if n is None else n
    for make in KINDS.values():
        with pytest.raises(ParameterError, match=f"^{re.escape(name)} must be an integer"):
            call(p, make(n))
    # A budget below p**t is read as an integer, then exceeded.
    with contextlib.suppress(BudgetExceededError):
        call(p, np.int64(n))


def test_encode_refuses_a_message_that_is_not_a_poly():
    for message in ([1, 2], (1, 2), np.array([1, 2]), 3):
        with pytest.raises(ParameterError, match="expected Poly"):
            encode(code(7), message)


@pytest.mark.parametrize(
    "rng", [np.random.PCG64(1), np.random.RandomState(1), 1], ids=lambda g: type(g).__name__
)
def test_sample_error_refuses_an_rng_that_is_not_a_generator(rng):
    message = f"^rng must be a numpy.random.Generator, got {type(rng).__name__}$"
    with pytest.raises(ParameterError, match=message):
        sample_error(spec(7), rng)
