"""Hyperderivative Reed-Solomon codes over GF(p) under the NRT metric.

Quick tour:

    >>> from hrscodes import CodeParams, Poly, encode, decode
    >>> params = CodeParams(7, r=4, s=2, t=4, alphas=[1, 2, 3, 4])
    >>> f = Poly(params.field, [5, 2, 3, 1])
    >>> encode(params, f).to_lists()
    [[4, 1, 2, 6], [4, 5, 5, 4]]
    >>> decode(params, encode(params, f)).message == f
    True

The channel names (ChannelSpec, sample_error, run_trials, ...) load
hrscodes.channel on first use, so a process that only encodes and decodes
never imports it, nor, on numpy 2, numpy.random.
"""

from .decoder import (
    DecodeFailure,
    DecodeSuccess,
    FailureReason,
    decode,
    decoding_radius,
)
from .errors import BudgetExceededError, FieldMismatchError, ParameterError
from .field import MAX_MODULUS, PrimeField, is_prime
from .hrs import (
    DEFAULT_BUDGET,
    MAX_CODE_LENGTH,
    CodeParams,
    brute_force_min_distance,
    encode,
    hermite_interpolate,
)
from .nrt import NrtMatrix, nrt_distance, nrt_weight
from .poly import Poly

__version__ = "0.1.0"

_CHANNEL_NAMES = (
    "CSV_HEADER",
    "MISCORRECTED",
    "ChannelSpec",
    "TrialReport",
    "count_matrices_of_weight",
    "run_trials",
    "sample_error",
)


def __getattr__(name):
    if name in _CHANNEL_NAMES:
        from . import channel

        return getattr(channel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_CHANNEL_NAMES})


__all__ = [
    "BudgetExceededError",
    "CodeParams",
    "DEFAULT_BUDGET",
    "DecodeFailure",
    "DecodeSuccess",
    "FailureReason",
    "FieldMismatchError",
    "MAX_CODE_LENGTH",
    "MAX_MODULUS",
    "NrtMatrix",
    "ParameterError",
    "Poly",
    "PrimeField",
    "brute_force_min_distance",
    "decode",
    "decoding_radius",
    "encode",
    "hermite_interpolate",
    "is_prime",
    "nrt_distance",
    "nrt_weight",
    *_CHANNEL_NAMES,
]
