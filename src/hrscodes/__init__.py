"""Hyperderivative Reed-Solomon codes over GF(p) under the NRT metric.

Quick tour:

    >>> from hrscodes import CodeParams, Poly, encode, decode
    >>> params = CodeParams(7, r=4, s=2, t=4, alphas=[1, 2, 3, 4])
    >>> f = Poly(params.field, [5, 2, 3, 1])
    >>> encode(params, f).to_lists()
    [[4, 1, 2, 6], [4, 5, 5, 4]]
    >>> decode(params, encode(params, f)).message == f
    True
"""

from .channel import (
    CSV_HEADER,
    MISCORRECTED,
    ChannelSpec,
    TrialReport,
    count_error_matrices,
    count_matrices_of_weight,
    run_trials,
    sample_error,
)
from .decoder import (
    DecodeFailure,
    DecodeSuccess,
    FailureReason,
    WbSystem,
    build_wb_system,
    decode,
    decoding_radius,
    existence_witness,
)
from .errors import BudgetExceededError, FieldMismatchError, ParameterError
from .field import MAX_MODULUS, PrimeField, is_prime
from .hrs import (
    DEFAULT_BUDGET,
    MAX_CODE_LENGTH,
    CodeParams,
    brute_force_min_distance,
    brute_force_nearest_codeword,
    codeword_weight_formula,
    encode,
    hermite_interpolate,
    nearest_codeword_multiplicity,
)
from .linalg import LinearSolution, as_matrix, as_vector, mat_vec, solve
from .nrt import NrtMatrix, column_weight, nrt_distance, nrt_weight
from .poly import Poly

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "CSV_HEADER",
    "MISCORRECTED",
    "ChannelSpec",
    "CodeParams",
    "DEFAULT_BUDGET",
    "DecodeFailure",
    "DecodeSuccess",
    "FailureReason",
    "FieldMismatchError",
    "LinearSolution",
    "MAX_CODE_LENGTH",
    "MAX_MODULUS",
    "NrtMatrix",
    "ParameterError",
    "Poly",
    "PrimeField",
    "TrialReport",
    "WbSystem",
    "as_matrix",
    "as_vector",
    "brute_force_min_distance",
    "brute_force_nearest_codeword",
    "build_wb_system",
    "codeword_weight_formula",
    "column_weight",
    "count_error_matrices",
    "count_matrices_of_weight",
    "decode",
    "decoding_radius",
    "encode",
    "existence_witness",
    "hermite_interpolate",
    "is_prime",
    "mat_vec",
    "nearest_codeword_multiplicity",
    "nrt_distance",
    "nrt_weight",
    "run_trials",
    "sample_error",
    "solve",
]
