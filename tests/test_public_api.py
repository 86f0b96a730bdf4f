import importlib

import pytest

import hrscodes

PUBLIC = [
    "BudgetExceededError",
    "CSV_HEADER",
    "ChannelSpec",
    "CodeParams",
    "DEFAULT_BUDGET",
    "DecodeFailure",
    "DecodeSuccess",
    "FailureReason",
    "FieldMismatchError",
    "MAX_CODE_LENGTH",
    "MAX_MODULUS",
    "MISCORRECTED",
    "NrtMatrix",
    "ParameterError",
    "Poly",
    "PrimeField",
    "TrialReport",
    "brute_force_min_distance",
    "count_matrices_of_weight",
    "decode",
    "decoding_radius",
    "encode",
    "hermite_interpolate",
    "is_prime",
    "nrt_distance",
    "nrt_weight",
    "run_trials",
    "sample_error",
]


def test_public_api():
    # The package exports the codec only; test oracles live in
    # tests/reference.py.
    assert sorted(hrscodes.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(hrscodes, name) is not None
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("hrscodes.linalg")
