import ast
import importlib
import re
from pathlib import Path

import pytest

import hrscodes

README = Path(__file__).resolve().parent.parent / "README.md"

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


# Poly and NrtMatrix are value types: arithmetic lives in the array kernel,
# and what only the tests need lives in tests/reference.py.
POLY_MEMBERS = [
    "__add__",
    "__eq__",
    "__hash__",
    "__init__",
    "__repr__",
    "__setattr__",
    "coeffs",
    "degree",
    "field",
    "one",
    "to_list",
]
NRT_MATRIX_MEMBERS = [
    "__add__",
    "__eq__",
    "__init__",
    "__repr__",
    "__setattr__",
    "__sub__",
    "entries",
    "field",
    "r",
    "s",
    "shape",
    "to_lists",
]


def members(cls):
    """Public names and dunder methods defined on cls itself."""
    return sorted(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") or (name.startswith("__") and callable(value))
    )


def test_value_type_members():
    assert members(hrscodes.Poly) == POLY_MEMBERS
    assert members(hrscodes.NrtMatrix) == NRT_MATRIX_MEMBERS


def test_readme_quick_tour():
    """The README's Quick tour runs, and every bare expression in it has the
    value its trailing comment promises."""
    text = README.read_text()
    block = re.search(r"## Quick tour\n+```python\n(.*?)```", text, re.S).group(1)
    lines = block.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            source = ast.get_source_segment(block, node)
            comment = lines[node.lineno - 1].partition("#")[2].strip()
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            assert value == ast.literal_eval(comment), source
            checked.append(source)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert checked == ["c.to_lists()", "out.message == f", "out.error_weight"]
