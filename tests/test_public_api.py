import ast
import copy
import dataclasses
import importlib
import inspect
import json
import os
import pickle
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

import pytest

import hrscodes
from conftest import GOLDEN_EVALUATOR, GOLDEN_LOCATOR, GOLDEN_MESSAGE, GOLDEN_RECEIVED

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

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


def test_decode_and_trial_api_pinned():
    # decode and run_trials may change inside; what callers see stays.
    assert str(inspect.signature(hrscodes.decode)) == (
        "(params: hrscodes.hrs.CodeParams, y: hrscodes.nrt.NrtMatrix, e: int | None = None)"
    )
    assert str(inspect.signature(hrscodes.run_trials)) == (
        "(params: 'CodeParams', weight: 'int', trials: 'int', seed: 'int') -> 'TrialReport'"
    )
    fields = [(f.name, f.type, f.compare) for f in dataclasses.fields(hrscodes.TrialReport)]
    assert fields == [
        ("weight", "int", True),
        ("trials", "int", True),
        ("successes", "int", True),
        ("failures", "dict[str, int]", True),
        ("mean_decode_us", "float", False),
    ]
    assert {m.name: m.value for m in hrscodes.FailureReason} == {
        "NO_SOLUTION": "no_solution",
        "NON_DIVISIBLE": "non_divisible",
        "DISTANCE_EXCEEDED": "distance_exceeded",
    }


def test_channel_spec_fields_pinned():
    # The field and the tail-count table are derived from the other fields:
    # they take no argument and stay out of equality, hashing and the repr.
    fields = [(f.name, f.init, f.compare, f.repr) for f in dataclasses.fields(hrscodes.ChannelSpec)]
    assert fields == [
        ("p", True, True, True),
        ("s", True, True, True),
        ("r", True, True, True),
        ("weight", True, True, True),
        ("seed", True, True, True),
        ("field", False, False, False),
        ("_tails", False, False, False),
    ]


# Every process-wide cache in src/, each kept for a measured cost (best of
# timeit, 2 vCPUs, Python 3.11, numpy 2.4):
# - cli._build_parser: building the parser takes 1.3-1.4 ms, a parse 0.09 ms;
# - hrs._shared_tables: a (101, 16, 3) code builds its tables in 0.9-1.0 ms,
#   against 2.4-3.2 ms for a whole simulate-sweep job on it.
# A new one names its traffic here.
MODULE_CACHES = ["cli._build_parser", "hrs._shared_tables"]


def module_caches():
    """module.function for each module-level function in src/hrscodes that
    functools.lru_cache or functools.cache decorates, found by AST; any
    other use of either, say one that wraps a function by a call, as
    module:line."""
    names, found = ("lru_cache", "cache"), []
    for path in sorted((ROOT / "src" / "hrscodes").glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names
            if alias.name in names
        }
        owners = {
            id(getattr(dec, "func", dec)): node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            for dec in node.decorator_list
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and getattr(node.value, "id", None) == "functools"
                and node.attr in names
                or isinstance(node, ast.Name)
                and node.id in aliases
            ):
                owner = owners.get(id(node))
                found.append(f"{path.stem}.{owner}" if owner else f"{path.stem}:{node.lineno}")
    return sorted(found)


def test_module_caches_pinned():
    assert module_caches() == MODULE_CACHES


def unreferenced_definitions():
    """module.qualname for each function, class and method defined in
    src/hrscodes that is not a dunder, not in hrscodes.__all__, and not
    named anywhere in src/ or bench/ outside its own definition, found by
    AST.  A name counts as a Name, an attribute, an imported name, or a
    string constant that is a dotted name (bench/tracing.py names the sites
    it wraps that way); uses from tests/ do not count."""
    defs, refs = [], {}
    files = sorted((ROOT / "src" / "hrscodes").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    for path in files:
        tree = ast.parse(path.read_text())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if path.parent.name == "hrscodes":
                        span = (child.lineno, child.end_lineno)
                        defs.append((f"{path.stem}.{prefix}{child.name}", child.name, path, span))
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(tree, "")
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [part for alias in node.names for part in alias.name.split(".")]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = re.split(r"[.:]", node.value) if re.fullmatch(r"[\w.:]+", node.value) else []
            else:
                continue
            for name in names:
                refs.setdefault(name, []).append((path, node.lineno))
    return sorted(
        qualname
        for qualname, name, path, (lo, hi) in defs
        if not (name.startswith("__") and name.endswith("__"))
        and name not in hrscodes.__all__
        and not any(where != path or not lo <= line <= hi for where, line in refs.get(name, ()))
    )


def test_no_definition_only_tests_use():
    # Code that only the tests call belongs in tests/reference.py.
    assert unreferenced_definitions() == []


def mutable_public_classes():
    """Names of the classes in hrscodes.__all__, other than the exceptions
    and FailureReason, that are neither frozen dataclasses nor define a
    __setattr__ whose body is one raise of AttributeError, found by AST."""
    found = []
    for name in hrscodes.__all__:
        cls = getattr(hrscodes, name)
        if not inspect.isclass(cls) or issubclass(cls, Exception) or cls is hrscodes.FailureReason:
            continue
        if dataclasses.is_dataclass(cls) and cls.__dataclass_params__.frozen:
            continue
        setter = vars(cls).get("__setattr__")
        if setter is not None:
            body = ast.parse(textwrap.dedent(inspect.getsource(setter))).body[0].body
            error = getattr(body[0], "exc", None)
            if len(body) == 1 and getattr(getattr(error, "func", error), "id", None) == "AttributeError":
                continue
        found.append(name)
    return sorted(found)


def test_public_classes_are_immutable():
    # One rule for every public value type: it cannot be changed once built.
    assert mutable_public_classes() == []


# Poly and NrtMatrix are value types: arithmetic lives in the array kernel,
# and what only the tests need lives in tests/reference.py.
POLY_MEMBERS = [
    "__add__",
    "__delattr__",
    "__eq__",
    "__hash__",
    "__init__",
    "__repr__",
    "__setattr__",
    "degree",
    "one",
    "to_list",
]
NRT_MATRIX_MEMBERS = [
    "__add__",
    "__delattr__",
    "__eq__",
    "__init__",
    "__reduce__",
    "__repr__",
    "__setattr__",
    "__sub__",
    "r",
    "s",
    "shape",
    "to_lists",
]


# CodeParams keeps its tables behind the derivative table and the Hermite
# tables; the generator matrix with the multipliers is a test oracle,
# reference.encoding_matrix.  Public instance attributes count here too.
CODE_PARAMS_MEMBERS = [
    "__delattr__",
    "__eq__",
    "__init__",
    "__reduce__",
    "__repr__",
    "__setattr__",
    "alphas",
    "derivative_table",
    "field",
    "inverse_multipliers",
    "multipliers",
    "p",
    "r",
    "s",
    "t",
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


def test_code_params_members():
    params = hrscodes.CodeParams(7, 4, 2, 4, [1, 2, 3, 4])
    public = [name for name in vars(params) if not name.startswith("_")]
    assert sorted(members(hrscodes.CodeParams) + public) == CODE_PARAMS_MEMBERS


BIG = 2**61 - 1


def code(p):
    """A small code over GF(p) with non-unit multipliers."""
    return hrscodes.CodeParams(
        p, 4, 2, 4, [0, 1, 2, p - 1], [[1, 2, 3, p - 1], [p - 2, 5, 1, 3]]
    )


def decoded(params):
    """The decode outcome of a codeword of params."""
    sent = hrscodes.Poly(params.field, [params.p - 1, 2])
    return hrscodes.decode(params, hrscodes.encode(params, sent))


# One of each public value type, built when its test runs: the field, a
# Poly, an NrtMatrix and a code at p = 7 and on the exact path at 2**61 - 1,
# a channel spec, a trial report and both decode outcomes.
VALUE_OBJECTS = {
    "field-7": lambda: hrscodes.PrimeField(7),
    "field-big": lambda: hrscodes.PrimeField(BIG),
    "poly-7": lambda: hrscodes.Poly(hrscodes.PrimeField(7), GOLDEN_MESSAGE),
    "poly-big": lambda: hrscodes.Poly(hrscodes.PrimeField(BIG), [BIG - 1, 2**60, 3]),
    "matrix-7": lambda: hrscodes.NrtMatrix(hrscodes.PrimeField(7), GOLDEN_RECEIVED),
    "matrix-big": lambda: hrscodes.NrtMatrix(hrscodes.PrimeField(BIG), [[BIG - 1, 2**60], [0, 5]]),
    "code-7": lambda: code(7),
    "code-big": lambda: code(BIG),
    "channel-spec": lambda: hrscodes.ChannelSpec(7, 2, 4, weight=2, seed=3),
    "trial-report": lambda: hrscodes.run_trials(code(7), 2, 5, seed=1),
    "decode-success": lambda: decoded(code(BIG)),
    "decode-failure": lambda: hrscodes.DecodeFailure(hrscodes.FailureReason.NON_DIVISIBLE),
}

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("trip", ROUND_TRIPS)
@pytest.mark.parametrize("kind", VALUE_OBJECTS)
def test_value_objects_round_trip(kind, trip):
    """A copied or unpickled value object equals its original, hashes alike
    where it hashes, keeps its arrays read-only and refuses every
    assignment and deletion."""
    obj = VALUE_OBJECTS[kind]()
    clone = ROUND_TRIPS[trip](obj)
    assert type(clone) is type(obj)
    assert clone == obj
    if type(obj).__hash__ is not None:
        assert hash(clone) == hash(obj)
    arrays = [value for value in vars(clone).values() if isinstance(value, np.ndarray)]
    assert all(not a.flags.writeable for a in arrays)
    if isinstance(obj, hrscodes.CodeParams):
        assert len(arrays) == 3  # multipliers, their inverses, the points
        assert clone._tables is obj._tables  # the shared store entry
    for name in [*vars(clone), "extra"]:
        with pytest.raises(AttributeError):
            setattr(clone, name, getattr(clone, name, None))
        with pytest.raises(AttributeError):
            delattr(clone, name)


def test_decode_outcome_as_dict(golden_params, golden_received):
    out = hrscodes.decode(golden_params, golden_received)
    field = {"p": 7}
    assert dataclasses.asdict(out) == {
        "message": {"coeffs": tuple(GOLDEN_MESSAGE), "field": field},
        "error_weight": 2,
        "locator": {"coeffs": tuple(GOLDEN_LOCATOR), "field": field},
        "evaluator": {"coeffs": tuple(GOLDEN_EVALUATOR), "field": field},
    }


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


COLD_START = """
import io, sys
from contextlib import redirect_stdout

import numpy

# numpy 1.x imports numpy.random itself; numpy 2 loads it on first use.
lazy = "numpy.random" not in sys.modules

import hrscodes

params = hrscodes.CodeParams(7, r=4, s=2, t=4, alphas=[1, 2, 3, 4])
f = hrscodes.Poly(params.field, [5, 2, 3, 1])
assert hrscodes.decode(params, hrscodes.encode(params, f)).message == f
assert "hrscodes.channel" not in sys.modules, "decode imported the channel"
assert not lazy or "numpy.random" not in sys.modules, "decode imported numpy.random"

import hrscodes.cli

with redirect_stdout(io.StringIO()) as out:
    assert hrscodes.cli.main(["decode", "--job", sys.argv[1]]) == 0
assert '"status": "ok"' in out.getvalue()
assert not lazy or "numpy.random" not in sys.modules, "the CLI decode imported numpy.random"

assert hrscodes.sample_error is hrscodes.channel.sample_error
star = {}
exec("from hrscodes import *", star)
assert set(hrscodes.__all__) <= set(star), "star import"
assert set(hrscodes.__all__) <= set(dir(hrscodes)), "dir"
"""


def test_cold_start_loads_only_the_codec(tmp_path):
    """A fresh process that encodes and decodes, in the library or through
    the CLI, never imports numpy.random; the channel names still resolve."""
    job = tmp_path / "job.json"
    job.write_text(
        json.dumps({"p": 7, "r": 4, "s": 2, "t": 4, "alphas": [1, 2, 3, 4], "matrix": GOLDEN_RECEIVED})
    )
    path = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(job)], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
