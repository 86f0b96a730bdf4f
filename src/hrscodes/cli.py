"""Command-line front end: encode, decode, corrupt, interpolate, simulate,
mindist.

Inputs come from a JSON job file (matrices and coefficient lists are too
awkward as flags); `--param k=v` overrides scalar keys.  Polynomial
coefficients are listed low degree first everywhere.  Exit codes: 0 when a
result was computed (a decode "fail" status is a result), 2 for invalid
input, 3 when an exhaustive job (mindist's codewords, simulate's trials)
exceeds its budget.
"""

import argparse
import functools
import json
import sys

from .channel import CSV_HEADER, ChannelSpec, run_trials, sample_error
from .decoder import DecodeSuccess, decode
from .errors import BudgetExceededError, ParameterError, require_int
from .hrs import (
    DEFAULT_BUDGET,
    CodeParams,
    _check_budget,
    _check_received,
    brute_force_min_distance,
    encode,
    hermite_interpolate,
)
from .nrt import NrtMatrix
from .poly import Poly

_JOB_HELP = """\
job file keys:
  p, r, s, t      code parameters (integers)
  alphas          r distinct evaluation points
  multipliers     optional s x r rows of nonzero scalars (default all ones)
  poly            message coefficients, low degree first (encode)
  matrix          s rows of r entries (decode, corrupt, interpolate)
  e               error bound (decode; default floor((rs-t)/2))
  weight          target NRT error weight (corrupt, simulate)
  trials          trial count (simulate; default 100)
  seed            64-bit RNG seed (corrupt, simulate; default 0)
  budget          cap on codewords or trials (mindist, simulate; default 10**6)

matrix JSON form: {"s": 2, "r": 4, "entries": [[...], [...]]} with row 1
holding the order-0 derivative values; a bare list of rows is also accepted
on input.
"""


def _require(job: dict, key: str):
    if key not in job:
        raise ParameterError(f"job is missing required key '{key}'")
    return job[key]


def _warn_out_of_range(p: int, values, label: str) -> None:
    """Warn once if any of values, accepted by the library, lay outside [0, p)."""
    clipped = sum(not 0 <= v < p for v in values)
    if clipped:
        print(
            f"warning: {clipped} value(s) in '{label}' reduced mod {p}",
            file=sys.stderr,
        )


def _rows(raw, label: str) -> list:
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise ParameterError(f"'{label}' must be a list of rows")
    return raw


def _params_from_job(job: dict) -> CodeParams:
    p, r, s, t = (_require(job, key) for key in "prst")
    alphas = _require(job, "alphas")
    if not isinstance(alphas, list):
        raise ParameterError("'alphas' must be a list")
    multipliers = job.get("multipliers")
    if multipliers is not None:
        multipliers = _rows(multipliers, "multipliers")
    params = CodeParams(p, r, s, t, alphas, multipliers)
    _warn_out_of_range(params.p, alphas, "alphas")
    for row in multipliers or ():
        _warn_out_of_range(params.p, row, "multipliers")
    return params


def _poly_from_job(params: CodeParams, job: dict) -> Poly:
    coeffs = _require(job, "poly")
    if not isinstance(coeffs, list):
        raise ParameterError("'poly' must be a list of coefficients")
    poly = Poly(params.field, coeffs)
    _warn_out_of_range(params.p, coeffs, "poly")
    return poly


def _matrix_from_job(params: CodeParams, job: dict) -> NrtMatrix:
    raw = _require(job, "matrix")
    if isinstance(raw, dict):
        raw = _require(raw, "entries")
    m = NrtMatrix(params.field, _rows(raw, "matrix"))
    _check_received(params, m)
    for row in raw:
        _warn_out_of_range(params.p, row, "matrix")
    return m


def _matrix_json(m: NrtMatrix) -> dict:
    return {"s": m.s, "r": m.r, "entries": m.to_lists()}


def _cmd_encode(params: CodeParams, job: dict, out) -> int:
    codeword = encode(params, _poly_from_job(params, job))
    print(json.dumps(_matrix_json(codeword)), file=out)
    return 0


def _cmd_decode(params: CodeParams, job: dict, out) -> int:
    y = _matrix_from_job(params, job)
    outcome = decode(params, y, job.get("e"))
    if isinstance(outcome, DecodeSuccess):
        payload = {
            "status": "ok",
            "poly": outcome.message.to_list(),
            "error_weight": outcome.error_weight,
        }
    else:
        payload = {"status": "fail", "reason": outcome.reason.value}
    print(json.dumps(payload), file=out)
    return 0


def _cmd_corrupt(params: CodeParams, job: dict, out) -> int:
    y = _matrix_from_job(params, job)
    weight, seed = _require(job, "weight"), job.get("seed", 0)
    spec = ChannelSpec(p=params.p, s=params.s, r=params.r, weight=weight, seed=seed)
    error = sample_error(spec)
    payload = {"error": _matrix_json(error), "corrupted": _matrix_json(y + error)}
    print(json.dumps(payload), file=out)
    return 0


def _cmd_interpolate(params: CodeParams, job: dict, out) -> int:
    h = hermite_interpolate(params, _matrix_from_job(params, job))
    print(json.dumps({"poly": h.to_list()}), file=out)
    return 0


def _cmd_simulate(params: CodeParams, job: dict, out) -> int:
    weight, trials = _require(job, "weight"), require_int(job.get("trials", 100), "trials")
    _check_budget(job.get("budget", DEFAULT_BUDGET), trials, "trial count")
    report = run_trials(params, weight, trials, job.get("seed", 0))
    print(CSV_HEADER, file=out)
    print(report.csv_row(), file=out)
    return 0


def _cmd_mindist(params: CodeParams, job: dict, out) -> int:
    d = brute_force_min_distance(params, job.get("budget", DEFAULT_BUDGET))
    singleton = params.r * params.s - params.t + 1
    print(json.dumps({"min_distance": d, "mds": d == singleton}), file=out)
    return 0


_COMMANDS = {
    "encode": (_cmd_encode, "evaluate a message polynomial into a codeword matrix"),
    "decode": (_cmd_decode, "run the unique decoder on a received matrix"),
    "corrupt": (_cmd_corrupt, "add a random error of exact NRT weight"),
    "interpolate": (_cmd_interpolate, "fit the degree-< rs interpolant to a matrix"),
    "simulate": (_cmd_simulate, "Monte-Carlo decode trials, CSV output"),
    "mindist": (_cmd_mindist, "exhaustive minimum distance and MDS check"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrscodes",
        description=__doc__,
        epilog=_JOB_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(
            name,
            help=help_text,
            epilog=_JOB_HELP,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
        cmd.add_argument("--job", required=True, help="path to the JSON job file")
        cmd.add_argument(
            "--param",
            action="append",
            default=[],
            metavar="K=V",
            help="override a scalar job key, e.g. --param e=2 (repeatable)",
        )
        cmd.add_argument("--seed", type=int, default=None, help="override the job seed")
        cmd.add_argument(
            "--output", default="-", help="output path, or - for standard output"
        )
        cmd.set_defaults(handler=handler)
    return parser


def _apply_overrides(job: dict, args) -> dict:
    for item in args.param:
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ParameterError(f"--param expects K=V, got {item!r}")
        try:
            job[key] = int(value)
        except ValueError:
            raise ParameterError(f"--param value for '{key}' must be an integer")
    if args.seed is not None:
        job["seed"] = args.seed
    return job


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with open(args.job) as fh:
            job = json.load(fh)
        if not isinstance(job, dict):
            raise ParameterError("job file must hold a JSON object")
        job = _apply_overrides(job, args)
        params = _params_from_job(job)
        if args.output == "-":
            return args.handler(params, job, sys.stdout)
        with open(args.output, "w") as out:
            return args.handler(params, job, out)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
