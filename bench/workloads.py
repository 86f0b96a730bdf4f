"""The three benchmark workloads: seeded inputs, the timed operation and its
check.

Inputs are made from the seed before any timing starts.  The package sees
only the finished inputs: received words on decode-*, job files and argv
lists on simulate-sweep.  Every call into the package goes through a module
attribute (`hrscodes.decoder.decode`, `hrscodes.cli.main`, ...) looked up at
call time, so the traced run's wrappers see it.
"""

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import hrscodes
import hrscodes.cli

import checks

# Received words per decode-* workload, cycled in the timed loop.  Decode
# time hardly depends on the word once the error weight is fixed.
POOL = 32

# (p, r, s, t, random multipliers) of the two decode workloads.
DECODE_CODES = {
    # Largest roadmap cell on the int64 path; the dense solve dominates.
    "decode-n256": (101, 64, 4, 128, False),
    # Exact object-array path with non-unit multipliers (unscaling on).
    "decode-bigp-n64": ((1 << 61) - 1, 16, 4, 32, True),
}

# Small codes of the README and of the unique-decoding acceptance run.
SWEEP_CODES = ((7, 7, 3, 7), (101, 10, 3, 12), (101, 16, 3, 24))
SWEEP_TRIALS = 10

NAMES = (*DECODE_CODES, "simulate-sweep")


@dataclass(frozen=True)
class Op:
    run: Callable[[], Any]  # the timed call
    check: Callable[[Any], str | None]  # output -> failure reason or None
    label: str  # names the input when the check fails
    decodes: int  # decode calls one run completes


@dataclass(frozen=True)
class Workload:
    name: str
    arith: str  # "int64" or "object": the package's arithmetic path
    ops: list  # one pass: every input once
    probe: dict  # input of the set-up probe (setup_probe.py)
    # Untraced extra work done after op i in traced passes; returns a failure
    # reason when asked to check.
    out_of_band: Callable[[int, bool], str | None] | None = None


def _arith(p: int) -> str:
    return "int64" if hrscodes.PrimeField(p).uses_int64 else "object"


def decode_inputs(name: str, seed: int, count: int):
    """Code description and (message, received) pairs; errors have weight
    exactly the radius and come from the package's sample_error."""
    p, r, s, t, random_multipliers = DECODE_CODES[name]
    rnd = random.Random(f"{name}:{seed}")
    alphas = list(range(r))
    multipliers = None
    if random_multipliers:
        multipliers = [[rnd.randrange(1, p) for _ in range(r)] for _ in range(s)]
    rad = checks.radius(r, s, t)
    spec = hrscodes.ChannelSpec(p=p, s=s, r=r, weight=rad)
    words = []
    for index in range(count):
        message = [rnd.randrange(p) for _ in range(t)]
        rng = np.random.Generator(np.random.Philox(key=[rnd.getrandbits(64), index]))
        error = hrscodes.sample_error(spec, rng).to_lists()
        if checks.ref_nrt_weight(error) != rad:
            raise RuntimeError(f"{name}: sample_error gave an error of the wrong weight")
        codeword = checks.ref_encode(p, s, alphas, multipliers, message)
        received = [
            [(a + b) % p for a, b in zip(crow, erow)] for crow, erow in zip(codeword, error)
        ]
        words.append((message, received))
    code = {"p": p, "r": r, "s": s, "t": t, "alphas": alphas, "multipliers": multipliers}
    return code, words


def _decode_workload(name: str, seed: int, pool: int) -> Workload:
    code, words = decode_inputs(name, seed, pool)
    params = hrscodes.CodeParams(
        code["p"], code["r"], code["s"], code["t"], code["alphas"], code["multipliers"]
    )
    received = [hrscodes.NrtMatrix(params.field, rows) for _, rows in words]

    def op(index: int) -> Op:
        y, message = received[index], words[index][0]
        return Op(
            run=lambda: hrscodes.decoder.decode(params, y),
            check=lambda outcome: checks.check_decode(outcome, message),
            label=f"{name} seed {seed} word {index}",
            decodes=1,
        )

    def interpolate(index: int, check: bool) -> str | None:
        h = hrscodes.hrs.hermite_interpolate(params, received[index])
        if check:
            p, s = code["p"], code["s"]
            return checks.check_interpolant(p, s, code["alphas"], h.to_list(), words[index][1])
        return None

    return Workload(
        name=name,
        arith=_arith(code["p"]),
        ops=[op(i) for i in range(len(words))],
        probe={"kind": "decode", "code": code, "received": words[0][1], "message": words[0][0]},
        # hermite_interpolate is not on the decode path yet; timing it on the
        # same words shows what routing decode through it would cost.
        out_of_band=interpolate if name == "decode-n256" else None,
    )


def run_cli(argv: list[str]):
    """One in-process `hrscodes` command: (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = hrscodes.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
    return code, out.getvalue()


def sweep_jobs(seed: int, workdir, trials: int):
    """(argv, weight, radius) per job: every code at weights 0..radius+2."""
    rnd = random.Random(f"simulate-sweep:{seed}")
    jobs = []
    for p, r, s, t in SWEEP_CODES:
        path = workdir / f"code-{p}-{r}-{s}-{t}.json"
        path.write_text(json.dumps({"p": p, "r": r, "s": s, "t": t, "alphas": list(range(r))}))
        rad = checks.radius(r, s, t)
        for weight in range(rad + 3):
            argv = [
                "simulate", "--job", str(path),
                "--param", f"weight={weight}", "--param", f"trials={trials}",
                "--seed", str(rnd.getrandbits(63)),
            ]
            jobs.append((argv, weight, rad))
    return jobs


def _sweep_workload(seed: int, workdir, trials: int) -> Workload:
    jobs = sweep_jobs(seed, workdir, trials)

    def op(argv, weight, rad) -> Op:
        return Op(
            run=lambda: run_cli(argv),
            check=lambda out: checks.check_simulate(out[0], out[1], weight, trials, rad),
            label=f"simulate-sweep seed {seed}: hrscodes {' '.join(argv)}",
            decodes=trials,
        )

    argv, weight, rad = jobs[0]
    return Workload(
        name="simulate-sweep",
        arith=_arith(max(code[0] for code in SWEEP_CODES)),
        ops=[op(*job) for job in jobs],
        probe={"kind": "simulate", "argv": argv, "weight": weight, "trials": trials, "radius": rad},
    )


def build(name: str, seed: int, workdir, tiny: bool = False) -> Workload:
    """The workload's inputs for this seed; tiny shrinks them for the self-test.

    workdir receives the job files of simulate-sweep; decode-* write none.
    """
    if name == "simulate-sweep":
        return _sweep_workload(seed, workdir, 2 if tiny else SWEEP_TRIALS)
    return _decode_workload(name, seed, 2 if tiny else POOL)
