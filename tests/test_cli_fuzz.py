"""Seeded job fuzzer for the CLI.

Jobs are built from the key table of cli._JOB_HELP for all six commands,
on small random codes (p <= 101, rs <= 48), and one key is mutated at a
time: removed, or replaced (whole, or one of its entries) by a value of the
wrong type, a float, NaN, a negative, zero, a huge integer, an empty,
nested or ragged list, or a dict.  Every job must end in exit 0, 2 or 3,
and a refused job must print one "error:" line and nothing on stdout.
"""

import json
import math
import random
import re

from hrscodes import cli

SEED = 16
COMMANDS = tuple(cli._COMMANDS)
PRIMES = (2, 3, 5, 7, 11, 13, 101)
MAX_LENGTH = 48
MINDIST_BUDGET = 10**4

MISSING = object()
HUGE = 2**70
MUTATIONS = (
    MISSING, None, True, 1.5, math.nan, "7", -1, 0, HUGE,
    [], [[[1]]], [[1, 2], [3]], {"k": 1},
)


def job_keys() -> dict[str, tuple[str, ...]]:
    """{key: commands that read it}, from the key table of cli._JOB_HELP:
    a key whose description names commands in parentheses belongs to those,
    any other key to every command."""
    table = cli._JOB_HELP.split("\n\n")[0].splitlines()[1:]
    keys = {}
    for line in table:
        names, text = re.fullmatch(r"  (\S.*?)\s{2,}(.*)", line).groups()
        named = re.search(r"\(([^;)]*)", text)
        users = [c.strip() for c in named.group(1).split(",")] if named else []
        for name in names.split(", "):
            keys[name] = tuple(c for c in users if c in cli._COMMANDS) or COMMANDS
    return keys


KEYS = job_keys()


def base_job(rng: random.Random, command: str) -> dict:
    """A valid job for command on a random small code, all values in [0, p)."""
    p = rng.choice(PRIMES)
    s = rng.randint(1, min(p, 4))
    r = rng.randint(1, min(p, MAX_LENGTH // s))
    n = r * s
    top = n
    if command == "mindist":
        top = min(n, int(math.log(MINDIST_BUDGET, p)))
    t = rng.randint(1, top)
    values = {
        "p": p, "r": r, "s": s, "t": t,
        "alphas": rng.sample(range(p), r),
        "multipliers": [[rng.randrange(1, p) for _ in range(r)] for _ in range(s)],
        "poly": [rng.randrange(p) for _ in range(t)],
        "matrix": [[rng.randrange(p) for _ in range(r)] for _ in range(s)],
        "e": rng.randint(0, (n - t) // 2),
        "weight": rng.randint(0, n),
        "trials": rng.randint(0, 2),
        "seed": rng.randrange(2**64),
        "budget": MINDIST_BUDGET,
    }
    assert set(values) == set(KEYS), "give every _JOB_HELP key a valid value"
    return {key: values[key] for key in KEYS if command in KEYS[key]}


def mutated_jobs(rng: random.Random):
    """(command, key, job) with one key of a fresh base job mutated."""
    for command in COMMANDS:
        for key in (k for k in KEYS if command in KEYS[k]):
            for value in MUTATIONS:
                job = base_job(rng, command)
                if value is MISSING:
                    del job[key]
                else:
                    job[key] = value
                yield command, key, job
                job = base_job(rng, command)
                if value is MISSING or not isinstance(job[key], list):
                    continue
                # The same value in place of one entry of the list key.
                target = job[key]
                if isinstance(target[0], list):
                    target = rng.choice(target)
                target[rng.randrange(len(target))] = value
                yield command, f"{key}[]", job


def run(tmp_path, capsys, command, job):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(job))
    code = cli.main([command, "--job", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_base_jobs_run_clean(tmp_path, capsys):
    rng = random.Random(SEED)
    for command in COMMANDS:
        for _ in range(5):
            job = base_job(rng, command)
            code, out, err = run(tmp_path, capsys, command, job)
            assert (code, err) == (0, ""), (command, job, err)
            assert out


def test_mutated_jobs_exit_cleanly(tmp_path, capsys):
    jobs = 0
    for command, key, job in mutated_jobs(random.Random(SEED)):
        jobs += 1
        case = (command, key, job)
        code, out, err = run(tmp_path, capsys, command, job)
        assert code in (0, 2, 3), case
        lines = err.splitlines()
        if code == 0:
            assert all(line.startswith("warning:") for line in lines), (case, err)
        else:
            assert out == "", case
            assert len(lines) == 1 and lines[0].startswith("error:"), (case, err)
    assert jobs > 500
