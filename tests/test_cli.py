import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

from hrscodes import CSV_HEADER, hrs
from hrscodes.cli import main
from conftest import GOLDEN_CODEWORD, GOLDEN_MESSAGE, GOLDEN_RECEIVED

GOLDEN_JOB = {"p": 7, "r": 4, "s": 2, "t": 4, "alphas": [1, 2, 3, 4]}


def write_job(tmp_path, name, **extra):
    path = tmp_path / name
    path.write_text(json.dumps({**GOLDEN_JOB, **extra}))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_encode(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", poly=GOLDEN_MESSAGE)
        code, out, err = run(capsys, ["encode", "--job", job])
        assert code == 0 and err == ""
        assert json.loads(out) == {"s": 2, "r": 4, "entries": GOLDEN_CODEWORD}

    def test_decode(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", matrix={"s": 2, "r": 4, "entries": GOLDEN_RECEIVED})
        code, out, _ = run(capsys, ["decode", "--job", job])
        assert code == 0
        assert json.loads(out) == {
            "status": "ok",
            "poly": GOLDEN_MESSAGE,
            "error_weight": 2,
        }

    def test_decode_bare_rows(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", matrix=GOLDEN_RECEIVED)
        code, out, _ = run(capsys, ["decode", "--job", job])
        assert code == 0 and json.loads(out)["status"] == "ok"

    def test_decode_failure_is_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "j.json"
        path.write_text(
            json.dumps({"p": 3, "r": 2, "s": 1, "t": 1, "alphas": [0, 1], "matrix": [[0, 1]]})
        )
        code, out, _ = run(capsys, ["decode", "--job", str(path)])
        assert code == 0
        assert json.loads(out) == {"status": "fail", "reason": "no_solution"}

    def test_corrupt(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", matrix=GOLDEN_CODEWORD, weight=2, seed=9)
        code, out, _ = run(capsys, ["corrupt", "--job", job])
        assert code == 0
        payload = json.loads(out)
        err_rows = payload["error"]["entries"]
        assert payload["error"]["s"] == 2 and payload["error"]["r"] == 4
        for i in range(2):
            for j in range(4):
                assert (GOLDEN_CODEWORD[i][j] + err_rows[i][j]) % 7 == payload[
                    "corrupted"
                ]["entries"][i][j]
        # Exact weight: a column with topmost nonzero row i weighs s-i.
        assert sum(
            next((2 - i for i in range(2) if err_rows[i][j]), 0) for j in range(4)
        ) == 2

    def test_corrupt_deterministic(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", matrix=GOLDEN_CODEWORD, weight=3, seed=4)
        _, out1, _ = run(capsys, ["corrupt", "--job", job])
        _, out2, _ = run(capsys, ["corrupt", "--job", job])
        assert out1 == out2
        _, out3, _ = run(capsys, ["corrupt", "--job", job, "--seed", "5"])
        assert out3 != out1

    def test_interpolate(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", matrix=GOLDEN_CODEWORD)
        code, out, _ = run(capsys, ["interpolate", "--job", job])
        assert code == 0
        assert json.loads(out) == {"poly": GOLDEN_MESSAGE}

    def test_simulate(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", weight=2, trials=20, seed=1)
        code, out, _ = run(capsys, ["simulate", "--job", job])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header == CSV_HEADER
        cells = row.split(",")
        assert [int(c) for c in cells[:6]] == [2, 20, 20, 0, 0, 0]

    def test_simulate_jobs_share_the_code_tables(
        self, tmp_path, capsys, monkeypatch, empty_table_store
    ):
        # Each job builds its own CodeParams; the Hermite tables are built
        # once for the code, and the table build is the one caller of
        # hrs._divmod.
        builds = []
        divmod_ = hrs._divmod
        monkeypatch.setattr(hrs, "_divmod", lambda *args: builds.append(1) or divmod_(*args))
        job = write_job(tmp_path, "j.json", trials=5, seed=3)
        for weight in range(4):
            code, out, _ = run(capsys, ["simulate", "--job", job, "--param", f"weight={weight}"])
            assert code == 0 and out.startswith(CSV_HEADER)
        assert len(builds) == 1 and empty_table_store.cache_info().currsize == 1

    def test_mindist(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json")
        code, out, _ = run(capsys, ["mindist", "--job", job])
        assert code == 0
        assert json.loads(out) == {"min_distance": 5, "mds": True}


class TestOptions:
    def test_output_file(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", poly=GOLDEN_MESSAGE)
        target = tmp_path / "out.json"
        code, out, _ = run(capsys, ["encode", "--job", job, "--output", str(target)])
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["entries"] == GOLDEN_CODEWORD

    def test_param_override(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", matrix=GOLDEN_RECEIVED)
        # Radius is 2; at e=0 the received word admits no exact fit.
        code, out, _ = run(capsys, ["decode", "--job", job, "--param", "e=0"])
        assert code == 0
        assert json.loads(out) == {"status": "fail", "reason": "no_solution"}

    def test_param_stacking(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", weight=9, trials=500)
        code, out, _ = run(
            capsys,
            ["simulate", "--job", job, "--param", "weight=0", "--param", "trials=3"],
        )
        assert code == 0
        assert out.strip().splitlines()[1].startswith("0,3,3,")

    def test_back_to_back_calls(self, tmp_path, capsys):
        # The parser is built once per process; the second call must see
        # only its own --param list.
        job = write_job(tmp_path, "j.json", matrix=GOLDEN_RECEIVED)
        code, out, _ = run(capsys, ["decode", "--job", job, "--param", "e=0"])
        assert code == 0 and json.loads(out)["status"] == "fail"
        code, out, _ = run(capsys, ["decode", "--job", job, "--param", "seed=5"])
        assert code == 0
        assert json.loads(out) == {"status": "ok", "poly": GOLDEN_MESSAGE, "error_weight": 2}

    def test_out_of_range_warning(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", poly=[12, 2, 3, 1])
        code, out, err = run(capsys, ["encode", "--job", job])
        assert code == 0
        assert "reduced mod 7" in err
        assert json.loads(out)["entries"] == GOLDEN_CODEWORD


class TestErrorPaths:
    def test_missing_key(self, tmp_path, capsys):
        path = tmp_path / "j.json"
        path.write_text(json.dumps({"p": 7, "r": 4, "s": 2, "t": 4}))
        code, _, err = run(capsys, ["encode", "--job", str(path)])
        assert code == 2 and "alphas" in err

    def test_degree_too_high(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", poly=[1, 1, 1, 1, 1])
        code, _, err = run(capsys, ["encode", "--job", job])
        assert code == 2 and err.startswith("error:")

    def test_bad_matrix_shape(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", matrix=[[1, 2, 3]])
        code, _, err = run(capsys, ["decode", "--job", job])
        assert code == 2 and "shape" in err

    def test_e_out_of_range(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", matrix=GOLDEN_RECEIVED, e=3)
        code, _, err = run(capsys, ["decode", "--job", job])
        assert code == 2 and "error bound" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "j.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["decode", "--job", str(path)])
        assert code == 2

    def test_deeply_nested_json(self, tmp_path, capsys):
        path = tmp_path / "j.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run(capsys, ["decode", "--job", str(path)])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:")

    def test_modulus_checked_first(self, tmp_path, capsys):
        # p is refused by the field before any value is reduced by it: no
        # division by zero, and no warning quoting an invalid modulus.
        for p in (0, -7):
            job = write_job(tmp_path, "j.json", p=p, poly=GOLDEN_MESSAGE)
            code, out, err = run(capsys, ["encode", "--job", job])
            assert code == 2 and out == ""
            assert err == f"error: modulus must satisfy 2 <= p < 2**61, got {p}\n"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["decode", "--job", "/nonexistent/j.json"])
        assert code == 2

    def test_non_object_job(self, tmp_path, capsys):
        path = tmp_path / "j.json"
        path.write_text("[1, 2]")
        code, _, err = run(capsys, ["encode", "--job", str(path)])
        assert code == 2 and "object" in err

    def test_bad_param_syntax(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", poly=GOLDEN_MESSAGE)
        code, _, err = run(capsys, ["encode", "--job", job, "--param", "e2"])
        assert code == 2 and "K=V" in err
        code, _, err = run(capsys, ["encode", "--job", job, "--param", "e=two"])
        assert code == 2 and "integer" in err

    def test_non_integer_keys(self, tmp_path, capsys):
        cases = (
            ("encode", {"t": 4.0, "poly": GOLDEN_MESSAGE}, "t"),
            ("encode", {"r": True, "poly": GOLDEN_MESSAGE}, "r"),
            ("decode", {"matrix": GOLDEN_RECEIVED, "e": 2.0}, "e"),
            ("corrupt", {"matrix": GOLDEN_RECEIVED, "weight": 1, "seed": 1.5}, "seed"),
            ("simulate", {"weight": "1"}, "weight"),
            ("simulate", {"weight": 1, "trials": 3.0}, "trials"),
            ("simulate", {"weight": 1, "seed": True}, "seed"),
        )
        for command, extra, key in cases:
            job = write_job(tmp_path, "j.json", **extra)
            code, out, err = run(capsys, [command, "--job", job])
            assert code == 2 and out == ""
            assert f"{key} must be an integer" in err

    def test_multipliers_not_rows(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", poly=GOLDEN_MESSAGE, multipliers=[1, 2])
        code, _, err = run(capsys, ["encode", "--job", job])
        assert code == 2 and "'multipliers' must be a list of rows" in err

    def test_budget_above_int64(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", budget=2**63)
        code, _, err = run(capsys, ["mindist", "--job", job])
        assert code == 2 and "2**63 - 1" in err

    def test_negative_budget(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json")
        code, _, err = run(capsys, ["mindist", "--job", job, "--param", "budget=-1"])
        assert code == 2 and "budget must be non-negative, got -1" in err

    def test_code_length_limit(self, tmp_path, capsys):
        # rs = 2053 is one prime past the limit; the job is refused before
        # any table is built.
        path = tmp_path / "j.json"
        path.write_text(
            json.dumps(
                {"p": 2053, "r": 2053, "s": 1, "t": 1, "alphas": list(range(2053)), "poly": [1]}
            )
        )
        code, _, err = run(capsys, ["encode", "--job", str(path)])
        assert code == 2
        assert "code length r*s = 2053 exceeds the limit 2048" in err

    def test_tail_table_cap(self, tmp_path, capsys):
        # A legal code (rs = 2048) whose weight-1024 tail-count table would
        # take GBs is refused before the table is built.
        path = tmp_path / "j.json"
        job = {"p": 2**61 - 1, "r": 2048, "s": 1, "t": 1, "alphas": list(range(2048))}
        path.write_text(json.dumps({**job, "matrix": [[0] * 2048], "weight": 1024}))
        code, out, err = run(capsys, ["corrupt", "--job", str(path)])
        assert code == 2 and out == ""
        assert "tail-count table" in err and "exceeds 160 MiB" in err

    def test_budget_exceeded(self, tmp_path, capsys):
        job = write_job(tmp_path, "j.json", budget=10)
        code, _, err = run(capsys, ["mindist", "--job", job])
        assert code == 3 and "budget" in err.lower()

    def test_simulate_trials_share_the_budget(self, tmp_path, capsys):
        # simulate's trial count meets mindist's budget rule before any
        # work: 2**70 trials exit 3 at once, and a count equal to the
        # budget runs.
        job = write_job(tmp_path, "j.json", weight=1, trials=2**70)
        start = time.perf_counter()
        code, out, err = run(capsys, ["simulate", "--job", job])
        assert time.perf_counter() - start < 1
        assert code == 3 and out == "" and err.count("error:") == 1
        assert "trial count 1180591620717411303424 exceeds the budget of 1000000" in err
        job = write_job(tmp_path, "j.json", weight=1, trials=5, budget=5)
        code, out, _ = run(capsys, ["simulate", "--job", job])
        assert code == 0 and out.splitlines()[1].startswith("1,5,5,")
        code, _, err = run(capsys, ["simulate", "--job", job, "--param", "trials=6"])
        assert code == 3 and "trial count 6 exceeds the budget of 5" in err


class TestPipeline:
    def test_encode_corrupt_decode(self, tmp_path, capsys):
        encode_job = write_job(tmp_path, "encode.json", poly=GOLDEN_MESSAGE)
        _, out, _ = run(capsys, ["encode", "--job", encode_job])
        codeword = json.loads(out)

        corrupt_job = write_job(
            tmp_path, "corrupt.json", matrix=codeword, weight=2, seed=123
        )
        _, out, _ = run(capsys, ["corrupt", "--job", corrupt_job])
        noisy = json.loads(out)["corrupted"]

        decode_job = write_job(tmp_path, "decode.json", matrix=noisy)
        _, out, _ = run(capsys, ["decode", "--job", decode_job])
        result = json.loads(out)
        assert result["status"] == "ok"
        assert result["poly"] == GOLDEN_MESSAGE
        assert result["error_weight"] == 2


def test_console_script(tmp_path):
    """The installed entry point, or else `python -m hrscodes.cli` on this
    checkout's sources, run as a real process."""
    env = dict(os.environ)
    if shutil.which("hrscodes"):
        command = ["hrscodes"]
    else:
        command = [sys.executable, "-m", "hrscodes.cli"]
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def encode_job(path):
        argv = [*command, "encode", "--job", str(path)]
        return subprocess.run(argv, capture_output=True, text=True, timeout=60, env=env)

    path = tmp_path / "j.json"
    path.write_text(json.dumps({**GOLDEN_JOB, "poly": GOLDEN_MESSAGE}))
    proc = encode_job(path)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entries"] == GOLDEN_CODEWORD
    proc = encode_job(tmp_path / "missing.json")
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")
