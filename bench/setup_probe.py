"""Set-up probe: times one fresh interpreter from `import hrscodes` to the end
of the workload's first operation, lazy code tables included.

Reads its input as JSON on standard input (written by run.py before timing)
and prints {"setup_s": seconds, "error": reason or null} as its last line.
"""

import contextlib
import io
import json
import sys
import time


def main() -> None:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    start = time.perf_counter()
    if spec["kind"] == "decode":
        import hrscodes

        code = spec["code"]
        params = hrscodes.CodeParams(
            code["p"], code["r"], code["s"], code["t"], code["alphas"], code["multipliers"]
        )
        outcome = hrscodes.decode(params, hrscodes.NrtMatrix(params.field, spec["received"]))
    else:
        import hrscodes.cli

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exit_code = hrscodes.cli.main(spec["argv"])
    elapsed = time.perf_counter() - start

    import checks

    if spec["kind"] == "decode":
        error = checks.check_decode(outcome, spec["message"])
    else:
        error = checks.check_simulate(
            exit_code, out.getvalue(), spec["weight"], spec["trials"], spec["radius"]
        )
    print(json.dumps({"setup_s": elapsed, "error": error}))


if __name__ == "__main__":
    main()
