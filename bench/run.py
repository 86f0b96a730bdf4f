"""hrscodes benchmark: one workload per run, a closed loop of one caller.

    python3 bench/run.py --workload decode-n256 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-test

Run from anywhere; the package is imported from the `src/` directory next to
this one.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See bench/README.md.
"""

import os

# One thread everywhere, set before numpy is first imported.
PINNED_THREADS = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(PINNED_THREADS)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 11
# Failures printed per run; the rest are only counted.
MAX_REPORTED_FAILURES = 10


def import_package():
    """Import hrscodes from this checkout's sources, never from elsewhere."""
    init = SRC / "hrscodes" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import hrscodes

    if Path(hrscodes.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: imported hrscodes from {hrscodes.__file__}, not {init}")
    return hrscodes


class Stats:
    """Latencies and outcomes of the operations of one phase."""

    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.decodes = 0
        self.wall = 0.0

    def record(self, label: str, elapsed, reason) -> None:
        self.attempted += 1
        if elapsed is not None:
            self.latencies.append(elapsed)
        if reason is not None:
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"FAILED {label}: {reason}", flush=True)

    def percentile_ms(self, q: int) -> float:
        lat = self.latencies
        value = statistics.median(lat) if q == 50 else statistics.quantiles(lat, n=100)[q - 1]
        return value * 1e3


def run_pass(workload, stats: Stats, tracer=None, check_out_of_band=False) -> None:
    """Every input of the workload once, each operation timed and checked."""
    clock = time.perf_counter
    start = clock()
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op += 1
        t0 = clock()
        try:
            result = op.run()
        except Exception as exc:  # a raising operation is a failed one
            elapsed = clock() - t0
            reason = f"raised {type(exc).__name__}: {exc}"
        else:
            elapsed = clock() - t0
            stats.decodes += op.decodes
            try:
                reason = op.check(result)
            except Exception as exc:  # output the check cannot read
                reason = f"unreadable output ({type(exc).__name__}: {exc})"
        stats.record(op.label, elapsed, reason)
        if tracer is not None and workload.out_of_band is not None:
            with tracer.out_of_band():
                reason = workload.out_of_band(index, check_out_of_band)
            if check_out_of_band:
                stats.record(f"{op.label} (hermite_interpolate)", None, reason)
    stats.wall += clock() - start


def probe_setup(probe: dict, stats: Stats) -> float | None:
    """setup_s of one fresh interpreter; its first operation is checked."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py")],
        input=json.dumps({**probe, "src": str(SRC)}),
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
    )
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        stats.record("set-up probe", None, f"exit {proc.returncode}: {proc.stderr[-300:]}")
        return None
    stats.record("set-up probe (first operation)", None, result["error"])
    return result["setup_s"]


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def run_record(workload, seed: int, seconds: float, trace: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((SRC / "hrscodes").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "arith": workload.arith,
        "ops_per_pass": len(workload.ops),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "threads": {name: os.environ.get(name) for name in PINNED_THREADS},
    }


def _metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_untraced(workload, seconds: float, probes: int) -> tuple[dict, list]:
    """Timed passes until `seconds` of them have gone by.  The set-up probes
    run between passes, spread over the run, so that they see the same
    machine as the timed operations; their time is not in the timed loop."""
    checked = Stats()  # set-up probes and warm-up: checked, not timed
    run_pass(workload, checked)
    timed = Stats()
    setup = []
    for k in range(probes):
        while timed.attempted == 0 or timed.wall < k * seconds / probes:
            run_pass(workload, timed)
        setup.append(probe_setup(workload.probe, checked))
    while timed.wall < seconds:
        run_pass(workload, timed)
    setup = [t for t in setup if t is not None]
    if not setup:
        raise RuntimeError("every set-up probe failed")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(
        f"{workload.name}: {len(timed.latencies)} timed operations in {timed.wall:.2f} s; "
        f"setup_s median of {len(setup)} interpreters",
        flush=True,
    )
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_ms_p50": (timed.percentile_ms(50), "ms"),
        "latency_ms_p90": (timed.percentile_ms(90), "ms"),
        "decodes_per_s": (timed.decodes / timed.wall, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return metrics, [checked, timed]


def run_traced(workload, seconds: float, tracer) -> tuple[dict, list]:
    """Alternate untraced and traced passes; per-layer metrics come from the
    traced ones, the overhead from comparing the two."""
    warm = Stats()
    run_pass(workload, warm)
    plain, traced = Stats(), Stats()
    rounds = 0
    deadline = time.perf_counter() + seconds
    while rounds == 0 or time.perf_counter() < deadline:
        run_pass(workload, plain)
        with tracer.installed():
            run_pass(workload, traced, tracer, check_out_of_band=rounds == 0)
        rounds += 1
    if tracer.missing:
        print(f"trace sites not found: {', '.join(tracer.missing)}", flush=True)
    print(f"{workload.name}: {rounds} traced passes of {len(workload.ops)} operations", flush=True)
    metrics = tracer.layer_metrics(rounds)
    base = plain.percentile_ms(50)
    metrics["trace.overhead_pct"] = (100.0 * (traced.percentile_ms(50) - base) / base, "%")
    stats = [warm, plain, traced]
    attempted = sum(s.attempted for s in stats)
    metrics["fail_ratio"] = (sum(s.failed for s in stats) / attempted, "ratio")
    return metrics, stats


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    import tracing
    import workloads

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(name, seed, workdir, tiny)
        record = run_record(workload, seed, seconds, trace)
        if trace:
            tracer = tracing.Tracer()
            metrics, stats = run_traced(workload, seconds, tracer)
            tracer.write(OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz", record)
        else:
            metrics, stats = run_untraced(workload, seconds, 1 if tiny else SETUP_PROBES)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("run-record " + json.dumps(record), flush=True)
    failed = sum(s.failed for s in stats)
    return {
        "correct": failed == 0,
        "attempted": sum(s.attempted for s in stats),
        "failed": failed,
        "metrics": _metrics(metrics),
    }


def self_test() -> int:
    """Tiny run of each workload in both modes, checking that exactly the
    metrics of BENCHMARK.json are emitted, and that the output checks flag
    wrong results fed to them."""
    import checks
    import hrscodes
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: sorted(m["name"] for m in spec["end_to_end"]),
        1: sorted(m["name"] for m in spec["per_layer"]),
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.NAMES):
        problems.append("BENCHMARK.json workloads differ from workloads.NAMES")
    for name in workloads.NAMES:
        for trace in (0, 1):
            result = run_workload(name, 1, 0.0, trace, tiny=True)
            where = f"{name} --trace {trace}"
            if sorted(result["metrics"]) != wanted[trace]:
                got = set(result["metrics"])
                problems.append(f"{where}: metrics differ: {sorted(got ^ set(wanted[trace]))}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{where}: {result['failed']} failed operations")
            if trace and name == "decode-n256":
                cover = result["metrics"]["trace.decode_cover_pct"]["value"]
                if cover < 90:
                    problems.append(f"{where}: spans cover {cover:.1f}% of decode, under 90%")

    # A wrong decode result, fed to the loop in place of the real one.
    print("feeding a wrong decode result: one FAILED line is expected", flush=True)
    workload = workloads.build("decode-bigp-n64", 1, None, tiny=True)
    real = workload.ops[0]
    good = real.run()
    one = hrscodes.Poly.one(good.message.field)
    wrong = dataclasses.replace(good, message=good.message + one)
    fake = dataclasses.replace(workload, ops=[dataclasses.replace(real, run=lambda: wrong)])
    stats = Stats()
    run_pass(fake, stats)
    if real.check(good) is not None or stats.failed != 1:
        problems.append("decode check does not flag a wrong message")

    # (exit code, output, weight) of simulate jobs of 10 trials at radius 7.
    header = ",".join(checks.SIMULATE_COLUMNS)
    bad_jobs = {
        "in-radius trial not decoded": (0, f"{header}\n3,10,9,1,0,0,5.0\n", 3),
        "columns short of trials": (0, f"{header}\n9,10,0,4,5,0,5.0\n", 9),
        "nonzero exit": (2, "", 3),
    }
    for what, (code, text, weight) in bad_jobs.items():
        if checks.check_simulate(code, text, weight, 10, 7) is None:
            problems.append(f"simulate check misses: {what}")
    if checks.check_simulate(0, f"{header}\n9,10,0,4,6,0,5.0\n", 9, 10, 7) is not None:
        problems.append("simulate check flags a valid beyond-radius row")

    for problem in problems:
        print(f"SELF-TEST FAIL {problem}")
    print("SELF-TEST " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="decode-n256, decode-bigp-n64 or simulate-sweep")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="tiny run of every workload")
    args = parser.parse_args(argv)
    import_package()
    if args.self_test:
        return self_test()
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
