"""Span tracing from outside the package, for the traced run only.

Wrappers replace a function at the place its caller looks it up (a module
global such as `hrscodes.decoder.solve`, or a class attribute such as
`Poly.__divmod__`) and are removed again afterwards, so the package files are
never touched.  Each call records a span (id, parent id, operation id, name,
start, end) in memory; the per-layer metrics are computed from the spans,
which are written out when the run ends.
"""

import contextlib
import functools
import gzip
import importlib
import itertools
import json
import time
from collections import Counter, defaultdict


def _solve_info(args, result):
    rows, cols = args[1].shape
    return {"linalg.solve.cells": rows * cols, "linalg.solve.inconsistent": int(result is None)}


def _decode_info(args, outcome):
    if getattr(outcome, "ok", False):
        kind = "ok"
    else:
        kind = getattr(getattr(outcome, "reason", None), "value", "other")
    return {f"decoder.outcome.{kind}": 1}


def _exit_info(args, code):
    return {"cli.exit_nonzero": int(code != 0)}


# (owner inside hrscodes, attribute, span name, extra counts from the call).
# A function imported into several modules is wrapped at each caller.
SPAN_SITES = (
    ("cli", "main", "cli.main", _exit_info),
    ("cli", "run_trials", "channel.run_trials", None),
    ("channel", "sample_error", "channel.sample_error", None),
    ("channel", "decode", "decoder.decode", _decode_info),
    ("decoder", "decode", "decoder.decode", _decode_info),
    ("decoder", "build_wb_system", "decoder.build_wb_system", None),
    ("decoder", "solve", "linalg.solve", _solve_info),
    ("poly:Poly", "__divmod__", "poly.divmod", None),
    ("channel", "encode", "hrs.encode", None),
    ("decoder", "encode", "hrs.encode", None),
    ("decoder", "nrt_distance", "nrt.nrt_distance", None),
    ("decoder", "hermite_interpolate", "hrs.hermite_interpolate", None),
    ("hrs", "hermite_interpolate", "hrs.hermite_interpolate", None),
    ("hrs:CodeParams", "power_table", "hrs.tables", None),
    ("hrs:CodeParams", "binomial_table", "hrs.tables", None),
    ("hrs:CodeParams", "encoding_matrix", "hrs.tables", None),
    ("hrs:CodeParams", "inverse_multipliers", "hrs.tables", None),
)

# Calls counted without a span: too many and too short to time.
COUNT_SITES = (("field:PrimeField", "inv", "field.inv.calls"),)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(f"hrscodes.{module}")
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent id, op id, name, start, end)
        self.counts = Counter()
        self.op = 0  # operation the next spans belong to
        self.missing = []  # sites absent from this version of the package
        self._stack = [0]
        self._ids = itertools.count(1)
        self._counting = True

    def _span(self, name, fn, info):
        spans, stack, ids, counts, clock = self.spans, self._stack, self._ids, self.counts, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            spans.append((sid, parent, self.op, name, start, end))
            if info is not None:
                counts.update(info(args, result))
            return result

        return wrapper

    def _counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._counting:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every site for the duration of the block."""
        saved = []
        self.missing = []
        sites = [(o, a, functools.partial(self._span, n, info=i)) for o, a, n, i in SPAN_SITES]
        sites += [(o, a, functools.partial(self._counter, n)) for o, a, n in COUNT_SITES]
        try:
            for path, attr, wrap in sites:
                owner = _owner(path)
                if attr not in vars(owner):
                    self.missing.append(f"{path}.{attr}")
                    continue
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, wrap(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def out_of_band(self):
        """Work that is not part of an operation: spans yes, counts no."""
        self._counting = False
        try:
            yield
        finally:
            self._counting = True

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass over the workload's inputs, as
        {name: (value, unit)}.

        A name's ms is the time its outermost spans cover; its self_ms is
        the duration of its spans minus what their direct children cover.
        """
        name_of = {sid: name for sid, _, _, name, _, _ in self.spans}
        child_time = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            child_time[parent] += end - start
        calls, ms, self_ms = Counter(), defaultdict(float), defaultdict(float)
        for sid, parent, _, name, start, end in self.spans:
            calls[name] += 1
            self_ms[name] += end - start - child_time[sid]
            if name_of.get(parent) != name:
                ms[name] += end - start

        def count(value):
            return (value / passes, "count")

        def msec(value):
            return (value * 1e3 / passes, "ms")

        decodes = calls["decoder.decode"]
        out = {
            "linalg.solve.calls": count(calls["linalg.solve"]),
            "linalg.solve.ms": msec(ms["linalg.solve"]),
            "linalg.solve.self_ms": msec(self_ms["linalg.solve"]),
            "linalg.solve.cells": count(self.counts["linalg.solve.cells"]),
            "linalg.solve.inconsistent": count(self.counts["linalg.solve.inconsistent"]),
            "decoder.decode.calls": count(decodes),
            "decoder.decode.ms": msec(ms["decoder.decode"]),
            "decoder.decode.self_ms": msec(self_ms["decoder.decode"]),
            "decoder.build_wb_system.ms": msec(ms["decoder.build_wb_system"]),
        }
        for kind in ("ok", "no_solution", "non_divisible", "distance_exceeded"):
            out[f"decoder.outcome.{kind}"] = count(self.counts[f"decoder.outcome.{kind}"])
        out["decoder.success_ratio"] = (
            self.counts["decoder.outcome.ok"] / decodes if decodes else 0.0,
            "ratio",
        )
        out.update(
            {
                "poly.divmod.calls": count(calls["poly.divmod"]),
                "poly.divmod.ms": msec(ms["poly.divmod"]),
                "hrs.encode.calls": count(calls["hrs.encode"]),
                "hrs.encode.ms": msec(ms["hrs.encode"]),
                "hrs.tables.ms": msec(ms["hrs.tables"]),
                "hrs.hermite_interpolate.ms": msec(ms["hrs.hermite_interpolate"]),
                "nrt.nrt_distance.calls": count(calls["nrt.nrt_distance"]),
                "nrt.nrt_distance.ms": msec(ms["nrt.nrt_distance"]),
                "channel.sample_error.calls": count(calls["channel.sample_error"]),
                "channel.sample_error.ms": msec(ms["channel.sample_error"]),
                "channel.run_trials.self_ms": msec(self_ms["channel.run_trials"]),
                "field.inv.calls": count(self.counts["field.inv.calls"]),
                "cli.main.calls": count(calls["cli.main"]),
                "cli.main.ms": msec(ms["cli.main"]),
                "cli.self_ms": msec(self_ms["cli.main"]),
                "cli.exit_nonzero": count(self.counts["cli.exit_nonzero"]),
            }
        )
        decode_ms = ms["decoder.decode"]
        cover = 100.0 * (1 - self_ms["decoder.decode"] / decode_ms) if decode_ms else 0.0
        out["trace.decode_cover_pct"] = (cover, "%")
        return out

    def write(self, path, header: dict) -> None:
        """Spans as gzipped JSON lines, times in microseconds from the first."""
        origin = min((s[4] for s in self.spans), default=0.0)
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header) + "\n")
            for sid, parent, op, name, start, end in self.spans:
                row = [sid, parent, op, name, round((start - origin) * 1e6, 3), round((end - start) * 1e6, 3)]
                fh.write(json.dumps(row) + "\n")
