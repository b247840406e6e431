#!/usr/bin/env python3
"""Benchmark for demix: end-to-end fit metrics and a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload mixture-2e6 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One run builds the workload's inputs from ``--seed`` (several times, to time
set-up), makes one untimed warm-up op, then runs ops in a closed loop for
``--seconds`` and checks every op's output.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced ops on the
same input and reports the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs every workload in its own process,
traced and untraced, and prints both tables.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

END_TO_END = (("latency_p50_s", "s"), ("fits_per_s", "1/s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("accuracy_digits", "log10"))
# Printed beside the end-to-end metrics but not part of the result line:
# they are zero when all is well, or vary too much between seeds to bound.
DETAILS = (("failed_ratio", "ratio"), ("gate_usage", "fraction"),
           ("lambda_err_mean", "abs"), ("f_err_mean", "L1"),
           ("curve_err_mean", "abs"), ("ops", "count"), ("warmup_s", "s"))


def import_demix():
    """Import demix from this checkout's sources, never from elsewhere."""
    package = SRC / "demix"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: no demix sources at {package}")
    sys.path.insert(0, str(SRC))
    import demix
    if Path(demix.__file__).resolve().parent != package:
        sys.exit(f"error: imported demix from {demix.__file__}, "
                 f"expected {package}")


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------

class Run:
    """Drives one workload: set-up, warm-up, the timed loop and the checks."""

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.digests: dict[str, str] = {}
        self.errors: dict[str, dict] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.fits = 0
        self.synth_s = 0.0
        # The last traced op's spans, and wrap points no longer present.
        self.spans: list = []
        self.missing: list[str] = []

    def setup(self, seed: int) -> list[float]:
        times, synth = [], []
        for _ in range(self.wl.size.setup_repeats):
            with (tracing.installed(self.tracer) if self.tracer
                  else contextlib.nullcontext()):
                t0 = time.perf_counter()
                self.wl.setup(seed)
                times.append(time.perf_counter() - t0)
            if self.tracer:
                synth.append(sum(s.duration for s in self.tracer.take()
                                 if s.layer == "synth"))
        self.synth_s = statistics.median(synth) if synth else 0.0
        return times

    def op(self, item, traced: bool = False, count: bool = True):
        """One op; returns (seconds, ok, per-layer metrics or None)."""
        ctx = self.wl.prepare(item)
        seconds, metrics = 0.0, None
        try:
            if traced:
                with tracing.installed(self.tracer) as self.missing:
                    with self.tracer.span("op", "root") as root:
                        result = self.wl.call(ctx)
                self.spans = self.tracer.take()
                seconds = root.duration
                metrics = tracing.op_metrics(self.spans, root.id)
            else:
                t0 = time.perf_counter()
                result = self.wl.call(ctx)
                seconds = time.perf_counter() - t0
            records = self.wl.check(ctx, result)
        except Exception:
            # A raising op is counted as failed and the loop goes on.
            error = traceback.format_exc(limit=3)
            print(error, file=sys.stderr)
            self.failures.append(error.strip().splitlines()[-1])
            records = None
        finally:
            self.wl.cleanup(ctx)
        if count:
            self.attempted += 1
        if records is None:
            return seconds, False, None
        ok = True
        for rec in records:
            known = self.digests.setdefault(rec.key, rec.digest)
            if rec.digest != known:
                rec.failure = rec.failure or (
                    f"digest of {rec.key} changed between ops")
            # The warm-up input is gated but is not one of the pooled inputs.
            if rec.errors is not None and count:
                self.errors[rec.key] = rec.errors
            if rec.failure:
                ok = False
                self.failures.append(f"{rec.key}: {rec.failure}")
        if ok and count:
            self.fits += len(records)
        return seconds, ok, metrics

    def digest(self) -> str:
        text = "\n".join(f"{k} {v}" for k, v in sorted(self.digests.items()))
        return hashlib.sha256(text.encode()).hexdigest()

    def accuracy(self) -> dict:
        """Mean over the pooled inputs of each error (fixed by the seed);
        the gate usage, the largest of these as a share of its acceptance
        bound; and its decimal digits, -log10(usage)."""
        out = {}
        for name in ("lambda", "f", "curve"):
            vals = [e[name] for e in self.errors.values()]
            out[name] = statistics.fmean(vals) if vals else float("nan")
        out["usage"] = max(out[name] / bound
                           for name, bound in self.wl.gates.items())
        out["digits"] = -math.log10(out["usage"])
        return out


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; return the result line plus printable details."""
    tracer = tracing.Tracer() if trace else None
    run = Run(workload, tracer)
    setup_times = run.setup(seed)

    t0 = time.perf_counter()
    _, warm_ok, _ = run.op(workload.warmup, count=False)
    warmup_s = time.perf_counter() - t0

    items = workload.items
    latencies, traced, untraced, layer_rows = [], [], [], []
    failed_ops = 0
    start = time.perf_counter()
    i = 0
    while (time.perf_counter() - start < seconds
           or i < (1 if trace else workload.min_ops)):
        item = items[i % len(items)]
        i += 1
        if trace:
            # Untraced then traced on the same input, so the pair gives
            # the tracing overhead without the inputs' own differences.
            sec, ok0, _ = run.op(item)
            untraced.append(sec)
            sec_t, ok1, metrics = run.op(item, traced=True)
            traced.append(sec_t)
            failed_ops += (not ok0) + (not ok1)
            if ok1:
                layer_rows.append(metrics)
        else:
            sec, ok, _ = run.op(item)
            failed_ops += not ok
            if ok:
                latencies.append(sec)

    correct = warm_ok and failed_ops == 0
    result = {"correct": correct, "attempted": run.attempted,
              "failed": failed_ops}
    acc = run.accuracy()
    details = {
        "workload": workload.name,
        "digest": run.digest(),
        "failed_ratio": failed_ops / run.attempted,
        "gate_usage": acc["usage"],
        "lambda_err_mean": acc["lambda"],
        "f_err_mean": acc["f"] if "f" in workload.gates else None,
        "curve_err_mean": acc["curve"] if "curve" in workload.gates else None,
        "ops": run.attempted,
        "op_seconds": latencies or untraced,
        "warmup_s": warmup_s,
        "failures": run.failures[:10],
    }
    if trace:
        metrics = {}
        if layer_rows:
            for name in layer_rows[0]:
                metrics[name] = statistics.median(r[name] for r in layer_rows)
        metrics["synth.sample_s"] = run.synth_s
        metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                           / statistics.median(untraced))
        details["missing_wrap_points"] = run.missing
        write_spans(workload.name, run.spans)
        result["metrics"] = {k: {"value": v, "unit": unit_of(k)}
                             for k, v in metrics.items()}
    else:
        values = {
            "latency_p50_s": (statistics.median(latencies)
                              if latencies else float("nan")),
            "fits_per_s": run.fits / sum(latencies) if latencies else 0.0,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "accuracy_digits": acc["digits"],
        }
        result["metrics"] = {k: {"value": values[k], "unit": u}
                             for k, u in END_TO_END}
    return {"result": result, "details": details}


def write_spans(workload: str, spans) -> None:
    """Write the last traced op's spans for inspection."""
    TRACE_OUT.mkdir(exist_ok=True)
    with open(TRACE_OUT / f"trace-{workload}.json", "w") as fh:
        json.dump([dataclasses.asdict(s) for s in spans], fh)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def print_end_to_end(rows) -> None:
    """One row per workload; each column header is the metric and unit."""
    cols = [(n, u) for n, u in END_TO_END] + list(DETAILS)
    header = ["workload"] + [f"{n} [{u}]" for n, u in cols]
    table = [header]
    for out in rows:
        vals = {k: v["value"] for k, v in out["result"]["metrics"].items()}
        vals.update(out["details"])
        table.append([out["details"]["workload"]]
                     + [_fmt(vals.get(n)) for n, _ in cols])
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    for r in table:
        print("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    for out in rows:
        d = out["details"]
        print(f"digest {d['workload']}: {d['digest']}")
        for failure in d["failures"]:
            print(f"failure {d['workload']}: {failure}")


def print_per_layer(rows) -> None:
    """One row per layer metric, one column per workload."""
    names = sorted({n for out in rows for n in out["result"]["metrics"]})
    header = ["metric [unit]"] + [out["details"]["workload"] for out in rows]
    table = [header]
    for n in names:
        cells = [f"{n} [{unit_of(n)}]"]
        for out in rows:
            m = out["result"]["metrics"].get(n)
            cells.append(_fmt(None if m is None else m["value"]))
        table.append(cells)
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    for r in table:
        print("  ".join(cell.ljust(w) if c == 0 else cell.rjust(w)
                        for c, (cell, w) in enumerate(zip(r, widths))))
    for out in rows:
        missing = out["details"].get("missing_wrap_points")
        if missing:
            print(f"missing wrap points {out['details']['workload']}: "
                  + ", ".join(missing))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    import workloads
    outs = {0: [], 1: []}
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"error: {name} --trace {trace} exited with "
                      f"{proc.returncode}", file=sys.stderr)
                return 1
            details = json.loads(lines[-2].removeprefix("details "))
            outs[trace].append({"result": json.loads(lines[-1]),
                                "details": details})
    print("end-to-end (tracing off)")
    print_end_to_end(outs[0])
    print()
    print("per layer (traced run, medians per op)")
    print_per_layer(outs[1])
    summary = {o["details"]["workload"]: o["result"] for o in outs[0]}
    print(json.dumps({"correct": all(r["correct"] for r in summary.values()),
                      "workloads": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_demix()
    import workloads
    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(["all", *workloads.WORKLOADS]))

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](workloads.Size(),
                                                str(workdir))
        out = measure(wl, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    if args.trace:
        print_per_layer([out])
    else:
        print_end_to_end([out])
    print("details " + json.dumps(out["details"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
