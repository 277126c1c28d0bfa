"""Benchmark of the stacklq CLI: solve, simulate and verify as users run them.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...     # every workload, one process each

Run from a checkout: the program is imported from `src/` next to this
directory, and nothing else.  The workload seed draws the spec JSON and the
CLI `--seed`; commands go through `stacklq.cli.main(argv)` in this process,
single-threaded, and are repeated until the next one would overrun
`--seconds` (at least one runs).  Each command's outputs are checked.

With `--trace 0` the last stdout line carries the end-to-end metrics
(cmd_s, setup_s, peak_rss_mb); with `--trace 1` it carries the per-layer
metrics of traced commands, which alternate with untraced ones to give
`trace.overhead_frac`.  The lines before it print the end-to-end figures by
name and unit (all five with `--trace 0`, including ops_failed_frac and
checks_failed) and the outcome of every command.  Work files go to
`.bench_run/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_run"
BLAS_THREADS = "1"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120


class ProgramMissing(Exception):
    """The checkout holds no stacklq source to benchmark."""


def import_program():
    """Import stacklq from the checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "stacklq" / "__init__.py").is_file():
        raise ProgramMissing(f"no stacklq package under {src}")
    sys.path.insert(0, str(src))
    import stacklq
    import stacklq.cli
    if Path(stacklq.__file__).resolve().parent != (src / "stacklq").resolve():
        raise ProgramMissing(f"stacklq imported from {stacklq.__file__}, not {src}")
    return stacklq


def run_command(stacklq, wl, spec_path: Path, out: Path, tracer=None,
                command_id: int = 0) -> dict:
    """One CLI command plus its output checks."""
    from workloads import CheckFailed
    shutil.rmtree(out, ignore_errors=True)
    gc.collect()  # every command starts from a collected heap
    sink = io.StringIO()
    code, error = None, None
    span = tracer.begin_command(command_id) if tracer else None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = stacklq.cli.main(wl.argv(spec_path, out))
    except SystemExit as exc:                    # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a measured outcome, not a bench error
        error = f"{type(exc).__name__}: {exc}"
    finally:
        seconds = time.perf_counter() - start
        if tracer:
            tracer.close(span)
    rec = {"id": command_id, "seconds": seconds, "failed": True, "wrong": False,
           "checks_failed": None,
           "out_bytes": sum(f.stat().st_size for f in out.rglob("*") if f.is_file())
           if out.is_dir() else 0}
    if error is not None:
        rec["outcome"] = error
    elif code not in wl.ok_codes:
        rec["outcome"] = f"exit {code}"
    else:
        try:
            rec["checks_failed"] = wl.check(out)
            rec["outcome"] = "ok" if code == 0 else f"exit {code}"
            rec["failed"] = False
        except CheckFailed as exc:
            rec["outcome"] = f"wrong output: {exc}"
            rec["wrong"] = True
    return rec


def traced_command(stacklq, wl, spec_path, out, tracer, command_id) -> dict:
    """One command with the tracer's wrappers installed for its duration."""
    tracer.install(stacklq)
    try:
        return run_command(stacklq, wl, spec_path, out, tracer, command_id)
    finally:
        tracer.uninstall()


def repeat(stacklq, wl, spec_path, out, budget_s):
    """Commands until the next one, at the median pace, would overrun."""
    records, start = [], time.perf_counter()
    while True:
        records.append(run_command(stacklq, wl, spec_path, out,
                                   command_id=len(records)))
        pace = statistics.median(r["seconds"] for r in records)
        if time.perf_counter() - start + pace > budget_s:
            return records


def setup_probe(workload: str, seed: int) -> float:
    """Seconds to import stacklq, then build and validate the workload spec."""
    start = time.perf_counter()
    stacklq = import_program()
    import workloads
    wl = workloads.make(workload, seed)
    path = WORK / workload / f"setup-{os.getpid()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(wl.spec))
    report = stacklq.validate_spec(stacklq.load_spec(path))
    seconds = time.perf_counter() - start
    path.unlink()
    if not report.valid:
        raise ValueError(f"generated {workload} spec is invalid: {report}")
    return seconds


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def metric(value, unit):
    return {"value": value, "unit": unit}


def summarize(records):
    failed = sum(r["failed"] for r in records)
    reports = [r["checks_failed"] for r in records if r["checks_failed"] is not None]
    return {"attempted": len(records), "failed": failed,
            "ops_failed_frac": failed / len(records),
            "checks_failed": statistics.median(reports) if reports else 0,
            "correct": not any(r["wrong"] for r in records),
            "outcomes": Counter(r["outcome"] for r in records)}


def end_to_end(stacklq, wl, spec_path, out, args):
    setup_s = measure_setup(args.workload, args.seed)
    records = repeat(stacklq, wl, spec_path, out, args.seconds)
    return records, {
        "cmd_s": metric(statistics.median(r["seconds"] for r in records), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(stacklq, wl, spec_path, out, args):
    """Untraced and traced commands alternate; trace.overhead_frac compares
    their medians.  Spans go to .bench_run/<workload>/spans-seed<n>.json."""
    import tracer as tracing
    start = time.perf_counter()
    tr = tracing.Tracer()
    records, traced, untraced = [], [], []
    while True:
        untraced.append(run_command(stacklq, wl, spec_path, out,
                                    command_id=len(records)))
        records.append(untraced[-1])
        traced.append(traced_command(stacklq, wl, spec_path, out, tr,
                                     len(records)))
        records.append(traced[-1])
        pace = statistics.median(r["seconds"] for r in records)
        if time.perf_counter() - start + 2 * pace > args.seconds:
            break
    summary = summarize(records)
    figures = [tr.command_figures(r["id"]) | {"cli.out_bytes": r["out_bytes"]}
               for r in traced]
    values = tracing.median_figures(figures)
    metrics = {k: metric(values[k], unit)
               for k, unit in tracing.PER_LAYER_UNITS.items()}
    traced_s = statistics.median(r["seconds"] for r in traced)
    untraced_s = statistics.median(r["seconds"] for r in untraced)
    metrics["trace.overhead_frac"] = metric(traced_s / untraced_s - 1.0, "ratio")
    metrics["ops_failed_frac"] = metric(summary["ops_failed_frac"], "ratio")
    metrics["checks_failed"] = metric(summary["checks_failed"], "count")
    (spec_path.parent / f"spans-seed{args.seed}.json").write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "command"],
         "outcomes": [r["outcome"] for r in records], "spans": tr.spans}))
    return records, metrics


def run_workload(args) -> dict:
    stacklq = import_program()
    import workloads
    wl = workloads.make(args.workload, args.seed)
    work = WORK / args.workload
    work.mkdir(parents=True, exist_ok=True)
    spec_path, out = work / "spec.json", work / "out"
    spec_path.write_text(json.dumps(wl.spec))
    measure = per_layer if args.trace else end_to_end
    try:
        records, metrics = measure(stacklq, wl, spec_path, out, args)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return {"workload": args.workload, "summary": summarize(records),
            "metrics": metrics}


def print_result(result) -> None:
    s, m = result["summary"], result["metrics"]
    figures = {k: m[k] for k in ("cmd_s", "setup_s", "peak_rss_mb") if k in m}
    figures["ops_failed_frac"] = metric(s["ops_failed_frac"], "ratio")
    figures["checks_failed"] = metric(s["checks_failed"], "count")
    print(f"{result['workload']}: " + "  ".join(
        f"{k}={v['value']:.6g} {v['unit']}" for k, v in figures.items()))
    print(f"  commands: {s['attempted']}, failed: {s['failed']}; outcomes: "
          + "; ".join(f"{o} x{c}" for o, c in s["outcomes"].items()))
    print(f"  blas threads: {os.environ.get('OPENBLAS_NUM_THREADS')}, "
          f"nproc: {os.cpu_count()}, python: {sys.version.split()[0]}")
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": m}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(BENCH))
    try:
        if args.workload == "all":
            import workloads
            codes = [subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                     "--workload", name, "--seed", str(args.seed),
                                     "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)]).returncode
                     for name in workloads.NAMES]
            return max(codes)
        if args.setup_probe:
            print(setup_probe(args.workload, args.seed))
            return 0
        print_result(run_workload(args))
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
