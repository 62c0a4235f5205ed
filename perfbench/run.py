"""Benchmark of sos-approx: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 perfbench/run.py --workload figure|certify|reject --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S
    python3 perfbench/run.py --workload certify --seed 1 --seconds 1 --trace 0 --tiny
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the library is imported from its `src/`.
One client in one process drives the library in a closed loop: the next op
starts when the previous one returns. A request is what a user waits for (a
whole figure, a screening of forms, one certificate); its latency is the sum
of its ops' times. Every op's output is checked outside the timed region.
`--trace 0` runs as many passes over the workload as fill about `--seconds`
at the typical pass time in PASS_SECONDS (at least one; a count fixed by the
arguments, so a seed always attempts the same ops) and reports the
end-to-end metrics. The bounded latency, request_p50_ref_ms, is the median
request latency at the reference machine speed of calibrate.py, because this
class of shared VM drifts by up to 2x in speed between runs; the latencies as
measured print beside it.
`--trace 1` runs one untraced and then one traced pass and reports the
per-layer metrics and the tracing overhead. Human-readable lines come first:
the environment and per-kind latencies (`report`), the metrics BENCHMARK.json
bounds (`metric`), and figures that are zero or undefined on some workload
or not steady across runs, and so are reported unbounded (`also`: wall_s,
request_p50_ms and op_p50_ms as measured, p90/p99 of requests and ops where
at least ten samples lie beyond them, fail_ratio, squares_total, and the
median calibration kernel time). The last line of standard
output is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`; `correct` is false when any op returned a wrong answer, and
`failed` counts every op that did not end "ok".
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WRONG = ("wrong", "missed_rejection")
SETUP_REPEATS = 5
# seconds of one untraced pass on a 2-vCPU x86-64 VM in its slower phases
PASS_SECONDS = {"figure": 25.0, "certify": 13.0, "reject": 35.0}
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import sos_approx, sos_approx.cli; print(repr(time.perf_counter() - t))")


def load_library():
    if not (SRC / "sos_approx" / "__init__.py").is_file():
        raise SystemExit(f"error: no library sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import sos_approx
    if Path(sos_approx.__file__).resolve().parent != SRC / "sos_approx":
        raise SystemExit(f"error: imported sos_approx from {sos_approx.__file__}, not from {SRC}")


def measure_setup(repeats: int = SETUP_REPEATS) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing the package and its CLI,
    and the median in-process import time; the first, cache-filling try is dropped."""
    walls, imports = [], []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                              capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        if i:
            walls.append(wall)
            imports.append(float(done.stdout.strip()))
    return statistics.median(walls), statistics.median(imports)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded by numpy, read through its own API."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def run_pass(ops, tracer=None, calibrator=None) -> list[tuple[str, float, str, int, int, float]]:
    """One closed-loop pass: (kind, seconds, outcome, squares, request, seconds at
    reference speed) per op; checks run untimed. Without a calibrator the last
    two times are equal."""
    records = []
    for op in ops:
        first = len(calibrator.samples) if calibrator is not None else 0
        t0 = time.perf_counter()
        try:
            outcome, payload = op.run()
        except Exception:                       # an op must not end the run; it counts as failed
            traceback.print_exc(file=sys.stderr)
            outcome, payload = "error", None
        t1 = time.perf_counter()
        dt, ref_dt = calibrator.op_times(first, t0, t1) if calibrator is not None else (t1 - t0,) * 2
        squares = 0
        if outcome == "ok":
            with tracer.paused() if tracer is not None else contextlib.nullcontext():
                outcome = op.check(payload)
                squares = op.squares(payload) if outcome == "ok" else 0
        records.append((op.kind, dt, outcome, squares, op.request, ref_dt))
    return records


def percentile_report(times: list[float]) -> dict:
    """Median, and the highest of p90/p99 with at least ten samples beyond it."""
    out = {"n": len(times), "p50_ms": 1e3 * statistics.median(times)}
    for q, need in ((99, 1000), (90, 100)):
        if len(times) >= need:
            out[f"p{q}_ms"] = 1e3 * statistics.quantiles(times, n=100)[q - 1]
            break
    return out


def summarize(passes: list[list]) -> dict:
    records = [r for p in passes for r in p]
    by_kind = defaultdict(list)
    ref_by_kind = defaultdict(list)
    outcomes_by_kind = defaultdict(Counter)
    for kind, dt, outcome, _, _, ref_dt in records:
        by_kind[kind].append(dt)
        ref_by_kind[kind].append(ref_dt)
        outcomes_by_kind[kind][outcome] += 1
    kinds = {k: {**percentile_report(v), "ref_p50_ms": 1e3 * statistics.median(ref_by_kind[k]),
                 "outcomes": dict(outcomes_by_kind[k])}
             for k, v in sorted(by_kind.items())}
    outcomes = Counter(r[2] for r in records)
    return {
        "attempted": len(records),
        "failed": len(records) - outcomes["ok"],
        "correct": not any(outcomes[w] for w in WRONG),
        "outcomes": dict(outcomes),
        "ops": percentile_report([r[1] for r in records]),
        "requests": percentile_report([t for p in passes for t in request_seconds(p).values()]),
        "requests_ref": percentile_report([t for p in passes for t in request_seconds(p, 5).values()]),
        "pass_s": [sum(r[1] for r in p) for p in passes],
        "squares_per_pass": [sum(r[3] for r in p) for p in passes],
        "kinds": kinds,
    }


def request_seconds(records, field: int = 1) -> dict[int, float]:
    """Latency of each request in one pass: the sum of its ops' times (field 1),
    or of their times at reference speed (field 5)."""
    out: defaultdict[int, float] = defaultdict(float)
    for r in records:
        out[r[4]] += r[field]
    return out


def pass_count(workload: str, seconds: float) -> int:
    """Passes that fill about `seconds`, fixed by the arguments alone so that the
    same arguments always attempt the same ops; always at least one."""
    return max(1, round(seconds / PASS_SECONDS[workload]))


def leftover_wrappers() -> list[str]:
    """Names in the library (and numpy.linalg) still bound to a tracing wrapper."""
    import numpy as np
    from sos_approx import approx, gram, poly

    owners = [m for name, m in list(sys.modules.items())
              if m is not None and (name == "sos_approx" or name.startswith("sos_approx."))]
    owners += [np.linalg, poly.Polynomial, gram.GramConstraints, approx.SosCertificate]
    return [f"{getattr(o, '__name__', o)}.{attr}" for o in owners
            for attr, value in list(vars(o).items()) if hasattr(value, "__wrapped_original__")]


def load_references() -> dict:
    with open(HERE / "seed_commit.json", encoding="utf-8") as fh:
        return json.load(fh)


def execute(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
            references: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (report, result) where result is the contract's JSON object."""
    import workloads
    from calibrate import Calibrator
    from spans import Tracer

    references = references or load_references()
    setup_s, import_s = measure_setup(2 if tiny else SETUP_REPEATS)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run_pass(workloads.build(workload, seed, workdir, references["figure"], tiny=True))  # warm-up
        ops = workloads.build(workload, seed, workdir, references["figure"], tiny)
        if leftover_wrappers():
            raise RuntimeError(f"tracing wrappers left installed: {leftover_wrappers()}")
        if not trace:
            calibrator = Calibrator()
            with calibrator.running():
                passes = [run_pass(ops, calibrator=calibrator)
                          for _ in range(1 if tiny else pass_count(workload, seconds))]
        else:
            tracer = Tracer()
            untraced = run_pass(ops)
            with tracer.installed():
                traced = run_pass(ops, tracer)
            passes = [untraced, traced]
            if leftover_wrappers():
                raise RuntimeError(f"tracing wrappers left installed: {leftover_wrappers()}")
        summary = summarize(passes)
        also = {"fail_ratio": (summary["failed"] / summary["attempted"], "ratio")}
        if not trace:
            also["wall_s"] = (statistics.median(summary["pass_s"]), "s")
            also["squares_total"] = (summary["squares_per_pass"][0], "count")
            also["calibration.kernel_ms"] = (1e3 * calibrator.kernel_seconds(), "ms")
            for group in ("requests", "ops"):
                for key in ("p50_ms", "p90_ms", "p99_ms"):
                    if key in summary[group]:
                        also[f"{group[:-1]}_{key}"] = (summary[group][key], "ms")
            metrics = {
                "request_p50_ref_ms": (summary["requests_ref"]["p50_ms"], "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        else:
            plain, with_spans = summary["pass_s"]
            metrics = {"setup.import_s": (import_s, "s"),
                       "trace.overhead_s": (with_spans - plain, "s"),
                       "trace.overhead_share": ((with_spans - plain) / plain, "ratio"),
                       **tracer.metrics()}
            if workload == "figure" and not tiny:
                also["iterations_match_seed_commit"] = (int(all(
                    metrics[f"sdp.iterations.d{d}"][0] == row["iterations"]
                    for d, row in references["figure"].items())), "bool")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report = {"workload": workload, "trace": int(trace), "tiny": tiny, "seconds": seconds,
              "environment": environment(seed), "summary": summary,
              "also": {name: {"value": value, "unit": unit} for name, (value, unit) in also.items()}}
    result = {"correct": summary["correct"], "attempted": summary["attempted"],
              "failed": summary["failed"],
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    return report, result


def print_result(report: dict, result: dict) -> None:
    print("report " + json.dumps(report, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    for name, m in report["also"].items():
        print(f"also   {name} = {m['value']!r} {m['unit']}")
    print(f"outcomes {report['summary']['outcomes']}")
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("figure", "certify", "reject", "all"),
                        help="'all' runs every workload untraced and then traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for trying the harness")
    parser.add_argument("--self-test", action="store_true", help="check the benchmark itself")
    args = parser.parse_args(argv)
    load_library()
    sys.path.insert(0, str(HERE))
    if args.self_test:
        import selftest
        return selftest.run(execute, load_references())
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        runs = [(w, trace) for w in ("figure", "certify", "reject") for trace in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    for workload, trace in runs:
        report, result = execute(workload, args.seed, args.seconds, trace, args.tiny)
        print_result(report, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
