"""Self-test of the benchmark: metric names and units, doctored outputs, wrapper removal.

Run as `python3 perfbench/run.py --self-test`; prints one PASS/FAIL line per
check and exits 1 if any fails.
"""

from __future__ import annotations

import copy
import json
import signal
import tempfile
import time

import numpy as np

import workloads
from calibrate import PERIOD_S, Calibrator
from run import ROOT, leftover_wrappers, run_pass, summarize
from spans import Tracer


def _declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _metric_names(execute, references) -> list[tuple[str, bool, str]]:
    """Every declared metric is printed, with its declared unit, in tiny mode."""
    declared = _declared_metrics()
    results = []
    for workload in workloads.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            report, result = execute(workload, 7, 0.0, trace, True, references)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            missing = sorted(set(declared[group]) - set(got))
            wrong_unit = sorted(n for n in declared[group] if n in got and got[n] != declared[group][n])
            undeclared = sorted(set(got) - set(declared[group]))
            ok = result["correct"] and not (missing or wrong_unit or undeclared)
            results.append((f"tiny {workload} trace={int(trace)} prints every {group} metric", ok,
                            f"missing {missing}, wrong unit {wrong_unit}, undeclared {undeclared}, "
                            f"correct {result['correct']}"))
    return results


def _doctored(references) -> list[tuple[str, bool, str]]:
    results = []
    # a figure reference value moved by 1e-4 relative: the row must count as wrong
    bad = copy.deepcopy(references["figure"])
    bad["2"]["value"] *= 1.0 + 1e-4
    summary = summarize([run_pass(workloads.figure_ops(bad, [2]))])
    results.append(("doctored figure reference counts as a failed, incorrect op",
                    summary["failed"] == 1 and not summary["correct"], str(summary["outcomes"])))

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        ops = workloads.certify_ops(11, 1, workdir)
        sphere, free = ops[0], ops[1]
        for op, label in ((sphere, "sphere"), (free, "free")):
            outcome, payload = op.run()
            honest = op.check(payload) if outcome == "ok" else outcome
            path = f"{workdir}/{'s0' if label == 'sphere' else 'f0'}.cert.json"
            with open(path, encoding="utf-8") as fh:
                cert = json.load(fh)
            cert["squares"][0][0][0] *= 1.01          # one coefficient of one square
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(cert, fh)
            doctored = op.check(payload)
            results.append((f"doctored {label} certificate counts as wrong",
                            honest == "ok" and doctored == "wrong", f"honest {honest}, doctored {doctored}"))

    op = workloads._reject_op("reject.choi_lam", {t: complex(c) for t, c in workloads.CHOI_LAM_S.items()})
    outcome, certificate = op.run()
    honest = op.check(certificate) if outcome == "ok" else outcome
    certificate.values = -np.asarray(certificate.values)  # flips the sign of targets . y
    doctored = op.check(certificate)
    results.append(("doctored Farkas certificate counts as wrong",
                    honest == "ok" and doctored == "wrong", f"honest {honest}, doctored {doctored}"))
    return results


def _wrappers_removed(references) -> list[tuple[str, bool, str]]:
    from sos_approx import linalg, sdp

    originals = (sdp.sos_norm, linalg.eig_hermitian, np.linalg.eigh)
    tracer = Tracer()
    with tracer.installed():
        installed = leftover_wrappers()
        run_pass(workloads.figure_ops(references["figure"], [1, 2]), tracer)
    left = leftover_wrappers()
    restored = (sdp.sos_norm, linalg.eig_hermitian, np.linalg.eigh) == originals
    return [("tracing wrappers are installed while tracing", bool(installed), f"{len(installed)} wrapped"),
            ("tracing wrappers are fully removed afterwards", not left and restored, f"left {left}"),
            ("traced pass recorded eigendecompositions", tracer.calls["linalg.eig"] > 0,
             f"{tracer.calls['linalg.eig']} calls")]


def _calibration() -> list[tuple[str, bool, str]]:
    """Kernel time is taken out of the op it interrupts, and the timer is gone afterwards.
    The op sleeps to a deadline, so its time less the kernel's is below the sleep."""
    before = signal.getsignal(signal.SIGALRM)
    calibrator = Calibrator()
    with calibrator.running():
        records = run_pass([workloads.Op("sleep", lambda: (time.sleep(5 * PERIOD_S), ("ok", None))[1],
                                         lambda _: "ok")], calibrator=calibrator)
    inside = len(calibrator.samples) - 1
    seconds = records[0][1]
    restored = signal.getsignal(signal.SIGALRM) == before and signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    return [("calibration samples during an op and is taken out of its time",
             inside >= 3 and 4.5 * PERIOD_S < seconds < 5 * PERIOD_S,
             f"{inside} samples, op {seconds:.4f} s for a {5 * PERIOD_S} s sleep"),
            ("calibration timer and handler are removed afterwards", restored,
             f"itimer {signal.getitimer(signal.ITIMER_REAL)}")]


def run(execute, references) -> int:
    results = (_wrappers_removed(references) + _calibration() + _doctored(references)
               + _metric_names(execute, references))
    for name, ok, detail in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    failed = [name for name, ok, _ in results if not ok]
    print(f"self-test: {len(results) - len(failed)}/{len(results)} passed")
    return 1 if failed else 0
