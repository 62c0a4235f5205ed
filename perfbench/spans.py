"""In-memory span tracer that wraps the library's public functions from outside.

`Tracer.installed()` replaces each traced function, wherever a module of the
package holds a reference to it, by a wrapper that records a span (name,
duration, time covered by child spans) and restores every original on exit.
Spans are aggregated by name in memory; nothing is written while tracing.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# where an eigendecomposition happens, by the innermost sdp function on the stack
_SDP_ROLES = {
    "_certificate_from_gap": "certificate",
    "_functional_margins": "certificate",
    "_dual_shifted": "checks",
    "_feasibility_phase": "phase",
    "_trace_min": "admm",
    "rank_reduce": "rank_reduce",
}
EIG_ROLES = ("prephase", "rerun", "admm", "checks", "certificate", "rank_reduce", "outside")
MAX_DEGREE = 10


class Tracer:
    def __init__(self):
        self.enabled = True
        self.stack: list[list] = []          # [name, child seconds]
        self.total: defaultdict[str, float] = defaultdict(float)
        self.child: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []
        self._phase_frame = None
        self._phase_role = ""

    # -- spans ----------------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """`fn` inside a span; `before(args)` and `after(args, out, exc, dt)` hook counts.

        A call made directly inside a span of the same name (approximate_sphere
        calling approximate, to_json calling to_dict) belongs to that span.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or (tracer.stack and tracer.stack[-1][0] == name):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            frame = [name, 0.0]
            tracer.stack.append(frame)
            out = exc = None
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                exc = err
                raise
            finally:
                dt = time.perf_counter() - t0
                tracer.stack.pop()
                tracer.total[name] += dt
                tracer.child[name] += frame[1]
                tracer.calls[name] += 1
                if tracer.stack:
                    tracer.stack[-1][1] += dt
                if after is not None:
                    after(args, out, exc, dt)

        traced.__wrapped_original__ = fn
        return traced

    def self_seconds(self, name: str) -> float:
        return self.total[name] - self.child[name]

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    @contextlib.contextmanager
    def paused(self):
        """Run the benchmark's own checks without recording them."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    # -- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, original, new) -> None:
        """Replace `original` in every loaded module of the package that holds it."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "sos_approx" or mod_name.startswith("sos_approx.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, attr, new)

    def install(self) -> None:
        from sos_approx import approx, cli, gram, linalg, poly, sdp

        self._patch_function(cli.main, self.wrap("cli.main", cli.main))
        self._patch(poly.Polynomial, "__mul__",
                    self.wrap("poly.mul", poly.Polynomial.__mul__))
        self._patch(poly.Polynomial, "evaluate_batch",
                    self.wrap("poly.evaluate_batch", poly.Polynomial.evaluate_batch,
                              before=self._count_sphere_points))
        for fn in (poly.to_dict, poly.from_dict, poly.to_json, poly.from_json):
            self._patch_function(fn, self.wrap("poly.json", fn))
        self._patch_function(gram.build_constraints,
                             self.wrap("gram.build_constraints", gram.build_constraints))
        self._patch_function(gram.gram_map, self.wrap("gram.gram_map", gram.gram_map))
        for attr in ("apply", "adjoint", "solve_normal"):
            self._patch(gram.GramConstraints, attr,
                        self.wrap("gram.affine", getattr(gram.GramConstraints, attr)))
        self._patch_function(linalg.eig_hermitian,
                             self.wrap("linalg.eig", linalg.eig_hermitian, before=self._count_eig))
        self._patch(np.linalg, "eigh", self.wrap("linalg.lapack", np.linalg.eigh))
        for fn in (sdp.sos_norm, sdp.sos_feasible):
            self._patch_function(fn, self.wrap("sdp.solve", fn, after=self._count_solve))
        self._patch_function(sdp.rank_reduce, self.wrap("sdp.rank_reduce", sdp.rank_reduce))
        for fn in (approx.approximate, approx.approximate_free, approx.approximate_sphere,
                   approx.pythagoras_upper_bound):
            self._patch_function(fn, self.wrap("approx", fn, after=self._count_squares))
        self._patch(approx.SosCertificate, "verify",
                    self.wrap("verify.certificate", approx.SosCertificate.verify))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._phase_frame = None

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- counters -------------------------------------------------------------

    def _count_eig(self, args) -> None:
        self.counts["eig.work_d3"] += int(np.shape(args[0])[0]) ** 3
        self.counts["eig_steps." + self._eig_role(sys._getframe(2))] += 1

    def _eig_role(self, frame) -> str:
        while frame is not None:
            role = _SDP_ROLES.get(frame.f_code.co_name)
            if role is not None and frame.f_globals.get("__name__") == "sos_approx.sdp":
                return self._phase_of(frame) if role == "phase" else role
            frame = frame.f_back
        return "outside"

    def _phase_of(self, frame) -> str:
        """Alternating projections: the warm-start pre-phase, or the re-run after the cap."""
        if frame is not self._phase_frame:
            caller = frame.f_back
            rerun = caller.f_code.co_name == "sos_norm" and "sol" in caller.f_locals
            self._phase_frame = frame
            self._phase_role = "rerun" if rerun else "prephase"
        return self._phase_role

    def _count_solve(self, args, out, exc, dt) -> None:
        from sos_approx.sdp import SolverError

        degree = args[1].degree
        if isinstance(exc, SolverError):
            status, iterations, certified = "max_iter", 0, False
        elif exc is not None:
            status, iterations, certified = "error", 0, False
        elif isinstance(out, tuple):                       # sos_norm -> (value, SdpSolution)
            sol = out[1]
            status = sol.status.value.replace("-", "_")
            iterations = sol.iterations
            certified = sol.certificate is not None
        else:                                              # sos_feasible -> FeasibilityResult
            status = "optimal" if out.feasible else "infeasible"
            iterations = out.iterations
            certified = out.certificate is not None
        self.counts["status." + status] += 1
        if status == "optimal" or (status == "infeasible" and certified):
            self.counts["conclusive"] += 1
        self.counts["iterations_reported"] += iterations
        self.counts[f"iterations.d{degree}"] += iterations
        self.seconds[f"solve_s.d{degree}"] += dt

    def _count_squares(self, args, out, exc, dt) -> None:
        if out is None:
            return
        self.counts["squares"] += getattr(out, "rank", None) or getattr(out, "count", 0)

    def _count_sphere_points(self, args) -> None:
        if self.inside("verify.certificate"):
            self.counts["sphere_points"] += int(np.shape(args[1])[0])

    # -- report ---------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics by name, each (value, unit)."""
        c, s = self.counts, self.seconds
        eig_s = self.total["linalg.eig"]
        sdp_steps = sum(c["eig_steps." + r] for r in EIG_ROLES if r != "outside")
        solves = self.calls["sdp.solve"]
        out = {
            "linalg.eig.calls": (self.calls["linalg.eig"], "count"),
            "linalg.eig.s": (eig_s, "s"),
            "linalg.eig.lapack_s": (self.total["linalg.lapack"], "s"),
            "linalg.eig.work_d3": (c["eig.work_d3"], "count"),
            "linalg.eig.wrapper_share": (
                (eig_s - self.total["linalg.lapack"]) / eig_s if eig_s else 0.0, "ratio"),
            "sdp.solve.calls": (solves, "count"),
            "sdp.solve.s": (self.total["sdp.solve"], "s"),
            "sdp.solve.self_s": (self.self_seconds("sdp.solve"), "s"),
            "sdp.iterations_reported": (c["iterations_reported"], "count"),
        }
        for role in EIG_ROLES:
            out["sdp.eig_steps." + role] = (c["eig_steps." + role], "count")
        out["sdp.eig_steps.total"] = (sdp_steps, "count")
        phase = c["eig_steps.prephase"] + c["eig_steps.rerun"]
        out["sdp.prephase_share"] = (phase / sdp_steps if sdp_steps else 0.0, "ratio")
        for status in ("optimal", "infeasible", "max_iter"):
            out["sdp.status." + status] = (c["status." + status], "count")
        out["sdp.conclusive_ratio"] = (c["conclusive"] / solves if solves else 0.0, "ratio")
        out["sdp.rank_reduce.calls"] = (self.calls["sdp.rank_reduce"], "count")
        out["sdp.rank_reduce.s"] = (self.total["sdp.rank_reduce"], "s")
        for d in range(1, MAX_DEGREE + 1):
            out[f"sdp.iterations.d{d}"] = (c[f"iterations.d{d}"], "count")
        for d in range(1, MAX_DEGREE + 1):
            out[f"sdp.solve_s.d{d}"] = (s[f"solve_s.d{d}"], "s")
        out.update({
            "gram.affine.calls": (self.calls["gram.affine"], "count"),
            "gram.affine.s": (self.total["gram.affine"], "s"),
            "gram.build_constraints.calls": (self.calls["gram.build_constraints"], "count"),
            "gram.build_constraints.s": (self.total["gram.build_constraints"], "s"),
            "gram.gram_map.calls": (self.calls["gram.gram_map"], "count"),
            "gram.gram_map.s": (self.total["gram.gram_map"], "s"),
            "poly.mul.calls": (self.calls["poly.mul"], "count"),
            "poly.mul.s": (self.total["poly.mul"], "s"),
            "poly.evaluate_batch.calls": (self.calls["poly.evaluate_batch"], "count"),
            "poly.evaluate_batch.s": (self.total["poly.evaluate_batch"], "s"),
            "poly.json.s": (self.total["poly.json"], "s"),
            "approx.calls": (self.calls["approx"], "count"),
            "approx.self_s": (self.self_seconds("approx"), "s"),
            "approx.squares_total": (c["squares"], "count"),
            "verify.certificate.s": (self.total["verify.certificate"], "s"),
            "verify.sphere_points": (c["sphere_points"], "count"),
            "cli.main.calls": (self.calls["cli.main"], "count"),
            "cli.main.self_s": (self.self_seconds("cli.main"), "s"),
        })
        return out
