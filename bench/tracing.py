"""Per-layer spans around schrodlab's public functions, installed from outside.

Each wrapper records a span (name, start, end, parent span, tag) and, for some
layers, an amount of work read from the call's arguments or result.  The tag
is ``(pass, experiment)``, so one experiment's spans share an id.  Spans are
kept in memory and summarised when the run ends.

A wrapper replaces the function on its defining module and on every
schrodlab module that bound it with ``from .x import y`` (for example
``cli.eval_K_sigma_quadrature`` or ``estimates.apply_plan``); otherwise calls
through the second name would go uncounted.  ``numpy.fft`` is patched on the
numpy module itself, which is what schrodlab calls through; while a pass is
traced no other code calls it.

A layer's self time is its span minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import sys
import time


def _fft_amount(args, kwargs, result):
    a = args[0]
    return {"points": a.size, "bytes": a.nbytes + result.nbytes}


def _plan_amount(args, kwargs, plan):
    return {"dropped": plan.dropped_count}


def _op_norm_amount(args, kwargs, result):
    diag = result[1]
    return {"iterations": diag["iterations"],
            "not_converged": int(not diag["converged"]),
            "starts_disagree": int(not diag["starts_agree"])}


def _evolve_amount(args, kwargs, traj):
    return {"steps": traj.slices.shape[0] - 1,
            "slice_bytes": traj.slices.nbytes,
            "final_bytes": traj.final.nbytes}


def _write_amount(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, attribute, layer name, amount); "Class.method" patches the class.
TARGETS = (
    ("numpy.fft", "fft", "numpy.fft", _fft_amount),
    ("numpy.fft", "fftn", "numpy.fft", _fft_amount),
    ("numpy.fft", "ifftn", "numpy.fft", _fft_amount),
    ("schrodlab.grid", "l2_norm", "grid.l2_norm", None),
    ("schrodlab.grid", "mixed_norm", "grid.mixed_norm", None),
    ("schrodlab.grid", "hyperplane_norm", "grid.hyperplane_norm", None),
    ("schrodlab.multipliers", "plan_S", "multipliers.plan_build", _plan_amount),
    ("schrodlab.multipliers", "plan_S_nu", "multipliers.plan_build", _plan_amount),
    ("schrodlab.birman_schwinger", "_adjoint_plan", "multipliers.plan_build", _plan_amount),
    ("schrodlab.multipliers", "apply_plan", "multipliers.apply_plan", None),
    ("schrodlab.multipliers", "propagator_factor", "multipliers.propagator_factor", None),
    ("schrodlab.multipliers", "_s_panels", "multipliers.s_panels",
     lambda args, kwargs, result: {"nodes": len(result[0])}),
    ("schrodlab.birman_schwinger", "op_norm", "birman_schwinger.op_norm", _op_norm_amount),
    ("schrodlab.birman_schwinger", "apply_BS", "birman_schwinger.apply_BS", None),
    ("schrodlab.birman_schwinger", "apply_BS_adjoint", "birman_schwinger.apply_BS_adjoint", None),
    ("schrodlab.cgo", "solve_v_neumann", "cgo.solve_v_neumann",
     lambda args, kwargs, result: {"terms": result[1]["terms"]}),
    ("schrodlab.estimates", "strichartz_ratio", "estimates.strichartz_ratio", None),
    ("schrodlab.estimates", "gain_ratio", "estimates.gain_ratio", None),
    ("schrodlab.forward", "evolve", "forward.evolve", _evolve_amount),
    ("schrodlab.forward", "integral_identity_check", "forward.integral_identity_check", None),
    ("schrodlab.reconstruction", "born_sample", "reconstruction.born_sample", None),
    ("schrodlab.kernels", "eval_K_sigma_quadrature", "kernels.eval_K_sigma_quadrature", None),
    ("schrodlab.kernels", "eval_K_sigma", "kernels.eval_K_sigma", None),
    ("schrodlab.counterexample", "build_dispersion_profile",
     "counterexample.build_dispersion_profile", None),
    ("schrodlab.counterexample", "build_loglog_trace", "counterexample.trace", None),
    ("schrodlab.counterexample", "build_gaussian_trace", "counterexample.trace", None),
    ("schrodlab.counterexample", "RhoFamilyMember.mixed_norm", "counterexample.mixed_norm", None),
    ("schrodlab.counterexample", "RhoFamilyMember.bourgain_norm",
     "counterexample.bourgain_norm", None),
    ("schrodlab.counterexample", "bourgain_norm", "counterexample.bourgain_norm", None),
    ("schrodlab.reports", "write_report", "reports.write_report", _write_amount),
)

NAME, START, END, PARENT, TAG, AMOUNT = range(6)


class Tracer:
    """Installs the wrappers and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.tag = None  # (pass, experiment) while an execution runs; None records nothing
        self._open: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name, amount):
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.tag is None:
                return fn(*args, **kwargs)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.tag, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if amount is not None:
                span[AMOUNT] = amount(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name, amount in TARGETS:
            owner = importlib.import_module(module)
            *classes, leaf = attr.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            original = getattr(owner, leaf)
            wrapper = self._wrap(original, name, amount)
            self._set(owner, leaf, wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("schrodlab") and mod is not owner:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, owner, key, value) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def pass_metrics(spans, own: list[float], indices, pass_s: float, dominant) -> dict:
    """Per-layer metrics of one traced pass, from the spans at ``indices``."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    amounts: dict[str, dict[str, float]] = {}
    born_evolves = 0
    for i in indices:
        s = spans[i]
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        if s[AMOUNT]:
            acc = amounts.setdefault(name, {})
            for key, value in s[AMOUNT].items():
                acc[key] = acc.get(key, 0) + value
        if name == "forward.evolve" and s[PARENT] >= 0 \
                and spans[s[PARENT]][NAME] == "reconstruction.born_sample":
            born_evolves += 1

    def c(name):
        return calls.get(name, 0)

    def t(name):
        return self_s.get(name, 0.0)

    def a(name, key):
        return amounts.get(name, {}).get(key, 0)

    plans = c("multipliers.plan_build")
    samples = c("reconstruction.born_sample")
    return {
        "numpy.fft.calls": c("numpy.fft"),
        "numpy.fft.self_s": t("numpy.fft"),
        "numpy.fft.points": a("numpy.fft", "points"),
        "numpy.fft.bytes_computed": a("numpy.fft", "bytes"),
        "grid.l2_norm.calls": c("grid.l2_norm"),
        "grid.l2_norm.self_s": t("grid.l2_norm"),
        "grid.mixed_norm.self_s": t("grid.mixed_norm"),
        "grid.hyperplane_norm.self_s": t("grid.hyperplane_norm"),
        "multipliers.plan_build.calls": plans,
        "multipliers.plan_build.self_s": t("multipliers.plan_build"),
        "multipliers.apply_plan.calls": c("multipliers.apply_plan"),
        "multipliers.apply_plan.self_s": t("multipliers.apply_plan"),
        "multipliers.applies_per_plan": c("multipliers.apply_plan") / plans if plans else 0.0,
        "multipliers.dropped_modes": a("multipliers.plan_build", "dropped"),
        "multipliers.propagator_factor.calls": c("multipliers.propagator_factor"),
        "multipliers.propagator_factor.self_s": t("multipliers.propagator_factor"),
        "multipliers.propagator_factor.nodes": a("multipliers.s_panels", "nodes"),
        "birman_schwinger.op_norm.calls": c("birman_schwinger.op_norm"),
        "birman_schwinger.op_norm.self_s": t("birman_schwinger.op_norm"),
        "birman_schwinger.op_norm.iterations": a("birman_schwinger.op_norm", "iterations"),
        "birman_schwinger.op_norm.not_converged": a("birman_schwinger.op_norm", "not_converged"),
        "birman_schwinger.op_norm.starts_disagree":
            a("birman_schwinger.op_norm", "starts_disagree"),
        "birman_schwinger.apply_BS.calls": c("birman_schwinger.apply_BS"),
        "birman_schwinger.apply_BS.self_s": t("birman_schwinger.apply_BS"),
        "birman_schwinger.apply_BS_adjoint.calls": c("birman_schwinger.apply_BS_adjoint"),
        "cgo.solve_v_neumann.self_s": t("cgo.solve_v_neumann"),
        "cgo.neumann_terms": a("cgo.solve_v_neumann", "terms"),
        "estimates.strichartz_ratio.calls": c("estimates.strichartz_ratio"),
        "estimates.strichartz_ratio.self_s": t("estimates.strichartz_ratio"),
        "estimates.gain_ratio.calls": c("estimates.gain_ratio"),
        "estimates.gain_ratio.self_s": t("estimates.gain_ratio"),
        "forward.evolve.calls": c("forward.evolve"),
        "forward.evolve.self_s": t("forward.evolve"),
        "forward.steps": a("forward.evolve", "steps"),
        "forward.slice_bytes_stored": a("forward.evolve", "slice_bytes"),
        "forward.final_slice_bytes": a("forward.evolve", "final_bytes"),
        "forward.integral_identity_check.self_s": t("forward.integral_identity_check"),
        "reconstruction.born_sample.calls": samples,
        "reconstruction.born_sample.self_s": t("reconstruction.born_sample"),
        "reconstruction.probe_reuse_ratio": 1.0 - born_evolves / samples if samples else 0.0,
        "kernels.eval_K_sigma_quadrature.calls": c("kernels.eval_K_sigma_quadrature"),
        "kernels.eval_K_sigma_quadrature.self_s": t("kernels.eval_K_sigma_quadrature"),
        "kernels.eval_K_sigma.self_s": t("kernels.eval_K_sigma"),
        "counterexample.build_dispersion_profile.self_s":
            t("counterexample.build_dispersion_profile"),
        "counterexample.trace.self_s": t("counterexample.trace"),
        "counterexample.mixed_norm.self_s": t("counterexample.mixed_norm"),
        "counterexample.bourgain_norm.self_s": t("counterexample.bourgain_norm"),
        "reports.write_report.calls": c("reports.write_report"),
        "reports.write_report.self_s": t("reports.write_report"),
        "reports.write_report.bytes": a("reports.write_report", "bytes"),
        "trace.dominant_share": dominant_time(spans, indices, dominant) / pass_s,
    }


def summarise(tracer: Tracer, pass_times: list[float], dominant) -> dict:
    """Median over traced passes of each per-pass layer metric."""
    own = self_times(tracer.spans)
    by_pass: dict[int, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        by_pass.setdefault(s[TAG][0], []).append(i)
    rows = [pass_metrics(tracer.spans, own, by_pass[p], pass_s, dominant)
            for p, pass_s in zip(sorted(by_pass), pass_times)]
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


def dominant_time(spans, indices, names) -> float:
    """Wall time inside spans named in ``names``, nested ones counted once."""
    total = 0.0
    for i in indices:
        s = spans[i]
        if s[NAME] not in names:
            continue
        parent = s[PARENT]
        while parent >= 0 and spans[parent][NAME] not in names:
            parent = spans[parent][PARENT]
        if parent < 0:
            total += s[END] - s[START]
    return total
