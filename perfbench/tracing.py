"""In-memory span tracer for the benchmark's traced runs.

Tracer.install() wraps the public entry points of psector's modules from the
outside and uninstall() puts the originals back.  Each reference to an entry
point held by another psector module or by the benchmark's own modules is
replaced by the wrapper; so is a method's class attribute.  The defining
module keeps its own reference when its code calls the function itself, so
the root finders and helpers a layer calls internally run at full speed.  A
span is recorded where a call crosses from one layer into another, as the
list [name, layer, start, end, parent index, op id].  Counts are taken at the
same boundaries; layer_metrics() derives the per-layer metrics from both.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

# layer (the module's name, psector._kernels being "_kernels") -> entry points;
# "Class.method" wraps a method
ENTRY_POINTS = {
    "cli": ["main"],
    "verify": ["run_suites", "exponent_suite", "profile_suite", "pde_suite",
               "measure_suite", "stream_suite", "phragmen_suite"],
    "experiments": ["run_exponent_table", "run_measure_experiment", "run_growth_bounds",
                    "run_phragmen_check", "run_stream_consistency",
                    "ExperimentReport.write_json", "ExperimentReport.write_csv"],
    "measure": ["solve_measure", "fit_slope", "comparability_constants",
                "mc_harmonic_measure", "write_summary_json",
                "MeasureSolution.to_csv", "MeasureSolution.ray_values"],
    "_kernels": ["sor_sweep"],
    "profile": ["build_profile", "stream_conjugate", "write_profile_csv",
                "read_profile_csv", "theta_of_phi", "phi_of_theta", "eval_u",
                "eval_u_exact"],
    "pde": ["polar_residual_report", "separation_report"],
    "exponent": ["radial_exponent", "radial_exponent_inf", "radial_exponent_roots",
                 "conjugate_exponent", "dk_dnu", "dk_dp", "exponent_condition_residual"],
}

# Computed from array sizes, per interior node and sweep: 4 multiplies and 3
# adds for the neighbour sum, 3 adds for the diagonal, then a divide, subtract,
# multiply and add for the relaxed update.  Bytes: the four coefficients and u
# read once and u written once, 8 bytes each, neighbours assumed in cache.
FLOP_PER_NODE = 14
BYTES_PER_NODE = 48

POST = ("measure.fit_slope", "measure.comparability_constants",
        "measure.MeasureSolution.ray_values")
MEASURE_WRITE = ("measure.MeasureSolution.to_csv", "measure.write_summary_json")
REPORT_WRITE = ("experiments.ExperimentReport.write_json",
                "experiments.ExperimentReport.write_csv")
PDE_REPORTS = ("pde.polar_residual_report", "pde.separation_report")


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _count_sweep(tracer, fn, args, kwargs, result):
    shape = args[0].shape
    tracer.counts["sweep_nodes"] += (shape[0] - 2) * (shape[1] - 2)


def _count_solve(tracer, fn, args, kwargs, result):
    tracer.counts["picard_cycles"] += result.iterations
    tracer.counts["converged_solves"] += bool(result.converged)
    seen = tracer.solved[tracer.op]
    if result.problem in seen:
        tracer.counts["redundant_solves"] += 1
    seen.append(result.problem)


def _count_walks(tracer, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    tracer.counts["mc_walks"] += bound["n_walks"] * len(bound["points"])


def _count_bytes(key):
    def hook(tracer, fn, args, kwargs, result):
        tracer.counts[key] += os.path.getsize(_bound(fn, args, kwargs)["path"])
    return hook


HOOKS = {
    "_kernels.sor_sweep": _count_sweep,
    "measure.solve_measure": _count_solve,
    "measure.mc_harmonic_measure": _count_walks,
    "measure.MeasureSolution.to_csv": _count_bytes("measure_write_bytes"),
    "measure.write_summary_json": _count_bytes("measure_write_bytes"),
    "experiments.ExperimentReport.write_json": _count_bytes("report_write_bytes"),
    "experiments.ExperimentReport.write_csv": _count_bytes("report_write_bytes"),
    "profile.write_profile_csv": _count_bytes("profile_write_bytes"),
}


def _names_used(module) -> set:
    """Global and attribute names referred to by the module's own code."""
    codes = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        for m in members:
            fn = getattr(m, "__func__", None) or getattr(m, "fget", None) or m
            if inspect.isfunction(fn):
                codes.append(fn.__code__)
    names = set()
    while codes:
        code = codes.pop()
        names.update(code.co_names)
        codes += [c for c in code.co_consts if inspect.iscode(c)]
    return names


class Tracer:
    def __init__(self, callers=()):
        self.callers = list(callers)  # benchmark modules whose references are wrapped too
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = None  # id of the op in progress; spans carry it
        self.solved = defaultdict(list)  # op id -> problems solved in it
        self._stack: list = []
        self._patched: list = []  # (owner, attribute, original)

    def install(self) -> None:
        modules = self.callers + [m for name, m in sys.modules.items()
                                  if name == "psector" or name.startswith("psector.")]
        for layer, names in ENTRY_POINTS.items():
            module = sys.modules.get(f"psector.{layer}")
            if module is None:
                continue
            internal = _names_used(module)
            for qual in names:
                owner_name, _, attr = qual.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                orig = vars(owner).get(attr) if owner is not None else None
                if not callable(orig):
                    continue
                wrapped = self._wrap(layer, f"{layer}.{qual}", orig)
                if owner_name:
                    self._patch(owner, attr, orig, wrapped)
                    continue
                for mod in modules:
                    if mod is module and attr in internal:
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, orig, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def _patch(self, owner, attr, orig, wrapped) -> None:
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapped)

    def _wrap(self, layer, name, fn):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and spans[stack[-1]][1] == layer:
                return fn(*args, **kwargs)
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": self.counts}, fh)

    def layer_metrics(self, batteries: int) -> dict:
        """Per-layer metrics, sums taken per traced battery."""
        child = defaultdict(float)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        total, calls, self_name = Counter(), Counter(), Counter()
        layer_total, self_layer = Counter(), Counter()
        for i, s in enumerate(self.spans):
            dur = s[3] - s[2]
            total[s[0]] += dur
            calls[s[0]] += 1
            self_name[s[0]] += dur - child[i]
            layer_total[s[1]] += dur
            self_layer[s[1]] += dur - child[i]

        c = self.counts
        sweeps = calls["_kernels.sor_sweep"]
        sweep_s = total["_kernels.sor_sweep"]
        solves = calls["measure.solve_measure"]
        mc_s = total["measure.mc_harmonic_measure"]

        def per(x):
            return x / batteries

        def ratio(num, den):
            return num / den if den else 0.0

        def group(names):
            return sum(total[n] for n in names)

        return {
            "kernels.sweep_calls": (per(sweeps), "count"),
            "kernels.sweep_s": (per(sweep_s), "s"),
            "kernels.mnodes_per_s": (ratio(c["sweep_nodes"], sweep_s) / 1e6, "Mnode/s"),
            "kernels.flop_per_sweep_computed": (
                ratio(FLOP_PER_NODE * c["sweep_nodes"], sweeps), "flop"),
            "kernels.bytes_per_sweep_computed": (
                ratio(BYTES_PER_NODE * c["sweep_nodes"], sweeps), "B"),
            "kernels.gb_per_s_computed": (
                ratio(BYTES_PER_NODE * c["sweep_nodes"], sweep_s) / 1e9, "GB/s"),
            "measure.solve_calls": (per(solves), "count"),
            "measure.solve_s": (per(total["measure.solve_measure"]), "s"),
            "measure.picard_cycles": (per(c["picard_cycles"]), "count"),
            "measure.sweeps_per_cycle": (ratio(sweeps, c["picard_cycles"]), "count"),
            "measure.outer_self_s": (per(self_name["measure.solve_measure"]), "s"),
            "measure.converged_ratio": (ratio(c["converged_solves"], solves), "ratio"),
            "measure.redundant_solves": (per(c["redundant_solves"]), "count"),
            "measure.mc_s": (per(mc_s), "s"),
            "measure.mc_walks_per_s": (ratio(c["mc_walks"], mc_s), "1/s"),
            "measure.post_s": (per(group(POST)), "s"),
            "measure.write_s": (per(group(MEASURE_WRITE)), "s"),
            "measure.write_bytes": (per(c["measure_write_bytes"]), "B"),
            "experiments.write_s": (per(group(REPORT_WRITE)), "s"),
            "experiments.write_bytes": (per(c["report_write_bytes"]), "B"),
            "experiments.self_s": (per(self_layer["experiments"]), "s"),
            "verify.self_s": (per(self_layer["verify"]), "s"),
            "cli.self_s": (per(self_layer["cli"]), "s"),
            "profile.build_calls": (per(calls["profile.build_profile"]), "count"),
            "profile.build_s": (per(total["profile.build_profile"]), "s"),
            "profile.write_s": (per(total["profile.write_profile_csv"]), "s"),
            "profile.write_bytes": (per(c["profile_write_bytes"]), "B"),
            "profile.s": (per(layer_total["profile"]), "s"),
            "pde.report_calls": (per(sum(calls[n] for n in PDE_REPORTS)), "count"),
            "pde.report_s": (per(group(PDE_REPORTS)), "s"),
            "exponent.s": (per(layer_total["exponent"]), "s"),
        }
