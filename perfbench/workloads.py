"""The benchmark's three workloads: inputs drawn from a seed, one battery of
ops at a time, and the correctness check of every op.

An op is one call a user of psector would make.  `run` is the timed part;
`check` reads its result afterwards, outside the timed region, and returns an
Outcome.  Each workload's warm_up runs its code paths once at a tiny size, so
lazy imports and any just-in-time compilation happen before timing starts.
Why each workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from psector import verify
from psector.cli import main as cli_main
from psector.experiments import (
    run_exponent_table,
    run_measure_experiment,
    run_phragmen_check,
    run_stream_consistency,
)
from psector.exponent import radial_exponent
from psector.measure import mc_harmonic_measure
from psector.pde import polar_residual_report, separation_report
from psector.profile import build_profile, write_profile_csv
from psector.verify import phragmen_suite, stream_suite

# verify.pde_suite compares both residual reports against this literal and
# exports no name for it, so it is repeated here
RESIDUAL_TOL = 1e-3

# A probe of the walk-on-spheres oracle fails the op beyond this many standard
# errors.  The CLI's own flag uses 3 per probe: on a correct solver the
# deviations are N(0, 1), so 3 sigma fires on about 1 battery in 40 and a
# campaign of runs would report failures the program does not have.  The
# 3-sigma count is still reported, as measure.mc_3sigma_flags.
MC_SIGMA_FAIL = 4.5


@dataclass
class Outcome:
    ok: bool
    why: str = ""
    slope_err: float | None = None  # |fitted - k| / k
    slope_tol: float | None = None
    cert_width: float | None = None  # ratio_max / ratio_min on S_2nu
    mc_dev: list = field(default_factory=list)  # |solver - mc| / stderr per probe
    residual: float | None = None  # worst relative pde residual

    @property
    def err_to_tol(self) -> float:
        """Largest checked error as a share of the tolerance it is held to."""
        shares = [0.0]
        if self.slope_err is not None:
            shares.append(self.slope_err / self.slope_tol)
        if self.residual is not None:
            shares.append(self.residual / RESIDUAL_TOL)
        return max(shares)


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]


def slope_tol(nu: float, p: float) -> float:
    for case_nu, case_p, tol in verify.MEASURE_CASES:
        if (case_nu, case_p) == (nu, p):
            return tol
    raise KeyError(f"({nu}, {p}) is not in verify.MEASURE_CASES")


def _p_label(p: float) -> str:
    return "inf" if p == math.inf else f"{p:g}"


def _report_outcome(reports) -> Outcome:
    for rep in reports:
        if not rep.passed:
            first = rep.first_failure()
            return Outcome(False, f"{rep.experiment_id}: {first['name']} ({first['detail']})")
    return Outcome(True)


def _write_reports(reports, out_dir: str, stem: str) -> None:
    for i, rep in enumerate(reports):
        base = os.path.join(out_dir, f"{stem}_{rep.experiment_id}_{i:02d}")
        rep.write_json(base + ".json")
        if rep.rows:
            rep.write_csv(base + ".csv")


class LinearCli:
    """`psector measure` at p = 2: two --mc-check calls and one --inner-arc."""

    name = "linear_cli"
    # (nu, --mc-check, --inner-arc)
    CALLS = ((1.0, True, False), (2.0, True, False), (1.0, False, True))

    def __init__(self, seed: int, grid: int, out_dir: str):
        self.rng = random.Random(seed)  # draws the walk-on-spheres seeds
        self.grid = grid
        self.out_dir = out_dir

    def battery(self) -> list[Op]:
        ops = []
        for nu, mc, inner in self.CALLS:
            argv = ["measure", "--nu", f"{nu:g}", "--p", "2",
                    "--n-r", str(self.grid), "--n-phi", str(self.grid),
                    "--out-dir", self.out_dir]
            if mc:
                argv += ["--mc-check", "--seed", str(self.rng.randrange(2**31))]
            if inner:
                argv.append("--inner-arc")
            stem = f"measure_{nu:g}_2" + ("_inner" if inner else "")
            label = f"cli measure nu={nu:g}" + (" --mc-check" if mc else "") + (
                " --inner-arc" if inner else "")
            ops.append(Op(label, lambda a=argv: self._call(a),
                          lambda res, n=nu, m=mc, s=stem: self._check(res, n, m, s)))
        return ops

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli_main(["measure", "--nu", "1", "--p", "2", "--n-r", "32", "--n-phi", "32",
                      "--out-dir", self.out_dir])
        mc_harmonic_measure(1.0, 1.0, [(0.5, 0.0)], 64, 0)

    @staticmethod
    def _call(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli_main(argv)
        return code, buf.getvalue()

    def _check(self, res, nu: float, mc: bool, stem: str) -> Outcome:
        code, text = res
        if code != 0:
            return Outcome(False, f"exit code {code}: {text.strip()[-300:]}")
        with open(os.path.join(self.out_dir, stem + ".json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        if summary.get("converged") is not True:
            return Outcome(False, "summary says not converged")
        if summary.get("grid") != [self.grid, self.grid]:
            return Outcome(False, f"summary grid {summary.get('grid')}")
        with open(os.path.join(self.out_dir, stem + ".csv"), encoding="utf-8") as fh:
            rows = sum(1 for line in fh if not line.startswith("#")) - 1  # less the column row
        if rows != self.grid * self.grid:
            return Outcome(False, f"field CSV has {rows} rows")
        k = radial_exponent(nu, 2.0)
        out = Outcome(True, slope_err=abs(summary["slope"] - k) / k,
                      slope_tol=slope_tol(nu, 2.0),
                      cert_width=summary["ratio_max"] / summary["ratio_min"])
        if out.slope_err > out.slope_tol:
            return Outcome(False, f"slope {summary['slope']} vs k {k}")
        if mc:
            out.mc_dev = [row["deviation_sigma"] for row in summary.get("mc_agreement", [])]
            if not out.mc_dev:
                return Outcome(False, "no walk-on-spheres rows in the summary")
            if max(out.mc_dev) > MC_SIGMA_FAIL:
                return Outcome(False, f"walk-on-spheres deviation {max(out.mc_dev):.2f} sigma")
        return out


class NonlinearSolve:
    """`run_measure_experiment` for a p > 2 and a p < 2 acceptance case.

    Deterministic: the seed selects nothing here.
    """

    name = "nonlinear_solve"
    CASES = ((2.0, 3.0), (1.0, 1.5))

    def __init__(self, seed: int, grid: int, out_dir: str):
        self.grid = grid

    def battery(self) -> list[Op]:
        return [
            Op(f"run_measure_experiment nu={nu:g} p={p:g}",
               lambda nu=nu, p=p: run_measure_experiment(
                   nu, p, n_r=self.grid, n_phi=self.grid, slope_tol=slope_tol(nu, p)),
               self._check)
            for nu, p in self.CASES
        ]

    def warm_up(self) -> None:
        for nu, p in self.CASES:
            run_measure_experiment(nu, p, n_r=32, n_phi=32)

    @staticmethod
    def _check(rep) -> Outcome:
        out = _report_outcome([rep])
        fit = next(r for r in rep.rows if "rel_err" in r)
        cert = next(r for r in rep.rows if "certificate" in r)
        out.slope_err = fit["rel_err"]
        out.slope_tol = rep.parameters["slope_tol"]
        out.cert_width = cert["certificate"]
        return out


class Constructions:
    """Profile tables, residual certificates and the exact-solution reports.

    Every battery builds each verify.PROFILE_CASES profile once, in an order
    the seed draws, then runs the stream, Phragmen and exponent-table reports
    as one op.  The seed changes only the order, so the work and the
    residuals do not depend on it.
    """

    name = "constructions"

    def __init__(self, seed: int, grid: int, out_dir: str):
        self.rng = random.Random(seed)
        self.samples = 4 * grid + 1  # 1025 at the default grid
        self.out_dir = out_dir

    def battery(self) -> list[Op]:
        cases = self.rng.sample(verify.PROFILE_CASES, len(verify.PROFILE_CASES))
        ops = [Op(f"profile nu={nu:g} p={_p_label(p)}",
                  lambda nu=nu, p=p: self._profile(nu, p), self._check_profile)
               for nu, p in cases]
        ops.append(Op("stream, phragmen and exponent-table reports", self._reports,
                      _report_outcome))
        return ops

    def warm_up(self) -> None:
        for nu, p in ((2.0, 3.0), (2.0, 1.5), (2.0, math.inf), (0.5, math.inf), (1.0, 2.0)):
            prof = build_profile(nu, p, 129)
            polar_residual_report(prof, 8)
            separation_report(prof, 8)
        _write_reports([run_phragmen_check(1.0, 2.0)], self.out_dir, "warm")
        run_stream_consistency(1.0, 1.5, 8)

    def _profile(self, nu: float, p: float):
        prof = build_profile(nu, p, self.samples)
        write_profile_csv(
            prof, os.path.join(self.out_dir, f"profile_{nu:g}_{_p_label(p)}.csv"))
        return polar_residual_report(prof), separation_report(prof)

    @staticmethod
    def _check_profile(res) -> Outcome:
        worst = max(rep.max_abs_residual for rep in res)
        if not worst <= RESIDUAL_TOL:
            return Outcome(False, f"residual {worst:.2e}", residual=worst)
        return Outcome(True, residual=worst)

    def _reports(self):
        reports = stream_suite() + phragmen_suite() + [
            run_exponent_table(verify.NU_GRID, verify.P_GRID + [math.inf])]
        _write_reports(reports, self.out_dir, "reports")
        return reports


WORKLOADS = {w.name: w for w in (LinearCli, NonlinearSolve, Constructions)}


def kernel_agreement() -> str:
    """numba and numpy sweeps must agree bitwise; 'skipped' without numba."""
    from psector import _kernels

    nb = getattr(_kernels, "_sor_color_nb", None)
    py = getattr(_kernels, "_sor_color_py", None)
    if nb is None or py is None:
        return "skipped: one sweep implementation is absent"
    rng = np.random.default_rng(42)
    n = 64
    u = rng.random((n, n))
    u[0, :], u[-1, :], u[:, 0], u[:, -1] = 0.0, 1.0, 0.0, 0.0
    # symmetric edge coefficients, as the solver builds them, keep SOR bounded
    aW, aE, aS, aN = (np.zeros((n, n)) for _ in range(4))
    c_r = rng.random((n - 1, n)) + 0.1
    c_a = rng.random((n, n - 1)) + 0.1
    aE[:-1, :], aW[1:, :], aN[:, :-1], aS[:, 1:] = c_r, c_r, c_a, c_a
    coef = (aW, aE, aS, aN)
    omega = 2.0 / (1.0 + math.sin(math.pi / n))
    a, b = u.copy(), u.copy()
    for _ in range(50):
        for color in (0, 1):
            py(a, *coef, omega, color)
            nb(b, *coef, omega, color)
    return "equal" if np.isfinite(a).all() and np.array_equal(a, b) else "differ"
