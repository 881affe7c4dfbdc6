"""Command-line front end.

Subcommands: exponent (k and derivatives, table mode), profile (CSV table),
measure (solve + slope fit + certificates), verify (acceptance suites).

Exit codes: 0 success, 1 verification failure, 2 usage or domain error,
3 internal invariant failure, 4 solver non-convergence.  Numeric stdout uses
10 significant digits; CSV/JSON files carry full shortest-round-trip floats.
A config file of key = value lines supplies defaults; flags override it.
The output directory resolves from --out-dir, then $PSECTOR_OUTDIR, then the
config file, then the current directory.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, fields

from . import measure
from .exponent import (
    DomainError,
    dk_dnu,
    dk_dp,
    radial_exponent,
    radial_exponent_roots,
)
from .profile import ProfileInvariantError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3
EXIT_NO_CONVERGENCE = 4


@dataclass
class CliConfig:
    n_r: int = measure.MeasureProblem.n_r
    n_phi: int = measure.MeasureProblem.n_phi
    samples: int = 129
    tol: float = measure.MeasureProblem.tol
    eps_reg: float = measure.MeasureProblem.eps_reg
    max_iter: int = measure.MeasureProblem.max_iter
    seed: int = 0
    out_dir: str = "."

    @classmethod
    def from_file(cls, path) -> "CliConfig":
        """Defaults overridden by the file's key = value lines; each value is
        converted to the type of its field's default.  A '#' that starts the
        line or follows whitespace starts a comment; out_dir = run#1 keeps it."""
        cfg = cls()
        kinds = {f.name: type(f.default) for f in fields(cls)}
        try:
            with open(path, encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise DomainError(f"{path}: cannot read config file: {exc.strerror}") from None
        for lineno, line in enumerate(lines, 1):
            line = re.sub(r"(^|\s)#.*", "", line).strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            key, val = key.strip(), val.strip().strip("\"'")
            if not sep:
                raise DomainError(f"{path}:{lineno}: expected key = value")
            if key not in kinds:
                raise DomainError(f"{path}:{lineno}: unknown config key {key!r}")
            kind = kinds[key]
            try:
                setattr(cfg, key, kind(val))
            except ValueError:
                raise DomainError(f"{path}:{lineno}: {key} must be {kind.__name__}, "
                                  f"got {val!r}") from None
        return cfg

    def apply_args(self, args) -> "CliConfig":
        for f in fields(self):
            v = getattr(args, f.name, None)
            if v not in (None, ""):
                setattr(self, f.name, v)
        return self


def _parse_p(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return math.inf
    return float(t)


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def _load_config(args) -> CliConfig:
    cfg = CliConfig.from_file(args.config) if getattr(args, "config", None) else CliConfig()
    cfg.out_dir = os.environ.get("PSECTOR_OUTDIR") or cfg.out_dir
    cfg.apply_args(args)
    if cfg.seed < 0:
        raise DomainError(f"seed must be >= 0, got {cfg.seed}")
    return cfg


def cmd_exponent(args, cfg: CliConfig) -> int:
    if not args.table and (args.nu is None or args.p is None):
        print("error: --nu and --p are required unless --table is given", file=sys.stderr)
        return EXIT_USAGE
    if args.table:
        from .experiments import run_exponent_table

        rep = run_exponent_table()
        os.makedirs(cfg.out_dir, exist_ok=True)
        path = os.path.join(cfg.out_dir, "exponent_table.csv")
        rep.write_csv(path)
        rep.write_json(os.path.join(cfg.out_dir, "exponent_table.json"))
        print(f"wrote {path}")
        return EXIT_OK if rep.passed else EXIT_VERIFY_FAIL
    nu, p = args.nu, args.p
    # every requested value before any output: a refused request prints nothing
    lines = [f"k = {_fmt(radial_exponent(nu, p))}"]
    if args.derivs:
        lines.append(f"dk/dnu = {_fmt(dk_dnu(nu, p))}")
        if p != math.inf:
            lines.append(f"dk/dp = {_fmt(dk_dp(nu, p))}")
    if args.roots:
        k1, k2 = radial_exponent_roots(nu, p)
        lines += [f"k1 = {_fmt(k1)}", f"k2 = {_fmt(k2)}"]
    print("\n".join(lines))
    return EXIT_OK


def cmd_profile(args, cfg: CliConfig) -> int:
    from .profile import build_profile, write_profile_csv

    prof = build_profile(args.nu, args.p, cfg.samples)
    os.makedirs(cfg.out_dir, exist_ok=True)
    p_label = "inf" if args.p == math.inf else f"{args.p:g}"
    name = args.out or f"profile_{args.nu:g}_{p_label}.csv"
    path = os.path.join(cfg.out_dir, name)
    write_profile_csv(prof, path)
    print(f"case = {prof.case}")
    print(f"k = {_fmt(prof.k)}")
    print(f"boundary_residual = {_fmt(prof.boundary_residual)}")
    print(f"band_inner_min_f = {_fmt(prof.band_inner_min_f)}")
    print(f"band_outer_min_fprime = {_fmt(prof.band_outer_min_fprime)}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_measure(args, cfg: CliConfig) -> int:
    from .experiments import MC_WALKS, measure_report, require_mc_applicable

    problem = measure.MeasureProblem(
        nu=args.nu, p=args.p, R=args.R, n_r=cfg.n_r, n_phi=cfg.n_phi,
        eps_reg=cfg.eps_reg, tol=cfg.tol, max_iter=cfg.max_iter,
        arc_target=measure.INNER_ARC if args.inner_arc else measure.FULL_ARC,
    )
    measure.require_slope_window(problem)
    if args.mc_check:
        require_mc_applicable(problem)
    os.makedirs(cfg.out_dir, exist_ok=True)
    stem = f"measure_{args.nu:g}_{args.p:g}" + ("_inner" if args.inner_arc else "")
    sol = measure.solve_measure(problem)
    rep = measure_report(sol, mc_check=args.mc_check, seed=cfg.seed)
    fit, cert, *mc_rows = rep.rows
    extra = {
        "k": fit["k"],
        "slope": fit["fitted"],
        "slope_window": [w * problem.R for w in measure.SLOPE_WINDOW],
        "slope_rms": fit["fit_rms"],
        "ratio_min": cert["ratio_min"],
        "ratio_max": cert["ratio_max"],
    }
    if args.mc_check:
        extra.update(mc_agreement=mc_rows, mc_within_3_sigma=rep.criteria[-1]["passed"],
                     mc_seed=cfg.seed, mc_walks=MC_WALKS)
    sol.to_csv(os.path.join(cfg.out_dir, stem + ".csv"))
    measure.write_summary_json(sol, os.path.join(cfg.out_dir, stem + ".json"), extra)
    mark = "" if sol.converged else " (unconverged field)"
    print(f"k = {_fmt(fit['k'])}")
    for key in ("slope", "ratio_min", "ratio_max"):
        print(f"{key} = {_fmt(extra[key])}{mark}")
    if args.mc_check:
        print(f"mc_within_3_sigma = {extra['mc_within_3_sigma']}{mark}")
    print(f"converged = {sol.converged}")
    print(f"wrote {os.path.join(cfg.out_dir, stem + '.csv')}")
    if not sol.converged:
        print(
            f"solver did not reach tol {problem.tol:g}: final residual {sol.final_residual:.2e},"
            f" stopped on {sol.stop_reason} after {sol.iterations} of {problem.max_iter} cycles",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


SUITES = ("exponent", "profile", "pde", "measure", "stream", "phragmen", "all")


def cmd_verify(args, cfg: CliConfig) -> int:
    if args.suite not in SUITES:
        print(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)}",
              file=sys.stderr)
        return EXIT_USAGE
    from .verify import run_suites

    os.makedirs(cfg.out_dir, exist_ok=True)
    reports = run_suites(args.suite, quick=args.quick, out_dir=cfg.out_dir, seed=cfg.seed)
    failed = []
    for rep in reports:
        status = "PASS" if rep.passed else "FAIL"
        print(f"[{status}] {rep.experiment_id}")
        if not rep.passed:
            failed.append(rep)
    if failed:
        first = failed[0].first_failure()
        print(
            f"FAILED: {failed[0].experiment_id}: {first['name']} ({first['detail']})",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAIL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="psector",
        description="p-harmonic functions and p-harmonic measure in planar sectors",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="key = value config file")
        sp.add_argument("--out-dir", dest="out_dir", help="output directory")

    sp = sub.add_parser("exponent", help="radial exponent k(nu, p)")
    sp.add_argument("--nu", type=float, required=False)
    sp.add_argument("--p", type=_parse_p, required=False)
    sp.add_argument("--derivs", action="store_true", help="print dk/dnu and dk/dp")
    sp.add_argument("--roots", action="store_true", help="print both algebraic roots")
    sp.add_argument("--table", action="store_true", help="write the exponent table CSV")
    common(sp)
    sp.set_defaults(func=cmd_exponent)

    sp = sub.add_parser("profile", help="angular profile CSV")
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--p", type=_parse_p, required=True)
    sp.add_argument("--samples", type=int)
    sp.add_argument("--out", help="output file name")
    common(sp)
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("measure", help="p-harmonic measure solve")
    sp.add_argument("--nu", type=float, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--R", type=float, default=1.0)
    sp.add_argument("--n-r", dest="n_r", type=int)
    sp.add_argument("--n-phi", dest="n_phi", type=int)
    sp.add_argument("--eps-reg", dest="eps_reg", type=float)
    sp.add_argument("--tol", type=float)
    sp.add_argument("--seed", type=int)
    sp.add_argument("--inner-arc", action="store_true",
                    help="prescribe data on the inner sub-arc variant")
    sp.add_argument("--mc-check", action="store_true",
                    help="add the walk-on-spheres agreement block "
                         "(p = 2, full arc)")
    common(sp)
    sp.set_defaults(func=cmd_measure)

    sp = sub.add_parser("verify", help="run acceptance suites")
    sp.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    sp.add_argument("--quick", action="store_true", help="reduced grids")
    sp.add_argument("--seed", type=int)
    common(sp)
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args, _load_config(args))
    except ProfileInvariantError as exc:
        print(f"invariant failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
