"""Command-line front end.

Subcommands map onto the computational modules and emit the CSV/JSON
artifacts.  Identical configuration and seed give byte-identical
artifacts; for that reason the seconds column of the norm study is
written as 0 unless --wall-time is requested.

Configuration precedence: flags, then --config file, then defaults.
The config file is flat `key = value` text, keys matching the long
option names.  SPLITNOISE_OUT_DIR, when set, is the default directory
for relative output paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import ccr_matrix, warren_sim
from .ccr_matrix import TWO_THIRDS_PI
from .gaussian_algebra import ccr_phase_residual, random_unit_span, relation_suite
from .warren_sim import Lemma43Row, replica_rng

DEFAULTS = {
    "norm-study": dict(scheme="oscillator", dims="64,128,256,512,1024",
                       alpha=f"{TWO_THIRDS_PI!r}", t=0.5, seed=7,
                       out="norm_study.csv"),
    "weyl-suite": dict(seed=1, trials=100, t=1.0),
    "warren-mass": dict(m=warren_sim.DEFAULT_GRID_M,
                        samples=warren_sim.DEFAULT_SAMPLES, seed=0, out=""),
    "lemma43": dict(m=warren_sim.DEFAULT_GRID_M,
                    samples=warren_sim.DEFAULT_SAMPLES,
                    n_list="16,64", delta_list="0.000244140625,6.103515625e-05",
                    seed=0, out="lemma43.csv"),
    "obstruction": dict(norm_from="norm_study.csv", lemma43_from="lemma43.csv",
                        out="obstruction.json", f_mass=None),
}


class CliError(Exception):
    """Validation failure: exit code 2."""


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in str(text).split(",") if x != ""]
    except ValueError as exc:
        raise CliError(f"expected comma-separated integers, got {text!r}") from exc


def _floats(text: str) -> list[float]:
    try:
        return [float(x) for x in str(text).split(",") if x != ""]
    except ValueError as exc:
        raise CliError(f"expected comma-separated numbers, got {text!r}") from exc


def _read_config(path: str) -> dict:
    conf = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise CliError(f"bad config line: {line!r}")
                key, value = line.split("=", 1)
                conf[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    return conf


def _out_path(name: str) -> str:
    base = os.environ.get("SPLITNOISE_OUT_DIR", "")
    if base and not os.path.isabs(name):
        return os.path.join(base, name)
    return name


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitnoise",
        description="sign-operator norms and splitting-noise experiments")
    parser.add_argument("--config", default=None,
                        help="flat key = value configuration file")
    parser.add_argument("--threads", type=int, default=1,
                        help="run Monte Carlo replica chunks on at most this "
                             "many worker threads; results do not depend on it")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("norm-study", help="sign-sum norm across truncations")
    p.add_argument("--scheme", choices=("oscillator", "grid", "both"))
    p.add_argument("--dims", help="comma-separated ascending truncations")
    p.add_argument("--alpha", help="comma-separated angles in (pi/2, pi]")
    p.add_argument("--t", type=float)
    p.add_argument("--seed", type=int,
                   help="ignored: the norm study is deterministic")
    p.add_argument("--out")
    p.add_argument("--wall-time", action="store_true",
                   help="write measured seconds, each (scheme, N) kernel "
                        "call's time split evenly across its angles (breaks "
                        "byte reproducibility)")

    p = sub.add_parser("weyl-suite", help="automorphism relation residuals")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--t", type=float)

    p = sub.add_parser("warren-mass", help="total-mass identity estimate")
    p.add_argument("--m", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("lemma43", help="bucket-probe refinement table")
    p.add_argument("--m", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--n-list")
    p.add_argument("--delta-list")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")

    p = sub.add_parser("obstruction", help="combine norm and table into the margin")
    p.add_argument("--norm-from")
    p.add_argument("--lemma43-from")
    p.add_argument("--f-mass", type=float)
    p.add_argument("--out")
    return parser


def _fill(args: argparse.Namespace, conf: dict) -> argparse.Namespace:
    # flags win over config file values, config file over defaults
    defaults = DEFAULTS[args.command]
    for key, default in defaults.items():
        if getattr(args, key, None) is None:
            if key in conf:
                raw = conf[key]
                value = type(default)(raw) if default is not None else raw
            else:
                value = default
            setattr(args, key, value)
    return args


def _positive(name, value):
    if value is None or value <= 0:
        raise CliError(f"{name} must be positive")
    return value


def _cmd_norm_study(args) -> str:
    dims = _ints(args.dims)
    if not dims or dims != sorted(dims) or dims[0] < 2:
        raise CliError("dims must be ascending integers >= 2")
    alphas = _floats(args.alpha)
    for a in alphas:
        if not math.pi / 2.0 < a <= math.pi:
            raise CliError("alpha must lie in (pi/2, pi]")
    _positive("t", args.t)
    schemes = ("oscillator", "grid") if args.scheme == "both" else (args.scheme,)
    rows = ccr_matrix.convergence_study(schemes, dims, alphas, t=args.t)
    out = _out_path(args.out)
    ccr_matrix.write_norm_study_csv(rows, out, wall_time=args.wall_time)
    top = max(rows, key=lambda r: r.n)
    return (f"norm-study: value[N={top.n}, {top.scheme}, "
            f"alpha={top.alpha:.6g}] = {top.value:.6f} -> {out}")


def _cmd_weyl_suite(args) -> str:
    _positive("trials", args.trials)
    _positive("t", args.t)
    report = relation_suite(args.seed, trials=args.trials, t=args.t)
    rng = replica_rng(args.seed, 1)
    worst_phase = 0.0
    for _ in range(args.trials):
        v = random_unit_span(rng, args.t)
        lam, mu = rng.uniform(-3.0, 3.0, size=2)
        worst_phase = max(worst_phase, ccr_phase_residual(lam, mu, v))
    worst = max(report.max_residual, worst_phase)
    detail = ", ".join(f"{k}={v:.2e}" for k, v in report.residuals.items())
    return (f"weyl-suite: max residual {worst:.2e} <= 1e-9 is "
            f"{worst <= 1e-9} ({detail}, weyl_phase={worst_phase:.2e})")


def _cmd_warren_mass(args) -> str:
    _positive("m", args.m)
    _positive("samples", args.samples)
    f = warren_sim.half_interval_profile()
    est = warren_sim.quad_form_C(warren_sim.constant_evaluator(1.0), f,
                                 args.samples, args.seed, m=args.m,
                                 threads=args.threads)
    line = (f"warren-mass: ||f||^2 ~ {est.mean:.6g} +- {est.stderr:.3g} "
            f"(m={args.m}, samples={est.samples})")
    if args.out:
        out = _out_path(args.out)
        payload = {"estimate": est.mean, "stderr": est.stderr,
                   "samples": est.samples, "m": args.m, "seed": est.seed}
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, ensure_ascii=False, indent=2)
            fh.write("\n")
        line += f" -> {out}"
    return line


def _aligned_lists(n_list, delta_list, m):
    for n in n_list:
        for d in delta_list:
            warren_sim.PsiSpec(n, d).alignment(m)


def _cmd_lemma43(args) -> str:
    _positive("m", args.m)
    _positive("samples", args.samples)
    n_list = _ints(args.n_list)
    delta_list = _floats(args.delta_list)
    if not n_list or not delta_list:
        raise CliError("n-list and delta-list must be nonempty")
    try:
        _aligned_lists(n_list, delta_list, args.m)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    f = warren_sim.half_interval_profile()
    rows = warren_sim.lemma43_table(f, n_list, delta_list, args.m,
                                    args.samples, args.seed,
                                    threads=args.threads)
    out = _out_path(args.out)
    warren_sim.write_lemma43_csv(rows, out)
    best = min(rows, key=lambda r: (r.delta, -r.n))
    return (f"lemma43: {len(rows)} rows, best normalized estimate "
            f"{best.estimate / best.mass:.4f} at (n={best.n}, "
            f"delta={best.delta:.6g}) -> {out}")


def _read_norm_row(path: str):
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != ccr_matrix.NORM_STUDY_HEADER:
        raise CliError(f"{path} does not carry the norm-study header")
    rows = []
    for ln in lines[1:]:
        scheme, n, alpha, t, value, _sec = ln.split(",")
        rows.append((scheme, int(n), float(alpha), float(t), float(value)))
    if not rows:
        raise CliError(f"{path} has no rows")
    top_n = max(r[1] for r in rows)
    at_top = [r for r in rows if r[1] == top_n]
    best_alpha = min((abs(r[2] - TWO_THIRDS_PI) for r in at_top))
    candidates = [r for r in at_top if abs(r[2] - TWO_THIRDS_PI) == best_alpha]
    # several schemes at the top: take the largest (most conservative) norm
    return max(candidates, key=lambda r: r[4])


def _read_lemma43_rows(path: str) -> list[Lemma43Row]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != warren_sim.LEMMA43_HEADER:
        raise CliError(f"{path} does not carry the lemma43 header")
    rows = []
    for ln in lines[1:]:
        n, delta, m, samples, est, se, mass, mass_se, seed = ln.split(",")
        rows.append(Lemma43Row(int(n), float(delta), int(m), int(samples),
                               float(est), float(se), float(mass),
                               float(mass_se), 0.0, 0.0, int(seed)))
    if not rows:
        raise CliError(f"{path} has no rows")
    return rows


def _cmd_obstruction(args) -> str:
    scheme, n_dim, _alpha, _t, norm_value = _read_norm_row(args.norm_from)
    rows = _read_lemma43_rows(args.lemma43_from)
    f_mass = None if args.f_mass is None else float(args.f_mass)
    report = warren_sim.obstruction_report(norm_value, rows, f_mass,
                                           scheme=scheme, n_dim=n_dim)
    out = _out_path(args.out)
    warren_sim.write_obstruction_json(report, out)
    return (f"obstruction: margin = {report.margin:.4f} "
            f"(norm {report.norm_value:.4f}, m_hat {report.m_hat:.4f}) -> {out}")


_HANDLERS = {
    "norm-study": _cmd_norm_study,
    "weyl-suite": _cmd_weyl_suite,
    "warren-mass": _cmd_warren_mass,
    "lemma43": _cmd_lemma43,
    "obstruction": _cmd_obstruction,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        if args.threads is None or args.threads < 1:
            raise CliError("threads must be at least 1")
        conf = _read_config(args.config) if args.config else {}
        args = _fill(args, conf)
        if getattr(args, "seed", 0) is not None and getattr(args, "seed", 0) < 0:
            raise CliError("seed must be nonnegative")
        line = _HANDLERS[args.command](args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
