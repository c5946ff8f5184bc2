"""Command-line front end.

Subcommands map onto the computational modules and emit the CSV/JSON
artifacts.  Identical configuration and seed give byte-identical
artifacts; for that reason the seconds column of the norm study is
written as 0 unless --wall-time is requested.

Configuration precedence: flags, then --config file, then the defaults
of _build_parser.  The config file is flat `key = value` text, keys
matching the subcommand's long option names.  The library functions
check their inputs before any work; their ValueError exits 2, as does
the ValueError this module raises for a bad config file, CSV input or
--threads.  A check that runs and fails (a weyl-suite verdict False)
prints its summary line and exits 1, as does an OSError.
SPLITNOISE_OUT_DIR, when set, is the default directory for relative
output paths.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import ccr_matrix, warren_sim
from .ccr_matrix import TWO_THIRDS_PI
from .gaussian_algebra import (_check_count, _check_seed, _finite_real,
                               _whole, relation_suite)
from .warren_sim import Lemma43Row, _check_grid


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x != ""]


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x != ""]


def _read_config(path: str) -> dict:
    conf = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"bad config line: {line!r}")
                key, value = line.split("=", 1)
                conf[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return conf


def _out_path(name: str) -> str:
    base = os.environ.get("SPLITNOISE_OUT_DIR", "")
    if base and not os.path.isabs(name):
        return os.path.join(base, name)
    return name


def _build_parser():
    """The parser and its subparsers action (subcommand -> parser)."""
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
    p.add_argument("--scheme", choices=("oscillator", "grid", "both"),
                   default="oscillator")
    p.add_argument("--dims", type=_ints, default="64,128,256,512,1024",
                   help="comma-separated ascending truncations")
    p.add_argument("--alpha", type=_floats, default=f"{TWO_THIRDS_PI!r}",
                   help="comma-separated angles in (pi/2, pi]")
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=7,
                   help="ignored: the norm study is deterministic")
    p.add_argument("--out", default="norm_study.csv")
    p.add_argument("--wall-time", action="store_true",
                   help="write measured seconds, each (scheme, N) kernel "
                        "call's time split evenly across its angles (breaks "
                        "byte reproducibility)")

    p = sub.add_parser("weyl-suite", help="automorphism relation residuals")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--t", type=float, default=1.0)

    p = sub.add_parser("warren-mass", help="total-mass identity estimate")
    p.add_argument("--m", type=int, default=warren_sim.DEFAULT_GRID_M)
    p.add_argument("--samples", type=int, default=warren_sim.DEFAULT_SAMPLES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="")

    p = sub.add_parser("lemma43", help="bucket-probe refinement table")
    p.add_argument("--m", type=int, default=warren_sim.DEFAULT_GRID_M)
    p.add_argument("--samples", type=int, default=warren_sim.DEFAULT_SAMPLES)
    p.add_argument("--n-list", type=_ints, default="16,64")
    p.add_argument("--delta-list", type=_floats,
                   default="0.000244140625,6.103515625e-05")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="lemma43.csv")

    p = sub.add_parser("obstruction", help="combine norm and table into the margin")
    p.add_argument("--norm-from", default="norm_study.csv")
    p.add_argument("--lemma43-from", default="lemma43.csv")
    p.add_argument("--f-mass", type=float, default=None)
    p.add_argument("--out", default="obstruction.json")
    return parser, sub


def _cmd_norm_study(args) -> str:
    schemes = ("oscillator", "grid") if args.scheme == "both" else (args.scheme,)
    rows = ccr_matrix.convergence_study(schemes, args.dims, args.alpha,
                                        t=args.t)
    out = _out_path(args.out)
    ccr_matrix.write_norm_study_csv(rows, out, wall_time=args.wall_time)
    top = max(rows, key=lambda r: r.n)
    return (f"norm-study: value[N={top.n}, {top.scheme}, "
            f"alpha={top.alpha:.6g}] = {top.value:.6f} -> {out}")


class _CheckFailed(Exception):
    """A check that ran and failed; the message is its summary line."""


def _cmd_weyl_suite(args) -> str:
    report = relation_suite(args.seed, trials=args.trials, t=args.t)
    worst = report.max_residual
    detail = ", ".join(f"{k}={v:.2e}" for k, v in report.residuals.items())
    line = (f"weyl-suite: max residual {worst:.2e} <= 1e-9 is "
            f"{worst <= 1e-9} ({detail})")
    if not worst <= 1e-9:  # a nan residual fails too
        raise _CheckFailed(line)
    return line


def _cmd_warren_mass(args) -> str:
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


def _cmd_lemma43(args) -> str:
    f = warren_sim.half_interval_profile()
    rows = warren_sim.lemma43_table(f, args.n_list, args.delta_list, args.m,
                                    args.samples, args.seed,
                                    threads=args.threads)
    out = _out_path(args.out)
    warren_sim.write_lemma43_csv(rows, out)
    best = warren_sim.best_row(rows)
    if best.mass == 0.0:  # no weighted minimum on any path
        ratios = "mass 0, so estimate/mass and u_mass/mass are undefined"
    else:
        ratios = (f"estimate/mass {best.estimate / best.mass:.4f}, "
                  f"u_mass/mass {best.u_mass / best.mass:.4f} "
                  f"+- {best.u_ratio_stderr:.2g}")
    return (f"lemma43: {len(rows)} rows; best row (n={best.n}, "
            f"delta={best.delta:.6g}): {ratios} -> {out}")


def _checked_int(check, *args):
    """A CSV field converter: the field as an int, passed through check
    (one of the library's checks, with args after the value)."""
    return lambda text: check(int(text), *args)


def _read_csv(path: str, header: str, what: str, types) -> list[tuple]:
    """Each row of a CSV artifact below its header line, its fields
    converted by types (one callable per column); a float column's field
    is parsed by float() and checked by _finite_real, named by its
    column.  A row of the wrong width or with a field that does not
    convert raises ValueError naming the file and the line."""
    with open(path, encoding="utf-8") as fh:
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, 1)
                 if ln.strip()]
    if not lines or lines[0][1] != header:
        raise ValueError(f"{path} does not carry the {what} header")
    rows = []
    for no, ln in lines[1:]:
        fields = ln.split(",")
        try:
            if len(fields) != len(types):
                raise ValueError(f"{len(fields)} fields, expected {len(types)}")
            rows.append(tuple(
                _finite_real(f(x), name) if f is float else f(x)
                for f, x, name in zip(types, fields, header.split(","))))
        except ValueError as exc:
            raise ValueError(f"{path} line {no}: {exc}") from None
    if not rows:
        raise ValueError(f"{path} has no rows")
    return rows


def _read_norm_row(path: str) -> tuple:
    """The row (scheme, N, alpha, t, value, seconds) at the largest N,
    then the angle nearest 2 pi/3, then the largest (most conservative)
    value; ties go to the first such row.  N must be at least 2."""
    dimension = _checked_int(_whole, "N", 2, math.inf, "be at least 2")
    rows = _read_csv(path, ccr_matrix.NORM_STUDY_HEADER, "norm-study",
                     (str, dimension, float, float, float, float))
    return max(rows, key=lambda r: (r[1], -abs(r[2] - TWO_THIRDS_PI), r[4]))


def _read_lemma43_rows(path: str) -> list[Lemma43Row]:
    """The rows of a lemma43 table, n and samples at least 1, m at least
    4 and the seed in [0, 2**63), as the library checks them.  Each field
    is read by its LEMMA43_HEADER name; the CSV holds no u_mass,
    u_mass_stderr or u_ratio_stderr, and they read back as NaN."""
    header = warren_sim.LEMMA43_HEADER
    types = (_checked_int(_check_count, "n"), float,
             _checked_int(_check_grid), _checked_int(_check_count, "samples"),
             float, float, float, float, _checked_int(_check_seed))
    unread = dict.fromkeys(("u_mass", "u_mass_stderr", "u_ratio_stderr"),
                           math.nan)
    return [Lemma43Row(**dict(zip(header.split(","), r)), **unread)
            for r in _read_csv(path, header, "lemma43", types)]


def _cmd_obstruction(args) -> str:
    scheme, n_dim, _, _, norm_value, _ = _read_norm_row(args.norm_from)
    rows = _read_lemma43_rows(args.lemma43_from)
    report = warren_sim.obstruction_report(norm_value, rows, args.f_mass,
                                           scheme=scheme, n_dim=n_dim)
    out = _out_path(args.out)
    warren_sim.write_obstruction_json(report, out)
    return (f"obstruction: margin = {report.margin:.4f} "
            f"(norm {report.norm_value:.4f}, m_hat {report.m_hat:.4f} from "
            f"the edge-anchored estimate column) -> {out}")


_HANDLERS = {
    "norm-study": _cmd_norm_study,
    "weyl-suite": _cmd_weyl_suite,
    "warren-mass": _cmd_warren_mass,
    "lemma43": _cmd_lemma43,
    "obstruction": _cmd_obstruction,
}


def main(argv=None) -> int:
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        _check_count(args.threads, "threads")
        if args.config:
            # entries for the subcommand's valued options (flags default
            # to False) become its defaults, which argparse parses by type
            chosen = subparsers.choices[args.command]
            own = vars(chosen.parse_args([]))
            chosen.set_defaults(**{k: v for k, v in _read_config(args.config)
                                   .items() if own.get(k, False) is not False})
            args = parser.parse_args(argv)
        line = _HANDLERS[args.command](args)
    except _CheckFailed as exc:
        print(exc)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
