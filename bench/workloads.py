"""The benchmark's workloads: CLI calls per iteration and output checks.

Each workload is a closed loop: one client runs the calls of an
iteration one after another through `splitnoise.cli.main`, in-process.
Every CLI seed is derived from the workload seed, so the same seed gives
the same inputs and byte-identical artifacts.  A check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

TWO_THIRDS_PI = "2.0943951023931953"

# Full and toy sizes; the toy sizes are those of acceptance criterion 10.
NORM_DIMS = {"full": "64,128,256,512,1024", "toy": "16,32"}
# samples per call; an iteration makes `calls` warren-mass and as many
# lemma43 calls with seeds of their own, 10000 replicas per driver in all
# at full size, so that the host's speed is measured every few seconds
MC_GRID = {"full": dict(m=16384, samples=2500, calls=4, n_list="16,64",
                        delta_list="0.000244140625,6.103515625e-05"),
           "toy": dict(m=256, samples=50, calls=2, n_list="4,8",
                       delta_list="0.00390625")}
# weyl-suite trials per call; an iteration makes WEYL_CALLS calls with
# seeds of their own, so that the host's speed is measured between them
WEYL_TRIALS = {"full": 50, "toy": 5}
WEYL_CALLS = 4


@dataclass(frozen=True)
class Call:
    label: str  # CLI subcommand; names the stage in rates and reports
    argv: tuple[str, ...]
    out: Path | None  # artifact the call writes
    check: Callable[[str, bytes | None], list[str]]  # (stdout, artifact)


@dataclass(frozen=True)
class Workload:
    name: str
    cli_seeds: dict[str, int]
    setup: tuple[Call, ...]  # input generation and warm-up at toy size
    calls: tuple[Call, ...]  # one iteration
    # rate metric -> (call label, units of work done by that call)
    rates: dict[str, tuple[str, int]] = field(default_factory=dict)


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _norm_rows(artifact: bytes):
    lines = artifact.decode().splitlines()
    rows = []
    for line in lines[1:]:
        scheme, n, alpha, _t, value, _sec = line.split(",")
        rows.append((scheme, int(n), float(alpha), float(value)))
    return rows


def _check_norm_study(dims: str):
    expected_rows = 2 * 2 * len(dims.split(","))

    def check(stdout, artifact) -> list[str]:
        rows = _norm_rows(artifact)
        problems = []
        if len(rows) != expected_rows:
            problems.append(f"{len(rows)} rows, expected {expected_rows}")
        problems += [f"value {v} >= 3 at {s} N={n} alpha={a}"
                     for s, n, a, v in rows if not v < 3.0]
        top = max(n for _, n, _, _ in rows)
        # the artifact keeps 12 significant digits of alpha
        at_top = {s: v for s, n, a, v in rows
                  if n == top and abs(a - float(TWO_THIRDS_PI)) < 1e-9}
        if sorted(at_top) != ["grid", "oscillator"]:
            return problems + [f"missing a scheme at N={top}, alpha=2pi/3"]
        problems += [f"{s} value {v} outside [2.0, 2.2] at N={top}"
                     for s, v in at_top.items() if not 2.0 <= v <= 2.2]
        gap = abs(at_top["grid"] - at_top["oscillator"])
        if not gap <= 0.02:
            problems.append(f"schemes differ by {gap} > 0.02 at N={top}")
        return problems

    return check


def _check_mass(m: int):
    exact = (m / 2 - 1) / 4  # expected strict minima in (0, 1/2), weight 1

    def check(stdout, artifact) -> list[str]:
        doc = json.loads(artifact)
        miss = abs(doc["estimate"] - exact)
        if not miss <= 4.0 * doc["stderr"]:
            return [f"mass {doc['estimate']} is {miss:.3g} from {exact}, "
                    f"more than 4 stderr ({doc['stderr']:.3g})"]
        return []

    return check


def _check_lemma43(expected_rows: int):
    def check(stdout, artifact) -> list[str]:
        lines = artifact.decode().splitlines()[1:]
        problems = [] if len(lines) == expected_rows else [
            f"{len(lines)} rows, expected {expected_rows}"]
        for line in lines:
            n, delta, _m, _s, est, se, mass, _mse, _seed = line.split(",")
            if not abs(float(est)) <= float(mass) + 4.0 * float(se):
                problems.append(f"|estimate| {est} > mass + 4 stderr "
                                f"at n={n}, delta={delta}")
        return problems

    return check


def _check_obstruction(stdout, artifact) -> list[str]:
    doc = json.loads(artifact)
    gap = abs(doc["margin"] - (3.0 * doc["m_hat"] - doc["norm_value"]))
    return [] if gap <= 1e-12 else [f"margin off 3 m_hat - norm by {gap:.3g}"]


_RESIDUAL = re.compile(r"max residual (\S+) <= 1e-9")


def _check_weyl(stdout, artifact) -> list[str]:
    found = _RESIDUAL.search(stdout)
    if not found:
        return [f"no max residual in output {stdout!r}"]
    residual = float(found.group(1))
    return [] if residual <= 1e-9 else [f"max residual {residual} > 1e-9"]


def _norm_study(dims: str, out: Path, threads=()) -> Call:
    # norm-study parses --seed and ignores it, so it is given no seed and
    # its inputs do not depend on the workload seed.
    return Call("norm-study", (*threads, "norm-study", "--scheme", "both",
                               "--dims", dims, "--alpha",
                               f"{TWO_THIRDS_PI},2.9", "--out", str(out)),
                out, _check_norm_study(dims))


def _norm_sweep(seed: int, work: Path, size: str) -> Workload:
    return Workload("norm-sweep", {},
                    setup=(_norm_study(NORM_DIMS["toy"], work / "warm.csv"),),
                    calls=(_norm_study(NORM_DIMS[size], work / "norm.csv"),))


def _mc_calls(grid: dict, seeds: dict, work: Path, tag: str) -> tuple[Call, ...]:
    threads = ("--threads", "2")  # accepted and unused by the CLI today
    size = ("--m", str(grid["m"]), "--samples", str(grid["samples"]))
    rows = len(grid["n_list"].split(",")) * len(grid["delta_list"].split(","))
    calls = []
    for k in range(grid["calls"]):
        mass = work / f"{tag}mass-{k}.json"
        calls.append(Call("warren-mass", (
            *threads, "warren-mass", *size,
            "--seed", str(seeds[f"warren-mass/{k}"]), "--out", str(mass)),
            mass, _check_mass(grid["m"])))
    for k in range(grid["calls"]):
        table = work / f"{tag}lemma43-{k}.csv"
        calls.append(Call("lemma43", (
            *threads, "lemma43", *size, "--n-list", grid["n_list"],
            "--delta-list", grid["delta_list"],
            "--seed", str(seeds[f"lemma43/{k}"]), "--out", str(table)),
            table, _check_lemma43(rows)))
    report = work / f"{tag}obstruction.json"
    calls.append(Call("obstruction", (
        *threads, "obstruction", "--norm-from", str(work / "norm_small.csv"),
        "--lemma43-from", str(work / f"{tag}lemma43-0.csv"), "--out", str(report)),
        report, _check_obstruction))
    return tuple(calls)


def _mc_refine(seed: int, work: Path, size: str) -> Workload:
    grid = MC_GRID[size]
    seeds = {f"{driver}/{k}": derive_seed(seed, f"{driver}/{k}")
             for driver in ("warren-mass", "lemma43")
             for k in range(MC_GRID["full"]["calls"])}
    # the obstruction input: a tiny norm study written once in set-up
    norm_input = _norm_study(NORM_DIMS["toy"], work / "norm_small.csv",
                             ("--threads", "2"))
    return Workload(
        "mc-refine", seeds,
        setup=(norm_input, *_mc_calls(MC_GRID["toy"], seeds, work, "warm_")),
        calls=_mc_calls(grid, seeds, work, ""),
        rates={"mass_replicas_per_s": ("warren-mass", grid["samples"]),
               "table_replicas_per_s": ("lemma43", grid["samples"])})


def _weyl(trials: int, seed: int) -> Call:
    return Call("weyl-suite", ("weyl-suite", "--trials", str(trials),
                               "--seed", str(seed)), None, _check_weyl)


def _algebra_suite(seed: int, work: Path, size: str) -> Workload:
    seeds = {f"weyl-suite/{k}": derive_seed(seed, f"weyl-suite/{k}")
             for k in range(WEYL_CALLS)}
    trials = WEYL_TRIALS[size]
    return Workload("algebra-suite", seeds,
                    setup=(_weyl(WEYL_TRIALS["toy"], seeds["weyl-suite/0"]),),
                    calls=tuple(_weyl(trials, s) for s in seeds.values()),
                    rates={"weyl_trials_per_s": ("weyl-suite", trials)})


_MAKERS = {"norm-sweep": _norm_sweep, "mc-refine": _mc_refine,
             "algebra-suite": _algebra_suite}
NAMES = tuple(_MAKERS)


def build(name: str, seed: int, work: Path, size: str = "full") -> Workload:
    """Workload `name` for `seed`, writing its artifacts under `work`."""
    return _MAKERS[name](seed, work, size)
