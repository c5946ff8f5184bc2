"""Benchmark of the splitnoise command line, run from a source checkout.

    python3 bench/run.py --workload mc-refine --seed 3 --seconds 40 --trace 0

The package is imported from ./src of the checkout; nothing is
installed.  A workload is one closed loop: set-up generates the inputs
and makes a warm-up call at toy size, then iterations of CLI calls run
back to back, through `splitnoise.cli.main` in-process, until the next
one would end after --seconds.  Every output is checked, and so is the
byte identity of artifacts across iterations.

setup_s and pipeline_s are medians of times scaled to a reference speed
of the host, measured by a fixed kernel run before and after each timed
process or CLI call (see reference_seconds); the unscaled medians are
reported too.

With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
per-layer metrics from a traced run (one untraced reference iteration,
then traced ones), and the spans go to .bench_out/trace-*.csv.gz.  Lines
before it report every metric with its unit and the environment.
Exit status: 0 after a result, 1 on a runtime failure, 2 when the
package sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
# The reference kernel and the speed its scaled timings assume: about its
# time on a 2-vCPU x86-64 VM in a fast spell.
REF_OBJECTS, REF_DIM, REFERENCE_REPS = 3000, 120, 7
REFERENCE_S = 0.005
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 9
MAX_TRACED_ITERATIONS = 2
THREADS = str(min(2, os.cpu_count() or 1))

# (module, attribute, span name, counter) wrapped in the traced run.  The
# top-level calls of each CLI handler are wrapped too, so that cli.main's
# self time is parsing, configuration and formatting only.
TRACED = (
    ("ccr_matrix", "convergence_study", "ccr_matrix.convergence_study", None),
    ("ccr_matrix", "lemma23_value", "ccr_matrix.lemma23_value", None),
    ("ccr_matrix", "build_pair", "ccr_matrix.build_pair", None),
    ("ccr_matrix", "sgn_op", "ccr_matrix.sgn_op", lambda a, r: a[0].nbytes),
    ("ccr_matrix", "write_norm_study_csv", "cli.artifact_write", None),
    ("warren_sim", "quad_form_C", "warren_sim.quad_form_C", None),
    ("warren_sim", "lemma43_table", "warren_sim.lemma43_table", None),
    ("warren_sim", "per_path_integrand", "warren_sim.per_path_integrand", None),
    ("warren_sim", "sample_path", "warren_sim.sample_path", None),
    ("warren_sim", "local_minima", "warren_sim.local_minima",
     lambda a, r: len(r)),
    ("warren_sim", "replica_rng", "warren_sim.replica_rng", None),
    ("warren_sim", "SuperchaosVector.weight_profile",
     "warren_sim.weight_profile", None),
    ("warren_sim", "obstruction_report", "warren_sim.obstruction_report", None),
    ("warren_sim", "write_lemma43_csv", "cli.artifact_write", None),
    ("warren_sim", "write_obstruction_json", "cli.artifact_write", None),
    ("gaussian_algebra", "relation_suite", "gaussian_algebra.relation_suite", None),
    ("gaussian_algebra", "ccr_phase_residual",
     "gaussian_algebra.ccr_phase_residual", None),
    ("gaussian_algebra", "random_unit_span",
     "gaussian_algebra.random_unit_span", None),
    ("gaussian_algebra", "random_span", "gaussian_algebra.random_span", None),
    ("gaussian_algebra", "step_inner", "gaussian_algebra.step_inner", None),
    ("gaussian_algebra", "span_inner", "gaussian_algebra.span_inner", None),
    ("gaussian_algebra", "gram_matrix", "gaussian_algebra.gram_matrix", None),
    ("gaussian_algebra", "apply_automorphism",
     "gaussian_algebra.apply_automorphism", None),
    ("cli", "main", "cli.main", None),
)


class BenchError(Exception):
    """The benchmark cannot run: missing sources or a failed set-up."""


@dataclass(frozen=True)
class CallResult:
    label: str
    wall: float
    stdout: str
    artifact: bytes | None
    problems: tuple[str, ...]


@dataclass(frozen=True)
class Iteration:
    wall: float
    scaled: float  # wall time at the reference speed, see reference_seconds
    calls: tuple[CallResult, ...]


_REF_RNG = random.Random(0)
_REF_MATRIX = [[_REF_RNG.random() for _ in range(REF_DIM)] for _ in range(REF_DIM)]


def reference_kernel() -> None:
    """Fixed work that slows down with a loaded host as the workloads do:
    Python object churn, as in gaussian_algebra, and a small dense
    eigensolve, as in ccr_matrix."""
    import numpy
    table = {}
    for i in range(REF_OBJECTS):
        z = complex(i, 1.0) * complex(0.5, -i)
        table[(i, i % 13)] = [z, abs(z), (z.real, z.imag)]
    sorted(table.values(), key=lambda v: v[1])
    a = numpy.array(_REF_MATRIX)
    numpy.linalg.eigh(a + a.T)


def reference_seconds() -> float:
    """Median time of the reference kernel: the host's speed right now.

    A shared host swings between fast and slow spells of several seconds
    each, up to 1.7x apart.  Each timing is therefore scaled by
    REFERENCE_S over the mean of reference_seconds() just before and just
    after it: the time it would take on a host that runs the kernel in
    REFERENCE_S.  Work the program saves shows in full in the scaled
    time, while the host's spells cancel for the most part."""
    times = []
    for _ in range(REFERENCE_REPS):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(wall: float, before: float, after: float) -> float:
    return wall * REFERENCE_S / (0.5 * (before + after))


def load_cli(root: Path):
    """Import splitnoise.cli from root/src, never from an installed copy."""
    src = root / "src"
    if not (src / "splitnoise" / "__init__.py").is_file():
        raise BenchError(f"no package sources under {src}")
    sys.path.insert(0, str(src))
    import splitnoise.cli as cli
    if Path(cli.__file__).resolve().parent != (src / "splitnoise").resolve():
        raise BenchError(f"imported {cli.__file__}, not the checkout's sources")
    return cli


def run_call(cli_main, call: workloads.Call) -> CallResult:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            status = cli_main(list(call.argv))
    except SystemExit as exc:  # argparse rejected the arguments
        status = exc.code
    except Exception:  # a crash is a failed call, not a benchmark failure
        traceback.print_exc()
        status = "exception"
    wall = time.perf_counter() - start
    stdout = buf.getvalue()
    if status != 0:
        return CallResult(call.label, wall, stdout, None, (f"exit {status}",))
    artifact = call.out.read_bytes() if call.out else None
    try:
        problems = call.check(stdout, artifact)
    except (ValueError, KeyError, UnicodeDecodeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return CallResult(call.label, wall, stdout, artifact, tuple(problems))


def run_iteration(cli_main, calls, speeds: list[float]) -> Iteration:
    """The calls one after another, each followed by a reference timing
    appended to speeds, whose last entry must precede the first call."""
    results, scaled = [], 0.0
    for call in calls:
        results.append(run_call(cli_main, call))
        speeds.append(reference_seconds())
        scaled += scale(results[-1].wall, speeds[-2], speeds[-1])
    return Iteration(sum(r.wall for r in results), scaled, tuple(results))


def measure(cli_main, workload, budget, tracer=None, limit=None,
            speeds=None) -> list[Iteration]:
    """Iterations back to back until the next one would overrun budget."""
    done: list[Iteration] = []
    speeds = [] if speeds is None else speeds
    start = time.perf_counter()
    speeds.append(reference_seconds())
    while True:
        if tracer is not None:
            tracer.iteration = len(done)
        done.append(run_iteration(cli_main, workload.calls, speeds))
        elapsed = time.perf_counter() - start
        if elapsed * (len(done) + 1) / len(done) > budget or len(done) == limit:
            return done


def count_failures(iterations) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages); an output that differs from the
    first iteration's fails its call."""
    attempted = failed = 0
    messages = []
    first = iterations[0].calls
    for k, it in enumerate(iterations):
        for ref, res in zip(first, it.calls):
            problems = list(res.problems)
            if (res.stdout, res.artifact) != (ref.stdout, ref.artifact):
                problems.append("output differs from the first iteration's")
            attempted += 1
            if problems:
                failed += 1
                messages += [f"iteration {k} {res.label}: {p}" for p in problems]
    return attempted, failed, messages


def setup(cli_main, workload) -> None:
    for call in workload.setup:
        result = run_call(cli_main, call)
        if result.problems:
            raise BenchError(f"set-up call {call.label} failed: "
                             + "; ".join(result.problems))


def setup_seconds(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Wall times of fresh processes that import, set up and warm up, as
    measured and scaled to the reference speed."""
    walls, scaled = [], []
    before = reference_seconds()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--workload", name, "--seed", str(seed), "--setup-only"],
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
        after = reference_seconds()
        scaled.append(scale(walls[-1], before, after))
        before = after
    return walls, scaled


def blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    import numpy
    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                           "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(workload, seed: int) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload.name, "seed": seed,
            "cli_seeds": workload.cli_seeds,
            "argv": [list(c.argv) for c in workload.calls],
            "loop": "closed, 1 client", "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(),
            "numpy": numpy.__version__, "python": platform.python_version(),
            "git_commit": git_commit(ROOT)}


def declared_metrics() -> tuple[dict, dict]:
    """{name: unit} of the end-to-end and per-layer metrics."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def stage_walls(iterations, label: str) -> list[float]:
    return [c.wall for it in iterations for c in it.calls if c.label == label]


def rate(workload, iterations, metric: str) -> float:
    """Units of work per second of the stage named in workload.rates."""
    if metric not in workload.rates:
        return 0.0
    label, units = workload.rates[metric]
    return units / statistics.median(stage_walls(iterations, label))


def layer_metrics(names, workload, reference, traced, tracer, failed_frac) -> dict:
    totals = spans.per_iteration_totals(tracer)
    per_iter = spans.median_over_iterations
    special = {
        "trace_overhead_frac": lambda: statistics.median(
            it.scaled for it in traced) / reference[0].scaled - 1.0,
        "failed_frac": lambda: failed_frac,
        "cli.artifact_bytes": lambda: sum(
            len(c.artifact or b"") for c in reference[0].calls),
        "ccr_matrix.sgn_op.bytes_in": lambda: per_iter(
            totals, "ccr_matrix.sgn_op", "amount"),
        "warren_sim.minima_per_path": lambda: (
            per_iter(totals, "warren_sim.local_minima", "amount")
            / max(1, per_iter(totals, "warren_sim.sample_path", "calls"))),
    }
    values = {}
    for name in names:
        if name in special:
            values[name] = special[name]()
        elif name.endswith("_per_s"):
            values[name] = rate(workload, reference, name)
        else:
            span, field = name.rsplit(".", 1)
            if field not in ("calls", "s", "self_s"):
                raise BenchError(f"no rule for per-layer metric {name}")
            values[name] = per_iter(totals, span, field)
    # counts are exact: print them as integers
    return {name: int(v) if float(v).is_integer() and names[name] in ("count", "B")
            else v for name, v in values.items()}


def percentile_line(walls) -> str:
    """Highest percentile with at least ten samples beyond it, if any."""
    ordered = sorted(walls)
    rank = len(ordered) - 10
    if rank < 1 or 100 * rank // len(ordered) <= 50:
        return (f"pipeline_s samples = {len(ordered)} "
                "(too few for a percentile with ten samples beyond it)")
    pct = 100 * rank // len(ordered)
    return (f"pipeline_s samples = {len(ordered)}\n"
            f"pipeline_s.p{pct} = {ordered[rank - 1]!r} s")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # set-up timing probe
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def traced_run(cli, workload, seconds):
    """One untraced reference iteration, then traced ones."""
    reference = measure(cli.main, workload, seconds, limit=1)
    tracer = spans.Tracer()
    tracer.install("splitnoise", TRACED)
    proxy = types.SimpleNamespace(**vars(json))
    proxy.dump = tracer.wrap("cli.artifact_write", json.dump)
    tracer.patch(cli, "json", proxy)  # warren-mass writes its artifact inline
    try:
        traced = measure(cli.main, workload, seconds - reference[0].wall, tracer,
                         limit=MAX_TRACED_ITERATIONS)
    finally:
        tracer.uninstall()
    return reference, traced, tracer


def report_untraced(workload, iterations, setup_walls, speeds,
                    failed_frac) -> None:
    """Report lines beyond the end-to-end metrics: samples, unscaled
    times, the host's speed, rates and stages."""
    print(percentile_line([it.scaled for it in iterations]))
    print(f"pipeline_s.unscaled_median = "
          f"{statistics.median(it.wall for it in iterations)!r} s")
    print(f"setup_s.unscaled_median = {statistics.median(setup_walls)!r} s")
    print(f"reference kernel = {statistics.median(speeds)!r} s median, "
          f"{min(speeds)!r} s to {max(speeds)!r} s "
          f"({len(speeds)} timings; scaled timings assume {REFERENCE_S} s)")
    print(f"failed_frac = {failed_frac!r} fraction")
    for metric in workload.rates:
        print(f"{metric} = {rate(workload, iterations, metric)!r} 1/s")
    for label in dict.fromkeys(c.label for c in workload.calls):
        walls = stage_walls(iterations, label)
        print(f"stage {label} = {statistics.median(walls)!r} s per call")


def run(args) -> dict:
    """One benchmark run; returns the result object."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, THREADS)
    cli = load_cli(ROOT)
    work = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = workloads.build(args.workload, args.seed, work, args.size)
        setup(cli.main, workload)
        if args.setup_only:
            return {}
        end_to_end, per_layer = declared_metrics()
        setup_walls, setups = setup_seconds(args.workload, args.seed)
        print("environment " + json.dumps(environment(workload, args.seed)))
        if args.trace:
            reference, traced, tracer = traced_run(cli, workload, args.seconds)
            attempted, failed, messages = count_failures(reference + traced)
            units = per_layer
            values = layer_metrics(per_layer, workload, reference, traced,
                                   tracer, failed / attempted)
            tracer.write(OUT_DIR / f"trace-{args.workload}.csv.gz",
                         f"workload {args.workload}, seed {args.seed}")
        else:
            speeds: list[float] = []
            iterations = measure(cli.main, workload, args.seconds, speeds=speeds)
            attempted, failed, messages = count_failures(iterations)
            units = end_to_end
            values = {"setup_s": statistics.median(setups),
                      "pipeline_s": statistics.median(
                          it.scaled for it in iterations),
                      "peak_rss_mb": resource.getrusage(
                          resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            report_untraced(workload, iterations, setup_walls, speeds,
                            failed / attempted)
        for msg in messages:
            print(f"check failed: {msg}", file=sys.stderr)
        for name, unit in units.items():
            print(f"{name} = {values[name]!r} {unit}")
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {name: {"value": values[name], "unit": unit}
                            for name, unit in units.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.setup_only:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
