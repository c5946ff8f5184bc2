"""Monte Carlo model of the noise of splitting on a finite grid.

Warren's noise is a Brownian path plus one independent fair sign at
each of its local minima.  Here a path is a walk with N(0, 1/m)
increments on the grid {0, 1/m, ..., 1} (sample_path); its minima, the
interior strict three-point local minima, are derived from the walk
(local_minima), and its signs are a separate draw, draw_signs(path,
rng), one fair +-1 per minimum from the same stream after the
increments.  First-superchaos vectors carry one sign factor per term,

    f(path, signs) = sum_j eta_j g(t_j, path),

with the coefficient profile g drawn from a two-member catalog:

* W  (deterministic):   g(t, path) = w(t), w real piecewise constant;
* WS (sign modulated):  g(t, path) = w(t) * sgn(B_b - B_a).

Quadratic forms of multiplication-type operators integrate the signs
out exactly: the per-path integrand of <C_psi> is sum_j |g(t_j)|^2
psi(t_j, path), so only the walks are sampled and no signs are drawn.
Replica r draws from the Philox stream keyed (master_seed, r), which
makes every estimate reproducible independently of scheduling.

Everything is computed on blocks of walks, one walk per row: draw_walks
fills a (rows, h + 1) array from one generator per row, and the minima
are a strict-minimum mask over the grid.  An evaluator psi returns psi
on the grid for a block, and every sum over a profile's minima runs
over the fixed grid range [0, end) of the profile (column 0 is never a
minimum), never up to the drawn reach, so a prefix and the whole walk
give the same bits.  sample_path, per_path_integrand and the chaos
evaluations are the one-row case of the same code.

Both Monte Carlo drivers, quad_form_C and lemma43_table, are block
reductions run by one replica engine, run_replicas(seed, samples, m,
per_block, reach, threads): a map over contiguous chunks of
REPLICA_CHUNK replicas, on at most `threads` workers of a thread pool
(inline when one worker suffices), that shares no writable state.  A
chunk draws its replicas a block of about 0.5 MB of walks at a time into
a buffer of its own, re-keying one Philox generator to (master_seed, r),
counter 0 and an empty buffer, for each row r: the state
replica_rng(master_seed, r) starts from.  One cumsum builds the block's
walks, the driver's reduction turns them into one result per walk, and
the chunk returns its results in replica order; the engine joins the
chunks in the same order.  The drivers check their inputs and compute
the weight profile once per run, before the engine starts, and reduce
each column to a mean and a standard error in replica order
afterwards, so every estimate is bit-identical for any thread count.

The threads overlap because a worker holds the interpreter lock only
between numpy calls, and a block makes a few of those (one normal fill
per row, then a few whole-block passes); the normal fills and the ufunc
loops release the lock.

Each replica draws its walk only up to the driver's reach: the last
grid index that any of its columns reads, computed from the driver's
own inputs.  lemma43_table reads up to m//2 plus its largest probe
offset; quad_form_C reads up to the end of the weight profile, the
probe times a, b of a WS profile and the reach its evaluator must
declare.  The prefix is exact, not an approximation: Philox is a
counter-based stream, and a normal fill consumes it one element at a
time, so the first h draws of a fill of size m are bit for bit the
draws of a fill of size h.  The prefix therefore holds the same
values[0..h] and the same minima below h as the whole walk.  An index
past the prefix raises IndexError.  lemma43_table sums the weights per
bucket and evaluates each bucket's sign probe once, at the bucket's
edge, instead of once per minimum.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .ccr_matrix import _write_csv
from .gaussian_algebra import (StepFunction, _check_count, _check_seed,
                               _finite_amplitude, _finite_real,
                               _positive_horizon, _whole, step_product)

__all__ = [
    "WarrenPath",
    "SuperchaosVector",
    "PsiSpec",
    "McEstimate",
    "Lemma43Row",
    "ObstructionReport",
    "DEFAULT_GRID_M",
    "DEFAULT_SAMPLES",
    "LEMMA43_HEADER",
    "REPLICA_CHUNK",
    "replica_rng",
    "draw_walks",
    "local_minima",
    "sample_path",
    "draw_signs",
    "half_interval_profile",
    "chaos_eval",
    "per_path_integrand",
    "run_replicas",
    "constant_evaluator",
    "endpoint_sign_evaluator",
    "quad_form_C",
    "lemma43_table",
    "chaos_eval_under_probe",
    "apply_matched_sign_probe",
    "mc_coherent_sign_probe",
    "best_row",
    "obstruction_report",
    "write_lemma43_csv",
    "write_obstruction_json",
]

DEFAULT_GRID_M = 2 ** 14
DEFAULT_SAMPLES = 10 ** 4
REPLICA_CHUNK = 64  # replicas per work item of run_replicas
# walk values per block of run_replicas: at most 512 KiB, 7 walks at h = 8196
_WALK_BLOCK = 2 ** 16

LEMMA43_HEADER = "n,delta,m,samples,estimate,stderr,mass,mass_stderr,seed"


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Philox stream keyed (master_seed, replica), both integers in
    [0, 2**63)."""
    key = np.array([_check_seed(master_seed),
                    _check_seed(replica, "replica")], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _replica_streams(master_seed: int, replicas: range):
    """Yield, for each replica r of a nonempty range, a generator that
    draws bit for bit what replica_rng(master_seed, r) draws.

    One generator serves the whole range: built by replica_rng (which
    validates the seed), then set, before each replica, to the state
    replica_rng starts from, key (master_seed, r), counter 0 and an
    empty buffer, whatever the previous replica drew."""
    rng = replica_rng(master_seed, replicas[0])
    bitgen = rng.bit_generator
    fresh = bitgen.state
    key = fresh["state"]["key"]
    for r in replicas:
        key[1] = r
        bitgen.state = fresh
        yield rng


def draw_walks(m: int, rngs, walks: np.ndarray) -> np.ndarray:
    """Fill each row of walks, a (rows, h + 1) float array, with a walk
    on the 1/m grid drawn to index h from the next generator of rngs, and
    return walks.

    A row is 0 followed by the running sum of h N(0, 1/m) increments,
    bit for bit rng.normal(0.0, sqrt(1/m), size=h) and its cumsum: the
    normal fill draws the same standard normals and scales them by the
    same factor, and one cumsum over the block adds along each row in
    order.  rngs must yield at least one generator per row, or ValueError
    (a row without one would keep the buffer's old contents); only one
    generator per row is taken from it, and the rest is not touched.
    """
    rngs = iter(rngs)
    for row in walks:
        rng = next(rngs, None)
        if rng is None:
            raise ValueError("rngs ran out before the rows of walks")
        rng.standard_normal(out=row[1:])
    steps = walks[:, 1:]
    np.multiply(steps, math.sqrt(1.0 / m), out=steps)
    walks[:, 0] = 0.0
    np.cumsum(walks, axis=1, out=walks)
    return walks


def _minima_mask(walks: np.ndarray, end: int) -> np.ndarray:
    """(rows, end) bool: column j marks walks[:, j-1] > walks[:, j] <
    walks[:, j+1], strict on both sides, for 0 < j < end; column 0 is
    False.  IndexError unless the walks are drawn to index end."""
    if walks.shape[1] <= end:
        raise IndexError(f"walk drawn to index {walks.shape[1] - 1}, "
                         f"{end} needed")
    mask = np.empty((len(walks), end), dtype=bool)
    mask[:, 0] = False
    mid = walks[:, 1:end]
    np.less(mid, walks[:, :end - 1], out=mask[:, 1:])
    mask[:, 1:] &= mid < walks[:, 2:end + 1]
    return mask


def local_minima(values) -> np.ndarray:
    """Interior indices j with values[j-1] > values[j] < values[j+1].

    Strict on both sides; ties never qualify; endpoints never returned.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) < 3:
        raise ValueError("need at least three values")
    return np.flatnonzero(_minima_mask(v[None, :], len(v) - 1)[0])


@dataclass(frozen=True)
class WarrenPath:
    """A drawn walk and its strict local minima.

    values holds the walk on the grid {0, 1/m, ..., 1} up to some index
    h <= m (h + 1 entries, values[0] == 0; the whole walk when h == m),
    so m is a whole number of at least 2; a whole float becomes the int
    it equals.  minima is derived from values, not passed:
    local_minima(values), the complete ascending set of interior strict
    minima below h.  The fair signs at the minima are a separate draw,
    draw_signs.
    """

    m: int
    values: np.ndarray
    minima: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "m", _check_grid(self.m, 2))
        if not 3 <= len(self.values) <= self.m + 1:
            raise ValueError("values must have 3 to m + 1 entries")
        if self.values[0] != 0.0:
            raise ValueError("path must start at 0")
        object.__setattr__(self, "minima", local_minima(self.values))


def sample_path(m: int, rng: np.random.Generator,
                reach: int | None = None) -> WarrenPath:
    """Walk with N(0, 1/m) increments on the 1/m grid, drawn up to index
    h = reach (2 <= h <= m; the whole walk, h = m, by default): the
    one-row block of draw_walks.  m (at least 4) and reach are whole
    numbers, checked before any draw; whole floats become ints.

    values[0..h] and the minima below h are bit for bit those of the
    whole walk, because the stream is consumed one draw at a time.
    draw_signs(path, rng) on the same rng then draws the path's signs.
    """
    m = _check_grid(m)
    h = m if reach is None else _whole(reach, "reach", 2, m + 1,
                                       "lie in [2, m]")
    return WarrenPath(m, draw_walks(m, [rng], np.empty((1, h + 1)))[0])


def draw_signs(path: WarrenPath, rng: np.random.Generator) -> np.ndarray:
    """One independent fair sign per minimum of path, in the order of
    path.minima, as +-1 int8."""
    return (2 * rng.integers(0, 2, size=len(path.minima)) - 1).astype(np.int8)


@dataclass(frozen=True)
class SuperchaosVector:
    """First-superchaos coefficient profile from the two-member catalog.

    A WS profile's a and b are finite real grid times, 0 <= a < b <= 1,
    kept as floats; each refusal is a ValueError, naming a or b when it is
    not a number."""

    kind: str
    w: StepFunction
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        if self.kind not in ("W", "WS"):
            raise ValueError("kind must be 'W' or 'WS'")
        if self.w.horizon != 1.0:
            raise ValueError("profile lives on [0, 1]")
        if np.any(self.w.values.imag != 0.0):
            raise ValueError("profile weight must be real")
        if self.kind == "WS":
            a, b = _finite_real(self.a, "a"), _finite_real(self.b, "b")
            if not 0.0 <= a < b <= 1.0:
                raise ValueError("WS profile needs grid times 0 <= a < b <= 1")
            object.__setattr__(self, "a", a)
            object.__setattr__(self, "b", b)

    @classmethod
    def deterministic(cls, w: StepFunction) -> "SuperchaosVector":
        return cls("W", w)

    @classmethod
    def sign_modulated(cls, w: StepFunction, a: float, b: float) -> "SuperchaosVector":
        return cls("WS", w, a, b)

    def weight_profile(self, m: int) -> np.ndarray:
        """w at every grid time j/m (sign factor excluded)."""
        return self.w.value_at(np.arange(m + 1) / m).real


def _grid_index(t: float, m: int, name: str) -> int:
    """Index j = t m of a grid time t in [0, 1] on the 1/m grid; ValueError
    naming the parameter when t is off the grid or outside [0, 1], a
    non-finite t included."""
    if not math.isfinite(float(t) * m):
        raise ValueError(f"{name} = {t} lies outside [0, 1]")
    j = round(t * m)
    if abs(t * m - j) > 1e-9:
        raise ValueError(f"{name} = {t} is not aligned to the 1/{m} grid")
    if not 0 <= j <= m:
        raise ValueError(f"{name} = {t} lies outside [0, 1]")
    return int(j)


def _increment_sign(values: np.ndarray, j, d: int):
    """sgn(B[j + d] - B[j]) at a grid index j (or an index array) of a
    walk or, along the last axis, of a block of walks; an exact tie
    gives 0."""
    return np.sign(values[..., j + d] - values[..., j])


def _endpoint_sign(values: np.ndarray, m: int, a: float, b: float):
    """sgn(B_b - B_a) on a walk or each walk of a block, by
    _increment_sign."""
    ia = _grid_index(a, m, "a")
    return _increment_sign(values, ia, _grid_index(b, m, "b") - ia)


def _sign_factor(f: SuperchaosVector, walks: np.ndarray, m: int, power: int):
    """f's sign factor sgn(B_b - B_a)**power on a walk or each walk of a
    block, by _endpoint_sign, or None for a W profile, whose factor is 1."""
    return (_endpoint_sign(walks, m, f.a, f.b) ** power if f.kind == "WS"
            else None)


def _weights(f: SuperchaosVector, m: int) -> tuple[np.ndarray, int, int]:
    """f's weight w on the 1/m grid, the end of its sums and how far it
    reads a walk.  Sums over f's minima run over the grid range
    [0, end): end is one past the last nonzero weight, at most m (minima
    are interior) and 1 for a zero profile.  f reads a walk up to end,
    which finds every weighted minimum, and up to the probe indices a
    and b of a WS profile."""
    wp = f.weight_profile(m)
    nonzero = np.flatnonzero(wp)
    end = min(int(nonzero[-1]) + 1, m) if len(nonzero) else 1
    reach = end
    if f.kind == "WS":
        reach = max(reach, _grid_index(f.a, m, "a"), _grid_index(f.b, m, "b"))
    return wp, end, reach


def _weigh(chosen: np.ndarray, weights: np.ndarray,
           factor: np.ndarray | None, walks: np.ndarray) -> np.ndarray:
    """weights[j] * factor[r] where chosen[r, j] holds and 0 elsewhere,
    written over the first chosen.shape[1] columns of walks; factor is a
    per-walk sign factor s**power, or None for a W profile.  Copying the
    bool array in and then scaling it needs no cast buffer, as a mixed
    bool and float product would."""
    terms = walks[:, :chosen.shape[1]]
    np.copyto(terms, chosen)
    terms *= weights[:chosen.shape[1]]
    if factor is not None:
        terms *= factor[:, None]
    return terms


def _grid_terms(f: SuperchaosVector, weights: np.ndarray, power: int,
                end: int, walks: np.ndarray, m: int, psi) -> np.ndarray:
    """(rows, end) terms weights[j] * s**power * psi(t_j) at the strict
    minima j < end of each walk, 0 elsewhere, where s is f's sign factor
    on the walk (_sign_factor; 1 for a W profile).

    The terms overwrite walks[:, :end], after everything is read from
    the walks.  They do not depend on how far past end the walks are
    drawn, so every sum over them agrees bit for bit on a prefix and on
    the whole walk; IndexError unless the walks reach end."""
    p = np.broadcast_to(psi(walks, m), walks.shape)[:, :end]
    terms = _weigh(_minima_mask(walks, end), weights,
                   _sign_factor(f, walks, m, power), walks)
    terms *= p
    return terms


def half_interval_profile() -> SuperchaosVector:
    """Deterministic profile with unit weight on (0, 1/2)."""
    return SuperchaosVector.deterministic(StepFunction.indicator(0.0, 0.5, 1.0))


def chaos_eval(f: SuperchaosVector, path: WarrenPath, signs: np.ndarray) -> float:
    """sum over minima of eta_j g(t_j, path), with signs eta drawn by
    draw_signs(path, rng); odd in the signs."""
    return chaos_eval_under_probe(f, path, signs, constant_evaluator(1.0))


# --- evaluators: callables (walks, m) -> psi on the grid ----------------
# An evaluator takes a (rows, h + 1) block of walks on the 1/m grid and
# returns psi(t_j, walk) at every grid index j <= h of every walk, as a
# new array or a scalar that broadcasts to the block's shape.  An
# evaluator passed to quad_form_C must declare reach(m), the last grid
# index it reads of a walk; quad_form_C draws no further than that.
# Every factory below declares it.

def constant_evaluator(c: float):
    value = float(c)

    def psi(walks: np.ndarray, m: int) -> float:
        return value
    psi.reach = lambda m: 0
    return psi


def endpoint_sign_evaluator(a: float, b: float):
    """psi(t, path) = sgn(B_b - B_a) for t < 1/2, else 0."""
    def psi(walks: np.ndarray, m: int) -> np.ndarray:
        sign = _endpoint_sign(walks, m, a, b)
        return np.where(np.arange(walks.shape[1]) < m / 2, sign[:, None], 0.0)
    psi.reach = lambda m: max(_grid_index(a, m, "a"), _grid_index(b, m, "b"))
    return psi


@dataclass(frozen=True)
class PsiSpec:
    """Bucket decomposition on (0, 1/2): n buckets of width 1/(2n), each
    probed by the path increment over [k/(2n), k/(2n) + delta].  n is a
    whole number of at least 1 (a whole float becomes the int it equals)
    and delta, converted with float(), lies in (0, 1/2)."""

    n: int
    delta: float

    def __post_init__(self):
        object.__setattr__(self, "n", _check_count(self.n, "n"))
        try:
            delta = float(self.delta)
        except (TypeError, ValueError):
            delta = math.nan
        if not 0.0 < delta < 0.5:
            raise ValueError(f"delta must lie in (0, 0.5), got {self.delta!r}")
        object.__setattr__(self, "delta", delta)

    def alignment(self, m: int) -> tuple[int, int]:
        """(bucket width, probe offset) in grid steps; raises if misaligned."""
        if m % (2 * self.n) != 0:
            raise ValueError(f"2n = {2 * self.n} must divide m = {m}")
        d = _grid_index(self.delta, m, "delta")
        if d < 1:
            raise ValueError("delta must be at least one grid step")
        return m // (2 * self.n), d


def _bucket_signs(walks: np.ndarray, m: int, step: int, d: int) -> np.ndarray:
    """Increment sign over d grid steps at each right bucket edge step,
    2 step, ..., m // 2, one column per bucket of width step."""
    return _increment_sign(walks, np.arange(step, m // 2 + 1, step), d)


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


def _path_terms(f: SuperchaosVector, path: WarrenPath, power: int,
                psi) -> np.ndarray:
    """The one-row case of _grid_terms on path, with f's weight and sign
    factor to the given power: one term per grid index below the end of
    f's sums."""
    wp, end, _ = _weights(f, path.m)
    walks = np.array(path.values, ndmin=2)  # a copy: the terms overwrite it
    return _grid_terms(f, wp ** power, power, end, walks, path.m, psi)[0]


def per_path_integrand(psi, f: SuperchaosVector, path: WarrenPath) -> float:
    """sum_j |g(t_j, path)|^2 psi(t_j, path): the signs are already
    integrated out, exactly, so this is the whole per-path quantity.
    The one-row case of quad_form_C's reduction, so it agrees bit for
    bit with quad_form_C's replica values."""
    return float(_path_terms(f, path, 2, psi).sum())


def _check_grid(m, low: int = 4) -> int:
    """The grid size m as an int; ValueError unless it is a whole number
    of at least low: 4 for a sampled grid, 2 for a WarrenPath's."""
    return _whole(m, "m", low, math.inf, f"be at least {low}")


def _check_run(samples: int, m: int, threads: int) -> tuple[int, int, int]:
    """samples, m and threads as ints; ValueError unless samples and
    threads are whole numbers of at least 1 and m one of at least 4."""
    return (_check_count(samples, "samples"), _check_grid(m),
            _check_count(threads, "threads"))


def run_replicas(seed: int, samples: int, m: int, per_block, reach: int,
                 threads: int = 1) -> np.ndarray:
    """per_block's results for the walks of replicas 0..samples-1,
    concatenated along the first axis in replica order: per_block(walks)
    takes a block holding the walks of replicas r..r+k-1, one per row,
    and returns one result row (or value) per walk.

    The walk of replica r is sample_path(m, replica_rng(seed, r), h)'s,
    whatever worker draws it and whatever block holds it: the walk up to
    h = reach clamped to [2, m] (a zero weight profile gives reach 1).
    reach is a whole number of at least 0, checked with samples, m and
    threads before any draw; a whole float becomes the int it equals.
    No signs are drawn.  reach must be the last grid index per_block
    reads; reading past it raises IndexError.  per_block may overwrite
    the walks it is given and may return a view of them; it must be safe
    to call from several threads at once.

    Contiguous chunks of REPLICA_CHUNK replicas are mapped over by
    min(threads, chunks) pool workers, or inline when that is one, and
    share nothing writable.  A chunk draws its replicas, with
    draw_walks, in blocks of about 512 KiB of walks into one buffer of
    its own, copies each block's result before the next block reuses the
    buffer, and returns their concatenation; the chunks' results are
    joined in replica order, so the array does not depend on the thread
    count.  Blocks give the threads room to overlap: the lock-free normal
    fills and whole-block numpy passes dominate, not the interpreter's
    share.
    """
    samples, m, threads = _check_run(samples, m, threads)
    _check_seed(seed)
    chunk = REPLICA_CHUNK
    h = min(m, max(2, _whole(reach, "reach", 0, math.inf, "be at least 0")))
    rows = min(chunk, max(1, _WALK_BLOCK // (h + 1)))

    def run_chunk(lo: int) -> np.ndarray:
        hi = min(lo + chunk, samples)
        rngs = _replica_streams(seed, range(lo, hi))
        walks = np.empty((min(rows, hi - lo), h + 1))
        # np.array copies each result: per_block may return a view of the
        # walks, which the next block overwrites
        return np.concatenate([
            np.array(per_block(draw_walks(m, rngs, walks[:min(rows, hi - r)])))
            for r in range(lo, hi, rows)])

    starts = range(0, samples, chunk)
    workers = min(threads, len(starts))
    if workers == 1:
        return np.concatenate(list(map(run_chunk, starts)))
    # imported on first use, which keeps it out of the package's import
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(run_chunk, starts)))


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Mean and standard error of one nonempty column of replica values,
    summed in replica order; the standard error of one sample is 0."""
    v = np.ascontiguousarray(values)
    stderr = float(v.std(ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0
    return float(v.mean()), stderr


def _ratio_stderr(num: np.ndarray, den: np.ndarray) -> float:
    """Delta-method standard error of mean(num) / mean(den) over the same
    replicas: the standard error of the residuals num - ratio * den,
    divided by mean(den); 0.0 when mean(den) is 0."""
    den_mean = _mean_stderr(den)[0]
    if den_mean == 0.0:
        return 0.0
    ratio = _mean_stderr(num)[0] / den_mean
    return _mean_stderr(num - ratio * den)[1] / den_mean


def quad_form_C(psi, f: SuperchaosVector, samples: int, seed: int,
                m: int = DEFAULT_GRID_M, threads: int = 1) -> McEstimate:
    """Monte Carlo of the quadratic form <C_psi> on the profile vector f.

    psi is an evaluator (a block of walks -> psi on the grid) that
    declares psi.reach(m), as every evaluator factory's does.  With
    psi == 1 this estimates ||f||^2, the total mass identity.  Each path
    contributes per_path_integrand(psi, f, path), bit for bit, evaluated
    a block of walks at a time against the weight profile computed once
    for the run.  Walks are drawn up to the end of the weight profile,
    the probe times of a WS profile and psi.reach(m).
    """
    samples, m, threads = _check_run(samples, m, threads)
    wp, end, reach = _weights(f, m)
    w2 = wp * wp
    reach = max(reach, psi.reach(m))

    def per_block(walks: np.ndarray) -> np.ndarray:
        return _grid_terms(f, w2, 2, end, walks, m, psi).sum(axis=1)

    vals = run_replicas(seed, samples, m, per_block, reach, threads)
    mean, stderr = _mean_stderr(vals)
    return McEstimate(mean, stderr, samples, int(seed))


@dataclass(frozen=True)
class Lemma43Row:
    n: int
    delta: float
    m: int
    samples: int
    estimate: float
    stderr: float
    mass: float
    mass_stderr: float
    u_mass: float
    u_mass_stderr: float
    seed: int
    # delta-method standard error of u_mass / mass over the shared paths;
    # 0.0 where it is not known, as for rows read back from the CSV
    u_ratio_stderr: float = 0.0


def lemma43_table(f: SuperchaosVector, n_list, delta_list, m: int,
                  samples: int, seed: int, threads: int = 1) -> list[Lemma43Row]:
    """Refinement table of <C_psi_{n,delta}> over shared path replicas.

    Rows carry the bucket-probe estimate, the mass estimate (psi == 1)
    and the minimum-anchored set mass u_mass of {B_{t+delta} > B_t},
    all from the same paths (common random numbers), with the
    delta-method standard error of the ratio u_mass / mass.  The mass
    column is quad_form_C's with psi == 1, bit for bit.  The profile
    must vanish on [1/2, 1].  Walks are drawn up to m // 2 plus the
    largest probe offset (and the probe times of a WS profile), the last
    grid index that any column reads.  Every (n, delta) pair is checked
    before any work by PsiSpec, whose whole n and float delta label its
    rows.
    """
    samples, m, threads = _check_run(samples, m, threads)
    delta_list = list(delta_list)
    specs = [[PsiSpec(n, d) for d in delta_list] for n in n_list]
    if not specs or not specs[0]:
        raise ValueError("n_list and delta_list must be nonempty")
    n_list = [row[0].n for row in specs]
    delta_list = [spec.delta for spec in specs[0]]
    aligned = [[spec.alignment(m) for spec in row] for row in specs]
    steps = [row[0][0] for row in aligned]
    offsets = [offset for _, offset in aligned[0]]
    wp, end, reach = _weights(f, m)
    half = m // 2
    if np.any(wp[half:] != 0.0):
        raise ValueError("profile must be supported in (0, 1/2)")
    w2 = wp[:half] ** 2
    reach = max(half + max(offsets), reach)
    k = len(delta_list)

    # columns: mass, then u_mass per delta, then the estimate per (n, delta)
    def per_block(walks: np.ndarray) -> np.ndarray:
        factor = _sign_factor(f, walks, m, 2)
        mask = _minima_mask(walks, half)
        rising = []
        for off in offsets:
            up = walks[:, off:half + off] > walks[:, :half]
            up &= mask
            rising.append(up)
        # the probe is constant on a bucket: sum the weights per bucket
        # and evaluate the probe once per bucket, at its right edge
        probes = [[_bucket_signs(walks, m, step, off) for off in offsets]
                  for step in steps]
        # every read of the walks is done: from here on their first half
        # columns hold the weight terms of one column at a time
        out = np.empty((len(walks), 1 + k + len(n_list) * k))
        terms = _weigh(mask, w2, factor, walks)
        out[:, 0] = terms[:, :end].sum(axis=1)
        col = 1 + k
        for step, row in zip(steps, probes):
            bucket = terms.reshape(len(walks), -1, step).sum(axis=2)
            for probe in row:
                out[:, col] = (bucket * probe).sum(axis=1)
                col += 1
        for i, up in enumerate(rising, 1):
            out[:, i] = _weigh(up, w2, factor, walks)[:, :end].sum(axis=1)
        return out

    acc = run_replicas(seed, samples, m, per_block, reach, threads)
    mass, u = acc[:, 0], acc[:, 1:1 + k].T
    est = acc[:, 1 + k:].T.reshape(len(n_list), k, samples)
    mass_est = _mean_stderr(mass)
    u_est = [(*_mean_stderr(col), _ratio_stderr(col, mass)) for col in u]
    return [Lemma43Row(n, d, m, samples, *_mean_stderr(col), *mass_est,
                       u_mass, u_se, int(seed), ratio_se)
            for n, cols in zip(n_list, est)
            for d, col, (u_mass, u_se, ratio_se)
            in zip(delta_list, cols, u_est)]


def chaos_eval_under_probe(f: SuperchaosVector, path: WarrenPath,
                           signs: np.ndarray, psi) -> float:
    """(C_psi f)(path, signs): term k picks up the factor psi(t_k, path).
    The one-row case of the grid terms that quad_form_C sums, with f's
    weight and sign factor to the first power and one sign per minimum."""
    if np.shape(signs) != path.minima.shape:
        raise ValueError("one sign per minimum required")
    terms = _path_terms(f, path, 1, psi)
    keep = np.searchsorted(path.minima, len(terms))
    terms[path.minima[:keep]] *= signs[:keep]
    return float(terms.sum())


def apply_matched_sign_probe(f: SuperchaosVector) -> SuperchaosVector:
    """Exact action of C_psi, psi = 1_{t < 1/2} sgn(B_b - B_a) (the
    endpoint_sign_evaluator(a, b)), on the WS vector carrying the same
    probe: the probe squares against the profile's own sign factor and
    the result is the deterministic vector with profile w * 1_{(0, 1/2)}
    (equality per path off sign ties)."""
    if f.kind != "WS":
        raise ValueError("matched probe applies to a WS profile")
    return SuperchaosVector.deterministic(
        step_product(f.w, half_interval_profile().w))


def mc_coherent_sign_probe(zeta: float, t: float, samples: int,
                           seed: int) -> McEstimate:
    """Path-sign probe E[sgn B_t] under the coherent tilt |Exp(zeta)|^2.

    Increments after t integrate out, so B_t ~ N(0, t) is sampled
    directly and reweighted by exp(2 Re(zeta) B_t); the ratio estimator
    targets 2 Phi(2 Re(zeta) sqrt(t)) - 1.  The mean is
    sum(w s) / sum(w), with w the weights and s = sgn B_t, and its
    standard error is _ratio_stderr's delta-method one, sample standard
    deviations with the n - 1 divisor like every other standard error of
    the package.  Before any draw, ValueError unless t is positive and
    finite, zeta finite and samples a whole number of at least 2; a whole
    float becomes the int it equals.
    """
    t = _positive_horizon(t)
    zeta = _finite_amplitude(zeta)
    samples = _whole(samples, "samples", 2, math.inf, "be at least 2")
    g = replica_rng(seed, 0)
    endpoint = g.normal(0.0, math.sqrt(t), size=samples)
    w = np.exp(2.0 * zeta.real * endpoint)
    ws = w * np.sign(endpoint)
    return McEstimate(float(np.sum(ws) / np.sum(w)), _ratio_stderr(ws, w),
                      samples, int(seed))


@dataclass(frozen=True)
class ObstructionReport:
    """Margin arithmetic joining the norm constant and the refinement table."""

    norm_value: float
    scheme: str
    N: int
    m_hat: float
    n: int
    delta: float
    grid_m: int
    samples: int
    margin: float
    master_seed: int
    versions: dict


def _environment_versions() -> dict:
    return {"python": platform.python_version(),
            "numpy": np.__version__,
            "splitnoise": __version__}


def best_row(rows):
    """The refinement row with the smallest delta, then the largest n."""
    return min(rows, key=lambda r: (r.delta, -r.n))


def obstruction_report(norm_value: float, lemma43_rows, f_mass: float | None = None,
                       *, scheme: str = "oscillator", n_dim: int = 0)\
        -> ObstructionReport:
    """Combine the two measurements into the non-extension margin.

    m_hat is the normalized estimate of the best_row (smallest delta,
    largest n), divided by f_mass when given and by that row's own mass
    estimate otherwise; margin = 3 m_hat - norm_value.  A positive margin
    is the quantitative contradiction.  The rows' estimate column is the
    edge-anchored bucket probe, whose mean is exactly zero on any grid;
    for the paper's margin pass rows whose estimate and stderr are the
    minimum-anchored u_mass and u_mass_stderr (dataclasses.replace), as
    acceptance criterion 9 does.  See the README section on criteria 8
    and 9.  n_dim, the dimension N of norm_value, is a whole number of at
    least 0, where 0 means not given.
    """
    n_dim = _whole(n_dim, "n_dim", 0, math.inf, "be at least 0")
    if not math.isfinite(float(norm_value)):
        raise ValueError(f"norm_value must be finite, got {norm_value!r}")
    rows = list(lemma43_rows)
    if not rows:
        raise ValueError("need at least one refinement row")
    best = best_row(rows)
    denom = float(f_mass) if f_mass is not None else best.mass
    if not 0.0 < denom < math.inf:
        raise ValueError(f"mass must be positive and finite, got {denom!r}")
    m_hat = best.estimate / denom
    return ObstructionReport(
        norm_value=float(norm_value), scheme=scheme, N=n_dim,
        m_hat=m_hat, n=best.n, delta=best.delta, grid_m=best.m,
        samples=best.samples, margin=3.0 * m_hat - float(norm_value),
        master_seed=best.seed, versions=_environment_versions())


def write_lemma43_csv(rows, path) -> None:
    """CSV artifact under LEMMA43_HEADER, written by ccr_matrix's
    _write_csv (UTF-8, LF, 12 significant digits); the u_mass columns
    are not written."""
    _write_csv(path, LEMMA43_HEADER,
               ([r.n, r.delta, r.m, r.samples, r.estimate, r.stderr, r.mass,
                 r.mass_stderr, r.seed] for r in rows))


def write_obstruction_json(report: ObstructionReport, path) -> None:
    """JSON artifact: the report's fields in order, UTF-8, trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(asdict(report), fh, ensure_ascii=False, indent=2)
        fh.write("\n")
