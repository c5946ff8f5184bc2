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

Both Monte Carlo drivers, quad_form_C and lemma43_table, are per-path
closures over one replica engine, run_replicas(seed, samples, m,
per_path, width, reach, threads), which draws replica r with
sample_path.  The engine splits range(samples) into contiguous chunks
of REPLICA_CHUNK replicas and runs them on at most `threads` workers of
a thread pool (inline when one worker suffices); row r of its
(samples, width) result is per_path of replica r.  The drivers check
their inputs and compute the weight profile once per run, before the
engine starts, and reduce each column to a mean and a standard error in
replica order afterwards, so every estimate is bit-identical for any
thread count.  numpy's normal fills and ufunc loops release the
interpreter lock, which is what lets the threads overlap.

Each replica draws its walk only up to the driver's reach: the last
grid index that any of its columns reads, computed from the driver's
own inputs.  lemma43_table reads up to m//2 plus its largest probe
offset; quad_form_C reads up to one past the last nonzero weight, the
probe times a, b of a WS profile and the reach its evaluator must
declare.  The prefix is
exact, not an approximation: Philox is a counter-based stream, and
Generator.normal consumes it one element at a time, so the first h
draws of a fill of size m are bit for bit the draws of a fill of size
h.  The prefix therefore holds the same values[0..h] and the same minima
below h as the whole walk.  An index past the prefix raises IndexError.

A replica costs little beyond its normal fill.  Each worker builds one
Philox generator with replica_rng and re-keys it to (master_seed, r),
counter 0 and an empty buffer, for every replica r, which is exactly the
state replica_rng(master_seed, r) starts from.  lemma43_table sums the
weights per bucket and evaluates each bucket's sign probe once, at the
bucket's edge, instead of once per minimum.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .gaussian_algebra import StepFunction, _positive_horizon, step_product

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
    "local_minima",
    "sample_path",
    "draw_signs",
    "half_interval_profile",
    "chaos_eval",
    "per_path_integrand",
    "run_replicas",
    "constant_evaluator",
    "bucket_probe_evaluator",
    "endpoint_sign_evaluator",
    "quad_form_C",
    "lemma43_table",
    "chaos_eval_under_probe",
    "apply_matched_sign_probe",
    "mc_coherent_sign_probe",
    "obstruction_report",
    "write_lemma43_csv",
    "write_obstruction_json",
]

DEFAULT_GRID_M = 2 ** 14
DEFAULT_SAMPLES = 10 ** 4
REPLICA_CHUNK = 64  # replicas per work item of run_replicas

LEMMA43_HEADER = "n,delta,m,samples,estimate,stderr,mass,mass_stderr,seed"


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Philox stream keyed (master_seed, replica)."""
    if not 0 <= int(master_seed) < 2 ** 63:
        raise ValueError("master seed must fit in a signed 64-bit integer")
    return np.random.Generator(
        np.random.Philox(key=np.array([master_seed, replica], dtype=np.uint64)))


def _replica_streams(master_seed: int, replicas: range):
    """Yield (r, rng) for each replica r of a nonempty range, where rng
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
        yield r, rng


def local_minima(values) -> np.ndarray:
    """Interior indices j with values[j-1] > values[j] < values[j+1].

    Strict on both sides; ties never qualify; endpoints never returned.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) < 3:
        raise ValueError("need at least three values")
    inner = v[1:-1]
    return np.flatnonzero((inner < v[:-2]) & (inner < v[2:])) + 1


@dataclass(frozen=True)
class WarrenPath:
    """A drawn walk and its strict local minima.

    values holds the walk on the grid {0, 1/m, ..., 1} up to some index
    h <= m (h + 1 entries, values[0] == 0; the whole walk when h == m).
    minima is derived from values, not passed: local_minima(values), the
    complete ascending set of interior strict minima below h.  The fair
    signs at the minima are a separate draw, draw_signs.
    """

    m: int
    values: np.ndarray
    minima: np.ndarray = field(init=False)

    def __post_init__(self):
        if not 3 <= len(self.values) <= self.m + 1:
            raise ValueError("values must have 3 to m + 1 entries")
        if self.values[0] != 0.0:
            raise ValueError("path must start at 0")
        object.__setattr__(self, "minima", local_minima(self.values))


def sample_path(m: int, rng: np.random.Generator,
                reach: int | None = None) -> WarrenPath:
    """Walk with N(0, 1/m) increments on the 1/m grid, drawn up to index
    h = reach (2 <= h <= m; the whole walk, h = m, by default).

    values[0..h] and the minima below h are bit for bit those of the
    whole walk, because the stream is consumed one draw at a time.
    draw_signs(path, rng) on the same rng then draws the path's signs.
    """
    if m < 4:
        raise ValueError("m must be at least 4")
    h = m if reach is None else int(reach)
    if not 2 <= h <= m:
        raise ValueError("reach must lie in [2, m]")
    steps = rng.normal(0.0, math.sqrt(1.0 / m), size=h)
    values = np.empty(h + 1)
    values[0] = 0.0
    np.cumsum(steps, out=values[1:])
    return WarrenPath(m, values)


def draw_signs(path: WarrenPath, rng: np.random.Generator) -> np.ndarray:
    """One independent fair sign per minimum of path, in the order of
    path.minima, as +-1 int8."""
    return (2 * rng.integers(0, 2, size=len(path.minima)) - 1).astype(np.int8)


@dataclass(frozen=True)
class SuperchaosVector:
    """First-superchaos coefficient profile from the two-member catalog."""

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
            if self.a is None or self.b is None or not 0.0 <= self.a < self.b <= 1.0:
                raise ValueError("WS profile needs grid times 0 <= a < b <= 1")

    @classmethod
    def deterministic(cls, w: StepFunction) -> "SuperchaosVector":
        return cls("W", w)

    @classmethod
    def sign_modulated(cls, w: StepFunction, a: float, b: float) -> "SuperchaosVector":
        return cls("WS", w, float(a), float(b))

    def weight_profile(self, m: int) -> np.ndarray:
        """w at every grid time j/m (sign factor excluded)."""
        return self.w.value_at(np.arange(m + 1) / m).real

    def sign_factor(self, path: WarrenPath) -> float:
        """+-1 (or 0 on a tie) for WS profiles, 1 for deterministic ones."""
        if self.kind == "W":
            return 1.0
        return float(_endpoint_sign(path, self.a, self.b))


def _grid_index(t: float, m: int, name: str) -> int:
    j = round(t * m)
    if abs(t * m - j) > 1e-9:
        raise ValueError(f"{name} = {t} is not aligned to the 1/{m} grid")
    return int(j)


def _increment_sign(values: np.ndarray, j, d: int):
    """sgn(B[j + d] - B[j]) at a grid index j (or an index array); an
    exact tie gives 0."""
    return np.sign(values[j + d] - values[j])


def _endpoint_sign(path: WarrenPath, a: float, b: float):
    """sgn(B_b - B_a) on the path, by _increment_sign."""
    ia = _grid_index(a, path.m, "a")
    return _increment_sign(path.values, ia, _grid_index(b, path.m, "b") - ia)


def _weights(f: SuperchaosVector, m: int) -> tuple[np.ndarray, int]:
    """f's weight w on the 1/m grid and how far f reads a walk: one past
    the last index where w is nonzero (so that every weighted minimum is
    found), and the probe indices a and b of a WS profile."""
    wp = f.weight_profile(m)
    nonzero = np.flatnonzero(wp)
    reach = int(nonzero[-1]) + 1 if len(nonzero) else 0
    if f.kind == "WS":
        reach = max(reach, _grid_index(f.a, m, "a"), _grid_index(f.b, m, "b"))
    return wp, reach


def _amplitudes(f: SuperchaosVector, wp: np.ndarray, end: int,
                path: WarrenPath) -> np.ndarray:
    """g(t_j, path) = wp_j times f's sign factor at the minima j below
    end, past which wp vanishes, in ascending order (a prefix of
    path.minima).

    IndexError unless path is drawn far enough to hold every minimum
    below end: a shorter prefix would silently drop weighted terms.  The
    terms do not depend on how far past end the walk was drawn, so every
    sum over them agrees bit for bit on a prefix and on the whole walk."""
    drawn = len(path.values) - 1
    if drawn < min(end, path.m):
        raise IndexError(f"walk drawn to index {drawn}, {end} needed")
    keep = np.searchsorted(path.minima, end)
    return wp[path.minima[:keep]] * f.sign_factor(path)


def half_interval_profile() -> SuperchaosVector:
    """Deterministic profile with unit weight on (0, 1/2)."""
    return SuperchaosVector.deterministic(StepFunction.indicator(0.0, 0.5, 1.0))


def _signed_amplitudes(f: SuperchaosVector, path: WarrenPath,
                       signs: np.ndarray) -> np.ndarray:
    """eta_j g(t_j, path) at the minima below f's reach, for one sign per
    minimum of path."""
    if np.shape(signs) != path.minima.shape:
        raise ValueError("one sign per minimum required")
    amp = _amplitudes(f, *_weights(f, path.m), path)
    return signs[:len(amp)] * amp


def chaos_eval(f: SuperchaosVector, path: WarrenPath, signs: np.ndarray) -> float:
    """sum over minima of eta_j g(t_j, path), with signs eta drawn by
    draw_signs(path, rng); odd in the signs."""
    return float(np.sum(_signed_amplitudes(f, path, signs)))


# --- evaluators: callables path -> psi value per minimum, in order ------
# An evaluator passed to quad_form_C must declare reach(m), the last grid
# index it reads of a walk on the 1/m grid; quad_form_C draws no further
# than that.  Every factory below declares it.

def constant_evaluator(c: float):
    def psi(path: WarrenPath) -> np.ndarray:
        return np.full(len(path.minima), float(c))
    psi.reach = lambda m: 0
    return psi


def endpoint_sign_evaluator(a: float, b: float):
    """psi(t, path) = sgn(B_b - B_a) for t < 1/2, else 0."""
    def psi(path: WarrenPath) -> np.ndarray:
        return np.where(path.minima < path.m / 2, _endpoint_sign(path, a, b),
                        0.0)
    psi.reach = lambda m: max(_grid_index(a, m, "a"), _grid_index(b, m, "b"))
    return psi


@dataclass(frozen=True)
class PsiSpec:
    """Bucket decomposition on (0, 1/2): n buckets of width 1/(2n), each
    probed by the path increment over [k/(2n), k/(2n) + delta]."""

    n: int
    delta: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 < self.delta < 0.5:
            raise ValueError("delta must lie in (0, 0.5)")

    def alignment(self, m: int) -> tuple[int, int]:
        """(bucket width, probe offset) in grid steps; raises if misaligned."""
        if m % (2 * self.n) != 0:
            raise ValueError(f"2n = {2 * self.n} must divide m = {m}")
        d = _grid_index(self.delta, m, "delta")
        if d < 1:
            raise ValueError("delta must be at least one grid step")
        return m // (2 * self.n), d


def bucket_probe_evaluator(spec: PsiSpec):
    """psi(t_j, path) = the increment sign over [edge, edge + delta] at the
    right edge (j // step + 1) * step of the bucket of width step holding
    the minimum j < m/2, else 0."""
    def psi(path: WarrenPath) -> np.ndarray:
        step, d = spec.alignment(path.m)
        jj = path.minima
        out = np.zeros(len(jj))
        mask = jj < path.m // 2
        edge = (jj[mask] // step + 1) * step
        out[mask] = _increment_sign(path.values, edge, d)
        return out
    # the last bucket's right edge is m // 2, probed d steps further on
    psi.reach = lambda m: m // 2 + spec.alignment(m)[1]
    return psi


@dataclass(frozen=True)
class McEstimate:
    mean: float
    stderr: float
    samples: int
    seed: int


def per_path_integrand(psi, f: SuperchaosVector, path: WarrenPath) -> float:
    """sum_j |g(t_j, path)|^2 psi(t_j, path): the signs are already
    integrated out, exactly, so this is the whole per-path quantity.
    quad_form_C sums the same terms in the same order."""
    amp = _amplitudes(f, *_weights(f, path.m), path)
    return float(np.sum(amp * amp * psi(path)[:len(amp)]))


def _check_run(samples: int, m: int, threads: int) -> None:
    """ValueError unless samples and threads are positive and m >= 4."""
    if samples < 1:
        raise ValueError("samples must be positive")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if m < 4:
        raise ValueError("m must be at least 4")


def run_replicas(seed: int, samples: int, m: int, per_path, width: int,
                 reach: int, threads: int = 1) -> np.ndarray:
    """(samples, width) array whose row r is per_path(path of replica r).

    Replica r is sample_path(m, replica_rng(seed, r), h), whatever worker
    draws it: the walk up to h = reach clamped to [2, m] (a zero weight
    profile gives reach 0).  No signs are drawn.
    reach must be the last grid index per_path reads; reading past it
    raises IndexError.  Contiguous chunks of REPLICA_CHUNK replicas run on
    min(threads, chunks) pool workers, or inline when that is one; each
    worker re-keys one generator per replica, holds one path at a time
    and writes only its own rows, so the array does not depend on the
    thread count.  per_path must be safe to call from several threads at
    once.
    """
    _check_run(samples, m, threads)
    out = np.empty((samples, width))
    chunk = REPLICA_CHUNK
    h = min(m, max(2, int(reach)))

    def run_chunk(lo: int) -> None:
        replicas = range(lo, min(lo + chunk, samples))
        for r, rng in _replica_streams(seed, replicas):
            out[r] = per_path(sample_path(m, rng, h))

    starts = range(0, samples, chunk)
    workers = min(threads, len(starts))
    if workers == 1:
        for lo in starts:
            run_chunk(lo)
    else:
        # imported on first use, which keeps it out of the package's import
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for _ in pool.map(run_chunk, starts):
                pass  # reading each result re-raises a worker's exception
    return out


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

    psi is an evaluator (path -> array over the path's minima) that
    declares psi.reach(m), as every evaluator factory's does.  With
    psi == 1 this estimates ||f||^2, the total mass identity.  Each path
    contributes per_path_integrand(psi, f, path), evaluated against the
    weight profile computed once for the run.  Walks are drawn up to one
    past the last nonzero weight, the probe times of a WS profile and
    psi.reach(m).
    """
    _check_run(samples, m, threads)
    wp, end = _weights(f, m)
    reach = max(end, psi.reach(m))

    def per_path(path: WarrenPath) -> float:
        amp = _amplitudes(f, wp, end, path)
        return float(np.sum(amp * amp * psi(path)[:len(amp)]))

    vals = run_replicas(seed, samples, m, per_path, 1, reach, threads)
    mean, stderr = _mean_stderr(vals[:, 0])
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
    delta-method standard error of the ratio u_mass / mass.  The profile
    must vanish on [1/2, 1].  Walks are drawn up to m // 2 plus the
    largest probe offset (and the probe times of a WS profile), the last
    grid index that any column reads.  Every (n, delta) pair is checked
    before any work.
    """
    _check_run(samples, m, threads)
    n_list = [int(n) for n in n_list]
    delta_list = [float(d) for d in delta_list]
    if not n_list or not delta_list:
        raise ValueError("n_list and delta_list must be nonempty")
    aligned = [[PsiSpec(n, d).alignment(m) for d in delta_list]
               for n in n_list]
    steps = [row[0][0] for row in aligned]
    offsets = [offset for _, offset in aligned[0]]
    wp, end = _weights(f, m)
    if np.any(wp[m // 2:] != 0.0):
        raise ValueError("profile must be supported in (0, 1/2)")
    half = m // 2
    reach = max(half + max(offsets), end)
    # the probe is constant on a bucket: sum the weights per bucket and
    # evaluate the probe once per bucket, at the bucket's right edge
    edges = [np.arange(step, half + 1, step) for step in steps]

    # columns: mass, then u_mass per delta, then the estimate per (n, delta)
    def per_path(path: WarrenPath) -> list:
        amp = _amplitudes(f, wp, half, path)
        w2 = amp * amp
        jj = path.minima[:len(amp)]
        B = path.values
        at_min = B[jj]
        row = [w2.sum()]
        row += [w2 @ (B[jj + off] > at_min) for off in offsets]
        for step, edge in zip(steps, edges):
            bucket_w2 = np.bincount(jj // step, w2, len(edge))
            row += [bucket_w2 @ _increment_sign(B, edge, off)
                    for off in offsets]
        return row

    k = len(delta_list)
    acc = run_replicas(seed, samples, m, per_path,
                       1 + k + len(n_list) * k, reach, threads)
    mass, mass_se = _mean_stderr(acc[:, 0])
    u = [_mean_stderr(acc[:, 1 + i]) for i in range(k)]
    ratio_se = [_ratio_stderr(acc[:, 1 + i], acc[:, 0]) for i in range(k)]
    rows = []
    for a, n in enumerate(n_list):
        for i, d in enumerate(delta_list):
            e, se = _mean_stderr(acc[:, 1 + k + a * k + i])
            rows.append(Lemma43Row(n, d, m, samples, e, se, mass, mass_se,
                                   *u[i], int(seed), ratio_se[i]))
    return rows


def chaos_eval_under_probe(f: SuperchaosVector, path: WarrenPath,
                           signs: np.ndarray, psi) -> float:
    """(C_psi f)(path, signs): term k picks up the factor psi(t_k, path)."""
    amp = _signed_amplitudes(f, path, signs)
    return float(np.sum(amp * psi(path)[:len(amp)]))


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
    targets 2 Phi(2 Re(zeta) sqrt(t)) - 1.
    """
    t = _positive_horizon(t)
    if samples < 2:
        raise ValueError("need at least two samples")
    g = replica_rng(seed, 0)
    endpoint = g.normal(0.0, math.sqrt(t), size=samples)
    w = np.exp(2.0 * float(np.real(zeta)) * endpoint)
    s = np.sign(endpoint)
    ratio = float(np.sum(w * s) / np.sum(w))
    stderr = float(np.sqrt(np.sum((w * (s - ratio)) ** 2)) / np.sum(w))
    return McEstimate(ratio, stderr, samples, int(seed))


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


def obstruction_report(norm_value: float, lemma43_rows, f_mass: float | None = None,
                       *, scheme: str = "oscillator", n_dim: int = 0)\
        -> ObstructionReport:
    """Combine the two measurements into the non-extension margin.

    m_hat is the normalized estimate of the (smallest delta, largest n)
    row, divided by f_mass when given and by that row's own mass estimate
    otherwise; margin = 3 m_hat - norm_value.  A positive margin is the
    quantitative contradiction.  The rows' estimate column is the
    edge-anchored bucket probe, whose mean is exactly zero on any grid;
    for the paper's margin pass rows whose estimate and stderr are the
    minimum-anchored u_mass and u_mass_stderr (dataclasses.replace), as
    acceptance criterion 9 does.  See the README section on criteria 8
    and 9.
    """
    rows = list(lemma43_rows)
    if not rows:
        raise ValueError("need at least one refinement row")
    best = min(rows, key=lambda r: (r.delta, -r.n))
    denom = float(f_mass) if f_mass is not None else best.mass
    if not 0.0 < denom < math.inf:
        raise ValueError(f"mass must be positive and finite, got {denom!r}")
    m_hat = best.estimate / denom
    return ObstructionReport(
        norm_value=float(norm_value), scheme=scheme, N=int(n_dim),
        m_hat=m_hat, n=best.n, delta=best.delta, grid_m=best.m,
        samples=best.samples, margin=3.0 * m_hat - float(norm_value),
        master_seed=best.seed, versions=_environment_versions())


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def write_lemma43_csv(rows, path) -> None:
    """CSV artifact: fixed header, UTF-8, LF, 12 significant digits."""
    lines = [LEMMA43_HEADER]
    for r in rows:
        lines.append(",".join([str(r.n), _fmt(r.delta), str(r.m),
                               str(r.samples), _fmt(r.estimate), _fmt(r.stderr),
                               _fmt(r.mass), _fmt(r.mass_stderr), str(r.seed)]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_obstruction_json(report: ObstructionReport, path) -> None:
    """JSON artifact: the report's fields in order, UTF-8, trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(asdict(report), fh, ensure_ascii=False, indent=2)
        fh.write("\n")
