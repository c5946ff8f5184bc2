"""Monte Carlo model of the noise of splitting on a finite grid.

A path is a random walk with Gaussian increments of variance 1/m on the
grid {0, 1/m, ..., 1}, together with interior strict three-point local
minima and one independent fair sign per minimum (see below for the
Monte Carlo engine, whose paths need no signs).  First-superchaos
vectors carry one sign factor per term,

    f(path, signs) = sum_j eta_j g(t_j, path),

with the coefficient profile g drawn from a two-member catalog:

* W  (deterministic):   g(t, path) = w(t), w real piecewise constant;
* WS (sign modulated):  g(t, path) = w(t) * sgn(B_b - B_a).

Quadratic forms of multiplication-type operators integrate the signs
out exactly: the per-path integrand of <C_psi> is sum_j |g(t_j)|^2
psi(t_j, path), so only the path replicas are sampled.  Replica r draws
from the counter-based Philox stream keyed (master_seed, r), which makes
every estimate reproducible independently of scheduling.

Both Monte Carlo drivers, quad_form_C and lemma43_table, are per-path
closures over one replica engine, run_replicas(seed, samples, m,
per_path, width, threads, reach).  The engine splits range(samples) into
contiguous chunks of REPLICA_CHUNK replicas and runs them on at most
`threads` workers of a thread pool (inline when one worker suffices);
row r of its (samples, width) result is per_path of replica r.  The
drivers compute the weight profile once per run, before the engine
starts, and reduce each column to a mean and a standard error in
replica order afterwards, so every estimate is bit-identical for any
thread count.  numpy's normal fills and ufunc loops release the
interpreter lock, which is what lets the threads overlap.

Each replica draws its walk only up to the driver's reach: the last
grid index that any of its columns reads, computed from the driver's
own inputs.  lemma43_table reads up to m//2 plus its largest probe
offset; quad_form_C reads up to one past the last nonzero weight, the
probe times a, b of a WS profile and the reach its evaluator declares
(evaluators without a declaration get the whole walk).  The prefix is
exact, not an approximation: Philox is a counter-based stream, and
Generator.normal consumes it one element at a time, so the first h
draws of a fill of size m are bit for bit the draws of a fill of size
h.  The prefix therefore holds the same values[0..h] and the same minima
below h as the whole walk.  An index past the prefix raises IndexError.

A replica costs little beyond its normal fill.  The engine draws no
signs: its paths carry signs=None, since both drivers integrate the
signs out, and code that reads signs raises ValueError on such a path
(sample_path still draws them, after the increments).  Each worker
builds one Philox generator with replica_rng and re-keys it to
(master_seed, r), counter 0 and an empty buffer, for every replica r,
which is exactly the state replica_rng(master_seed, r) starts from.
lemma43_table sums the weights per bucket and evaluates each bucket's
sign probe once, at the bucket's edge, instead of once per minimum.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import dataclass

import numpy as np

from . import __version__
from .gaussian_algebra import StepFunction, step_product

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
    "half_interval_profile",
    "chaos_eval",
    "chaos_norm_contribution",
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


def _minima(v: np.ndarray) -> np.ndarray:
    """local_minima of a 1-D float array of at least three values,
    without the input checks."""
    inner = v[1:-1]
    return np.flatnonzero((inner < v[:-2]) & (inner < v[2:])) + 1


def local_minima(values) -> np.ndarray:
    """Interior indices j with values[j-1] > values[j] < values[j+1].

    Strict on both sides; ties never qualify; endpoints never returned.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or len(v) < 3:
        raise ValueError("need at least three values")
    return _minima(v)


@dataclass(frozen=True)
class WarrenPath:
    """Sampled path with its decorated strict local minima.

    values holds the walk on the grid {0, 1/m, ..., 1} up to some index
    h <= m (h + 1 entries, values[0] == 0; the whole walk when h == m);
    minima are interior indices below h, in any order (validate() asks
    for the complete ascending set, which sample_path and the engine
    give); signs holds one +-1 per minimum, or is None on a path drawn
    without signs, as the Monte Carlo engine's are.
    """

    m: int
    values: np.ndarray
    minima: np.ndarray
    signs: np.ndarray | None

    def __post_init__(self):
        if not 3 <= len(self.values) <= self.m + 1:
            raise ValueError("values must have 3 to m + 1 entries")
        if self.values[0] != 0.0:
            raise ValueError("path must start at 0")
        if self.signs is not None and len(self.signs) != len(self.minima):
            raise ValueError("one sign per minimum required")

    def times(self) -> np.ndarray:
        return self.minima / self.m

    def validate(self) -> None:
        """Full invariant rescan (strictness and completeness)."""
        found = local_minima(self.values)
        if not np.array_equal(found, self.minima):
            raise ValueError("minima list is not the complete strict set")
        if not np.all(np.abs(_signs(self)) == 1):
            raise ValueError("signs must be +-1")


def _signs(path: WarrenPath) -> np.ndarray:
    """The path's signs; ValueError on a path drawn without them."""
    if path.signs is None:
        raise ValueError("path carries no signs: draw it with sample_path")
    return path.signs


def _walk(m: int, rng: np.random.Generator, h: int):
    """(values, minima) of the walk with N(0, 1/m) increments on the 1/m
    grid, drawn up to index h (2 <= h <= m): values[0..h] and the minima
    below h, bit for bit those of the whole walk."""
    if m < 4:
        raise ValueError("m must be at least 4")
    steps = rng.normal(0.0, math.sqrt(1.0 / m), size=h)
    values = np.empty(h + 1)
    values[0] = 0.0
    np.cumsum(steps, out=values[1:])
    return values, _minima(values)


def sample_path(m: int, rng: np.random.Generator,
                reach: int | None = None) -> WarrenPath:
    """Walk with N(0, 1/m) increments; signs drawn after the increments.

    With reach = h only the first h increments are drawn: values[0..h]
    and the minima below h are bit for bit those of the whole walk (the
    default, h = m), because the stream is consumed one draw at a time.
    """
    h = m if reach is None else int(reach)
    if not 2 <= h <= m:
        raise ValueError("reach must lie in [2, m]")
    values, minima = _walk(m, rng, h)
    signs = (2 * rng.integers(0, 2, size=len(minima)) - 1).astype(np.int8)
    return WarrenPath(m=m, values=values, minima=minima, signs=signs)


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
        if any(complex(v).imag != 0.0 for v in self.w.values):
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
        breaks = np.asarray(self.w.breaks)
        vals = np.asarray([complex(v).real for v in self.w.values])
        t = np.arange(m + 1) / m
        idx = np.clip(np.searchsorted(breaks, t, side="right") - 1,
                      0, len(vals) - 1)
        return vals[idx]

    def sign_factor(self, path: WarrenPath) -> float:
        """+-1 (or 0 on a tie) for WS profiles, 1 for deterministic ones."""
        if self.kind == "W":
            return 1.0
        ia = _grid_index(self.a, path.m, "a")
        ib = _grid_index(self.b, path.m, "b")
        return float(np.sign(path.values[ib] - path.values[ia]))


def _grid_index(t: float, m: int, name: str) -> int:
    j = round(t * m)
    if abs(t * m - j) > 1e-9:
        raise ValueError(f"{name} = {t} is not aligned to the 1/{m} grid")
    return int(j)


def _profile_reach(f: SuperchaosVector, wp: np.ndarray) -> int:
    """How far f reads a walk, given its weight wp on the grid: one past
    the last index where wp is nonzero (so that every weighted minimum is
    found), and the probe indices a and b of a WS profile."""
    m = len(wp) - 1
    nonzero = np.flatnonzero(wp)
    reach = int(nonzero[-1]) + 1 if len(nonzero) else 0
    if f.kind == "WS":
        reach = max(reach, _grid_index(f.a, m, "a"), _grid_index(f.b, m, "b"))
    return reach


def _check_drawn(path: WarrenPath, reach: int) -> None:
    """IndexError unless path is drawn far enough to hold every minimum
    below reach: a shorter prefix would silently drop weighted terms."""
    drawn = len(path.values) - 1
    if drawn < min(reach, path.m):
        raise IndexError(f"walk drawn to index {drawn}, {reach} needed")


def half_interval_profile() -> SuperchaosVector:
    """Deterministic profile with unit weight on (0, 1/2)."""
    return SuperchaosVector.deterministic(StepFunction.indicator(0.0, 0.5, 1.0))


def _amplitudes(f: SuperchaosVector, path: WarrenPath) -> np.ndarray:
    """g(t_j, path) at every minimum: the weight times the sign factor."""
    wp = f.weight_profile(path.m)
    _check_drawn(path, _profile_reach(f, wp))
    return wp[path.minima] * f.sign_factor(path)


def chaos_eval(f: SuperchaosVector, path: WarrenPath) -> float:
    """sum over minima of eta_j g(t_j, path); odd in the signs."""
    return float(np.sum(_signs(path) * _amplitudes(f, path)))


def chaos_norm_contribution(f: SuperchaosVector, path: WarrenPath) -> float:
    """Per-path contribution sum_j |g(t_j, path)|^2 to ||f||^2."""
    amp = _amplitudes(f, path)
    return float(np.sum(amp * amp))


# --- evaluators: callables path -> psi value per minimum, in order ------
# Each factory's evaluator declares reach(m), the last grid index it
# reads of a walk on the 1/m grid; quad_form_C draws no further than
# that.  An evaluator without the attribute is given the whole walk.

def constant_evaluator(c: float):
    def psi(path: WarrenPath) -> np.ndarray:
        return np.full(len(path.minima), float(c))
    psi.reach = lambda m: 0
    return psi


def endpoint_sign_evaluator(a: float, b: float, cutoff: float = 0.5):
    """psi(t, path) = sgn(B_b - B_a) for t < cutoff, else 0."""
    def psi(path: WarrenPath) -> np.ndarray:
        ia = _grid_index(a, path.m, "a")
        ib = _grid_index(b, path.m, "b")
        s = np.sign(path.values[ib] - path.values[ia])
        return np.where(path.minima < cutoff * path.m, s, 0.0)
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


def _bucket_probe(values: np.ndarray, edge, offset: int):
    """sgn(B[edge + offset] - B[edge]) at a bucket's right edge (an index
    or an index array); exact ties give 0.  The bucket of width step
    holding grid index j has its right edge at (j // step + 1) * step."""
    return np.sign(values[edge + offset] - values[edge])


def bucket_probe_evaluator(spec: PsiSpec):
    def psi(path: WarrenPath) -> np.ndarray:
        step, d = spec.alignment(path.m)
        jj = path.minima
        out = np.zeros(len(jj))
        mask = jj < path.m // 2
        edge = (jj[mask] // step + 1) * step
        out[mask] = _bucket_probe(path.values, edge, d)
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

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if self.stderr < 0.0:
            raise ValueError("stderr must be nonnegative")


def _integrand(wp: np.ndarray, end: int, s: float, path: WarrenPath,
               probe, ascending: bool = False) -> float:
    """sum_j wp_j^2 s^2 probe_j over the minima j below end, past which
    wp vanishes, in one fixed evaluation order shared by
    per_path_integrand and the quad_form_C engine.  The sum does not
    depend on how far past end the walk was drawn, so the two agree bit
    for bit on a prefix and on the whole walk.  When the minima are known
    to ascend, as on every walk the engine draws, the minima below end
    are a prefix of the list and are sliced rather than masked: the same
    elements in the same order, so the same sum."""
    _check_drawn(path, end)
    if ascending:
        keep = slice(np.searchsorted(path.minima, end))
    else:
        keep = path.minima < end
    w = wp[path.minima[keep]]
    probe = np.asarray(probe)
    if probe.ndim:
        probe = probe[keep]
    return float(np.sum((w * w) * (s * s) * probe))


def per_path_integrand(psi, f: SuperchaosVector, path: WarrenPath) -> float:
    """sum_j |g(t_j, path)|^2 psi(t_j, path): the signs are already
    integrated out, exactly, so this is the whole per-path quantity."""
    wp = f.weight_profile(path.m)
    return _integrand(wp, _profile_reach(f, wp), f.sign_factor(path), path,
                      psi(path))


def run_replicas(seed: int, samples: int, m: int, per_path, width: int,
                 threads: int = 1, reach: int | None = None) -> np.ndarray:
    """(samples, width) array whose row r is per_path(path of replica r).

    Replica r is the walk of sample_path(m, replica_rng(seed, r), h)
    without its signs (signs=None), whatever worker draws it: the walk up
    to h = reach clamped to [2, m], or the whole walk when reach is None.
    reach must be the last grid index per_path reads; reading past it
    raises IndexError.  Contiguous chunks of REPLICA_CHUNK replicas run on
    min(threads, chunks) pool workers, or inline when that is one; each
    worker re-keys one generator per replica, holds one path at a time
    and writes only its own rows, so the array does not depend on the
    thread count.  per_path must be safe to call from several threads at
    once.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if threads < 1:
        raise ValueError("threads must be at least 1")
    out = np.empty((samples, width))
    chunk = REPLICA_CHUNK
    h = m if reach is None else min(m, max(2, int(reach)))

    def run_chunk(lo: int) -> None:
        replicas = range(lo, min(lo + chunk, samples))
        for r, rng in _replica_streams(seed, replicas):
            values, minima = _walk(m, rng, h)
            out[r] = per_path(WarrenPath(m, values, minima, None))

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

    psi is an evaluator (path -> array over the path's minima).  With
    psi == 1 this estimates ||f||^2, the total mass identity.  Each path
    contributes per_path_integrand(psi, f, path), evaluated against the
    weight profile computed once for the run.  Walks are drawn up to one
    past the last nonzero weight, the probe times of a WS profile and
    psi.reach(m) when psi declares it; otherwise in full.
    """
    wp = f.weight_profile(m)
    end = _profile_reach(f, wp)
    declared = getattr(psi, "reach", None)
    reach = max(end, m if declared is None else declared(m))

    def per_path(path: WarrenPath) -> float:
        return _integrand(wp, end, f.sign_factor(path), path, psi(path),
                          ascending=True)

    vals = run_replicas(seed, samples, m, per_path, 1, threads, reach)
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
    grid index that any column reads.
    """
    wp = f.weight_profile(m)
    if np.any(wp[m // 2:] != 0.0):
        raise ValueError("profile must be supported in (0, 1/2)")
    n_list = [int(n) for n in n_list]
    delta_list = [float(d) for d in delta_list]
    steps = [PsiSpec(n, delta_list[0]).alignment(m)[0] for n in n_list]
    offsets = [_grid_index(d, m, "delta") for d in delta_list]
    if min(offsets) < 1:
        raise ValueError("delta must be at least one grid step")
    half = m // 2
    reach = max(half + max(offsets), _profile_reach(f, wp))
    wp2 = wp ** 2
    # the probe is constant on a bucket: sum the weights per bucket and
    # evaluate the probe once per bucket, at the bucket's right edge
    edges = [np.arange(step, half + 1, step) for step in steps]

    # columns: mass, then u_mass per delta, then the estimate per (n, delta)
    def per_path(path: WarrenPath) -> list:
        jj = path.minima[:np.searchsorted(path.minima, half)]
        B = path.values
        s = f.sign_factor(path)
        w2 = wp2[jj] * (s * s)
        at_min = B[jj]
        row = [w2.sum()]
        row += [w2 @ (B[jj + off] > at_min) for off in offsets]
        for step, edge in zip(steps, edges):
            bucket_w2 = np.bincount(jj // step, w2, len(edge))
            row += [bucket_w2 @ _bucket_probe(B, edge, off) for off in offsets]
        return row

    k = len(delta_list)
    acc = run_replicas(seed, samples, m, per_path,
                       1 + k + len(n_list) * k, threads, reach)
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


def chaos_eval_under_probe(f: SuperchaosVector, path: WarrenPath, psi) -> float:
    """(C_psi f)(path): term k picks up the factor psi(t_k, path)."""
    return float(np.sum(_signs(path) * _amplitudes(f, path) * psi(path)))


def apply_matched_sign_probe(f: SuperchaosVector,
                             cutoff: float = 0.5) -> SuperchaosVector:
    """Exact action of C_psi, psi = 1_{t < cutoff} sgn(B_b - B_a), on the
    WS vector carrying the same probe: the probe squares against the
    profile's own sign factor and the result is the deterministic vector
    with profile w * 1_{(0, cutoff)} (equality per path off sign ties)."""
    if f.kind != "WS":
        raise ValueError("matched probe applies to a WS profile")
    chi = StepFunction.indicator(0.0, cutoff, 1.0)
    return SuperchaosVector.deterministic(step_product(f.w, chi))


def mc_coherent_sign_probe(zeta: float, t: float, samples: int,
                           seed: int) -> McEstimate:
    """Path-sign probe E[sgn B_t] under the coherent tilt |Exp(zeta)|^2.

    Increments after t integrate out, so B_t ~ N(0, t) is sampled
    directly and reweighted by exp(2 Re(zeta) B_t); the ratio estimator
    targets 2 Phi(2 Re(zeta) sqrt(t)) - 1.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
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

    def as_dict(self) -> dict:
        # key order is part of the artifact contract
        return {
            "norm_value": self.norm_value,
            "scheme": self.scheme,
            "N": self.N,
            "m_hat": self.m_hat,
            "n": self.n,
            "delta": self.delta,
            "grid_m": self.grid_m,
            "samples": self.samples,
            "margin": self.margin,
            "master_seed": self.master_seed,
            "versions": self.versions,
        }


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
    if denom <= 0.0:
        raise ValueError("mass must be positive")
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
    """JSON artifact: stable key order, UTF-8, trailing newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.as_dict(), fh, ensure_ascii=False, indent=2)
        fh.write("\n")
