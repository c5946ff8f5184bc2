"""Exact algebra of exponential vectors over white noise.

Vectors are finite combinations sum_i c_i Exp(f_i) with step-function
arguments f_i on a common horizon [0, T], and every inner product is
evaluated in closed form through <Exp(f), Exp(g)> = exp(<f, g>).  The
inner product puts the conjugation on the second slot:

    <f, g> = integral_0^T f(s) conj(g(s)) ds

(linear in f, conjugate-linear in g).  That single convention is fixed
here and used everywhere else in the package.

A step function is two arrays: a partition 0 = s_0 < ... < s_m = T and
its m values.  A span is held the same way: coefficients c (k,), one
partition of every term, and the values V (k, m) of the f_i on its
intervals.  Both are read by one rule, _read: at time t, the value on
the interval [s_j, s_j+1) holding t, and the last interval's at T.  The
Gram matrix is exp(V diag(s_j+1 - s_j) V^H), one matrix product; step
functions and spans on different partitions are first read on their
merge.  Operands on one partition (the same breaks, or equal ones) skip
the merge: it would give back those breaks and each operand's own
values, so _common returns them as they are.  A shift or rotation keeps
a span on its partition, so both sides of every relation share one.
The summation order of the Gram product follows the memory layout:
_read returns its gathers F-ordered, and so does the shared case, which
keeps every bit of the merged read; a span stores V C-contiguous
whatever built it, so that one layout gives one norm, to the bit.

Subtraction pairs terms by index.  In v - w, term i of w joins term i
of v when their values agree within DEDUP_VALUE_TOL, relative to
max(1, the larger sup norm), and its coefficient is subtracted from
v's; every other term of w is appended, negated, in order.  The two
sides of a relation map each term of one span to one term, in the same
order, so their difference cancels term by term and its Gram matrix
stays away from exact degeneracy.

The one-parameter automorphism family acts on these spans by

    Exp(f)  ->  e^{i lam T} exp(-|xi|^2 T / 2 - conj(xi) I) Exp(U f + xi),
    I = integral_0^T (U f)(s) ds,

with |U| = 1; shifts are (xi, U=1), rotations are (xi=0, U).  The same
multiplier is the product of one factor per interval of f (the tensor
splitting of the horizon); the tests check the closed form against it.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "StepFunction",
    "ExpSpan",
    "AutomorphismParams",
    "GramConditionWarning",
    "step_inner",
    "step_product",
    "span_inner",
    "unit",
    "exponential",
    "shift",
    "rotation",
    "apply_automorphism",
    "ccr_phase_residual",
    "relation_suite",
    "RelationReport",
    "gram_matrix",
    "random_step_function",
    "random_unit_span",
    "random_span",
]

# Gram matrices of nearly collinear exponential vectors are legal but
# ill-conditioned; past this condition number the norm digits are suspect.
GRAM_CONDITION_LIMIT = 1e12

# Term i of w joins term i of v in v - w once their values agree to this
# tolerance, relative to max(1, the larger sup norm of the two).
DEDUP_VALUE_TOL = 1e-14

# Shape of the seeded random inputs of the relation checks.
RANDOM_MAX_PIECES = 4
RANDOM_AMPLITUDE = 1.2
RANDOM_MAX_TERMS = 6

# Longest horizon of the relation checks, 2 ln(DBL_MAX) (about 1419.57):
# a random unit span's e^{a t}, Re a < 1/2, stays finite up to it.
MAX_RELATION_HORIZON = 2.0 * math.log(np.finfo(float).max)


class GramConditionWarning(UserWarning):
    """Norm computed through a Gram matrix with condition number > 1e12."""


def _read(breaks: np.ndarray, values: np.ndarray, t):
    """values (..., m) on the intervals of breaks, read at the times t in
    [0, T]: the value on [breaks[j], breaks[j+1]) holding t, the last
    interval's at T."""
    j = np.searchsorted(breaks, t, side="right") - 1
    return values[..., np.minimum(j, values.shape[-1] - 1)]


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Piecewise-constant complex function on [0, T].

    breaks: float64 (m + 1,), strictly increasing, breaks[0] == 0 and
    breaks[-1] == T.  values: complex128 (m,), values[j] on the interval
    [breaks[j], breaks[j+1]).  Both arrays are read-only copies of the
    arguments.
    """

    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        breaks = np.array(self.breaks, dtype=float)
        values = np.array(self.values, dtype=complex)
        if (breaks.ndim != 1 or len(breaks) < 2
                or values.shape != (len(breaks) - 1,)):
            raise ValueError("need m >= 1 intervals and m + 1 breakpoints")
        if breaks[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        if not (breaks[1:] > breaks[:-1]).all():
            raise ValueError("breakpoints must be strictly increasing")
        if not np.isfinite(values).all():
            raise ValueError("values must be finite")
        for name, array in (("breaks", breaks), ("values", values)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @property
    def horizon(self) -> float:
        return float(self.breaks[-1])

    @classmethod
    def constant(cls, value, horizon) -> "StepFunction":
        return cls([0.0, horizon], [value])

    @classmethod
    def indicator(cls, a, b, horizon) -> "StepFunction":
        """1 on (a, b), zero elsewhere on [0, horizon]."""
        a, b, horizon = float(a), float(b), float(horizon)
        if not 0.0 <= a < b <= horizon:
            raise ValueError("need 0 <= a < b <= horizon")
        breaks = np.array(sorted({0.0, a, b, horizon}))
        return cls(breaks, (breaks[:-1] >= a) & (breaks[1:] <= b))

    def value_at(self, t):
        """The value at t (one time, or an array of times) by _read;
        ValueError for a time outside [0, T]."""
        times = np.asarray(t, dtype=float)
        if not np.all((0.0 <= times) & (times <= self.horizon)):
            raise ValueError("t outside horizon")
        out = _read(self.breaks, self.values, times)
        return out if times.ndim else complex(out)


def _common(*fns):
    """Merged cuts of step functions or spans on one horizon, and the
    values of each read by _read at the merged midpoints.  When every
    operand holds the same breaks, those and each one's values, in
    _read's F order (module docstring)."""
    if len({f.horizon for f in fns}) > 1:
        raise ValueError("horizon mismatch")
    first = fns[0].breaks
    if all(f.breaks is first or (len(f.breaks) == len(first)
                                 and (f.breaks == first).all())
           for f in fns[1:]):
        return first, [np.asfortranarray(f.values) for f in fns]
    cuts = np.unique(np.concatenate([f.breaks for f in fns]))
    mids = (cuts[:-1] + cuts[1:]) / 2.0
    return cuts, [_read(f.breaks, f.values, mids) for f in fns]


def _condition(g: np.ndarray) -> float:
    """np.linalg.cond(g) of a finite matrix g, without its wrapper: the
    ratio of the largest to the smallest singular value, inf where the
    smallest is 0."""
    sv = np.linalg.svd(g, compute_uv=False)
    return sv[0] / sv[-1] if sv[-1] > 0.0 else math.inf


def _inner(a: np.ndarray, b: np.ndarray, cuts: np.ndarray):
    """[<a_i, b_j>] for values a, b on the intervals of cuts."""
    return (a * (cuts[1:] - cuts[:-1])) @ b.conj().T


def step_inner(f: StepFunction, g: StepFunction) -> complex:
    """integral_0^T f(s) conj(g(s)) ds over the merged partition."""
    cuts, (a, b) = _common(f, g)
    return complex(_inner(a, b, cuts))


def step_product(f: StepFunction, g: StepFunction) -> StepFunction:
    """Pointwise product on the merged partition (no conjugation)."""
    cuts, (a, b) = _common(f, g)
    return StepFunction(cuts, a * b)


@dataclass(frozen=True, eq=False)
class ExpSpan:
    """Finite combination sum_i c_i Exp(f_i) on a common horizon: coef
    (k,), breaks (m + 1,) shared by every term, and values (k, m), held
    C-contiguous so that norm sums in one order (module docstring)."""

    coef: np.ndarray
    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.coef), len(self.breaks) - 1):
            raise ValueError("values must be (terms, intervals) of coef, breaks")
        object.__setattr__(self, "values", np.ascontiguousarray(self.values))

    @property
    def horizon(self) -> float:
        return float(self.breaks[-1])

    def __add__(self, other: "ExpSpan") -> "ExpSpan":
        cuts, (a, b) = _common(self, other)
        return ExpSpan(np.concatenate([self.coef, other.coef]), cuts,
                       np.concatenate([a, b]))

    def __sub__(self, other: "ExpSpan") -> "ExpSpan":
        """Terms paired by index on the merged partition, by the rule of
        the module docstring."""
        cuts, (a, b) = _common(self, other)
        k = min(len(a), len(b))
        joins = np.zeros(len(b), dtype=bool)
        joins[:k] = (np.abs(a[:k] - b[:k]).max(axis=1) <= DEDUP_VALUE_TOL
                     * np.maximum(1.0, np.maximum(np.abs(a[:k]).max(axis=1),
                                                  np.abs(b[:k]).max(axis=1))))
        coef, i = self.coef.astype(complex), joins.nonzero()
        coef[i] -= other.coef[i]
        return ExpSpan(np.concatenate([coef, -other.coef[~joins]]), cuts,
                       np.concatenate([a, b[~joins]]))

    def scaled(self, factor) -> "ExpSpan":
        return ExpSpan(complex(factor) * self.coef, self.breaks, self.values)

    def norm(self) -> float:
        """sqrt(c^T G conj(c)) over the Gram matrix G of the terms; warns
        when G's condition number exceeds GRAM_CONDITION_LIMIT.  The
        condition number, taken only of a finite G, is s[0] / s[-1] of
        G's singular values s, and inf where s[-1] is 0: the value of
        np.linalg.cond, without its wrapper."""
        g = np.exp(_inner(self.values, self.values, self.breaks))
        value = max(float((self.coef @ g @ self.coef.conj()).real), 0.0)
        if len(g) >= 2 and np.isfinite(g).all():
            cond = _condition(g)
            if cond > GRAM_CONDITION_LIMIT:
                warnings.warn(
                    f"Gram condition number {cond:.2e} exceeds 1e12; "
                    "norm digits are unreliable", GramConditionWarning,
                    stacklevel=2)
        return math.sqrt(value)


def _positive_horizon(t, bound: float = math.inf) -> float:
    """t as a float; ValueError unless it is positive and finite, and at
    most bound."""
    if not 0.0 < float(t) < math.inf:
        raise ValueError(f"t must be positive and finite, got {t!r}")
    if float(t) > bound:
        raise ValueError(f"t must be at most {bound!r}, got {t!r}")
    return float(t)


def _finite_amplitude(zeta) -> complex:
    """A coherent amplitude zeta as a complex; ValueError unless both of
    its parts are finite."""
    if not cmath.isfinite(complex(zeta)):
        raise ValueError(f"zeta must be finite, got {zeta!r}")
    return complex(zeta)


def _whole(value, name: str, low: int, high: float, rule: str) -> int:
    """value as an int; ValueError unless it is a whole number in
    [low, high), which rule says in words.  The one check of every size:
    counts, seeds, dimensions, bucket counts, grid sizes and reaches; a
    whole float becomes the int it equals, and anything else that int()
    would truncate or parse, such as 8.5 or "16", is refused."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or number != value or not low <= number < high:
        raise ValueError(f"{name} must {rule} and be a whole number, "
                         f"got {value!r}")
    return number


def _check_seed(seed, name: str = "seed") -> int:
    """The seed (or a replica index, by name) as an int, in [0, 2**63):
    the range of both the relation checks and the Philox replica
    streams."""
    return _whole(seed, name, 0, 2 ** 63, "lie in [0, 2**63)")


def _check_count(count, name: str) -> int:
    """A count of trials, samples, threads or buckets, or a number-basis
    dimension, as an int, at least 1."""
    return _whole(count, name, 1, math.inf, "be at least 1")


def exponential(f: StepFunction) -> ExpSpan:
    """The single exponential vector Exp(f)."""
    return ExpSpan(np.ones(1, dtype=complex), f.breaks, f.values[None])


def unit(a, zeta, t) -> ExpSpan:
    """e^{a t} Exp(zeta on (0, t)), the basic factorizing family."""
    t = _positive_horizon(t)
    return ExpSpan(np.array([cmath.exp(complex(a) * t)]), np.array([0.0, t]),
                   np.array([[complex(zeta)]]))


def span_inner(v: ExpSpan, w: ExpSpan) -> complex:
    """sum_ij c_i conj(d_j) exp(<f_i, g_j>)."""
    cuts, (a, b) = _common(v, w)
    return complex(v.coef @ np.exp(_inner(a, b, cuts)) @ w.coef.conj())


def gram_matrix(fns) -> np.ndarray:
    """[exp(<f_i, f_j>)] for a family of step functions on one horizon."""
    cuts, values = _common(*fns)
    v = np.array(values)
    return np.exp(_inner(v, v, cuts))


@dataclass(frozen=True)
class AutomorphismParams:
    """Parameters (lam, xi, U) of a white-noise automorphism, |U| = 1."""

    lam: float
    xi: complex
    U: complex

    def __post_init__(self):
        if abs(abs(complex(self.U)) - 1.0) > 1e-12:
            raise ValueError("|U| must equal 1 within 1e-12")

    def inverse(self) -> "AutomorphismParams":
        Ub = complex(self.U).conjugate()
        return AutomorphismParams(-self.lam, -Ub * complex(self.xi), Ub)


def shift(xi) -> AutomorphismParams:
    return AutomorphismParams(0.0, complex(xi), 1.0 + 0.0j)


def rotation(U) -> AutomorphismParams:
    return AutomorphismParams(0.0, 0.0 + 0.0j, complex(U))


def apply_automorphism(p: AutomorphismParams, v: ExpSpan) -> ExpSpan:
    """Image of the span under the automorphism with parameters p.

    Each term (c, f) maps to (c * mult, U f + xi), with the closed-form
    multiplier of the module docstring.
    """
    T, U, xi = v.horizon, complex(p.U), complex(p.xi)
    integrals = v.values @ (v.breaks[1:] - v.breaks[:-1])
    mult = np.exp(1j * p.lam * T - 0.5 * abs(xi) ** 2 * T
                  - xi.conjugate() * U * integrals)
    # U f as Python forms U * zeta; numpy's complex multiply rounds otherwise
    re, im = v.values.real, v.values.imag
    values = (U.real * re - U.imag * im) + 1j * (U.real * im + U.imag * re)
    return ExpSpan(v.coef * mult, v.breaks, values + xi)


def _compose_apply(params_list, v: ExpSpan) -> ExpSpan:
    for p in params_list:
        v = apply_automorphism(p, v)
    return v


def ccr_phase_residual(lam: float, mu: float, v: ExpSpan) -> float:
    """Weyl-relation residual on the span v.

    || S_ilam S_mu v - e^{2 i lam mu T} S_mu S_ilam v || / ||v||, where
    S_ilam, S_mu are the imaginary and real shifts.  Exact algebra makes
    this cancel term by term; the residual is pure roundoff (<= 1e-9).
    """
    nv = v.norm()
    if nv == 0.0:
        raise ValueError("zero vector")
    x = _compose_apply([shift(mu), shift(1j * lam)], v)
    y = _compose_apply([shift(1j * lam), shift(mu)], v)
    return (x - y.scaled(cmath.exp(2j * lam * mu * v.horizon))).norm() / nv


def random_step_function(rng: np.random.Generator, horizon: float) -> StepFunction:
    """Seeded random step function, used by the relation checks."""
    m = int(rng.integers(1, RANDOM_MAX_PIECES + 1))
    cuts = np.sort(rng.uniform(0.0, horizon, size=m - 1))
    vals = RANDOM_AMPLITUDE * (rng.standard_normal(m)
                               + 1j * rng.standard_normal(m)) / 2.0
    return StepFunction(np.concatenate([[0.0], cuts, [horizon]]), vals)


def random_unit_span(rng: np.random.Generator, t: float,
                     max_units: int = 8) -> ExpSpan:
    """Seeded random combination of at most max_units unit vectors."""
    t = _positive_horizon(t)
    k = int(rng.integers(1, max_units + 1))
    coef, zetas = np.empty(k, dtype=complex), np.empty((k, 1), dtype=complex)
    for i in range(k):
        a = complex(*rng.uniform(-0.5, 0.5, size=2))
        zetas[i] = complex(*rng.uniform(-1.0, 1.0, size=2))
        coef[i] = complex(*rng.uniform(-1.0, 1.0, size=2)) * cmath.exp(a * t)
    return ExpSpan(coef, np.array([0.0, t]), zetas)


def random_span(rng: np.random.Generator, t: float) -> ExpSpan:
    """Random mix of unit vectors and step-function exponentials."""
    out = random_unit_span(rng, t, max_units=RANDOM_MAX_TERMS // 2)
    for _ in range(int(rng.integers(1, RANDOM_MAX_TERMS // 2 + 1))):
        c = complex(*rng.uniform(-1.0, 1.0, size=2))
        out = out + exponential(random_step_function(rng, t)).scaled(c)
    return out


@dataclass(frozen=True)
class RelationReport:
    """Max residual per verified relation over seeded random inputs."""

    seed: int
    trials: int
    residuals: dict

    @property
    def max_residual(self) -> float:
        return float(np.max(list(self.residuals.values())))


def _named_calls(trial: int, calls) -> list:
    """The results of the (name, call) pairs, called in order in one
    warnings record.  Each warning raised, such as a
    GramConditionWarning, is then re-emitted in order with its call's
    name and the trial index in front of its message, attributed to
    relation_suite's caller."""
    names = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = []
        for name, call in calls:
            results.append(call())
            names += [name] * (len(caught) - len(names))
    for name, w in zip(names, caught):
        # frames: this function, relation_suite, its caller
        warnings.warn(f"{name}, trial {trial}: {w.message}", w.category,
                      stacklevel=3)
    return results


def relation_suite(seed: int, trials: int = 100, t: float = 1.0) -> RelationReport:
    """Check the composition relations of rotations and shifts numerically.

    Covered: rotation composition, rotation-conjugated shift, additivity
    of imaginary shifts, preservation of inner products, and the Weyl
    phase relation (ccr_phase_residual on each trial's span); residuals
    are relative span distances, all expected <= 1e-9.  t is at most
    MAX_RELATION_HORIZON, past which the random unit spans' e^{a t},
    Re a < 1/2, overflow.
    """
    trials = _check_count(trials, "trials")
    seed = _check_seed(seed)
    t = _positive_horizon(t, MAX_RELATION_HORIZON)
    rng = np.random.Generator(np.random.Philox(key=seed))
    worst = dict.fromkeys(("rotation_composition", "rotated_shift",
                           "shift_additivity", "gram_preservation",
                           "weyl_phase"), 0.0)
    for trial in range(trials):
        # alternate between pure unit spans and general step exponentials
        v = random_unit_span(rng, t) if trial % 2 == 0 else random_span(rng, t)
        nv, = _named_calls(trial, [("span norm", v.norm)])
        if nv < 1e-6:
            continue
        # every input of the trial is drawn before any relation runs
        phi, psi = rng.uniform(0.0, 2.0 * math.pi, size=2)
        U, V = cmath.exp(1j * phi), cmath.exp(1j * psi)
        xi = complex(*rng.uniform(-1.0, 1.0, size=2))
        lam, mu = rng.uniform(-3.0, 3.0, size=2)
        w = random_span(rng, t)
        p = AutomorphismParams(rng.uniform(-2.0, 2.0), xi, U)

        def gap(a, b):  # ||A v - B v|| / ||v||, first factor first
            return (_compose_apply(a, v) - _compose_apply(b, v)).norm() / nv

        residuals = {
            "rotation_composition": lambda: gap(
                [rotation(V), rotation(U)], [rotation(U * V)]),
            "rotated_shift": lambda: gap(
                [rotation(U).inverse(), shift(xi), rotation(U)],
                [shift(U * xi)]),
            "shift_additivity": lambda: gap(
                [shift(1j * mu), shift(1j * lam)], [shift(1j * (lam + mu))]),
            "gram_preservation": lambda: np.abs(
                span_inner(apply_automorphism(p, v), apply_automorphism(p, w))
                - span_inner(v, w)) / (nv * w.norm() + 1e-300),
            "weyl_phase": lambda: ccr_phase_residual(lam, mu, v),
        }
        for name, value in zip(residuals,
                               _named_calls(trial, residuals.items())):
            worst[name] = float(np.maximum(worst[name], value))

    return RelationReport(seed=seed, trials=trials, residuals=worst)
