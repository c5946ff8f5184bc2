"""Exact algebra of exponential vectors over white noise.

Vectors are finite combinations sum_i c_i Exp(f_i) with step-function
arguments f_i on a common horizon [0, T], and every inner product is
evaluated in closed form through <Exp(f), Exp(g)> = exp(<f, g>).  The
inner product puts the conjugation on the second slot:

    <f, g> = integral_0^T f(s) conj(g(s)) ds

(linear in f, conjugate-linear in g).  That single convention is fixed
here and used everywhere else in the package.

The one-parameter automorphism family acts on these spans by

    Exp(f)  ->  e^{i lam T} exp(-|xi|^2 T / 2 - conj(xi) I) Exp(U f + xi),
    I = integral_0^T (U f)(s) ds,

with |U| = 1; shifts are (xi, U=1), rotations are (xi=0, U).  The same
multiplier is the product of one factor per interval of f (the tensor
splitting of the horizon); the tests check the closed form against it.
"""

from __future__ import annotations

import bisect
import cmath
import math
import warnings
from dataclasses import dataclass, field

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

# Two step functions are "the same" for term merging once their values
# agree to this tolerance on the merged partition.
DEDUP_VALUE_TOL = 1e-14


class GramConditionWarning(UserWarning):
    """Norm computed through a Gram matrix with condition number > 1e12."""


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant complex function on [0, T].

    breaks: strictly increasing, breaks[0] == 0, breaks[-1] == T.
    values: value on the open interval (breaks[j], breaks[j+1]).
    """

    breaks: tuple[float, ...]
    values: tuple[complex, ...]

    def __post_init__(self):
        if len(self.breaks) < 2 or len(self.values) != len(self.breaks) - 1:
            raise ValueError("need m >= 1 intervals and m + 1 breakpoints")
        if self.breaks[0] != 0.0:
            raise ValueError("first breakpoint must be 0")
        for a, b in zip(self.breaks, self.breaks[1:]):
            if not b > a:
                raise ValueError("breakpoints must be strictly increasing")
        if not all(math.isfinite(v.real) and math.isfinite(v.imag)
                   for v in map(complex, self.values)):
            raise ValueError("values must be finite")

    @property
    def horizon(self) -> float:
        return self.breaks[-1]

    @classmethod
    def constant(cls, value, horizon) -> "StepFunction":
        return cls((0.0, float(horizon)), (complex(value),))

    @classmethod
    def indicator(cls, a, b, horizon, value=1.0) -> "StepFunction":
        """value on (a, b), zero elsewhere on [0, horizon]."""
        a, b, horizon = float(a), float(b), float(horizon)
        if not 0.0 <= a < b <= horizon:
            raise ValueError("need 0 <= a < b <= horizon")
        breaks = [0.0]
        values = []
        if a > 0.0:
            breaks.append(a)
            values.append(0.0 + 0.0j)
        breaks.append(b)
        values.append(complex(value))
        if b < horizon:
            breaks.append(horizon)
            values.append(0.0 + 0.0j)
        return cls(tuple(breaks), tuple(values))

    def value_at(self, t: float) -> complex:
        """Value on the interval [breaks[j], breaks[j+1]) containing t."""
        if not 0.0 <= t <= self.horizon:
            raise ValueError("t outside horizon")
        j = bisect.bisect_right(self.breaks, t) - 1
        return complex(self.values[min(j, len(self.values) - 1)])

    def integral(self) -> complex:
        return sum(v * (b - a)
                   for v, a, b in zip(self.values, self.breaks, self.breaks[1:]))

    def scale_add(self, factor, offset) -> "StepFunction":
        """factor * f + offset, same partition."""
        return StepFunction(self.breaks,
                            tuple(complex(factor) * v + complex(offset)
                                  for v in self.values))

    def approx_equal(self, other: "StepFunction", tol=DEDUP_VALUE_TOL) -> bool:
        if self.horizon != other.horizon:
            return False
        cuts, va, vb = _merge(self, other)
        scale = max(1.0, max(abs(v) for v in va + vb))
        return all(abs(x - y) <= tol * scale for x, y in zip(va, vb))


def _merge(f: StepFunction, g: StepFunction):
    """Common refinement of two partitions with both value lists."""
    cuts = sorted(set(f.breaks) | set(g.breaks))
    mids = [(a + b) / 2.0 for a, b in zip(cuts, cuts[1:])]
    return cuts, [f.value_at(t) for t in mids], [g.value_at(t) for t in mids]


def step_inner(f: StepFunction, g: StepFunction) -> complex:
    """integral_0^T f(s) conj(g(s)) ds over the merged partition."""
    if f.horizon != g.horizon:
        raise ValueError("horizon mismatch")
    cuts, va, vb = _merge(f, g)
    return sum(x * y.conjugate() * (b - a)
               for x, y, a, b in zip(va, vb, cuts, cuts[1:]))


def step_product(f: StepFunction, g: StepFunction) -> StepFunction:
    """Pointwise product on the merged partition (no conjugation)."""
    if f.horizon != g.horizon:
        raise ValueError("horizon mismatch")
    cuts, va, vb = _merge(f, g)
    return StepFunction(tuple(cuts), tuple(x * y for x, y in zip(va, vb)))


@dataclass(frozen=True)
class ExpSpan:
    """Finite combination sum_i c_i Exp(f_i) on a common horizon."""

    horizon: float
    terms: tuple[tuple[complex, StepFunction], ...] = field(default_factory=tuple)

    def __post_init__(self):
        for _, f in self.terms:
            if f.horizon != self.horizon:
                raise ValueError("term horizon differs from span horizon")

    def __add__(self, other: "ExpSpan") -> "ExpSpan":
        if self.horizon != other.horizon:
            raise ValueError("horizon mismatch")
        return ExpSpan(self.horizon, self.terms + other.terms)

    def __sub__(self, other: "ExpSpan") -> "ExpSpan":
        return self + other.scaled(-1.0)

    def scaled(self, factor) -> "ExpSpan":
        return ExpSpan(self.horizon,
                       tuple((complex(factor) * c, f) for c, f in self.terms))

    def dedup(self, tol=DEDUP_VALUE_TOL) -> "ExpSpan":
        """Combine terms whose step functions coincide within tol.

        Keeps the Gram matrix away from exact degeneracy; coefficients of
        merged terms are added.
        """
        kept: list[tuple[complex, StepFunction]] = []
        for c, f in self.terms:
            for i, (ck, fk) in enumerate(kept):
                if fk.approx_equal(f, tol):
                    kept[i] = (ck + c, fk)
                    break
            else:
                kept.append((complex(c), f))
        return ExpSpan(self.horizon, tuple(kept))

    def _gram_form(self) -> tuple[float, np.ndarray]:
        """(||v||^2, G): c^T G conj(c) over the Gram matrix G of the terms."""
        coef = np.array([c for c, _ in self.terms], dtype=complex)
        g = gram_matrix([f for _, f in self.terms])
        return max(float((coef @ g @ coef.conj()).real), 0.0), g

    def norm_squared(self) -> float:
        return self._gram_form()[0]

    def norm(self) -> float:
        value, g = self._gram_form()
        if len(g) >= 2:
            cond = np.linalg.cond(g)
            if cond > GRAM_CONDITION_LIMIT:
                warnings.warn(
                    f"Gram condition number {cond:.2e} exceeds 1e12; "
                    "norm digits are unreliable", GramConditionWarning,
                    stacklevel=2)
        return math.sqrt(value)


def exponential(f: StepFunction) -> ExpSpan:
    """The single exponential vector Exp(f)."""
    return ExpSpan(f.horizon, ((1.0 + 0.0j, f),))


def unit(a, zeta, t) -> ExpSpan:
    """e^{a t} Exp(zeta on (0, t)), the basic factorizing family."""
    t = float(t)
    if t <= 0.0:
        raise ValueError("t must be positive")
    return ExpSpan(t, ((cmath.exp(complex(a) * t), StepFunction.constant(zeta, t)),))


def span_inner(v: ExpSpan, w: ExpSpan) -> complex:
    """sum_ij c_i conj(d_j) exp(<f_i, g_j>)."""
    if v.horizon != w.horizon:
        raise ValueError("horizon mismatch")
    total = 0.0 + 0.0j
    for c, f in v.terms:
        for d, g in w.terms:
            total += c * d.conjugate() * cmath.exp(step_inner(f, g))
    return total


def gram_matrix(fns) -> np.ndarray:
    """[exp(<f_i, f_j>)] for a family of step functions."""
    n = len(fns)
    g = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            g[i, j] = cmath.exp(step_inner(fns[i], fns[j]))
            g[j, i] = g[i, j].conjugate()
    return g


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


def _closed_multiplier(p: AutomorphismParams, f: StepFunction) -> complex:
    T = f.horizon
    xi = complex(p.xi)
    return cmath.exp(1j * p.lam * T) * cmath.exp(
        -0.5 * abs(xi) ** 2 * T - xi.conjugate() * complex(p.U) * f.integral())


def apply_automorphism(p: AutomorphismParams, v: ExpSpan) -> ExpSpan:
    """Image of the span under the automorphism with parameters p.

    Each term (c, f) maps to (c * mult, U f + xi), with the closed-form
    multiplier of the module docstring.
    """
    out = []
    for c, f in v.terms:
        out.append((c * _closed_multiplier(p, f), f.scale_add(p.U, p.xi)))
    return ExpSpan(v.horizon, tuple(out))


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
    T = v.horizon
    x = _compose_apply([shift(mu), shift(1j * lam)], v)
    y = _compose_apply([shift(1j * lam), shift(mu)], v)
    phase = cmath.exp(2j * lam * mu * T)
    diff = (x - y.scaled(phase)).dedup()
    return diff.norm() / nv


def random_step_function(rng: np.random.Generator, horizon: float,
                         max_pieces: int = 4, amplitude: float = 1.2) -> StepFunction:
    """Seeded random step function, used by the relation checks."""
    m = int(rng.integers(1, max_pieces + 1))
    cuts = np.sort(rng.uniform(0.0, horizon, size=m - 1))
    breaks = (0.0, *map(float, cuts), horizon)
    vals = amplitude * (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / 2.0
    return StepFunction(tuple(breaks), tuple(map(complex, vals)))


def random_unit_span(rng: np.random.Generator, t: float,
                     max_units: int = 8) -> ExpSpan:
    """Seeded random combination of at most max_units unit vectors."""
    k = int(rng.integers(1, max_units + 1))
    out = ExpSpan(float(t))
    for _ in range(k):
        a = complex(*rng.uniform(-0.5, 0.5, size=2))
        zeta = complex(*rng.uniform(-1.0, 1.0, size=2))
        c = complex(*rng.uniform(-1.0, 1.0, size=2))
        out = out + unit(a, zeta, t).scaled(c)
    return out.dedup()


def random_span(rng: np.random.Generator, t: float, max_terms: int = 6) -> ExpSpan:
    """Random mix of unit vectors and step-function exponentials."""
    out = random_unit_span(rng, t, max_units=max(1, max_terms // 2))
    for _ in range(int(rng.integers(1, max_terms // 2 + 1))):
        c = complex(*rng.uniform(-1.0, 1.0, size=2))
        out = out + exponential(random_step_function(rng, t)).scaled(c)
    return out.dedup()


@dataclass(frozen=True)
class RelationReport:
    """Max residual per verified relation over seeded random inputs."""

    seed: int
    trials: int
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def relation_suite(seed: int, trials: int = 100, t: float = 1.0) -> RelationReport:
    """Check the composition relations of rotations and shifts numerically.

    Covered: rotation composition, rotation-conjugated shift, additivity
    of imaginary shifts, and preservation of inner products; residuals
    are relative span distances, all expected <= 1e-9.
    """
    if trials < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= int(seed) < 2 ** 63:  # the seeds replica_rng accepts
        raise ValueError("seed must lie in [0, 2**63)")
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    worst = {"rotation_composition": 0.0, "rotated_shift": 0.0,
             "shift_additivity": 0.0, "gram_preservation": 0.0}

    def rel_dist(x: ExpSpan, y: ExpSpan, ref: float) -> float:
        return (x - y).dedup().norm() / ref

    for trial in range(trials):
        # alternate between pure unit spans and general step exponentials
        v = random_unit_span(rng, t) if trial % 2 == 0 else random_span(rng, t)
        nv = v.norm()
        if nv < 1e-6:
            continue
        phi, psi = rng.uniform(0.0, 2.0 * math.pi, size=2)
        U, V = cmath.exp(1j * phi), cmath.exp(1j * psi)
        xi = complex(*rng.uniform(-1.0, 1.0, size=2))
        lam, mu = rng.uniform(-3.0, 3.0, size=2)

        a = apply_automorphism(rotation(U), apply_automorphism(rotation(V), v))
        b = apply_automorphism(rotation(U * V), v)
        worst["rotation_composition"] = max(worst["rotation_composition"],
                                            rel_dist(a, b, nv))

        a = _compose_apply([rotation(U).inverse(), shift(xi), rotation(U)], v)
        b = apply_automorphism(shift(U * xi), v)
        worst["rotated_shift"] = max(worst["rotated_shift"], rel_dist(a, b, nv))

        a = _compose_apply([shift(1j * mu), shift(1j * lam)], v)
        b = apply_automorphism(shift(1j * (lam + mu)), v)
        worst["shift_additivity"] = max(worst["shift_additivity"],
                                        rel_dist(a, b, nv))

        w = random_span(rng, t)
        p = AutomorphismParams(rng.uniform(-2.0, 2.0), xi, U)
        lhs = span_inner(apply_automorphism(p, v), apply_automorphism(p, w))
        rhs = span_inner(v, w)
        worst["gram_preservation"] = max(worst["gram_preservation"],
                                         abs(lhs - rhs) / (nv * w.norm() + 1e-300))

    return RelationReport(seed=int(seed), trials=trials, residuals=worst)
