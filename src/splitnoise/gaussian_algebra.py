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

A span built by ExpSpan(coef, breaks, values) is checked as a step
function is: a finite 1-D coef, breaks that are 1-D, start at 0, are
finite and strictly increase, and finite values of shape (k, m), each
refusal a ValueError naming the field.  The spans the package derives
from checked ones (images, sums, differences, scaled copies and its
random draws) skip all but the shape check, so the hot paths pay
nothing for it.

The package never writes a span's arrays after it is built, so what
depends on them alone is computed once: a span keeps its interval
widths, its term integrals (values @ widths) and its norm as lazy
attributes, filled on first read.  The kept norm carries the condition
number that warns, so every call warns as the first did; one that
overflowed is not kept, and each call takes it afresh with numpy's
warnings (see ExpSpan.norm).  An automorphism image or a scaled copy
holds its source's breaks array and takes its widths too, and every
automorphism applied to one span reads that span's integrals.  A chain
of automorphisms runs in one pass over the coefficient and value
arrays and builds one span, its last image (see _compose_apply); each
step after the first takes values @ widths, the product that the
integrals attribute of that step's span would take.  Reads of several
spans merge their partitions once: random_span reads its unit part and
every step term on one merge of all their breaks, and relation_suite's
Gram check reads v, w, A v and A w on one merge.  Each gives the bits
of reading every span on its own; the tests keep those reads as
oracles.  None of this moves a bit of any result, or gains or loses a
warning.

A relation-suite trial is some hundreds of small numpy calls, so the
hot paths take few of them, again without moving a bit.  An
automorphism forms U f + xi on the float view of the values, shaped
(k, m, 2), in four ufunc calls (see apply_automorphism).  A norm first
asks eigvalsh whether its Gram matrix is far inside
GRAM_CONDITION_LIMIT and takes the SVD of the condition number only
when it is not (see ExpSpan.norm): the margin covers the roundoff of
every span size, so no warning is gained or lost.  A difference of two
spans on one breaks array whose terms all join, with as many terms on
each side, is the coefficient difference on v's values, which the
general path's concatenations give too; every difference of the
relation suite is one.

Subtraction pairs terms by index.  In v - w, term i of w joins term i
of v when their values agree within DEDUP_VALUE_TOL, relative to
max(1, the larger sup norm), and its coefficient is subtracted from
v's; every other term of w is appended, negated, in order.  The two
sides of a relation map each term of one span to one term, in the same
order, so their difference cancels term by term and its Gram matrix
stays away from exact degeneracy.  On one breaks array, the two sides'
values are paired as they are, without _common's F-ordered copies:
the pairing is elementwise, so the layout moves no bit.

The one-parameter automorphism family acts on these spans by

    Exp(f)  ->  e^{i lam T} exp(-|xi|^2 T / 2 - conj(xi) I) Exp(U f + xi),
    I = integral_0^T (U f)(s) ds,

with |U| = 1; shifts are (xi, U=1), rotations are (xi=0, U).  The same
multiplier is the product of one factor per interval of f (the tensor
splitting of the horizon); the tests check the closed form against it.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
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

# Machine epsilon of float64, read once.
_EPS = float(np.finfo(float).eps)


class GramConditionWarning(UserWarning):
    """Norm computed through a Gram matrix with condition number > 1e12."""


def _read(breaks: np.ndarray, values: np.ndarray, t):
    """values (..., m) on the intervals of breaks, read at the times t in
    [0, T]: the value on [breaks[j], breaks[j+1]) holding t, the last
    interval's at T."""
    j = breaks.searchsorted(t, side="right") - 1
    return values[..., np.minimum(j, values.shape[-1] - 1)]


def _widths(breaks: np.ndarray) -> np.ndarray:
    """The interval lengths breaks[j+1] - breaks[j]."""
    return breaks[1:] - breaks[:-1]


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
        if not np.isfinite(breaks).all():
            raise ValueError("breakpoints must be finite")
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
    # Python floats, so that an overflow to inf raises no RuntimeWarning,
    # as np.linalg.cond raises none
    return float(sv[0]) / float(sv[-1]) if sv[-1] > 0.0 else math.inf


def _well_conditioned(g: np.ndarray, m: int) -> bool:
    """True when eigvalsh certifies that the finite Gram matrix g, of k
    terms on m intervals, is far from GRAM_CONDITION_LIMIT: its
    eigenvalues w, ascending, have w[0] > (1e-10 + 8 delta) w[-1], where
    delta = k (m + 6) 710 eps bounds the roundoff relative to the largest
    eigenvalue.  False when they do not, or when LAPACK does not
    converge; ExpSpan.norm then takes _condition(g).  The margin
    argument is in ExpSpan.norm's docstring."""
    try:
        w = np.linalg.eigvalsh(g)
    except np.linalg.LinAlgError:
        return False
    delta = len(g) * (m + 6) * 710.0 * _EPS
    return w[0] > (1e-10 + 8.0 * delta) * w[-1]


def _inner_on(a: np.ndarray, b: np.ndarray, widths: np.ndarray):
    """[<a_i, b_j>] for values a, b on intervals of these widths."""
    return (a * widths) @ b.conj().T


def step_inner(f: StepFunction, g: StepFunction) -> complex:
    """integral_0^T f(s) conj(g(s)) ds over the merged partition."""
    cuts, (a, b) = _common(f, g)
    return complex(_inner_on(a, b, _widths(cuts)))


def step_product(f: StepFunction, g: StepFunction) -> StepFunction:
    """Pointwise product on the merged partition (no conjugation)."""
    cuts, (a, b) = _common(f, g)
    return StepFunction(cuts, a * b)


@dataclass(frozen=True, eq=False)
class ExpSpan:
    """Finite combination sum_i c_i Exp(f_i) on a common horizon: coef
    (k,), breaks (m + 1,) shared by every term, and values (k, m), held
    C-contiguous so that norm sums in one order (module docstring), and
    as complex128, so that apply_automorphism can read them as
    interleaved float parts; a real input converts exactly.

    A span built here refuses what StepFunction refuses, with a
    ValueError naming the field: coef must be 1-D and finite (it is
    stored as complex128), breaks 1-D, starting at 0, finite and
    strictly increasing (stored as float64), and values finite, of shape
    (k, m).  The spans the package derives from checked ones (sums,
    differences, images, scaled copies and its random draws) take
    _derived, which checks the shape alone.

    The package never writes a span's arrays after it is built, and the
    lazy attributes rely on that: widths, the interval lengths of
    breaks, integrals, values @ widths, and the norm, each computed on
    first read and kept.  A span built on another's breaks by _on_breaks
    shares its widths."""

    coef: np.ndarray
    breaks: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=complex)
        breaks = np.asarray(self.breaks, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if coef.ndim != 1:
            raise ValueError("coef must be 1-D")
        if not np.isfinite(coef).all():
            raise ValueError("coef must be finite")
        if breaks.ndim != 1 or len(breaks) < 2:
            raise ValueError("breaks must be 1-D with at least 2 breakpoints")
        if breaks[0] != 0.0:
            raise ValueError("breaks must start at 0")
        if not np.isfinite(breaks).all():
            raise ValueError("breaks must be finite")
        if not (breaks[1:] > breaks[:-1]).all():
            raise ValueError("breaks must be strictly increasing")
        self._store(coef, breaks, values)
        if not np.isfinite(self.values).all():
            raise ValueError("values must be finite")

    def _store(self, coef, breaks, values) -> None:
        """Set the fields, values C-contiguous and complex128, after the
        one check that every span takes: the shape of values."""
        if values.shape != (len(coef), len(breaks) - 1):
            raise ValueError("values must be (terms, intervals) of coef, breaks")
        object.__setattr__(self, "coef", coef)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values",
                           np.ascontiguousarray(values, dtype=complex))

    @classmethod
    def _derived(cls, coef, breaks, values) -> "ExpSpan":
        """The span of these arrays, which the package built from checked
        ones: only the shape of values is checked."""
        span = object.__new__(cls)
        span._store(coef, breaks, values)
        return span

    @functools.cached_property
    def widths(self) -> np.ndarray:
        """The interval lengths of breaks (m,)."""
        return _widths(self.breaks)

    @functools.cached_property
    def integrals(self) -> np.ndarray:
        """integral_0^T f_i(s) ds of each term (k,)."""
        return self.values @ self.widths

    def _on_breaks(self, coef, values) -> "ExpSpan":
        """The span of coef and values on these breaks, with their widths."""
        span = ExpSpan._derived(coef, self.breaks, values)
        span.__dict__["widths"] = self.widths
        return span

    @property
    def horizon(self) -> float:
        return float(self.breaks[-1])

    def __add__(self, other: "ExpSpan") -> "ExpSpan":
        cuts, (a, b) = _common(self, other)
        return ExpSpan._derived(np.concatenate([self.coef, other.coef]), cuts,
                                np.concatenate([a, b]))

    def __sub__(self, other: "ExpSpan") -> "ExpSpan":
        """Terms paired by index on the merged partition, by the rule of
        the module docstring; on one breaks array, the values as they
        are."""
        if self.breaks is other.breaks:
            cuts, a, b = self.breaks, self.values, other.values
        else:
            cuts, (a, b) = _common(self, other)
        k = min(len(a), len(b))
        joins = np.zeros(len(b), dtype=bool)
        joins[:k] = (np.abs(a[:k] - b[:k]).max(axis=1) <= DEDUP_VALUE_TOL
                     * np.maximum(1.0, np.maximum(np.abs(a[:k]).max(axis=1),
                                                  np.abs(b[:k]).max(axis=1))))
        if cuts is self.breaks and len(a) == len(b) and joins.all():
            return self._on_breaks(
                np.subtract(self.coef, other.coef, dtype=complex), self.values)
        coef, i = self.coef.astype(complex), joins.nonzero()
        coef[i] -= other.coef[i]
        return ExpSpan._derived(np.concatenate([coef, -other.coef[~joins]]),
                                cuts, np.concatenate([a, b[~joins]]))

    def scaled(self, factor) -> "ExpSpan":
        return self._on_breaks(complex(factor) * self.coef, self.values)

    def norm(self) -> float:
        """sqrt(c^T G conj(c)) over the Gram matrix G of the terms; warns
        when G's condition number exceeds GRAM_CONDITION_LIMIT.  The
        condition number, taken only of a finite G, is s[0] / s[-1] of
        G's singular values s, and inf where s[-1] is 0: the value of
        np.linalg.cond, without its wrapper.

        It is taken only when _well_conditioned(G, m) fails: when the
        eigenvalues w of G, ascending, have w[0] <= (1e-10 + 8 delta)
        w[-1], with delta = k (m + 6) 710 eps for k terms on m intervals,
        or eigvalsh does not converge.  Otherwise no warning can fire, by
        this margin.  Let G* be the exact Gram matrix of the stored values
        and widths, Hermitian and positive semidefinite, with largest
        eigenvalue L.  Each exponent <f_i, f_j> of G is a sum of m
        products, off by at most (m + 5) eps sum |f_i| |f_j| widths <=
        (m + 5) eps sqrt(<f_i, f_i> <f_j, f_j>) <= (m + 5) eps 710 while G
        is finite, so each entry is off by at most delta / k times
        |G*_ij| <= L.  So G, and the Hermitian H that eigvalsh reads from
        G's lower triangle, lie within delta L of G* in norm, whatever k
        and m are; eigvalsh and the SVD return the exact eigenvalues and
        singular values of matrices within another delta L of H and of G
        (their backward errors are some k eps L).  By Weyl's inequality
        L <= w[-1] / (1 - 2 delta), and the singular values s that the
        SVD would return have s[-1] >= w[0] - 4 delta L and
        s[0] <= (1 + 2 delta) L.  A pass needs w[0] > 8 delta w[-1], so
        delta < 1/8, s[0] < 1.7 w[-1] and s[-1] > 1e-10 w[-1]: a
        condition number below 1.7e10, under GRAM_CONDITION_LIMIT by a
        factor of about 60, so skipping the SVD changes no warning.

        The first call keeps the norm and the condition number past
        GRAM_CONDITION_LIMIT (0.0 for none), and every call warns from
        them alike.  A norm is not kept when its Gram matrix or quadratic
        form is not finite: only an overflow gives one, numpy warns of
        it, and each call takes it afresh and warns again."""
        norm, cond = self.__dict__.get("_norm") or self._gram_norm()
        if cond:
            warnings.warn(
                f"Gram condition number {cond:.2e} exceeds 1e12; "
                "norm digits are unreliable", GramConditionWarning,
                stacklevel=2)
        return norm

    def _gram_norm(self) -> tuple:
        """(norm, condition number past the limit or 0.0) by the rule of
        norm, kept in _norm when the Gram matrix and the form are finite."""
        g = np.exp(_inner_on(self.values, self.values, self.widths))
        form = float((self.coef @ g @ self.coef.conj()).real)
        finite = np.isfinite(g).all()
        cond = 0.0
        if len(g) >= 2 and finite and not _well_conditioned(g, len(self.widths)):
            cond = _condition(g)
        memo = math.sqrt(max(form, 0.0)), (
            cond if cond > GRAM_CONDITION_LIMIT else 0.0)
        if finite and math.isfinite(form):
            self.__dict__["_norm"] = memo
        return memo


def _positive_horizon(t, bound: float = math.inf) -> float:
    """t as a float; ValueError unless it is positive and finite, and at
    most bound."""
    if not 0.0 < float(t) < math.inf:
        raise ValueError(f"t must be positive and finite, got {t!r}")
    if float(t) > bound:
        raise ValueError(f"t must be at most {bound!r}, got {t!r}")
    return float(t)


def _finite_amplitude(zeta, name: str = "zeta") -> complex:
    """A coherent amplitude zeta, or the complex parameter of this name,
    as a complex; ValueError unless both of its parts are finite."""
    if not cmath.isfinite(complex(zeta)):
        raise ValueError(f"{name} must be finite, got {zeta!r}")
    return complex(zeta)


def _finite_real(value, name: str) -> None:
    """ValueError unless the parameter of this name is a finite real
    number (a numbers.Real: int, float or a numpy real scalar).  A float,
    numpy's float64 included, is one, so it skips the slower ABC check."""
    if not ((isinstance(value, float) or isinstance(value, numbers.Real))
            and math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _whole(value, name: str, low: int, high: float, rule: str) -> int:
    """value as an int; ValueError unless it is a whole number in
    [low, high), which rule says in words.  The one check of every size:
    counts, seeds, dimensions, bucket counts, grid sizes and reaches; a
    whole float becomes the int it equals, and anything else that int()
    would truncate or parse, such as 8.5 or "16", is refused, and so is a
    bool, which int() would take as 0 or 1."""
    try:
        number = None if isinstance(value, (bool, np.bool_)) else int(value)
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
    """e^{a t} Exp(zeta on (0, t)), the basic factorizing family;
    ValueError for a non-finite a or zeta."""
    a, zeta = _finite_amplitude(a, "a"), _finite_amplitude(zeta)
    t = _positive_horizon(t)
    return ExpSpan(np.array([cmath.exp(a * t)]), np.array([0.0, t]),
                   np.array([[zeta]]))


def _span_product(c, a, b, d, widths) -> complex:
    """sum_ij c_i conj(d_j) exp(<a_i, b_j>) for values a, b on intervals
    of these widths."""
    return complex(c @ np.exp(_inner_on(a, b, widths)) @ d.conj())


def span_inner(v: ExpSpan, w: ExpSpan) -> complex:
    """sum_ij c_i conj(d_j) exp(<f_i, g_j>)."""
    cuts, (a, b) = _common(v, w)
    return _span_product(v.coef, a, b, w.coef, _widths(cuts))


def gram_matrix(fns) -> np.ndarray:
    """[exp(<f_i, f_j>)] for a family of step functions on one horizon."""
    cuts, values = _common(*fns)
    v = np.array(values)
    return np.exp(_inner_on(v, v, _widths(cuts)))


@dataclass(frozen=True)
class AutomorphismParams:
    """Parameters (lam, xi, U) of a white-noise automorphism, |U| = 1;
    ValueError for a lam that is not a finite real number and for a
    non-finite xi or U."""

    lam: float
    xi: complex
    U: complex

    def __post_init__(self):
        _finite_real(self.lam, "lam")
        _finite_amplitude(self.xi, "xi")
        if abs(abs(_finite_amplitude(self.U, "U")) - 1.0) > 1e-12:
            raise ValueError("|U| must equal 1 within 1e-12")

    def inverse(self) -> "AutomorphismParams":
        Ub = complex(self.U).conjugate()
        return AutomorphismParams(-self.lam, -Ub * complex(self.xi), Ub)


def shift(xi) -> AutomorphismParams:
    return AutomorphismParams(0.0, complex(xi), 1.0 + 0.0j)


def rotation(U) -> AutomorphismParams:
    return AutomorphismParams(0.0, 0.0 + 0.0j, complex(U))


def apply_automorphism(p: AutomorphismParams, v: ExpSpan) -> ExpSpan:
    """Image of the span under the automorphism with parameters p: the
    one-step chain of _compose_apply.

    Each term (c, f) maps to (c * mult, U f + xi), with the closed-form
    multiplier of the module docstring.  The image holds v's breaks and
    widths, and the multiplier reads v's cached integrals.

    U f + xi is formed on the float view of the values, shaped (k, m, 2):
    the parts times U.real, plus the swapped parts times (-U.imag,
    U.imag), plus (xi.real, xi.imag): two products and two in-place sums.
    Each real part is U.real re + (-U.imag im), each imaginary part
    U.real im + U.imag re, the order of the by-parts formula
    U.real re - U.imag im, U.real im + U.imag re; IEEE arithmetic
    defines x - y as x + (-y), and -U.imag im is -(U.imag im) exactly,
    so no bit moves, the sign of an exact zero included.
    """
    return _compose_apply((p,), v)


def _compose_apply(params_list, v: ExpSpan) -> ExpSpan:
    """Image of the span v under the automorphisms of params_list, the
    first applied first, in one pass over its arrays (the step of
    apply_automorphism's docstring, repeated).  Only the last image is
    built as a span; each later step reads its term integrals as
    values @ widths on the step before's values, the product that
    ExpSpan.integrals takes on the same array, so every bit is that of
    applying the automorphisms one at a time."""
    T, widths = v.horizon, v.widths
    coef, values, integrals = v.coef, v.values, v.integrals
    parts = values.view(float).reshape(*values.shape, 2)
    for p in params_list:
        if integrals is None:
            integrals = values @ widths
        U, xi = complex(p.U), complex(p.xi)
        mult = np.exp(1j * p.lam * T - 0.5 * abs(xi) ** 2 * T
                      - xi.conjugate() * U * integrals)
        # U f as Python forms U * zeta; numpy's complex multiply rounds otherwise
        image = parts * U.real
        image += parts[..., ::-1] * np.array((-U.imag, U.imag))
        image += np.array((xi.real, xi.imag))
        coef, parts = coef * mult, image
        values, integrals = image.view(complex)[..., 0], None
    return v._on_breaks(coef, values)


def ccr_phase_residual(lam: float, mu: float, v: ExpSpan) -> float:
    """Weyl-relation residual on the span v.

    || S_ilam S_mu v - e^{2 i lam mu T} S_mu S_ilam v || / ||v||, where
    S_ilam, S_mu are the imaginary and real shifts.  Exact algebra makes
    this cancel term by term; the residual is pure roundoff (<= 1e-9).
    ValueError for a lam or mu that is not a finite real number.
    """
    _finite_real(lam, "lam")
    _finite_real(mu, "mu")
    nv = v.norm()
    if nv == 0.0:
        raise ValueError("zero vector")
    real, imaginary = shift(mu), shift(1j * lam)
    x = _compose_apply([real, imaginary], v)
    y = _compose_apply([imaginary, real], v)
    return (x - y.scaled(cmath.exp(2j * lam * mu * v.horizon))).norm() / nv


def _random_steps(rng: np.random.Generator, horizon: float):
    """The breaks and values of a seeded random step function of at most
    RANDOM_MAX_PIECES pieces, each value RANDOM_AMPLITUDE times a
    standard complex normal over 2."""
    m = int(rng.integers(1, RANDOM_MAX_PIECES + 1))
    cuts = np.sort(rng.uniform(0.0, horizon, size=m - 1))
    vals = RANDOM_AMPLITUDE * (rng.standard_normal(m)
                               + 1j * rng.standard_normal(m)) / 2.0
    return np.concatenate([[0.0], cuts, [horizon]]), vals


def random_unit_span(rng: np.random.Generator, t: float,
                     max_units: int = 8) -> ExpSpan:
    """Seeded random combination of at most max_units unit vectors
    e^{a t} Exp(zeta on (0, t)), with a, zeta and the coefficient's
    factor uniform on the squares [-1/2, 1/2]^2, [-1, 1]^2 and [-1, 1]^2.
    The six uniforms of each unit come from one draw: u - 1/2 and 2u - 1
    are the doubles that rng.uniform(lo, hi) forms as lo + (hi - lo) u."""
    t = _positive_horizon(t)
    k = int(rng.integers(1, max_units + 1))
    u = rng.random(6 * k).reshape(k, 6)
    zetas = (2.0 * u[:, 2:4] - 1.0).view(complex)
    coef = np.array([complex(2.0 * cr - 1.0, 2.0 * ci - 1.0)
                     * cmath.exp(complex(ar - 0.5, ai - 0.5) * t)
                     for ar, ai, _, _, cr, ci in u.tolist()])
    return ExpSpan._derived(coef, np.array([0.0, t]), zetas)


def random_span(rng: np.random.Generator, t: float) -> ExpSpan:
    """Random mix of unit vectors and step-function exponentials: a
    random unit span plus terms c Exp(f), each drawn as its c and then a
    random step function, all read on one merge of their breaks."""
    units = random_unit_span(rng, t, max_units=RANDOM_MAX_TERMS // 2)
    coef, steps = [units.coef], []
    for _ in range(int(rng.integers(1, RANDOM_MAX_TERMS // 2 + 1))):
        coef.append([complex(*rng.uniform(-1.0, 1.0, size=2))])
        steps.append(_random_steps(rng, t))
    cuts = np.unique(np.concatenate([units.breaks, *(b for b, _ in steps)]))
    mids = (cuts[:-1] + cuts[1:]) / 2.0
    values = [_read(units.breaks, units.values, mids)]
    values += [_read(b, f, mids)[None] for b, f in steps]
    return ExpSpan._derived(np.concatenate(coef), cuts, np.concatenate(values))


@dataclass(frozen=True)
class RelationReport:
    """Max residual per verified relation over seeded random inputs."""

    seed: int
    trials: int
    residuals: dict

    @property
    def max_residual(self) -> float:
        return float(np.max(list(self.residuals.values())))


def _gram_gap(p: AutomorphismParams, v: ExpSpan, w: ExpSpan):
    """|<A v, A w> - <v, w>| for the automorphism A of parameters p.  The
    four spans are read on one merge, where span_inner would merge v and
    w twice; the two inner products keep span_inner's bits."""
    av, aw = apply_automorphism(p, v), apply_automorphism(p, w)
    cuts, (a, b, c, d) = _common(av, aw, v, w)
    widths = _widths(cuts)
    return np.abs(_span_product(av.coef, a, b, aw.coef, widths)
                  - _span_product(v.coef, c, d, w.coef, widths))


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
            "gram_preservation": lambda: (
                _gram_gap(p, v, w) / (nv * w.norm() + 1e-300)),
            "weyl_phase": lambda: ccr_phase_residual(lam, mu, v),
        }
        for name, value in zip(residuals,
                               _named_calls(trial, residuals.items())):
            worst[name] = float(np.maximum(worst[name], value))

    return RelationReport(seed=seed, trials=trials, residuals=worst)
