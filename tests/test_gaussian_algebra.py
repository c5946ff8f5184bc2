import cmath
import hashlib
import math
import warnings

import numpy as np
import pytest

from splitnoise import gaussian_algebra
from splitnoise.gaussian_algebra import (
    AutomorphismParams,
    ExpSpan,
    GramConditionWarning,
    RelationReport,
    StepFunction,
    apply_automorphism,
    ccr_phase_residual,
    exponential,
    gram_matrix,
    random_span,
    random_unit_span,
    relation_suite,
    rotation,
    shift,
    span_inner,
    step_inner,
    step_product,
    unit,
)


def constant(value, horizon):
    """The step function equal to value on all of [0, horizon]."""
    return StepFunction([0.0, horizon], [value])


def random_step_function(rng, horizon):
    """A seeded random step function: the draw of one of random_span's
    step terms."""
    return StepFunction(*gaussian_algebra._random_steps(rng, horizon))


def test_step_inner_unit_indicator():
    f = constant(1.0, 1.0)
    assert step_inner(f, f) == 1.0


def test_step_inner_conjugates_second_slot():
    t = 0.7
    f = constant(1j, t)
    g = constant(1.0, t)
    assert step_inner(f, g) == pytest.approx(1j * t)
    assert step_inner(g, f) == pytest.approx(-1j * t)


def test_step_inner_piecewise_example():
    f = StepFunction((0.0, 0.5, 1.0), (1.0, 2.0))
    g = constant(1j, 1.0)
    assert step_inner(f, g) == pytest.approx(-1.5j)


def test_step_inner_merges_partitions():
    # same function carved up two different ways
    f1 = StepFunction((0.0, 0.25, 1.0), (2.0, 2.0))
    f2 = constant(2.0, 1.0)
    g = StepFunction((0.0, 0.6, 1.0), (1.0 - 1j, 0.5))
    assert step_inner(f1, g) == pytest.approx(step_inner(f2, g))


def test_step_inner_horizon_mismatch():
    with pytest.raises(ValueError):
        step_inner(constant(1.0, 1.0), constant(1.0, 2.0))


def test_step_function_validation():
    with pytest.raises(ValueError):
        StepFunction((0.5, 1.0), (1.0,))      # first break not 0
    with pytest.raises(ValueError):
        StepFunction((0.0, 0.5, 0.5), (1.0, 2.0))  # not strictly increasing
    with pytest.raises(ValueError):
        StepFunction((0.0, 1.0), (float("nan"),))
    with pytest.raises(ValueError):
        StepFunction((0.0, 0.5, 1.0), (1.0,))  # one value for two intervals
    with pytest.raises(ValueError):
        StepFunction((0.0,), ())               # no interval
    for a, b in ((0.5, 0.5), (0.75, 0.25)):    # an empty indicator interval
        with pytest.raises(ValueError, match="need 0 <= a < b <= horizon"):
            StepFunction.indicator(a, b, 1.0)


def test_step_function_refuses_a_non_finite_breakpoint():
    # an infinite horizon used to pass, and exponential(f).norm() was then
    # nan after two RuntimeWarnings
    for make in (lambda: StepFunction([0.0, 1.0, math.inf], [1, 2]),
                 lambda: StepFunction([0.0, math.nan, 1.0], [1, 2]),
                 lambda: StepFunction.indicator(0.0, 1.0, math.inf)):
        with pytest.raises(ValueError, match="^breaks must be finite$"):
            make()


def test_exp_span_rejects_values_of_the_wrong_shape():
    coef, breaks = np.ones(1, dtype=complex), np.array([0.0, 0.5, 1.0])
    span = ExpSpan(coef, breaks, np.ones((1, 2)))  # one term, two intervals
    for values in (np.ones((2, 2)), np.ones((1, 3)), np.ones(2)):
        with pytest.raises(ValueError, match="values must be"):
            ExpSpan(coef, breaks, values)
        # a span built on another's breaks, too
        with pytest.raises(ValueError, match="values must be"):
            span._on_breaks(coef, values.astype(complex))


# arguments of ExpSpan(coef, breaks, values) that StepFunction's checks
# refuse, and the message naming the field; a list coef used to fail
# inside norm, breaks [0, 1, 0.5] gave a wrong norm, a NaN coef a NaN
# norm and breaks [0, inf] a numpy RuntimeWarning
EXP_SPAN_REFUSALS = {
    "coef-2d": ([[1.0]], [0.0, 1.0], [[0.5]], "coef must be 1-D"),
    "coef-nan": ([math.nan], [0.0, 1.0], [[0.5]], "coef must be finite"),
    "coef-inf": ([complex(1.0, -math.inf)], [0.0, 1.0], [[0.5]],
                 "coef must be finite"),
    "breaks-2d": ([1.0], [[0.0, 1.0]], [[0.5]], "breaks must be 1-D"),
    "breaks-one": ([1.0], [0.0], np.empty((1, 0)), "breaks must be 1-D"),
    "breaks-start": ([1.0], [0.5, 1.0], [[0.5]], "breaks must start at 0"),
    "breaks-nan": ([1.0], [0.0, math.nan, 1.0], [[0.5, 0.5]],
                   "breaks must be finite"),
    "breaks-inf": ([1.0], [0.0, math.inf], [[0.5]], "breaks must be finite"),
    "breaks-order": ([1.0], [0.0, 1.0, 0.5], [[0.5, 0.5]],
                     "breaks must be strictly increasing"),
    "breaks-repeat": ([1.0], [0.0, 0.5, 0.5, 1.0], [[0.5, 0.5, 0.5]],
                      "breaks must be strictly increasing"),
    "values-nan": ([1.0], [0.0, 1.0], [[math.nan]], "values must be finite"),
    "values-inf": ([1.0, 2.0], [0.0, 1.0], [[0.5], [complex(0.0, math.inf)]],
                   "values must be finite"),
}


@pytest.mark.parametrize("name", sorted(EXP_SPAN_REFUSALS))
def test_exp_span_refuses_what_step_function_refuses(name):
    coef, breaks, values, message = EXP_SPAN_REFUSALS[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}"):
            ExpSpan(coef, breaks, values)


def test_exp_span_stores_list_input_as_the_arrays_it_converts_to():
    listed = ExpSpan([1, 2.0], [0, 0.5, 1], [[0.5, 1j], [0, -0.25]])
    arrays = ExpSpan(np.array([1.0, 2.0], dtype=complex),
                     np.array([0.0, 0.5, 1.0]),
                     np.array([[0.5, 1j], [0.0, -0.25]]))
    assert listed.coef.dtype == np.complex128
    assert listed.breaks.dtype == np.float64
    assert _span_bytes(listed) == _span_bytes(arrays)
    assert (np.float64(listed.norm()).tobytes()
            == np.float64(arrays.norm()).tobytes())
    # a float64 breaks array is held as it is, so spans built on one
    # share it, and their difference skips the merge
    assert ExpSpan(arrays.coef, arrays.breaks, arrays.values).breaks \
        is arrays.breaks


def test_derived_spans_keep_only_the_shape_check():
    # an image whose multiplier overflowed is still a span: the relation
    # suite at long horizons reports its residual as nan
    v = exponential(constant(0.5, 1.0))
    with pytest.raises(ValueError, match="^coef must be finite$"):
        ExpSpan(np.array([math.inf + 0j]), v.breaks, v.values)
    assert math.isinf(v._on_breaks(np.array([math.inf + 0j]),
                                   v.values).coef[0].real)
    with pytest.raises(ValueError, match="^values must be"):
        ExpSpan._derived(v.coef, v.breaks, v.values[:, :0])


def test_step_function_holds_read_only_array_copies():
    breaks, values = np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0])
    f = StepFunction(breaks, values)
    assert f.breaks.dtype == np.float64 and f.values.dtype == np.complex128
    breaks[1] = 0.7  # the caller's array is copied, not shared
    assert f.breaks[1] == 0.5
    for array in (f.breaks, f.values):
        with pytest.raises(ValueError):
            array[0] = 0.25


def test_value_at_reads_an_array_of_times_as_single_times():
    f = StepFunction((0.0, 0.3, 0.5, 1.0), (1.0, 2.0 - 1j, 3.0))
    times = np.array([0.0, 0.1, 0.3, 0.4, 0.5, 0.99, 1.0])
    got = f.value_at(times)
    assert got.dtype == np.complex128 and got.shape == times.shape
    assert got.tolist() == [f.value_at(float(s)) for s in times]
    # a break opens the interval to its right; T reads the last interval
    assert isinstance(f.value_at(0.3), complex)
    assert (f.value_at(0.3), f.value_at(0.5), f.value_at(1.0)) == (2 - 1j, 3, 3)
    for outside in (-0.1, 1.1, math.nan, np.array([0.5, 1.5])):
        with pytest.raises(ValueError):
            f.value_at(outside)


@pytest.mark.parametrize("a,b,breaks,values", [
    (0.25, 0.5, [0.0, 0.25, 0.5, 1.0], [0, 1, 0]),
    (0.0, 0.5, [0.0, 0.5, 1.0], [1, 0]),
    (0.25, 1.0, [0.0, 0.25, 1.0], [0, 1]),
    (0.0, 1.0, [0.0, 1.0], [1]),
], ids=["interior", "a=0", "b=T", "a=0,b=T"])
def test_indicator_breaks_and_values(a, b, breaks, values):
    f = StepFunction.indicator(a, b, 1.0)
    assert f.breaks.tolist() == breaks
    assert f.values.tolist() == values


def test_step_product_pointwise():
    f = StepFunction((0.0, 0.5, 1.0), (2.0, 3.0))
    chi = StepFunction.indicator(0.25, 0.75, 1.0)
    p = step_product(f, chi)
    assert p.value_at(0.1) == 0.0
    assert p.value_at(0.3) == 2.0
    assert p.value_at(0.6) == 3.0
    assert p.value_at(0.9) == 0.0


def test_span_inner_vacuum():
    v = exponential(constant(0.0, 1.0))
    assert span_inner(v, v) == pytest.approx(1.0)


def test_span_inner_single_exponential_norm():
    zeta, t = 0.8 - 0.3j, 1.7
    v = exponential(constant(zeta, t))
    assert span_inner(v, v) == pytest.approx(math.exp(abs(zeta) ** 2 * t))


def _double_sum_inner(v, w):
    """Oracle: sum_ij c_i conj(d_j) exp(<f_i, g_j>), each <f_i, g_j> summed
    term by term over the merged intervals, read at their midpoints."""
    cuts = sorted(set(v.breaks.tolist()) | set(w.breaks.tolist()))
    mids = [((a + b) / 2.0, b - a) for a, b in zip(cuts, cuts[1:])]

    def terms(span):
        return [(c, StepFunction(tuple(span.breaks.tolist()), tuple(row)))
                for c, row in zip(span.coef.tolist(), span.values.tolist())]

    total = 0.0 + 0.0j
    for c, f in terms(v):
        for d, g in terms(w):
            inner = sum(f.value_at(s) * g.value_at(s).conjugate() * ds
                        for s, ds in mids)
            total += c * d.conjugate() * cmath.exp(inner)
    return total


def test_span_inner_and_norm_match_double_sum_oracle():
    rng = np.random.Generator(np.random.Philox(key=17))
    for _ in range(20):
        v, w = random_span(rng, 1.3), random_span(rng, 1.3)
        assert span_inner(v, w) == pytest.approx(_double_sum_inner(v, w),
                                                 rel=1e-13)
        assert v.norm() ** 2 == pytest.approx(
            _double_sum_inner(v, v).real, rel=1e-13)


def test_span_inner_conjugate_symmetry():
    rng = np.random.Generator(np.random.Philox(key=42))
    for _ in range(10):
        v = random_unit_span(rng, 1.0)
        w = random_unit_span(rng, 1.0)
        assert span_inner(v, w) == pytest.approx(span_inner(w, v).conjugate())


def test_exp_difference_norm_against_two_term_gram():
    # oracle: expand || Exp(f) - Exp(g) ||^2 sesquilinearly by hand
    f = StepFunction((0.0, 0.3, 1.0), (0.5 + 0.2j, -0.4))
    g = constant(0.3 - 0.6j, 1.0)
    expected = (math.exp(step_inner(f, f).real) + math.exp(step_inner(g, g).real)
                - 2.0 * cmath.exp(step_inner(f, g)).real)
    diff = exponential(f) - exponential(g)
    assert diff.norm() ** 2 == pytest.approx(expected, rel=1e-12)


def test_unit_vacuum_norm():
    v = unit(0.0, 0.0, 2.0)
    assert v.norm() == pytest.approx(1.0)


def test_unit_norm_squared_formula():
    a, zeta, t = 0.3 + 1.1j, 0.7 - 0.2j, 0.9
    v = unit(a, zeta, t)
    expected = math.exp(2.0 * a.real * t + abs(zeta) ** 2 * t)
    assert span_inner(v, v).real == pytest.approx(expected, rel=1e-12)


def test_unit_factorization_over_time_split():
    # <u(s+t), u'(s+t)> = <u(s), u'(s)> <u(t), u'(t)>
    a, z = 0.2 - 0.1j, 0.9 + 0.4j
    ap, zp = -0.3 + 0.2j, 0.1 - 0.7j
    for s, t in ((0.4, 0.6), (1.0, 0.5), (0.25, 0.25)):
        lhs = span_inner(unit(a, z, s + t), unit(ap, zp, s + t))
        rhs = (span_inner(unit(a, z, s), unit(ap, zp, s))
               * span_inner(unit(a, z, t), unit(ap, zp, t)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_unit_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        unit(0.0, 1.0, 0.0)


def test_rotation_on_units_rotates_argument_exactly():
    zeta, U, t = 0.6 + 0.3j, cmath.exp(1j * 0.8), 1.3
    out = apply_automorphism(rotation(U), unit(0.0, zeta, t))
    (c,) = out.coef
    assert c == pytest.approx(1.0)
    assert out.values.tolist() == [[U * zeta]]


def test_imaginary_shift_closed_form_term_data():
    # exp(-lam^2 t / 2 + i lam zeta t) u^{(zeta + i lam)}
    lam, zeta, t = 1.7, 0.4 - 0.9j, 0.8
    out = apply_automorphism(shift(1j * lam), unit(0.0, zeta, t))
    (c,) = out.coef
    expected = cmath.exp(-0.5 * lam ** 2 * t + 1j * lam * zeta * t)
    assert c == pytest.approx(expected, rel=1e-12)
    assert out.values[0, 0] == pytest.approx(zeta + 1j * lam)


def test_identity_params_leave_span_unchanged():
    v = unit(0.1, 0.5 - 0.2j, 1.0)
    out = apply_automorphism(AutomorphismParams(0.0, 0.0, 1.0), v)
    assert out.coef[0] == v.coef[0]
    assert out.values.tolist() == v.values.tolist()


def test_multiplication_identification_term_by_term():
    # imaginary shift acts on Exp(f) by the explicit multiplier, exactly
    lam = 0.9
    f = StepFunction((0.0, 0.4, 1.0), (0.2 + 0.1j, -0.5 + 0.3j))
    out = apply_automorphism(shift(1j * lam), exponential(f))
    (c,) = out.coef
    integral = step_inner(f, constant(1.0, f.horizon))
    expected_c = cmath.exp(-0.5 * lam ** 2 * f.horizon + 1j * lam * integral)
    assert c == pytest.approx(expected_c, rel=1e-12)
    assert all(gv == pytest.approx(fv + 1j * lam)
               for gv, fv in zip(out.values[0], f.values))


def _per_interval_multiplier(p, f):
    """Oracle: the automorphism multiplier of Exp(f) assembled from the
    tensor splitting of [0, T], one factor per interval of f."""
    xi = complex(p.xi)
    out = cmath.exp(1j * p.lam * f.horizon)
    for v, a, b in zip(f.values, f.breaks, f.breaks[1:]):
        dt = b - a
        out *= cmath.exp(-0.5 * abs(xi) ** 2 * dt
                         - complex(p.U) * complex(v) * xi.conjugate() * dt)
    return out


def test_closed_form_multiplier_equals_per_interval_product():
    rng = np.random.Generator(np.random.Philox(key=5))
    for _ in range(25):
        f = random_step_function(rng, 1.0)
        p = AutomorphismParams(float(rng.uniform(-2, 2)),
                               complex(*rng.uniform(-1, 1, 2)),
                               cmath.exp(1j * float(rng.uniform(0, 2 * math.pi))))
        (c,) = apply_automorphism(p, exponential(f)).coef
        assert c == pytest.approx(_per_interval_multiplier(p, f), rel=1e-12)


def test_automorphism_preserves_inner_products():
    rng = np.random.Generator(np.random.Philox(key=9))
    for _ in range(20):
        v = random_unit_span(rng, 1.0)
        w = random_unit_span(rng, 1.0)
        p = AutomorphismParams(float(rng.uniform(-2, 2)),
                               complex(*rng.uniform(-1, 1, 2)),
                               cmath.exp(1j * float(rng.uniform(0, 2 * math.pi))))
        lhs = span_inner(apply_automorphism(p, v), apply_automorphism(p, w))
        rhs = span_inner(v, w)
        assert abs(lhs - rhs) <= 1e-9 * v.norm() * w.norm()


def test_composition_of_two_automorphisms_preserves_gram():
    rng = np.random.Generator(np.random.Philox(key=13))
    p1 = AutomorphismParams(0.7, 0.2 - 0.5j, cmath.exp(0.4j))
    p2 = AutomorphismParams(-1.1, -0.6 + 0.1j, cmath.exp(-1.9j))
    v = random_unit_span(rng, 1.0)
    w = random_unit_span(rng, 1.0)
    lhs = span_inner(apply_automorphism(p2, apply_automorphism(p1, v)),
                     apply_automorphism(p2, apply_automorphism(p1, w)))
    assert abs(lhs - span_inner(v, w)) <= 1e-9 * v.norm() * w.norm()


def test_automorphism_rejects_non_unimodular_U():
    with pytest.raises(ValueError):
        AutomorphismParams(0.0, 0.0, 1.1)


def test_ccr_phase_residual_random_spans():
    rng = np.random.Generator(np.random.Philox(key=21))
    worst = 0.0
    for _ in range(30):
        v = random_unit_span(rng, 1.0)
        lam, mu = rng.uniform(-3.0, 3.0, size=2)
        worst = max(worst, ccr_phase_residual(float(lam), float(mu), v))
    assert worst <= 1e-9


def test_ccr_phase_residual_zero_lambda_is_exactly_zero():
    v = unit(0.0, 0.7 + 0.2j, 1.0) + unit(0.1, -0.4j, 1.0)
    assert ccr_phase_residual(0.0, 1.3, v) == 0.0


def test_ccr_phase_residual_wrong_phase_negative_control():
    # against e^{i lam mu T} instead of e^{2 i lam mu T} the residual is
    # the modulus of the phase mismatch, for a unit-norm vector
    lam, mu, t = 0.8, 1.1, 1.0
    v = unit(0.0, 0.3 - 0.2j, t)
    v = v.scaled(1.0 / v.norm())
    x = apply_automorphism(shift(1j * lam), apply_automorphism(shift(mu), v))
    y = apply_automorphism(shift(mu), apply_automorphism(shift(1j * lam), v))
    wrong = cmath.exp(1j * lam * mu * t)
    resid = (x - y.scaled(wrong)).norm()
    expected = abs(cmath.exp(2j * lam * mu * t) - wrong)
    assert resid == pytest.approx(expected, rel=1e-9)


def test_ccr_phase_residual_rejects_zero_vector():
    empty = ExpSpan(np.empty(0, dtype=complex), np.array([0.0, 1.0]),
                    np.empty((0, 1), dtype=complex))
    with pytest.raises(ValueError):
        ccr_phase_residual(1.0, 1.0, empty)


def test_relation_suite_specific_cases():
    U = cmath.exp(1j * math.pi / 3)
    v = unit(0.0, 0.4 + 0.1j, 1.0)
    a = apply_automorphism(rotation(U), apply_automorphism(rotation(U), v))
    b = apply_automorphism(rotation(U * U), v)
    assert (a - b).norm() <= 1e-12

    vac = exponential(constant(0.0, 1.0))
    lhs = apply_automorphism(rotation(1j), apply_automorphism(
        shift(1.0), apply_automorphism(rotation(1j).inverse(), vac)))
    rhs = apply_automorphism(shift(1j), vac)
    assert (lhs - rhs).norm() <= 1e-12

    # rotation by pi twice is the identity on units
    out = apply_automorphism(rotation(-1.0), apply_automorphism(rotation(-1.0), v))
    assert (out - v).norm() <= 1e-12


def test_relation_suite_seeded():
    report = relation_suite(2024, trials=40)
    assert set(report.residuals) == {"rotation_composition", "rotated_shift",
                                     "shift_additivity", "gram_preservation",
                                     "weyl_phase"}
    assert report.max_residual <= 1e-9


def test_relation_suite_reproducible():
    a = relation_suite(77, trials=10)
    b = relation_suite(77, trials=10)
    assert a.residuals == b.residuals


def test_relation_suite_rejects_bad_trials_and_seeds(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran before the inputs were checked")
    monkeypatch.setattr(gaussian_algebra, "random_unit_span", no_trial)
    for seed, trials in ((1, 0), (1, -3), (-1, 5), (2 ** 63, 5)):
        with pytest.raises(ValueError):
            relation_suite(seed, trials=trials)
    monkeypatch.undo()
    assert relation_suite(2 ** 63 - 1, trials=2).max_residual <= 1e-9


@pytest.mark.parametrize("kwargs,message", [
    ({"trials": 2.5}, "trials must be at least 1 and be a whole number"),
    ({"trials": "3"}, "trials must be at least 1 and be a whole number"),
    ({"trials": math.nan}, "trials must be at least 1 and be a whole number"),
    ({"t": 5000.0}, r"t must be at most 1419\.5654"),
    ({"t": 2.0 * math.log(np.finfo(float).max) * (1 + 1e-15)},
     r"t must be at most 1419\.5654"),
], ids=["trials-2.5", "trials-str", "trials-nan", "t-5000",
        "t-past-the-bound"])
def test_relation_suite_rejects_counts_and_horizons_before_any_trial(
        kwargs, message, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran before the inputs were checked")
    monkeypatch.setattr(gaussian_algebra, "random_unit_span", no_trial)
    with pytest.raises(ValueError, match=message):
        relation_suite(1, **kwargs)


def test_relation_suite_takes_a_whole_float_count_as_an_int():
    report = relation_suite(5, trials=2.0)
    assert report.trials == 2 and type(report.trials) is int
    assert report.residuals == relation_suite(5, trials=2).residuals


def test_random_unit_spans_stay_finite_up_to_the_horizon_bound():
    # Re a < 1/2, so e^{a t} is finite for t <= 2 ln(DBL_MAX)
    t = gaussian_algebra.MAX_RELATION_HORIZON
    assert t == 2.0 * math.log(np.finfo(float).max)
    rng = np.random.Generator(np.random.Philox(key=7))
    for _ in range(20):
        assert np.isfinite(random_unit_span(rng, t).coef).all()


def test_gram_positivity():
    rng = np.random.Generator(np.random.Philox(key=31))
    for _ in range(15):
        fns = [random_step_function(rng, 1.0) for _ in range(5)]
        g = gram_matrix(fns)
        w = np.linalg.eigvalsh(g)
        assert w[0] >= -1e-10 * np.trace(g).real


def _all_pairs_merge(span):
    """Oracle: the all-pairs merge that subtraction used to be followed
    by.  Each term joins the first kept term whose values agree with its
    own within DEDUP_VALUE_TOL, relative to max(1, the larger sup norm),
    adding its coefficient there; a term that joins none is kept."""
    v = span.values
    sup = np.abs(v).max(axis=1)
    close = (np.abs(v[:, None, :] - v[None, :, :]).max(axis=2)
             <= gaussian_algebra.DEDUP_VALUE_TOL
             * np.maximum(1.0, np.maximum.outer(sup, sup)))
    into = []  # the kept term each term joins; a kept term joins itself
    for j in range(len(v)):
        into.append(next((i for i in into if close[i, j]), j))
    coef = np.zeros(len(v), dtype=complex)
    np.add.at(coef, into, span.coef)
    kept = np.unique(into)
    return ExpSpan(coef[kept], span.breaks, v[kept])


def _relation_sides(rng, t):
    """Automorphism lists A, B (first factor first) and the phase of each
    relation that relation_suite measures as || A v - phase B v ||."""
    U, V = (cmath.exp(1j * a) for a in rng.uniform(0.0, 2.0 * math.pi, 2))
    xi = complex(*rng.uniform(-1.0, 1.0, size=2))
    lam, mu = rng.uniform(-3.0, 3.0, size=2)
    return [([rotation(V), rotation(U)], [rotation(U * V)], 1.0),
            ([rotation(U).inverse(), shift(xi), rotation(U)],
             [shift(U * xi)], 1.0),
            ([shift(1j * mu), shift(1j * lam)], [shift(1j * (lam + mu))], 1.0),
            ([shift(mu), shift(1j * lam)], [shift(1j * lam), shift(mu)],
             cmath.exp(2j * lam * mu * t))]


def _images(a, b, phase, v):
    x, y = v, v
    for p in a:
        x = apply_automorphism(p, x)
    for p in b:
        y = apply_automorphism(p, y)
    return x, (y if phase == 1.0 else y.scaled(phase))


def _bits(span):
    with warnings.catch_warnings():
        # long horizons give ill-conditioned differences; the bits of
        # their norms must agree all the same
        warnings.simplefilter("ignore", GramConditionWarning)
        norm = span.norm()
    return [span.coef.tobytes(), span.breaks.tobytes(), span.values.tobytes(),
            np.float64(norm).tobytes()]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
def test_subtraction_of_relation_images_equals_the_all_pairs_merge(seed, t):
    # the old pipeline: the random constructors ended in the all-pairs
    # merge, and so did the difference of the two sides
    rng = np.random.Generator(np.random.Philox(key=seed))
    for trial in range(10):
        v = random_unit_span(rng, t) if trial % 2 else random_span(rng, t)
        old_v = _all_pairs_merge(v)
        for a, b, phase in _relation_sides(rng, t):
            x, y = _images(a, b, phase, v)
            old_x, old_y = _images(a, b, phase, old_v)
            old = _all_pairs_merge(old_x + old_y.scaled(-1.0))
            assert _bits(x - y) == _bits(old)


def _merged_common(*fns):
    """Oracle: the merge written out, merging the partitions of every
    call, shared or not, and reading each operand at the merged
    midpoints."""
    if len({f.horizon for f in fns}) > 1:
        raise ValueError("horizon mismatch")
    cuts = np.unique(np.concatenate([f.breaks for f in fns]))
    mids = (cuts[:-1] + cuts[1:]) / 2.0
    return cuts, [gaussian_algebra._read(f.breaks, f.values, mids)
                  for f in fns]


def _operation_bits(rng, t):
    """Bits of norm, span_inner, +, -, step_inner and step_product on a
    random span, its automorphism images, spans of several terms and of
    one term on equal but distinct breaks, another random span, and step
    functions on shared, equal and different partitions."""
    # at least five intervals: the Gram product of one term against
    # several sums in an order that follows the layout from four on
    five = StepFunction(np.linspace(0.0, t, 6),
                        rng.standard_normal(5) + 0.5j)
    v = random_span(rng, t) + exponential(five)
    w = random_span(rng, t)
    p = AutomorphismParams(rng.uniform(-2.0, 2.0),
                           complex(*rng.uniform(-1.0, 1.0, size=2)),
                           cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    images = [apply_automorphism(p, v), apply_automorphism(shift(0.4j), v)]
    twin = ExpSpan(v.coef[::-1], v.breaks.copy(), v.values[::-1])
    one = ExpSpan(v.coef[:1], v.breaks.copy(), v.values[:1])
    spans = [v, w, twin, one, *images]
    bits = []
    for x in spans:
        for y in spans:
            bits.append(np.complex128(span_inner(x, y)).tobytes())
            bits += _bits(x + y) + _bits(x - y)
    f, g = random_step_function(rng, t), random_step_function(rng, t)
    f_twin = StepFunction(f.breaks.copy(), f.values[::-1])
    for a in (f, g, f_twin, five):
        for b in (f, g, f_twin, five):
            product = step_product(a, b)
            bits += [np.complex128(step_inner(a, b)).tobytes(),
                     product.breaks.tobytes(), product.values.tobytes()]
    return bits


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
def test_shared_partitions_skip_the_merge_to_the_bit(monkeypatch, seed, t):
    # v - w on one breaks array reads the values as they are; every
    # result must keep the bits of the merged read, which the oracle run
    # forces on every operation, v - w included, by giving v a copy of
    # its breaks
    rng = np.random.Generator(np.random.Philox(key=seed))
    fast = [_operation_bits(rng, t) for _ in range(6)]
    monkeypatch.setattr(gaussian_algebra, "_common", _merged_common)
    subtract = ExpSpan.__sub__
    monkeypatch.setattr(ExpSpan, "__sub__", lambda v, w: subtract(
        ExpSpan._derived(v.coef, v.breaks.copy(), v.values), w))
    rng = np.random.Generator(np.random.Philox(key=seed))
    assert fast == [_operation_bits(rng, t) for _ in range(6)]


def test_gram_condition_number_is_numpys():
    # the norm warns with np.linalg.cond of its Gram matrix, kept to the
    # bit, exactly when that exceeds GRAM_CONDITION_LIMIT
    warned = 0
    for span in _near_collinear_spans(np.random.Generator(
            np.random.Philox(key=17))):
        g = np.exp(gaussian_algebra._inner_on(span.values, span.values,
                                              span.widths))
        cond = np.linalg.cond(g)
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            span.norm()
        if cond <= gaussian_algebra.GRAM_CONDITION_LIMIT:
            assert record == []
            continue
        warned += 1
        assert [(w.category, str(w.message)) for w in record] == [
            (GramConditionWarning, f"Gram condition number {cond:.2e} "
                                   "exceeds 1e12; norm digits are unreliable")]
        assert (np.float64(span._gram_norm()[1]).tobytes()
                == cond.tobytes())
    assert warned >= 10


def test_a_singular_gram_warns_inf_without_a_runtime_warning():
    # two equal terms: the Gram matrix has rank 1 and, in floating point,
    # a smallest singular value of exactly 0
    f = exponential(constant(0.5, 1.0))
    v = f + f
    g = np.exp(gaussian_algebra._inner_on(v.values, v.values, v.widths))
    assert np.linalg.svd(g, compute_uv=False)[-1] == 0.0
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert v.norm() == pytest.approx(2.0 * math.exp(0.125))
    assert [(w.category, str(w.message)) for w in record] == [
        (GramConditionWarning, "Gram condition number inf exceeds 1e12; "
                               "norm digits are unreliable")]


# md5 of repr(report.residuals), then each warning as "\n<category>:
# <message>", as relation_suite gave them when every relation had a
# warnings record of its own; at t = 20, shift_additivity overflows to nan
PINNED_RELATION_SUITES = {
    (1, 0.3, 30): "582665a320b9289514cd06559feb289c",
    (3, 5.0, 30): "b7892fab3bf55a43611a5af0fcc6bcfa",
    (100, 1.0, 50): "c16f4b35f11cd69111da9fb4bdb37d39",
    (1, 20.0, 60): "dd7e8418916a236ac5c12758d8950b92",
}


@pytest.mark.parametrize("seed,t,trials", PINNED_RELATION_SUITES)
def test_relation_suite_keeps_its_pinned_residuals_and_warnings(seed, t,
                                                                trials):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        report = relation_suite(seed, trials, t)
    text = repr(report.residuals) + "".join(
        f"\n{w.category.__name__}: {w.message}" for w in record)
    assert (hashlib.md5(text.encode()).hexdigest()
            == PINNED_RELATION_SUITES[seed, t, trials])
    assert all(w.filename == __file__ for w in record)
    assert math.isnan(report.max_residual) == (t == 20.0)


def _constants(values, coef=None):
    """One term per value, constant on [0, 1], coefficients 1, 2, ..."""
    k = len(values)
    coef = np.arange(1.0, k + 1.0) + 0j if coef is None else coef
    return ExpSpan(np.asarray(coef, dtype=complex), np.array([0.0, 1.0]),
                   np.array(values, dtype=complex)[:, None])


def test_subtraction_joins_a_term_to_the_term_of_the_same_index():
    tol = gaussian_algebra.DEDUP_VALUE_TOL
    f = exponential(constant(0.5, 1.0))
    d = f - f
    assert d.coef.tolist() == [0.0] and d.norm() == 0.0
    # within tol, or within tol times the sup norm past 1, the coefficient
    # is subtracted and the term of v keeps its value
    v = _constants([0.5, 3.0], coef=[5.0, 7.0])
    w = _constants([0.5 + 0.75 * tol, 3.0 + 2.5 * tol], coef=[1.0, 2.0])
    d = v - w
    assert d.values[:, 0].tolist() == [0.5, 3.0]
    assert d.coef.tolist() == [4.0, 5.0]


def test_subtraction_appends_every_other_term_negated_in_order():
    tol = gaussian_algebra.DEDUP_VALUE_TOL
    # term 0 is 1.5 tol apart and term 1 10 tol apart past sup norm 1;
    # term 2 of w equals term 0 of v, but at another index; term 3 has no
    # partner
    v = _constants([0.5, 3.0, 1.0])
    w = _constants([0.5 + 1.5 * tol, 3.0 + 10 * tol, 0.5, 0.25],
                   coef=[10.0, 20.0, 30.0, 40.0])
    d = v - w
    assert d.values[:, 0].tolist() == [0.5, 3.0, 1.0, 0.5 + 1.5 * tol,
                                       3.0 + 10 * tol, 0.5, 0.25]
    assert d.coef.tolist() == [1.0, 2.0, 3.0, -10.0, -20.0, -30.0, -40.0]
    # v's terms past the end of w stay as they are
    d = v - _constants([0.5], coef=[1.0])
    assert d.coef.tolist() == [0.0, 2.0, 3.0]


def test_subtraction_pairs_terms_on_the_merged_partition():
    # the same function carved two ways, and a term that differs on one
    # interval only; the difference lives on the merged cuts
    f = StepFunction((0.0, 0.25, 1.0), (2.0, 2.0))
    g = StepFunction((0.0, 0.5, 1.0), (1.0 - 1j, 0.5))
    v = exponential(f) + exponential(g)
    w = (exponential(constant(2.0, 1.0))
         + exponential(StepFunction((0.0, 0.5, 1.0), (1.0 - 1j, 0.75))))
    d = v - w
    assert d.breaks.tolist() == [0.0, 0.25, 0.5, 1.0]
    assert d.coef.tolist() == [0.0, 1.0, -1.0]
    assert d.values.tolist() == [[2.0, 2.0, 2.0], [1 - 1j, 1 - 1j, 0.5],
                                 [1 - 1j, 1 - 1j, 0.75]]


def test_span_values_are_c_contiguous_however_built():
    # _read gathers F-ordered; the span stores one layout, so that the
    # Gram product in norm sums in one order
    rng = np.random.Generator(np.random.Philox(key=3))
    v, w = random_span(rng, 1.0), random_span(rng, 1.0)
    for span in (v, w, v + w, v - w, v.scaled(2.0),
                 apply_automorphism(shift(0.3j), v)):
        assert span.values.flags.c_contiguous


def test_relation_suite_names_the_source_of_a_gram_warning():
    with pytest.warns(GramConditionWarning) as record:
        report = relation_suite(100, trials=50)
    assert len(record) == 1
    assert str(record[0].message).startswith(
        "shift_additivity, trial 46: Gram condition number ")
    assert record[0].filename == __file__
    assert report.max_residual <= 1e-9


def test_norm_warns_on_ill_conditioned_gram():
    f = constant(0.5, 1.0)
    g = constant(0.5 + 1e-9, 1.0)
    v = exponential(f) + exponential(g).scaled(-1.0)
    with pytest.warns(GramConditionWarning):
        v.norm()


def test_norm_of_a_non_finite_gram_skips_the_condition_check(capfd):
    # exp(<f, f>) = exp(900) overflows: the norm is not finite, and no
    # condition number is taken of a matrix that LAPACK rejects
    big = [exponential(constant(c, 1.0)) for c in (30.0, 29.0)]
    with pytest.warns(RuntimeWarning) as record:
        value = (big[0] - big[1]).norm()
    assert any("overflow" in str(w.message) for w in record)
    assert not math.isfinite(value)
    assert not any(issubclass(w.category, GramConditionWarning)
                   for w in record)
    assert "DLASCL" not in "".join(capfd.readouterr())


def test_a_nan_residual_is_the_reports_max_residual():
    # in either position; relation_suite's fold is checked through the
    # command line, in test_weyl_suite_fails_over_non_finite_residuals
    for residuals in ({"a": math.nan, "b": 1.0}, {"a": 1.0, "b": math.nan}):
        report = RelationReport(seed=0, trials=1, residuals=residuals)
        assert math.isnan(report.max_residual)


def _incremental_random_unit_span(rng, t, max_units=8):
    """Oracle: random_unit_span as it was, three uniform draws a unit."""
    k = int(rng.integers(1, max_units + 1))
    coef, zetas = np.empty(k, dtype=complex), np.empty((k, 1), dtype=complex)
    for i in range(k):
        a = complex(*rng.uniform(-0.5, 0.5, size=2))
        zetas[i] = complex(*rng.uniform(-1.0, 1.0, size=2))
        coef[i] = complex(*rng.uniform(-1.0, 1.0, size=2)) * cmath.exp(a * t)
    return ExpSpan(coef, np.array([0.0, t]), zetas)


def _incremental_random_span(rng, t):
    """Oracle: random_span as it was, one term added at a time with +."""
    half = gaussian_algebra.RANDOM_MAX_TERMS // 2
    out = _incremental_random_unit_span(rng, t, max_units=half)
    for _ in range(int(rng.integers(1, half + 1))):
        c = complex(*rng.uniform(-1.0, 1.0, size=2))
        out = out + exponential(random_step_function(rng, t)).scaled(c)
    return out


def _expression_apply(p, v):
    """Oracle: apply_automorphism as it was, U f + xi as one expression
    and the term integrals taken afresh."""
    T, U, xi = v.horizon, complex(p.U), complex(p.xi)
    integrals = v.values @ (v.breaks[1:] - v.breaks[:-1])
    mult = np.exp(1j * p.lam * T - 0.5 * abs(xi) ** 2 * T
                  - xi.conjugate() * U * integrals)
    re, im = v.values.real, v.values.imag
    values = (U.real * re - U.imag * im) + 1j * (U.real * im + U.imag * re)
    return ExpSpan(v.coef * mult, v.breaks, values + xi)


def _span_bytes(span):
    return [span.coef.tobytes(), span.breaks.tobytes(), span.values.tobytes()]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
def test_random_spans_match_their_incremental_oracles_to_the_bit(seed, t):
    # one uniform draw per unit span and one merge per random span give
    # the spans that the per-term draws and the merge per + gave, and
    # leave the stream where those left it
    fast = np.random.Generator(np.random.Philox(key=seed))
    slow = np.random.Generator(np.random.Philox(key=seed))
    for trial in range(20):
        if trial % 2 == 0:
            pair = random_unit_span(fast, t), _incremental_random_unit_span(
                slow, t)
        else:
            pair = random_span(fast, t), _incremental_random_span(slow, t)
        assert _span_bytes(pair[0]) == _span_bytes(pair[1])
    assert fast.random() == slow.random()


def _automorphisms(rng, t):
    """Every automorphism that relation_suite applies in one trial, the
    general one p included."""
    U, V = (cmath.exp(1j * a) for a in rng.uniform(0.0, 2.0 * math.pi, 2))
    xi = complex(*rng.uniform(-1.0, 1.0, size=2))
    lam, mu = rng.uniform(-3.0, 3.0, size=2)
    p = AutomorphismParams(rng.uniform(-2.0, 2.0), xi, U)
    return [rotation(V), rotation(U), rotation(U * V), rotation(U).inverse(),
            shift(xi), shift(U * xi), shift(1j * mu), shift(1j * lam),
            shift(1j * (lam + mu)), shift(mu), p, p.inverse()]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
def test_automorphism_images_match_the_expression_oracle_to_the_bit(seed, t):
    # U f + xi written by parts into one array, and the cached integrals,
    # keep the bits of the one expression; so do images of images
    rng = np.random.Generator(np.random.Philox(key=seed))
    for trial in range(10):
        v = random_unit_span(rng, t) if trial % 2 == 0 else random_span(rng, t)
        ps = _automorphisms(rng, t)
        for p, q in zip(ps, ps[1:] + ps[:1]):
            image, old = apply_automorphism(p, v), _expression_apply(p, v)
            assert _span_bytes(image) == _span_bytes(old)
            assert image.values.flags.c_contiguous
            assert (_span_bytes(apply_automorphism(q, image))
                    == _span_bytes(_expression_apply(q, old)))


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
def test_cached_widths_and_integrals_are_the_direct_ones(seed, t):
    # every way of building a span; an image or scaled copy shares the
    # widths of its source, which it holds on the same breaks
    rng = np.random.Generator(np.random.Philox(key=seed))
    for _ in range(6):
        v, w = random_span(rng, t), random_unit_span(rng, t)
        images = [apply_automorphism(p, v) for p in _automorphisms(rng, t)]
        for span in (v, w, v + w, v - w, w - v, v.scaled(0.5j),
                     images[0] - images[1], *images):
            widths = span.breaks[1:] - span.breaks[:-1]
            assert span.widths.tobytes() == widths.tobytes()
            assert (span.integrals.tobytes()
                    == (span.values @ widths).tobytes())
            assert span.widths is span.widths
        assert all(image.widths is v.widths for image in images)
        assert v.scaled(2.0).widths is v.widths


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
def test_subtraction_on_one_breaks_array_matches_the_shared_read(seed, t):
    # on one breaks array the values are used as they are; on equal but
    # distinct breaks, the merge: the same bits either way
    rng = np.random.Generator(np.random.Philox(key=seed))
    for trial in range(10):
        v = random_unit_span(rng, t) if trial % 2 == 0 else random_span(rng, t)
        for a, b, phase in _relation_sides(rng, t):
            x, y = _images(a, b, phase, v)
            twin = ExpSpan(y.coef, y.breaks.copy(), y.values)
            assert _bits(x - y) == _bits(x - twin)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
def test_gram_gap_on_one_merge_matches_two_span_inner_calls(seed, t):
    rng = np.random.Generator(np.random.Philox(key=seed))
    for trial in range(10):
        v = random_unit_span(rng, t) if trial % 2 == 0 else random_span(rng, t)
        # w on v's breaks (equal, not the same array) as well as on others
        for w in (random_span(rng, t), random_unit_span(rng, t),
                  ExpSpan(v.coef[::-1], v.breaks.copy(), v.values[::-1])):
            for p in _automorphisms(rng, t):
                old = np.abs(span_inner(apply_automorphism(p, v),
                                        apply_automorphism(p, w))
                             - span_inner(v, w))
                assert (gaussian_algebra._gram_gap(p, v, w).tobytes()
                        == old.tobytes())


def test_random_draws_keep_their_pinned_digest():
    # coef, breaks and values of 20 draws alternating random_unit_span
    # and random_span, then a random step function's breaks and values,
    # for each seed and horizon
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for t in (0.3, 1.0, 5.0):
            rng = np.random.Generator(np.random.Philox(key=seed))
            for i in range(20):
                draw = random_unit_span if i % 2 == 0 else random_span
                span = draw(rng, t)
                for array in (span.coef, span.breaks, span.values):
                    digest.update(array.tobytes())
            f = random_step_function(rng, t)
            digest.update(f.breaks.tobytes())
            digest.update(f.values.tobytes())
    assert digest.hexdigest() == (
        "290b66dae3c7db660c032e5fa96dffaebb3362ff2c5d231c198cfd139f6e6f0c")


def _by_parts_apply(p, v):
    """Oracle: apply_automorphism as it was before it worked on the float
    view of the values, U f + xi written by parts into one array."""
    T, U, xi = v.horizon, complex(p.U), complex(p.xi)
    mult = np.exp(1j * p.lam * T - 0.5 * abs(xi) ** 2 * T
                  - xi.conjugate() * U * v.integrals)
    re, im = v.values.real, v.values.imag
    values = np.empty_like(v.values)
    np.add(U.real * re - U.imag * im, xi.real, out=values.real)
    np.add(U.real * im + U.imag * re, xi.imag, out=values.imag)
    return ExpSpan(v.coef * mult, v.breaks, values)


# the unit circle's axes, where U.real or U.imag is an exact (signed) zero
AXES = [rotation(u) for u in (1.0, -1.0, 1j, -1j, complex(-1.0, -0.0),
                              complex(-0.0, 1.0))] + [shift(-0.0), shift(0.5)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("t", [0.3, 1.0, 5.0, 20.0])
def test_automorphism_on_the_float_view_matches_the_by_parts_oracle(seed, t):
    # parts * U.real plus the swapped parts * (-U.imag, U.imag): each part
    # is U.real re - U.imag im (as re + (-U.imag im)) or U.real im +
    # U.imag re, summed in the same order; so are images of images
    rng = np.random.Generator(np.random.Philox(key=seed))
    for trial in range(10):
        v = random_unit_span(rng, t) if trial % 2 == 0 else random_span(rng, t)
        ps = _automorphisms(rng, t) + AXES
        for p, q in zip(ps, ps[1:] + ps[:1]):
            image, old = apply_automorphism(p, v), _by_parts_apply(p, v)
            assert _span_bytes(image) == _span_bytes(old)
            assert image.values.flags.c_contiguous
            assert image.values.dtype == np.complex128
            assert (_span_bytes(apply_automorphism(q, image))
                    == _span_bytes(_by_parts_apply(q, old)))


def test_automorphism_of_a_real_valued_span_matches_the_by_parts_oracle():
    # real values convert exactly to complex128 with +0.0 imaginary
    # parts, whose signed zeros the rotations by the axes carry along
    breaks = np.array([0.0, 0.25, 0.5, 1.0])
    values = np.array([[0.5, -2.0, 0.0], [-0.0, 1.5, -0.75]])
    v = ExpSpan(np.array([1.0, -2.0]), breaks, values)
    assert v.values.dtype == np.complex128 and v.values.flags.c_contiguous
    assert v.values.real.tobytes() == values.tobytes()
    assert not np.signbit(v.values.imag).any()
    rng = np.random.Generator(np.random.Philox(key=4))
    for p in AXES + _automorphisms(rng, 1.0):
        image = apply_automorphism(p, v)
        assert _span_bytes(image) == _span_bytes(_by_parts_apply(p, v))
        assert (_span_bytes(apply_automorphism(p, image))
                == _span_bytes(_by_parts_apply(p, _by_parts_apply(p, v))))


def _general_difference(v, w):
    """Oracle: v - w through the general path only, the coefficients of
    the joined terms subtracted in place and every other term of w
    appended, negated, by concatenation."""
    if v.breaks is w.breaks:
        cuts, a, b = v.breaks, v.values, w.values
    else:
        cuts, (a, b) = gaussian_algebra._common(v, w)
    k = min(len(a), len(b))
    joins = np.zeros(len(b), dtype=bool)
    tol = gaussian_algebra.DEDUP_VALUE_TOL
    joins[:k] = (np.abs(a[:k] - b[:k]).max(axis=1) <= tol
                 * np.maximum(1.0, np.maximum(np.abs(a[:k]).max(axis=1),
                                              np.abs(b[:k]).max(axis=1))))
    coef, i = v.coef.astype(complex), joins.nonzero()
    coef[i] -= w.coef[i]
    return ExpSpan(np.concatenate([coef, -w.coef[~joins]]), cuts,
                   np.concatenate([a, b[~joins]]))


def _difference_bits(d):
    return [d.coef.dtype, *_span_bytes(d)]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("t", [0.3, 1.0, 5.0, 20.0])
def test_all_joined_difference_matches_the_general_path(seed, t):
    # both sides of a relation join term by term: v - w is then the
    # coefficient difference on v's values, with the general path's bits
    rng = np.random.Generator(np.random.Philox(key=seed))
    joined = 0
    for trial in range(10):
        v = random_unit_span(rng, t) if trial % 2 == 0 else random_span(rng, t)
        for a, b, phase in _relation_sides(rng, t):
            x, y = _images(a, b, phase, v)
            twin = ExpSpan(y.coef, y.breaks.copy(), y.values)
            for w in (y, twin):
                d = x - w
                joined += len(d.coef) == len(x.coef)
                assert _difference_bits(d) == _difference_bits(
                    _general_difference(x, w))
    assert joined > 0


def test_all_joined_difference_keeps_the_general_path_on_its_edges():
    tol = gaussian_algebra.DEDUP_VALUE_TOL
    v = _constants([0.5, 3.0, 1.0])
    cases = [
        (v, _constants([0.5], coef=[1.0])),  # v has more terms than w
        (_constants([0.5]), v),  # w has more terms than v
        (v, _constants([0.5 + 1.5 * tol, 3.0, 1.0])),  # one term apart
        (v, _constants([0.5, 3.0, 1.0], coef=[4.0, 5.0, 6.0])),
        # real coefficients on both sides: the difference is complex
        (ExpSpan(np.array([1.0, 2.0]), v.breaks, v.values[:2]),
         ExpSpan(np.array([0.5, 4.0]), v.breaks, v.values[:2])),
        # the same function on two partitions: joined on the merged cuts,
        # which are finer than v's own breaks when w's are the finer ones
        (exponential(StepFunction((0.0, 0.25, 1.0), (2.0, 2.0))),
         exponential(constant(2.0, 1.0)).scaled(0.5)),
        (exponential(constant(2.0, 1.0)).scaled(0.5),
         exponential(StepFunction((0.0, 0.25, 1.0), (2.0, 2.0)))),
    ]
    for x, w in cases:
        assert _difference_bits(x - w) == _difference_bits(
            _general_difference(x, w))
        assert (x - w).coef.dtype == np.complex128
    assert (v - _constants([0.5], coef=[1.0])).coef.tolist() == [0.0, 2.0, 3.0]


def _gram(span):
    return np.exp(gaussian_algebra._inner_on(span.values, span.values,
                                             span.widths))


def _near_collinear_spans(rng):
    """Spans whose Gram matrices range from well conditioned to singular:
    f + f, f beside small shifts of it, random spans, the differences of
    shift_additivity's two sides at t = 5 and 20, and spans of step
    functions of hundreds to thousands of pieces, whose exponents sum
    that many products."""
    spans = []
    for _ in range(6):
        f = random_step_function(rng, 1.0)
        spans.append(exponential(f) + exponential(f))
        for eps in (1e-3, 1e-5, 1e-7, 1e-9):
            shifted = apply_automorphism(shift(eps * complex(
                *rng.uniform(-1.0, 1.0, size=2))), exponential(f))
            spans.append(exponential(f) + shifted)
        spans.append(random_span(rng, 1.0))
    for t in (5.0, 20.0):
        for trial in range(8):
            v = random_unit_span(rng, t) if trial % 2 == 0 else random_span(
                rng, t)
            a, b, phase = _relation_sides(rng, t)[2]
            x, y = _images(a, b, phase, v)
            spans += [x - y, v]
    for pieces in (300, 3000):
        for eps in (1e-2, 1e-6, 1e-9):
            f = StepFunction(np.linspace(0.0, 1.0, pieces + 1),
                             rng.standard_normal(pieces)
                             + 1j * rng.standard_normal(pieces))
            g = StepFunction(f.breaks, f.values + eps * rng.standard_normal(
                pieces))
            spans.append(exponential(f) + exponential(g)
                         + exponential(StepFunction(f.breaks, 0.5 * f.values)))
    return spans


def _norm_warnings(spans):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        norms = [np.float64(span.norm()).tobytes() for span in spans]
    return norms, [(w.category, str(w.message)) for w in record]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_gram_pre_check_changes_no_norm_and_no_warning(monkeypatch, seed):
    def spans():  # drawn afresh for each side, as a span keeps its norm
        return _near_collinear_spans(np.random.Generator(np.random.Philox(
            key=seed)))
    checked = _norm_warnings(spans())
    assert any(c is GramConditionWarning for c, _ in checked[1])
    monkeypatch.setattr(gaussian_algebra, "_well_conditioned",
                        lambda g, m: False)
    assert _norm_warnings(spans()) == checked


def test_gram_pre_check_falls_back_when_eigvalsh_does_not_converge(
        monkeypatch):
    def no_convergence(g):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    f = constant(0.5, 1.0)
    assert not gaussian_algebra._well_conditioned(np.eye(2), 1)
    with pytest.warns(GramConditionWarning, match="inf exceeds 1e12"):
        (exponential(f) + exponential(f)).norm()


def test_relation_suite_keeps_its_wide_digest():
    # sha256 of each residual as "<name> <float.hex>" and each warning as
    # "<category>: <message>", a line each, over 40 suites of 10 trials,
    # as the suite gave them before its automorphisms worked on the float
    # view of the values and its norms took the eigvalsh pre-check
    digest = hashlib.sha256()
    for seed in range(10):
        for t in (0.3, 1.0, 5.0, 20.0):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                report = relation_suite(seed, 10, t)
            for name, value in report.residuals.items():
                digest.update(f"{name} {float.hex(value)}\n".encode())
            for w in record:
                digest.update(
                    f"{w.category.__name__}: {w.message}\n".encode())
    assert digest.hexdigest() == (
        "a7693d299440630fe07c852e1af38225bf900681d9214e26d62560e44d93ab45")


def _step_apply(p, v):
    """Oracle: apply_automorphism as it was before the chain kernel, a
    span built at every step."""
    T, U, xi = v.horizon, complex(p.U), complex(p.xi)
    mult = np.exp(1j * p.lam * T - 0.5 * abs(xi) ** 2 * T
                  - xi.conjugate() * U * v.integrals)
    parts = v.values.view(float).reshape(*v.values.shape, 2)
    values = parts * U.real
    values += parts[..., ::-1] * np.array((-U.imag, U.imag))
    values += np.array((xi.real, xi.imag))
    return v._on_breaks(v.coef * mult, values.view(complex)[..., 0])


def _chains(rng, t):
    """Chains of one to three automorphisms: each of relation_suite's
    and each rotation by an axis alone, then every run of two and three
    in their order, wrapping around."""
    ps = _automorphisms(rng, t) + AXES
    return ([[p] for p in ps] + [list(c) for c in zip(ps, ps[1:] + ps[:1])]
            + [list(c) for c in zip(ps, ps[1:] + ps[:1], ps[2:] + ps[:2])])


def _chain_bits(chain, v):
    image = gaussian_algebra._compose_apply(chain, v)
    assert image.values.flags.c_contiguous
    assert image.breaks is v.breaks and image.widths is v.widths
    expected = v
    for p in chain:
        expected = _step_apply(p, expected)
    return _span_bytes(image), _span_bytes(expected)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("t", [0.3, 1.0, 5.0, 20.0])
def test_chain_kernel_matches_one_span_per_step_to_the_bit(seed, t):
    rng = np.random.Generator(np.random.Philox(key=seed))
    for trial in range(6):
        v = random_unit_span(rng, t) if trial % 2 == 0 else random_span(rng, t)
        for chain in _chains(rng, t):
            image, expected = _chain_bits(chain, v)
            assert image == expected
        p = _automorphisms(rng, t)[-2]
        assert (_span_bytes(apply_automorphism(p, v))
                == _span_bytes(_step_apply(p, v)))


def test_chain_kernel_on_a_real_valued_span_with_signed_zeros():
    # real values carry +0.0 imaginary parts, and -0.0 real ones, through
    # the rotations by the axes (U = +-1, +-i, with signed zero parts)
    breaks = np.array([0.0, 0.25, 0.5, 1.0])
    v = ExpSpan(np.array([1.0, -2.0, 0.0]), breaks,
                np.array([[0.5, -2.0, 0.0], [-0.0, 1.5, -0.75],
                          [-0.0, -0.0, 0.0]]))
    rng = np.random.Generator(np.random.Philox(key=5))
    for chain in _chains(rng, 1.0):
        image, expected = _chain_bits(chain, v)
        assert image == expected


def test_a_kept_norm_warns_on_every_call(monkeypatch):
    # the singular Gram matrix of test_a_singular_gram_warns_inf_without_
    # a_runtime_warning: the second call reads the kept norm and warns
    # from it, attributed to its own caller
    f = exponential(constant(0.5, 1.0))
    v = f + f
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        first = v.norm()

        def no_work(self):
            raise AssertionError("the norm was taken again")
        monkeypatch.setattr(ExpSpan, "_gram_norm", no_work)
        second = v.norm()
    assert np.float64(first).tobytes() == np.float64(second).tobytes()
    assert [(w.category, str(w.message), w.filename) for w in record] == [
        (GramConditionWarning, "Gram condition number inf exceeds 1e12; "
                               "norm digits are unreliable", __file__)] * 2


def test_the_weyl_residual_keeps_its_warnings_on_a_span_with_a_kept_norm():
    # its first v.norm() reads the norm kept by the call before; the list
    # is the one ccr_phase_residual gave when it took that norm afresh
    f = exponential(constant(0.5, 1.0))
    v = f + f
    expected = [(GramConditionWarning, "Gram condition number inf exceeds "
                                        "1e12; norm digits are unreliable")] * 2
    for _ in range(2):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            assert ccr_phase_residual(0.7, -1.3, v) == 0.0
        assert [(w.category, str(w.message)) for w in record] == expected
        assert "_norm" in v.__dict__


def test_an_overflowing_norm_is_taken_afresh_and_warns_on_every_call():
    # exp(<f, f>) = exp(900) overflows; numpy's warning comes from the
    # computation, so that norm is not kept
    big = exponential(constant(30.0, 1.0))
    for _ in range(2):
        with pytest.warns(RuntimeWarning) as record:
            assert not math.isfinite(big.norm())
        assert any("overflow encountered in exp" in str(w.message)
                   for w in record)
    assert "_norm" not in big.__dict__


def test_relation_suite_keeps_its_warnings_where_norms_overflow():
    # at t = 500 the trial spans' own norms overflow: the Weyl residual
    # still warns of them, as it did when it took them afresh; md5 as in
    # PINNED_RELATION_SUITES
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        report = relation_suite(1, 2, 500.0)
    text = repr(report.residuals) + "".join(
        f"\n{w.category.__name__}: {w.message}" for w in record)
    assert len(record) == 36
    assert (hashlib.md5(text.encode()).hexdigest()
            == "b4e0e6ef742939322f9384fb6dcc07dc")
