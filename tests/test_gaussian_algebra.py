import cmath
import math

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
    random_step_function,
    random_unit_span,
    relation_suite,
    rotation,
    shift,
    span_inner,
    step_inner,
    step_product,
    unit,
)


def test_step_inner_unit_indicator():
    f = StepFunction.constant(1.0, 1.0)
    assert step_inner(f, f) == 1.0


def test_step_inner_conjugates_second_slot():
    t = 0.7
    f = StepFunction.constant(1j, t)
    g = StepFunction.constant(1.0, t)
    assert step_inner(f, g) == pytest.approx(1j * t)
    assert step_inner(g, f) == pytest.approx(-1j * t)


def test_step_inner_piecewise_example():
    f = StepFunction((0.0, 0.5, 1.0), (1.0, 2.0))
    g = StepFunction.constant(1j, 1.0)
    assert step_inner(f, g) == pytest.approx(-1.5j)


def test_step_inner_merges_partitions():
    # same function carved up two different ways
    f1 = StepFunction((0.0, 0.25, 1.0), (2.0, 2.0))
    f2 = StepFunction.constant(2.0, 1.0)
    g = StepFunction((0.0, 0.6, 1.0), (1.0 - 1j, 0.5))
    assert step_inner(f1, g) == pytest.approx(step_inner(f2, g))


def test_step_inner_horizon_mismatch():
    with pytest.raises(ValueError):
        step_inner(StepFunction.constant(1.0, 1.0), StepFunction.constant(1.0, 2.0))


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


def test_exp_span_rejects_values_of_the_wrong_shape():
    coef, breaks = np.ones(1, dtype=complex), np.array([0.0, 0.5, 1.0])
    ExpSpan(coef, breaks, np.ones((1, 2)))  # one term, two intervals
    for values in (np.ones((2, 2)), np.ones((1, 3)), np.ones(2)):
        with pytest.raises(ValueError, match="values must be"):
            ExpSpan(coef, breaks, values)


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
    v = exponential(StepFunction.constant(0.0, 1.0))
    assert span_inner(v, v) == pytest.approx(1.0)


def test_span_inner_single_exponential_norm():
    zeta, t = 0.8 - 0.3j, 1.7
    v = exponential(StepFunction.constant(zeta, t))
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
    g = StepFunction.constant(0.3 - 0.6j, 1.0)
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
    integral = step_inner(f, StepFunction.constant(1.0, f.horizon))
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
    resid = (x - y.scaled(wrong)).dedup().norm()
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
    assert (a - b).dedup().norm() <= 1e-12

    vac = exponential(StepFunction.constant(0.0, 1.0))
    lhs = apply_automorphism(rotation(1j), apply_automorphism(
        shift(1.0), apply_automorphism(rotation(1j).inverse(), vac)))
    rhs = apply_automorphism(shift(1j), vac)
    assert (lhs - rhs).dedup().norm() <= 1e-12

    # rotation by pi twice is the identity on units
    out = apply_automorphism(rotation(-1.0), apply_automorphism(rotation(-1.0), v))
    assert (out - v).dedup().norm() <= 1e-12


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


def test_gram_positivity():
    rng = np.random.Generator(np.random.Philox(key=31))
    for _ in range(15):
        fns = [random_step_function(rng, 1.0) for _ in range(5)]
        g = gram_matrix(fns)
        w = np.linalg.eigvalsh(g)
        assert w[0] >= -1e-10 * np.trace(g).real


def test_dedup_combines_identical_terms():
    f = StepFunction.constant(0.5, 1.0)
    v = exponential(f) + exponential(f).scaled(-1.0)
    d = v.dedup()
    assert d.coef.tolist() == [0.0]
    assert d.norm() == 0.0


def test_dedup_adds_each_term_to_its_first_match():
    tol = gaussian_algebra.DEDUP_VALUE_TOL

    def constants(values):
        k = len(values)
        return ExpSpan(np.arange(1.0, k + 1.0) + 0j, np.array([0.0, 1.0]),
                       np.array(values, dtype=complex)[:, None])

    # 1.5 tol apart, both kept; the third is within tol of each and joins
    # the first
    d = constants([0.5, 0.5 + 1.5 * tol, 0.5 + 0.75 * tol]).dedup()
    assert d.values[:, 0].tolist() == [0.5, 0.5 + 1.5 * tol]
    assert d.coef.tolist() == [4.0, 2.0]
    # 10 tol apart stay apart; past sup norm 1 the tolerance scales with it
    d = constants([0.5, 0.5 + 10 * tol, 3.0, 3.0 + 2.5 * tol,
                   3.0 + 30 * tol]).dedup()
    assert d.values[:, 0].tolist() == [0.5, 0.5 + 10 * tol, 3.0,
                                       3.0 + 30 * tol]
    assert d.coef.tolist() == [1.0, 2.0, 7.0, 5.0]


def test_relation_suite_names_the_source_of_a_gram_warning():
    with pytest.warns(GramConditionWarning) as record:
        report = relation_suite(100, trials=50)
    assert len(record) == 1
    assert str(record[0].message).startswith(
        "shift_additivity, trial 46: Gram condition number ")
    assert record[0].filename == __file__
    assert report.max_residual <= 1e-9


def test_norm_warns_on_ill_conditioned_gram():
    f = StepFunction.constant(0.5, 1.0)
    g = StepFunction.constant(0.5 + 1e-9, 1.0)
    v = exponential(f) + exponential(g).scaled(-1.0)
    with pytest.warns(GramConditionWarning):
        v.norm()


def test_norm_of_a_non_finite_gram_skips_the_condition_check(capfd):
    # exp(<f, f>) = exp(900) overflows: the norm is not finite, and no
    # condition number is taken of a matrix that LAPACK rejects
    big = [exponential(StepFunction.constant(c, 1.0)) for c in (30.0, 29.0)]
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
