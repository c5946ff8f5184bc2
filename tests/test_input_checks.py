"""Every number that a public entry takes is checked before any kernel,
draw or span is built, by one of four rules, each refusal a ValueError
that names the parameter:

* a size or a seed (a dimension N, a bucket count n, a grid size m, a
  reach, a number of samples or trials) by _whole: a whole number in its
  range, never a bool, a fraction or a string;
* a real number (an angle alpha, a horizon t, lam and mu, a WS profile's
  or an indicator's a and b, a constant evaluator's c, a probe time, a
  probe offset delta, a norm_value or f_mass) by _finite_real's rule: a
  numbers.Real that is not a bool, within the parameter's range;
* a complex number (a coherent amplitude zeta, unit's a, an
  automorphism's xi and U, a scaling factor) by _finite_amplitude: a
  numbers.Complex that is not a bool, with finite parts;
* an array (a step function's or span's breaks, values and coef, a
  time t to read at, a walk's values, a path's signs, a matrix a and a
  vector v) by _finite_array: numbers, never bools, strings or objects,
  real ones where the parameter is real, all finite, held as a
  read-only copy of an array the caller could still write.

A numeric string such as "0.5" is none of them, and an int too large
for a float, such as 10**400, is not a finite number.  Before these
checks a non-whole size was truncated, resized or ended in a TypeError,
a non-finite amplitude or parameter gave NaN results, a non-finite
probe time or an int too large for a float an OverflowError that named
no parameter, and float() or complex() took "0.5" and True as numbers,
raised TypeError on None and, on "x", an error that named nothing.
Arrays of strings or bools built objects, a NaN walk gave minima, a
NaN matrix a NaN sign, and a value object kept the caller's array, so
a write to it left a span's kept norm and widths, or a path's minima,
stale."""

import math
import re

import numpy as np
import pytest

from splitnoise import ccr_matrix, warren_sim
from splitnoise import gaussian_algebra
from splitnoise.gaussian_algebra import (
    AutomorphismParams,
    ExpSpan,
    StepFunction,
    ccr_phase_residual,
    relation_suite,
    rotation,
    shift,
    unit,
)
from splitnoise.ccr_matrix import (
    build_pair,
    coherent_vector,
    convergence_study,
    lemma23_value,
    position_momentum,
    require_hermitian,
    sgn_expectation,
    sgn_op,
    sign_sum_norm,
    symmetric_triple,
)
from splitnoise.warren_sim import (
    Lemma43Row,
    PsiSpec,
    SuperchaosVector,
    WarrenPath,
    chaos_eval_under_probe,
    endpoint_sign_evaluator,
    half_interval_profile,
    lemma43_table,
    local_minima,
    constant_evaluator,
    mc_coherent_sign_probe,
    obstruction_report,
    quad_form_C,
    run_replicas,
    sample_path,
)


def refuse_to_work(monkeypatch):
    """Make every dense builder, sign kernel (the grid's through numpy's
    SVD), walk or endpoint draw and span build fail, so that a check that
    comes too late is caught."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the inputs were checked")
    for name in ("_ladder_entries", "_sinc_diagonals", "_hermite_nodes"):
        monkeypatch.setattr(ccr_matrix, name, no_work)
    monkeypatch.setattr(np.linalg, "svd", no_work)
    for name in ("draw_walks", "sample_path", "replica_rng"):
        monkeypatch.setattr(warren_sim, name, no_work)
    for name in ("ExpSpan", "random_unit_span"):
        monkeypatch.setattr(gaussian_algebra, name, no_work)


def first_column(walks):
    return walks[:, :1]


SIZED_CALLS = {
    "build_pair": ("n", lambda v: build_pair("oscillator", v, 1.0)),
    "build_pair-grid": ("n", lambda v: build_pair("grid", v, 1.0)),
    "symmetric_triple": ("n", symmetric_triple),
    "position_momentum": ("n", position_momentum),
    "lemma23_value": ("n", lambda v: lemma23_value(2.0, 0.5, v)),
    "sign_sum_norm": ("n", lambda v: sign_sum_norm("oscillator", v)),
    # the N = 8 kernel must not run before the second N is checked
    "convergence_study": ("n", lambda v: convergence_study("oscillator",
                                                           [8, v])),
    "coherent_vector": ("n", lambda v: coherent_vector(0.5, 1.0, v)),
    "PsiSpec": ("n", lambda v: PsiSpec(v, 1 / 64)),
    "lemma43_table": ("n", lambda v: lemma43_table(
        half_interval_profile(), [v], [1 / 64], 64, 3, 1)),
    "run_replicas": ("reach", lambda v: run_replicas(1, 2, 64, first_column,
                                                     reach=v)),
    "mc_coherent_sign_probe": ("samples", lambda v: mc_coherent_sign_probe(
        0.5, 1.0, v, 0)),
    "WarrenPath": ("m", lambda v: WarrenPath(v, np.zeros(5))),
}


@pytest.mark.parametrize("value", [16.5, "16", math.nan],
                         ids=["fraction", "string", "nan"])
@pytest.mark.parametrize("entry", sorted(SIZED_CALLS))
def test_sizes_are_whole_numbers_before_any_work(monkeypatch, entry, value):
    name, call = SIZED_CALLS[entry]
    refuse_to_work(monkeypatch)
    with pytest.raises(ValueError, match=(
            f"^{name} must be at least \\d+ and be a whole number, "
            f"got {re.escape(repr(value))}$")):
        call(value)


def test_whole_float_sizes_give_the_bits_of_ints():
    for scheme in ("oscillator", "grid"):
        assert lemma23_value(2.0, 0.5, 16.0, scheme) == lemma23_value(
            2.0, 0.5, 16, scheme)
    rows = convergence_study("oscillator", [8.0, 16.0])
    assert [type(r.n) for r in rows] == [int, int]
    f = half_interval_profile()
    rows = lemma43_table(f, [2.0, 4.0], [1 / 64], 64, 3, 1)
    assert rows == lemma43_table(f, [2, 4], [1 / 64], 64, 3, 1)
    assert [type(r.n) for r in rows] == [int, int]

    def whole_walks(walks):
        return walks.copy()
    walks = run_replicas(1, 3, 64, whole_walks, reach=8.0)
    assert walks.shape == (3, 9)
    assert walks.tobytes() == run_replicas(1, 3, 64, whole_walks,
                                           reach=8).tobytes()
    est = mc_coherent_sign_probe(0.5, 1.0, 100.0, 0)
    assert est == mc_coherent_sign_probe(0.5, 1.0, 100, 0)
    assert type(est.samples) is int
    assert type(WarrenPath(4.0, np.zeros(5)).m) is int


# int(True) == True, so a bool used to pass as 1: one sample, seed 1 or
# reach 1
BOOLEAN_CALLS = {
    "samples": lambda v: quad_form_C(constant_evaluator(1.0),
                                     half_interval_profile(), v, 1, m=64),
    "seed": relation_suite,
    "reach": lambda v: sample_path(64, np.random.default_rng(0), reach=v),
}


@pytest.mark.parametrize("value", [True, False, np.True_],
                         ids=["true", "false", "numpy-true"])
@pytest.mark.parametrize("name", sorted(BOOLEAN_CALLS))
def test_booleans_are_not_whole_numbers(monkeypatch, name, value):
    refuse_to_work(monkeypatch)
    with pytest.raises(ValueError, match=(
            f"^{name} must .* and be a whole number, "
            f"got {re.escape(repr(value))}$")):
        BOOLEAN_CALLS[name](value)


@pytest.mark.parametrize("zeta", [math.nan, math.inf, complex(0.5, math.nan),
                                  complex(-math.inf, 0.0)],
                         ids=["nan", "inf", "nan-imag", "-inf-real"])
def test_non_finite_amplitude_is_rejected_before_any_draw(monkeypatch, zeta):
    # NaN used to give NaN coefficients and a NaN estimate, and inf a
    # RuntimeWarning
    refuse_to_work(monkeypatch)
    for call in (lambda: coherent_vector(zeta, 1.0, 8),
                 lambda: mc_coherent_sign_probe(zeta, 1.0, 100, 0)):
        with pytest.raises(ValueError, match="zeta must be finite"):
            call()


NON_FINITE = [math.nan, math.inf, -math.inf]
SPAN = unit(0.0, 0.5 - 0.25j, 1.0)
AUTOMORPHISM_CALLS = {
    "lam": lambda x: AutomorphismParams(x, 0.0, 1.0),
    "xi": lambda x: AutomorphismParams(0.0, complex(0.5, x), 1.0),
    "U": lambda x: AutomorphismParams(0.0, 0.0, complex(x, 0.0)),
    "U-imag": lambda x: AutomorphismParams(0.0, 0.0, complex(1.0, x)),
    "a": lambda x: unit(x, 0.5, 1.0),
    "a-imag": lambda x: unit(complex(0.1, x), 0.5, 1.0),
    "zeta": lambda x: unit(0.1, x, 1.0),
    "lam-residual": lambda x: ccr_phase_residual(x, 1.0, SPAN),
    "mu-residual": lambda x: ccr_phase_residual(1.0, x, SPAN),
}


@pytest.mark.parametrize("value", NON_FINITE, ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", sorted(AUTOMORPHISM_CALLS))
def test_non_finite_automorphism_inputs_are_refused_before_any_work(
        monkeypatch, name, value):
    # AutomorphismParams(0, 0, nan) passed the |U| = 1 test, as NaN
    # compares false, and its images, unit(0.1, nan, 1) and the residual
    # at a non-finite lam or mu were NaN
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the inputs were checked")
    monkeypatch.setattr(ExpSpan, "norm", no_work)
    monkeypatch.setattr(gaussian_algebra, "ExpSpan", no_work)
    monkeypatch.setattr(gaussian_algebra, "apply_automorphism", no_work)
    monkeypatch.setattr(gaussian_algebra, "_compose_apply", no_work)
    argument = name.split("-")[0]
    with pytest.raises(ValueError,
                       match=f"^{argument} must be (a )?finite.*, got "):
        AUTOMORPHISM_CALLS[name](value)


@pytest.mark.parametrize("value", [0.5j, np.complex128(0.5), np.complex64(0.5j),
                                   "0.5"],
                         ids=["complex", "complex128", "complex64", "str"])
def test_a_real_automorphism_parameter_must_be_a_real_number(value):
    # a complex lam scaled every image by e^{-Im(lam) T}: no automorphism
    for call, name in ((lambda: AutomorphismParams(value, 0.0, 1.0), "lam"),
                       (lambda: ccr_phase_residual(value, 1.0, SPAN), "lam"),
                       (lambda: ccr_phase_residual(1.0, value, SPAN), "mu")):
        with pytest.raises(ValueError, match=(
                f"^{name} must be a finite real number, got "
                f"{re.escape(repr(value))}$")):
            call()


WS_WEIGHT = StepFunction([0.0, 1.0], [1.0])
REAL_NUMBER_CALLS = {
    "lemma23_value": ("alpha", lambda x: lemma23_value(x, 0.5, 16)),
    "lemma23_value-grid": ("alpha",
                           lambda x: lemma23_value(x, 0.5, 16, "grid")),
    "convergence_study": ("alpha", lambda x: convergence_study(
        "oscillator", [16], [2.0, x])),
    "ws-a": ("a", lambda x: SuperchaosVector("WS", WS_WEIGHT, x, 1.0)),
    "ws-b": ("b", lambda x: SuperchaosVector("WS", WS_WEIGHT, 0.5, x)),
    "sign_modulated-a": ("a", lambda x: SuperchaosVector.sign_modulated(
        WS_WEIGHT, x, 1.0)),
    "sign_modulated-b": ("b", lambda x: SuperchaosVector.sign_modulated(
        WS_WEIGHT, 0.5, x)),
}


@pytest.mark.parametrize("value", ["2.0", "x", None, 0.5j, True],
                         ids=["numeric-str", "str", "none", "complex", "bool"])
@pytest.mark.parametrize("entry", sorted(REAL_NUMBER_CALLS))
def test_angles_and_profile_times_must_be_real_numbers(monkeypatch, entry,
                                                       value):
    # lemma23_value("2.0", 0.5, 16) and SuperchaosVector("WS", w, "0.5",
    # "1.0") raised TypeError: '<' not supported, convergence_study with
    # an angle "x" "could not convert string to float: 'x'", and
    # sign_modulated converted "2.0" to a float before the constructor
    # checked it; a bool passed as 0.0 or 1.0
    name, call = REAL_NUMBER_CALLS[entry]
    refuse_to_work(monkeypatch)
    with pytest.raises(ValueError, match=(
            f"^{name} must be a finite real number, got "
            f"{re.escape(repr(value))}$")):
        call(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, 1.0, 4.0],
                         ids=["nan", "inf", "below", "above"])
def test_a_non_finite_or_out_of_range_angle_is_refused_naming_alpha(
        monkeypatch, value):
    refuse_to_work(monkeypatch)
    for call in (lambda: lemma23_value(value, 0.5, 16),
                 lambda: lemma23_value(value, 0.5, 16, "grid"),
                 lambda: convergence_study("oscillator", [16], [value])):
        with pytest.raises(ValueError, match="alpha"):
            call()


PROBE_CALLS = {
    "quad_form_C": lambda psi: quad_form_C(psi, half_interval_profile(), 4, 1,
                                           m=64),
    "chaos_eval_under_probe": lambda psi: chaos_eval_under_probe(
        half_interval_profile(), WarrenPath(4, np.zeros(5)), np.empty(0), psi),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308,
                                   10 ** 400],
                         ids=["nan", "inf", "-inf", "overflow", "huge-int"])
@pytest.mark.parametrize("name", ["a", "b"])
@pytest.mark.parametrize("call", sorted(PROBE_CALLS))
def test_a_non_finite_probe_time_is_refused_naming_it(monkeypatch, call,
                                                      name, value):
    # an infinite time, one whose grid index overflows, or an int too
    # large for a float raised OverflowError, and NaN an unnamed "cannot
    # convert float NaN"
    refuse_to_work(monkeypatch)
    times = {"a": 0.0, "b": 0.5, name: value}
    with pytest.raises(ValueError, match=(
            f"^{name} = {re.escape(str(value))} lies outside \\[0, 1\\]$")):
        PROBE_CALLS[call](endpoint_sign_evaluator(times["a"], times["b"]))


ROWS = [Lemma43Row(n=16, delta=1 / 256, m=1024, samples=100, estimate=0.9,
                   stderr=0.01, mass=1.0, mass_stderr=0.01, u_mass=1.0,
                   u_mass_stderr=0.01, seed=5)]
SCALAR_CALLS = {
    "relation_suite-t": ("t", lambda v: relation_suite(1, 2, v)),
    "unit-t": ("t", lambda v: unit(0.1, 0.5, v)),
    "build_pair-t": ("t", lambda v: build_pair("oscillator", 8, v)),
    "lemma23_value-t": ("t", lambda v: lemma23_value(2.0, v, 16)),
    "convergence_study-t": ("t", lambda v: convergence_study(
        "oscillator", [16], t=v)),
    "coherent_vector-t": ("t", lambda v: coherent_vector(0.5, v, 8)),
    "mc_coherent_sign_probe-t": ("t", lambda v: mc_coherent_sign_probe(
        0.5, v, 100, 0)),
    "unit-a": ("a", lambda v: unit(v, 0.5, 1.0)),
    "unit-zeta": ("zeta", lambda v: unit(0.1, v, 1.0)),
    "AutomorphismParams-lam": ("lam", lambda v: AutomorphismParams(v, 0.0,
                                                                   1.0)),
    "AutomorphismParams-xi": ("xi", lambda v: AutomorphismParams(0.0, v, 1.0)),
    "AutomorphismParams-U": ("U", lambda v: AutomorphismParams(0.0, 0.0, v)),
    "shift-xi": ("xi", shift),
    "rotation-U": ("U", rotation),
    "scaled-factor": ("factor", SPAN.scaled),
    "indicator-a": ("a", lambda v: StepFunction.indicator(v, 0.5, 1.0)),
    "indicator-b": ("b", lambda v: StepFunction.indicator(0.0, v, 1.0)),
    "indicator-horizon": ("horizon", lambda v: StepFunction.indicator(
        0.0, 0.5, v)),
    "constant_evaluator-c": ("c", constant_evaluator),
    "endpoint-a": ("a", lambda v: quad_form_C(
        endpoint_sign_evaluator(v, 0.5), half_interval_profile(), 4, 1, m=64)),
    "endpoint-b": ("b", lambda v: quad_form_C(
        endpoint_sign_evaluator(0.0, v), half_interval_profile(), 4, 1, m=64)),
    "PsiSpec-delta": ("delta", lambda v: PsiSpec(4, v)),
    "obstruction_report-norm_value": ("norm_value", lambda v:
                                      obstruction_report(v, ROWS)),
    "obstruction_report-f_mass": ("f_mass", lambda v: obstruction_report(
        2.1, ROWS, v)),
}


# None is f_mass's default, which takes the best row's own mass.  10**400
# is a real number: a probe time's range check refuses it in its own
# words (test_a_non_finite_probe_time_is_refused_naming_it), and an
# indicator's horizon, like a non-finite one, is its breaks' to refuse
# (test_an_indicator_past_the_float_range_is_refused_naming_breaks)
OWN_WORDS_FOR_HUGE = {"endpoint-a", "endpoint-b", "indicator-horizon"}
SCALAR_CASES = [pytest.param(entry, value, id=f"{entry}-{label}")
                for entry in sorted(SCALAR_CALLS)
                for label, value in (("numeric-str", "0.5"), ("str", "x"),
                                     ("none", None), ("bool", True),
                                     ("huge-int", 10 ** 400))
                if not (entry.endswith("f_mass") and value is None)
                and not (entry in OWN_WORDS_FOR_HUGE and value == 10 ** 400)]


@pytest.mark.parametrize("entry,value", SCALAR_CASES)
def test_every_scalar_number_is_refused_by_its_rule_naming_it(
        monkeypatch, entry, value):
    # float() and complex() used to take "0.5" and True as numbers, raise
    # TypeError on None and, on "x", an error that named nothing, and
    # 10**400 raised an OverflowError that named no parameter
    name, call = SCALAR_CALLS[entry]
    refuse_to_work(monkeypatch)
    with pytest.raises(ValueError, match=(
            f"^{name} must .+, got {re.escape(repr(value))}$")):
        call(value)


def test_an_indicator_past_the_float_range_is_refused_naming_breaks(
        monkeypatch):
    # its breaks hold an int no float holds, so they are objects
    refuse_to_work(monkeypatch)
    with pytest.raises(ValueError, match="^breaks must hold real numbers"):
        StepFunction.indicator(0.0, 0.5, 10 ** 400)


# every array parameter of a public entry, and a call that passes x as
# it: x is a step function's two breaks or values, a span's two terms, or
# each row of a 2 x 2 matrix
ARRAY_CALLS = {
    "StepFunction-breaks": ("breaks", lambda x: StepFunction(x, [1.0])),
    "StepFunction-values": ("values", lambda x: StepFunction(
        [0.0, 0.5, 1.0], x)),
    "ExpSpan-coef": ("coef", lambda x: ExpSpan(x, [0.0, 1.0],
                                                [[0.5], [0.25]])),
    "ExpSpan-breaks": ("breaks", lambda x: ExpSpan([1.0], x, [[0.5]])),
    "ExpSpan-values": ("values", lambda x: ExpSpan([1.0], [0.0, 0.5, 1.0],
                                                    [x])),
    "value_at-t": ("t", WS_WEIGHT.value_at),
    "local_minima-values": ("values", local_minima),
    "WarrenPath-values": ("values", lambda x: WarrenPath(4, x)),
    "chaos_eval_under_probe-signs": ("signs", lambda x: chaos_eval_under_probe(
        half_interval_profile(), WarrenPath(4, np.zeros(5)), x,
        constant_evaluator(1.0))),
    "require_hermitian-a": ("a", lambda x: require_hermitian([x, x])),
    "sgn_op-a": ("a", lambda x: sgn_op([x, x])),
    "sgn_expectation-a": ("a", lambda x: sgn_expectation([x, x], [1.0, 0.0])),
    "sgn_expectation-v": ("v", lambda x: sgn_expectation(np.eye(2), x)),
}
BAD_ARRAYS = {
    "str": ["0", "1"],
    "bool": [False, True],
    "object": [1, 10 ** 400],
    "nan": [0.0, math.nan],
    "inf": [0.0, math.inf],
}


@pytest.mark.parametrize("kind", sorted(BAD_ARRAYS))
@pytest.mark.parametrize("entry", sorted(ARRAY_CALLS))
def test_every_array_is_refused_by_the_one_rule_naming_it(monkeypatch, entry,
                                                          kind):
    # strings and bools used to build step functions and spans, a NaN
    # walk gave minima, a NaN or infinite matrix a NaN sign, and
    # sgn_expectation of a matrix v raised TypeError
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the inputs were checked")
    name, call = ARRAY_CALLS[entry]
    refuse_to_work(monkeypatch)
    monkeypatch.setattr(np.linalg, "eigh", no_work)
    words = "be finite$" if kind in ("nan", "inf") else "hold .*numbers, got "
    with pytest.raises(ValueError, match=f"^{name} must {words}"):
        call(BAD_ARRAYS[kind])


def test_a_real_array_refuses_complex_entries():
    for call in (lambda: StepFunction([0.0, 1j], [1.0]),
                 lambda: WS_WEIGHT.value_at(0.5 + 0j),
                 lambda: local_minima([1.0, 0.0, 1j])):
        with pytest.raises(ValueError, match="must hold real numbers, got "
                                             "complex128$"):
            call()


def test_a_span_keeps_its_results_after_the_caller_writes_its_arrays():
    # the span used to hold the caller's arrays: after c[0] = 2 its kept
    # norm read 1.1331 where a fresh span gives 2.2663, and after
    # b[1] = 2 its horizon read 2.0 while its kept widths stayed [1.]
    coef, breaks = np.array([1.0 + 0j]), np.array([0.0, 1.0])
    values = np.array([[0.5 + 0j]])
    span = ExpSpan(coef, breaks, values)
    norm, widths = span.norm(), span.widths.copy()
    coef[0], breaks[1], values[0, 0] = 2.0, 2.0, 3.0
    assert span.norm() == norm == ExpSpan([1.0], [0.0, 1.0], [[0.5]]).norm()
    assert span.coef.tolist() == [1.0]
    assert span.horizon == 1.0 and span.widths.tolist() == widths.tolist()
    for array in (span.coef, span.breaks, span.values):
        assert not array.flags.writeable


def test_a_path_keeps_its_values_and_minima_after_the_caller_writes():
    # the path used to hold the caller's walk: after w[2] = -3 its values
    # read the new walk, whose one minimum is at 2, while its minima stayed
    # [1, 3]; a list of values stayed a list
    walk = np.array([0.0, -1.0, 0.0, -1.0, 0.0])
    path = WarrenPath(4, walk)
    walk[2] = -3.0
    assert path.values.tolist() == [0.0, -1.0, 0.0, -1.0, 0.0]
    assert path.minima.tolist() == [1, 3]
    listed = WarrenPath(4, [0.0, -1.0, 0.0])
    for values in (path.values, listed.values):
        assert isinstance(values, np.ndarray)
        assert values.dtype == np.float64 and not values.flags.writeable
