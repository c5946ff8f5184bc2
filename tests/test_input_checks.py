"""Every size that a public entry takes (a dimension N, a bucket count n,
a grid size m, a reach or a number of samples) is checked as a whole
number before any kernel or draw, and so is the finiteness of a coherent
amplitude, of an automorphism's lam, xi and U, of unit's a and zeta, of
the Weyl residual's lam and mu and of an evaluator's probe times: a
non-whole size used to be truncated, resized or end in a TypeError, a
non-finite amplitude or parameter in NaN results, and a non-finite probe
time in an OverflowError that named no parameter.  An angle alpha and a
WS profile's times a and b must be real numbers: one that was not, such
as a string, ended in a TypeError or a ValueError that named neither."""

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
    unit,
)
from splitnoise.ccr_matrix import (
    build_pair,
    coherent_vector,
    convergence_study,
    lemma23_value,
    position_momentum,
    sign_sum_norm,
    symmetric_triple,
)
from splitnoise.warren_sim import (
    PsiSpec,
    SuperchaosVector,
    WarrenPath,
    chaos_eval_under_probe,
    endpoint_sign_evaluator,
    half_interval_profile,
    lemma43_table,
    constant_evaluator,
    mc_coherent_sign_probe,
    quad_form_C,
    run_replicas,
    sample_path,
)


def refuse_to_work(monkeypatch):
    """Make every dense builder, sign kernel and walk or endpoint draw
    fail, so that a check that comes too late is caught."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the inputs were checked")
    for name in ("_ladder_entries", "_sinc_diagonals", "_hermite_nodes",
                 "_polar"):
        monkeypatch.setattr(ccr_matrix, name, no_work)
    for name in ("draw_walks", "sample_path", "replica_rng"):
        monkeypatch.setattr(warren_sim, name, no_work)


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
}


@pytest.mark.parametrize("value", ["2.0", "x", None, 0.5j],
                         ids=["numeric-str", "str", "none", "complex"])
@pytest.mark.parametrize("entry", sorted(REAL_NUMBER_CALLS))
def test_angles_and_profile_times_must_be_real_numbers(monkeypatch, entry,
                                                       value):
    # lemma23_value("2.0", 0.5, 16) and SuperchaosVector("WS", w, "0.5",
    # "1.0") raised TypeError: '<' not supported, and convergence_study
    # with an angle "x" "could not convert string to float: 'x'"
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


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308],
                         ids=["nan", "inf", "-inf", "overflow"])
@pytest.mark.parametrize("name", ["a", "b"])
@pytest.mark.parametrize("call", sorted(PROBE_CALLS))
def test_a_non_finite_probe_time_is_refused_naming_it(monkeypatch, call,
                                                      name, value):
    # an infinite time, or one whose grid index overflows, raised
    # OverflowError, and NaN an unnamed "cannot convert float NaN"
    refuse_to_work(monkeypatch)
    times = {"a": 0.0, "b": 0.5, name: value}
    with pytest.raises(ValueError, match=(
            f"^{name} = {re.escape(str(value))} lies outside \\[0, 1\\]$")):
        PROBE_CALLS[call](endpoint_sign_evaluator(times["a"], times["b"]))
