"""Every size that a public entry takes (a dimension N, a bucket count n,
a grid size m, a reach or a number of samples) is checked as a whole
number before any kernel or draw, and so is a coherent amplitude's
finiteness: a non-whole size used to be truncated, resized or end in a
TypeError, and a non-finite amplitude in NaN results."""

import math
import re

import numpy as np
import pytest

from splitnoise import ccr_matrix, warren_sim
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
    WarrenPath,
    half_interval_profile,
    lemma43_table,
    mc_coherent_sign_probe,
    run_replicas,
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
