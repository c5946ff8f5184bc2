import dataclasses
import json
import math
import re
import sys
import warnings
from concurrent import futures

import numpy as np
import pytest

from splitnoise import warren_sim
from splitnoise.gaussian_algebra import StepFunction
from splitnoise.warren_sim import (
    LEMMA43_HEADER,
    Lemma43Row,
    PsiSpec,
    SuperchaosVector,
    WarrenPath,
    apply_matched_sign_probe,
    chaos_eval,
    chaos_eval_under_probe,
    constant_evaluator,
    draw_signs,
    endpoint_sign_evaluator,
    half_interval_profile,
    lemma43_table,
    local_minima,
    mc_coherent_sign_probe,
    obstruction_report,
    per_path_integrand,
    quad_form_C,
    replica_rng,
    run_replicas,
    sample_path,
    write_lemma43_csv,
    write_obstruction_json,
)


def phi(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def constant(value, horizon):
    """The step function equal to value on all of [0, horizon]."""
    return StepFunction([0.0, horizon], [value])


def sign_factor(f, path):
    """f's sign factor on one path: +-1 (or 0 on a tie) for a WS profile,
    1 for a deterministic one."""
    factor = warren_sim._sign_factor(f, path.values, path.m, 1)
    return 1.0 if factor is None else float(factor)


def bucket_probe_evaluator(spec):
    """psi(t_j, path) = the increment sign over [edge, edge + delta] at the
    right edge (j // step + 1) * step of the bucket of width step holding
    the grid index j < m/2, else 0: the probe of the estimate column,
    evaluated on the grid."""
    def psi(walks, m):
        step, d = spec.alignment(m)
        half = m // 2
        signs = warren_sim._bucket_signs(walks, m, step, d)
        out = np.zeros(walks.shape)
        out[:, :half] = np.repeat(signs, step, axis=1)
        return out
    # the last bucket's right edge is m // 2, probed d steps further on
    psi.reach = lambda m: m // 2 + spec.alignment(m)[1]
    return psi


def make_path(values):
    values = np.asarray(values, dtype=float)
    return WarrenPath(m=len(values) - 1, values=values)


def on_minima(psi, path):
    """psi at the minima of one path, read off psi on the grid of the
    path's one-row block."""
    walks = path.values[None, :]
    return np.broadcast_to(psi(walks, path.m), walks.shape)[0, path.minima]


def signed_path(m, seed, r):
    """A sampled path and its signs, drawn from one replica stream."""
    rng = replica_rng(seed, r)
    path = sample_path(m, rng)
    return path, draw_signs(path, rng)


# --- local minima and path sampling -------------------------------------

def test_local_minima_basic():
    assert list(local_minima([0.0, -1.0, 1.0])) == [1]


def test_local_minima_monotone_empty():
    assert len(local_minima(np.arange(10.0))) == 0


def test_local_minima_ties_excluded():
    assert len(local_minima([0.0, -1.0, -1.0, 1.0])) == 0


def test_local_minima_needs_three_points():
    with pytest.raises(ValueError):
        local_minima([0.0, 1.0])


def test_sample_path_starts_at_zero_and_validates():
    path, signs = signed_path(512, 1, 0)
    assert path.values[0] == 0.0 and len(path.values) == 513
    assert np.array_equal(path.minima, local_minima(path.values))
    assert np.all(np.diff(path.minima) > 0) and len(path.minima) > 0
    assert signs.dtype == np.int8 and len(signs) == len(path.minima)
    assert set(signs.tolist()) == {-1, 1}


def test_sample_path_rejects_small_m():
    with pytest.raises(ValueError):
        sample_path(3, replica_rng(0, 0))


def test_sample_path_reproducible_from_substream():
    a, a_signs = signed_path(128, 9, 4)
    b, b_signs = signed_path(128, 9, 4)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a_signs, b_signs)


def sample_path_as_drawn_in_full(m, rng):
    """The whole-walk sampler written out: m increments, their running
    sum after a leading 0, then one sign per strict minimum."""
    values = np.concatenate(([0.0], np.cumsum(
        rng.normal(0.0, math.sqrt(1.0 / m), size=m))))
    minima = local_minima(values)
    signs = (2 * rng.integers(0, 2, size=len(minima)) - 1).astype(np.int8)
    return values, minima, signs


@pytest.mark.parametrize("m", [64, 257, 16384])
def test_sample_path_prefix_is_the_whole_walk_cut_short(m):
    for r in range(4):
        full, full_signs = signed_path(m, 29, r)
        values, minima, signs = sample_path_as_drawn_in_full(
            m, replica_rng(29, r))
        assert full.values.tobytes() == values.tobytes()
        assert np.array_equal(full.minima, minima)
        assert full_signs.tobytes() == signs.tobytes()
        for h in (2, m // 2, m // 2 + 5, m - 1, m):
            rng = replica_rng(29, r)
            part = sample_path(m, rng, reach=h)
            assert part.m == m and len(part.values) == h + 1
            assert np.array_equal(part.values, full.values[:h + 1])
            assert np.array_equal(part.minima, full.minima[full.minima < h])
            with pytest.raises(IndexError):
                part.values[h + 1]
        assert draw_signs(part, rng).tobytes() == signs.tobytes()  # h == m


def test_sample_path_rejects_bad_reach():
    for h in (1, 65):
        with pytest.raises(ValueError):
            sample_path(64, replica_rng(0, 0), reach=h)


@pytest.mark.parametrize("m", [64, 16384])
def test_sample_path_signs_are_drawn_after_the_increments(m):
    # by hand: h increments, their running sum after a leading 0, the
    # strict minima, then one sign per minimum from the same stream
    for r in range(4):
        for h in (2, m // 2 + 4, m):
            rng = replica_rng(43, r)
            values = np.concatenate(([0.0], np.cumsum(
                rng.normal(0.0, math.sqrt(1.0 / m), size=h))))
            minima = local_minima(values)
            signs = (2 * rng.integers(0, 2, size=len(minima)) - 1).astype(np.int8)
            rng = replica_rng(43, r)
            path = sample_path(m, rng, reach=h)
            assert path.values.tobytes() == values.tobytes()
            assert np.array_equal(path.minima, minima)
            assert draw_signs(path, rng).tobytes() == signs.tobytes()


def test_endpoint_variance_matches_brownian_scaling():
    n = 10_000
    ends = np.array([sample_path(64, replica_rng(123, r)).values[-1]
                     for r in range(n)])
    var = ends.var(ddof=1)
    se = math.sqrt(2.0 / (n - 1))  # sd of a unit-variance sample variance
    assert abs(var - 1.0) <= 5 * se


def test_minima_fraction_approaches_one_quarter():
    # P(X_j < 0 < X_{j+1}) = 1/4 for independent continuous increments
    m, reps = 2048, 200
    counts = [len(sample_path(m, replica_rng(7, r)).minima) for r in range(reps)]
    frac = np.mean(counts) / (m - 1)
    sd = np.std(counts, ddof=1) / (m - 1) / math.sqrt(reps)
    assert abs(frac - 0.25) <= 5 * sd


def test_warren_path_invariant_violations():
    with pytest.raises(ValueError):
        WarrenPath(m=4, values=np.array([1.0, 0.0, 2.0, 0.5, 1.0]))
    for values in ([0.0, -1.0], np.zeros(6)):  # too short, longer than m + 1
        with pytest.raises(ValueError):
            WarrenPath(m=4, values=np.array(values))
    # the minima are derived from the walk, never passed in
    path = WarrenPath(m=4, values=np.array([0.0, -1.0, 2.0, -0.5, 1.0]))
    assert path.minima.tolist() == [1, 3]
    with pytest.raises(TypeError):
        WarrenPath(m=4, values=path.values, minima=np.array([1]))


def test_signed_evaluations_need_one_sign_per_minimum():
    path, signs = signed_path(256, 3, 5)
    f, one = half_interval_profile(), constant_evaluator(1.0)
    for bad in (signs[:-1], signs[:1], np.append(signs, 1)):
        for read in (lambda: chaos_eval(f, path, bad),
                     lambda: chaos_eval_under_probe(f, path, bad, one)):
            with pytest.raises(ValueError, match="one sign per minimum"):
                read()
    assert chaos_eval_under_probe(f, path, signs, one) == \
        chaos_eval(f, path, signs)


# --- profiles and chaos evaluation ---------------------------------------

def test_profile_validation():
    w = StepFunction.indicator(0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        SuperchaosVector("X", w)
    with pytest.raises(ValueError):
        SuperchaosVector("W", constant(1.0, 2.0))
    with pytest.raises(ValueError):
        SuperchaosVector("W", constant(1j, 1.0))
    with pytest.raises(ValueError):
        SuperchaosVector.sign_modulated(w, 0.7, 0.2)


def test_ws_profile_keeps_its_times_as_the_floats_it_checked():
    # SuperchaosVector("WS", w, 0, 1).a was the int 0; sign_modulated's
    # refusals are in test_input_checks.py's REAL_NUMBER_CALLS
    w = StepFunction.indicator(0.0, 0.5, 1.0)
    for f in (SuperchaosVector("WS", w, 0, 1),
              SuperchaosVector.sign_modulated(w, np.int64(0), np.float32(1))):
        assert (type(f.a), type(f.b), f.a, f.b) == (float, float, 0.0, 1.0)


def test_weight_profile_reads_w_at_the_grid_times():
    # breaks off the 1/64 grid, and one on it (0.25 = 16/64), which opens
    # the interval to its right
    w = StepFunction((0.0, 0.13, 0.25, 0.377, 1.0), (0.7, -1.3, 2.0, 0.0))
    m = 64
    wp = SuperchaosVector.deterministic(w).weight_profile(m)
    assert wp.tolist() == [w.value_at(j / m).real for j in range(m + 1)]
    assert (wp[8], wp[9], wp[16], wp[24], wp[25]) == (0.7, -1.3, 2.0, 2.0, 0.0)


def test_chaos_eval_no_minima_in_support():
    f = SuperchaosVector.deterministic(StepFunction.indicator(0.5, 1.0, 1.0))
    path = make_path([0.0, -1.0, 1.0, 0.5, 1.0])  # minima at 1/4, 3/4... check
    # keep only the minimum below 1/2 by masking the profile instead
    f2 = SuperchaosVector.deterministic(StepFunction.indicator(0.9, 1.0, 1.0))
    assert chaos_eval(f2, path, np.ones(len(path.minima))) == 0.0
    assert f.w.value_at(0.25) == 0.0


def test_chaos_eval_single_minimum_gives_sign():
    path = make_path([0.0, -1.0, 1.0, 2.0])
    f = SuperchaosVector.deterministic(constant(1.0, 1.0))
    assert chaos_eval(f, path, np.array([-1], dtype=np.int8)) == -1.0


def test_chaos_eval_odd_in_signs():
    path, signs = signed_path(256, 3, 1)
    f = half_interval_profile()
    assert chaos_eval(f, path, -signs) == -chaos_eval(f, path, signs)


def test_ws_sign_factor():
    path = make_path([0.0, -1.0, 1.0, 1.0, 2.0])
    w = constant(1.0, 1.0)
    up = SuperchaosVector.sign_modulated(w, 0.0, 1.0)    # B_1 > B_0
    down = SuperchaosVector.sign_modulated(w, 0.25, 0.5)  # B_.5 > B_.25
    assert sign_factor(up, path) == 1.0
    assert sign_factor(down, path) == 1.0
    tie = SuperchaosVector.sign_modulated(w, 0.5, 0.75)   # exact tie -> 0
    assert sign_factor(tie, path) == 0.0


def test_ws_misaligned_probe_raises():
    path = make_path([0.0, -1.0, 1.0, 0.0, 2.0])
    f = SuperchaosVector.sign_modulated(constant(1.0, 1.0),
                                        0.1, 0.9)
    with pytest.raises(ValueError):
        sign_factor(f, path)


# --- quadratic forms -----------------------------------------------------

def test_quad_form_zero_evaluator():
    f = half_interval_profile()
    est = quad_form_C(constant_evaluator(0.0), f, 10, 1, m=128)
    assert est.mean == 0.0 and est.stderr == 0.0


def test_quad_form_domination_per_path():
    # |psi| <= 1 forces the integrand below the mass integrand, path by path
    f = half_interval_profile()
    spec = PsiSpec(4, 1 / 64)
    psi = bucket_probe_evaluator(spec)
    one = constant_evaluator(1.0)
    for r in range(20):
        path = sample_path(256, replica_rng(13, r))
        assert per_path_integrand(psi, f, path) <= per_path_integrand(one, f, path)


def test_matched_probe_strips_sign_factor_per_path():
    # the endpoint probe acting on the matching WS vector returns the
    # deterministic vector, exactly, whenever the probe is not a tie
    w = StepFunction.indicator(0.0, 0.5, 1.0)
    f_ws = SuperchaosVector.sign_modulated(w, 0.5, 1.0)
    f_w = apply_matched_sign_probe(f_ws)
    assert f_w.kind == "W"
    half = StepFunction.indicator(0.0, 0.5, 1.0)
    assert np.array_equal(f_w.w.breaks, half.breaks)
    assert np.array_equal(f_w.w.values, half.values)
    psi = endpoint_sign_evaluator(0.5, 1.0)
    hits = 0
    for r in range(10):
        path, signs = signed_path(64, 19, r)
        if sign_factor(f_ws, path) != 0.0:
            hits += 1
            assert chaos_eval_under_probe(f_ws, path, signs, psi) == \
                chaos_eval(f_w, path, signs)
    assert hits > 0


def test_matched_probe_quadratic_form_mean_zero():
    # <C_psi>_f for the endpoint probe has exactly zero mean: |f_k|^2 kills
    # the profile sign and the probe sign is an independent increment
    w = StepFunction.indicator(0.0, 0.5, 1.0)
    f_ws = SuperchaosVector.sign_modulated(w, 0.5, 1.0)
    psi = endpoint_sign_evaluator(0.5, 1.0)
    est = quad_form_C(psi, f_ws, 400, 23, m=256)
    assert abs(est.mean) <= 5 * est.stderr
    # while psi^2 restores the half-interval mass exactly per path
    psi2 = lambda walks, m: psi(walks, m) ** 2  # noqa: E731
    for r in range(5):
        path = sample_path(256, replica_rng(29, r))
        if sign_factor(f_ws, path) != 0.0:
            assert per_path_integrand(psi2, f_ws, path) == \
                per_path_integrand(constant_evaluator(1.0),
                                   apply_matched_sign_probe(f_ws), path)


def test_matched_probe_rejects_plain_profile():
    with pytest.raises(ValueError):
        apply_matched_sign_probe(half_interval_profile())


# --- psi evaluation ------------------------------------------------------

def test_psi_eval_zero_past_half():
    spec = PsiSpec(4, 1 / 64)
    path = sample_path(64, replica_rng(31, 0))
    past_half = path.minima >= 32
    assert past_half.any()
    assert np.all(on_minima(bucket_probe_evaluator(spec), path)[past_half]
                  == 0.0)


def test_psi_eval_rising_path_probe_positive():
    # one minimum, at index 1; the walk rises everywhere after it
    values = np.concatenate(([0.0, -0.1], np.linspace(0.2, 6.4, 63)))
    path = make_path(values)
    spec = PsiSpec(4, 1 / 64)
    assert path.minima.tolist() == [1]
    assert on_minima(bucket_probe_evaluator(spec), path).tolist() == [1.0]


def test_psi_eval_range_and_tie():
    path = make_path([0.0, -1.0, 1.0, 1.0, 2.0, 0.0, 1.0, 2.0, 3.0])
    spec = PsiSpec(2, 1 / 8)
    vals = on_minima(bucket_probe_evaluator(spec), path)
    assert path.minima.tolist() == [1, 5]
    assert set(vals.tolist()) <= {-1.0, 0.0, 1.0}
    # the minimum at 1/8 is probed over [2/8, 3/8], an exact tie -> 0
    assert vals[0] == 0.0


def test_psi_eval_alignment_errors(monkeypatch):
    path = sample_path(64, replica_rng(37, 0))
    with pytest.raises(ValueError):
        # 6 does not divide 64
        on_minima(bucket_probe_evaluator(PsiSpec(3, 1 / 64)), path)
    with pytest.raises(ValueError):
        # delta off grid
        on_minima(bucket_probe_evaluator(PsiSpec(4, 1 / 100)), path)
    with pytest.raises(ValueError):
        PsiSpec(4, 0.7)                                    # delta outside (0, 1/2)
    with pytest.raises(ValueError, match="n must be at least 1"):
        PsiSpec(0, 1 / 64)
    # 1e-12 is on the 1/256 grid within its tolerance, but rounds to 0 steps
    with pytest.raises(ValueError, match="at least one grid step"):
        PsiSpec(4, 1e-12).alignment(256)
    # a grid time outside [0, 1] is named before any walk is drawn: a
    # negative index would silently read the walk from its far end
    refuse_to_draw(monkeypatch)
    f = half_interval_profile()
    signs = np.ones(len(path.minima))
    for (a, b), bad in (((-0.25, 0.25), "a = -0.25"),
                        ((-0.5, 0.25), "a = -0.5"),
                        ((0.25, 1.5), "b = 1.5")):
        psi = endpoint_sign_evaluator(a, b)
        with pytest.raises(ValueError, match=f"{bad} lies outside"):
            quad_form_C(psi, f, 20, 1, m=64)
        with pytest.raises(ValueError, match=f"{bad} lies outside"):
            chaos_eval_under_probe(f, path, signs, psi)


def test_psi_decomposition_identity_exact():
    # at every minimum, sum_k chi_{n,k}(t) phi_{n,k,delta}(path) equals
    # the bucket probe, bitwise
    m, n, delta = 128, 4, 1 / 32
    spec = PsiSpec(n, delta)
    path = sample_path(m, replica_rng(41, 0))
    d = round(delta * m)
    step = m // (2 * n)
    vals = on_minima(bucket_probe_evaluator(spec), path)
    assert len(vals) == len(path.minima) > 0
    for j, val in zip(path.minima, vals):
        t = j / m
        total = 0.0
        for k in range(1, n + 1):
            if (k - 1) / (2 * n) <= t < k / (2 * n):
                edge = k * step
                total += float(np.sign(path.values[edge + d]
                                       - path.values[edge]))
        assert val == total


# --- refinement table ----------------------------------------------------

def test_lemma43_rows_shared_mass_and_exact_u_mass_at_one_step():
    f = half_interval_profile()
    m = 512
    rows = lemma43_table(f, [2, 4], [1 / m, 4 / m], m, 80, 43)
    assert len(rows) == 4
    by = {(r.n, r.delta): r for r in rows}
    # mass shared across cells (common random numbers)
    assert len({r.mass for r in rows}) == 1
    # delta of one grid step: every minimum rises by construction
    for n in (2, 4):
        r = by[(n, 1 / m)]
        assert r.u_mass == r.mass and r.u_mass_stderr == r.mass_stderr


@pytest.mark.parametrize("m,samples,seed,threads",
                         [(256, 37, 5, 1), (1024, 200, 83, 2)])
def test_warren_mass_and_the_table_mass_are_one_estimate(m, samples, seed,
                                                          threads):
    # both drivers weigh the minima below m/2 through the same amplitudes
    # and draw replica r from the same stream, so they agree bit for bit
    f = half_interval_profile()
    est = quad_form_C(constant_evaluator(1.0), f, samples, seed, m=m,
                      threads=threads)
    row = lemma43_table(f, [2], [4 / m], m, samples, seed, threads=threads)[0]
    assert (est.mean, est.stderr) == (row.mass, row.mass_stderr)


def test_lemma43_u_mass_four_steps_matches_arctan_constant():
    # P(B_{j+4} > B_j | strict minimum at j) = E Phi(|Z|/sqrt(3)) = 2/3
    f = half_interval_profile()
    m = 1024
    rows = lemma43_table(f, [2], [4 / m], m, 600, 47)
    r = rows[0]
    ratio = r.u_mass / r.mass
    assert abs(ratio - 2.0 / 3.0) <= 5 * r.u_ratio_stderr


def test_lemma43_bucket_probe_estimate_is_centered():
    # the probe increment starts at the bucket edge, above every minimum
    # in the bucket, so the estimator mean vanishes identically
    f = half_interval_profile()
    m = 1024
    rows = lemma43_table(f, [4, 8], [4 / m], m, 600, 53)
    for r in rows:
        assert abs(r.estimate) <= 5 * r.stderr
        assert r.estimate <= r.mass + 3 * r.stderr


def test_lemma43_requires_half_supported_profile():
    f = SuperchaosVector.deterministic(constant(1.0, 1.0))
    with pytest.raises(ValueError):
        lemma43_table(f, [2], [1 / 64], 64, 4, 0)


def test_lemma43_alignment_guard():
    f = half_interval_profile()
    with pytest.raises(ValueError):
        lemma43_table(f, [3], [1 / 64], 64, 4, 0)


def test_lemma43_rejects_no_samples():
    with pytest.raises(ValueError):
        lemma43_table(half_interval_profile(), [2], [1 / 64], 64, 0, 0)


def refuse_to_draw(monkeypatch):
    def no_walk(*args):
        raise AssertionError("a walk was drawn before the inputs were checked")
    for drawer in ("draw_walks", "sample_path"):
        monkeypatch.setattr(warren_sim, drawer, no_walk)


def test_psi_spec_converts_delta_with_float():
    spec = PsiSpec(4, "0.25")  # used to raise TypeError
    assert spec.delta == 0.25 and type(spec.delta) is float
    assert spec == PsiSpec(4, 0.25)
    for delta in ("x", None, 0.5, math.nan):
        with pytest.raises(ValueError, match=(
                "^delta must lie in \\(0, 0.5\\), got "
                f"{re.escape(repr(delta))}$")):
            PsiSpec(4, delta)


def test_lemma43_checks_every_pair_before_drawing(monkeypatch):
    refuse_to_draw(monkeypatch)
    f = half_interval_profile()
    # delta = 0.6 reaches past the walk; only the first delta used to be
    # checked against every n
    with pytest.raises(ValueError, match="delta"):
        lemma43_table(f, [16], [0.0125, 0.6], 160, 2, 1)
    with pytest.raises(ValueError, match="divide"):
        lemma43_table(f, [2, 3], [1 / 64], 64, 2, 1)
    with pytest.raises(ValueError, match="grid"):
        lemma43_table(f, [2], [1 / 64, 1 / 100], 64, 2, 1)
    for n_list, delta_list in (([], [1 / 64]), ([2], [])):
        with pytest.raises(ValueError, match="nonempty"):
            lemma43_table(f, n_list, delta_list, 64, 2, 1)


@pytest.mark.parametrize("m", [3, 0, -8])
def test_drivers_check_m_before_any_work(monkeypatch, m):
    refuse_to_draw(monkeypatch)
    f, one = half_interval_profile(), constant_evaluator(1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # m = 0 divided by zero in the profile
        for run in (lambda: quad_form_C(one, f, 2, 1, m=m),
                    lambda: lemma43_table(f, [2], [0.25], m, 2, 1),
                    lambda: run_replicas(1, 2, m, zeros, reach=m)):
            with pytest.raises(ValueError, match="m must be at least 4"):
                run()
    with pytest.raises(ValueError, match="m must be at least 4"):
        sample_path(m, replica_rng(1, 0))


@pytest.mark.parametrize("samples,threads,name", [
    (2.5, 1, "samples"), (0, 1, "samples"), ("3", 1, "samples"),
    (math.inf, 1, "samples"), (2, 1.5, "threads"), (2, 0, "threads"),
    (2, math.nan, "threads"),
])
def test_drivers_check_counts_are_whole_before_any_work(monkeypatch, samples,
                                                        threads, name):
    refuse_to_draw(monkeypatch)
    f, one = half_interval_profile(), constant_evaluator(1.0)
    for run in (lambda: quad_form_C(one, f, samples, 1, m=64, threads=threads),
                lambda: lemma43_table(f, [2], [1 / 64], 64, samples, 1,
                                      threads=threads),
                lambda: run_replicas(1, samples, 64, zeros, reach=64,
                                     threads=threads)):
        with pytest.raises(ValueError, match=f"{name} must be at least 1 "
                                             "and be a whole number"):
            run()


def test_drivers_take_whole_float_counts_as_ints():
    f, one = half_interval_profile(), constant_evaluator(1.0)
    est = quad_form_C(one, f, 3.0, 1, m=64, threads=2.0)
    assert est == quad_form_C(one, f, 3, 1, m=64)
    assert type(est.samples) is int
    rows = lemma43_table(f, [2], [1 / 64], 64, 3.0, 1, threads=2.0)
    assert rows == lemma43_table(f, [2], [1 / 64], 64, 3, 1)
    assert type(rows[0].samples) is int


@pytest.mark.parametrize("m,reach,name", [
    (64.5, None, "m"), ("64", None, "m"), (math.inf, None, "m"),
    (math.nan, None, "m"), (64, 8.7, "reach"), (64, "8", "reach"),
    (64, math.nan, "reach"),
])
def test_grid_size_and_reach_are_whole_before_any_draw(monkeypatch, m, reach,
                                                       name):
    # a non-whole m used to fail in the engine without naming m, and a
    # non-whole reach was truncated without a word
    refuse_to_draw(monkeypatch)
    f, one = half_interval_profile(), constant_evaluator(1.0)
    runs = [lambda: sample_path(m, replica_rng(1, 0), reach=reach)]
    if reach is None:
        runs += [lambda: quad_form_C(one, f, 2, 1, m=m),
                 lambda: lemma43_table(f, [2], [0.25], m, 2, 1),
                 lambda: run_replicas(1, 2, m, zeros, reach=4)]
    for run in runs:
        with pytest.raises(ValueError,
                           match=f"{name} must .* and be a whole number"):
            run()


def test_whole_float_grid_size_and_reach_are_taken_as_ints():
    f, one = half_interval_profile(), constant_evaluator(1.0)
    path = sample_path(64.0, replica_rng(1, 0), reach=8.0)
    assert type(path.m) is int and len(path.values) == 9
    assert path.values.tobytes() == sample_path(
        64, replica_rng(1, 0), reach=8).values.tobytes()
    assert quad_form_C(one, f, 3, 1, m=64.0) == quad_form_C(one, f, 3, 1, m=64)
    rows = lemma43_table(f, [2], [1 / 64], 64.0, 3, 1)
    assert rows == lemma43_table(f, [2], [1 / 64], 64, 3, 1)
    assert type(rows[0].m) is int


def test_zero_profile_gives_zero_ratio_stderr_without_warnings():
    # mass is 0 on every path: the ratio u_mass / mass has no delta-method
    # standard error, reported as 0.0 rather than a division by zero
    f = SuperchaosVector.deterministic(constant(0.0, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = lemma43_table(f, [2], [1 / 64], 64, 8, 0)
    assert rows[0].mass == rows[0].u_mass == 0.0
    assert rows[0].u_ratio_stderr == 0.0


def test_single_sample_stderr_is_zero():
    f = half_interval_profile()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = lemma43_table(f, [2], [1 / 64], 64, 1, 0)
        est = quad_form_C(constant_evaluator(1.0), f, 1, 0, m=64)
    assert rows[0].stderr == rows[0].mass_stderr == rows[0].u_mass_stderr \
        == rows[0].u_ratio_stderr == 0.0
    assert est.stderr == 0.0 and est.mean == rows[0].mass


# --- replica engine ------------------------------------------------------

def zeros(walks):
    """A block reduction of width 1 that reads nothing."""
    return np.zeros((len(walks), 1))


def ends_and_minima(walks):
    """Per walk of a block: its last value and its number of strict
    minima, from the public one-walk local_minima."""
    return [[w[-1], len(local_minima(w))] for w in walks]

def ws_half_profile():
    return SuperchaosVector.sign_modulated(
        StepFunction.indicator(0.0, 0.5, 1.0), 0.5, 1.0)


def mean_stderr(values):
    v = np.asarray(values, dtype=float)
    return float(v.mean()), float(v.std(ddof=1) / math.sqrt(len(v)))


def ratio_stderr(num, den):
    num, den = np.asarray(num, dtype=float), np.asarray(den, dtype=float)
    ratio = num.mean() / den.mean()
    return mean_stderr(num - ratio * den)[1] / den.mean()


def lemma43_columns(f, n_list, delta_list, m, samples, seed):
    """Per-replica columns of the refinement table from one loop over
    whole walks and the public per-path pieces: the profile, the sign
    factor and bucket_probe_evaluator."""
    cols = {}
    for r in range(samples):
        path = sample_path(m, replica_rng(seed, r))
        keep = path.minima < m // 2
        jj = path.minima[keep]
        s = sign_factor(f, path)
        w2 = f.weight_profile(m)[jj] ** 2 * (s * s)
        B = path.values
        cols.setdefault("mass", []).append(w2.sum())
        for d in delta_list:
            off = round(d * m)
            cols.setdefault(("u", d), []).append(w2 @ (B[jj + off] > B[jj]))
            for n in n_list:
                probe = on_minima(bucket_probe_evaluator(PsiSpec(n, d)),
                                  path)[keep]
                cols.setdefault((n, d), []).append(w2 @ probe)
    return cols


def plain_lemma43_loop(f, n_list, delta_list, m, samples, seed):
    cols = lemma43_columns(f, n_list, delta_list, m, samples, seed)
    mass = mean_stderr(cols["mass"])
    return [Lemma43Row(n, d, m, samples, *mean_stderr(cols[(n, d)]), *mass,
                       *mean_stderr(cols[("u", d)]), seed,
                       ratio_stderr(cols[("u", d)], cols["mass"]))
            for n in n_list for d in delta_list]


@pytest.mark.parametrize("f, psi", [
    (half_interval_profile(), constant_evaluator(1.0)),
    (ws_half_profile(), endpoint_sign_evaluator(0.5, 1.0)),
], ids=["W-constant", "WS-endpoint-sign"])
def test_quad_form_exact_for_any_thread_count(monkeypatch, f, psi):
    # 37 replicas in chunks of 8: five chunks, the last one short
    monkeypatch.setattr(warren_sim, "REPLICA_CHUNK", 8)
    m, seed = 256, 61
    ests = [quad_form_C(psi, f, 37, seed, m=m, threads=t) for t in (1, 2, 3)]
    assert ests[0] == ests[1] == ests[2]
    loop = [per_path_integrand(psi, f, sample_path(m, replica_rng(seed, r)))
            for r in range(37)]
    assert (ests[0].mean, ests[0].stderr) == mean_stderr(loop)


@pytest.mark.parametrize("f", [half_interval_profile(), ws_half_profile()],
                         ids=["W", "WS"])
def test_lemma43_exact_for_any_thread_count(monkeypatch, f):
    monkeypatch.setattr(warren_sim, "REPLICA_CHUNK", 8)
    m, seed = 256, 67
    args = (f, [2, 4], [1 / m, 4 / m], m, 37, seed)
    tables = [lemma43_table(*args, threads=t) for t in (1, 2, 3)]
    assert tables[0] == tables[1] == tables[2]
    assert tables[0] == plain_lemma43_loop(*args)


def test_lemma43_ratio_stderr_is_the_delta_method_on_the_replica_columns():
    f = half_interval_profile()
    m, samples, seed = 1024, 200, 83
    deltas = [1 / m, 4 / m]
    rows = lemma43_table(f, [2], deltas, m, samples, seed)
    cols = lemma43_columns(f, [2], deltas, m, samples, seed)
    mass = np.asarray(cols["mass"], dtype=float)
    for r, d in zip(rows, deltas):
        u = np.asarray(cols[("u", d)], dtype=float)
        ratio = u.mean() / mass.mean()
        cov = np.cov(u, mass)  # ddof = 1
        var = cov[0, 0] - 2 * ratio * cov[0, 1] + ratio ** 2 * cov[1, 1]
        expected = math.sqrt(max(var, 0.0) / samples) / mass.mean()
        assert r.u_ratio_stderr == pytest.approx(expected, rel=1e-9, abs=1e-15)
    one_step, four_steps = rows
    assert one_step.u_ratio_stderr == 0.0  # u_mass is mass on every path
    # u_mass and mass are positively correlated: the ratio is tighter
    # than u_mass_stderr / mass, which treats mass as exact
    assert four_steps.u_ratio_stderr < four_steps.u_mass_stderr / four_steps.mass


def test_draw_walks_needs_a_generator_for_every_row():
    # rows without a generator used to come back built from the buffer's
    # old contents: 0, 1.75, 3.5, ... from a buffer of 7s
    with pytest.raises(ValueError, match="rngs ran out"):
        warren_sim.draw_walks(16, [replica_rng(1, 0)], np.full((3, 6), 7.0))
    # a longer stream gives up one generator per row and keeps the rest
    rngs = iter([replica_rng(1, r) for r in range(3)])
    walks = warren_sim.draw_walks(16, rngs, np.empty((2, 6)))
    assert walks.tobytes() == np.stack(
        [sample_path(16, replica_rng(1, r), reach=5).values
         for r in range(2)]).tobytes()
    assert next(rngs).standard_normal(4).tobytes() == \
        replica_rng(1, 2).standard_normal(4).tobytes()


def recorded_reaches(monkeypatch, cut=0):
    """Record the reach of each walk the engine draws, one entry per row
    of each block, drawing `cut` fewer increments than that."""
    drawn, draw_walks = [], warren_sim.draw_walks

    def short_walks(m, rngs, walks):
        drawn.extend([walks.shape[1] - 1] * len(walks))
        return draw_walks(m, rngs, walks[:, :walks.shape[1] - cut])

    monkeypatch.setattr(warren_sim, "draw_walks", short_walks)
    return drawn


def drivers_at(m):
    """(name, driver call, its reach) for both drivers and every factory
    evaluator, on the 1/m grid."""
    f, ws = half_interval_profile(), ws_half_profile()
    spec = PsiSpec(4, 4 / m)
    return [
        ("lemma43", lambda: lemma43_table(f, [2, 4], [1 / m, 4 / m], m, 5, 1),
         m // 2 + 4),
        ("lemma43-WS", lambda: lemma43_table(ws, [2], [1 / m], m, 5, 1), m),
        ("constant", lambda: quad_form_C(constant_evaluator(1.0), f, 5, 1, m=m),
         m // 2),
        ("bucket", lambda: quad_form_C(bucket_probe_evaluator(spec), f, 5, 1,
                                       m=m), m // 2 + 4),
        ("endpoint", lambda: quad_form_C(
            endpoint_sign_evaluator(0.25, 0.625), f, 5, 1, m=m), 5 * m // 8),
        ("endpoint-WS", lambda: quad_form_C(
            endpoint_sign_evaluator(0.5, 1.0), ws, 5, 1, m=m), m),
    ]


def test_drivers_draw_each_walk_to_their_reach(monkeypatch):
    m = 64
    drawn = recorded_reaches(monkeypatch)
    for name, run, reach in drivers_at(m):
        drawn.clear()
        run()
        assert drawn == [reach] * 5, name


def test_drivers_draw_through_the_public_sampler_once_per_replica(monkeypatch):
    # the engine draws every replica, a block of rows at a time, through
    # the public draw_walks, which a benchmark can trace; it never goes
    # through the one-walk sample_path and local_minima
    monkeypatch.setattr(warren_sim, "REPLICA_CHUNK", 8)
    calls = {"draw_walks": [], "sample_path": [], "local_minima": []}
    for name, seen in calls.items():
        def counted(*args, _fn=getattr(warren_sim, name), _seen=seen,
                    _rows=name == "draw_walks"):
            out = _fn(*args)
            # rows drawn, or 1 per one-walk call; list.append is atomic
            _seen.append(len(out) if _rows else 1)
            return out
        monkeypatch.setattr(warren_sim, name, counted)
    f, m, samples = half_interval_profile(), 128, 37
    for run in (
            lambda: quad_form_C(constant_evaluator(1.0), f, samples, 5, m=m),
            lambda: quad_form_C(bucket_probe_evaluator(PsiSpec(2, 4 / m)), f,
                                samples, 5, m=m, threads=2),
            lambda: lemma43_table(f, [2, 4], [1 / m], m, samples, 5),
            lambda: lemma43_table(f, [2], [1 / m, 4 / m], m, samples, 5,
                                  threads=3)):
        for seen in calls.values():
            seen.clear()
        run()
        assert {name: sum(seen) for name, seen in calls.items()} == \
            {"draw_walks": samples, "sample_path": 0, "local_minima": 0}


def test_driver_reading_past_a_short_reach_raises(monkeypatch):
    m = 64
    recorded_reaches(monkeypatch, cut=1)
    for name, run, reach in drivers_at(m):
        if reach < m:  # a reach of m is the whole walk: nothing to cut
            with pytest.raises(IndexError):
                run()


@pytest.mark.parametrize("m", [64, 256])
@pytest.mark.parametrize("psi", [
    constant_evaluator(0.5),
    endpoint_sign_evaluator(0.125, 0.375),
    bucket_probe_evaluator(PsiSpec(4, 1 / 32)),
], ids=["constant", "endpoint", "bucket"])
def test_evaluator_on_its_declared_reach_matches_the_whole_walk(m, psi):
    h = max(2, psi.reach(m))
    assert h < m
    for r in range(50):
        full = sample_path(m, replica_rng(89, r))
        part = sample_path(m, replica_rng(89, r), reach=h)
        assert np.array_equal(on_minima(psi, part),
                              on_minima(psi, full)[full.minima < h])


def fractional_profiles():
    w = StepFunction((0.0, 0.2, 0.45, 1.0), (0.7, -1.3, 0.0))
    return [SuperchaosVector.deterministic(w),
            SuperchaosVector.sign_modulated(w, 0.125, 0.5)]


@pytest.mark.parametrize("f", fractional_profiles(), ids=["W", "WS"])
@pytest.mark.parametrize("psi", [
    constant_evaluator(0.37),
    endpoint_sign_evaluator(0.125, 0.375),
    bucket_probe_evaluator(PsiSpec(4, 1 / 32)),
], ids=["constant", "endpoint", "bucket"])
def test_quad_form_on_prefixes_equals_whole_walk_loop(f, psi):
    # fractional weights: a sum that took in minima past the support
    # could round differently on a prefix and on the whole walk
    m, seed, samples = 256, 97, 30
    est = quad_form_C(psi, f, samples, seed, m=m)
    loop = [per_path_integrand(psi, f, sample_path(m, replica_rng(seed, r)))
            for r in range(samples)]
    assert (est.mean, est.stderr) == mean_stderr(loop)


@pytest.mark.parametrize("f", fractional_profiles(), ids=["W", "WS"])
def test_signed_evaluations_on_the_profile_reach_match_the_whole_walk(f):
    # the W weight ends below index 116 (t = 0.45); the WS probe reads 128
    m, seed = 256, 107
    h = 128 if f.kind == "WS" else 116
    psi = endpoint_sign_evaluator(0.125, 0.375)  # reads up to index 96
    for r in range(40):
        full, signs = signed_path(m, seed, r)
        part = sample_path(m, replica_rng(seed, r), reach=h)
        part_signs = signs[:len(part.minima)]
        assert chaos_eval(f, part, part_signs) == chaos_eval(f, full, signs)
        assert chaos_eval_under_probe(f, part, part_signs, psi) == \
            chaos_eval_under_probe(f, full, signs, psi)
        short = sample_path(m, replica_rng(seed, r), reach=h - 1)
        with pytest.raises(IndexError):
            chaos_eval(f, short, signs[:len(short.minima)])


@pytest.mark.parametrize("f", fractional_profiles(), ids=["W", "WS"])
def test_mass_matches_the_exact_mean(f):
    # increments are iid and symmetric, so each interior index is a strict
    # minimum with probability exactly 1/4, and |sign factor| = 1 a.s.
    m, samples = 256, 1000
    exact = 0.25 * sum(f.w.value_at(j / m).real ** 2 for j in range(1, m))
    est = quad_form_C(constant_evaluator(1.0), f, samples, 109, m=m)
    assert abs(est.mean - exact) <= 4 * est.stderr


def closed_form_mass(f, m):
    """Mean and variance of one replica's mass sum_j a_j 1{j is a strict
    minimum}, a_j = w(j/m)^2: each interior index is a minimum with
    probability 1/4, neighbours never both are, and minima two or more
    apart draw on disjoint increments."""
    a = f.weight_profile(m)[1:m] ** 2
    return a.sum() / 4, 3 / 16 * (a @ a) - (a[:-1] @ a[1:]) / 8


def test_closed_form_mass_at_the_default_grid():
    mean, var = closed_form_mass(half_interval_profile(), 2 ** 14)
    assert mean == 2047.75 and var == pytest.approx(512.0625)


@pytest.mark.parametrize("f", [half_interval_profile(),
                               fractional_profiles()[0]],
                         ids=["half", "fractional"])
def test_mass_rows_have_the_closed_form_mean_and_variance(f):
    m, samples = 256, 4000
    mean, var = closed_form_mass(f, m)
    est = quad_form_C(constant_evaluator(1.0), f, samples, 113, m=m)
    assert abs(est.mean - mean) <= 5 * math.sqrt(var / samples)
    # the mass is a sum of many weakly dependent terms, close to normal:
    # its sample variance has standard error about var sqrt(2 / (n - 1))
    sample_var = est.stderr ** 2 * samples
    assert abs(sample_var - var) <= 5 * var * math.sqrt(2 / (samples - 1))


@pytest.mark.parametrize("threads", [1, 2])
def test_block_minima_counts_equal_local_minima_per_replica(monkeypatch,
                                                            threads):
    # blocks of 7 rows in chunks of 24: a chunk is cut into 7 + 7 + 7 + 3
    # rows, so blocks restart at every chunk boundary, and the 200
    # replicas end in a short chunk of 8 rows, 7 + 1
    m, h, seed, samples = 256, 133, 127, 200
    monkeypatch.setattr(warren_sim, "REPLICA_CHUNK", 24)
    monkeypatch.setattr(warren_sim, "_WALK_BLOCK", 7 * (h + 1))
    blocks = []

    def counts(walks):
        blocks.append(len(walks))
        return warren_sim._minima_mask(walks, h).sum(axis=1)[:, None]

    rows = run_replicas(seed, samples, m, counts, reach=h, threads=threads)
    assert sorted(blocks) == sorted([7, 7, 7, 3] * 8 + [7, 1])
    walks = [sample_path(m, replica_rng(seed, r), h).values
             for r in range(samples)]
    assert rows[:, 0].tolist() == [len(local_minima(w)) for w in walks]


@pytest.mark.parametrize("f", fractional_profiles(), ids=["W", "WS"])
def test_lemma43_with_fractional_weights_matches_the_plain_loop(f):
    # per-bucket weight sums group the fractional terms differently from
    # a sum over the minima, so the two agree to roundoff, not bit for bit
    m, seed = 256, 103
    args = (f, [2, 4], [1 / m, 4 / m], m, 37, seed)
    for got, want in zip(lemma43_table(*args), plain_lemma43_loop(*args),
                         strict=True):
        assert dataclasses.astuple(got) == pytest.approx(
            dataclasses.astuple(want), rel=1e-12)


@pytest.mark.parametrize("seed", [0, 97, 2 ** 63 - 1])
@pytest.mark.parametrize("h", [5, 257, 16384 // 2 + 4])
def test_rekeyed_generator_draws_what_replica_rng_draws(seed, h):
    ended_mid_buffer = left_a_spare_word = 0
    replicas = range(64, 264)
    for r, rng in zip(replicas, warren_sim._replica_streams(seed, replicas),
                      strict=True):
        fill = rng.normal(0.0, 1 / 128, size=h)
        fresh = replica_rng(seed, r).normal(0.0, 1 / 128, size=h)
        assert fill.tobytes() == fresh.tobytes()
        ended_mid_buffer += rng.bit_generator.state["buffer_pos"] < 4
        if r % 3 == 0:  # a 32-bit draw leaves half a word for the next key
            rng.integers(0, 2, size=3)
            left_a_spare_word += rng.bit_generator.state["has_uint32"]
    assert ended_mid_buffer and left_a_spare_word


def test_rekeyed_streams_reject_bad_seeds():
    zero = zeros
    for seed in (-1, 2 ** 63, 1.5):
        with pytest.raises(ValueError):
            next(warren_sim._replica_streams(seed, range(3)))
        with pytest.raises(ValueError):
            run_replicas(seed, 3, 64, zero, reach=64)


def test_engine_draws_no_signs(monkeypatch):
    monkeypatch.setattr(warren_sim, "REPLICA_CHUNK", 8)
    used, rng_of = set(), warren_sim.replica_rng

    class Spy:
        def __init__(self, rng):
            self.rng = rng

        def __getattr__(self, name):
            used.add(name)
            return getattr(self.rng, name)

    monkeypatch.setattr(warren_sim, "replica_rng",
                        lambda seed, r: Spy(rng_of(seed, r)))

    rows = run_replicas(5, 20, 64, ends_and_minima, reach=64, threads=2)
    assert "standard_normal" in used and "integers" not in used
    expected = ends_and_minima([sample_path(64, rng_of(5, r)).values
                                for r in range(20)])
    assert rows.tolist() == expected


@pytest.mark.parametrize("threads", [1, 2])
def test_run_replicas_results_survive_the_reused_walk_buffer(monkeypatch,
                                                             threads):
    # 3 rows per block in chunks of 8, so two threads run a pool: each
    # block overwrites the walks of the one before, so a result that is
    # a view of them must be copied in time
    monkeypatch.setattr(warren_sim, "REPLICA_CHUNK", 8)
    monkeypatch.setattr(warren_sim, "_WALK_BLOCK", 3 * 65)
    rows = run_replicas(5, 20, 64, lambda w: w[:, -2:], reach=64,
                        threads=threads)
    expected = [sample_path(64, replica_rng(5, r)).values[-2:]
                for r in range(20)]
    assert rows.tolist() == np.array(expected).tolist()


def test_engine_never_starts_more_workers_than_chunks(monkeypatch):
    started = []

    class RecordingPool(futures.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(futures, "ThreadPoolExecutor", RecordingPool)
    f, one = half_interval_profile(), constant_evaluator(1.0)
    args = (f, [2], [1 / 128], 128, 3, 71)
    # 3 replicas are one chunk of 64: the loop runs inline
    assert quad_form_C(one, f, 3, 71, m=128, threads=8) == \
        quad_form_C(one, f, 3, 71, m=128)
    assert lemma43_table(*args, threads=8) == lemma43_table(*args)
    assert started == []
    monkeypatch.setattr(warren_sim, "REPLICA_CHUNK", 2)  # two chunks
    assert quad_form_C(one, f, 3, 71, m=128, threads=8) == \
        quad_form_C(one, f, 3, 71, m=128)
    assert started == [2]


def test_run_replicas_rows_follow_replica_keys_under_fast_switching(monkeypatch):
    # chunks of one replica on more workers than cores, with the
    # interpreter switching threads as often as it can: a row written
    # from the wrong replica or lost would break the equality
    monkeypatch.setattr(warren_sim, "REPLICA_CHUNK", 1)
    expected = ends_and_minima([sample_path(64, replica_rng(5, r)).values
                                for r in range(24)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = run_replicas(5, 24, 64, ends_and_minima, reach=64,
                            threads=3)
    finally:
        sys.setswitchinterval(interval)
    assert rows.shape == (24, 2)
    assert rows.tolist() == expected


def test_run_replicas_validation_and_worker_errors(monkeypatch):
    zero = zeros
    with pytest.raises(ValueError):
        run_replicas(0, 0, 64, zero, reach=64)
    with pytest.raises(ValueError):
        run_replicas(0, 4, 64, zero, reach=64, threads=0)
    monkeypatch.setattr(warren_sim, "REPLICA_CHUNK", 2)

    def failing(walks):
        raise RuntimeError("per-block failure")

    with pytest.raises(RuntimeError, match="per-block failure"):
        run_replicas(0, 4, 64, failing, reach=64, threads=2)


# --- superchaos orthogonality -------------------------------------------

def test_disjoint_window_components_uncorrelated():
    f = SuperchaosVector.deterministic(StepFunction.indicator(0.0, 0.5, 1.0))
    g = SuperchaosVector.deterministic(StepFunction.indicator(0.5, 1.0, 1.0))
    reps = 800
    prods = np.empty(reps)
    for r in range(reps):
        path, signs = signed_path(128, 79, r)
        prods[r] = chaos_eval(f, path, signs) * chaos_eval(g, path, signs)
    se = prods.std(ddof=1) / math.sqrt(reps)
    assert abs(prods.mean()) <= 4 * se


# --- coherent sign probe -------------------------------------------------

def test_mc_coherent_sign_probe_matches_cdf():
    t = 0.5
    for zeta in (0.0, 0.5, 1.0):
        est = mc_coherent_sign_probe(zeta, t, 40_000, 83)
        target = 2.0 * phi(2.0 * zeta * math.sqrt(t)) - 1.0
        assert abs(est.mean - target) <= 4 * est.stderr


def test_mc_coherent_sign_probe_validation():
    with pytest.raises(ValueError):
        mc_coherent_sign_probe(0.5, -1.0, 100, 0)
    with pytest.raises(ValueError):
        mc_coherent_sign_probe(0.5, 1.0, 1, 0)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            mc_coherent_sign_probe(0.5, t, 100, 0)


# --- obstruction report and artifacts ------------------------------------

def synthetic_row(n, delta, est, mass, seed=5):
    return Lemma43Row(n=n, delta=delta, m=1024, samples=100, estimate=est,
                      stderr=0.01, mass=mass, mass_stderr=0.01,
                      u_mass=mass, u_mass_stderr=0.01, seed=seed)


def test_obstruction_margin_arithmetic():
    # norm 2.1 and normalized estimate 0.9 give margin 0.6
    rows = [synthetic_row(16, 1 / 256, est=0.9, mass=1.0),
            synthetic_row(64, 1 / 1024, est=0.9, mass=1.0)]
    rep = obstruction_report(2.1, rows, scheme="oscillator", n_dim=1024)
    assert rep.margin == pytest.approx(3 * 0.9 - 2.1)
    assert (rep.n, rep.delta) == (64, 1 / 1024)  # smallest delta, largest n


def test_obstruction_no_contradiction_without_gap():
    rows = [synthetic_row(16, 1 / 256, est=0.95, mass=1.0)]
    rep = obstruction_report(3.0, rows)
    assert rep.margin == pytest.approx(3 * (0.95 - 1.0))
    assert rep.margin <= 0.0


def test_obstruction_requires_rows_and_mass():
    with pytest.raises(ValueError):
        obstruction_report(2.1, [])
    with pytest.raises(ValueError):
        obstruction_report(2.1, [synthetic_row(4, 0.25, 0.0, 0.0)])
    # a NaN m_hat would write NaN literals, which are not JSON
    rows = [synthetic_row(16, 1 / 256, est=0.9, mass=1.0)]
    for mass in (math.nan, math.inf):
        with pytest.raises(ValueError, match="mass must be positive and finite"):
            obstruction_report(2.1, rows, mass)
        with pytest.raises(ValueError, match="mass must be positive and finite"):
            obstruction_report(2.1, [synthetic_row(16, 1 / 256, 0.9, mass)])


def test_obstruction_report_refuses_a_non_finite_norm():
    # nan gave margin nan, and inf a JSON file holding Infinity
    rows = [synthetic_row(16, 1 / 256, est=0.9, mass=1.0)]
    for norm_value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=(
                f"^norm_value must be finite, got {norm_value!r}$")):
            obstruction_report(norm_value, rows)


def test_obstruction_report_dimension_is_whole_and_not_negative():
    rows = [synthetic_row(16, 1 / 256, est=0.9, mass=1.0)]
    # 8.5 used to be reported as N = 8, and -3 as it was
    for n_dim in (8.5, -3, "8", True):
        with pytest.raises(ValueError, match=(
                "^n_dim must be at least 0 and be a whole number, got ")):
            obstruction_report(2.1, rows, n_dim=n_dim)
    rep = obstruction_report(2.1, rows, n_dim=8.0)
    assert rep.N == 8 and type(rep.N) is int
    assert obstruction_report(2.1, rows).N == 0  # not given


def test_obstruction_report_bit_reproducible(tmp_path):
    rows = [synthetic_row(16, 1 / 256, est=0.4, mass=2.0)]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_obstruction_json(obstruction_report(2.128, rows, 2.0,
                                              scheme="grid", n_dim=512), a)
    write_obstruction_json(obstruction_report(2.128, rows, 2.0,
                                              scheme="grid", n_dim=512), b)
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert list(payload) == ["norm_value", "scheme", "N", "m_hat", "n",
                             "delta", "grid_m", "samples", "margin",
                             "master_seed", "versions"]


def test_lemma43_csv_format(tmp_path):
    rows = [synthetic_row(4, 0.25, 0.1, 1.0)]
    out = tmp_path / "lemma43.csv"
    write_lemma43_csv(rows, out)
    text = out.read_bytes().decode("utf-8")
    lines = text.split("\n")
    assert lines[0] == LEMMA43_HEADER
    assert lines[0] == "n,delta,m,samples,estimate,stderr,mass,mass_stderr,seed"
    assert "\r" not in text and text.endswith("\n")


def test_replica_rng_rejects_bad_seed():
    # the seed range and message that relation_suite shares; one check
    # refuses a seed or a replica index that is not a whole number rather
    # than truncating it, and a negative index rather than overflowing
    for seed in (-1, 2 ** 63, 1.5, math.nan, math.inf, "3"):
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*63\)"):
            replica_rng(seed, 0)
    for replica in (-1, 2 ** 63, 1.5):
        with pytest.raises(ValueError,
                           match=r"replica must lie in \[0, 2\*\*63\)"):
            replica_rng(3, replica)
    # a whole number of any integer type keys the same stream
    for seed, replica in ((np.int64(3), np.uint64(1)), (3.0, 1.0)):
        assert replica_rng(seed, replica).normal(size=4).tobytes() == \
            replica_rng(3, 1).normal(size=4).tobytes()
