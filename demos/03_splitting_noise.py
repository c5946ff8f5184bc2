"""Paths of the splitting noise and first-superchaos quadratic forms.

A sampled walk carries strict three-point local minima; the noise puts
an independent fair sign on each, drawn separately with draw_signs.  A
first-superchaos vector attaches one sign factor per term; its quadratic
forms integrate the signs out exactly, path by path.
"""

import numpy as np

from splitnoise import chaos_eval, draw_signs, quad_form_C, sample_path
from splitnoise.gaussian_algebra import StepFunction
from splitnoise.warren_sim import (
    SuperchaosVector,
    apply_matched_sign_probe,
    chaos_eval_under_probe,
    constant_evaluator,
    endpoint_sign_evaluator,
    half_interval_profile,
    per_path_integrand,
    replica_rng,
)

m = 4096
rng = replica_rng(11, 0)
path = sample_path(m, rng)
signs = draw_signs(path, rng)  # one fair sign per minimum, after the walk
print(f"grid m = {m}, minima found: {len(path.minima)}"
      f" (about one interior point in four)")
print("first few minima times:", np.round(path.minima[:6] / m, 4))

# Unit weight on (0, 1/2): the chaos value is a signed count of minima.
f = half_interval_profile()
print("chaos_eval(f)        =", chaos_eval(f, path, signs))
# Mass identity: with psi == 1 the per-path integrand is the norm
# contribution, with no sign dependence at all.
one = constant_evaluator(1.0)
print("integrand(psi=1)     =", per_path_integrand(one, f, path),
      "= number of minima below 1/2")

est = quad_form_C(one, f, samples=400, seed=11, m=m)
print(f"MC mass              = {est.mean:.2f} +- {est.stderr:.2f}"
      f" (exact mean {m / 8:.0f} in the large-m limit)")

# A sign-modulated profile: w(t) sgn(B_1 - B_{1/2}).  The matching
# endpoint probe strips the sign factor per path, exactly; that is the
# product structure of the half-interval splitting in action.
w = StepFunction.indicator(0.0, 0.5, 1.0)
f_ws = SuperchaosVector.sign_modulated(w, 0.5, 1.0)
psi = endpoint_sign_evaluator(0.5, 1.0)
f_stripped = apply_matched_sign_probe(f_ws)
lhs = chaos_eval_under_probe(f_ws, path, signs, psi)
rhs = chaos_eval(f_stripped, path, signs)
print("probe strips sign    =", lhs == rhs, f"(value {lhs})")

# The quadratic form of that probe on the sign-modulated vector has
# exactly zero mean: |f_k|^2 erases the profile sign while the probe
# sign is an independent increment of the path.
est = quad_form_C(psi, f_ws, samples=400, seed=13, m=m)
print(f"<C_psi> on WS vector = {est.mean:+.3f} +- {est.stderr:.3f} (mean 0)")
