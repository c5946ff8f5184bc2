"""Exponential vectors, units, and the plane of automorphisms.

Everything in this demo is exact algebra: inner products of spans of
exponential vectors reduce to finitely many evaluations of
exp(<f, g>), so the residuals printed below are pure roundoff.
"""

import cmath
import math

import numpy as np

from splitnoise import (
    apply_automorphism,
    ccr_phase_residual,
    exponential,
    relation_suite,
    rotation,
    shift,
    span_inner,
    unit,
)
from splitnoise.gaussian_algebra import StepFunction

# A unit vector u^{(a, zeta)} on horizon t: coefficient e^{a t} times the
# exponential of the constant function zeta on (0, t).
a, zeta, t = 0.1 + 0.3j, 0.8 - 0.2j, 1.5
u = unit(a, zeta, t)
print("||u||^2            =", span_inner(u, u).real)
print("expected           =", math.exp(2 * a.real * t + abs(zeta) ** 2 * t))

# Units factorize over a time split: the inner product at s + t is the
# product of the inner products at s and t.
v = unit(-0.2, 0.3 + 0.5j, t)
s_half = 0.6
lhs = span_inner(unit(a, zeta, t), v)
rhs = (span_inner(unit(a, zeta, s_half), unit(-0.2, 0.3 + 0.5j, s_half))
       * span_inner(unit(a, zeta, t - s_half), unit(-0.2, 0.3 + 0.5j, t - s_half)))
print("factorization gap  =", abs(lhs - rhs))

# Rotations substitute zeta -> U zeta with no extra factor; shifts add xi
# and pay an explicit multiplier.  Both preserve every inner product.
U = cmath.exp(2j * math.pi / 3)
rotated = apply_automorphism(rotation(U), u)
print("rotation unitarity =", abs(span_inner(rotated, rotated) - span_inner(u, u)))

shifted = apply_automorphism(shift(0.4 - 0.7j), u)
print("shift unitarity    =", abs(span_inner(shifted, shifted) - span_inner(u, u)))

# The two shift families satisfy the Weyl phase relation: swapping an
# imaginary shift past a real one costs exactly exp(2 i lam mu T).
w = u + exponential(StepFunction((0.0, 0.4, t), (0.2 + 0.1j, -0.5j)))
for lam, mu in ((1.3, -2.1), (0.7, 0.9), (2.5, 2.5)):
    print(f"phase residual lam={lam:+.1f} mu={mu:+.1f}:",
          ccr_phase_residual(lam, mu, w))

# The full relation suite: composition of rotations, rotation-conjugated
# shifts, additivity of imaginary shifts, inner-product preservation and
# the Weyl phase.
report = relation_suite(seed=1, trials=50)
for name, value in report.residuals.items():
    print(f"{name:22s} max residual {value:.2e}")
print("suite max          =", report.max_residual)
