"""The three-fold sign-sum constant, two independent discretizations.

The zero-sum triple places three scaled coordinates at mutual 120
degrees.  The extreme eigenvalues of sgn P + sgn Q + sgn R converge to
about -+1.2561; the sum of the positive spectral projections
(3 + sgn-sum)/2 therefore converges to about 2.128, the reported
constant, strictly below 3.

Because the sign function of a truncation is not the truncation of the
sign function, the constant is computed in two unrelated ways (number
basis vs position grid with spectral differentiation); their agreement
is the convergence certificate.  Every grid object uses one window, the
balanced half width sqrt(pi N / 2).

For every angle alpha in (pi/2, pi) the continuum sum
sgn Q + sgn(Q cos alpha + P sin alpha) + sgn(Q cos alpha - P sin alpha)
is unitarily equivalent to the symmetric triple's (the metaplectic
representation; Folland, Harmonic Analysis in Phase Space, ch. 4), so
the angle sweep below converges to the same constant; only the
truncations differ from angle to angle.  At alpha = pi the value is 1.
"""

import math

from splitnoise import convergence_study, lemma23_value
from splitnoise.ccr_matrix import write_norm_study_csv

rows = convergence_study(("oscillator", "grid"), [64, 128, 256, 512])
print(f"{'scheme':12s} {'N':>5s} {'value':>12s} {'delta':>11s} {'seconds':>8s}")
for r in rows:
    d = "" if r.delta is None else f"{r.delta:+.2e}"
    print(f"{r.scheme:12s} {r.n:5d} {r.value:12.8f} {d:>11s} {r.seconds:8.2f}")

top = {r.scheme: r.value for r in rows if r.n == 512}
print("\ncross-scheme gap at N=512:",
      abs(top["oscillator"] - top["grid"]))

# the spectrum is exactly parity-symmetric: its edge is -+ this value
hi = lemma23_value(2 * math.pi / 3, 0.5, 512)
print("raw sign-sum spectrum edge:", -hi, hi)
print("projection normalization  :", (3.0 + hi) / 2.0)

# The same norm through rotated coordinate pairs: the value is angle-
# independent in the continuum (a symplectic map moves any three rays
# that positively span the plane onto any other three), and collapses to
# 1 at the degenerate angle pi.
print("\nangle sweep at N=256 (raw sign-sum norm):")
for alpha in (1.8, 2 * math.pi / 3, 2.4, 2.9, math.pi):
    print(f"  alpha={alpha:8.5f}  value={lemma23_value(alpha, 0.5, 256):.6f}")

write_norm_study_csv(rows, "norm_study.csv")
print("\nwrote norm_study.csv")
