"""
The question-mark homeomorphism and its two-sided extension
===========================================================

Evaluate ? and rho exactly as dyadic rationals, invert them, squeeze a
number between dyadic bounds from a continued-fraction prefix, and
watch the empirical tree distribution converge to rho.
"""

from sternbrocot import (
    ExtRat,
    TreeSpec,
    cf_from_rat,
    distribution_estimates,
    qmark,
    qmark_enclosure,
    qmark_inv,
    rho,
    rho_inv,
)

# ? maps [0,1] onto [0,1]; continued fractions in, binary out.  rho
# extends it to [0,inf] by rho(x) = ?(x)/2 below 1 and symmetry above.
for num, den in ((1, 3), (2, 5), (3, 5), (5, 2), (1, 1)):
    x = ExtRat(num, den)
    parts = [f"rho({x}) = {rho(x)}"]
    if num <= den:
        parts.append(f"?({x}) = {qmark(x)}")
    print(", ".join(parts))

# Both are bijections with exact inverses on dyadic rationals.
d = qmark(ExtRat(2, 5))
print(f"\n?^-1({d}) = {qmark_inv(d)}, rho^-1({rho(ExtRat(5, 2))}) = {rho_inv(rho(ExtRat(5, 2)))}")

# Reciprocals mirror around 1/2: rho(1/x) = 1 - rho(x).
x = ExtRat(7, 12)
print(f"rho({x}) + rho({x.reciprocal()}) = {rho(x) + rho(x.reciprocal())}")

# A continued-fraction prefix pins ? between two dyadics whose gap
# halves with every extra term.
terms = cf_from_rat(ExtRat(5, 13))
print(f"\ncf(5/13) = {terms}")
for n in range(1, len(terms) + 1):
    lo, hi = qmark_enclosure(terms[:n])
    print(f"  prefix {terms[:n]}: ?(x) in [{lo}, {hi}]")

# rho is the limit distribution of the tree rows: the share of the
# first k levels at or below x approaches rho(x) at rate 2^-k.  A
# golden-ratio convergent sits deep in the tree, so the error is
# visible until k passes its depth.
x = ExtRat(89, 144)
target = rho(x).as_fraction()
print(f"\nrho({x}) = {float(target):.10f}")
ests = distribution_estimates(TreeSpec("sb"), 16, [x])[0]
for k in (4, 8, 12, 16):
    est = ests[k - 1]
    print(f"  k={k:>2}: estimate {float(est):.10f}, error {abs(float(est - target)):.2e}")
