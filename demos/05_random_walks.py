"""
Tree random walks: exact probabilities, hitting times, determinism
==================================================================

Simulate the mediant random walks, read off exact path probabilities,
time the first entry into an interval, and confirm that the
counter-based generator makes results identical for any worker count.
"""

from sternbrocot import (
    ONE,
    ChainSpec,
    ExtRat,
    cylinder_prob,
    hitting_experiment,
    martingale_check,
    rho,
    simulate,
    walk_table,
)

# A walk is a sequence of left/right letters.  The path probability is
# an exact Fraction, and forcing the letters reproduces any cylinder.
spec = ChainSpec("MC1", start=ONE, horizon=3, seed=0)
path = simulate(spec, letters=(1, 0, 1))
print("forced path:", " -> ".join(str(s) for s in path.states), f"(prob {path.prob})")
print("cylinder formula agrees:", path.prob == cylinder_prob("MC1", ONE, (1, 0, 1)))

# Seeded walks are reproducible one by one.
spec = ChainSpec("MC0", start=ONE, horizon=6, seed=42)
for w in (0, 1):
    p = simulate(spec, walk=w)
    print(f"walk {w}: letters {''.join(map(str, p.letters))} ->", p.states[-1])

# Flipping every letter mirrors the start through x -> 1/x.
w = (1, 1, 0, 1)
flipped = tuple(1 - b for b in w)
x = ExtRat(2, 5)
print("\nreciprocal cylinder symmetry:",
      cylinder_prob("MC1", x, w) == cylinder_prob("MC1", x.reciprocal(), flipped))

# Batch tables are byte-identical for any workers value: each walk's
# randomness is keyed by (seed, walk index) alone, and all walks run as
# lanes of one batched kernel (workers starts no threads).
t1 = walk_table("MC0", ONE, walks=2000, horizon=24, seed=7, workers=1)
t8 = walk_table("MC0", ONE, walks=2000, horizon=24, seed=7, workers=8)
print("2000 walks, workers 1 vs 8 identical:", t1 == t8)

# The uniform walk from 1 enters (2/5, 3/5) almost surely; the hitting
# curve is the cumulative fraction of walks that have arrived by step t.
res = hitting_experiment((ExtRat(2, 5), ExtRat(3, 5)), walks=2000, horizon=100, seed=7)
marks = {t: float(res.curve[t]) for t in (5, 10, 20, 50, 100)}
print("\nhitting (2/5, 3/5):", ", ".join(f"t={t}: {v:.3f}" for t, v in marks.items()))
print("final fraction:", res.fraction)

# Martingale diagnostic: (rho + affine shift) is exactly invariant in
# one step under MC0 with affine = (1/2, 1/4), and the empirical
# deviation over 500 walks stays within a few standard errors.
rep = martingale_check("MC0", lambda y: rho(y).as_fraction(), walks=500,
                       horizon=64, seed=7, affine=(0.5, 0.25))
print(f"\nMC0 one-step residual: {rep.max_residual}, "
      f"empirical deviation {rep.max_deviation:.4f} (se {rep.deviation_se:.4f})")
