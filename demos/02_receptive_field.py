"""One receptive field end to end: clumping, trails, similarity, activation.

Shows the per-step similarity stream for aligned, delayed, and unrelated
series, and why the evaporation rate decides how sensitive the field is to
timing differences.
"""

import numpy as np

from citytrails.series import generate_archetype
from citytrails.srf import SrfParams, activate, clump, pair_similarity

params = SrfParams.defaults()
rise = generate_archetype("Rise", 96).samples

print("== clumping pushes samples onto the three activity plateaus ==")
for x in (0.05, 0.3, 0.5, 0.7, 0.95):
    print(f"  clump({x:.2f}) = {float(clump(x, params)):.3f}")
print()

print("== activation sharpens raw similarities ==")
for raw in (0.1, 0.4, 0.5, 0.6, 0.9):
    print(f"  activate({raw:.1f}) = {float(activate(raw, params)):.4f}")
print()

print("== pair similarity: aligned, delayed, different ==")
flow = generate_archetype("Flow", 96).samples
for label, other in (("rise vs itself", rise),
                     ("rise vs rise delayed 4 steps", np.roll(rise, 4)),
                     ("rise vs rise delayed 12 steps", np.roll(rise, 12)),
                     ("rise vs flow", flow)):
    mean = pair_similarity(rise, other, params)[0]
    print(f"  {label:30s} mean similarity {mean:.3f}")
print()

print("== evaporation controls the memory of the comparison ==")
for delta in (0.02, 0.1, 0.4, 0.8):
    p = SrfParams(30, 1 / 3, 30, 2 / 3, epsilon=0.2, delta=delta,
                  alpha_a=20, beta_a=0.5)
    aligned = pair_similarity(rise, rise, p)[0]
    delayed = pair_similarity(rise, np.roll(rise, 8), p)[0]
    print(f"  delta {delta:.2f}: aligned {aligned:.3f}, "
          f"8-step delay {delayed:.3f}, gap {aligned - delayed:+.3f}")
print("long-memory trails (low delta) blur timing differences away;")
print("fast evaporation makes the comparison strictly local and delay-sensitive")
