"""Ordering cones and the oriented distance.

The oriented distance to -C is the workhorse scalar: negative inside -C,
zero on the boundary, positive outside, and 1-Lipschitz everywhere. This
script builds a couple of cones and walks through the values.
"""

import numpy as np

from wellposed import OrderingCone, orthant, oriented_distance, oriented_distance_sampled

quad = orthant(2)
print("orthant(2):")
print("  generators      ", quad.generators.tolist())
print("  dual generators ", quad.dual_generators.tolist())
print("  k0 (interior)   ", np.round(quad.k0, 4).tolist())

for y in ([-1.0, -1.0], [-1.0, 0.0], [1.0, 1.0], [2.0, -5.0]):
    r = oriented_distance(quad, y)
    where = "inside -C" if r.value < 0 else ("boundary" if r.value == 0 else "outside")
    print(f"  D(-C)({y}) = {r.value:+.6f}  ({where}), nearest point {np.round(r.nearest_point, 4).tolist()}")

# a skewed cone: same machinery, different facet normals
skew = OrderingCone(2, [[1.0, 0.0], [1.0, 1.0]])
print("\nskew cone generated by (1,0) and (1,1):")
print("  dual generators ", np.round(skew.dual_generators, 6).tolist())
y = [0.5, -2.0]
r = oriented_distance(skew, y)
print(f"  D(-C)({y}) = {r.value:+.6f}")

# the sampled form maxes <xi, y> over unit dual directions; it can only
# undershoot, and it touches the exact value whenever the maximizing
# direction is in the sample
dirs = skew.sample_dual_sphere(2000)
s = oriented_distance_sampled(skew, y, dirs)
print(f"  sampled over {len(dirs)} dual directions = {s:+.6f} (gap {r.value - s:.2e})")
