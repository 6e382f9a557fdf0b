# Efficiency classification on lattice problems, two ways.
#
# classify_point scans the lattice for order-dominating witnesses.
# weff_via_distance answers the weak question through the oriented
# distance of the image differences instead; the two agree everywhere.

from wellposed import YES, classify_point, registry, weff_via_distance

entry = registry.get("x-minus-x")
problem = entry.build()
print(f"problem {problem.label}: f(x) = (x, -x) on [-1, 1], orthant order")
print("the image is an antichain, so every point is efficient:\n")

for x in (-1.0, -0.25, 0.0, 0.5, 1.0):
    v = classify_point(problem, [x], registry.RESOLUTION)
    by_distance = weff_via_distance(problem, [x], registry.RESOLUTION)
    agree = by_distance == (v.weakly_efficient == YES)
    print(f"  x = {x:+.2f}: efficient={v.efficient:<3} weak={v.weakly_efficient:<3} "
          f"distance route weak={by_distance}  agree={agree}")

entry = registry.get("biquad")
problem = entry.build()
print(f"\nproblem {problem.label}: f(x) = (x^4, (x-1)^4) on [-1, 1]")
print("the efficient set is the whole segment [0, 1]:\n")
for x in (-0.5, 0.0, 0.3, 1.0):
    v = classify_point(problem, [x], registry.RESOLUTION)
    tag = "efficient" if v.efficient == YES else "dominated"
    w = v.witnesses.get("efficient")
    if w is not None:
        tag += f", witness x={w['x'][0]:+.3f}"
    print(f"  x = {x:+.2f}: {tag}")
