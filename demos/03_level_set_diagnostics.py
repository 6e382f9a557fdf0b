"""Well-posedness by watching level-set diameters shrink.

A minimizing problem behaves well when the set of near-solutions collapses
onto the solution as the tolerance goes to zero. On a lattice we can only
observe the collapse down to the cell size, so verdicts compare the final
diameter against tol_abs + 2 * spacing and ask for real decay on top.
"""

import numpy as np

from wellposed import (
    dh_diagnostic,
    geometric_schedule,
    registry,
    scalarize_linear,
    tykhonov_diagnostic,
)


def show_curve(report, keep=6):
    levels = report.schedule
    diams = report.diam_curve.max(axis=1)
    idx = np.linspace(0, len(levels) - 1, keep).astype(int)
    for i in idx:
        print(f"    eps = {levels[i]:<12.3e} diam = {diams[i]:.6f}")
    print(f"    verdict: {report.verdict} "
          f"(threshold {report.tol_abs + 2 * report.lattice_spacing:.4f})")


entry = registry.get("quad-pair")
problem = entry.build()
sp = scalarize_linear(problem, [1.0, 1.0])
print("scalar route, f(x) = 2 x^2 on [-1, 1]:")
rep = tykhonov_diagnostic(sp, level_schedule=geometric_schedule(20), grid_resolution=201)
show_curve(rep)

print("\nvector route at x=0 (level sets of the cone order around f(0)):")
rep = dh_diagnostic(problem, [0.0], alpha_schedule=geometric_schedule(20),
                    grid_resolution=201)
show_curve(rep)

# the flat problem never collapses: every point is a minimizer
entry = registry.get("zero-function")
print("\nf(x) = (0, 0) on [-1, 1], every point minimal:")
rep = dh_diagnostic(entry.build(), entry.designated,
                    alpha_schedule=geometric_schedule(entry.dh_depth),
                    grid_resolution=registry.RESOLUTION)
show_curve(rep, keep=3)
