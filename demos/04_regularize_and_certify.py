# Repairing an ill-posed problem, then certifying a nearby well-posed one.
#
# Step one: the flat problem keeps its minimizer after adding a norm-cone
# term, and the perturbation is small in the bounded-sup metric.
# Step two: the full pipeline takes any problem with a bounding functional
# and hands back a perturbed problem h with d(f, h) < sigma plus evidence
# that h is well posed at its Ekeland point. Problems that are unbounded
# in the ordering direction are refused, with the refusal naming why.

from wellposed import NoBoundingFunctional, density_pipeline, registry, tikhonov_regularize

entry = registry.get("zero-function")
problem = entry.build()
print(f"{problem.label}: identically zero, not well posed (nothing collapses)")
for n in (1, 2, 4):
    reg, cert = tikhonov_regularize(problem, [0.0], n)
    print(f"  + (1/{n})|x - 0| k0: d(f, f_n) = {cert.metric_value:.7f}, "
          f"efficient at 0: {cert.efficient_at_center}, verdict: {cert.dh_verdict}")

print()
entry = registry.get("x-x2")
problem = entry.build()
for sigma in (0.5, 0.1):
    perturbed, cert = density_pipeline(problem, sigma, grid_resolution=registry.RESOLUTION)
    print(f"{problem.label} with budget sigma = {sigma}:")
    print(f"  bounding functional xi = {cert.xi_bar.tolist()}")
    print(f"  epsilon = {cert.epsilon:.6f}, Ekeland point x_hat = {cert.x_hat.tolist()}")
    print(f"  d(f,g) = {cert.d_f_g:.6f} < sigma/2, "
          f"d(g,h) = {cert.d_g_h:.6f}, d(f,h) = {cert.d_f_h:.6f} < sigma")
    print(f"  well-posedness at x_hat: {cert.dh_verdict}")

print()
entry = registry.get("x-minus-xex")
problem = entry.build()
try:
    density_pipeline(problem, 0.5, grid_resolution=registry.RESOLUTION)
except NoBoundingFunctional as e:
    print(f"{problem.label}: refused -> {e}")
