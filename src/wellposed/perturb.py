"""Regularization constructions: norm-cone perturbations that restore
well-posedness, the discrete Ekeland step they rely on, the end-to-end
approximation pipeline, and the genericity probe built on top of it.

The pipeline's output is a certificate: every constant in it is
recomputable from the inputs and seed, and final verification failures
raise instead of silently returning.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

import numpy as np

from ._rows import row_norm
from .analysis import BoundingSearch, find_bounding_functional, is_C_convex
from .diagnostics import (
    NO,
    WELL_POSED,
    YES,
    WellPosednessReport,
    classify_point,
    dh_diagnostic,
    geometric_schedule,
    tykhonov_diagnostic,
)
from .errors import (
    CertificateFailure,
    HypothesisNotMet,
    InputError,
    NoBoundingFunctional,
)
from .problem import (
    METRIC_TAIL,
    METRIC_TRUNCATION,
    ScalarProblem,
    VectorProblem,
    finite_values,
    function_distance,
    lattice_values,
    perturb,
    scalarize_linear,
)

J_CAP = 2 ** 30
EKELAND_TOL = 1e-9
# schedule depth of the DH and Tykhonov checks run on the constructed problems
CERT_DEPTH = 20


# ---------------------------------------------------------------------------
# Tikhonov-type regularization


@dataclass(frozen=True)
class TikhonovCertificate:
    """Recorded facts about one regularization f + (1/n)||x - x_bar|| k0."""

    n: int
    efficient_at_center: str
    strictly_efficient_at_center: str
    strict_not_no: bool
    dh_verdict: str
    metric_value: float
    metric_tail: float
    classify: object
    dh_report: WellPosednessReport


def tikhonov_regularize(problem: VectorProblem, x_bar, n, grid_resolution=201):
    """Perturb by (1/n)||x - x_bar|| k0 and certify what the construction keeps.

    Requires x_bar to classify efficient (evidence) for the base problem.
    Returns (perturbed problem, certificate); the certificate records the
    efficiency and DH verdicts at x_bar for the perturbed problem and the
    metric distance to the original.
    """
    if not np.isfinite(n) or int(n) != n or n < 1:
        raise InputError("n must be a positive integer")
    n = int(n)
    x_bar = np.asarray(x_bar, dtype=float).reshape(-1)
    base_verdict = classify_point(problem, x_bar, grid_resolution)
    if base_verdict.efficient != YES:
        raise HypothesisNotMet(
            f"x_bar must classify efficient for {problem.label}; got {base_verdict.efficient}")

    perturbed = replace(perturb(problem, 1.0 / n, x_bar, problem.cone.k0),
                        label=f"{problem.label}+tik{n}")

    verdict = classify_point(perturbed, x_bar, grid_resolution)
    report = dh_diagnostic(perturbed, x_bar, alpha_schedule=geometric_schedule(CERT_DEPTH),
                           grid_resolution=grid_resolution, require_efficient=False)
    dist = function_distance(problem, perturbed)
    cert = TikhonovCertificate(
        n=n,
        efficient_at_center=verdict.efficient,
        strictly_efficient_at_center=verdict.strictly_efficient,
        strict_not_no=(not problem.continuous) or (verdict.strictly_efficient != NO),
        dh_verdict=report.verdict,
        metric_value=dist,
        metric_tail=METRIC_TAIL,
        classify=verdict,
        dh_report=report,
    )
    return perturbed, cert


# ---------------------------------------------------------------------------
# discrete Ekeland step


@dataclass(frozen=True)
class EkelandResult:
    """Fixed point of the lattice descent x -> argmin sp + eps*||. - x||.

    The three certified facts: the point stayed within r of the start, the
    descent inequality holds against the start, and x_hat is the unique
    lattice minimizer of sp + eps*||. - x_hat|| (minimal margin recorded).
    """

    x_hat: np.ndarray
    x_start: np.ndarray
    value: float
    epsilon: float
    r: float
    iterations: int
    distance_to_start: float
    within_radius: bool
    descent_holds: bool
    descent_slack: float
    min_margin: float
    unique_minimizer: bool
    grid_resolution: int


def ekeland_point(sp: ScalarProblem, x_start, epsilon, r, grid_resolution=201,
                  *, values=None) -> EkelandResult:
    """Iterate the discrete variational descent to its fixed point.

    The start is snapped to the nearest lattice point; the hypothesis
    sp(start) < inf + r*epsilon is checked there.  Ties in the argmin
    resolve lexicographically, which forces strict objective descent and
    hence termination.  Each step streams the lattice (Box.map_lattice).
    A caller that already holds sp's lattice values in C order passes
    them as `values`, and the lattice is not evaluated again; a non-finite
    value, given or evaluated, raises InputError.  The descent and
    uniqueness checks allow a slack of EKELAND_TOL.
    """
    for name, value in (("epsilon", epsilon), ("r", r)):
        if not 0 < value < np.inf:
            raise InputError(f"{name} must be positive and finite, got {value}")
    box, total = sp.domain, sp.domain.lattice_size(grid_resolution)
    if values is None:
        values = lattice_values(sp, grid_resolution)
    elif np.shape(values) != (total,):
        raise InputError(f"values must hold one value per lattice point ({total})")
    else:
        finite_values(values)

    x0, flat0 = box.nearest_lattice_point(grid_resolution, x_start)
    inf = float(values.min())
    if not values[flat0] < inf + r * epsilon:
        raise HypothesisNotMet(
            f"start value {values[flat0]:.6g} is not below inf + r*eps = {inf + r * epsilon:.6g}")

    cur = flat0
    iterations = 0
    while True:
        x_hat = box.lattice_points_at(grid_resolution, [cur])[0]
        weights = values + epsilon * box.map_lattice(grid_resolution,
                                                     lambda p: row_norm(p - x_hat))
        nxt = int(np.argmin(weights))  # first minimum = lexicographically smallest
        if nxt == cur:
            break
        cur = nxt
        iterations += 1
        if iterations > total:
            raise CertificateFailure("descent failed to terminate", clause="termination")

    dist_start = float(np.linalg.norm(x_hat - x0))
    final = weights - values[cur]  # the fixed point's weights, from the last step
    final[cur] = np.inf
    min_margin = float(final.min())
    descent_slack = float(values[flat0] - epsilon * dist_start - values[cur])
    spacing = box.lattice_spacing(grid_resolution)
    return EkelandResult(
        x_hat=x_hat, x_start=x0, value=float(values[cur]), epsilon=float(epsilon),
        r=float(r), iterations=iterations, distance_to_start=dist_start,
        within_radius=bool(dist_start < r + spacing),
        descent_holds=bool(descent_slack >= -EKELAND_TOL),
        descent_slack=descent_slack,
        min_margin=min_margin,
        unique_minimizer=bool(min_margin > EKELAND_TOL),
        grid_resolution=grid_resolution,
    )


# ---------------------------------------------------------------------------
# density pipeline


@dataclass(frozen=True)
class PipelineCertificate:
    """End-to-end record of one approximation h with d(f, h) < sigma.

    Carries both intermediate problems, all constants, the Ekeland result,
    and the verification verdicts; construction raises CertificateFailure
    rather than returning an unverified certificate.
    """

    label: str
    sigma: float
    xi_bar: np.ndarray
    k0_rescaled: np.ndarray
    j: int
    sublevel_radius: float
    series_value: float
    series_tail: float
    epsilon: float
    r: float
    x_hat: np.ndarray
    x_hat_to_anchor: float
    d_f_g: float
    d_g_h: float
    d_f_h: float
    metric_tail: float
    ekeland: EkelandResult
    efficient_at_x_hat: str
    dh_verdict: str
    g: VectorProblem
    h: VectorProblem
    dh_report: WellPosednessReport
    bounding_scan: BoundingSearch


def _smallest_feasible_j(problem, sigma, anchor, k0r):
    """Doubling-then-bisection search for the least j with d(f, g_j) < sigma/2."""

    def build(j):
        return replace(perturb(problem, 1.0 / j, anchor, k0r), label=f"{problem.label}+base")

    @cache  # the answer is always a j already probed
    def dist(j):
        return function_distance(problem, build(j))

    j = 1
    while dist(j) >= sigma / 2.0:
        j *= 2
        if j > J_CAP:
            raise CertificateFailure(
                f"no j <= {J_CAP} brings the perturbation within sigma/2; "
                "sigma is too small for the domain scale", clause="j-doubling-cap")
    lo, hi = j // 2 + 1, j
    while lo < hi:
        mid = (lo + hi) // 2
        if dist(mid) < sigma / 2.0:
            hi = mid
        else:
            lo = mid + 1
    return hi, build(hi), dist(hi)


def density_pipeline(problem: VectorProblem, sigma, grid_resolution=201, seed=0):
    """Construct a nearby problem that is provably well behaved at one point.

    Steps: find a bounding functional, rescale k0 against it, pull the
    norm-cone base perturbation inside sigma/2, run the discrete Ekeland
    step on the linear scalarization and check the facts it records, add the
    Ekeland cone term, and verify efficiency, DH evidence, and all metric
    budgets.
    """
    if not 0 < sigma < np.inf:
        raise InputError(f"sigma must be positive and finite, got {sigma}")
    anchor = problem.domain.center

    search = find_bounding_functional(problem, seed=seed)
    if search.xi is None:
        raise NoBoundingFunctional(
            f"no bounding functional found for {problem.label} "
            f"({len(search.scanned)} candidates scanned)", scanned=search.scanned)
    xi_bar = search.xi
    # xi_bar is a base vertex or a convex combination of them, so
    # <k0, xi_bar> is 1 up to rounding
    k0r = problem.cone.k0 / float(problem.cone.k0 @ xi_bar)

    j, g, d_f_g = _smallest_feasible_j(problem, float(sigma), anchor, k0r)

    g_xi = scalarize_linear(g, xi_bar)
    box = g_xi.domain
    values = lattice_values(g_xi, grid_resolution)
    argmin_flat = int(values.argmin())
    near = box.lattice_points_at(grid_resolution,
                                 np.flatnonzero(values <= values[argmin_flat] + 1.0))
    radius = float(row_norm(near - anchor[None, :]).max())

    k0r_norm = float(np.linalg.norm(k0r))
    ks = np.arange(0, METRIC_TRUNCATION + 1, dtype=float)
    series = float(np.sum(2.0 ** (-ks) * (ks + radius)) * k0r_norm)
    tail = float(METRIC_TAIL * (METRIC_TRUNCATION + 2 + radius) * k0r_norm)
    epsilon = float(sigma) / (2.0 * series)

    spacing = problem.domain.lattice_spacing(grid_resolution)
    r = max(2.0 * radius, 2.0 * spacing)
    start_point = box.lattice_points_at(grid_resolution, [argmin_flat])[0]
    ek = ekeland_point(g_xi, start_point, epsilon, r, grid_resolution, values=values)
    for fact in ("within_radius", "descent_holds", "unique_minimizer"):
        if not getattr(ek, fact):
            raise CertificateFailure(f"the Ekeland point fails {fact}", clause="ekeland")

    h = replace(perturb(g, epsilon, ek.x_hat, k0r), label=f"{problem.label}+cert")

    anchor_dist = float(np.linalg.norm(ek.x_hat - anchor))
    if anchor_dist > radius + spacing:
        raise CertificateFailure(
            f"x_hat strayed {anchor_dist:.6g} from the anchor, beyond M + spacing",
            clause="center-radius")
    verdict = classify_point(h, ek.x_hat, grid_resolution)
    if verdict.efficient != YES:
        raise CertificateFailure(
            f"x_hat failed the efficiency check ({verdict.efficient})", clause="efficiency")
    report = dh_diagnostic(h, ek.x_hat, alpha_schedule=geometric_schedule(CERT_DEPTH),
                           grid_resolution=grid_resolution, require_efficient=False)
    if report.verdict != WELL_POSED:
        raise CertificateFailure(
            f"DH diagnostic returned {report.verdict} at x_hat", clause="dh-evidence")

    d_g_h = function_distance(g, h)
    d_f_h = function_distance(problem, h)
    if not d_f_h < sigma:
        raise CertificateFailure(
            f"d(f, h) = {d_f_h:.6g} is not below sigma = {sigma}", clause="metric-budget")
    if d_g_h > sigma / 2.0 + tail:
        raise CertificateFailure(
            f"d(g, h) = {d_g_h:.6g} exceeds sigma/2 + tail", clause="metric-budget")
    if d_f_h > d_f_g + d_g_h + 2.0 * METRIC_TAIL:
        raise CertificateFailure("metric triangle budget violated", clause="metric-budget")

    cert = PipelineCertificate(
        label=problem.label, sigma=float(sigma), xi_bar=xi_bar, k0_rescaled=k0r,
        j=j, sublevel_radius=radius, series_value=series, series_tail=tail,
        epsilon=epsilon, r=r, x_hat=ek.x_hat, x_hat_to_anchor=anchor_dist,
        d_f_g=d_f_g, d_g_h=d_g_h, d_f_h=d_f_h, metric_tail=METRIC_TAIL,
        ekeland=ek, efficient_at_x_hat=verdict.efficient, dh_verdict=report.verdict,
        g=g, h=h, dh_report=report, bounding_scan=search,
    )
    return h, cert


# ---------------------------------------------------------------------------
# genericity probe


@dataclass(frozen=True)
class ProbeMember:
    label: str
    status: str
    detail: str
    membership_levels: np.ndarray | None
    certificate: PipelineCertificate | None = None


@dataclass(frozen=True)
class ProbeReport:
    """Per-member pipeline results plus the constructive density fraction.

    success_fraction is None for an empty family (not applicable)."""

    members: tuple
    n_max: int
    sigma: float
    success_fraction: float | None


def genericity_probe(problems, sigma, n_max=8, grid_resolution=201, seed=0) -> ProbeReport:
    """Run the pipeline across a family and test shrinking-diameter membership.

    For each certified member, checks that for every n <= n_max some level
    above the scalarized infimum has diameter below 1/n; the fraction of
    members passing both stages is the report's headline number.
    """
    if n_max < 1:
        raise InputError("n_max must be >= 1")
    if not 0 < sigma < np.inf:
        raise InputError(f"sigma must be positive and finite, got {sigma}")
    members = []
    certified = 0
    for k, p in enumerate(problems):
        screen = is_C_convex(p, seed=seed + k)
        if screen.verdict != "evidence_holds":
            members.append(ProbeMember(p.label, "skipped", "cone-convexity counterexample", None))
            continue
        try:
            h, cert = density_pipeline(p, sigma, grid_resolution=grid_resolution,
                                       seed=seed + k)
        except NoBoundingFunctional as exc:
            members.append(ProbeMember(p.label, "refused", str(exc), None))
            continue
        except CertificateFailure as exc:
            members.append(ProbeMember(p.label, "failed", f"{exc.clause}: {exc}", None))
            continue
        s = scalarize_linear(h, cert.xi_bar)
        report = tykhonov_diagnostic(s, level_schedule=geometric_schedule(CERT_DEPTH),
                                     grid_resolution=grid_resolution)
        diams = report.diam_curve[:, 0]
        levels = np.empty(n_max)
        ok = True
        for n in range(1, n_max + 1):
            hit = np.flatnonzero(diams < 1.0 / n)
            if hit.size == 0:
                ok = False
                levels[n - 1] = np.nan
            else:
                levels[n - 1] = report.schedule[hit[0]]
        if ok:
            certified += 1
            members.append(ProbeMember(p.label, "certified", "", levels, cert))
        else:
            members.append(ProbeMember(p.label, "diameter-stuck",
                                       "no level with diameter below 1/n", levels, cert))
    fraction = certified / len(members) if members else None
    return ProbeReport(tuple(members), int(n_max), float(sigma), fraction)
