import math

import numpy as np
import pytest

from defectsum.core import (
    InverseSquarePoint,
    PlacedSingularity,
    SingularityConfig,
    validate_config,
)
from defectsum import partition
from defectsum.errors import RegionsTooClose
from defectsum.partition import (
    Ball,
    ComplementOfBall,
    EMPTY,
    HalfSpace,
    LatticePartition,
    UnionOfBalls,
    WHOLE,
    build_cutoff,
    build_family,
    measured_constants,
    partition_constants,
    region_distance,
    verify_cutoff,
)


# ---------------------------------------------------------------------------
# Regions


def test_region_distances():
    assert region_distance(Ball((0.0,), 1.0), Ball((3.0,), 1.0)) == 1.0
    assert region_distance(Ball((0.0, 0.0), 1.0),
                           ComplementOfBall((0.0, 0.0), 3.0)) == 2.0
    assert region_distance(ComplementOfBall((0.0,), 1.0),
                           ComplementOfBall((5.0,), 1.0)) == 0.0
    assert region_distance(EMPTY, Ball((0.0,), 1.0)) == math.inf
    assert region_distance(HalfSpace((1.0, 0.0), 1.0),
                           Ball((-2.0, 0.0), 0.5)) == pytest.approx(2.5)


# ---------------------------------------------------------------------------
# build_cutoff


def _ball_pair(n, eps=1.0, r1=1.0, r0=3.0):
    center = (0.0,) * n
    return (ComplementOfBall(center, r0), Ball(center, r1), eps)


def test_cutoff_plateau_and_vanishing():
    F0, F1, eps = _ball_pair(2)
    phi = build_cutoff(F0, F1, eps, 2)
    origin = np.zeros((1, 2))
    assert phi.value(origin)[0] == 1.0
    assert phi.value([[1.0, 0.0]])[0] == 1.0          # still on the plateau
    assert phi.value([[3.0, 0.0]])[0] == 0.0
    assert phi.value([[5.0, 0.0]])[0] == 0.0
    mid = phi.value([[1.25, 0.0]])[0]
    assert 0.0 < mid < 1.0


def test_cutoff_regions_too_close():
    with pytest.raises(RegionsTooClose):
        build_cutoff(ComplementOfBall((0.0,), 1.5), Ball((0.0,), 1.0), 1.0, 1)


def test_cutoff_values_within_unit_interval():
    phi = build_cutoff(*_ball_pair(3), 3)
    d = np.linspace(0.0, 4.0, 2000)
    pts = np.stack([d, np.zeros_like(d), np.zeros_like(d)], axis=1)
    v = phi.value(pts)
    assert v.min() >= 0.0
    assert v.max() <= 1.0 + 1e-12


def test_verify_cutoff_passes():
    phi = build_cutoff(*_ball_pair(2), 2)
    report = verify_cutoff(phi, check_scaling=False)
    assert report.passed
    assert report.bound_violation < 1e-8
    assert report.f0_max < 1e-8
    assert report.f1_deviation < 1e-8
    assert all(report.c_hat[k] > 0 for k in (1, 2))


def test_verify_constant_one():
    phi = build_cutoff(EMPTY, WHOLE, 1.0, 2)
    report = verify_cutoff(phi, check_scaling=False)
    assert report.passed
    assert report.c_hat[1] == 0.0
    assert report.c_hat[2] == 0.0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_scale_invariance_of_constants(n):
    # regions scale with eps, so eps^k * max|d^k phi| is scale free
    center = (0.0,) * n
    phi = build_cutoff(ComplementOfBall(center, 4.0), Ball(center, 2.0), 1.0, n)
    report = verify_cutoff(phi, check_scaling=True, scales=(0.1, 1.0, 10.0))
    assert report.passed
    for order, ratio in report.scale_stability["max_over_min"].items():
        assert ratio <= 1.05, (order, ratio)


def test_halfspace_cutoff():
    phi = build_cutoff(HalfSpace((-1.0, 0.0), -1.0), HalfSpace((1.0, 0.0), 2.0),
                       1.0, 2)
    assert phi.value([[3.0, 0.0]])[0] == 1.0
    assert phi.value([[2.0, 5.0]])[0] == 1.0
    assert phi.value([[1.0, 0.0]])[0] == 0.0
    assert phi.value([[0.0, 0.0]])[0] == 0.0


def test_union_of_balls_cutoff():
    F1 = UnionOfBalls((Ball((0.0, 0.0), 0.5), Ball((5.0, 0.0), 0.5)))
    F0 = ComplementOfBall((2.5, 0.0), 6.0)
    phi = build_cutoff(F0, F1, 1.0, 2)
    assert phi.value([[0.0, 0.0]])[0] == 1.0
    assert phi.value([[5.0, 0.0]])[0] == 1.0
    assert phi.value([[2.5, 0.0]])[0] == 0.0
    report = verify_cutoff(phi)
    assert report.passed
    assert report.c_hat[1] > 0


# One case per cutoff shape: (F0, F1, eps, n, half-width of the sample box
# about the origin).  The empty union is the zero function.
SHAPES = {
    "ball": (ComplementOfBall((0.0, 0.0, 0.0), 3.0), Ball((0.0, 0.0, 0.0), 1.0),
             1.0, 3, 4.0),
    "complement": (Ball((0.5, -0.5), 0.8), ComplementOfBall((0.5, -0.5), 2.0),
                   1.0, 2, 4.0),
    "halfspace": (HalfSpace((-1.0, 0.0), -1.0), HalfSpace((1.0, 0.0), 2.0),
                  1.0, 2, 4.0),
    "union": (ComplementOfBall((2.5, 0.0), 6.0),
              UnionOfBalls((Ball((0.0, 0.0), 0.5), Ball((5.0, 0.0), 0.5))), 1.0, 2, 7.0),
    "whole": (EMPTY, WHOLE, 1.0, 2, 4.0),
    "empty_union": (EMPTY, UnionOfBalls(()), 1.0, 2, 4.0),
}


def _inside(region, pts):
    if region is WHOLE:
        return np.ones(len(pts), dtype=bool)
    if region is EMPTY:
        return np.zeros(len(pts), dtype=bool)
    if isinstance(region, UnionOfBalls):
        return np.logical_or.reduce([_inside(b, pts) for b in region.balls]
                                    + [_inside(EMPTY, pts)])
    if isinstance(region, HalfSpace):
        return pts @ (np.asarray(region.normal) / math.hypot(*region.normal)) >= region.offset
    d = np.sqrt(((pts - np.asarray(region.center)) ** 2).sum(axis=1))
    return d <= region.radius if isinstance(region, Ball) else d >= region.radius


def _shape_points(name, count=4000):
    F0, F1, eps, n, half = SHAPES[name]
    rng = np.random.default_rng(sorted(SHAPES).index(name))
    return rng.uniform(-half, half, size=(count, n))


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shape_values_plateau_and_vanishing(name):
    F0, F1, eps, n, _ = SHAPES[name]
    phi = build_cutoff(F0, F1, eps, n)
    pts = _shape_points(name)
    v = phi.value(pts)
    assert v.min() >= 0.0 and v.max() <= 1.0 + 1e-12
    assert np.all(v[_inside(F1, pts)] == 1.0)
    assert np.all(v[_inside(F0, pts)] == 0.0)
    if name == "empty_union":
        assert np.all(v == 0.0)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shape_gradient_matches_central_difference(name):
    F0, F1, eps, n, _ = SHAPES[name]
    phi = build_cutoff(F0, F1, eps, n)
    pts = _shape_points(name)
    rng = np.random.default_rng(11)
    u = rng.standard_normal(pts.shape)
    u /= np.linalg.norm(u, axis=1)[:, None]
    h = eps * partition._FD_REL_STEP_1
    fd = (phi.value(pts + h * u) - phi.value(pts - h * u)) / (2.0 * h)
    got = (phi.gradient(pts) * u).sum(axis=1)
    # in two dimensions the cap fraction has square-root ends, so both
    # differences carry a few percent of quadrature-node noise
    scale = max(1.0, np.abs(fd).max())
    assert np.abs(got - fd).max() <= 0.05 * scale, np.abs(got - fd).max()


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_shape_verify_cutoff_passes(name):
    F0, F1, eps, n, _ = SHAPES[name]
    phi = build_cutoff(F0, F1, eps, n)
    report = verify_cutoff(phi)
    assert report.passed
    constants = measured_constants(phi)
    if name == "empty_union":
        assert constants == {0: 0.0, 1: 0.0, 2: 0.0}
        assert phi.support_radius == 0.0
    else:
        assert constants[0] == 1.0


# ---------------------------------------------------------------------------
# Families


def _two_point_config(n=3, dist=3.0, delta=1.0):
    return SingularityConfig(n, (
        PlacedSingularity((0.0,) * n, InverseSquarePoint(0.0, delta)),
        PlacedSingularity((dist,) + (0.0,) * (n - 1), InverseSquarePoint(1.0, delta)),
    ))


def test_family_supports_disjoint():
    validated = validate_config(_two_point_config())
    family = build_family(validated)
    assert family.min_support_gap > 0
    assert family.min_tilde_gap > 0


def test_family_gap_at_unit_scale():
    # two near-point singularities at distance 3 with family scale 1:
    # supports stay in the eps/2 neighborhoods, so the gap beats 2 - eps
    eps = 1.0
    validated = validate_config(_two_point_config(dist=3.0, delta=0.05))
    family = build_family(validated, scale=eps)
    for m in family.members:
        assert m.support_radius <= 0.05 + eps / 2.0
    assert family.min_support_gap >= 2.0 - eps


def test_family_single_member_trivial():
    cfg = SingularityConfig(3, (
        PlacedSingularity((0.0, 0.0, 0.0), InverseSquarePoint(0.0, 1.0)),))
    family = build_family(validate_config(cfg))
    assert len(family.members) == 1
    assert family.min_support_gap == math.inf


def test_family_product_identity():
    validated = validate_config(_two_point_config())
    family = build_family(validated)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2.0, 5.0, size=(10_000, 3))
    for member in family.members:
        phi = member.phi.value(pts)
        phit = member.phi_tilde.value(pts)
        assert np.abs(phit * phi - phi).max() < 1e-10


def test_family_plateau_covers_singular_ball():
    validated = validate_config(_two_point_config())
    family = build_family(validated)
    member = family.members[0]
    eps = family.epsilon
    # phi = 1 on the eps/4 neighborhood of the support ball
    d = np.linspace(0.0, 1.0 + eps / 4.0, 200)
    pts = np.stack([d, np.zeros_like(d), np.zeros_like(d)], axis=1)
    pts += np.asarray(member.position)
    assert np.abs(member.phi.value(pts) - 1.0).max() == 0.0


def test_family_sum_bounded_by_one():
    validated = validate_config(_two_point_config())
    family = build_family(validated)
    rng = np.random.default_rng(6)
    pts = rng.uniform(-3.0, 6.0, size=(5_000, 3))
    assert family.sum_values(pts).max() <= 1.0 + 1e-12


def test_partition_constants_scale():
    validated = validate_config(_two_point_config())
    family = build_family(validated)
    e, alpha, beta = partition_constants(family)
    assert beta == pytest.approx(4.0 * e)
    assert e > 0 and alpha > 0

    # halving all lengths doubles sqrt(e) (within measurement tolerance)
    half = SingularityConfig(3, tuple(
        PlacedSingularity(tuple(0.5 * x for x in s.position),
                          InverseSquarePoint(s.spec.coupling, s.spec.delta * 0.5))
        for s in _two_point_config().singularities))
    e2, _, _ = partition_constants(build_family(validate_config(half)))
    assert math.sqrt(e2) == pytest.approx(2.0 * math.sqrt(e), rel=0.05)


# ---------------------------------------------------------------------------
# Lattice partition


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_partition_sum_of_squares(n):
    lp = LatticePartition(n)
    rng = np.random.default_rng(n)
    pts = rng.uniform(0.0, lp.spacing, size=(200, n))
    for p in pts:
        assert abs(lp.sum_of_squares(p) - 1.0) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_partition_unnormalized_lower_bound(n):
    lp = LatticePartition(n)
    grid = np.linspace(0.0, lp.spacing, 9)
    mesh = np.meshgrid(*([grid] * n), indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    for p in pts:
        assert lp.unnormalized_sq_sum(p) >= 0.5


def test_lattice_partition_cross_term_cancels():
    lp = LatticePartition(2)
    rng = np.random.default_rng(9)
    for p in rng.uniform(0.0, 1.0, size=(100, 2)):
        assert np.abs(lp.cross_term(p)).max() < 1e-10


def test_lattice_partition_locally_finite():
    lp = LatticePartition(2)
    sites = lp.sites_near((0.0, 0.0))
    assert len(sites) <= 9
    d = np.sqrt((sites**2).sum(axis=1))
    assert d.max() < 1.0 + 1e-3


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lattice_partition_gradients_match_central_difference(n):
    # d/dx_k of each normalized member, against a central difference of the
    # normalized values at a step above the profile's quadrature-node scale
    lp = LatticePartition(n)
    rng = np.random.default_rng(40 + n)
    h = 2e-4
    worst = scale = 0.0
    for x in rng.uniform(0.0, lp.spacing, size=(100, n)):
        sites, _, grads = lp.values_and_grads(x)
        for k in range(n):
            step = np.zeros(n)
            step[k] = h
            sides = []
            for y in (x + step, x - step):
                s, vals, _ = lp.values_and_grads(y)
                lookup = {tuple(np.round(p, 9)): v for p, v in zip(s, vals)}
                sides.append(np.array([lookup.get(tuple(np.round(p, 9)), 0.0)
                                       for p in sites]))
            fd = (sides[0] - sides[1]) / (2.0 * h)
            worst = max(worst, float(np.abs(grads[:, k] - fd).max()))
            scale = max(scale, float(np.abs(fd).max()))
    assert worst <= 0.02 * scale, (worst, scale)
