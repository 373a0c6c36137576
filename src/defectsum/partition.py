"""Smooth cutoff functions, disjoint cutoff families, and lattice
partitions of unity, with measured derivative constants.

Cutoffs are mollified region indicators: the indicator of the eps/4
neighborhood of the target region convolved with a normalized smooth
bump supported in the ball of radius eps/4.  Every cutoff is an offset
plus a signed sum of mollified edges, ``offset + sum sign * psi(dist(x))``,
each edge radial about a centre or planar along a unit normal: a ball is
one edge, its complement is one minus one edge, a half space is one planar
edge, a union of separated balls is one edge per ball, and the whole space
is the offset alone.  The convolution across one edge reduces to a
one-dimensional profile (a weighted average of spherical-cap fractions),
which keeps every value inside [0, 1] by construction; its derivatives
come from one central-difference routine, ``_Edge.derivatives``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import _gridtable
from .core import ValidatedConfig
from .errors import RegionsTooClose, DefectsumError

_QUAD_NODES = 256
# Central-difference steps relative to eps (see _Edge.fd_steps).
_FD_REL_STEP_1 = 1e-3
_FD_REL_STEP_2 = 1e-2
_SCAN_POINTS = 4001


# ---------------------------------------------------------------------------
# Regions


@dataclass(frozen=True)
class Ball:
    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class ComplementOfBall:
    center: tuple
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class HalfSpace:
    normal: tuple
    offset: float

    def __post_init__(self):
        nrm = math.hypot(*self.normal)
        if not nrm > 0:
            raise ValueError("half-space normal must be nonzero")


@dataclass(frozen=True)
class UnionOfBalls:
    balls: tuple

    def __post_init__(self):
        for b in self.balls:
            if not isinstance(b, Ball):
                raise TypeError("UnionOfBalls takes Ball members")


@dataclass(frozen=True)
class WholeSpace:
    pass


@dataclass(frozen=True)
class EmptyRegion:
    pass


WHOLE = WholeSpace()
EMPTY = EmptyRegion()


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / math.hypot(*v)


def region_distance(a, b) -> float:
    """Euclidean distance between two regions (0 if they meet)."""
    if isinstance(a, EmptyRegion) or isinstance(b, EmptyRegion):
        return math.inf
    if isinstance(a, WholeSpace) or isinstance(b, WholeSpace):
        return 0.0
    if isinstance(a, UnionOfBalls):
        if not a.balls:
            return math.inf
        return min(region_distance(m, b) for m in a.balls)
    if isinstance(b, UnionOfBalls):
        return region_distance(b, a)
    if isinstance(a, Ball) and isinstance(b, Ball):
        return max(0.0, math.dist(a.center, b.center) - a.radius - b.radius)
    if isinstance(a, Ball) and isinstance(b, ComplementOfBall):
        return max(0.0, b.radius - (math.dist(a.center, b.center) + a.radius))
    if isinstance(a, ComplementOfBall) and isinstance(b, Ball):
        return region_distance(b, a)
    if isinstance(a, ComplementOfBall) and isinstance(b, ComplementOfBall):
        return 0.0  # two ball complements always intersect
    if isinstance(a, HalfSpace) and isinstance(b, Ball):
        n = _unit(a.normal)
        signed = float(np.dot(n, b.center)) - a.offset
        return max(0.0, -signed - b.radius)
    if isinstance(a, Ball) and isinstance(b, HalfSpace):
        return region_distance(b, a)
    if isinstance(a, HalfSpace) and isinstance(b, ComplementOfBall):
        return 0.0  # a half space always meets a ball complement
    if isinstance(a, ComplementOfBall) and isinstance(b, HalfSpace):
        return 0.0
    if isinstance(a, HalfSpace) and isinstance(b, HalfSpace):
        na, nb = _unit(a.normal), _unit(b.normal)
        if float(np.dot(na, nb)) < -1.0 + 1e-12:
            # {s >= oa} versus {s <= -ob} along the common axis
            return max(0.0, a.offset + b.offset)
        return 0.0
    raise TypeError(f"unsupported region pair {type(a).__name__}/{type(b).__name__}")


def scale_region(region, factor: float):
    """Image of the region under x -> factor * x."""
    if isinstance(region, Ball):
        return Ball(tuple(factor * c for c in region.center), factor * region.radius)
    if isinstance(region, ComplementOfBall):
        return ComplementOfBall(tuple(factor * c for c in region.center),
                                factor * region.radius)
    if isinstance(region, HalfSpace):
        return HalfSpace(region.normal, factor * region.offset)
    if isinstance(region, UnionOfBalls):
        return UnionOfBalls(tuple(scale_region(b, factor) for b in region.balls))
    return region


# ---------------------------------------------------------------------------
# Bump quadrature and cap fractions


@lru_cache(maxsize=32)
def _bump_weights(n: int):
    """Nodes and normalized weights for the radial bump average in R^n."""
    x, w = np.polynomial.legendre.leggauss(_QUAD_NODES)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w
    theta = np.exp(-1.0 / (1.0 - r**2))
    weights = wr * r ** (n - 1) * theta
    return r, weights / weights.sum()


@lru_cache(maxsize=32)
def _capfrac_table(n: int):
    u = np.linspace(-1.0, 1.0, 200_001)
    g = (1.0 - u**2) ** ((n - 3) / 2.0)
    cum = np.concatenate(([0.0], np.cumsum((g[1:] + g[:-1]) * 0.5 * (u[1] - u[0]))))
    return u, 1.0 - cum / cum[-1]


def _cap_fraction(n: int, c0: np.ndarray) -> np.ndarray:
    """Fraction of the unit sphere S^{n-1} with first coordinate >= c0."""
    c0 = np.clip(c0, -1.0, 1.0)
    if n == 1:
        return 0.5 * ((1.0 >= c0).astype(float) + (-1.0 >= c0).astype(float))
    if n == 2:
        return np.arccos(c0) / math.pi
    if n == 3:
        return 0.5 * (1.0 - c0)
    u, frac = _capfrac_table(n)
    return np.interp(c0, u, frac)


class _Edge:
    """One mollified edge: psi(t) at the coordinate t = dist(x).

    psi(t) is the bump average of the fraction of the sphere of radius a*r,
    centred at a point with coordinate t, that lies in the edge's region; it
    is exactly 1 at depth >= a inside the region and 0 at depth >= a
    outside.  ``sign`` is the member's weight in its cutoff.  Subclasses
    give the geometry: ``_fractions`` (the cap fractions over points and bump
    radii, with the plateau and vanishing masks), the coordinate and its
    gradient, the level sets' curvature radius, and the scan grid.
    """

    def __init__(self, n: int, a: float, sign: float):
        self.n = n
        self.a = a
        self.sign = sign

    def psi(self, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        r, w = _bump_weights(self.n)
        frac, plateau, vanish = self._fractions(t, self.a * r)
        out = frac @ w
        out[plateau] = 1.0
        out[vanish] = 0.0
        return out

    @property
    def fd_steps(self):
        """Central-difference steps for psi' and psi''.

        psi is piecewise smooth at the quadrature-node scale (transition
        width / nodes), so the steps sit above that scale or the differences
        measure node kinks: eps * 1e-3 and eps * 1e-2 with eps = 4a.
        """
        eps = 4.0 * self.a
        return eps * _FD_REL_STEP_1, eps * _FD_REL_STEP_2

    def derivatives(self, t, order: int = 2):
        """(psi, psi', psi'') at t; ``order=1`` stops after psi'.

        Each stencil offset is one profile evaluation, made one at a time so
        that no (offsets x points x nodes) array is ever held.
        """
        t = np.asarray(t, dtype=float)
        h1, h2 = self.fd_steps
        v = self.psi(t)
        d1 = (self.psi(t + h1) - self.psi(t - h1)) / (2 * h1)
        if order == 1:
            return v, d1
        d2 = (self.psi(t + h2) - 2.0 * v + self.psi(t - h2)) / (h2 * h2)
        return v, d1, d2


class _RadialEdge(_Edge):
    """Edge of the ball of radius R about ``centre``; t = |x - centre|."""

    def __init__(self, n: int, centre, R: float, a: float, sign: float = 1.0):
        super().__init__(n, a, sign)
        self.centre = tuple(float(c) for c in centre)
        self.R = R
        self.support = R + a

    def _fractions(self, t, ar):
        tt = t[:, None]
        R = self.R
        inside = tt + ar <= R
        outside = (tt - ar >= R) | (ar - tt >= R)
        c0 = (tt**2 + ar**2 - R**2) / (2.0 * ar * np.maximum(tt, 1e-300))
        frac = np.where(inside, 1.0, np.where(outside, 0.0, _cap_fraction(self.n, c0)))
        return frac, t <= R - self.a, t >= R + self.a

    def coordinate(self, pts):
        return np.sqrt(((pts - np.asarray(self.centre)) ** 2).sum(axis=1))

    def coordinate_gradient(self, pts, t):
        return (pts - np.asarray(self.centre)) / np.maximum(t, 1e-300)[:, None]

    def level_radius(self, t):
        """Curvature radius of the level set {dist = t}: a sphere, or two points in R^1."""
        return np.maximum(t, 1e-300) if self.n > 1 else math.inf

    def scan_grid(self):
        return np.linspace(1e-9, self.support + self.a, _SCAN_POINTS)

    def level_meets(self, region, t):
        """Which spheres {|x - centre| = t} meet the ball, ball complement or
        half space {x . n >= offset}, n the unit normal."""
        if isinstance(region, HalfSpace):
            # the sphere reaches up to n . centre + t along n
            return float(np.dot(_unit(region.normal), self.centre)) + t >= region.offset
        if not isinstance(region, (Ball, ComplementOfBall)):
            raise TypeError(f"cannot sample region {type(region).__name__}")
        gap = math.dist(self.centre, region.center)
        if isinstance(region, Ball):
            return np.abs(t - gap) <= region.radius
        return t + gap >= region.radius

    def support_ball(self):
        return self.centre, self.support


class _PlanarEdge(_Edge):
    """Edge of the half space {x . normal >= edge}; t = x . normal."""

    def __init__(self, n: int, normal, edge: float, a: float):
        super().__init__(n, a, 1.0)
        self.normal = _unit(normal)
        self.edge = edge

    def _fractions(self, t, ar):
        ss = (t - self.edge)[:, None]
        c0 = -ss / np.maximum(ar, 1e-300)
        frac = np.where(ss >= ar, 1.0, np.where(ss <= -ar, 0.0, _cap_fraction(self.n, c0)))
        return frac, t - self.edge >= self.a, t - self.edge <= -self.a

    def coordinate(self, pts):
        return pts @ self.normal

    def coordinate_gradient(self, pts, t):
        return np.broadcast_to(self.normal, pts.shape)

    def level_radius(self, t):
        return math.inf

    def scan_grid(self):
        return np.linspace(self.edge - 3 * self.a, self.edge + 3 * self.a, _SCAN_POINTS)

    def level_meets(self, region, t):
        """Which hyperplanes {x . normal = t} meet the parallel half space."""
        if not isinstance(region, HalfSpace):
            raise TypeError("half-space cutoffs pair with half-space regions")
        if float(np.dot(self.normal, _unit(region.normal))) > 0:
            return t >= region.offset
        return t <= -region.offset

    def support_ball(self):
        return None


# ---------------------------------------------------------------------------
# Cutoff functions


@dataclass
class CutoffFunction:
    """phi(x) = offset + sum over members of sign * psi_m(dist_m(x)).

    Values lie in [0, 1] by construction: the members of a sum have
    disjoint supports.  Derivatives up to order two come from the members'
    central differences (``_Edge.derivatives``) through the chain rule.
    """

    n: int
    eps: float
    F0: object
    F1: object
    offset: float
    members: tuple = ()

    def value(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.full(pts.shape[0], self.offset)
        for m in self.members:
            out += m.sign * m.psi(m.coordinate(pts))
        return out

    def gradient(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros_like(pts)
        for m in self.members:
            t = m.coordinate(pts)
            _, d1 = m.derivatives(t, order=1)
            out += (m.sign * d1)[:, None] * m.coordinate_gradient(pts, t)
        return out

    def _scans(self):
        """Per member: (member, t, offset + sign * psi, psi', psi'') on its scan grid."""
        out = []
        for m in self.members:
            t = m.scan_grid()
            v, d1, d2 = m.derivatives(t)
            out.append((m, t, self.offset + m.sign * v, d1, d2))
        return out

    def derivative_maxima(self):
        """Max |partial^alpha phi| over R^n, per order 0, 1, 2."""
        return _maxima(self.offset, self._scans())

    @property
    def support_radius(self) -> Optional[float]:
        """Radius, about the first member's centre, of a ball holding the
        support; None when the support is unbounded."""
        balls = [m.support_ball() for m in self.members]
        if self.offset or None in balls:
            return None
        if not balls:
            return 0.0
        first = balls[0][0]
        return max(math.dist(c, first) + r for c, r in balls)


def _maxima(offset, scans) -> dict:
    """Max |partial^alpha phi| per order from the members' scans.

    The Hessian of psi(dist) has eigenvalues psi'' and psi' / (level-set
    curvature radius); away from all members phi is the offset.
    """
    out = {0: abs(offset), 1: 0.0, 2: 0.0}
    for m, t, v, d1, d2 in scans:
        out[0] = max(out[0], float(np.abs(v).max()))
        out[1] = max(out[1], float(np.abs(d1).max()))
        curv = np.abs(d1) / m.level_radius(t)
        out[2] = max(out[2], float(np.maximum(np.abs(d2), curv).max()))
    return out


def build_cutoff(F0, F1, eps: float, n: int) -> CutoffFunction:
    """Mollified indicator: 1 on F1, 0 on F0, transition of width ~eps/2.

    Requires dist(F0, F1) >= eps.  The target indicator is the eps/4
    neighborhood of F1, smoothed by a bump of radius eps/4.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    dist = region_distance(F0, F1)
    if dist < eps * (1.0 - 1e-12):
        raise RegionsTooClose(
            f"dist(F0, F1) = {dist:g} but the construction needs >= {eps:g}"
        )
    a = eps / 4.0
    offset, members = 0.0, ()
    if isinstance(F1, WholeSpace):
        offset = 1.0
    elif isinstance(F1, Ball):
        members = (_RadialEdge(n, F1.center, F1.radius + a, a),)
    elif isinstance(F1, ComplementOfBall):
        offset = 1.0
        if F1.radius - a > 0:
            members = (_RadialEdge(n, F1.center, F1.radius - a, a, sign=-1.0),)
    elif isinstance(F1, HalfSpace):
        # plateau begins at signed distance offset - a + a = offset; the
        # shifted edge keeps phi = 1 on F1 itself
        members = (_PlanarEdge(n, F1.normal, F1.offset - a, a),)
    elif isinstance(F1, UnionOfBalls):
        for i in range(len(F1.balls)):
            for j in range(i + 1, len(F1.balls)):
                gap = region_distance(F1.balls[i], F1.balls[j])
                if gap <= eps:
                    raise RegionsTooClose(
                        "union members too close for disjoint mollification"
                    )
        members = tuple(_RadialEdge(n, b.center, b.radius + a, a) for b in F1.balls)
    else:
        raise TypeError(f"cannot mollify region {type(F1).__name__}")
    return CutoffFunction(n, eps, F0, F1, offset, members)


# ---------------------------------------------------------------------------
# Verification


@dataclass(frozen=True)
class VerificationReport:
    bound_violation: float
    f0_max: float
    f1_deviation: float
    c_hat: dict
    scale_stability: Optional[dict]
    passed: bool

    def to_json(self) -> dict:
        return {
            "bound_violation": self.bound_violation,
            "f0_max": self.f0_max,
            "f1_deviation": self.f1_deviation,
            "c_hat": {str(k): v for k, v in self.c_hat.items()},
            "scale_stability": self.scale_stability,
            "passed": self.passed,
        }


def _region_samples(member, region, t) -> np.ndarray:
    """Mask of the scan coordinates whose level set meets the region."""
    if isinstance(region, (EmptyRegion, WholeSpace)):
        return np.full(t.shape, isinstance(region, WholeSpace))
    if isinstance(region, UnionOfBalls):
        mask = np.zeros(t.shape, dtype=bool)
        for b in region.balls:
            mask |= member.level_meets(b, t)
        return mask
    return member.level_meets(region, t)


def measured_constants(phi: CutoffFunction) -> dict:
    """eps^|alpha| * max |partial^alpha phi| per derivative order."""
    maxima = phi.derivative_maxima()
    return {order: phi.eps**order * value for order, value in maxima.items()}


def verify_cutoff(phi: CutoffFunction, check_scaling: bool = True,
                  scales=(0.1, 1.0, 10.0)) -> VerificationReport:
    """Check [0,1] bounds, boundary values, and eps-scaling of constants.

    Each member is scanned along its own coordinate; the members of a sum
    have disjoint supports, so the others vanish there.  The scaling
    re-measure rebuilds a one-member cutoff at each scale.
    """
    scans = phi._scans()
    upper = lower = f0_max = f1_dev = 0.0
    for m, t, v, _, _ in scans:
        upper = max(upper, float(np.maximum(v - 1.0, 0.0).max()))
        lower = max(lower, float(np.maximum(-v, 0.0).max()))
        f0 = v[_region_samples(m, phi.F0, t)]
        f1 = v[_region_samples(m, phi.F1, t)]
        f0_max = max(f0_max, float(np.abs(f0).max(initial=0.0)))
        f1_dev = max(f1_dev, float(np.abs(f1 - 1.0).max(initial=0.0)))

    c_hat = {order: phi.eps**order * value
             for order, value in _maxima(phi.offset, scans).items()}

    stability = None
    stable = True
    if check_scaling and len(phi.members) == 1:
        per_scale = {}
        for s in scales:
            factor = s / phi.eps
            scaled = build_cutoff(scale_region(phi.F0, factor),
                                  scale_region(phi.F1, factor), s, phi.n)
            per_scale[s] = measured_constants(scaled)
        ratios = {}
        for order in (1, 2):
            vals = [per_scale[s][order] for s in scales]
            lo, hi = min(vals), max(vals)
            ratios[order] = hi / lo if lo > 0 else 1.0
        stable = all(r <= 1.05 for r in ratios.values())
        stability = {
            "constants": {str(s): {str(k): v for k, v in cs.items()}
                          for s, cs in per_scale.items()},
            "max_over_min": {str(k): v for k, v in ratios.items()},
        }

    passed = (upper < 1e-8 and lower < 1e-8 and f0_max < 1e-8
              and f1_dev < 1e-8 and stable)
    return VerificationReport(
        bound_violation=max(upper, lower),
        f0_max=f0_max,
        f1_deviation=f1_dev,
        c_hat=c_hat,
        scale_stability=stability,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Cutoff families for validated configurations


@dataclass(frozen=True)
class FamilyMember:
    position: tuple
    phi: CutoffFunction
    phi_tilde: CutoffFunction
    support_radius: float
    tilde_support_radius: float


@dataclass(frozen=True)
class CutoffFamily:
    members: tuple
    epsilon: float
    min_support_gap: float
    min_tilde_gap: float

    def sum_values(self, points) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros(pts.shape[0])
        for m in self.members:
            out += m.phi.value(pts)
        return out


def build_family(validated: ValidatedConfig,
                 scale: Optional[float] = None) -> CutoffFamily:
    """Inner/outer cutoff pair per singularity with certified disjointness.

    ``scale`` defaults to the validated separation; any smaller positive
    value produces a tighter family with the same plateau guarantees.
    """
    cfg = validated.config
    eps = validated.epsilon if scale is None else scale
    if scale is not None and not 0.0 < scale <= validated.epsilon:
        raise ValueError("family scale must lie in (0, epsilon]")
    # one member per placement: a lattice orbit is represented by its origin
    placements = [(pos, spec.delta) for _, pos, spec, _ in cfg.placements]
    if not math.isfinite(eps):
        eps = 2.0 * max(delta for _, delta in placements) if placements else 1.0

    members = []
    for pos, delta in placements:
        phi = build_cutoff(
            ComplementOfBall(pos, delta + eps / 2.0),
            Ball(pos, delta + eps / 4.0),
            eps / 4.0, cfg.n,
        )
        phi_t = build_cutoff(
            ComplementOfBall(pos, delta + 9.0 * eps / 16.0),
            Ball(pos, delta + 3.0 * eps / 8.0),
            3.0 * eps / 16.0, cfg.n,
        )
        members.append(FamilyMember(
            position=tuple(pos), phi=phi, phi_tilde=phi_t,
            support_radius=phi.support_radius,
            tilde_support_radius=phi_t.support_radius,
        ))

    gap = math.inf
    tgap = math.inf
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            dist = math.dist(members[i].position, members[j].position)
            gap = min(gap, dist - members[i].support_radius - members[j].support_radius)
            tgap = min(tgap, dist - members[i].tilde_support_radius
                       - members[j].tilde_support_radius)
    if len(members) > 1 and (gap <= 0 or tgap <= 0):
        raise DefectsumError("cutoff family supports are not disjoint")
    return CutoffFamily(tuple(members), eps, gap, tgap)


def partition_constants(family: CutoffFamily, samples: int = _SCAN_POINTS):
    """Grid-maximized (e, alpha, beta) for the family of inner cutoffs.

    e = max sum |grad phi_j|^2, alpha = 2 max sum (lap phi_j)^2,
    beta = 4 max sum |grad phi_j|^2.  Supports are disjoint, so the sums
    have at most one term at any point and radial scans suffice.
    """
    e = 0.0
    alpha = 0.0
    for m in family.members:
        phi = m.phi
        t = np.linspace(1e-9, phi.support_radius + phi.eps, samples)
        for edge in phi.members:
            _, d1, d2 = edge.derivatives(t)
            lap = d2 + (phi.n - 1) * d1 / edge.level_radius(t)
            e = max(e, float((d1**2).max()))
            alpha = max(alpha, 2.0 * float((lap**2).max()))
    return e, alpha, 4.0 * e


# ---------------------------------------------------------------------------
# Lattice partition of unity


class LatticePartition:
    """Normalized bump family on a cubic lattice with sum of squares one.

    The base bump equals 1 on the ball of radius 0.9 and vanishes outside
    the unit ball; the lattice spacing is 1 for n <= 3 and shrinks like
    1.8/sqrt(n) beyond so that every point lies inside some plateau.
    """

    PLATEAU = 0.9
    SUPPORT = 1.0

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = n
        self.spacing = 1.0 if n <= 3 else 1.8 / math.sqrt(n)
        a = (self.SUPPORT - self.PLATEAU) / 2.0
        self._edge = _RadialEdge(n, (0.0,) * n, self.PLATEAU + a, a)

    def sites_near(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo = np.floor((x - self.SUPPORT) / self.spacing).astype(int)
        hi = np.ceil((x + self.SUPPORT) / self.spacing).astype(int)
        grids = np.meshgrid(*[np.arange(l, h + 1) for l, h in zip(lo, hi)],
                            indexing="ij")
        sites = np.stack([g.ravel() for g in grids], axis=1) * self.spacing
        d = np.sqrt(((sites - x) ** 2).sum(axis=1))
        # sites just outside the support still carry a difference-quotient slope
        return sites[d < self.SUPPORT + 4 * self._edge.fd_steps[0]]

    def unnormalized_sq_sum(self, x) -> float:
        sites = self.sites_near(x)
        if sites.size == 0:
            return 0.0
        d = np.sqrt(((sites - np.asarray(x, dtype=float)) ** 2).sum(axis=1))
        return float((self._edge.psi(d) ** 2).sum())

    def values_and_grads(self, x):
        """Normalized member values and gradients contributing at x."""
        x = np.asarray(x, dtype=float)
        sites = self.sites_near(x)
        rel = x[None, :] - sites
        d = np.sqrt((rel**2).sum(axis=1))
        psi, dpsi = self._edge.derivatives(d, order=1)
        grads_psi = (dpsi / np.maximum(d, 1e-300))[:, None] * rel
        ssq = float((psi**2).sum())
        s = math.sqrt(ssq)
        grad_s = (psi[:, None] * grads_psi).sum(axis=0) / s
        vals = psi / s
        grads = grads_psi / s - (psi[:, None] * grad_s[None, :]) / ssq
        return sites, vals, grads

    def sum_of_squares(self, x) -> float:
        _, vals, _ = self.values_and_grads(x)
        return float((vals**2).sum())

    def cross_term(self, x) -> np.ndarray:
        """sum_j phi_j grad phi_j, identically zero for the normalized family."""
        _, vals, grads = self.values_and_grads(x)
        return (vals[:, None] * grads).sum(axis=0)


# ---------------------------------------------------------------------------
# Grid export


def export_cutoff_grid(phi: CutoffFunction, bbox, shape, path) -> None:
    """Sample the cutoff on a tensor grid and write a grid table."""
    axes = [np.linspace(lo, hi, s) for (lo, hi), s in zip(bbox, shape)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    vals = phi.value(pts).reshape(shape)
    _gridtable.save_grid(path, bbox, vals)
