"""Relative-bound arithmetic: partition localization of form and operator
bounds, commutator conversions, the defect-invariance gate, the Hardy
form bound for inverse-square couplings, and a uniformly-local L^p test.

The localization step is pure arithmetic: per-piece coefficients (a, b)
and partition data (c, d, e) combine into the global pair
(a c d, a c e + b c).  A global operator bound with leading coefficient
strictly below one preserves deficiency indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import (
    DimensionTooSmall,
    HardyViolation,
    InadmissibleExponent,
)

FORM = "form"
OPERATOR = "operator"


@dataclass(frozen=True)
class RelativeBound:
    """Coefficients (a, b) of a relative bound, form or operator flavor."""

    a: float
    b: float
    kind: str = FORM

    def __post_init__(self):
        if self.kind not in (FORM, OPERATOR):
            raise ValueError(f"kind must be '{FORM}' or '{OPERATOR}'")
        if not (self.a >= 0 and self.b >= 0):
            raise ValueError("relative bound coefficients must be non-negative")
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("relative bound coefficients must be finite")

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "kind": self.kind}


@dataclass(frozen=True)
class PartitionData:
    """Partition constants: covering (c), energy spreading (d, e)."""

    c: float
    d: float
    e: float

    def __post_init__(self):
        if not (self.c > 0 and self.d > 0 and self.e >= 0):
            raise ValueError("need c > 0, d > 0, e >= 0")

    def to_json(self) -> dict:
        return {"c": self.c, "d": self.d, "e": self.e}


def _morgan(local: RelativeBound, p: PartitionData, kind: str) -> RelativeBound:
    if local.kind != kind:
        raise ValueError(f"expected a {kind} bound, got {local.kind}")
    return RelativeBound(local.a * p.c * p.d, local.a * p.c * p.e + local.b * p.c, kind)


def morgan_form_bound(local: RelativeBound, p: PartitionData) -> RelativeBound:
    """Global form bound (a c d, a c e + b c) from a uniform per-piece bound."""
    return _morgan(local, p, FORM)


def morgan_operator_bound(local: RelativeBound, p: PartitionData) -> RelativeBound:
    """Operator flavor of the same localization arithmetic."""
    return _morgan(local, p, OPERATOR)


def commutator_to_iii(e_tilde: float, eps: float):
    """Partition constants (d, e) implied by a summed commutator bound."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if e_tilde < 0:
        raise ValueError("e_tilde must be non-negative")
    return (1.0 + eps, (1.0 + eps) * e_tilde / eps)


def operator_commutator_gate(eps: float, e: float):
    """Commutator-bound coefficients sufficient for spreading constants
    d = 1 + eps: returns (eps^2/(4+2 eps), eps e/(2+eps))."""
    if not eps > 0:
        raise ValueError("eps must be positive")
    if e < 0:
        raise ValueError("e must be non-negative")
    return (eps * eps / (4.0 + 2.0 * eps), eps * e / (2.0 + eps))


def defect_invariance_gate(global_bound: RelativeBound) -> bool:
    """True iff the global operator bound preserves deficiency indices."""
    if global_bound.kind != OPERATOR:
        raise ValueError("the invariance gate applies to operator bounds")
    return global_bound.a < 1.0


# ---------------------------------------------------------------------------
# Hardy form bound


def hardy_constant(n: int) -> float:
    """Sharp constant (n-2)^2/4 of the radial Hardy inequality."""
    if n < 3:
        raise DimensionTooSmall("the Hardy bound needs dimension n >= 3")
    return (n - 2) ** 2 / 4.0


def hardy_form_bound(n: int, gamma: float) -> RelativeBound:
    """Form bound of an inverse-square coupling of size gamma.

    Returns (gamma / ((n-2)^2/4), 0); requires gamma strictly below the
    Hardy constant.
    """
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    hc = hardy_constant(n)
    if gamma >= hc:
        raise HardyViolation(
            f"gamma = {gamma:g} is not strictly below the Hardy constant {hc:g}"
        )
    return RelativeBound(gamma / hc, 0.0, FORM)


def _random_radial_profile(rng, R: float = 1.0, degree: int = 5):
    """Smooth compactly supported radial profile and its derivative.

    f(r) = (1 - (r/R)^2)^2 * P(r) on [0, R], zero outside; P random.
    """
    coeffs = rng.uniform(-1.0, 1.0, size=degree + 1)
    if np.allclose(coeffs, 0.0):
        coeffs[0] = 1.0
    dcoeffs = np.polyder(coeffs)

    def f(r):
        w = np.clip(1.0 - (r / R) ** 2, 0.0, None)
        return w**2 * np.polyval(coeffs, r)

    def fprime(r):
        w = np.clip(1.0 - (r / R) ** 2, 0.0, None)
        dw2 = -4.0 * (r / R**2) * w
        return dw2 * np.polyval(coeffs, r) + w**2 * np.polyval(dcoeffs, r)

    return f, fprime


def hardy_ratio(n: int, gamma: float, f, fprime, R: float = 1.0,
                nodes: int = 400) -> float:
    """Quadrature ratio (gamma int f^2 r^{n-3}) / (int f'^2 r^{n-1}).

    Independent check of the closed-form bound: the ratio never exceeds
    gamma / hardy_constant(n) for admissible profiles.
    """
    x, w = np.polynomial.legendre.leggauss(nodes)
    r = 0.5 * R * (x + 1.0)
    wr = 0.5 * R * w
    num = gamma * float(np.sum(wr * f(r) ** 2 * r ** (n - 3)))
    den = float(np.sum(wr * fprime(r) ** 2 * r ** (n - 1)))
    if den == 0.0:
        raise ValueError("degenerate profile with vanishing gradient form")
    return num / den


def hardy_oracle_max_ratio(n: int, gamma: float, trials: int = 200,
                           seed: int = 0) -> float:
    """Max quadrature ratio over random admissible radial profiles."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        f, fp = _random_radial_profile(rng)
        worst = max(worst, hardy_ratio(n, gamma, f, fp))
    return worst


# ---------------------------------------------------------------------------
# Uniformly locally L^p membership


@dataclass(frozen=True)
class SingularTag:
    """Declared analytic behavior amplitude * |x - site|^(-exponent)."""

    site: tuple
    amplitude: float
    exponent: float


@dataclass(frozen=True)
class SampledPotential:
    """Cell-sampled potential on a box with optional singular tags."""

    bbox: tuple          # ((lo, hi), ...) per axis
    values: np.ndarray   # cell-center samples, C order
    tags: tuple = ()

    def cell_volume(self) -> float:
        vol = 1.0
        for (lo, hi), m in zip(self.bbox, self.values.shape):
            vol *= (hi - lo) / m
        return vol

    def cell_centers(self):
        axes = []
        for (lo, hi), m in zip(self.bbox, self.values.shape):
            h = (hi - lo) / m
            axes.append(lo + h * (np.arange(m) + 0.5))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in mesh], axis=1)


def _sphere_area(n: int) -> float:
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def admissible_exponent(n: int, p: float) -> bool:
    """p = 2 up to dimension three, p > n/2 beyond."""
    if n <= 3:
        return p == 2
    return p > n / 2.0


def loc_unif_Lp_check(potential: SampledPotential, n: int, p: float,
                      cap: float, centers_per_axis: int = 5):
    """Estimate sup over unit balls of the local L^p norm.

    Returns (estimate, passed).  Ball integrals use midpoint sums over the
    sampled cells; around each tagged singular site a small core ball is
    integrated analytically instead (midpoint sums diverge there).
    """
    if not admissible_exponent(n, p):
        raise InadmissibleExponent(
            f"p = {p} is not admissible in dimension {n} "
            "(need p = 2 for n <= 3 and p > n/2 for n >= 4)"
        )
    values = np.asarray(potential.values, dtype=float)
    if values.ndim != n:
        raise ValueError("sample rank does not match dimension")
    centers_axes = [np.linspace(lo, hi, centers_per_axis)
                    for lo, hi in potential.bbox]
    mesh = np.meshgrid(*centers_axes, indexing="ij")
    ball_centers = np.stack([g.ravel() for g in mesh], axis=1)
    for tag in potential.tags:
        ball_centers = np.vstack([ball_centers, np.asarray(tag.site)])

    cells = potential.cell_centers()
    vol = potential.cell_volume()
    flat = np.abs(values.ravel(order="C")) ** p
    h = max((hi - lo) / m for (lo, hi), m in zip(potential.bbox, values.shape))
    core_radius = 2.0 * h

    best = 0.0
    for center in ball_centers:
        dist = np.sqrt(((cells - center) ** 2).sum(axis=1))
        inside = dist <= 1.0
        for tag in potential.tags:
            tdist = np.sqrt(((cells - np.asarray(tag.site)) ** 2).sum(axis=1))
            inside &= tdist > core_radius
        total = float(flat[inside].sum()) * vol
        for tag in potential.tags:
            gap = math.dist(center, tag.site)
            if gap > 1.0 + core_radius:
                continue
            power = n - p * tag.exponent
            if power <= 0:
                return math.inf, False
            reach = min(core_radius, 1.0)
            total += (abs(tag.amplitude) ** p * _sphere_area(n)
                      * reach**power / power)
        best = max(best, total ** (1.0 / p))
    return best, bool(best <= cap and math.isfinite(best))
