"""Domain model: defect records, potential descriptions, singularity
configurations, and separation validation.

Deficiency indices are carried as extended naturals (a non-negative int or
``math.inf``).  Configurations hold either an explicit finite list of
singularities or a single lattice generator; ``SingularityConfig.placements``
is the one list of singular supports that the rest of the pipeline reads.
Validation computes the uniform separation between singular supports
rather than trusting any declared value.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import (
    ConfigFormatError,
    DimensionTooLarge,
    EmptyConfig,
    DeclaredEpsilonMismatch,
    DefectsumError,
    SeparationViolation,
    UnsupportedPotential,
)

INF = math.inf

ExtNat = Union[int, float]

CONFIG_VERSION = 1


def _check_extnat(value, name: str) -> ExtNat:
    if value == INF:
        return INF
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be a non-negative int or inf, got {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def ext_to_json(value: ExtNat):
    return "inf" if value == INF else int(value)


@dataclass(frozen=True)
class DefectRecord:
    """Pair of deficiency indices with extended-natural arithmetic."""

    n_plus: ExtNat
    n_minus: ExtNat

    def __post_init__(self):
        _check_extnat(self.n_plus, "n_plus")
        _check_extnat(self.n_minus, "n_minus")

    @property
    def def_value(self) -> ExtNat:
        """Half-sum of the indices; inf if either index is infinite."""
        if self.n_plus == INF or self.n_minus == INF:
            return INF
        total = self.n_plus + self.n_minus
        return total // 2 if total % 2 == 0 else total / 2

    def __add__(self, other: "DefectRecord") -> "DefectRecord":
        if not isinstance(other, DefectRecord):
            return NotImplemented
        np_ = INF if INF in (self.n_plus, other.n_plus) else self.n_plus + other.n_plus
        nm = INF if INF in (self.n_minus, other.n_minus) else self.n_minus + other.n_minus
        return DefectRecord(np_, nm)

    def scaled(self, count: ExtNat) -> "DefectRecord":
        """Record for ``count`` identical copies; count may be inf."""
        def mul(idx):
            if idx == 0:
                return 0
            if count == INF or idx == INF:
                return INF
            return idx * count
        return DefectRecord(mul(self.n_plus), mul(self.n_minus))

    def restricted(self, m: int) -> "DefectRecord":
        """Indices of an extension along an m-dimensional isometry."""
        if m < 0:
            raise ValueError("m must be non-negative")
        for idx in (self.n_plus, self.n_minus):
            if idx != INF and m > idx:
                raise DimensionTooLarge(
                    f"restriction dimension {m} exceeds finite index {idx}"
                )
        sub = lambda idx: INF if idx == INF else idx - m
        return DefectRecord(sub(self.n_plus), sub(self.n_minus))

    def to_json(self) -> dict:
        d = self.def_value
        if d == INF:
            d = "inf"
        elif isinstance(d, float):
            d = d if d != int(d) else int(d)  # keep genuine half-integers
        return {
            "n_plus": ext_to_json(self.n_plus),
            "n_minus": ext_to_json(self.n_minus),
            "def": d,
        }


ZERO_DEFECT = DefectRecord(0, 0)


def add_defects(records) -> DefectRecord:
    total = ZERO_DEFECT
    for rec in records:
        total = total + rec
    return total


# ---------------------------------------------------------------------------
# Radial perturbation profiles


_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def integrability_norm(profile, delta: float, n_nodes: int = 4096) -> float:
    """Quadrature estimate of the weighted norm int_0^delta r |profile(r)| dr.

    Log-spaced trapezoid rule down to delta * 2^-60; integrable profiles
    give a stable finite value, divergent ones blow up with refinement.
    """
    t = np.linspace(math.log(delta) - 60.0 * math.log(2.0), math.log(delta), n_nodes)
    r = np.exp(t)
    integrand = r * np.abs(np.asarray(profile(r), dtype=float)) * r  # dr = r dt
    return float(_trapezoid(integrand, t))


@dataclass(frozen=True)
class PowerProfile:
    """Profile a * r**exponent; integrable class requires exponent > -2."""

    amplitude: float
    exponent: float

    def __call__(self, r):
        return self.amplitude * np.asarray(r, dtype=float) ** self.exponent

    def validate_integrability(self, delta: float) -> None:
        # r * |profile| must be integrable on (0, delta); the exponent gate
        # is exact and the quadrature value must come out finite
        if self.amplitude != 0.0 and self.exponent <= -2.0:
            raise ConfigFormatError(
                f"power perturbation r**{self.exponent} is not in the "
                "integrable class (needs exponent > -2)"
            )
        if not math.isfinite(integrability_norm(self, delta)):
            raise ConfigFormatError("perturbation failed the integrability check")

    def to_json(self) -> dict:
        return {"kind": "power", "amplitude": self.amplitude, "exponent": self.exponent}


@dataclass(frozen=True)
class SampledProfile:
    """Piecewise-linear profile through sample points (log-r interpolation)."""

    radii: tuple
    values: tuple

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if r.ndim != 1 or r.shape != v.shape or r.size < 2:
            raise ConfigFormatError("sampled profile needs matching 1-d radii/values")
        if not (np.all(np.diff(r) > 0) and r[0] > 0):
            raise ConfigFormatError("sample radii must be positive and increasing")
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(v))):
            raise ConfigFormatError("sampled profile must be finite")

    def __call__(self, r):
        rq = np.asarray(r, dtype=float)
        rr = np.asarray(self.radii)
        vv = np.asarray(self.values)
        return np.interp(np.log(np.maximum(rq, rr[0] * 1e-12)), np.log(rr), vv)

    def validate_integrability(self, delta: float) -> None:
        if not math.isfinite(integrability_norm(self, delta)):
            raise ConfigFormatError(
                "sampled perturbation failed the integrability check")

    def to_json(self) -> dict:
        return {"kind": "samples", "radii": list(self.radii), "values": list(self.values)}


Perturbation = Union[PowerProfile, SampledProfile]


def _perturbation_from_json(obj) -> Optional[Perturbation]:
    if obj is None:
        return None
    kind = obj.get("kind")
    if kind == "power":
        _require_keys(obj, {"kind", "amplitude", "exponent"}, "perturbation")
        return PowerProfile(float(obj["amplitude"]), float(obj["exponent"]))
    if kind == "samples":
        _require_keys(obj, {"kind", "radii", "values"}, "perturbation")
        return SampledProfile(tuple(obj["radii"]), tuple(obj["values"]))
    raise ConfigFormatError(f"unknown perturbation kind {kind!r}")


# ---------------------------------------------------------------------------
# Potential specifications


@dataclass(frozen=True)
class InverseSquarePoint:
    """Inverse-square point singularity c/r^2 inside radius delta."""

    coupling: float
    delta: float
    perturbation: Optional[Perturbation] = None

    def __post_init__(self):
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ConfigFormatError("cutoff radius must be positive and finite")
        if not math.isfinite(self.coupling):
            raise ConfigFormatError("coupling must be finite")
        if self.perturbation is not None:
            self.perturbation.validate_integrability(self.delta)

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        out = self.coupling / r**2
        if self.perturbation is not None:
            out = out + self.perturbation(r)
        return out

    def to_json(self) -> dict:
        pert = None if self.perturbation is None else self.perturbation.to_json()
        return {
            "kind": "point",
            "coupling": self.coupling,
            "cutoff": self.delta,
            "perturbation": pert,
        }


@dataclass(frozen=True)
class Shell:
    """Potential beta * | |x| - r0 |**(-gamma) blowing up on a sphere."""

    beta: float
    gamma: float
    r0: float
    delta: float

    def __post_init__(self):
        if not 0 < self.r0 < self.delta:
            raise ConfigFormatError("shell needs 0 < shell_radius < cutoff")
        if self.gamma < 0:
            raise ConfigFormatError("shell exponent must be >= 0")
        if not (math.isfinite(self.beta) and math.isfinite(self.delta)):
            raise ConfigFormatError("shell parameters must be finite")

    def profile(self, r):
        r = np.asarray(r, dtype=float)
        return self.beta * np.abs(r - self.r0) ** (-self.gamma)

    def to_json(self) -> dict:
        return {
            "kind": "shell",
            "strength": self.beta,
            "exponent": self.gamma,
            "shell_radius": self.r0,
            "cutoff": self.delta,
        }


@dataclass(frozen=True)
class CustomRadial:
    """Sampled radial profile with a declared singular-endpoint behavior.

    ``endpoint_coupling`` is the declared inverse-square strength governing
    the r -> 0 behavior; None declares a bounded endpoint.
    """

    radii: tuple
    values: tuple
    delta: float
    endpoint_coupling: Optional[float] = None

    def __post_init__(self):
        SampledProfile(self.radii, self.values)  # validates shape/monotonicity
        if not (self.delta > 0 and self.radii[-1] <= self.delta * (1 + 1e-12)):
            raise ConfigFormatError("custom samples must live in (0, cutoff]")

    def profile(self, r):
        base = SampledProfile(self.radii, self.values)(r)
        if self.endpoint_coupling is not None:
            base = base + self.endpoint_coupling / np.asarray(r, dtype=float) ** 2
        return base

    def to_json(self) -> dict:
        return {
            "kind": "custom",
            "radii": list(self.radii),
            "values": list(self.values),
            "cutoff": self.delta,
            "endpoint_coupling": self.endpoint_coupling,
        }


PotentialSpec = Union[InverseSquarePoint, Shell, CustomRadial]


def _spec_from_json(obj) -> PotentialSpec:
    kind = obj.get("kind")
    if kind == "point":
        _require_keys(obj, {"kind", "coupling", "cutoff", "perturbation"}, "point spec",
                      optional={"perturbation"})
        return InverseSquarePoint(
            float(obj["coupling"]), float(obj["cutoff"]),
            _perturbation_from_json(obj.get("perturbation")),
        )
    if kind == "shell":
        _require_keys(obj, {"kind", "strength", "exponent", "shell_radius", "cutoff"},
                      "shell spec")
        return Shell(float(obj["strength"]), float(obj["exponent"]),
                     float(obj["shell_radius"]), float(obj["cutoff"]))
    if kind == "custom":
        _require_keys(obj, {"kind", "radii", "values", "cutoff", "endpoint_coupling"},
                      "custom spec", optional={"endpoint_coupling"})
        ec = obj.get("endpoint_coupling")
        return CustomRadial(tuple(obj["radii"]), tuple(obj["values"]),
                            float(obj["cutoff"]), None if ec is None else float(ec))
    if kind in ("dipole", "van_der_waals"):
        raise UnsupportedPotential(
            f"{kind} potentials are not radial at the singularity and are not supported"
        )
    raise ConfigFormatError(f"unknown potential kind {kind!r}")


# ---------------------------------------------------------------------------
# Placement: explicit singularities and lattice generators


@dataclass(frozen=True)
class PlacedSingularity:
    position: tuple
    spec: PotentialSpec

    def to_json(self) -> dict:
        obj = self.spec.to_json()
        obj["position"] = list(self.position)
        return obj


@dataclass(frozen=True)
class LatticeGenerator:
    """Periodic family of identical singularities on an affine lattice.

    ``region`` is "infinite" or a tuple of inclusive integer coefficient
    ranges, one per basis vector.
    """

    basis: tuple  # tuple of tuples, d vectors in R^n
    origin: tuple
    spec: PotentialSpec
    region: object = "infinite"

    def __post_init__(self):
        B = np.asarray(self.basis, dtype=float)
        if B.ndim != 2 or B.shape[0] < 1:
            raise ConfigFormatError("lattice basis must be a non-empty list of vectors")
        if np.linalg.matrix_rank(B) != B.shape[0]:
            raise ConfigFormatError("lattice basis vectors must be linearly independent")
        if self.region != "infinite":
            ranges = tuple(self.region)
            if len(ranges) != B.shape[0]:
                raise ConfigFormatError("one coefficient range per basis vector required")
            for lo, hi in ranges:
                if int(lo) > int(hi):
                    raise ConfigFormatError("empty coefficient range")

    @property
    def is_infinite(self) -> bool:
        return self.region == "infinite"

    def site_count(self) -> ExtNat:
        if self.is_infinite:
            return INF
        count = 1
        for lo, hi in self.region:
            count *= int(hi) - int(lo) + 1
        return count

    def sites(self, max_sites: int = 100_000):
        """Enumerate site positions for finite regions."""
        if self.is_infinite:
            raise DefectsumError("cannot enumerate an infinite lattice region")
        if self.site_count() > max_sites:
            raise DefectsumError("finite lattice region too large to enumerate")
        B = np.asarray(self.basis, dtype=float)
        origin = np.asarray(self.origin, dtype=float)
        axes = [range(int(lo), int(hi) + 1) for lo, hi in self.region]
        for coeffs in itertools.product(*axes):
            yield tuple(origin + np.asarray(coeffs, dtype=float) @ B)

    def min_vector_norm(self) -> float:
        """Length of the shortest nonzero lattice vector (exact enumeration)."""
        B = np.asarray(self.basis, dtype=float)
        d = B.shape[0]
        # Gram-Schmidt norms bound the enumeration box
        _, R = np.linalg.qr(B.T)
        gs = np.abs(np.diag(R))
        best = float(min(math.dist(row, [0.0] * len(row)) for row in B))
        bounds = [max(1, int(math.floor(best / g)) + 1) for g in gs]
        total = 1
        for b in bounds:
            total *= 2 * b + 1
        if total > 2_000_000:
            raise DefectsumError("lattice basis too skewed for exact enumeration")
        zero = [0.0] * B.shape[1]
        for coeffs in itertools.product(*[range(-b, b + 1) for b in bounds]):
            if all(c == 0 for c in coeffs):
                continue
            v = np.asarray(coeffs, dtype=float) @ B
            norm = math.dist(v, zero)
            if norm < best:
                best = norm
        return best

    def to_json(self) -> dict:
        region = "infinite" if self.is_infinite else [list(r) for r in self.region]
        return {
            "basis": [list(v) for v in self.basis],
            "origin": list(self.origin),
            "region": region,
            "spec": self.spec.to_json(),
        }


@dataclass(frozen=True)
class Background:
    sup_norm: float = 0.0

    def __post_init__(self):
        if not (self.sup_norm >= 0 and math.isfinite(self.sup_norm)):
            raise ConfigFormatError("background sup norm must be finite and >= 0")


@dataclass(frozen=True)
class SingularityConfig:
    """Declarative problem statement consumed by the whole pipeline."""

    n: int
    singularities: tuple = ()
    lattice: Optional[LatticeGenerator] = None
    background: Background = field(default_factory=Background)
    declared_epsilon: Optional[float] = None

    def __post_init__(self):
        if self.n < 2:
            raise ConfigFormatError("dimension must be >= 2")
        if self.singularities and self.lattice is not None:
            raise ConfigFormatError(
                "config takes an explicit singularity list or a lattice generator, not both"
            )
        for s in self.singularities:
            if len(s.position) != self.n:
                raise ConfigFormatError("singularity position dimension mismatch")
            if not all(math.isfinite(x) for x in s.position):
                raise ConfigFormatError("positions must be finite")
        if self.lattice is not None:
            if len(self.lattice.origin) != self.n:
                raise ConfigFormatError("lattice origin dimension mismatch")
            for v in self.lattice.basis:
                if len(v) != self.n:
                    raise ConfigFormatError("lattice basis vector dimension mismatch")

    @property
    def is_empty(self) -> bool:
        return not self.singularities and self.lattice is None

    @property
    def placements(self) -> tuple:
        """Singular supports as ``(index, position, spec, multiplicity)``.

        Explicit singularity i gives ``(i, position, spec, 1)``; a lattice
        gives one ``("orbit", origin, spec, site_count())`` entry, whose
        multiplicity may be inf.  Downstream layers loop over this list
        and never branch on where a support came from.
        """
        placed = tuple((i, s.position, s.spec, 1)
                       for i, s in enumerate(self.singularities))
        if self.lattice is not None:
            lat = self.lattice
            placed += (("orbit", lat.origin, lat.spec, lat.site_count()),)
        return placed

    def to_json_dict(self) -> dict:
        return {
            "version": CONFIG_VERSION,
            "dimension": self.n,
            "background": {"sup_norm": self.background.sup_norm},
            "singularities": [s.to_json() for s in self.singularities],
            "lattice": None if self.lattice is None else self.lattice.to_json(),
            "declared_epsilon": self.declared_epsilon,
        }


def _require_keys(obj: dict, allowed: set, what: str, optional: set = frozenset()):
    keys = set(obj.keys())
    unknown = keys - allowed
    if unknown:
        raise ConfigFormatError(f"unknown keys in {what}: {sorted(unknown)}")
    missing = allowed - keys - set(optional)
    if missing:
        raise ConfigFormatError(f"missing keys in {what}: {sorted(missing)}")


def config_from_json_dict(obj: dict) -> SingularityConfig:
    if not isinstance(obj, dict):
        raise ConfigFormatError("config root must be an object")
    _require_keys(
        obj,
        {"version", "dimension", "background", "singularities", "lattice",
         "declared_epsilon"},
        "config",
        optional={"declared_epsilon", "lattice", "background"},
    )
    if obj["version"] != CONFIG_VERSION:
        raise ConfigFormatError(f"unsupported config version {obj['version']!r}")
    background = Background()
    if "background" in obj and obj["background"] is not None:
        _require_keys(obj["background"], {"sup_norm"}, "background")
        background = Background(float(obj["background"]["sup_norm"]))
    singularities = []
    for item in obj.get("singularities") or []:
        item = dict(item)
        position = item.pop("position", None)
        if position is None:
            raise ConfigFormatError("singularity entries need a position")
        singularities.append(
            PlacedSingularity(tuple(float(x) for x in position), _spec_from_json(item))
        )
    lattice = None
    if obj.get("lattice") is not None:
        lat = obj["lattice"]
        _require_keys(lat, {"basis", "origin", "region", "spec"}, "lattice")
        region = lat["region"]
        if region != "infinite":
            region = tuple((int(lo), int(hi)) for lo, hi in region)
        lattice = LatticeGenerator(
            tuple(tuple(float(x) for x in v) for v in lat["basis"]),
            tuple(float(x) for x in lat["origin"]),
            _spec_from_json(lat["spec"]),
            region,
        )
    declared = obj.get("declared_epsilon")
    return SingularityConfig(
        n=int(obj["dimension"]),
        singularities=tuple(singularities),
        lattice=lattice,
        background=background,
        declared_epsilon=None if declared is None else float(declared),
    )


def load_config(path) -> SingularityConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigFormatError(f"config is not valid JSON: {exc}") from exc
    return config_from_json_dict(data)


def dump_config(cfg: SingularityConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_json_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Separation validation


@dataclass(frozen=True)
class ValidatedConfig:
    config: SingularityConfig
    epsilon: float  # positive, possibly inf for a single support

    @property
    def n(self) -> int:
        return self.config.n


def _pairwise_min_gap(config: SingularityConfig):
    """Minimum gap between singular supports and the first violating pair."""
    best = INF
    sing = config.singularities
    for (i, a), (j, b) in itertools.combinations(enumerate(sing), 2):
        gap = math.dist(a.position, b.position) - a.spec.delta - b.spec.delta
        if gap < best:
            best = gap
            if gap <= 0:
                return gap, (i, j)
    lat = config.lattice
    if lat is not None:
        delta = lat.spec.delta
        if lat.is_infinite or lat.site_count() >= 2:
            gap = lat.min_vector_norm() - 2 * delta
            if gap < best:
                best = gap
                if gap <= 0:
                    return gap, ("lattice", "lattice")
    return best, None


def validate_config(config: SingularityConfig) -> ValidatedConfig:
    """Compute the uniform separation and reject touching supports."""
    if config.is_empty:
        raise EmptyConfig("configuration declares no singularities")
    gap, violator = _pairwise_min_gap(config)
    if violator is not None or gap <= 0:
        i, j = violator if violator is not None else ("?", "?")
        raise SeparationViolation(i, j, gap)
    if config.declared_epsilon is not None and math.isfinite(gap):
        if abs(config.declared_epsilon - gap) > 1e-9:
            warnings.warn(
                f"declared separation {config.declared_epsilon:g} differs from "
                f"computed {gap:g}",
                DeclaredEpsilonMismatch,
                stacklevel=2,
            )
    return ValidatedConfig(config=config, epsilon=gap)
