"""Headline pipeline: localize potentials, compute per-singularity defects,
and aggregate them into a certificate.

The total deficiency record is the extended-natural sum of the
per-singularity records; bounded backgrounds and the bounded localization
remainders are reported but do not enter the sum, since deficiency
indices are stable under bounded perturbations.  Every singular support
of ``SingularityConfig.placements`` is one piece; a lattice orbit is the
piece at its origin, counted once per site, so an infinite family is
handled symbolically: a zero orbit defect gives total zero, a positive one
gives infinity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    CustomRadial,
    DefectRecord,
    INF,
    InverseSquarePoint,
    Shell,
    SingularityConfig,
    ValidatedConfig,
    ZERO_DEFECT,
    ext_to_json,
    validate_config,
)
from .channels import (
    point_defect,
    point_spectrum_evidence,
    shell_defect,
    shell_side_classifications,
)
from .errors import (
    IntegrationFailure,
    NonFiniteCoefficient,
    ShellIndeterminate,
    UnboundedRemainder,
    UnsupportedPotential,
)
from .weyl import DEFAULT_SETTINGS, WeylSettings

TRUST_NOTE = (
    "Infinite families rely on locality hypotheses that hold for the "
    "supported potential classes; they are not re-verified at runtime."
)
REMAINDER_NOTE = (
    "Bounded background and localization remainders are excluded from the "
    "defect sum: deficiency indices are invariant under bounded perturbations."
)


# ---------------------------------------------------------------------------
# Localization


@dataclass(frozen=True)
class LocalizedPiece:
    index: object              # int or "orbit"
    position: tuple
    spec: object
    multiplicity: object       # sites the piece stands for: 1, a count, or inf
    local_radius: float        # radius of the ball carrying the singular core
    remainder_sup: float       # sup of the profile on the trimmed annulus


@dataclass(frozen=True)
class LocalizedConfig:
    validated: ValidatedConfig
    pieces: tuple              # LocalizedPiece per placement of the config
    remainder_bound: float     # sup_j of the per-piece remainder sups
    background_sup: float

    @property
    def epsilon(self) -> float:
        return self.validated.epsilon


def _profile_callable(spec):
    if isinstance(spec, (InverseSquarePoint, Shell, CustomRadial)):
        return spec.profile
    raise UnsupportedPotential(f"no radial profile for {type(spec).__name__}")


def annulus_sup(profile, lo: float, hi: float, samples: int = 2048) -> float:
    """Sampled sup of |profile| on [lo, hi], refined toward the inner edge."""
    if hi <= lo:
        return 0.0
    u = np.linspace(0.0, 1.0, samples) ** 2
    r = lo + (hi - lo) * u
    vals = np.abs(np.asarray(profile(r), dtype=float))
    if not np.all(np.isfinite(vals)):
        raise UnboundedRemainder(
            f"profile is not bounded on the annulus [{lo:g}, {hi:g}]"
        )
    return float(vals.max())


def _localize_one(placement, split_radius: float) -> LocalizedPiece:
    index, position, spec, multiplicity = placement
    delta = spec.delta
    if isinstance(spec, Shell) and math.isfinite(split_radius) \
            and spec.r0 >= split_radius:
        raise UnboundedRemainder(
            f"shell radius {spec.r0:g} is not inside the localization ball "
            f"of radius {split_radius:g}; the annulus is unbounded"
        )
    if not math.isfinite(split_radius) or split_radius >= delta:
        return LocalizedPiece(index, position, spec, multiplicity, delta, 0.0)
    sup = annulus_sup(_profile_callable(spec), split_radius, delta)
    return LocalizedPiece(index, position, spec, multiplicity, split_radius, sup)


def localize(validated: ValidatedConfig,
             split_radius: Optional[float] = None) -> LocalizedConfig:
    """Split every potential at half the separation (or a smaller radius)."""
    cfg = validated.config
    rho = validated.epsilon / 2.0 if split_radius is None else split_radius
    if split_radius is not None and math.isfinite(validated.epsilon):
        if not 0.0 < split_radius <= validated.epsilon / 2.0:
            raise ValueError("split radius must lie in (0, epsilon/2]")
    pieces = tuple(_localize_one(placement, rho) for placement in cfg.placements)
    return LocalizedConfig(
        validated=validated,
        pieces=pieces,
        remainder_bound=max((p.remainder_sup for p in pieces), default=0.0),
        background_sup=cfg.background.sup_norm,
    )


# ---------------------------------------------------------------------------
# Per-piece defects with evidence


def _piece_defect(n: int, spec, settings: WeylSettings):
    """(record or None, evidence dict); None marks an indeterminate piece."""
    if isinstance(spec, Shell):
        try:
            record = shell_defect(n, spec, settings)
            sides = shell_side_classifications(spec, settings)
        except ShellIndeterminate as exc:
            return None, {"kind": "shell", "indeterminate_band": exc.band}
        except (IntegrationFailure, NonFiniteCoefficient) as exc:
            # valid input that the oracle cannot resolve; uncaught, these
            # DefectsumErrors would be reported as invalid input
            return None, {"kind": "shell",
                          "indeterminate_reason": f"{type(exc).__name__}: {exc}"}
        evidence = {
            "kind": "shell",
            "sides": [
                {"class": cls.kind, "nu_hat": diag.nu_hat}
                for cls, diag in sides
            ],
        }
        return record, evidence
    if isinstance(spec, InverseSquarePoint):
        c, evidence = spec.coupling, {"kind": "point"}
    elif isinstance(spec, CustomRadial):
        # a point at its declared coupling, or at 0 (a bounded endpoint) when
        # none is declared
        c = 0.0 if spec.endpoint_coupling is None else spec.endpoint_coupling
        evidence = {"kind": "custom", "declared_coupling": c}
    else:
        raise UnsupportedPotential(
            f"cannot compute a defect for {type(spec).__name__}")
    record = point_defect(n, c)
    evidence["channels"] = point_spectrum_evidence(n, c).to_json()
    return record, evidence


# ---------------------------------------------------------------------------
# Certificates


@dataclass(frozen=True)
class CertificateEntry:
    index: object           # int or "orbit"
    position: tuple
    record: Optional[DefectRecord]
    evidence: dict

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "position": list(self.position),
            "record": None if self.record is None else self.record.to_json(),
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class DefectCertificate:
    total: Optional[DefectRecord]   # None iff verdict is indeterminate
    entries: tuple
    verdict: str
    epsilon: float
    remainder_bound: float
    background_sup: float
    lattice_multiplicity: Optional[object] = None  # site count or "inf"
    first_violation: Optional[object] = None
    notes: tuple = (REMAINDER_NOTE, TRUST_NOTE)

    def to_json_dict(self) -> dict:
        return {
            "total": None if self.total is None else self.total.to_json(),
            "verdict": self.verdict,
            "epsilon": "inf" if self.epsilon == INF else self.epsilon,
            "remainder_sup_bound": self.remainder_bound,
            "background_sup_norm": self.background_sup,
            "lattice_multiplicity": self.lattice_multiplicity,
            "first_violation": self.first_violation,
            "table": [e.to_json() for e in self.entries],
            "notes": list(self.notes),
        }


def _verdict(total: Optional[DefectRecord]) -> str:
    if total is None:
        return "indeterminate"
    d = total.def_value
    if d == 0:
        return "essentially_self_adjoint"
    if d == INF:
        return "infinite_defect"
    return "positive_defect"


def aggregate_defect(loc: LocalizedConfig,
                     settings: WeylSettings = DEFAULT_SETTINGS) -> DefectCertificate:
    """Extended-natural sum of per-singularity defects with evidence.

    Each entry holds its piece's own record; the total adds it once per
    site the piece stands for.
    """
    n = loc.validated.n

    entries = []
    total: Optional[DefectRecord] = ZERO_DEFECT
    first_violation = None
    lattice_multiplicity = None

    for piece in loc.pieces:
        record, evidence = _piece_defect(n, piece.spec, settings)
        evidence["remainder_sup"] = piece.remainder_sup
        entries.append(CertificateEntry(piece.index, piece.position, record, evidence))
        if piece.index == "orbit":
            lattice_multiplicity = ext_to_json(piece.multiplicity)
        if record is None:
            total = None
        elif total is not None:
            total = total + record.scaled(piece.multiplicity)
        if first_violation is None and record is not None and record.def_value != 0:
            first_violation = piece.index

    return DefectCertificate(
        total=total,
        entries=tuple(entries),
        verdict=_verdict(total),
        epsilon=loc.epsilon,
        remainder_bound=loc.remainder_bound,
        background_sup=loc.background_sup,
        lattice_multiplicity=lattice_multiplicity,
        first_violation=first_violation,
    )


def _empty_certificate(cfg: SingularityConfig) -> DefectCertificate:
    return DefectCertificate(
        total=ZERO_DEFECT,
        entries=(),
        verdict="essentially_self_adjoint",
        epsilon=INF,
        remainder_bound=0.0,
        background_sup=cfg.background.sup_norm,
        notes=(REMAINDER_NOTE, TRUST_NOTE,
               "No singular supports declared; the operator with a bounded "
               "potential is self-adjoint on its natural domain."),
    )


def essential_selfadjointness(cfg: SingularityConfig,
                              settings: WeylSettings = DEFAULT_SETTINGS
                              ) -> DefectCertificate:
    """Full pipeline: validate, localize, aggregate, and render a verdict."""
    if cfg.is_empty:
        return _empty_certificate(cfg)
    validated = validate_config(cfg)
    loc = localize(validated)
    return aggregate_defect(loc, settings=settings)
