"""Angular-momentum reduction of point and shell singularities.

An n-dimensional point singularity c/r^2 splits into radial channels
indexed by the harmonic degree l; each channel is an inverse-square
problem with effective coupling c + (n-1)(n-3)/4 + l(l+n-2) and carries
the dimension of the degree-l harmonic space as its multiplicity.  The
closed-form threshold 3/4 decides each channel, and channel tables hold
these closed-form classes only.  ``channel_oracle_count`` runs the numeric
oracle in ``weyl`` on one channel; the acceptance suite checks that the two
routes agree.  Shell sides have no closed form here: ``shell_defect`` takes
each side's class from the oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import DefectRecord, Shell, INF
from .errors import BorderlineChannelWarning, ShellIndeterminate, TruncationTooSmall
from .weyl import (
    DEFAULT_SETTINGS,
    EndpointClass,
    LIMIT_CIRCLE,
    LIMIT_POINT,
    RadialProblem,
    THRESHOLD_COUPLING,
    WeylSettings,
    classify_endpoint_detailed,
    classify_inverse_square_cached,
    combine_endpoint_counts,
)

BORDERLINE_TOL = 1e-12


def effective_coupling(n: int, c: float, l: int) -> float:
    """Inverse-square coupling of the degree-l channel in dimension n."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if l < 0:
        raise ValueError("harmonic degree must be >= 0")
    return c + (n - 1) * (n - 3) / 4.0 + l * (l + n - 2)


def harmonic_multiplicity(n: int, l: int) -> int:
    """Dimension of the space of degree-l harmonics in n variables."""
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if l < 0:
        raise ValueError("harmonic degree must be >= 0")
    first = math.comb(l + n - 1, n - 1)
    second = math.comb(l + n - 3, n - 1) if l >= 2 else 0
    return first - second


def zero_defect_threshold(n: int) -> float:
    """Smallest coupling with vanishing point defect: -n(n-4)/4."""
    return -n * (n - 4) / 4.0


def _warn_borderline(n: int, c: float, l: int, q_eff: float) -> None:
    if abs(q_eff - THRESHOLD_COUPLING) < BORDERLINE_TOL:
        warnings.warn(
            f"channel l={l} of the point (n={n}, c={c}) sits within "
            f"{BORDERLINE_TOL:g} of the limit-point threshold; the closed-form "
            "rule (>= includes equality) decides limit point",
            BorderlineChannelWarning,
            stacklevel=4,  # past _walk and the public function, to its caller
        )


@dataclass(frozen=True)
class ChannelEntry:
    l: int
    q_eff: float
    multiplicity: int
    endpoint_class: EndpointClass


def _walk(n: int, c: float, l_max=None) -> tuple:
    """Closed-form channel entries for l = 0 .. l_max, or through the first
    limit-point channel when l_max is None; warns on borderline channels."""
    entries = []
    l = 0
    while l_max is None or l <= l_max:
        q_eff = effective_coupling(n, c, l)
        _warn_borderline(n, c, l, q_eff)
        cls = LIMIT_POINT if q_eff >= THRESHOLD_COUPLING else LIMIT_CIRCLE
        entries.append(ChannelEntry(l, q_eff, harmonic_multiplicity(n, l), cls))
        if l_max is None and cls.is_limit_point:
            break
        l += 1
    return tuple(entries)


def point_defect(n: int, c: float) -> DefectRecord:
    """Deficiency indices of a single inverse-square point singularity.

    Sums harmonic multiplicities over the channels whose effective
    coupling lies strictly below 3/4; the sum is finite because the
    coupling grows like l^2.
    """
    total = sum(e.multiplicity for e in _walk(n, c)
                if e.endpoint_class.is_limit_circle)
    return DefectRecord(total, total)


@dataclass(frozen=True)
class ChannelSpectrum:
    n: int
    entries: tuple
    tail_limit_point: bool  # channels beyond the table are limit point by monotonicity

    def to_json(self) -> list:
        return [
            {"l": e.l, "q_eff": e.q_eff, "multiplicity": e.multiplicity,
             "class": e.endpoint_class.kind}
            for e in self.entries
        ]


def channel_spectrum(n: int, c: float, l_max: int) -> ChannelSpectrum:
    """Channel table up to degree l_max (closed-form classes)."""
    entries = _walk(n, c, l_max)
    if not any(e.endpoint_class.is_limit_point for e in entries):
        raise TruncationTooSmall(
            f"l_max={l_max} is below the first limit-point channel for n={n}, c={c}"
        )
    return ChannelSpectrum(n=n, entries=entries, tail_limit_point=True)


def point_spectrum_evidence(n: int, c: float) -> ChannelSpectrum:
    """Table covering all limit-circle channels plus the first limit-point one."""
    return ChannelSpectrum(n=n, entries=_walk(n, c), tail_limit_point=True)


def channel_oracle_count(n: int, c: float, l: int,
                         settings: WeylSettings = DEFAULT_SETTINGS) -> int:
    """Numeric per-channel deficiency count on the half line (oracle path)."""
    q_eff = effective_coupling(n, c, l)
    inner = classify_inverse_square_cached(q_eff, "inner", settings)
    outer = classify_inverse_square_cached(q_eff, "outer", settings)
    return combine_endpoint_counts(inner, outer)


def _shell_side_problem(spec: Shell) -> RadialProblem:
    # one-sided problem in the distance variable s = |r - r0|, the same for
    # both sides; the angular term is regular at r0 > 0 and cannot change the
    # classification
    s_max = min(spec.r0, spec.delta - spec.r0)
    beta, gamma = spec.beta, spec.gamma
    return RadialProblem(
        q=lambda s: beta * np.asarray(s, dtype=float) ** (-gamma),
        interval=(0.0, s_max),
        singular_endpoint=0.0,
        anchor=s_max / 2.0,
    )


def shell_defect(n: int, spec: Shell,
                 settings: WeylSettings = DEFAULT_SETTINGS) -> DefectRecord:
    """Deficiency indices of a shell singularity: zero or infinite.

    Each side of the sphere is a one-dimensional endpoint; a limit-circle
    side is replicated by every angular channel, so any limit-circle
    verdict yields infinite indices.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if spec.beta == 0.0 or spec.gamma == 0.0:
        return DefectRecord(0, 0)
    sides = shell_side_classifications(spec, settings)
    for cls, _ in sides:
        if cls.is_indeterminate:
            raise ShellIndeterminate(cls.band)
    if any(cls.is_limit_circle for cls, _ in sides):
        return DefectRecord(INF, INF)
    return DefectRecord(0, 0)


@lru_cache(maxsize=1024)
def shell_side_classifications(spec: Shell,
                               settings: WeylSettings = DEFAULT_SETTINGS):
    """Endpoint class and diagnostics for each side (inside, outside) of the
    shell; both sides pose the same problem, so it is classified once."""
    side = classify_endpoint_detailed(_shell_side_problem(spec), 1j, settings)
    return (side, side)
