"""Numerical limit-point / limit-circle classification of singular endpoints.

The oracle integrates -u'' + q u = z u (z = +i or -i) from an interior
anchor toward the singular endpoint, two independent solutions at once,
and estimates the L^2 window integrals over shrinking dyadic windows.
The fitted geometric ratio of the dominant tail decides the class: a
convergent dominant tail means every solution is square integrable
(limit circle); a divergent one leaves exactly one square-integrable
direction (limit point), which is exhibited through the minimizing
combination of the two carried solutions.  Fits inside the resolution
band are reported as indeterminate instead of being forced.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import _kernels
from .errors import (
    IndeterminateClassification,
    IntegrationFailure,
    NonFiniteCoefficient,
)

LN2 = math.log(2.0)

THRESHOLD_COUPLING = 0.75  # limit point iff q0 >= 3/4 for q0 / r^2


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class EndpointClass:
    """Weyl alternative at one singular endpoint."""

    kind: str  # "limit_point" | "limit_circle" | "indeterminate"
    band: float = 0.0

    def __post_init__(self):
        if self.kind not in ("limit_point", "limit_circle", "indeterminate"):
            raise ValueError(f"unknown endpoint class {self.kind!r}")
        if self.kind != "indeterminate" and self.band != 0.0:
            raise ValueError("band width only applies to the indeterminate variant")

    @property
    def is_limit_point(self) -> bool:
        return self.kind == "limit_point"

    @property
    def is_limit_circle(self) -> bool:
        return self.kind == "limit_circle"

    @property
    def is_indeterminate(self) -> bool:
        return self.kind == "indeterminate"


LIMIT_POINT = EndpointClass("limit_point")
LIMIT_CIRCLE = EndpointClass("limit_circle")


def indeterminate(band: float) -> EndpointClass:
    return EndpointClass("indeterminate", band)


@dataclass(frozen=True)
class RadialProblem:
    """Half-line problem -u'' + q(r) u = z u with one singular endpoint.

    ``q`` takes a numpy array of radii.  The singular endpoint must equal
    one of the interval ends; the anchor lies strictly inside.
    """

    q: Callable
    interval: tuple
    singular_endpoint: float
    anchor: float

    def __post_init__(self):
        a, b = self.interval
        if not a < self.anchor < b:
            raise ValueError("anchor must lie strictly inside the interval")
        if self.singular_endpoint not in (a, b):
            raise ValueError("singular endpoint must be an interval end")


@dataclass(frozen=True)
class WeylSettings:
    """Tunable resolution parameters for the numeric oracle."""

    n_windows: int = 40
    n_windows_outer: int = 12
    fit_windows: int = 12
    fit_windows_outer: int = 8
    band: float = 4.0e-4
    rtol: float = 1e-10
    nodes_per_octave: int = 64
    max_steps_per_window: int = 500_000
    max_refinements: int = 2
    trend_threshold: float = 0.35
    decisive_slope: float = 2.5
    clear_decay_ratio: float = 0.95
    min_windows: int = 10


DEFAULT_SETTINGS = WeylSettings()


@dataclass(frozen=True)
class WeylDiagnostics:
    """Fit evidence attached to a classification."""

    slope_dominant: float
    nu_hat: float
    rho_hat: float
    windows_used: int
    truncated: bool
    trend: float
    clear_decay: bool
    lambda_hat: Optional[complex] = None
    recessive_slope: Optional[float] = None


# ---------------------------------------------------------------------------
# Closed-form rule


def frobenius_classify_inverse_square(q0: float) -> EndpointClass:
    """Class of the endpoint r = 0 for q(r) = q0 / r^2 (exact threshold)."""
    return LIMIT_POINT if q0 >= THRESHOLD_COUPLING else LIMIT_CIRCLE


# ---------------------------------------------------------------------------
# Window data handling


def _median_pair_slope(values: np.ndarray) -> float:
    """Median slope over all index pairs; robust to single-window dips."""
    n = values.shape[0]
    slopes = []
    for i in range(n - 1):
        for j in range(i + 1, n):
            slopes.append((values[j] - values[i]) / (j - i))
    slopes.sort()
    m = len(slopes)
    mid = m // 2
    return slopes[mid] if m % 2 else 0.5 * (slopes[mid - 1] + slopes[mid])


def _build_table(q, anchor: float, direction: int, n_win: int,
                 settings: WeylSettings):
    """Tabulate w(t) = q(e^t) e^{2t} on a uniform t grid covering the run."""
    dt = LN2 / settings.nodes_per_octave
    t_anchor = math.log(anchor)
    span = n_win * LN2
    if direction < 0:
        t_min, t_max = t_anchor - span - 4 * dt, t_anchor + 4 * dt
    else:
        t_min, t_max = t_anchor - 4 * dt, t_anchor + span + 4 * dt
    m = int(math.ceil((t_max - t_min) / dt)) + 4
    tgrid = t_min + dt * np.arange(m)
    r = np.exp(tgrid)
    try:
        qv = np.asarray(q(r), dtype=float)
    except (TypeError, ValueError):
        qv = np.array([float(q(x)) for x in r])
    if qv.shape != r.shape:
        qv = np.broadcast_to(qv, r.shape).astype(float)
    w = qv * r * r
    if not np.all(np.isfinite(w)):
        bad = r[~np.isfinite(w)]
        # an inner run's variable is the distance to the singular endpoint,
        # which for a shell side is s = |r - r0|, not the radius
        where = "distance s" if direction < 0 else "r"
        raise NonFiniteCoefficient(
            f"coefficient non-finite at {where} = {bad[0]:.6g} "
            f"(and {bad.size - 1} more nodes)"
        )
    return w, t_min, dt, t_anchor


@dataclass(frozen=True)
class _WindowRun:
    l00: np.ndarray
    l11: np.ndarray
    corr: np.ndarray  # complex, per window
    n_done: int
    truncated: bool


def _run_windows(q, anchor: float, direction: int, n_win: int, z: complex,
                 settings: WeylSettings) -> _WindowRun:
    w, t_lo, dt, t_anchor = _build_table(q, anchor, direction, n_win, settings)
    status, n_done, l00, l11, cre, cim, logscale = _kernels.window_integrals(
        w, t_lo, dt, t_anchor, anchor, n_win, float(direction),
        z.real, z.imag, settings.rtol, settings.max_steps_per_window,
    )
    truncated = status != _kernels.STATUS_OK
    if truncated and n_done < settings.min_windows:
        raise IntegrationFailure(
            f"integrator stalled after {n_done} windows (status {status}, "
            f"log-scale {logscale:.3g})"
        )
    return _WindowRun(l00[:n_done], l11[:n_done], (cre + 1j * cim)[:n_done],
                      n_done, truncated)


def _trace_logs(run: _WindowRun) -> np.ndarray:
    return np.logaddexp(run.l00, run.l11)


def _fit_block(run: _WindowRun, lo: int, hi: int):
    """Dominant slope over windows [lo, hi) via median pair slopes."""
    tr = _trace_logs(run)[lo:hi]
    su = _median_pair_slope(run.l00[lo:hi])
    sv = _median_pair_slope(run.l11[lo:hi])
    st = _median_pair_slope(tr)
    return max(su, sv, st)


def _recessive_diagnostics(run: _WindowRun, n_fit: int):
    """Minimizing combination u + lambda v over the innermost window.

    With C = int u conj(v), the Hermitian form G00 + 2 Re(conj(lam) C)
    + |lam|^2 G11 is minimized at lam = -C / G11, where it equals
    G00 (1 - |corr|^2).
    """
    k = run.n_done - 1
    m = max(run.l00[k], run.l11[k])
    g00 = math.exp(run.l00[k] - m)
    g11 = math.exp(run.l11[k] - m)
    if g11 <= 0:
        return None, None
    lam = -run.corr[k] * math.sqrt(g00 / g11)
    logs = []
    for j in range(run.n_done - n_fit, run.n_done):
        mj = max(run.l00[j], run.l11[j])
        a = math.exp(run.l00[j] - mj)
        b = math.exp(run.l11[j] - mj)
        cross = 2.0 * (np.conj(lam) * run.corr[j]).real * math.sqrt(a * b)
        val = a + cross + abs(lam) ** 2 * b
        if val <= 0:
            return complex(lam), None
        logs.append(mj + math.log(val))
    slope = _median_pair_slope(np.asarray(logs))
    return complex(lam), slope


def _analyze(run: _WindowRun, settings: WeylSettings, direction: int):
    n_fit = settings.fit_windows if direction < 0 else settings.fit_windows_outer
    n_fit = min(n_fit, run.n_done - 2)
    if n_fit < 4:
        raise IntegrationFailure(
            f"only {run.n_done} usable windows; too few for a tail fit"
        )
    hi = run.n_done
    slope = _fit_block(run, hi - n_fit - 1, hi)
    trend = 0.0
    if hi >= 2 * (n_fit + 1):
        prev = _fit_block(run, hi - 2 * (n_fit + 1), hi - (n_fit + 1))
        trend = slope - prev
    nu_hat = 1.0 + slope / (2.0 * LN2)
    rho_hat = math.exp(slope) if slope < 700 else math.inf
    clear = rho_hat < settings.clear_decay_ratio
    diag = WeylDiagnostics(
        slope_dominant=slope, nu_hat=nu_hat, rho_hat=rho_hat,
        windows_used=run.n_done, truncated=run.truncated, trend=trend,
        clear_decay=clear,
    )
    return diag, n_fit


def _classify_run(q, anchor: float, direction: int, z: complex,
                  settings: WeylSettings):
    n_win = settings.n_windows if direction < 0 else settings.n_windows_outer
    attempts = settings.max_refinements if direction < 0 else 0
    run = None
    diag = None
    n_fit = 0
    for attempt in range(attempts + 1):
        run = _run_windows(q, anchor, direction, n_win, z, settings)
        diag, n_fit = _analyze(run, settings, direction)
        settled = (abs(diag.slope_dominant) > settings.decisive_slope
                   or abs(diag.trend) <= settings.trend_threshold)
        if settled or run.truncated or attempt == attempts:
            break
        n_win *= 2

    slope = diag.slope_dominant
    unsettled = (abs(slope) <= settings.decisive_slope
                 and abs(diag.trend) > settings.trend_threshold)
    banded = abs(diag.nu_hat - 1.0) < settings.band
    if unsettled or banded:
        return indeterminate(settings.band), diag
    if slope < 0.0:
        return LIMIT_CIRCLE, diag
    lam, rec = _recessive_diagnostics(run, n_fit)
    diag = replace(diag, lambda_hat=lam, recessive_slope=rec)
    return LIMIT_POINT, diag


def _normalized_direction(problem: RadialProblem):
    """Map the problem to distance-to-endpoint coordinates.

    Returns (q_shifted, anchor, direction) with direction -1 for an
    endpoint approached from above/below at a finite point (inner run in
    the distance variable) and +1 for an endpoint at infinity.
    """
    a, b = problem.interval
    e = problem.singular_endpoint
    if e == b and math.isinf(b):
        return problem.q, problem.anchor, +1
    if e == a:
        if math.isinf(a):
            raise ValueError("endpoint at -inf is not supported")
        if a == 0.0:
            return problem.q, problem.anchor, -1
        q = problem.q
        return (lambda s: q(np.asarray(s) + a)), problem.anchor - a, -1
    # finite right endpoint: mirror onto a distance variable
    q = problem.q
    return (lambda s: q(b - np.asarray(s))), b - problem.anchor, -1


def _check_z(z: complex) -> complex:
    z = complex(z)
    if not (z.real == 0.0 and abs(z.imag) == 1.0):
        raise ValueError("spectral parameter must be +i or -i")
    return z


def weyl_classify_numeric(problem: RadialProblem, z: complex = 1j,
                          settings: WeylSettings = DEFAULT_SETTINGS) -> EndpointClass:
    """Numeric Weyl classification of the problem's singular endpoint."""
    cls, _ = classify_endpoint_detailed(problem, z, settings)
    return cls


def classify_endpoint_detailed(problem: RadialProblem, z: complex = 1j,
                               settings: WeylSettings = DEFAULT_SETTINGS):
    """Classification together with the fitted-tail diagnostics."""
    z = _check_z(z)
    q, anchor, direction = _normalized_direction(problem)
    return _classify_run(q, anchor, direction, z, settings)


def combine_endpoint_counts(inner: EndpointClass, outer: EndpointClass) -> int:
    """Per-channel deficiency count from the two endpoint classes."""
    for cls in (inner, outer):
        if cls.is_indeterminate:
            raise IndeterminateClassification(
                "cannot count square-integrable solutions from an indeterminate endpoint"
            )
    return (1 if inner.is_limit_circle else 0) + (1 if outer.is_limit_circle else 0)


def count_L2_solutions(problem: RadialProblem, z: complex = 1j,
                       settings: WeylSettings = DEFAULT_SETTINGS) -> int:
    """Deficiency count for a half-line problem, both endpoints classified."""
    z = _check_z(z)
    a, b = problem.interval
    inner = weyl_classify_numeric(
        RadialProblem(problem.q, problem.interval, a, problem.anchor), z, settings)
    outer = weyl_classify_numeric(
        RadialProblem(problem.q, problem.interval, b, problem.anchor), z, settings)
    return combine_endpoint_counts(inner, outer)


def perturbation_stability_check(problem: RadialProblem, vtilde: Callable,
                                 z: complex = 1j,
                                 settings: WeylSettings = DEFAULT_SETTINGS) -> bool:
    """True iff the classification is unchanged by the perturbation."""
    base = weyl_classify_numeric(problem, z, settings)
    q = problem.q
    perturbed_problem = RadialProblem(
        (lambda r: np.asarray(q(r)) + np.asarray(vtilde(r))),
        problem.interval, problem.singular_endpoint, problem.anchor,
    )
    perturbed = weyl_classify_numeric(perturbed_problem, z, settings)
    if base.is_indeterminate or perturbed.is_indeterminate:
        warnings.warn(
            "a channel sits inside the classification band; the stability "
            "comparison is resolution limited there",
            stacklevel=2,
        )
    return base.kind == perturbed.kind


# ---------------------------------------------------------------------------
# Cached classifier for the inverse-square family (hot path for channels)


@lru_cache(maxsize=8192)
def classify_inverse_square_cached(q0: float, side: str,
                                   settings: WeylSettings = DEFAULT_SETTINGS,
                                   z_imag: float = 1.0) -> EndpointClass:
    """Numeric class of q0/r^2 at r=0 ("inner") or r=inf ("outer")."""
    problem = RadialProblem(
        q=lambda r: q0 / np.asarray(r, dtype=float) ** 2,
        interval=(0.0, math.inf),
        singular_endpoint=0.0 if side == "inner" else math.inf,
        anchor=1.0,
    )
    return weyl_classify_numeric(problem, complex(0.0, z_imag), settings)
