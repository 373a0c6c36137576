"""Closed-form reference verdicts, written without the package's decision code.

Every rule here is the classical one the package claims to implement:

* an inverse-square coupling q0/r^2 is limit point at r = 0 iff q0 >= 3/4,
  and every such problem is limit point at r = infinity;
* a point c/r^2 in R^n has defect equal to the total dimension of the
  harmonic spaces whose channel coupling c + (n-1)(n-3)/4 + l(l+n-2) lies
  below 3/4;
* a shell beta*|s|^-gamma is limit circle (infinite defect) iff gamma < 2,
  or gamma = 2 and beta < 3/4, or gamma > 2 and beta < 0;
* a lattice contributes its orbit defect times its site count, where an
  infinite region turns any positive orbit defect into infinity.

Configurations are read as the JSON documents the command line consumes.

``known_shell_defect`` and ``known_perturbed_defect`` name the input
bands where the package's numeric endpoint oracle is known to give the
wrong class.  A wrong verdict inside a band is reported as a known wrong verdict (it still counts in
``wrong_frac``); a wrong verdict anywhere else makes a run incorrect.
The bands hold every wrong verdict seen over the workloads' full ranges,
with a margin: below them a grid over the ranges' worst corners (largest
anchor and strength, couplings 1e-3 from 3/4) gave no wrong class.
"""

from __future__ import annotations

import math

INF = math.inf
THRESHOLD = 0.75


def inverse_square_class(q0: float) -> str:
    return "limit_point" if q0 >= THRESHOLD else "limit_circle"


def shell_class(beta: float, gamma: float) -> str:
    if gamma < 2.0:
        return "limit_circle"
    if gamma == 2.0:
        return "limit_circle" if beta < THRESHOLD else "limit_point"
    return "limit_circle" if beta < 0.0 else "limit_point"


def known_shell_defect(beta: float, gamma: float) -> bool:
    """Known defect band: with gamma just below 2 the oracle sees an almost
    inverse-square profile above the threshold and answers limit point (wrong
    from about gamma = 1.94 at beta = 3); the rule gives limit circle."""
    return 1.9 <= gamma < 2.0 and beta > THRESHOLD


def known_perturbed_defect(p: float) -> bool:
    """Known defect band of q0/r^2 + a*r^p: with p near -2 the perturbation
    shifts the coupling the oracle sees across 3/4 (wrong from about
    p = -1.7 with q0 1e-3 from 3/4)."""
    return p < -1.5


def harmonic_dimension(n: int, l: int) -> int:
    """Dimension of the degree-l spherical harmonics on the sphere S^(n-1)."""
    if l == 0:
        return 1
    # (2l + n - 2) (l + n - 3)! / (l! (n - 2)!)
    return (2 * l + n - 2) * math.factorial(l + n - 3) // (
        math.factorial(l) * math.factorial(n - 2))


def point_defect(n: int, coupling: float) -> int:
    total = 0
    l = 0
    while coupling + (n - 1) * (n - 3) / 4.0 + l * (l + n - 2) < THRESHOLD:
        total += harmonic_dimension(n, l)
        l += 1
    return total


def shell_defect(beta: float, gamma: float) -> float:
    if beta == 0.0 or gamma == 0.0:
        return 0  # a bounded profile carries no singularity
    return INF if shell_class(beta, gamma) == "limit_circle" else 0


def spec_defect(n: int, spec: dict):
    """Defect of one piece given as a config-file spec object."""
    kind = spec["kind"]
    if kind == "point":
        return point_defect(n, spec["coupling"])
    if kind == "custom":
        # the declared coupling governs r -> 0; the samples are bounded
        c = spec.get("endpoint_coupling")
        return point_defect(n, 0.0 if c is None else c)
    if kind == "shell":
        return shell_defect(spec["strength"], spec["exponent"])
    raise ValueError(f"no reference rule for {kind!r}")


def site_count(region):
    if region == "infinite":
        return INF
    count = 1
    for lo, hi in region:
        count *= int(hi) - int(lo) + 1
    return count


def scaled(defect, count):
    if defect == 0:
        return 0
    return INF if (defect == INF or count == INF) else defect * count


def config_specs(cfg: dict) -> list:
    """Piece specs in certificate-table order: singularities, then the lattice's."""
    specs = list(cfg.get("singularities") or [])
    if cfg.get("lattice") is not None:
        specs.append(cfg["lattice"]["spec"])
    return specs


def expected_certificate(cfg: dict, entries=None) -> dict:
    """Per-entry defects, total, verdict and exit code of ``defect``.

    ``entries`` replaces the per-piece defects, to work out what the
    certificate must say given the defects the package found.
    """
    n = cfg["dimension"]
    if entries is None:
        entries = [spec_defect(n, s) for s in config_specs(cfg)]
    entries = list(entries)
    lattice = cfg.get("lattice")
    if lattice is not None:
        total = sum(entries[:-1], 0) + scaled(entries[-1], site_count(lattice["region"]))
    else:
        total = sum(entries, 0)
    if total == 0:
        verdict = "essentially_self_adjoint"
    elif total == INF:
        verdict = "infinite_defect"
    else:
        verdict = "positive_defect"
    return {"entries": entries, "total": total, "verdict": verdict,
            "exit_code": 0 if total == 0 else 1}


def defect_from_json(value):
    """Inverse of the report's "def" encoding."""
    return INF if value == "inf" else value
