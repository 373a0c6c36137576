"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from defectsum import cli
from defectsum.bounds import (
    PartitionData,
    RelativeBound,
    commutator_to_iii,
    defect_invariance_gate,
    hardy_constant,
    hardy_form_bound,
    hardy_oracle_max_ratio,
    morgan_form_bound,
    operator_commutator_gate,
)
from defectsum.channels import (
    channel_oracle_count,
    point_defect,
    zero_defect_threshold,
)
from defectsum.core import (
    DefectRecord,
    INF,
    InverseSquarePoint,
    LatticeGenerator,
    PlacedSingularity,
    Shell,
    SingularityConfig,
    add_defects,
)
from defectsum.decouple import essential_selfadjointness
from defectsum.errors import HardyViolation
from defectsum.partition import (
    Ball,
    ComplementOfBall,
    LatticePartition,
    build_cutoff,
    measured_constants,
    verify_cutoff,
)
from defectsum.support import GridFunction, check_support_laws
from defectsum.weyl import (
    RadialProblem,
    frobenius_classify_inverse_square,
    weyl_classify_numeric,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _announce(k, message):
    print(f"\n[criterion {k:2d}] PASS - {message}")


def test_criterion_01_threshold_reproduction():
    started = time.perf_counter()
    checked = 0
    for n in range(3, 9):
        threshold = zero_defect_threshold(n)
        for k in range(-32, 33):
            c = threshold + k / 32.0
            zero = point_defect(n, c).def_value == 0
            assert zero == (c >= threshold), (n, c)
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _announce(1, f"zero-defect threshold exact at {checked} grid points "
                 f"({elapsed:.2f} s)")


def test_criterion_02_oracle_agreement():
    values = [float(q) for q in np.linspace(-5.0, 5.0, 500)
              if abs(float(q) - 0.75) >= 1e-3]
    assert len(values) == 500
    # warm-up outside the timed region
    weyl_classify_numeric(_inverse_square_problem(1.3))
    worst, worst_q0 = 0.0, None
    for q0 in values:
        problem = _inverse_square_problem(q0)
        t0 = time.perf_counter()
        numeric = weyl_classify_numeric(problem)
        elapsed = time.perf_counter() - t0
        if elapsed > worst:
            worst, worst_q0 = elapsed, q0
        assert numeric.kind == frobenius_classify_inverse_square(q0).kind, q0
    # judged after the loop, so every agreement check above has run
    assert worst < 0.050, (worst_q0, worst)
    _announce(2, f"numeric oracle matched the closed form at 500 couplings, "
                 f"max {worst * 1e3:.1f} ms per classification")


def _inverse_square_problem(q0, endpoint=0.0):
    return RadialProblem(
        q=lambda r: q0 / np.asarray(r, dtype=float) ** 2,
        interval=(0.0, math.inf), singular_endpoint=endpoint, anchor=1.0)


_SHELL_CHOICES = (
    (1.0, 0.5), (1.0, 2.0), (2.0, 2.0), (0.5, 1.5), (3.0, 1.0), (0.0, 1.0),
)


def _random_config(rng):
    n = int(rng.choice((3, 4, 5)))
    count = int(rng.integers(1, 21))
    singularities = []
    for i in range(count):
        position = (4.0 * i,) + (0.0,) * (n - 1)
        if rng.random() < 0.6:
            c = float(rng.integers(-12, 9)) / 4.0
            spec = InverseSquarePoint(c, 1.0)
        else:
            beta, gamma = _SHELL_CHOICES[int(rng.integers(len(_SHELL_CHOICES)))]
            spec = Shell(beta, gamma, 0.2, 0.5)
        singularities.append(PlacedSingularity(position, spec))
    return SingularityConfig(n, tuple(singularities))


def test_criterion_03_decoupling_additivity():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        cfg = _random_config(rng)
        total = essential_selfadjointness(cfg).total
        singles = []
        for s in cfg.singularities:
            single = SingularityConfig(cfg.n, (s,))
            singles.append(essential_selfadjointness(single).total)
        assert total == add_defects(singles), trial

    # infinite lattices: zero orbit stays zero, positive orbit blows up
    lat0 = LatticeGenerator(
        tuple(tuple(1.0 if j == i else 0.0 for j in range(5)) for i in range(2)),
        (0.0,) * 5, InverseSquarePoint(0.0, 0.25))
    assert essential_selfadjointness(
        SingularityConfig(5, lattice=lat0)).total == DefectRecord(0, 0)
    lat1 = LatticeGenerator(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (0.0,) * 3,
                            InverseSquarePoint(0.0, 0.25))
    assert essential_selfadjointness(
        SingularityConfig(3, lattice=lat1)).total == DefectRecord(INF, INF)
    _announce(3, "aggregate equals the singleton sum on 100 random configs; "
                 "infinite-lattice clauses hold")


def test_criterion_04_conjugation_symmetry():
    rng = np.random.default_rng(7)
    agreements = 0
    for _ in range(50):
        kind = rng.integers(3)
        if kind == 0:
            q0 = float(rng.uniform(-5.0, 5.0))
            if abs(q0 - 0.75) < 5e-3:
                q0 += 0.01
            q = lambda r, q0=q0: q0 / np.asarray(r, dtype=float) ** 2
        elif kind == 1:
            q0 = float(rng.uniform(-3.0, 3.0))
            amp = float(rng.uniform(-2.0, 2.0))
            p = float(rng.uniform(-1.5, 0.5))
            if abs(q0 - 0.75) < 5e-3:
                q0 += 0.01
            q = lambda r, q0=q0, amp=amp, p=p: (
                q0 / np.asarray(r, dtype=float) ** 2
                + amp * np.asarray(r, dtype=float) ** p)
        else:
            beta = float(rng.uniform(-1.0, 3.0))
            gamma = float(rng.choice((0.5, 1.0, 1.5, 2.0)))
            if gamma == 2.0 and abs(beta - 0.75) < 5e-3:
                beta += 0.01
            q = lambda r, beta=beta, gamma=gamma: (
                beta * np.asarray(r, dtype=float) ** -gamma)
        problem = RadialProblem(q=q, interval=(0.0, math.inf),
                                singular_endpoint=0.0, anchor=1.0)
        plus = weyl_classify_numeric(problem, 1j)
        minus = weyl_classify_numeric(problem, -1j)
        assert plus.kind == minus.kind
        agreements += 1
    assert agreements == 50
    _announce(4, "z = +i and z = -i classifications agree on 50 random problems")


def test_criterion_05_cutoff_verification():
    for n in (1, 2, 3):
        constants = {}
        for eps in (0.1, 1.0, 10.0):
            center = (0.0,) * n
            phi = build_cutoff(ComplementOfBall(center, 4.0 * eps),
                               Ball(center, 2.0 * eps), eps, n)
            report = verify_cutoff(phi, check_scaling=False)
            assert report.bound_violation < 1e-8, (n, eps)
            assert report.f0_max < 1e-8 and report.f1_deviation < 1e-8, (n, eps)
            constants[eps] = measured_constants(phi)
        for order in (1, 2):
            vals = [constants[eps][order] for eps in (0.1, 1.0, 10.0)]
            assert max(vals) / min(vals) <= 1.05, (n, order, vals)
    _announce(5, "cutoff bounds hold to 1e-8 and scaled constants stay "
                 "within 5% across eps in {0.1, 1, 10}, orders <= 2")


def test_criterion_06_localization_arithmetic():
    rng = np.random.default_rng(99)
    for _ in range(10_000):
        a, b = rng.uniform(0.0, 10.0, size=2)
        c, d = rng.uniform(1e-3, 10.0, size=2)
        e = rng.uniform(0.0, 10.0)
        got = morgan_form_bound(RelativeBound(a, b), PartitionData(c, d, e))
        assert got.a == a * c * d and got.b == a * c * e + b * c

        etil = rng.uniform(0.0, 10.0)
        eps = rng.uniform(1e-3, 10.0)
        assert commutator_to_iii(etil, eps) == (1.0 + eps, (1.0 + eps) * etil / eps)

        eps2 = rng.uniform(1e-3, 10.0)
        e2 = rng.uniform(0.0, 10.0)
        assert operator_commutator_gate(eps2, e2) == \
            (eps2 * eps2 / (4.0 + 2.0 * eps2), eps2 * e2 / (2.0 + eps2))

    below = math.nextafter(1.0, 0.0)
    above = math.nextafter(1.0, 2.0)
    assert defect_invariance_gate(RelativeBound(below, 0.0, "operator"))
    assert not defect_invariance_gate(RelativeBound(1.0, 0.0, "operator"))
    assert not defect_invariance_gate(RelativeBound(above, 0.0, "operator"))
    _announce(6, "localization arithmetic exact on 10^4 random tuples; "
                 "invariance gate flips strictly at 1")


def test_criterion_07_hardy_certificate():
    for n in (3, 4, 5):
        gamma = 0.9 * hardy_constant(n)
        bound = hardy_form_bound(n, gamma)
        assert bound.a == pytest.approx(0.9)
        worst = hardy_oracle_max_ratio(n, gamma, trials=200, seed=41 + n)
        assert worst <= bound.a + 1e-6, (n, worst)
        with pytest.raises(HardyViolation):
            hardy_form_bound(n, hardy_constant(n))
    _announce(7, "Hardy oracle stayed below the certified coefficient on "
                 "200 profiles per dimension; critical coupling rejected")


def test_criterion_08_lattice_partition():
    for n in (1, 2, 3):
        lp = LatticePartition(n)
        rng = np.random.default_rng(300 + n)
        pts = rng.uniform(0.0, lp.spacing, size=(1000, n))
        for p in pts:
            assert abs(lp.sum_of_squares(p) - 1.0) < 1e-10
            assert np.abs(lp.cross_term(p)).max() < 1e-10
        cell = np.linspace(0.0, lp.spacing, 7)
        mesh = np.meshgrid(*([cell] * n), indexing="ij")
        for p in np.stack([m.ravel() for m in mesh], axis=1):
            assert lp.unnormalized_sq_sum(p) >= 0.5
    _announce(8, "sum of squares is 1 to 1e-10 at 10^3 points per dimension; "
                 "unnormalized sum >= 1/2 on the cell; cross terms cancel")


def test_criterion_09_support_laws():
    for ndim in (1, 2):
        rng = np.random.default_rng(500 + ndim)
        shape = (64,) if ndim == 1 else (16, 16)
        bbox = ((0.0, 1.0),) * ndim
        failures = 0
        for _ in range(1000):
            mask = rng.random(shape) > 0.3
            f = GridFunction(bbox, rng.standard_normal(shape)
                             * (rng.random(shape) > 0.5), mask)
            g = GridFunction(bbox, rng.standard_normal(shape)
                             * (rng.random(shape) > 0.5), mask)
            if not check_support_laws(f, g).all_passed:
                failures += 1
        assert failures == 0, ndim
    _announce(9, "support-calculus laws held on 10^3 randomized pairs "
                 "per dimension with zero failures")


def test_criterion_10_classical_cross_checks():
    cert3 = essential_selfadjointness(SingularityConfig(3, (
        PlacedSingularity((0.0, 0.0, 0.0), InverseSquarePoint(0.0, 1.0)),)))
    assert cert3.total.def_value == 1
    for n in range(4, 9):
        cert = essential_selfadjointness(SingularityConfig(n, (
            PlacedSingularity((0.0,) * n, InverseSquarePoint(0.0, 1.0)),)))
        assert cert.total.def_value == 0, n
    # channel-level numeric corroboration away from the exact threshold
    assert channel_oracle_count(3, 0.0, 0) == 1
    assert channel_oracle_count(3, 0.0, 1) == 0
    for n in (5, 6, 7, 8):
        assert channel_oracle_count(n, 0.0, 0) == 0
    _announce(10, "free-Laplacian cross-checks: defect 1 in dimension 3, "
                  "0 for dimensions 4-8, corroborated per channel")


def test_criterion_11_golden_reports(capsys):
    for name in ("single_point_n3", "five_mixed_n3", "lattice_z2_r3"):
        cli.run(["defect", "--config", str(CONFIGS / f"{name}.json")])
        out = capsys.readouterr().out
        obj = json.loads(out)
        obj.pop("timing_seconds", None)
        regenerated = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        expected = (GOLDEN / f"{name}.report.json").read_text()
        assert regenerated == expected, name
    _announce(11, "three checked-in configs reproduced byte-identical "
                  "certificates")
