import pytest

from defectsum.core import (
    Background,
    INF,
    InverseSquarePoint,
    LatticeGenerator,
    PlacedSingularity,
    PowerProfile,
    Shell,
    SingularityConfig,
    add_defects,
    validate_config,
)
from defectsum.decouple import (
    aggregate_defect,
    essential_selfadjointness,
    localize,
)
from defectsum.errors import UnboundedRemainder


def _points_config(n, couplings, delta=1.0, spacing=4.0):
    sing = tuple(
        PlacedSingularity((spacing * i,) + (0.0,) * (n - 1),
                          InverseSquarePoint(c, delta))
        for i, c in enumerate(couplings)
    )
    return SingularityConfig(n, sing)


# ---------------------------------------------------------------------------
# Localization


def test_localize_monotone_profile_sup_at_inner_edge():
    # c/r^2 with c=1, eps=1, delta=2: sup over [1/2, 2] is 4
    cfg = SingularityConfig(3, (
        PlacedSingularity((0.0, 0.0, 0.0), InverseSquarePoint(1.0, 2.0)),
        PlacedSingularity((5.0, 0.0, 0.0), InverseSquarePoint(0.0, 2.0)),
    ))
    loc = localize(validate_config(cfg))
    assert loc.epsilon == pytest.approx(1.0)
    assert loc.pieces[0].remainder_sup == pytest.approx(4.0, rel=1e-6)


def test_localize_zero_profile():
    cfg = SingularityConfig(3, (
        PlacedSingularity((0.0, 0.0, 0.0), InverseSquarePoint(0.0, 1.0)),
        PlacedSingularity((3.0, 0.0, 0.0), InverseSquarePoint(0.0, 1.0)),
    ))
    loc = localize(validate_config(cfg))
    assert loc.pieces[0].remainder_sup == 0.0


def test_localize_attractive_analytic_value():
    # |c| / (eps/2)^2 with c=-2, eps=0.5, delta=1 gives 32
    cfg = SingularityConfig(3, (
        PlacedSingularity((0.0, 0.0, 0.0), InverseSquarePoint(-2.0, 1.0)),
        PlacedSingularity((2.5, 0.0, 0.0), InverseSquarePoint(0.0, 1.0)),
    ))
    v = validate_config(cfg)
    assert v.epsilon == pytest.approx(0.5)
    loc = localize(v)
    assert loc.pieces[0].remainder_sup == pytest.approx(32.0, rel=1e-6)


def test_localize_shell_crossing_split_radius_rejected():
    # shell sphere outside the localization ball leaves an unbounded annulus
    cfg = SingularityConfig(3, (
        PlacedSingularity((0.0, 0.0, 0.0), Shell(1.0, 1.0, 0.4, 0.5)),
        PlacedSingularity((1.5, 0.0, 0.0), InverseSquarePoint(0.0, 0.5)),
    ))
    v = validate_config(cfg)  # eps = 0.5, split radius 0.25 < r0 = 0.4
    with pytest.raises(UnboundedRemainder):
        localize(v)


def test_localize_single_singularity_no_split():
    cfg = SingularityConfig(3, (
        PlacedSingularity((0.0, 0.0, 0.0), InverseSquarePoint(-2.0, 1.0)),))
    loc = localize(validate_config(cfg))
    assert loc.epsilon == INF
    assert loc.pieces[0].remainder_sup == 0.0


# ---------------------------------------------------------------------------
# Aggregation


def test_aggregate_three_points():
    cert = essential_selfadjointness(_points_config(3, (0.0, -1.0, 2.0)))
    assert [e.record.def_value for e in cert.entries] == [1, 1, 0]
    assert cert.total.def_value == 2
    assert cert.verdict == "positive_defect"
    assert cert.first_violation == 0


def test_aggregate_additivity_matches_singletons():
    couplings = (0.5, -0.25, -3.0, 1.0)
    cert = essential_selfadjointness(_points_config(3, couplings))
    singles = [
        essential_selfadjointness(_points_config(3, (c,))).total
        for c in couplings
    ]
    assert cert.total == add_defects(singles)


def test_lattice_infinite_zero_orbit():
    lat = LatticeGenerator(
        tuple(tuple(1.0 if j == i else 0.0 for j in range(5)) for i in range(2)),
        (0.0,) * 5, InverseSquarePoint(0.0, 0.25))
    cert = essential_selfadjointness(SingularityConfig(5, lattice=lat))
    assert cert.total.def_value == 0
    assert cert.verdict == "essentially_self_adjoint"
    assert cert.lattice_multiplicity == "inf"


def test_lattice_infinite_positive_orbit():
    lat = LatticeGenerator(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (0.0,) * 3,
                           InverseSquarePoint(0.0, 0.25))
    cert = essential_selfadjointness(SingularityConfig(3, lattice=lat))
    assert cert.total.def_value == INF
    assert cert.verdict == "infinite_defect"


def test_lattice_finite_region_counts():
    lat = LatticeGenerator(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (0.0,) * 3,
                           InverseSquarePoint(0.0, 0.25), ((-1, 1), (-1, 1)))
    cert = essential_selfadjointness(SingularityConfig(3, lattice=lat))
    assert cert.lattice_multiplicity == 9
    assert cert.total.def_value == 9


def test_empty_background_only_config():
    cert = essential_selfadjointness(SingularityConfig(3, background=Background(2.0)))
    assert cert.verdict == "essentially_self_adjoint"
    assert cert.total.def_value == 0


def test_mixed_shell_dominates_to_infinity():
    cfg = SingularityConfig(3, (
        PlacedSingularity((0.0, 0.0, 0.0), InverseSquarePoint(0.0, 0.5)),
        PlacedSingularity((3.0, 0.0, 0.0), Shell(1.0, 0.5, 0.2, 0.5)),
    ))
    cert = essential_selfadjointness(cfg)
    assert cert.total.def_value == INF
    assert cert.verdict == "infinite_defect"


# ---------------------------------------------------------------------------
# Invariances


def test_translation_invariance():
    base = _points_config(3, (0.0, -1.0, 2.0))
    shifted = SingularityConfig(3, tuple(
        PlacedSingularity(tuple(x + 7.5 for x in s.position), s.spec)
        for s in base.singularities))
    a = essential_selfadjointness(base)
    b = essential_selfadjointness(shifted)
    assert a.total == b.total
    assert [e.record for e in a.entries] == [e.record for e in b.entries]


def test_permutation_invariance_of_table():
    couplings = (0.5, -0.25, -3.0)
    a = essential_selfadjointness(_points_config(3, couplings))
    b = essential_selfadjointness(_points_config(3, couplings[::-1]))
    assert sorted(repr(e.record) for e in a.entries) == \
        sorted(repr(e.record) for e in b.entries)
    assert a.total == b.total


def test_localization_radius_does_not_change_defects():
    cfg = _points_config(3, (-2.0, 1.0))
    v = validate_config(cfg)
    full = aggregate_defect(localize(v))
    shrunk = aggregate_defect(localize(v, split_radius=v.epsilon / 8.0))
    assert full.total == shrunk.total
    assert [e.record for e in full.entries] == [e.record for e in shrunk.entries]
    # remainder bounds do change
    assert shrunk.remainder_bound >= full.remainder_bound


def test_verdict_soundness():
    for couplings in ((1.0, 2.0), (0.0,), (-3.0, 5.0)):
        cert = essential_selfadjointness(_points_config(3, couplings))
        assert (cert.verdict == "essentially_self_adjoint") == \
            (cert.total.def_value == 0)


def test_first_violation_points_to_offender():
    # n=3 thresholds: 1.0 passes (>= 3/4), 0.5 fails
    cert = essential_selfadjointness(_points_config(3, (1.0, 0.5)))
    assert cert.verdict == "positive_defect"
    assert cert.first_violation == 1


def test_borderline_shell_yields_indeterminate_certificate():
    cfg = SingularityConfig(3, (
        PlacedSingularity((0.0, 0.0, 0.0), Shell(0.75, 2.0, 0.25, 0.5)),))
    cert = essential_selfadjointness(cfg)
    assert cert.verdict == "indeterminate"
    assert cert.total is None
    assert cert.entries[0].record is None
    assert cert.entries[0].evidence["indeterminate_band"] > 0


def test_custom_radial_uses_declared_coupling():
    from defectsum.core import CustomRadial
    spec = CustomRadial(radii=(0.1, 0.2, 0.5, 1.0), values=(1.0, 0.5, 0.2, 0.0),
                        delta=1.0, endpoint_coupling=0.0)
    cert = essential_selfadjointness(
        SingularityConfig(3, (PlacedSingularity((0.0, 0.0, 0.0), spec),)))
    assert cert.total.def_value == 1
    assert cert.entries[0].evidence["declared_coupling"] == 0.0


def test_perturbed_point_same_defect():
    # an integrable-class perturbation leaves the closed-form defect alone
    spec = InverseSquarePoint(0.0, 1.0, PowerProfile(2.0, -0.5))
    cfg = SingularityConfig(3, (PlacedSingularity((0.0, 0.0, 0.0), spec),))
    cert = essential_selfadjointness(cfg)
    assert cert.total.def_value == 1
