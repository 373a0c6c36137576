import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from defectsum.core import (
    Background,
    DefectRecord,
    INF,
    InverseSquarePoint,
    LatticeGenerator,
    PlacedSingularity,
    PowerProfile,
    Shell,
    SingularityConfig,
    add_defects,
    config_from_json_dict,
    dump_config,
    load_config,
    validate_config,
)
from defectsum.errors import (
    ConfigFormatError,
    DeclaredEpsilonMismatch,
    DimensionTooLarge,
    EmptyConfig,
    SeparationViolation,
    UnsupportedPotential,
)


# ---------------------------------------------------------------------------
# DefectRecord


def test_make_defect_examples():
    assert DefectRecord(1, 1).def_value == 1
    assert DefectRecord(0, 0).def_value == 0
    assert DefectRecord(INF, 3).def_value == INF


def test_def_value_half_integer():
    assert DefectRecord(1, 2).def_value == 1.5
    assert DefectRecord(1, 2).to_json()["def"] == 1.5
    assert DefectRecord(1, 1).to_json()["def"] == 1


def test_restrict_extension_examples():
    assert DefectRecord(2, 2).restricted(1) == DefectRecord(1, 1)
    assert DefectRecord(7, 7).restricted(0) == DefectRecord(7, 7)
    assert DefectRecord(INF, INF).restricted(5) == DefectRecord(INF, INF)


def test_restrict_extension_too_large():
    with pytest.raises(DimensionTooLarge):
        DefectRecord(2, 2).restricted(3)
    with pytest.raises(DimensionTooLarge):
        DefectRecord(INF, 3).restricted(5)


def test_rejects_negative_and_float_indices():
    with pytest.raises(ValueError):
        DefectRecord(-1, 0)
    with pytest.raises(TypeError):
        DefectRecord(1.5, 0)


ext_nat = st.one_of(st.integers(min_value=0, max_value=50), st.just(INF))


@given(st.lists(st.tuples(ext_nat, ext_nat), min_size=0, max_size=8))
@hyp_settings(max_examples=200, deadline=None)
def test_extended_sum_order_independent(pairs):
    records = [DefectRecord(a, b) for a, b in pairs]
    total = add_defects(records)
    for perm in itertools.islice(itertools.permutations(records), 24):
        assert add_defects(perm) == total


records = st.builds(DefectRecord, ext_nat, ext_nat)


@given(records, records, records)
@hyp_settings(max_examples=200, deadline=None)
def test_defect_record_sum_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + DefectRecord(INF, INF) == DefectRecord(INF, INF)


@given(records, st.integers(min_value=1, max_value=12))
@hyp_settings(max_examples=200, deadline=None)
def test_scaled_is_repeated_sum(r, k):
    # k >= 1: a scaled record stands for the sites of a lattice region,
    # and a region holds at least one site
    assert r.scaled(1) == r
    assert r.scaled(k) == add_defects([r] * k)


def test_scaled_infinite_count():
    assert DefectRecord(1, 1).scaled(INF) == DefectRecord(INF, INF)
    assert DefectRecord(0, 0).scaled(INF) == DefectRecord(0, 0)
    assert DefectRecord(2, 2).scaled(3) == DefectRecord(6, 6)


# ---------------------------------------------------------------------------
# Potential specs


def test_point_spec_validation():
    with pytest.raises(ConfigFormatError):
        InverseSquarePoint(1.0, 0.0)
    with pytest.raises(ConfigFormatError):
        InverseSquarePoint(1.0, 1.0, PowerProfile(1.0, -2.5))
    spec = InverseSquarePoint(-2.0, 1.0, PowerProfile(1.0, -0.5))
    vals = spec.profile(np.array([0.5, 1.0]))
    assert vals[1] == pytest.approx(-2.0 + 1.0)


def test_shell_spec_validation():
    with pytest.raises(ConfigFormatError):
        Shell(1.0, 1.0, 1.0, 0.5)  # r0 >= delta
    spec = Shell(2.0, 0.5, 0.25, 0.6)
    assert spec.profile(0.25 + 0.04) == pytest.approx(2.0 * 0.04**-0.5)


def test_integrability_quadrature_values():
    from defectsum.core import integrability_norm
    # int_0^1 r * r^{-1/2} dr = 2/3
    got = integrability_norm(PowerProfile(1.0, -0.5), 1.0)
    assert got == pytest.approx(2.0 / 3.0, rel=1e-4)


def test_custom_radial_round_trip(tmp_path):
    from defectsum.core import CustomRadial
    spec = CustomRadial(radii=(0.1, 0.5, 1.0), values=(3.0, 1.0, 0.0),
                        delta=1.0, endpoint_coupling=-1.0)
    cfg = SingularityConfig(3, (PlacedSingularity((0.0, 0.0, 0.0), spec),))
    path = tmp_path / "custom.json"
    dump_config(cfg, path)
    assert load_config(path) == cfg


def test_dipole_rejected():
    obj = {"kind": "dipole", "position": [0, 0, 0]}
    with pytest.raises(UnsupportedPotential):
        config_from_json_dict({
            "version": 1, "dimension": 3, "background": {"sup_norm": 0.0},
            "singularities": [obj], "lattice": None, "declared_epsilon": None,
        })


# ---------------------------------------------------------------------------
# validate_config


def _point_at(pos, c=0.0, delta=1.0):
    return PlacedSingularity(tuple(pos), InverseSquarePoint(c, delta))


def test_two_points_distance_three():
    cfg = SingularityConfig(3, (_point_at((0, 0, 0)), _point_at((3, 0, 0))))
    assert validate_config(cfg).epsilon == pytest.approx(1.0)


def test_touching_balls_rejected():
    cfg = SingularityConfig(3, (_point_at((0, 0, 0)), _point_at((2, 0, 0))))
    with pytest.raises(SeparationViolation):
        validate_config(cfg)


def test_lattice_epsilon_z2_in_r3():
    lat = LatticeGenerator(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (0.0, 0.0, 0.0),
                           InverseSquarePoint(0.0, 0.25))
    got = validate_config(SingularityConfig(3, lattice=lat)).epsilon
    # independent oracle: brute-force pairwise distances on a truncation
    sites = [(i, j, 0.0) for i in range(-3, 4) for j in range(-3, 4)]
    min_dist = min(math.dist(a, b) for a, b in itertools.combinations(sites, 2))
    assert got == pytest.approx(min_dist - 2 * 0.25)
    assert got == pytest.approx(0.5)


def test_empty_config_rejected():
    with pytest.raises(EmptyConfig):
        validate_config(SingularityConfig(3))


def test_validation_permutation_invariant():
    rng = np.random.default_rng(3)
    points = [tuple(rng.uniform(0, 20, size=3)) for _ in range(6)]
    points = [tuple(5.0 * i + x for x in p) for i, p in enumerate(points)]
    sing = tuple(_point_at(p, delta=0.5) for p in points)
    eps = validate_config(SingularityConfig(3, sing)).epsilon
    perm = tuple(sing[i] for i in (3, 1, 5, 0, 4, 2))
    assert validate_config(SingularityConfig(3, perm)).epsilon == eps


def test_declared_epsilon_mismatch_warns():
    cfg = SingularityConfig(
        3, (_point_at((0, 0, 0)), _point_at((3, 0, 0))), declared_epsilon=0.9)
    with pytest.warns(DeclaredEpsilonMismatch):
        validate_config(cfg)


def test_lattice_truncations_converge_to_infinite_epsilon():
    spec = InverseSquarePoint(0.0, 0.25)
    basis = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    target = validate_config(
        SingularityConfig(3, lattice=LatticeGenerator(basis, (0.0,) * 3, spec))
    ).epsilon
    prev = INF
    for radius in (1, 2, 3):
        region = ((-radius, radius), (-radius, radius))
        lat = LatticeGenerator(basis, (0.0,) * 3, spec, region)
        sites = list(lat.sites())
        gap = min(math.dist(a, b) for a, b in itertools.combinations(sites, 2)) - 0.5
        eps = validate_config(SingularityConfig(3, lattice=lat)).epsilon
        assert eps == pytest.approx(gap)
        assert eps <= prev + 1e-12
        prev = eps
    assert prev == pytest.approx(target)


# ---------------------------------------------------------------------------
# Config file round trip


def test_config_round_trip(tmp_path):
    lat = LatticeGenerator(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), (0.5, 0.5, 0.0),
                           Shell(1.0, 0.5, 0.1, 0.2), ((-2, 2), (-2, 2)))
    cfg = SingularityConfig(3, lattice=lat, background=Background(0.25),
                            declared_epsilon=None)
    path = tmp_path / "cfg.json"
    dump_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg
    # a second round trip produces byte-identical text
    path2 = tmp_path / "cfg2.json"
    dump_config(loaded, path2)
    assert path.read_text() == path2.read_text()


def test_unknown_keys_are_hard_errors():
    with pytest.raises(ConfigFormatError):
        config_from_json_dict({
            "version": 1, "dimension": 3, "background": {"sup_norm": 0.0},
            "singularities": [], "lattice": None, "declared_epsilon": None,
            "extra": 1,
        })
    with pytest.raises(ConfigFormatError):
        config_from_json_dict({
            "version": 2, "dimension": 3, "background": {"sup_norm": 0.0},
            "singularities": [], "lattice": None, "declared_epsilon": None,
        })
