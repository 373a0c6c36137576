"""The benchmark's own tests: python3 -m pytest perfbench/test_perfbench.py"""

import itertools
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest

import reference
import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def labels(workload, seed, workdir, count=60):
    workdir.mkdir()
    ops = workloads.stream(workload, seed, "p0", str(workdir))
    return [label for label, _, _ in itertools.islice(ops, count)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streams_are_deterministic_per_seed(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    a = labels(workload, 7, tmp_path / "a")
    assert a == labels(workload, 7, tmp_path / "b")
    assert a != labels(workload, 8, tmp_path / "c")


def test_generated_configs_are_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    written = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        ops = workloads.stream("certificate_batch", 3, "p1", str(tmp_path / name))
        list(itertools.islice(ops, 40))
        written.append({p.name: p.read_text() for p in (tmp_path / name).iterdir()})
    assert written[0] == written[1]
    assert len(written[0]) > 30


@pytest.mark.parametrize("seed", [1, 2])
def test_generated_configs_are_valid_inputs(seed, tmp_path, monkeypatch):
    # every generated config must pass validation and localization, so that
    # an exit code 2 in the benchmark always means a program fault
    from defectsum import core, decouple

    monkeypatch.chdir(ROOT)
    ops = workloads.stream("certificate_batch", seed, "p0", str(tmp_path))
    list(itertools.islice(ops, 400))
    for path in tmp_path.iterdir():
        cfg = core.load_config(str(path))
        decouple.localize(core.validate_config(cfg))


def test_point_reference_known_cases():
    assert reference.point_defect(3, 0.0) == 1
    for n in range(4, 9):
        assert reference.point_defect(n, 0.0) == 0
    # one more channel opens for each full step of the l = 1 threshold
    assert reference.point_defect(3, -1.5) == 1 + 3


def test_harmonic_dimensions():
    assert [reference.harmonic_dimension(2, l) for l in range(4)] == [1, 2, 2, 2]
    assert [reference.harmonic_dimension(3, l) for l in range(4)] == [1, 3, 5, 7]
    assert [reference.harmonic_dimension(4, l) for l in range(4)] == [1, 4, 9, 16]


def test_shell_rule():
    assert reference.shell_class(1.0, 1.99) == "limit_circle"
    assert reference.shell_class(0.5, 2.0) == "limit_circle"
    assert reference.shell_class(1.0, 2.0) == "limit_point"
    assert reference.shell_class(-1.0, 3.0) == "limit_circle"
    assert reference.shell_class(1.0, 3.0) == "limit_point"


def test_known_defect_bands_hold_the_known_wrong_shells():
    # shell_defect(3, Shell(beta, 1.99, ...)) returns 0 for these; the rule gives infinity
    for beta in (1.0, 2.5):
        assert reference.shell_defect(beta, 1.99) == reference.INF
        assert reference.known_shell_defect(beta, 1.99)
    assert not reference.known_shell_defect(1.0, 1.89)
    assert not reference.known_shell_defect(0.5, 1.99)
    assert not reference.known_shell_defect(1.0, 2.0)
    assert reference.known_perturbed_defect(-1.98)
    assert not reference.known_perturbed_defect(-1.5)


def test_wrong_inside_a_band_is_known_and_still_not_ok():
    assert workloads._classified("limit_point", "limit_circle", True) == "known_wrong"
    assert workloads._classified("limit_point", "limit_circle", False) == "wrong"
    assert workloads._classified("limit_circle", "limit_circle", True) == "ok"
    assert workloads._classified("indeterminate", "limit_circle", False) == "indeterminate"


def _report(code, entries, total, verdict):
    table = [{"record": {"def": "inf" if e == reference.INF else e}} for e in entries]
    return code, json.dumps({"certificate": {
        "table": table, "total": {"def": "inf" if total == reference.INF else total},
        "verdict": verdict}}), ""


def test_certificate_wrong_only_through_known_shells_is_known():
    shell = {"kind": "shell", "strength": 2.5, "exponent": 1.99, "shell_radius": 0.3,
             "cutoff": 0.6}
    point = {"kind": "point", "coupling": 0.0, "cutoff": 0.5, "perturbation": None}
    cfg = {"dimension": 3, "singularities": [point, shell], "lattice": None}
    _, _, check = workloads.certificate_op(None, "cfg", "cfg.json", cfg)
    # the shell came back 0, and the rest of the certificate follows from that
    assert check(_report(1, [1, 0], 1, "positive_defect"))[0] == "known_wrong"
    # the same shell, but the total does not follow from the entries
    assert check(_report(0, [1, 0], 0, "essentially_self_adjoint"))[0] == "wrong"
    # a wrong point is never known
    assert check(_report(1, [2, reference.INF], reference.INF, "infinite_defect"))[0] \
        == "wrong"
    assert check(_report(1, [1, reference.INF], reference.INF, "infinite_defect"))[0] == "ok"
    shell["exponent"] = 1.5
    _, _, check = workloads.certificate_op(None, "cfg", "cfg.json", cfg)
    assert check(_report(1, [1, 0], 1, "positive_defect"))[0] == "wrong"


@pytest.mark.parametrize("name", workloads.CHECKED_IN)
def test_checked_in_configs_match_their_golden_totals(name):
    with open(os.path.join(ROOT, "configs", f"{name}.json"), encoding="utf-8") as fh:
        expected = reference.expected_certificate(json.load(fh))
    with open(os.path.join(ROOT, "tests", "golden", f"{name}.report.json"),
              encoding="utf-8") as fh:
        golden = json.load(fh)["certificate"]
    assert reference.defect_from_json(golden["total"]["def"]) == expected["total"]
    assert golden["verdict"] == expected["verdict"]
    assert [reference.defect_from_json(e["record"]["def"]) for e in golden["table"]] \
        == expected["entries"]


def test_lattice_reference_scales_by_site_count():
    spec = {"kind": "point", "coupling": 0.0, "cutoff": 0.25, "perturbation": None}
    cfg = {"dimension": 3, "singularities": [], "lattice": {
        "basis": [[1.0, 0, 0]], "origin": [0.0] * 3, "region": [[0, 4]], "spec": spec}}
    assert reference.expected_certificate(cfg)["total"] == 5
    cfg["lattice"]["region"] = "infinite"
    assert reference.expected_certificate(cfg)["total"] == reference.INF


def test_metric_names_and_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(n) for n in names), names
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS
