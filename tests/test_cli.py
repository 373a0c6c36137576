import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from defectsum import cli
from defectsum._gridtable import load_grid
from defectsum.support import GridFunction

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, out


def normalized_report(text: str) -> str:
    obj = json.loads(text)
    obj.pop("timing_seconds", None)
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# Exit codes


def test_exit_zero_for_self_adjoint(tmp_path, capsys):
    cfg = {
        "version": 1, "dimension": 5, "background": {"sup_norm": 0.0},
        "singularities": [
            {"kind": "point", "position": [0.0] * 5, "coupling": 0.0,
             "cutoff": 1.0, "perturbation": None},
        ],
        "lattice": None, "declared_epsilon": None,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, ["certify", "--config", str(path)])
    assert code == 0
    assert json.loads(out)["certificate"]["verdict"] == "essentially_self_adjoint"


def test_exit_one_for_positive_defect(capsys):
    code, out = run_cli(
        capsys, ["defect", "--config", str(CONFIGS / "single_point_n3.json")])
    assert code == 1
    report = json.loads(out)
    assert report["certificate"]["total"]["def"] == 1


def test_exit_two_for_overlapping_supports(tmp_path, capsys):
    cfg = {
        "version": 1, "dimension": 3, "background": {"sup_norm": 0.0},
        "singularities": [
            {"kind": "point", "position": [0.0, 0.0, 0.0], "coupling": 0.0,
             "cutoff": 1.0, "perturbation": None},
            {"kind": "point", "position": [1.5, 0.0, 0.0], "coupling": 0.0,
             "cutoff": 1.0, "perturbation": None},
        ],
        "lattice": None, "declared_epsilon": None,
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    code = cli.run(["certify", "--config", str(path)])
    assert code == 2


def test_exit_two_for_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "dimension": 3, "oops": True}))
    assert cli.run(["defect", "--config", str(path)]) == 2


def test_exit_three_for_indeterminate(capsys):
    code, out = run_cli(capsys, ["classify", "--coupling", "0.75"])
    assert code == 3
    assert json.loads(out)["numeric"] == "indeterminate"


def test_exit_zero_for_lattice_all_couplings_admissible(tmp_path, capsys):
    cfg = {
        "version": 1, "dimension": 5, "background": {"sup_norm": 0.0},
        "singularities": [],
        "lattice": {
            "basis": [[1.0, 0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0]],
            "origin": [0.0] * 5,
            "region": "infinite",
            "spec": {"kind": "point", "coupling": 0.0, "cutoff": 0.25,
                     "perturbation": None},
        },
        "declared_epsilon": None,
    }
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, ["certify", "--config", str(path)])
    assert code == 0
    assert json.loads(out)["certificate"]["verdict"] == "essentially_self_adjoint"


def test_exit_three_for_indeterminate_certificate(tmp_path, capsys):
    cfg = {
        "version": 1, "dimension": 3, "background": {"sup_norm": 0.0},
        "singularities": [
            {"kind": "shell", "position": [0.0, 0.0, 0.0], "strength": 0.75,
             "exponent": 2.0, "shell_radius": 0.25, "cutoff": 0.5},
        ],
        "lattice": None, "declared_epsilon": None,
    }
    path = tmp_path / "ind.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, ["defect", "--config", str(path)])
    assert code == 3
    assert json.loads(out)["certificate"]["verdict"] == "indeterminate"


def test_exit_three_for_unresolved_shell(tmp_path, capsys):
    # the oracle overflows on this valid shell: indeterminate with a reason,
    # not exit 2 for invalid input
    cfg = {
        "version": 1, "dimension": 3, "background": {"sup_norm": 0.0},
        "singularities": [
            {"kind": "shell", "position": [0.0, 0.0, 0.0], "strength": 1.0,
             "exponent": 30.0, "shell_radius": 0.25, "cutoff": 0.5},
        ],
        "lattice": None, "declared_epsilon": None,
    }
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, ["defect", "--config", str(path)])
    assert code == 3
    cert = json.loads(out)["certificate"]
    assert cert["verdict"] == "indeterminate"
    assert cert["table"][0]["evidence"]["indeterminate_reason"].startswith(
        "NonFiniteCoefficient: coefficient non-finite at distance s =")


def test_two_point_example_totals(tmp_path, capsys):
    # couplings 0 and -3 in dimension 3: per-piece defects 1 and 4, total 5
    cfg = {
        "version": 1, "dimension": 3, "background": {"sup_norm": 0.0},
        "singularities": [
            {"kind": "point", "position": [0.0, 0.0, 0.0], "coupling": 0.0,
             "cutoff": 1.0, "perturbation": None},
            {"kind": "point", "position": [4.0, 0.0, 0.0], "coupling": -3.0,
             "cutoff": 1.0, "perturbation": None},
        ],
        "lattice": None, "declared_epsilon": None,
    }
    path = tmp_path / "two.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, ["defect", "--config", str(path)])
    assert code == 1
    rep = json.loads(out)
    assert [e["record"]["def"] for e in rep["certificate"]["table"]] == [1, 4]
    assert rep["certificate"]["total"]["def"] == 5


def test_mixed_example_totals(capsys):
    code, out = run_cli(
        capsys, ["defect", "--config", str(CONFIGS / "five_mixed_n3.json")])
    assert code == 1
    rep = json.loads(out)
    assert [e["record"]["def"] for e in rep["certificate"]["table"]] == [0, 1, 4, 0, 0]
    assert rep["certificate"]["total"]["def"] == 5


# ---------------------------------------------------------------------------
# Determinism and goldens


def test_identical_inputs_identical_reports(capsys):
    argv = ["defect", "--config", str(CONFIGS / "single_point_n3.json")]
    _, first = run_cli(capsys, argv)
    _, second = run_cli(capsys, argv)
    assert normalized_report(first) == normalized_report(second)


@pytest.mark.parametrize("name", [
    "single_point_n3", "five_mixed_n3", "lattice_z2_r3"])
def test_golden_reports(name, capsys):
    code, out = run_cli(
        capsys, ["defect", "--config", str(CONFIGS / f"{name}.json")])
    expected = (GOLDEN / f"{name}.report.json").read_text()
    assert normalized_report(out) == expected


# ---------------------------------------------------------------------------
# Other subcommands


def test_classify_reports_both_routes(capsys):
    code, out = run_cli(capsys, ["classify", "--coupling", "2.0"])
    assert code == 0
    rep = json.loads(out)
    assert rep["closed_form"] == "limit_point"
    assert rep["numeric"] == "limit_point"
    assert rep["nu_hat"] == pytest.approx(1.5, abs=1e-6)


def test_classify_outer_endpoint(capsys):
    code, out = run_cli(capsys, ["classify", "--coupling", "0.0",
                                 "--endpoint", "outer"])
    assert code == 0
    rep = json.loads(out)
    assert rep["closed_form"] is None
    assert rep["numeric"] == "limit_point"


def test_classify_z_minus_matches_plus(capsys):
    _, plus = run_cli(capsys, ["classify", "--coupling", "-1.0", "--z", "plus"])
    _, minus = run_cli(capsys, ["classify", "--coupling", "-1.0", "--z", "minus"])
    assert json.loads(plus)["numeric"] == json.loads(minus)["numeric"]


def test_bounds_subcommand(capsys):
    code, out = run_cli(capsys, [
        "bounds", "--local-a", "0.5", "--local-b", "0", "--kind", "operator",
        "--part-c", "1", "--part-d", "2", "--part-e", "3",
        "--commutator-etilde", "2", "--commutator-eps", "1",
        "--gate-eps", "2", "--gate-e", "0",
    ])
    rep = json.loads(out)
    assert rep["localized"] == {"a": 1.0, "b": 1.5, "kind": "operator"}
    assert rep["defect_invariance"] is False
    assert code == 1
    assert rep["commutator_constants"] == {"d": 2.0, "e": 4.0}
    assert rep["commutator_gate"] == {"coef_T": 0.5, "coef_I": 0.0}


def test_bounds_hardy(capsys):
    code, out = run_cli(capsys, [
        "bounds", "--hardy-n", "3", "--hardy-gamma", "0.2",
        "--hardy-trials", "25"])
    assert code == 0
    rep = json.loads(out)
    assert rep["hardy"]["bound"]["a"] == pytest.approx(0.8)
    assert rep["hardy"]["oracle_max_ratio"] <= 0.8 + 1e-6


def test_support_check_subcommand(tmp_path, capsys):
    rng = np.random.default_rng(12)
    f = GridFunction(((0.0, 1.0), (0.0, 1.0)), rng.standard_normal((16, 16)))
    g = GridFunction(((0.0, 1.0), (0.0, 1.0)), rng.standard_normal((16, 16)))
    fp, gp = tmp_path / "f.json", tmp_path / "g.json"
    f.save(fp)
    g.save(gp)
    code, out = run_cli(capsys, ["support-check", "--grid", str(fp),
                                 "--grid2", str(gp)])
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_partition_subcommand(capsys, tmp_path):
    cfg = {
        "version": 1, "dimension": 2, "background": {"sup_norm": 0.0},
        "singularities": [
            {"kind": "point", "position": [0.0, 0.0], "coupling": 1.0,
             "cutoff": 0.5, "perturbation": None},
            {"kind": "point", "position": [3.0, 0.0], "coupling": 0.0,
             "cutoff": 0.5, "perturbation": None},
        ],
        "lattice": None, "declared_epsilon": None,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, ["partition", "--config", str(path)])
    assert code == 0
    rep = json.loads(out)
    assert rep["passed"] is True
    assert rep["constants"]["beta"] == pytest.approx(4 * rep["constants"]["e"])


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "defectsum.cli", "classify", "--coupling", "5.0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["numeric"] == "limit_point"


def test_text_format(capsys):
    code, out = run_cli(capsys, ["classify", "--coupling", "2.0",
                                 "--format", "text"])
    assert code == 0
    assert "numeric: limit_point" in out


def test_partition_export_grid(capsys, tmp_path):
    cfg = {
        "version": 1, "dimension": 2, "background": {"sup_norm": 0.0},
        "singularities": [
            {"kind": "point", "position": [0.0, 0.0], "coupling": 1.0,
             "cutoff": 0.5, "perturbation": None},
            {"kind": "point", "position": [3.0, 0.0], "coupling": 0.0,
             "cutoff": 0.5, "perturbation": None},
        ],
        "lattice": None, "declared_epsilon": None,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    grid = tmp_path / "grid.json"
    code, out = run_cli(capsys, ["partition", "--config", str(path),
                                 "--export-grid", str(grid)])
    assert code == 0
    assert json.loads(out)["exported_grid"] == str(grid)
    bbox, values, mask, _ = load_grid(grid)
    assert values.shape == (33, 33) and mask is None
    assert values.min() >= 0.0 and values.max() <= 1.0
    # the grid is centred on the first singularity, inside the plateau,
    # and its corners lie beyond the support
    assert values[16, 16] == 1.0 and values[0, 0] == 0.0
    assert bbox[0][0] < 0.0 < bbox[0][1]
