"""Bit-for-bit pin of the window kernel.

``tests/data/kernel_pin.json`` holds ``_kernels.window_integrals`` outputs
as ``float.hex`` strings for a few endpoint problems, so any change to the
kernel's arithmetic shows as an exact mismatch.  Each case also records a
SHA-256 of its coefficient table: a mismatch there means the table builder
changed, not the kernel.  Re-record only for a deliberate change to the
kernel's numerics:

    PYTHONPATH=src python tests/test_kernel_pin.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from defectsum import _kernels
from defectsum.weyl import DEFAULT_SETTINGS, _build_table

FIXTURE = Path(__file__).parent / "data" / "kernel_pin.json"

# name -> (potential, parameters, direction, windows, Im z, step budget)
CASES = {
    "inner_q0=-5_z=+i": ("inverse_square", (-5.0,), -1, 40, 1.0, None),
    "inner_q0=-5_z=-i": ("inverse_square", (-5.0,), -1, 40, -1.0, None),
    "inner_q0=0.3_z=+i": ("inverse_square", (0.3,), -1, 40, 1.0, None),
    "inner_q0=0.3_z=-i": ("inverse_square", (0.3,), -1, 40, -1.0, None),
    "inner_q0=2_z=+i": ("inverse_square", (2.0,), -1, 40, 1.0, None),
    "inner_q0=2_z=-i": ("inverse_square", (2.0,), -1, 40, -1.0, None),
    "shell_beta=1_gamma=1.5_z=+i": ("shell", (1.0, 1.5), -1, 40, 1.0, None),
    "outer_q0=2_z=+i": ("inverse_square", (2.0,), +1, 4, 1.0, None),
    "budget_q0=2_max_steps=3": ("inverse_square", (2.0,), -1, 40, 1.0, 3),
    "outer_budget_q0=2_max_steps=60": ("inverse_square", (2.0,), +1, 8, 1.0, 60),
}


def _potential(kind, params):
    if kind == "inverse_square":
        (q0,) = params
        return (lambda r: q0 / np.asarray(r, dtype=float) ** 2), 1.0
    # one-sided shell in the distance variable, as channels builds it
    beta, gamma = params
    return (lambda s: beta * np.asarray(s, dtype=float) ** (-gamma)), 0.5


def run_case(name):
    kind, params, direction, n_win, z_imag, budget = CASES[name]
    q, anchor = _potential(kind, params)
    w, t_lo, dt, t_anchor = _build_table(q, anchor, direction, n_win,
                                         DEFAULT_SETTINGS)
    status, n_done, l00, l11, cre, cim, logscale = _kernels.window_integrals(
        w, t_lo, dt, t_anchor, anchor, n_win, float(direction), 0.0, z_imag,
        DEFAULT_SETTINGS.rtol,
        DEFAULT_SETTINGS.max_steps_per_window if budget is None else budget,
    )
    return {
        "table_sha256": hashlib.sha256(np.ascontiguousarray(w).tobytes()).hexdigest(),
        "status": int(status),
        "n_done": int(n_done),
        "L00": _hexes(l00),
        "L11": _hexes(l11),
        "CRe": _hexes(cre),
        "CIm": _hexes(cim),
        "logscale": float(logscale).hex(),
    }


def _hexes(values):
    return [float(x).hex() for x in values]


@pytest.fixture(scope="module")
def recorded():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_window_integrals_bit_identical(name, recorded):
    expected = recorded[name]
    got = run_case(name)
    assert got["table_sha256"] == expected["table_sha256"], \
        "coefficient table changed; the pin only covers the kernel"
    for key in ("status", "n_done", "logscale", "L00", "L11", "CRe", "CIm"):
        assert got[key] == expected[key], key


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(
        json.dumps({name: run_case(name) for name in CASES}, indent=1) + "\n",
        encoding="utf-8")
    print(f"wrote {FIXTURE}")
