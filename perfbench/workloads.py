"""Seeded input streams and checked operations for the three workloads.

Each workload yields an endless stream of operations made only from its
seed.  An operation is ``(label, call, check)``: the benchmark times
``call()`` alone, then ``check(result)`` compares the output with the
closed-form reference in ``reference.py`` and returns one of "ok",
"wrong", "known_wrong" (wrong inside a known-defect band of ``reference``)
or "indeterminate" with a detail string.

The mix of input kinds, piece counts and dimensions follows fixed cycles,
and the parameters that set an operation's cost (couplings, shell
strength and exponent) are spread evenly over their ranges (see
``Draws``).  Every seed therefore runs the same mix over the full ranges,
only the values change, and one run measures the workload rather than
the luck of its draws.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import random

import numpy as np

import reference

WORKLOADS = ("endpoint_sweep", "certificate_batch", "cutoff_support")

# Layers each workload loads, in the README's module names.
LAYERS = {
    "endpoint_sweep": ["weyl"],
    "certificate_batch": ["cli", "core", "decouple", "channels", "weyl"],
    "cutoff_support": ["core", "partition", "bounds", "support"],
}

CHECKED_IN = ("single_point_n3", "five_mixed_n3", "lattice_z2_r3")

# steps of additive recurrences; irrational and rationally independent,
# so that two parameters spread together cover their square evenly
STEP_A = (math.sqrt(5.0) - 1.0) / 2.0
STEP_B = math.sqrt(2.0) - 1.0


class Draws:
    """Seeded input values.

    ``uniform`` draws independently.  ``spread`` walks the additive
    recurrence x_{i+1} = x_i + step (mod 1) from a seeded start, which
    fills [lo, hi] evenly at every length of the stream.  ``cycle`` steps
    through a fixed list from a seeded start.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self._state = {}

    def uniform(self, lo, hi):
        return round(self.rng.uniform(lo, hi), 6)

    def spread(self, key, lo, hi, step=STEP_A):
        x = self._state[key] if key in self._state else self.rng.random()
        self._state[key] = (x + step) % 1.0
        return round(lo + (hi - lo) * x, 6)

    def cycle(self, key, values):
        i = self._state[key] if key in self._state else self.rng.randrange(len(values))
        self._state[key] = i + 1
        return values[i % len(values)]


def stream_draws(workload: str, seed: int, part: str) -> Draws:
    return Draws(random.Random(f"{workload}|{seed}|{part}"))


def _coupling(draws, key):
    """q0 in [-5, 5], at least 1e-3 away from the threshold 3/4."""
    while True:
        q0 = draws.spread(key, -5.0, 5.0)
        if abs(q0 - reference.THRESHOLD) >= 1e-3:
            return q0


def _shell_params(draws):
    """beta in [-1, 3] and gamma in (0, 2]; one shell in seven has gamma = 2."""
    while True:
        beta = draws.spread("shell_beta", -1.0, 3.0, STEP_B)
        gamma = draws.cycle("gamma_is_2", (False,) * 6 + (True,))
        gamma = 2.0 if gamma else draws.spread("shell_gamma", 0.0, 2.0)
        if beta == 0.0 or gamma == 0.0:
            continue
        if gamma == 2.0 and abs(beta - reference.THRESHOLD) < 1e-3:
            continue
        return beta, gamma


def _classified(kind, expected, known):
    if kind == "indeterminate":
        return "indeterminate"
    if kind == expected:
        return "ok"
    return "known_wrong" if known else "wrong"


# ---------------------------------------------------------------------------
# endpoint_sweep: one endpoint classification per operation


SWEEP_CYCLE = ("inverse_square", "perturbed", "inverse_square", "shell")


def sweep_problem(draws, kind):
    """(label, problem arguments, expected class, in a known-defect band)."""
    if kind == "inverse_square":
        q0 = _coupling(draws, "q0")
        return (f"inverse_square q0={q0!r}", ("isq", q0),
                reference.inverse_square_class(q0), False)
    if kind == "perturbed":
        q0 = _coupling(draws, "pert_q0")
        a = draws.uniform(-2.0, 2.0)
        p = -2.0
        while p <= -2.0:
            p = draws.spread("pert_p", -2.0, 2.0, STEP_B)
        return (f"perturbed q0={q0!r} a={a!r} p={p!r}", ("pert", q0, a, p),
                reference.inverse_square_class(q0), reference.known_perturbed_defect(p))
    beta, gamma = _shell_params(draws)
    s_max = draws.uniform(0.1, 1.0)
    anchor = round(draws.uniform(0.2, 0.8) * s_max, 6)
    return (f"shell beta={beta!r} gamma={gamma!r} s_max={s_max!r} anchor={anchor!r}",
            ("shell", beta, gamma, s_max, anchor), reference.shell_class(beta, gamma),
            reference.known_shell_defect(beta, gamma))


def build_problem(weyl, spec):
    tag = spec[0]
    if tag in ("isq", "outer"):
        q0 = spec[1]
        q = lambda r: q0 / np.asarray(r, dtype=float) ** 2
        return weyl.RadialProblem(q, (0.0, math.inf),
                                  math.inf if tag == "outer" else 0.0, 1.0)
    if tag == "pert":
        _, q0, a, p = spec
        q = lambda r: q0 / np.asarray(r, dtype=float) ** 2 \
            + a * np.asarray(r, dtype=float) ** p
        return weyl.RadialProblem(q, (0.0, math.inf), 0.0, 1.0)
    _, beta, gamma, s_max, anchor = spec
    q = lambda s: beta * np.asarray(s, dtype=float) ** (-gamma)
    return weyl.RadialProblem(q, (0.0, s_max), 0.0, anchor)


def classification_op(weyl, label, spec, expected, z, known=False):
    problem = build_problem(weyl, spec)

    def call():
        return weyl.classify_endpoint_detailed(problem, z)

    def check(result):
        cls, _ = result
        return (_classified(cls.kind, expected, known),
                f"got {cls.kind}, reference {expected}")

    return (f"{label} z={'+i' if z.imag > 0 else '-i'}", call, check)


def endpoint_sweep(seed, part, workdir):
    from defectsum import weyl

    draws = stream_draws("endpoint_sweep", seed, part)
    i = 0
    while True:
        kind = SWEEP_CYCLE[i % len(SWEEP_CYCLE)]
        label, spec, expected, known = sweep_problem(draws, kind)
        # z flips with each pass over the cycle, so every kind meets both
        z = 1j if (i // len(SWEEP_CYCLE)) % 2 == 0 else -1j
        yield classification_op(weyl, label, spec, expected, z, known)
        i += 1


def outer_probe(seed, count):
    """The fixed outer-endpoint (r -> infinity) classifications every run times."""
    from defectsum import weyl

    draws = stream_draws("outer", seed, "probe")
    for i in range(count):
        q0 = _coupling(draws, "q0")
        yield classification_op(weyl, f"outer q0={q0!r}", ("outer", q0),
                                "limit_point", 1j if i % 2 == 0 else -1j)


# ---------------------------------------------------------------------------
# certificate_batch: one in-process ``defectsum defect --config`` per operation

# shells of the explicit configs, in order; three in ten carry shells, so
# the median operation is a shell-free config and the slowest tenth are
# shell configs
SHELL_CYCLE = (0, 0, 1, 0, 0, 1, 0, 0, 0, 2)
LATTICE_EVERY = 8
LATTICE_SPECS = ("point", "custom", "shell", "point")


def _point_spec(draws, delta):
    spec = {"kind": "point", "coupling": draws.uniform(-5.0, 5.0), "cutoff": delta,
            "perturbation": None}
    roll = draws.rng.random()
    if roll < 0.3:
        p = -2.0
        while p <= -2.0:
            p = draws.uniform(-2.0, 2.0)
        spec["perturbation"] = {"kind": "power", "amplitude": draws.uniform(-1.0, 1.0),
                                "exponent": p}
    elif roll < 0.4:
        radii = sorted({round(draws.uniform(0.01, 1.0) * delta, 6) for _ in range(4)})
        spec["perturbation"] = {"kind": "samples", "radii": radii,
                                "values": [draws.uniform(-1.0, 1.0) for _ in radii]}
    return spec


def _custom_spec(draws, delta):
    radii = sorted({round(draws.uniform(0.01, 0.99) * delta, 6)
                    for _ in range(draws.rng.randint(2, 7))})
    radii.append(delta)
    coupling = None if draws.rng.random() < 0.3 else draws.uniform(-5.0, 5.0)
    return {"kind": "custom", "radii": radii, "cutoff": delta,
            "values": [draws.uniform(-2.0, 2.0) for _ in radii],
            "endpoint_coupling": coupling}


def _shell_spec(draws, delta, pool):
    """A new shell; every third one repeats an earlier shell of the batch."""
    if pool and draws.cycle("repeat", (False, False, True)):
        return dict(draws.rng.choice(pool))
    beta, gamma = _shell_params(draws)
    spec = {"kind": "shell", "strength": beta, "exponent": gamma,
            "shell_radius": round(draws.uniform(0.2, 0.8) * delta, 6), "cutoff": delta}
    pool.append(spec)
    return dict(spec)


def _spec(draws, kind, pool, max_delta):
    delta = draws.uniform(0.3, max_delta)
    if kind == "point":
        return _point_spec(draws, delta)
    if kind == "custom":
        return _custom_spec(draws, delta)
    return _shell_spec(draws, delta, pool)


def _config(n, singularities=(), lattice=None):
    return {"version": 1, "dimension": n, "background": {"sup_norm": 0.0},
            "singularities": list(singularities), "lattice": lattice,
            "declared_epsilon": None}


def explicit_config(draws, pool):
    """1-20 pieces, 4 apart along the first axis: every split radius covers
    its cutoff.  Piece counts spread over 1-20, small ones more often, so
    the cost of the shell-free configs varies smoothly around the median."""
    n = draws.cycle("n", (3, 4, 5, 6))
    k = 1 + int(20 * draws.spread("pieces", 0.0, 1.0) ** 2)
    shells = min(k, draws.cycle("shells", SHELL_CYCLE))
    customs = (k - shells) // 4
    kinds = ["shell"] * shells + ["custom"] * customs + ["point"] * (k - shells - customs)
    draws.rng.shuffle(kinds)
    items = []
    for i, kind in enumerate(kinds):
        spec = _spec(draws, kind, pool, 0.9)
        spec["position"] = [4.0 * i, draws.uniform(-0.1, 0.1)] + [0.0] * (n - 2)
        items.append(spec)
    return _config(n, items)


def lattice_config(draws, infinite):
    """Axis-aligned lattice; spacing at least 2.5 keeps shells inside the split."""
    n = draws.cycle("lattice_n", (3, 4, 5, 6))
    d = draws.cycle("lattice_d", (1, 2, 3))
    basis = []
    for j in range(d):
        v = [0.0] * n
        v[j] = draws.uniform(2.5, 4.0)
        basis.append(v)
    region = "infinite" if infinite else [[0, draws.rng.randint(0, 3)] for _ in range(d)]
    # a shell of the explicit configs may not fit between lattice sites: no repeats
    spec = _spec(draws, draws.cycle("lattice_spec", LATTICE_SPECS), [], 0.6)
    return _config(n, lattice={"basis": basis, "origin": [0.0] * n, "region": region,
                               "spec": spec})


def large_config(draws, count=300):
    """Hundreds of points on a cubic grid; the O(N^2) validation dominates."""
    side = math.ceil(count ** (1 / 3))
    items = []
    for idx in range(count):
        i, j, k = idx // (side * side), (idx // side) % side, idx % side
        items.append({"kind": "point", "position": [2.0 * i, 2.0 * j, 2.0 * k],
                      "coupling": draws.uniform(-5.0, 5.0), "cutoff": 0.6,
                      "perturbation": None})
    return _config(3, items)


def _entry_defects(report):
    return [None if e["record"] is None else reference.defect_from_json(e["record"]["def"])
            for e in report["certificate"]["table"]]


def _known_entries_only(cfg, specs, bad, got, result):
    """True if every wrong entry is a shell in a known-defect band and the
    rest of the certificate follows from the entries the package found."""
    if len(got) != len(specs) or not bad or any(
            got[i] is None or specs[i]["kind"] != "shell" or not reference.known_shell_defect(
                specs[i]["strength"], specs[i]["exponent"]) for i in bad):
        return False
    code, out, _ = result
    report = json.loads(out)["certificate"]
    implied = reference.expected_certificate(cfg, got)
    return (code, report["verdict"], reference.defect_from_json(report["total"]["def"])) \
        == (implied["exit_code"], implied["verdict"], implied["total"])


def certificate_op(cli, label, path, cfg, golden=None):
    expected = reference.expected_certificate(cfg)

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(["defect", "--config", path])
        return code, out.getvalue(), err.getvalue()

    def check(result):
        code, out, err = result
        if code == 2 or "Traceback" in err:
            raise RuntimeError(f"exit {code}: {err.strip()[:200]}")
        report = json.loads(out)
        report.pop("timing_seconds", None)
        if golden is not None and report != golden:
            return "wrong", "report differs from its golden file"
        if code == 3:
            return "indeterminate", "exit 3"
        got = _entry_defects(report)
        total = reference.defect_from_json(report["certificate"]["total"]["def"])
        verdict = report["certificate"]["verdict"]
        if (code, verdict, total, got) == (expected["exit_code"], expected["verdict"],
                                           expected["total"], expected["entries"]):
            return "ok", ""
        specs = reference.config_specs(cfg)
        bad = [i for i, (g, e) in enumerate(zip(got, expected["entries"])) if g != e]
        detail = (f"exit {code} {verdict} total {total}, reference "
                  f"{expected['verdict']} total {expected['total']}; " + "; ".join(
                      f"entry {i}: got {got[i]}, reference {expected['entries'][i]}, spec "
                      f"{json.dumps(specs[i], sort_keys=True)}" for i in bad[:3]))
        return ("known_wrong" if _known_entries_only(cfg, specs, bad, got, result)
                else "wrong"), detail

    return (label, call, check)


def _write(workdir, name, cfg):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def certificate_batch(seed, part, workdir):
    from defectsum import cli

    for name in CHECKED_IN:
        path = os.path.join("configs", f"{name}.json")
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
        with open(os.path.join("tests", "golden", f"{name}.report.json"),
                  encoding="utf-8") as fh:
            golden = json.load(fh)
        yield certificate_op(cli, path, path, cfg, golden)

    draws = stream_draws("certificate_batch", seed, part)
    pool = []
    cfg = large_config(draws)
    yield certificate_op(cli, "large 300-point config", _write(workdir, "large.json", cfg), cfg)
    i = 0
    while True:
        if i % LATTICE_EVERY == LATTICE_EVERY - 1:
            cfg = lattice_config(draws, infinite=(i // LATTICE_EVERY) % 2 == 0)
        else:
            cfg = explicit_config(draws, pool)
        name = f"cfg{i:05d}.json"
        digest = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()[:12]
        yield certificate_op(cli, f"{part}/{name} sha256:{digest}",
                             _write(workdir, name, cfg), cfg)
        i += 1


# ---------------------------------------------------------------------------
# cutoff_support: one partition, bounds or support verification per operation


# Three slow operations (family, verify, hardy) in twenty set p90 and most of
# the time; twelve support checks put the median inside one smooth cost range.
CUTOFF_CYCLE = ("family", "support", "lattice", "support", "lp", "support", "support",
                "verify", "support", "lattice", "support", "support", "hardy",
                "support", "lp", "support", "support", "lattice", "support", "support")


def _radial_points(nrng, center, radius):
    """Points at the given distances from center, in random directions."""
    dirs = nrng.standard_normal((len(radius), len(center)))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return np.asarray(center) + dirs * np.asarray(radius)[:, None]


def _verdict(problems):
    return ("wrong", "; ".join(problems)) if problems else ("ok", "")


def family_op(ds, draws, nrng):
    n = draws.cycle("family_n", (2, 3, 4))
    k = draws.cycle("family_k", (1, 2, 3, 4))
    deltas = [draws.uniform(0.3, 1.0) for _ in range(k)]
    spacing = round(4.0 * (1.0 + draws.uniform(0.0, 0.5)), 6)
    cfg = ds.core.SingularityConfig(n, tuple(
        ds.core.PlacedSingularity((spacing * i,) + (0.0,) * (n - 1),
                                  ds.core.InverseSquarePoint(draws.uniform(-2.0, 2.0), d))
        for i, d in enumerate(deltas)))
    label = f"family n={n} deltas={deltas} spacing={spacing!r}"
    crng = np.random.default_rng(draws.rng.randrange(2 ** 32))

    def call():
        family = ds.partition.build_family(ds.core.validate_config(cfg))
        constants = ds.partition.partition_constants(family)
        return family, constants, ds.partition.measured_constants(family.members[0].phi)

    def check(result):
        # phi = 1 on the eps/4 and 0 beyond the eps/2 neighbourhood of each ball
        family, (e, alpha, beta), measured = result
        eps = family.epsilon
        problems = []
        for m, delta in zip(family.members, deltas):
            inner = _radial_points(crng, m.position, crng.uniform(0, delta + eps / 4, 64))
            outer = _radial_points(crng, m.position,
                                   delta + eps / 2 + crng.uniform(1e-6, 1.0, 64))
            if np.abs(m.phi.value(inner) - 1.0).max() > 1e-8:
                problems.append("phi != 1 on the singular ball")
            if np.abs(m.phi.value(outer)).max() > 1e-8:
                problems.append("phi != 0 outside the eps/2 neighbourhood")
        if k > 1 and not family.min_support_gap > 0:
            problems.append("member supports overlap")
        if not (e > 0 and math.isfinite(alpha) and alpha > 0 and beta == 4.0 * e):
            problems.append(f"constants e={e} alpha={alpha} beta={beta}")
        if abs(measured[0] - 1.0) > 1e-6:
            problems.append(f"sup |phi| = {measured[0]}")
        return _verdict(problems)

    return label, call, check


def verify_op(ds, draws, nrng):
    n = draws.cycle("verify_n", (1, 2, 3))
    eps = round(10.0 ** draws.uniform(-1.0, 1.0), 6)
    r1 = round(eps * draws.uniform(1.0, 3.0), 6)
    r0 = round(r1 + eps * draws.uniform(1.0, 2.0), 6)
    center = tuple(draws.uniform(-5.0, 5.0) for _ in range(n))
    p = ds.partition
    label = f"verify n={n} eps={eps!r} F1=ball({r1!r}) F0=outside({r0!r})"
    crng = np.random.default_rng(draws.rng.randrange(2 ** 32))

    def call():
        phi = p.build_cutoff(p.ComplementOfBall(center, r0), p.Ball(center, r1), eps, n)
        return phi, p.verify_cutoff(phi, check_scaling=True)

    def check(result):
        phi, report = result
        ring = phi.value(_radial_points(crng, center, crng.uniform(r1, r0, 128)))
        problems = []
        if not report.passed:
            problems.append("verify_cutoff failed a valid construction")
        if np.abs(phi.value(_radial_points(crng, center, crng.uniform(0, r1, 128)))
                  - 1.0).max() > 1e-8:
            problems.append("phi != 1 on F1")
        if np.abs(phi.value(_radial_points(crng, center, r0 + crng.uniform(0, r0, 128)))
                  ).max() > 1e-8:
            problems.append("phi != 0 on F0")
        if ring.min() < -1e-8 or ring.max() > 1 + 1e-8:
            problems.append("phi leaves [0, 1]")
        return _verdict(problems)

    return label, call, check


LATTICE_POINTS = 100


def lattice_op(ds, draws, nrng, tracer):
    n = draws.cycle("lattice_n", (1, 2, 3, 4))
    lp = ds.partition.LatticePartition(n)
    pts = nrng.uniform(0.0, lp.spacing, size=(LATTICE_POINTS, n))
    label = f"lattice partition n={n}, {LATTICE_POINTS} points"

    def call():
        span = tracer.span("partition.lattice_points") if tracer else contextlib.nullcontext()
        with span:
            return [lp.values_and_grads(x)[1:] for x in pts]

    def check(result):
        for vals, grads in result:
            if abs(float((vals ** 2).sum()) - 1.0) > 1e-10:
                return "wrong", "sum of squares != 1"
            if np.abs((vals[:, None] * grads).sum(axis=0)).max() > 1e-10:
                return "wrong", "cross term != 0"
            if vals.min() < 0.0 or vals.max() > 1.0 + 1e-12:
                return "wrong", "member leaves [0, 1]"
        return "ok", ""

    return label, call, check


def hardy_op(ds, draws, nrng, trials=40):
    n = draws.cycle("hardy_n", (3, 4, 5))
    hardy = (n - 2) ** 2 / 4.0
    gamma = round(draws.uniform(0.1, 0.95) * hardy, 6)
    seed = draws.rng.randrange(2 ** 31)
    label = f"hardy n={n} gamma={gamma!r} trials={trials} seed={seed}"

    def call():
        return ds.bounds.hardy_oracle_max_ratio(n, gamma, trials=trials, seed=seed)

    def check(worst):
        # Hardy: gamma int f^2 r^(n-3) <= gamma/((n-2)^2/4) int f'^2 r^(n-1)
        ok = 0.0 < worst <= gamma / hardy + 1e-6
        return ("ok", "") if ok else ("wrong", f"ratio {worst} above {gamma / hardy}")

    return label, call, check


def lp_op(ds, draws, nrng):
    m = draws.cycle("lp_m", tuple(range(14, 23)))
    c = draws.uniform(0.5, 2.0)
    tags = ()
    exponent = None
    if draws.cycle("lp_tag", (False, True)):
        exponent = draws.uniform(0.0, 2.5)
        site = tuple(draws.uniform(-1.5, 1.5) for _ in range(3))
        tags = (ds.bounds.SingularTag(site, 1.0, exponent),)
    potential = ds.bounds.SampledPotential(((-2.0, 2.0),) * 3, np.full((m,) * 3, c), tags)
    label = f"loc_unif_Lp m={m} c={c!r} tag_exponent={exponent!r}"
    # cells whose centres lie in the unit ball cover the ball shrunk, and
    # stay inside the ball grown, by half a cell diagonal
    half_diag = 4.0 / m * math.sqrt(3.0) / 2.0
    lower = c * math.sqrt(4.0 * math.pi / 3.0 * (1.0 - half_diag) ** 3)
    upper = c * math.sqrt(4.0 * math.pi / 3.0 * (1.0 + half_diag) ** 3)

    def call():
        return ds.bounds.loc_unif_Lp_check(potential, 3, 2.0, cap=1e6)

    def check(result):
        est, passed = result
        if exponent is not None and 2.0 * exponent >= 3.0:
            ok = est == math.inf and passed is False  # |x|^-e is not L^2 near the tag
        else:
            ok = passed is True and math.isfinite(est)
            if exponent is None:
                ok = ok and lower <= est <= upper
        return ("ok", "") if ok else ("wrong", f"estimate {est}, passed {passed}")

    return label, call, check


SUPPORT_SIDES = {1: (32, 256), 2: (8, 48), 3: (6, 16)}


def support_op(ds, draws, nrng, pairs=8):
    grids = []
    for _ in range(pairs):
        ndim = draws.cycle("support_ndim", (1, 2, 3))
        shape = (int(draws.spread(f"support_side{ndim}", *SUPPORT_SIDES[ndim])),) * ndim
        bbox = ((0.0, 1.0),) * ndim
        mask = nrng.random(shape) > 0.3
        f, g = (ds.support.GridFunction(bbox, nrng.standard_normal(shape)
                                        * (nrng.random(shape) > 0.5), mask)
                for _ in range(2))
        grids.append((f, g))
    label = "support laws " + ",".join("x".join(map(str, f.values.shape)) for f, _ in grids)

    def call():
        return [ds.support.check_support_laws(f, g) for f, g in grids]

    def check(reports):
        # with zero tolerance the laws are theorems of the grid definitions
        # (a positive tolerance breaks the product and sum laws)
        failed = [i for i, r in enumerate(reports) if not r.all_passed]
        return ("wrong", f"laws failed on pairs {failed}") if failed else ("ok", "")

    return label, call, check


def cutoff_support(seed, part, workdir, tracer=None):
    import defectsum as ds
    import defectsum.bounds
    import defectsum.core
    import defectsum.partition
    import defectsum.support

    draws = stream_draws("cutoff_support", seed, part)
    nrng = np.random.default_rng(draws.rng.randrange(2 ** 63))
    makers = {"family": family_op, "verify": verify_op, "hardy": hardy_op,
              "lp": lp_op, "support": support_op}
    i = 0
    while True:
        kind = CUTOFF_CYCLE[i % len(CUTOFF_CYCLE)]
        if kind == "lattice":
            yield lattice_op(ds, draws, nrng, tracer)
        else:
            yield makers[kind](ds, draws, nrng)
        i += 1


LAYER_PROBE_OPS = 14


def layer_probe(seed, workdir, tracer=None):
    """Every layer at least once: five_mixed_n3 through the command line
    (cli, core, decouple, channels, weyl), then the first thirteen
    cutoff_support operations, which hold each of its kinds."""
    yield from itertools.islice(certificate_batch(seed, "probe", workdir), 1, 2)
    yield from itertools.islice(cutoff_support(seed, "probe", workdir, tracer),
                                LAYER_PROBE_OPS - 1)


def stream(workload, seed, part, workdir, tracer=None):
    if workload == "endpoint_sweep":
        return endpoint_sweep(seed, part, workdir)
    if workload == "certificate_batch":
        return certificate_batch(seed, part, workdir)
    return cutoff_support(seed, part, workdir, tracer)
