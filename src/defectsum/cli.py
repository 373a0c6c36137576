"""Command-line front end.

Subcommands: ``defect`` (full certificate), ``certify`` (verdict only),
``classify`` (single-channel endpoint classification), ``partition``
(build and verify a cutoff family), ``bounds`` (relative-bound
arithmetic), and ``support-check`` (grid support laws).

Exit codes: 0 essentially self-adjoint / all checks pass; 1 positive or
infinite defect / check failure; 2 invalid input or hypothesis
violation; 3 indeterminate.  Reports serialize with stable key order;
the ``timing_seconds`` field is the only run-dependent entry.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
import warnings

from . import __version__
from . import bounds as bounds_mod
from . import decouple
from . import partition as partition_mod
from . import support as support_mod
from . import weyl
from .core import INF, load_config, validate_config
from .errors import DefectsumError

REPORT_SCHEMA = "defectsum.report.v1"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INVALID = 2
EXIT_INDETERMINATE = 3


def _digest_file(path) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _digest_text(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def _settings_from_args(args) -> weyl.WeylSettings:
    settings = weyl.DEFAULT_SETTINGS
    if getattr(args, "tolerance_band", None) is not None:
        settings = dataclasses.replace(settings, band=args.tolerance_band)
    return settings


def _render_text(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in sorted(payload):
        value = payload[key]
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_render_text(value, indent + 1))
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value, sort_keys=True)}")
        else:
            lines.append(f"{pad}{key}: {value}")
    return "\n".join(lines)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(_render_text(report))


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (payload, digest, exit_code)


def _cmd_defect(args, settings):
    cfg = load_config(args.config)
    cert = decouple.essential_selfadjointness(cfg, settings=settings)
    code = {
        "essentially_self_adjoint": EXIT_OK,
        "positive_defect": EXIT_FAIL,
        "infinite_defect": EXIT_FAIL,
        "indeterminate": EXIT_INDETERMINATE,
    }[cert.verdict]
    return {"certificate": cert.to_json_dict()}, _digest_file(args.config), code


def _cmd_certify(args, settings):
    payload, digest, code = _cmd_defect(args, settings)
    cert = payload["certificate"]
    trimmed = {
        "verdict": cert["verdict"],
        "total": cert["total"],
        "first_violation": cert["first_violation"],
    }
    return {"certificate": trimmed}, digest, code


def _cmd_classify(args, settings):
    q0 = args.coupling
    z = 1j if args.z == "plus" else -1j
    frob = weyl.frobenius_classify_inverse_square(q0)
    problem = weyl.RadialProblem(
        q=lambda r: q0 / r**2,
        interval=(0.0, math.inf),
        singular_endpoint=0.0 if args.endpoint == "inner" else math.inf,
        anchor=1.0,
    )
    cls, diag = weyl.classify_endpoint_detailed(problem, z, settings)
    payload = {
        "coupling": q0,
        "endpoint": args.endpoint,
        "closed_form": frob.kind if args.endpoint == "inner" else None,
        "numeric": cls.kind,
        "nu_hat": diag.nu_hat,
        "rho_hat": diag.rho_hat if math.isfinite(diag.rho_hat) else "inf",
        "windows_used": diag.windows_used,
        "band": settings.band,
    }
    digest = _digest_text(f"classify:{q0}:{args.endpoint}:{args.z}")
    code = EXIT_INDETERMINATE if cls.is_indeterminate else EXIT_OK
    return payload, digest, code


def _cmd_partition(args, settings):
    cfg = load_config(args.config)
    validated = validate_config(cfg)
    family = partition_mod.build_family(validated)
    reports = []
    all_pass = True
    for i, member in enumerate(family.members):
        rep = partition_mod.verify_cutoff(member.phi, check_scaling=(i == 0))
        reports.append(rep.to_json())
        all_pass &= rep.passed
    e, alpha, beta = partition_mod.partition_constants(family)
    payload = {
        "epsilon": "inf" if family.epsilon == INF else family.epsilon,
        "min_support_gap": ("inf" if family.min_support_gap == INF
                            else family.min_support_gap),
        "members": reports,
        "constants": {"e": e, "alpha": alpha, "beta": beta},
        "passed": all_pass,
    }
    if args.export_grid:
        member = family.members[0]
        radius = member.support_radius * 1.2
        bbox = tuple((c - radius, c + radius) for c in member.position)
        shape = (33,) * cfg.n
        partition_mod.export_cutoff_grid(member.phi, bbox, shape, args.export_grid)
        payload["exported_grid"] = args.export_grid
    return payload, _digest_file(args.config), EXIT_OK if all_pass else EXIT_FAIL


def _cmd_bounds(args, settings):
    payload = {}
    code = EXIT_OK
    if args.local_a is not None:
        local = bounds_mod.RelativeBound(args.local_a, args.local_b, args.kind)
        pdata = bounds_mod.PartitionData(args.part_c, args.part_d, args.part_e)
        if args.kind == "form":
            combined = bounds_mod.morgan_form_bound(local, pdata)
        else:
            combined = bounds_mod.morgan_operator_bound(local, pdata)
        payload["localized"] = combined.to_json()
        if args.kind == "operator":
            ok = bounds_mod.defect_invariance_gate(combined)
            payload["defect_invariance"] = ok
            if not ok:
                code = EXIT_FAIL
    if args.hardy_n is not None:
        rb = bounds_mod.hardy_form_bound(args.hardy_n, args.hardy_gamma)
        worst = bounds_mod.hardy_oracle_max_ratio(args.hardy_n, args.hardy_gamma,
                                                  trials=args.hardy_trials)
        payload["hardy"] = {
            "bound": rb.to_json(),
            "oracle_max_ratio": worst,
            "oracle_trials": args.hardy_trials,
        }
        if worst > rb.a + 1e-6:
            code = EXIT_FAIL
    if args.commutator_etilde is not None:
        d, e = bounds_mod.commutator_to_iii(args.commutator_etilde,
                                            args.commutator_eps)
        payload["commutator_constants"] = {"d": d, "e": e}
    if args.gate_eps is not None:
        coef_t, coef_i = bounds_mod.operator_commutator_gate(args.gate_eps,
                                                             args.gate_e)
        payload["commutator_gate"] = {"coef_T": coef_t, "coef_I": coef_i}
    if not payload:
        raise DefectsumError(
            "bounds needs at least one of --local-a, --hardy-n, "
            "--commutator-etilde, --gate-eps"
        )
    digest = _digest_text("bounds:" + json.dumps(vars(args), sort_keys=True,
                                                 default=str))
    return payload, digest, code


def _cmd_support_check(args, settings):
    f = support_mod.GridFunction.load(args.grid)
    g = support_mod.GridFunction.load(args.grid2)
    report = support_mod.check_support_laws(f, g)
    digest = _digest_text(_digest_file(args.grid) + _digest_file(args.grid2))
    code = EXIT_OK if report.all_passed else EXIT_FAIL
    return {"laws": report.to_json(), "passed": report.all_passed}, digest, code


_HANDLERS = {
    "defect": _cmd_defect,
    "certify": _cmd_certify,
    "classify": _cmd_classify,
    "partition": _cmd_partition,
    "bounds": _cmd_bounds,
    "support-check": _cmd_support_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defectsum",
        description="Deficiency-index certificates for separated singular potentials",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, needs_config=True, classifies=False):
        if needs_config:
            p.add_argument("--config", required=True, help="configuration file (JSON)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if classifies:
            p.add_argument("--tolerance-band", type=float, default=None,
                           help="indeterminate band for the numeric classifier")

    common(sub.add_parser("defect", help="full defect certificate"), classifies=True)
    common(sub.add_parser("certify", help="verdict only"), classifies=True)

    pc = sub.add_parser("classify", help="single-channel endpoint classification")
    common(pc, needs_config=False, classifies=True)
    pc.add_argument("--coupling", type=float, required=True,
                    help="inverse-square coupling q0")
    pc.add_argument("--endpoint", choices=("inner", "outer"), default="inner")
    pc.add_argument("--z", choices=("plus", "minus"), default="plus")

    pp = sub.add_parser("partition", help="build and verify a cutoff family")
    common(pp)
    pp.add_argument("--export-grid", default=None,
                    help="write sampled values of the first cutoff to this path")

    pb = sub.add_parser("bounds", help="relative-bound arithmetic")
    common(pb, needs_config=False)
    pb.add_argument("--local-a", type=float, default=None)
    pb.add_argument("--local-b", type=float, default=0.0)
    pb.add_argument("--kind", choices=("form", "operator"), default="form")
    pb.add_argument("--part-c", type=float, default=1.0)
    pb.add_argument("--part-d", type=float, default=1.0)
    pb.add_argument("--part-e", type=float, default=0.0)
    pb.add_argument("--hardy-n", type=int, default=None)
    pb.add_argument("--hardy-gamma", type=float, default=0.0)
    pb.add_argument("--hardy-trials", type=int, default=200)
    pb.add_argument("--commutator-etilde", type=float, default=None)
    pb.add_argument("--commutator-eps", type=float, default=0.1)
    pb.add_argument("--gate-eps", type=float, default=None)
    pb.add_argument("--gate-e", type=float, default=0.0)

    ps = sub.add_parser("support-check", help="grid support-law report")
    common(ps, needs_config=False)
    ps.add_argument("--grid", required=True, help="grid table for f")
    ps.add_argument("--grid2", required=True, help="grid table for g")

    return parser


def run(argv=None):
    """Parse arguments, run the subcommand, and print the report.

    Returns the exit code; diagnostics for invalid inputs go to stderr.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    settings = _settings_from_args(args)
    handler = _HANDLERS[args.subcommand]

    started = time.perf_counter()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            payload, digest, code = handler(args, settings)
        # sorted and deduplicated: a warning raised once per channel or piece
        # would otherwise repeat in the report
        warning_messages = sorted({str(w.message) for w in caught})
    except DefectsumError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID

    report = {
        "schema": REPORT_SCHEMA,
        "tool_version": __version__,
        "subcommand": args.subcommand,
        "input_digest": digest,
        "warnings": warning_messages,
        "timing_seconds": round(time.perf_counter() - started, 6),
    }
    report.update(payload)
    _emit(report, args.format)
    return code


def main(argv=None):
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
