"""In-memory spans around the package's public functions.

The wrappers are installed from here, outside the package: each public
function named in ``TARGETS`` is replaced, in every loaded ``defectsum``
module that binds it, by a wrapper that records one span per call.  A
span holds its name, start, end, parent span, the id of the benchmark
operation it belongs to, and optional attributes.  Spans stay in memory
until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import sys
import time

# (span name, module, public attribute)
TARGETS = (
    ("core.load_config", "core", "load_config"),
    ("core.validate_config", "core", "validate_config"),
    ("weyl.classify_endpoint_detailed", "weyl", "classify_endpoint_detailed"),
    ("channels.point_defect", "channels", "point_defect"),
    ("channels.point_spectrum_evidence", "channels", "point_spectrum_evidence"),
    ("channels.channel_spectrum", "channels", "channel_spectrum"),
    ("channels.shell_defect", "channels", "shell_defect"),
    ("channels.shell_side_classifications", "channels", "shell_side_classifications"),
    ("decouple.localize", "decouple", "localize"),
    ("decouple.aggregate_defect", "decouple", "aggregate_defect"),
    ("decouple.essential_selfadjointness", "decouple", "essential_selfadjointness"),
    ("cli.run", "cli", "run"),
    ("partition.build_family", "partition", "build_family"),
    ("partition.verify_cutoff", "partition", "verify_cutoff"),
    ("partition.measured_constants", "partition", "measured_constants"),
    ("partition.partition_constants", "partition", "partition_constants"),
    ("bounds.hardy_oracle_max_ratio", "bounds", "hardy_oracle_max_ratio"),
    ("bounds.loc_unif_Lp_check", "bounds", "loc_unif_Lp_check"),
    ("support.check_support_laws", "support", "check_support_laws"),
)


def _weyl_attrs(args, kwargs, result):
    """Endpoint side and the public WeylDiagnostics fields of one call."""
    problem = args[0] if args else kwargs["problem"]
    settings = args[2] if len(args) > 2 else kwargs.get(
        "settings", getattr(sys.modules["defectsum.weyl"], "DEFAULT_SETTINGS", None))
    _, diag = result
    windows = getattr(diag, "windows_used", None)
    budget = getattr(settings, "n_windows", None)
    return {"side": "outer" if math.isinf(problem.singular_endpoint) else "inner",
            "windows_used": windows,
            # inner runs double their window count when the fit is unsettled
            "refined": None if None in (windows, budget) else windows > budget,
            "truncated": getattr(diag, "truncated", None)}


def _support_attrs(args, kwargs, result):
    f = args[0] if args else kwargs["f"]
    return {"cells": int(f.values.size)}


ANNOTATE = {
    "weyl.classify_endpoint_detailed": _weyl_attrs,
    "support.check_support_laws": _support_attrs,
}


class Tracer:
    """Records spans; ``op`` is the id shared by the spans of one operation."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None
        self.originals = {}
        self.missing = []

    @contextlib.contextmanager
    def span(self, name):
        record = {"id": len(self.spans), "name": name, "op": self.op,
                  "parent": self._stack[-1]["id"] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn):
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if annotate is not None:
                record["attrs"] = annotate(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target; a missing public name is noted and skipped."""
        for name, module, attr in TARGETS:
            mod = importlib.import_module(f"defectsum.{module}")
            original = getattr(mod, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self.originals[name] = original
            wrapper = self.wrap(name, original)
            for modname, loaded in list(sys.modules.items()):
                if loaded is None or modname.split(".")[0] != "defectsum":
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, key, wrapper)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
