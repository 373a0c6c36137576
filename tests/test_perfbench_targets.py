"""The benchmark's traced per-layer names must exist in the package.

``perfbench/tracing.py`` wraps each ``(module, attr)`` in ``TARGETS``; a name
that no longer resolves silently drops its per-layer metric.  The shell
cache hit rate is read from ``shell_side_classifications.cache_info``.
A name that resolves but that the pipeline stops calling zeroes its metric
just as silently, so the certificate pipeline is also run with every
per-layer name counted.
"""

import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TRACING = REPO / "perfbench" / "tracing.py"

# names whose spans are the only source of a per-layer metric
PIPELINE_LAYERS = (
    "channels.point_defect",
    "channels.point_spectrum_evidence",
    "channels.shell_defect",
    "channels.shell_side_classifications",
    "decouple.localize",
    "decouple.aggregate_defect",
    "weyl.classify_endpoint_detailed",
)


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("name, module, attr", _targets())
def test_traced_target_resolves(name, module, attr):
    mod = importlib.import_module(f"defectsum.{module}")
    assert callable(getattr(mod, attr, None)), name


def test_shell_side_classifications_is_cached():
    from defectsum import channels

    assert hasattr(channels.shell_side_classifications, "cache_info")


def _count_calls(monkeypatch, name, counts):
    """Wrap ``name`` wherever a ``defectsum`` module binds it, as the tracer does."""
    module, attr = name.split(".")
    original = getattr(importlib.import_module(f"defectsum.{module}"), attr)

    def counting(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    for modname, loaded in list(sys.modules.items()):
        if loaded is None or modname.split(".")[0] != "defectsum":
            continue
        for key, value in list(vars(loaded).items()):
            if value is original:
                monkeypatch.setattr(loaded, key, counting)


def test_certificate_pipeline_calls_every_traced_layer(monkeypatch):
    from defectsum import channels
    from defectsum.core import load_config
    from defectsum.decouple import essential_selfadjointness

    # a shell cached by an earlier test would skip the endpoint classifier
    channels.shell_side_classifications.cache_clear()
    counts = Counter()
    for name in PIPELINE_LAYERS:
        _count_calls(monkeypatch, name, counts)
    for config in ("five_mixed_n3", "lattice_z2_r3"):
        essential_selfadjointness(load_config(REPO / "configs" / f"{config}.json"))
    assert {name: counts[name] for name in PIPELINE_LAYERS if not counts[name]} == {}
