"""The benchmark's traced per-layer names must exist in the package.

``perfbench/tracing.py`` wraps each ``(module, attr)`` in ``TARGETS``; a name
that no longer resolves silently drops its per-layer metric.  The shell
cache hit rate is read from ``shell_side_classifications.cache_info``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
