"""The names perfbench reads from bandschur must keep resolving.

perfbench/layers.py wraps one function per layer by (module, name), and
perfbench/run.py reads the kernel-path flag and the symbolic-minor cache.
A rename that breaks those lookups fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _trace_targets():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PY)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(mod_name, attr) for mod_name, attr, _layer, _extra in layers.TARGETS]


@pytest.mark.parametrize("mod_name, attr", _trace_targets())
def test_trace_target_resolves(mod_name, attr):
    module = importlib.import_module(f"bandschur.{mod_name}")
    assert callable(getattr(module, attr, None))


def test_run_reads_resolve():
    from bandschur import _kernels, polyring, toeplitz

    assert _kernels.JIT_ENABLED is False
    assert callable(toeplitz.minor_det_symbolic.cache_info)
    assert callable(polyring.MultiPoly.__mul__)
