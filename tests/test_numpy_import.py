"""numpy is imported on the first numeric step, never by the exact commands.

The exact commands (schur, recurrence, check-identity, minor-det --nvars)
start in a fresh interpreter without importing numpy; the numeric ones
import it on their first numeric step and print what they print in a
process that imported numpy long before.
"""

import subprocess
import sys
import textwrap

import numpy
import pytest

from bandschur import _kernels, _numpy
from bandschur.cli import main

# numpy's code has run when its module object is no longer the lazy stub
# or when any of its submodules is imported
PROBE = textwrap.dedent(
    """
    import sys, types
    mod = sys.modules.get("numpy")
    loaded = type(mod) is types.ModuleType or any(
        name.startswith("numpy.") for name in sys.modules
    )
    print("numpy loaded" if loaded else "numpy not loaded", file=sys.stderr)
    """
)


def _cold(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code + PROBE],
        capture_output=True,
        text=True,
        timeout=120,
    )


def _cold_main(argv: list[str]) -> subprocess.CompletedProcess:
    code = f"import sys\nfrom bandschur.cli import main\ncode = main({argv!r})\n"
    return _cold(code + "sys.stderr.write(f'exit {code}\\n')\n")


def test_package_import_and_parser_leave_numpy_unloaded():
    proc = _cold("import bandschur, bandschur.cli\nbandschur.cli.build_parser()\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "numpy not loaded\n"


@pytest.mark.parametrize("line", [
    "schur --outer 4,2,1 --inner 1 --nvars 3",
    "recurrence --beta 1,2 --nvars 3 --jmax 2",
    "check-identity --alpha 2 --beta 1,3 --nvars 3 --k 2",
    "minor-det --beta 2 --k 3 --nvars 2",
])
def test_exact_command_leaves_numpy_unloaded(line):
    proc = _cold_main(line.split())
    assert proc.stderr == "exit 0\nnumpy not loaded\n"
    assert proc.stdout


@pytest.mark.parametrize("line", [
    "widom --symbol 1,0.3,0.5,0.1 --c 2 --k 5",
    "limitset --symbol 1,0,1 --c 1 --grid=-3,3,-1,1,25,9",
    "eigs --symbol 1,0.7,0.3 --k 5 --c 1",
    "compare --symbol 1,0,1 --c 1 --k 10 --grid=-3,3,-1,1,121,41",
    "minor-det --beta 2 --k 3 --symbol 1,5,6",
])
def test_numeric_command_from_a_cold_process(capsys, line):
    # the same output as in this process, which imported numpy at the top
    assert main(line.split()) == 0
    warm = capsys.readouterr()
    proc = _cold_main(line.split())
    assert proc.stdout == warm.out
    assert proc.stderr == warm.err + "exit 0\nnumpy loaded\n"


def test_lazy_np_is_numpy():
    assert _numpy.np is numpy
    assert _numpy._lazy_import("numpy") is numpy


def test_missing_module_raises_at_import():
    with pytest.raises(ImportError):
        _numpy._lazy_import("bandschur_no_such_module")


def test_kernel_eps_is_float64_eps():
    assert _kernels.EPS == numpy.finfo(numpy.float64).eps
