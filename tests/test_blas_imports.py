"""A run makes every BLAS call through numpy's library, and memwave needs
no scipy at all.

The numpy and scipy wheels each bundle their own OpenBLAS, and each library
keeps its own thread pool.  When one loop calls both, the two pools' spinning
workers compete for the same cores.  With the block-end fold of the memory
sum in scipy's ``dgemm`` and every other product in numpy, the memory_1d
benchmark workload took 2.74 s (median of 10 runs on a 2-vCPU VM); with the
fold in numpy's ``matmul`` it took 1.50 s, and sweep_2d went from 6.88 to
4.99 s.  No module of the package imports scipy, so numpy is its one
run-time dependency; the tests keep scipy as their oracle.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import memwave

PACKAGE = Path(memwave.__file__).parent


def _imported_modules(tree: ast.Module) -> list[str]:
    """Every module an import statement of ``tree`` names, with the names a
    ``from`` import takes (``from scipy import linalg`` gives scipy.linalg)."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.append(node.module)
            names.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return names


def _from_scipy(name: str) -> bool:
    return name == "scipy" or name.startswith("scipy.")


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_module_imports_scipy(module):
    path = PACKAGE / module
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offending = [n for n in _imported_modules(tree) if _from_scipy(n)]
    assert offending == [], f"{module} imports {offending}"


@pytest.mark.parametrize(
    "source,found",
    [
        ("from scipy.linalg.blas import dgemm\n", True),
        ("import scipy.linalg\n", True),
        ("from scipy import linalg\n", True),
        ("import scipy.linalg.blas as blas\n", True),
        ("import scipy.fft\nfrom scipy.special import erfc\n", True),
        ("import numpy.linalg\nfrom scipy_extras import quad\n", False),
    ],
)
def test_guard_sees_every_import_form(source, found):
    names = _imported_modules(ast.parse(source))
    assert any(_from_scipy(n) for n in names) is found


SIMULATE = """
import sys, tempfile
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from memwave import cli

with tempfile.TemporaryDirectory() as tmp:
    config = Path(tmp) / "scenario.cfg"
    config.write_text("n = 1\\npoints_per_dim = 64\\nt_end = 1\\n")
    assert cli.main(["simulate", "--config", str(config), "--out", tmp]) == 0
print(sorted(m for m in sys.modules if m.startswith(("scipy.integrate", "scipy.linalg"))))
"""


def test_simulate_loads_neither_scipy_integrate_nor_scipy_linalg():
    # scipy.integrate imports scipy.linalg, whose OpenBLAS a simulate or a
    # sweep would load next to numpy's
    src = PACKAGE.resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", SIMULATE, str(src)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


RUN_PATH = """
import sys, tempfile
from pathlib import Path

sys.path.insert(0, sys.argv[1])
from memwave import cli

runs = [
    # 513 stored points: longer than a matrix transform's axis, so the FFT path
    ("simulate", "n = 1\\npoints_per_dim = 1024\\nt_end = 1\\n"),
    ("sweep", "n = 2\\npoints_per_dim = 32\\nt_end = 1\\nsweep_p = 2.0, 3.0\\n"),
]
for command, text in runs:
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "scenario.cfg"
        config.write_text(text)
        assert cli.main([command, "--config", str(config), "--out", tmp]) == 0
"""

VERIFY = """
import sys, tempfile

sys.path.insert(0, sys.argv[1])
from memwave import cli

with tempfile.TemporaryDirectory() as tmp:
    assert cli.main(["verify", "--out", tmp]) == 0
"""

LIST_SCIPY = """
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def _scipy_modules_after(script: str) -> str:
    src = PACKAGE.resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", script + LIST_SCIPY, str(src)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_simulate_and_sweep_load_no_scipy():
    # scipy.fft and scipy.special cost 27 MiB of resident memory and about
    # 0.3 s of start-up per run on a 2-vCPU VM, for transforms and a Gamma
    # function that numpy and the standard library have
    assert _scipy_modules_after(RUN_PATH) == "[]"


def test_verify_loads_no_scipy():
    # verify's quad loaded 355 scipy modules and scipy's OpenBLAS for nine
    # integrals
    assert _scipy_modules_after(VERIFY) == "[]"


REFUSE_LINALG = """
import numpy as np

def _refuse(name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"numpy.linalg.{name} called")
    return refuse

for name in np.linalg.__all__:
    if not isinstance(getattr(np.linalg, name), type):
        setattr(np.linalg, name, _refuse(name))
"""


def test_simulate_and_sweep_call_no_numpy_linalg():
    # every numpy.linalg function is a LAPACK call: a line fit or a Gauss
    # rule that took one would page LAPACK's code into every run.  The
    # simulate below reaches the decay fit and the exponential sum.
    src = PACKAGE.resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", REFUSE_LINALG + RUN_PATH, str(src)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
