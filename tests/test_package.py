import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weylclifford

EXPORTING = ("cyclotomic", "algebra", "qbinom", "sampling", "matrep", "commforms")


def run_fresh(code):
    """Run code in a fresh interpreter that imports this checkout's package."""
    src = str(Path(weylclifford.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


def test_public_names_are_the_submodules_objects():
    for sub in EXPORTING:
        module = importlib.import_module(f"weylclifford.{sub}")
        assert getattr(weylclifford, sub) is module
        for name in module.__all__:
            assert getattr(weylclifford, name) is getattr(module, name), (sub, name)
    assert weylclifford.cli is importlib.import_module("weylclifford.cli")


def test_from_import_of_public_names():
    from weylclifford import CyclotomicNumber, t_generators
    from weylclifford.cyclotomic import CyclotomicNumber as exact
    from weylclifford.matrep import t_generators as numerical

    assert CyclotomicNumber is exact and t_generators is numerical


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        weylclifford.no_such_name
    assert not hasattr(weylclifford, "no_such_name")


def test_private_name_imports_nothing():
    run_fresh(
        "import sys, weylclifford\n"
        "try:\n"
        "    weylclifford._x\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('weylclifford._x resolved')\n"
        "loaded = [m for m in sys.modules if m.startswith('weylclifford.')]\n"
        "assert not loaded, loaded\n"
    )


def test_exact_track_and_qbinom_cli_run_without_numpy():
    run_fresh(
        "import sys\n"
        "import weylclifford, weylclifford.cyclotomic, weylclifford.algebra\n"
        "import weylclifford.qbinom, weylclifford.sampling\n"
        "weylclifford.q_binomial, weylclifford.CyclotomicNumber\n"
        "assert 'numpy' not in sys.modules\n"
        "from weylclifford import cli\n"
        "assert cli.main(['qbinom', '5', '2']) == 0\n"
        "try:\n"
        "    cli.main(['fourier', '--l', '3', '--tol', 'nan'])\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 2, exc.code\n"
        "else:\n"
        "    raise SystemExit('fourier --tol nan ran')\n"
        "assert 'numpy' not in sys.modules\n"
    )


def test_algebra_does_not_load_qbinom():
    # qbinom imports algebra, so the reverse import would close a cycle
    run_fresh(
        "import sys\n"
        "import weylclifford.algebra\n"
        "assert 'weylclifford.qbinom' not in sys.modules\n"
        "assert 'numpy' not in sys.modules\n"
    )
