"""Every package module and script loads in a fresh interpreter.

The package top level imports none of its modules, so an import cycle
between two of them shows only in a process where one of the pair is
the first to load.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p.stem for p in (ROOT / "src" / "risdoa").glob("*.py") if p.stem != "__init__")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def _python(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_first(module):
    result = _python("-c", f"import risdoa.{module}")
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    result = _python(str(script), "--help")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage:")
