"""The package as setuptools lays it out for installation.

``pyproject.toml`` declares the bundled models, data and families under
``src/masseyq/data`` as package data; the package reads them through
``models.py`` at run time, so an installed copy without them fails every
``builtin:`` spec.  This runs setuptools' ``build_py`` on a copy of
``pyproject.toml`` and ``src/`` and compares what it lays out with the
source tree.  A wheel needs the ``wheel`` package as well, and
``build_py`` is the step of a wheel build that copies package files.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _files(top: str) -> set[str]:
    """The paths of the files under ``top``, relative to it, without
    byte-compiled caches."""
    return {
        os.path.relpath(os.path.join(where, name), top)
        for where, dirs, names in os.walk(top)
        if "__pycache__" not in where.split(os.sep)
        for name in names
    }


def test_build_py_ships_every_module_and_data_file(tmp_path):
    pytest.importorskip("setuptools")
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "src"),
        tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    setup = "import setuptools; setuptools.setup()"
    subprocess.run(
        [sys.executable, "-c", setup, "build_py", "-d", "lib"],
        cwd=tmp_path,
        check=True,
        capture_output=True,
    )
    source = _files(os.path.join(ROOT, "src", "masseyq"))
    assert any(path.startswith("data" + os.sep) for path in source)
    assert _files(str(tmp_path / "lib" / "masseyq")) == source
