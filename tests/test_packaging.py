"""Every dependency declared in pyproject.toml is installed and imports, so
a missing one fails here instead of leaving a code path that never runs."""

import importlib
import importlib.metadata
import pathlib
import sys

import pytest

if sys.version_info < (3, 11):
    pytest.skip("tomllib needs Python 3.11", allow_module_level=True)

import tomllib
from packaging.requirements import Requirement

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
DEPENDENCIES = tomllib.loads(PYPROJECT.read_text())["project"]["dependencies"]


@pytest.mark.parametrize("spec", DEPENDENCIES)
def test_dependency_installed_and_importable(spec):
    req = Requirement(spec)
    version = importlib.metadata.version(req.name)
    assert req.specifier.contains(version, prereleases=True), f"{req.name} {version}"
    importlib.import_module(req.name.replace("-", "_"))
