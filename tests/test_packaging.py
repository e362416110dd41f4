"""pyproject.toml ships what an installed package needs: every bundled data
file matches a package-data glob, and the `recsel` script runs cli.main."""

from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "recsel"
PYPROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))


def test_every_data_file_is_package_data():
    # setuptools expands package-data globs relative to the package directory
    globs = PYPROJECT["tool"]["setuptools"]["package-data"]["recsel"]
    shipped = {p for pattern in globs for p in PACKAGE.glob(pattern)}
    data = {p for p in (PACKAGE / "data").rglob("*") if p.is_file()}
    assert data, "no bundled data files found"
    assert sorted(data - shipped) == []


def test_recsel_script_is_cli_main():
    assert PYPROJECT["project"]["scripts"]["recsel"] == "recsel.cli:main"
