from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "twistknots"


def test_package_data_globs_match_the_data_files():
    """Every package-data glob matches a file, and every file under data/ is
    matched, so the wheel ships exactly the data the package reads."""
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["twistknots"]
    shipped = set()
    for pattern in globs:
        matched = {p for p in PACKAGE.glob(pattern) if p.is_file()}
        assert matched, f"package-data glob {pattern!r} matches no file"
        shipped |= matched
    files = {p for p in (PACKAGE / "data").rglob("*") if p.is_file()}
    assert files <= shipped, f"not shipped: {sorted(str(p) for p in files - shipped)}"
