"""The packaged registry files are what scripts/build_registry.py writes."""

import importlib.util
import json
from importlib import resources
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "build_registry.py"


def _build_registry():
    spec = importlib.util.spec_from_file_location("build_registry", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("builder", ["seven_six", "ten_fifty_eight", "eight_twelve"])
def test_packaged_registry_matches_script(builder):
    data = getattr(_build_registry(), builder)()
    packaged = resources.files("twistknots").joinpath(f"data/registry/{data['family']}.json")
    # serialised as main() writes it
    assert json.dumps(data, indent=1) + "\n" == packaged.read_text()
