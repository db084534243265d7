"""The acceptance filters of scripts/fit_templates.py pass the packaged
templates and reject a corrupted one."""

import importlib.util
from pathlib import Path

import pytest

from helpers import flipped_foot
from twistknots.diagrams import load_template
from twistknots.families import load_family

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fit_templates.py"


def _fit_templates():
    spec = importlib.util.spec_from_file_location("fit_templates", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("family", ["7_6", "10_58", "8_12"])
def test_component_counts_accept_packaged_template(family):
    assert _fit_templates().component_counts_ok(load_template(family), load_family(family))


# 10_58's battery is 48 state sums over 10-14 crossings, about 6 s; 8_12 runs
# it on the same two-disk skeleton
@pytest.mark.parametrize("family", ["7_6", "8_12"])
def test_battery_accepts_packaged_template(family):
    assert _fit_templates().passes_battery(load_template(family), load_family(family))


def test_fitter_rejects_flipped_foot():
    fit = _fit_templates()
    corrupted, fam = flipped_foot(load_template("7_6")), load_family("7_6")
    assert not fit.component_counts_ok(corrupted, fam)
    assert not fit.passes_battery(corrupted, fam)
