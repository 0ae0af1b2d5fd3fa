"""The fast demos run to completion as scripts."""

import subprocess
import sys

import pytest

from tests import ROOT, src_env

# 03_lagrangian_census.py is left out: it takes seconds, and the
# acceptance suite already runs its census path.
DEMOS = ["01_weyl_group_tour.py", "02_fine_strata_tables.py", "04_eo_types.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        text=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
