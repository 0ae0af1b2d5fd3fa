"""The fast demos run to completion as scripts, with pinned output."""

import hashlib
import subprocess
import sys

import pytest

from tests import ROOT, src_env

# sha256 of each demo's stdout.
DEMO_DIGESTS = {
    "01_weyl_group_tour.py": "e5a25f3833450b1a943c540186ee1dce62e0c2aa8f9a26de4d092604ebd5eab9",
    "02_fine_strata_tables.py": "ba60cd0605fe59d839fb2a72aedc6fc7ebe17b163fa17cf4a3dd75b3ca88e96c",
    "03_lagrangian_census.py": "a205a766940ab49694f38a4af6fd81aab7e0d8931abc6b1c0ed3b84d11b29303",
    "04_eo_types.py": "831b4a06fc50979dd6e333962488cfd8c827836676c35b0a24ffffd26acfb779",
}


@pytest.mark.parametrize("name", sorted(DEMO_DIGESTS))
def test_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        capture_output=True,
        env=src_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_DIGESTS[name]
