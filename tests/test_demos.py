"""Smoke test: every script in demos/ runs to completion, with numpy's
RuntimeWarnings as errors.

Each demo is copied to a temporary directory first, so a demo that writes
files next to itself leaves the source tree untouched.
"""

import shutil
import subprocess
import sys

import pytest

from conftest import ROOT, package_env

DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          cwd=tmp_path, env=package_env(), capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
