"""Every script in demos/ and the README's quick start run to completion
against the package in src/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _exits_cleanly(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(script, tmp_path):
    _exits_cleanly([str(script)], tmp_path)


def test_readme_quick_start_exits_cleanly(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    _exits_cleanly(["-c", block.group(1)], tmp_path)
