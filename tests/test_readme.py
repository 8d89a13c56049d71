"""README's Python examples run as written, from the repository root."""

from __future__ import annotations

import os
import re
import subprocess
import sys

import pytest

from conftest import REPO_ROOT, SRC_DIR

BLOCKS = re.findall(r"^```python\n(.*?)^```$", (REPO_ROOT / "README.md").read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 3


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{index}" for index in range(len(BLOCKS))])
def test_python_block_runs_without_warnings(block):
    # A ResourceWarning raised in a finalizer is reported on stderr but does
    # not change the exit status, so stderr must be empty as well.
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    proc = subprocess.run([sys.executable, "-W", "error::ResourceWarning", "-c", block],
                          cwd=REPO_ROOT, env=env, capture_output=True, encoding="utf-8", timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
