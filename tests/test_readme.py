"""The README's Library snippet runs as written, so a signature change
cannot leave it stale."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
