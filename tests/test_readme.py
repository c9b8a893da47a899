"""The README's Library snippet runs as written, and its command lines
parse, so a signature or flag change cannot leave them stale."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from qaroute import cli

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_snippet_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": "src"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_readme_commands_parse():
    # Parsed, not run: a renamed or dropped flag fails here.
    block = re.search(r"## Command line\n\n```\n(.*?)```", (ROOT / "README.md").read_text(),
                      re.S).group(1)
    commands = [shlex.split(line) for line in block.splitlines()]
    assert commands and all(argv[0] == "qaroute" for argv in commands)
    for argv in commands:
        ns = cli._build_parser().parse_args(argv[1:])
        assert ns.command == argv[1]
