"""The demos run to completion against the current API and CLI."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert "===" in capsys.readouterr().out


def test_command_line_walkthrough_runs(tmp_path):
    # A `gmdecomp` shim first on PATH stands in for the installed script.
    shim = tmp_path / "gmdecomp"
    shim.write_text(
        f'#!/bin/sh\nexec "{sys.executable}" -c '
        '"import sys; from gmdecomp.cli import main; sys.exit(main())" "$@"\n'
    )
    shim.chmod(0o755)
    pythonpath = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PATH=f"{tmp_path}{os.pathsep}{os.environ['PATH']}",
               PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    proc = subprocess.run(["sh", "demos/05_command_line.sh"], cwd=ROOT, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "omega_5" in proc.stdout
