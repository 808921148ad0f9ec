"""Every demo script, and the README's library example, runs to completion
against the library in ``src``, and every name the package exports exists."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cartonfold

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args: list[str]) -> subprocess.CompletedProcess:
    """Run the interpreter from the repository root with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=120,
    )


def test_demos_are_present():
    assert DEMOS, "no demo scripts found"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    result = run_python([str(demo)])
    assert result.returncode == 0, result.stderr


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"As a library:\n\n```python\n(.*?)```", readme, re.DOTALL)
    result = run_python(["-c", block])
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_every_exported_name_resolves():
    missing = [name for name in cartonfold.__all__ if not hasattr(cartonfold, name)]
    assert missing == []
