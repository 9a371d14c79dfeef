"""The README walkthroughs run: every demo script and every example config exits 0,
under the warning filters that pyproject.toml applies to the tests."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
CONFIGS = sorted((ROOT / "demos" / "configs").glob("*.json"))
WARNINGS_AS_ERRORS = [
    "-Werror::RuntimeWarning",
    "-Werror::DeprecationWarning",
    "-Werror::PendingDeprecationWarning",
]


def run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *WARNINGS_AS_ERRORS, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_every_demo_and_config_is_collected():
    assert len(DEMOS) == 5
    assert len(CONFIGS) == 3


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    done = run([str(script)], tmp_path)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.name)
def test_example_config_runs(config, tmp_path):
    done = run(["-m", "todaflow.cli", "--config", str(config), "--out", str(tmp_path), "--quiet"], tmp_path)
    assert done.returncode == 0, done.stderr
