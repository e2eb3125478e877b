"""Every demo script, and the README's Quick start, runs to completion
against the package in src/, and each demo prints the bytes pinned here."""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))

# demo file stem -> SHA-256 of its stdout
DEMO_STDOUT = {
    "01_drifting_clocks": "9090b0c6d3bb7ee45471546820a7e02af65431a5ff388ff9bd89b22538b45a80",
    "02_delay_and_routing": "03bb088f7985f4c87565281b71a5eae7d2f41169ff20cb7848c5fe6db5a0d544",
    "03_cristian_and_berkeley":
        "9f30b08f2da0b129f17f1bad252e9d876819e8cd72930457737deef4fe388d0a",
    "04_attacks": "be96ad179fea0c1885bcc94faa04673f892f6bb294b2f1df00cdc937a5403f91",
    "05_scenario_files": "5c246ee41fd33b7256014f231da89e019085e2dca089429413d53705d2166a33",
}


def run_python(args, cwd):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    result = run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_every_demo_stdout_is_pinned():
    assert sorted(DEMO_STDOUT) == [demo.stem for demo in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_stdout_sha256_is_pinned(demo, tmp_path):
    result = run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr
    stdout = result.stdout.encode("utf-8")
    assert hashlib.sha256(stdout).hexdigest() == DEMO_STDOUT[demo.stem], result.stdout


def test_readme_quick_start_runs(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [quick_start] = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    result = run_python(["-c", quick_start], tmp_path)
    assert result.returncode == 0, result.stderr
