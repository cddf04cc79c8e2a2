"""The runnable scripts keep the exit-code contract: 0 on success, 2 with an
`error:` line on a bad argument, never a traceback."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_necklace_script_on_small_input():
    done = run_script("necklace_cohomology.py", "1/3", "1", "5")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    lines = done.stdout.splitlines()
    assert lines[0] == "family parameter c = 1/3, truncation N = 5"
    assert lines[2].split("  ")[-1] == "1; I*d_I, d_theta; I*d_I^d_theta"
    assert "global dims: (1, 1, 2)" in lines


def test_necklace_script_on_symplectic_member():
    done = run_script("necklace_cohomology.py", "3")
    assert done.returncode == 0, done.stderr
    assert "global dims: (1, 0, 1)" in done.stdout


@pytest.mark.parametrize("args", [
    ["1"],              # |c| = 1: outside the assembly
    ["-1"],
    ["0", "2", "3"],    # truncation below the mode model's bound
    ["x"],
    ["1/0"],
    ["0", "two"],
    ["0", "2", "4.5"],
])
def test_necklace_script_bad_input_exits_two(args):
    done = run_script("necklace_cohomology.py", *args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert "Traceback" not in done.stderr
