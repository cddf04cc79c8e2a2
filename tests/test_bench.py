"""The benchmark's own files against the engine: the golden outputs replayed
in-process, and the tracer's hooks bound by name."""
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bigbracket.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_output_replays_byte_for_byte(key):
    entry = GOLDEN[key]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(list(entry["argv"]))
    assert (code, out.getvalue()) == (entry["exit"], entry["stdout"])


# Installing the tracer rebinds engine functions for the rest of the process,
# so it runs in a child interpreter.
TRACER_CHECK = """
import sys
import bigbracket.cli
import tracing

tracing.Tracer().install()
for key, module, qualname, _mode in tracing.TRACED:
    owner = sys.modules["bigbracket." + module]
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert owner.__name__ == "wrapper", key
print(len(tracing.TRACED))
"""


def test_tracer_binds_every_traced_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", TRACER_CHECK], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 30


def test_traced_necklace_pass_meets_the_correctness_gate():
    # The gate compares traced with untraced stdout, repeats the counts and
    # reads `rationals.nonreal_share` off the scalars' `im`.
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "necklace-cohomology",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert 0 < result["metrics"]["rationals.nonreal_share"]["value"] < 1


def test_traced_shla_pass_meets_the_correctness_gate():
    # The gate compares traced with untraced stdout and repeats the counts.
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "shla-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["courant.shla_identity.calls"]["value"] > 0
