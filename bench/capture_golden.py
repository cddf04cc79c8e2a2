#!/usr/bin/env python3
"""Record the golden stdout and exit code of every template preset operation.

    python3 bench/capture_golden.py

Run from the root of a checkout of the commit whose outputs define
correctness; it rewrites bench/golden.json.  Seeded passing operations are
compared byte for byte against these outputs (command line replaced).
"""
from __future__ import annotations

import json
import os

import run
import workloads


def main():
    cli = run.import_engine()
    golden = {}
    for key, argv in workloads.TEMPLATE_ARGV.items():
        _dt, code, stdout, _stderr = run.run_op(cli, workloads.Op(argv, 0))
        golden[key] = {"argv": argv, "exit": code, "stdout": stdout}
        print(f"{key}: exit {code}, {stdout.count(chr(10))} lines")
    with open(os.path.join(run.HERE, "golden.json"), "w") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
