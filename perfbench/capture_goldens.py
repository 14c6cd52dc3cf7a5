"""Capture the stdout of every command the cli workload can issue.

Run from any directory, at the commit whose outputs the goldens pin:

    python3 perfbench/capture_goldens.py

Each command runs as a fresh ``python -m normalobs.cli`` process, as the
workload runs it. The result is written to perfbench/goldens.json.
"""

from __future__ import annotations

import json
import sys

from workloads import (
    CLI_POOLS, CLI_TAIL, GOLDENS_PATH, SCENARIO_OUT, golden_key, run_cli_subprocess,
)


def main() -> int:
    SCENARIO_OUT.parent.mkdir(parents=True, exist_ok=True)
    goldens = {}
    for argv in [a for pool in CLI_POOLS.values() for a in pool] + CLI_TAIL:
        code, stdout = run_cli_subprocess(argv)
        if code != 0:
            print(f"{golden_key(argv)}: exit code {code}", file=sys.stderr)
            return 1
        goldens[golden_key(argv)] = {"code": code, "stdout": stdout.decode()}
    with open(GOLDENS_PATH, "w", encoding="utf-8") as f:
        json.dump(goldens, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{len(goldens)} goldens written to {GOLDENS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
