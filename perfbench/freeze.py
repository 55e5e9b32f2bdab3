#!/usr/bin/env python3
"""Freeze the output digests the benchmark checks against.

    python3 perfbench/freeze.py

Runs every valid item that any seed can draw (`workloads.catalogue()`)
once and writes `expected.json`: a sha256 prefix of each report or
explain text, keyed by `Item.key`. Re-freeze only in a change that alters
report or explain bytes on purpose, and say so in that change.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import EXPECTED_PATH, Program, digest, execute, hand_check  # noqa: E402
from workloads import catalogue  # noqa: E402


def main() -> int:
    program = Program()
    digests = {}
    for item in catalogue():
        outcome = execute(item, program)
        if outcome.error is not None:
            raise SystemExit(f"{item.name}: {type(outcome.error).__name__}: "
                             f"{outcome.error}")
        if item.mode == "run":
            wrong = hand_check(item.raw, outcome.result)
            if wrong:
                raise SystemExit(f"{item.name}: {wrong}")
        digests[item.key] = digest(outcome.text)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"env": program.env(), "digests": dict(sorted(digests.items()))},
                  handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"froze {len(digests)} digests into {EXPECTED_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
